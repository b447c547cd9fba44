//! `paper_suite`: the paper's own experiment, `satpg table 1` and
//! `satpg table 2` — all 23 bundled STGs, synthesized speed-independent
//! and two-level (redundant covers where Table 2 uses them), under both
//! fault models: 92 serial `run_atpg` campaigns per round with
//! `AtpgConfig::paper()`, in a seeded order.

use crate::clock::Clock;
use crate::harness::{
    bench, closed_loop, measure_setup, ms_since, put_overhead, table2_style, traced, us_since,
    Prepared, Reference, Sample, Timed, BASELINE_MIN, BASELINE_SHARE, CAMPAIGN_SPAN,
};
use crate::layers::{summarize, Pass};
use crate::stats::{Outcome, Rng, MIN_CAMPAIGNS};
use crate::{Opts, RunOutput};
use satpg_core::stages::StageTimings;
use satpg_core::stages::{assemble_report, random_stage, targeted_stage, FaultPlan, StageState};
use satpg_core::{
    build_cssg, faults_for, run_atpg, three_phase, AtpgConfig, AtpgReport, CoreError, FaultModel,
    FaultStatus,
};
use satpg_stg::suite;
use satpg_trace::span;
use std::time::Instant;

const SETUP_REPEATS: usize = 9;
const TRACE_PASSES: usize = 3;

/// One campaign: a circuit index and the flow configuration.
type Spec = (usize, AtpgConfig);

/// Synthesizes every circuit of both tables; returns them with the
/// summed synthesis time in microseconds.
fn prepare() -> (Vec<Prepared>, f64) {
    let t = Instant::now();
    let mut circuits = Vec::new();
    for &name in suite::NAMES {
        for style in ["si", table2_style(name)] {
            let _s = span!("bench.synth", circuit = name, style = style);
            circuits.push(bench(name, style));
        }
    }
    (circuits, us_since(t))
}

fn specs(circuits: usize) -> Vec<Spec> {
    let mut out = Vec::new();
    for ci in 0..circuits {
        for fault_model in [FaultModel::InputStuckAt, FaultModel::OutputStuckAt] {
            out.push((
                ci,
                AtpgConfig {
                    fault_model,
                    ..AtpgConfig::paper()
                },
            ));
        }
    }
    out
}

/// `run_atpg` decomposed into its public stages, each under a span, with
/// the three-phase oracle wrapped and timed.  Produces the same report.
fn decomposed(
    ckt: &satpg_netlist::Circuit,
    cfg: &AtpgConfig,
    pass: &mut Pass,
) -> Result<AtpgReport, CoreError> {
    let _campaign = span!(CAMPAIGN_SPAN, circuit = ckt.name());
    let t = Instant::now();
    let cssg = {
        let _s = span!("bench.cssg");
        build_cssg(ckt, &cfg.cssg)?
    };
    let us_cssg = us_since(t);
    if cssg.num_edges() == 0 {
        return Err(CoreError::NoValidVectors);
    }
    let (faults, plan) = {
        let _s = span!("bench.plan");
        let faults = faults_for(ckt, cfg.fault_model);
        let plan = FaultPlan::new(ckt, &faults, cfg.collapse);
        (faults, plan)
    };
    let mut state = StageState::new(plan.len());
    let t = Instant::now();
    if let Some(rnd) = &cfg.random {
        let _s = span!("bench.random");
        random_stage(ckt, &cssg, &plan, rnd, &mut state);
    }
    let us_random = us_since(t);
    let t = Instant::now();
    let (mut oracle_us, mut calls) = (0.0, 0u64);
    {
        let _s = span!("bench.targeted");
        let queue: Vec<usize> = (0..plan.len()).collect();
        targeted_stage(
            ckt,
            &cssg,
            &plan,
            cfg.fault_sim,
            &queue,
            &mut state,
            &mut |_, f| {
                let _s = span!("bench.three_phase");
                let t = Instant::now();
                let v: FaultStatus = three_phase(ckt, &cssg, f, &cfg.three_phase);
                oracle_us += us_since(t);
                calls += 1;
                v
            },
        );
    }
    let us_targeted = us_since(t);
    let report = {
        let _s = span!("bench.assemble");
        assemble_report(
            ckt,
            &cssg,
            &faults,
            &plan,
            state,
            StageTimings {
                us_cssg: us_cssg as u128,
                us_random: us_random as u128,
                us_three_phase: us_targeted as u128,
            },
        )
    };
    pass.cssg(&cssg, us_cssg);
    pass.report(&report);
    pass.count("three_phase.oracle_calls", calls);
    pass.sum("random.us", us_random);
    pass.sum("three_phase.us", oracle_us);
    pass.sum("fsim.us", us_targeted - oracle_us);
    Ok(report)
}

pub fn run(opts: &Opts) -> RunOutput {
    let mut rng = Rng::new(opts.seed);
    let mut clock = Clock::calibrated(1);
    let mut out = RunOutput::default();
    if !opts.trace {
        let (setup_s, circuits) = measure_setup(SETUP_REPEATS, &mut clock, || {
            let (circuits, _) = prepare();
            for (ci, cfg) in specs(circuits.len()) {
                std::hint::black_box(run_atpg(&circuits[ci].circuit, &cfg).ok());
            }
            circuits
        });
        let specs = specs(circuits.len());
        let refs: Vec<Reference> = specs
            .iter()
            .map(|(ci, cfg)| Reference::compute(&circuits[*ci].circuit, cfg))
            .collect();
        let timed = closed_loop(
            opts.seconds,
            MIN_CAMPAIGNS,
            specs.len(),
            &mut rng,
            &mut clock,
            |i| single(&circuits, &specs, &refs, i),
        );
        out.metrics = timed.end_to_end(setup_s, &mut out.notes);
        out.notes.push(clock.describe());
        out.tally = timed.tally;
        return out;
    }

    let (circuits, _) = prepare();
    let specs = specs(circuits.len());
    let refs: Vec<Reference> = specs
        .iter()
        .map(|(ci, cfg)| Reference::compute(&circuits[*ci].circuit, cfg))
        .collect();
    let baseline = closed_loop(
        opts.seconds * BASELINE_SHARE,
        BASELINE_MIN,
        specs.len(),
        &mut rng,
        &mut clock,
        |i| single(&circuits, &specs, &refs, i),
    );
    let ((synth_us, passes, traced_run), uncovered) = traced("paper_suite", || {
        let (_, synth_us) = prepare();
        let mut passes = Vec::new();
        let mut timed = Timed::default();
        for _ in 0..TRACE_PASSES {
            let mut pass = Pass::default();
            for i in rng.permutation(specs.len()) {
                let (ci, cfg) = &specs[i];
                let t = Instant::now();
                let r = decomposed(&circuits[*ci].circuit, cfg, &mut pass);
                let ms = clock.scale(ms_since(t));
                timed.add(match r {
                    Ok(r) => Sample::of(ms, &r, &refs[i]),
                    Err(_) => Sample {
                        ms,
                        verdicts: None,
                        outcome: Outcome::Error,
                    },
                });
            }
            passes.push(pass);
        }
        (synth_us, passes, timed)
    });
    let m = &mut out.metrics;
    m.insert("stg.synth_us", synth_us);
    m.insert(
        "stg.sg_states",
        circuits.iter().map(|c| c.sg_states as f64).sum(),
    );
    summarize(&passes, m, &mut out.notes, &mut out.problems);
    check_oracle_calls(&passes, &mut out.problems);
    put_overhead(m, &mut out.notes, &baseline, &traced_run, uncovered);
    out.tally = baseline.tally;
    out.tally.absorb(traced_run.tally);
    out
}

fn single(circuits: &[Prepared], specs: &[Spec], refs: &[Reference], i: usize) -> Sample {
    let (ci, cfg) = &specs[i];
    let t = Instant::now();
    let r = run_atpg(&circuits[*ci].circuit, cfg);
    let ms = ms_since(t);
    match r {
        Ok(r) => Sample::of(ms, &r, &refs[i]),
        Err(_) => Sample {
            ms,
            verdicts: None,
            outcome: Outcome::Error,
        },
    }
}

/// The wrapped oracle's call count must equal the serial-equivalent
/// count the verdicts imply.
fn check_oracle_calls(passes: &[Pass], problems: &mut Vec<String>) {
    for (i, p) in passes.iter().enumerate() {
        let got = p.counts.get("three_phase.oracle_calls");
        let implied = p.counts.get("three_phase.calls");
        if got != implied {
            problems.push(format!(
                "pass {}: {got:?} oracle calls, verdicts imply {implied:?}",
                i + 1
            ));
        }
    }
}
