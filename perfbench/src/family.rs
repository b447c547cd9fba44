//! `family_engine`: `run_engine` on generated families with the
//! `satpg engine` CLI defaults — `AtpgConfig::scaled`, one worker per
//! CPU, symbolic audit on, CSSG build sharded over the workers.

use crate::clock::Clock;
use crate::harness::{
    closed_loop, family, measure_setup, ms_since, put_overhead, traced, us_since, Prepared,
    Reference, Sample, Timed, BASELINE_MIN, BASELINE_SHARE, CAMPAIGN_SPAN,
};
use crate::layers::{summarize, Pass};
use crate::stats::{Outcome, Rng, Tally, MIN_CAMPAIGNS};
use crate::{Opts, RunOutput};
use satpg_core::{build_cssg_sharded, faults_for, AtpgConfig};
use satpg_engine::{run_engine, run_engine_on, EngineConfig, EngineReport};
use satpg_trace::span;
use std::time::Instant;

/// The circuit mix, one campaign each per round.  Thirteen circuits so
/// that the median and the 90th percentile fall inside the cost band of
/// one circuit (the 7th and 12th cheapest), not on a step between two.
const MIX: &[(&str, usize)] = &[
    ("seq", 6),
    ("seq", 8),
    ("dme", 3),
    ("dme", 4),
    ("dme", 5),
    ("muller", 10),
    ("muller", 12),
    ("muller", 16),
    ("muller", 19),
    ("muller", 22),
    ("arbiter", 4),
    ("arbiter", 5),
    ("arbiter", 6),
];

const SETUP_REPEATS: usize = 5;
const TRACE_PASSES: usize = 2;

/// Generates every circuit of the mix; returns them with the summed
/// generation time in microseconds.
fn prepare() -> (Vec<Prepared>, f64) {
    let t = Instant::now();
    let circuits = MIX
        .iter()
        .map(|&(name, size)| {
            let _s = span!("bench.synth", family = name, size = size);
            family(name, size)
        })
        .collect();
    (circuits, us_since(t))
}

/// The `satpg engine` defaults for `ckt`.
fn engine_config(ckt: &satpg_netlist::Circuit) -> EngineConfig {
    EngineConfig {
        atpg: AtpgConfig::scaled(ckt),
        ..EngineConfig::default()
    }
}

fn single(circuits: &[Prepared], refs: &[Reference], i: usize) -> Sample {
    let ckt = &circuits[i].circuit;
    let cfg = engine_config(ckt);
    let t = Instant::now();
    let r = run_engine(ckt, &cfg);
    let ms = ms_since(t);
    match r {
        Ok(out) => Sample::of(ms, &out.report, &refs[i]),
        Err(_) => Sample {
            ms,
            verdicts: None,
            outcome: Outcome::Error,
        },
    }
}

/// `run_engine` as its two public calls, `build_cssg_sharded` then
/// `run_engine_on`, under spans.  After the campaign the same CSSG runs
/// once more with the audit off, which prices the audit; its report is
/// checked into `tally`.  Returns the campaign's sample.
fn decomposed(
    ckt: &satpg_netlist::Circuit,
    reference: &Reference,
    pass: &mut Pass,
    tally: &mut Tally,
) -> Sample {
    let cfg = engine_config(ckt);
    let campaign = span!(CAMPAIGN_SPAN, circuit = ckt.name());
    let t0 = Instant::now();
    let t = Instant::now();
    let built = {
        let _s = span!("bench.cssg");
        build_cssg_sharded(ckt, &cfg.atpg.cssg, cfg.build_shards())
    };
    let us_cssg = us_since(t);
    let Ok(cssg) = built else {
        return Sample {
            ms: ms_since(t0),
            verdicts: None,
            outcome: Outcome::Error,
        };
    };
    let faults = faults_for(ckt, cfg.atpg.fault_model);
    let t = Instant::now();
    let out = {
        let _s = span!("bench.engine");
        run_engine_on(ckt, &cssg, &faults, &cfg, us_cssg as u128)
    };
    let us_engine = us_since(t);
    drop(campaign);
    let sample = Sample::of(ms_since(t0), &out.report, reference);

    let no_audit = EngineConfig {
        symbolic_audit: false,
        ..cfg.clone()
    };
    let t = Instant::now();
    let plain = {
        let _s = span!("bench.engine_no_audit");
        run_engine_on(ckt, &cssg, &faults, &no_audit, us_cssg as u128)
    };
    let us_plain = us_since(t);
    tally.record(reference.check(&plain.report));

    pass.cssg(&cssg, us_cssg);
    pass.report(&out.report);
    engine_layers(pass, &out, us_engine, us_plain);
    sample
}

fn engine_layers(pass: &mut Pass, out: &EngineReport, us_engine: f64, us_plain: f64) {
    pass.sum("random.us", out.report.us_random as f64);
    pass.sum("engine.campaign_us", us_engine);
    pass.sum("engine.audit_us", us_engine - us_plain);
    pass.sum("engine.parallel_us", out.us_parallel as f64);
    pass.sum("engine.merge_us", out.us_merge as f64);
    pass.sum(
        "engine.busy_us",
        out.workers.iter().map(|w| w.us_busy as f64).sum(),
    );
    pass.sum(
        "engine.worker_us",
        (out.workers.len() as u128 * out.us_parallel) as f64,
    );
    let total = |f: fn(&satpg_engine::WorkerStats) -> usize| -> f64 {
        out.workers.iter().map(f).sum::<usize>() as f64
    };
    pass.sum("engine.stolen", total(|w| w.stolen));
    pass.sum("engine.broadcast_drops", total(|w| w.broadcast_drops));
    pass.sum("engine.merge_fallbacks", out.merge_fallbacks as f64);
    pass.sum("bdd.audit_failures", total(|w| w.audit_failures));
    let peak = out
        .workers
        .iter()
        .map(|w| w.bdd_peak_unique)
        .max()
        .unwrap_or(0) as f64;
    let slot = pass.sums.entry("bdd.peak_nodes").or_default();
    *slot = slot.max(peak);
}

pub fn run(opts: &Opts) -> RunOutput {
    let mut rng = Rng::new(opts.seed);
    // Campaigns run one engine worker per CPU.
    let mut clock = Clock::calibrated(std::thread::available_parallelism().map_or(1, |n| n.get()));
    let mut out = RunOutput::default();
    if !opts.trace {
        let (setup_s, circuits) = measure_setup(SETUP_REPEATS, &mut clock, || {
            let (circuits, _) = prepare();
            for c in &circuits {
                std::hint::black_box(run_engine(&c.circuit, &engine_config(&c.circuit)).ok());
            }
            circuits
        });
        let refs = references(&circuits);
        let timed = closed_loop(
            opts.seconds,
            MIN_CAMPAIGNS,
            circuits.len(),
            &mut rng,
            &mut clock,
            |i| single(&circuits, &refs, i),
        );
        out.metrics = timed.end_to_end(setup_s, &mut out.notes);
        out.notes.push(clock.describe());
        out.tally = timed.tally;
        return out;
    }

    let (circuits, _) = prepare();
    let refs = references(&circuits);
    let baseline = closed_loop(
        opts.seconds * BASELINE_SHARE,
        BASELINE_MIN,
        circuits.len(),
        &mut rng,
        &mut clock,
        |i| single(&circuits, &refs, i),
    );
    let ((synth_us, passes, traced_run), uncovered) = traced("family_engine", || {
        let (_, synth_us) = prepare();
        let mut passes = Vec::new();
        let mut timed = Timed::default();
        for _ in 0..TRACE_PASSES {
            let mut pass = Pass::default();
            for i in rng.permutation(circuits.len()) {
                let s = decomposed(&circuits[i].circuit, &refs[i], &mut pass, &mut timed.tally);
                timed.add(Sample {
                    ms: clock.scale(s.ms),
                    ..s
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
    let busy = crate::stats::Ratio::new(m["engine.busy_us"], m["engine.worker_us"]);
    crate::layers::put_ratio(m, &mut out.notes, "engine.worker_busy_ratio", busy);
    if m["bdd.audit_failures"] != 0.0 {
        out.problems.push(format!(
            "{} symbolic audit failures",
            m["bdd.audit_failures"]
        ));
    }
    // `bdd.peak_nodes` is a maximum, not a per-pass sum.
    let peak = passes
        .iter()
        .map(|p| p.sums.get("bdd.peak_nodes").copied().unwrap_or(0.0))
        .fold(0.0, f64::max);
    m.insert("bdd.peak_nodes", peak);
    put_overhead(m, &mut out.notes, &baseline, &traced_run, uncovered);
    out.tally = baseline.tally;
    out.tally.absorb(traced_run.tally);
    out
}

fn references(circuits: &[Prepared]) -> Vec<Reference> {
    circuits
        .iter()
        .map(|c| Reference::compute(&c.circuit, &AtpgConfig::scaled(&c.circuit)))
        .collect()
}
