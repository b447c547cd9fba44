//! `fleet`: `run_fleet` in a closed loop from one thread over two
//! in-process peer daemons on loopback, on small families.  The only
//! workload that exercises `serve::fleet`.

use crate::clock::Clock;
use crate::harness::{
    closed_loop, measure_setup, ms_since, put_overhead, traced, us_since, Daemon, Reference,
    Sample, Timed, BASELINE_MIN, BASELINE_SHARE, CAMPAIGN_SPAN,
};
use crate::layers::{put_ratio, summarize, Pass};
use crate::stats::{Outcome, Ratio, Rng, MIN_CAMPAIGNS};
use crate::{Opts, RunOutput};
use satpg_core::{build_cssg_sharded, faults_for};
use satpg_engine::{run_engine, EngineConfig};
use satpg_serve::{
    job_atpg_config, resolve_circuit, run_fleet, run_fleet_built, CircuitSpec, FleetConfig,
    JobSpec, ServeConfig,
};
use satpg_trace::span;
use std::time::Instant;

const PEERS: usize = 2;
const SETUP_REPEATS: usize = 3;
const TRACE_PASSES: usize = 3;

/// The campaigns, each a family by name (about six shards each).
const MIX: &[(&str, usize)] = &[("muller", 10), ("muller", 16), ("dme", 3), ("arbiter", 4)];

fn specs() -> Vec<JobSpec> {
    MIX.iter()
        .map(|&(name, size)| {
            JobSpec::new(CircuitSpec::Family {
                name: name.to_string(),
                size,
            })
        })
        .collect()
}

/// Peer daemons with one fleet campaign per spec already run.
struct Fleet {
    _peers: Vec<Daemon>,
    config: FleetConfig,
}

fn start_warm(specs: &[JobSpec]) -> Fleet {
    let peers: Vec<Daemon> = (0..PEERS)
        .map(|_| Daemon::start(ServeConfig::default()))
        .collect();
    let config = FleetConfig {
        peers: peers.iter().map(|d| d.addr.clone()).collect(),
        ..FleetConfig::default()
    };
    for spec in specs {
        std::hint::black_box(run_fleet(spec, &config).ok());
    }
    Fleet {
        _peers: peers,
        config,
    }
}

fn single(fleet: &Fleet, specs: &[JobSpec], refs: &[Reference], i: usize) -> Sample {
    let t = Instant::now();
    let r = run_fleet(&specs[i], &fleet.config);
    let ms = ms_since(t);
    match r {
        Ok(outcome) => Sample::of(ms, &outcome.report, &refs[i]),
        Err(_) => Sample {
            ms,
            verdicts: None,
            outcome: Outcome::Error,
        },
    }
}

/// `run_fleet` as its public calls — `resolve_circuit`,
/// `build_cssg_sharded` on one thread, `run_fleet_built` — under spans.
/// After the campaign, an in-process `run_engine` with one worker per
/// peer prices the distribution.
fn decomposed(
    fleet: &Fleet,
    spec: &JobSpec,
    reference: &Reference,
    pass: &mut Pass,
    timed: &mut Timed,
) {
    let campaign = span!(CAMPAIGN_SPAN);
    let t0 = Instant::now();
    let t = Instant::now();
    let ckt = {
        let _s = span!("bench.resolve");
        resolve_circuit(&spec.circuit).expect("fleet specs resolve")
    };
    pass.sum("stg.synth_us", us_since(t));
    let acfg = job_atpg_config(spec, &ckt);
    let t = Instant::now();
    let built = {
        let _s = span!("bench.cssg");
        build_cssg_sharded(&ckt, &acfg.cssg, 1)
    };
    let us_cssg = us_since(t);
    let Ok(cssg) = built else {
        timed.add(Sample {
            ms: ms_since(t0),
            verdicts: None,
            outcome: Outcome::Error,
        });
        return;
    };
    let faults = faults_for(&ckt, acfg.fault_model);
    let outcome = {
        let _s = span!("bench.fleet");
        run_fleet_built(
            &ckt,
            &cssg,
            &faults,
            &acfg,
            spec,
            &fleet.config,
            us_cssg as u128,
        )
    };
    drop(campaign);
    let ms = ms_since(t0);
    timed.add(Sample::of(ms, &outcome.report, reference));

    let cfg = EngineConfig {
        atpg: acfg,
        workers: PEERS,
        ..EngineConfig::default()
    };
    let t = Instant::now();
    let local = {
        let _s = span!("bench.engine_in_process");
        run_engine(&ckt, &cfg)
    };
    pass.sum("fleet.in_process_ms", ms_since(t));
    timed.tally.record(match &local {
        Ok(r) => reference.check(&r.report),
        Err(_) => Outcome::Error,
    });

    pass.cssg(&cssg, us_cssg);
    pass.report(&outcome.report);
    pass.sum("fleet.campaign_ms", ms);
    let s = &outcome.stats;
    pass.count("fleet.shards", s.shards);
    pass.sum("fleet.remote_verdicts", s.remote_verdicts as f64);
    pass.sum("fleet.broadcasts_relayed", s.broadcasts_relayed as f64);
    pass.sum("fleet.retries", s.retries as f64);
    pass.sum("fleet.merge_fallbacks", s.merge_fallbacks as f64);
}

pub fn run(opts: &Opts) -> RunOutput {
    let mut rng = Rng::new(opts.seed);
    // Campaigns wait on loopback round trips, not the CPU: plain wall
    // clock.
    let mut clock = Clock::wall();
    let mut out = RunOutput::default();
    let specs = specs();
    let references = || -> Vec<Reference> {
        specs
            .iter()
            .map(|s| {
                let ckt = resolve_circuit(&s.circuit).expect("fleet specs resolve");
                Reference::compute(&ckt, &job_atpg_config(s, &ckt))
            })
            .collect()
    };
    if !opts.trace {
        let (setup_s, fleet) = measure_setup(SETUP_REPEATS, &mut clock, || start_warm(&specs));
        let refs = references();
        let timed = closed_loop(
            opts.seconds,
            MIN_CAMPAIGNS,
            specs.len(),
            &mut rng,
            &mut clock,
            |i| single(&fleet, &specs, &refs, i),
        );
        drop(fleet);
        out.metrics = timed.end_to_end(setup_s, &mut out.notes);
        out.notes.push(clock.describe());
        out.tally = timed.tally;
        return out;
    }

    let fleet = start_warm(&specs);
    let refs = references();
    let baseline = closed_loop(
        opts.seconds * BASELINE_SHARE,
        BASELINE_MIN,
        specs.len(),
        &mut rng,
        &mut clock,
        |i| single(&fleet, &specs, &refs, i),
    );
    let ((passes, traced_run), uncovered) = traced("fleet", || {
        let mut passes = Vec::new();
        let mut timed = Timed::default();
        for _ in 0..TRACE_PASSES {
            let mut pass = Pass::default();
            for i in rng.permutation(specs.len()) {
                decomposed(&fleet, &specs[i], &refs[i], &mut pass, &mut timed);
            }
            passes.push(pass);
        }
        (passes, timed)
    });
    drop(fleet);
    let m = &mut out.metrics;
    summarize(&passes, m, &mut out.notes, &mut out.problems);
    let overhead = Ratio::new(m["fleet.campaign_ms"], m["fleet.in_process_ms"]);
    put_ratio(m, &mut out.notes, "fleet.overhead_ratio", overhead);
    put_overhead(m, &mut out.notes, &baseline, &traced_run, uncovered);
    out.tally = baseline.tally;
    out.tally.absorb(traced_run.tally);
    out
}
