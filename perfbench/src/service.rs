//! `service`: an in-process daemon with `ServeConfig::default()`, driven
//! as a closed loop by up to two clients — one keeps its connection
//! (like `Client` users and the fleet), one connects afresh for each job
//! (like `satpg submit`).  Jobs are drawn, seeded, from a working set a
//! little larger than the daemon's 64-entry caches: bench-by-name specs
//! the daemon synthesizes, small families, and inline `.ckt` texts the
//! daemon parses.

use crate::clock::Clock;
use crate::harness::{
    bench, family, measure_setup, put_overhead, table2_style, traced, us_since, Daemon, Reference,
    Sample, Timed, BASELINE_MIN, BASELINE_SHARE, CAMPAIGN_SPAN,
};
use crate::layers::put_ratio;
use crate::stats::{median, Outcome, Ratio, Rng, MIN_CAMPAIGNS};
use crate::{Opts, RunOutput};
use satpg_core::json::Json;
use satpg_netlist::{parse_ckt, to_ckt};
use satpg_serve::ServeConfig;
use satpg_serve::{job_atpg_config, resolve_circuit, CircuitSpec, Client, ClientError, JobSpec};
use satpg_stg::suite;
use satpg_trace::span;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Barrier;
use std::time::Instant;

const SETUP_REPEATS: usize = 3;

/// Families submitted by name: `(family, size)`.
const FAMILIES: &[(&str, usize)] = &[
    ("muller", 3),
    ("muller", 4),
    ("muller", 5),
    ("muller", 6),
    ("muller", 7),
    ("muller", 8),
    ("muller", 9),
    ("muller", 10),
    ("arbiter", 2),
    ("arbiter", 3),
    ("arbiter", 4),
    ("dme", 2),
    ("dme", 3),
    ("seq", 2),
    ("seq", 3),
    ("seq", 4),
];

/// Families submitted as inline `.ckt` text: sizes none of the named
/// specs use, so every inline text is a distinct CSSG.
const INLINE: &[(&str, usize)] = &[
    ("muller", 11),
    ("muller", 12),
    ("muller", 13),
    ("muller", 14),
    ("muller", 15),
    ("muller", 16),
    ("muller", 17),
    ("muller", 18),
    ("muller", 20),
    ("muller", 21),
    ("seq", 5),
    ("seq", 6),
    ("seq", 7),
    ("seq", 8),
    ("dme", 4),
    ("arbiter", 5),
];

/// The working set: 46 bench specs, 16 families, 16 inline texts.
fn working_set() -> Vec<CircuitSpec> {
    let mut specs = Vec::new();
    for &name in suite::NAMES {
        for style in ["si", table2_style(name)] {
            specs.push(CircuitSpec::Bench {
                name: name.to_string(),
                style: style.to_string(),
            });
        }
    }
    for &(name, size) in FAMILIES {
        specs.push(CircuitSpec::Family {
            name: name.to_string(),
            size,
        });
    }
    for &(name, size) in INLINE {
        specs.push(CircuitSpec::InlineCkt {
            text: to_ckt(&family(name, size).circuit),
        });
    }
    specs
}

/// A job's expected report: the serial reference, normalized through
/// the same parse/render path the daemon's `report` event takes.
fn expected(spec: &CircuitSpec) -> String {
    let ckt = resolve_circuit(spec).expect("working-set specs resolve");
    let cfg = job_atpg_config(&JobSpec::new(spec.clone()), &ckt);
    let reference = Reference::compute(&ckt, &cfg);
    Json::parse(&reference.json)
        .expect("reports render valid JSON")
        .render()
}

/// The timing-free part of a `report` event's report, with its
/// `(faults, detected)` totals.
fn timing_free(event: &Json) -> Option<(String, (usize, usize))> {
    let Json::Obj(fields) = event.get("report")? else {
        return None;
    };
    let report = Json::Obj(
        fields
            .iter()
            .filter(|(k, _)| k != "timing_us")
            .cloned()
            .collect(),
    );
    let totals = report.get("totals")?;
    let faults = totals.get("faults")?.as_usize()?;
    let detected = totals.get("detected")?.as_usize()?;
    Some((report.render(), (faults, detected)))
}

/// Client-side timings of one job.
#[derive(Default)]
struct JobTimes {
    connect_us: Option<f64>,
    accepted_us: Option<f64>,
    exec_us: Option<f64>,
    events: usize,
}

/// One submission.  `conn` is the persistent connection, or `None` to
/// connect afresh.  Under a collector the layer calls are spans:
/// connecting, waiting for `accepted`, and executing until `report`.
fn submit(
    addr: &str,
    conn: &mut Option<Client>,
    spec: &CircuitSpec,
    expected: &str,
) -> (Sample, JobTimes) {
    let mut times = JobTimes::default();
    let _campaign = span!(CAMPAIGN_SPAN);
    let t0 = Instant::now();
    let mut fresh = None;
    let client = match conn {
        Some(c) => c,
        None => {
            let _s = span!("bench.connect");
            match Client::connect(addr) {
                Ok(c) => {
                    times.connect_us = Some(us_since(t0));
                    fresh.insert(c)
                }
                Err(_) => return (failed(t0, Outcome::Error), times),
            }
        }
    };
    let mut waiting = Some(span!("bench.accepted"));
    let mut executing = None;
    let t_submit = Instant::now();
    let mut t_accepted = None;
    let result = client.submit_streaming(JobSpec::new(spec.clone()), &mut |ev| {
        times.events += 1;
        if ev.get("event").and_then(Json::as_str) == Some("accepted") {
            drop(waiting.take());
            executing = Some(span!("bench.exec"));
            t_accepted = Some(Instant::now());
        }
    });
    drop(executing);
    drop(waiting);
    if let Some(t) = t_accepted {
        times.accepted_us = Some((t - t_submit).as_secs_f64() * 1e6);
        times.exec_us = Some(us_since(t));
    }
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    let sample = match result {
        Ok(outcome) => match timing_free(&outcome.report) {
            Some((json, verdicts)) => Sample {
                ms,
                verdicts: Some(verdicts),
                outcome: if json == expected {
                    Outcome::Identical
                } else {
                    Outcome::Differs
                },
            },
            None => failed(t0, Outcome::Differs),
        },
        Err(ClientError::Rejected(_)) => failed(t0, Outcome::Rejected),
        Err(_) => failed(t0, Outcome::Error),
    };
    (sample, times)
}

fn failed(t0: Instant, outcome: Outcome) -> Sample {
    Sample {
        ms: t0.elapsed().as_secs_f64() * 1e3,
        verdicts: None,
        outcome,
    }
}

/// Submissions per round by client role.  Role 0 connects afresh for
/// each job, role 1 keeps its connection.  The clients meet at a barrier
/// after each round, so the two connection styles stay mixed 4:1
/// whatever their latencies, and the median and 90th percentile fall
/// inside one style's band each rather than on the step between them.
const QUOTA: [usize; 2] = [4, 1];

/// Copies of the working set in the job deck.  The clients deal jobs
/// from one seeded shuffle of this many copies, so the draws are random
/// (the LRU caches see no fixed reuse distance) yet a run's circuit mix
/// stays close to the working set's, whatever the seed.
const DECK_COPIES: usize = 8;

/// Both clients in lock-step rounds until `seconds` passed and they ran
/// `min_jobs`.  Each client is a closed loop: it submits its next job
/// when the previous report arrived.  Throughput divides by the loop's
/// wall clock.  With a single CPU only role 0 runs.
fn drive(
    addr: &str,
    specs: &[CircuitSpec],
    expected: &[String],
    seed: u64,
    seconds: f64,
    min_jobs: usize,
) -> (Timed, Vec<JobTimes>) {
    let clients = std::thread::available_parallelism().map_or(1, |n| n.get().min(2));
    let deck: Vec<usize> = Rng::new(seed)
        .permutation(specs.len() * DECK_COPIES)
        .into_iter()
        .map(|card| card % specs.len())
        .collect();
    let barrier = Barrier::new(clients);
    let stop = AtomicBool::new(false);
    let done = AtomicUsize::new(0);
    let start = Instant::now();
    let per_client: Vec<(Timed, Vec<JobTimes>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|role| {
                let (barrier, stop, done, deck) = (&barrier, &stop, &done, &deck);
                scope.spawn(move || {
                    let mut conn =
                        (role == 1).then(|| Client::connect(addr).expect("connect to the daemon"));
                    let mut timed = Timed::default();
                    let mut times = Vec::new();
                    loop {
                        for _ in 0..QUOTA[role] {
                            let i = deck[done.fetch_add(1, Ordering::SeqCst) % deck.len()];
                            let (s, t) = submit(addr, &mut conn, &specs[i], &expected[i]);
                            timed.add(s);
                            times.push(t);
                        }
                        if barrier.wait().is_leader() {
                            let finished = start.elapsed().as_secs_f64() >= seconds
                                && done.load(Ordering::SeqCst) >= min_jobs;
                            stop.store(finished, Ordering::SeqCst);
                        }
                        barrier.wait();
                        if stop.load(Ordering::SeqCst) {
                            break;
                        }
                    }
                    (timed, times)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let mut timed = Timed::default();
    let mut times = Vec::new();
    for (t, jt) in per_client {
        timed.absorb(t);
        times.extend(jt);
    }
    timed.busy_s = start.elapsed().as_secs_f64();
    (timed, times)
}

/// A daemon with every working-set spec submitted once, each on a fresh
/// connection.
fn start_warm(specs: &[CircuitSpec]) -> Daemon {
    let daemon = Daemon::start(ServeConfig::default());
    for spec in specs {
        let mut client = Client::connect(&daemon.addr).expect("connect to the daemon");
        std::hint::black_box(client.submit(JobSpec::new(spec.clone())).ok());
    }
    daemon
}

/// `(hits, misses)` of one daemon cache level from `status`.
fn cache_counts(status: &Json, level: &str) -> (f64, f64) {
    let c = status.get("cache").and_then(|c| c.get(level));
    let n = |k| {
        c.and_then(|c| c.get(k))
            .and_then(Json::as_usize)
            .unwrap_or(0) as f64
    };
    (n("hits"), n("misses"))
}

pub fn run(opts: &Opts) -> RunOutput {
    let mut out = RunOutput::default();
    let specs = working_set();
    if !opts.trace {
        // Jobs wait on loopback round trips and the accept loop's
        // polling, not the CPU: plain wall clock.
        let (setup_s, daemon) =
            measure_setup(SETUP_REPEATS, &mut Clock::wall(), || start_warm(&specs));
        let expected: Vec<String> = specs.iter().map(expected).collect();
        let (timed, _) = drive(
            &daemon.addr,
            &specs,
            &expected,
            opts.seed,
            opts.seconds,
            MIN_CAMPAIGNS,
        );
        drop(daemon);
        out.notes.push(format!(
            "working set: {} specs, daemon caches hold 64",
            specs.len()
        ));
        out.metrics = timed.end_to_end(setup_s, &mut out.notes);
        out.tally = timed.tally;
        return out;
    }

    let daemon = start_warm(&specs);
    let expected: Vec<String> = specs.iter().map(expected).collect();
    let (baseline, _) = drive(
        &daemon.addr,
        &specs,
        &expected,
        opts.seed,
        opts.seconds * BASELINE_SHARE,
        BASELINE_MIN,
    );
    let mut status_client = Client::connect(&daemon.addr).expect("connect to the daemon");
    let before = status_client.status().expect("daemon status");
    let ((traced_run, times, synth_us, sg_states, parse_us), uncovered) = traced("service", || {
        let (traced_run, times) = drive(
            &daemon.addr,
            &specs,
            &expected,
            opts.seed ^ 0x5eed,
            opts.seconds * (1.0 - BASELINE_SHARE),
            BASELINE_MIN,
        );
        // The layers the daemon enters on a cache miss, timed here on
        // the same inputs: synthesis of the named specs, parsing of the
        // inline texts.
        let (mut synth_us, mut sg_states, mut parse_us) = (0.0, 0, 0.0);
        for spec in &specs {
            let t = Instant::now();
            match spec {
                CircuitSpec::Bench { name, style } => {
                    let _s = span!("bench.synth");
                    sg_states += bench(name, style).sg_states;
                    synth_us += us_since(t);
                }
                CircuitSpec::Family { name, size } => {
                    let _s = span!("bench.synth");
                    sg_states += family(name, *size).sg_states;
                    synth_us += us_since(t);
                }
                CircuitSpec::InlineCkt { text } => {
                    let _s = span!("bench.parse");
                    std::hint::black_box(parse_ckt(text).expect("inline texts parse"));
                    parse_us += us_since(t);
                }
                CircuitSpec::InlineG { .. } => unreachable!("the working set has no .g texts"),
            }
        }
        (traced_run, times, synth_us, sg_states, parse_us)
    });
    let after = status_client.status().expect("daemon status");
    drop(status_client);
    drop(daemon);

    let m = &mut out.metrics;
    m.insert("stg.synth_us", synth_us);
    m.insert("stg.sg_states", sg_states as f64);
    m.insert("netlist.parse_us", parse_us);
    let med =
        |f: fn(&JobTimes) -> Option<f64>| median(&times.iter().filter_map(f).collect::<Vec<_>>());
    m.insert("serve.connect_us", med(|t| t.connect_us));
    m.insert("serve.accepted_us", med(|t| t.accepted_us));
    m.insert("serve.exec_us", med(|t| t.exec_us));
    out.notes.push(format!(
        "serve.*_us are medians over {} traced jobs ({} fresh connections)",
        times.len(),
        times.iter().filter(|t| t.connect_us.is_some()).count()
    ));
    for (name, level) in [
        ("serve.cssg_hit_ratio", "cssgs"),
        ("serve.circuit_hit_ratio", "circuits"),
    ] {
        let (h0, m0) = cache_counts(&before, level);
        let (h1, m1) = cache_counts(&after, level);
        put_ratio(
            m,
            &mut out.notes,
            name,
            Ratio::new(h1 - h0, (h1 - h0) + (m1 - m0)),
        );
    }
    let events = Ratio::new(
        times.iter().map(|t| t.events as f64).sum(),
        times.len() as f64,
    );
    put_ratio(m, &mut out.notes, "serve.events_per_job", events);
    let counter = |path: &[&str]| {
        path.iter()
            .try_fold(&after, |j, k| j.get(k))
            .and_then(Json::as_usize)
            .unwrap_or(0) as f64
    };
    m.insert("serve.events_dropped", counter(&["events_dropped"]));
    m.insert("serve.rejected", counter(&["jobs", "rejected"]));
    put_overhead(m, &mut out.notes, &baseline, &traced_run, uncovered);
    out.tally = baseline.tally;
    out.tally.absorb(traced_run.tally);
    out
}
