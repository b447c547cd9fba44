//! Engine scaling: wall-clock of the fault-parallel campaign vs worker
//! count on generated workloads (a DME token ring and a deep Muller
//! pipeline).
//!
//! Run with `cargo bench -p satpg-bench --bench engine_scaling`.
//! Besides the human-readable table, one JSON line per measurement goes
//! to stdout, the full trajectory is written to
//! `target/engine_scaling.json`, and the durable `{bench, params,
//! value, unit}` records land in `target/bench_report.json` — the
//! input of `satpg bench-diff`.  `SATPG_BENCH_QUICK=1` shrinks every
//! workload so CI can regenerate a comparable report in seconds.
//!
//! Random TPG is disabled so every fault class reaches the parallel
//! targeted phase — the component whose scaling is under test.

use satpg_bench::report::{quick_mode, record, write_report, BenchRecord};
use satpg_core::{
    build_cssg, build_cssg_sharded, faults_for, random_tpg, AtpgConfig, CapPolicy, CssgConfig,
    FaultModel, RandomTpgConfig,
};
use satpg_engine::{run_engine, EngineConfig};
use satpg_netlist::{families as nf, Circuit};
use satpg_serve::{run_fleet, CircuitSpec, FleetConfig, JobSpec, ServeConfig, Server};
use satpg_stg::synth::complex_gate;
use satpg_stg::{families as sf, StateGraph};
use std::fmt::Write as _;
use std::time::Instant;

fn dme_circuit(cells: usize) -> Circuit {
    let stg = sf::dme_ring(cells).expect("generated ring parses");
    let sg = StateGraph::build(&stg).expect("generated ring is well-formed");
    complex_gate(&stg, &sg).expect("generated ring synthesizes")
}

fn measure(
    label: &str,
    ckt: &Circuit,
    workers: usize,
    reps: u32,
    records: &mut Vec<BenchRecord>,
) -> (u128, String) {
    let cfg = EngineConfig {
        atpg: AtpgConfig {
            random: None,
            fault_sim: true,
            ..AtpgConfig::default()
        },
        workers,
        broadcast: true,
        symbolic_audit: false,
        gc_threshold: None,
        cssg_shards: 1,
    };
    // Warm-up, then best-of-`reps` wall clock.  With `reps == 0`
    // (quick mode) the single run doubles as the measurement.
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..=reps {
        let t = Instant::now();
        let out = run_engine(ckt, &cfg).expect("engine runs");
        let us = t.elapsed().as_micros();
        if last.is_some() || reps == 0 {
            best = best.min(us);
        }
        last = Some(out);
    }
    let out = last.expect("ran at least once");
    let json = format!(
        "{{\"bench\":\"engine_scaling\",\"workload\":\"{label}\",\"workers\":{workers},\
         \"best_us\":{best},\"faults\":{},\"coverage\":{:.2},\
         \"parallel_verdicts\":{},\"merge_fallbacks\":{}}}",
        out.report.total(),
        out.report.coverage(),
        out.parallel_verdicts,
        out.merge_fallbacks,
    );
    records.push(record(
        "engine_scaling",
        format!("{label}/w{workers}"),
        best as f64,
        "us",
    ));
    records.push(record(
        "engine_scaling",
        format!("{label}/w{workers}/coverage"),
        out.report.coverage(),
        "pct",
    ));
    records.push(record(
        "engine_scaling",
        format!("{label}/w{workers}/verdicts"),
        out.parallel_verdicts as f64,
        "count",
    ));
    (best, json)
}

/// Memory-policy probe: the same audited campaign under immortal nodes
/// vs a GC'd worker manager, reporting the peak BDD unique-table size
/// (the before/after figure for the reclamation work).
fn measure_memory(
    label: &str,
    ckt: &Circuit,
    gc_threshold: Option<usize>,
    records: &mut Vec<BenchRecord>,
) -> String {
    let cfg = EngineConfig {
        atpg: AtpgConfig {
            random: None,
            fault_sim: true,
            ..AtpgConfig::default()
        },
        workers: 2,
        broadcast: true,
        symbolic_audit: true,
        gc_threshold,
        cssg_shards: 1,
    };
    let out = run_engine(ckt, &cfg).expect("engine runs");
    let peak = out
        .workers
        .iter()
        .map(|w| w.bdd_peak_unique)
        .max()
        .unwrap_or(0);
    let reclaimed: usize = out.workers.iter().map(|w| w.bdd_reclaimed).sum();
    let sweeps: usize = out.workers.iter().map(|w| w.bdd_gc_runs).sum();
    let policy = match gc_threshold {
        Some(t) => format!("gc{t}"),
        None => "immortal".to_string(),
    };
    records.push(record(
        "engine_memory",
        format!("{label}/{policy}"),
        peak as f64,
        "nodes",
    ));
    format!(
        "{{\"bench\":\"engine_memory\",\"workload\":\"{label}\",\"policy\":\"{policy}\",\
         \"bdd_peak_unique\":{peak},\"bdd_reclaimed\":{reclaimed},\"gc_sweeps\":{sweeps}}}"
    )
}

/// Sharded-CSSG-construction probe: wall clock of
/// [`build_cssg_sharded`] vs shard count, on the workload whose serial
/// build dominates engine start-up (a deep Muller pipeline).
fn measure_cssg_shards(
    label: &str,
    ckt: &Circuit,
    shards: usize,
    reps: u32,
    records: &mut Vec<BenchRecord>,
) -> (u128, String) {
    let cfg = CssgConfig::default();
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..=reps {
        let t = Instant::now();
        let cssg = build_cssg_sharded(ckt, &cfg, shards).expect("CSSG builds");
        let us = t.elapsed().as_micros();
        if last.is_some() || reps == 0 {
            best = best.min(us);
        }
        last = Some(cssg);
    }
    let cssg = last.expect("built at least once");
    let json = format!(
        "{{\"bench\":\"cssg_shard_scaling\",\"workload\":\"{label}\",\"shards\":{shards},\
         \"best_us\":{best},\"states\":{},\"edges\":{},\"truncated\":{}}}",
        cssg.num_states(),
        cssg.num_edges(),
        cssg.pruned_truncated(),
    );
    records.push(record(
        "cssg_shard_scaling",
        format!("{label}/s{shards}"),
        best as f64,
        "us",
    ));
    records.push(record(
        "cssg_shard_scaling",
        format!("{label}/s{shards}/states"),
        cssg.num_states() as f64,
        "states",
    ));
    (best, json)
}

/// Settling-engine probe: CSSG construction across the muller coverage
/// boundary, POR against the legacy naive walk, reporting the
/// explored-vs-saved ledger.  The `legacy` policy is the pre-PR-5
/// configuration (naive walk, fixed 2^15 cap) whose truncation the
/// coverage sweep measured; `por` is the current default.
fn measure_settler(
    size: usize,
    por: bool,
    reps: u32,
    records: &mut Vec<BenchRecord>,
) -> (u128, String) {
    let ckt = nf::muller_pipeline(size);
    let cfg = if por {
        CssgConfig::default()
    } else {
        CssgConfig {
            por: false,
            settle_cap: CapPolicy::Fixed(1 << 15),
            ..CssgConfig::default()
        }
    };
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..=reps {
        let t = Instant::now();
        let cssg = build_cssg(&ckt, &cfg).expect("CSSG builds");
        let us = t.elapsed().as_micros();
        if last.is_some() || reps == 0 {
            best = best.min(us);
        }
        last = Some(cssg);
    }
    let cssg = last.expect("built at least once");
    let ss = *cssg.settle_stats();
    let naive_equiv = ss.states_explored + ss.por_pruned;
    let json = format!(
        "{{\"bench\":\"settler_scaling\",\"workload\":\"muller_pipe{size}\",\
         \"policy\":\"{}\",\"best_us\":{best},\"states\":{},\"edges\":{},\
         \"pruned_truncated\":{},\"settle_states\":{},\"por_pruned\":{},\
         \"por_savings_ratio\":{:.3}}}",
        if por { "por" } else { "legacy" },
        cssg.num_states(),
        cssg.num_edges(),
        cssg.pruned_truncated(),
        ss.states_explored,
        ss.por_pruned,
        ss.por_pruned as f64 / naive_equiv.max(1) as f64,
    );
    let policy = if por { "por" } else { "legacy" };
    records.push(record(
        "settler_scaling",
        format!("muller_pipe{size}/{policy}"),
        best as f64,
        "us",
    ));
    records.push(record(
        "settler_scaling",
        format!("muller_pipe{size}/{policy}/settle_states"),
        ss.states_explored as f64,
        "states",
    ));
    (best, json)
}

/// Random-stage probe: the classic fault-per-lane layout (one pattern
/// against 63 faults) vs the pattern-per-bit layout (64 patterns per
/// settling pass against one broadcast fault).  The JSON line carries
/// the stage's own telemetry — `patterns_evaluated / passes` is the
/// measured per-pass pattern parallelism (64 in pattern-per-bit mode).
fn measure_random(
    label: &str,
    ckt: &Circuit,
    pattern_parallel: bool,
    reps: u32,
    records: &mut Vec<BenchRecord>,
) -> (u128, String) {
    let cssg = build_cssg(ckt, &CssgConfig::default()).expect("CSSG builds");
    let faults = faults_for(ckt, FaultModel::InputStuckAt);
    let cfg = RandomTpgConfig {
        pattern_parallel,
        ..RandomTpgConfig::default()
    };
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..=reps {
        let t = Instant::now();
        let res = random_tpg(ckt, &cssg, &faults, &cfg);
        let us = t.elapsed().as_micros();
        if last.is_some() || reps == 0 {
            best = best.min(us);
        }
        last = Some(res);
    }
    let res = last.expect("ran at least once");
    let stats = res.stats();
    let covered = res.detected.len();
    let json = format!(
        "{{\"bench\":\"random_stage\",\"workload\":\"{label}\",\"mode\":\"{}\",\
         \"best_us\":{best},\"faults\":{},\"covered\":{covered},\
         \"passes\":{},\"patterns_evaluated\":{},\"patterns_per_pass\":{:.1}}}",
        if pattern_parallel {
            "ppsfp"
        } else {
            "fault_per_lane"
        },
        faults.len(),
        stats.passes,
        stats.patterns_evaluated,
        stats.patterns_evaluated as f64 / stats.passes.max(1) as f64,
    );
    let mode = if pattern_parallel {
        "ppsfp"
    } else {
        "fault_per_lane"
    };
    records.push(record(
        "random_stage",
        format!("{label}/{mode}"),
        best as f64,
        "us",
    ));
    records.push(record(
        "random_stage",
        format!("{label}/{mode}/covered"),
        covered as f64,
        "count",
    ));
    (best, json)
}

/// Fleet probe: the same no-random campaign partitioned across N
/// in-process peer daemons over loopback TCP, vs peer count.  The
/// wall clock includes the protocol round trips — the distribution
/// overhead the coordinator amortizes — while the verdict count pins
/// that the remote path did the work.
fn measure_fleet(
    label: &str,
    ckt: &Circuit,
    peers: &[String],
    n: usize,
    reps: u32,
    records: &mut Vec<BenchRecord>,
) -> (u128, String) {
    let spec = JobSpec {
        workers: 2,
        no_random: true,
        ..JobSpec::new(CircuitSpec::InlineCkt {
            text: satpg_netlist::to_ckt(ckt),
        })
    };
    let fc = FleetConfig {
        peers: peers[..n].to_vec(),
        ..FleetConfig::default()
    };
    let mut best = u128::MAX;
    let mut last = None;
    for _ in 0..=reps {
        let t = Instant::now();
        let out = run_fleet(&spec, &fc).expect("fleet campaign runs");
        let us = t.elapsed().as_micros();
        if last.is_some() || reps == 0 {
            best = best.min(us);
        }
        last = Some(out);
    }
    let out = last.expect("ran at least once");
    let json = format!(
        "{{\"bench\":\"fleet_scaling\",\"workload\":\"{label}\",\"peers\":{n},\
         \"best_us\":{best},\"faults\":{},\"coverage\":{:.2},\
         \"shards\":{},\"remote_verdicts\":{},\"merge_fallbacks\":{}}}",
        out.report.total(),
        out.report.coverage(),
        out.stats.shards,
        out.stats.remote_verdicts,
        out.stats.merge_fallbacks,
    );
    records.push(record(
        "fleet_scaling",
        format!("{label}/p{n}"),
        best as f64,
        "us",
    ));
    records.push(record(
        "fleet_scaling",
        format!("{label}/p{n}/coverage"),
        out.report.coverage(),
        "pct",
    ));
    (best, json)
}

fn main() {
    // `SATPG_BENCH_QUICK=1` (CI) shrinks every dimension: smaller
    // circuits, fewer worker counts, no repetitions.  Record keys stay
    // stable within a mode, so a quick report diffs against the
    // committed quick baseline (`ci/bench_baseline.json`).
    let quick = quick_mode();
    let mut records: Vec<BenchRecord> = Vec::new();
    let workloads: Vec<(&str, Circuit)> = if quick {
        vec![
            ("dme_ring3", dme_circuit(3)),
            ("muller_pipe6", nf::muller_pipeline(6)),
            ("arbiter4", nf::arbiter_tree(4)),
        ]
    } else {
        vec![
            ("dme_ring5", dme_circuit(5)),
            ("muller_pipe8", nf::muller_pipeline(8)),
            ("arbiter5", nf::arbiter_tree(5)),
        ]
    };
    let settler_cases: &[(usize, bool)] = if quick {
        &[(10, true), (12, true), (10, false)]
    } else {
        &[
            (16, true),
            (18, true),
            (19, true),
            (20, true),
            (22, true),
            (16, false),
            (19, false),
        ]
    };
    let worker_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4, 8] };
    let shard_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 4] };
    let (shard_label, shard_size) = if quick {
        ("muller_pipe10", 10)
    } else {
        ("muller_pipe16", 16)
    };
    let reps: u32 = if quick { 0 } else { 1 };
    let mut trajectory = String::from("[\n");
    let mut first = true;

    // Settling-engine scaling across the old muller truncation boundary:
    // POR at every size, the legacy naive/2^15 policy only where it is
    // affordable (its cost explodes past 18 — which is the point).
    for &(size, por) in settler_cases {
        let (best, json) = measure_settler(size, por, reps, &mut records);
        println!(
            "bench settler_scaling/muller_pipe{size}/{} {best:>10} us",
            if por { "por   " } else { "legacy" }
        );
        println!("{json}");
        if !first {
            trajectory.push_str(",\n");
        }
        first = false;
        let _ = write!(trajectory, "  {json}");
    }

    // Random-stage pattern parallelism: fault-per-lane vs
    // pattern-per-bit on each engine workload.
    for (label, ckt) in &workloads {
        for pp in [false, true] {
            let (best, json) = measure_random(label, ckt, pp, reps, &mut records);
            println!(
                "bench random_stage/{label}/{} {best:>10} us",
                if pp { "ppsfp " } else { "lanes " }
            );
            println!("{json}");
            if !first {
                trajectory.push_str(",\n");
            }
            first = false;
            let _ = write!(trajectory, "  {json}");
        }
    }

    // CSSG construction scaling on the build-bound workload.
    let shard_ckt = nf::muller_pipeline(shard_size);
    let mut shard_base = 0u128;
    for &shards in shard_counts {
        let (best, json) = measure_cssg_shards(shard_label, &shard_ckt, shards, reps, &mut records);
        if shards == 1 {
            shard_base = best;
        }
        let speedup = shard_base as f64 / best.max(1) as f64;
        println!(
            "bench cssg_shard_scaling/{shard_label}/s{shards:<2} {best:>10} us  (speedup x{speedup:.2})"
        );
        println!("{json}");
        if !first {
            trajectory.push_str(",\n");
        }
        first = false;
        let _ = write!(trajectory, "  {json}");
    }
    for (label, ckt) in &workloads {
        let mut base_us = 0u128;
        for &workers in worker_counts {
            let (best, json) = measure(label, ckt, workers, reps, &mut records);
            if workers == 1 {
                base_us = best;
            }
            let speedup = base_us as f64 / best.max(1) as f64;
            println!(
                "bench engine_scaling/{label}/w{workers:<2} {best:>10} us  (speedup x{speedup:.2})"
            );
            println!("{json}");
            if !first {
                trajectory.push_str(",\n");
            }
            first = false;
            let _ = write!(trajectory, "  {json}");
        }
        for gc in [None, Some(1usize << 10)] {
            let json = measure_memory(label, ckt, gc, &mut records);
            println!("{json}");
            trajectory.push_str(",\n");
            let _ = write!(trajectory, "  {json}");
        }
    }
    // Fleet scaling: the coordinator across 1..N in-process peer
    // daemons on a no-random muller workload (every class reaches the
    // distributed phase).
    let (fleet_label, fleet_size) = if quick {
        ("muller_pipe10", 10)
    } else {
        ("muller_pipe16", 16)
    };
    let peer_counts: &[usize] = if quick { &[1, 2] } else { &[1, 2, 3] };
    let max_peers = peer_counts.iter().copied().max().unwrap_or(1);
    let peers: Vec<String> = (0..max_peers)
        .map(|_| {
            let server = Server::bind(ServeConfig::default()).expect("bind peer daemon");
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let _ = server.run();
            });
            addr
        })
        .collect();
    let fleet_ckt = nf::muller_pipeline(fleet_size);
    let mut fleet_base = 0u128;
    for &n in peer_counts {
        let (best, json) = measure_fleet(fleet_label, &fleet_ckt, &peers, n, reps, &mut records);
        if n == 1 {
            fleet_base = best;
        }
        let speedup = fleet_base as f64 / best.max(1) as f64;
        println!(
            "bench fleet_scaling/{fleet_label}/p{n:<2} {best:>10} us  (speedup x{speedup:.2})"
        );
        println!("{json}");
        trajectory.push_str(",\n");
        let _ = write!(trajectory, "  {json}");
    }
    trajectory.push_str("\n]\n");
    // Benches run with the package as CWD; anchor on the workspace root.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let path = root.join("target");
    let _ = std::fs::create_dir_all(&path);
    let out = path.join("engine_scaling.json");
    match std::fs::write(&out, &trajectory) {
        Ok(()) => println!("wrote {}", out.display()),
        Err(e) => eprintln!("could not write {}: {e}", out.display()),
    }
    let report = path.join("bench_report.json");
    match write_report(&records, &report) {
        Ok(()) => println!("wrote {} ({} records)", report.display(), records.len()),
        Err(e) => eprintln!("could not write {}: {e}", report.display()),
    }
}
