//! Fleet/serial identity: a campaign partitioned across N peer daemons
//! must produce a report byte-identical to the serial `run_atpg` flow,
//! for every benchmark and every peer count.  This pins the merge
//! argument in `crates/serve/DESIGN.md` — distribution moves work
//! between machines, never results.

use satpg::core::{run_atpg, AtpgConfig, CoreError, ThreePhaseConfig};
use satpg::netlist::Circuit;
use satpg::serve::{run_fleet, CircuitSpec, FleetConfig, JobSpec, ServeConfig, Server};
use satpg::stg::synth::complex_gate;
use satpg::stg::{suite, StateGraph};

fn si_circuit(name: &str) -> Circuit {
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    complex_gate(&stg, &sg).unwrap()
}

/// Starts `n` peer daemons on ephemeral ports; returns their addresses.
/// The daemons are leaked for the duration of the test process — each
/// test binary process exits right after, and a blocked accept loop
/// holds no state the assertions depend on.
fn start_peers(n: usize) -> Vec<String> {
    (0..n)
        .map(|_| {
            let server = Server::bind(ServeConfig::default()).expect("bind peer");
            let addr = server.local_addr();
            std::thread::spawn(move || {
                let _ = server.run();
            });
            addr
        })
        .collect()
}

fn bench_spec(name: &str) -> JobSpec {
    JobSpec {
        circuit: CircuitSpec::Bench {
            name: name.to_string(),
            style: "si".to_string(),
        },
        workers: 2,
        gc_threshold: None,
        output_model: false,
        collapse: false,
        no_random: false,
        pp_random: false,
        k: None,
        pattern_budget: None,
    }
}

/// The serial baseline with the exact config `job_atpg_config` derives
/// for [`bench_spec`]: paper defaults with the circuit-scaled
/// three-phase limits.
fn serial_json(name: &str) -> Result<String, CoreError> {
    let ckt = si_circuit(name);
    let cfg = AtpgConfig {
        three_phase: ThreePhaseConfig::scaled(&ckt),
        ..AtpgConfig::paper()
    };
    run_atpg(&ckt, &cfg).map(|r| r.to_json_value(false).render())
}

fn assert_identity(names: &[&str], peer_counts: &[usize], chunk: usize) {
    let max_peers = peer_counts.iter().copied().max().unwrap_or(1);
    let addrs = start_peers(max_peers);
    for &name in names {
        let serial = serial_json(name);
        for &n in peer_counts {
            let fc = FleetConfig {
                peers: addrs[..n].to_vec(),
                chunk,
                ..FleetConfig::default()
            };
            let fleet = run_fleet(&bench_spec(name), &fc);
            match (&serial, fleet) {
                (Ok(expect), Ok(out)) => {
                    assert_eq!(
                        *expect,
                        out.report.to_json_value(false).render(),
                        "{name} across {n} peer(s): fleet report must be byte-identical"
                    );
                    assert_eq!(
                        out.stats.peers, n,
                        "{name}: the campaign must have enlisted all {n} peer(s)"
                    );
                }
                // Benchmarks with no valid synchronous vectors fail the
                // same way on both paths.
                (Err(_), Err(_)) => {}
                (s, f) => panic!("{name} across {n} peer(s): serial {s:?} vs fleet {f:?}"),
            }
        }
    }
}

/// Quick tier: the whole 23-benchmark suite, 1..=4 peers, small chunks
/// so every campaign actually exercises multi-shard dispatch.
#[test]
fn fleet_report_identical_to_serial_all_benchmarks() {
    assert_identity(suite::NAMES, &[1, 2, 3, 4], 2);
}

/// Release tier (CI runs with `--include-ignored`): the generated
/// muller/arbiter families, whose larger fault lists spread across many
/// shards per peer.
#[test]
#[ignore = "release tier: minutes in debug; CI runs it with --release --include-ignored"]
fn fleet_report_identical_to_serial_generated_families() {
    use satpg::core::{build_cssg_sharded, faults_for};
    use satpg::engine::{run_engine, EngineConfig};
    use satpg::netlist::families as nf;
    use satpg::serve::run_fleet_built;

    let addrs = start_peers(3);
    for ckt in [
        nf::muller_pipeline(12),
        nf::muller_pipeline(16),
        nf::arbiter_tree(5),
        nf::arbiter_tree(6),
    ] {
        // Serial baseline through the engine's own serial-identical
        // report (the generated families are not named benchmarks, so
        // the fleet runs on a prebuilt circuit/CSSG instead of a spec).
        let spec = JobSpec {
            circuit: CircuitSpec::InlineCkt {
                text: satpg::netlist::to_ckt(&ckt),
            },
            ..bench_spec("unused")
        };
        let acfg = satpg::serve::job_atpg_config(&spec, &ckt);
        let engine_cfg = EngineConfig {
            atpg: acfg.clone(),
            workers: 2,
            broadcast: true,
            symbolic_audit: false,
            gc_threshold: None,
            cssg_shards: 1,
        };
        let serial = run_engine(&ckt, &engine_cfg).expect("engine runs");
        let cssg = build_cssg_sharded(&ckt, &acfg.cssg, 1).expect("CSSG builds");
        let faults = faults_for(&ckt, acfg.fault_model);
        let fc = FleetConfig {
            peers: addrs.clone(),
            chunk: 8,
            ..FleetConfig::default()
        };
        let out = run_fleet_built(&ckt, &cssg, &faults, &acfg, &spec, &fc, 0);
        assert_eq!(
            serial.report.to_json_value(false).render(),
            out.report.to_json_value(false).render(),
            "{}: 3-peer fleet report must be byte-identical",
            ckt.name()
        );
    }
}
