//! With no concurrency, the class-search loop searches exactly the
//! classes the serial flow searches.  Engine workers and fleet peers
//! share one loop (`satpg::engine::search_classes`), which screens its
//! backlog against every logged test *before* it pops the next class.
//! Serially that reproduces the serial flow's fault-simulation drops one
//! for one: a one-worker engine and a one-peer, one-shard fleet each run
//! a three-phase search for exactly the classes that serial `run_atpg`
//! resolves by one (three-phase detections, untestability proofs and
//! aborts), the merge never has to re-search a class, and the timing-free
//! report equals the serial one.

use satpg::core::{run_atpg, Phase};
use satpg::engine::{run_engine, EngineConfig};
use satpg::serve::{
    job_atpg_config, resolve_circuit, run_fleet, CircuitSpec, FleetConfig, JobSpec, ServeConfig,
    Server,
};
use satpg::stg::suite;

/// Starts one peer daemon on an ephemeral port and returns its address.
/// The daemon lives until the test process exits.
fn start_peer() -> String {
    let server = Server::bind(ServeConfig::default()).expect("bind peer");
    let addr = server.local_addr();
    std::thread::spawn(move || {
        let _ = server.run();
    });
    addr
}

#[test]
fn one_worker_and_one_peer_search_exactly_the_serial_set() {
    let peer = start_peer();
    let benches = suite::NAMES.iter().flat_map(|&name| {
        ["si", "2l"].map(|style| CircuitSpec::Bench {
            name: name.to_string(),
            style: style.to_string(),
        })
    });
    // The families whose no-random reports `tests/report_digests.rs`
    // pins, so their one-worker search counts are pinned too.
    let families =
        [("dme", 3), ("muller", 6), ("arbiter", 4), ("muller", 10)].map(|(name, size)| {
            CircuitSpec::Family {
                name: name.to_string(),
                size,
            }
        });
    for circuit in benches.chain(families) {
        for no_random in [false, true] {
            let spec = JobSpec {
                no_random,
                ..JobSpec::new(circuit.clone())
            };
            let label = format!("{circuit:?} no_random={no_random}");
            let ckt = resolve_circuit(&spec.circuit).expect("circuit resolves");
            let atpg = job_atpg_config(&spec, &ckt);
            let serial = run_atpg(&ckt, &atpg).expect("serial flow runs");
            let searched =
                serial.covered_by(Phase::ThreePhase) + serial.untestable() + serial.aborted();
            let serial_json = serial.to_json_value(false).render();

            let engine = run_engine(
                &ckt,
                &EngineConfig {
                    atpg,
                    workers: 1,
                    ..EngineConfig::default()
                },
            )
            .expect("engine runs");
            let engine_searched: usize = engine.workers.iter().map(|w| w.searched).sum();
            assert_eq!(engine_searched, searched, "{label}: one-worker engine");
            assert_eq!(engine.merge_fallbacks, 0, "{label}: one-worker engine");
            let report = engine.report.to_json_value(false).render();
            assert_eq!(report, serial_json, "{label}: one-worker engine report");

            let fleet = run_fleet(
                &spec,
                &FleetConfig {
                    peers: vec![peer.clone()],
                    chunk: usize::MAX,
                    ..FleetConfig::default()
                },
            )
            .expect("fleet runs");
            assert!(fleet.stats.shards <= 1, "{label}: one shard at most");
            assert_eq!(
                fleet.stats.remote_verdicts, searched,
                "{label}: one-peer fleet"
            );
            assert_eq!(fleet.stats.merge_fallbacks, 0, "{label}: one-peer fleet");
            let report = fleet.report.to_json_value(false).render();
            assert_eq!(report, serial_json, "{label}: one-peer fleet report");
        }
    }
}
