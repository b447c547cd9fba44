//! The engine's headline property: for every bundled benchmark and every
//! worker count, the fault-parallel campaign produces a report identical
//! to the serial `run_atpg` — same per-fault verdicts, same phase
//! attribution, same test set, same test program — regardless of steal
//! order and broadcast timing.

use satpg_core::{run_atpg, AtpgConfig, FaultModel};
use satpg_engine::{reports_identical, run_engine, EngineConfig};
use satpg_netlist::Circuit;
use satpg_stg::synth::complex_gate;
use satpg_stg::{suite, StateGraph};

fn si_circuit(name: &str) -> Circuit {
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    complex_gate(&stg, &sg).unwrap()
}

#[test]
fn engine_matches_serial_on_every_bundled_benchmark() {
    for &name in suite::NAMES {
        let ckt = si_circuit(name);
        let serial = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        for workers in 1..=4 {
            let cfg = EngineConfig {
                workers,
                ..EngineConfig::paper()
            };
            let out = run_engine(&ckt, &cfg).unwrap();
            assert!(
                reports_identical(&out.report, &serial),
                "{name}: {workers}-worker report diverges from serial"
            );
            // Coverage figures follow from the identical records, but
            // assert them explicitly — they are the paper's currency.
            assert_eq!(out.report.coverage(), serial.coverage(), "{name}");
            assert_eq!(out.report.untestable(), serial.untestable(), "{name}");
            assert_eq!(out.report.aborted(), serial.aborted(), "{name}");
            let audit_failures: usize = out.workers.iter().map(|w| w.audit_failures).sum();
            assert_eq!(audit_failures, 0, "{name}: symbolic audit rejected a test");
        }
    }
}

/// The same identity must survive aggressive memory pressure: with an
/// absurdly small per-worker GC threshold the audit's operations trigger
/// sweeps, and the report must stay byte-identical to the serial flow
/// for every bundled benchmark and every worker count.  (The audit
/// relation is built without garbage, so these sweeps reclaim little or
/// nothing; `audit::tests` pins reclamation on replay garbage.)
#[test]
fn engine_matches_serial_under_gc_pressure() {
    let mut swept_anywhere = false;
    // Random TPG off: every fault class reaches the workers, so every
    // worker exercises its GC'd private manager on real audit work.
    let atpg = AtpgConfig {
        random: None,
        ..AtpgConfig::paper()
    };
    for &name in suite::NAMES {
        let ckt = si_circuit(name);
        let serial = run_atpg(&ckt, &atpg).unwrap();
        for workers in 1..=4 {
            let cfg = EngineConfig {
                atpg: atpg.clone(),
                workers,
                gc_threshold: Some(16),
                ..EngineConfig::default()
            };
            let out = run_engine(&ckt, &cfg).unwrap();
            assert!(
                reports_identical(&out.report, &serial),
                "{name}: {workers}-worker report diverges from serial under GC"
            );
            let audit_failures: usize = out.workers.iter().map(|w| w.audit_failures).sum();
            assert_eq!(audit_failures, 0, "{name}: audit rejected a test under GC");
            for w in &out.workers {
                // Reclamation telemetry is internally consistent: a
                // sweeping worker has a peak, and the slab never exceeds
                // what was ever live at once plus the two terminals.
                if w.bdd_gc_runs > 0 {
                    assert!(w.bdd_peak_unique > 0, "{name}: sweeps but no peak");
                }
                assert!(
                    w.bdd_nodes <= w.bdd_peak_unique + 2,
                    "{name}: slab {} exceeds peak {} + terminals",
                    w.bdd_nodes,
                    w.bdd_peak_unique
                );
                swept_anywhere |= w.bdd_gc_runs > 0;
            }
        }
    }
    assert!(
        swept_anywhere,
        "a 16-node threshold must trigger sweeps somewhere in the suite"
    );
}

#[test]
fn engine_matches_serial_under_output_model_and_collapse() {
    for name in ["converta", "master-read", "vbe6a"] {
        let ckt = si_circuit(name);
        for (model, collapse) in [
            (FaultModel::OutputStuckAt, false),
            (FaultModel::InputStuckAt, true),
        ] {
            let atpg = AtpgConfig {
                fault_model: model,
                collapse,
                ..AtpgConfig::paper()
            };
            let serial = run_atpg(&ckt, &atpg).unwrap();
            for workers in [1, 3] {
                let out = run_engine(
                    &ckt,
                    &EngineConfig {
                        atpg: atpg.clone(),
                        workers,
                        ..EngineConfig::default()
                    },
                )
                .unwrap();
                assert!(
                    reports_identical(&out.report, &serial),
                    "{name} {model:?} collapse={collapse} workers={workers}"
                );
            }
        }
    }
}

#[test]
fn tester_programs_are_identical_too() {
    use satpg_core::tester::TestProgram;
    use satpg_core::{build_cssg, CssgConfig};
    let ckt = si_circuit("master-read");
    let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
    let serial = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
    let out = run_engine(
        &ckt,
        &EngineConfig {
            workers: 4,
            ..EngineConfig::paper()
        },
    )
    .unwrap();

    let render = |tests: &[satpg_core::TestSequence]| {
        let mut prog = TestProgram::new(&ckt);
        for (i, t) in tests.iter().enumerate() {
            assert!(prog.push_sequence(&ckt, &cssg, format!("t{i}"), t));
        }
        prog.to_string()
    };
    assert_eq!(render(&serial.tests), render(&out.report.tests));
}

#[test]
fn worker_scaling_telemetry_is_consistent() {
    let ckt = si_circuit("mmu");
    for workers in 1..=4 {
        // Disable random TPG so every class reaches the parallel phase.
        let atpg = AtpgConfig {
            random: None,
            ..AtpgConfig::paper()
        };
        let out = run_engine(
            &ckt,
            &EngineConfig {
                atpg,
                workers,
                ..EngineConfig::paper()
            },
        )
        .unwrap();
        // Worker count is clamped to the pending-class count.
        assert!(out.workers.len() <= workers);
        assert!(!out.workers.is_empty(), "mmu leaves work for the engine");
        let searched: usize = out.workers.iter().map(|w| w.searched).sum();
        assert_eq!(searched, out.parallel_verdicts);
        // Fallback recomputation only ever happens when broadcasting
        // dropped something.
        let drops: usize = out.workers.iter().map(|w| w.broadcast_drops).sum();
        assert!(out.merge_fallbacks <= drops + searched);
    }
}
