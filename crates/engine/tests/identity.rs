//! The engine's headline property: for every bundled benchmark and every
//! worker count, the fault-parallel campaign produces a report identical
//! to the serial `run_atpg` — same per-fault verdicts, same phase
//! attribution, same test set, same test program — regardless of steal
//! order and broadcast timing.  With the opt-in symbolic audit on, every
//! test the workers find also replays on a BDD of the CSSG.

use satpg_core::{run_atpg, AtpgConfig, FaultModel};
use satpg_engine::{reports_identical, run_engine, EngineConfig};
use satpg_netlist::families::{arbiter_tree, muller_pipeline};
use satpg_netlist::Circuit;
use satpg_stg::synth::{complex_gate, two_level, Redundancy};
use satpg_stg::{families, suite, StateGraph, Stg};

fn synth(stg: &Stg, style: &str) -> Circuit {
    let sg = StateGraph::build(stg).unwrap();
    match style {
        "si" => complex_gate(stg, &sg).unwrap(),
        "2l" => two_level(stg, &sg, Redundancy::None).unwrap(),
        _ => two_level(stg, &sg, Redundancy::AllPrimes).unwrap(),
    }
}

fn si_circuit(name: &str) -> Circuit {
    synth(&suite::load(name).unwrap(), "si")
}

/// A generated family at `size`, built as `satpg gen` builds it.
fn family(name: &str, size: usize) -> Circuit {
    match name {
        "muller" => muller_pipeline(size),
        "arbiter" => arbiter_tree(size),
        "dme" => synth(&families::dme_ring(size).unwrap(), "si"),
        _ => synth(&families::sequencer(size).unwrap(), "si"),
    }
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
        }
    }
}

/// The audit property on one circuit.  Random TPG is off, so every
/// class reaches a worker and every test the campaign keeps is found,
/// and audited, by one.  For each worker count the report must equal
/// serial `run_atpg`, no test may fail the audit, and every worker that
/// found a test must have built a relation, so an engine that ignores
/// the opt-in fails too.  Returns the number of audited tests.
fn assert_audit_clean(ckt: &Circuit, atpg: AtpgConfig, workers: &[usize]) -> usize {
    let atpg = AtpgConfig {
        random: None,
        ..atpg
    };
    let Ok(serial) = run_atpg(ckt, &atpg) else {
        return 0; // no valid vectors: nothing to audit
    };
    let mut audited = 0;
    for &w in workers {
        let cfg = EngineConfig {
            atpg: atpg.clone(),
            workers: w,
            symbolic_audit: true,
        };
        let out = run_engine(ckt, &cfg).unwrap();
        let ctx = format!("{} @ {w} workers", ckt.name());
        assert!(reports_identical(&out.report, &serial), "{ctx}: report");
        let failures: usize = out.workers.iter().map(|s| s.audit_failures).sum();
        assert_eq!(failures, 0, "{ctx}: the symbolic audit rejected a test");
        for s in out.workers.iter().filter(|s| s.tests_found > 0) {
            assert!(
                s.bdd_peak_unique > 0,
                "{ctx}: worker {} audited nothing",
                s.worker
            );
        }
        audited += out.workers.iter().map(|s| s.tests_found).sum::<usize>();
    }
    audited
}

/// The audit passes every test the engine finds: the 23 benchmarks in
/// `si` style on 1..=4 workers and in `2l`/`2lr` on 1 and 3, plus the
/// quick-tier generated families under `AtpgConfig::scaled`.
#[test]
fn symbolic_audit_passes_every_engine_test() {
    let mut audited = 0;
    for &name in suite::NAMES {
        let stg = suite::load(name).unwrap();
        let si = synth(&stg, "si");
        audited += assert_audit_clean(&si, AtpgConfig::paper(), &[1, 2, 3, 4]);
        for style in ["2l", "2lr"] {
            let ckt = synth(&stg, style);
            audited += assert_audit_clean(&ckt, AtpgConfig::paper(), &[1, 3]);
        }
    }
    for (name, size) in [
        ("seq", 6),
        ("seq", 8),
        ("dme", 3),
        ("dme", 4),
        ("muller", 10),
        ("muller", 12),
        ("muller", 16),
        ("arbiter", 4),
    ] {
        let ckt = family(name, size);
        audited += assert_audit_clean(&ckt, AtpgConfig::scaled(&ckt), &[1, 3]);
    }
    assert!(audited > 0, "the corpus must exercise the audit");
}

/// Release tier of [`symbolic_audit_passes_every_engine_test`]: the
/// families too slow for a debug build.
#[test]
#[ignore = "release-mode tier: run with --release -- --include-ignored"]
fn symbolic_audit_passes_every_engine_test_on_large_families() {
    let mut audited = 0;
    for (name, size) in [
        ("dme", 5),
        ("muller", 19),
        ("muller", 22),
        ("arbiter", 5),
        ("arbiter", 6),
    ] {
        let ckt = family(name, size);
        audited += assert_audit_clean(&ckt, AtpgConfig::scaled(&ckt), &[1, 3]);
    }
    assert!(audited > 0, "the corpus must exercise the audit");
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
