//! End-to-end integration: specification → synthesis → synchronous
//! abstraction → ATPG → oracle-validated tester program.

use satpg::core::tester::TestProgram;
use satpg::core::{faults_for, run_atpg_on, scan_candidates};
use satpg::prelude::*;
use satpg::serve::cache::fnv64;
use satpg::serve::{job_atpg_config, resolve_circuit, CircuitSpec, JobSpec};
use satpg::stg::synth::{complex_gate, two_level, Redundancy};
use satpg::stg::{suite, StateGraph};

fn si_circuit(name: &str) -> Circuit {
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    complex_gate(&stg, &sg).unwrap()
}

/// The paper's headline: speed-independent circuits are 100% output
/// stuck-at testable with synchronously applied vectors.
#[test]
fn speed_independent_output_stuck_at_is_fully_testable() {
    for name in suite::NAMES {
        let ckt = si_circuit(name);
        let report = run_atpg(
            &ckt,
            &AtpgConfig {
                fault_model: FaultModel::OutputStuckAt,
                ..AtpgConfig::paper()
            },
        )
        .unwrap();
        assert_eq!(
            report.covered(),
            report.total(),
            "{name}: output stuck-at coverage must be 100%"
        );
    }
}

/// Every emitted test truly detects its fault under *any* assignment of
/// gate delays (the exhaustive nondeterministic oracle).
#[test]
fn all_tests_survive_the_delay_oracle() {
    for name in ["converta", "chu150", "ebergen", "nak-pa", "alloc-outbound"] {
        let ckt = si_circuit(name);
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        for record in &report.records {
            if let Some(ti) = record.test {
                let v = validate_test(&ckt, &record.fault, &report.tests[ti], cssg.k());
                assert!(
                    matches!(v, Verdict::Detects { .. }),
                    "{name}: {} claimed detected but oracle says {v:?}",
                    record.fault.name(&ckt)
                );
            }
        }
    }
}

/// Tester programs replay on the good machine and expectations match the
/// CSSG outputs.
#[test]
fn tester_program_is_consistent_with_good_machine() {
    let ckt = si_circuit("mp-forward-pkt");
    let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
    let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
    let mut prog = TestProgram::new(&ckt);
    for (i, t) in report.tests.iter().enumerate() {
        assert!(prog.push_sequence(&ckt, &cssg, format!("t{i}"), t));
    }
    assert_eq!(prog.blocks.len(), report.tests.len());
    let text = prog.to_string();
    assert!(text.contains("apply"));
    // Expected outputs must equal a replay of the good machine.
    for (bi, (label, cycles)) in prog.blocks.iter().enumerate() {
        assert_eq!(label, &format!("t{bi}"));
        let states = cssg.replay(&report.tests[bi]).unwrap();
        for (c, &s) in cycles.iter().zip(&states) {
            assert_eq!(c.expected, cssg.outputs(&ckt, s));
        }
    }
}

/// Bounded-delay circuits: coverage drops and the redundant trio shows
/// both poor coverage and much higher CPU (the Table 2 phenomenon).
#[test]
fn redundant_two_level_circuits_lose_coverage() {
    let name = "vbe6a";
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    let plain = two_level(&stg, &sg, Redundancy::None).unwrap();
    let redundant = two_level(&stg, &sg, Redundancy::AllPrimes).unwrap();
    let rp = run_atpg(&plain, &AtpgConfig::paper()).unwrap();
    let rr = run_atpg(&redundant, &AtpgConfig::paper()).unwrap();
    assert!(
        rr.total() > rp.total(),
        "redundant form has more fault sites"
    );
    assert!(
        rr.coverage() < rp.coverage(),
        "redundancy lowers coverage: {:.1}% vs {:.1}%",
        rr.coverage(),
        rp.coverage()
    );
    assert!(rr.untestable() > rp.untestable());
}

/// Fault collapsing changes work, not results.
#[test]
fn collapsing_is_sound_end_to_end() {
    let ckt = si_circuit("dff");
    let plain = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
    let collapsed = run_atpg(
        &ckt,
        &AtpgConfig {
            collapse: true,
            ..AtpgConfig::paper()
        },
    )
    .unwrap();
    assert_eq!(plain.total(), collapsed.total());
    assert_eq!(plain.covered(), collapsed.covered());
    assert_eq!(plain.untestable(), collapsed.untestable());
}

/// The input stuck-at model subsumes the output model: every output fault
/// detected implies its pin-fault counterparts are enumerable and the
/// totals relate as 2·pins ≥ 2·gates.
#[test]
fn fault_model_totals_relate() {
    for name in ["seq4", "mmu", "master-read"] {
        let ckt = si_circuit(name);
        let input = input_stuck_faults(&ckt);
        let output = output_stuck_faults(&ckt);
        assert_eq!(input.len(), 2 * ckt.num_pins());
        assert_eq!(output.len(), 2 * ckt.num_gates());
        assert!(input.len() >= output.len());
    }
}

/// `satpg scan` on every bundled benchmark × {si, 2l, 2lr} × both fault
/// models, as one digest of the analyses: scan walks three-phase's
/// good×faulty product, so a change to that walk must leave every
/// candidate and hopeless list as it was.
#[test]
fn scan_candidates_are_pinned() {
    use std::fmt::Write as _;
    let mut rows = String::new();
    for name in suite::NAMES {
        for style in ["si", "2l", "2lr"] {
            for output_model in [false, true] {
                let spec = JobSpec {
                    output_model,
                    ..JobSpec::new(CircuitSpec::Bench {
                        name: name.to_string(),
                        style: style.to_string(),
                    })
                };
                let ckt = resolve_circuit(&spec.circuit).unwrap();
                let cfg = job_atpg_config(&spec, &ckt);
                let cssg = build_cssg(&ckt, &cfg.cssg).unwrap();
                let faults = faults_for(&ckt, cfg.fault_model);
                let report = run_atpg_on(&ckt, &cssg, &faults, &cfg, 0).unwrap();
                let scan = scan_candidates(&ckt, &cssg, &report, &cfg.three_phase);
                writeln!(rows, "{name} {style} output-model={output_model}: {scan:?}").unwrap();
            }
        }
    }
    assert_eq!(fnv64(rows.as_bytes()), 0xd60bbcb06e893409, "{rows}");
}
