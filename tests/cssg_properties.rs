//! Integration properties of the synchronous abstraction across the
//! benchmark suite.

use satpg::core::symbolic::SymbolicCssg;
use satpg::prelude::*;
use satpg::stg::{suite, synth, StateGraph};

fn si_circuit(name: &str) -> Circuit {
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    synth::complex_gate(&stg, &sg).unwrap()
}

/// The symbolic (BDD) and explicit constructions agree on every suite
/// circuit that fits the symbolic encoding.
#[test]
fn symbolic_matches_explicit_across_suite() {
    for &name in suite::NAMES {
        let ckt = si_circuit(name);
        if ckt.num_state_bits() > 32 {
            continue;
        }
        let explicit = build_cssg(
            &ckt,
            &CssgConfig {
                ternary_fast_path: false,
                ..CssgConfig::default()
            },
        )
        .unwrap();
        let symbolic = SymbolicCssg::build(&ckt, None).unwrap();
        assert_eq!(explicit.num_states(), symbolic.num_states(), "{name}");
        assert_eq!(explicit.num_edges(), symbolic.num_edges(), "{name}");
        for si in 0..explicit.num_states() {
            let state = &explicit.states()[si];
            let sj = symbolic.state_index(state).expect("state present");
            let to_states = |g: &Cssg, i: usize| {
                g.edges(i)
                    .iter()
                    .map(|(p, t)| (p.clone(), g.states()[*t].clone()))
                    .collect::<Vec<_>>()
            };
            assert_eq!(to_states(&explicit, si), to_states(&symbolic, sj), "{name}");
        }
    }
}

/// Every CSSG edge is confluent per the exhaustive analysis, and every
/// non-edge pattern is genuinely invalid or leads elsewhere.
#[test]
fn cssg_edges_are_exactly_the_valid_vectors() {
    for name in ["converta", "hazard", "nak-pa", "vbe5b"] {
        let ckt = si_circuit(name);
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let mut settler = Settler::new(
            &ckt,
            &Injection::none(),
            &SettlerConfig {
                cap: CapPolicy::Fixed(1 << 16),
                por: false,
                ternary_fast_path: false,
                ..SettlerConfig::for_circuit(&ckt)
            },
        );
        for si in 0..cssg.num_states() {
            let state = &cssg.states()[si];
            for pattern in Pattern::all(ckt.num_inputs()) {
                if pattern == ckt.input_pattern(state) {
                    continue;
                }
                let settle = settler.settle(state, &pattern);
                match cssg.successor(si, &pattern) {
                    Some(t) => {
                        let expect = settle.confluent().unwrap_or_else(|| {
                            panic!("{name}: edge on non-confluent pattern {pattern}")
                        });
                        assert_eq!(expect, &cssg.states()[t], "{name}");
                    }
                    None => assert!(
                        !settle.is_valid(),
                        "{name}: valid pattern {pattern} missing from CSSG"
                    ),
                }
            }
        }
    }
}

/// Justification sequences reach their goals on the good machine.
#[test]
fn justification_reaches_goals() {
    let ckt = si_circuit("chu150");
    let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
    for goal in 0..cssg.num_states() {
        let mut goals = vec![false; cssg.num_states()];
        goals[goal] = true;
        let seq = cssg
            .justify(cssg.initial(), &goals)
            .expect("all CSSG states reachable from reset");
        let walked = cssg
            .replay(&TestSequence { patterns: seq })
            .expect("valid walk");
        let last = walked.last().copied().unwrap_or(cssg.initial());
        assert_eq!(last, goal);
    }
}

/// Random TPG sequences and three-phase sequences both replay on the good
/// machine (they are valid tester programs by construction).
#[test]
fn all_emitted_sequences_are_valid_walks() {
    for name in ["ebergen", "sbuf-ram-write"] {
        let ckt = si_circuit(name);
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        for t in &report.tests {
            assert!(cssg.replay(t).is_some(), "{name}: invalid test sequence");
        }
    }
}
