//! The three-phase ATPG of §5: fault activation, state justification and
//! state differentiation.
//!
//! Activation (§5.1) identifies stable states exciting the fault; per the
//! paper, faults never excited in stable states are *not* rejected — the
//! fault may pulse only through unstable states, so they go directly to
//! differentiation.
//!
//! Justification and differentiation are fused into one breadth-first
//! search over the product of the good CSSG and the faulty machine.  The
//! faulty machine is tracked with the paper's exact set semantics
//! (cf. Fig. 4): after each test cycle it may occupy *any* state of the
//! k-bounded settling set of every interleaving (closed over oscillation
//! phases).  A sequence is a test only if at some cycle **every** possible
//! faulty state disagrees with the good machine on the primary outputs —
//! detection guaranteed for any assignment of gate delays.
//!
//! BFS order makes the returned test the shortest guaranteed one, which
//! automatically implements the corruption rule of Fig. 3: a divergence
//! observable in *all* delay assignments cuts the sequence short; one
//! observable only for *some* delays forces the search deeper.

use crate::cssg::{Cssg, TestSequence};
use crate::fault::Fault;
use satpg_netlist::{Bits, Circuit, Pattern};
use satpg_sim::{CapPolicy, SettleStats, Settler, SettlerConfig};
use std::collections::{BTreeSet, HashSet, VecDeque};

/// Configuration for [`three_phase`].
#[derive(Clone, Copy, Debug)]
pub struct ThreePhaseConfig {
    /// Maximum test-sequence length explored.
    pub max_depth: usize,
    /// Maximum product states explored before aborting.
    pub max_nodes: usize,
    /// Cap policy for the tracked faulty state set per settle (the old
    /// `max_set: usize` is `CapPolicy::Fixed(n)`).
    pub settle_cap: CapPolicy,
    /// Partial-order reduction inside the faulty-machine settles.
    pub por: bool,
}

impl Default for ThreePhaseConfig {
    fn default() -> Self {
        ThreePhaseConfig {
            max_depth: 64,
            max_nodes: 20_000,
            settle_cap: CapPolicy::Fixed(4096),
            por: true,
        }
    }
}

impl ThreePhaseConfig {
    /// Limits derived from the circuit size, for workloads beyond the
    /// bundled paper suite (the `satpg gen` families).
    ///
    /// The defaults are tuned to the paper's circuits (≲ 20 gates) and
    /// abort on larger generated families: the faulty-machine settle set
    /// grows roughly exponentially with the number of concurrently
    /// excited gates, so the settle cap doubles every four gates from
    /// the 4096 floor, reaching its 2^20 ceiling at 32 gates — just
    /// under the observed muller-15 onset (32 gates), where the fixed
    /// 4096 first aborted and 2^14+ was needed — and the depth/node
    /// budgets scale linearly.  Every limit is floored at its default;
    /// a cap only gates truncation, so the larger budgets cannot change
    /// any verdict that completed under [`ThreePhaseConfig::default`].
    pub fn scaled(ckt: &Circuit) -> Self {
        let g = ckt.num_gates().max(1);
        let d = ThreePhaseConfig::default();
        ThreePhaseConfig {
            max_depth: d.max_depth.max(4 * g + 16),
            max_nodes: d.max_nodes.max(2_000 * g).min(1 << 21),
            settle_cap: CapPolicy::Scaled {
                floor: 4096,
                gates_per_doubling: 4,
                ceil: 1 << 20,
            },
            por: true,
        }
    }

    /// The concrete settle-set cap for `ckt` under this configuration.
    pub fn resolved_set_cap(&self, ckt: &Circuit) -> usize {
        self.settle_cap.resolve(ckt.num_gates())
    }
}

/// Why a fault is provably untestable in the synchronous framework.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum UntestableReason {
    /// The full good×faulty product was exhausted without a guaranteed
    /// distinguishing sequence.
    NoDistinguishingSequence,
}

/// Outcome of the three-phase search for one fault.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum FaultStatus {
    /// A guaranteed test was found.
    Detected {
        /// The input patterns from reset.
        sequence: TestSequence,
    },
    /// Provably untestable.
    Untestable(UntestableReason),
    /// Resource limits hit before a verdict.
    Aborted,
}

/// Every possible faulty state disagrees with the good machine at some
/// primary output.
fn guaranteed_mismatch(ckt: &Circuit, good: &Bits, fset: &BTreeSet<Bits>) -> bool {
    let gv = ckt.output_values(good);
    !fset.is_empty() && fset.iter().all(|f| ckt.output_values(f) != gv)
}

/// Runs the three-phase search for one fault.
pub fn three_phase(
    ckt: &Circuit,
    cssg: &Cssg,
    fault: &Fault,
    cfg: &ThreePhaseConfig,
) -> FaultStatus {
    three_phase_traced(ckt, cssg, fault, cfg).0
}

/// [`three_phase`] returning the settling-engine counters alongside the
/// verdict (the engine workers aggregate them into their telemetry).
pub fn three_phase_traced(
    ckt: &Circuit,
    cssg: &Cssg,
    fault: &Fault,
    cfg: &ThreePhaseConfig,
) -> (FaultStatus, SettleStats) {
    // --- Phase 1: fault activation (§5.1) — informational: the set of
    // exciting stable states prioritizes nothing in a BFS, and an empty
    // set does not disprove testability (pulse-only signals).
    let inj = fault.injection();
    let scfg = SettlerConfig {
        k: cssg.k(),
        cap: cfg.settle_cap,
        por: cfg.por,
        ternary_fast_path: true,
    };
    let mut settler = Settler::new(ckt, &inj, &scfg);
    let status = three_phase_inner(ckt, cssg, cfg, &mut settler);
    let stats = settler.take_stats();
    (status, stats)
}

/// The product BFS, generic over the settling engine instance.
fn three_phase_inner(
    ckt: &Circuit,
    cssg: &Cssg,
    cfg: &ThreePhaseConfig,
    settler: &mut Settler,
) -> FaultStatus {
    // --- Phases 2+3: product BFS (justification + differentiation). ---
    let s0 = &cssg.states()[cssg.initial()];
    let Some(f0) = settler
        .settle_set(&BTreeSet::from([s0.clone()]), ckt.input_pattern(s0))
        .ok()
    else {
        return FaultStatus::Aborted;
    };
    if guaranteed_mismatch(ckt, s0, &f0) {
        return FaultStatus::Detected {
            sequence: TestSequence::default(),
        };
    }

    struct Node {
        good: usize,
        faulty: BTreeSet<Bits>,
        parent: usize,
        pattern: Pattern,
        depth: usize,
    }
    let key_of = |good: usize, fset: &BTreeSet<Bits>| -> (usize, Vec<Bits>) {
        (good, fset.iter().cloned().collect())
    };
    let mut nodes: Vec<Node> = vec![Node {
        good: cssg.initial(),
        faulty: f0,
        parent: usize::MAX,
        pattern: Pattern::zeros(ckt.num_inputs()),
        depth: 0,
    }];
    let mut visited: HashSet<(usize, Vec<Bits>)> = HashSet::new();
    visited.insert(key_of(nodes[0].good, &nodes[0].faulty));
    let mut queue: VecDeque<usize> = VecDeque::from([0]);
    let mut truncated = false;

    while let Some(ni) = queue.pop_front() {
        if nodes[ni].depth >= cfg.max_depth {
            truncated = true;
            continue;
        }
        let good = nodes[ni].good;
        let depth = nodes[ni].depth;
        let edges: Vec<(Pattern, usize)> = cssg.edges(good).to_vec();
        for (pattern, gsucc) in edges {
            let Some(fsucc) = settler.settle_set(&nodes[ni].faulty, &pattern).ok() else {
                truncated = true;
                continue;
            };
            if guaranteed_mismatch(ckt, &cssg.states()[gsucc], &fsucc) {
                let mut patterns = vec![pattern];
                let mut cur = ni;
                while nodes[cur].parent != usize::MAX {
                    patterns.push(nodes[cur].pattern.clone());
                    cur = nodes[cur].parent;
                }
                patterns.reverse();
                return FaultStatus::Detected {
                    sequence: TestSequence { patterns },
                };
            }
            let key = key_of(gsucc, &fsucc);
            if visited.insert(key) {
                if nodes.len() >= cfg.max_nodes {
                    return FaultStatus::Aborted;
                }
                nodes.push(Node {
                    good: gsucc,
                    faulty: fsucc,
                    parent: ni,
                    pattern,
                    depth: depth + 1,
                });
                queue.push_back(nodes.len() - 1);
            }
        }
    }
    if truncated {
        FaultStatus::Aborted
    } else {
        FaultStatus::Untestable(UntestableReason::NoDistinguishingSequence)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit_cssg::{build_cssg, CssgConfig};
    use crate::fault::{input_stuck_faults, output_stuck_faults};
    use crate::fsim::replay_batch;
    use crate::oracle::{validate_test, Verdict};
    use satpg_netlist::library;
    use satpg_sim::Site;

    fn cssg_of(ckt: &Circuit) -> Cssg {
        build_cssg(ckt, &CssgConfig::default()).unwrap()
    }

    #[test]
    fn finds_test_for_stuck_output() {
        let ckt = library::c_element();
        let cssg = cssg_of(&ckt);
        let y = ckt.driver(ckt.signal_by_name("y").unwrap()).unwrap();
        let fault = Fault {
            gate: y,
            site: Site::Output,
            stuck: false,
        };
        match three_phase(&ckt, &cssg, &fault, &ThreePhaseConfig::default()) {
            FaultStatus::Detected { sequence } => {
                assert_eq!(sequence.patterns, vec![0b11], "shortest test raises both");
                let det = replay_batch(&ckt, &cssg, &sequence, &[fault]).unwrap();
                assert!(det[0]);
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn all_c_element_faults_covered() {
        let ckt = library::c_element();
        let cssg = cssg_of(&ckt);
        for f in input_stuck_faults(&ckt)
            .into_iter()
            .chain(output_stuck_faults(&ckt))
        {
            match three_phase(&ckt, &cssg, &f, &ThreePhaseConfig::default()) {
                FaultStatus::Detected { sequence } => {
                    // The exact-set search may find tests the conservative
                    // ternary replay cannot confirm; validate with the
                    // nondeterministic oracle instead.
                    let v = validate_test(&ckt, &f, &sequence, cssg.k());
                    assert!(
                        matches!(v, Verdict::Detects { .. }),
                        "{}: {v:?}",
                        f.name(&ckt)
                    );
                }
                other => panic!("{}: {other:?}", f.name(&ckt)),
            }
        }
    }

    #[test]
    fn never_excited_fault_still_proved_untestable_by_search() {
        // A constant-0 gate's output never differs from 0 anywhere, so
        // output/SA0 changes nothing; the product search proves it.
        use satpg_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("konst");
        let a = b.input("A", "a");
        let z = b.gate("z", GateKind::Const(false), vec![]);
        let y = b.gate("y", GateKind::Or, vec![a, z.clone()]);
        b.output(y);
        b.output(z);
        let ckt = b.finish().unwrap();
        let cssg = cssg_of(&ckt);
        let zg = ckt.driver(ckt.signal_by_name("z").unwrap()).unwrap();
        let fault = Fault {
            gate: zg,
            site: Site::Output,
            stuck: false,
        };
        assert_eq!(
            three_phase(&ckt, &cssg, &fault, &ThreePhaseConfig::default()),
            FaultStatus::Untestable(UntestableReason::NoDistinguishingSequence)
        );
        // …while z/SA1 is excited everywhere and immediately observable.
        let sa1 = Fault {
            stuck: true,
            ..fault
        };
        assert!(matches!(
            three_phase(&ckt, &cssg, &sa1, &ThreePhaseConfig::default()),
            FaultStatus::Detected { .. }
        ));
    }

    #[test]
    fn stable_quiet_signal_detected_via_settling_divergence() {
        // §5.1's degenerate case: a signal that pulses only in unstable
        // states.  x = r·ā is 0 in every stable state, yet x/SA0 is
        // testable because without the pulse the handshake output a never
        // rises.
        use satpg_netlist::{CircuitBuilder, Cube, GateKind, Literal, Sop};
        let mut b = CircuitBuilder::new("pulse");
        let r = b.input("R", "r");
        let a_fb = b.signal("a");
        let x = b.gate(
            "x",
            GateKind::Sop(Sop {
                cubes: vec![Cube(vec![Literal::pos(0), Literal::neg(1)])],
            }),
            vec![r.clone(), a_fb],
        );
        let a_fb2 = b.signal("a");
        let a = b.gate(
            "a",
            GateKind::Sop(Sop {
                cubes: vec![
                    Cube(vec![Literal::pos(0)]),
                    Cube(vec![Literal::pos(1), Literal::pos(2)]),
                ],
            }),
            vec![x.clone(), r, a_fb2],
        );
        b.output(a);
        let ckt = b.finish().unwrap();
        let cssg = cssg_of(&ckt);
        // x is 0 in every stable state…
        let xsig = ckt.signal_by_name("x").unwrap();
        for s in cssg.states() {
            assert!(!s.get(xsig.index()));
        }
        // …yet x/SA0 has a test.
        let xg = ckt.driver(xsig).unwrap();
        let fault = Fault {
            gate: xg,
            site: Site::Output,
            stuck: false,
        };
        match three_phase(&ckt, &cssg, &fault, &ThreePhaseConfig::default()) {
            FaultStatus::Detected { sequence } => {
                let v = validate_test(&ckt, &fault, &sequence, cssg.k());
                assert!(matches!(v, Verdict::Detects { .. }), "{v:?}");
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn pi_stuck_detected_through_exact_settling() {
        // PI r stuck-at-1 on a pulse circuit defeats ternary simulation
        // (binate feedback) but the exact set semantics finds the test.
        use satpg_netlist::{CircuitBuilder, Cube, GateKind, Literal, Sop};
        let mut b = CircuitBuilder::new("pulse2");
        let r = b.input("R", "r");
        let a_fb = b.signal("a");
        let x = b.gate(
            "x",
            GateKind::Sop(Sop {
                cubes: vec![Cube(vec![Literal::pos(0), Literal::neg(1)])],
            }),
            vec![r.clone(), a_fb],
        );
        let a_fb2 = b.signal("a");
        let a = b.gate(
            "a",
            GateKind::Sop(Sop {
                cubes: vec![
                    Cube(vec![Literal::pos(0)]),
                    Cube(vec![Literal::pos(1), Literal::pos(2)]),
                ],
            }),
            vec![x.clone(), r, a_fb2],
        );
        b.output(a);
        let ckt = b.finish().unwrap();
        let cssg = cssg_of(&ckt);
        let rbuf = ckt.driver(ckt.signal_by_name("r").unwrap()).unwrap();
        let fault = Fault {
            gate: rbuf,
            site: Site::Output,
            stuck: true,
        };
        match three_phase(&ckt, &cssg, &fault, &ThreePhaseConfig::default()) {
            FaultStatus::Detected { sequence } => {
                let v = validate_test(&ckt, &fault, &sequence, cssg.k());
                assert!(matches!(v, Verdict::Detects { .. }), "{v:?}");
            }
            other => panic!("expected detection, got {other:?}"),
        }
    }

    #[test]
    fn redundant_fault_proved_untestable() {
        // y = a·b + a·b̄ (redundant cover of y = a): the b pins are
        // untestable at the outputs.
        use satpg_netlist::{CircuitBuilder, Cube, GateKind, Literal, Sop};
        let mut b = CircuitBuilder::new("red");
        let a = b.input("A", "a");
        let bb = b.input("B", "b");
        let sop = Sop {
            cubes: vec![
                Cube(vec![Literal::pos(0), Literal::pos(1)]),
                Cube(vec![Literal::pos(0), Literal::neg(1)]),
            ],
        };
        let y = b.gate("y", GateKind::Sop(sop), vec![a, bb]);
        b.output(y);
        let ckt = b.finish().unwrap();
        let cssg = cssg_of(&ckt);
        let yg = ckt.driver(ckt.signal_by_name("y").unwrap()).unwrap();
        // Pin 1 (the b input) stuck-at-1: y becomes a·b + a = a — same
        // function, no test exists.
        let fault = Fault {
            gate: yg,
            site: Site::Pin(1),
            stuck: true,
        };
        match three_phase(&ckt, &cssg, &fault, &ThreePhaseConfig::default()) {
            FaultStatus::Untestable(UntestableReason::NoDistinguishingSequence) => {}
            other => panic!("expected untestable, got {other:?}"),
        }
    }

    #[test]
    fn detection_at_reset_yields_empty_sequence() {
        use satpg_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("direct");
        let a = b.input("A", "a");
        let y = b.gate("y", GateKind::Buf, vec![a]);
        b.output(y);
        let ckt = b.finish().unwrap();
        let cssg = cssg_of(&ckt);
        let yg = ckt.driver(ckt.signal_by_name("y").unwrap()).unwrap();
        // y/SA1 flips the output already in the settled reset state.
        let fault = Fault {
            gate: yg,
            site: Site::Output,
            stuck: true,
        };
        match three_phase(&ckt, &cssg, &fault, &ThreePhaseConfig::default()) {
            FaultStatus::Detected { sequence } => assert!(sequence.is_empty()),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn depth_cap_aborts() {
        let ckt = library::muller_pipeline2();
        let cssg = cssg_of(&ckt);
        let faults = input_stuck_faults(&ckt);
        let cfg = ThreePhaseConfig {
            max_depth: 0,
            max_nodes: 10,
            settle_cap: CapPolicy::Fixed(64),
            por: true,
        };
        // With no depth at all, anything not detected at reset aborts (or
        // is proved never-excited).
        for f in faults {
            match three_phase(&ckt, &cssg, &f, &cfg) {
                FaultStatus::Detected { sequence } => assert!(sequence.is_empty()),
                FaultStatus::Aborted | FaultStatus::Untestable(_) => {}
            }
        }
    }
}
