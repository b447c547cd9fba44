//! Netlist synthesis from a state graph.
//!
//! Two backends, mirroring the two benchmark families of the paper:
//!
//! * [`complex_gate`] — each non-input signal becomes one atomic
//!   sum-of-products gate over the signal variables (with a feedback
//!   literal when the function is state-holding).  This is the
//!   complex-gate speed-independent style of Petrify's output, used for
//!   the Table 1 circuits.
//! * [`two_level`] — each cube becomes an AND gate (negative literals via
//!   shared inverters) feeding an OR gate per output, the bounded-delay
//!   style of SIS's output, used for the Table 2 circuits.  With
//!   [`Redundancy::HazardConsensus`] the cover is augmented with redundant
//!   consensus cubes — the hazard covers that SIS adds against spurious
//!   pulses, and precisely the redundancy the paper blames for the
//!   untestable faults of `trimos-send`, `vbe10b` and `vbe6a`.

use crate::cover::{all_primes, minimize, Cover, Cube};
use crate::csc::check_csc;
use crate::error::StgError;
use crate::model::{SignalClass, SignalIdx, Stg};
use crate::sg::StateGraph;
use crate::Result;
use satpg_netlist::{Circuit, CircuitBuilder, GateKind, Literal, Sop};
use std::collections::{HashMap, HashSet};

/// Redundancy policy for [`two_level`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum Redundancy {
    /// Emit the minimized cover as-is.
    #[default]
    None,
    /// Add every consensus cube of the cover (one closure round).  The
    /// added cubes never change the function — they are redundant by
    /// construction — but they remove static-1 hazards between adjacent
    /// cubes, as the bounded-delay synthesis flow does.
    HazardConsensus,
    /// Use **all** prime implicants touching the ON-set instead of a
    /// minimal cover — the prime closure that hazard-free two-level
    /// synthesis drifts toward (a cube for every required transition).
    /// The extra cubes are redundant and carry untestable fault sites,
    /// reproducing the paper's `trimos-send`/`vbe10b`/`vbe6a` effect.
    AllPrimes,
}

/// Derives the minimized next-state cover for every non-input signal.
///
/// # Errors
///
/// Fails if the specification violates CSC (the next-state function would
/// be ill-defined) or has no outputs.
pub fn next_state_covers(stg: &Stg, sg: &StateGraph) -> Result<Vec<(SignalIdx, Cover)>> {
    next_state_covers_with(stg, sg, false)
}

/// Like [`next_state_covers`], but optionally returning the full prime
/// closure per signal instead of a minimal cover.
pub fn next_state_covers_with(
    stg: &Stg,
    sg: &StateGraph,
    full_primes: bool,
) -> Result<Vec<(SignalIdx, Cover)>> {
    check_csc(stg, sg)?;
    let non_inputs = stg.non_input_signals();
    if non_inputs.is_empty() {
        return Err(StgError::NoOutputs);
    }
    if stg.num_signals() > 16 {
        return Err(StgError::TooLarge {
            what: "signals",
            limit: 16,
        });
    }
    let mut out = Vec::new();
    for &s in &non_inputs {
        // Unreachable codes are don't-cares.  States that share a code
        // agree on every next value (CSC), so a repeat lands on one side.
        let (mut on, mut off) = (Vec::new(), Vec::new());
        for (i, st) in sg.states().iter().enumerate() {
            if sg.next_value(stg, i, s) {
                on.push(st.code);
            } else {
                off.push(st.code);
            }
        }
        let cover = if full_primes {
            all_primes(&on, &off)
        } else {
            minimize(&on, &off)
        };
        out.push((s, cover));
    }
    Ok(out)
}

/// Environment-pad name for an input signal.
fn pad_name(stg: &Stg, s: SignalIdx) -> String {
    format!("{}_pad", stg.signal_name(s))
}

fn declare_inputs(stg: &Stg, b: &mut CircuitBuilder) {
    for s in stg.signals_of_class(SignalClass::Input) {
        b.input(pad_name(stg, s), stg.signal_name(s).to_string());
    }
}

fn set_initial(stg: &Stg, sg: &StateGraph, b: &mut CircuitBuilder) {
    let code = sg.states()[sg.initial()].code;
    for s in 0..stg.num_signals() {
        let v = code & (1 << s) != 0;
        if stg.signal_class(s) == SignalClass::Input {
            b.init(pad_name(stg, s), v);
        }
        b.init(stg.signal_name(s).to_string(), v);
    }
}

/// Synthesizes the complex-gate speed-independent implementation.
///
/// # Errors
///
/// Fails on CSC violations or if the initial marking enables an output
/// transition (no stable reset state).
pub fn complex_gate(stg: &Stg, sg: &StateGraph) -> Result<Circuit> {
    sg.check_initial_quiescent(stg)?;
    let covers = next_state_covers(stg, sg)?;
    let mut b = CircuitBuilder::new(stg.name().to_string());
    declare_inputs(stg, &mut b);
    for (s, cover) in &covers {
        let kind = sop_kind(cover);
        let pins: Vec<_> = cover
            .support()
            .iter()
            .map(|&v| b.signal(stg.signal_name(v).to_string()))
            .collect();
        b.gate(stg.signal_name(*s).to_string(), kind, pins);
    }
    for s in stg.signals_of_class(SignalClass::Output) {
        let sig = b.signal(stg.signal_name(s).to_string());
        b.output(sig);
    }
    set_initial(stg, sg, &mut b);
    Ok(b.finish()?)
}

/// Converts a cover into a gate kind over its support (pin `i` = i-th
/// support variable).
fn sop_kind(cover: &Cover) -> GateKind {
    if cover.cubes.is_empty() {
        return GateKind::Const(false);
    }
    if cover.cubes.len() == 1 && cover.cubes[0].num_literals() == 0 {
        return GateKind::Const(true);
    }
    let support = cover.support();
    let pin_of: HashMap<usize, usize> = support.iter().enumerate().map(|(i, &v)| (v, i)).collect();
    GateKind::Sop(Sop {
        cubes: cover
            .cubes
            .iter()
            .map(|c| {
                satpg_netlist::Cube(
                    c.literals()
                        .into_iter()
                        .map(|(v, pos)| Literal {
                            pin: pin_of[&v],
                            positive: pos,
                        })
                        .collect(),
                )
            })
            .collect(),
    })
}

/// Adds one closure round of consensus cubes to `cover` (deduplicated,
/// skipping cubes already covered by an existing cube).
pub fn add_consensus_cubes(cover: &Cover) -> Cover {
    let mut cubes = cover.cubes.clone();
    let mut extra: Vec<Cube> = Vec::new();
    for (i, a) in cover.cubes.iter().enumerate() {
        for b in &cover.cubes[i + 1..] {
            if let Some(c) = a.consensus(b) {
                let covered = cubes.iter().chain(&extra).any(|x| x.covers(&c));
                if !covered {
                    extra.push(c);
                }
            }
        }
    }
    cubes.extend(extra);
    cubes.sort_unstable();
    cubes.dedup();
    Cover { cubes }
}

/// Synthesizes the two-level bounded-delay implementation: shared input
/// inverters, one AND gate per combinational cube, and per output either
/// an OR gate or — when the function is state-holding — an AND-OR latch
/// cell that keeps the feedback cubes atomic.
///
/// Decomposing the hold path of a latch (`a = x + r·a` into separate
/// AND/OR gates) creates a critical race under the unbounded-delay model
/// that no test cycle survives; bounded-delay flows map such functions to
/// library latch cells, which is what the atomic latch gate models.  The
/// combinational cubes are still exposed as discrete AND gates (with
/// their own fault sites), which is where [`Redundancy::HazardConsensus`]
/// inserts the redundant covers.
///
/// # Errors
///
/// Same conditions as [`complex_gate`].
pub fn two_level(stg: &Stg, sg: &StateGraph, redundancy: Redundancy) -> Result<Circuit> {
    sg.check_initial_quiescent(stg)?;
    let covers = next_state_covers_with(stg, sg, redundancy == Redundancy::AllPrimes)?;
    let code = sg.states()[sg.initial()].code;
    let value_of = |s: SignalIdx| code & (1 << s) != 0;

    let augmented: Vec<(SignalIdx, Cover)> = covers
        .iter()
        .map(|(s, c)| {
            let c = match redundancy {
                Redundancy::None | Redundancy::AllPrimes => c.clone(),
                Redundancy::HazardConsensus => add_consensus_cubes(c),
            };
            (*s, c)
        })
        .collect();

    let mut b = CircuitBuilder::new(format!("{}_2l", stg.name()));
    declare_inputs(stg, &mut b);

    // Shared inverters for the decomposed (non-feedback) cubes only;
    // latch-cell pins take negative literals natively.
    let mut inverters: HashSet<SignalIdx> = HashSet::new();
    let mut pending_inv: Vec<SignalIdx> = Vec::new();
    for (s, cover) in &augmented {
        for c in &cover.cubes {
            let lits = c.literals();
            if lits.iter().any(|&(v, _)| v == *s) || lits.len() < 2 {
                continue; // feedback cube or single literal: no AND gate
            }
            for (v, pos) in lits {
                if !pos && inverters.insert(v) {
                    pending_inv.push(v);
                }
            }
        }
    }
    pending_inv.sort_unstable();
    for v in &pending_inv {
        let src = b.signal(stg.signal_name(*v).to_string());
        b.gate(
            format!("{}_n", stg.signal_name(*v)),
            GateKind::Not,
            vec![src],
        );
        b.init(format!("{}_n", stg.signal_name(*v)), !value_of(*v));
    }

    let lit_signal = |stg: &Stg, v: usize, pos: bool| -> String {
        if pos {
            stg.signal_name(v).to_string()
        } else {
            format!("{}_n", stg.signal_name(v))
        }
    };

    for (s, cover) in &augmented {
        let name = stg.signal_name(*s).to_string();
        if cover.cubes.is_empty() {
            b.gate(name.clone(), GateKind::Const(false), vec![]);
            continue;
        }
        if cover.cubes.len() == 1 && cover.cubes[0].num_literals() == 0 {
            b.gate(name.clone(), GateKind::Const(true), vec![]);
            continue;
        }
        // Pins of the output cell: a mix of decomposed-AND outputs,
        // direct literal signals, and raw signals for feedback cubes.
        let mut pin_names: Vec<String> = Vec::new();
        let mut pin_polarity: Vec<bool> = Vec::new();
        let mut out_cubes: Vec<satpg_netlist::Cube> = Vec::new();
        let pin_of = |pin_names: &mut Vec<String>,
                      pin_polarity: &mut Vec<bool>,
                      name: String,
                      positive: bool|
         -> usize {
            match pin_names.iter().position(|n| *n == name) {
                Some(i) => i,
                None => {
                    pin_names.push(name);
                    pin_polarity.push(positive);
                    pin_names.len() - 1
                }
            }
        };
        for (j, c) in cover.cubes.iter().enumerate() {
            let lits = c.literals();
            let is_feedback = lits.iter().any(|&(v, _)| v == *s);
            if is_feedback {
                // Keep the cube atomic inside the latch cell.
                let mut cube = Vec::new();
                for (v, pos) in lits {
                    let p = pin_of(
                        &mut pin_names,
                        &mut pin_polarity,
                        stg.signal_name(v).to_string(),
                        true,
                    );
                    cube.push(Literal {
                        pin: p,
                        positive: pos,
                    });
                }
                out_cubes.push(satpg_netlist::Cube(cube));
            } else if lits.len() == 1 {
                let (v, pos) = lits[0];
                let p = pin_of(
                    &mut pin_names,
                    &mut pin_polarity,
                    lit_signal(stg, v, pos),
                    true,
                );
                out_cubes.push(satpg_netlist::Cube(vec![Literal::pos(p)]));
            } else {
                let and_name = format!("{name}_c{j}");
                let pins: Vec<_> = lits
                    .iter()
                    .map(|&(v, pos)| b.signal(lit_signal(stg, v, pos)))
                    .collect();
                b.gate(and_name.clone(), GateKind::And, pins);
                b.init(and_name.clone(), c.contains(code));
                let p = pin_of(&mut pin_names, &mut pin_polarity, and_name, true);
                out_cubes.push(satpg_netlist::Cube(vec![Literal::pos(p)]));
            }
        }
        let pins: Vec<_> = pin_names.iter().map(|n| b.signal(n.clone())).collect();
        let all_single_pos = out_cubes.iter().all(|c| c.0.len() == 1 && c.0[0].positive);
        if all_single_pos && out_cubes.len() == pins.len() {
            // Purely combinational: a plain OR (or buffer) suffices.
            if pins.len() == 1 {
                b.gate(name.clone(), GateKind::Buf, pins);
            } else {
                b.gate(name.clone(), GateKind::Or, pins);
            }
        } else {
            b.gate(name.clone(), GateKind::Sop(Sop { cubes: out_cubes }), pins);
        }
    }
    for s in stg.signals_of_class(SignalClass::Output) {
        let sig = b.signal(stg.signal_name(s).to_string());
        b.output(sig);
    }
    set_initial(stg, sg, &mut b);
    Ok(b.finish()?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_g;
    use satpg_sim::{ternary_settle, Injection, TernaryOutcome};

    const CELEM: &str = "\
.model celem
.inputs a b
.outputs c
.graph
a+ c+
b+ c+
c+ a- b-
a- c-
b- c-
c- a+ b+
.marking { <c-,a+> <c-,b+> }
";

    fn synth_celem() -> Circuit {
        let g = parse_g(CELEM).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        complex_gate(&g, &sg).unwrap()
    }

    #[test]
    fn celement_complex_gate_is_majority() {
        let c = synth_celem();
        // Two input buffers + one complex gate.
        assert_eq!(c.num_gates(), 3);
        assert!(c.is_stable(c.initial_state()));
        // Raise both inputs: c rises.
        let out = ternary_settle(&c, c.initial_state(), 0b11, &Injection::none());
        let s = out.definite().expect("race-free").clone();
        assert!(s.get(c.signal_by_name("c").unwrap().index()));
        // Lower one input: c holds.
        let out = ternary_settle(&c, &s, 0b01, &Injection::none());
        let s = out.definite().unwrap();
        assert!(s.get(c.signal_by_name("c").unwrap().index()));
    }

    #[test]
    fn celement_two_level_matches_behaviour() {
        let g = parse_g(CELEM).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        let c = two_level(&g, &sg, Redundancy::None).unwrap();
        assert!(c.is_stable(c.initial_state()));
        assert!(c.num_gates() > 3, "decomposed into AND/OR gates");
        let out = ternary_settle(&c, c.initial_state(), 0b11, &Injection::none());
        let s = out
            .definite()
            .expect("majority raise is still clean")
            .clone();
        assert!(s.get(c.signal_by_name("c").unwrap().index()));
    }

    #[test]
    fn consensus_cubes_are_redundant() {
        // f = ab + āc: consensus bc is redundant.
        let cover = Cover {
            cubes: vec![
                Cube {
                    mask: 0b011,
                    val: 0b011,
                },
                Cube {
                    mask: 0b101,
                    val: 0b100,
                },
            ],
        };
        let aug = add_consensus_cubes(&cover);
        assert_eq!(aug.cubes.len(), 3);
        for p in 0..8u64 {
            assert_eq!(cover.contains(p), aug.contains(p), "point {p:b}");
        }
    }

    #[test]
    fn redundant_two_level_has_more_gates() {
        let g = parse_g(CELEM).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        let plain = two_level(&g, &sg, Redundancy::None).unwrap();
        let red = two_level(&g, &sg, Redundancy::HazardConsensus).unwrap();
        // The C-element cover ab + ac + bc is closed under consensus, so
        // pick a function with a real gap if the counts tie — here we only
        // require monotonicity.
        assert!(red.num_gates() >= plain.num_gates());
    }

    #[test]
    fn two_level_with_real_consensus_gap() {
        // A spec whose cover has non-trivial consensus: f over (r, x).
        let src = "\
.model gap
.inputs r
.outputs x y
.graph
r+ x+
x+ y+
y+ r-
r- x-
x- y-
y- r+
.marking { <y-,r+> }
";
        let g = parse_g(src).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        let plain = two_level(&g, &sg, Redundancy::None).unwrap();
        let red = two_level(&g, &sg, Redundancy::HazardConsensus).unwrap();
        assert!(plain.is_stable(plain.initial_state()));
        assert!(red.is_stable(red.initial_state()));
    }

    #[test]
    fn non_quiescent_spec_refused() {
        let src = "\
.model nq
.inputs a
.outputs b
.graph
b+ a+
a+ b-
b- a-
a- b+
.marking { <a-,b+> }
";
        let g = parse_g(src).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        assert!(matches!(
            complex_gate(&g, &sg),
            Err(StgError::InitialNotQuiescent { .. })
        ));
    }

    #[test]
    fn synthesized_circuit_follows_specification() {
        // Drive the complex-gate C-element around its specified cycle and
        // check each settled state matches the SG code.
        let g = parse_g(CELEM).unwrap();
        let sg = StateGraph::build(&g).unwrap();
        let c = complex_gate(&g, &sg).unwrap();
        let idx_of = |n: &str| c.signal_by_name(n).unwrap().index();
        let mut state = c.initial_state().clone();
        // Cycle: a+ b+ (c+) a- b- (c-), checking c after each settle.
        for (pattern, expect_c) in [(0b01, false), (0b11, true), (0b10, true), (0b00, false)] {
            let out = ternary_settle(&c, &state, pattern, &Injection::none());
            match out {
                TernaryOutcome::Definite(s) => {
                    assert_eq!(s.get(idx_of("c")), expect_c, "pattern {pattern:02b}");
                    state = s;
                }
                TernaryOutcome::Uncertain(_) => {
                    panic!("specified transition must be race-free")
                }
            }
        }
    }
}
