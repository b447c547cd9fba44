//! Property tests on random asynchronous circuits:
//!
//! * ternary-definite ⇒ explicit-confluent with the same state
//!   (conservativeness, the soundness anchor of the whole ATPG flow);
//! * the 64-lane parallel engine agrees lane-by-lane with the scalar
//!   engine, including under fault injection;
//! * settled states are stable;
//! * the POR ample check's event-driven frozen fixpoint equals the
//!   sweep to the fixpoint it replaced.

use proptest::prelude::*;
use satpg_netlist::{
    Bits, Circuit, CircuitBuilder, GateId, GateKind, IntoPattern, Pattern, SignalId,
};
use satpg_sim::{
    eval_gate_ternary, is_excited_inj, parallel_settle, ternary_settle, CapPolicy, Injection,
    ParallelInjection, PlaneState, Settle, Settler, SettlerConfig, Site, TernaryOutcome, Trit,
    TritVec,
};

/// Blueprint for a random circuit (kept simple so shrinking works).
#[derive(Debug, Clone)]
struct Blueprint {
    num_inputs: usize,
    gates: Vec<(u8, Vec<usize>)>, // (kind selector, fanin signal indices)
}

fn kind_of(sel: u8, arity: usize) -> GateKind {
    match sel % 7 {
        0 => GateKind::And,
        1 => GateKind::Or,
        2 => GateKind::Nand,
        3 => GateKind::Nor,
        4 if arity >= 2 => GateKind::C,
        5 => GateKind::Xor,
        _ => GateKind::Not,
    }
}

fn build(bp: &Blueprint) -> Option<Circuit> {
    build_padded(bp, 0)
}

/// Builds the blueprint's circuit with `extra` additional buffered
/// inputs appended after the real ones.  No gate reads them (fanin
/// names are resolved against the unpadded name list), so the padded
/// circuit computes the same function — but with `extra >= 64` every
/// pattern and state spills past the single-word fast path.
fn build_padded(bp: &Blueprint, extra: usize) -> Option<Circuit> {
    let mut b = CircuitBuilder::new("random");
    let mut names: Vec<String> = Vec::new();
    for i in 0..bp.num_inputs {
        b.input(format!("I{i}"), format!("i{i}"));
        names.push(format!("i{i}"));
    }
    for z in 0..extra {
        b.input(format!("Z{z}"), format!("z{z}"));
    }
    for (gi, _) in bp.gates.iter().enumerate() {
        names.push(format!("g{gi}"));
    }
    for (gi, (sel, fanin)) in bp.gates.iter().enumerate() {
        let mut kind = kind_of(*sel, fanin.len());
        if kind == GateKind::Not || fanin.len() == 1 {
            kind = GateKind::Not;
        }
        let ins: Vec<_> = fanin
            .iter()
            .map(|&f| b.signal(names[f % names.len()].clone()))
            .collect();
        let take = if kind == GateKind::Not { 1 } else { ins.len() };
        b.gate(format!("g{gi}"), kind, ins.into_iter().take(take).collect());
    }
    let last = format!("g{}", bp.gates.len() - 1);
    let sig = b.signal(last);
    b.output(sig);
    b.settle_initial();
    b.finish().ok()
}

fn arb_blueprint() -> impl Strategy<Value = Blueprint> {
    (1usize..=3, 1usize..=6).prop_flat_map(|(ni, ng)| {
        let gate = (
            any::<u8>(),
            proptest::collection::vec(0usize..(ni + ng), 1..=3),
        );
        proptest::collection::vec(gate, ng).prop_map(move |gates| Blueprint {
            num_inputs: ni,
            gates,
        })
    })
}

/// The exact k-bounded semantics: the naive walk, no fast path.
fn exact_cfg(c: &Circuit) -> SettlerConfig {
    SettlerConfig {
        k: 6 * c.num_gates() + 6,
        cap: CapPolicy::Fixed(1 << 14),
        por: false,
        ternary_fast_path: false,
    }
}

/// One settle from the reset state under `cfg`, fault-free.
fn settle_reset(c: &Circuit, pattern: impl IntoPattern, cfg: &SettlerConfig) -> Settle {
    Settler::new(c, &Injection::none(), cfg).settle(c.initial_state(), pattern)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ternary-definite means every *fair* schedule (each excited gate
    /// eventually fires — guaranteed by finite inertial delays) settles to
    /// that state.  When the exhaustive analysis also converges within k,
    /// the states must match; when it reports Unstable, only *unfair*
    /// interleavings (indefinitely postponing some gate) can still be
    /// switching, and a fair round-robin run must reach the ternary state.
    #[test]
    fn ternary_conservative(bp in arb_blueprint(), pattern in any::<u64>()) {
        let Some(c) = build(&bp) else { return Ok(()) };
        let pattern = pattern & ((1 << c.num_inputs()) - 1);
        if let TernaryOutcome::Definite(tb) =
            ternary_settle(&c, c.initial_state(), pattern, &Injection::none())
        {
            prop_assert!(c.is_stable(&tb), "ternary-definite state must be stable");
            match settle_reset(&c, pattern, &exact_cfg(&c)) {
                Settle::Confluent(eb) => prop_assert_eq!(tb, eb),
                Settle::Truncated => {} // cap hit; no verdict
                Settle::NonConfluent(_) => {
                    return Err(TestCaseError::fail(
                        "ternary definite but explicit says non-confluent".to_string(),
                    ))
                }
                Settle::Unstable(_) => {
                    // Fair (round-robin) schedule must settle to tb.
                    let mut s = c.with_inputs(c.initial_state(), pattern);
                    'outer: for _ in 0..(8 * c.num_gates() * c.num_gates() + 8) {
                        for gi in 0..c.num_gates() {
                            let g = GateId(gi as u32);
                            if c.is_excited(g, &s) {
                                s = c.step_gate(g, &s);
                                continue 'outer;
                            }
                        }
                        break;
                    }
                    prop_assert_eq!(s, tb, "fair schedule disagrees with ternary");
                }
            }
        }
    }

    /// Explicit confluence: the unique settled state must also be what any
    /// greedy interleaving reaches.
    #[test]
    fn confluent_state_reached_by_greedy_run(bp in arb_blueprint(), pattern in any::<u64>()) {
        let Some(c) = build(&bp) else { return Ok(()) };
        let pattern = pattern & ((1 << c.num_inputs()) - 1);
        let cfg = exact_cfg(&c);
        if let Settle::Confluent(target) =
            settle_reset(&c, pattern, &cfg)
        {
            let mut s = c.with_inputs(c.initial_state(), pattern);
            for _ in 0..cfg.k {
                match c.excited_gates(&s).first() {
                    Some(&g) => s = c.step_gate(g, &s),
                    None => break,
                }
            }
            prop_assert_eq!(s, target);
        }
    }

    /// Parallel lanes agree with scalar ternary runs, with and without
    /// injected faults.
    #[test]
    fn parallel_agrees_with_scalar(bp in arb_blueprint(), pattern in any::<u64>(), pin in any::<u8>(), val in any::<bool>()) {
        let Some(c) = build(&bp) else { return Ok(()) };
        let pattern = pattern & ((1 << c.num_inputs()) - 1);
        // Lane 0: good machine.  Lane 1: some single fault.
        let gate = GateId((pin as u32) % c.num_gates() as u32);
        let npins = c.gate(gate).inputs.len();
        let site = if (pin as usize).is_multiple_of(2) && npins > 0 {
            Site::Pin(pin as usize % npins)
        } else {
            Site::Output
        };
        let faulty = Injection::single(gate, site, val);
        let lanes = vec![Injection::none(), faulty.clone()];
        let pinj = ParallelInjection::new(&lanes);
        let par = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), pattern, &pinj);
        for (lane, inj) in [(0usize, Injection::none()), (1, faulty)] {
            let scalar = ternary_settle(&c, c.initial_state(), pattern, &inj);
            let tv = match scalar {
                TernaryOutcome::Definite(b) => TritVec::from_bits(&b),
                TernaryOutcome::Uncertain(tv) => tv,
            };
            for i in 0..c.num_state_bits() {
                prop_assert_eq!(par.trit(i, lane), tv.0[i], "lane {} signal {}", lane, i);
            }
        }
    }

    /// Every state reported stable by a settle is genuinely stable.
    #[test]
    fn settle_outputs_are_stable(bp in arb_blueprint(), pattern in any::<u64>()) {
        let Some(c) = build(&bp) else { return Ok(()) };
        let pattern = pattern & ((1 << c.num_inputs()) - 1);
        match settle_reset(&c, pattern, &exact_cfg(&c)) {
            Settle::Confluent(s) => prop_assert!(c.is_stable(&s)),
            Settle::NonConfluent(ss) => {
                prop_assert!(ss.len() >= 2);
                for s in ss {
                    prop_assert!(c.is_stable(&s));
                }
            }
            _ => {}
        }
    }

    /// Input pattern bits survive settling (the environment holds them).
    #[test]
    fn pattern_is_held(bp in arb_blueprint(), pattern in any::<u64>()) {
        let Some(c) = build(&bp) else { return Ok(()) };
        let pattern = pattern & ((1 << c.num_inputs()) - 1);
        if let TernaryOutcome::Definite(b) =
            ternary_settle(&c, c.initial_state(), pattern, &Injection::none())
        {
            prop_assert_eq!(c.input_pattern(&b), pattern);
        }
    }

    /// Multi-word identity: the same circuit padded past 64 signals
    /// (spilled patterns and states) settles exactly like the narrow
    /// single-word original, signal for signal — under the ternary,
    /// exhaustive and 64-lane parallel engines alike.
    #[test]
    fn padded_multiword_matches_u64_fast_path(bp in arb_blueprint(), pattern in any::<u64>(), high in any::<u64>()) {
        let Some(narrow) = build(&bp) else { return Ok(()) };
        let Some(wide) = build_padded(&bp, 64) else { return Ok(()) };
        prop_assert!(wide.num_state_bits() > 64, "padding must force the spill repr");
        let ni = narrow.num_inputs();
        let pattern = pattern & ((1 << ni) - 1);

        // Shared-signal correspondence, narrow index -> padded index.
        let map: Vec<(usize, usize)> = (0..narrow.num_state_bits())
            .map(|i| {
                let name = narrow.signal_name(SignalId(i as u32));
                (i, wide.signal_by_name(name).unwrap().index())
            })
            .collect();

        // Ternary fixpoint: arbitrary junk in the high word must not
        // leak into the embedded circuit.
        let wp = Pattern::from_fn(ni + 64, |i| {
            if i < ni {
                (pattern >> i) & 1 == 1
            } else {
                (high >> (i - ni)) & 1 == 1
            }
        });
        let as_trits = |o: TernaryOutcome| match o {
            TernaryOutcome::Definite(b) => TritVec::from_bits(&b),
            TernaryOutcome::Uncertain(tv) => tv,
        };
        let tn = as_trits(ternary_settle(&narrow, narrow.initial_state(), pattern, &Injection::none()));
        let tw = as_trits(ternary_settle(&wide, wide.initial_state(), &wp, &Injection::none()));
        for &(i, j) in &map {
            prop_assert_eq!(tn.0[i], tw.0[j], "ternary signal {}", i);
        }

        // The 64-lane plane engine on the padded circuit agrees with its
        // own scalar run (multi-word plane state).
        let pinj = ParallelInjection::new(&[Injection::none()]);
        let par = parallel_settle(&wide, &PlaneState::broadcast(wide.initial_state()), &wp, &pinj);
        for i in 0..wide.num_state_bits() {
            prop_assert_eq!(par.trit(i, 0), tw.0[i], "parallel signal {}", i);
        }

        // Exhaustive interleavings: quiescent padding (the extra pins
        // hold their reset value, so their buffers never fire) keeps the
        // interleaving space identical.  Same k for both runs so the
        // classification is compared like for like.
        let cfg = exact_cfg(&narrow);
        let wq = Pattern::from_fn(ni + 64, |i| i < ni && (pattern >> i) & 1 == 1);
        let en = settle_reset(&narrow, pattern, &cfg);
        let ew = settle_reset(&wide, &wq, &cfg);
        let shadow_n = |states: &[Bits]| {
            let mut v: Vec<Vec<bool>> = states
                .iter()
                .map(|s| map.iter().map(|&(i, _)| s.get(i)).collect())
                .collect();
            v.sort();
            v
        };
        let shadow_w = |states: &[Bits]| {
            let mut v: Vec<Vec<bool>> = states
                .iter()
                .map(|s| map.iter().map(|&(_, j)| s.get(j)).collect())
                .collect();
            v.sort();
            v
        };
        match (en, ew) {
            (Settle::Confluent(a), Settle::Confluent(b)) => {
                for &(i, j) in &map {
                    prop_assert_eq!(a.get(i), b.get(j), "confluent signal {}", i);
                }
            }
            (Settle::NonConfluent(a), Settle::NonConfluent(b))
            | (Settle::Unstable(a), Settle::Unstable(b)) => {
                prop_assert_eq!(shadow_n(&a), shadow_w(&b));
            }
            (Settle::Truncated, Settle::Truncated) => {}
            (a, b) => {
                return Err(TestCaseError::fail(format!(
                    "classification diverged: narrow {a:?} vs padded {b:?}"
                )));
            }
        }
    }
}

/// Deterministic regression: a full-width 64-lane run with all-distinct
/// injections stays self-consistent.
#[test]
fn sixty_four_distinct_lanes() {
    let c = satpg_netlist::library::muller_pipeline2();
    let mut lanes = vec![Injection::none()];
    'outer: for gi in 0..c.num_gates() {
        let g = GateId(gi as u32);
        for p in 0..c.gate(g).inputs.len() {
            for v in [false, true] {
                if lanes.len() == 64 {
                    break 'outer;
                }
                lanes.push(Injection::single(g, Site::Pin(p), v));
            }
        }
    }
    let pinj = ParallelInjection::new(&lanes);
    let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b01, &pinj);
    for (lane, inj) in lanes.iter().enumerate() {
        let scalar = ternary_settle(&c, c.initial_state(), 0b01, inj);
        let tv = match scalar {
            TernaryOutcome::Definite(b) => TritVec::from_bits(&b),
            TernaryOutcome::Uncertain(tv) => tv,
        };
        for i in 0..c.num_state_bits() {
            assert_eq!(st.trit(i, lane), tv.0[i], "lane {lane} signal {i}");
        }
    }
}

/// Regression: ternary simulation of a Bits state that is already stable
/// under the same pattern is the identity.
#[test]
fn identity_pattern_is_noop() {
    for c in satpg_netlist::library::all() {
        let s0 = c.initial_state();
        let pat = c.input_pattern(s0);
        match ternary_settle(&c, s0, pat, &Injection::none()) {
            TernaryOutcome::Definite(b) => assert_eq!(&b, s0, "{}", c.name()),
            TernaryOutcome::Uncertain(_) => panic!("{}: stable state became uncertain", c.name()),
        }
    }
}

/// Regression: Bits helper sanity used by the harnesses.
#[test]
fn bits_roundtrip_via_planes() {
    let c = satpg_netlist::library::sr_latch();
    let ps = PlaneState::broadcast(c.initial_state());
    for lane in [0usize, 13, 63] {
        assert_eq!(ps.lane_bits(lane).as_ref(), Some(c.initial_state()));
        assert_eq!(ps.trit(0, lane), Trit::Zero);
    }
    let b = Bits::from_str01("0101").unwrap();
    assert_eq!(b.to_string(), "0101");
}

/// Wider random circuits than [`arb_blueprint`]: more gates and fan-in,
/// so frozen cones branch and reconverge.
fn arb_wide_blueprint() -> impl Strategy<Value = Blueprint> {
    (1usize..=4, 2usize..=14).prop_flat_map(|(ni, ng)| {
        let gate = (
            any::<u8>(),
            proptest::collection::vec(0usize..(ni + ng), 1..=4),
        );
        proptest::collection::vec(gate, ng).prop_map(move |gates| Blueprint {
            num_inputs: ni,
            gates,
        })
    })
}

/// The reference for [`Settler::frozen_fixpoint`]: algorithm A with
/// `frozen`'s output pinned, swept over every gate until a sweep
/// changes nothing (the ample check's computation before it became
/// event-driven).
fn frozen_sweep(c: &Circuit, s: &Bits, inj: &Injection, frozen: GateId) -> TritVec {
    let mut tv = TritVec::from_bits(s);
    loop {
        let mut changed = false;
        for i in 0..c.num_gates() {
            let g = GateId(i as u32);
            if g == frozen {
                continue;
            }
            let out = c.gate_output(g).index();
            let next = tv.0[out].lub(eval_gate_ternary(c, g, &tv, inj));
            if next != tv.0[out] {
                tv.0[out] = next;
                changed = true;
            }
        }
        if !changed {
            return tv;
        }
    }
}

/// A random injection: none, one output force or one pin force.
fn injection_for(c: &Circuit, sel: u8, value: bool) -> Injection {
    let gate = GateId((sel as u32 / 3) % c.num_gates() as u32);
    let pins = c.gate(gate).inputs.len();
    match sel % 3 {
        0 => Injection::none(),
        1 => Injection::single(gate, Site::Output, value),
        _ => Injection::single(gate, Site::Pin(sel as usize % pins.max(1)), value),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The event-driven frozen fixpoint behind the POR ample check
    /// equals the sweep it replaced, for every excited candidate along
    /// a random walk from the stable initial state with a random input
    /// pattern applied, under random pin and output forces.
    #[test]
    fn frozen_fixpoint_matches_sweep(
        bp in arb_wide_blueprint(),
        pattern in any::<u64>(),
        force in (any::<u8>(), any::<bool>()),
        walk in proptest::collection::vec(any::<u8>(), 0..8),
    ) {
        let Some(c) = build(&bp) else { return Ok(()) };
        let inj = injection_for(&c, force.0, force.1);
        let mut settler = Settler::new(&c, &inj, &SettlerConfig::for_circuit(&c));
        let mut s = c.with_inputs(c.initial_state(), pattern & ((1 << c.num_inputs()) - 1));
        for step in 0..=walk.len() {
            let excited: Vec<GateId> = (0..c.num_gates())
                .map(|i| GateId(i as u32))
                .filter(|&g| is_excited_inj(&c, g, &s, &inj))
                .collect();
            for &g in &excited {
                prop_assert_eq!(
                    settler.frozen_fixpoint(&s, g),
                    frozen_sweep(&c, &s, &inj, g),
                    "state {} frozen {:?} under {:?}", s, g, inj
                );
            }
            let Some(&pick) = walk.get(step) else { break };
            if excited.is_empty() {
                break;
            }
            let g = excited[pick as usize % excited.len()];
            s.toggle(c.gate_output(g).index());
        }
    }
}
