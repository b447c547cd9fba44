//! Bit-parallel ternary simulation: 64 machines per pass.
//!
//! Each signal holds two 64-bit planes, `lo` and `hi`; lane `l` encodes a
//! ternary value as `(lo, hi)` bits: `(1,0)` = 0, `(0,1)` = 1, `(1,1)` =
//! `Φ`.  Kleene operators become plain word operations, so algorithms A
//! and B run over the good machine and 63 faulty machines simultaneously —
//! the combination of *parallel* and *ternary* simulation the paper uses
//! for random TPG and fault simulation.

use crate::inject::{Injection, Site};
use crate::ternary::Trit;
use satpg_netlist::{Bits, Circuit, GateId, GateKind, IntoPattern};

/// Number of machines simulated per pass.
pub const LANES: usize = 64;

/// Plane pair for one signal.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
struct Planes {
    lo: u64,
    hi: u64,
}

impl Planes {
    const ZERO: Planes = Planes { lo: !0, hi: 0 };
    const ONE: Planes = Planes { lo: 0, hi: !0 };

    #[inline]
    fn from_bool(b: bool) -> Planes {
        if b {
            Planes::ONE
        } else {
            Planes::ZERO
        }
    }

    #[inline]
    fn not(self) -> Planes {
        Planes {
            lo: self.hi,
            hi: self.lo,
        }
    }

    #[inline]
    fn and(self, o: Planes) -> Planes {
        Planes {
            lo: self.lo | o.lo,
            hi: self.hi & o.hi,
        }
    }

    #[inline]
    fn or(self, o: Planes) -> Planes {
        Planes {
            lo: self.lo & o.lo,
            hi: self.hi | o.hi,
        }
    }

    #[inline]
    fn xor(self, o: Planes) -> Planes {
        let known = !(self.lo & self.hi) & !(o.lo & o.hi);
        let v = self.hi ^ o.hi;
        Planes {
            lo: (known & !v) | !known,
            hi: (known & v) | !known,
        }
    }

    /// Least upper bound in the information order, lane-wise.
    #[inline]
    fn lub(self, o: Planes) -> Planes {
        Planes {
            lo: self.lo | o.lo,
            hi: self.hi | o.hi,
        }
    }

    /// Forces lanes in `mask` to `value`.
    #[inline]
    fn force(self, mask: u64, value: bool) -> Planes {
        if value {
            Planes {
                lo: self.lo & !mask,
                hi: self.hi | mask,
            }
        } else {
            Planes {
                lo: self.lo | mask,
                hi: self.hi & !mask,
            }
        }
    }

    #[inline]
    fn trit(self, lane: usize) -> Trit {
        let m = 1u64 << lane;
        match ((self.lo & m) != 0, (self.hi & m) != 0) {
            (true, false) => Trit::Zero,
            (false, true) => Trit::One,
            _ => Trit::X,
        }
    }
}

/// A 64-lane ternary circuit state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct PlaneState {
    planes: Vec<Planes>,
}

impl PlaneState {
    /// Broadcasts one binary state to all lanes.
    pub fn broadcast(state: &Bits) -> Self {
        PlaneState {
            planes: state.iter().map(Planes::from_bool).collect(),
        }
    }

    /// Sets the ternary value of `signal` on `lane`.
    pub fn set_trit(&mut self, signal: usize, lane: usize, t: Trit) {
        let m = 1u64 << lane;
        let p = &mut self.planes[signal];
        let (lo, hi) = match t {
            Trit::Zero => (true, false),
            Trit::One => (false, true),
            Trit::X => (true, true),
        };
        p.lo = if lo { p.lo | m } else { p.lo & !m };
        p.hi = if hi { p.hi | m } else { p.hi & !m };
    }

    /// Reads the ternary value of `signal` on `lane`.
    pub fn trit(&self, signal: usize, lane: usize) -> Trit {
        self.planes[signal].trit(lane)
    }

    /// Reads `signal` on `lane` as a Boolean if definite.
    pub fn definite(&self, signal: usize, lane: usize) -> Option<bool> {
        self.trit(signal, lane).to_bool()
    }

    /// Whether every signal on `lane` is definite.
    pub fn lane_definite(&self, lane: usize) -> bool {
        let m = 1u64 << lane;
        self.planes.iter().all(|p| (p.lo & p.hi & m) == 0)
    }

    /// Extracts `lane` as a binary state if fully definite.
    pub fn lane_bits(&self, lane: usize) -> Option<Bits> {
        if !self.lane_definite(lane) {
            return None;
        }
        Some(Bits::from_fn(self.planes.len(), |i| {
            self.trit(i, lane) == Trit::One
        }))
    }
}

/// Per-lane fault forces, pre-compiled to masks and filed by gate.
///
/// Lane 0 is conventionally the good machine; [`ParallelInjection::new`]
/// takes one [`Injection`] per lane.  Gate `g` owns the mask slots
/// `masks[start[g]..start[g + 1]]`: slot 0 forces its output and slot
/// `1 + p` its pin `p`.  A gate with no force owns no slot, so a gate
/// evaluation reads only its own gate's masks.
#[derive(Clone, Debug, Default)]
pub struct ParallelInjection {
    /// Slot offsets per gate, one past the last forced gate; gates
    /// beyond it own no slot.
    start: Vec<u32>,
    /// `(force-1 mask, force-0 mask)` per slot.
    masks: Vec<(u64, u64)>,
}

impl ParallelInjection {
    /// Compiles per-lane injections (at most [`LANES`]) into masks.
    ///
    /// # Panics
    ///
    /// Panics if more than [`LANES`] injections are given.
    pub fn new(lanes: &[Injection]) -> Self {
        assert!(lanes.len() <= LANES, "at most {LANES} lanes");
        let slot = |site: Site| match site {
            Site::Output => 0,
            Site::Pin(p) => 1 + p,
        };
        // Slots per gate: one past the highest slot any lane forces.
        let mut width: Vec<usize> = Vec::new();
        for f in lanes.iter().flat_map(|inj| &inj.forces) {
            let g = f.gate.index();
            if width.len() <= g {
                width.resize(g + 1, 0);
            }
            width[g] = width[g].max(slot(f.site) + 1);
        }
        let mut start = vec![0u32];
        let mut slots = 0usize;
        for w in &width {
            slots += w;
            start.push(u32::try_from(slots).expect("fewer than 2^32 force slots"));
        }
        let mut masks = vec![(0u64, 0u64); slots];
        for (lane, inj) in lanes.iter().enumerate() {
            let m = 1u64 << lane;
            for f in &inj.forces {
                let e = &mut masks[start[f.gate.index()] as usize + slot(f.site)];
                if f.value {
                    e.0 |= m;
                } else {
                    e.1 |= m;
                }
            }
        }
        ParallelInjection { start, masks }
    }

    /// Gate `g`'s mask slots: empty when no lane forces it.
    #[inline]
    fn gate_masks(&self, g: GateId) -> &[(u64, u64)] {
        let g = g.index();
        match self.start.get(g + 1) {
            Some(&end) => &self.masks[self.start[g] as usize..end as usize],
            None => &[],
        }
    }
}

#[inline]
fn forced(v: Planes, masks: Option<&(u64, u64)>) -> Planes {
    match masks {
        Some(&(m1, m0)) => v.force(m1, true).force(m0, false),
        None => v,
    }
}

fn eval_gate_planes(ckt: &Circuit, g: GateId, st: &PlaneState, inj: &ParallelInjection) -> Planes {
    let gate = ckt.gate(g);
    let masks = inj.gate_masks(g);
    let pin = |p: usize| -> Planes { forced(st.planes[gate.inputs[p].index()], masks.get(1 + p)) };
    let n = gate.inputs.len();
    let f = match &gate.kind {
        GateKind::Input | GateKind::Buf => pin(0),
        GateKind::Not => pin(0).not(),
        GateKind::And => (0..n).fold(Planes::ONE, |a, p| a.and(pin(p))),
        GateKind::Or => (0..n).fold(Planes::ZERO, |a, p| a.or(pin(p))),
        GateKind::Nand => (0..n).fold(Planes::ONE, |a, p| a.and(pin(p))).not(),
        GateKind::Nor => (0..n).fold(Planes::ZERO, |a, p| a.or(pin(p))).not(),
        GateKind::Xor => (0..n).fold(Planes::ZERO, |a, p| a.xor(pin(p))),
        GateKind::Xnor => (0..n).fold(Planes::ZERO, |a, p| a.xor(pin(p))).not(),
        GateKind::C => {
            let all = (0..n).fold(Planes::ONE, |a, p| a.and(pin(p)));
            let any = (0..n).fold(Planes::ZERO, |a, p| a.or(pin(p)));
            let out = st.planes[ckt.gate_output(g).index()];
            all.or(out.and(any))
        }
        GateKind::Sop(s) => s.cubes.iter().fold(Planes::ZERO, |acc, c| {
            acc.or(c.0.iter().fold(Planes::ONE, |a, l| {
                let v = pin(l.pin);
                a.and(if l.positive { v } else { v.not() })
            }))
        }),
        GateKind::Const(v) => Planes::from_bool(*v),
    };
    forced(f, masks.first())
}

fn fixpoint_planes(ckt: &Circuit, st: &mut PlaneState, inj: &ParallelInjection, lub: bool) {
    let bound = 2 * LANES * 2 + 2 * ckt.num_state_bits() + 2;
    for _ in 0..bound {
        let mut changed = false;
        for i in 0..ckt.num_gates() {
            let g = GateId(i as u32);
            let out = ckt.gate_output(g).index();
            let cur = st.planes[out];
            let eval = eval_gate_planes(ckt, g, st, inj);
            let next = if lub { cur.lub(eval) } else { eval };
            if next != cur {
                st.planes[out] = next;
                changed = true;
            }
        }
        if !changed {
            return;
        }
    }
    unreachable!("parallel ternary fixpoint did not converge");
}

/// Applies `pattern` to every lane's environment pins and runs algorithms
/// A and B across all 64 lanes simultaneously.
pub fn parallel_settle(
    ckt: &Circuit,
    from: &PlaneState,
    pattern: impl IntoPattern,
    inj: &ParallelInjection,
) -> PlaneState {
    let pattern = pattern.into_pattern(ckt.num_inputs());
    let mut st = from.clone();
    for i in 0..ckt.num_inputs() {
        st.planes[i] = Planes::from_bool(pattern.get(i));
    }
    fixpoint_planes(ckt, &mut st, inj, true);
    fixpoint_planes(ckt, &mut st, inj, false);
    st
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ternary::{ternary_settle, TernaryOutcome, TritVec};
    use satpg_netlist::{library, Pattern};

    /// Lane-0 of the parallel engine must agree with the scalar engine.
    fn check_lane0_agrees(ckt: &satpg_netlist::Circuit, pattern: u64) {
        let scalar = ternary_settle(ckt, ckt.initial_state(), pattern, &Injection::none());
        let pinj = ParallelInjection::new(&[Injection::none()]);
        let par = parallel_settle(
            ckt,
            &PlaneState::broadcast(ckt.initial_state()),
            pattern,
            &pinj,
        );
        let scalar_tv = match scalar {
            TernaryOutcome::Definite(b) => TritVec::from_bits(&b),
            TernaryOutcome::Uncertain(tv) => tv,
        };
        for i in 0..ckt.num_state_bits() {
            assert_eq!(
                par.trit(i, 0),
                scalar_tv.0[i],
                "signal {i} pattern {pattern:b}"
            );
        }
    }

    #[test]
    fn parallel_matches_scalar_on_library() {
        for ckt in library::all() {
            for pattern in Pattern::all(ckt.num_inputs()) {
                check_lane0_agrees(&ckt, pattern.as_u64().unwrap());
            }
        }
    }

    #[test]
    fn faulty_lane_diverges_from_good_lane() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        let lanes = vec![
            Injection::none(),
            Injection::single(y, Site::Output, false), // y stuck-at-0
        ];
        let pinj = ParallelInjection::new(&lanes);
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b11, &pinj);
        let ysig = c.signal_by_name("y").unwrap().index();
        assert_eq!(st.definite(ysig, 0), Some(true), "good machine raises y");
        assert_eq!(
            st.definite(ysig, 1),
            Some(false),
            "stuck-at-0 lane stays low"
        );
    }

    #[test]
    fn pin_fault_masks_only_its_lane() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        let lanes = vec![Injection::none(), Injection::single(y, Site::Pin(1), true)];
        let pinj = ParallelInjection::new(&lanes);
        // Raise only A: good machine holds y=0, faulty (b pin stuck-1) sees
        // both inputs high and raises y.
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b01, &pinj);
        let ysig = c.signal_by_name("y").unwrap().index();
        assert_eq!(st.definite(ysig, 0), Some(false));
        assert_eq!(st.definite(ysig, 1), Some(true));
    }

    #[test]
    fn race_shows_as_phi_on_every_lane() {
        let c = library::figure1a();
        let pinj = ParallelInjection::new(&vec![Injection::none(); 3]);
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b01, &pinj);
        let ysig = c.signal_by_name("y").unwrap().index();
        for lane in 0..3 {
            assert_eq!(st.trit(ysig, lane), Trit::X);
            assert!(!st.lane_definite(lane));
        }
    }

    #[test]
    fn lane_bits_roundtrip() {
        let c = library::sr_latch();
        let pinj = ParallelInjection::new(&[Injection::none()]);
        let st = parallel_settle(&c, &PlaneState::broadcast(c.initial_state()), 0b01, &pinj);
        let bits = st.lane_bits(0).expect("set is race-free");
        assert!(c.is_stable(&bits));
    }

    #[test]
    fn set_trit_and_read_back() {
        let c = library::c_element();
        let mut st = PlaneState::broadcast(c.initial_state());
        st.set_trit(4, 7, Trit::X);
        assert_eq!(st.trit(4, 7), Trit::X);
        assert_eq!(st.trit(4, 6), Trit::Zero);
        st.set_trit(4, 7, Trit::One);
        assert_eq!(st.trit(4, 7), Trit::One);
    }
}
