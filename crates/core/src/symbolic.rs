//! Symbolic (BDD-based) CSSG construction — the §4.2 computation.
//!
//! State bit `i` of the circuit is encoded with three interleaved BDD
//! variables: `3i` (current frame *x*), `3i+1` (next frame *y*) and
//! `3i+2` (auxiliary frame *z*, used for relation composition and the
//! non-confluence check).  All frame moves are uniform shifts, which are
//! monotone and therefore legal [`satpg_bdd::Manager::remap`]s.
//!
//! The computation follows the paper exactly:
//!
//! * `R_δ(x,y)`: one excited gate switches (stable states self-loop);
//! * `R_I(x,y)`: from a stable state the environment rewrites the input
//!   pins, gates unchanged;
//! * `TCR_k = R_I ∘ R_δ^{k-1}` (early-terminated at a fixpoint);
//! * `CSSG_k(x,y) = TCR_k ∧ stable(y) ∧ ¬∃z [TCR_k(x,z) ∧ z≠y ∧
//!   X_P(z)=X_P(y)]` — the pruning of non-confluent and unstable pairs.

use crate::cssg::Cssg;
use crate::error::CoreError;
use crate::Result;
use satpg_bdd::{Bdd, Manager};
use satpg_netlist::{Bits, Circuit, GateId, GateKind};

/// Frame offsets.
const X: u32 = 0;
const Y: u32 = 1;
const Z: u32 = 2;

/// The symbolic CSSG builder.
///
/// The product flow builds the CSSG explicitly
/// ([`crate::explicit_cssg::build_cssg`]); this builder is the §4.2
/// reference that the equivalence tests hold the explicit one to.
///
/// # Example
///
/// ```
/// use satpg_core::symbolic::SymbolicCssg;
///
/// let ckt = satpg_netlist::library::c_element();
/// let cssg = SymbolicCssg::build(&ckt, None).unwrap();
/// assert!(cssg.num_edges() > 0);
/// ```
pub struct SymbolicCssg {
    mgr: Manager,
    nbits: usize,
    m: usize,
}

/// The relations the construction hands from [`SymbolicCssg::valid_relation`]
/// to the extraction pass.  `valid` is the pruned CSSG relation; `tcr` and
/// `stable_y` let the diagnostics pass classify the pruned pairs.
struct Relations {
    valid: Bdd,
    tcr: Bdd,
    stable_y: Bdd,
    /// The TCR iteration exhausted its `k-1` steps without reaching a
    /// fixpoint: unstable-at-`k` pairs may be truncation artifacts.
    depth_limited: bool,
}

impl SymbolicCssg {
    /// Builds the CSSG of `ckt` symbolically with transition bound `k`
    /// (default `4·gates + 4`).
    ///
    /// # Errors
    ///
    /// [`CoreError::TooManyStateBits`] beyond 32 bits,
    /// [`CoreError::NoStableReset`] for an unstable reset state.
    pub fn build(ckt: &Circuit, k: Option<usize>) -> Result<Cssg> {
        Self::construct(ckt, k, false)
    }

    /// [`SymbolicCssg::build`] plus the pruning/truncation diagnostics
    /// ([`Cssg::pruned_nonconfluent`] and friends).  The classification
    /// costs an explicit-style enumeration pass over the reachable
    /// states, so the plain builder skips it.
    pub fn build_diagnostic(ckt: &Circuit, k: Option<usize>) -> Result<Cssg> {
        Self::construct(ckt, k, true)
    }

    fn construct(ckt: &Circuit, k: Option<usize>, diagnose: bool) -> Result<Cssg> {
        let nbits = ckt.num_state_bits();
        if nbits > 32 {
            return Err(CoreError::TooManyStateBits(nbits));
        }
        if !ckt.is_stable(ckt.initial_state()) {
            return Err(CoreError::NoStableReset);
        }
        let k = k.unwrap_or(4 * ckt.num_gates() + 4);
        let mut s = SymbolicCssg {
            mgr: Manager::new(3 * nbits as u32),
            nbits,
            m: ckt.num_inputs(),
        };
        let rel = s.valid_relation(ckt, k);
        let mut cssg = s.extract(ckt, &rel, k);
        if diagnose {
            s.count_pruned(&mut cssg, &rel);
        }
        Ok(cssg)
    }

    fn var(&mut self, bit: usize, frame: u32) -> Bdd {
        self.mgr.var(3 * bit as u32 + frame)
    }

    /// BDD of gate `g`'s function over the X frame.
    fn gate_fn(&mut self, ckt: &Circuit, g: GateId) -> Bdd {
        let gate = ckt.gate(g);
        let pins: Vec<Bdd> = gate
            .inputs
            .iter()
            .map(|&sig| self.var(sig.index(), X))
            .collect();
        let out = self.var(ckt.gate_output(g).index(), X);
        let m = &mut self.mgr;
        let fold_and = |m: &mut Manager, xs: &[Bdd]| xs.iter().fold(Bdd::TRUE, |a, &b| m.and(a, b));
        let fold_or = |m: &mut Manager, xs: &[Bdd]| xs.iter().fold(Bdd::FALSE, |a, &b| m.or(a, b));
        match &gate.kind {
            GateKind::Input | GateKind::Buf => pins[0],
            GateKind::Not => m.not(pins[0]),
            GateKind::And => fold_and(m, &pins),
            GateKind::Or => fold_or(m, &pins),
            GateKind::Nand => {
                let a = fold_and(m, &pins);
                m.not(a)
            }
            GateKind::Nor => {
                let o = fold_or(m, &pins);
                m.not(o)
            }
            GateKind::Xor => pins.iter().fold(Bdd::FALSE, |a, &b| m.xor(a, b)),
            GateKind::Xnor => {
                let x = pins.iter().fold(Bdd::FALSE, |a, &b| m.xor(a, b));
                m.not(x)
            }
            GateKind::C => {
                let all = fold_and(m, &pins);
                let any = fold_or(m, &pins);
                let hold = m.and(out, any);
                m.or(all, hold)
            }
            GateKind::Sop(sop) => sop.cubes.iter().fold(Bdd::FALSE, |acc, cube| {
                let c = cube.0.iter().fold(Bdd::TRUE, |c, l| {
                    let v = pins[l.pin];
                    let lit = if l.positive { v } else { m.not(v) };
                    m.and(c, lit)
                });
                m.or(acc, c)
            }),
            GateKind::Const(v) => {
                if *v {
                    Bdd::TRUE
                } else {
                    Bdd::FALSE
                }
            }
        }
    }

    /// `iff(bit@a, bit@b)` conjoined over a bit range.
    fn same(&mut self, bits: impl Iterator<Item = usize>, fa: u32, fb: u32) -> Bdd {
        let mut acc = Bdd::TRUE;
        for i in bits {
            let a = self.var(i, fa);
            let b = self.var(i, fb);
            let eq = self.mgr.iff(a, b);
            acc = self.mgr.and(acc, eq);
        }
        acc
    }

    /// Builds the validated CSSG relation over (X, Y).
    fn valid_relation(&mut self, ckt: &Circuit, k: usize) -> Relations {
        let nbits = self.nbits;
        let m_inputs = self.m;
        // Excitation and stability over X.
        let mut excited = Vec::with_capacity(ckt.num_gates());
        let mut stable = Bdd::TRUE;
        for gi in 0..ckt.num_gates() {
            let g = GateId(gi as u32);
            let f = self.gate_fn(ckt, g);
            let out = self.var(ckt.gate_output(g).index(), X);
            let e = self.mgr.xor(f, out);
            excited.push(e);
            let ne = self.mgr.not(e);
            stable = self.mgr.and(stable, ne);
        }

        // R_δ(x,y): stable self-loop or one excited gate switches.
        let same_all = self.same(0..nbits, X, Y);
        let mut r_delta = self.mgr.and(stable, same_all);
        for (gi, &exc) in excited.iter().enumerate() {
            let out_bit = ckt.gate_output(GateId(gi as u32)).index();
            let same_rest = self.same((0..nbits).filter(|&i| i != out_bit), X, Y);
            let xo = self.var(out_bit, X);
            let yo = self.var(out_bit, Y);
            let flip = self.mgr.xor(xo, yo);
            let t = self.mgr.and(exc, flip);
            let t = self.mgr.and(t, same_rest);
            r_delta = self.mgr.or(r_delta, t);
        }

        // R_I(x,y): stable, gates unchanged, inputs changed.
        let same_gates = self.same(m_inputs..nbits, X, Y);
        let same_env = self.same(0..m_inputs, X, Y);
        let diff_env = self.mgr.not(same_env);
        let r_i = self.mgr.and(stable, same_gates);
        let r_i = self.mgr.and(r_i, diff_env);

        // TCR_k = R_I ∘ R_δ^{k-1} with early fixpoint exit.
        let r_delta_yz = self.mgr.remap(r_delta, &|v| v + 1);
        let yvars: Vec<u32> = (0..nbits as u32).map(|i| 3 * i + Y).collect();
        let mut t = r_i;
        let mut fixpoint = false;
        for _ in 1..k {
            let t_xz = self.mgr.and_exists(t, r_delta_yz, &yvars);
            let t_next = self
                .mgr
                .remap(t_xz, &|v| if v % 3 == Z { v - 1 } else { v });
            if t_next == t {
                fixpoint = true;
                break;
            }
            t = t_next;
        }

        // Pruning: keep (x,y) with y stable and no sibling z ≠ y sharing
        // y's input pattern.
        let stable_y = self.mgr.remap(stable, &|v| v + 1);
        let t_xz = self.mgr.remap(t, &|v| if v % 3 == Y { v + 1 } else { v });
        let same_env_yz = self.same(0..m_inputs, Y, Z);
        let same_all_yz = self.same(0..nbits, Y, Z);
        let diff_yz = self.mgr.not(same_all_yz);
        let sibling = self.mgr.and(same_env_yz, diff_yz);
        let zvars: Vec<u32> = (0..nbits as u32).map(|i| 3 * i + Z).collect();
        let bad = self.mgr.and_exists(t_xz, sibling, &zvars);
        let not_bad = self.mgr.not(bad);
        let ok = self.mgr.and(t, stable_y);
        let valid = self.mgr.and(ok, not_bad);
        Relations {
            valid,
            tcr: t,
            stable_y,
            depth_limited: !fixpoint,
        }
    }

    /// Enumerates the relation into an explicit [`Cssg`], keeping only the
    /// part reachable from the reset state, then classifies the pruned
    /// (state, pattern) pairs of every reachable state so the symbolic
    /// construction reports the same pruning/truncation diagnostics as
    /// the explicit one.
    fn extract(&mut self, ckt: &Circuit, rel: &Relations, k: usize) -> Cssg {
        let nbits = self.nbits;
        // All edges (x→y) as packed pairs.
        let vars: Vec<u32> = (0..nbits as u32)
            .flat_map(|i| [3 * i + X, 3 * i + Y])
            .collect();
        let models = self.mgr.models_packed(rel.valid, &vars);
        use std::collections::HashMap;
        let mut edges: HashMap<Bits, Vec<Bits>> = HashMap::new();
        for w in models {
            let mut from = Bits::zeros(nbits);
            let mut to = Bits::zeros(nbits);
            for i in 0..nbits {
                from.set(i, w >> (2 * i) & 1 == 1);
                to.set(i, w >> (2 * i + 1) & 1 == 1);
            }
            edges.entry(from).or_default().push(to);
        }
        // BFS from the reset state.
        let mut cssg = Cssg::new(ckt.num_inputs(), k);
        let root = cssg.intern(ckt.initial_state().clone());
        let mut work = vec![root];
        while let Some(si) = work.pop() {
            let from = cssg.states()[si].clone();
            let Some(tos) = edges.get(&from) else {
                continue;
            };
            for to in tos.clone() {
                let pattern = ckt.input_pattern(&to);
                let known = cssg.state_index(&to).is_some();
                let ni = cssg.intern(to);
                cssg.add_edge(si, pattern, ni);
                if !known {
                    work.push(ni);
                }
            }
        }
        cssg.sort_edges();
        cssg
    }

    /// Per reachable state: classify every environment pattern the TCR
    /// reaches but the validated relation dropped.  A pattern with an
    /// unstable-at-`k` endpoint counts as pruned-unstable (and as
    /// truncated when the TCR ran out of depth before its fixpoint — the
    /// drop may then be an artifact, not a proof); the remaining dropped
    /// patterns had several stable endpoints, i.e. a critical race.
    fn count_pruned(&mut self, cssg: &mut Cssg, rel: &Relations) {
        let nbits = self.nbits;
        let env_y: Vec<u32> = (0..self.m as u32).map(|i| 3 * i + Y).collect();
        let gate_y: Vec<u32> = (self.m..nbits).map(|i| 3 * i as u32 + Y).collect();
        let not_stable_y = self.mgr.not(rel.stable_y);
        for si in 0..cssg.num_states() {
            // TCR restricted to this state, then its endpoints' patterns.
            let state = &cssg.states()[si];
            let mut t_x = rel.tcr;
            for bit in 0..nbits {
                t_x = self.mgr.restrict(t_x, 3 * bit as u32 + X, state.get(bit));
            }
            let all_pats = self.mgr.exists(t_x, &gate_y);
            let unstable_part = self.mgr.and(t_x, not_stable_y);
            let unstable_pats = self.mgr.exists(unstable_part, &gate_y);
            let reached = self.mgr.models_packed(all_pats, &env_y).len();
            let unstable = self.mgr.models_packed(unstable_pats, &env_y).len();
            let valid = cssg.edges(si).len();
            cssg.note_unstable_n(unstable);
            cssg.note_nonconfluent_n(reached.saturating_sub(unstable + valid));
            if rel.depth_limited {
                cssg.note_truncated_n(unstable);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit_cssg::{build_cssg, CssgConfig};
    use satpg_netlist::{library, Pattern};

    /// The symbolic and explicit constructions must agree exactly when
    /// both use the exact k-bounded semantics.
    fn assert_same_cssg(ckt: &Circuit) {
        let cfg = CssgConfig {
            ternary_fast_path: false,
            ..CssgConfig::default()
        };
        let explicit = build_cssg(ckt, &cfg).unwrap();
        let symbolic = SymbolicCssg::build_diagnostic(ckt, None).unwrap();
        assert_eq!(
            explicit.num_states(),
            symbolic.num_states(),
            "{}: state counts",
            ckt.name()
        );
        assert_eq!(
            explicit.num_edges(),
            symbolic.num_edges(),
            "{}: edge counts",
            ckt.name()
        );
        // Edge-by-edge comparison through the state bit-vectors.
        for si in 0..explicit.num_states() {
            let state = &explicit.states()[si];
            let sj = symbolic
                .state_index(state)
                .unwrap_or_else(|| panic!("{}: state {state} missing symbolically", ckt.name()));
            let ee: Vec<(Pattern, Bits)> = explicit
                .edges(si)
                .iter()
                .map(|(p, t)| (p.clone(), explicit.states()[*t].clone()))
                .collect();
            let se: Vec<(Pattern, Bits)> = symbolic
                .edges(sj)
                .iter()
                .map(|(p, t)| (p.clone(), symbolic.states()[*t].clone()))
                .collect();
            assert_eq!(ee, se, "{}: edges of {state}", ckt.name());
        }
        // The pruning diagnostics must agree too: both constructions
        // classify every (reachable state, pattern) drop the same way.
        assert_eq!(
            explicit.pruned_nonconfluent(),
            symbolic.pruned_nonconfluent(),
            "{}: non-confluent counts",
            ckt.name()
        );
        assert_eq!(
            explicit.pruned_unstable(),
            symbolic.pruned_unstable(),
            "{}: unstable counts",
            ckt.name()
        );
        assert_eq!(explicit.pruned_truncated(), 0, "{}", ckt.name());
        // The symbolic truncation diagnostic is conservative: a circuit
        // whose TCR cycles without a fixpoint (a genuine oscillator)
        // flags its unstable pairs as possibly-truncated.
        assert!(
            symbolic.pruned_truncated() <= symbolic.pruned_unstable(),
            "{}",
            ckt.name()
        );
    }

    #[test]
    fn matches_explicit_on_c_element() {
        assert_same_cssg(&library::c_element());
    }

    #[test]
    fn matches_explicit_on_figure1a() {
        assert_same_cssg(&library::figure1a());
    }

    #[test]
    fn matches_explicit_on_figure1b() {
        assert_same_cssg(&library::figure1b());
    }

    #[test]
    fn matches_explicit_on_sr_latch() {
        assert_same_cssg(&library::sr_latch());
    }

    #[test]
    fn matches_explicit_on_muller_pipeline() {
        assert_same_cssg(&library::muller_pipeline2());
    }

    #[test]
    fn plain_build_skips_the_diagnostics_pass() {
        let ckt = library::c_element();
        let plain = SymbolicCssg::build(&ckt, None).unwrap();
        assert_eq!(
            plain.pruned_nonconfluent() + plain.pruned_unstable() + plain.pruned_truncated(),
            0,
            "plain builds skip the enumeration pass"
        );
        let diag = SymbolicCssg::build_diagnostic(&ckt, None).unwrap();
        assert!(diag.pruned_nonconfluent() > 0, "diagnostics classify drops");
        assert_eq!(plain.num_states(), diag.num_states());
        assert_eq!(plain.num_edges(), diag.num_edges());
    }

    #[test]
    fn too_wide_circuit_rejected() {
        use satpg_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("wide");
        let mut prev = None;
        for i in 0..20 {
            let a = b.input(format!("I{i}"), format!("i{i}"));
            prev = Some(b.gate(format!("g{i}"), GateKind::Buf, vec![a]));
        }
        b.output(prev.unwrap());
        let ckt = b.finish().unwrap();
        assert!(ckt.num_state_bits() > 32);
        assert!(matches!(
            SymbolicCssg::build(&ckt, None),
            Err(CoreError::TooManyStateBits(_))
        ));
    }
}
