//! The unified settling engine: one frontier walker under every
//! interleaving analysis.
//!
//! Historically the k-bounded settling semantics was implemented three
//! times (`settle_explicit`, `settle_set`, and ad-hoc closures at the
//! call sites), each with its own cap accounting and truncation
//! behavior.  [`Settler`] consolidates them behind one engine that owns:
//!
//! * **frontier expansion with hashed dedup** — the per-depth state set
//!   of every interleaving, stable states self-looping;
//! * **partial-order reduction** (POR) — a persistent-singleton rule:
//!   when an excited gate provably commutes with everything that could
//!   fire before it, only *its* interleaving is explored, collapsing the
//!   binomial diamond frontier of a wave of independent switchings to a
//!   single path (see `crates/sim/DESIGN.md` for the soundness
//!   argument);
//! * **adaptive caps** ([`CapPolicy`]) — the tracked-set bound derived
//!   from circuit size instead of a fixed constant, with a distinct
//!   [`Settle::Truncated`] verdict (and [`SetSettle::Truncated`]) in
//!   place of the old ambiguous `None`.
//!
//! The legacy [`crate::settle_explicit`] / [`crate::settle_set`] entry
//! points remain as thin adapters over this engine (POR off, fixed cap),
//! preserving their exact historical semantics.

use crate::inject::{is_excited_inj, Injection};
use crate::ternary::{eval_gate_ternary, ternary_settle, TernaryOutcome, Trit, TritVec};
use satpg_netlist::{Bits, Circuit, GateId, GateKind, IntoPattern};
use std::collections::BTreeSet;

/// How the cap on the tracked interleaving set is chosen.
///
/// The old `max_states`/`max_settle_states`/`max_set` knobs were raw
/// constants tuned to the paper's circuits; the muller ≥ 19 coverage
/// study (PR 4) showed a fixed 2^15 truncates the token-insertion
/// settles of larger generated families.  `Scaled` grows the cap with
/// circuit size so the budget follows the worst-case interleaving width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum CapPolicy {
    /// A fixed cap, the legacy behavior.
    Fixed(usize),
    /// `min(ceil, floor << (gates / gates_per_doubling))`: the cap
    /// doubles every `gates_per_doubling` gates, floored and ceiled.
    Scaled {
        /// The cap for small circuits (`gates < gates_per_doubling`).
        floor: usize,
        /// Gates per doubling of the cap.
        gates_per_doubling: usize,
        /// Hard upper bound (memory guard).
        ceil: usize,
    },
    /// No cap at all.  The walk may consume unbounded memory; reserve
    /// for property tests and offline studies.
    Unbounded,
}

impl CapPolicy {
    /// The default scaled policy for settling analyses: 2^15 for
    /// paper-sized circuits (the historical constant), doubling every 8
    /// gates, capped at 2^22.
    pub const fn default_scaled() -> CapPolicy {
        CapPolicy::Scaled {
            floor: 1 << 15,
            gates_per_doubling: 8,
            ceil: 1 << 22,
        }
    }

    /// The concrete cap for a circuit with `num_gates` gates.
    pub fn resolve(&self, num_gates: usize) -> usize {
        match *self {
            CapPolicy::Fixed(n) => n,
            CapPolicy::Unbounded => usize::MAX,
            CapPolicy::Scaled {
                floor,
                gates_per_doubling,
                ceil,
            } => {
                let doublings = (num_gates / gates_per_doubling.max(1)) as u32;
                floor
                    .checked_shl(doublings)
                    .unwrap_or(usize::MAX)
                    .min(ceil)
                    .max(floor)
            }
        }
    }
}

/// Outcome of a k-bounded settling analysis of a single start state.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Settle {
    /// Exactly one stable state is reachable at depth `k`: the vector is
    /// valid and this is where the circuit settles.
    Confluent(Bits),
    /// All interleavings have stabilized by depth `k`, but to different
    /// states (a critical race / non-confluence).
    NonConfluent(Vec<Bits>),
    /// Some interleaving is still switching at depth `k`: oscillation or
    /// a settling time longer than the test cycle.  The payload is the
    /// depth-`k` frontier; with POR on it is a sound subset of the naive
    /// frontier (the verdict itself is exact either way).
    Unstable(Vec<Bits>),
    /// The explored state set exceeded the cap: the analysis was cut by
    /// a *resource* limit, not a semantic verdict.  (Previously named
    /// `Overflow`.)
    Truncated,
}

impl Settle {
    /// The settled state for valid vectors.
    pub fn confluent(&self) -> Option<&Bits> {
        match self {
            Settle::Confluent(b) => Some(b),
            _ => None,
        }
    }

    /// Whether the vector may be used for testing.
    pub fn is_valid(&self) -> bool {
        matches!(self, Settle::Confluent(_))
    }
}

/// Outcome of a set-tracking settle ([`Settler::settle_set`]): either
/// the set of states the machine may occupy when sampled, or a distinct
/// truncation verdict (the old API folded truncation into `None`).
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum SetSettle {
    /// The tracked state set (closed over oscillation phases when the
    /// machine does not settle within `k`).
    Set(BTreeSet<Bits>),
    /// The tracked set exceeded the cap before a verdict.
    Truncated,
}

impl SetSettle {
    /// The set, or `None` on truncation (the legacy `Option` shape).
    pub fn ok(self) -> Option<BTreeSet<Bits>> {
        match self {
            SetSettle::Set(s) => Some(s),
            SetSettle::Truncated => None,
        }
    }
}

/// Configuration of a [`Settler`].
#[derive(Clone, Copy, Debug)]
pub struct SettlerConfig {
    /// Maximum number of transitions `k` (the test-cycle bound of §4.1).
    pub k: usize,
    /// Cap policy for every tracked state set.
    pub cap: CapPolicy,
    /// Partial-order reduction on commuting gate switchings.
    pub por: bool,
    /// Skip the exhaustive exploration when scalar ternary simulation
    /// already proves confluence.
    pub ternary_fast_path: bool,
}

impl SettlerConfig {
    /// Defaults for a circuit: `k = 4·gates + 4`, the scaled cap policy,
    /// POR on, fast path on.
    pub fn for_circuit(ckt: &Circuit) -> Self {
        SettlerConfig {
            k: 4 * ckt.num_gates() + 4,
            cap: CapPolicy::default_scaled(),
            por: true,
            ternary_fast_path: true,
        }
    }
}

/// Counters of one [`Settler`]'s work, deterministic for a fixed
/// sequence of calls (POR decisions are pure functions of the state).
#[derive(Clone, Copy, Default, PartialEq, Eq, Debug)]
pub struct SettleStats {
    /// Settling analyses run (fast-path hits included).
    pub settles: u64,
    /// State expansions across all analyses (one per frontier member per
    /// depth).
    pub states_explored: u64,
    /// Expansions where a persistent singleton reduced the branching.
    pub por_states: u64,
    /// Successor branches the reduction skipped (states the naive walk
    /// would have enqueued from reduced expansions).
    pub por_pruned: u64,
    /// Analyses abandoned at the cap.
    pub truncated: u64,
    /// Set-walks re-run naively because the reduced walk did not settle
    /// within `k` (the oscillation-closure semantics needs the full
    /// frontier).
    pub fallbacks: u64,
}

impl SettleStats {
    /// Adds another stats block into this one.
    pub fn absorb(&mut self, o: &SettleStats) {
        self.settles += o.settles;
        self.states_explored += o.states_explored;
        self.por_states += o.por_states;
        self.por_pruned += o.por_pruned;
        self.truncated += o.truncated;
        self.fallbacks += o.fallbacks;
    }

    /// Adds these counters into the process-wide metrics registry
    /// (`settler.*`).  Called at integration boundaries — a CSSG build
    /// completing, an engine worker retiring — never per settle, so the
    /// settling hot path carries no registry traffic.
    pub fn flush_metrics(&self) {
        let m = satpg_trace::metrics();
        m.counter("settler.settles").add(self.settles);
        m.counter("settler.states_explored")
            .add(self.states_explored);
        m.counter("settler.por_states").add(self.por_states);
        m.counter("settler.por_pruned").add(self.por_pruned);
        m.counter("settler.truncated").add(self.truncated);
        m.counter("settler.fallbacks").add(self.fallbacks);
    }
}

/// Result of one frontier step.
enum Step {
    /// The next frontier and whether any expanded state was unstable.
    Next(BTreeSet<Bits>, bool),
    /// The frontier blew the cap.
    Truncated,
}

/// Result of the bounded (depth-`k`) phase.
enum Bounded {
    /// Every interleaving stabilized: the frontier is the settled set.
    Settled(BTreeSet<Bits>),
    /// Depth `k` was reached with switching still in flight.
    Unsettled(BTreeSet<Bits>),
    /// A tracked set blew the cap.
    Truncated,
}

/// The unified settling engine.  One instance per (circuit, injection,
/// config) triple; reuse it across calls to amortize the dependency
/// precomputation and to accumulate [`SettleStats`].
pub struct Settler<'c> {
    ckt: &'c Circuit,
    inj: Injection,
    k: usize,
    cap: usize,
    por: bool,
    fast_path: bool,
    /// Per gate: the signals its evaluation reads under the injection
    /// (forced pins removed; the gate's own output added for state-holding
    /// kinds).  The commutation support of the POR rule.
    deps: Vec<Vec<usize>>,
    /// Per signal: the gates whose evaluation reads it (inverse of
    /// `deps`).
    readers: Vec<Vec<GateId>>,
    stats: SettleStats,
}

impl<'c> Settler<'c> {
    /// Builds a settler for `ckt` under `inj`.
    pub fn new(ckt: &'c Circuit, inj: &Injection, cfg: &SettlerConfig) -> Self {
        let ng = ckt.num_gates();
        // The dependency tables only feed the ample-singleton check, so
        // naive-mode settlers (including every legacy adapter call)
        // skip building them.
        let (deps, readers) = if cfg.por {
            let mut deps: Vec<Vec<usize>> = Vec::with_capacity(ng);
            for i in 0..ng {
                let g = GateId(i as u32);
                deps.push(Self::deps_of(ckt, g, inj));
            }
            let mut readers: Vec<Vec<GateId>> = vec![Vec::new(); ckt.num_state_bits()];
            for (i, d) in deps.iter().enumerate() {
                for &s in d {
                    readers[s].push(GateId(i as u32));
                }
            }
            (deps, readers)
        } else {
            (Vec::new(), Vec::new())
        };
        Settler {
            ckt,
            inj: inj.clone(),
            k: cfg.k,
            cap: cfg.cap.resolve(ng),
            por: cfg.por,
            fast_path: cfg.ternary_fast_path,
            deps,
            readers,
            stats: SettleStats::default(),
        }
    }

    /// The signals gate `g`'s evaluation depends on, under the injection:
    /// unforced input pins, plus the gate's own output when the function
    /// reads it (C-elements hold state).  A forced output empties the
    /// set (the evaluation is constant).
    fn deps_of(ckt: &Circuit, g: GateId, inj: &Injection) -> Vec<usize> {
        if inj.output_force(g).is_some() {
            return Vec::new();
        }
        let gate = ckt.gate(g);
        let mut d: Vec<usize> = gate
            .inputs
            .iter()
            .enumerate()
            .filter(|(p, _)| inj.pin_force(g, *p).is_none())
            .map(|(_, s)| s.index())
            .collect();
        if matches!(gate.kind, GateKind::C) {
            d.push(ckt.gate_output(g).index());
        }
        d.sort_unstable();
        d.dedup();
        d
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &SettleStats {
        &self.stats
    }

    /// Takes the counters, resetting them.
    pub fn take_stats(&mut self) -> SettleStats {
        std::mem::take(&mut self.stats)
    }

    /// The resolved cap this settler runs under.
    pub fn cap(&self) -> usize {
        self.cap
    }

    /// Runs the k-bounded settling analysis for input `pattern` applied
    /// to the stable state `from` (which must be stable under the
    /// injection; the input application counts as the first of the `k`
    /// steps, as in the paper's `TCR_k` definition).
    ///
    /// With POR on, the verdict kind and the `Confluent` /
    /// `NonConfluent` payloads are exactly those of the naive walk
    /// whenever the naive walk completes; only the `Unstable` payload
    /// may be a (sound) subset.
    pub fn settle(&mut self, from: &Bits, pattern: impl IntoPattern) -> Settle {
        let pattern = pattern.into_pattern(self.ckt.num_inputs());
        self.stats.settles += 1;
        if self.fast_path {
            if let TernaryOutcome::Definite(b) = ternary_settle(self.ckt, from, &pattern, &self.inj)
            {
                return Settle::Confluent(b);
            }
        }
        let start = self.ckt.with_inputs(from, &pattern);
        let por = self.por;
        // Only the exhaustive analyses get spans: fast-path hits are
        // cheap ternary sims that would drown a trace in noise.
        let _span = satpg_trace::span!("settle", k = self.k, por = self.por as u8);
        match self.bounded_walk(BTreeSet::from([start]), por) {
            Bounded::Truncated => {
                self.stats.truncated += 1;
                Settle::Truncated
            }
            Bounded::Settled(frontier) | Bounded::Unsettled(frontier) => {
                let (stable, unstable): (Vec<Bits>, Vec<Bits>) =
                    frontier.into_iter().partition(|s| {
                        (0..self.ckt.num_gates())
                            .all(|i| !is_excited_inj(self.ckt, GateId(i as u32), s, &self.inj))
                    });
                if !unstable.is_empty() {
                    let mut all = stable;
                    all.extend(unstable);
                    return Settle::Unstable(all);
                }
                match stable.len() {
                    1 => Settle::Confluent(stable.into_iter().next().expect("len checked")),
                    _ => Settle::NonConfluent(stable),
                }
            }
        }
    }

    /// The set of states the (possibly faulty) circuit may occupy when
    /// the tester samples, given it may occupy any state of `from` when
    /// `pattern` is applied: the k-bounded frontier of every
    /// interleaving, closed under further transitions while any member
    /// is still unstable.
    ///
    /// POR applies only while the walk can still settle within `k`
    /// (where the reduced settled set equals the naive one); a reduced
    /// walk that reaches depth `k` unsettled falls back to the naive
    /// walk, because the oscillation closure must see *every* transient
    /// the machine could be sampled in.
    pub fn settle_set(&mut self, from: &BTreeSet<Bits>, pattern: impl IntoPattern) -> SetSettle {
        let pattern = pattern.into_pattern(self.ckt.num_inputs());
        self.stats.settles += 1;
        // Fast path: a singleton, ternary-definite settle is exact (also
        // under injection: definite means every interleaving agrees).
        if self.fast_path && from.len() == 1 {
            let only = from.iter().next().expect("len checked");
            if let TernaryOutcome::Definite(b) = ternary_settle(self.ckt, only, &pattern, &self.inj)
            {
                return SetSettle::Set(BTreeSet::from([b]));
            }
        }
        let start: BTreeSet<Bits> = from
            .iter()
            .map(|s| self.ckt.with_inputs(s, &pattern))
            .collect();
        if self.por {
            match self.bounded_walk(start.clone(), true) {
                Bounded::Settled(set) => return SetSettle::Set(set),
                // The reduced frontier is a subset of the naive one at
                // every depth, so a reduced truncation implies a naive
                // truncation: no fallback can rescue it.
                Bounded::Truncated => {
                    self.stats.truncated += 1;
                    return SetSettle::Truncated;
                }
                Bounded::Unsettled(_) => self.stats.fallbacks += 1,
            }
        }
        match self.bounded_walk(start, false) {
            Bounded::Settled(set) => SetSettle::Set(set),
            Bounded::Truncated => {
                self.stats.truncated += 1;
                SetSettle::Truncated
            }
            Bounded::Unsettled(frontier) => self.closure(frontier),
        }
    }

    /// The depth-`k` frontier walk shared by both analyses.
    fn bounded_walk(&mut self, start: BTreeSet<Bits>, por: bool) -> Bounded {
        let mut frontier = start;
        // Input application was step 1; k-1 gate steps remain.
        for _ in 1..self.k.max(1) {
            match self.step(&frontier, por) {
                Step::Truncated => return Bounded::Truncated,
                Step::Next(next, any_unstable) => {
                    frontier = next;
                    if !any_unstable {
                        return Bounded::Settled(frontier);
                    }
                }
            }
        }
        Bounded::Unsettled(frontier)
    }

    /// Oscillation closure (naive only): union further frontiers until
    /// nothing new appears — once a step adds no states, no later step
    /// can (the step image of a subset of the union stays inside it).
    fn closure(&mut self, mut frontier: BTreeSet<Bits>) -> SetSettle {
        let mut union = frontier.clone();
        for _ in 0..4 * self.k + 4 {
            let (next, any_unstable) = match self.step(&frontier, false) {
                Step::Truncated => {
                    self.stats.truncated += 1;
                    return SetSettle::Truncated;
                }
                Step::Next(n, u) => (n, u),
            };
            let before = union.len();
            for s in next.iter() {
                if !self.capped_insert(&mut union, s.clone()) {
                    self.stats.truncated += 1;
                    return SetSettle::Truncated;
                }
            }
            frontier = next;
            if !any_unstable || union.len() == before {
                return SetSettle::Set(union);
            }
        }
        // Still growing: the closure is incomplete, so claiming any
        // verdict from it would be unsound.
        self.stats.truncated += 1;
        SetSettle::Truncated
    }

    /// The single checked-insert path every tracked set goes through:
    /// a set may hold exactly `cap` states; the insert that would make
    /// it `cap + 1` reports truncation.  Returns `false` on truncation.
    fn capped_insert(&self, set: &mut BTreeSet<Bits>, s: Bits) -> bool {
        set.insert(s);
        set.len() <= self.cap
    }

    /// One synchronous frontier step: every stable state self-loops,
    /// every unstable state is replaced by its one-step successors
    /// (POR-reduced to the ample gate's successor where the rule fires).
    fn step(&mut self, frontier: &BTreeSet<Bits>, por: bool) -> Step {
        let mut next = BTreeSet::new();
        let mut any_unstable = false;
        for s in frontier {
            let (succs, unstable, stats) = self.expand(s, por);
            self.stats.states_explored += 1;
            self.stats.por_states += stats.0;
            self.stats.por_pruned += stats.1;
            any_unstable |= unstable;
            for t in succs {
                if !self.capped_insert(&mut next, t) {
                    return Step::Truncated;
                }
            }
        }
        Step::Next(next, any_unstable)
    }

    /// Expands one state: its successor list, whether it was unstable,
    /// and `(por_states, por_pruned)` deltas.
    fn expand(&self, s: &Bits, por: bool) -> (Vec<Bits>, bool, (u64, u64)) {
        let excited: Vec<GateId> = (0..self.ckt.num_gates())
            .map(|i| GateId(i as u32))
            .filter(|&g| is_excited_inj(self.ckt, g, s, &self.inj))
            .collect();
        if excited.is_empty() {
            return (vec![s.clone()], false, (0, 0));
        }
        let fire = |g: GateId| -> Bits {
            let mut t = s.clone();
            t.toggle(self.ckt.gate_output(g).index());
            t
        };
        if por && excited.len() >= 2 {
            if let Some(g) = self.ample(s, &excited) {
                return (vec![fire(g)], true, (1, (excited.len() - 1) as u64));
            }
        }
        (excited.into_iter().map(fire).collect(), true, (0, 0))
    }

    /// Persistent-singleton selection: the first excited gate (in id
    /// order, for determinism) whose firing provably commutes with every
    /// transition that could precede it.
    ///
    /// Candidate `g` qualifies when a ternary reachability fixpoint from
    /// `s` **with `g` frozen** (an over-approximation of every run that
    /// does not fire `g`) shows that
    ///
    /// 1. no signal in `g`'s support can change — `g` stays excited with
    ///    the same target value until it fires, and everything fireable
    ///    before it leaves `g` alone; and
    /// 2. no gate reading `g`'s output can fire — firing `g` first does
    ///    not change what any of those runs do.
    ///
    /// Together these make `{g}` a persistent set in `s`: every maximal
    /// interleaving permutes to one firing `g` first, preserving run
    /// lengths and the reachable settled states exactly
    /// (`crates/sim/DESIGN.md`).
    fn ample(&self, s: &Bits, excited: &[GateId]) -> Option<GateId> {
        'candidate: for &g in excited {
            let mut tv = TritVec::from_bits(s);
            self.frozen_reach(&mut tv, g);
            // (1) The support of g stays definite (lub only moves values
            // to X, so definite means unchanged in every avoided run).
            for &d in &self.deps[g.index()] {
                if tv.0[d] == Trit::X {
                    continue 'candidate;
                }
            }
            // (2) Nothing that reads out(g) can fire before g does.
            for &h in &self.readers[self.ckt.gate_output(g).index()] {
                if h != g && tv.0[self.ckt.gate_output(h).index()] == Trit::X {
                    continue 'candidate;
                }
            }
            return Some(g);
        }
        None
    }

    /// Algorithm A (monotone lub fixpoint) with `frozen`'s output pinned
    /// at its current value: the X positions over-approximate every
    /// signal that can differ from `s` in any run that never fires
    /// `frozen`.
    fn frozen_reach(&self, state: &mut TritVec, frozen: GateId) {
        let bound = 2 * self.ckt.num_state_bits() + 2;
        for _ in 0..bound {
            let mut changed = false;
            for i in 0..self.ckt.num_gates() {
                let g = GateId(i as u32);
                if g == frozen {
                    continue;
                }
                let out_idx = self.ckt.gate_output(g).index();
                let cur = state.0[out_idx];
                let next = cur.lub(eval_gate_ternary(self.ckt, g, state, &self.inj));
                if next != cur {
                    state.0[out_idx] = next;
                    changed = true;
                }
            }
            if !changed {
                return;
            }
        }
        unreachable!("frozen ternary fixpoint did not converge");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::Site;
    use satpg_netlist::{library, Pattern};

    fn naive_cfg(ckt: &Circuit) -> SettlerConfig {
        SettlerConfig {
            por: false,
            ternary_fast_path: false,
            ..SettlerConfig::for_circuit(ckt)
        }
    }

    fn por_cfg(ckt: &Circuit) -> SettlerConfig {
        SettlerConfig {
            por: true,
            ternary_fast_path: false,
            ..SettlerConfig::for_circuit(ckt)
        }
    }

    #[test]
    fn cap_policy_resolution() {
        assert_eq!(CapPolicy::Fixed(7).resolve(1000), 7);
        assert_eq!(CapPolicy::Unbounded.resolve(3), usize::MAX);
        let s = CapPolicy::default_scaled();
        // Paper-sized circuits see the historical 2^15.
        assert_eq!(s.resolve(7), 1 << 15);
        // muller-19 has 38 gates: 4 doublings.
        assert_eq!(s.resolve(38), 1 << 19);
        // The ceiling holds for huge circuits.
        assert_eq!(s.resolve(10_000), 1 << 22);
        // Degenerate divisor clamps to one gate per doubling.
        assert_eq!(
            CapPolicy::Scaled {
                floor: 8,
                gates_per_doubling: 0,
                ceil: 1 << 20
            }
            .resolve(4),
            8 << 4
        );
    }

    /// The consolidated checked-insert path: a set may hold exactly
    /// `cap` states, and the insert making it `cap + 1` truncates —
    /// pinning the boundary the old duplicated checks disagreed about.
    #[test]
    fn exact_cap_boundary() {
        let c = library::figure1a();
        // figure1a's racy pattern peaks at a 4-state frontier: a cap of
        // exactly 4 completes, 3 truncates.
        let mk = |cap: usize| SettlerConfig {
            cap: CapPolicy::Fixed(cap),
            ..naive_cfg(&c)
        };
        let mut tight = Settler::new(&c, &Injection::none(), &mk(3));
        assert_eq!(
            tight.settle(c.initial_state(), 0b01),
            Settle::Truncated,
            "cap 3 must truncate the race"
        );
        assert_eq!(tight.stats().truncated, 1);
        let mut exact = Settler::new(&c, &Injection::none(), &mk(4));
        assert!(
            matches!(
                exact.settle(c.initial_state(), 0b01),
                Settle::NonConfluent(_)
            ),
            "a frontier of exactly cap states is not a truncation"
        );
        assert_eq!(exact.stats().truncated, 0);
        // The same boundary governs the set walk.
        let from = BTreeSet::from([c.initial_state().clone()]);
        let mut tight = Settler::new(&c, &Injection::none(), &mk(3));
        assert_eq!(tight.settle_set(&from, 0b01), SetSettle::Truncated);
        let mut exact = Settler::new(&c, &Injection::none(), &mk(4));
        assert!(matches!(exact.settle_set(&from, 0b01), SetSettle::Set(_)));
    }

    /// POR and the naive walk agree on every verdict over the whole
    /// bundled library: same kind, identical `Confluent` and
    /// `NonConfluent` payloads, and `Unstable` exactly where the naive
    /// walk is unstable.
    #[test]
    fn por_matches_naive_on_library() {
        for ckt in library::all() {
            let inj = Injection::none();
            let mut naive = Settler::new(&ckt, &inj, &naive_cfg(&ckt));
            let mut por = Settler::new(&ckt, &inj, &por_cfg(&ckt));
            for pattern in Pattern::all(ckt.num_inputs()) {
                let n = naive.settle(ckt.initial_state(), &pattern);
                let p = por.settle(ckt.initial_state(), &pattern);
                match (&n, &p) {
                    (Settle::Confluent(a), Settle::Confluent(b)) => assert_eq!(a, b),
                    (Settle::NonConfluent(a), Settle::NonConfluent(b)) => assert_eq!(a, b),
                    (Settle::Unstable(_), Settle::Unstable(_)) => {}
                    (Settle::Truncated, Settle::Truncated) => {}
                    other => panic!("{} pattern {pattern}: {other:?}", ckt.name()),
                }
            }
        }
    }

    /// Same agreement for the set walk, chaining each settled set into
    /// the next pattern so multi-state from-sets are exercised.
    #[test]
    fn por_set_walk_matches_naive_on_library() {
        for ckt in library::all() {
            let inj = Injection::none();
            let mut naive = Settler::new(&ckt, &inj, &naive_cfg(&ckt));
            let mut por = Settler::new(&ckt, &inj, &por_cfg(&ckt));
            let mut from = BTreeSet::from([ckt.initial_state().clone()]);
            for pattern in Pattern::all(ckt.num_inputs()) {
                let n = naive.settle_set(&from, &pattern).ok();
                let p = por.settle_set(&from, &pattern).ok();
                assert_eq!(n, p, "{} pattern {pattern}", ckt.name());
                if let Some(set) = n {
                    if !set.is_empty() {
                        from = set;
                    }
                }
            }
        }
    }

    /// POR under fault injection: the reduced set walk still matches.
    #[test]
    fn por_matches_naive_under_injection() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        for (site, value) in [
            (Site::Output, false),
            (Site::Output, true),
            (Site::Pin(0), true),
            (Site::Pin(1), false),
        ] {
            let inj = Injection::single(y, site, value);
            let mut naive = Settler::new(&c, &inj, &naive_cfg(&c));
            let mut por = Settler::new(&c, &inj, &por_cfg(&c));
            let from = BTreeSet::from([c.initial_state().clone()]);
            for pattern in 0..4u64 {
                assert_eq!(
                    naive.settle_set(&from, pattern).ok(),
                    por.settle_set(&from, pattern).ok(),
                    "{site:?}={value} pattern {pattern:b}"
                );
            }
        }
    }

    /// On a deep Muller pipeline the reduction actually fires: the wave
    /// of commuting switchings collapses to near-linear exploration.
    #[test]
    fn por_prunes_muller_wave() {
        let c = satpg_netlist::families::muller_pipeline(8);
        let inj = Injection::none();
        let mut naive = Settler::new(&c, &inj, &naive_cfg(&c));
        let mut por = Settler::new(&c, &inj, &por_cfg(&c));
        // Drive a few cycles of the handshake; the interesting settles
        // are the multi-gate waves after R toggles with tokens in flight.
        let mut from = BTreeSet::from([c.initial_state().clone()]);
        for &pattern in &[0b01u64, 0b11, 0b10, 0b00, 0b01] {
            let n = naive.settle_set(&from, pattern).ok();
            let p = por.settle_set(&from, pattern).ok();
            assert_eq!(n, p, "pattern {pattern:b}");
            if let Some(set) = n {
                from = set;
            }
        }
        assert!(
            por.stats().por_pruned > 0,
            "the pipeline wave must trigger the reduction: {:?}",
            por.stats()
        );
        assert!(
            por.stats().states_explored < naive.stats().states_explored,
            "reduction must shrink the walk: por {:?} vs naive {:?}",
            por.stats(),
            naive.stats()
        );
    }

    #[test]
    fn stats_accumulate_and_take() {
        let c = library::c_element();
        let mut s = Settler::new(&c, &Injection::none(), &naive_cfg(&c));
        let _ = s.settle(c.initial_state(), 0b11);
        let _ = s.settle(c.initial_state(), 0b01);
        assert_eq!(s.stats().settles, 2);
        assert!(s.stats().states_explored > 0);
        let taken = s.take_stats();
        assert_eq!(taken.settles, 2);
        assert_eq!(s.stats().settles, 0);
        let mut sum = SettleStats::default();
        sum.absorb(&taken);
        sum.absorb(&taken);
        assert_eq!(sum.settles, 4);
    }
}
