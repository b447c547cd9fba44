//! The unified settling engine: one frontier walker under every
//! interleaving analysis.
//!
//! [`Settler`] is the one implementation of the k-bounded settling
//! semantics (§4.1).  It owns:
//!
//! * **a compiled kernel** — the circuit and its fault injection
//!   compiled once into word-mask gates (`kernel.rs`), so the ternary
//!   fast path, every excitation test and the POR ample check run on
//!   packed `u64` state words;
//! * **a packed frontier** — the per-depth state set of every
//!   interleaving in a flat word arena with an open-addressing index
//!   (`packed.rs`), each state carrying its excited-gate mask, which a
//!   firing updates incrementally; stable states self-loop, and every
//!   frontier is expanded in ascending `Bits` order;
//! * **partial-order reduction** (POR) — a persistent-singleton rule:
//!   when an excited gate provably commutes with everything that could
//!   fire before it, only *its* interleaving is explored, collapsing the
//!   binomial diamond frontier of a wave of independent switchings to a
//!   single path (see `crates/sim/DESIGN.md` for the soundness
//!   argument);
//! * **adaptive caps** ([`CapPolicy`]) — the tracked-set bound derived
//!   from circuit size instead of a fixed constant, with a distinct
//!   [`Settle::Truncated`] verdict (a set-tracking settle the cap cuts
//!   returns `None`).
//!
//! With POR off ([`SettlerConfig::por`]) the walker is the naive
//! reference walk that the property tests compare the reduction against.

use crate::inject::Injection;
use crate::kernel::{DualRail, Kernel};
use crate::packed::PackedSet;
use crate::ternary::TritVec;
use satpg_netlist::{Bits, Circuit, GateId, IntoPattern, Pattern};
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
            CapPolicy::Scaled {
                floor,
                gates_per_doubling,
                ceil,
            } => {
                let doublings = num_gates / gates_per_doubling.max(1);
                // Saturate: a shift that would push a set bit past the
                // top is "unbounded", never a wrapped small number.
                let scaled = if floor == 0 {
                    0
                } else if doublings < floor.leading_zeros() as usize {
                    floor << doublings
                } else {
                    usize::MAX
                };
                scaled.min(ceil).max(floor)
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
    /// already proves confluence.  A definite ternary outcome means every
    /// *fair* schedule (each excited gate eventually fires, as finite
    /// inertial delays guarantee) settles to that state; the literal
    /// k-bounded frontier also holds unfair interleavings that postpone
    /// a gate forever, so the fast path may accept a vector the raw
    /// `TCR_k` definition rejects.  Turn it off for the exact definition.
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
    /// Walks cut at a verified frontier repeat: from there the walk is
    /// periodic and cannot settle, so whole periods are credited to the
    /// counters instead of run.
    pub cycle_cuts: u64,
    /// Expansions those cuts credited to `states_explored` without
    /// running them.
    pub fast_forwarded: u64,
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
        self.cycle_cuts += o.cycle_cuts;
        self.fast_forwarded += o.fast_forwarded;
    }

    /// Adds these counters into the process-wide metrics registry
    /// (`settler.*`).  Called when a CSSG build completes, never per
    /// settle, so the settling hot path carries no registry traffic
    /// (engine workers report their searches' settles as `engine.settle_*`).
    pub fn flush_metrics(&self) {
        let m = satpg_trace::metrics();
        m.counter("settler.settles").add(self.settles);
        m.counter("settler.states_explored")
            .add(self.states_explored);
        m.counter("settler.por_states").add(self.por_states);
        m.counter("settler.por_pruned").add(self.por_pruned);
        m.counter("settler.truncated").add(self.truncated);
        m.counter("settler.fallbacks").add(self.fallbacks);
        m.counter("settler.cycle_cuts").add(self.cycle_cuts);
        m.counter("settler.fast_forwarded").add(self.fast_forwarded);
    }
}

/// Result of the bounded (depth-`k`) phase; the frontier is left in
/// `Settler::cur`.
enum Bounded {
    /// Every interleaving stabilized: the frontier is the settled set.
    Settled,
    /// Depth `k` was reached with switching still in flight.
    Unsettled,
    /// A tracked set blew the cap.
    Truncated,
}

/// The unified settling engine.  One instance per (circuit, injection,
/// config) triple; reuse it across calls to amortize the compiled
/// kernel and the frontier buffers and to accumulate [`SettleStats`].
pub struct Settler<'c> {
    ckt: &'c Circuit,
    k: usize,
    cap: usize,
    por: bool,
    fast_path: bool,
    kernel: Kernel,
    /// Dual-rail scratch of the fast path and the ample check.
    dual: DualRail,
    /// The frontier being expanded and the one being built: each entry
    /// a state and its excitation mask (bit `out(g)` set iff gate `g` is
    /// excited).
    cur: PackedSet,
    next: PackedSet,
    /// The oscillation closure's union (states only).
    union: PackedSet,
    /// Scratch state: a walk's start, or a successor being built.
    succ: Vec<u64>,
    /// The walk's frontier hashes, one per step searched: a repeat
    /// proposes a cycle.
    hashes: Vec<u64>,
    /// The sorted state words of a proposed cycle's frontier.
    checkpoint: Vec<u64>,
    stats: SettleStats,
}

impl<'c> Settler<'c> {
    /// Builds a settler for `ckt` under `inj`.
    pub fn new(ckt: &'c Circuit, inj: &Injection, cfg: &SettlerConfig) -> Self {
        let kernel = Kernel::new(ckt, inj);
        let w = kernel.words();
        Settler {
            ckt,
            k: cfg.k,
            cap: cfg.cap.resolve(ckt.num_gates()),
            por: cfg.por,
            fast_path: cfg.ternary_fast_path,
            kernel,
            dual: DualRail::new(w),
            cur: PackedSet::new(w, 2 * w),
            next: PackedSet::new(w, 2 * w),
            union: PackedSet::new(w, w),
            succ: vec![0; w],
            hashes: Vec::new(),
            checkpoint: Vec::new(),
            stats: SettleStats::default(),
        }
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &SettleStats {
        &self.stats
    }

    /// Takes the counters, resetting them.
    pub fn take_stats(&mut self) -> SettleStats {
        std::mem::take(&mut self.stats)
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
            if let Some(b) = self.ternary(from, &pattern) {
                return Settle::Confluent(b);
            }
        }
        // Only the exhaustive analyses get spans: fast-path hits are
        // cheap ternary sims that would drown a trace in noise.
        let _span = satpg_trace::span!("settle", k = self.k, por = self.por as u8);
        self.start([from], &pattern);
        match self.bounded_walk(self.por) {
            Bounded::Truncated => {
                self.stats.truncated += 1;
                Settle::Truncated
            }
            Bounded::Settled | Bounded::Unsettled => {
                let n = self.kernel.num_bits();
                self.cur.sort();
                let (mut stable, mut unstable) = (Vec::new(), Vec::new());
                for &i in self.cur.sorted() {
                    let (s, e) = self.cur.entry(i as usize);
                    let side = if e.iter().all(|&w| w == 0) {
                        &mut stable
                    } else {
                        &mut unstable
                    };
                    side.push(Bits::from_words(n, s));
                }
                if !unstable.is_empty() {
                    stable.extend(unstable);
                    return Settle::Unstable(stable);
                }
                match stable.len() {
                    1 => Settle::Confluent(stable.pop().expect("len checked")),
                    _ => Settle::NonConfluent(stable),
                }
            }
        }
    }

    /// The set of states the (possibly faulty) circuit may occupy when
    /// the tester samples, given it may occupy any state of `from` when
    /// `pattern` is applied: the k-bounded frontier of every
    /// interleaving, closed under further transitions while any member
    /// is still unstable.  `None` when the tracked set exceeds the cap
    /// before a verdict.
    ///
    /// POR applies only while the walk can still settle within `k`
    /// (where the reduced settled set equals the naive one); a reduced
    /// walk that reaches depth `k` unsettled falls back to the naive
    /// walk, because the oscillation closure must see *every* transient
    /// the machine could be sampled in.
    pub fn settle_set(
        &mut self,
        from: &BTreeSet<Bits>,
        pattern: impl IntoPattern,
    ) -> Option<BTreeSet<Bits>> {
        let pattern = pattern.into_pattern(self.ckt.num_inputs());
        self.stats.settles += 1;
        // Fast path: a singleton, ternary-definite settle is exact (also
        // under injection: definite means every interleaving agrees).
        if self.fast_path && from.len() == 1 {
            let only = from.iter().next().expect("len checked");
            if let Some(b) = self.ternary(only, &pattern) {
                return Some(BTreeSet::from([b]));
            }
        }
        if self.por {
            self.start(from, &pattern);
            match self.bounded_walk(true) {
                Bounded::Settled => return Some(self.states(&self.cur)),
                // The reduced frontier is a subset of the naive one at
                // every depth, so a reduced truncation implies a naive
                // truncation: no fallback can rescue it.
                Bounded::Truncated => {
                    self.stats.truncated += 1;
                    return None;
                }
                Bounded::Unsettled => self.stats.fallbacks += 1,
            }
        }
        self.start(from, &pattern);
        match self.bounded_walk(false) {
            Bounded::Settled => Some(self.states(&self.cur)),
            Bounded::Truncated => {
                self.stats.truncated += 1;
                None
            }
            Bounded::Unsettled => self.closure(),
        }
    }

    /// The ternary fast path on `from` with `pattern` applied: the
    /// settled state when algorithms A and B leave no Φ.
    fn ternary(&mut self, from: &Bits, pattern: &Pattern) -> Option<Bits> {
        self.succ.copy_from_slice(from.words());
        self.kernel.apply(&mut self.succ, pattern);
        self.kernel.ternary_settle(&mut self.dual, &self.succ);
        let n = self.kernel.num_bits();
        self.dual.definite().map(|s| Bits::from_words(n, s))
    }

    /// Loads the walk's start frontier: every `from` state with
    /// `pattern` applied, with its excitation mask.
    fn start<'a>(&mut self, from: impl IntoIterator<Item = &'a Bits>, pattern: &Pattern) {
        self.cur.clear();
        for s in from {
            self.succ.copy_from_slice(s.words());
            self.kernel.apply(&mut self.succ, pattern);
            if let Some(i) = self.cur.insert(&self.succ) {
                self.kernel.excitation(&self.succ, self.cur.payload_mut(i));
            }
        }
    }

    /// The states of `set` (the frontier or the closure's union).
    fn states(&self, set: &PackedSet) -> BTreeSet<Bits> {
        let n = self.kernel.num_bits();
        (0..set.len())
            .map(|i| Bits::from_words(n, set.key(i)))
            .collect()
    }

    /// The depth-`k` frontier walk shared by both analyses, from the
    /// frontier in `cur`.
    ///
    /// A step is a function of the frontier set alone, so a frontier
    /// that repeats one `p` steps earlier makes the rest of the walk
    /// periodic: it can no longer settle, and each further period
    /// repeats the same counters.  Equal frontier hashes only propose
    /// such a repeat; the frontier is checkpointed and the cut is taken
    /// only when the frontier `p` steps later equals it word for word.
    /// Then whole periods are credited to the counters and the remaining
    /// steps run for real, leaving the exact depth-`k` frontier (see
    /// "Cycle fast-forward" in `crates/sim/DESIGN.md`).
    ///
    /// The search starts at depth `gates`: a walk in which no gate fires
    /// twice has settled by then, so most walks that settle end before
    /// it and pay one comparison a step for it.
    fn bounded_walk(&mut self, por: bool) -> Bounded {
        // Input application was step 1; k-1 gate steps remain.
        let steps = self.k.max(1) - 1;
        let from = self.ckt.num_gates();
        self.hashes.clear();
        // One bit per frontier hash seen, indexed by its top six bits:
        // a hash whose bit is clear is new, so most steps of a walk
        // that settles skip the scan of `hashes`.
        let mut seen_bits = 0u64;
        // A proposed cycle: the checkpoint's step, the period to confirm
        // and the counters at the checkpoint.
        let mut candidate: Option<(usize, usize, SettleStats)> = None;
        let mut watching = true;
        let mut t = 0;
        while t < steps {
            if watching && t >= from {
                if let Some((c, p, at)) = candidate {
                    if t == c + p {
                        candidate = None;
                        if self.at_checkpoint() {
                            let laps = (steps - t) / p;
                            self.credit(&at, laps as u64);
                            t += laps * p;
                            watching = false;
                            continue;
                        }
                    }
                }
                let h = self.cur.set_hash();
                let bit = 1u64 << (h >> 58);
                let seen = if seen_bits & bit == 0 {
                    None
                } else {
                    self.hashes.iter().rposition(|&x| x == h).map(|i| from + i)
                };
                seen_bits |= bit;
                self.hashes.push(h);
                if let Some(j) = seen {
                    // Confirming takes one more period; propose only a
                    // cycle that leaves at least one period to credit.
                    if candidate.is_none() && t + 2 * (t - j) <= steps {
                        self.cur.sort();
                        self.checkpoint.clear();
                        for &i in self.cur.sorted() {
                            self.checkpoint.extend_from_slice(self.cur.key(i as usize));
                        }
                        candidate = Some((t, t - j, self.stats));
                    }
                }
            }
            match self.step(por) {
                None => return Bounded::Truncated,
                Some(false) => return Bounded::Settled,
                Some(true) => {}
            }
            t += 1;
        }
        Bounded::Unsettled
    }

    /// Whether the frontier equals the checkpoint.
    fn at_checkpoint(&mut self) -> bool {
        let w = self.kernel.words();
        if self.cur.len() * w != self.checkpoint.len() {
            return false;
        }
        self.cur.sort();
        self.cur
            .sorted()
            .iter()
            .zip(self.checkpoint.chunks_exact(w))
            .all(|(&i, ck)| self.cur.key(i as usize) == ck)
    }

    /// Credits `laps` more copies of the period run since the counters
    /// read `at`.  Every per-step counter is a sum over the frontier's
    /// members, so each lap adds exactly what the period added.
    fn credit(&mut self, at: &SettleStats, laps: u64) {
        let s = &mut self.stats;
        let expanded = (s.states_explored - at.states_explored) * laps;
        s.states_explored += expanded;
        s.por_states += (s.por_states - at.por_states) * laps;
        s.por_pruned += (s.por_pruned - at.por_pruned) * laps;
        s.fast_forwarded += expanded;
        s.cycle_cuts += 1;
    }

    /// Oscillation closure (naive only): union further frontiers until
    /// nothing new appears — once a step adds no states, no later step
    /// can (the step image of a subset of the union stays inside it).
    fn closure(&mut self) -> Option<BTreeSet<Bits>> {
        self.union.clear();
        for i in 0..self.cur.len() {
            self.union.insert(self.cur.key(i));
        }
        for _ in 0..4 * self.k + 4 {
            let Some(any_unstable) = self.step(false) else {
                self.stats.truncated += 1;
                return None;
            };
            let before = self.union.len();
            for i in 0..self.cur.len() {
                self.union.insert(self.cur.key(i));
                if self.union.len() > self.cap {
                    self.stats.truncated += 1;
                    return None;
                }
            }
            if !any_unstable || self.union.len() == before {
                return Some(self.states(&self.union));
            }
        }
        // Still growing: the closure is incomplete, so claiming any
        // verdict from it would be unsound.
        self.stats.truncated += 1;
        None
    }

    /// One synchronous frontier step, `cur` to `next` (then swapped):
    /// every stable state self-loops, every unstable state is replaced by
    /// its one-step successors (POR-reduced to the ample gate's successor
    /// where the rule fires).  Returns whether any expanded state was
    /// unstable, or `None` when `next` blew the cap.
    ///
    /// A set may hold exactly `cap` states; the insert that would make it
    /// `cap + 1` truncates.  The frontier is expanded in ascending `Bits`
    /// order and each state's successors in gate order, so the point
    /// where a step crosses the cap — and with it every counter of a
    /// truncated analysis — is a function of the frontier alone.
    fn step(&mut self, por: bool) -> Option<bool> {
        let Settler {
            kernel,
            dual,
            cur,
            next,
            succ,
            stats,
            cap,
            ..
        } = self;
        let cap = *cap;
        cur.sort();
        next.clear();
        let mut any_unstable = false;
        // Inserts `s` with gate `fired` fired (a stable state self-loops
        // with `None`), its excitation updated from `e`; `false` once
        // `next` exceeds the cap.
        let mut push = |s: &[u64], e: &[u64], fired: Option<usize>| {
            succ.copy_from_slice(s);
            if let Some(g) = fired {
                let (w, bit) = kernel.output(g);
                succ[w] ^= bit;
            }
            if let Some(j) = next.insert(succ) {
                let te = next.payload_mut(j);
                te.copy_from_slice(e);
                if let Some(g) = fired {
                    kernel.refire(g, succ, te);
                }
            }
            next.len() <= cap
        };
        for &i in cur.sorted() {
            let (s, e) = cur.entry(i as usize);
            stats.states_explored += 1;
            let excited: u32 = e.iter().map(|w| w.count_ones()).sum();
            if excited == 0 {
                if !push(s, e, None) {
                    return None;
                }
                continue;
            }
            any_unstable = true;
            if por && excited >= 2 {
                if let Some(g) = kernel.ample(dual, s, e) {
                    stats.por_states += 1;
                    stats.por_pruned += u64::from(excited - 1);
                    if !push(s, e, Some(g)) {
                        return None;
                    }
                    continue;
                }
            }
            if !kernel.each_gate(e, |g| push(s, e, Some(g))) {
                return None;
            }
        }
        std::mem::swap(cur, next);
        Some(any_unstable)
    }

    /// The fixpoint the ample check tests candidate `frozen` against in
    /// state `s`: every signal that can differ from `s` in a run that
    /// never fires `frozen` is X.  Exposed so property tests can pin the
    /// event-driven computation against a sweep to the fixpoint.
    pub fn frozen_fixpoint(&mut self, s: &Bits, frozen: GateId) -> TritVec {
        self.kernel
            .frozen_fixpoint(&mut self.dual, s.words(), frozen.index())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::Site;
    use crate::ternary::{ternary_settle, TernaryOutcome};
    use satpg_netlist::library;

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

    /// The naive walk under a fixed 2^16 cap, with the fast path as
    /// given: the reference configuration of the exact-semantics tests.
    fn fixed_cfg(ckt: &Circuit, ternary_fast_path: bool) -> SettlerConfig {
        SettlerConfig {
            cap: CapPolicy::Fixed(1 << 16),
            por: false,
            ternary_fast_path,
            ..SettlerConfig::for_circuit(ckt)
        }
    }

    fn cfg_exact(ckt: &Circuit) -> SettlerConfig {
        fixed_cfg(ckt, false)
    }

    /// One settle from the reset state on a fresh settler.
    fn settle_reset(
        ckt: &Circuit,
        pattern: impl IntoPattern,
        inj: &Injection,
        cfg: &SettlerConfig,
    ) -> Settle {
        Settler::new(ckt, inj, cfg).settle(ckt.initial_state(), pattern)
    }

    #[test]
    fn c_element_confluent() {
        let c = library::c_element();
        let r = settle_reset(&c, 0b11, &Injection::none(), &cfg_exact(&c));
        let s = r.confluent().expect("C-element raise is confluent");
        assert!(c.is_stable(s));
        assert!(s.get(c.signal_by_name("y").unwrap().index()));
    }

    #[test]
    fn figure1a_non_confluent() {
        let c = library::figure1a();
        let r = settle_reset(&c, 0b01, &Injection::none(), &cfg_exact(&c));
        match r {
            Settle::NonConfluent(states) => {
                assert!(states.len() >= 2);
                let y = c.signal_by_name("y").unwrap().index();
                let ys: std::collections::HashSet<bool> = states.iter().map(|s| s.get(y)).collect();
                assert_eq!(ys.len(), 2, "y differs between outcomes");
            }
            other => panic!("expected non-confluence, got {other:?}"),
        }
    }

    #[test]
    fn figure1b_unstable() {
        let c = library::figure1b();
        let r = settle_reset(&c, 0b01, &Injection::none(), &cfg_exact(&c));
        assert!(matches!(r, Settle::Unstable(_)), "oscillation detected");
    }

    #[test]
    fn fast_path_agrees_with_exact_on_definite_cases() {
        for ckt in library::all() {
            let inj = Injection::none();
            for pattern in Pattern::all(ckt.num_inputs()) {
                let fast = settle_reset(&ckt, &pattern, &inj, &fixed_cfg(&ckt, true));
                let exact = settle_reset(&ckt, &pattern, &inj, &cfg_exact(&ckt));
                if let (Settle::Confluent(a), Settle::Confluent(b)) = (&fast, &exact) {
                    assert_eq!(a, b, "{} pattern {pattern}", ckt.name());
                }
                // The fast path may *only* add confluent answers where the
                // exact analysis ran out of k, never contradict it.
                if let Settle::NonConfluent(_) = exact {
                    assert!(
                        !fast.is_valid(),
                        "{} pattern {pattern}: ternary accepted a race",
                        ckt.name()
                    );
                }
            }
        }
    }

    #[test]
    fn small_k_reports_unstable() {
        let c = library::c_element();
        let cfg = SettlerConfig {
            k: 2, // input application + one gate step: cannot finish
            cap: CapPolicy::Fixed(1024),
            por: false,
            ternary_fast_path: false,
        };
        let r = settle_reset(&c, 0b11, &Injection::none(), &cfg);
        assert!(matches!(r, Settle::Unstable(_)));
    }

    #[test]
    fn injection_changes_settling() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        let inj = Injection::single(y, Site::Output, false);
        let r = settle_reset(&c, 0b11, &inj, &cfg_exact(&c));
        let s = r
            .confluent()
            .expect("stuck-at keeps circuit confluent here");
        assert!(!s.get(c.signal_by_name("y").unwrap().index()));
    }

    #[test]
    fn truncation_is_reported() {
        let c = library::figure1a();
        let cfg = SettlerConfig {
            k: 64,
            cap: CapPolicy::Fixed(1),
            por: false,
            ternary_fast_path: false,
        };
        let r = settle_reset(&c, 0b01, &Injection::none(), &cfg);
        assert_eq!(r, Settle::Truncated);
    }

    #[test]
    fn ternary_definite_implies_explicit_confluent() {
        // The conservativeness direction the ATPG soundness rests on.
        for ckt in library::all() {
            for pattern in Pattern::all(ckt.num_inputs()) {
                if let TernaryOutcome::Definite(tb) =
                    ternary_settle(&ckt, ckt.initial_state(), &pattern, &Injection::none())
                {
                    match settle_reset(&ckt, &pattern, &Injection::none(), &cfg_exact(&ckt)) {
                        Settle::Confluent(eb) => assert_eq!(tb, eb, "{}", ckt.name()),
                        other => panic!(
                            "{} pattern {pattern}: ternary definite but explicit {other:?}",
                            ckt.name()
                        ),
                    }
                }
            }
        }
    }

    #[test]
    fn cap_policy_resolution() {
        assert_eq!(CapPolicy::Fixed(7).resolve(1000), 7);
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
        // The three-phase set cap (`ThreePhaseConfig::scaled`).
        let set = CapPolicy::Scaled {
            floor: 4096,
            gates_per_doubling: 4,
            ceil: 1 << 20,
        };
        // Past 51 (set) or 48 (settle) doublings the floor's set bit
        // would shift past bit 63: the cap saturates at the ceiling
        // instead of wrapping back to the floor.
        for (gates, settle, set_cap) in [
            (206, 1 << 22, 1 << 20),
            (208, 1 << 22, 1 << 20),
            (254, 1 << 22, 1 << 20),
            (258, 1 << 22, 1 << 20),
            (391, 1 << 22, 1 << 20),
            (392, 1 << 22, 1 << 20),
            (511, 1 << 22, 1 << 20),
            (512, 1 << 22, 1 << 20),
        ] {
            assert_eq!(s.resolve(gates), settle, "settle cap at {gates} gates");
            assert_eq!(set.resolve(gates), set_cap, "set cap at {gates} gates");
        }
        // More gates never mean a smaller cap.
        for policy in [s, set] {
            for gates in 1..=1024 {
                assert!(
                    policy.resolve(gates) >= policy.resolve(gates - 1),
                    "{policy:?} shrinks at {gates} gates"
                );
            }
        }
    }

    /// The one cap rule: a set may hold exactly `cap` states, and the
    /// insert making it `cap + 1` truncates — pinning the boundary the
    /// old duplicated checks disagreed about.
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
        assert_eq!(tight.settle_set(&from, 0b01), None);
        let mut exact = Settler::new(&c, &Injection::none(), &mk(4));
        assert!(exact.settle_set(&from, 0b01).is_some());
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
                let n = naive.settle_set(&from, &pattern);
                let p = por.settle_set(&from, &pattern);
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
                    naive.settle_set(&from, pattern),
                    por.settle_set(&from, pattern),
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
            let n = naive.settle_set(&from, pattern);
            let p = por.settle_set(&from, pattern);
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

    /// Up to `limit` stable states reachable from reset by confluent
    /// settles, in breadth-first order.
    fn reachable_states(ckt: &Circuit, limit: usize) -> Vec<Bits> {
        let mut settler = Settler::new(ckt, &Injection::none(), &SettlerConfig::for_circuit(ckt));
        let mut seen = vec![ckt.initial_state().clone()];
        let mut next = 0;
        while next < seen.len() && seen.len() < limit {
            let s = seen[next].clone();
            next += 1;
            for p in Pattern::all(ckt.num_inputs()) {
                if let Settle::Confluent(t) = settler.settle(&s, &p) {
                    if seen.len() < limit && !seen.contains(&t) {
                        seen.push(t);
                    }
                }
            }
        }
        seen
    }

    /// Folds a payload into a running checksum, in payload order.
    fn fold_states<'a>(h: &mut u64, states: impl IntoIterator<Item = &'a Bits>) {
        for s in states {
            for &w in s.words() {
                *h = (*h ^ w).wrapping_mul(0x0100_0000_01b3);
            }
            *h = (*h ^ 0xff).wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Absolute counters of settles cut mid-step by a small fixed cap.
    /// Where a walk crosses the cap inside a step, `states_explored`,
    /// `por_*` and the truncation count depend on the order the frontier
    /// is expanded in (ascending `Bits`, successors in gate order); the
    /// payload checksums pin the order of `NonConfluent`/`Unstable`
    /// payloads.  Caps of 3 and up truncate with at least `cap` states
    /// already in the next frontier.  Every pattern is applied to each
    /// of the first reachable stable states, through `settle` and
    /// through `settle_set` (singleton and two-state from-sets).
    #[test]
    fn truncation_counters_pinned() {
        type Row = (&'static str, bool, usize, [u32; 4], SettleStats, u64);
        // muller-8 and arbiter-4 never oscillate: no walk is cut.
        let stats = |s: [u64; 6]| SettleStats {
            settles: s[0],
            states_explored: s[1],
            por_states: s[2],
            por_pruned: s[3],
            truncated: s[4],
            fallbacks: s[5],
            cycle_cuts: 0,
            fast_forwarded: 0,
        };
        let mut got: Vec<Row> = Vec::new();
        for (name, ckt) in [
            ("muller8", satpg_netlist::families::muller_pipeline(8)),
            ("arbiter4", satpg_netlist::families::arbiter_tree(4)),
        ] {
            let starts = reachable_states(&ckt, 6);
            for por in [false, true] {
                for cap in [2usize, 3, 5, 9, 17] {
                    let cfg = SettlerConfig {
                        cap: CapPolicy::Fixed(cap),
                        por,
                        ternary_fast_path: false,
                        ..SettlerConfig::for_circuit(&ckt)
                    };
                    let mut st = Settler::new(&ckt, &Injection::none(), &cfg);
                    let mut kinds = [0u32; 4];
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    for s in &starts {
                        for p in Pattern::all(ckt.num_inputs()) {
                            match st.settle(s, &p) {
                                Settle::Confluent(b) => {
                                    kinds[0] += 1;
                                    fold_states(&mut h, [&b]);
                                }
                                Settle::NonConfluent(v) => {
                                    kinds[1] += 1;
                                    fold_states(&mut h, &v);
                                }
                                Settle::Unstable(v) => {
                                    kinds[2] += 1;
                                    fold_states(&mut h, &v);
                                }
                                Settle::Truncated => kinds[3] += 1,
                            }
                        }
                    }
                    got.push((name, por, cap, kinds, st.take_stats(), h));
                    // Set walks: sets of 0, 1 and 2+ states, then truncations.
                    let mut kinds = [0u32; 4];
                    let mut h = 0xcbf2_9ce4_8422_2325u64;
                    let froms = starts.iter().map(|s| BTreeSet::from([s.clone()])).chain(
                        starts
                            .windows(2)
                            .map(|w| BTreeSet::from([w[0].clone(), w[1].clone()])),
                    );
                    for from in froms {
                        for p in Pattern::all(ckt.num_inputs()) {
                            match st.settle_set(&from, &p) {
                                Some(set) => {
                                    kinds[set.len().min(2)] += 1;
                                    fold_states(&mut h, &set);
                                }
                                None => kinds[3] += 1,
                            }
                        }
                    }
                    got.push((name, por, cap, kinds, st.take_stats(), h));
                }
            }
        }
        #[rustfmt::skip]
        let want: Vec<Row> = vec![
            ("muller8", false, 2, [12, 0, 0, 12], stats([24, 79, 0, 0, 12, 0]), 0xd204eb3f06a9851d),
            ("muller8", false, 2, [0, 14, 2, 28], stats([44, 179, 0, 0, 28, 0]), 0xf7062ad0fe0a603e),
            ("muller8", false, 3, [12, 0, 0, 12], stats([24, 121, 0, 0, 12, 0]), 0xd204eb3f06a9851d),
            ("muller8", false, 3, [0, 14, 2, 28], stats([44, 260, 0, 0, 28, 0]), 0xf7062ad0fe0a603e),
            ("muller8", false, 5, [12, 0, 0, 12], stats([24, 168, 0, 0, 12, 0]), 0xd204eb3f06a9851d),
            ("muller8", false, 5, [0, 14, 2, 28], stats([44, 418, 0, 0, 28, 0]), 0xf7062ad0fe0a603e),
            ("muller8", false, 9, [12, 0, 0, 12], stats([24, 255, 0, 0, 12, 0]), 0xd204eb3f06a9851d),
            ("muller8", false, 9, [0, 14, 2, 28], stats([44, 658, 0, 0, 28, 0]), 0xf7062ad0fe0a603e),
            ("muller8", false, 17, [14, 0, 0, 10], stats([24, 498, 0, 0, 10, 0]), 0x806f8397536e4662),
            ("muller8", false, 17, [0, 16, 3, 25], stats([44, 1215, 0, 0, 25, 0]), 0x571989b2504d8631),
            ("muller8", true, 2, [22, 2, 0, 0], stats([24, 238, 118, 148, 0, 0]), 0x4041d36de01dc292),
            ("muller8", true, 2, [0, 30, 12, 2], stats([44, 806, 313, 393, 2, 0]), 0xb69e56f5b99b6574),
            ("muller8", true, 3, [22, 2, 0, 0], stats([24, 238, 118, 148, 0, 0]), 0x4041d36de01dc292),
            ("muller8", true, 3, [0, 30, 14, 0], stats([44, 822, 315, 395, 0, 0]), 0x88350443c7c7b320),
            ("muller8", true, 5, [22, 2, 0, 0], stats([24, 238, 118, 148, 0, 0]), 0x4041d36de01dc292),
            ("muller8", true, 5, [0, 30, 14, 0], stats([44, 822, 315, 395, 0, 0]), 0x88350443c7c7b320),
            ("muller8", true, 9, [22, 2, 0, 0], stats([24, 238, 118, 148, 0, 0]), 0x4041d36de01dc292),
            ("muller8", true, 9, [0, 30, 14, 0], stats([44, 822, 315, 395, 0, 0]), 0x88350443c7c7b320),
            ("muller8", true, 17, [22, 2, 0, 0], stats([24, 238, 118, 148, 0, 0]), 0x4041d36de01dc292),
            ("muller8", true, 17, [0, 30, 14, 0], stats([44, 822, 315, 395, 0, 0]), 0x88350443c7c7b320),
            ("arbiter4", false, 2, [60, 5, 0, 31], stats([96, 272, 0, 0, 31, 0]), 0x4c4cb639aec1e2b7),
            ("arbiter4", false, 2, [0, 67, 6, 103], stats([176, 419, 0, 0, 103, 0]), 0x25cd67321571eb8e),
            ("arbiter4", false, 3, [72, 5, 0, 19], stats([96, 418, 0, 0, 19, 0]), 0x0f95bf84ba70e73b),
            ("arbiter4", false, 3, [0, 98, 17, 61], stats([176, 753, 0, 0, 61, 0]), 0x6d04c214c044bf4c),
            ("arbiter4", false, 5, [75, 15, 0, 6], stats([96, 595, 0, 0, 6, 0]), 0x7aa9c24e1f53824d),
            ("arbiter4", false, 5, [0, 114, 42, 20], stats([176, 1401, 0, 0, 20, 0]), 0x0b6e5a369f0b02d6),
            ("arbiter4", false, 9, [76, 19, 0, 1], stats([96, 761, 0, 0, 1, 0]), 0x22a5be2b0adc3537),
            ("arbiter4", false, 9, [0, 116, 54, 6], stats([176, 1867, 0, 0, 6, 0]), 0xefe810a22afce1c2),
            ("arbiter4", false, 17, [76, 20, 0, 0], stats([96, 802, 0, 0, 0, 0]), 0x90c1f281d748fd5f),
            ("arbiter4", false, 17, [0, 117, 59, 0], stats([176, 2140, 0, 0, 0, 0]), 0xc014ba4d2cdbc450),
            ("arbiter4", true, 2, [76, 19, 0, 1], stats([96, 429, 134, 198, 1, 0]), 0x22a5be2b0adc3537),
            ("arbiter4", true, 2, [0, 117, 47, 12], stats([176, 1094, 348, 518, 12, 0]), 0x8991e55e4f1c71e7),
            ("arbiter4", true, 3, [76, 19, 0, 1], stats([96, 429, 134, 198, 1, 0]), 0x22a5be2b0adc3537),
            ("arbiter4", true, 3, [0, 117, 57, 2], stats([176, 1170, 352, 522, 2, 0]), 0x3002ee6efba7e640),
            ("arbiter4", true, 5, [76, 20, 0, 0], stats([96, 455, 138, 204, 0, 0]), 0x90c1f281d748fd5f),
            ("arbiter4", true, 5, [0, 117, 58, 1], stats([176, 1196, 356, 528, 1, 0]), 0xb3d224740f8e7588),
            ("arbiter4", true, 9, [76, 20, 0, 0], stats([96, 455, 138, 204, 0, 0]), 0x90c1f281d748fd5f),
            ("arbiter4", true, 9, [0, 117, 59, 0], stats([176, 1225, 360, 534, 0, 0]), 0xc014ba4d2cdbc450),
            ("arbiter4", true, 17, [76, 20, 0, 0], stats([96, 455, 138, 204, 0, 0]), 0x90c1f281d748fd5f),
            ("arbiter4", true, 17, [0, 117, 59, 0], stats([176, 1225, 360, 534, 0, 0]), 0xc014ba4d2cdbc450),
        ];
        if got != want {
            for (name, por, cap, kinds, s, h) in &got {
                println!(
                    "(\"{name}\", {por}, {cap}, {kinds:?}, stats([{}, {}, {}, {}, {}, {}]), {h:#018x}),",
                    s.settles, s.states_explored, s.por_states, s.por_pruned, s.truncated, s.fallbacks
                );
            }
            panic!("truncation counters moved; the table above is the new value");
        }
    }

    /// The six work counters, in declaration order.
    fn counters(s: &SettleStats) -> [u64; 6] {
        [
            s.settles,
            s.states_explored,
            s.por_states,
            s.por_pruned,
            s.truncated,
            s.fallbacks,
        ]
    }

    /// Absolute verdicts and work of every walk regime, oscillating
    /// walks included: each library circuit, POR off and on, `k` in
    /// {1, 2, 3, 5, 16, 100, 1000}, every pattern (twice over) from
    /// reset through `settle` and `settle_set`, and through a set walk
    /// chained from each settled set, with the fast path off.  figure1b
    /// oscillates, so its walks run to depth `k` and its set walks close
    /// over the oscillation; the chain drives the SR latch through its
    /// `S = R = 1` to `00` race.  The digest folds each verdict's kind
    /// and its payload or set in order; the counters are summed over
    /// every `k`.  Recorded before the settler cut oscillating walks
    /// short.
    #[test]
    fn oscillating_walks_pinned() {
        let mut got: Vec<(String, bool, [u64; 6], u64)> = Vec::new();
        for ckt in library::all() {
            for por in [false, true] {
                let mut sum = SettleStats::default();
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                let tag = |h: &mut u64, t: u64| *h = (*h ^ t).wrapping_mul(0x0100_0000_01b3);
                for k in [1usize, 2, 3, 5, 16, 100, 1000] {
                    let cfg = SettlerConfig {
                        k,
                        por,
                        ternary_fast_path: false,
                        ..SettlerConfig::for_circuit(&ckt)
                    };
                    let mut st = Settler::new(&ckt, &Injection::none(), &cfg);
                    let reset = BTreeSet::from([ckt.initial_state().clone()]);
                    let mut chain = reset.clone();
                    for p in Pattern::all(ckt.num_inputs()).chain(Pattern::all(ckt.num_inputs())) {
                        match st.settle(ckt.initial_state(), &p) {
                            Settle::Confluent(b) => {
                                tag(&mut h, 1);
                                fold_states(&mut h, [&b]);
                            }
                            Settle::NonConfluent(v) => {
                                tag(&mut h, 2);
                                fold_states(&mut h, &v);
                            }
                            Settle::Unstable(v) => {
                                tag(&mut h, 3);
                                fold_states(&mut h, &v);
                            }
                            Settle::Truncated => tag(&mut h, 4),
                        }
                        match st.settle_set(&reset, &p) {
                            Some(set) => {
                                tag(&mut h, 5);
                                fold_states(&mut h, &set);
                            }
                            None => tag(&mut h, 6),
                        }
                        // Chained: the previous settled set is the next
                        // from-set.
                        match st.settle_set(&chain, &p) {
                            Some(set) => {
                                tag(&mut h, 7);
                                fold_states(&mut h, &set);
                                if !set.is_empty() {
                                    chain = set;
                                }
                            }
                            None => tag(&mut h, 8),
                        }
                    }
                    sum.absorb(&st.take_stats());
                }
                got.push((ckt.name().to_string(), por, counters(&sum), h));
            }
        }
        #[rustfmt::skip]
        let want: Vec<(&str, bool, [u64; 6], u64)> = vec![
            ("figure1a", false, [168, 3277, 0, 0, 0, 0], 0x5a111d2bcce1acae),
            ("figure1a", true, [168, 4203, 509, 770, 0, 51], 0x972afb166e98276a),
            ("figure1b", false, [168, 96257, 0, 0, 0, 0], 0x0fcc994ba8f2d51e),
            ("figure1b", true, [168, 140275, 3711, 3857, 0, 84], 0x51f63f5bbc2a4c32),
            ("celement", false, [168, 554, 0, 0, 0, 0], 0x4431d14d37011a69),
            ("celement", true, [168, 589, 49, 49, 0, 37], 0x5eaacd64cf68e0dd),
            ("sr_latch", false, [168, 914, 0, 0, 0, 0], 0x495ecce0020f52bd),
            ("sr_latch", true, [168, 1031, 104, 115, 0, 44], 0x6e1bfdbbccc18bcd),
            ("muller_pipe2", false, [168, 2372, 0, 0, 0, 0], 0xe78490563d53627d),
            ("muller_pipe2", true, [168, 2792, 377, 513, 0, 52], 0xe883f44d20a71fe1),
        ];
        let same = got.len() == want.len()
            && got
                .iter()
                .zip(&want)
                .all(|(g, w)| (g.0.as_str(), g.1, g.2, g.3) == *w);
        if !same {
            for (name, por, c, h) in &got {
                println!("(\"{name}\", {por}, {c:?}, {h:#018x}),");
            }
            panic!("oscillating-walk pins moved; the table above is the new value");
        }
    }

    /// Once `a` rises, figure1b's loop `c↓ d↓ c↑ d↑` has period 4.  Its
    /// four gates put the search's start at depth 4: the first repeat
    /// (depth 8) is confirmed one period later, at depth 12, then 246
    /// periods (984 expansions) are credited and the last three steps
    /// run for real.  A walk too short to credit a whole period after
    /// confirming one is not cut.
    #[test]
    fn oscillation_is_cut_at_a_confirmed_repeat() {
        let c = library::figure1b();
        for cfg in [naive_cfg(&c), por_cfg(&c)] {
            for (k, want) in [(1000, (999, 1, 984)), (17, (16, 1, 4)), (16, (15, 0, 0))] {
                let mut st = Settler::new(&c, &Injection::none(), &SettlerConfig { k, ..cfg });
                let r = st.settle(c.initial_state(), 0b01);
                assert!(matches!(r, Settle::Unstable(_)), "k {k}: {r:?}");
                let s = st.take_stats();
                assert_eq!(
                    (s.states_explored, s.cycle_cuts, s.fast_forwarded),
                    want,
                    "k {k}, por {}",
                    cfg.por
                );
            }
        }
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
