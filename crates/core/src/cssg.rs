//! The Confluent Stable State Graph: the synchronous FSM abstraction.

use satpg_netlist::{Bits, Circuit, IntoPattern, Pattern};
use satpg_sim::SettleStats;
use std::collections::HashMap;

/// A sequence of input patterns applied from the reset state, one per
/// test cycle.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct TestSequence {
    /// The input patterns, in application order (bit `i` drives primary
    /// input `i`).
    pub patterns: Vec<Pattern>,
}

impl TestSequence {
    /// Builds a sequence of `num_inputs`-bit patterns from plain words
    /// (the pre-multi-word construction shape, kept for tests and small
    /// circuits).
    pub fn from_u64(num_inputs: usize, patterns: &[u64]) -> Self {
        TestSequence {
            patterns: patterns
                .iter()
                .map(|&p| Pattern::from_u64(num_inputs, p))
                .collect(),
        }
    }

    /// The number of test cycles.
    pub fn len(&self) -> usize {
        self.patterns.len()
    }

    /// Whether the sequence is empty.
    pub fn is_empty(&self) -> bool {
        self.patterns.is_empty()
    }
}

/// The k-step Confluent Stable State Graph (CSSG) of §4 of the paper.
///
/// Nodes are stable states reachable in test mode from the reset state;
/// an edge `(s, v) → s'` exists iff applying input pattern `v` to `s`
/// settles *every* interleaving of gate switchings to the single stable
/// state `s'` within `k` transitions.  The result is a deterministic
/// synchronous FSM on which standard sequential ATPG techniques operate.
#[derive(Clone, Debug)]
pub struct Cssg {
    num_inputs: usize,
    k: usize,
    states: Vec<Bits>,
    index: HashMap<Bits, usize>,
    /// Per state: `(pattern, successor)`, sorted by pattern.
    edges: Vec<Vec<(Pattern, usize)>>,
    /// Number of (state, pattern) pairs pruned for non-confluence.
    pruned_nonconfluent: usize,
    /// Number pruned for oscillation / settling past `k`.
    pruned_unstable: usize,
    /// Number of (state, pattern) pairs dropped because a *resource*
    /// limit truncated their analysis rather than a semantic verdict:
    /// the explicit builder's interleaving-set cap, or a symbolic TCR
    /// iteration that ran out of depth before reaching its fixpoint.
    /// A non-zero count means "untestable" verdicts downstream may be
    /// truncation artifacts, not real redundancy.
    pruned_truncated: usize,
    /// Number of (state, pattern) pairs never *tried* because the
    /// per-state pattern budget ran out (only possible when
    /// `CssgConfig::pattern_budget` caps enumeration).  Saturating.
    /// A non-zero count means the graph under-approximates the true
    /// CSSG: downstream "untestable" verdicts may be budget artifacts.
    patterns_skipped: u64,
    /// Aggregated settling-engine counters of the construction: state
    /// expansions performed, and how much the partial-order reduction
    /// saved.  Diagnostics only — excluded from bit-identity comparisons
    /// between differently-configured builds.
    settle_stats: SettleStats,
}

impl Cssg {
    pub(crate) fn new(num_inputs: usize, k: usize) -> Self {
        Cssg {
            num_inputs,
            k,
            states: Vec::new(),
            index: HashMap::new(),
            edges: Vec::new(),
            pruned_nonconfluent: 0,
            pruned_unstable: 0,
            pruned_truncated: 0,
            patterns_skipped: 0,
            settle_stats: SettleStats::default(),
        }
    }

    pub(crate) fn intern(&mut self, state: Bits) -> usize {
        match self.index.get(&state) {
            Some(&i) => i,
            None => {
                let i = self.states.len();
                self.index.insert(state.clone(), i);
                self.states.push(state);
                self.edges.push(Vec::new());
                i
            }
        }
    }

    pub(crate) fn add_edge(&mut self, from: usize, pattern: impl IntoPattern, to: usize) {
        let p = pattern.into_pattern(self.num_inputs);
        self.edges[from].push((p, to));
    }

    pub(crate) fn sort_edges(&mut self) {
        for e in &mut self.edges {
            e.sort_unstable();
            e.dedup();
        }
    }

    pub(crate) fn note_nonconfluent(&mut self) {
        self.pruned_nonconfluent += 1;
    }

    pub(crate) fn note_unstable(&mut self) {
        self.pruned_unstable += 1;
    }

    pub(crate) fn note_truncated(&mut self) {
        self.pruned_truncated += 1;
    }

    pub(crate) fn note_unstable_n(&mut self, n: usize) {
        self.pruned_unstable += n;
    }

    pub(crate) fn note_nonconfluent_n(&mut self, n: usize) {
        self.pruned_nonconfluent += n;
    }

    pub(crate) fn note_truncated_n(&mut self, n: usize) {
        self.pruned_truncated += n;
    }

    pub(crate) fn note_patterns_skipped(&mut self, n: u64) {
        self.patterns_skipped = self.patterns_skipped.saturating_add(n);
    }

    pub(crate) fn note_settle_stats(&mut self, stats: &SettleStats) {
        self.settle_stats.absorb(stats);
    }

    /// The transition bound `k` used during construction.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of primary inputs of the underlying circuit.
    pub fn num_inputs(&self) -> usize {
        self.num_inputs
    }

    /// The stable states; index 0 is the reset state.
    pub fn states(&self) -> &[Bits] {
        &self.states
    }

    /// Number of stable states.
    pub fn num_states(&self) -> usize {
        self.states.len()
    }

    /// Number of valid (state, pattern) edges.
    pub fn num_edges(&self) -> usize {
        self.edges.iter().map(Vec::len).sum()
    }

    /// Outgoing edges of state `i`, sorted by pattern.
    pub fn edges(&self, i: usize) -> &[(Pattern, usize)] {
        &self.edges[i]
    }

    /// The reset state index (always 0).
    pub fn initial(&self) -> usize {
        0
    }

    /// The successor of state `i` under `pattern`, if the pattern is
    /// valid there.
    pub fn successor(&self, i: usize, pattern: impl IntoPattern) -> Option<usize> {
        let pattern = pattern.into_pattern(self.num_inputs);
        self.edges[i]
            .binary_search_by(|(p, _)| p.cmp(&pattern))
            .ok()
            .map(|pos| self.edges[i][pos].1)
    }

    /// Index of a stable state, if present.
    pub fn state_index(&self, state: &Bits) -> Option<usize> {
        self.index.get(state).copied()
    }

    /// How many (state, pattern) pairs were pruned as non-confluent.
    pub fn pruned_nonconfluent(&self) -> usize {
        self.pruned_nonconfluent
    }

    /// How many (state, pattern) pairs were pruned as unstable within `k`.
    pub fn pruned_unstable(&self) -> usize {
        self.pruned_unstable
    }

    /// How many (state, pattern) pairs were dropped at a resource limit
    /// (interleaving-set cap or TCR depth exhaustion) rather than by a
    /// semantic verdict.  The truncation diagnostic for the "coverage
    /// collapse: truncation vs real redundancy" question.
    pub fn pruned_truncated(&self) -> usize {
        self.pruned_truncated
    }

    /// How many (state, pattern) pairs were never analyzed because the
    /// construction's pattern budget ran out (saturating; zero for
    /// exhaustive builds).
    pub fn patterns_skipped(&self) -> u64 {
        self.patterns_skipped
    }

    /// Settling-engine counters of the construction: how many state
    /// expansions the interleaving analyses performed, how many
    /// expansions the partial-order reduction collapsed
    /// (`settle_stats().por_states`) and how many successor branches it
    /// pruned (`settle_stats().por_pruned`).
    ///
    /// Deterministic for a given configuration (and identical between
    /// the serial and sharded builders), but *not* part of the graph's
    /// bit identity across configurations: a POR build and a naive build
    /// of the same circuit have identical states/edges/pruning counters
    /// yet different work counters — that difference is the point.
    pub fn settle_stats(&self) -> &SettleStats {
        &self.settle_stats
    }

    /// Replays a test sequence on the good machine, returning the state
    /// index after each cycle, or `None` at the first invalid pattern.
    pub fn replay(&self, seq: &TestSequence) -> Option<Vec<usize>> {
        let mut cur = self.initial();
        let mut out = Vec::with_capacity(seq.len());
        for p in &seq.patterns {
            cur = self.successor(cur, p)?;
            out.push(cur);
        }
        Some(out)
    }

    /// Primary-output values of state `i` under `circuit`.
    pub fn outputs(&self, circuit: &Circuit, i: usize) -> u64 {
        circuit.output_values(&self.states[i])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cssg {
        // 0 --1--> 1 --0--> 2 ; 2 --3--> 0
        let mut g = Cssg::new(2, 8);
        let a = g.intern(Bits::from_str01("00").unwrap());
        let b = g.intern(Bits::from_str01("01").unwrap());
        let c = g.intern(Bits::from_str01("11").unwrap());
        g.add_edge(a, 1, b);
        g.add_edge(b, 0, c);
        g.add_edge(c, 3, a);
        g.sort_edges();
        g
    }

    #[test]
    fn intern_deduplicates() {
        let mut g = Cssg::new(1, 4);
        let s = Bits::from_str01("10").unwrap();
        assert_eq!(g.intern(s.clone()), 0);
        assert_eq!(g.intern(s), 0);
        assert_eq!(g.num_states(), 1);
    }

    #[test]
    fn successor_lookup() {
        let g = tiny();
        assert_eq!(g.successor(0, 1), Some(1));
        assert_eq!(g.successor(0, 2), None);
        assert_eq!(g.num_edges(), 3);
    }

    #[test]
    fn replay_follows_edges() {
        let g = tiny();
        let seq = TestSequence::from_u64(2, &[1, 0, 3]);
        assert_eq!(g.replay(&seq), Some(vec![1, 2, 0]));
        let bad = TestSequence::from_u64(2, &[2]);
        assert_eq!(g.replay(&bad), None);
    }
}
