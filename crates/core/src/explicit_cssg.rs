//! Explicit CSSG construction: enumerate stable states and validate every
//! input pattern with the k-bounded settling analysis.
//!
//! Two entry points share one semantics: [`build_cssg`] explores the
//! reachable stable states serially, [`build_cssg_sharded`] splits the
//! reachability frontier across worker threads (each with its private
//! interleaving-set tracking inside [`settle_explicit`]) and then merges
//! deterministically — the result is **bit-identical** to the serial
//! build for any shard count (see `crates/core/DESIGN.md`).

use crate::cssg::Cssg;
use crate::error::CoreError;
use crate::Result;
use satpg_netlist::{pattern_count, Bits, Circuit, Pattern};
use satpg_sim::{CapPolicy, Injection, Settle, SettleStats, Settler, SettlerConfig};
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};

/// Configuration for [`build_cssg`].
#[derive(Clone, Copy, Debug)]
pub struct CssgConfig {
    /// Transition bound `k`; `None` picks `4·gates + 4` (§4.1's test-cycle
    /// estimation with a generous constant).
    pub k: Option<usize>,
    /// Cap on the number of CSSG stable states.
    pub max_states: usize,
    /// Cap policy for the interleaving set tracked per settling analysis
    /// (the old fixed `max_settle_states = 2^15` is
    /// `CapPolicy::Fixed(1 << 15)`; the default scales with circuit
    /// size).
    pub settle_cap: CapPolicy,
    /// Partial-order reduction over commuting gate switchings inside
    /// every settling analysis.  Sound — the built graph is bit-identical
    /// to the naive walk wherever the naive walk completes — and it is
    /// what keeps the deep generated families (muller ≥ 19) from
    /// truncating.
    pub por: bool,
    /// Accept ternary-definite settles without the exhaustive analysis.
    pub ternary_fast_path: bool,
    /// Cap on the number of input patterns *tried* per stable state
    /// (ascending pattern order; the state's own pattern never counts).
    /// `None` enumerates all `2^inputs − 1` candidates — exhaustive, the
    /// historical behaviour, and mandatory below 64 inputs to keep every
    /// existing graph bit-identical.  Past 63 inputs exhaustive
    /// enumeration is impossible and a budget is required
    /// ([`CoreError::PatternBudgetRequired`]); candidates beyond the
    /// budget are counted in [`Cssg::patterns_skipped`], never silently
    /// dropped.
    pub pattern_budget: Option<u64>,
}

impl Default for CssgConfig {
    fn default() -> Self {
        CssgConfig {
            k: None,
            max_states: 1 << 14,
            settle_cap: CapPolicy::default_scaled(),
            por: true,
            ternary_fast_path: true,
            pattern_budget: None,
        }
    }
}

impl CssgConfig {
    /// The settling-engine configuration this CSSG config induces.
    pub fn settler(&self, ckt: &Circuit) -> SettlerConfig {
        SettlerConfig {
            k: self.k.unwrap_or(4 * ckt.num_gates() + 4),
            cap: self.settle_cap,
            por: self.por,
            ternary_fast_path: self.ternary_fast_path,
        }
    }
}

/// The shared precondition prologue of both builders: a divergence here
/// would let one entry point accept circuits the other rejects.
fn validate(ckt: &Circuit, cfg: &CssgConfig) -> Result<()> {
    if ckt.num_inputs() > 63 && cfg.pattern_budget.is_none() {
        return Err(CoreError::PatternBudgetRequired(ckt.num_inputs()));
    }
    if ckt.outputs().len() > 64 {
        return Err(CoreError::TooManyOutputs(ckt.outputs().len()));
    }
    if !ckt.is_stable(ckt.initial_state()) {
        return Err(CoreError::NoStableReset);
    }
    Ok(())
}

/// How many candidate patterns the budget leaves untried per state —
/// a pure function of (inputs, budget), so the serial and sharded
/// builders account identically.  Saturating: past 63 inputs the true
/// candidate count does not fit a word.
fn skipped_per_state(num_inputs: usize, budget: Option<u64>) -> u64 {
    let Some(budget) = budget else { return 0 };
    let candidates = pattern_count(num_inputs).map(|t| t - 1).unwrap_or(u64::MAX);
    candidates.saturating_sub(budget)
}

/// Builds the CSSG of `ckt` from its reset state by forward exploration:
/// every input pattern is tried in every discovered stable state, and
/// kept only when the settling analysis proves confluence within `k`
/// transitions.
///
/// Patterns equal to the state's current inputs are skipped (the paper's
/// `R_I` requires at least one input to change).
///
/// # Errors
///
/// [`CoreError::NoStableReset`] if the reset state is unstable,
/// [`CoreError::PatternBudgetRequired`] for more than 63 inputs without
/// a pattern budget, or [`CoreError::CssgOverflow`] when the state
/// budget is exceeded.
pub fn build_cssg(ckt: &Circuit, cfg: &CssgConfig) -> Result<Cssg> {
    validate(ckt, cfg)?;
    let scfg = cfg.settler(ckt);
    let _span = satpg_trace::span!(
        "cssg.build",
        circuit = ckt.name(),
        gates = ckt.num_gates(),
        k = scfg.k
    );
    let mut settler = Settler::new(ckt, &Injection::none(), &scfg);
    let mut cssg = Cssg::new(ckt.num_inputs(), scfg.k);
    let root = cssg.intern(ckt.initial_state().clone());
    let mut work = vec![root];
    let budget = cfg.pattern_budget.unwrap_or(u64::MAX);
    while let Some(si) = work.pop() {
        let state = cssg.states()[si].clone();
        let current = ckt.input_pattern(&state);
        let mut tried = 0u64;
        for pattern in Pattern::all(ckt.num_inputs()) {
            if tried >= budget {
                break;
            }
            if pattern == current {
                continue;
            }
            tried += 1;
            match settler.settle(&state, &pattern) {
                Settle::Confluent(next) => {
                    let known = cssg.state_index(&next).is_some();
                    let ni = cssg.intern(next);
                    if cssg.num_states() > cfg.max_states {
                        return Err(CoreError::CssgOverflow(cfg.max_states));
                    }
                    cssg.add_edge(si, pattern, ni);
                    if !known {
                        work.push(ni);
                    }
                }
                Settle::NonConfluent(_) => cssg.note_nonconfluent(),
                Settle::Unstable(_) => cssg.note_unstable(),
                // The interleaving set blew its cap: the pair is dropped
                // without a verdict — a truncation, not a proof.
                Settle::Truncated => cssg.note_truncated(),
            }
        }
    }
    cssg.note_settle_stats(settler.stats());
    let skip = skipped_per_state(ckt.num_inputs(), cfg.pattern_budget);
    cssg.note_patterns_skipped(skip.saturating_mul(cssg.num_states() as u64));
    cssg.sort_edges();
    note_build_metrics(&cssg, settler.stats());
    Ok(cssg)
}

/// Feeds one completed build's telemetry into the process metrics
/// registry (`cssg.*`, `settler.*`).  Write-only: nothing here is ever
/// read back into a build.
fn note_build_metrics(cssg: &Cssg, settle: &SettleStats) {
    let m = satpg_trace::metrics();
    m.counter("cssg.builds").inc();
    m.counter("cssg.patterns_skipped")
        .add(cssg.patterns_skipped());
    m.gauge("cssg.last_patterns_skipped")
        .set(cssg.patterns_skipped().min(i64::MAX as u64) as i64);
    m.histogram("cssg.states").record(cssg.num_states() as u64);
    m.histogram("cssg.edges").record(cssg.num_edges() as u64);
    settle.flush_metrics();
}

/// Shared exploration state of the sharded builder: the global intern
/// table plus the work queue of `(state, pattern)` pairs still awaiting
/// their settling analysis.  The pair — not the state — is the work
/// unit, so even a chain-shaped CSSG (e.g. a deep Muller pipeline,
/// whose frontier rarely holds more than a couple of states) exposes
/// `patterns − 1` units of parallelism per discovered state.  Workers
/// hold the lock only to pop work and intern successors; every settling
/// analysis runs outside it.
struct Explore {
    index: HashMap<Bits, u32>,
    states: Vec<Bits>,
    /// Per queued state: a lazy pattern cursor.  Patterns are dealt one
    /// at a time — a wide-input circuit has `2^inputs` of them per
    /// state, so materializing the pairs (as the first cut of this code
    /// did) would hold the lock for an exponential push burst where the
    /// serial builder loops in O(1) memory.
    queue: VecDeque<Cursor>,
    /// Workers currently mid-analysis (their successors are not queued
    /// yet, so an empty queue alone does not mean done).
    active: usize,
    /// Set on state-budget overflow; everyone drains and exits.
    overflow: bool,
}

/// A state's pattern cursor: deals candidates in ascending order, the
/// exact enumeration the serial builder walks.
struct Cursor {
    id: u32,
    /// Next pattern to hand out; `None` once the enumeration wrapped.
    next: Option<Pattern>,
    /// The state's own pattern — skipped without consuming budget (the
    /// paper's `R_I` requires an input change).
    own: Pattern,
    /// Candidates dealt so far, against the per-state pattern budget.
    dealt: u64,
}

impl Explore {
    /// Interns `state`, queueing a fresh pattern cursor for a newly
    /// discovered one.  Returns the id, or `None` on state-budget
    /// overflow.
    fn intern(&mut self, ckt: &Circuit, state: Bits, max_states: usize) -> Option<u32> {
        if let Some(&i) = self.index.get(&state) {
            return Some(i);
        }
        let i = self.states.len() as u32;
        let current = ckt.input_pattern(&state);
        self.index.insert(state.clone(), i);
        self.states.push(state);
        if self.states.len() > max_states {
            self.overflow = true;
            return None;
        }
        self.queue.push_back(Cursor {
            id: i,
            next: Some(Pattern::zeros(ckt.num_inputs())),
            own: current,
            dealt: 0,
        });
        Some(i)
    }

    /// Deals the next `(state, pattern)` pair, skipping each state's
    /// own pattern and retiring cursors that are exhausted or out of
    /// budget.
    fn next_pair(&mut self, budget: u64) -> Option<(u32, Pattern)> {
        loop {
            let cur = self.queue.front_mut()?;
            if cur.dealt >= budget {
                self.queue.pop_front();
                continue;
            }
            let Some(pattern) = cur.next.take() else {
                self.queue.pop_front();
                continue;
            };
            let mut succ = pattern.clone();
            if succ.increment() {
                cur.next = Some(succ);
            }
            if pattern == cur.own {
                continue;
            }
            cur.dealt += 1;
            return Some((cur.id, pattern));
        }
    }
}

/// One worker's private discoveries, merged after the join.
#[derive(Default)]
struct ShardResult {
    /// `(from, pattern, to)` over exploration-order state ids.
    edges: Vec<(u32, Pattern, u32)>,
    nonconfluent: usize,
    unstable: usize,
    truncated: usize,
    /// The worker's private settling-engine counters.  Each (state,
    /// pattern) pair is analysed by exactly one worker and each analysis
    /// is deterministic, so the sum over workers equals the serial
    /// builder's counters for every shard count.
    settle: SettleStats,
}

/// [`build_cssg`] with the frontier split across `shards` worker
/// threads.
///
/// The exploration interns states in a nondeterministic (scheduling
/// dependent) order, so the merge renumbers them by replaying the serial
/// builder's traversal over the completed edge relation: depth-first
/// from the reset state, successors pushed in ascending pattern order.
/// Serial numbering is a pure function of the graph, so the renumbered
/// result — states, edge lists, and the summed pruning/truncation
/// counters — is bit-identical to [`build_cssg`]'s for every shard
/// count (`shards <= 1` simply dispatches to the serial builder, which
/// skips the locking and the merge).
///
/// # Errors
///
/// Exactly the conditions of [`build_cssg`].
pub fn build_cssg_sharded(ckt: &Circuit, cfg: &CssgConfig, shards: usize) -> Result<Cssg> {
    if shards <= 1 {
        return build_cssg(ckt, cfg);
    }
    validate(ckt, cfg)?;
    let scfg = cfg.settler(ckt);
    let build_span = satpg_trace::span!(
        "cssg.build",
        circuit = ckt.name(),
        gates = ckt.num_gates(),
        k = scfg.k,
        shards = shards
    );
    let build_span_id = build_span.id();
    let mut explore = Explore {
        index: HashMap::new(),
        states: Vec::new(),
        queue: VecDeque::new(),
        active: 0,
        overflow: false,
    };
    explore.intern(ckt, ckt.initial_state().clone(), cfg.max_states);
    let shared = Mutex::new(explore);
    let work_cv = Condvar::new();

    let scfg_ref = &scfg;
    let shared_ref = &shared;
    let cv_ref = &work_cv;
    let results: Vec<ShardResult> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..shards)
            .map(|shard| {
                scope.spawn(move || {
                    shard_loop(ckt, scfg_ref, cfg, shared_ref, cv_ref, shard, build_span_id)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("CSSG shard worker panicked"))
            .collect()
    });

    let explore = shared.into_inner().expect("exploration lock");
    if explore.overflow {
        return Err(CoreError::CssgOverflow(cfg.max_states));
    }
    let _merge_span = satpg_trace::span!("cssg.merge", states = explore.states.len());
    merge_shards(ckt, &scfg, cfg, explore, &results)
}

/// One shard's loop: pop a `(state, pattern)` pair, run its k-bounded
/// settling analysis privately, publish the verdict under the lock.
fn shard_loop(
    ckt: &Circuit,
    scfg: &SettlerConfig,
    cfg: &CssgConfig,
    shared: &Mutex<Explore>,
    work_cv: &Condvar,
    shard: usize,
    parent_span: u64,
) -> ShardResult {
    // The shard's span parents under the build span on the spawning
    // thread; recording stays in this thread's private buffer, so
    // shards never synchronize through the tracer.
    let _span = satpg_trace::Span::enter_with_parent(
        "cssg.shard",
        parent_span,
        vec![("shard", satpg_trace::ArgValue::from(shard))],
    );
    // Each shard runs its own settling engine: the interleaving-set
    // tracking (and the POR bookkeeping) is thread-private, so the
    // expensive analyses never contend on the exploration lock.
    let mut settler = Settler::new(ckt, &Injection::none(), scfg);
    let budget = cfg.pattern_budget.unwrap_or(u64::MAX);
    let mut local = ShardResult::default();
    // A worker usually deals consecutive patterns of the same state (a
    // cursor drains front-of-queue), so cache the last state and clone
    // under the lock only when the id changes.
    let mut cached: Option<(u32, Bits)> = None;
    loop {
        // Pop the next pair (or conclude the exploration is complete:
        // queue empty and nobody mid-analysis).
        let (si, pattern) = {
            let mut ex = shared.lock().expect("exploration lock");
            loop {
                if ex.overflow {
                    local.settle = settler.take_stats();
                    return local;
                }
                if let Some((si, pattern)) = ex.next_pair(budget) {
                    ex.active += 1;
                    if cached.as_ref().map(|c| c.0) != Some(si) {
                        cached = Some((si, ex.states[si as usize].clone()));
                    }
                    break (si, pattern);
                }
                if ex.active == 0 {
                    work_cv.notify_all();
                    local.settle = settler.take_stats();
                    return local;
                }
                ex = work_cv.wait(ex).expect("exploration lock");
            }
        };
        let state = &cached.as_ref().expect("state cached at pop").1;

        // The expensive part — the settling analysis, with this thread's
        // private interleaving-set tracking — runs unlocked.
        let verdict = settler.settle(state, &pattern);

        let mut ex = shared.lock().expect("exploration lock");
        match verdict {
            Settle::Confluent(next) => match ex.intern(ckt, next, cfg.max_states) {
                Some(ni) => {
                    local.edges.push((si, pattern, ni));
                    // A new state enqueues a burst of pairs; wake every
                    // idle shard, not just one.
                    work_cv.notify_all();
                }
                None => {
                    work_cv.notify_all();
                    local.settle = settler.take_stats();
                    return local;
                }
            },
            Settle::NonConfluent(_) => local.nonconfluent += 1,
            Settle::Unstable(_) => local.unstable += 1,
            // The interleaving set blew its cap: the pair is dropped
            // without a verdict — a truncation, not a proof.
            Settle::Truncated => local.truncated += 1,
        }
        ex.active -= 1;
        if ex.active == 0 {
            // Wake everyone: either the exploration is done (waiters see
            // an empty queue — possibly after retiring a cursor this
            // worker exhausted — and exit) or a cursor remains and they
            // resume dealing from it.
            work_cv.notify_all();
        }
    }
}

/// Deterministic merge: collect per-state edge lists, replay the serial
/// traversal to renumber, and assemble the final [`Cssg`].
fn merge_shards(
    ckt: &Circuit,
    scfg: &SettlerConfig,
    cfg: &CssgConfig,
    explore: Explore,
    results: &[ShardResult],
) -> Result<Cssg> {
    let n = explore.states.len();
    let mut edges_of: Vec<Vec<(Pattern, u32)>> = vec![Vec::new(); n];
    for r in results {
        for (from, pattern, to) in &r.edges {
            edges_of[*from as usize].push((pattern.clone(), *to));
        }
    }
    // Each state is analysed by exactly one worker, which pushes its
    // edges in ascending pattern order — but sort anyway so the replay
    // below never depends on that invariant.
    for e in &mut edges_of {
        e.sort_unstable();
    }

    // Replay the serial builder's numbering: depth-first stack, new
    // successors interned in ascending pattern order.
    let unassigned = u32::MAX;
    let mut new_of = vec![unassigned; n];
    let mut order: Vec<u32> = Vec::with_capacity(n);
    new_of[0] = 0;
    order.push(0);
    let mut stack = vec![0u32];
    while let Some(o) = stack.pop() {
        for (_, t) in &edges_of[o as usize] {
            let t = *t;
            if new_of[t as usize] == unassigned {
                new_of[t as usize] = order.len() as u32;
                order.push(t);
                stack.push(t);
            }
        }
    }
    debug_assert_eq!(order.len(), n, "every explored state is reachable");

    let mut cssg = Cssg::new(ckt.num_inputs(), scfg.k);
    for &old in &order {
        cssg.intern(explore.states[old as usize].clone());
    }
    for (old, edges) in edges_of.iter().enumerate() {
        let from = new_of[old] as usize;
        for (pattern, to) in edges {
            cssg.add_edge(from, pattern, new_of[*to as usize] as usize);
        }
    }
    for r in results {
        cssg.note_nonconfluent_n(r.nonconfluent);
        cssg.note_unstable_n(r.unstable);
        cssg.note_truncated_n(r.truncated);
        cssg.note_settle_stats(&r.settle);
    }
    let skip = skipped_per_state(ckt.num_inputs(), cfg.pattern_budget);
    cssg.note_patterns_skipped(skip.saturating_mul(cssg.num_states() as u64));
    cssg.sort_edges();
    note_build_metrics(&cssg, cssg.settle_stats());
    Ok(cssg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_netlist::library;

    #[test]
    fn c_element_cssg_is_complete() {
        let ckt = library::c_element();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        // Stable states: y=0 with any inputs not both 1; y=1 with any
        // inputs not both 0 — 3 + 3 = 6... but only those reachable from
        // reset (A=B=y=0).
        assert!(g.num_states() >= 4, "got {}", g.num_states());
        // From reset every pattern change is confluent: raising one or
        // both inputs of a low C-element cannot race.
        assert_eq!(g.edges(0).len(), 3);
        // But elsewhere simultaneous opposite input changes race against
        // the held state (e.g. AB: 10 → 01 with y=1), so pruning happens.
        assert!(g.pruned_nonconfluent() > 0);
    }

    #[test]
    fn figure1a_prunes_racy_pattern() {
        let ckt = library::figure1a();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        // From the reset state (A=0, B=1) the pattern AB=10 races; it must
        // be pruned while other patterns stay.
        let reset = g.initial();
        assert!(g.successor(reset, 0b01).is_none(), "racing vector pruned");
        assert!(g.pruned_nonconfluent() > 0);
    }

    #[test]
    fn figure1b_prunes_oscillating_pattern() {
        let ckt = library::figure1b();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let reset = g.initial();
        // Raising A (pattern bit 0) oscillates.
        assert!(g.successor(reset, 0b01).is_none());
        assert!(g.successor(reset, 0b11).is_none());
        assert!(g.pruned_unstable() > 0);
        // Raising B alone is harmless.
        assert!(g.successor(reset, 0b10).is_some());
    }

    #[test]
    fn edges_form_closed_graph() {
        for ckt in library::all() {
            let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
            for s in 0..g.num_states() {
                assert!(ckt.is_stable(&g.states()[s]), "{}: state {s}", ckt.name());
                for (p, t) in g.edges(s) {
                    assert!(*t < g.num_states());
                    assert_eq!(
                        &ckt.input_pattern(&g.states()[*t]),
                        p,
                        "{}: successor holds the applied pattern",
                        ckt.name()
                    );
                }
            }
        }
    }

    #[test]
    fn unstable_reset_is_rejected() {
        use satpg_netlist::{CircuitBuilder, GateKind};
        let mut b = CircuitBuilder::new("osc");
        let a = b.input("A", "a");
        let fb = b.signal("x");
        b.gate("y", GateKind::Nand, vec![a, fb]);
        let y = b.signal("y");
        b.gate("x", GateKind::Buf, vec![y]);
        b.init("A", true);
        b.init("a", true);
        b.init("y", true);
        // x=0 but buf(y)=1: excited at reset.
        let ckt = b.finish();
        // The builder itself rejects unstable initial states, so this
        // construction cannot even produce a circuit — which is the same
        // guarantee CssgConfig relies on.
        assert!(ckt.is_err());
    }

    #[test]
    fn self_pattern_is_skipped() {
        let ckt = library::c_element();
        let g = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        for s in 0..g.num_states() {
            let cur = ckt.input_pattern(&g.states()[s]);
            assert!(g.successor(s, cur).is_none(), "no self-pattern edges");
        }
    }

    /// Field-by-field bit identity of two CSSGs (states in order, edge
    /// lists in order, every counter).
    fn assert_identical(a: &Cssg, b: &Cssg, ctx: &str) {
        assert_eq!(a.k(), b.k(), "{ctx}: k");
        assert_eq!(a.num_inputs(), b.num_inputs(), "{ctx}: inputs");
        assert_eq!(a.states(), b.states(), "{ctx}: state vector");
        for s in 0..a.num_states() {
            assert_eq!(a.edges(s), b.edges(s), "{ctx}: edges of state {s}");
        }
        assert_eq!(
            a.pruned_nonconfluent(),
            b.pruned_nonconfluent(),
            "{ctx}: non-confluent"
        );
        assert_eq!(a.pruned_unstable(), b.pruned_unstable(), "{ctx}: unstable");
        assert_eq!(
            a.pruned_truncated(),
            b.pruned_truncated(),
            "{ctx}: truncated"
        );
        assert_eq!(
            a.patterns_skipped(),
            b.patterns_skipped(),
            "{ctx}: patterns skipped"
        );
        // Work counters too: every pair is analysed exactly once by a
        // deterministic engine, so even the POR ledger matches.
        assert_eq!(a.settle_stats(), b.settle_stats(), "{ctx}: settle stats");
    }

    #[test]
    fn sharded_build_is_bit_identical_on_library() {
        for ckt in library::all() {
            let serial = build_cssg(&ckt, &CssgConfig::default()).unwrap();
            for shards in 1..=4 {
                let sharded = build_cssg_sharded(&ckt, &CssgConfig::default(), shards).unwrap();
                assert_identical(
                    &serial,
                    &sharded,
                    &format!("{} @ {shards} shards", ckt.name()),
                );
            }
        }
    }

    #[test]
    fn sharded_build_matches_under_exact_semantics() {
        // The exact (no ternary fast path) semantics exercises the
        // interleaving-set tracking on every pattern.
        let cfg = CssgConfig {
            ternary_fast_path: false,
            ..CssgConfig::default()
        };
        let ckt = library::muller_pipeline2();
        let serial = build_cssg(&ckt, &cfg).unwrap();
        let sharded = build_cssg_sharded(&ckt, &cfg, 3).unwrap();
        assert_identical(&serial, &sharded, "muller_pipeline2 exact");
    }

    #[test]
    fn sharded_build_reports_overflow_like_serial() {
        let ckt = library::muller_pipeline2();
        let cfg = CssgConfig {
            max_states: 2,
            ..CssgConfig::default()
        };
        assert!(matches!(
            build_cssg(&ckt, &cfg),
            Err(CoreError::CssgOverflow(2))
        ));
        for shards in [1, 4] {
            assert!(
                matches!(
                    build_cssg_sharded(&ckt, &cfg, shards),
                    Err(CoreError::CssgOverflow(2))
                ),
                "{shards} shards"
            );
        }
    }

    #[test]
    fn small_k_prunes_slow_settles() {
        let ckt = library::muller_pipeline2();
        let strict = CssgConfig {
            k: Some(2),
            ternary_fast_path: false,
            ..CssgConfig::default()
        };
        let loose = CssgConfig::default();
        let gs = build_cssg(&ckt, &strict).unwrap();
        let gl = build_cssg(&ckt, &loose).unwrap();
        assert!(gs.num_edges() < gl.num_edges(), "k gates the edge set");
    }
}
