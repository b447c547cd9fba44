//! The BDD manager: node storage, unique table and core operations.

use crate::hash::FxMap;
use std::fmt;

/// A handle to a BDD node owned by a [`Manager`].
///
/// Handles are plain indices; they are only meaningful together with the
/// manager that created them.  The constants [`Bdd::FALSE`] and
/// [`Bdd::TRUE`] are the terminals and are valid for every manager.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Bdd(pub(crate) u32);

impl Bdd {
    /// The constant-false terminal.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant-true terminal.
    pub const TRUE: Bdd = Bdd(1);

    /// Whether this is one of the two terminals.
    #[inline]
    pub fn is_const(self) -> bool {
        self.0 <= 1
    }

    /// Whether this is the true terminal.
    #[inline]
    pub fn is_true(self) -> bool {
        self.0 == 1
    }

    /// Whether this is the false terminal.
    #[inline]
    pub fn is_false(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Debug for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => write!(f, "Bdd(FALSE)"),
            Bdd::TRUE => write!(f, "Bdd(TRUE)"),
            Bdd(i) => write!(f, "Bdd({i})"),
        }
    }
}

#[derive(Clone, Copy)]
struct Node {
    var: u32,
    lo: Bdd,
    hi: Bdd,
}

/// Variable index used by terminal nodes (below every real variable).
const TERM_VAR: u32 = u32::MAX;

/// Poison variable index written into swept node slots so debug builds
/// catch use-after-GC of unrooted handles.
const FREE_VAR: u32 = u32::MAX - 1;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
    Not,
    Ite,
}

/// A move-only token witnessing that a BDD is protected from garbage
/// collection (see [`Manager::root`]).
///
/// A `Root` is deliberately not `Clone`/`Copy`: every `root` must be
/// paired with exactly one [`Manager::release`].  The underlying handle
/// stays plain data — read it with [`Root::bdd`] and pass it to
/// operations freely while the root is held.
#[must_use = "an unreleased Root pins its nodes for the manager's lifetime"]
#[derive(Debug)]
pub struct Root(Bdd);

impl Root {
    /// The rooted handle.
    #[inline]
    pub fn bdd(&self) -> Bdd {
        self.0
    }
}

/// Cumulative garbage-collection telemetry of a [`Manager`].
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub struct GcStats {
    /// Completed [`Manager::gc`] sweeps.
    pub runs: usize,
    /// Total nodes reclaimed across all sweeps.
    pub reclaimed: usize,
    /// Nodes reclaimed by the most recent sweep.
    pub last_reclaimed: usize,
    /// Cache generation: bumped (and the op cache dropped) by every
    /// sweep, so no cached result can ever resurrect a swept node id.
    pub generation: u64,
}

/// A hash-consed ROBDD store with an operation cache and mark-and-sweep
/// node reclamation.
///
/// All operations take `&mut self` because they may create nodes.
///
/// # Memory policy
///
/// Nodes are immortal by default (no GC ever runs), matching the
/// original behaviour.  Callers opt in to reclamation in two ways:
///
/// * **Explicit**: [`Manager::gc`] sweeps every node not reachable from
///   a rooted handle; [`Manager::gc_if_above`] does so only when the
///   live unique-table size exceeds a threshold.
/// * **Automatic**: after [`Manager::set_gc_threshold`], the public
///   operations (`and`/`or`/`xor`/`not`/`ite`/`implies`/`iff`/
///   `exists`/`forall`/`and_exists`) trigger a sweep *at entry* whenever
///   the live node count is above the threshold.  The operands of the
///   triggering call are rooted for the duration of the sweep, so the
///   call itself is always safe.
///
/// The contract in both modes: a sweep invalidates every handle that is
/// not reachable from the root set (the slot may be reused by a later
/// `mk`).  Root the BDDs you hold across operations with
/// [`Manager::protect`]/[`Manager::root`]; structural readers
/// (`eval`, `node_count`, `support`, `remap`, `restrict`) and the
/// node-builders (`var`, `cube`, [`Manager::minterms`]) never trigger
/// a sweep.  The op cache is invalidated generationally on every sweep
/// — [`Manager::clear_cache_if_above`] still applies between sweeps to
/// bound cache growth independently.
///
/// Garbage comes from operations, not from builders: a relation folded
/// together one `or` per row leaves every intermediate disjunction
/// behind, while the same relation from [`Manager::minterms`] makes only
/// the nodes of the result.  Build large constant sets with the builder
/// and the sweeps have nothing to chase.
pub struct Manager {
    nodes: Vec<Node>,
    unique: FxMap<(u32, u32, u32), u32>,
    cache: FxMap<(Op, u32, u32, u32), u32>,
    num_vars: u32,
    node_limit: usize,
    /// External reference counts: node id → number of outstanding roots.
    roots: FxMap<u32, u32>,
    /// Swept slots available for reuse, highest id first.
    free: Vec<u32>,
    /// Auto-GC trigger for the public operations; `None` = immortal.
    gc_threshold: Option<usize>,
    /// Hysteresis floor for the auto trigger: re-armed to twice the
    /// post-sweep live count so an over-threshold rooted working set
    /// does not cause a sweep per operation (see `maybe_auto_gc`).
    gc_rearm: usize,
    stats: GcStats,
    /// High-water mark of `unique.len()` over the manager's lifetime.
    peak_unique: usize,
    /// Total nodes ever created (the immortal-node baseline).
    created: usize,
}

impl fmt::Debug for Manager {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Manager({} vars, {} nodes)",
            self.num_vars,
            self.nodes.len()
        )
    }
}

impl Manager {
    /// Creates a manager with `num_vars` variables (indices `0..num_vars`).
    pub fn new(num_vars: u32) -> Self {
        let mut nodes = Vec::with_capacity(1024);
        nodes.push(Node {
            var: TERM_VAR,
            lo: Bdd::FALSE,
            hi: Bdd::FALSE,
        });
        nodes.push(Node {
            var: TERM_VAR,
            lo: Bdd::TRUE,
            hi: Bdd::TRUE,
        });
        Manager {
            nodes,
            unique: FxMap::default(),
            cache: FxMap::default(),
            num_vars,
            node_limit: 1 << 26,
            roots: FxMap::default(),
            free: Vec::new(),
            gc_threshold: None,
            gc_rearm: 0,
            stats: GcStats::default(),
            peak_unique: 0,
            created: 0,
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Grows the variable count to at least `n`.
    pub fn ensure_vars(&mut self, n: u32) {
        self.num_vars = self.num_vars.max(n);
    }

    /// Size of the node slab (live nodes, freed slots and the two
    /// terminals).  For the number of *live* decision nodes see
    /// [`Manager::unique_len`]; for live nodes including terminals see
    /// [`Manager::live_nodes`].
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live nodes (decision nodes plus the two terminals).
    pub fn live_nodes(&self) -> usize {
        self.unique.len() + 2
    }

    /// Sets the node-count limit at which operations panic (default 2²⁶).
    pub fn set_node_limit(&mut self, limit: usize) {
        self.node_limit = limit;
    }

    /// Drops the operation cache (keeps all nodes valid).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of entries in the operation cache.
    ///
    /// Together with [`Manager::num_nodes`] this is the per-manager
    /// telemetry the fault-parallel engine reports for each worker.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of entries in the unique (hash-cons) table.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    /// Bounded-cache heuristic: drops the operation cache if it has grown
    /// past `max_entries`, returning whether it was cleared.  Long-lived
    /// managers (one per engine worker) call this between unrelated
    /// computations to bound memory without invalidating any nodes.
    pub fn clear_cache_if_above(&mut self, max_entries: usize) -> bool {
        if self.cache.len() > max_entries {
            self.cache.clear();
            true
        } else {
            false
        }
    }

    // --- Rooted handles and garbage collection. -------------------------

    /// Protects `f` (and everything reachable from it) from garbage
    /// collection.  Protection is reference-counted: each `protect` must
    /// be paired with one [`Manager::unprotect`].  Terminals are always
    /// live; protecting them is a no-op.
    pub fn protect(&mut self, f: Bdd) {
        if f.is_const() {
            return;
        }
        debug_assert_ne!(
            self.nodes[f.0 as usize].var, FREE_VAR,
            "protect of a swept BDD"
        );
        *self.roots.entry(f.0).or_insert(0) += 1;
    }

    /// Drops one protection of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is not currently protected.
    pub fn unprotect(&mut self, f: Bdd) {
        if f.is_const() {
            return;
        }
        match self.roots.get_mut(&f.0) {
            Some(n) if *n > 1 => *n -= 1,
            Some(_) => {
                self.roots.remove(&f.0);
            }
            None => panic!("unprotect of a BDD that is not rooted"),
        }
    }

    /// [`Manager::protect`] returning a move-only [`Root`] token; release
    /// it with [`Manager::release`].  The token makes the pairing hard to
    /// get wrong in straight-line code.
    pub fn root(&mut self, f: Bdd) -> Root {
        self.protect(f);
        Root(f)
    }

    /// Releases a [`Root`], dropping its protection.
    pub fn release(&mut self, r: Root) {
        self.unprotect(r.0);
    }

    /// Number of distinct rooted nodes (not counting terminals).
    pub fn num_roots(&self) -> usize {
        self.roots.len()
    }

    /// Swaps a loop-carried root: protects `new`, releases `old`, and
    /// returns `new` — the idiom for `acc = f(acc, …)` accumulation
    /// loops under the rooting contract (`new` is protected first, so
    /// `reroot(x, x)` is safe).
    pub fn reroot(&mut self, old: Bdd, new: Bdd) -> Bdd {
        self.protect(new);
        self.unprotect(old);
        new
    }

    /// Sets (or clears) the auto-GC threshold: when `Some(n)`, the public
    /// operations sweep at entry whenever more than `n` decision nodes
    /// are live.  `None` (the default) restores immortal nodes.
    pub fn set_gc_threshold(&mut self, threshold: Option<usize>) {
        self.gc_threshold = threshold;
        self.gc_rearm = 0;
    }

    /// The current auto-GC threshold.
    pub fn gc_threshold(&self) -> Option<usize> {
        self.gc_threshold
    }

    /// Cumulative garbage-collection telemetry.
    pub fn gc_stats(&self) -> GcStats {
        self.stats
    }

    /// High-water mark of [`Manager::unique_len`] over the manager's
    /// lifetime — the figure the engine-scaling bench reports to compare
    /// memory policies.
    pub fn peak_unique_len(&self) -> usize {
        self.peak_unique
    }

    /// Total decision nodes ever created, counting re-creations after a
    /// sweep.  With GC disabled this equals [`Manager::unique_len`]; the
    /// gap between the two is what reclamation bought.
    pub fn created_nodes(&self) -> usize {
        self.created
    }

    /// Sweeps every decision node not reachable from the root set.
    /// Returns the number of nodes reclaimed.
    ///
    /// Reclaimed slots go on a free list and are reused by later node
    /// creations, so *unrooted* handles held across a sweep are
    /// invalidated (debug builds poison the slot and catch most uses).
    /// The op cache is dropped and the generation counter bumped, so no
    /// cached entry can refer to a swept node.
    pub fn gc(&mut self) -> usize {
        let mut marked = vec![false; self.nodes.len()];
        marked[0] = true;
        marked[1] = true;
        let mut stack: Vec<u32> = self.roots.keys().copied().collect();
        while let Some(i) = stack.pop() {
            if marked[i as usize] {
                continue;
            }
            marked[i as usize] = true;
            let n = self.nodes[i as usize];
            debug_assert_ne!(n.var, FREE_VAR, "rooted BDD points at a swept slot");
            if !marked[n.lo.0 as usize] {
                stack.push(n.lo.0);
            }
            if !marked[n.hi.0 as usize] {
                stack.push(n.hi.0);
            }
        }
        let mut reclaimed = 0usize;
        let nodes = &mut self.nodes;
        let free = &mut self.free;
        self.unique.retain(|_, &mut i| {
            if marked[i as usize] {
                true
            } else {
                nodes[i as usize] = Node {
                    var: FREE_VAR,
                    lo: Bdd::FALSE,
                    hi: Bdd::FALSE,
                };
                free.push(i);
                reclaimed += 1;
                false
            }
        });
        // Slot reuse order must not depend on hash-map iteration order;
        // highest id first keeps later allocations dense and repeatable.
        self.free.sort_unstable_by(|a, b| b.cmp(a));
        self.cache.clear();
        self.stats.runs += 1;
        self.stats.reclaimed += reclaimed;
        self.stats.last_reclaimed = reclaimed;
        self.stats.generation += 1;
        reclaimed
    }

    /// Runs [`Manager::gc`] only when more than `threshold` decision
    /// nodes are live; returns whether a sweep ran.  This is the
    /// node-table analogue of [`Manager::clear_cache_if_above`].
    pub fn gc_if_above(&mut self, threshold: usize) -> bool {
        if self.unique.len() > threshold {
            self.gc();
            true
        } else {
            false
        }
    }

    /// Auto-GC hook at the entry of every public operation: the
    /// operands are rooted across the sweep so the triggering call is
    /// self-safe, per the contract in the type-level docs.
    ///
    /// Hysteresis: when the *rooted* working set itself exceeds the
    /// threshold, sweeping at every operation would reclaim nothing and
    /// still drop the op cache each time.  After each auto sweep the
    /// trigger therefore re-arms at twice the post-sweep live count (or
    /// the threshold, whichever is larger), so consecutive sweeps only
    /// fire once a working set's worth of new garbage has accumulated.
    #[inline]
    fn maybe_auto_gc(&mut self, operands: &[Bdd]) {
        let Some(t) = self.gc_threshold else {
            return;
        };
        if self.unique.len() <= t.max(self.gc_rearm) {
            return;
        }
        for &f in operands {
            self.protect(f);
        }
        self.gc();
        self.gc_rearm = 2 * self.unique.len();
        for &f in operands {
            self.unprotect(f);
        }
    }

    #[inline]
    fn node(&self, f: Bdd) -> Node {
        let n = self.nodes[f.0 as usize];
        debug_assert_ne!(n.var, FREE_VAR, "use of a BDD swept by gc (root it)");
        n
    }

    #[inline]
    fn var_of(&self, f: Bdd) -> u32 {
        self.nodes[f.0 as usize].var
    }

    /// The variable tested at the root of `f`, or `None` for terminals.
    pub fn root_var(&self, f: Bdd) -> Option<u32> {
        let v = self.var_of(f);
        (v != TERM_VAR).then_some(v)
    }

    /// The low (variable = 0) and high (variable = 1) children of `f`.
    ///
    /// # Panics
    ///
    /// Panics if `f` is a terminal.
    pub fn children(&self, f: Bdd) -> (Bdd, Bdd) {
        assert!(!f.is_const(), "terminals have no children");
        let n = self.node(f);
        (n.lo, n.hi)
    }

    /// Finds or creates the node `(var, lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if the node limit is exceeded or ordering is violated in
    /// debug builds.
    fn mk(&mut self, var: u32, lo: Bdd, hi: Bdd) -> Bdd {
        if lo == hi {
            return lo;
        }
        debug_assert!(
            var < self.var_of(lo).min(self.var_of(hi)),
            "order violation"
        );
        let key = (var, lo.0, hi.0);
        if let Some(&i) = self.unique.get(&key) {
            return Bdd(i);
        }
        let i = match self.free.pop() {
            Some(slot) => {
                self.nodes[slot as usize] = Node { var, lo, hi };
                slot
            }
            None => {
                assert!(
                    self.nodes.len() < self.node_limit,
                    "BDD node limit ({}) exceeded",
                    self.node_limit
                );
                let i = self.nodes.len() as u32;
                self.nodes.push(Node { var, lo, hi });
                i
            }
        };
        self.unique.insert(key, i);
        self.created += 1;
        self.peak_unique = self.peak_unique.max(self.unique.len());
        Bdd(i)
    }

    /// The function of a single variable.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a declared variable.
    pub fn var(&mut self, v: u32) -> Bdd {
        assert!(v < self.num_vars, "variable {v} not declared");
        self.mk(v, Bdd::FALSE, Bdd::TRUE)
    }

    /// The negated single-variable function.
    pub fn nvar(&mut self, v: u32) -> Bdd {
        assert!(v < self.num_vars, "variable {v} not declared");
        self.mk(v, Bdd::TRUE, Bdd::FALSE)
    }

    /// A literal: `var(v)` if `positive` else `nvar(v)`.
    pub fn literal(&mut self, v: u32, positive: bool) -> Bdd {
        if positive {
            self.var(v)
        } else {
            self.nvar(v)
        }
    }

    #[inline]
    fn cofactors(&self, f: Bdd, v: u32) -> (Bdd, Bdd) {
        let n = self.node(f);
        if n.var == v {
            (n.lo, n.hi)
        } else {
            (f, f)
        }
    }

    /// Conjunction.
    pub fn and(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.maybe_auto_gc(&[f, g]);
        self.and_rec(f, g)
    }

    fn and_rec(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g {
            return f;
        }
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() {
            return g;
        }
        if g.is_true() {
            return f;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::And, a.0, b.0, 0);
        if let Some(&r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let r0 = self.and_rec(a0, b0);
        let r1 = self.and_rec(a1, b1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.maybe_auto_gc(&[f, g]);
        self.or_rec(f, g)
    }

    fn or_rec(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g {
            return f;
        }
        if f.is_true() || g.is_true() {
            return Bdd::TRUE;
        }
        if f.is_false() {
            return g;
        }
        if g.is_false() {
            return f;
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::Or, a.0, b.0, 0);
        if let Some(&r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let r0 = self.or_rec(a0, b0);
        let r1 = self.or_rec(a1, b1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.maybe_auto_gc(&[f, g]);
        self.xor_rec(f, g)
    }

    fn xor_rec(&mut self, f: Bdd, g: Bdd) -> Bdd {
        if f == g {
            return Bdd::FALSE;
        }
        if f.is_false() {
            return g;
        }
        if g.is_false() {
            return f;
        }
        if f.is_true() {
            return self.not_rec(g);
        }
        if g.is_true() {
            return self.not_rec(f);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::Xor, a.0, b.0, 0);
        if let Some(&r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let r0 = self.xor_rec(a0, b0);
        let r1 = self.xor_rec(a1, b1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
        self.maybe_auto_gc(&[f]);
        self.not_rec(f)
    }

    fn not_rec(&mut self, f: Bdd) -> Bdd {
        if f.is_false() {
            return Bdd::TRUE;
        }
        if f.is_true() {
            return Bdd::FALSE;
        }
        let key = (Op::Not, f.0, 0, 0);
        if let Some(&r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let n = self.node(f);
        let r0 = self.not_rec(n.lo);
        let r1 = self.not_rec(n.hi);
        let r = self.mk(n.var, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Implication `f → g`.
    pub fn implies(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.maybe_auto_gc(&[f, g]);
        let nf = self.not_rec(f);
        self.or_rec(nf, g)
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        self.maybe_auto_gc(&[f, g]);
        let x = self.xor_rec(f, g);
        self.not_rec(x)
    }

    /// If-then-else `f·g + f̄·h`.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        self.maybe_auto_gc(&[f, g, h]);
        self.ite_rec(f, g, h)
    }

    fn ite_rec(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
        if f.is_true() {
            return g;
        }
        if f.is_false() {
            return h;
        }
        if g == h {
            return g;
        }
        if g.is_true() && h.is_false() {
            return f;
        }
        if g.is_false() && h.is_true() {
            return self.not_rec(f);
        }
        let key = (Op::Ite, f.0, g.0, h.0);
        if let Some(&r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let r0 = self.ite_rec(f0, g0, h0);
        let r1 = self.ite_rec(f1, g1, h1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// `vars` need not be sorted; duplicates are ignored.
    pub fn exists(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        self.maybe_auto_gc(&[f]);
        self.exists_inner(f, vars)
    }

    /// The non-sweeping body shared by [`Manager::exists`] and
    /// [`Manager::forall`].
    fn exists_inner(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        let mut vs: Vec<u32> = vars.to_vec();
        vs.sort_unstable();
        vs.dedup();
        let mut memo: FxMap<(u32, usize), u32> = FxMap::default();
        self.exists_rec(f, &vs, 0, &mut memo)
    }

    fn exists_rec(
        &mut self,
        f: Bdd,
        vars: &[u32],
        mut i: usize,
        memo: &mut FxMap<(u32, usize), u32>,
    ) -> Bdd {
        if f.is_const() {
            return f;
        }
        let v = self.var_of(f);
        while i < vars.len() && vars[i] < v {
            i += 1;
        }
        if i == vars.len() {
            return f;
        }
        if let Some(&r) = memo.get(&(f.0, i)) {
            return Bdd(r);
        }
        let n = self.node(f);
        let r = if n.var == vars[i] {
            let r0 = self.exists_rec(n.lo, vars, i + 1, memo);
            if r0.is_true() {
                Bdd::TRUE
            } else {
                let r1 = self.exists_rec(n.hi, vars, i + 1, memo);
                self.or_rec(r0, r1)
            }
        } else {
            let r0 = self.exists_rec(n.lo, vars, i, memo);
            let r1 = self.exists_rec(n.hi, vars, i, memo);
            self.mk(n.var, r0, r1)
        };
        memo.insert((f.0, i), r.0);
        r
    }

    /// Universal quantification `∀ vars. f`.
    pub fn forall(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
        self.maybe_auto_gc(&[f]);
        let nf = self.not_rec(f);
        let e = self.exists_inner(nf, vars);
        self.not_rec(e)
    }

    /// The fused relational product `∃ vars. f ∧ g`, the workhorse of
    /// symbolic image computation.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[u32]) -> Bdd {
        self.maybe_auto_gc(&[f, g]);
        let mut vs: Vec<u32> = vars.to_vec();
        vs.sort_unstable();
        vs.dedup();
        let mut memo: FxMap<(u32, u32, usize), u32> = FxMap::default();
        self.and_exists_rec(f, g, &vs, 0, &mut memo)
    }

    fn and_exists_rec(
        &mut self,
        f: Bdd,
        g: Bdd,
        vars: &[u32],
        mut i: usize,
        memo: &mut FxMap<(u32, u32, usize), u32>,
    ) -> Bdd {
        if f.is_false() || g.is_false() {
            return Bdd::FALSE;
        }
        if f.is_true() && g.is_true() {
            return Bdd::TRUE;
        }
        let v = self.var_of(f).min(self.var_of(g));
        while i < vars.len() && vars[i] < v {
            i += 1;
        }
        if i == vars.len() {
            return self.and_rec(f, g);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        if let Some(&r) = memo.get(&(a.0, b.0, i)) {
            return Bdd(r);
        }
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let r = if v == vars[i] {
            let r0 = self.and_exists_rec(f0, g0, vars, i + 1, memo);
            if r0.is_true() {
                Bdd::TRUE
            } else {
                let r1 = self.and_exists_rec(f1, g1, vars, i + 1, memo);
                self.or_rec(r0, r1)
            }
        } else {
            let r0 = self.and_exists_rec(f0, g0, vars, i, memo);
            let r1 = self.and_exists_rec(f1, g1, vars, i, memo);
            self.mk(v, r0, r1)
        };
        memo.insert((a.0, b.0, i), r.0);
        r
    }

    /// Rewrites every variable `v` in `f` to `map(v)`.
    ///
    /// The map must be *strictly monotone* on the support of `f` (it may
    /// not reorder variables); this is checked in debug builds.  Uniform
    /// frame shifts (e.g. `3i → 3i+1`) satisfy this.
    pub fn remap(&mut self, f: Bdd, map: &dyn Fn(u32) -> u32) -> Bdd {
        let mut memo: FxMap<u32, u32> = FxMap::default();
        self.remap_rec(f, map, &mut memo)
    }

    fn remap_rec(&mut self, f: Bdd, map: &dyn Fn(u32) -> u32, memo: &mut FxMap<u32, u32>) -> Bdd {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return Bdd(r);
        }
        let n = self.node(f);
        let nv = map(n.var);
        assert!(nv < self.num_vars, "remap target {nv} not declared");
        let r0 = self.remap_rec(n.lo, map, memo);
        let r1 = self.remap_rec(n.hi, map, memo);
        debug_assert!(
            {
                let cl = self.var_of(r0).min(self.var_of(r1));
                nv < cl
            },
            "remap is not monotone on the support"
        );
        let r = self.mk(nv, r0, r1);
        memo.insert(f.0, r.0);
        r
    }

    /// Copies the function `f` owned by `src` into this manager,
    /// returning the equivalent handle here.
    ///
    /// The copy shares structure per-manager (hash-consing applies on
    /// both sides) and is memoised per source node, so the cost is one
    /// `mk` per distinct node of `f`.  `import` never triggers a sweep
    /// in either manager; the returned handle is unrooted, so protect it
    /// before running further operations under an auto-GC policy.
    ///
    /// This is what lets read-only consumers fan a relation out to
    /// private per-thread managers (a `&Manager` is `Sync`): build once,
    /// import everywhere.
    pub fn import(&mut self, src: &Manager, f: Bdd) -> Bdd {
        self.ensure_vars(src.num_vars());
        let mut memo: FxMap<u32, u32> = FxMap::default();
        self.import_rec(src, f, &mut memo)
    }

    fn import_rec(&mut self, src: &Manager, f: Bdd, memo: &mut FxMap<u32, u32>) -> Bdd {
        if f.is_const() {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return Bdd(r);
        }
        let n = src.node(f);
        let lo = self.import_rec(src, n.lo, memo);
        let hi = self.import_rec(src, n.hi, memo);
        let r = self.mk(n.var, lo, hi);
        memo.insert(f.0, r.0);
        r
    }

    /// Cofactor of `f` with variable `v` fixed to `val`.
    pub fn restrict(&mut self, f: Bdd, v: u32, val: bool) -> Bdd {
        let mut memo: FxMap<u32, u32> = FxMap::default();
        self.restrict_rec(f, v, val, &mut memo)
    }

    fn restrict_rec(&mut self, f: Bdd, v: u32, val: bool, memo: &mut FxMap<u32, u32>) -> Bdd {
        if f.is_const() || self.var_of(f) > v {
            return f;
        }
        if let Some(&r) = memo.get(&f.0) {
            return Bdd(r);
        }
        let n = self.node(f);
        let r = if n.var == v {
            if val {
                n.hi
            } else {
                n.lo
            }
        } else {
            let r0 = self.restrict_rec(n.lo, v, val, memo);
            let r1 = self.restrict_rec(n.hi, v, val, memo);
            self.mk(n.var, r0, r1)
        };
        memo.insert(f.0, r.0);
        r
    }

    /// Conjunction of literals: a cube predicate.  A repeated literal
    /// counts once; a variable given both polarities makes the
    /// conjunction [`Bdd::FALSE`].
    pub fn cube(&mut self, literals: &[(u32, bool)]) -> Bdd {
        let mut sorted = literals.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        if sorted.windows(2).any(|w| w[0].0 == w[1].0) {
            return Bdd::FALSE;
        }
        let mut acc = Bdd::TRUE;
        for &(v, pos) in sorted.iter().rev() {
            let (lo, hi) = if pos {
                (Bdd::FALSE, acc)
            } else {
                (acc, Bdd::FALSE)
            };
            acc = self.mk(v, lo, hi);
        }
        acc
    }

    /// The set of minterms `rows` over `vars`: the disjunction of one
    /// cube per row, where `row[j]` is the value of `vars[j]`.
    ///
    /// Built in one pass instead of a `cube` + `or` per row: the rows
    /// are sorted in variable order, so the rows sharing a prefix are
    /// contiguous and each split on the next variable is a binary
    /// search.  Every distinct prefix costs one `mk`, and every node
    /// made is part of the result, so the build leaves no garbage.
    /// Like [`Manager::cube`] it is a node-builder and never triggers a
    /// sweep; the returned handle is unrooted.  Duplicate rows are
    /// harmless; no rows gives [`Bdd::FALSE`].
    ///
    /// # Panics
    ///
    /// Panics if `vars` is not strictly ascending, names an undeclared
    /// variable, or a row's width differs from `vars.len()`.
    pub fn minterms<R: AsRef<[bool]>>(&mut self, vars: &[u32], rows: &[R]) -> Bdd {
        assert!(
            vars.windows(2).all(|w| w[0] < w[1]),
            "minterm variables must be strictly ascending"
        );
        if let Some(&v) = vars.last() {
            assert!(v < self.num_vars, "variable {v} not declared");
        }
        let mut sorted: Vec<&[bool]> = rows.iter().map(AsRef::as_ref).collect();
        assert!(
            sorted.iter().all(|r| r.len() == vars.len()),
            "every minterm row assigns every variable"
        );
        sorted.sort_unstable();
        self.minterms_rec(vars, &sorted, 0)
    }

    /// The minterms of `rows` (sorted, all sharing their first `depth`
    /// values) over `vars[depth..]`.
    fn minterms_rec(&mut self, vars: &[u32], rows: &[&[bool]], depth: usize) -> Bdd {
        if rows.is_empty() {
            return Bdd::FALSE;
        }
        if depth == vars.len() {
            return Bdd::TRUE;
        }
        let split = rows.partition_point(|r| !r[depth]);
        let lo = self.minterms_rec(vars, &rows[..split], depth + 1);
        let hi = self.minterms_rec(vars, &rows[split..], depth + 1);
        self.mk(vars[depth], lo, hi)
    }

    /// Evaluates `f` under a total assignment.
    pub fn eval(&self, f: Bdd, assignment: &dyn Fn(u32) -> bool) -> bool {
        let mut cur = f;
        while !cur.is_const() {
            let n = self.node(cur);
            cur = if assignment(n.var) { n.hi } else { n.lo };
        }
        cur.is_true()
    }

    /// Number of nodes reachable from `f` (including terminals).
    pub fn node_count(&self, f: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![f];
        while let Some(x) = stack.pop() {
            if seen.insert(x.0) && !x.is_const() {
                let n = self.node(x);
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        seen.len()
    }

    /// The set of variables appearing in `f`, ascending.
    pub fn support(&self, f: Bdd) -> Vec<u32> {
        let mut seen = std::collections::HashSet::new();
        let mut vars = std::collections::BTreeSet::new();
        let mut stack = vec![f];
        while let Some(x) = stack.pop() {
            if seen.insert(x.0) && !x.is_const() {
                let n = self.node(x);
                vars.insert(n.var);
                stack.push(n.lo);
                stack.push(n.hi);
            }
        }
        vars.into_iter().collect()
    }
}

// Each engine worker owns a private `Manager` and managers migrate into
// worker threads, so the type must stay `Send` (it holds no interior
// sharing).  The sharded symbolic-CSSG diagnostics additionally share a
// built relation's manager read-only across shard threads (each one
// `import`s from it), so `&Manager` must stay `Sync` too.  Compile-time
// assertions: breaking either fails the build.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<Manager>()
};

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> Manager {
        Manager::new(8)
    }

    #[test]
    fn cache_stats_and_bounded_clear() {
        let mut m = mgr();
        assert_eq!(m.cache_len(), 0);
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        let o = m.or(ab, a);
        assert!(m.cache_len() > 0, "operations populate the cache");
        assert!(m.unique_len() > 0);
        let before_nodes = m.num_nodes();

        assert!(!m.clear_cache_if_above(1 << 20), "below the bound: kept");
        assert!(m.cache_len() > 0);
        assert!(m.clear_cache_if_above(0), "above the bound: cleared");
        assert_eq!(m.cache_len(), 0);

        // Clearing never invalidates nodes; results stay canonical.
        assert_eq!(m.num_nodes(), before_nodes);
        assert_eq!(m.and(a, b), ab);
        assert_eq!(m.or(ab, a), o);
    }

    #[test]
    fn terminals() {
        let m = mgr();
        assert!(Bdd::TRUE.is_true() && Bdd::FALSE.is_false());
        assert!(m.eval(Bdd::TRUE, &|_| false));
        assert!(!m.eval(Bdd::FALSE, &|_| true));
    }

    #[test]
    fn var_and_not() {
        let mut m = mgr();
        let a = m.var(0);
        let na = m.not(a);
        assert_eq!(m.nvar(0), na);
        assert_eq!(m.not(na), a);
        assert!(m.eval(a, &|_| true));
        assert!(!m.eval(na, &|_| true));
    }

    #[test]
    fn and_or_identities() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        assert_eq!(m.and(a, Bdd::TRUE), a);
        assert_eq!(m.and(a, Bdd::FALSE), Bdd::FALSE);
        assert_eq!(m.or(a, Bdd::FALSE), a);
        assert_eq!(m.or(a, Bdd::TRUE), Bdd::TRUE);
        let ab = m.and(a, b);
        let ba = m.and(b, a);
        assert_eq!(ab, ba, "hash-consing canonicalizes");
        let na = m.not(a);
        assert_eq!(m.and(a, na), Bdd::FALSE);
        assert_eq!(m.or(a, na), Bdd::TRUE);
    }

    #[test]
    fn xor_properties() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let x = m.xor(a, b);
        assert_eq!(m.xor(x, b), a);
        assert_eq!(m.xor(a, a), Bdd::FALSE);
        let nx = m.not(x);
        assert_eq!(m.iff(a, b), nx);
    }

    #[test]
    fn ite_equals_composition() {
        let mut m = mgr();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let r1 = m.ite(a, b, c);
        let ab = m.and(a, b);
        let na = m.not(a);
        let nac = m.and(na, c);
        let r2 = m.or(ab, nac);
        assert_eq!(r1, r2);
    }

    #[test]
    fn exists_removes_variable() {
        let mut m = mgr();
        let (a, b) = (m.var(0), m.var(1));
        let f = m.and(a, b);
        assert_eq!(m.exists(f, &[1]), a);
        assert_eq!(m.exists(f, &[0, 1]), Bdd::TRUE);
        assert_eq!(m.exists(Bdd::FALSE, &[0]), Bdd::FALSE);
        let g = m.xor(a, b);
        assert_eq!(m.exists(g, &[1]), Bdd::TRUE);
        assert_eq!(m.forall(g, &[1]), Bdd::FALSE);
    }

    #[test]
    fn and_exists_matches_unfused() {
        let mut m = mgr();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let nb = m.not(b);
        let f = m.or(a, nb);
        let g = m.and(b, c);
        let fused = m.and_exists(f, g, &[1]);
        let conj = m.and(f, g);
        let plain = m.exists(conj, &[1]);
        assert_eq!(fused, plain);
    }

    #[test]
    fn remap_shifts_frames() {
        let mut m = Manager::new(9);
        let (x0, x1) = (m.var(0), m.var(3));
        let f = m.and(x0, x1);
        let g = m.remap(f, &|v| v + 1);
        let y0 = m.var(1);
        let y1 = m.var(4);
        let expect = m.and(y0, y1);
        assert_eq!(g, expect);
        let back = m.remap(g, &|v| v - 1);
        assert_eq!(back, f);
    }

    #[test]
    fn restrict_cofactors() {
        let mut m = mgr();
        let (a, b) = (m.var(0), m.var(1));
        let f = m.ite(a, b, Bdd::FALSE);
        assert_eq!(m.restrict(f, 0, true), b);
        assert_eq!(m.restrict(f, 0, false), Bdd::FALSE);
        assert_eq!(m.restrict(f, 7, true), f, "absent variable is no-op");
    }

    #[test]
    fn cube_builds_conjunction() {
        let mut m = mgr();
        let c = m.cube(&[(2, true), (0, false)]);
        let na = m.nvar(0);
        let v2 = m.var(2);
        let expect = m.and(na, v2);
        assert_eq!(c, expect);
        assert_eq!(m.cube(&[]), Bdd::TRUE);
    }

    #[test]
    fn support_and_node_count() {
        let mut m = mgr();
        let (a, c) = (m.var(0), m.var(2));
        let f = m.xor(a, c);
        assert_eq!(m.support(f), vec![0, 2]);
        assert_eq!(m.node_count(f), 5); // two terminals + 3 decision nodes
    }

    #[test]
    fn implies_truth_table() {
        let mut m = mgr();
        let (a, b) = (m.var(0), m.var(1));
        let f = m.implies(a, b);
        for (av, bv, want) in [
            (false, false, true),
            (false, true, true),
            (true, false, false),
            (true, true, true),
        ] {
            assert_eq!(m.eval(f, &|v| if v == 0 { av } else { bv }), want);
        }
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_variable_panics() {
        let mut m = Manager::new(2);
        m.var(5);
    }

    #[test]
    fn gc_sweeps_unrooted_keeps_rooted() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let c = m.var(2);
        let keep = m.and(a, b);
        let scrap = m.xor(b, c);
        let live_before = m.unique_len();
        assert!(m.node_count(scrap) > 2);
        m.protect(keep);
        let reclaimed = m.gc();
        assert!(reclaimed > 0, "xor structure was unrooted");
        assert!(m.unique_len() < live_before);
        // The rooted function is untouched: structure and semantics hold.
        for x in 0..8u32 {
            let want = x & 0b11 == 0b11;
            assert_eq!(m.eval(keep, &|v| x >> v & 1 == 1), want);
        }
        // Canonicity: rebuilding the rooted function finds the same node.
        let a2 = m.var(0);
        let b2 = m.var(1);
        assert_eq!(m.and(a2, b2), keep);
        m.unprotect(keep);
    }

    #[test]
    fn gc_is_idempotent_without_new_ops() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.ite(a, b, Bdd::FALSE);
        m.protect(f);
        m.gc();
        let after_first = m.unique_len();
        let reclaimed = m.gc();
        assert_eq!(reclaimed, 0, "nothing left to sweep");
        assert_eq!(m.unique_len(), after_first);
        m.unprotect(f);
    }

    #[test]
    fn swept_slots_are_reused() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let _dead = m.xor(a, b);
        let slab = m.num_nodes();
        m.gc();
        // New nodes land in the freed slots: the slab does not grow.
        let c = m.var(2);
        let d = m.var(3);
        let _f = m.and(c, d);
        assert!(m.num_nodes() <= slab, "free-listed slots are reused");
    }

    #[test]
    fn root_token_roundtrip() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.or(a, b);
        let r = m.root(f);
        assert_eq!(r.bdd(), f);
        assert_eq!(m.num_roots(), 1);
        m.gc();
        assert!(m.eval(r.bdd(), &|_| true));
        m.release(r);
        assert_eq!(m.num_roots(), 0);
    }

    #[test]
    fn protect_is_refcounted() {
        let mut m = mgr();
        let a = m.var(0);
        m.protect(a);
        m.protect(a);
        assert_eq!(m.num_roots(), 1);
        m.unprotect(a);
        m.gc();
        // Still protected by the second count.
        assert!(m.eval(a, &|_| true));
        m.unprotect(a);
        assert_eq!(m.num_roots(), 0);
    }

    #[test]
    #[should_panic(expected = "not rooted")]
    fn unbalanced_unprotect_panics() {
        let mut m = mgr();
        let a = m.var(0);
        m.unprotect(a);
    }

    #[test]
    fn auto_gc_bounds_live_nodes() {
        let mut m = Manager::new(16);
        m.set_gc_threshold(Some(8));
        let mut acc = Bdd::TRUE;
        m.protect(acc);
        for v in 0..16 {
            let x = m.var(v);
            let next = m.and(acc, x); // auto-GC roots its operands
            m.protect(next);
            m.unprotect(acc);
            acc = next;
        }
        assert!(m.gc_stats().runs > 0, "tiny threshold forces sweeps");
        // The 16-variable cube survives every sweep.
        assert!(m.eval(acc, &|_| true));
        assert!(!m.eval(acc, &|v| v != 3));
        m.unprotect(acc);
    }

    #[test]
    fn gc_if_above_thresholds() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let _f = m.xor(a, b);
        assert!(!m.gc_if_above(1 << 20), "below the bound: kept");
        assert!(m.gc_if_above(0), "above the bound: swept");
        assert_eq!(m.unique_len(), 0);
    }

    #[test]
    fn telemetry_counters_track_churn() {
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let f = m.and(a, b);
        m.protect(f);
        let created_before = m.created_nodes();
        assert!(created_before >= 3);
        assert_eq!(m.peak_unique_len(), m.unique_len());
        m.gc();
        // Only f survives; the single-variable nodes must be re-acquired
        // (their old handles are stale after the sweep).
        let a2 = m.var(0);
        let b2 = m.var(1);
        let g = m.xor(a2, b2);
        assert!(m.created_nodes() > created_before);
        assert!(m.eval(g, &|v| v == 0));
        let stats = m.gc_stats();
        assert_eq!(stats.runs, 1);
        assert!(stats.reclaimed > 0);
        assert_eq!(stats.generation, 1);
        m.unprotect(f);
    }

    #[test]
    fn import_copies_functions_across_managers() {
        let mut src = Manager::new(6);
        let (a, b, c) = (src.var(0), src.var(1), src.var(2));
        let ab = src.and(a, b);
        let f = src.xor(ab, c);

        let mut dst = Manager::new(0); // import grows the variable count
        let g = dst.import(&src, f);
        assert_eq!(dst.num_vars(), 6);
        for x in 0..8u32 {
            let asg = |v: u32| x >> v & 1 == 1;
            assert_eq!(src.eval(f, &asg), dst.eval(g, &asg), "assignment {x:#b}");
        }
        // Canonicity on the destination side: rebuilding the same
        // function natively lands on the imported node.
        let (a2, b2, c2) = (dst.var(0), dst.var(1), dst.var(2));
        let ab2 = dst.and(a2, b2);
        assert_eq!(dst.xor(ab2, c2), g);
        // Terminals import to themselves.
        assert_eq!(dst.import(&src, Bdd::TRUE), Bdd::TRUE);
        assert_eq!(dst.import(&src, Bdd::FALSE), Bdd::FALSE);
        // Same node count: the copy shares structure exactly.
        assert_eq!(src.node_count(f), dst.node_count(g));
    }

    #[test]
    fn import_into_gc_managed_manager_survives_sweeps() {
        let mut src = Manager::new(8);
        let mut f = Bdd::TRUE;
        for v in 0..8 {
            let x = src.var(v);
            f = if v % 2 == 0 {
                src.and(f, x)
            } else {
                src.xor(f, x)
            };
        }
        let mut dst = Manager::new(8);
        dst.set_gc_threshold(Some(4));
        let g = dst.import(&src, f);
        // import itself never sweeps; root the result and churn.
        dst.protect(g);
        let y = dst.var(3);
        let ny = dst.not(y);
        let _churn = dst.and(ny, y);
        for x in 0..256u32 {
            let asg = |v: u32| x >> v & 1 == 1;
            assert_eq!(src.eval(f, &asg), dst.eval(g, &asg));
        }
        dst.unprotect(g);
    }

    #[test]
    fn generational_cache_never_resurrects_swept_ids() {
        // A cached (a ∧ b) entry must not survive the sweep that kills
        // its result node; recomputing after GC must rebuild, not read a
        // stale id pointing into a reused slot.
        let mut m = mgr();
        let a = m.var(0);
        let b = m.var(1);
        let ab = m.and(a, b);
        m.protect(a);
        m.protect(b);
        m.gc(); // sweeps ab, keeps the single-variable nodes
        assert_eq!(m.cache_len(), 0, "sweep drops the op cache");
        // Fill the freed slot with something else, then recompute.
        let c = m.var(2);
        let bc = m.or(b, c);
        let ab2 = m.and(a, b);
        assert_ne!(ab2, bc, "recomputation does not alias the reused slot");
        for x in 0..8u32 {
            assert_eq!(m.eval(ab2, &|v| x >> v & 1 == 1), x & 3 == 3);
        }
        let _ = ab; // the old handle is dead; never dereferenced
        m.unprotect(a);
        m.unprotect(b);
    }
}
