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

/// The node count at which an operation panics: a runaway build fails
/// there instead of exhausting memory.
const NODE_LIMIT: usize = 1 << 26;

#[derive(Clone, Copy, PartialEq, Eq, Hash)]
enum Op {
    And,
    Or,
    Xor,
    Not,
    Ite,
}

/// A hash-consed ROBDD store with an operation cache.
///
/// All operations take `&mut self` because they may create nodes.
///
/// # Memory policy
///
/// Nodes are immortal: a manager never frees a node, so every handle
/// stays valid for the manager's lifetime and callers need no rooting
/// discipline.  Memory is bounded by dropping the manager — each user
/// owns one for a single bounded computation (one symbolic CSSG build,
/// one engine worker's audit).  `crates/bdd/DESIGN.md` has the numbers
/// behind this choice.
///
/// Build large constant sets with [`Manager::minterms`]: it makes only
/// the nodes of the result, where a relation folded together one `or`
/// per row leaves every intermediate disjunction behind.
pub struct Manager {
    nodes: Vec<Node>,
    unique: FxMap<(u32, u32, u32), u32>,
    cache: FxMap<(Op, u32, u32, u32), u32>,
    num_vars: u32,
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
        }
    }

    /// Number of declared variables.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Size of the node slab: every decision node plus the two
    /// terminals, i.e. [`Manager::unique_len`] `+ 2`.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Drops the operation cache (keeps all nodes valid).
    pub fn clear_cache(&mut self) {
        self.cache.clear();
    }

    /// Number of entries in the operation cache.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Number of decision nodes ever made.  Nodes are never freed, so
    /// this is also the manager's high-water mark.
    pub fn unique_len(&self) -> usize {
        self.unique.len()
    }

    #[inline]
    fn node(&self, f: Bdd) -> Node {
        self.nodes[f.0 as usize]
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
        assert!(
            self.nodes.len() < NODE_LIMIT,
            "BDD node limit ({NODE_LIMIT}) exceeded"
        );
        let i = self.nodes.len() as u32;
        self.nodes.push(Node { var, lo, hi });
        self.unique.insert(key, i);
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
        let r0 = self.and(a0, b0);
        let r1 = self.and(a1, b1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Disjunction.
    pub fn or(&mut self, f: Bdd, g: Bdd) -> Bdd {
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
        let r0 = self.or(a0, b0);
        let r1 = self.or(a1, b1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Exclusive or.
    pub fn xor(&mut self, f: Bdd, g: Bdd) -> Bdd {
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
            return self.not(g);
        }
        if g.is_true() {
            return self.not(f);
        }
        let (a, b) = if f.0 <= g.0 { (f, g) } else { (g, f) };
        let key = (Op::Xor, a.0, b.0, 0);
        if let Some(&r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let v = self.var_of(a).min(self.var_of(b));
        let (a0, a1) = self.cofactors(a, v);
        let (b0, b1) = self.cofactors(b, v);
        let r0 = self.xor(a0, b0);
        let r1 = self.xor(a1, b1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Negation.
    pub fn not(&mut self, f: Bdd) -> Bdd {
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
        let r0 = self.not(n.lo);
        let r1 = self.not(n.hi);
        let r = self.mk(n.var, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Biconditional `f ↔ g`.
    pub fn iff(&mut self, f: Bdd, g: Bdd) -> Bdd {
        let x = self.xor(f, g);
        self.not(x)
    }

    /// If-then-else `f·g + f̄·h`.
    pub fn ite(&mut self, f: Bdd, g: Bdd, h: Bdd) -> Bdd {
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
            return self.not(f);
        }
        let key = (Op::Ite, f.0, g.0, h.0);
        if let Some(&r) = self.cache.get(&key) {
            return Bdd(r);
        }
        let v = self.var_of(f).min(self.var_of(g)).min(self.var_of(h));
        let (f0, f1) = self.cofactors(f, v);
        let (g0, g1) = self.cofactors(g, v);
        let (h0, h1) = self.cofactors(h, v);
        let r0 = self.ite(f0, g0, h0);
        let r1 = self.ite(f1, g1, h1);
        let r = self.mk(v, r0, r1);
        self.cache.insert(key, r.0);
        r
    }

    /// Existential quantification `∃ vars. f`.
    ///
    /// `vars` need not be sorted; duplicates are ignored.
    pub fn exists(&mut self, f: Bdd, vars: &[u32]) -> Bdd {
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
                self.or(r0, r1)
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
        let nf = self.not(f);
        let e = self.exists(nf, vars);
        self.not(e)
    }

    /// The fused relational product `∃ vars. f ∧ g`, the workhorse of
    /// symbolic image computation.
    pub fn and_exists(&mut self, f: Bdd, g: Bdd, vars: &[u32]) -> Bdd {
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
            return self.and(f, g);
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
                self.or(r0, r1)
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
    /// Duplicate rows are harmless; no rows gives [`Bdd::FALSE`].
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

// A manager is plain data with no interior sharing, so it stays `Send`:
// a caller may build one on one thread and hand it to another.
// Compile-time assertion: breaking it fails the build.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<Manager>()
};

#[cfg(test)]
mod tests {
    use super::*;

    fn mgr() -> Manager {
        Manager::new(8)
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
    #[should_panic(expected = "not declared")]
    fn undeclared_variable_panics() {
        let mut m = Manager::new(2);
        m.var(5);
    }

    #[test]
    fn nodes_are_immortal() {
        let mut m = mgr();
        let (a, b, c) = (m.var(0), m.var(1), m.var(2));
        let ab = m.and(a, b);
        let _scratch = m.xor(b, c);
        m.clear_cache();
        // Every node ever made stays in the slab, and old handles stay
        // canonical after more work and a cache drop.
        assert_eq!(m.num_nodes(), m.unique_len() + 2);
        let again = m.and(b, a);
        assert_eq!(again, ab);
        for x in 0..8u32 {
            assert_eq!(m.eval(ab, &|v| x >> v & 1 == 1), x & 3 == 3);
        }
    }
}
