//! Differential tests: our `bdd::Manager` against independent reference
//! semantics, in the style of the invariant suites of mature BDD
//! packages (rsdd, OBDDimal).
//!
//! The reference is a from-scratch canonical-size computation on raw
//! truth tables: the number of ROBDD nodes for a function equals, per
//! level, the number of distinct subfunctions (after restricting all
//! earlier variables) that actually depend on that level's variable —
//! Shannon-expansion counting that shares no code with the manager.
//! Node counts for the standard functions (parity, majority, adder
//! carry), plus sat-count/eval agreement on random functions and cubes,
//! are cross-checked against it.
//!
//! Intentional divergences from the reference packages, so the pinned
//! numbers are not comparable 1:1 with theirs:
//!
//! * **No complement edges** (rsdd uses them): our parity over n
//!   variables costs `2n-1` decision nodes, not `n`.
//! * **Terminals are counted** by `node_count` (two of them), matching
//!   the managers' telemetry rather than rsdd's decision-node counts.
//! * **No dynamic reordering** (OBDDimal's DVO): variable index is
//!   level, so all counts below assume the natural order.

use satpg::bdd::{Bdd, Manager};

/// Number of ROBDD nodes (including both terminals when reachable) of
/// the function given as a truth table over `n` variables, where
/// assignment index bit `i` is the value of variable `i`.
fn reference_node_count(table: &[bool], n: u32) -> usize {
    assert_eq!(table.len(), 1 << n);
    use std::collections::HashSet;
    let mut decision = 0usize;
    let mut level: Vec<Vec<bool>> = vec![table.to_vec()];
    for _level in 0..n {
        let mut seen: HashSet<Vec<bool>> = HashSet::new();
        let mut next: Vec<Vec<bool>> = Vec::new();
        let mut next_seen: HashSet<Vec<bool>> = HashSet::new();
        for f in &level {
            if !seen.insert(f.clone()) {
                continue;
            }
            // Split on variable v: with the bit-i convention the
            // cofactors interleave (bit v strides by 2^v), but since we
            // process variables in order, bit v is always bit 0 of the
            // remaining subtable index after earlier restrictions.
            let half = f.len() / 2;
            let mut lo = Vec::with_capacity(half);
            let mut hi = Vec::with_capacity(half);
            for j in 0..half {
                lo.push(f[2 * j]);
                hi.push(f[2 * j + 1]);
            }
            if lo != hi {
                decision += 1;
            }
            for c in [lo, hi] {
                if next_seen.insert(c.clone()) {
                    next.push(c);
                }
            }
        }
        level = next;
    }
    let any_true = table.iter().any(|&b| b);
    let any_false = table.iter().any(|&b| !b);
    decision + usize::from(any_true) + usize::from(any_false)
}

/// Builds a BDD from a truth table (index bit `i` = variable `i`) by
/// Shannon expansion, using only `ite`/`var` — an independent
/// construction path from the per-op tests.
fn build_from_table(m: &mut Manager, table: &[bool]) -> Bdd {
    fn rec(m: &mut Manager, table: &[bool], v: u32) -> Bdd {
        if table.len() == 1 {
            return if table[0] { Bdd::TRUE } else { Bdd::FALSE };
        }
        let half = table.len() / 2;
        let mut lo = Vec::with_capacity(half);
        let mut hi = Vec::with_capacity(half);
        for j in 0..half {
            lo.push(table[2 * j]);
            hi.push(table[2 * j + 1]);
        }
        let l = rec(m, &lo, v + 1);
        let h = rec(m, &hi, v + 1);
        let x = m.var(v);
        m.ite(x, h, l)
    }
    rec(m, table, 0)
}

fn truth_table(n: u32, f: impl Fn(u64) -> bool) -> Vec<bool> {
    (0..(1u64 << n)).map(f).collect()
}

/// Deterministic LCG; high bits only (the low bits are periodic).
struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0
    }
    fn bits(&mut self, k: u32) -> u64 {
        self.next() >> (64 - k)
    }
}

#[test]
fn parity_node_counts_match_reference() {
    for n in 2u32..=10 {
        let table = truth_table(n, |a| a.count_ones() % 2 == 1);
        let expect = reference_node_count(&table, n);
        // Without complement edges a parity chain is 1 node at the top
        // level and 2 at every other level, plus both terminals.
        assert_eq!(expect, (2 * n - 1) as usize + 2, "closed form, n={n}");
        let mut m = Manager::new(n);
        let mut f = Bdd::FALSE;
        for v in 0..n {
            let x = m.var(v);
            f = m.xor(f, x);
        }
        assert_eq!(m.node_count(f), expect, "parity-{n}");
        assert_eq!(
            m.sat_count(f),
            (1u64 << (n - 1)) as f64,
            "parity-{n} models"
        );
    }
}

#[test]
fn majority_node_counts_match_reference() {
    // maj3: 4 decision nodes + 2 terminals in the natural order.
    let table = truth_table(3, |a| (a & 1) + (a >> 1 & 1) + (a >> 2 & 1) >= 2);
    assert_eq!(reference_node_count(&table, 3), 6);
    let mut m = Manager::new(3);
    let (a, b, c) = (m.var(0), m.var(1), m.var(2));
    let ab = m.and(a, b);
    let ac = m.and(a, c);
    let bc = m.and(b, c);
    let abac = m.or(ab, ac);
    let maj = m.or(abac, bc);
    assert_eq!(m.node_count(maj), 6);
    assert_eq!(m.sat_count(maj), 4.0);
    // Wider majorities against the reference only.
    for n in [5u32, 7] {
        let table = truth_table(n, |a| a.count_ones() > n / 2);
        let expect = reference_node_count(&table, n);
        let mut m = Manager::new(n);
        let f = build_from_table(&mut m, &table);
        assert_eq!(m.node_count(f), expect, "maj-{n}");
    }
}

#[test]
fn adder_carry_node_counts_match_reference() {
    // Carry-out of an n-bit ripple adder, variables interleaved
    // a0,b0,a1,b1,… (the order that keeps the BDD linear).
    for n in 1u32..=8 {
        let table = truth_table(2 * n, |bits| {
            let mut carry = false;
            for i in 0..n {
                let a = bits >> (2 * i) & 1 == 1;
                let b = bits >> (2 * i + 1) & 1 == 1;
                carry = (a && b) || ((a ^ b) && carry);
            }
            carry
        });
        let expect = reference_node_count(&table, 2 * n);
        let mut m = Manager::new(2 * n);
        let mut carry = Bdd::FALSE;
        for i in 0..n {
            let a = m.var(2 * i);
            let b = m.var(2 * i + 1);
            let gen = m.and(a, b);
            let prop = m.xor(a, b);
            let pc = m.and(prop, carry);
            carry = m.or(gen, pc);
        }
        assert_eq!(m.node_count(carry), expect, "carry-{n}");
        // The linear growth that motivates the interleaved order: 3n-1
        // decision nodes plus the two terminals.
        assert_eq!(expect, (3 * n - 1) as usize + 2, "carry-{n} closed form");
    }
}

#[test]
fn random_functions_agree_with_reference() {
    let mut rng = Lcg(0xd1ff_5eed);
    for n in [4u32, 6, 8] {
        for _ in 0..16 {
            let table: Vec<bool> = (0..(1u64 << n)).map(|_| rng.bits(1) == 1).collect();
            let expect_nodes = reference_node_count(&table, n);
            let expect_models = table.iter().filter(|&&b| b).count();
            let mut m = Manager::new(n);
            let f = build_from_table(&mut m, &table);
            assert_eq!(m.node_count(f), expect_nodes, "n={n}");
            assert_eq!(m.sat_count(f), expect_models as f64, "n={n}");
            for (a, &want) in table.iter().enumerate() {
                assert_eq!(
                    m.eval(f, &|v| (a as u64 >> v) & 1 == 1),
                    want,
                    "n={n} a={a}"
                );
            }
        }
    }
}

#[test]
fn random_cubes_agree_with_reference() {
    let mut rng = Lcg(0xc0be_5eed);
    const N: u32 = 12;
    for _ in 0..64 {
        // A random cube of ~6 distinct literals.
        let mut lits: Vec<(u32, bool)> = Vec::new();
        for _ in 0..6 {
            let v = (rng.bits(16) % N as u64) as u32;
            if !lits.iter().any(|&(lv, _)| lv == v) {
                lits.push((v, rng.bits(1) == 1));
            }
        }
        let mut m = Manager::new(N);
        let c = m.cube(&lits);
        // Sat count: free variables are unconstrained.
        let expect = (1u64 << (N as usize - lits.len())) as f64;
        assert_eq!(m.sat_count(c), expect);
        // Eval agreement on random assignments.
        for _ in 0..64 {
            let a = rng.bits(32);
            let want = lits.iter().all(|&(v, pos)| ((a >> v) & 1 == 1) == pos);
            assert_eq!(m.eval(c, &|v| (a >> v) & 1 == 1), want);
        }
        // pick_cube returns a satisfying partial assignment.
        let picked = m.pick_cube(c).expect("cube is satisfiable");
        let assign = |v: u32| {
            picked
                .iter()
                .find(|&&(pv, _)| pv == v)
                .map(|&(_, b)| b)
                .unwrap_or(false)
        };
        assert!(m.eval(c, &assign));
    }
}
