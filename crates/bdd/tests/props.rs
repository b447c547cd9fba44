//! Property tests: BDD operations agree with brute-force truth tables.

use proptest::prelude::*;
use satpg_bdd::{Bdd, Manager};

const NVARS: u32 = 6;

/// A random Boolean expression over `NVARS` variables.
#[derive(Debug, Clone)]
enum Expr {
    Var(u32),
    Not(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Xor(Box<Expr>, Box<Expr>),
    Ite(Box<Expr>, Box<Expr>, Box<Expr>),
    Const(bool),
}

impl Expr {
    fn eval(&self, a: u64) -> bool {
        match self {
            Expr::Var(v) => (a >> v) & 1 == 1,
            Expr::Not(x) => !x.eval(a),
            Expr::And(x, y) => x.eval(a) && y.eval(a),
            Expr::Or(x, y) => x.eval(a) || y.eval(a),
            Expr::Xor(x, y) => x.eval(a) != y.eval(a),
            Expr::Ite(c, t, e) => {
                if c.eval(a) {
                    t.eval(a)
                } else {
                    e.eval(a)
                }
            }
            Expr::Const(b) => *b,
        }
    }

    fn build(&self, m: &mut Manager) -> Bdd {
        match self {
            Expr::Var(v) => m.var(*v),
            Expr::Not(x) => {
                let f = x.build(m);
                m.not(f)
            }
            Expr::And(x, y) => {
                let (f, g) = (x.build(m), y.build(m));
                m.and(f, g)
            }
            Expr::Or(x, y) => {
                let (f, g) = (x.build(m), y.build(m));
                m.or(f, g)
            }
            Expr::Xor(x, y) => {
                let (f, g) = (x.build(m), y.build(m));
                m.xor(f, g)
            }
            Expr::Ite(c, t, e) => {
                let (f, g, h) = (c.build(m), t.build(m), e.build(m));
                m.ite(f, g, h)
            }
            Expr::Const(b) => {
                if *b {
                    Bdd::TRUE
                } else {
                    Bdd::FALSE
                }
            }
        }
    }
}

fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..NVARS).prop_map(Expr::Var),
        any::<bool>().prop_map(Expr::Const),
    ];
    leaf.prop_recursive(5, 64, 3, |inner| {
        prop_oneof![
            inner.clone().prop_map(|x| Expr::Not(Box::new(x))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::And(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::Or(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone()).prop_map(|(x, y)| Expr::Xor(Box::new(x), Box::new(y))),
            (inner.clone(), inner.clone(), inner).prop_map(|(c, t, e)| Expr::Ite(
                Box::new(c),
                Box::new(t),
                Box::new(e)
            )),
        ]
    })
}

proptest! {
    /// Every built BDD evaluates exactly like the expression.
    #[test]
    fn bdd_matches_truth_table(e in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = e.build(&mut m);
        for a in 0..(1u64 << NVARS) {
            prop_assert_eq!(m.eval(f, &|v| (a >> v) & 1 == 1), e.eval(a));
        }
    }

    /// Canonicity: equivalent expressions share one node.
    #[test]
    fn canonical_handles(e in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = e.build(&mut m);
        // De Morgan round trip produces the identical handle.
        let nf = m.not(f);
        let nnf = m.not(nf);
        prop_assert_eq!(f, nnf);
    }

    /// ∃x.f computed by the engine equals or-of-cofactors.
    #[test]
    fn exists_is_or_of_cofactors(e in arb_expr(), v in 0..NVARS) {
        let mut m = Manager::new(NVARS);
        let f = e.build(&mut m);
        let ex = m.exists(f, &[v]);
        let lo = m.restrict(f, v, false);
        let hi = m.restrict(f, v, true);
        let or = m.or(lo, hi);
        prop_assert_eq!(ex, or);
    }

    /// Fused and_exists equals the composition of and + exists.
    #[test]
    fn and_exists_unfused(e1 in arb_expr(), e2 in arb_expr(), v in 0..NVARS, w in 0..NVARS) {
        let mut m = Manager::new(NVARS);
        let f = e1.build(&mut m);
        let g = e2.build(&mut m);
        let fused = m.and_exists(f, g, &[v, w]);
        let conj = m.and(f, g);
        let plain = m.exists(conj, &[v, w]);
        prop_assert_eq!(fused, plain);
    }

    /// sat_count equals brute-force model count.
    #[test]
    fn sat_count_exact(e in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = e.build(&mut m);
        let brute = (0..(1u64 << NVARS)).filter(|&a| e.eval(a)).count();
        prop_assert_eq!(m.sat_count(f), brute as f64);
    }

    /// Every enumerated model satisfies the expression, and the count is
    /// exact.
    #[test]
    fn enumeration_sound_and_complete(e in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = e.build(&mut m);
        let vars: Vec<u32> = (0..NVARS).collect();
        let models = m.models_packed(f, &vars);
        for &a in &models {
            prop_assert!(e.eval(a));
        }
        let brute = (0..(1u64 << NVARS)).filter(|&a| e.eval(a)).count();
        prop_assert_eq!(models.len(), brute);
    }

    /// pick_cube returns a satisfying partial assignment.
    #[test]
    fn pick_cube_sound(e in arb_expr()) {
        let mut m = Manager::new(NVARS);
        let f = e.build(&mut m);
        match m.pick_cube(f) {
            None => prop_assert_eq!(f, Bdd::FALSE),
            Some(cube) => {
                // Complete the cube with zeros for free variables.
                let assign = |v: u32| cube.iter().find(|&&(cv, _)| cv == v).map(|&(_, b)| b).unwrap_or(false);
                prop_assert!(m.eval(f, &assign));
            }
        }
    }

    /// Remapping by a uniform shift preserves the function modulo renaming.
    #[test]
    fn remap_shift_roundtrip(e in arb_expr()) {
        let mut m = Manager::new(2 * NVARS);
        let f = e.build(&mut m);
        let g = m.remap(f, &|v| v + NVARS);
        let back = m.remap(g, &|v| v - NVARS);
        prop_assert_eq!(back, f);
        for a in 0..(1u64 << NVARS) {
            let shifted = m.eval(g, &|v| (a >> (v - NVARS)) & 1 == 1);
            prop_assert_eq!(shifted, e.eval(a));
        }
    }
}

/// A random minterm set: the width `n` in 1..=24, the variable stride
/// (1 packs `vars` densely, 2 leaves gaps), and row masks with some rows
/// repeated.
fn arb_minterms() -> impl Strategy<Value = (u32, u32, Vec<u32>)> {
    (
        1u32..=24,
        1u32..=2,
        proptest::collection::vec(any::<u32>(), 0..=40),
        0usize..=8,
    )
        .prop_map(|(n, step, masks, dups)| {
            let mut rows: Vec<u32> = masks.iter().map(|&m| m & (u32::MAX >> (32 - n))).collect();
            let again = rows[..dups.min(rows.len())].to_vec();
            rows.extend(again);
            (n, step, rows)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The one-pass builder returns the very handle a `cube` + `or` fold
    /// over the same rows reaches in the same manager (canonicity).
    #[test]
    fn minterms_match_cube_or_fold(case in arb_minterms()) {
        let (n, step, rows) = case;
        let vars: Vec<u32> = (0..n).map(|j| j * step).collect();
        let mut m = Manager::new(n * step);
        let table: Vec<Vec<bool>> = rows
            .iter()
            .map(|&r| (0..n).map(|j| r >> j & 1 == 1).collect())
            .collect();
        let built = m.minterms(&vars, &table);
        let mut acc = Bdd::FALSE;
        for row in &table {
            let lits: Vec<(u32, bool)> = vars.iter().copied().zip(row.iter().copied()).collect();
            let c = m.cube(&lits);
            acc = m.or(acc, c);
        }
        prop_assert_eq!(built, acc);
        for &r in &rows {
            prop_assert!(m.eval(built, &|v| r >> (v / step) & 1 == 1));
        }
    }
}

/// `cube` is a conjunction of literals, so a repeated literal counts once
/// and a variable in both polarities is the canonical `FALSE`; release
/// builds used to return non-canonical nodes for both.
#[test]
fn cube_with_a_repeated_variable_is_canonical() {
    let mut m = Manager::new(4);
    assert_eq!(m.cube(&[(1, true), (1, false)]), Bdd::FALSE);
    assert_eq!(m.cube(&[(0, true), (1, true), (0, false)]), Bdd::FALSE);
    let v1 = m.var(1);
    assert_eq!(m.cube(&[(1, true), (1, true)]), v1);
    let nv1 = m.nvar(1);
    assert_eq!(m.cube(&[(1, false), (1, false)]), nv1);
    let v0 = m.var(0);
    let both = m.and(v0, v1);
    assert_eq!(m.cube(&[(1, true), (0, true), (1, true)]), both);
}

/// The builder's edge cases: no rows, no variables, duplicates.
#[test]
fn minterms_edge_cases() {
    let mut m = Manager::new(3);
    let none: [[bool; 2]; 0] = [];
    assert_eq!(m.minterms(&[0, 2], &none), Bdd::FALSE);
    assert_eq!(m.minterms(&[], &[[false; 0]]), Bdd::TRUE);
    let x = m.cube(&[(0, true), (2, false)]);
    assert_eq!(m.minterms(&[0, 2], &[[true, false], [true, false]]), x);
    let v0 = m.var(0);
    assert_eq!(m.minterms(&[0, 2], &[[true, false], [true, true]]), v0);
}
