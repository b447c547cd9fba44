//! Two-level logic minimization over ON/OFF point sets (every other
//! point is a don't-care): prime implicants from the OFF-set, then greedy
//! covering.
//!
//! A cube through ON point `p` with literal mask `m` is an implicant iff
//! `m` separates `p` from every OFF point `q` (`m & (p ^ q) != 0`), and
//! prime iff no literal can be dropped: the primes through `p` are the
//! minimal transversals of `{p ^ q : q ∈ OFF}`.  [`primes`] builds them
//! with Berge's incremental algorithm over `u64` masks, so the work grows
//! with |ON| · |OFF|, never with the 2^n codes; each intermediate family
//! is an antichain over ≤ 16 variables, so at most C(16,8) = 12,870 sets.
//!
//! The cover is *irredundant by construction of the greedy pass* but
//! globally minimal only for small functions — exactly the fidelity class
//! of the original flow.

use std::collections::HashSet;

/// A cube over `n` variables: `mask` bit set ⇒ the variable appears as a
/// literal, with polarity given by the corresponding `val` bit.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct Cube {
    /// Literal-presence mask.
    pub mask: u64,
    /// Polarities (only bits inside `mask` are meaningful).
    pub val: u64,
}

impl Cube {
    /// The minterm cube of `point`.
    pub fn minterm(point: u64, n: usize) -> Cube {
        let mask = if n == 64 { !0 } else { (1u64 << n) - 1 };
        Cube {
            mask,
            val: point & mask,
        }
    }

    /// Whether the cube contains `point`.
    #[inline]
    pub fn contains(&self, point: u64) -> bool {
        point & self.mask == self.val
    }

    /// Whether `self` covers every point of `other`.
    pub fn covers(&self, other: &Cube) -> bool {
        self.mask & other.mask == self.mask && other.val & self.mask == self.val
    }

    /// Number of literals.
    pub fn num_literals(&self) -> usize {
        self.mask.count_ones() as usize
    }

    /// The literals as `(variable, polarity)` pairs, ascending.
    pub fn literals(&self) -> Vec<(usize, bool)> {
        (0..64)
            .filter(|&v| self.mask >> v & 1 == 1)
            .map(|v| (v, self.val >> v & 1 == 1))
            .collect()
    }

    /// Consensus of two cubes, if they oppose in exactly one variable.
    ///
    /// The consensus of two implicants is always an implicant; it is the
    /// cube that bridges them (the classic source of redundant
    /// hazard-cover terms).
    pub fn consensus(&self, other: &Cube) -> Option<Cube> {
        let both = self.mask & other.mask;
        let opposed = (self.val ^ other.val) & both;
        if opposed.count_ones() != 1 {
            return None;
        }
        let mask = (self.mask | other.mask) & !opposed;
        let val = (self.val | other.val) & mask;
        Some(Cube { mask, val })
    }
}

/// A two-level cover: the disjunction of its cubes.
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct Cover {
    /// The product terms.
    pub cubes: Vec<Cube>,
}

impl Cover {
    /// Whether the cover contains `point`.
    pub fn contains(&self, point: u64) -> bool {
        self.cubes.iter().any(|c| c.contains(point))
    }

    /// The distinct variables used, ascending.
    pub fn support(&self) -> Vec<usize> {
        let mut m = 0u64;
        for c in &self.cubes {
            m |= c.mask;
        }
        (0..64).filter(|&v| m >> v & 1 == 1).collect()
    }
}

/// Minimizes the function with ON-set `on` and OFF-set `off` (points
/// over ≤ 16 variables, repeats allowed; every other point is a
/// don't-care): the [`primes`], essential-prime extraction, greedy set
/// cover of the remaining ON-set, then an irredundancy pass.
///
/// The cover depends only on the primes that contain an ON point: one
/// inside the don't-cares covers no ON point, so neither pass can pick
/// it.  Any complete prime generator, such as the Quine–McCluskey merge
/// of ON ∪ DC minterms in `tests/cover_props.rs`, gives the same cover.
///
/// # Panics
///
/// Panics if ON ∩ OFF ≠ ∅ or if a point exceeds 16 variables.
pub fn minimize(on: &[u64], off: &[u64]) -> Cover {
    let (on, off) = points(on, off);
    if on.is_empty() {
        return Cover::default();
    }
    if off.is_empty() {
        // Constant 1: the empty cube.
        return Cover {
            cubes: vec![Cube { mask: 0, val: 0 }],
        };
    }
    let primes = primes(&on, &off);

    // --- Covering. ---
    let mut uncovered: Vec<u64> = on.clone();
    let mut chosen: Vec<Cube> = Vec::new();

    // Essential primes: an ON-minterm covered by exactly one prime.
    let mut essential: HashSet<Cube> = HashSet::new();
    for &p in &uncovered {
        let covering: Vec<&Cube> = primes.iter().filter(|c| c.contains(p)).collect();
        if covering.len() == 1 {
            essential.insert(*covering[0]);
        }
    }
    for c in &essential {
        chosen.push(*c);
    }
    uncovered.retain(|&p| !chosen.iter().any(|c| c.contains(p)));

    // Greedy: repeatedly take the prime covering the most remaining
    // minterms (ties: fewer literals, then lexicographic for determinism).
    while !uncovered.is_empty() {
        let best = primes
            .iter()
            .map(|c| {
                let gain = uncovered.iter().filter(|&&p| c.contains(p)).count();
                (
                    gain,
                    std::cmp::Reverse(c.num_literals()),
                    std::cmp::Reverse(*c),
                )
            })
            .max()
            .expect("primes nonempty when ON nonempty");
        let cube = best.2 .0;
        assert!(best.0 > 0, "no prime covers a remaining ON minterm");
        chosen.push(cube);
        uncovered.retain(|&p| !cube.contains(p));
    }
    chosen.sort_unstable();
    chosen.dedup();

    // Final irredundancy pass: greedy choices can make earlier picks
    // redundant; drop any cube whose ON points are covered by the rest
    // (largest cubes first for determinism).
    loop {
        let removable = (0..chosen.len()).find(|&i| {
            on.iter().all(|&p| {
                !chosen[i].contains(p)
                    || chosen
                        .iter()
                        .enumerate()
                        .any(|(j, c)| j != i && c.contains(p))
            })
        });
        match removable {
            Some(i) => {
                chosen.remove(i);
            }
            None => break,
        }
    }
    Cover { cubes: chosen }
}

/// Returns **all** prime implicants that cover at least one ON minterm —
/// the canonical redundant two-level form (every prime that matters, not
/// just a minimal cover).  Hazard-free two-level synthesis must keep a
/// cube for every required SIC transition, which pushes covers toward
/// this prime closure; the extra cubes are logically redundant and their
/// fault sites untestable.
///
/// # Panics
///
/// Same conditions as [`minimize`].
pub fn all_primes(on: &[u64], off: &[u64]) -> Cover {
    let minimal = minimize(on, off);
    if minimal.cubes.len() <= 1 {
        return minimal;
    }
    Cover {
        cubes: primes(on, off),
    }
}

/// Every prime implicant that contains an ON point, sorted: for each ON
/// point `p`, the minimal transversals of `{p ^ q : q ∈ OFF}` as literal
/// masks, with `p`'s polarities.
///
/// # Panics
///
/// Same conditions as [`minimize`].
pub fn primes(on: &[u64], off: &[u64]) -> Vec<Cube> {
    let (on, off) = points(on, off);
    let mut primes: Vec<Cube> = Vec::new();
    for &p in &on {
        let edges = minimal_sets(off.iter().map(|&q| p ^ q).collect());
        primes.extend(minimal_transversals(&edges).into_iter().map(|mask| Cube {
            mask,
            val: p & mask,
        }));
    }
    primes.sort_unstable();
    primes.dedup();
    primes
}

/// The inclusion-minimal members of `sets`, smallest first.
fn minimal_sets(mut sets: Vec<u64>) -> Vec<u64> {
    sets.sort_unstable_by_key(|&s| (s.count_ones(), s));
    sets.dedup();
    let mut minimal: Vec<u64> = Vec::new();
    for s in sets {
        // Any subset of `s` sorts before it.
        if !minimal.iter().any(|&m| m & !s == 0) {
            minimal.push(s);
        }
    }
    minimal
}

/// The minimal transversals of the nonempty sets `edges`, by Berge's
/// incremental construction.
///
/// After each edge `e` the family holds the minimal transversals of the
/// edges so far: a set that hits `e` stays, and a set `t` that misses it
/// is replaced by each `t ∪ {v}`, `v ∈ e`, that contains no kept set.
/// No other containment can arise because the family was an antichain:
/// `t ∪ {v} ⊆ t' ∪ {v'}` forces `v = v'` and `t ⊆ t'`, so `t = t'`, and
/// a kept set containing `t ∪ {v}` would contain `t`.
fn minimal_transversals(edges: &[u64]) -> Vec<u64> {
    let mut family = vec![0u64];
    for &e in edges {
        let (kept, missed): (Vec<u64>, Vec<u64>) = family.into_iter().partition(|&t| t & e != 0);
        let mut next = kept.clone();
        for t in missed {
            let mut vars = e;
            while vars != 0 {
                let grown = t | (vars & vars.wrapping_neg());
                vars &= vars - 1;
                if !kept.iter().any(|&s| s & !grown == 0) {
                    next.push(grown);
                }
            }
        }
        family = next;
    }
    family
}

/// `on` and `off` sorted and deduplicated, after checking the
/// [`minimize`] contract.
fn points(on: &[u64], off: &[u64]) -> (Vec<u64>, Vec<u64>) {
    let [on, off] = [on, off].map(|pts| {
        let mut v = pts.to_vec();
        v.sort_unstable();
        v.dedup();
        v
    });
    for &p in on.iter().chain(&off) {
        assert!(p >> 16 == 0, "point {p:#x} exceeds 16 variables");
    }
    assert!(
        on.iter().all(|p| off.binary_search(p).is_err()),
        "ON and OFF sets must be disjoint"
    );
    (on, off)
}

/// Verifies that `cover` realizes the incompletely specified function:
/// it contains every ON point and no OFF point.
pub fn verify(cover: &Cover, on: &[u64], off: &[u64]) -> bool {
    on.iter().all(|&p| cover.contains(p)) && !off.iter().any(|&q| cover.contains(q))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The points over `n` variables outside `on` (a fully specified
    /// function's OFF-set).
    fn complement(on: &[u64], n: usize) -> Vec<u64> {
        (0..1u64 << n).filter(|p| !on.contains(p)).collect()
    }

    #[test]
    fn cube_basics() {
        let c = Cube {
            mask: 0b101,
            val: 0b001,
        };
        assert!(c.contains(0b001));
        assert!(c.contains(0b011));
        assert!(!c.contains(0b100));
        assert_eq!(c.num_literals(), 2);
        assert_eq!(c.literals(), vec![(0, true), (2, false)]);
    }

    #[test]
    fn covers_relation() {
        let big = Cube {
            mask: 0b001,
            val: 0b001,
        };
        let small = Cube {
            mask: 0b011,
            val: 0b001,
        };
        assert!(big.covers(&small));
        assert!(!small.covers(&big));
    }

    #[test]
    fn consensus_of_adjacent_cubes() {
        // a·b and ā·c → consensus b·c
        let ab = Cube {
            mask: 0b011,
            val: 0b011,
        };
        let nac = Cube {
            mask: 0b101,
            val: 0b100,
        };
        let cons = ab.consensus(&nac).unwrap();
        assert_eq!(
            cons,
            Cube {
                mask: 0b110,
                val: 0b110
            }
        );
        // Cubes opposing in two variables have no consensus.
        let nanb = Cube {
            mask: 0b011,
            val: 0b000,
        };
        assert_eq!(ab.consensus(&nanb), None);
    }

    #[test]
    fn minimize_xor_needs_two_cubes() {
        // XOR has no DC and no merging: two minterm cubes.
        let (on, off) = ([0b01u64, 0b10], [0b00u64, 0b11]);
        let cover = minimize(&on, &off);
        assert_eq!(cover.cubes.len(), 2);
        assert!(verify(&cover, &on, &off));
    }

    #[test]
    fn minimize_with_dont_cares_collapses() {
        // ON = {11}, OFF = {00}, DC = {01, 10}: a single 1-literal cube
        // suffices.
        let cover = minimize(&[0b11], &[0b00]);
        assert!(verify(&cover, &[0b11], &[0b00]));
        assert_eq!(cover.cubes.len(), 1);
        assert!(cover.cubes[0].num_literals() <= 1);
    }

    #[test]
    fn minimize_constant_one() {
        let cover = minimize(&[0, 1, 2, 3], &[]);
        assert_eq!(cover.cubes.len(), 1);
        assert_eq!(cover.cubes[0].num_literals(), 0);
    }

    #[test]
    fn minimize_empty_on() {
        assert!(minimize(&[], &[0b1]).cubes.is_empty());
    }

    #[test]
    fn c_element_cover() {
        // f(a,b,y) = ab + y(a+b), the Muller C next-state function.
        let mut on = Vec::new();
        for p in 0..8u64 {
            let (a, b, y) = (p & 1 != 0, p & 2 != 0, p & 4 != 0);
            if (a && b) || (y && (a || b)) {
                on.push(p);
            }
        }
        let off = complement(&on, 3);
        let cover = minimize(&on, &off);
        assert!(verify(&cover, &on, &off));
        assert_eq!(cover.cubes.len(), 3, "ab, ay, by");
        for c in &cover.cubes {
            assert_eq!(c.num_literals(), 2);
        }
    }

    #[test]
    fn majority_of_five_is_exact() {
        let n = 5;
        let on: Vec<u64> = (0..32u64).filter(|p| p.count_ones() >= 3).collect();
        let off = complement(&on, n);
        let cover = minimize(&on, &off);
        assert!(verify(&cover, &on, &off));
        assert_eq!(cover.cubes.len(), 10, "C(5,3) three-literal primes");
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn overlapping_on_off_rejected() {
        minimize(&[1], &[1]);
    }

    #[test]
    #[should_panic(expected = "exceeds 16 variables")]
    fn points_past_16_variables_rejected() {
        minimize(&[1 << 16], &[0]);
    }

    #[test]
    fn all_primes_is_a_redundant_superset() {
        // f = ab + āc has three primes: ab, āc and the consensus bc.
        let on: Vec<u64> = (0..8u64)
            .filter(|p| {
                let (a, b, c) = (p & 1 != 0, p & 2 != 0, p & 4 != 0);
                (a && b) || (!a && c)
            })
            .collect();
        let off = complement(&on, 3);
        let min = minimize(&on, &off);
        let all = all_primes(&on, &off);
        assert_eq!(min.cubes.len(), 2);
        assert_eq!(all.cubes.len(), 3, "includes the redundant consensus");
        assert!(verify(&all, &on, &off), "function unchanged");
        for c in &min.cubes {
            assert!(all.cubes.contains(c));
        }
    }

    #[test]
    fn support_lists_used_variables() {
        let cover = Cover {
            cubes: vec![
                Cube {
                    mask: 0b101,
                    val: 0,
                },
                Cube {
                    mask: 0b010,
                    val: 0b010,
                },
            ],
        };
        assert_eq!(cover.support(), vec![0, 1, 2]);
    }
}
