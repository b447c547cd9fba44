//! Property tests for the two-level minimizer on random incompletely
//! specified functions, and a Quine–McCluskey reference that the
//! OFF-set prime generator must reproduce exactly.

use proptest::prelude::*;
use satpg_stg::cover::{all_primes, minimize, primes, verify, Cube};
use satpg_stg::synth::add_consensus_cubes;
use satpg_stg::{families, suite, StateGraph, Stg};
use std::collections::{HashMap, HashSet};

/// The primes of ON ∪ DC that touch ON, by Quine–McCluskey merging of
/// every ON and DC minterm.  Each output costs about 5^n / 2 same-mask
/// cube comparisons, so this reference is only usable for small `n`.
fn qm_primes(on: &[u64], dc: &[u64], n: usize) -> Vec<Cube> {
    let on_set: HashSet<u64> = on.iter().copied().collect();
    let dc_set: HashSet<u64> = dc.iter().copied().collect();
    let mut current: HashSet<Cube> = on_set
        .iter()
        .chain(dc_set.iter())
        .map(|&p| Cube::minterm(p, n))
        .collect();
    let mut primes: Vec<Cube> = Vec::new();
    while !current.is_empty() {
        let mut merged: HashSet<Cube> = HashSet::new();
        let mut was_merged: HashSet<Cube> = HashSet::new();
        // Group by mask to merge only compatible cubes.
        let mut by_mask: HashMap<u64, Vec<Cube>> = HashMap::new();
        for &c in &current {
            by_mask.entry(c.mask).or_default().push(c);
        }
        for group in by_mask.values() {
            for (i, a) in group.iter().enumerate() {
                for b in &group[i + 1..] {
                    let diff = a.val ^ b.val;
                    if diff.count_ones() == 1 {
                        merged.insert(Cube {
                            mask: a.mask & !diff,
                            val: a.val & !diff,
                        });
                        was_merged.insert(*a);
                        was_merged.insert(*b);
                    }
                }
            }
        }
        for &c in &current {
            if !was_merged.contains(&c) {
                primes.push(c);
            }
        }
        current = merged;
    }
    let mut cubes: Vec<Cube> = primes
        .into_iter()
        .filter(|c| on_set.iter().any(|&p| c.contains(p)))
        .collect();
    cubes.sort_unstable();
    cubes.dedup();
    cubes
}

/// An incompletely specified function over `n` variables.
#[derive(Debug, Default)]
struct Function {
    n: usize,
    on: Vec<u64>,
    dc: Vec<u64>,
    off: Vec<u64>,
}

impl Function {
    /// Checks `primes`, and `all_primes` under its minimal-cover rule,
    /// against the Quine–McCluskey reference.
    fn primes_match_reference(&self) -> Result<(), String> {
        let reference = qm_primes(&self.on, &self.dc, self.n);
        let got = primes(&self.on, &self.off);
        if got != reference {
            return Err(format!("primes {got:?}, reference {reference:?}"));
        }
        let min = minimize(&self.on, &self.off);
        let all = all_primes(&self.on, &self.off);
        let expect = if min.cubes.len() <= 1 {
            min.cubes
        } else {
            reference
        };
        if all.cubes != expect {
            return Err(format!("all_primes {:?}, expected {expect:?}", all.cubes));
        }
        Ok(())
    }
}

/// Functions over 1..=8 variables, each point drawn as ON, DC or OFF.
/// The ON and DC shares vary per function (0 to 1/2 each), so constant,
/// empty and DC-heavy functions all occur.
fn function() -> impl Strategy<Value = Function> {
    (1usize..=8, 0u8..=4, 0u8..=4).prop_flat_map(|(n, on_share, dc_share)| {
        proptest::collection::vec(0u8..8, 1usize << n).prop_map(move |labels| {
            let mut f = Function {
                n,
                ..Function::default()
            };
            for (p, label) in labels.into_iter().enumerate() {
                let set = if label < on_share {
                    &mut f.on
                } else if label < on_share + dc_share {
                    &mut f.dc
                } else {
                    &mut f.off
                };
                set.push(p as u64);
            }
            f
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The minimized cover realizes the function: every ON point in,
    /// every OFF point out.
    #[test]
    fn minimize_is_correct(f in function()) {
        let cover = minimize(&f.on, &f.off);
        prop_assert!(verify(&cover, &f.on, &f.off));
    }

    /// No cube of the minimized cover is redundant: dropping any cube
    /// uncovers some ON point.
    #[test]
    fn minimize_is_irredundant(f in function()) {
        let cover = minimize(&f.on, &f.off);
        for skip in 0..cover.cubes.len() {
            let missing = f.on.iter().any(|&p| {
                !cover
                    .cubes
                    .iter()
                    .enumerate()
                    .any(|(i, c)| i != skip && c.contains(p))
            });
            prop_assert!(missing, "cube {skip} is redundant");
        }
    }

    /// The all-primes cover realizes the same function and contains the
    /// minimal cover's worth of primes.
    #[test]
    fn all_primes_same_function(f in function()) {
        let full = all_primes(&f.on, &f.off);
        prop_assert!(verify(&full, &f.on, &f.off));
        let min = minimize(&f.on, &f.off);
        prop_assert!(full.cubes.len() >= min.cubes.len());
        // Every cube of the full cover is prime: expanding any literal
        // hits the OFF set.
        for c in &full.cubes {
            for (v, _) in c.literals() {
                let expanded = Cube {
                    mask: c.mask & !(1 << v),
                    val: c.val & !(1 << v),
                };
                let hits_off = f.off.iter().any(|&p| expanded.contains(p));
                prop_assert!(hits_off, "literal {v} of {c:?} is removable");
            }
        }
    }

    /// The OFF-set transversal generator finds exactly the primes that
    /// Quine–McCluskey merging finds, and `all_primes` returns them.
    #[test]
    fn primes_match_quine_mccluskey(f in function()) {
        f.primes_match_reference().map_err(TestCaseError::fail)?;
    }

    /// Consensus of two cover cubes never changes the function.
    #[test]
    fn consensus_preserves_function(f in function()) {
        let cover = minimize(&f.on, &f.off);
        let aug = add_consensus_cubes(&cover);
        for p in 0..1u64 << f.n {
            prop_assert_eq!(cover.contains(p), aug.contains(p));
        }
    }
}

/// The next-state function of every non-input signal of `stg`: ON and
/// OFF are the reachable codes whose next value is 1 and 0, DC the
/// unreachable codes.
fn next_state_functions(stg: &Stg) -> Vec<Function> {
    let sg = StateGraph::build(stg).unwrap();
    let n = stg.num_signals();
    let mut firsts: HashMap<u64, usize> = HashMap::new();
    for (i, st) in sg.states().iter().enumerate() {
        firsts.entry(st.code).or_insert(i);
    }
    stg.non_input_signals()
        .into_iter()
        .map(|s| {
            let mut f = Function {
                n,
                ..Function::default()
            };
            for code in 0..1u64 << n {
                match firsts.get(&code) {
                    Some(&i) if sg.next_value(stg, i, s) => f.on.push(code),
                    Some(_) => f.off.push(code),
                    None => f.dc.push(code),
                }
            }
            f
        })
        .collect()
}

/// The synthesis inputs the flow actually minimizes: every bundled
/// benchmark, and the generated families up to 9 signals.
#[test]
fn primes_match_quine_mccluskey_on_benchmarks_and_families() {
    let mut specs: Vec<Stg> = suite::NAMES
        .iter()
        .map(|name| suite::load(name).unwrap())
        .collect();
    specs.extend((2..=4).map(|cells| families::dme_ring(cells).unwrap()));
    specs.extend((1..=8).map(|stages| families::sequencer(stages).unwrap()));
    for stg in &specs {
        for (k, f) in next_state_functions(stg).iter().enumerate() {
            if let Err(e) = f.primes_match_reference() {
                panic!("{} non-input {k}: {e}", stg.name());
            }
        }
    }
}
