//! Exhaustive interleaving exploration: the k-bounded settling analysis.
//!
//! From a stable state with a new input pattern applied, the set of states
//! reachable after exactly `i` transitions (stable states self-looping) is
//! iterated to depth `k`.  The (state, pattern) pair is *valid* — an edge
//! of the CSSG — iff that set at depth `k` is a single stable state, i.e.
//! every interleaving of gate switchings settles to the same place within
//! the test cycle.
//!
//! This module is the legacy surface: [`settle_explicit`] and
//! [`settle_set`] are thin adapters over the unified
//! [`Settler`](crate::Settler) engine, pinned to its naive (no
//! partial-order reduction, fixed-cap) mode so their historical
//! semantics — including the exact truncation boundary — are preserved
//! bit for bit.  New code should drive [`Settler`](crate::Settler)
//! directly and pick a [`CapPolicy`](crate::CapPolicy).

use crate::inject::Injection;
use crate::settler::{CapPolicy, Settle, Settler, SettlerConfig};
use satpg_netlist::{Bits, Circuit, IntoPattern};
use std::collections::BTreeSet;

/// Configuration for [`settle_explicit`] (the legacy fixed-cap shape).
#[derive(Clone, Copy, Debug)]
pub struct ExplicitConfig {
    /// Maximum number of transitions `k` (the test-cycle bound of §4.1).
    pub k: usize,
    /// Cap on the simultaneously tracked state set.
    pub max_states: usize,
    /// Skip the exhaustive exploration when scalar ternary simulation
    /// already proves confluence.  A definite ternary outcome means every
    /// *fair* schedule (each excited gate eventually fires — guaranteed by
    /// finite inertial delays) settles to that state; the literal
    /// k-bounded frontier additionally contains physically impossible
    /// unfair interleavings that postpone a gate forever, so the fast
    /// path may accept a vector the raw `TCR_k` definition rejects.
    /// Disable to exercise the exact k-bounded definition.
    pub ternary_fast_path: bool,
}

impl ExplicitConfig {
    /// Defaults for a circuit: `k = 4·gates + 4`, 1<<16 tracked states,
    /// fast path on.
    pub fn for_circuit(ckt: &Circuit) -> Self {
        ExplicitConfig {
            k: 4 * ckt.num_gates() + 4,
            max_states: 1 << 16,
            ternary_fast_path: true,
        }
    }

    /// Same but with an explicit `k`.
    pub fn with_k(ckt: &Circuit, k: usize) -> Self {
        ExplicitConfig {
            k,
            ..Self::for_circuit(ckt)
        }
    }

    /// The equivalent [`SettlerConfig`]: fixed cap, POR off, serial —
    /// the exact legacy walk.
    pub fn settler(&self) -> SettlerConfig {
        SettlerConfig {
            k: self.k,
            cap: CapPolicy::Fixed(self.max_states),
            por: false,
            ternary_fast_path: self.ternary_fast_path,
        }
    }
}

/// Runs the k-bounded settling analysis for input `pattern` applied to the
/// stable state `from` (under an optional fault injection).
///
/// `from` must be stable *under the injection*; the input application
/// itself counts as the first of the `k` steps, as in the paper's
/// `TCR_k` definition.
pub fn settle_explicit(
    ckt: &Circuit,
    from: &Bits,
    pattern: impl IntoPattern,
    inj: &Injection,
    cfg: &ExplicitConfig,
) -> Settle {
    Settler::new(ckt, inj, &cfg.settler()).settle(from, pattern)
}

/// The set of states the (possibly faulty) circuit may occupy when the
/// tester samples, given it may occupy any state of `from` when `pattern`
/// is applied.
///
/// This is the k-bounded frontier of every interleaving, *closed* under
/// further transitions while any member is still unstable: an oscillating
/// machine is sampled at an unknown phase, so every state of its attractor
/// is possible.  For settling machines the closure is free (stable states
/// absorb) and the result equals the unique/raced settle set.
///
/// Returns `None` when the tracked set exceeds `cfg.max_states`
/// (conservative: the caller must not claim detection).  The underlying
/// [`Settler::settle_set`] reports the same condition as a distinct
/// [`crate::SetSettle::Truncated`] verdict.
pub fn settle_set(
    ckt: &Circuit,
    from: &BTreeSet<Bits>,
    pattern: impl IntoPattern,
    inj: &Injection,
    cfg: &ExplicitConfig,
) -> Option<BTreeSet<Bits>> {
    Settler::new(ckt, inj, &cfg.settler())
        .settle_set(from, pattern)
        .ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inject::Site;
    use crate::ternary::{ternary_settle, TernaryOutcome};
    use satpg_netlist::{library, Pattern};

    fn cfg_exact(ckt: &Circuit) -> ExplicitConfig {
        ExplicitConfig {
            ternary_fast_path: false,
            ..ExplicitConfig::for_circuit(ckt)
        }
    }

    #[test]
    fn c_element_confluent() {
        let c = library::c_element();
        let r = settle_explicit(
            &c,
            c.initial_state(),
            0b11,
            &Injection::none(),
            &cfg_exact(&c),
        );
        let s = r.confluent().expect("C-element raise is confluent");
        assert!(c.is_stable(s));
        assert!(s.get(c.signal_by_name("y").unwrap().index()));
    }

    #[test]
    fn figure1a_non_confluent() {
        let c = library::figure1a();
        let r = settle_explicit(
            &c,
            c.initial_state(),
            0b01,
            &Injection::none(),
            &cfg_exact(&c),
        );
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
        let r = settle_explicit(
            &c,
            c.initial_state(),
            0b01,
            &Injection::none(),
            &cfg_exact(&c),
        );
        assert!(matches!(r, Settle::Unstable(_)), "oscillation detected");
    }

    #[test]
    fn fast_path_agrees_with_exact_on_definite_cases() {
        for ckt in library::all() {
            for pattern in Pattern::all(ckt.num_inputs()) {
                let fast = settle_explicit(
                    &ckt,
                    ckt.initial_state(),
                    &pattern,
                    &Injection::none(),
                    &ExplicitConfig::for_circuit(&ckt),
                );
                let exact = settle_explicit(
                    &ckt,
                    ckt.initial_state(),
                    &pattern,
                    &Injection::none(),
                    &cfg_exact(&ckt),
                );
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
        let cfg = ExplicitConfig {
            k: 2, // input application + one gate step: cannot finish
            max_states: 1024,
            ternary_fast_path: false,
        };
        let r = settle_explicit(&c, c.initial_state(), 0b11, &Injection::none(), &cfg);
        assert!(matches!(r, Settle::Unstable(_)));
    }

    #[test]
    fn injection_changes_settling() {
        let c = library::c_element();
        let y = c.driver(c.signal_by_name("y").unwrap()).unwrap();
        let inj = Injection::single(y, Site::Output, false);
        let r = settle_explicit(&c, c.initial_state(), 0b11, &inj, &cfg_exact(&c));
        let s = r
            .confluent()
            .expect("stuck-at keeps circuit confluent here");
        assert!(!s.get(c.signal_by_name("y").unwrap().index()));
    }

    #[test]
    fn truncation_is_reported() {
        let c = library::figure1a();
        let cfg = ExplicitConfig {
            k: 64,
            max_states: 1,
            ternary_fast_path: false,
        };
        let r = settle_explicit(&c, c.initial_state(), 0b01, &Injection::none(), &cfg);
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
                    let exact = settle_explicit(
                        &ckt,
                        ckt.initial_state(),
                        &pattern,
                        &Injection::none(),
                        &cfg_exact(&ckt),
                    );
                    match exact {
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
}
