//! An independent soundness oracle for emitted tests.
//!
//! The ATPG's detection criterion is ternary (conservative).  This module
//! re-checks a claimed test with *nondeterministic set semantics*: the
//! faulty machine is tracked as the full set of states it could occupy at
//! each sampling instant over every interleaving of gate delays.  A test
//! truly detects the fault only if, at some cycle, **every** possible
//! faulty state disagrees with the good machine on the observed outputs.

use crate::cssg::TestSequence;
use crate::fault::Fault;
use satpg_netlist::{Bits, Circuit};
use satpg_sim::{CapPolicy, Injection, Settler, SettlerConfig};
use std::collections::BTreeSet;

/// Verdict of [`validate_test`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Verdict {
    /// Every delay assignment exposes the fault by cycle `at` (0-based).
    Detects {
        /// The first cycle with a guaranteed output mismatch.
        at: usize,
    },
    /// Some delay assignment lets the faulty machine mimic the good one
    /// through the whole sequence.
    Inconclusive,
    /// The state-set tracking overflowed; no verdict.
    Overflow,
    /// The sequence is not a valid walk of the good machine.
    GoodInvalid,
}

/// Validates that `seq` detects `fault` under every interleaving, using
/// transition bound `k` per cycle (sampling happens at the end of each
/// cycle; oscillating machines are sampled at any attractor phase).
pub fn validate_test(ckt: &Circuit, fault: &Fault, seq: &TestSequence, k: usize) -> Verdict {
    let scfg = SettlerConfig {
        k,
        cap: CapPolicy::Fixed(1 << 14),
        // The oracle must not lean on the machinery it validates: no
        // ternary shortcut, and no partial-order reduction — this is the
        // raw naive walk the reduced engines are checked against.
        por: false,
        ternary_fast_path: false,
    };
    let mut faulty = Settler::new(ckt, &fault.injection(), &scfg);
    let mut clean = Settler::new(ckt, &Injection::none(), &scfg);
    let s0 = ckt.initial_state().clone();
    let p0 = ckt.input_pattern(&s0);

    // Good machine: deterministic replay (must be confluent every cycle).
    let mut good = s0.clone();
    // Faulty machine: settle the reset state under the fault first.
    let Some(mut fset) = faulty.settle_set(&BTreeSet::from([s0]), p0) else {
        return Verdict::Overflow;
    };
    let mismatch = |good: &Bits, fset: &BTreeSet<Bits>| {
        let gv = ckt.output_values(good);
        !fset.is_empty() && fset.iter().all(|f| ckt.output_values(f) != gv)
    };
    if mismatch(&good, &fset) {
        return Verdict::Detects { at: 0 };
    }
    for (i, p) in seq.patterns.iter().enumerate() {
        let Some(gset) = clean.settle_set(&BTreeSet::from([good.clone()]), p) else {
            return Verdict::Overflow;
        };
        if gset.len() != 1 {
            return Verdict::GoodInvalid;
        }
        good = gset.into_iter().next().expect("len checked");
        if !ckt.is_stable(&good) {
            return Verdict::GoodInvalid;
        }
        let Some(next) = faulty.settle_set(&fset, p) else {
            return Verdict::Overflow;
        };
        fset = next;
        if mismatch(&good, &fset) {
            return Verdict::Detects { at: i + 1 };
        }
    }
    Verdict::Inconclusive
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit_cssg::{build_cssg, CssgConfig};
    use crate::three_phase::{three_phase, FaultStatus, ThreePhaseConfig};
    use satpg_netlist::library;
    use satpg_sim::Site;

    #[test]
    fn oracle_confirms_c_element_test() {
        let ckt = library::c_element();
        let y = ckt.driver(ckt.signal_by_name("y").unwrap()).unwrap();
        let fault = Fault {
            gate: y,
            site: Site::Output,
            stuck: false,
        };
        let seq = TestSequence::from_u64(2, &[0b11]);
        let k = 4 * ckt.num_gates() + 4;
        assert_eq!(
            validate_test(&ckt, &fault, &seq, k),
            Verdict::Detects { at: 1 }
        );
    }

    #[test]
    fn oracle_rejects_non_detecting_sequence() {
        let ckt = library::c_element();
        let y = ckt.driver(ckt.signal_by_name("y").unwrap()).unwrap();
        let fault = Fault {
            gate: y,
            site: Site::Output,
            stuck: false,
        };
        // Only A: y stays 0 in both machines.
        let seq = TestSequence::from_u64(2, &[0b01]);
        let k = 4 * ckt.num_gates() + 4;
        assert_eq!(validate_test(&ckt, &fault, &seq, k), Verdict::Inconclusive);
    }

    #[test]
    fn oracle_flags_invalid_good_walk() {
        let ckt = library::figure1b();
        let g = ckt.driver(ckt.signal_by_name("c").unwrap()).unwrap();
        let fault = Fault {
            gate: g,
            site: Site::Output,
            stuck: true,
        };
        // Oscillates on the good machine.
        let seq = TestSequence::from_u64(2, &[0b01]);
        assert_eq!(
            validate_test(&ckt, &fault, &seq, 4 * ckt.num_gates() + 4),
            Verdict::GoodInvalid
        );
    }

    #[test]
    fn every_three_phase_test_passes_the_oracle() {
        // End-to-end soundness: ternary-based claims survive the
        // exhaustive nondeterministic check.
        for ckt in [
            library::c_element(),
            library::sr_latch(),
            library::muller_pipeline2(),
        ] {
            let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
            let k = cssg.k();
            for fault in crate::fault::input_stuck_faults(&ckt) {
                if let FaultStatus::Detected { sequence } =
                    three_phase(&ckt, &cssg, &fault, &ThreePhaseConfig::default())
                {
                    let v = validate_test(&ckt, &fault, &sequence, k);
                    assert!(
                        matches!(v, Verdict::Detects { .. }),
                        "{}: {} verdict {v:?}",
                        ckt.name(),
                        fault.name(&ckt)
                    );
                }
            }
        }
    }
}
