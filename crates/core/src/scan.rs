//! Scan-point selection — the paper's stated future work ("automatic
//! techniques to select those signals in which the insertion of scan
//! paths can contribute to improve testability").
//!
//! For every fault left undetected by the flow, the good×faulty product
//! is walked once more (three-phase's own walk, which never stops here),
//! recording at which *internal* signals a
//! guaranteed mismatch (every possible faulty state disagrees with the
//! good machine) occurs.  A signal that would expose many undetected
//! faults if it were observable is a good candidate for a test point or
//! partial scan — the paper's suggested remedy for the poorly-covered
//! redundant circuits of Table 2.

use crate::atpg::AtpgReport;
use crate::cssg::Cssg;
use crate::fault::Fault;
use crate::three_phase::{product_walk, ThreePhaseConfig};
use satpg_netlist::{Bits, Circuit, SignalId};
use std::collections::{BTreeSet, HashSet};

/// One scan candidate: an internal signal and the undetected faults it
/// would expose if observable.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ScanCandidate {
    /// The signal to observe.
    pub signal: SignalId,
    /// Indices (into the analyzed fault list) of faults it would expose.
    pub exposes: Vec<usize>,
}

/// Result of [`scan_candidates`].
#[derive(Clone, PartialEq, Eq, Debug, Default)]
pub struct ScanAnalysis {
    /// Candidates sorted by decreasing number of exposed faults.
    pub candidates: Vec<ScanCandidate>,
    /// Faults that no single observation point exposes.
    pub hopeless: Vec<usize>,
}

/// Signals (state-bit mask) at which every state of `fset` disagrees with
/// `good`.
fn mismatch_mask(ckt: &Circuit, good: &Bits, fset: &BTreeSet<Bits>) -> Vec<bool> {
    let n = ckt.num_state_bits();
    let mut mask = vec![true; n];
    for f in fset {
        for (i, m) in mask.iter_mut().enumerate() {
            if *m && f.get(i) == good.get(i) {
                *m = false;
            }
        }
    }
    if fset.is_empty() {
        mask.fill(false);
    }
    mask
}

/// Walks the product machine of one fault (three-phase's own walk, to
/// its end) and returns the signals at which a guaranteed mismatch is
/// ever reachable.
fn exposing_signals(
    ckt: &Circuit,
    cssg: &Cssg,
    fault: &Fault,
    cfg: &ThreePhaseConfig,
) -> Vec<bool> {
    let mut exposed = vec![false; ckt.num_state_bits()];
    product_walk(ckt, cssg, fault, cfg, |good, faulty| {
        let mask = mismatch_mask(ckt, &cssg.states()[good], faulty);
        for (e, m) in exposed.iter_mut().zip(mask) {
            *e |= m;
        }
        false
    });
    exposed
}

/// Ranks internal signals by how many of the report's undetected faults
/// each would expose if it were observable.
///
/// All non-detected faults (untestable and aborted alike) are analyzed:
/// a redundancy that is untestable at the primary outputs may well be
/// observable internally, which is exactly the partial-scan argument.
pub fn scan_candidates(
    ckt: &Circuit,
    cssg: &Cssg,
    report: &AtpgReport,
    cfg: &ThreePhaseConfig,
) -> ScanAnalysis {
    let undetected: Vec<(usize, Fault)> = report
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| r.detected_by.is_none())
        .map(|(i, r)| (i, r.fault))
        .collect();
    let outputs: HashSet<usize> = ckt.outputs().iter().map(|o| o.index()).collect();
    let n = ckt.num_state_bits();
    let mut per_signal: Vec<Vec<usize>> = vec![Vec::new(); n];
    let mut hopeless = Vec::new();
    for (fi, fault) in &undetected {
        let exposed = exposing_signals(ckt, cssg, fault, cfg);
        let mut any = false;
        for (sig, &e) in exposed.iter().enumerate() {
            // Primary outputs are already observable; skip environment pins.
            if e && !outputs.contains(&sig) && sig >= ckt.num_inputs() {
                per_signal[sig].push(*fi);
                any = true;
            }
        }
        if !any {
            hopeless.push(*fi);
        }
    }
    let mut candidates: Vec<ScanCandidate> = per_signal
        .into_iter()
        .enumerate()
        .filter(|(_, v)| !v.is_empty())
        .map(|(sig, exposes)| ScanCandidate {
            signal: SignalId(sig as u32),
            exposes,
        })
        .collect();
    candidates.sort_by_key(|c| std::cmp::Reverse(c.exposes.len()));
    ScanAnalysis {
        candidates,
        hopeless,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::atpg::{run_atpg, AtpgConfig};
    use crate::explicit_cssg::{build_cssg, CssgConfig};
    use satpg_netlist::{CircuitBuilder, GateKind};

    /// A circuit with an internal redundancy invisible at the output:
    /// y = a·b + a·b̄ = a, decomposed so the cube gates c0/c1 exist as
    /// internal nodes.  The b-pin faults are untestable at y but flip
    /// c0/c1 — classic partial-scan candidates.
    fn redundant_decomposed() -> satpg_netlist::Circuit {
        let mut bld = CircuitBuilder::new("red2l");
        let a = bld.input("A", "a");
        let b = bld.input("B", "b");
        let nb = bld.gate("b_n", GateKind::Not, vec![b.clone()]);
        let c0 = bld.gate("c0", GateKind::And, vec![a.clone(), b]);
        let c1 = bld.gate("c1", GateKind::And, vec![a, nb]);
        let y = bld.gate("y", GateKind::Or, vec![c0, c1]);
        bld.output(y);
        bld.init("b_n", true);
        bld.finish().unwrap()
    }

    #[test]
    fn internal_observation_exposes_redundant_faults() {
        let ckt = redundant_decomposed();
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        assert!(
            report.covered() < report.total(),
            "the redundancy leaves undetected faults"
        );
        let analysis = scan_candidates(&ckt, &cssg, &report, &ThreePhaseConfig::default());
        assert!(
            !analysis.candidates.is_empty(),
            "some internal point exposes them"
        );
        // The cube outputs c0/c1 are the classic scan candidates here.
        let names: Vec<&str> = analysis
            .candidates
            .iter()
            .map(|c| ckt.signal_name(c.signal))
            .collect();
        assert!(
            names.contains(&"c0") || names.contains(&"c1"),
            "expected a cube output among {names:?}"
        );
        // Every exposed fault is indeed currently undetected.
        for c in &analysis.candidates {
            for &fi in &c.exposes {
                assert!(report.records[fi].detected_by.is_none());
            }
        }
    }

    #[test]
    fn fully_covered_circuit_yields_no_candidates() {
        let ckt = satpg_netlist::library::c_element();
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        assert_eq!(report.covered(), report.total());
        let analysis = scan_candidates(&ckt, &cssg, &report, &ThreePhaseConfig::default());
        assert!(analysis.candidates.is_empty());
        assert!(analysis.hopeless.is_empty());
    }
}
