//! Parallel-ternary fault simulation: replay a test sequence against up
//! to 63 faulty machines at once (§5.4).

use crate::cssg::{Cssg, TestSequence};
use crate::fault::Fault;
use satpg_netlist::Circuit;
use satpg_sim::{parallel_settle, Injection, ParallelInjection, PlaneState};

/// Checks which lanes are *provably* detected at the current cycle:
/// lane `l` is detected when some primary output is definite on `l` and
/// differs from the good machine's value.
pub(crate) fn detect_lanes(
    ckt: &Circuit,
    planes: &PlaneState,
    good_state: &satpg_netlist::Bits,
    lanes: usize,
    detected: &mut [bool],
) {
    for (oi, &osig) in ckt.outputs().iter().enumerate() {
        let _ = oi;
        let good = good_state.get(osig.index());
        for (l, d) in detected.iter_mut().enumerate().take(lanes).skip(1) {
            if *d {
                continue;
            }
            if let Some(v) = planes.definite(osig.index(), l) {
                if v != good {
                    *d = true;
                }
            }
        }
    }
}

/// Replays `seq` on the good machine (via the CSSG) and a batch of faulty
/// machines (lanes 1..), returning which batch members are detected.
///
/// Lane 0 is the good machine.  Returns `None` if the sequence is invalid
/// on the good machine.
pub(crate) fn replay_batch(
    ckt: &Circuit,
    cssg: &Cssg,
    seq: &TestSequence,
    faults: &[Fault],
) -> Option<Vec<bool>> {
    assert!(faults.len() <= 63, "at most 63 faults per batch");
    let lanes = faults.len() + 1;
    let mut inj = vec![Injection::none()];
    inj.extend(faults.iter().map(Fault::injection));
    let pinj = ParallelInjection::new(&inj);

    let s0 = &cssg.states()[cssg.initial()];
    let mut planes = PlaneState::broadcast(s0);
    // Bring the faulty lanes to their reset fixpoint.
    planes = parallel_settle(ckt, &planes, ckt.input_pattern(s0), &pinj);
    let mut detected = vec![false; lanes];
    let mut good = cssg.initial();
    detect_lanes(ckt, &planes, &cssg.states()[good], lanes, &mut detected);
    for p in &seq.patterns {
        good = cssg.successor(good, p)?;
        planes = parallel_settle(ckt, &planes, p, &pinj);
        detect_lanes(ckt, &planes, &cssg.states()[good], lanes, &mut detected);
        if detected.iter().skip(1).all(|&d| d) {
            break;
        }
    }
    Some(detected[1..].to_vec())
}

/// Simulates a test sequence against a set of faults and returns the
/// indices (into `faults`) of those it provably detects.
///
/// This is the paper's post-ATPG fault simulation: whenever the 3-phase
/// search finds a test, the same patterns are simulated on every
/// remaining faulty circuit to harvest extra coverage cheaply.  Ternary
/// conservatism may under-report (the paper's "low number of faults
/// covered by fault simulation"), which costs nothing: missed faults are
/// still targeted later.
pub fn fault_simulate(
    ckt: &Circuit,
    cssg: &Cssg,
    seq: &TestSequence,
    faults: &[Fault],
) -> Vec<usize> {
    let mut hit = Vec::new();
    for (chunk_idx, chunk) in faults.chunks(63).enumerate() {
        if let Some(det) = replay_batch(ckt, cssg, seq, chunk) {
            for (i, d) in det.into_iter().enumerate() {
                if d {
                    hit.push(chunk_idx * 63 + i);
                }
            }
        }
    }
    hit
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit_cssg::{build_cssg, CssgConfig};
    use crate::fault::input_stuck_faults;
    use satpg_netlist::library;
    use satpg_sim::Site;

    #[test]
    fn stuck_output_detected_by_raise_sequence() {
        let ckt = library::c_element();
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let y = ckt.driver(ckt.signal_by_name("y").unwrap()).unwrap();
        let fault = Fault {
            gate: y,
            site: Site::Output,
            stuck: false,
        };
        let seq = TestSequence::from_u64(2, &[0b11]);
        let hit = fault_simulate(&ckt, &cssg, &seq, &[fault]);
        assert_eq!(hit, vec![0], "y/SA0 caught by raising both inputs");
    }

    #[test]
    fn sequence_that_never_excites_detects_nothing() {
        let ckt = library::c_element();
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        let y = ckt.driver(ckt.signal_by_name("y").unwrap()).unwrap();
        let fault = Fault {
            gate: y,
            site: Site::Output,
            stuck: false, // y is 0 at reset; a 0-keeping pattern won't show it
        };
        // Only B rises: y stays 0 in the good machine.
        let seq = TestSequence::from_u64(2, &[0b10]);
        let hit = fault_simulate(&ckt, &cssg, &seq, &[fault]);
        assert!(hit.is_empty());
    }

    #[test]
    fn invalid_sequence_is_rejected() {
        let ckt = library::figure1b();
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        // Oscillates: not a CSSG edge.
        let seq = TestSequence::from_u64(2, &[0b01]);
        assert!(replay_batch(&ckt, &cssg, &seq, &[]).is_none());
    }

    #[test]
    fn batching_covers_more_than_63_faults() {
        let ckt = library::muller_pipeline2();
        let cssg = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        // Duplicate the fault list to exceed one batch.
        let mut faults = input_stuck_faults(&ckt);
        let base = faults.clone();
        for _ in 0..10 {
            faults.extend(base.iter().copied());
        }
        assert!(faults.len() > 63);
        let seq = TestSequence::from_u64(2, &[0b01, 0b11, 0b10, 0b00]);
        let hit = fault_simulate(&ckt, &cssg, &seq, &faults);
        // Any fault detected in the first copy must be detected in all
        // copies at shifted indices.
        for &i in &hit {
            if i < base.len() {
                assert!(hit.contains(&(i + base.len())), "fault {i} copy");
            }
        }
        assert!(!hit.is_empty(), "the walk should catch something");
    }

    /// Fault simulation is lane-pure: a batch detects exactly the faults
    /// whose one-fault runs detect, whatever shares the batch, so
    /// permuting or duplicating the list changes nothing.  The targeted
    /// stage and the engine's backlog screening skip repeat simulations
    /// on the strength of this.
    #[test]
    fn batches_detect_exactly_the_one_fault_runs() {
        use crate::fault::output_stuck_faults;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let dme = satpg_stg::families::dme_ring(3).expect("the dme-3 STG");
        let sg = satpg_stg::StateGraph::build(&dme).expect("the dme-3 state graph");
        let mut circuits = library::all();
        circuits.extend([
            satpg_netlist::families::muller_pipeline(6),
            satpg_stg::synth::complex_gate(&dme, &sg).expect("dme-3 synthesizes"),
            satpg_netlist::families::arbiter_tree(4),
        ]);
        let mut rng = StdRng::seed_from_u64(0x1a7e);
        let mut detections = 0;
        for ckt in &circuits {
            let cssg = build_cssg(ckt, &CssgConfig::default()).unwrap();
            if cssg.edges(cssg.initial()).is_empty() {
                continue; // no valid vector (figure1b)
            }
            let mut pool = input_stuck_faults(ckt);
            pool.extend(output_stuck_faults(ckt));
            for _ in 0..8 {
                // A valid CSSG walk of 1–8 patterns from reset.
                let mut seq = TestSequence::default();
                let mut state = cssg.initial();
                for _ in 0..rng.gen_range(1usize..9) {
                    let edges = cssg.edges(state);
                    if edges.is_empty() {
                        break;
                    }
                    let (pattern, next) = edges[rng.gen_range(0..edges.len())].clone();
                    seq.patterns.push(pattern);
                    state = next;
                }
                let alone: Vec<bool> = pool
                    .iter()
                    .map(|f| !fault_simulate(ckt, &cssg, &seq, &[*f]).is_empty())
                    .collect();
                for _ in 0..4 {
                    let mut picks: Vec<usize> = (0..rng.gen_range(1usize..131))
                        .map(|_| rng.gen_range(0..pool.len()))
                        .collect();
                    for _ in 0..2 {
                        let faults: Vec<Fault> = picks.iter().map(|&i| pool[i]).collect();
                        let want: Vec<usize> =
                            (0..picks.len()).filter(|&j| alone[picks[j]]).collect();
                        let got = fault_simulate(ckt, &cssg, &seq, &faults);
                        assert_eq!(got, want, "{} under {:?}", ckt.name(), seq.patterns);
                        detections += got.len();
                        picks.reverse();
                    }
                }
            }
        }
        assert!(detections > 0, "the walks must detect something");
    }
}
