//! Opt-in symbolic audit of discovered tests.
//!
//! With [`crate::EngineConfig::symbolic_audit`] on, every engine worker
//! owns a private [`Manager`] holding a BDD encoding of the CSSG
//! transition relation `T(S, P, S')`: state index bits `S`, input-pattern
//! bits `P`, next-state bits `S'`.  When the worker's three-phase search
//! emits a test, the auditor replays it as a symbolic image computation
//! — `R' = ∃S,P. R ∧ P=p ∧ T`, renamed back into the `S` frame — and
//! checks the reached set stays non-empty and lands exactly on the
//! states the explicit replay reaches.
//!
//! This is a cross-representation check (explicit search vs. symbolic
//! relation) in the spirit of the paper's §4.2 equivalence of the
//! explicit and BDD-based CSSG constructions.  It never feeds a verdict,
//! so it is off by default; the engine's identity suite runs it.
//!
//! The relation is built in one pass by [`Manager::minterms`], one row
//! per CSSG edge: one node per distinct row prefix and no garbage.  An
//! `or` per edge would re-walk the growing relation on every edge and
//! leave each partial disjunction behind, which dominated the audit's
//! time and memory (`crates/bdd/DESIGN.md` has the figures).

use satpg_bdd::{Bdd, Manager};
use satpg_core::{Cssg, TestSequence};

/// The per-worker symbolic auditor.
pub struct WalkAuditor {
    mgr: Manager,
    /// Bits per state index.
    sbits: u32,
    /// Pattern bits (primary inputs).
    pbits: u32,
    /// The transition relation over (S, P, S').
    relation: Bdd,
    /// Cube of the initial state in the S frame.
    initial: Bdd,
}

fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros().min(usize::BITS - 1)
}

impl WalkAuditor {
    /// Builds the relation BDD from the shared CSSG.
    ///
    /// Variable layout: `[0, sbits)` = current state `S`,
    /// `[sbits, sbits+pbits)` = pattern `P`, `[sbits+pbits, 2·sbits+pbits)`
    /// = next state `S'`.
    pub fn new(cssg: &Cssg) -> Self {
        let sbits = bits_for(cssg.num_states()).max(1);
        let pbits = cssg.num_inputs() as u32;
        let num_vars = 2 * sbits + pbits;
        let mut mgr = Manager::new(num_vars);
        // One row per edge: `(S, P, S')` in variable order.
        let width = num_vars as usize;
        let mut table: Vec<bool> = Vec::with_capacity(cssg.num_edges() * width);
        for s in 0..cssg.num_states() {
            for (p, t) in cssg.edges(s) {
                table.extend((0..sbits).map(|b| s >> b & 1 == 1));
                table.extend((0..pbits).map(|b| p.get(b as usize)));
                table.extend((0..sbits).map(|b| t >> b & 1 == 1));
            }
        }
        let rows: Vec<&[bool]> = table.chunks_exact(width).collect();
        let vars: Vec<u32> = (0..num_vars).collect();
        let relation = mgr.minterms(&vars, &rows);
        let init_lits: Vec<(u32, bool)> = (0..sbits)
            .map(|b| (b, cssg.initial() >> b & 1 == 1))
            .collect();
        let initial = mgr.cube(&init_lits);
        WalkAuditor {
            mgr,
            sbits,
            pbits,
            relation,
            initial,
        }
    }

    /// Symbolically replays `seq` from the initial state.  Returns the
    /// number of states in the final reached set — `Some(1)` for a valid
    /// walk on the deterministic CSSG, `None` if the walk dies (which
    /// would mean the explicit search emitted an invalid test).
    pub fn replay(&mut self, seq: &TestSequence) -> Option<usize> {
        let quantify: Vec<u32> = (0..self.sbits + self.pbits).collect();
        let shift = self.sbits + self.pbits;
        let mut reached = self.initial;
        for p in &seq.patterns {
            let plits: Vec<(u32, bool)> = (0..self.pbits)
                .map(|b| (self.sbits + b, p.get(b as usize)))
                .collect();
            let pcube = self.mgr.cube(&plits);
            let constrained = self.mgr.and(reached, pcube);
            let img = self.mgr.and_exists(constrained, self.relation, &quantify);
            if img.is_false() {
                return None;
            }
            // Rename S' down into the S frame.
            reached = self.mgr.remap(img, &|v| v - shift);
        }
        Some(self.count_states(reached))
    }

    /// Audits one discovered test: valid iff the symbolic replay
    /// survives every cycle.  The deterministic CSSG keeps the reached
    /// set a single state, which the audit also asserts.
    pub fn check(&mut self, seq: &TestSequence) -> bool {
        matches!(self.replay(seq), Some(1))
    }

    /// BDD variables of the relation: `2·sbits + pbits`.
    pub fn num_vars(&self) -> u32 {
        self.mgr.num_vars()
    }

    /// Operation-cache entries of the private manager (telemetry).
    pub fn cache_len(&self) -> usize {
        self.mgr.cache_len()
    }

    /// Decision nodes the private manager holds: every node it ever
    /// made, so also its high-water mark (telemetry).
    pub fn unique_len(&self) -> usize {
        self.mgr.unique_len()
    }

    fn count_states(&self, set: Bdd) -> usize {
        // Enumerate assignments of the S frame satisfying `set`.
        let mut count = 0usize;
        for s in 0..(1usize << self.sbits) {
            if self.mgr.eval(set, &|v| s >> v & 1 == 1) {
                count += 1;
            }
        }
        count
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_core::{build_cssg, CssgConfig};
    use satpg_netlist::library;

    fn cssg_of(ckt: &satpg_netlist::Circuit) -> satpg_core::Cssg {
        build_cssg(ckt, &CssgConfig::default()).unwrap()
    }

    #[test]
    fn valid_walks_pass_invalid_walks_fail() {
        let ckt = library::c_element();
        let cssg = cssg_of(&ckt);
        let mut aud = WalkAuditor::new(&cssg);
        // Raise both inputs: a CSSG edge from reset.
        let good = TestSequence::from_u64(2, &[0b11]);
        assert!(aud.check(&good));
        // Replaying the current reset pattern is never an edge.
        let bad = TestSequence::from_u64(2, &[0b00]);
        assert!(!aud.check(&bad));
    }

    #[test]
    fn symbolic_replay_matches_explicit_replay_everywhere() {
        for ckt in library::all() {
            let cssg = cssg_of(&ckt);
            let mut aud = WalkAuditor::new(&cssg);
            // Every single-step walk agrees with Cssg::replay.
            for s in [cssg.initial()] {
                for (p, _) in cssg.edges(s) {
                    let seq = TestSequence {
                        patterns: vec![p.clone()],
                    };
                    assert_eq!(
                        aud.check(&seq),
                        cssg.replay(&seq).is_some(),
                        "{}: pattern {p}",
                        ckt.name()
                    );
                }
            }
        }
    }

    #[test]
    fn audits_multi_step_atpg_tests() {
        let ckt = library::muller_pipeline2();
        let cssg = cssg_of(&ckt);
        let report = satpg_core::run_atpg(&ckt, &satpg_core::AtpgConfig::paper()).unwrap();
        let mut aud = WalkAuditor::new(&cssg);
        for t in &report.tests {
            if t.is_empty() {
                continue;
            }
            assert!(aud.check(t), "ATPG test must be a valid walk");
        }
        assert!(aud.unique_len() > 0, "relation BDD is non-trivial");
    }

    /// The relation's node count is deterministic: one node per distinct
    /// row prefix.  Audited campaigns report a worker's peak, which adds
    /// the nodes of its replays and so varies with how the tests split.
    #[test]
    fn relation_sizes_are_pinned() {
        let dme = {
            let stg = satpg_stg::families::dme_ring(3).unwrap();
            let sg = satpg_stg::StateGraph::build(&stg).unwrap();
            satpg_stg::synth::complex_gate(&stg, &sg).unwrap()
        };
        let cases = [
            (dme, 27),
            (satpg_netlist::families::muller_pipeline(6), 89),
            (satpg_netlist::families::arbiter_tree(4), 491),
        ];
        for (ckt, nodes) in cases {
            let aud = WalkAuditor::new(&cssg_of(&ckt));
            assert_eq!(aud.unique_len(), nodes, "{}", ckt.name());
        }
    }
}
