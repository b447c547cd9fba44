//! Symbolic audit of discovered tests.
//!
//! Every engine worker owns a private [`Manager`] holding a BDD encoding
//! of the CSSG transition relation `T(S, P, S')`: state index bits `S`,
//! input-pattern bits `P`, next-state bits `S'`.  When the worker's
//! three-phase search emits a test, the auditor replays it as a symbolic
//! image computation — `R' = ∃S,P. R ∧ P=p ∧ T`, renamed back into the
//! `S` frame — and checks the reached set stays non-empty and lands
//! exactly on the states the explicit replay reaches.
//!
//! This is a cross-representation check (explicit search vs. symbolic
//! relation) in the spirit of the paper's §4.2 equivalence of the
//! explicit and BDD-based CSSG constructions, and it exercises the
//! per-worker manager enough to make the reported BDD telemetry
//! (node/cache counts, bounded cache clears) meaningful.
//!
//! The relation is built in one pass by [`Manager::minterms`], one row
//! per CSSG edge: one node per distinct row prefix and no garbage.  An
//! `or` per edge would re-walk the growing relation on every edge and
//! leave each partial disjunction behind, which dominated the audit's
//! time and memory (`crates/bdd/DESIGN.md` has the figures).  With the
//! relation and the initial cube rooted and garbage-free, a GC
//! threshold only ever reclaims replay intermediates.

use satpg_bdd::{Bdd, Manager};
use satpg_core::{Cssg, TestSequence};

/// Cap on a worker manager's operation cache before the bounded-clear
/// heuristic drops it (see [`Manager::clear_cache_if_above`]).
pub const CACHE_BOUND: usize = 1 << 20;

/// The per-worker symbolic auditor.
pub struct WalkAuditor {
    mgr: Manager,
    /// Bits per state index.
    sbits: u32,
    /// Pattern bits (primary inputs).
    pbits: u32,
    /// The transition relation over (S, P, S'), rooted for the
    /// auditor's lifetime.
    relation: Bdd,
    /// Cube of the initial state in the S frame, also rooted.
    initial: Bdd,
    /// How many times the cache bound was hit.
    pub cache_clears: usize,
}

fn bits_for(n: usize) -> u32 {
    usize::BITS - n.saturating_sub(1).leading_zeros().min(usize::BITS - 1)
}

impl WalkAuditor {
    /// Builds the relation BDD from the shared CSSG with immortal nodes
    /// (no GC); see [`WalkAuditor::with_gc`] for the bounded-memory
    /// variant.
    ///
    /// Variable layout: `[0, sbits)` = current state `S`,
    /// `[sbits, sbits+pbits)` = pattern `P`, `[sbits+pbits, 2·sbits+pbits)`
    /// = next state `S'`.
    pub fn new(cssg: &Cssg) -> Self {
        Self::with_gc(cssg, None)
    }

    /// Builds the auditor under a GC policy: with `Some(t)`, the private
    /// manager sweeps unrooted nodes whenever more than `t` are live.
    /// The relation and initial-state cube are node-builder results
    /// (no sweep can run while they are made) and are rooted here;
    /// `replay` roots the rolling reached set, so everything else —
    /// per-step pattern cubes, constrained sets, pre-rename images — is
    /// reclaimable the moment the step completes.
    pub fn with_gc(cssg: &Cssg, gc_threshold: Option<usize>) -> Self {
        let sbits = bits_for(cssg.num_states()).max(1);
        let pbits = cssg.num_inputs() as u32;
        let num_vars = 2 * sbits + pbits;
        let mut mgr = Manager::new(num_vars);
        mgr.set_gc_threshold(gc_threshold);
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
        mgr.protect(relation);
        let init_lits: Vec<(u32, bool)> = (0..sbits)
            .map(|b| (b, cssg.initial() >> b & 1 == 1))
            .collect();
        let initial = mgr.cube(&init_lits);
        mgr.protect(initial);
        WalkAuditor {
            mgr,
            sbits,
            pbits,
            relation,
            initial,
            cache_clears: 0,
        }
    }

    /// Symbolically replays `seq` from the initial state.  Returns the
    /// number of states in the final reached set — `Some(1)` for a valid
    /// walk on the deterministic CSSG, `None` if the walk dies (which
    /// would mean the explicit search emitted an invalid test).
    pub fn replay(&mut self, seq: &TestSequence) -> Option<usize> {
        let quantify: Vec<u32> = (0..self.sbits + self.pbits).collect();
        // The rolling reached set is the only handle held across steps;
        // root it so the per-step intermediates are free to reclaim.
        let mut reached = self.initial;
        self.mgr.protect(reached);
        for p in &seq.patterns {
            let plits: Vec<(u32, bool)> = (0..self.pbits)
                .map(|b| (self.sbits + b, p.get(b as usize)))
                .collect();
            let pcube = self.mgr.cube(&plits);
            let constrained = self.mgr.and(reached, pcube);
            let img = self.mgr.and_exists(constrained, self.relation, &quantify);
            if img.is_false() {
                self.mgr.unprotect(reached);
                return None;
            }
            // Rename S' down into the S frame.
            let shift = self.sbits + self.pbits;
            let next = self.mgr.remap(img, &|v| v - shift);
            reached = self.mgr.reroot(reached, next);
            if self.mgr.clear_cache_if_above(CACHE_BOUND) {
                self.cache_clears += 1;
            }
        }
        let n = self.count_states(reached);
        self.mgr.unprotect(reached);
        Some(n)
    }

    /// Audits one discovered test: valid iff the symbolic replay
    /// survives every cycle.  The deterministic CSSG keeps the reached
    /// set a single state, which the audit also asserts.
    pub fn check(&mut self, seq: &TestSequence) -> bool {
        matches!(self.replay(seq), Some(1))
    }

    /// Node-slab size of the private manager: live nodes, swept slots
    /// and the two terminals (telemetry).
    pub fn num_nodes(&self) -> usize {
        self.mgr.num_nodes()
    }

    /// BDD variables of the relation: `2·sbits + pbits`.
    pub fn num_vars(&self) -> u32 {
        self.mgr.num_vars()
    }

    /// Operation-cache entries of the private manager (telemetry).
    pub fn cache_len(&self) -> usize {
        self.mgr.cache_len()
    }

    /// Live unique-table entries of the private manager (telemetry).
    pub fn unique_len(&self) -> usize {
        self.mgr.unique_len()
    }

    /// High-water mark of the unique table (telemetry).
    pub fn peak_unique(&self) -> usize {
        self.mgr.peak_unique_len()
    }

    /// GC sweeps the private manager has run (telemetry).
    pub fn gc_runs(&self) -> usize {
        self.mgr.gc_stats().runs
    }

    /// Nodes the private manager has reclaimed (telemetry).
    pub fn reclaimed_nodes(&self) -> usize {
        self.mgr.gc_stats().reclaimed
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

    /// A GC'd auditor under an absurdly small threshold returns the same
    /// verdict as an immortal one for every single-step walk, while
    /// actually reclaiming nodes.
    #[test]
    fn gc_auditor_matches_immortal_auditor() {
        for ckt in library::all() {
            let cssg = cssg_of(&ckt);
            let mut plain = WalkAuditor::new(&cssg);
            let mut gc = WalkAuditor::with_gc(&cssg, Some(16));
            for s in [cssg.initial()] {
                for (p, _) in cssg.edges(s) {
                    let seq = TestSequence {
                        patterns: vec![p.clone()],
                    };
                    assert_eq!(gc.check(&seq), plain.check(&seq), "{}", ckt.name());
                }
            }
            assert_eq!(plain.gc_runs(), 0, "immortal manager never sweeps");
            if plain.unique_len() > 16 {
                assert!(gc.gc_runs() > 0, "{}: tiny threshold sweeps", ckt.name());
                assert!(gc.unique_len() <= plain.unique_len());
            }
        }
    }

    /// Sweeps reclaim replay garbage without touching the rolling
    /// reached set: every two-step walk from reset on arbiter-4 (each
    /// reset edge, then every pattern, valid or not) produces enough
    /// per-step intermediates to outgrow the 2x re-arm hysteresis, and
    /// each verdict still equals the immortal auditor's.
    #[test]
    fn gc_reclaims_replay_garbage_while_reached_stays_rooted() {
        let ckt = satpg_netlist::families::arbiter_tree(4);
        let cssg = cssg_of(&ckt);
        let mut plain = WalkAuditor::new(&cssg);
        let mut gc = WalkAuditor::with_gc(&cssg, Some(16));
        let mut walks = 0;
        for (p1, _) in cssg.edges(cssg.initial()) {
            for p2 in satpg_netlist::Pattern::all(cssg.num_inputs()) {
                let seq = TestSequence {
                    patterns: vec![p1.clone(), p2.clone()],
                };
                assert_eq!(gc.replay(&seq), plain.replay(&seq), "{p1} then {p2}");
                walks += 1;
            }
        }
        assert!(walks > 16, "arbiter-4 has several reset edges");
        assert!(gc.gc_runs() > 1, "garbage re-arms the sweep");
        assert!(
            gc.reclaimed_nodes() > 0,
            "replay intermediates are reclaimed"
        );
        assert!(gc.unique_len() < plain.unique_len());
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
        assert!(aud.num_nodes() > 2, "relation BDD is non-trivial");
    }
}
