//! The ATPG flow decomposed into resumable stages.
//!
//! [`Campaign`] is the flow's one stage sequence: [`Campaign::prepare`]
//! plans the fault classes and runs the random stage, and
//! [`Campaign::finish`] replays the targeted stage in serial class order
//! and assembles the report.  Serial [`run_atpg`](crate::run_atpg), the
//! fault-parallel `satpg-engine` and the `satpg-serve` fleet coordinator
//! all run it; they differ only in where `finish` finds its three-phase
//! verdicts (computed on the spot, precomputed by engine workers, or
//! delivered by fleet peers).  The stages it runs are exposed too:
//!
//! * [`FaultPlan`] — the deterministic collapsing of a fault list into
//!   target classes;
//! * [`random_stage`] — random TPG over the open classes;
//! * [`targeted_stage`] — the three-phase + fault-simulation loop over an
//!   explicit **fault queue**, with the three-phase search itself
//!   injected as an oracle callback;
//! * [`assemble_report`] — per-fault record materialization.
//!
//! Because every stage is a pure function of its inputs plus the
//! [`StageState`] it advances, and a class verdict is a pure function of
//! the class, the report does not depend on where the verdicts came from
//! (`crates/core/DESIGN.md`, "One campaign, three verdict sources").

use crate::atpg::{AtpgConfig, AtpgReport, Phase};
use crate::cssg::{Cssg, TestSequence};
use crate::fault::{collapse_faults, Fault, FaultClass};
use crate::fsim::fault_simulate;
use crate::random_tpg::{random_tpg, RandomStats, RandomTpgConfig};
use crate::three_phase::{three_phase, FaultStatus};
use satpg_netlist::Circuit;
use std::collections::HashMap;
use std::time::Instant;

/// The deterministic targeting plan: fault classes plus the map from each
/// enumerated fault back to its class.
#[derive(Clone, Debug)]
pub struct FaultPlan {
    classes: Vec<FaultClass>,
    class_of: HashMap<Fault, usize>,
}

impl FaultPlan {
    /// Builds the plan.  With `collapse` off every fault is its own
    /// class; with it on, structurally equivalent faults share one.
    pub fn new(ckt: &Circuit, faults: &[Fault], collapse: bool) -> Self {
        let classes = if collapse {
            collapse_faults(ckt, faults)
        } else {
            faults
                .iter()
                .map(|&f| FaultClass {
                    representative: f,
                    members: vec![f],
                })
                .collect()
        };
        let mut class_of = HashMap::new();
        for (ci, c) in classes.iter().enumerate() {
            for &m in &c.members {
                class_of.insert(m, ci);
            }
        }
        FaultPlan { classes, class_of }
    }

    /// The target classes, in deterministic order.
    pub fn classes(&self) -> &[FaultClass] {
        &self.classes
    }

    /// Number of classes.
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// Whether the plan is empty.
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The class index of an enumerated fault.
    ///
    /// # Panics
    ///
    /// Panics if `f` was not part of the planned fault list.
    pub fn class_of(&self, f: &Fault) -> usize {
        self.class_of[f]
    }
}

/// Verdict of one fault class as the stages advance.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum ClassVerdict {
    /// Not yet resolved.
    #[default]
    Open,
    /// Detected by `phase`, exposed by `StageState::tests[test]`.
    Detected {
        /// The attributed flow phase.
        phase: Phase,
        /// Index into [`StageState::tests`].
        test: usize,
    },
    /// Proved untestable.
    Untestable,
    /// Resource limits hit.
    Aborted,
}

/// The resumable accumulator threaded through the stages.
#[derive(Clone, Debug, Default)]
pub struct StageState {
    /// Per-class verdicts, indexed like [`FaultPlan::classes`].
    pub verdicts: Vec<ClassVerdict>,
    /// The deduplicated test set, in discovery order.
    pub tests: Vec<TestSequence>,
    /// Lane-throughput counters of the random stage (zeros when the
    /// stage was skipped).  Deterministic given the stage config, so
    /// serial and parallel drivers that run the same random stage report
    /// identical numbers.
    pub random: RandomStats,
}

impl StageState {
    /// A fresh state with every class open.
    pub fn new(num_classes: usize) -> Self {
        StageState {
            verdicts: vec![ClassVerdict::Open; num_classes],
            tests: Vec::new(),
            random: RandomStats::default(),
        }
    }

    /// Interns a test sequence, returning its stable index.
    pub fn intern_test(&mut self, seq: TestSequence) -> usize {
        match self.tests.iter().position(|t| *t == seq) {
            Some(i) => i,
            None => {
                self.tests.push(seq);
                self.tests.len() - 1
            }
        }
    }

    /// Indices of the classes still open, ascending.
    pub fn open_classes(&self) -> Vec<usize> {
        (0..self.verdicts.len())
            .filter(|&ci| self.verdicts[ci] == ClassVerdict::Open)
            .collect()
    }
}

/// Stage 1: random TPG over the class representatives.  Classes whose
/// representative is detected get a [`Phase::Random`] verdict.
pub fn random_stage(
    ckt: &Circuit,
    cssg: &Cssg,
    plan: &FaultPlan,
    cfg: &RandomTpgConfig,
    state: &mut StageState,
) {
    let reps: Vec<Fault> = plan.classes.iter().map(|c| c.representative).collect();
    let res = random_tpg(ckt, cssg, &reps, cfg);
    state.random = res.stats();
    for (ci, seq) in res.detected {
        if state.verdicts[ci] == ClassVerdict::Open {
            let ti = state.intern_test(seq);
            state.verdicts[ci] = ClassVerdict::Detected {
                phase: Phase::Random,
                test: ti,
            };
        }
    }
}

/// Stage 2: the targeted loop.  Walks `queue` (class indices); for each
/// class still open it asks `oracle` for the three-phase verdict, and on
/// detection optionally fault-simulates the test against every other
/// open class (harvesting [`Phase::FaultSim`] credits).  Returns how many
/// fault simulations it ran.
///
/// A test is simulated only the first time a three-phase verdict brings
/// it: a class still open when the test recurs was open, and missed,
/// when it ran, and fault simulation is lane-pure (a class's outcome
/// does not depend on the classes simulated beside it), so a rerun would
/// credit nothing.
///
/// [`Campaign::finish`] passes `0..plan.len()` as the queue and, as the
/// oracle, a precomputed verdict where its driver has one and the real
/// [`three_phase`] where it does not.  Given the same queue and an
/// oracle that is a pure function of the class, the resulting state is
/// identical regardless of where the verdicts were computed.
pub fn targeted_stage(
    ckt: &Circuit,
    cssg: &Cssg,
    plan: &FaultPlan,
    fault_sim: bool,
    queue: &[usize],
    state: &mut StageState,
    oracle: &mut dyn FnMut(usize, &Fault) -> FaultStatus,
) -> u64 {
    // Per test index: whether this stage has fault-simulated it.
    let mut simulated: Vec<bool> = Vec::new();
    let mut sims = 0u64;
    for &ci in queue {
        if state.verdicts[ci] != ClassVerdict::Open {
            continue;
        }
        match oracle(ci, &plan.classes[ci].representative) {
            FaultStatus::Detected { sequence } => {
                let ti = state.intern_test(sequence);
                state.verdicts[ci] = ClassVerdict::Detected {
                    phase: Phase::ThreePhase,
                    test: ti,
                };
                simulated.resize(state.tests.len(), false);
                if !fault_sim || std::mem::replace(&mut simulated[ti], true) {
                    continue;
                }
                let open = state.open_classes();
                if open.is_empty() {
                    continue;
                }
                let open_faults: Vec<Fault> = open
                    .iter()
                    .map(|&cj| plan.classes[cj].representative)
                    .collect();
                sims += 1;
                for hit in fault_simulate(ckt, cssg, &state.tests[ti], &open_faults) {
                    state.verdicts[open[hit]] = ClassVerdict::Detected {
                        phase: Phase::FaultSim,
                        test: ti,
                    };
                }
            }
            FaultStatus::Untestable(_) => state.verdicts[ci] = ClassVerdict::Untestable,
            FaultStatus::Aborted => state.verdicts[ci] = ClassVerdict::Aborted,
        }
    }
    satpg_trace::metrics()
        .counter("fsim.targeted_sims")
        .add(sims);
    sims
}

/// Wall-clock attribution carried into the report.
#[derive(Clone, Copy, Debug, Default)]
pub struct StageTimings {
    /// Microseconds: CSSG construction.
    pub us_cssg: u128,
    /// Microseconds: random TPG.
    pub us_random: u128,
    /// Microseconds: targeted search + fault simulation.
    pub us_three_phase: u128,
}

/// Final stage: materializes per-fault records from the class verdicts.
pub fn assemble_report(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    plan: &FaultPlan,
    state: StageState,
    timings: StageTimings,
) -> AtpgReport {
    let records = faults
        .iter()
        .map(|f| {
            let ci = plan.class_of(f);
            match state.verdicts[ci] {
                ClassVerdict::Detected { phase, test } => crate::atpg::FaultRecord {
                    fault: *f,
                    detected_by: Some(phase),
                    test: Some(test),
                    untestable: false,
                    aborted: false,
                },
                ClassVerdict::Untestable => crate::atpg::FaultRecord {
                    fault: *f,
                    detected_by: None,
                    test: None,
                    untestable: true,
                    aborted: false,
                },
                ClassVerdict::Aborted => crate::atpg::FaultRecord {
                    fault: *f,
                    detected_by: None,
                    test: None,
                    untestable: false,
                    aborted: true,
                },
                ClassVerdict::Open => crate::atpg::FaultRecord {
                    fault: *f,
                    detected_by: None,
                    test: None,
                    untestable: false,
                    aborted: false,
                },
            }
        })
        .collect();

    AtpgReport {
        circuit: ckt.name().to_string(),
        cssg_states: cssg.num_states(),
        cssg_edges: cssg.num_edges(),
        cssg_pruned_nonconfluent: cssg.pruned_nonconfluent(),
        cssg_pruned_unstable: cssg.pruned_unstable(),
        cssg_truncated: cssg.pruned_truncated(),
        cssg_settle_states: cssg.settle_stats().states_explored,
        cssg_por_pruned: cssg.settle_stats().por_pruned,
        cssg_patterns_skipped: cssg.patterns_skipped(),
        random_passes: state.random.passes,
        random_patterns: state.random.patterns_evaluated,
        random_vectors: state.random.vectors_applied,
        records,
        tests: state.tests,
        us_cssg: timings.us_cssg,
        us_random: timings.us_random,
        us_three_phase: timings.us_three_phase,
    }
}

/// One campaign of the flow over a built CSSG, paused at the
/// targeted-stage boundary: the fault plan plus the stage state the
/// random stage left.  [`StageState::open_classes`] is the work a
/// parallel or distributed driver may precompute verdicts for before
/// [`Campaign::finish`] replays the targeted stage.
pub struct Campaign<'a> {
    ckt: &'a Circuit,
    cssg: &'a Cssg,
    faults: &'a [Fault],
    cfg: &'a AtpgConfig,
    /// The fault plan (class order is the serial order).
    pub plan: FaultPlan,
    /// Stage state after random TPG: open classes still need a verdict.
    pub state: StageState,
    /// Microseconds the random stage took.
    pub us_random: u128,
}

/// A finished [`Campaign`].
pub struct Finished {
    /// The assembled report, byte-identical (timing aside) to serial
    /// [`run_atpg`](crate::run_atpg) for the same configuration.
    pub report: AtpgReport,
    /// Classes whose three-phase search the replay ran itself, for want
    /// of a precomputed verdict.
    pub searched: usize,
    /// Microseconds the targeted-stage replay took.
    pub us_targeted: u128,
}

impl<'a> Campaign<'a> {
    /// Builds the fault plan of `faults` and runs the random stage (when
    /// `cfg` enables it): everything that precedes the targeted search.
    pub fn prepare(
        ckt: &'a Circuit,
        cssg: &'a Cssg,
        faults: &'a [Fault],
        cfg: &'a AtpgConfig,
    ) -> Self {
        let plan = FaultPlan::new(ckt, faults, cfg.collapse);
        let mut state = StageState::new(plan.len());
        let t = Instant::now();
        if let Some(rnd_cfg) = &cfg.random {
            let _span = satpg_trace::span!("stage.random", classes = plan.len());
            random_stage(ckt, cssg, &plan, rnd_cfg, &mut state);
        }
        Campaign {
            ckt,
            cssg,
            faults,
            cfg,
            plan,
            state,
            us_random: t.elapsed().as_micros(),
        }
    }

    /// Replays the targeted stage over every class in serial order,
    /// taking a class's three-phase verdict from `verdict(ci)` where the
    /// driver precomputed one and running [`three_phase`] where it
    /// returns `None`, then assembles the report.  Which verdicts arrive
    /// precomputed changes only `searched`, never the report.
    ///
    /// `us_cssg` is the CSSG construction time to attribute, and
    /// `us_verdicts` the wall clock of whatever phase precomputed the
    /// verdicts; it is folded into the report's three-phase timing
    /// alongside the replay's own.
    pub fn finish(
        mut self,
        us_cssg: u128,
        us_verdicts: u128,
        verdict: &mut dyn FnMut(usize) -> Option<FaultStatus>,
    ) -> Finished {
        let (ckt, cssg, cfg) = (self.ckt, self.cssg, self.cfg);
        let t = Instant::now();
        let span = satpg_trace::span!("stage.targeted", open = self.state.open_classes().len());
        let mut searched = 0usize;
        let queue: Vec<usize> = (0..self.plan.len()).collect();
        targeted_stage(
            ckt,
            cssg,
            &self.plan,
            cfg.fault_sim,
            &queue,
            &mut self.state,
            &mut |ci, f| {
                verdict(ci).unwrap_or_else(|| {
                    searched += 1;
                    three_phase(ckt, cssg, f, &cfg.three_phase)
                })
            },
        );
        drop(span);
        let us_targeted = t.elapsed().as_micros();
        let report = assemble_report(
            ckt,
            cssg,
            self.faults,
            &self.plan,
            self.state,
            StageTimings {
                us_cssg,
                us_random: self.us_random,
                us_three_phase: us_verdicts + us_targeted,
            },
        );
        Finished {
            report,
            searched,
            us_targeted,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::explicit_cssg::build_cssg;
    use crate::fault::input_stuck_faults;
    use satpg_netlist::library;

    #[test]
    fn stages_reproduce_run_atpg() {
        for ckt in [library::c_element(), library::muller_pipeline2()] {
            let cfg = crate::AtpgConfig::paper();
            let direct = crate::run_atpg(&ckt, &cfg).unwrap();

            let cssg = build_cssg(&ckt, &cfg.cssg).unwrap();
            let faults = input_stuck_faults(&ckt);
            let plan = FaultPlan::new(&ckt, &faults, cfg.collapse);
            let mut state = StageState::new(plan.len());
            random_stage(&ckt, &cssg, &plan, &cfg.random.unwrap(), &mut state);
            let queue: Vec<usize> = (0..plan.len()).collect();
            targeted_stage(
                &ckt,
                &cssg,
                &plan,
                cfg.fault_sim,
                &queue,
                &mut state,
                &mut |_, f| three_phase(&ckt, &cssg, f, &cfg.three_phase),
            );
            let staged =
                assemble_report(&ckt, &cssg, &faults, &plan, state, StageTimings::default());

            assert_eq!(direct.records, staged.records, "{}", ckt.name());
            assert_eq!(direct.tests, staged.tests, "{}", ckt.name());
        }
    }

    #[test]
    fn queue_order_with_pure_oracle_is_order_independent_on_outcome_source() {
        // Precomputing every open verdict up front, then replaying in
        // serial order, must equal computing lazily: the engine's and
        // the fleet's model.
        let ckt = library::muller_pipeline2();
        let cfg = crate::AtpgConfig {
            random: None,
            ..crate::AtpgConfig::paper()
        };
        let cssg = build_cssg(&ckt, &cfg.cssg).unwrap();
        let faults = input_stuck_faults(&ckt);

        let lazy = Campaign::prepare(&ckt, &cssg, &faults, &cfg).finish(0, 0, &mut |_| None);

        let campaign = Campaign::prepare(&ckt, &cssg, &faults, &cfg);
        let classes = campaign.plan.classes();
        let mut precomputed: Vec<Option<FaultStatus>> = (0..classes.len())
            .map(|ci| {
                (campaign.state.verdicts[ci] == ClassVerdict::Open).then(|| {
                    three_phase(&ckt, &cssg, &classes[ci].representative, &cfg.three_phase)
                })
            })
            .collect();
        let replay = campaign.finish(0, 0, &mut |ci| precomputed[ci].take());

        assert_eq!(lazy.report.records, replay.report.records);
        assert_eq!(lazy.report.tests, replay.report.tests);
        assert!(lazy.searched > 0, "the lazy replay searches");
        assert_eq!(replay.searched, 0, "every verdict was precomputed");
    }

    #[test]
    fn fault_plan_collapsing_partitions() {
        let ckt = library::c_element();
        let faults = input_stuck_faults(&ckt);
        let collapsed = FaultPlan::new(&ckt, &faults, true);
        let plain = FaultPlan::new(&ckt, &faults, false);
        assert_eq!(plain.len(), faults.len());
        assert!(collapsed.len() <= plain.len());
        for f in &faults {
            assert!(collapsed.class_of(f) < collapsed.len());
        }
        let member_total: usize = collapsed.classes().iter().map(|c| c.members.len()).sum();
        assert_eq!(member_total, faults.len());
    }
}
