//! The full ATPG pipeline: CSSG → random TPG → three-phase → fault
//! simulation, with per-phase attribution (the columns of Tables 1–2).

use crate::cssg::{Cssg, TestSequence};
use crate::error::CoreError;
use crate::explicit_cssg::{build_cssg, CssgConfig};
use crate::fault::{input_stuck_faults, output_stuck_faults, Fault};
use crate::random_tpg::RandomTpgConfig;
use crate::stages::{
    assemble_report, random_stage, targeted_stage, FaultPlan, StageState, StageTimings,
};
use crate::three_phase::{three_phase, ThreePhaseConfig};
use crate::Result;
use satpg_netlist::Circuit;
use std::time::Instant;

/// Which fault list to target.
#[derive(Clone, Copy, PartialEq, Eq, Debug, Default)]
pub enum FaultModel {
    /// Every gate input pin stuck at 0/1 (the paper's primary model;
    /// subsumes output stuck-at).
    #[default]
    InputStuckAt,
    /// Every gate output stuck at 0/1.
    OutputStuckAt,
}

/// Which step of the flow first detected a fault.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Phase {
    /// Random TPG (`rnd` column).
    Random,
    /// Three-phase ATPG (`3-ph` column).
    ThreePhase,
    /// Post-ATPG fault simulation (`sim` column).
    FaultSim,
}

/// Configuration for [`run_atpg`].
#[derive(Clone, Debug, Default)]
pub struct AtpgConfig {
    /// CSSG construction parameters.
    pub cssg: CssgConfig,
    /// Random-TPG parameters; `None` disables the random phase.
    pub random: Option<RandomTpgConfig>,
    /// Three-phase search parameters.
    pub three_phase: ThreePhaseConfig,
    /// Fault model.
    pub fault_model: FaultModel,
    /// Structurally collapse equivalent faults before targeting.
    pub collapse: bool,
    /// Fault-simulate each found test against remaining faults.
    pub fault_sim: bool,
}

impl AtpgConfig {
    /// The configuration used for the paper's tables: random TPG on,
    /// fault simulation on, collapsing off (the paper counts raw faults).
    pub fn paper() -> Self {
        AtpgConfig {
            random: Some(RandomTpgConfig::default()),
            fault_sim: true,
            ..Default::default()
        }
    }

    /// [`AtpgConfig::paper`] with three-phase limits derived from the
    /// circuit size ([`ThreePhaseConfig::scaled`]) so large generated
    /// families do not abort on the paper-tuned defaults.  The config
    /// differs from `paper()` even on paper-sized circuits: on 47 of the
    /// 69 bundled circuits the resolved three-phase settle cap is 8,192
    /// or 16,384 instead of 4,096.  The reports do not: on all 69 they
    /// are byte-identical to `paper()`'s, which the `table` column of
    /// `tests/identity_matrix.rs` pins.
    pub fn scaled(ckt: &Circuit) -> Self {
        AtpgConfig {
            three_phase: ThreePhaseConfig::scaled(ckt),
            ..AtpgConfig::paper()
        }
    }
}

/// Per-fault outcome.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct FaultRecord {
    /// The fault.
    pub fault: Fault,
    /// Detection phase, if detected.
    pub detected_by: Option<Phase>,
    /// Index into [`AtpgReport::tests`] of the detecting sequence.
    pub test: Option<usize>,
    /// Proved untestable.
    pub untestable: bool,
    /// Gave up within resource limits.
    pub aborted: bool,
}

/// The result of a full ATPG run.
#[derive(Clone, Debug)]
pub struct AtpgReport {
    /// Circuit name.
    pub circuit: String,
    /// The synchronous abstraction used.
    pub cssg_states: usize,
    /// Valid (state, pattern) pairs.
    pub cssg_edges: usize,
    /// (state, pattern) pairs the abstraction pruned as non-confluent.
    pub cssg_pruned_nonconfluent: usize,
    /// (state, pattern) pairs pruned as unstable within `k`.
    pub cssg_pruned_unstable: usize,
    /// (state, pattern) pairs dropped at a resource limit rather than by
    /// a semantic verdict ([`Cssg::pruned_truncated`]): when non-zero,
    /// "untestable" verdicts may be truncation artifacts.
    pub cssg_truncated: usize,
    /// State expansions the CSSG's settling analyses performed
    /// ([`Cssg::settle_stats`]).
    pub cssg_settle_states: u64,
    /// Successor branches the partial-order reduction pruned during CSSG
    /// construction — the "states saved" side of the POR ledger.
    pub cssg_por_pruned: u64,
    /// (state, pattern) pairs never analyzed because the construction's
    /// pattern budget ran out ([`Cssg::patterns_skipped`]): zero for
    /// exhaustive builds; when non-zero the CSSG under-approximates and
    /// "untestable" verdicts may be budget artifacts.
    pub cssg_patterns_skipped: u64,
    /// Bit-parallel fixpoint passes run by the random stage.
    pub random_passes: usize,
    /// Pattern evaluations performed by the random stage: one per pass,
    /// so always equal to `random_passes`.
    pub random_patterns: u64,
    /// Test vectors the random stage applied.
    pub random_vectors: usize,
    /// Per-fault verdicts, in enumeration order.
    pub records: Vec<FaultRecord>,
    /// The deduplicated test set.
    pub tests: Vec<TestSequence>,
    /// Wall-clock microseconds: CSSG construction.
    pub us_cssg: u128,
    /// Wall-clock microseconds: random TPG.
    pub us_random: u128,
    /// Wall-clock microseconds: three-phase + fault simulation.
    pub us_three_phase: u128,
}

impl AtpgReport {
    /// Total number of faults.
    pub fn total(&self) -> usize {
        self.records.len()
    }

    /// Number of detected faults.
    pub fn covered(&self) -> usize {
        self.records
            .iter()
            .filter(|r| r.detected_by.is_some())
            .count()
    }

    /// Detected faults attributed to `phase`.
    pub fn covered_by(&self, phase: Phase) -> usize {
        self.records
            .iter()
            .filter(|r| r.detected_by == Some(phase))
            .count()
    }

    /// Faults proved untestable.
    pub fn untestable(&self) -> usize {
        self.records.iter().filter(|r| r.untestable).count()
    }

    /// Faults aborted within limits.
    pub fn aborted(&self) -> usize {
        self.records.iter().filter(|r| r.aborted).count()
    }

    /// Fault coverage in percent (detected / total).
    pub fn coverage(&self) -> f64 {
        if self.records.is_empty() {
            return 100.0;
        }
        100.0 * self.covered() as f64 / self.records.len() as f64
    }

    /// Fault efficiency in percent ((detected + untestable) / total).
    pub fn efficiency(&self) -> f64 {
        if self.records.is_empty() {
            return 100.0;
        }
        100.0 * (self.covered() + self.untestable()) as f64 / self.records.len() as f64
    }

    /// Total wall-clock microseconds.
    pub fn us_total(&self) -> u128 {
        self.us_cssg + self.us_random + self.us_three_phase
    }
}

/// The fault list a model targets — the single dispatch point shared by
/// the serial driver, the engine, the daemon and the CLI.
pub fn faults_for(ckt: &Circuit, model: FaultModel) -> Vec<Fault> {
    match model {
        FaultModel::InputStuckAt => input_stuck_faults(ckt),
        FaultModel::OutputStuckAt => output_stuck_faults(ckt),
    }
}

/// Runs the full flow on `ckt`.
///
/// # Errors
///
/// Propagates CSSG construction failures ([`CoreError::NoStableReset`],
/// [`CoreError::CssgOverflow`], …) and reports
/// [`CoreError::NoValidVectors`] when the abstraction has no edges at all.
pub fn run_atpg(ckt: &Circuit, cfg: &AtpgConfig) -> Result<AtpgReport> {
    let t0 = Instant::now();
    let cssg = build_cssg(ckt, &cfg.cssg)?;
    let us_cssg = t0.elapsed().as_micros();
    if cssg.num_edges() == 0 {
        return Err(CoreError::NoValidVectors);
    }
    let faults = faults_for(ckt, cfg.fault_model);
    run_atpg_on(ckt, &cssg, &faults, cfg, us_cssg)
}

/// Runs the flow against an explicit fault list and a prebuilt CSSG
/// (e.g. one constructed by [`crate::build_cssg_sharded`] or served
/// from a cache); `us_cssg` is the construction time to attribute.
///
/// This is the serial driver over the resumable stages of
/// [`crate::stages`]: plan → random → targeted (with the real
/// [`three_phase`] as the verdict oracle) → report.
pub fn run_atpg_on(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    cfg: &AtpgConfig,
    us_cssg: u128,
) -> Result<AtpgReport> {
    let plan = FaultPlan::new(ckt, faults, cfg.collapse);
    let mut state = StageState::new(plan.len());

    let t1 = Instant::now();
    if let Some(rnd_cfg) = &cfg.random {
        let _span = satpg_trace::span!("stage.random", classes = plan.len());
        random_stage(ckt, cssg, &plan, rnd_cfg, &mut state);
    }
    let us_random = t1.elapsed().as_micros();

    let t2 = Instant::now();
    let _span = satpg_trace::span!("stage.targeted", open = state.open_classes().len());
    let queue: Vec<usize> = (0..plan.len()).collect();
    targeted_stage(
        ckt,
        cssg,
        &plan,
        cfg.fault_sim,
        &queue,
        &mut state,
        &mut |_, f| three_phase(ckt, cssg, f, &cfg.three_phase),
    );
    let us_three_phase = t2.elapsed().as_micros();

    Ok(assemble_report(
        ckt,
        cssg,
        faults,
        &plan,
        state,
        StageTimings {
            us_cssg,
            us_random,
            us_three_phase,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_netlist::library;

    #[test]
    fn c_element_fully_covered() {
        let ckt = library::c_element();
        let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        assert_eq!(report.covered(), report.total(), "100% input-s coverage");
        assert!(report.coverage() == 100.0);
        assert!(!report.tests.is_empty());
    }

    #[test]
    fn output_model_also_covered() {
        let ckt = library::c_element();
        let cfg = AtpgConfig {
            fault_model: FaultModel::OutputStuckAt,
            ..AtpgConfig::paper()
        };
        let report = run_atpg(&ckt, &cfg).unwrap();
        assert_eq!(report.covered(), report.total());
        assert_eq!(report.total(), 6);
    }

    #[test]
    fn phases_attribute_disjointly() {
        let ckt = library::muller_pipeline2();
        let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        let sum = report.covered_by(Phase::Random)
            + report.covered_by(Phase::ThreePhase)
            + report.covered_by(Phase::FaultSim);
        assert_eq!(sum, report.covered());
        assert!(report.covered_by(Phase::Random) > 0, "random catches some");
    }

    #[test]
    fn disabling_random_shifts_attribution() {
        let ckt = library::c_element();
        let cfg = AtpgConfig {
            random: None,
            ..AtpgConfig::paper()
        };
        let report = run_atpg(&ckt, &cfg).unwrap();
        assert_eq!(report.covered_by(Phase::Random), 0);
        assert_eq!(report.covered(), report.total());
    }

    #[test]
    fn collapsing_preserves_coverage() {
        let ckt = library::muller_pipeline2();
        let plain = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        let collapsed = run_atpg(
            &ckt,
            &AtpgConfig {
                collapse: true,
                ..AtpgConfig::paper()
            },
        )
        .unwrap();
        assert_eq!(plain.total(), collapsed.total());
        assert_eq!(plain.covered(), collapsed.covered());
    }

    #[test]
    fn report_accounting_consistent() {
        let ckt = library::sr_latch();
        let report = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        let classified = report.covered() + report.untestable() + report.aborted();
        assert!(classified <= report.total());
        assert!(report.efficiency() >= report.coverage());
        for r in &report.records {
            if let Some(ti) = r.test {
                assert!(ti < report.tests.len());
            }
        }
    }
}
