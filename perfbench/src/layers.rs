//! Per-layer accounting for traced runs: what one pass over a
//! workload's inputs did in each layer, folded into the per-layer
//! metrics once the run ends.

use crate::harness::Metrics;
use crate::stats::{count_mismatches, Counts, Ratio};
use satpg_core::{AtpgReport, Cssg, Phase};

/// One traced pass over a workload's inputs.
#[derive(Default)]
pub struct Pass {
    /// Counts that are a pure function of the inputs; they must repeat
    /// exactly in every pass.
    pub counts: Counts,
    /// Host times and scheduling-dependent counts, summed over the pass.
    pub sums: Metrics,
}

impl Pass {
    /// Adds to a deterministic count.
    pub fn count(&mut self, name: &'static str, v: impl TryInto<u64>) {
        *self.counts.entry(name).or_default() += v.try_into().unwrap_or(u64::MAX);
    }

    /// Adds to a host-time (or otherwise run-dependent) sum.
    pub fn sum(&mut self, name: &'static str, v: f64) {
        *self.sums.entry(name).or_default() += v;
    }

    /// Records one CSSG construction that took `build_us`.
    pub fn cssg(&mut self, cssg: &Cssg, build_us: f64) {
        self.sum("cssg.build_us", build_us);
        self.count("cssg.states", cssg.num_states());
        self.count("cssg.edges", cssg.num_edges());
        self.count("cssg.pruned_nonconfluent", cssg.pruned_nonconfluent());
        self.count("sim.settle_states", cssg.settle_stats().states_explored);
        self.count("sim.por_pruned", cssg.settle_stats().por_pruned);
    }

    /// Records the stage ledger of one campaign's report.  With fault
    /// collapsing off every fault is its own class, and each three-phase
    /// call ends in a detection, an untestability proof or an abort, so
    /// the serial-equivalent call count follows from the verdicts.
    pub fn report(&mut self, r: &AtpgReport) {
        self.count("faults", r.total());
        self.count("random.passes", r.random_passes);
        self.count("random.patterns", r.random_patterns);
        self.count("random.resolved", r.covered_by(Phase::Random));
        let detected = r.covered_by(Phase::ThreePhase);
        self.count("three_phase.calls", detected + r.untestable() + r.aborted());
        self.count("three_phase.detected", detected);
        self.count("fsim.credits", r.covered_by(Phase::FaultSim));
    }
}

/// Counts copied to the per-layer metrics as they are.
const COPIED_COUNTS: &[&str] = &[
    "cssg.states",
    "cssg.edges",
    "cssg.pruned_nonconfluent",
    "sim.settle_states",
    "random.passes",
    "random.patterns",
    "three_phase.calls",
    "fsim.credits",
    "fleet.shards",
];

/// Inserts a ratio's value and notes it with its base.
pub fn put_ratio(out: &mut Metrics, notes: &mut Vec<String>, name: &'static str, r: Ratio) {
    out.insert(name, r.value());
    notes.push(format!("{name} = {r}"));
}

/// Folds traced passes into per-layer metrics: counts per pass (after
/// checking that every pass repeats them exactly), sums as the mean per
/// pass, and the ratios derived from both.
pub fn summarize(
    passes: &[Pass],
    out: &mut Metrics,
    notes: &mut Vec<String>,
    problems: &mut Vec<String>,
) {
    let counts: Vec<Counts> = passes.iter().map(|p| p.counts.clone()).collect();
    for m in count_mismatches(&counts) {
        problems.push(format!("deterministic count changed between passes: {m}"));
    }
    let first = counts.first().cloned().unwrap_or_default();
    let c = |name: &str| first.get(name).copied().unwrap_or(0) as f64;
    for &name in COPIED_COUNTS {
        out.insert(name, c(name));
    }
    let n = passes.len().max(1) as f64;
    let mut sums = Metrics::new();
    for p in passes {
        for (&k, &v) in &p.sums {
            *sums.entry(k).or_default() += v;
        }
    }
    for (&k, &v) in &sums {
        out.insert(k, v / n);
    }
    notes.push(format!(
        "per-layer counts and times are per pass over the workload's inputs ({} passes)",
        passes.len()
    ));
    let s = |name: &str| sums.get(name).copied().unwrap_or(0.0) / n;
    let settle = c("sim.settle_states");
    if settle > 0.0 {
        put_ratio(
            out,
            notes,
            "sim.por_pruned_ratio",
            Ratio::new(c("sim.por_pruned"), settle + c("sim.por_pruned")),
        );
        let ns = Ratio::new(s("cssg.build_us") * 1e3, settle);
        out.insert("cssg.ns_per_settle_state", ns.value());
        notes.push(format!(
            "cssg.ns_per_settle_state = {ns} ns per settle state"
        ));
    }
    if c("faults") > 0.0 {
        put_ratio(
            out,
            notes,
            "random.resolved_ratio",
            Ratio::new(c("random.resolved"), c("faults")),
        );
        put_ratio(
            out,
            notes,
            "three_phase.detect_ratio",
            Ratio::new(c("three_phase.detected"), c("three_phase.calls")),
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summarize_flags_counts_that_do_not_repeat() {
        let pass = |states: u64, us: f64| {
            let mut p = Pass::default();
            p.count("cssg.states", states);
            p.count("sim.settle_states", 10u64);
            p.sum("cssg.build_us", us);
            p
        };
        let (mut out, mut notes, mut problems) = (Metrics::new(), Vec::new(), Vec::new());
        summarize(
            &[pass(4, 10.0), pass(4, 30.0)],
            &mut out,
            &mut notes,
            &mut problems,
        );
        assert!(problems.is_empty(), "{problems:?}");
        assert_eq!(out["cssg.states"], 4.0);
        assert_eq!(out["cssg.build_us"], 20.0, "sums are per pass");
        assert_eq!(out["cssg.ns_per_settle_state"], 2000.0);
        assert!(
            notes.iter().any(|n| n.contains("(20000 / 10)")),
            "{notes:?}"
        );

        summarize(
            &[pass(4, 10.0), pass(5, 10.0)],
            &mut out,
            &mut notes,
            &mut problems,
        );
        assert_eq!(problems.len(), 1);
        assert!(problems[0].contains("cssg.states"), "{problems:?}");
    }
}
