//! Benchmark harness: the ablation studies and the Criterion
//! micro-benchmarks.  The paper's Tables 1 and 2 come from `satpg table
//! 1|2`.
//!
//! * `cargo run -p satpg-bench --release --bin ablation_k` — sensitivity
//!   of the CSSG to the test-cycle bound `k` (§4.1);
//! * `cargo run -p satpg-bench --release --bin ablation_redundancy` —
//!   coverage cost of redundant hazard covers;
//! * `cargo bench` — Criterion benches for the substrates.

pub mod report;

use satpg_netlist::Circuit;
use satpg_stg::synth::{complex_gate, two_level, Redundancy};
use satpg_stg::{suite, StateGraph};

/// Which synthesis backend to benchmark (the two tables).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Style {
    /// Complex-gate speed-independent netlists (Table 1).
    SpeedIndependent,
    /// Two-level bounded-delay netlists; the three designated circuits
    /// get redundant hazard covers (Table 2).
    BoundedDelay,
}

/// Synthesizes one suite benchmark in the given style.
///
/// # Panics
///
/// Panics if the bundled benchmark fails to synthesize (a bug, covered by
/// the suite's own tests).
pub fn synthesize(name: &str, style: Style) -> Circuit {
    let stg = suite::load(name).expect("known benchmark");
    let sg = StateGraph::build(&stg).expect("suite specs are well-formed");
    match style {
        Style::SpeedIndependent => complex_gate(&stg, &sg).expect("synthesizable"),
        Style::BoundedDelay => {
            let red = if suite::is_redundant(name) {
                Redundancy::AllPrimes
            } else {
                Redundancy::None
            };
            two_level(&stg, &sg, red).expect("synthesizable")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthesize_both_styles() {
        let si = synthesize("converta", Style::SpeedIndependent);
        let bd = synthesize("converta", Style::BoundedDelay);
        assert!(bd.num_gates() >= si.num_gates());
    }
}
