//! Tracing must never perturb results: the engine's timing-free report
//! is byte-identical with the span collector installed and without it,
//! across the whole benchmark suite and every worker count.  This pins
//! the determinism boundary documented in `crates/trace/DESIGN.md` —
//! spans and metrics observe the run, they never feed back into it.

use satpg::engine::{reports_identical, run_engine, EngineConfig};
use satpg::prelude::*;
use satpg::stg::synth::complex_gate;
use satpg::stg::{suite, StateGraph};

fn si_circuit(name: &str) -> Circuit {
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    complex_gate(&stg, &sg).unwrap()
}

fn cfg(workers: usize) -> EngineConfig {
    EngineConfig {
        atpg: AtpgConfig::paper(),
        workers,
        // The audit re-derives verdicts symbolically; it is orthogonal
        // to the observability layer and would dominate the sweep.
        symbolic_audit: false,
    }
}

/// The timing-free JSON forms of a traced and an untraced run must be
/// byte-identical: all 23 suite benchmarks, workers 1..=4.
#[test]
fn tracing_does_not_perturb_engine_reports() {
    for &name in suite::NAMES {
        let ckt = si_circuit(name);
        for workers in 1..=4 {
            satpg::trace::uninstall();
            let off = run_engine(&ckt, &cfg(workers)).expect("engine runs untraced");
            satpg::trace::install();
            let on = run_engine(&ckt, &cfg(workers)).expect("engine runs traced");
            let events = satpg::trace::installed_collector()
                .map(|c| c.drain())
                .unwrap_or_default();
            satpg::trace::uninstall();

            assert!(
                !events.is_empty(),
                "{name} w{workers}: the traced run must record spans"
            );
            assert!(
                reports_identical(&off.report, &on.report),
                "{name} w{workers}: verdicts must not depend on tracing"
            );
            // Byte-compare the timing-free report.  The per-worker
            // scheduling telemetry (searched/stolen counts) varies
            // between any two runs with workers > 1 — tracing or not —
            // so only the serial-identical report is pinned.
            assert_eq!(
                off.report.to_json_value(false).render(),
                on.report.to_json_value(false).render(),
                "{name} w{workers}: timing-free report JSON must be byte-identical"
            );
        }
    }
}
