//! The engine's headline property: for every row of the identity matrix
//! (`matrix/mod.rs`) and every worker count, the fault-parallel campaign
//! produces the serial report byte for byte — same per-fault verdicts,
//! same phase attribution, same test set, same test program — regardless
//! of steal order and broadcast timing.  With the opt-in symbolic audit
//! on, every test the workers find also replays on a BDD of the CSSG.
//! These are the engine columns on 2–4 workers (one: `search_set`).

mod matrix;

use matrix::*;
use satpg::core::tester::TestProgram;
use satpg::core::{build_cssg, run_atpg, TestSequence};
use satpg::serve::job_atpg_config;

/// The engine cells on 2–4 workers of the quick rows `keep` selects.
fn engine_slice(keep: impl Fn(&Row) -> bool) {
    let rows = quick_rows(keep);
    let mut misses = Misses::default();
    engine_cells(&rows, &[2, 3, 4], &mut misses);
    misses.assert_none(|| recomputed(&rows));
}

/// The 23 bundled benchmarks in every synthesis style, random stage on
/// and off.
#[test]
fn engine_matches_serial_on_every_bundled_benchmark() {
    engine_slice(|r| !r.is_family() && !r.has_fault_knob());
}

/// converta, master-read and vbe6a under the output fault model and
/// under fault collapsing.
#[test]
fn engine_matches_serial_under_output_model_and_collapse() {
    engine_slice(Row::has_fault_knob);
}

/// The generated families, random stage on and off.  Every engine cell
/// checks the workers' telemetry ([`engine_cells`]): the worker count is
/// clamped to the pending classes, every search is a parallel verdict,
/// and a merge recomputes only what a broadcast dropped.
#[test]
fn worker_scaling_telemetry_is_consistent() {
    engine_slice(Row::is_family);
}

/// The audit passes every test the engine finds: the random-off rows,
/// `si` benchmarks on 1–4 workers and the `2l`/`2lr` benchmarks and the
/// families on 1 and 3 ([`audited_cells`]).
#[test]
fn symbolic_audit_passes_every_engine_test() {
    let mut misses = Misses::default();
    audited_cells(&rows(QUICK), &mut misses);
    misses.assert_none(String::new);
}

/// The tester program is built from the circuit, its CSSG and the
/// tests, so four workers print the serial program byte for byte.
#[test]
fn tester_programs_are_identical_too() {
    let row = &quick_rows(|r| r.label == "master-read si")[0];
    let ckt = row.circuit();
    let atpg = job_atpg_config(&row.spec, &ckt);
    let cssg = build_cssg(&ckt, &atpg.cssg).unwrap();
    let serial = run_atpg(&ckt, &atpg).unwrap();
    let out = engine(row, &ckt, 4, false).unwrap();
    let render = |tests: &[TestSequence]| {
        let mut prog = TestProgram::new(&ckt);
        for (i, t) in tests.iter().enumerate() {
            assert!(prog.push_sequence(&ckt, &cssg, format!("t{i}"), t));
        }
        prog.to_string()
    };
    assert!(!serial.tests.is_empty(), "master-read has tests");
    assert_eq!(render(&serial.tests), render(&out.report.tests));
}
