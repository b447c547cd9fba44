//! The identity matrix's columns no other suite runs (`matrix/mod.rs`
//! has the table and the map), and its whole release tier:
//! `cargo test --release --test identity_matrix -- --include-ignored`.

mod matrix;

use matrix::*;
use satpg::core::{run_atpg, AtpgConfig};
use satpg::serve::job_atpg_config;
use std::sync::PoisonError;

#[test]
fn table_column() {
    let mut misses = Misses::default();
    for row in &quick_rows(|r| !r.is_family() && (r.is_plain() || r.spec.output_model)) {
        let ckt = row.circuit();
        let cfg = AtpgConfig {
            fault_model: job_atpg_config(&row.spec, &ckt).fault_model,
            ..AtpgConfig::paper()
        };
        let out = untraced(|| render(run_atpg(&ckt, &cfg)));
        misses.check(row.label, "table", digest(&out), row.report);
    }
    misses.assert_none(String::new);
}

#[test]
fn shard_columns() {
    let mut misses = Misses::default();
    shard_cells(&rows(QUICK), &mut misses);
    misses.assert_none(String::new);
}

/// The 23 `si` benchmarks on 1–4 traced workers: spans observe a run,
/// they never feed back into it.
#[test]
fn traced_engine_columns() {
    let mut misses = Misses::default();
    for row in &quick_rows(|r| r.is_bench("si") && r.is_plain()) {
        let ckt = row.circuit();
        for workers in 1..=4 {
            let exclusive = TRACE.write().unwrap_or_else(PoisonError::into_inner);
            let collector = satpg::trace::install();
            let out = engine(row, &ckt, workers, false);
            let spans = collector.drain().len();
            satpg::trace::uninstall();
            drop(exclusive);
            assert!(spans > 0, "{} × traced w{workers}: no spans", row.label);
            let out = out.map(|e| e.report.to_json_value(false).render());
            misses.check(
                row.label,
                &format!("traced w{workers}"),
                digest(&out),
                row.report,
            );
        }
    }
    misses.assert_none(String::new);
}

#[test]
fn merge_column() {
    let mut misses = Misses::default();
    merge_cells(&rows(QUICK), &mut misses);
    misses.assert_none(String::new);
}

#[test]
fn daemon_column() {
    let mut misses = Misses::default();
    daemon_cells(&rows(QUICK), &mut misses);
    misses.assert_none(String::new);
}

/// 1–4 peers at two classes a shard on the plain `si` benchmarks.
#[test]
fn fleet_columns() {
    let mut misses = Misses::default();
    let si = quick_rows(|r| r.is_bench("si") && r.is_plain());
    fleet_cells(&si, &[1, 2, 3, 4], 2, &mut misses);
    misses.assert_none(String::new);
}

#[test]
#[ignore = "release tier: cargo test --release --test identity_matrix -- --include-ignored"]
fn release_rows_on_every_path() {
    let mut misses = Misses::default();
    let rows = rows(RELEASE);
    serial_cells(&rows, &mut misses);
    shard_cells(&rows, &mut misses);
    engine_cells(&rows, &[1, 2, 3, 4], &mut misses);
    audited_cells(&rows, &mut misses);
    merge_cells(&rows, &mut misses);
    daemon_cells(&rows, &mut misses);
    fleet_cells(&rows, &[3], 8, &mut misses);
    misses.assert_none(|| recomputed(&rows));
}

/// The quick rows' cells too slow for a debug run: the slow naive
/// walks, 1–4 peers on every row, and three peers at eight classes a
/// shard on the larger muller pipelines.
#[test]
#[ignore = "release tier: cargo test --release --test identity_matrix -- --include-ignored"]
fn quick_rows_on_release_paths() {
    let mut misses = Misses::default();
    naive_cells(&quick_rows(|r| r.is_one_of(&SLOW_NAIVE)));
    fleet_cells(&rows(QUICK), &[1, 2, 3, 4], 2, &mut misses);
    let muller = quick_rows(|r| r.is_one_of(&SLOW_NAIVE) && r.is_plain());
    fleet_cells(&muller, &[3], 8, &mut misses);
    misses.assert_none(String::new);
}

/// The structure rows whose builds take about a second or more in a
/// debug run: arbiter-6 and the deep muller pipelines, where the naive
/// walk is seconds of wall clock and the old fixed 2^15 cap used to
/// truncate.  Arbiter-6 builds on its whole thread budget.
#[test]
#[ignore = "release tier: cargo test --release --test identity_matrix -- --include-ignored"]
fn cssg_structure_release() {
    structure_cells(STRUCTURE_RELEASE, |_, _| true);
    build_threads_cells(&["arbiter-6"], 4);
}
