//! The identity matrix's `serial` column (`matrix/mod.rs`): golden
//! digests of the timing-free `run_atpg` report, settle-work counters
//! included, so performance work on the settler, the CSSG build or any
//! ATPG stage can prove it moved no byte of any report.

mod matrix;

use matrix::{quick_rows, recomputed, serial_cells, Misses, Row};

/// The serial cells of the quick rows `keep` selects.
fn serial_slice(keep: impl Fn(&Row) -> bool) {
    let rows = quick_rows(keep);
    let mut misses = Misses::default();
    serial_cells(&rows, &mut misses);
    misses.assert_none(|| recomputed(&rows));
}

/// The 23 bundled benchmarks in every synthesis style, random stage on
/// and off, and the output-model and collapse rows.
#[test]
fn bundled_benchmarks_in_every_style() {
    serial_slice(|r| !r.is_family());
}

#[test]
fn generated_families_quick_tier() {
    serial_slice(|r| r.is_family() && !r.spec.no_random);
}

#[test]
fn generated_families_without_random_stage() {
    serial_slice(|r| r.is_family() && r.spec.no_random);
}
