//! With no concurrency, the class-search loop searches exactly the
//! classes the serial flow searches: engine workers and fleet peers
//! share one loop (`satpg::engine::search_classes`), which screens its
//! backlog against every logged test *before* it pops the next class.
//! So a one-worker engine and a one-peer, one-shard fleet search exactly
//! the classes serial `run_atpg` resolves by a three-phase search, the
//! merge never re-searches one, and the report hits its golden digest.

mod matrix;

use matrix::{engine_cells, fleet_cells, quick_rows, recomputed, rows, Misses, QUICK};

/// The matrix's one-worker engine column on every quick row, and one
/// peer in one shard on the `si`/`2l` rows and four family sizes.
#[test]
fn one_worker_and_one_peer_search_exactly_the_serial_set() {
    let mut misses = Misses::default();
    let rows = rows(QUICK);
    engine_cells(&rows, &[1], &mut misses);
    let one_peer = quick_rows(|r| {
        let families = ["dme-3", "muller-6", "arbiter-4", "muller-10"];
        let circuit = r.is_bench("si") || r.is_bench("2l") || r.is_one_of(&families);
        circuit && !r.has_fault_knob()
    });
    fleet_cells(&one_peer, &[1], usize::MAX, &mut misses);
    misses.assert_none(|| recomputed(&rows));
}
