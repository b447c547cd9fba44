//! The multi-threaded build's headline property: for every thread
//! budget, `build_cssg_sharded` produces a CSSG **bit-identical** to
//! the serial `build_cssg` (state numbering, edge lists, pruning
//! counters), because helpers only precompute verdicts that the one
//! build loop consumes in serial order.  It runs the identity matrix's
//! structure rows (`matrix/mod.rs`) that `settler_por_identity` does
//! not run: small `k`, and caps tight enough to truncate.  It also pins
//! which builds get helpers at all.

mod matrix;

use matrix::{build_threads_cells, structure_cells, STRUCTURE};
use satpg::stg::suite;

/// A small `k` under exact semantics (no ternary fast path, so the
/// private interleaving-set tracking runs on every pattern) and under
/// the fast path exercises the truncation and unstable counters, on
/// muller-6 and arbiter-4.
#[test]
fn explicit_sharded_matches_serial_under_exact_semantics_and_small_k() {
    structure_cells(STRUCTURE, |_, config| {
        ["exact k=3", "fast k=2"].contains(&config)
    });
}

/// A tight interleaving-set cap forces `Settle::Truncated` truncations
/// (POR off, so the naive walk actually hits the cap, on muller-6 and
/// arbiter-5); the summed `pruned_truncated` must match the serial count
/// exactly, and the serial build must truncate.
#[test]
fn explicit_sharded_matches_serial_with_truncations() {
    structure_cells(STRUCTURE, |_, config| config == "truncating");
}

/// Helpers join only builds past the loop's threshold: every bundled
/// benchmark, seq-6 and dme-5 build on one thread at a budget of four,
/// arbiter-5 and muller-16 on all four (arbiter-6 is pinned in the
/// release tier).
#[test]
fn helpers_join_only_past_the_threshold() {
    let small: Vec<String> = suite::NAMES
        .iter()
        .flat_map(|name| ["si", "2l", "2lr"].map(|style| format!("{name} {style}")))
        .chain(["seq-6".to_string(), "dme-5".to_string()])
        .collect();
    build_threads_cells(&small.iter().map(String::as_str).collect::<Vec<_>>(), 1);
    build_threads_cells(&["arbiter-5", "muller-16"], 4);
}
