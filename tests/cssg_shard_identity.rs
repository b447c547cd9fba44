//! The sharded-construction headline property: for every shard count,
//! `build_cssg_sharded` produces a CSSG **bit-identical** to the serial
//! `build_cssg` (state numbering, edge lists, pruning counters), on the
//! identity matrix's structure rows (`matrix/mod.rs`) that
//! `settler_por_identity` does not run: small `k`, and caps tight
//! enough to truncate.

mod matrix;

use matrix::{structure_cells, STRUCTURE};

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
