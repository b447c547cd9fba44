//! The sharded-construction headline property: for every shard count,
//! [`build_cssg_sharded`] produces a CSSG **bit-identical** to the
//! serial [`build_cssg`] — same state numbering, same edge lists, and
//! the same pruning/truncation counters.
//!
//! Under the default configuration this is implied by
//! `tests/settler_por_identity.rs`, which checks that the naive serial
//! build equals both the POR serial build and the POR sharded builds
//! (shards 1–4) on all 23 bundled benchmarks and the generated
//! families.  This file keeps the cells that suite does not reach:
//! exact semantics with small `k`, and caps tight enough to truncate.

use satpg::core::{build_cssg, build_cssg_sharded, Cssg, CssgConfig};
use satpg::netlist::families::{arbiter_tree, muller_pipeline};
use satpg::netlist::Circuit;

/// Field-by-field bit identity: state vector in order, per-state edge
/// lists in order, every pruning/truncation counter, and the metadata.
fn assert_identical(serial: &Cssg, sharded: &Cssg, ctx: &str) {
    assert_eq!(serial.k(), sharded.k(), "{ctx}: k");
    assert_eq!(serial.num_inputs(), sharded.num_inputs(), "{ctx}: inputs");
    assert_eq!(serial.states(), sharded.states(), "{ctx}: state numbering");
    assert_eq!(serial.num_edges(), sharded.num_edges(), "{ctx}: edge count");
    for s in 0..serial.num_states() {
        assert_eq!(
            serial.edges(s),
            sharded.edges(s),
            "{ctx}: edge list of state {s}"
        );
    }
    assert_eq!(
        serial.pruned_nonconfluent(),
        sharded.pruned_nonconfluent(),
        "{ctx}: pruned_nonconfluent"
    );
    assert_eq!(
        serial.pruned_unstable(),
        sharded.pruned_unstable(),
        "{ctx}: pruned_unstable"
    );
    assert_eq!(
        serial.pruned_truncated(),
        sharded.pruned_truncated(),
        "{ctx}: pruned_truncated"
    );
}

fn assert_sharded_matches(ckt: &Circuit, cfg: &CssgConfig, name: &str) {
    let serial = build_cssg(ckt, cfg).unwrap();
    for shards in 1..=4 {
        let sharded = build_cssg_sharded(ckt, cfg, shards).unwrap();
        assert_identical(&serial, &sharded, &format!("{name} @ {shards} shards"));
    }
}

/// The exact k-bounded semantics (no ternary fast path) exercises the
/// private interleaving-set tracking on every pattern, and a small `k`
/// exercises the truncation/unstable counters.
#[test]
fn explicit_sharded_matches_serial_under_exact_semantics_and_small_k() {
    for (k, fast) in [(None, false), (Some(3), false), (Some(2), true)] {
        let cfg = CssgConfig {
            k,
            ternary_fast_path: fast,
            ..CssgConfig::default()
        };
        for ckt in [muller_pipeline(6), arbiter_tree(4)] {
            assert_sharded_matches(&ckt, &cfg, &format!("{} k={k:?}", ckt.name()));
        }
    }
}

/// A tight interleaving-set cap forces `Settle::Truncated` truncations;
/// the summed `pruned_truncated` must match the serial count exactly.
/// POR off so the naive walk actually hits the cap.
#[test]
fn explicit_sharded_matches_serial_with_truncations() {
    let cfg = CssgConfig {
        settle_cap: satpg::core::CapPolicy::Fixed(8),
        por: false,
        ternary_fast_path: false,
        ..CssgConfig::default()
    };
    for ckt in [muller_pipeline(6), arbiter_tree(5)] {
        let serial = build_cssg(&ckt, &cfg).unwrap();
        assert!(
            serial.pruned_truncated() > 0,
            "{}: cap must actually truncate (tighten the test)",
            ckt.name()
        );
        assert_sharded_matches(&ckt, &cfg, ckt.name());
    }
}
