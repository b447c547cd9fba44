//! The sharded-construction headline property: for every circuit and
//! every shard count, [`build_cssg_sharded`] produces a CSSG
//! **bit-identical** to the serial [`build_cssg`] — same state
//! numbering, same edge lists, and the same pruning/truncation
//! counters.
//!
//! Quick tier: all 23 bundled benchmarks plus small generated
//! muller/arbiter/dme/sequencer families, shards 1..=4.  Release tier
//! (`#[ignore]`, run by the CI `cssg-shard` job with
//! `--include-ignored`): the larger generated sizes whose serial builds
//! dominate engine start-up.

use satpg::core::{build_cssg, build_cssg_sharded, Cssg, CssgConfig};
use satpg::netlist::families::{arbiter_tree, muller_pipeline};
use satpg::netlist::Circuit;
use satpg::stg::synth::complex_gate;
use satpg::stg::{families, suite, StateGraph};

fn si_circuit(name: &str) -> Circuit {
    let stg = suite::load(name).unwrap();
    let sg = StateGraph::build(&stg).unwrap();
    complex_gate(&stg, &sg).unwrap()
}

fn stg_family(kind: &str, size: usize) -> Circuit {
    let stg = match kind {
        "dme" => families::dme_ring(size).unwrap(),
        "seq" => families::sequencer(size).unwrap(),
        other => panic!("unknown family {other}"),
    };
    let sg = StateGraph::build(&stg).unwrap();
    complex_gate(&stg, &sg).unwrap()
}

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

#[test]
fn explicit_sharded_matches_serial_on_all_bundled_benchmarks() {
    for &name in suite::NAMES {
        let ckt = si_circuit(name);
        assert_sharded_matches(&ckt, &CssgConfig::default(), name);
    }
}

#[test]
fn explicit_sharded_matches_serial_on_generated_families() {
    let circuits = [
        muller_pipeline(8),
        muller_pipeline(11),
        arbiter_tree(4),
        arbiter_tree(6),
        stg_family("dme", 3),
        stg_family("seq", 6),
    ];
    for ckt in &circuits {
        assert_sharded_matches(ckt, &CssgConfig::default(), ckt.name());
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

/// Release tier: the build-bound sizes the sharding exists for.  Run by
/// the CI `cssg-shard` job with `--include-ignored`.
#[test]
#[ignore = "release-mode tier: multi-second CSSG builds in debug"]
fn explicit_sharded_matches_serial_on_large_families() {
    for ckt in [muller_pipeline(14), muller_pipeline(16), arbiter_tree(7)] {
        let serial = build_cssg(&ckt, &CssgConfig::default()).unwrap();
        for shards in [2, 4] {
            let sharded = build_cssg_sharded(&ckt, &CssgConfig::default(), shards).unwrap();
            assert_identical(
                &serial,
                &sharded,
                &format!("{} @ {shards} shards", ckt.name()),
            );
        }
    }
}
