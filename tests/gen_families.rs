//! Regression tests for `ThreePhaseConfig::scaled`: the generated
//! benchmark families (`satpg gen muller|dme|arbiter`) must complete
//! without three-phase aborts at the pinned sizes.
//!
//! With the paper-tuned defaults the Muller pipeline first aborts at
//! size 15 (the faulty-machine settle set outgrows `max_set = 4096`);
//! the scaled limits lift exactly that. The quick tier pins the largest
//! sizes that fit a debug-mode test run, including the upper bounds of
//! the family table for the STG-synthesized families (dme-6 and seq-15,
//! the largest sizes `satpg gen` and the daemon accept); the
//! `#[ignore]`d release tier (run by the CI `bdd-oracle` job with
//! `--include-ignored`) pins arbiter-7 and the previously-aborting
//! Muller sizes 15 and 16.

use satpg::core::{run_atpg, AtpgConfig, ThreePhaseConfig};
use satpg::engine::{run_engine, EngineConfig};
use satpg::netlist::families::{arbiter_tree, muller_pipeline};
use satpg::netlist::Circuit;
use satpg::stg::synth::complex_gate;
use satpg::stg::{families, StateGraph, Stg};

/// The complex-gate circuit `satpg gen` builds from a generated spec.
fn synthesized(stg: satpg::stg::Result<Stg>) -> Circuit {
    let stg = stg.expect("generated spec parses");
    let sg = StateGraph::build(&stg).expect("spec is well-formed");
    complex_gate(&stg, &sg).expect("spec synthesizes")
}

fn assert_no_aborts(ckt: &Circuit) {
    let report = run_atpg(ckt, &AtpgConfig::scaled(ckt)).unwrap();
    assert_eq!(
        report.aborted(),
        0,
        "{}: {} of {} faults aborted under scaled limits",
        ckt.name(),
        report.aborted(),
        report.total()
    );
    assert_eq!(report.efficiency(), 100.0, "{}", ckt.name());
}

#[test]
fn scaled_limits_floor_at_paper_defaults() {
    // Paper-sized circuits see exactly the default limits, so every
    // existing result is unchanged by the scaling.
    let small = satpg::netlist::library::c_element();
    let d = ThreePhaseConfig::default();
    let s = ThreePhaseConfig::scaled(&small);
    assert_eq!(s.max_depth, d.max_depth);
    assert_eq!(s.max_nodes, d.max_nodes);
    // The settle cap is floored at the paper default.  (It may exceed it
    // even for small circuits; a cap only gates truncation, so a larger
    // value can never change a verdict that completed under the default.)
    let gates = small.num_gates();
    assert!(s.settle_cap.resolve(gates) >= d.settle_cap.resolve(gates));
    // Larger circuits scale monotonically, with the settle cap unlocked
    // past the observed muller-15 onset (32 gates -> at least 2^14).
    let big = muller_pipeline(15);
    let sb = ThreePhaseConfig::scaled(&big);
    assert!(sb.max_depth > d.max_depth);
    assert!(sb.max_nodes > d.max_nodes);
    let cap = sb.settle_cap.resolve(big.num_gates());
    assert!(cap >= 1 << 14, "settle cap {cap} too small");
    // The CSSG-side cap scales too: muller-19 (38 gates) gets at least
    // 2^19 tracked interleavings where the old fixed 2^15 truncated.
    use satpg::core::CssgConfig;
    let cssg_cap = CssgConfig::default()
        .settle_cap
        .resolve(muller_pipeline(19).num_gates());
    assert!(cssg_cap >= 1 << 19, "CSSG settle cap {cssg_cap} too small");
}

#[test]
fn muller_family_completes_at_size_12() {
    assert_no_aborts(&muller_pipeline(12));
}

/// The sizes past the old truncation boundary: with the scaled settle
/// cap and partial-order reduction, muller-19 and muller-20 build an
/// untruncated CSSG and complete the full flow with no aborts — the
/// sizes where PR 4's coverage sweep measured the CSSG collapsing from
/// ~40 states to 2 under the fixed 2^15 cap.  Quick tier because POR
/// makes them milliseconds.
#[test]
fn muller_family_completes_past_old_truncation_boundary() {
    for size in [19usize, 20] {
        let ckt = muller_pipeline(size);
        let cfg = AtpgConfig::scaled(&ckt);
        let cssg = satpg::core::build_cssg(&ckt, &cfg.cssg).unwrap();
        assert_eq!(
            cssg.pruned_truncated(),
            0,
            "muller-{size}: the settling analyses must not truncate"
        );
        assert!(
            cssg.num_states() > 2,
            "muller-{size}: the CSSG must not collapse (got {} states)",
            cssg.num_states()
        );
        assert_no_aborts(&ckt);
    }
}

#[test]
fn arbiter_family_completes_at_size_6() {
    assert_no_aborts(&arbiter_tree(6));
}

#[test]
fn dme_family_completes_at_size_4() {
    // A mid-size ring; the family's upper bound is pinned by
    // `dme_family_completes_at_size_6`.
    assert_no_aborts(&synthesized(families::dme_ring(4)));
}

/// The upper bounds of the family table: its two STG-synthesized
/// families at their largest accepted sizes (13 and 16 signals).
#[test]
fn dme_family_completes_at_size_6() {
    assert_no_aborts(&synthesized(families::dme_ring(6)));
}

#[test]
fn seq_family_completes_at_size_15() {
    assert_no_aborts(&synthesized(families::sequencer(15)));
}

/// The engine sees the same scaled limits (CLI parity) and stays
/// serial-identical on a generated family.
#[test]
fn engine_on_generated_family_with_scaled_limits() {
    let ckt = muller_pipeline(10);
    let atpg = AtpgConfig::scaled(&ckt);
    let serial = run_atpg(&ckt, &atpg).unwrap();
    assert_eq!(serial.aborted(), 0);
    let out = run_engine(
        &ckt,
        &EngineConfig {
            atpg,
            workers: 3,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(satpg::engine::reports_identical(&out.report, &serial));
}

/// Release-tier pins: the sizes whose *naive* walks abort on the
/// paper-default limits must complete under the scaled limits.  The
/// historical behavior (fixed 4096 faulty-set cap, exhaustive walk)
/// is reproduced with POR off; with POR on — the default since PR 5 —
/// even the paper caps suffice at these sizes, which is pinned as the
/// improvement.  Run via the CI bdd-oracle job
/// (`cargo test --release --test gen_families -- --include-ignored`).
#[test]
#[ignore = "release-mode tier: several seconds in debug builds"]
fn muller_family_completes_at_previously_aborting_sizes() {
    for size in [15usize, 16] {
        let ckt = muller_pipeline(size);
        // The legacy configuration: paper caps, naive walks.
        let mut legacy = AtpgConfig::paper();
        legacy.cssg.por = false;
        legacy.three_phase.por = false;
        let defaults = run_atpg(&ckt, &legacy).unwrap();
        assert!(
            defaults.aborted() > 0,
            "muller-{size} no longer aborts on naive defaults; move the pin up"
        );
        // POR collapses the faulty-machine settle sets so far that the
        // paper caps now complete unaided...
        let por_defaults = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        assert_eq!(
            por_defaults.aborted(),
            0,
            "muller-{size}: POR should complete even under paper caps"
        );
        // ...and the scaled limits complete regardless.
        assert_no_aborts(&ckt);
    }
}

#[test]
#[ignore = "release-mode tier: several seconds in debug builds"]
fn arbiter_family_completes_at_size_7() {
    assert_no_aborts(&arbiter_tree(7));
}
