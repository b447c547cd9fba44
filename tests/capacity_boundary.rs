//! End-to-end coverage of the ==64-input boundary family.
//!
//! The historical bug: the netlist admitted 64 primary inputs but the
//! enumeration core computed `1u64 << num_inputs()`, which panics in
//! debug builds and silently wraps to *one* pattern in release builds
//! at exactly 64 inputs.  These tests pin the repaired contract at the
//! boundary widths 62/63/64/65:
//!
//! * any width parses, settles and simulates (patterns and states are
//!   multi-word past 64 signals);
//! * exhaustive CSSG enumeration refuses — loudly, via
//!   [`CoreError::PatternBudgetRequired`] — past 63 inputs instead of
//!   panicking or truncating silently;
//! * with an explicit budget the full flow (parse → settle → CSSG →
//!   ATPG → report JSON) runs at every width, skipped patterns are
//!   *counted* in the CSSG and the report, and each width's report is
//!   pinned by a golden digest (the ATPG half is `#[ignore]`d: seconds
//!   in a debug build; CI runs it in release under overflow checks);
//! * a `muller_pipeline(32)` (> 64 state bits, 2 inputs) builds an
//!   untruncated CSSG and completes ATPG with a pinned report;
//! * the `u64` fast-path and [`Pattern`] spellings of the simulation
//!   entry points are interchangeable across the whole benchmark suite
//!   and the generated families.

use satpg::core::{faults_for, run_atpg_on, CoreError};
use satpg::netlist::families::{arbiter_tree, muller_pipeline};
use satpg::netlist::{parse_ckt, to_ckt};
use satpg::prelude::*;
use satpg::serve::cache::fnv64;
use satpg::stg::{suite, synth, StateGraph};

/// A scaled ATPG configuration with an explicit per-state pattern
/// budget (required past 63 inputs, and the only tractable choice for
/// 62- and 63-input circuits too: 2^62 patterns per state is not a
/// test-tier workload).
fn budgeted_cfg(ckt: &Circuit, budget: u64) -> AtpgConfig {
    let mut cfg = AtpgConfig::scaled(ckt);
    cfg.cssg.pattern_budget = Some(budget);
    cfg
}

/// Widths 62–65 drive the flow up to the budgeted CSSG: text
/// round-trip, multi-word settling and the skipped-pattern ledger.
#[test]
fn boundary_widths_drive_the_full_flow() {
    for width in [62usize, 63, 64, 65] {
        let ckt = arbiter_tree(width);
        assert_eq!(ckt.num_inputs(), width);

        // Parse: the `.ckt` text round trip preserves the wide netlist.
        let text = to_ckt(&ckt);
        let reparsed = parse_ckt(&text).unwrap_or_else(|e| panic!("width {width}: {e}"));
        assert_eq!(reparsed.num_inputs(), width);
        assert_eq!(to_ckt(&reparsed), text, "width {width}: round trip");

        // Settle: all requests high grants the root, through a pattern
        // wider than one word at 65 (and exactly at the wall at 64).
        let all = Pattern::from_fn(width, |_| true);
        let scfg = SettlerConfig {
            cap: CapPolicy::Fixed(1 << 16),
            por: false,
            ..SettlerConfig::for_circuit(&ckt)
        };
        match Settler::new(&ckt, &Injection::none(), &scfg).settle(ckt.initial_state(), &all) {
            Settle::Confluent(s) => {
                assert_eq!(ckt.output_values(&s), 1, "width {width}: grant");
                assert_eq!(ckt.input_pattern(&s), all, "width {width}: readback");
            }
            other => panic!("width {width}: all-requests settle was {other:?}"),
        }

        // CSSG under an explicit budget.  The skipped patterns must be
        // *counted* — the graph carries the shortfall rather than
        // pretending the enumeration was exhaustive.
        let cfg = budgeted_cfg(&ckt, 8);
        let cssg = build_cssg(&ckt, &cfg.cssg).unwrap_or_else(|e| panic!("width {width}: {e}"));
        assert!(
            cssg.patterns_skipped() > 0,
            "width {width}: a 2^{width} enumeration under budget 8 must record skips"
        );
    }
}

/// The budgeted ATPG half of [`boundary_widths_drive_the_full_flow`]:
/// each width's timing-free report under budget 8 carries the CSSG's
/// skip ledger and hashes to its golden digest.  369 of arbiter-62's
/// 370 faults end untestable, which takes seconds a width in a debug
/// build.
#[test]
#[ignore = "release tier: CI runs it with --release under overflow checks"]
fn boundary_width_reports_are_pinned() {
    let mut got = Vec::new();
    for width in [62usize, 63, 64, 65] {
        let ckt = arbiter_tree(width);
        let cfg = budgeted_cfg(&ckt, 8);
        let cssg = build_cssg(&ckt, &cfg.cssg).unwrap_or_else(|e| panic!("width {width}: {e}"));
        let faults = faults_for(&ckt, cfg.fault_model);
        let report = run_atpg_on(&ckt, &cssg, &faults, &cfg, 0).unwrap();
        assert_eq!(report.cssg_patterns_skipped, cssg.patterns_skipped());
        let json = report.to_json_value(false).render();
        assert!(json.contains("\"patterns_skipped\""), "width {width}");
        got.push((width, fnv64(json.as_bytes())));
    }
    let want = [
        (62, 0xe1f7_8beb_ec1c_0419),
        (63, 0x593e_db77_0bfb_1ce7),
        (64, 0x70ec_a752_5262_79b9),
        (65, 0xeead_3050_ad75_9932),
    ];
    assert_eq!(got, want, "(width, report digest)");
}

/// Past 63 inputs, exhaustive enumeration refuses with a diagnostic
/// instead of panicking (debug) or wrapping to one pattern (release).
#[test]
fn past_63_inputs_requires_a_budget_loudly() {
    assert_eq!(pattern_count(63), Some(1u64 << 63));
    assert_eq!(pattern_count(64), None, "2^64 does not fit a u64 count");
    for width in [64usize, 65] {
        let ckt = arbiter_tree(width);
        match build_cssg(&ckt, &CssgConfig::default()) {
            Err(CoreError::PatternBudgetRequired(n)) => {
                assert_eq!(n, width);
                let msg = CoreError::PatternBudgetRequired(n).to_string();
                assert!(msg.contains("pattern budget"), "actionable message: {msg}");
            }
            Err(e) => panic!("width {width}: wrong error {e}"),
            Ok(_) => panic!("width {width}: exhaustive CSSG must refuse"),
        }
    }
}

/// 63 inputs stays on the admitted side of the boundary: the config is
/// accepted (no [`CoreError::PatternBudgetRequired`]) even though the
/// full 2^63 enumeration is far past test-tier budgets — a tiny state
/// cap cuts the build short via the *state* ledger instead.
#[test]
fn sixty_three_inputs_is_still_admitted() {
    let ckt = arbiter_tree(63);
    let cfg = CssgConfig {
        max_states: 1,
        ..CssgConfig::default()
    };
    match build_cssg(&ckt, &cfg) {
        Err(CoreError::PatternBudgetRequired(_)) => {
            panic!("63 inputs must not require a budget")
        }
        Err(CoreError::CssgOverflow(_)) | Ok(_) => {}
        Err(e) => panic!("unexpected error: {e}"),
    }
}

/// `muller_pipeline(32)` has 2 inputs but 68 state bits — past the old
/// 64-signal wall for *states*.  The CSSG builds untruncated, ATPG
/// completes, and the report hashes to its golden digest.
#[test]
fn muller_32_crosses_the_state_wall() {
    let ckt = muller_pipeline(32);
    assert!(
        ckt.num_state_bits() > 64,
        "need a multi-word state: {} bits",
        ckt.num_state_bits()
    );
    let cfg = AtpgConfig::scaled(&ckt);
    let cssg = build_cssg(&ckt, &cfg.cssg).unwrap();
    assert_eq!(cssg.pruned_truncated(), 0, "untruncated at depth 32");
    assert_eq!(cssg.patterns_skipped(), 0, "2 inputs: exhaustive");
    let faults = faults_for(&ckt, cfg.fault_model);
    let report = run_atpg_on(&ckt, &cssg, &faults, &cfg, 0).unwrap();
    assert_eq!(
        report.covered() + report.untestable() + report.aborted(),
        report.total()
    );
    let json = report.to_json_value(false).render();
    assert_eq!(
        fnv64(json.as_bytes()),
        0x65ff_8c67_d662_a6f4,
        "depth-32 report digest"
    );
}

/// The `u64` fast path and the [`Pattern`] spelling of every simulation
/// entry point agree on the whole synthesized suite and the generated
/// families (the multi-word representation is an extension, not a fork).
#[test]
fn u64_and_pattern_spellings_agree_across_the_suite() {
    let mut circuits: Vec<(String, Circuit)> = Vec::new();
    for &name in suite::NAMES {
        let stg = suite::load(name).unwrap();
        let sg = StateGraph::build(&stg).unwrap();
        circuits.push((name.to_string(), synth::complex_gate(&stg, &sg).unwrap()));
    }
    for d in [1usize, 3, 6] {
        circuits.push((format!("muller{d}"), muller_pipeline(d)));
    }
    for w in [2usize, 5, 8] {
        circuits.push((format!("arbiter{w}"), arbiter_tree(w)));
    }
    for (name, ckt) in &circuits {
        let n = ckt.num_inputs();
        let total = pattern_count(n).expect("suite circuits are narrow");
        // Cap the sweep per circuit; the boundary cases (0, all-ones)
        // are always included.
        let sample: Vec<u64> = (0..total.min(64)).chain([total - 1]).collect();
        let mut settler = Settler::new(
            ckt,
            &Injection::none(),
            &SettlerConfig {
                cap: CapPolicy::Fixed(1 << 16),
                por: false,
                ..SettlerConfig::for_circuit(ckt)
            },
        );
        for v in sample {
            let p = Pattern::from_u64(n, v);
            assert_eq!(
                ternary_settle(ckt, ckt.initial_state(), v, &Injection::none()),
                ternary_settle(ckt, ckt.initial_state(), &p, &Injection::none()),
                "{name}: ternary({v:#x})"
            );
            assert_eq!(
                settler.settle(ckt.initial_state(), v),
                settler.settle(ckt.initial_state(), &p),
                "{name}: explicit({v:#x})"
            );
        }
        // The sanctioned iterator enumerates exactly 2^n ascending
        // patterns — the counting contract behind every exhaustive loop.
        if total <= 1 << 10 {
            let mut count = 0u64;
            let mut prev: Option<Pattern> = None;
            for p in Pattern::all(n) {
                if let Some(q) = &prev {
                    assert!(q < &p, "{name}: ascending");
                }
                prev = Some(p);
                count += 1;
            }
            assert_eq!(count, total, "{name}: Pattern::all covers 2^{n}");
        }
    }
}
