//! POR soundness property suite: the partial-order-reduced settling
//! walk must be **observationally identical** to the naive exhaustive
//! walk wherever the naive walk completes — the empirical half of the
//! soundness argument in `crates/sim/DESIGN.md`.  A CSSG built with POR
//! on equals one built with it off (state numbering, edge lists,
//! pruning counters), serially and for every shard count: the identity
//! matrix's structure rows (`matrix/mod.rs`) pin one digest across all
//! of them; only the settle-work ledger differs.  With POR off in both
//! settling layers, the whole flow's records, tests and totals equal
//! the default's (the matrix's `naive` column).

mod matrix;

use matrix::{
    is_bench_label, job, naive_cells, quick_rows, structure_cells, SLOW_NAIVE, STRUCTURE,
};
use satpg::core::{
    build_cssg, input_stuck_faults, output_stuck_faults, three_phase_traced, AtpgConfig, CapPolicy,
    CssgConfig, FaultStatus,
};
use satpg::netlist::Circuit;
use satpg::serve::cache::fnv64;
use satpg::serve::resolve_circuit;
use satpg::sim::SettleStats;
use satpg::stg::suite;

/// The 23 bundled benchmarks (`si`) under the default configuration.
#[test]
fn por_identity_on_all_bundled_benchmarks() {
    structure_cells(STRUCTURE, |circuit, config| {
        config == "default" && is_bench_label(circuit)
    });
}

/// muller-8/11, arbiter-4, dme-3 and seq-6 under the default
/// configuration, and the flow with POR off on the family report rows
/// (muller-10 has its own test below).
#[test]
fn por_identity_on_generated_families() {
    structure_cells(STRUCTURE, |circuit, config| {
        config == "default" && !is_bench_label(circuit)
    });
    let slow = [&SLOW_NAIVE[..], &["muller-10"]].concat();
    naive_cells(&quick_rows(|r| r.is_family() && !r.is_one_of(&slow)));
}

/// The exact k-bounded semantics (no ternary fast path) sends *every*
/// (state, pattern) pair through the walker, so the reduction is
/// exercised on confluent waves too — the cases the fast path normally
/// absorbs.  A small k moves the depth boundary into live settles: run
/// lengths must still be preserved exactly by the reduction.
#[test]
fn por_identity_under_exact_semantics() {
    structure_cells(STRUCTURE, |_, config| {
        ["exact", "exact k=5"].contains(&config)
    });
}

/// The reduction actually reduces on wave-heavy workloads (otherwise
/// this suite would pass vacuously with the rule never firing).  The
/// naive walk's work is pinned exactly, under a fixed 2^15 cap so the
/// pin does not follow the default cap policy; the reduced build's
/// 1,064 expansions are in the muller-10 report digest.
#[test]
fn por_actually_fires_on_muller() {
    let ckt = resolve_circuit(&job("muller-10").circuit).expect("muller-10 resolves");
    let reduced = build_cssg(&ckt, &CssgConfig::default()).unwrap();
    assert!(
        reduced.settle_stats().por_pruned > 0,
        "expected POR to prune on a 10-stage pipeline: {:?}",
        reduced.settle_stats()
    );
    let naive = CssgConfig {
        por: false,
        settle_cap: CapPolicy::Fixed(1 << 15),
        ..CssgConfig::default()
    };
    let naive = build_cssg(&ckt, &naive).unwrap();
    assert_eq!(
        naive.settle_stats().states_explored,
        23_094,
        "naive muller-10 settle work: {:?}",
        naive.settle_stats()
    );
    assert!(
        reduced.settle_stats().states_explored < naive.settle_stats().states_explored,
        "reduced {:?} vs naive {:?}",
        reduced.settle_stats(),
        naive.settle_stats()
    );
}

/// The bundled benchmarks' naive cells: every style, random stage on
/// and off, and the output-model and collapse rows.
#[test]
fn naive_flow_matches_default_on_all_bundled_benchmarks() {
    naive_cells(&quick_rows(|r| !r.is_family()));
}

#[test]
fn naive_flow_matches_default_on_muller_10() {
    let muller_10 = quick_rows(|r| r.is_one_of(&["muller-10"]));
    assert_eq!(
        muller_10.len(),
        2,
        "muller-10 with the random stage on and off"
    );
    naive_cells(&muller_10);
}

/// The three-phase search on every input and output stuck-at fault of
/// `ckt` under `cfg`: the settle counters summed into `sum`, each
/// verdict (with a detected test's patterns) appended to `verdicts` in
/// fault order.  A CSSG build that fails appends its error instead.
fn three_phase_work(ckt: &Circuit, cfg: &AtpgConfig, sum: &mut SettleStats, verdicts: &mut String) {
    let cssg = match build_cssg(ckt, &cfg.cssg) {
        Ok(cssg) => cssg,
        Err(e) => return verdicts.push_str(&format!("error: {e};")),
    };
    for fault in input_stuck_faults(ckt)
        .into_iter()
        .chain(output_stuck_faults(ckt))
    {
        let (status, stats) = three_phase_traced(ckt, &cssg, &fault, &cfg.three_phase);
        sum.absorb(&stats);
        match status {
            FaultStatus::Detected { sequence } => {
                let p: Vec<String> = sequence.patterns.iter().map(|p| p.to_string()).collect();
                verdicts.push_str(&format!("D{};", p.join(",")));
            }
            FaultStatus::Untestable(_) => verdicts.push_str("U;"),
            FaultStatus::Aborted => verdicts.push_str("A;"),
        }
    }
}

/// The six work counters, in declaration order.
fn counters(s: &SettleStats) -> [u64; 6] {
    [
        s.settles,
        s.states_explored,
        s.por_states,
        s.por_pruned,
        s.truncated,
        s.fallbacks,
    ]
}

/// Absolute settle work and verdicts of the three-phase product BFS,
/// whose faulty machines are where walks end unsettled at depth `k`
/// (44 of them per paper-suite pass, all in the mp-forward-pkt si/2l
/// input stuck-at campaigns).  The corpus is the 23 benchmarks in
/// every style plus muller-6, dme-3 and arbiter-4, each under
/// `AtpgConfig::paper()` and `AtpgConfig::scaled`.  Recorded before the
/// settler cut oscillating walks short, so it pins that the cut
/// changes no verdict and no counter.
#[test]
fn three_phase_settle_work_pinned() {
    let styles = ["si", "2l", "2lr"];
    let benches = suite::NAMES
        .iter()
        .flat_map(|n| styles.map(|s| format!("{n} {s}")));
    let families = ["muller-6", "dme-3", "arbiter-4"].map(String::from);
    let mut sum = SettleStats::default();
    let mut verdicts = String::new();
    for label in benches.chain(families) {
        let ckt = resolve_circuit(&job(&label).circuit).expect("circuit resolves");
        three_phase_work(&ckt, &AtpgConfig::paper(), &mut sum, &mut verdicts);
        three_phase_work(&ckt, &AtpgConfig::scaled(&ckt), &mut sum, &mut verdicts);
    }
    assert_eq!(
        (counters(&sum), fnv64(verdicts.as_bytes())),
        ([8_424, 44_122, 3_122, 3_408, 0, 70], 0x14d1_06df_2c62_ee91),
        "three-phase settle work: (settles, states_explored, por_states, por_pruned, \
         truncated, fallbacks) and verdict digest"
    );
}

/// The same pin on mp-forward-pkt 2l at `k` = 200 and 2,000 under
/// `AtpgConfig::paper()`, where each uncut oscillating walk would run
/// the whole test cycle.
#[test]
fn three_phase_settle_work_pinned_at_large_k() {
    let ckt = resolve_circuit(&job("mp-forward-pkt 2l").circuit).expect("circuit resolves");
    let mut got = Vec::new();
    for k in [200, 2_000] {
        let mut cfg = AtpgConfig::paper();
        cfg.cssg.k = Some(k);
        let mut sum = SettleStats::default();
        let mut verdicts = String::new();
        three_phase_work(&ckt, &cfg, &mut sum, &mut verdicts);
        got.push((k, counters(&sum), fnv64(verdicts.as_bytes())));
    }
    let want = vec![
        (
            200,
            [56, 74_532, 4_067, 4_100, 0, 13],
            0x4b73_c6ff_f240_4d38,
        ),
        (
            2_000,
            [56, 742_332, 40_067, 40_100, 0, 13],
            0x4b73_c6ff_f240_4d38,
        ),
    ];
    assert_eq!(got, want, "(k, counters, verdict digest)");
}
