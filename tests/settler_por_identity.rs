//! POR soundness property suite: the partial-order-reduced settling
//! walk must be **observationally identical** to the naive exhaustive
//! walk wherever the naive walk completes.
//!
//! Concretely, for every circuit in the bundled 23-benchmark suite and
//! the generated muller/arbiter/dme/sequencer families, a CSSG built
//! with `por: true` must be bit-identical to one built with
//! `por: false` — same state numbering, same edge lists, same
//! pruning/truncation counters — serially and for every shard count.
//! The only permitted difference is the work ledger
//! ([`Cssg::settle_stats`]): the reduced build explores fewer states.
//!
//! This is the empirical half of the persistent-singleton soundness
//! argument in `crates/sim/DESIGN.md`; the reduction itself re-verifies
//! its premise at every expanded state, and this suite checks the
//! conclusion end to end.
//!
//! Quick tier: all 23 benchmarks (default config) plus small generated
//! families, serial and shards 1..=4, and exact-semantics (no ternary
//! fast path) configurations that force the walker onto every pattern.
//! Release tier (`#[ignore]`, run by the CI `cssg-shard` job with
//! `--include-ignored`): the deep Muller pipelines where the naive walk
//! takes seconds and POR earns its keep.
//!
//! The same identity holds for the whole flow: with POR off in both
//! settling layers (CSSG construction and the three-phase search), the
//! campaign's records, tests and totals equal the default campaign's.

use satpg::core::{
    build_cssg, build_cssg_sharded, input_stuck_faults, output_stuck_faults, run_atpg,
    three_phase_traced, AtpgConfig, AtpgReport, CapPolicy, Cssg, CssgConfig, FaultStatus,
};
use satpg::netlist::families::{arbiter_tree, muller_pipeline};
use satpg::netlist::Circuit;
use satpg::serve::cache::fnv64;
use satpg::serve::{job_atpg_config, resolve_circuit, CircuitSpec, JobSpec};
use satpg::sim::SettleStats;
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

/// Bit identity of everything except the work ledger.
fn assert_identical(naive: &Cssg, reduced: &Cssg, ctx: &str) {
    assert_eq!(naive.k(), reduced.k(), "{ctx}: k");
    assert_eq!(naive.num_inputs(), reduced.num_inputs(), "{ctx}: inputs");
    assert_eq!(naive.states(), reduced.states(), "{ctx}: state numbering");
    for s in 0..naive.num_states() {
        assert_eq!(
            naive.edges(s),
            reduced.edges(s),
            "{ctx}: edge list of state {s}"
        );
    }
    assert_eq!(
        naive.pruned_nonconfluent(),
        reduced.pruned_nonconfluent(),
        "{ctx}: pruned_nonconfluent"
    );
    assert_eq!(
        naive.pruned_unstable(),
        reduced.pruned_unstable(),
        "{ctx}: pruned_unstable"
    );
    assert_eq!(
        naive.pruned_truncated(),
        reduced.pruned_truncated(),
        "{ctx}: pruned_truncated"
    );
}

/// The headline property for one circuit and one base config: the naive
/// build must complete (no truncation — the identity claim is scoped to
/// that), and then the POR build must match it bit for bit, serially
/// and for every shard count 1..=4.
fn assert_por_identity(ckt: &Circuit, base: &CssgConfig, ctx: &str) {
    let naive_cfg = CssgConfig {
        por: false,
        ..*base
    };
    let por_cfg = CssgConfig { por: true, ..*base };
    let naive = build_cssg(ckt, &naive_cfg).unwrap();
    assert_eq!(
        naive.pruned_truncated(),
        0,
        "{ctx}: the naive walk must complete for the identity claim to apply \
         (raise the cap in this test)"
    );
    let reduced = build_cssg(ckt, &por_cfg).unwrap();
    assert_identical(&naive, &reduced, ctx);
    for shards in 1..=4 {
        let sharded = build_cssg_sharded(ckt, &por_cfg, shards).unwrap();
        assert_identical(&naive, &sharded, &format!("{ctx} @ {shards} POR shards"));
    }
}

#[test]
fn por_identity_on_all_bundled_benchmarks() {
    for &name in suite::NAMES {
        let ckt = si_circuit(name);
        assert_por_identity(&ckt, &CssgConfig::default(), name);
    }
}

#[test]
fn por_identity_on_generated_families() {
    let circuits = [
        muller_pipeline(8),
        muller_pipeline(11),
        arbiter_tree(4),
        arbiter_tree(6),
        stg_family("dme", 3),
        stg_family("seq", 6),
    ];
    for ckt in &circuits {
        assert_por_identity(ckt, &CssgConfig::default(), ckt.name());
    }
}

/// The exact k-bounded semantics (no ternary fast path) sends *every*
/// (state, pattern) pair through the walker, so the reduction is
/// exercised on confluent waves too — the cases the fast path normally
/// absorbs.
#[test]
fn por_identity_under_exact_semantics() {
    let exact = CssgConfig {
        ternary_fast_path: false,
        ..CssgConfig::default()
    };
    for ckt in [
        muller_pipeline(6),
        arbiter_tree(4),
        si_circuit("converta"),
        si_circuit("dff"),
        si_circuit("mmu"),
    ] {
        assert_por_identity(&ckt, &exact, &format!("{} exact", ckt.name()));
        // A small k moves the depth boundary into live settles: run
        // lengths must still be preserved exactly by the reduction.
        let short = CssgConfig {
            k: Some(5),
            ..exact
        };
        assert_por_identity(&ckt, &short, &format!("{} exact k=5", ckt.name()));
    }
}

/// The reduction actually reduces on wave-heavy workloads (otherwise
/// this suite would pass vacuously with the rule never firing).  The
/// naive walk's work is pinned exactly, under a fixed 2^15 cap so the
/// pin does not follow the default cap policy; the reduced build's
/// 1,064 expansions are in the muller-10 report digest.
#[test]
fn por_actually_fires_on_muller() {
    let ckt = muller_pipeline(10);
    let reduced = build_cssg(&ckt, &CssgConfig::default()).unwrap();
    assert!(
        reduced.settle_stats().por_pruned > 0,
        "expected POR to prune on a 10-stage pipeline: {:?}",
        reduced.settle_stats()
    );
    let naive = build_cssg(
        &ckt,
        &CssgConfig {
            por: false,
            settle_cap: CapPolicy::Fixed(1 << 15),
            ..CssgConfig::default()
        },
    )
    .unwrap();
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

/// Release tier: the sizes where the naive walk is seconds of wall
/// clock and the old fixed 2^15 cap used to truncate.  muller-14/16
/// keep the naive side affordable; the POR side is instant.
#[test]
#[ignore = "release-mode tier: the naive reference walks are seconds of wall clock"]
fn por_identity_on_deep_muller_pipelines() {
    for size in [14usize, 16] {
        let ckt = muller_pipeline(size);
        assert_por_identity(&ckt, &CssgConfig::default(), &format!("muller_pipe{size}"));
    }
    let ckt = arbiter_tree(7);
    assert_por_identity(&ckt, &CssgConfig::default(), "arbiter7");
}

/// The campaign `spec` describes, run with the CLI's flow configuration
/// and again with POR off in both settling layers: the naive walk must
/// complete (no truncated CSSG pair) and give the same records, tests
/// and totals.
fn assert_naive_flow_matches(spec: CircuitSpec, ctx: &str) {
    let spec = JobSpec::new(spec);
    let ckt = resolve_circuit(&spec.circuit).expect("circuit resolves");
    let default = job_atpg_config(&spec, &ckt);
    let mut naive = default.clone();
    naive.cssg.por = false;
    naive.three_phase.por = false;
    let verdicts = |r: &AtpgReport| {
        let json = r.to_json_value(false);
        ["records", "tests", "totals"].map(|key| json.get(key).cloned())
    };
    match (run_atpg(&ckt, &default), run_atpg(&ckt, &naive)) {
        (Ok(d), Ok(n)) => {
            assert_eq!(n.cssg_truncated, 0, "{ctx}: the naive build must complete");
            assert_eq!(
                verdicts(&d),
                verdicts(&n),
                "{ctx}: naive vs default verdicts"
            );
        }
        // A circuit with no valid vectors fails the same way on both.
        (Err(_), Err(_)) => {}
        (d, n) => panic!("{ctx}: default {d:?} vs naive {n:?}"),
    }
}

#[test]
fn naive_flow_matches_default_on_all_bundled_benchmarks() {
    for &name in suite::NAMES {
        for style in ["si", "2l"] {
            let spec = CircuitSpec::Bench {
                name: name.to_string(),
                style: style.to_string(),
            };
            assert_naive_flow_matches(spec, &format!("{name} {style}"));
        }
    }
}

#[test]
fn naive_flow_matches_default_on_muller_10() {
    let spec = CircuitSpec::Family {
        name: "muller".to_string(),
        size: 10,
    };
    assert_naive_flow_matches(spec, "muller_pipe10");
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
    let mut specs: Vec<CircuitSpec> = Vec::new();
    for &name in suite::NAMES {
        for style in ["si", "2l", "2lr"] {
            specs.push(CircuitSpec::Bench {
                name: name.to_string(),
                style: style.to_string(),
            });
        }
    }
    for (name, size) in [("muller", 6), ("dme", 3), ("arbiter", 4)] {
        specs.push(CircuitSpec::Family {
            name: name.to_string(),
            size,
        });
    }
    let mut sum = SettleStats::default();
    let mut verdicts = String::new();
    for spec in &specs {
        let ckt = resolve_circuit(spec).expect("circuit resolves");
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
    let ckt = resolve_circuit(&CircuitSpec::Bench {
        name: "mp-forward-pkt".to_string(),
        style: "2l".to_string(),
    })
    .expect("circuit resolves");
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
