//! Merge determinism under arbitrary distribution: for any partition of
//! the fault list into shards, any interleaved completion order, any
//! broadcast-screening drops and any subset of lost verdicts, feeding
//! the surviving verdicts to [`satpg_core::stages::Campaign::finish`]
//! must reproduce the serial report byte-for-byte.
//!
//! This is the property the fleet coordinator leans on (see
//! `crates/serve/DESIGN.md`): a class verdict is a pure function of
//! `(circuit, CSSG, fault, config)`, so the merge can recompute
//! anything the fleet lost without changing a single record.  The
//! simulation below mirrors the coordinator faithfully — shards hold
//! contiguous-by-index class runs, a `Detected` verdict is broadcast
//! and later classes it screens are dropped (never computed), and an
//! adversarial subset of computed verdicts simply vanishes, as if the
//! peers carrying them had died.

use proptest::prelude::*;
use satpg_core::stages::{Campaign, Finished};
use satpg_core::{
    build_cssg_sharded, fault_simulate, faults_for, run_atpg_on, three_phase, AtpgConfig, Cssg,
    Fault, FaultStatus, ThreePhaseConfig,
};
use satpg_netlist::{families as nf, library, Circuit};
use std::sync::OnceLock;

struct Fixture {
    ckt: Circuit,
    cssg: Cssg,
    faults: Vec<Fault>,
    cfg: AtpgConfig,
    open: Vec<usize>,
    /// Per-class representative faults, indexed like the plan.
    reps: Vec<Fault>,
    /// The true verdict of every open class, computed once up front.
    truth: Vec<Option<FaultStatus>>,
    /// The serial report's timing-free JSON — the identity target.
    serial: String,
}

fn fixture(ckt: Circuit) -> Fixture {
    // No random stage: every class stays open, so the property covers
    // the whole fault list instead of the random stage's leftovers.
    let cfg = AtpgConfig {
        random: None,
        three_phase: ThreePhaseConfig::scaled(&ckt),
        ..AtpgConfig::paper()
    };
    let cssg = build_cssg_sharded(&ckt, &cfg.cssg, 1).expect("CSSG builds");
    let faults = faults_for(&ckt, cfg.fault_model);
    let serial = run_atpg_on(&ckt, &cssg, &faults, &cfg, 0)
        .expect("serial ATPG runs")
        .to_json_value(false)
        .render();
    let campaign = Campaign::prepare(&ckt, &cssg, &faults, &cfg);
    let open = campaign.state.open_classes();
    let reps: Vec<Fault> = campaign
        .plan
        .classes()
        .iter()
        .map(|c| c.representative)
        .collect();
    let mut truth: Vec<Option<FaultStatus>> = vec![None; campaign.plan.len()];
    for &ci in &open {
        truth[ci] = Some(three_phase(&ckt, &cssg, &reps[ci], &cfg.three_phase));
    }
    Fixture {
        ckt,
        cssg,
        faults,
        cfg,
        open,
        reps,
        truth,
        serial,
    }
}

fn c_element() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| fixture(library::c_element()))
}

fn muller3() -> &'static Fixture {
    static F: OnceLock<Fixture> = OnceLock::new();
    F.get_or_init(|| fixture(nf::muller_pipeline(3)))
}

/// A tiny deterministic generator so shard assignment and interleaving
/// derive reproducibly from the proptest-supplied seeds.
fn lcg(s: &mut u64) -> u64 {
    *s = s
        .wrapping_mul(6364136223846793005)
        .wrapping_add(1442695040888963407);
    *s >> 33
}

/// Simulates a fleet execution: partition `fx.open` into `1..=4`
/// shards, complete classes in an arbitrary interleaving, apply the
/// coordinator's broadcast-screening drop rule, then lose a seeded
/// subset of the computed verdicts.  Returns the surviving verdict map.
fn simulate(
    fx: &Fixture,
    partition_seed: u64,
    order_seed: u64,
    loss_seed: u64,
) -> Vec<Option<FaultStatus>> {
    let mut ps = partition_seed;
    let nshards = 1 + (lcg(&mut ps) as usize) % 4;
    let mut shards: Vec<Vec<usize>> = vec![Vec::new(); nshards];
    // Contiguous runs of ascending class indices, like the coordinator's
    // chunker, but with seeded run lengths.
    let mut i = 0;
    let mut s = 0;
    while i < fx.open.len() {
        let run = 1 + (lcg(&mut ps) as usize) % 3;
        for &ci in fx.open.iter().skip(i).take(run) {
            shards[s % nshards].push(ci);
        }
        i += run;
        s += 1;
    }
    let mut queues: Vec<std::collections::VecDeque<usize>> =
        shards.into_iter().map(Into::into).collect();
    let mut os = order_seed;
    let mut computed: Vec<usize> = Vec::new();
    let mut avail: Vec<Option<FaultStatus>> = vec![None; fx.truth.len()];
    while queues.iter().any(|q| !q.is_empty()) {
        let live: Vec<usize> = (0..queues.len())
            .filter(|&q| !queues[q].is_empty())
            .collect();
        let q = live[(lcg(&mut os) as usize) % live.len()];
        let ci = queues[q].pop_front().expect("non-empty");
        let status = fx.truth[ci]
            .clone()
            .expect("open class has a truth verdict");
        if let FaultStatus::Detected { sequence } = &status {
            // Broadcast: drop every still-pending later class the test
            // screens — exactly the coordinator's (and the engine
            // worker's) rule.  Dropped classes are never computed.
            for queue in queues.iter_mut() {
                queue.retain(|&cb| {
                    cb <= ci
                        || fault_simulate(
                            &fx.ckt,
                            &fx.cssg,
                            sequence,
                            std::slice::from_ref(&fx.reps[cb]),
                        )
                        .is_empty()
                });
            }
        }
        avail[ci] = Some(status);
        computed.push(ci);
    }
    // Adversarial loss: any subset of delivered verdicts may vanish.
    let mut ls = loss_seed;
    for ci in computed {
        if lcg(&mut ls).is_multiple_of(3) {
            avail[ci] = None;
        }
    }
    avail
}

/// The fixture's campaign, finished on the verdicts in `avail`.
fn merge(fx: &Fixture, mut avail: Vec<Option<FaultStatus>>) -> Finished {
    Campaign::prepare(&fx.ckt, &fx.cssg, &fx.faults, &fx.cfg)
        .finish(0, 0, &mut |ci| avail[ci].take())
}

fn check(fx: &Fixture, partition_seed: u64, order_seed: u64, loss_seed: u64) {
    let merged = merge(fx, simulate(fx, partition_seed, order_seed, loss_seed));
    assert_eq!(
        fx.serial,
        merged.report.to_json_value(false).render(),
        "partition {partition_seed} / order {order_seed} / loss {loss_seed}: \
         the merged report must be byte-identical to serial"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn c_element_merge_is_partition_invariant(
        partition_seed in any::<u64>(),
        order_seed in any::<u64>(),
        loss_seed in any::<u64>(),
    ) {
        check(c_element(), partition_seed, order_seed, loss_seed);
    }

    #[test]
    fn muller_merge_is_partition_invariant(
        partition_seed in any::<u64>(),
        order_seed in any::<u64>(),
        loss_seed in any::<u64>(),
    ) {
        check(muller3(), partition_seed, order_seed, loss_seed);
    }
}

/// Degenerate corners the seeds may miss: everything lost (the fleet
/// delivered nothing) and nothing lost (a perfect fleet).
#[test]
fn all_lost_and_none_lost_both_merge_to_serial() {
    for fx in [c_element(), muller3()] {
        // Nothing delivered: the merge recomputes every class.
        let merged = merge(fx, vec![None; fx.truth.len()]);
        assert_eq!(fx.serial, merged.report.to_json_value(false).render());
        // Not every open class is searched — the replay's own
        // screening drops some before the oracle is consulted — but the
        // first queried class always misses.
        assert!(
            fx.open.is_empty() || merged.searched >= 1,
            "with nothing delivered the merge must recompute something"
        );
        // Everything delivered: the merge recomputes nothing.
        let merged = merge(fx, fx.truth.clone());
        assert_eq!(fx.serial, merged.report.to_json_value(false).render());
        assert_eq!(
            merged.searched, 0,
            "a complete verdict map needs no fallbacks"
        );
    }
}
