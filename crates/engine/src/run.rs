//! The engine driver: shard → search in parallel → deterministic merge.

use crate::audit::WalkAuditor;
use crate::shard::{Popped, ShardedQueues};
use satpg_core::json::Json;
use satpg_core::stages::{random_stage, targeted_stage, FaultPlan, StageState};
use satpg_core::{
    build_cssg_sharded, faults_for, three_phase, three_phase_traced, AtpgConfig, AtpgReport,
    CoreError, Cssg, Fault, FaultStatus, TestSequence,
};
use satpg_netlist::Circuit;
use std::sync::{OnceLock, RwLock};
use std::time::Instant;

/// Incremental engine telemetry, emitted through an [`EngineSink`] as a
/// campaign advances.  Events from the parallel stage ([`TestFound`],
/// [`WorkerDone`]) arrive in completion order, which varies run to run;
/// the stage-transition events are totally ordered.
///
/// [`TestFound`]: EngineEvent::TestFound
/// [`WorkerDone`]: EngineEvent::WorkerDone
#[derive(Clone, Debug)]
pub enum EngineEvent {
    /// The CSSG abstraction is available (built or supplied by a cache).
    CssgReady {
        /// Stable states.
        states: usize,
        /// Valid (state, pattern) edges.
        edges: usize,
        /// (state, pattern) pairs dropped at a resource limit.
        truncated: usize,
        /// State expansions the settling analyses performed.
        settle_states: u64,
        /// Successor branches the partial-order reduction pruned
        /// (0 with POR off — the explored-vs-saved ledger).
        por_pruned: u64,
        /// Construction threads used (1 for a serial build; also 1 on a
        /// cache hit, where nothing was built).
        shards: usize,
        /// Microseconds spent constructing (0 on a cache hit).
        us: u128,
    },
    /// The random-TPG stage finished.
    RandomDone {
        /// Fault classes it resolved.
        resolved: usize,
        /// Bit-parallel fixpoint passes it ran.
        passes: usize,
        /// Pattern evaluations across those passes (`patterns / passes`
        /// is the lane throughput: 1 fault-per-lane, 64 pattern-per-bit).
        patterns: u64,
        /// Microseconds spent.
        us: u128,
    },
    /// The parallel three-phase stage is starting.
    ParallelStarted {
        /// Worker threads spawned.
        workers: usize,
        /// Open classes they will target.
        pending: usize,
    },
    /// A worker discovered a test (before broadcast).
    TestFound {
        /// The discovering worker.
        worker: usize,
        /// The targeted class index.
        class: usize,
        /// Test length in cycles.
        cycles: usize,
    },
    /// A worker drained its queue and exited.
    WorkerDone {
        /// Its final telemetry (BDD nodes, GC sweeps/reclaimed/peak, …).
        stats: WorkerStats,
    },
    /// The deterministic merge finished; the report follows.
    MergeDone {
        /// Classes re-searched serially.
        fallbacks: usize,
        /// Microseconds spent merging.
        us: u128,
    },
}

/// A consumer of [`EngineEvent`]s.  Implementations must be `Sync`:
/// workers emit from the scoped threads of the parallel stage.
pub trait EngineSink: Sync {
    /// Receives one event.  Called synchronously on the emitting thread;
    /// implementations should hand off quickly (e.g. into a channel).
    fn event(&self, ev: EngineEvent);
}

/// The do-nothing sink behind the non-streaming entry points.
pub struct NullSink;

impl EngineSink for NullSink {
    fn event(&self, _ev: EngineEvent) {}
}

/// Configuration of a fault-parallel campaign.
#[derive(Clone, Debug)]
pub struct EngineConfig {
    /// The underlying flow configuration (shared with the serial driver,
    /// so reports are comparable).
    pub atpg: AtpgConfig,
    /// Number of workers.  `0` means one per available CPU.
    pub workers: usize,
    /// Broadcast discovered tests so other workers can drop covered
    /// pending faults early.
    pub broadcast: bool,
    /// Symbolically audit every discovered test on the worker's private
    /// BDD manager.
    pub symbolic_audit: bool,
    /// Per-worker BDD GC policy: with `Some(t)`, each worker's private
    /// manager sweeps unrooted nodes whenever more than `t` are live
    /// (the `--gc-threshold` CLI flag).  `None` keeps nodes immortal.
    pub gc_threshold: Option<usize>,
    /// Threads for the CSSG construction phase
    /// ([`satpg_core::build_cssg_sharded`]).  `0` matches the campaign's
    /// worker count, so a parallel job also builds its abstraction in
    /// parallel; any value yields a CSSG structurally identical to the
    /// serial build (the `--cssg-shards` CLI flag).
    pub cssg_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        EngineConfig {
            atpg: AtpgConfig::default(),
            workers: 0,
            broadcast: true,
            symbolic_audit: true,
            gc_threshold: None,
            cssg_shards: 0,
        }
    }
}

impl EngineConfig {
    /// The paper-table flow configuration under the parallel driver.
    pub fn paper() -> Self {
        EngineConfig {
            atpg: AtpgConfig::paper(),
            ..EngineConfig::default()
        }
    }

    fn effective_workers(&self, pending: usize) -> usize {
        self.requested_workers().clamp(1, pending.max(1))
    }

    /// The worker count before clamping to the pending-class count: the
    /// configured value, or one per available CPU for `0`.
    pub fn requested_workers(&self) -> usize {
        if self.workers == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.workers
        }
    }

    /// Threads the CSSG build phase uses: `cssg_shards`, defaulting to
    /// the campaign's worker count when 0.
    pub fn build_shards(&self) -> usize {
        if self.cssg_shards == 0 {
            self.requested_workers()
        } else {
            self.cssg_shards
        }
    }
}

/// Telemetry of one worker.
#[derive(Clone, Debug, Default)]
pub struct WorkerStats {
    /// Worker index.
    pub worker: usize,
    /// Classes whose three-phase search this worker ran.
    pub searched: usize,
    /// How many of those were stolen from other workers' deques.
    pub stolen: usize,
    /// Tests this worker discovered (and broadcast).
    pub tests_found: usize,
    /// Pending classes dropped after fault-simulating broadcast tests.
    pub broadcast_drops: usize,
    /// Discovered tests that failed the symbolic audit (always 0 unless
    /// the explicit search and the BDD relation disagree — a bug).
    pub audit_failures: usize,
    /// Live BDD nodes in the worker's private manager at exit.
    pub bdd_nodes: usize,
    /// Operation-cache entries in the private manager at exit.
    pub bdd_cache: usize,
    /// Times the bounded-cache heuristic cleared the cache.
    pub bdd_cache_clears: usize,
    /// GC sweeps the private manager ran (0 with GC disabled).
    pub bdd_gc_runs: usize,
    /// BDD nodes the private manager reclaimed across all sweeps.
    pub bdd_reclaimed: usize,
    /// High-water mark of the private manager's unique table.
    pub bdd_peak_unique: usize,
    /// State expansions this worker's settling analyses performed across
    /// its three-phase searches.
    pub settle_states: u64,
    /// Successor branches the partial-order reduction pruned in those
    /// analyses (0 with POR off).
    pub settle_por_pruned: u64,
    /// Settling analyses that fell back to the naive walk (the reduced
    /// walk did not settle within `k`).
    pub settle_fallbacks: u64,
    /// Wall-clock microseconds the worker was busy.
    pub us_busy: u128,
}

impl WorkerStats {
    /// The machine-readable form (used by `--json` output and the
    /// service telemetry stream).  `us_busy` is wall clock, so it is
    /// only present when `include_timing` asks for it — the timing-free
    /// form must be byte-identical across runs.
    pub fn to_json_value(&self, include_timing: bool) -> Json {
        let mut fields = vec![
            ("worker".to_string(), Json::int(self.worker)),
            ("searched".to_string(), Json::int(self.searched)),
            ("stolen".to_string(), Json::int(self.stolen)),
            ("tests_found".to_string(), Json::int(self.tests_found)),
            (
                "broadcast_drops".to_string(),
                Json::int(self.broadcast_drops),
            ),
            ("audit_failures".to_string(), Json::int(self.audit_failures)),
            ("bdd_nodes".to_string(), Json::int(self.bdd_nodes)),
            ("bdd_cache".to_string(), Json::int(self.bdd_cache)),
            (
                "bdd_cache_clears".to_string(),
                Json::int(self.bdd_cache_clears),
            ),
            ("bdd_gc_runs".to_string(), Json::int(self.bdd_gc_runs)),
            ("bdd_reclaimed".to_string(), Json::int(self.bdd_reclaimed)),
            (
                "bdd_peak_unique".to_string(),
                Json::int(self.bdd_peak_unique),
            ),
            ("settle_states".to_string(), Json::int(self.settle_states)),
            (
                "settle_por_pruned".to_string(),
                Json::int(self.settle_por_pruned),
            ),
            (
                "settle_fallbacks".to_string(),
                Json::int(self.settle_fallbacks),
            ),
        ];
        if include_timing {
            fields.push(("us_busy".to_string(), Json::int(self.us_busy)));
        }
        Json::Obj(fields)
    }
}

/// The campaign result: a serial-identical report plus parallel telemetry.
#[derive(Clone, Debug)]
pub struct EngineReport {
    /// Fault records and tests, byte-for-byte identical to the serial
    /// [`satpg_core::run_atpg`] report for the same `AtpgConfig`
    /// (timing fields excepted — they measure this run).
    pub report: AtpgReport,
    /// Per-worker telemetry, indexed by worker.
    pub workers: Vec<WorkerStats>,
    /// Classes resolved during the parallel phase.
    pub parallel_verdicts: usize,
    /// Classes the merge had to re-search serially because a broadcast
    /// drop skipped them (bounded by the drops; usually far smaller).
    pub merge_fallbacks: usize,
    /// Wall-clock microseconds of the parallel phase.
    pub us_parallel: u128,
    /// Wall-clock microseconds of the deterministic merge.
    pub us_merge: u128,
}

impl EngineReport {
    /// The machine-readable form: the serializable report plus the
    /// parallel-driver telemetry under `"engine"`.
    pub fn to_json_value(&self, include_timing: bool) -> Json {
        let mut engine = vec![
            (
                "workers".to_string(),
                Json::Arr(
                    self.workers
                        .iter()
                        .map(|w| w.to_json_value(include_timing))
                        .collect(),
                ),
            ),
            (
                "parallel_verdicts".to_string(),
                Json::int(self.parallel_verdicts),
            ),
            (
                "merge_fallbacks".to_string(),
                Json::int(self.merge_fallbacks),
            ),
        ];
        if include_timing {
            engine.push(("us_parallel".to_string(), Json::int(self.us_parallel)));
            engine.push(("us_merge".to_string(), Json::int(self.us_merge)));
        }
        Json::Obj(vec![
            (
                "report".to_string(),
                self.report.to_json_value(include_timing),
            ),
            ("engine".to_string(), Json::Obj(engine)),
        ])
    }
}

/// A campaign paused at the targeted-stage boundary: the fault plan plus
/// the stage state left by random TPG.  This is the unit a distributed
/// coordinator exports — [`StageState::open_classes`] is the work to
/// partition across peers, and feeding the collected verdicts back
/// through [`merge_partial`] reproduces the serial report.
pub struct Campaign {
    /// The collapsed fault plan (class order is the serial order).
    pub plan: FaultPlan,
    /// Stage state after random TPG: open classes still need a verdict.
    pub state: StageState,
    /// Microseconds the random stage took.
    pub us_random: u128,
}

/// Builds the fault plan and runs the (serial, deterministic) random
/// stage — everything that precedes the parallelizable targeted search.
pub fn prepare_campaign(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    cfg: &AtpgConfig,
) -> Campaign {
    let plan = FaultPlan::new(ckt, faults, cfg.collapse);
    let mut state = StageState::new(plan.len());
    let t = Instant::now();
    if let Some(rnd_cfg) = &cfg.random {
        let _span = satpg_trace::span!("stage.random", classes = plan.len());
        random_stage(ckt, cssg, &plan, rnd_cfg, &mut state);
    }
    Campaign {
        plan,
        state,
        us_random: t.elapsed().as_micros(),
    }
}

/// Outcome of [`merge_partial`]: the serial-identical report and how many
/// classes had to be re-searched locally.
pub struct PartialMerge {
    /// The assembled report, byte-identical (timing aside) to serial
    /// [`satpg_core::run_atpg`] for the same configuration.
    pub report: AtpgReport,
    /// Classes whose verdict was missing and recomputed on the spot.
    pub fallbacks: usize,
    /// Microseconds the merge replay took.
    pub us_merge: u128,
}

/// The deterministic merge as a standalone entry point: replays the exact
/// serial control flow over *all* classes, consuming a precomputed
/// verdict wherever `verdict(ci)` supplies one and recomputing the
/// three-phase search locally where it does not.
///
/// Because a class verdict is a pure function of
/// `(circuit, cssg, fault, config)`, the report does not depend on which
/// classes arrive precomputed: lost, late or never-dispatched verdicts
/// only move work into `fallbacks`, never change a record.  This is what
/// makes peer loss invisible to a fleet campaign's report.
///
/// `us_distributed` is the wall-clock of whatever parallel/remote phase
/// produced the verdicts; it is folded into the report's three-phase
/// timing alongside the merge's own time.
#[allow(clippy::too_many_arguments)]
pub fn merge_partial(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    cfg: &AtpgConfig,
    plan: &FaultPlan,
    mut state: StageState,
    us_cssg: u128,
    us_random: u128,
    us_distributed: u128,
    verdict: &mut dyn FnMut(usize) -> Option<FaultStatus>,
) -> PartialMerge {
    let t = Instant::now();
    let merge_span = satpg_trace::span!("stage.merge", classes = plan.len());
    let mut fallbacks = 0usize;
    let queue: Vec<usize> = (0..plan.len()).collect();
    targeted_stage(
        ckt,
        cssg,
        plan,
        cfg.fault_sim,
        &queue,
        &mut state,
        &mut |ci, f| match verdict(ci) {
            Some(v) => v,
            None => {
                fallbacks += 1;
                three_phase(ckt, cssg, f, &cfg.three_phase)
            }
        },
    );
    drop(merge_span);
    let us_merge = t.elapsed().as_micros();
    let report = satpg_core::stages::assemble_report(
        ckt,
        cssg,
        faults,
        plan,
        state,
        satpg_core::stages::StageTimings {
            us_cssg,
            us_random,
            us_three_phase: us_distributed + us_merge,
        },
    );
    PartialMerge {
        report,
        fallbacks,
        us_merge,
    }
}

/// Runs the fault-parallel campaign on `ckt`.
///
/// # Errors
///
/// Same conditions as [`satpg_core::run_atpg`]: CSSG construction
/// failures or an abstraction with no valid vectors.
pub fn run_engine(ckt: &Circuit, cfg: &EngineConfig) -> Result<EngineReport, CoreError> {
    run_engine_streaming(ckt, cfg, &NullSink)
}

/// [`run_engine`] with incremental telemetry delivered to `sink`.
///
/// # Errors
///
/// Same conditions as [`run_engine`].
pub fn run_engine_streaming(
    ckt: &Circuit,
    cfg: &EngineConfig,
    sink: &dyn EngineSink,
) -> Result<EngineReport, CoreError> {
    let shards = cfg.build_shards();
    let _span = satpg_trace::span!(
        "engine.run",
        circuit = ckt.name(),
        workers = cfg.requested_workers()
    );
    let t0 = Instant::now();
    let cssg = build_cssg_sharded(ckt, &cfg.atpg.cssg, shards)?;
    let us_cssg = t0.elapsed().as_micros();
    if cssg.num_edges() == 0 {
        return Err(CoreError::NoValidVectors);
    }
    let faults = faults_for(ckt, cfg.atpg.fault_model);
    Ok(run_engine_built(
        ckt, &cssg, &faults, cfg, us_cssg, shards, sink,
    ))
}

/// Runs the campaign against an explicit fault list and prebuilt CSSG
/// (the injectable-queue entry point).
pub fn run_engine_on(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    cfg: &EngineConfig,
    us_cssg: u128,
) -> EngineReport {
    run_engine_on_streaming(ckt, cssg, faults, cfg, us_cssg, &NullSink)
}

/// [`run_engine_on`] with incremental telemetry delivered to `sink`.
/// `us_cssg` is the construction time to attribute to the abstraction
/// (pass 0 when it came from a cache).
pub fn run_engine_on_streaming(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    cfg: &EngineConfig,
    us_cssg: u128,
    sink: &dyn EngineSink,
) -> EngineReport {
    run_engine_built(ckt, cssg, faults, cfg, us_cssg, 1, sink)
}

/// The campaign body: `cssg_shards` records how many threads built the
/// supplied abstraction (1 when prebuilt or cache-served) for the
/// [`EngineEvent::CssgReady`] telemetry.
fn run_engine_built(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    cfg: &EngineConfig,
    us_cssg: u128,
    cssg_shards: usize,
    sink: &dyn EngineSink,
) -> EngineReport {
    sink.event(EngineEvent::CssgReady {
        states: cssg.num_states(),
        edges: cssg.num_edges(),
        truncated: cssg.pruned_truncated(),
        settle_states: cssg.settle_stats().states_explored,
        por_pruned: cssg.settle_stats().por_pruned,
        shards: cssg_shards,
        us: us_cssg,
    });
    // --- Stage 1: random TPG (serial; it is cheap, deterministic and
    // sets the shared baseline both drivers start the targeted loop from).
    let Campaign {
        plan,
        state,
        us_random,
    } = prepare_campaign(ckt, cssg, faults, &cfg.atpg);

    // --- Stage 2 (parallel): precompute three-phase verdicts. ---
    let pending = state.open_classes();
    sink.event(EngineEvent::RandomDone {
        resolved: plan.len() - pending.len(),
        passes: state.random.passes,
        patterns: state.random.patterns_evaluated,
        us: us_random,
    });
    let workers = cfg.effective_workers(pending.len());
    let queues = ShardedQueues::new(workers, &pending);
    let outcomes: Vec<OnceLock<FaultStatus>> = (0..plan.len()).map(|_| OnceLock::new()).collect();
    let broadcasts: RwLock<Vec<(usize, TestSequence)>> = RwLock::new(Vec::new());

    let t2 = Instant::now();
    let parallel_span =
        satpg_trace::span!("stage.parallel", workers = workers, pending = pending.len());
    // Workers parent their spans under the stage span explicitly; each
    // records into its own thread-local buffer, so tracing adds no
    // cross-worker synchronization to the stealing schedule.
    let parallel_span_id = parallel_span.id();
    let worker_stats: Vec<WorkerStats> = if pending.is_empty() {
        Vec::new()
    } else {
        sink.event(EngineEvent::ParallelStarted {
            workers,
            pending: pending.len(),
        });
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|w| {
                    let queues = &queues;
                    let outcomes = &outcomes;
                    let broadcasts = &broadcasts;
                    let plan = &plan;
                    scope.spawn(move || {
                        let stats = worker_loop(
                            ckt,
                            cssg,
                            plan,
                            cfg,
                            w,
                            queues,
                            outcomes,
                            broadcasts,
                            sink,
                            parallel_span_id,
                        );
                        sink.event(EngineEvent::WorkerDone {
                            stats: stats.clone(),
                        });
                        stats
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("worker panicked"))
                .collect()
        })
    };
    drop(parallel_span);
    let us_parallel = t2.elapsed().as_micros();
    let parallel_verdicts = outcomes.iter().filter(|o| o.get().is_some()).count();

    // --- Stage 3: deterministic merge.  Replay the exact serial control
    // flow, consuming precomputed verdicts; a class skipped by a
    // broadcast drop but reached open here is recomputed on the spot.
    let merged = merge_partial(
        ckt,
        cssg,
        faults,
        &cfg.atpg,
        &plan,
        state,
        us_cssg,
        us_random,
        us_parallel,
        &mut |ci| outcomes[ci].get().cloned(),
    );
    sink.event(EngineEvent::MergeDone {
        fallbacks: merged.fallbacks,
        us: merged.us_merge,
    });
    flush_engine_metrics(
        &worker_stats,
        us_cssg,
        us_random,
        us_parallel,
        merged.us_merge,
    );

    EngineReport {
        report: merged.report,
        workers: worker_stats,
        parallel_verdicts,
        merge_fallbacks: merged.fallbacks,
        us_parallel,
        us_merge: merged.us_merge,
    }
}

/// Feeds one campaign's telemetry into the process metrics registry
/// (`engine.*` counters/gauges, `stage.*.us` histograms).  Called once
/// per run, after the merge — never from worker threads.
fn flush_engine_metrics(
    workers: &[WorkerStats],
    us_cssg: u128,
    us_random: u128,
    us_parallel: u128,
    us_merge: u128,
) {
    let m = satpg_trace::metrics();
    m.counter("engine.runs").inc();
    for w in workers {
        m.counter("engine.searched").add(w.searched as u64);
        m.counter("engine.stolen").add(w.stolen as u64);
        m.counter("engine.tests_found").add(w.tests_found as u64);
        m.counter("engine.broadcast_drops")
            .add(w.broadcast_drops as u64);
        m.counter("engine.audit_failures")
            .add(w.audit_failures as u64);
        m.counter("engine.bdd_gc_runs").add(w.bdd_gc_runs as u64);
        m.counter("engine.bdd_reclaimed")
            .add(w.bdd_reclaimed as u64);
        m.counter("engine.settle_states").add(w.settle_states);
        m.counter("engine.settle_por_pruned")
            .add(w.settle_por_pruned);
        m.counter("engine.settle_fallbacks").add(w.settle_fallbacks);
        m.gauge("engine.bdd_peak_unique")
            .max(w.bdd_peak_unique.min(i64::MAX as usize) as i64);
        m.histogram("engine.worker.busy_us")
            .record(w.us_busy.min(u64::MAX as u128) as u64);
    }
    m.histogram("stage.cssg.us")
        .record(us_cssg.min(u64::MAX as u128) as u64);
    m.histogram("stage.random.us")
        .record(us_random.min(u64::MAX as u128) as u64);
    m.histogram("stage.parallel.us")
        .record(us_parallel.min(u64::MAX as u128) as u64);
    m.histogram("stage.merge.us")
        .record(us_merge.min(u64::MAX as u128) as u64);
}

#[allow(clippy::too_many_arguments)]
fn worker_loop(
    ckt: &Circuit,
    cssg: &Cssg,
    plan: &FaultPlan,
    cfg: &EngineConfig,
    w: usize,
    queues: &ShardedQueues,
    outcomes: &[OnceLock<FaultStatus>],
    broadcasts: &RwLock<Vec<(usize, TestSequence)>>,
    sink: &dyn EngineSink,
    parent_span: u64,
) -> WorkerStats {
    let t0 = Instant::now();
    // The worker's span parents under the parallel stage explicitly
    // (the stage span lives on the spawning thread's stack, not ours).
    let _span = satpg_trace::Span::enter_with_parent(
        "worker",
        parent_span,
        vec![("worker", satpg_trace::ArgValue::from(w))],
    );
    let mut stats = WorkerStats {
        worker: w,
        ..WorkerStats::default()
    };
    let mut auditor = cfg
        .symbolic_audit
        .then(|| WalkAuditor::with_gc(cssg, cfg.gc_threshold));
    let mut seen_broadcasts = 0usize;
    // Broadcasting only pays off when the merge can harvest the skipped
    // classes as fault-sim credits; with fault_sim off every drop would
    // serialize a recomputation instead.
    let broadcast = cfg.broadcast && cfg.atpg.fault_sim;

    while let Some(popped) = queues.pop(w) {
        // Screen the backlog against tests found elsewhere since the
        // last check.  Only classes *after* the broadcaster in serial
        // order are dropped: those are the ones the serial flow would
        // also have resolved by fault simulation, so the merge will not
        // need to re-search them.
        if broadcast {
            let log = broadcasts.read().expect("broadcast lock");
            let fresh: Vec<(usize, TestSequence)> = log[seen_broadcasts..].to_vec();
            seen_broadcasts = log.len();
            drop(log);
            for (ca, test) in fresh {
                stats.broadcast_drops += queues.drop_pending(w, |backlog| {
                    let candidates: Vec<usize> =
                        backlog.iter().copied().filter(|&cb| cb > ca).collect();
                    let cand_faults: Vec<Fault> = candidates
                        .iter()
                        .map(|&cb| plan.classes()[cb].representative)
                        .collect();
                    satpg_core::fault_simulate(ckt, cssg, &test, &cand_faults)
                        .into_iter()
                        .map(|hit| candidates[hit])
                        .collect()
                });
            }
        }

        let ci = popped.item();
        if matches!(popped, Popped::Stolen { .. }) {
            stats.stolen += 1;
        }
        let fault = plan.classes()[ci].representative;
        let (verdict, settle) = three_phase_traced(ckt, cssg, &fault, &cfg.atpg.three_phase);
        stats.settle_states += settle.states_explored;
        stats.settle_por_pruned += settle.por_pruned;
        stats.settle_fallbacks += settle.fallbacks;
        stats.searched += 1;
        if let FaultStatus::Detected { sequence } = &verdict {
            stats.tests_found += 1;
            sink.event(EngineEvent::TestFound {
                worker: w,
                class: ci,
                cycles: sequence.len(),
            });
            if let Some(aud) = auditor.as_mut() {
                if !aud.check(sequence) {
                    stats.audit_failures += 1;
                }
            }
            if broadcast {
                broadcasts
                    .write()
                    .expect("broadcast lock")
                    .push((ci, sequence.clone()));
            }
        }
        // First write wins; each class is processed at most once anyway.
        let _ = outcomes[ci].set(verdict);
    }

    if let Some(aud) = auditor {
        stats.bdd_nodes = aud.num_nodes();
        stats.bdd_cache = aud.cache_len();
        stats.bdd_cache_clears = aud.cache_clears;
        stats.bdd_gc_runs = aud.gc_runs();
        stats.bdd_reclaimed = aud.reclaimed_nodes();
        stats.bdd_peak_unique = aud.peak_unique();
    }
    stats.us_busy = t0.elapsed().as_micros();
    stats
}

/// Convenience: checks whether an engine report is verdict-identical to a
/// serial report (everything except wall-clock fields).
pub fn reports_identical(a: &AtpgReport, b: &AtpgReport) -> bool {
    a.circuit == b.circuit
        && a.cssg_states == b.cssg_states
        && a.cssg_edges == b.cssg_edges
        && a.cssg_patterns_skipped == b.cssg_patterns_skipped
        && a.random_passes == b.random_passes
        && a.random_patterns == b.random_patterns
        && a.records == b.records
        && a.tests == b.tests
}

#[cfg(test)]
mod tests {
    use super::*;
    use satpg_core::{run_atpg, FaultModel};
    use satpg_netlist::library;

    #[test]
    fn identical_to_serial_on_library_circuits() {
        for ckt in library::all() {
            let serial = run_atpg(&ckt, &AtpgConfig::paper());
            for workers in 1..=4 {
                let cfg = EngineConfig {
                    workers,
                    ..EngineConfig::paper()
                };
                let parallel = run_engine(&ckt, &cfg);
                match (&serial, &parallel) {
                    (Ok(s), Ok(p)) => {
                        assert!(
                            reports_identical(&p.report, s),
                            "{} with {workers} workers",
                            ckt.name()
                        );
                        assert_eq!(p.workers.iter().map(|w| w.audit_failures).sum::<usize>(), 0);
                    }
                    (Err(_), Err(_)) => {} // e.g. figure1b has no valid vectors
                    (s, p) => panic!("{}: serial {s:?} vs parallel {p:?}", ckt.name()),
                }
            }
        }
    }

    #[test]
    fn broadcast_off_still_identical() {
        let ckt = library::muller_pipeline2();
        let serial = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        let cfg = EngineConfig {
            workers: 3,
            broadcast: false,
            symbolic_audit: false,
            ..EngineConfig::paper()
        };
        let out = run_engine(&ckt, &cfg).unwrap();
        assert!(reports_identical(&out.report, &serial));
        assert_eq!(out.merge_fallbacks, 0, "no drops, no fallbacks");
    }

    #[test]
    fn worker_telemetry_accounts_for_all_searches() {
        let ckt = library::muller_pipeline2();
        let cfg = EngineConfig {
            workers: 2,
            broadcast: false,
            ..EngineConfig::paper()
        };
        let out = run_engine(&ckt, &cfg).unwrap();
        let searched: usize = out.workers.iter().map(|w| w.searched).sum();
        assert_eq!(searched, out.parallel_verdicts);
        for w in &out.workers {
            assert!(w.bdd_nodes >= 2, "auditor built a relation");
        }
    }

    #[test]
    fn gc_pressure_keeps_reports_identical() {
        // Disable random TPG so every class reaches the workers, then
        // squeeze the per-worker managers with a tiny GC threshold: the
        // report must not move, and the sweeps must actually reclaim.
        let ckt = library::muller_pipeline2();
        let atpg = AtpgConfig {
            random: None,
            ..AtpgConfig::paper()
        };
        let serial = run_atpg(&ckt, &atpg).unwrap();
        for workers in [1, 3] {
            let out = run_engine(
                &ckt,
                &EngineConfig {
                    atpg: atpg.clone(),
                    workers,
                    gc_threshold: Some(16),
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            assert!(reports_identical(&out.report, &serial), "{workers} workers");
            assert_eq!(
                out.workers.iter().map(|w| w.audit_failures).sum::<usize>(),
                0
            );
            let gc_runs: usize = out.workers.iter().map(|w| w.bdd_gc_runs).sum();
            let reclaimed: usize = out.workers.iter().map(|w| w.bdd_reclaimed).sum();
            assert!(gc_runs > 0, "tiny threshold must sweep");
            assert!(reclaimed > 0, "sweeps must reclaim nodes");
        }
    }

    #[test]
    fn sink_sees_stages_workers_and_tests() {
        use std::sync::Mutex;
        struct Collect(Mutex<Vec<EngineEvent>>);
        impl EngineSink for Collect {
            fn event(&self, ev: EngineEvent) {
                self.0.lock().unwrap().push(ev);
            }
        }
        let ckt = library::muller_pipeline2();
        let cfg = EngineConfig {
            workers: 2,
            ..EngineConfig::paper()
        };
        let sink = Collect(Mutex::new(Vec::new()));
        let out = run_engine_streaming(&ckt, &cfg, &sink).unwrap();
        let events = sink.0.into_inner().unwrap();

        // Stage transitions appear exactly once, in order.
        let stage_order: Vec<&str> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::CssgReady { .. } => Some("cssg"),
                EngineEvent::RandomDone { .. } => Some("random"),
                EngineEvent::ParallelStarted { .. } => Some("parallel"),
                EngineEvent::MergeDone { .. } => Some("merge"),
                _ => None,
            })
            .collect();
        assert_eq!(stage_order, ["cssg", "random", "parallel", "merge"]);
        match events.first() {
            Some(EngineEvent::CssgReady {
                states,
                edges,
                shards,
                ..
            }) => {
                assert_eq!(*states, out.report.cssg_states);
                assert_eq!(*edges, out.report.cssg_edges);
                // cssg_shards defaults to the worker count.
                assert_eq!(*shards, 2, "build fan-out follows the workers");
            }
            other => panic!("expected CssgReady first, got {other:?}"),
        }
        // Every worker reports once; per-worker stats match the report.
        let done: Vec<&WorkerStats> = events
            .iter()
            .filter_map(|e| match e {
                EngineEvent::WorkerDone { stats } => Some(stats),
                _ => None,
            })
            .collect();
        assert_eq!(done.len(), out.workers.len());
        let found: usize = events
            .iter()
            .filter(|e| matches!(e, EngineEvent::TestFound { .. }))
            .count();
        assert_eq!(
            found,
            out.workers.iter().map(|w| w.tests_found).sum::<usize>()
        );
        // Streaming must not perturb the verdicts.
        let serial = run_atpg(&ckt, &cfg.atpg).unwrap();
        assert!(reports_identical(&out.report, &serial));
    }

    #[test]
    fn cssg_shards_override_is_report_invisible() {
        let ckt = library::muller_pipeline2();
        let serial = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        for cssg_shards in [1, 3] {
            let out = run_engine(
                &ckt,
                &EngineConfig {
                    workers: 2,
                    cssg_shards,
                    ..EngineConfig::paper()
                },
            )
            .unwrap();
            assert!(
                reports_identical(&out.report, &serial),
                "{cssg_shards} build shards"
            );
        }
    }

    #[test]
    fn collapse_and_output_model_pass_through() {
        let ckt = library::c_element();
        for (collapse, model) in [
            (true, FaultModel::InputStuckAt),
            (false, FaultModel::OutputStuckAt),
        ] {
            let atpg = AtpgConfig {
                collapse,
                fault_model: model,
                ..AtpgConfig::paper()
            };
            let serial = run_atpg(&ckt, &atpg).unwrap();
            let out = run_engine(
                &ckt,
                &EngineConfig {
                    atpg,
                    workers: 2,
                    ..EngineConfig::default()
                },
            )
            .unwrap();
            assert!(reports_identical(&out.report, &serial));
        }
    }
}
