//! The engine driver: shard → search in parallel → deterministic merge.

use crate::audit::WalkAuditor;
use crate::shard::{Popped, ShardedQueues};
use satpg_core::json::Json;
use satpg_core::stages::{Campaign, FaultPlan};
use satpg_core::{
    build_cssg_sharded, faults_for, three_phase_traced, AtpgConfig, AtpgReport, CoreError, Cssg,
    Fault, FaultStatus, TestSequence,
};
use satpg_netlist::Circuit;
use std::collections::HashMap;
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
        /// Threads the construction ran on ([`Cssg::build_threads`]).
        threads: usize,
        /// Microseconds spent constructing (0 on a cache hit).
        us: u128,
    },
    /// The random-TPG stage finished.
    RandomDone {
        /// Fault classes it resolved.
        resolved: usize,
        /// Bit-parallel fixpoint passes it ran.
        passes: usize,
        /// Pattern evaluations across those passes (one per pass).
        patterns: u64,
        /// Microseconds spent.
        us: u128,
    },
    /// The parallel three-phase stage is starting.
    ParallelStarted {
        /// Workers searching: the calling thread (worker 0) and one
        /// spawned thread for each of the rest.
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
        /// Its final telemetry (searches, steals, audit BDD peak, …).
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
/// worker 0 emits from the calling thread, the other workers from the
/// scoped threads of the parallel stage.
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
#[derive(Clone, Debug, Default)]
pub struct EngineConfig {
    /// The underlying flow configuration (shared with the serial driver,
    /// so reports are comparable).  Workers screen their backlogs
    /// against each other's tests exactly when its `fault_sim` is on.
    pub atpg: AtpgConfig,
    /// Number of workers.  `0` means one per available CPU.
    pub workers: usize,
    /// Symbolically audit every discovered test on the worker's private
    /// BDD manager ([`crate::audit`]; the `--audit` CLI flag).  Off by
    /// default: the audit never changes a verdict.
    pub symbolic_audit: bool,
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
    /// configured value, or one per available CPU for `0`.  The CPU
    /// count is read once per process: the read goes to the cgroup
    /// files each time, and campaigns and daemon jobs ask for it twice.
    pub fn requested_workers(&self) -> usize {
        static CPUS: OnceLock<usize> = OnceLock::new();
        if self.workers == 0 {
            *CPUS.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
        } else {
            self.workers
        }
    }

    /// The most threads the CSSG build may use
    /// ([`satpg_core::build_cssg_sharded`]): the campaign's worker
    /// count.  A build that does little settling work stays on one
    /// thread; past the build loop's threshold helpers fill the budget.
    /// Any count yields a CSSG bit-identical to the serial build.
    pub fn build_shards(&self) -> usize {
        self.requested_workers()
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
    /// Operation-cache entries in the audit's private manager at exit
    /// (0 with the audit off).
    pub bdd_cache: usize,
    /// Decision nodes the audit's private manager made.  Nodes are never
    /// freed, so this is its high-water mark (0 with the audit off).
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
    /// Walks cut at a verified frontier repeat (metrics only: not in
    /// [`WorkerStats::to_json_value`]).
    pub settle_cycle_cuts: u64,
    /// Expansions those cuts credited without running them (metrics
    /// only).
    pub settle_fast_forwarded: u64,
    /// Fault simulations this worker's backlog screening ran (metrics
    /// only).
    pub screen_sims: u64,
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
            ("bdd_cache".to_string(), Json::int(self.bdd_cache)),
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

    /// Adds this worker's telemetry to the process metrics registry
    /// (the `engine.*` worker counters, the `engine.bdd_peak_unique`
    /// gauge and the `engine.worker.busy_us` histogram).
    /// [`search_classes`] calls it as it returns, so an engine worker and
    /// a fleet peer's shard both land there.
    fn flush_metrics(&self) {
        let m = satpg_trace::metrics();
        m.counter("engine.searched").add(self.searched as u64);
        m.counter("engine.stolen").add(self.stolen as u64);
        m.counter("engine.tests_found").add(self.tests_found as u64);
        m.counter("engine.broadcast_drops")
            .add(self.broadcast_drops as u64);
        m.counter("engine.audit_failures")
            .add(self.audit_failures as u64);
        m.counter("engine.settle_states").add(self.settle_states);
        m.counter("engine.settle_por_pruned")
            .add(self.settle_por_pruned);
        m.counter("engine.settle_fallbacks")
            .add(self.settle_fallbacks);
        m.counter("engine.settle_cycle_cuts")
            .add(self.settle_cycle_cuts);
        m.counter("engine.settle_fast_forwarded")
            .add(self.settle_fast_forwarded);
        m.counter("engine.screen_sims").add(self.screen_sims);
        m.gauge("engine.bdd_peak_unique")
            .max(self.bdd_peak_unique.min(i64::MAX as usize) as i64);
        m.histogram("engine.worker.busy_us")
            .record(self.us_busy.min(u64::MAX as u128) as u64);
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

/// Runs the fault-parallel campaign on `ckt`: builds the CSSG on up to
/// one thread per worker ([`EngineConfig::build_shards`]), then runs
/// [`run_engine_on`].
///
/// # Errors
///
/// Same conditions as [`satpg_core::run_atpg`]: CSSG construction
/// failures or an abstraction with no valid vectors.
pub fn run_engine(ckt: &Circuit, cfg: &EngineConfig) -> Result<EngineReport, CoreError> {
    let _span = satpg_trace::span!(
        "engine.run",
        circuit = ckt.name(),
        workers = cfg.requested_workers()
    );
    let t0 = Instant::now();
    let cssg = build_cssg_sharded(ckt, &cfg.atpg.cssg, cfg.build_shards())?;
    let us_cssg = t0.elapsed().as_micros();
    if cssg.num_edges() == 0 {
        return Err(CoreError::NoValidVectors);
    }
    let faults = faults_for(ckt, cfg.atpg.fault_model);
    Ok(run_engine_on(ckt, &cssg, &faults, cfg, us_cssg))
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
    sink.event(EngineEvent::CssgReady {
        states: cssg.num_states(),
        edges: cssg.num_edges(),
        truncated: cssg.pruned_truncated(),
        settle_states: cssg.settle_stats().states_explored,
        por_pruned: cssg.settle_stats().por_pruned,
        threads: cssg.build_threads(),
        us: us_cssg,
    });
    // --- Stage 1: random TPG (serial; it is cheap, deterministic and
    // sets the shared baseline both drivers start the targeted loop from).
    let campaign = Campaign::prepare(ckt, cssg, faults, &cfg.atpg);

    // --- Stage 2 (parallel): precompute three-phase verdicts. ---
    let pending = campaign.state.open_classes();
    sink.event(EngineEvent::RandomDone {
        resolved: campaign.plan.len() - pending.len(),
        passes: campaign.state.random.passes,
        patterns: campaign.state.random.patterns_evaluated,
        us: campaign.us_random,
    });
    let workers = cfg.effective_workers(pending.len());
    let queues = ShardedQueues::new(workers, &pending);
    let mut outcomes: Vec<OnceLock<FaultStatus>> =
        (0..campaign.plan.len()).map(|_| OnceLock::new()).collect();
    let tests: RwLock<Vec<(usize, TestSequence)>> = RwLock::new(Vec::new());

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
        let run_worker = |w: usize| {
            let stats = search_classes(
                ckt,
                cssg,
                &campaign.plan,
                cfg,
                &queues,
                w,
                &tests,
                parallel_span_id,
                &mut |ci, verdict| {
                    if let FaultStatus::Detected { sequence } = &verdict {
                        sink.event(EngineEvent::TestFound {
                            worker: w,
                            class: ci,
                            cycles: sequence.len(),
                        });
                    }
                    // Each class is popped at most once.
                    let _ = outcomes[ci].set(verdict);
                },
            );
            sink.event(EngineEvent::WorkerDone {
                stats: stats.clone(),
            });
            stats
        };
        // Worker 0 is this thread: the stage searches at once, and a
        // helper that starts late (waking an idle CPU costs about as
        // much as a small campaign) steals what is left.  One worker
        // starts no thread.
        std::thread::scope(|scope| {
            let run_worker = &run_worker;
            let helpers: Vec<_> = (1..workers)
                .map(|w| scope.spawn(move || run_worker(w)))
                .collect();
            let mut stats = vec![run_worker(0)];
            for h in helpers {
                stats.push(h.join().expect("worker panicked"));
            }
            stats
        })
    };
    drop(parallel_span);
    let us_parallel = t2.elapsed().as_micros();
    let parallel_verdicts = outcomes.iter().filter(|o| o.get().is_some()).count();

    // --- Stage 3: deterministic merge.  The campaign's targeted-stage
    // replay consumes the precomputed verdicts; a class skipped by a
    // broadcast drop but reached open there is searched on the spot.
    let merged = campaign.finish(us_cssg, us_parallel, &mut |ci| outcomes[ci].take());
    sink.event(EngineEvent::MergeDone {
        fallbacks: merged.searched,
        us: merged.us_targeted,
    });
    flush_engine_metrics(
        us_cssg,
        merged.report.us_random,
        us_parallel,
        merged.us_targeted,
    );

    EngineReport {
        report: merged.report,
        workers: worker_stats,
        parallel_verdicts,
        merge_fallbacks: merged.searched,
        us_parallel,
        us_merge: merged.us_targeted,
    }
}

/// Feeds one campaign's totals into the process metrics registry: the
/// `engine.runs` counter and the `stage.*.us` histograms.  Each worker
/// adds its own counters when it returns ([`WorkerStats::flush_metrics`]).
fn flush_engine_metrics(us_cssg: u128, us_random: u128, us_parallel: u128, us_merge: u128) {
    let m = satpg_trace::metrics();
    m.counter("engine.runs").inc();
    m.histogram("stage.cssg.us")
        .record(us_cssg.min(u64::MAX as u128) as u64);
    m.histogram("stage.random.us")
        .record(us_random.min(u64::MAX as u128) as u64);
    m.histogram("stage.parallel.us")
        .record(us_parallel.min(u64::MAX as u128) as u64);
    m.histogram("stage.merge.us")
        .record(us_merge.min(u64::MAX as u128) as u64);
}

/// The class-search loop of one worker — the only one: engine workers
/// run it over their work-stealing deques, and a fleet peer runs it over
/// a one-deque [`ShardedQueues`] holding its shard.
///
/// Before each pop the worker screens its own backlog against the tests
/// appended to `tests` since its last look ([`screen_backlog`]); then it
/// pops a class, runs the three-phase search, appends a found test to
/// `tests` and hands the verdict to `on_verdict`.  `tests` is append-only
/// `(class, test)` pairs: the worker's own finds, plus whatever other
/// workers (or a fleet coordinator's relays) append.  Screening only
/// runs when the flow's fault simulation is on.
#[allow(clippy::too_many_arguments)]
pub fn search_classes(
    ckt: &Circuit,
    cssg: &Cssg,
    plan: &FaultPlan,
    cfg: &EngineConfig,
    queues: &ShardedQueues,
    w: usize,
    tests: &RwLock<Vec<(usize, TestSequence)>>,
    parent_span: u64,
    on_verdict: &mut dyn FnMut(usize, FaultStatus),
) -> WorkerStats {
    let t0 = Instant::now();
    // The worker's span parents under the caller's span explicitly (on a
    // helper thread that span lives on another thread's stack).
    let _span = satpg_trace::Span::enter_with_parent(
        "worker",
        parent_span,
        vec![("worker", satpg_trace::ArgValue::from(w))],
    );
    let mut stats = WorkerStats {
        worker: w,
        ..WorkerStats::default()
    };
    let mut auditor = cfg.symbolic_audit.then(|| {
        let mut span = satpg_trace::span!("audit.build", edges = cssg.num_edges());
        let aud = WalkAuditor::new(cssg);
        span.record("vars", aud.num_vars());
        span.record("nodes", aud.unique_len());
        aud
    });
    let mut seen = 0usize;
    // Per distinct logged test, the lowest class it has screened this
    // worker's backlog from ([`screen_backlog`]).
    let mut screened_from: HashMap<TestSequence, usize> = HashMap::new();
    // Screening only pays off when the merge can harvest the skipped
    // classes as fault-sim credits; with fault_sim off every drop would
    // serialize a recomputation instead.
    let screen = cfg.atpg.fault_sim;

    loop {
        if screen {
            let fresh: Vec<(usize, TestSequence)> = {
                let log = tests.read().expect("test log lock");
                log[seen..].to_vec()
            };
            seen += fresh.len();
            screen_backlog(
                ckt,
                cssg,
                plan,
                queues,
                &fresh,
                &mut screened_from,
                &mut stats,
            );
        }
        let Some(popped) = queues.pop(w) else { break };
        let ci = popped.item();
        if matches!(popped, Popped::Stolen { .. }) {
            stats.stolen += 1;
        }
        let fault = plan.classes()[ci].representative;
        let (verdict, settle) = three_phase_traced(ckt, cssg, &fault, &cfg.atpg.three_phase);
        stats.settle_states += settle.states_explored;
        stats.settle_por_pruned += settle.por_pruned;
        stats.settle_fallbacks += settle.fallbacks;
        stats.settle_cycle_cuts += settle.cycle_cuts;
        stats.settle_fast_forwarded += settle.fast_forwarded;
        stats.searched += 1;
        if let FaultStatus::Detected { sequence } = &verdict {
            stats.tests_found += 1;
            if let Some(aud) = auditor.as_mut() {
                let _span = satpg_trace::span!("audit.check", cycles = sequence.len());
                if !aud.check(sequence) {
                    stats.audit_failures += 1;
                }
            }
            if screen {
                tests
                    .write()
                    .expect("test log lock")
                    .push((ci, sequence.clone()));
            }
        }
        on_verdict(ci, verdict);
    }

    if let Some(aud) = auditor {
        stats.bdd_cache = aud.cache_len();
        stats.bdd_peak_unique = aud.unique_len();
    }
    stats.us_busy = t0.elapsed().as_micros();
    stats.flush_metrics();
    stats
}

/// The screening rule: drops from the worker's deque every class `cb`
/// that a test found at class `ca` detects, for `cb > ca` only.  Those
/// are the classes the serial flow would also resolve by fault
/// simulation, so the merge never has to re-search them.  A test whose
/// patterns are not as wide as the circuit's inputs (only a relay can
/// carry one) screens nothing.  Adds the drops and the simulations run
/// to the worker's `stats`.
///
/// Each logged copy of a test screens only what no earlier copy did.
/// `screened_from` keeps, per distinct test, the lowest class `low` it
/// has screened from.  Every backlog class above `low` was simulated
/// against the test then and missed it: a deque only shrinks, and fault
/// simulation is lane-pure, so a rerun would miss it again.  A copy from
/// `ca` therefore simulates only the backlog classes in `(ca, low]`, and
/// a copy with `ca >= low` none.
fn screen_backlog(
    ckt: &Circuit,
    cssg: &Cssg,
    plan: &FaultPlan,
    queues: &ShardedQueues,
    fresh: &[(usize, TestSequence)],
    screened_from: &mut HashMap<TestSequence, usize>,
    stats: &mut WorkerStats,
) {
    let _span = (!fresh.is_empty()).then(|| satpg_trace::span!("fsim.screen", tests = fresh.len()));
    let fits = |test: &TestSequence| test.patterns.iter().all(|p| p.len() == ckt.num_inputs());
    for (ca, test) in fresh.iter().filter(|(_, test)| fits(test)) {
        let low = match screened_from.get_mut(test) {
            Some(low) if *low <= *ca => continue,
            Some(low) => std::mem::replace(low, *ca),
            None => {
                screened_from.insert(test.clone(), *ca);
                usize::MAX
            }
        };
        stats.broadcast_drops += queues.drop_pending(stats.worker, |backlog| {
            let candidates: Vec<usize> = backlog
                .iter()
                .copied()
                .filter(|&cb| *ca < cb && cb <= low)
                .collect();
            if candidates.is_empty() {
                return Vec::new();
            }
            stats.screen_sims += 1;
            let cand_faults: Vec<Fault> = candidates
                .iter()
                .map(|&cb| plan.classes()[cb].representative)
                .collect();
            satpg_core::fault_simulate(ckt, cssg, test, &cand_faults)
                .into_iter()
                .map(|hit| candidates[hit])
                .collect()
        });
    }
}

/// Whether two reports are identical apart from wall-clock fields: their
/// timing-free JSON renderings are equal byte for byte.
pub fn reports_identical(a: &AtpgReport, b: &AtpgReport) -> bool {
    a.to_json_value(false).render() == b.to_json_value(false).render()
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
                    symbolic_audit: true,
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
    fn report_identity_covers_every_timing_free_field() {
        let ckt = library::muller_pipeline2();
        let a = run_atpg(&ckt, &AtpgConfig::paper()).unwrap();
        let mut b = a.clone();
        b.us_cssg += 1;
        assert!(reports_identical(&a, &b), "wall-clock fields are ignored");
        b.cssg_settle_states += 1;
        assert!(!reports_identical(&a, &b), "settle counts are compared");
    }

    /// With fault simulation off nothing screens, so no class is
    /// dropped and the merge re-searches none.
    #[test]
    fn broadcast_off_still_identical() {
        let ckt = library::muller_pipeline2();
        let atpg = AtpgConfig {
            fault_sim: false,
            ..AtpgConfig::paper()
        };
        let serial = run_atpg(&ckt, &atpg).unwrap();
        let cfg = EngineConfig {
            atpg,
            workers: 3,
            ..EngineConfig::default()
        };
        let out = run_engine(&ckt, &cfg).unwrap();
        assert!(reports_identical(&out.report, &serial));
        let drops: usize = out.workers.iter().map(|w| w.broadcast_drops).sum();
        assert_eq!(drops, 0, "fault_sim off screens nothing");
        assert_eq!(out.merge_fallbacks, 0, "no drops, no fallbacks");
    }

    #[test]
    fn worker_telemetry_accounts_for_all_searches() {
        let ckt = library::muller_pipeline2();
        let cfg = EngineConfig {
            workers: 2,
            symbolic_audit: true,
            ..EngineConfig::paper()
        };
        let out = run_engine(&ckt, &cfg).unwrap();
        let searched: usize = out.workers.iter().map(|w| w.searched).sum();
        assert_eq!(searched, out.parallel_verdicts);
        for w in &out.workers {
            assert!(w.bdd_peak_unique > 0, "auditor built a relation");
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
        let cssg = satpg_core::build_cssg(&ckt, &cfg.atpg.cssg).unwrap();
        let faults = faults_for(&ckt, cfg.atpg.fault_model);
        let sink = Collect(Mutex::new(Vec::new()));
        let out = run_engine_on_streaming(&ckt, &cssg, &faults, &cfg, 0, &sink);
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
            Some(EngineEvent::CssgReady { states, edges, .. }) => {
                assert_eq!(*states, out.report.cssg_states);
                assert_eq!(*edges, out.report.cssg_edges);
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

    /// Worker 0 runs on the calling thread and every other worker on a
    /// thread of its own, so a one-worker campaign starts no thread.
    #[test]
    fn worker_zero_runs_on_the_calling_thread() {
        use std::collections::HashSet;
        use std::sync::Mutex;
        use std::thread::ThreadId;
        /// The thread each worker's `WorkerDone` came from, and the
        /// `ParallelStarted` counts.
        #[derive(Default)]
        struct Placement {
            done: Mutex<Vec<(usize, ThreadId)>>,
            started: Mutex<Option<(usize, usize)>>,
        }
        impl EngineSink for Placement {
            fn event(&self, ev: EngineEvent) {
                match ev {
                    EngineEvent::WorkerDone { stats } => self
                        .done
                        .lock()
                        .unwrap()
                        .push((stats.worker, std::thread::current().id())),
                    EngineEvent::ParallelStarted { workers, pending } => {
                        *self.started.lock().unwrap() = Some((workers, pending))
                    }
                    _ => {}
                }
            }
        }
        let ckt = library::muller_pipeline2();
        let atpg = AtpgConfig::paper();
        let serial = run_atpg(&ckt, &atpg).unwrap();
        let cssg = satpg_core::build_cssg(&ckt, &atpg.cssg).unwrap();
        let faults = faults_for(&ckt, atpg.fault_model);
        let caller = std::thread::current().id();
        for workers in [1, 3] {
            let cfg = EngineConfig {
                workers,
                ..EngineConfig::paper()
            };
            let sink = Placement::default();
            let out = run_engine_on_streaming(&ckt, &cssg, &faults, &cfg, 0, &sink);
            assert!(reports_identical(&out.report, &serial), "{workers} workers");
            let started = sink.started.into_inner().unwrap();
            assert_eq!(started, Some((workers, 5)), "5 classes stay open");
            let mut placed = sink.done.into_inner().unwrap();
            placed.sort_by_key(|&(w, _)| w);
            let worker_ids: Vec<usize> = placed.iter().map(|&(w, _)| w).collect();
            assert_eq!(worker_ids, (0..workers).collect::<Vec<_>>());
            assert_eq!(placed[0].1, caller, "worker 0 is the calling thread");
            let helpers: HashSet<ThreadId> = placed[1..].iter().map(|&(_, t)| t).collect();
            assert_eq!(helpers.len(), workers - 1, "one thread per helper");
            assert!(!helpers.contains(&caller));
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
