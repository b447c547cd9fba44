//! The daemon: listener, bounded job queue with backpressure, worker
//! pool, and per-connection streaming of job telemetry.
//!
//! Threading model:
//!
//! * one **accept loop** (the caller's thread in [`Server::run`]),
//!   blocked in `accept()` so a new connection is served at once.  std
//!   cannot interrupt a blocked `accept()`, so a `shutdown` request
//!   sets the flag, acknowledges, and then wakes the loop with one
//!   connect to the listener's own address; the loop drops that
//!   connection and exits;
//! * one thread per **connection**, which parses request lines and, for
//!   a submitted job, forwards the job's event channel to the socket
//!   until the job finishes;
//! * a fixed **pool** of job executors popping the shared queue.  Each
//!   job runs the fault-parallel engine with its own per-job worker
//!   count; engine telemetry flows through an [`EngineSink`] adapter
//!   into the submitting connection's channel.
//!
//! Backpressure: a `submit` that arrives with the queue at
//! `queue_depth` is answered with a `rejected` event immediately — the
//! client decides whether to retry.  Memory: jobs share nothing but the
//! read-only circuit/CSSG `Arc`s from the cache, so daemon-lifetime
//! memory is bounded by the caches' LRU capacity.

use crate::cache::{fnv64, CssgKey, SessionCache, SingleFlight};
use crate::fleet::{run_fleet_built, FleetConfig};
use crate::job::{job_atpg_config, resolve_circuit};
use crate::net::{connect, read_line_capped, write_line, Conn, Listener};
use crate::proto::{event, CircuitSpec, JobSpec, Request, ShardSpec, MAX_LINE_BYTES};
use satpg_core::json::Json;
use satpg_core::stages::FaultPlan;
use satpg_core::{
    build_cssg_sharded, faults_for, AtpgConfig, Cssg, CssgConfig, Fault, TestSequence,
};
use satpg_engine::shard::ShardedQueues;
use satpg_engine::{
    run_engine_on_streaming, search_classes, EngineConfig, EngineEvent, EngineSink,
};
use satpg_netlist::{to_ckt, Circuit};
use std::collections::{HashMap, VecDeque};
use std::io::{self, BufReader};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError, RwLock};
use std::time::{Duration, Instant};

/// Daemon configuration.
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Listen address: `host:port` (port 0 picks an ephemeral port) or
    /// `unix:/path/to.sock`.
    pub addr: String,
    /// Job-executor threads (concurrent jobs).
    pub pool_workers: usize,
    /// Queue slots; a submit beyond this is rejected (backpressure).
    pub queue_depth: usize,
    /// LRU capacity of each cache level (circuits, CSSGs).
    pub cache_entries: usize,
    /// Default per-job engine workers (`0` = one per CPU).
    pub default_job_workers: usize,
    /// Directory for per-job Chrome trace-event files; `None` leaves
    /// the span collector uninstalled (spans cost one atomic load).
    pub trace_out: Option<PathBuf>,
    /// Concurrent shard sessions this daemon accepts as a fleet peer.
    pub max_shards: usize,
    /// The fleet this daemon coordinates.  With peers configured it is a
    /// coordinator: submitted jobs are partitioned across the peers
    /// instead of running locally, with local recomputation covering
    /// whatever the fleet loses.
    pub fleet: FleetConfig,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            pool_workers: 2,
            queue_depth: 16,
            cache_entries: 64,
            default_job_workers: 0,
            trace_out: None,
            max_shards: 16,
            fleet: FleetConfig::default(),
        }
    }
}

struct QueuedJob {
    id: u64,
    spec: JobSpec,
    tx: mpsc::Sender<Json>,
    /// When the connection thread queued it; the executor that pops it
    /// records the wait ([`execute`]).
    enqueued: Instant,
}

struct State {
    cfg: ServeConfig,
    queue: Mutex<VecDeque<QueuedJob>>,
    queue_cv: Condvar,
    cache: Mutex<SessionCache>,
    /// Anti-stampede guard: concurrent misses on one CSSG key coalesce
    /// into a single build; the losers block on the winner.
    cssg_flight: SingleFlight<CssgKey>,
    /// CSSG constructions actually run (cache misses that built).
    cssg_builds: AtomicUsize,
    /// Requests that blocked on another job's in-flight build.
    cssg_waits: AtomicUsize,
    shutdown: AtomicBool,
    /// Where a `shutdown` request connects to wake the accept loop.
    wake_addr: String,
    next_job: AtomicU64,
    jobs_queued: AtomicUsize,
    jobs_running: AtomicUsize,
    jobs_done: AtomicUsize,
    jobs_failed: AtomicUsize,
    jobs_rejected: AtomicUsize,
    /// Telemetry events a job emitted after its client disconnected.
    /// The events are lost (nowhere to send them) but the *count* is
    /// not — `status` reports it, and the job's metrics still land in
    /// the process registry regardless.
    events_dropped: AtomicUsize,
    /// Connections currently forwarding an accepted job's event stream;
    /// shutdown waits for this to drain so a completed job's final
    /// report is not cut off by process exit.
    streaming: AtomicUsize,
    /// Fleet shard sessions currently executing on this daemon (as a
    /// peer); bounded by `max_shards`, drained at shutdown like
    /// `streaming`.
    shards_running: AtomicUsize,
    /// Coordinator-side fleet totals across jobs, surfaced in `status`
    /// so an operator (and the fault-injection suite) can see requeues.
    fleet_campaigns: AtomicUsize,
    fleet_requeues: AtomicUsize,
    fleet_peer_deaths: AtomicUsize,
    fleet_remote_verdicts: AtomicUsize,
    fleet_fallbacks: AtomicUsize,
    started: Instant,
}

/// A bound, not-yet-running daemon.
pub struct Server {
    listener: Listener,
    state: Arc<State>,
}

impl Server {
    /// Binds the listener without accepting yet, so callers can learn
    /// the ephemeral port before starting the accept loop.
    ///
    /// # Errors
    ///
    /// Propagates socket bind failures.
    pub fn bind(cfg: ServeConfig) -> io::Result<Server> {
        let listener = Listener::bind(&cfg.addr)?;
        let state = Arc::new(State {
            cache: Mutex::new(SessionCache::new(cfg.cache_entries)),
            cfg,
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            cssg_flight: SingleFlight::new(),
            cssg_builds: AtomicUsize::new(0),
            cssg_waits: AtomicUsize::new(0),
            shutdown: AtomicBool::new(false),
            wake_addr: listener.self_addr(),
            next_job: AtomicU64::new(1),
            jobs_queued: AtomicUsize::new(0),
            jobs_running: AtomicUsize::new(0),
            jobs_done: AtomicUsize::new(0),
            jobs_failed: AtomicUsize::new(0),
            jobs_rejected: AtomicUsize::new(0),
            events_dropped: AtomicUsize::new(0),
            streaming: AtomicUsize::new(0),
            shards_running: AtomicUsize::new(0),
            fleet_campaigns: AtomicUsize::new(0),
            fleet_requeues: AtomicUsize::new(0),
            fleet_peer_deaths: AtomicUsize::new(0),
            fleet_remote_verdicts: AtomicUsize::new(0),
            fleet_fallbacks: AtomicUsize::new(0),
            started: Instant::now(),
        });
        if state.cfg.trace_out.is_some() {
            satpg_trace::install();
        }
        Ok(Server { listener, state })
    }

    /// The address clients should connect to (`host:port` with the real
    /// port, or `unix:/path`).
    pub fn local_addr(&self) -> String {
        self.listener.printable_addr()
    }

    /// Runs the daemon until a `shutdown` request: accepts connections,
    /// executes jobs, then drains the queue and joins the pool.
    ///
    /// # Errors
    ///
    /// Propagates unexpected accept-loop I/O failures (never the
    /// per-connection ones, which only end that connection).
    pub fn run(self) -> io::Result<()> {
        let pool: Vec<_> = (0..self.state.cfg.pool_workers.max(1))
            .map(|_| {
                let state = self.state.clone();
                std::thread::spawn(move || pool_loop(&state))
            })
            .collect();

        loop {
            let conn = match self.listener.accept() {
                Ok(conn) => conn,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            };
            // After a shutdown request this is its wake connect (or a
            // client that raced it); either way it is not served.
            if self.state.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let state = self.state.clone();
            // Detached: a connection blocked on a slow client must not
            // block shutdown of the daemon itself.
            std::thread::spawn(move || {
                let _ = handle_conn(&state, conn);
            });
        }

        // Stop accepting, wake idle executors, and let them drain what
        // was queued before the shutdown request.
        self.state.queue_cv.notify_all();
        for h in pool {
            let _ = h.join();
        }
        // Every job channel is closed now; give connections that are
        // still flushing a finished job's events — and shard sessions a
        // coordinator is still counting on — a bounded grace period so
        // process exit does not truncate their final report.
        let deadline = Instant::now() + Duration::from_secs(5);
        while (self.state.streaming.load(Ordering::SeqCst) > 0
            || self.state.shards_running.load(Ordering::SeqCst) > 0)
            && Instant::now() < deadline
        {
            std::thread::sleep(Duration::from_millis(5));
        }
        Ok(())
    }
}

fn pool_loop(state: &Arc<State>) {
    loop {
        let job = {
            let mut q = state.queue.lock().expect("queue lock");
            loop {
                if let Some(j) = q.pop_front() {
                    // Gauge updated under the queue lock, like the
                    // counter below: enqueue/dequeue serialize here, so
                    // the gauge tracks the queue length exactly.
                    satpg_trace::metrics()
                        .gauge("serve.queue_depth")
                        .set(q.len() as i64);
                    break j;
                }
                if state.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                q = state.queue_cv.wait(q).expect("queue lock");
            }
        };
        state.jobs_queued.fetch_sub(1, Ordering::SeqCst);
        state.jobs_running.fetch_add(1, Ordering::SeqCst);
        execute(state, &job);
    }
}

/// Adapter from engine telemetry to protocol events on the job channel.
struct ChannelSink<'a> {
    job: u64,
    cssg_cache: &'static str,
    tx: Mutex<mpsc::Sender<Json>>,
    /// The daemon-wide dropped-event ledger ([`State::events_dropped`]).
    events_dropped: &'a AtomicUsize,
}

impl ChannelSink<'_> {
    fn send(&self, ev: Json) {
        let m = satpg_trace::metrics();
        m.counter("serve.events_emitted").inc();
        // A disconnected client mutes the stream, not the ledger: the
        // job finishes (its verdicts still warm the cache), its stage
        // and worker counters still land in the metrics registry above,
        // and the muted sends are counted so `status` can report how
        // much telemetry went unobserved.
        if self.tx.lock().expect("sink lock").send(ev).is_err() {
            self.events_dropped.fetch_add(1, Ordering::SeqCst);
            m.counter("serve.events_dropped").inc();
        }
    }
}

impl EngineSink for ChannelSink<'_> {
    fn event(&self, ev: EngineEvent) {
        let j = self.job;
        match ev {
            EngineEvent::CssgReady {
                states,
                edges,
                truncated,
                settle_states,
                por_pruned,
                threads,
                us,
            } => self.send(event::stage(
                j,
                "cssg",
                vec![
                    ("cache".to_string(), Json::str(self.cssg_cache)),
                    ("states".to_string(), Json::int(states)),
                    ("edges".to_string(), Json::int(edges)),
                    ("truncated".to_string(), Json::int(truncated)),
                    ("settle_states".to_string(), Json::int(settle_states)),
                    ("por_pruned".to_string(), Json::int(por_pruned)),
                    ("threads".to_string(), Json::int(threads)),
                    ("us".to_string(), Json::int(us)),
                ],
            )),
            EngineEvent::RandomDone {
                resolved,
                passes,
                patterns,
                us,
            } => self.send(event::stage(
                j,
                "random",
                vec![
                    ("resolved".to_string(), Json::int(resolved)),
                    ("passes".to_string(), Json::int(passes)),
                    ("patterns_evaluated".to_string(), Json::int(patterns)),
                    ("us".to_string(), Json::int(us)),
                ],
            )),
            EngineEvent::ParallelStarted { workers, pending } => self.send(event::stage(
                j,
                "parallel",
                vec![
                    ("workers".to_string(), Json::int(workers)),
                    ("pending".to_string(), Json::int(pending)),
                ],
            )),
            EngineEvent::TestFound {
                worker,
                class,
                cycles,
            } => self.send(event::test(j, worker, class, cycles)),
            EngineEvent::WorkerDone { stats } => self.send(event::worker(j, &stats)),
            EngineEvent::MergeDone { fallbacks, us } => self.send(event::stage(
                j,
                "merge",
                vec![
                    ("fallbacks".to_string(), Json::int(fallbacks)),
                    ("us".to_string(), Json::int(us)),
                ],
            )),
        }
    }
}

/// Runs one job the pool just popped and sends its final `report` or
/// `error` event.
fn execute(state: &Arc<State>, job: &QueuedJob) {
    // The handoff from the connection thread to this executor.  A span
    // cannot hold it: it would begin on one thread and end on another,
    // so it goes to a histogram and the job span's args.
    let queue_wait_us = job.enqueued.elapsed().as_micros().min(u64::MAX as u128) as u64;
    satpg_trace::metrics()
        .histogram("serve.queue_wait_us")
        .record(queue_wait_us);
    let ckey = fnv64(job.spec.circuit.cache_text().as_bytes());
    let outcome = {
        // The job root span: every CSSG/engine span opened below runs
        // on this pool thread (or carries an explicit parent), so the
        // whole campaign nests under one `job` slice in the trace.
        let _job_span = satpg_trace::span!(
            "job",
            job = job.id,
            content_hash = format!("{ckey:016x}"),
            queue_wait_us = queue_wait_us
        );
        execute_inner(state, job, ckey)
    };
    // Book the job before its final event leaves: a client that answers
    // the report with `status` must find the job counted.
    state.jobs_running.fetch_sub(1, Ordering::SeqCst);
    let last = match outcome {
        Ok(body) => {
            state.jobs_done.fetch_add(1, Ordering::SeqCst);
            event::report(job.id, body)
        }
        Err(msg) => {
            state.jobs_failed.fetch_add(1, Ordering::SeqCst);
            event::error(job.id, &msg)
        }
    };
    let _ = job.tx.send(last);
    // Drain *after* the root span closed so its End is in the file.
    // The collector is process-wide: with pool_workers > 1 a drain can
    // carry a concurrent job's events too (see crates/trace/DESIGN.md);
    // slices stay attributable through their `job` root spans.
    if let Some(dir) = &state.cfg.trace_out {
        if let Some(col) = satpg_trace::installed_collector() {
            let events = col.drain();
            let path = dir.join(format!("job-{}-{ckey:016x}.json", job.id));
            if let Err(e) = satpg_trace::chrome::write_file(&path, &events, "satpg-serve") {
                eprintln!("satpg serve: trace write {} failed: {e}", path.display());
            }
        }
    }
}

/// Circuit lookup by content hash: cache hit, or resolve and fill.
fn cached_circuit(
    state: &Arc<State>,
    spec: &CircuitSpec,
    ckey: u64,
) -> Result<(Arc<Circuit>, &'static str), String> {
    let cached = state.cache.lock().expect("cache lock").get_circuit(ckey);
    let out = match cached {
        Some(c) => (c, "hit"),
        None => {
            let c = Arc::new(resolve_circuit(spec)?);
            state.cache.lock().expect("cache lock").put_circuit(
                ckey,
                c.clone(),
                spec.cache_text().len(),
            );
            (c, "miss")
        }
    };
    satpg_trace::metrics()
        .counter(if out.1 == "hit" {
            "serve.cache.circuit_hits"
        } else {
            "serve.cache.circuit_misses"
        })
        .inc();
    Ok(out)
}

/// CSSG lookup by [`CssgKey`], the same key for every thread budget
/// (the graphs are identical).  Concurrent misses on one key
/// single-flight through `cssg_flight`: the first requester builds,
/// later ones block and then hit.
fn cached_cssg(
    state: &Arc<State>,
    ckt: &Circuit,
    ccfg: &CssgConfig,
    skey: CssgKey,
    threads: usize,
) -> Result<(Arc<Cssg>, &'static str, u128), String> {
    let out = loop {
        if let Some(g) = state.cache.lock().expect("cache lock").get_cssg(skey) {
            break (g, "hit", 0u128);
        }
        if state.cssg_flight.begin(skey) {
            // Double-check under the claim: the previous builder may
            // have filled the cache between our miss and the claim.
            if let Some(g) = state.cache.lock().expect("cache lock").peek_cssg(skey) {
                state.cssg_flight.finish(&skey);
                break (g, "hit", 0u128);
            }
            let t0 = Instant::now();
            let built = build_cssg_sharded(ckt, ccfg, threads);
            let outcome = match built {
                Ok(g) => {
                    let g = Arc::new(g);
                    state
                        .cache
                        .lock()
                        .expect("cache lock")
                        .put_cssg(skey, g.clone());
                    state.cssg_builds.fetch_add(1, Ordering::SeqCst);
                    Ok((g, "miss", t0.elapsed().as_micros()))
                }
                Err(e) => Err(e.to_string()),
            };
            // Release the claim on success *and* failure, or waiters
            // would hang on a key that will never be filled.
            state.cssg_flight.finish(&skey);
            match outcome {
                Ok(hit) => break hit,
                Err(msg) => return Err(msg),
            }
        } else {
            state.cssg_waits.fetch_add(1, Ordering::SeqCst);
            state.cssg_flight.wait(&skey);
            // Loop: normally a cache hit now; on a failed or evicted
            // build this requester becomes the next builder.
        }
    };
    satpg_trace::metrics()
        .counter(if out.1 == "hit" {
            "serve.cache.cssg_hits"
        } else {
            "serve.cache.cssg_misses"
        })
        .inc();
    Ok(out)
}

/// A job's campaign inputs, resolved through the daemon's caches.
struct JobInputs {
    ckt: Arc<Circuit>,
    ckt_cache: &'static str,
    acfg: AtpgConfig,
    cssg: Arc<Cssg>,
    cssg_cache: &'static str,
    us_cssg: u128,
    faults: Vec<Fault>,
}

/// The prologue a job and a fleet shard share: resolves the circuit
/// `spec` names (`ckey` is its content hash), derives the flow
/// configuration from [`job_atpg_config`] — the one spec→config mapping
/// every fleet node shares, which keeps a coordinator, its peers and a
/// local run computing identical class verdicts — fetches the CSSG
/// (built on up to `threads` threads on a miss), rejects an abstraction
/// with no valid vectors and lists the faults.  `on_circuit` sees the
/// circuit and its cache outcome before the CSSG is fetched.
fn job_inputs(
    state: &Arc<State>,
    spec: &JobSpec,
    ckey: u64,
    threads: usize,
    on_circuit: impl FnOnce(&Circuit, &'static str),
) -> Result<JobInputs, String> {
    let (ckt, ckt_cache) = cached_circuit(state, &spec.circuit, ckey)?;
    on_circuit(&ckt, ckt_cache);
    let acfg = job_atpg_config(spec, &ckt);
    let skey: CssgKey = (fnv64(to_ckt(&ckt).as_bytes()), spec.k, spec.pattern_budget);
    let (cssg, cssg_cache, us_cssg) = cached_cssg(state, &ckt, &acfg.cssg, skey, threads)?;
    if cssg.num_edges() == 0 {
        return Err(satpg_core::CoreError::NoValidVectors.to_string());
    }
    let faults = faults_for(&ckt, acfg.fault_model);
    Ok(JobInputs {
        ckt,
        ckt_cache,
        acfg,
        cssg,
        cssg_cache,
        us_cssg,
        faults,
    })
}

/// The job's stages, streamed as events; returns the final report body
/// or the failure message for [`execute`] to send.
fn execute_inner(state: &Arc<State>, job: &QueuedJob, ckey: u64) -> Result<Json, String> {
    let send = |ev: Json| {
        let _ = job.tx.send(ev);
    };
    // The job's worker count also bounds the CSSG build: the
    // abstraction builds on up to that many threads.
    let mut cfg = EngineConfig {
        workers: if job.spec.workers == 0 {
            state.cfg.default_job_workers
        } else {
            job.spec.workers
        },
        ..EngineConfig::default()
    };
    let inputs = job_inputs(state, &job.spec, ckey, cfg.build_shards(), |ckt, cache| {
        send(event::stage(
            job.id,
            "circuit",
            vec![
                ("cache".to_string(), Json::str(cache)),
                ("name".to_string(), Json::str(ckt.name())),
                ("gates".to_string(), Json::int(ckt.num_gates())),
                ("inputs".to_string(), Json::int(ckt.num_inputs())),
            ],
        ))
    })?;
    cfg.atpg = inputs.acfg;

    // --- Coordinator path: with peers configured, the job fans out
    // across the fleet instead of running the local engine.  The merge
    // inside `run_fleet_built` recomputes whatever the fleet failed to
    // deliver, so this path's report matches the local path byte for
    // byte regardless of peer behavior.
    if !state.cfg.fleet.peers.is_empty() {
        send(event::stage(
            job.id,
            "fleet",
            vec![("peers".to_string(), Json::int(state.cfg.fleet.peers.len()))],
        ));
        let outcome = run_fleet_built(
            &inputs.ckt,
            &inputs.cssg,
            &inputs.faults,
            &cfg.atpg,
            &job.spec,
            &state.cfg.fleet,
            inputs.us_cssg,
        );
        state.fleet_campaigns.fetch_add(1, Ordering::SeqCst);
        state
            .fleet_requeues
            .fetch_add(outcome.stats.retries, Ordering::SeqCst);
        state
            .fleet_peer_deaths
            .fetch_add(outcome.stats.peer_deaths, Ordering::SeqCst);
        state
            .fleet_remote_verdicts
            .fetch_add(outcome.stats.remote_verdicts, Ordering::SeqCst);
        state
            .fleet_fallbacks
            .fetch_add(outcome.stats.merge_fallbacks, Ordering::SeqCst);
        return Ok(Json::Obj(vec![
            ("report".to_string(), outcome.report.to_json_value(true)),
            ("fleet".to_string(), outcome.stats.to_json_value()),
            (
                "cache".to_string(),
                Json::Obj(vec![
                    ("circuit".to_string(), Json::str(inputs.ckt_cache)),
                    ("cssg".to_string(), Json::str(inputs.cssg_cache)),
                ]),
            ),
        ]));
    }

    // --- Engine campaign, telemetry streamed through the sink. ---
    let sink = ChannelSink {
        job: job.id,
        cssg_cache: inputs.cssg_cache,
        tx: Mutex::new(job.tx.clone()),
        events_dropped: &state.events_dropped,
    };
    let out = run_engine_on_streaming(
        &inputs.ckt,
        &inputs.cssg,
        &inputs.faults,
        &cfg,
        inputs.us_cssg,
        &sink,
    );
    let mut body = out.to_json_value(true);
    if let Json::Obj(m) = &mut body {
        m.push((
            "cache".to_string(),
            Json::Obj(vec![
                ("circuit".to_string(), Json::str(inputs.ckt_cache)),
                ("cssg".to_string(), Json::str(inputs.cssg_cache)),
            ]),
        ));
    }
    Ok(body)
}

fn status_json(state: &State) -> Json {
    let (cache, netlist_bytes, cssg_entries) = {
        let c = state.cache.lock().expect("cache lock");
        (c.to_json_value(), c.circuit_bytes(), c.cssg_entries())
    };
    event::status(vec![
        (
            "jobs".to_string(),
            Json::Obj(vec![
                (
                    "queued".to_string(),
                    Json::int(state.jobs_queued.load(Ordering::SeqCst)),
                ),
                (
                    "running".to_string(),
                    Json::int(state.jobs_running.load(Ordering::SeqCst)),
                ),
                (
                    "done".to_string(),
                    Json::int(state.jobs_done.load(Ordering::SeqCst)),
                ),
                (
                    "failed".to_string(),
                    Json::int(state.jobs_failed.load(Ordering::SeqCst)),
                ),
                (
                    "rejected".to_string(),
                    Json::int(state.jobs_rejected.load(Ordering::SeqCst)),
                ),
            ]),
        ),
        (
            "fleet".to_string(),
            Json::Obj(vec![
                ("peers".to_string(), Json::int(state.cfg.fleet.peers.len())),
                (
                    "campaigns".to_string(),
                    Json::int(state.fleet_campaigns.load(Ordering::SeqCst)),
                ),
                (
                    "retries".to_string(),
                    Json::int(state.fleet_requeues.load(Ordering::SeqCst)),
                ),
                (
                    "peer_deaths".to_string(),
                    Json::int(state.fleet_peer_deaths.load(Ordering::SeqCst)),
                ),
                (
                    "remote_verdicts".to_string(),
                    Json::int(state.fleet_remote_verdicts.load(Ordering::SeqCst)),
                ),
                (
                    "merge_fallbacks".to_string(),
                    Json::int(state.fleet_fallbacks.load(Ordering::SeqCst)),
                ),
                (
                    "shards_running".to_string(),
                    Json::int(state.shards_running.load(Ordering::SeqCst)),
                ),
            ]),
        ),
        ("cache".to_string(), cache),
        ("netlist_cache_bytes".to_string(), Json::int(netlist_bytes)),
        ("cssg_cache_entries".to_string(), Json::int(cssg_entries)),
        (
            "events_dropped".to_string(),
            Json::int(state.events_dropped.load(Ordering::SeqCst)),
        ),
        (
            "cssg_builds".to_string(),
            Json::int(state.cssg_builds.load(Ordering::SeqCst)),
        ),
        (
            "cssg_singleflight_waits".to_string(),
            Json::int(state.cssg_waits.load(Ordering::SeqCst)),
        ),
        ("queue_depth".to_string(), Json::int(state.cfg.queue_depth)),
        (
            "pool_workers".to_string(),
            Json::int(state.cfg.pool_workers.max(1)),
        ),
        (
            "uptime_us".to_string(),
            Json::int(state.started.elapsed().as_micros()),
        ),
    ])
}

/// Writes one event line under the connection's writer lock.  The lock
/// is what lets a shard executor stream verdicts from its own thread
/// while the request loop answers broadcasts on the same socket.
fn send_event(writer: &Mutex<Conn>, ev: &Json) -> io::Result<()> {
    write_line(&mut *writer.lock().expect("conn write lock"), &ev.render())
}

/// A live shard session on this daemon acting as a fleet peer.
struct ShardSession {
    /// The shard's test log: `(class, test)` pairs relayed by the
    /// coordinator's `broadcast` requests (appended by the connection
    /// thread) and the shard's own finds (appended by
    /// [`search_classes`]), read by cursor before each class.
    /// Append-only, so a cursor is enough and no relay is ever lost to a
    /// race.
    broadcasts: RwLock<Vec<(usize, TestSequence)>>,
}

fn handle_conn(state: &Arc<State>, conn: Conn) -> io::Result<()> {
    let mut reader = BufReader::new(conn.try_clone()?);
    let writer = Arc::new(Mutex::new(conn));
    // Shard sessions on this connection, keyed by the correlation id
    // their `shard_submit` carried.  Connection-scoped on purpose: a
    // coordinator owns its peer link, so broadcasts cannot cross into
    // another coordinator's sessions.
    let sessions: Arc<Mutex<HashMap<u64, Arc<ShardSession>>>> =
        Arc::new(Mutex::new(HashMap::new()));
    loop {
        let line = match read_line_capped(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(l)) => l,
            Ok(None) => return Ok(()),
            Err(e) => {
                // Over-long line: tell the peer why before dropping it.
                let _ = send_event(&writer, &event::rejected(&e.to_string()));
                return Err(e);
            }
        };
        if line.trim().is_empty() {
            continue;
        }
        let (req, id) = match Request::parse_with_id(&line) {
            Err(msg) => {
                send_event(&writer, &event::rejected(&msg))?;
                continue;
            }
            Ok(parsed) => parsed,
        };
        match req {
            Request::Status => send_event(&writer, &event::with_id(status_json(state), id))?,
            Request::Metrics => send_event(
                &writer,
                &event::with_id(event::metrics(&satpg_trace::metrics().snapshot()), id),
            )?,
            Request::Shutdown => {
                state.shutdown.store(true, Ordering::SeqCst);
                state.queue_cv.notify_all();
                let ack = send_event(&writer, &event::with_id(event::shutdown_ok(), id));
                // Wake the accept loop, even when the ack failed.
                let _ = connect(&state.wake_addr);
                return ack;
            }
            Request::Enlist => send_event(&writer, &event::with_id(event::enlisted(), id))?,
            Request::Broadcast { shard, class, test } => {
                let session = sessions.lock().expect("sessions lock").get(&shard).cloned();
                // A finished (or never-started) session is not an error:
                // completion races make stale relays routine, and the
                // coordinator's merge recomputes anything a missed relay
                // would have saved.
                let known = match session {
                    Some(s) => {
                        s.broadcasts
                            .write()
                            .expect("test log lock")
                            .push((class, test));
                        true
                    }
                    None => false,
                };
                send_event(
                    &writer,
                    &event::with_id(event::broadcast_ok(shard, known), id),
                )?;
            }
            Request::ShardSubmit(spec) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    send_event(
                        &writer,
                        &event::with_id(event::rejected("shutting down"), id),
                    )?;
                    continue;
                }
                // Admission control mirrors the job queue's backpressure:
                // a rejected shard is requeued by the coordinator.
                if state.shards_running.fetch_add(1, Ordering::SeqCst) >= state.cfg.max_shards {
                    state.shards_running.fetch_sub(1, Ordering::SeqCst);
                    send_event(
                        &writer,
                        &event::with_id(
                            event::rejected(&format!("shard capacity ({})", state.cfg.max_shards)),
                            id,
                        ),
                    )?;
                    continue;
                }
                let shard = id.unwrap_or_else(|| state.next_job.fetch_add(1, Ordering::SeqCst));
                let session = Arc::new(ShardSession {
                    broadcasts: RwLock::new(Vec::new()),
                });
                sessions
                    .lock()
                    .expect("sessions lock")
                    .insert(shard, session.clone());
                send_event(
                    &writer,
                    &event::with_id(event::shard_accepted(shard, spec.classes.len()), id),
                )?;
                let state = state.clone();
                let writer = writer.clone();
                let sessions = sessions.clone();
                // Its own thread, not the job pool: shards must not
                // deadlock behind queued local jobs (or each other) on a
                // daemon that serves both roles.
                std::thread::spawn(move || {
                    let _slot = ShardSlot(state.clone(), sessions, shard);
                    execute_shard(&state, &writer, shard, id, &spec, &session);
                });
            }
            Request::Submit(spec) => {
                if state.shutdown.load(Ordering::SeqCst) {
                    state.jobs_rejected.fetch_add(1, Ordering::SeqCst);
                    send_event(
                        &writer,
                        &event::with_id(event::rejected("shutting down"), id),
                    )?;
                    continue;
                }
                let (tx, rx) = mpsc::channel::<Json>();
                let accepted = {
                    let mut q = state.queue.lock().expect("queue lock");
                    if q.len() >= state.cfg.queue_depth {
                        None
                    } else {
                        let jid = state.next_job.fetch_add(1, Ordering::SeqCst);
                        q.push_back(QueuedJob {
                            id: jid,
                            spec: *spec,
                            tx,
                            enqueued: Instant::now(),
                        });
                        // Counted while the queue lock is held: an
                        // executor can only pop (and decrement) after
                        // this lock round, so the gauge never wraps.
                        state.jobs_queued.fetch_add(1, Ordering::SeqCst);
                        satpg_trace::metrics()
                            .gauge("serve.queue_depth")
                            .set(q.len() as i64);
                        Some((jid, q.len()))
                    }
                };
                match accepted {
                    None => {
                        state.jobs_rejected.fetch_add(1, Ordering::SeqCst);
                        send_event(
                            &writer,
                            &event::with_id(
                                event::rejected(&format!(
                                    "queue full (depth {})",
                                    state.cfg.queue_depth
                                )),
                                id,
                            ),
                        )?;
                    }
                    Some((jid, depth)) => {
                        state.queue_cv.notify_one();
                        send_event(&writer, &event::with_id(event::accepted(jid, depth), id))?;
                        // Stream until the executor drops the sender
                        // (after the final report/error event).  The
                        // streaming gauge keeps shutdown from exiting
                        // the process before this flush completes.
                        state.streaming.fetch_add(1, Ordering::SeqCst);
                        let mut io_result = Ok(());
                        for ev in rx {
                            if let Err(e) = send_event(&writer, &event::with_id(ev, id)) {
                                io_result = Err(e);
                                break;
                            }
                        }
                        state.streaming.fetch_sub(1, Ordering::SeqCst);
                        io_result?;
                    }
                }
            }
        }
    }
}

/// A running shard session's `max_shards` slot: dropping it, also when
/// the session unwinds, ends the session and frees the slot.
struct ShardSlot(Arc<State>, Arc<Mutex<HashMap<u64, Arc<ShardSession>>>>, u64);

impl Drop for ShardSlot {
    fn drop(&mut self) {
        let mut sessions = self.1.lock().unwrap_or_else(PoisonError::into_inner);
        sessions.remove(&self.2);
        self.0.shards_running.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Runs one fleet shard on the engine's own class-search loop
/// ([`search_classes`]): one worker over a one-deque queue holding the
/// assigned classes in ascending serial order, with the session's test
/// log as its broadcast log.  Each verdict streams as a `shard_verdict`
/// event.  The loop screens the backlog before each class against the
/// shard's own finds and the coordinator's relays alike, by the engine
/// worker's rule, so the coordinator's serial merge replay re-derives
/// every drop.  The worker's telemetry lands in the metrics registry as
/// the `engine.*` worker counters.
fn execute_shard(
    state: &Arc<State>,
    writer: &Arc<Mutex<Conn>>,
    shard: u64,
    id: Option<u64>,
    spec: &ShardSpec,
    session: &Arc<ShardSession>,
) {
    let reply = |ev: Json| {
        let _ = send_event(writer, &event::with_id(ev, id));
    };

    let span = satpg_trace::span!("fleet.shard", shard = shard, classes = spec.classes.len());
    let ckey = fnv64(spec.job.circuit.cache_text().as_bytes());
    let inputs = match job_inputs(state, &spec.job, ckey, 1, |_, _| {}) {
        Ok(inputs) => inputs,
        Err(msg) => return reply(event::rejected(&msg)),
    };
    let plan = FaultPlan::new(&inputs.ckt, &inputs.faults, inputs.acfg.collapse);
    if spec.classes.iter().any(|&c| c >= plan.len()) {
        return reply(event::rejected(&format!(
            "class index out of range (plan has {} classes)",
            plan.len()
        )));
    }

    let m = satpg_trace::metrics();
    m.counter("fleet.shards_executed").inc();
    let cfg = EngineConfig {
        atpg: inputs.acfg,
        workers: 1,
        ..EngineConfig::default()
    };
    let stats = search_classes(
        &inputs.ckt,
        &inputs.cssg,
        &plan,
        &cfg,
        &ShardedQueues::new(1, &spec.classes),
        0,
        &session.broadcasts,
        span.id(),
        &mut |ci, verdict| {
            reply(event::shard_verdict(shard, ci, &verdict));
            m.counter("fleet.shard_verdicts").inc();
        },
    );
    reply(event::shard_result(
        shard,
        stats.searched,
        stats.broadcast_drops,
    ));
}
