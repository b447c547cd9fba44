//! The fleet coordinator: one ATPG campaign partitioned across N peer
//! daemons over the ordinary JSON-lines protocol.
//!
//! The shape of the campaign mirrors the in-process engine exactly —
//! prepare (fault plan + random stage), distribute the open classes,
//! deterministically merge — with the distribution step swapped from a
//! thread pool to a pool of remote daemons:
//!
//! * each peer gets an `enlist` handshake, then `shard_submit` requests
//!   carrying contiguous runs of serial class indices;
//! * peers stream back one `shard_verdict` per class; a `Detected`
//!   verdict is relayed to every other busy peer as a `broadcast`, so
//!   remote workers drop classes the test already covers (the engine
//!   worker's own screening rule);
//! * a peer that dies, stalls past the timeout, or replies garbage is
//!   declared lost for the rest of the campaign: its unfinished classes
//!   requeue for the survivors.
//!
//! Correctness never depends on any of that machinery.  A class verdict
//! is a pure function of `(circuit, CSSG, fault, config)`, and
//! [`Campaign::finish`] replays the exact serial control flow,
//! recomputing any class the fleet failed to deliver.  Peer loss —
//! including losing *every* peer — therefore moves work, never results:
//! the report stays byte-identical to a serial run.  See
//! `crates/serve/DESIGN.md` for the full argument.

use crate::job::{job_atpg_config, resolve_circuit};
use crate::net::{connect, read_line_capped, read_line_until, write_line, Conn};
use crate::proto::{
    verdict_from_json, JobSpec, Request, ShardSpec, MAX_LINE_BYTES, PROTOCOL_VERSION,
};
use satpg_core::json::Json;
use satpg_core::stages::Campaign;
use satpg_core::{
    build_cssg, faults_for, AtpgConfig, AtpgReport, Cssg, Fault, FaultStatus, TestSequence,
};
use satpg_netlist::Circuit;
use std::collections::VecDeque;
use std::io::{self, BufReader};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Coordinator-side fleet tuning.
#[derive(Clone, Debug)]
pub struct FleetConfig {
    /// Peer daemon addresses (`host:port` or `unix:/path`).
    pub peers: Vec<String>,
    /// Classes per shard; `0` sizes shards so each live peer sees about
    /// three of them (enough granularity to rebalance around a loss
    /// without drowning the wire in tiny submissions).
    pub chunk: usize,
    /// Milliseconds a peer may stay silent, while it holds a shard or
    /// before it answers `enlist`, before it is declared lost.
    pub peer_timeout_ms: u64,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            peers: Vec::new(),
            chunk: 0,
            peer_timeout_ms: 10_000,
        }
    }
}

/// What the distribution phase did — the observability half of the
/// fleet's contract (the report itself never varies with any of this).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FleetStats {
    /// Configured peer count.
    pub peers: usize,
    /// Shards dispatched (requeues included).
    pub shards: usize,
    /// Shards requeued because their peer was lost mid-flight.
    pub retries: usize,
    /// Peer-loss events (initial connection failures included).
    pub peer_deaths: usize,
    /// Class verdicts delivered by peers and consumed by the merge.
    pub remote_verdicts: usize,
    /// Cross-peer test broadcasts relayed.
    pub broadcasts_relayed: usize,
    /// Classes the merge re-searched locally (missing or dropped
    /// verdicts); the serial-fallback safety net in action.
    pub merge_fallbacks: usize,
    /// Classes never dispatched because every peer was lost.
    pub unassigned_classes: usize,
}

impl FleetStats {
    /// The machine-readable form, embedded in the daemon's `report`
    /// event and the CLI's `--json` output.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            ("peers".to_string(), Json::int(self.peers)),
            ("shards".to_string(), Json::int(self.shards)),
            ("retries".to_string(), Json::int(self.retries)),
            ("peer_deaths".to_string(), Json::int(self.peer_deaths)),
            (
                "remote_verdicts".to_string(),
                Json::int(self.remote_verdicts),
            ),
            (
                "broadcasts_relayed".to_string(),
                Json::int(self.broadcasts_relayed),
            ),
            (
                "merge_fallbacks".to_string(),
                Json::int(self.merge_fallbacks),
            ),
            (
                "unassigned_classes".to_string(),
                Json::int(self.unassigned_classes),
            ),
        ])
    }
}

/// A finished fleet campaign.
#[derive(Clone, Debug)]
pub struct FleetOutcome {
    /// The merged report — byte-identical (timing aside) to a serial
    /// [`satpg_core::run_atpg`] with the same spec.
    pub report: AtpgReport,
    /// Distribution telemetry.
    pub stats: FleetStats,
}

/// Runs one job as a fleet campaign from a bare spec: resolves the
/// circuit, builds the CSSG locally (the coordinator needs it for the
/// random stage and the merge anyway), then distributes and merges.
///
/// # Errors
///
/// Circuit resolution and CSSG construction failures, plus the empty
/// abstraction (`NoValidVectors`) — exactly the failures a serial run
/// reports for the same spec.  Peer failures are *not* errors.
pub fn run_fleet(spec: &JobSpec, fc: &FleetConfig) -> Result<FleetOutcome, String> {
    let ckt = resolve_circuit(&spec.circuit)?;
    let acfg = job_atpg_config(spec, &ckt);
    let t0 = Instant::now();
    let cssg = build_cssg(&ckt, &acfg.cssg).map_err(|e| e.to_string())?;
    let us_cssg = t0.elapsed().as_micros();
    if cssg.num_edges() == 0 {
        return Err(satpg_core::CoreError::NoValidVectors.to_string());
    }
    let faults = faults_for(&ckt, acfg.fault_model);
    Ok(run_fleet_built(
        &ckt, &cssg, &faults, &acfg, spec, fc, us_cssg,
    ))
}

/// [`run_fleet`] over prebuilt artifacts — the entry point the daemon's
/// coordinator path uses, so its circuit/CSSG caches keep working.
pub fn run_fleet_built(
    ckt: &Circuit,
    cssg: &Cssg,
    faults: &[Fault],
    acfg: &AtpgConfig,
    spec: &JobSpec,
    fc: &FleetConfig,
    us_cssg: u128,
) -> FleetOutcome {
    let m = satpg_trace::metrics();
    m.counter("fleet.campaigns").inc();
    let _span = satpg_trace::span!(
        "fleet.run",
        peers = fc.peers.len(),
        circuit = ckt.name().to_string()
    );
    let campaign = Campaign::prepare(ckt, cssg, faults, acfg);
    let pending = campaign.state.open_classes();
    let mut verdicts: Vec<Option<FaultStatus>> = vec![None; campaign.plan.len()];
    let mut stats = FleetStats {
        peers: fc.peers.len(),
        ..FleetStats::default()
    };
    let t0 = Instant::now();
    if !pending.is_empty() && !fc.peers.is_empty() {
        distribute(spec, acfg, fc, &pending, &mut verdicts, &mut stats);
    }
    let us_distributed = t0.elapsed().as_micros();
    let merged = campaign.finish(us_cssg, us_distributed, &mut |ci| verdicts[ci].take());
    stats.merge_fallbacks = merged.searched;
    m.counter("fleet.merge_fallbacks")
        .add(merged.searched as u64);
    FleetOutcome {
        report: merged.report,
        stats,
    }
}

/// One reply line of a peer, as its reader thread forwards it to the
/// coordinator loop (tagged with the peer's index).  Every line is one
/// message, so every line proves its peer alive.
enum PeerMsg {
    /// One class verdict.
    Verdict { class: usize, status: FaultStatus },
    /// The in-flight shard is finished.
    ShardDone,
    /// An acknowledgement that carries no coordinator state.
    Ack,
    /// The peer is lost: EOF, a read error, garbage, or refused work.
    Dead(String),
}

/// Coordinator-side view of one enlisted peer.
struct Peer {
    addr: String,
    /// Write half of the connection; `None` once the peer is lost, which
    /// it stays for the rest of the campaign.
    writer: Option<Conn>,
    /// In-flight shard id and its dispatch time, if any.
    shard: Option<(u64, Instant)>,
    /// The in-flight shard's classes (for requeue on loss).
    chunk: Vec<usize>,
    /// When the loop last dispatched the peer a shard or handled a
    /// message from it: the stall watchdog's clock.
    heard: Instant,
}

/// Connects to a peer and runs the `enlist` handshake, reading its one
/// reply by a deadline `timeout` away.  Returns the write half and a
/// blocking reader that still buffers any handshake overshoot.
fn enlist(addr: &str, timeout: Duration) -> Result<(Conn, BufReader<Conn>), String> {
    let conn = connect(addr).map_err(|e| format!("{addr}: connect: {e}"))?;
    let mut writer = conn
        .try_clone()
        .map_err(|e| format!("{addr}: clone: {e}"))?;
    let mut reader = BufReader::new(conn);
    write_line(&mut writer, &Request::Enlist.to_json_value().render())
        .map_err(|e| format!("{addr}: enlist write: {e}"))?;
    // A deadline, not just a per-read timeout: a peer trickling bytes
    // would otherwise hold the handshake for as long as it likes.
    let line = read_line_until(&mut reader, MAX_LINE_BYTES, Instant::now() + timeout)
        .map_err(|e| match e.kind() {
            io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut => {
                format!("{addr}: enlist timed out")
            }
            _ => format!("{addr}: enlist read: {e}"),
        })?
        .ok_or_else(|| format!("{addr}: closed during enlist"))?;
    let v = Json::parse(&line).map_err(|e| format!("{addr}: enlist reply: {e}"))?;
    match v.get("event").and_then(Json::as_str) {
        Some("enlisted") => {
            let proto = v.get("protocol").and_then(Json::as_usize).unwrap_or(0);
            if proto != PROTOCOL_VERSION as usize {
                return Err(format!(
                    "{addr}: speaks protocol {proto}, need {PROTOCOL_VERSION}"
                ));
            }
        }
        other => return Err(format!("{addr}: unexpected {other:?} during enlist")),
    }
    Ok((writer, reader))
}

/// The per-peer reader thread: forwards every reply line to the
/// coordinator loop as one [`PeerMsg`], and judges nothing but the line
/// itself.  Ends after its first `Dead` — EOF included, which the
/// coordinator causes by shutting the socket down when it loses the
/// peer or ends the campaign.
fn reader_loop(mut reader: BufReader<Conn>, peer: usize, tx: mpsc::Sender<(usize, PeerMsg)>) {
    loop {
        let msg = match read_line_capped(&mut reader, MAX_LINE_BYTES) {
            Ok(Some(line)) => parse_reply(&line),
            Ok(None) => PeerMsg::Dead("connection closed".to_string()),
            Err(e) => PeerMsg::Dead(format!("read: {e}")),
        };
        let dead = matches!(msg, PeerMsg::Dead(_));
        if tx.send((peer, msg)).is_err() || dead {
            return;
        }
    }
}

/// Parses one reply line.  A peer speaking garbage cannot be trusted
/// with work, so anything unexpected is a death.
fn parse_reply(line: &str) -> PeerMsg {
    let v = match Json::parse(line) {
        Ok(v) => v,
        Err(e) => return PeerMsg::Dead(format!("garbage reply: {e}")),
    };
    match v.get("event").and_then(Json::as_str) {
        Some("shard_verdict") => {
            let class = v.get("class").and_then(Json::as_usize);
            match (class, verdict_from_json(&v)) {
                (Some(class), Ok(status)) => PeerMsg::Verdict { class, status },
                (_, Err(e)) => PeerMsg::Dead(format!("bad verdict: {e}")),
                (None, _) => PeerMsg::Dead("verdict without class".to_string()),
            }
        }
        Some("shard_result") => PeerMsg::ShardDone,
        // Handshake echoes and acks carry no coordinator state;
        // `status`/`metrics` could share the socket.
        Some("enlisted" | "shard_accepted" | "broadcast_ok" | "status" | "metrics") => PeerMsg::Ack,
        Some("rejected" | "error") => {
            let why = v
                .get("reason")
                .or_else(|| v.get("message"))
                .and_then(Json::as_str)
                .unwrap_or("unspecified");
            PeerMsg::Dead(format!("peer refused work: {why}"))
        }
        other => PeerMsg::Dead(format!("unknown event {other:?}")),
    }
}

/// Logs and counts the loss of the peer at `addr`.
fn note_lost(addr: &str, reason: &str, stats: &mut FleetStats) {
    eprintln!("satpg fleet: peer {addr} lost: {reason}");
    stats.peer_deaths += 1;
    satpg_trace::metrics().counter("fleet.peer_deaths").inc();
}

/// Declares peer `q` lost for the rest of the campaign and requeues
/// whatever of its in-flight shard still lacks verdicts.  A peer that is
/// already lost is left alone: its reader's report of the EOF that
/// losing it caused is a straggler.
fn kill_peer(
    peers: &mut [Peer],
    q: usize,
    reason: &str,
    queue: &mut VecDeque<Vec<usize>>,
    verdicts: &[Option<FaultStatus>],
    stats: &mut FleetStats,
) {
    let p = &mut peers[q];
    let Some(w) = p.writer.take() else { return };
    // Shut the socket down: the reader owns a clone, so dropping this
    // handle would not close it, and EOF is what ends the reader.
    let _ = w.shutdown();
    note_lost(&p.addr, reason, stats);
    if p.shard.take().is_some() {
        let chunk = std::mem::take(&mut p.chunk);
        // Verdicts that already arrived are kept — work is requeued,
        // never redone.
        let remaining: Vec<usize> = chunk
            .into_iter()
            .filter(|&c| verdicts[c].is_none())
            .collect();
        if !remaining.is_empty() {
            stats.retries += 1;
            satpg_trace::metrics().counter("fleet.retries").inc();
            queue.push_back(remaining);
        }
    }
}

/// Fans the open classes out across the peers, collecting verdicts into
/// `verdicts`.  Never fails: every loss path either requeues for the
/// survivors or leaves classes unassigned for the merge to recompute.
fn distribute(
    spec: &JobSpec,
    acfg: &AtpgConfig,
    fc: &FleetConfig,
    pending: &[usize],
    verdicts: &mut [Option<FaultStatus>],
    stats: &mut FleetStats,
) {
    let m = satpg_trace::metrics();
    let rtt = m.histogram("fleet.shard_rtt_us");
    let _span = satpg_trace::span!(
        "fleet.distribute",
        classes = pending.len(),
        peers = fc.peers.len()
    );
    let timeout = Duration::from_millis(fc.peer_timeout_ms.max(1));
    let chunk = if fc.chunk > 0 {
        fc.chunk
    } else {
        pending.len().div_ceil(fc.peers.len() * 3).max(1)
    };
    // Contiguous ascending runs: each shard self-screens (a found test
    // drops the shard's own later classes) without any cross-chunk
    // bookkeeping, because all of a chunk's classes ascend.
    let mut queue: VecDeque<Vec<usize>> = pending.chunks(chunk).map(<[usize]>::to_vec).collect();
    let (tx, rx) = mpsc::channel::<(usize, PeerMsg)>();
    // Each address gets one `enlist`; a peer that fails it is lost for
    // the campaign, and the others enlist with a reader thread each
    // (named `fleet-rx`, joined when the campaign ends).
    let mut peers: Vec<Peer> = Vec::new();
    let mut readers: Vec<JoinHandle<()>> = Vec::new();
    for addr in &fc.peers {
        let (writer, reader) = match enlist(addr, timeout) {
            Ok(link) => link,
            Err(reason) => {
                note_lost(addr, &reason, stats);
                continue;
            }
        };
        let (q, tx) = (peers.len(), tx.clone());
        readers.push(
            std::thread::Builder::new()
                .name("fleet-rx".to_string())
                .spawn(move || reader_loop(reader, q, tx))
                .expect("spawn fleet reader thread"),
        );
        peers.push(Peer {
            addr: addr.clone(),
            writer: Some(writer),
            shard: None,
            chunk: Vec::new(),
            heard: Instant::now(),
        });
    }

    let mut next_shard: u64 = 1;
    loop {
        // Hand every idle live peer the next queued shard.
        for q in 0..peers.len() {
            if peers[q].writer.is_none() || peers[q].shard.is_some() {
                continue;
            }
            let Some(classes) = queue.pop_front() else {
                break;
            };
            let shard = next_shard;
            next_shard += 1;
            let req = Request::ShardSubmit(Box::new(ShardSpec {
                job: spec.clone(),
                classes: classes.clone(),
            }));
            let line = req.to_json_with_id(Some(shard)).render();
            match write_line(peers[q].writer.as_mut().expect("live peer"), &line) {
                Ok(()) => {
                    let now = Instant::now();
                    peers[q].shard = Some((shard, now));
                    peers[q].chunk = classes;
                    peers[q].heard = now;
                    stats.shards += 1;
                    m.counter("fleet.shards").inc();
                }
                Err(e) => {
                    queue.push_front(classes);
                    kill_peer(
                        &mut peers,
                        q,
                        &format!("shard write: {e}"),
                        &mut queue,
                        verdicts,
                        stats,
                    );
                }
            }
        }

        let inflight = peers.iter().any(|p| p.shard.is_some());
        if queue.is_empty() && !inflight {
            break;
        }
        if peers.iter().all(|p| p.writer.is_none()) {
            // The whole fleet is gone.  Count what never ran and let the
            // merge recompute it locally.
            stats.unassigned_classes += queue.iter().map(Vec::len).sum::<usize>()
                + peers
                    .iter()
                    .flat_map(|p| p.chunk.iter())
                    .filter(|&&c| verdicts[c].is_none())
                    .count();
            break;
        }

        // Wait up to 50 ms for a message, then drain whatever else is
        // queued before the watchdog looks: a queued message proves its
        // peer alive, however late the loop gets to it.
        let first = match rx.recv_timeout(Duration::from_millis(50)) {
            Ok(msg) => Some(msg),
            Err(mpsc::RecvTimeoutError::Timeout) => None,
            // Unreachable while we hold `tx`, but harmless.
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        };
        for (peer, msg) in first.into_iter().chain(rx.try_iter()) {
            peers[peer].heard = Instant::now();
            match msg {
                PeerMsg::Verdict { class, status } => {
                    if class < verdicts.len() && verdicts[class].is_none() {
                        // Relay a found test to every other busy peer so
                        // its remaining classes can be screened.  Verdicts
                        // are pure, so a missed or raced relay costs time
                        // only.
                        if acfg.fault_sim {
                            if let FaultStatus::Detected { sequence } = &status {
                                relay(
                                    &mut peers, peer, class, sequence, &mut queue, verdicts, stats,
                                );
                            }
                        }
                        verdicts[class] = Some(status);
                        stats.remote_verdicts += 1;
                        m.counter("fleet.remote_verdicts").inc();
                    }
                }
                PeerMsg::ShardDone => {
                    // A lost peer has no shard or chunk left, so its
                    // stragglers change nothing here.
                    let p = &mut peers[peer];
                    if let Some((_, sent)) = p.shard.take() {
                        rtt.record(sent.elapsed().as_micros() as u64);
                    }
                    p.chunk.clear();
                }
                PeerMsg::Ack => {}
                PeerMsg::Dead(reason) => {
                    kill_peer(&mut peers, peer, &reason, &mut queue, verdicts, stats);
                }
            }
        }

        // The stall watchdog: a live peer that holds a shard and has been
        // silent past the timeout is lost, though its socket is open.
        for q in 0..peers.len() {
            let silent = peers[q].heard.elapsed();
            if peers[q].writer.is_some() && peers[q].shard.is_some() && silent > timeout {
                let reason = format!(
                    "no reply for {}ms with a shard in flight",
                    silent.as_millis()
                );
                kill_peer(&mut peers, q, &reason, &mut queue, verdicts, stats);
            }
        }
    }

    // Close every live link so its reader hits EOF (and the peer's
    // connection thread ends), then join the readers: a campaign leaves
    // no thread or socket behind.
    for w in peers.iter().filter_map(|p| p.writer.as_ref()) {
        let _ = w.shutdown();
    }
    for h in readers {
        let _ = h.join();
    }
}

/// Relays a `Detected` test from `from` to every other peer with a
/// shard in flight.  A failed write is a peer death (the socket is
/// broken for shard traffic too).
fn relay(
    peers: &mut [Peer],
    from: usize,
    class: usize,
    test: &TestSequence,
    queue: &mut VecDeque<Vec<usize>>,
    verdicts: &[Option<FaultStatus>],
    stats: &mut FleetStats,
) {
    for q in 0..peers.len() {
        if q == from || peers[q].writer.is_none() {
            continue;
        }
        let Some((shard, _)) = peers[q].shard else {
            continue;
        };
        let req = Request::Broadcast {
            shard,
            class,
            test: test.clone(),
        };
        match write_line(
            peers[q].writer.as_mut().expect("live peer"),
            &req.to_json_value().render(),
        ) {
            Ok(()) => {
                stats.broadcasts_relayed += 1;
                satpg_trace::metrics().counter("fleet.broadcasts").inc();
            }
            Err(e) => kill_peer(
                peers,
                q,
                &format!("broadcast write: {e}"),
                queue,
                verdicts,
                stats,
            ),
        }
    }
}
