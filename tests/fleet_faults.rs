//! The fleet fault battery: a 3-peer campaign where one peer sits
//! behind a [`FaultyPeer`] proxy that kills, drops, delays, truncates
//! or garbles the connection at a deterministic protocol point.  Every
//! scenario must (a) lose exactly that peer, once, for the rest of the
//! campaign, (b) requeue its lost shard (nonzero retry counters in the
//! report, the daemon `status` and the metrics registry) and (c) still
//! produce a report byte-identical to serial `run_atpg` — peer loss
//! moves work, never results (`crates/serve/DESIGN.md`).  A peer that
//! cannot be reached at all is lost at `enlist`, before any shard.

use satpg::core::json::Json;
use satpg::core::run_atpg;
use satpg::serve::testing::{start_daemon, timing_free_report, FaultyPeer, Mischief};
use satpg::serve::{
    job_atpg_config, resolve_circuit, run_fleet, CircuitSpec, Client, FleetConfig, JobSpec,
    ServeConfig,
};
use std::time::{Duration, Instant};

/// The campaign under test: converta (`si`) with the random stage off,
/// so every fault class reaches the distributed phase — the proxy is
/// then guaranteed in-flight shard traffic to strike.
fn spec() -> JobSpec {
    spec_of("converta")
}

/// Benchmark `name` (`si`) with the random stage off.
fn spec_of(name: &str) -> JobSpec {
    JobSpec {
        workers: 2,
        no_random: true,
        ..JobSpec::new(CircuitSpec::Bench {
            name: name.to_string(),
            style: "si".to_string(),
        })
    }
}

/// The serial baseline under the config the daemon derives from
/// [`spec`].
fn serial_json() -> String {
    serial_json_of(&spec())
}

fn serial_json_of(spec: &JobSpec) -> String {
    let ckt = resolve_circuit(&spec.circuit).expect("the benchmark synthesizes");
    run_atpg(&ckt, &job_atpg_config(spec, &ckt))
        .expect("serial ATPG runs")
        .to_json_value(false)
        .render()
}

/// Runs one coordinated 3-peer campaign with `mischief` injected in
/// front of the first peer; returns the final report event, the
/// coordinator's status snapshot and its metrics snapshot.
fn run_scenario(mischief: Mischief, timeout_ms: u64) -> (Json, Json, Json) {
    let (p0, _) = start_daemon(ServeConfig::default());
    let (p1, _) = start_daemon(ServeConfig::default());
    let (p2, _) = start_daemon(ServeConfig::default());
    let proxy = FaultyPeer::spawn(&p0, mischief).expect("proxy spawns");
    let (coord, coord_handle) = start_daemon(ServeConfig {
        fleet: FleetConfig {
            peers: vec![proxy.addr().to_string(), p1, p2],
            chunk: 2,
            peer_timeout_ms: timeout_ms,
        },
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&coord).expect("connect coordinator");
    let outcome = client.submit(spec()).expect("fleet campaign completes");
    let status = client.status().expect("status");
    let metrics = client.metrics().expect("metrics");
    client.shutdown().expect("shutdown");
    coord_handle
        .join()
        .expect("coordinator thread")
        .expect("coordinator run");
    (outcome.report, status, metrics)
}

/// The campaign's `fleet.<key>` counter from the final report event.
fn fleet_stat(report: &Json, key: &str) -> Option<usize> {
    report
        .get("fleet")
        .and_then(|f| f.get(key))
        .and_then(Json::as_usize)
}

fn assert_survived(scenario: &str, report: &Json, status: &Json, metrics: &Json) {
    assert_eq!(
        serial_json(),
        timing_free_report(report),
        "{scenario}: fleet report must be byte-identical to serial"
    );
    assert_eq!(
        fleet_stat(report, "peer_deaths"),
        Some(1),
        "{scenario}: the proxied peer is lost once and stays lost: {report}"
    );
    let campaign_retries = report
        .get("fleet")
        .and_then(|f| f.get("retries"))
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(
        campaign_retries >= 1,
        "{scenario}: the campaign must have requeued at least one class, got {report}"
    );
    let status_retries = status
        .get("fleet")
        .and_then(|f| f.get("retries"))
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(
        status_retries >= 1,
        "{scenario}: status must expose nonzero fleet.retries, got {status}"
    );
    let metric_retries = metrics
        .get("counters")
        .and_then(|c| c.get("fleet.retries"))
        .and_then(Json::as_usize)
        .unwrap_or(0);
    assert!(
        metric_retries >= 1,
        "{scenario}: the fleet.retries counter must be nonzero"
    );
}

/// Control case: a faithful proxy loses nothing, retries nothing, and
/// the report is still serial-identical.
#[test]
fn faithful_proxy_is_invisible() {
    let (report, _, _) = run_scenario(Mischief::Faithful, 10_000);
    assert_eq!(serial_json(), timing_free_report(&report));
    let retries = report
        .get("fleet")
        .and_then(|f| f.get("retries"))
        .and_then(Json::as_usize)
        .unwrap_or(usize::MAX);
    assert_eq!(retries, 0, "a healthy fleet must not requeue: {report}");
    assert_eq!(
        fleet_stat(&report, "peer_deaths"),
        Some(0),
        "a healthy fleet loses no peer: {report}"
    );
}

/// A peer nobody listens for fails its `enlist` and is lost before it
/// holds any shard: the campaign finishes on the other two peers with
/// nothing requeued and nothing left for the merge to recompute.
#[test]
fn unreachable_peer_is_lost_at_enlist() {
    let (p1, _) = start_daemon(ServeConfig::default());
    let (p2, _) = start_daemon(ServeConfig::default());
    let fc = FleetConfig {
        peers: vec!["127.0.0.1:1".to_string(), p1, p2],
        chunk: 2,
        ..FleetConfig::default()
    };
    let out = run_fleet(&spec(), &fc).expect("fleet campaign completes");
    assert_eq!(serial_json(), out.report.to_json_value(false).render());
    let s = &out.stats;
    assert_eq!(s.peer_deaths, 1, "{s:?}");
    assert_eq!(s.retries, 0, "{s:?}");
    assert_eq!(s.unassigned_classes, 0, "{s:?}");
    assert!(s.remote_verdicts > 0, "the live peers did the work: {s:?}");
}

/// A peer that accepts the connection but never answers is lost at
/// `enlist` once its read times out, long before the reply would come.
/// It held no shard, so nothing is requeued or left unassigned.
#[test]
fn silent_peer_is_lost_at_enlist_within_the_timeout() {
    let delay = Duration::from_secs(3);
    let (p0, _) = start_daemon(ServeConfig::default());
    let (p1, _) = start_daemon(ServeConfig::default());
    let (p2, _) = start_daemon(ServeConfig::default());
    let proxy = FaultyPeer::spawn(&p0, Mischief::DelayAfter { line: 0, delay }).expect("proxy");
    let fc = FleetConfig {
        peers: vec![proxy.addr().to_string(), p1, p2],
        chunk: 2,
        peer_timeout_ms: 300,
    };
    let t0 = Instant::now();
    let out = run_fleet(&spec(), &fc).expect("fleet campaign completes");
    let took = t0.elapsed();
    assert!(
        took < delay,
        "the campaign waited for the silent peer: {took:?}"
    );
    assert_eq!(serial_json(), out.report.to_json_value(false).render());
    let s = &out.stats;
    assert_eq!(s.peer_deaths, 1, "{s:?}");
    assert_eq!(s.retries, 0, "{s:?}");
    assert_eq!(s.unassigned_classes, 0, "{s:?}");
}

/// Silence is counted from a peer's last reply line, not from its
/// shard's dispatch: a peer whose every line arrives within the timeout
/// keeps a shard that outlasts it, and a peer that holds no shard is
/// never stalled however long it stays quiet.
#[test]
fn slow_shard_of_prompt_lines_and_idle_peer_are_kept() {
    let (timeout_ms, gap) = (300, Duration::from_millis(120));
    let (p0, _) = start_daemon(ServeConfig::default());
    let (p1, _) = start_daemon(ServeConfig::default());
    let proxy = FaultyPeer::spawn(
        &p0,
        Mischief::DelayAfter {
            line: 1,
            delay: gap,
        },
    )
    .expect("proxy");
    // One shard, which the proxied peer takes: the other peer enlists
    // and idles for the whole campaign.  mp-forward-pkt searches seven
    // classes to converta's one, so the shard streams seven verdicts.
    let fc = FleetConfig {
        peers: vec![proxy.addr().to_string(), p1],
        chunk: usize::MAX,
        peer_timeout_ms: timeout_ms,
    };
    let spec = spec_of("mp-forward-pkt");
    let out = run_fleet(&spec, &fc).expect("fleet campaign completes");
    assert_eq!(
        serial_json_of(&spec),
        out.report.to_json_value(false).render()
    );
    let s = &out.stats;
    assert_eq!((s.shards, s.peer_deaths, s.retries), (1, 0, 0), "{s:?}");
    // `shard_accepted`, each verdict and `shard_result` arrive `gap`
    // apart, so the shard took over three times the timeout.
    let lines = s.remote_verdicts as u32 + 2;
    assert!(gap * lines > 3 * Duration::from_millis(timeout_ms), "{s:?}");
}

/// The peer process dies mid-shard: one verdict of a two-class shard is
/// delivered (reply line 3), then the connection is severed before the
/// second — the undelivered class must requeue.
#[test]
fn peer_killed_mid_shard() {
    let (report, status, metrics) = run_scenario(Mischief::KillAfter(3), 10_000);
    assert_survived("kill", &report, &status, &metrics);
}

/// The connection drops right after `shard_accepted` (reply line 2):
/// the whole shard is in flight with zero verdicts delivered.
#[test]
fn connection_dropped_before_verdicts() {
    let (report, status, metrics) = run_scenario(Mischief::KillAfter(2), 10_000);
    assert_survived("drop", &report, &status, &metrics);
}

/// The peer stalls: the socket stays open but every verdict arrives
/// seconds late, past the coordinator's in-flight timeout — the
/// watchdog must declare it lost and requeue.
#[test]
fn peer_delayed_past_timeout() {
    let (report, status, metrics) = run_scenario(
        Mischief::DelayAfter {
            line: 2,
            delay: Duration::from_secs(3),
        },
        800,
    );
    assert_survived("delay", &report, &status, &metrics);
}

/// The connection dies mid-line: the first verdict is truncated at its
/// midpoint, leaving the coordinator an unterminated JSON fragment.
#[test]
fn connection_truncated_mid_line() {
    let (report, status, metrics) = run_scenario(Mischief::TruncateAt(3), 10_000);
    assert_survived("truncate", &report, &status, &metrics);
}

/// The peer replies nonsense: the first verdict line is replaced with
/// non-JSON garbage — a speaking-but-insane peer must be declared lost
/// just like a dead one.
#[test]
fn peer_replies_garbage() {
    let (report, status, metrics) = run_scenario(Mischief::GarbageAt(3), 10_000);
    assert_survived("garbage", &report, &status, &metrics);
}
