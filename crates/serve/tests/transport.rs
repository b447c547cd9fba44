//! Transport lifecycle tests: a campaign leaves no reader thread behind,
//! the coordinator times every shard round trip, and a daemon bound to
//! an unspecified address still stops promptly on `shutdown`.
//!
//! The fleet tests hold [`FLEET`] because both read process-wide state
//! (the thread list, the metrics registry) that a concurrent campaign in
//! this binary would disturb.

use satpg_core::json::Json;
use satpg_serve::{run_fleet, CircuitSpec, Client, FleetConfig, JobSpec, ServeConfig, Server};
use std::sync::mpsc;
use std::sync::Mutex;
use std::thread;
use std::time::{Duration, Instant};

static FLEET: Mutex<()> = Mutex::new(());

fn start(cfg: ServeConfig) -> (String, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(cfg).expect("bind");
    let addr = server.local_addr();
    let handle = thread::spawn(move || server.run());
    (addr, handle)
}

/// converta with the random stage off, so every fault class is shipped
/// to the peers.
fn spec() -> JobSpec {
    JobSpec {
        workers: 1,
        no_random: true,
        ..JobSpec::new(CircuitSpec::Bench {
            name: "converta".to_string(),
            style: "si".to_string(),
        })
    }
}

fn shutdown(addr: &str, handle: thread::JoinHandle<std::io::Result<()>>) {
    Client::connect(addr)
        .expect("connect")
        .shutdown()
        .expect("shutdown");
    handle.join().expect("daemon thread").expect("daemon run");
}

/// Live threads of this process named `fleet-rx` (the coordinator's
/// per-peer reader threads).
#[cfg(target_os = "linux")]
fn fleet_rx_threads() -> usize {
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return 0;
    };
    tasks
        .flatten()
        .filter(|t| {
            std::fs::read_to_string(t.path().join("comm"))
                .is_ok_and(|comm| comm.trim_end() == "fleet-rx")
        })
        .count()
}

#[cfg(target_os = "linux")]
#[test]
fn campaigns_join_their_reader_threads() {
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
    use std::sync::Arc;

    let _fleet = FLEET.lock().unwrap_or_else(|e| e.into_inner());
    let peers: Vec<_> = (0..2).map(|_| start(ServeConfig::default())).collect();
    let fc = FleetConfig {
        peers: peers.iter().map(|(a, _)| a.clone()).collect(),
        chunk: 1,
        ..FleetConfig::default()
    };
    // A sampler proves the readers carry the name the assertion looks
    // for, so the check below cannot pass vacuously.
    let running = Arc::new(AtomicBool::new(true));
    let seen = Arc::new(AtomicUsize::new(0));
    let sampler = {
        let (running, seen) = (running.clone(), seen.clone());
        thread::spawn(move || {
            while running.load(Ordering::SeqCst) {
                seen.fetch_max(fleet_rx_threads(), Ordering::SeqCst);
                thread::sleep(Duration::from_micros(200));
            }
        })
    };
    for i in 0..20 {
        let out = run_fleet(&spec(), &fc).expect("campaign runs");
        assert!(out.stats.shards > 0, "campaign {i} shipped no shard");
        // A joined thread can outlive its join by the few microseconds
        // the kernel needs to reap it; a reader left blocked on an open
        // socket would stay until the peer closed it.
        let deadline = Instant::now() + Duration::from_millis(10);
        while fleet_rx_threads() > 0 && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(
            fleet_rx_threads(),
            0,
            "campaign {i} returned with fleet-rx threads alive"
        );
    }
    running.store(false, Ordering::SeqCst);
    sampler.join().unwrap();
    assert!(
        seen.load(Ordering::SeqCst) >= 1,
        "no fleet-rx thread was ever observed during a campaign"
    );
    for (addr, handle) in peers {
        shutdown(&addr, handle);
    }
}

fn rtt_count(metrics: &Json) -> usize {
    metrics
        .get("histograms")
        .and_then(|h| h.get("fleet.shard_rtt_us"))
        .and_then(|h| h.get("count"))
        .and_then(Json::as_usize)
        .unwrap_or(0)
}

#[test]
fn coordinator_records_one_rtt_per_shard() {
    let _fleet = FLEET.lock().unwrap_or_else(|e| e.into_inner());
    let (p0, h0) = start(ServeConfig::default());
    let (p1, h1) = start(ServeConfig::default());
    let (coord, hc) = start(ServeConfig {
        fleet: FleetConfig {
            peers: vec![p0.clone(), p1.clone()],
            chunk: 1,
            ..FleetConfig::default()
        },
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&coord).expect("connect coordinator");
    let before = rtt_count(&client.metrics().expect("metrics"));
    let outcome = client.submit(spec()).expect("campaign completes");
    let after = client.metrics().expect("metrics");
    let stats = outcome.report.get("fleet").expect("fleet stats");
    let shards = stats.get("shards").and_then(Json::as_usize).unwrap();
    assert_eq!(stats.get("retries").and_then(Json::as_usize), Some(0));
    assert!(shards > 0, "{stats}");
    assert_eq!(
        rtt_count(&after) - before,
        shards,
        "one fleet.shard_rtt_us sample per dispatched shard: {after}"
    );
    drop(client);
    shutdown(&coord, hc);
    shutdown(&p0, h0);
    shutdown(&p1, h1);
}

fn counter(metrics: &Json, name: &str) -> usize {
    metrics
        .get("counters")
        .and_then(|c| c.get(name))
        .and_then(Json::as_usize)
        .unwrap_or(0)
}

/// A peer's shards run the engine's class-search loop and record its
/// worker telemetry: across one healthy campaign, every remote verdict
/// is one `engine.searched` in the (process-wide) registry.
#[test]
fn peers_record_their_worker_telemetry() {
    let _fleet = FLEET.lock().unwrap_or_else(|e| e.into_inner());
    let (p0, h0) = start(ServeConfig::default());
    let (p1, h1) = start(ServeConfig::default());
    let fc = FleetConfig {
        peers: vec![p0.clone(), p1.clone()],
        chunk: 1,
        ..FleetConfig::default()
    };
    let mut client = Client::connect(&p0).expect("connect peer");
    let before = counter(&client.metrics().expect("metrics"), "engine.searched");
    let out = run_fleet(&spec(), &fc).expect("campaign runs");
    let after = client.metrics().expect("metrics");
    assert_eq!(out.stats.peer_deaths, 0, "{:?}", out.stats);
    assert!(out.stats.remote_verdicts > 0, "{:?}", out.stats);
    assert_eq!(
        counter(&after, "engine.searched") - before,
        out.stats.remote_verdicts,
        "one engine.searched per remote verdict: {after}"
    );
    drop(client);
    shutdown(&p0, h0);
    shutdown(&p1, h1);
}

#[test]
fn wildcard_bind_stops_promptly_on_shutdown() {
    let server = Server::bind(ServeConfig {
        addr: "0.0.0.0:0".to_string(),
        ..ServeConfig::default()
    })
    .expect("bind 0.0.0.0");
    let port = server
        .local_addr()
        .rsplit_once(':')
        .map(|(_, p)| p.to_string())
        .expect("host:port");
    let (done_tx, done_rx) = mpsc::channel();
    thread::spawn(move || {
        let _ = done_tx.send(server.run());
    });
    Client::connect(&format!("127.0.0.1:{port}"))
        .expect("connect")
        .shutdown()
        .expect("shutdown acknowledged");
    let t0 = Instant::now();
    done_rx
        .recv_timeout(Duration::from_secs(2))
        .expect("Server::run returns within 2 s of shutdown")
        .expect("clean exit");
    assert!(t0.elapsed() < Duration::from_secs(2));
}
