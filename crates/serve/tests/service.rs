//! Service integration tests: concurrent submissions against a live
//! daemon, result identity with the serial flow, cache hit paths,
//! backpressure and malformed input.

use satpg_core::json::Json;
use satpg_core::run_atpg;
use satpg_serve::testing::{start_daemon, timing_free_report};
use satpg_serve::{job_atpg_config, CircuitSpec, Client, ClientError, JobSpec, ServeConfig};
use std::thread;

fn bench_spec(name: &str) -> JobSpec {
    JobSpec {
        workers: 2,
        ..JobSpec::new(CircuitSpec::Bench {
            name: name.to_string(),
            style: "si".to_string(),
        })
    }
}

/// The serial reference for a bench submission with daemon defaults,
/// serialized without timing.
fn serial_json(name: &str) -> String {
    let spec = bench_spec(name);
    let ckt = satpg_serve::resolve_circuit(&spec.circuit).expect("suite synthesizes");
    run_atpg(&ckt, &job_atpg_config(&spec, &ckt))
        .expect("serial flow runs")
        .to_json_value(false)
        .render()
}

#[test]
fn concurrent_clients_get_serial_identical_reports() {
    let (addr, handle) = start_daemon(ServeConfig {
        pool_workers: 3,
        ..ServeConfig::default()
    });
    // Five concurrent clients; two share a benchmark so the duplicate
    // exercises the cache while the others race it.
    let benches = ["converta", "dff", "seq4", "nowick", "converta"];
    let results: Vec<(String, String)> = thread::scope(|s| {
        let handles: Vec<_> = benches
            .iter()
            .map(|&name| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    // Each client submits twice to exercise per-connection
                    // sequencing as well.
                    let first = client.submit(bench_spec(name)).expect("submit 1");
                    let second = client.submit(bench_spec(name)).expect("submit 2");
                    assert_eq!(
                        timing_free_report(&first.report),
                        timing_free_report(&second.report),
                        "{name}: resubmission changed the verdicts"
                    );
                    (name.to_string(), timing_free_report(&second.report))
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    for (name, daemon) in &results {
        assert_eq!(
            daemon,
            &serial_json(name),
            "{name}: daemon report differs from serial run_atpg"
        );
    }
    let mut client = Client::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    assert_eq!(
        status
            .get("jobs")
            .and_then(|j| j.get("done"))
            .and_then(Json::as_usize),
        Some(benches.len() * 2)
    );
    // 5 distinct (bench, k) jobs → ≥ 5 misses; 10 jobs total → 5 hits.
    let cssgs = status.get("cache").and_then(|c| c.get("cssgs")).unwrap();
    assert!(cssgs.get("hits").and_then(Json::as_usize).unwrap() >= 5);
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn duplicate_submission_hits_the_cssg_cache() {
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");

    let first = client.submit(bench_spec("converta")).expect("submit");
    let cssg_stage = |events: &[Json]| {
        events
            .iter()
            .find(|e| e.get("stage").and_then(Json::as_str) == Some("cssg"))
            .expect("cssg stage event")
            .get("cache")
            .and_then(Json::as_str)
            .expect("cache flag")
            .to_string()
    };
    assert_eq!(cssg_stage(&first.events), "miss");

    let second = client.submit(bench_spec("converta")).expect("submit");
    assert_eq!(cssg_stage(&second.events), "hit");
    assert_eq!(
        second
            .report
            .get("cache")
            .and_then(|c| c.get("cssg"))
            .and_then(Json::as_str),
        Some("hit")
    );
    // The same circuit pasted inline shares the CSSG entry: the content
    // hash is over the canonical netlist, not the submission form.
    let ckt = satpg_serve::resolve_circuit(&CircuitSpec::Bench {
        name: "converta".to_string(),
        style: "si".to_string(),
    })
    .unwrap();
    let inline = client
        .submit(JobSpec {
            workers: 2,
            ..JobSpec::new(CircuitSpec::InlineCkt {
                text: satpg_netlist::to_ckt(&ckt),
            })
        })
        .expect("inline submit");
    assert_eq!(cssg_stage(&inline.events), "hit");
    assert_eq!(
        timing_free_report(&inline.report),
        timing_free_report(&second.report)
    );

    let status = client.status().expect("status");
    let cache = status.get("cache").unwrap();
    let hits = |lvl: &str| {
        cache
            .get(lvl)
            .and_then(|c| c.get("hits"))
            .and_then(Json::as_usize)
            .unwrap()
    };
    assert_eq!(hits("cssgs"), 2, "bench resubmit + inline twin");
    assert_eq!(hits("circuits"), 1, "only the bench resubmit");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The anti-stampede satellite: two clients racing the same cold CSSG
/// key must trigger exactly **one** construction.  Whether the second
/// requester lands while the first is mid-build (it then blocks on the
/// single-flight guard and takes a cache hit afterwards) or after it
/// finished (a plain hit), `cssg_builds` stays 1 — so the assertion is
/// deterministic even though the interleaving is not.
#[test]
fn concurrent_misses_single_flight_the_cssg_build() {
    let (addr, handle) = start_daemon(ServeConfig {
        pool_workers: 2,
        ..ServeConfig::default()
    });
    // muller-12 is new to the cache and its CSSG build is slow enough
    // that two pool workers usually overlap on it.
    let spec = || JobSpec {
        workers: 1,
        ..JobSpec::new(CircuitSpec::Family {
            name: "muller".to_string(),
            size: 12,
        })
    };
    let reports: Vec<String> = thread::scope(|s| {
        let handles: Vec<_> = (0..2)
            .map(|_| {
                let addr = addr.clone();
                s.spawn(move || {
                    let mut client = Client::connect(&addr).expect("connect");
                    let out = client.submit(spec()).expect("submit");
                    timing_free_report(&out.report)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });
    assert_eq!(reports[0], reports[1], "both clients get the same report");

    let mut client = Client::connect(&addr).expect("connect");
    let status = client.status().expect("status");
    let top = |k: &str| status.get(k).and_then(Json::as_usize).unwrap();
    assert_eq!(top("cssg_builds"), 1, "the stampede built once: {status}");
    let jobs = status.get("jobs").unwrap();
    assert_eq!(jobs.get("done").and_then(Json::as_usize), Some(2));
    let cssg_cache = status
        .get("cache")
        .and_then(|c| c.get("cssgs"))
        .expect("cssg cache stats");
    let hits = cssg_cache.get("hits").and_then(Json::as_usize).unwrap();
    let misses = cssg_cache.get("misses").and_then(Json::as_usize).unwrap();
    // One requester built (≥1 miss); the other either waited out the
    // build or arrived late — both paths end in a hit.
    assert!(misses >= 1, "{status}");
    assert!(hits >= 1, "{status}");
    // Waits only happen on true overlap; the counter must exist and
    // never exceed the loser count.
    assert!(top("cssg_singleflight_waits") <= 1, "{status}");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn zero_depth_queue_rejects_with_backpressure() {
    let (addr, handle) = start_daemon(ServeConfig {
        queue_depth: 0,
        ..ServeConfig::default()
    });
    let mut client = Client::connect(&addr).expect("connect");
    match client.submit(bench_spec("dff")) {
        Err(ClientError::Rejected(reason)) => assert!(reason.contains("queue full"), "{reason}"),
        other => panic!("expected backpressure rejection, got {other:?}"),
    }
    let status = client.status().expect("status");
    assert_eq!(
        status
            .get("jobs")
            .and_then(|j| j.get("rejected"))
            .and_then(Json::as_usize),
        Some(1)
    );
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn malformed_submissions_fail_with_line_numbers_not_panics() {
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    // Truncated .g text: the daemon answers with the parser's located
    // error and stays alive.
    match client.submit(JobSpec::new(CircuitSpec::InlineG {
        text: ".model broken\n.inputs a\n.graph\nq+ r+\n".to_string(),
        style: "si".to_string(),
    })) {
        Err(ClientError::Job(msg)) => assert!(msg.contains("unknown signal"), "{msg}"),
        other => panic!("expected job error, got {other:?}"),
    }
    match client.submit(JobSpec::new(CircuitSpec::InlineCkt {
        text: "circuit x\ninputs A:a\ngarbage here\n".to_string(),
    })) {
        Err(ClientError::Job(msg)) => assert!(msg.contains("line 3"), "{msg}"),
        other => panic!("expected job error, got {other:?}"),
    }
    // Unknown bench and a bad family size.
    assert!(matches!(
        client.submit(bench_spec("no-such-bench")),
        Err(ClientError::Job(_))
    ));
    assert!(matches!(
        client.submit(JobSpec::new(CircuitSpec::Family {
            name: "muller".into(),
            size: 4096,
        })),
        Err(ClientError::Job(_))
    ));
    // The daemon is still healthy after four failed jobs.
    let out = client.submit(bench_spec("dff")).expect("daemon survived");
    assert_eq!(timing_free_report(&out.report), serial_json("dff"));
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The ==64-input boundary through the daemon: a 64-request arbiter
/// without a pattern budget fails with the same diagnostic the serial
/// core raises (no panic, no silent one-pattern truncation); with a
/// budget the job completes and the report ledger counts the skipped
/// patterns.
#[test]
fn sixty_four_input_jobs_need_a_budget_and_then_run() {
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let arbiter64 = || {
        JobSpec::new(CircuitSpec::Family {
            name: "arbiter".to_string(),
            size: 64,
        })
    };
    // Without a budget: the daemon reports the core's own diagnostic.
    let expected = satpg_core::CoreError::PatternBudgetRequired(64).to_string();
    match client.submit(arbiter64()) {
        Err(ClientError::Job(msg)) => assert_eq!(msg, expected),
        other => panic!("expected the budget diagnostic, got {other:?}"),
    }
    // With a budget: the flow completes and the shortfall is counted.
    let out = client
        .submit(JobSpec {
            pattern_budget: Some(4),
            no_random: true,
            ..arbiter64()
        })
        .expect("budgeted 64-input job runs");
    let report = out.report.get("report").expect("report body");
    let skipped = report
        .get("cssg")
        .and_then(|c| c.get("patterns_skipped"))
        .and_then(Json::as_usize)
        .expect("skip ledger present");
    assert!(skipped > 0, "2^64 under budget 4 must record skips");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[test]
fn raw_garbage_lines_get_rejected_events() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    for bad in ["not json", "{\"cmd\":\"frob\"}", "[1,2,3]"] {
        stream.write_all(bad.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim()).expect("reply is protocol JSON");
        assert_eq!(v.get("event").and_then(Json::as_str), Some("rejected"));
    }
    drop(stream);
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// Correlation ids round-trip at the service level: a tagged request
/// gets its id echoed on every reply (including every streamed job
/// event), an untagged request gets untagged replies, and distinct ids
/// on one connection never cross.
#[test]
fn correlation_ids_echo_on_every_reply() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = |req: &str| -> Json {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).expect("reply is protocol JSON")
    };
    // Tagged status/metrics echo their ids back, in order.
    for id in [7usize, 99, 1] {
        let v = reply(&format!("{{\"cmd\":\"status\",\"id\":{id}}}"));
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(id), "{v}");
    }
    let v = reply("{\"cmd\":\"metrics\",\"id\":42}");
    assert_eq!(v.get("id").and_then(Json::as_usize), Some(42), "{v}");
    // An untagged request gets an untagged reply (old-client compat).
    let v = reply("{\"cmd\":\"status\"}");
    assert!(
        v.get("id").is_none(),
        "untagged request must not grow an id: {v}"
    );
    // A tagged submit tags the whole event stream through the report.
    stream
        .write_all(
            b"{\"cmd\":\"submit\",\"id\":5,\"circuit\":{\"bench\":\"dff\",\"style\":\"si\"},\"workers\":1}\n",
        )
        .unwrap();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let v = Json::parse(line.trim()).expect("event is protocol JSON");
        assert_eq!(
            v.get("id").and_then(Json::as_usize),
            Some(5),
            "every streamed event must echo the submit id: {v}"
        );
        if v.get("event").and_then(Json::as_str) == Some("report") {
            break;
        }
    }
    drop(stream);
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// Unknown job fields are rejected, not dropped: a retired knob such as
/// `gc_threshold` or a misspelt one fails with a diagnostic instead of
/// running with defaults, and the same connection then serves a valid
/// submit.
#[test]
fn unknown_job_fields_are_rejected_then_the_connection_serves() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut reply = |req: &str| -> Json {
        stream.write_all(req.as_bytes()).unwrap();
        stream.write_all(b"\n").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        Json::parse(line.trim()).expect("reply is protocol JSON")
    };
    let dff = r#""circuit":{"bench":"dff","style":"si"}"#;
    for (extra, key) in [
        (r#""gc_threshold":1024"#, "gc_threshold"),
        (r#""worker":4"#, "worker"),
    ] {
        let v = reply(&format!(r#"{{"cmd":"submit",{dff},{extra}}}"#));
        assert_eq!(v.get("event").and_then(Json::as_str), Some("rejected"));
        let reason = v.get("reason").and_then(Json::as_str).unwrap();
        assert!(
            reason.contains(&format!("unknown job field `{key}`")),
            "{reason}"
        );
    }
    let mut v = reply(&format!(r#"{{"cmd":"submit",{dff},"workers":1}}"#));
    assert_eq!(v.get("event").and_then(Json::as_str), Some("accepted"));
    while v.get("event").and_then(Json::as_str) != Some("report") {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        v = Json::parse(line.trim()).expect("event is protocol JSON");
    }
    assert_eq!(timing_free_report(&v), serial_json("dff"));
    drop((reader, stream));
    let mut client = Client::connect(&addr).expect("connect");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

#[cfg(unix)]
#[test]
fn unix_socket_transport_works() {
    let path = format!("/tmp/satpg-serve-test-{}.sock", std::process::id());
    let (addr, handle) = start_daemon(ServeConfig {
        addr: format!("unix:{path}"),
        ..ServeConfig::default()
    });
    assert_eq!(addr, format!("unix:{path}"));
    let mut client = Client::connect(&addr).expect("connect over unix socket");
    let out = client.submit(bench_spec("dff")).expect("submit");
    assert_eq!(timing_free_report(&out.report), serial_json("dff"));
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
    assert!(!std::path::Path::new(&path).exists(), "socket file cleaned");
}
