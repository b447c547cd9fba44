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

/// The `cache` flag of a job's `cssg` stage event.
fn cssg_stage(events: &[Json]) -> String {
    events
        .iter()
        .find(|e| e.get("stage").and_then(Json::as_str) == Some("cssg"))
        .expect("cssg stage event")
        .get("cache")
        .and_then(Json::as_str)
        .expect("cache flag")
        .to_string()
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

/// The CSSG cache key is the canonical netlist plus the two CSSG fields
/// a job spec sets, `k` and `pattern_budget`: one circuit submitted
/// plain, with a `k` and with a budget builds three graphs, and each
/// resubmission hits its own.  Every report equals serial `run_atpg`
/// under the same spec.
#[test]
fn cssg_cache_keys_on_k_and_pattern_budget() {
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let specs = [
        bench_spec("converta"),
        JobSpec {
            k: Some(3),
            ..bench_spec("converta")
        },
        JobSpec {
            pattern_budget: Some(2),
            ..bench_spec("converta")
        },
    ];
    for cache in ["miss", "hit"] {
        for spec in &specs {
            let out = client.submit(spec.clone()).expect("submit");
            assert_eq!(cssg_stage(&out.events), cache, "{spec:?}");
            let ckt = satpg_serve::resolve_circuit(&spec.circuit).expect("converta");
            let serial = run_atpg(&ckt, &job_atpg_config(spec, &ckt)).expect("serial flow runs");
            assert_eq!(
                timing_free_report(&out.report),
                serial.to_json_value(false).render(),
                "{spec:?}"
            );
        }
    }
    let status = client.status().expect("status");
    assert_eq!(
        status.get("cssg_builds").and_then(Json::as_usize),
        Some(specs.len()),
        "{status}"
    );
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The `cssg` stage reports the threads the build ran on, not the job's
/// budget: converta stays below the build loop's helper threshold, and
/// muller-16 passes it and builds on both workers' threads.
#[test]
fn cssg_stage_reports_the_threads_the_build_used() {
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    let muller = JobSpec {
        workers: 2,
        ..JobSpec::new(CircuitSpec::Family {
            name: "muller".to_string(),
            size: 16,
        })
    };
    for (spec, threads) in [(bench_spec("converta"), 1), (muller, 2)] {
        let out = client.submit(spec).expect("submit");
        let stage = out
            .events
            .iter()
            .find(|e| e.get("stage").and_then(Json::as_str) == Some("cssg"))
            .expect("cssg stage event");
        assert_eq!(
            stage.get("threads").and_then(Json::as_usize),
            Some(threads),
            "{stage}"
        );
    }
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

/// A relayed test of the wrong width never reaches the fault simulator:
/// a shard session screens only tests as wide as its circuit, finishes
/// with a `shard_result`, and releases its slot.
#[test]
fn misfit_broadcast_test_is_ignored_by_the_shard_screen() {
    use std::io::{BufRead, BufReader, Write};
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut stream = std::net::TcpStream::connect(&addr).expect("connect");
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(60)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut next_event = || {
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("an event before the timeout");
        Json::parse(line.trim()).expect("event is protocol JSON")
    };
    let classes: Vec<String> = (0..64).map(|c| c.to_string()).collect();
    let submit = format!(
        r#"{{"cmd":"shard_submit","circuit":{{"family":"muller","size":10}},"no_random":true,"classes":[{}]}}"#,
        classes.join(",")
    );
    stream.write_all(submit.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    let accepted = next_event();
    assert_eq!(
        accepted.get("event").and_then(Json::as_str),
        Some("shard_accepted"),
        "{accepted}"
    );
    let shard = accepted.get("shard").and_then(Json::as_usize).unwrap();
    let relay = format!(r#"{{"cmd":"broadcast","shard":{shard},"class":0,"test":["1"]}}"#);
    stream.write_all(relay.as_bytes()).unwrap();
    stream.write_all(b"\n").unwrap();
    loop {
        let v = next_event();
        if v.get("event").and_then(Json::as_str) == Some("shard_result") {
            break;
        }
    }
    drop((reader, stream));
    let mut client = Client::connect(&addr).expect("connect");
    let running = |client: &mut Client| {
        let status = client.status().expect("status");
        status
            .get("fleet")
            .and_then(|f| f.get("shards_running"))
            .and_then(Json::as_usize)
    };
    // The slot is released just after the terminal event is sent.
    let mut polls = 0;
    while running(&mut client) != Some(0) && polls < 100 {
        thread::sleep(std::time::Duration::from_millis(20));
        polls += 1;
    }
    assert_eq!(running(&mut client), Some(0), "the shard slot leaked");
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

#[test]
fn every_job_records_its_queue_wait() {
    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    // The registry is process-wide and other tests submit jobs too, so
    // compare the sample count before and after.
    let samples = |client: &mut Client| {
        let snapshot = client.metrics().expect("metrics");
        snapshot
            .get("histograms")
            .and_then(|h| h.get("serve.queue_wait_us"))
            .and_then(|h| h.get("count"))
            .and_then(Json::as_u128)
            .unwrap_or(0)
    };
    let before = samples(&mut client);
    let jobs = 3;
    for _ in 0..jobs {
        client.submit(bench_spec("converta")).expect("the job runs");
    }
    let after = samples(&mut client);
    assert!(after >= before + jobs, "{before} -> {after} samples");
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}

/// The README's metrics glossary names only metrics the code records:
/// after one `submit`, a daemon's `metrics` snapshot holds every
/// `settler.*`, `cssg.*`, `fsim.*` and `engine.*` name it lists.  A
/// bare name in a bullet takes the bullet's prefix.
#[test]
fn readme_glossary_names_recorded_metrics() {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md"))
        .expect("the README reads");
    let (_, glossary) = readme
        .split_once("Glossary (prefix → meaning):")
        .expect("the README has a metrics glossary");
    let bullets = glossary
        .trim_start()
        .split("\n\n")
        .next()
        .unwrap_or_default();
    let mut named = Vec::new();
    for bullet in bullets.split("\n* ") {
        let mut quoted = bullet.split('`').skip(1).step_by(2);
        let Some(prefix) = quoted.next().and_then(|p| p.strip_suffix('*')) else {
            continue;
        };
        if !["settler.", "cssg.", "fsim.", "engine."].contains(&prefix) {
            continue;
        }
        for name in quoted {
            if name.starts_with(prefix) {
                named.push(name.to_string());
            } else {
                named.push(format!("{prefix}{name}"));
            }
        }
    }
    assert!(named.len() > 20, "the glossary parses: {named:?}");

    let (addr, handle) = start_daemon(ServeConfig::default());
    let mut client = Client::connect(&addr).expect("connect");
    // The random stage off leaves every class to the workers.
    let spec = JobSpec {
        workers: 2,
        no_random: true,
        ..JobSpec::new(CircuitSpec::Family {
            name: "muller".to_string(),
            size: 6,
        })
    };
    client.submit(spec).expect("the job runs");
    let snapshot = client.metrics().expect("metrics");
    let recorded = |name: &str| {
        ["counters", "gauges", "histograms"]
            .iter()
            .any(|kind| snapshot.get(kind).and_then(|m| m.get(name)).is_some())
    };
    let missing: Vec<&String> = named.iter().filter(|n| !recorded(n)).collect();
    assert!(
        missing.is_empty(),
        "glossary names unrecorded metrics: {missing:?}"
    );
    client.shutdown().expect("shutdown");
    handle.join().unwrap().unwrap();
}
