//! The `satpg` binary end to end.  Every circuit-taking subcommand
//! accepts a benchmark name, a `.g` file, a `.ckt` file, `-` (that text
//! on stdin) and `--family`, and equal circuits give identical output
//! once timing fields are stripped.  Bad input exits 1 with a
//! diagnostic, and a reader that closes early is not a panic.

use satpg::core::json::Json;
use satpg::netlist::to_ckt;
use satpg::serve::{resolve_circuit, CircuitSpec};
use satpg::stg::suite;
use std::io::{BufRead, BufReader, Write};
use std::path::PathBuf;
use std::process::{Child, Command, Output, Stdio};
use std::sync::OnceLock;

const SATPG: &str = env!("CARGO_BIN_EXE_satpg");

/// Runs `satpg args`, feeding `stdin` when given.
fn satpg(args: &[&str], stdin: Option<&str>) -> Output {
    let mut child = Command::new(SATPG)
        .args(args)
        .stdin(if stdin.is_some() {
            Stdio::piped()
        } else {
            Stdio::null()
        })
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn satpg");
    if let Some(text) = stdin {
        // A command that fails before reading stdin closes it; its exit
        // status, not this write, is what the caller checks.
        let _ = child.stdin.take().unwrap().write_all(text.as_bytes());
    }
    child.wait_with_output().unwrap()
}

/// `satpg args` must succeed; returns its stdout.
fn ok(args: &[&str], stdin: Option<&str>) -> String {
    let out = satpg(args, stdin);
    assert!(
        out.status.success(),
        "satpg {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Drops wall-clock values: JSON keys naming microseconds, plus the
/// per-job `job` id and `cache` hit/miss fields of daemon replies.
fn strip_json(v: Json) -> Json {
    match v {
        Json::Obj(pairs) => Json::Obj(
            pairs
                .into_iter()
                .filter(|(k, _)| {
                    !(k == "us" || k.starts_with("us_") || k.ends_with("_us"))
                        && k != "job"
                        && k != "cache"
                })
                .map(|(k, v)| (k, strip_json(v)))
                .collect(),
        ),
        Json::Arr(items) => Json::Arr(items.into_iter().map(strip_json).collect()),
        other => other,
    }
}

/// Output with timing removed: JSON through [`strip_json`]; text with
/// every number followed by a `us` unit masked.
fn strip_timing(out: &str) -> String {
    if let Ok(v) = Json::parse(out.trim()) {
        return strip_json(v).render();
    }
    out.lines()
        .map(|line| {
            let words: Vec<&str> = line.split(' ').collect();
            words
                .iter()
                .enumerate()
                .map(|(i, w)| {
                    let timed = words.get(i + 1).is_some_and(|u| u.starts_with("us"));
                    if timed && w.parse::<u64>().is_ok() {
                        "#"
                    } else {
                        w
                    }
                })
                .collect::<Vec<_>>()
                .join(" ")
        })
        .collect::<Vec<_>>()
        .join("\n")
}

/// A scratch file under the test target directory.
fn scratch(name: &str, text: &str) -> String {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, text).unwrap();
    path.to_string_lossy().into_owned()
}

/// One circuit argument: what follows the subcommand, plus stdin.
struct Form {
    label: &'static str,
    args: Vec<String>,
    stdin: Option<String>,
}

fn form(label: &'static str, args: &[&str], stdin: Option<String>) -> Form {
    Form {
        label,
        args: args.iter().map(|s| s.to_string()).collect(),
        stdin,
    }
}

/// Every spelling of two circuits: the `converta` benchmark (name, `.g`
/// file and stdin, `.ckt` file and stdin) and muller-3 (`--family`,
/// `.ckt` file and stdin).  The files are written once, so tests running
/// in parallel never read one while another rewrites it.
fn circuit_forms() -> &'static [Vec<Form>] {
    static FORMS: OnceLock<Vec<Vec<Form>>> = OnceLock::new();
    FORMS.get_or_init(write_circuit_forms)
}

fn write_circuit_forms() -> Vec<Vec<Form>> {
    let g = suite::source("converta").unwrap().to_string();
    let ckt = to_ckt(
        &resolve_circuit(&CircuitSpec::Bench {
            name: "converta".into(),
            style: "si".into(),
        })
        .unwrap(),
    );
    let muller = to_ckt(
        &resolve_circuit(&CircuitSpec::Family {
            name: "muller".into(),
            size: 3,
        })
        .unwrap(),
    );
    let (g_path, ckt_path) = (scratch("converta.g", &g), scratch("converta.ckt", &ckt));
    let muller_path = scratch("muller3.ckt", &muller);
    vec![
        vec![
            form("name", &["converta"], None),
            form(".g file", &[&g_path], None),
            form(".g stdin", &["-"], Some(g)),
            form(".ckt file", &[&ckt_path], None),
            form(".ckt stdin", &["-"], Some(ckt.clone())),
        ],
        vec![
            form("--family", &["--family", "muller", "--size", "3"], None),
            form(".ckt file", &[&muller_path], None),
            form(".ckt stdin", &["-"], Some(muller)),
        ],
    ]
}

/// Runs `cmd` on every form of each circuit; all forms of one circuit
/// must print the same timing-free output.
fn check_forms(cmd: &[&str]) {
    for forms in circuit_forms() {
        let mut first: Option<(&str, String)> = None;
        for f in forms {
            let mut args: Vec<&str> = cmd.to_vec();
            args.extend(f.args.iter().map(String::as_str));
            let out = strip_timing(&ok(&args, f.stdin.as_deref()));
            assert!(!out.is_empty(), "{args:?} printed nothing");
            match &first {
                None => first = Some((f.label, out)),
                Some((label, expect)) => {
                    assert_eq!(&out, expect, "{cmd:?}: {} differs from {label}", f.label)
                }
            }
        }
    }
}

/// Circuit-taking subcommands that run locally (engine pinned to one
/// worker so its per-worker counters are deterministic).
const LOCAL: [&[&str]; 7] = [
    &["synth"],
    &["cssg"],
    &["atpg"],
    &["scan"],
    &["dot"],
    &["gen"],
    &["engine", "--workers", "1"],
];

#[test]
fn local_subcommands_accept_every_circuit_form() {
    for cmd in LOCAL {
        check_forms(cmd);
    }
    check_forms(&["atpg", "--json"]);
    check_forms(&["engine", "--workers", "1", "--json"]);
    // `gen` also names a family positionally.
    assert_eq!(
        ok(&["gen", "muller", "--size", "3"], None),
        ok(&["gen", "--family", "muller", "--size", "3"], None)
    );
}

#[test]
fn engine_trace_covers_circuit_resolution() {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("cli-trace");
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy();
    let args = [
        "engine",
        "--family",
        "dme",
        "--size",
        "3",
        "--trace-out",
        &dir_arg,
    ];
    ok(&args, None);
    let text = std::fs::read_to_string(dir.join("trace-dme-gen3.json")).unwrap();
    let trace = Json::parse(&text).unwrap();
    let resolve = trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .find(|e| e.get("name").and_then(Json::as_str) == Some("circuit.resolve"))
        .expect("the trace has a circuit.resolve span");
    let kind = resolve.get("args").and_then(|a| a.get("kind"));
    assert_eq!(kind.and_then(Json::as_str), Some("family"));
}

/// Runs `satpg engine` on arbiter-4 with `--trace-out` plus `extra`;
/// returns the begin (`B`) events of its one trace artifact.
fn engine_trace_begins(dir_name: &str, extra: &[&str]) -> Vec<Json> {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(dir_name);
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_string_lossy();
    let mut args = vec![
        "engine",
        "--family",
        "arbiter",
        "--size",
        "4",
        "--trace-out",
        &dir_arg,
    ];
    args.extend_from_slice(extra);
    ok(&args, None);
    let files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "one trace artifact: {files:?}");
    let trace = Json::parse(&std::fs::read_to_string(&files[0]).unwrap()).unwrap();
    trace
        .get("traceEvents")
        .and_then(Json::as_arr)
        .unwrap()
        .iter()
        .filter(|e| e.get("ph").and_then(Json::as_str) == Some("B"))
        .cloned()
        .collect()
}

#[test]
fn engine_trace_nests_the_audit_under_its_worker() {
    let begins = engine_trace_begins("cli-trace-audit", &["--audit"]);
    let arg = |e: &Json, key: &str| {
        e.get("args")
            .and_then(|a| a.get(key))
            .and_then(Json::as_u128)
    };
    let named = |name: &str| -> Vec<&Json> {
        begins
            .iter()
            .filter(|e| e.get("name").and_then(Json::as_str) == Some(name))
            .collect()
    };
    let workers: Vec<u128> = named("worker")
        .into_iter()
        .filter_map(|e| arg(e, "span_id"))
        .collect();
    let builds = named("audit.build");
    assert!(!builds.is_empty(), "the trace has audit.build spans");
    for b in builds {
        let parent = arg(b, "parent").expect("parent id");
        assert!(
            workers.contains(&parent),
            "audit.build nests under a worker"
        );
        assert!(arg(b, "edges").unwrap() > 0, "edges arg");
    }
    assert!(!named("audit.check").is_empty(), "audited tests have spans");

    // The audit is opt-in: without `--audit` the same run has workers
    // but no audit spans.
    let plain = engine_trace_begins("cli-trace-no-audit", &[]);
    let name = |e: &Json| {
        e.get("name")
            .and_then(Json::as_str)
            .unwrap_or("")
            .to_string()
    };
    assert!(plain.iter().any(|e| name(e) == "worker"), "workers ran");
    assert!(
        !plain.iter().any(|e| name(e).starts_with("audit.")),
        "audit spans without --audit"
    );
    // The merge is the campaign's one targeted-stage replay, a child of
    // the campaign span.
    let span_of = |n: &str| plain.iter().find(|e| name(e) == n).expect(n);
    assert_eq!(
        arg(span_of("stage.targeted"), "parent"),
        arg(span_of("engine.run"), "span_id"),
        "stage.targeted nests under engine.run"
    );
    assert!(!plain.iter().any(|e| name(e) == "stage.merge"));
}

/// A daemon on an ephemeral port, shut down when dropped.
struct Daemon {
    child: Child,
    addr: String,
}

impl Daemon {
    fn start() -> Daemon {
        let mut child = Command::new(SATPG)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .expect("spawn satpg serve");
        let mut line = String::new();
        BufReader::new(child.stdout.take().unwrap())
            .read_line(&mut line)
            .unwrap();
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .unwrap_or_else(|| panic!("unexpected first line {line:?}"))
            .to_string();
        Daemon { child, addr }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn daemon_subcommands_accept_every_circuit_form() {
    let d = Daemon::start();
    check_forms(&["submit", "--addr", &d.addr, "--workers", "1", "--json"]);
    check_forms(&["fleet", "--peers", &d.addr, "--json"]);
    ok(&["shutdown", "--addr", &d.addr], None);
}

/// Exit 1 with an `error:` diagnostic, never a panic (exit 101).
fn assert_diagnosed(args: &[&str], stdin: Option<&str>) {
    let out = satpg(args, stdin);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "satpg {args:?}: {stderr}");
    assert!(stderr.starts_with("error: "), "satpg {args:?}: {stderr}");
    assert!(!stderr.contains("panicked"), "satpg {args:?}: {stderr}");
}

#[test]
fn bad_circuits_exit_1_with_a_diagnostic() {
    let bad_ckt = scratch("bad.ckt", "circuit x\nnonsense\n");
    let unstable = "circuit osc\ninputs A:a\noutputs y\ngate y = not(y)\nsettle\n";
    let remote: [&[&str]; 2] = [
        &["submit", "--addr", "127.0.0.1:1"],
        &["fleet", "--peers", "127.0.0.1:1"],
    ];
    for cmd in LOCAL.iter().chain(&remote) {
        let run = |extra: &[&str], stdin: Option<&str>| {
            let args: Vec<&str> = cmd.iter().chain(extra).copied().collect();
            assert_diagnosed(&args, stdin);
        };
        run(&["no-such-bench"], None);
        run(&["missing/file.ckt"], None);
        run(&["--family", "muller", "--size", "999"], None);
        if LOCAL.contains(cmd) {
            run(&[&bad_ckt], None);
            run(&["-"], Some(".model m\n.bogus\n"));
            run(&["-"], Some(unstable));
        }
    }
    // A circuit that resolves but cannot be abstracted: 64 inputs need
    // a pattern budget.
    for cmd in ["cssg", "atpg", "scan", "engine"] {
        assert_diagnosed(&[cmd, "--family", "arbiter", "--size", "64"], None);
    }
    // muller-65 would have 65 primary outputs, past the one-word limit
    // of every analysis: not even `gen` builds it.
    assert_diagnosed(&["gen", "--family", "muller", "--size", "65"], None);
}

#[test]
fn a_retired_flag_prints_the_usage() {
    // A retired flag fails like any unknown option, never as a no-op.
    // Each runs on a command that used to accept it; a retired command
    // fails like an unknown one.  So does a flag the command does not
    // read, though another command reads it.
    let cases: [&[&str]; 20] = [
        &["bench-diff", "old.json", "new.json"],
        &["engine", "converta", "--pp-random"],
        &["engine", "converta", "--no-broadcast"],
        &["engine", "converta", "--cssg-shards", "2"],
        &["atpg", "converta", "--no-por"],
        &["cssg", "converta", "--settle-cap", "64"],
        &[
            "fleet",
            "converta",
            "--peers",
            "127.0.0.1:1",
            "--fleet-retries",
            "1",
        ],
        &[
            "fleet",
            "converta",
            "--peers",
            "127.0.0.1:1",
            "--fleet-backoff-ms",
            "10",
        ],
        &["atpg", "converta", "--workers", "4"],
        &["atpg", "converta", "--audit"],
        &["atpg", "converta", "--peers", "a,b"],
        &["atpg", "converta", "--queue-depth", "3"],
        &["cssg", "converta", "--program"],
        &["cssg", "converta", "--no-random"],
        &["cssg", "converta", "--trace-out", "traces"],
        &["gen", "muller", "--workers", "9"],
        &["gen", "muller", "--json"],
        &["list", "--json"],
        &["table", "1", "--json"],
        &["trace-check", "trace.json", "--json"],
    ];
    for args in cases {
        let out = satpg(args, None);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "satpg {args:?}: {stderr}");
        assert!(
            stderr.starts_with("usage: satpg"),
            "satpg {args:?}: {stderr}"
        );
    }
}

#[test]
fn thread_counts_stop_at_the_job_cap() {
    // The cap a job's `workers` field has on the wire.  Converta leaves
    // no class open and its build stays under the helper threshold, so
    // neither run starts a thread.
    let out = satpg(&["engine", "converta", "--workers", "65"], None);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "{stderr}");
    assert!(stderr.starts_with("usage: satpg"), "{stderr}");
    ok(&["engine", "converta", "--workers", "64"], None);
}

#[test]
fn a_reader_that_closes_early_is_not_a_panic() {
    let cases: [&[&str]; 3] = [
        &["table", "1"],
        &["engine", "converta"],
        &["gen", "muller", "--size", "64"],
    ];
    for args in cases {
        let mut child = Command::new(SATPG)
            .args(args)
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap();
        drop(child.stdout.take());
        let out = child.wait_with_output().unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(out.status.success(), "satpg {args:?}: {stderr}");
        assert!(!stderr.contains("panicked"), "satpg {args:?}: {stderr}");
    }
}

#[test]
fn scan_analyses_the_campaign_its_flags_describe() {
    // `scan` ranks the faults that `atpg` with the same flags leaves
    // undetected, so both count the same fault list.
    let circuit = ["vbe6a", "--style", "2lr", "--output-model"];
    let atpg = Json::parse(&ok(&[&["atpg", "--json"][..], &circuit].concat(), None)).unwrap();
    let totals = atpg.get("totals").unwrap();
    let count = |key: &str| totals.get(key).and_then(Json::as_u128).unwrap();
    let (faults, detected) = (count("faults"), count("detected"));
    let scan = ok(&[&["scan"][..], &circuit].concat(), None);
    let undetected = faults - detected;
    let want = format!("vbe6a_2l: {undetected}/{faults} undetected; scan candidates:");
    assert_eq!(scan.lines().next(), Some(want.as_str()));
}

#[test]
fn atpg_and_engine_verdicts_agree() {
    let circuits: [&[&str]; 2] = [&["converta"], &["--family", "muller", "--size", "8"]];
    for circuit in circuits {
        let run = |cmd: &str| {
            let args = [&[cmd, "--json"][..], circuit].concat();
            Json::parse(&ok(&args, None)).unwrap()
        };
        let atpg = run("atpg");
        let engine = run("engine");
        let engine = engine.get("report").unwrap();
        for key in ["records", "tests", "totals"] {
            assert_eq!(atpg.get(key), engine.get(key), "{circuit:?}: {key}");
        }
    }
}
