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
    check_forms(&["fleet", "--peers", &d.addr, "--workers", "1", "--json"]);
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
