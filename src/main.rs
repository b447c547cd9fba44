//! The `satpg` command-line interface.
//!
//! ```text
//! satpg list                         # bundled benchmarks
//! satpg synth <circuit> [--style si|2l|2lr]   # print the netlist
//! satpg cssg <circuit> [--style …] [--k N]    # synchronous abstraction
//! satpg atpg <circuit> [--style …] [--output-model] [--collapse] [--no-random]
//! satpg scan <circuit> [atpg flags]  # scan points for faults atpg misses
//! satpg table <1|2>                  # regenerate a paper table
//! satpg dot <circuit> [--style …]    # Graphviz export
//! satpg gen <family|circuit> [--size K]       # print the circuit as .ckt
//! satpg engine <circuit> [--workers N] [--audit]  # fault-parallel ATPG
//! satpg serve  [--addr A] [--serve-workers N] [--queue-depth N] ...
//!                                    # persistent service daemon
//! satpg submit <circuit> [--addr A] ...       # submit a job to the daemon
//! satpg fleet <circuit> --peers A,B,..        # one job across peer daemons
//! satpg status [--addr A]            # daemon scheduler/cache counters
//! satpg shutdown [--addr A]          # stop the daemon cleanly
//! ```
//!
//! Every `<circuit>` is a bundled benchmark name, a path to a `.g` or
//! `.ckt` file, `-` for the same text on stdin, or `--family F [--size
//! K]` in place of the positional argument.  The CLI turns it into the
//! daemon's [`CircuitSpec`] and [`JobSpec`], then builds the circuit with
//! [`resolve_circuit`] and the flow configuration with
//! [`job_atpg_config`], so a local run and a submitted job compute the
//! same campaign.  A setting exists as a flag only where callers need
//! different values; reference paths such as the naive interleaving
//! walk are library configuration that tests set.

use satpg::core::json::Json;
use satpg::core::report::{format_table, TableRow};
use satpg::core::tester::TestProgram;
use satpg::core::{
    build_cssg, run_atpg, run_atpg_on, AtpgConfig, AtpgReport, CoreError, FaultModel,
};
use satpg::engine::{run_engine, EngineConfig};
use satpg::netlist::{to_ckt, Circuit};
use satpg::serve::proto::MAX_JOB_WORKERS;
use satpg::serve::{
    family_default_size, job_atpg_config, resolve_circuit, run_fleet, CircuitSpec, Client, JobSpec,
    ServeConfig, Server,
};
use satpg::stg::suite;
use std::path::PathBuf;
use std::process::ExitCode;

/// `println!` through [`emit`].
macro_rules! outln {
    ($($arg:tt)*) => {
        emit(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// `print!` through [`emit`].
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// Writes to stdout.  A reader that went away (`satpg table 1 | head
/// -1`) ends the process quietly with success; any other write error
/// ends it with exit 1.  Never panics.
fn emit(args: std::fmt::Arguments) {
    use std::io::Write as _;
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == std::io::ErrorKind::BrokenPipe {
            std::process::exit(0);
        }
        eprintln!("error: writing stdout: {e}");
        std::process::exit(1);
    }
}

/// What a command returns; `main` prints the error as `error: …` and
/// exits 1.
type CliResult<T = ()> = Result<T, Box<dyn std::error::Error>>;

/// Default daemon address for `serve`/`submit`/`status`/`shutdown`.
const DEFAULT_ADDR: &str = "127.0.0.1:9117";

/// The usage text: every command with exactly the flags it reads.
const USAGE: &str = "\
usage: satpg <command> [...]
commands:
  list
  synth <circuit> [--style si|2l|2lr]
  cssg  <circuit> [--style si|2l|2lr] [--k N] [--pattern-budget N]
  atpg  <circuit> [--style si|2l|2lr] [--k N] [--output-model] [--collapse] [--no-random]
         [--pattern-budget N] [--program] [--json] [--trace-out DIR]
  scan  <circuit> [--style si|2l|2lr] [--k N] [--output-model] [--collapse] [--no-random]
         [--pattern-budget N] [--trace-out DIR]   # scan points for what atpg leaves undetected
  table <1|2>
  dot   <circuit> [--style si|2l|2lr]
  gen   <family|circuit> [--style si|2l|2lr] [--size K]   # print the circuit as .ckt
  engine <circuit> [--style si|2l|2lr] [--k N] [--workers N] [--output-model] [--collapse]
         [--no-random] [--json] [--trace-out DIR]
         [--audit]              # replay each test on a BDD of the CSSG
         [--pattern-budget N]   # per-state CSSG pattern cap (needed past 63 inputs)
  serve  [--addr HOST:PORT|unix:PATH] [--serve-workers N] [--queue-depth N]
         [--cache-size N] [--workers N] [--trace-out DIR]
         [--peers A,B,..]       # coordinator mode: partition jobs across peers
         [--max-shards N] [--fleet-chunk N] [--fleet-timeout-ms N]
  fleet  <circuit> --peers A,B,.. [--style si|2l|2lr]
         [--fleet-chunk N] [--fleet-timeout-ms N] [--k N] [--output-model] [--collapse]
         [--no-random] [--pattern-budget N] [--json] [--trace-out DIR]
                                # one campaign across peer daemons
  submit <circuit> [--addr A] [--style si|2l|2lr] [--workers N] [--k N] [--output-model]
         [--collapse] [--no-random] [--pattern-budget N] [--json]
  status [--addr A] [--json]
  metrics [--addr A] [--json]   # process-wide metrics registry snapshot
  shutdown [--addr A]
  trace-check <trace.json>      # validate a Chrome trace-event file
<circuit> is a benchmark name (see `list`), a .g or .ckt file, `-` (that text
on stdin), or --family muller|dme|arbiter|seq [--size K] in its place.
A command rejects any flag it does not list.  --workers N and --serve-workers N
take N <= 64.  --trace-out DIR writes Chrome trace-event files (load them at
https://ui.perfetto.dev or chrome://tracing)";

fn usage() -> ExitCode {
    eprintln!("{USAGE}");
    ExitCode::FAILURE
}

/// The flags `cmd` reads besides the three a circuit brings
/// (`--style`, `--family`, `--size`), and whether it takes a circuit;
/// `None` for a command [`parse_opts`] does not serve.
fn command_flags(cmd: &str) -> Option<(bool, Vec<&'static str>)> {
    // What `job_atpg_config` reads: the campaign a command runs.
    const CAMPAIGN: &str = "--k --output-model --collapse --no-random --pattern-budget";
    let (takes_circuit, own, campaign) = match cmd {
        "synth" | "dot" | "gen" => (true, "", ""),
        "cssg" => (true, "--k --pattern-budget", ""),
        "atpg" => (true, "--program --json --trace-out", CAMPAIGN),
        "scan" => (true, "--trace-out", CAMPAIGN),
        "engine" => (true, "--workers --audit --json --trace-out", CAMPAIGN),
        "submit" => (true, "--addr --workers --json", CAMPAIGN),
        "fleet" => (
            true,
            "--peers --fleet-chunk --fleet-timeout-ms --json --trace-out",
            CAMPAIGN,
        ),
        "serve" => (
            false,
            concat!(
                "--addr --serve-workers --queue-depth --cache-size --workers --trace-out ",
                "--peers --max-shards --fleet-chunk --fleet-timeout-ms"
            ),
            "",
        ),
        "status" | "metrics" => (false, "--addr --json", ""),
        "shutdown" => (false, "--addr", ""),
        _ => return None,
    };
    let flags = own.split_whitespace().chain(campaign.split_whitespace());
    Some((takes_circuit, flags.collect()))
}

/// The flags a circuit argument brings.
const CIRCUIT_FLAGS: &[&str] = &["--style", "--family", "--size"];

struct Opts {
    circuit: Option<String>,
    style: String,
    k: Option<usize>,
    output_model: bool,
    collapse: bool,
    no_random: bool,
    pattern_budget: Option<u64>,
    program: bool,
    workers: usize,
    size: Option<usize>,
    audit: bool,
    json: bool,
    family: Option<String>,
    trace_out: Option<PathBuf>,
    /// The daemon `serve` runs, its fleet included (which `fleet` runs
    /// too); its `addr` is also the daemon the client commands reach.
    daemon: ServeConfig,
}

/// Parses the arguments of `cmd`; `None` on a flag `cmd` does not read,
/// a bad value, or a stray positional argument.
fn parse_opts(cmd: &str, args: &[String]) -> Option<Opts> {
    let (takes_circuit, flags) = command_flags(cmd)?;
    let reads =
        |flag: &str| flags.contains(&flag) || (takes_circuit && CIRCUIT_FLAGS.contains(&flag));
    let mut o = Opts {
        circuit: None,
        style: "si".into(),
        k: None,
        output_model: false,
        collapse: false,
        no_random: false,
        pattern_budget: None,
        program: false,
        workers: 0,
        size: None,
        audit: false,
        json: false,
        family: None,
        trace_out: None,
        daemon: ServeConfig {
            addr: DEFAULT_ADDR.into(),
            ..ServeConfig::default()
        },
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a.starts_with("--") && !reads(a) {
            return None;
        }
        match a.as_str() {
            "--style" => o.style = it.next()?.clone(),
            "--k" => o.k = Some(it.next()?.parse().ok()?),
            "--output-model" => o.output_model = true,
            "--collapse" => o.collapse = true,
            "--no-random" => o.no_random = true,
            "--pattern-budget" => o.pattern_budget = Some(it.next()?.parse().ok()?),
            "--program" => o.program = true,
            "--workers" => o.workers = thread_count(it.next()?)?,
            "--size" => o.size = Some(it.next()?.parse().ok()?),
            "--audit" => o.audit = true,
            "--json" => o.json = true,
            "--addr" => o.daemon.addr = it.next()?.clone(),
            "--family" => o.family = Some(it.next()?.clone()),
            "--serve-workers" => o.daemon.pool_workers = thread_count(it.next()?)?,
            "--queue-depth" => o.daemon.queue_depth = it.next()?.parse().ok()?,
            "--cache-size" => o.daemon.cache_entries = it.next()?.parse().ok()?,
            "--trace-out" => o.trace_out = Some(PathBuf::from(it.next()?)),
            "--peers" => {
                o.daemon.fleet.peers = it
                    .next()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--max-shards" => o.daemon.max_shards = it.next()?.parse().ok()?,
            "--fleet-chunk" => o.daemon.fleet.chunk = it.next()?.parse().ok()?,
            "--fleet-timeout-ms" => o.daemon.fleet.peer_timeout_ms = it.next()?.parse().ok()?,
            s if takes_circuit && (s == "-" || !s.starts_with('-')) && o.circuit.is_none() => {
                o.circuit = Some(s.to_string())
            }
            _ => return None,
        }
    }
    Some(o)
}

/// A thread count `--workers` or `--serve-workers` sets: at most
/// [`MAX_JOB_WORKERS`], the cap a job's own `workers` field has on the
/// wire.  `None` past it or on a non-number.
fn thread_count(arg: &str) -> Option<usize> {
    arg.parse().ok().filter(|&n| n <= MAX_JOB_WORKERS)
}

/// The circuit the arguments name: `--family F [--size K]`, a bundled
/// benchmark, `-` (stdin) or a file.  A benchmark name wins over a file
/// of the same name.  Stdin and file text is `.g` when its first
/// non-comment line is a dot-directive, `.ckt` otherwise.
fn circuit_spec(o: &Opts) -> Result<CircuitSpec, String> {
    if let Some(name) = &o.family {
        let size = match o.size {
            Some(k) => k,
            None => family_default_size(name)?,
        };
        return Ok(CircuitSpec::Family {
            name: name.clone(),
            size,
        });
    }
    let text = match o.circuit.as_deref() {
        None => {
            return Err(
                "no circuit given: name a benchmark, a .g/.ckt file, `-` (stdin) or --family F"
                    .to_string(),
            )
        }
        Some("-") => {
            let mut text = String::new();
            use std::io::Read as _;
            std::io::stdin()
                .read_to_string(&mut text)
                .map_err(|e| format!("reading stdin: {e}"))?;
            text
        }
        Some(name) if suite::NAMES.contains(&name) => {
            return Ok(CircuitSpec::Bench {
                name: name.to_string(),
                style: o.style.clone(),
            })
        }
        Some(path) => std::fs::read_to_string(path).map_err(|e| {
            format!("`{path}` is neither a bundled benchmark (see `satpg list`) nor a readable file: {e}")
        })?,
    };
    let looks_like_g = text
        .lines()
        .map(|l| l.split('#').next().unwrap_or("").trim())
        .find(|l| !l.is_empty())
        .is_some_and(|l| l.starts_with('.'));
    Ok(if looks_like_g {
        CircuitSpec::InlineG {
            text,
            style: o.style.clone(),
        }
    } else {
        CircuitSpec::InlineCkt { text }
    })
}

/// The job the arguments describe, in the daemon's wire form.
fn job_spec(o: &Opts) -> Result<JobSpec, String> {
    Ok(JobSpec {
        circuit: circuit_spec(o)?,
        workers: o.workers,
        output_model: o.output_model,
        collapse: o.collapse,
        no_random: o.no_random,
        k: o.k,
        pattern_budget: o.pattern_budget,
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result: CliResult = match (cmd.as_str(), &args[1..]) {
        ("list", []) => {
            for &n in suite::NAMES {
                let tag = if suite::is_redundant(n) {
                    "  (redundant in table 2)"
                } else {
                    ""
                };
                outln!("{n}{tag}");
            }
            Ok(())
        }
        ("table", [n]) => match n.as_str() {
            "1" => table("Table 1 (speed-independent)", |_| "si"),
            "2" => table("Table 2 (bounded delays)", |n| {
                if suite::is_redundant(n) {
                    "2lr"
                } else {
                    "2l"
                }
            }),
            _ => return usage(),
        },
        ("trace-check", [path]) => trace_check(path)
            .map(|summary| outln!("{summary}"))
            .map_err(Into::into),
        ("synth" | "cssg" | "atpg" | "scan" | "dot" | "gen" | "engine", rest) => {
            let Some(mut o) = parse_opts(cmd, rest) else {
                return usage();
            };
            // `gen muller` names a family positionally.
            if cmd == "gen" && o.family.is_none() {
                if let Some(name) = o.circuit.take_if(|n| family_default_size(n).is_ok()) {
                    o.family = Some(name);
                }
            }
            local_command(cmd, &o)
        }
        ("serve" | "submit" | "status" | "metrics" | "shutdown" | "fleet", rest) => {
            let Some(o) = parse_opts(cmd, rest) else {
                return usage();
            };
            service_command(cmd, &o)
        }
        _ => return usage(),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Prints a paper table: every bundled benchmark, synthesized in the
/// style `style_of` picks, under both fault models.
fn table(title: &str, style_of: fn(&str) -> &'static str) -> CliResult {
    let rows = suite::NAMES
        .iter()
        .map(|&name| {
            let ckt = resolve_circuit(&CircuitSpec::Bench {
                name: name.to_string(),
                style: style_of(name).to_string(),
            })?;
            row_for(&ckt, name)
        })
        .collect::<CliResult<Vec<TableRow>>>()?;
    out!("{}", format_table(title, &rows));
    Ok(())
}

/// The commands that run on a locally built circuit.
fn local_command(cmd: &str, o: &Opts) -> CliResult {
    let spec = job_spec(o)?;
    // Collect before the circuit is resolved, so an `atpg`/`engine`
    // trace covers parsing and synthesis too.
    let tracing = trace_setup(o);
    let ckt = resolve_circuit(&spec.circuit)?;
    match cmd {
        "synth" => {
            outln!("{ckt}");
            for (gi, g) in ckt.gates().iter().enumerate() {
                let out = ckt.gate_output(satpg::netlist::GateId(gi as u32));
                let ins: Vec<&str> = g.inputs.iter().map(|&s| ckt.signal_name(s)).collect();
                outln!(
                    "  {} = {}({})",
                    ckt.signal_name(out),
                    g.kind.name(),
                    ins.join(", ")
                );
            }
        }
        "dot" => out!("{}", ckt.to_dot()),
        "gen" => out!("{}", to_ckt(&ckt)),
        "cssg" => {
            let c = build_cssg(&ckt, &job_atpg_config(&spec, &ckt).cssg)?;
            outln!(
                "CSSG(k={}): {} stable states, {} edges; pruned {} non-confluent, {} unstable; {} truncated at resource limits",
                c.k(),
                c.num_states(),
                c.num_edges(),
                c.pruned_nonconfluent(),
                c.pruned_unstable(),
                c.pruned_truncated()
            );
            let ss = c.settle_stats();
            outln!(
                "settler: {} state expansions over {} analyses; POR reduced {} expansions, pruned {} branches",
                ss.states_explored,
                ss.settles,
                ss.por_states,
                ss.por_pruned,
            );
        }
        "atpg" | "scan" => {
            let cfg = job_atpg_config(&spec, &ckt);
            // The abstraction is built up front and reused for the
            // tester program or the scan analysis below.
            let t0 = std::time::Instant::now();
            let cssg = build_cssg(&ckt, &cfg.cssg)?;
            let us_cssg = t0.elapsed().as_micros();
            if cssg.num_edges() == 0 {
                return Err(CoreError::NoValidVectors.into());
            }
            let faults = satpg::core::faults_for(&ckt, cfg.fault_model);
            let result = run_atpg_on(&ckt, &cssg, &faults, &cfg, us_cssg);
            trace_finish(tracing, ckt.name());
            let r = result?;
            if cmd == "scan" {
                let analysis = satpg::core::scan_candidates(&ckt, &cssg, &r, &cfg.three_phase);
                outln!(
                    "{}: {}/{} undetected; scan candidates:",
                    ckt.name(),
                    r.total() - r.covered(),
                    r.total()
                );
                for c in analysis.candidates.iter().take(8) {
                    outln!(
                        "  observe {:<12} exposes {:>3} faults",
                        ckt.signal_name(c.signal),
                        c.exposes.len()
                    );
                }
                if !analysis.hopeless.is_empty() {
                    outln!(
                        "  {} faults exposed by no single point",
                        analysis.hopeless.len()
                    );
                }
                return Ok(());
            }
            if o.json {
                outln!("{}", r.to_json());
                return Ok(());
            }
            outln!("{}, {} us", summary(&r), r.us_total());
            if o.program {
                let mut prog = TestProgram::new(&ckt);
                for (i, t) in r.tests.iter().enumerate() {
                    prog.push_sequence(&ckt, &cssg, format!("test {i}"), t);
                }
                out!("{prog}");
            }
        }
        "engine" => {
            let cfg = EngineConfig {
                atpg: job_atpg_config(&spec, &ckt),
                workers: o.workers,
                symbolic_audit: o.audit,
            };
            let result = run_engine(&ckt, &cfg);
            trace_finish(tracing, ckt.name());
            let out = result?;
            if o.json {
                outln!("{}", out.to_json_value(true).render());
                return Ok(());
            }
            outln!("{}, {} us", summary(&out.report), out.report.us_total());
            outln!(
                "engine: {} workers, {} parallel verdicts, {} merge fallbacks, parallel {} us, merge {} us",
                out.workers.len(),
                out.parallel_verdicts,
                out.merge_fallbacks,
                out.us_parallel,
                out.us_merge
            );
            for w in &out.workers {
                outln!(
                    "  worker {}: searched {:>3} (stolen {:>3}), tests {:>3}, drops {:>3}, audit {} failures / {} bdd nodes, settle {} states / {} por-pruned, busy {} us",
                    w.worker,
                    w.searched,
                    w.stolen,
                    w.tests_found,
                    w.broadcast_drops,
                    w.audit_failures,
                    w.bdd_peak_unique,
                    w.settle_states,
                    w.settle_por_pruned,
                    w.us_busy
                );
            }
        }
        _ => unreachable!("dispatched by main"),
    }
    Ok(())
}

fn connect(addr: &str) -> Result<Client, String> {
    Client::connect(addr).map_err(|e| format!("connect {addr}: {e}"))
}

/// The `serve` / `submit` / `fleet` / `status` / `metrics` / `shutdown`
/// commands.
fn service_command(cmd: &str, o: &Opts) -> CliResult {
    match cmd {
        "serve" => {
            let cfg = ServeConfig {
                default_job_workers: o.workers,
                trace_out: o.trace_out.clone(),
                ..o.daemon.clone()
            };
            let server = Server::bind(cfg).map_err(|e| format!("bind {}: {e}", o.daemon.addr))?;
            // Scripts scrape this line for the ephemeral port.
            outln!("listening on {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            Ok(server.run()?)
        }
        "submit" => {
            let spec = job_spec(o)?;
            let mut client = connect(&o.daemon.addr)?;
            let quiet = o.json;
            let out = client.submit_streaming(spec, &mut |ev| {
                if !quiet {
                    print_event(ev);
                }
            })?;
            if o.json {
                outln!("{}", out.report.render());
            }
            Ok(())
        }
        "status" => {
            let status = connect(&o.daemon.addr)?.status()?;
            if o.json {
                outln!("{status}");
            } else {
                print_status(&status);
            }
            Ok(())
        }
        "metrics" => {
            let m = connect(&o.daemon.addr)?.metrics()?;
            if o.json {
                outln!("{m}");
            } else {
                print_metrics(&m);
            }
            Ok(())
        }
        "fleet" => {
            if o.daemon.fleet.peers.is_empty() {
                return Err("fleet needs --peers A,B,..".into());
            }
            let spec = job_spec(o)?;
            let tracing = trace_setup(o);
            let result = run_fleet(&spec, &o.daemon.fleet);
            let name = result
                .as_ref()
                .map_or("fleet", |out| out.report.circuit.as_str());
            trace_finish(tracing, name);
            let out = result?;
            if o.json {
                let body = Json::Obj(vec![
                    ("report".to_string(), out.report.to_json_value(true)),
                    ("fleet".to_string(), out.stats.to_json_value()),
                ]);
                outln!("{}", body.render());
                return Ok(());
            }
            outln!("{}", summary(&out.report));
            let s = &out.stats;
            outln!(
                "fleet: {} peers, {} shards, {} remote verdicts, {} broadcasts relayed, {} retries, {} peer deaths, {} merge fallbacks",
                s.peers,
                s.shards,
                s.remote_verdicts,
                s.broadcasts_relayed,
                s.retries,
                s.peer_deaths,
                s.merge_fallbacks,
            );
            Ok(())
        }
        "shutdown" => {
            connect(&o.daemon.addr)?.shutdown()?;
            outln!("daemon at {} shutting down", o.daemon.addr);
            Ok(())
        }
        _ => unreachable!("dispatched by main"),
    }
}

/// One human-readable line per streamed event.
fn print_event(ev: &Json) {
    let kind = ev.get("event").and_then(Json::as_str).unwrap_or("?");
    let get = |k: &str| ev.get(k).and_then(Json::as_u128).unwrap_or(0);
    match kind {
        "accepted" => outln!(
            "job {} accepted (queue depth {})",
            get("job"),
            get("queue_depth")
        ),
        "stage" => {
            let stage = ev.get("stage").and_then(Json::as_str).unwrap_or("?");
            match stage {
                "circuit" => outln!(
                    "  circuit {} ({}): {} gates, {} inputs",
                    ev.get("name").and_then(Json::as_str).unwrap_or("?"),
                    ev.get("cache").and_then(Json::as_str).unwrap_or("?"),
                    get("gates"),
                    get("inputs")
                ),
                "cssg" => outln!(
                    "  cssg ({}): {} states, {} edges, {} truncated, built on {} thread(s), {} us",
                    ev.get("cache").and_then(Json::as_str).unwrap_or("?"),
                    get("states"),
                    get("edges"),
                    get("truncated"),
                    get("threads"),
                    get("us")
                ),
                "random" => outln!("  random: {} resolved, {} us", get("resolved"), get("us")),
                "parallel" => outln!(
                    "  parallel: {} workers over {} classes",
                    get("workers"),
                    get("pending")
                ),
                "merge" => outln!("  merge: {} fallbacks, {} us", get("fallbacks"), get("us")),
                other => outln!("  stage {other}"),
            }
        }
        "test" => outln!(
            "  worker {} found a {}-cycle test for class {}",
            get("worker"),
            get("cycles"),
            get("class")
        ),
        "worker" => {
            if let Some(s) = ev.get("stats") {
                let g = |k: &str| s.get(k).and_then(Json::as_u128).unwrap_or(0);
                outln!(
                    "  worker {}: searched {} (stolen {}), tests {}, drops {}, busy {} us",
                    g("worker"),
                    g("searched"),
                    g("stolen"),
                    g("tests_found"),
                    g("broadcast_drops"),
                    g("us_busy")
                );
            }
        }
        "report" => {
            if let Some(r) = ev.get("report") {
                let t = |k: &str| {
                    r.get("totals")
                        .and_then(|t| t.get(k))
                        .and_then(Json::as_u128)
                        .unwrap_or(0)
                };
                outln!(
                    "{}: {}/{} detected ({:.2}% coverage, {:.2}% efficiency), {} untestable, {} aborted",
                    r.get("circuit").and_then(Json::as_str).unwrap_or("?"),
                    t("detected"),
                    t("faults"),
                    r.get("coverage_pct").and_then(Json::as_f64).unwrap_or(0.0),
                    r.get("efficiency_pct").and_then(Json::as_f64).unwrap_or(0.0),
                    t("untestable"),
                    t("aborted")
                );
            }
        }
        // The error event surfaces as the submit's returned error;
        // printing it here too would duplicate the message.
        "error" => {}
        _ => outln!("{ev}"),
    }
}

fn print_status(status: &Json) {
    let jobs = |k: &str| {
        status
            .get("jobs")
            .and_then(|j| j.get(k))
            .and_then(Json::as_u128)
            .unwrap_or(0)
    };
    outln!(
        "jobs: {} queued, {} running, {} done, {} failed, {} rejected",
        jobs("queued"),
        jobs("running"),
        jobs("done"),
        jobs("failed"),
        jobs("rejected")
    );
    for level in ["circuits", "cssgs"] {
        if let Some(c) = status.get("cache").and_then(|c| c.get(level)) {
            let g = |k: &str| c.get(k).and_then(Json::as_u128).unwrap_or(0);
            outln!(
                "cache {level}: {} entries, {} hits, {} misses, {} evictions",
                g("entries"),
                g("hits"),
                g("misses"),
                g("evictions")
            );
        }
    }
    if let Some(f) = status.get("fleet") {
        let g = |k: &str| f.get(k).and_then(Json::as_u128).unwrap_or(0);
        outln!(
            "fleet: {} peers, {} campaigns, {} retries, {} peer deaths, {} remote verdicts, {} merge fallbacks",
            g("peers"),
            g("campaigns"),
            g("retries"),
            g("peer_deaths"),
            g("remote_verdicts"),
            g("merge_fallbacks")
        );
    }
    let top = |k: &str| status.get(k).and_then(Json::as_u128).unwrap_or(0);
    outln!(
        "queue depth {}, pool workers {}, uptime {} us",
        top("queue_depth"),
        top("pool_workers"),
        top("uptime_us")
    );
}

/// Installs the span collector when `--trace-out` was given; returns
/// the directory to drain into after the run.
fn trace_setup(o: &Opts) -> Option<PathBuf> {
    o.trace_out.as_ref().map(|dir| {
        satpg::trace::install();
        dir.clone()
    })
}

/// Drains the collector into `DIR/trace-<name>.json` (Chrome
/// trace-event format, Perfetto-loadable).  A no-op without
/// `--trace-out`.
fn trace_finish(dir: Option<PathBuf>, name: &str) {
    let Some(dir) = dir else { return };
    let Some(col) = satpg::trace::installed_collector() else {
        return;
    };
    let events = col.drain();
    let safe: String = name
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '-' })
        .collect();
    let path = dir.join(format!("trace-{safe}.json"));
    match satpg::trace::chrome::write_file(&path, &events, "satpg") {
        Ok(()) => eprintln!("trace: {} events -> {}", events.len(), path.display()),
        Err(e) => eprintln!("error: trace write {}: {e}", path.display()),
    }
}

/// Renders a daemon `metrics` event for humans: one `name value` line
/// per counter/gauge, one summary line per histogram.
fn print_metrics(m: &Json) {
    for section in ["counters", "gauges"] {
        if let Some(Json::Obj(pairs)) = m.get(section) {
            for (k, v) in pairs {
                outln!("{k} {v}");
            }
        }
    }
    if let Some(Json::Obj(pairs)) = m.get("histograms") {
        for (k, v) in pairs {
            let count = v.get("count").and_then(Json::as_u128).unwrap_or(0);
            let sum = v.get("sum").and_then(Json::as_u128).unwrap_or(0);
            let mean = sum.checked_div(count).unwrap_or(0);
            outln!("{k} count {count} sum {sum} mean {mean}");
        }
    }
}

/// Validates a Chrome trace-event file: every non-metadata event is a
/// `B` or `E`, `B`/`E` balance per thread, and per-thread timestamps
/// never go backwards.  This is the schema every file written by
/// `--trace-out` satisfies by construction; CI runs it on the artifact.
fn trace_check(path: &str) -> Result<String, String> {
    use std::collections::HashMap;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let events = v
        .get("traceEvents")
        .and_then(Json::as_arr)
        .ok_or_else(|| format!("{path}: no `traceEvents` array"))?;
    let mut depth: HashMap<(u128, u128), i64> = HashMap::new();
    let mut last_ts: HashMap<(u128, u128), u128> = HashMap::new();
    let mut spans = 0usize;
    for (i, ev) in events.iter().enumerate() {
        let ph = ev
            .get("ph")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("event {i}: missing `ph`"))?;
        if ph == "M" {
            continue;
        }
        let pid = ev.get("pid").and_then(Json::as_u128).unwrap_or(0);
        let tid = ev.get("tid").and_then(Json::as_u128).unwrap_or(0);
        let ts = ev
            .get("ts")
            .and_then(Json::as_u128)
            .ok_or_else(|| format!("event {i}: missing integer `ts`"))?;
        let key = (pid, tid);
        if let Some(&prev) = last_ts.get(&key) {
            if ts < prev {
                return Err(format!(
                    "event {i}: ts went backwards on tid {tid} ({ts} < {prev})"
                ));
            }
        }
        last_ts.insert(key, ts);
        let d = depth.entry(key).or_insert(0);
        match ph {
            "B" => {
                *d += 1;
                spans += 1;
            }
            "E" => {
                *d -= 1;
                if *d < 0 {
                    return Err(format!(
                        "event {i}: `E` without a matching `B` on tid {tid}"
                    ));
                }
            }
            other => return Err(format!("event {i}: unexpected ph {other:?}")),
        }
    }
    for ((_, tid), d) in &depth {
        if *d != 0 {
            return Err(format!("tid {tid}: {d} unclosed span(s)"));
        }
    }
    Ok(format!(
        "{path}: OK - {spans} span(s) across {} thread(s), balanced and monotone",
        depth.len()
    ))
}

/// The one-line coverage summary of a report (timing excluded).
fn summary(r: &AtpgReport) -> String {
    format!(
        "{}: {}/{} detected ({:.2}% coverage, {:.2}% efficiency), {} untestable, {} aborted, {} tests",
        r.circuit,
        r.covered(),
        r.total(),
        r.coverage(),
        r.efficiency(),
        r.untestable(),
        r.aborted(),
        r.tests.len()
    )
}

/// One paper-table row: both fault-model campaigns under the paper's
/// flow configuration.
fn row_for(ckt: &Circuit, name: &str) -> CliResult<TableRow> {
    let input = run_atpg(ckt, &AtpgConfig::paper())?;
    let output = run_atpg(
        ckt,
        &AtpgConfig {
            fault_model: FaultModel::OutputStuckAt,
            ..AtpgConfig::paper()
        },
    )?;
    Ok(TableRow::new(name, &output, &input))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn one_row_has_consistent_columns() {
        let ckt = resolve_circuit(&CircuitSpec::Bench {
            name: "converta".into(),
            style: "si".into(),
        })
        .unwrap();
        let r = row_for(&ckt, "converta").unwrap();
        assert_eq!(r.rnd + r.ph3 + r.sim, r.input_cov);
        assert!(r.input_tot >= r.output_tot);
        assert_eq!(r.output_cov, r.output_tot, "SI: 100% output stuck-at");
    }

    #[test]
    fn serve_thread_counts_stop_at_the_job_cap() {
        let parse = |flag: &str, n: usize| parse_opts("serve", &[flag.to_string(), n.to_string()]);
        let o = parse("--workers", MAX_JOB_WORKERS).expect("the cap itself is accepted");
        assert_eq!(o.workers, MAX_JOB_WORKERS);
        let o = parse("--serve-workers", MAX_JOB_WORKERS).expect("the cap itself is accepted");
        assert_eq!(o.daemon.pool_workers, MAX_JOB_WORKERS);
        for flag in ["--workers", "--serve-workers"] {
            assert!(parse(flag, MAX_JOB_WORKERS + 1).is_none(), "{flag}");
            assert!(parse(flag, usize::MAX).is_none(), "{flag}");
        }
    }

    #[test]
    fn the_usage_lists_exactly_the_flags_each_command_reads() {
        use std::collections::BTreeSet;
        // A command's entry starts two spaces in; deeper lines continue it.
        let mut entries: Vec<(&str, BTreeSet<&str>)> = Vec::new();
        for line in USAGE.lines().skip(2).take_while(|l| l.starts_with(' ')) {
            if !line.starts_with("   ") {
                let cmd = line.split_whitespace().next().unwrap();
                entries.push((cmd, BTreeSet::new()));
            }
            let body = line.split('#').next().unwrap();
            let words = body.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'));
            let listed = &mut entries.last_mut().unwrap().1;
            listed.extend(words.filter(|w| w.starts_with("--")));
        }
        assert_eq!(entries.len(), 16, "{entries:?}");
        for (cmd, mut listed) in entries {
            // `<circuit>` stands for `--family F [--size K]` too.
            listed.remove("--family");
            listed.remove("--size");
            let mut reads = BTreeSet::new();
            if let Some((takes_circuit, flags)) = command_flags(cmd) {
                reads.extend(flags);
                if takes_circuit {
                    reads.insert("--style");
                }
            }
            assert_eq!(listed, reads, "{cmd}");
        }
    }
}
