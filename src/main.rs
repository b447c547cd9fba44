//! The `satpg` command-line interface.
//!
//! ```text
//! satpg list                         # bundled benchmarks
//! satpg synth <circuit> [--style si|2l|2lr]   # print the netlist
//! satpg cssg <circuit> [--style …] [--k N]    # synchronous abstraction
//! satpg atpg <circuit> [--style …] [--output-model] [--collapse] [--no-random]
//! satpg scan <circuit> [--style …]   # scan-point candidates (extension)
//! satpg table <1|2>                  # regenerate a paper table
//! satpg dot <circuit> [--style …]    # Graphviz export
//! satpg gen <family|circuit> [--size K]       # print the circuit as .ckt
//! satpg engine <circuit> [--workers N] [--no-broadcast] [--no-audit]
//!                                    # fault-parallel ATPG
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
//! same campaign.

use satpg::core::json::Json;
use satpg::core::report::{format_table, TableRow};
use satpg::core::tester::TestProgram;
use satpg::core::{
    build_cssg_sharded, run_atpg, run_atpg_on, AtpgConfig, AtpgReport, CapPolicy, CoreError,
    CssgConfig, FaultModel,
};
use satpg::engine::{run_engine, EngineConfig};
use satpg::netlist::{to_ckt, Circuit};
use satpg::serve::{
    family_default_size, job_atpg_config, resolve_circuit, run_fleet, CircuitSpec, Client,
    FleetConfig, JobSpec, ServeConfig, Server,
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

fn usage() -> ExitCode {
    eprintln!(
        "usage: satpg <command> [...]\n\
         commands:\n  \
           list\n  \
           synth <circuit> [--style si|2l|2lr]\n  \
           cssg  <circuit> [--style si|2l|2lr] [--k N] [--cssg-shards N] [--no-por]\n          \
                  [--settle-cap N]\n  \
           atpg  <circuit> [--style si|2l|2lr] [--output-model] [--collapse] [--no-random]\n          \
                  [--pp-random] [--pattern-budget N] [--program] [--json] [--cssg-shards N]\n          \
                  [--no-por] [--settle-cap N]\n  \
           scan  <circuit> [--style si|2l|2lr]\n  \
           table <1|2>\n  \
           dot   <circuit> [--style si|2l|2lr]\n  \
           gen   <family|circuit> [--size K]  # print the circuit as .ckt\n  \
           engine <circuit> [--style si|2l|2lr] [--k N] [--workers N] [--output-model]\n          \
                  [--collapse] [--no-random] [--no-broadcast] [--no-audit] [--json]\n          \
                  [--pp-random]       # random stage: 64 patterns per pass, 1 fault\n          \
                  [--pattern-budget N]# per-state CSSG pattern cap (needed past 63 inputs)\n          \
                  [--gc-threshold N]  # sweep worker BDDs above N live nodes\n          \
                  [--cssg-shards N]   # parallel CSSG build (0 = worker count)\n          \
                  [--no-por]          # naive interleaving walks (no reduction)\n          \
                  [--settle-cap N]    # fixed interleaving-set cap (default: scaled)\n  \
           serve  [--addr HOST:PORT|unix:PATH] [--serve-workers N] [--queue-depth N]\n          \
                  [--cache-size N] [--workers N] [--gc-threshold N]\n          \
                  [--peers A,B,..]    # coordinator mode: partition jobs across peers\n          \
                  [--max-shards N] [--fleet-chunk N] [--fleet-retries N]\n          \
                  [--fleet-timeout-ms N] [--fleet-backoff-ms N]\n  \
           fleet  <circuit> --peers A,B,.. [--style si|2l|2lr]\n          \
                  [--fleet-chunk N] [--fleet-retries N] [--fleet-timeout-ms N]\n          \
                  [--fleet-backoff-ms N] [--k N] [--output-model] [--collapse]\n          \
                  [--no-random] [--json]   # one campaign across peer daemons\n  \
           submit <circuit> [--addr A] [--style si|2l|2lr]\n          \
                  [--workers N] [--gc-threshold N] [--k N] [--output-model] [--collapse]\n          \
                  [--no-random] [--json]\n  \
           status [--addr A] [--json]\n  \
           metrics [--addr A] [--json]   # process-wide metrics registry snapshot\n  \
           shutdown [--addr A]\n  \
           bench-diff <old.json> <new.json> [--ignore-timing]\n                \
                  # compare bench_report.json files; >20% regressions exit nonzero\n  \
           trace-check <trace.json>      # validate a Chrome trace-event file\n\
         <circuit> is a benchmark name (see `list`), a .g or .ckt file, `-` (that text\n\
         on stdin), or --family muller|dme|arbiter|seq [--size K] in its place\n\
         engine/atpg/serve also accept --trace-out DIR to write Chrome trace-event\n\
         files (load them at https://ui.perfetto.dev or chrome://tracing)"
    );
    ExitCode::FAILURE
}

struct Opts {
    circuit: Option<String>,
    style: String,
    k: Option<usize>,
    output_model: bool,
    collapse: bool,
    no_random: bool,
    pp_random: bool,
    pattern_budget: Option<u64>,
    program: bool,
    workers: usize,
    size: Option<usize>,
    no_broadcast: bool,
    no_audit: bool,
    gc_threshold: Option<usize>,
    cssg_shards: usize,
    no_por: bool,
    settle_cap: Option<usize>,
    json: bool,
    addr: String,
    family: Option<String>,
    serve_workers: usize,
    queue_depth: usize,
    cache_size: usize,
    trace_out: Option<PathBuf>,
    peers: Vec<String>,
    max_shards: usize,
    fleet_chunk: usize,
    fleet_retries: usize,
    fleet_timeout_ms: u64,
    fleet_backoff_ms: u64,
}

fn parse_opts(args: &[String]) -> Option<Opts> {
    let mut o = Opts {
        circuit: None,
        style: "si".into(),
        k: None,
        output_model: false,
        collapse: false,
        no_random: false,
        pp_random: false,
        pattern_budget: None,
        program: false,
        workers: 0,
        size: None,
        no_broadcast: false,
        no_audit: false,
        gc_threshold: None,
        cssg_shards: 0,
        no_por: false,
        settle_cap: None,
        json: false,
        addr: DEFAULT_ADDR.into(),
        family: None,
        serve_workers: 2,
        queue_depth: 16,
        cache_size: 64,
        trace_out: None,
        peers: Vec::new(),
        max_shards: 16,
        fleet_chunk: 0,
        fleet_retries: 2,
        fleet_timeout_ms: 10_000,
        fleet_backoff_ms: 50,
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--style" => o.style = it.next()?.clone(),
            "--k" => o.k = Some(it.next()?.parse().ok()?),
            "--output-model" => o.output_model = true,
            "--collapse" => o.collapse = true,
            "--no-random" => o.no_random = true,
            "--pp-random" => o.pp_random = true,
            "--pattern-budget" => o.pattern_budget = Some(it.next()?.parse().ok()?),
            "--program" => o.program = true,
            "--workers" => o.workers = it.next()?.parse().ok()?,
            "--size" => o.size = Some(it.next()?.parse().ok()?),
            "--no-broadcast" => o.no_broadcast = true,
            "--no-audit" => o.no_audit = true,
            "--gc-threshold" => o.gc_threshold = Some(it.next()?.parse().ok()?),
            "--cssg-shards" => o.cssg_shards = it.next()?.parse().ok()?,
            "--no-por" => o.no_por = true,
            "--settle-cap" => o.settle_cap = Some(it.next()?.parse().ok()?),
            "--json" => o.json = true,
            "--addr" => o.addr = it.next()?.clone(),
            "--family" => o.family = Some(it.next()?.clone()),
            "--serve-workers" => o.serve_workers = it.next()?.parse().ok()?,
            "--queue-depth" => o.queue_depth = it.next()?.parse().ok()?,
            "--cache-size" => o.cache_size = it.next()?.parse().ok()?,
            "--trace-out" => o.trace_out = Some(PathBuf::from(it.next()?)),
            "--peers" => {
                o.peers = it
                    .next()?
                    .split(',')
                    .filter(|s| !s.is_empty())
                    .map(str::to_string)
                    .collect()
            }
            "--max-shards" => o.max_shards = it.next()?.parse().ok()?,
            "--fleet-chunk" => o.fleet_chunk = it.next()?.parse().ok()?,
            "--fleet-retries" => o.fleet_retries = it.next()?.parse().ok()?,
            "--fleet-timeout-ms" => o.fleet_timeout_ms = it.next()?.parse().ok()?,
            "--fleet-backoff-ms" => o.fleet_backoff_ms = it.next()?.parse().ok()?,
            s if (s == "-" || !s.starts_with('-')) && o.circuit.is_none() => {
                o.circuit = Some(s.to_string())
            }
            _ => return None,
        }
    }
    Some(o)
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
        gc_threshold: o.gc_threshold,
        output_model: o.output_model,
        collapse: o.collapse,
        no_random: o.no_random,
        pp_random: o.pp_random,
        k: o.k,
        pattern_budget: o.pattern_budget,
    })
}

/// The flow configuration of a local run: the daemon's
/// [`job_atpg_config`] with the CLI-only settle flags (`--no-por`,
/// `--settle-cap`) applied to both settling layers.
fn atpg_config(o: &Opts, spec: &JobSpec, ckt: &Circuit) -> AtpgConfig {
    let mut cfg = job_atpg_config(spec, ckt);
    if o.no_por {
        cfg.cssg.por = false;
        cfg.three_phase.por = false;
    }
    if let Some(n) = o.settle_cap {
        cfg.cssg.settle_cap = CapPolicy::Fixed(n);
        cfg.three_phase.settle_cap = CapPolicy::Fixed(n);
    }
    cfg
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first() else {
        return usage();
    };
    let result: CliResult = match cmd.as_str() {
        "list" => {
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
        "table" => match args.get(1).map(String::as_str) {
            Some("1") => table("Table 1 (speed-independent)", |_| "si"),
            Some("2") => table("Table 2 (bounded delays)", |n| {
                if suite::is_redundant(n) {
                    "2lr"
                } else {
                    "2l"
                }
            }),
            _ => return usage(),
        },
        "bench-diff" => {
            let mut ignore_timing = false;
            let mut files: Vec<&str> = Vec::new();
            for a in &args[1..] {
                match a.as_str() {
                    "--ignore-timing" => ignore_timing = true,
                    s if !s.starts_with('-') => files.push(s),
                    _ => return usage(),
                }
            }
            let [old_path, new_path] = files[..] else {
                return usage();
            };
            match bench_diff(old_path, new_path, ignore_timing) {
                Ok(0) => Ok(()),
                Ok(n) => Err(format!("bench-diff: {n} regression(s) over 20%").into()),
                Err(e) => Err(e.into()),
            }
        }
        "trace-check" => {
            let Some(path) = args.get(1) else {
                return usage();
            };
            trace_check(path)
                .map(|summary| outln!("{summary}"))
                .map_err(Into::into)
        }
        "synth" | "cssg" | "atpg" | "scan" | "dot" | "gen" | "engine" => {
            let Some(mut o) = parse_opts(&args[1..]) else {
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
        "serve" | "submit" | "status" | "metrics" | "shutdown" | "fleet" => {
            let Some(o) = parse_opts(&args[1..]) else {
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
            let cfg = atpg_config(o, &spec, &ckt).cssg;
            let c = build_cssg_sharded(&ckt, &cfg, o.cssg_shards.max(1))?;
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
                "settler: {} state expansions over {} analyses; POR reduced {} expansions, pruned {} branches{}",
                ss.states_explored,
                ss.settles,
                ss.por_states,
                ss.por_pruned,
                if cfg.por { "" } else { " (POR off)" }
            );
        }
        "atpg" => {
            let cfg = atpg_config(o, &spec, &ckt);
            let tracing = trace_setup(o);
            // The abstraction is built up front (optionally sharded —
            // structurally identical either way) and reused for the
            // tester program below.
            let t0 = std::time::Instant::now();
            let cssg = build_cssg_sharded(&ckt, &cfg.cssg, o.cssg_shards.max(1))?;
            let us_cssg = t0.elapsed().as_micros();
            if cssg.num_edges() == 0 {
                return Err(CoreError::NoValidVectors.into());
            }
            let faults = satpg::core::faults_for(&ckt, cfg.fault_model);
            let result = run_atpg_on(&ckt, &cssg, &faults, &cfg, us_cssg);
            trace_finish(tracing, ckt.name());
            let r = result?;
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
        "scan" => {
            let cssg = build_cssg_sharded(&ckt, &CssgConfig::default(), 1)?;
            let report = run_atpg(&ckt, &AtpgConfig::paper())?;
            let analysis = satpg::core::scan_candidates(&ckt, &cssg, &report, &Default::default());
            outln!(
                "{}: {}/{} undetected; scan candidates:",
                ckt.name(),
                report.total() - report.covered(),
                report.total()
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
        }
        "engine" => {
            let cfg = EngineConfig {
                atpg: atpg_config(o, &spec, &ckt),
                workers: o.workers,
                broadcast: !o.no_broadcast,
                symbolic_audit: !o.no_audit,
                gc_threshold: o.gc_threshold,
                cssg_shards: o.cssg_shards,
            };
            let tracing = trace_setup(o);
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
                    "  worker {}: searched {:>3} (stolen {:>3}), tests {:>3}, drops {:>3}, bdd {} nodes / {} cache ({} clears), gc {} sweeps / {} reclaimed (peak {}), settle {} states / {} por-pruned, busy {} us",
                    w.worker,
                    w.searched,
                    w.stolen,
                    w.tests_found,
                    w.broadcast_drops,
                    w.bdd_nodes,
                    w.bdd_cache,
                    w.bdd_cache_clears,
                    w.bdd_gc_runs,
                    w.bdd_reclaimed,
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
                addr: o.addr.clone(),
                pool_workers: o.serve_workers,
                queue_depth: o.queue_depth,
                cache_entries: o.cache_size,
                default_job_workers: o.workers,
                gc_threshold: o.gc_threshold,
                trace_out: o.trace_out.clone(),
                peers: o.peers.clone(),
                max_shards: o.max_shards,
                fleet_chunk: o.fleet_chunk,
                fleet_retries: o.fleet_retries,
                fleet_timeout_ms: o.fleet_timeout_ms,
                fleet_backoff_ms: o.fleet_backoff_ms,
            };
            let server = Server::bind(cfg).map_err(|e| format!("bind {}: {e}", o.addr))?;
            // Scripts scrape this line for the ephemeral port.
            outln!("listening on {}", server.local_addr());
            use std::io::Write as _;
            let _ = std::io::stdout().flush();
            Ok(server.run()?)
        }
        "submit" => {
            let spec = job_spec(o)?;
            let mut client = connect(&o.addr)?;
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
            let status = connect(&o.addr)?.status()?;
            if o.json {
                outln!("{status}");
            } else {
                print_status(&status);
            }
            Ok(())
        }
        "metrics" => {
            let m = connect(&o.addr)?.metrics()?;
            if o.json {
                outln!("{m}");
            } else {
                print_metrics(&m);
            }
            Ok(())
        }
        "fleet" => {
            if o.peers.is_empty() {
                return Err("fleet needs --peers A,B,..".into());
            }
            let spec = job_spec(o)?;
            let fc = FleetConfig {
                peers: o.peers.clone(),
                chunk: o.fleet_chunk,
                max_retries: o.fleet_retries,
                peer_timeout_ms: o.fleet_timeout_ms,
                backoff_ms: o.fleet_backoff_ms,
            };
            let tracing = trace_setup(o);
            let result = run_fleet(&spec, &fc);
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
            connect(&o.addr)?.shutdown()?;
            outln!("daemon at {} shutting down", o.addr);
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
                    "  cssg ({}): {} states, {} edges, {} truncated, {} shards, {} us",
                    ev.get("cache").and_then(Json::as_str).unwrap_or("?"),
                    get("states"),
                    get("edges"),
                    get("truncated"),
                    get("shards"),
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
                    "  worker {}: searched {} (stolen {}), tests {}, drops {}, gc {} sweeps / {} reclaimed (peak {}), busy {} us",
                    g("worker"), g("searched"), g("stolen"), g("tests_found"),
                    g("broadcast_drops"), g("bdd_gc_runs"), g("bdd_reclaimed"),
                    g("bdd_peak_unique"), g("us_busy")
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
        "peak bdd nodes {}, queue depth {}, pool workers {}, uptime {} us",
        top("peak_bdd_nodes"),
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

/// Wall-clock units; skipped under `--ignore-timing` so CI can diff the
/// deterministic records of two runs on machines of different speed.
fn is_timing_unit(unit: &str) -> bool {
    matches!(unit, "ns" | "us" | "ms" | "s")
}

/// Loads a `bench_report.json` (an array of `{bench, params, value,
/// unit}` records) into `(key, value)` pairs.
fn load_bench_report(path: &str) -> Result<Vec<(String, String, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let v = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    let arr = v
        .as_arr()
        .ok_or_else(|| format!("{path}: expected a JSON array of records"))?;
    let mut out = Vec::new();
    for (i, rec) in arr.iter().enumerate() {
        let bench = rec
            .get("bench")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: record {i} has no string `bench`"))?;
        let unit = rec
            .get("unit")
            .and_then(Json::as_str)
            .ok_or_else(|| format!("{path}: record {i} has no string `unit`"))?;
        let value = rec
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{path}: record {i} has no numeric `value`"))?;
        let params = rec.get("params").map(Json::render).unwrap_or_default();
        out.push((format!("{bench} {params}"), unit.to_string(), value));
    }
    Ok(out)
}

/// Compares two bench reports record by record and prints every
/// regression over 20%; returns how many there were.  "Worse" means a
/// larger value except for `pct` units (coverage/efficiency), where it
/// means smaller.  Records present on only one side are reported but
/// are not regressions (benchmark sets may grow).
fn bench_diff(old_path: &str, new_path: &str, ignore_timing: bool) -> Result<usize, String> {
    let old = load_bench_report(old_path)?;
    let new = load_bench_report(new_path)?;
    let mut regressions = 0usize;
    for (key, unit, old_v) in &old {
        if ignore_timing && is_timing_unit(unit) {
            continue;
        }
        let Some((_, _, new_v)) = new.iter().find(|(k, u, _)| k == key && u == unit) else {
            outln!("only in {old_path}: {key} ({unit})");
            continue;
        };
        let worse = if unit == "pct" {
            *new_v < old_v * 0.8
        } else {
            *new_v > old_v * 1.2
        };
        if worse {
            regressions += 1;
            outln!("REGRESSION {key}: {old_v} -> {new_v} {unit}");
        }
    }
    for (key, unit, _) in &new {
        if ignore_timing && is_timing_unit(unit) {
            continue;
        }
        if !old.iter().any(|(k, u, _)| k == key && u == unit) {
            outln!("only in {new_path}: {key} ({unit})");
        }
    }
    outln!(
        "bench-diff: {} record(s) compared, {} regression(s)",
        old.len(),
        regressions
    );
    Ok(regressions)
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
}
