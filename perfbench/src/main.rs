//! `satpg-perfbench`: the repository's end-to-end and per-layer
//! benchmark.
//!
//! ```text
//! satpg-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads (see `BENCHMARK.json` for why each exists):
//! `paper_suite`, `family_engine`, `service`, `fleet`.  Inputs are a pure
//! function of `--seed`.  An untraced run (`--trace 0`) prints the
//! end-to-end metrics; a traced run (`--trace 1`) decomposes campaigns
//! into public layer calls under `satpg_trace` spans, prints the
//! per-layer metrics and writes `trace-<workload>.json`.  Every campaign
//! is checked against a serial `run_atpg` reference computed before
//! timing starts.  The last stdout line is the JSON result; a record
//! with the host description goes to `perfbench/` under the Cargo
//! target directory.

mod catalog;
mod clock;
mod family;
mod fleet;
mod harness;
mod layers;
mod paper;
mod service;
mod stats;

use harness::Metrics;
use satpg_core::json::Json;
use stats::Tally;
use std::process::ExitCode;

/// Command-line options.
pub struct Opts {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measured seconds.
    pub seconds: f64,
    /// Traced (per-layer) run.
    pub trace: bool,
}

/// What a workload run hands back.
#[derive(Default)]
pub struct RunOutput {
    /// Failed against attempted campaigns.
    pub tally: Tally,
    /// Correctness problems other than failed campaigns.
    pub problems: Vec<String>,
    /// Metric values by name.
    pub metrics: Metrics,
    /// Human-readable lines: sample counts, ratios with their bases.
    pub notes: Vec<String>,
}

const WORKLOADS: &[&str] = &["paper_suite", "family_engine", "service", "fleet"];

const USAGE: &str = "usage: satpg-perfbench --workload <paper_suite|family_engine|service|fleet> \
                     --seed <n> --seconds <s> --trace <0|1>";

fn parse_args(args: &[String]) -> Result<Opts, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds} out of (0, 600]"));
    }
    Ok(Opts {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// The commit of the checkout, read from `.git` in the working
/// directory; `unknown` outside a git checkout.
fn git_commit() -> String {
    let read = |p: &str| std::fs::read_to_string(format!(".git/{p}")).ok();
    let Some(head) = read("HEAD") else {
        return "unknown".to_string();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Some(hash) = read(reference) {
        return hash.trim().to_string();
    }
    read("packed-refs")
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (hash, name) = l.split_once(' ')?;
                (name == reference).then(|| hash.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("satpg-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = git_commit();
    println!(
        "workload {} seed {} seconds {} trace {}",
        opts.workload, opts.seed, opts.seconds, opts.trace as u8
    );
    println!("host nproc={nproc} profile={profile} commit={commit}");

    let mut out = match opts.workload.as_str() {
        "paper_suite" => paper::run(&opts),
        "family_engine" => family::run(&opts),
        "service" => service::run(&opts),
        "fleet" => fleet::run(&opts),
        _ => unreachable!("workload names are checked by parse_args"),
    };

    for note in &out.notes {
        println!("  {note}");
    }
    let table = if opts.trace {
        catalog::PER_LAYER
    } else {
        catalog::END_TO_END
    };
    let mut metrics = Vec::new();
    for &(name, unit) in table {
        let value = match out.metrics.get(name) {
            Some(&v) => v,
            None if opts.trace => 0.0,
            None => {
                out.problems
                    .push(format!("end-to-end metric {name} missing"));
                0.0
            }
        };
        println!("{name} = {value} {unit}");
        metrics.push((
            name.to_string(),
            Json::Obj(vec![
                ("value".to_string(), Json::Float(value)),
                ("unit".to_string(), Json::str(unit)),
            ]),
        ));
    }
    for p in &out.problems {
        println!("problem: {p}");
    }
    println!("failed/attempted: {}", out.tally);
    let result = Json::Obj(vec![
        (
            "correct".to_string(),
            Json::Bool(out.tally.failed == 0 && out.problems.is_empty()),
        ),
        ("attempted".to_string(), Json::int(out.tally.attempted)),
        ("failed".to_string(), Json::int(out.tally.failed)),
        ("metrics".to_string(), Json::Obj(metrics)),
    ]);
    let record = Json::Obj(vec![
        (
            "host".to_string(),
            Json::Obj(vec![
                ("nproc".to_string(), Json::int(nproc)),
                ("profile".to_string(), Json::str(profile)),
                ("commit".to_string(), Json::str(commit)),
            ]),
        ),
        ("workload".to_string(), Json::str(&opts.workload)),
        ("seed".to_string(), Json::int(opts.seed)),
        ("seconds".to_string(), Json::Float(opts.seconds)),
        ("trace".to_string(), Json::Bool(opts.trace)),
        (
            "problems".to_string(),
            Json::Arr(out.problems.iter().map(Json::str).collect()),
        ),
        ("result".to_string(), result.clone()),
    ]);
    let path = harness::out_dir().join(format!(
        "result-{}-seed{}-trace{}.json",
        opts.workload, opts.seed, opts.trace as u8
    ));
    if let Err(e) = std::fs::create_dir_all(harness::out_dir())
        .and_then(|()| std::fs::write(&path, record.render() + "\n"))
    {
        eprintln!("satpg-perfbench: writing {}: {e}", path.display());
    }
    println!("{}", result.render());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_the_documented_command_line() {
        let o = parse_args(&args("--workload fleet --seed 3 --seconds 10 --trace 1")).unwrap();
        assert_eq!(
            (o.workload.as_str(), o.seed, o.seconds, o.trace),
            ("fleet", 3, 10.0, true)
        );
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload fleet --seed x --seconds 1 --trace 0",
            "--workload fleet --seed 1 --seconds 0 --trace 0",
            "--workload fleet --seed 1 --seconds 1 --trace 2",
            "--workload fleet --seed 1 --seconds 1",
            "--workload fleet --seed",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }
}
