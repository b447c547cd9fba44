//! What every workload shares: circuit preparation, serial references,
//! the timed closed loop, set-up timing and the traced-run plumbing.

use crate::clock::Clock;
use crate::stats::{median, nearest_rank, Histogram, Outcome, Rng, Tally};
use satpg_core::{run_atpg, AtpgConfig, AtpgReport};
use satpg_netlist::Circuit;
use satpg_stg::synth::{complex_gate, two_level, Redundancy};
use satpg_stg::{suite, StateGraph, Stg};
use satpg_trace::{EventKind, TraceEvent};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::Instant;

/// Metric values by name.
pub type Metrics = BTreeMap<&'static str, f64>;

/// A synthesized or generated circuit plus what the `stg` layer did.
pub struct Prepared {
    /// The circuit.
    pub circuit: Circuit,
    /// State-graph states the synthesis enumerated (0 for circuits built
    /// directly at netlist level).
    pub sg_states: usize,
}

/// Synthesizes `stg` in `style` (`si`, `2l` or `2lr`).
pub fn synth(stg: &Stg, style: &str) -> Prepared {
    let sg = StateGraph::build(stg).expect("workload STGs have a state graph");
    let circuit = match style {
        "si" => complex_gate(stg, &sg),
        "2l" => two_level(stg, &sg, Redundancy::None),
        "2lr" => two_level(stg, &sg, Redundancy::AllPrimes),
        other => panic!("unknown synthesis style {other}"),
    }
    .expect("workload STGs synthesize");
    Prepared {
        circuit,
        sg_states: sg.states().len(),
    }
}

/// A bundled benchmark in `style`.
pub fn bench(name: &str, style: &str) -> Prepared {
    synth(&suite::load(name).expect("bundled benchmark"), style)
}

/// The style Table 2 uses for a benchmark: the redundant covers where
/// the paper marks the benchmark redundant, plain two-level otherwise.
pub fn table2_style(name: &str) -> &'static str {
    if suite::is_redundant(name) {
        "2lr"
    } else {
        "2l"
    }
}

/// A generated family circuit: `muller`/`arbiter` at netlist level,
/// `dme`/`seq` through the STG pipeline (as `satpg gen` builds them).
pub fn family(name: &str, size: usize) -> Prepared {
    use satpg_stg::families as sf;
    let direct = |circuit| Prepared {
        circuit,
        sg_states: 0,
    };
    match name {
        "muller" => direct(satpg_netlist::families::muller_pipeline(size)),
        "arbiter" => direct(satpg_netlist::families::arbiter_tree(size)),
        "dme" => synth(&sf::dme_ring(size).expect("dme ring"), "si"),
        "seq" => synth(&sf::sequencer(size).expect("sequencer"), "si"),
        other => panic!("unknown family {other}"),
    }
}

/// The serial reference a campaign must reproduce.
pub struct Reference {
    /// The timing-free JSON rendering of the serial `run_atpg` report.
    pub json: String,
}

impl Reference {
    /// Runs serial `run_atpg` once (outside any timed section).
    pub fn compute(ckt: &Circuit, cfg: &AtpgConfig) -> Reference {
        let report = run_atpg(ckt, cfg).expect("workload circuits have valid vectors");
        Reference {
            json: report.to_json_value(false).render(),
        }
    }

    /// Compares a campaign's report with the reference.
    pub fn check(&self, report: &AtpgReport) -> Outcome {
        if report.to_json_value(false).render() == self.json {
            Outcome::Identical
        } else {
            Outcome::Differs
        }
    }
}

/// What one campaign delivered.
pub struct Sample {
    /// Time of the campaign, milliseconds.
    pub ms: f64,
    /// `(faults, detected)` of the delivered report, if one arrived.
    pub verdicts: Option<(usize, usize)>,
    /// How the campaign ended.
    pub outcome: Outcome,
}

impl Sample {
    /// A campaign that produced `report`, judged against `reference`.
    pub fn of(ms: f64, report: &AtpgReport, reference: &Reference) -> Sample {
        Sample {
            ms,
            verdicts: Some((report.total(), report.covered())),
            outcome: reference.check(report),
        }
    }
}

/// The samples of a timed run.
pub struct Timed {
    /// Per-campaign time, milliseconds.
    pub latencies_ms: Histogram,
    /// Fault verdicts delivered.
    pub faults: u64,
    /// Of those, detections.
    pub detected: u64,
    /// Wall clock the throughput divides by, seconds.
    pub busy_s: f64,
    /// Failed against attempted campaigns.
    pub tally: Tally,
}

impl Default for Timed {
    fn default() -> Timed {
        Timed {
            latencies_ms: Histogram::new(),
            faults: 0,
            detected: 0,
            busy_s: 0.0,
            tally: Tally::default(),
        }
    }
}

impl Timed {
    /// Adds one campaign.
    pub fn add(&mut self, s: Sample) {
        self.latencies_ms.record(s.ms);
        if let Some((faults, detected)) = s.verdicts {
            self.faults += faults as u64;
            self.detected += detected as u64;
        }
        self.tally.record(s.outcome);
    }

    /// Adds every campaign of another run (its busy time too).
    pub fn absorb(&mut self, other: Timed) {
        self.latencies_ms.absorb(&other.latencies_ms);
        self.faults += other.faults;
        self.detected += other.detected;
        self.busy_s += other.busy_s;
        self.tally.absorb(other.tally);
    }

    /// Median campaign time, milliseconds.
    pub fn p50(&self) -> f64 {
        self.latencies_ms.median()
    }

    /// The end-to-end metrics of this run.
    pub fn end_to_end(&self, setup_s: f64, notes: &mut Vec<String>) -> Metrics {
        let n = self.latencies_ms.len();
        let p90 = self
            .latencies_ms
            .percentile(90.0)
            .expect("timed runs collect enough campaigns for a p90");
        notes.push(format!(
            "campaigns: {n} samples; p90 has {} beyond it",
            n - nearest_rank(n, 90.0).expect("checked above")
        ));
        notes.push(format!(
            "throughput base: {} fault verdicts over {:.3} s timed",
            self.faults, self.busy_s
        ));
        notes.push(format!(
            "coverage base: {} detected / {} faults",
            self.detected, self.faults
        ));
        Metrics::from([
            ("setup_s", setup_s),
            (
                "campaign_ms_p50",
                self.latencies_ms
                    .percentile(50.0)
                    .expect("timed runs collect enough campaigns for a median"),
            ),
            ("campaign_ms_p90", p90),
            ("faults_per_s", self.faults as f64 / self.busy_s),
            (
                "coverage_pct",
                100.0 * self.detected as f64 / self.faults as f64,
            ),
            ("peak_rss_mb", peak_rss_mb()),
        ])
    }
}

/// Share of `--seconds` a traced run spends on its untraced baseline
/// (the reference for `trace.overhead_pct`).
pub const BASELINE_SHARE: f64 = 0.5;

/// Campaigns the untraced baseline of a traced run needs at least (it
/// only reports a median).
pub const BASELINE_MIN: usize = 20;

/// Runs whole rounds over `inputs` campaigns, each round in a fresh
/// seeded order, until `seconds` have passed and at least
/// `min_campaigns` campaigns ran.  One thread, closed loop: the next
/// campaign starts when the previous one returns.  Campaign times go
/// through `clock`.  Throughput divides by the summed campaign time, so
/// checking reports is not counted.
pub fn closed_loop(
    seconds: f64,
    min_campaigns: usize,
    inputs: usize,
    rng: &mut Rng,
    clock: &mut Clock,
    mut campaign: impl FnMut(usize) -> Sample,
) -> Timed {
    let start = Instant::now();
    let mut timed = Timed::default();
    while start.elapsed().as_secs_f64() < seconds || timed.latencies_ms.len() < min_campaigns as u64
    {
        for i in rng.permutation(inputs) {
            let mut s = campaign(i);
            s.ms = clock.scale(s.ms);
            timed.busy_s += s.ms / 1e3;
            timed.add(s);
        }
    }
    timed
}

/// Milliseconds since `t`.
pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Microseconds since `t`.
pub fn us_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e6
}

/// Builds the workload state `repeats` times, dropping each instance
/// before the next, and returns the median build time in seconds (as
/// `clock` reports it) with the last instance.
pub fn measure_setup<T>(
    repeats: usize,
    clock: &mut Clock,
    mut build: impl FnMut() -> T,
) -> (f64, T) {
    let mut times = Vec::with_capacity(repeats);
    let mut last = None;
    for _ in 0..repeats.max(1) {
        drop(last.take());
        let t = Instant::now();
        last = Some(build());
        times.push(clock.scale(t.elapsed().as_secs_f64()));
    }
    (median(&times), last.expect("at least one set-up"))
}

/// Peak resident memory of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Where the benchmark writes its artifacts: `perfbench/` under the
/// Cargo target directory.
pub fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("perfbench")
}

/// An in-process daemon on an ephemeral loopback port.  Dropping it
/// shuts it down and waits for its accept loop to end.
pub struct Daemon {
    /// The address clients connect to.
    pub addr: String,
    handle: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Daemon {
    /// Binds and starts a daemon with `cfg`.
    pub fn start(cfg: satpg_serve::ServeConfig) -> Daemon {
        let server = satpg_serve::Server::bind(cfg).expect("bind a loopback daemon");
        let addr = server.local_addr();
        let handle = std::thread::spawn(move || server.run());
        Daemon {
            addr,
            handle: Some(handle),
        }
    }

    /// Sends `shutdown` and joins the accept loop.
    pub fn stop(&mut self) -> Result<(), String> {
        let Some(handle) = self.handle.take() else {
            return Ok(());
        };
        satpg_serve::Client::connect(&self.addr)
            .map_err(|e| e.to_string())?
            .shutdown()
            .map_err(|e| e.to_string())?;
        match handle.join() {
            Ok(result) => result.map_err(|e| e.to_string()),
            Err(_) => Err("daemon thread panicked".to_string()),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Err(e) = self.stop() {
            eprintln!("perfbench: stopping daemon {}: {e}", self.addr);
        }
    }
}

/// Name of the span the benchmark opens around each traced campaign;
/// the spans it opens directly inside are the layer calls.
pub const CAMPAIGN_SPAN: &str = "bench.campaign";

/// Share of traced campaign wall clock that no layer span covers: the
/// summed duration of every [`CAMPAIGN_SPAN`] minus that of its direct
/// children, in percent.
pub fn uncovered_pct(events: &[TraceEvent]) -> f64 {
    let mut begin: BTreeMap<u64, (&str, u64, u64)> = BTreeMap::new();
    let mut spans: Vec<(u64, &str, u64, u64)> = Vec::new();
    for ev in events {
        match ev.kind {
            EventKind::Begin => {
                begin.insert(ev.id, (ev.name, ev.parent, ev.ts_us));
            }
            EventKind::End => {
                if let Some((name, parent, t0)) = begin.remove(&ev.id) {
                    spans.push((ev.id, name, parent, ev.ts_us.saturating_sub(t0)));
                }
            }
        }
    }
    let campaigns: BTreeMap<u64, u64> = spans
        .iter()
        .filter(|s| s.1 == CAMPAIGN_SPAN)
        .map(|s| (s.0, s.3))
        .collect();
    let total: u64 = campaigns.values().sum();
    let covered: u64 = spans
        .iter()
        .filter(|s| campaigns.contains_key(&s.2))
        .map(|s| s.3)
        .sum();
    if total == 0 {
        return 0.0;
    }
    100.0 * (total as f64 - covered as f64) / total as f64
}

/// Installs the span collector, runs `f`, then drains the collector
/// and writes the events as `trace-<workload>.json`.  Returns `f`'s
/// value and the share of campaign time no layer span covers.
pub fn traced<T>(workload: &str, f: impl FnOnce() -> T) -> (T, f64) {
    let collector = satpg_trace::install();
    let out = f();
    let events = collector.drain();
    satpg_trace::uninstall();
    let path = out_dir().join(format!("trace-{workload}.json"));
    satpg_trace::chrome::write_file(&path, &events, &format!("satpg-perfbench {workload}"))
        .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
    (out, uncovered_pct(&events))
}

/// Inserts `trace.overhead_pct` (traced against untraced median
/// campaign) and `trace.uncovered_pct`.
pub fn put_overhead(
    m: &mut Metrics,
    notes: &mut Vec<String>,
    baseline: &Timed,
    traced_run: &Timed,
    uncovered: f64,
) {
    let (untraced, traced) = (baseline.p50(), traced_run.p50());
    m.insert("trace.overhead_pct", 100.0 * (traced - untraced) / untraced);
    m.insert("trace.uncovered_pct", uncovered);
    notes.push(format!(
        "trace.overhead_pct base: traced p50 {traced:.4} ms ({} campaigns) vs untraced p50 {untraced:.4} ms ({} campaigns)",
        traced_run.latencies_ms.len(),
        baseline.latencies_ms.len()
    ));
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::MIN_CAMPAIGNS;

    fn ev(kind: EventKind, name: &'static str, id: u64, parent: u64, ts_us: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name,
            id,
            parent,
            tid: 1,
            ts_us,
            args: Vec::new(),
        }
    }

    #[test]
    fn uncovered_counts_only_direct_children_of_campaigns() {
        use EventKind::{Begin, End};
        let events = vec![
            ev(Begin, CAMPAIGN_SPAN, 1, 0, 0),
            ev(Begin, "bench.cssg", 2, 1, 10),
            ev(Begin, "cssg.build", 3, 2, 12),
            ev(End, "cssg.build", 3, 0, 40),
            ev(End, "bench.cssg", 2, 0, 50),
            ev(Begin, "bench.engine", 4, 1, 60),
            ev(End, "bench.engine", 4, 0, 90),
            ev(End, CAMPAIGN_SPAN, 1, 0, 100),
        ];
        // 100 us of campaign, 40 + 30 us in layer calls.
        assert!((uncovered_pct(&events) - 30.0).abs() < 1e-9);
        assert_eq!(uncovered_pct(&[]), 0.0);
    }

    #[test]
    fn timed_throughput_and_coverage_use_delivered_verdicts() {
        let mut t = Timed::default();
        for i in 0..MIN_CAMPAIGNS {
            t.add(Sample {
                ms: i as f64,
                verdicts: Some((10, 9)),
                outcome: Outcome::Identical,
            });
        }
        t.add(Sample {
            ms: 1.0,
            verdicts: None,
            outcome: Outcome::Error,
        });
        t.busy_s = 2.0;
        let m = t.end_to_end(0.5, &mut Vec::new());
        assert_eq!(m["faults_per_s"], 500.0);
        assert_eq!(m["coverage_pct"], 90.0);
        assert_eq!((t.tally.attempted, t.tally.failed), (101, 1));
    }
}
