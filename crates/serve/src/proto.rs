//! The JSON-lines wire protocol.
//!
//! Every message is one JSON object on one `\n`-terminated line.
//! Client → server messages carry a `"cmd"` key (`submit`, `status`,
//! `shutdown`); server → client messages carry an `"event"` key.  A
//! `submit` answers with `accepted` (or `rejected` under backpressure),
//! then streams `stage` / `test` / `worker` telemetry events, and
//! terminates the job with exactly one `report` or `error` event.
//!
//! All parsing is defensive: malformed input yields an `Err(String)`
//! suitable for an `error` event, never a panic (the line length and
//! JSON nesting depth are capped upstream).

use satpg_core::json::Json;
use satpg_core::{FaultStatus, TestSequence, UntestableReason};
use satpg_engine::WorkerStats;
use satpg_netlist::Pattern;

/// Hard cap on one request line (bytes), applied while reading.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Hard cap on a requested transition bound `k`.
pub const MAX_K: usize = 1 << 16;

/// Hard cap on per-job engine workers.
pub const MAX_JOB_WORKERS: usize = 64;

/// Wire protocol version, echoed in the `enlisted` handshake so a fleet
/// coordinator can refuse peers speaking something else.
pub const PROTOCOL_VERSION: u64 = 1;

/// Hard cap on classes in one `shard_submit`.
pub const MAX_SHARD_CLASSES: usize = 1 << 20;

/// Hard cap on one serialized pattern's bit length.
pub const MAX_PATTERN_BITS: usize = 1 << 16;

/// What circuit a job targets.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CircuitSpec {
    /// A bundled benchmark by name, synthesized in `style`
    /// (`si`/`2l`/`2lr`).
    Bench {
        /// Benchmark name from `satpg list`.
        name: String,
        /// Synthesis style.
        style: String,
    },
    /// A generated family (`muller`/`arbiter`/`dme`/`seq`) at `size`.
    Family {
        /// Family name.
        name: String,
        /// Family size parameter.
        size: usize,
    },
    /// Inline `.g` STG text, synthesized in `style`.
    InlineG {
        /// The `.g` source.
        text: String,
        /// Synthesis style.
        style: String,
    },
    /// Inline `.ckt` netlist text.
    InlineCkt {
        /// The `.ckt` source.
        text: String,
    },
}

impl CircuitSpec {
    /// The canonical content string the circuit cache hashes.
    pub fn cache_text(&self) -> String {
        match self {
            CircuitSpec::Bench { name, style } => format!("bench\x1f{style}\x1f{name}"),
            CircuitSpec::Family { name, size } => format!("family\x1f{name}\x1f{size}"),
            CircuitSpec::InlineG { text, style } => format!("g\x1f{style}\x1f{text}"),
            CircuitSpec::InlineCkt { text } => format!("ckt\x1f{text}"),
        }
    }

    fn to_json_value(&self) -> Json {
        match self {
            CircuitSpec::Bench { name, style } => Json::Obj(vec![
                ("bench".to_string(), Json::str(name)),
                ("style".to_string(), Json::str(style)),
            ]),
            CircuitSpec::Family { name, size } => Json::Obj(vec![
                ("family".to_string(), Json::str(name)),
                ("size".to_string(), Json::int(*size)),
            ]),
            CircuitSpec::InlineG { text, style } => Json::Obj(vec![
                ("g".to_string(), Json::str(text)),
                ("style".to_string(), Json::str(style)),
            ]),
            CircuitSpec::InlineCkt { text } => {
                Json::Obj(vec![("ckt".to_string(), Json::str(text))])
            }
        }
    }

    fn from_json(v: &Json) -> Result<CircuitSpec, String> {
        let style = match v.get("style") {
            None => "si".to_string(),
            Some(s) => s
                .as_str()
                .ok_or("circuit.style must be a string")?
                .to_string(),
        };
        if !matches!(style.as_str(), "si" | "2l" | "2lr") {
            return Err(format!("unknown style `{style}` (si|2l|2lr)"));
        }
        if let Some(name) = v.get("bench") {
            let name = name.as_str().ok_or("circuit.bench must be a string")?;
            return Ok(CircuitSpec::Bench {
                name: name.to_string(),
                style,
            });
        }
        if let Some(name) = v.get("family") {
            let name = name.as_str().ok_or("circuit.family must be a string")?;
            let size = v
                .get("size")
                .and_then(Json::as_usize)
                .ok_or("circuit.size must be a non-negative integer")?;
            return Ok(CircuitSpec::Family {
                name: name.to_string(),
                size,
            });
        }
        if let Some(text) = v.get("g") {
            let text = text.as_str().ok_or("circuit.g must be a string")?;
            return Ok(CircuitSpec::InlineG {
                text: text.to_string(),
                style,
            });
        }
        if let Some(text) = v.get("ckt") {
            let text = text.as_str().ok_or("circuit.ckt must be a string")?;
            return Ok(CircuitSpec::InlineCkt {
                text: text.to_string(),
            });
        }
        Err("circuit must carry one of: bench, family, g, ckt".to_string())
    }
}

/// A job request: the circuit plus its flow knobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct JobSpec {
    /// The target circuit.
    pub circuit: CircuitSpec,
    /// Engine workers for this job; `0` uses the server default.
    pub workers: usize,
    /// Target output stuck-at faults instead of input stuck-at.
    pub output_model: bool,
    /// Structurally collapse equivalent faults.
    pub collapse: bool,
    /// Skip the random-TPG stage.
    pub no_random: bool,
    /// Explicit CSSG transition bound; `None` derives it.
    pub k: Option<usize>,
    /// Per-state CSSG pattern budget.  Required for circuits with more
    /// than 63 primary inputs (exhaustive enumeration stops there);
    /// `None` enumerates exhaustively.
    pub pattern_budget: Option<u64>,
}

impl JobSpec {
    /// A spec with default knobs.
    pub fn new(circuit: CircuitSpec) -> Self {
        JobSpec {
            circuit,
            workers: 0,
            output_model: false,
            collapse: false,
            no_random: false,
            k: None,
            pattern_budget: None,
        }
    }
}

/// One slice of a fleet campaign: the job's spec (so the peer resolves
/// the same circuit and flow knobs as the coordinator) plus the serial
/// class indices this peer should search.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardSpec {
    /// The campaign's job spec; the peer derives its fault plan from it
    /// exactly as a local run would, so class indices agree.
    pub job: JobSpec,
    /// Serial class indices to search, in serial order.
    pub classes: Vec<usize>,
}

/// A client → server message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Request {
    /// Submit a job.
    Submit(Box<JobSpec>),
    /// Ask for scheduler/cache counters.
    Status,
    /// Ask for a snapshot of the process-wide metrics registry
    /// (counters, gauges, histograms accumulated across every job the
    /// daemon has run — including jobs whose client disconnected).
    Metrics,
    /// Stop accepting work and exit once running jobs finish.
    Shutdown,
    /// Fleet handshake: ask the daemon to identify itself as a peer
    /// (answered with an `enlisted` event carrying the protocol version).
    Enlist,
    /// Run a slice of a fleet campaign, streaming one `shard_verdict`
    /// per computed class and a terminal `shard_result`.
    ShardSubmit(Box<ShardSpec>),
    /// Relay of a test found elsewhere in the fleet: the shard session
    /// `shard` may drop pending classes after `class` (in serial order)
    /// that the test already covers.
    Broadcast {
        /// The target shard session (the `id` its `shard_submit` carried).
        shard: u64,
        /// Serial class index of the broadcasting class.
        class: usize,
        /// The discovered test.
        test: TestSequence,
    },
}

/// Serializes a test sequence for the wire: one bit-0-first `0`/`1`
/// string per pattern.  Bitstrings are self-describing (their length is
/// the input count), so parsing needs no circuit context, and the
/// round-trip is exact for any width.
pub fn test_to_json(seq: &TestSequence) -> Json {
    Json::Arr(
        seq.patterns
            .iter()
            .map(|p| Json::str(p.to_string()))
            .collect(),
    )
}

/// Parses a wire test sequence (see [`test_to_json`]).
///
/// # Errors
///
/// A message on non-arrays, non-bitstring patterns or oversized widths.
pub fn test_from_json(v: &Json) -> Result<TestSequence, String> {
    let arr = match v {
        Json::Arr(a) => a,
        _ => return Err("test must be an array of pattern bitstrings".to_string()),
    };
    let mut patterns = Vec::with_capacity(arr.len());
    for p in arr {
        let s = p
            .as_str()
            .ok_or("test pattern must be a bitstring".to_string())?;
        if s.is_empty() || s.len() > MAX_PATTERN_BITS || !s.bytes().all(|b| b == b'0' || b == b'1')
        {
            return Err(format!("malformed test pattern `{s}`"));
        }
        let bytes = s.as_bytes();
        patterns.push(Pattern::from_fn(s.len(), |i| bytes[i] == b'1'));
    }
    Ok(TestSequence { patterns })
}

/// Serializes a fault verdict as `status` (+ `test` when detected)
/// fields, spliced into an enclosing object's field list.
pub fn verdict_fields(v: &FaultStatus) -> Vec<(String, Json)> {
    match v {
        FaultStatus::Detected { sequence } => vec![
            ("status".to_string(), Json::str("detected")),
            ("test".to_string(), test_to_json(sequence)),
        ],
        FaultStatus::Untestable(_) => vec![("status".to_string(), Json::str("untestable"))],
        FaultStatus::Aborted => vec![("status".to_string(), Json::str("aborted"))],
    }
}

/// Parses a verdict from an object carrying [`verdict_fields`].
///
/// # Errors
///
/// A message on unknown statuses or malformed tests.
pub fn verdict_from_json(v: &Json) -> Result<FaultStatus, String> {
    match v.get("status").and_then(Json::as_str) {
        Some("detected") => Ok(FaultStatus::Detected {
            sequence: test_from_json(v.get("test").ok_or("detected verdict requires `test`")?)?,
        }),
        Some("untestable") => Ok(FaultStatus::Untestable(
            UntestableReason::NoDistinguishingSequence,
        )),
        Some("aborted") => Ok(FaultStatus::Aborted),
        other => Err(format!("unknown verdict status {other:?}")),
    }
}

/// Splices a job spec's knob fields into a request's field list
/// (default-valued knobs are omitted to keep lines short).
fn job_fields(spec: &JobSpec, m: &mut Vec<(String, Json)>) {
    m.push(("circuit".to_string(), spec.circuit.to_json_value()));
    if spec.workers != 0 {
        m.push(("workers".to_string(), Json::int(spec.workers)));
    }
    if spec.output_model {
        m.push(("output_model".to_string(), Json::Bool(true)));
    }
    if spec.collapse {
        m.push(("collapse".to_string(), Json::Bool(true)));
    }
    if spec.no_random {
        m.push(("no_random".to_string(), Json::Bool(true)));
    }
    if let Some(k) = spec.k {
        m.push(("k".to_string(), Json::int(k)));
    }
    if let Some(b) = spec.pattern_budget {
        m.push(("pattern_budget".to_string(), Json::int(b)));
    }
}

/// The keys a `submit` object may carry: the command, the correlation
/// id and the fields [`job_fields`] writes.
const JOB_KEYS: [&str; 9] = [
    "cmd",
    "id",
    "circuit",
    "workers",
    "output_model",
    "collapse",
    "no_random",
    "k",
    "pattern_budget",
];

/// Parses the job-spec knob fields of a `submit`/`shard_submit` object.
/// A key outside [`JOB_KEYS`] and `extra` is an error, so a misspelt or
/// retired knob fails loudly instead of running with the default.
fn job_from_json(v: &Json, extra: &[&str]) -> Result<JobSpec, String> {
    if let Json::Obj(fields) = v {
        let known = |key: &str| JOB_KEYS.contains(&key) || extra.contains(&key);
        if let Some((key, _)) = fields.iter().find(|(key, _)| !known(key)) {
            return Err(format!("unknown job field `{key}`"));
        }
    }
    let circuit = CircuitSpec::from_json(v.get("circuit").ok_or("request requires `circuit`")?)?;
    let usize_knob = |key: &str, max: usize| -> Result<Option<usize>, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(None),
            Some(j) => {
                let n = j
                    .as_usize()
                    .ok_or(format!("`{key}` must be a non-negative integer"))?;
                if n > max {
                    return Err(format!("`{key}` {n} exceeds the cap {max}"));
                }
                Ok(Some(n))
            }
        }
    };
    let bool_knob = |key: &str| -> Result<bool, String> {
        match v.get(key) {
            None | Some(Json::Null) => Ok(false),
            Some(j) => j.as_bool().ok_or(format!("`{key}` must be a boolean")),
        }
    };
    Ok(JobSpec {
        circuit,
        workers: usize_knob("workers", MAX_JOB_WORKERS)?.unwrap_or(0),
        output_model: bool_knob("output_model")?,
        collapse: bool_knob("collapse")?,
        no_random: bool_knob("no_random")?,
        k: usize_knob("k", MAX_K)?,
        pattern_budget: usize_knob("pattern_budget", usize::MAX / 2)?.map(|b| b as u64),
    })
}

impl Request {
    /// Renders the request as one protocol line (without the newline).
    pub fn to_json_value(&self) -> Json {
        self.to_json_with_id(None)
    }

    /// [`Request::to_json_value`] with a correlation id.  The server
    /// echoes the id on every reply line for this request, so multiple
    /// in-flight requests can share one connection — the fleet
    /// coordinator's peer pool depends on this.
    pub fn to_json_with_id(&self, id: Option<u64>) -> Json {
        let mut m: Vec<(String, Json)> = Vec::new();
        match self {
            Request::Status => m.push(("cmd".to_string(), Json::str("status"))),
            Request::Metrics => m.push(("cmd".to_string(), Json::str("metrics"))),
            Request::Shutdown => m.push(("cmd".to_string(), Json::str("shutdown"))),
            Request::Enlist => m.push(("cmd".to_string(), Json::str("enlist"))),
            Request::Submit(spec) => {
                m.push(("cmd".to_string(), Json::str("submit")));
                job_fields(spec, &mut m);
            }
            Request::ShardSubmit(spec) => {
                m.push(("cmd".to_string(), Json::str("shard_submit")));
                job_fields(&spec.job, &mut m);
                m.push((
                    "classes".to_string(),
                    Json::Arr(spec.classes.iter().map(|&c| Json::int(c)).collect()),
                ));
            }
            Request::Broadcast { shard, class, test } => {
                m.push(("cmd".to_string(), Json::str("broadcast")));
                m.push(("shard".to_string(), Json::int(*shard)));
                m.push(("class".to_string(), Json::int(*class)));
                m.push(("test".to_string(), test_to_json(test)));
            }
        }
        if let Some(id) = id {
            m.push(("id".to_string(), Json::int(id)));
        }
        Json::Obj(m)
    }

    /// Parses one protocol line.
    ///
    /// # Errors
    ///
    /// A human-readable message on malformed JSON, unknown commands,
    /// missing fields or out-of-range knobs.
    pub fn parse(line: &str) -> Result<Request, String> {
        Request::parse_with_id(line).map(|(req, _)| req)
    }

    /// [`Request::parse`] plus the optional `id` correlation field.
    ///
    /// # Errors
    ///
    /// Same as [`Request::parse`]; a non-integer `id` is also an error.
    pub fn parse_with_id(line: &str) -> Result<(Request, Option<u64>), String> {
        let v = Json::parse(line).map_err(|e| e.to_string())?;
        let id = match v.get("id") {
            None | Some(Json::Null) => None,
            Some(j) => Some(j.as_usize().ok_or("`id` must be a non-negative integer")? as u64),
        };
        let cmd = v
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or("request must carry a string `cmd`")?;
        let req = match cmd {
            "status" => Request::Status,
            "metrics" => Request::Metrics,
            "shutdown" => Request::Shutdown,
            "enlist" => Request::Enlist,
            "submit" => Request::Submit(Box::new(job_from_json(&v, &[])?)),
            "shard_submit" => {
                let job = job_from_json(&v, &["classes"])?;
                let arr = match v.get("classes") {
                    Some(Json::Arr(a)) => a,
                    _ => return Err("shard_submit requires a `classes` array".to_string()),
                };
                if arr.len() > MAX_SHARD_CLASSES {
                    return Err(format!(
                        "`classes` count {} exceeds the cap {MAX_SHARD_CLASSES}",
                        arr.len()
                    ));
                }
                let classes = arr
                    .iter()
                    .map(|c| {
                        c.as_usize()
                            .ok_or("`classes` entries must be non-negative integers".to_string())
                    })
                    .collect::<Result<Vec<usize>, String>>()?;
                Request::ShardSubmit(Box::new(ShardSpec { job, classes }))
            }
            "broadcast" => Request::Broadcast {
                shard: v
                    .get("shard")
                    .and_then(Json::as_usize)
                    .ok_or("broadcast requires an integer `shard`")? as u64,
                class: v
                    .get("class")
                    .and_then(Json::as_usize)
                    .ok_or("broadcast requires an integer `class`")?,
                test: test_from_json(v.get("test").ok_or("broadcast requires `test`")?)?,
            },
            other => return Err(format!("unknown command `{other}`")),
        };
        Ok((req, id))
    }
}

/// Builders for the server → client events.  Kept in one place so the
/// round-trip tests and both ends of the protocol agree on field names.
pub mod event {
    use super::*;

    fn base(kind: &str, job: Option<u64>) -> Vec<(String, Json)> {
        let mut m = vec![("event".to_string(), Json::str(kind))];
        if let Some(j) = job {
            m.push(("job".to_string(), Json::int(j)));
        }
        m
    }

    /// The job was queued.
    pub fn accepted(job: u64, queue_depth: usize) -> Json {
        let mut m = base("accepted", Some(job));
        m.push(("queue_depth".to_string(), Json::int(queue_depth)));
        Json::Obj(m)
    }

    /// The job was refused (backpressure or shutdown).
    pub fn rejected(reason: &str) -> Json {
        let mut m = base("rejected", None);
        m.push(("reason".to_string(), Json::str(reason)));
        Json::Obj(m)
    }

    /// The job failed; this is the job's final event.
    pub fn error(job: u64, message: &str) -> Json {
        let mut m = base("error", Some(job));
        m.push(("message".to_string(), Json::str(message)));
        Json::Obj(m)
    }

    /// A stage transition with stage-specific `data` fields.
    pub fn stage(job: u64, name: &str, data: Vec<(String, Json)>) -> Json {
        let mut m = base("stage", Some(job));
        m.push(("stage".to_string(), Json::str(name)));
        m.extend(data);
        Json::Obj(m)
    }

    /// A worker found a test.
    pub fn test(job: u64, worker: usize, class: usize, cycles: usize) -> Json {
        let mut m = base("test", Some(job));
        m.push(("worker".to_string(), Json::int(worker)));
        m.push(("class".to_string(), Json::int(class)));
        m.push(("cycles".to_string(), Json::int(cycles)));
        Json::Obj(m)
    }

    /// A worker finished; full per-worker telemetry.
    pub fn worker(job: u64, stats: &WorkerStats) -> Json {
        let mut m = base("worker", Some(job));
        m.push(("stats".to_string(), stats.to_json_value(true)));
        Json::Obj(m)
    }

    /// The job's final report (engine JSON form plus cache flags).
    pub fn report(job: u64, body: Json) -> Json {
        let mut m = base("report", Some(job));
        if let Json::Obj(fields) = body {
            m.extend(fields);
        }
        Json::Obj(m)
    }

    /// The status snapshot.
    pub fn status(fields: Vec<(String, Json)>) -> Json {
        let mut m = base("status", None);
        m.extend(fields);
        Json::Obj(m)
    }

    /// A frozen metrics-registry snapshot: counters and gauges as
    /// name→value objects, histograms as `{count, sum, buckets}` with
    /// `buckets` the non-empty `[index, count]` pairs of the fixed
    /// log-2 layout (bucket `0` holds value `0`, bucket `i` holds
    /// `[2^(i-1), 2^i)`).  Names stay sorted, so the rendering is
    /// byte-stable for a given registry state.
    pub fn metrics(snap: &satpg_trace::MetricsSnapshot) -> Json {
        let mut m = base("metrics", None);
        m.push((
            "counters".to_string(),
            Json::Obj(
                snap.counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::int(*v)))
                    .collect(),
            ),
        ));
        m.push((
            "gauges".to_string(),
            Json::Obj(
                snap.gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::int(*v)))
                    .collect(),
            ),
        ));
        m.push((
            "histograms".to_string(),
            Json::Obj(
                snap.histograms
                    .iter()
                    .map(|h| {
                        (
                            h.name.clone(),
                            Json::Obj(vec![
                                ("count".to_string(), Json::int(h.count)),
                                ("sum".to_string(), Json::int(h.sum)),
                                (
                                    "buckets".to_string(),
                                    Json::Arr(
                                        h.buckets
                                            .iter()
                                            .map(|(b, n)| {
                                                Json::Arr(vec![Json::int(*b), Json::int(*n)])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ]),
                        )
                    })
                    .collect(),
            ),
        ));
        Json::Obj(m)
    }

    /// Acknowledges a shutdown request.
    pub fn shutdown_ok() -> Json {
        Json::Obj(vec![
            ("event".to_string(), Json::str("ok")),
            ("shutdown".to_string(), Json::Bool(true)),
        ])
    }

    /// Appends the request's correlation `id` to a reply event (no-op
    /// when the request carried none).
    pub fn with_id(ev: Json, id: Option<u64>) -> Json {
        match (ev, id) {
            (Json::Obj(mut m), Some(id)) => {
                m.push(("id".to_string(), Json::int(id)));
                Json::Obj(m)
            }
            (ev, _) => ev,
        }
    }

    /// Answers an `enlist` handshake.
    pub fn enlisted() -> Json {
        Json::Obj(vec![
            ("event".to_string(), Json::str("enlisted")),
            ("protocol".to_string(), Json::int(PROTOCOL_VERSION)),
        ])
    }

    /// A shard session started.
    pub fn shard_accepted(shard: u64, classes: usize) -> Json {
        Json::Obj(vec![
            ("event".to_string(), Json::str("shard_accepted")),
            ("shard".to_string(), Json::int(shard)),
            ("classes".to_string(), Json::int(classes)),
        ])
    }

    /// One computed class verdict of a shard session.
    pub fn shard_verdict(shard: u64, class: usize, verdict: &FaultStatus) -> Json {
        let mut m = vec![
            ("event".to_string(), Json::str("shard_verdict")),
            ("shard".to_string(), Json::int(shard)),
            ("class".to_string(), Json::int(class)),
        ];
        m.extend(verdict_fields(verdict));
        Json::Obj(m)
    }

    /// A shard session's terminal event: every class was either computed
    /// (`shard_verdict` streamed) or dropped against a broadcast test.
    pub fn shard_result(shard: u64, computed: usize, dropped: usize) -> Json {
        Json::Obj(vec![
            ("event".to_string(), Json::str("shard_result")),
            ("shard".to_string(), Json::int(shard)),
            ("computed".to_string(), Json::int(computed)),
            ("dropped".to_string(), Json::int(dropped)),
        ])
    }

    /// Acknowledges a broadcast relay.  `known` is `false` when the
    /// target shard session already finished — stale relays are normal
    /// under completion races and harmless (the merge recomputes).
    pub fn broadcast_ok(shard: u64, known: bool) -> Json {
        Json::Obj(vec![
            ("event".to_string(), Json::str("broadcast_ok")),
            ("shard".to_string(), Json::int(shard)),
            ("known".to_string(), Json::Bool(known)),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(req: Request) {
        let line = req.to_json_value().render();
        assert_eq!(Request::parse(&line), Ok(req), "{line}");
    }

    #[test]
    fn requests_round_trip() {
        round_trip(Request::Status);
        round_trip(Request::Metrics);
        round_trip(Request::Shutdown);
        round_trip(Request::Submit(Box::new(JobSpec::new(
            CircuitSpec::Bench {
                name: "converta".into(),
                style: "si".into(),
            },
        ))));
        round_trip(Request::Submit(Box::new(JobSpec {
            circuit: CircuitSpec::Family {
                name: "muller".into(),
                size: 8,
            },
            workers: 4,
            output_model: true,
            collapse: true,
            no_random: true,
            k: Some(40),
            pattern_budget: Some(256),
        })));
        round_trip(Request::Submit(Box::new(JobSpec::new(
            CircuitSpec::InlineCkt {
                text: "circuit inv\ninputs A:a\noutputs y\ngate y = not(a)\n".into(),
            },
        ))));
        round_trip(Request::Submit(Box::new(JobSpec::new(
            CircuitSpec::InlineG {
                text: ".model m\n.inputs r\n.outputs a\n.graph\nr+ a+\na+ r-\nr- a-\na- r+\n.marking { <a-,r+> }\n".into(),
                style: "2l".into(),
            },
        ))));
    }

    #[test]
    fn fleet_requests_round_trip() {
        round_trip(Request::Enlist);
        round_trip(Request::ShardSubmit(Box::new(ShardSpec {
            job: JobSpec::new(CircuitSpec::Bench {
                name: "converta".into(),
                style: "si".into(),
            }),
            classes: vec![0, 3, 7, 8],
        })));
        round_trip(Request::Broadcast {
            shard: 12,
            class: 3,
            test: TestSequence::from_u64(5, &[0b10110, 0, 0b00001]),
        });
        // A >64-bit pattern must survive the bitstring form exactly.
        let wide = TestSequence {
            patterns: vec![Pattern::from_fn(100, |i| i % 3 == 0)],
        };
        round_trip(Request::Broadcast {
            shard: 1,
            class: 0,
            test: wide,
        });
    }

    #[test]
    fn correlation_ids_round_trip_and_echo() {
        for req in [
            Request::Status,
            Request::Enlist,
            Request::Submit(Box::new(JobSpec::new(CircuitSpec::Bench {
                name: "converta".into(),
                style: "si".into(),
            }))),
        ] {
            let line = req.to_json_with_id(Some(41)).render();
            assert_eq!(
                Request::parse_with_id(&line),
                Ok((req.clone(), Some(41))),
                "{line}"
            );
            // Without an id the field is absent and parses as None.
            let bare = req.to_json_value().render();
            assert!(!bare.contains("\"id\""));
            assert_eq!(Request::parse_with_id(&bare), Ok((req, None)));
        }
        // The reply-side tag matches what the request carried.
        let tagged = event::with_id(event::enlisted(), Some(41));
        let v = Json::parse(&tagged.render()).unwrap();
        assert_eq!(v.get("id").and_then(Json::as_usize), Some(41));
        assert_eq!(
            v.get("protocol").and_then(Json::as_usize),
            Some(PROTOCOL_VERSION as usize)
        );
        // No id → no tag.
        assert!(!event::with_id(event::enlisted(), None)
            .render()
            .contains("\"id\""));
        assert!(Request::parse_with_id("{\"cmd\":\"status\",\"id\":\"x\"}").is_err());
    }

    #[test]
    fn verdicts_round_trip() {
        use satpg_core::UntestableReason;
        for v in [
            FaultStatus::Detected {
                sequence: TestSequence::from_u64(3, &[0b101, 0b010]),
            },
            FaultStatus::Untestable(UntestableReason::NoDistinguishingSequence),
            FaultStatus::Aborted,
        ] {
            let ev = event::shard_verdict(9, 4, &v);
            let parsed = Json::parse(&ev.render()).unwrap();
            assert_eq!(parsed.get("shard").and_then(Json::as_usize), Some(9));
            assert_eq!(parsed.get("class").and_then(Json::as_usize), Some(4));
            assert_eq!(verdict_from_json(&parsed), Ok(v));
        }
        assert!(verdict_from_json(&Json::parse("{\"status\":\"odd\"}").unwrap()).is_err());
        assert!(test_from_json(&Json::parse("[\"01x\"]").unwrap()).is_err());
        assert!(test_from_json(&Json::parse("[\"\"]").unwrap()).is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_messages() {
        for (line, needle) in [
            ("", "JSON error"),
            ("{}", "cmd"),
            ("{\"cmd\":\"frob\"}", "unknown command"),
            ("{\"cmd\":\"submit\"}", "circuit"),
            ("{\"cmd\":\"submit\",\"circuit\":{}}", "one of"),
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"bench\":\"x\",\"style\":\"fancy\"}}",
                "unknown style",
            ),
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"bench\":\"x\"},\"workers\":-1}",
                "workers",
            ),
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"bench\":\"x\"},\"workers\":100000}",
                "cap",
            ),
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"bench\":\"x\"},\"k\":9999999}",
                "cap",
            ),
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"family\":\"muller\"}}",
                "size",
            ),
            (
                "{\"cmd\":\"shard_submit\",\"circuit\":{\"bench\":\"x\"}}",
                "classes",
            ),
            (
                "{\"cmd\":\"shard_submit\",\"circuit\":{\"bench\":\"x\"},\"classes\":[-1]}",
                "classes",
            ),
            ("{\"cmd\":\"broadcast\",\"shard\":1,\"class\":0}", "test"),
            // Retired and misspelt knobs are rejected, not ignored.
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"bench\":\"x\"},\"gc_threshold\":1024}",
                "unknown job field `gc_threshold`",
            ),
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"bench\":\"x\"},\"worker\":4}",
                "unknown job field `worker`",
            ),
            (
                "{\"cmd\":\"shard_submit\",\"circuit\":{\"bench\":\"x\"},\"classes\":[0],\"gc_threshold\":16}",
                "unknown job field `gc_threshold`",
            ),
            (
                "{\"cmd\":\"submit\",\"circuit\":{\"bench\":\"x\"},\"pp_random\":true}",
                "unknown job field `pp_random`",
            ),
            (
                "{\"cmd\":\"shard_submit\",\"circuit\":{\"bench\":\"x\"},\"classes\":[0],\"pp_random\":true}",
                "unknown job field `pp_random`",
            ),
            (
                "{\"cmd\":\"broadcast\",\"shard\":1,\"class\":0,\"test\":[17]}",
                "bitstring",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line} → {err}");
        }
    }

    #[test]
    fn events_parse_as_json_with_expected_fields() {
        let ev = event::accepted(3, 1);
        let v = Json::parse(&ev.render()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("accepted"));
        assert_eq!(v.get("job").unwrap().as_usize(), Some(3));
        let ev = event::stage(
            7,
            "cssg",
            vec![
                ("cache".to_string(), Json::str("hit")),
                ("states".to_string(), Json::int(12)),
            ],
        );
        let v = Json::parse(&ev.render()).unwrap();
        assert_eq!(v.get("stage").unwrap().as_str(), Some("cssg"));
        assert_eq!(v.get("cache").unwrap().as_str(), Some("hit"));
        let ev = event::worker(1, &WorkerStats::default());
        let v = Json::parse(&ev.render()).unwrap();
        assert!(v.get("stats").unwrap().get("bdd_peak_unique").is_some());
        assert_eq!(
            event::shutdown_ok().get("shutdown").unwrap().as_bool(),
            Some(true)
        );
    }

    #[test]
    fn metrics_event_renders_the_snapshot() {
        let snap = satpg_trace::MetricsSnapshot {
            counters: vec![
                ("a.count".to_string(), 3),
                ("b.\"quoted\"\tname".to_string(), 4),
            ],
            gauges: vec![("b.level".to_string(), -2)],
            histograms: vec![satpg_trace::HistogramSnapshot {
                name: "c.us".to_string(),
                count: 2,
                sum: 9,
                buckets: vec![(2, 1), (4, 1)],
            }],
        };
        let v = Json::parse(&event::metrics(&snap).render()).unwrap();
        assert_eq!(v.get("event").unwrap().as_str(), Some("metrics"));
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("a.count")
                .unwrap()
                .as_usize(),
            Some(3)
        );
        // A name that needs escaping survives the round trip.
        assert_eq!(
            v.get("counters")
                .unwrap()
                .get("b.\"quoted\"\tname")
                .unwrap()
                .as_usize(),
            Some(4)
        );
        assert_eq!(
            v.get("gauges").unwrap().get("b.level"),
            Some(&Json::Int(-2))
        );
        let h = v.get("histograms").unwrap().get("c.us").unwrap();
        assert_eq!(h.get("count").unwrap().as_usize(), Some(2));
        assert_eq!(h.get("sum").unwrap().as_usize(), Some(9));
    }

    #[test]
    fn cache_text_distinguishes_specs() {
        let a = CircuitSpec::Bench {
            name: "x".into(),
            style: "si".into(),
        };
        let b = CircuitSpec::Bench {
            name: "x".into(),
            style: "2l".into(),
        };
        let c = CircuitSpec::InlineCkt { text: "x".into() };
        assert_ne!(a.cache_text(), b.cache_text());
        assert_ne!(a.cache_text(), c.cache_text());
    }
}
