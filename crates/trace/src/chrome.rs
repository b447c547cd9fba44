//! Chrome `trace_event` export: renders drained [`TraceEvent`]s as the
//! JSON Object Format (`{"traceEvents":[...]}`) that `chrome://tracing`
//! and Perfetto load directly.
//!
//! Events are written grouped by thread in append order, which is
//! timestamp order — so per-thread timestamps are monotone in the file.
//! Begin/End balance is enforced at render time: an `End` whose `Begin`
//! was drained earlier is dropped, and a span still open at drain time
//! gets a synthetic `End` at the thread's last timestamp.  Every file
//! this module writes therefore passes the minimal schema check
//! (`satpg trace-check`): balanced B/E per thread, monotone per-thread
//! timestamps.

use crate::collect::{ArgValue, EventKind, TraceEvent};
use std::fmt::Write as _;
use std::io;
use std::path::Path;

/// `s` escaped for use inside a JSON string literal.
fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Appends the arguments as comma-separated `"key":value` pairs.
fn push_args(out: &mut String, args: &[(&'static str, ArgValue)]) {
    for (i, (k, v)) in args.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match v {
            ArgValue::Int(n) => {
                let _ = write!(out, "\"{}\":{}", escape(k), n);
            }
            ArgValue::Str(s) => {
                let _ = write!(out, "\"{}\":\"{}\"", escape(k), escape(s));
            }
        }
    }
}

fn push_begin(out: &mut String, ev: &TraceEvent) {
    let _ = write!(
        out,
        "{{\"name\":\"{}\",\"ph\":\"B\",\"pid\":1,\"tid\":{},\"ts\":{},\"args\":{{\"span_id\":{},\"parent\":{}",
        escape(ev.name),
        ev.tid,
        ev.ts_us,
        ev.id,
        ev.parent
    );
    if !ev.args.is_empty() {
        out.push(',');
        push_args(out, &ev.args);
    }
    out.push_str("}}");
}

/// An `E` event, carrying the arguments recorded at the span's end.
fn push_end(out: &mut String, tid: u64, ts_us: u64, args: &[(&'static str, ArgValue)]) {
    let _ = write!(out, "{{\"ph\":\"E\",\"pid\":1,\"tid\":{tid},\"ts\":{ts_us}");
    if !args.is_empty() {
        out.push_str(",\"args\":{");
        push_args(out, args);
        out.push('}');
    }
    out.push('}');
}

/// Renders events (as returned by
/// [`TraceCollector::drain`](crate::TraceCollector::drain)) into a
/// Chrome trace JSON string.
pub fn render(events: &[TraceEvent], process_name: &str) -> String {
    let mut tids: Vec<u64> = events.iter().map(|e| e.tid).collect();
    tids.sort_unstable();
    tids.dedup();

    let mut out = String::from("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n");
    let _ = write!(
        out,
        "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"name\":\"{}\"}}}}",
        escape(process_name)
    );
    for tid in tids {
        // Open span ids on this thread, innermost last.
        let mut open: Vec<u64> = Vec::new();
        let mut last_ts = 0u64;
        for ev in events.iter().filter(|e| e.tid == tid) {
            last_ts = last_ts.max(ev.ts_us);
            match ev.kind {
                EventKind::Begin => {
                    open.push(ev.id);
                    out.push_str(",\n");
                    push_begin(&mut out, ev);
                }
                EventKind::End => {
                    // An end whose begin was drained in an earlier
                    // batch has nothing to balance here: drop it.
                    if let Some(pos) = open.iter().rposition(|&id| id == ev.id) {
                        // Ends between `pos` and the top belong to
                        // spans that outlived this drain; close them
                        // synthetically so nesting stays balanced.
                        for _ in pos + 1..open.len() {
                            out.push_str(",\n");
                            push_end(&mut out, tid, ev.ts_us, &[]);
                        }
                        open.truncate(pos);
                        out.push_str(",\n");
                        push_end(&mut out, tid, ev.ts_us, &ev.args);
                    }
                }
            }
        }
        // Spans still open at drain time: synthesize their ends.
        for _ in 0..open.len() {
            out.push_str(",\n");
            push_end(&mut out, tid, last_ts, &[]);
        }
    }
    out.push_str("\n]}\n");
    out
}

/// Renders and writes a trace file.
///
/// # Errors
///
/// Propagates the underlying filesystem error.
pub fn write_file(path: &Path, events: &[TraceEvent], process_name: &str) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, render(events, process_name))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: EventKind, id: u64, tid: u64, ts: u64) -> TraceEvent {
        TraceEvent {
            kind,
            name: "t",
            id,
            parent: 0,
            tid,
            ts_us: ts,
            args: Vec::new(),
        }
    }

    fn balance(s: &str) -> (usize, usize) {
        let b = s.matches("\"ph\":\"B\"").count();
        let e = s.matches("\"ph\":\"E\"").count();
        (b, e)
    }

    #[test]
    fn balanced_input_stays_balanced() {
        let events = vec![
            ev(EventKind::Begin, 1, 1, 10),
            ev(EventKind::Begin, 2, 1, 20),
            ev(EventKind::End, 2, 1, 30),
            ev(EventKind::End, 1, 1, 40),
        ];
        let s = render(&events, "test");
        assert_eq!(balance(&s), (2, 2));
    }

    #[test]
    fn open_span_gets_synthetic_end() {
        let events = vec![
            ev(EventKind::Begin, 1, 1, 10),
            ev(EventKind::Begin, 2, 1, 20),
            ev(EventKind::End, 2, 1, 30),
            // span 1 still open at drain time
        ];
        let s = render(&events, "test");
        assert_eq!(balance(&s), (2, 2));
    }

    #[test]
    fn orphan_end_is_dropped() {
        let events = vec![
            // begin drained in a previous batch
            ev(EventKind::End, 7, 3, 30),
            ev(EventKind::Begin, 8, 3, 40),
            ev(EventKind::End, 8, 3, 50),
        ];
        let s = render(&events, "test");
        assert_eq!(balance(&s), (1, 1));
    }

    #[test]
    fn args_and_names_are_escaped() {
        let mut e = ev(EventKind::Begin, 1, 1, 10);
        e.args = vec![
            ("n", ArgValue::Int(42)),
            ("s", ArgValue::Str("a\"b\\c".into())),
        ];
        let events = vec![e, ev(EventKind::End, 1, 1, 20)];
        let s = render(&events, "test");
        assert!(s.contains("\"n\":42"), "{s}");
        assert!(s.contains("\"s\":\"a\\\"b\\\\c\""), "{s}");
    }

    #[test]
    fn end_args_ride_on_the_end_event() {
        let mut end = ev(EventKind::End, 1, 1, 20);
        end.args = vec![("nodes", ArgValue::Int(7)), ("k", ArgValue::Int(2))];
        let events = vec![ev(EventKind::Begin, 1, 1, 10), end];
        let s = render(&events, "test");
        assert!(
            s.contains(
                "{\"ph\":\"E\",\"pid\":1,\"tid\":1,\"ts\":20,\"args\":{\"nodes\":7,\"k\":2}}"
            ),
            "{s}"
        );
        assert_eq!(balance(&s), (1, 1));
    }
}
