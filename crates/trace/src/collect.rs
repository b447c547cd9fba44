//! The span collector: per-thread event buffers, the thread-local
//! parent stack, and the install/uninstall globals.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A span argument value.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ArgValue {
    /// Any integer (signed storage wide enough for `u64`).
    Int(i128),
    /// A string.
    Str(String),
}

macro_rules! arg_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for ArgValue {
            fn from(v: $t) -> ArgValue {
                ArgValue::Int(v as i128)
            }
        }
    )*};
}
arg_from_int!(u8, u16, u32, u64, usize, i8, i16, i32, i64, isize);

impl From<&str> for ArgValue {
    fn from(v: &str) -> ArgValue {
        ArgValue::Str(v.to_string())
    }
}

impl From<String> for ArgValue {
    fn from(v: String) -> ArgValue {
        ArgValue::Str(v)
    }
}

/// Begin or end of a span.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// Span opened.
    Begin,
    /// Span closed.
    End,
}

/// One recorded event.  A span contributes exactly one `Begin` and (once
/// its guard drops) one `End`, both in the buffer of the thread that
/// performed the action, in append order — so per-thread timestamps are
/// monotone and Begin/End nest properly by construction.
#[derive(Clone, Debug)]
pub struct TraceEvent {
    /// Begin or end.
    pub kind: EventKind,
    /// Span name (static: the instrumentation vocabulary is fixed).
    pub name: &'static str,
    /// Process-unique span id.
    pub id: u64,
    /// Parent span id; `0` for roots.
    pub parent: u64,
    /// Collector-assigned thread id (dense, starting at 1).
    pub tid: u64,
    /// Microseconds since the collector was installed.
    pub ts_us: u64,
    /// Arguments: on `Begin` those captured at open, on `End` those
    /// recorded with [`Span::record`] while the span was open.
    pub args: Vec<(&'static str, ArgValue)>,
}

/// One thread's event buffer.  The mutex is touched by the owning
/// thread and, rarely, the drainer — never by other worker threads.
struct ThreadBuf {
    tid: u64,
    events: Mutex<Vec<TraceEvent>>,
}

/// The process collector: owns every thread buffer and the time base.
pub struct TraceCollector {
    epoch: Instant,
    buffers: Mutex<Vec<Arc<ThreadBuf>>>,
    next_tid: AtomicU64,
}

impl TraceCollector {
    fn new() -> TraceCollector {
        TraceCollector {
            epoch: Instant::now(),
            buffers: Mutex::new(Vec::new()),
            next_tid: AtomicU64::new(1),
        }
    }

    fn register_thread(&self) -> Arc<ThreadBuf> {
        let buf = Arc::new(ThreadBuf {
            tid: self.next_tid.fetch_add(1, Ordering::Relaxed),
            events: Mutex::new(Vec::new()),
        });
        self.buffers
            .lock()
            .expect("collector buffers")
            .push(buf.clone());
        buf
    }

    fn now_us(&self) -> u64 {
        self.epoch.elapsed().as_micros() as u64
    }

    /// A copy of every event recorded so far, buffers in registration
    /// order, each in append (= time) order.  Events stay in place.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        let buffers = self.buffers.lock().expect("collector buffers");
        let mut out = Vec::new();
        for b in buffers.iter() {
            out.extend(b.events.lock().expect("thread buffer").iter().cloned());
        }
        out
    }

    /// Takes every event recorded so far, leaving the buffers empty
    /// (threads stay registered and keep recording).
    pub fn drain(&self) -> Vec<TraceEvent> {
        let buffers = self.buffers.lock().expect("collector buffers");
        let mut out = Vec::new();
        for b in buffers.iter() {
            out.append(&mut b.events.lock().expect("thread buffer"));
        }
        out
    }
}

static ENABLED: AtomicBool = AtomicBool::new(false);
/// Bumped on every install/uninstall; thread-locals compare against it
/// to notice a stale cached buffer.
static GENERATION: AtomicU64 = AtomicU64::new(1);
static NEXT_SPAN_ID: AtomicU64 = AtomicU64::new(1);
static COLLECTOR: Mutex<Option<Arc<TraceCollector>>> = Mutex::new(None);

/// Whether a collector is installed.  One relaxed load — the entire
/// cost of a [`span!`](crate::span) at a disabled site.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Installs a fresh collector process-wide, returning a handle for
/// draining.  Replaces any previous collector (whose open spans stop
/// recording their ends — prefer install-once-per-process, or drain
/// before replacing).
pub fn install() -> Arc<TraceCollector> {
    let c = Arc::new(TraceCollector::new());
    *COLLECTOR.lock().expect("collector slot") = Some(c.clone());
    GENERATION.fetch_add(1, Ordering::SeqCst);
    ENABLED.store(true, Ordering::SeqCst);
    c
}

/// Uninstalls the collector; subsequent [`span!`](crate::span) sites
/// return to the one-atomic-load fast path.
pub fn uninstall() {
    ENABLED.store(false, Ordering::SeqCst);
    *COLLECTOR.lock().expect("collector slot") = None;
    GENERATION.fetch_add(1, Ordering::SeqCst);
}

/// The currently installed collector, if any.
pub fn installed_collector() -> Option<Arc<TraceCollector>> {
    COLLECTOR.lock().expect("collector slot").clone()
}

struct ThreadTrace {
    generation: u64,
    collector: Option<Arc<TraceCollector>>,
    buf: Option<Arc<ThreadBuf>>,
    /// Open span ids, innermost last — the parent stack.
    stack: Vec<u64>,
}

thread_local! {
    static TLS: RefCell<ThreadTrace> = const {
        RefCell::new(ThreadTrace {
            generation: 0,
            collector: None,
            buf: None,
            stack: Vec::new(),
        })
    };
}

/// The id of the innermost open span on this thread (`0` if none).
/// Pass it to [`Span::enter_with_parent`] on another thread to build
/// cross-thread hierarchies (e.g. engine workers under the parallel
/// stage span).
pub fn current_span_id() -> u64 {
    TLS.with(|t| t.borrow().stack.last().copied().unwrap_or(0))
}

/// An open span; records its end when dropped.  Obtain via
/// [`span!`](crate::span) (or [`Span::enter_with_parent`] for
/// cross-thread parentage).  Guards should drop on the thread that
/// opened them — the normal RAII pattern — so the thread-local parent
/// stack stays consistent.
pub struct Span {
    id: u64,
    name: &'static str,
    /// Captured at open so the end lands in the same collector/buffer
    /// even if install/uninstall races the span's lifetime.
    sink: Option<(Arc<TraceCollector>, Arc<ThreadBuf>)>,
    /// Arguments known only once the work is done, emitted on `End`.
    end_args: Vec<(&'static str, ArgValue)>,
}

impl Span {
    /// The no-op guard every disabled site returns.
    #[inline]
    pub fn disabled() -> Span {
        Span {
            id: 0,
            name: "",
            sink: None,
            end_args: Vec::new(),
        }
    }

    /// Opens a span whose parent is the innermost open span on this
    /// thread.  Use the [`span!`](crate::span) macro instead, which
    /// checks [`enabled`] first.
    pub fn enter(name: &'static str, args: Vec<(&'static str, ArgValue)>) -> Span {
        Span::open(name, None, args)
    }

    /// Opens a span under an explicit parent id (use
    /// [`current_span_id`] on the parent thread), for hierarchies that
    /// cross threads.
    pub fn enter_with_parent(
        name: &'static str,
        parent: u64,
        args: Vec<(&'static str, ArgValue)>,
    ) -> Span {
        if !enabled() {
            return Span::disabled();
        }
        Span::open(name, Some(parent), args)
    }

    fn open(name: &'static str, parent: Option<u64>, args: Vec<(&'static str, ArgValue)>) -> Span {
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            let generation = GENERATION.load(Ordering::SeqCst);
            if t.generation != generation {
                t.collector = installed_collector();
                t.buf = t.collector.as_ref().map(|c| c.register_thread());
                t.generation = generation;
            }
            let (Some(collector), Some(buf)) = (t.collector.clone(), t.buf.clone()) else {
                return Span::disabled();
            };
            let id = NEXT_SPAN_ID.fetch_add(1, Ordering::Relaxed);
            let parent = parent.unwrap_or_else(|| t.stack.last().copied().unwrap_or(0));
            t.stack.push(id);
            {
                let mut events = buf.events.lock().expect("thread buffer");
                // Timestamp under the buffer lock: append order is
                // timestamp order even if a guard migrates threads.
                events.push(TraceEvent {
                    kind: EventKind::Begin,
                    name,
                    id,
                    parent,
                    tid: buf.tid,
                    ts_us: collector.now_us(),
                    args,
                });
            }
            Span {
                id,
                name,
                sink: Some((collector, buf)),
                end_args: Vec::new(),
            }
        })
    }

    /// This span's id (`0` when disabled); the explicit parent for
    /// spans opened on other threads.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Records an argument known only at the end of the span (a result
    /// size, say); it is emitted on the `End` event, where trace viewers
    /// merge it into the span's arguments.  A no-op on disabled spans.
    pub fn record(&mut self, key: &'static str, value: impl Into<ArgValue>) {
        if self.sink.is_some() {
            self.end_args.push((key, value.into()));
        }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some((collector, buf)) = self.sink.take() else {
            return;
        };
        {
            let mut events = buf.events.lock().expect("thread buffer");
            events.push(TraceEvent {
                kind: EventKind::End,
                name: self.name,
                id: self.id,
                parent: 0,
                tid: buf.tid,
                ts_us: collector.now_us(),
                args: std::mem::take(&mut self.end_args),
            });
        }
        TLS.with(|t| {
            let mut t = t.borrow_mut();
            if t.stack.last() == Some(&self.id) {
                t.stack.pop();
            } else if let Some(pos) = t.stack.iter().rposition(|&x| x == self.id) {
                // Out-of-order drop (guards stored in a struct, say):
                // remove just this id so outer parents stay correct.
                t.stack.remove(pos);
            }
        });
    }
}
