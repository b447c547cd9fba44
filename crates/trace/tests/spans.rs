//! Span collector behaviour: parentage (nested and cross-thread),
//! drained-vs-live consistency, and the disabled fast path.
//!
//! Installing a collector is process-global, so every test here takes
//! one lock — the cases exercise different collectors but share the
//! global slot.

use satpg_trace::{
    chrome, current_span_id, enabled, install, span, uninstall, EventKind, Span, TraceEvent,
};
use std::sync::Mutex;

static GLOBAL: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    // A panicking test poisons the lock; later tests still need it.
    GLOBAL.lock().unwrap_or_else(|e| e.into_inner())
}

fn begin<'a>(events: &'a [TraceEvent], name: &str) -> &'a TraceEvent {
    events
        .iter()
        .find(|e| e.kind == EventKind::Begin && e.name == name)
        .unwrap_or_else(|| panic!("no begin event named {name}"))
}

#[test]
fn disabled_spans_are_noops() {
    let _g = lock();
    uninstall();
    assert!(!enabled());
    let s = span!("t.disabled", n = 1);
    assert_eq!(s.id(), 0);
    drop(s);
    assert_eq!(current_span_id(), 0);
}

#[test]
fn nested_parentage_follows_the_stack() {
    let _g = lock();
    let c = install();
    {
        let outer = span!("t.outer");
        assert_eq!(current_span_id(), outer.id());
        {
            let inner = span!("t.inner", depth = 2);
            assert_eq!(current_span_id(), inner.id());
        }
        let sibling = span!("t.sibling");
        drop(sibling);
    }
    uninstall();
    let events = c.drain();
    let outer = begin(&events, "t.outer");
    let inner = begin(&events, "t.inner");
    let sibling = begin(&events, "t.sibling");
    assert_eq!(outer.parent, 0, "outer is a root");
    assert_eq!(inner.parent, outer.id);
    assert_eq!(sibling.parent, outer.id, "stack popped back to outer");
    // Begin/End pair per span, on one thread, in timestamp order.
    assert_eq!(events.len(), 6);
    for w in events.windows(2) {
        assert!(w[0].ts_us <= w[1].ts_us, "per-thread monotone timestamps");
    }
}

#[test]
fn cross_thread_parentage_via_explicit_parent() {
    let _g = lock();
    let c = install();
    {
        let root = span!("t.root");
        let root_id = root.id();
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(move || {
                    let w = Span::enter_with_parent("t.worker", root_id, Vec::new());
                    assert_eq!(current_span_id(), w.id(), "worker stack is local");
                });
            }
        });
    }
    uninstall();
    let events = c.drain();
    let root = begin(&events, "t.root");
    let workers: Vec<_> = events
        .iter()
        .filter(|e| e.kind == EventKind::Begin && e.name == "t.worker")
        .collect();
    assert_eq!(workers.len(), 2);
    for w in &workers {
        assert_eq!(w.parent, root.id, "explicit parent crosses threads");
        assert_ne!(w.tid, root.tid, "workers record on their own threads");
    }
}

#[test]
fn snapshot_matches_later_drain() {
    let _g = lock();
    let c = install();
    {
        let _a = span!("t.first");
    }
    let live = c.snapshot();
    {
        let _b = span!("t.second");
    }
    uninstall();
    let drained = c.drain();
    // The snapshot is a prefix of the drain: same events, same order.
    assert_eq!(live.len(), 2);
    assert_eq!(drained.len(), 4);
    for (l, d) in live.iter().zip(drained.iter()) {
        assert_eq!(l.id, d.id);
        assert_eq!(l.name, d.name);
        assert_eq!(l.ts_us, d.ts_us);
    }
    // And a drain empties the buffers.
    assert!(c.drain().is_empty());
}

#[test]
fn chrome_export_is_balanced_and_loads_as_json() {
    let _g = lock();
    let c = install();
    {
        let _outer = span!("t.render", k = 3, label = "muller");
        let _inner = span!("t.render.inner");
    }
    uninstall();
    let s = chrome::render(&c.drain(), "satpg-test");
    assert_eq!(
        s.matches("\"ph\":\"B\"").count(),
        s.matches("\"ph\":\"E\"").count()
    );
    assert!(s.contains("\"label\":\"muller\""), "{s}");
    assert!(s.contains("\"traceEvents\""));
}

#[test]
fn recorded_args_land_on_the_end_event() {
    let _g = lock();
    let c = install();
    {
        let mut s = span!("t.recorded", edges = 3);
        s.record("nodes", 42usize);
    }
    uninstall();
    let events = c.drain();
    let b = begin(&events, "t.recorded");
    assert_eq!(b.args.len(), 1, "only the open-time argument on Begin");
    let end = events
        .iter()
        .find(|e| e.kind == EventKind::End && e.id == b.id)
        .expect("end event");
    assert_eq!(end.args.len(), 1);
    assert_eq!(end.args[0].0, "nodes");
    // A disabled span ignores recordings.
    let mut off = span!("t.off");
    off.record("nodes", 1usize);
    drop(off);
}
