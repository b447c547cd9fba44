//! The process-wide metrics registry: named counters, gauges and
//! fixed log-2 bucket histograms behind cheap atomic handles.
//!
//! Unlike spans, metrics need no installed collector — the registry is
//! always live (a counter increment is one relaxed `fetch_add`), which
//! is what lets the daemon keep counting when a telemetry subscriber
//! disconnects.  Handles are looked up by name once and cached by the
//! instrumentation site; the lookup itself takes a short-lived registry
//! lock, so resolve handles outside hot loops.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Number of histogram buckets: bucket `0` holds the value `0`, bucket
/// `i` (1..=64) holds values in `[2^(i-1), 2^i)`.
const BUCKETS: usize = 65;

/// A monotone counter handle.  Cheap to clone; clones share the cell.
#[derive(Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// Adds `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Adds 1.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Current total.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A gauge handle: a settable signed level.
#[derive(Clone)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    /// Sets the level.
    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    /// Adjusts the level by `d` (negative to decrease).
    #[inline]
    pub fn add(&self, d: i64) {
        self.0.fetch_add(d, Ordering::Relaxed);
    }

    /// Raises the level to at least `v` (a high-water mark).
    pub fn max(&self, v: i64) {
        self.0.fetch_max(v, Ordering::Relaxed);
    }

    /// Current level.
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

struct HistoCore {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; BUCKETS],
}

/// A histogram handle with fixed log-2 buckets, so the snapshot shape
/// is deterministic: value `0` lands in bucket `0`, value `v > 0` in
/// bucket `bits(v)` covering `[2^(bits-1), 2^bits)`.
#[derive(Clone)]
pub struct Histogram(Arc<HistoCore>);

/// The bucket index of `v`.
fn bucket_of(v: u64) -> usize {
    if v == 0 {
        0
    } else {
        (64 - v.leading_zeros()) as usize
    }
}

impl Histogram {
    /// Records one observation.
    #[inline]
    pub fn record(&self, v: u64) {
        self.0.count.fetch_add(1, Ordering::Relaxed);
        self.0.sum.fetch_add(v, Ordering::Relaxed);
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
    }

    /// Observation count.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }
}

/// The registry: named metric cells.  Use the process-wide [`metrics`]
/// instance; a private registry (e.g. in tests) works identically.
#[derive(Default)]
pub struct MetricsRegistry {
    counters: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    gauges: Mutex<BTreeMap<String, Arc<AtomicI64>>>,
    histograms: Mutex<BTreeMap<String, Arc<HistoCore>>>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// The counter named `name`, created at zero on first use.
    pub fn counter(&self, name: &str) -> Counter {
        let mut m = self.counters.lock().expect("metrics counters");
        Counter(
            m.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicU64::new(0)))
                .clone(),
        )
    }

    /// The gauge named `name`, created at zero on first use.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut m = self.gauges.lock().expect("metrics gauges");
        Gauge(
            m.entry(name.to_string())
                .or_insert_with(|| Arc::new(AtomicI64::new(0)))
                .clone(),
        )
    }

    /// The histogram named `name`, created empty on first use.
    pub fn histogram(&self, name: &str) -> Histogram {
        let mut m = self.histograms.lock().expect("metrics histograms");
        Histogram(
            m.entry(name.to_string())
                .or_insert_with(|| {
                    Arc::new(HistoCore {
                        count: AtomicU64::new(0),
                        sum: AtomicU64::new(0),
                        buckets: std::array::from_fn(|_| AtomicU64::new(0)),
                    })
                })
                .clone(),
        )
    }

    /// Drops every metric.  Existing handles keep working but their
    /// cells are no longer reachable from snapshots — meant for tests.
    pub fn reset(&self) {
        self.counters.lock().expect("metrics counters").clear();
        self.gauges.lock().expect("metrics gauges").clear();
        self.histograms.lock().expect("metrics histograms").clear();
    }

    /// A point-in-time copy of every metric, names sorted.  Values may
    /// be mid-update torn across *different* metrics (each cell is read
    /// atomically) — fine for telemetry, never fed back into results.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .counters
            .lock()
            .expect("metrics counters")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .gauges
            .lock()
            .expect("metrics gauges")
            .iter()
            .map(|(k, v)| (k.clone(), v.load(Ordering::Relaxed)))
            .collect();
        let histograms = self
            .histograms
            .lock()
            .expect("metrics histograms")
            .iter()
            .map(|(k, v)| HistogramSnapshot {
                name: k.clone(),
                count: v.count.load(Ordering::Relaxed),
                sum: v.sum.load(Ordering::Relaxed),
                buckets: v
                    .buckets
                    .iter()
                    .enumerate()
                    .filter_map(|(i, b)| {
                        let n = b.load(Ordering::Relaxed);
                        (n > 0).then_some((i as u32, n))
                    })
                    .collect(),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

/// One histogram, frozen.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
    /// Non-empty buckets as `(index, count)`; bucket `0` holds value
    /// `0`, bucket `i` holds `[2^(i-1), 2^i)`.
    pub buckets: Vec<(u32, u64)>,
}

/// A frozen registry: counters and gauges as sorted `(name, value)`
/// lists, histograms as [`HistogramSnapshot`]s.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsSnapshot {
    /// Counter totals, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge levels, sorted by name.
    pub gauges: Vec<(String, i64)>,
    /// Histograms, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

/// The process-wide registry.
pub fn metrics() -> &'static MetricsRegistry {
    static REGISTRY: OnceLock<MetricsRegistry> = OnceLock::new();
    REGISTRY.get_or_init(MetricsRegistry::new)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_sum_deterministically_across_threads() {
        let reg = MetricsRegistry::new();
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for _ in 0..threads {
                let c = reg.counter("t.concurrent");
                s.spawn(move || {
                    for _ in 0..per_thread {
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(reg.counter("t.concurrent").get(), threads * per_thread);
    }

    #[test]
    fn histogram_buckets_are_exact_at_powers_of_two() {
        // Bucket 0 holds 0; bucket i holds [2^(i-1), 2^i): a power of
        // two sits at the *bottom* of its bucket, one less at the top
        // of the previous.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 1);
        for e in 1..64u32 {
            let v = 1u64 << e;
            assert_eq!(bucket_of(v), e as usize + 1, "2^{e}");
            assert_eq!(bucket_of(v - 1), e as usize, "2^{e}-1");
            assert_eq!(bucket_of(v + 1), e as usize + 1, "2^{e}+1");
        }
        assert_eq!(bucket_of(u64::MAX), 64);

        let reg = MetricsRegistry::new();
        let h = reg.histogram("t.buckets");
        for v in [0u64, 1, 1, 2, 3, 4, 1024, 1023, 1025] {
            h.record(v);
        }
        let snap = reg.snapshot();
        let hs = &snap.histograms[0];
        assert_eq!(hs.count, 9);
        assert_eq!(hs.sum, 3083);
        // (bucket, count): 0→1, 1→2 (the two 1s), 2→2 (2 and 3),
        // 3→1 (4), 10→1 (1023 in [512,1024)), 11→2 (1024, 1025).
        assert_eq!(
            hs.buckets,
            vec![(0, 1), (1, 2), (2, 2), (3, 1), (10, 1), (11, 2)]
        );
    }

    #[test]
    fn gauges_set_add_max() {
        let reg = MetricsRegistry::new();
        let g = reg.gauge("t.level");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
        g.max(10);
        g.max(7);
        assert_eq!(g.get(), 10);
    }

    #[test]
    fn snapshot_is_sorted_and_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("b.second").add(2);
        reg.counter("a.first").add(1);
        reg.counter("c.third").add(3);
        reg.gauge("z.gauge").set(-3);
        reg.histogram("h.one").record(8);
        let a = reg.snapshot();
        let b = reg.snapshot();
        assert_eq!(a, b);
        assert_eq!(
            a.counters,
            [("a.first", 1), ("b.second", 2), ("c.third", 3)].map(|(k, v)| (k.to_string(), v))
        );
        assert_eq!(a.gauges, [("z.gauge".to_string(), -3)]);
        assert_eq!(
            a.histograms,
            [HistogramSnapshot {
                name: "h.one".to_string(),
                count: 1,
                sum: 8,
                buckets: vec![(4, 1)],
            }]
        );
    }
}
