//! Cross-request caching of parsed netlists and constructed CSSGs.
//!
//! Both caches are keyed by **content hash** (FNV-1a over a canonical
//! text), so a benchmark submitted by name and the same circuit pasted
//! inline share one CSSG entry.  Each cache is LRU-bounded and counts
//! hits/misses/evictions; the counters are surfaced in the `status`
//! response and asserted by the service tests.

use satpg_core::json::Json;
use satpg_core::Cssg;
use satpg_netlist::Circuit;
use std::collections::HashSet;
use std::hash::Hash;
use std::sync::{Arc, Condvar, Mutex};

/// 64-bit FNV-1a: tiny, deterministic, and good enough for cache keys
/// (collisions only cost a wrong-but-valid cache identity, so the job
/// layer re-checks the circuit name on circuit hits).
pub fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hit/miss/eviction counters of one cache.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found a live entry.
    pub hits: usize,
    /// Lookups that missed.
    pub misses: usize,
    /// Entries displaced by the LRU bound.
    pub evictions: usize,
}

impl CacheStats {
    /// The machine-readable form.
    pub fn to_json_value(&self, entries: usize) -> Json {
        Json::Obj(vec![
            ("entries".to_string(), Json::int(entries)),
            ("hits".to_string(), Json::int(self.hits)),
            ("misses".to_string(), Json::int(self.misses)),
            ("evictions".to_string(), Json::int(self.evictions)),
        ])
    }
}

/// A small LRU map: linear scan, counter-stamped recency.  Capacities
/// are tens of entries, so O(n) lookups are irrelevant next to the
/// seconds-scale work an entry saves.  Every entry carries a caller-
/// supplied byte weight so the daemon can report how much memory the
/// cache is actually holding (the `netlist_cache_bytes` gauge).
struct Lru<K, V> {
    cap: usize,
    tick: u64,
    entries: Vec<(K, V, u64, usize)>,
    stats: CacheStats,
}

impl<K: Eq, V: Clone> Lru<K, V> {
    fn new(cap: usize) -> Self {
        Lru {
            cap: cap.max(1),
            tick: 0,
            entries: Vec::new(),
            stats: CacheStats::default(),
        }
    }

    fn get(&mut self, key: &K) -> Option<V> {
        self.tick += 1;
        match self.entries.iter_mut().find(|(k, _, _, _)| k == key) {
            Some((_, v, used, _)) => {
                *used = self.tick;
                self.stats.hits += 1;
                Some(v.clone())
            }
            None => {
                self.stats.misses += 1;
                None
            }
        }
    }

    /// [`Lru::get`] without touching the hit/miss counters or recency
    /// (for re-checks that already counted their first probe).
    fn peek(&self, key: &K) -> Option<V> {
        self.entries
            .iter()
            .find(|(k, _, _, _)| k == key)
            .map(|(_, v, _, _)| v.clone())
    }

    fn put(&mut self, key: K, value: V, weight: usize) {
        self.tick += 1;
        if let Some(slot) = self.entries.iter_mut().find(|(k, _, _, _)| *k == key) {
            slot.1 = value;
            slot.2 = self.tick;
            slot.3 = weight;
            return;
        }
        if self.entries.len() >= self.cap {
            let lru = self
                .entries
                .iter()
                .enumerate()
                .min_by_key(|(_, (_, _, used, _))| *used)
                .map(|(i, _)| i)
                .expect("cap >= 1 and len >= cap");
            self.entries.swap_remove(lru);
            self.stats.evictions += 1;
        }
        self.entries.push((key, value, self.tick, weight));
    }

    /// Bytes held across live entries (eviction subtracts implicitly;
    /// the sum is O(entries), which is tens).
    fn total_weight(&self) -> usize {
        self.entries.iter().map(|(_, _, _, w)| *w).sum()
    }
}

/// Build coalescing for expensive cache fills: at most one in-flight
/// build per key, with later requesters blocking until the first
/// finishes instead of duplicating the work (the anti-stampede guard in
/// front of the CSSG cache).
///
/// Protocol: call [`SingleFlight::begin`]; on `true` you own the build —
/// store the result in the cache, then call [`SingleFlight::finish`]
/// (also on failure, so waiters can retry).  On `false` someone else is
/// building: call [`SingleFlight::wait`], then re-check the cache (a
/// failed build or an eviction means you may become the builder on the
/// retry).
pub struct SingleFlight<K> {
    inflight: Mutex<HashSet<K>>,
    done: Condvar,
}

impl<K: Eq + Hash + Clone> SingleFlight<K> {
    /// An empty tracker.
    pub fn new() -> Self {
        SingleFlight {
            inflight: Mutex::new(HashSet::new()),
            done: Condvar::new(),
        }
    }

    /// Claims the build of `key`.  `true` means the caller builds;
    /// `false` means another thread already is.
    pub fn begin(&self, key: K) -> bool {
        self.inflight
            .lock()
            .expect("single-flight lock")
            .insert(key)
    }

    /// Releases the claim on `key` and wakes every waiter.  Call exactly
    /// once per successful [`SingleFlight::begin`], whether the build
    /// succeeded or failed.
    pub fn finish(&self, key: &K) {
        let mut set = self.inflight.lock().expect("single-flight lock");
        set.remove(key);
        self.done.notify_all();
    }

    /// Blocks until no build of `key` is in flight (returns immediately
    /// if none is).
    pub fn wait(&self, key: &K) {
        let mut set = self.inflight.lock().expect("single-flight lock");
        while set.contains(key) {
            set = self.done.wait(set).expect("single-flight lock");
        }
    }
}

impl<K: Eq + Hash + Clone> Default for SingleFlight<K> {
    fn default() -> Self {
        Self::new()
    }
}

/// CSSG cache key: the canonical-netlist hash, the job's transition
/// bound `k` and its per-state pattern budget.  The daemon's one
/// spec→config mapping (`job_atpg_config`) sets only those two fields
/// of the default `CssgConfig`, so they and the netlist determine the
/// graph.  A budgeted graph covers fewer edges, so it is never served
/// for an exhaustive request or vice versa.
pub type CssgKey = (u64, Option<usize>, Option<u64>);

/// The session cache: parsed netlists keyed by submission-content hash,
/// CSSGs by [`CssgKey`].
pub struct SessionCache {
    circuits: Lru<u64, Arc<Circuit>>,
    cssgs: Lru<CssgKey, Arc<Cssg>>,
}

impl SessionCache {
    /// A cache bounded at `cap` entries per level.
    pub fn new(cap: usize) -> Self {
        SessionCache {
            circuits: Lru::new(cap),
            cssgs: Lru::new(cap),
        }
    }

    /// Looks up a parsed circuit by submission-content hash.
    pub fn get_circuit(&mut self, key: u64) -> Option<Arc<Circuit>> {
        self.circuits.get(&key)
    }

    /// Stores a parsed circuit; `bytes` is the size of the canonical
    /// text it was parsed from (the memory gauge's unit of account).
    pub fn put_circuit(&mut self, key: u64, ckt: Arc<Circuit>, bytes: usize) {
        self.circuits.put(key, ckt, bytes);
    }

    /// Looks up a CSSG.
    pub fn get_cssg(&mut self, key: CssgKey) -> Option<Arc<Cssg>> {
        self.cssgs.get(&key)
    }

    /// [`SessionCache::get_cssg`] without counting: the single-flight
    /// double-check already recorded its miss on the first probe.
    pub fn peek_cssg(&self, key: CssgKey) -> Option<Arc<Cssg>> {
        self.cssgs.peek(&key)
    }

    /// Stores a CSSG.
    pub fn put_cssg(&mut self, key: CssgKey, cssg: Arc<Cssg>) {
        // Weight a CSSG by its edge table: 16 bytes per (state, pattern,
        // successor) record approximates the dominant allocation.
        let bytes = cssg.num_edges().saturating_mul(16);
        self.cssgs.put(key, cssg, bytes);
    }

    /// Bytes of canonical netlist text held by the circuit level.
    pub fn circuit_bytes(&self) -> usize {
        self.circuits.total_weight()
    }

    /// Live entries in the CSSG level.
    pub fn cssg_entries(&self) -> usize {
        self.cssgs.entries.len()
    }

    /// The machine-readable form of both levels.
    pub fn to_json_value(&self) -> Json {
        Json::Obj(vec![
            (
                "circuits".to_string(),
                self.circuits
                    .stats
                    .to_json_value(self.circuits.entries.len()),
            ),
            (
                "cssgs".to_string(),
                self.cssgs.stats.to_json_value(self.cssgs.entries.len()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_is_stable_and_content_sensitive() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_ne!(fnv64(b"circuit a"), fnv64(b"circuit b"));
        assert_eq!(fnv64(b"same"), fnv64(b"same"));
    }

    #[test]
    fn lru_counts_and_evicts() {
        let mut l: Lru<u64, u64> = Lru::new(2);
        assert_eq!(l.get(&1), None);
        l.put(1, 10, 100);
        l.put(2, 20, 50);
        assert_eq!(l.total_weight(), 150);
        assert_eq!(l.get(&1), Some(10)); // touch 1 → 2 is now LRU
        l.put(3, 30, 7); // evicts 2
        assert_eq!(l.total_weight(), 107, "eviction releases the weight");
        assert_eq!(l.get(&2), None);
        assert_eq!(l.get(&1), Some(10));
        assert_eq!(l.get(&3), Some(30));
        assert_eq!(l.stats.evictions, 1);
        assert_eq!(l.stats.hits, 3);
        assert_eq!(l.stats.misses, 2);
        // peek neither counts nor touches recency.
        assert_eq!(l.peek(&1), Some(10));
        assert_eq!(l.peek(&99), None);
        assert_eq!(l.stats.hits, 3);
        assert_eq!(l.stats.misses, 2);
    }

    #[test]
    fn single_flight_coalesces_concurrent_builds() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        use std::sync::Barrier;

        let flight: SingleFlight<u64> = SingleFlight::new();
        let builds = AtomicUsize::new(0);
        let store: Mutex<Option<u64>> = Mutex::new(None);
        // The barrier sequences the race deterministically: the builder
        // claims the key *before* the loser is released, so the loser's
        // `begin` must observe the in-flight build and wait.
        let claimed = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                assert!(flight.begin(7), "first claimant builds");
                claimed.wait();
                builds.fetch_add(1, Ordering::SeqCst);
                *store.lock().unwrap() = Some(42);
                flight.finish(&7);
            });
            s.spawn(|| {
                claimed.wait();
                if flight.begin(7) {
                    // Only reachable if the builder already finished —
                    // then the store is populated and we must not build.
                    flight.finish(&7);
                } else {
                    flight.wait(&7);
                }
                assert_eq!(*store.lock().unwrap(), Some(42), "waiter sees the result");
            });
        });
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "one build for two requests"
        );
        // Independent keys never block each other.
        assert!(flight.begin(8));
        flight.wait(&7);
        flight.finish(&8);
    }

    #[test]
    fn session_cache_levels_are_independent() {
        let mut c = SessionCache::new(4);
        let ckt = Arc::new(satpg_netlist::library::c_element());
        c.put_circuit(7, ckt.clone(), 123);
        assert!(c.get_circuit(7).is_some());
        assert!(c.get_cssg((7, None, None)).is_none());
        let v = c.to_json_value();
        let count = |level: &str, key: &str| v.get(level)?.get(key)?.as_usize();
        assert_eq!(count("circuits", "hits"), Some(1));
        assert_eq!(count("cssgs", "misses"), Some(1));
        assert_eq!(c.circuit_bytes(), 123);
        assert_eq!(c.cssg_entries(), 0);
        assert_eq!(count("circuits", "entries"), Some(1));
    }
}
