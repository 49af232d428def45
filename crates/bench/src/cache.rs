//! Exact-match result cache for supervised experiment batches.
//!
//! Every simulator in this workspace is deterministic: the same
//! configuration always produces the same result bytes. That makes caching
//! trivial to reason about — the key is a hash of the *canonical
//! configuration JSON* (plus anything else that can change the outcome,
//! e.g. a deadline), and a hit returns the exact bytes a fresh run would
//! have produced. There is no staleness: an entry is valid for the life of
//! the process.
//!
//! The cache is **single-flight**: when two jobs race on the same key, one
//! builds while the others block on a condvar, so an expensive simulation
//! never runs twice. Each entry also records a FNV-1a fingerprint of the
//! result bytes — the same witness the perf-gate golden comparison uses —
//! so a batch report can prove which bytes a cache hit handed out.
//!
//! Long-running processes (the `psyncd` daemon) can bound memory with
//! `ResultCache::with_budget_bytes`: when the stored result bytes exceed
//! the budget, ready entries are evicted least-recently-used first.
//! Hit/miss/eviction counters are readable at any time via
//! [`ResultCache::stats`] (the daemon's `status` verb) and exportable into
//! a telemetry [`Registry`] via [`ResultCache::record_telemetry`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};

use sim_core::telemetry::Registry;

/// FNV-1a 64-bit offset basis.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a over `bytes`: the workspace's canonical cheap stable hash, used
/// both for cache keys (over config JSON) and result fingerprints (over
/// result JSON). Not a cryptographic hash; collisions are astronomically
/// unlikely at batch scale but would only ever substitute one deterministic
/// result for another with the same recorded fingerprint.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Render a fingerprint the way batch reports and goldens spell it.
pub fn fingerprint_hex(fp: u64) -> String {
    format!("fnv1a64:{fp:016x}")
}

/// One cached result.
#[derive(Debug)]
pub(crate) struct CacheEntry {
    /// The exact result bytes a direct run would have written.
    pub result_json: String,
    /// FNV-1a fingerprint of `result_json` — the perf-gate witness.
    pub fingerprint: u64,
}

/// Per-key slot: either someone is building, or the entry is ready (with
/// its last-touched tick for LRU eviction).
enum Slot {
    Building,
    Ready { entry: Arc<CacheEntry>, used: u64 },
}

/// State behind the cache lock: the slots plus the LRU clock and the
/// running total of stored result bytes.
#[derive(Default)]
struct Slots {
    map: HashMap<u64, Slot>,
    /// Monotone tick; bumped on every insert and hit.
    tick: u64,
    /// Total `result_json` bytes across Ready slots.
    bytes: u64,
}

/// Point-in-time counters of a [`ResultCache`] — the payload of the
/// daemon's `status` verb.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served without running the builder (including waits on
    /// another caller's in-flight build).
    pub hits: u64,
    /// Lookups that ran the builder.
    pub misses: u64,
    /// Ready entries evicted to stay within the byte budget.
    pub evictions: u64,
    /// Ready entries currently stored.
    pub entries: u64,
    /// Result bytes currently stored.
    pub bytes: u64,
    /// Configured budget (`None` = unbounded).
    pub budget_bytes: Option<u64>,
}

/// The exact-match, single-flight result cache.
#[derive(Default)]
pub struct ResultCache {
    slots: Mutex<Slots>,
    changed: Condvar,
    /// `0` = unbounded (the batch default).
    budget_bytes: u64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// An unbounded cache (the `run_batch` default: within one batch,
    /// every entry is worth keeping).
    pub fn new() -> Self {
        ResultCache::default()
    }

    /// A cache that evicts least-recently-used ready entries once the
    /// stored result bytes exceed `budget` (`0` = unbounded). The entry
    /// being returned by the current lookup is never evicted by its own
    /// insertion, so a single oversized result still caches (until the
    /// next insert pushes it out).
    pub(crate) fn with_budget_bytes(budget: u64) -> Self {
        ResultCache {
            budget_bytes: budget,
            ..ResultCache::default()
        }
    }

    /// Look up `key`; on a miss run `build` (exactly once across all
    /// concurrent callers of this key) and store its result. Returns the
    /// entry plus whether it was a hit (`true` = served without running
    /// `build`; callers that waited for another thread's in-flight build
    /// also count as hits).
    ///
    /// If `build` fails — by error **or by panic** — the slot is released
    /// so a later caller can retry; waiting callers wake and race to become
    /// the next builder. A panic propagates to the caller (where the batch
    /// supervisor's `catch_unwind` turns it into a structured report).
    pub(crate) fn get_or_build<E>(
        &self,
        key: u64,
        build: impl FnOnce() -> Result<String, E>,
    ) -> Result<(Arc<CacheEntry>, bool), E> {
        {
            let mut slots = self.slots.lock().expect("cache lock poisoned");
            loop {
                // Advance the recency clock before borrowing the slot.
                let now = slots.tick + 1;
                match slots.map.get_mut(&key) {
                    Some(Slot::Ready { entry, used }) => {
                        *used = now;
                        let entry = Arc::clone(entry);
                        slots.tick = now;
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok((entry, true));
                    }
                    Some(Slot::Building) => {
                        slots = self.changed.wait(slots).expect("cache lock poisoned");
                    }
                    None => {
                        slots.map.insert(key, Slot::Building);
                        break;
                    }
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        // We own the building slot; run the (possibly expensive) build
        // without holding the lock. The guard releases the slot if `build`
        // panics — otherwise every waiter on this key would block forever
        // (the supervisor catches job panics *outside* the cache).
        struct BuildGuard<'a> {
            cache: &'a ResultCache,
            key: u64,
            armed: bool,
        }
        impl Drop for BuildGuard<'_> {
            fn drop(&mut self) {
                if self.armed {
                    if let Ok(mut slots) = self.cache.slots.lock() {
                        slots.map.remove(&self.key);
                    }
                    self.cache.changed.notify_all();
                }
            }
        }
        let mut guard = BuildGuard {
            cache: self,
            key,
            armed: true,
        };
        match build() {
            Ok(result_json) => {
                let entry = Arc::new(CacheEntry {
                    fingerprint: fnv1a64(result_json.as_bytes()),
                    result_json,
                });
                let mut slots = self.slots.lock().expect("cache lock poisoned");
                slots.tick += 1;
                slots.bytes += entry.result_json.len() as u64;
                let used = slots.tick;
                slots.map.insert(
                    key,
                    Slot::Ready {
                        entry: Arc::clone(&entry),
                        used,
                    },
                );
                self.evict_to_budget(&mut slots, key);
                guard.armed = false;
                drop(slots);
                self.changed.notify_all();
                Ok((entry, false))
            }
            // The guard's Drop removes the building slot and wakes waiters.
            Err(e) => Err(e),
        }
    }

    /// Evict least-recently-used Ready slots until the stored bytes fit the
    /// budget. Building slots hold no bytes and are never touched; `keep`
    /// (the entry the current caller is about to return) is exempt.
    fn evict_to_budget(&self, slots: &mut Slots, keep: u64) {
        if self.budget_bytes == 0 {
            return;
        }
        while slots.bytes > self.budget_bytes {
            let lru = slots
                .map
                .iter()
                .filter_map(|(k, s)| match s {
                    Slot::Ready { used, .. } if *k != keep => Some((*used, *k)),
                    _ => None,
                })
                .min();
            let Some((_, victim)) = lru else { break };
            if let Some(Slot::Ready { entry, .. }) = slots.map.remove(&victim) {
                slots.bytes -= entry.result_json.len() as u64;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Point-in-time counters (lock-free except for the entry/byte scan).
    pub fn stats(&self) -> CacheStats {
        let slots = self.slots.lock().expect("cache lock poisoned");
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            entries: slots
                .map
                .values()
                .filter(|s| matches!(s, Slot::Ready { .. }))
                .count() as u64,
            bytes: slots.bytes,
            budget_bytes: (self.budget_bytes > 0).then_some(self.budget_bytes),
        }
    }

    /// Export the counters as `service.cache.*` series into `reg` (the
    /// daemon records them alongside its own series when flushing metrics).
    pub fn record_telemetry(&self, reg: &Registry) {
        let s = self.stats();
        reg.counter_set("service.cache.hits", s.hits);
        reg.counter_set("service.cache.misses", s.misses);
        reg.counter_set("service.cache.evictions", s.evictions);
        reg.counter_set("service.cache.entries", s.entries);
        reg.counter_set("service.cache.bytes", s.bytes);
    }

    /// Ready entries currently stored.
    pub fn len(&self) -> usize {
        self.stats().entries as usize
    }

    /// Whether no ready entry is stored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hit_returns_identical_bytes_without_rebuilding() {
        let cache = ResultCache::new();
        let builds = AtomicU32::new(0);
        let build = || -> Result<String, ()> {
            builds.fetch_add(1, Ordering::SeqCst);
            Ok("{\"x\":1}".to_string())
        };
        let (a, hit_a) = cache.get_or_build(7, build).unwrap();
        let (b, hit_b) = cache
            .get_or_build(7, || -> Result<String, ()> { unreachable!("must hit") })
            .unwrap();
        assert!(!hit_a);
        assert!(hit_b);
        assert_eq!(builds.load(Ordering::SeqCst), 1);
        assert_eq!(a.result_json, b.result_json);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.fingerprint, fnv1a64(b"{\"x\":1}"));
        assert_eq!(cache.len(), 1);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.bytes, a.result_json.len() as u64);
        assert_eq!(s.budget_bytes, None);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let cache = ResultCache::new();
        let (a, _) = cache
            .get_or_build(1, || Ok::<_, ()>("one".to_string()))
            .unwrap();
        let (b, _) = cache
            .get_or_build(2, || Ok::<_, ()>("two".to_string()))
            .unwrap();
        assert_ne!(a.result_json, b.result_json);
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn failed_build_releases_the_slot_for_retry() {
        let cache = ResultCache::new();
        let err = cache
            .get_or_build(9, || Err::<String, _>("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert!(cache.is_empty());
        let (e, hit) = cache
            .get_or_build(9, || Ok::<_, ()>("recovered".to_string()))
            .unwrap();
        assert!(!hit);
        assert_eq!(e.result_json, "recovered");
    }

    #[test]
    fn panicking_build_releases_the_slot_for_waiters() {
        let cache = Arc::new(ResultCache::new());
        let c = Arc::clone(&cache);
        let panicker = std::thread::spawn(move || {
            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                c.get_or_build(5, || -> Result<String, ()> { panic!("boom") })
            }));
        });
        panicker.join().unwrap();
        // Without the build guard this would deadlock on the Building slot.
        let (e, hit) = cache
            .get_or_build(5, || Ok::<_, ()>("after panic".to_string()))
            .unwrap();
        assert!(!hit);
        assert_eq!(e.result_json, "after panic");
    }

    #[test]
    fn single_flight_under_contention() {
        let cache = Arc::new(ResultCache::new());
        let builds = Arc::new(AtomicU32::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let cache = Arc::clone(&cache);
            let builds = Arc::clone(&builds);
            handles.push(std::thread::spawn(move || {
                let (entry, _hit) = cache
                    .get_or_build(42, || -> Result<String, ()> {
                        builds.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters actually block.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        Ok("slow result".to_string())
                    })
                    .unwrap();
                entry.result_json.clone()
            }));
        }
        for h in handles {
            assert_eq!(h.join().unwrap(), "slow result");
        }
        assert_eq!(builds.load(Ordering::SeqCst), 1, "single-flight: one build");
        let s = cache.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 7, "waiters on the in-flight build count as hits");
    }

    #[test]
    fn lru_eviction_respects_budget_and_recency() {
        // Budget fits two 10-byte entries; inserting a third evicts the
        // least recently *used* (key 1 was touched after key 2 was stored).
        let cache = ResultCache::with_budget_bytes(20);
        let ten = "x".repeat(10);
        for key in [1u64, 2] {
            cache
                .get_or_build(key, || Ok::<_, ()>(ten.clone()))
                .unwrap();
        }
        let (_, hit) = cache
            .get_or_build(1, || -> Result<String, ()> { unreachable!() })
            .unwrap();
        assert!(hit);
        cache.get_or_build(3, || Ok::<_, ()>(ten.clone())).unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 2);
        assert_eq!(s.bytes, 20);
        assert_eq!(s.budget_bytes, Some(20));
        // Key 2 was the LRU victim; 1 and 3 still hit.
        for (key, expect_hit) in [(1u64, true), (3, true)] {
            let (_, hit) = cache
                .get_or_build(key, || Ok::<_, ()>("rebuilt!!!".to_string()))
                .unwrap();
            assert_eq!(hit, expect_hit, "key {key}");
        }
        let (_, hit) = cache.get_or_build(2, || Ok::<_, ()>(ten.clone())).unwrap();
        assert!(!hit, "the evicted key rebuilds");
    }

    #[test]
    fn oversized_entry_still_serves_then_yields_to_the_next_insert() {
        let cache = ResultCache::with_budget_bytes(5);
        let (big, hit) = cache
            .get_or_build(1, || Ok::<_, ()>("way past the budget".to_string()))
            .unwrap();
        assert!(!hit);
        assert_eq!(big.result_json, "way past the budget");
        // The oversized entry is kept (nothing else to evict)...
        assert_eq!(cache.stats().entries, 1);
        assert_eq!(cache.stats().evictions, 0);
        // ...until the next insert pushes it out.
        cache
            .get_or_build(2, || Ok::<_, ()>("ok".to_string()))
            .unwrap();
        let s = cache.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.entries, 1);
        assert_eq!(s.bytes, 2);
    }

    #[test]
    fn unbounded_cache_never_evicts() {
        let cache = ResultCache::new();
        for key in 0..64u64 {
            cache
                .get_or_build(key, || Ok::<_, ()>("z".repeat(1024)))
                .unwrap();
        }
        let s = cache.stats();
        assert_eq!(s.evictions, 0);
        assert_eq!(s.entries, 64);
        assert_eq!(s.bytes, 64 * 1024);
    }

    #[test]
    fn telemetry_export_records_the_counters() {
        let cache = ResultCache::with_budget_bytes(1024);
        cache
            .get_or_build(1, || Ok::<_, ()>("a".to_string()))
            .unwrap();
        cache
            .get_or_build(1, || -> Result<String, ()> { unreachable!() })
            .unwrap();
        let reg = Registry::new();
        cache.record_telemetry(&reg);
        assert_eq!(reg.counter_value("service.cache.hits"), Some(1));
        assert_eq!(reg.counter_value("service.cache.misses"), Some(1));
        assert_eq!(reg.counter_value("service.cache.evictions"), Some(0));
        assert_eq!(reg.counter_value("service.cache.entries"), Some(1));
        assert_eq!(reg.counter_value("service.cache.bytes"), Some(1));
    }

    #[test]
    fn fingerprint_hex_format() {
        assert_eq!(fingerprint_hex(0xff), "fnv1a64:00000000000000ff");
    }
}
