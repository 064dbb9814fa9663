//! Process-wide, byte-bounded result cache for simulation jobs.
//!
//! Each [`Runner`](crate::Runner) once had a private, unbounded
//! content-addressed map of completed simulations. That was enough for a
//! one-shot figure run, but a long-lived serving process (`regmutex-cli
//! serve`) needs the opposite trade-offs:
//!
//! * **Shared** — every worker and every [`Runner`] in the process should
//!   hit one cache, so a sweep submitted over HTTP reuses results computed
//!   for an earlier request. The cache is therefore its own type, handed
//!   around behind an [`Arc`].
//! * **Bounded** — a daemon must not grow without limit. Entries are
//!   approximately sized and evicted least-recently-used once the
//!   configured byte budget is exceeded.
//! * **Observable** — hit/miss/eviction/byte counters feed the server's
//!   `/metrics` endpoint and the runner's stderr summary.
//!
//! Keys are the [`JobSpec`](crate::JobSpec) content fingerprints (FNV-1a
//! over kernel text, config, options, technique, launch), so identical
//! simulations are interchangeable by construction.

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use regmutex::{RunError, RunReport};

/// A finished simulation as stored in the cache: success or structured
/// failure (errors are cached too — a deterministic job that deadlocked
/// once will deadlock every time, so re-simulating it is pure waste).
pub type CachedResult = Result<RunReport, RunError>;

/// Default byte budget: 64 MiB, far above what the 19 paper figures need
/// (their whole job matrix is a few hundred reports) while still bounding
/// a serving process under adversarial job mixes.
pub const DEFAULT_CACHE_BUDGET: usize = 64 * 1024 * 1024;

/// One resident entry plus its bookkeeping. Boxed in the map: a slot is a
/// few hundred bytes, and the hash table keeps spare capacity for
/// entries stored inline.
struct Slot {
    value: CachedResult,
    bytes: usize,
    /// Monotonic use stamp; entries in `order` with a stale stamp are
    /// skipped during eviction (classic lazy-deletion LRU).
    stamp: u64,
}

/// The LRU state behind the lock.
#[derive(Default)]
struct Lru {
    map: HashMap<u64, Box<Slot>>,
    /// `(key, stamp)` in use order; lazily pruned.
    order: VecDeque<(u64, u64)>,
    clock: u64,
    bytes: usize,
}

impl Lru {
    fn touch(&mut self, key: u64) {
        self.clock += 1;
        let stamp = self.clock;
        if let Some(slot) = self.map.get_mut(&key) {
            slot.stamp = stamp;
            self.order.push_back((key, stamp));
        }
    }
}

/// Shared, bounded, content-addressed store of completed simulations.
///
/// All methods take `&self`; clone the [`Arc`] from
/// [`ResultCache::shared`] to share one cache across runners, server
/// workers, and metric scrapers.
pub struct ResultCache {
    inner: Mutex<Lru>,
    budget: usize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl ResultCache {
    /// A cache bounded at roughly `byte_budget` bytes of stored results
    /// (sizes are estimates — see [`approx_result_bytes`] — so treat the
    /// budget as a target, not an exact ceiling).
    pub fn new(byte_budget: usize) -> Self {
        ResultCache {
            inner: Mutex::new(Lru::default()),
            budget: byte_budget.max(1),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// [`ResultCache::new`] behind an [`Arc`], ready to share.
    pub fn shared(byte_budget: usize) -> Arc<Self> {
        Arc::new(Self::new(byte_budget))
    }

    /// Look a fingerprint up, refreshing its LRU position. Does **not**
    /// count a hit or a miss — the caller decides what a lookup means (a
    /// runner probes the same key more than once per batch).
    pub fn probe(&self, key: u64) -> Option<CachedResult> {
        let mut lru = self.inner.lock().unwrap();
        let value = lru.map.get(&key).map(|s| s.value.clone())?;
        lru.touch(key);
        Some(value)
    }

    /// Insert (or overwrite) a result, then evict least-recently-used
    /// entries until the byte budget holds again. The entry just inserted
    /// is never evicted by its own insertion, so even an oversized result
    /// survives long enough to be shared within a batch.
    pub fn insert(&self, key: u64, value: CachedResult) {
        let bytes = approx_result_bytes(&value);
        let mut lru = self.inner.lock().unwrap();
        if let Some(old) = lru.map.remove(&key) {
            lru.bytes -= old.bytes;
        }
        lru.bytes += bytes;
        lru.map.insert(
            key,
            Box::new(Slot {
                value,
                bytes,
                stamp: 0,
            }),
        );
        lru.touch(key);

        while lru.bytes > self.budget && lru.map.len() > 1 {
            let Some((victim, stamp)) = lru.order.pop_front() else {
                break;
            };
            let current = lru.map.get(&victim).map(|s| s.stamp);
            if current != Some(stamp) || victim == key {
                // Stale order entry (the key was touched again later, or it
                // is the entry we just inserted); skip. A fresh stamp for
                // the protected key is re-queued so it stays evictable
                // later.
                if victim == key && current == Some(stamp) {
                    lru.order.push_back((victim, stamp));
                    // Everything older than the protected entry has been
                    // drained; stop rather than spin on it.
                    if lru.order.len() == 1 {
                        break;
                    }
                }
                continue;
            }
            let slot = lru.map.remove(&victim).expect("stamp matched");
            lru.bytes -= slot.bytes;
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Record a served-from-cache job (counters are caller-driven so a
    /// batch runner can classify duplicate submissions precisely).
    pub fn note_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a job that had to be simulated.
    pub fn note_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Jobs served from the cache.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Jobs that had to be simulated.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to stay within the byte budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> usize {
        self.inner.lock().unwrap().bytes
    }

    /// Resident entry count.
    pub fn entries(&self) -> usize {
        self.inner.lock().unwrap().map.len()
    }

    /// The configured byte budget.
    pub fn budget(&self) -> usize {
        self.budget
    }
}

/// A second, durable result tier behind the in-memory LRU.
///
/// The runner consults the tier only on a cache miss and writes every
/// freshly simulated result through to it, so a tier-backed process
/// warm-starts from results computed before a crash or restart. The
/// concrete implementation (an on-disk content-addressed store keyed by
/// [`JobSpec::fingerprint`](crate::JobSpec::fingerprint)) lives in the
/// server crate, which owns the lossless report serialization; this
/// trait keeps `bench` decoupled from that codec.
///
/// Implementations may decline to persist some values — the disk tier
/// stores only `Ok` reports, because a deterministic simulation that
/// failed once fails identically when re-run, and errors carry
/// structured payloads that do not round-trip losslessly.
pub trait DurableTier: Send + Sync {
    /// Fetch the result stored under `key`, if any.
    fn load(&self, key: u64) -> Option<CachedResult>;
    /// Persist `value` under `key` (best-effort; errors degrade, never
    /// abort).
    fn save(&self, key: u64, value: &CachedResult);
    /// Make every value saved so far durable. Callers invoke it once
    /// after a batch of saves, so an implementation can group-commit the
    /// batch; the default suits tiers with nothing to flush.
    fn sync(&self) {}
}

/// Deterministic size estimate for one cached result. Exact heap
/// accounting is not worth the fragility; this tracks the dominant terms
/// (fixed struct overhead and the kernel name).
pub fn approx_result_bytes(value: &CachedResult) -> usize {
    match value {
        Ok(report) => 320 + report.kernel_name.len() + if report.plan.is_some() { 32 } else { 0 },
        Err(_) => 160,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use regmutex::Technique;
    use regmutex_sim::SimStats;

    fn report(name: &str) -> CachedResult {
        Ok(RunReport {
            technique: Technique::Baseline,
            kernel_name: name.to_string(),
            stats: SimStats::default(),
            plan: None,
            theoretical_occupancy_warps: 48,
            max_warps: 48,
            storage_overhead_bits: 0,
        })
    }

    #[test]
    fn probe_insert_roundtrip() {
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        assert!(cache.probe(1).is_none());
        cache.insert(1, report("a"));
        let got = cache.probe(1).unwrap().unwrap();
        assert_eq!(got.kernel_name, "a");
        assert_eq!(cache.entries(), 1);
        assert!(cache.bytes() > 0);
    }

    #[test]
    fn lru_evicts_oldest_first() {
        let per_entry = approx_result_bytes(&report("x"));
        // Room for exactly three entries.
        let cache = ResultCache::new(per_entry * 3);
        for k in 0..3u64 {
            cache.insert(k, report("x"));
        }
        assert_eq!(cache.entries(), 3);
        assert_eq!(cache.evictions(), 0);
        // Touch key 0 so key 1 becomes the LRU victim.
        assert!(cache.probe(0).is_some());
        cache.insert(3, report("x"));
        assert_eq!(cache.entries(), 3);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.probe(1).is_none(), "LRU entry should be gone");
        assert!(cache.probe(0).is_some());
        assert!(cache.probe(2).is_some());
        assert!(cache.probe(3).is_some());
    }

    #[test]
    fn oversized_entry_survives_its_own_insert() {
        let cache = ResultCache::new(1); // everything is oversized
        cache.insert(7, report("big"));
        assert!(cache.probe(7).is_some());
        // The next insert evicts it (it is then the LRU entry).
        cache.insert(8, report("big"));
        assert!(cache.probe(7).is_none());
        assert!(cache.probe(8).is_some());
    }

    #[test]
    fn reinsert_replaces_without_double_counting() {
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        cache.insert(1, report("a"));
        let b1 = cache.bytes();
        cache.insert(1, report("a"));
        assert_eq!(cache.bytes(), b1, "overwrite must not leak bytes");
        assert_eq!(cache.entries(), 1);
    }

    #[test]
    fn errors_are_cached_too() {
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        cache.insert(2, Err(RunError::Panicked("boom".into())));
        assert!(matches!(cache.probe(2), Some(Err(RunError::Panicked(_)))));
    }

    #[test]
    fn counters_are_caller_driven() {
        let cache = ResultCache::new(DEFAULT_CACHE_BUDGET);
        cache.insert(1, report("a"));
        let _ = cache.probe(1);
        let _ = cache.probe(9);
        assert_eq!(cache.hits(), 0);
        assert_eq!(cache.misses(), 0);
        cache.note_hit();
        cache.note_miss();
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.misses(), 1);
    }

    #[test]
    fn shared_handle_sees_other_writers() {
        let cache = ResultCache::shared(DEFAULT_CACHE_BUDGET);
        let c2 = Arc::clone(&cache);
        std::thread::spawn(move || c2.insert(42, report("threaded")))
            .join()
            .unwrap();
        assert!(cache.probe(42).is_some());
    }
}
