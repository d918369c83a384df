//! The plan cache: a deterministic LRU over response bytes with
//! single-flight coalescing of identical in-flight requests.
//!
//! * **Byte cache.** Values are the final response documents
//!   (`Arc<Vec<u8>>`), not intermediate plan structures, so a hit returns
//!   *exactly* the bytes a cold compute would have produced — the
//!   byte-identity half of the determinism contract is structural, not
//!   aspirational.
//! * **Deterministic LRU.** Eviction follows a recency list ordered only
//!   by the observable request sequence (insertions and hits). No clocks,
//!   no sampling, no hash-order iteration — replaying the same request
//!   sequence against the same capacity always evicts the same keys.
//! * **Single-flight.** When a second request for key `k` arrives while
//!   the first is still computing, it blocks on a condvar instead of
//!   computing again, and receives the *same* `Arc` the first request
//!   stored ([`CacheOutcome::Coalesced`]). Failed computes are not
//!   cached: one waiter is woken to retry, so an error does not poison
//!   the key.
//! * **Last-good retention.** Every successful compute also records its
//!   bytes in a bounded side store that survives LRU eviction and
//!   explicit [`PlanCache::evict`]ion. [`PlanCache::stale_get`] reads it;
//!   the server's `--degraded` stale-on-error mode serves those bytes
//!   (with `X-Cache: stale`) when a fresh compute fails. Because plan
//!   bytes are a pure function of the spec, "stale" bytes are in fact
//!   byte-identical to what a successful compute would have produced.

use std::collections::HashMap;
use std::sync::Arc;
use std::sync::{Condvar, Mutex};

/// How a [`PlanCache::get_or_compute`] call was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheOutcome {
    /// The value was already cached.
    Hit,
    /// This call computed the value.
    Miss,
    /// Another in-flight call computed the value; this call waited and
    /// shares its bytes.
    Coalesced,
}

impl CacheOutcome {
    /// Label used in the `X-Cache` response header and reports.
    pub fn label(self) -> &'static str {
        match self {
            CacheOutcome::Hit => "hit",
            CacheOutcome::Miss => "miss",
            CacheOutcome::Coalesced => "coalesced",
        }
    }
}

enum Slot {
    Ready(Arc<Vec<u8>>),
    InFlight,
}

struct CacheState {
    slots: HashMap<u64, Slot>,
    /// Keys of ready entries, most recently used first. Only ready
    /// entries participate in recency/eviction; in-flight slots cannot be
    /// evicted (their computer will insert them on completion).
    recency: Vec<u64>,
    /// Last good bytes per key, most recently written first — the
    /// stale-on-error store. Bounded by the same capacity as the main
    /// cache but evicted independently, so a key's last good response
    /// outlives its main-cache entry.
    stale: HashMap<u64, Arc<Vec<u8>>>,
    stale_recency: Vec<u64>,
}

impl CacheState {
    /// The ready bytes for `key`, if any, moved to the front of the
    /// recency list.
    fn use_ready(&mut self, key: u64) -> Option<Arc<Vec<u8>>> {
        let Some(Slot::Ready(bytes)) = self.slots.get(&key) else {
            return None;
        };
        let bytes = Arc::clone(bytes);
        touch(&mut self.recency, key);
        Some(bytes)
    }
}

/// A bounded byte cache keyed by spec fingerprint. See module docs.
pub struct PlanCache {
    capacity: usize,
    state: Mutex<CacheState>,
    ready: Condvar,
}

impl std::fmt::Debug for PlanCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PlanCache")
            .field("capacity", &self.capacity)
            .field("len", &self.len())
            .finish()
    }
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` ready entries.
    /// `capacity == 0` disables caching (every call computes; no
    /// single-flight either, since there is nowhere to publish a result).
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            capacity,
            state: Mutex::new(CacheState {
                slots: HashMap::new(),
                recency: Vec::new(),
                stale: HashMap::new(),
                stale_recency: Vec::new(),
            }),
            ready: Condvar::new(),
        }
    }

    /// Configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of ready (cached) entries.
    pub fn len(&self) -> usize {
        self.state
            .lock()
            .expect("cache mutex poisoned")
            .recency
            .len()
    }

    /// Returns `true` when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The ready bytes for `key`, if any, marked as just used — exactly
    /// what [`PlanCache::get_or_compute`] answers as a
    /// [`CacheOutcome::Hit`], without a compute to hand over.
    pub fn get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        self.state
            .lock()
            .expect("cache mutex poisoned")
            .use_ready(key)
    }

    /// Returns the cached bytes for `key`, computing (or waiting for a
    /// concurrent compute of) them if absent. `compute` runs outside the
    /// cache lock. On `Err` nothing is cached and one coalesced waiter
    /// (if any) is woken to retry with its own `compute`.
    pub fn get_or_compute<E>(
        &self,
        key: u64,
        compute: impl FnOnce() -> Result<Vec<u8>, E>,
    ) -> Result<(Arc<Vec<u8>>, CacheOutcome), E> {
        if self.capacity == 0 {
            return compute().map(|bytes| (Arc::new(bytes), CacheOutcome::Miss));
        }

        let mut waited = false;
        let mut state = self.state.lock().expect("cache mutex poisoned");
        loop {
            if let Some(bytes) = state.use_ready(key) {
                let outcome = if waited {
                    CacheOutcome::Coalesced
                } else {
                    CacheOutcome::Hit
                };
                return Ok((bytes, outcome));
            }
            if !state.slots.contains_key(&key) {
                break;
            }
            waited = true;
            state = self.ready.wait(state).expect("cache mutex poisoned");
        }
        // We are the computer for this key.
        state.slots.insert(key, Slot::InFlight);
        drop(state);

        // An InFlight marker must never outlive its computer, or waiters
        // would block forever — clean up even if `compute` panics.
        let guard = InFlightGuard { cache: self, key };
        // The cache is bounded by entry count, so an entry must not keep
        // the growth slack of the buffer it was rendered into.
        let result = compute().map(|mut bytes| {
            bytes.shrink_to_fit();
            bytes
        });
        std::mem::forget(guard);

        let mut state = self.state.lock().expect("cache mutex poisoned");
        match result {
            Ok(bytes) => {
                let bytes = Arc::new(bytes);
                state.slots.insert(key, Slot::Ready(Arc::clone(&bytes)));
                touch(&mut state.recency, key);
                while state.recency.len() > self.capacity {
                    let evicted = state.recency.pop().expect("non-empty recency");
                    state.slots.remove(&evicted);
                }
                state.stale.insert(key, Arc::clone(&bytes));
                touch(&mut state.stale_recency, key);
                while state.stale_recency.len() > self.capacity {
                    let evicted = state.stale_recency.pop().expect("non-empty stale recency");
                    state.stale.remove(&evicted);
                }
                drop(state);
                self.ready.notify_all();
                Ok((bytes, CacheOutcome::Miss))
            }
            Err(e) => {
                state.slots.remove(&key);
                drop(state);
                self.ready.notify_all();
                Err(e)
            }
        }
    }

    /// The last good bytes recorded for `key`, if any — the stale-on-error
    /// read path. Does not touch recency (stale reads are exceptional and
    /// must not keep a failing key's entry warm forever).
    pub fn stale_get(&self, key: u64) -> Option<Arc<Vec<u8>>> {
        let state = self.state.lock().expect("cache mutex poisoned");
        state.stale.get(&key).map(Arc::clone)
    }

    /// Drops the ready entry for `key` (if any), forcing the next lookup
    /// to recompute. In-flight markers and the last-good store are left
    /// alone. Used by fault injection (`serve.cache` evict faults) and
    /// exercised by the chaos suite.
    pub fn evict(&self, key: u64) {
        let mut state = self.state.lock().expect("cache mutex poisoned");
        if matches!(state.slots.get(&key), Some(Slot::Ready(_))) {
            state.slots.remove(&key);
            state.recency.retain(|&k| k != key);
        }
    }
}

/// Removes the in-flight marker if the computing call unwinds.
struct InFlightGuard<'a> {
    cache: &'a PlanCache,
    key: u64,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        let mut state = self.cache.state.lock().expect("cache mutex poisoned");
        state.slots.remove(&self.key);
        drop(state);
        self.cache.ready.notify_all();
    }
}

/// Moves `key` to the front of the recency list (inserting it if new).
fn touch(recency: &mut Vec<u64>, key: u64) {
    if let Some(pos) = recency.iter().position(|&k| k == key) {
        recency.remove(pos);
    }
    recency.insert(0, key);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    fn ok_bytes(s: &str) -> Result<Vec<u8>, String> {
        Ok(s.as_bytes().to_vec())
    }

    #[test]
    fn miss_then_hit_returns_identical_bytes() {
        let cache = PlanCache::new(4);
        let (a, o1) = cache.get_or_compute(1, || ok_bytes("plan")).unwrap();
        assert_eq!(o1, CacheOutcome::Miss);
        let (b, o2) = cache
            .get_or_compute(1, || -> Result<Vec<u8>, String> {
                panic!("must not recompute")
            })
            .unwrap();
        assert_eq!(o2, CacheOutcome::Hit);
        assert!(Arc::ptr_eq(&a, &b), "hit shares the stored allocation");
        assert_eq!(cache.len(), 1);
        assert!(!cache.is_empty());
    }

    #[test]
    fn cached_bytes_carry_no_growth_slack() {
        let cache = PlanCache::new(4);
        let (bytes, _) = cache
            .get_or_compute(1, || -> Result<Vec<u8>, String> {
                let mut v = Vec::with_capacity(64);
                v.extend_from_slice(b"plan");
                Ok(v)
            })
            .unwrap();
        assert_eq!(bytes.capacity(), bytes.len());
    }

    #[test]
    fn lru_eviction_is_deterministic_and_touch_refreshes() {
        let cache = PlanCache::new(2);
        cache.get_or_compute(1, || ok_bytes("a")).unwrap();
        cache.get_or_compute(2, || ok_bytes("b")).unwrap();
        // Touch 1 so 2 becomes the least recently used …
        cache.get_or_compute(1, || ok_bytes("!")).unwrap();
        // … then insert 3: 2 must be evicted, 1 retained.
        cache.get_or_compute(3, || ok_bytes("c")).unwrap();
        assert_eq!(cache.len(), 2);
        let recomputed = AtomicUsize::new(0);
        let (_, o) = cache
            .get_or_compute(1, || {
                recomputed.fetch_add(1, Ordering::SeqCst);
                ok_bytes("a2")
            })
            .unwrap();
        assert_eq!(o, CacheOutcome::Hit, "1 survived the eviction");
        assert_eq!(recomputed.load(Ordering::SeqCst), 0);
        let (_, o) = cache
            .get_or_compute(2, || {
                recomputed.fetch_add(1, Ordering::SeqCst);
                ok_bytes("b2")
            })
            .unwrap();
        assert_eq!(o, CacheOutcome::Miss, "2 was evicted");
        assert_eq!(recomputed.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn zero_capacity_always_computes() {
        let cache = PlanCache::new(0);
        let count = AtomicUsize::new(0);
        for _ in 0..3 {
            let (_, o) = cache
                .get_or_compute(7, || {
                    count.fetch_add(1, Ordering::SeqCst);
                    ok_bytes("x")
                })
                .unwrap();
            assert_eq!(o, CacheOutcome::Miss);
        }
        assert_eq!(count.load(Ordering::SeqCst), 3);
        assert_eq!(cache.capacity(), 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn concurrent_identical_requests_compute_once_and_coalesce() {
        let cache = PlanCache::new(4);
        let computes = AtomicUsize::new(0);
        let threads = 8;
        let barrier = Barrier::new(threads);
        let results: Vec<(Arc<Vec<u8>>, CacheOutcome)> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        cache
                            .get_or_compute(42, || {
                                computes.fetch_add(1, Ordering::SeqCst);
                                // Long enough that the other threads land
                                // in the in-flight wait path.
                                std::thread::sleep(Duration::from_millis(50));
                                ok_bytes("expensive plan")
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });

        assert_eq!(
            computes.load(Ordering::SeqCst),
            1,
            "single-flight: exactly one compute"
        );
        let misses = results
            .iter()
            .filter(|(_, o)| *o == CacheOutcome::Miss)
            .count();
        assert_eq!(misses, 1);
        for (bytes, outcome) in &results {
            assert_eq!(bytes.as_slice(), b"expensive plan");
            assert_ne!(*outcome, CacheOutcome::Hit, "nobody raced past the compute");
            assert!(
                Arc::ptr_eq(bytes, &results[0].0),
                "all callers share one allocation"
            );
        }
    }

    #[test]
    fn failed_computes_are_not_cached_and_waiters_retry() {
        let cache = PlanCache::new(4);
        let err: Result<(Arc<Vec<u8>>, CacheOutcome), String> =
            cache.get_or_compute(9, || Err("planner exploded".to_string()));
        assert_eq!(err.unwrap_err(), "planner exploded");
        // The error was not cached; the next call computes fresh.
        let (bytes, o) = cache.get_or_compute(9, || ok_bytes("fine now")).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(bytes.as_slice(), b"fine now");
    }

    #[test]
    fn waiters_survive_a_failing_computer() {
        let cache = PlanCache::new(4);
        let barrier = Barrier::new(2);
        let (a, b) = std::thread::scope(|scope| {
            let first = scope.spawn(|| {
                barrier.wait();
                cache.get_or_compute(5, || {
                    std::thread::sleep(Duration::from_millis(50));
                    Err::<Vec<u8>, String>("boom".to_string())
                })
            });
            let second = scope.spawn(|| {
                barrier.wait();
                // Arrive second (while the failing compute sleeps).
                std::thread::sleep(Duration::from_millis(10));
                cache.get_or_compute(5, || ok_bytes("recovered"))
            });
            (first.join().unwrap(), second.join().unwrap())
        });
        assert!(a.is_err());
        let (bytes, _) = b.unwrap();
        assert_eq!(bytes.as_slice(), b"recovered");
    }

    #[test]
    fn a_panicking_compute_does_not_wedge_the_key() {
        let cache = PlanCache::new(4);
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _ =
                cache.get_or_compute(3, || -> Result<Vec<u8>, String> { panic!("compute bug") });
        }));
        assert!(panicked.is_err());
        // The in-flight marker was cleaned up; a fresh call computes.
        let (bytes, o) = cache.get_or_compute(3, || ok_bytes("ok")).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        assert_eq!(bytes.as_slice(), b"ok");
    }

    #[test]
    fn stale_store_retains_last_good_bytes_past_eviction() {
        let cache = PlanCache::new(2);
        cache.get_or_compute(1, || ok_bytes("one")).unwrap();
        cache.get_or_compute(2, || ok_bytes("two")).unwrap();
        cache.get_or_compute(3, || ok_bytes("three")).unwrap();
        // Key 1 fell off the main LRU …
        let (_, o) = cache.get_or_compute(1, || ok_bytes("one'")).unwrap();
        assert_eq!(o, CacheOutcome::Miss);
        // … but the stale store (same capacity, independent LRU) also
        // rolled: at capacity 2, only the two most recently written keys
        // keep last-good bytes.
        assert!(cache.stale_get(3).is_some());
        assert!(cache.stale_get(1).is_some(), "rewritten above");
        assert_eq!(cache.stale_get(2), None, "oldest stale entry rolled off");
    }

    #[test]
    fn explicit_evict_forces_recompute_but_keeps_stale_bytes() {
        let cache = PlanCache::new(4);
        cache.get_or_compute(7, || ok_bytes("good")).unwrap();
        cache.evict(7);
        assert_eq!(cache.len(), 0);
        let stale = cache
            .stale_get(7)
            .expect("last good bytes survive eviction");
        assert_eq!(stale.as_slice(), b"good");
        // A failing recompute leaves the stale bytes in place …
        let err: Result<(Arc<Vec<u8>>, CacheOutcome), String> =
            cache.get_or_compute(7, || Err("planner broke".into()));
        assert!(err.is_err());
        assert_eq!(cache.stale_get(7).unwrap().as_slice(), b"good");
        // … and a succeeding one refreshes them.
        cache.get_or_compute(7, || ok_bytes("fresh")).unwrap();
        assert_eq!(cache.stale_get(7).unwrap().as_slice(), b"fresh");
    }

    #[test]
    fn evicting_unknown_or_inflight_keys_is_harmless() {
        let cache = PlanCache::new(2);
        cache.evict(99); // no entry: no-op
        let barrier = Barrier::new(2);
        std::thread::scope(|scope| {
            let computer = scope.spawn(|| {
                barrier.wait();
                cache.get_or_compute(5, || {
                    std::thread::sleep(Duration::from_millis(40));
                    ok_bytes("slow")
                })
            });
            barrier.wait();
            std::thread::sleep(Duration::from_millis(10));
            // Evicting mid-flight must not remove the in-flight marker.
            cache.evict(5);
            computer.join().unwrap().unwrap();
        });
        let (_, o) = cache.get_or_compute(5, || ok_bytes("no")).unwrap();
        assert_eq!(o, CacheOutcome::Hit, "in-flight compute still landed");
    }

    #[test]
    fn zero_capacity_has_no_stale_store() {
        let cache = PlanCache::new(0);
        cache.get_or_compute(1, || ok_bytes("x")).unwrap();
        assert_eq!(cache.stale_get(1), None);
    }

    #[test]
    fn distinct_keys_do_not_interact() {
        let cache = PlanCache::new(8);
        for k in 0..8u64 {
            let (bytes, o) = cache
                .get_or_compute(k, || ok_bytes(&format!("v{k}")))
                .unwrap();
            assert_eq!(o, CacheOutcome::Miss);
            assert_eq!(bytes.as_slice(), format!("v{k}").as_bytes());
        }
        assert_eq!(cache.len(), 8);
        for k in 0..8u64 {
            let (_, o) = cache.get_or_compute(k, || ok_bytes("no")).unwrap();
            assert_eq!(o, CacheOutcome::Hit);
        }
    }
}
