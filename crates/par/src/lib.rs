//! # mule-par
//!
//! A dependency-free parallel executor for embarrassingly parallel work:
//! scoped [`std::thread`] worker pools that map a function over an index
//! range (or a slice) and return the results **in input order**,
//! bit-identically to a sequential run.
//!
//! Replication sweeps dominate this workspace's runtime — `mule-sim`'s
//! `run_sweep`, bench figure grids, dynamics scenario sweeps — and every
//! item of those sweeps is an independent, pure function of its seed. This
//! crate executes them that way.
//!
//! ## Execution model
//!
//! * **Scoped workers.** Each parallel map spawns up to
//!   [`resolve_workers`]`()` threads inside a [`std::thread::scope`]; the
//!   workers borrow the closure and input directly (no `'static` bounds,
//!   no channels) and are joined before the call returns.
//! * **Chunked work-stealing.** Workers repeatedly claim the next chunk of
//!   the index range from a shared atomic cursor, so an unlucky worker
//!   stuck on a slow item does not serialise the sweep. Chunks are
//!   contiguous index ranges; each index is computed exactly once.
//! * **Deterministic output order.** Results are reassembled by input
//!   index before returning, so callers observe exactly the sequential
//!   result — only faster. Scheduling (which worker computes which chunk)
//!   is *not* deterministic, which is why closures must be pure.
//! * **No nested oversubscription.** A parallel map issued from inside a
//!   worker thread runs inline (sequentially) on that worker, so nesting a
//!   parallel replication sweep inside a parallel figure grid is bounded by
//!   one pool's worth of threads, not workers².
//!
//! Beyond the scoped maps, [`pool::TaskPool`] provides **long-lived**
//! workers for job streams that outlive any one call — `mule-serve` runs
//! its connection handlers on one — with a join-on-drop shutdown
//! contract.
//!
//! ## Worker-count resolution
//!
//! [`resolve_workers`] picks the pool size from, in priority order:
//!
//! 1. an explicit per-call override (`Some(n)` passed by the caller, e.g.
//!    `patrolctl sweep --workers N`),
//! 2. the `MULE_PAR_WORKERS` environment variable,
//! 3. [`std::thread::available_parallelism`].
//!
//! Forcing a single worker (any of the above = 1) reproduces the exact
//! sequential behaviour — the determinism tests rely on this.
//!
//! ```
//! let squares = mule_par::parallel_map_indexed(100, |i| i * i);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod pool;

pub use pool::TaskPool;

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// The environment variable consulted for the default worker count.
pub const WORKERS_ENV_VAR: &str = "MULE_PAR_WORKERS";

/// How many chunks each worker should see on average; more chunks give
/// better load balancing at slightly higher cursor contention.
const CHUNKS_PER_WORKER: usize = 4;

thread_local! {
    /// Set while the current thread is a pool worker, so nested parallel
    /// maps run inline instead of spawning a second tier of threads.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// Returns `true` when called from inside a pool worker thread (nested
/// parallel maps run sequentially there).
pub fn in_worker() -> bool {
    IN_WORKER.with(Cell::get)
}

/// Resolves the worker count for a parallel call.
///
/// Priority: `explicit` override → `MULE_PAR_WORKERS` →
/// [`std::thread::available_parallelism`] (→ 1 when even that is
/// unavailable). The result is always ≥ 1.
pub fn resolve_workers(explicit: Option<usize>) -> usize {
    if let Some(n) = explicit.filter(|&n| n > 0) {
        return n;
    }
    if let Some(n) = std::env::var(WORKERS_ENV_VAR)
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// Chunk size giving each worker ~[`CHUNKS_PER_WORKER`] chunks.
fn chunk_size(len: usize, workers: usize) -> usize {
    len.div_ceil(workers.saturating_mul(CHUNKS_PER_WORKER).max(1))
        .max(1)
}

/// Maps `f` over `0..len` on `workers` threads and returns the results in
/// index order. `workers = 1` (or `len ≤ 1`, or a call from inside a pool
/// worker) degenerates to the plain sequential loop, producing the exact
/// same output — parallel and sequential runs are interchangeable as long
/// as `f` is a pure function of its index.
pub fn parallel_map_indexed_with<R, F>(workers: usize, len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    let workers = workers.max(1).min(len.max(1));
    // Trace-level fan-out facts, recorded on the coordinating thread (the
    // worker count is environment-dependent, so it is a gauge — excluded
    // from span counters and therefore from determinism pins only insofar
    // as gauges are compared; shape tests that include gauges must force a
    // worker count).
    mule_obs::add("par_tasks", len as u64);
    mule_obs::gauge("par.workers", workers as i64);
    if workers <= 1 || len <= 1 || in_worker() {
        return (0..len).map(f).collect();
    }

    let chunk = chunk_size(len, workers);
    let cursor = AtomicUsize::new(0);
    // Workers push (chunk start, chunk results); reassembled by start
    // index below so the output is in input order regardless of which
    // worker claimed which chunk.
    let parts: Mutex<Vec<(usize, Vec<R>)>> = Mutex::new(Vec::new());

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let start = cursor.fetch_add(chunk, Ordering::Relaxed);
                    if start >= len {
                        break;
                    }
                    let end = (start + chunk).min(len);
                    let out: Vec<R> = (start..end).map(&f).collect();
                    parts
                        .lock()
                        .expect("result mutex poisoned")
                        .push((start, out));
                }
                IN_WORKER.with(|w| w.set(false));
            });
        }
    });

    let mut parts = parts.into_inner().expect("result mutex poisoned");
    parts.sort_unstable_by_key(|&(start, _)| start);
    let mut results = Vec::with_capacity(len);
    for (_, mut part) in parts {
        results.append(&mut part);
    }
    debug_assert_eq!(results.len(), len);
    results
}

/// [`parallel_map_indexed_with`] with the worker count from
/// [`resolve_workers`]`(None)`.
pub fn parallel_map_indexed<R, F>(len: usize, f: F) -> Vec<R>
where
    R: Send,
    F: Fn(usize) -> R + Sync,
{
    parallel_map_indexed_with(resolve_workers(None), len, f)
}

/// Maps `f` over the items of a slice in parallel, returning results in
/// input order.
pub fn parallel_map_slice<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    parallel_map_indexed(items.len(), |i| f(&items[i]))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn indexed_map_matches_sequential_for_every_worker_count() {
        let expected: Vec<usize> = (0..257).map(|i| i * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 7, 16, 1000] {
            let got = parallel_map_indexed_with(workers, 257, |i| i * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn empty_and_single_item_ranges_work() {
        assert!(parallel_map_indexed_with(8, 0, |i| i).is_empty());
        assert_eq!(parallel_map_indexed_with(8, 1, |i| i + 10), vec![10]);
    }

    #[test]
    fn slice_map_preserves_input_order() {
        let items: Vec<i64> = (0..100).rev().collect();
        let doubled = parallel_map_slice(&items, |&x| x * 2);
        let expected: Vec<i64> = items.iter().map(|&x| x * 2).collect();
        assert_eq!(doubled, expected);
    }

    #[test]
    fn nested_parallel_maps_run_inline_on_workers() {
        // The outer map uses several workers; the inner map must detect it
        // is on a worker thread and stay sequential (and correct).
        let grid = parallel_map_indexed_with(4, 8, |row| {
            assert!(in_worker() || resolve_workers(None) == 1);
            parallel_map_indexed_with(4, 8, move |col| row * 8 + col)
        });
        for (row, inner) in grid.iter().enumerate() {
            let expected: Vec<usize> = (0..8).map(|col| row * 8 + col).collect();
            assert_eq!(inner, &expected);
        }
    }

    #[test]
    fn chunk_size_is_positive_and_covers_the_range() {
        for len in [1usize, 2, 7, 64, 1000] {
            for workers in [1usize, 2, 8, 64] {
                let c = chunk_size(len, workers);
                assert!(c >= 1);
                assert!(c * workers * CHUNKS_PER_WORKER >= len);
            }
        }
    }

    #[test]
    fn explicit_override_beats_everything() {
        assert_eq!(resolve_workers(Some(3)), 3);
        assert_eq!(resolve_workers(Some(1)), 1);
        // Zero is "no override".
        assert!(resolve_workers(Some(0)) >= 1);
    }

    #[test]
    fn results_are_deterministic_across_repeated_parallel_runs() {
        let a = parallel_map_indexed_with(8, 500, |i| (i as f64).sqrt());
        let b = parallel_map_indexed_with(8, 500, |i| (i as f64).sqrt());
        let c = parallel_map_indexed_with(1, 500, |i| (i as f64).sqrt());
        assert_eq!(a, b);
        assert_eq!(a, c, "parallel equals sequential bit-for-bit");
    }
}
