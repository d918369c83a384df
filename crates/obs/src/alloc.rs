//! Span-attributed allocation tracking and process-memory sampling.
//!
//! [`CountingAlloc`] is a dependency-free counting wrapper around any
//! [`GlobalAlloc`] (in practice [`std::alloc::System`]); the crate installs
//! it as the workspace-wide `#[global_allocator]`, so `patrolctl` and every
//! test/bench binary that links `mule-obs` pays exactly **one relaxed
//! atomic load per allocator call** while no collector is armed — the same
//! discipline `mule_fault::point` uses for fault sites.
//!
//! When [`arm`]ed, every allocator call additionally maintains
//!
//! * **global tallies** (process-wide atomics): alloc/dealloc/realloc
//!   counts, allocated/freed bytes, live bytes and the live-bytes
//!   high-water mark — read with [`stats`];
//! * **thread-local tallies** (plain `Cell`s, allocation-free): the same
//!   counts for the current thread, which is what lets the tracing layer
//!   in the crate root attribute allocations to the *innermost open span*
//!   without ever touching the (re-entrant, `RefCell`-guarded) collector
//!   from inside the allocator hook.
//!
//! ## Determinism contract
//!
//! Allocation **counts** per span are a pure function of the traced
//! computation (the same seed performs the same allocations), so they are
//! pinned by golden tests exactly like span shape. Allocation **bytes**,
//! peak-live and RSS figures ride alongside for capacity analysis and are
//! **never** pinned — see `docs/DETERMINISM.md`.
//!
//! ## Process RSS
//!
//! [`rss_now_kb`] / [`rss_peak_kb`] sample `VmRSS` / `VmHWM` from
//! `/proc/self/status` and return `None` gracefully where procfs is not
//! available (non-Linux); [`reset_rss_peak`] asks the kernel to reset the
//! high-water mark via `/proc/self/clear_refs` so benches can scope the
//! peak to one workload.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// Number of outstanding [`arm`] calls. A counter rather than a flag so
/// overlapping armed sections (parallel tests, a long-armed server plus a
/// scoped bench) compose; the fast path is still one relaxed load.
static ARMED: AtomicU64 = AtomicU64::new(0);

// Global (process-wide) tallies. Only written while armed.
static ALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static DEALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static REALLOC_COUNT: AtomicU64 = AtomicU64::new(0);
static ALLOCATED_BYTES: AtomicU64 = AtomicU64::new(0);
static FREED_BYTES: AtomicU64 = AtomicU64::new(0);
static LIVE_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_LIVE_BYTES: AtomicI64 = AtomicI64::new(0);

// Per-thread tallies. Plain `Cell`s with const initialisers: touching them
// from inside the allocator hook performs no allocation and registers no
// TLS destructor, so the hook can never re-enter itself.
thread_local! {
    static TL_ALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static TL_REALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static TL_DEALLOC_COUNT: Cell<u64> = const { Cell::new(0) };
    static TL_ALLOCATED_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_FREED_BYTES: Cell<u64> = const { Cell::new(0) };
    static TL_LIVE_BYTES: Cell<i64> = const { Cell::new(0) };
    /// Peak of `TL_LIVE_BYTES` within the innermost open span window; the
    /// crate root saves/restores it around span open/close.
    static TL_WINDOW_PEAK: Cell<i64> = const { Cell::new(0) };
}

/// Arms the tallies: until the matching [`disarm`], every allocator call
/// updates the global and thread-local counters. Arming is process-global
/// and counted, so overlapping armed sections compose; tests that assert
/// on *global* tallies must still serialise on a lock of their own.
pub fn arm() {
    ARMED.fetch_add(1, Ordering::Relaxed);
}

/// Releases one [`arm`]; the one-relaxed-load fast path returns once
/// every armed section has ended. Unpaired calls are clamped at zero.
pub fn disarm() {
    let _ = ARMED.fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
        Some(v.saturating_sub(1))
    });
}

/// Releases one [`arm`] when dropped, so a section that panics cannot
/// leave the tallies armed for the rest of the process.
struct DisarmOnDrop;

impl Drop for DisarmOnDrop {
    fn drop(&mut self) {
        disarm();
    }
}

/// `true` while at least one caller has the tallies armed.
#[inline]
pub fn armed() -> bool {
    ARMED.load(Ordering::Relaxed) > 0
}

/// A snapshot of allocation tallies (global via [`stats`], current-thread
/// via [`thread_stats`]). All figures count only activity that happened
/// while armed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Number of `alloc` / `alloc_zeroed` calls.
    pub alloc_count: u64,
    /// Number of `realloc` calls.
    pub realloc_count: u64,
    /// Number of `dealloc` calls.
    pub dealloc_count: u64,
    /// Total bytes requested by allocations (reallocs count their new
    /// size).
    pub allocated_bytes: u64,
    /// Total bytes released (reallocs count their old size).
    pub freed_bytes: u64,
    /// Live bytes: allocated minus freed. Clamped at zero — frees of
    /// blocks allocated before arming would otherwise drive it negative.
    pub live_bytes: u64,
    /// High-water mark of `live_bytes` since arming (global) or since the
    /// current span window opened (thread).
    pub peak_live_bytes: u64,
}

impl AllocStats {
    /// Alloc plus realloc events — the deterministic per-span count the
    /// golden tests pin.
    pub fn events(&self) -> u64 {
        self.alloc_count + self.realloc_count
    }
}

fn clamp(v: i64) -> u64 {
    v.max(0) as u64
}

/// Snapshot of the global tallies.
pub fn stats() -> AllocStats {
    AllocStats {
        alloc_count: ALLOC_COUNT.load(Ordering::Relaxed),
        realloc_count: REALLOC_COUNT.load(Ordering::Relaxed),
        dealloc_count: DEALLOC_COUNT.load(Ordering::Relaxed),
        allocated_bytes: ALLOCATED_BYTES.load(Ordering::Relaxed),
        freed_bytes: FREED_BYTES.load(Ordering::Relaxed),
        live_bytes: clamp(LIVE_BYTES.load(Ordering::Relaxed)),
        peak_live_bytes: clamp(PEAK_LIVE_BYTES.load(Ordering::Relaxed)),
    }
}

/// Snapshot of the calling thread's tallies.
pub fn thread_stats() -> AllocStats {
    AllocStats {
        alloc_count: TL_ALLOC_COUNT.with(Cell::get),
        realloc_count: TL_REALLOC_COUNT.with(Cell::get),
        dealloc_count: TL_DEALLOC_COUNT.with(Cell::get),
        allocated_bytes: TL_ALLOCATED_BYTES.with(Cell::get),
        freed_bytes: TL_FREED_BYTES.with(Cell::get),
        live_bytes: clamp(TL_LIVE_BYTES.with(Cell::get)),
        peak_live_bytes: clamp(TL_WINDOW_PEAK.with(Cell::get)),
    }
}

/// Allocation figures of one [`measure`]d call on the calling thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Measurement {
    /// Alloc plus realloc events (deterministic per seeded workload).
    pub events: u64,
    /// Bytes allocated (reallocs count their new size).
    pub allocated_bytes: u64,
    /// Live-bytes high-water mark above the live figure at the call's
    /// start.
    pub peak_live_bytes: u64,
}

/// Runs `f` with the tallies armed and returns its result together with
/// the calling thread's allocation figures for the call. Thread-local
/// tallies keep allocation on other threads out of the figures.
///
/// The peak is taken against the thread's **raw** (signed) live figure at
/// the start, not the clamped [`thread_stats`] one: a thread that freed,
/// while some other caller had the tallies armed, blocks it allocated
/// disarmed carries a negative live figure, and clamping both ends at
/// zero would hide the call's whole peak.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Measurement) {
    arm();
    let _armed = DisarmOnDrop;
    let window = open_window().expect("the tallies were armed above");
    let start_live = TL_LIVE_BYTES.with(Cell::get);
    let value = f();
    let peak = TL_WINDOW_PEAK.with(Cell::get);
    let tally = close_window(window);
    let measurement = Measurement {
        events: tally.allocs,
        allocated_bytes: tally.bytes,
        peak_live_bytes: clamp(peak - start_live),
    };
    (value, measurement)
}

/// A pending span allocation window, opened by the tracing layer when a
/// span opens while armed and closed into a [`crate::trace::SpanAlloc`]
/// when it closes. Lives on the collector's window stack, parallel to the
/// span stack.
#[derive(Debug, Clone, Copy)]
pub struct SpanWindow {
    start_events: u64,
    start_bytes: u64,
    saved_peak: i64,
}

/// Opens an allocation window for the span being opened on this thread:
/// snapshots the thread tallies and resets the window peak to the current
/// live figure. Returns `None` when the tallies are not armed.
pub(crate) fn open_window() -> Option<SpanWindow> {
    if !armed() {
        return None;
    }
    let start_events = TL_ALLOC_COUNT.with(Cell::get) + TL_REALLOC_COUNT.with(Cell::get);
    let start_bytes = TL_ALLOCATED_BYTES.with(Cell::get);
    let live = TL_LIVE_BYTES.with(Cell::get);
    let saved_peak = TL_WINDOW_PEAK.with(|p| p.replace(live));
    Some(SpanWindow {
        start_events,
        start_bytes,
        saved_peak,
    })
}

/// Closes an allocation window in LIFO order, returning the span's
/// attribution and restoring the enclosing window's peak (the closed
/// window's peak also happened inside the enclosing span).
pub(crate) fn close_window(window: SpanWindow) -> crate::trace::SpanAlloc {
    let events = TL_ALLOC_COUNT.with(Cell::get) + TL_REALLOC_COUNT.with(Cell::get);
    let bytes = TL_ALLOCATED_BYTES.with(Cell::get);
    let my_peak = TL_WINDOW_PEAK.with(Cell::get);
    TL_WINDOW_PEAK.with(|p| p.set(window.saved_peak.max(my_peak)));
    crate::trace::SpanAlloc {
        allocs: events.saturating_sub(window.start_events),
        bytes: bytes.saturating_sub(window.start_bytes),
        peak_live: clamp(my_peak),
    }
}

#[inline]
fn record_alloc(size: u64) {
    ALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(size, Ordering::Relaxed);
    let live = LIVE_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    // `try_with`: the thread may be tearing its TLS down; dropping the
    // sample is fine, panicking inside the allocator is not.
    let _ = TL_ALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = TL_ALLOCATED_BYTES.try_with(|c| c.set(c.get() + size));
    let _ = TL_LIVE_BYTES.try_with(|c| {
        let live = c.get() + size as i64;
        c.set(live);
        let _ = TL_WINDOW_PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

#[inline]
fn record_dealloc(size: u64) {
    DEALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    FREED_BYTES.fetch_add(size, Ordering::Relaxed);
    LIVE_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
    let _ = TL_DEALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = TL_FREED_BYTES.try_with(|c| c.set(c.get() + size));
    let _ = TL_LIVE_BYTES.try_with(|c| c.set(c.get() - size as i64));
}

#[inline]
fn record_realloc(old_size: u64, new_size: u64) {
    REALLOC_COUNT.fetch_add(1, Ordering::Relaxed);
    ALLOCATED_BYTES.fetch_add(new_size, Ordering::Relaxed);
    FREED_BYTES.fetch_add(old_size, Ordering::Relaxed);
    let delta = new_size as i64 - old_size as i64;
    let live = LIVE_BYTES.fetch_add(delta, Ordering::Relaxed) + delta;
    PEAK_LIVE_BYTES.fetch_max(live, Ordering::Relaxed);
    let _ = TL_REALLOC_COUNT.try_with(|c| c.set(c.get() + 1));
    let _ = TL_ALLOCATED_BYTES.try_with(|c| c.set(c.get() + new_size));
    let _ = TL_FREED_BYTES.try_with(|c| c.set(c.get() + old_size));
    let _ = TL_LIVE_BYTES.try_with(|c| {
        let live = c.get() + delta;
        c.set(live);
        let _ = TL_WINDOW_PEAK.try_with(|p| p.set(p.get().max(live)));
    });
}

/// A counting wrapper around a [`GlobalAlloc`]. Inert (one relaxed load
/// per call) until [`arm`]ed; the tallies themselves never allocate, so
/// the wrapper cannot re-enter itself.
#[derive(Debug, Default)]
pub struct CountingAlloc<A> {
    inner: A,
}

impl<A> CountingAlloc<A> {
    /// Wraps `inner` (usable in the `#[global_allocator]` static).
    pub const fn new(inner: A) -> Self {
        CountingAlloc { inner }
    }
}

// SAFETY: defers every allocation verbatim to the wrapped allocator; the
// bookkeeping touches only atomics and `Cell`s and never allocates.
unsafe impl<A: GlobalAlloc> GlobalAlloc for CountingAlloc<A> {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc(layout);
        if !ptr.is_null() && armed() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        let ptr = self.inner.alloc_zeroed(layout);
        if !ptr.is_null() && armed() {
            record_alloc(layout.size() as u64);
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        self.inner.dealloc(ptr, layout);
        if armed() {
            record_dealloc(layout.size() as u64);
        }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = self.inner.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() && armed() {
            record_realloc(layout.size() as u64, new_size as u64);
        }
        new_ptr
    }
}

/// The workspace-wide counting allocator. Declared here so `patrolctl`
/// and every test/bench binary that links `mule-obs` (transitively: the
/// whole workspace) gets allocation observability without per-binary
/// boilerplate.
#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc<System> = CountingAlloc::new(System);

fn proc_status_kb(key: &str) -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix(key) {
            let rest = rest.trim_start_matches(':').trim();
            let digits = rest.split_whitespace().next()?;
            return digits.parse().ok();
        }
    }
    None
}

/// Current resident set size in kilobytes (`VmRSS`), or `None` where
/// `/proc/self/status` is unavailable (non-Linux platforms).
pub fn rss_now_kb() -> Option<u64> {
    proc_status_kb("VmRSS")
}

/// Peak resident set size in kilobytes (`VmHWM`), or `None` where
/// `/proc/self/status` is unavailable. The kernel high-water mark is
/// process-monotonic unless reset with [`reset_rss_peak`].
pub fn rss_peak_kb() -> Option<u64> {
    proc_status_kb("VmHWM")
}

/// Best-effort reset of the kernel's peak-RSS figure (`echo 5 >
/// /proc/self/clear_refs`). Returns `false` where unsupported; callers
/// must then read [`rss_peak_kb`] as a monotonic process-lifetime peak.
pub fn reset_rss_peak() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use std::sync::Mutex;

    /// Arming is process-global: every test that arms (here and in the
    /// crate-root tests) serialises on this lock and restores the
    /// disarmed state before releasing it.
    pub(crate) static ARM_LOCK: Mutex<()> = Mutex::new(());

    /// Runs `f` armed, under the lock. The disarm is a drop guard
    /// released before the lock, so a failing assertion inside `f` cannot
    /// leave the allocator armed for the next test.
    pub(crate) fn armed_section<T>(f: impl FnOnce() -> T) -> T {
        let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        arm();
        let _armed = DisarmOnDrop;
        f()
    }

    #[test]
    fn disarmed_allocator_leaves_all_tallies_untouched() {
        let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        disarm();
        let global_before = stats();
        let thread_before = thread_stats();
        // Proptest-style sweep: pseudo-random allocation sizes and
        // shapes (vec growth, boxed slices, strings, reallocs via
        // push) driven from a deterministic LCG.
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut rand = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            state >> 33
        };
        for _ in 0..256 {
            let n = (rand() % 4096) as usize + 1;
            let mut v: Vec<u8> = Vec::with_capacity(n % 17);
            for i in 0..n {
                v.push(i as u8);
            }
            let b: Box<[u64]> = (0..(n % 97) as u64).collect();
            let s = "x".repeat(n % 257);
            drop((v, b, s));
        }
        assert_eq!(
            stats(),
            global_before,
            "global tallies moved while disarmed"
        );
        assert_eq!(
            thread_stats(),
            thread_before,
            "thread tallies moved while disarmed"
        );
    }

    #[test]
    fn armed_allocator_counts_allocs_frees_and_live_bytes() {
        armed_section(|| {
            let before = thread_stats();
            let v: Vec<u8> = Vec::with_capacity(8 * 1024);
            let mid = thread_stats();
            assert!(mid.alloc_count > before.alloc_count);
            assert!(mid.allocated_bytes >= before.allocated_bytes + 8 * 1024);
            drop(v);
            let after = thread_stats();
            assert!(after.dealloc_count > mid.dealloc_count);
            assert!(after.freed_bytes >= mid.freed_bytes + 8 * 1024);
        });
    }

    #[test]
    fn realloc_counts_both_sides_and_tracks_peak() {
        // Thread tallies and this thread's window peak only: other test
        // threads allocate and free while the tallies are armed, which
        // moves the process-wide figures in either direction.
        armed_section(|| {
            let before = thread_stats();
            let (v, m) = measure(|| {
                let mut v: Vec<u8> = vec![0; 16];
                for i in 0..4096u32 {
                    v.push(i as u8); // forces reallocs
                }
                v
            });
            let after = thread_stats();
            assert!(after.realloc_count > before.realloc_count);
            assert!(after.allocated_bytes > before.allocated_bytes);
            assert!(after.freed_bytes > before.freed_bytes);
            assert!(
                m.peak_live_bytes >= 4096,
                "window peak {}",
                m.peak_live_bytes
            );
            drop(v);
        });
    }

    #[test]
    fn a_panicking_armed_section_leaves_the_allocator_disarmed() {
        let panicked =
            std::panic::catch_unwind(|| armed_section(|| panic!("deliberate panic while armed")));
        assert!(panicked.is_err());
        let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        assert!(!armed(), "the panic left the tallies armed");
    }

    #[test]
    fn measured_peak_survives_a_negative_thread_live_figure() {
        let _guard = ARM_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        // A block allocated disarmed and freed armed (as happens when
        // another caller holds the tallies armed) drives this thread's
        // raw live figure 4 MiB below zero.
        let block: Vec<u8> = vec![0; 4 << 20];
        arm();
        drop(std::hint::black_box(block));
        disarm();
        let (len, m) = measure(|| std::hint::black_box(vec![0u8; 1 << 20]).len());
        assert_eq!(len, 1 << 20);
        assert!(m.events >= 1);
        assert!(m.allocated_bytes >= 1 << 20);
        assert!(
            m.peak_live_bytes >= 1 << 20,
            "window peak {} hides the 1 MiB allocation",
            m.peak_live_bytes
        );
    }

    #[test]
    fn rss_sampler_reports_plausible_figures_on_linux() {
        match (rss_now_kb(), rss_peak_kb()) {
            (Some(now), Some(peak)) => {
                assert!(now > 0);
                assert!(peak >= now / 2, "peak {peak} vs now {now}");
            }
            // Graceful None off-Linux.
            (None, None) => {}
            other => panic!("inconsistent RSS sampler output: {other:?}"),
        }
    }

    #[test]
    fn events_sums_allocs_and_reallocs() {
        let s = AllocStats {
            alloc_count: 3,
            realloc_count: 2,
            ..AllocStats::default()
        };
        assert_eq!(s.events(), 5);
    }
}
