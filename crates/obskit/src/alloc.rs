//! Heap-allocation profiling: a tracking [`GlobalAlloc`] wrapper with
//! per-span attribution.
//!
//! [`TrackingAlloc`] wraps the system allocator. A binary installs it
//! once:
//!
//! ```ignore
//! #[global_allocator]
//! static ALLOC: obskit::alloc::TrackingAlloc = obskit::alloc::TrackingAlloc::new();
//! ```
//!
//! and the allocator stays a pure pass-through (one relaxed atomic load
//! per call) until [`set_tracking`]`(true)` turns accounting on — the
//! same runtime-switch discipline as the span/metrics recorder, so
//! libraries never pay for profiling they did not ask for. While
//! tracking, every allocation updates global totals
//! (allocs/frees/bytes/peak) *and* is attributed to the span currently
//! open on the allocating thread, which is how the `obskit.bench.v2`
//! report can say "`dpo.backward` allocated 1.2 GB in 40k calls".
//!
//! ## Attribution model
//!
//! Each thread keeps a `Cell<u32>` with the span-tree node of its
//! innermost open span (maintained by `span`/`span_under`/`Span::drop`
//! in the crate root; `u32::MAX` = none). On allocation the node is
//! read — a plain `Cell`, never a `RefCell`, because the allocator can
//! run while the span stack itself is mid-mutation — and the size is
//! added to a global table indexed by node id, so the table has one
//! entry per distinct span name path however many spans a run opens.
//! Frees are *not* attributed:
//! ownership routinely crosses spans (a buffer allocated in
//! `pipeline.collect` dies in `pipeline.train`), so per-span numbers
//! are gross allocation pressure, not live bytes. Global totals do
//! track frees and the live-byte peak.
//!
//! ## Re-entrancy
//!
//! Growing the attribution table allocates, which re-enters the
//! allocator. A thread-local guard short-circuits the attribution path
//! (never the global totals, which are plain atomics) while the table
//! lock is held, so the recursion terminates and the non-reentrant
//! `Mutex` is never taken twice on one thread.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Whether allocation accounting is on (independent of the span
/// recorder so the allocator can stay pass-through during ordinary
/// recorded runs).
static TRACKING: AtomicBool = AtomicBool::new(false);
/// Latched true by `set_tracking(true)`, cleared by [`reset`]: "this
/// process has alloc data worth reporting".
static TRACKED_ANY: AtomicBool = AtomicBool::new(false);

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static FREES: AtomicU64 = AtomicU64::new(0);
static BYTES_ALLOCATED: AtomicU64 = AtomicU64::new(0);
static BYTES_FREED: AtomicU64 = AtomicU64::new(0);
/// Live bytes relative to the tracking start — signed, because blocks
/// allocated before tracking began may be freed while it is on.
static CURRENT_BYTES: AtomicI64 = AtomicI64::new(0);
static PEAK_BYTES: AtomicI64 = AtomicI64::new(0);

/// Per-span gross allocation totals, indexed by span-tree node id.
static PER_SPAN: Mutex<Vec<SpanAlloc>> = Mutex::new(Vec::new());

thread_local! {
    /// Re-entrancy guard for the attribution path (see module docs).
    static IN_TRACKING: Cell<bool> = const { Cell::new(false) };
}

/// Gross allocation totals attributed to one span-tree node.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanAlloc {
    /// Number of allocations made while a span of the node was innermost.
    pub allocs: u64,
    /// Bytes requested by those allocations.
    pub bytes: u64,
}

/// Process-wide allocation totals since tracking was last reset.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct AllocTotals {
    /// Allocations observed.
    pub allocs: u64,
    /// Deallocations observed.
    pub frees: u64,
    /// Bytes requested across all allocations.
    pub bytes_allocated: u64,
    /// Bytes returned across all deallocations.
    pub bytes_freed: u64,
    /// Live bytes relative to the tracking start (may be negative when
    /// pre-tracking blocks are freed while tracking).
    pub current_bytes: i64,
    /// High-water mark of `current_bytes`.
    pub peak_bytes: i64,
}

/// Turns allocation accounting on or off. Off (the default) leaves the
/// installed [`TrackingAlloc`] a pass-through costing one relaxed load.
pub fn set_tracking(on: bool) {
    if on {
        TRACKED_ANY.store(true, Ordering::Relaxed);
    }
    TRACKING.store(on, Ordering::Relaxed);
}

/// `true` while allocation accounting is on.
pub fn tracking() -> bool {
    TRACKING.load(Ordering::Relaxed)
}

/// `true` once tracking has been on since the last [`reset`] — the
/// snapshot uses this to decide whether `alloc.*` metrics belong in the
/// report.
pub fn tracked_any() -> bool {
    TRACKED_ANY.load(Ordering::Relaxed)
}

fn table() -> MutexGuard<'static, Vec<SpanAlloc>> {
    match PER_SPAN.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Runs `f` on the attribution table with the re-entrancy guard held,
/// so allocations made by `f` (or by the table growing) skip the
/// attribution path instead of deadlocking on `PER_SPAN`.
fn with_table<R>(f: impl FnOnce(&mut Vec<SpanAlloc>) -> R) -> Option<R> {
    IN_TRACKING
        .try_with(|guard| {
            if guard.get() {
                return None;
            }
            guard.set(true);
            let result = f(&mut table());
            guard.set(false);
            Some(result)
        })
        .ok()
        .flatten()
}

/// Zeroes every total and drops the attribution table; called by
/// `obskit::enable()` so each recorded run starts from a clean slate.
pub fn reset() {
    ALLOCS.store(0, Ordering::Relaxed);
    FREES.store(0, Ordering::Relaxed);
    BYTES_ALLOCATED.store(0, Ordering::Relaxed);
    BYTES_FREED.store(0, Ordering::Relaxed);
    CURRENT_BYTES.store(0, Ordering::Relaxed);
    PEAK_BYTES.store(0, Ordering::Relaxed);
    TRACKED_ANY.store(false, Ordering::Relaxed);
    with_table(Vec::clear);
}

/// Current process-wide totals.
pub fn totals() -> AllocTotals {
    AllocTotals {
        allocs: ALLOCS.load(Ordering::Relaxed),
        frees: FREES.load(Ordering::Relaxed),
        bytes_allocated: BYTES_ALLOCATED.load(Ordering::Relaxed),
        bytes_freed: BYTES_FREED.load(Ordering::Relaxed),
        current_bytes: CURRENT_BYTES.load(Ordering::Relaxed),
        peak_bytes: PEAK_BYTES.load(Ordering::Relaxed),
    }
}

/// A copy of the per-span attribution table (index = span-tree node id).
pub fn per_span() -> Vec<SpanAlloc> {
    with_table(|t| t.clone()).unwrap_or_default()
}

/// Accounts one allocation of `size` bytes. Public within the crate so
/// the snapshot/tests can exercise accounting without installing the
/// allocator process-wide.
pub(crate) fn note_alloc(size: usize) {
    if !tracking() {
        return;
    }
    ALLOCS.fetch_add(1, Ordering::Relaxed);
    BYTES_ALLOCATED.fetch_add(size as u64, Ordering::Relaxed);
    let live = CURRENT_BYTES.fetch_add(size as i64, Ordering::Relaxed) + size as i64;
    PEAK_BYTES.fetch_max(live, Ordering::Relaxed);
    let Some(span) = crate::current_span_for_alloc() else {
        return;
    };
    with_table(|t| {
        let idx = span as usize;
        if t.len() <= idx {
            t.resize(idx + 1, SpanAlloc::default());
        }
        t[idx].allocs += 1;
        t[idx].bytes += size as u64;
    });
}

/// Accounts one deallocation of `size` bytes (global totals only; see
/// the module docs for why frees are not attributed to spans).
pub(crate) fn note_dealloc(size: usize) {
    if !tracking() {
        return;
    }
    FREES.fetch_add(1, Ordering::Relaxed);
    BYTES_FREED.fetch_add(size as u64, Ordering::Relaxed);
    CURRENT_BYTES.fetch_sub(size as i64, Ordering::Relaxed);
}

/// A [`GlobalAlloc`] that forwards to [`System`] and, while
/// [`set_tracking`] is on, accounts every call (see module docs).
#[derive(Debug, Default)]
pub struct TrackingAlloc;

impl TrackingAlloc {
    /// A pass-through tracking allocator (accounting starts only when
    /// [`set_tracking`]`(true)` is called).
    pub const fn new() -> TrackingAlloc {
        TrackingAlloc
    }
}

#[allow(unsafe_code, reason = "`GlobalAlloc` is an unsafe trait")]
// SAFETY: every method forwards verbatim to `System`, which upholds the
// GlobalAlloc contract; the accounting side-effects touch only atomics
// and a guarded mutex and never observe or alter the returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: `layout` is forwarded unchanged from our own caller,
        // who upholds the GlobalAlloc contract for it.
        let ptr = unsafe { System.alloc(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: as in `alloc` — the layout is forwarded unchanged.
        let ptr = unsafe { System.alloc_zeroed(layout) };
        if !ptr.is_null() {
            note_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` came from our `alloc`/`alloc_zeroed`/
        // `realloc`, which delegate to `System`, so they satisfy
        // `System::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) };
        note_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: arguments are forwarded unchanged from a caller
        // upholding the GlobalAlloc realloc contract.
        let new_ptr = unsafe { System.realloc(ptr, layout, new_size) };
        if !new_ptr.is_null() {
            // Accounted as free+alloc: keeps allocs/frees balanced and
            // the byte totals exact.
            note_dealloc(layout.size());
            note_alloc(new_size);
        }
        new_ptr
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// All accounting in one test: tracking is process-global state and
    /// the test harness runs `#[test]`s in parallel.
    #[test]
    fn accounting_end_to_end() {
        reset();
        // Off: notes are dropped.
        note_alloc(64);
        assert_eq!(totals(), AllocTotals::default());
        assert!(!tracked_any());

        set_tracking(true);
        note_alloc(64);
        note_alloc(32);
        note_dealloc(32);
        let t = totals();
        assert_eq!((t.allocs, t.frees), (2, 1));
        assert_eq!((t.bytes_allocated, t.bytes_freed), (96, 32));
        assert_eq!(t.current_bytes, 64);
        assert_eq!(t.peak_bytes, 96);
        assert!(tracked_any());

        // Freeing a pre-tracking block drives live bytes negative
        // without panicking; the peak stays put.
        note_dealloc(1_000);
        assert_eq!(totals().current_bytes, 64 - 1_000);
        assert_eq!(totals().peak_bytes, 96);

        set_tracking(false);
        note_alloc(1);
        assert_eq!(totals().allocs, 2);
        reset();
        assert_eq!(totals(), AllocTotals::default());
        assert!(per_span().is_empty());
    }

    #[test]
    fn with_table_is_reentrancy_safe() {
        // A nested with_table call (as a re-entered allocation would
        // make) is skipped rather than deadlocking.
        let outer = with_table(|t| {
            let nested = with_table(|_| ());
            t.len() + usize::from(nested.is_some())
        });
        assert_eq!(outer, Some(0));
    }
}
