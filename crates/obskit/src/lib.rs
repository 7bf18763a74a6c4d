//! # obskit — zero-dependency tracing + metrics for the DPO-AF pipeline
//!
//! A from-scratch observability layer shared by every crate in the
//! workspace: hierarchical wall-clock **spans** (folded into one
//! name-path tree as they close; see [`mod@span`]), a thread-safe
//! **metrics registry** of counters and gauges, structured **events**
//! with a human-readable console sink, a **Chrome-trace** exporter (open
//! in `chrome://tracing` or Perfetto), and the stable [`report`] schema
//! behind every `BENCH_<name>.json` artifact.
//!
//! ## The recorder is runtime-selected and off by default
//!
//! Libraries instrument unconditionally; whether anything is recorded is
//! decided by the process-global recorder flag. While disabled (the
//! default, and the state during `cargo test`), every instrumentation
//! call is a single relaxed atomic load — the no-op recorder. Binaries
//! opt in:
//!
//! ```
//! obskit::enable();
//! {
//!     let _stage = obskit::span("pipeline.verify");
//!     obskit::counter_add("ltlcheck.product_states", 42);
//!     obskit::progress!("checked {} states", 42);
//! }
//! let snapshot = obskit::snapshot();
//! assert_eq!(snapshot.metrics.counters[0].1, 42);
//! assert_eq!(snapshot.spans[0].name, "pipeline.verify");
//! obskit::disable();
//! ```
//!
//! Span taxonomy and metric naming conventions are documented in
//! DESIGN.md §7.

pub mod alloc;
pub mod chrome;
pub mod event;
pub mod flame;
pub mod json;
pub mod metrics;
pub mod report;
pub mod span;

pub use event::{Event, EventLog, FieldValue};
pub use metrics::{MetricsSnapshot, Registry};
pub use report::{BenchReport, Requirements};
pub use span::{SpanNode, SpanRecord};

use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

/// Whether the global recorder is on. Relaxed is enough: a lost race
/// around enable/disable only drops or keeps a stray measurement.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether `progress!` lines also reach stderr (the human sink).
static CONSOLE: AtomicBool = AtomicBool::new(true);

/// Microsecond timestamp (since process anchor) of the last `enable()`.
static ENABLED_AT_US: AtomicU64 = AtomicU64::new(0);

struct Global {
    registry: Registry,
    spans: Mutex<span::Tree>,
    events: EventLog,
    /// Human-readable names for trace threads, one per trace id.
    thread_names: Mutex<Vec<NamedTrack>>,
}

/// A named trace id. `live` while a running thread holds the id; once
/// that thread exits, a later thread taking the same name reuses it.
struct NamedTrack {
    tid: u64,
    name: String,
    live: bool,
}

fn named_tracks() -> std::sync::MutexGuard<'static, Vec<NamedTrack>> {
    match global().thread_names.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// The span tree. Held only for a find-or-insert or a close.
fn tree() -> std::sync::MutexGuard<'static, span::Tree> {
    match global().spans.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

static GLOBAL: OnceLock<Global> = OnceLock::new();

fn global() -> &'static Global {
    GLOBAL.get_or_init(|| Global {
        registry: Registry::new(),
        spans: Mutex::new(span::Tree::default()),
        events: EventLog::default(),
        thread_names: Mutex::new(Vec::new()),
    })
}

/// Monotonic process time anchor for all timestamps.
fn anchor() -> Instant {
    static ANCHOR: OnceLock<Instant> = OnceLock::new();
    *ANCHOR.get_or_init(Instant::now)
}

/// Microseconds since the process anchor.
pub(crate) fn now_us() -> u64 {
    anchor().elapsed().as_micros() as u64
}

thread_local! {
    /// This thread's trace id, `u64::MAX` until first use. Settable, so
    /// [`set_thread_name`] can hand a thread the id of an exited namesake.
    static THREAD_ID: Cell<u64> = const { Cell::new(u64::MAX) };
}

/// Frees the named track this thread holds (its id, `u64::MAX` if none)
/// when the thread exits.
struct TrackRelease(Cell<u64>);

impl Drop for TrackRelease {
    fn drop(&mut self) {
        let tid = self.0.get();
        if tid == u64::MAX {
            return;
        }
        if let Some(track) = named_tracks().iter_mut().find(|t| t.tid == tid) {
            track.live = false;
        }
    }
}

thread_local! {
    static TRACK: TrackRelease = const { TrackRelease(Cell::new(u64::MAX)) };
}

/// Dense per-thread id (0, 1, 2, …) for trace attribution.
fn thread_id() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    THREAD_ID.with(|id| {
        if id.get() == u64::MAX {
            id.set(NEXT.fetch_add(1, Ordering::Relaxed));
        }
        id.get()
    })
}

thread_local! {
    /// Tree nodes of the spans open on this thread, outermost first.
    static SPAN_STACK: RefCell<Vec<u32>> = const { RefCell::new(Vec::new()) };
    /// The innermost open span's node on this thread, mirrored out of
    /// `SPAN_STACK` into a plain `Cell` so the tracking allocator can
    /// read it mid-allocation (the `RefCell` may legitimately be
    /// borrowed while its `Vec` reallocates, which *is* an allocation).
    /// `u32::MAX` = no open span.
    static CURRENT_SPAN: Cell<u32> = const { Cell::new(u32::MAX) };
}

/// Tree node of the innermost open span on this thread, for allocation
/// attribution.
/// `try_with` so allocations during thread teardown degrade to
/// unattributed instead of aborting.
pub(crate) fn current_span_for_alloc() -> Option<u32> {
    CURRENT_SPAN
        .try_with(|c| {
            let id = c.get();
            (id != u32::MAX).then_some(id)
        })
        .ok()
        .flatten()
}

fn set_current_span(id: Option<u32>) {
    let _ = CURRENT_SPAN.try_with(|c| c.set(id.unwrap_or(u32::MAX)));
}

/// Turns the global recorder on, clearing all previously recorded data.
///
/// Must not be called while spans are open (their nodes would dangle
/// into the cleared tree); binaries call it once at startup.
pub fn enable() {
    let g = global();
    g.registry.clear();
    tree().clear();
    g.events.clear();
    alloc::reset();
    ENABLED_AT_US.store(now_us(), Ordering::Relaxed);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Selects the no-op recorder again. Recorded data stays readable via
/// [`snapshot`] until the next [`enable`].
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
}

/// `true` while the global recorder is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Routes `progress!` lines to stderr (`true`, default) or drops the
/// human-readable copy (`false`); the structured event is kept either way.
pub fn set_console(on: bool) {
    CONSOLE.store(on, Ordering::Relaxed);
}

/// Adds `v` to the global counter `name` (no-op while disabled).
pub fn counter_add(name: &str, v: u64) {
    if enabled() {
        global().registry.counter_add(name, v);
    }
}

/// Sets the global gauge `name` (no-op while disabled).
pub fn gauge_set(name: &str, v: f64) {
    if enabled() {
        global().registry.gauge_set(name, v);
    }
}

/// An RAII guard for one span; the span closes when the guard drops.
#[must_use = "a span measures the scope of its guard; drop closes it"]
#[derive(Debug)]
pub struct Span {
    /// The span's tree node; `None` for a guard that records nothing.
    node: Option<u32>,
    start_us: u64,
}

impl Span {
    /// A guard that records nothing (what [`span`] returns while the
    /// recorder is disabled).
    pub fn noop() -> Span {
        Span {
            node: None,
            start_us: 0,
        }
    }

    /// Captures this span's identity as a [`Handoff`] token that can be
    /// moved into tasks running on other threads. Opening a span there
    /// with [`span_under`] parents it to this span, so fan-out work
    /// aggregates under the stage that spawned it instead of forming
    /// per-worker root spans.
    pub fn handoff(&self) -> Handoff {
        Handoff { parent: self.node }
    }
}

/// A cross-thread span-parentage token; see [`Span::handoff`].
///
/// `Copy` and `Send` on purpose: one token is typically captured by many
/// pool tasks. A token from a disabled recorder (or from [`Span::noop`])
/// degrades gracefully — [`span_under`] then opens an ordinary root span.
#[derive(Debug, Clone, Copy)]
pub struct Handoff {
    parent: Option<u32>,
}

/// Opens a span named `name` whose parent is the span behind `handoff`,
/// even when that span lives on another thread. The new span is pushed
/// onto *this* thread's span stack, so further nested [`span`] calls on
/// this thread chain under it.
pub fn span_under(name: &'static str, handoff: Handoff) -> Span {
    if !enabled() {
        return Span::noop();
    }
    match handoff.parent {
        Some(parent) => open(name, Some(parent)),
        None => span(name),
    }
}

/// Names the current thread for trace attribution (e.g. Chrome-trace
/// track labels). Recorded regardless of whether the recorder is
/// enabled — a thread's identity is not a measurement — and surviving
/// [`enable`]'s data clear, so threads named before `enable()` keep
/// their labels. Last call per thread wins.
///
/// A thread taking the name of a thread that has exited takes over that
/// thread's trace id, so short-lived threads that fill the same role one
/// after another (parkit's per-call helpers) share one trace track.
/// Threads alive at the same time never share an id: a name taken while
/// its earlier holder still runs gets a fresh id and a second entry. An
/// id is freed when its thread's thread-locals are destroyed, which
/// `JoinHandle::join` waits for. Call it before the thread opens spans.
pub fn set_thread_name(name: &str) {
    let mut tracks = named_tracks();
    let held = TRACK.with(|t| t.0.get());
    if let Some(track) = tracks.iter_mut().find(|t| t.tid == held) {
        track.name = name.to_owned();
        return;
    }
    let tid = match tracks.iter_mut().find(|t| !t.live && t.name == name) {
        Some(track) => {
            track.live = true;
            THREAD_ID.with(|id| id.set(track.tid));
            track.tid
        }
        None => {
            let tid = thread_id();
            tracks.push(NamedTrack {
                tid,
                name: name.to_owned(),
                live: true,
            });
            tid
        }
    };
    TRACK.with(|t| t.0.set(tid));
}

/// Opens a span named `name` on the current thread. While the recorder
/// is disabled this is one atomic load and no allocation.
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span::noop();
    }
    let parent = SPAN_STACK.with(|s| s.borrow().last().copied());
    open(name, parent)
}

/// Resolves the node named `name` under `parent` and pushes it onto this
/// thread's span stack.
fn open(name: &'static str, parent: Option<u32>) -> Span {
    let node = tree().node(parent, name);
    SPAN_STACK.with(|s| s.borrow_mut().push(node));
    set_current_span(Some(node));
    Span {
        node: Some(node),
        start_us: now_us(),
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(node) = self.node else {
            return;
        };
        let dur_us = now_us().saturating_sub(self.start_us);
        tree().close(node, self.start_us, dur_us, thread_id());
        let top = SPAN_STACK.with(|s| {
            let mut s = s.borrow_mut();
            if let Some(pos) = s.iter().rposition(|&open| open == node) {
                s.remove(pos);
            }
            s.last().copied()
        });
        set_current_span(top);
    }
}

/// Records a structured event. Kept only while the recorder and the
/// timeline ([`set_timeline`]) are both on: the Chrome exporter is the
/// events' one reader, so a run that writes no trace keeps none.
pub fn event(name: &str, fields: Vec<(&str, FieldValue)>) {
    if !enabled() || !tree().keeps_timeline() {
        return;
    }
    global().events.push(Event {
        name: name.to_owned(),
        t_us: now_us(),
        thread: thread_id(),
        fields: fields.into_iter().map(|(k, v)| (k.to_owned(), v)).collect(),
    });
}

/// Implementation of [`progress!`]; prefer the macro.
pub fn progress_args(args: std::fmt::Arguments<'_>) {
    if !enabled() {
        return;
    }
    let msg = args.to_string();
    if CONSOLE.load(Ordering::Relaxed) {
        eprintln!("{msg}");
    }
    if !tree().keeps_timeline() {
        return;
    }
    global().events.push(Event {
        name: "progress".to_owned(),
        t_us: now_us(),
        thread: thread_id(),
        fields: vec![("msg".to_owned(), FieldValue::Str(msg))],
    });
}

/// A progress line: human-readable on stderr (the default console sink)
/// and, while the timeline is on, a structured `progress` event in the
/// log. Replaces the ad-hoc `eprintln!` progress reporting; silent while
/// the recorder is off.
#[macro_export]
macro_rules! progress {
    ($($arg:tt)*) => {
        $crate::progress_args(::core::format_args!($($arg)*))
    };
}

/// Everything the global recorder has collected.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Wall-clock milliseconds since the last [`enable`].
    pub wall_ms: f64,
    /// All metric values.
    pub metrics: MetricsSnapshot,
    /// The aggregated span-timing forest (spans still open contribute
    /// nothing until they close).
    pub spans: Vec<SpanNode>,
    /// The structured events recorded while the timeline was on.
    pub events: Vec<Event>,
    /// Human-readable thread names (`thread id → name`), in
    /// registration order.
    pub thread_names: Vec<(u64, String)>,
    /// Process-wide allocation totals, when the tracking allocator was
    /// on at any point since [`enable`].
    pub alloc: Option<alloc::AllocTotals>,
}

/// Snapshots the global recorder (readable whether or not it is still
/// enabled).
pub fn snapshot() -> Snapshot {
    let g = global();
    let now = now_us();
    let mut metrics = g.registry.snapshot();
    // Fold allocation data in: per-node attribution onto the span tree,
    // totals as `alloc.*` metrics so reports, requirements and the perf
    // gate see them like any other metric.
    let alloc = alloc::tracked_any().then(alloc::totals);
    let per_node = match &alloc {
        Some(totals) => {
            metrics.counters.extend([
                ("alloc.allocs".to_owned(), totals.allocs),
                ("alloc.bytes_allocated".to_owned(), totals.bytes_allocated),
                ("alloc.bytes_freed".to_owned(), totals.bytes_freed),
                ("alloc.frees".to_owned(), totals.frees),
            ]);
            metrics.counters.sort();
            metrics.gauges.extend([
                (
                    "alloc.current_bytes".to_owned(),
                    totals.current_bytes as f64,
                ),
                ("alloc.peak_bytes".to_owned(), totals.peak_bytes as f64),
            ]);
            metrics.gauges.sort_by(|a, b| a.0.cmp(&b.0));
            alloc::per_span()
        }
        None => Vec::new(),
    };
    let spans = tree().forest(&per_node);
    Snapshot {
        wall_ms: now.saturating_sub(ENABLED_AT_US.load(Ordering::Relaxed)) as f64 / 1e3,
        metrics,
        spans,
        events: g.events.snapshot(),
        thread_names: named_tracks()
            .iter()
            .map(|t| (t.tid, t.name.clone()))
            .collect(),
        alloc,
    }
}

/// The spans closed since the last [`enable`] while the timeline was on
/// ([`set_timeline`]), in close order — the Chrome exporter's input
/// ([`chrome::chrome_trace`]).
pub fn timeline() -> Vec<SpanRecord> {
    tree().timeline()
}

/// Turns the span timeline on or off. Off (the default), a closing span
/// only folds into the aggregate tree and [`event`] and [`progress!`]
/// keep no [`Event`]; on, each close also appends one [`SpanRecord`]
/// and each event is logged, so both grow with the run. Only a Chrome
/// trace reads them, so a binary turns it on when a trace was asked for,
/// as it turns on [`alloc::set_tracking`] for allocation accounting.
/// The setting survives [`enable`].
pub fn set_timeline(on: bool) {
    tree().set_timeline(on);
}
