//! Flight recorder: a bounded ring of periodic metric samples plus a
//! panic hook that dumps the black box.
//!
//! Long-running processes (the planned DPO-AF server, multi-hour bench
//! sweeps) need two things a final-snapshot report cannot give: how
//! metrics *evolved* over the run, and what the process was doing when
//! it died. The flight recorder covers both with zero background
//! threads: instrumented code calls [`tick`] at natural beats (pipeline
//! iterations, training epochs, scored batches) and the recorder keeps
//! a sample — every counter and gauge, timestamped — whenever
//! [`DEFAULT_MIN_INTERVAL_US`] has elapsed, in a ring of
//! [`DEFAULT_CAPACITY`] samples that forgets the oldest sample first.
//! The samples surface as counter/gauge tracks in the Chrome trace and
//! as the `samples` field of [`crate::Snapshot`].
//!
//! [`install_panic_hook`] chains a hook that, on panic with the
//! recorder enabled, writes a JSON black box to stderr: the panic
//! message and location, the panicking thread's open span stack, the
//! ring of recent samples, and the final metric values. The previous
//! hook runs afterwards, so default backtraces are preserved.

use crate::json::Value;
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

/// One timestamped metric sample.
#[derive(Debug, Clone, PartialEq)]
pub struct FlightSample {
    /// Microseconds since the process time anchor.
    pub t_us: u64,
    /// Counter values at sample time, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values at sample time, sorted by name.
    pub gauges: Vec<(String, f64)>,
}

/// Ring capacity (samples kept).
pub const DEFAULT_CAPACITY: usize = 240;
/// Minimum microseconds between samples kept by [`tick`].
pub const DEFAULT_MIN_INTERVAL_US: u64 = 250_000;

static RING: Mutex<VecDeque<FlightSample>> = Mutex::new(VecDeque::new());
static LAST_SAMPLE_US: AtomicU64 = AtomicU64::new(0);
static HOOK_INSTALLED: AtomicBool = AtomicBool::new(false);

fn ring() -> std::sync::MutexGuard<'static, VecDeque<FlightSample>> {
    match RING.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Drops all samples and resets the throttle (called by
/// [`crate::enable`]).
pub fn clear() {
    ring().clear();
    LAST_SAMPLE_US.store(0, Ordering::Relaxed);
}

/// Offers the recorder a sampling opportunity. Cheap to call from hot
/// beats: while the global recorder is off, or before the minimum
/// interval has elapsed, this is a couple of relaxed loads. Otherwise
/// one metrics snapshot is pushed into the ring (evicting the oldest
/// sample when full).
pub fn tick() {
    if !crate::enabled() {
        return;
    }
    let now = crate::now_us();
    let last = LAST_SAMPLE_US.load(Ordering::Relaxed);
    if now.saturating_sub(last) < DEFAULT_MIN_INTERVAL_US && last != 0 {
        return;
    }
    // A racing tick may double-sample; harmless for telemetry.
    LAST_SAMPLE_US.store(now, Ordering::Relaxed);
    force_tick();
}

/// Takes a sample unconditionally (recorder permitting) — stage
/// boundaries use this so the ring always has the interesting edges.
pub fn force_tick() {
    if !crate::enabled() {
        return;
    }
    let mut metrics = crate::global_registry_snapshot();
    // Fold live allocation totals in under the same `alloc.*` names the
    // final snapshot uses, so the Chrome trace grows heap/churn tracks
    // whenever tracking is on.
    if crate::alloc::tracked_any() {
        crate::fold_alloc_metrics(&mut metrics, &crate::alloc::totals());
    }
    let sample = FlightSample {
        t_us: crate::now_us(),
        counters: metrics.counters,
        gauges: metrics.gauges,
    };
    push_bounded(&mut ring(), sample);
}

/// Appends `sample`, evicting the oldest samples so at most
/// [`DEFAULT_CAPACITY`] remain.
fn push_bounded(ring: &mut VecDeque<FlightSample>, sample: FlightSample) {
    while ring.len() >= DEFAULT_CAPACITY {
        ring.pop_front();
    }
    ring.push_back(sample);
}

/// A copy of the ring, oldest sample first.
pub fn samples() -> Vec<FlightSample> {
    ring().iter().cloned().collect()
}

/// The black-box JSON document the panic hook dumps.
fn black_box(panic_msg: &str, location: &str) -> Value {
    let metrics = crate::global_registry_snapshot();
    let samples: Vec<Value> = samples()
        .iter()
        .map(|s| {
            Value::Obj(vec![
                ("t_us".into(), Value::Num(s.t_us as f64)),
                (
                    "counters".into(),
                    Value::Obj(
                        s.counters
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                            .collect(),
                    ),
                ),
                (
                    "gauges".into(),
                    Value::Obj(
                        s.gauges
                            .iter()
                            .map(|(k, v)| (k.clone(), Value::Num(*v)))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Value::Obj(vec![
        ("schema".into(), Value::Str("obskit.flight.v1".into())),
        ("panic".into(), Value::Str(panic_msg.into())),
        ("location".into(), Value::Str(location.into())),
        (
            "span_stack".into(),
            Value::Arr(
                crate::current_span_stack()
                    .into_iter()
                    .map(Value::Str)
                    .collect(),
            ),
        ),
        ("samples".into(), Value::Arr(samples)),
        (
            "counters".into(),
            Value::Obj(
                metrics
                    .counters
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v as f64)))
                    .collect(),
            ),
        ),
        (
            "gauges".into(),
            Value::Obj(
                metrics
                    .gauges
                    .iter()
                    .map(|(k, v)| (k.clone(), Value::Num(*v)))
                    .collect(),
            ),
        ),
    ])
}

/// Renders the black box for the given panic payload — separated from
/// the hook so tests can exercise the dump without panicking.
pub fn render_black_box(panic_msg: &str, location: &str) -> String {
    black_box(panic_msg, location).to_json_pretty()
}

/// Installs the flight-recorder panic hook (idempotent). The hook only
/// acts while the global recorder is enabled, so test binaries and
/// library users who never record see stock panic behavior.
pub fn install_panic_hook() {
    if HOOK_INSTALLED.swap(true, Ordering::SeqCst) {
        return;
    }
    let previous = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        if crate::enabled() {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| (*s).to_owned())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "<non-string panic payload>".to_owned());
            let location = info
                .location()
                .map(|l| format!("{}:{}:{}", l.file(), l.line(), l.column()))
                .unwrap_or_else(|| "<unknown>".to_owned());
            let dump = render_black_box(&msg, &location);
            eprintln!("== obskit flight recorder (panic black box) ==\n{dump}");
        }
        previous(info);
    }));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Ring mechanics without the global recorder: capacity bound and
    /// eviction order (FIFO) are pure data-structure behavior, tested
    /// on a local ring through the same push `force_tick` uses.
    #[test]
    fn ring_is_bounded_fifo() {
        let mut ring = VecDeque::new();
        for i in 0..DEFAULT_CAPACITY as u64 + 2 {
            push_bounded(
                &mut ring,
                FlightSample {
                    t_us: i,
                    counters: Vec::new(),
                    gauges: Vec::new(),
                },
            );
        }
        let kept: Vec<u64> = ring.iter().map(|s| s.t_us).collect();
        let expected: Vec<u64> = (2..DEFAULT_CAPACITY as u64 + 2).collect();
        assert_eq!(kept, expected);
    }

    #[test]
    fn tick_is_a_noop_while_disabled() {
        // The global recorder is off during unit tests; tick must not
        // record anything.
        clear();
        tick();
        force_tick();
        assert!(samples().is_empty());
    }

    #[test]
    fn black_box_renders_valid_json() {
        let dump = render_black_box("boom", "src/lib.rs:1:1");
        let doc = crate::json::parse(&dump).expect("dump parses");
        assert_eq!(
            doc.get("schema").and_then(Value::as_str),
            Some("obskit.flight.v1")
        );
        assert_eq!(doc.get("panic").and_then(Value::as_str), Some("boom"));
        assert!(doc.get("span_stack").and_then(Value::as_arr).is_some());
        assert!(doc.get("samples").and_then(Value::as_arr).is_some());
    }
}
