//! Thread-safe metrics: counters and gauges behind a name-keyed
//! [`Registry`].
//!
//! Each metric is one relaxed atomic; the registry takes a read lock per
//! name lookup and a write lock only to insert a new name. Naming
//! convention: `<crate>.<noun>` in `snake_case`, e.g.
//! `ltlcheck.product_states`, `pipeline.pairs_formed` (see DESIGN.md §7).

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockReadGuard, RwLockWriteGuard};

/// Point-in-time view of a whole [`Registry`], with stable (sorted)
/// iteration order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values by name.
    pub gauges: Vec<(String, f64)>,
}

/// A name-keyed collection of monotone counters and last-value-wins
/// gauges (a gauge holds its `f64` as bits).
#[derive(Debug, Default)]
pub struct Registry {
    counters: RwLock<HashMap<String, AtomicU64>>,
    gauges: RwLock<HashMap<String, AtomicU64>>,
}

/// Lock helper: a poisoned metrics lock only means another thread
/// panicked mid-insert; the map itself is still structurally sound, so
/// recover the guard rather than propagating the poison.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    match lock.read() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    match lock.write() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

/// Applies `f` to the atomic named `name`, inserting a zero first if the
/// name is new.
fn with_slot(map: &RwLock<HashMap<String, AtomicU64>>, name: &str, f: impl Fn(&AtomicU64)) {
    if let Some(slot) = read(map).get(name) {
        return f(slot);
    }
    f(write(map).entry(name.to_owned()).or_default());
}

/// The entries of `map`, read with `f` and sorted by name.
fn sorted<T>(map: &RwLock<HashMap<String, AtomicU64>>, f: impl Fn(u64) -> T) -> Vec<(String, T)> {
    let mut entries: Vec<(String, T)> = read(map)
        .iter()
        .map(|(k, v)| (k.clone(), f(v.load(Ordering::Relaxed))))
        .collect();
    entries.sort_by(|a, b| a.0.cmp(&b.0));
    entries
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Registry::default()
    }

    /// Adds `v` to the counter `name`, created on first use.
    pub fn counter_add(&self, name: &str, v: u64) {
        with_slot(&self.counters, name, |c| {
            c.fetch_add(v, Ordering::Relaxed);
        });
    }

    /// Sets the gauge `name`, created on first use.
    pub fn gauge_set(&self, name: &str, v: f64) {
        with_slot(&self.gauges, name, |g| {
            g.store(v.to_bits(), Ordering::Relaxed);
        });
    }

    /// Snapshots every metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        MetricsSnapshot {
            counters: sorted(&self.counters, |v| v),
            gauges: sorted(&self.gauges, f64::from_bits),
        }
    }

    /// Drops every metric (names and values).
    pub fn clear(&self) {
        write(&self.counters).clear();
        write(&self.gauges).clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_read_back() {
        let r = Registry::new();
        r.counter_add("a", 2);
        r.counter_add("a", 3);
        r.gauge_set("g", 1.25);
        let snap = r.snapshot();
        assert_eq!(snap.counters, vec![("a".to_owned(), 5)]);
        assert_eq!(snap.gauges, vec![("g".to_owned(), 1.25)]);
    }

    #[test]
    fn clear_forgets_names() {
        let r = Registry::new();
        r.counter_add("x", 1);
        r.gauge_set("g", 2.0);
        r.clear();
        assert_eq!(r.snapshot(), MetricsSnapshot::default());
    }

    #[test]
    fn registry_is_thread_safe_under_parallel_increments() {
        let r = Registry::new();
        const THREADS: u64 = 8;
        const PER_THREAD: u64 = 10_000;
        std::thread::scope(|scope| {
            for _ in 0..THREADS {
                let r = &r;
                scope.spawn(move || {
                    for _ in 0..PER_THREAD {
                        r.counter_add("named", 1);
                    }
                });
            }
        });
        assert_eq!(
            r.snapshot().counters,
            vec![("named".to_owned(), THREADS * PER_THREAD)]
        );
    }
}
