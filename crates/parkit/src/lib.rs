//! # parkit — index-ordered parallel map for DPO-AF
//!
//! DPO-AF's parallel work is always a flat batch of independent items:
//! the formal score of each sampled response, and the per-pair DPO
//! gradients of a minibatch. `parkit` serves exactly that shape:
//!
//! * **One fan-out.** [`ThreadPool::map`] opens one
//!   [`std::thread::scope`], spawns `n - 1` helpers and works alongside
//!   them; every thread claims the next item index from one shared
//!   counter, so uneven item costs balance themselves. Every helper is
//!   joined before `map` returns, so no parkit thread outlives a call.
//! * **Deterministic joins.** Results come back **in item order**. Runs
//!   are byte-identical at 1 or N threads as long as the mapped function
//!   is itself deterministic per item — the pipeline's reproducibility
//!   contract (DESIGN.md §8). A 1-thread pool is exactly the sequential
//!   loop.
//! * **Panic propagation.** A panic in any invocation is re-raised from
//!   `map` with its original payload, never swallowed on a helper.
//!
//! Thread-count resolution ([`resolve_threads`]): explicit config >
//! `PARKIT_THREADS` environment variable > available parallelism.
//!
//! `map` feeds the `obskit` counter `pool.tasks` (items mapped, once
//! each at every width) and names helper `k` `parkit-worker-k` in
//! Chrome traces, so each helper slot keeps one track across calls.
//!
//! [`ShardedMap`] is the sharded, bounded LRU map behind the verdict
//! memo-cache; its interleavings are model-checked with conckit
//! (`models`, under the `model` feature).

#![warn(missing_docs)]
#![forbid(unsafe_code)]

#[cfg(feature = "model")]
pub mod models;
mod pool;
mod shard;

pub use pool::{resolve_threads, ThreadPool};
pub use shard::{InsertOutcome, ShardedMap};

#[cfg(test)]
mod tests {
    // ALLOW: test-only panics are the assertion mechanism.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::{Barrier, Mutex};

    #[test]
    fn map_returns_results_in_item_order() {
        let pool = ThreadPool::new(4);
        let items: Vec<usize> = (0..64).collect();
        let out = pool.map(&items, |i, &x| {
            // Stagger completion order so out-of-order finishes would
            // scramble a naive join.
            if i % 7 == 0 {
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
            x * x
        });
        let expect: Vec<usize> = items.iter().map(|&x| x * x).collect();
        assert_eq!(out, expect);
    }

    /// Determinism across pool widths with a task that actively invites
    /// interleaving: the index-ordered join must erase scheduling.
    #[test]
    fn map_deterministic_across_widths_under_yielding() {
        let items: Vec<u64> = (0..48).collect();
        let f = |i: usize, &x: &u64| {
            std::thread::yield_now();
            x.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (i as u64)
        };
        let expect: Vec<u64> = items.iter().enumerate().map(|(i, x)| f(i, x)).collect();
        for width in [1usize, 2, 4] {
            let pool = ThreadPool::new(width);
            assert_eq!(pool.map(&items, f), expect, "width {width}");
        }
    }

    #[test]
    fn map_on_one_thread_equals_map_on_many() {
        let serial = ThreadPool::new(1);
        let parallel = ThreadPool::new(8);
        let items: Vec<u64> = (0..200).collect();
        let f = |_: usize, &x: &u64| x.wrapping_mul(2654435761).rotate_left(13);
        assert_eq!(serial.map(&items, f), parallel.map(&items, f));
    }

    /// Contention torture: many more items than threads, and every item
    /// is mapped exactly once.
    #[test]
    fn map_runs_every_item_exactly_once() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        let n = 5_000;
        let items: Vec<usize> = (0..n).collect();
        let out = pool.map(&items, |i, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            sum.fetch_add(x, Ordering::Relaxed);
            i
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
        assert_eq!(out, items);
    }

    #[test]
    fn map_propagates_panic_payload() {
        for threads in [1, 2, 3] {
            let pool = ThreadPool::new(threads);
            let items: Vec<u32> = (0..20).collect();
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                pool.map(&items, |_, &x| {
                    assert!(x != 11, "item 11 exploded");
                    x
                })
            }));
            let payload = result.expect_err("panic must cross map");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .unwrap_or("");
            assert!(msg.contains("item 11 exploded"), "payload: {msg}");
        }
    }

    #[test]
    fn nested_map_inside_map() {
        let pool = ThreadPool::new(4);
        let rows: Vec<usize> = (0..8).collect();
        let out = pool.map(&rows, |_, &r| {
            let cols: Vec<usize> = (0..6).collect();
            pool.map(&cols, |_, &c| r * 10 + c)
        });
        for (r, row) in out.iter().enumerate() {
            let expect: Vec<usize> = (0..6).map(|c| r * 10 + c).collect();
            assert_eq!(row, &expect);
        }
    }

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn one_thread_map_runs_inline_in_item_order() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let caller = std::thread::current().id();
        let order = Mutex::new(Vec::new());
        pool.map(&[(); 10], |i, _| {
            assert_eq!(std::thread::current().id(), caller);
            order.lock().unwrap().push(i);
        });
        assert_eq!(order.into_inner().unwrap(), (0..10).collect::<Vec<_>>());
    }

    /// Every helper has exited when `map` returns: a thread-local
    /// destructor runs on thread exit, and both helpers' have run. The
    /// barrier makes each of the three threads take one of the first
    /// three items.
    #[test]
    fn helpers_exit_before_map_returns() {
        static EXITED: AtomicUsize = AtomicUsize::new(0);
        struct OnExit;
        impl Drop for OnExit {
            fn drop(&mut self) {
                EXITED.fetch_add(1, Ordering::SeqCst);
            }
        }
        thread_local! {
            static ON_EXIT: OnExit = const { OnExit };
        }
        let caller = std::thread::current().id();
        let barrier = Barrier::new(3);
        ThreadPool::new(3).map(&[(); 64], |i, _| {
            if i < 3 {
                barrier.wait();
            }
            if std::thread::current().id() != caller {
                ON_EXIT.with(|_| {});
            }
        });
        assert_eq!(EXITED.load(Ordering::SeqCst), 2);
    }
}
