//! # parkit — a zero-dependency work-stealing thread pool
//!
//! The DPO-AF feedback loop spends almost all of its wall clock on
//! per-response formal verification — pure, independent work units that
//! repeat thousands of times per run. `parkit` is the workspace's
//! parallel substrate for exactly that shape of work:
//!
//! * **Work stealing.** Each worker owns a deque (owner LIFO at the
//!   bottom, thieves FIFO at the top — the Chase–Lev discipline, see
//!   [`mod@deque`] for why the buffer itself is lock-based) plus a global
//!   injector for tasks spawned from outside the pool. Idle workers
//!   steal, so uneven verification costs balance themselves.
//! * **Scoped spawning.** [`ThreadPool::scope`] lets tasks borrow from
//!   the enclosing stack frame; the scope cannot be exited until every
//!   task has finished, which is what makes the lifetime erasure sound.
//! * **Deterministic joins.** [`ThreadPool::map`] writes results into
//!   per-index slots and hands them back **in item order**. Runs are
//!   byte-identical at 1 or N threads as long as the mapped function is
//!   itself deterministic per item — the pipeline's reproducibility
//!   contract (DESIGN.md §8).
//! * **Panic propagation.** The first panic from any task is re-raised
//!   from the scope (after all tasks finish), never swallowed on a
//!   worker.
//! * **Caller participation.** A pool of `n` threads spawns `n - 1`
//!   workers; the scope owner helps execute tasks while it waits. A
//!   1-thread pool is exactly the sequential loop.
//!
//! Thread-count resolution ([`resolve_threads`]): explicit config >
//! `PARKIT_THREADS` environment variable > available parallelism.
//!
//! The pool feeds two `obskit` counters: `pool.tasks` (tasks spawned)
//! and `pool.steals` (tasks taken from another worker's deque), and
//! names its workers (`parkit-worker-N`) in Chrome traces.

#![warn(missing_docs)]

mod deque;
#[cfg(feature = "model")]
pub mod models;
mod pool;
mod shard;

pub use pool::{resolve_threads, Scope, ThreadPool};
pub use shard::{InsertOutcome, ShardedMap};

#[cfg(test)]
mod tests {
    // ALLOW: test-only panics are the assertion mechanism.
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

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

    /// Contention torture: many more tasks than threads, every task
    /// runs exactly once, and the scope owner's borrows survive.
    #[test]
    fn steal_correctness_under_contention() {
        let pool = ThreadPool::new(4);
        let hits = AtomicUsize::new(0);
        let sum = AtomicUsize::new(0);
        let n = 5_000;
        pool.scope(|s| {
            for i in 0..n {
                let hits = &hits;
                let sum = &sum;
                s.spawn(move || {
                    hits.fetch_add(1, Ordering::Relaxed);
                    sum.fetch_add(i, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(hits.load(Ordering::Relaxed), n);
        assert_eq!(sum.load(Ordering::Relaxed), n * (n - 1) / 2);
    }

    #[test]
    fn scope_propagates_task_panic() {
        let pool = ThreadPool::new(3);
        let completed = AtomicUsize::new(0);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                for i in 0..20 {
                    let completed = &completed;
                    s.spawn(move || {
                        if i == 11 {
                            panic!("task 11 exploded");
                        }
                        completed.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        let payload = result.expect_err("panic must cross the scope");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .unwrap_or("");
        assert!(msg.contains("task 11 exploded"), "payload: {msg}");
        // Every non-panicking task still ran before the panic surfaced.
        assert_eq!(completed.load(Ordering::Relaxed), 19);
    }

    #[test]
    fn map_propagates_panic_too() {
        let pool = ThreadPool::new(2);
        let items = [1u32, 2, 3];
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, |_, &x| {
                assert!(x != 2, "poisoned item");
                x
            })
        }));
        assert!(result.is_err());
    }

    /// A task may open a scope of its own on the same pool (the shape a
    /// nested fan-out produces). The inner scope's tasks
    /// run on the already-busy pool without deadlocking.
    #[test]
    fn nested_scopes_on_the_same_pool() {
        let pool = ThreadPool::new(3);
        let log = Mutex::new(Vec::new());
        let pool_ref = &pool;
        pool.scope(|s| {
            for outer in 0..4 {
                let log = &log;
                let pool = pool_ref;
                s.spawn(move || {
                    let inner: Vec<usize> = pool.map(&[10usize, 20, 30], |_, &x| x + outer);
                    if let Ok(mut l) = log.lock() {
                        l.push((outer, inner));
                    }
                });
            }
        });
        let mut entries = log.into_inner().unwrap_or_else(|p| p.into_inner());
        entries.sort();
        assert_eq!(entries.len(), 4);
        for (outer, inner) in entries {
            assert_eq!(inner, vec![10 + outer, 20 + outer, 30 + outer]);
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
    fn scope_returns_closure_value() {
        let pool = ThreadPool::new(2);
        let v = pool.scope(|s| {
            s.spawn(|| {});
            41 + 1
        });
        assert_eq!(v, 42);
    }

    #[test]
    fn resolve_prefers_explicit_request() {
        assert_eq!(resolve_threads(3), 3);
        assert!(resolve_threads(0) >= 1);
    }

    #[test]
    fn one_thread_pool_runs_inline_in_spawn_order() {
        let pool = ThreadPool::new(1);
        assert_eq!(pool.threads(), 1);
        let order = Mutex::new(Vec::new());
        pool.scope(|s| {
            for i in 0..10 {
                let order = &order;
                s.spawn(move || {
                    if let Ok(mut o) = order.lock() {
                        o.push(i);
                    }
                });
            }
        });
        let order = order.into_inner().unwrap_or_else(|p| p.into_inner());
        assert_eq!(order, (0..10).collect::<Vec<_>>());
    }

    /// Dropping a pool joins its workers; a fresh pool per iteration
    /// must not leak threads or wedge.
    #[test]
    fn pools_shut_down_cleanly() {
        for threads in 1..=4 {
            let pool = ThreadPool::new(threads);
            let n = AtomicUsize::new(0);
            pool.scope(|s| {
                for _ in 0..50 {
                    let n = &n;
                    s.spawn(move || {
                        n.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
            assert_eq!(n.load(Ordering::Relaxed), 50);
            drop(pool);
        }
    }
}
