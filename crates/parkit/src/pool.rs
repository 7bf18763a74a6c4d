//! The pool: a resolved thread count and the deterministic `map` join.

use std::panic::resume_unwind;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a requested thread count to an effective one:
///
/// 1. an explicit `requested > 0` wins;
/// 2. else the `PARKIT_THREADS` environment variable, if set and positive;
/// 3. else [`std::thread::available_parallelism`] (1 if unknown).
pub fn resolve_threads(requested: usize) -> usize {
    if requested > 0 {
        return requested;
    }
    if let Some(n) = std::env::var("PARKIT_THREADS")
        .ok()
        .and_then(|v| v.parse::<usize>().ok())
        .filter(|&n| n > 0)
    {
        return n;
    }
    std::thread::available_parallelism()
        .map(std::num::NonZeroUsize::get)
        .unwrap_or(1)
}

/// A fixed degree of parallelism for [`ThreadPool::map`].
///
/// `threads` counts the calling thread: a `map` over `n` threads spawns
/// `n - 1` scoped helpers and the caller works alongside them. Every
/// helper is joined before `map` returns, so no thread outlives a call
/// and the pool itself holds no threads. A pool of one thread runs the
/// sequential loop on the caller — the case the determinism contract is
/// anchored to.
#[derive(Debug)]
pub struct ThreadPool {
    threads: usize,
}

impl ThreadPool {
    /// A pool with exactly `threads` threads of parallelism (counting
    /// the caller). `threads` of 0 is treated as 1.
    pub fn new(threads: usize) -> ThreadPool {
        ThreadPool {
            threads: threads.max(1),
        }
    }

    /// [`ThreadPool::new`] over [`resolve_threads`]\(`requested`\):
    /// explicit request, else `PARKIT_THREADS`, else the machine.
    pub fn with_threads(requested: usize) -> ThreadPool {
        ThreadPool::new(resolve_threads(requested))
    }

    /// The pool's parallelism (helpers + the working caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every item and returns the results **in item
    /// order**, regardless of which thread computed what — the
    /// deterministic join the pipeline's reproducibility contract relies
    /// on. With one thread or at most one item this is exactly the
    /// sequential loop. Otherwise the caller and `min(threads, items) - 1`
    /// scoped helpers claim item indices from one shared counter, so a
    /// slow item never holds up the rest.
    ///
    /// # Panics
    ///
    /// Re-raises a panic from an invocation of `f` with its original
    /// payload, after every helper has stopped.
    pub fn map<T, U, F>(&self, items: &[T], f: F) -> Vec<U>
    where
        T: Sync,
        U: Send,
        F: Fn(usize, &T) -> U + Sync,
    {
        obskit::counter_add("pool.tasks", items.len() as u64);
        let width = self.threads.min(items.len());
        if width <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        // Claims item indices until none are left. The counter publishes
        // no data (results travel through the joins), so `Relaxed` suffices.
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    return done;
                };
                done.push((i, f(i, item)));
            }
        };
        // A panic on the caller propagates from `scope` after it joins the
        // helpers; a helper's panic is re-raised here from its join.
        let mut done = std::thread::scope(|s| {
            let helpers: Vec<_> = (0..width - 1)
                .map(|k| {
                    let work = &work;
                    std::thread::Builder::new()
                        .name(format!("parkit-worker-{k}"))
                        .spawn_scoped(s, move || {
                            obskit::set_thread_name(&format!("parkit-worker-{k}"));
                            work()
                        })
                        .unwrap_or_else(|e| panic!("spawning parkit worker {k} failed: {e}"))
                })
                .collect();
            let mut done = work();
            for helper in helpers {
                match helper.join() {
                    Ok(part) => done.extend(part),
                    Err(payload) => resume_unwind(payload),
                }
            }
            done
        });
        // Every index was claimed exactly once, so sorting restores item order.
        done.sort_by_key(|&(i, _)| i);
        done.into_iter().map(|(_, value)| value).collect()
    }
}
