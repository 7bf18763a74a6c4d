//! Synchronization shim: `std::sync` re-exports in normal builds, model
//! wrappers under the `model` feature.
//!
//! Code written against `conckit::sync` compiles to the real `std`
//! types (zero overhead, byte-for-byte the same API) unless the `model`
//! feature is on. With the feature, each type wraps its `std`
//! counterpart plus a lazily assigned model-object id; operations
//! declare themselves at a scheduler yield point first, then fall
//! through to the real primitive — which, because the scheduler admits
//! one runnable thread at a time, never actually contends. Outside an
//! active model execution (no thread-local execution installed) every
//! operation passes straight through to `std`, so `model`-built crates
//! still behave normally in ordinary tests.
//!
//! Model-build semantic deviations, all deliberate:
//!
//! * **Poisoning is not modeled** — `lock()` always returns `Ok` inside
//!   a model execution (panics unwind the whole execution as a
//!   violation instead). Outside an execution, real poisoning behaves
//!   as in `std`.
//! * **Atomics are sequentially consistent** — orderings are accepted
//!   and ignored; weak-memory reorderings are out of scope.
//! * **`notify_one` wakes the oldest waiter** (FIFO), a deterministic
//!   refinement of the unspecified `std` choice.

#[cfg(not(feature = "model"))]
pub use std::sync::{Condvar, Mutex, MutexGuard};

// These are accurate under the model too: the model guard reuses
// `std::sync::PoisonError` so downstream poisoning-recovery code
// compiles identically in both builds.
pub use std::sync::{Arc, LockResult, PoisonError};

/// `AtomicUsize` and the `Ordering` enum. Under the model, operations
/// are scheduler yield points executed sequentially consistently.
pub mod atomic {
    pub use std::sync::atomic::Ordering;

    #[cfg(not(feature = "model"))]
    pub use std::sync::atomic::AtomicUsize;

    #[cfg(feature = "model")]
    pub use super::model::AtomicUsize;
}

#[cfg(feature = "model")]
pub use model::{Condvar, Mutex, MutexGuard};

#[cfg(feature = "model")]
mod model {
    use crate::rt::{self, Op};
    use std::sync::atomic::Ordering;
    use std::sync::{LockResult, OnceLock, PoisonError};

    /// Lazily assigns this object's model id (const-constructible so
    /// statics work; the id is allocated at first use, deterministically
    /// under the single-runner discipline).
    #[derive(Debug, Default)]
    struct ObjectId(OnceLock<u64>);

    impl ObjectId {
        const fn new() -> ObjectId {
            ObjectId(OnceLock::new())
        }
        fn get(&self) -> u64 {
            *self.0.get_or_init(rt::new_object_id)
        }
    }

    /// Declares `op` at a scheduler yield point when the calling thread
    /// belongs to an active model execution; no-op otherwise.
    fn yield_op(op_of: impl FnOnce() -> Op) {
        if let Some((exec, me)) = rt::current() {
            exec.yield_op(me, op_of());
        }
    }

    /// A model mutex: `std::sync::Mutex` plus scheduling.
    #[derive(Debug, Default)]
    pub struct Mutex<T: ?Sized> {
        id: ObjectId,
        inner: std::sync::Mutex<T>,
    }

    /// The guard returned by [`Mutex::lock`]; releasing it is a
    /// scheduler yield point.
    #[derive(Debug)]
    pub struct MutexGuard<'a, T: ?Sized> {
        mutex: &'a Mutex<T>,
        // `Option` so `Condvar::wait` and `Drop` can release the real
        // guard before declaring the model unlock.
        guard: Option<std::sync::MutexGuard<'a, T>>,
    }

    impl<T> Mutex<T> {
        /// Creates a new model mutex.
        pub const fn new(value: T) -> Mutex<T> {
            Mutex {
                id: ObjectId::new(),
                inner: std::sync::Mutex::new(value),
            }
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    impl<T: ?Sized> Mutex<T> {
        /// Acquires the mutex. A scheduler yield point: the model
        /// explores every admissible acquisition order.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            if rt::current().is_some() {
                yield_op(|| Op::Lock(self.id.get()));
                // The scheduler guarantees the model holder is unique,
                // so the real lock is uncontended — unless the execution
                // is tearing down, in which case blocking on the real
                // lock is still correct (the holder is unwinding).
                let guard = match self.inner.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                Ok(MutexGuard {
                    mutex: self,
                    guard: Some(guard),
                })
            } else {
                match self.inner.lock() {
                    Ok(g) => Ok(MutexGuard {
                        mutex: self,
                        guard: Some(g),
                    }),
                    Err(poisoned) => Err(PoisonError::new(MutexGuard {
                        mutex: self,
                        guard: Some(poisoned.into_inner()),
                    })),
                }
            }
        }
    }

    impl<'a, T: ?Sized> MutexGuard<'a, T> {
        fn real(&self) -> &std::sync::MutexGuard<'a, T> {
            self.guard
                .as_ref()
                .unwrap_or_else(|| unreachable!("guard accessed after release"))
        }
        fn real_mut(&mut self) -> &mut std::sync::MutexGuard<'a, T> {
            self.guard
                .as_mut()
                .unwrap_or_else(|| unreachable!("guard accessed after release"))
        }
    }

    impl<T: ?Sized> std::ops::Deref for MutexGuard<'_, T> {
        type Target = T;
        fn deref(&self) -> &T {
            self.real()
        }
    }

    impl<T: ?Sized> std::ops::DerefMut for MutexGuard<'_, T> {
        fn deref_mut(&mut self) -> &mut T {
            self.real_mut()
        }
    }

    impl<T: ?Sized> Drop for MutexGuard<'_, T> {
        fn drop(&mut self) {
            // Release the real lock first, then declare the model
            // unlock; nobody else can run in between (we hold the turn).
            self.guard = None;
            yield_op(|| Op::Unlock(self.mutex.id.get()));
        }
    }

    /// A model condition variable.
    #[derive(Debug, Default)]
    pub struct Condvar {
        id: ObjectId,
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// Creates a new model condvar.
        pub const fn new() -> Condvar {
            Condvar {
                id: ObjectId::new(),
                inner: std::sync::Condvar::new(),
            }
        }

        /// Blocks until notified, releasing the mutex while parked. A
        /// missed notification parks this thread forever — which the
        /// explorer reports as a deadlock.
        pub fn wait<'a, T>(&self, mut guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            if rt::current().is_some() {
                let mutex = guard.mutex;
                // Release the real lock, then park on the model condvar;
                // yield_op returns only after a notify re-ran our
                // re-acquire op, at which point re-taking the real lock
                // cannot contend.
                guard.guard = None;
                let (cv, m) = (self.id.get(), mutex.id.get());
                yield_op(|| Op::Wait { cv, mutex: m });
                std::mem::forget(guard); // plain fields; Drop would re-unlock
                let real = match mutex.inner.lock() {
                    Ok(g) => g,
                    Err(poisoned) => poisoned.into_inner(),
                };
                Ok(MutexGuard {
                    mutex,
                    guard: Some(real),
                })
            } else {
                let mutex = guard.mutex;
                let real = guard
                    .guard
                    .take()
                    .unwrap_or_else(|| unreachable!("wait on released guard"));
                std::mem::forget(guard);
                match self.inner.wait(real) {
                    Ok(r) => Ok(MutexGuard {
                        mutex,
                        guard: Some(r),
                    }),
                    Err(p) => Err(PoisonError::new(MutexGuard {
                        mutex,
                        guard: Some(p.into_inner()),
                    })),
                }
            }
        }

        /// Wakes one waiter (the oldest). Dropped when nobody waits —
        /// the real-condvar semantics that produce lost wakeups.
        pub fn notify_one(&self) {
            yield_op(|| Op::NotifyOne(self.id.get()));
            self.inner.notify_one();
        }

        /// Wakes every waiter.
        pub fn notify_all(&self) {
            yield_op(|| Op::NotifyAll(self.id.get()));
            self.inner.notify_all();
        }
    }

    /// A model atomic: every operation is a scheduler yield point,
    /// executed sequentially consistently.
    #[derive(Debug, Default)]
    pub struct AtomicUsize {
        id: ObjectId,
        inner: std::sync::atomic::AtomicUsize,
    }

    impl AtomicUsize {
        /// Creates a new model atomic.
        pub const fn new(v: usize) -> AtomicUsize {
            AtomicUsize {
                id: ObjectId::new(),
                inner: std::sync::atomic::AtomicUsize::new(v),
            }
        }

        /// Declares an access to this object at a yield point.
        fn access(&self, write: bool) {
            yield_op(|| Op::Atomic {
                obj: self.id.get(),
                write,
            });
        }

        /// Atomic load (modeled as a read of this object).
        pub fn load(&self, _order: Ordering) -> usize {
            self.access(false);
            self.inner.load(Ordering::SeqCst)
        }

        /// Atomic store.
        pub fn store(&self, v: usize, _order: Ordering) {
            self.access(true);
            self.inner.store(v, Ordering::SeqCst)
        }

        /// Atomic add, returning the previous value.
        pub fn fetch_add(&self, v: usize, _order: Ordering) -> usize {
            self.access(true);
            self.inner.fetch_add(v, Ordering::SeqCst)
        }
    }
}
