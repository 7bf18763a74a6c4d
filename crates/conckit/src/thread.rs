//! Thread shim: `std::thread` re-exports in normal builds, model-thread
//! spawning under the `model` feature.
//!
//! Inside a model execution, `spawn` registers a new
//! model thread with the scheduler: the closure still runs on a real OS
//! thread, but it only executes when the scheduler gives it the turn,
//! and `join` becomes a modeled blocking operation (enabled once the
//! target finished). Outside an execution, everything passes through to
//! `std::thread`.
//!
//! A panic that escapes a model thread's closure is recorded as a
//! [`crate::Violation::Panic`] and tears the execution down — unlike
//! `std`, where it would surface only through `join`. Model code that
//! intends a panic must catch it itself.

#[cfg(not(feature = "model"))]
pub use std::thread::{spawn, JoinHandle};

#[cfg(feature = "model")]
pub use model::{spawn, JoinHandle};

#[cfg(feature = "model")]
mod model {
    use crate::rt::{self, Op};
    use std::panic::{catch_unwind, AssertUnwindSafe};
    use std::sync::{Arc, Mutex};

    type Outcome<T> = Arc<Mutex<Option<std::thread::Result<T>>>>;

    /// A handle to a spawned thread; modeled when spawned inside an
    /// execution, a plain `std` handle otherwise.
    pub struct JoinHandle<T>(Inner<T>);

    impl<T> std::fmt::Debug for JoinHandle<T> {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            match &self.0 {
                Inner::Std(_) => f.write_str("JoinHandle(std)"),
                Inner::Model { tid, .. } => write!(f, "JoinHandle(model thread {tid})"),
            }
        }
    }

    enum Inner<T> {
        Std(std::thread::JoinHandle<T>),
        Model {
            exec: Arc<rt::Exec>,
            tid: usize,
            os: std::thread::JoinHandle<()>,
            outcome: Outcome<T>,
        },
    }

    impl<T> JoinHandle<T> {
        /// Waits for the thread to finish, returning its result (or the
        /// panic payload it escaped with). A modeled blocking operation:
        /// enabled once the target thread has finished.
        ///
        /// # Panics
        ///
        /// Panics if the model thread's outcome slot is empty, which
        /// would be a scheduler bug.
        pub fn join(self) -> std::thread::Result<T> {
            match self.0 {
                Inner::Std(h) => h.join(),
                Inner::Model {
                    exec,
                    tid,
                    os,
                    outcome,
                } => {
                    if let Some((cur, me)) = rt::current() {
                        debug_assert!(Arc::ptr_eq(&cur, &exec));
                        cur.yield_op(me, Op::Join(tid));
                    }
                    // Model-finished implies the OS thread is exiting;
                    // the real join is immediate (and also correct
                    // during teardown, when the model op was skipped).
                    let _ = os.join();
                    let mut slot = match outcome.lock() {
                        Ok(g) => g,
                        Err(poisoned) => poisoned.into_inner(),
                    };
                    slot.take()
                        .unwrap_or_else(|| panic!("model thread {tid} finished without an outcome"))
                }
            }
        }
    }

    /// Spawns a thread (modeled inside an execution).
    ///
    /// # Panics
    ///
    /// Panics if the underlying OS spawn fails.
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        let Some((exec, me)) = rt::current() else {
            return JoinHandle(Inner::Std(std::thread::spawn(f)));
        };
        // Spawning is itself a scheduling point, then the registration
        // happens while we still hold the turn.
        exec.yield_op(me, Op::Spawn);
        let tid = exec.register_thread();
        let outcome: Outcome<T> = Arc::new(Mutex::new(None));
        let slot = outcome.clone();
        let child_exec = exec.clone();
        let os = std::thread::spawn(move || {
            rt::set_current(Some((child_exec.clone(), tid)));
            child_exec.wait_first_turn(tid);
            let result = catch_unwind(AssertUnwindSafe(f));
            match result {
                Ok(v) => {
                    if let Ok(mut s) = slot.lock() {
                        *s = Some(Ok(v));
                    }
                }
                Err(payload) => {
                    if !rt::is_abort(payload.as_ref()) {
                        child_exec.record_thread_panic(tid, payload.as_ref());
                    }
                    if let Ok(mut s) = slot.lock() {
                        *s = Some(Err(payload));
                    }
                }
            }
            child_exec.finish_thread(tid);
        });
        JoinHandle(Inner::Model {
            exec,
            tid,
            os,
            outcome,
        })
    }
}
