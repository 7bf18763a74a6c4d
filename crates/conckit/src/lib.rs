//! # conckit — a schedule-exploring concurrency model checker
//!
//! The workspace applies formal methods to language-model outputs, and
//! conckit applies the same discipline to the one piece of its own
//! concurrency with real lock interleavings: parkit's sharded, bounded
//! LRU verdict cache. Instead of sampling lucky timings, it
//! **enumerates** thread interleavings. (parkit's `map` needs no model:
//! it is one atomic index counter inside [`std::thread::scope`], and its
//! results travel through the joins.)
//!
//! ## How it works
//!
//! Code under test is written against the [`sync`] and [`thread`] shim
//! modules. In a normal build they are thin `std` re-exports — zero
//! overhead, nothing to audit. Under the `model` feature each
//! synchronization operation becomes a *yield point* that routes
//! through a cooperative scheduler: threads are real OS threads, but
//! exactly one runs at a time, and the scheduler's choice sequence *is*
//! the schedule. [`explore`] then drives a bounded-preemption DFS with
//! sleep-set pruning over the schedule tree (see [`explore()`] and the
//! module docs of `rt`), detecting:
//!
//! * **deadlock** — no thread can make progress but some are
//!   unfinished; lost wakeups surface here, because a waiter whose
//!   notify fired before it waited stays parked;
//! * **panics** — assertion failures in the model body, under every
//!   explored interleaving;
//! * **livelock** — a single execution exceeding the step budget.
//!
//! Every violation carries a deterministic **schedule id**; [`replay`]
//! re-executes exactly that interleaving, turning a one-in-a-million
//! race into a unit test.
//!
//! ## What is and is not explored
//!
//! Explored: every interleaving of shim operations (mutex acquisition
//! orders, condvar waits/notifies, SC atomics, spawn/join) reachable
//! within the preemption bound. Not modeled: weak-memory reorderings
//! (atomics are sequentially consistent), mutex poisoning, spurious
//! condvar wakeups, and non-shim shared state (plain `std::sync` used
//! directly is invisible to the scheduler). Model bodies must be
//! deterministic modulo scheduling.
//!
//! The shims cover what the `ShardedMap` models and this crate's own
//! mutant tests use, and nothing more: `Mutex`, `Condvar` (`wait`,
//! `notify_one`, `notify_all`), `AtomicUsize` (`load`, `store`,
//! `fetch_add`), `Arc`, and `thread::spawn` with `join`.
//!
//! ```
//! # #[cfg(feature = "model")] {
//! use conckit::sync::{Arc, Mutex};
//!
//! let report = conckit::explore(&conckit::Config::default(), || {
//!     let total = Arc::new(Mutex::new(0));
//!     let t = {
//!         let total = total.clone();
//!         conckit::thread::spawn(move || {
//!             if let Ok(mut g) = total.lock() {
//!                 *g += 1;
//!             }
//!         })
//!     };
//!     if let Ok(mut g) = total.lock() {
//!         *g += 2;
//!     }
//!     let _ = t.join();
//!     assert_eq!(total.lock().map(|g| *g).unwrap_or(0), 3);
//! });
//! report.assert_ok();
//! assert!(report.schedules >= 2); // both acquisition orders explored
//! # }
//! ```

#![warn(missing_docs)]

pub mod sync;
pub mod thread;

#[cfg(feature = "model")]
mod explore;
#[cfg(feature = "model")]
mod rt;

#[cfg(feature = "model")]
pub use explore::{explore, replay, Config, Report};
#[cfg(feature = "model")]
pub use rt::Violation;

#[cfg(all(test, not(feature = "model")))]
mod passthrough_tests {
    //! Without the `model` feature the shim must behave exactly like
    //! `std` — these run in the plain workspace test suite.

    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::{Condvar, Mutex};

    #[test]
    fn shim_is_std_passthrough() {
        static HITS: AtomicUsize = AtomicUsize::new(0);
        let m = Mutex::new(5);
        let cv = Condvar::new();
        {
            let mut g = m.lock().unwrap_or_else(|p| p.into_inner());
            *g += 1;
            cv.notify_all();
        }
        HITS.fetch_add(2, Ordering::SeqCst);
        assert_eq!(m.into_inner().unwrap_or(0), 6);
        assert_eq!(HITS.load(Ordering::SeqCst), 2);
        let h = crate::thread::spawn(|| 41 + 1);
        assert_eq!(h.join().ok(), Some(42));
    }
}

#[cfg(all(test, feature = "model"))]
mod model_tests {
    //! The checker's own verification: seeded mutants must be caught,
    //! correct protocols must pass exhaustively, and violations must
    //! replay deterministically from their schedule ids.
    // ALLOW: test-only panics are the assertion mechanism
    #![allow(clippy::unwrap_used, clippy::expect_used)]

    use crate::sync::atomic::{AtomicUsize, Ordering};
    use crate::sync::{Arc, Condvar, Mutex};
    use crate::{explore, replay, Config, Violation};

    /// A deliberately seeded **lost wakeup**: the waiter checks the flag
    /// in one critical section and waits in another, so the setter's
    /// notify can fire in the gap — before anyone waits — and be
    /// dropped, parking the waiter forever.
    fn lost_wakeup_mutant() {
        let flag = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let waiter = {
            let (flag, cv) = (flag.clone(), cv.clone());
            crate::thread::spawn(move || {
                let ready = flag.lock().map(|g| *g).unwrap_or(true);
                if !ready {
                    // BUG: the flag may be set (and notified) right here.
                    let guard = flag.lock().unwrap_or_else(|p| p.into_inner());
                    let _g = cv.wait(guard).unwrap_or_else(|p| p.into_inner());
                }
            })
        };
        {
            let mut g = flag.lock().unwrap_or_else(|p| p.into_inner());
            *g = true;
            cv.notify_one();
        }
        let _ = waiter.join();
    }

    /// The repaired protocol: re-check the predicate under the same
    /// guard the wait releases — the notify can no longer fall into an
    /// unprotected gap.
    fn lost_wakeup_fixed() {
        let flag = Arc::new(Mutex::new(false));
        let cv = Arc::new(Condvar::new());
        let waiter = {
            let (flag, cv) = (flag.clone(), cv.clone());
            crate::thread::spawn(move || {
                let mut guard = flag.lock().unwrap_or_else(|p| p.into_inner());
                while !*guard {
                    guard = cv.wait(guard).unwrap_or_else(|p| p.into_inner());
                }
            })
        };
        {
            let mut g = flag.lock().unwrap_or_else(|p| p.into_inner());
            *g = true;
            cv.notify_one();
        }
        let _ = waiter.join();
    }

    #[test]
    fn detects_seeded_lost_wakeup_and_replays_it() {
        let config = Config::default();
        let report = explore(&config, lost_wakeup_mutant);
        let violation = report.violation.expect("the mutant must be caught");
        let Violation::Deadlock { schedule, blocked } = &violation else {
            panic!("expected a deadlock (lost wakeup), got {violation:?}");
        };
        assert!(
            blocked.iter().any(|(_, what)| what.contains("condvar")),
            "the lost waiter should be parked on the condvar: {blocked:?}"
        );
        // The schedule id replays to the same violation, twice.
        for _ in 0..2 {
            let replayed = replay(&config, schedule, lost_wakeup_mutant)
                .expect("replaying the failing schedule must reproduce the violation");
            match replayed {
                Violation::Deadlock { schedule: s2, .. } => assert_eq!(&s2, schedule),
                other => panic!("replay produced a different violation: {other:?}"),
            }
        }
    }

    #[test]
    fn fixed_wakeup_protocol_passes_exhaustively() {
        let report = explore(&Config::default(), lost_wakeup_fixed);
        report.assert_ok();
        assert!(report.schedules >= 2, "expected real branching");
    }

    /// A deliberately seeded **AB-BA deadlock**.
    fn abba_mutant() {
        let a = Arc::new(Mutex::new(0u32));
        let b = Arc::new(Mutex::new(0u32));
        let t = {
            let (a, b) = (a.clone(), b.clone());
            crate::thread::spawn(move || {
                let _ga = a.lock().unwrap_or_else(|p| p.into_inner());
                let _gb = b.lock().unwrap_or_else(|p| p.into_inner());
            })
        };
        {
            let _gb = b.lock().unwrap_or_else(|p| p.into_inner());
            let _ga = a.lock().unwrap_or_else(|p| p.into_inner());
        }
        let _ = t.join();
    }

    #[test]
    fn detects_seeded_abba_deadlock() {
        let config = Config::default();
        let report = explore(&config, abba_mutant);
        let violation = report.violation.expect("AB-BA must deadlock somewhere");
        assert!(
            matches!(violation, Violation::Deadlock { .. }),
            "expected a deadlock, got {violation:?}"
        );
        let id = violation.schedule_id();
        assert!(
            matches!(
                replay(&config, id, abba_mutant),
                Some(Violation::Deadlock { .. })
            ),
            "replay must reproduce the deadlock"
        );
    }

    #[test]
    fn consistent_lock_order_passes() {
        let report = explore(&Config::default(), || {
            let a = Arc::new(Mutex::new(0u32));
            let b = Arc::new(Mutex::new(0u32));
            let t = {
                let (a, b) = (a.clone(), b.clone());
                crate::thread::spawn(move || {
                    let _ga = a.lock().unwrap_or_else(|p| p.into_inner());
                    let _gb = b.lock().unwrap_or_else(|p| p.into_inner());
                })
            };
            {
                let _ga = a.lock().unwrap_or_else(|p| p.into_inner());
                let _gb = b.lock().unwrap_or_else(|p| p.into_inner());
            }
            let _ = t.join();
        });
        report.assert_ok();
    }

    #[test]
    fn catches_atomicity_violation_as_panicking_schedule() {
        // A read-modify-write split across two atomic ops loses updates
        // under the right interleaving; the assertion catches it and the
        // violation carries a replayable schedule.
        let config = Config::default();
        let racy = || {
            let n = Arc::new(AtomicUsize::new(0));
            let t = {
                let n = n.clone();
                crate::thread::spawn(move || {
                    let v = n.load(Ordering::SeqCst);
                    n.store(v + 1, Ordering::SeqCst);
                })
            };
            let v = n.load(Ordering::SeqCst);
            n.store(v + 1, Ordering::SeqCst);
            let _ = t.join();
            assert_eq!(n.load(Ordering::SeqCst), 2, "lost update");
        };
        let report = explore(&config, racy);
        let violation = report.violation.expect("the lost update must be found");
        let Violation::Panic {
            schedule, message, ..
        } = &violation
        else {
            panic!("expected a panic violation, got {violation:?}");
        };
        assert!(message.contains("lost update"), "message: {message}");
        let replayed = replay(&config, schedule, racy);
        assert!(
            matches!(replayed, Some(Violation::Panic { .. })),
            "replay must reproduce the assertion failure"
        );
    }

    #[test]
    fn fetch_add_is_atomic() {
        let report = explore(&Config::default(), || {
            let n = Arc::new(AtomicUsize::new(0));
            let t = {
                let n = n.clone();
                crate::thread::spawn(move || {
                    n.fetch_add(1, Ordering::SeqCst);
                })
            };
            n.fetch_add(1, Ordering::SeqCst);
            let _ = t.join();
            assert_eq!(n.load(Ordering::SeqCst), 2);
        });
        report.assert_ok();
    }

    #[test]
    fn preemption_bound_zero_still_covers_blocking_switches() {
        // With a bound of 0 the only context switches are forced ones —
        // the fixed protocol still terminates in every explored
        // schedule, just fewer of them.
        let tight = explore(&Config::with_bound(0), lost_wakeup_fixed);
        tight.assert_ok();
        let loose = explore(&Config::with_bound(2), lost_wakeup_fixed);
        loose.assert_ok();
        assert!(loose.schedules >= tight.schedules);
    }

    #[test]
    fn exploration_is_deterministic() {
        let a = explore(&Config::default(), lost_wakeup_fixed);
        let b = explore(&Config::default(), lost_wakeup_fixed);
        assert_eq!(a.schedules, b.schedules);
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.max_depth, b.max_depth);
    }

    #[test]
    fn schedule_budget_marks_report_incomplete() {
        let config = Config {
            max_schedules: 1,
            ..Config::default()
        };
        let report = explore(&config, lost_wakeup_fixed);
        assert!(!report.complete);
        assert_eq!(report.schedules, 1);
    }
}
