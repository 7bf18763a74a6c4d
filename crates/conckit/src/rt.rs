//! The model-execution runtime: a cooperative, turn-based scheduler.
//!
//! One model execution runs the test body once under a fully controlled
//! interleaving. Every model thread is a real OS thread, but **exactly
//! one runs at a time**: at every synchronization operation (a *yield
//! point*) the running thread declares the operation it is about to
//! perform, hands the scheduling decision to [`Exec::pick_next`], and
//! parks until it is chosen again. The scheduler is decentralized — it
//! executes inline on whichever thread just yielded — and the chosen
//! sequence of thread ids *is* the schedule, which makes replay trivial:
//! prescribe the sequence and the execution reproduces bit-for-bit
//! (model bodies must themselves be deterministic).
//!
//! Blocking is modeled, never real: a thread whose pending operation is
//! disabled (lock on a held mutex, join on a live thread, condvar wait)
//! simply stays unchosen. When no thread is enabled and some are
//! unfinished, the execution has deadlocked — that single check also
//! catches lost wakeups (a waiter whose notify fired before it waited
//! stays parked forever).
//!
//! Teardown after a violation cannot forcibly kill parked OS threads, so
//! the runtime *aborts* them: every parked thread wakes, observes the
//! abort flag and panics with a private [`Abort`] payload that unwinds
//! it out of the model code. Shim operations reached while unwinding
//! (drop glue) skip the model and fall through to the real primitive —
//! real concurrency resumes for the teardown, which is safe because the
//! shim wraps real `std` primitives underneath.

use std::any::Any;
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Process-unique ids for model objects (mutexes, condvars, atomics).
/// Never reset: statics keep their id across executions, so uniqueness
/// is global. The explorer canonicalizes ids per trace (order of first
/// appearance) before comparing operations across runs.
static OBJECT_IDS: AtomicU64 = AtomicU64::new(1);

/// Allocates a fresh model-object id.
pub(crate) fn new_object_id() -> u64 {
    OBJECT_IDS.fetch_add(1, Ordering::Relaxed)
}

/// The panic payload used to unwind parked threads during teardown.
pub(crate) struct Abort;

pub(crate) fn is_abort(payload: &(dyn Any + Send)) -> bool {
    payload.is::<Abort>()
}

/// A synchronization operation, declared at a yield point *before* it
/// executes. Object ids are the raw process-unique ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Op {
    /// First scheduling of a freshly spawned thread.
    Start,
    /// Acquire a mutex (also the re-acquire half of a condvar wait).
    Lock(u64),
    /// Release a mutex.
    Unlock(u64),
    /// Condvar wait: release `mutex`, park on `cv` until notified.
    Wait { cv: u64, mutex: u64 },
    /// Wake one `cv` waiter (FIFO; dropped if nobody waits).
    NotifyOne(u64),
    /// Wake every `cv` waiter.
    NotifyAll(u64),
    /// A shared-memory atomic operation (`write` = mutating).
    Atomic { obj: u64, write: bool },
    /// Spawn a new model thread.
    Spawn,
    /// Join thread `tid` (enabled once it has finished).
    Join(usize),
}

impl Op {
    /// `(object id, writes)` for the independence relation. `None`
    /// object means "global": conservatively dependent with everything.
    pub(crate) fn key(self) -> (Option<u64>, bool) {
        match self {
            Op::Lock(o) | Op::Unlock(o) => (Some(o), true),
            Op::Wait { cv, .. } | Op::NotifyOne(cv) | Op::NotifyAll(cv) => (Some(cv), true),
            Op::Atomic { obj, write } => (Some(obj), write),
            Op::Start | Op::Spawn | Op::Join(_) => (None, true),
        }
    }
}

/// What a thread is doing, from the scheduler's point of view.
#[derive(Debug)]
enum Status {
    /// Executing model code between yield points (holds the turn).
    Running,
    /// Parked at a yield point with a declared pending operation.
    Ready(Op),
    /// Parked in a condvar wait; disabled until notified.
    Waiting { cv: u64, mutex: u64 },
    /// The thread function returned.
    Finished,
}

struct ThreadState {
    status: Status,
    name: Option<String>,
}

/// One recorded scheduling decision, for the explorer.
#[derive(Debug, Clone)]
pub(crate) struct StepInfo {
    /// Every enabled thread at this point, with its pending op.
    pub enabled: Vec<(usize, Op)>,
    /// The thread that was chosen.
    pub chosen: usize,
    /// The thread that held the turn when the decision was made.
    pub yielder: usize,
    /// Whether the yielder itself was enabled (a switch away from an
    /// enabled yielder is a preemption; a forced switch is free).
    pub yielder_enabled: bool,
}

/// A concurrency property violation found during exploration.
#[derive(Debug, Clone)]
pub enum Violation {
    /// No thread can make progress, but not all have finished. Lost
    /// wakeups surface here: a missed notification parks its waiter
    /// forever.
    Deadlock {
        /// The schedule that reached the deadlock (replayable id).
        schedule: String,
        /// `(thread, description)` for every unfinished thread.
        blocked: Vec<(usize, String)>,
    },
    /// A model thread panicked (assertion failure in the model body, or
    /// an unexpected panic escaping a spawned thread).
    Panic {
        /// The schedule that triggered the panic (replayable id).
        schedule: String,
        /// The panicking thread.
        thread: usize,
        /// The panic message, if it was a string payload.
        message: String,
    },
    /// A single execution exceeded the step budget — the model is too
    /// big for the configured bounds, or livelocks.
    StepLimit {
        /// The schedule prefix that ran away.
        schedule: String,
    },
}

impl Violation {
    /// The replayable schedule id carried by this violation.
    pub fn schedule_id(&self) -> &str {
        match self {
            Violation::Deadlock { schedule, .. }
            | Violation::Panic { schedule, .. }
            | Violation::StepLimit { schedule } => schedule,
        }
    }
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::Deadlock { schedule, blocked } => {
                write!(f, "deadlock under schedule {schedule}: ")?;
                for (i, (thread, what)) in blocked.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "thread {thread} blocked on {what}")?;
                }
                Ok(())
            }
            Violation::Panic {
                schedule,
                thread,
                message,
            } => write!(
                f,
                "thread {thread} panicked under schedule {schedule}: {message}"
            ),
            Violation::StepLimit { schedule } => {
                write!(f, "step budget exceeded under schedule prefix {schedule}")
            }
        }
    }
}

/// Encodes a choice sequence as a compact replayable id (base-36 digit
/// per thread id, `v1:` prefix).
pub(crate) fn encode_schedule(choices: &[usize]) -> String {
    let mut s = String::with_capacity(3 + choices.len());
    s.push_str("v1:");
    for &c in choices {
        s.push(char::from_digit(c as u32, 36).unwrap_or('?'));
    }
    s
}

/// Decodes a schedule id back into its choice sequence.
pub(crate) fn decode_schedule(id: &str) -> Option<Vec<usize>> {
    let digits = id.strip_prefix("v1:")?;
    digits
        .chars()
        .map(|c| c.to_digit(36).map(|d| d as usize))
        .collect()
}

struct State {
    threads: Vec<ThreadState>,
    /// Whose turn it is (usize::MAX once all threads have finished).
    active: usize,
    /// Choices made so far this execution.
    schedule: Vec<usize>,
    /// Scheduling decisions with their context, for the explorer.
    trace: Vec<StepInfo>,
    /// Prescribed choice prefix (DFS backtracking / replay).
    prefix: Vec<usize>,
    /// Locked-state per mutex object (absent = unlocked).
    mutexes: HashMap<u64, bool>,
    /// FIFO waiter queues per condvar object.
    waiters: HashMap<u64, VecDeque<usize>>,
    /// Unfinished thread count.
    live: usize,
    violation: Option<Violation>,
    abort: bool,
}

/// One model execution's shared scheduler state.
pub(crate) struct Exec {
    state: Mutex<State>,
    cv: Condvar,
    /// Step budget per execution (runaway guard).
    max_steps: usize,
}

fn lock_state<'a>(m: &'a Mutex<State>) -> MutexGuard<'a, State> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

thread_local! {
    /// `(execution, thread id)` while running inside a model execution.
    static CURRENT: std::cell::RefCell<Option<(Arc<Exec>, usize)>> =
        const { std::cell::RefCell::new(None) };
}

/// The calling thread's model context, if any.
pub(crate) fn current() -> Option<(Arc<Exec>, usize)> {
    CURRENT.with(|c| c.borrow().clone())
}

pub(crate) fn set_current(ctx: Option<(Arc<Exec>, usize)>) {
    CURRENT.with(|c| *c.borrow_mut() = ctx);
}

impl Exec {
    pub(crate) fn new(prefix: Vec<usize>, max_steps: usize) -> Arc<Exec> {
        Arc::new(Exec {
            state: Mutex::new(State {
                threads: vec![ThreadState {
                    status: Status::Running,
                    name: Some("main".to_owned()),
                }],
                active: 0,
                schedule: Vec::new(),
                trace: Vec::new(),
                prefix,
                mutexes: HashMap::new(),
                waiters: HashMap::new(),
                live: 1,
                violation: None,
                abort: false,
            }),
            cv: Condvar::new(),
            max_steps,
        })
    }

    /// The violation recorded this execution, if any.
    pub(crate) fn violation(&self) -> Option<Violation> {
        lock_state(&self.state).violation.clone()
    }

    /// The recorded trace (choices + enabled sets) of this execution.
    pub(crate) fn trace(&self) -> Vec<StepInfo> {
        lock_state(&self.state).trace.clone()
    }

    fn describe(status: &Status) -> String {
        match status {
            Status::Running => "running".to_owned(),
            Status::Ready(op) => format!("blocked at {op:?}"),
            Status::Waiting { cv, .. } => format!("waiting on condvar #{cv}"),
            Status::Finished => "finished".to_owned(),
        }
    }

    fn enabled_op(st: &State, tid: usize) -> Option<Op> {
        match st.threads[tid].status {
            Status::Ready(op) => {
                let ok = match op {
                    Op::Lock(m) => !st.mutexes.get(&m).copied().unwrap_or(false),
                    Op::Join(t) => matches!(st.threads[t].status, Status::Finished),
                    _ => true,
                };
                ok.then_some(op)
            }
            _ => None,
        }
    }

    /// Records a violation, raises the abort flag and wakes every parked
    /// thread so the execution can unwind.
    fn flag_violation(&self, st: &mut State, v: Violation) {
        if st.violation.is_none() {
            st.violation = Some(v);
        }
        st.abort = true;
        self.cv.notify_all();
    }

    /// Picks the next thread to run. Called with no thread running (the
    /// previous runner just declared an op, parked in a wait, or
    /// finished). `yielder` is that previous runner.
    fn pick_next(&self, st: &mut State, yielder: usize) {
        if st.abort {
            return;
        }
        let enabled: Vec<(usize, Op)> = (0..st.threads.len())
            .filter_map(|t| Self::enabled_op(st, t).map(|op| (t, op)))
            .collect();
        if enabled.is_empty() {
            if st.live == 0 {
                st.active = usize::MAX;
                self.cv.notify_all();
                return;
            }
            let blocked: Vec<(usize, String)> = st
                .threads
                .iter()
                .enumerate()
                .filter(|(_, t)| !matches!(t.status, Status::Finished))
                .map(|(i, t)| {
                    let what = Self::describe(&t.status);
                    match &t.name {
                        Some(name) => (i, format!("{name}: {what}")),
                        None => (i, what),
                    }
                })
                .collect();
            let v = Violation::Deadlock {
                schedule: encode_schedule(&st.schedule),
                blocked,
            };
            self.flag_violation(st, v);
            return;
        }
        let step = st.schedule.len();
        if step >= self.max_steps {
            let v = Violation::StepLimit {
                schedule: encode_schedule(&st.schedule),
            };
            self.flag_violation(st, v);
            return;
        }
        let yielder_enabled = enabled.iter().any(|&(t, _)| t == yielder);
        let chosen = if let Some(&p) = st.prefix.get(step) {
            assert!(
                enabled.iter().any(|&(t, _)| t == p),
                "schedule diverged at step {step}: prescribed thread {p} is not enabled \
                 (enabled: {:?}) — model bodies must be deterministic",
                enabled.iter().map(|&(t, _)| t).collect::<Vec<_>>()
            );
            p
        } else {
            // Default policy: keep running the yielder when possible
            // (zero preemptions), else the lowest-id enabled thread.
            if yielder_enabled {
                yielder
            } else {
                enabled[0].0
            }
        };
        st.trace.push(StepInfo {
            enabled,
            chosen,
            yielder,
            yielder_enabled,
        });
        st.schedule.push(chosen);
        st.active = chosen;
        self.cv.notify_all();
    }

    /// Executes `me`'s pending op against the model state. Returns
    /// `true` when the op completed (thread becomes `Running`), `false`
    /// when the thread parked in a condvar wait (stage 1 of `Wait`).
    fn execute(&self, st: &mut State, me: usize) -> bool {
        let Status::Ready(op) = st.threads[me].status else {
            panic!("thread {me} scheduled without a pending op");
        };
        match op {
            Op::Lock(m) => {
                st.mutexes.insert(m, true);
            }
            Op::Unlock(m) => {
                st.mutexes.insert(m, false);
            }
            Op::Wait { cv, mutex } => {
                st.mutexes.insert(mutex, false);
                st.waiters.entry(cv).or_default().push_back(me);
                st.threads[me].status = Status::Waiting { cv, mutex };
                return false;
            }
            Op::NotifyOne(cv) => {
                if let Some(w) = st.waiters.entry(cv).or_default().pop_front() {
                    let Status::Waiting { mutex, .. } = st.threads[w].status else {
                        panic!("condvar waiter {w} not in waiting state");
                    };
                    st.threads[w].status = Status::Ready(Op::Lock(mutex));
                }
                // No waiter: the notification is dropped, exactly like a
                // real condvar — the source of lost-wakeup bugs.
            }
            Op::NotifyAll(cv) => {
                let drained: Vec<usize> = st.waiters.entry(cv).or_default().drain(..).collect();
                for w in drained {
                    let Status::Waiting { mutex, .. } = st.threads[w].status else {
                        panic!("condvar waiter {w} not in waiting state");
                    };
                    st.threads[w].status = Status::Ready(Op::Lock(mutex));
                }
            }
            Op::Start | Op::Atomic { .. } | Op::Spawn | Op::Join(_) => {}
        }
        st.threads[me].status = Status::Running;
        true
    }

    /// Parks until it is `me`'s turn with an executable pending op, then
    /// executes it. Returns normally once the thread is `Running` again.
    ///
    /// # Panics
    ///
    /// Panics with the private [`Abort`] payload when the execution is
    /// torn down while this thread is parked. While the thread is
    /// already unwinding (drop glue during teardown), returns instead so
    /// the underlying real primitive can proceed.
    fn wait_and_execute(&self, me: usize) {
        let mut st = lock_state(&self.state);
        loop {
            if st.abort {
                drop(st);
                if std::thread::panicking() {
                    return;
                }
                std::panic::panic_any(Abort);
            }
            if st.active == me && matches!(st.threads[me].status, Status::Ready(_)) {
                if self.execute(&mut st, me) {
                    return;
                }
                // Parked in a condvar wait: hand the turn onward and
                // keep waiting for the notify + re-acquire.
                self.pick_next(&mut st, me);
                continue;
            }
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }

    /// The yield point: declares `op` as `me`'s next operation, runs the
    /// scheduler, parks until chosen, executes the op. Skips the model
    /// entirely (op falls through to the real primitive) when called
    /// during an abort-unwind.
    pub(crate) fn yield_op(&self, me: usize, op: Op) {
        {
            let mut st = lock_state(&self.state);
            if st.abort {
                drop(st);
                if std::thread::panicking() {
                    return;
                }
                std::panic::panic_any(Abort);
            }
            st.threads[me].status = Status::Ready(op);
            self.pick_next(&mut st, me);
        }
        self.wait_and_execute(me);
    }

    /// Registers a freshly spawned thread (caller must hold the turn).
    /// The new thread starts parked with a pending [`Op::Start`].
    pub(crate) fn register_thread(&self) -> usize {
        let mut st = lock_state(&self.state);
        st.threads.push(ThreadState {
            status: Status::Ready(Op::Start),
            name: None,
        });
        st.live += 1;
        st.threads.len() - 1
    }

    /// First park of a spawned thread: waits to be scheduled for the
    /// first time ([`Op::Start`]).
    pub(crate) fn wait_first_turn(&self, me: usize) {
        self.wait_and_execute(me);
    }

    /// Marks `me` finished and hands the turn onward.
    pub(crate) fn finish_thread(&self, me: usize) {
        let mut st = lock_state(&self.state);
        st.threads[me].status = Status::Finished;
        st.live -= 1;
        if st.abort {
            self.cv.notify_all();
            return;
        }
        self.pick_next(&mut st, me);
    }

    /// Records a panic escaping model thread `me` as a violation and
    /// tears the execution down.
    pub(crate) fn record_thread_panic(&self, me: usize, payload: &(dyn Any + Send)) {
        let message = payload
            .downcast_ref::<&str>()
            .map(|s| (*s).to_owned())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "<non-string panic payload>".to_owned());
        let mut st = lock_state(&self.state);
        let v = Violation::Panic {
            schedule: encode_schedule(&st.schedule),
            thread: me,
            message,
        };
        self.flag_violation(&mut st, v);
    }

    /// Blocks the main thread until every model thread has finished (or
    /// the execution aborted). Called after the body returns.
    pub(crate) fn wait_all_done(&self) {
        let mut st = lock_state(&self.state);
        while st.live > 0 && !st.abort {
            st = match self.cv.wait(st) {
                Ok(g) => g,
                Err(poisoned) => poisoned.into_inner(),
            };
        }
    }
}
