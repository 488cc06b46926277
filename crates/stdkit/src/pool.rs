//! Persistent worker pool — scoped fork/join without per-call spawning.
//!
//! [`std::thread::scope`] spawns and joins OS threads on *every* call,
//! ≈100 µs per fork/join. This module replaces per-call scopes with one
//! lazily-started pool whose workers park between jobs, with work handed
//! off through the lock-free [`StealQueue`](crate::sync::StealQueue) from
//! the work-stealing core. Its user is per-home background fine-tuning;
//! the GEMM kernels run on the calling thread.
//!
//! # Handoff protocol
//!
//! A call to [`WorkerPool::run_scoped`] with `n` tasks:
//!
//! 1. materialises a stack-allocated `Job` — one take-once cell per task
//!    plus a mutex-guarded completion counter;
//! 2. publishes tickets (job pointer + task index) for tasks `1..n` onto
//!    the shared [`StealQueue`] and wakes parked workers (tickets that do
//!    not fit the bounded ring are retained and run by the caller);
//! 3. runs task `0` itself, then **helps**: it keeps popping tickets —
//!    its own or another job's — until its own completion counter reaches
//!    `n`, parking on the job's condvar only while the ring is empty.
//!
//! The caller-participates rule is what makes the pool well-behaved on a
//! single-core host (the bench baseline box): with zero background
//! workers every task runs inline on the caller, so `n` tasks cost a few
//! queue operations instead of `n` thread spawns. It also makes
//! nested `run_scoped` calls deadlock-free: every waiter drains the ring
//! before parking, so queued work can never be orphaned.
//!
//! # Determinism
//!
//! The pool schedules *which thread* runs a task, never *what* the task
//! computes: callers pre-split their work into fixed chunks, so results
//! are bit-identical at every pool size, including zero workers. The
//! kernel-conformance battery in `crates/neural/tests/properties.rs`
//! sweeps pool sizes {1, 2, 4, 8} to enforce this.
//!
//! # Panic safety
//!
//! Task panics are caught in the executing thread (worker threads
//! survive), recorded on the job, and re-raised on the *submitting*
//! thread with the original payload ([`std::panic::resume_unwind`]; the
//! first panic wins, later ones are dropped) — but only after every task
//! of the job has finished, so the borrowed data the tasks reference
//! stays alive for as long as any worker can touch it. A panicking task
//! therefore cannot deadlock the pool or poison subsequent calls, and the
//! supervisor above can classify the caught payload as if the task had
//! panicked inline.

use crate::sync::{PushError, StealQueue};
use std::any::Any;
use std::cell::UnsafeCell;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

/// Capacity of the shared ticket ring. Jobs with more tasks than fit are
/// still correct: unplaceable tickets are retained and run by the caller.
const TICKET_RING_CAPACITY: usize = 256;

/// The process-wide thread budget: `JARVIS_THREADS` when set to a positive
/// integer, else the host's available parallelism. **Read once** at first
/// use and cached for the life of the process, so no caller pays an
/// environment lookup (a libc lock) per call.
#[must_use]
pub fn configured_threads() -> usize {
    static CONFIGURED: OnceLock<usize> = OnceLock::new();
    *CONFIGURED.get_or_init(|| {
        thread_budget_from(std::env::var("JARVIS_THREADS").ok().as_deref())
    })
}

/// Resolve a raw `JARVIS_THREADS` value to a thread budget: a positive
/// integer wins, anything else falls back to the host's parallelism.
/// Factored out of [`configured_threads`] so tests can exercise the parse
/// without mutating the process environment (setenv racing getenv across
/// test threads is undefined behavior on glibc).
fn thread_budget_from(raw: Option<&str>) -> usize {
    raw.and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| std::thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

/// A boxed scoped task. The lifetime is the borrow of the caller's data;
/// [`WorkerPool::run_scoped`] guarantees the task is dropped before it
/// returns, which is what makes the internal lifetime erasure sound.
pub type ScopedTask<'s> = Box<dyn FnOnce() + Send + 's>;

/// One task slot of a job. Ticket indices are unique, so exactly one
/// thread ever takes a given cell — that exclusivity is the `Sync` proof.
struct TaskCell<'s>(UnsafeCell<Option<ScopedTask<'s>>>);

// SAFETY: a cell is accessed only through its (unique) ticket, so there is
// never concurrent access to the same cell; the mutex-guarded completion
// counter sequences the final read of task side effects.
unsafe impl Sync for TaskCell<'_> {}

/// Completion state of a job, guarded by `Job::state`.
struct JobState {
    done: usize,
    /// The first panicking task's payload, re-raised on the submitter.
    payload: Option<Box<dyn Any + Send>>,
}

/// A stack-allocated fork/join job: the task cells plus a completion
/// latch. Lives in the `run_scoped` frame; tickets reference it by raw
/// pointer, which stays valid because `run_scoped` does not return (or
/// unwind) until `done == tasks.len()`.
struct Job<'s> {
    tasks: Vec<TaskCell<'s>>,
    state: Mutex<JobState>,
    cv: Condvar,
}

/// A unit of handoff on the shared ring: which job, which task.
#[derive(Clone, Copy)]
struct Ticket {
    job: *const Job<'static>,
    index: usize,
}

// SAFETY: the pointee is kept alive by the submitting thread until every
// ticket of the job has executed (see `Job`), and `Job` itself is `Sync`.
unsafe impl Send for Ticket {}

/// Shared pool state — the ticket ring plus the worker parking lot.
struct Inner {
    queue: StealQueue<Ticket>,
    /// Wake generation: bumped (under the lock) each time tickets are
    /// published, so a worker that raced past a push still observes the
    /// change and re-checks the ring instead of sleeping through it.
    gate: Mutex<u64>,
    cv: Condvar,
    shutdown: AtomicBool,
    workers: usize,
    spawned: AtomicUsize,
    jobs: AtomicU64,
}

/// A persistent fork/join worker pool (see the module docs for the
/// protocol). Use [`WorkerPool::global`] for the process-wide instance;
/// [`WorkerPool::with_workers`] builds private pools for tests.
pub struct WorkerPool {
    inner: Arc<Inner>,
    handles: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// The process-wide pool, started lazily on first use with
    /// `configured_threads() - 1` background workers (the caller is the
    /// remaining worker). Never shut down; parked workers cost nothing.
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| WorkerPool::with_workers(configured_threads().saturating_sub(1)))
    }

    /// A private pool with exactly `workers` background threads (0 is
    /// valid: every task then runs inline on the submitting thread).
    #[must_use]
    pub fn with_workers(workers: usize) -> WorkerPool {
        let inner = Arc::new(Inner {
            queue: StealQueue::new(TICKET_RING_CAPACITY),
            gate: Mutex::new(0),
            cv: Condvar::new(),
            shutdown: AtomicBool::new(false),
            workers,
            spawned: AtomicUsize::new(0),
            jobs: AtomicU64::new(0),
        });
        let pool = WorkerPool { inner: Arc::clone(&inner), handles: Mutex::new(Vec::new()) };
        let mut handles = pool.handles.lock().expect("pool handle registry");
        for i in 0..workers {
            let worker_inner = Arc::clone(&pool.inner);
            let handle = std::thread::Builder::new()
                .name(format!("jarvis-pool-{i}"))
                .spawn(move || worker_loop(&worker_inner))
                .expect("spawn pool worker");
            inner.spawned.fetch_add(1, Ordering::Relaxed);
            handles.push(handle);
        }
        drop(handles);
        pool
    }

    /// Background workers this pool was built with.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.inner.workers
    }

    /// Total worker threads ever spawned — equals [`Self::workers`] for
    /// the pool's whole life. The lifecycle tests assert it stays flat
    /// across jobs (reuse, not respawn) and across task panics.
    #[must_use]
    pub fn spawned_workers(&self) -> usize {
        // ordering: Relaxed — monotonic stat counter read; tests only look
        // after join points, which already order the increments.
        self.inner.spawned.load(Ordering::Relaxed)
    }

    /// Jobs executed through this pool since it started.
    #[must_use]
    pub fn jobs_run(&self) -> u64 {
        // ordering: Relaxed — monotonic stat counter read (see above).
        self.inner.jobs.load(Ordering::Relaxed)
    }

    /// Run every task to completion, borrowing the caller's data for the
    /// duration of the call (a scoped fork/join). Tasks may run on pool
    /// workers, on other threads waiting in `run_scoped`, or inline on
    /// this thread; completion — and panic propagation — is always
    /// observed here before the call returns.
    ///
    /// # Panics
    ///
    /// Re-raises the first panicking task's original payload after all
    /// tasks finish, mirroring `std::thread::scope` join semantics.
    pub fn run_scoped<'s>(&self, tasks: Vec<ScopedTask<'s>>) {
        let n = tasks.len();
        if n == 0 {
            return;
        }
        self.inner.jobs.fetch_add(1, Ordering::Relaxed);
        if self.inner.workers == 0 || n == 1 {
            // Nobody to hand off to: run in submission order, no erasure.
            for task in tasks {
                task();
            }
            return;
        }
        let job = Job {
            tasks: tasks.into_iter().map(|t| TaskCell(UnsafeCell::new(Some(t)))).collect(),
            state: Mutex::new(JobState { done: 0, payload: None }),
            cv: Condvar::new(),
        };
        // SAFETY: the erased-lifetime pointer never escapes this frame
        // alive — the completion loop below refuses to return (or unwind)
        // before `done == n`, at which point no thread holds a ticket.
        let erased: *const Job<'static> = (&raw const job).cast();
        let mut retained = Vec::new();
        for index in 1..n {
            let ticket = Ticket { job: erased, index };
            if let Err(PushError::Full(t)) = self.inner.queue.try_push(ticket) {
                retained.push(t);
            }
        }
        self.wake_workers();
        run_ticket(Ticket { job: erased, index: 0 });
        for ticket in retained {
            run_ticket(ticket);
        }
        // Help until our job completes: drain the ring (any job's tickets
        // count — a nested or concurrent submitter may be waiting on us),
        // parking only while it is empty.
        loop {
            {
                let mut state = job.state.lock().expect("pool job state");
                if state.done == n {
                    let payload = state.payload.take();
                    drop(state);
                    if let Some(payload) = payload {
                        resume_unwind(payload);
                    }
                    return;
                }
            }
            if let Some(ticket) = self.inner.queue.pop() {
                run_ticket(ticket);
                continue;
            }
            let mut state = job.state.lock().expect("pool job state");
            while state.done < n && self.inner.queue.is_empty() {
                state = job.cv.wait(state).expect("pool job condvar");
            }
        }
    }

    /// Bump the wake generation and rouse parked workers. Skipped when the
    /// pool has no background workers (the caller runs everything).
    fn wake_workers(&self) {
        if self.inner.workers == 0 {
            return;
        }
        {
            let mut generation = self.inner.gate.lock().expect("pool gate");
            *generation = generation.wrapping_add(1);
        }
        // lock-ok: the gate condvar lives in the pool's Arc<Inner>, which
        // outlives every worker; parked workers re-check the generation
        // under the gate lock, so a notify landing after the unlock can
        // never be lost or touch freed state.
        self.inner.cv.notify_all();
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.inner.shutdown.store(true, Ordering::Release);
        {
            let mut generation = self.inner.gate.lock().expect("pool gate");
            *generation = generation.wrapping_add(1);
        }
        // lock-ok: same shape as wake_workers — Arc-owned gate condvar,
        // workers re-check generation + shutdown under the lock.
        self.inner.cv.notify_all();
        let handles = std::mem::take(&mut *self.handles.lock().expect("pool handle registry"));
        for handle in handles {
            // discard-ok: a worker that panicked outside a task already
            // surfaced its payload through the job latch; at teardown the
            // join error carries nothing actionable.
            let _ = handle.join();
        }
    }
}

/// Execute one ticket: take the task (exactly once — indices are unique),
/// run it under `catch_unwind`, then advance the job's completion latch.
/// The latch update happens under the job mutex, so the submitter can only
/// observe `done == n` after every side effect of every task.
fn run_ticket(ticket: Ticket) {
    // SAFETY: the submitting thread keeps the job alive until the latch
    // reaches `n` (see `Job`), and this ticket grants exclusive access to
    // cell `index`.
    let job = unsafe { &*ticket.job };
    // SAFETY: ticket indices are handed out exactly once per cell, so this
    // UnsafeCell take is the cell's only concurrent access.
    let task = unsafe { (*job.tasks[ticket.index].0.get()).take() };
    let payload = match task {
        Some(task) => catch_unwind(AssertUnwindSafe(task)).err(),
        None => None,
    };
    let mut state = job.state.lock().expect("pool job state");
    state.done += 1;
    if let Some(payload) = payload {
        // First panic wins; later payloads are dropped.
        state.payload.get_or_insert(payload);
    }
    // Notify *while holding the guard*: the instant the mutex is released,
    // a submitter spinning in its help loop can observe `done == n` and
    // return, freeing the stack-allocated job — so the unlock must be this
    // thread's final touch of the job, with no condvar access after it.
    // (Releasing a mutex another thread then frees is the one
    // use-after-unlock std::sync::Mutex explicitly supports.)
    job.cv.notify_all();
    drop(state);
}

/// Background worker: drain the ring, then park on the gate condvar until
/// the wake generation moves (or shutdown). The generation re-check under
/// the lock closes the pop-raced-with-push window, so no wakeup is lost.
fn worker_loop(inner: &Inner) {
    loop {
        while let Some(ticket) = inner.queue.pop() {
            run_ticket(ticket);
        }
        let mut generation = inner.gate.lock().expect("pool gate");
        if inner.shutdown.load(Ordering::Acquire) {
            return;
        }
        if !inner.queue.is_empty() {
            continue;
        }
        let seen = *generation;
        while *generation == seen {
            generation = inner.cv.wait(generation).expect("pool gate condvar");
            if inner.shutdown.load(Ordering::Acquire) {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU32;

    /// Sizes shrink under Miri, where every interleaving is simulated.
    fn scale(n: usize) -> usize {
        if cfg!(miri) {
            n.min(4)
        } else {
            n
        }
    }

    #[test]
    fn runs_every_task_exactly_once() {
        for workers in [0, 1, 2, 4, 8] {
            let pool = WorkerPool::with_workers(scale(workers));
            let n = scale(64).max(8);
            let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
            let tasks: Vec<ScopedTask<'_>> = hits
                .iter()
                .map(|h| Box::new(move || { h.fetch_add(1, Ordering::Relaxed); }) as ScopedTask<'_>)
                .collect();
            pool.run_scoped(tasks);
            for (i, h) in hits.iter().enumerate() {
                assert_eq!(h.load(Ordering::Relaxed), 1, "task {i} at {workers} workers");
            }
        }
    }

    #[test]
    fn results_are_identical_across_pool_sizes() {
        // The pool only schedules; pre-chunked work must come out
        // bit-identical no matter how many workers execute it.
        let n = scale(32).max(4);
        let input: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let reference: Vec<u64> = input.iter().map(|&v| v.wrapping_pow(3) ^ 0xabcd).collect();
        for workers in [1usize, 2, 4, 8] {
            let pool = WorkerPool::with_workers(scale(workers));
            let mut out = vec![0u64; n];
            {
                let tasks: Vec<ScopedTask<'_>> = out
                    .iter_mut()
                    .zip(&input)
                    .map(|(slot, &v)| {
                        Box::new(move || *slot = v.wrapping_pow(3) ^ 0xabcd) as ScopedTask<'_>
                    })
                    .collect();
                pool.run_scoped(tasks);
            }
            assert_eq!(out, reference, "workers={workers}");
        }
    }

    #[test]
    fn pool_is_reused_not_respawned() {
        let pool = WorkerPool::with_workers(scale(3).max(1));
        let before = pool.spawned_workers();
        assert_eq!(before, pool.workers());
        for _ in 0..scale(20) {
            let counter = AtomicU32::new(0);
            let tasks: Vec<ScopedTask<'_>> = (0..4)
                .map(|_| Box::new(|| { counter.fetch_add(1, Ordering::Relaxed); }) as ScopedTask<'_>)
                .collect();
            pool.run_scoped(tasks);
            assert_eq!(counter.load(Ordering::Relaxed), 4);
        }
        assert_eq!(pool.spawned_workers(), before, "jobs must reuse workers, never respawn");
        assert_eq!(pool.jobs_run(), scale(20) as u64);
    }

    #[test]
    fn panicking_task_neither_deadlocks_nor_poisons() {
        let pool = WorkerPool::with_workers(scale(2).max(1));
        let spawned = pool.spawned_workers();
        let survivors = AtomicU32::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            let tasks: Vec<ScopedTask<'_>> = (0..6)
                .map(|i| {
                    let survivors = &survivors;
                    Box::new(move || {
                        if i == 2 {
                            panic!("injected task panic");
                        }
                        survivors.fetch_add(1, Ordering::Relaxed);
                    }) as ScopedTask<'_>
                })
                .collect();
            pool.run_scoped(tasks);
        }));
        assert!(result.is_err(), "the submitter must observe the panic");
        // Every non-panicking task still ran to completion first.
        assert_eq!(survivors.load(Ordering::Relaxed), 5);
        // The pool is not poisoned: same workers, next job succeeds.
        assert_eq!(pool.spawned_workers(), spawned);
        let after = AtomicU32::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..4)
            .map(|_| Box::new(|| { after.fetch_add(1, Ordering::Relaxed); }) as ScopedTask<'_>)
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(after.load(Ordering::Relaxed), 4);
    }

    #[test]
    fn panic_payload_is_preserved_for_the_submitter() {
        // The supervisor layers above classify caught payloads, so the
        // pool must re-raise the task's own payload, not a fresh message.
        for workers in [0usize, 2] {
            let pool = WorkerPool::with_workers(scale(workers));
            let result = catch_unwind(AssertUnwindSafe(|| {
                let tasks: Vec<ScopedTask<'_>> = (0..4)
                    .map(|i| {
                        Box::new(move || {
                            if i == 1 {
                                panic!("poison seq 42");
                            }
                        }) as ScopedTask<'_>
                    })
                    .collect();
                pool.run_scoped(tasks);
            }));
            let payload = result.expect_err("the submitter must observe the panic");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
                .expect("payload must survive the handoff");
            assert_eq!(msg, "poison seq 42", "workers={workers}");
        }
    }

    #[test]
    fn nested_run_scoped_makes_progress() {
        let pool = WorkerPool::with_workers(scale(2).max(1));
        let total = AtomicU32::new(0);
        let outer: Vec<ScopedTask<'_>> = (0..scale(4).max(2))
            .map(|_| {
                let total = &total;
                Box::new(move || {
                    let inner: Vec<ScopedTask<'_>> = (0..3)
                        .map(|_| {
                            Box::new(move || { total.fetch_add(1, Ordering::Relaxed); })
                                as ScopedTask<'_>
                        })
                        .collect();
                    WorkerPool::global().run_scoped(inner);
                }) as ScopedTask<'_>
            })
            .collect();
        let n = outer.len() as u32;
        pool.run_scoped(outer);
        assert_eq!(total.load(Ordering::Relaxed), 3 * n);
    }

    #[test]
    fn overflowing_the_ticket_ring_falls_back_inline() {
        let pool = WorkerPool::with_workers(1);
        let n = if cfg!(miri) { 8 } else { TICKET_RING_CAPACITY + 64 };
        let counter = AtomicU32::new(0);
        let tasks: Vec<ScopedTask<'_>> = (0..n)
            .map(|_| Box::new(|| { counter.fetch_add(1, Ordering::Relaxed); }) as ScopedTask<'_>)
            .collect();
        pool.run_scoped(tasks);
        assert_eq!(counter.load(Ordering::Relaxed) as usize, n);
    }

    #[test]
    fn thread_budget_parses_without_touching_env() {
        // The parse logic is tested directly — mutating JARVIS_THREADS with
        // set_var would race getenv on other libtest threads (UB on glibc).
        assert_eq!(thread_budget_from(Some("97")), 97);
        assert_eq!(thread_budget_from(Some("  8\t")), 8);
        let host = thread_budget_from(None);
        assert!(host >= 1);
        // Zero, negatives, and garbage all fall back to host parallelism.
        assert_eq!(thread_budget_from(Some("0")), host);
        assert_eq!(thread_budget_from(Some("-3")), host);
        assert_eq!(thread_budget_from(Some("lots")), host);
        assert_eq!(thread_budget_from(Some("")), host);
    }

    #[test]
    fn configured_threads_is_read_once() {
        // The knob is resolved once and cached for the life of the
        // process: repeated calls must agree with the first resolution.
        let first = configured_threads();
        assert!(first >= 1);
        assert_eq!(configured_threads(), first, "JARVIS_THREADS must be read once, not per call");
    }

    #[test]
    fn empty_job_is_a_noop() {
        let pool = WorkerPool::with_workers(1);
        pool.run_scoped(Vec::new());
        assert_eq!(pool.jobs_run(), 0);
    }
}
