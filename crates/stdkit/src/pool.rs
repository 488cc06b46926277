//! Scoped fork/join over borrowed tasks.
//!
//! [`WorkerPool::run_scoped`] runs a batch of borrowed closures on the
//! calling thread plus at most [`WorkerPool::with_workers`] helper threads
//! spawned in one [`std::thread::scope`]. Every thread claims the next
//! unclaimed task index from a shared atomic counter until none are left,
//! and the scope joins every helper before the call returns. Its user is
//! per-home background fine-tuning, where one call launches milliseconds of
//! replay work, so a fresh scope per call (≈0.3 ms for 8 tasks) is cheap
//! next to what it runs.
//!
//! # Determinism
//!
//! The pool schedules *which thread* runs a task, never *what* the task
//! computes: callers pre-split their work into tasks that write disjoint
//! outputs, so results are bit-identical at every pool size, including
//! zero workers (every task then runs inline, in index order).
//!
//! # Panic safety
//!
//! Every task runs under its own `catch_unwind`, so a panicking task
//! neither stops its thread from claiming more work nor leaves a task
//! unrun. After all tasks finish, the payload of the *lowest-index*
//! panicking task is re-raised on the submitting thread
//! ([`std::panic::resume_unwind`]); later payloads are dropped. Which
//! payload wins therefore never depends on timing, and the supervisor
//! above can classify it as if the task had panicked inline.

use std::any::Any;
use std::num::NonZeroUsize;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

/// A boxed scoped task. The lifetime is the borrow of the caller's data;
/// [`WorkerPool::run_scoped`] runs every task before it returns.
pub type ScopedTask<'s> = Box<dyn FnOnce() + Send + 's>;

/// A task's index and the payload it panicked with.
type Panicked = (usize, Box<dyn Any + Send>);

/// A scoped fork/join runner (see the module docs). Use
/// [`WorkerPool::global`] for the process-wide instance;
/// [`WorkerPool::with_workers`] sizes private ones.
pub struct WorkerPool {
    workers: usize,
    jobs: AtomicU64,
}

impl WorkerPool {
    /// The process-wide pool: `available_parallelism() - 1` helper threads
    /// per call (the caller is the remaining one).
    #[must_use]
    pub fn global() -> &'static WorkerPool {
        static GLOBAL: OnceLock<WorkerPool> = OnceLock::new();
        GLOBAL.get_or_init(|| {
            let threads = std::thread::available_parallelism().map_or(1, NonZeroUsize::get);
            WorkerPool::with_workers(threads - 1)
        })
    }

    /// A pool that spawns at most `workers` helper threads per call (0 is
    /// valid: every task then runs inline on the submitting thread).
    #[must_use]
    pub const fn with_workers(workers: usize) -> WorkerPool {
        WorkerPool { workers, jobs: AtomicU64::new(0) }
    }

    /// Non-empty task batches run through this pool since it was built.
    #[must_use]
    pub fn jobs_run(&self) -> u64 {
        // ordering: Relaxed — monotonic stat counter; readers look after
        // the join points that already order the increments.
        self.jobs.load(Ordering::Relaxed)
    }

    /// Run every task to completion, borrowing the caller's data for the
    /// duration of the call. Tasks run on this thread and on up to
    /// `workers` helpers, never more helpers than there are tasks beyond
    /// the first.
    ///
    /// # Panics
    ///
    /// Re-raises the lowest-index panicking task's original payload after
    /// all tasks finish.
    pub fn run_scoped<'s>(&self, tasks: Vec<ScopedTask<'s>>) {
        if tasks.is_empty() {
            return;
        }
        // ordering: Relaxed — monotonic stat counter (see `jobs_run`).
        self.jobs.fetch_add(1, Ordering::Relaxed);
        let helpers = self.workers.min(tasks.len() - 1);
        let slots: Vec<Mutex<Option<ScopedTask<'s>>>> =
            tasks.into_iter().map(|task| Mutex::new(Some(task))).collect();
        let next = AtomicUsize::new(0);
        let first = std::thread::scope(|scope| {
            let handles: Vec<_> =
                (0..helpers).map(|_| scope.spawn(|| run_claimed(&slots, &next))).collect();
            let mut first = run_claimed(&slots, &next);
            for handle in handles {
                // invariant: run_claimed catches every task panic, so a
                // helper thread never unwinds.
                let theirs = handle.join().expect("pool helpers never unwind");
                first = first.into_iter().chain(theirs).min_by_key(|&(index, _)| index);
            }
            first
        });
        if let Some((_, payload)) = first {
            resume_unwind(payload);
        }
    }
}

/// Claim and run tasks until the counter passes the last one. Returns this
/// thread's first (and so lowest-index, since claims ascend) panic.
fn run_claimed(slots: &[Mutex<Option<ScopedTask<'_>>>], next: &AtomicUsize) -> Option<Panicked> {
    let mut first = None;
    loop {
        // ordering: Relaxed — the counter only hands out distinct indices;
        // each slot's mutex and the scope join order the tasks' effects.
        let index = next.fetch_add(1, Ordering::Relaxed);
        let Some(slot) = slots.get(index) else { return first };
        // invariant: the slot lock is held only for this `take`, which
        // cannot panic, so the mutex is never poisoned.
        let task = slot.lock().expect("pool task slot").take();
        if let Some(payload) = task.and_then(|task| catch_unwind(AssertUnwindSafe(task)).err()) {
            first.get_or_insert((index, payload));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU32;

    /// Sizes shrink under Miri, where every interleaving is simulated.
    fn scale(n: usize) -> usize {
        if cfg!(miri) {
            n.min(4)
        } else {
            n
        }
    }

    /// The panic message a caught payload carries.
    fn message(payload: &(dyn Any + Send)) -> &str {
        payload
            .downcast_ref::<&str>()
            .copied()
            .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
            .expect("payload must survive the handoff")
    }

    #[test]
    fn runs_every_task_exactly_once() {
        // Fewer tasks than threads, and far more (each thread then claims
        // many tasks from the counter).
        for workers in [0, 1, 2, 4, 8] {
            let pool = WorkerPool::with_workers(scale(workers));
            let sizes = [1, 3, scale(300)];
            for n in sizes {
                let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
                let threads = Mutex::new(HashSet::new());
                let tasks: Vec<ScopedTask<'_>> = hits
                    .iter()
                    .map(|h| {
                        let threads = &threads;
                        Box::new(move || {
                            h.fetch_add(1, Ordering::Relaxed);
                            threads.lock().unwrap().insert(std::thread::current().id());
                        }) as ScopedTask<'_>
                    })
                    .collect();
                pool.run_scoped(tasks);
                for (i, h) in hits.iter().enumerate() {
                    assert_eq!(h.load(Ordering::Relaxed), 1, "task {i}/{n} at {workers} workers");
                }
                let used = threads.into_inner().unwrap().len();
                assert!(used <= (scale(workers) + 1).min(n), "{used} threads for {n} tasks");
            }
            assert_eq!(pool.jobs_run(), sizes.len() as u64);
        }
    }

    #[test]
    fn overflowing_the_ticket_ring_falls_back_inline() {
        // A batch larger than any fixed task buffer (320 > 256 slots) with
        // one helper: the submitting thread and that helper between them
        // claim every task exactly once, and no third thread joins in.
        let pool = WorkerPool::with_workers(1);
        let n = if cfg!(miri) { 8 } else { 320 };
        let hits: Vec<AtomicU32> = (0..n).map(|_| AtomicU32::new(0)).collect();
        let threads = Mutex::new(HashSet::new());
        let tasks: Vec<ScopedTask<'_>> = hits
            .iter()
            .map(|h| {
                let threads = &threads;
                Box::new(move || {
                    h.fetch_add(1, Ordering::Relaxed);
                    threads.lock().unwrap().insert(std::thread::current().id());
                }) as ScopedTask<'_>
            })
            .collect();
        pool.run_scoped(tasks);
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        assert!(threads.into_inner().unwrap().len() <= 2);
        assert_eq!(pool.jobs_run(), 1);
    }

    #[test]
    fn results_are_identical_across_pool_sizes() {
        // The pool only schedules; pre-chunked work must come out
        // bit-identical no matter how many workers execute it.
        let n = scale(32).max(4);
        let input: Vec<u64> = (0..n as u64).map(|i| i.wrapping_mul(0x9e37_79b9)).collect();
        let reference: Vec<u64> = input.iter().map(|&v| v.wrapping_pow(3) ^ 0xabcd).collect();
        for workers in [0usize, 1, 2, 4, 8] {
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
    fn panicking_task_neither_deadlocks_nor_poisons() {
        for workers in [0usize, 2] {
            let pool = WorkerPool::with_workers(scale(workers));
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
            assert_eq!(survivors.load(Ordering::Relaxed), 5, "workers={workers}");
            // The pool is not poisoned: the next job succeeds.
            let after = AtomicU32::new(0);
            let tasks: Vec<ScopedTask<'_>> = (0..4)
                .map(|_| Box::new(|| { after.fetch_add(1, Ordering::Relaxed); }) as ScopedTask<'_>)
                .collect();
            pool.run_scoped(tasks);
            assert_eq!(after.load(Ordering::Relaxed), 4);
        }
    }

    #[test]
    fn panic_payload_is_preserved_for_the_submitter() {
        // The supervisor layers above classify caught payloads, so the
        // pool must re-raise the task's own payload, not a fresh message —
        // and with several panics, the lowest index's, whatever the timing.
        for workers in [0usize, 1, 2, 4] {
            let pool = WorkerPool::with_workers(scale(workers));
            for panicking in [&[1usize][..], &[1, 3]] {
                // With a helper, task 1 waits until task 3 has panicked, so
                // the higher index panics first. Inline, tasks run in index
                // order and nobody could send.
                let (sent, waited) = std::sync::mpsc::channel::<()>();
                let waited = Mutex::new(waited);
                let wait = workers > 0 && panicking.contains(&3);
                let result = catch_unwind(AssertUnwindSafe(|| {
                    let tasks: Vec<ScopedTask<'_>> = (0..4)
                        .map(|i| {
                            let (sent, waited) = (&sent, &waited);
                            Box::new(move || {
                                if !panicking.contains(&i) {
                                    return;
                                }
                                if i == 3 {
                                    sent.send(()).unwrap();
                                } else if wait {
                                    waited.lock().unwrap().recv().unwrap();
                                }
                                panic!("poison seq {i}");
                            }) as ScopedTask<'_>
                        })
                        .collect();
                    pool.run_scoped(tasks);
                }));
                let payload = result.expect_err("the submitter must observe the panic");
                assert_eq!(
                    message(payload.as_ref()),
                    "poison seq 1",
                    "workers={workers} panicking={panicking:?}"
                );
            }
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
    fn empty_job_is_a_noop() {
        let pool = WorkerPool::with_workers(1);
        pool.run_scoped(Vec::new());
        assert_eq!(pool.jobs_run(), 0);
    }
}
