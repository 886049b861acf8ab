//! A thread budget for fanning one batch of borrowing jobs out over
//! `std::thread::scope`.
//!
//! The build environment has no crates.io access, so instead of `rayon`
//! this module provides the one primitive the engine needs: run a batch
//! of closures that borrow from the caller's stack across several threads
//! and return once every one of them has finished ([`WorkerPool::run`]).
//! Only the semi-naive fixpoint fans out, and only for rounds with enough
//! outer rows to amortise a thread spawn, so threads are spawned per
//! batch and nothing persists between batches.
//!
//! Design points:
//!
//! - **The caller works too.** A batch of `n` jobs spawns
//!   `min(threads, n) - 1` scoped threads; together with the calling
//!   thread they claim jobs through one atomic counter. `threads == 1`
//!   (or a single job) spawns nothing and runs the jobs inline, in
//!   submission order: the sequential fallback.
//! - **Deterministic results.** Results come back in submission order,
//!   no matter which thread ran which job.
//! - **Re-entrant.** A job may itself call `run`; the inner batch simply
//!   spawns its own scoped threads.
//! - **Panic-transparent.** Each job runs under `catch_unwind`. Once the
//!   whole batch has finished, the first panic in submission order is
//!   resumed on the calling thread.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::thread;

/// A thread budget for batches of borrowed jobs.
///
/// ```
/// use dynamite_datalog::pool::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let data = vec![1u64, 2, 3, 4, 5];
/// let squares = pool.run((0..data.len()).map(|i| {
///     let data = &data; // borrowed, not moved — `run` scopes the borrow
///     move || data[i] * data[i]
/// }));
/// assert_eq!(squares, vec![1, 4, 9, 16, 25]);
/// ```
pub struct WorkerPool {
    threads: usize,
}

impl WorkerPool {
    /// A budget of `threads` total workers per batch, the calling thread
    /// included. `threads` is clamped to at least 1.
    pub fn new(threads: usize) -> WorkerPool {
        WorkerPool {
            threads: threads.max(1),
        }
    }

    /// Total worker count, including the calling thread. `1` means every
    /// `run` executes its jobs inline, sequentially.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs every job in `jobs`, returning their results in submission
    /// order. Returns only after all jobs have completed, so jobs may
    /// borrow from the caller's stack. If a job panics, the first panic
    /// in submission order is resumed on the calling thread after the
    /// whole batch has run. If the OS refuses a thread, the batch runs
    /// on the threads it got.
    pub fn run<'scope, T, F, I>(&self, jobs: I) -> Vec<T>
    where
        T: Send + 'scope,
        F: FnOnce() -> T + Send + 'scope,
        I: IntoIterator<Item = F>,
    {
        let jobs: Vec<F> = jobs.into_iter().collect();
        let n = jobs.len();
        if self.threads == 1 || n <= 1 {
            return jobs.into_iter().map(|f| f()).collect();
        }
        // A job's slot is emptied by the one thread whose claim on the
        // counter returned its index; the lock is never held while a job
        // runs, so it is uncontended. Its only critical section is a
        // `take()`, which leaves the slot valid even if it panicked, so
        // a poisoned slot is recovered. The counter can be `Relaxed`: it
        // publishes no data (jobs travel through their slot's mutex,
        // results through the scope's joins).
        let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|f| Mutex::new(Some(f))).collect();
        let next = AtomicUsize::new(0);
        let work = || {
            let mut done = Vec::new();
            loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(slot) = jobs.get(i) else {
                    return done;
                };
                let job = slot
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    .expect("each job is claimed once");
                done.push((i, catch_unwind(AssertUnwindSafe(job))));
            }
        };
        let mut done = thread::scope(|s| {
            let workers: Vec<_> = (1..self.threads.min(n))
                .filter_map(|i| {
                    thread::Builder::new()
                        .name(format!("dynamite-worker-{i}"))
                        .spawn_scoped(s, work)
                        .ok()
                })
                .collect();
            let mut done = work();
            for w in workers {
                done.extend(w.join().expect("job panics are caught"));
            }
            done
        });
        // Every index was claimed exactly once, so sorting restores
        // submission order.
        done.sort_unstable_by_key(|&(i, _)| i);
        done.into_iter()
            .map(|(_, r)| r.unwrap_or_else(|panic| resume_unwind(panic)))
            .collect()
    }
}

/// The `DYNAMITE_THREADS` environment override, if it is set to a valid
/// positive integer (anything else — unset, unparseable, zero — is
/// ignored rather than silently clobbering an explicit request). Read
/// once per process.
fn env_threads() -> Option<usize> {
    static ENV: OnceLock<Option<usize>> = OnceLock::new();
    *ENV.get_or_init(|| {
        std::env::var("DYNAMITE_THREADS")
            .ok()?
            .trim()
            .parse::<usize>()
            .ok()
            .filter(|&n| n >= 1)
    })
}

/// Resolves a configured thread count: a *valid* `DYNAMITE_THREADS`
/// environment override wins, then the explicit request, then the
/// machine's available parallelism (read once per process).
pub fn resolve_threads(requested: Option<usize>) -> usize {
    static AVAILABLE: OnceLock<usize> = OnceLock::new();
    if let Some(n) = env_threads() {
        return n;
    }
    requested.map_or_else(
        || *AVAILABLE.get_or_init(|| thread::available_parallelism().map_or(1, usize::from)),
        |n| n.max(1),
    )
}

/// A pool with `requested` workers, resolved by [`resolve_threads`].
pub fn with_threads(requested: Option<usize>) -> Arc<WorkerPool> {
    Arc::new(WorkerPool::new(resolve_threads(requested)))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(threads, jobs)`: more threads than jobs, as many threads as
    /// jobs, and many more jobs than threads.
    const SHAPES: [(usize, usize); 4] = [(8, 3), (4, 4), (4, 64), (3, 1000)];

    #[test]
    fn results_come_back_in_submission_order() {
        for (threads, jobs) in SHAPES {
            let pool = WorkerPool::new(threads);
            let out = pool.run((0..jobs).map(|i| move || i * 2));
            assert_eq!(
                out,
                (0..jobs).map(|i| i * 2).collect::<Vec<_>>(),
                "{threads} threads, {jobs} jobs"
            );
        }
    }

    #[test]
    fn single_thread_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let tid = std::thread::current().id();
        let ids = pool.run((0..8).map(|_| move || std::thread::current().id()));
        assert!(ids.iter().all(|&id| id == tid));
    }

    #[test]
    fn jobs_may_borrow_caller_data() {
        for (threads, jobs) in SHAPES {
            let pool = WorkerPool::new(threads);
            let data: Vec<String> = (0..jobs).map(|i| format!("row-{i}")).collect();
            let lens = pool.run(data.iter().map(|s| move || s.len()));
            assert_eq!(
                lens,
                data.iter().map(String::len).collect::<Vec<_>>(),
                "{threads} threads, {jobs} jobs"
            );
        }
    }

    #[test]
    fn nested_runs_do_not_deadlock() {
        let pool = Arc::new(WorkerPool::new(3));
        let outer = pool.clone();
        let sums = outer.run((0..4u64).map(|i| {
            let pool = pool.clone();
            move || {
                pool.run((0..8u64).map(|j| move || i * 10 + j))
                    .iter()
                    .sum::<u64>()
            }
        }));
        let expect: Vec<u64> = (0..4u64)
            .map(|i| (0..8u64).map(|j| i * 10 + j).sum())
            .collect();
        assert_eq!(sums, expect);
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let pool = WorkerPool::new(2);
        let out: Vec<u8> = pool.run(std::iter::empty::<fn() -> u8>());
        assert!(out.is_empty());
    }

    #[test]
    fn panics_propagate_to_the_caller() {
        let pool = WorkerPool::new(2);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..4).map(|i| {
                move || {
                    if i == 2 {
                        panic!("job {i} exploded");
                    }
                    i
                }
            }))
        }));
        assert!(r.is_err());
        // The pool survives a panicking batch.
        let out = pool.run((0..4).map(|i| move || i + 1));
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.run([|| 7].into_iter()), vec![7]);
    }

    #[test]
    fn panicking_job_does_not_deadlock_and_siblings_still_complete() {
        // A panicked job's caught result comes back like any other, so
        // the caller neither deadlocks nor abandons sibling
        // jobs: every non-panicking job runs to completion before the
        // panic resumes.
        let pool = WorkerPool::new(4);
        let completed = AtomicUsize::new(0);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..16).map(|i| {
                let completed = &completed;
                move || {
                    if i == 3 {
                        panic!("job {i} exploded");
                    }
                    completed.fetch_add(1, Ordering::SeqCst);
                }
            }))
        }));
        assert!(r.is_err());
        assert_eq!(completed.load(Ordering::SeqCst), 15);
    }

    #[test]
    fn first_panic_in_submission_order_is_the_one_resumed() {
        // With several panicking jobs, the whole batch still runs and
        // the caller observes the earliest job's panic payload —
        // deterministic regardless of which worker ran what.
        let pool = WorkerPool::new(4);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..8).map(|i| {
                move || {
                    if i == 2 || i == 5 {
                        panic!("boom-{i}");
                    }
                    i
                }
            }))
        }));
        let payload = r.expect_err("a job panicked");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic carries its message");
        assert_eq!(msg, "boom-2");
    }

    #[test]
    fn pool_stays_usable_across_repeated_panicking_batches() {
        let pool = WorkerPool::new(3);
        for round in 0..3 {
            let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
                pool.run((0..6).map(|i| {
                    move || {
                        if i == round {
                            panic!("round {round} job {i}");
                        }
                        i * 10
                    }
                }))
            }));
            assert!(r.is_err(), "round {round} must propagate its panic");
            // The very next batch on the same pool behaves normally.
            let out = pool.run((0..6).map(|i| move || i * 10));
            assert_eq!(out, vec![0, 10, 20, 30, 40, 50]);
        }
    }

    #[test]
    fn inline_path_panics_propagate_too() {
        // threads == 1 runs jobs inline; the panic surfaces directly and
        // the pool remains usable.
        let pool = WorkerPool::new(1);
        let r = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run((0..3).map(|i| {
                move || {
                    if i == 1 {
                        panic!("inline");
                    }
                    i
                }
            }))
        }));
        assert!(r.is_err());
        assert_eq!(pool.run((0..3).map(|i| move || i)), vec![0, 1, 2]);
    }
}
