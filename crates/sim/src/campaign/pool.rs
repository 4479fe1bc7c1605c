//! Panic-safe parallel execution of one batch of simulation jobs.
//!
//! [`JobPool::for_each`] runs a batch on scoped worker threads that borrow
//! the caller's state and end with the batch, so batch size is decoupled
//! from thread count and a panicking job is captured and surfaced as a
//! per-job [`JobPanic`] instead of tearing the campaign down.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::channel;
use std::sync::{Mutex, PoisonError};

/// A captured panic from one pool job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JobPanic {
    message: String,
}

impl JobPanic {
    /// The panic payload rendered as text (`"non-string panic payload"` when
    /// the payload was neither `&str` nor `String`).
    pub fn message(&self) -> &str {
        &self.message
    }
}

impl fmt::Display for JobPanic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "job panicked: {}", self.message)
    }
}

impl std::error::Error for JobPanic {}

/// Runs `task`, capturing a panic as a [`JobPanic`].
fn run_caught<T>(task: impl FnOnce() -> T) -> Result<T, JobPanic> {
    catch_unwind(AssertUnwindSafe(task)).map_err(|payload| {
        let message = if let Some(s) = payload.downcast_ref::<&str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "non-string panic payload".to_string()
        };
        JobPanic { message }
    })
}

/// A bounded worker count for running batches of jobs.
///
/// # Example
///
/// ```
/// use stms_sim::campaign::JobPool;
///
/// let mut squares = vec![0; 8];
/// JobPool::new(2).for_each((0..8).map(|i| move || i * i).collect(), |i, square| {
///     squares[i] = square.unwrap();
/// });
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug, Clone, Copy)]
pub struct JobPool {
    threads: usize,
}

impl JobPool {
    /// A pool of `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        JobPool {
            threads: threads.max(1),
        }
    }

    /// A thread count sized to the machine (`available_parallelism`,
    /// falling back to one worker when the parallelism cannot be queried).
    pub fn default_threads() -> usize {
        std::thread::available_parallelism()
            .map(std::num::NonZeroUsize::get)
            .unwrap_or(1)
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Runs a batch of jobs, handing `deliver` each `(submission index,
    /// result)` pair on the calling thread *in completion order*, and
    /// returns once every job has finished.
    ///
    /// The batch runs on `min(threads, tasks)` scoped workers, which take
    /// the tasks in submission order; a one-worker batch runs on the
    /// calling thread. A job that panics yields `Err(JobPanic)` without
    /// affecting the other jobs.
    pub fn for_each<T, F>(&self, tasks: Vec<F>, mut deliver: impl FnMut(usize, Result<T, JobPanic>))
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let workers = self.threads.min(tasks.len());
        if workers <= 1 {
            for (i, task) in tasks.into_iter().enumerate() {
                deliver(i, run_caught(task));
            }
            return;
        }
        let queue = Mutex::new(tasks.into_iter().enumerate());
        let (result_tx, result_rx) = channel();
        std::thread::scope(|scope| {
            for _ in 0..workers {
                let (queue, result_tx) = (&queue, result_tx.clone());
                scope.spawn(move || loop {
                    // Hold the queue lock only while dequeuing, never while
                    // running.
                    let next = queue.lock().unwrap_or_else(PoisonError::into_inner).next();
                    let Some((i, task)) = next else { break };
                    if result_tx.send((i, run_caught(task))).is_err() {
                        break; // the caller is unwinding out of `deliver`
                    }
                });
            }
            drop(result_tx);
            for (i, outcome) in result_rx {
                deliver(i, outcome);
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Every result of a batch, in submission order.
    fn collect<T: Send, F: FnOnce() -> T + Send>(
        pool: JobPool,
        tasks: Vec<F>,
    ) -> Vec<Result<T, JobPanic>> {
        let mut results: Vec<Option<_>> = (0..tasks.len()).map(|_| None).collect();
        pool.for_each(tasks, |i, outcome| results[i] = Some(outcome));
        results.into_iter().map(Option::unwrap).collect()
    }

    #[test]
    fn results_come_back_in_submission_order() {
        let tasks: Vec<_> = (0..32)
            .map(|i| {
                move || {
                    // Stagger so completion order differs from submission.
                    std::thread::sleep(std::time::Duration::from_micros(
                        ((32 - i) % 7) as u64 * 100,
                    ));
                    i
                }
            })
            .collect();
        assert_eq!(
            collect(JobPool::new(4), tasks),
            (0..32).map(Ok).collect::<Vec<_>>()
        );
    }

    #[test]
    fn thread_count_is_bounded_and_clamped() {
        assert_eq!(JobPool::new(0).threads(), 1);

        // With 2 workers and 8 jobs, at most 2 jobs run at once.
        let pool = JobPool::new(2);
        assert_eq!(pool.threads(), 2);
        let running = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        for r in collect(pool, tasks) {
            r.unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert!(JobPool::default_threads() >= 1);

        // A one-worker batch runs on the calling thread.
        let caller = std::thread::current().id();
        let on_caller = |pool: JobPool, tasks: usize| {
            let tasks = (0..tasks).map(|_| move || std::thread::current().id() == caller);
            collect(pool, tasks.collect())
        };
        assert_eq!(on_caller(JobPool::new(1), 3), vec![Ok(true); 3]);
        assert_eq!(on_caller(JobPool::new(8), 1), vec![Ok(true)]);
        assert_eq!(on_caller(JobPool::new(2), 4), vec![Ok(false); 4]);
    }

    #[test]
    fn panicking_job_reports_error_without_poisoning_the_pool() {
        // Keep the worker's panic out of the test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = JobPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> i32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("boom {}", 42)),
            Box::new(|| 3),
        ];
        let results = collect(pool, tasks);
        std::panic::set_hook(prev);

        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().unwrap(), 1);
        let err = results[1].as_ref().unwrap_err();
        assert!(err.message().contains("boom 42"), "{err}");
        assert!(err.to_string().contains("job panicked"));
        assert_eq!(*results[2].as_ref().unwrap(), 3);

        // The pool still works after a panic.
        let again = collect(pool, vec![|| "ok", || "again"]);
        assert_eq!(*again[0].as_ref().unwrap(), "ok");
    }

    #[test]
    fn for_each_streams_results_in_completion_order() {
        // The job submitted first finishes only after another job's result
        // has been delivered, so delivery cannot wait for submission order.
        let (delivered, first_delivery) = std::sync::mpsc::channel::<()>();
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(move || {
                first_delivery.recv().unwrap();
                0
            }),
            Box::new(|| 1),
            Box::new(|| 2),
            Box::new(|| 3),
        ];
        let mut seen = Vec::new();
        JobPool::new(2).for_each(tasks, |i, r| {
            assert_eq!(r.unwrap(), i);
            seen.push(i);
            let _ = delivered.send(());
        });
        assert_ne!(seen[0], 0, "the slow job cannot complete first");
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn batches_from_multiple_threads_share_one_pool() {
        let pool = JobPool::new(2);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..3)
                .map(|batch| {
                    scope.spawn(move || {
                        collect(pool, (0..5).map(|i| move || batch * 10 + i).collect())
                    })
                })
                .collect();
            for (batch, handle) in handles.into_iter().enumerate() {
                let expect: Vec<_> = (0..5).map(|i| Ok(batch as i32 * 10 + i)).collect();
                assert_eq!(handle.join().unwrap(), expect);
            }
        });
    }
}
