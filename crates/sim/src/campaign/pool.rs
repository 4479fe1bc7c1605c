//! A bounded worker pool for simulation jobs.
//!
//! The seed driver spawned one OS thread per workload for every figure cell
//! (`std::thread::scope` in the old `run_suite`/`run_matched`) and aborted
//! the whole process when any simulation panicked. [`JobPool`] replaces that
//! with a fixed set of worker threads fed from a shared queue: batch size is
//! decoupled from thread count, independent batches interleave on the same
//! workers, and a panicking job is captured and surfaced as a per-job
//! [`JobPanic`] instead of tearing the campaign down.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

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

type Runnable = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size worker pool executing batches of jobs from a shared queue.
///
/// # Example
///
/// ```
/// use stms_sim::campaign::JobPool;
///
/// let pool = JobPool::new(2);
/// let results = pool.run_batch((0..8).map(|i| move || i * i).collect::<Vec<_>>());
/// let squares: Vec<i32> = results.into_iter().map(Result::unwrap).collect();
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct JobPool {
    queue: Option<Sender<Runnable>>,
    workers: Vec<JoinHandle<()>>,
    threads: usize,
}

impl fmt::Debug for JobPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("JobPool")
            .field("threads", &self.threads)
            .finish_non_exhaustive()
    }
}

impl JobPool {
    /// Creates a pool with `threads` workers (clamped to at least one).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (tx, rx) = channel::<Runnable>();
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..threads)
            .map(|i| {
                let rx = Arc::clone(&rx);
                std::thread::Builder::new()
                    .name(format!("stms-job-{i}"))
                    .spawn(move || worker_loop(&rx))
                    .expect("spawn job-pool worker thread")
            })
            .collect();
        JobPool {
            queue: Some(tx),
            workers,
            threads,
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

    /// Runs a batch of jobs and returns their results in submission order.
    ///
    /// The calling thread blocks until every job of the batch has finished;
    /// jobs of concurrently-submitted batches interleave on the same workers.
    /// A job that panics yields `Err(JobPanic)` in its slot without affecting
    /// the other jobs or the pool.
    pub fn run_batch<T, F>(&self, tasks: Vec<F>) -> Vec<Result<T, JobPanic>>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        self.submit_batch(tasks).run_to_completion()
    }

    /// Enqueues a batch of jobs without waiting for them, returning a handle
    /// that yields `(submission index, result)` pairs *in completion order*.
    ///
    /// This is the streaming primitive behind
    /// [`Campaign::run_figures`](crate::campaign::Campaign::run_figures):
    /// the caller can start consuming (and rendering) early results while
    /// later jobs are still running. Dropping the handle before draining it
    /// is safe — outstanding jobs still run to completion on the workers and
    /// their results are discarded.
    pub fn submit_batch<T, F>(&self, tasks: Vec<F>) -> BatchHandle<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        type Slot<T> = (usize, Result<T, JobPanic>);
        let count = tasks.len();
        let (result_tx, result_rx): (Sender<Slot<T>>, Receiver<Slot<T>>) = channel();
        let queue = self
            .queue
            .as_ref()
            .expect("job pool queue alive until drop");
        for (i, task) in tasks.into_iter().enumerate() {
            let result_tx = result_tx.clone();
            let job: Runnable = Box::new(move || {
                let outcome = catch_unwind(AssertUnwindSafe(task)).map_err(|payload| {
                    let message = if let Some(s) = payload.downcast_ref::<&str>() {
                        (*s).to_string()
                    } else if let Some(s) = payload.downcast_ref::<String>() {
                        s.clone()
                    } else {
                        "non-string panic payload".to_string()
                    };
                    JobPanic { message }
                });
                // The batch submitter may have given up (dropped the
                // handle); a dead receiver must not kill the worker.
                let _ = result_tx.send((i, outcome));
            });
            queue.send(job).expect("job pool workers alive");
        }
        BatchHandle {
            rx: result_rx,
            remaining: count,
        }
    }
}

/// In-flight batch returned by [`JobPool::submit_batch`]: an iterator over
/// `(submission index, result)` pairs in completion order.
#[derive(Debug)]
pub struct BatchHandle<T> {
    rx: Receiver<(usize, Result<T, JobPanic>)>,
    remaining: usize,
}

impl<T> BatchHandle<T> {
    /// Jobs of the batch that have not been yielded yet.
    pub fn remaining(&self) -> usize {
        self.remaining
    }

    /// Blocks until every job of the batch has finished and returns the
    /// results in submission order (the behaviour of
    /// [`JobPool::run_batch`]).
    ///
    /// # Panics
    ///
    /// Panics if some results were already consumed through the iterator —
    /// collect a batch either entirely by streaming or entirely here.
    pub fn run_to_completion(self) -> Vec<Result<T, JobPanic>> {
        let count = self.remaining;
        let mut results: Vec<Option<Result<T, JobPanic>>> = (0..count).map(|_| None).collect();
        for (i, outcome) in self {
            results[i] = Some(outcome);
        }
        results
            .into_iter()
            .map(|r| r.expect("every slot filled"))
            .collect()
    }
}

impl<T> Iterator for BatchHandle<T> {
    type Item = (usize, Result<T, JobPanic>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.remaining == 0 {
            return None;
        }
        self.remaining -= 1;
        Some(self.rx.recv().expect("every job reports exactly once"))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining, Some(self.remaining))
    }
}

impl<T> ExactSizeIterator for BatchHandle<T> {
    fn len(&self) -> usize {
        self.remaining
    }
}

impl Drop for JobPool {
    fn drop(&mut self) {
        // Closing the queue ends every worker's recv loop; join so no worker
        // outlives the pool.
        self.queue.take();
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Runnable>>) {
    loop {
        // Hold the queue lock only while dequeuing, never while running.
        let job = {
            let guard = rx.lock().unwrap_or_else(std::sync::PoisonError::into_inner);
            guard.recv()
        };
        match job {
            Ok(job) => job(),
            Err(_) => break, // queue closed: pool is being dropped
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn results_come_back_in_submission_order() {
        let pool = JobPool::new(4);
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
        let results = pool.run_batch(tasks);
        let values: Vec<i32> = results.into_iter().map(Result::unwrap).collect();
        assert_eq!(values, (0..32).collect::<Vec<_>>());
    }

    #[test]
    fn thread_count_is_bounded_and_clamped() {
        let pool = JobPool::new(0);
        assert_eq!(pool.threads(), 1);

        // With 2 workers and 8 jobs, at most 2 jobs run at once.
        let pool = JobPool::new(2);
        assert_eq!(pool.threads(), 2);
        let running = Arc::new(AtomicUsize::new(0));
        let peak = Arc::new(AtomicUsize::new(0));
        let tasks: Vec<_> = (0..8)
            .map(|_| {
                let running = Arc::clone(&running);
                let peak = Arc::clone(&peak);
                move || {
                    let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                    peak.fetch_max(now, Ordering::SeqCst);
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    running.fetch_sub(1, Ordering::SeqCst);
                }
            })
            .collect();
        for r in pool.run_batch(tasks) {
            r.unwrap();
        }
        assert!(peak.load(Ordering::SeqCst) <= 2);
        assert!(JobPool::default_threads() >= 1);
    }

    #[test]
    fn panicking_job_reports_error_without_poisoning_the_pool() {
        // Keep the worker's panic out of the test output.
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(|_| {}));
        let pool = JobPool::new(2);
        let results = pool.run_batch(vec![
            Box::new(|| 1) as Box<dyn FnOnce() -> i32 + Send>,
            Box::new(|| panic!("boom {}", 42)),
            Box::new(|| 3),
        ]);
        std::panic::set_hook(prev);

        assert_eq!(results.len(), 3);
        assert_eq!(*results[0].as_ref().unwrap(), 1);
        let err = results[1].as_ref().unwrap_err();
        assert!(err.message().contains("boom 42"), "{err}");
        assert!(err.to_string().contains("job panicked"));
        assert_eq!(*results[2].as_ref().unwrap(), 3);

        // The pool still works after a panic.
        let again = pool.run_batch(vec![|| "ok"]);
        assert_eq!(*again[0].as_ref().unwrap(), "ok");
    }

    #[test]
    fn submit_batch_streams_results_in_completion_order() {
        let pool = JobPool::new(2);
        // One slow job submitted first; fast jobs must be yielded before it
        // finishes even though it was submitted first.
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = vec![
            Box::new(|| {
                std::thread::sleep(std::time::Duration::from_millis(50));
                0
            }),
            Box::new(|| 1),
            Box::new(|| 2),
            Box::new(|| 3),
        ];
        let mut handle = pool.submit_batch(tasks);
        assert_eq!(handle.remaining(), 4);
        let (first_index, first) = handle.next().expect("four results");
        assert_ne!(first_index, 0, "the slow job cannot complete first");
        assert_eq!(*first.as_ref().unwrap(), first_index);
        let mut seen: Vec<usize> = vec![first_index];
        seen.extend(handle.map(|(i, r)| {
            assert_eq!(r.unwrap(), i);
            i
        }));
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3]);
    }

    #[test]
    fn dropping_a_batch_handle_leaves_the_pool_usable() {
        let pool = JobPool::new(1);
        drop(pool.submit_batch((0..4).map(|i| move || i).collect::<Vec<_>>()));
        let results = pool.run_batch(vec![|| 7]);
        assert_eq!(*results[0].as_ref().unwrap(), 7);
    }

    #[test]
    fn batches_from_multiple_threads_interleave_on_one_pool() {
        let pool = Arc::new(JobPool::new(2));
        let handles: Vec<_> = (0..3)
            .map(|batch| {
                let pool = Arc::clone(&pool);
                std::thread::spawn(move || {
                    let tasks: Vec<_> = (0..5).map(|i| move || batch * 10 + i).collect();
                    pool.run_batch(tasks)
                        .into_iter()
                        .map(Result::unwrap)
                        .collect::<Vec<i32>>()
                })
            })
            .collect();
        for (batch, handle) in handles.into_iter().enumerate() {
            let values = handle.join().unwrap();
            let expect: Vec<i32> = (0..5).map(|i| batch as i32 * 10 + i).collect();
            assert_eq!(values, expect);
        }
    }
}
