//! A small fixed-size worker pool for request-side parallelism.
//!
//! Heavy tagged TCP requests (batches of 256+ vectors and triggered
//! `refine` runs) take one job each on these workers, off the shard
//! threads; the pool is deliberately boring: long-lived named threads, one shared
//! job channel, panic isolation per job (a panicking handler yields a
//! typed error to one client instead of killing the server), and a
//! draining `Drop`.

use crate::lock_recover;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed pool of worker threads executing submitted jobs.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl WorkerPool {
    /// Spawns `threads` workers (clamped to at least 1).
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn new(threads: usize) -> Self {
        Self::with_thread_init(threads, |_| {})
    }

    /// Spawns `threads` workers (clamped to at least 1), calling `init`
    /// with the worker's index on each worker thread before it starts
    /// taking jobs — the server uses this to bind each worker to its
    /// telemetry lane.
    ///
    /// # Panics
    ///
    /// Panics if the operating system refuses to spawn a thread.
    #[must_use]
    pub fn with_thread_init(threads: usize, init: impl Fn(usize) + Send + Sync + 'static) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let init = Arc::new(init);
        let workers = (0..threads.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let init = Arc::clone(&init);
                std::thread::Builder::new()
                    .name(format!("mps-serve-worker-{i}"))
                    .spawn(move || {
                        init(i);
                        worker_loop(&rx);
                    })
                    .expect("spawn worker thread")
            })
            .collect();
        Self {
            tx: Some(tx),
            workers,
        }
    }

    /// Number of worker threads.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Submits a fire-and-forget job (the server uses this directly for
    /// heavy tagged TCP requests: the job itself hands its reply back to
    /// the owning shard).
    pub(crate) fn execute(&self, job: impl FnOnce() + Send + 'static) {
        self.tx
            .as_ref()
            .expect("pool alive while not dropped")
            .send(Box::new(job))
            .expect("workers outlive the sender");
    }

    /// Runs one job on the pool and blocks for its result.
    ///
    /// # Errors
    ///
    /// Returns `Err` when the job panicked; the worker survives.
    pub fn run<R, F>(&self, job: F) -> Result<R, PoolError>
    where
        R: Send + 'static,
        F: FnOnce() -> R + Send + 'static,
    {
        let (tx, rx) = channel();
        self.execute(move || {
            let result = catch_unwind(AssertUnwindSafe(job));
            let _ = tx.send(result);
        });
        rx.recv().map_err(|_| PoolError)?.map_err(|_| PoolError)
    }

    /// Maps `f` over `items` on the pool, preserving input order in the
    /// result. Blocks until every item is done.
    ///
    /// # Errors
    ///
    /// Returns `Err` when any job panicked (after every job finished);
    /// the workers survive.
    pub fn map_in_order<T, R, F>(&self, items: Vec<T>, f: F) -> Result<Vec<R>, PoolError>
    where
        T: Send + 'static,
        R: Send + 'static,
        F: Fn(T) -> R + Send + Sync + 'static,
    {
        let n = items.len();
        if n == 0 {
            return Ok(Vec::new());
        }
        let f = Arc::new(f);
        let (tx, rx) = channel();
        for (i, item) in items.into_iter().enumerate() {
            let f = Arc::clone(&f);
            let tx = tx.clone();
            self.execute(move || {
                let result = catch_unwind(AssertUnwindSafe(|| f(item)));
                let _ = tx.send((i, result));
            });
        }
        drop(tx);
        let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
        let mut panicked = false;
        for _ in 0..n {
            let (i, result) = rx.recv().map_err(|_| PoolError)?;
            match result {
                Ok(r) => slots[i] = Some(r),
                Err(_) => panicked = true,
            }
        }
        if panicked {
            return Err(PoolError);
        }
        Ok(slots
            .into_iter()
            .map(|s| s.expect("every index answered"))
            .collect())
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the channel ends every worker loop; join so no job is
        // still running when the pool's owner tears down.
        drop(self.tx.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>) {
    loop {
        let job = {
            // Poison recovery: a panic between lock and recv (there is
            // no code there today, but the channel stays valid at any
            // interleaving) must not stop every other worker.
            let guard = lock_recover(rx);
            guard.recv()
        };
        match job {
            // The last line of panic isolation: `run`/`map_in_order`
            // catch inside their own jobs, but raw `execute` jobs (the
            // server's) must not be able to kill a worker.
            Ok(job) => drop(catch_unwind(AssertUnwindSafe(job))),
            Err(_) => break, // pool dropped
        }
    }
}

/// A job submitted to the pool panicked (the worker itself survived).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolError;

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("a pool job panicked")
    }
}

impl std::error::Error for PoolError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_returns_results_and_survives_panics() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        assert_eq!(pool.run(|| 21 * 2).unwrap(), 42);
        assert_eq!(pool.run(|| -> i32 { panic!("boom") }), Err(PoolError));
        // The worker that caught the panic still serves.
        assert_eq!(pool.run(|| "alive").unwrap(), "alive");
    }

    #[test]
    fn map_in_order_preserves_order() {
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..100).collect();
        let out = pool.map_in_order(items, |x| x * x).unwrap();
        assert_eq!(out, (0..100).map(|x| x * x).collect::<Vec<_>>());
        assert!(pool
            .map_in_order(Vec::<usize>::new(), |x| x)
            .unwrap()
            .is_empty());
    }

    #[test]
    fn map_in_order_reports_panics_without_killing_workers() {
        let pool = WorkerPool::new(2);
        let result = pool.map_in_order(vec![1usize, 2, 3], |x| {
            assert!(x != 2, "poisoned item");
            x
        });
        assert_eq!(result, Err(PoolError));
        assert_eq!(pool.run(|| 7).unwrap(), 7);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
        assert_eq!(pool.run(|| 1).unwrap(), 1);
    }
}
