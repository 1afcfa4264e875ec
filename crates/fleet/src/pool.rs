//! A fixed worker pool over a bounded queue.
//!
//! Sessions are CPU-bound (each one emulates a PE32 device and a PUF), so
//! the pool is plain `std::thread` workers pulling jobs from one bounded
//! MPSC channel. The bound is the backpressure: a producer enqueuing
//! faster than the fleet can attest blocks in [`WorkerPool::submit`]
//! instead of growing an unbounded backlog. Shutdown is graceful — the
//! queue is closed, workers drain what is already queued, then exit.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed set of worker threads draining one bounded job queue.
pub struct WorkerPool {
    sender: Option<SyncSender<Job>>,
    workers: Vec<JoinHandle<()>>,
    panicked: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `workers` threads behind a queue of `queue_depth` pending
    /// jobs (submissions beyond that block — that is the backpressure).
    ///
    /// # Panics
    ///
    /// Panics if `workers == 0`. A `queue_depth` of zero is a rendezvous
    /// channel: every submit waits for a worker to take the job directly.
    pub fn new(workers: usize, queue_depth: usize) -> Self {
        assert!(workers > 0, "worker pool needs at least one worker");
        let (sender, receiver) = sync_channel::<Job>(queue_depth);
        let receiver = Arc::new(Mutex::new(receiver));
        let panicked = Arc::new(AtomicU64::new(0));
        let handles = (0..workers)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let panicked = Arc::clone(&panicked);
                std::thread::Builder::new()
                    .name(format!("fleet-worker-{i}"))
                    .spawn(move || worker_loop(&receiver, &panicked))
                    .unwrap_or_else(|e| panic!("spawn fleet worker: {e}"))
            })
            .collect();
        WorkerPool { sender: Some(sender), workers: handles, panicked }
    }

    /// Enqueues a job, blocking while the queue is full.
    ///
    /// # Panics
    ///
    /// Panics if called after [`WorkerPool::shutdown`] (the pool owns no
    /// queue anymore) or if every worker died — both are caller bugs, not
    /// runtime conditions.
    pub fn submit<F: FnOnce() + Send + 'static>(&self, job: F) {
        let Some(sender) = self.sender.as_ref() else {
            panic!("submit after shutdown");
        };
        if sender.send(Box::new(job)).is_err() {
            panic!("all workers exited");
        }
    }

    /// Closes the queue, drains remaining jobs, joins every worker, and
    /// returns how many jobs panicked (their panics are contained, not
    /// propagated — one poisoned device must not take the campaign down).
    pub fn shutdown(mut self) -> u64 {
        self.drain();
        self.panicked.load(Ordering::Relaxed)
    }

    fn drain(&mut self) {
        // Dropping the sender closes the channel; workers exit when the
        // queue is empty.
        drop(self.sender.take());
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.drain();
    }
}

fn worker_loop(receiver: &Mutex<Receiver<Job>>, panicked: &AtomicU64) {
    loop {
        // Hold the lock only to take a job, never while running it. The
        // poison-tolerant lock matters here: a panicking job poisons this
        // mutex for every sibling worker, and `unwrap()` would turn one
        // contained panic into a dead pool.
        // analyze: allow(conc: recv under the receiver lock IS the handoff; the lock is this class's only member and nothing is acquired under it)
        let job = match crate::sync::lock_ranked(receiver, crate::sync::rank::POOL_RECEIVER).recv() {
            Ok(job) => job,
            Err(_) => return, // queue closed and empty
        };
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            panicked.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn runs_every_job_across_workers() {
        let pool = WorkerPool::new(4, 8);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.shutdown(), 0);
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn bounded_queue_applies_backpressure_without_deadlock() {
        // Depth 1 with a single worker: submits block until the worker
        // frees a slot, yet all jobs still complete.
        let pool = WorkerPool::new(1, 1);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..20 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.shutdown();
        assert_eq!(counter.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn panicking_jobs_are_contained_and_counted() {
        let pool = WorkerPool::new(2, 4);
        let counter = Arc::new(AtomicUsize::new(0));
        for i in 0..10 {
            let counter = Arc::clone(&counter);
            pool.submit(move || {
                if i % 2 == 0 {
                    panic!("job {i} failed");
                }
                counter.fetch_add(1, Ordering::Relaxed);
            });
        }
        assert_eq!(pool.shutdown(), 5, "five jobs panicked");
        assert_eq!(counter.load(Ordering::Relaxed), 5, "the others still ran");
    }

    #[test]
    fn drop_without_shutdown_still_drains() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(2, 4);
            for _ in 0..8 {
                let counter = Arc::clone(&counter);
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        }
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }
}
