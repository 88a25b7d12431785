//! Fixed-size worker pool over `std::thread` + `std::sync::mpsc`.
//!
//! Jobs are boxed closures pulled from a single shared channel guarded by
//! a mutex (the receiver side of `mpsc` is single-consumer, so workers
//! take turns holding the lock just long enough to dequeue — the classic
//! std-only work queue). Dropping the pool closes the channel, lets every
//! queued job finish, and joins the workers; a pool is therefore safe to
//! use from `Drop` order anywhere in the service. A job may hold the
//! pool's last owner, so the pool can be dropped on one of its own
//! workers: that worker is detached rather than joined, and exits once
//! its job returns.
//!
//! A panicking job must not shrink the pool: jobs run under
//! [`std::panic::catch_unwind`], so the worker survives, counts the
//! panic (surfaced as `worker_panics` in the service stats), and keeps
//! draining the queue. Before this guard a single bad query would
//! silently retire its worker thread, degrading capacity one panic at a
//! time until every `submit` queued behind a pool of corpses.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::Instant;

use crate::sync::lock_or_poison;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// Shared gauges updated by `submit` and the worker loop: the number of
/// jobs submitted but not yet dequeued, and the cumulative wall-clock
/// the workers spent running jobs. `queue_depth > 0` under steady load
/// means the pool is saturated; `busy_ns / (workers · uptime)` is pool
/// utilization.
#[derive(Debug, Default)]
struct PoolGauges {
    queued: AtomicU64,
    busy_ns: AtomicU64,
    panics: AtomicU64,
}

/// A fixed set of worker threads executing submitted jobs FIFO.
#[derive(Debug)]
pub struct WorkerPool {
    tx: Option<Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
    gauges: Arc<PoolGauges>,
}

impl WorkerPool {
    /// Spawns `workers` threads (floored at 1).
    #[expect(
        clippy::expect_used,
        reason = "pool construction runs at service startup, before any connection \
                  exists to receive a typed error; a failed spawn is resource \
                  exhaustion that must abort boot"
    )]
    pub fn new(workers: usize) -> Self {
        let (tx, rx) = channel::<Job>();
        let rx = Arc::new(Mutex::new(rx));
        let gauges = Arc::new(PoolGauges::default());
        let workers = (0..workers.max(1))
            .map(|i| {
                let rx = Arc::clone(&rx);
                let gauges = Arc::clone(&gauges);
                std::thread::Builder::new()
                    .name(format!("ic-worker-{i}"))
                    .spawn(move || worker_loop(&rx, &gauges))
                    .expect("spawning worker thread")
            })
            .collect();
        WorkerPool {
            tx: Some(tx),
            workers,
            gauges,
        }
    }

    /// Number of worker threads.
    pub fn worker_count(&self) -> usize {
        self.workers.len()
    }

    /// Jobs that panicked (and were caught, leaving their worker alive).
    pub fn panic_count(&self) -> u64 {
        self.gauges.panics.load(Ordering::Relaxed)
    }

    /// Jobs submitted but not yet picked up by a worker.
    pub fn queue_depth(&self) -> u64 {
        self.gauges.queued.load(Ordering::Relaxed)
    }

    /// Cumulative wall-clock nanoseconds workers spent executing jobs.
    pub fn busy_ns(&self) -> u64 {
        self.gauges.busy_ns.load(Ordering::Relaxed)
    }

    /// Enqueues a job. Returns `false` if the pool is already shut down
    /// (only possible during teardown races).
    pub fn submit(&self, job: impl FnOnce() + Send + 'static) -> bool {
        match &self.tx {
            Some(tx) => {
                // Count before the send: a worker may dequeue (and
                // decrement) the job the instant it lands, and the gauge
                // must never underflow below a concurrent submit.
                self.gauges.queued.fetch_add(1, Ordering::Relaxed);
                if tx.send(Box::new(job)).is_ok() {
                    true
                } else {
                    self.gauges.queued.fetch_sub(1, Ordering::Relaxed);
                    false
                }
            }
            None => false,
        }
    }
}

fn worker_loop(rx: &Mutex<Receiver<Job>>, gauges: &PoolGauges) {
    loop {
        // Hold the lock only for the dequeue, never during the job. The
        // mpsc receiver is single-consumer by construction; parking in
        // recv() *is* the queue hand-off, and the guard is a statement
        // temporary released the instant a job lands.
        // lint:allow(IC-LOCK): recv under the queue mutex is the hand-off
        let job = match lock_or_poison(rx).recv() {
            Ok(job) => job,
            Err(_) => return, // channel closed: pool dropped
        };
        gauges.queued.fetch_sub(1, Ordering::Relaxed);
        let run_start = Instant::now();
        // AssertUnwindSafe: the job owns everything it touches (a boxed
        // FnOnce moved in); any shared state it reaches is lock-guarded,
        // and a panic mid-job drops its reply sender, which callers
        // already surface as WorkerGone.
        if catch_unwind(AssertUnwindSafe(job)).is_err() {
            gauges.panics.fetch_add(1, Ordering::Relaxed);
        }
        gauges
            .busy_ns
            .fetch_add(run_start.elapsed().as_nanos() as u64, Ordering::Relaxed);
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        drop(self.tx.take()); // close the channel: workers drain then exit
        let current = std::thread::current().id();
        for w in self.workers.drain(..) {
            // joining the calling thread itself would fail with EDEADLK
            if w.thread().id() == current {
                continue;
            }
            #[expect(
                clippy::let_underscore_must_use,
                reason = "Drop cannot propagate a join error; a worker that panicked \
                          outside catch_unwind was already counted and has nothing \
                          left to report"
            )]
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Barrier;
    use std::time::Duration;

    #[test]
    fn executes_all_jobs_across_threads() {
        let pool = WorkerPool::new(4);
        assert_eq!(pool.worker_count(), 4);
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel();
        for _ in 0..100 {
            let counter = counter.clone();
            let done = done_tx.clone();
            assert!(pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = done.send(());
            }));
        }
        for _ in 0..100 {
            done_rx.recv().unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn drop_drains_queued_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = WorkerPool::new(1);
            for _ in 0..50 {
                let counter = counter.clone();
                pool.submit(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
            // pool dropped here: must finish every queued job before joining
        }
        assert_eq!(counter.load(Ordering::Relaxed), 50);
    }

    #[test]
    fn gauges_track_queue_depth_and_busy_time() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.queue_depth(), 0);
        assert_eq!(pool.busy_ns(), 0);
        // park the single worker so later submissions pile up measurably
        let gate = Arc::new(Barrier::new(2));
        let g = Arc::clone(&gate);
        assert!(pool.submit(move || {
            g.wait();
        }));
        for _ in 0..5 {
            assert!(pool.submit(|| std::thread::sleep(Duration::from_millis(1))));
        }
        // the first job may or may not have been dequeued yet; the five
        // behind the parked worker definitely have not
        assert!(pool.queue_depth() >= 5, "depth={}", pool.queue_depth());
        gate.wait();
        // drain: a sentinel job completing implies the five ran first
        let (tx, rx) = channel();
        assert!(pool.submit(move || tx.send(()).unwrap()));
        rx.recv().unwrap();
        assert_eq!(pool.queue_depth(), 0);
        assert!(pool.busy_ns() >= 5_000_000, "busy={}", pool.busy_ns());
    }

    /// A job that drops the pool's last owner runs `Drop` on a worker.
    /// That worker must be detached, not joined (a thread joining itself
    /// fails with EDEADLK), and every other worker must still be joined.
    #[test]
    fn job_dropping_the_last_owner_detaches_its_own_worker() {
        const WORKERS: usize = 3;
        let pool = Arc::new(WorkerPool::new(WORKERS));
        let gauges = Arc::clone(&pool.gauges);
        let workers_alive = Arc::downgrade(&gauges);
        let owner = Arc::clone(&pool);
        let gate = Arc::new(Barrier::new(2));
        let job_gate = Arc::clone(&gate);
        let (tx, rx) = channel();
        assert!(pool.submit(move || {
            job_gate.wait(); // the test has released its own handle
            drop(owner);
            // left: the test's handle and this (detached) worker's
            tx.send(workers_alive.strong_count()).unwrap();
        }));
        drop(pool);
        gate.wait();
        let holders = rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert_eq!(holders, 2, "every other worker was joined");
        // the detached worker exits once its job returns
        let deadline = Instant::now() + Duration::from_secs(10);
        while Arc::strong_count(&gauges) > 1 {
            assert!(Instant::now() < deadline, "detached worker never exited");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(gauges.panics.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn zero_workers_is_floored_to_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.worker_count(), 1);
        let (tx, rx) = channel();
        pool.submit(move || tx.send(7usize).unwrap());
        assert_eq!(rx.recv().unwrap(), 7);
    }

    /// The regression this PR fixes: a panicking job used to unwind the
    /// worker loop and permanently shrink the pool. Now every worker must
    /// survive a panic — proven by parking *all* of them on one barrier
    /// afterwards (impossible if any thread died) — and the queue keeps
    /// draining at full capacity.
    #[test]
    fn panicking_job_leaves_every_worker_alive() {
        const WORKERS: usize = 4;
        let pool = WorkerPool::new(WORKERS);
        // Quiet the default hook for the intentional panics below. The
        // guard restores it even if an assertion in this test unwinds,
        // so other tests in the binary never lose their panic output.
        type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
        struct HookGuard(Option<Hook>);
        impl Drop for HookGuard {
            fn drop(&mut self) {
                std::panic::set_hook(self.0.take().expect("hook restored once"));
            }
        }
        let _restore = HookGuard(Some(std::panic::take_hook()));
        std::panic::set_hook(Box::new(|_| {}));
        for _ in 0..WORKERS {
            assert!(pool.submit(|| panic!("job panics on purpose")));
        }
        // all four workers must still be alive to clear this barrier
        let barrier = Arc::new(Barrier::new(WORKERS + 1));
        let (tx, rx) = channel();
        for _ in 0..WORKERS {
            let barrier = Arc::clone(&barrier);
            let tx = tx.clone();
            assert!(pool.submit(move || {
                barrier.wait();
                tx.send(std::thread::current().id()).unwrap();
            }));
        }
        barrier.wait();
        let mut ids = std::collections::HashSet::new();
        for _ in 0..WORKERS {
            ids.insert(rx.recv_timeout(Duration::from_secs(10)).unwrap());
        }
        assert_eq!(ids.len(), WORKERS, "every worker thread executed a job");
        // and 100 further jobs all run to completion
        let counter = Arc::new(AtomicUsize::new(0));
        let (done_tx, done_rx) = channel();
        for _ in 0..100 {
            let counter = counter.clone();
            let done = done_tx.clone();
            assert!(pool.submit(move || {
                counter.fetch_add(1, Ordering::Relaxed);
                let _ = done.send(());
            }));
        }
        for _ in 0..100 {
            done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.panic_count(), WORKERS as u64);
    }
}
