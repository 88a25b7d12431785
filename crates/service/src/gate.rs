//! The search gate: at most `slots` algorithm executions at once,
//! admitted in arrival order.
//!
//! Queries run on their caller's thread. Only a flight leader's search
//! passes through the gate; cache hits, coalesced followers and empty
//! plans never touch it, so none of them waits behind a search. The gate
//! is what keeps N connection threads from oversubscribing the CPU with
//! N concurrent searches.
//!
//! A search that panics must not cost the service a slot: it runs under
//! [`catch_unwind`], its slot is released either way, the panic is
//! counted (`worker_panics` in `STATS`), and the caller is answered with
//! [`ServiceError::WorkerGone`].

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};
use std::time::Instant;

use crate::error::ServiceError;
use crate::sync::{lock_or_poison, wait_or_poison};

/// Ticket counters: arrival `t` is admitted once every earlier arrival
/// was (`admitted == t`) and a slot is free.
#[derive(Debug, Default)]
struct Tickets {
    issued: u64,
    admitted: u64,
    running: usize,
}

/// A FIFO counting semaphore around searches, with the gauges `METRICS`
/// exports as `ic_pool_*`.
#[derive(Debug)]
pub(crate) struct SearchGate {
    slots: usize,
    tickets: Mutex<Tickets>,
    turn: Condvar,
    busy_ns: AtomicU64,
    panics: AtomicU64,
}

impl SearchGate {
    /// A gate of `slots` concurrent searches (floored at 1).
    pub(crate) fn new(slots: usize) -> Self {
        SearchGate {
            slots: slots.max(1),
            tickets: Mutex::new(Tickets::default()),
            turn: Condvar::new(),
            busy_ns: AtomicU64::new(0),
            panics: AtomicU64::new(0),
        }
    }

    /// Searches that may run at once.
    pub(crate) fn slots(&self) -> usize {
        self.slots
    }

    /// Searches waiting for a slot.
    pub(crate) fn queue_depth(&self) -> u64 {
        let t = lock_or_poison(&self.tickets);
        t.issued - t.admitted
    }

    /// Cumulative wall-clock nanoseconds searches spent in their slots.
    pub(crate) fn busy_ns(&self) -> u64 {
        self.busy_ns.load(Ordering::Relaxed)
    }

    /// Searches that panicked (caught; their slots were released).
    pub(crate) fn panics(&self) -> u64 {
        self.panics.load(Ordering::Relaxed)
    }

    /// Waits for a slot behind every earlier arrival, then runs `search`
    /// in it on the calling thread.
    pub(crate) fn run<T>(&self, search: impl FnOnce() -> T) -> Result<T, ServiceError> {
        self.admit();
        let start = Instant::now();
        // AssertUnwindSafe: a search reads shared graphs and writes only
        // its own locals; the caller publishes nothing until it returns.
        let outcome = catch_unwind(AssertUnwindSafe(search));
        self.busy_ns
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        let mut t = lock_or_poison(&self.tickets);
        t.running -= 1;
        if t.admitted < t.issued {
            self.turn.notify_all();
        }
        drop(t);
        outcome.map_err(|_| {
            self.panics.fetch_add(1, Ordering::Relaxed);
            ServiceError::WorkerGone
        })
    }

    fn admit(&self) {
        let mut t = lock_or_poison(&self.tickets);
        let ticket = t.issued;
        t.issued += 1;
        while ticket != t.admitted || t.running >= self.slots {
            t = wait_or_poison(&self.turn, t);
        }
        t.admitted += 1;
        t.running += 1;
        // Two releases can land before the head waiter runs; its
        // successor may fit the second free slot, and only a wake-up
        // from here tells it.
        if t.running < self.slots && t.admitted < t.issued {
            self.turn.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::channel;
    use std::sync::{Arc, Barrier};
    use std::time::Duration;

    /// Spins until `cond` holds (10 s cap), so a test can wait for other
    /// threads to reach the gate.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn never_more_than_the_slots_run_at_once() {
        const SLOTS: usize = 3;
        let gate = SearchGate::new(SLOTS);
        let (running, peak) = (AtomicUsize::new(0), AtomicUsize::new(0));
        std::thread::scope(|s| {
            for _ in 0..12 {
                s.spawn(|| {
                    for _ in 0..20 {
                        gate.run(|| {
                            let now = running.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(Duration::from_micros(200));
                            running.fetch_sub(1, Ordering::SeqCst);
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(gate.slots(), SLOTS);
        assert!(peak.load(Ordering::SeqCst) <= SLOTS);
        assert_eq!(gate.queue_depth(), 0);
    }

    #[test]
    fn waiters_are_admitted_in_arrival_order() {
        let gate = Arc::new(SearchGate::new(1));
        let hold = Arc::new(Barrier::new(2));
        let holder = {
            let (gate, hold) = (Arc::clone(&gate), Arc::clone(&hold));
            std::thread::spawn(move || {
                gate.run(|| {
                    hold.wait();
                    hold.wait();
                })
                .unwrap()
            })
        };
        hold.wait(); // the holder is inside its slot
        let (tx, rx) = channel();
        let waiters: Vec<_> = (0..5)
            .map(|i| {
                let (g, tx) = (Arc::clone(&gate), tx.clone());
                let waiter = std::thread::spawn(move || g.run(|| tx.send(i).unwrap()).unwrap());
                // arrival i is queued before arrival i + 1 is started
                eventually("the waiter to queue", || gate.queue_depth() == i + 1);
                waiter
            })
            .collect();
        hold.wait(); // release the holder
        holder.join().unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        let order: Vec<u64> = rx.try_iter().collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn gauges_track_queue_depth_and_busy_time() {
        let gate = Arc::new(SearchGate::new(1));
        assert_eq!((gate.queue_depth(), gate.busy_ns()), (0, 0));
        let hold = Arc::new(Barrier::new(2));
        let holder = {
            let (gate, hold) = (Arc::clone(&gate), Arc::clone(&hold));
            std::thread::spawn(move || {
                gate.run(|| {
                    hold.wait();
                    std::thread::sleep(Duration::from_millis(5));
                    hold.wait();
                })
                .unwrap()
            })
        };
        hold.wait();
        let waiters: Vec<_> = (0..3)
            .map(|_| {
                let gate = Arc::clone(&gate);
                std::thread::spawn(move || gate.run(|| ()).unwrap())
            })
            .collect();
        eventually("three queued searches", || gate.queue_depth() == 3);
        hold.wait();
        holder.join().unwrap();
        for w in waiters {
            w.join().unwrap();
        }
        assert_eq!(gate.queue_depth(), 0);
        assert!(gate.busy_ns() >= 5_000_000, "busy={}", gate.busy_ns());
    }

    #[test]
    fn zero_slots_are_floored_to_one() {
        let gate = SearchGate::new(0);
        assert_eq!(gate.slots(), 1);
        assert_eq!(gate.run(|| 7), Ok(7));
    }

    #[test]
    fn a_panicking_search_is_counted_and_frees_its_slot_for_the_next_waiter() {
        // Quiet the default hook for the intentional panic. The guard
        // restores it even if an assertion here unwinds, so other tests
        // in the binary keep their panic output.
        type Hook = Box<dyn Fn(&std::panic::PanicHookInfo<'_>) + Sync + Send>;
        struct HookGuard(Option<Hook>);
        impl Drop for HookGuard {
            fn drop(&mut self) {
                std::panic::set_hook(self.0.take().expect("hook restored once"));
            }
        }
        let _restore = HookGuard(Some(std::panic::take_hook()));
        std::panic::set_hook(Box::new(|_| {}));

        let gate = Arc::new(SearchGate::new(1));
        let hold = Arc::new(Barrier::new(2));
        let panicker = {
            let (gate, hold) = (Arc::clone(&gate), Arc::clone(&hold));
            std::thread::spawn(move || {
                gate.run(|| -> u32 {
                    hold.wait();
                    hold.wait();
                    panic!("search panics on purpose")
                })
            })
        };
        hold.wait(); // the panicking search holds the only slot
        let waiter = {
            let gate = Arc::clone(&gate);
            std::thread::spawn(move || gate.run(|| 42))
        };
        eventually("the waiter to queue", || gate.queue_depth() == 1);
        hold.wait();
        assert_eq!(panicker.join().unwrap(), Err(ServiceError::WorkerGone));
        assert_eq!(waiter.join().unwrap(), Ok(42));
        assert_eq!(gate.panics(), 1);
        assert_eq!(gate.queue_depth(), 0);
        assert_eq!(gate.run(|| "still serving"), Ok("still serving"));
    }
}
