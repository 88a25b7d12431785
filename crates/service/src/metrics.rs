//! Per-class latency histograms and the slow-query ring.
//!
//! One [`ServiceMetrics`] lives inside every [`crate::Service`]. The hot
//! path — [`ServiceMetrics::record_query`] under the slowlog threshold —
//! touches only relaxed atomics (five per histogram record) and performs
//! no heap allocation; the slowlog `Mutex` is taken exclusively for
//! queries that already spent ≥ the threshold executing, where one more
//! lock and a few `String` clones are noise.
//!
//! Query latency is recorded end-to-end per [`QueryClass`]
//! (cold / cached / prefix-served / coalesced-follower / batch);
//! execution time alone is additionally recorded per storage backend
//! (memory / file), which is the histogram that separates "the algorithm
//! got slower" from "the cache stopped hitting".

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use ic_graph::StorageKind;
use ic_obs::{Histogram, HistogramSnapshot, QueryClass, QueryTrace};

use crate::planner::Algorithm;
use crate::sync::lock_or_poison;

/// One slow query, as retained by the ring and reported by `SLOWLOG`.
#[derive(Debug, Clone)]
pub struct SlowQuery {
    /// Monotone sequence number (total slow queries ever seen is the
    /// highest seq; the ring keeps only the most recent entries).
    pub seq: u64,
    /// Graph the query ran against.
    pub graph: String,
    /// Query γ.
    pub gamma: u32,
    /// Query k.
    pub k: usize,
    /// The algorithm the planner chose (executed only on cold paths).
    pub algorithm: Algorithm,
    /// How the query was answered.
    pub class: QueryClass,
    /// The full per-stage trace — where the time went.
    pub trace: QueryTrace,
}

/// Latency histograms plus the bounded slow-query ring.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// End-to-end latency per [`QueryClass`], `QueryClass::index`-indexed.
    latency: [Histogram; QueryClass::ALL.len()],
    /// Execute-stage latency of leader executions on memory stores.
    execute_memory: Histogram,
    /// Execute-stage latency of leader executions on file stores.
    execute_file: Histogram,
    slowlog: Mutex<VecDeque<SlowQuery>>,
    slowlog_capacity: usize,
    slowlog_threshold_ns: u64,
    slow_seq: AtomicU64,
    /// Protocol connections currently being served (`ic-conn` threads).
    live_connections: AtomicU64,
    /// Protocol connections ever accepted.
    connections_total: AtomicU64,
}

impl ServiceMetrics {
    /// `capacity` bounds the slow-query ring; traces totalling at least
    /// `threshold_ns` are retained in it.
    pub fn new(capacity: usize, threshold_ns: u64) -> Self {
        ServiceMetrics {
            latency: std::array::from_fn(|_| Histogram::new()),
            execute_memory: Histogram::new(),
            execute_file: Histogram::new(),
            slowlog: Mutex::new(VecDeque::with_capacity(capacity.min(1024))),
            slowlog_capacity: capacity,
            slowlog_threshold_ns: threshold_ns,
            slow_seq: AtomicU64::new(0),
            live_connections: AtomicU64::new(0),
            connections_total: AtomicU64::new(0),
        }
    }

    /// Records one finished query: its end-to-end latency under `class`,
    /// and — when it crossed the slowlog threshold — the full trace in
    /// the ring. Allocation-free below the threshold.
    pub fn record_query(
        &self,
        class: QueryClass,
        trace: &QueryTrace,
        graph: &str,
        gamma: u32,
        k: usize,
        algorithm: Algorithm,
    ) {
        self.latency(class).record(trace.total_ns());
        if trace.total_ns() < self.slowlog_threshold_ns || self.slowlog_capacity == 0 {
            return;
        }
        let seq = self.slow_seq.fetch_add(1, Ordering::Relaxed);
        let entry = SlowQuery {
            seq,
            graph: graph.to_string(),
            gamma,
            k,
            algorithm,
            class,
            trace: *trace,
        };
        let mut ring = lock_or_poison(&self.slowlog);
        if ring.len() == self.slowlog_capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Records one leader execution's execute-stage time under its
    /// storage backend.
    pub fn record_execute(&self, storage: StorageKind, ns: u64) {
        self.execute(storage).record(ns);
    }

    /// Snapshot of one class's end-to-end latency histogram.
    pub fn class_snapshot(&self, class: QueryClass) -> HistogramSnapshot {
        self.latency(class).snapshot()
    }

    /// Snapshot of one backend's execute-stage histogram.
    pub fn execute_snapshot(&self, storage: StorageKind) -> HistogramSnapshot {
        self.execute(storage).snapshot()
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "QueryClass::index() is below QueryClass::ALL.len(), the array's length"
    )]
    fn latency(&self, class: QueryClass) -> &Histogram {
        &self.latency[class.index()]
    }

    fn execute(&self, storage: StorageKind) -> &Histogram {
        match storage {
            StorageKind::Memory => &self.execute_memory,
            StorageKind::File => &self.execute_file,
        }
    }

    /// The `n` most recent slow queries, newest first.
    pub fn slowlog(&self, n: usize) -> Vec<SlowQuery> {
        let ring = lock_or_poison(&self.slowlog);
        ring.iter().rev().take(n).cloned().collect()
    }

    /// Total queries that ever crossed the slowlog threshold (the ring
    /// itself keeps only the most recent `capacity`).
    pub fn slow_total(&self) -> u64 {
        self.slow_seq.load(Ordering::Relaxed)
    }

    /// The retention threshold, in nanoseconds.
    pub fn slowlog_threshold_ns(&self) -> u64 {
        self.slowlog_threshold_ns
    }

    /// A protocol connection was accepted and its handler started.
    pub fn connection_opened(&self) {
        self.live_connections.fetch_add(1, Ordering::Relaxed);
        self.connections_total.fetch_add(1, Ordering::Relaxed);
    }

    /// A protocol connection's handler finished (any reason: `QUIT`,
    /// EOF, idle timeout, or I/O error).
    pub fn connection_closed(&self) {
        self.live_connections.fetch_sub(1, Ordering::Relaxed);
    }

    /// Protocol connections currently being served — the gauge a load
    /// harness watches to verify idle connections are actually reclaimed.
    pub fn live_connections(&self) -> u64 {
        self.live_connections.load(Ordering::Relaxed)
    }

    /// Protocol connections ever accepted.
    pub fn connections_total(&self) -> u64 {
        self.connections_total.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_obs::Stage;

    fn trace_taking_ms(ms: u64) -> QueryTrace {
        let mut t = QueryTrace::start();
        std::thread::sleep(std::time::Duration::from_millis(ms));
        t.lap(Stage::Execute);
        t.finish();
        t
    }

    #[test]
    fn below_threshold_records_histogram_only() {
        let m = ServiceMetrics::new(4, u64::MAX);
        let t = trace_taking_ms(1);
        m.record_query(QueryClass::Cold, &t, "g", 2, 3, Algorithm::LocalSearch);
        assert_eq!(m.class_snapshot(QueryClass::Cold).count(), 1);
        assert_eq!(m.class_snapshot(QueryClass::Cached).count(), 0);
        assert!(m.slowlog(10).is_empty());
        assert_eq!(m.slow_total(), 0);
    }

    #[test]
    fn slowlog_ring_keeps_newest_up_to_capacity() {
        let m = ServiceMetrics::new(2, 0); // everything is "slow"
        for k in 1..=5usize {
            let t = trace_taking_ms(0);
            m.record_query(QueryClass::Cold, &t, "g", 2, k, Algorithm::LocalSearch);
        }
        let log = m.slowlog(10);
        assert_eq!(log.len(), 2, "ring capacity");
        assert_eq!(log[0].k, 5, "newest first");
        assert_eq!(log[1].k, 4);
        assert!(log[0].seq > log[1].seq);
        assert_eq!(m.slow_total(), 5);
        // SLOWLOG n limits the reply
        assert_eq!(m.slowlog(1).len(), 1);
    }

    #[test]
    fn execute_histograms_split_by_backend() {
        let m = ServiceMetrics::new(0, 0);
        m.record_execute(StorageKind::Memory, 1000);
        m.record_execute(StorageKind::File, 9000);
        m.record_execute(StorageKind::File, 9000);
        assert_eq!(m.execute_snapshot(StorageKind::Memory).count(), 1);
        assert_eq!(m.execute_snapshot(StorageKind::File).count(), 2);
    }
}
