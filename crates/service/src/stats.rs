//! Lock-free service counters and their snapshot type.
//!
//! Workers bump relaxed atomics on every query; [`StatsRecorder::snapshot`]
//! reads them into the plain-old-data [`ServiceStats`] handed to clients
//! (the `STATS` protocol verb). Relaxed ordering is deliberate: counters
//! are monotone and independent, and a snapshot only needs to be
//! *eventually* consistent, never a linearizable cut.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use crate::planner::Algorithm;

/// Number of per-algorithm execution counters (one per
/// [`Algorithm::ALL`] entry).
pub const ALGORITHM_COUNT: usize = Algorithm::ALL.len();

/// Internal counter block owned by the service.
#[derive(Debug, Default)]
pub struct StatsRecorder {
    queries: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    coalesced: AtomicU64,
    prefix_served: AtomicU64,
    batches: AtomicU64,
    executed: [AtomicU64; ALGORITHM_COUNT],
    query_latency_ns: AtomicU64,
    sessions_opened: AtomicU64,
    sessions_closed: AtomicU64,
    communities_streamed: AtomicU64,
    accept_errors: AtomicU64,
    write_errors: AtomicU64,
}

impl StatsRecorder {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn record_hit(&self, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.query_latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A cache hit answered by slicing a larger-k (or exhausted) entry of
    /// the same lane rather than an exact key match.
    pub fn record_prefix_hit(&self, latency: Duration) {
        self.prefix_served.fetch_add(1, Ordering::Relaxed);
        self.record_hit(latency);
    }

    /// A query answered by joining another query's in-flight execution.
    pub fn record_coalesced(&self, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        self.query_latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// One `query_batch` call (its member requests are recorded
    /// individually as hits/misses/coalesced).
    pub fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_miss(&self, algorithm: Algorithm, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(executed) = self.executed.get(algorithm.index()) {
            executed.fetch_add(1, Ordering::Relaxed);
        }
        self.query_latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    pub fn record_session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_session_closed(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub fn record_streamed(&self, communities: usize) {
        self.communities_streamed
            .fetch_add(communities as u64, Ordering::Relaxed);
    }

    /// One transient accept-loop failure the server survived (failed
    /// `accept` or connection-thread spawn); the loop kept accepting.
    pub fn record_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One failed client-socket write: the response could not be
    /// delivered and the connection was closed. The query itself still
    /// counted normally — this tracks delivery, not execution.
    pub fn record_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Reads every counter into a plain snapshot.
    pub fn snapshot(&self) -> ServiceStats {
        let executed = self.executed.each_ref().map(|c| c.load(Ordering::Relaxed));
        ServiceStats {
            queries: self.queries.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            cache_misses: self.cache_misses.load(Ordering::Relaxed),
            coalesced: self.coalesced.load(Ordering::Relaxed),
            prefix_served: self.prefix_served.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            worker_panics: 0, // owned by the pool; merged by Service::stats
            executed,
            query_latency_ns: self.query_latency_ns.load(Ordering::Relaxed),
            sessions_opened: self.sessions_opened.load(Ordering::Relaxed),
            sessions_closed: self.sessions_closed.load(Ordering::Relaxed),
            communities_streamed: self.communities_streamed.load(Ordering::Relaxed),
            accept_errors: self.accept_errors.load(Ordering::Relaxed),
            write_errors: self.write_errors.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of the service counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Batch queries answered (hits + misses + coalesced).
    pub queries: u64,
    /// Queries answered from the result cache (exact or prefix-served).
    pub cache_hits: u64,
    /// Queries that executed an algorithm.
    pub cache_misses: u64,
    /// Queries that joined an identical query already in flight instead
    /// of executing — the single-flight savings.
    pub coalesced: u64,
    /// Cache hits answered by slicing a larger-k (or exhausted)
    /// same-lane entry; a subset of `cache_hits`.
    pub prefix_served: u64,
    /// `query_batch` invocations (member requests count in `queries`).
    pub batches: u64,
    /// Worker-pool jobs that panicked (caught; the worker survived).
    pub worker_panics: u64,
    /// Executions per algorithm, in [`Algorithm::ALL`] order
    /// (local_search, progressive, forward, online_all, backward, naive,
    /// truss); see [`Self::executions`].
    pub executed: [u64; ALGORITHM_COUNT],
    /// Total wall-clock spent answering batch queries, nanoseconds.
    pub query_latency_ns: u64,
    /// Progressive sessions opened.
    pub sessions_opened: u64,
    /// Progressive sessions closed.
    pub sessions_closed: u64,
    /// Communities delivered through progressive sessions.
    pub communities_streamed: u64,
    /// Transient accept-loop failures survived (failed `accept` calls or
    /// connection-thread spawns; the server kept accepting).
    pub accept_errors: u64,
    /// Client-socket writes that failed; each closed its connection.
    pub write_errors: u64,
}

impl ServiceStats {
    /// Fraction of queries answered from cache; 0.0 before any query.
    pub fn hit_rate(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.cache_hits as f64 / self.queries as f64
        }
    }

    /// Mean latency per batch query; zero before any query.
    pub fn mean_latency(&self) -> Duration {
        self.query_latency_ns
            .checked_div(self.queries)
            .map_or(Duration::ZERO, Duration::from_nanos)
    }

    /// Executions of one algorithm.
    pub fn executions(&self, algorithm: Algorithm) -> u64 {
        self.executed
            .get(algorithm.index())
            .copied()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let r = StatsRecorder::new();
        r.record_miss(Algorithm::LocalSearch, Duration::from_micros(10));
        r.record_miss(Algorithm::Forward, Duration::from_micros(30));
        r.record_hit(Duration::from_micros(2));
        r.record_session_opened();
        r.record_streamed(5);
        let s = r.snapshot();
        assert_eq!(s.queries, 3);
        assert_eq!(s.cache_hits, 1);
        assert_eq!(s.cache_misses, 2);
        assert_eq!(s.executions(Algorithm::LocalSearch), 1);
        assert_eq!(s.executions(Algorithm::Forward), 1);
        assert_eq!(s.executions(Algorithm::OnlineAll), 0);
        assert_eq!(s.executions(Algorithm::Truss), 0);
        assert!((s.hit_rate() - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.mean_latency(), Duration::from_nanos(42_000 / 3));
        assert_eq!(s.sessions_opened, 1);
        assert_eq!(s.communities_streamed, 5);
    }

    #[test]
    fn serving_counters_accumulate() {
        let r = StatsRecorder::new();
        r.record_miss(Algorithm::LocalSearch, Duration::from_micros(10));
        r.record_coalesced(Duration::from_micros(1));
        r.record_coalesced(Duration::from_micros(1));
        r.record_prefix_hit(Duration::from_micros(2));
        r.record_batch();
        let s = r.snapshot();
        assert_eq!(s.queries, 4, "coalesced and prefix hits are queries");
        assert_eq!(s.coalesced, 2);
        assert_eq!(s.cache_hits, 1, "prefix service counts as a hit");
        assert_eq!(s.prefix_served, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.batches, 1);
        assert_eq!(s.mean_latency(), Duration::from_nanos(14_000 / 4));
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = StatsRecorder::new().snapshot();
        assert_eq!(s, ServiceStats::default());
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mean_latency(), Duration::ZERO);
    }
}
