//! Per-query span tracing: monotonic stage timings that tile a query's
//! whole lifetime.
//!
//! A [`QueryTrace`] is a small `Copy` value created when a query enters
//! the system and carried through the pipeline. Each pipeline boundary
//! calls [`QueryTrace::lap`], which charges the time since the previous
//! boundary to one [`Stage`] — the stages therefore *tile* the query's
//! wall-clock with no gaps, so their sum reconstructs the end-to-end
//! latency (the invariant `EXPLAIN ANALYZE` reports and the test suite
//! asserts to within 10%). No heap allocation anywhere: the trace is two
//! `Instant`s and a handful of integers.

use std::time::Instant;

/// Stages a query's wall-clock is attributed to, in wire-field order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// Waiting for a search slot. Only a flight leader waits, between
    /// its cache probe and its execution; hits, coalesced followers and
    /// empty plans record none.
    Queue,
    /// Validation, registry lookup, and cost-model planning.
    Plan,
    /// Result-cache probe plus single-flight join (for a coalesced
    /// follower this includes blocking on the leader's execution).
    CacheProbe,
    /// Running the planned algorithm.
    Execute,
    /// Publishing: cache insert, flight publish, response assembly.
    Serialize,
}

/// Number of [`Stage`] variants.
pub const STAGE_COUNT: usize = 5;

impl Stage {
    /// All stages, in pipeline order.
    pub const ALL: [Stage; STAGE_COUNT] = [
        Stage::Queue,
        Stage::Plan,
        Stage::CacheProbe,
        Stage::Execute,
        Stage::Serialize,
    ];

    /// Stable snake_case name (metric label / wire field).
    pub fn name(self) -> &'static str {
        match self {
            Stage::Queue => "queue",
            Stage::Plan => "plan",
            Stage::CacheProbe => "cache",
            Stage::Execute => "execute",
            Stage::Serialize => "serialize",
        }
    }

    /// Index into a `[_; STAGE_COUNT]` stage array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// How the service answered a query — the histogram dimension latency is
/// recorded under.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueryClass {
    /// Executed an algorithm (cache miss, single-flight leader).
    Cold,
    /// Served from the result cache by exact key match.
    Cached,
    /// Served by slicing a larger-k cached entry of the same lane.
    PrefixServed,
    /// Blocked on an identical in-flight query's execution.
    CoalescedFollower,
    /// A non-lead member of a batch group, served its k-prefix of the
    /// group answer.
    Batch,
}

impl QueryClass {
    /// All classes, in declaration order.
    pub const ALL: [QueryClass; 5] = [
        QueryClass::Cold,
        QueryClass::Cached,
        QueryClass::PrefixServed,
        QueryClass::CoalescedFollower,
        QueryClass::Batch,
    ];

    /// Stable snake_case name (metric label value).
    pub fn name(self) -> &'static str {
        match self {
            QueryClass::Cold => "cold",
            QueryClass::Cached => "cached",
            QueryClass::PrefixServed => "prefix_served",
            QueryClass::CoalescedFollower => "coalesced_follower",
            QueryClass::Batch => "batch",
        }
    }

    /// Index into a `[_; QueryClass::ALL.len()]` array.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }
}

/// Monotonic per-query stage timings plus I/O deltas. `Copy`, zero
/// heap allocation; see the module docs for the tiling invariant.
#[derive(Debug, Clone, Copy)]
pub struct QueryTrace {
    /// When the query entered the system.
    origin: Instant,
    /// End of the last attributed segment.
    mark: Instant,
    /// Nanoseconds attributed per stage, [`Stage::index`]-indexed.
    ns: [u64; STAGE_COUNT],
    /// End-to-end nanoseconds, set by [`QueryTrace::finish`].
    total_ns: u64,
    /// Bytes read from disk-resident storage during execution (the
    /// store's `IoStats` delta across the run).
    pub io_bytes: u64,
    /// Read operations issued during execution.
    pub io_ops: u64,
}

impl QueryTrace {
    /// Starts a trace; the clock begins now.
    pub fn start() -> Self {
        let now = Instant::now();
        QueryTrace {
            origin: now,
            mark: now,
            ns: [0; STAGE_COUNT],
            total_ns: 0,
            io_bytes: 0,
            io_ops: 0,
        }
    }

    /// Charges the time since the previous boundary (or the start) to
    /// `stage` and advances the boundary.
    #[inline]
    pub fn lap(&mut self, stage: Stage) {
        let now = Instant::now();
        self.ns[stage.index()] += now.duration_since(self.mark).as_nanos() as u64;
        self.mark = now;
    }

    /// Adds an I/O delta observed during execution.
    #[inline]
    pub fn add_io(&mut self, bytes: u64, ops: u64) {
        self.io_bytes += bytes;
        self.io_ops += ops;
    }

    /// Closes the trace: any untracked tail is charged to
    /// [`Stage::Serialize`] (preserving the tiling invariant) and the
    /// end-to-end total is fixed.
    pub fn finish(&mut self) {
        self.lap(Stage::Serialize);
        self.total_ns = self.mark.duration_since(self.origin).as_nanos() as u64;
    }

    /// Nanoseconds attributed to one stage.
    pub fn stage_ns(&self, stage: Stage) -> u64 {
        self.ns[stage.index()]
    }

    /// Sum over all stages — equals [`QueryTrace::total_ns`] after
    /// `finish` (stages tile the lifetime).
    pub fn stages_total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// End-to-end nanoseconds (0 until [`QueryTrace::finish`]).
    pub fn total_ns(&self) -> u64 {
        self.total_ns
    }
}

impl Default for QueryTrace {
    fn default() -> Self {
        Self::start()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn stages_tile_the_total() {
        let mut t = QueryTrace::start();
        std::thread::sleep(Duration::from_millis(2));
        t.lap(Stage::Plan);
        std::thread::sleep(Duration::from_millis(3));
        t.lap(Stage::Execute);
        t.finish();
        assert!(t.stage_ns(Stage::Plan) >= 2_000_000);
        assert!(t.stage_ns(Stage::Execute) >= 3_000_000);
        assert_eq!(t.stage_ns(Stage::Queue), 0);
        // tiling: the stage sum IS the total
        assert_eq!(t.stages_total_ns(), t.total_ns());
        assert!(t.total_ns() >= 5_000_000);
    }

    #[test]
    fn repeated_laps_accumulate() {
        let mut t = QueryTrace::start();
        t.lap(Stage::Execute);
        let first = t.stage_ns(Stage::Execute);
        std::thread::sleep(Duration::from_millis(1));
        t.lap(Stage::Execute);
        assert!(t.stage_ns(Stage::Execute) > first);
        t.add_io(4096, 2);
        t.add_io(100, 1);
        assert_eq!(t.io_bytes, 4196);
        assert_eq!(t.io_ops, 3);
    }

    #[test]
    fn names_and_indices_are_stable() {
        for (i, s) in Stage::ALL.iter().enumerate() {
            assert_eq!(s.index(), i);
        }
        for (i, c) in QueryClass::ALL.iter().enumerate() {
            assert_eq!(c.index(), i);
        }
        assert_eq!(Stage::CacheProbe.name(), "cache");
        assert_eq!(QueryClass::PrefixServed.name(), "prefix_served");
    }
}
