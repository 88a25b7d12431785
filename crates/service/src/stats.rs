//! The service's counters and gauges, declared once.
//!
//! Every scalar counter and gauge the service reports is one row of the
//! `service_stats!` list below. A row names its [`ServiceStats`] field,
//! its `STATS` key, its `METRICS` family (Prometheus type, name and
//! help text) and where its value comes from. The list generates the
//! recorder's atomics, [`ServiceStats`] and the snapshot, and both
//! replies are loops over it (`write_stats_line`, `write_metrics`), so
//! `STATS` and `METRICS` cannot drift apart. A new counter is one row
//! plus the `record_*` call that bumps it.
//!
//! A row's value comes from one of three sources:
//! * `recorded`: a relaxed atomic in `StatsRecorder`, bumped on the
//!   query path. Relaxed ordering is deliberate: counters are monotone
//!   and independent, and a snapshot only needs to be *eventually*
//!   consistent, never a linearizable cut.
//! * `merged`: a value owned elsewhere (the search gate, the connection
//!   gauges, the cache, the registry, the slow-query ring), which
//!   `Service::stats` copies in.
//! * `derived`: computed from the other fields when a reply is
//!   rendered, and stored nowhere.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use ic_obs::PromText;

use crate::planner::Algorithm;

/// Number of per-algorithm execution counters (one per
/// [`Algorithm::ALL`] entry).
pub const ALGORITHM_COUNT: usize = Algorithm::ALL.len();

/// How a row reads, in both replies.
#[derive(Debug, Clone, Copy)]
enum Value {
    /// A counter or gauge: `key=n` in `STATS`, one sample in `METRICS`.
    Count(u64),
    /// A ratio, printed to four decimals.
    Rate(f64),
    /// One count per algorithm, in [`Algorithm::ALL`] order: one
    /// `<algorithm>=n` pair each in `STATS`, one sample each labelled
    /// `algorithm` in `METRICS`.
    PerAlgorithm([u64; ALGORITHM_COUNT]),
}

/// A row's `METRICS` family.
struct Family {
    kind: &'static str,
    name: &'static str,
    help: &'static str,
}

/// One row of the list.
struct Row {
    stats: Option<&'static str>,
    family: Option<Family>,
    read: fn(&ServiceStats) -> Value,
}

/// Declares the rows. Each row is
/// `<source> <field or reader> => <STATS key or ->, <(kind name help) or ->;`
/// and the rows appear in both replies in list order.
macro_rules! service_stats {
    (@rows [$($field:tt)*] [$($atomic:ident)*] [$($row:tt)*]
        $(#[$doc:meta])* recorded $name:ident => $stats:tt, $family:tt; $($rest:tt)*) => {
        service_stats!(@rows
            [$($field)* $(#[$doc])* $name]
            [$($atomic)* $name]
            [$($row)* {$stats, $family, |s| Value::Count(s.$name)}]
            $($rest)*);
    };
    (@rows [$($field:tt)*] [$($atomic:ident)*] [$($row:tt)*]
        $(#[$doc:meta])* merged $name:ident => $stats:tt, $family:tt; $($rest:tt)*) => {
        service_stats!(@rows
            [$($field)* $(#[$doc])* $name]
            [$($atomic)*]
            [$($row)* {$stats, $family, |s| Value::Count(s.$name)}]
            $($rest)*);
    };
    (@rows [$($field:tt)*] [$($atomic:ident)*] [$($row:tt)*]
        derived $read:expr => $stats:tt, $family:tt; $($rest:tt)*) => {
        service_stats!(@rows [$($field)*] [$($atomic)*] [$($row)* {$stats, $family, $read}] $($rest)*);
    };
    (@rows [$($(#[$doc:meta])* $field:ident)*] [$($atomic:ident)*]
        [$({$stats:tt, $family:tt, $read:expr})*]) => {
        /// A point-in-time snapshot of the service counters: one field per
        /// `recorded` or `merged` row of the list in `stats.rs`.
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
        pub struct ServiceStats {
            $($(#[$doc])* pub $field: u64,)*
            /// Executions per algorithm, indexed by [`Algorithm::index`] (the
            /// order of [`Algorithm::ALL`]); see [`Self::executions`].
            pub executed: [u64; ALGORITHM_COUNT],
        }

        /// The counters the query path bumps: one atomic per `recorded`
        /// row, plus the executions per algorithm.
        #[derive(Debug, Default)]
        pub(crate) struct StatsRecorder {
            $($atomic: AtomicU64,)*
            executed: [AtomicU64; ALGORITHM_COUNT],
        }

        impl StatsRecorder {
            /// Reads every recorded counter; the `merged` fields read zero
            /// until `Service::stats` fills them in.
            pub(crate) fn snapshot(&self) -> ServiceStats {
                ServiceStats {
                    $($atomic: self.$atomic.load(Ordering::Relaxed),)*
                    executed: self.executed.each_ref().map(|c| c.load(Ordering::Relaxed)),
                    ..ServiceStats::default()
                }
            }
        }

        const ROWS: &[Row] = &[$(Row {
            stats: service_stats!(@key $stats),
            family: service_stats!(@family $family),
            read: $read,
        },)*];
    };
    (@key -) => { None };
    (@key $key:literal) => { Some($key) };
    (@family -) => { None };
    (@family ($kind:ident $name:literal $help:literal)) => {
        Some(Family { kind: stringify!($kind), name: $name, help: $help })
    };
    ($($rows:tt)*) => { service_stats!(@rows [] [] [] $($rows)*); };
}

service_stats! {
    /// Queries answered: every `QUERY`, every `BATCH` slot and every
    /// `EXPLAIN ANALYZE` (hits + misses + empty plans + coalesced).
    /// Session pulls are not queries.
    recorded queries => "queries", (counter "ic_queries_total" "Queries answered.");
    /// Queries answered from the result cache (exact or prefix-served).
    recorded cache_hits => "hits", (counter "ic_cache_hits_total"
        "Queries answered from the result cache, exact or prefix-served.");
    /// Queries that executed an algorithm.
    recorded cache_misses => "misses", (counter "ic_cache_misses_total" "Result-cache misses.");
    /// Queries the planner answered empty without a search (γ above a
    /// memory-resident graph's degeneracy); neither hits nor misses, and
    /// not counted in [`Self::executed`].
    recorded empty_plans => "empty_plans", (counter "ic_empty_plans_total"
        "Queries planned empty (gamma above the degeneracy) without a search.");
    /// Queries that joined an identical query already in flight instead
    /// of executing — the single-flight savings.
    recorded coalesced => "coalesced", (counter "ic_coalesced_total"
        "Queries coalesced onto an identical in-flight execution.");
    /// Cache hits answered by slicing a larger-k (or exhausted)
    /// same-lane entry; a subset of `cache_hits`.
    recorded prefix_served => "prefix_served", (counter "ic_prefix_served_total"
        "Queries served by slicing a larger-k cached answer.");
    /// `query_batch` invocations (member requests count in `queries`).
    recorded batches => "batches", (counter "ic_batches_total" "Batch requests.");
    /// Searches that panicked (caught; their slots were released).
    merged worker_panics => "worker_panics", (counter "ic_worker_panics_total"
        "Searches that panicked (caught; their slots were released).");
    derived |s| Value::Rate(s.hit_rate()) => "hit_rate", -;
    derived |s| Value::PerAlgorithm(s.executed) => "executions", (counter "ic_executions_total"
        "Algorithm executions by planner choice.");
    derived |s| Value::Count(s.mean_latency().as_micros() as u64) => "mean_latency_micros", -;
    /// Total wall-clock spent answering queries, nanoseconds.
    recorded query_latency_ns => -, -;
    /// Progressive sessions opened.
    recorded sessions_opened => "sessions_opened", (counter "ic_sessions_opened_total"
        "Progressive sessions opened.");
    /// Progressive sessions closed.
    recorded sessions_closed => "sessions_closed", (counter "ic_sessions_closed_total"
        "Progressive sessions closed.");
    /// Communities delivered through progressive sessions.
    recorded communities_streamed => "streamed", (counter "ic_communities_streamed_total"
        "Communities streamed by sessions.");
    /// Registered graphs.
    merged graphs => "graphs", (gauge "ic_graphs" "Registered graphs.");
    /// Result-cache entries.
    merged cached_entries => "cached_entries", (gauge "ic_cache_entries" "Result-cache entries.");
    /// Transient accept-loop failures survived (failed `accept` calls or
    /// connection-thread spawns; the server kept accepting).
    recorded accept_errors => "accept_errors", (counter "ic_accept_errors_total"
        "Transient accept-loop failures the server survived.");
    /// Client-socket writes that failed; each closed its connection.
    recorded write_errors => "write_errors", (counter "ic_write_errors_total"
        "Client-socket writes that failed; each closed its connection.");
    /// Protocol connections currently being served.
    merged live_connections => "live_connections", (gauge "ic_live_connections"
        "Protocol connections currently being served.");
    /// Protocol connections ever accepted.
    merged connections_total => -, (counter "ic_connections_total"
        "Protocol connections accepted.");
    /// Search slots: how many searches may run at once.
    merged search_slots => -, (gauge "ic_pool_workers" "Search slots.");
    /// Searches waiting for a slot.
    merged queue_depth => -, (gauge "ic_pool_queue_depth" "Searches waiting for a slot.");
    /// Cumulative nanoseconds searches spent in their slots.
    merged busy_ns => -, (counter "ic_pool_busy_ns_total"
        "Cumulative nanoseconds searches spent in their slots.");
    /// Queries that ever crossed the slowlog threshold.
    merged slow_queries => -, (counter "ic_slow_queries_total"
        "Queries that crossed the slowlog threshold.");
}

impl StatsRecorder {
    pub(crate) fn record_hit(&self, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
        self.query_latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A cache hit answered by slicing a larger-k (or exhausted) entry of
    /// the same lane rather than an exact key match.
    pub(crate) fn record_prefix_hit(&self, latency: Duration) {
        self.prefix_served.fetch_add(1, Ordering::Relaxed);
        self.record_hit(latency);
    }

    /// A query answered by joining another query's in-flight execution.
    pub(crate) fn record_coalesced(&self, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.coalesced.fetch_add(1, Ordering::Relaxed);
        self.query_latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// One `query_batch` call (its member requests are recorded
    /// individually as hits/misses/coalesced).
    pub(crate) fn record_batch(&self) {
        self.batches.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_miss(&self, algorithm: Algorithm, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
        if let Some(executed) = self.executed.get(algorithm.index()) {
            executed.fetch_add(1, Ordering::Relaxed);
        }
        self.query_latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    /// A query the planner proved empty (γ above the degeneracy): it
    /// neither probed the cache nor executed anything.
    pub(crate) fn record_empty_plan(&self, latency: Duration) {
        self.queries.fetch_add(1, Ordering::Relaxed);
        self.empty_plans.fetch_add(1, Ordering::Relaxed);
        self.query_latency_ns
            .fetch_add(latency.as_nanos() as u64, Ordering::Relaxed);
    }

    pub(crate) fn record_session_opened(&self) {
        self.sessions_opened.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_session_closed(&self) {
        self.sessions_closed.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn record_streamed(&self, communities: usize) {
        self.communities_streamed
            .fetch_add(communities as u64, Ordering::Relaxed);
    }

    /// One transient accept-loop failure the server survived (failed
    /// `accept` or connection-thread spawn); the loop kept accepting.
    pub(crate) fn record_accept_error(&self) {
        self.accept_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// One failed client-socket write: the response could not be
    /// delivered and the connection was closed. The query itself still
    /// counted normally — this tracks delivery, not execution.
    pub(crate) fn record_write_error(&self) {
        self.write_errors.fetch_add(1, Ordering::Relaxed);
    }
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

    /// Mean latency per query; zero before any query.
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

/// Appends ` key=value` for every row with a `STATS` key, in list order:
/// the body of the `STATS` reply's first line.
pub(crate) fn write_stats_line(s: &ServiceStats, out: &mut String) {
    for row in ROWS {
        let Some(key) = row.stats else { continue };
        match (row.read)(s) {
            Value::Count(n) => out.push_str(&format!(" {key}={n}")),
            Value::Rate(r) => out.push_str(&format!(" {key}={r:.4}")),
            Value::PerAlgorithm(counts) => {
                for (algo, n) in Algorithm::ALL.iter().zip(counts) {
                    out.push_str(&format!(" {algo}={n}"));
                }
            }
        }
    }
}

/// Renders every row with a `METRICS` family, in list order.
pub(crate) fn write_metrics(s: &ServiceStats, p: &mut PromText) {
    for row in ROWS {
        let Some(family) = &row.family else { continue };
        p.header(family.name, family.help, family.kind);
        match (row.read)(s) {
            Value::Count(n) => p.sample(family.name, &[], n),
            Value::Rate(r) => p.sample_f64(family.name, &[], r),
            Value::PerAlgorithm(counts) => {
                for (algo, n) in Algorithm::ALL.iter().zip(counts) {
                    p.sample(family.name, &[("algorithm", algo.name())], n);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use std::collections::HashMap;

    use super::*;
    use crate::protocol::handle_line;
    use crate::service::{Service, ServiceConfig};

    #[test]
    fn counters_accumulate() {
        let r = StatsRecorder::default();
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
        let r = StatsRecorder::default();
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
    fn empty_plans_are_queries_but_not_misses() {
        let r = StatsRecorder::default();
        r.record_empty_plan(Duration::from_micros(4));
        r.record_miss(Algorithm::Forward, Duration::from_micros(8));
        let s = r.snapshot();
        assert_eq!(s.queries, 2);
        assert_eq!(s.empty_plans, 1);
        assert_eq!(s.cache_misses, 1);
        assert_eq!(s.cache_hits, 0);
        assert_eq!(s.executions(Algorithm::Forward), 1, "only the miss ran");
        assert_eq!(s.mean_latency(), Duration::from_micros(6));
    }

    #[test]
    fn empty_snapshot_is_zero() {
        let s = StatsRecorder::default().snapshot();
        assert_eq!(s, ServiceStats::default());
        assert_eq!(s.hit_rate(), 0.0);
        assert_eq!(s.mean_latency(), Duration::ZERO);
    }

    /// After a session that moves every kind of counter, each row on
    /// both surfaces reads the same value in `STATS` and in `METRICS`,
    /// `SLOWLOG`'s total matches the slow-query family, and the verbs
    /// with side effects moved their counters.
    #[test]
    fn stats_and_metrics_agree_on_every_shared_row() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 2,
            slowlog_threshold: Duration::ZERO, // every query is slow
            ..ServiceConfig::default()
        });
        svc.register("fig3", ic_graph::paper::figure3());
        for line in [
            "QUERY fig3 3 4",  // miss
            "QUERY fig3 3 4",  // exact hit
            "QUERY fig3 3 2",  // prefix hit
            "QUERY fig3 99 1", // γ above γmax: empty plan
            "BATCH fig3 2 2 ; fig3 2 1",
            "OPEN fig3 3",
            "NEXT 1 2",
            "CLOSE 1",
        ] {
            let reply = handle_line(&svc, line);
            assert!(reply.starts_with("OK"), "{line} -> {reply}");
        }
        let stats_reply = handle_line(&svc, "STATS");
        let stats: HashMap<&str, &str> = stats_reply
            .lines()
            .next()
            .unwrap_or_default()
            .split_ascii_whitespace()
            .filter_map(|pair| pair.split_once('='))
            .collect();
        let metrics_reply = handle_line(&svc, "METRICS");
        let metrics: HashMap<&str, &str> = metrics_reply
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|l| l.rsplit_once(' '))
            .collect();
        let snapshot = svc.stats();
        let mut shared = 0;
        for row in ROWS {
            let (Some(key), Some(family)) = (row.stats, &row.family) else {
                continue;
            };
            let pairs: Vec<(String, String)> = match (row.read)(&snapshot) {
                Value::PerAlgorithm(_) => Algorithm::ALL
                    .iter()
                    .map(|a| {
                        let series = format!("{}{{algorithm=\"{a}\"}}", family.name);
                        (a.name().to_string(), series)
                    })
                    .collect(),
                _ => vec![(key.to_string(), family.name.to_string())],
            };
            for (stats_key, series) in pairs {
                let in_stats = stats.get(stats_key.as_str());
                let in_metrics = metrics.get(series.as_str());
                assert!(in_stats.is_some(), "{stats_key} missing: {stats_reply}");
                assert_eq!(in_stats, in_metrics, "{stats_key} vs {series}");
                shared += 1;
            }
        }
        assert!(shared > ALGORITHM_COUNT, "rows on both surfaces: {shared}");

        let slowlog = handle_line(&svc, "SLOWLOG");
        let slow_total = slowlog
            .split_ascii_whitespace()
            .find_map(|t| t.strip_prefix("slow_total="));
        assert_eq!(slow_total, metrics.get("ic_slow_queries_total").copied());
        // the verbs with side effects moved their counters
        for key in [
            "queries",
            "batches",
            "sessions_opened",
            "streamed",
            "sessions_closed",
        ] {
            let n: u64 = stats.get(key).and_then(|v| v.parse().ok()).unwrap_or(0);
            assert!(n > 0, "{key} did not move: {stats_reply}");
        }
        assert_ne!(slow_total, Some("0"), "{slowlog}");
        assert_eq!(stats.get("empty_plans"), Some(&"1"), "{stats_reply}");
    }
}
