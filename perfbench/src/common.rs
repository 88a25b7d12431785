//! Pieces every workload shares: the run record, end-to-end metrics,
//! set-up timing, teardown, and answer comparison.

use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

use ic_core::Community;
use ic_graph::GraphStore;
use ic_load::LoadClass;
use ic_obs::{QueryTrace, Stage};
use ic_service::Service;

use crate::spans::SpanLog;
use crate::stats::{median, Dist, Metrics};

/// Set-ups per run; the median is reported as `setup_s`.
pub const SETUP_REPS: usize = 5;

/// Worker threads of every service the benchmark builds: one per core of
/// the 2-core machine the workloads were sized on.
pub const WORKERS: usize = 2;

/// What the command line asked for.
#[derive(Debug, Clone)]
pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    pub metrics: Metrics,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that failed, one line each.
    pub mismatches: Vec<String>,
    /// Output checks that passed.
    pub checked: u64,
    /// Percentiles the ten-beyond rule refused.
    pub refused: Vec<String>,
    pub spans: Option<SpanLog>,
}

/// One timed client operation.
#[derive(Debug, Clone, Copy)]
pub struct Op {
    pub class: LoadClass,
    pub ms: f64,
}

/// Adds the end-to-end metrics of `ops` (completed operations), measured
/// over `wall_s` seconds, under `prefix`. Percentiles of the untraced run
/// obey the ten-beyond rule; the traced run's copies (`traced.`) are
/// diagnostics and do not.
pub fn end_to_end(run: &mut Run, prefix: &str, ops: &[Op], wall_s: f64, setup_s: &[f64]) {
    let checked = prefix.is_empty();
    let m = &mut run.metrics;
    m.add(
        format!("{prefix}setup_s"),
        median(setup_s),
        "s",
        setup_s.len(),
    );
    m.add(format!("{prefix}rss_mib"), peak_rss_mib(), "MiB", 1);
    m.add(
        format!("{prefix}ops_per_s"),
        ops.len() as f64 / wall_s.max(1e-9),
        "1/s",
        ops.len(),
    );
    if checked {
        let attempted = run.attempted.max(1);
        m.add(
            "error_frac",
            run.failed as f64 / attempted as f64,
            "frac",
            attempted as usize,
        );
    }
    let mut series: Vec<(String, Vec<f64>)> = vec![("lat".to_string(), Vec::new())];
    for class in LoadClass::ALL {
        series.push((class.name().to_string(), Vec::new()));
    }
    for op in ops {
        series[0].1.push(op.ms);
        series[1 + op.class.index()].1.push(op.ms);
    }
    for (i, (label, samples)) in series.into_iter().enumerate() {
        if samples.is_empty() {
            continue;
        }
        let tail = if i == 0 { 0.99 } else { 0.9 };
        let d = Dist::new(samples);
        for q in [0.5_f64, tail] {
            let name = format!("{prefix}{label}_p{}_ms", (q * 100.0).round());
            if checked {
                if let Err(why) = m.add_checked(&name, &d, q, "ms") {
                    run.refused.push(why);
                }
            } else {
                m.add(name, d.quantile(q), "ms", d.len());
            }
        }
    }
}

/// Service-layer numbers of one run: the stage times of every traced
/// query and the service's own counters.
#[derive(Debug, Default)]
pub struct ServiceRec {
    queue_us: Vec<f64>,
    plan_us: Vec<f64>,
    cache_us: Vec<f64>,
    self_us: Vec<f64>,
}

impl ServiceRec {
    /// One query's stage trace, and the service's self time for it: its
    /// span minus the engine's.
    pub fn push(&mut self, trace: &QueryTrace, self_ns: i64) {
        let us = |stage| trace.stage_ns(stage) as f64 / 1e3;
        self.queue_us.push(us(Stage::Queue));
        self.plan_us.push(us(Stage::Plan));
        self.cache_us.push(us(Stage::CacheProbe));
        self.self_us.push(self_ns as f64 / 1e3);
    }

    /// Adds the stage percentiles and `svc`'s cache and pool counters;
    /// `busy_ns` is the pool's busy time over the measured `wall_s`.
    pub fn report(&self, m: &mut Metrics, svc: &Service, busy_ns: u64, wall_s: f64) {
        add_q(m, "service.queue_p99_us", &self.queue_us, 0.99, "us");
        add_q(m, "service.plan_p50_us", &self.plan_us, 0.5, "us");
        add_q(m, "service.cache_p50_us", &self.cache_us, 0.5, "us");
        add_q(m, "service.self_p50_us", &self.self_us, 0.5, "us");
        let stats = svc.stats();
        let (q, n) = (stats.queries as f64, stats.queries as usize);
        add_frac(m, "cache.hit_frac", stats.cache_hits as f64, q, n);
        add_frac(m, "cache.prefix_frac", stats.prefix_served as f64, q, n);
        m.add("cache.coalesced", stats.coalesced as f64, "count", n);
        m.add("pool.worker_panics", stats.worker_panics as f64, "count", 1);
        let capacity_ns = wall_s * 1e9 * svc.worker_count() as f64;
        add_frac(m, "pool.busy_frac", busy_ns as f64, capacity_ns, 1);
    }
}

/// `ic_pool_busy_ns_total` from the service's Prometheus exposition.
pub fn pool_busy_ns(svc: &Service) -> u64 {
    svc.metrics_text()
        .lines()
        .find_map(|l| l.strip_prefix("ic_pool_busy_ns_total "))
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0)
}

/// Peak resident set of this process (the one hosting the service), MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Runs `build` [`SETUP_REPS`] times, tearing down all but the last
/// result with `teardown`; returns the last and every set-up time.
pub fn repeated_setup<T>(
    mut build: impl FnMut(usize) -> Result<T, String>,
    mut teardown: impl FnMut(T) -> Result<(), String>,
) -> Result<(T, Vec<f64>), String> {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut kept = None;
    for rep in 0..SETUP_REPS {
        if let Some(previous) = kept.take() {
            teardown(previous)?;
        }
        let t = Instant::now();
        let built = build(rep)?;
        times.push(t.elapsed().as_secs_f64());
        kept = Some(built);
    }
    let kept = kept.ok_or("no set-up ran")?;
    Ok((kept, times))
}

/// Drops the service once every other holder has released it. A pool
/// worker keeps its job's clone of the `Arc` until the job returns, after
/// the caller already has the answer; if that clone were the last, the
/// service would be dropped on the worker, which then joins itself.
pub fn quiesce(svc: Arc<Service>) -> Result<(), String> {
    let deadline = Instant::now() + Duration::from_secs(20);
    while Arc::strong_count(&svc) > 1 {
        if Instant::now() > deadline {
            return Err(format!(
                "service still shared by {} holders after 20 s",
                Arc::strong_count(&svc) - 1
            ));
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    drop(svc);
    Ok(())
}

/// The benchmark's scratch directory inside the checkout.
pub fn out_dir() -> Result<PathBuf, String> {
    let dir = std::env::current_dir()
        .map_err(|e| format!("cwd: {e}"))?
        .join(".bench_out");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

/// A community list as comparable values: influence bits and sorted
/// external member ids, in answer order.
pub fn signature(communities: &[Community], store: &GraphStore) -> Vec<(u64, Vec<u64>)> {
    communities
        .iter()
        .map(|c| {
            let mut ids = c.external_members_in(store);
            ids.sort_unstable();
            (c.influence.to_bits(), ids)
        })
        .collect()
}

/// The value of `key=` in a reply line.
pub fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_ascii_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// A seeded yes/no per item: the same `(seed, item)` always answers the
/// same, about one time in `one_in`.
pub fn sampled(seed: u64, item: u64, one_in: u64) -> bool {
    let mut z = seed ^ item.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    ic_graph::rng::splitmix64(&mut z).is_multiple_of(one_in)
}

/// Adds `name` as the share `part / whole` (0 when `whole` is 0).
pub fn add_frac(m: &mut Metrics, name: &str, part: f64, whole: f64, n: usize) {
    let v = if whole > 0.0 { part / whole } else { 0.0 };
    m.add(name, v, "frac", n);
}

/// Adds p50 (or another quantile) of `samples` in the given unit.
pub fn add_q(m: &mut Metrics, name: &str, samples: &[f64], q: f64, unit: &'static str) {
    let d = Dist::new(samples.to_vec());
    m.add(name, d.quantile(q), unit, d.len());
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_parse_out_of_reply_lines() {
        let line = "OK algo=local_search cached=true coalesced=false micros=41 count=4";
        assert_eq!(field(line, "micros"), Some("41"));
        assert_eq!(field(line, "cached"), Some("true"));
        assert_eq!(field(line, "missing"), None);
    }

    #[test]
    fn sampling_is_seeded() {
        let a: Vec<bool> = (0..200).map(|i| sampled(5, i, 8)).collect();
        let b: Vec<bool> = (0..200).map(|i| sampled(5, i, 8)).collect();
        assert_eq!(a, b);
        let hits = a.iter().filter(|&&x| x).count();
        assert!((10..50).contains(&hits), "{hits}");
    }

    #[test]
    fn end_to_end_refuses_thin_tails() {
        let mut run = Run {
            attempted: 40,
            ..Run::default()
        };
        let ops: Vec<Op> = (0..40)
            .map(|i| Op {
                class: if i % 2 == 0 {
                    LoadClass::Cold
                } else {
                    LoadClass::Cached
                },
                ms: i as f64,
            })
            .collect();
        end_to_end(&mut run, "", &ops, 2.0, &[0.1, 0.3, 0.2]);
        let m = &run.metrics;
        assert_eq!(m.get("setup_s").unwrap().value, 0.2);
        assert_eq!(m.get("ops_per_s").unwrap().value, 20.0);
        assert_eq!(m.get("lat_p50_ms").unwrap().value, 19.0);
        assert_eq!(m.get("cold_p50_ms").unwrap().value, 18.0);
        assert!(m.get("lat_p99_ms").is_none());
        assert!(m.get("cold_p90_ms").is_none());
        assert!(run.refused.iter().any(|r| r.starts_with("lat_p99_ms")));
    }
}
