//! Shared harness for the evaluation reproduction: cached datasets for the
//! `experiments` binary (the one harness that times the paper's figures)
//! and the serving-stack criterion benches, plus the timing helpers and
//! table formatting `experiments` prints its series with.

use std::collections::HashMap;
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

use ic_graph::suite;
use ic_graph::WeightedGraph;

/// Dataset scale for a run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full harness scale (the `experiments` binary's default).
    Bench,
    /// ~16x smaller (`experiments --small`, criterion benches, CI).
    Small,
}

fn cache() -> &'static Mutex<HashMap<(&'static str, bool), &'static WeightedGraph>> {
    static CACHE: OnceLock<Mutex<HashMap<(&'static str, bool), &'static WeightedGraph>>> =
        OnceLock::new();
    CACHE.get_or_init(|| Mutex::new(HashMap::new()))
}

/// Returns a lazily built, leaked (process-lifetime) dataset by Table 1
/// name. Building the large stand-ins costs seconds; caching keeps every
/// figure's harness from repaying it.
pub fn dataset(name: &'static str, scale: Scale) -> &'static WeightedGraph {
    let key = (name, scale == Scale::Small);
    let mut map = cache().lock().expect("cache poisoned");
    if let Some(g) = map.get(&key) {
        return g;
    }
    let g: &'static WeightedGraph = Box::leak(Box::new(match scale {
        Scale::Bench => suite::bench_dataset(name),
        Scale::Small => suite::small_dataset(name),
    }));
    map.insert(key, g);
    g
}

/// Names of the suite graphs, in Table 1 order.
pub fn suite_names() -> Vec<&'static str> {
    suite::SUITE.iter().map(|s| s.name).collect()
}

/// Milliseconds elapsed running `f` once (result discarded).
pub fn time_once_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let t0 = Instant::now();
    let out = f();
    let ms = t0.elapsed().as_secs_f64() * 1e3;
    std::hint::black_box(out);
    ms
}

/// Average milliseconds over `runs` executions — the paper's protocol
/// ("we run an algorithm on a graph three times and report the average
/// CPU time in milliseconds").
pub fn avg_ms<T>(runs: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(runs > 0);
    let mut total = 0.0;
    for _ in 0..runs {
        total += time_once_ms(&mut f);
    }
    total / runs as f64
}

/// Prints a figure/table header in a uniform style.
pub fn header(title: &str) {
    println!("\n================================================================");
    println!("{title}");
    println!("================================================================");
}

/// Formats one processing-time cell the way the paper's log-scale plots
/// read: milliseconds with 3 significant digits, or `-` for absent runs.
pub fn cell(v: Option<f64>) -> String {
    match v {
        Some(ms) if ms >= 100.0 => format!("{ms:>10.0}"),
        Some(ms) if ms >= 1.0 => format!("{ms:>10.2}"),
        Some(ms) => format!("{ms:>10.4}"),
        None => format!("{:>10}", "-"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn datasets_are_cached_and_shared() {
        let a = dataset("email", Scale::Small) as *const _;
        let b = dataset("email", Scale::Small) as *const _;
        assert_eq!(a, b, "same pointer from cache");
    }

    #[test]
    fn timing_helpers_run() {
        let ms = avg_ms(3, || (0..1000).sum::<u64>());
        assert!(ms >= 0.0);
    }

    #[test]
    fn cells_format() {
        assert_eq!(cell(None).trim(), "-");
        assert!(cell(Some(0.5)).contains("0.5"));
        assert!(cell(Some(1234.0)).contains("1234"));
    }
}
