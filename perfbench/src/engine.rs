//! `engine_cold`: a closed loop of queries the cache can never serve.
//!
//! One client thread calls `Service::query` with a seeded mix over
//! generated graphs: the PageRank-weighted `uk` and `email` stand-ins of
//! `suite::bench_dataset` (a tiny accessed prefix), a uniform-weight
//! G(200k, 2M) on which LocalSearch grows for many rounds, the `youtube`
//! stand-in served file-backed from an `.icsr` file (LocalSearch-SE),
//! and a share of γ above γmax (the planner's Forward shortcut). The
//! cache is cleared before every request. The traced run times each
//! request twice: through `Service::query_traced`, and through the
//! planned executor called directly on the registered store.

use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ic_core::{AlgorithmId, Community};
use ic_graph::stats::graph_stats;
use ic_graph::{save_icsr, suite, GraphStore, Pcg32, WeightedGraph};
use ic_load::LoadClass;
use ic_service::{Algorithm, Query, Service, ServiceConfig, SyntheticSpec};

use crate::common::{
    add_q, end_to_end, out_dir, pool_busy_ns, quiesce, repeated_setup, sampled, signature, Args,
    Op, Run, ServiceRec, WORKERS,
};
use crate::spans::SpanLog;
use crate::stats::Dist;

/// Requests a run makes at least, so `lat_p99_ms` obeys the ten-beyond
/// rule even when the requests are slower than expected.
const MIN_OPS: usize = 1000;
/// One executed request in this many keeps its answer for the check.
const CHECK_ONE_IN: u64 = 20;
/// Answers checked against a forced global baseline, at most.
const MAX_CHECKS: usize = 6;

/// Where a request goes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Stratum {
    Uk,
    Gnm,
    File,
    Email,
    AboveGammaMax,
}

/// Every round of [`ROUND`] requests holds each stratum this many times.
const SHARES: [(Stratum, usize); 5] = [
    (Stratum::Uk, 12),
    (Stratum::Gnm, 12),
    (Stratum::File, 8),
    (Stratum::Email, 4),
    (Stratum::AboveGammaMax, 4),
];
const ROUND: usize = 40;

/// γmax of the graphs requests refer to, for the above-γmax stratum.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GammaMax {
    pub uk: u32,
    pub gnm: u32,
}

/// The seeded request sequence: `n` queries, round by round. Within a
/// round each stratum gets its share, its γ values in equal numbers, and
/// one `k` from each of its equal log-width bins (seeded position within
/// the bin); the round is then shuffled. Stratifying this way keeps the
/// mix, and so the run's percentiles, the same from seed to seed while
/// every seed draws different queries.
pub fn requests(seed: u64, n: usize, gmax: GammaMax) -> Vec<Query> {
    let mut rng = Pcg32::new(seed ^ 0xE9_61_9E);
    let mut out = Vec::with_capacity(n + ROUND);
    while out.len() < n {
        let mut round = Vec::with_capacity(ROUND);
        for (stratum, count) in SHARES {
            let (graphs, gammas, lo, hi): (&[(&str, u32)], Vec<u32>, f64, f64) = match stratum {
                Stratum::Uk => (&[("uk", 0)], vec![5, 10, 15], 10.0, 1000.0),
                Stratum::Gnm => (&[("gnm", 0)], vec![3, 4, 5], 10.0, 100.0),
                Stratum::File => (&[("youtube", 0)], vec![2, 3, 4], 10.0, 200.0),
                Stratum::Email => (&[("email", 0)], vec![3, 4, 5, 6, 7, 8], 10.0, 1000.0),
                Stratum::AboveGammaMax => {
                    (&[("uk", 1), ("gnm", 2)], (1..=5).collect(), 10.0, 100.0)
                }
            };
            let mut slots: Vec<(usize, u32)> = (0..count)
                .map(|j| (j % graphs.len(), gammas[j % gammas.len()]))
                .collect();
            rng.shuffle(&mut slots);
            for (bin, (g, gamma)) in slots.into_iter().enumerate() {
                let u = (bin as f64 + rng.gen_f64()) / count as f64;
                let k = (lo * (hi / lo).powf(u)).round() as usize;
                let (graph, above) = graphs[g];
                let gamma = match above {
                    1 => gmax.uk + gamma,
                    2 => gmax.gnm + gamma,
                    _ => gamma,
                };
                round.push(Query::new(graph, gamma, k));
            }
        }
        rng.shuffle(&mut round);
        out.extend(round);
    }
    out.truncate(n);
    out
}

/// The graphs, generated once per run; set-up registers them.
struct Inputs {
    uk: WeightedGraph,
    gnm: WeightedGraph,
    email: WeightedGraph,
    /// The graph behind the `.icsr` file, memory-resident, for checks.
    youtube: GraphStore,
    icsr: PathBuf,
    gmax: GammaMax,
}

fn inputs(dir: &Path) -> Result<Inputs, String> {
    let uk = suite::bench_dataset("uk");
    let gnm = SyntheticSpec::Gnm {
        n: 200_000,
        m: 2_000_000,
        seed: 0x5EED,
    }
    .build();
    let email = suite::bench_dataset("email");
    let youtube = suite::bench_dataset("youtube");
    let icsr = dir.join(format!("youtube-{}.icsr", std::process::id()));
    save_icsr(&youtube, &icsr).map_err(|e| format!("{}: {e}", icsr.display()))?;
    let gmax = GammaMax {
        uk: graph_stats(&uk).gamma_max,
        gnm: graph_stats(&gnm).gamma_max,
    };
    Ok(Inputs {
        uk,
        gnm,
        email,
        youtube: GraphStore::Memory(Arc::new(youtube)),
        icsr,
        gmax,
    })
}

fn setup(inputs: &Inputs) -> Result<Arc<Service>, String> {
    let svc = Service::new(ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    });
    svc.register("uk", inputs.uk.clone());
    svc.register("gnm", inputs.gnm.clone());
    svc.register("email", inputs.email.clone());
    let path = inputs.icsr.to_str().ok_or("non-UTF-8 scratch path")?;
    svc.register_file("youtube", path, None)
        .map_err(|e| e.to_string())?;
    // one query per graph, so lazy first-use work is not timed
    for g in ["uk", "gnm", "email", "youtube"] {
        svc.query(Query::new(g, 3, 10)).map_err(|e| e.to_string())?;
    }
    svc.clear_cache();
    Ok(svc)
}

/// Engine-layer numbers of directly executed searches.
#[derive(Debug, Default)]
pub struct EngineRec {
    query_us: Vec<f64>,
    count_us: Vec<f64>,
    enumerate_us: Vec<f64>,
    rounds: Vec<f64>,
    work_ratio: Vec<f64>,
    members: u64,
    exec: [u64; AlgorithmId::ALL.len()],
    io_bytes: u64,
    io_ops: u64,
}

impl EngineRec {
    fn searches(&self) -> usize {
        self.query_us.len()
    }

    pub fn report(&self, m: &mut crate::stats::Metrics) {
        let n = self.searches();
        add_q(m, "engine.query_p50_us", &self.query_us, 0.5, "us");
        add_q(m, "engine.query_p99_us", &self.query_us, 0.99, "us");
        add_q(m, "engine.count_p50_us", &self.count_us, 0.5, "us");
        add_q(m, "engine.enumerate_p50_us", &self.enumerate_us, 0.5, "us");
        add_q(m, "engine.rounds_p50", &self.rounds, 0.5, "count");
        add_q(m, "engine.work_ratio_p50", &self.work_ratio, 0.5, "ratio");
        let ratios = Dist::new(self.work_ratio.clone());
        m.add("engine.work_ratio_max", ratios.max(), "ratio", ratios.len());
        let per = |v: u64| v as f64 / n.max(1) as f64;
        m.add("engine.members_per_query", per(self.members), "count", n);
        for id in AlgorithmId::ALL {
            m.add(
                format!("engine.exec.{}", id.name()),
                self.exec[id.index()] as f64,
                "count",
                n,
            );
        }
        m.add("store.io_bytes_per_query", per(self.io_bytes), "bytes", n);
        m.add("store.read_ops_per_query", per(self.io_ops), "count", n);
    }
}

/// Runs `algorithm` for `query` directly on `store`, recording the
/// engine and store numbers; returns the span.
pub fn record_search(
    rec: &mut EngineRec,
    store: &GraphStore,
    query: &Query,
    algorithm: Algorithm,
) -> Result<Duration, String> {
    let core = query.to_core().map_err(|e| e.to_string())?;
    let io_before = store.io_totals();
    let t = Instant::now();
    let result = algorithm
        .resolve()
        .run_store(store, &core)
        .map_err(|e| format!("{algorithm} on {}: {e}", query.graph))?;
    let span = t.elapsed();
    let io = store.io_totals().delta_since(io_before);
    let s = result.stats;
    rec.query_us.push(span.as_secs_f64() * 1e6);
    rec.count_us.push(s.count_ns as f64 / 1e3);
    rec.enumerate_us.push(s.enumerate_ns as f64 / 1e3);
    rec.rounds.push(s.rounds as f64);
    if s.final_prefix_size > 0 {
        rec.work_ratio
            .push(s.total_counted_size as f64 / s.final_prefix_size as f64);
    }
    rec.members += result
        .communities
        .iter()
        .map(|c| c.len() as u64)
        .sum::<u64>();
    rec.exec[algorithm.index()] += 1;
    rec.io_bytes += io.bytes_read;
    rec.io_ops += io.read_ops;
    Ok(span)
}

/// An answer kept for the OnlineAll check.
struct Kept {
    query: Query,
    store: GraphStore,
    communities: Arc<Vec<Community>>,
}

pub fn run(args: &Args) -> Result<Run, String> {
    let dir = out_dir()?;
    let inputs = inputs(&dir)?;
    let (svc, setup_s) = repeated_setup(|_| setup(&inputs), quiesce)?;
    let queries = requests(
        args.seed,
        MIN_OPS.max(args.seconds as usize * 400),
        inputs.gmax,
    );

    let mut run = Run::default();
    let mut ops = Vec::new();
    let mut kept = Vec::new();
    let mut lag_us = Vec::new();
    let mut service = ServiceRec::default();
    let mut engine = EngineRec::default();
    let mut log = SpanLog::new(Instant::now());
    let deadline = Duration::from_secs(args.seconds);
    let busy_before = pool_busy_ns(&svc);
    let start = Instant::now();
    let mut prev_end = start;
    for (i, query) in queries.iter().enumerate() {
        if start.elapsed() >= deadline && ops.len() >= MIN_OPS {
            break;
        }
        svc.clear_cache();
        let t = Instant::now();
        lag_us.push(t.duration_since(prev_end).as_secs_f64() * 1e6);
        run.attempted += 1;
        let answered = if args.trace {
            svc.query_traced(query.clone())
                .map(|(resp, trace)| (resp, Some(trace)))
        } else {
            svc.query(query.clone()).map(|resp| (resp, None))
        };
        let end = Instant::now();
        let (resp, trace) = match answered {
            Ok(r) => r,
            Err(e) => {
                run.failed += 1;
                eprintln!("engine_cold: {query:?} failed: {e}");
                prev_end = end;
                continue;
            }
        };
        let span = end - t;
        ops.push(Op {
            class: LoadClass::Cold,
            ms: span.as_secs_f64() * 1e3,
        });
        if kept.len() < MAX_CHECKS && sampled(args.seed, i as u64, CHECK_ONE_IN) {
            kept.push(Kept {
                query: query.clone(),
                store: resp.graph_instance.clone(),
                communities: Arc::clone(&resp.communities),
            });
        }
        if let Some(trace) = trace {
            let parent = log.record(i as u64, None, "service", "query_traced", t, end);
            let engine_span = record_search(
                &mut engine,
                &resp.graph_instance,
                query,
                resp.explain.algorithm,
            )?;
            log.record_duration(
                i as u64,
                Some(parent),
                "engine",
                "execute",
                engine_span.as_nanos() as i64,
            );
            service.push(&trace, log.self_ns(parent));
        }
        prev_end = Instant::now();
    }
    let wall_s = start.elapsed().as_secs_f64();
    let busy_ns = pool_busy_ns(&svc).saturating_sub(busy_before);

    // before the checks, whose oracle runs would raise the peak RSS
    let prefix = if args.trace { "traced." } else { "" };
    end_to_end(&mut run, prefix, &ops, wall_s, &setup_s);
    let checks = Instant::now();
    for k in &kept {
        check_answer(&mut run, k, &inputs)?;
    }
    let check_s = checks.elapsed().as_secs_f64();
    run.metrics
        .add("engine_cold.check_s", check_s, "s", kept.len());
    let m = &mut run.metrics;
    add_q(m, "client.send_lag_p99_us", &lag_us, 0.99, "us");
    if args.trace {
        service.report(m, &svc, busy_ns, wall_s);
        engine.report(m);
        run.spans = Some(log);
    }
    quiesce(svc)?;
    std::fs::remove_file(&inputs.icsr).map_err(|e| format!("{}: {e}", inputs.icsr.display()))?;
    Ok(run)
}

/// The kept answer must equal a forced run of a global baseline. OnlineAll
/// is the oracle where the γ-core is small (`email`, γ above γmax); its
/// per-vertex component sweep is quadratic in the core, so on the large
/// cores of `uk`, `gnm` and `youtube` one check would take minutes, and
/// the oracle there is Forward, the other global baseline. The
/// file-backed `youtube` answer is checked against a run on the same
/// graph held in memory; answers compare by external ids.
fn check_answer(run: &mut Run, kept: &Kept, inputs: &Inputs) -> Result<(), String> {
    let q = &kept.query;
    let oracle_store = match kept.store {
        GraphStore::File(_) => &inputs.youtube,
        _ => &kept.store,
    };
    let small_core = match q.graph.as_str() {
        "uk" => q.gamma > inputs.gmax.uk,
        "gnm" => q.gamma > inputs.gmax.gnm,
        "email" => true,
        _ => false,
    };
    let oracle = if small_core {
        AlgorithmId::OnlineAll
    } else {
        AlgorithmId::Forward
    };
    let core = q.to_core().map_err(|e| e.to_string())?;
    let expected = oracle
        .resolve()
        .run_store(oracle_store, &core)
        .map_err(|e| format!("{oracle}: {e}"))?;
    if signature(&kept.communities, &kept.store) == signature(&expected.communities, oracle_store) {
        run.checked += 1;
    } else {
        run.mismatches
            .push(format!("engine_cold: {q:?} differs from {oracle}"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    const GMAX: GammaMax = GammaMax { uk: 40, gnm: 12 };

    #[test]
    fn same_seed_same_requests() {
        assert_eq!(
            format!("{:?}", requests(9, 300, GMAX)),
            format!("{:?}", requests(9, 300, GMAX))
        );
        assert_ne!(
            format!("{:?}", requests(9, 300, GMAX)),
            format!("{:?}", requests(10, 300, GMAX))
        );
    }

    #[test]
    fn every_round_holds_every_stratum_in_its_share() {
        let qs = requests(3, 1000, GMAX);
        let count = |g: &str| qs.iter().filter(|q| q.graph == g).count();
        assert_eq!(count("youtube"), 200);
        assert_eq!(count("email"), 100);
        let above = qs
            .iter()
            .filter(|q| {
                (q.graph == "uk" && q.gamma > GMAX.uk) || (q.graph == "gnm" && q.gamma > GMAX.gnm)
            })
            .count();
        assert_eq!(above, 100);
        assert!(qs.iter().all(|q| (10..=1000).contains(&q.k)));
        // one uk k per log-width bin: each round reaches the top bin
        for round in qs.chunks(ROUND) {
            let top = round
                .iter()
                .filter(|q| q.graph == "uk" && q.gamma <= GMAX.uk)
                .map(|q| q.k)
                .max()
                .unwrap();
            assert!(top >= 680, "{top}");
        }
    }
}
