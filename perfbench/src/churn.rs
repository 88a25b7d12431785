//! `update_churn`: writes beside reads on one durable graph.
//!
//! The service persists to a fresh data directory inside the checkout
//! (`Service::with_persistence`, commit fsync as shipped). Once per
//! period a writer thread applies a seeded burst of edge inserts, edge
//! deletes and reweights through `Service::update`, then commits; a
//! reader thread issues Zipf-popular queries on the same graph in a
//! paced closed loop. Each
//! commit invalidates the graph's cache lane and holds the dynamics lock
//! the reader's queries take. At the end the data directory is reopened:
//! the recovered generation must be the last acknowledged commit's, and
//! a query must answer as it did before the restart.

use std::collections::{HashMap, HashSet};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use ic_graph::{Pcg32, WeightedGraph};
use ic_load::{LoadClass, Zipf};
use ic_service::{Query, Service, ServiceConfig, SyntheticSpec, UpdateOp};

use crate::common::{
    add_q, end_to_end, out_dir, pool_busy_ns, quiesce, repeated_setup, signature, Args, Op, Run,
    ServiceRec, WORKERS,
};
use crate::engine::{record_search, EngineRec};
use crate::spans::SpanLog;
use crate::stats::Dist;

const GRAPH: &str = "ba";
/// Ops per burst: edge deletes, edge inserts, reweights, in seeded
/// order. Fixed counts keep the commit's work alike from seed to seed.
const BURST: [(OpKind, usize); 3] = [
    (OpKind::Delete, 60),
    (OpKind::Insert, 60),
    (OpKind::Reweight, 30),
];

#[derive(Debug, Clone, Copy)]
enum OpKind {
    Delete,
    Insert,
    Reweight,
}
/// The writer starts a burst every period, so every run commits equally
/// often; a commit that overruns its period delays the next burst.
const WRITER_PERIOD: Duration = Duration::from_millis(600);
/// The reader's pace: it waits for each reply, then sends its next query
/// one period after the previous one was due (at once if that time has
/// passed). A reader that never pauses measures thread hand-offs between
/// cache hits; paced, the one query each commit blocks is a steady share
/// (about 3%) of its queries, so the latency tail is the commit's.
const READER_PERIOD: Duration = Duration::from_millis(10);
/// Reader queries a run makes at least, so `lat_p99_ms` obeys the
/// ten-beyond rule even when commits block the reader longer than usual.
const MIN_READS: usize = 1000;
/// Two γ lanes: after each commit the reader's misses are few enough
/// that the one query the commit blocked is a steady share of them.
const GAMMAS: [u32; 2] = [2, 3];
const KS: [usize; 5] = [2, 4, 8, 16, 32];

/// The generated graph: Barabási–Albert, 100k vertices, PageRank
/// weights.
fn input() -> WeightedGraph {
    SyntheticSpec::BarabasiAlbert {
        n: 100_000,
        d: 5,
        seed: 0xBA5E,
    }
    .build()
}

/// Seeded update bursts that stay valid against the evolving graph: it
/// deletes only edges that exist and inserts only edges that do not.
pub struct OpGen {
    rng: Pcg32,
    edges: Vec<(u64, u64)>,
    present: HashSet<(u64, u64)>,
    ids: Vec<u64>,
    base_weight: HashMap<u64, f64>,
}

impl OpGen {
    pub fn new(seed: u64, g: &WeightedGraph) -> OpGen {
        let ext = |r| g.external_id(r);
        let edges: Vec<(u64, u64)> = g
            .edges()
            .map(|(a, b)| {
                let (u, v) = (ext(a), ext(b));
                (u.min(v), u.max(v))
            })
            .collect();
        let ids: Vec<u64> = (0..g.n() as u32).map(ext).collect();
        OpGen {
            rng: Pcg32::new(seed ^ 0xC4_0E),
            present: edges.iter().copied().collect(),
            edges,
            base_weight: (0..g.n() as u32).map(|r| (ext(r), g.weight(r))).collect(),
            ids,
        }
    }

    fn vertex(&mut self) -> u64 {
        self.ids[self.rng.gen_index(self.ids.len())]
    }

    /// The next burst: [`BURST`]'s ops, shuffled.
    pub fn burst(&mut self) -> Vec<UpdateOp> {
        let mut kinds: Vec<OpKind> = BURST
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        self.rng.shuffle(&mut kinds);
        kinds.into_iter().map(|kind| self.op(kind)).collect()
    }

    fn op(&mut self, kind: OpKind) -> UpdateOp {
        match kind {
            OpKind::Delete if !self.edges.is_empty() => {
                let (u, v) = self.edges.swap_remove(self.rng.gen_index(self.edges.len()));
                self.present.remove(&(u, v));
                UpdateOp::DeleteEdge { u, v }
            }
            OpKind::Delete | OpKind::Insert => loop {
                let (a, b) = (self.vertex(), self.vertex());
                let key = (a.min(b), a.max(b));
                if a != b && self.present.insert(key) {
                    self.edges.push(key);
                    break UpdateOp::InsertEdge {
                        u: a,
                        v: b,
                        default_weight: None,
                    };
                }
            },
            OpKind::Reweight => {
                let v = self.vertex();
                let weight = self.base_weight[&v] * (0.5 + 1.5 * self.rng.gen_f64());
                UpdateOp::Reweight { v, weight }
            }
        }
    }
}

/// Reader populations whose requests interleave, each with its own
/// seeded permutation of the (γ, k) grid, so the run's popularity is an
/// average over several Zipf heads rather than one seed's luck of which
/// answers are hot.
const POPULATIONS: usize = 8;

/// Zipf-popular reader queries: population `i mod POPULATIONS` draws the
/// `i`-th query from its own permutation of the (γ, k) grid.
pub struct ReaderGen {
    rng: Pcg32,
    grids: Vec<Vec<(u32, usize)>>,
    zipf: Zipf,
    next: usize,
}

impl ReaderGen {
    pub fn new(seed: u64) -> ReaderGen {
        let mut rng = Pcg32::new(seed ^ 0x2EAD);
        let grid: Vec<(u32, usize)> = GAMMAS
            .iter()
            .flat_map(|&g| KS.iter().map(move |&k| (g, k)))
            .collect();
        let grids = (0..POPULATIONS)
            .map(|_| {
                let mut g = grid.clone();
                rng.shuffle(&mut g);
                g
            })
            .collect();
        let zipf = Zipf::new(grid.len(), 1.0);
        ReaderGen {
            rng,
            grids,
            zipf,
            next: 0,
        }
    }

    pub fn next_query(&mut self) -> Query {
        let grid = &self.grids[self.next % POPULATIONS];
        self.next += 1;
        let (gamma, k) = grid[self.zipf.sample(&mut self.rng)];
        Query::new(GRAPH, gamma, k)
    }
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .map(|e| match e.metadata() {
                    Ok(md) if md.is_dir() => dir_bytes(&e.path()),
                    Ok(md) => md.len(),
                    Err(_) => 0,
                })
                .sum()
        })
        .unwrap_or(0)
}

fn config() -> ServiceConfig {
    ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    }
}

struct Durable {
    svc: Arc<Service>,
    dir: PathBuf,
}

fn setup(base: &Path, rep: usize, g: &WeightedGraph) -> Result<Durable, String> {
    let dir = base.join(format!("churn-{}-{rep}", std::process::id()));
    let svc = Service::with_persistence(config(), &dir).map_err(|e| e.to_string())?;
    svc.register(GRAPH, g.clone());
    svc.query(Query::new(GRAPH, 3, 8))
        .map_err(|e| e.to_string())?;
    svc.clear_cache();
    Ok(Durable { svc, dir })
}

fn teardown(d: Durable) -> Result<(), String> {
    quiesce(d.svc)?;
    std::fs::remove_dir_all(&d.dir).map_err(|e| format!("{}: {e}", d.dir.display()))
}

#[derive(Default)]
struct WriterLog {
    bursts_ms: Vec<f64>,
    update_us: Vec<f64>,
    commit_ms: Vec<f64>,
    stale: Vec<f64>,
    ops_applied: u64,
    cores_visited: u64,
    failed: u64,
    attempted: u64,
    last_generation: Option<u64>,
}

/// Bursts at every writer period from `start` until the reader is done.
fn writer(svc: &Service, mut gen: OpGen, start: Instant, done: &AtomicBool) -> WriterLog {
    let mut log = WriterLog::default();
    let mut tick = start;
    while !done.load(Ordering::SeqCst) {
        if let Some(wait) = tick.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        tick += WRITER_PERIOD;
        let burst = gen.burst();
        log.attempted += 1;
        let t = Instant::now();
        let mut ok = true;
        for op in burst {
            let u = Instant::now();
            if let Err(e) = svc.update(GRAPH, op) {
                eprintln!("update_churn: {op:?} refused: {e}");
                ok = false;
                break;
            }
            log.update_us.push(u.elapsed().as_secs_f64() * 1e6);
        }
        log.stale.push(svc.stale_core_fraction(GRAPH));
        let c = Instant::now();
        match svc.commit_updates(GRAPH) {
            Ok((entry, receipt)) if ok => {
                log.commit_ms.push(c.elapsed().as_secs_f64() * 1e3);
                log.bursts_ms.push(t.elapsed().as_secs_f64() * 1e3);
                log.ops_applied += receipt.ops_applied;
                log.cores_visited += receipt.cores_visited;
                log.last_generation = Some(entry.generation);
            }
            Ok((entry, _)) => {
                log.last_generation = Some(entry.generation);
                log.failed += 1;
            }
            Err(e) => {
                eprintln!("update_churn: commit refused: {e}");
                log.failed += 1;
            }
        }
    }
    log
}

#[derive(Default)]
struct ReaderLog {
    ops: Vec<Op>,
    lag_us: Vec<f64>,
    service: ServiceRec,
    engine: EngineRec,
    failed: u64,
    spans: Option<SpanLog>,
}

fn reader(
    svc: &Arc<Service>,
    mut gen: ReaderGen,
    deadline: Instant,
    traced: bool,
) -> Result<ReaderLog, String> {
    let mut log = ReaderLog::default();
    let mut spans = SpanLog::new(Instant::now());
    let mut due = Instant::now();
    let mut i = 0u64;
    while Instant::now() < deadline || log.ops.len() + (log.failed as usize) < MIN_READS {
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
            // how late the reader woke for its next query
            log.lag_us
                .push(Instant::now().duration_since(due).as_secs_f64() * 1e6);
        }
        let query = gen.next_query();
        let t = Instant::now();
        let answered = if traced {
            svc.query_traced(query.clone()).map(|(r, tr)| (r, Some(tr)))
        } else {
            svc.query(query.clone()).map(|r| (r, None))
        };
        let end = Instant::now();
        match answered {
            Ok((resp, trace)) => {
                let class = if resp.cached {
                    LoadClass::Cached
                } else {
                    LoadClass::Cold
                };
                log.ops.push(Op {
                    class,
                    ms: (end - t).as_secs_f64() * 1e3,
                });
                if let Some(trace) = trace {
                    let parent = spans.record(i, None, "service", "query_traced", t, end);
                    if !resp.cached && !resp.coalesced {
                        let span = record_search(
                            &mut log.engine,
                            &resp.graph_instance,
                            &query,
                            resp.explain.algorithm,
                        )?;
                        spans.record_duration(
                            i,
                            Some(parent),
                            "engine",
                            "execute",
                            span.as_nanos() as i64,
                        );
                    }
                    log.service.push(&trace, spans.self_ns(parent));
                }
            }
            Err(e) => {
                eprintln!("update_churn: {query:?} failed: {e}");
                log.failed += 1;
            }
        }
        i += 1;
        due = (due + READER_PERIOD).max(Instant::now());
    }
    if traced {
        log.spans = Some(spans);
    }
    Ok(log)
}

pub fn run(args: &Args) -> Result<Run, String> {
    let base = out_dir()?;
    let g = input();
    let (durable, setup_s) = repeated_setup(|rep| setup(&base, rep, &g), teardown)?;
    let Durable { svc, dir } = durable;
    let bytes_before = dir_bytes(&dir);
    let busy_before = pool_busy_ns(&svc);

    let start = Instant::now();
    let deadline = start + Duration::from_secs(args.seconds);
    let done = AtomicBool::new(false);
    let ops_gen = OpGen::new(args.seed, &g);
    drop(g);
    let (wlog, rlog) = std::thread::scope(|s| {
        let w = s.spawn(|| writer(&svc, ops_gen, start, &done));
        let r = s.spawn(|| reader(&svc, ReaderGen::new(args.seed), deadline, args.trace));
        let reader_log = r.join();
        done.store(true, Ordering::SeqCst);
        (w.join(), reader_log)
    });
    let wall_s = start.elapsed().as_secs_f64();
    let wlog = wlog.map_err(|_| "writer panicked")?;
    let rlog = rlog.map_err(|_| "reader panicked")??;
    let busy_ns = pool_busy_ns(&svc).saturating_sub(busy_before);

    let mut run = Run {
        attempted: wlog.attempted + rlog.ops.len() as u64 + rlog.failed,
        failed: wlog.failed + rlog.failed,
        ..Run::default()
    };
    let mut ops = rlog.ops.clone();
    ops.extend(wlog.bursts_ms.iter().map(|&ms| Op {
        class: LoadClass::Update,
        ms,
    }));
    let prefix = if args.trace { "traced." } else { "" };
    end_to_end(&mut run, prefix, &ops, wall_s, &setup_s);

    let wal = svc.wal_metrics();
    let growth = dir_bytes(&dir).saturating_sub(bytes_before);
    let m = &mut run.metrics;
    add_q(m, "client.send_lag_p99_us", &rlog.lag_us, 0.99, "us");
    if args.trace {
        rlog.service.report(m, &svc, busy_ns, wall_s);
        rlog.engine.report(m);
        add_q(m, "dynamic.update_p50_us", &wlog.update_us, 0.5, "us");
        add_q(m, "dynamic.commit_p50_ms", &wlog.commit_ms, 0.5, "ms");
        add_q(m, "dynamic.commit_p99_ms", &wlog.commit_ms, 0.99, "ms");
        let stale = Dist::new(wlog.stale.clone());
        m.add(
            "dynamic.stale_frac_at_commit",
            stale.mean(),
            "frac",
            stale.len(),
        );
        m.add(
            "dynamic.cores_visited_per_op",
            wlog.cores_visited as f64 / wlog.ops_applied.max(1) as f64,
            "count",
            wlog.ops_applied as usize,
        );
        let ops_n = wlog.update_us.len();
        m.add(
            "wal.bytes_per_op",
            growth as f64 / ops_n.max(1) as f64,
            "bytes",
            ops_n,
        );
        if let Some((stats, _, _)) = wal {
            m.add(
                "wal.fsync_us_per_commit",
                stats.fsync_ns as f64 / 1e3 / stats.commits.max(1) as f64,
                "us",
                stats.commits as usize,
            );
        }
        run.spans = rlog.spans;
    }

    // recovery: the reopened directory must hold the last acknowledged
    // commit and answer the same
    let probe = Query::new(GRAPH, 3, 8);
    let live = svc.query(probe.clone()).map_err(|e| e.to_string())?;
    let live_sig = signature(&live.communities, &live.graph_instance);
    drop(live);
    quiesce(svc)?;
    let reopened = Service::with_persistence(config(), &dir).map_err(|e| e.to_string())?;
    let recovered = reopened.graph(GRAPH).map_err(|e| e.to_string())?.generation;
    let again = reopened.query(probe).map_err(|e| e.to_string())?;
    let recovered_sig = signature(&again.communities, &again.graph_instance);
    drop(again);
    if let Some((_, replayed, replay_ns)) = reopened.wal_metrics() {
        run.metrics.add(
            "wal.recovery_ms",
            replay_ns as f64 / 1e6,
            "ms",
            replayed as usize,
        );
    }
    quiesce(reopened)?;
    std::fs::remove_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    match wlog.last_generation {
        Some(expected) if expected != recovered => run.mismatches.push(format!(
            "update_churn: recovered generation {recovered}, last acknowledged commit {expected}"
        )),
        None => run
            .mismatches
            .push("update_churn: no commit was acknowledged".into()),
        _ => run.checked += 1,
    }
    if recovered_sig == live_sig {
        run.checked += 1;
    } else {
        run.mismatches
            .push("update_churn: the reopened service answers differently".into());
    }
    Ok(run)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::generators::{assemble, barabasi_albert, WeightKind};

    fn small() -> WeightedGraph {
        assemble(300, &barabasi_albert(300, 3, 1), WeightKind::PageRank)
    }

    #[test]
    fn same_seed_same_bursts_and_reads() {
        let g = small();
        let (mut a, mut b) = (OpGen::new(4, &g), OpGen::new(4, &g));
        for _ in 0..5 {
            assert_eq!(format!("{:?}", a.burst()), format!("{:?}", b.burst()));
        }
        let (mut ra, mut rb) = (ReaderGen::new(4), ReaderGen::new(4));
        for _ in 0..100 {
            assert_eq!(ra.next_query(), rb.next_query());
        }
    }

    #[test]
    fn bursts_stay_valid_against_the_live_graph() {
        let g = small();
        let mut gen = OpGen::new(8, &g);
        let mut dg = ic_dynamic::DynamicGraph::from_arc(Arc::new(g));
        for _ in 0..20 {
            for op in gen.burst() {
                dg.apply(op).unwrap_or_else(|e| panic!("{op:?}: {e}"));
            }
        }
    }
}
