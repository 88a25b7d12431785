//! The service façade: registry + planner + pool + cache + sessions.
//!
//! One [`Service`] owns everything a deployment needs: the named-graph
//! registry, the cost-model planner, the worker pool batch queries run
//! on, the sharded result cache in front of them, the table of live
//! progressive sessions, and the counters behind `STATS`. All methods
//! take `&self`; the service is designed to sit in an [`Arc`] shared by
//! every connection handler.
//!
//! A batch query flows: validate → look up graph →
//! [`plan_stored`] (fed the registered statistics and the storage
//! backend) → probe the cache keyed by
//! `(graph, generation, γ, k, family)` — prefix-aware within the core
//! family, so a larger-k entry of the same lane serves smaller k by
//! slicing — → join the key's *single flight*: concurrent
//! identical cold queries elect one leader that executes the planned
//! algorithm while the rest block on its answer (`coalesced` in the
//! stats) → the leader publishes to cache and followers alike.
//! [`Service::query`] pushes that whole pipeline onto the worker pool
//! and blocks on the reply, so callers on N connection threads share the
//! pool's fixed parallelism; [`Service::execute_inline`] runs it on the
//! caller's thread (what the workers themselves, and single-threaded
//! users, call); [`Service::query_batch`] groups whole request lists by
//! `(graph, generation, γ, family)` and answers each group with one
//! search at the group's largest k.

use std::collections::hash_map::Entry as MapEntry;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{channel, Receiver};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

use ic_core::local_search::SearchStats;
use ic_core::{Community, QueryError};
use ic_dynamic::{CommitReceipt, DynamicGraph, UpdateOp, WalStats};
use ic_graph::generators::{assemble, barabasi_albert, gnm, rmat, RmatParams, WeightKind};
use ic_graph::{io, save_icsr, FileCsr, GraphStore, IoStats, WeightedGraph};
use ic_obs::{QueryClass, QueryTrace, Stage};

use crate::cache::{slice_prefix, CacheKey, ResultCache};
use crate::error::ServiceError;
use crate::inflight::{InflightTable, Join};
use crate::metrics::{ServiceMetrics, SlowQuery};
use crate::persist::Persistence;
use crate::planner::{plan_stored, Explain, Mode, Query};
use crate::pool::WorkerPool;
use crate::registry::{GraphRegistry, RegisteredGraph};
use crate::session::Session;
use crate::stats::{ServiceStats, StatsRecorder};
use crate::sync::{lock_or_poison, read_or_poison, write_or_poison};

/// Sizing knobs for a [`Service`].
#[derive(Debug, Clone, Copy)]
pub struct ServiceConfig {
    /// Worker threads executing batch queries.
    pub workers: usize,
    /// Total result-cache entries.
    pub cache_capacity: usize,
    /// Cache shards (locks); more shards, less contention.
    pub cache_shards: usize,
    /// Slow-query ring entries retained for `SLOWLOG` (0 disables).
    pub slowlog_capacity: usize,
    /// Queries at least this slow end-to-end enter the slow-query ring.
    pub slowlog_threshold: Duration,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 4,
            cache_capacity: 1024,
            cache_shards: 8,
            slowlog_capacity: 64,
            slowlog_threshold: Duration::from_millis(10),
        }
    }
}

/// The answer to one batch query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Name of the graph the query ran against.
    pub graph: String,
    /// The exact store the query ran against — the rank space
    /// `communities` lives in. Translate members through *this* handle
    /// (not a fresh registry lookup, which may have been replaced).
    pub graph_instance: GraphStore,
    /// The top-k communities, highest influence first (shared with the
    /// cache — cloning the response never copies the communities).
    pub communities: Arc<Vec<Community>>,
    /// The plan that produced (or would have produced) the answer.
    pub explain: Explain,
    /// Whether the answer came from the result cache (exact key match or
    /// a prefix slice of a larger-k entry in the same lane).
    pub cached: bool,
    /// Whether the answer was coalesced onto an identical query that was
    /// already executing when this one arrived (single-flight): this
    /// query blocked on that execution instead of running its own.
    pub coalesced: bool,
    /// Wall-clock time spent answering, excluding queue wait.
    pub latency: Duration,
    /// Access statistics of the executed algorithm (every algorithm
    /// reports them uniformly); `None` for cache hits, which executed
    /// nothing.
    pub search_stats: Option<SearchStats>,
}

/// A deterministic synthetic-graph recipe, registrable by name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SyntheticSpec {
    /// G(n, m) with uniform weights seeded by `seed`.
    Gnm { n: usize, m: usize, seed: u64 },
    /// Barabási–Albert with `d` edges per new vertex, PageRank weights.
    BarabasiAlbert { n: usize, d: usize, seed: u64 },
    /// R-MAT at `scale` (n = 2^scale), PageRank weights.
    Rmat {
        scale: u32,
        edge_factor: usize,
        seed: u64,
    },
}

impl SyntheticSpec {
    /// Materializes the recipe into a graph.
    pub fn build(self) -> WeightedGraph {
        match self {
            SyntheticSpec::Gnm { n, m, seed } => {
                assemble(n, &gnm(n, m, seed), WeightKind::Uniform(seed ^ 0x5EED))
            }
            SyntheticSpec::BarabasiAlbert { n, d, seed } => {
                assemble(n, &barabasi_albert(n, d, seed), WeightKind::PageRank)
            }
            SyntheticSpec::Rmat {
                scale,
                edge_factor,
                seed,
            } => assemble(
                1usize << scale,
                &rmat(scale, edge_factor, RmatParams::default(), seed),
                WeightKind::PageRank,
            ),
        }
    }
}

/// What one accepted dynamic update left behind — echoed by the
/// protocol's `UPDATE` reply.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UpdateStatus {
    /// Updates accepted (and not yet committed) for the graph.
    pub pending: u64,
    /// Vertices in the live (uncommitted) state.
    pub n: usize,
    /// Edges in the live (uncommitted) state.
    pub m: usize,
}

/// A per-graph dynamic overlay plus the registry generation it was
/// seeded from (updated at every commit). The tag lets `update` detect a
/// wholesale replacement that raced with an overlay it built outside the
/// dynamics lock — committing an overlay whose base generation is not
/// the registered one would resurrect a superseded graph.
#[derive(Debug)]
struct DynamicOverlay {
    base_generation: u64,
    graph: DynamicGraph,
}

/// The concurrent query engine. See the module docs for the data flow.
#[derive(Debug)]
pub struct Service {
    registry: GraphRegistry,
    cache: ResultCache,
    inflight: InflightTable,
    stats: StatsRecorder,
    metrics: ServiceMetrics,
    pool: WorkerPool,
    sessions: Mutex<HashMap<u64, Arc<Session>>>,
    next_session_id: AtomicU64,
    /// Per-name dynamic overlays, created lazily by the first update.
    /// Queries run on the registered snapshot and never take this lock,
    /// which a commit holds for its whole run.
    dynamics: RwLock<HashMap<String, DynamicOverlay>>,
    /// The `--data-dir` durability layer; `None` for in-memory services.
    persist: Option<Mutex<Persistence>>,
}

impl Service {
    /// Builds a service and wraps it in the [`Arc`] everything downstream
    /// (pool dispatch, connection handlers) needs.
    pub fn new(config: ServiceConfig) -> Arc<Self> {
        Self::build(config, None)
    }

    /// A service with [`ServiceConfig::default`] sizing.
    pub fn with_defaults() -> Arc<Self> {
        Self::new(ServiceConfig::default())
    }

    /// Builds a service whose registrations, updates, and commits are
    /// durable under `data_dir` (the `serve --data-dir` flag), after
    /// first recovering whatever a previous incarnation committed there:
    /// memory-resident graphs come back from their `ICG1` snapshot plus
    /// the committed prefix of their write-ahead log (uncommitted tails
    /// are discarded), file-backed graphs are reopened from their
    /// recorded `.icsr` path, and every graph keeps the generation number
    /// clients saw at its last registration or commit.
    ///
    /// Durability failures after construction never corrupt in-memory
    /// serving: registration hooks mark the layer degraded, and every
    /// later `UPDATE`/`COMMIT` reports [`ServiceError::Persistence`]
    /// rather than acknowledging churn that would not survive a restart.
    pub fn with_persistence(
        config: ServiceConfig,
        data_dir: impl AsRef<std::path::Path>,
    ) -> Result<Arc<Self>, ServiceError> {
        let (persistence, recovered) = Persistence::open(data_dir.as_ref())?;
        let svc = Self::build(config, Some(Mutex::new(persistence)));
        for g in recovered {
            svc.registry
                .register_recovered(&g.name, g.store, g.stats, g.generation);
        }
        Ok(svc)
    }

    fn build(config: ServiceConfig, persist: Option<Mutex<Persistence>>) -> Arc<Self> {
        Arc::new(Service {
            registry: GraphRegistry::new(),
            cache: ResultCache::new(config.cache_capacity, config.cache_shards),
            inflight: InflightTable::new(),
            stats: StatsRecorder::new(),
            metrics: ServiceMetrics::new(
                config.slowlog_capacity,
                config.slowlog_threshold.as_nanos() as u64,
            ),
            pool: WorkerPool::new(config.workers),
            sessions: Mutex::new(HashMap::new()),
            next_session_id: AtomicU64::new(1),
            dynamics: RwLock::new(HashMap::new()),
            persist,
        })
    }

    // ----- graph management --------------------------------------------

    /// Registers (or replaces) `graph` under `name`. Replacement
    /// invalidates every cached result for the name, so stale answers are
    /// never served, and discards any uncommitted dynamic updates — a
    /// wholesale replacement supersedes the overlay they were edits of.
    ///
    /// The dynamics write lock is held across overlay removal *and* the
    /// registry swap: a concurrent [`Service::update`] must not observe
    /// the gap between them, or it would rebuild an overlay from the
    /// superseded snapshot and a later commit would resurrect it.
    pub fn register(&self, name: &str, graph: WeightedGraph) -> RegisteredGraph {
        let mut dynamics = write_or_poison(&self.dynamics);
        dynamics.remove(name);
        self.cache.invalidate_graph(name);
        let entry = self.registry.register(name, graph);
        if let Some(persist) = &self.persist {
            // register() above built a GraphStore::Memory, so the accessor
            // cannot miss; if that invariant ever changes, skipping the
            // snapshot (debug-asserted) beats crashing the serving path.
            debug_assert!(entry.store.as_memory().is_some());
            if let Some(snapshot) = entry.store.as_memory() {
                lock_or_poison(persist).record_memory(name, snapshot, entry.generation);
            }
        }
        entry
    }

    /// Loads a graph file (binary `ICG1` or the `v`/`e` edge-list text
    /// format, auto-detected) and registers it under `name`.
    pub fn load_path(&self, name: &str, path: &str) -> Result<RegisteredGraph, ServiceError> {
        let bytes =
            std::fs::read(path).map_err(|e| ServiceError::GraphLoad(format!("{path}: {e}")))?;
        let graph = if bytes.starts_with(b"ICG1") {
            io::read_binary(&bytes[..])
        } else {
            io::read_text(&bytes[..])
        }
        .map_err(|e| ServiceError::GraphLoad(format!("{path}: {e}")))?;
        Ok(self.register(name, graph))
    }

    /// Builds a synthetic graph from a recipe and registers it.
    pub fn register_synthetic(&self, name: &str, spec: SyntheticSpec) -> RegisteredGraph {
        self.register(name, spec.build())
    }

    /// Opens a `.icsr` file as a file-backed store (vertex data resident,
    /// edges on disk) and registers it under `name` — the `LOADX` verb.
    /// `budget` caps the resident bytes ([`FileCsr::open_with_budget`]);
    /// `None` uses the paper's 1 GB default. The file is opened and
    /// validated *before* the registry is touched, so a hostile or
    /// missing file leaves the existing registration (if any) serving.
    pub fn register_file(
        &self,
        name: &str,
        path: &str,
        budget: Option<u64>,
    ) -> Result<RegisteredGraph, ServiceError> {
        let csr = match budget {
            Some(b) => FileCsr::open_with_budget(path, b),
            None => FileCsr::open(path),
        }
        .map_err(|e| ServiceError::GraphLoad(format!("{path}: {e}")))?;
        let stats = csr.stats();
        let store = GraphStore::File(Arc::new(csr));
        let mut dynamics = write_or_poison(&self.dynamics);
        dynamics.remove(name);
        self.cache.invalidate_graph(name);
        let entry = self.registry.register_store(name, store, stats);
        if let Some(persist) = &self.persist {
            lock_or_poison(persist).record_file(name, path, budget, entry.generation);
        }
        Ok(entry)
    }

    /// Saves a registered memory-resident graph as a `.icsr` file — the
    /// `SAVE` verb. The file can then be served file-backed via
    /// [`Service::register_file`] (here or by another process). Saving a
    /// graph that is *already* file-backed is a typed error: its edges
    /// live in the file it was opened from.
    pub fn save_store(&self, name: &str, path: &str) -> Result<(), ServiceError> {
        let entry = self.registry.get(name)?;
        let graph = entry.memory()?;
        save_icsr(graph, path).map_err(|e| ServiceError::Storage(format!("{path}: {e}")))
    }

    /// All registered graphs, sorted by name.
    pub fn graphs(&self) -> Vec<RegisteredGraph> {
        self.registry.list()
    }

    /// Looks up one registered graph.
    pub fn graph(&self, name: &str) -> Result<RegisteredGraph, ServiceError> {
        self.registry.get(name)
    }

    // ----- dynamic updates ---------------------------------------------

    /// Applies one dynamic update to `name`'s overlay, creating the
    /// overlay from the registered snapshot on first use. The update is
    /// visible to queries only after [`Service::commit_updates`]; until
    /// then queries keep answering from the registered snapshot.
    pub fn update(&self, name: &str, op: UpdateOp) -> Result<UpdateStatus, ServiceError> {
        // Seeding an overlay pays a full core peel plus an adjacency
        // copy, so a missing overlay is built *outside* the write lock —
        // updates and commits to other graphs keep flowing while an
        // overlay for a large graph is prepared.
        let prebuilt = {
            let dynamics = read_or_poison(&self.dynamics);
            if dynamics.contains_key(name) {
                None
            } else {
                drop(dynamics);
                let entry = self.registry.get(name)?;
                Some(DynamicOverlay {
                    base_generation: entry.generation,
                    graph: DynamicGraph::from_arc(Arc::clone(entry.memory()?)),
                })
            }
        };
        let mut dynamics = write_or_poison(&self.dynamics);
        // The registry mapping for `name` cannot change while this lock
        // is held — register() and commit_updates() both take it — so one
        // generation check decides whether the prebuilt overlay (or any
        // overlay another thread inserted meanwhile) is still current.
        let entry = self.registry.get(name)?;
        let overlay = match dynamics.entry(name.to_string()) {
            MapEntry::Occupied(o) => o.into_mut(),
            MapEntry::Vacant(slot) => slot.insert(match prebuilt {
                Some(ov) if ov.base_generation == entry.generation => ov,
                // raced with a wholesale replacement between the read and
                // write locks: rebuild from the current snapshot
                _ => DynamicOverlay {
                    base_generation: entry.generation,
                    graph: DynamicGraph::from_arc(Arc::clone(entry.memory()?)),
                },
            }),
        };
        debug_assert_eq!(
            overlay.base_generation, entry.generation,
            "an overlay can only drift from its registration if register() \
             bypassed the dynamics lock"
        );
        let dg = &mut overlay.graph;
        dg.apply(op)
            .map_err(|e| ServiceError::Update(e.to_string()))?;
        // Durability before acknowledgement: the op is in the overlay
        // either way (in-memory state stays consistent), but if the WAL
        // append fails the client must hear that this update would not
        // survive a restart.
        if let Some(persist) = &self.persist {
            lock_or_poison(persist).append_op(name, &op)?;
        }
        Ok(UpdateStatus {
            pending: dg.pending_updates(),
            n: dg.n(),
            m: dg.m(),
        })
    }

    /// Commits `name`'s pending updates: compacts the overlay into a
    /// fresh CSR snapshot and re-registers it under a new generation, so
    /// the result cache invalidates by construction (generation-keyed
    /// entries for the old snapshot become unreachable). Registration
    /// takes the statistics the commit produced — one core peel when the
    /// structure changed, none for reweights alone. With no overlay or no
    /// pending updates this is a no-op returning the current
    /// registration.
    pub fn commit_updates(
        &self,
        name: &str,
    ) -> Result<(RegisteredGraph, CommitReceipt), ServiceError> {
        let mut dynamics = write_or_poison(&self.dynamics);
        let Some(overlay) = dynamics.get_mut(name) else {
            // no overlay: nothing to fold in (file-backed stores never
            // have overlays — update() rejects them — so the memory
            // accessor below doubles as the typed rejection for COMMIT)
            let entry = self.registry.get(name)?;
            let receipt = CommitReceipt {
                graph: Arc::clone(entry.memory()?),
                stats: entry.stats,
                ops_applied: 0,
                cores_visited: 0,
            };
            return Ok((entry, receipt));
        };
        let receipt = overlay.graph.commit();
        if receipt.ops_applied == 0 {
            let entry = self.registry.get(name)?;
            return Ok((entry, receipt));
        }
        self.cache.invalidate_graph(name);
        let entry =
            self.registry
                .register_prepared(name, Arc::clone(&receipt.graph), receipt.stats);
        // the overlay now tracks the registration it just produced
        overlay.base_generation = entry.generation;
        // The commit record is what makes the WAL's pending ops durable:
        // recovery replays exactly the ops above the last `commit` line,
        // re-deriving this same snapshot under this same generation.
        if let Some(persist) = &self.persist {
            lock_or_poison(persist).append_commit(name, entry.generation)?;
        }
        Ok((entry, receipt))
    }

    /// The share of `name`'s registered snapshot whose adjacency its
    /// pending updates changed (1.0 after a vertex add or removal); 0.0
    /// for graphs without a dynamic overlay. A monitoring read: it takes
    /// the dynamics lock, so the query path never calls it.
    pub fn stale_core_fraction(&self, name: &str) -> f64 {
        read_or_poison(&self.dynamics)
            .get(name)
            .map_or(0.0, |ov| ov.graph.stale_core_fraction())
    }

    /// Pending (uncommitted) updates for `name`; 0 without an overlay.
    pub fn pending_updates(&self, name: &str) -> u64 {
        read_or_poison(&self.dynamics)
            .get(name)
            .map_or(0, |ov| ov.graph.pending_updates())
    }

    // ----- batch queries -----------------------------------------------

    /// Plans a query without executing it.
    pub fn explain(&self, query: &Query) -> Result<Explain, ServiceError> {
        query.validate()?;
        let entry = self.registry.get(&query.graph)?;
        Ok(plan_stored(
            &entry.stats,
            query.gamma,
            query.k,
            query.mode,
            entry.store.kind(),
        ))
    }

    /// Answers a query on the calling thread: validate through the core
    /// builder, plan, probe the cache (prefix-aware within the core
    /// family), join or lead the key's single flight, and execute the
    /// planned algorithm through the [`ic_core::query::Algorithm`] trait
    /// only as the flight's leader. This is the pipeline the pool
    /// workers run.
    pub fn execute_inline(&self, query: &Query) -> Result<QueryResponse, ServiceError> {
        let mut trace = QueryTrace::start();
        self.execute_traced(query, &mut trace)
    }

    /// [`Service::execute_inline`] with the caller's [`QueryTrace`]
    /// threaded through: every pipeline boundary laps a stage, the
    /// executed store's `IoStats` delta is attributed, and the finished
    /// trace is recorded in the per-class latency histograms (and the
    /// slow-query ring, if it qualifies) before the response returns.
    /// Callers that pre-charged time (the pool's queue wait) pass the
    /// trace they already started.
    pub fn execute_traced(
        &self,
        query: &Query,
        trace: &mut QueryTrace,
    ) -> Result<QueryResponse, ServiceError> {
        let core_query = query.to_core()?;
        let entry = self.registry.get(&query.graph)?;
        let explain = plan_stored(
            &entry.stats,
            query.gamma,
            query.k,
            query.mode,
            entry.store.kind(),
        );
        // The key carries the generation of the instance this execution
        // read (so a result computed against a since-replaced graph is
        // inserted under the stale generation and never served again) and
        // the answer family (so a forced truss answer can never be served
        // to a core query, or vice versa).
        let key = CacheKey {
            graph: query.graph.clone(),
            generation: entry.generation,
            gamma: query.gamma,
            k: query.k,
            family: explain.algorithm.family(),
        };
        trace.lap(Stage::Plan);
        let start = Instant::now();
        let response = |communities, cached, coalesced, search_stats| QueryResponse {
            graph: query.graph.clone(),
            graph_instance: entry.store.clone(),
            communities,
            explain: explain.clone(),
            cached,
            coalesced,
            latency: start.elapsed(),
            search_stats,
        };
        // Closes the trace and records it under `class`; response
        // assembly between the last lap and here lands in Serialize.
        let finish = |trace: &mut QueryTrace, class: QueryClass| {
            trace.finish();
            self.metrics.record_query(
                class,
                trace,
                &query.graph,
                query.gamma,
                query.k,
                explain.algorithm,
            );
        };
        loop {
            if let Some(hit) = self.cache.get_serving(&key) {
                trace.lap(Stage::CacheProbe);
                let resp = response(hit.communities, true, false, None);
                let class = if hit.exact {
                    self.stats.record_hit(resp.latency);
                    QueryClass::Cached
                } else {
                    self.stats.record_prefix_hit(resp.latency);
                    QueryClass::PrefixServed
                };
                finish(trace, class);
                return Ok(resp);
            }
            // The failed probe is cache time; the join below may block
            // for a whole leader execution, which is this query's
            // (vicarious) execute time, not probe time.
            trace.lap(Stage::CacheProbe);
            match self.inflight.join(&key) {
                Join::Leader(flight) => {
                    // Re-probe under leadership: a previous leader may
                    // have published between our miss and the election.
                    if let Some(hit) = self.cache.get_serving(&key) {
                        trace.lap(Stage::CacheProbe);
                        flight.publish(Arc::clone(&hit.communities));
                        let resp = response(hit.communities, true, false, None);
                        let class = if hit.exact {
                            self.stats.record_hit(resp.latency);
                            QueryClass::Cached
                        } else {
                            self.stats.record_prefix_hit(resp.latency);
                            QueryClass::PrefixServed
                        };
                        finish(trace, class);
                        return Ok(resp);
                    }
                    // If the search below panics (or errors out through
                    // `?`), the flight guard wakes followers empty-handed
                    // and one of them re-leads — and hits the same typed
                    // error itself rather than hanging.
                    let io_before = entry.store.io_totals();
                    let result = explain
                        .algorithm
                        .resolve()
                        .run_store(&entry.store, &core_query)
                        .map_err(|e| match e {
                            QueryError::Unsupported { .. } => ServiceError::Storage(e.to_string()),
                            QueryError::Io(_) => ServiceError::Storage(e.to_string()),
                            other => ServiceError::InvalidQuery(other.to_string()),
                        })?;
                    trace.lap(Stage::Execute);
                    let io = entry.store.io_totals().delta_since(io_before);
                    trace.add_io(io.bytes_read, io.read_ops);
                    self.metrics
                        .record_execute(entry.store.kind(), trace.stage_ns(Stage::Execute));
                    let communities = Arc::new(result.communities);
                    self.cache.insert(key.clone(), communities.clone());
                    flight.publish(communities.clone());
                    let resp = response(communities, false, false, Some(result.stats));
                    self.stats.record_miss(explain.algorithm, resp.latency);
                    finish(trace, QueryClass::Cold);
                    return Ok(resp);
                }
                Join::Follower(Some(communities)) => {
                    // the blocked wait on the leader is execute-by-proxy
                    trace.lap(Stage::Execute);
                    let resp = response(communities, false, true, None);
                    self.stats.record_coalesced(resp.latency);
                    finish(trace, QueryClass::CoalescedFollower);
                    return Ok(resp);
                }
                // the leader died without publishing; retry (and very
                // likely lead this time)
                Join::Follower(None) => continue,
            }
        }
    }

    /// Dispatches a query to the worker pool without waiting; the result
    /// arrives on the returned channel.
    pub fn query_async(
        self: &Arc<Self>,
        query: Query,
    ) -> Receiver<Result<QueryResponse, ServiceError>> {
        let (tx, rx) = channel();
        let svc = Arc::clone(self);
        // The trace starts at submission, so the time until a worker
        // picks the job up is charged to the Queue stage.
        let mut trace = QueryTrace::start();
        let accepted = self.pool.submit(move || {
            trace.lap(Stage::Queue);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a hung-up caller has no use for the answer, which stats already counted"
            )]
            let _ = tx.send(svc.execute_traced(&query, &mut trace));
        });
        if !accepted {
            // The pool only refuses during teardown; surface that as an
            // immediately-failed receiver rather than a hang.
            let (tx2, rx2) = channel();
            #[expect(
                clippy::let_underscore_must_use,
                reason = "the receiver is returned below, so this send cannot fail"
            )]
            let _ = tx2.send(Err(ServiceError::WorkerGone));
            return rx2;
        }
        rx
    }

    /// Answers a query through the worker pool, blocking until done.
    pub fn query(self: &Arc<Self>, query: Query) -> Result<QueryResponse, ServiceError> {
        self.query_async(query)
            .recv()
            .map_err(|_| ServiceError::WorkerGone)?
    }

    /// Answers a query through the worker pool and returns the measured
    /// per-stage trace next to the response — the numbers
    /// `EXPLAIN ANALYZE` prints beside the planner's estimates. The
    /// trace's stage timings tile its end-to-end total: queue wait, plan,
    /// cache probe, execute (with the store's I/O delta), serialize.
    pub fn query_traced(
        self: &Arc<Self>,
        query: Query,
    ) -> Result<(QueryResponse, QueryTrace), ServiceError> {
        let (tx, rx) = channel();
        let svc = Arc::clone(self);
        let mut trace = QueryTrace::start();
        let accepted = self.pool.submit(move || {
            trace.lap(Stage::Queue);
            let result = svc.execute_traced(&query, &mut trace);
            #[expect(
                clippy::let_underscore_must_use,
                reason = "a hung-up caller has no use for the answer, which stats already counted"
            )]
            let _ = tx.send(result.map(|resp| (resp, trace)));
        });
        if !accepted {
            return Err(ServiceError::WorkerGone);
        }
        rx.recv().map_err(|_| ServiceError::WorkerGone)?
    }

    /// Answers many queries with as few searches as possible: requests
    /// are grouped by `(graph, generation, γ, answer-family)`, each group
    /// executes **once** at the group's largest k (planned by
    /// [`plan_stored`] for that k), and every member receives its own
    /// prefix of the group answer — valid because communities are
    /// enumerated in decreasing influence order, so top-k is a prefix of
    /// top-k′ for k ≤ k′ (§4 of the paper). The prefix guarantee is a
    /// core-family property; truss requests therefore group by their
    /// exact k (sharing an execution only with identical requests, never
    /// sliced). Groups run concurrently on the worker pool.
    ///
    /// Results come back in request order. Per-request failures
    /// (unknown graph, invalid parameters) fail only their own slot.
    /// A group of uniformly forced requests keeps its forced algorithm;
    /// mixed or `Auto` groups are planned automatically — either way
    /// every member of a core-family group receives the identical
    /// communities any individual issuance would have produced.
    #[expect(
        clippy::indexing_slicing,
        reason = "every index is a position in `queries`, and `results` has one slot per query"
    )]
    pub fn query_batch(
        self: &Arc<Self>,
        queries: &[Query],
    ) -> Vec<Result<QueryResponse, ServiceError>> {
        self.stats.record_batch();
        let mut results: Vec<Option<Result<QueryResponse, ServiceError>>> =
            (0..queries.len()).map(|_| None).collect();

        // Group indices by (graph, generation, γ, family). Generation is
        // resolved per request, so a registry swap mid-batch cleanly
        // splits a name into two groups (the execution itself re-reads
        // the registry, so each group races the swap exactly as its
        // member queries would have individually — never staler).
        struct Group {
            members: Vec<usize>, // request indices
            max_k: usize,
            mode: Option<Mode>, // uniform mode, if any
        }
        type GroupKey = (String, u64, u32, ic_core::AnswerFamily, usize);
        let mut order: Vec<GroupKey> = Vec::new();
        let mut groups: HashMap<GroupKey, Group> = HashMap::new();
        for (i, q) in queries.iter().enumerate() {
            if let Err(e) = q.validate() {
                results[i] = Some(Err(e));
                continue;
            }
            let entry = match self.registry.get(&q.graph) {
                Ok(entry) => entry,
                Err(e) => {
                    results[i] = Some(Err(e));
                    continue;
                }
            };
            let family = q.answer_family();
            // Core answers are prefix-stable, so any k may share a lane
            // (k_lane = 0). Truss answers carry no such guarantee — the
            // cache refuses to prefix-serve them too — so each distinct k
            // is its own group and is never sliced.
            let k_lane = match family {
                ic_core::AnswerFamily::Core => 0,
                _ => q.k,
            };
            let key = (q.graph.clone(), entry.generation, q.gamma, family, k_lane);
            let group = groups.entry(key.clone()).or_insert_with(|| {
                order.push(key);
                Group {
                    members: Vec::new(),
                    max_k: 0,
                    mode: Some(q.mode),
                }
            });
            group.members.push(i);
            group.max_k = group.max_k.max(q.k);
            if group.mode != Some(q.mode) {
                group.mode = None; // modes disagree: plan automatically
            }
        }

        // Execute each group once (at its max k) on the pool; groups on
        // different graphs/γ proceed in parallel.
        let (tx, rx) = channel::<(Vec<usize>, Vec<Result<QueryResponse, ServiceError>>)>();
        let mut dispatched = 0usize;
        for key in order {
            // every key in `order` was inserted exactly once above
            debug_assert!(groups.contains_key(&key));
            let Some(group) = groups.remove(&key) else {
                continue;
            };
            let svc = Arc::clone(self);
            let queries_of_group: Vec<Query> =
                group.members.iter().map(|&i| queries[i].clone()).collect();
            let tx = tx.clone();
            let members = group.members.clone();
            let max_k = group.max_k;
            let mode = group.mode.unwrap_or(Mode::Auto);
            let accepted = self.pool.submit(move || {
                let out = svc.execute_group_inline(&queries_of_group, max_k, mode);
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a hung-up batch caller has no use for the answers"
                )]
                let _ = tx.send((members, out));
            });
            if accepted {
                dispatched += 1;
            } else {
                // pool shutting down: fail this group's slots immediately
                for &i in &group.members {
                    results[i] = Some(Err(ServiceError::WorkerGone));
                }
            }
        }
        drop(tx);
        for _ in 0..dispatched {
            let Ok((members, out)) = rx.recv() else {
                break; // a worker died mid-batch; slots stay WorkerGone below
            };
            for (i, r) in members.into_iter().zip(out) {
                results[i] = Some(r);
            }
        }
        results
            .into_iter()
            .map(|r| r.unwrap_or(Err(ServiceError::WorkerGone)))
            .collect()
    }

    /// Executes one batch group: answer the group's representative query
    /// at `max_k` through the full single-flight pipeline, then serve
    /// every member its own k-prefix of the group answer. The first
    /// member carries the group execution's outcome (miss / hit /
    /// coalesced) and its latency; the rest are recorded as
    /// prefix-served hits whose stats latency is their *marginal* cost —
    /// the slice — so the search's wall-clock enters the cumulative
    /// latency counters once, not once per member. (Their
    /// `QueryResponse::latency` still reports the group wall-clock they
    /// actually waited.)
    fn execute_group_inline(
        &self,
        member_queries: &[Query],
        max_k: usize,
        mode: Mode,
    ) -> Vec<Result<QueryResponse, ServiceError>> {
        let Some(first) = member_queries.first() else {
            return Vec::new();
        };
        let lead = Query {
            graph: first.graph.clone(),
            gamma: first.gamma,
            k: max_k,
            mode,
        };
        let group_resp = match self.execute_inline(&lead) {
            Ok(resp) => resp,
            Err(e) => return member_queries.iter().map(|_| Err(e.clone())).collect(),
        };
        member_queries
            .iter()
            .enumerate()
            .map(|(pos, q)| {
                let slice_start = Instant::now();
                let mut member_trace = QueryTrace::start();
                let communities = slice_prefix(&group_resp.communities, q.k);
                if pos > 0 {
                    self.stats.record_prefix_hit(slice_start.elapsed());
                    // histogram the marginal cost (the slice, landing in
                    // Serialize via finish) under the batch class; the
                    // group's search already entered the lead query's
                    // own class
                    member_trace.finish();
                    self.metrics.record_query(
                        QueryClass::Batch,
                        &member_trace,
                        &group_resp.graph,
                        q.gamma,
                        q.k,
                        group_resp.explain.algorithm,
                    );
                }
                Ok(QueryResponse {
                    graph: group_resp.graph.clone(),
                    graph_instance: group_resp.graph_instance.clone(),
                    communities,
                    explain: group_resp.explain.clone(),
                    cached: if pos == 0 { group_resp.cached } else { true },
                    coalesced: if pos == 0 {
                        group_resp.coalesced
                    } else {
                        false
                    },
                    latency: group_resp.latency,
                    search_stats: if pos == 0 {
                        group_resp.search_stats
                    } else {
                        None
                    },
                })
            })
            .collect()
    }

    // ----- progressive sessions ----------------------------------------

    /// Opens a progressive session on a registered graph; returns its id.
    pub fn open_session(&self, graph: &str, gamma: u32) -> Result<u64, ServiceError> {
        let entry = self.registry.get(graph)?;
        // progressive sessions need random access to the adjacency, so
        // file-backed stores are rejected with the typed storage error
        let session = Session::open(graph, Arc::clone(entry.memory()?), gamma)?;
        let id = self.next_session_id.fetch_add(1, Ordering::Relaxed);
        lock_or_poison(&self.sessions).insert(id, Arc::new(session));
        self.stats.record_session_opened();
        Ok(id)
    }

    /// Pulls up to `n` further communities from a session, plus whether
    /// the stream is exhausted. The flag comes from the session iterator
    /// itself, so it is truthful even for `n = 0` probes and for batches
    /// that come back exactly `n` long.
    pub fn session_next_full(
        &self,
        id: u64,
        n: usize,
    ) -> Result<(Vec<Community>, bool), ServiceError> {
        // The table lock covers only the lookup; the pull runs under the
        // session's own lock, so other sessions stay reachable meanwhile.
        let (batch, done) = self.session(id)?.next_batch(n)?;
        self.stats.record_streamed(batch.len());
        Ok((batch, done))
    }

    /// Closes a session. A pull in flight on it holds its own reference
    /// and finishes; the close never waits for it.
    pub fn close_session(&self, id: u64) -> Result<(), ServiceError> {
        let session = lock_or_poison(&self.sessions)
            .remove(&id)
            .ok_or(ServiceError::UnknownSession(id))?;
        drop(session);
        self.stats.record_session_closed();
        Ok(())
    }

    /// The exact graph instance a session streams from, if the session is
    /// open. This is the rank space of the session's communities — use it
    /// for id translation even if the name has since been re-registered.
    pub fn session_graph_instance(&self, id: u64) -> Option<Arc<WeightedGraph>> {
        self.session(id).ok().map(|s| s.graph_instance())
    }

    fn session(&self, id: u64) -> Result<Arc<Session>, ServiceError> {
        lock_or_poison(&self.sessions)
            .get(&id)
            .cloned()
            .ok_or(ServiceError::UnknownSession(id))
    }

    // ----- introspection -----------------------------------------------

    /// A point-in-time snapshot of the hit/miss/latency counters, with
    /// the pool's panic count folded in.
    pub fn stats(&self) -> ServiceStats {
        let mut stats = self.stats.snapshot();
        stats.worker_panics = self.pool.panic_count();
        stats
    }

    /// Counts one transient accept-loop failure the TCP front-end
    /// survived (surfaced as `accept_errors` in `STATS` and
    /// `ic_accept_errors_total` in `METRICS`).
    pub(crate) fn record_accept_error(&self) {
        self.stats.record_accept_error();
    }

    /// Counts one failed client-socket write (surfaced as
    /// `write_errors` in `STATS` and `ic_write_errors_total` in
    /// `METRICS`); the connection that suffered it is closed.
    pub(crate) fn record_write_error(&self) {
        self.stats.record_write_error();
    }

    /// Why durability was lost, if it was: the first persistence-hook
    /// failure on a [`Service::with_persistence`] instance. `None` for
    /// purely in-memory services and for healthy durable ones. Once set,
    /// every subsequent `UPDATE`/`COMMIT` fails with
    /// [`ServiceError::Persistence`] rather than over-promising.
    pub fn persistence_degraded(&self) -> Option<String> {
        self.persist
            .as_ref()
            .and_then(|p| lock_or_poison(p).degraded().map(str::to_string))
    }

    /// Cumulative I/O per registered store, sorted by name — the
    /// `STATS` verb's per-store rows. Memory stores report zeros; file
    /// stores report every byte read since they were opened.
    pub fn store_io(&self) -> Vec<(String, ic_graph::StorageKind, IoStats)> {
        self.registry
            .list()
            .into_iter()
            .map(|e| (e.name.clone(), e.store.kind(), e.store.io_totals()))
            .collect()
    }

    /// The latency histograms and slow-query ring.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }

    /// The `n` most recent slow queries, newest first (`SLOWLOG n`).
    pub fn slowlog(&self, n: usize) -> Vec<SlowQuery> {
        self.metrics.slowlog(n)
    }

    /// Aggregated write-ahead-log accounting across every persistent
    /// graph, plus recovery cost: `(wal, replayed_ops, replay_ns)`.
    /// `None` for in-memory services (no `--data-dir`).
    pub fn wal_metrics(&self) -> Option<(WalStats, u64, u64)> {
        self.persist.as_ref().map(|p| {
            let p = lock_or_poison(p);
            (p.wal_stats(), p.replayed_ops(), p.replay_ns())
        })
    }

    /// The full Prometheus text-exposition body (`METRICS` verb and the
    /// `--metrics-addr` scrape listener). Counters come from the same
    /// recorders `STATS` reads; histograms are the per-class /
    /// per-backend latency distributions with quantile gauges extracted
    /// at render time.
    pub fn metrics_text(&self) -> String {
        let stats = self.stats();
        let mut p = ic_obs::PromText::new();

        p.header("ic_queries_total", "Queries answered.", "counter");
        p.sample("ic_queries_total", &[], stats.queries);
        p.header("ic_cache_hits_total", "Exact result-cache hits.", "counter");
        p.sample("ic_cache_hits_total", &[], stats.cache_hits);
        p.header("ic_cache_misses_total", "Result-cache misses.", "counter");
        p.sample("ic_cache_misses_total", &[], stats.cache_misses);
        p.header(
            "ic_prefix_served_total",
            "Queries served by slicing a larger-k cached answer.",
            "counter",
        );
        p.sample("ic_prefix_served_total", &[], stats.prefix_served);
        p.header(
            "ic_coalesced_total",
            "Queries coalesced onto an identical in-flight execution.",
            "counter",
        );
        p.sample("ic_coalesced_total", &[], stats.coalesced);
        p.header("ic_batches_total", "Batch requests.", "counter");
        p.sample("ic_batches_total", &[], stats.batches);
        p.header(
            "ic_sessions_opened_total",
            "Progressive sessions opened.",
            "counter",
        );
        p.sample("ic_sessions_opened_total", &[], stats.sessions_opened);
        p.header(
            "ic_sessions_closed_total",
            "Progressive sessions closed.",
            "counter",
        );
        p.sample("ic_sessions_closed_total", &[], stats.sessions_closed);
        p.header(
            "ic_communities_streamed_total",
            "Communities streamed by sessions.",
            "counter",
        );
        p.sample(
            "ic_communities_streamed_total",
            &[],
            stats.communities_streamed,
        );
        p.header(
            "ic_worker_panics_total",
            "Jobs that panicked (workers survive).",
            "counter",
        );
        p.sample("ic_worker_panics_total", &[], stats.worker_panics);
        p.header(
            "ic_accept_errors_total",
            "Transient accept-loop failures the server survived.",
            "counter",
        );
        p.sample("ic_accept_errors_total", &[], stats.accept_errors);
        p.header(
            "ic_write_errors_total",
            "Client-socket writes that failed; each closed its connection.",
            "counter",
        );
        p.sample("ic_write_errors_total", &[], stats.write_errors);
        p.header(
            "ic_connections_total",
            "Protocol connections accepted.",
            "counter",
        );
        p.sample(
            "ic_connections_total",
            &[],
            self.metrics.connections_total(),
        );
        p.header(
            "ic_live_connections",
            "Protocol connections currently being served.",
            "gauge",
        );
        p.sample("ic_live_connections", &[], self.metrics.live_connections());

        p.header(
            "ic_executions_total",
            "Algorithm executions by planner choice.",
            "counter",
        );
        for algo in crate::planner::Algorithm::ALL {
            p.sample(
                "ic_executions_total",
                &[("algorithm", algo.name())],
                stats.executions(algo),
            );
        }

        p.header("ic_pool_workers", "Worker threads in the pool.", "gauge");
        p.sample("ic_pool_workers", &[], self.pool.worker_count() as u64);
        p.header(
            "ic_pool_queue_depth",
            "Jobs submitted but not yet picked up by a worker.",
            "gauge",
        );
        p.sample("ic_pool_queue_depth", &[], self.pool.queue_depth());
        p.header(
            "ic_pool_busy_ns_total",
            "Cumulative nanoseconds workers spent executing jobs.",
            "counter",
        );
        p.sample("ic_pool_busy_ns_total", &[], self.pool.busy_ns());

        p.header("ic_cache_entries", "Result-cache entries.", "gauge");
        p.sample("ic_cache_entries", &[], self.cache.len() as u64);
        p.header("ic_graphs", "Registered graphs.", "gauge");
        p.sample("ic_graphs", &[], self.registry.list().len() as u64);
        p.header(
            "ic_slow_queries_total",
            "Queries that crossed the slowlog threshold.",
            "counter",
        );
        p.sample("ic_slow_queries_total", &[], self.metrics.slow_total());

        p.header(
            "ic_store_io_bytes_total",
            "Bytes read per registered store.",
            "counter",
        );
        let io = self.store_io();
        for (name, kind, io_stats) in &io {
            p.sample(
                "ic_store_io_bytes_total",
                &[("graph", name), ("storage", kind.name())],
                io_stats.bytes_read,
            );
        }
        p.header(
            "ic_store_io_ops_total",
            "Read operations per registered store.",
            "counter",
        );
        for (name, kind, io_stats) in &io {
            p.sample(
                "ic_store_io_ops_total",
                &[("graph", name), ("storage", kind.name())],
                io_stats.read_ops,
            );
        }

        if let Some((wal, replayed_ops, replay_ns)) = self.wal_metrics() {
            p.header(
                "ic_wal_ops_appended_total",
                "Update records appended to write-ahead logs.",
                "counter",
            );
            p.sample("ic_wal_ops_appended_total", &[], wal.ops_appended);
            p.header(
                "ic_wal_commits_total",
                "Commit records appended (each fsyncs).",
                "counter",
            );
            p.sample("ic_wal_commits_total", &[], wal.commits);
            p.header(
                "ic_wal_fsync_ns_total",
                "Nanoseconds spent in commit-time fsync.",
                "counter",
            );
            p.sample("ic_wal_fsync_ns_total", &[], wal.fsync_ns);
            p.header(
                "ic_wal_replayed_ops_total",
                "Ops replayed from write-ahead logs at startup.",
                "counter",
            );
            p.sample("ic_wal_replayed_ops_total", &[], replayed_ops);
            p.header(
                "ic_wal_replay_ns_total",
                "Nanoseconds spent replaying write-ahead logs at startup.",
                "counter",
            );
            p.sample("ic_wal_replay_ns_total", &[], replay_ns);
        }

        p.header(
            "ic_query_latency_ns",
            "End-to-end query latency by answer class.",
            "histogram",
        );
        let mut class_snaps = Vec::new();
        for class in QueryClass::ALL {
            let snap = self.metrics.class_snapshot(class);
            p.histogram("ic_query_latency_ns", &[("class", class.name())], &snap);
            class_snaps.push((class, snap));
        }
        p.header(
            "ic_query_latency_quantile_ns",
            "Latency quantiles by answer class (upper bucket bound).",
            "gauge",
        );
        for (class, snap) in &class_snaps {
            for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99"), (0.999, "0.999")] {
                p.sample(
                    "ic_query_latency_quantile_ns",
                    &[("class", class.name()), ("quantile", label)],
                    snap.quantile(q),
                );
            }
        }
        p.header(
            "ic_execute_latency_ns",
            "Execute-stage latency by storage backend (leader executions).",
            "histogram",
        );
        for kind in [ic_graph::StorageKind::Memory, ic_graph::StorageKind::File] {
            p.histogram(
                "ic_execute_latency_ns",
                &[("storage", kind.name())],
                &self.metrics.execute_snapshot(kind),
            );
        }
        p.finish()
    }

    /// Number of entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }

    /// Empties the result cache (all graphs). Used by operators after
    /// bulk re-loads and by benchmarks to measure the cold path.
    pub fn clear_cache(&self) {
        self.cache.clear();
    }

    /// Worker threads in the batch pool.
    pub fn worker_count(&self) -> usize {
        self.pool.worker_count()
    }

    /// Test seam: plants a cache entry directly, simulating an in-flight
    /// worker whose insert lands after a graph replacement.
    #[cfg(test)]
    pub(crate) fn cache_insert_for_test(&self, key: CacheKey, value: Arc<Vec<Community>>) {
        self.cache.insert(key, value);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{Algorithm, Mode};
    use ic_core::query::Selection;
    use ic_core::TopKQuery;
    use ic_graph::paper::{figure1, figure3};

    /// Single-threaded reference through the unified core API.
    fn direct_top_k(g: &WeightedGraph, gamma: u32, k: usize) -> Vec<Community> {
        TopKQuery::new(gamma)
            .k(k)
            .algorithm(Selection::Forced(Algorithm::LocalSearch))
            .run(g)
            .expect("valid query")
            .communities
    }

    fn service_with_fig3() -> Arc<Service> {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 32,
            cache_shards: 4,
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        svc
    }

    #[test]
    fn query_matches_direct_local_search() {
        let svc = service_with_fig3();
        let resp = svc.query(Query::new("fig3", 3, 4)).unwrap();
        let direct = direct_top_k(&figure3(), 3, 4);
        assert_eq!(resp.communities.len(), 4);
        for (a, b) in resp.communities.iter().zip(&direct) {
            assert_eq!(a.keynode, b.keynode);
            assert_eq!(a.members, b.members);
        }
        assert!(!resp.cached);
        assert!(resp.search_stats.is_some(), "misses always report stats");
    }

    #[test]
    fn repeat_query_hits_cache_with_same_arc() {
        let svc = service_with_fig3();
        let first = svc.query(Query::new("fig3", 3, 4)).unwrap();
        let second = svc.query(Query::new("fig3", 3, 4)).unwrap();
        assert!(!first.cached);
        assert!(second.cached);
        assert!(Arc::ptr_eq(&first.communities, &second.communities));
        let stats = svc.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert!(stats.hit_rate() > 0.0);
    }

    #[test]
    fn forced_modes_agree_on_answers() {
        let svc = service_with_fig3();
        let reference = svc
            .query(Query::new("fig3", 3, 4).with_mode(Mode::Forced(Algorithm::LocalSearch)))
            .unwrap();
        for algo in [
            Algorithm::Progressive,
            Algorithm::Forward,
            Algorithm::OnlineAll,
            Algorithm::Backward,
            Algorithm::Naive,
        ] {
            // distinct k per algorithm would dodge the cache; same k must
            // be invalidated instead, so re-register the graph
            svc.register("fig3", figure3());
            let resp = svc
                .query(Query::new("fig3", 3, 4).with_mode(Mode::Forced(algo)))
                .unwrap();
            assert!(!resp.cached, "{algo}: cache must have been invalidated");
            assert_eq!(resp.explain.algorithm, algo);
            assert_eq!(resp.communities.len(), reference.communities.len());
            for (a, b) in resp.communities.iter().zip(reference.communities.iter()) {
                assert_eq!(a.members, b.members, "{algo}");
            }
        }
    }

    #[test]
    fn truss_queries_live_in_their_own_cache_family() {
        let svc = service_with_fig3();
        // prime the core-family entry for (γ=4, k=1)
        let core = svc.query(Query::new("fig3", 4, 1)).unwrap();
        // a forced truss query with the same (γ, k) must NOT hit it
        let truss = svc
            .query(Query::new("fig3", 4, 1).with_mode(Mode::Forced(Algorithm::Truss)))
            .unwrap();
        assert!(!truss.cached, "truss must miss the core-family entry");
        let expected = ic_core::truss::local_top_k(&figure3(), 4, 1).communities;
        assert_eq!(truss.communities.len(), expected.len());
        for (a, b) in truss.communities.iter().zip(&expected) {
            assert_eq!(a.members, b.members);
        }
        // and the core entry is still served untouched
        let again = svc.query(Query::new("fig3", 4, 1)).unwrap();
        assert!(again.cached);
        assert_eq!(again.communities.len(), core.communities.len());
        // a second truss query hits the truss-family entry
        let truss_again = svc
            .query(Query::new("fig3", 4, 1).with_mode(Mode::Forced(Algorithm::Truss)))
            .unwrap();
        assert!(truss_again.cached);
        // truss with γ < 2 is rejected by the central validation
        assert!(matches!(
            svc.query(Query::new("fig3", 1, 1).with_mode(Mode::Forced(Algorithm::Truss))),
            Err(ServiceError::InvalidQuery(_))
        ));
    }

    #[test]
    fn larger_k_answers_prefix_serve_smaller_k() {
        let svc = service_with_fig3();
        let big = svc.query(Query::new("fig3", 3, 4)).unwrap();
        assert!(!big.cached);
        // smaller k: served from the k=4 entry without executing
        let small = svc.query(Query::new("fig3", 3, 2)).unwrap();
        assert!(small.cached, "prefix service counts as a cache hit");
        assert_eq!(small.communities.len(), 2);
        for (a, b) in small.communities.iter().zip(big.communities.iter()) {
            assert_eq!(a.members, b.members);
        }
        let direct = direct_top_k(&figure3(), 3, 2);
        for (a, b) in small.communities.iter().zip(&direct) {
            assert_eq!(a.members, b.members, "prefix == directly computed");
        }
        let stats = svc.stats();
        assert_eq!(stats.cache_misses, 1, "one search answered both");
        assert_eq!(stats.prefix_served, 1);
        // a *larger* k than anything cached still executes
        let bigger = svc.query(Query::new("fig3", 3, 5)).unwrap();
        assert!(!bigger.cached);
    }

    #[test]
    fn exhausted_answers_serve_every_larger_k() {
        let svc = service_with_fig3();
        // figure 3 has 4 three-communities; k=100 exhausts the enumeration
        let all = svc.query(Query::new("fig3", 3, 100)).unwrap();
        let total = all.communities.len();
        assert!(total < 100);
        // any k — smaller, equal, larger — is now a hit
        for k in [1usize, total, total + 1, 5000] {
            let resp = svc.query(Query::new("fig3", 3, k)).unwrap();
            assert!(resp.cached, "k={k}");
            assert_eq!(resp.communities.len(), k.min(total), "k={k}");
        }
        assert_eq!(svc.stats().cache_misses, 1);
    }

    #[test]
    fn query_batch_groups_and_slices() {
        let svc = service_with_fig3();
        svc.register("fig1", figure1());
        let queries = vec![
            Query::new("fig3", 3, 2),
            Query::new("fig3", 3, 4), // same lane, bigger k
            Query::new("fig1", 3, 1), // different graph
            Query::new("fig3", 2, 3), // different γ
            Query::new("fig3", 3, 1), // same lane again
            Query::new("nope", 3, 1), // per-slot failure
            Query::new("fig3", 0, 1), // per-slot validation failure
        ];
        let results = svc.query_batch(&queries);
        assert_eq!(results.len(), queries.len());
        // every successful slot matches its individually computed answer
        for (q, r) in queries.iter().zip(&results).take(5) {
            let resp = r.as_ref().expect("valid slots succeed");
            let reference = direct_top_k(resp.graph_instance.as_memory().unwrap(), q.gamma, q.k);
            assert_eq!(resp.communities.len(), reference.len(), "{q:?}");
            for (a, b) in resp.communities.iter().zip(&reference) {
                assert_eq!(a.members, b.members, "{q:?}");
            }
        }
        assert!(matches!(results[5], Err(ServiceError::UnknownGraph(_))));
        assert!(matches!(results[6], Err(ServiceError::InvalidQuery(_))));
        // three groups → three searches, regardless of member count
        let stats = svc.stats();
        assert_eq!(stats.batches, 1);
        assert_eq!(stats.cache_misses, 3, "one execution per group");
        assert_eq!(stats.queries, 5, "every successful member is a query");
    }

    #[test]
    fn query_batch_answers_equal_individual_queries() {
        let svc = service_with_fig3();
        let queries: Vec<Query> = [(3u32, 1usize), (3, 3), (3, 4), (2, 2), (4, 1)]
            .into_iter()
            .map(|(gamma, k)| Query::new("fig3", gamma, k))
            .collect();
        let batched = svc.query_batch(&queries);
        let fresh = service_with_fig3();
        for (q, b) in queries.iter().zip(&batched) {
            let individual = fresh.query(q.clone()).unwrap();
            let b = b.as_ref().unwrap();
            assert_eq!(b.communities.len(), individual.communities.len());
            for (x, y) in b.communities.iter().zip(individual.communities.iter()) {
                assert_eq!(x.members, y.members, "{q:?}");
                assert_eq!(x.influence, y.influence, "{q:?}");
            }
        }
    }

    #[test]
    fn uniformly_forced_batch_groups_keep_their_algorithm() {
        let svc = service_with_fig3();
        let forced: Vec<Query> = [1usize, 3]
            .into_iter()
            .map(|k| Query::new("fig3", 3, k).with_mode(Mode::Forced(Algorithm::Naive)))
            .collect();
        let results = svc.query_batch(&forced);
        for r in &results {
            assert_eq!(r.as_ref().unwrap().explain.algorithm, Algorithm::Naive);
        }
        assert_eq!(svc.stats().executions(Algorithm::Naive), 1);
        // a truss-forced request lands in its own family group
        let mixed = svc.query_batch(&[
            Query::new("fig3", 4, 1),
            Query::new("fig3", 4, 1).with_mode(Mode::Forced(Algorithm::Truss)),
        ]);
        let core = mixed[0].as_ref().unwrap();
        let truss = mixed[1].as_ref().unwrap();
        assert_eq!(truss.explain.algorithm, Algorithm::Truss);
        assert_ne!(core.explain.algorithm, Algorithm::Truss);
    }

    #[test]
    fn truss_batch_members_are_never_sliced() {
        // The prefix guarantee is a core-family property; truss requests
        // with different k must each run (or hit) at their own exact k,
        // never be served a slice of a larger-k truss answer.
        let svc = service_with_fig3();
        let queries = vec![
            Query::new("fig3", 4, 1).with_mode(Mode::Forced(Algorithm::Truss)),
            Query::new("fig3", 4, 3).with_mode(Mode::Forced(Algorithm::Truss)),
            Query::new("fig3", 4, 1).with_mode(Mode::Forced(Algorithm::Truss)),
        ];
        let results = svc.query_batch(&queries);
        for (q, r) in queries.iter().zip(&results) {
            let resp = r.as_ref().unwrap();
            let expected = ic_core::truss::local_top_k(&figure3(), 4, q.k).communities;
            assert_eq!(resp.communities.len(), expected.len(), "k={}", q.k);
            for (a, b) in resp.communities.iter().zip(&expected) {
                assert_eq!(a.members, b.members, "k={}", q.k);
            }
        }
        // two distinct ks → two truss executions; the duplicate k=1
        // shares its identical twin's group
        assert_eq!(svc.stats().executions(Algorithm::Truss), 2);
        assert_eq!(svc.stats().prefix_served, 1, "only the duplicate");
    }

    #[test]
    fn unknown_graph_and_bad_params_error() {
        let svc = service_with_fig3();
        assert!(matches!(
            svc.query(Query::new("nope", 3, 4)),
            Err(ServiceError::UnknownGraph(_))
        ));
        assert!(matches!(
            svc.query(Query::new("fig3", 0, 4)),
            Err(ServiceError::InvalidQuery(_))
        ));
        assert!(matches!(
            svc.query(Query::new("fig3", 3, 0)),
            Err(ServiceError::InvalidQuery(_))
        ));
    }

    #[test]
    fn explain_reports_without_executing() {
        let svc = service_with_fig3();
        let e = svc.explain(&Query::new("fig3", 3, 4)).unwrap();
        assert!(!e.reason.is_empty());
        assert_eq!(svc.stats().queries, 0);
    }

    #[test]
    fn sessions_stream_and_close() {
        let svc = service_with_fig3();
        let id = svc.open_session("fig3", 3).unwrap();
        let first = svc.session_next_full(id, 1).unwrap().0;
        assert_eq!(first.len(), 1);
        let rest = svc.session_next_full(id, 100).unwrap().0;
        assert!(!rest.is_empty());
        svc.close_session(id).unwrap();
        assert!(matches!(
            svc.session_next_full(id, 1),
            Err(ServiceError::UnknownSession(_))
        ));
        let stats = svc.stats();
        assert_eq!(stats.sessions_opened, 1);
        assert_eq!(stats.sessions_closed, 1);
        assert_eq!(stats.communities_streamed, 1 + rest.len() as u64);
    }

    #[test]
    fn synthetic_registration_is_queryable() {
        let svc = Service::with_defaults();
        let entry = svc.register_synthetic(
            "ba",
            SyntheticSpec::BarabasiAlbert {
                n: 120,
                d: 3,
                seed: 7,
            },
        );
        assert_eq!(entry.stats.n, 120);
        let resp = svc.query(Query::new("ba", 2, 3)).unwrap();
        assert!(!resp.communities.is_empty());
    }

    #[test]
    fn multiple_graphs_are_isolated() {
        let svc = service_with_fig3();
        svc.register("fig1", figure1());
        let a = svc.query(Query::new("fig3", 3, 2)).unwrap();
        let b = svc.query(Query::new("fig1", 3, 2)).unwrap();
        assert_ne!(
            a.communities[0].influence, b.communities[0].influence,
            "answers must come from their own graphs"
        );
    }

    #[test]
    fn stale_generation_insert_is_never_served() {
        // A worker that read the old registry entry may insert its result
        // after the graph is replaced; the generation in the key must make
        // that insert unreachable for new queries.
        let svc = service_with_fig3();
        let old = svc.graph("fig3").unwrap();
        svc.register("fig3", figure1()); // replacement, new generation
        svc.cache_insert_for_test(
            crate::cache::CacheKey {
                graph: "fig3".into(),
                generation: old.generation,
                gamma: 3,
                k: 2,
                family: ic_core::AnswerFamily::Core,
            },
            Arc::new(direct_top_k(&figure3(), 3, 2)),
        );
        let resp = svc.query(Query::new("fig3", 3, 2)).unwrap();
        assert!(!resp.cached, "stale-generation entry must not be a hit");
        let direct = direct_top_k(&figure1(), 3, 2);
        assert_eq!(resp.communities.len(), direct.len());
        for (a, b) in resp.communities.iter().zip(&direct) {
            assert_eq!(a.members, b.members);
        }
    }

    #[test]
    fn session_survives_graph_replacement() {
        // An open session streams from the instance it captured; replacing
        // the name (even with a smaller graph) must not disturb it.
        let svc = service_with_fig3();
        let id = svc.open_session("fig3", 3).unwrap();
        let instance = svc.session_graph_instance(id).unwrap();
        let first = svc.session_next_full(id, 1).unwrap().0;
        svc.register("fig3", figure1()); // 10 vertices < fig3's 22
        let rest = svc.session_next_full(id, 100).unwrap().0;
        // every yielded rank is valid in the captured instance
        for c in first.iter().chain(&rest) {
            for &r in &c.members {
                assert!((r as usize) < instance.n());
            }
        }
        let reference = direct_top_k(&figure3(), 3, 100);
        assert_eq!(first.len() + rest.len(), reference.len());
        svc.close_session(id).unwrap();
    }

    #[test]
    fn updates_are_invisible_until_commit_then_swap_atomically() {
        let svc = service_with_fig3();
        let before = svc.query(Query::new("fig3", 3, 4)).unwrap();
        let old_generation = svc.graph("fig3").unwrap().generation;

        // sever the top clique's keynode edge; nothing visible yet
        let st = svc
            .update("fig3", UpdateOp::DeleteEdge { u: 3, v: 11 })
            .unwrap();
        assert_eq!(st.pending, 1);
        assert!(svc.stale_core_fraction("fig3") > 0.0);
        let mid = svc.query(Query::new("fig3", 3, 4)).unwrap();
        assert_eq!(mid.communities.len(), before.communities.len());
        assert!(mid.cached, "pre-commit answers still come from the cache");

        // commit: new generation, cache invalidated, updated answer
        let (entry, receipt) = svc.commit_updates("fig3").unwrap();
        assert!(entry.generation > old_generation);
        assert_eq!(receipt.ops_applied, 1);
        assert_eq!(svc.stale_core_fraction("fig3"), 0.0);
        let after = svc.query(Query::new("fig3", 3, 4)).unwrap();
        assert!(!after.cached, "commit must invalidate cached answers");
        let direct = {
            let mut dg = ic_dynamic::DynamicGraph::new(figure3());
            dg.delete_edge(3, 11).unwrap();
            dg.commit();
            // committed snapshots answer through the same unified API
            dg.query(&TopKQuery::new(3).k(4)).unwrap().communities
        };
        assert_eq!(after.communities.len(), direct.len());
        for (a, b) in after.communities.iter().zip(&direct) {
            assert_eq!(a.members, b.members);
        }
    }

    #[test]
    fn commit_without_updates_is_a_noop() {
        let svc = service_with_fig3();
        let before = svc.graph("fig3").unwrap();
        let (entry, receipt) = svc.commit_updates("fig3").unwrap();
        assert_eq!(entry.generation, before.generation);
        assert_eq!(receipt.ops_applied, 0);
        assert!(Arc::ptr_eq(
            entry.memory().unwrap(),
            before.memory().unwrap()
        ));
        // same once an overlay exists but holds nothing pending
        svc.update(
            "fig3",
            UpdateOp::AddVertex {
                v: 900,
                weight: 1.0,
            },
        )
        .unwrap();
        svc.commit_updates("fig3").unwrap();
        let committed = svc.graph("fig3").unwrap();
        let (entry2, receipt2) = svc.commit_updates("fig3").unwrap();
        assert_eq!(receipt2.ops_applied, 0);
        assert_eq!(entry2.generation, committed.generation);
    }

    #[test]
    fn rejected_updates_surface_and_change_nothing() {
        let svc = service_with_fig3();
        assert!(matches!(
            svc.update("nope", UpdateOp::DeleteEdge { u: 1, v: 2 }),
            Err(ServiceError::UnknownGraph(_))
        ));
        assert!(matches!(
            svc.update("fig3", UpdateOp::DeleteEdge { u: 0, v: 9 }),
            Err(ServiceError::Update(_))
        ));
        assert_eq!(svc.pending_updates("fig3"), 0);
        assert_eq!(svc.stale_core_fraction("fig3"), 0.0);
    }

    #[test]
    fn wholesale_registration_discards_pending_updates() {
        let svc = service_with_fig3();
        svc.update("fig3", UpdateOp::DeleteEdge { u: 3, v: 11 })
            .unwrap();
        assert_eq!(svc.pending_updates("fig3"), 1);
        svc.register("fig3", figure3());
        assert_eq!(svc.pending_updates("fig3"), 0);
        let (_, receipt) = svc.commit_updates("fig3").unwrap();
        assert_eq!(receipt.ops_applied, 0, "overlay was superseded");
    }

    #[test]
    fn readers_never_wait_for_the_dynamics_lock() {
        let svc = service_with_fig3();
        svc.update("fig3", UpdateOp::DeleteEdge { u: 3, v: 11 })
            .unwrap();
        // what commit_updates holds for its whole run
        let guard = write_or_poison(&svc.dynamics);
        let (tx, rx) = channel();
        let svc2 = Arc::clone(&svc);
        let reader = std::thread::spawn(move || {
            let q = Query::new("fig3", 3, 4);
            let _ = tx.send(svc2.query(q.clone()).is_ok());
            let _ = tx.send(svc2.explain(&q).is_ok());
        });
        let wait = Duration::from_secs(10);
        let (query, explain) = (rx.recv_timeout(wait), rx.recv_timeout(wait));
        drop(guard);
        reader.join().expect("reader thread panicked");
        assert_eq!(query, Ok(true), "query blocked behind a commit");
        assert_eq!(explain, Ok(true), "explain blocked behind a commit");
    }

    #[test]
    fn load_path_round_trips_both_formats() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-service-load");
        let g = figure3();
        let bin = dir.file("g.icg");
        io::save(&g, &bin).unwrap();
        let txt = dir.file("g.txt");
        io::write_text(&g, std::fs::File::create(&txt).unwrap()).unwrap();

        let svc = Service::with_defaults();
        let from_bin = svc.load_path("bin", bin.to_str().unwrap()).unwrap();
        let from_txt = svc.load_path("txt", txt.to_str().unwrap()).unwrap();
        assert_eq!(from_bin.stats, from_txt.stats);
        assert!(svc
            .load_path("missing", dir.file("nope.icg").to_str().unwrap())
            .is_err());
    }

    #[test]
    fn save_then_file_backed_round_trip_matches_memory() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-service-icsr");
        let svc = service_with_fig3();
        let path = dir.file("fig3.icsr");
        svc.save_store("fig3", path.to_str().unwrap()).unwrap();

        let entry = svc
            .register_file("fig3x", path.to_str().unwrap(), None)
            .unwrap();
        assert_eq!(entry.storage(), ic_graph::StorageKind::File);
        assert_eq!(entry.stats, svc.graph("fig3").unwrap().stats);

        // auto dispatch picks a semi-external executor and the answers
        // match the memory-resident registration exactly
        for (gamma, k) in [(3u32, 1usize), (3, 4), (2, 3), (1, 100)] {
            let mem = svc.query(Query::new("fig3", gamma, k)).unwrap();
            let file = svc.query(Query::new("fig3x", gamma, k)).unwrap();
            assert!(
                matches!(
                    file.explain.algorithm,
                    Algorithm::LocalSearchSE | Algorithm::OnlineAllSE
                ),
                "gamma={gamma} k={k} planned {}",
                file.explain.algorithm
            );
            assert_eq!(file.explain.storage, ic_graph::StorageKind::File);
            assert!(file.explain.est_bytes > 0);
            assert_eq!(file.communities.len(), mem.communities.len());
            for (a, b) in file.communities.iter().zip(mem.communities.iter()) {
                assert_eq!(a.members, b.members, "gamma={gamma} k={k}");
                assert_eq!(a.influence, b.influence);
            }
            if !file.cached {
                let stats = file.search_stats.expect("miss reports stats");
                assert!(stats.bytes_read > 0, "file-backed runs perform I/O");
            }
        }
        // the store-level I/O counters saw those reads
        let io = svc.store_io();
        let row = io.iter().find(|(n, _, _)| n == "fig3x").unwrap();
        assert_eq!(row.1, ic_graph::StorageKind::File);
        assert!(row.2.bytes_read > 0);
        let mem_row = io.iter().find(|(n, _, _)| n == "fig3").unwrap();
        assert_eq!(mem_row.2.bytes_read, 0);
    }

    #[test]
    fn file_backed_stores_reject_memory_only_operations() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-service-icsr-rej");
        let svc = service_with_fig3();
        let path = dir.file("g.icsr");
        svc.save_store("fig3", path.to_str().unwrap()).unwrap();
        svc.register_file("gx", path.to_str().unwrap(), None)
            .unwrap();

        // dynamic updates, commits, and sessions need random access
        assert!(matches!(
            svc.update("gx", UpdateOp::DeleteEdge { u: 3, v: 11 }),
            Err(ServiceError::Storage(_))
        ));
        assert!(matches!(
            svc.commit_updates("gx"),
            Err(ServiceError::Storage(_))
        ));
        assert!(matches!(
            svc.open_session("gx", 3),
            Err(ServiceError::Storage(_))
        ));
        // re-saving a file-backed store is refused (its edges already
        // live in the file it was opened from)
        assert!(matches!(
            svc.save_store("gx", dir.file("copy.icsr").to_str().unwrap()),
            Err(ServiceError::Storage(_))
        ));
        // a forced memory-only algorithm errors rather than panicking
        assert!(matches!(
            svc.query(Query::new("gx", 3, 4).with_mode(Mode::Forced(Algorithm::LocalSearch))),
            Err(ServiceError::Storage(_))
        ));
        // the forced *semi-external* algorithms still run
        let forced = svc
            .query(Query::new("gx", 3, 4).with_mode(Mode::Forced(Algorithm::OnlineAllSE)))
            .unwrap();
        assert_eq!(forced.communities.len(), 4);
    }

    #[test]
    fn register_file_failures_leave_the_registry_untouched() {
        let dir = ic_graph::scratch::ScratchDir::new("ic-service-icsr-err");
        let svc = service_with_fig3();
        let before = svc.graph("fig3").unwrap();
        // missing file
        assert!(matches!(
            svc.register_file("fig3", dir.file("nope.icsr").to_str().unwrap(), None),
            Err(ServiceError::GraphLoad(_))
        ));
        // hostile bytes
        let bad = dir.file("bad.icsr");
        std::fs::write(&bad, b"not an icsr file at all").unwrap();
        assert!(matches!(
            svc.register_file("fig3", bad.to_str().unwrap(), None),
            Err(ServiceError::GraphLoad(_))
        ));
        // over-budget open
        let good = dir.file("good.icsr");
        svc.save_store("fig3", good.to_str().unwrap()).unwrap();
        assert!(matches!(
            svc.register_file("fig3", good.to_str().unwrap(), Some(16)),
            Err(ServiceError::GraphLoad(_))
        ));
        // the original registration still serves, same generation
        let after = svc.graph("fig3").unwrap();
        assert_eq!(after.generation, before.generation);
        assert!(svc.query(Query::new("fig3", 3, 4)).is_ok());
    }
}
