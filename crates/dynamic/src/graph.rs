//! [`DynamicGraph`]: a mutable overlay over the immutable CSR substrate.
//!
//! Every algorithm in this workspace runs against the weight-sorted,
//! immutable [`WeightedGraph`] — and must keep doing so, because its rank
//! space and `N≥`/`N<` partition are what make LocalSearch instance
//! optimal. `DynamicGraph` therefore separates *mutation* from *query*:
//!
//! * Updates (edge insert/delete, vertex add/remove, reweight) apply
//!   immediately to a mutable adjacency/weight state in external-id
//!   space, with [`crate::CoreTracker`] keeping core numbers exact after
//!   every structural change whose affected region fits the maintenance
//!   budget; a pathological op instead marks the cores stale and defers
//!   to one linear refresh peel at the next commit (never worse than a
//!   from-scratch registration, much better when churn is local).
//! * Queries keep running against the last committed snapshot;
//!   [`DynamicGraph::commit`] compacts the mutable state into a fresh
//!   CSR [`WeightedGraph`] — re-ranking the previous snapshot, rewriting
//!   only dirty adjacency lists, whenever the vertex set is unchanged;
//!   only vertex adds and removals rebuild from scratch —
//!   and returns it with registration-grade [`GraphStats`] whose
//!   degeneracy comes from the tracker, not from the per-registration
//!   core recompute.
//!
//! Between commits the published snapshot's planning statistics go stale;
//! [`DynamicGraph::stale_core_fraction`] quantifies exactly how stale
//! (fraction of vertices whose core number the pending updates touched;
//! 1.0 after an over-budget burst), which the service planner consumes
//! as a replanning signal.

use std::fmt;
use std::sync::Arc;

use ic_graph::stats::core_numbers;
use ic_graph::{GraphBuilder, GraphStats, Rank, WeightedGraph};

use crate::cores::{Adjacency, CoreTracker, MaintenanceStats, VertexMap, VertexSet};

/// One update against a [`DynamicGraph`], in external-id space. The
/// protocol layer parses `UPDATE` lines into these; library users can
/// also call the named methods directly.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum UpdateOp {
    /// Insert the undirected edge `{u, v}`. When `default_weight` is
    /// given, endpoints that do not exist yet are created with it first;
    /// without it, missing endpoints are an error.
    InsertEdge {
        /// One endpoint.
        u: u64,
        /// The other endpoint.
        v: u64,
        /// Weight for endpoints created on the fly.
        default_weight: Option<f64>,
    },
    /// Delete the undirected edge `{u, v}`.
    DeleteEdge {
        /// One endpoint.
        u: u64,
        /// The other endpoint.
        v: u64,
    },
    /// Add an isolated vertex with the given influence weight.
    AddVertex {
        /// The new vertex.
        v: u64,
        /// Its influence weight.
        weight: f64,
    },
    /// Remove a vertex and every incident edge.
    RemoveVertex {
        /// The vertex to remove.
        v: u64,
    },
    /// Change the influence weight of an existing vertex.
    Reweight {
        /// The vertex to reweight.
        v: u64,
        /// Its new influence weight.
        weight: f64,
    },
}

/// Why an update was rejected. Rejected updates leave the graph state
/// completely unchanged.
#[derive(Debug, Clone, PartialEq)]
pub enum DynamicError {
    /// The referenced vertex does not exist.
    NoSuchVertex(u64),
    /// `AddVertex` for an id that already exists.
    VertexExists(u64),
    /// `DeleteEdge` for an edge that is not present.
    NoSuchEdge(u64, u64),
    /// `InsertEdge` for an edge that is already present.
    EdgeExists(u64, u64),
    /// Both endpoints are the same vertex.
    SelfLoop(u64),
    /// A weight was NaN or infinite.
    NonFiniteWeight(u64, f64),
    /// Removing the vertex would leave the graph empty, which the CSR
    /// substrate cannot represent.
    WouldBeEmpty,
}

impl fmt::Display for DynamicError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DynamicError::NoSuchVertex(v) => write!(f, "vertex {v} does not exist"),
            DynamicError::VertexExists(v) => write!(f, "vertex {v} already exists"),
            DynamicError::NoSuchEdge(u, v) => write!(f, "edge {{{u}, {v}}} does not exist"),
            DynamicError::EdgeExists(u, v) => write!(f, "edge {{{u}, {v}}} already exists"),
            DynamicError::SelfLoop(v) => write!(f, "self loop at vertex {v} rejected"),
            DynamicError::NonFiniteWeight(v, w) => {
                write!(f, "vertex {v}: weight {w} is not finite")
            }
            DynamicError::WouldBeEmpty => write!(f, "removing the last vertex is not allowed"),
        }
    }
}

impl std::error::Error for DynamicError {}

/// What a [`DynamicGraph::commit`] produced.
#[derive(Debug, Clone)]
pub struct CommitReceipt {
    /// The freshly compacted CSR snapshot.
    pub graph: Arc<WeightedGraph>,
    /// Registration-grade statistics. Assembled from maintained cores
    /// when maintenance stayed within budget, from one linear refresh
    /// peel otherwise — never from the per-registration recompute path.
    pub stats: GraphStats,
    /// Updates folded into this snapshot (0 for a no-op commit).
    pub ops_applied: u64,
    /// Vertices visited by incremental core maintenance since the
    /// previous commit — the work a full recompute would have multiplied.
    pub cores_visited: u64,
    /// True when maintenance went over budget during this batch and the
    /// commit re-peeled the snapshot to restore exact cores.
    pub refreshed_cores: bool,
}

/// A mutable vertex-weighted graph with incrementally maintained core
/// numbers and snapshot-on-commit query semantics. See the module docs.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    /// Influence weight per vertex.
    weights: VertexMap<f64>,
    /// Sorted neighbor lists per vertex.
    adj: Adjacency,
    /// Undirected edge count.
    m: usize,
    /// Exact core numbers, maintained per update.
    tracker: CoreTracker,
    /// Last committed CSR snapshot.
    snapshot: Arc<WeightedGraph>,
    /// Statistics of `snapshot` as of its commit.
    snapshot_stats: GraphStats,
    /// External id → rank in `snapshot` (the re-rank path's translation).
    rank_of: VertexMap<Rank>,
    /// Vertices whose core numbers the maintenance touched since the last
    /// commit — the numerator of [`DynamicGraph::stale_core_fraction`].
    touched: VertexSet,
    /// Vertices whose adjacency changed since the last commit (the only
    /// lists the re-rank commit must rewrite).
    dirty_adj: VertexSet,
    /// True when a vertex was added or removed since the last commit,
    /// forcing the full sort-and-relabel rebuild instead of the re-rank.
    vertex_set_dirty: bool,
    /// Updates accepted since the last commit.
    pending: u64,
    /// Visited-counter value at the last commit (for per-commit deltas).
    visited_at_commit: u64,
    /// Per-op maintenance budget in adjacency entries scanned; ops whose
    /// affected region exceeds it flip the tracker to stale and the next
    /// commit re-peels once instead.
    maintenance_budget: usize,
}

/// Default per-op maintenance budget, in adjacency entries scanned.
/// Chosen so the common local update costs a few adjacency scans while a
/// pathological one (homogeneous region spanning the graph) is cut off
/// long before it outweighs the single linear peel the next commit would
/// pay instead.
pub const DEFAULT_MAINTENANCE_BUDGET: usize = 4096;

impl DynamicGraph {
    /// Wraps an existing immutable graph. Pays one full core peel to seed
    /// the tracker; every later update is maintained incrementally.
    pub fn new(graph: WeightedGraph) -> Self {
        Self::from_arc(Arc::new(graph))
    }

    /// Like [`DynamicGraph::new`] for an already-shared graph.
    pub fn from_arc(snapshot: Arc<WeightedGraph>) -> Self {
        let cores = core_numbers(&snapshot);
        let n = snapshot.n();
        let mut weights = VertexMap::with_capacity_and_hasher(n, Default::default());
        let mut adj = Adjacency::with_capacity_and_hasher(n, Default::default());
        let mut rank_of = VertexMap::with_capacity_and_hasher(n, Default::default());
        let mut tracker = CoreTracker::new();
        tracker.seed((0..n as u32).map(|r| (snapshot.external_id(r), cores[r as usize])));
        for r in 0..n as u32 {
            let v = snapshot.external_id(r);
            weights.insert(v, snapshot.weight(r));
            rank_of.insert(v, r);
            let mut list: Vec<u64> = snapshot
                .neighbors(r)
                .iter()
                .map(|&x| snapshot.external_id(x))
                .collect();
            list.sort_unstable();
            adj.insert(v, list);
        }
        let snapshot_stats = Self::assemble_stats(&adj, snapshot.m(), tracker.gamma_max());
        DynamicGraph {
            weights,
            adj,
            m: snapshot.m(),
            tracker,
            snapshot,
            snapshot_stats,
            rank_of,
            touched: VertexSet::default(),
            dirty_adj: VertexSet::default(),
            vertex_set_dirty: false,
            pending: 0,
            visited_at_commit: 0,
            maintenance_budget: DEFAULT_MAINTENANCE_BUDGET,
        }
    }

    /// Overrides the per-op maintenance budget (adjacency entries scanned
    /// before an op abandons incremental maintenance in favor of one
    /// commit-time refresh peel). `usize::MAX` keeps maintenance exact at
    /// any cost.
    pub fn with_maintenance_budget(mut self, budget: usize) -> Self {
        self.maintenance_budget = budget;
        self
    }

    /// True while incrementally maintained cores are exact; false after
    /// some pending op went over budget (the next commit re-peels).
    pub fn cores_fresh(&self) -> bool {
        self.tracker.is_fresh()
    }

    // ----- inspection --------------------------------------------------

    /// Number of vertices in the *live* (uncommitted) state.
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Number of undirected edges in the live state.
    pub fn m(&self) -> usize {
        self.m
    }

    /// True iff `v` exists in the live state.
    pub fn contains_vertex(&self, v: u64) -> bool {
        self.weights.contains_key(&v)
    }

    /// Influence weight of `v` in the live state.
    pub fn weight_of(&self, v: u64) -> Option<f64> {
        self.weights.get(&v).copied()
    }

    /// Degree of `v` in the live state.
    pub fn degree_of(&self, v: u64) -> Option<usize> {
        self.adj.get(&v).map(|l| l.len())
    }

    /// True iff the undirected edge `{u, v}` exists in the live state.
    pub fn has_edge(&self, u: u64, v: u64) -> bool {
        self.adj
            .get(&u)
            .is_some_and(|l| l.binary_search(&v).is_ok())
    }

    /// Incrementally maintained core number of `v` — exact while
    /// [`DynamicGraph::cores_fresh`] holds, the last exact value
    /// otherwise (the next commit restores exactness).
    pub fn core_of(&self, v: u64) -> Option<u32> {
        self.tracker.core(v)
    }

    /// Degeneracy (`γmax`) of the live state, in O(1). Exact while
    /// [`DynamicGraph::cores_fresh`] holds.
    pub fn gamma_max(&self) -> u32 {
        self.tracker.gamma_max()
    }

    /// Updates accepted since the last commit.
    pub fn pending_updates(&self) -> u64 {
        self.pending
    }

    /// Cumulative incremental-maintenance counters.
    pub fn maintenance_stats(&self) -> MaintenanceStats {
        self.tracker.stats()
    }

    /// The last committed snapshot (what queries should run against).
    pub fn snapshot(&self) -> Arc<WeightedGraph> {
        Arc::clone(&self.snapshot)
    }

    /// Answers a unified-API query ([`ic_core::TopKQuery`]) against the
    /// last committed snapshot — the same request/response surface every
    /// other consumer uses. Pending (uncommitted) updates are invisible,
    /// exactly as they are to service queries; call
    /// [`DynamicGraph::commit`] first to fold them in.
    ///
    /// ```
    /// use ic_core::TopKQuery;
    /// use ic_dynamic::DynamicGraph;
    /// use ic_graph::paper::figure3;
    ///
    /// let mut dg = DynamicGraph::new(figure3());
    /// let before = dg.query(&TopKQuery::new(3).k(1)).unwrap();
    /// dg.delete_edge(3, 11).unwrap();
    /// // invisible until commit
    /// let mid = dg.query(&TopKQuery::new(3).k(1)).unwrap();
    /// assert_eq!(mid.communities, before.communities);
    /// dg.commit();
    /// let after = dg.query(&TopKQuery::new(3).k(1)).unwrap();
    /// assert_ne!(after.communities, before.communities);
    /// ```
    pub fn query(
        &self,
        q: &ic_core::TopKQuery,
    ) -> Result<ic_core::SearchResult, ic_core::QueryError> {
        q.run(&self.snapshot)
    }

    /// Statistics of the last committed snapshot.
    pub fn snapshot_stats(&self) -> GraphStats {
        self.snapshot_stats
    }

    /// Fraction of the published snapshot's vertices whose core numbers
    /// the pending (uncommitted) updates have touched, clamped to 1.
    /// `0.0` means the snapshot's planning statistics are exact; values
    /// near 1 mean its degeneracy can no longer be trusted. An update
    /// burst that drove maintenance over budget reports 1.0 outright —
    /// every core is suspect until the next commit's refresh.
    pub fn stale_core_fraction(&self) -> f64 {
        if !self.tracker.is_fresh() {
            return 1.0;
        }
        if self.touched.is_empty() {
            return 0.0;
        }
        (self.touched.len() as f64 / self.snapshot.n() as f64).min(1.0)
    }

    /// Upper bound on the influence of *any* `γ`-community in the live
    /// state, from maintained cores alone: every member of such a
    /// community has core ≥ γ and the community has ≥ γ+1 members, so its
    /// influence is at most the (γ+1)-th largest weight among vertices
    /// with core ≥ γ. Returns `None` when no `γ`-community can exist.
    /// While cores are stale the filter is dropped (all vertices count),
    /// so the returned bound stays sound, just looser.
    pub fn influence_upper_bound(&self, gamma: u32) -> Option<f64> {
        let fresh = self.tracker.is_fresh();
        if gamma == 0 || (fresh && self.tracker.vertices_in_core(gamma) < gamma as usize + 1) {
            return None;
        }
        let mut ws: Vec<f64> = self
            .weights
            .iter()
            .filter(|&(&v, _)| !fresh || self.tracker.core(v).unwrap_or(0) >= gamma)
            .map(|(_, &w)| w)
            .collect();
        let idx = gamma as usize; // (γ+1)-th largest, 0-indexed
        if ws.len() <= idx {
            return None;
        }
        let (_, bound, _) =
            ws.select_nth_unstable_by(idx, |a, b| b.partial_cmp(a).expect("finite weights"));
        Some(*bound)
    }

    // ----- updates -----------------------------------------------------

    /// Applies one [`UpdateOp`].
    pub fn apply(&mut self, op: UpdateOp) -> Result<(), DynamicError> {
        match op {
            UpdateOp::InsertEdge {
                u,
                v,
                default_weight,
            } => {
                if let Some(w) = default_weight {
                    if u == v {
                        return Err(DynamicError::SelfLoop(u));
                    }
                    for e in [u, v] {
                        if !self.contains_vertex(e) {
                            self.add_vertex(e, w)?;
                        }
                    }
                }
                self.insert_edge(u, v)
            }
            UpdateOp::DeleteEdge { u, v } => self.delete_edge(u, v),
            UpdateOp::AddVertex { v, weight } => self.add_vertex(v, weight),
            UpdateOp::RemoveVertex { v } => self.remove_vertex(v),
            UpdateOp::Reweight { v, weight } => self.reweight(v, weight),
        }
    }

    /// Inserts the undirected edge `{u, v}`; both endpoints must exist.
    pub fn insert_edge(&mut self, u: u64, v: u64) -> Result<(), DynamicError> {
        if u == v {
            return Err(DynamicError::SelfLoop(u));
        }
        for e in [u, v] {
            if !self.contains_vertex(e) {
                return Err(DynamicError::NoSuchVertex(e));
            }
        }
        if self.has_edge(u, v) {
            return Err(DynamicError::EdgeExists(u, v));
        }
        self.link(u, v);
        self.enforce_batch_spend();
        self.tracker
            .after_insert(&self.adj, u, v, self.maintenance_budget, &mut self.touched);
        self.dirty_adj.insert(u);
        self.dirty_adj.insert(v);
        self.pending += 1;
        Ok(())
    }

    /// Deletes the undirected edge `{u, v}`.
    pub fn delete_edge(&mut self, u: u64, v: u64) -> Result<(), DynamicError> {
        if u == v {
            return Err(DynamicError::SelfLoop(u));
        }
        for e in [u, v] {
            if !self.contains_vertex(e) {
                return Err(DynamicError::NoSuchVertex(e));
            }
        }
        if !self.has_edge(u, v) {
            return Err(DynamicError::NoSuchEdge(u, v));
        }
        self.unlink(u, v);
        self.enforce_batch_spend();
        self.tracker
            .after_delete(&self.adj, u, v, self.maintenance_budget, &mut self.touched);
        self.dirty_adj.insert(u);
        self.dirty_adj.insert(v);
        self.pending += 1;
        Ok(())
    }

    /// The second half of the adaptive maintenance policy: the per-op
    /// budget bounds a single op's latency, and this bounds a *batch* —
    /// once the evaluations spent since the last commit rival what the
    /// commit-time refresh peel costs, further per-op maintenance is
    /// wasted motion, so the tracker is abandoned and the peel pays once.
    /// (Incremental scans are hash-indexed and cost roughly 4× a peel's
    /// dense per-entry step, and a peel scans `n + 2m` entries, hence
    /// `(n + 2m) / 4`.)
    fn enforce_batch_spend(&mut self) {
        if self.tracker.is_fresh() {
            let spent = self.tracker.stats().visited - self.visited_at_commit;
            let refresh_cost = ((self.n() + 2 * self.m) as u64 / 4).max(256);
            if spent > refresh_cost {
                self.tracker.abandon();
            }
        }
    }

    /// Adds an isolated vertex with the given weight.
    pub fn add_vertex(&mut self, v: u64, weight: f64) -> Result<(), DynamicError> {
        if !weight.is_finite() {
            return Err(DynamicError::NonFiniteWeight(v, weight));
        }
        if self.contains_vertex(v) {
            return Err(DynamicError::VertexExists(v));
        }
        self.weights.insert(v, weight);
        self.adj.insert(v, Vec::new());
        self.tracker.add_vertex(v);
        self.touched.insert(v);
        self.vertex_set_dirty = true;
        self.pending += 1;
        Ok(())
    }

    /// Removes `v` and all incident edges (each maintained as a deletion).
    pub fn remove_vertex(&mut self, v: u64) -> Result<(), DynamicError> {
        if !self.contains_vertex(v) {
            return Err(DynamicError::NoSuchVertex(v));
        }
        self.enforce_batch_spend();
        if self.n() == 1 {
            return Err(DynamicError::WouldBeEmpty);
        }
        let neighbors = self.adj[&v].clone();
        for w in neighbors {
            self.unlink(v, w);
            self.tracker
                .after_delete(&self.adj, v, w, self.maintenance_budget, &mut self.touched);
            self.dirty_adj.insert(w);
        }
        self.weights.remove(&v);
        self.adj.remove(&v);
        self.tracker.remove_vertex(v);
        self.touched.insert(v);
        self.vertex_set_dirty = true;
        self.pending += 1;
        Ok(())
    }

    /// Changes the influence weight of `v`. Weights do not affect core
    /// numbers, so this stales only the snapshot's rank order, not its
    /// degeneracy.
    pub fn reweight(&mut self, v: u64, weight: f64) -> Result<(), DynamicError> {
        if !weight.is_finite() {
            return Err(DynamicError::NonFiniteWeight(v, weight));
        }
        match self.weights.get_mut(&v) {
            Some(slot) => {
                *slot = weight;
                self.pending += 1;
                Ok(())
            }
            None => Err(DynamicError::NoSuchVertex(v)),
        }
    }

    // ----- commit ------------------------------------------------------

    /// Compacts the live state into a fresh CSR snapshot and publishes it.
    /// When nothing is pending this returns the current snapshot without
    /// rebuilding. Statistics are assembled in O(n): the degeneracy comes
    /// from the tracker, never from a full peel.
    ///
    /// Compaction takes one of two routes. While the vertex set is
    /// unchanged — edge churn, reweights, or both — the previous
    /// snapshot is re-ranked ([`WeightedGraph::reranked`]): only the
    /// reweighted vertices are sorted into the old order, only the dirty
    /// adjacency lists are rebuilt, and only vertices whose rank moved
    /// get a new entry in the rank translation. That costs O(n + m) plus
    /// sorting the reweighted ranks and the lists they disorder. Only a
    /// vertex add or removal falls back to the full sort-and-relabel
    /// [`GraphBuilder`] rebuild. Both routes produce the same snapshot,
    /// bit for bit.
    pub fn commit(&mut self) -> CommitReceipt {
        let visited_delta = self.tracker.stats().visited - self.visited_at_commit;
        if self.pending == 0 {
            return CommitReceipt {
                graph: Arc::clone(&self.snapshot),
                stats: self.snapshot_stats,
                ops_applied: 0,
                cores_visited: 0,
                refreshed_cores: false,
            };
        }
        let graph = if self.vertex_set_dirty {
            let mut b = GraphBuilder::with_capacity(self.m);
            for (&v, &w) in &self.weights {
                b.set_weight(v, w);
                b.add_vertex(v);
            }
            for (&u, list) in &self.adj {
                for &v in list {
                    if u < v {
                        b.add_edge(u, v);
                    }
                }
            }
            let graph = Arc::new(b.build().expect("live dynamic state is a valid graph"));
            self.rank_of = (0..graph.n() as Rank)
                .map(|r| (graph.external_id(r), r))
                .collect();
            graph
        } else {
            let weights: Vec<f64> = (0..self.snapshot.n() as Rank)
                .map(|r| self.weights[&self.snapshot.external_id(r)])
                .collect();
            let patches: Vec<(Rank, Vec<Rank>)> = self
                .dirty_adj
                .iter()
                .map(|v| {
                    (
                        self.rank_of[v],
                        self.adj[v].iter().map(|x| self.rank_of[x]).collect(),
                    )
                })
                .collect();
            let (graph, old_rank) = self.snapshot.reranked(&weights, &patches);
            for (r, &old) in old_rank.iter().enumerate() {
                if r as Rank != old {
                    self.rank_of.insert(graph.external_id(r as Rank), r as Rank);
                }
            }
            Arc::new(graph)
        };
        // If some op went over budget, pay the one linear peel now —
        // still far cheaper than the per-op maintenance it replaced, and
        // never worse than what a from-scratch registration would pay.
        let refreshed_cores = !self.tracker.is_fresh();
        if refreshed_cores {
            let cores = core_numbers(&graph);
            self.tracker
                .seed((0..graph.n() as Rank).map(|r| (graph.external_id(r), cores[r as usize])));
        }
        let stats = Self::assemble_stats(&self.adj, self.m, self.tracker.gamma_max());
        let ops_applied = self.pending;
        self.snapshot = Arc::clone(&graph);
        self.snapshot_stats = stats;
        self.touched.clear();
        self.dirty_adj.clear();
        self.vertex_set_dirty = false;
        self.pending = 0;
        self.visited_at_commit = self.tracker.stats().visited;
        CommitReceipt {
            graph,
            stats,
            ops_applied,
            cores_visited: visited_delta,
            refreshed_cores,
        }
    }

    fn assemble_stats(adj: &Adjacency, m: usize, gamma_max: u32) -> GraphStats {
        let n = adj.len();
        let d_max = adj.values().map(|l| l.len() as u32).max().unwrap_or(0);
        let d_avg = if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        };
        GraphStats {
            n,
            m,
            d_max,
            d_avg,
            gamma_max,
        }
    }

    fn link(&mut self, u: u64, v: u64) {
        for (a, b) in [(u, v), (v, u)] {
            let list = self.adj.get_mut(&a).expect("endpoint exists");
            let pos = list.binary_search(&b).expect_err("edge absent");
            list.insert(pos, b);
        }
        self.m += 1;
    }

    fn unlink(&mut self, u: u64, v: u64) {
        for (a, b) in [(u, v), (v, u)] {
            let list = self.adj.get_mut(&a).expect("endpoint exists");
            let pos = list.binary_search(&b).expect("edge present");
            list.remove(pos);
        }
        self.m -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::generators::{assemble, gnm, WeightKind};
    use ic_graph::paper::figure3;
    use ic_graph::stats::graph_stats;

    fn paper_dynamic() -> DynamicGraph {
        DynamicGraph::new(figure3())
    }

    /// Rebuilds the live state from scratch and checks the maintained
    /// cores, degeneracy, and committed stats against the static pipeline.
    fn assert_consistent(dg: &mut DynamicGraph, context: &str) {
        let receipt = dg.commit();
        receipt
            .graph
            .validate()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        let full = graph_stats(&receipt.graph);
        assert_eq!(receipt.stats, full, "{context}: stats");
        let cores = core_numbers(&receipt.graph);
        for r in 0..receipt.graph.n() as u32 {
            let v = receipt.graph.external_id(r);
            assert_eq!(
                dg.core_of(v),
                Some(cores[r as usize]),
                "{context}: core of {v}"
            );
        }
    }

    #[test]
    fn wrap_commit_is_identity() {
        let g = figure3();
        let (n, m) = (g.n(), g.m());
        let mut dg = DynamicGraph::new(g);
        assert_eq!(dg.n(), n);
        assert_eq!(dg.m(), m);
        assert_eq!(dg.pending_updates(), 0);
        assert_eq!(dg.stale_core_fraction(), 0.0);
        let before = dg.snapshot();
        let receipt = dg.commit();
        assert!(Arc::ptr_eq(&before, &receipt.graph), "no-op commit");
        assert_eq!(receipt.ops_applied, 0);
    }

    #[test]
    fn snapshot_is_isolated_from_updates_until_commit() {
        let mut dg = paper_dynamic();
        let before = dg.snapshot();
        dg.delete_edge(3, 11).unwrap();
        assert!(Arc::ptr_eq(&before, &dg.snapshot()), "snapshot unchanged");
        assert!(dg.stale_core_fraction() > 0.0);
        assert_eq!(dg.pending_updates(), 1);
        let receipt = dg.commit();
        assert!(!Arc::ptr_eq(&before, &receipt.graph));
        assert_eq!(receipt.graph.m(), before.m() - 1);
        assert_eq!(dg.stale_core_fraction(), 0.0);
    }

    #[test]
    fn edit_stream_matches_static_pipeline() {
        let mut dg = paper_dynamic();
        dg.delete_edge(3, 11).unwrap();
        dg.insert_edge(9, 16).unwrap();
        dg.add_vertex(100, 21.5).unwrap();
        dg.insert_edge(100, 3).unwrap();
        dg.insert_edge(100, 12).unwrap();
        dg.reweight(20, 1.0).unwrap();
        assert_consistent(&mut dg, "paper edits");
        dg.remove_vertex(100).unwrap();
        dg.remove_vertex(11).unwrap();
        assert_consistent(&mut dg, "paper removals");
    }

    #[test]
    fn random_stream_matches_static_pipeline() {
        let n = 80usize;
        let g = assemble(n, &gnm(n, 240, 7), WeightKind::Uniform(70));
        let mut dg = DynamicGraph::new(g);
        let mut state = 0x0dd_c0ffeeu64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            state >> 33
        };
        let mut applied = 0;
        while applied < 120 {
            let u = next() % n as u64;
            let v = next() % n as u64;
            if u == v {
                continue;
            }
            let ok = if dg.has_edge(u, v) && next() % 2 == 0 {
                dg.delete_edge(u, v).is_ok()
            } else if !dg.has_edge(u, v) {
                dg.insert_edge(u, v).is_ok()
            } else {
                false
            };
            if ok {
                applied += 1;
                if applied % 40 == 0 {
                    assert_consistent(&mut dg, &format!("after {applied} ops"));
                }
            }
        }
        assert_consistent(&mut dg, "final");
        let s = dg.maintenance_stats();
        assert!(s.visited > 0);
    }

    #[test]
    fn rejected_updates_leave_state_unchanged() {
        let mut dg = paper_dynamic();
        let (n, m) = (dg.n(), dg.m());
        assert_eq!(dg.insert_edge(3, 3), Err(DynamicError::SelfLoop(3)));
        assert_eq!(dg.insert_edge(3, 999), Err(DynamicError::NoSuchVertex(999)));
        assert_eq!(dg.insert_edge(3, 11), Err(DynamicError::EdgeExists(3, 11)));
        assert_eq!(dg.delete_edge(0, 9), Err(DynamicError::NoSuchEdge(0, 9)));
        assert_eq!(dg.add_vertex(3, 1.0), Err(DynamicError::VertexExists(3)));
        assert!(matches!(
            dg.add_vertex(500, f64::NAN),
            Err(DynamicError::NonFiniteWeight(500, _))
        ));
        assert_eq!(dg.remove_vertex(999), Err(DynamicError::NoSuchVertex(999)));
        assert_eq!(dg.reweight(999, 1.0), Err(DynamicError::NoSuchVertex(999)));
        assert_eq!((dg.n(), dg.m()), (n, m));
        assert_eq!(dg.pending_updates(), 0);
        assert_eq!(dg.stale_core_fraction(), 0.0);
    }

    #[test]
    fn last_vertex_cannot_be_removed() {
        let mut b = GraphBuilder::new();
        b.set_weight(1, 1.0);
        b.add_vertex(1);
        let mut dg = DynamicGraph::new(b.build().unwrap());
        assert_eq!(dg.remove_vertex(1), Err(DynamicError::WouldBeEmpty));
    }

    #[test]
    fn apply_creates_endpoints_with_default_weight() {
        let mut dg = paper_dynamic();
        dg.apply(UpdateOp::InsertEdge {
            u: 300,
            v: 301,
            default_weight: Some(5.5),
        })
        .unwrap();
        assert_eq!(dg.weight_of(300), Some(5.5));
        assert!(dg.has_edge(300, 301));
        // without a default, missing endpoints are an error
        assert_eq!(
            dg.apply(UpdateOp::InsertEdge {
                u: 300,
                v: 999,
                default_weight: None,
            }),
            Err(DynamicError::NoSuchVertex(999))
        );
        assert_consistent(&mut dg, "default-weight endpoints");
    }

    #[test]
    fn influence_bound_dominates_true_top_influence() {
        let n = 120usize;
        let g = assemble(n, &gnm(n, 480, 3), WeightKind::Uniform(33));
        let mut dg = DynamicGraph::new(g);
        for gamma in 1..=4u32 {
            let bound = dg.influence_upper_bound(gamma);
            dg.commit();
            let top = dg
                .query(&ic_core::TopKQuery::new(gamma))
                .unwrap()
                .communities
                .first()
                .map(|c| c.influence);
            match (bound, top) {
                (Some(b), Some(t)) => assert!(b >= t, "γ={gamma}: bound {b} < top {t}"),
                (None, Some(t)) => panic!("γ={gamma}: bound absent but community {t} exists"),
                _ => {}
            }
        }
        assert_eq!(dg.influence_upper_bound(0), None);
        let gm = dg.gamma_max();
        assert_eq!(dg.influence_upper_bound(gm + 1), None);
    }

    #[test]
    fn stale_fraction_grows_and_clamps() {
        let mut dg = paper_dynamic();
        let f0 = dg.stale_core_fraction();
        dg.delete_edge(3, 11).unwrap();
        let f1 = dg.stale_core_fraction();
        assert!(f0 == 0.0 && f1 > 0.0);
        // touch everything: fraction saturates at 1.0
        let snapshot = dg.snapshot();
        for r in 0..snapshot.n() as u32 {
            let v = snapshot.external_id(r);
            for s in 0..snapshot.n() as u32 {
                let w = snapshot.external_id(s);
                if v < w && !dg.has_edge(v, w) {
                    dg.insert_edge(v, w).unwrap();
                }
            }
        }
        assert!(dg.stale_core_fraction() <= 1.0);
        assert!(dg.stale_core_fraction() > 0.9);
        assert_consistent(&mut dg, "densified");
    }

    #[test]
    fn over_budget_burst_goes_stale_and_commit_refreshes_exactly() {
        let n = 96usize;
        let g = assemble(n, &gnm(n, 480, 11), WeightKind::Uniform(44));
        // a budget of 1 makes nearly every structural op abandon
        let mut dg = DynamicGraph::new(g.clone()).with_maintenance_budget(1);
        let mut changed = false;
        for v in 0..n as u64 {
            for w in (v + 1)..(v + 4).min(n as u64) {
                if dg.has_edge(v, w) {
                    dg.delete_edge(v, w).unwrap();
                } else {
                    dg.insert_edge(v, w).unwrap();
                }
                changed = true;
            }
        }
        assert!(changed);
        assert!(!dg.cores_fresh(), "budget 1 must abandon maintenance");
        assert_eq!(dg.stale_core_fraction(), 1.0);
        assert!(dg.maintenance_stats().abandoned > 0);

        // the influence bound stays sound while stale (loose is fine)
        if let Some(bound) = dg.influence_upper_bound(3) {
            let snapshot_now = {
                let mut clone = dg.clone();
                clone.commit().graph
            };
            if let Some(top) = ic_core::TopKQuery::new(3)
                .run(&snapshot_now)
                .unwrap()
                .communities
                .first()
            {
                assert!(bound >= top.influence);
            }
        }

        // commit refreshes: exact stats, fresh tracker, and the receipt
        // says so
        let receipt = dg.commit();
        assert!(receipt.refreshed_cores);
        assert!(dg.cores_fresh());
        assert_eq!(dg.stale_core_fraction(), 0.0);
        assert_eq!(receipt.stats, graph_stats(&receipt.graph));
        assert_consistent(&mut dg, "post-refresh");
    }

    #[test]
    fn commit_receipt_reports_incremental_work() {
        let mut dg = paper_dynamic();
        dg.delete_edge(3, 11).unwrap();
        dg.insert_edge(3, 11).unwrap();
        let receipt = dg.commit();
        assert_eq!(receipt.ops_applied, 2);
        assert!(receipt.cores_visited > 0);
        assert!(receipt.cores_visited <= 2 * receipt.stats.n as u64);
    }
}
