//! [`DynamicGraph`]: a mutable overlay over the immutable CSR substrate.
//!
//! Every algorithm in this workspace runs against the weight-sorted,
//! immutable [`WeightedGraph`] — and must keep doing so, because its rank
//! space and `N≥`/`N<` partition are what make LocalSearch instance
//! optimal. `DynamicGraph` therefore separates *mutation* from *query*:
//!
//! * Updates (edge insert/delete, vertex add/remove, reweight) apply
//!   immediately to a mutable adjacency/weight state in external-id
//!   space; nothing else is maintained per op.
//! * Queries keep running against the last committed snapshot;
//!   [`DynamicGraph::commit`] compacts the mutable state into a fresh
//!   CSR [`WeightedGraph`] — re-ranking the previous snapshot, rewriting
//!   only dirty adjacency lists, whenever the vertex set is unchanged;
//!   only vertex adds and removals rebuild from scratch —
//!   and returns it with registration-grade [`GraphStats`]. A commit
//!   that changed the structure pays one linear core peel for them; a
//!   reweight-only commit keeps the previous statistics, since weights
//!   move neither degrees nor cores.

use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use ic_graph::stats::graph_stats;
use ic_graph::{GraphBuilder, GraphStats, Rank, WeightedGraph};

/// SplitMix64-finalizer hasher for the crate's `u64` vertex ids. The
/// default SipHash costs more than the work it guards in the per-vertex
/// commit loops; vertex ids are internal (not attacker-chosen keys for a
/// long-lived table), so a strong mix without keyed DoS resistance is
/// the right trade.
#[derive(Debug, Default, Clone, Copy)]
struct VertexHasher(u64);

impl Hasher for VertexHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        // generic fallback (FNV-1a); the u64 fast path below is the one
        // vertex maps actually hit
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn write_u64(&mut self, v: u64) {
        let mut z = v.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        self.0 = z ^ (z >> 31);
    }
}

/// A `u64`-keyed map using the fast vertex hasher.
type VertexMap<V> = HashMap<u64, V, BuildHasherDefault<VertexHasher>>;
/// A `u64` set using the fast vertex hasher.
type VertexSet = HashSet<u64, BuildHasherDefault<VertexHasher>>;
/// External id → sorted neighbor list.
type Adjacency = VertexMap<Vec<u64>>;

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
    /// Registration-grade statistics: one core peel of `graph` when the
    /// structure changed, the previous snapshot's statistics otherwise.
    pub stats: GraphStats,
    /// Updates folded into this snapshot (0 for a no-op commit).
    pub ops_applied: u64,
    /// Adjacency entries the commit's core peel scanned: `n + 2m` of the
    /// new snapshot, or 0 when no peel ran.
    pub cores_visited: u64,
}

/// A mutable vertex-weighted graph with snapshot-on-commit query
/// semantics. See the module docs.
#[derive(Debug, Clone)]
pub struct DynamicGraph {
    /// Influence weight per vertex.
    weights: VertexMap<f64>,
    /// Sorted neighbor lists per vertex.
    adj: Adjacency,
    /// Undirected edge count.
    m: usize,
    /// Last committed CSR snapshot.
    snapshot: Arc<WeightedGraph>,
    /// Statistics of `snapshot` as of its commit.
    snapshot_stats: GraphStats,
    /// External id → rank in `snapshot` (the re-rank path's translation).
    rank_of: VertexMap<Rank>,
    /// Vertices whose adjacency changed since the last commit (the only
    /// lists the re-rank commit must rewrite).
    dirty_adj: VertexSet,
    /// True when a vertex was added or removed since the last commit,
    /// forcing the full sort-and-relabel rebuild instead of the re-rank.
    vertex_set_dirty: bool,
    /// Updates accepted since the last commit.
    pending: u64,
}

impl DynamicGraph {
    /// Wraps an existing immutable graph. Pays one full core peel for the
    /// snapshot's statistics.
    pub fn new(graph: WeightedGraph) -> Self {
        Self::from_arc(Arc::new(graph))
    }

    /// Like [`DynamicGraph::new`] for an already-shared graph.
    pub fn from_arc(snapshot: Arc<WeightedGraph>) -> Self {
        let n = snapshot.n();
        let mut weights = VertexMap::with_capacity_and_hasher(n, Default::default());
        let mut adj = Adjacency::with_capacity_and_hasher(n, Default::default());
        let mut rank_of = VertexMap::with_capacity_and_hasher(n, Default::default());
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
        DynamicGraph {
            weights,
            adj,
            m: snapshot.m(),
            snapshot_stats: graph_stats(&snapshot),
            snapshot,
            rank_of,
            dirty_adj: VertexSet::default(),
            vertex_set_dirty: false,
            pending: 0,
        }
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

    /// Updates accepted since the last commit.
    pub fn pending_updates(&self) -> u64 {
        self.pending
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

    /// Fraction of the published snapshot's vertices whose adjacency the
    /// pending (uncommitted) updates changed, clamped to 1 — the share of
    /// its core numbers the next commit may move. A pending vertex add or
    /// removal reports 1.0 outright.
    pub fn stale_core_fraction(&self) -> f64 {
        if self.vertex_set_dirty {
            return 1.0;
        }
        if self.dirty_adj.is_empty() {
            return 0.0;
        }
        (self.dirty_adj.len() as f64 / self.snapshot.n() as f64).min(1.0)
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
        self.dirty_adj.insert(u);
        self.dirty_adj.insert(v);
        self.pending += 1;
        Ok(())
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
        self.vertex_set_dirty = true;
        self.pending += 1;
        Ok(())
    }

    /// Removes `v` and all incident edges.
    pub fn remove_vertex(&mut self, v: u64) -> Result<(), DynamicError> {
        if !self.contains_vertex(v) {
            return Err(DynamicError::NoSuchVertex(v));
        }
        if self.n() == 1 {
            return Err(DynamicError::WouldBeEmpty);
        }
        let neighbors = self.adj[&v].clone();
        for w in neighbors {
            self.unlink(v, w);
            self.dirty_adj.insert(w);
        }
        self.weights.remove(&v);
        self.adj.remove(&v);
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
    /// rebuilding. When some pending op changed an adjacency list or the
    /// vertex set, the statistics come from one linear core peel of the
    /// new snapshot; a window of reweights alone keeps the previous
    /// statistics, which weights cannot change.
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
        if self.pending == 0 {
            return CommitReceipt {
                graph: Arc::clone(&self.snapshot),
                stats: self.snapshot_stats,
                ops_applied: 0,
                cores_visited: 0,
            };
        }
        let structural = self.vertex_set_dirty || !self.dirty_adj.is_empty();
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
        let (stats, cores_visited) = if structural {
            (graph_stats(&graph), (graph.n() + 2 * graph.m()) as u64)
        } else {
            (self.snapshot_stats, 0)
        };
        let ops_applied = self.pending;
        self.snapshot = Arc::clone(&graph);
        self.snapshot_stats = stats;
        self.dirty_adj.clear();
        self.vertex_set_dirty = false;
        self.pending = 0;
        CommitReceipt {
            graph,
            stats,
            ops_applied,
            cores_visited,
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

    fn paper_dynamic() -> DynamicGraph {
        DynamicGraph::new(figure3())
    }

    /// Commits and checks the snapshot and its stats against the static
    /// pipeline; returns the receipt for window-specific checks.
    fn assert_consistent(dg: &mut DynamicGraph, context: &str) -> CommitReceipt {
        let receipt = dg.commit();
        receipt
            .graph
            .validate()
            .unwrap_or_else(|e| panic!("{context}: {e}"));
        let full = graph_stats(&receipt.graph);
        assert_eq!(receipt.stats, full, "{context}: stats");
        receipt
    }

    /// The entries one core peel of `g` scans.
    fn peel_entries(g: &WeightedGraph) -> u64 {
        (g.n() + 2 * g.m()) as u64
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
        let receipt = assert_consistent(&mut dg, "paper edits");
        assert_eq!(receipt.ops_applied, 6);
        assert_eq!(receipt.cores_visited, peel_entries(&receipt.graph));

        // reweights alone move neither degrees nor cores: no peel
        dg.reweight(3, 40.0).unwrap();
        dg.reweight(100, 0.5).unwrap();
        let receipt = assert_consistent(&mut dg, "paper reweights");
        assert_eq!(receipt.ops_applied, 2);
        assert_eq!(receipt.cores_visited, 0);

        dg.remove_vertex(100).unwrap();
        dg.remove_vertex(11).unwrap();
        let receipt = assert_consistent(&mut dg, "paper removals");
        assert_eq!(receipt.cores_visited, peel_entries(&receipt.graph));
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
        // a vertex add changes the vertex set: everything is suspect
        dg.add_vertex(500, 1.0).unwrap();
        assert_eq!(dg.stale_core_fraction(), 1.0);
    }
}
