//! The weight-sorted CSR graph representation (Section 3.1 of the paper).
//!
//! The paper's local search framework requires two pieces of pre-organized
//! state, and *only* these (no community index is ever built):
//!
//! 1. vertices sorted in decreasing weight order, and
//! 2. each vertex's neighbor list partitioned into `N≥(u)` (neighbors with
//!    weight at least `ω(u)`) and `N<(u)` (the rest),
//!
//! so that any prefix subgraph `G≥τ` can be extracted in time linear to its
//! own size. We realize both by re-labelling vertices with their **rank**
//! (position in the decreasing-weight order) and storing each adjacency
//! list sorted ascending by rank: the `N≥` partition is then simply the
//! list prefix of ranks smaller than the vertex's own, and the neighbors
//! inside any rank prefix `0..t` are the list prefix of ranks `< t`.

use std::cmp::Ordering;

/// A vertex identifier in *rank space*: `0` is the highest-weight vertex.
pub type Rank = u32;

/// The rank order on `(weight, external id)` pairs: weight descending,
/// then external id ascending. The id tie-break realizes the paper's
/// distinct-weight assumption deterministically. Weights must be finite.
pub(crate) fn rank_order(a: (f64, u64), b: (f64, u64)) -> Ordering {
    b.0.partial_cmp(&a.0)
        .expect("weights are finite")
        .then(a.1.cmp(&b.1))
}

/// Immutable vertex-weighted undirected graph in CSR form.
///
/// Construct via [`crate::GraphBuilder`]. All algorithm crates operate on
/// ranks; [`WeightedGraph::external_id`] maps back to the caller's ids.
#[derive(Debug, Clone)]
pub struct WeightedGraph {
    /// CSR offsets; `offsets[r]..offsets[r+1]` is the adjacency of rank `r`.
    pub(crate) offsets: Vec<usize>,
    /// Concatenated adjacency lists, each sorted ascending by rank.
    pub(crate) adj: Vec<Rank>,
    /// Length of the `N≥` prefix of each adjacency list (number of
    /// neighbors with strictly smaller rank, i.e. higher effective weight).
    pub(crate) higher_len: Vec<u32>,
    /// Weight of each rank; non-increasing in `r` (strictly decreasing up
    /// to deterministic tie-breaking by external id).
    pub(crate) weights: Vec<f64>,
    /// External (input) id of each rank.
    pub(crate) ext_ids: Vec<u64>,
    /// Number of undirected edges.
    pub(crate) m: usize,
}

impl WeightedGraph {
    /// Number of vertices.
    #[inline]
    pub fn n(&self) -> usize {
        self.weights.len()
    }

    /// Number of undirected edges.
    #[inline]
    pub fn m(&self) -> usize {
        self.m
    }

    /// `size(G) = |V| + |E|`, the size measure used throughout the paper.
    #[inline]
    pub fn size(&self) -> u64 {
        self.n() as u64 + self.m as u64
    }

    /// Weight (influence) of the vertex with rank `r`.
    #[inline]
    pub fn weight(&self, r: Rank) -> f64 {
        self.weights[r as usize]
    }

    /// External id of the vertex with rank `r`.
    #[inline]
    pub fn external_id(&self, r: Rank) -> u64 {
        self.ext_ids[r as usize]
    }

    /// Rank of the vertex with the given external id, if present.
    ///
    /// This is a linear scan and intended for tests and examples; hot paths
    /// should work in rank space.
    pub fn rank_of_external(&self, ext: u64) -> Option<Rank> {
        self.ext_ids
            .iter()
            .position(|&e| e == ext)
            .map(|p| p as Rank)
    }

    /// Full adjacency list of `r`, sorted ascending by rank.
    #[inline]
    pub fn neighbors(&self, r: Rank) -> &[Rank] {
        &self.adj[self.offsets[r as usize]..self.offsets[r as usize + 1]]
    }

    /// Degree of `r` in the full graph.
    #[inline]
    pub fn degree(&self, r: Rank) -> u32 {
        (self.offsets[r as usize + 1] - self.offsets[r as usize]) as u32
    }

    /// `N≥(r)`: neighbors with higher effective weight (smaller rank).
    #[inline]
    pub fn higher_neighbors(&self, r: Rank) -> &[Rank] {
        let start = self.offsets[r as usize];
        &self.adj[start..start + self.higher_len[r as usize] as usize]
    }

    /// `N<(r)`: neighbors with lower effective weight (larger rank).
    #[inline]
    pub fn lower_neighbors(&self, r: Rank) -> &[Rank] {
        let start = self.offsets[r as usize] + self.higher_len[r as usize] as usize;
        &self.adj[start..self.offsets[r as usize + 1]]
    }

    /// Number of higher-weight neighbors of `r`; the marginal edge count a
    /// prefix gains when `r` joins it.
    #[inline]
    pub fn higher_degree(&self, r: Rank) -> u32 {
        self.higher_len[r as usize]
    }

    /// Neighbors of `r` that fall inside the rank prefix `0..t`, as a
    /// slice (the adjacency list is sorted, so this is its prefix).
    #[inline]
    pub fn neighbors_in_prefix(&self, r: Rank, t: usize) -> &[Rank] {
        let list = self.neighbors(r);
        let end = list.partition_point(|&x| (x as usize) < t);
        &list[..end]
    }

    /// Degree of `r` inside the rank prefix `0..t`.
    #[inline]
    pub fn degree_in_prefix(&self, r: Rank, t: usize) -> u32 {
        self.neighbors_in_prefix(r, t).len() as u32
    }

    /// True if `{a, b}` is an edge (binary search on the sorted list of the
    /// lower-degree endpoint).
    pub fn has_edge(&self, a: Rank, b: Rank) -> bool {
        let (s, t) = if self.degree(a) <= self.degree(b) {
            (a, b)
        } else {
            (b, a)
        };
        self.neighbors(s).binary_search(&t).is_ok()
    }

    /// All edges as `(lower_rank, higher_rank)` pairs, each reported once.
    pub fn edges(&self) -> impl Iterator<Item = (Rank, Rank)> + '_ {
        (0..self.n() as Rank)
            .flat_map(move |r| self.higher_neighbors(r).iter().map(move |&h| (h, r)))
    }

    /// Largest `t` such that every vertex of rank `< t` has weight `≥ τ`.
    /// Since weights are non-increasing in rank this is a partition point.
    pub fn prefix_len_for_threshold(&self, tau: f64) -> usize {
        self.weights.partition_point(|&w| w >= tau)
    }

    /// Smallest vertex weight (the weight of the last rank), `τ_min`.
    pub fn min_weight(&self) -> f64 {
        *self.weights.last().expect("graph must be non-empty")
    }

    /// Largest vertex weight, `τ_max`.
    pub fn max_weight(&self) -> f64 {
        *self.weights.first().expect("graph must be non-empty")
    }

    /// Re-ranks the same vertex set under new weights, replacing the
    /// adjacency lists named in `patches` on the way. It reuses the old
    /// order in place of a [`crate::GraphBuilder`] rebuild's edge hashing
    /// and sorting, and is bit-identical to that rebuild (ranks, weights,
    /// lists, `N≥` lengths).
    ///
    /// `weights[r]` is the new weight of old rank `r`. A patch
    /// `(r, list)` replaces the adjacency of old rank `r` with `list`,
    /// whose entries are old ranks in any order, free of self loops and
    /// duplicates; the patch set must keep the edge relation symmetric
    /// (an edge change patches both endpoints). Violations are caught by
    /// a debug assertion.
    ///
    /// Ranks whose weight is unchanged are still in rank order, so only
    /// the reweighted ranks are sorted (weight descending, then external
    /// id ascending, as the builder ranks) and merged into the rest in
    /// one pass. Each list is then mapped through the old-to-new rank
    /// array and re-sorted only if a moved vertex broke its order. The
    /// cost is O(n + m) plus sorting the `k` reweighted ranks
    /// (O(k log k)) and the lists they disorder. When every weight
    /// changes, as for a query-dependent weight vector, that is
    /// O(n log n + m log d) at worst, `d` the largest degree.
    ///
    /// Returns the new graph and, for each new rank, its old rank.
    ///
    /// # Panics
    ///
    /// If `weights.len() != self.n()`, a reweighted weight is not finite,
    /// or a patch names a rank out of range.
    pub fn reranked(
        &self,
        weights: &[f64],
        patches: &[(Rank, Vec<Rank>)],
    ) -> (WeightedGraph, Vec<Rank>) {
        let n = self.n();
        assert_eq!(weights.len(), n, "one weight per rank");
        let key = |r: Rank| (weights[r as usize], self.ext_ids[r as usize]);
        let changed = |r: Rank| weights[r as usize].to_bits() != self.weights[r as usize].to_bits();
        let mut moved: Vec<Rank> = (0..n as Rank).filter(|&r| changed(r)).collect();
        assert!(
            moved.iter().all(|&r| weights[r as usize].is_finite()),
            "weights are finite"
        );
        moved.sort_unstable_by(|&a, &b| rank_order(key(a), key(b)));
        let mut new_to_old: Vec<Rank> = Vec::with_capacity(n);
        let mut moved = moved.into_iter().peekable();
        for r in (0..n as Rank).filter(|&r| !changed(r)) {
            while let Some(m) = moved.next_if(|&m| rank_order(key(m), key(r)).is_lt()) {
                new_to_old.push(m);
            }
            new_to_old.push(r);
        }
        new_to_old.extend(moved);
        let mut old_to_new: Vec<Rank> = vec![0; n];
        for (new, &old) in new_to_old.iter().enumerate() {
            old_to_new[old as usize] = new as Rank;
        }

        let mut patch_of: Vec<Option<&[Rank]>> = vec![None; n];
        for (r, list) in patches {
            patch_of[*r as usize] = Some(list.as_slice());
        }
        let list_of = |old: Rank| patch_of[old as usize].unwrap_or_else(|| self.neighbors(old));
        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0usize);
        let mut acc = 0usize;
        for &old in &new_to_old {
            acc += list_of(old).len();
            offsets.push(acc);
        }
        let mut adj = Vec::with_capacity(acc);
        let mut higher_len = Vec::with_capacity(n);
        for (new, &old) in new_to_old.iter().enumerate() {
            let start = adj.len();
            adj.extend(list_of(old).iter().map(|&x| old_to_new[x as usize]));
            let list = &mut adj[start..];
            if !list.is_sorted() {
                list.sort_unstable();
            }
            higher_len.push(list.partition_point(|&x| (x as usize) < new) as u32);
        }
        debug_assert_eq!(acc % 2, 0, "patched edge relation must stay symmetric");
        let g = WeightedGraph {
            offsets,
            adj,
            higher_len,
            weights: new_to_old.iter().map(|&r| weights[r as usize]).collect(),
            ext_ids: new_to_old
                .iter()
                .map(|&r| self.ext_ids[r as usize])
                .collect(),
            m: acc / 2,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        (g, new_to_old)
    }

    /// Internal consistency check used by tests and debug assertions:
    /// offsets monotone, lists sorted and symmetric, weights non-increasing.
    pub fn validate(&self) -> Result<(), String> {
        let n = self.n();
        if self.offsets.len() != n + 1 {
            return Err("offset array length mismatch".into());
        }
        if self.offsets[n] != self.adj.len() || self.adj.len() != 2 * self.m {
            return Err("edge count mismatch".into());
        }
        for r in 0..n {
            let list = self.neighbors(r as Rank);
            if !list.windows(2).all(|w| w[0] < w[1]) {
                return Err(format!("adjacency of rank {r} not strictly sorted"));
            }
            if list.iter().any(|&x| x as usize == r) {
                return Err(format!("self loop at rank {r}"));
            }
            let hl = self.higher_len[r] as usize;
            if list[..hl].iter().any(|&x| x as usize >= r)
                || list[hl..].iter().any(|&x| (x as usize) <= r)
            {
                return Err(format!("higher/lower partition wrong at rank {r}"));
            }
            for &nb in list {
                if self.neighbors(nb).binary_search(&(r as Rank)).is_err() {
                    return Err(format!("edge ({r},{nb}) not symmetric"));
                }
            }
            if r + 1 < n && self.weights[r] < self.weights[r + 1] {
                return Err("weights not sorted decreasing".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::paper::figure1;
    use crate::GraphBuilder;

    #[test]
    fn figure1_shape() {
        let g = figure1();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 17);
        assert_eq!(g.size(), 27);
        g.validate().unwrap();
    }

    #[test]
    fn rank_order_is_decreasing_weight() {
        let g = figure1();
        // v9 has the largest weight 19 -> rank 0
        assert_eq!(g.external_id(0), 9);
        assert_eq!(g.weight(0), 19.0);
        // v0 has the smallest weight 10 -> last rank
        assert_eq!(g.external_id(9), 0);
        assert_eq!(g.weight(9), 10.0);
        for r in 0..9 {
            assert!(g.weight(r) > g.weight(r + 1));
        }
    }

    #[test]
    fn neighbor_partition() {
        let g = figure1();
        for r in 0..g.n() as u32 {
            let hd = g.higher_degree(r);
            assert_eq!(hd as usize, g.higher_neighbors(r).len());
            assert!(g.higher_neighbors(r).iter().all(|&x| x < r));
            assert!(g.lower_neighbors(r).iter().all(|&x| x > r));
            assert_eq!(
                g.higher_neighbors(r).len() + g.lower_neighbors(r).len(),
                g.degree(r) as usize
            );
        }
    }

    #[test]
    fn prefix_views() {
        let g = figure1();
        // prefix of size 0 and 1 have no edges
        assert_eq!(g.neighbors_in_prefix(0, 1), &[] as &[u32]);
        // full prefix equals full adjacency
        for r in 0..g.n() as u32 {
            assert_eq!(g.neighbors_in_prefix(r, g.n()), g.neighbors(r));
        }
        // degrees inside a mid prefix only count prefix members
        let t = 5;
        for r in 0..t as u32 {
            let d = g.degree_in_prefix(r, t);
            let manual = g.neighbors(r).iter().filter(|&&x| (x as usize) < t).count();
            assert_eq!(d as usize, manual);
        }
    }

    #[test]
    fn has_edge_and_edges_iterator() {
        let g = figure1();
        let r3 = g.rank_of_external(3).unwrap();
        let r9 = g.rank_of_external(9).unwrap();
        let r0 = g.rank_of_external(0).unwrap();
        assert!(g.has_edge(r3, r9));
        assert!(!g.has_edge(r0, r9));
        let all: Vec<_> = g.edges().collect();
        assert_eq!(all.len(), g.m());
        for (a, b) in all {
            assert!(a < b, "edges() must emit (higher weight, lower weight)");
            assert!(g.has_edge(a, b));
        }
    }

    /// The builder's graph over `g`'s vertex set under `weights` (indexed
    /// by old rank), with the patched lists (old ranks) in place.
    fn rebuilt(g: &WeightedGraph, weights: &[f64], patches: &[(Rank, Vec<Rank>)]) -> WeightedGraph {
        let mut lists: Vec<Vec<Rank>> = (0..g.n() as Rank)
            .map(|r| g.neighbors(r).to_vec())
            .collect();
        for (r, list) in patches {
            lists[*r as usize] = list.clone();
        }
        let mut b = GraphBuilder::new();
        for (r, list) in lists.iter().enumerate() {
            let v = g.external_id(r as Rank);
            b.set_weight(v, weights[r]);
            b.add_vertex(v);
            for &x in list {
                b.add_edge(v, g.external_id(x));
            }
        }
        b.build().unwrap()
    }

    /// Re-ranks `g` and checks the result field by field against the
    /// builder, and the returned permutation against the external ids.
    fn assert_reranks_like_rebuild(
        g: &WeightedGraph,
        weights: &[f64],
        patches: &[(Rank, Vec<Rank>)],
    ) -> WeightedGraph {
        let (got, to_old) = g.reranked(weights, patches);
        let want = rebuilt(g, weights, patches);
        got.validate().unwrap();
        assert_eq!(got.ext_ids, want.ext_ids, "rank order");
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&got.weights), bits(&want.weights), "weights");
        assert_eq!(got.offsets, want.offsets, "offsets");
        assert_eq!(got.adj, want.adj, "adjacency");
        assert_eq!(got.higher_len, want.higher_len, "N≥ lengths");
        assert_eq!(got.m, want.m, "edge count");
        assert_eq!(to_old.len(), g.n());
        for (new, &old) in to_old.iter().enumerate() {
            assert_eq!(got.external_id(new as Rank), g.external_id(old));
        }
        got
    }

    /// Figure 1's weights (rank `r` weighs `19 - r`) with `changes`
    /// applied, indexed by old rank.
    fn figure1_weights(changes: &[(Rank, f64)]) -> Vec<f64> {
        let g = figure1();
        let mut w: Vec<f64> = (0..g.n() as Rank).map(|r| g.weight(r)).collect();
        for &(r, x) in changes {
            w[r as usize] = x;
        }
        w
    }

    #[test]
    fn rerank_with_unchanged_weights_copies_and_patches() {
        let g = figure1();
        let same = figure1_weights(&[]);
        let copy = assert_reranks_like_rebuild(&g, &same, &[]);
        assert_eq!(copy.adj, g.adj);
        assert_eq!(copy.higher_len, g.higher_len);
        // remove edge (0, 1) and add edge (0, 9), in rank space; the
        // patch of rank 9 comes unsorted
        let without = |r: Rank, x: Rank| -> Vec<Rank> {
            g.neighbors(r).iter().copied().filter(|&y| y != x).collect()
        };
        let patches = vec![
            (0, [without(0, 1), vec![9]].concat()),
            (1, without(1, 0)),
            (9, [g.neighbors(9), &[0]].concat()),
        ];
        let patched = assert_reranks_like_rebuild(&g, &same, &patches);
        assert_eq!(patched.m(), g.m());
        assert!(!patched.has_edge(0, 1));
        assert!(patched.has_edge(0, 9));
    }

    #[test]
    fn rerank_moves_one_vertex_like_a_rebuild() {
        let g = figure1();
        for (r, w, lands) in [
            (7, 17.5, 2),  // up, past five ranks
            (1, 11.5, 7),  // down, past six ranks
            (9, 100.0, 0), // to the top
            (0, 1.0, 9),   // to the bottom
        ] {
            let re = assert_reranks_like_rebuild(&g, &figure1_weights(&[(r, w)]), &[]);
            assert_eq!(re.external_id(lands), g.external_id(r), "rank {r} -> {w}");
        }
    }

    #[test]
    fn rerank_breaks_exact_ties_by_external_id() {
        let g = figure1();
        // v3 (rank 6) takes v7's weight 17 and, with the smaller id, goes
        // first; v8 (rank 1) takes v5's weight 15 and goes after it
        let re = assert_reranks_like_rebuild(&g, &figure1_weights(&[(6, 17.0), (1, 15.0)]), &[]);
        let ids: Vec<u64> = (0..g.n() as Rank).map(|r| re.external_id(r)).collect();
        assert_eq!(ids, vec![9, 3, 7, 6, 5, 8, 4, 2, 1, 0]);
    }

    #[test]
    fn rerank_moves_every_rank_like_a_rebuild() {
        let g = figure1();
        // reversed order
        let reversed: Vec<f64> = (0..g.n()).map(|r| r as f64).collect();
        let re = assert_reranks_like_rebuild(&g, &reversed, &[]);
        assert_eq!(re.external_id(0), g.external_id(9));
        // closest-community shape: weights 1 / (1 + d) over a few
        // distance layers, so whole layers tie and external ids order them
        let closest: Vec<f64> = (0..g.n()).map(|r| 1.0 / (1.0 + (r % 3) as f64)).collect();
        assert_reranks_like_rebuild(&g, &closest, &[]);
        // a re-rank and an edge patch in one pass
        let patches = vec![
            (0, [g.neighbors(0), &[9]].concat()),
            (9, [g.neighbors(9), &[0]].concat()),
        ];
        let re = assert_reranks_like_rebuild(&g, &closest, &patches);
        assert_eq!(re.m(), g.m() + 1);
    }

    #[test]
    fn threshold_prefix_lengths() {
        let g = figure1();
        assert_eq!(g.prefix_len_for_threshold(19.5), 0);
        assert_eq!(g.prefix_len_for_threshold(19.0), 1);
        assert_eq!(g.prefix_len_for_threshold(15.0), 5);
        assert_eq!(g.prefix_len_for_threshold(10.0), 10);
        assert_eq!(g.prefix_len_for_threshold(0.0), 10);
        assert_eq!(g.min_weight(), 10.0);
        assert_eq!(g.max_weight(), 19.0);
    }
}
