//! Incrementally growable prefix subgraph `G≥τ` (Algorithm 1, line 4).
//!
//! LocalSearch never extracts `G≥τ` by threshold directly; it *grows* the
//! current prefix vertex-by-vertex (in decreasing weight order) until the
//! subgraph size reaches a target, paying `O(Δsize)` per extension. This
//! type encapsulates that bookkeeping with the `N≥` partition of §3.1:
//! appending rank `t` adds the `|N≥(t)|` edges to its higher-weight
//! neighbors, so `size = t + |{edges inside}|` grows by `1 + |N≥(t)|`
//! (every edge is counted exactly once, at its lower-weight endpoint).
//!
//! The same step keeps each member's in-prefix list length: `t` joins with
//! `|N≥(t)|`, and each of its `N≥` neighbors gains one. Adjacency lists
//! are sorted by rank, so a member's in-prefix neighbors are the first
//! that many entries of its list: [`Prefix::neighbors`] is a slice,
//! [`Prefix::degree`] a load and [`Prefix::fill_degrees`] a copy, and
//! every peel visit to a prefix edge costs O(1).

use crate::graph::{Rank, WeightedGraph};

/// A view of the induced subgraph on ranks `0..t`.
#[derive(Debug, Clone)]
pub struct Prefix<'g> {
    g: &'g WeightedGraph,
    /// `in_len[r]`: how many entries of `r`'s adjacency list lie inside
    /// the prefix (its in-prefix degree); `in_len.len()` is `t`.
    in_len: Vec<u32>,
    size: u64,
}

impl<'g> Prefix<'g> {
    /// The empty prefix.
    pub fn new(g: &'g WeightedGraph) -> Self {
        Prefix {
            g,
            in_len: Vec::new(),
            size: 0,
        }
    }

    /// A prefix containing the first `t` ranks. Cost: `O(size(G≥τ))` of
    /// the resulting prefix.
    pub fn with_len(g: &'g WeightedGraph, t: usize) -> Self {
        let mut p = Prefix::new(g);
        p.extend_to_len(t);
        p
    }

    /// The underlying graph.
    #[inline]
    pub fn graph(&self) -> &'g WeightedGraph {
        self.g
    }

    /// Number of vertices currently in the prefix.
    #[inline]
    pub fn len(&self) -> usize {
        self.in_len.len()
    }

    /// True iff the prefix contains no vertices.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.in_len.is_empty()
    }

    /// `size(G≥τ) = |V| + |E|` of the current prefix.
    #[inline]
    pub fn size(&self) -> u64 {
        self.size
    }

    /// Number of edges inside the prefix.
    #[inline]
    pub fn edge_count(&self) -> u64 {
        self.size - self.len() as u64
    }

    /// True iff the prefix is the whole graph.
    #[inline]
    pub fn is_full(&self) -> bool {
        self.len() == self.g.n()
    }

    /// Weight threshold realized by this prefix: the weight of its last
    /// vertex (`τ` such that the prefix is `G≥τ`). `None` when empty.
    pub fn threshold(&self) -> Option<f64> {
        (!self.is_empty()).then(|| self.g.weight(self.len() as Rank - 1))
    }

    /// Appends the next rank: it brings its `N≥` edges, and each of its
    /// `N≥` neighbors' in-prefix lists grows by one entry.
    fn push_next(&mut self) {
        let t = self.len() as Rank;
        let higher = self.g.higher_neighbors(t);
        for &h in higher {
            self.in_len[h as usize] += 1;
        }
        self.in_len.push(higher.len() as u32);
        self.size += 1 + higher.len() as u64;
    }

    /// Grows the prefix until it contains `t` vertices (no-op if already
    /// larger). Cost: `O(Δsize)`.
    pub fn extend_to_len(&mut self, t: usize) {
        let t = t.min(self.g.n());
        self.in_len.reserve(t.saturating_sub(self.len()));
        while self.len() < t {
            self.push_next();
        }
    }

    /// Grows the prefix until `size ≥ target` or the whole graph is
    /// included, the exact extension rule of Algorithm 1 line 4 (with the
    /// `τ_min` fallback). Returns the new size. Cost: `O(Δsize)`.
    pub fn extend_to_size(&mut self, target: u64) -> u64 {
        while self.size < target && !self.is_full() {
            self.push_next();
        }
        self.size
    }

    /// Neighbors of `r` inside the prefix (requires `r < len`): the first
    /// [`Prefix::degree`] entries of its sorted adjacency list, in O(1).
    #[inline]
    pub fn neighbors(&self, r: Rank) -> &'g [Rank] {
        let start = self.g.offsets[r as usize];
        &self.g.adj[start..start + self.in_len[r as usize] as usize]
    }

    /// Degree of `r` inside the prefix (requires `r < len`), in O(1).
    #[inline]
    pub fn degree(&self, r: Rank) -> u32 {
        self.in_len[r as usize]
    }

    /// Fills `deg[r]` for all `r < len` with prefix degrees — the
    /// "retrieve the `N≥` lists" step of Section 3.1, a copy of the
    /// lengths the growth kept, O(len). `deg` must have length at least
    /// `len`.
    pub fn fill_degrees(&self, deg: &mut [u32]) {
        deg[..self.len()].copy_from_slice(&self.in_len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::GraphBuilder;

    fn path_graph(n: u64) -> WeightedGraph {
        let mut b = GraphBuilder::new();
        for v in 0..n {
            b.set_weight(v, (n - v) as f64); // v0 heaviest -> rank = id
        }
        for v in 0..n - 1 {
            b.add_edge(v, v + 1);
        }
        b.build().unwrap()
    }

    #[test]
    fn empty_and_full() {
        let g = path_graph(10);
        let mut p = Prefix::new(&g);
        assert!(p.is_empty());
        assert_eq!(p.size(), 0);
        p.extend_to_len(100); // clamps
        assert!(p.is_full());
        assert_eq!(p.size(), g.size());
        assert_eq!(p.edge_count(), g.m() as u64);
    }

    #[test]
    fn incremental_sizes_match_direct_computation() {
        let g = path_graph(10);
        for t in 0..=10 {
            let p = Prefix::with_len(&g, t);
            let edges: usize = (0..t).map(|r| g.higher_degree(r as Rank) as usize).sum();
            assert_eq!(p.size(), (t + edges) as u64);
        }
    }

    #[test]
    fn extend_to_size_stops_at_target_or_full() {
        let g = path_graph(10);
        let mut p = Prefix::new(&g);
        let s = p.extend_to_size(7);
        assert!(s >= 7);
        // path: each added vertex after the first contributes 2 (itself+edge)
        assert_eq!(p.len(), 4); // sizes: 1,3,5,7
        p.extend_to_size(10_000);
        assert!(p.is_full());
    }

    #[test]
    fn threshold_matches_last_vertex() {
        let g = path_graph(10);
        assert_eq!(Prefix::new(&g).threshold(), None);
        let p = Prefix::with_len(&g, 3);
        assert_eq!(p.threshold(), Some(g.weight(2)));
    }

    #[test]
    fn fill_degrees_equals_per_vertex_queries() {
        let g = path_graph(10);
        for t in [0, 1, 4, 10] {
            let p = Prefix::with_len(&g, t);
            let mut deg = vec![0u32; g.n()];
            p.fill_degrees(&mut deg);
            for r in 0..t as Rank {
                assert_eq!(deg[r as usize], g.degree_in_prefix(r, t), "t={t} r={r}");
            }
        }
    }

    #[test]
    fn neighbors_respect_prefix_boundary() {
        let g = path_graph(10);
        let p = Prefix::with_len(&g, 5);
        for r in 0..5u32 {
            assert!(p.neighbors(r).iter().all(|&x| (x as usize) < 5));
        }
    }
}
