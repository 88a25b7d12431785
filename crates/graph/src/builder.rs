//! Mutable construction of [`WeightedGraph`]s from arbitrary edge lists.

use std::collections::HashMap;
use std::fmt;

use crate::graph::{rank_order, Rank, WeightedGraph};

/// Errors arising while assembling a graph.
#[derive(Debug, Clone, PartialEq)]
pub enum GraphError {
    /// A vertex referenced by an edge has no weight assigned and no default
    /// weighting was requested.
    MissingWeight(u64),
    /// A weight was not a finite number.
    NonFiniteWeight(u64, f64),
    /// The graph would be empty.
    Empty,
    /// More than `u32::MAX` vertices.
    TooManyVertices(usize),
    /// I/O or parse failure while reading a graph (see [`crate::io`]).
    Parse(String),
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingWeight(v) => write!(f, "vertex {v} has no weight"),
            GraphError::NonFiniteWeight(v, w) => {
                write!(f, "vertex {v} has non-finite weight {w}")
            }
            GraphError::Empty => write!(f, "graph has no vertices"),
            GraphError::TooManyVertices(n) => write!(f, "{n} vertices exceed u32 range"),
            GraphError::Parse(msg) => write!(f, "parse error: {msg}"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Incremental builder. Vertices are identified by arbitrary `u64` ids;
/// self-loops and duplicate edges are dropped silently (real-world edge
/// lists routinely contain both).
#[derive(Debug, Default, Clone)]
pub struct GraphBuilder {
    edges: Vec<(u64, u64)>,
    weights: HashMap<u64, f64>,
    /// Vertices mentioned without edges (isolated vertices are legal).
    isolated: Vec<u64>,
}

impl GraphBuilder {
    pub fn new() -> Self {
        Self::default()
    }

    /// Pre-sizes internal storage for `m` edges.
    pub fn with_capacity(m: usize) -> Self {
        GraphBuilder {
            edges: Vec::with_capacity(m),
            ..Self::default()
        }
    }

    /// Adds an undirected edge; self-loops are ignored.
    pub fn add_edge(&mut self, u: u64, v: u64) {
        if u != v {
            self.edges.push((u, v));
        }
    }

    /// Registers a vertex even if it has no edges.
    pub fn add_vertex(&mut self, v: u64) {
        self.isolated.push(v);
    }

    /// Sets the influence weight of a vertex.
    pub fn set_weight(&mut self, v: u64, w: f64) {
        self.weights.insert(v, w);
    }

    /// Number of edges added so far (before dedup).
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Builds the weight-sorted CSR graph.
    ///
    /// Vertices are ranked by `(weight desc, external id asc)`; the id
    /// tie-break realizes the paper's distinct-weight assumption
    /// deterministically. Every vertex that appears must have a weight (use
    /// [`GraphBuilder::build_with_default_weights`] to fill gaps).
    pub fn build(self) -> Result<WeightedGraph, GraphError> {
        self.build_inner(None)
    }

    /// Like [`GraphBuilder::build`], but vertices without an explicit weight
    /// receive `default(v)`.
    pub fn build_with_default_weights(
        self,
        default: impl Fn(u64) -> f64,
    ) -> Result<WeightedGraph, GraphError> {
        self.build_inner(Some(&default))
    }

    fn build_inner(
        mut self,
        default: Option<&dyn Fn(u64) -> f64>,
    ) -> Result<WeightedGraph, GraphError> {
        // Collect the vertex universe.
        let mut verts: Vec<u64> = Vec::with_capacity(self.weights.len());
        verts.extend(self.weights.keys().copied());
        verts.extend(self.edges.iter().flat_map(|&(u, v)| [u, v]));
        verts.extend(self.isolated.iter().copied());
        verts.sort_unstable();
        verts.dedup();
        if verts.is_empty() {
            return Err(GraphError::Empty);
        }
        if verts.len() > u32::MAX as usize - 1 {
            return Err(GraphError::TooManyVertices(verts.len()));
        }

        // Resolve weights and validate.
        let mut weighted: Vec<(f64, u64)> = Vec::with_capacity(verts.len());
        for &v in &verts {
            let w = match self.weights.get(&v) {
                Some(&w) => w,
                None => match default {
                    Some(d) => d(v),
                    None => return Err(GraphError::MissingWeight(v)),
                },
            };
            if !w.is_finite() {
                return Err(GraphError::NonFiniteWeight(v, w));
            }
            weighted.push((w, v));
        }

        // Rank by (weight desc, id asc).
        weighted.sort_unstable_by(|&a, &b| rank_order(a, b));

        let n = weighted.len();
        let mut ext_ids = Vec::with_capacity(n);
        let mut weights = Vec::with_capacity(n);
        let mut rank_of: HashMap<u64, Rank> = HashMap::with_capacity(n);
        for (r, &(w, v)) in weighted.iter().enumerate() {
            ext_ids.push(v);
            weights.push(w);
            rank_of.insert(v, r as Rank);
        }

        // Translate, canonicalize and dedup edges in rank space.
        for e in self.edges.iter_mut() {
            let a = rank_of[&e.0] as u64;
            let b = rank_of[&e.1] as u64;
            *e = if a < b { (a, b) } else { (b, a) };
        }
        self.edges.sort_unstable();
        self.edges.dedup();
        let m = self.edges.len();

        // Degree counting and CSR fill.
        let mut deg = vec![0usize; n];
        for &(a, b) in &self.edges {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut acc = 0usize;
        offsets.push(0);
        for d in &deg {
            acc += d;
            offsets.push(acc);
        }
        let mut cursor = offsets.clone();
        let mut adj = vec![0 as Rank; 2 * m];
        for &(a, b) in &self.edges {
            adj[cursor[a as usize]] = b as Rank;
            cursor[a as usize] += 1;
            adj[cursor[b as usize]] = a as Rank;
            cursor[b as usize] += 1;
        }
        // Each list must be sorted ascending by rank; the fill above emits
        // the `b`-side entries in sorted order but the `a`-side mixes, so
        // sort per list (cheap: lists are nearly sorted).
        let mut higher_len = vec![0u32; n];
        for r in 0..n {
            let list = &mut adj[offsets[r]..offsets[r + 1]];
            list.sort_unstable();
            higher_len[r] = list.partition_point(|&x| (x as usize) < r) as u32;
        }

        let g = WeightedGraph {
            offsets,
            adj,
            higher_len,
            weights,
            ext_ids,
            m,
        };
        debug_assert_eq!(g.validate(), Ok(()));
        Ok(g)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dedup_and_self_loops() {
        let mut b = GraphBuilder::new();
        b.set_weight(1, 1.0);
        b.set_weight(2, 2.0);
        b.add_edge(1, 2);
        b.add_edge(2, 1); // duplicate in reverse
        b.add_edge(1, 2); // duplicate
        b.add_edge(1, 1); // self loop
        let g = b.build().unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.m(), 1);
    }

    #[test]
    fn missing_weight_is_an_error() {
        let mut b = GraphBuilder::new();
        b.set_weight(1, 1.0);
        b.add_edge(1, 2);
        assert_eq!(b.build().unwrap_err(), GraphError::MissingWeight(2));
    }

    #[test]
    fn default_weights_fill_gaps() {
        let mut b = GraphBuilder::new();
        b.add_edge(10, 20);
        let g = b.build_with_default_weights(|v| v as f64).unwrap();
        assert_eq!(g.n(), 2);
        assert_eq!(g.external_id(0), 20); // larger default weight first
    }

    #[test]
    fn non_finite_weight_rejected() {
        let mut b = GraphBuilder::new();
        b.set_weight(1, f64::NAN);
        b.add_vertex(1);
        match b.build() {
            Err(GraphError::NonFiniteWeight(1, w)) => assert!(w.is_nan()),
            other => panic!("expected NonFiniteWeight, got {other:?}"),
        }
    }

    #[test]
    fn empty_graph_rejected() {
        assert_eq!(GraphBuilder::new().build().unwrap_err(), GraphError::Empty);
    }

    #[test]
    fn tie_break_by_external_id() {
        let mut b = GraphBuilder::new();
        for v in 0..5u64 {
            b.set_weight(v, 1.0); // all equal weights
            b.add_vertex(v);
        }
        let g = b.build().unwrap();
        // smaller external id wins the tie -> gets the smaller rank
        let ids: Vec<u64> = (0..5).map(|r| g.external_id(r)).collect();
        assert_eq!(ids, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn isolated_vertices_survive() {
        let mut b = GraphBuilder::new();
        b.set_weight(7, 3.0);
        b.add_vertex(7);
        b.set_weight(1, 9.0);
        b.set_weight(2, 8.0);
        b.add_edge(1, 2);
        let g = b.build().unwrap();
        assert_eq!(g.n(), 3);
        let r7 = g.rank_of_external(7).unwrap();
        assert_eq!(g.degree(r7), 0);
    }

    #[test]
    fn adjacency_sorted_after_build() {
        let mut b = GraphBuilder::new();
        for v in 0..50u64 {
            b.set_weight(v, (v * 7 % 50) as f64);
        }
        for v in 0..50u64 {
            b.add_edge(v, (v + 1) % 50);
            b.add_edge(v, (v + 10) % 50);
        }
        let g = b.build().unwrap();
        g.validate().unwrap();
    }
}
