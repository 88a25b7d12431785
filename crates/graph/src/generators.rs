//! Deterministic synthetic workload generators.
//!
//! The paper evaluates on eight SNAP/LAW web and social graphs (Table 1).
//! Those datasets cannot be redistributed here, so the evaluation harness
//! substitutes synthetic graphs whose *structural regime* matches what the
//! paper's algorithms are sensitive to: heavy-tailed degree distributions
//! (R-MAT, Barabási–Albert), controlled density (G(n,m)), and planted
//! community structure (for the DBLP-style case study). Every generator is
//! seeded and bit-reproducible (see [`crate::rng`]).
//!
//! Each generator returns a raw edge list over vertices `0..n`; callers
//! attach weights (usually [`crate::pagerank`]) and build a
//! [`crate::WeightedGraph`] via [`assemble`].

use crate::builder::GraphBuilder;
use crate::pagerank::{pagerank_edges, PageRankOptions};
use crate::rng::Pcg32;
use crate::WeightedGraph;

/// How vertex influence weights are assigned to a generated topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WeightKind {
    /// PageRank with damping 0.85 — the paper's choice (§6).
    PageRank,
    /// Independent uniform weights from the given seed.
    Uniform(u64),
    /// The vertex degree (ties broken by id at build time).
    Degree,
}

/// Builds a [`WeightedGraph`] from a raw edge list over `0..n` plus a
/// weighting rule.
pub fn assemble(n: usize, edges: &[(u32, u32)], weights: WeightKind) -> WeightedGraph {
    let mut b = GraphBuilder::with_capacity(edges.len());
    for &(u, v) in edges {
        b.add_edge(u as u64, v as u64);
    }
    for v in 0..n as u64 {
        b.add_vertex(v);
    }
    match weights {
        WeightKind::PageRank => {
            let pr = pagerank_edges(n, edges, PageRankOptions::default());
            for (v, &w) in pr.iter().enumerate() {
                b.set_weight(v as u64, w);
            }
        }
        WeightKind::Uniform(seed) => {
            let mut rng = Pcg32::new(seed);
            for v in 0..n as u64 {
                b.set_weight(v, rng.gen_f64());
            }
        }
        WeightKind::Degree => {
            let mut deg = vec![0u32; n];
            for &(u, v) in edges {
                deg[u as usize] += 1;
                deg[v as usize] += 1;
            }
            for (v, &d) in deg.iter().enumerate() {
                b.set_weight(v as u64, d as f64);
            }
        }
    }
    b.build().expect("generated graphs are well formed")
}

/// Uniform random graph G(n, m): `m` distinct edges drawn uniformly from
/// all vertex pairs (self-loops excluded). `m` is clamped to the number of
/// available pairs.
pub fn gnm(n: usize, m: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(n >= 2, "G(n,m) needs at least two vertices");
    let max_m = n * (n - 1) / 2;
    let m = m.min(max_m);
    let mut rng = Pcg32::new(seed);
    let mut seen = std::collections::HashSet::with_capacity(m * 2);
    let mut edges = Vec::with_capacity(m);
    while edges.len() < m {
        let u = rng.gen_range(n as u32);
        let v = rng.gen_range(n as u32);
        if u == v {
            continue;
        }
        let key = if u < v {
            ((u as u64) << 32) | v as u64
        } else {
            ((v as u64) << 32) | u as u64
        };
        if seen.insert(key) {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges
}

/// Barabási–Albert preferential attachment: starts from a `d+1`-clique and
/// attaches each new vertex to `d` distinct existing vertices chosen with
/// probability proportional to degree (implemented with the standard
/// repeated-endpoint trick: sampling a uniform position in the running
/// edge-endpoint list is degree-proportional).
pub fn barabasi_albert(n: usize, d: usize, seed: u64) -> Vec<(u32, u32)> {
    assert!(d >= 1 && n > d, "need n > d >= 1");
    let mut rng = Pcg32::new(seed);
    let mut edges: Vec<(u32, u32)> = Vec::with_capacity(n * d);
    // endpoint pool: every endpoint of every edge, so that a uniform draw
    // is degree-proportional
    let mut pool: Vec<u32> = Vec::with_capacity(2 * n * d);
    for u in 0..=d as u32 {
        for v in 0..u {
            edges.push((v, u));
            pool.push(u);
            pool.push(v);
        }
    }
    // targets in draw order: the order they join the pool decides every
    // later draw, so it must not depend on a per-process hash seed
    let mut targets: Vec<u32> = Vec::with_capacity(d);
    for v in (d + 1) as u32..n as u32 {
        targets.clear();
        while targets.len() < d {
            let t = pool[rng.gen_index(pool.len())];
            if !targets.contains(&t) {
                targets.push(t);
            }
        }
        for &t in &targets {
            edges.push((t.min(v), t.max(v)));
            pool.push(v);
            pool.push(t);
        }
    }
    edges
}

/// Parameters of the R-MAT recursive matrix generator (Chakrabarti et al.).
#[derive(Debug, Clone, Copy)]
pub struct RmatParams {
    pub a: f64,
    pub b: f64,
    pub c: f64,
}

impl Default for RmatParams {
    /// The widely used Graph500-style skew.
    fn default() -> Self {
        RmatParams {
            a: 0.57,
            b: 0.19,
            c: 0.19,
        }
    }
}

/// R-MAT generator: `2^scale` vertices, `edge_factor * 2^scale` edge
/// *samples* (duplicates and self-loops are dropped at assembly, so the
/// final simple-graph edge count is somewhat smaller — same convention as
/// Graph500). Produces heavy-tailed degree distributions resembling web
/// and social graphs.
pub fn rmat(scale: u32, edge_factor: usize, params: RmatParams, seed: u64) -> Vec<(u32, u32)> {
    let n = 1usize << scale;
    let samples = edge_factor * n;
    let mut rng = Pcg32::new(seed);
    let mut edges = Vec::with_capacity(samples);
    let RmatParams { a, b, c } = params;
    for _ in 0..samples {
        let (mut u, mut v) = (0u32, 0u32);
        for _ in 0..scale {
            u <<= 1;
            v <<= 1;
            let r = rng.gen_f64();
            if r < a {
                // top-left quadrant: no bits set
            } else if r < a + b {
                v |= 1;
            } else if r < a + b + c {
                u |= 1;
            } else {
                u |= 1;
                v |= 1;
            }
        }
        if u != v {
            edges.push((u.min(v), u.max(v)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Overlays a dense Erdős–Rényi core on vertices `0..c` of an existing
/// edge list (deduplicating), then returns it. Social and web graphs have
/// a core-periphery structure — a small, very dense nucleus that carries
/// the high k-cores — which pure G(n,m)/BA generators lack; the paper's
/// graphs have degeneracies of 43–3247 (Table 1), so the Table 1 stand-ins
/// use this to reach realistic γ ranges.
pub fn overlay_dense_core(
    mut edges: Vec<(u32, u32)>,
    c: u32,
    p: f64,
    seed: u64,
) -> Vec<(u32, u32)> {
    let mut rng = Pcg32::new(seed);
    for u in 0..c {
        for v in u + 1..c {
            if rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges.sort_unstable();
    edges.dedup();
    edges
}

/// Planted-partition ("stochastic block") graph: `groups` communities of
/// `group_size` vertices; each intra-community pair is an edge with
/// probability `p_in`, each inter-community pair with probability `p_out`.
/// The classic benchmark topology for community search.
pub fn planted_partition(
    groups: usize,
    group_size: usize,
    p_in: f64,
    p_out: f64,
    seed: u64,
) -> Vec<(u32, u32)> {
    let n = groups * group_size;
    let mut rng = Pcg32::new(seed);
    let mut edges = Vec::new();
    for u in 0..n as u32 {
        for v in u + 1..n as u32 {
            let same = (u as usize / group_size) == (v as usize / group_size);
            let p = if same { p_in } else { p_out };
            if p > 0.0 && rng.gen_bool(p) {
                edges.push((u, v));
            }
        }
    }
    edges
}

/// A DBLP-style collaboration network for the paper's case study
/// (Figures 20–21): overlapping dense research groups of varying size
/// joined by a sparse collaboration backbone, plus a fringe of low-degree
/// authors. Returns `(n, edges)`.
pub fn collaboration(groups: usize, seed: u64) -> (usize, Vec<(u32, u32)>) {
    let mut rng = Pcg32::new(seed);
    let mut edges: Vec<(u32, u32)> = Vec::new();
    let mut next: u32 = 0;
    let mut group_members: Vec<Vec<u32>> = Vec::with_capacity(groups);
    for gi in 0..groups {
        // group sizes 6..=14, denser for small groups
        let size = 6 + (rng.gen_range(9)) as usize;
        let mut members: Vec<u32> = Vec::with_capacity(size);
        // senior authors: reuse one or two members from a previous group so
        // communities overlap (as in real co-authorship networks)
        if gi > 0 && rng.gen_bool(0.6) {
            let prev = &group_members[rng.gen_index(gi)];
            members.push(prev[rng.gen_index(prev.len())]);
        }
        while members.len() < size {
            members.push(next);
            next += 1;
        }
        // dense intra-group collaboration
        for i in 0..members.len() {
            for j in i + 1..members.len() {
                if rng.gen_bool(0.82) {
                    let (a, b) = (members[i].min(members[j]), members[i].max(members[j]));
                    edges.push((a, b));
                }
            }
        }
        group_members.push(members);
    }
    // sparse cross-group bridges
    for _ in 0..groups {
        let ga = &group_members[rng.gen_index(groups)];
        let gb = &group_members[rng.gen_index(groups)];
        let a = ga[rng.gen_index(ga.len())];
        let b = gb[rng.gen_index(gb.len())];
        if a != b {
            edges.push((a.min(b), a.max(b)));
        }
    }
    // fringe authors with one or two collaborations
    let fringe = groups * 3;
    for _ in 0..fringe {
        let v = next;
        next += 1;
        for _ in 0..1 + rng.gen_range(2) {
            let g = &group_members[rng.gen_index(groups)];
            let t = g[rng.gen_index(g.len())];
            edges.push((t.min(v), t.max(v)));
        }
    }
    edges.sort_unstable();
    edges.dedup();
    (next as usize, edges)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn max_vertex(edges: &[(u32, u32)]) -> u32 {
        edges.iter().map(|&(a, b)| a.max(b)).max().unwrap_or(0)
    }

    #[test]
    fn gnm_exact_count_no_dupes() {
        let e = gnm(100, 500, 1);
        assert_eq!(e.len(), 500);
        let mut s = e.clone();
        s.sort_unstable();
        s.dedup();
        assert_eq!(s.len(), 500, "duplicates present");
        assert!(max_vertex(&e) < 100);
        assert!(e.iter().all(|&(a, b)| a < b));
    }

    #[test]
    fn gnm_clamps_to_complete_graph() {
        let e = gnm(5, 1000, 2);
        assert_eq!(e.len(), 10);
    }

    #[test]
    fn gnm_deterministic() {
        assert_eq!(gnm(50, 100, 9), gnm(50, 100, 9));
        assert_ne!(gnm(50, 100, 9), gnm(50, 100, 10));
    }

    #[test]
    fn ba_deterministic() {
        assert_eq!(barabasi_albert(500, 4, 9), barabasi_albert(500, 4, 9));
        assert_ne!(barabasi_albert(500, 4, 9), barabasi_albert(500, 4, 10));
    }

    #[test]
    fn ba_degree_sum_and_minimum_degree() {
        let n = 200;
        let d = 3;
        let e = barabasi_albert(n, d, 4);
        // clique edges + d per subsequent vertex
        assert_eq!(e.len(), d * (d + 1) / 2 + (n - d - 1) * d);
        let mut deg = vec![0u32; n];
        for &(a, b) in &e {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        assert!(
            deg.iter().all(|&x| x >= d as u32),
            "BA guarantees min degree d"
        );
    }

    #[test]
    fn ba_is_heavy_tailed() {
        let n = 2000;
        let e = barabasi_albert(n, 2, 7);
        let mut deg = vec![0u32; n];
        for &(a, b) in &e {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let dmax = *deg.iter().max().unwrap();
        let davg = deg.iter().sum::<u32>() as f64 / n as f64;
        assert!(
            dmax as f64 > 8.0 * davg,
            "preferential attachment should create hubs: dmax={dmax} davg={davg}"
        );
    }

    #[test]
    fn rmat_within_range_and_skewed() {
        let e = rmat(10, 8, RmatParams::default(), 3);
        assert!(max_vertex(&e) < 1024);
        assert!(e.iter().all(|&(a, b)| a < b));
        let mut deg = vec![0u32; 1024];
        for &(a, b) in &e {
            deg[a as usize] += 1;
            deg[b as usize] += 1;
        }
        let dmax = *deg.iter().max().unwrap();
        let davg = deg.iter().map(|&x| x as u64).sum::<u64>() as f64 / 1024.0;
        assert!(dmax as f64 > 5.0 * davg, "R-MAT should be skewed");
    }

    #[test]
    fn planted_partition_is_denser_inside() {
        let e = planted_partition(4, 25, 0.5, 0.01, 5);
        let (mut intra, mut inter) = (0usize, 0usize);
        for &(a, b) in &e {
            if a / 25 == b / 25 {
                intra += 1;
            } else {
                inter += 1;
            }
        }
        // expected intra = 4 * C(25,2) * 0.5 = 600, inter = (C(100,2)-1200)*0.01 ≈ 37
        assert!(intra > 8 * inter, "intra={intra} inter={inter}");
    }

    #[test]
    fn collaboration_has_overlapping_dense_groups() {
        let (n, e) = collaboration(20, 6);
        assert!(n > 100);
        assert!(e.len() > n, "collaboration graphs are denser than trees");
        assert!(max_vertex(&e) < n as u32);
    }

    #[test]
    fn assemble_pagerank_weights() {
        let e = barabasi_albert(100, 2, 8);
        let g = assemble(100, &e, WeightKind::PageRank);
        assert_eq!(g.n(), 100);
        g.validate().unwrap();
        // hub (rank 0) should be an early BA vertex with large degree
        assert!(g.degree(0) > 2);
    }

    #[test]
    fn assemble_uniform_and_degree_weights() {
        let e = gnm(60, 150, 11);
        let gu = assemble(60, &e, WeightKind::Uniform(1));
        let gd = assemble(60, &e, WeightKind::Degree);
        gu.validate().unwrap();
        gd.validate().unwrap();
        // degree weighting: rank 0 has the max degree
        let dmax = (0..60u32).map(|r| gd.degree(r)).max().unwrap();
        assert_eq!(gd.degree(0), dmax);
    }

    #[test]
    fn assemble_keeps_isolated_vertices() {
        // vertex 9 appears in no edge
        let e = vec![(0u32, 1u32)];
        let g = assemble(10, &e, WeightKind::Uniform(3));
        assert_eq!(g.n(), 10);
    }
}
