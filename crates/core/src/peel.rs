//! The γ-core peel engine: the shared machinery behind **CountIC**
//! (Algorithm 2), **ConstructCVS** (Algorithm 5), and the keynode phases
//! of the baselines.
//!
//! Peeling a graph `g` means: reduce `g` to its γ-core, then repeatedly
//! (1) take the minimum-weight alive vertex `u` — a **keynode**, by
//! Lemma 3.5 — (2) remove `u` and cascade the γ-core maintenance
//! (procedure `Remove`), appending every vertex removed in step (2) to the
//! *community-aware vertex sequence* `cvs`. The keynodes, in the order
//! produced (increasing weight), together with the `cvs` group boundaries
//! are everything EnumIC needs to build communities without re-traversal.
//!
//! Vertices removed by the *initial* γ-core reduction belong to no
//! community and are **not** recorded in `cvs` (cf. Example 3.2, where
//! `v9, v17, v18` do not appear).
//!
//! The engine's only per-vertex state is one degree array: a vertex is
//! alive iff its remaining degree is at least γ. Each visit to an edge is
//! then a neighbor-slice read and one degree update, and over a
//! [`Prefix`], whose members' in-prefix degrees are kept as it grows, a
//! peel is linear in the prefix's size.

use ic_graph::{Prefix, Rank};

/// Abstraction over "a graph the peel engine can run on": the in-memory
/// prefix subgraph ([`Prefix`]) and the semi-external resident subgraph
/// both implement it. Vertices are ranks `0..len()`; rank order *is*
/// decreasing weight order, so "minimum weight alive vertex" means
/// "maximum alive rank".
pub trait PeelGraph {
    /// Number of vertices (ranks `0..len()` exist).
    fn len(&self) -> usize;
    /// True iff there are no vertices.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Writes the degree of every vertex into `deg[0..len()]`.
    fn fill_degrees(&self, deg: &mut [u32]);
    /// Neighbor list of `r` (unordered is fine).
    fn neighbors(&self, r: Rank) -> &[Rank];
}

impl PeelGraph for Prefix<'_> {
    fn len(&self) -> usize {
        Prefix::len(self)
    }
    fn fill_degrees(&self, deg: &mut [u32]) {
        Prefix::fill_degrees(self, deg)
    }
    fn neighbors(&self, r: Rank) -> &[Rank] {
        Prefix::neighbors(self, r)
    }
}

/// Output of a peel: keynodes, `cvs`, group boundaries, and (optionally)
/// non-containment flags.
#[derive(Debug, Default, Clone)]
pub struct PeelOutput {
    /// Keynodes in the order discovered = increasing weight = strictly
    /// decreasing rank.
    pub keys: Vec<Rank>,
    /// Start index of each keynode's group in `cvs`; `group_start[i]..
    /// group_start[i+1]` (with an implicit final bound of `cvs.len()`) is
    /// the group of `keys[i]`, whose first element is the keynode itself.
    pub group_start: Vec<u32>,
    /// Community-aware vertex sequence.
    pub cvs: Vec<Rank>,
    /// `nc[i]` is true iff `keys[i]` is a *non-containment* keynode
    /// (§5.1); only populated when requested.
    pub nc: Vec<bool>,
}

impl PeelOutput {
    /// Number of keynodes — by Lemma 3.4 the number of influential
    /// γ-communities in the peeled graph.
    pub fn count(&self) -> usize {
        self.keys.len()
    }

    /// The group (vertex set) of the `i`-th keynode.
    pub fn group(&self, i: usize) -> &[Rank] {
        let start = self.group_start[i] as usize;
        let end = self
            .group_start
            .get(i + 1)
            .map_or(self.cvs.len(), |&e| e as usize);
        &self.cvs[start..end]
    }

    fn clear(&mut self) {
        self.keys.clear();
        self.group_start.clear();
        self.cvs.clear();
        self.nc.clear();
    }
}

/// Configuration of one peel run.
#[derive(Debug, Clone, Copy)]
pub struct PeelConfig {
    /// Cohesiveness threshold γ ≥ 1.
    pub gamma: u32,
    /// Stop before emitting any keynode with rank `< stop_before` — the
    /// early-termination threshold `τ` of ConstructCVS (Algorithm 5); the
    /// ranks `0..stop_before` are the previous round's prefix. `0` peels to
    /// exhaustion.
    pub stop_before: usize,
    /// Record non-containment flags (§5.1). Costs one extra adjacency scan
    /// per group.
    pub track_nc: bool,
}

impl PeelConfig {
    pub fn new(gamma: u32) -> Self {
        PeelConfig {
            gamma,
            stop_before: 0,
            track_nc: false,
        }
    }
}

/// Reusable peel workspace. Buffers persist across runs so repeated rounds
/// (LocalSearch's geometric growth, LocalSearch-P's re-peels) allocate
/// nothing after warm-up.
///
/// One array carries the whole peel state: `deg[r]` is `r`'s degree among
/// the vertices not yet removed, and `r` is alive iff `deg[r] ≥ γ`. A
/// vertex dies when its degree drops below γ, and a keynode's degree is
/// zeroed when it is taken. Decrements saturate at 0, so a dead vertex
/// may keep being decremented and any γ up to `u32::MAX` is safe.
#[derive(Debug, Default)]
pub struct PeelEngine {
    deg: Vec<u32>,
    queue: Vec<Rank>,
}

impl PeelEngine {
    pub fn new() -> Self {
        Self::default()
    }

    /// Runs a full peel of `g`, writing results into `out` (cleared
    /// first). Returns the number of keynodes found.
    ///
    /// This is CountIC when `cfg.stop_before == 0` (the keynode count is
    /// the community count, Theorem 3.2) and ConstructCVS otherwise.
    pub fn peel(&mut self, g: &impl PeelGraph, cfg: PeelConfig, out: &mut PeelOutput) -> usize {
        assert!(cfg.gamma >= 1, "gamma must be at least 1");
        out.clear();
        let t = g.len();
        if t == 0 {
            return 0;
        }
        let gamma = cfg.gamma;
        if self.deg.len() < t {
            self.deg.resize(t, 0);
        }
        g.fill_degrees(&mut self.deg[..t]);

        // Phase 1: reduce to the γ-core (removals not recorded in cvs).
        self.queue.clear();
        for r in 0..t as Rank {
            if self.deg[r as usize] < gamma {
                self.queue.push(r);
            }
        }
        self.cascade(g, gamma, None);

        // Phase 2: keynode peel. The minimum-weight alive vertex is the
        // maximum alive rank; a downward cursor visits each rank once.
        let mut cursor = t;
        loop {
            // locate the next keynode
            let u = loop {
                if cursor == 0 {
                    return out.keys.len();
                }
                cursor -= 1;
                if self.deg[cursor] >= gamma {
                    break cursor as Rank;
                }
            };
            if (u as usize) < cfg.stop_before {
                // every remaining vertex belongs to the previous prefix's
                // γ-core: already reported in an earlier round
                return out.keys.len();
            }
            out.keys.push(u);
            let group_start = out.cvs.len();
            out.group_start.push(group_start as u32);
            self.deg[u as usize] = 0;
            self.queue.clear();
            self.queue.push(u);
            self.cascade(g, gamma, Some(&mut out.cvs));
            if cfg.track_nc {
                // Non-containment keynode (§5.1): no vertex removed by this
                // Remove call still touches an alive vertex.
                let nc = out.cvs[group_start..]
                    .iter()
                    .all(|&v| g.neighbors(v).iter().all(|&w| self.deg[w as usize] < gamma));
                out.nc.push(nc);
            }
        }
    }

    /// Procedure `Remove` of Algorithm 2 (and the analogous cascade of the
    /// initial γ-core reduction): drains `self.queue`, whose vertices are
    /// already dead, decrementing each neighbor's degree and enqueueing a
    /// neighbor exactly when its degree drops from γ to γ − 1 (Alg. 2
    /// L13). Each removed vertex is appended to `sink` when provided.
    fn cascade(&mut self, g: &impl PeelGraph, gamma: u32, mut sink: Option<&mut Vec<Rank>>) {
        let mut qi = 0;
        while qi < self.queue.len() {
            let v = self.queue[qi];
            qi += 1;
            for &w in g.neighbors(v) {
                let d = &mut self.deg[w as usize];
                if *d == gamma {
                    self.queue.push(w);
                }
                *d = d.saturating_sub(1);
            }
            if let Some(sink) = sink.as_deref_mut() {
                sink.push(v);
            }
        }
        self.queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::paper::figure3;
    use ic_graph::{GraphBuilder, Prefix, WeightedGraph};

    fn ext(g: &WeightedGraph, r: Rank) -> u64 {
        g.external_id(r)
    }

    #[test]
    fn example_3_2_countic_on_g_tau2() {
        // Figure 4(c): G≥τ2 with τ2 = 12 = the first 13 ranks.
        let g = figure3();
        let prefix = Prefix::with_len(&g, 13);
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        let count = engine.peel(&prefix, PeelConfig::new(3), &mut out);
        assert_eq!(
            count, 4,
            "Example 3.2: four influential 3-communities in G≥τ2"
        );
        // keys = v5, v13, v7, v11 in increasing weight order (Figure 6)
        let keys: Vec<u64> = out.keys.iter().map(|&r| ext(&g, r)).collect();
        assert_eq!(keys, vec![5, 13, 7, 11]);
        // groups of Figure 6
        let group_ids = |i: usize| -> Vec<u64> {
            let mut v: Vec<u64> = out.group(i).iter().map(|&r| ext(&g, r)).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(group_ids(0), vec![5]);
        assert_eq!(group_ids(1), vec![13]);
        assert_eq!(group_ids(2), vec![1, 6, 7, 16]);
        assert_eq!(group_ids(3), vec![3, 11, 12, 20]);
        // the initial γ-core reduction removed v9, v17, v18: absent from cvs
        let cvs_ids: Vec<u64> = out.cvs.iter().map(|&r| ext(&g, r)).collect();
        for absent in [9u64, 17, 18] {
            assert!(!cvs_ids.contains(&absent), "{absent} must not be in cvs");
        }
        assert_eq!(out.cvs.len(), 10);
    }

    #[test]
    fn countic_on_g_tau1_finds_one_community() {
        // Figure 4(b): G≥τ1 with τ1 = 18 = the first 7 ranks; Example 3.1
        // says CountIC finds exactly one influential 3-community.
        let g = figure3();
        let prefix = Prefix::with_len(&g, 7);
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        assert_eq!(engine.peel(&prefix, PeelConfig::new(3), &mut out), 1);
        assert_eq!(ext(&g, out.keys[0]), 11);
    }

    #[test]
    fn early_stop_reproduces_figure7() {
        // LocalSearch-P round 2 on G≥τ2 stops before re-reporting v11:
        // Figure 7(b) shows keys = [v5, v13, v7] and cvs without
        // v11's group.
        let g = figure3();
        let prefix = Prefix::with_len(&g, 13);
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        let cfg = PeelConfig {
            gamma: 3,
            stop_before: 7,
            track_nc: false,
        };
        let count = engine.peel(&prefix, cfg, &mut out);
        assert_eq!(count, 3);
        let keys: Vec<u64> = out.keys.iter().map(|&r| ext(&g, r)).collect();
        assert_eq!(keys, vec![5, 13, 7]);
        let cvs: Vec<u64> = out.cvs.iter().map(|&r| ext(&g, r)).collect();
        assert!(!cvs.contains(&11));
        assert!(!cvs.contains(&3));
        // suffix property: the remaining alive graph is the γ-core of G≥τ1
        let alive: Vec<u64> = (0..13)
            .filter(|&r| engine.deg[r] >= 3)
            .map(|r| ext(&g, r as Rank))
            .collect();
        let mut sorted = alive.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![3, 11, 12, 20]);
    }

    #[test]
    fn keys_ranks_strictly_decrease() {
        let g = figure3();
        let prefix = Prefix::with_len(&g, g.n());
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        engine.peel(&prefix, PeelConfig::new(3), &mut out);
        assert!(out.keys.windows(2).all(|w| w[0] > w[1]));
        // keynode is always the first vertex of its own group
        for i in 0..out.count() {
            assert_eq!(out.group(i)[0], out.keys[i]);
        }
    }

    #[test]
    fn empty_and_too_sparse_graphs() {
        let mut b = GraphBuilder::new();
        for v in 0..5u64 {
            b.set_weight(v, v as f64);
        }
        b.add_edge(0, 1); // a single edge cannot support γ=2
        let g = b.build().unwrap();
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        assert_eq!(
            engine.peel(&Prefix::with_len(&g, 5), PeelConfig::new(2), &mut out),
            0
        );
        assert_eq!(
            engine.peel(&Prefix::new(&g), PeelConfig::new(2), &mut out),
            0
        );
        // γ=1: the single edge is one community with keynode = lighter end
        assert_eq!(
            engine.peel(&Prefix::with_len(&g, 5), PeelConfig::new(1), &mut out),
            1
        );
    }

    #[test]
    fn gamma_one_on_a_path_peels_like_nested_suffixes() {
        // path with strictly increasing weights from the tail: every vertex
        // except the top one is a keynode for γ=1
        let mut b = GraphBuilder::new();
        for v in 0..6u64 {
            b.set_weight(v, v as f64);
        }
        for v in 0..5u64 {
            b.add_edge(v, v + 1);
        }
        let g = b.build().unwrap();
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        let count = engine.peel(&Prefix::with_len(&g, 6), PeelConfig::new(1), &mut out);
        assert_eq!(count, 5);
    }

    #[test]
    fn nc_flags_identify_leaf_communities() {
        let g = figure3();
        let prefix = Prefix::with_len(&g, 13);
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        let cfg = PeelConfig {
            gamma: 3,
            stop_before: 0,
            track_nc: true,
        };
        engine.peel(&prefix, cfg, &mut out);
        // keys = v5, v13, v7, v11; the two cliques {v1,v6,v7,v16} and
        // {v3,v11,v12,v20} are non-containment; v5's and v13's communities
        // strictly contain them.
        assert_eq!(out.nc, vec![false, false, true, true]);
    }

    #[test]
    fn gamma_above_every_degree_finds_nothing() {
        let g = figure3();
        let prefix = Prefix::with_len(&g, g.n());
        let max_degree = (0..g.n() as Rank).map(|r| g.degree(r)).max().unwrap();
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        for gamma in [max_degree + 1, u32::MAX] {
            let cfg = PeelConfig {
                gamma,
                stop_before: 0,
                track_nc: true,
            };
            assert_eq!(engine.peel(&prefix, cfg, &mut out), 0, "gamma={gamma}");
            assert!(out.cvs.is_empty() && out.nc.is_empty(), "gamma={gamma}");
        }
        // the saturated degrees leave the engine fit for the next run
        let fresh = PeelEngine::new().peel(&prefix, PeelConfig::new(3), &mut out);
        assert_eq!(engine.peel(&prefix, PeelConfig::new(3), &mut out), fresh);
    }

    #[test]
    fn forced_local_queries_at_the_largest_gamma_answer_empty() {
        use crate::query::{AlgorithmId, Selection, TopKQuery};
        let g = figure3();
        for (id, nc) in [
            (AlgorithmId::LocalSearch, false),
            (AlgorithmId::Progressive, false),
            (AlgorithmId::LocalSearch, true),
        ] {
            let res = TopKQuery::new(u32::MAX)
                .k(4)
                .non_containment(nc)
                .algorithm(Selection::Forced(id))
                .run(&g)
                .unwrap();
            assert!(res.communities.is_empty(), "{id} nc={nc}");
            assert_eq!(res.forest.len(), 0, "{id} nc={nc}");
        }
    }

    #[test]
    fn engine_buffers_are_reusable_across_sizes() {
        let g = figure3();
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        let c_big = engine.peel(&Prefix::with_len(&g, g.n()), PeelConfig::new(3), &mut out);
        let c_small = engine.peel(&Prefix::with_len(&g, 7), PeelConfig::new(3), &mut out);
        let c_big2 = engine.peel(&Prefix::with_len(&g, g.n()), PeelConfig::new(3), &mut out);
        assert_eq!(c_small, 1);
        assert_eq!(c_big, c_big2);
    }
}
