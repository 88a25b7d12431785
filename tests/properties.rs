//! Property-based tests (proptest) for the core invariants the paper
//! proves: monotonicity (Lemma 3.1), keynode/community bijection
//! (Lemma 3.4), correctness of the top-k prefix rule (Theorem 3.1), the
//! accessed-size bound behind instance optimality (Lemma 3.8) and the
//! geometric bound on counting work, for every local executor, and
//! structural integrity of the community forest. The prefix's stored
//! `N≥` bookkeeping is checked against the graph's binary search.

use ic_graph::generators::{assemble, barabasi_albert, gnm, WeightKind};
use ic_graph::paper::figure3;
use ic_graph::{Prefix, Rank, WeightedGraph};
use influential_communities::search::community::verify;
use influential_communities::search::query::{AlgorithmId, Selection};
use influential_communities::search::{count, naive, progressive, SearchStats, TopKQuery};

/// Forced-LocalSearch query: these properties are about Algorithm 1's
/// access pattern, so auto-selection must not reroute them.
fn ls_query(gamma: u32, k: usize) -> TopKQuery {
    TopKQuery::new(gamma)
        .k(k)
        .algorithm(Selection::Forced(AlgorithmId::LocalSearch))
}
use proptest::prelude::*;

/// Strategy: a random weighted graph described by (n, density, seed).
fn graph_params() -> impl Strategy<Value = (usize, usize, u64)> {
    (8usize..48, 1usize..5, 0u64..10_000)
}

fn make_graph(n: usize, density: usize, seed: u64) -> WeightedGraph {
    let weights = if seed.is_multiple_of(2) {
        WeightKind::Uniform(seed.wrapping_mul(31))
    } else {
        WeightKind::PageRank
    };
    assemble(n, &gnm(n, n * density, seed), weights)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Lemma 3.1: the number of communities in G≥τ is non-decreasing as τ
    /// decreases (the prefix grows).
    #[test]
    fn count_monotone_in_prefix((n, d, seed) in graph_params(), gamma in 1u32..5) {
        let g = make_graph(n, d, seed);
        let mut prev = 0usize;
        for t in 0..=g.n() {
            let c = count::count_ic(&Prefix::with_len(&g, t), gamma);
            prop_assert!(c >= prev, "count dropped at t={t}: {prev} -> {c}");
            prev = c;
        }
    }

    /// Lemma 3.4 / Theorem 3.2: CountIC equals the number of distinct
    /// influence values among all communities (keynode bijection).
    #[test]
    fn keynode_bijection((n, d, seed) in graph_params(), gamma in 1u32..5) {
        let g = make_graph(n, d, seed);
        let reference = naive::all_communities(&g, gamma);
        let counted = count::count_ic(&Prefix::with_len(&g, g.n()), gamma);
        prop_assert_eq!(counted, reference.len());
        // keynodes are pairwise distinct (Lemma 3.3, with input ties
        // resolved by the deterministic rank order)
        let mut keys: Vec<u32> = reference.iter().map(|c| c.keynode).collect();
        keys.sort_unstable();
        keys.dedup();
        prop_assert_eq!(keys.len(), counted);
    }

    /// Theorem 3.1 end-to-end: LocalSearch equals the reference for every
    /// (γ, k), and each output satisfies Definition 2.2.
    #[test]
    fn local_search_correct((n, d, seed) in graph_params(), gamma in 1u32..5, k in 1usize..12) {
        let g = make_graph(n, d, seed);
        let mut expected = naive::all_communities(&g, gamma);
        expected.truncate(k);
        let got = ls_query(gamma, k).run(&g).unwrap().communities;
        prop_assert_eq!(got.len(), expected.len());
        for (a, b) in got.iter().zip(&expected) {
            prop_assert_eq!(a.keynode, b.keynode);
            prop_assert_eq!(&a.members, &b.members);
            prop_assert!(verify::is_influential_community(&g, &a.members, gamma));
        }
    }

    /// Lemma 3.8: the subgraph LocalSearch accesses is at most ~2δ times
    /// the smallest sufficient prefix G≥τ* (when one exists).
    #[test]
    fn accessed_size_bound((n, d, seed) in graph_params(), gamma in 1u32..4, k in 1usize..8) {
        let g = make_graph(n, d, seed);
        let total = count::count_ic(&Prefix::with_len(&g, g.n()), gamma);
        prop_assume!(total >= k); // τ* must exist
        // find size(G≥τ*): smallest prefix with ≥ k communities
        let mut size_star = g.size();
        for t in 0..=g.n() {
            let p = Prefix::with_len(&g, t);
            if count::count_ic(&p, gamma) >= k {
                size_star = p.size();
                break;
            }
        }
        let res = ls_query(gamma, k).run(&g).unwrap();
        let delta = 2.0;
        let bound = (2.0 * delta * size_star as f64 + 2.0).max(size_star as f64);
        prop_assert!(
            (res.stats.final_prefix_size as f64) <= bound,
            "accessed {} exceeds 2δ·size* = {} (size*={})",
            res.stats.final_prefix_size, bound, size_star
        );
    }

    /// Forest integrity: children have strictly higher influence and their
    /// member sets nest inside the parent's.
    #[test]
    fn forest_nesting((n, d, seed) in graph_params(), gamma in 1u32..5) {
        let g = make_graph(n, d, seed);
        let res = ls_query(gamma, usize::MAX / 4).run(&g).unwrap();
        let forest = &res.forest;
        for i in 0..forest.len() {
            let members = forest.members(i);
            let mset: std::collections::HashSet<u32> = members.iter().copied().collect();
            for &c in forest.children(i) {
                // strictly higher-ranked keynode; influence can only tie
                // under tied input weights (rank order breaks ties)
                prop_assert!(forest.keynode(c as usize) < forest.keynode(i));
                prop_assert!(forest.influence(c as usize) >= forest.influence(i));
                for m in forest.members(c as usize) {
                    prop_assert!(mset.contains(&m), "child member escapes parent");
                }
            }
            // keynode is the minimum-weight member = maximum rank
            prop_assert_eq!(*members.iter().max().unwrap(), forest.keynode(i));
        }
    }

    /// Progressive and batch results coincide for every prefix of the
    /// stream.
    #[test]
    fn progressive_equals_batch((n, d, seed) in graph_params(), gamma in 1u32..5) {
        let g = make_graph(n, d, seed);
        let all_batch = naive::all_communities(&g, gamma);
        let all_stream: Vec<_> = progressive::ProgressiveSearch::new(&g, gamma).collect();
        prop_assert_eq!(all_stream.len(), all_batch.len());
        for (a, b) in all_stream.iter().zip(&all_batch) {
            prop_assert_eq!(&a.members, &b.members);
        }
    }

    /// Batch materialization equals per-entry materialization, on
    /// one-shot EnumIC forests and on multi-round EnumIC-P forests; and
    /// LocalSearch-SE, which materializes a prefix of its EnumIC-P forest,
    /// returns the first k entries of the full list.
    #[test]
    fn batch_materialization_equals_per_entry(
        (n, d, seed) in graph_params(),
        gamma in 1u32..5,
        k in 1usize..12,
    ) {
        use influential_communities::search::enumerate::{enum_ic, ForestBuilder};
        use influential_communities::search::peel::{PeelConfig, PeelEngine, PeelOutput};
        use influential_communities::search::semi_external::local_search_se_top_k;
        use influential_communities::search::{Community, CommunityForest};

        fn per_entry(forest: &CommunityForest) -> Vec<Community> {
            (0..forest.len()).map(|i| forest.community(i)).collect()
        }

        let g = make_graph(n, d, seed);
        let mut engine = PeelEngine::new();
        let mut out = PeelOutput::default();
        let whole = Prefix::with_len(&g, g.n());
        engine.peel(&whole, PeelConfig::new(gamma), &mut out);
        let one_shot = enum_ic(&whole, &out, usize::MAX, |r| g.weight(r));
        let all = one_shot.communities();
        prop_assert_eq!(&all, &per_entry(&one_shot));

        // EnumIC-P: early-stopped peels of prefixes growing by half
        let mut builder = ForestBuilder::new();
        let (mut prev, mut t) = (0, (gamma as usize + 1).min(g.n()));
        loop {
            let prefix = Prefix::with_len(&g, t);
            let cfg = PeelConfig { gamma, stop_before: prev, track_nc: false };
            engine.peel(&prefix, cfg, &mut out);
            builder.add_peel(&prefix, &out, usize::MAX, |r| g.weight(r));
            if t == g.n() {
                break;
            }
            (prev, t) = (t, (t + t / 2 + 1).min(g.n()));
        }
        let rounds = builder.forest();
        let rounds_all = rounds.communities();
        prop_assert_eq!(&rounds_all, &per_entry(rounds));
        prop_assert_eq!(&rounds_all, &all, "EnumIC-P finds the same communities");

        let (top, _) = local_search_se_top_k(&g, gamma, k).unwrap();
        prop_assert_eq!(&top[..], &all[..k.min(all.len())]);
    }

    /// Weight perturbation sanity: scaling all weights by a positive
    /// constant never changes the community structure (only influences).
    #[test]
    fn scale_invariance((n, d, seed) in graph_params(), gamma in 1u32..4, scale in 1u32..1000) {
        let g = make_graph(n, d, seed);
        let mut b = ic_graph::GraphBuilder::new();
        for r in 0..g.n() as u32 {
            b.set_weight(g.external_id(r), g.weight(r) * scale as f64);
            b.add_vertex(g.external_id(r));
        }
        for (a, bb) in g.edges() {
            b.add_edge(g.external_id(a), g.external_id(bb));
        }
        let g2 = b.build().unwrap();
        let r1 = ls_query(gamma, 5).run(&g).unwrap().communities;
        let r2 = ls_query(gamma, 5).run(&g2).unwrap().communities;
        prop_assert_eq!(r1.len(), r2.len());
        for (x, y) in r1.iter().zip(&r2) {
            let mx: Vec<u64> = x.external_members(&g);
            let my: Vec<u64> = y.external_members(&g2);
            prop_assert_eq!(mx, my);
        }
    }
}

/// Checks a prefix's stored in-prefix lengths against the binary-search
/// oracle over each member's sorted adjacency list.
fn check_prefix(g: &WeightedGraph, p: &Prefix<'_>) -> Result<(), proptest::TestCaseError> {
    let len = p.len();
    let mut deg = vec![u32::MAX; len];
    p.fill_degrees(&mut deg);
    let mut edges = 0u64;
    for r in 0..len as Rank {
        let (oracle, ctx) = (g.degree_in_prefix(r, len), format!("len={len} r={r}"));
        prop_assert_eq!(p.neighbors(r), g.neighbors_in_prefix(r, len), "{}", ctx);
        prop_assert_eq!(p.degree(r), oracle, "{}", ctx);
        prop_assert_eq!(deg[r as usize], oracle, "{}", ctx);
        edges += u64::from(g.higher_degree(r));
    }
    prop_assert_eq!(p.size(), len as u64 + edges, "len={}", len);
    Ok(())
}

/// Strategy: a graph large enough that local searches run several growth
/// rounds before they meet their answer: (family, n, density, seed).
fn round_graph_params() -> impl Strategy<Value = (usize, usize, usize, u64)> {
    (0usize..2, 64usize..320, 2usize..6, 0u64..10_000)
}

/// A G(n, m) graph ([`make_graph`]) for family 0, a Barabási–Albert
/// graph with PageRank weights otherwise.
fn make_family_graph(family: usize, n: usize, density: usize, seed: u64) -> WeightedGraph {
    match family {
        0 => make_graph(n, density, seed),
        _ => assemble(n, &barabasi_albert(n, density, seed), WeightKind::PageRank),
    }
}

/// `size(G≥τ*)`: the size of the shortest prefix holding at least `k`
/// communities, or `None` when the whole graph holds fewer. The count is
/// monotone in the prefix (Lemma 3.1), so a binary search finds it.
fn size_star(g: &WeightedGraph, gamma: u32, k: usize) -> Option<u64> {
    let count = |t: usize| count::count_ic(&Prefix::with_len(g, t), gamma);
    if count(g.n()) < k {
        return None;
    }
    let (mut lo, mut hi) = (0, g.n());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if count(mid) >= k {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(Prefix::with_len(g, lo).size())
}

/// The local executors, each run forced through the query API at the
/// default growth ratio δ = 2: LocalSearch, LocalSearch-P (its stream
/// after k items) and LocalSearch-SE (on the memory store). Returns each
/// one's statistics.
fn local_rounds(g: &WeightedGraph, gamma: u32, k: usize) -> [(AlgorithmId, SearchStats); 3] {
    [
        AlgorithmId::LocalSearch,
        AlgorithmId::Progressive,
        AlgorithmId::LocalSearchSE,
    ]
    .map(|id| {
        let q = TopKQuery::new(gamma).k(k).algorithm(Selection::Forced(id));
        (id, q.run(g).unwrap().stats)
    })
}

/// Growth ratio every executor in [`local_rounds`] runs at.
const DELTA: f64 = 2.0;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The prefix keeps each member's in-prefix list length as it grows;
    /// its slices, degrees and size equal the binary-search oracle at
    /// every length, and along a δ = 2 growth chain, on G(n, m),
    /// Barabási–Albert and Figure 3 graphs.
    #[test]
    fn prefix_bookkeeping_matches_binary_search(
        family in 0usize..3,
        (n, d, seed) in graph_params(),
    ) {
        let g = match family {
            0 | 1 => make_family_graph(family, n, d, seed),
            _ => figure3(),
        };
        for t in 0..=g.n() {
            check_prefix(&g, &Prefix::with_len(&g, t))?;
        }
        let mut p = Prefix::with_len(&g, 1);
        loop {
            check_prefix(&g, &p)?;
            if p.is_full() {
                break;
            }
            p.extend_to_size((p.size() * 2).max(p.size() + 1));
        }
    }

    /// Lemma 3.8 for every local executor: the final prefix is at most
    /// `2δ·size(G≥τ*)`, and when the graph holds fewer than k communities
    /// the search ends on the whole graph.
    #[test]
    fn local_executors_access_at_most_2_delta_size_star(
        (family, n, d, seed) in round_graph_params(),
        gamma in 1u32..5,
        k in 1usize..40,
    ) {
        let g = make_family_graph(family, n, d, seed);
        let star = size_star(&g, gamma, k);
        for (id, s) in local_rounds(&g, gamma, k) {
            match star {
                Some(star) => prop_assert!(
                    s.final_prefix_size as f64 <= 2.0 * DELTA * star as f64,
                    "{}: final prefix {} exceeds 2δ·size* = {} (gamma={}, k={})",
                    id, s.final_prefix_size, 2.0 * DELTA * star as f64, gamma, k
                ),
                None => prop_assert_eq!(s.final_prefix_size, g.size(), "{}", id),
            }
        }
    }

    /// Geometric growth bounds the counting work: each round's prefix is
    /// at least δ times the previous one, so the counted sizes sum to at
    /// most `δ/(δ−1)` times the final prefix. When the last growth step
    /// stops at the whole graph short of its target, the earlier rounds
    /// still sum to at most `δ/(δ−1)` times the final prefix, so the
    /// bound is `(1 + δ/(δ−1))·final`, 3× at δ = 2.
    #[test]
    fn local_executors_counting_work_is_geometric(
        (family, n, d, seed) in round_graph_params(),
        gamma in 1u32..5,
        k in 1usize..40,
    ) {
        let g = make_family_graph(family, n, d, seed);
        let geometric = DELTA / (DELTA - 1.0);
        for (id, s) in local_rounds(&g, gamma, k) {
            let whole = s.final_prefix_size == g.size();
            let factor = if whole { 1.0 + geometric } else { geometric };
            prop_assert!(
                s.total_counted_size as f64 <= factor * s.final_prefix_size as f64,
                "{}: counted {} over {} rounds exceeds {}× the final prefix {} \
                 (whole graph: {}, gamma={}, k={})",
                id, s.total_counted_size, s.rounds, factor, s.final_prefix_size,
                whole, gamma, k
            );
        }
    }
}
