//! Cross-algorithm consistency: every production algorithm must return
//! exactly the same communities as the definition-level reference
//! implementation, across a grid of random graphs, weight assignments,
//! cohesiveness thresholds, and k values — and the unified query API
//! (`TopKQuery` + the `Algorithm` trait) must be a transparent veneer:
//! builder-dispatched results are identical to direct algorithm calls
//! for every algorithm variant.

use ic_graph::generators::{assemble, barabasi_albert, gnm, planted_partition, WeightKind};
use ic_graph::WeightedGraph;
use influential_communities::prelude::{AlgorithmId, Community, Selection, TopKQuery};
use influential_communities::search::local_search::{
    CountStrategy, LocalSearch, LocalSearchOptions,
};
use influential_communities::search::{naive, semi_external, truss, ProgressiveSearch};
use influential_communities::service::planner::PROGRESSIVE_K_CUTOFF;
use influential_communities::service::{plan, Algorithm, Mode, Query, Service, ServiceConfig};
use proptest::prelude::*;

fn random_graphs() -> Vec<(String, WeightedGraph)> {
    let mut graphs = Vec::new();
    for seed in 0..4u64 {
        let n = 50 + (seed as usize) * 17;
        let m = n * (2 + seed as usize % 3);
        graphs.push((
            format!("gnm-{seed}"),
            assemble(n, &gnm(n, m, seed), WeightKind::Uniform(seed + 100)),
        ));
    }
    for seed in 0..3u64 {
        let n = 60;
        graphs.push((
            format!("ba-{seed}"),
            assemble(n, &barabasi_albert(n, 3, seed), WeightKind::PageRank),
        ));
    }
    graphs.push((
        "planted".into(),
        assemble(
            60,
            &planted_partition(4, 15, 0.6, 0.02, 9),
            WeightKind::Uniform(9),
        ),
    ));
    graphs.push((
        "degree-weighted".into(),
        assemble(50, &gnm(50, 200, 5), WeightKind::Degree),
    ));
    graphs
}

/// Builder-dispatched communities for one forced algorithm.
fn via_builder(g: &WeightedGraph, id: AlgorithmId, gamma: u32, k: usize) -> Vec<Community> {
    TopKQuery::new(gamma)
        .k(k)
        .algorithm(Selection::Forced(id))
        .run(g)
        .expect("valid query")
        .communities
}

#[test]
fn all_algorithms_agree_with_reference() {
    let dispatchable = [
        AlgorithmId::LocalSearch,
        AlgorithmId::OnlineAll,
        AlgorithmId::Forward,
        AlgorithmId::Backward,
        AlgorithmId::Progressive,
    ];
    for (name, g) in random_graphs() {
        for gamma in 1..=5u32 {
            let reference = naive::all_communities(&g, gamma);
            for &k in &[1usize, 2, 5, 16, TopKQuery::MAX_K] {
                let expected: Vec<_> = reference.iter().take(k).collect();
                for id in dispatchable {
                    let got = via_builder(&g, id, gamma, k);
                    assert_eq!(
                        got.len(),
                        expected.len(),
                        "{name} γ={gamma} k={k} {id}: count"
                    );
                    for (a, b) in got.iter().zip(&expected) {
                        assert_eq!(a.keynode, b.keynode, "{name} γ={gamma} k={k} {id}: keynode");
                        assert_eq!(a.members, b.members, "{name} γ={gamma} k={k} {id}: members");
                        assert_eq!(a.influence, b.influence);
                    }
                }
            }
        }
    }
}

#[test]
fn progressive_stream_is_complete_and_ordered() {
    for (name, g) in random_graphs() {
        for gamma in 1..=4u32 {
            let reference = naive::all_communities(&g, gamma);
            // the v2 streaming surface: Auto stream == LocalSearch-P
            let streamed: Vec<_> = TopKQuery::new(gamma).stream(&g).expect("valid").collect();
            assert_eq!(streamed.len(), reference.len(), "{name} γ={gamma}");
            for w in streamed.windows(2) {
                // decreasing influence; ties (e.g. degree weights) are
                // broken by the deterministic rank order, so keynode ranks
                // strictly increase
                assert!(
                    w[0].influence >= w[1].influence && w[0].keynode < w[1].keynode,
                    "{name} γ={gamma}: order"
                );
            }
            for (a, b) in streamed.iter().zip(&reference) {
                assert_eq!(a.members, b.members, "{name} γ={gamma}");
            }
        }
    }
}

/// The streaming adapter must yield exactly the batch answer, in the
/// batch order, for *every* algorithm variant — batch and streaming
/// consumers share one vocabulary.
#[test]
fn stream_adapter_yields_batch_order_for_every_algorithm() {
    let (_, g) = &random_graphs()[0];
    for id in AlgorithmId::ALL {
        let gamma = if id == AlgorithmId::Truss { 3 } else { 2 };
        let q = TopKQuery::new(gamma).k(8).algorithm(Selection::Forced(id));
        let batch = q.run(g).expect("valid query").communities;
        let streamed: Vec<Community> = q.stream(g).expect("valid query").take(8).collect();
        assert_eq!(streamed.len(), batch.len().min(8), "{id}: count");
        for (i, (a, b)) in streamed.iter().zip(&batch).enumerate() {
            assert_eq!(a.keynode, b.keynode, "{id}: keynode at {i}");
            assert_eq!(a.members, b.members, "{id}: members at {i}");
        }
        // the adapter is live exactly for the progressive algorithm
        assert_eq!(
            q.stream(g).expect("valid query").is_live(),
            id == AlgorithmId::Progressive,
            "{id}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The serving layer must never change an answer: whatever algorithm
    /// the planner dispatches to — through every branch of the cost model
    /// and every explicit override — the service returns exactly the
    /// communities the definition-level reference produces.
    #[test]
    fn planner_dispatch_agrees_with_reference(
        (n, density, seed) in (16usize..48, 2usize..5, 0u64..10_000),
        gamma in 1u32..5,
    ) {
        let g = assemble(n, &gnm(n, n * density, seed), WeightKind::Uniform(seed ^ 0xC0FFEE));
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 64,
            cache_shards: 2,
            ..ServiceConfig::default()
        });
        let stats = svc.register("g", g.clone()).stats;

        // k values crafted to hit every Auto branch of the cost model
        // (n ≥ 16 and γ ≤ 4 make the small-k branches unambiguous):
        // γ > γmax → forward; k + γ ≥ n → online_all; k + γ ≥ n/2 →
        // forward; k ≤ cutoff → progressive; otherwise local_search.
        prop_assert_eq!(
            plan(&stats, stats.gamma_max + 1, 1, Mode::Auto).algorithm,
            Algorithm::Forward
        );
        // γ clamped to feasibility so the infeasible-γ rule (checked
        // above) cannot shadow the k-shaped branches
        let gamma_ok = gamma.clamp(1, stats.gamma_max.max(1));
        prop_assert_eq!(plan(&stats, gamma_ok, n, Mode::Auto).algorithm, Algorithm::OnlineAll);
        prop_assert_eq!(plan(&stats, gamma_ok, n / 2, Mode::Auto).algorithm, Algorithm::Forward);
        prop_assert_eq!(plan(&stats, gamma_ok, 1, Mode::Auto).algorithm, Algorithm::Progressive);
        prop_assert_eq!(
            plan(&stats, gamma_ok, PROGRESSIVE_K_CUTOFF + 1, Mode::Auto).algorithm,
            Algorithm::LocalSearch
        );

        let reference = naive::all_communities(&g, gamma);
        let ks = [1, PROGRESSIVE_K_CUTOFF + 1, n / 2, n];
        let modes = [
            ("auto", Mode::Auto),
            ("local", Mode::Forced(Algorithm::LocalSearch)),
            ("progressive", Mode::Forced(Algorithm::Progressive)),
            ("forward", Mode::Forced(Algorithm::Forward)),
            ("online_all", Mode::Forced(Algorithm::OnlineAll)),
            ("backward", Mode::Forced(Algorithm::Backward)),
            ("naive", Mode::Forced(Algorithm::Naive)),
        ];
        for &k in &ks {
            for &(label, mode) in &modes {
                // per-mode graph aliases keep the (graph, γ, k) cache key
                // distinct, so every mode actually executes its algorithm
                let name = format!("g-{label}");
                svc.register(&name, g.clone());
                let resp = svc
                    .query(Query::new(name, gamma, k).with_mode(mode))
                    .expect("query succeeds");
                let expected: Vec<_> = reference.iter().take(k).collect();
                prop_assert_eq!(
                    resp.communities.len(),
                    expected.len(),
                    "γ={} k={} {}: count", gamma, k, label
                );
                for (a, b) in resp.communities.iter().zip(&expected) {
                    prop_assert_eq!(a.keynode, b.keynode, "γ={} k={} {}", gamma, k, label);
                    prop_assert_eq!(&a.members, &b.members, "γ={} k={} {}", gamma, k, label);
                }
                prop_assert!(
                    resp.cached || resp.search_stats.is_some(),
                    "misses report stats uniformly"
                );
            }
        }

        // the infeasible-γ branch also returns exactly what naive says
        let resp = svc
            .query(Query::new("g", stats.gamma_max + 1, 2))
            .expect("query succeeds");
        prop_assert_eq!(resp.explain.algorithm, Algorithm::Forward);
        prop_assert!(resp.communities.is_empty());
    }

    /// The enumeration-order invariant the serving layer's prefix-aware
    /// cache and batch slicing rely on (§4, LocalSearch-P): for every
    /// core-family algorithm, `top_k(γ, k)` equals the first k entries
    /// of `top_k(γ, k′)` whenever k < k′. If any algorithm ever broke
    /// this, a sliced cache entry would silently serve a wrong answer —
    /// this test is the guard.
    #[test]
    fn topk_is_a_prefix_of_larger_topk(
        (n, density, seed) in (20usize..64, 2usize..5, 0u64..10_000),
        gamma in 1u32..5,
    ) {
        let g = assemble(n, &gnm(n, n * density, seed), WeightKind::Uniform(seed ^ 0xFACE));
        let core_family = [
            AlgorithmId::LocalSearch,
            AlgorithmId::Progressive,
            AlgorithmId::Forward,
            AlgorithmId::OnlineAll,
            AlgorithmId::Backward,
            AlgorithmId::Naive,
        ];
        for id in core_family {
            // k' grid includes exhausted enumerations (k' > #communities)
            let big_ks = [4usize, 9, n / 2 + 1, n + 10];
            for big_k in big_ks {
                let big = via_builder(&g, id, gamma, big_k);
                for k in [1usize, 2, 3, big_k / 2, big_k.saturating_sub(1), big_k] {
                    if k == 0 || k > big_k {
                        continue;
                    }
                    let small = via_builder(&g, id, gamma, k);
                    let expected = &big[..k.min(big.len())];
                    prop_assert_eq!(
                        small.len(), expected.len(),
                        "{} γ={} k={} k'={}: count", id, gamma, k, big_k
                    );
                    for (a, b) in small.iter().zip(expected) {
                        prop_assert_eq!(a.keynode, b.keynode, "{} γ={} k={} k'={}", id, gamma, k, big_k);
                        prop_assert_eq!(&a.members, &b.members, "{} γ={} k={} k'={}", id, gamma, k, big_k);
                        prop_assert_eq!(a.influence, b.influence, "{} γ={} k={} k'={}", id, gamma, k, big_k);
                    }
                }
            }
        }
    }

    /// The unified builder is a transparent veneer: for every algorithm
    /// variant × (γ, k) grid point, dispatching through
    /// `TopKQuery` + the `Algorithm` trait returns results identical to
    /// calling the concrete algorithm APIs directly.
    #[test]
    fn builder_dispatch_equals_direct_calls(
        (n, density, seed) in (20usize..60, 2usize..5, 0u64..10_000),
    ) {
        let g = assemble(n, &gnm(n, n * density, seed), WeightKind::Uniform(seed ^ 0x5EED));
        for gamma in [1u32, 2, 3, 4] {
            for k in [1usize, 4, 13, n] {
                for id in AlgorithmId::ALL {
                    if id == AlgorithmId::Truss && gamma < 2 {
                        // centrally rejected — direct call would assert
                        prop_assert!(
                            TopKQuery::new(gamma).k(k)
                                .algorithm(Selection::Forced(id))
                                .run(&g)
                                .is_err()
                        );
                        continue;
                    }
                    let got = via_builder(&g, id, gamma, k);
                    let direct: Vec<Community> = direct_call(&g, id, gamma, k);
                    prop_assert_eq!(
                        got.len(), direct.len(),
                        "γ={} k={} {}: count", gamma, k, id
                    );
                    for (a, b) in got.iter().zip(&direct) {
                        prop_assert_eq!(a.keynode, b.keynode, "γ={} k={} {}", gamma, k, id);
                        prop_assert_eq!(&a.members, &b.members, "γ={} k={} {}", gamma, k, id);
                        prop_assert_eq!(a.influence, b.influence, "γ={} k={} {}", gamma, k, id);
                    }
                }
            }
        }
    }
}

/// The pre-builder entry point of each algorithm: the power-tool types
/// and reference lists where they exist, the static-dispatch
/// `query::exec` executors elsewhere (the v1 free-function shims are
/// gone as of this release).
fn direct_call(g: &WeightedGraph, id: AlgorithmId, gamma: u32, k: usize) -> Vec<Community> {
    use influential_communities::search::query::{exec, Algorithm as _};
    let q = TopKQuery::new(gamma).k(k);
    match id {
        AlgorithmId::LocalSearch => LocalSearch::new().run(g, gamma, k).communities,
        AlgorithmId::Progressive => ProgressiveSearch::new(g, gamma).take(k).collect(),
        AlgorithmId::Forward => exec::Forward.run(g, &q).communities,
        AlgorithmId::OnlineAll => exec::OnlineAll.run(g, &q).communities,
        AlgorithmId::Backward => exec::Backward.run(g, &q).communities,
        AlgorithmId::Naive => {
            let mut all = naive::all_communities(g, gamma);
            all.truncate(k);
            all
        }
        AlgorithmId::Truss => truss::local_top_k(g, gamma, k).communities,
        AlgorithmId::LocalSearchSE => {
            semi_external::local_search_se_top_k(g, gamma, k)
                .expect("in-memory source cannot fail")
                .0
        }
        AlgorithmId::OnlineAllSE => {
            semi_external::online_all_se_top_k(g, gamma, k)
                .expect("in-memory source cannot fail")
                .0
        }
        other => unreachable!("unhandled algorithm {other}"),
    }
}

#[test]
fn counting_strategies_and_deltas_are_interchangeable() {
    for (name, g) in random_graphs().into_iter().take(4) {
        let baseline = TopKQuery::new(3).k(8).run(&g).expect("valid").communities;
        for delta in [1.5f64, 3.0, 16.0] {
            for counting in [CountStrategy::CountIc, CountStrategy::OnlineAll] {
                // through the reusable executor...
                let mut ls = LocalSearch::with_options(LocalSearchOptions { delta, counting });
                let got = ls.run(&g, 3, 8).communities;
                assert_eq!(got.len(), baseline.len(), "{name} δ={delta} {counting:?}");
                for (a, b) in got.iter().zip(&baseline) {
                    assert_eq!(a.members, b.members, "{name} δ={delta} {counting:?}");
                }
                // ...and through the builder's knobs
                let via = TopKQuery::new(3)
                    .k(8)
                    .delta(delta)
                    .count_strategy(counting)
                    .algorithm(Selection::Forced(AlgorithmId::LocalSearch))
                    .run(&g)
                    .expect("valid")
                    .communities;
                assert_eq!(via.len(), baseline.len(), "{name} δ={delta} {counting:?}");
                for (a, b) in via.iter().zip(&baseline) {
                    assert_eq!(a.members, b.members, "{name} δ={delta} {counting:?}");
                }
            }
        }
    }
}

/// Non-containment queries compose with both supporting frameworks and
/// agree with the naive NC reference.
#[test]
fn non_containment_builder_matches_reference() {
    for (name, g) in random_graphs().into_iter().take(3) {
        for gamma in 2..=4u32 {
            let reference = naive::all_noncontainment(&g, gamma);
            for id in [AlgorithmId::LocalSearch, AlgorithmId::Forward] {
                let got = TopKQuery::new(gamma)
                    .k(TopKQuery::MAX_K)
                    .non_containment(true)
                    .algorithm(Selection::Forced(id))
                    .run(&g)
                    .expect("valid")
                    .communities;
                assert_eq!(got.len(), reference.len(), "{name} γ={gamma} {id}");
                for (a, b) in got.iter().zip(&reference) {
                    assert_eq!(a.keynode, b.keynode, "{name} γ={gamma} {id}");
                    assert_eq!(a.members, b.members, "{name} γ={gamma} {id}");
                }
            }
        }
    }
}
