//! Differential test for the dynamic-update subsystem: an incrementally
//! maintained [`DynamicGraph`] must be *indistinguishable* from throwing
//! everything away and rebuilding.
//!
//! Each case drives a seeded random update stream (edge inserts/deletes,
//! vertex adds/removals, reweights — 100+ accepted ops) against both a
//! `DynamicGraph` and an independent shadow model (a plain edge set +
//! weight map mutated by the same ops). After every `COMMIT`, the
//! committed snapshot must equal a from-scratch `WeightedGraph` rebuild
//! of the shadow rank by rank (external ids, weight bits, neighbor lists,
//! `N≥` sizes), and its top-k answers must exactly equal the rebuild's,
//! for γ ∈ {2, 3, 4} and k ∈ {1, 8, 64}, on both generator families the
//! serving suite uses (uniform G(n,m) and Barabási–Albert/PageRank).
//!
//! Streams with vertex adds and removals commit mostly through the full
//! rebuild; the edge-and-weight streams keep the vertex set, so every one
//! of their commits takes the linear-time re-rank route instead.

use std::collections::{BTreeMap, BTreeSet};

use influential_communities::dynamic::DynamicGraph;
use influential_communities::graph::generators::{assemble, barabasi_albert, gnm, WeightKind};
use influential_communities::graph::stats::graph_stats;
use influential_communities::graph::{GraphBuilder, Pcg32, WeightedGraph};
use influential_communities::search::query::{AlgorithmId, Selection};
use influential_communities::search::{ProgressiveSearch, TopKQuery};
use proptest::prelude::*;
use proptest::TestCaseError;

const GAMMAS: [u32; 3] = [2, 3, 4];
const KS: [usize; 3] = [1, 8, 64];

/// Independent bookkeeping of what the graph should look like. Mutated
/// alongside the `DynamicGraph` by the same ops, rebuilt from scratch at
/// every commit. Deliberately ordered containers: the op generator
/// samples from it, and sampling must be deterministic per seed.
struct Shadow {
    weights: BTreeMap<u64, f64>,
    edges: BTreeSet<(u64, u64)>,
}

impl Shadow {
    fn of(g: &WeightedGraph) -> Self {
        let weights = (0..g.n() as u32)
            .map(|r| (g.external_id(r), g.weight(r)))
            .collect();
        let edges = g
            .edges()
            .map(|(a, b)| {
                let (x, y) = (g.external_id(a), g.external_id(b));
                (x.min(y), x.max(y))
            })
            .collect();
        Shadow { weights, edges }
    }

    fn rebuild(&self) -> WeightedGraph {
        let mut b = GraphBuilder::with_capacity(self.edges.len());
        for (&v, &w) in &self.weights {
            b.set_weight(v, w);
            b.add_vertex(v);
        }
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        b.build().expect("shadow state is a valid graph")
    }

    fn vertex(&self, rng: &mut Pcg32) -> u64 {
        let keys: Vec<u64> = self.weights.keys().copied().collect();
        keys[rng.gen_index(keys.len())]
    }
}

/// Compares the incrementally produced snapshot with the from-scratch
/// rebuild rank by rank.
fn assert_same_snapshot(
    inc: &WeightedGraph,
    rebuilt: &WeightedGraph,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(inc.n(), rebuilt.n(), "{}: vertex count", context);
    prop_assert_eq!(inc.m(), rebuilt.m(), "{}: edge count", context);
    for r in 0..inc.n() as u32 {
        prop_assert_eq!(
            inc.external_id(r),
            rebuilt.external_id(r),
            "{}: rank {} external id",
            context,
            r
        );
        prop_assert_eq!(
            inc.weight(r).to_bits(),
            rebuilt.weight(r).to_bits(),
            "{}: rank {} weight",
            context,
            r
        );
        prop_assert_eq!(
            inc.neighbors(r),
            rebuilt.neighbors(r),
            "{}: rank {} neighbors",
            context,
            r
        );
        prop_assert_eq!(
            inc.higher_degree(r),
            rebuilt.higher_degree(r),
            "{}: rank {} higher degree",
            context,
            r
        );
    }
    Ok(())
}

/// Compares every (γ, k) answer between the incrementally produced
/// snapshot and the from-scratch rebuild.
fn assert_answers_match(
    inc: &WeightedGraph,
    rebuilt: &WeightedGraph,
    context: &str,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(inc.n(), rebuilt.n(), "{}: vertex count", context);
    prop_assert_eq!(inc.m(), rebuilt.m(), "{}: edge count", context);
    for gamma in GAMMAS {
        for k in KS {
            let q = TopKQuery::new(gamma)
                .k(k)
                .algorithm(Selection::Forced(AlgorithmId::LocalSearch));
            let a = q.run(inc).unwrap().communities;
            let b = q.run(rebuilt).unwrap().communities;
            prop_assert_eq!(
                a.len(),
                b.len(),
                "{}: γ={} k={}: community count",
                context,
                gamma,
                k
            );
            for (i, (x, y)) in a.iter().zip(&b).enumerate() {
                prop_assert_eq!(
                    x.influence,
                    y.influence,
                    "{}: γ={} k={} community {}: influence",
                    context,
                    gamma,
                    k,
                    i
                );
                let mut xm = x.external_members(inc);
                let mut ym = y.external_members(rebuilt);
                xm.sort_unstable();
                ym.sort_unstable();
                prop_assert_eq!(
                    xm,
                    ym,
                    "{}: γ={} k={} community {}: members",
                    context,
                    gamma,
                    k,
                    i
                );
            }
        }
    }
    // the progressive stream sees the same world
    let pa: Vec<f64> = ProgressiveSearch::new(inc, 3)
        .take(8)
        .map(|c| c.influence)
        .collect();
    let pb: Vec<f64> = ProgressiveSearch::new(rebuilt, 3)
        .take(8)
        .map(|c| c.influence)
        .collect();
    prop_assert_eq!(pa, pb, "{}: progressive prefix", context);
    Ok(())
}

/// Which updates a stream draws.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Mix {
    /// Edge inserts and deletes, vertex adds and removals, reweights.
    All,
    /// Edge inserts and deletes and reweights: the vertex set never
    /// changes, so every commit takes the re-rank route.
    EdgesAndWeights,
}

/// Drives `total_ops` accepted random updates against both models,
/// committing (and differentially checking) every `commit_every` ops.
fn drive(
    start: WeightedGraph,
    seed: u64,
    total_ops: usize,
    commit_every: usize,
    family: &str,
    mix: Mix,
) -> Result<(), TestCaseError> {
    let mut shadow = Shadow::of(&start);
    let mut dg = DynamicGraph::new(start);
    let mut rng = Pcg32::new(seed);
    let mut next_id = 1_000_000u64;
    let mut accepted = 0usize;
    let mut commits = 0usize;
    while accepted < total_ops {
        let mut roll = rng.gen_range(100);
        let vertex_op = (78..86).contains(&roll) || roll >= 93;
        if mix == Mix::EdgesAndWeights && vertex_op {
            roll = 86; // a reweight instead
        }
        let ok = if roll < 42 {
            // insert a fresh edge between existing vertices
            let u = shadow.vertex(&mut rng);
            let v = shadow.vertex(&mut rng);
            let key = (u.min(v), u.max(v));
            if u != v && !shadow.edges.contains(&key) {
                dg.insert_edge(u, v).expect("insert accepted");
                shadow.edges.insert(key);
                true
            } else {
                false
            }
        } else if roll < 78 {
            // delete a random present edge
            if shadow.edges.is_empty() {
                false
            } else {
                let idx = rng.gen_index(shadow.edges.len());
                let &(u, v) = shadow.edges.iter().nth(idx).expect("index in range");
                dg.delete_edge(u, v).expect("delete accepted");
                shadow.edges.remove(&(u, v));
                true
            }
        } else if roll < 86 {
            // add a brand-new vertex
            let v = next_id;
            next_id += 1;
            let w = 0.5 + rng.gen_f64() * 40.0;
            dg.add_vertex(v, w).expect("add accepted");
            shadow.weights.insert(v, w);
            true
        } else if roll < 93 {
            // reweight an existing vertex, a third of the time onto
            // another vertex's exact weight so the id tie-break decides
            let v = shadow.vertex(&mut rng);
            let w = if rng.gen_range(3) == 0 {
                shadow.weights[&shadow.vertex(&mut rng)]
            } else {
                0.5 + rng.gen_f64() * 40.0
            };
            dg.reweight(v, w).expect("reweight accepted");
            shadow.weights.insert(v, w);
            true
        } else {
            // remove a vertex and its incident edges
            if shadow.weights.len() <= 8 {
                false
            } else {
                let v = shadow.vertex(&mut rng);
                dg.remove_vertex(v).expect("remove accepted");
                shadow.weights.remove(&v);
                shadow.edges.retain(|&(a, b)| a != v && b != v);
                true
            }
        };
        if !ok {
            continue;
        }
        accepted += 1;
        if accepted.is_multiple_of(commit_every) || accepted == total_ops {
            let receipt = dg.commit();
            let rebuilt = shadow.rebuild();
            let context = format!("{family} seed={seed} after {accepted} ops");
            assert_same_snapshot(&receipt.graph, &rebuilt, &context)?;
            assert_answers_match(&receipt.graph, &rebuilt, &context)?;
            // commit-time stats must equal what a full recompute reports
            prop_assert_eq!(receipt.stats, graph_stats(&rebuilt), "{}: stats", context);
            commits += 1;
        }
    }
    prop_assert!(commits >= 4, "stream must commit repeatedly");
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(5))]

    /// ≥120-op streams of each mix over uniform G(n,m) graphs.
    #[test]
    fn gnm_streams_match_rebuild(seed in 0u64..10_000, density in 2usize..5) {
        let n = 120;
        let g = assemble(n, &gnm(n, n * density, seed), WeightKind::Uniform(seed ^ 0x5EED));
        drive(g.clone(), seed.wrapping_mul(31).wrapping_add(7), 120, 24, "gnm", Mix::All)?;
        let seed = seed.wrapping_mul(29).wrapping_add(5);
        drive(g, seed, 120, 24, "gnm edges+weights", Mix::EdgesAndWeights)?;
    }

    /// ≥120-op streams of each mix over Barabási–Albert graphs with
    /// PageRank weights.
    #[test]
    fn barabasi_albert_streams_match_rebuild(seed in 0u64..10_000, d in 2usize..5) {
        let n = 140;
        let g = assemble(n, &barabasi_albert(n, d, seed), WeightKind::PageRank);
        drive(g.clone(), seed.wrapping_mul(17).wrapping_add(3), 120, 24, "ba", Mix::All)?;
        let seed = seed.wrapping_mul(13).wrapping_add(1);
        drive(g, seed, 120, 24, "ba edges+weights", Mix::EdgesAndWeights)?;
    }
}

/// The same differential guarantee holds through the serving stack: a
/// service-level UPDATE/COMMIT stream of edge toggles and reweights
/// answers exactly like a rebuilt graph registered from scratch.
#[test]
fn service_update_stream_matches_rebuild() {
    use influential_communities::service::{Query, Service, ServiceConfig};

    let n = 100;
    let g = assemble(n, &gnm(n, 300, 9), WeightKind::Uniform(99));
    let mut shadow = Shadow::of(&g);
    let svc = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 64,
        cache_shards: 2,
        ..ServiceConfig::default()
    });
    svc.register("live", g);
    let mut rng = Pcg32::new(0xD1FF);
    let mut accepted = 0usize;
    while accepted < 100 {
        let u = shadow.vertex(&mut rng);
        let v = shadow.vertex(&mut rng);
        if u == v {
            continue;
        }
        let key = (u.min(v), u.max(v));
        let op = if rng.gen_range(4) == 0 {
            // REWEIGHT, half the time onto v's exact weight
            let weight = if rng.gen_range(2) == 0 {
                shadow.weights[&v]
            } else {
                0.5 + rng.gen_f64() * 40.0
            };
            shadow.weights.insert(u, weight);
            influential_communities::dynamic::UpdateOp::Reweight { v: u, weight }
        } else if shadow.edges.contains(&key) {
            shadow.edges.remove(&key);
            influential_communities::dynamic::UpdateOp::DeleteEdge { u, v }
        } else {
            shadow.edges.insert(key);
            influential_communities::dynamic::UpdateOp::InsertEdge {
                u,
                v,
                default_weight: None,
            }
        };
        svc.update("live", op).expect("update accepted");
        accepted += 1;
        if accepted.is_multiple_of(20) {
            svc.commit_updates("live").expect("commit succeeds");
            svc.register("rebuilt", shadow.rebuild());
            for gamma in GAMMAS {
                for k in KS {
                    let a = svc.query(Query::new("live", gamma, k)).unwrap();
                    let b = svc.query(Query::new("rebuilt", gamma, k)).unwrap();
                    let am: Vec<Vec<u64>> = a
                        .communities
                        .iter()
                        .map(|c| c.external_members_in(&a.graph_instance))
                        .collect();
                    let bm: Vec<Vec<u64>> = b
                        .communities
                        .iter()
                        .map(|c| c.external_members_in(&b.graph_instance))
                        .collect();
                    assert_eq!(am, bm, "γ={gamma} k={k} after {accepted} ops");
                }
            }
        }
    }
}
