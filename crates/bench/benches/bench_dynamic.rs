//! Dynamic updates vs full rebuild: the cost of reflecting a churn batch
//! and then answering one query, measured both ways on the Small suite.
//!
//! * **update-then-query** — apply the batch to a [`DynamicGraph`],
//!   `commit` (re-rank the previous snapshot, rewriting only the dirty
//!   adjacency lists, then one core peel for the stats), then run
//!   LocalSearch on the snapshot.
//! * **rebuild-then-query** — what a deployment without `ic-dynamic`
//!   does: apply the batch to a plain edge set, rebuild the CSR graph
//!   from scratch, recompute registration statistics (including the full
//!   core decomposition), then run the same query.
//!
//! Both sides pay one core peel and the same query; they differ in how
//! the CSR snapshot is produced — a linear re-rank of the previous one
//! against a from-scratch sort-and-relabel build.
//!
//! Churn batches are 50% deletions of random present edges and 50%
//! insertions of random absent edges, sized as a fraction (1% / 5% /
//! 20%) of the dataset's edge count, generated once per dataset so both
//! sides replay the identical batch.

use std::collections::HashSet;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use ic_bench::{dataset, Scale};
use ic_core::query::Algorithm as _;
use ic_dynamic::DynamicGraph;
use ic_graph::stats::graph_stats;
use ic_graph::{GraphBuilder, Pcg32, WeightedGraph};
use std::time::Duration;

const GAMMA: u32 = 4;
const K: usize = 16;

#[derive(Debug, Clone, Copy)]
enum Churn {
    Add(u64, u64),
    Del(u64, u64),
}

/// The baseline's bookkeeping: the current edge set + weights, i.e. what
/// any deployment must maintain to be able to rebuild at all.
#[derive(Clone)]
struct EdgeState {
    weights: Vec<(u64, f64)>,
    edges: HashSet<(u64, u64)>,
}

impl EdgeState {
    fn of(g: &WeightedGraph) -> Self {
        EdgeState {
            weights: (0..g.n() as u32)
                .map(|r| (g.external_id(r), g.weight(r)))
                .collect(),
            edges: g
                .edges()
                .map(|(a, b)| {
                    let (x, y) = (g.external_id(a), g.external_id(b));
                    (x.min(y), x.max(y))
                })
                .collect(),
        }
    }

    fn apply(&mut self, batch: &[Churn]) {
        for &op in batch {
            match op {
                Churn::Add(u, v) => {
                    self.edges.insert((u.min(v), u.max(v)));
                }
                Churn::Del(u, v) => {
                    self.edges.remove(&(u.min(v), u.max(v)));
                }
            }
        }
    }

    fn rebuild(&self) -> WeightedGraph {
        let mut b = GraphBuilder::with_capacity(self.edges.len());
        for &(v, w) in &self.weights {
            b.set_weight(v, w);
            b.add_vertex(v);
        }
        for &(u, v) in &self.edges {
            b.add_edge(u, v);
        }
        b.build().expect("churned state is a valid graph")
    }
}

/// Generates a valid churn batch of `ops` operations (alternating delete
/// of a present edge / insert of an absent edge) against `g`.
fn churn_batch(g: &WeightedGraph, ops: usize, seed: u64) -> Vec<Churn> {
    let n = g.n() as u32;
    let mut rng = Pcg32::new(seed);
    let mut present: Vec<(u64, u64)> = g
        .edges()
        .map(|(a, b)| {
            let (x, y) = (g.external_id(a), g.external_id(b));
            (x.min(y), x.max(y))
        })
        .collect();
    let mut set: HashSet<(u64, u64)> = present.iter().copied().collect();
    let mut batch = Vec::with_capacity(ops);
    while batch.len() < ops {
        if batch.len() % 2 == 0 {
            // delete a random present edge
            let idx = rng.gen_index(present.len());
            let (u, v) = present.swap_remove(idx);
            set.remove(&(u, v));
            batch.push(Churn::Del(u, v));
        } else {
            // insert a random absent edge
            let u = g.external_id(rng.gen_range(n));
            let v = g.external_id(rng.gen_range(n));
            let key = (u.min(v), u.max(v));
            if u == v || set.contains(&key) {
                continue;
            }
            set.insert(key);
            present.push(key);
            batch.push(Churn::Add(key.0, key.1));
        }
    }
    batch
}

fn apply_to_dynamic(dg: &mut DynamicGraph, batch: &[Churn]) {
    for &op in batch {
        match op {
            Churn::Add(u, v) => dg.insert_edge(u, v).expect("insert accepted"),
            Churn::Del(u, v) => dg.delete_edge(u, v).expect("delete accepted"),
        }
    }
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("dynamic");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(1500))
        .warm_up_time(Duration::from_millis(400));

    for name in ["email", "wiki"] {
        let g = dataset(name, Scale::Small);
        let seeded = DynamicGraph::new(g.clone());
        let baseline = EdgeState::of(g);
        for churn_pct in [1usize, 5, 20] {
            let ops = (g.m() * churn_pct / 100).max(2);
            let batch = churn_batch(g, ops, 0xC0DE + churn_pct as u64);

            // sanity: both sides produce the same answer for this batch
            {
                let mut dg = seeded.clone();
                apply_to_dynamic(&mut dg, &batch);
                let inc = dg.commit();
                let mut st = baseline.clone();
                st.apply(&batch);
                let full = st.rebuild();
                let q = ic_core::TopKQuery::new(GAMMA).k(K);
                let a = ic_core::query::exec::LocalSearch
                    .run(&inc.graph, &q)
                    .communities;
                let b = ic_core::query::exec::LocalSearch.run(&full, &q).communities;
                assert_eq!(a.len(), b.len(), "{name} {churn_pct}%: differential");
                assert_eq!(inc.stats, graph_stats(&full), "{name} {churn_pct}%: stats");
            }

            group.bench_function(format!("{name}_churn{churn_pct}pct_update"), |b| {
                b.iter(|| {
                    let mut dg = seeded.clone();
                    apply_to_dynamic(&mut dg, &batch);
                    let receipt = dg.commit();
                    black_box(
                        ic_core::query::exec::LocalSearch
                            .run(&receipt.graph, &ic_core::TopKQuery::new(GAMMA).k(K)),
                    )
                })
            });
            group.bench_function(format!("{name}_churn{churn_pct}pct_rebuild"), |b| {
                b.iter(|| {
                    let mut st = baseline.clone();
                    st.apply(&batch);
                    let full = st.rebuild();
                    let stats = graph_stats(&full); // what register() pays
                    black_box(stats);
                    black_box(
                        ic_core::query::exec::LocalSearch
                            .run(&full, &ic_core::TopKQuery::new(GAMMA).k(K)),
                    )
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
