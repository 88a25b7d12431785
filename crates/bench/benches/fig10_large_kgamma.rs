//! Figure 10: Forward vs LocalSearch-P at large k and γ (sweep scaled to
//! the stand-ins' degeneracy).

use criterion::{criterion_group, criterion_main, Criterion};
use ic_bench::{dataset, Scale};
use ic_core::query::{exec, Algorithm as _};
use ic_core::{progressive, TopKQuery};
use std::time::Duration;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10");
    group
        .sample_size(10)
        .measurement_time(Duration::from_millis(900))
        .warm_up_time(Duration::from_millis(200));
    let g = dataset("twitter", Scale::Small);
    for (gamma, k) in [(20u32, 50usize), (20, 200), (30, 100)] {
        group.bench_function(format!("forward/twitter/g{gamma}k{k}"), |b| {
            let q = TopKQuery::new(gamma).k(k);
            b.iter(|| exec::Forward.run(g, &q))
        });
        group.bench_function(format!("local_search_p/twitter/g{gamma}k{k}"), |b| {
            b.iter(|| {
                progressive::ProgressiveSearch::new(g, gamma)
                    .take(k)
                    .count()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
