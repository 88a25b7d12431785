//! Scenario: the paper's future-work extension — **query-dependent
//! weights** (§1 footnote, §7). Given query vertices, weight every vertex
//! by the reciprocal of its BFS distance to the query set and search for
//! the top influential communities *around the query*, as in closest
//! community search. Because LocalSearch needs no index, an ad-hoc weight
//! vector costs one re-rank, O(n log n + m log d) at worst — the regime
//! where index-based approaches (which bake in a single weight vector)
//! cannot compete.
//!
//! ```sh
//! cargo run --release --example closest_communities
//! ```

use ic_core::query_weights::closest;
use ic_core::TopKQuery;
use ic_graph::generators::{assemble, planted_partition, WeightKind};

fn main() {
    // a planted-partition network: 8 groups of 40 members
    let groups = 8usize;
    let size = 40usize;
    let edges = planted_partition(groups, size, 0.4, 0.004, 2026);
    let g = assemble(groups * size, &edges, WeightKind::Uniform(1));
    println!(
        "planted-partition network: {} vertices, {} edges, {} groups",
        g.n(),
        g.m(),
        groups
    );

    // query a vertex from group 4 (external ids 160..200) and one from
    // group 6 (240..280)
    for probe in [165u64, 250] {
        let rank = g.rank_of_external(probe).expect("vertex exists");
        let res = closest(&g, &[rank], &TopKQuery::new(5).k(2)).expect("valid query");
        println!(
            "\nquery vertex {probe} (its planted group: {}):",
            probe as usize / size
        );
        for (i, c) in res.communities.iter().enumerate() {
            let members = c.external_members(&g);
            // which planted group dominates the returned community?
            let mut counts = vec![0usize; groups];
            for &m in &members {
                counts[m as usize / size] += 1;
            }
            let (best_group, hits) = counts.iter().enumerate().max_by_key(|(_, &c)| c).unwrap();
            println!(
                "  closest community #{}: {} members, {:.0}% from planted group {}",
                i + 1,
                members.len(),
                100.0 * *hits as f64 / members.len() as f64,
                best_group
            );
            assert_eq!(
                best_group,
                probe as usize / size,
                "the closest community must concentrate around the query's group"
            );
        }
    }
    println!("\nboth queries recovered their own planted groups — same graph, two\nweight vectors, zero index maintenance.");
}
