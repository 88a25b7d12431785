//! The dynamic-update subsystem end to end: a live network absorbs edge
//! and vertex churn through `UPDATE`/`COMMIT` while queries keep
//! answering, and the same flow is shown library-level on a
//! `DynamicGraph` with its commit receipt.
//!
//! ```sh
//! cargo run --example dynamic_updates
//! ```

use influential_communities::dynamic::DynamicGraph;
use influential_communities::graph::paper::figure3;
use influential_communities::prelude::TopKQuery;
use influential_communities::service::protocol::handle_line;
use influential_communities::service::{Service, ServiceConfig};

fn main() {
    // --- protocol level: UPDATE ... COMMIT against a running service ---
    let svc = Service::new(ServiceConfig {
        workers: 2,
        cache_capacity: 64,
        cache_shards: 4,
        ..ServiceConfig::default()
    });
    svc.register("net", figure3());

    let script = [
        "# the paper graph's top community is the clique {3,11,12,20}",
        "QUERY net 3 1",
        "# sever its cheapest edge; nothing visible until COMMIT",
        "UPDATE net DEL 3 11",
        "QUERY net 3 1",
        "# the planner still sees the committed snapshot's statistics",
        "EXPLAIN net 3 1",
        "# grow a fresh high-influence clique (vertices created on the fly)",
        "UPDATE net ADD 50 51 30",
        "UPDATE net ADD 52 50 30",
        "UPDATE net ADD 52 51 30",
        "UPDATE net ADD 53 50 30",
        "UPDATE net ADD 53 51 30",
        "UPDATE net ADD 53 52 30",
        "# fold everything in: new generation, cache invalidated",
        "COMMIT net",
        "QUERY net 3 1",
        "STATS",
    ];
    for line in script {
        if line.starts_with('#') {
            println!("{line}");
            continue;
        }
        println!("> {line}");
        println!("{}", handle_line(&svc, line));
    }

    // --- library level: the same machinery without a service ------------
    println!("\n# library level: DynamicGraph with its commit receipt");
    let mut dg = DynamicGraph::new(figure3());
    dg.delete_edge(3, 11).expect("edge exists");
    dg.add_vertex(100, 25.0).expect("fresh vertex");
    dg.insert_edge(100, 12).expect("both endpoints exist");
    println!(
        "pending={} stale_core_fraction={:.3}",
        dg.pending_updates(),
        dg.stale_core_fraction()
    );
    let receipt = dg.commit();
    println!(
        "committed: n={} m={} gamma_max={} ops={} cores_visited={}",
        receipt.stats.n,
        receipt.stats.m,
        receipt.stats.gamma_max,
        receipt.ops_applied,
        receipt.cores_visited
    );
    // committed snapshots answer through the same unified query API
    let top = dg.query(&TopKQuery::new(3)).expect("valid query");
    let c = &top.communities[0];
    println!(
        "top community after churn: influence={} members={:?}",
        c.influence,
        c.external_members(&receipt.graph)
    );
}
