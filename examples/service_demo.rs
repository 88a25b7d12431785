//! The query-serving subsystem driven in-process: registers two graphs,
//! speaks the same line protocol the TCP `serve` binary speaks, and shows
//! the planner, the result cache, and a progressive session at work.
//!
//! ```sh
//! cargo run --example service_demo
//! ```

use influential_communities::graph::paper::figure3;
use influential_communities::service::protocol::handle_line;
use influential_communities::service::{Service, ServiceConfig};

fn main() {
    // A service sized like a small deployment: 4 search slots, a cache.
    let svc = Service::new(ServiceConfig {
        workers: 4,
        cache_capacity: 256,
        cache_shards: 8,
        ..ServiceConfig::default()
    });

    // Graphs are registered once and shared, immutably, across threads.
    svc.register("fig3", figure3());

    // Every request below goes through the exact request → reply function
    // the TCP front-end uses, so this demo doubles as a protocol tour.
    let script = [
        "# register a synthetic social network alongside the paper graph",
        "GEN social ba 400 4 42",
        "GRAPHS",
        "# the planner explains itself before running anything",
        "EXPLAIN fig3 3 4",
        "EXPLAIN social 2 300",
        "# batch queries: the second is a cache hit",
        "QUERY fig3 3 4",
        "QUERY fig3 3 4",
        "# force a specific algorithm — same answer, different plan",
        "QUERY fig3 3 4 online_all",
        "# the truss family answers through the same verb (own cache lane)",
        "QUERY fig3 4 1 truss",
        "# progressive session: pull communities one at a time",
        "OPEN social 4",
        "NEXT 1",
        "NEXT 1 2",
        "CLOSE 1",
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
}
