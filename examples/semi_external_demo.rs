//! Scenario: the graph's edges live on disk (Eval-VI/VII).
//!
//! The graph is saved as an `.icsr` file, the format the service's
//! `LOADX` serves: O(n) vertex data is loaded into memory, and the edges
//! stay on disk sorted by decreasing edge weight, so the prefix subgraph
//! any τ requires is a *prefix of the adjacency section*. LocalSearch-SE
//! reads only the records it needs; OnlineAll-SE must stream the whole
//! adjacency before it can answer. This example prints the I/O and
//! resident-memory comparison behind Figures 16 and 17.
//!
//! ```sh
//! cargo run --release --example semi_external_demo
//! ```

use ic_core::semi_external::{local_search_se_top_k, online_all_se_top_k};
use ic_graph::generators::{assemble, barabasi_albert, WeightKind};
use ic_graph::{save_icsr, FileCsr, ICSR_RECORD_BYTES};
use std::time::Instant;

fn main() -> std::io::Result<()> {
    let n = 30_000;
    println!("synthesizing and spilling a {n}-vertex graph to disk...");
    let edges = barabasi_albert(n, 10, 7);
    let g = assemble(n, &edges, WeightKind::PageRank);
    let dir = std::env::temp_dir().join("ic_semi_external_demo");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("graph.icsr");
    save_icsr(&g, &path)?;
    let store = FileCsr::open(&path)?;
    let adjacency_bytes = (store.m() * ICSR_RECORD_BYTES) as u64;
    println!("  adjacency: {} edges, {adjacency_bytes} bytes", store.m());

    let gamma = 8;
    let k = 10;

    let t0 = Instant::now();
    let (ls_communities, ls) = local_search_se_top_k(&store, gamma, k)?;
    let t_ls = t0.elapsed();

    let t0 = Instant::now();
    let (oa_communities, oa) = online_all_se_top_k(&store, gamma, k)?;
    let t_oa = t0.elapsed();

    assert_eq!(ls_communities.len(), oa_communities.len());
    for (a, b) in ls_communities.iter().zip(&oa_communities) {
        assert_eq!(a.members, b.members, "identical answers");
    }

    println!("\ntop-{k} influential {gamma}-communities (identical from both):");
    for (i, c) in ls_communities.iter().take(3).enumerate() {
        println!(
            "  #{}: influence {:.3e}, {} members",
            i + 1,
            c.influence,
            c.len()
        );
    }
    println!("  ...");

    println!("\nsemi-external cost comparison:");
    println!(
        "  LocalSearch-SE: {:>9.3?}  read {:>9} B ({:>5.2}% of adjacency)  resident {:>8} edges",
        t_ls,
        ls.io.bytes_read,
        100.0 * ls.io.bytes_read as f64 / adjacency_bytes as f64,
        ls.peak_resident_edges
    );
    println!(
        "  OnlineAll-SE:   {:>9.3?}  read {:>9} B (100.00% of adjacency)  resident {:>8} edges",
        t_oa, oa.io.bytes_read, oa.peak_resident_edges
    );
    Ok(())
}
