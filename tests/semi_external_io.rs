//! Integration tests for the semi-external algorithms: answers must match
//! the in-memory algorithms exactly, and the I/O profile must show the
//! locality the paper measures (LocalSearch-SE reads a prefix;
//! OnlineAll-SE streams everything).

use ic_graph::generators::{assemble, barabasi_albert, gnm, WeightKind};
use ic_graph::scratch::ScratchDir;
use ic_graph::{save_icsr, FileCsr, WeightedGraph};
use influential_communities::search::{semi_external, TopKQuery};

fn spill(g: &WeightedGraph, dir: &ScratchDir, name: &str) -> FileCsr {
    let path = dir.file(name);
    save_icsr(g, &path).unwrap();
    FileCsr::open(&path).unwrap()
}

#[test]
fn se_answers_match_in_memory_on_random_graphs() {
    let dir = ScratchDir::new("ic-it-se");
    for seed in 0..4u64 {
        let n = 120;
        let g = assemble(n, &gnm(n, 500, seed), WeightKind::Uniform(seed + 11));
        let dg = spill(&g, &dir, &format!("gnm-{seed}.bin"));
        for gamma in 1..=4u32 {
            for k in [1usize, 3, 9] {
                let reference = TopKQuery::new(gamma).k(k).run(&g).unwrap().communities;
                let (ls, _) = semi_external::local_search_se_top_k(&dg, gamma, k).unwrap();
                let (oa, _) = semi_external::online_all_se_top_k(&dg, gamma, k).unwrap();
                assert_eq!(ls.len(), reference.len(), "seed={seed} γ={gamma} k={k}");
                assert_eq!(oa.len(), reference.len());
                for ((a, b), c) in ls.iter().zip(&oa).zip(&reference) {
                    assert_eq!(a.members, c.members, "LS-SE seed={seed} γ={gamma} k={k}");
                    assert_eq!(b.members, c.members, "OA-SE seed={seed} γ={gamma} k={k}");
                    assert_eq!(a.influence, c.influence);
                }
            }
        }
    }
}

#[test]
fn io_locality_shape() {
    // on a larger skewed graph, LocalSearch-SE must read a small fraction
    // of the file while OnlineAll-SE reads all of it (Figures 16–17)
    let dir = ScratchDir::new("ic-it-se");
    let n = 5_000;
    let g = assemble(n, &barabasi_albert(n, 6, 31), WeightKind::PageRank);
    let dg = spill(&g, &dir, "ba-locality.bin");
    let (_, ls) = semi_external::local_search_se_top_k(&dg, 4, 5).unwrap();
    let (_, oa) = semi_external::online_all_se_top_k(&dg, 4, 5).unwrap();
    assert_eq!(oa.io.edges_read(), g.m() as u64);
    assert!(
        (ls.io.edges_read() as f64) < 0.5 * g.m() as f64,
        "LocalSearch-SE read {}/{} edges",
        ls.io.edges_read(),
        g.m()
    );
    assert!(ls.peak_resident_edges <= oa.peak_resident_edges);
    assert!(ls.visited_vertices <= n);
}

#[test]
fn se_io_grows_with_k() {
    let dir = ScratchDir::new("ic-it-se");
    let n = 3_000;
    let g = assemble(n, &barabasi_albert(n, 5, 13), WeightKind::PageRank);
    let dg = spill(&g, &dir, "ba-growth.bin");
    let mut prev = 0u64;
    for k in [1usize, 5, 25, 125] {
        let (_, st) = semi_external::local_search_se_top_k(&dg, 3, k).unwrap();
        assert!(
            st.io.bytes_read >= prev,
            "I/O must be monotone in k: {} then {}",
            prev,
            st.io.bytes_read
        );
        prev = st.io.bytes_read;
    }
}
