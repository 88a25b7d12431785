//! Semi-external algorithms over a disk-resident edge file (§3.1 Remark,
//! Eval-VI/VII): **LocalSearch-SE** and the **OnlineAll-SE** baseline.
//!
//! The semi-external model keeps `O(n)` per-vertex information in memory
//! (weights, degrees, flags) while edges live on disk, sorted by
//! decreasing edge weight (the adjacency section of an `.icsr`
//! [`ic_graph::FileCsr`]). Because the file order equals prefix order,
//! `LocalSearch-SE` — the disk-backed LocalSearch-P — reads exactly the
//! prefix it grows, giving I/O and resident-memory proportional to
//! `size(G≥τ*)`. `OnlineAll-SE` must stream the **whole file** before it
//! can report anything, because OnlineAll discovers communities in
//! increasing influence order.
//!
//! At the scales this repository runs, the entire graph fits the paper's
//! 1 GB budget, so the eviction machinery of Li et al.'s semi-external
//! OnlineAll would never trigger; the two measured quantities — total I/O
//! and peak resident edges — are unaffected.

use crate::community::Community;
use crate::enumerate::ForestBuilder;
use crate::local_search::{SearchResult, SearchStats};
use crate::online_all::online_all_core;
use crate::peel::{PeelConfig, PeelEngine, PeelGraph, PeelOutput};
use ic_graph::{IoStats, PrefixEdges, Rank, SemiExternalSource};

/// Measurements of a semi-external run (the y-axes of Figures 16–17).
#[derive(Debug, Clone, Copy, Default)]
pub struct SeStats {
    /// Bytes and read calls against the edge file.
    pub io: IoStats,
    /// Peak number of edges resident in memory at once.
    pub peak_resident_edges: usize,
    /// Vertices of the largest prefix materialized.
    pub visited_vertices: usize,
    /// Peels run (counting rounds).
    pub rounds: usize,
    /// Sum of the resident sizes (vertices + edges) of every peel — the
    /// counting work, as [`SearchStats::total_counted_size`].
    pub counted_size: u64,
}

/// In-memory resident subgraph assembled from disk records; the
/// [`PeelGraph`] the semi-external algorithms peel.
#[derive(Debug, Default)]
struct ResidentGraph {
    /// Per-vertex adjacency (both directions), ranks only.
    adj: Vec<Vec<Rank>>,
    /// Number of vertices with slots (prefix length).
    len: usize,
    edges: usize,
}

impl ResidentGraph {
    fn grow_vertices(&mut self, t: usize) {
        if t > self.adj.len() {
            self.adj.resize_with(t, Vec::new);
        }
        self.len = self.len.max(t);
    }

    fn add_edge(&mut self, lo: Rank, hi: Rank) {
        self.adj[lo as usize].push(hi);
        self.adj[hi as usize].push(lo);
        self.edges += 1;
    }

    fn size(&self) -> u64 {
        self.len as u64 + self.edges as u64
    }
}

impl PeelGraph for ResidentGraph {
    fn len(&self) -> usize {
        self.len
    }
    fn fill_degrees(&self, deg: &mut [u32]) {
        for (r, nbrs) in self.adj[..self.len].iter().enumerate() {
            deg[r] = nbrs.len() as u32;
        }
    }
    fn neighbors(&self, r: Rank) -> &[Rank] {
        &self.adj[r as usize]
    }
}

/// Disk-backed progressive local search. Identical control flow to
/// [`crate::progressive::ProgressiveSearch`], but prefix growth performs
/// real file reads (counted) and the resident subgraph is built
/// incrementally from the records. Generic over every
/// [`SemiExternalSource`] backend: `.icsr` [`ic_graph::FileCsr`] stores
/// and (with zero I/O) the in-memory [`ic_graph::WeightedGraph`].
pub fn local_search_se_top_k<S: SemiExternalSource>(
    dg: &S,
    gamma: u32,
    k: usize,
) -> std::io::Result<(Vec<Community>, SeStats)> {
    assert!(gamma >= 1 && k >= 1);
    let n = dg.n();
    let mut cursor = dg.open_edges()?;
    let mut resident = ResidentGraph::default();
    let mut record_buf: Vec<(Rank, Rank)> = Vec::new();

    let mut engine = PeelEngine::new();
    let mut out = PeelOutput::default();
    let mut builder = ForestBuilder::new();
    let mut prev_len = 0usize;
    let (mut rounds, mut counted_size) = (0usize, 0u64);

    // round 1 prefix: γ+1 vertices (one community minimum); the file is
    // sorted by the lower endpoint's rank, so extending the prefix by one
    // vertex reads exactly that vertex's N≥ list — the same O(Δsize)
    // growth as the in-memory Prefix
    let mut t = (gamma as usize + 1).min(n);
    resident.grow_vertices(t);
    record_buf.clear();
    cursor.read_prefix_edges(t, &mut record_buf)?;
    for &(lo, hi) in &record_buf {
        resident.add_edge(lo, hi);
    }
    loop {
        // ConstructCVS with early stop at the previous prefix
        let cfg = PeelConfig {
            gamma,
            stop_before: prev_len,
            track_nc: false,
        };
        engine.peel(&resident, cfg, &mut out);
        rounds += 1;
        counted_size += resident.size();
        builder.add_peel(&resident, &out, usize::MAX, |r| dg.weight(r));
        prev_len = t;

        if builder.forest().len() >= k || t == n {
            break;
        }
        // grow vertex-by-vertex until the resident size at least doubles
        // (Algorithm 4 line 8), reading each new vertex's edges from disk
        let target_size = resident.size().saturating_mul(2);
        while resident.size() < target_size && t < n {
            t += 1;
            resident.grow_vertices(t);
            record_buf.clear();
            cursor.read_prefix_edges(t, &mut record_buf)?;
            for &(lo, hi) in &record_buf {
                resident.add_edge(lo, hi);
            }
        }
    }

    let stats = SeStats {
        io: cursor.io_stats(),
        peak_resident_edges: resident.edges,
        visited_vertices: resident.len,
        rounds,
        counted_size,
    };
    // entries are numbered in reporting order (decreasing influence), so
    // the top k are the forest's first k entries
    let communities = builder.forest().communities_prefix(k);
    Ok((communities, stats))
}

/// Disk-backed OnlineAll: streams the **entire** edge file into memory
/// (counting the I/O), then runs OnlineAll in memory. Peak resident size
/// is the whole graph — the contrast of Figure 17. Generic over every
/// [`SemiExternalSource`] backend like [`local_search_se_top_k`].
pub fn online_all_se_top_k<S: SemiExternalSource>(
    dg: &S,
    gamma: u32,
    k: usize,
) -> std::io::Result<(Vec<Community>, SeStats)> {
    assert!(gamma >= 1 && k >= 1);
    let n = dg.n();
    let mut cursor = dg.open_edges()?;
    let mut resident = ResidentGraph::default();
    resident.grow_vertices(n);
    while let Some((lo, hi)) = cursor.next_edge()? {
        resident.add_edge(lo, hi);
    }
    let run = online_all_core(&resident, gamma, k);
    let stats = SeStats {
        io: cursor.io_stats(),
        peak_resident_edges: resident.edges,
        visited_vertices: n,
        rounds: 1,
        counted_size: resident.size(),
    };
    let communities = run
        .kept
        .into_iter()
        .rev()
        .map(|(keynode, members)| Community {
            keynode,
            influence: dg.weight(keynode),
            members,
        })
        .collect();
    Ok((communities, stats))
}

/// Re-expresses a semi-external run in the uniform [`SearchResult`]
/// shape: the visited prefix becomes the accessed-prefix stats, the
/// peels its rounds and counting work, and the [`IoStats`] land in
/// [`SearchStats::bytes_read`]/[`SearchStats::read_ops`] — the counters
/// the service `STATS` verb surfaces per query.
pub(crate) fn se_search_result(communities: Vec<Community>, se: SeStats) -> SearchResult {
    let stats = SearchStats {
        rounds: se.rounds,
        final_prefix_len: se.visited_vertices,
        final_prefix_size: se.visited_vertices as u64 + se.peak_resident_edges as u64,
        total_counted_size: se.counted_size,
        bytes_read: se.io.bytes_read,
        read_ops: se.io.read_ops,
        ..SearchStats::default()
    };
    crate::query::flat_result(communities, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progressive::ProgressiveSearch;
    use ic_graph::generators::{assemble, barabasi_albert, gnm, WeightKind};
    use ic_graph::paper::figure3;
    use ic_graph::scratch::ScratchDir;
    use ic_graph::{save_icsr, FileCsr, WeightedGraph};

    fn disk(g: &WeightedGraph, dir: &ScratchDir, name: &str) -> FileCsr {
        let path = dir.file(name);
        save_icsr(g, &path).unwrap();
        FileCsr::open(&path).unwrap()
    }

    #[test]
    fn both_se_variants_match_in_memory_results() {
        let dir = ScratchDir::new("ic-se");
        let g = figure3();
        let dg = disk(&g, &dir, "fig3.bin");
        for gamma in 1..=4u32 {
            for k in [1usize, 2, 4] {
                let q = crate::query::TopKQuery::new(gamma).k(k);
                let reference = crate::local_search::query_top_k(&g, &q).communities;
                let (ls, _) = local_search_se_top_k(&dg, gamma, k).unwrap();
                let (oa, _) = online_all_se_top_k(&dg, gamma, k).unwrap();
                assert_eq!(ls.len(), reference.len(), "LS-SE gamma={gamma} k={k}");
                assert_eq!(oa.len(), reference.len(), "OA-SE gamma={gamma} k={k}");
                for ((a, b), c) in ls.iter().zip(&oa).zip(&reference) {
                    assert_eq!(a.members, c.members);
                    assert_eq!(b.members, c.members);
                }
            }
        }
    }

    #[test]
    fn local_reads_less_io_than_online_all() {
        let dir = ScratchDir::new("ic-se");
        let e = barabasi_albert(2000, 5, 42);
        let g = assemble(2000, &e, WeightKind::PageRank);
        let dg = disk(&g, &dir, "ba.bin");
        let (_, ls) = local_search_se_top_k(&dg, 3, 5).unwrap();
        let (_, oa) = online_all_se_top_k(&dg, 3, 5).unwrap();
        assert_eq!(
            oa.io.edges_read(),
            g.m() as u64,
            "OnlineAll-SE reads everything"
        );
        assert!(
            ls.io.edges_read() < oa.io.edges_read() / 2,
            "LocalSearch-SE should read a small prefix: {} vs {}",
            ls.io.edges_read(),
            oa.io.edges_read()
        );
        assert!(ls.peak_resident_edges < oa.peak_resident_edges / 2);
    }

    #[test]
    fn se_stats_are_consistent() {
        let dir = ScratchDir::new("ic-se");
        let g = figure3();
        let dg = disk(&g, &dir, "stats.bin");
        let (_, st) = local_search_se_top_k(&dg, 3, 1).unwrap();
        assert_eq!(st.io.edges_read() as usize, st.peak_resident_edges);
        assert!(st.visited_vertices <= g.n());
    }

    /// LocalSearch-SE runs LocalSearch-P's rounds (δ = 2) from an edge
    /// stream, so after k items both report the same rounds, counting
    /// work and final prefix — in memory and from an `.icsr` file.
    #[test]
    fn se_statistics_equal_local_search_p_after_k_items() {
        let dir = ScratchDir::new("ic-se");
        let graphs = [
            figure3(),
            assemble(3000, &barabasi_albert(3000, 4, 9), WeightKind::PageRank),
            assemble(2000, &gnm(2000, 9000, 5), WeightKind::Uniform(5)),
        ];
        let mut multi_round = false;
        for (i, g) in graphs.iter().enumerate() {
            let file = disk(g, &dir, &format!("g{i}.icsr"));
            for gamma in [2u32, 3, 4] {
                for k in [1usize, 10, 100] {
                    let mut p = ProgressiveSearch::new(g, gamma);
                    let taken = p.by_ref().take(k).count();
                    let expected = p.stats();
                    multi_round |= expected.rounds > 1;
                    let (mem, mem_se) = local_search_se_top_k(g, gamma, k).unwrap();
                    let (disk, disk_se) = local_search_se_top_k(&file, gamma, k).unwrap();
                    for (label, cs, se) in [("memory", mem, mem_se), ("file", disk, disk_se)] {
                        let got = se_search_result(cs, se);
                        let ctx = format!("g{i} gamma={gamma} k={k} {label}");
                        assert_eq!(got.communities.len(), taken, "{ctx}");
                        assert_eq!(got.stats.rounds, expected.rounds, "{ctx}");
                        assert_eq!(
                            got.stats.total_counted_size, expected.total_counted_size,
                            "{ctx}"
                        );
                        assert_eq!(
                            got.stats.final_prefix_size, expected.final_prefix_size,
                            "{ctx}"
                        );
                        assert_eq!(
                            got.stats.final_prefix_len, expected.final_prefix_len,
                            "{ctx}"
                        );
                    }
                }
            }
        }
        assert!(multi_round, "no case grew the prefix");
    }

    #[test]
    fn exhausting_k_beyond_total_reads_whole_file() {
        let dir = ScratchDir::new("ic-se");
        let g = figure3();
        let dg = disk(&g, &dir, "all.bin");
        let (cs, st) = local_search_se_top_k(&dg, 3, 1000).unwrap();
        let q = crate::query::TopKQuery::new(3).k(1000);
        let reference = crate::local_search::query_top_k(&g, &q).communities;
        assert_eq!(cs.len(), reference.len());
        assert_eq!(st.io.edges_read(), g.m() as u64);
    }
}
