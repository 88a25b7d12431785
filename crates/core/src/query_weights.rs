//! Query-dependent vertex weights — the paper's stated future-work
//! extension (§1 footnote 1 and §7): *"the weight of a vertex is computed
//! online based on a query, e.g., the reciprocal of the shortest distance
//! to query vertices as studied in closest community search \[23\]"*.
//!
//! Because LocalSearch is index-free, supporting an ad-hoc weight vector
//! only requires re-ranking the vertices for the query: we compute the
//! multi-source BFS distance `d(v)` from the query set, weight every
//! vertex `1 / (1 + d(v))` (unreachable vertices get weight 0), re-rank
//! the weight-sorted view with [`WeightedGraph::reranked`], and run the
//! unchanged framework. The re-rank sorts the vertices once and relabels
//! every adjacency list in place of a full edge-list rebuild, and the
//! permutation it returns translates each community member back to the
//! original ranks in O(1). That one-off cost is what the paper's
//! index-based competitors cannot avoid *per weight vector*, and exactly
//! why the paper argues online search is the right regime for this
//! workload.

use crate::community::Community;
use crate::local_search::LocalSearch;
use crate::query::{QueryError, TopKQuery};
use ic_graph::{Rank, WeightedGraph};

/// Result of a closest-community query.
#[derive(Debug)]
pub struct ClosestResult {
    /// Top-k communities under the query-distance weighting, re-expressed
    /// in the *original* graph's ranks.
    pub communities: Vec<Community>,
    /// BFS distance of each original rank from the query set (`u32::MAX`
    /// if unreachable).
    pub distances: Vec<u32>,
}

/// Multi-source BFS distances from `sources` (original ranks).
pub fn bfs_distances(g: &WeightedGraph, sources: &[Rank]) -> Vec<u32> {
    let mut dist = vec![u32::MAX; g.n()];
    let mut queue: std::collections::VecDeque<Rank> = std::collections::VecDeque::new();
    for &s in sources {
        if dist[s as usize] == u32::MAX {
            dist[s as usize] = 0;
            queue.push_back(s);
        }
    }
    while let Some(v) = queue.pop_front() {
        let dv = dist[v as usize];
        for &w in g.neighbors(v) {
            if dist[w as usize] == u32::MAX {
                dist[w as usize] = dv + 1;
                queue.push_back(w);
            }
        }
    }
    dist
}

/// Top-k influential γ-communities under the **closest-community
/// weighting**: `ω(v) = 1 / (1 + d(v, Q))` for source vertex set
/// `sources`. Communities therefore gather around the query vertices;
/// the influence value of a community is determined by its member
/// *farthest* from the sources.
///
/// `sources` contains ranks of `g`; unreachable vertices never join a
/// community (weight 0 puts them at the very end of the order, and any
/// community containing one would have influence 0). The `(γ, k)` pair,
/// δ, and counting strategy come from the unified [`TopKQuery`]; the
/// re-ranked graph always runs the local-search framework (index-free
/// search is the whole point of ad-hoc weights).
pub fn closest(
    g: &WeightedGraph,
    sources: &[Rank],
    q: &TopKQuery,
) -> Result<ClosestResult, QueryError> {
    if sources.is_empty() {
        return Err(QueryError::EmptySourceSet);
    }
    q.validate()?;
    // The re-ranked search is the local-search framework by construction;
    // knobs that would silently change the answer family or algorithm are
    // rejected rather than ignored.
    if q.is_non_containment() {
        return Err(QueryError::Unsupported {
            algorithm: crate::query::AlgorithmId::LocalSearch,
            feature: "non-containment search under query-dependent weights",
        });
    }
    if let crate::query::Selection::Forced(id) = q.selection() {
        if id != crate::query::AlgorithmId::LocalSearch {
            return Err(QueryError::Unsupported {
                algorithm: id,
                feature: "query-dependent weighting (closest community search \
                          runs the local-search framework)",
            });
        }
    }
    Ok(closest_impl(g, sources, q))
}

/// One-shot convenience shim over [`closest`], kept for one release.
#[deprecated(
    since = "0.2.0",
    note = "use `closest(&g, sources, &TopKQuery::new(gamma).k(k))`"
)]
pub fn closest_top_k(g: &WeightedGraph, query: &[Rank], gamma: u32, k: usize) -> ClosestResult {
    match closest(g, query, &TopKQuery::new(gamma).k(k)) {
        Ok(res) => res,
        Err(e) => panic!("invalid query: {e}"),
    }
}

fn closest_impl(g: &WeightedGraph, query: &[Rank], q: &TopKQuery) -> ClosestResult {
    let distances = bfs_distances(g, query);
    // Re-rank the weight-sorted view under the ad-hoc weights; ties at
    // equal distance are broken by external id as usual.
    let weights: Vec<f64> = distances
        .iter()
        .map(|&d| match d {
            u32::MAX => 0.0,
            d => 1.0 / (1.0 + d as f64),
        })
        .collect();
    let (gq, original) = g.reranked(&weights, &[]);

    let res =
        LocalSearch::with_options(q.local_search_options()).run(&gq, q.gamma_value(), q.k_value());
    // translate members back to the original graph's ranks
    let communities = res
        .communities
        .into_iter()
        .map(|c| {
            let mut members: Vec<Rank> =
                c.members.iter().map(|&rq| original[rq as usize]).collect();
            members.sort_unstable();
            let keynode = *members
                .iter()
                .max_by_key(|&&r| distances[r as usize])
                .expect("non-empty community");
            Community {
                keynode,
                influence: c.influence,
                members,
            }
        })
        .collect();
    ClosestResult {
        communities,
        distances,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::paper::figure3;

    fn ids(g: &WeightedGraph, ranks: &[Rank]) -> Vec<u64> {
        let mut v: Vec<u64> = ranks.iter().map(|&r| g.external_id(r)).collect();
        v.sort_unstable();
        v
    }

    fn closest_top_k(g: &WeightedGraph, query: &[Rank], gamma: u32, k: usize) -> ClosestResult {
        closest(g, query, &TopKQuery::new(gamma).k(k)).expect("valid query")
    }

    #[test]
    fn bfs_distances_from_single_source() {
        let g = figure3();
        let r3 = g.rank_of_external(3).unwrap();
        let d = bfs_distances(&g, &[r3]);
        assert_eq!(d[r3 as usize], 0);
        let r11 = g.rank_of_external(11).unwrap();
        assert_eq!(d[r11 as usize], 1, "v11 is adjacent to v3");
        // every vertex of the (connected) example graph is reached
        assert!(d.iter().all(|&x| x != u32::MAX));
    }

    #[test]
    fn multi_source_takes_minimum() {
        let g = figure3();
        let r3 = g.rank_of_external(3).unwrap();
        let r1 = g.rank_of_external(1).unwrap();
        let single = bfs_distances(&g, &[r3]);
        let multi = bfs_distances(&g, &[r3, r1]);
        for r in 0..g.n() {
            assert!(multi[r] <= single[r]);
        }
        assert_eq!(multi[r1 as usize], 0);
    }

    #[test]
    fn closest_community_gathers_around_query() {
        let g = figure3();
        // query at v3: the top community under distance weighting must
        // contain v3's clique, not the far-away {v1, v6, v7, v16} block
        let r3 = g.rank_of_external(3).unwrap();
        let res = closest_top_k(&g, &[r3], 3, 1);
        assert_eq!(res.communities.len(), 1);
        let members = ids(&g, &res.communities[0].members);
        assert!(
            members.contains(&3),
            "query vertex in its closest community"
        );
        assert!(
            !members.contains(&1) && !members.contains(&16),
            "far block must not win: {members:?}"
        );
    }

    #[test]
    fn query_at_other_block_flips_the_answer() {
        let g = figure3();
        let r7 = g.rank_of_external(7).unwrap();
        let res = closest_top_k(&g, &[r7], 3, 1);
        let members = ids(&g, &res.communities[0].members);
        assert!(members.contains(&7));
        assert!(
            !members.contains(&11),
            "v11's block is farther: {members:?}"
        );
    }

    #[test]
    fn communities_satisfy_definition_under_requery() {
        use crate::community::verify;
        let g = figure3();
        let r13 = g.rank_of_external(13).unwrap();
        let res = closest_top_k(&g, &[r13], 3, 5);
        for c in &res.communities {
            // cohesive + connected under the ORIGINAL topology
            assert!(verify::is_connected(&g, &c.members));
            assert!(verify::min_degree(&g, &c.members) >= 3);
        }
    }

    #[test]
    fn empty_query_rejected() {
        let g = figure3();
        assert_eq!(
            closest(&g, &[], &TopKQuery::new(3)).unwrap_err(),
            QueryError::EmptySourceSet
        );
        assert!(closest(&g, &[0], &TopKQuery::new(0)).is_err());
    }

    #[test]
    fn unsupported_knobs_rejected_not_ignored() {
        use crate::query::{AlgorithmId, Selection};
        let g = figure3();
        // asking for a different answer family or algorithm must error,
        // never silently run plain LocalSearch
        assert!(matches!(
            closest(&g, &[0], &TopKQuery::new(3).non_containment(true)).unwrap_err(),
            QueryError::Unsupported { .. }
        ));
        assert!(matches!(
            closest(
                &g,
                &[0],
                &TopKQuery::new(3).algorithm(Selection::Forced(AlgorithmId::OnlineAll))
            )
            .unwrap_err(),
            QueryError::Unsupported { .. }
        ));
        // an explicitly forced LocalSearch is exactly what runs anyway
        let forced = TopKQuery::new(3).algorithm(Selection::Forced(AlgorithmId::LocalSearch));
        assert!(closest(&g, &[0], &forced).is_ok());
    }
}
