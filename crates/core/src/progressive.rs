//! **LocalSearch-P** (Algorithm 4): progressive top-k influential
//! community search.
//!
//! Instead of counting first and enumerating at the end, LocalSearch-P
//! reports communities **as soon as they are determined**, in decreasing
//! influence value order, so `k` need not be specified — the consumer
//! simply stops iterating ("the user can terminate the algorithm once
//! having seen enough results").
//!
//! Each round peels the current prefix `G≥τᵢ` with ConstructCVS
//! (Algorithm 5), stopping as soon as the minimum-weight alive vertex
//! falls inside the previous prefix: the paper shows the `keys`/`cvs` of
//! `G≥τᵢ₋₁` form a suffix of those of `G≥τᵢ`, so everything at or above
//! the previous threshold was already reported. New communities link to
//! previously reported ones through the shared EnumIC-P state
//! ([`crate::enumerate::ForestBuilder`]), whose `v2key` union-find is
//! global across rounds exactly as §4 prescribes.

use std::collections::VecDeque;
use std::ops::Deref;

use crate::community::{Community, CommunityForest};
use crate::enumerate::ForestBuilder;
use crate::local_search::{SearchResult, SearchStats};
use crate::peel::{PeelConfig, PeelEngine, PeelOutput};
use ic_graph::{Prefix, WeightedGraph};

/// A progressive community stream. Implements [`Iterator`]; items arrive
/// in strictly decreasing influence order. The graph handle `G` may borrow
/// the graph (`&WeightedGraph`) or own a share of it (`Arc<WeightedGraph>`).
#[derive(Debug)]
pub struct ProgressiveSearch<G> {
    g: G,
    gamma: u32,
    delta: f64,
    /// Length and size of the prefix the next round peels; the round
    /// rebuilds its [`Prefix`] view, with its members' in-prefix degrees,
    /// in O(size), under its O(size) peel.
    len: usize,
    size: u64,
    /// Length of the previous round's prefix (`stop_before` for
    /// ConstructCVS); 0 before the first round.
    prev_len: usize,
    engine: PeelEngine,
    out: PeelOutput,
    builder: ForestBuilder,
    /// Forest entries built but not yet yielded, front = next.
    pending: VecDeque<u32>,
    exhausted: bool,
    /// Rounds executed and counting work, mirroring
    /// [`crate::local_search::SearchStats`] for the batch algorithm.
    rounds: usize,
    /// `size(G≥τ)` of the most recently peeled prefix (the prefix itself
    /// may already have grown for the next round).
    prev_size: u64,
    total_counted_size: u64,
}

impl<G: Deref<Target = WeightedGraph>> ProgressiveSearch<G> {
    /// Starts a progressive query with the default growth ratio δ = 2
    /// (Algorithm 4 line 8 hard-codes 2; [`Self::with_delta`] generalizes).
    pub fn new(g: G, gamma: u32) -> Self {
        Self::with_delta(g, gamma, 2.0)
    }

    /// Progressive query with a custom growth ratio δ > 1.
    pub fn with_delta(g: G, gamma: u32, delta: f64) -> Self {
        assert!(gamma >= 1, "gamma must be at least 1");
        assert!(delta > 1.0, "growth ratio must exceed 1");
        // line 1: the largest τ whose prefix could hold one community —
        // a γ-community has at least γ+1 vertices
        let first = Prefix::with_len(&g, gamma as usize + 1);
        let (len, size) = (first.len(), first.size());
        ProgressiveSearch {
            g,
            gamma,
            delta,
            len,
            size,
            prev_len: 0,
            engine: PeelEngine::new(),
            out: PeelOutput::default(),
            builder: ForestBuilder::new(),
            pending: VecDeque::new(),
            exhausted: false,
            rounds: 0,
            prev_size: 0,
            total_counted_size: 0,
        }
    }

    /// The forest of all communities reported so far (entry order =
    /// reporting order).
    pub fn forest(&self) -> &CommunityForest {
        self.builder.forest()
    }

    /// `size(G≥τ)` of the prefix accessed so far — the progressive
    /// analogue of [`crate::local_search::SearchStats::final_prefix_size`].
    pub fn accessed_size(&self) -> u64 {
        self.size
    }

    /// Access statistics so far, in the same shape as the batch
    /// algorithm's [`SearchStats`] so downstream consumers (e.g. a query
    /// planner) can treat both uniformly.
    pub fn stats(&self) -> SearchStats {
        SearchStats {
            rounds: self.rounds,
            final_prefix_len: self.prev_len,
            final_prefix_size: self.prev_size,
            total_counted_size: self.total_counted_size,
            ..SearchStats::default()
        }
    }

    /// Runs one round of Algorithm 4 (lines 5–9): peel the current prefix
    /// down to the previous threshold, register new communities, then grow
    /// the prefix. Returns `false` when the whole graph has been consumed.
    fn advance_round(&mut self) -> bool {
        if self.exhausted {
            return false;
        }
        // line 5: ConstructCVS(G≥τi, γ, τi−1)
        let g: &WeightedGraph = &self.g;
        let mut prefix = Prefix::with_len(g, self.len);
        let cfg = PeelConfig {
            gamma: self.gamma,
            stop_before: self.prev_len,
            track_nc: false,
        };
        self.engine.peel(&prefix, cfg, &mut self.out);
        self.rounds += 1;
        self.prev_size = prefix.size();
        self.total_counted_size += prefix.size();
        // line 6: EnumIC-P — new keynodes in decreasing weight order
        let entries = self
            .builder
            .add_peel(&prefix, &self.out, usize::MAX, |r| g.weight(r));
        self.pending.extend(entries);
        self.prev_len = prefix.len();
        // line 7: terminate after processing the full graph
        if prefix.is_full() {
            self.exhausted = true;
        } else {
            // line 8: grow to at least δ × current size (τmin fallback is
            // implicit: extend_to_size caps at the full graph)
            let target = (prefix.size() as f64 * self.delta).ceil() as u64;
            prefix.extend_to_size(target.max(prefix.size() + 1));
            self.len = prefix.len();
            self.size = prefix.size();
        }
        true
    }
}

impl<G: Deref<Target = WeightedGraph>> Iterator for ProgressiveSearch<G> {
    type Item = Community;

    fn next(&mut self) -> Option<Community> {
        while self.pending.is_empty() {
            if !self.advance_round() {
                return None;
            }
        }
        let entry = self.pending.pop_front().expect("checked non-empty");
        Some(self.builder.forest().community(entry as usize))
    }
}

/// Uniform entry point for the [`crate::query::Algorithm`] trait:
/// consumes the progressive stream up to k items, honoring the query's
/// growth ratio δ.
pub(crate) fn query_top_k(g: &WeightedGraph, q: &crate::query::TopKQuery) -> SearchResult {
    debug_assert!(q.k_value() >= 1, "query must be validated");
    let mut search = ProgressiveSearch::with_delta(g, q.gamma_value(), q.delta_value());
    let communities: Vec<Community> = search.by_ref().take(q.k_value()).collect();
    let stats = search.stats();
    SearchResult {
        communities,
        forest: search.builder.into_forest(),
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::community::verify;
    use ic_graph::paper::{figure1, figure2a, figure3};
    use ic_graph::Rank;
    use std::sync::Arc;

    fn ids(g: &WeightedGraph, ranks: &[Rank]) -> Vec<u64> {
        let mut v: Vec<u64> = ranks.iter().map(|&r| g.external_id(r)).collect();
        v.sort_unstable();
        v
    }

    fn top_k(g: &WeightedGraph, gamma: u32, k: usize) -> SearchResult {
        query_top_k(g, &crate::query::TopKQuery::new(gamma).k(k))
    }

    fn reference_top_k(g: &WeightedGraph, gamma: u32, k: usize) -> SearchResult {
        crate::local_search::query_top_k(g, &crate::query::TopKQuery::new(gamma).k(k))
    }

    #[test]
    fn streams_figure3_in_decreasing_influence_order() {
        let g = figure3();
        let all: Vec<Community> = ProgressiveSearch::new(&g, 3).collect();
        assert!(all.len() >= 4);
        for w in all.windows(2) {
            assert!(w[0].influence > w[1].influence);
        }
        assert_eq!(ids(&g, &all[0].members), vec![3, 11, 12, 20]);
        assert_eq!(ids(&g, &all[1].members), vec![1, 6, 7, 16]);
        assert_eq!(ids(&g, &all[2].members), vec![3, 11, 12, 13, 20]);
        assert_eq!(ids(&g, &all[3].members), vec![1, 5, 6, 7, 16]);
    }

    #[test]
    fn agrees_with_local_search_for_every_k() {
        for g in [figure1(), figure2a(), figure3()] {
            for gamma in 1..=4u32 {
                let reference = reference_top_k(&g, gamma, 100).communities;
                let streamed: Vec<Community> = ProgressiveSearch::new(&g, gamma).collect();
                assert_eq!(streamed.len(), reference.len(), "gamma={gamma}");
                for (a, b) in streamed.iter().zip(&reference) {
                    assert_eq!(a.keynode, b.keynode);
                    assert_eq!(a.members, b.members);
                }
            }
        }
    }

    #[test]
    fn early_termination_accesses_less() {
        let g = figure3();
        let mut s = ProgressiveSearch::new(&g, 3);
        let first = s.next().unwrap();
        assert_eq!(ids(&g, &first.members), vec![3, 11, 12, 20]);
        let after_one = s.accessed_size();
        // draining everything forces the prefix to the full graph
        let _: Vec<_> = s.by_ref().collect();
        assert!(after_one <= s.accessed_size());
        assert_eq!(s.accessed_size(), g.size());
    }

    #[test]
    fn take_k_matches_paper_top4() {
        let g = figure3();
        let res = top_k(&g, 3, 4);
        assert_eq!(res.communities.len(), 4);
        assert_eq!(
            res.communities
                .iter()
                .map(|c| c.influence)
                .collect::<Vec<_>>(),
            vec![18.0, 14.0, 13.0, 12.0]
        );
        // the stats are populated, not defaulted, and the forest holds at
        // least the reported communities
        assert!(res.stats.rounds >= 1);
        assert!(res.stats.final_prefix_size > 0);
        assert!(res.stats.total_counted_size >= res.stats.final_prefix_size);
        assert!(res.forest.len() >= 4);
    }

    #[test]
    fn top_k_matches_local_search_result_shape() {
        let g = figure3();
        let a = top_k(&g, 3, 4);
        let b = reference_top_k(&g, 3, 4);
        assert_eq!(a.communities.len(), b.communities.len());
        for (x, y) in a.communities.iter().zip(&b.communities) {
            assert_eq!(x.keynode, y.keynode);
            assert_eq!(x.members, y.members);
        }
    }

    #[test]
    fn every_streamed_community_satisfies_definition() {
        let g = figure3();
        for gamma in 1..=4u32 {
            for c in ProgressiveSearch::new(&g, gamma) {
                assert!(
                    verify::is_influential_community(&g, &c.members, gamma),
                    "gamma={gamma} community {:?}",
                    ids(&g, &c.members)
                );
            }
        }
    }

    #[test]
    fn no_duplicates_across_rounds() {
        let g = figure3();
        let all: Vec<Community> = ProgressiveSearch::new(&g, 3).collect();
        let mut keynodes: Vec<Rank> = all.iter().map(|c| c.keynode).collect();
        keynodes.sort_unstable();
        keynodes.dedup();
        assert_eq!(
            keynodes.len(),
            all.len(),
            "each keynode reported exactly once"
        );
    }

    #[test]
    fn owned_graph_streams_like_the_borrowed_one() {
        let (g, shared) = (figure3(), Arc::new(figure3()));
        for gamma in 1..=4u32 {
            let mut borrowed = ProgressiveSearch::new(&g, gamma);
            let mut owned = ProgressiveSearch::new(Arc::clone(&shared), gamma);
            while let Some(c) = borrowed.next() {
                assert_eq!(Some(c), owned.next(), "gamma={gamma}");
                assert_eq!(borrowed.stats(), owned.stats(), "gamma={gamma}");
                assert_eq!(borrowed.accessed_size(), owned.accessed_size());
            }
            assert_eq!(owned.next(), None, "gamma={gamma}");
        }
    }

    /// An owned stream can be kept across calls on any thread.
    const _: fn() = || {
        fn send_static<T: Send + 'static>() {}
        send_static::<ProgressiveSearch<Arc<WeightedGraph>>>();
    };

    #[test]
    fn sparse_graph_yields_nothing() {
        let g = figure1();
        assert_eq!(ProgressiveSearch::new(&g, 9).count(), 0);
    }

    #[test]
    fn custom_delta_same_results() {
        let g = figure3();
        let base: Vec<Community> = ProgressiveSearch::new(&g, 3).collect();
        for delta in [1.5, 4.0, 64.0] {
            let alt: Vec<Community> = ProgressiveSearch::with_delta(&g, 3, delta).collect();
            assert_eq!(alt.len(), base.len(), "delta={delta}");
            for (a, b) in alt.iter().zip(&base) {
                assert_eq!(a.members, b.members, "delta={delta}");
            }
        }
    }
}
