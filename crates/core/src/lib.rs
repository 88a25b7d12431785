//! Top-k influential community search — an implementation of Bi, Chang,
//! Lin, Zhang, *"An Optimal and Progressive Approach to Online Search of
//! Top-K Influential Communities"* (PVLDB 11(9), 2018).
//!
//! # Problem
//!
//! Given a vertex-weighted graph, an **influential γ-community** is a
//! connected subgraph with minimum degree ≥ γ that is maximal among
//! subgraphs sharing its influence value (the minimum vertex weight inside
//! it). A query `(γ, k)` returns the k such communities with the highest
//! influence values.
//!
//! # The unified query API
//!
//! Every search entry point is reachable through one typed request: build
//! a [`TopKQuery`], validate once, dispatch to any algorithm through the
//! [`query::Algorithm`] trait (all of them return the uniform
//! [`SearchResult`] with populated [`SearchStats`]), or consume the
//! answer as a standard iterator via [`TopKQuery::stream`].
//!
//! ```
//! use ic_graph::generators::{assemble, barabasi_albert, WeightKind};
//! use ic_core::{AlgorithmId, Selection, TopKQuery};
//!
//! let edges = barabasi_albert(500, 4, 7);
//! let g = assemble(500, &edges, WeightKind::PageRank);
//!
//! let q = TopKQuery::new(3).k(5);
//! let result = q.run(&g).unwrap();
//! for c in &result.communities {
//!     assert!(c.members.len() >= 4); // a 3-community has ≥ γ+1 members
//! }
//! // communities arrive in decreasing influence order
//! for w in result.communities.windows(2) {
//!     assert!(w[0].influence > w[1].influence);
//! }
//!
//! // same query, pinned to a baseline: identical answer
//! let forced = q.algorithm(Selection::Forced(AlgorithmId::OnlineAll));
//! assert_eq!(forced.run(&g).unwrap().communities, result.communities);
//!
//! // or streamed — stop whenever, k need not be chosen
//! let first = TopKQuery::new(3).stream(&g).unwrap().next().unwrap();
//! assert_eq!(first.influence, result.communities[0].influence);
//! ```
//!
//! # The algorithms behind it
//!
//! * [`local_search`] — the paper's **LocalSearch** (Algorithm 1):
//!   instance-optimal, index-free, touches only a prefix of the
//!   weight-sorted graph.
//! * [`progressive::ProgressiveSearch`] — **LocalSearch-P** (Algorithm 4):
//!   an iterator streaming communities in decreasing influence order; `k`
//!   need not be specified.
//! * [`online_all`], [`forward`], [`backward`] — the published baselines
//!   the paper compares against, implemented with their original cost
//!   profiles.
//! * [`noncontainment`] — top-k *non-containment* communities (§5.1);
//!   reachable via [`TopKQuery::non_containment`].
//! * [`truss`] — the γ-truss instantiation of the generalized framework
//!   (§5.2, Algorithms 6–7); reachable via [`AlgorithmId::Truss`].
//! * [`semi_external`] — disk-resident variants (LocalSearch-SE,
//!   OnlineAll-SE) over an `.icsr` [`ic_graph::FileCsr`]; these run on a
//!   different substrate and keep their own entry points.
//! * [`naive`] — definition-level reference implementations used to verify
//!   all of the above.
//! * [`query_weights`] — ad-hoc query-dependent weights (closest
//!   community search), parameterized by the same [`TopKQuery`].

pub mod backward;
pub mod community;
pub mod count;
pub mod dsu;
pub mod enumerate;
pub mod forward;
pub mod local_search;
pub mod naive;
pub mod noncontainment;
pub mod online_all;
pub mod peel;
pub mod progressive;
pub mod query;
pub mod query_weights;
pub mod semi_external;
pub mod truss;

pub use community::{Community, CommunityForest};
pub use local_search::{CountStrategy, LocalSearch, LocalSearchOptions, SearchResult, SearchStats};
pub use progressive::ProgressiveSearch;
pub use query::{
    Algorithm, AlgorithmId, AnswerFamily, CommunityStream, QueryError, Selection, TopKQuery,
};

/// Validated query parameters shared by every algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Params {
    /// Minimum-degree cohesiveness threshold γ (≥ 1).
    pub gamma: u32,
    /// Number of communities requested (≥ 1).
    pub k: usize,
}

impl Params {
    /// Creates parameters, panicking on degenerate values — queries with
    /// `γ = 0` or `k = 0` are meaningless under Definition 2.2.
    pub fn new(gamma: u32, k: usize) -> Self {
        assert!(gamma >= 1, "gamma must be at least 1");
        assert!(k >= 1, "k must be at least 1");
        Params { gamma, k }
    }

    /// The paper's heuristic initial prefix length (Alg. 1 line 1):
    /// k communities contain at least `k + γ` distinct vertices.
    pub fn initial_prefix_len(&self, n: usize) -> usize {
        self.k.saturating_add(self.gamma as usize).min(n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_initial_prefix() {
        let p = Params::new(3, 4);
        assert_eq!(p.initial_prefix_len(100), 7);
        assert_eq!(p.initial_prefix_len(5), 5);
    }

    #[test]
    #[should_panic]
    fn zero_gamma_rejected() {
        Params::new(0, 1);
    }

    #[test]
    #[should_panic]
    fn zero_k_rejected() {
        Params::new(1, 0);
    }
}
