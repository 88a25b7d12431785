//! The unified query API: one typed request ([`TopKQuery`]), one
//! execution vocabulary ([`Algorithm`] / [`AlgorithmId`]), one streaming
//! shape ([`CommunityStream`]) — across every search entry point in the
//! crate.
//!
//! The paper presents LocalSearch, LocalSearch-P, and the published
//! baselines as *one family* of top-k influential community queries; this
//! module makes the code say the same thing. A query is built once,
//! validated once ([`TopKQuery::validate`], with a typed [`QueryError`]
//! instead of scattered asserts), and then dispatched to any algorithm
//! through the [`Algorithm`] trait, every implementation returning the
//! same [`SearchResult`] with populated [`SearchStats`]. Consumers that
//! want progressive delivery use [`TopKQuery::stream`], which yields the
//! true LocalSearch-P iterator when the progressive algorithm is selected
//! and a batch-emulating adapter for every other algorithm — batch and
//! streaming callers share one vocabulary.
//!
//! Related work generalizes the same query shape along orthogonal axes
//! (aggregation functions over community weight, arXiv:2207.01029;
//! keyword-aware predicates, arXiv:1912.02114). The request/response
//! types here are `#[non_exhaustive]` so those axes can be added without
//! breaking callers.
//!
//! # Batch queries
//!
//! ```
//! use ic_core::query::{AlgorithmId, Selection, TopKQuery};
//! use ic_graph::paper::figure3;
//!
//! let g = figure3();
//! let q = TopKQuery::new(3).k(4);
//! let result = q.run(&g).unwrap();
//! assert_eq!(result.communities.len(), 4);
//! assert!(result.stats.final_prefix_size > 0);
//!
//! // Pin a specific algorithm: identical answers, different cost profile.
//! let forced = q.algorithm(Selection::Forced(AlgorithmId::Forward));
//! let same = forced.run(&g).unwrap();
//! assert_eq!(same.communities, result.communities);
//!
//! // Validation is centralized and typed.
//! assert!(TopKQuery::new(0).validate().is_err());
//! ```
//!
//! # Streaming queries
//!
//! ```
//! use ic_core::query::TopKQuery;
//! use ic_graph::paper::figure3;
//!
//! let g = figure3();
//! // Auto-selected streams are the paper's LocalSearch-P: communities
//! // arrive in decreasing influence order, k need not be chosen.
//! let mut influences = Vec::new();
//! for c in TopKQuery::new(3).stream(&g).unwrap().take(4) {
//!     influences.push(c.influence);
//! }
//! assert_eq!(influences, vec![18.0, 14.0, 13.0, 12.0]);
//! ```

use std::fmt;

use ic_graph::{GraphStore, WeightedGraph};

use crate::community::{Community, CommunityForest};
use crate::local_search::{CountStrategy, SearchResult, SearchStats};
use crate::progressive::ProgressiveSearch;
use crate::{backward, forward, local_search, naive, noncontainment, online_all, progressive};

/// k at or below which an [`Selection::Auto`] query prefers the
/// progressive stream's latency-to-first-result over the batch
/// algorithms (the Figure 14 regime). The service planner uses the same
/// cutoff.
pub const PROGRESSIVE_K_CUTOFF: usize = 2;

/// Everything that can be wrong with a query's parameters. Returned by
/// [`TopKQuery::validate`] (and everything that calls it) so callers get
/// a typed, matchable rejection instead of a panic or a silent clamp.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum QueryError {
    /// `γ = 0`: a 0-community is meaningless under Definition 2.2.
    ZeroGamma,
    /// `k = 0`: an empty answer needs no algorithm.
    ZeroK,
    /// `k` exceeds [`TopKQuery::MAX_K`]; such values risk arithmetic
    /// overflow in `k + γ` prefix heuristics and capacity computations.
    KTooLarge { k: usize },
    /// The growth ratio δ must be finite and exceed 1 (§3.3).
    BadDelta { delta: f64 },
    /// The γ-truss instantiation needs `γ ≥ 2` (an edge is in γ−2
    /// triangles; below 2 the constraint is vacuous and undefined).
    TrussGamma { gamma: u32 },
    /// The requested algorithm does not support the requested feature
    /// (e.g. non-containment search is defined for the local-search and
    /// forward frameworks only).
    Unsupported {
        algorithm: AlgorithmId,
        feature: &'static str,
    },
    /// A mode/algorithm token failed to parse.
    UnknownAlgorithm(String),
    /// Query-dependent weighting ([`crate::query_weights::closest`])
    /// needs at least one source vertex.
    EmptySourceSet,
    /// A file-backed store failed mid-query (read error, vanished file).
    Io(String),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::ZeroGamma => write!(f, "gamma must be at least 1"),
            QueryError::ZeroK => write!(f, "k must be at least 1"),
            QueryError::KTooLarge { k } => {
                write!(f, "k = {k} exceeds the maximum {}", TopKQuery::MAX_K)
            }
            QueryError::BadDelta { delta } => {
                write!(f, "growth ratio delta = {delta} must be finite and > 1")
            }
            QueryError::TrussGamma { gamma } => {
                write!(f, "gamma-truss search requires gamma >= 2 (got {gamma})")
            }
            QueryError::Unsupported { algorithm, feature } => {
                write!(f, "{} does not support {feature}", algorithm.name())
            }
            QueryError::UnknownAlgorithm(token) => {
                write!(f, "unknown mode {token:?} (expected auto")?;
                for id in AlgorithmId::ALL {
                    write!(f, ", {}", id.name())?;
                }
                f.write_str(")")
            }
            QueryError::EmptySourceSet => {
                write!(
                    f,
                    "query-dependent weighting needs at least one source vertex"
                )
            }
            QueryError::Io(msg) => write!(f, "storage i/o failed: {msg}"),
        }
    }
}

impl std::error::Error for QueryError {}

/// Declares [`AlgorithmId`] with [`AlgorithmId::ALL`],
/// [`AlgorithmId::name`] and its `FromStr` from one list, so no table can
/// miss a variant. Each entry is `Variant => "name" | "alias"...`; the
/// first string is the stable name, every string parses.
macro_rules! algorithm_ids {
    ($($(#[$doc:meta])* $variant:ident => $name:literal $(| $alias:literal)*,)+) => {
        /// The executable algorithms, as a typed identifier. The first
        /// four are the planner-selectable family of the paper's §6
        /// evaluation; `Backward` and `Naive` are comparison baselines,
        /// `Truss` is the §5.2 generalized instantiation (a *different
        /// answer family*, see [`AlgorithmId::family`]).
        ///
        /// A new algorithm is added to the one `algorithm_ids!` list in
        /// this module, which declares the variant, its place in
        /// [`AlgorithmId::ALL`], its name and its parse; the compiler
        /// then asks for its executor in [`AlgorithmId::resolve`].
        #[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
        #[non_exhaustive]
        pub enum AlgorithmId {
            $($(#[$doc])* $variant,)+
        }

        impl AlgorithmId {
            /// All algorithms, in display order. The first four are the
            /// interchangeable planner-selectable family.
            pub const ALL: [AlgorithmId; [$(AlgorithmId::$variant),+].len()] =
                [$(AlgorithmId::$variant),+];

            /// Stable lower-case name used by wire protocols and stats.
            pub fn name(self) -> &'static str {
                match self {
                    $(AlgorithmId::$variant => $name,)+
                }
            }
        }

        impl std::str::FromStr for AlgorithmId {
            type Err = QueryError;

            fn from_str(s: &str) -> Result<Self, QueryError> {
                match s.to_ascii_lowercase().as_str() {
                    $($name $(| $alias)* => Ok(AlgorithmId::$variant),)+
                    other => Err(QueryError::UnknownAlgorithm(other.to_string())),
                }
            }
        }
    };
}

algorithm_ids! {
    /// Algorithm 1 — instance-optimal batch search.
    LocalSearch => "local_search" | "local",
    /// Algorithm 4 — LocalSearch-P, the progressive stream.
    Progressive => "progressive",
    /// The Forward baseline (two flat global passes).
    Forward => "forward",
    /// The OnlineAll baseline (global sweep enumerating everything).
    OnlineAll => "online_all" | "onlineall",
    /// The Backward baseline (top-down with per-insertion re-peel).
    Backward => "backward",
    /// Definition-level reference implementation (small graphs only).
    Naive => "naive",
    /// LocalSearch-Truss (Algorithm 6): influential γ-truss communities.
    Truss => "truss",
    /// LocalSearch-SE (§3.1 Remark): the semi-external progressive local
    /// search — the only local algorithm that can answer against a
    /// file-backed [`GraphStore`].
    LocalSearchSE => "local_search_se" | "local_se",
    /// OnlineAll-SE: the semi-external global baseline (streams the
    /// whole edge file before reporting anything).
    OnlineAllSE => "online_all_se" | "onlineall_se",
}

/// Which answer family an algorithm produces. Two queries with the same
/// `(γ, k)` on the same graph return identical communities if and only if
/// their algorithms share a family — the property result caches key on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum AnswerFamily {
    /// Influential γ-communities (Definition 2.2): naive, online_all,
    /// forward, backward, local_search, and progressive all agree.
    Core,
    /// Influential γ-truss communities (Definition 5.2).
    Truss,
}

impl AlgorithmId {
    /// Index into per-algorithm counter arrays (dense, `0..ALL.len()`):
    /// the declaration order, which is also `ALL`'s order.
    pub fn index(self) -> usize {
        self as usize
    }

    /// The answer family this algorithm's results belong to.
    pub fn family(self) -> AnswerFamily {
        match self {
            AlgorithmId::Truss => AnswerFamily::Truss,
            _ => AnswerFamily::Core,
        }
    }

    /// The executable behind this identifier.
    pub fn resolve(self) -> &'static dyn Algorithm {
        match self {
            AlgorithmId::LocalSearch => &exec::LocalSearch,
            AlgorithmId::Progressive => &exec::Progressive,
            AlgorithmId::Forward => &exec::Forward,
            AlgorithmId::OnlineAll => &exec::OnlineAll,
            AlgorithmId::Backward => &exec::Backward,
            AlgorithmId::Naive => &exec::Naive,
            AlgorithmId::Truss => &exec::Truss,
            AlgorithmId::LocalSearchSE => &exec::LocalSearchSE,
            AlgorithmId::OnlineAllSE => &exec::OnlineAllSE,
        }
    }
}

impl fmt::Display for AlgorithmId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// How a query chooses its algorithm: let the dispatcher decide, or pin
/// one explicitly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum Selection {
    /// Pick automatically (the default). In-library selection uses the
    /// `(γ, k, n)` regime rules; the service planner refines them with
    /// registration-time graph statistics.
    #[default]
    Auto,
    /// Force a specific algorithm.
    Forced(AlgorithmId),
}

impl Selection {
    /// Parses a wire-protocol mode token: `auto` or an algorithm name.
    pub fn parse(s: &str) -> Result<Selection, QueryError> {
        if s.eq_ignore_ascii_case("auto") {
            Ok(Selection::Auto)
        } else {
            s.parse::<AlgorithmId>().map(Selection::Forced)
        }
    }
}

/// A validated-on-use top-k influential community query.
///
/// Construction is a chain of plain setters; [`TopKQuery::validate`]
/// checks the whole parameter set once with a typed [`QueryError`], and
/// [`TopKQuery::run`] / [`TopKQuery::stream`] validate before touching
/// the graph. See the [module docs](self) for examples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopKQuery {
    gamma: u32,
    k: usize,
    selection: Selection,
    counting: CountStrategy,
    delta: f64,
    non_containment: bool,
}

impl TopKQuery {
    /// Largest accepted `k`. Anything above it is a nonsense request that
    /// would only stress `k + γ` arithmetic; `usize::MAX / 2` keeps every
    /// internal saturating add exact.
    pub const MAX_K: usize = usize::MAX / 2;

    /// A query for the top-1 influential γ-community with every knob at
    /// its default: automatic algorithm selection, CountIC counting,
    /// growth ratio δ = 2.
    pub fn new(gamma: u32) -> Self {
        TopKQuery {
            gamma,
            k: 1,
            selection: Selection::Auto,
            counting: CountStrategy::default(),
            delta: 2.0,
            non_containment: false,
        }
    }

    /// Number of communities requested.
    pub fn k(mut self, k: usize) -> Self {
        self.k = k;
        self
    }

    /// Algorithm selection: [`Selection::Auto`] or
    /// [`Selection::Forced`]`(id)`.
    pub fn algorithm(mut self, selection: Selection) -> Self {
        self.selection = selection;
        self
    }

    /// Counting subroutine for the local-search framework (ignored by
    /// the global baselines).
    pub fn count_strategy(mut self, counting: CountStrategy) -> Self {
        self.counting = counting;
        self
    }

    /// Prefix growth ratio δ for the local-search and progressive
    /// frameworks (§3.3; must be finite and > 1).
    pub fn delta(mut self, delta: f64) -> Self {
        self.delta = delta;
        self
    }

    /// Ask for *non-containment* communities (Definition 5.1) instead of
    /// the nested family. Supported by the local-search and forward
    /// frameworks.
    pub fn non_containment(mut self, nc: bool) -> Self {
        self.non_containment = nc;
        self
    }

    // ----- accessors ---------------------------------------------------

    /// Cohesiveness threshold γ.
    pub fn gamma_value(&self) -> u32 {
        self.gamma
    }

    /// Requested number of communities.
    pub fn k_value(&self) -> usize {
        self.k
    }

    /// The algorithm selection.
    pub fn selection(&self) -> Selection {
        self.selection
    }

    /// The counting strategy.
    pub fn counting(&self) -> CountStrategy {
        self.counting
    }

    /// The growth ratio δ.
    pub fn delta_value(&self) -> f64 {
        self.delta
    }

    /// Whether non-containment communities were requested.
    pub fn is_non_containment(&self) -> bool {
        self.non_containment
    }

    /// The options bundle the local-search framework consumes.
    pub(crate) fn local_search_options(&self) -> crate::local_search::LocalSearchOptions {
        crate::local_search::LocalSearchOptions {
            delta: self.delta,
            counting: self.counting,
        }
    }

    // ----- validation and dispatch -------------------------------------

    /// Checks the whole parameter set once. Every algorithm behind
    /// [`TopKQuery::run`] may assume a validated query; the asserts that
    /// used to be scattered through the individual algorithms survive
    /// only as debug backstops.
    pub fn validate(&self) -> Result<(), QueryError> {
        if self.gamma == 0 {
            return Err(QueryError::ZeroGamma);
        }
        if self.k == 0 {
            return Err(QueryError::ZeroK);
        }
        if self.k > Self::MAX_K {
            return Err(QueryError::KTooLarge { k: self.k });
        }
        if !self.delta.is_finite() || self.delta <= 1.0 {
            return Err(QueryError::BadDelta { delta: self.delta });
        }
        if let Selection::Forced(id) = self.selection {
            if id == AlgorithmId::Truss {
                if self.gamma < 2 {
                    return Err(QueryError::TrussGamma { gamma: self.gamma });
                }
                if self.non_containment {
                    return Err(QueryError::Unsupported {
                        algorithm: id,
                        feature: "non-containment search",
                    });
                }
            } else if self.non_containment
                && !matches!(id, AlgorithmId::LocalSearch | AlgorithmId::Forward)
            {
                return Err(QueryError::Unsupported {
                    algorithm: id,
                    feature: "non-containment search",
                });
            }
        }
        Ok(())
    }

    /// The algorithm a validated query dispatches to on `g`: the forced
    /// one, or the `(γ, k, n)` regime rule for [`Selection::Auto`] —
    /// `k + γ ≥ n` sweeps everything once (OnlineAll), `k + γ ≥ n/2`
    /// prefers flat global passes (Forward), tiny k streams
    /// progressively, everything else is instance-optimal LocalSearch.
    pub fn select(&self, g: &WeightedGraph) -> AlgorithmId {
        if let Selection::Forced(id) = self.selection {
            return id;
        }
        let n = g.n();
        let reach = self.k.saturating_add(self.gamma as usize);
        if self.non_containment {
            // NC is defined for the local and forward frameworks only
            return if reach >= n / 2 {
                AlgorithmId::Forward
            } else {
                AlgorithmId::LocalSearch
            };
        }
        if reach >= n {
            AlgorithmId::OnlineAll
        } else if reach >= n / 2 {
            AlgorithmId::Forward
        } else if self.k <= PROGRESSIVE_K_CUTOFF {
            AlgorithmId::Progressive
        } else {
            AlgorithmId::LocalSearch
        }
    }

    /// Validates, selects, and runs: the one batch entry point.
    pub fn run(&self, g: &WeightedGraph) -> Result<SearchResult, QueryError> {
        self.validate()?;
        Ok(self.select(g).resolve().run(g, self))
    }

    /// Validates, selects, and streams. Whenever the progressive
    /// algorithm backs the stream — [`Selection::Auto`] without the
    /// non-containment flag, or an explicit
    /// [`Selection::Forced`]`(Progressive)` — the result is the true
    /// LocalSearch-P iterator: lazy and **unbounded**, `k` is ignored,
    /// stop whenever (use `.take(k)` for a bound). Every other selection
    /// (a forced batch algorithm, or any non-containment query, which
    /// the progressive algorithm does not support) yields its top-k
    /// batch through the adapter, in the same order [`TopKQuery::run`]
    /// would return it. [`CommunityStream::is_live`] tells the two
    /// apart.
    pub fn stream<'g>(&self, g: &'g WeightedGraph) -> Result<CommunityStream<'g>, QueryError> {
        self.validate()?;
        let id = match self.selection {
            Selection::Auto if !self.non_containment => AlgorithmId::Progressive,
            _ => self.select(g),
        };
        Ok(id.resolve().stream(g, self))
    }
}

/// One executable search algorithm behind the unified API.
///
/// Every implementation answers a **validated** [`TopKQuery`] with the
/// uniform [`SearchResult`] — communities in decreasing influence order,
/// a [`CommunityForest`], and populated [`SearchStats`]. Implementations
/// are zero-sized and live in [`exec`]; resolve one from a typed id with
/// [`AlgorithmId::resolve`]:
///
/// ```
/// use ic_core::query::{Algorithm, AlgorithmId, TopKQuery};
/// use ic_graph::paper::figure3;
///
/// let g = figure3();
/// let q = TopKQuery::new(3).k(4);
/// q.validate().unwrap();
/// for id in AlgorithmId::ALL {
///     if id == AlgorithmId::Truss {
///         continue; // different answer family (γ-truss communities)
///     }
///     let result = id.resolve().run(&g, &q);
///     assert_eq!(result.communities.len(), 4, "{id}");
///     assert_eq!(result.communities[0].influence, 18.0, "{id}");
/// }
/// ```
pub trait Algorithm: fmt::Debug + Send + Sync {
    /// The typed identifier of this algorithm.
    fn id(&self) -> AlgorithmId;

    /// Stable lower-case name (wire protocol, stats).
    fn name(&self) -> &'static str {
        self.id().name()
    }

    /// Answers a validated query. Callers must run
    /// [`TopKQuery::validate`] first (or go through [`TopKQuery::run`],
    /// which does); degenerate parameters may panic here.
    fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult;

    /// Answers a validated query against a [`GraphStore`], whatever its
    /// backend. The default handles the memory backend (delegating to
    /// [`Algorithm::run`]) and reports [`QueryError::Unsupported`] for
    /// file-backed stores — only the semi-external executors override
    /// it, streaming the `.icsr` adjacency instead of demanding random
    /// access. Real I/O failures surface as [`QueryError::Io`].
    fn run_store(&self, store: &GraphStore, q: &TopKQuery) -> Result<SearchResult, QueryError> {
        match store.as_memory() {
            Some(g) => Ok(self.run(g, q)),
            None => Err(QueryError::Unsupported {
                algorithm: self.id(),
                feature: "file-backed graph stores",
            }),
        }
    }

    /// Streams the answer. The default is the batch-emulating adapter
    /// (compute [`Algorithm::run`], iterate its communities in order);
    /// the progressive algorithm overrides it with the true lazy stream.
    fn stream<'g>(&self, g: &'g WeightedGraph, q: &TopKQuery) -> CommunityStream<'g> {
        CommunityStream::batch(self.run(g, q))
    }
}

/// A community stream: the standard `Iterator` face shared by the true
/// progressive search and the batch-emulating adapter, so consumers never
/// care which algorithm feeds them.
#[derive(Debug)]
pub struct CommunityStream<'g> {
    inner: StreamInner<'g>,
}

#[derive(Debug)]
enum StreamInner<'g> {
    /// LocalSearch-P: lazy, pays only for the prefix consumed so far.
    Live(Box<ProgressiveSearch<&'g WeightedGraph>>),
    /// Adapter over a completed batch result.
    Batch {
        iter: std::vec::IntoIter<Community>,
        stats: SearchStats,
    },
}

impl<'g> CommunityStream<'g> {
    pub(crate) fn live(search: ProgressiveSearch<&'g WeightedGraph>) -> Self {
        CommunityStream {
            inner: StreamInner::Live(Box::new(search)),
        }
    }

    pub(crate) fn batch(result: SearchResult) -> Self {
        CommunityStream {
            inner: StreamInner::Batch {
                iter: result.communities.into_iter(),
                stats: result.stats,
            },
        }
    }

    /// True when backed by the lazy progressive search (cost accrues as
    /// the stream is consumed), false for the batch adapter (cost was
    /// paid up front).
    pub fn is_live(&self) -> bool {
        matches!(self.inner, StreamInner::Live(_))
    }

    /// Access statistics: the work so far for a live stream, the full
    /// query's for a batch adapter.
    pub fn stats(&self) -> SearchStats {
        match &self.inner {
            StreamInner::Live(s) => s.stats(),
            StreamInner::Batch { stats, .. } => *stats,
        }
    }
}

impl Iterator for CommunityStream<'_> {
    type Item = Community;

    fn next(&mut self) -> Option<Community> {
        match &mut self.inner {
            StreamInner::Live(s) => s.next(),
            StreamInner::Batch { iter, .. } => iter.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.inner {
            StreamInner::Live(_) => (0, None),
            StreamInner::Batch { iter, .. } => iter.size_hint(),
        }
    }
}

/// Zero-sized executors, one per algorithm — the [`Algorithm`] trait's
/// implementations. Use these directly when you want static dispatch
/// (benchmarks do); use [`AlgorithmId::resolve`] for dynamic dispatch.
pub mod exec {
    use super::*;

    /// Algorithm 1 (instance-optimal batch LocalSearch); with
    /// [`TopKQuery::non_containment`], the NC local-search framework.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct LocalSearch;

    /// Algorithm 4 (LocalSearch-P, the progressive stream).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Progressive;

    /// The Forward baseline; with [`TopKQuery::non_containment`], the NC
    /// global baseline.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Forward;

    /// The OnlineAll baseline.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct OnlineAll;

    /// The Backward baseline.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Backward;

    /// The definition-level reference implementation.
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Naive;

    /// LocalSearch-Truss (Algorithm 6).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct Truss;

    /// LocalSearch-SE (the semi-external progressive local search).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct LocalSearchSE;

    /// OnlineAll-SE (the semi-external global baseline).
    #[derive(Debug, Clone, Copy, Default)]
    pub struct OnlineAllSE;

    impl Algorithm for LocalSearch {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::LocalSearch
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            if q.is_non_containment() {
                noncontainment::query_local_top_k(g, q)
            } else {
                local_search::query_top_k(g, q)
            }
        }
    }

    impl Algorithm for Progressive {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::Progressive
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            progressive::query_top_k(g, q)
        }

        fn stream<'g>(&self, g: &'g WeightedGraph, q: &TopKQuery) -> CommunityStream<'g> {
            CommunityStream::live(ProgressiveSearch::with_delta(
                g,
                q.gamma_value(),
                q.delta_value(),
            ))
        }
    }

    impl Algorithm for Forward {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::Forward
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            if q.is_non_containment() {
                noncontainment::query_forward_top_k(g, q)
            } else {
                forward::query_top_k(g, q)
            }
        }
    }

    impl Algorithm for OnlineAll {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::OnlineAll
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            online_all::query_top_k(g, q)
        }
    }

    impl Algorithm for Backward {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::Backward
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            backward::query_top_k(g, q)
        }
    }

    impl Algorithm for Naive {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::Naive
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            naive::query_top_k(g, q)
        }
    }

    impl Algorithm for Truss {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::Truss
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            crate::truss::search::query_top_k(g, q)
        }
    }

    impl Algorithm for LocalSearchSE {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::LocalSearchSE
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            // in-memory source: the zero-I/O MemEdges walk cannot fail
            let (cs, se) =
                crate::semi_external::local_search_se_top_k(g, q.gamma_value(), q.k_value())
                    .expect("in-memory semi-external run performs no I/O");
            crate::semi_external::se_search_result(cs, se)
        }

        fn run_store(&self, store: &GraphStore, q: &TopKQuery) -> Result<SearchResult, QueryError> {
            let (gamma, k) = (q.gamma_value(), q.k_value());
            let run = match store {
                GraphStore::Memory(g) => {
                    crate::semi_external::local_search_se_top_k(&**g, gamma, k)
                }
                GraphStore::File(f) => crate::semi_external::local_search_se_top_k(&**f, gamma, k),
            };
            let (cs, se) = run.map_err(|e| QueryError::Io(e.to_string()))?;
            Ok(crate::semi_external::se_search_result(cs, se))
        }
    }

    impl Algorithm for OnlineAllSE {
        fn id(&self) -> AlgorithmId {
            AlgorithmId::OnlineAllSE
        }

        fn run(&self, g: &WeightedGraph, q: &TopKQuery) -> SearchResult {
            let (cs, se) =
                crate::semi_external::online_all_se_top_k(g, q.gamma_value(), q.k_value())
                    .expect("in-memory semi-external run performs no I/O");
            crate::semi_external::se_search_result(cs, se)
        }

        fn run_store(&self, store: &GraphStore, q: &TopKQuery) -> Result<SearchResult, QueryError> {
            let (gamma, k) = (q.gamma_value(), q.k_value());
            let run = match store {
                GraphStore::Memory(g) => crate::semi_external::online_all_se_top_k(&**g, gamma, k),
                GraphStore::File(f) => crate::semi_external::online_all_se_top_k(&**f, gamma, k),
            };
            let (cs, se) = run.map_err(|e| QueryError::Io(e.to_string()))?;
            Ok(crate::semi_external::se_search_result(cs, se))
        }
    }
}

/// Builds the uniform [`SearchResult`] for algorithms that materialize
/// their communities directly (the global baselines, NC, truss): a flat
/// forest (no nesting links) plus the caller's stats.
pub(crate) fn flat_result(communities: Vec<Community>, stats: SearchStats) -> SearchResult {
    let forest = CommunityForest::from_communities(&communities);
    SearchResult {
        communities,
        forest,
        stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::paper::{figure1, figure3};

    #[test]
    fn builder_defaults_and_setters() {
        let q = TopKQuery::new(3);
        assert_eq!(q.gamma_value(), 3);
        assert_eq!(q.k_value(), 1);
        assert_eq!(q.selection(), Selection::Auto);
        assert!(!q.is_non_containment());
        let q = q
            .k(7)
            .algorithm(Selection::Forced(AlgorithmId::Forward))
            .delta(4.0)
            .count_strategy(CountStrategy::OnlineAll)
            .non_containment(true);
        assert_eq!(q.k_value(), 7);
        assert_eq!(q.selection(), Selection::Forced(AlgorithmId::Forward));
        assert_eq!(q.delta_value(), 4.0);
        assert_eq!(q.counting(), CountStrategy::OnlineAll);
        assert!(q.is_non_containment());
    }

    #[test]
    fn validation_catches_every_degenerate_parameter() {
        assert_eq!(
            TopKQuery::new(0).validate().unwrap_err(),
            QueryError::ZeroGamma
        );
        assert_eq!(
            TopKQuery::new(1).k(0).validate().unwrap_err(),
            QueryError::ZeroK
        );
        assert!(matches!(
            TopKQuery::new(1).k(usize::MAX).validate().unwrap_err(),
            QueryError::KTooLarge { .. }
        ));
        for delta in [1.0, 0.5, f64::NAN, f64::INFINITY, -3.0] {
            assert!(
                matches!(
                    TopKQuery::new(1).delta(delta).validate().unwrap_err(),
                    QueryError::BadDelta { .. }
                ),
                "delta={delta}"
            );
        }
        assert!(matches!(
            TopKQuery::new(1)
                .algorithm(Selection::Forced(AlgorithmId::Truss))
                .validate()
                .unwrap_err(),
            QueryError::TrussGamma { gamma: 1 }
        ));
        assert!(matches!(
            TopKQuery::new(3)
                .non_containment(true)
                .algorithm(Selection::Forced(AlgorithmId::OnlineAll))
                .validate()
                .unwrap_err(),
            QueryError::Unsupported { .. }
        ));
        // and the boundary cases pass
        assert!(TopKQuery::new(1).k(TopKQuery::MAX_K).validate().is_ok());
        assert!(TopKQuery::new(2)
            .algorithm(Selection::Forced(AlgorithmId::Truss))
            .validate()
            .is_ok());
    }

    #[test]
    fn every_core_algorithm_agrees_through_the_trait() {
        let g = figure3();
        let q = TopKQuery::new(3).k(4);
        let reference = q
            .algorithm(Selection::Forced(AlgorithmId::LocalSearch))
            .run(&g)
            .unwrap();
        assert_eq!(reference.communities.len(), 4);
        for id in AlgorithmId::ALL {
            if id == AlgorithmId::Truss {
                continue;
            }
            let got = q.algorithm(Selection::Forced(id)).run(&g).unwrap();
            assert_eq!(got.communities.len(), 4, "{id}");
            for (a, b) in got.communities.iter().zip(&reference.communities) {
                assert_eq!(a.keynode, b.keynode, "{id}");
                assert_eq!(a.members, b.members, "{id}");
            }
            assert!(got.stats.final_prefix_size > 0, "{id}: stats populated");
            assert!(got.forest.len() >= 4, "{id}: forest populated");
        }
    }

    #[test]
    fn truss_family_differs_and_is_reachable() {
        let g = figure3();
        let q = TopKQuery::new(4)
            .k(1)
            .algorithm(Selection::Forced(AlgorithmId::Truss));
        let res = q.run(&g).unwrap();
        assert_eq!(res.communities.len(), 1);
        assert_eq!(res.communities[0].influence, 18.0);
        assert_eq!(AlgorithmId::Truss.family(), AnswerFamily::Truss);
        assert_eq!(AlgorithmId::LocalSearch.family(), AnswerFamily::Core);
    }

    #[test]
    fn auto_selection_follows_the_regime_rules() {
        let g = figure3(); // n = 22
        assert_eq!(
            TopKQuery::new(3).k(1).select(&g),
            AlgorithmId::Progressive,
            "tiny k"
        );
        assert_eq!(
            TopKQuery::new(3).k(5).select(&g),
            AlgorithmId::LocalSearch,
            "moderate k"
        );
        assert_eq!(
            TopKQuery::new(3).k(11).select(&g),
            AlgorithmId::Forward,
            "k+gamma >= n/2"
        );
        assert_eq!(
            TopKQuery::new(3).k(22).select(&g),
            AlgorithmId::OnlineAll,
            "k+gamma >= n"
        );
        assert_eq!(
            TopKQuery::new(3).k(1).non_containment(true).select(&g),
            AlgorithmId::LocalSearch,
            "NC auto never picks an unsupported algorithm"
        );
    }

    #[test]
    fn auto_run_matches_forced_runs_on_every_regime() {
        let g = figure3();
        for k in [1usize, 3, 5, 11, 22, 100] {
            let auto = TopKQuery::new(3).k(k).run(&g).unwrap();
            let reference = TopKQuery::new(3)
                .k(k)
                .algorithm(Selection::Forced(AlgorithmId::LocalSearch))
                .run(&g)
                .unwrap();
            assert_eq!(auto.communities.len(), reference.communities.len(), "k={k}");
            for (a, b) in auto.communities.iter().zip(&reference.communities) {
                assert_eq!(a.members, b.members, "k={k}");
            }
        }
    }

    #[test]
    fn streams_agree_with_batch_for_every_algorithm() {
        let g = figure3();
        for id in AlgorithmId::ALL {
            let gamma = if id == AlgorithmId::Truss { 4 } else { 3 };
            let q = TopKQuery::new(gamma).k(4).algorithm(Selection::Forced(id));
            let batch = q.run(&g).unwrap().communities;
            let streamed: Vec<Community> = q.stream(&g).unwrap().take(4).collect();
            assert_eq!(streamed.len(), batch.len().min(4), "{id}");
            for (a, b) in streamed.iter().zip(&batch) {
                assert_eq!(a.members, b.members, "{id}: stream order == batch order");
            }
        }
    }

    #[test]
    fn auto_stream_is_live_and_unbounded() {
        let g = figure3();
        let mut s = TopKQuery::new(3).stream(&g).unwrap();
        assert!(s.is_live());
        // k defaults to 1 but the live stream keeps going past it
        assert!(s.by_ref().take(4).count() == 4);
        assert!(s.stats().rounds >= 1);
        // a forced batch algorithm is the adapter
        let s = TopKQuery::new(3)
            .k(2)
            .algorithm(Selection::Forced(AlgorithmId::Forward))
            .stream(&g)
            .unwrap();
        assert!(!s.is_live());
        assert_eq!(s.stats().final_prefix_len, g.n());
        assert_eq!(s.count(), 2);
    }

    #[test]
    fn non_containment_queries_answer_the_nc_family() {
        let g = figure3();
        for id in [AlgorithmId::LocalSearch, AlgorithmId::Forward] {
            let res = TopKQuery::new(3)
                .k(2)
                .non_containment(true)
                .algorithm(Selection::Forced(id))
                .run(&g)
                .unwrap();
            assert_eq!(res.communities.len(), 2, "{id}");
            assert_eq!(res.communities[0].influence, 18.0);
            assert_eq!(res.communities[1].influence, 14.0);
        }
    }

    #[test]
    fn run_surfaces_validation_errors() {
        let g = figure1();
        assert!(TopKQuery::new(0).run(&g).is_err());
        assert!(TopKQuery::new(1).k(0).stream(&g).is_err());
    }

    #[test]
    fn ids_round_trip_names_and_indices() {
        for (i, id) in AlgorithmId::ALL.into_iter().enumerate() {
            assert_eq!(id.index(), i);
            assert_eq!(id.name().parse::<AlgorithmId>().unwrap(), id);
            assert_eq!(id.resolve().id(), id);
            assert_eq!(id.resolve().name(), id.name());
        }
        assert_eq!(Selection::parse("auto").unwrap(), Selection::Auto);
        assert_eq!(
            Selection::parse("TRUSS").unwrap(),
            Selection::Forced(AlgorithmId::Truss)
        );
        assert!(Selection::parse("warp").is_err());
    }

    #[test]
    fn error_display_is_informative() {
        assert!(QueryError::ZeroGamma.to_string().contains("gamma"));
        assert!(QueryError::KTooLarge { k: usize::MAX }
            .to_string()
            .contains("exceeds"));
        assert!(QueryError::UnknownAlgorithm("warp".into())
            .to_string()
            .contains("warp"));
    }

    #[test]
    fn unknown_algorithm_error_lists_every_mode() {
        let text = QueryError::UnknownAlgorithm("warp".into()).to_string();
        let listed = text
            .strip_prefix("unknown mode \"warp\" (expected ")
            .and_then(|rest| rest.strip_suffix(')'))
            .unwrap_or_else(|| panic!("{text}"));
        let expected: Vec<&str> = std::iter::once("auto")
            .chain(AlgorithmId::ALL.map(AlgorithmId::name))
            .collect();
        assert_eq!(listed.split(", ").collect::<Vec<_>>(), expected);
    }

    #[test]
    fn run_store_dispatches_by_backend() {
        use ic_graph::{save_icsr, FileCsr};
        let g = figure3();
        let dir = ic_graph::scratch::ScratchDir::new("ic-query-store");
        let path = dir.file("fig3.icsr");
        save_icsr(&g, &path).unwrap();
        let mem = GraphStore::Memory(std::sync::Arc::new(figure3()));
        let file = GraphStore::File(std::sync::Arc::new(FileCsr::open(&path).unwrap()));

        let q = TopKQuery::new(3).k(4);
        let reference = q.run(&g).unwrap();
        for id in [AlgorithmId::LocalSearchSE, AlgorithmId::OnlineAllSE] {
            let via_mem = id.resolve().run_store(&mem, &q).unwrap();
            let via_file = id.resolve().run_store(&file, &q).unwrap();
            for got in [&via_mem, &via_file] {
                assert_eq!(got.communities.len(), 4, "{id}");
                for (a, b) in got.communities.iter().zip(&reference.communities) {
                    assert_eq!(a.members, b.members, "{id}");
                }
            }
            assert_eq!(via_mem.stats.bytes_read, 0, "memory walk is free");
            assert!(via_file.stats.bytes_read > 0, "{id}: file reads counted");
            assert_eq!(
                via_file.stats.bytes_read,
                via_file.stats.read_ops * 4,
                "{id}: 4 bytes per icsr record"
            );
        }
        // every random-access algorithm degrades gracefully on file stores
        for id in AlgorithmId::ALL {
            if matches!(id, AlgorithmId::LocalSearchSE | AlgorithmId::OnlineAllSE) {
                continue;
            }
            let q = if id == AlgorithmId::Truss {
                TopKQuery::new(4)
            } else {
                q
            };
            assert!(
                matches!(
                    id.resolve().run_store(&file, &q).unwrap_err(),
                    QueryError::Unsupported { .. }
                ),
                "{id}"
            );
            assert!(id.resolve().run_store(&mem, &q).is_ok(), "{id}");
        }
    }

    /// The static-dispatch executors must forward to exactly the builder
    /// path — they are the one remaining "direct" entry point now that
    /// the v1 free-function shims are gone.
    #[test]
    fn executors_equal_builder_dispatch() {
        let g = figure3();
        let q = TopKQuery::new(3).k(4);
        let via_builder = q // TopKQuery is Copy; q stays usable below
            .algorithm(Selection::Forced(AlgorithmId::LocalSearch))
            .run(&g)
            .unwrap();
        assert_eq!(
            exec::LocalSearch.run(&g, &q).communities,
            via_builder.communities
        );
        assert_eq!(
            exec::Forward.run(&g, &q).communities,
            via_builder.communities
        );
        assert_eq!(
            exec::OnlineAll.run(&g, &q).communities,
            via_builder.communities
        );
        assert_eq!(
            exec::Backward.run(&g, &q).communities,
            via_builder.communities
        );
        assert_eq!(exec::Naive.run(&g, &q).communities, via_builder.communities);
        assert_eq!(
            exec::Progressive.run(&g, &q).communities,
            via_builder.communities
        );
    }
}
