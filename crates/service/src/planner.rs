//! The query planner: picks which search algorithm answers a query.
//!
//! The algorithm vocabulary is `ic-core`'s unified query API: the planner
//! emits an [`Algorithm`] (= [`ic_core::AlgorithmId`]) selection that the
//! service consumes through the [`ic_core::query::Algorithm`] trait — no
//! hand-rolled dispatch. The repo implements four *interchangeable* top-k
//! algorithms with very different cost profiles (§6 of the paper):
//!
//! * **LocalSearch** — instance-optimal; touches `O(size(G≥τ*))`, tiny
//!   when k is small relative to the graph.
//! * **LocalSearch-P** (progressive) — minimal latency to the *first*
//!   community; ideal when only a handful of results is consumed.
//! * **Forward** — two flat global passes; independent of k, so it wins
//!   once the answer prefix approaches the whole graph and LocalSearch
//!   would pay geometric re-counting of near-global prefixes.
//! * **OnlineAll** — one global sweep that enumerates *every* community;
//!   the right tool when k exceeds any possible community count.
//!
//! The remaining algorithms are reachable by explicit override only:
//! `backward` and `naive` are comparison baselines the cost model never
//! prefers, and `truss` answers a *different community family*
//! ([`ic_core::AnswerFamily::Truss`]) the caller must ask for by name.
//!
//! The planner encodes the regimes as a cost model over the O(1)
//! [`GraphStats`] captured at registration time. Every decision is
//! explainable: [`plan`] returns an [`Explain`] naming the chosen
//! algorithm and the rule that fired, and the `EXPLAIN` protocol verb
//! surfaces it to clients. An explicit [`Mode`] override bypasses the
//! model (the escape hatch the consistency proptests use to exercise each
//! branch directly).
//!
//! One plan needs no search at all. No γ-community exists above the
//! degeneracy `γmax` (Table 1 of the paper), so an `Auto` query with
//! γ > γmax on a memory-resident graph is planned **empty**
//! ([`Explain::empty`]): the service answers it with no communities
//! without probing the cache or running an executor. Memory statistics
//! are exact — registration peels the graph, a structural `COMMIT` peels
//! the new snapshot, and a reweight-only commit cannot change the
//! degeneracy. A file-backed store is never planned empty, because its
//! `γmax` comes from an unchecked file header (see [`plan_stored`]).

use ic_core::query::Selection;
use ic_core::{AnswerFamily, TopKQuery};
use ic_graph::{GraphStats, StorageKind};

use crate::error::ServiceError;

/// The algorithm identifier the planner plans in — `ic-core`'s typed id.
pub use ic_core::AlgorithmId as Algorithm;

/// How the client wants the query dispatched: [`Mode::Auto`] consults the
/// cost model, [`Mode::Forced`] pins an algorithm. This is `ic-core`'s
/// [`Selection`] — the service shares the library's request vocabulary.
pub use ic_core::query::Selection as Mode;

/// k at or below which the progressive stream's latency-to-first-result
/// beats the batch algorithms outright (Figure 14 regime). Shared with
/// the in-library auto-selection rule.
pub use ic_core::query::PROGRESSIVE_K_CUTOFF;

/// Parses the protocol's mode token (`auto`, `local_search`, …).
pub fn parse_mode(s: &str) -> Result<Mode, ServiceError> {
    Selection::parse(s).map_err(|e| ServiceError::InvalidQuery(e.to_string()))
}

/// A top-k query against a registered graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Query {
    /// Name of the registered graph.
    pub graph: String,
    /// Cohesiveness threshold γ ≥ 1.
    pub gamma: u32,
    /// Number of communities requested, ≥ 1.
    pub k: usize,
    /// Dispatch mode.
    pub mode: Mode,
}

impl Query {
    /// A query in the default [`Mode::Auto`].
    pub fn new(graph: impl Into<String>, gamma: u32, k: usize) -> Self {
        Query {
            graph: graph.into(),
            gamma,
            k,
            mode: Mode::Auto,
        }
    }

    /// Same query pinned to a specific algorithm.
    pub fn with_mode(mut self, mode: Mode) -> Self {
        self.mode = mode;
        self
    }

    /// The core-library request this service query corresponds to,
    /// validated once by the central [`TopKQuery::validate`] — the one
    /// place that rejects degenerate parameters (γ = 0, k = 0, k caps,
    /// truss with γ < 2).
    pub fn to_core(&self) -> Result<TopKQuery, ServiceError> {
        let q = TopKQuery::new(self.gamma).k(self.k).algorithm(self.mode);
        q.validate()
            .map_err(|e| ServiceError::InvalidQuery(e.to_string()))?;
        Ok(q)
    }

    /// Rejects degenerate parameters up front so executors can rely on a
    /// validated query.
    pub fn validate(&self) -> Result<(), ServiceError> {
        self.to_core().map(|_| ())
    }

    /// The answer family this query will be served from, knowable before
    /// planning: a forced algorithm pins its own family, and `Auto` only
    /// ever selects core-family algorithms. Batch grouping and cache
    /// lanes key on this.
    pub fn answer_family(&self) -> AnswerFamily {
        match self.mode {
            Mode::Forced(algorithm) => algorithm.family(),
            // Auto (and any future non-forcing selection): the planner
            // only auto-dispatches within the core family
            _ => AnswerFamily::Core,
        }
    }
}

/// Why a plan was chosen — returned by [`plan`] and printed by `EXPLAIN`.
/// `#[non_exhaustive]` so future planning signals can be added without
/// breaking consumers.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub struct Explain {
    /// The chosen algorithm: the executor the query runs, or for an
    /// [`Self::empty`] plan the one a forced run would use.
    pub algorithm: Algorithm,
    /// Whether the plan alone proves the answer empty (γ above a
    /// memory-resident graph's degeneracy): the service then answers
    /// with no communities and runs no executor.
    pub empty: bool,
    /// The cost-model rule (or override) that selected it.
    pub reason: &'static str,
    /// Whether the choice came from an explicit [`Mode::Forced`].
    pub forced: bool,
    /// Graph statistics the decision consulted.
    pub n: usize,
    pub m: usize,
    pub gamma_max: u32,
    /// The storage backend the plan dispatches against. File-backed
    /// stores restrict the choice to the semi-external executors.
    pub storage: StorageKind,
    /// Estimated bytes the plan will read from disk-resident edge
    /// storage (0 for memory-resident graphs). OnlineAll-SE streams the
    /// whole adjacency section; LocalSearch-SE reads roughly the answer
    /// prefix's share of it.
    pub est_bytes: u64,
}

/// Picks the algorithm for `(γ, k)` on a memory-resident graph with the
/// given statistics.
///
/// The `Auto` branches, in order:
///
/// 1. `γ > γmax` — no γ-core exists, so the answer is empty and the plan
///    is marked [`Explain::empty`]: nothing executes. It names
///    **Forward**, the executor a forced run would use.
/// 2. `k + γ ≥ n` — the heuristic initial prefix already spans the whole
///    graph; **OnlineAll**'s single sweep enumerates everything without
///    LocalSearch's growth rounds.
/// 3. `k + γ ≥ n/2` — the answer prefix likely covers most of the graph;
///    **Forward**'s two flat passes beat repeated counting of near-global
///    prefixes.
/// 4. `k ≤ `[`PROGRESSIVE_K_CUTOFF`] — a tiny result set; the
///    **progressive** stream stops after the minimal prefix.
/// 5. otherwise — **LocalSearch**, the instance-optimal default.
///
/// A query always runs on a committed snapshot whose `γmax` was exact
/// when it was registered or committed, so pending dynamic updates never
/// enter the plan and the empty plan is never wrong.
pub fn plan(stats: &GraphStats, gamma: u32, k: usize, mode: Mode) -> Explain {
    plan_stored(stats, gamma, k, mode, StorageKind::Memory)
}

/// Estimated adjacency bytes a plan reads from a file-backed store.
/// OnlineAll-SE streams the whole section; LocalSearch-SE reads the
/// answer prefix's share of it, approximated by the reach fraction
/// `(k + γ) / n` of the edges (the file is sorted by lower-endpoint
/// rank, so a prefix of vertices owns roughly that share of records).
fn estimate_file_bytes(stats: &GraphStats, algorithm: Algorithm, reach: usize) -> u64 {
    let record = ic_graph::ICSR_RECORD_BYTES as u64;
    let all = stats.m as u64 * record;
    match algorithm {
        Algorithm::OnlineAllSE => all,
        _ => {
            if stats.n == 0 {
                return 0;
            }
            let share = (stats.m as u64).saturating_mul(reach.min(stats.n) as u64) / stats.n as u64;
            (share * record).min(all).max(record)
        }
    }
}

/// Picks the algorithm for `(γ, k)` with the storage backend as an
/// explicit planning dimension. Memory-resident stores plan exactly as
/// [`plan`]; file-backed stores restrict `Auto` to the semi-external
/// executors — the only algorithms that can answer without a
/// memory-resident adjacency — and estimate the bytes the choice will
/// read:
///
/// * `k + γ ≥ n` (or `γ > γmax`) — **OnlineAll-SE**: one sequential pass
///   over the whole adjacency section.
/// * otherwise — **LocalSearch-SE**: reads only the grown prefix, I/O
///   proportional to `size(G≥τ*)`.
///
/// File-backed stores are never planned empty: their `γmax` comes from
/// the `.icsr` header, which [`ic_graph::FileCsr::open`] trusts without
/// checking, so an infeasible γ is disproved by streaming the file once.
/// With an empty plan, a wrong header would return a wrong answer
/// instead of a slow right one.
///
/// A forced mode is honored as-is (the executor itself rejects
/// memory-only algorithms on file stores with a typed error), and is
/// never planned empty: forcing an algorithm asks for its run.
pub fn plan_stored(
    stats: &GraphStats,
    gamma: u32,
    k: usize,
    mode: Mode,
    storage: StorageKind,
) -> Explain {
    let base = |algorithm: Algorithm, reason: &'static str, forced: bool| Explain {
        algorithm,
        empty: false,
        reason,
        forced,
        n: stats.n,
        m: stats.m,
        gamma_max: stats.gamma_max,
        storage,
        est_bytes: 0,
    };
    let reach_for_estimate = k.saturating_add(gamma as usize);
    let with_bytes = |mut e: Explain| {
        if storage == StorageKind::File {
            e.est_bytes = estimate_file_bytes(stats, e.algorithm, reach_for_estimate);
        }
        e
    };
    if let Mode::Forced(algorithm) = mode {
        return with_bytes(base(algorithm, "explicit mode override", true));
    }
    if storage == StorageKind::File {
        let n = stats.n;
        let reach = k.saturating_add(gamma as usize);
        let choice = if reach >= n || gamma > stats.gamma_max {
            base(
                Algorithm::OnlineAllSE,
                "file-backed store with a whole-graph answer prefix (or an \
                 infeasible gamma to disprove): one sequential pass over the \
                 edge file enumerates everything",
                false,
            )
        } else {
            base(
                Algorithm::LocalSearchSE,
                "file-backed store: semi-external local search reads only the \
                 prefix the answer needs, I/O proportional to size(G>=tau*)",
                false,
            )
        };
        return with_bytes(choice);
    }
    let n = stats.n;
    let reach = k.saturating_add(gamma as usize);
    if gamma > stats.gamma_max {
        Explain {
            empty: true,
            ..base(
                Algorithm::Forward,
                "gamma exceeds the graph's degeneracy: no gamma-core exists, so \
                 the answer is empty without a search",
                false,
            )
        }
    } else if reach >= n {
        base(
            Algorithm::OnlineAll,
            "k + gamma >= n: the initial prefix already spans the whole graph, \
             so a single global sweep enumerates every community",
            false,
        )
    } else if reach >= n / 2 {
        base(
            Algorithm::Forward,
            "k + gamma >= n/2: the answer prefix covers most of the graph, so \
             two flat global passes beat geometric re-counting",
            false,
        )
    } else if k <= PROGRESSIVE_K_CUTOFF {
        base(
            Algorithm::Progressive,
            "tiny k: the progressive stream terminates after the minimal \
             prefix, minimizing latency to the first community",
            false,
        )
    } else {
        base(
            Algorithm::LocalSearch,
            "small k relative to n: instance-optimal prefix search touches \
             only the subgraph the answer needs",
            false,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(n: usize, m: usize, gamma_max: u32) -> GraphStats {
        GraphStats {
            n,
            m,
            d_max: gamma_max,
            d_avg: if n == 0 {
                0.0
            } else {
                2.0 * m as f64 / n as f64
            },
            gamma_max,
        }
    }

    #[test]
    fn override_wins_over_everything() {
        let s = stats(1000, 5000, 8);
        for algo in Algorithm::ALL {
            let e = plan(&s, 99, 1, Mode::Forced(algo));
            assert_eq!(e.algorithm, algo);
            assert!(e.forced);
        }
    }

    #[test]
    fn infeasible_gamma_dispatches_forward() {
        let e = plan(&stats(1000, 5000, 8), 9, 5, Mode::Auto);
        assert_eq!(e.algorithm, Algorithm::Forward);
        assert!(e.reason.contains("degeneracy"));
        assert!(e.empty, "gamma above gamma_max is planned empty");
        assert!(!e.forced);
        // the bound is strict: gamma_max itself may have communities
        assert!(!plan(&stats(1000, 5000, 8), 8, 5, Mode::Auto).empty);
    }

    #[test]
    fn only_auto_memory_plans_are_empty() {
        let s = stats(1000, 5000, 8);
        for algo in Algorithm::ALL {
            let e = plan(&s, 9, 5, Mode::Forced(algo));
            assert!(!e.empty, "forced {algo} still executes");
        }
        let file = plan_stored(&s, 9, 5, Mode::Auto, StorageKind::File);
        assert!(!file.empty, "a file header's gamma_max is not trusted");
        for gamma in 1..=8u32 {
            for k in [1usize, 5, 50, 600, 2000] {
                assert!(!plan(&s, gamma, k, Mode::Auto).empty, "gamma={gamma} k={k}");
            }
        }
    }

    #[test]
    fn whole_graph_k_dispatches_online_all() {
        let e = plan(&stats(100, 500, 8), 3, 100, Mode::Auto);
        assert_eq!(e.algorithm, Algorithm::OnlineAll);
    }

    #[test]
    fn large_k_dispatches_forward() {
        let e = plan(&stats(100, 500, 8), 3, 60, Mode::Auto);
        assert_eq!(e.algorithm, Algorithm::Forward);
        assert!(e.reason.contains("flat"));
    }

    #[test]
    fn tiny_k_dispatches_progressive() {
        let e = plan(&stats(1000, 5000, 8), 3, PROGRESSIVE_K_CUTOFF, Mode::Auto);
        assert_eq!(e.algorithm, Algorithm::Progressive);
    }

    #[test]
    fn moderate_k_dispatches_local_search() {
        let e = plan(&stats(1000, 5000, 8), 3, 20, Mode::Auto);
        assert_eq!(e.algorithm, Algorithm::LocalSearch);
    }

    #[test]
    fn auto_never_plans_an_override_only_algorithm() {
        let s = stats(200, 900, 8);
        for gamma in 1..=10u32 {
            for k in [1usize, 2, 5, 50, 100, 250] {
                let algo = plan(&s, gamma, k, Mode::Auto).algorithm;
                assert!(
                    !matches!(
                        algo,
                        Algorithm::Backward | Algorithm::Naive | Algorithm::Truss
                    ),
                    "gamma={gamma} k={k} planned {algo}"
                );
            }
        }
    }

    #[test]
    fn answer_family_is_knowable_before_planning() {
        assert_eq!(Query::new("g", 3, 4).answer_family(), AnswerFamily::Core);
        for algo in Algorithm::ALL {
            let q = Query::new("g", 3, 4).with_mode(Mode::Forced(algo));
            assert_eq!(q.answer_family(), algo.family(), "{algo}");
        }
    }

    #[test]
    fn memory_storage_plans_report_zero_bytes() {
        let e = plan(&stats(1000, 5000, 8), 3, 20, Mode::Auto);
        assert_eq!(e.storage, StorageKind::Memory);
        assert_eq!(e.est_bytes, 0);
    }

    #[test]
    fn file_storage_restricts_auto_to_semi_external() {
        let s = stats(1000, 5000, 8);
        for gamma in 1..=10u32 {
            for k in [1usize, 2, 5, 50, 100, 600, 2000] {
                let e = plan_stored(&s, gamma, k, Mode::Auto, StorageKind::File);
                assert!(
                    matches!(
                        e.algorithm,
                        Algorithm::LocalSearchSE | Algorithm::OnlineAllSE
                    ),
                    "gamma={gamma} k={k} planned {}",
                    e.algorithm
                );
                assert_eq!(e.storage, StorageKind::File);
                assert!(e.est_bytes > 0, "file plans always read something");
            }
        }
        // small answers read a prefix, whole-graph answers stream the file
        let small = plan_stored(&s, 3, 5, Mode::Auto, StorageKind::File);
        assert_eq!(small.algorithm, Algorithm::LocalSearchSE);
        let whole = plan_stored(&s, 3, 2000, Mode::Auto, StorageKind::File);
        assert_eq!(whole.algorithm, Algorithm::OnlineAllSE);
        assert_eq!(
            whole.est_bytes,
            5000 * ic_graph::ICSR_RECORD_BYTES as u64,
            "OnlineAll-SE streams the whole adjacency section"
        );
        assert!(small.est_bytes < whole.est_bytes);
        // an infeasible gamma still needs the full-stream emptiness check
        let empty = plan_stored(&s, 9, 1, Mode::Auto, StorageKind::File);
        assert_eq!(empty.algorithm, Algorithm::OnlineAllSE);
    }

    #[test]
    fn forced_mode_survives_file_storage() {
        let s = stats(1000, 5000, 8);
        let e = plan_stored(
            &s,
            3,
            4,
            Mode::Forced(Algorithm::LocalSearch),
            StorageKind::File,
        );
        assert_eq!(e.algorithm, Algorithm::LocalSearch);
        assert!(e.forced);
        assert_eq!(e.storage, StorageKind::File);
    }

    #[test]
    fn memory_auto_never_plans_semi_external() {
        let s = stats(200, 900, 8);
        for gamma in 1..=10u32 {
            for k in [1usize, 2, 5, 50, 100, 250] {
                let algo = plan(&s, gamma, k, Mode::Auto).algorithm;
                assert!(
                    !matches!(algo, Algorithm::LocalSearchSE | Algorithm::OnlineAllSE),
                    "gamma={gamma} k={k} planned {algo}"
                );
            }
        }
    }

    #[test]
    fn mode_parsing_round_trips() {
        assert_eq!(parse_mode("auto").unwrap(), Mode::Auto);
        for algo in Algorithm::ALL {
            assert_eq!(parse_mode(algo.name()).unwrap(), Mode::Forced(algo));
        }
        assert!(parse_mode("mystery").is_err());
    }

    #[test]
    fn query_validation_is_the_central_one() {
        assert!(Query::new("g", 1, 1).validate().is_ok());
        assert!(Query::new("g", 0, 1).validate().is_err());
        assert!(Query::new("g", 1, 0).validate().is_err());
        assert!(Query::new("g", 1, usize::MAX).validate().is_err());
        // the truss constraint is enforced before any graph is touched
        assert!(Query::new("g", 1, 1)
            .with_mode(Mode::Forced(Algorithm::Truss))
            .validate()
            .is_err());
        assert!(Query::new("g", 2, 1)
            .with_mode(Mode::Forced(Algorithm::Truss))
            .validate()
            .is_ok());
        // to_core carries the mode into the library request
        let q = Query::new("g", 3, 4)
            .with_mode(Mode::Forced(Algorithm::Forward))
            .to_core()
            .unwrap();
        assert_eq!(q.selection(), Mode::Forced(Algorithm::Forward));
    }
}
