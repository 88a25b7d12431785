//! `ic-service` — the serving layer for online influential-community
//! search.
//!
//! The paper's point is *online* queries: LocalSearch answers a `(γ, k)`
//! query in time proportional to the answer, and LS-P streams communities
//! progressively. This crate turns those library calls into a concurrent
//! query engine, std-only like the rest of the workspace:
//!
//! * [`registry::GraphRegistry`] — named, immutable `Arc`-shared graphs,
//!   loaded from files or synthesized, with planning statistics captured
//!   at registration.
//! * [`planner`] — a [`planner::Query`] type (validated through
//!   `ic-core`'s central [`ic_core::TopKQuery`] builder) and a cost model
//!   choosing between LocalSearch, progressive, Forward, and OnlineAll
//!   per query, with an explicit override (any [`planner::Algorithm`],
//!   including the `backward`/`naive` baselines and the `truss` family)
//!   and an explainable decision ([`planner::Explain`]). The planner's
//!   output is consumed through the [`ic_core::query::Algorithm`] trait —
//!   the service contains no per-algorithm dispatch of its own.
//! * [`service::Service`] — the engine: a fixed worker pool (panicking
//!   jobs are caught and counted, never shrink the pool) executing
//!   queries against shared graphs behind a sharded LRU [`cache`] keyed
//!   by `(graph, γ, k, answer-family)` — *prefix-aware* within the core
//!   family, so a cached top-k′ serves every k ≤ k′ by slicing — with an
//!   [`inflight`] single-flight table coalescing identical concurrent
//!   cold queries into one execution, and hit/miss/coalesced/latency
//!   counters snapshotted as [`stats::ServiceStats`].
//!   [`service::Service::query_batch`] answers whole request lists with
//!   one search per `(graph, generation, γ, family)` group, executed at
//!   the group's largest k and sliced per request.
//! * [`session::Session`] — progressive sessions: pull communities one
//!   batch at a time across calls, each session a mutex around a
//!   `ProgressiveSearch` iterator that owns its share of the graph, pulled
//!   on the caller's thread.
//! * dynamic updates — [`Service::update`] buffers edge/vertex churn in a
//!   per-graph [`ic_dynamic::DynamicGraph`] overlay and
//!   [`Service::commit_updates`] swaps the compacted snapshot in under a
//!   new registry generation, so the result cache invalidates by
//!   construction. Queries plan and run on the registered snapshot and
//!   never take the overlays' lock, so a commit in progress never
//!   stalls a reader.
//! * durability — [`service::Service::with_persistence`] pins the whole
//!   registry to a data directory: registrations snapshot to disk,
//!   updates append to a per-graph [`ic_dynamic::wal`] write-ahead log
//!   before they are acknowledged, commits fsync a generation record,
//!   and a restarted service replays manifest + WAL so every *committed*
//!   generation comes back (uncommitted tails are discarded).
//! * [`protocol`] / [`server`] — a line-oriented text protocol (`LOAD`,
//!   `QUERY`, `UPDATE`, `COMMIT`, `NEXT`, `STATS`, `EXPLAIN`, …) and the
//!   TCP front-end behind the `serve` binary.
//!
//! # Example
//!
//! ```
//! use ic_graph::paper::figure3;
//! use ic_service::{Query, Service};
//!
//! let svc = Service::with_defaults();
//! svc.register("fig3", figure3());
//!
//! // batch query through the pool + cache
//! let resp = svc.query(Query::new("fig3", 3, 4)).unwrap();
//! assert_eq!(resp.communities.len(), 4);
//! assert!(svc.query(Query::new("fig3", 3, 4)).unwrap().cached);
//! // the k=4 answer prefix-serves any smaller k in the same lane
//! assert!(svc.query(Query::new("fig3", 3, 2)).unwrap().cached);
//!
//! // batched execution: one search per (graph, γ, family) group
//! let batch = svc.query_batch(&[Query::new("fig3", 4, 1), Query::new("fig3", 4, 3)]);
//! assert_eq!(batch.len(), 2);
//! assert_eq!(batch[0].as_ref().unwrap().communities.len(), 1);
//!
//! // progressive session: pull communities one at a time
//! let id = svc.open_session("fig3", 3).unwrap();
//! let (first, _done) = svc.session_next_full(id, 1).unwrap();
//! assert_eq!(first.len(), 1);
//! svc.close_session(id).unwrap();
//! ```

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::let_underscore_must_use,
        clippy::allow_attributes,
        clippy::allow_attributes_without_reason
    )
)]

pub mod cache;
pub mod error;
pub mod inflight;
pub mod metrics;
mod persist;
pub mod planner;
pub mod pool;
pub mod protocol;
pub mod registry;
pub mod server;
pub mod service;
pub mod session;
pub mod stats;
pub(crate) mod sync;

pub use cache::{CacheHit, CacheKey, ResultCache};
pub use error::ServiceError;
pub use ic_dynamic::{CommitReceipt, DynamicGraph, UpdateOp};
pub use ic_obs::{QueryClass, QueryTrace, Stage};
pub use inflight::InflightTable;
pub use metrics::{ServiceMetrics, SlowQuery};
pub use planner::{plan, plan_stored, Algorithm, Explain, Mode, Query};
pub use pool::WorkerPool;
pub use registry::{GraphRegistry, RegisteredGraph};
pub use server::{serve, serve_metrics, serve_with, Accept, ServerOptions};
pub use service::{QueryResponse, Service, ServiceConfig, SyntheticSpec, UpdateStatus};
pub use session::Session;
pub use stats::ServiceStats;
