//! `ic-dynamic` — dynamic updates for online influential-community search.
//!
//! The rest of the workspace is built around a frozen, weight-sorted CSR
//! graph: `ic-graph` stores it, `ic-core` searches it, `ic-service`
//! serves it. Real serving traffic is not frozen — edges churn, vertices
//! appear and disappear, influence scores drift. Before this crate the
//! only way to reflect a change was a full reload: rebuild the graph,
//! re-run the global core decomposition, re-register.
//!
//! `ic-dynamic` closes that gap with a mutate/commit split:
//!
//! * [`DynamicGraph`] accepts updates ([`UpdateOp`]: edge insert/delete,
//!   vertex add/remove, reweight) against a mutable adjacency state while
//!   queries keep running against the last committed snapshot.
//! * [`DynamicGraph::commit`] compacts the state into a fresh immutable
//!   CSR snapshot plus registration-grade [`ic_graph::GraphStats`] — the
//!   algorithms in `ic-core` run on it unchanged, and `ic-service` swaps
//!   it into its registry under a new generation, which invalidates the
//!   result cache for free. Edge churn and reweights re-rank the previous
//!   snapshot in O(n + m) plus sorting the reweighted vertices, as the
//!   paper's index-free design allows for a new weight vector; only
//!   vertex adds and removals pay the full sort-and-relabel rebuild.
//!   Beyond the weight order, LocalSearch needs only the degeneracy
//!   `γmax`, so a commit that changed the structure pays one linear core
//!   peel for its statistics and a reweight-only commit pays none.
//! * [`DynamicGraph::stale_core_fraction`] reports the share of the
//!   published snapshot's vertices whose adjacency the pending updates
//!   changed (1.0 once a vertex was added or removed).
//! * [`DynamicGraph::query`] answers `ic-core`'s unified
//!   [`ic_core::TopKQuery`] against the committed snapshot, so dynamic
//!   graphs speak the same request/response surface as everything else.
//! * [`wal`] — a line-oriented write-ahead log for the mutate/commit
//!   cycle: ops are appended as they are accepted and a fsync'd
//!   `commit <generation>` record marks each published snapshot, so a
//!   serving layer can replay committed generations after a restart and
//!   discard any uncommitted (possibly torn) tail.
//!
//! # Example
//!
//! ```
//! use ic_dynamic::DynamicGraph;
//! use ic_graph::paper::figure3;
//!
//! let mut dg = DynamicGraph::new(figure3());
//! dg.delete_edge(3, 11).unwrap();
//! dg.add_vertex(100, 21.5).unwrap();
//! dg.insert_edge(100, 12).unwrap();
//! assert_eq!(dg.stale_core_fraction(), 1.0); // the vertex set changed
//!
//! let receipt = dg.commit();
//! assert_eq!(receipt.ops_applied, 3);
//! assert_eq!(receipt.graph.n(), 23);
//! // a structural commit peels the new snapshot once for its stats
//! assert_eq!(receipt.stats, ic_graph::stats::graph_stats(&receipt.graph));
//! ```

#![cfg_attr(not(test), deny(clippy::let_underscore_must_use))]

pub mod graph;
pub mod wal;

pub use graph::{CommitReceipt, DynamicError, DynamicGraph, UpdateOp};
pub use wal::{committed_ops, read_wal, WalRecord, WalStats, WalWriter};
