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
//! * [`CoreTracker`] keeps core numbers *exact* after every structural
//!   update using the standard subcore maintenance rules (an update moves
//!   core numbers only inside the affected subcore, by at most one), so
//!   the degeneracy the query planner needs is always available in O(1)
//!   and a commit never pays the global peel again.
//! * [`DynamicGraph::commit`] compacts the state into a fresh immutable
//!   CSR snapshot plus registration-grade [`ic_graph::GraphStats`] — the
//!   algorithms in `ic-core` run on it unchanged, and `ic-service` swaps
//!   it into its registry under a new generation, which invalidates the
//!   result cache for free. Edge churn and reweights re-rank the previous
//!   snapshot in O(n + m) plus sorting the reweighted vertices, as the
//!   paper's index-free design allows for a new weight vector; only
//!   vertex adds and removals pay the full sort-and-relabel rebuild.
//! * [`DynamicGraph::stale_core_fraction`] quantifies how far the
//!   published snapshot's planning statistics have drifted from the live
//!   state, a signal the service planner folds into its dispatch rules.
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
//! assert!(dg.stale_core_fraction() > 0.0);
//!
//! let receipt = dg.commit();
//! assert_eq!(receipt.ops_applied, 3);
//! assert_eq!(receipt.graph.n(), 23);
//! // stats were assembled from maintained cores — no global peel
//! assert_eq!(receipt.stats.gamma_max, dg.gamma_max());
//! ```

pub mod cores;
pub mod graph;
pub mod wal;

pub use cores::{CoreTracker, MaintenanceStats};
pub use graph::{CommitReceipt, DynamicError, DynamicGraph, UpdateOp};
pub use wal::{committed_ops, read_wal, WalRecord, WalStats, WalWriter};
