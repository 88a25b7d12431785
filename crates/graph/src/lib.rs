//! Graph substrates for top-k influential community search.
//!
//! This crate provides everything *below* the community-search algorithms of
//! the `ic-core` crate (which depends on this one, so no intra-doc link can
//! point at it from here):
//!
//! * [`WeightedGraph`] — an immutable, weight-sorted CSR representation in
//!   which vertices are identified by their *rank* in decreasing weight
//!   order and each adjacency list is pre-partitioned into higher-weight
//!   (`N≥`) and lower-weight (`N<`) neighbors, exactly the organization
//!   required by Section 3.1 of the paper.
//! * [`Prefix`] — an incrementally growable view of the induced subgraph
//!   `G≥τ` (the vertices of the first `t` ranks), the object LocalSearch
//!   grows geometrically.
//! * [`generators`] — deterministic synthetic workload generators
//!   (uniform G(n,m), Barabási–Albert, R-MAT, planted-partition
//!   collaboration networks) used in place of the paper's SNAP/LAW graphs.
//! * [`pagerank`] — the vertex-weight rule used throughout the paper's
//!   evaluation (PageRank with damping 0.85).
//! * [`io`] — text and binary persistence.
//! * [`store`] — pluggable storage backends behind one [`GraphStore`]
//!   seam: the in-memory CSR plus a file-backed `.icsr` CSR opened under
//!   a memory budget, whose adjacency is sorted by decreasing edge weight
//!   and read with byte-level [`IoStats`] accounting, and the
//!   [`store::SemiExternalSource`] trait the semi-external executors
//!   (Eval-VI) are generic over.
//! * [`stats`] — the statistics of Table 1 (n, m, dmax, davg, γmax).
//! * [`scratch`] — unique, self-cleaning temp directories for the
//!   disk-backed test suites across the workspace.

pub mod builder;
pub mod generators;
pub mod graph;
pub mod io;
pub mod pagerank;
pub mod paper;
pub mod prefix;
pub mod rng;
pub mod scratch;
pub mod stats;
pub mod store;
pub mod suite;

pub use builder::{GraphBuilder, GraphError};
pub use graph::{Rank, WeightedGraph};
pub use prefix::Prefix;
pub use rng::Pcg32;
pub use stats::GraphStats;
pub use store::{
    save_icsr, FileCsr, FileCsrEdges, GraphStore, IoStats, MemEdges, PrefixEdges,
    SemiExternalSource, StorageKind, ICSR_RECORD_BYTES,
};
