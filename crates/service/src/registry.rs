//! Named, immutable, shared graphs.
//!
//! The service serves many queries against few graphs, so graphs are
//! loaded once, wrapped in a shared [`GraphStore`] handle, and handed
//! out by name. A graph is never mutated after registration —
//! re-registering a name atomically replaces the mapping (readers
//! holding the old store finish their query against the old instance;
//! the caller is responsible for invalidating any result cache keyed by
//! the name, see [`crate::service::Service::register`]).
//!
//! Registration also computes the [`GraphStats`] the planner's cost model
//! consumes (n, m, degeneracy), so per-query planning is O(1). The store
//! handle makes the *storage backend* a first-class dimension: a name
//! can be served from a fully memory-resident CSR or a file-backed
//! `.icsr` store, and the planner sees which through
//! [`RegisteredGraph::storage`].

use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

use ic_graph::stats::graph_stats;
use ic_graph::{GraphStats, GraphStore, StorageKind, WeightedGraph};

use crate::error::ServiceError;
use crate::sync::{read_or_poison, write_or_poison};

/// A registered graph: the shared store handle plus its planning
/// statistics.
#[derive(Debug, Clone)]
pub struct RegisteredGraph {
    pub name: String,
    /// The storage-tagged graph handle queries run against.
    pub store: GraphStore,
    pub stats: GraphStats,
    /// Registry-wide monotone id of this registration. Re-registering a
    /// name produces a new generation, which the result cache folds into
    /// its keys: an answer computed against a replaced instance can never
    /// be served to queries planned against the new one, even if the
    /// insert lands after the swap.
    pub generation: u64,
}

impl RegisteredGraph {
    /// The storage backend this name is served from.
    pub fn storage(&self) -> StorageKind {
        self.store.kind()
    }

    /// The in-memory instance, or a typed error for file-backed stores.
    /// Subsystems that need random access to the adjacency (sessions,
    /// dynamic overlays, `SAVE`) go through here so the rejection message
    /// is uniform.
    pub fn memory(&self) -> Result<&Arc<WeightedGraph>, ServiceError> {
        self.store.as_memory().ok_or_else(|| {
            ServiceError::Storage(format!(
                "graph {:?} is file-backed; this operation needs a memory-resident graph",
                self.name
            ))
        })
    }
}

/// Thread-safe name → graph map.
#[derive(Debug, Default)]
pub struct GraphRegistry {
    graphs: RwLock<HashMap<String, RegisteredGraph>>,
    next_generation: AtomicU64,
}

impl GraphRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers (or replaces) an in-memory graph under `name`, computing
    /// its planning statistics. Returns the registered entry.
    pub fn register(&self, name: &str, graph: WeightedGraph) -> RegisteredGraph {
        let stats = graph_stats(&graph);
        self.register_prepared(name, Arc::new(graph), stats)
    }

    /// Registers (or replaces) an in-memory graph whose statistics the
    /// caller already holds, skipping the [`graph_stats`] call
    /// [`GraphRegistry::register`] would pay. This is the commit path of
    /// the dynamic-update subsystem: an `ic-dynamic` commit has already
    /// peeled the new snapshot (or, for reweights alone, kept statistics
    /// that weights cannot change). The caller vouches that `stats`
    /// describes `graph`.
    pub fn register_prepared(
        &self,
        name: &str,
        graph: Arc<WeightedGraph>,
        stats: GraphStats,
    ) -> RegisteredGraph {
        debug_assert_eq!(stats.n, graph.n(), "stats must describe the graph");
        debug_assert_eq!(stats.m, graph.m(), "stats must describe the graph");
        self.register_store(name, GraphStore::Memory(graph), stats)
    }

    /// Registers (or replaces) a graph under `name` from any storage
    /// backend. `.icsr` stores carry their statistics in the file header,
    /// so file-backed registration is O(n) with no core peel.
    pub fn register_store(
        &self,
        name: &str,
        store: GraphStore,
        stats: GraphStats,
    ) -> RegisteredGraph {
        let generation = self.next_generation.fetch_add(1, Ordering::Relaxed);
        self.insert(name, store, stats, generation)
    }

    /// Re-registers a graph under the generation it held before a
    /// restart, so recovered sessions observe the same generation numbers
    /// clients saw at commit time. Future registrations continue strictly
    /// above any recovered generation.
    pub fn register_recovered(
        &self,
        name: &str,
        store: GraphStore,
        stats: GraphStats,
        generation: u64,
    ) -> RegisteredGraph {
        // bump the allocator past the recovered id (lock-free max)
        let mut next = self.next_generation.load(Ordering::Relaxed);
        while next <= generation {
            match self.next_generation.compare_exchange_weak(
                next,
                generation + 1,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(observed) => next = observed,
            }
        }
        self.insert(name, store, stats, generation)
    }

    fn insert(
        &self,
        name: &str,
        store: GraphStore,
        stats: GraphStats,
        generation: u64,
    ) -> RegisteredGraph {
        debug_assert_eq!(stats.n, store.n(), "stats must describe the store");
        debug_assert_eq!(stats.m, store.m(), "stats must describe the store");
        let entry = RegisteredGraph {
            name: name.to_string(),
            stats,
            store,
            generation,
        };
        write_or_poison(&self.graphs).insert(name.to_string(), entry.clone());
        entry
    }

    /// Looks up a graph by name.
    pub fn get(&self, name: &str) -> Result<RegisteredGraph, ServiceError> {
        read_or_poison(&self.graphs)
            .get(name)
            .cloned()
            .ok_or_else(|| ServiceError::UnknownGraph(name.to_string()))
    }

    /// All registered graphs, sorted by name.
    pub fn list(&self) -> Vec<RegisteredGraph> {
        let mut v: Vec<RegisteredGraph> = read_or_poison(&self.graphs).values().cloned().collect();
        v.sort_by(|a, b| a.name.cmp(&b.name));
        v
    }

    /// Number of registered graphs.
    pub fn len(&self) -> usize {
        read_or_poison(&self.graphs).len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::paper::{figure1, figure3};
    use ic_graph::scratch::ScratchDir;
    use ic_graph::{save_icsr, FileCsr};

    fn store_ptr_eq(a: &GraphStore, b: &GraphStore) -> bool {
        match (a, b) {
            (GraphStore::Memory(x), GraphStore::Memory(y)) => Arc::ptr_eq(x, y),
            (GraphStore::File(x), GraphStore::File(y)) => Arc::ptr_eq(x, y),
            _ => false,
        }
    }

    #[test]
    fn register_and_lookup() {
        let reg = GraphRegistry::new();
        assert!(reg.is_empty());
        let entry = reg.register("fig3", figure3());
        assert_eq!(entry.stats.n, entry.store.n());
        assert_eq!(entry.storage(), StorageKind::Memory);
        let got = reg.get("fig3").unwrap();
        assert!(store_ptr_eq(&entry.store, &got.store));
        assert!(matches!(
            reg.get("nope"),
            Err(ServiceError::UnknownGraph(_))
        ));
    }

    #[test]
    fn replace_swaps_instance() {
        let reg = GraphRegistry::new();
        let a = reg.register("g", figure3());
        let held = a.store.clone();
        let b = reg.register("g", figure1());
        assert!(!store_ptr_eq(&held, &b.store));
        assert!(
            b.generation > a.generation,
            "re-registration bumps the generation"
        );
        // the old handle is still fully usable by in-flight queries
        assert_eq!(held.n(), figure3().n());
        assert_eq!(reg.get("g").unwrap().store.n(), figure1().n());
    }

    #[test]
    fn register_prepared_skips_recompute_but_matches() {
        let reg = GraphRegistry::new();
        let via_full = reg.register("a", figure3());
        let entry = reg.register_prepared("b", Arc::new(figure3()), via_full.stats);
        assert_eq!(entry.stats, via_full.stats);
        assert!(entry.generation > via_full.generation);
        assert_eq!(reg.get("b").unwrap().stats, via_full.stats);
    }

    #[test]
    fn file_backed_registration_and_memory_accessor() {
        let dir = ScratchDir::new("ic-registry-file");
        let g = figure3();
        let path = dir.file("fig3.icsr");
        save_icsr(&g, &path).unwrap();
        let csr = FileCsr::open(&path).unwrap();
        let stats = csr.stats();
        let reg = GraphRegistry::new();
        let entry = reg.register_store("fig3", GraphStore::File(Arc::new(csr)), stats);
        assert_eq!(entry.storage(), StorageKind::File);
        assert_eq!(entry.stats.n, g.n());
        assert!(matches!(entry.memory(), Err(ServiceError::Storage(_))));
        // a memory registration's accessor succeeds
        let mem = reg.register("m", figure3());
        assert!(mem.memory().is_ok());
    }

    #[test]
    fn recovered_generations_stay_monotone() {
        let reg = GraphRegistry::new();
        let g = figure3();
        let stats = graph_stats(&g);
        let entry = reg.register_recovered("g", GraphStore::Memory(Arc::new(g)), stats, 17);
        assert_eq!(entry.generation, 17);
        assert_eq!(reg.get("g").unwrap().generation, 17);
        // the next fresh registration continues above the recovered id
        let next = reg.register("h", figure1());
        assert!(next.generation > 17, "got {}", next.generation);
        // recovering a lower generation never rolls the allocator back
        let low = reg.register_recovered(
            "old",
            GraphStore::Memory(Arc::new(figure1())),
            graph_stats(&figure1()),
            3,
        );
        assert_eq!(low.generation, 3);
        assert!(reg.register("i", figure1()).generation > next.generation);
    }

    #[test]
    fn list_is_sorted() {
        let reg = GraphRegistry::new();
        reg.register("zeta", figure1());
        reg.register("alpha", figure1());
        let names: Vec<String> = reg.list().into_iter().map(|e| e.name).collect();
        assert_eq!(names, vec!["alpha".to_string(), "zeta".to_string()]);
    }
}
