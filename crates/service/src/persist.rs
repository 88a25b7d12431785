//! Durable state for a serving instance: the `--data-dir` layer.
//!
//! A [`crate::service::Service`] built through
//! [`crate::service::Service::with_persistence`] records enough on disk
//! to bring every *committed* registration back after a restart:
//!
//! * `MANIFEST` — one line per registered graph naming its numeric file
//!   id, baseline generation, storage kind, and (last, so it may contain
//!   spaces) its registry name. Rewritten atomically (tmp + rename) on
//!   every registration.
//! * `<id>.icg` — an `ICG1` binary snapshot of a memory-resident graph,
//!   written tmp + rename + fsync at registration time.
//! * `<id>.ptr` — for file-backed (`LOADX`) registrations, the resident
//!   budget and the path of the `.icsr` file the store was opened from.
//!   The edge payload itself already lives durably in that file.
//! * `<id>.wal` — the graph's [`ic_dynamic::wal`] write-ahead log:
//!   every accepted `UPDATE` is appended (and flushed) before the update
//!   is acknowledged, and `COMMIT` appends a fsync'd
//!   `commit <generation>` record after the new snapshot is registered.
//!
//! Recovery ([`Persistence::open`]) replays this state in the obvious
//! order: load each manifest entry's snapshot (or reopen its `.icsr`
//! pointer), replay the WAL's committed prefix through a fresh
//! [`ic_dynamic::DynamicGraph`], and hand the resulting store back for
//! [`crate::registry::GraphRegistry::register_recovered`] under the
//! recorded generation. Ops after the last commit record — including a
//! tail torn mid-line by the crash — are discarded, which is exactly the
//! protocol contract: only `COMMIT` publishes.
//!
//! File ids are allocated fresh at every registration so a crash between
//! "snapshot written" and "manifest rewritten" can only expose the *old*
//! registration, never a new snapshot paired with an old WAL. Files
//! orphaned by such a crash are garbage-collected on the next open.
//!
//! Failures inside the registration hooks do not fail the (infallible,
//! already-acknowledged) in-memory registration; instead the layer
//! marks itself degraded and every subsequent `UPDATE`/`COMMIT` on the
//! service reports [`crate::ServiceError::Persistence`] — the in-memory
//! state stays consistent, it is just no longer guaranteed to survive a
//! restart, and the layer refuses to pretend otherwise.

use std::collections::HashMap;
use std::fs::{self, File};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

use ic_dynamic::{committed_ops, read_wal, DynamicGraph, UpdateOp, WalStats, WalWriter};
use ic_graph::stats::graph_stats;
use ic_graph::{io as graph_io, FileCsr, GraphStats, GraphStore, WeightedGraph};

use crate::error::ServiceError;

/// First line of `MANIFEST`; bump on incompatible layout changes.
const MANIFEST_MAGIC: &str = "ICMF1";

/// How one graph's payload is stored on disk.
#[derive(Debug, Clone, PartialEq)]
enum PersistKind {
    /// Snapshot in `<id>.icg`.
    Memory,
    /// `.icsr` file named by `<id>.ptr`, opened under `budget`.
    File { path: String, budget: Option<u64> },
}

/// Book-keeping for one registered graph.
#[derive(Debug)]
struct PersistEntry {
    id: u64,
    kind: PersistKind,
    /// Generation at registration; commits move past it via WAL records.
    generation: u64,
    /// Lazily opened appender for `<id>.wal`.
    wal: Option<WalWriter>,
}

/// A graph reconstructed by [`Persistence::open`], ready for
/// [`crate::registry::GraphRegistry::register_recovered`].
#[derive(Debug)]
pub(crate) struct RecoveredGraph {
    pub name: String,
    pub store: GraphStore,
    pub stats: GraphStats,
    pub generation: u64,
}

/// The durable side of a service; one instance per `--data-dir`.
#[derive(Debug)]
pub(crate) struct Persistence {
    dir: PathBuf,
    entries: HashMap<String, PersistEntry>,
    next_id: u64,
    /// First hook failure, if any; see the module docs.
    degraded: Option<String>,
    /// Committed WAL ops re-applied by the last [`Persistence::open`].
    replayed_ops: u64,
    /// Wall-clock nanoseconds that replay took.
    replay_ns: u64,
}

impl Persistence {
    /// Opens (creating if needed) the data directory and replays its
    /// manifest + WALs. Returns the layer plus every graph it recovered.
    pub fn open(dir: &Path) -> Result<(Persistence, Vec<RecoveredGraph>), ServiceError> {
        fs::create_dir_all(dir)
            .map_err(|e| persist_err(format!("create {}: {e}", dir.display())))?;
        let mut p = Persistence {
            dir: dir.to_path_buf(),
            entries: HashMap::new(),
            next_id: 1,
            degraded: None,
            replayed_ops: 0,
            replay_ns: 0,
        };
        let mut recovered = Vec::new();
        let replay_start = std::time::Instant::now();
        for (id, generation, kind, name) in p.read_manifest()? {
            let graph = p.recover_entry(id, generation, &kind, &name)?;
            p.next_id = p.next_id.max(id + 1);
            p.entries.insert(
                name.clone(),
                PersistEntry {
                    id,
                    kind,
                    generation,
                    wal: None,
                },
            );
            recovered.push(graph);
        }
        p.replay_ns = replay_start.elapsed().as_nanos() as u64;
        p.collect_garbage();
        Ok((p, recovered))
    }

    /// True once a hook has failed; the error that broke durability.
    pub fn degraded(&self) -> Option<&str> {
        self.degraded.as_deref()
    }

    /// WAL accounting summed over every graph whose writer this process
    /// has opened (writers open lazily on the first post-recovery
    /// append, so a freshly recovered, untouched graph contributes
    /// zeros).
    pub fn wal_stats(&self) -> WalStats {
        let mut total = WalStats::default();
        for entry in self.entries.values() {
            if let Some(wal) = &entry.wal {
                let s = wal.stats();
                total.ops_appended += s.ops_appended;
                total.commits += s.commits;
                total.fsync_ns += s.fsync_ns;
            }
        }
        total
    }

    /// Committed WAL ops re-applied by the last recovery.
    pub fn replayed_ops(&self) -> u64 {
        self.replayed_ops
    }

    /// Wall-clock nanoseconds the last recovery's replay took.
    pub fn replay_ns(&self) -> u64 {
        self.replay_ns
    }

    // ----- registration hooks ------------------------------------------

    /// Records a memory-resident registration: snapshot + manifest, and
    /// the previous incarnation's files (WAL included) are retired.
    pub fn record_memory(&mut self, name: &str, graph: &Arc<WeightedGraph>, generation: u64) {
        let snapshot = Arc::clone(graph);
        self.record(name, PersistKind::Memory, generation, |dir, id| {
            write_atomic(&dir.join(format!("{id}.icg")), |out| {
                graph_io::write_binary(&snapshot, out)
            })
        });
    }

    /// Records a file-backed (`LOADX`) registration: the pointer file
    /// plus manifest. The `.icsr` payload is already durable where it is.
    pub fn record_file(&mut self, name: &str, path: &str, budget: Option<u64>, generation: u64) {
        let ptr_body = format!(
            "budget {}\npath {path}\n",
            budget.map_or_else(|| "default".to_string(), |b| b.to_string())
        );
        let kind = PersistKind::File {
            path: path.to_string(),
            budget,
        };
        self.record(name, kind, generation, |dir, id| {
            write_atomic(&dir.join(format!("{id}.ptr")), |out| {
                out.write_all(ptr_body.as_bytes())
            })
        });
    }

    /// Shared registration path: allocate a fresh id, write the payload,
    /// rewrite the manifest, then retire the superseded incarnation.
    fn record(
        &mut self,
        name: &str,
        kind: PersistKind,
        generation: u64,
        write_payload: impl Fn(&Path, u64) -> io::Result<()>,
    ) {
        if name.contains(['\n', '\r']) {
            self.mark_degraded(format!("graph name {name:?} cannot be persisted"));
            return;
        }
        let id = self.next_id;
        let old = self.entries.remove(name);
        let result = write_payload(&self.dir, id).and_then(|()| {
            self.next_id += 1;
            self.entries.insert(
                name.to_string(),
                PersistEntry {
                    id,
                    kind,
                    generation,
                    wal: None,
                },
            );
            self.write_manifest()
        });
        match result {
            Ok(()) => {
                if let Some(old) = old {
                    self.remove_entry_files(old.id);
                }
            }
            Err(e) => self.mark_degraded(format!("persisting {name}: {e}")),
        }
    }

    // ----- update / commit hooks ---------------------------------------

    /// Appends one accepted update to `name`'s WAL. Called after the op
    /// was validated and applied to the in-memory overlay; a failure here
    /// means the acknowledgement would overstate durability, so it is a
    /// hard error back to the client.
    pub fn append_op(&mut self, name: &str, op: &UpdateOp) -> Result<(), ServiceError> {
        self.check_degraded()?;
        self.wal_writer(name)?
            .append_op(op)
            .map_err(|e| persist_err(format!("wal append for {name}: {e}")))
    }

    /// Appends the fsync'd commit record publishing `generation`.
    pub fn append_commit(&mut self, name: &str, generation: u64) -> Result<(), ServiceError> {
        self.check_degraded()?;
        self.wal_writer(name)?
            .append_commit(generation)
            .map_err(|e| persist_err(format!("wal commit for {name}: {e}")))
    }

    fn check_degraded(&self) -> Result<(), ServiceError> {
        match &self.degraded {
            Some(msg) => Err(persist_err(format!("durability lost earlier: {msg}"))),
            None => Ok(()),
        }
    }

    fn wal_writer(&mut self, name: &str) -> Result<&mut WalWriter, ServiceError> {
        let dir = self.dir.clone();
        let entry = self
            .entries
            .get_mut(name)
            .ok_or_else(|| persist_err(format!("no persistence entry for graph {name}")))?;
        if entry.wal.is_none() {
            let path = dir.join(format!("{}.wal", entry.id));
            entry.wal = Some(
                WalWriter::open(&path)
                    .map_err(|e| persist_err(format!("open {}: {e}", path.display())))?,
            );
        }
        // just ensured above; failing the write beats panicking if the
        // invariant ever breaks
        entry
            .wal
            .as_mut()
            .ok_or_else(|| persist_err(format!("wal for graph {name} unavailable")))
    }

    // ----- recovery ----------------------------------------------------

    fn read_manifest(&self) -> Result<Vec<(u64, u64, PersistKind, String)>, ServiceError> {
        let path = self.dir.join("MANIFEST");
        let text = match fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(persist_err(format!("read {}: {e}", path.display()))),
        };
        let mut lines = text.lines();
        if lines.next() != Some(MANIFEST_MAGIC) {
            return Err(persist_err(format!(
                "{}: not a {MANIFEST_MAGIC} manifest",
                path.display()
            )));
        }
        let mut out = Vec::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            let mut parts = line.splitn(5, ' ');
            let bad = || persist_err(format!("{}: malformed line {line:?}", path.display()));
            let (verb, id, generation, kind, name) = (
                parts.next().ok_or_else(bad)?,
                parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?,
                parts.next().and_then(|t| t.parse().ok()).ok_or_else(bad)?,
                parts.next().ok_or_else(bad)?,
                parts.next().ok_or_else(bad)?,
            );
            if verb != "graph" || name.is_empty() {
                return Err(bad());
            }
            let kind = match kind {
                "mem" => PersistKind::Memory,
                "file" => self.read_pointer(id)?,
                _ => return Err(bad()),
            };
            out.push((id, generation, kind, name.to_string()));
        }
        Ok(out)
    }

    fn read_pointer(&self, id: u64) -> Result<PersistKind, ServiceError> {
        let path = self.dir.join(format!("{id}.ptr"));
        let text = fs::read_to_string(&path)
            .map_err(|e| persist_err(format!("read {}: {e}", path.display())))?;
        let mut budget = None;
        let mut icsr = None;
        for line in text.lines() {
            if let Some(rest) = line.strip_prefix("budget ") {
                if rest != "default" {
                    budget = Some(rest.parse().map_err(|_| {
                        persist_err(format!("{}: bad budget {rest:?}", path.display()))
                    })?);
                }
            } else if let Some(rest) = line.strip_prefix("path ") {
                icsr = Some(rest.to_string());
            }
        }
        match icsr {
            Some(path) => Ok(PersistKind::File { path, budget }),
            None => Err(persist_err(format!(
                "{}: missing path line",
                path.display()
            ))),
        }
    }

    /// Rebuilds one manifest entry: baseline payload + committed WAL ops.
    fn recover_entry(
        &mut self,
        id: u64,
        manifest_generation: u64,
        kind: &PersistKind,
        name: &str,
    ) -> Result<RecoveredGraph, ServiceError> {
        match kind {
            PersistKind::File { path, budget } => {
                // File-backed stores are immutable (updates are rejected
                // at the service layer), so recovery is just reopening.
                let csr = match budget {
                    Some(b) => FileCsr::open_with_budget(path, *b),
                    None => FileCsr::open(path),
                }
                .map_err(|e| persist_err(format!("reopen {path} for {name}: {e}")))?;
                let stats = csr.stats();
                Ok(RecoveredGraph {
                    name: name.to_string(),
                    store: GraphStore::File(Arc::new(csr)),
                    stats,
                    generation: manifest_generation,
                })
            }
            PersistKind::Memory => {
                let snap_path = self.dir.join(format!("{id}.icg"));
                let baseline = graph_io::load(&snap_path)
                    .map_err(|e| persist_err(format!("snapshot for {name}: {e}")))?;
                let records = read_wal(self.dir.join(format!("{id}.wal")))
                    .map_err(|e| persist_err(format!("wal for {name}: {e}")))?;
                let (ops, wal_generation) = committed_ops(&records);
                if ops.is_empty() {
                    // No committed churn: the baseline *is* the state.
                    let stats = graph_stats(&baseline);
                    return Ok(RecoveredGraph {
                        name: name.to_string(),
                        store: GraphStore::Memory(Arc::new(baseline)),
                        stats,
                        generation: wal_generation.unwrap_or(manifest_generation),
                    });
                }
                let mut dg = DynamicGraph::new(baseline);
                self.replayed_ops += ops.len() as u64;
                for op in ops {
                    dg.apply(op).map_err(|e| {
                        persist_err(format!("replaying wal for {name}: {op:?}: {e}"))
                    })?;
                }
                let receipt = dg.commit();
                Ok(RecoveredGraph {
                    name: name.to_string(),
                    store: GraphStore::Memory(receipt.graph),
                    stats: receipt.stats,
                    generation: wal_generation.unwrap_or(manifest_generation),
                })
            }
        }
    }

    // ----- plumbing ----------------------------------------------------

    fn write_manifest(&self) -> io::Result<()> {
        let mut entries: Vec<_> = self.entries.iter().collect();
        entries.sort_by_key(|&(name, _)| name);
        let mut body = String::from(MANIFEST_MAGIC);
        body.push('\n');
        for (name, e) in entries {
            let kind = match e.kind {
                PersistKind::Memory => "mem",
                PersistKind::File { .. } => "file",
            };
            body.push_str(&format!("graph {} {} {kind} {name}\n", e.id, e.generation));
        }
        write_atomic(&self.dir.join("MANIFEST"), |out| {
            out.write_all(body.as_bytes())
        })
    }

    fn remove_entry_files(&self, id: u64) {
        for ext in ["icg", "ptr", "wal"] {
            let path = self.dir.join(format!("{id}.{ext}"));
            if let Err(e) = fs::remove_file(&path) {
                if e.kind() != io::ErrorKind::NotFound {
                    // best-effort cleanup: an undeletable orphan wastes
                    // disk but corrupts nothing; keep serving
                    eprintln!("persist: cannot remove {}: {e}", path.display());
                }
            }
        }
    }

    /// Deletes `<id>.*` files whose id no manifest entry references —
    /// leftovers of a crash between payload write and manifest rename.
    fn collect_garbage(&self) {
        let live: Vec<u64> = self.entries.values().map(|e| e.id).collect();
        let Ok(dir) = fs::read_dir(&self.dir) else {
            return;
        };
        for entry in dir.flatten() {
            let name = entry.file_name();
            let Some(name) = name.to_str() else { continue };
            let Some((stem, ext)) = name.rsplit_once('.') else {
                continue;
            };
            if !matches!(ext, "icg" | "ptr" | "wal" | "tmp") {
                continue;
            }
            let orphaned = match stem.parse::<u64>() {
                Ok(id) => !live.contains(&id),
                // `<id>.icg.tmp` and friends: torn atomic writes
                Err(_) => ext == "tmp",
            };
            if orphaned {
                if let Err(e) = fs::remove_file(entry.path()) {
                    if e.kind() != io::ErrorKind::NotFound {
                        eprintln!("persist: cannot gc {}: {e}", entry.path().display());
                    }
                }
            }
        }
    }

    fn mark_degraded(&mut self, msg: String) {
        if self.degraded.is_none() {
            self.degraded = Some(msg);
        }
    }
}

fn persist_err(msg: String) -> ServiceError {
    ServiceError::Persistence(msg)
}

/// Write-to-temp, fsync, rename-into-place. The visible path either
/// holds the complete old contents or the complete new contents.
fn write_atomic(path: &Path, fill: impl FnOnce(&mut File) -> io::Result<()>) -> io::Result<()> {
    let tmp = path.with_extension(match path.extension().and_then(|e| e.to_str()) {
        Some(ext) => format!("{ext}.tmp"),
        None => "tmp".to_string(),
    });
    let mut out = File::create(&tmp)?;
    fill(&mut out)?;
    out.sync_all()?;
    drop(out);
    fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ic_graph::paper::figure3;
    use ic_graph::scratch::ScratchDir;

    fn recover(dir: &Path) -> (Persistence, Vec<RecoveredGraph>) {
        Persistence::open(dir).expect("recovery failed")
    }

    #[test]
    fn empty_dir_opens_clean() {
        let scratch = ScratchDir::new("persist-empty");
        let (p, recovered) = recover(&scratch.path().join("data"));
        assert!(recovered.is_empty());
        assert!(p.degraded().is_none());
    }

    #[test]
    fn memory_registration_round_trips() {
        let scratch = ScratchDir::new("persist-mem");
        let dir = scratch.path().join("data");
        let g = Arc::new(figure3());
        {
            let (mut p, _) = recover(&dir);
            p.record_memory("fig3", &g, 7);
            assert!(p.degraded().is_none(), "{:?}", p.degraded());
        }
        let (_, recovered) = recover(&dir);
        assert_eq!(recovered.len(), 1);
        let r = &recovered[0];
        assert_eq!(r.name, "fig3");
        assert_eq!(r.generation, 7);
        assert_eq!(r.store.n(), g.n());
        assert_eq!(r.store.m(), g.m());
    }

    #[test]
    fn committed_wal_ops_are_replayed_and_tail_is_dropped() {
        let scratch = ScratchDir::new("persist-replay");
        let dir = scratch.path().join("data");
        let g = Arc::new(figure3());
        {
            let (mut p, _) = recover(&dir);
            p.record_memory("fig3", &g, 3);
            p.append_op(
                "fig3",
                &UpdateOp::AddVertex {
                    v: 100,
                    weight: 21.5,
                },
            )
            .unwrap();
            p.append_op(
                "fig3",
                &UpdateOp::InsertEdge {
                    u: 100,
                    v: 12,
                    default_weight: None,
                },
            )
            .unwrap();
            p.append_commit("fig3", 9).unwrap();
            // acknowledged but never committed — must not survive
            p.append_op("fig3", &UpdateOp::RemoveVertex { v: 100 })
                .unwrap();
        }
        let (_, recovered) = recover(&dir);
        let r = &recovered[0];
        assert_eq!(r.generation, 9);
        assert_eq!(r.store.n(), g.n() + 1, "committed AddVertex must survive");
        assert_eq!(r.store.m(), g.m() + 1);
        assert_eq!(r.stats.n, r.store.n());
    }

    #[test]
    fn re_registration_retires_the_old_wal() {
        let scratch = ScratchDir::new("persist-rereg");
        let dir = scratch.path().join("data");
        let g = Arc::new(figure3());
        {
            let (mut p, _) = recover(&dir);
            p.record_memory("fig3", &g, 1);
            p.append_op("fig3", &UpdateOp::AddVertex { v: 50, weight: 1.0 })
                .unwrap();
            p.append_commit("fig3", 2).unwrap();
            // wholesale replacement: the WAL belongs to the old snapshot
            p.record_memory("fig3", &g, 4);
        }
        let (_, recovered) = recover(&dir);
        let r = &recovered[0];
        assert_eq!(r.generation, 4);
        assert_eq!(
            r.store.n(),
            g.n(),
            "old WAL must not replay onto the new snapshot"
        );
    }

    #[test]
    fn unknown_graph_wal_append_is_a_typed_error() {
        let scratch = ScratchDir::new("persist-unknown");
        let (mut p, _) = recover(&scratch.path().join("data"));
        let err = p
            .append_op("ghost", &UpdateOp::RemoveVertex { v: 1 })
            .unwrap_err();
        assert!(matches!(err, ServiceError::Persistence(_)));
    }

    #[test]
    fn corrupt_manifest_is_a_typed_error_not_a_panic() {
        let scratch = ScratchDir::new("persist-corrupt");
        let dir = scratch.path().join("data");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("MANIFEST"), b"ICMF1\ngraph zero nope mem x\n").unwrap();
        assert!(matches!(
            Persistence::open(&dir),
            Err(ServiceError::Persistence(_))
        ));
        fs::write(dir.join("MANIFEST"), b"not a manifest\n").unwrap();
        assert!(matches!(
            Persistence::open(&dir),
            Err(ServiceError::Persistence(_))
        ));
    }
}
