//! Pluggable graph storage backends: the `GraphStore` seam.
//!
//! The semi-external model of §3.1 (Eval-VI/VII) keeps O(n) vertex data
//! in memory and streams the edges sorted by decreasing edge weight.
//! This module holds the one on-disk edge format and the storage
//! backends the service registry serves:
//!
//! * [`FileCsr`] — a file-backed CSR in the `.icsr` format: a 32-byte
//!   header, then the O(n) vertex sections (external ids, weights,
//!   cumulative offsets) which are loaded into memory under a
//!   configurable budget, then the adjacency section (one `u32`
//!   higher-endpoint rank per edge) which stays on disk. Records are in
//!   prefix order — ascending lower-endpoint rank, i.e. decreasing edge
//!   weight — so the induced prefix subgraph `G≥τ` is a prefix of the
//!   adjacency section and `LocalSearch-SE` reads only as many bytes as
//!   the prefix it grows.
//! * [`PrefixEdges`] / [`SemiExternalSource`] — the traits the
//!   semi-external executors are generic over, implemented by
//!   [`FileCsr`]/[`FileCsrEdges`] and [`WeightedGraph`]/[`MemEdges`] (an
//!   adapter that walks the in-memory CSR in file order with zero I/O,
//!   so one differential test can pit the file against the same
//!   reference).
//! * [`IoStats`] — the read-side accounting every edge reader reports.
//! * [`GraphStore`] — the enum the service registry holds instead of a
//!   bare `Arc<WeightedGraph>`: memory-resident or file-backed, with
//!   cumulative per-store I/O totals for the `STATS` verb.
//!
//! ## `.icsr` layout (little endian)
//!
//! ```text
//! magic  "ICSR1\0\0\0"                  8 bytes
//! n      u64, m u64                     16 bytes
//! d_max  u32, gamma_max u32             8 bytes   (precomputed at save)
//! ext_ids   n × u64                     resident
//! weights   n × f64                     resident
//! offsets   (n+1) × u64                 resident; offsets[t] = #records
//!                                       with lower endpoint rank < t
//! adjacency m × u32                     on disk; record i is the higher
//!                                       endpoint rank, the lower endpoint
//!                                       is implicit from `offsets`
//! ```
//!
//! Storing `d_max`/`gamma_max` in the header means [`FileCsr::open`] does
//! no core decomposition — open cost is O(n) reads of the resident
//! sections, never a peel over the edge file.

use std::fs::File;
use std::io::{self, BufReader, BufWriter, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::graph::{Rank, WeightedGraph};
use crate::stats::{graph_stats, GraphStats};

const MAGIC: &[u8; 8] = b"ICSR1\0\0\0";
const HEADER_BYTES: u64 = 32;

/// Bytes per adjacency record in an `.icsr` file: one little-endian
/// `u32` higher-endpoint rank (the lower endpoint is implicit from the
/// offsets section).
pub const ICSR_RECORD_BYTES: usize = 4;

/// Read-side accounting for an edge reader.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    /// Total bytes delivered to the caller.
    pub bytes_read: u64,
    /// Number of read operations issued to the underlying file.
    pub read_ops: u64,
}

impl IoStats {
    /// Number of `.icsr` adjacency records read.
    pub fn edges_read(&self) -> u64 {
        self.bytes_read / ICSR_RECORD_BYTES as u64
    }

    /// The I/O performed since `earlier` was snapshotted — the per-query
    /// attribution the serving layer's traces record. Counters are
    /// monotone per store; saturating keeps a racy or mismatched
    /// baseline harmless (a zero delta, never a wrapped giant).
    pub fn delta_since(self, earlier: IoStats) -> IoStats {
        IoStats {
            bytes_read: self.bytes_read.saturating_sub(earlier.bytes_read),
            read_ops: self.read_ops.saturating_sub(earlier.read_ops),
        }
    }
}

/// Default memory budget for the resident vertex sections of a
/// [`FileCsr`]: 1 GiB, enough for ~44 M vertices.
pub const DEFAULT_MEMORY_BUDGET: u64 = 1 << 30;

/// Serializes a graph into the `.icsr` file-backed CSR format at `path`.
///
/// The Table 1 statistics (`d_max`, `gamma_max`) are computed here, at
/// save time, so that [`FileCsr::open`] never has to peel the graph.
pub fn save_icsr(g: &WeightedGraph, path: impl AsRef<Path>) -> io::Result<()> {
    let stats = graph_stats(g);
    let mut w = BufWriter::new(File::create(path)?);
    w.write_all(MAGIC)?;
    w.write_all(&(g.n() as u64).to_le_bytes())?;
    w.write_all(&(g.m() as u64).to_le_bytes())?;
    w.write_all(&stats.d_max.to_le_bytes())?;
    w.write_all(&stats.gamma_max.to_le_bytes())?;
    for r in 0..g.n() as Rank {
        w.write_all(&g.external_id(r).to_le_bytes())?;
    }
    for r in 0..g.n() as Rank {
        w.write_all(&g.weight(r).to_le_bytes())?;
    }
    let mut offset = 0u64;
    w.write_all(&offset.to_le_bytes())?;
    for r in 0..g.n() as Rank {
        offset += g.higher_neighbors(r).len() as u64;
        w.write_all(&offset.to_le_bytes())?;
    }
    // adjacency in prefix order: ascending lower-endpoint rank
    for r in 0..g.n() as Rank {
        for &h in g.higher_neighbors(r) {
            w.write_all(&h.to_le_bytes())?;
        }
    }
    w.flush()
}

/// A file-backed CSR opened under a memory budget: the O(n) vertex
/// sections are resident, the adjacency section stays on disk and is
/// streamed through [`FileCsrEdges`] in prefix order.
#[derive(Debug)]
pub struct FileCsr {
    path: PathBuf,
    ext_ids: Vec<u64>,
    weights: Vec<f64>,
    /// `offsets[t]` = number of adjacency records whose lower endpoint
    /// rank is `< t`; the records of `G≥τ` are exactly `[0, offsets[t])`.
    offsets: Vec<u64>,
    adj_start: u64,
    stats: GraphStats,
    io_bytes: AtomicU64,
    io_ops: AtomicU64,
}

impl FileCsr {
    /// Opens an `.icsr` file under the [`DEFAULT_MEMORY_BUDGET`].
    pub fn open(path: impl AsRef<Path>) -> io::Result<FileCsr> {
        FileCsr::open_with_budget(path, DEFAULT_MEMORY_BUDGET)
    }

    /// Opens an `.icsr` file, refusing with [`io::ErrorKind::OutOfMemory`]
    /// if the resident vertex sections would exceed `budget_bytes`. The
    /// budget covers what this handle keeps in memory (external ids,
    /// weights, offsets — 24 bytes per vertex); the adjacency section is
    /// never loaded.
    pub fn open_with_budget(path: impl AsRef<Path>, budget_bytes: u64) -> io::Result<FileCsr> {
        let path = path.as_ref().to_path_buf();
        let file = File::open(&path)?;
        let file_len = file.metadata()?.len();
        let mut r = BufReader::with_capacity(1 << 16, file);

        let bad = |msg: String| io::Error::new(io::ErrorKind::InvalidData, msg);
        let mut magic = [0u8; 8];
        r.read_exact(&mut magic)
            .map_err(|_| bad("truncated header; not an ICSR1 file".into()))?;
        if &magic != MAGIC {
            return Err(bad("bad magic; not an ICSR1 file".into()));
        }
        let mut u64buf = [0u8; 8];
        let mut u32buf = [0u8; 4];
        r.read_exact(&mut u64buf)?;
        let n = u64::from_le_bytes(u64buf);
        r.read_exact(&mut u64buf)?;
        let m = u64::from_le_bytes(u64buf);
        r.read_exact(&mut u32buf)?;
        let d_max = u32::from_le_bytes(u32buf);
        r.read_exact(&mut u32buf)?;
        let gamma_max = u32::from_le_bytes(u32buf);

        if n > Rank::MAX as u64 {
            return Err(bad(format!("n = {n} exceeds the u32 rank space")));
        }
        let expected_len = HEADER_BYTES + 8 * n + 8 * n + 8 * (n + 1) + 4 * m;
        if file_len != expected_len {
            return Err(bad(format!(
                "file is {file_len} bytes, expected {expected_len} for n={n} m={m}"
            )));
        }
        let resident = resident_bytes_for(n as usize);
        if resident > budget_bytes {
            return Err(io::Error::new(
                io::ErrorKind::OutOfMemory,
                format!(
                    "resident vertex sections need {resident} bytes, \
                     budget is {budget_bytes} (n = {n})"
                ),
            ));
        }

        let n = n as usize;
        let m = m as usize;
        let mut ext_ids = Vec::with_capacity(n);
        for _ in 0..n {
            r.read_exact(&mut u64buf)?;
            ext_ids.push(u64::from_le_bytes(u64buf));
        }
        let mut weights = Vec::with_capacity(n);
        for _ in 0..n {
            r.read_exact(&mut u64buf)?;
            weights.push(f64::from_le_bytes(u64buf));
        }
        let mut offsets = Vec::with_capacity(n + 1);
        for _ in 0..=n {
            r.read_exact(&mut u64buf)?;
            offsets.push(u64::from_le_bytes(u64buf));
        }
        if offsets[0] != 0 || offsets[n] != m as u64 {
            return Err(bad("offsets section does not cover the adjacency".into()));
        }
        if offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(bad("offsets section is not non-decreasing".into()));
        }
        let adj_start = r.stream_position()?;

        let d_avg = if n == 0 {
            0.0
        } else {
            2.0 * m as f64 / n as f64
        };
        Ok(FileCsr {
            path,
            ext_ids,
            weights,
            offsets,
            adj_start,
            stats: GraphStats {
                n,
                m,
                d_max,
                d_avg,
                gamma_max,
            },
            io_bytes: AtomicU64::new(0),
            io_ops: AtomicU64::new(0),
        })
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        self.ext_ids.len()
    }

    /// Number of edges in the on-disk adjacency section.
    pub fn m(&self) -> usize {
        self.stats.m
    }

    /// Weight of a rank (memory-resident vertex data).
    pub fn weight(&self, r: Rank) -> f64 {
        self.weights[r as usize]
    }

    /// External id of a rank.
    pub fn external_id(&self, r: Rank) -> u64 {
        self.ext_ids[r as usize]
    }

    /// The Table 1 statistics recorded in the header at save time.
    pub fn stats(&self) -> GraphStats {
        self.stats
    }

    /// Path of the backing `.icsr` file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Bytes this handle keeps resident (the budget-relevant quantity).
    pub fn resident_bytes(&self) -> u64 {
        resident_bytes_for(self.n())
    }

    /// Cumulative I/O performed through every reader of this handle
    /// since it was opened. This is what the service `STATS` verb
    /// reports per store.
    pub fn io_totals(&self) -> IoStats {
        IoStats {
            bytes_read: self.io_bytes.load(Ordering::Relaxed),
            read_ops: self.io_ops.load(Ordering::Relaxed),
        }
    }

    /// Opens a sequential reader at the start of the adjacency section.
    pub fn edges(&self) -> io::Result<FileCsrEdges<'_>> {
        let mut reader = BufReader::with_capacity(1 << 16, File::open(&self.path)?);
        reader.seek(SeekFrom::Start(self.adj_start))?;
        Ok(FileCsrEdges {
            store: self,
            reader,
            consumed: 0,
            lo: 0,
            stats: IoStats::default(),
        })
    }
}

fn resident_bytes_for(n: usize) -> u64 {
    // ext_ids (8) + weights (8) + offsets (8, n+1 entries)
    24 * n as u64 + 8
}

/// Sequential reader over the adjacency section of a [`FileCsr`], with
/// per-record I/O accounting (4 bytes per edge; the lower endpoint rank
/// is recovered from the resident offsets, not read from disk).
#[derive(Debug)]
pub struct FileCsrEdges<'a> {
    store: &'a FileCsr,
    reader: BufReader<File>,
    /// Adjacency records consumed so far; also the index of the next one.
    consumed: u64,
    /// Lower endpoint rank of the next record (maintained from offsets).
    lo: Rank,
    stats: IoStats,
}

impl FileCsrEdges<'_> {
    /// Reads the next edge `(lower_rank, higher_rank)`; `None` at EOF.
    /// The `lower_rank` stream is non-decreasing (file sort order).
    pub fn next_edge(&mut self) -> io::Result<Option<(Rank, Rank)>> {
        if self.consumed as usize == self.store.m() {
            return Ok(None);
        }
        while self.store.offsets[self.lo as usize + 1] <= self.consumed {
            self.lo += 1;
        }
        let mut rec = [0u8; ICSR_RECORD_BYTES];
        self.reader.read_exact(&mut rec)?;
        self.consumed += 1;
        self.stats.bytes_read += ICSR_RECORD_BYTES as u64;
        self.stats.read_ops += 1;
        self.store
            .io_bytes
            .fetch_add(ICSR_RECORD_BYTES as u64, Ordering::Relaxed);
        self.store.io_ops.fetch_add(1, Ordering::Relaxed);
        Ok(Some((self.lo, Rank::from_le_bytes(rec))))
    }

    /// Reads exactly the edges of the prefix subgraph `G≥τ` with `t`
    /// vertices (those not already consumed), appending them to `out`.
    /// The resident offsets say in advance how many records belong to
    /// the prefix, so the reader never reads past it.
    pub fn read_prefix_edges(&mut self, t: usize, out: &mut Vec<(Rank, Rank)>) -> io::Result<()> {
        let target = self.store.offsets[t.min(self.store.n())];
        while self.consumed < target {
            match self.next_edge()? {
                Some(e) => out.push(e),
                None => return Ok(()),
            }
        }
        Ok(())
    }

    /// I/O performed through this reader.
    pub fn stats(&self) -> IoStats {
        self.stats
    }

    /// Number of unread adjacency records.
    pub fn remaining(&self) -> usize {
        self.store.m() - self.consumed as usize
    }
}

/// Abstraction over a prefix-ordered edge stream with I/O accounting —
/// the read side of the semi-external model. Implemented by
/// [`FileCsrEdges`] (`.icsr` adjacency sections) and [`MemEdges`]
/// (in-memory CSR walked in file order, zero I/O).
pub trait PrefixEdges {
    /// Reads the next edge `(lower_rank, higher_rank)`; `None` at EOF.
    fn next_edge(&mut self) -> io::Result<Option<(Rank, Rank)>>;

    /// Reads the not-yet-consumed edges of the prefix subgraph `G≥τ`
    /// with `t` vertices, appending them to `out`.
    fn read_prefix_edges(&mut self, t: usize, out: &mut Vec<(Rank, Rank)>) -> io::Result<()>;

    /// I/O performed through this reader so far.
    fn io_stats(&self) -> IoStats;
}

impl PrefixEdges for FileCsrEdges<'_> {
    fn next_edge(&mut self) -> io::Result<Option<(Rank, Rank)>> {
        FileCsrEdges::next_edge(self)
    }

    fn read_prefix_edges(&mut self, t: usize, out: &mut Vec<(Rank, Rank)>) -> io::Result<()> {
        FileCsrEdges::read_prefix_edges(self, t, out)
    }

    fn io_stats(&self) -> IoStats {
        self.stats()
    }
}

/// [`PrefixEdges`] adapter over an in-memory [`WeightedGraph`]: walks
/// the CSR in exactly the on-disk record order (ascending lower
/// endpoint rank) with zero I/O. This lets the semi-external executors
/// answer against a memory store — producing answers identical to the
/// file-backed path, which is what the differential suites exploit.
#[derive(Debug)]
pub struct MemEdges<'a> {
    g: &'a WeightedGraph,
    lo: Rank,
    idx: usize,
}

impl<'a> MemEdges<'a> {
    pub fn new(g: &'a WeightedGraph) -> MemEdges<'a> {
        MemEdges { g, lo: 0, idx: 0 }
    }
}

impl PrefixEdges for MemEdges<'_> {
    fn next_edge(&mut self) -> io::Result<Option<(Rank, Rank)>> {
        while (self.lo as usize) < self.g.n() {
            let hn = self.g.higher_neighbors(self.lo);
            if self.idx < hn.len() {
                let hi = hn[self.idx];
                self.idx += 1;
                return Ok(Some((self.lo, hi)));
            }
            self.lo += 1;
            self.idx = 0;
        }
        Ok(None)
    }

    fn read_prefix_edges(&mut self, t: usize, out: &mut Vec<(Rank, Rank)>) -> io::Result<()> {
        while (self.lo as usize) < t.min(self.g.n()) {
            let hn = self.g.higher_neighbors(self.lo);
            while self.idx < hn.len() {
                out.push((self.lo, hn[self.idx]));
                self.idx += 1;
            }
            self.lo += 1;
            self.idx = 0;
        }
        Ok(())
    }

    fn io_stats(&self) -> IoStats {
        IoStats::default()
    }
}

/// A graph whose O(n) vertex data is memory resident and whose edges can
/// be streamed in prefix order — the substrate the semi-external
/// executors are generic over. Implemented by [`FileCsr`] and (with
/// zero I/O) [`WeightedGraph`].
pub trait SemiExternalSource {
    /// The edge reader type; borrows the source.
    type Edges<'a>: PrefixEdges
    where
        Self: 'a;

    /// Number of vertices.
    fn n(&self) -> usize;
    /// Number of edges.
    fn m(&self) -> usize;
    /// Weight of a rank (memory-resident vertex data).
    fn weight(&self, r: Rank) -> f64;
    /// External id of a rank.
    fn external_id(&self, r: Rank) -> u64;
    /// Opens a fresh edge reader at the start of the stream.
    fn open_edges(&self) -> io::Result<Self::Edges<'_>>;
}

impl SemiExternalSource for FileCsr {
    type Edges<'a> = FileCsrEdges<'a>;

    fn n(&self) -> usize {
        FileCsr::n(self)
    }

    fn m(&self) -> usize {
        FileCsr::m(self)
    }

    fn weight(&self, r: Rank) -> f64 {
        FileCsr::weight(self, r)
    }

    fn external_id(&self, r: Rank) -> u64 {
        FileCsr::external_id(self, r)
    }

    fn open_edges(&self) -> io::Result<FileCsrEdges<'_>> {
        self.edges()
    }
}

impl SemiExternalSource for WeightedGraph {
    type Edges<'a> = MemEdges<'a>;

    fn n(&self) -> usize {
        WeightedGraph::n(self)
    }

    fn m(&self) -> usize {
        WeightedGraph::m(self)
    }

    fn weight(&self, r: Rank) -> f64 {
        WeightedGraph::weight(self, r)
    }

    fn external_id(&self, r: Rank) -> u64 {
        WeightedGraph::external_id(self, r)
    }

    fn open_edges(&self) -> io::Result<MemEdges<'_>> {
        Ok(MemEdges::new(self))
    }
}

/// Which backend a [`GraphStore`] runs on — the planner-visible storage
/// dimension.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StorageKind {
    /// Fully in-memory CSR; every algorithm is available.
    Memory,
    /// File-backed `.icsr` CSR; only the semi-external executors apply.
    File,
}

impl StorageKind {
    /// Lowercase token used in `EXPLAIN`/`STATS` replies.
    pub fn name(self) -> &'static str {
        match self {
            StorageKind::Memory => "memory",
            StorageKind::File => "file",
        }
    }
}

impl std::fmt::Display for StorageKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// A shared graph handle with an explicit storage backend — what the
/// service registry holds instead of a bare `Arc<WeightedGraph>`.
#[derive(Debug, Clone)]
pub enum GraphStore {
    /// Fully memory-resident CSR.
    Memory(Arc<WeightedGraph>),
    /// File-backed `.icsr` CSR under a memory budget.
    File(Arc<FileCsr>),
}

impl GraphStore {
    /// The storage backend.
    pub fn kind(&self) -> StorageKind {
        match self {
            GraphStore::Memory(_) => StorageKind::Memory,
            GraphStore::File(_) => StorageKind::File,
        }
    }

    /// Number of vertices.
    pub fn n(&self) -> usize {
        match self {
            GraphStore::Memory(g) => g.n(),
            GraphStore::File(f) => f.n(),
        }
    }

    /// Number of edges.
    pub fn m(&self) -> usize {
        match self {
            GraphStore::Memory(g) => g.m(),
            GraphStore::File(f) => f.m(),
        }
    }

    /// Weight of a rank.
    pub fn weight(&self, r: Rank) -> f64 {
        match self {
            GraphStore::Memory(g) => g.weight(r),
            GraphStore::File(f) => f.weight(r),
        }
    }

    /// External id of a rank.
    pub fn external_id(&self, r: Rank) -> u64 {
        match self {
            GraphStore::Memory(g) => g.external_id(r),
            GraphStore::File(f) => f.external_id(r),
        }
    }

    /// The in-memory graph, if this is a memory store. Algorithms that
    /// need random access (everything except the semi-external family)
    /// go through here and report "unsupported" on `None`.
    pub fn as_memory(&self) -> Option<&Arc<WeightedGraph>> {
        match self {
            GraphStore::Memory(g) => Some(g),
            GraphStore::File(_) => None,
        }
    }

    /// Cumulative I/O performed against this store since it was opened
    /// (always zero for memory stores).
    pub fn io_totals(&self) -> IoStats {
        match self {
            GraphStore::Memory(_) => IoStats::default(),
            GraphStore::File(f) => f.io_totals(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{assemble, gnm, WeightKind};
    use crate::scratch::ScratchDir;

    fn sample() -> WeightedGraph {
        assemble(50, &gnm(50, 120, 23), WeightKind::Uniform(23))
    }

    #[test]
    fn icsr_round_trip_matches_graph() {
        let dir = ScratchDir::new("ic-store");
        let g = sample();
        let path = dir.file("g.icsr");
        save_icsr(&g, &path).unwrap();
        let f = FileCsr::open(&path).unwrap();
        assert_eq!(f.n(), g.n());
        assert_eq!(f.m(), g.m());
        let expected = graph_stats(&g);
        assert_eq!(f.stats(), expected);
        for r in 0..g.n() as Rank {
            assert_eq!(f.weight(r), g.weight(r));
            assert_eq!(f.external_id(r), g.external_id(r));
        }
    }

    #[test]
    fn icsr_stream_equals_mem_edges_stream() {
        let dir = ScratchDir::new("ic-store");
        let g = sample();
        let path = dir.file("g.icsr");
        save_icsr(&g, &path).unwrap();
        let f = FileCsr::open(&path).unwrap();
        let mut fe = f.edges().unwrap();
        let mut me = MemEdges::new(&g);
        loop {
            let a = fe.next_edge().unwrap();
            let b = me.next_edge().unwrap();
            assert_eq!(a, b, "icsr and in-memory streams must agree");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(fe.stats().edges_read(), g.m() as u64);
        assert_eq!(me.io_stats(), IoStats::default(), "memory walk has no I/O");
    }

    #[test]
    fn io_stats_delta_is_saturating() {
        let early = IoStats {
            bytes_read: 100,
            read_ops: 3,
        };
        let late = IoStats {
            bytes_read: 900,
            read_ops: 10,
        };
        let d = late.delta_since(early);
        assert_eq!(d.bytes_read, 800);
        assert_eq!(d.read_ops, 7);
        // a mismatched baseline saturates to zero instead of wrapping
        let z = early.delta_since(late);
        assert_eq!(z, IoStats::default());
    }

    #[test]
    fn prefix_reads_match_prefix_subgraph_on_every_backend() {
        let dir = ScratchDir::new("ic-store");
        let g = sample();
        let path = dir.file("g.icsr");
        save_icsr(&g, &path).unwrap();
        let f = FileCsr::open(&path).unwrap();

        fn check(g: &WeightedGraph, mut edges: impl PrefixEdges) {
            let mut out = Vec::new();
            for t in [5usize, 10, 25, 50] {
                edges.read_prefix_edges(t, &mut out).unwrap();
                let expected: usize = (0..t as Rank).map(|r| g.higher_degree(r) as usize).sum();
                assert_eq!(out.len(), expected, "t={t}");
                assert!(out
                    .iter()
                    .all(|&(lo, hi)| (lo as usize) < t && (hi as usize) < t));
            }
        }
        check(&g, f.edges().unwrap());
        check(&g, MemEdges::new(&g));
    }

    #[test]
    fn interleaved_next_and_prefix_reads_stay_consistent() {
        let dir = ScratchDir::new("ic-store");
        let g = sample();
        let path = dir.file("g.icsr");
        save_icsr(&g, &path).unwrap();
        let f = FileCsr::open(&path).unwrap();
        let mut fe = f.edges().unwrap();
        let mut out = Vec::new();
        fe.read_prefix_edges(10, &mut out).unwrap();
        let already = out.len();
        // a loose next_edge continues past the prefix boundary
        if let Some((lo, _)) = fe.next_edge().unwrap() {
            assert!(lo as usize >= 10);
            out.push((lo, 0));
        }
        fe.read_prefix_edges(25, &mut out).unwrap();
        assert!(out.len() > already);
        assert_eq!(
            fe.stats().bytes_read,
            ICSR_RECORD_BYTES as u64 * out.len() as u64
        );
        assert_eq!(fe.stats().read_ops, out.len() as u64);
        assert_eq!(fe.remaining() + out.len(), g.m());
    }

    #[test]
    fn budget_rejection_is_out_of_memory() {
        let dir = ScratchDir::new("ic-store");
        let g = sample();
        let path = dir.file("g.icsr");
        save_icsr(&g, &path).unwrap();
        let err = FileCsr::open_with_budget(&path, 16).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::OutOfMemory);
        // generous budget succeeds and reports its resident need
        let f = FileCsr::open_with_budget(&path, 1 << 20).unwrap();
        assert_eq!(f.resident_bytes(), 24 * g.n() as u64 + 8);
    }

    #[test]
    fn hostile_files_are_rejected() {
        let dir = ScratchDir::new("ic-store");
        let g = sample();
        let path = dir.file("g.icsr");
        save_icsr(&g, &path).unwrap();

        // bad magic
        let garbage = dir.file("bad.icsr");
        std::fs::write(&garbage, b"NOPE1\0\0\0whatever").unwrap();
        assert!(FileCsr::open(&garbage).is_err());

        // truncation: lop bytes off a valid file
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.truncate(bytes.len() - 3);
        let trunc = dir.file("trunc.icsr");
        std::fs::write(&trunc, &bytes).unwrap();
        assert!(FileCsr::open(&trunc).is_err());

        // empty file
        let empty = dir.file("empty.icsr");
        std::fs::write(&empty, b"").unwrap();
        assert!(FileCsr::open(&empty).is_err());
    }

    #[test]
    fn store_accessors_and_io_totals() {
        let dir = ScratchDir::new("ic-store");
        let g = sample();
        let path = dir.file("g.icsr");
        save_icsr(&g, &path).unwrap();

        let mem = GraphStore::Memory(Arc::new(sample()));
        assert_eq!(mem.kind(), StorageKind::Memory);
        assert!(mem.as_memory().is_some());
        assert_eq!(mem.io_totals(), IoStats::default());
        assert_eq!(mem.n(), g.n());

        let file = GraphStore::File(Arc::new(FileCsr::open(&path).unwrap()));
        assert_eq!(file.kind(), StorageKind::File);
        assert!(file.as_memory().is_none());
        assert_eq!(file.n(), g.n());
        assert_eq!(file.m(), g.m());
        assert_eq!(file.weight(0), g.weight(0));
        assert_eq!(file.external_id(0), g.external_id(0));
        assert_eq!(file.io_totals(), IoStats::default());
        let GraphStore::File(f) = &file else {
            unreachable!()
        };
        let mut fe = f.edges().unwrap();
        while fe.next_edge().unwrap().is_some() {}
        assert_eq!(file.io_totals().bytes_read, 4 * g.m() as u64);
        assert_eq!(file.io_totals().read_ops, g.m() as u64);
    }

    #[test]
    fn storage_kind_names() {
        assert_eq!(StorageKind::Memory.to_string(), "memory");
        assert_eq!(StorageKind::File.name(), "file");
    }
}
