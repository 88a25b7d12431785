//! In-memory spans recorded around the calls the benchmark makes into
//! each layer, written out when the run ends.
//!
//! A span has a layer, a name, a request id shared by every span of one
//! request, and an optional parent. Spans measured here carry real start
//! and end instants; spans whose duration the program reports itself
//! (the reply's `micros=`, a `QueryTrace` stage) or that were measured
//! on a twin replay are recorded by duration and placed at the end of
//! their parent, since only their length is known. A layer's self time
//! is its span's duration minus the durations of its children. Children
//! of one span never run concurrently in this benchmark, so the sum of
//! their durations is the part of the parent they cover; a child whose
//! duration was measured elsewhere can exceed its parent, which leaves a
//! negative self time rather than hiding the disagreement.

use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`SpanLog`].
pub type SpanId = usize;

#[derive(Debug, Clone)]
pub struct Span {
    pub request: u64,
    pub parent: Option<SpanId>,
    pub layer: &'static str,
    pub name: &'static str,
    /// Nanoseconds from the log's origin.
    pub start_ns: i64,
    pub dur_ns: i64,
}

#[derive(Debug)]
pub struct SpanLog {
    origin: Instant,
    spans: Vec<Span>,
    child_ns: Vec<i64>,
}

impl SpanLog {
    pub fn new(origin: Instant) -> SpanLog {
        SpanLog {
            origin,
            spans: Vec::new(),
            child_ns: Vec::new(),
        }
    }

    fn push(&mut self, span: Span) -> SpanId {
        if let Some(p) = span.parent {
            self.child_ns[p] += span.dur_ns;
        }
        self.spans.push(span);
        self.child_ns.push(0);
        self.spans.len() - 1
    }

    /// Records a span measured between two instants.
    pub fn record(
        &mut self,
        request: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        let start_ns = signed_ns(start.saturating_duration_since(self.origin).as_nanos());
        let dur_ns = signed_ns(end.saturating_duration_since(start).as_nanos());
        self.push(Span {
            request,
            parent,
            layer,
            name,
            start_ns,
            dur_ns,
        })
    }

    /// Records a span known only by its duration, placed at the end of
    /// its parent (or at the origin without one).
    pub fn record_duration(
        &mut self,
        request: u64,
        parent: Option<SpanId>,
        layer: &'static str,
        name: &'static str,
        dur_ns: i64,
    ) -> SpanId {
        let start_ns = parent.map_or(0, |p| {
            let ps = &self.spans[p];
            ps.start_ns + ps.dur_ns - dur_ns
        });
        self.push(Span {
            request,
            parent,
            layer,
            name,
            start_ns,
            dur_ns,
        })
    }

    pub fn dur_ns(&self, id: SpanId) -> i64 {
        self.spans[id].dur_ns
    }

    /// The span's duration minus its children's.
    pub fn self_ns(&self, id: SpanId) -> i64 {
        self.spans[id].dur_ns - self.child_ns[id]
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Every span as one tab-separated row, under a header row.
    pub fn to_tsv(&self) -> String {
        let mut out = String::from("id\trequest\tparent\tlayer\tname\tstart_ns\tdur_ns\tself_ns\n");
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            // writing into a String cannot fail
            let _ = writeln!(
                out,
                "{id}\t{}\t{parent}\t{}\t{}\t{}\t{}\t{}",
                s.request,
                s.layer,
                s.name,
                s.start_ns,
                s.dur_ns,
                self.self_ns(id)
            );
        }
        out
    }

    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        std::fs::write(path, self.to_tsv())
    }
}

fn signed_ns(ns: u128) -> i64 {
    i64::try_from(ns).unwrap_or(i64::MAX)
}

/// One socket round trip split into the layers beneath it: what the
/// service reported (`micros=`), the protocol's own time around it, and
/// the residual the socket added. The three parts sum to the round trip.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WireSplit {
    pub socket_ns: i64,
    pub service_ns: i64,
    pub protocol_self_ns: i64,
    pub residual_ns: i64,
}

/// Records a socket round trip of `socket` with its protocol child
/// (`handle_line_ns` long, measured on the in-process twin) and that
/// child's service child (`service_ns`, the reply's `micros=`), and
/// splits it. `twin_service_ns` is the twin's own `micros=` for the same
/// request: the protocol's self time is the twin's `handle_line` span
/// minus it, and the socket's handle_line span is estimated as this
/// reply's service time plus that protocol self time.
pub fn record_wire_step(
    log: &mut SpanLog,
    request: u64,
    socket: (Instant, Instant),
    service_ns: i64,
    handle_line_ns: i64,
    twin_service_ns: i64,
) -> WireSplit {
    let socket_id = log.record(request, None, "transport", "socket", socket.0, socket.1);
    let protocol_ns = service_ns + (handle_line_ns - twin_service_ns);
    let protocol_id = log.record_duration(
        request,
        Some(socket_id),
        "protocol",
        "handle_line",
        protocol_ns,
    );
    log.record_duration(request, Some(protocol_id), "service", "micros", service_ns);
    WireSplit {
        socket_ns: log.dur_ns(socket_id),
        service_ns,
        protocol_self_ns: log.self_ns(protocol_id),
        residual_ns: log.self_ns(socket_id),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_children() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0);
        let parent = log.record(
            1,
            None,
            "service",
            "query",
            t0,
            t0 + Duration::from_micros(100),
        );
        log.record_duration(1, Some(parent), "engine", "execute", 60_000);
        log.record_duration(1, Some(parent), "store", "read", 15_000);
        assert_eq!(log.dur_ns(parent), 100_000);
        assert_eq!(log.self_ns(parent), 25_000);
        assert_eq!(log.len(), 3);
    }

    /// The layer sum on a synthetic span set: socket = service +
    /// protocol self + residual, each part its own number.
    #[test]
    fn socket_round_trip_is_service_plus_protocol_plus_residual() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0);
        // 2 ms on the socket; the reply said micros=300; on the twin the
        // same request took 450 µs in handle_line of which 290 µs were
        // the service's
        let split = record_wire_step(
            &mut log,
            7,
            (t0, t0 + Duration::from_micros(2_000)),
            300_000,
            450_000,
            290_000,
        );
        assert_eq!(split.socket_ns, 2_000_000);
        assert_eq!(split.service_ns, 300_000);
        assert_eq!(split.protocol_self_ns, 160_000);
        assert_eq!(split.residual_ns, 2_000_000 - 300_000 - 160_000);
        assert_eq!(
            split.service_ns + split.protocol_self_ns + split.residual_ns,
            split.socket_ns
        );
    }

    #[test]
    fn a_twin_slower_than_the_socket_shows_a_negative_residual() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0);
        let split = record_wire_step(
            &mut log,
            1,
            (t0, t0 + Duration::from_micros(100)),
            50_000,
            200_000,
            50_000,
        );
        assert_eq!(split.residual_ns, -100_000);
        assert_eq!(
            split.service_ns + split.protocol_self_ns + split.residual_ns,
            split.socket_ns
        );
    }

    #[test]
    fn spans_write_out_as_tsv() {
        let t0 = Instant::now();
        let mut log = SpanLog::new(t0);
        let p = log.record(
            3,
            None,
            "client",
            "event",
            t0,
            t0 + Duration::from_micros(5),
        );
        log.record_duration(3, Some(p), "service", "micros", 2_000);
        let text = log.to_tsv();
        let rows: Vec<&str> = text.lines().collect();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1], "0\t3\t-\tclient\tevent\t0\t5000\t3000");
        assert!(rows[2].starts_with("1\t3\t0\tservice\tmicros\t3000\t2000\t2000"));
    }
}
