//! The open-loop replayer: sends a [`Trace`] against a running server on
//! a wall-clock schedule and records coordinated-omission-safe latency.
//!
//! *Open-loop* means the schedule, not the server, paces the run: event
//! `i`'s intended send time is fixed up front (`t0 + at_us`, optionally
//! rescaled to a target QPS), and its latency is measured from that
//! **intended** time to completion. A server stall therefore charges
//! every event queued behind it for the time it spent waiting to be
//! sent — the delay a real client would have seen — where the naive
//! send-to-reply measurement (also reported, as `resp_*`) silently
//! forgives the backlog. That gap is coordinated omission; the
//! `coordinated_omission_inflates_schedule_latency` test pins it.
//!
//! Latency histograms are [`ic_obs::Histogram`]s — the same mergeable
//! log-linear sketch the server uses — one schedule-based and one
//! response-based per [`LoadClass`], merged across client threads.

#![cfg_attr(
    not(test),
    deny(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing
    )
)]

use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

use ic_obs::Histogram;

use crate::report::{ClassReport, LoadReport};
use crate::trace::{LoadClass, Trace};

/// How a replay run connects and paces itself.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// Server address (`host:port`).
    pub addr: String,
    /// Client connections; events are dealt round-robin across them.
    pub connections: usize,
    /// Target arrival rate. Timestamps are rescaled by
    /// `trace.qps / target_qps`; `0.0` replays at the trace's native
    /// rate.
    pub target_qps: f64,
}

impl ReplayOptions {
    /// Native-rate replay over `connections` connections.
    pub fn new(addr: impl Into<String>, connections: usize) -> ReplayOptions {
        ReplayOptions {
            addr: addr.into(),
            connections,
            target_qps: 0.0,
        }
    }
}

/// Per-class accumulation, shared by reference across client threads.
struct ClassRec {
    count: AtomicU64,
    errors: AtomicU64,
    /// Completion − intended send time: coordinated-omission-safe.
    schedule: Histogram,
    /// Completion − actual send time: the naive number, for contrast.
    response: Histogram,
}

struct Recorders {
    classes: [ClassRec; LoadClass::ALL.len()],
    sent: AtomicU64,
    ok: AtomicU64,
    protocol_errors: AtomicU64,
    io_errors: AtomicU64,
}

impl Recorders {
    fn new() -> Recorders {
        Recorders {
            classes: std::array::from_fn(|_| ClassRec {
                count: AtomicU64::new(0),
                errors: AtomicU64::new(0),
                schedule: Histogram::new(),
                response: Histogram::new(),
            }),
            sent: AtomicU64::new(0),
            ok: AtomicU64::new(0),
            protocol_errors: AtomicU64::new(0),
            io_errors: AtomicU64::new(0),
        }
    }

    #[expect(
        clippy::indexing_slicing,
        reason = "LoadClass::index() is below LoadClass::ALL.len(), the array's length"
    )]
    fn class(&self, class: LoadClass) -> &ClassRec {
        &self.classes[class.index()]
    }
}

/// One protocol connection with reply framing.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Verbs whose `OK` replies span multiple lines terminated by `END`
/// (`ERR` replies are always a single line).
fn reply_is_multiline(request: &str) -> bool {
    let verb = request.split_whitespace().next().unwrap_or("");
    matches!(
        verb.to_ascii_uppercase().as_str(),
        "QUERY" | "BATCH" | "GRAPHS" | "STATS" | "METRICS" | "NEXT" | "SLOWLOG"
    )
}

impl Conn {
    /// Connects and consumes the banner line.
    fn connect(addr: &str) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true).ok();
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        conn.read_line()?; // banner
        Ok(conn)
    }

    fn read_line(&mut self) -> std::io::Result<String> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ));
        }
        Ok(line.trim_end().to_string())
    }

    /// Sends one request and consumes its full reply, returning the
    /// first reply line (`OK …` or `ERR …`).
    fn request(&mut self, line: &str) -> std::io::Result<String> {
        writeln!(self.writer, "{line}")?;
        self.writer.flush()?;
        let first = self.read_line()?;
        if !first.starts_with("ERR") && reply_is_multiline(line) {
            loop {
                if self.read_line()? == "END" {
                    break;
                }
            }
        }
        Ok(first)
    }
}

/// What one event's steps amounted to.
enum EventOutcome {
    Ok,
    /// Server said `ERR` to some step; remaining steps were skipped.
    Protocol,
    /// The connection died mid-event.
    Io,
}

fn run_event(conn: &mut Conn, steps: &[String]) -> EventOutcome {
    let mut session_id: Option<String> = None;
    for step in steps {
        let line = match &session_id {
            Some(id) => step.replace("$S", id),
            None => step.clone(),
        };
        match conn.request(&line) {
            Ok(reply) if reply.starts_with("ERR") => return EventOutcome::Protocol,
            Ok(reply) => {
                if let Some(rest) = reply.strip_prefix("OK session=") {
                    if let Some(id) = rest.split_whitespace().next() {
                        session_id = Some(id.to_string());
                    }
                }
            }
            Err(_) => return EventOutcome::Io,
        }
    }
    EventOutcome::Ok
}

fn run_client(
    id: usize,
    trace: &Trace,
    opts: &ReplayOptions,
    t0: Instant,
    scale: f64,
    rec: &Recorders,
) {
    let mut conn = Conn::connect(&opts.addr).ok();
    for (idx, ev) in trace.events.iter().enumerate() {
        if idx % opts.connections != id {
            continue;
        }
        let intended = t0 + Duration::from_nanos((ev.at_us as f64 * 1000.0 * scale) as u64);
        if let Some(wait) = intended.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
        }
        rec.sent.fetch_add(1, Ordering::Relaxed);
        let class = rec.class(ev.class);
        // one reconnect attempt per event keeps a single dropped
        // connection from voiding the rest of this client's schedule
        if conn.is_none() {
            conn = Conn::connect(&opts.addr).ok();
        }
        let Some(c) = conn.as_mut() else {
            rec.io_errors.fetch_add(1, Ordering::Relaxed);
            class.errors.fetch_add(1, Ordering::Relaxed);
            continue;
        };
        let sent_at = Instant::now();
        match run_event(c, &ev.steps) {
            EventOutcome::Ok => {
                let done = Instant::now();
                rec.ok.fetch_add(1, Ordering::Relaxed);
                class.count.fetch_add(1, Ordering::Relaxed);
                class
                    .schedule
                    .record(done.duration_since(intended).as_nanos() as u64);
                class
                    .response
                    .record(done.duration_since(sent_at).as_nanos() as u64);
            }
            EventOutcome::Protocol => {
                rec.protocol_errors.fetch_add(1, Ordering::Relaxed);
                class.errors.fetch_add(1, Ordering::Relaxed);
            }
            EventOutcome::Io => {
                rec.io_errors.fetch_add(1, Ordering::Relaxed);
                class.errors.fetch_add(1, Ordering::Relaxed);
                conn = None;
            }
        }
    }
}

/// Replays `trace` against a running server. The prelude runs
/// sequentially on a setup connection, then `opts.connections` client
/// threads fire events on the (rescaled) schedule. Returns the merged
/// report; errs only on setup failure (unreachable server, failed
/// prelude) — per-event failures are counted in the report.
pub fn replay(trace: &Trace, opts: &ReplayOptions) -> std::io::Result<LoadReport> {
    if opts.connections == 0 {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            "need at least one connection",
        ));
    }
    let scale = if opts.target_qps > 0.0 && trace.qps > 0.0 {
        trace.qps / opts.target_qps
    } else {
        1.0
    };

    let mut setup = Conn::connect(&opts.addr)?;
    for line in &trace.prelude {
        let reply = setup.request(line)?;
        if reply.starts_with("ERR") {
            return Err(std::io::Error::other(format!(
                "prelude request {line:?} failed: {reply}"
            )));
        }
    }

    let rec = Recorders::new();
    // a short runway so every client thread is parked on its first
    // event's deadline before the schedule starts
    let t0 = Instant::now() + Duration::from_millis(30);
    std::thread::scope(|s| {
        for id in 0..opts.connections {
            let rec = &rec;
            s.spawn(move || run_client(id, trace, opts, t0, scale, rec));
        }
    });
    let wall_s = t0.elapsed().as_secs_f64().max(1e-9);

    let ok = rec.ok.load(Ordering::Relaxed);
    let overall = Histogram::new();
    let mut classes = Vec::new();
    for class in LoadClass::ALL {
        let cr = rec.class(class);
        let count = cr.count.load(Ordering::Relaxed);
        let errors = cr.errors.load(Ordering::Relaxed);
        if count == 0 && errors == 0 {
            continue;
        }
        overall.merge(&cr.schedule);
        let sched = cr.schedule.snapshot();
        let resp = cr.response.snapshot();
        classes.push(ClassReport {
            class,
            count,
            errors,
            p50_us: sched.quantile(0.5) as f64 / 1000.0,
            p99_us: sched.quantile(0.99) as f64 / 1000.0,
            p999_us: sched.quantile(0.999) as f64 / 1000.0,
            mean_us: sched.mean() as f64 / 1000.0,
            max_us: sched.max() as f64 / 1000.0,
            resp_p50_us: resp.quantile(0.5) as f64 / 1000.0,
            resp_p99_us: resp.quantile(0.99) as f64 / 1000.0,
        });
    }
    let all = overall.snapshot();
    Ok(LoadReport {
        target_qps: if opts.target_qps > 0.0 {
            opts.target_qps
        } else {
            trace.qps
        },
        connections: opts.connections,
        wall_s,
        sent: rec.sent.load(Ordering::Relaxed),
        ok,
        protocol_errors: rec.protocol_errors.load(Ordering::Relaxed),
        io_errors: rec.io_errors.load(Ordering::Relaxed),
        achieved_qps: ok as f64 / wall_s,
        p50_us: all.quantile(0.5) as f64 / 1000.0,
        p99_us: all.quantile(0.99) as f64 / 1000.0,
        p999_us: all.quantile(0.999) as f64 / 1000.0,
        classes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::TraceEvent;
    use std::net::TcpListener;

    /// A fake responder: accepts connections forever (the replayer opens
    /// a setup connection plus one per client); each connection gets a
    /// banner, then every request line is answered `OK\nEND` — except
    /// the connection's first, which stalls `stall` first.
    fn fake_server(listener: TcpListener, stall: Duration) {
        std::thread::spawn(move || {
            while let Ok((stream, _)) = listener.accept() {
                std::thread::spawn(move || {
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = BufWriter::new(stream);
                    writeln!(writer, "OK fake ready").unwrap();
                    writer.flush().unwrap();
                    let mut first = true;
                    let mut line = String::new();
                    loop {
                        line.clear();
                        if reader.read_line(&mut line).unwrap_or(0) == 0 {
                            return;
                        }
                        if first {
                            std::thread::sleep(stall);
                            first = false;
                        }
                        writeln!(writer, "OK\nEND").unwrap();
                        writer.flush().unwrap();
                    }
                });
            }
        });
    }

    fn uniform_trace(qps: f64, n: u64) -> Trace {
        Trace {
            seed: 0,
            qps,
            duration_s: n as f64 / qps,
            prelude: Vec::new(),
            events: (0..n)
                .map(|i| TraceEvent {
                    at_us: i * (1_000_000.0 / qps) as u64,
                    class: LoadClass::Cached,
                    steps: vec!["QUERY g 2 2".to_string()],
                })
                .collect(),
        }
    }

    /// THE coordinated-omission pin: one 400 ms server stall at the
    /// start of a 100-QPS single-connection run delays ~40 queued
    /// events. Schedule-based (intended-send) accounting charges each of
    /// them their real wait, so p99 lands near the stall; naive
    /// response-time accounting sees one slow request and 199 fast ones,
    /// so its p99 stays tiny. If these ever converge, the harness has
    /// regressed into a closed-loop liar.
    #[test]
    fn coordinated_omission_inflates_schedule_latency() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        fake_server(listener, Duration::from_millis(400));
        let trace = uniform_trace(100.0, 200);
        let report = replay(&trace, &ReplayOptions::new(addr, 1)).unwrap();
        assert_eq!(report.ok, 200, "every event must complete");
        assert_eq!(report.protocol_errors + report.io_errors, 0);
        let cached = &report.classes[0];
        assert!(
            cached.p99_us > 300_000.0,
            "schedule p99 must reflect the stall, got {} µs",
            cached.p99_us
        );
        assert!(
            cached.resp_p99_us < 100_000.0,
            "naive p99 forgives the backlog, got {} µs",
            cached.resp_p99_us
        );
        assert!(
            cached.p99_us > 5.0 * cached.resp_p99_us,
            "schedule p99 ({}) must dominate naive p99 ({})",
            cached.p99_us,
            cached.resp_p99_us
        );
    }

    /// Without a stall the two accountings agree to within scheduling
    /// noise — schedule latency is not *systematically* inflated.
    #[test]
    fn schedule_and_response_agree_on_a_fast_server() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        fake_server(listener, Duration::ZERO);
        let trace = uniform_trace(200.0, 100);
        let report = replay(&trace, &ReplayOptions::new(addr, 1)).unwrap();
        assert_eq!(report.ok, 100);
        let cached = &report.classes[0];
        // generous bound: an unloaded local socket answers in far under
        // 50 ms even on a busy CI box
        assert!(cached.p99_us < 50_000.0, "{} µs", cached.p99_us);
    }

    /// Rescaling to a target QPS compresses the schedule: the same trace
    /// replayed at 4× its native rate finishes in about a quarter of the
    /// time.
    #[test]
    fn target_qps_rescales_the_schedule() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        fake_server(listener, Duration::ZERO);
        let trace = uniform_trace(50.0, 100); // native: 2 s
        let report = replay(
            &trace,
            &ReplayOptions {
                addr,
                connections: 1,
                target_qps: 200.0,
            },
        )
        .unwrap();
        assert_eq!(report.ok, 100);
        assert!(
            report.wall_s < 1.5,
            "4× rate should finish in ≈0.5 s, took {}",
            report.wall_s
        );
        assert!(report.achieved_qps > 60.0, "{}", report.achieved_qps);
    }
}
