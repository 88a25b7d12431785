//! `wire_mixed`: the open-loop serving mix over loopback TCP.
//!
//! `ic-load`'s seeded generator (default class mix, Zipf θ=1, the default
//! gnm graphs) supplies the events; two client connections send them on
//! their schedule to `serve_with` on an in-process listener, and every
//! event's latency runs from its scheduled send time. After the socket
//! run, the same steps are replayed in send order through
//! `protocol::handle_line` on a freshly built twin service: sampled
//! `QUERY` answers must match, and in the traced run every step's
//! `handle_line` span splits the socket round trip into service,
//! protocol and residual time.

use std::io::{self, BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ic_load::{generate, LoadClass, Trace, WorkloadSpec};
use ic_obs::{QueryClass, Stage};
use ic_service::protocol::handle_line;
use ic_service::{serve_with, Accept, Query, ServerOptions, Service, ServiceConfig};

use crate::common::{
    add_frac, add_q, end_to_end, field, pool_busy_ns, quiesce, repeated_setup, sampled, Args, Op,
    Run, ServiceRec, WORKERS,
};
use crate::engine::{record_search, EngineRec};
use crate::spans::{record_wire_step, SpanLog};
use crate::stats::Dist;

/// Arrival rate. The 2-connection knee on the machine the benchmark was
/// sized on lies between 50 and 100 QPS; this is about a quarter of it.
pub const RATE_QPS: f64 = 30.0;
const CONNECTIONS: usize = 2;
/// Enough events for a p99 under the ten-beyond rule, and for a p90 of
/// every class at the default mix's smallest share (10%).
const MIN_EVENTS: usize = 1000;
/// One `QUERY` step in this many is checked against the twin.
const CHECK_ONE_IN: u64 = 6;
/// A residual above this counts as a stalled reply.
const STALL_NS: i64 = 20_000_000;

/// Independent client populations merged into one schedule. Each draws
/// its own seeded permutation of the popular grid, so the run's
/// popularity is an average over several Zipf heads rather than one
/// seed's luck of which reply sizes are hot.
const POPULATIONS: u64 = 8;

/// The seeded event schedule: `max(RATE_QPS × seconds, MIN_EVENTS)`
/// events from `ic-load`'s generator at its default class mix. The
/// traces of [`POPULATIONS`] generator seeds derived from `seed` are
/// merged by arrival time; events are taken in that order, each class
/// only up to its exact share, so every seed runs the same number of
/// events of every class. They keep the merged Poisson arrival times,
/// rescaled so the schedule's average rate is exactly [`RATE_QPS`].
pub fn schedule(seed: u64, seconds: u64) -> Result<Trace, String> {
    let n = ((RATE_QPS * seconds as f64) as usize).max(MIN_EVENTS);
    let base = WorkloadSpec {
        qps: RATE_QPS / POPULATIONS as f64,
        duration_s: n as f64 / RATE_QPS * 3.0,
        ..WorkloadSpec::default()
    };
    let mut trace = generate(&WorkloadSpec {
        seed: seed.wrapping_mul(POPULATIONS),
        ..base.clone()
    });
    for j in 1..POPULATIONS {
        let more = generate(&WorkloadSpec {
            seed: seed.wrapping_mul(POPULATIONS).wrapping_add(j),
            ..base.clone()
        });
        trace.events.extend(more.events);
    }
    trace.events.sort_by_key(|e| e.at_us);
    let mix = base.mix;
    let shares = [mix.cold, mix.cached, mix.batch, mix.session, mix.update];
    let total: f64 = shares.iter().sum();
    let mut quota: Vec<usize> = shares
        .iter()
        .map(|s| (s / total * n as f64).round() as usize)
        .collect();
    let n: usize = quota.iter().sum();
    let times: Vec<u64> = trace.events.iter().take(n).map(|e| e.at_us).collect();
    trace.events.retain(|e| {
        let q = &mut quota[e.class.index()];
        let keep = *q > 0;
        *q = q.saturating_sub(1);
        keep
    });
    if trace.events.len() < n || times.len() < n {
        return Err("generated schedule too short for the class quotas".into());
    }
    let scale = n as f64 / RATE_QPS * 1e6 / times[n - 1].max(1) as f64;
    for (ev, &at) in trace.events.iter_mut().zip(&times) {
        ev.at_us = (at as f64 * scale).round() as u64;
    }
    trace.seed = seed;
    trace.qps = RATE_QPS;
    trace.duration_s = n as f64 / RATE_QPS;
    Ok(trace)
}

/// A listener whose accept loop can be told to return.
struct StoppableListener {
    inner: TcpListener,
    stop: AtomicBool,
}

impl Accept for StoppableListener {
    fn accept_stream(&self) -> io::Result<TcpStream> {
        let accepted = self.inner.accept().map(|(s, _)| s);
        if self.stop.load(Ordering::SeqCst) {
            // InvalidInput is fatal to the accept loop: serve_with returns
            return Err(io::Error::new(io::ErrorKind::InvalidInput, "stopped"));
        }
        accepted
    }
}

struct Server {
    svc: Arc<Service>,
    listener: Arc<StoppableListener>,
    addr: SocketAddr,
    thread: JoinHandle<io::Result<()>>,
}

impl Server {
    /// Builds a service, serves it on a loopback port, and registers the
    /// schedule's graphs over the socket.
    fn start(config: ServiceConfig, prelude: &[String]) -> Result<Server, String> {
        let svc = Service::new(config);
        let inner = TcpListener::bind("127.0.0.1:0").map_err(|e| format!("bind: {e}"))?;
        let addr = inner.local_addr().map_err(|e| format!("addr: {e}"))?;
        let listener = Arc::new(StoppableListener {
            inner,
            stop: AtomicBool::new(false),
        });
        let acceptor = Arc::clone(&listener);
        let served = Arc::clone(&svc);
        let thread = std::thread::Builder::new()
            .name("bench-accept".into())
            .spawn(move || serve_with(&*acceptor, served, ServerOptions::default()))
            .map_err(|e| format!("spawn: {e}"))?;
        let server = Server {
            svc,
            listener,
            addr,
            thread,
        };
        let mut conn = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        for line in prelude {
            let reply = conn.request(line).map_err(|e| format!("{line}: {e}"))?;
            if !reply.text.starts_with("OK") {
                return Err(format!("{line}: {}", reply.text));
            }
        }
        Ok(server)
    }

    /// Waits for every connection to close, stops the accept loop, and
    /// hands back the service.
    fn stop(self) -> Result<Arc<Service>, String> {
        let deadline = Instant::now() + Duration::from_secs(20);
        while self.svc.metrics().live_connections() > 0 {
            if Instant::now() > deadline {
                return Err("connections still open after 20 s".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        self.listener.stop.store(true, Ordering::SeqCst);
        // wake the blocked accept; the loop sees the flag and returns
        drop(TcpStream::connect(self.addr));
        match self.thread.join() {
            Ok(Err(e)) if e.kind() == io::ErrorKind::InvalidInput => Ok(self.svc),
            Ok(other) => Err(format!("accept loop ended unexpectedly: {other:?}")),
            Err(_) => Err("accept loop panicked".into()),
        }
    }
}

struct Reply {
    text: String,
    bytes: usize,
}

/// One client connection with reply framing.
struct Conn {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
}

/// Verbs whose `OK` reply runs to an `END` line.
fn multiline(verb: &str) -> bool {
    matches!(
        verb,
        "QUERY" | "BATCH" | "GRAPHS" | "STATS" | "METRICS" | "NEXT" | "SLOWLOG"
    )
}

impl Conn {
    fn connect(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let mut conn = Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: BufWriter::new(stream),
        };
        let mut banner = String::new();
        conn.reader.read_line(&mut banner)?;
        Ok(conn)
    }

    fn request(&mut self, line: &str) -> io::Result<Reply> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut text = String::new();
        let mut bytes = self.reader.read_line(&mut text)?;
        if bytes == 0 {
            return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
        }
        let verb = line.split_ascii_whitespace().next().unwrap_or("");
        if text.starts_with("OK") && multiline(verb) {
            loop {
                let before = text.len();
                let n = self.reader.read_line(&mut text)?;
                if n == 0 {
                    return Err(io::Error::new(io::ErrorKind::UnexpectedEof, "closed"));
                }
                bytes += n;
                if text[before..].trim_end() == "END" {
                    break;
                }
            }
        }
        Ok(Reply { text, bytes })
    }
}

/// One request line as the socket run saw it.
struct StepRec {
    event: usize,
    line: String,
    sent: Instant,
    end: Instant,
    bytes: usize,
    /// First reply line.
    head: String,
    /// The community lines of a sampled `QUERY` reply.
    body: Option<String>,
}

struct EventRec {
    class: LoadClass,
    ms: f64,
    ok: bool,
}

struct ClientLog {
    events: Vec<EventRec>,
    steps: Vec<StepRec>,
    lag_us: Vec<f64>,
}

fn verb_of(line: &str) -> &str {
    line.split_ascii_whitespace().next().unwrap_or("")
}

fn graph_of(line: &str) -> &str {
    line.split_ascii_whitespace().nth(1).unwrap_or("")
}

fn community_lines(reply: &str) -> String {
    reply
        .lines()
        .filter(|l| l.starts_with("C "))
        .collect::<Vec<_>>()
        .join("\n")
}

fn run_client(
    id: usize,
    trace: &Trace,
    addr: SocketAddr,
    t0: Instant,
    seed: u64,
) -> io::Result<ClientLog> {
    let mut conn = Conn::connect(addr)?;
    let mut log = ClientLog {
        events: Vec::new(),
        steps: Vec::new(),
        lag_us: Vec::new(),
    };
    for (idx, ev) in trace.events.iter().enumerate() {
        if idx % CONNECTIONS != id {
            continue;
        }
        let intended = t0 + Duration::from_micros(ev.at_us);
        if let Some(wait) = intended.checked_duration_since(Instant::now()) {
            std::thread::sleep(wait);
            // how late the generator woke, when it was idle in time
            log.lag_us
                .push(Instant::now().duration_since(intended).as_secs_f64() * 1e6);
        }
        let mut session: Option<String> = None;
        let mut ok = true;
        for (j, step) in ev.steps.iter().enumerate() {
            let line = match &session {
                Some(s) => step.replace("$S", s),
                None => step.clone(),
            };
            let sent = Instant::now();
            let reply = conn.request(&line)?;
            let end = Instant::now();
            let head = reply.text.lines().next().unwrap_or("").to_string();
            if let Some(s) = field(&head, "session") {
                session = Some(s.to_string());
            }
            let check = verb_of(&line) == "QUERY"
                && sampled(seed, ((idx as u64) << 8) | j as u64, CHECK_ONE_IN);
            log.steps.push(StepRec {
                event: idx,
                body: check.then(|| community_lines(&reply.text)),
                line,
                sent,
                end,
                bytes: reply.bytes,
                head: head.clone(),
            });
            if !head.starts_with("OK") {
                ok = false;
                break;
            }
        }
        log.events.push(EventRec {
            class: ev.class,
            ms: Instant::now().duration_since(intended).as_secs_f64() * 1e3,
            ok,
        });
    }
    Ok(log)
}

fn service_config(traced: bool) -> ServiceConfig {
    let base = ServiceConfig {
        workers: WORKERS,
        ..ServiceConfig::default()
    };
    if traced {
        // every query's stage trace lands in the slow-query ring
        ServiceConfig {
            slowlog_capacity: 1 << 20,
            slowlog_threshold: Duration::ZERO,
            ..base
        }
    } else {
        base
    }
}

pub fn run(args: &Args) -> Result<Run, String> {
    let trace = schedule(args.seed, args.seconds)?;
    let config = service_config(args.trace);
    let (server, setup_s) = repeated_setup(
        |_| Server::start(config, &trace.prelude),
        |s| quiesce(s.stop()?),
    )?;

    // the socket run
    let t0 = Instant::now() + Duration::from_millis(30);
    let addr = server.addr;
    let logs: Vec<io::Result<ClientLog>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|id| {
                let trace = &trace;
                s.spawn(move || run_client(id, trace, addr, t0, args.seed))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join()
                    .unwrap_or_else(|_| Err(io::Error::other("client panicked")))
            })
            .collect()
    });
    let wall_s = t0.elapsed().as_secs_f64();
    let mut events = Vec::new();
    let mut steps = Vec::new();
    let mut lag_us = Vec::new();
    for log in logs {
        let log = log.map_err(|e| format!("client connection failed: {e}"))?;
        events.extend(log.events);
        steps.extend(log.steps);
        lag_us.extend(log.lag_us);
    }
    let svc = server.stop()?;

    let mut run = Run {
        attempted: events.len() as u64,
        failed: events.iter().filter(|e| !e.ok).count() as u64,
        ..Run::default()
    };
    let ops: Vec<Op> = events
        .iter()
        .filter(|e| e.ok)
        .map(|e| Op {
            class: e.class,
            ms: e.ms,
        })
        .collect();
    let prefix = if args.trace { "traced." } else { "" };
    end_to_end(&mut run, prefix, &ops, wall_s, &setup_s);
    if args.trace {
        server_side(&mut run, &svc, wall_s);
    }
    quiesce(svc)?;

    steps.sort_by_key(|s| s.sent);
    twin_replay(&mut run, &trace, &steps, args.trace, t0)?;
    add_q(
        &mut run.metrics,
        "client.send_lag_p99_us",
        &lag_us,
        0.99,
        "us",
    );
    Ok(run)
}

/// Counters and stage traces the socket-served service exposes; its
/// slow-query ring holds every query's trace in the traced run.
fn server_side(run: &mut Run, svc: &Service, wall_s: f64) {
    let mut rec = ServiceRec::default();
    for e in svc.slowlog(usize::MAX) {
        if e.class != QueryClass::Batch {
            let t = e.trace;
            rec.push(&t, (t.total_ns() - t.stage_ns(Stage::Execute)) as i64);
        }
    }
    rec.report(&mut run.metrics, svc, pool_busy_ns(svc), wall_s);
}

/// Per-step numbers of the traced twin replay.
#[derive(Default)]
struct TwinRec {
    query_us: Vec<f64>,
    batch_us: Vec<f64>,
    next_us: Vec<f64>,
    format_us: Vec<f64>,
    reply_bytes: Vec<f64>,
    open_us: Vec<f64>,
    session_next_us: Vec<f64>,
    close_us: Vec<f64>,
    update_us: Vec<f64>,
    commit_ms: Vec<f64>,
    stale_at_commit: Vec<f64>,
    cores_visited: f64,
    committed_ops: f64,
    residual_us: Vec<f64>,
    stalled: usize,
    cached_client_us: Vec<f64>,
    cached_micros_us: Vec<f64>,
    cached_protocol_us: Vec<f64>,
    cached_residual_us: Vec<f64>,
}

/// Replays the socket run's steps, in send order, through `handle_line`
/// on a fresh twin service. Checks the sampled `QUERY` answers; in the
/// traced run, times every step and splits its socket round trip.
fn twin_replay(
    run: &mut Run,
    trace: &Trace,
    steps: &[StepRec],
    traced: bool,
    origin: Instant,
) -> Result<(), String> {
    let twin = Service::new(service_config(false));
    for line in &trace.prelude {
        let reply = handle_line(&twin, line);
        if !reply.starts_with("OK") {
            return Err(format!("twin {line}: {reply}"));
        }
    }
    // a sampled answer is comparable only if no update or commit on its
    // graph overlapped it on the socket, and every commit so far folded
    // in the same number of ops on both sides
    let writes: Vec<(&str, Instant, Instant)> = steps
        .iter()
        .filter(|s| matches!(verb_of(&s.line), "UPDATE" | "COMMIT"))
        .map(|s| (graph_of(&s.line), s.sent, s.end))
        .collect();
    let mut diverged: Vec<String> = Vec::new();
    let mut sessions: std::collections::HashMap<usize, String> = Default::default();
    let mut log = SpanLog::new(origin);
    let mut rec = TwinRec::default();
    let mut engine = EngineRec::default();
    let mut skipped = 0u64;
    for (i, step) in steps.iter().enumerate() {
        let verb = verb_of(&step.line);
        let state_changing = matches!(verb, "UPDATE" | "COMMIT");
        if !traced && !state_changing && step.body.is_none() {
            continue;
        }
        let mut line = step.line.clone();
        if matches!(verb, "NEXT" | "CLOSE") {
            match sessions.get(&step.event) {
                Some(id) => {
                    let socket_id = line.split_ascii_whitespace().nth(1).unwrap_or("");
                    line = format!("{verb} {id}{}", &line[verb.len() + 1 + socket_id.len()..]);
                }
                None => continue,
            }
        }
        let stale = if verb == "COMMIT" {
            twin.stale_core_fraction(graph_of(&line))
        } else {
            0.0
        };
        let t = Instant::now();
        let reply = handle_line(&twin, &line);
        let h_ns = t.elapsed().as_nanos() as i64;
        let head = reply.lines().next().unwrap_or("");
        if let Some(id) = field(head, "session") {
            sessions.insert(step.event, id.to_string());
        }
        if verb == "COMMIT" && field(head, "ops") != field(&step.head, "ops") {
            diverged.push(graph_of(&line).to_string());
        }
        if let Some(body) = &step.body {
            let g = graph_of(&line);
            let overlapped = writes
                .iter()
                .any(|&(wg, s, e)| wg == g && s < step.end && step.sent < e);
            if overlapped || diverged.iter().any(|d| d == g) {
                skipped += 1;
            } else if community_lines(&reply) == *body {
                run.checked += 1;
            } else {
                run.mismatches.push(format!(
                    "wire: {line:?} answered differently over the socket"
                ));
            }
        }
        if !traced {
            continue;
        }
        let h_us = h_ns as f64 / 1e3;
        let socket_micros = field(&step.head, "micros").and_then(|v| v.parse::<i64>().ok());
        let twin_micros = field(head, "micros").and_then(|v| v.parse::<i64>().ok());
        match verb {
            "QUERY" => {
                rec.query_us.push(h_us);
                if let Some(tm) = twin_micros {
                    rec.format_us.push(h_us - tm as f64);
                }
                if field(head, "cached") == Some("false") {
                    direct_engine(&twin, &line, &mut engine)?;
                }
            }
            "BATCH" => rec.batch_us.push(h_us),
            "NEXT" => rec.next_us.push(h_us),
            "UPDATE" => rec.update_us.push(h_us),
            "COMMIT" => {
                rec.commit_ms.push(h_us / 1e3);
                rec.stale_at_commit.push(stale);
                rec.cores_visited += field(head, "cores_visited")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0);
                rec.committed_ops += field(head, "ops")
                    .and_then(|v| v.parse::<f64>().ok())
                    .unwrap_or(0.0);
            }
            "CLOSE" => direct_session(&twin, steps, step.event, &mut rec)?,
            _ => {}
        }
        rec.reply_bytes.push(step.bytes as f64);
        let split = record_wire_step(
            &mut log,
            i as u64,
            (step.sent, step.end),
            socket_micros.map_or(0, |us| us * 1000),
            h_ns,
            twin_micros.map_or(0, |us| us * 1000),
        );
        let residual_us = split.residual_ns as f64 / 1e3;
        rec.residual_us.push(residual_us);
        if split.residual_ns > STALL_NS {
            rec.stalled += 1;
        }
        if verb == "QUERY" && field(&step.head, "cached") == Some("true") {
            rec.cached_client_us.push(split.socket_ns as f64 / 1e3);
            rec.cached_micros_us.push(split.service_ns as f64 / 1e3);
            rec.cached_protocol_us
                .push(split.protocol_self_ns as f64 / 1e3);
            rec.cached_residual_us.push(residual_us);
        }
    }
    run.metrics
        .add("wire.checks_skipped", skipped as f64, "count", steps.len());
    if traced {
        twin_metrics(run, &rec, &engine);
        run.spans = Some(log);
    }
    quiesce(twin)
}

/// Runs the twin's planned executor for `line` (a `QUERY` it just
/// executed) directly against the registered store.
fn direct_engine(twin: &Service, line: &str, engine: &mut EngineRec) -> Result<(), String> {
    let args: Vec<&str> = line.split_ascii_whitespace().collect();
    let [_, graph, gamma, k] = args[..] else {
        return Err(format!("unexpected query line {line:?}"));
    };
    let query = Query::new(
        graph,
        gamma.parse().map_err(|_| format!("gamma in {line:?}"))?,
        k.parse().map_err(|_| format!("k in {line:?}"))?,
    );
    let explain = twin.explain(&query).map_err(|e| e.to_string())?;
    let store = twin.graph(graph).map_err(|e| e.to_string())?.store;
    record_search(engine, &store, &query, explain.algorithm)?;
    Ok(())
}

/// Times the session layer directly for the session event `event`:
/// open, one pull of the same size, close.
fn direct_session(
    twin: &Service,
    steps: &[StepRec],
    event: usize,
    rec: &mut TwinRec,
) -> Result<(), String> {
    let mut open = None;
    let mut pull = 1usize;
    for s in steps.iter().filter(|s| s.event == event) {
        let args: Vec<&str> = s.line.split_ascii_whitespace().collect();
        match args[..] {
            ["OPEN", g, gamma] => open = Some((g.to_string(), gamma.parse::<u32>().unwrap_or(1))),
            ["NEXT", _, n] => pull = n.parse().unwrap_or(1),
            _ => {}
        }
    }
    let Some((graph, gamma)) = open else {
        return Ok(());
    };
    let t = Instant::now();
    let id = twin
        .open_session(&graph, gamma)
        .map_err(|e| e.to_string())?;
    let t_next = Instant::now();
    twin.session_next_full(id, pull)
        .map_err(|e| e.to_string())?;
    let t_close = Instant::now();
    twin.close_session(id).map_err(|e| e.to_string())?;
    let done = Instant::now();
    rec.open_us.push((t_next - t).as_secs_f64() * 1e6);
    rec.session_next_us
        .push((t_close - t_next).as_secs_f64() * 1e6);
    rec.close_us.push((done - t_close).as_secs_f64() * 1e6);
    Ok(())
}

fn twin_metrics(run: &mut Run, rec: &TwinRec, engine: &EngineRec) {
    let m = &mut run.metrics;
    add_q(m, "protocol.query_p50_us", &rec.query_us, 0.5, "us");
    add_q(m, "protocol.batch_p50_us", &rec.batch_us, 0.5, "us");
    add_q(m, "protocol.next_p50_us", &rec.next_us, 0.5, "us");
    add_q(m, "protocol.format_p50_us", &rec.format_us, 0.5, "us");
    add_q(
        m,
        "protocol.reply_bytes_p50",
        &rec.reply_bytes,
        0.5,
        "bytes",
    );
    add_q(
        m,
        "protocol.reply_bytes_p99",
        &rec.reply_bytes,
        0.99,
        "bytes",
    );
    add_q(m, "server.residual_p50_us", &rec.residual_us, 0.5, "us");
    add_q(m, "server.residual_p99_us", &rec.residual_us, 0.99, "us");
    add_frac(
        m,
        "server.stalled_reply_frac",
        rec.stalled as f64,
        rec.residual_us.len() as f64,
        rec.residual_us.len(),
    );
    add_q(m, "session.open_p50_us", &rec.open_us, 0.5, "us");
    add_q(m, "session.next_p50_us", &rec.session_next_us, 0.5, "us");
    add_q(m, "session.close_p50_us", &rec.close_us, 0.5, "us");
    add_q(m, "dynamic.update_p50_us", &rec.update_us, 0.5, "us");
    add_q(m, "dynamic.commit_p50_ms", &rec.commit_ms, 0.5, "ms");
    add_q(m, "dynamic.commit_p99_ms", &rec.commit_ms, 0.99, "ms");
    let stale = Dist::new(rec.stale_at_commit.clone());
    m.add(
        "dynamic.stale_frac_at_commit",
        stale.mean(),
        "frac",
        stale.len(),
    );
    m.add(
        "dynamic.cores_visited_per_op",
        rec.cores_visited / rec.committed_ops.max(1.0),
        "count",
        rec.committed_ops as usize,
    );
    // cached QUERY round trips: the means add up exactly, client =
    // micros + protocol self + residual
    let n = rec.cached_client_us.len();
    for (name, v) in [
        ("wire.cached_query.client_mean_us", &rec.cached_client_us),
        ("wire.cached_query.micros_mean_us", &rec.cached_micros_us),
        (
            "wire.cached_query.protocol_self_mean_us",
            &rec.cached_protocol_us,
        ),
        (
            "wire.cached_query.residual_mean_us",
            &rec.cached_residual_us,
        ),
    ] {
        m.add(name, Dist::new(v.clone()).mean(), "us", n);
    }
    add_q(
        m,
        "wire.cached_query.residual_p50_us",
        &rec.cached_residual_us,
        0.5,
        "us",
    );
    engine.report(m);
}
