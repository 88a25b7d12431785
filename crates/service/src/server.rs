//! TCP front-end: one thread per connection, requests handled by
//! [`crate::protocol::handle_line`].
//!
//! A connection's thread answers its own requests: cache hits,
//! coalesced followers and session `NEXT` pulls never leave it. Only a
//! search takes one of the service's `workers` search slots, admitted
//! FIFO, so a burst of connections cannot oversubscribe the CPU with
//! searches while hits keep flowing. A session `NEXT` pulls under that
//! session's own lock.
//!
//! The accept loops are load-safe: the errors sustained traffic provokes
//! — `ECONNABORTED` from a client resetting mid-handshake, `EMFILE` /
//! `ENFILE` under descriptor pressure, a failed connection-thread spawn —
//! are *transient*. They are counted (`accept_errors` in `STATS`,
//! `ic_accept_errors_total` in `METRICS`), logged rate-limited, and
//! absorbed with a short exponential backoff; the loop keeps accepting.
//! Only errors that mean the listener itself is gone return.
//!
//! Every served stream has `TCP_NODELAY` set, and each reply leaves in
//! one write. A reply split across two writes (say, a large body and
//! then its newline) lets Nagle's algorithm hold the second part until
//! the peer acknowledges the first, and a peer that delays its ACKs
//! leaves that reply waiting about 40 ms.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crate::protocol::{handle_line, help};
use crate::service::Service;

/// Hard cap on one request line. A well-formed request is tens of bytes;
/// anything beyond this is a client bug or abuse, and answering it would
/// require buffering unbounded attacker-controlled input. Oversized lines
/// get a one-line `ERR`, are drained without buffering, and the
/// connection stays usable.
pub const MAX_LINE_BYTES: u64 = 64 * 1024;

/// Tunables for the TCP front-end, beyond the service's own config.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServerOptions {
    /// Close a connection that sends no request for this long
    /// (`serve --idle-timeout`). `None` (the default) keeps the historic
    /// wait-forever behavior. A client stalled *mid-line* is given one
    /// extra idle period to resume before it is treated as half-open;
    /// a partial line is never split into or processed as a request.
    pub idle_timeout: Option<Duration>,
}

/// Source of inbound connections for [`serve_with`]. Implemented for
/// [`TcpListener`]; tests implement it to inject accept failures and
/// prove the loop survives them.
pub trait Accept {
    /// Waits for one inbound connection.
    fn accept_stream(&self) -> io::Result<TcpStream>;
}

impl Accept for TcpListener {
    fn accept_stream(&self) -> io::Result<TcpStream> {
        self.accept().map(|(stream, _)| stream)
    }
}

/// Accepts connections forever, spawning a handler thread per client.
/// Transient accept/spawn failures are counted and absorbed; returns
/// only if the listener fails fatally.
pub fn serve(listener: TcpListener, svc: Arc<Service>) -> io::Result<()> {
    serve_with(&listener, svc, ServerOptions::default())
}

/// [`serve`] with explicit [`ServerOptions`] and a pluggable acceptor.
pub fn serve_with<A: Accept>(
    acceptor: &A,
    svc: Arc<Service>,
    options: ServerOptions,
) -> io::Result<()> {
    accept_loop(acceptor, svc, "ic-conn", options, run_connection)
}

/// Decrements the live-connections gauge when the handler thread exits,
/// however it exits.
struct ConnectionGuard(Arc<Service>);

impl ConnectionGuard {
    fn open(svc: &Arc<Service>) -> Self {
        svc.metrics().connection_opened();
        ConnectionGuard(Arc::clone(svc))
    }
}

impl Drop for ConnectionGuard {
    fn drop(&mut self) {
        self.0.metrics().connection_closed();
    }
}

fn run_connection(stream: TcpStream, svc: Arc<Service>, options: ServerOptions) {
    let _live = ConnectionGuard::open(&svc);
    let peer = stream
        .peer_addr()
        .map(|a| a.to_string())
        .unwrap_or_else(|_| "?".to_string());
    if let Err(e) = handle_connection_with(stream, &svc, options) {
        eprintln!("connection {peer}: {e}");
    }
}

fn run_scrape(stream: TcpStream, svc: Arc<Service>, _options: ServerOptions) {
    // a failed response write was already counted inside handle_scrape;
    // either way the socket closes on drop and the loop keeps accepting
    if let Err(e) = handle_scrape(stream, &svc) {
        eprintln!("metrics scrape: {e}");
    }
}

/// Errors that mean the *listener* is unusable (closed descriptor,
/// not-a-socket) rather than one doomed connection attempt. Everything
/// else — aborted handshakes, descriptor/buffer/memory pressure,
/// timeouts — is transient under load and must not kill the server.
fn is_fatal_accept_error(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::InvalidInput)
        || matches!(
            e.raw_os_error(),
            Some(9 /* EBADF */) | Some(88 /* ENOTSOCK */)
        )
}

/// Exponential accept-failure backoff: 5 ms doubling to a 500 ms cap,
/// reset by the next successful accept. Under descriptor exhaustion this
/// paces retries instead of spinning; a single aborted handshake costs
/// one 5 ms pause.
struct Backoff {
    consecutive: u32,
}

impl Backoff {
    const BASE_MS: u64 = 5;
    const CAP_MS: u64 = 500;

    fn new() -> Self {
        Backoff { consecutive: 0 }
    }

    fn failure(&mut self) -> Duration {
        let exp = self.consecutive.min(7);
        self.consecutive = self.consecutive.saturating_add(1);
        Duration::from_millis((Self::BASE_MS << exp).min(Self::CAP_MS))
    }

    fn reset(&mut self) {
        self.consecutive = 0;
    }
}

/// At most one accept-failure log line per second; the suppressed count
/// rides along so bursts stay visible without flooding stderr.
struct AcceptErrorLog {
    last: Option<Instant>,
    suppressed: u64,
}

impl AcceptErrorLog {
    fn new() -> Self {
        AcceptErrorLog {
            last: None,
            suppressed: 0,
        }
    }

    fn log(&mut self, what: &str, e: &io::Error) {
        let now = Instant::now();
        let due = match self.last {
            None => true,
            Some(t) => now.duration_since(t) >= Duration::from_secs(1),
        };
        if due {
            if self.suppressed > 0 {
                eprintln!(
                    "{what} failed (transient): {e} ({} earlier failures suppressed)",
                    self.suppressed
                );
            } else {
                eprintln!("{what} failed (transient): {e}");
            }
            self.last = Some(now);
            self.suppressed = 0;
        } else {
            self.suppressed += 1;
        }
    }
}

fn accept_loop<A: Accept>(
    acceptor: &A,
    svc: Arc<Service>,
    thread_name: &str,
    options: ServerOptions,
    handler: fn(TcpStream, Arc<Service>, ServerOptions),
) -> io::Result<()> {
    let mut backoff = Backoff::new();
    let mut log = AcceptErrorLog::new();
    loop {
        let stream = match acceptor.accept_stream() {
            Ok(stream) => stream,
            Err(e) if is_fatal_accept_error(&e) => return Err(e),
            Err(e) => {
                svc.record_accept_error();
                log.log("accept", &e);
                std::thread::sleep(backoff.failure());
                continue;
            }
        };
        let conn_svc = Arc::clone(&svc);
        let spawned = std::thread::Builder::new()
            .name(thread_name.to_string())
            .spawn(move || handler(stream, conn_svc, options));
        match spawned {
            Ok(_) => backoff.reset(),
            Err(e) => {
                // dropping the un-run closure closes the stream; the
                // client sees a reset, the server keeps accepting
                svc.record_accept_error();
                log.log("connection-thread spawn", &e);
                std::thread::sleep(backoff.failure());
            }
        }
    }
}

/// Serves one client until `QUIT`, EOF, a reset from the client, or an
/// I/O error.
pub fn handle_connection(stream: TcpStream, svc: &Arc<Service>) -> io::Result<()> {
    handle_connection_with(stream, svc, ServerOptions::default())
}

/// [`handle_connection`] with explicit [`ServerOptions`].
pub fn handle_connection_with(
    stream: TcpStream,
    svc: &Arc<Service>,
    options: ServerOptions,
) -> io::Result<()> {
    stream.set_read_timeout(options.idle_timeout)?;
    stream.set_nodelay(true)?;
    let mut reader = BufReader::new(stream.try_clone()?);
    let mut writer = stream;
    if !send_line(&mut writer, svc, format!("OK ic-service ready; {}", help())) {
        return Ok(());
    }
    let mut buf: Vec<u8> = Vec::new();
    loop {
        buf.clear();
        match read_request_line(&mut reader, &mut buf)? {
            LineRead::Closed => break,
            LineRead::Oversized => {
                if !send_line(
                    &mut writer,
                    svc,
                    format!("ERR line exceeds {MAX_LINE_BYTES} bytes"),
                ) {
                    return Ok(());
                }
                continue;
            }
            LineRead::Line => {}
        }
        let line = String::from_utf8_lossy(&buf);
        let reply = handle_line(svc, &line);
        if !reply.is_empty() && !send_line(&mut writer, svc, reply) {
            return Ok(());
        }
        if line.trim().eq_ignore_ascii_case("QUIT") {
            break;
        }
    }
    Ok(())
}

/// Writes one reply line, newline included, in a single `write_all`.
/// A failed write means the client is gone mid-response: it is counted
/// (`write_errors` in `STATS`, `ic_write_errors_total` in `METRICS`) and
/// reported as `false` so the caller closes the connection cleanly
/// instead of surfacing a spurious connection error.
fn send_line(writer: &mut TcpStream, svc: &Arc<Service>, mut text: String) -> bool {
    text.push('\n');
    match writer.write_all(text.as_bytes()) {
        Ok(()) => true,
        Err(_) => {
            svc.record_write_error();
            false
        }
    }
}

enum LineRead {
    /// One complete request in `buf` (or a final EOF-terminated line).
    Line,
    /// The line blew past [`MAX_LINE_BYTES`]; it was drained, not buffered.
    Oversized,
    /// EOF, a reset from the client, or the idle timeout fired: close
    /// cleanly.
    Closed,
}

/// Reads one request line into `buf`, bounded by [`MAX_LINE_BYTES`].
///
/// Reading *bytes* (not `read_line`) matters: the cap can land mid-way
/// through a multibyte character, which must count as an oversized line,
/// not an I/O error that drops the connection.
///
/// With a read timeout set, `WouldBlock`/`TimedOut` between requests is
/// the idle timeout firing — close. The same error *mid-line* must never
/// split the line: a slow writer gets further idle periods as long as
/// each one delivered at least one new byte; only a mid-line client that
/// stays completely silent for a full extra period is treated as
/// half-open and closed (the partial line is discarded, never executed).
///
/// A reset or abort means the client left, typically between requests
/// without reading its last reply: it closes like EOF, and a partial line
/// is discarded, since no reply could reach the client.
fn read_request_line(reader: &mut BufReader<TcpStream>, buf: &mut Vec<u8>) -> io::Result<LineRead> {
    // usize::MAX = "no timeout seen since the last byte arrived"
    let mut len_at_last_timeout = usize::MAX;
    loop {
        let remaining = MAX_LINE_BYTES.saturating_sub(buf.len() as u64);
        if remaining == 0 {
            drain_line(reader)?;
            return Ok(LineRead::Oversized);
        }
        let n = match reader.by_ref().take(remaining).read_until(b'\n', buf) {
            Ok(n) => n,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if buf.is_empty() || buf.len() == len_at_last_timeout {
                    return Ok(LineRead::Closed);
                }
                len_at_last_timeout = buf.len();
                continue;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::ConnectionReset | io::ErrorKind::ConnectionAborted
                ) =>
            {
                return Ok(LineRead::Closed)
            }
            Err(e) => return Err(e),
        };
        if n > 0 {
            len_at_last_timeout = usize::MAX;
        }
        if buf.last() == Some(&b'\n') {
            return Ok(LineRead::Line);
        }
        if n == 0 {
            // true EOF; a trailing unterminated line is still a request
            return Ok(if buf.is_empty() {
                LineRead::Closed
            } else {
                LineRead::Line
            });
        }
        if buf.len() as u64 >= MAX_LINE_BYTES {
            drain_line(reader)?;
            return Ok(LineRead::Oversized);
        }
    }
}

/// Accepts Prometheus scrapes forever: a minimal HTTP/1.0-style
/// responder behind the `serve --metrics-addr` flag. Every request —
/// whatever its path — is answered with the full
/// [`Service::metrics_text`] body as `text/plain; version=0.0.4` and the
/// connection is closed. The request head is read in one bounded chunk
/// and otherwise ignored; scrapers send a few hundred bytes of headers
/// and nothing this endpoint would act on. Transient accept failures are
/// absorbed exactly as in [`serve`].
pub fn serve_metrics(listener: TcpListener, svc: Arc<Service>) -> io::Result<()> {
    accept_loop(
        &listener,
        svc,
        "ic-metrics",
        ServerOptions::default(),
        run_scrape,
    )
}

/// Answers one scrape: read (and discard) a bounded request head, write
/// the response in one write, close.
pub fn handle_scrape(mut stream: TcpStream, svc: &Arc<Service>) -> io::Result<()> {
    stream.set_nodelay(true)?;
    let mut head = [0u8; 4096];
    let _ = stream.read(&mut head)?;
    let body = svc.metrics_text();
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; version=0.0.4\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    if let Err(e) = stream.write_all(response.as_bytes()) {
        // the scraper hung up mid-body: its loss, but count the
        // undelivered write before propagating
        svc.record_write_error();
        return Err(e);
    }
    Ok(())
}

/// Discards input up to and including the next newline, in bounded
/// chunks (never holding more than one chunk in memory). A read timeout
/// mid-drain propagates and closes the connection: an oversized line
/// from a client that then stalls is not worth waiting out.
fn drain_line(reader: &mut impl BufRead) -> io::Result<()> {
    let mut chunk = Vec::with_capacity(4096);
    loop {
        chunk.clear();
        let n = reader.by_ref().take(4096).read_until(b'\n', &mut chunk)?;
        if n == 0 || chunk.last() == Some(&b'\n') {
            return Ok(());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::ServiceConfig;
    use ic_graph::paper::figure3;
    use std::collections::VecDeque;
    use std::io::BufWriter;
    use std::sync::Mutex;

    /// End-to-end over a real socket: boot a listener on an ephemeral
    /// port, speak the protocol, and check the replies.
    #[test]
    fn tcp_round_trip() {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 2,
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        std::thread::spawn(move || {
            // accept exactly one client for the test
            let (stream, _) = listener.accept().unwrap();
            let _ = handle_connection(stream, &svc_for_server);
        });

        let client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut writer = BufWriter::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // banner
        assert!(line.starts_with("OK ic-service ready"), "{line}");

        writeln!(writer, "QUERY fig3 3 4").unwrap();
        writer.flush().unwrap();
        let mut saw_communities = 0;
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.starts_with("C ") {
                saw_communities += 1;
            }
            if line.trim() == "END" {
                break;
            }
        }
        assert_eq!(saw_communities, 4);

        // a BATCH over the same socket: per-slot replies, one END
        writeln!(writer, "BATCH fig3 3 2 ; fig3 3 4 ; nope 1 1").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK batch=3"), "{line}");
        let (mut slots, mut err_slots, mut communities) = (0, 0, 0);
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.starts_with("R ") {
                slots += 1;
                if line.contains(" ERR ") {
                    err_slots += 1;
                }
            }
            if line.starts_with("C ") {
                communities += 1;
            }
            if line.trim() == "END" {
                break;
            }
        }
        assert_eq!(slots, 3);
        assert_eq!(err_slots, 1, "the unknown graph fails only its slot");
        assert_eq!(communities, 2 + 4);

        writeln!(writer, "QUIT").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(line.trim(), "OK bye");
        line.clear();
        // server closes after QUIT: EOF
        assert_eq!(reader.read_line(&mut line).unwrap(), 0);
        assert_eq!(svc.stats().queries, 3, "QUERY + two batch slots");
        assert_eq!(svc.stats().batches, 1);
    }

    /// An oversized request line is rejected with one `ERR` line, drained
    /// without buffering, and the connection keeps serving.
    #[test]
    fn oversized_line_is_rejected_not_buffered() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 4,
            cache_shards: 1,
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = handle_connection(stream, &svc_for_server);
        });

        let client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut writer = BufWriter::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // banner

        // a 1 MiB line of garbage, far past MAX_LINE_BYTES
        let huge = "A".repeat(1024 * 1024);
        writeln!(writer, "QUERY {huge} 3 4").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR line exceeds"), "{line}");

        // multibyte flood: the byte cap lands mid-character ('€' is three
        // bytes and the prefix offsets it), which must still be a clean
        // oversized rejection, not an InvalidData connection drop
        let multibyte = "€".repeat(40_000);
        writeln!(writer, "QUERY {multibyte} 3 4").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("ERR line exceeds"), "{line}");

        // the same connection still answers real requests afterwards
        writeln!(writer, "QUERY fig3 3 4").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK "), "{line}");
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim() == "END" {
                break;
            }
        }
        writeln!(writer, "QUIT").unwrap();
        writer.flush().unwrap();
    }

    /// The metrics endpoint answers any HTTP-ish request with a complete
    /// Prometheus exposition and closes the connection.
    #[test]
    fn metrics_endpoint_serves_prometheus_text() {
        let svc = Service::new(ServiceConfig {
            workers: 1,
            cache_capacity: 4,
            cache_shards: 1,
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        svc.query(crate::Query::new("fig3", 3, 4)).unwrap();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = handle_scrape(stream, &svc_for_server);
        });

        let mut client = TcpStream::connect(addr).unwrap();
        write!(client, "GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut response = String::new();
        client.read_to_string(&mut response).unwrap();
        let (head, body) = response.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("HTTP/1.0 200 OK"), "{head}");
        assert!(head.contains("text/plain; version=0.0.4"), "{head}");
        let len: usize = head
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .parse()
            .unwrap();
        assert_eq!(len, body.len(), "Content-Length matches the body");
        assert!(body.contains("ic_queries_total 1"), "{body}");
        assert!(body.contains("ic_query_latency_ns_bucket{class=\"cold\""));
    }

    fn test_service() -> Arc<Service> {
        let svc = Service::new(ServiceConfig {
            workers: 2,
            cache_capacity: 16,
            cache_shards: 2,
            ..ServiceConfig::default()
        });
        svc.register("fig3", figure3());
        svc
    }

    /// An acceptor that fails with a scripted sequence of errors before
    /// (and between) real accepts — the listener-shim the accept-loop
    /// regression test injects failures through.
    struct FlakyAcceptor {
        inner: TcpListener,
        failures: Mutex<VecDeque<io::Error>>,
    }

    impl Accept for FlakyAcceptor {
        fn accept_stream(&self) -> io::Result<TcpStream> {
            if let Some(e) = self.failures.lock().unwrap().pop_front() {
                return Err(e);
            }
            self.inner.accept().map(|(s, _)| s)
        }
    }

    fn wait_until(deadline: Duration, mut ok: impl FnMut() -> bool) -> bool {
        let start = Instant::now();
        while start.elapsed() < deadline {
            if ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        ok()
    }

    /// THE headline regression: the exact errors a load generator
    /// provokes — an aborted handshake, `EMFILE` descriptor exhaustion, a
    /// timeout — must not kill the accept loop. The server answers
    /// queries afterwards and the failures are counted.
    #[test]
    fn accept_loop_survives_transient_errors_and_still_answers() {
        let svc = test_service();
        let inner = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = inner.local_addr().unwrap();
        let failures = VecDeque::from([
            io::Error::new(io::ErrorKind::ConnectionAborted, "ECONNABORTED"),
            io::Error::from_raw_os_error(24), // EMFILE: fd limit hit
            io::Error::new(io::ErrorKind::TimedOut, "accept timed out"),
        ]);
        let acceptor = FlakyAcceptor {
            inner,
            failures: Mutex::new(failures),
        };
        let svc_for_server = Arc::clone(&svc);
        std::thread::spawn(move || {
            let _ = serve_with(&acceptor, svc_for_server, ServerOptions::default());
        });

        // the server absorbed all three injected failures and accepts
        let client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut writer = BufWriter::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK ic-service ready"), "{line}");
        writeln!(writer, "QUERY fig3 3 4").unwrap();
        writer.flush().unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK "), "{line}");
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim() == "END" {
                break;
            }
        }

        // every injected failure was counted, and STATS surfaces them
        assert_eq!(svc.stats().accept_errors, 3);
        writeln!(writer, "STATS").unwrap();
        writer.flush().unwrap();
        let mut stats_head = String::new();
        reader.read_line(&mut stats_head).unwrap();
        assert!(stats_head.contains("accept_errors=3"), "{stats_head}");
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim() == "END" {
                break;
            }
        }
        writeln!(writer, "QUIT").unwrap();
        writer.flush().unwrap();
    }

    /// A listener-level failure (not one doomed connection) still
    /// returns: the loop only absorbs what is survivable.
    #[test]
    fn fatal_listener_error_exits_the_accept_loop() {
        struct FatalAcceptor;
        impl Accept for FatalAcceptor {
            fn accept_stream(&self) -> io::Result<TcpStream> {
                Err(io::Error::from_raw_os_error(9)) // EBADF: listener gone
            }
        }
        let svc = test_service();
        let err = serve_with(&FatalAcceptor, Arc::clone(&svc), ServerOptions::default())
            .expect_err("fatal listener errors must propagate");
        assert_eq!(err.raw_os_error(), Some(9));
        assert_eq!(
            svc.stats().accept_errors,
            0,
            "fatal errors are not 'survived'"
        );
    }

    /// Idle clients are disconnected after the timeout and their threads
    /// reclaimed — the live-connections gauge returns to zero.
    #[test]
    fn idle_timeout_reclaims_connection_threads() {
        let svc = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        let options = ServerOptions {
            idle_timeout: Some(Duration::from_millis(100)),
        };
        std::thread::spawn(move || {
            let _ = serve_with(&listener, svc_for_server, options);
        });

        let a = TcpStream::connect(addr).unwrap();
        let b = TcpStream::connect(addr).unwrap();
        let mut ra = BufReader::new(a.try_clone().unwrap());
        let mut rb = BufReader::new(b.try_clone().unwrap());
        let mut line = String::new();
        ra.read_line(&mut line).unwrap(); // banner
        line.clear();
        rb.read_line(&mut line).unwrap();
        assert!(
            wait_until(Duration::from_secs(2), || svc.metrics().live_connections()
                == 2),
            "gauge should reach 2, got {}",
            svc.metrics().live_connections()
        );
        assert_eq!(svc.metrics().connections_total(), 2);

        // both clients go silent: the server closes them (EOF) and the
        // gauge drops back to zero — threads actually reclaimed
        line.clear();
        assert_eq!(ra.read_line(&mut line).unwrap(), 0, "idle client sees EOF");
        line.clear();
        assert_eq!(rb.read_line(&mut line).unwrap(), 0);
        assert!(
            wait_until(Duration::from_secs(5), || svc.metrics().live_connections()
                == 0),
            "gauge should return to 0, got {}",
            svc.metrics().live_connections()
        );
    }

    /// A slow writer that dribbles a request across several idle periods
    /// is never cut mid-line: each period delivers a byte, so the server
    /// keeps waiting and answers the completed request. Only a mid-line
    /// client that goes completely silent is closed.
    #[test]
    fn idle_timeout_never_splits_a_mid_flight_line() {
        let svc = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        let options = ServerOptions {
            idle_timeout: Some(Duration::from_millis(120)),
        };
        std::thread::spawn(move || {
            let _ = serve_with(&listener, svc_for_server, options);
        });

        let client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut writer = BufWriter::new(client);
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // banner

        // total write time ~0.5 s, far past the 120 ms idle timeout, but
        // every idle period sees progress
        for chunk in ["QUE", "RY fi", "g3 ", "3 ", "4\n"] {
            write!(writer, "{chunk}").unwrap();
            writer.flush().unwrap();
            std::thread::sleep(Duration::from_millis(70));
        }
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK "), "mid-flight line was split: {line}");
        loop {
            line.clear();
            reader.read_line(&mut line).unwrap();
            if line.trim() == "END" {
                break;
            }
        }

        // now stall mid-line with no progress at all: the partial line is
        // discarded (never executed) and the connection is closed
        let before = svc.stats().queries;
        write!(writer, "QUERY fig3 3").unwrap();
        writer.flush().unwrap();
        line.clear();
        assert_eq!(
            reader.read_line(&mut line).unwrap(),
            0,
            "half-open mid-line client must be closed, got {line:?}"
        );
        assert_eq!(svc.stats().queries, before, "partial line never executed");
    }

    /// A reply over 8 KiB must leave in one write: sent as the body and
    /// then its newline, Nagle holds the newline until the client's
    /// delayed ACK arrives, about 44 ms per round trip. The client keeps
    /// Nagle and delayed ACK at their defaults, as most clients do.
    #[test]
    fn large_reply_does_not_wait_for_the_delayed_ack() {
        let svc = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            let _ = handle_connection(stream, &svc_for_server);
        });

        let mut client = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(client.try_clone().unwrap());
        let mut line = String::new();
        reader.read_line(&mut line).unwrap(); // banner
        client.write_all(b"GEN g gnm 2000 8000 7\n").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert!(line.starts_with("OK "), "{line}");

        let mut query = || {
            let start = Instant::now();
            client.write_all(b"QUERY g 3 16\n").unwrap();
            let mut bytes = 0;
            loop {
                line.clear();
                bytes += reader.read_line(&mut line).unwrap();
                assert!(!line.is_empty() && !line.starts_with("ERR"), "{line}");
                if line.trim() == "END" {
                    break;
                }
            }
            (bytes, start.elapsed())
        };
        // the first run searches; the timed ones are served from the cache
        let (bytes, _) = query();
        assert!(bytes > 8 * 1024, "reply is only {bytes} bytes");
        let mut times: Vec<Duration> = (0..5).map(|_| query().1).collect();
        times.sort();
        assert!(
            times[2] < Duration::from_millis(20),
            "median round trip {:?} (all {times:?})",
            times[2]
        );
    }

    /// A client that asks for large replies and hangs up without reading
    /// them makes the server's socket writes fail. The failure must be
    /// *counted* (`write_errors`) and the connection closed cleanly —
    /// `Ok(())`, not an error bubbling out of the handler.
    #[test]
    fn failed_client_write_is_counted_and_closed_cleanly() {
        let svc = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            handle_connection_with(stream, &svc_for_server, ServerOptions::default())
        });

        let mut client = TcpStream::connect(addr).unwrap();
        // queue multi-kilobyte METRICS replies and never read one. Once
        // the client's own writes block, the server's receive queue is
        // full: it has unanswered requests queued (in practice its reply
        // write is already blocked), so after the reset below its next
        // reply write fails before any read could see the reset
        client.set_nonblocking(true).unwrap();
        let request = b"METRICS\n";
        let mut sent = 0;
        loop {
            match client.write(&request[sent..]) {
                Ok(n) => sent = (sent + n) % request.len(),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) => panic!("client write failed: {e}"),
            }
        }
        // closing with unread data pending resets the connection, so the
        // server's in-flight write fails rather than seeing EOF
        drop(client);

        let served = server.join().unwrap();
        assert!(
            served.is_ok(),
            "failed write must close cleanly: {served:?}"
        );
        assert!(
            svc.stats().write_errors >= 1,
            "the lost write was not counted"
        );
        assert!(
            svc.metrics_text().contains("ic_write_errors_total"),
            "write_errors missing from the exposition"
        );
    }

    /// A client that leaves between requests without reading its last
    /// reply resets the connection, and the server's next read fails with
    /// `ConnectionReset`. The client is gone, as at EOF: the handler
    /// closes cleanly instead of reporting a connection error.
    #[test]
    fn reset_on_read_closes_cleanly() {
        let svc = test_service();
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let svc_for_server = Arc::clone(&svc);
        let server = std::thread::spawn(move || {
            let (stream, _) = listener.accept().unwrap();
            handle_connection_with(stream, &svc_for_server, ServerOptions::default())
        });

        let client = TcpStream::connect(addr).unwrap();
        // wait for the greeting but leave it unread, so the close below
        // sends a reset instead of a FIN
        let mut first = [0u8; 1];
        assert_eq!(client.peek(&mut first).unwrap(), 1, "no greeting");
        drop(client);

        let served = server.join().unwrap();
        assert!(
            served.is_ok(),
            "a reset on read must close cleanly: {served:?}"
        );
    }
}
