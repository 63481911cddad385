//! A high-concurrency HTTP/1.1 server on a fixed set of event-loop threads.
//!
//! The paper's front end must absorb "heavy traffic" from many browsers at
//! once, so no thread ever waits on one client.  Each of
//! [`HttpServerConfig::workers`] threads runs one [`crate::readiness`]
//! event loop; a connection belongs to the loop that accepted it from
//! `accept` to close, and this module is what a loop does on a visit:
//!
//! * **Keep-alive.**  Connections are HTTP/1.1 persistent by default; each
//!   visit reads whatever bytes have arrived (sockets are non-blocking),
//!   parses as many complete requests as the buffer holds (pipelining-safe:
//!   unconsumed bytes simply stay buffered), and writes the responses in
//!   order.
//! * **Deferred responses.**  A handler returns an [`Outcome`]: either a
//!   ready [`HttpResponse`] or a `Pending` closure the loop re-polls on
//!   every visit until it produces a response.  This is how `/api/poll`
//!   long-polls thousands of clients without a thread per client.
//! * **Connection limits.**  Beyond [`HttpServerConfig::max_connections`]
//!   a new connection is answered `503 Service Unavailable` and closed, so
//!   overload degrades crisply instead of exhausting file descriptors.
//! * **Graceful shutdown.**  [`HttpServer::shutdown`] stops accepting,
//!   flushes any response that is already computable, closes the remaining
//!   connections, and joins every thread.
//!
//! A visit that moved no bytes and dispatched no request leaves the
//! connection waiting in its loop's epoll set until its socket is ready,
//! the publish doorbell ([`Waker`]) rings, or its deadline passes (the
//! keep-alive timeout if idle, `PENDING_RECHECK` for a deferred response).

use crate::readiness::{EventLoop, Waker};
use std::collections::HashMap;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Maximum accepted header-block size; a connection exceeding it is cut
/// off with `400 Bad Request`.
const MAX_HEADER_BYTES: usize = 16 << 10;

/// Maximum accepted request-body size.
const MAX_BODY_BYTES: usize = 16 << 20;

/// A parsed HTTP request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpRequest {
    /// Request method (`GET`, `POST`, ...).
    pub method: String,
    /// Path without the query string.
    pub path: String,
    /// HTTP version from the request line (`HTTP/1.1`).
    pub version: String,
    /// Decoded query-string parameters.
    pub query: HashMap<String, String>,
    /// Header fields, lower-cased names.
    pub headers: HashMap<String, String>,
    /// Request body.
    pub body: Vec<u8>,
}

/// Result of attempting to parse a request from buffered bytes.
#[derive(Debug)]
pub enum Parse {
    /// A complete request plus the number of buffer bytes it consumed
    /// (request line + headers + body); the remainder of the buffer is the
    /// start of the next pipelined request.
    Complete(Box<HttpRequest>, usize),
    /// The buffer holds only a prefix of a request; read more bytes.
    Partial,
    /// The bytes cannot be a valid request (malformed request line or an
    /// oversized header/body).
    Invalid,
}

impl HttpRequest {
    /// A query parameter by name.
    pub fn query_param(&self, name: &str) -> Option<&str> {
        self.query.get(name).map(String::as_str)
    }

    /// Whether the connection should stay open after this request:
    /// HTTP/1.1 defaults to keep-alive, anything else to close, and an
    /// explicit `Connection:` header overrides either way.
    pub fn wants_keep_alive(&self) -> bool {
        match self
            .headers
            .get("connection")
            .map(|v| v.to_ascii_lowercase())
        {
            Some(v) if v.contains("close") => false,
            Some(v) if v.contains("keep-alive") => true,
            _ => self.version == "HTTP/1.1",
        }
    }

    /// Incrementally parse one request from the front of `buf`.
    ///
    /// This is the pipelining-safe entry point the connection loop uses: it
    /// never consumes bytes on `Partial`, and on `Complete` it reports
    /// exactly how many bytes belonged to this request so the caller can
    /// drain them and leave any pipelined successor intact.
    pub fn parse_buf(buf: &[u8]) -> Parse {
        let Some(header_end) = find_header_end(buf) else {
            return if buf.len() > MAX_HEADER_BYTES {
                Parse::Invalid
            } else {
                Parse::Partial
            };
        };
        if header_end > MAX_HEADER_BYTES {
            return Parse::Invalid;
        }
        let head = match std::str::from_utf8(&buf[..header_end]) {
            Ok(s) => s,
            Err(_) => return Parse::Invalid,
        };
        let mut lines = head.split('\n').map(|l| l.trim_end_matches('\r'));
        let request_line = lines.next().unwrap_or("");
        let mut parts = request_line.split_whitespace();
        let (Some(method), Some(target)) = (parts.next(), parts.next()) else {
            return Parse::Invalid;
        };
        let version = parts.next().unwrap_or("HTTP/1.0").to_string();
        let (path, query) = match target.split_once('?') {
            Some((p, q)) => (p.to_string(), parse_query(q)),
            None => (target.to_string(), HashMap::new()),
        };
        let mut headers = HashMap::new();
        for line in lines {
            if line.is_empty() {
                continue;
            }
            if let Some((name, value)) = line.split_once(':') {
                headers.insert(name.trim().to_ascii_lowercase(), value.trim().to_string());
            }
        }
        // Chunked (or any other) transfer coding is not supported; it must
        // be rejected, not ignored — otherwise the chunked body bytes
        // would be re-parsed as the next pipelined request (framing
        // desync / request-smuggling primitive on keep-alive connections).
        if headers
            .get("transfer-encoding")
            .is_some_and(|v| !v.eq_ignore_ascii_case("identity"))
        {
            return Parse::Invalid;
        }
        // An unparseable Content-Length must reject the request, not be
        // read as 0, for the same framing reason.
        let content_length: usize = match headers.get("content-length") {
            Some(v) => match v.parse() {
                Ok(n) => n,
                Err(_) => return Parse::Invalid,
            },
            None => 0,
        };
        if content_length > MAX_BODY_BYTES {
            return Parse::Invalid;
        }
        let body_start = header_end + header_terminator_len(buf, header_end);
        if buf.len() < body_start + content_length {
            return Parse::Partial;
        }
        let body = buf[body_start..body_start + content_length].to_vec();
        Parse::Complete(
            Box::new(HttpRequest {
                method: method.to_string(),
                path,
                version,
                query,
                headers,
                body,
            }),
            body_start + content_length,
        )
    }
}

/// Index of the first byte of the blank line terminating the header block
/// (`\r\n\r\n`, tolerating bare `\n\n`), or `None` if it has not arrived.
/// Whichever terminator appears *earliest* wins — a bare-LF request must
/// not be framed by a CRLF sequence occurring later in the buffer (e.g. in
/// a pipelined successor).
fn find_header_end(buf: &[u8]) -> Option<usize> {
    // A valid terminator must sit within MAX_HEADER_BYTES (enforced by the
    // caller), so bound the scan: without this, every Partial re-parse of
    // a multi-megabyte streaming body would rescan the whole buffer.
    let scan = &buf[..buf.len().min(MAX_HEADER_BYTES + 4)];
    let crlf = scan
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .map(|i| i + 2);
    let lf = scan.windows(2).position(|w| w == b"\n\n").map(|i| i + 1);
    match (crlf, lf) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (a, b) => a.or(b),
    }
}

/// Length of the terminator starting at `header_end` (2 for `\r\n`, 1 for
/// a bare `\n`).
fn header_terminator_len(buf: &[u8], header_end: usize) -> usize {
    if buf[header_end..].starts_with(b"\r\n") {
        2
    } else {
        1
    }
}

/// Decode an `application/x-www-form-urlencoded` style query string.
pub fn parse_query(query: &str) -> HashMap<String, String> {
    query
        .split('&')
        .filter(|kv| !kv.is_empty())
        .map(|kv| match kv.split_once('=') {
            Some((k, v)) => (url_decode(k), url_decode(v)),
            None => (url_decode(kv), String::new()),
        })
        .collect()
}

fn url_decode(s: &str) -> String {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        match bytes[i] {
            b'%' if i + 2 < bytes.len() => {
                let hex = std::str::from_utf8(&bytes[i + 1..i + 3]).unwrap_or("");
                if let Ok(v) = u8::from_str_radix(hex, 16) {
                    out.push(v);
                    i += 3;
                    continue;
                }
                out.push(b'%');
                i += 1;
            }
            b'+' => {
                out.push(b' ');
                i += 1;
            }
            b => {
                out.push(b);
                i += 1;
            }
        }
    }
    String::from_utf8_lossy(&out).into_owned()
}

/// A response body: either bytes owned by this response or a shared
/// reference-counted payload (the hub's encode-once frame cache hands the
/// same `Arc<str>` to every poller instead of re-encoding per client).
#[derive(Debug, Clone)]
pub enum Body {
    /// Bytes owned by this response.
    Owned(Vec<u8>),
    /// A shared payload; cloning the response clones only the `Arc`.
    Shared(Arc<str>),
}

impl Body {
    /// The body bytes, whichever variant holds them.
    pub fn as_bytes(&self) -> &[u8] {
        match self {
            Body::Owned(v) => v,
            Body::Shared(s) => s.as_bytes(),
        }
    }
}

impl PartialEq for Body {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}
impl Eq for Body {}

/// An HTTP response under construction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HttpResponse {
    /// Status code.
    pub status: u16,
    /// Content type.
    pub content_type: String,
    /// Body bytes (owned or shared).
    pub body: Body,
}

impl HttpResponse {
    /// A 200 response with the given content type and body.
    pub fn ok(content_type: &str, body: impl Into<Vec<u8>>) -> Self {
        HttpResponse {
            status: 200,
            content_type: content_type.to_string(),
            body: Body::Owned(body.into()),
        }
    }

    /// A JSON response.
    pub fn json(value: &serde_json::Value) -> Self {
        HttpResponse::ok("application/json", value.to_string().into_bytes())
    }

    /// A JSON response over a shared pre-encoded payload (no copy of the
    /// payload is made; every client shares the same allocation).
    pub fn json_shared(payload: Arc<str>) -> Self {
        HttpResponse {
            status: 200,
            content_type: "application/json".into(),
            body: Body::Shared(payload),
        }
    }

    /// A 404 response.
    pub fn not_found() -> Self {
        HttpResponse {
            status: 404,
            content_type: "text/plain".into(),
            body: Body::Owned(b"not found".to_vec()),
        }
    }

    /// A 400 response with a reason.
    pub fn bad_request(reason: &str) -> Self {
        HttpResponse {
            status: 400,
            content_type: "text/plain".into(),
            body: Body::Owned(reason.as_bytes().to_vec()),
        }
    }

    /// A 503 response (connection limit reached).
    pub fn service_unavailable() -> Self {
        HttpResponse {
            status: 503,
            content_type: "text/plain".into(),
            body: Body::Owned(b"server at connection capacity".to_vec()),
        }
    }

    /// Serialize to wire format, advertising whether the connection stays
    /// open afterwards.
    pub fn encode(&self, keep_alive: bool) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode_into(&mut out, keep_alive);
        out
    }

    /// Serialize to wire format directly into `out` — the serving path
    /// appends straight into the connection's output buffer, so a large
    /// shared frame payload is copied exactly once (no intermediate
    /// headers+body allocation per response).
    pub fn encode_into(&self, out: &mut Vec<u8>, keep_alive: bool) {
        let reason = match self.status {
            200 => "OK",
            400 => "Bad Request",
            404 => "Not Found",
            503 => "Service Unavailable",
            _ => "Unknown",
        };
        let body = self.body.as_bytes();
        out.extend_from_slice(
            format!(
                "HTTP/1.1 {} {}\r\nContent-Type: {}\r\nContent-Length: {}\r\nAccess-Control-Allow-Origin: *\r\nConnection: {}\r\n\r\n",
                self.status,
                reason,
                self.content_type,
                body.len(),
                if keep_alive { "keep-alive" } else { "close" },
            )
            .as_bytes(),
        );
        out.extend_from_slice(body);
    }
}

/// Read one HTTP response (status line, headers, `Content-Length`-framed
/// body) from a blocking client-side reader — the parsing inverse of
/// [`HttpResponse::encode`].  Returns `(status, wire_bytes, body)` where
/// `wire_bytes` counts the full response (status line + headers + body).
/// Shared by this crate's socket tests, the workspace integration tests
/// and the `webfront_load` generator; the server itself never parses
/// responses.
pub fn read_blocking_response<R: std::io::BufRead>(
    reader: &mut R,
) -> std::io::Result<(u16, u64, Vec<u8>)> {
    let mut status_line = String::new();
    if reader.read_line(&mut status_line)? == 0 {
        return Err(std::io::Error::new(
            ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status: u16 = status_line
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let mut wire = status_line.len() as u64;
    let mut content_length = 0usize;
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Err(std::io::Error::new(
                ErrorKind::UnexpectedEof,
                "connection closed inside response headers",
            ));
        }
        wire += line.len() as u64;
        if line.trim_end().is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            content_length = v.trim().parse().unwrap_or(0);
        }
    }
    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    wire += content_length as u64;
    Ok((status, wire, body))
}

/// What a route handler returns.
pub enum Outcome {
    /// The response is ready now.
    Ready(HttpResponse),
    /// The response is not computable yet (a long-poll waiting for the next
    /// frame).  The connection's event loop re-invokes the closure on every
    /// visit — on a publish ring, on socket readiness and at least every
    /// `PENDING_RECHECK` (50 ms) — until it returns `Some`; the closure owns
    /// its deadline and returns its timeout response then.  No thread blocks
    /// while it waits.
    Pending(Box<dyn FnMut() -> Option<HttpResponse> + Send>),
}

impl From<HttpResponse> for Outcome {
    fn from(resp: HttpResponse) -> Self {
        Outcome::Ready(resp)
    }
}

/// Sizing and timing knobs for [`HttpServer`].
#[derive(Debug, Clone)]
pub struct HttpServerConfig {
    /// Event-loop threads, each serving the connections it accepted.
    /// Because long-polls never block a loop, this needs to cover
    /// concurrent *parsing and writing*, not concurrent clients; a few
    /// loops serve hundreds of keep-alive pollers.
    pub workers: usize,
    /// Accepted-connection ceiling; beyond it new connections get `503`.
    pub max_connections: usize,
    /// Keep-alive idle timeout: a connection with no request in flight and
    /// no bytes arriving for this long is closed.
    pub keep_alive: Duration,
}

impl Default for HttpServerConfig {
    fn default() -> Self {
        HttpServerConfig {
            workers: 8,
            max_connections: 1024,
            keep_alive: Duration::from_secs(30),
        }
    }
}

type Handler = dyn Fn(HttpRequest) -> Outcome + Send + Sync;
type PendingResponse = Box<dyn FnMut() -> Option<HttpResponse> + Send>;

/// Upper bound on response bytes buffered for a slow-reading client; a
/// reader this far behind is not keeping up and is dropped.
const MAX_OUT_BUFFERED: usize = 8 << 20;

/// Upper bound on request bytes buffered per connection: one maximal
/// request plus headroom for pipelined successors.  Enforced even while a
/// long-poll defers dispatch, so a client cannot stream unbounded input
/// into memory behind a pending response.
const MAX_IN_BUFFERED: usize = MAX_BODY_BYTES + MAX_HEADER_BYTES + (64 << 10);

/// Once this much of `Conn::out` has been flushed, the dead prefix is
/// reclaimed (without this, a connection that never fully drains would
/// keep every byte it ever sent allocated).
const OUT_COMPACT_THRESHOLD: usize = 64 << 10;

/// One live connection, owned from `accept` to close by the event loop
/// that accepted it.
pub(crate) struct Conn {
    pub(crate) stream: TcpStream,
    /// Bytes read but not yet consumed by a complete request.
    buf: Vec<u8>,
    /// Response bytes queued but not yet accepted by the (non-blocking)
    /// socket — a slow reader never blocks a loop, it just accumulates
    /// here up to [`MAX_OUT_BUFFERED`].
    out: Vec<u8>,
    /// How much of `out` has already been written.
    out_pos: usize,
    /// Close the connection once `out` is fully flushed.
    close_after_flush: bool,
    /// A deferred response being polled; while present, no further
    /// pipelined request is dispatched (responses stay in order).
    pub(crate) pending: Option<PendingResponse>,
    /// Keep-alive decision captured from the request that went pending.
    pending_keep_alive: bool,
    /// The peer has closed its write half (no more requests will arrive;
    /// responses may still be deliverable — HTTP half-close is legal).
    pub(crate) saw_eof: bool,
    /// Last time bytes arrived or response bytes were flushed.
    pub(crate) last_activity: Instant,
    /// `Some` while the connection waits in its loop's epoll set: the time
    /// it must be visited whatever its socket does (its entry in the
    /// loop's deadline set).  `None` while it sits in the ready list.
    pub(crate) deadline: Option<Instant>,
}

impl Conn {
    /// A connection just accepted at `now`.
    pub(crate) fn new(stream: TcpStream, now: Instant) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            out: Vec::new(),
            out_pos: 0,
            close_after_flush: false,
            pending: None,
            pending_keep_alive: true,
            saw_eof: false,
            last_activity: now,
            deadline: None,
        }
    }

    /// Queue a response for the wire (written by [`try_flush`] as the
    /// socket accepts it).
    fn queue_response(&mut self, resp: &HttpResponse, keep_alive: bool) {
        if self.out_pos == self.out.len() {
            self.out.clear();
            self.out_pos = 0;
        }
        resp.encode_into(&mut self.out, keep_alive);
        if !keep_alive {
            self.close_after_flush = true;
        }
    }

    pub(crate) fn out_is_empty(&self) -> bool {
        self.out_pos == self.out.len()
    }
}

/// Write as much queued output as the socket accepts right now, without
/// ever blocking.  Returns `None` when the connection is dead, otherwise
/// whether any bytes were written.
fn try_flush(conn: &mut Conn) -> Option<bool> {
    let mut wrote = false;
    while conn.out_pos < conn.out.len() {
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => return None,
            Ok(n) => {
                conn.out_pos += n;
                conn.last_activity = Instant::now();
                wrote = true;
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => break,
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return None,
        }
    }
    if conn.out_is_empty() {
        conn.out.clear();
        conn.out_pos = 0;
    } else if conn.out_pos > OUT_COMPACT_THRESHOLD {
        // Reclaim the flushed prefix; a never-fully-drained connection
        // must not retain every byte it ever sent.
        conn.out.drain(..conn.out_pos);
        conn.out_pos = 0;
    }
    Some(wrote)
}

/// Live backpressure metrics of the event loops, exported so overload is
/// observable *before* the 503 connection limit trips (the front end
/// serves them on `/api/stats`).  All counters are relaxed atomics — they
/// are monitoring signals, not synchronization — and every gauge is the
/// sum over the loops.  "Rotation" is wake-to-visit wait: the time from a
/// connection being woken (socket ready, doorbell, deadline, or its own
/// progress on the previous visit) to its loop visiting it.
#[derive(Debug, Default)]
pub struct PoolMetrics {
    /// Connections currently open (gauge).
    pub(crate) active: AtomicUsize,
    /// Connections woken but not yet visited (gauge).
    pub(crate) queue_depth: AtomicUsize,
    /// Deferred responses (long-polls) currently waiting (gauge).
    pub(crate) pending_responses: AtomicUsize,
    /// Connections waiting in an epoll set for a wake-up (gauge).
    pub(crate) parked: AtomicUsize,
    /// Requests served since start.
    served_total: AtomicU64,
    /// Scheduling visits performed.
    visits: AtomicU64,
    /// Total microseconds spent inside visits (service time).
    visit_us_total: AtomicU64,
    /// Worst single visit, microseconds.
    visit_us_max: AtomicU64,
    /// Total microseconds connections waited between wake-up and visit.
    rotation_us_total: AtomicU64,
    /// Worst wake-to-visit wait, microseconds.
    rotation_us_max: AtomicU64,
}

/// A point-in-time copy of [`PoolMetrics`], serializable for `/api/stats`
/// responses and BENCH json embedding.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct PoolMetricsSnapshot {
    /// Connections currently open.
    pub active_connections: usize,
    /// Connections woken but not yet visited, summed over the loops.
    pub queue_depth: usize,
    /// Long-polls currently waiting as deferred responses.
    pub pending_responses: usize,
    /// Connections waiting in an epoll set for a wake-up.
    pub parked_connections: usize,
    /// Requests served since start.
    pub requests_served: u64,
    /// Scheduling visits performed.
    pub visits: u64,
    /// Mean per-visit service time, microseconds.
    pub mean_visit_us: f64,
    /// Worst per-visit service time, microseconds.
    pub max_visit_us: u64,
    /// Mean wake-to-visit wait, microseconds.
    pub mean_rotation_us: f64,
    /// Worst wake-to-visit wait, microseconds.
    pub max_rotation_us: u64,
}

impl PoolMetrics {
    /// Snapshot every counter.
    pub fn snapshot(&self) -> PoolMetricsSnapshot {
        let visits = self.visits.load(Ordering::Relaxed);
        let mean = |total_us: &AtomicU64| match visits {
            0 => 0.0,
            n => total_us.load(Ordering::Relaxed) as f64 / n as f64,
        };
        PoolMetricsSnapshot {
            active_connections: self.active.load(Ordering::Relaxed),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            pending_responses: self.pending_responses.load(Ordering::Relaxed),
            parked_connections: self.parked.load(Ordering::Relaxed),
            requests_served: self.served_total.load(Ordering::Relaxed),
            visits,
            mean_visit_us: mean(&self.visit_us_total),
            max_visit_us: self.visit_us_max.load(Ordering::Relaxed),
            mean_rotation_us: mean(&self.rotation_us_total),
            max_rotation_us: self.rotation_us_max.load(Ordering::Relaxed),
        }
    }

    /// Account one visit: how long the connection waited for it and how
    /// long it took.
    pub(crate) fn record_visit(&self, rotation_us: u64, visit_us: u64) {
        self.visits.fetch_add(1, Ordering::Relaxed);
        self.visit_us_total.fetch_add(visit_us, Ordering::Relaxed);
        self.visit_us_max.fetch_max(visit_us, Ordering::Relaxed);
        self.rotation_us_total
            .fetch_add(rotation_us, Ordering::Relaxed);
        self.rotation_us_max
            .fetch_max(rotation_us, Ordering::Relaxed);
    }
}

/// What every event loop of one server shares: the stop flag, the metrics,
/// the configuration and the route handler.  No connection is in here.
pub(crate) struct Shared {
    pub(crate) stop: AtomicBool,
    pub(crate) metrics: Arc<PoolMetrics>,
    pub(crate) config: HttpServerConfig,
    pub(crate) handler: Box<Handler>,
}

impl Shared {
    /// Close one connection at shutdown: queue its pending response if it
    /// is ready right now, flush what the socket accepts, then drop it.
    /// Clients mid-long-poll see EOF and re-poll.
    pub(crate) fn drain(&self, mut conn: Conn) {
        if let Some(mut pending) = conn.pending.take() {
            self.metrics
                .pending_responses
                .fetch_sub(1, Ordering::Relaxed);
            if let Some(resp) = pending() {
                conn.queue_response(&resp, false);
            }
        }
        let _ = try_flush(&mut conn);
        self.metrics.active.fetch_sub(1, Ordering::Relaxed);
    }
}

/// A running HTTP server dispatching to a handler function.
pub struct HttpServer {
    addr: SocketAddr,
    shared: Arc<Shared>,
    threads: Vec<JoinHandle<()>>,
    waker: Waker,
}

impl HttpServer {
    /// Bind to `addr` (e.g. `"127.0.0.1:0"`) with the default
    /// [`HttpServerConfig`].
    pub fn start<F>(addr: &str, handler: F) -> std::io::Result<HttpServer>
    where
        F: Fn(HttpRequest) -> Outcome + Send + Sync + 'static,
    {
        HttpServer::start_with(addr, HttpServerConfig::default(), handler)
    }

    /// Bind to `addr` and serve with an explicit configuration, on exactly
    /// `config.workers` event-loop threads.  Fails with
    /// [`ErrorKind::Unsupported`] where the platform has no epoll (anywhere
    /// but Linux).
    pub fn start_with<F>(
        addr: &str,
        config: HttpServerConfig,
        handler: F,
    ) -> std::io::Result<HttpServer>
    where
        F: Fn(HttpRequest) -> Outcome + Send + Sync + 'static,
    {
        HttpServer::start_with_metrics(addr, config, Arc::new(PoolMetrics::default()), handler)
    }

    /// [`HttpServer::start_with`] publishing into a caller-supplied
    /// [`PoolMetrics`] — so a route handler built *before* the server can
    /// serve the server's own metrics (the `/api/stats` pattern).
    pub fn start_with_metrics<F>(
        addr: &str,
        config: HttpServerConfig,
        metrics: Arc<PoolMetrics>,
        handler: F,
    ) -> std::io::Result<HttpServer>
    where
        F: Fn(HttpRequest) -> Outcome + Send + Sync + 'static,
    {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            metrics,
            config,
            handler: Box::new(handler),
        });
        // Every loop is built here, so a failure is this call's error and
        // not a thread that quietly never served.
        let (waker, loops) = EventLoop::team(listener, &shared)?;
        let threads = loops
            .into_iter()
            .map(|mut event_loop| std::thread::spawn(move || while event_loop.turn() {}))
            .collect();
        Ok(HttpServer {
            addr: local,
            shared,
            threads,
            waker,
        })
    }

    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.shared.metrics.active.load(Ordering::Relaxed)
    }

    /// Total requests served since start.
    pub fn requests_served(&self) -> u64 {
        self.shared.metrics.served_total.load(Ordering::Relaxed)
    }

    /// The server's live backpressure metrics.
    pub fn metrics(&self) -> Arc<PoolMetrics> {
        self.shared.metrics.clone()
    }

    /// The publish doorbell: ring it whenever new data could resolve
    /// waiting long-polls (the hub rings it on every frame publish).
    pub fn waker(&self) -> Waker {
        self.waker.clone()
    }

    /// Gracefully stop the server: no new connections are accepted, every
    /// loop flushes any response that is already computable and closes its
    /// connections, and all threads are joined.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        // The ring gets every loop out of `epoll_wait`; each checks the
        // flag before it sleeps again.
        self.shared.stop.store(true, Ordering::SeqCst);
        self.waker.ring();
        for handle in self.threads.drain(..) {
            let _ = handle.join();
        }
    }
}

impl Drop for HttpServer {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// Answer a connection accepted over the limit with `503` and close it —
/// crisp overload behaviour.  Whatever request bytes already arrived are
/// drained first: closing with unread input makes the kernel RST the
/// connection, which would discard the 503 before the client reads it.
pub(crate) fn refuse(mut stream: TcpStream) {
    if stream.set_nonblocking(true).is_ok() {
        // Bounded drain: the loop must not be pinned by one client
        // streaming data at it.
        let mut sink = [0u8; 1024];
        let mut drained = 0usize;
        while drained < 16 << 10 {
            match stream.read(&mut sink) {
                Ok(n) if n > 0 => drained += n,
                _ => break,
            }
        }
        let _ = stream.set_nonblocking(false);
    }
    let _ = stream.write_all(&HttpResponse::service_unavailable().encode(false));
    let _ = stream.shutdown(std::net::Shutdown::Write);
}

/// One scheduling visit to a connection: flush queued output, ingest
/// newly-arrived bytes, resolve a pending response if it is ready,
/// dispatch every complete request, and decide whether the connection
/// lives on.  Never blocks — reads, writes and long-polls are all
/// deferred to later visits when the socket (or the data) is not ready.
/// Returns the connection to keep, or `None` when it is closed.
/// `made_progress` reports whether the visit accomplished anything (bytes
/// moved or a request dispatched) — the loop visits such a connection
/// again, and leaves one whose visit reports `false` to wait in epoll.
pub(crate) fn service(mut conn: Conn, shared: &Shared, made_progress: &mut bool) -> Option<Conn> {
    let mut progressed = false;

    // 1. Flush output queued on earlier visits first: responses must hit
    //    the wire in order, and a dead peer surfaces here cheapest.
    if try_flush(&mut conn)? {
        progressed = true;
    }
    if conn.out.len() - conn.out_pos > MAX_OUT_BUFFERED {
        return None; // reader hopelessly behind
    }

    // 2. Ingest whatever bytes have arrived (non-blocking reads).
    if !conn.saw_eof {
        let mut chunk = [0u8; 4096];
        loop {
            match conn.stream.read(&mut chunk) {
                Ok(0) => {
                    // Peer closed its write half — legal HTTP half-close.
                    // No more requests will arrive, but everything already
                    // buffered (including a pending long-poll) must still
                    // be answered: the peer can still read.
                    conn.saw_eof = true;
                    break;
                }
                Ok(n) => {
                    conn.buf.extend_from_slice(&chunk[..n]);
                    // Input cap, enforced inside the loop (a saturated
                    // socket keeps delivering full chunks without ever
                    // hitting WouldBlock) and regardless of whether
                    // dispatch below runs this visit (a pending long-poll
                    // defers dispatch but must not defer the limit).
                    if conn.buf.len() > MAX_IN_BUFFERED {
                        return None;
                    }
                    conn.last_activity = Instant::now();
                    progressed = true;
                    if n < chunk.len() {
                        break;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => return None,
            }
        }
    }

    // 3. A deferred response blocks everything behind it (responses stay
    //    in order).  After a half-close it keeps waiting — the peer can
    //    still read its answer — but must close once resolved, and a dead
    //    (fully-closed) peer is bounded by the idle timeout in step 6
    //    instead of holding its slot until the poll deadline.
    if let Some(mut pending) = conn.pending.take() {
        match pending() {
            Some(resp) => {
                let keep = conn.pending_keep_alive && !conn.saw_eof;
                conn.queue_response(&resp, keep);
                progressed = true;
            }
            None => {
                conn.pending = Some(pending);
            }
        }
    }

    // 4. Dispatch every complete request in the buffer, stopping if one
    //    goes pending (its successors stay buffered until it resolves), a
    //    response has demanded close, or a non-reading client has a full
    //    output buffer (the cap must hold within a visit too: a pipelined
    //    burst of cheap requests for large responses would otherwise
    //    amplify into unbounded memory before the next visit's check).
    while conn.pending.is_none()
        && !conn.close_after_flush
        && conn.out.len() - conn.out_pos <= MAX_OUT_BUFFERED
    {
        match HttpRequest::parse_buf(&conn.buf) {
            Parse::Complete(request, consumed) => {
                conn.buf.drain(..consumed);
                shared.metrics.served_total.fetch_add(1, Ordering::Relaxed);
                progressed = true;
                let keep = request.wants_keep_alive();
                match (shared.handler)(*request) {
                    Outcome::Ready(resp) => conn.queue_response(&resp, keep && !conn.saw_eof),
                    Outcome::Pending(mut pending) => {
                        // Fast path: resolve immediately if the data is
                        // already there (a poll with a new frame waiting).
                        match pending() {
                            Some(resp) => conn.queue_response(&resp, keep && !conn.saw_eof),
                            None => {
                                conn.pending = Some(pending);
                                conn.pending_keep_alive = keep;
                            }
                        }
                    }
                }
            }
            Parse::Partial => break,
            Parse::Invalid => {
                conn.queue_response(&HttpResponse::bad_request("malformed request"), false);
                break;
            }
        }
    }

    // 5. After EOF nothing further can arrive: close once everything
    //    queued has been flushed (a half-closed peer can still read it).
    if conn.saw_eof && conn.pending.is_none() {
        conn.close_after_flush = true;
    }

    // 6. Idle keep-alive timeout.  This applies equally to a connection
    //    stalled mid-request (`buf` non-empty) or mid-response-read
    //    (`out` non-empty): a peer that stops moving bytes must not hold
    //    a connection slot forever (slowloris).  `last_activity`
    //    refreshes on every received and flushed byte, so slow-but-live
    //    clients are unaffected.  A live pending long-poll is bounded by
    //    its own deadline instead — unless the peer already closed its
    //    write half, where the idle timeout caps how long a possibly-dead
    //    socket can wait for a frame.
    if (conn.pending.is_none() || conn.saw_eof)
        && conn.last_activity.elapsed() > shared.config.keep_alive
    {
        return None;
    }

    // 7. Push freshly-queued output at the socket; close if this was the
    //    connection's last response and it is fully out.
    if try_flush(&mut conn)? {
        progressed = true;
    }
    if conn.close_after_flush && conn.out_is_empty() && conn.pending.is_none() {
        return None;
    }

    *made_progress = progressed;
    Some(conn)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::readiness::PENDING_RECHECK;
    use std::io::BufReader;

    fn parse_ok(raw: &[u8]) -> HttpRequest {
        match HttpRequest::parse_buf(raw) {
            Parse::Complete(req, consumed) => {
                assert_eq!(consumed, raw.len(), "whole buffer consumed");
                *req
            }
            other => panic!("expected complete parse, got {other:?}"),
        }
    }

    #[test]
    fn parses_get_with_query_and_headers() {
        let req = parse_ok(
            b"GET /api/poll?since=3&client=a%20b HTTP/1.1\r\nHost: x\r\nX-Test: 1\r\n\r\n",
        );
        assert_eq!(req.method, "GET");
        assert_eq!(req.path, "/api/poll");
        assert_eq!(req.version, "HTTP/1.1");
        assert_eq!(req.query_param("since"), Some("3"));
        assert_eq!(req.query_param("client"), Some("a b"));
        assert_eq!(req.headers.get("x-test").map(String::as_str), Some("1"));
        assert!(req.body.is_empty());
        assert!(req.wants_keep_alive());
    }

    #[test]
    fn parses_post_body_with_content_length() {
        let req = parse_ok(b"POST /api/steer HTTP/1.1\r\nContent-Length: 11\r\n\r\n{\"cfl\":0.2}");
        assert_eq!(req.method, "POST");
        assert_eq!(req.body, b"{\"cfl\":0.2}");
    }

    #[test]
    fn partial_requests_wait_for_more_bytes() {
        assert!(matches!(HttpRequest::parse_buf(b""), Parse::Partial));
        assert!(matches!(
            HttpRequest::parse_buf(b"GET /x HTTP/1.1\r\nHost:"),
            Parse::Partial
        ));
        // Headers complete but body still in flight.
        assert!(matches!(
            HttpRequest::parse_buf(b"POST /s HTTP/1.1\r\nContent-Length: 5\r\n\r\nab"),
            Parse::Partial
        ));
    }

    #[test]
    fn malformed_and_oversized_requests_are_invalid() {
        assert!(matches!(
            HttpRequest::parse_buf(b"\r\n\r\n"),
            Parse::Invalid
        ));
        let huge = vec![b'a'; MAX_HEADER_BYTES + 8];
        assert!(matches!(HttpRequest::parse_buf(&huge), Parse::Invalid));
        let bomb = b"POST /x HTTP/1.1\r\nContent-Length: 999999999999\r\n\r\n";
        assert!(matches!(HttpRequest::parse_buf(bomb), Parse::Invalid));
    }

    #[test]
    fn bare_lf_requests_are_not_framed_by_a_later_crlf_terminator() {
        // A bare-LF request pipelined before a CRLF request: the earliest
        // terminator must win, or /b's bytes would be swallowed as /a's
        // header block.
        let raw = b"GET /a HTTP/1.1\n\nGET /b HTTP/1.1\r\n\r\n".to_vec();
        let Parse::Complete(first, consumed) = HttpRequest::parse_buf(&raw) else {
            panic!("first request should parse");
        };
        assert_eq!(first.path, "/a");
        let Parse::Complete(second, consumed2) = HttpRequest::parse_buf(&raw[consumed..]) else {
            panic!("second request should parse");
        };
        assert_eq!(second.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
        // A bare-LF POST whose body contains CRLFCRLF frames correctly too.
        let raw = b"POST /s HTTP/1.1\nContent-Length: 8\n\nab\r\n\r\ncd".to_vec();
        let Parse::Complete(req, consumed) = HttpRequest::parse_buf(&raw) else {
            panic!("bare-LF POST should parse");
        };
        assert_eq!(req.body, b"ab\r\n\r\ncd");
        assert_eq!(consumed, raw.len());
    }

    #[test]
    fn pipelined_requests_consume_exactly_their_bytes() {
        let raw = b"GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n".to_vec();
        let Parse::Complete(first, consumed) = HttpRequest::parse_buf(&raw) else {
            panic!("first request should parse");
        };
        assert_eq!(first.path, "/a");
        let Parse::Complete(second, consumed2) = HttpRequest::parse_buf(&raw[consumed..]) else {
            panic!("second request should parse");
        };
        assert_eq!(second.path, "/b");
        assert_eq!(consumed + consumed2, raw.len());
    }

    #[test]
    fn keep_alive_defaults_follow_http_version_and_connection_header() {
        let v11 = parse_ok(b"GET / HTTP/1.1\r\n\r\n");
        assert!(v11.wants_keep_alive());
        let v10 = parse_ok(b"GET / HTTP/1.0\r\n\r\n");
        assert!(!v10.wants_keep_alive());
        let close = parse_ok(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n");
        assert!(!close.wants_keep_alive());
        let ka10 = parse_ok(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n");
        assert!(ka10.wants_keep_alive());
    }

    #[test]
    fn query_decoding_handles_plus_and_percent() {
        let q = parse_query("a=1+2&b=%41%20c&flag");
        assert_eq!(q.get("a").unwrap(), "1 2");
        assert_eq!(q.get("b").unwrap(), "A c");
        assert_eq!(q.get("flag").unwrap(), "");
        assert!(parse_query("").is_empty());
    }

    #[test]
    fn response_encoding_includes_length_connection_and_body() {
        let resp = HttpResponse::ok("text/plain", "hello");
        let wire = String::from_utf8(resp.encode(true)).unwrap();
        assert!(wire.starts_with("HTTP/1.1 200 OK"));
        assert!(wire.contains("Content-Length: 5"));
        assert!(wire.contains("Connection: keep-alive"));
        assert!(wire.ends_with("hello"));
        let wire = String::from_utf8(resp.encode(false)).unwrap();
        assert!(wire.contains("Connection: close"));
        assert_eq!(HttpResponse::not_found().status, 404);
        assert_eq!(HttpResponse::bad_request("x").status, 400);
        assert_eq!(HttpResponse::service_unavailable().status, 503);
        let json = HttpResponse::json(&serde_json::json!({"ok": true}));
        assert_eq!(json.content_type, "application/json");
        let shared = HttpResponse::json_shared(Arc::from("{\"a\":1}"));
        assert_eq!(shared.body.as_bytes(), b"{\"a\":1}");
        assert_eq!(shared.body, Body::Owned(b"{\"a\":1}".to_vec()));
    }

    /// One response off a blocking stream, via the shared client-side
    /// reader.
    fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, Vec<u8>) {
        let (status, _, body) = read_blocking_response(reader).unwrap();
        (status, body)
    }

    #[test]
    fn keep_alive_serves_many_requests_on_one_connection() {
        let server = HttpServer::start("127.0.0.1:0", |req| {
            HttpResponse::ok("text/plain", format!("you asked for {}", req.path)).into()
        })
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        for i in 0..5 {
            // Idle gaps: the connection parks between requests and must
            // wake on arriving bytes.
            std::thread::sleep(Duration::from_millis(30));
            writer
                .write_all(format!("GET /req{i} HTTP/1.1\r\nHost: l\r\n\r\n").as_bytes())
                .unwrap();
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(body, format!("you asked for /req{i}").as_bytes());
        }
        assert_eq!(server.requests_served(), 5);
        assert_eq!(server.active_connections(), 1);
        server.shutdown();
    }

    #[test]
    fn pipelined_requests_get_ordered_responses() {
        let server = HttpServer::start("127.0.0.1:0", |req| {
            HttpResponse::ok("text/plain", req.path).into()
        })
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(
                b"GET /one HTTP/1.1\r\n\r\nGET /two HTTP/1.1\r\n\r\nGET /three HTTP/1.1\r\n\r\n",
            )
            .unwrap();
        for expect in ["/one", "/two", "/three"] {
            let (status, body) = read_response(&mut reader);
            assert_eq!(status, 200);
            assert_eq!(body, expect.as_bytes());
        }
        server.shutdown();
    }

    #[test]
    fn connection_close_is_honoured() {
        let server = HttpServer::start("127.0.0.1:0", |_| {
            HttpResponse::ok("text/plain", "bye").into()
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_string(&mut response).unwrap(); // EOF only if closed
        assert!(response.contains("Connection: close"));
        assert!(response.ends_with("bye"));
        server.shutdown();
    }

    #[test]
    fn pending_outcomes_long_poll_without_blocking_workers() {
        // One thread, several waiting clients: with thread-per-poll this
        // would deadlock; with deferred responses one event loop serves all.
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let config = HttpServerConfig {
            workers: 1,
            ..HttpServerConfig::default()
        };
        let server = HttpServer::start_with("127.0.0.1:0", config, move |_| {
            let released = released2.clone();
            let deadline = Instant::now() + Duration::from_secs(5);
            Outcome::Pending(Box::new(move || {
                if released.load(Ordering::Relaxed) {
                    Some(HttpResponse::ok("text/plain", "released"))
                } else if Instant::now() >= deadline {
                    Some(HttpResponse::ok("text/plain", "timeout"))
                } else {
                    None
                }
            }))
        })
        .unwrap();
        let addr = server.addr();
        let clients: Vec<_> = (0..4)
            .map(|_| {
                std::thread::spawn(move || {
                    let stream = TcpStream::connect(addr).unwrap();
                    stream
                        .set_read_timeout(Some(Duration::from_secs(10)))
                        .unwrap();
                    let mut reader = BufReader::new(stream.try_clone().unwrap());
                    let mut writer = stream;
                    writer.write_all(b"GET /wait HTTP/1.1\r\n\r\n").unwrap();
                    read_response(&mut reader)
                })
            })
            .collect();
        std::thread::sleep(Duration::from_millis(100));
        released.store(true, Ordering::Relaxed);
        for client in clients {
            let (status, body) = client.join().unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, b"released");
        }
        server.shutdown();
    }

    #[test]
    fn half_closed_long_polls_still_receive_their_response() {
        // HTTP half-close is legal: a client that shuts down its write
        // side after sending a long-poll must still get the response when
        // it resolves (and the connection closes right after).
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let server = HttpServer::start("127.0.0.1:0", move |_| {
            let released = released2.clone();
            let deadline = Instant::now() + Duration::from_secs(5);
            Outcome::Pending(Box::new(move || {
                if released.load(Ordering::Relaxed) {
                    Some(HttpResponse::ok("text/plain", "late"))
                } else if Instant::now() >= deadline {
                    Some(HttpResponse::ok("text/plain", "timeout"))
                } else {
                    None
                }
            }))
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        stream.write_all(b"GET /wait HTTP/1.1\r\n\r\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        std::thread::sleep(Duration::from_millis(50));
        released.store(true, Ordering::Relaxed);
        let mut response = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_string(&mut response).unwrap();
        assert!(response.ends_with("late"), "got: {response}");
        assert!(response.contains("Connection: close"));
        server.shutdown();
    }

    #[test]
    fn connection_limit_returns_503() {
        let config = HttpServerConfig {
            workers: 2,
            max_connections: 1,
            ..HttpServerConfig::default()
        };
        let server = HttpServer::start_with("127.0.0.1:0", config, |_| {
            HttpResponse::ok("text/plain", "hi").into()
        })
        .unwrap();
        // First connection occupies the single slot.
        let first = TcpStream::connect(server.addr()).unwrap();
        // Wait until a loop has accepted it.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active_connections() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.active_connections(), 1);
        let second = TcpStream::connect(server.addr()).unwrap();
        second
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut response = String::new();
        let mut reader = BufReader::new(second.try_clone().unwrap());
        reader.read_to_string(&mut response).unwrap();
        assert!(response.contains("503"), "got: {response}");
        drop(first);
        server.shutdown();
    }

    #[test]
    fn requests_buffered_at_eof_are_still_answered() {
        // The client writes its request and immediately half-closes; the
        // fully-buffered request must still get a response.
        let server = HttpServer::start("127.0.0.1:0", |req| {
            HttpResponse::ok("text/plain", req.path).into()
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"GET /flush HTTP/1.1\r\n\r\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        let mut response = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_string(&mut response).unwrap();
        assert!(response.contains("200 OK"), "got: {response}");
        assert!(response.ends_with("/flush"), "got: {response}");
        server.shutdown();
    }

    #[test]
    fn stalled_partial_requests_are_timed_out_not_parked_forever() {
        // Slowloris guard: a connection that sends half a request and goes
        // silent must be closed at the keep-alive timeout, freeing its
        // connection slot.
        let config = HttpServerConfig {
            workers: 1,
            keep_alive: Duration::from_millis(100),
            ..HttpServerConfig::default()
        };
        let server = HttpServer::start_with("127.0.0.1:0", config, |_| {
            HttpResponse::ok("text/plain", "x").into()
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"GET / HTTP/1.1\r\nX-Half:").unwrap(); // never finished
        let mut reader = BufReader::new(stream);
        let mut rest = String::new();
        // The server closes the socket (EOF) without a response once the
        // idle timeout passes.
        reader.read_to_string(&mut rest).unwrap();
        assert!(rest.is_empty(), "no response expected, got: {rest}");
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.active_connections(), 0, "slot must be freed");
        server.shutdown();
    }

    /// The server's metrics once a connection is parked (or after 5 s).
    fn wait_for_parked(server: &HttpServer) -> PoolMetricsSnapshot {
        let metrics = server.metrics();
        let deadline = Instant::now() + Duration::from_secs(5);
        while metrics.snapshot().parked_connections == 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        metrics.snapshot()
    }

    #[test]
    fn a_default_server_parks_idle_connections() {
        let server = HttpServer::start("127.0.0.1:0", |_| {
            HttpResponse::ok("text/plain", "x").into()
        })
        .unwrap();
        let _idle = TcpStream::connect(server.addr()).unwrap();
        let snapshot = wait_for_parked(&server);
        assert!(
            snapshot.parked_connections >= 1,
            "an idle connection must wait in epoll"
        );
        assert_eq!(snapshot.queue_depth, 0, "and not in a ready list");
        server.shutdown();
    }

    #[test]
    fn readiness_parks_long_polls_and_wakes_them_on_the_doorbell() {
        // The scheduling claim under test: a waiting long-poll's closure is
        // re-polled on the PENDING_RECHECK cadence (~20/s), not by a loop
        // spinning on it — whether the client keeps its write half open or
        // shuts it down after the request (hang-up is always readable, so
        // a half-closed socket left armed would wake the loop at once,
        // every time).
        for half_closed in [false, true] {
            let closure_polls = Arc::new(AtomicU64::new(0));
            let released = Arc::new(AtomicBool::new(false));
            let (polls2, released2) = (closure_polls.clone(), released.clone());
            let server = HttpServer::start("127.0.0.1:0", move |_| {
                let (polls, released) = (polls2.clone(), released2.clone());
                Outcome::Pending(Box::new(move || {
                    polls.fetch_add(1, Ordering::Relaxed);
                    released
                        .load(Ordering::Relaxed)
                        .then(|| HttpResponse::ok("text/plain", "released"))
                }))
            })
            .unwrap();
            let waker = server.waker();
            let stream = TcpStream::connect(server.addr()).unwrap();
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut writer = stream;
            writer.write_all(b"GET /wait HTTP/1.1\r\n\r\n").unwrap();
            if half_closed {
                writer.shutdown(std::net::Shutdown::Write).unwrap();
            }

            // While the long-poll waits, the connection must show up in the
            // parked gauge ...
            assert!(
                wait_for_parked(&server).parked_connections >= 1,
                "long-poll must wait in epoll (half_closed: {half_closed})"
            );
            // ... and accumulate closure polls at the parked cadence: 300 ms
            // is ~6 rechecks; 40 leaves slack for scheduler noise.
            std::thread::sleep(Duration::from_millis(300));
            let polled = closure_polls.load(Ordering::Relaxed);
            assert!(
                polled < 40,
                "waiting long-poll (half_closed: {half_closed}) was re-polled \
                 {polled} times in 300 ms — PENDING_RECHECK \
                 ({PENDING_RECHECK:?}) allows about 6"
            );

            // The doorbell resolves it.
            released.store(true, Ordering::Relaxed);
            waker.ring();
            let mut response = Vec::new();
            if half_closed {
                // The answer to a half-closed client is the last one.
                reader.read_to_end(&mut response).unwrap();
                let response = String::from_utf8(response).unwrap();
                assert!(response.starts_with("HTTP/1.1 200"), "got: {response}");
                assert!(response.contains("Connection: close"), "got: {response}");
                assert!(response.ends_with("released"), "got: {response}");
            } else {
                let (status, body) = read_response(&mut reader);
                assert_eq!(status, 200);
                assert_eq!(body, b"released");
            }
            server.shutdown();
        }
    }

    #[test]
    fn readiness_parked_idle_connections_time_out() {
        let config = HttpServerConfig {
            keep_alive: Duration::from_millis(100),
            ..HttpServerConfig::default()
        };
        let server = HttpServer::start_with("127.0.0.1:0", config, |_| {
            HttpResponse::ok("text/plain", "x").into()
        })
        .unwrap();
        let stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // Never send anything: the parked connection must still be closed
        // at the keep-alive deadline (slowloris guard survives parking).
        let mut reader = BufReader::new(stream);
        let mut rest = String::new();
        reader.read_to_string(&mut rest).unwrap(); // EOF = server closed
        assert!(rest.is_empty());
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.active_connections() > 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(5));
        }
        assert_eq!(server.active_connections(), 0, "slot must be freed");
        server.shutdown();
    }

    #[test]
    fn readiness_graceful_shutdown_with_parked_connections() {
        let server = HttpServer::start("127.0.0.1:0", |_| {
            let deadline = Instant::now() + Duration::from_secs(30);
            Outcome::Pending(Box::new(move || {
                (Instant::now() >= deadline).then(|| HttpResponse::ok("text/plain", "t"))
            }))
        })
        .unwrap();
        let addr = server.addr();
        let _idle = TcpStream::connect(addr).unwrap();
        let mut polling = TcpStream::connect(addr).unwrap();
        polling.write_all(b"GET /wait HTTP/1.1\r\n\r\n").unwrap();
        // Let both connections reach the parked state, then shut down: their
        // loops must close them and every thread must join.
        std::thread::sleep(Duration::from_millis(150));
        server.shutdown(); // the test passes iff this returns
    }

    #[test]
    fn malformed_requests_get_400_and_close() {
        let server = HttpServer::start("127.0.0.1:0", |_| {
            HttpResponse::ok("text/plain", "x").into()
        })
        .unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        stream.write_all(b"\r\n\r\n").unwrap();
        let mut response = String::new();
        let mut reader = BufReader::new(stream);
        reader.read_to_string(&mut response).unwrap();
        assert!(response.contains("400"), "got: {response}");
        server.shutdown();
    }
}
