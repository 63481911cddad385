//! Load-test the Ajax serving layer over real keep-alive sockets.
//!
//! Each phase starts a [`FrontEndServer`], a publisher thread pushing
//! synthetic frames (a small blob moving across a static
//! background, so delta frames are genuinely sparse), N long-polling
//! clients on keep-alive connections, and a few steering clients POSTing
//! parameter updates.  The client side is a *multiplexed* epoll load
//! generator — one thread drives every poller connection as a small state
//! machine — so poller counts in the thousands do not need thousands of
//! OS threads.
//!
//! The phase matrix runs both wire modes at the base poller count, then
//! holds `mode=delta` and scales to 1 000 connections (and 10 000 in the
//! full run, raising `RLIMIT_NOFILE` first).  Every delivered frame is
//! audited on the wire: sequences must never regress or repeat, and a
//! delta's `base_sequence` must equal the
//! last frame this client applied — composed delta chains and full-frame
//! resyncs are counted separately.  The report gives requests/s,
//! delivery-latency percentiles (receive time minus publish time),
//! bytes on wire per delivered frame (after the RLE pass), and the hub's
//! encode count per published frame, which must stay independent of the
//! poller count.
//!
//! Usage:
//! `cargo run --release -p ricsa-bench --bin webfront_load -- [--quick]
//!  [--pollers N] [--seconds S] [--workers W] [--json PATH]`
//!
//! `--quick` runs the CI scale: the two base phases at ≥100 pollers plus
//! the 1 000-connection phase, ~2.5 s each.  The default base is 300
//! pollers for 8 s per phase plus the 10 000-connection phase.  The
//! BENCH json goes to `target/webfront_load.json` unless `--json PATH`
//! overrides it.  The process exits non-zero if the sequence audit finds
//! a violation.

use epoll::{Interest, Poller};
use ricsa_bench::{flag_value, write_bench_json};
use ricsa_viz::image::Image;
use ricsa_webfront::http::{read_blocking_response, HttpServerConfig};
use ricsa_webfront::hub::Frame;
use ricsa_webfront::server::{FrontEndConfig, FrontEndServer};
use serde::Serialize;
use std::collections::HashMap;
use std::io::{BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use parking_lot::Mutex;

/// The synthetic frame at publish step `step`: a static gradient
/// background with a bright square blob walking across it, so consecutive
/// frames differ only around the blob and delta encodings are genuinely
/// sparse.
fn synth_web_frame(step: u64, width: usize, height: usize) -> Frame {
    const BLOB: usize = 24;
    let mut img = Image::new(width, height);
    for y in 0..height {
        for x in 0..width {
            img.set(x, y, [(x ^ y) as u8, (x / 2) as u8, (y / 2) as u8, 255]);
        }
    }
    let bx = (step as usize * 2) % width.saturating_sub(BLOB).max(1);
    let by = (step as usize) % height.saturating_sub(BLOB).max(1);
    for y in by..(by + BLOB).min(height) {
        for x in bx..(bx + BLOB).min(width) {
            img.set(x, y, [255, 240, 40, 255]);
        }
    }
    Frame {
        sequence: 0,
        cycle: step,
        time: step as f64 * 0.01,
        image: img.encode_raw(),
        monitors: vec![("step".into(), step as f64)],
    }
}

/// Everything one phase is configured with.
#[derive(Clone)]
struct PhaseConfig {
    mode: &'static str,
    pollers: usize,
    steerers: usize,
    seconds: f64,
    publish_interval: Duration,
    width: usize,
    height: usize,
    workers: usize,
}

/// Wire-level sequence audit, summed over all pollers of a phase.
#[derive(Debug, Default, Serialize)]
struct Audit {
    /// Deliveries whose sequence did not advance (duplicate or
    /// regression).  Must be zero.
    duplicates: u64,
    /// Delta deliveries whose `base_sequence` was not the last frame this
    /// client applied.  Must be zero — a mismatched delta would corrupt
    /// the client's retained pixels.
    delta_base_mismatches: u64,
    /// Full-mode deliveries that skipped a sequence number.  Must be zero
    /// in full-mode phases (the hub replays the retained backlog in
    /// order).
    full_mode_gaps: u64,
    /// Full-frame deliveries in delta mode that skipped ahead: the
    /// by-design resync for clients lagging beyond the composition
    /// horizon.  Informational.
    resyncs: u64,
    /// Delta deliveries that jumped more than one step in a single
    /// response: composed delta chains at work.  Informational.
    chained_deliveries: u64,
}

impl Audit {
    fn violations(&self) -> u64 {
        self.duplicates + self.delta_base_mismatches + self.full_mode_gaps
    }
}

/// Aggregated results of one phase, serialized into the BENCH json.
#[derive(Debug, Serialize)]
struct PhaseStats {
    mode: String,
    pollers: usize,
    seconds: f64,
    /// Poll requests completed (including empty timeouts).
    poll_requests: u64,
    /// Steering POSTs completed.
    steer_requests: u64,
    requests_per_sec: f64,
    frames_published: u64,
    /// Frame deliveries summed over all pollers.
    frames_delivered: u64,
    /// Deliveries that used the delta encoding.
    delta_deliveries: u64,
    /// Wire bytes of all poll responses (headers + body).
    poll_bytes: u64,
    bytes_per_delivery: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
    max_ms: f64,
    /// Hub encodes (full + delta + composed chains) per published frame;
    /// flat across poller counts because payloads are encoded once and
    /// shared.
    encodes_per_frame: f64,
    /// Poller connections that failed to open or died mid-phase.
    disconnects: u64,
    audit: Audit,
    /// Server-side backpressure snapshot (`/api/stats`) taken at the end
    /// of the phase, while the full poller load is still connected.
    server: Option<ricsa_webfront::http::PoolMetricsSnapshot>,
}

#[derive(Debug, Serialize)]
struct BenchJson {
    quick: bool,
    workers: usize,
    /// bytes-per-delivery(full) / bytes-per-delivery(delta) at the base
    /// scale.
    wire_reduction: f64,
    readiness_delta_p99_at_base_ms: f64,
    readiness_delta_p99_at_1k_ms: f64,
    /// Delta p99 at the 1k scale is within [`FLAT_P99_FACTOR`] of its p99
    /// at the base scale ([`p99_stays_flat`]).
    readiness_p99_flat: bool,
    /// Encodes per published frame at 1k vs the base poller count —
    /// staying within 3x means encoding is O(publishes), not O(pollers).
    encode_independent: bool,
    phases: Vec<PhaseStats>,
}

/// What the load generator accumulated.
#[derive(Debug, Default)]
struct GenResult {
    polls: u64,
    frames: u64,
    delta_frames: u64,
    wire_bytes: u64,
    /// Delivery latencies in microseconds (receive minus publish).
    latencies_us: Vec<u64>,
    disconnects: u64,
    audit: Audit,
}

/// Pull `"field":<u64>` out of a JSON body without a full parse — the load
/// generator must stay far cheaper than the server it is measuring.
fn scan_u64_field(body: &str, field: &str) -> Option<u64> {
    let needle = format!("\"{field}\":");
    let at = body.find(&needle)? + needle.len();
    let digits: String = body[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().ok()
}

/// Audit one 200-status poll body against this client's cursor; returns
/// the delivered sequence (and advances the cursor) when the body carried
/// a frame.
fn audit_delivery(
    body: &str,
    mode: &'static str,
    last_delivered: &mut u64,
    result: &mut GenResult,
) -> Option<u64> {
    let seq = scan_u64_field(body, "sequence")?;
    result.frames += 1;
    if seq <= *last_delivered {
        result.audit.duplicates += 1;
    }
    if body.contains("\"mode\":\"delta\"") {
        result.delta_frames += 1;
        match scan_u64_field(body, "base_sequence") {
            Some(base) if base == *last_delivered => {
                if seq > base + 1 {
                    result.audit.chained_deliveries += 1;
                }
            }
            _ => result.audit.delta_base_mismatches += 1,
        }
    } else if seq != *last_delivered + 1 {
        if mode == "full" {
            result.audit.full_mode_gaps += 1;
        } else {
            result.audit.resyncs += 1;
        }
    }
    *last_delivered = seq;
    Some(seq)
}

fn percentile(sorted_us: &[u64], p: f64) -> f64 {
    if sorted_us.is_empty() {
        return f64::NAN;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    sorted_us[idx] as f64 / 1e3
}

fn raw_fd(stream: &TcpStream) -> epoll::RawFd {
    #[cfg(unix)]
    {
        use std::os::fd::AsRawFd;
        stream.as_raw_fd()
    }
    #[cfg(not(unix))]
    {
        let _ = stream;
        -1
    }
}

/// One poller connection inside the multiplexed generator.
struct MuxConn {
    stream: TcpStream,
    /// Bytes received but not yet parsed into a response.
    inbuf: Vec<u8>,
    /// Request bytes not yet accepted by the socket.
    out: Vec<u8>,
    since: u64,
    last_delivered: u64,
    registered: bool,
    dead: bool,
    /// Disconnect already counted and the registration dropped.
    retired: bool,
}

impl MuxConn {
    fn queue_poll(&mut self, mode: &str) {
        let since = self.since;
        self.out.extend_from_slice(
            format!(
                "GET /api/poll?since={since}&timeout_ms=1000&mode={mode} HTTP/1.1\r\n\
                 Host: l\r\n\r\n"
            )
            .as_bytes(),
        );
    }

    fn flush(&mut self) {
        while !self.out.is_empty() {
            match self.stream.write(&self.out) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.out.drain(..n);
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }

    fn read_available(&mut self) {
        let mut tmp = [0u8; 16384];
        loop {
            match self.stream.read(&mut tmp) {
                Ok(0) => {
                    self.dead = true;
                    return;
                }
                Ok(n) => {
                    self.inbuf.extend_from_slice(&tmp[..n]);
                    if n < tmp.len() {
                        return;
                    }
                }
                Err(e) if e.kind() == ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.dead = true;
                    return;
                }
            }
        }
    }
}

/// Parse one complete HTTP response off the front of `buf`, if present:
/// `(status, wire bytes consumed, body)`.  The server always frames
/// responses with `Content-Length`.
fn take_response(buf: &mut Vec<u8>) -> Option<(u16, u64, String)> {
    let hdr_end = buf.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&buf[..hdr_end]).ok()?;
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let mut content_len = 0usize;
    for line in head.split("\r\n").skip(1) {
        if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_len = value.trim().parse().ok()?;
            }
        }
    }
    let total = hdr_end + 4 + content_len;
    if buf.len() < total {
        return None;
    }
    let body = String::from_utf8_lossy(&buf[hdr_end + 4..total]).into_owned();
    buf.drain(..total);
    Some((status, total as u64, body))
}

/// Drive `count` poller connections through one epoll instance on one
/// thread: each connection is a tiny state machine (write poll request →
/// parse the Content-Length-framed response → audit → next request), so
/// the generator scales to thousands of connections without thousands of
/// threads.  `ready` fires once every connection is open and armed, so
/// the caller can start the publisher with the full load attached.
fn run_mux_generator(
    addr: SocketAddr,
    mode: &'static str,
    count: usize,
    since0: u64,
    stop: Arc<AtomicBool>,
    publish_times: Arc<Mutex<HashMap<u64, Instant>>>,
    ready: mpsc::Sender<()>,
) -> GenResult {
    let mut result = GenResult::default();
    let Ok(poller) = Poller::new() else {
        let _ = ready.send(());
        return result;
    };
    let mut conns: Vec<MuxConn> = Vec::with_capacity(count);
    for _ in 0..count {
        match TcpStream::connect(addr) {
            Ok(stream) => {
                let _ = stream.set_nodelay(true);
                let _ = stream.set_nonblocking(true);
                conns.push(MuxConn {
                    stream,
                    inbuf: Vec::new(),
                    out: Vec::new(),
                    since: since0,
                    last_delivered: since0,
                    registered: false,
                    dead: false,
                    retired: false,
                });
            }
            Err(_) => result.disconnects += 1,
        }
    }
    for (key, conn) in conns.iter_mut().enumerate() {
        conn.queue_poll(mode);
        conn.flush();
        arm(&poller, conn, key as u64);
    }
    let _ = ready.send(());

    let mut alive = conns.iter().filter(|c| !c.dead).count();
    let mut events = Vec::new();
    while !stop.load(Ordering::Relaxed) && alive > 0 {
        let _ = poller.wait(&mut events, 4096, Some(Duration::from_millis(25)));
        let now = Instant::now();
        for event in &events {
            let Some(conn) = conns.get_mut(event.key as usize) else {
                continue;
            };
            if conn.retired {
                continue;
            }
            if !conn.out.is_empty() {
                conn.flush();
            }
            if event.readable {
                conn.read_available();
                while let Some((status, wire, body)) = take_response(&mut conn.inbuf) {
                    result.polls += 1;
                    result.wire_bytes += wire;
                    if status == 200 {
                        if let Some(seq) =
                            audit_delivery(&body, mode, &mut conn.last_delivered, &mut result)
                        {
                            if let Some(published) = publish_times.lock().get(&seq) {
                                result
                                    .latencies_us
                                    .push(now.duration_since(*published).as_micros() as u64);
                            }
                            conn.since = seq;
                        }
                    }
                    conn.queue_poll(mode);
                }
                conn.flush();
            }
            if conn.dead {
                let _ = poller.delete(raw_fd(&conn.stream));
                conn.retired = true;
                result.disconnects += 1;
                alive -= 1;
            } else {
                arm(&poller, conn, event.key);
            }
        }
    }
    result
}

/// (Re-)register a connection with the poller: always readable, writable
/// only while request bytes are backed up, one-shot so a woken connection
/// stays quiet until it is re-armed after servicing.
fn arm(poller: &Poller, conn: &mut MuxConn, key: u64) {
    let interest = Interest {
        readable: true,
        writable: !conn.out.is_empty(),
        oneshot: true,
    };
    let fd = raw_fd(&conn.stream);
    let armed = if conn.registered {
        poller.modify(fd, key, interest)
    } else {
        poller.add(fd, key, interest)
    };
    match armed {
        Ok(()) => conn.registered = true,
        Err(_) => conn.dead = true,
    }
}

fn steerer_thread(addr: SocketAddr, stop: Arc<AtomicBool>) -> u64 {
    let mut sent = 0;
    let Ok(stream) = TcpStream::connect(addr) else {
        return 0;
    };
    let _ = stream.set_read_timeout(Some(Duration::from_secs(10)));
    let Ok(read_half) = stream.try_clone() else {
        return 0;
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = stream;
    let body =
        r#"{"gamma":1.4,"cfl":0.4,"drive_strength":1.0,"inflow_velocity":2.0,"end_cycle":1000000}"#;
    while !stop.load(Ordering::Relaxed) {
        let request = format!(
            "POST /api/steer HTTP/1.1\r\nHost: l\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        if writer.write_all(request.as_bytes()).is_err() {
            break;
        }
        if read_blocking_response(&mut reader).is_err() {
            break;
        }
        sent += 1;
        std::thread::sleep(Duration::from_millis(50));
    }
    sent
}

fn run_phase(config: &PhaseConfig) -> PhaseStats {
    let server = FrontEndServer::start_with(
        "127.0.0.1:0",
        FrontEndConfig {
            http: HttpServerConfig {
                workers: config.workers,
                max_connections: config.pollers + config.steerers + 64,
                ..HttpServerConfig::default()
            },
            hub_capacity: 64,
        },
    )
    .expect("bind the front end");
    let addr = server.addr();
    let hub = server.hub();
    let stop = Arc::new(AtomicBool::new(false));
    let publish_times: Arc<Mutex<HashMap<u64, Instant>>> = Arc::default();
    // Every poller's cursor starts at the current head, so backlog frames
    // never pollute the delivery-latency measurement.
    let since0 = hub.latest_sequence();

    let (ready_tx, ready_rx) = mpsc::channel();
    let generator = {
        let stop = stop.clone();
        let publish_times = publish_times.clone();
        let (mode, count) = (config.mode, config.pollers);
        std::thread::spawn(move || {
            run_mux_generator(addr, mode, count, since0, stop, publish_times, ready_tx)
        })
    };
    let steerers: Vec<_> = (0..config.steerers)
        .map(|_| {
            let stop = stop.clone();
            std::thread::spawn(move || steerer_thread(addr, stop))
        })
        .collect();

    // Publish only once the full poller load is connected and armed, so
    // every phase measures the same steady state regardless of how long
    // the connection ramp took.
    let _ = ready_rx.recv_timeout(Duration::from_secs(120));
    let publisher = {
        let hub = hub.clone();
        let stop = stop.clone();
        let publish_times = publish_times.clone();
        let config = config.clone();
        std::thread::spawn(move || {
            let mut step = 0u64;
            let mut next_seq = hub.latest_sequence() + 1;
            while !stop.load(Ordering::Relaxed) {
                let frame = synth_web_frame(step, config.width, config.height);
                // Timestamp *before* publish, registered under the
                // expected sequence number (single publisher), so pollers
                // woken inside publish() find it and the latency sample
                // includes the encode time.
                publish_times.lock().insert(next_seq, Instant::now());
                let seq = hub.publish(frame);
                assert_eq!(seq, next_seq, "single publisher owns the sequence");
                next_seq = seq + 1;
                step += 1;
                std::thread::sleep(config.publish_interval);
            }
            step
        })
    };

    std::thread::sleep(Duration::from_secs_f64(config.seconds));
    // Sample the server's own backpressure metrics while the load is
    // still attached — queue depth, parked connections, and run-queue
    // wait at full load are the overload early-warning signals.
    let server_stats = fetch_server_stats(addr);
    stop.store(true, Ordering::Relaxed);
    let frames_published = publisher.join().unwrap();
    let result = generator.join().unwrap();
    let steer_requests: u64 = steerers.into_iter().map(|h| h.join().unwrap()).sum();
    let encode_count = hub.encode_count();
    server.shutdown();

    let mut latencies = result.latencies_us;
    latencies.sort_unstable();
    PhaseStats {
        mode: config.mode.to_string(),
        pollers: config.pollers,
        seconds: config.seconds,
        poll_requests: result.polls,
        steer_requests,
        requests_per_sec: (result.polls + steer_requests) as f64 / config.seconds,
        frames_published,
        frames_delivered: result.frames,
        delta_deliveries: result.delta_frames,
        poll_bytes: result.wire_bytes,
        bytes_per_delivery: if result.frames > 0 {
            result.wire_bytes as f64 / result.frames as f64
        } else {
            f64::NAN
        },
        p50_ms: percentile(&latencies, 0.50),
        p95_ms: percentile(&latencies, 0.95),
        p99_ms: percentile(&latencies, 0.99),
        max_ms: latencies.last().map_or(f64::NAN, |&l| l as f64 / 1e3),
        encodes_per_frame: encode_count as f64 / frames_published.max(1) as f64,
        disconnects: result.disconnects,
        audit: result.audit,
        server: server_stats,
    }
}

/// One `/api/stats` fetch over a fresh connection, parsed into the typed
/// snapshot (extra hub fields in the body are ignored by deserialization).
fn fetch_server_stats(addr: SocketAddr) -> Option<ricsa_webfront::http::PoolMetricsSnapshot> {
    let stream = TcpStream::connect(addr).ok()?;
    let _ = stream.set_read_timeout(Some(Duration::from_secs(5)));
    let mut reader = BufReader::new(stream.try_clone().ok()?);
    let mut writer = stream;
    writer
        .write_all(b"GET /api/stats HTTP/1.1\r\nHost: l\r\nConnection: close\r\n\r\n")
        .ok()?;
    let (status, _, body) = read_blocking_response(&mut reader).ok()?;
    if status != 200 {
        return None;
    }
    serde_json::from_slice(&body).ok()
}

fn print_phase(stats: &PhaseStats) {
    println!(
        "{:>6}{:>8}{:>10}{:>10}{:>9}{:>9}{:>9.0}{:>9.2}{:>9.2}{:>9.2}",
        stats.mode,
        stats.pollers,
        stats.poll_requests,
        format!("{:.0}/s", stats.requests_per_sec),
        stats.frames_delivered,
        stats.delta_deliveries,
        stats.bytes_per_delivery,
        stats.p50_ms,
        stats.p95_ms,
        stats.p99_ms,
    );
    println!(
        "       audit: {} violations ({} dup, {} base-mismatch, {} full-gap), \
         {} resyncs, {} chained, {} disconnects, {:.2} encodes/frame",
        stats.audit.violations(),
        stats.audit.duplicates,
        stats.audit.delta_base_mismatches,
        stats.audit.full_mode_gaps,
        stats.audit.resyncs,
        stats.audit.chained_deliveries,
        stats.disconnects,
        stats.encodes_per_frame,
    );
    if let Some(s) = &stats.server {
        println!(
            "       server@load: {} conns, run-queue {}, {} pending long-polls, \
             {} parked, queue wait mean {:.0} µs (max {} µs), visit mean {:.0} µs (max {} µs)",
            s.active_connections,
            s.queue_depth,
            s.pending_responses,
            s.parked_connections,
            s.mean_rotation_us,
            s.max_rotation_us,
            s.mean_visit_us,
            s.max_visit_us,
        );
    }
}

/// `phases` lookup by (mode, pollers); panics if the phase was not run
/// (programming error in the matrix below).
fn find<'a>(phases: &'a [PhaseStats], mode: &str, pollers: usize) -> &'a PhaseStats {
    phases
        .iter()
        .find(|p| p.mode == mode && p.pollers == pollers)
        .expect("phase present in the matrix")
}

/// How far a p99 may grow from the base scale to 1k connections and
/// still count as flat (ROADMAP item 2's exit criterion).
const FLAT_P99_FACTOR: f64 = 3.0;

/// Whether a p99 that went from `base_ms` to `scaled_ms` stayed flat.  A
/// phase without deliveries (NaN) is never flat.
fn p99_stays_flat(base_ms: f64, scaled_ms: f64) -> bool {
    scaled_ms <= FLAT_P99_FACTOR * base_ms
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let base_pollers: usize = flag_value(&args, "--pollers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 110 } else { 300 });
    let seconds: f64 = flag_value(&args, "--seconds")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 2.5 } else { 8.0 });
    let workers: usize = flag_value(&args, "--workers")
        .and_then(|s| s.parse().ok())
        .unwrap_or(8);
    let json_path =
        flag_value(&args, "--json").unwrap_or_else(|| "target/webfront_load.json".into());
    let (width, height) = if quick { (128, 128) } else { (192, 192) };
    let kilo = 1000usize;
    let ten_k = 10_000usize;
    let run_ten_k = !quick;

    // Client and server sockets live in this one process: two descriptors
    // per poller plus headroom.
    let fd_target = 2 * (if run_ten_k { ten_k } else { kilo }).max(base_pollers) + 4096;
    match epoll::raise_nofile_limit(fd_target as u64) {
        Ok(limit) => {
            if (limit as usize) < fd_target {
                eprintln!("warning: NOFILE limit {limit} below the {fd_target} target");
            }
        }
        Err(e) => eprintln!("warning: could not raise NOFILE limit: {e}"),
    }

    let base = PhaseConfig {
        mode: "full",
        pollers: base_pollers,
        steerers: 4,
        seconds,
        publish_interval: Duration::from_millis(30),
        width,
        height,
        workers,
    };
    // The matrix: both modes at the base scale, then delta mode scaled to
    // 1k connections (and 10k in the full run).  Publishing slows as
    // connections grow so a phase measures steady-state delivery, not an
    // ever-deepening backlog.
    let mut matrix = vec![
        base.clone(),
        PhaseConfig {
            mode: "delta",
            ..base.clone()
        },
        PhaseConfig {
            mode: "delta",
            pollers: kilo,
            publish_interval: Duration::from_millis(150),
            ..base.clone()
        },
    ];
    if run_ten_k {
        matrix.push(PhaseConfig {
            mode: "delta",
            pollers: ten_k,
            publish_interval: Duration::from_millis(500),
            ..base.clone()
        });
    }

    eprintln!(
        "webfront load: base {base_pollers} pollers \
         + {} steerers, {workers} workers, {width}x{height} frames, {seconds} s per phase...",
        base.steerers
    );
    println!(
        "{:>6}{:>8}{:>10}{:>10}{:>9}{:>9}{:>9}{:>9}{:>9}{:>9}",
        "mode",
        "pollers",
        "polls",
        "req/s",
        "frames",
        "delta",
        "B/frame",
        "p50 ms",
        "p95 ms",
        "p99 ms"
    );
    let mut phases = Vec::new();
    for config in &matrix {
        let stats = run_phase(config);
        print_phase(&stats);
        phases.push(stats);
    }

    let full_base = find(&phases, "full", base_pollers);
    let delta_base = find(&phases, "delta", base_pollers);
    let wire_reduction = full_base.bytes_per_delivery / delta_base.bytes_per_delivery;
    println!(
        "bytes on wire per delivered frame: full {:.0} vs delta {:.0}  \
         ({wire_reduction:.2}x reduction)",
        full_base.bytes_per_delivery, delta_base.bytes_per_delivery
    );

    let delta_1k = find(&phases, "delta", kilo);
    let readiness_p99_flat = p99_stays_flat(delta_base.p99_ms, delta_1k.p99_ms);
    let encode_independent =
        delta_1k.encodes_per_frame <= 3.0 * delta_base.encodes_per_frame.max(1.0);
    println!(
        "delta p99 {base_pollers} -> {kilo} pollers: {:.2} ms -> {:.2} ms \
         ({}: flat means within {FLAT_P99_FACTOR}x)",
        delta_base.p99_ms,
        delta_1k.p99_ms,
        if readiness_p99_flat {
            "stays flat"
        } else {
            "NOT flat"
        }
    );
    println!(
        "encodes per published frame: {:.2} @{base_pollers} pollers vs {:.2} @{kilo} \
         ({}dependent of poller count)",
        delta_base.encodes_per_frame,
        delta_1k.encodes_per_frame,
        if encode_independent { "in" } else { "NOT in" }
    );

    let total_violations: u64 = phases.iter().map(|p| p.audit.violations()).sum();
    let bench = BenchJson {
        quick,
        workers,
        wire_reduction,
        readiness_delta_p99_at_base_ms: delta_base.p99_ms,
        readiness_delta_p99_at_1k_ms: delta_1k.p99_ms,
        readiness_p99_flat,
        encode_independent,
        phases,
    };
    write_bench_json(&json_path, &bench);
    if total_violations > 0 {
        eprintln!("sequence audit FAILED: {total_violations} violations (see per-phase lines)");
        std::process::exit(1);
    }
    eprintln!("sequence audit clean: no duplicates, no base mismatches, no full-mode gaps");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_p99_cliff_is_not_flat() {
        // ROADMAP item 2's numbers: 7.2 ms at 110 pollers, 1.42 s at 1000.
        assert!(!p99_stays_flat(7.2, 1420.0));
        assert!(p99_stays_flat(7.2, 21.0));
        assert!(p99_stays_flat(7.2, 5.0));
        // No deliveries at either scale is not "flat".
        assert!(!p99_stays_flat(7.2, f64::NAN));
        assert!(!p99_stays_flat(f64::NAN, 5.0));
    }
}
