//! A seeded, structure-aware fuzz loop over the part of the request path
//! that is pure: `HttpRequest::parse_buf` takes bytes, `server::route` and
//! `multi::route_session` take an `HttpRequest`, and none touches a socket.
//!
//! Fixed seeds and a fixed case count, so a failure replays exactly: the
//! panic message names the seed and the case.  Each case builds a few
//! requests that *are* valid (odd, but valid: bare LF, duplicate and long
//! headers, percent-junk, values no router accepts) and checks what the
//! parser owes them; then it damages one and checks what the parser owes
//! arbitrary bytes.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};
use ricsa_webfront::http::{HttpRequest, Parse, PoolMetrics};
use ricsa_webfront::hub::Frame;
use ricsa_webfront::multi::route_session;
use ricsa_webfront::server::route;
use ricsa_webfront::{HttpResponse, Outcome, SessionEndpoints, SessionHub, SteeringInbox};
use std::collections::BTreeMap;
use std::sync::RwLock;
use std::time::Duration;

const SEEDS: [u64; 4] = [20080609, 1, 0xDEAD_BEEF, u64::MAX];
/// Each case is a pipeline of one to four requests, about 2.5 on average:
/// some 20 000 requests generated in all, and as many damaged.
const CASES_PER_SEED: usize = 2_000;

/// The parser's documented caps (`http.rs`): header block and body.
const MAX_HEADER_BYTES: usize = 16 << 10;
const MAX_BODY_BYTES: usize = 16 << 20;

fn pick<'a>(rng: &mut StdRng, from: &[&'a str]) -> &'a str {
    from[rng.gen_range(0..from.len())]
}

/// A request the parser must accept, with what it must read out of it.
struct Valid {
    bytes: Vec<u8>,
    method: &'static str,
    /// The request target up to the `?`, as sent.
    path: String,
    body: Vec<u8>,
}

const NUMBERS: [&str; 14] = [
    "0",
    "1",
    "2",
    "7",
    "abc",
    "-1",
    "+1",
    "1.5",
    "",
    "18446744073709551615",
    "18446744073709551616",
    "99999999999999999999999999",
    "%31",
    "%zz%ff%fe%",
];

/// `head` is the newest sequence the hubs hold, so that cursors land on
/// both sides of it.
fn valid_request(rng: &mut StdRng, head: u64) -> Valid {
    let path = match rng.gen_range(0..12u32) {
        0 => "/".to_string(),
        1 => "/index.html".to_string(),
        2 => "/api/state".to_string(),
        3 => "/api/frame".to_string(),
        4 => "/api/stats".to_string(),
        5 | 6 => "/api/poll".to_string(),
        7 => "/api/steer".to_string(),
        8 => "/api/sessions".to_string(),
        9 => format!(
            "/s/{}/api/{}",
            pick(rng, &NUMBERS),
            pick(rng, &["poll", "state", "frame", "steer", "nope"])
        ),
        10 => format!("/s/{}", pick(rng, &NUMBERS)),
        _ => {
            // Junk that is still one whitespace-free token of valid UTF-8.
            let len = rng.gen_range(1..40usize);
            let junk: String = (0..len)
                .map(|_| {
                    pick(
                        rng,
                        &["/", "%", "%2", "%00", "..", "é", "s", "api", "=", "&", "\\"],
                    )
                })
                .collect();
            format!("/{junk}")
        }
    };
    let method = match rng.gen_range(0..10u32) {
        0 => ["GET", "POST", "HEAD", "PUT"][rng.gen_range(0..4usize)],
        _ if path.ends_with("/steer") => "POST",
        _ => "GET",
    };
    let mut target = path.clone();
    if rng.gen_bool(0.7) {
        let params: Vec<String> = (0..rng.gen_range(0..5u32))
            .map(|_| match rng.gen_range(0..5u32) {
                0 => format!("since={}", pick(rng, &NUMBERS)),
                1 => format!("since={}", head + rng.gen_range(0..3u64) - 1),
                2 => format!(
                    "timeout_ms={}",
                    pick(
                        rng,
                        &["0", "1", "2", "abc", "-5", "60001", "99999999999999999999"]
                    )
                ),
                3 => format!("mode={}", pick(rng, &["delta", "full", "%64elta", ""])),
                _ => pick(rng, &["flag", "=", "a=b=c", "%", "+", "x=%zz"]).to_string(),
            })
            .collect();
        target.push('?');
        target.push_str(&params.join("&"));
    }
    let body: Vec<u8> = match (method, rng.gen_range(0..4u32)) {
        ("GET" | "HEAD", _) | (_, 0) => Vec::new(),
        (_, 1) => {
            br#"{"gamma":1.4,"cfl":0.3,"drive_strength":1.0,"inflow_velocity":2.0,"end_cycle":200}"#
                .to_vec()
        }
        (_, 2) => b"garbage\r\n\r\nGET /smuggled HTTP/1.1\r\n\r\n".to_vec(),
        _ => {
            let mut raw = vec![0u8; rng.gen_range(1..300usize)];
            rng.fill_bytes(&mut raw);
            raw
        }
    };
    let eol = if rng.gen_bool(0.25) { "\n" } else { "\r\n" };
    let version = pick(rng, &["HTTP/1.1", "HTTP/1.1", "HTTP/1.0"]);
    let mut head = format!("{method} {target} {version}{eol}");
    for i in 0..rng.gen_range(0..6u32) {
        let value = match rng.gen_range(0..16u32) {
            0 => "x".repeat(rng.gen_range(0..2500usize)),
            1..=3 => "a: b: c".to_string(),
            4..=6 => "keep-alive".to_string(),
            _ => format!("v{i}"),
        };
        let name = pick(rng, &["Host", "X-Odd", "x-odd", "Connection", "Accept"]);
        head.push_str(&format!("{name}: {value}{eol}"));
    }
    if !body.is_empty() || rng.gen_bool(0.2) {
        // Sometimes twice: a duplicate that agrees is still one length.
        for _ in 0..rng.gen_range(1..3u32) {
            head.push_str(&format!("Content-Length: {}{eol}", body.len()));
        }
    }
    head.push_str(eol);
    let mut bytes = head.into_bytes();
    bytes.extend_from_slice(&body);
    Valid {
        bytes,
        method,
        path,
        body,
    }
}

/// Damage `bytes` the way a hostile or broken client would.
fn mutate(rng: &mut StdRng, bytes: &mut Vec<u8>) {
    for _ in 0..rng.gen_range(1..4u32) {
        let at = rng.gen_range(0..bytes.len().max(1));
        match rng.gen_range(0..8u32) {
            0 => bytes.truncate(at),
            1 if !bytes.is_empty() => bytes[at] = rng.gen(),
            2 => bytes.insert(
                at,
                [0x00, 0xff, b'\n', b'\r', b' ', b':'][rng.gen_range(0..6usize)],
            ),
            3 if rng.gen_bool(0.25) => {
                // A header block that never ends, or ends past the cap.
                let filler = vec![b'a'; rng.gen_range(1..3usize) * MAX_HEADER_BYTES];
                bytes.splice(at..at, filler);
            }
            4 => {
                let absurd = pick(
                    rng,
                    &[
                        "Content-Length: -1\r\n",
                        "Content-Length: 99999999999999999999\r\n",
                        "Content-Length: 16777217\r\n",
                        "Content-Length: 1e3\r\n",
                        "Content-Length: 4\r\nContent-Length: 5\r\n",
                        "Transfer-Encoding: chunked\r\n",
                        ": no name\r\n",
                        "no colon\r\n",
                    ],
                );
                let line_start = bytes.iter().position(|&b| b == b'\n').map_or(0, |i| i + 1);
                bytes.splice(line_start..line_start, absurd.bytes());
            }
            5 => {
                let mut junk = vec![0u8; rng.gen_range(1..64usize)];
                rng.fill_bytes(&mut junk);
                bytes.splice(at..at, junk);
            }
            6 => bytes.extend_from_slice(b"\r\n\r\n"),
            _ => bytes.reverse(),
        }
    }
}

/// What the serving loop does with arriving bytes (`http::service` steps 2
/// and 4): append a chunk, then take every complete request off the front.
fn feed(buf: &mut Vec<u8>, chunk: &[u8], out: &mut Vec<HttpRequest>) -> Result<(), String> {
    buf.extend_from_slice(chunk);
    loop {
        match HttpRequest::parse_buf(buf) {
            Parse::Complete(request, consumed) => {
                if consumed == 0 || consumed > buf.len() {
                    return Err(format!("consumed {consumed} of {}", buf.len()));
                }
                buf.drain(..consumed);
                out.push(*request);
            }
            Parse::Partial => return Ok(()),
            Parse::Invalid => return Err("Invalid".into()),
        }
    }
}

struct Routers {
    hub: SessionHub,
    inbox: SteeringInbox,
    registry: RwLock<BTreeMap<u64, SessionEndpoints>>,
    metrics: PoolMetrics,
    published: u64,
}

impl Routers {
    fn new() -> Routers {
        let mut routers = Routers {
            hub: SessionHub::default(),
            inbox: SteeringInbox::new(),
            registry: RwLock::new(BTreeMap::new()),
            metrics: PoolMetrics::default(),
            published: 0,
        };
        for id in [1, 2, 7] {
            let endpoints = SessionEndpoints {
                hub: SessionHub::default(),
                inbox: SteeringInbox::new(),
            };
            routers.registry.write().unwrap().insert(id, endpoints);
        }
        routers.publish();
        routers
    }

    /// One more frame on every hub.
    fn publish(&mut self) {
        self.published += 1;
        let shade = (self.published % 251) as u8;
        let frame = Frame {
            sequence: 0,
            cycle: self.published,
            time: self.published as f64,
            image: ricsa_viz::image::Image::filled(4, 4, [shade, 0, 0, 255]).encode_raw(),
            monitors: vec![],
        };
        self.hub.publish(frame.clone());
        for endpoints in self.registry.read().unwrap().values() {
            endpoints.hub.publish(frame.clone());
        }
    }

    /// Both routers answer any parsed request with 200, 400 or 404, and a
    /// deferred answer arrives with the next frame or at its own deadline.
    fn check(&mut self, req: &HttpRequest) -> Result<(), String> {
        let since = req
            .query_param("since")
            .map_or(Some(0), |v| v.parse::<u64>().ok());
        let timeout_ms = req
            .query_param("timeout_ms")
            .map_or(Some(15_000), |v| v.parse::<u64>().ok());
        for multi in [false, true] {
            let outcome = if multi {
                route_session(&self.registry, &self.metrics, req.clone())
            } else {
                route(&self.hub, &self.inbox, &self.metrics, req.clone())
            };
            let check_status = |resp: &HttpResponse, allowed: &[u16]| {
                if allowed.contains(&resp.status) {
                    Ok(())
                } else {
                    Err(format!("multi={multi}: status {} for {req:?}", resp.status))
                }
            };
            let mut pending = match outcome {
                Outcome::Ready(resp) => {
                    check_status(&resp, &[200, 400, 404])?;
                    continue;
                }
                Outcome::Pending(pending) => pending,
            };
            let (Some(since), Some(timeout_ms)) = (since, timeout_ms) else {
                return Err(format!(
                    "multi={multi}: deferred despite a bad number: {req:?}"
                ));
            };
            if let Some(resp) = pending() {
                check_status(&resp, &[200])?;
                continue;
            }
            // Nothing newer than `since` yet.  A short timeout must end
            // it; otherwise the next frame must, if it is newer.
            if timeout_ms <= 2 {
                std::thread::sleep(Duration::from_millis(timeout_ms + 1));
            } else {
                self.publish();
                if since >= self.published {
                    if pending().is_some() {
                        return Err(format!("multi={multi}: answered a future cursor: {req:?}"));
                    }
                    continue;
                }
            }
            match pending() {
                Some(resp) => check_status(&resp, &[200])?,
                None => return Err(format!("multi={multi}: still deferred: {req:?}")),
            }
        }
        // Keep the steering inboxes from growing with the case count.
        self.inbox.drain_latest();
        for endpoints in self.registry.read().unwrap().values() {
            endpoints.inbox.drain_latest();
        }
        Ok(())
    }
}

fn run_case(rng: &mut StdRng, routers: &mut Routers) -> Result<(), String> {
    let requests: Vec<Valid> = (0..rng.gen_range(1..5u32))
        .map(|_| valid_request(rng, routers.published))
        .collect();

    // One valid request, whole: complete, exactly consumed, read right —
    // and incomplete at any earlier cut.
    let first = &requests[0];
    match HttpRequest::parse_buf(&first.bytes) {
        Parse::Complete(req, consumed) => {
            if consumed != first.bytes.len() {
                return Err(format!("consumed {consumed} of {}", first.bytes.len()));
            }
            if (req.method.as_str(), &req.path, &req.body)
                != (first.method, &first.path, &first.body)
            {
                return Err(format!("misread as {req:?}"));
            }
        }
        other => return Err(format!("valid request parsed as {other:?}")),
    }
    let len = first.bytes.len();
    let head_len = len - first.body.len();
    let cuts = [0, 1, head_len - 1, head_len.min(len - 1), len - 1]
        .into_iter()
        .chain((0..3).map(|_| rng.gen_range(0..len)));
    for cut in cuts {
        if !matches!(HttpRequest::parse_buf(&first.bytes[..cut]), Parse::Partial) {
            return Err(format!("prefix {cut} of {len} is not Partial"));
        }
    }

    // All of them back to back, arriving in arbitrary pieces: each comes
    // out once, in order, and nothing is left over.
    let wire: Vec<u8> = requests
        .iter()
        .flat_map(|r| r.bytes.iter().copied())
        .collect();
    let (mut buf, mut parsed) = (Vec::new(), Vec::new());
    let mut at = 0;
    while at < wire.len() {
        let step = rng.gen_range(1..(wire.len() - at).min(700) + 1);
        feed(&mut buf, &wire[at..at + step], &mut parsed)
            .map_err(|e| format!("pipelined valid requests, at byte {at}: {e}"))?;
        at += step;
    }
    if !buf.is_empty() || parsed.len() != requests.len() {
        return Err(format!(
            "{} requests in, {} out, {} bytes left",
            requests.len(),
            parsed.len(),
            buf.len()
        ));
    }
    for (sent, got) in requests.iter().zip(&parsed) {
        if (got.method.as_str(), &got.path, &got.body) != (sent.method, &sent.path, &sent.body) {
            return Err(format!("out of order or misread: {got:?}"));
        }
        routers.check(got)?;
    }

    // Now damage the stream.  The parser owes arbitrary bytes three
    // things: no panic, a consumed count inside the buffer, and no
    // unbounded wait for a header block that is already over the cap.
    let mut hostile = wire;
    mutate(rng, &mut hostile);
    let mut rest = &hostile[..];
    loop {
        match HttpRequest::parse_buf(rest) {
            Parse::Complete(req, consumed) => {
                if consumed == 0 || consumed > rest.len() {
                    return Err(format!("hostile: consumed {consumed} of {}", rest.len()));
                }
                routers.check(&req)?;
                rest = &rest[consumed..];
            }
            Parse::Partial => {
                if rest.len() > MAX_HEADER_BYTES + MAX_BODY_BYTES + 4 {
                    return Err(format!("hostile: still Partial at {} bytes", rest.len()));
                }
                let scan = &rest[..rest.len().min(MAX_HEADER_BYTES + 4)];
                let head_over = !scan.windows(2).any(|w| w == b"\n\n")
                    && !scan.windows(4).any(|w| w == b"\r\n\r\n");
                if head_over && rest.len() > MAX_HEADER_BYTES + 4 {
                    return Err("hostile: an endless header block is still Partial".into());
                }
                break;
            }
            Parse::Invalid => break,
        }
    }
    Ok(())
}

#[test]
fn the_request_path_survives_twenty_thousand_seeded_requests() {
    let mut routers = Routers::new();
    for seed in SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        for case in 0..CASES_PER_SEED {
            if let Err(what) = run_case(&mut rng, &mut routers) {
                panic!("seed {seed}, case {case}: {what}");
            }
        }
    }
}
