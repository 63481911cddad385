//! The front-end server: HTTP routes wired to the session hub.
//!
//! Routes (all consumed by the embedded page, `curl`, or any browser):
//!
//! * `GET /` — the Ajax page,
//! * `GET /api/state` — current frame sequence, cycle and monitors as JSON,
//! * `GET /api/poll?since=N&timeout_ms=T&mode=full|delta` — long-poll for
//!   the next frame newer than `N` (the `XMLHttpRequest` object-exchange
//!   of the paper).  `mode=delta` ships only the changed image tiles when
//!   the client is within the delta chain of the head.  The poll is
//!   stateless: `since` is the only cursor, the server remembers nothing
//!   about a client between polls, and a client that advances `since`
//!   only after decoding a response re-requests a lost one by
//!   construction.  `since` and `timeout_ms` default to `0` / `15000`
//!   when absent and answer `400` when present but not a `u64`.  The long
//!   poll never blocks a server thread: the route returns a deferred
//!   [`Outcome::Pending`] the connection's event loop re-polls,
//! * `GET /api/frame` — the latest frame immediately (or 404),
//! * `GET /api/stats` — server-side backpressure metrics (connections woken
//!   and not yet visited, wake-to-visit wait, per-visit service time,
//!   connections waiting in epoll),
//!   so overload is observable *before* the 503 connection limit trips,
//! * `POST /api/steer` — submit steering parameters as JSON.
//!
//! Poll responses come straight from the hub's encode-once cache as shared
//! `Arc<str>` payloads — the first poll that wants a payload encodes it,
//! inside `try_payload`, and the route layer never re-encodes a frame.

use crate::http::{HttpRequest, HttpResponse, HttpServer, HttpServerConfig, Outcome, PoolMetrics};
use crate::hub::{PollMode, SessionHub, SteeringInbox};
use crate::page::INDEX_HTML;
use ricsa_hydro::steering::SteerableParams;
use std::net::SocketAddr;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sizing knobs for the whole front end: the HTTP pool plus the hub.
#[derive(Debug, Clone)]
pub struct FrontEndConfig {
    /// HTTP pool configuration (workers, connection limit, keep-alive).
    pub http: HttpServerConfig,
    /// Frames retained by the hub for laggard pollers.
    pub hub_capacity: usize,
}

impl Default for FrontEndConfig {
    fn default() -> Self {
        FrontEndConfig {
            http: HttpServerConfig::default(),
            hub_capacity: 32,
        }
    }
}

/// The running Ajax front-end server.
pub struct FrontEndServer {
    http: HttpServer,
    hub: SessionHub,
    inbox: SteeringInbox,
}

impl FrontEndServer {
    /// Start the front end on `addr` (e.g. `"127.0.0.1:0"` for an ephemeral
    /// port) with the default [`FrontEndConfig`].  The returned hub/inbox
    /// handles are shared with the visualization and simulation sides.
    pub fn start(addr: &str) -> std::io::Result<FrontEndServer> {
        FrontEndServer::start_with(addr, FrontEndConfig::default())
    }

    /// Start the front end with explicit pool/hub sizing.
    pub fn start_with(addr: &str, config: FrontEndConfig) -> std::io::Result<FrontEndServer> {
        let hub = SessionHub::new(config.hub_capacity);
        let inbox = SteeringInbox::new();
        // The metrics object outlives the closure/server split: the route
        // handler reads from it, the pool writes into it.
        let metrics = Arc::new(PoolMetrics::default());
        let route_hub = hub.clone();
        let route_inbox = inbox.clone();
        let route_metrics = metrics.clone();
        let http = HttpServer::start_with_metrics(addr, config.http, metrics, move |req| {
            route(&route_hub, &route_inbox, &route_metrics, req)
        })?;
        // Ring the doorbell on every publish so waiting long-polls wake
        // the moment their frame exists.  The hub runs hooks only after the
        // new frame is readable, so a woken event loop always finds it.
        let waker = http.waker();
        hub.add_wake_hook(move || waker.ring());
        Ok(FrontEndServer { http, hub, inbox })
    }

    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.http.addr()
    }

    /// The frame hub the visualization side publishes into.
    pub fn hub(&self) -> SessionHub {
        self.hub.clone()
    }

    /// The steering inbox the simulation side drains.
    pub fn inbox(&self) -> SteeringInbox {
        self.inbox.clone()
    }

    /// Connections currently open.
    pub fn active_connections(&self) -> usize {
        self.http.active_connections()
    }

    /// Total HTTP requests served since start.
    pub fn requests_served(&self) -> u64 {
        self.http.requests_served()
    }

    /// The pool's live backpressure metrics (what `/api/stats` serves).
    pub fn metrics(&self) -> Arc<PoolMetrics> {
        self.http.metrics()
    }

    /// Shut the server down gracefully (see [`HttpServer::shutdown`]).
    pub fn shutdown(self) {
        self.http.shutdown();
    }
}

/// A query parameter that must be a `u64` when present (`default` when
/// absent); `Err` carries the `400` to answer with.
fn u64_param(req: &HttpRequest, name: &str, default: u64) -> Result<u64, HttpResponse> {
    match req.query_param(name) {
        None => Ok(default),
        Some(raw) => raw.parse().map_err(|_| {
            HttpResponse::bad_request(&format!("{name} must be an unsigned integer, got {raw:?}"))
        }),
    }
}

/// Route a request (exposed for tests).
pub fn route(
    hub: &SessionHub,
    inbox: &SteeringInbox,
    metrics: &PoolMetrics,
    req: HttpRequest,
) -> Outcome {
    match (req.method.as_str(), req.path.as_str()) {
        ("GET", "/") | ("GET", "/index.html") => HttpResponse::ok("text/html", INDEX_HTML).into(),
        ("GET", "/api/state") => {
            let latest = hub.latest_frame();
            HttpResponse::json(&serde_json::json!({
                "latest_sequence": hub.latest_sequence(),
                "cycle": latest.as_ref().map(|f| f.cycle),
                "time": latest.as_ref().map(|f| f.time),
                "monitors": latest.as_ref().map(|f| f.monitors.clone()).unwrap_or_default(),
                "pending_steering": inbox.len(),
                "epoch": hub.epoch(),
            }))
            .into()
        }
        ("GET", "/api/frame") => match hub.latest_payload() {
            Some(payload) => HttpResponse::json_shared(payload.json).into(),
            None => HttpResponse::not_found().into(),
        },
        ("GET", "/api/stats") => {
            let snapshot = metrics.snapshot();
            let mut value = serde_json::to_value(&snapshot);
            if let serde_json::Value::Object(map) = &mut value {
                // Hub-side load next to the pool-side backpressure, so one
                // request paints the whole serving picture.
                map.insert(
                    "latest_sequence".into(),
                    serde_json::json!(hub.latest_sequence()),
                );
                map.insert("encode_count".into(), serde_json::json!(hub.encode_count()));
                map.insert("pending_steering".into(), serde_json::json!(inbox.len()));
            }
            HttpResponse::json(&value).into()
        }
        ("GET", "/api/poll") => {
            let mode = match req.query_param("mode") {
                Some("delta") => PollMode::Delta,
                _ => PollMode::Full,
            };
            let (since, timeout_ms) = match (
                u64_param(&req, "since", 0),
                u64_param(&req, "timeout_ms", 15_000),
            ) {
                (Ok(since), Ok(timeout_ms)) => (since, timeout_ms.min(60_000)),
                (Err(bad), _) | (_, Err(bad)) => return bad.into(),
            };
            let deadline = Instant::now() + Duration::from_millis(timeout_ms);
            let hub = hub.clone();
            // Deferred response: the event loop re-polls this closure until
            // a frame arrives or the deadline passes.  No thread blocks.
            Outcome::Pending(Box::new(move || {
                if let Some(payload) = hub.try_payload(since, mode) {
                    return Some(HttpResponse::json_shared(payload.json));
                }
                if Instant::now() >= deadline {
                    // The timeout response carries the epoch too: a client
                    // whose stale `since` exceeds this incarnation's
                    // counter would otherwise only see nulls and could
                    // never detect the restart.
                    return Some(HttpResponse::json(&serde_json::json!({
                        "sequence": null,
                        "epoch": hub.epoch(),
                    })));
                }
                None
            }))
        }
        ("POST", "/api/steer") => match serde_json::from_slice::<SteerableParams>(&req.body) {
            Ok(params) => {
                inbox.post(params.sanitized());
                HttpResponse::json(&serde_json::json!({ "accepted": true })).into()
            }
            Err(e) => {
                HttpResponse::bad_request(&format!("invalid steering parameters: {e}")).into()
            }
        },
        _ => HttpResponse::not_found().into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hub::Frame;
    use std::collections::HashMap;

    fn get(path: &str, query: &[(&str, &str)]) -> HttpRequest {
        HttpRequest {
            method: "GET".into(),
            path: path.into(),
            version: "HTTP/1.1".into(),
            query: query
                .iter()
                .map(|(k, v)| (k.to_string(), v.to_string()))
                .collect(),
            headers: HashMap::new(),
            body: vec![],
        }
    }

    fn resolve(outcome: Outcome) -> HttpResponse {
        match outcome {
            Outcome::Ready(resp) => resp,
            Outcome::Pending(mut pending) => loop {
                if let Some(resp) = pending() {
                    break resp;
                }
                std::thread::sleep(Duration::from_millis(1));
            },
        }
    }

    fn sample_frame() -> Frame {
        Frame {
            sequence: 0,
            cycle: 4,
            time: 0.25,
            image: {
                let img = ricsa_viz::image::Image::filled(2, 2, [10, 20, 30, 255]);
                img.encode_raw()
            },
            monitors: vec![("max_pressure".into(), 2.5)],
        }
    }

    #[test]
    fn index_and_unknown_routes() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let index = resolve(route(&hub, &inbox, &metrics, get("/", &[])));
        assert_eq!(index.status, 200);
        assert!(String::from_utf8_lossy(index.body.as_bytes()).contains("XMLHttpRequest"));
        assert_eq!(
            resolve(route(&hub, &inbox, &metrics, get("/nope", &[]))).status,
            404
        );
    }

    #[test]
    fn state_and_frame_routes_reflect_published_frames() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        assert_eq!(
            resolve(route(&hub, &inbox, &metrics, get("/api/frame", &[]))).status,
            404
        );
        hub.publish(sample_frame());
        let state = resolve(route(&hub, &inbox, &metrics, get("/api/state", &[])));
        let value: serde_json::Value = serde_json::from_slice(state.body.as_bytes()).unwrap();
        assert_eq!(value["latest_sequence"], 1);
        assert_eq!(value["cycle"], 4);
        let frame = resolve(route(&hub, &inbox, &metrics, get("/api/frame", &[])));
        let value: serde_json::Value = serde_json::from_slice(frame.body.as_bytes()).unwrap();
        assert_eq!(value["sequence"], 1);
        // Codec-aware decode recovers the raw RICSAIMG container bytes.
        let image = crate::hub::image_from_json(&value).unwrap();
        assert!(image.starts_with(b"RICSAIMG"));
    }

    #[test]
    fn poll_route_returns_new_frames_and_null_on_timeout() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        hub.publish(sample_frame());
        let poll = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get("/api/poll", &[("since", "0"), ("timeout_ms", "10")]),
        ));
        let value: serde_json::Value = serde_json::from_slice(poll.body.as_bytes()).unwrap();
        assert_eq!(value["sequence"], 1);
        assert_eq!(value["mode"], "full");
        let empty = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get("/api/poll", &[("since", "1"), ("timeout_ms", "10")]),
        ));
        let value: serde_json::Value = serde_json::from_slice(empty.body.as_bytes()).unwrap();
        assert!(value["sequence"].is_null());
    }

    #[test]
    fn poll_route_serves_deltas_in_delta_mode() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let mut img = ricsa_viz::image::Image::filled(64, 64, [10, 20, 30, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..sample_frame()
        });
        img.set(3, 3, [0, 0, 0, 0]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..sample_frame()
        });
        let poll = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get(
                "/api/poll",
                &[("since", "1"), ("timeout_ms", "10"), ("mode", "delta")],
            ),
        ));
        let value: serde_json::Value = serde_json::from_slice(poll.body.as_bytes()).unwrap();
        assert_eq!(value["mode"], "delta");
        assert_eq!(value["base_sequence"], 1);
        assert_eq!(value["sequence"], 2);
    }

    #[test]
    fn poll_route_rejects_unparsable_since_and_timeout() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        hub.publish(sample_frame());
        // Present but not a u64: an error, never a silent 0 / default that
        // would replay the retained backlog.
        for query in [
            [("since", "abc"), ("timeout_ms", "10")],
            [("since", "-1"), ("timeout_ms", "10")],
            [("since", ""), ("timeout_ms", "10")],
            [("since", "0"), ("timeout_ms", "soon")],
        ] {
            let resp = resolve(route(&hub, &inbox, &metrics, get("/api/poll", &query)));
            assert_eq!(resp.status, 400, "{query:?}");
        }
        // A timeout above the cap is clamped, not rejected.
        let capped = resolve(route(
            &hub,
            &inbox,
            &metrics,
            get("/api/poll", &[("since", "0"), ("timeout_ms", "999999999")]),
        ));
        assert_eq!(capped.status, 200);
    }

    /// What the stateless protocol means for a client that omits `since`:
    /// it is served from 0 on every poll — nothing is remembered for it,
    /// whatever other parameters it sends.
    #[test]
    fn poll_without_since_is_served_from_zero_every_time() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        hub.publish(sample_frame());
        hub.publish(sample_frame());
        for query in [[("timeout_ms", "10")], [("client", "1")], [("client", "1")]] {
            let poll = resolve(route(&hub, &inbox, &metrics, get("/api/poll", &query)));
            let value: serde_json::Value = serde_json::from_slice(poll.body.as_bytes()).unwrap();
            assert_eq!(value["sequence"], 1, "{query:?}");
        }
    }

    /// The page's start-up call: `/api/state` carries the live head and the
    /// epoch, and there is no client registry to report.
    #[test]
    fn state_route_carries_head_and_epoch_and_no_client_registry() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        hub.publish(sample_frame());
        let state = resolve(route(&hub, &inbox, &metrics, get("/api/state", &[])));
        let value: serde_json::Value = serde_json::from_slice(state.body.as_bytes()).unwrap();
        assert_eq!(value["latest_sequence"], 1);
        assert_eq!(value["epoch"].as_u64(), Some(hub.epoch()));
        assert!(value.get("clients").is_none());
        let stats = resolve(route(&hub, &inbox, &metrics, get("/api/stats", &[])));
        let value: serde_json::Value = serde_json::from_slice(stats.body.as_bytes()).unwrap();
        assert!(value.get("clients").is_none());
    }

    /// Re-delivery needs no server state: a poll response that dies with
    /// its socket is simply requested again, because the client's `since`
    /// only advances once a frame has been decoded.
    #[test]
    fn killed_socket_mid_response_forces_redelivery() {
        use crate::http::read_blocking_response;
        use std::io::{BufReader, Write};
        let server = FrontEndServer::start("127.0.0.1:0").unwrap();
        let hub = server.hub();
        hub.publish(sample_frame());
        // The doomed connection: send the poll, kill the socket without
        // ever reading the response.
        let mut doomed = std::net::TcpStream::connect(server.addr()).unwrap();
        doomed
            .write_all(b"GET /api/poll?since=0&timeout_ms=2000 HTTP/1.1\r\nHost: l\r\n\r\n")
            .unwrap();
        // The request is counted when it is dispatched, and frame 1 already
        // exists, so the response is computed in that same visit.
        let deadline = Instant::now() + Duration::from_secs(5);
        while server.requests_served() < 1 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(server.requests_served(), 1);
        drop(doomed);
        // A fresh connection repeats the poll from the same `since`.
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        let mut poll = |since: u64| {
            writer
                .write_all(
                    format!(
                        "GET /api/poll?since={since}&timeout_ms=50 HTTP/1.1\r\nHost: l\r\n\r\n"
                    )
                    .as_bytes(),
                )
                .unwrap();
            let (status, _, body) = read_blocking_response(&mut reader).unwrap();
            assert_eq!(status, 200);
            serde_json::from_slice::<serde_json::Value>(&body).unwrap()
        };
        let again = poll(0);
        assert_eq!(
            again["sequence"],
            serde_json::json!(1),
            "frame whose response died with the socket must be re-delivered, got {again:?}"
        );
        // Having decoded frame 1 the client moves on; nothing newer exists.
        let empty = poll(1);
        assert!(empty["sequence"].is_null(), "got {empty:?}");
        assert_eq!(empty["epoch"].as_u64(), Some(hub.epoch()));
        server.shutdown();
    }

    #[test]
    fn steering_route_sanitizes_and_queues_parameters() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        let body = serde_json::json!({
            "gamma": 1.4, "cfl": 7.0, "drive_strength": 1.0,
            "inflow_velocity": 2.0, "end_cycle": 100
        });
        let req = HttpRequest {
            method: "POST".into(),
            path: "/api/steer".into(),
            version: "HTTP/1.1".into(),
            query: HashMap::new(),
            headers: HashMap::new(),
            body: body.to_string().into_bytes(),
        };
        let resp = resolve(route(&hub, &inbox, &metrics, req));
        assert_eq!(resp.status, 200);
        let queued = inbox.drain_latest().unwrap();
        assert!(
            queued.cfl <= 0.9,
            "cfl must be sanitized, got {}",
            queued.cfl
        );
        // Malformed body.
        let bad = HttpRequest {
            method: "POST".into(),
            path: "/api/steer".into(),
            version: "HTTP/1.1".into(),
            query: HashMap::new(),
            headers: HashMap::new(),
            body: b"not json".to_vec(),
        };
        assert_eq!(resolve(route(&hub, &inbox, &metrics, bad)).status, 400);
    }

    #[test]
    fn stats_route_reports_pool_and_hub_metrics() {
        let hub = SessionHub::default();
        let inbox = SteeringInbox::new();
        let metrics = PoolMetrics::default();
        hub.publish(sample_frame());
        // One client fetches the frame: the encode the stats will count.
        let frame = resolve(route(&hub, &inbox, &metrics, get("/api/frame", &[])));
        assert_eq!(frame.status, 200);
        let stats = resolve(route(&hub, &inbox, &metrics, get("/api/stats", &[])));
        assert_eq!(stats.status, 200);
        let value: serde_json::Value = serde_json::from_slice(stats.body.as_bytes()).unwrap();
        // Pool-side gauges exist (zero on a fresh metrics object)...
        assert_eq!(value["queue_depth"], 0);
        assert_eq!(value["pending_responses"], 0);
        assert_eq!(value["requests_served"], 0);
        assert!(value["mean_rotation_us"].as_f64().is_some());
        assert!(value["mean_visit_us"].as_f64().is_some());
        // ...next to the hub-side load picture.
        assert_eq!(value["latest_sequence"], 1);
        assert_eq!(value["encode_count"], 1);
        assert_eq!(value["pending_steering"], 0);
    }

    #[test]
    fn live_server_stats_reflect_real_traffic() {
        use crate::http::read_blocking_response;
        use std::io::{BufReader, Write};
        let server = FrontEndServer::start("127.0.0.1:0").unwrap();
        server.hub().publish(sample_frame());
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        writer
            .write_all(b"GET /api/frame HTTP/1.1\r\nHost: l\r\n\r\n")
            .unwrap();
        let _ = read_blocking_response(&mut reader).unwrap();
        writer
            .write_all(b"GET /api/stats HTTP/1.1\r\nHost: l\r\n\r\n")
            .unwrap();
        let (status, _, body) = read_blocking_response(&mut reader).unwrap();
        assert_eq!(status, 200);
        let value: serde_json::Value = serde_json::from_slice(&body).unwrap();
        // This connection itself is active, visits happened, and both
        // requests (the frame fetch and this one) are counted by the time
        // the handler ran.
        assert!(value["active_connections"].as_u64().unwrap() >= 1);
        assert!(value["visits"].as_u64().unwrap() >= 1);
        assert!(value["requests_served"].as_u64().unwrap() >= 2);
        // The snapshot round-trips through the typed struct too.
        let snap: crate::http::PoolMetricsSnapshot = serde_json::from_slice(&body).unwrap();
        assert!(snap.visits >= 1);
        server.shutdown();
    }

    #[test]
    fn full_server_round_trip_with_keep_alive() {
        use crate::http::read_blocking_response;
        use std::io::{BufReader, Write};
        let server = FrontEndServer::start("127.0.0.1:0").unwrap();
        server.hub().publish(sample_frame());
        let stream = std::net::TcpStream::connect(server.addr()).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        let mut writer = stream;
        // Two requests over one keep-alive connection.
        for _ in 0..2 {
            writer
                .write_all(b"GET /api/state HTTP/1.1\r\nHost: localhost\r\n\r\n")
                .unwrap();
            let (status, _, body) = read_blocking_response(&mut reader).unwrap();
            assert_eq!(status, 200);
            assert!(String::from_utf8_lossy(&body).contains("latest_sequence"));
        }
        assert_eq!(server.requests_served(), 2);
        server.shutdown();
    }
}
