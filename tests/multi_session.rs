//! Wire-level multi-session isolation audit.
//!
//! N session hubs behind ONE HTTP server, with racing
//! publishers and pollers over real sockets.  Every session publishes
//! frames colour-stamped with its own id; every poller audits, per
//! received payload, that
//!
//! * no frame (or delta base) from another session ever leaks in — the
//!   `session` monitor tag, the session colour pixel and the hub epoch
//!   must all match the polled session,
//! * no sequence is lost and none is duplicated — full-mode pollers
//!   must see exactly `1..=FRAMES`, delta pollers a strictly increasing
//!   subsequence whose reconstruction lands on the final image,
//! * deltas apply only against the exact frame the client holds
//!   (`base_sequence == held`), and the reconstructed pixels equal the
//!   published ones byte-for-byte.

use ricsa_viz::image::Image;
use ricsa_webfront::http::read_blocking_response;
use ricsa_webfront::hub::{apply_delta, delta_from_json, image_from_json};
use ricsa_webfront::{Frame, FrontEndConfig, MultiFrontEnd};
use std::io::{BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Sessions served concurrently by the one server.
const SESSIONS: u64 = 3;
/// Frames each session's publisher emits.
const FRAMES: u64 = 30;
/// Image edge length (small: the payloads race, they don't need to be big).
const EDGE: usize = 16;

/// The session's solid colour — distinct per session so any cross-hub
/// leak is visible in a single pixel.
fn session_red(session: u64) -> u8 {
    (session * 40) as u8
}

/// The image published as frame `seq` of `session`: the session colour
/// everywhere, plus a per-frame marker pixel so consecutive frames differ
/// (deltas are non-empty) and a reconstructed image identifies its frame.
fn session_image(session: u64, seq: u64) -> Image {
    let mut img = Image::filled(EDGE, EDGE, [session_red(session), 0, 0, 255]);
    img.set(1, 1, [seq as u8, 255, 0, 255]);
    img
}

/// One persistent keep-alive connection speaking minimal HTTP/1.1.
struct Wire {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> Wire {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        Wire {
            reader: BufReader::new(stream.try_clone().unwrap()),
            writer: stream,
        }
    }

    /// GET `path` on this connection and parse the JSON body.
    fn get(&mut self, path: &str) -> serde_json::Value {
        self.writer
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: l\r\n\r\n").as_bytes())
            .expect("write request");
        let (status, _, body) = read_blocking_response(&mut self.reader).expect("read response");
        assert_eq!(status, 200, "GET {path} failed");
        serde_json::from_slice(&body).expect("json body")
    }
}

/// Audit one payload's session identity: monitor tag, epoch, and (when an
/// image is in hand) the session colour pixel.
fn audit_identity(session: u64, epoch: u64, value: &serde_json::Value, image: Option<&Image>) {
    let tags: Vec<(String, f64)> = serde_json::from_value(&value["monitors"]).expect("monitors");
    assert_eq!(
        tags.iter().find(|(k, _)| k == "session").map(|(_, v)| *v),
        Some(session as f64),
        "session {session}: payload carries another session's monitor tag: {value:?}"
    );
    assert_eq!(
        value["epoch"].as_u64(),
        Some(epoch),
        "session {session}: epoch changed mid-stream (foreign hub?)"
    );
    if let Some(img) = image {
        assert_eq!(
            img.get(0, 0)[0],
            session_red(session),
            "session {session}: image pixel carries another session's colour"
        );
        let seq = value["sequence"].as_u64().unwrap();
        assert_eq!(
            img.get(1, 1)[0],
            seq as u8,
            "session {session}: image marker does not match sequence {seq}"
        );
    }
}

/// Explicit-`since` full-mode poller: carries `since = last received`.
/// Must receive exactly `1..=FRAMES`, in order, with no gap and no
/// duplicate.
fn run_full_poller(addr: SocketAddr, session: u64, done: Arc<AtomicBool>) {
    let mut wire = Wire::connect(addr);
    let state = wire.get(&format!("/s/{session}/api/state"));
    let epoch = state["epoch"].as_u64().expect("epoch");
    let mut received: Vec<u64> = Vec::new();
    let mut idle_after_done = 0;
    while received.last() != Some(&FRAMES) {
        let since = received.last().copied().unwrap_or(0);
        let value = wire.get(&format!(
            "/s/{session}/api/poll?since={since}&timeout_ms=400"
        ));
        match value["sequence"].as_u64() {
            Some(seq) => {
                let raw = image_from_json(&value).expect("full payload image");
                let img = Image::decode_raw(&raw).expect("RICSAIMG");
                audit_identity(session, epoch, &value, Some(&img));
                received.push(seq);
            }
            None => {
                audit_identity(session, epoch, &value, None);
                if done.load(Ordering::Relaxed) {
                    idle_after_done += 1;
                    assert!(
                        idle_after_done < 10,
                        "session {session}: publisher finished but poller stuck at \
                         {received:?} — lost frame(s)"
                    );
                }
            }
        }
    }
    let expect: Vec<u64> = (1..=FRAMES).collect();
    assert_eq!(
        received, expect,
        "session {session}: full-mode poller must see every sequence exactly once"
    );
}

/// Explicit-`since` delta-mode poller: reconstructs the stream from tile
/// deltas, asserting every delta's base is exactly the frame it holds.
fn run_delta_poller(addr: SocketAddr, session: u64, done: Arc<AtomicBool>) {
    let mut wire = Wire::connect(addr);
    let state = wire.get(&format!("/s/{session}/api/state"));
    let epoch = state["epoch"].as_u64().expect("epoch");
    let mut held: Option<(u64, Image)> = None;
    let mut idle_after_done = 0;
    while held.as_ref().map(|(seq, _)| *seq) != Some(FRAMES) {
        let since = held.as_ref().map(|(seq, _)| *seq).unwrap_or(0);
        let value = wire.get(&format!(
            "/s/{session}/api/poll?mode=delta&since={since}&timeout_ms=400"
        ));
        let Some(seq) = value["sequence"].as_u64() else {
            audit_identity(session, epoch, &value, None);
            if done.load(Ordering::Relaxed) {
                idle_after_done += 1;
                assert!(
                    idle_after_done < 10,
                    "session {session}: delta poller stuck at {since} — lost tail"
                );
            }
            continue;
        };
        assert!(
            seq > since,
            "session {session}: sequence went backwards ({since} -> {seq})"
        );
        let img = if value["mode"].as_str() == Some("delta") {
            let (base, delta) = delta_from_json(&value).expect("delta payload");
            let (held_seq, held_img) = held.as_ref().expect("delta before any frame held");
            assert_eq!(
                base, *held_seq,
                "session {session}: delta base {base} is not the held frame {held_seq} — \
                 applying it would corrupt pixels"
            );
            apply_delta(held_img, &delta)
        } else {
            let raw = image_from_json(&value).expect("full payload image");
            Image::decode_raw(&raw).expect("RICSAIMG")
        };
        audit_identity(session, epoch, &value, Some(&img));
        // The reconstruction must be byte-identical to what was published.
        assert_eq!(
            img.pixels,
            session_image(session, seq).pixels,
            "session {session}: reconstructed frame {seq} differs from the published one"
        );
        held = Some((seq, img));
    }
}

#[test]
fn racing_sessions_never_leak_frames_or_drop_sequences() {
    let config = FrontEndConfig {
        hub_capacity: 64,
        ..FrontEndConfig::default()
    };
    let front = MultiFrontEnd::start_with("127.0.0.1:0", config).expect("start server");
    let addr = front.addr();
    for session in 1..=SESSIONS {
        front.add_session(session);
    }
    let done = Arc::new(AtomicBool::new(false));

    // Pollers first: they race the publishers from frame 1.
    let mut pollers = Vec::new();
    for session in 1..=SESSIONS {
        for _ in 0..2 {
            let d = done.clone();
            pollers.push(std::thread::spawn(move || {
                run_full_poller(addr, session, d)
            }));
        }
        let d = done.clone();
        pollers.push(std::thread::spawn(move || {
            run_delta_poller(addr, session, d)
        }));
    }

    // One publisher thread per session, racing each other and the pollers.
    let publishers: Vec<_> = (1..=SESSIONS)
        .map(|session| {
            let endpoints = front.session(session).expect("registered");
            std::thread::spawn(move || {
                for seq in 1..=FRAMES {
                    let assigned = endpoints.hub.publish(Frame {
                        sequence: 0,
                        cycle: seq,
                        time: seq as f64 * 0.1,
                        image: session_image(session, seq).encode_raw(),
                        monitors: vec![("session".into(), session as f64)],
                    });
                    assert_eq!(assigned, seq, "single publisher owns the sequence space");
                    // Throttle so pollers keep up and nothing falls off the
                    // retention ring: lost-vs-dropped must stay unambiguous.
                    std::thread::sleep(Duration::from_millis(3));
                }
            })
        })
        .collect();

    for publisher in publishers {
        publisher.join().expect("publisher thread");
    }
    done.store(true, Ordering::Relaxed);
    for poller in pollers {
        poller.join().expect("poller audit failed");
    }

    // Retirement is immediate: the routes disappear while others live on.
    assert!(front.retire_session(1));
    let mut wire = Wire::connect(addr);
    wire.writer
        .write_all(b"GET /s/1/api/state HTTP/1.1\r\nHost: l\r\n\r\n")
        .unwrap();
    let (status, _, _) = read_blocking_response(&mut wire.reader).unwrap();
    assert_eq!(status, 404, "retired session must vanish from the wire");
    let listing = Wire::connect(addr).get("/api/sessions");
    let ids: Vec<u64> = serde_json::from_value(&listing["sessions"]).unwrap();
    assert_eq!(ids, vec![2, 3], "listing tracks retirement");
    front.shutdown();
}
