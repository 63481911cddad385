//! A transient `accept` failure must not stop the server accepting.
//!
//! This test exhausts the process's file descriptors, so it lives alone in
//! its own test binary: the server's `accept` fails with `EMFILE` while a
//! client waits in the listen backlog, and once descriptors are free again
//! that client must still be accepted and served.

use ricsa_webfront::http::read_blocking_response;
use ricsa_webfront::{HttpResponse, HttpServer};
use std::fs::File;
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn accept_survives_fd_exhaustion() {
    let server = HttpServer::start("127.0.0.1:0", |_| {
        HttpResponse::ok("text/plain", "still here").into()
    })
    .expect("start server");

    // Hoard descriptors until the process has none left, then free exactly
    // one for the client's own socket.
    let mut hoard = Vec::new();
    while let Ok(file) = File::open("/dev/null") {
        hoard.push(file);
    }
    hoard.pop().expect("at least one descriptor was available");
    let mut client = TcpStream::connect(server.addr()).expect("connect with the freed descriptor");

    // The kernel completed the handshake, but no event loop can allocate a
    // descriptor for the connection: give them time to fail a few times.
    std::thread::sleep(Duration::from_millis(50));
    drop(hoard);

    client
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    // Loops that gave up on the listener leave the backlogged client
    // without a response here.
    const OUTLIVE: &str = "accepting must outlive a transient accept error";
    client
        .write_all(b"GET /after HTTP/1.1\r\nHost: l\r\n\r\n")
        .expect(OUTLIVE);
    let (status, _, body) = read_blocking_response(&mut BufReader::new(client)).expect(OUTLIVE);
    assert_eq!(status, 200);
    assert_eq!(body, b"still here");
    server.shutdown();
}
