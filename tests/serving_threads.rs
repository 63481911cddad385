//! An `HttpServer` with `workers: W` is exactly `W` threads.
//!
//! Each thread is one event loop that accepts, serves and closes its own
//! connections; there is no acceptor, no reactor and no helper spawned
//! under load.  The test counts the process's threads in
//! `/proc/self/task`, so it lives alone in its own test binary where
//! nothing else starts or stops one.

use ricsa_webfront::http::{read_blocking_response, HttpServerConfig};
use ricsa_webfront::{HttpResponse, HttpServer, Outcome};
use std::io::{BufReader, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("Linux lists a process's threads under /proc/self/task")
        .count()
}

#[test]
fn a_server_runs_exactly_its_workers_and_shutdown_joins_them_all() {
    let before = threads();
    for workers in [1, 3, 8] {
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let config = HttpServerConfig {
            workers,
            ..HttpServerConfig::default()
        };
        let server = HttpServer::start_with("127.0.0.1:0", config, move |req| {
            if req.path != "/wait" {
                return HttpResponse::ok("text/plain", "now").into();
            }
            let released = released2.clone();
            Outcome::Pending(Box::new(move || {
                released
                    .load(Ordering::Relaxed)
                    .then(|| HttpResponse::ok("text/plain", "later"))
            }))
        })
        .expect("start server");
        assert_eq!(threads(), before + workers, "{workers} workers at start");

        // Serving spawns nothing: plain requests, a waiting long-poll and
        // the doorbell that resolves it all run on the same threads.
        let mut clients: Vec<_> = (0..2 * workers)
            .map(|_| {
                let stream = TcpStream::connect(server.addr()).expect("connect");
                stream
                    .set_read_timeout(Some(Duration::from_secs(10)))
                    .unwrap();
                (BufReader::new(stream.try_clone().unwrap()), stream)
            })
            .collect();
        for (reader, writer) in &mut clients {
            writer.write_all(b"GET /now HTTP/1.1\r\n\r\n").unwrap();
            let (status, _, body) = read_blocking_response(reader).expect("a response");
            assert_eq!((status, body.as_slice()), (200, &b"now"[..]));
            writer.write_all(b"GET /wait HTTP/1.1\r\n\r\n").unwrap();
        }
        assert_eq!(threads(), before + workers, "{workers} workers under load");
        released.store(true, Ordering::Relaxed);
        server.waker().ring();
        for (reader, _) in &mut clients {
            let (status, _, body) = read_blocking_response(reader).expect("the long-poll");
            assert_eq!((status, body.as_slice()), (200, &b"later"[..]));
        }
        assert_eq!(
            threads(),
            before + workers,
            "{workers} workers after the ring"
        );

        server.shutdown();
        // `join` returns when the kernel clears the thread's tid, a moment
        // before the exiting task leaves /proc.
        let deadline = Instant::now() + Duration::from_secs(5);
        while threads() != before && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(threads(), before, "shutdown joins all {workers}");
    }
}
