//! The event loop: one thread, one epoll set, and the connections that
//! thread accepted.  Every thread of the server runs the same one.
//!
//! * An `EventLoop` waits on one epoll instance (via the `epoll` shim)
//!   that holds the shared listening socket, the loop's own doorbell and
//!   every connection the loop accepted.  A connection stays with its loop
//!   from `accept` to close; nothing hands it to another thread.
//! * The listener is armed in one loop's set at a time: the loop that
//!   accepts arms it in the next, so connections are dealt round-robin and
//!   where one lands does not depend on how threads race.
//! * The loop sleeps in `epoll_wait` until a socket is ready, its doorbell
//!   rings, or its earliest deadline passes; it then visits
//!   (`crate::http::service`) the connections that woke.  A visit that
//!   made progress puts the connection at the back of the loop's ready
//!   list, so one busy connection cannot starve its neighbours; a visit
//!   that made none re-arms the socket and leaves the wait to the kernel,
//!   so serving costs grow with activity, not with open connections.
//! * A [`Waker`] holds every loop's `eventfd` doorbell; the hub rings it
//!   on publish.
//!
//! **A publish cannot be missed.**  The hub stores a frame, then rings.
//! The doorbell is level-triggered: once rung it stays readable until its
//! own loop drains it.  The loop drains it only on its way to re-polling
//! every deferred response it holds, and it is the same thread that then
//! goes back to sleep.  So a publish that lands before a poll is seen by
//! that poll, and one that lands after it leaves the doorbell readable and
//! `epoll_wait` returns at once — there is no moment in between for
//! another thread to own.
//!
//! epoll is Linux-only; elsewhere `EventLoop::team` — and with it every
//! `start*` of the serving layer — returns `ErrorKind::Unsupported`.

use crate::http::{refuse, service, Conn, Shared};
use epoll::{EventFd, Interest, Poller};
use std::collections::{BTreeSet, HashMap, VecDeque};
use std::io::ErrorKind;
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A publish doorbell: ringing it wakes every event loop so each re-checks
/// the deferred responses it holds.  Cheap (`Clone` is an `Arc` clone,
/// [`Waker::ring`] is one `write(2)` per loop on an eventfd), safe to ring
/// from any thread, and rings coalesce while a loop is busy.
#[derive(Debug, Clone)]
pub struct Waker {
    /// One doorbell per event loop, indexed like the loops.
    bells: Arc<[EventFd]>,
}

impl Waker {
    /// Ring the doorbell.  Never blocks.
    pub fn ring(&self) {
        for bell in self.bells.iter() {
            bell.ring();
        }
    }
}

/// Registration key of a loop's own doorbell.
const BELL_KEY: u64 = u64::MAX;

/// Registration key of the shared listening socket.
const LISTENER_KEY: u64 = u64::MAX - 1;

/// Deadline of a connection holding a deferred (long-poll) response: even
/// with no publish and no socket activity, the pending closure is
/// re-polled at least this often, which bounds how late its own timeout
/// response can be.  Deliberately coarse: a waiting long-poll costs ~20
/// closure polls per second, and a publish still wakes it in microseconds
/// via the [`Waker`].
pub(crate) const PENDING_RECHECK: Duration = Duration::from_millis(50);

/// Slack added to the keep-alive deadline of idle connections, so the
/// visit that closes them sees the timeout as unambiguously expired.
const IDLE_DEADLINE_SLACK: Duration = Duration::from_millis(20);

/// How long a loop leaves the listener alone after `accept` failed for a
/// reason other than an empty backlog (`EMFILE` while descriptors are
/// exhausted, `ECONNABORTED`): the backlog stays readable, so retrying at
/// once would spin.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(2);

/// The descriptor of a std socket, for the epoll calls.
#[cfg(unix)]
fn raw_fd(socket: &impl std::os::fd::AsRawFd) -> epoll::RawFd {
    socket.as_raw_fd()
}

/// Off Unix there are no descriptors — and no `Poller` to hand one to.
#[cfg(not(unix))]
fn raw_fd<S>(_socket: &S) -> epoll::RawFd {
    -1
}

/// One serving thread's state.  Built on the thread that starts the
/// server, then moved into its own thread before it accepts anything.
pub(crate) struct EventLoop {
    /// Every loop's epoll set.  This loop waits on `pollers[index]`; the
    /// next one's it touches only to arm the listener there.
    pollers: Arc<[Poller]>,
    /// This loop's doorbell is `waker.bells[index]`.
    waker: Waker,
    index: usize,
    listener: Arc<TcpListener>,
    shared: Arc<Shared>,
    /// Every connection this loop accepted and has not closed, by epoll
    /// registration key.  Keys are never reused, so a stale event finds
    /// nothing.
    conns: HashMap<u64, Conn>,
    next_key: u64,
    /// `(Conn::deadline, key)` of every waiting connection: exactly one
    /// entry each, removed when the connection wakes, so the set never
    /// holds more than the loop has connections — plus one under
    /// `LISTENER_KEY` while the listener is disarmed after a failed `accept`.
    deadlines: BTreeSet<(Instant, u64)>,
    /// Connections woken and not yet visited, with the time they woke.
    ready: VecDeque<(u64, Instant)>,
}

impl EventLoop {
    /// The `config.workers` loops of one server and the doorbell that
    /// wakes them (`ErrorKind::Unsupported` where there is no epoll).  Each
    /// epoll set starts out holding its loop's doorbell (level-triggered)
    /// and the listener, armed in loop 0.
    pub(crate) fn team(
        listener: TcpListener,
        shared: &Arc<Shared>,
    ) -> std::io::Result<(Waker, Vec<EventLoop>)> {
        let workers = shared.config.workers.max(1);
        let bells = (0..workers).map(|_| EventFd::new());
        let bells: Arc<[EventFd]> = bells.collect::<std::io::Result<_>>()?;
        let pollers = (0..workers).map(|_| Poller::new());
        let pollers: Arc<[Poller]> = pollers.collect::<std::io::Result<_>>()?;
        let (waker, listener) = (Waker { bells }, Arc::new(listener));
        let build = |index: usize| {
            let (poller, bell) = (&pollers[index], &waker.bells[index]);
            poller.add(bell.as_raw_fd(), BELL_KEY, Interest::readable())?;
            let turn = Interest {
                readable: index == 0,
                ..Interest::readable_oneshot()
            };
            poller.add(raw_fd(&*listener), LISTENER_KEY, turn)?;
            Ok(EventLoop {
                pollers: pollers.clone(),
                waker: waker.clone(),
                index,
                listener: listener.clone(),
                shared: shared.clone(),
                conns: HashMap::new(),
                next_key: 0,
                deadlines: BTreeSet::new(),
                ready: VecDeque::new(),
            })
        };
        let loops = (0..workers).map(build).collect::<std::io::Result<_>>()?;
        Ok((waker, loops))
    }

    /// One turn of the loop: sleep until something can have changed, wake
    /// what it concerns, visit what woke.  `false` once the server is
    /// stopping and every connection of this loop has been closed.
    pub(crate) fn turn(&mut self) -> bool {
        if self.shared.stop.load(Ordering::SeqCst) {
            self.close_all();
            return false;
        }
        let timeout = if self.ready.is_empty() {
            let next = self.deadlines.first();
            next.map(|&(when, _)| when.saturating_duration_since(Instant::now()))
        } else {
            Some(Duration::ZERO)
        };
        let mut events = Vec::new();
        let _ = self.pollers[self.index].wait(&mut events, 1024, timeout);
        let now = Instant::now();
        for event in events {
            match event.key {
                BELL_KEY => {
                    // Drain, then re-poll: a ring that lands after the
                    // drain leaves the bell readable for the next turn.
                    self.waker.bells[self.index].drain();
                    let polls = self.conns.iter().filter(|(_, c)| c.pending.is_some());
                    for key in polls.map(|(&key, _)| key).collect::<Vec<u64>>() {
                        self.wake(key, now);
                    }
                }
                LISTENER_KEY => self.accept(now),
                key => self.wake(key, now),
            }
        }
        while let Some(&(when, key)) = self.deadlines.first() {
            if when > now {
                break;
            }
            self.deadlines.pop_first();
            match key {
                LISTENER_KEY => self.accept(now),
                key => self.wake(key, now),
            }
        }
        // Only what is ready now: a connection that progresses goes to the
        // back and waits for the next turn, behind any new arrivals.
        for _ in 0..self.ready.len() {
            if let Some((key, woken_at)) = self.ready.pop_front() {
                self.visit(key, woken_at);
            }
        }
        true
    }

    /// Take one connection off the shared listener and arm the listener
    /// in the next loop's set (in this one's again if the backlog was
    /// empty): one arrival wakes one thread, and two clients never share a
    /// loop while another has none.  One per turn: a flood of arrivals
    /// must not keep a loop from its visits.
    fn accept(&mut self, now: Instant) {
        let next = match self.listener.accept().map_err(|e| e.kind()) {
            Ok((stream, _)) => {
                self.admit(stream, now);
                Some((self.index + 1) % self.pollers.len())
            }
            Err(ErrorKind::WouldBlock | ErrorKind::Interrupted) => Some(self.index),
            Err(_) => None,
        };
        let (listener, oneshot) = (raw_fd(&*self.listener), Interest::readable_oneshot());
        let armed = next.map(|i| self.pollers[i].modify(listener, LISTENER_KEY, oneshot));
        if !matches!(armed, Some(Ok(()))) {
            self.deadlines.insert((now + ACCEPT_BACKOFF, LISTENER_KEY));
        }
    }

    /// Give a new connection a slot, or turn it away with `503` beyond the
    /// limit.  The first visit happens this turn: its request has usually
    /// arrived with it.
    fn admit(&mut self, stream: TcpStream, now: Instant) {
        let metrics = &self.shared.metrics;
        let limit = self.shared.config.max_connections.max(1);
        if metrics.active.fetch_add(1, Ordering::Relaxed) >= limit {
            metrics.active.fetch_sub(1, Ordering::Relaxed);
            refuse(stream);
            return;
        }
        let key = self.next_key;
        self.next_key += 1;
        let watched = stream.set_nonblocking(true).is_ok()
            && self.pollers[self.index]
                .add(raw_fd(&stream), key, Interest::readable_oneshot())
                .is_ok();
        if !watched {
            // A socket the kernel will not watch cannot be served.
            metrics.active.fetch_sub(1, Ordering::Relaxed);
            return;
        }
        self.conns.insert(key, Conn::new(stream, now));
        self.ready.push_back((key, now));
        metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
    }

    /// Move a waiting connection to the ready list (a no-op for one that
    /// is already there, or gone): its deadline entry goes, `now` starts
    /// its wait for a visit.
    fn wake(&mut self, key: u64, now: Instant) {
        let waiting = self.conns.get_mut(&key).and_then(|c| c.deadline.take());
        if let Some(deadline) = waiting {
            self.deadlines.remove(&(deadline, key));
            self.ready.push_back((key, now));
            let metrics = &self.shared.metrics;
            metrics.parked.fetch_sub(1, Ordering::Relaxed);
            metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Visit one woken connection, then close it, queue it again, or leave
    /// it waiting — whichever the visit calls for.
    fn visit(&mut self, key: u64, woken_at: Instant) {
        let Some(conn) = self.conns.remove(&key) else {
            return;
        };
        let metrics = &self.shared.metrics;
        metrics.queue_depth.fetch_sub(1, Ordering::Relaxed);
        let had_pending = conn.pending.is_some();
        let visit_started = Instant::now();
        let mut progressed = false;
        let outcome = service(conn, &self.shared, &mut progressed);
        let visit_ended = Instant::now();
        // Wake-to-visit wait: the long-poll wake-up latency the loop
        // actually delivers, which degrades before the 503 limit.
        metrics.record_visit(
            visit_started.duration_since(woken_at).as_micros() as u64,
            visit_ended.duration_since(visit_started).as_micros() as u64,
        );
        let has_pending = outcome.as_ref().is_some_and(|c| c.pending.is_some());
        if has_pending && !had_pending {
            metrics.pending_responses.fetch_add(1, Ordering::Relaxed);
        } else if had_pending && !has_pending {
            metrics.pending_responses.fetch_sub(1, Ordering::Relaxed);
        }
        match outcome {
            Some(conn) if progressed => {
                self.conns.insert(key, conn);
                self.ready.push_back((key, visit_ended));
                metrics.queue_depth.fetch_add(1, Ordering::Relaxed);
            }
            // A visit that made no progress means this connection is
            // waiting on its socket, on a publish, or on a timeout — all
            // of which `epoll_wait` watches for.
            Some(conn) => self.park(key, conn, visit_ended),
            None => {
                metrics.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
    }

    /// Leave a connection to wait: re-arm its socket for what it can still
    /// do, and give it the deadline by which it must be visited anyway.
    fn park(&mut self, key: u64, mut conn: Conn, now: Instant) {
        // A half-closed socket is not armed at all: hang-up is always
        // reported, so it would fire at once, every time.  Whatever is left
        // to do for it (a deferred response, a slow reader's output) is
        // re-checked on the deadline.
        if !conn.saw_eof {
            let interest = Interest {
                readable: true,
                writable: !conn.out_is_empty(),
                oneshot: true,
            };
            let socket = raw_fd(&conn.stream);
            if self.pollers[self.index]
                .modify(socket, key, interest)
                .is_err()
            {
                // A socket the kernel will not watch cannot be served.
                self.shared.drain(conn);
                return;
            }
        }
        let deadline = if conn.pending.is_some() || conn.saw_eof {
            now + PENDING_RECHECK
        } else {
            conn.last_activity + self.shared.config.keep_alive + IDLE_DEADLINE_SLACK
        };
        self.deadlines.insert((deadline, key));
        conn.deadline = Some(deadline);
        self.conns.insert(key, conn);
        self.shared.metrics.parked.fetch_add(1, Ordering::Relaxed);
    }

    /// Shutdown: flush what is computable on every connection, close them
    /// all, and take this loop's share out of the gauges.
    fn close_all(&mut self) {
        let metrics = &self.shared.metrics;
        metrics
            .parked
            .fetch_sub(self.deadlines.len(), Ordering::Relaxed);
        metrics
            .queue_depth
            .fetch_sub(self.ready.len(), Ordering::Relaxed);
        for (_, conn) in self.conns.drain() {
            self.shared.drain(conn);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::http::{read_blocking_response, HttpResponse, HttpServerConfig, Outcome};
    use std::io::{BufReader, Write};
    use std::sync::atomic::AtomicBool;

    /// Turn `event_loop` until it has nothing left to visit.  Only call
    /// with something to wake it (bytes on a socket, a rung bell, a
    /// backlogged client): the first turn sleeps until then.
    fn settle(event_loop: &mut EventLoop) {
        event_loop.turn();
        while !event_loop.ready.is_empty() {
            event_loop.turn();
        }
    }

    #[test]
    fn connections_are_dealt_round_robin_however_the_connects_race() {
        // Seven clients are in the backlog before any loop turns — every
        // connect has "raced" every other.  The loops are turned by hand,
        // so the only order is the one the listener hand-off imposes.
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            metrics: Arc::default(),
            config: HttpServerConfig {
                workers: 3,
                ..HttpServerConfig::default()
            },
            handler: Box::new(|req: crate::http::HttpRequest| {
                HttpResponse::ok("text/plain", req.path).into()
            }),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (_waker, mut loops) = EventLoop::team(listener, &shared).unwrap();
        let clients: Vec<TcpStream> = (0..7).map(|_| TcpStream::connect(addr).unwrap()).collect();
        for arrival in 0..clients.len() {
            // The listener is armed in exactly one epoll set: with six or
            // more clients still waiting, the other loops hear nothing.
            let holder = arrival % loops.len();
            for index in (0..loops.len()).filter(|&index| index != holder) {
                let heard =
                    loops[index].pollers[index].wait(&mut Vec::new(), 8, Some(Duration::ZERO));
                assert_eq!(heard.unwrap(), 0, "arrival {arrival} woke loop {index}");
            }
            settle(&mut loops[holder]); // accepts one, visits it, parks it
        }
        let held: Vec<usize> = loops.iter().map(|l| l.conns.len()).collect();
        assert_eq!(held, [3, 2, 2]);
        assert_eq!(shared.metrics.snapshot().active_connections, 7);
    }

    #[test]
    fn a_connection_holds_one_deadline_entry_however_many_requests_it_serves() {
        // The loop is turned by hand on this thread, so every step of the
        // bookkeeping is observable and nothing races.  Every tenth request
        // is a long-poll (released by the doorbell), so both kinds of
        // deadline — PENDING_RECHECK and keep-alive — replace each other.
        let released = Arc::new(AtomicBool::new(false));
        let released2 = released.clone();
        let shared = Arc::new(Shared {
            stop: AtomicBool::new(false),
            metrics: Arc::default(),
            config: HttpServerConfig {
                workers: 1,
                ..HttpServerConfig::default()
            },
            handler: Box::new(move |req: crate::http::HttpRequest| {
                if req.path != "/wait" {
                    return HttpResponse::ok("text/plain", req.path).into();
                }
                let released = released2.clone();
                Outcome::Pending(Box::new(move || {
                    released
                        .load(Ordering::Relaxed)
                        .then(|| HttpResponse::ok("text/plain", "released"))
                }))
            }),
        });
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        listener.set_nonblocking(true).unwrap();
        let addr = listener.local_addr().unwrap();
        let (waker, mut loops) = EventLoop::team(listener, &shared).unwrap();
        let mut event_loop = loops.pop().unwrap();

        let mut writer = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(writer.try_clone().unwrap());
        settle(&mut event_loop); // accepts, visits, parks
        assert_eq!(event_loop.conns.len(), 1);
        for cycle in 0..10_000 {
            let long_poll = cycle % 10 == 9;
            let path = if long_poll { "/wait" } else { "/plain" };
            writer
                .write_all(format!("GET {path} HTTP/1.1\r\n\r\n").as_bytes())
                .unwrap();
            settle(&mut event_loop);
            if long_poll {
                assert_eq!(shared.metrics.snapshot().pending_responses, 1);
                released.store(true, Ordering::Relaxed);
                waker.ring();
                settle(&mut event_loop);
                released.store(false, Ordering::Relaxed);
            }
            let (status, _, body) = read_blocking_response(&mut reader).unwrap();
            assert_eq!(status, 200);
            assert_eq!(body, if long_poll { "released" } else { path }.as_bytes());
            assert!(
                event_loop.deadlines.len() <= 1,
                "cycle {cycle}: {} deadline entries for one connection",
                event_loop.deadlines.len()
            );
        }
        let snapshot = shared.metrics.snapshot();
        assert_eq!(snapshot.requests_served, 10_000);
        assert_eq!(
            (snapshot.parked_connections, snapshot.queue_depth),
            (1, 0),
            "the connection ends up waiting, exactly once"
        );
        // Stopping closes it and takes it out of every gauge.
        shared.stop.store(true, Ordering::SeqCst);
        assert!(!event_loop.turn());
        let snapshot = shared.metrics.snapshot();
        assert_eq!(
            (
                snapshot.active_connections,
                snapshot.parked_connections,
                snapshot.queue_depth,
                snapshot.pending_responses
            ),
            (0, 0, 0, 0)
        );
    }
}
