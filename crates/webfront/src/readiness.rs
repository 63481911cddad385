//! Readiness-driven connection scheduling: idle and long-polling
//! connections wait in the kernel, not in the worker pool's run queue.
//!
//! Revisiting every live connection on a timer costs work linear in
//! *connections*, not in *activity*: ten thousand idle long-pollers would
//! burn ten thousand visits per tick to discover that nothing changed.
//! The server's one connection scheduler is the classic readiness design
//! instead:
//!
//! * A `Reactor` owns an epoll instance (via the `epoll` shim).  When a
//!   worker visit makes no progress on a connection, the worker *parks* it
//!   in the reactor instead of requeueing it; the kernel now owns the
//!   wait.  A parked connection re-enters the run queue only when its
//!   socket becomes readable/writable, when its deadline passes, or — for
//!   long-polls — when the hub publishes a frame.
//! * A [`Waker`] is an `eventfd` doorbell the hub rings on publish.  The
//!   reactor sleeps inside `epoll_wait` with the doorbell registered, so a
//!   publish wakes every parked long-poll in one syscall, without any
//!   per-connection timer.
//! * The *publish generation* protocol closes the race between "handler
//!   checked the hub, found nothing" and "worker parked the connection":
//!   the worker snapshots the reactor's publish generation *before* the
//!   visit, and `Reactor::try_park` refuses (under the registry lock) if
//!   a publish has bumped the generation since.  The reactor bumps the
//!   generation under the same lock when the doorbell rings, so a publish
//!   either aborts the park (the worker re-polls and finds the frame) or
//!   finds the connection already in the registry and wakes it.  The hub
//!   stores the frame before ringing, so whichever side wins sees it.
//!
//! Route handlers see none of this: a [`crate::http::Outcome::Pending`]
//! closure is re-polled on a publish ring, on socket readiness and at
//! least every `PENDING_RECHECK`.  epoll is Linux-only; elsewhere
//! `Reactor::new` — and with it every `start*` of the serving layer —
//! returns `ErrorKind::Unsupported`.

use crate::http::{Conn, PoolMetrics, Shared};
use epoll::{EventFd, Interest, Poller};
use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A publish doorbell: ringing it wakes every parked long-poll so the pool
/// re-checks their deferred responses.  Cheap (`Clone` is an `Arc` clone,
/// [`Waker::ring`] is one `write(2)` on an eventfd), safe to ring from any
/// thread, and rings coalesce while the reactor is busy.
#[derive(Debug, Clone)]
pub struct Waker {
    bell: Arc<EventFd>,
}

impl Waker {
    /// Ring the doorbell.  Never blocks.
    pub fn ring(&self) {
        self.bell.ring();
    }
}

/// Registration key reserved for the reactor's own doorbell.
const BELL_KEY: u64 = u64::MAX;

/// Upper bound between reactor wake-ups, so the stop flag is observed
/// promptly even if the doorbell ring is lost to a platform quirk.
const MAX_WAIT: Duration = Duration::from_millis(100);

/// Park deadline for a connection holding a deferred (long-poll) response:
/// even with no publish and no socket activity, the pending closure is
/// re-polled at least this often, which bounds how late its own timeout
/// response can be.  Deliberately coarse: a parked long-poll costs ~20
/// closure polls per second, and a publish still wakes it in microseconds
/// via the [`Waker`].
pub(crate) const PENDING_RECHECK: Duration = Duration::from_millis(50);

/// Slack added to the keep-alive deadline of parked idle connections, so
/// the worker visit that closes them sees the timeout as unambiguously
/// expired.
const IDLE_DEADLINE_SLACK: Duration = Duration::from_millis(20);

/// One parked connection.
struct ParkedConn {
    conn: Conn,
    /// Re-run the connection when the hub publishes (it holds a deferred
    /// long-poll response), not only on socket readiness.
    wake_on_publish: bool,
}

/// The reactor's bookkeeping, behind one mutex: which connections are
/// parked (keyed by their epoll registration key) and when each must be
/// revisited regardless of socket state.  Deadlines use lazy deletion —
/// an entry whose key is no longer parked is discarded when popped.
struct Registry {
    parked: HashMap<u64, ParkedConn>,
    deadlines: BinaryHeap<Reverse<(Instant, u64)>>,
    next_key: u64,
}

/// The readiness core: an epoll instance, the publish doorbell, and the
/// parked-connection registry.  One reactor thread sleeps in
/// [`Poller::wait`]; worker threads park connections into it via
/// [`Reactor::try_park`].
pub(crate) struct Reactor {
    poller: Poller,
    bell: Arc<EventFd>,
    registry: Mutex<Registry>,
    /// Bumped (under the registry lock) every time the doorbell is
    /// serviced; see the module docs for the race this closes.
    publish_gen: AtomicU64,
    keep_alive: Duration,
    metrics: Arc<PoolMetrics>,
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

impl Reactor {
    /// Create the reactor, or fail with `ErrorKind::Unsupported` where
    /// there is no epoll.
    pub(crate) fn new(
        keep_alive: Duration,
        metrics: Arc<PoolMetrics>,
    ) -> std::io::Result<Arc<Reactor>> {
        let poller = Poller::new()?;
        let bell = Arc::new(EventFd::new()?);
        poller.add(bell.as_raw_fd(), BELL_KEY, Interest::readable())?;
        Ok(Arc::new(Reactor {
            poller,
            bell,
            registry: Mutex::new(Registry {
                parked: HashMap::new(),
                deadlines: BinaryHeap::new(),
                next_key: 0,
            }),
            publish_gen: AtomicU64::new(0),
            keep_alive,
            metrics,
        }))
    }

    /// The doorbell handle the hub rings on publish.
    pub(crate) fn waker(&self) -> Waker {
        Waker {
            bell: self.bell.clone(),
        }
    }

    /// Current publish generation; workers snapshot this *before* a visit
    /// and hand it back to [`Reactor::try_park`].
    pub(crate) fn publish_gen(&self) -> u64 {
        self.publish_gen.load(Ordering::SeqCst)
    }

    /// Park a connection that made no progress this visit.  Returns the
    /// connection back (`Err`) when parking is refused — a publish raced
    /// the visit, or the kernel rejected the registration — in which case
    /// the caller requeues it for an immediate re-visit.  The large
    /// `Err` variant is the point: a refused park must hand the whole
    /// connection back by value, not a reference into the registry.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_park(&self, conn: Conn, gen_at_visit: u64) -> Result<(), Conn> {
        let now = Instant::now();
        let wake_on_publish = conn.pending.is_some();
        let mut registry = self.registry.lock();
        if wake_on_publish && self.publish_gen.load(Ordering::SeqCst) != gen_at_visit {
            // A frame was published after the handler last looked at the
            // hub; parking now could strand the long-poll for a full
            // PENDING_RECHECK.  Re-visit instead.
            return Err(conn);
        }
        let interest = Interest {
            readable: !conn.saw_eof,
            writable: !conn.out_is_empty(),
            oneshot: true,
        };
        let deadline = if wake_on_publish {
            now + PENDING_RECHECK
        } else {
            conn.last_activity + self.keep_alive + IDLE_DEADLINE_SLACK
        };
        let key = registry.next_key;
        registry.next_key += 1;
        if self
            .poller
            .add(raw_fd(&conn.stream), key, interest)
            .is_err()
        {
            return Err(conn);
        }
        registry.deadlines.push(Reverse((deadline, key)));
        registry.parked.insert(
            key,
            ParkedConn {
                conn,
                wake_on_publish,
            },
        );
        self.metrics.set_parked(registry.parked.len());
        Ok(())
    }

    /// Remove one parked connection (deleting its epoll registration) and
    /// stamp it as queued at `now`.  Caller holds the registry lock.
    fn unpark(&self, registry: &mut Registry, key: u64, now: Instant, out: &mut Vec<Conn>) {
        if let Some(parked) = registry.parked.remove(&key) {
            let mut conn = parked.conn;
            let _ = self.poller.delete(raw_fd(&conn.stream));
            conn.queued_at = now;
            out.push(conn);
        }
    }

    /// The reactor thread body: sleep in `epoll_wait`, move woken
    /// connections back to the run queue, and drain everything on stop.
    pub(crate) fn run(&self, shared: &Shared) {
        let mut events = Vec::new();
        loop {
            if shared.stop.load(Ordering::Relaxed) {
                // Hand every parked connection back so the drain path can
                // flush and close it.
                let mut registry = self.registry.lock();
                let keys: Vec<u64> = registry.parked.keys().copied().collect();
                let mut woken = Vec::with_capacity(keys.len());
                let now = Instant::now();
                for key in keys {
                    self.unpark(&mut registry, key, now, &mut woken);
                }
                self.metrics.set_parked(0);
                drop(registry);
                shared.push_batch(woken);
                return;
            }
            let timeout = {
                let mut registry = self.registry.lock();
                let mut next: Option<Instant> = None;
                while let Some(&Reverse((when, key))) = registry.deadlines.peek() {
                    if registry.parked.contains_key(&key) {
                        next = Some(when);
                        break;
                    }
                    registry.deadlines.pop(); // lazily dropped stale entry
                }
                match next {
                    Some(when) => when.saturating_duration_since(Instant::now()).min(MAX_WAIT),
                    None => MAX_WAIT,
                }
            };
            let _ = self.poller.wait(&mut events, 1024, Some(timeout));
            let now = Instant::now();
            let mut woken = Vec::new();
            let mut registry = self.registry.lock();
            let mut bell_rang = false;
            for event in &events {
                if event.key == BELL_KEY {
                    bell_rang = true;
                } else {
                    self.unpark(&mut registry, event.key, now, &mut woken);
                }
            }
            if bell_rang {
                self.bell.drain();
                // Generation bump and sweep happen under the registry
                // lock: any in-flight try_park either sees the new
                // generation (and refuses) or has already inserted its
                // connection (and the sweep below wakes it).
                self.publish_gen.fetch_add(1, Ordering::SeqCst);
                let due: Vec<u64> = registry
                    .parked
                    .iter()
                    .filter(|(_, p)| p.wake_on_publish)
                    .map(|(&k, _)| k)
                    .collect();
                for key in due {
                    self.unpark(&mut registry, key, now, &mut woken);
                }
            }
            while let Some(&Reverse((when, key))) = registry.deadlines.peek() {
                if when > now {
                    break;
                }
                registry.deadlines.pop();
                self.unpark(&mut registry, key, now, &mut woken);
            }
            self.metrics.set_parked(registry.parked.len());
            drop(registry);
            shared.push_batch(woken);
        }
    }
}
