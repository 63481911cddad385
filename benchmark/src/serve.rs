//! The three serving workloads: frames published into the hub, fetched by
//! two long-polling clients over real loopback sockets, decoded and
//! verified pixel for pixel.
//!
//! * `serve_full`, `serve_delta_multi` — **closed loop, lock-step**: the
//!   publisher publishes frame k+1 only after both clients have decoded
//!   frame k and posted their next poll.  Nothing queues, so frame latency
//!   is the sum of the per-layer costs and repeats from run to run; a paced
//!   open-loop publisher's medians wander with idle-wake noise instead.
//! * `live_steer` — the simulation free-runs (it never waits for a client)
//!   and the clients keep up with it; one of them also POSTs steering
//!   parameters on a seeded schedule.
//!
//! Load sizing: exactly [`CONNECTIONS`] client threads with one blocking
//! keep-alive socket each.  In lock-step the publisher sleeps on the ack
//! channel while the clients read and decode, so at most two generator
//! threads are ever runnable on the 2-core reference box.  The server is
//! the product default (`FrontEndConfig::default()`).

use crate::inputs::{frame_cycle, steer_schedule, steer_tag, FRAME_EDGE};
use crate::report::Outcome;
use crate::slices::{
    block_is_traced, slice_metrics, trace_overhead_pct, Slice, SliceClock, SLICE_S,
};
use crate::stats::{mean, median};
use crate::trace::Trace;
use crate::wire::{read_payload, Conn, Pixels};
use crate::{set_up_repeatedly, Ctx};
use ricsa::core::api::{SimulationCommand, SimulationServer};
use ricsa::hydro::problems::Problem;
use ricsa::hydro::steering::SteerableParams;
use ricsa::viz::camera::Camera;
use ricsa::viz::image::Image;
use ricsa::viz::isosurface::extract_isosurface;
use ricsa::viz::render::render_mesh;
use ricsa::vizdata::field::Dims;
use ricsa::webfront::hub::{
    base64_encode, diff_images, encode_frame_delta, encode_frame_full, Frame, PollMode, SessionHub,
    SteeringInbox, DELTA_TILE,
};
use ricsa::webfront::multi::MultiFrontEnd;
use ricsa::webfront::server::{FrontEndConfig, FrontEndServer};
use std::collections::{BTreeMap, VecDeque};
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, OnceLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Client connections (and client threads).
const CONNECTIONS: usize = 2;
/// Lock-step frames published during set-up, before the window opens.
const WARMUP_STEPS: usize = 40;
/// Simulation cycles run during `live_steer` set-up.
const WARMUP_CYCLES: usize = 8;
/// `GET .../api/state` round trips each client times before its first poll.
const SMALL_RTTS: usize = 200;
/// Long-poll timeout the clients ask for, ms.  A frame is always due within
/// a fraction of it, so a timeout answer inside the window is a failure —
/// and it is long enough that a stalled VM cannot cause one.
const POLL_TIMEOUT_MS: u64 = 10_000;
/// How long the publisher waits for a client before giving the run up
/// (longer than the clients' own read timeout, so they report first).
const ACK_TIMEOUT: Duration = Duration::from_secs(20);
/// Recently published `live_steer` frames kept for verification (clients
/// are never this far behind) and for the hub replay.
const RECENT_FRAMES: usize = 64;
/// Frames replayed through the hub's public pieces in a traced run.
const REPLAY_FRAMES: usize = 64;
/// Cycles per `live_steer` episode.  The bow shock's surface grows with
/// every cycle (5 000 triangles early on, 45 000 after 500 cycles), so the
/// simulation is restarted from its initial condition every episode: the
/// window is then made of episodes of identical work, which can be ranked
/// and compared, whatever the speed of the box.
const EPISODE_CYCLES: usize = 120;
/// Cycles the simulation may run on after the window for the last steering
/// tags to show up in a frame.
const DRAIN_CYCLES: usize = 100;
/// Whole frame cycles of a lock-step window that `wire_bytes_per_frame`
/// averages over.
const WIRE_CYCLES: usize = 5;
/// `end_cycle` the simulation runs towards: never reached.
const END_CYCLE: u64 = 10_000_000;
/// `live_steer` grid.
const GRID: (usize, usize, usize) = (64, 64, 32);

// ------------------------------------------------------------ verification

/// The pixels each published sequence must decode to.
enum Expected {
    /// Lock-step: sequence `s` of every hub shows frame `(s - 1) % len`.
    Cycle(Vec<Image>),
    /// `live_steer`: the most recent frames, by sequence.
    Recent(Mutex<VecDeque<(u64, Arc<Image>)>>),
}

impl Expected {
    /// Whether `image` is what was published as `sequence`; `None` when
    /// the sequence is unknown (never published, or long evicted).
    fn matches(&self, sequence: u64, image: &Image) -> Option<bool> {
        match self {
            Expected::Cycle(frames) => {
                let frame = &frames[(sequence.checked_sub(1)? as usize) % frames.len()];
                Some(frame.pixels == image.pixels)
            }
            Expected::Recent(recent) => recent
                .lock()
                .expect("no holder of this lock panics")
                .iter()
                .find(|(s, _)| *s == sequence)
                .map(|(_, frame)| frame.pixels == image.pixels),
        }
    }

    fn remember(&self, sequence: u64, image: Arc<Image>) {
        if let Expected::Recent(recent) = self {
            let mut recent = recent.lock().expect("no holder of this lock panics");
            if recent.len() == RECENT_FRAMES {
                recent.pop_front();
            }
            recent.push_back((sequence, image));
        }
    }
}

// ----------------------------------------------------------------- clients

/// When the steering client posts, once the window is open.
struct SteerPlan {
    /// Set by the publisher when the measured window opens.
    window_opened: OnceLock<Instant>,
    /// Offsets from then, seconds.
    schedule: Vec<f64>,
    progress: Mutex<SteerProgress>,
}

/// Where the steering stands; one lock, so that the publisher closing the
/// window and the client deciding to post cannot miss each other.
#[derive(Default)]
struct SteerProgress {
    /// The window is closing: post no more.
    closing: bool,
    /// POSTs decided on (counted before they are sent).
    posted: usize,
    /// Of those, how many have shown up in a frame.
    seen: usize,
}

impl SteerPlan {
    fn progress(&self) -> std::sync::MutexGuard<'_, SteerProgress> {
        self.progress.lock().expect("no holder of this lock panics")
    }
}

/// Everything one client thread is started with.
struct ClientPlan {
    index: usize,
    addr: SocketAddr,
    /// Route prefix: `/api` or `/s/<id>/api`.
    api: String,
    /// `full` or `delta`.
    mode: &'static str,
    /// Closed loop: polls are contiguous and every poll is acknowledged.
    lock_step: bool,
    expected: Arc<Expected>,
    /// Tells the publisher "I hold `sequence` and my next poll is posted".
    acks: Sender<(usize, u64)>,
    stop: Arc<AtomicBool>,
    steer: Option<Arc<SteerPlan>>,
}

/// One verified frame delivery, as the client saw it.
struct Delivery {
    sequence: u64,
    first_byte: Instant,
    last_byte: Instant,
    /// Envelope parsed (base64 bodies cut out, JSON read).
    parsed: Instant,
    /// Pixels decoded — the end of frame latency.
    decoded: Instant,
    wire_bytes: usize,
    header_bytes: usize,
    body_bytes: usize,
    is_delta: bool,
}

/// One steering POST.
struct Steer {
    tag: f64,
    due: Instant,
    /// Just before the POST's first byte was written.
    posted: Instant,
    /// Its 200 fully read.
    accepted: Instant,
    /// `(sequence, decoded)` of the first frame carrying the tag.
    seen: Option<(u64, Instant)>,
}

/// What a client thread hands back.
#[derive(Default)]
struct ClientLog {
    deliveries: Vec<Delivery>,
    steers: Vec<Steer>,
    small_rtt_us: Vec<f64>,
    /// Timeout answers received while no stop was requested.
    timeouts: Vec<Instant>,
    failures: Vec<String>,
}

fn client(plan: ClientPlan) -> ClientLog {
    let mut log = ClientLog::default();
    if let Err(e) = client_loop(&plan, &mut log) {
        log.failures.push(format!("connection {}: {e}", plan.index));
    }
    log
}

fn client_loop(plan: &ClientPlan, log: &mut ClientLog) -> std::io::Result<()> {
    let mut conn = Conn::connect(plan.addr)?;
    for _ in 0..SMALL_RTTS {
        let sent = Instant::now();
        let response = conn.get(&format!("{}/state", plan.api))?;
        log.small_rtt_us
            .push((response.last_byte - sent).as_secs_f64() * 1e6);
    }
    let mut held: Option<(u64, Image)> = None;
    let mut next_steer = 0;
    while !plan.stop.load(Ordering::SeqCst) {
        if let Some(steer) = &plan.steer {
            let due = steer
                .window_opened
                .get()
                .zip(steer.schedule.get(next_steer))
                .map(|(opened, offset)| *opened + Duration::from_secs_f64(*offset))
                .filter(|due| Instant::now() >= *due);
            if let Some(due) = due {
                let go = {
                    let mut progress = steer.progress();
                    if !progress.closing {
                        progress.posted += 1;
                    }
                    !progress.closing
                };
                if go {
                    log.steers
                        .push(post_steer(&mut conn, plan, next_steer, due)?);
                }
                next_steer += 1;
            }
        }
        let since = held.as_ref().map_or(0, |(s, _)| *s);
        conn.send_get(&format!(
            "{}/poll?mode={}&since={since}&timeout_ms={POLL_TIMEOUT_MS}",
            plan.api, plan.mode
        ))?;
        if plan.lock_step && plan.acks.send((plan.index, since)).is_err() {
            return Ok(()); // the publisher is gone; so is the run
        }
        let response = conn.read_response()?;
        if response.status != 200 {
            log.failures.push(format!(
                "connection {}: poll since {since} answered {}",
                plan.index, response.status
            ));
            continue;
        }
        let Some(payload) = read_payload(conn.body()) else {
            log.failures
                .push(format!("connection {}: unreadable payload", plan.index));
            continue;
        };
        let (Some(sequence), Some(pixels)) = (payload.sequence, &payload.pixels) else {
            if !plan.stop.load(Ordering::SeqCst) {
                log.timeouts.push(response.last_byte);
            }
            continue;
        };
        let parsed = Instant::now();
        let image = pixels.decode(held.as_ref().map(|(_, image)| image));
        let decoded = Instant::now();

        // Wire audit, then pixels; all after the latency timestamp.
        let mut complaints = Vec::new();
        if sequence <= since {
            complaints.push(format!("sequence went {since} -> {sequence}"));
        }
        if plan.lock_step && sequence != since + 1 {
            complaints.push(format!("lock-step gap: {since} -> {sequence}"));
        }
        let is_delta = match pixels {
            Pixels::Delta { base_sequence, .. } => {
                if *base_sequence != since {
                    complaints.push(format!(
                        "delta for {sequence} based on {base_sequence}, holding {since}"
                    ));
                }
                true
            }
            Pixels::Full { .. } => false,
        };
        match image
            .as_ref()
            .map(|image| plan.expected.matches(sequence, image))
        {
            Some(Some(true)) => {}
            Some(Some(false)) => complaints.push(format!(
                "frame {sequence}: pixels differ from the published ones"
            )),
            Some(None) => complaints.push(format!("frame {sequence} was never published")),
            None => complaints.push(format!("frame {sequence} did not decode")),
        }
        log.failures.extend(
            complaints
                .into_iter()
                .map(|what| format!("connection {}: {what}", plan.index)),
        );
        let Some(image) = image else { continue };
        if let Some(tag) = payload.monitors.iter().find(|(name, _)| name == "tag") {
            // Tags only grow, so a frame showing a later tag also shows
            // that an earlier one was applied (and then superseded).
            let mut newly_seen = 0;
            for steer in log.steers.iter_mut().filter(|s| s.seen.is_none()) {
                if tag.1 >= steer.tag {
                    steer.seen = Some((sequence, decoded));
                    newly_seen += 1;
                }
            }
            if let Some(steer) = &plan.steer {
                steer.progress().seen += newly_seen;
            }
        }
        log.deliveries.push(Delivery {
            sequence,
            first_byte: response.first_byte,
            last_byte: response.last_byte,
            parsed,
            decoded,
            wire_bytes: response.wire_bytes,
            header_bytes: response.header_bytes,
            body_bytes: response.wire_bytes - response.header_bytes,
            is_delta,
        });
        held = Some((sequence, image));
    }
    Ok(())
}

fn post_steer(
    conn: &mut Conn,
    plan: &ClientPlan,
    n: usize,
    due: Instant,
) -> std::io::Result<Steer> {
    let tag = steer_tag(n);
    let params = SteerableParams {
        drive_strength: tag,
        end_cycle: END_CYCLE,
        ..SteerableParams::default()
    };
    let body = serde_json::to_string(&params).expect("steering parameters serialize");
    let posted = Instant::now();
    conn.send_post(&format!("{}/steer", plan.api), &body)?;
    let response = conn.read_response()?;
    if response.status != 200 {
        return Err(std::io::Error::other(format!(
            "steer POST answered {}",
            response.status
        )));
    }
    Ok(Steer {
        tag,
        due,
        posted,
        accepted: response.last_byte,
        seen: None,
    })
}

// ----------------------------------------------------------------- servers

/// The front end under test.
enum Server {
    Single(FrontEndServer),
    Multi(MultiFrontEnd),
}

impl Server {
    fn addr(&self) -> SocketAddr {
        match self {
            Server::Single(s) => s.addr(),
            Server::Multi(s) => s.addr(),
        }
    }

    fn shutdown(self) {
        match self {
            Server::Single(s) => s.shutdown(),
            Server::Multi(s) => s.shutdown(),
        }
    }
}

/// A started front end with its clients connected and polling.
struct Instance {
    server: Server,
    /// One hub per session (one in all, or one per connection).
    hubs: Vec<SessionHub>,
    inbox: Option<SteeringInbox>,
    /// Route prefix of each connection.
    apis: Vec<String>,
    clients: Vec<JoinHandle<ClientLog>>,
    acks: Receiver<(usize, u64)>,
    stop: Arc<AtomicBool>,
    expected: Arc<Expected>,
    steer: Option<Arc<SteerPlan>>,
}

/// Which front end a workload serves through.
#[derive(Clone, Copy, PartialEq)]
enum FrontEnd {
    /// `FrontEndServer`, both connections on its one hub.
    Single,
    /// `MultiFrontEnd`, one session per connection under `/s/<id>/`.
    Multi,
}

impl Instance {
    fn start(
        front_end: FrontEnd,
        mode: &'static str,
        lock_step: bool,
        expected: Expected,
        steer_schedule: Option<Vec<f64>>,
    ) -> Result<Instance, String> {
        let bind = |e: std::io::Error| format!("bind the front end: {e}");
        let (server, hubs, inbox, apis) = match front_end {
            FrontEnd::Single => {
                let s = FrontEndServer::start_with("127.0.0.1:0", FrontEndConfig::default())
                    .map_err(bind)?;
                let (hub, inbox) = (s.hub(), s.inbox());
                (
                    Server::Single(s),
                    vec![hub],
                    Some(inbox),
                    vec!["/api".to_string(); CONNECTIONS],
                )
            }
            FrontEnd::Multi => {
                let s = MultiFrontEnd::start("127.0.0.1:0").map_err(bind)?;
                let ids: Vec<u64> = (1..=CONNECTIONS as u64).collect();
                let hubs = ids.iter().map(|&id| s.add_session(id).hub).collect();
                let apis = ids.iter().map(|id| format!("/s/{id}/api")).collect();
                (Server::Multi(s), hubs, None, apis)
            }
        };
        let expected = Arc::new(expected);
        let stop = Arc::new(AtomicBool::new(false));
        let steer = steer_schedule.map(|schedule| {
            Arc::new(SteerPlan {
                window_opened: OnceLock::new(),
                schedule,
                progress: Mutex::default(),
            })
        });
        let (ack_tx, acks) = channel();
        let clients = (0..CONNECTIONS)
            .map(|index| {
                let plan = ClientPlan {
                    index,
                    addr: server.addr(),
                    api: apis[index].clone(),
                    mode,
                    lock_step,
                    expected: expected.clone(),
                    acks: ack_tx.clone(),
                    stop: stop.clone(),
                    // The last connection is the one that also steers.
                    steer: steer.clone().filter(|_| index == CONNECTIONS - 1),
                };
                std::thread::spawn(move || client(plan))
            })
            .collect();
        Ok(Instance {
            server,
            hubs,
            inbox,
            apis,
            clients,
            acks,
            stop,
            expected,
            steer,
        })
    }

    /// The hub connection `conn` polls.
    fn hub_of(&self, conn: usize) -> usize {
        conn % self.hubs.len()
    }

    /// Block until every client holds the sequence its hub published last
    /// and has posted its next poll.  Returns when the last ack arrived.
    fn await_acks(&self, published: &[u64]) -> Result<Instant, String> {
        let mut pending = CONNECTIONS;
        let mut acked = [false; CONNECTIONS];
        while pending > 0 {
            let (conn, held) = self
                .acks
                .recv_timeout(ACK_TIMEOUT)
                .map_err(|_| "a client stopped acknowledging frames".to_string())?;
            if held == published[self.hub_of(conn)] && !acked[conn] {
                acked[conn] = true;
                pending -= 1;
            }
        }
        Ok(Instant::now())
    }

    /// Stop the clients: raise the flag, then publish one more frame per
    /// hub so every parked long-poll returns at once.
    fn stop(self, last_frame: impl Fn() -> Frame) -> (Vec<ClientLog>, Server) {
        self.stop.store(true, Ordering::SeqCst);
        for hub in &self.hubs {
            let frame = last_frame();
            if let Some(image) = Image::decode_raw(&frame.image) {
                self.expected
                    .remember(hub.latest_sequence() + 1, Arc::new(image));
            }
            hub.publish(frame);
        }
        let logs = self
            .clients
            .into_iter()
            .map(|c| c.join().expect("client threads do not panic"))
            .collect();
        (logs, self.server)
    }
}

// --------------------------------------------------------- unit records

/// What the publisher side recorded about one repeating unit (a lock-step
/// step or a simulation cycle).
struct Unit {
    /// Where this unit's frame latency starts: the first publish call's
    /// start (lock-step) or the cycle's end (`live_steer`).
    origin: Instant,
    /// Publisher-side spans, in order: `viz.*`, one `hub.publish` per hub.
    spans: Vec<(&'static str, Instant, Instant)>,
    /// Per hub: the sequence assigned and when its publish returned.
    published: Vec<(u64, Instant)>,
    /// Lock-step: when the last ack of the previous frame arrived.
    acked: Option<Instant>,
    /// `live_steer`: the cycle's `run_cycle` interval and triangle count.
    hydro: Option<(Instant, Instant)>,
    triangles: usize,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64() * 1e3
}

/// Lock-step publisher state: the pre-rendered cycle and the step count,
/// which runs on from warm-up into the window.
struct LockStep {
    raw: Vec<Vec<u8>>,
    step: usize,
    /// Last sequence published per hub.
    published: Vec<u64>,
}

impl LockStep {
    fn frame(&self, step: usize) -> Frame {
        Frame {
            sequence: 0,
            cycle: step as u64,
            time: step as f64 * 0.01,
            image: self.raw[step % self.raw.len()].clone(),
            monitors: vec![("step".into(), step as f64)],
        }
    }

    /// Wait for the previous frame's acks, then publish the next frame
    /// into every hub in turn.
    fn step(&mut self, instance: &Instance) -> Result<Unit, String> {
        let acked = instance.await_acks(&self.published)?;
        let mut frames: Vec<Frame> = instance
            .hubs
            .iter()
            .map(|_| self.frame(self.step))
            .collect();
        let origin = Instant::now();
        let mut spans = Vec::with_capacity(frames.len());
        let mut published = Vec::with_capacity(frames.len());
        for (i, hub) in instance.hubs.iter().enumerate() {
            let frame = frames.pop().expect("one frame per hub");
            let start = Instant::now();
            let sequence = hub.publish(frame);
            let end = Instant::now();
            spans.push(("hub.publish", start, end));
            published.push((sequence, end));
            self.published[i] = sequence;
        }
        self.step += 1;
        Ok(Unit {
            origin,
            spans,
            published,
            acked: Some(acked),
            hydro: None,
            triangles: 0,
        })
    }
}

/// The `live_steer` glue: the in-process path of `examples/web_steering.rs`
/// with a frame every cycle and the steering tag published back.
struct LiveSim {
    server: SimulationServer,
    commands: crossbeam::channel::Sender<SimulationCommand>,
    datasets: crossbeam::channel::Receiver<ricsa::vizdata::io::VolumeContainer>,
    camera: Camera,
    /// The newest published frame, re-published to release the clients.
    last: Option<Frame>,
}

impl LiveSim {
    fn start() -> LiveSim {
        LiveSim::start_with(SteerableParams::default())
    }

    fn start_with(params: SteerableParams) -> LiveSim {
        let server = SimulationServer::startup();
        let (commands, datasets) = server.wait_accept_connection();
        commands
            .send(SimulationCommand::Start {
                problem: Problem::BowShock,
                dims: Dims::new(GRID.0, GRID.1, GRID.2),
                params: SteerableParams {
                    end_cycle: END_CYCLE,
                    ..params
                },
            })
            .expect("the server holds the receiving end");
        LiveSim {
            server,
            commands,
            datasets,
            camera: Camera::with_viewport(FRAME_EDGE, FRAME_EDGE),
            last: None,
        }
    }

    /// Begin the next episode: a fresh simulation from the initial
    /// condition that keeps the steering parameters in force, so a tag
    /// posted at the end of one episode still shows up in the next.
    fn restart(&mut self) {
        // Apply what the inbox handed over but no cycle has picked up yet.
        self.server.receive_handle_message();
        let params = self.server.params().unwrap_or_default();
        let last = self.last.take();
        *self = LiveSim::start_with(params);
        self.last = last;
    }

    /// One trip around the simulation's main loop, then extract, render
    /// and publish what it produced.  Never waits for a client.
    fn cycle(&mut self, instance: &Instance) -> Unit {
        let hydro_start = Instant::now();
        self.server.run_cycle();
        let origin = Instant::now();
        // Steering posted by the web client is applied between cycles.
        let inbox = instance.inbox.as_ref().expect("single front end");
        if let Some(params) = inbox.drain_latest() {
            self.commands
                .send(SimulationCommand::UpdateParameters(SteerableParams {
                    end_cycle: END_CYCLE,
                    ..params
                }))
                .expect("the server holds the receiving end");
        }
        let snapshot = self
            .datasets
            .try_iter()
            .last()
            .expect("every cycle pushes a snapshot");
        let pressure = snapshot.variable("pressure").expect("published variable");
        let (lo, hi) = pressure.value_range();
        let iso = lo + 0.5 * (hi - lo);

        let t0 = Instant::now();
        let surface = extract_isosurface(pressure, iso, 16);
        let t1 = Instant::now();
        let image = render_mesh(&surface.mesh, &self.camera, [0.85, 0.55, 0.25]);
        let t2 = Instant::now();
        let raw = image.encode_raw();
        let t3 = Instant::now();

        let hub = &instance.hubs[0];
        let tag = self.server.params().map_or(0.0, |p| p.drive_strength);
        let frame = Frame {
            sequence: 0,
            cycle: snapshot.cycle,
            time: snapshot.time,
            image: raw,
            monitors: vec![
                ("max pressure".into(), hi as f64),
                ("isovalue".into(), iso as f64),
                ("triangles".into(), surface.mesh.triangle_count() as f64),
                ("tag".into(), tag),
            ],
        };
        self.last = Some(frame.clone());
        instance
            .expected
            .remember(hub.latest_sequence() + 1, Arc::new(image));
        let t4 = Instant::now();
        let sequence = hub.publish(frame);
        let t5 = Instant::now();
        Unit {
            origin,
            spans: vec![
                ("viz.extract", t0, t1),
                ("viz.render", t1, t2),
                ("viz.encode_raw", t2, t3),
                ("hub.publish", t4, t5),
            ],
            published: vec![(sequence, t5)],
            acked: None,
            hydro: Some((hydro_start, origin)),
            triangles: surface.mesh.triangle_count(),
        }
    }
}

// ------------------------------------------------------------ the workloads

/// What drives the units of a serving workload.
enum Driver {
    LockStep(LockStep),
    Live(Box<LiveSim>),
}

impl Driver {
    /// Run the measured window: whole units until `seconds` have passed.
    /// Lock-step units are steps.  Live units are cycles, in whole
    /// episodes of identical work, one slice each: at least two, and none
    /// that would overrun the window.
    fn run_window(
        &mut self,
        instance: &Instance,
        seconds: f64,
        clock: &mut SliceClock,
    ) -> Result<Vec<Unit>, String> {
        let mut units = Vec::new();
        match self {
            Driver::LockStep(lock_step) => {
                while clock.elapsed_s() < seconds {
                    units.push(lock_step.step(instance)?);
                    clock.unit_done();
                }
                // Let the last frame land before the window is closed.
                instance.await_acks(&lock_step.published)?;
            }
            Driver::Live(sim) => {
                let mut longest_s: f64 = 0.0;
                for episode in 1.. {
                    let started = Instant::now();
                    sim.restart();
                    for _ in 0..EPISODE_CYCLES {
                        units.push(sim.cycle(instance));
                        clock.unit_done();
                    }
                    clock.end_slice();
                    longest_s = longest_s.max(started.elapsed().as_secs_f64());
                    if episode >= 2 && clock.elapsed_s() + longest_s > seconds {
                        break;
                    }
                }
            }
        }
        Ok(units)
    }

    /// The frame that releases a hub's parked clients at the end.
    fn last_frame(&self) -> Frame {
        match self {
            Driver::LockStep(lock_step) => lock_step.frame(lock_step.step),
            Driver::Live(sim) => sim.last.clone().expect("at least one cycle ran"),
        }
    }
}

/// The shape of one serving workload.
struct Shape {
    front_end: FrontEnd,
    mode: &'static str,
    live: bool,
}

/// One complete set-up: inputs from the seed, server, clients, warm-up.
fn set_up(ctx: &Ctx, shape: &Shape) -> Result<(Instance, Driver), String> {
    if shape.live {
        let instance = Instance::start(
            shape.front_end,
            shape.mode,
            false,
            Expected::Recent(Mutex::new(VecDeque::with_capacity(RECENT_FRAMES))),
            Some(steer_schedule(ctx.seed, ctx.seconds)),
        )?;
        let mut sim = LiveSim::start();
        for _ in 0..WARMUP_CYCLES {
            sim.cycle(&instance);
        }
        Ok((instance, Driver::Live(Box::new(sim))))
    } else {
        let frames = frame_cycle(ctx.seed);
        let raw = frames.iter().map(Image::encode_raw).collect();
        let instance = Instance::start(
            shape.front_end,
            shape.mode,
            true,
            Expected::Cycle(frames),
            None,
        )?;
        let mut lock_step = LockStep {
            raw,
            step: 0,
            published: vec![0; instance.hubs.len()],
        };
        for _ in 0..WARMUP_STEPS {
            lock_step.step(&instance)?;
        }
        Ok((instance, Driver::LockStep(lock_step)))
    }
}

/// `GET <api>/stats` on a transient connection, parsed.
fn fetch_stats(addr: SocketAddr, api: &str) -> Option<serde_json::Value> {
    let mut conn = Conn::connect(addr).ok()?;
    conn.get(&format!("{api}/stats")).ok()?;
    serde_json::from_slice(conn.body()).ok()
}

/// Median round trip of `rounds` `GET path` requests on a fresh
/// connection, microseconds.
fn median_rtt_us(addr: SocketAddr, path: &str, rounds: usize) -> Option<f64> {
    let mut conn = Conn::connect(addr).ok()?;
    let mut rtts = Vec::with_capacity(rounds);
    for _ in 0..rounds {
        let sent = Instant::now();
        let response = conn.get(path).ok()?;
        rtts.push((response.last_byte - sent).as_secs_f64() * 1e6);
    }
    Some(median(&rtts))
}

fn run(ctx: &Ctx, shape: Shape) -> Outcome {
    let mut outcome = Outcome::default();
    let measured = measure(ctx, &shape, &mut outcome).and_then(|window| {
        window.verify(&mut outcome);
        let samples = window.samples();
        if samples.is_empty() {
            return Err("no frame of the window was delivered".to_string());
        }
        window.end_to_end(&samples, &mut outcome);
        window.layers(&samples, &mut outcome);
        if ctx.trace {
            window.traced(ctx, &samples, &mut outcome)?;
        }
        Ok(())
    });
    if let Err(why) = measured {
        outcome.attempted += 1;
        outcome.fail(why);
        // The result line needs every end-to-end metric; a run that could
        // not measure reports a value no one can mistake for a timing.
        for def in crate::report::END_TO_END {
            outcome.values.entry(def.name).or_insert(-1.0);
        }
    }
    outcome
}

/// Everything the measured window of a serving workload produced.
struct Window {
    opened: Instant,
    closed: Instant,
    units: Vec<Unit>,
    slices: Vec<Slice>,
    logs: Vec<ClientLog>,
    /// The hub each connection polls.
    hub_of: Vec<usize>,
    /// Per hub, the sequence of the window's first frame.
    first_sequence: Vec<u64>,
    /// Encode passes the hubs performed during the window.
    encodes: u64,
    /// `GET .../api/stats` taken while both clients sat in a long-poll.
    stats: Option<serde_json::Value>,
    route_overhead_us: Option<f64>,
    /// Frames for the hub replay of a traced run.
    replay: Vec<Arc<Image>>,
    /// Lock-step: length of the frame cycle.
    cycle: Option<usize>,
}

/// Set up repeatedly, run the window on the last instance,
/// release the clients and collect what they logged.
fn measure(ctx: &Ctx, shape: &Shape, outcome: &mut Outcome) -> Result<Window, String> {
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    if CONNECTIONS > parallelism {
        return Err(format!(
            "{CONNECTIONS} client connections need {CONNECTIONS} cores, {parallelism} available"
        ));
    }
    outcome.notes.push(format!(
        "{CONNECTIONS} blocking keep-alive connections, available_parallelism {parallelism}, {}",
        if shape.live {
            "free-running simulation (open loop at its own cycle rate)"
        } else {
            "closed loop, lock-step"
        }
    ));

    let ((instance, mut driver), setup_s) = set_up_repeatedly(
        || set_up(ctx, shape),
        |(instance, driver)| {
            let (_, server) = instance.stop(|| driver.last_frame());
            server.shutdown();
        },
    )?;
    outcome.set("setup_s", setup_s);

    let encode_count =
        |instance: &Instance| -> u64 { instance.hubs.iter().map(|h| h.encode_count()).sum() };
    let encodes_before = encode_count(&instance);
    // Live episodes end their own slices; lock-step slices are cut by time.
    let mut clock = SliceClock::open(if shape.live { f64::INFINITY } else { SLICE_S });
    let opened = Instant::now();
    if let Some(steer) = &instance.steer {
        let _ = steer.window_opened.set(opened);
    }
    let units = driver.run_window(&instance, ctx.seconds, &mut clock)?;
    let closed = Instant::now();
    let slices = clock.finish();
    // Live: no more steering from here on, and the simulation runs on,
    // unmeasured, until the tags already posted have shown up in a frame.
    if let (Driver::Live(sim), Some(steer)) = (&mut driver, &instance.steer) {
        steer.progress().closing = true;
        for _ in 0..DRAIN_CYCLES {
            let progress = steer.progress();
            if progress.seen >= progress.posted {
                break;
            }
            drop(progress);
            sim.cycle(&instance);
        }
    }
    let encodes = encode_count(&instance) - encodes_before;

    // Server-side gauges while both clients sit in their next long-poll.
    let stats = fetch_stats(instance.server.addr(), &instance.apis[0]);
    let route_overhead_us = if ctx.trace && shape.front_end == FrontEnd::Multi {
        route_overhead_us(&instance, &driver)
    } else {
        None
    };
    let replay = match &*instance.expected {
        Expected::Recent(recent) => recent
            .lock()
            .expect("no holder of this lock panics")
            .iter()
            .map(|(_, image)| image.clone())
            .collect(),
        Expected::Cycle(frames) => frames
            .iter()
            .take(REPLAY_FRAMES)
            .map(|image| Arc::new(image.clone()))
            .collect(),
    };
    let first_sequence = units[0].published.iter().map(|(s, _)| *s).collect();
    let hub_of = (0..CONNECTIONS).map(|c| instance.hub_of(c)).collect();
    let cycle = match &driver {
        Driver::LockStep(lock_step) => Some(lock_step.raw.len()),
        Driver::Live(_) => None,
    };
    let (logs, server) = instance.stop(|| driver.last_frame());
    server.shutdown();
    Ok(Window {
        opened,
        closed,
        units,
        slices,
        logs,
        hub_of,
        first_sequence,
        encodes,
        stats,
        route_overhead_us,
        replay,
        cycle,
    })
}

/// One verified delivery of a window frame.
struct Sample {
    unit: usize,
    latency_ms: f64,
    wire_bytes: f64,
    /// Budget rows of this delivery, ms, in [`BUDGET_ROWS`] order.
    rows: [f64; BUDGET_ROWS.len()],
}

fn mean_of<T>(items: &[T], f: impl Fn(&T) -> f64) -> f64 {
    mean(&items.iter().map(f).collect::<Vec<_>>())
}

impl Window {
    fn in_window(&self, at: Instant) -> bool {
        at >= self.opened && at <= self.closed
    }

    /// Deliveries decoded inside the window, all connections.
    fn deliveries(&self) -> Vec<&Delivery> {
        self.logs
            .iter()
            .flat_map(|l| &l.deliveries)
            .filter(|d| self.in_window(d.decoded))
            .collect()
    }

    fn steers(&self) -> Vec<&Steer> {
        self.logs.iter().flat_map(|l| &l.steers).collect()
    }

    /// Count what was attempted and what the clients found wrong.
    fn verify(&self, outcome: &mut Outcome) {
        outcome.attempted += self.deliveries().len() as u64;
        for (conn, log) in self.logs.iter().enumerate() {
            outcome.attempted += log.steers.len() as u64;
            for failure in &log.failures {
                outcome.fail(failure.clone());
            }
            for _ in log.timeouts.iter().filter(|&&at| self.in_window(at)) {
                outcome.attempted += 1;
                outcome.fail(format!(
                    "connection {conn}: poll timed out while a frame was due"
                ));
            }
            for steer in log.steers.iter().filter(|s| s.seen.is_none()) {
                outcome.fail(format!(
                    "connection {conn}: steer tag {} never showed up in a frame",
                    steer.tag
                ));
            }
        }
    }

    /// The window unit a delivery on `conn` belongs to; `None` for a
    /// warm-up frame or the releasing one.
    fn unit_of(&self, conn: usize, delivery: &Delivery) -> Option<usize> {
        delivery
            .sequence
            .checked_sub(self.first_sequence[self.hub_of[conn]])
            .map(|u| u as usize)
            .filter(|&u| u < self.units.len())
    }

    /// One sample per delivery of a window frame, with its budget rows.
    fn samples(&self) -> Vec<Sample> {
        let mut samples = Vec::new();
        for (conn, log) in self.logs.iter().enumerate() {
            for d in &log.deliveries {
                let Some(unit) = self.unit_of(conn, d) else {
                    continue;
                };
                let u = &self.units[unit];
                let published = u.published[self.hub_of[conn]].1;
                let mut rows = [0.0; BUDGET_ROWS.len()];
                // Publisher-side work this delivery had to wait for.  The
                // wake-up is rung inside `publish`, so on two cores the
                // response can be on the wire before `publish` returns:
                // only the part of a span before the first byte counts.
                for &(name, start, end) in u.spans.iter().filter(|s| s.2 <= published) {
                    let row = BUDGET_ROWS
                        .iter()
                        .position(|r| *r == name)
                        .expect("every publisher span is a budget row");
                    rows[row] += ms(start, end.min(d.first_byte));
                }
                rows[ROW_WAKE] = ms(published, d.first_byte);
                rows[ROW_TRANSFER] = ms(d.first_byte, d.last_byte);
                rows[ROW_DECODE] = ms(d.last_byte, d.decoded);
                samples.push(Sample {
                    unit,
                    latency_ms: ms(u.origin, d.decoded),
                    wire_bytes: d.wire_bytes as f64,
                    rows,
                });
            }
        }
        samples
    }

    /// The end-to-end metrics and the user-visible quantities only the
    /// serving workloads have.
    fn end_to_end(&self, samples: &[Sample], outcome: &mut Outcome) {
        let latencies: Vec<(usize, f64)> = samples.iter().map(|s| (s.unit, s.latency_ms)).collect();
        slice_metrics(outcome, &self.slices, &latencies, CONNECTIONS as f64);

        // Lock-step: the window's first few whole frame cycles.  Payloads
        // carry the sequence and the step, whose digit counts grow, so only
        // a fixed set of frames has the same size in every run of a seed.
        let counted_units = match self.cycle {
            Some(cycle) => (self.units.len() / cycle).min(WIRE_CYCLES) * cycle,
            None => self.units.len(),
        }
        .max(1);
        let counted: Vec<&Sample> = samples.iter().filter(|s| s.unit < counted_units).collect();
        outcome.set("wire_bytes_per_frame", mean_of(&counted, |s| s.wire_bytes));

        let steers = self.steers();
        if !steers.is_empty() {
            let seen: Vec<f64> = steers
                .iter()
                .filter_map(|s| s.seen.map(|(_, at)| ms(s.posted, at)))
                .collect();
            outcome.set("steer_latency_p50_ms", median(&seen));
            outcome.notes.push(format!(
                "{} steering POSTs, {} seen in a frame",
                steers.len(),
                seen.len()
            ));
        }
    }

    /// Per-layer metrics that every run can take from its own records.
    fn layers(&self, samples: &[Sample], outcome: &mut Outcome) {
        let deliveries = self.deliveries();
        let spans: Vec<&(&str, Instant, Instant)> =
            self.units.iter().flat_map(|u| &u.spans).collect();
        let span_mean = |name: &str| {
            let named: Vec<_> = spans.iter().filter(|s| s.0 == name).collect();
            mean_of(&named, |s| ms(s.1, s.2))
        };
        let sized = |delta: bool| {
            let of_kind: Vec<_> = deliveries.iter().filter(|d| d.is_delta == delta).collect();
            mean_of(&of_kind, |d| d.body_bytes as f64)
        };
        let hubs = self.units[0].published.len();
        outcome.set("hub.publish_ms", span_mean("hub.publish"));
        outcome.set(
            "hub.encodes_per_frame",
            self.encodes as f64 / (self.units.len() * hubs) as f64,
        );
        outcome.set("hub.full_payload_bytes", sized(false));
        outcome.set("hub.delta_payload_bytes", sized(true));
        outcome.set(
            "hub.delta_share",
            deliveries.iter().filter(|d| d.is_delta).count() as f64 / deliveries.len() as f64,
        );
        outcome.set("http.wake_ms", mean_of(samples, |s| s.rows[ROW_WAKE]));
        outcome.set(
            "http.transfer_ms",
            mean_of(&deliveries, |d| ms(d.first_byte, d.last_byte)),
        );
        outcome.set(
            "http.header_bytes",
            mean_of(&deliveries, |d| d.header_bytes as f64),
        );
        outcome.set(
            "client.envelope_ms",
            mean_of(&deliveries, |d| ms(d.last_byte, d.parsed)),
        );
        outcome.set(
            "client.decode_ms",
            mean_of(&deliveries, |d| ms(d.parsed, d.decoded)),
        );
        let rtts: Vec<f64> = self
            .logs
            .iter()
            .flat_map(|l| l.small_rtt_us.iter().copied())
            .collect();
        outcome.set("http.small_rtt_us", median(&rtts));
        if let Some(stats) = &self.stats {
            let gauge = |name: &str| stats.get(name).and_then(|v| v.as_f64()).unwrap_or(0.0);
            outcome.set("http.visit_mean_us", gauge("mean_visit_us"));
            outcome.set("http.rotation_mean_us", gauge("mean_rotation_us"));
            outcome.set("http.parked", gauge("parked_connections"));
            outcome.set("http.requests_served", gauge("requests_served"));
        }
        if let Some(overhead) = self.route_overhead_us {
            outcome.set("multi.route_overhead_us", overhead);
        }

        let steers = self.steers();
        if self.cycle.is_some() {
            // Lock-step: how long the publisher took to follow the acks.
            let lags: Vec<f64> = self
                .units
                .iter()
                .filter_map(|u| u.acked.map(|acked| ms(acked, u.origin)))
                .collect();
            outcome.set("bench.generator_lag_ms", mean(&lags));
        } else {
            // Live: how late the steering client posted, and the layers
            // only the live path has.
            outcome.set(
                "bench.generator_lag_ms",
                mean_of(&steers, |s| ms(s.due, s.posted)),
            );
            let posts: Vec<f64> = steers
                .iter()
                .map(|s| ms(s.posted, s.accepted) * 1e3)
                .collect();
            outcome.set("http.steer_post_us", median(&posts));
            let cycles: Vec<f64> = self
                .units
                .iter()
                .filter_map(|u| u.hydro.map(|(start, end)| ms(start, end)))
                .collect();
            outcome.set("hydro.cycle_ms", mean(&cycles));
            outcome.set(
                "hydro.cells_per_s",
                (GRID.0 * GRID.1 * GRID.2) as f64 / (mean(&cycles) / 1e3),
            );
            outcome.set("viz.extract_ms", span_mean("viz.extract"));
            outcome.set("viz.render_ms", span_mean("viz.render"));
            outcome.set("viz.encode_raw_ms", span_mean("viz.encode_raw"));
            outcome.set(
                "viz.triangles_per_frame",
                mean_of(&self.units, |u| u.triangles as f64),
            );
        }
    }

    /// Whether spans are recorded for `unit`: alternate slices stay
    /// untraced, as the reference the traced ones are compared with.
    fn unit_is_traced(&self, unit: usize) -> bool {
        self.slices
            .iter()
            .position(|s| s.units.contains(&unit))
            .is_some_and(block_is_traced)
    }

    /// What only a traced run produces: the overhead estimate, the budget
    /// table, the span file and the hub replay.
    fn traced(&self, ctx: &Ctx, samples: &[Sample], outcome: &mut Outcome) -> Result<(), String> {
        let latencies: Vec<(usize, f64)> = samples.iter().map(|s| (s.unit, s.latency_ms)).collect();
        outcome.set(
            "bench.trace_overhead_pct",
            trace_overhead_pct(&latencies, |unit| self.unit_is_traced(unit)),
        );

        let mut traced: Vec<&Sample> = samples
            .iter()
            .filter(|s| self.unit_is_traced(s.unit))
            .collect();
        if traced.is_empty() {
            return Err("the window was too short to trace: it has a single slice".into());
        }
        traced.sort_by(|a, b| a.latency_ms.total_cmp(&b.latency_ms));
        self.budget_table(&traced, outcome);
        ctx.write_trace(&self.spans(ctx));
        replay_hub(&self.replay, outcome);
        Ok(())
    }

    /// The budget of the median frame: the rows of the traced samples in
    /// the middle tenth by latency (`sorted` ascending), which sum to their
    /// latency but for the gaps between spans.
    fn budget_table(&self, sorted: &[&Sample], outcome: &mut Outcome) {
        let p50 = sorted[(sorted.len() - 1) / 2].latency_ms;
        let band = &sorted[sorted.len() * 45 / 100..(sorted.len() * 55 / 100).max(1)];
        outcome.notes.push(format!(
            "per-layer budget of the median frame ({} traced samples, middle tenth averaged):",
            sorted.len()
        ));
        let mut attributed = 0.0;
        for (row, name) in BUDGET_ROWS.iter().enumerate() {
            let value = mean_of(band, |s| s.rows[row]);
            if value > 0.0 {
                outcome.notes.push(format!("  {name:<22}{value:>10.4} ms"));
            }
            attributed += value;
        }
        let unattributed = p50 - attributed;
        outcome.notes.push(format!(
            "  {:<22}{unattributed:>10.4} ms",
            "bench.unattributed_ms"
        ));
        outcome
            .notes
            .push(format!("  {:<22}{p50:>10.4} ms", "= median traced frame"));
        outcome.set("bench.unattributed_ms", unattributed);
    }

    /// The spans of the traced units.
    fn spans(&self, ctx: &Ctx) -> Trace {
        let mut trace = Trace::default();
        let mut push = |name, during: (Instant, Instant), parent, frame, conn| {
            trace.push(ctx.span(name, during, parent, frame, conn))
        };
        // Per connection, the delivery of each window unit.
        let mut delivered = vec![vec![None; self.units.len()]; self.logs.len()];
        for (conn, log) in self.logs.iter().enumerate() {
            for d in &log.deliveries {
                if let Some(unit) = self.unit_of(conn, d) {
                    delivered[conn][unit] = Some(d);
                }
            }
        }
        for (index, u) in self.units.iter().enumerate() {
            if !self.unit_is_traced(index) {
                continue;
            }
            let frame = u.published[0].0;
            if let Some(cycle) = u.hydro {
                push("hydro.cycle", cycle, None, frame, None);
            }
            let deliveries = || {
                delivered
                    .iter()
                    .enumerate()
                    .filter_map(|(conn, by_unit)| Some((conn, by_unit[index]?)))
            };
            let end = deliveries()
                .map(|(_, d)| d.decoded)
                .max()
                .unwrap_or(u.published.last().expect("at least one hub").1);
            let root = Some(push("frame", (u.origin, end), None, frame, None));
            for &(name, start, end) in &u.spans {
                push(name, (start, end), root, frame, None);
            }
            for (conn, d) in deliveries() {
                let published = u.published[self.hub_of[conn]].1;
                let conn = Some(conn);
                push("http.wake", (published, d.first_byte), root, frame, conn);
                push(
                    "http.transfer",
                    (d.first_byte, d.last_byte),
                    root,
                    frame,
                    conn,
                );
                push("client.decode", (d.last_byte, d.decoded), root, frame, conn);
            }
        }
        for steer in self.steers() {
            if let Some((sequence, seen)) = steer.seen {
                let conn = Some(CONNECTIONS - 1);
                push("steer", (steer.posted, seen), None, sequence, conn);
            }
        }
        trace
    }
}

/// Rows of the per-layer budget table, in path order.
const BUDGET_ROWS: [&str; 7] = [
    "viz.extract",
    "viz.render",
    "viz.encode_raw",
    "hub.publish",
    "http.wake",
    "http.transfer",
    "client.decode",
];
const ROW_WAKE: usize = 4;
const ROW_TRANSFER: usize = 5;
const ROW_DECODE: usize = 6;

/// `/s/1/api/state` round trip through the multi-session router minus the
/// same request against a plain front end holding the same frame.
fn route_overhead_us(instance: &Instance, driver: &Driver) -> Option<f64> {
    let plain = FrontEndServer::start_with("127.0.0.1:0", FrontEndConfig::default()).ok()?;
    plain.hub().publish(driver.last_frame());
    let routed = median_rtt_us(
        instance.server.addr(),
        &format!("{}/state", instance.apis[0]),
        SMALL_RTTS,
    );
    let direct = median_rtt_us(plain.addr(), "/api/state", SMALL_RTTS);
    plain.shutdown();
    Some(routed? - direct?)
}

/// Replay frames through the hub's public pieces, timing each call into
/// the per-layer metric it is named after.
fn replay_hub(frames: &[Arc<Image>], outcome: &mut Outcome) {
    if frames.len() < 6 {
        return;
    }
    let mut timings: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut time = |metric: &'static str, call: &mut dyn FnMut()| {
        let start = Instant::now();
        call();
        timings
            .entry(metric)
            .or_default()
            .push(start.elapsed().as_secs_f64());
    };
    let scratch = SessionHub::new(32);
    for (i, image) in frames.iter().enumerate() {
        let raw = image.encode_raw();
        let frame = Frame {
            sequence: i as u64 + 1,
            cycle: i as u64,
            time: i as f64 * 0.01,
            image: raw.clone(),
            monitors: vec![("step".into(), i as f64)],
        };
        time("hub.rle_ms", &mut || {
            std::hint::black_box(rle::compress(&raw));
        });
        time("hub.base64_ms", &mut || {
            std::hint::black_box(base64_encode(&raw));
        });
        time("hub.encode_full_ms", &mut || {
            std::hint::black_box(encode_frame_full(&frame, 1));
        });
        if i > 0 {
            let mut delta = None;
            time("hub.diff_ms", &mut || {
                delta = diff_images(&frames[i - 1], image, DELTA_TILE);
            });
            if let Some(delta) = delta {
                time("hub.encode_delta_ms", &mut || {
                    std::hint::black_box(encode_frame_delta(&frame, 1, i as u64, &delta));
                });
            }
        }
        let sequence = scratch.publish(frame);
        if sequence > 4 {
            // The first request for this (since, head) pair composes the
            // chain; later ones would hit the compose cache.
            time("hub.compose_chain_us", &mut || {
                std::hint::black_box(scratch.try_payload(sequence - 4, PollMode::Delta));
            });
        }
        time("hub.try_payload_us", &mut || {
            std::hint::black_box(scratch.try_payload(sequence - 1, PollMode::Full));
        });
    }
    for (metric, seconds) in timings {
        let unit = if metric.ends_with("_us") { 1e6 } else { 1e3 };
        outcome.set(metric, mean(&seconds) * unit);
    }
}

/// The `live_steer` workload.
pub fn live_steer(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        Shape {
            front_end: FrontEnd::Single,
            mode: "delta",
            live: true,
        },
    )
}

/// The `serve_full` workload.
pub fn serve_full(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        Shape {
            front_end: FrontEnd::Single,
            mode: "full",
            live: false,
        },
    )
}

/// The `serve_delta_multi` workload.
pub fn serve_delta_multi(ctx: &Ctx) -> Outcome {
    run(
        ctx,
        Shape {
            front_end: FrontEnd::Multi,
            mode: "delta",
            live: false,
        },
    )
}
