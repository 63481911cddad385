//! The one frame-paced loop driver behind [`crate::adapt`] and
//! [`crate::sessions`].
//!
//! [`drive`] pulls frames through any number of user loops on one
//! simulator: frame `k` of a loop is requested only after frame `k-1`
//! reached its client, the loop's [`Controller`] says which mapping each
//! frame runs on, and the loop migrates at the frame boundary when the
//! answer changes.  A single adaptive loop is the one-loop case; nothing
//! here branches on the loop count.  DESIGN.md §8.5 documents the
//! migration protocol and the four constants below, §11 the controllers
//! and why stage hosting is part of a lossy run's record.

use crate::adapt::MigrationRecord;
use crate::message::{ControlMessage, CONTROL_REDUNDANCY};
use crate::sessions::{SessionLoopSpec, SessionMux};
use crate::stage::{stage_configs, LinkTelemetrySink, StageApp, SESSION_ID_BOUND};
use ricsa_adapt::monitor::{AdaptMonitor, Decision};
use ricsa_netsim::dynamics::LinkEvent;
use ricsa_netsim::node::NodeId;
use ricsa_netsim::sim::Simulator;
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use ricsa_netsim::trace::TraceKind;
use ricsa_pipemap::dp::{optimize_with, DpOptions, OptimizedMapping};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::vrt::VisualizationRoutingTable;
use std::collections::{BTreeMap, HashSet};

/// Virtual seconds the simulator runs between looks at the trace.
const STEP_S: f64 = 0.25;
/// Drain window before a migration tears the old stages down: long enough
/// for the completed frame's final-ACK handshakes to settle, short against
/// any frame time.
const QUIESCE_S: f64 = 0.25;
/// Wait after a migration injects the VRT handoff, so the control datagrams
/// cross the WAN before the new loop is declared live.  Must exceed the
/// one-way control latency of any supported topology.
const HANDOFF_SETTLE_S: f64 = 0.05;
/// `BeginIteration` re-injections per frame before a loop counts as stalled.
const MAX_RETRIES: u32 = 16;

/// Incremental audit of the frames on a simulator's trace.  Completions are
/// attributed to loops by client node and frame starts by source node
/// (which is why concurrent loops need distinct endpoints); the cursor
/// keeps every trace event read once however often the audit is polled.
#[derive(Default)]
pub(crate) struct FrameAudit {
    pos: usize,
    /// `(client node, frame)` → (completions, first completion time).
    completions: BTreeMap<(usize, u64), (u32, f64)>,
    /// `(source node, frame)` → first `IterationStarted` time.
    starts: BTreeMap<(usize, u64), f64>,
}

/// One loop's share of a [`FrameAudit`].
#[derive(Default)]
pub(crate) struct LoopTally {
    /// Distinct frames delivered, and extra deliveries of any of them.
    pub completed: u64,
    pub duplicated: u64,
    /// Per delivered frame, frame order: the loop delay (image at the
    /// client minus dataset served at the source, the paper's Fig. 9
    /// quantity) and the start time.
    pub delays: Vec<f64>,
    pub starts: Vec<f64>,
    pub last_completion: Option<f64>,
}

impl FrameAudit {
    /// Read the trace events recorded since the last call.
    pub(crate) fn update(&mut self, sim: &Simulator) {
        let events = &sim.trace().events;
        for event in &events[self.pos..] {
            let (node, at) = (event.node.0, event.at.as_secs());
            match &event.kind {
                TraceKind::IterationCompleted { iteration, .. } => {
                    let frame = self.completions.entry((node, *iteration));
                    frame.or_insert((0, at)).0 += 1;
                }
                TraceKind::IterationStarted { iteration } => {
                    self.starts.entry((node, *iteration)).or_insert(at);
                }
                _ => {}
            }
        }
        self.pos = events.len();
    }

    /// Account the first `requested` frames of the loop `source → client`.
    pub(crate) fn tally(&self, source: usize, client: usize, requested: u64) -> LoopTally {
        let mut tally = LoopTally::default();
        let frames = self.completions.range((client, 0)..(client, requested));
        for (&(_, frame), &(count, finished)) in frames {
            tally.completed += 1;
            tally.duplicated += u64::from(count) - 1;
            tally.last_completion = Some(finished);
            if let Some(start) = self.starts.get(&(source, frame)) {
                tally.delays.push(finished - start);
                tally.starts.push(*start);
            }
        }
        tally
    }

    /// Account the loop of a trace that carries exactly one, reading its
    /// endpoints off the trace ([`crate::session::SteeringSession`] runs one
    /// session per simulator).
    pub(crate) fn sole_loop(&self) -> LoopTally {
        match (self.starts.keys().next(), self.completions.keys().next()) {
            (Some(&(source, _)), Some(&(client, _))) => self.tally(source, client, u64::MAX),
            _ => LoopTally::default(),
        }
    }
}

/// What decides the mapping each frame of a loop runs on.
pub(crate) enum Controller {
    /// Map once, never look again.
    Static,
    /// A monitor ingests the passive telemetry of every frame.  With
    /// `migrate`, the re-map it decides is `pending` until the next frame
    /// boundary; without, the monitor only keeps its estimates.
    Monitored {
        monitor: Box<AdaptMonitor>,
        migrate: bool,
        pending: Option<Box<OptimizedMapping>>,
    },
    /// Re-solve from scratch before every frame against the true link
    /// state, read from the simulator.  `timing` is the wall-clock
    /// microseconds spent in re-solves and their count.
    Oracle {
        options: DpOptions,
        timing: (f64, u64),
    },
}

impl Controller {
    pub(crate) fn monitored(monitor: AdaptMonitor, migrate: bool) -> Self {
        Controller::Monitored {
            monitor: Box::new(monitor),
            migrate,
            pending: None,
        }
    }

    pub(crate) fn monitor(&self) -> Option<&AdaptMonitor> {
        match self {
            Controller::Monitored { monitor, .. } => Some(monitor),
            _ => None,
        }
    }

    /// Wall-clock microseconds spent in re-solves, and how many ran.
    pub(crate) fn solve_timing(&self) -> (f64, u64) {
        match self {
            Controller::Static => (0.0, 0),
            Controller::Monitored { monitor, .. } => monitor.solve_timing(),
            Controller::Oracle { timing, .. } => *timing,
        }
    }

    /// A frame reached the client at `now`: feed the monitor the telemetry
    /// the frame produced, in sorted link order so the decision trace is
    /// deterministic, and keep any re-map it decides.
    fn frame_completed(&mut self, now: f64, telemetry: &LinkTelemetrySink) {
        let Controller::Monitored {
            monitor,
            migrate,
            pending,
        } = self
        else {
            return;
        };
        let snapshot: BTreeMap<_, _> = telemetry.borrow().clone().into_iter().collect();
        for ((from, to), t) in snapshot {
            monitor.ingest(from, to, &t);
        }
        if let Decision::Remap(next) = monitor.evaluate(now) {
            if *migrate {
                *pending = Some(next);
            }
        }
    }

    /// The mapping the next frame of `lp` must run on, when that is not
    /// `current`.  `sim` is the running WAN and `pristine` the mapper's
    /// view of it before any link changed.
    fn next_mapping(
        &mut self,
        sim: &Simulator,
        pristine: &NetGraph,
        lp: &SessionLoopSpec,
        current: &OptimizedMapping,
    ) -> Option<OptimizedMapping> {
        match self {
            Controller::Static => None,
            Controller::Monitored { pending, .. } => pending.take().map(|next| *next),
            Controller::Oracle { options, timing } => {
                // `NetGraph::from_topology` numbers its links as the
                // topology numbers its edges.
                let mut graph = pristine.clone();
                for edge in sim.topology().edges() {
                    let spec = sim.link_spec(edge.id)?;
                    let bandwidth = spec.mean_effective_bandwidth();
                    graph.set_measured_at(edge.id.0, bandwidth, spec.min_delay);
                }
                let started = std::time::Instant::now();
                let (solved, _) =
                    optimize_with(&lp.pipeline, &graph, lp.source.0, lp.client.0, options);
                timing.0 += started.elapsed().as_secs_f64() * 1e6;
                timing.1 += 1;
                // Any mapping change counts — a shifted module grouping on
                // the same path is still a different (better) deployment,
                // and the oracle exists to be the true re-solved optimum.
                solved.filter(|next| next.mapping != current.mapping)
            }
        }
    }
}

/// What all loops of one [`drive`] call share.
pub(crate) struct DriveSpec<'a> {
    pub topology: &'a Topology,
    /// The time-varying scenario applied to the WAN, time order.
    pub schedule: &'a [LinkEvent],
    /// Central-management node: injects `BeginIteration` and VRT handoffs.
    pub cm: NodeId,
    pub seed: u64,
    /// Target goodput of the stage-to-stage flows, bytes/second.
    pub target_goodput: f64,
    pub max_virtual_time: SimTime,
}

/// One user loop: what it is asked to do, and how far [`drive`] got.
pub(crate) struct LoopState {
    pub spec: SessionLoopSpec,
    pub controller: Controller,
    /// The mapping in force.
    current: OptimizedMapping,
    /// The frame being pulled through, and the `BeginIteration`
    /// re-injections spent on it.
    frame: u64,
    retries: u32,
    spawned: bool,
    done: bool,
    /// Frames requested from the data source.
    pub requested: u64,
    pub spawned_at: f64,
    /// When the loop delivered its last frame and retired.
    pub retired_at: Option<f64>,
    /// Data paths used: the initial mapping's, then one per migration.
    pub paths: Vec<Vec<usize>>,
    /// The data path of each delivered frame, frame order.
    pub frame_paths: Vec<Vec<usize>>,
    pub migrations: Vec<MigrationRecord>,
    telemetry: LinkTelemetrySink,
}

impl LoopState {
    /// A loop that will start on the mapping `initial`.
    pub(crate) fn new(
        spec: SessionLoopSpec,
        initial: OptimizedMapping,
        controller: Controller,
    ) -> Self {
        LoopState {
            done: false,
            spec,
            controller,
            paths: vec![initial.mapping.path.clone()],
            current: initial,
            frame: 0,
            retries: 0,
            spawned: false,
            requested: 0,
            spawned_at: 0.0,
            retired_at: None,
            frame_paths: Vec::new(),
            migrations: Vec::new(),
            telemetry: LinkTelemetrySink::default(),
        }
    }
}

/// The simulator of one [`drive`] call and the stages resident on it.
struct Driver<'a> {
    spec: &'a DriveSpec<'a>,
    sim: Simulator,
    /// The pristine WAN as the mapper sees it (stage processing times come
    /// from its node powers).
    graph: NetGraph,
    /// The mux hosting each node's resident stages.  A node's mux shell is
    /// installed into the simulator with the node's first stage and taken
    /// out with its last, so a node hosts an application exactly while some
    /// loop has a stage on it.
    hosts: BTreeMap<usize, SessionMux>,
}

impl Driver<'_> {
    /// The routing table of `mapping` and one stage per hop of it, paced
    /// externally (no client drive), refusing iterations before
    /// `first_iteration` and reporting telemetry into the loop's sink.
    fn stages(
        &self,
        lp: &LoopState,
        mapping: &OptimizedMapping,
        first_iteration: u64,
    ) -> Result<(VisualizationRoutingTable, Vec<StageApp>), String> {
        let (pipeline, goodput) = (&lp.spec.pipeline, self.spec.target_goodput);
        let (graph, predicted) = (&self.graph, mapping.delay.total);
        let mapping = &mapping.mapping;
        let vrt = VisualizationRoutingTable::from_mapping(pipeline, graph, mapping, predicted);
        let mut configs = stage_configs(pipeline, graph, mapping, &vrt, lp.spec.id, goodput)?;
        for config in &mut configs {
            config.first_iteration = first_iteration;
            config.telemetry = Some(lp.telemetry.clone());
        }
        Ok((vrt, configs.into_iter().map(StageApp::new).collect()))
    }

    fn host(&mut self, session: u64, path: &[usize], stages: Vec<StageApp>) {
        for (&node, stage) in path.iter().zip(stages) {
            let mux = self.hosts.entry(node).or_insert_with(|| {
                let mux = SessionMux::new();
                self.sim.install(NodeId(node), mux.shell());
                mux
            });
            mux.insert(session, stage);
        }
    }

    fn unhost(&mut self, session: u64, path: &[usize]) {
        for node in path {
            let Some(mux) = self.hosts.get(node) else {
                continue;
            };
            mux.remove(session);
            if mux.sessions().is_empty() {
                self.hosts.remove(node);
                self.sim.take_app(NodeId(*node));
            }
        }
    }

    fn run_for(&mut self, seconds: f64) {
        let until = SimTime::from_secs(self.sim.now().as_secs() + seconds);
        self.sim.run_until(until);
    }

    /// Migrate `lp` to `next` at its frame boundary; DESIGN.md §8.5 gives
    /// the reason for every step.  Other loops keep running throughout: the
    /// quiesce and settle windows advance the whole simulation.
    fn migrate(&mut self, lp: &mut LoopState, next: OptimizedMapping) -> Result<(), String> {
        // 1. Quiesce, 2. tear down.
        self.run_for(QUIESCE_S);
        self.unhost(lp.spec.id, &lp.current.mapping.path);
        // 3. Hand the new routing table off over the control channel.
        let (table, stages) = self.stages(lp, &next, lp.frame)?;
        let delivery = ControlMessage::VrtDelivery {
            session: lp.spec.id,
            table,
        };
        let cm = self.spec.cm;
        let mut handoff_messages = 0;
        for &node in next.mapping.path.iter().filter(|node| **node != cm.0) {
            for _ in 0..CONTROL_REDUNDANCY {
                self.sim.inject(cm, NodeId(node), delivery.to_payload());
                handoff_messages += 1;
            }
        }
        // 4. Resume on stages that refuse pre-migration iterations, and
        //    commit once the handoff had time to land.
        self.host(lp.spec.id, &next.mapping.path, stages);
        self.run_for(HANDOFF_SETTLE_S);
        lp.migrations.push(MigrationRecord {
            at: self.sim.now().as_secs(),
            first_iteration: lp.frame,
            old_path: lp.current.mapping.path.clone(),
            new_path: next.mapping.path.clone(),
            predicted_old: lp.current.delay.total,
            predicted_new: next.delay.total,
            handoff_messages,
        });
        lp.paths.push(next.mapping.path.clone());
        lp.current = next;
        Ok(())
    }

    /// Request `lp`'s current frame from its data source, on a new mapping
    /// when the controller says so.
    fn request_frame(&mut self, lp: &mut LoopState) -> Result<(), String> {
        let (spec, current) = (&lp.spec, &lp.current);
        if let Some(next) = lp
            .controller
            .next_mapping(&self.sim, &self.graph, spec, current)
        {
            self.migrate(lp, next)?;
        }
        lp.requested = lp.frame + 1;
        self.inject_begin(lp);
        Ok(())
    }

    /// CM-relayed semantics: the redundant `BeginIteration` crosses the WAN
    /// from the CM node.
    fn inject_begin(&mut self, lp: &LoopState) {
        let begin = ControlMessage::BeginIteration {
            session: lp.spec.id,
            iteration: lp.frame,
        };
        for _ in 0..CONTROL_REDUNDANCY {
            self.sim
                .inject(self.spec.cm, lp.spec.source, begin.to_payload());
        }
    }

    /// Host `lp`'s initial mapping at `now` and request its first frame.
    fn spawn(&mut self, lp: &mut LoopState, now: f64) -> Result<(), String> {
        (lp.spawned, lp.spawned_at) = (true, now);
        let (_, stages) = self.stages(lp, &lp.current, 0)?;
        self.host(lp.spec.id, &lp.current.mapping.path, stages);
        self.request_frame(lp)
    }
}

/// Refuse loops one run cannot carry: the frame audit attributes frames
/// by source and client node, the session mux routes datagrams by the
/// session bits of their flow id, and the CM sends each source its
/// `BeginIteration` across the WAN.
fn check_loops(spec: &DriveSpec, loops: &[LoopState]) -> Result<(), String> {
    let (mut ids, mut sources, mut clients) = (HashSet::new(), HashSet::new(), HashSet::new());
    for s in loops.iter().map(|lp| &lp.spec) {
        if s.id >= SESSION_ID_BOUND {
            return Err(format!("session id {} overflows the flow-id bits", s.id));
        }
        if !ids.insert(s.id) {
            return Err(format!("duplicate session id {}", s.id));
        }
        if !sources.insert(s.source) {
            return Err(format!("session {}: duplicate source node", s.id));
        }
        if !clients.insert(s.client) {
            return Err(format!("session {}: duplicate client node", s.id));
        }
        if s.source == spec.cm {
            return Err(format!(
                "session {}: the CM must not be a data source",
                s.id
            ));
        }
        if s.frames == 0 {
            return Err(format!("session {}: zero frames requested", s.id));
        }
    }
    Ok(())
}

/// Pull every loop's frames through one simulated WAN, concurrently.
/// Returns the frame audit and the virtual time the run ended; each loop's
/// progress is left in its [`LoopState`].  Errors when the loops cannot
/// share the run (duplicate ids, sources or clients, the CM on a data
/// source, an id overflowing the flow-id session bits, zero frames), the
/// topology is invalid or a mapping's data path revisits a node.
pub(crate) fn drive(
    spec: &DriveSpec,
    loops: &mut [LoopState],
) -> Result<(FrameAudit, f64), String> {
    check_loops(spec, loops)?;
    let mut sim = Simulator::try_new(spec.topology.clone(), spec.seed)?;
    for event in spec.schedule {
        sim.schedule_link_change(event.at, event.link, event.change.clone());
    }
    // Apply the link changes due at t = 0 before any loop spawns: a
    // controller deciding a loop's first frame reads them off the
    // simulator.  Nothing else is queued yet.
    sim.run_until(SimTime::ZERO);
    // The simulator clock only advances while events are queued; if every
    // live loop retires while a later `start_at` is still pending, the WAN
    // goes idle and time would stand still.  A wake-up at each future spawn
    // keeps the queue alive up to that moment.
    for lp in loops.iter().filter(|lp| lp.spec.start_at > 0.0) {
        sim.wake_at(SimTime::from_secs(lp.spec.start_at));
    }
    let (graph, hosts) = (NetGraph::from_topology(spec.topology), BTreeMap::new());
    let mut driver = Driver {
        spec,
        sim,
        graph,
        hosts,
    };
    let mut audit = FrameAudit::default();

    let live = |lp: &&mut LoopState| !lp.done;
    for lp in loops.iter_mut().filter(live) {
        if lp.spec.start_at <= 0.0 {
            driver.spawn(lp, 0.0)?;
        }
    }
    while loops.iter().any(|lp| !lp.done) && driver.sim.now() < spec.max_virtual_time {
        let step = SimTime::from_secs(driver.sim.now().as_secs() + STEP_S);
        let target = step.min(spec.max_virtual_time);
        let reached = driver.sim.run_until(target);
        audit.update(&driver.sim);
        // The event queue drained before the step ended: a loop still
        // waiting for its frame lost every redundant `BeginIteration` copy
        // on the way to the source (nothing else leaves a loop idle).
        let drained = reached.as_secs() + 1e-9 < target.as_secs();
        let now = driver.sim.now().as_secs();

        for lp in loops.iter_mut().filter(live) {
            if !lp.spawned {
                // Late spawns join the contention when their time comes.
                if now >= lp.spec.start_at {
                    driver.spawn(lp, now)?;
                }
            } else if audit
                .completions
                .contains_key(&(lp.spec.client.0, lp.frame))
            {
                // Frame boundary.
                lp.retries = 0;
                lp.frame_paths.push(lp.current.mapping.path.clone());
                lp.controller.frame_completed(now, &lp.telemetry);
                lp.frame += 1;
                if lp.frame < lp.spec.frames {
                    driver.request_frame(lp)?;
                } else {
                    // Retire: the loop is complete; free its nodes and links.
                    (lp.done, lp.retired_at) = (true, Some(now));
                    driver.unhost(lp.spec.id, &lp.current.mapping.path);
                }
            } else if drained {
                // Ask again, a bounded number of times.
                lp.retries += 1;
                lp.done = lp.retries > MAX_RETRIES;
                if !lp.done {
                    driver.inject_begin(lp);
                }
            }
        }
    }
    audit.update(&driver.sim);
    Ok((audit, driver.sim.now().as_secs()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapt::{demo_wan, run_adaptive_loop, AdaptPolicy, AdaptiveLoopSpec};
    use crate::sessions::{contention_wan, demo_session_pipeline};
    use ricsa_adapt::monitor::AdaptConfig;
    use ricsa_netsim::dynamics::{DynamicScenario, LinkChange};
    use ricsa_netsim::link::LinkId;
    use ricsa_netsim::loss::LossModel;

    /// A late spawn's wake-up leaves the links alone: an oracle loop that
    /// spawns at t = 1 still sees the trunk at the 1 % it was scaled to at
    /// t = 0, and keeps every frame off it.
    #[test]
    fn a_late_spawn_leaves_a_scaled_link_scaled() {
        let wan = contention_wan(1);
        let spec = SessionLoopSpec {
            id: 1,
            pipeline: demo_session_pipeline(1.0),
            source: wan.sources[0],
            client: wan.clients[0],
            frames: 2,
            start_at: 1.0,
        };
        let options = DpOptions::relayed();
        let graph = NetGraph::from_topology(&wan.topology);
        let (source, client) = (spec.source.0, spec.client.0);
        let initial = optimize_with(&spec.pipeline, &graph, source, client, &options)
            .0
            .expect("the contention WAN admits a mapping");
        let crosses_trunk =
            |path: &[usize]| path.windows(2).any(|w| (w[0], w[1]) == wan.trunk_nodes());
        assert!(crosses_trunk(&initial.mapping.path));
        assert_eq!(wan.trunk.0, LinkId(0));
        let schedule = [LinkEvent {
            at: SimTime::ZERO,
            link: wan.trunk.0,
            change: LinkChange::ScaleBandwidth { factor: 0.01 },
        }];
        let controller = Controller::Oracle {
            options,
            timing: (0.0, 0),
        };
        let mut loops = [LoopState::new(spec, initial, controller)];
        let drive_spec = DriveSpec {
            topology: &wan.topology,
            schedule: &schedule,
            cm: wan.cm,
            seed: 17,
            target_goodput: 200e6,
            max_virtual_time: SimTime::from_secs(120.0),
        };
        drive(&drive_spec, &mut loops).expect("one loop on its own WAN runs");
        let frame_paths = &loops[0].frame_paths;
        assert_eq!(frame_paths.len(), 2);
        assert!(
            frame_paths.iter().all(|path| !crosses_trunk(path)),
            "{frame_paths:?}"
        );
    }

    /// A control channel that loses everything: every `BeginIteration`
    /// copy dies on the CM's links, so each step ends with the queue
    /// drained and the frame unstarted.  The driver re-injects the request
    /// `MAX_RETRIES` times, then gives the frame up: the run is an `Ok`
    /// record with the frame lost, not a hang.  A drained step does not
    /// move the clock, so the exit is the only thing that ends the run
    /// before its 600 s budget.
    #[test]
    fn a_loop_whose_every_begin_is_lost_gives_its_frame_up() {
        let wan = demo_wan();
        let mut topology = Topology::new();
        for (_, node) in wan.topology.nodes() {
            topology.add_node(node.clone());
        }
        for edge in wan.topology.edges() {
            let mut link = edge.spec.clone();
            if edge.from == wan.cm || edge.to == wan.cm {
                link = link.with_loss(LossModel::Bernoulli { p: 1.0 });
            }
            topology.connect_directed(edge.from, edge.to, link);
        }
        let spec = AdaptiveLoopSpec {
            topology,
            schedule: DynamicScenario::empty(),
            pipeline: demo_session_pipeline(1.0),
            source: wan.source,
            client: wan.client,
            cm: wan.cm,
            iterations: 1,
            seed: 11,
            target_goodput: 200e6,
            adapt: AdaptConfig::default(),
            session: 1,
            max_virtual_time: SimTime::from_secs(600.0),
        };
        let (tx, rx) = std::sync::mpsc::channel();
        let lossy = spec.clone();
        let worker = std::thread::spawn(move || {
            let _ = tx.send(run_adaptive_loop(&lossy, AdaptPolicy::Static));
        });
        let run = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the run returns within 30 s")
            .expect("a lost frame is a record, not an error");
        worker.join().expect("the run's thread exits cleanly");
        assert_eq!(run.frames_requested, 1);
        assert_eq!((run.frames_completed, run.frames_lost), (0, 1));
        assert!(run.delays.is_empty() && run.migrations.is_empty());
        // The same loop through the driver: it stopped after exactly
        // `MAX_RETRIES` re-injections, inside `MAX_RETRIES + 2` steps of
        // virtual time.
        let graph = NetGraph::from_topology(&spec.topology);
        let (source, client) = (spec.source.0, spec.client.0);
        let options = &spec.adapt.options;
        let initial = optimize_with(&spec.pipeline, &graph, source, client, options).0;
        let initial = initial.expect("the demo WAN admits a mapping");
        let session = SessionLoopSpec {
            id: spec.session,
            pipeline: spec.pipeline.clone(),
            source: spec.source,
            client: spec.client,
            frames: 1,
            start_at: 0.0,
        };
        let mut loops = [LoopState::new(session, initial, Controller::Static)];
        let drive_spec = DriveSpec {
            topology: &spec.topology,
            schedule: &[],
            cm: spec.cm,
            seed: spec.seed,
            target_goodput: spec.target_goodput,
            max_virtual_time: spec.max_virtual_time,
        };
        let (_, ended) = drive(&drive_spec, &mut loops).expect("the loop runs");
        assert!(loops[0].done);
        assert_eq!(loops[0].retries, MAX_RETRIES + 1);
        assert!(
            ended < (MAX_RETRIES + 2) as f64 * STEP_S,
            "ended at {ended}"
        );
    }
}
