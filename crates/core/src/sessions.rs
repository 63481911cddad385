//! Multi-session serving: many frame-paced user loops on one WAN.
//!
//! One RICSA deployment serves many users at once, each steering their own
//! pipeline.  All those loops run against the *same* simulated WAN — the
//! sessions contend for links, and one session's traffic is another
//! session's cross-traffic.  This module is the session manager:
//!
//! * [`SessionMux`] — the per-node application that lets several sessions'
//!   [`StageApp`]s share a node: datagrams are routed by the session
//!   encoded in their flow id (or control-message session field), and
//!   timers are routed to the stage that armed them.  Sessions can be
//!   inserted and removed while the simulation runs, which is how loops
//!   spawn, retire and migrate live.
//! * [`run_multi_session`] — validates the spec, maps the N loops under a
//!   [`MappingPolicy`] (independent per-session solves, the
//!   contention-aware joint solve of [`ricsa_pipemap::joint`], or the
//!   client/server baseline), hands them to the frame-paced driver (the
//!   crate-private `driver` module, which also runs the single loop of
//!   [`crate::adapt`]) and assembles the per-session record from the
//!   driver's frame audit: every requested frame delivered exactly once.
//! * Every session gets an adaptive monitor ([`ricsa_adapt`]) fed its own
//!   loop's passive telemetry.  Because links are shared, a monitor's
//!   estimates move when *other* sessions load or free a link: a retiring
//!   (or migrating) session frees bandwidth and the survivors' detectors
//!   see the recovery.  With `adaptive` enabled, a confirmed improvement
//!   migrates the session at its next frame boundary (DESIGN.md §8.5);
//!   without, the monitors only keep their estimates.
//! * [`contention_wan`] — the N-session benchmark WAN: every session has a
//!   fast route over a shared two-hub trunk and a private (slightly
//!   slower) relay route.  Independent solves all pile onto the trunk;
//!   the joint solve spreads the load.
//!
//! DESIGN.md §11 documents the layer; `sweep session` (the bench bin over
//! [`crate::session_sweep`]) quantifies
//! joint-vs-independent-vs-client/server across session counts.

use crate::driver::{drive, Controller, DriveSpec, LoopState};
use crate::message::{ControlMessage, KIND_CONTROL};
use crate::stage::{armed_since, StageApp};
use ricsa_adapt::monitor::{AdaptConfig, AdaptMonitor};
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::link::{LinkId, LinkSpec};
use ricsa_netsim::node::{NodeId, NodeSpec};
use ricsa_netsim::packet::{Datagram, Payload};
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use ricsa_pipemap::delay::{evaluate_mapping, Mapping};
use ricsa_pipemap::dp::{optimize_with, OptimizedMapping};
use ricsa_pipemap::joint::{contended_delays, solve_joint, JointOptions, JointSession};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use ricsa_pipemap::sweep::client_server_on_route;
use ricsa_transport::flow::{KIND_ACK, KIND_DATA};
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::rc::Rc;

// ------------------------------------------------------------ session mux

/// Mutable state shared between a node's installed mux shell and the
/// session manager's handle to it.
#[derive(Default)]
struct MuxState {
    /// Session id → that session's stage on this node.
    inners: BTreeMap<u64, StageApp>,
    /// Timer id → the session whose stage armed it.  Ids are per-node
    /// monotonic and fire at most once, so entries are removed on fire;
    /// a timer whose owner has since been removed is dropped.
    timer_owner: HashMap<u64, u64>,
}

/// Route one callback into a session's inner stage, recording any timers
/// the stage arms during the callback as owned by that session.
fn deliver(
    state: &mut MuxState,
    session: u64,
    ctx: &mut Context,
    f: impl FnOnce(&mut StageApp, &mut Context),
) {
    let MuxState {
        inners,
        timer_owner,
    } = state;
    let Some(app) = inners.get_mut(&session) else {
        return;
    };
    let before = ctx.scheduled_timers().len();
    f(app, ctx);
    timer_owner.extend(armed_since(ctx, before).map(|timer| (timer, session)));
}

/// The session a datagram belongs to: the session field of a control
/// message when it has one, otherwise the high bits of the transport flow
/// id ([`crate::stage::flow_id`] packs the session at bit 40).  `None`
/// means "no session identity" and the datagram is offered to every
/// resident stage (each filters by its own configuration).
fn datagram_session(payload: &Payload) -> Option<u64> {
    if payload.kind == KIND_CONTROL {
        return match ControlMessage::from_payload(payload)? {
            ControlMessage::VrtDelivery { session, .. }
            | ControlMessage::BeginIteration { session, .. }
            | ControlMessage::ImageReady { session, .. } => Some(session),
            _ => None,
        };
    }
    match payload.kind {
        KIND_DATA | KIND_ACK => Some(payload.flow >> 40),
        _ => None,
    }
}

/// A node application multiplexing the pipeline stages of many sessions.
///
/// The shell installed into the simulator and the handles the session
/// manager keeps share one [`Rc`]'d state, so stages can be inserted and
/// removed while the simulation runs — that is how sessions spawn, retire
/// and migrate live.  Resident stages never receive `on_start`: this
/// manager configures no client drive, whose initial request is the only
/// thing `StageApp::on_start` does.
#[derive(Clone, Default)]
pub struct SessionMux {
    state: Rc<RefCell<MuxState>>,
}

impl SessionMux {
    /// An empty mux.
    pub fn new() -> Self {
        SessionMux::default()
    }

    /// Insert (or replace) `session`'s stage on this node.
    pub fn insert(&self, session: u64, app: StageApp) {
        self.state.borrow_mut().inners.insert(session, app);
    }

    /// Remove `session`'s stage; its not-yet-fired timers will be dropped
    /// when they fire.  Returns whether a stage was resident.
    pub fn remove(&self, session: u64) -> bool {
        self.state.borrow_mut().inners.remove(&session).is_some()
    }

    /// Session ids with a resident stage, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        self.state.borrow().inners.keys().copied().collect()
    }

    /// A shell sharing this mux's state, boxed for
    /// [`ricsa_netsim::sim::Simulator::install`].
    pub fn shell(&self) -> Box<dyn Application> {
        Box::new(self.clone())
    }
}

impl Application for SessionMux {
    fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
        let state = &mut *self.state.borrow_mut();
        match datagram_session(&dg.payload) {
            Some(session) => deliver(state, session, ctx, |app, ctx| app.on_datagram(ctx, dg)),
            None => {
                let ids: Vec<u64> = state.inners.keys().copied().collect();
                for session in ids {
                    let copy = dg.clone();
                    deliver(state, session, ctx, |app, ctx| app.on_datagram(ctx, copy));
                }
            }
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, timer_id: u64) {
        let state = &mut *self.state.borrow_mut();
        let Some(session) = state.timer_owner.remove(&timer_id) else {
            return;
        };
        deliver(state, session, ctx, |app, ctx| app.on_timer(ctx, timer_id));
    }
}

// -------------------------------------------------------------- the spec

/// How the manager maps the contending sessions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingPolicy {
    /// Every session solves the pristine graph in isolation (and they all
    /// pile onto the same "optimal" links).
    Independent,
    /// The contention-aware joint solve of [`ricsa_pipemap::joint`].
    Joint,
    /// The paper's client/server baseline: ship everything over the
    /// default route and compute at the endpoints.
    ClientServer,
}

impl MappingPolicy {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            MappingPolicy::Independent => "independent",
            MappingPolicy::Joint => "joint",
            MappingPolicy::ClientServer => "client-server",
        }
    }
}

/// One user loop in a multi-session run.
#[derive(Debug, Clone)]
pub struct SessionLoopSpec {
    /// Session identifier (flow-id namespace; must be unique and below
    /// `2^24` so it fits the flow-id session bits).
    pub id: u64,
    /// The session's visualization pipeline.
    pub pipeline: Pipeline,
    /// Data-source node (must be unique per session: frame starts are
    /// attributed to sessions by source node).
    pub source: NodeId,
    /// Client node (must be unique per session: frame completions are
    /// attributed to sessions by client node).
    pub client: NodeId,
    /// Frames to pull through the loop before the session retires.
    pub frames: u64,
    /// Virtual time at which the loop spawns (0 = at simulation start).
    pub start_at: f64,
}

/// Everything one multi-session run is configured with.
#[derive(Debug, Clone)]
pub struct MultiSessionSpec {
    /// The shared WAN.
    pub topology: Topology,
    /// Central-management node (injects `BeginIteration` and VRT
    /// handoffs; must not be any session's data source).
    pub cm: NodeId,
    /// The user loops.
    pub sessions: Vec<SessionLoopSpec>,
    /// How the sessions are mapped.
    pub policy: MappingPolicy,
    /// Simulator seed.
    pub seed: u64,
    /// Target goodput of the stage-to-stage flows, bytes/second.
    pub target_goodput: f64,
    /// Wire a per-session [`AdaptMonitor`] and migrate a session at its
    /// frame boundary when its monitor confirms a better mapping.
    /// Monitors also run (estimates only) when this is off.
    pub adaptive: bool,
    /// Monitor configuration (also supplies the DP options every policy
    /// solves with).
    pub adapt: AdaptConfig,
    /// Round bound for the joint best-response iteration.
    pub joint_rounds: usize,
    /// Virtual-time budget for the whole run.
    pub max_virtual_time: SimTime,
}

// ------------------------------------------------------------- the result

/// Per-session outcome of a multi-session run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionRun {
    /// Session identifier.
    pub id: u64,
    /// Data paths used, in order (initial mapping, then one per
    /// migration).
    pub paths: Vec<Vec<usize>>,
    /// Frames requested.
    pub requested: u64,
    /// Distinct frames delivered to the client.
    pub completed: u64,
    /// Requested frames never delivered (0 on a healthy run).
    pub lost: u64,
    /// Extra deliveries of an already-delivered frame (0 on a healthy
    /// run).
    pub duplicated: u64,
    /// Measured end-to-end delay of each completed frame, frame order.
    pub delays: Vec<f64>,
    /// Virtual start time of each completed frame, frame order.
    pub starts: Vec<f64>,
    /// Migrations executed.
    pub migrations: u64,
    /// Virtual time the loop spawned.
    pub spawned_at: f64,
    /// Virtual time the loop retired (`None` if it ran out the budget).
    pub retired_at: Option<f64>,
    /// Frames per virtual second over the session's active window.
    pub fps: f64,
    /// Final per-link bandwidth-scale estimates of the session's monitor
    /// (`(from, to, current/baseline goodput)`): > 1 on a link whose
    /// congestion receded while the session watched it.
    pub link_scales: Vec<(usize, usize, f64)>,
}

/// The outcome of one multi-session run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MultiSessionRun {
    /// Mapping policy name.
    pub policy: String,
    /// Per-session outcomes, spec order.
    pub sessions: Vec<SessionRun>,
    /// Virtual time the run ended.
    pub duration: f64,
    /// Total completed frames across sessions divided by the virtual time
    /// from first spawn to last completion.
    pub aggregate_fps: f64,
    /// Jain fairness index of the per-session frame rates.
    pub fairness: f64,
    /// The solver's predicted aggregate frame delay, scored for every
    /// policy under the same contended model (each link's bandwidth
    /// divided by its total assigned load), so values are comparable
    /// across policies.
    pub predicted_aggregate: f64,
}

/// Jain's fairness index `(Σx)² / (n·Σx²)`: 1 when every session gets the
/// same rate, `1/n` when one session gets everything.  1 for an empty (or
/// all-zero) input by convention.
pub fn jain_fairness(rates: &[f64]) -> f64 {
    let sum: f64 = rates.iter().sum();
    let squares: f64 = rates.iter().map(|r| r * r).sum();
    if squares <= 0.0 || rates.is_empty() {
        return 1.0;
    }
    (sum * sum) / (rates.len() as f64 * squares)
}

// -------------------------------------------------------------- the WAN

/// The N-session contention WAN (see [`contention_wan`]).
#[derive(Debug, Clone)]
pub struct ContentionWan {
    /// The topology.
    pub topology: Topology,
    /// First trunk hub.
    pub hub1: NodeId,
    /// Second trunk hub.
    pub hub2: NodeId,
    /// Per-session data sources.
    pub sources: Vec<NodeId>,
    /// Per-session private relay nodes.
    pub mids: Vec<NodeId>,
    /// Per-session clients.
    pub clients: Vec<NodeId>,
    /// Central-management node.
    pub cm: NodeId,
    /// Both directions of the shared hub1–hub2 trunk.
    pub trunk: (LinkId, LinkId),
}

impl ContentionWan {
    /// The trunk's endpoint node indices `(hub1, hub2)` — a data path
    /// crosses the trunk iff these appear adjacent in it.
    pub fn trunk_nodes(&self) -> (usize, usize) {
        (self.hub1.0, self.hub2.0)
    }
}

/// Build the `n`-session contention WAN: session `i` owns source `S_i`,
/// relay `M_i` and client `C_i`.  The fast route `S_i → hub1 → hub2 → C_i`
/// shares the hub trunk with every other session; the private route
/// `S_i → M_i → C_i` is slightly slower but uncontended.  The hubs are
/// pure routers (weak, no graphics), so the bulk geometry must cross the
/// trunk rather than being rendered down before it.  In isolation the
/// trunk wins, so independent solves all pile onto it; with the trunk
/// split k ways the private route wins, which is what the joint solve
/// (and an adaptive monitor watching goodput collapse) discovers.
pub fn contention_wan(n: usize) -> ContentionWan {
    let mut t = Topology::new();
    let hub1 = t.add_node(NodeSpec::headless("hub1", 0.5));
    let hub2 = t.add_node(NodeSpec::headless("hub2", 0.5));
    let cm = t.add_node(NodeSpec::workstation("cm", 1.0));
    let trunk = t.connect(hub1, hub2, LinkSpec::from_mbps(320.0, 0.008));
    let mut sources = Vec::with_capacity(n);
    let mut mids = Vec::with_capacity(n);
    let mut clients = Vec::with_capacity(n);
    for i in 0..n {
        let s = t.add_node(NodeSpec::headless(format!("src{i}"), 1.0));
        let m = t.add_node(NodeSpec::headless(format!("mid{i}"), 2.0));
        let c = t.add_node(NodeSpec::workstation(format!("client{i}"), 1.5));
        t.connect(s, hub1, LinkSpec::from_mbps(400.0, 0.004));
        t.connect(hub2, c, LinkSpec::from_mbps(400.0, 0.004));
        t.connect(s, m, LinkSpec::from_mbps(200.0, 0.012));
        t.connect(m, c, LinkSpec::from_mbps(200.0, 0.012));
        t.connect(cm, s, LinkSpec::from_mbps(80.0, 0.010));
        t.connect(cm, c, LinkSpec::from_mbps(80.0, 0.010));
        sources.push(s);
        mids.push(m);
        clients.push(c);
    }
    ContentionWan {
        topology: t,
        hub1,
        hub2,
        sources,
        mids,
        clients,
        cm,
        trunk,
    }
}

/// A transfer-dominated demonstration pipeline for multi-session runs;
/// `scale` varies the data volume so co-scheduled sessions differ.  The
/// geometry stays large until the final render (extraction enriches
/// rather than decimates), so the bulk transfer crosses whatever
/// wide-area link the mapping picks — which is what makes sessions
/// genuinely contend on a shared trunk.
pub fn demo_session_pipeline(scale: f64) -> Pipeline {
    use ricsa_pipemap::pipeline::ModuleSpec;
    Pipeline::new(
        "session",
        1.6e6 * scale,
        vec![
            ModuleSpec::new("filter", 2e-9, 1.6e6 * scale),
            ModuleSpec::new("extract", 1e-8, 1.2e6 * scale),
            ModuleSpec::new("render", 5e-9, 1.6e5 * scale).requiring_graphics(),
        ],
    )
}

// ------------------------------------------------------------ the driver

/// Solve the initial mappings under the spec's policy.  Returns one
/// mapping per session, its `objective` the delay predicted under
/// contention, and the solver's predicted aggregate.
fn solve_mappings(
    spec: &MultiSessionSpec,
    graph: &NetGraph,
) -> Result<(Vec<OptimizedMapping>, f64), String> {
    let joint_sessions: Vec<JointSession> = spec
        .sessions
        .iter()
        .map(|s| JointSession {
            pipeline: s.pipeline.clone(),
            source: s.source.0,
            destination: s.client.0,
        })
        .collect();
    let mappings: Vec<Mapping> = match spec.policy {
        MappingPolicy::Independent => {
            let mut out = Vec::with_capacity(spec.sessions.len());
            for s in &spec.sessions {
                let (opt, _) = optimize_with(
                    &s.pipeline,
                    graph,
                    s.source.0,
                    s.client.0,
                    &spec.adapt.options,
                );
                let opt = opt.ok_or_else(|| format!("session {}: no feasible mapping", s.id))?;
                out.push(opt.mapping);
            }
            out
        }
        MappingPolicy::Joint => {
            let options = JointOptions {
                max_rounds: spec.joint_rounds,
                dp: spec.adapt.options,
            };
            let solution = solve_joint(&joint_sessions, graph, &options)
                .ok_or_else(|| "joint solve: some session has no feasible mapping".to_string())?;
            solution.mappings
        }
        MappingPolicy::ClientServer => {
            let mut out = Vec::with_capacity(spec.sessions.len());
            for s in &spec.sessions {
                let (mapping, _) =
                    client_server_on_route(&s.pipeline, graph, s.source.0, s.client.0)
                        .ok_or_else(|| format!("session {}: no route at all", s.id))?;
                out.push(mapping);
            }
            out
        }
    };
    // Predict every policy's outcome under the same contended model (each
    // link's bandwidth divided by its total assigned load), so aggregates
    // are comparable across policies — and the joint policy's guarantee
    // (never worse than independent under this objective) is visible in
    // the run records.
    let contended = contended_delays(&joint_sessions, graph, &mappings);
    let aggregate = contended.iter().map(|d| d.total).sum();
    let solved = spec.sessions.iter().zip(mappings).zip(contended);
    let solved = solved.map(|((s, mapping), contended)| OptimizedMapping {
        delay: evaluate_mapping(&s.pipeline, graph, &mapping),
        mapping,
        objective: contended.total,
    });
    Ok((solved.collect(), aggregate))
}

/// Run N frame-paced user loops concurrently on one simulated WAN.
/// Errors only on structurally impossible input: duplicate session
/// ids/sources/clients, the CM on a data source, an id overflowing the
/// flow-id session bits, or a session with no feasible mapping.
pub fn run_multi_session(spec: &MultiSessionSpec) -> Result<MultiSessionRun, String> {
    // Structural validation: the audit attributes frames by node.
    let mut ids = HashSet::new();
    let mut sources = HashSet::new();
    let mut clients = HashSet::new();
    for s in &spec.sessions {
        if s.id >= 1 << 24 {
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

    let base_graph = NetGraph::from_topology(&spec.topology);
    let (solved, predicted_aggregate) = solve_mappings(spec, &base_graph)?;

    // Every session watches its own loop; `adaptive` decides whether what
    // its monitor concludes moves the session.
    let mut loops: Vec<LoopState> = spec
        .sessions
        .iter()
        .zip(solved)
        .map(|(s, initial)| {
            let monitor = AdaptMonitor::with_initial(
                s.pipeline.clone(),
                base_graph.clone(),
                s.source.0,
                s.client.0,
                spec.adapt.clone(),
                initial.clone(),
            );
            let controller = Controller::monitored(monitor, spec.adaptive);
            LoopState::new(s.clone(), initial, controller)
        })
        .collect();
    let (audit, duration) = drive(
        &DriveSpec {
            topology: &spec.topology,
            schedule: &[],
            cm: spec.cm,
            seed: spec.seed,
            target_goodput: spec.target_goodput,
            max_virtual_time: spec.max_virtual_time,
        },
        &mut loops,
    )?;

    // Per-session accounting.
    let mut runs = Vec::with_capacity(loops.len());
    let mut total_completed = 0u64;
    let mut last_completion: f64 = 0.0;
    for lp in loops {
        let requested = lp.requested;
        let tally = audit.tally(lp.spec.source.0, lp.spec.client.0, requested);
        let session_last = tally.last_completion.unwrap_or(lp.spawned_at);
        let window = (session_last - lp.spawned_at).max(f64::EPSILON);
        total_completed += tally.completed;
        last_completion = last_completion.max(session_last);
        let link_scales = lp.controller.monitor().map(|m| {
            m.estimates()
                .iter()
                .map(|(&(from, to), e)| (from, to, e.scale))
                .collect()
        });
        runs.push(SessionRun {
            id: lp.spec.id,
            paths: lp.paths,
            requested,
            completed: tally.completed,
            lost: requested - tally.completed,
            duplicated: tally.duplicated,
            delays: tally.delays,
            starts: tally.starts,
            migrations: lp.migrations.len() as u64,
            spawned_at: lp.spawned_at,
            retired_at: lp.retired_at,
            fps: tally.completed as f64 / window,
            link_scales: link_scales.unwrap_or_default(),
        });
    }
    let rates: Vec<f64> = runs.iter().map(|run| run.fps).collect();
    Ok(MultiSessionRun {
        policy: spec.policy.name().to_string(),
        sessions: runs,
        duration,
        aggregate_fps: total_completed as f64 / last_completion.max(f64::EPSILON),
        fairness: jain_fairness(&rates),
        predicted_aggregate,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage::StageConfig;

    fn spec_scaled(
        wan: &ContentionWan,
        frames: &[u64],
        policy: MappingPolicy,
        scale: f64,
    ) -> MultiSessionSpec {
        let sessions = frames
            .iter()
            .enumerate()
            .map(|(i, &frames)| SessionLoopSpec {
                id: (i + 1) as u64,
                pipeline: demo_session_pipeline(scale * (1.0 + 0.1 * i as f64)),
                source: wan.sources[i],
                client: wan.clients[i],
                frames,
                start_at: 0.0,
            })
            .collect();
        MultiSessionSpec {
            topology: wan.topology.clone(),
            cm: wan.cm,
            sessions,
            policy,
            seed: 17,
            target_goodput: 200e6,
            adaptive: false,
            adapt: AdaptConfig::default(),
            joint_rounds: 6,
            max_virtual_time: SimTime::from_secs(600.0),
        }
    }

    fn spec_for(wan: &ContentionWan, frames: &[u64], policy: MappingPolicy) -> MultiSessionSpec {
        spec_scaled(wan, frames, policy, 1.0)
    }

    fn healthy(run: &MultiSessionRun) {
        for s in &run.sessions {
            assert_eq!(s.lost, 0, "session {}: lost frames", s.id);
            assert_eq!(s.duplicated, 0, "session {}: duplicated frames", s.id);
            assert_eq!(s.completed, s.requested, "session {}", s.id);
            assert!(s.delays.iter().all(|d| *d > 0.0), "session {}", s.id);
        }
    }

    #[test]
    fn single_session_smoke() {
        let wan = contention_wan(1);
        let run = run_multi_session(&spec_for(&wan, &[2], MappingPolicy::Independent)).unwrap();
        healthy(&run);
        assert_eq!(run.sessions[0].paths.len(), 1, "no migrations expected");
        assert!(run.duration > 0.0);
    }

    #[test]
    fn concurrent_sessions_share_trunk_nodes_and_lose_nothing() {
        let wan = contention_wan(2);
        let spec = spec_for(&wan, &[5, 5], MappingPolicy::Independent);
        let run = run_multi_session(&spec).unwrap();
        healthy(&run);
        // Independent solves both ride the shared trunk, so hub1 carries
        // two sessions' stages at once — the mux under test.
        for s in &run.sessions {
            assert!(
                s.paths[0].contains(&wan.hub1.0),
                "session {} should ride the trunk: {:?}",
                s.id,
                s.paths
            );
        }
        assert!(run.aggregate_fps > 0.0);
        assert!(run.fairness > 0.5, "fairness {}", run.fairness);
    }

    #[test]
    fn joint_policy_spreads_sessions_and_beats_independent_delays() {
        let wan = contention_wan(3);
        let independent =
            run_multi_session(&spec_for(&wan, &[4, 4, 4], MappingPolicy::Independent)).unwrap();
        let joint = run_multi_session(&spec_for(&wan, &[4, 4, 4], MappingPolicy::Joint)).unwrap();
        healthy(&independent);
        healthy(&joint);
        // The joint solve moved someone onto a private relay route.
        assert!(
            joint
                .sessions
                .iter()
                .any(|s| wan.mids.iter().any(|m| s.paths[0].contains(&m.0))),
            "joint should use a private route: {:?}",
            joint.sessions.iter().map(|s| &s.paths).collect::<Vec<_>>()
        );
        // The *measured* per-frame delays under the contended simulation
        // are better in aggregate for the joint mapping.
        let mean = |run: &MultiSessionRun| {
            let all: Vec<f64> = run.sessions.iter().flat_map(|s| s.delays.clone()).collect();
            all.iter().sum::<f64>() / all.len() as f64
        };
        assert!(
            mean(&joint) < mean(&independent),
            "joint {} not better than independent {}",
            mean(&joint),
            mean(&independent)
        );
        // And the solver's own prediction agrees.
        assert!(joint.predicted_aggregate <= independent.predicted_aggregate + 1e-9);
    }

    #[test]
    fn retiring_session_frees_the_trunk_and_the_survivor_sees_recovery() {
        let wan = contention_wan(2);
        // Session 1 retires after 3 frames; session 2 keeps pulling.
        // Heavy frames (scale 4 ≈ 6.4 MB) make transfer dominate latency,
        // so sharing the trunk visibly hurts and freeing it visibly helps.
        let spec = spec_scaled(&wan, &[3, 10], MappingPolicy::Independent, 4.0);
        let run = run_multi_session(&spec).unwrap();
        healthy(&run);
        let early_rider = &run.sessions[0];
        let survivor = &run.sessions[1];
        assert!(
            early_rider.retired_at.is_some(),
            "session 1 should have retired"
        );
        // The survivor's frames after the retirement are faster than its
        // frames while both sessions contended for the trunk.
        let retired_at = early_rider.retired_at.unwrap();
        let contended: Vec<f64> = survivor
            .delays
            .iter()
            .zip(&survivor.starts)
            .filter(|(_, s)| **s < retired_at)
            .map(|(d, _)| *d)
            .collect();
        let free: Vec<f64> = survivor
            .delays
            .iter()
            .zip(&survivor.starts)
            .filter(|(_, s)| **s > retired_at)
            .map(|(d, _)| *d)
            .collect();
        assert!(!contended.is_empty() && !free.is_empty());
        let contended_mean = contended.iter().sum::<f64>() / contended.len() as f64;
        let free_mean = free.iter().sum::<f64>() / free.len() as f64;
        assert!(
            free_mean < contended_mean,
            "survivor should speed up after the retirement: contended {contended_mean}, free {free_mean}"
        );
        // ...and its monitor's estimate of the shared trunk recovered: the
        // retiring session's traffic was the survivor's cross-traffic.
        let trunk_scale = survivor
            .link_scales
            .iter()
            .find(|(from, to, _)| *from == wan.hub1.0 && *to == wan.hub2.0)
            .map(|(_, _, scale)| *scale);
        if let Some(scale) = trunk_scale {
            assert!(
                scale > 1.0,
                "survivor's trunk estimate should recover above its contended baseline, got {scale}"
            );
        }
    }

    #[test]
    fn late_spawn_joins_the_contention_and_completes() {
        let wan = contention_wan(2);
        let mut spec = spec_for(&wan, &[8, 4], MappingPolicy::Independent);
        spec.sessions[1].start_at = 2.0;
        let run = run_multi_session(&spec).unwrap();
        healthy(&run);
        assert!(run.sessions[1].spawned_at >= 2.0);
        assert_eq!(run.sessions[1].completed, 4);
    }

    /// The data-source stage of a two-hop loop of `session`.
    fn source_stage(session: u64) -> StageApp {
        StageApp::new(StageConfig {
            session,
            hop_index: 0,
            hop_count: 2,
            previous: None,
            next: Some(NodeId(1)),
            incoming_bytes: 0,
            outgoing_bytes: 10_000,
            processing_seconds: 0.5,
            target_goodput: 1e6,
            stage_label: format!("src-{session}"),
            drive: None,
            first_iteration: 0,
            telemetry: None,
        })
    }

    #[test]
    fn deliver_credits_each_stage_with_exactly_the_timers_it_armed() {
        // What a broadcast dispatch does: one context, one `deliver` per
        // resident stage.  The context already holds a timer nobody in the
        // mux armed; session 7 arms two in its callback, session 9 one.
        let mux = SessionMux::new();
        mux.insert(7, source_stage(7));
        mux.insert(9, source_stage(9));
        let state = &mut *mux.state.borrow_mut();
        let mut ctx = Context::new(NodeId(0), SimTime::from_secs(1.0), 40, vec![0.5; 4]);
        let foreign = ctx.set_timer(SimTime::from_secs(0.1));
        let mut armed = Vec::new();
        deliver(state, 7, &mut ctx, |_, ctx| {
            armed.push((ctx.set_timer(SimTime::from_secs(0.2)), 7));
            armed.push((ctx.set_timer(SimTime::from_secs(0.3)), 7));
        });
        deliver(state, 9, &mut ctx, |_, ctx| {
            armed.push((ctx.set_timer(SimTime::from_secs(0.4)), 9));
        });
        // A session without a resident stage gets no callback at all.
        deliver(state, 8, &mut ctx, |_, _| panic!("no stage for session 8"));
        assert_eq!(ctx.scheduled_timers().len(), 4);
        assert!(!state.timer_owner.contains_key(&foreign));
        let owners: BTreeMap<u64, u64> = state.timer_owner.iter().map(|(t, s)| (*t, *s)).collect();
        assert_eq!(owners, armed.into_iter().collect());
    }

    #[test]
    fn session_mux_routes_datagrams_and_timers_by_session() {
        // Two source stages (sessions 7 and 9) on one node, exercised
        // through a raw Context: a BeginIteration for session 9 must only
        // start session 9's processing, and the processing timer must be
        // routed back to the stage that armed it.
        let mut mux = SessionMux::new();
        mux.insert(7, source_stage(7));
        mux.insert(9, source_stage(9));
        assert_eq!(mux.sessions(), vec![7, 9]);
        let begin = ControlMessage::BeginIteration {
            session: 9,
            iteration: 0,
        };
        let mut ctx = Context::new(NodeId(0), SimTime::from_secs(1.0), 0, vec![0.5; 4]);
        mux.on_datagram(
            &mut ctx,
            Datagram {
                src: NodeId(2),
                dst: NodeId(0),
                sent_at: SimTime::from_secs(1.0),
                payload: begin.to_payload(),
            },
        );
        // Only session 9 started processing: exactly one timer armed.
        assert_eq!(ctx.scheduled_timers().len(), 1);
        let timer = ctx.scheduled_timers()[0].timer_id;
        // The timer fires: session 9 finishes processing and starts
        // sending — every outgoing data datagram carries session 9's
        // flow-id bits, none session 7's.
        let mut ctx2 = Context::new(NodeId(0), SimTime::from_secs(1.5), 100, vec![0.5; 4]);
        mux.on_timer(&mut ctx2, timer);
        let data: Vec<u64> = ctx2
            .outgoing()
            .iter()
            .filter(|s| s.payload.kind == KIND_DATA)
            .map(|s| s.payload.flow >> 40)
            .collect();
        assert!(!data.is_empty(), "session 9 should be sending");
        assert!(data.iter().all(|&s| s == 9), "flows: {data:?}");
        // A stale timer nobody owns is dropped silently.
        let mut ctx3 = Context::new(NodeId(0), SimTime::from_secs(2.0), 200, vec![0.5; 4]);
        mux.on_timer(&mut ctx3, 12345);
        assert!(ctx3.outgoing().is_empty());
        // Removing a session drops its datagrams from then on.
        assert!(mux.remove(9));
        assert!(!mux.remove(9));
        let mut ctx4 = Context::new(NodeId(0), SimTime::from_secs(2.5), 300, vec![0.5; 4]);
        mux.on_datagram(
            &mut ctx4,
            Datagram {
                src: NodeId(2),
                dst: NodeId(0),
                sent_at: SimTime::from_secs(2.5),
                payload: ControlMessage::BeginIteration {
                    session: 9,
                    iteration: 1,
                }
                .to_payload(),
            },
        );
        assert!(ctx4.scheduled_timers().is_empty());
    }

    #[test]
    fn misconfigured_specs_error() {
        let wan = contention_wan(2);
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[1].id = spec.sessions[0].id;
        assert!(run_multi_session(&spec).is_err());
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[1].source = spec.sessions[0].source;
        assert!(run_multi_session(&spec).is_err());
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[0].frames = 0;
        assert!(run_multi_session(&spec).is_err());
        let mut spec = spec_for(&wan, &[2, 2], MappingPolicy::Independent);
        spec.sessions[0].id = 1 << 24;
        assert!(run_multi_session(&spec).is_err());
    }

    #[test]
    fn an_invalid_topology_is_an_error_value_not_a_panic() {
        // The mapper never reads a link's jitter, so the spec plans — and
        // the simulator, which does, must refuse it by value.
        let wan = contention_wan(1);
        let mut spec = spec_for(&wan, &[2], MappingPolicy::Independent);
        let link = LinkId(0);
        spec.topology.edge_spec_mut(link).expect("link 0").jitter = -1.0;
        let refused = std::panic::catch_unwind(|| run_multi_session(&spec));
        let error = refused.expect("no unwinding").expect_err("no run");
        assert!(error.contains("jitter"), "{error}");
    }

    #[test]
    fn jain_fairness_index_behaves() {
        assert!((jain_fairness(&[1.0, 1.0, 1.0]) - 1.0).abs() < 1e-12);
        assert!((jain_fairness(&[1.0, 0.0, 0.0]) - 1.0 / 3.0).abs() < 1e-12);
        assert!((jain_fairness(&[]) - 1.0).abs() < 1e-12);
    }
}
