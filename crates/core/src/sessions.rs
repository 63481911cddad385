//! Multi-session serving: many frame-paced user loops on one WAN.
//!
//! One RICSA deployment serves many users at once, each steering their own
//! pipeline.  All those loops run against the *same* simulated WAN — the
//! sessions contend for links, and one session's traffic is another
//! session's cross-traffic.  This module is the session manager:
//!
//! * [`SessionMux`] — the per-node application that lets several sessions'
//!   [`StageApp`]s share a node: datagrams and timers alike are routed by
//!   the session encoded in their flow id or timer key.  Sessions can be
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
use crate::stage::{parse_flow_id, StageApp};
use ricsa_adapt::monitor::{AdaptConfig, AdaptMonitor};
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::link::{LinkId, LinkSpec};
use ricsa_netsim::node::{NodeId, NodeSpec};
use ricsa_netsim::packet::Datagram;
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use ricsa_pipemap::delay::{evaluate_mapping, Mapping};
use ricsa_pipemap::dp::{optimize_with, OptimizedMapping};
use ricsa_pipemap::joint::{contended_delays, solve_joint, JointOptions, JointSession};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use ricsa_pipemap::sweep::client_server_on_route;
use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::rc::Rc;

// ------------------------------------------------------------ session mux

/// A node application multiplexing the pipeline stages of many sessions.
///
/// A datagram's flow id and a timer's key both carry their session in the
/// top bits ([`parse_flow_id`]): transport flows and stage timers are keyed
/// with a flow id, control messages with their session's.  One rule routes
/// both to the session's resident stage; a datagram or timer of a session
/// with no stage here is dropped.  A session-less control message (flow 0)
/// reaches session 0's stage, which ignores it as every stage does.
///
/// The shell installed into the simulator and the handles the session
/// manager keeps share one [`Rc`]'d map, so stages can be inserted and
/// removed while the simulation runs — that is how sessions spawn, retire
/// and migrate live.  Resident stages never receive `on_start`: this
/// manager configures no client drive, whose initial request is the only
/// thing `StageApp::on_start` does.
#[derive(Clone, Default)]
pub struct SessionMux {
    /// Session id → that session's stage on this node.
    inners: Rc<RefCell<BTreeMap<u64, StageApp>>>,
}

impl SessionMux {
    /// An empty mux.
    pub fn new() -> Self {
        SessionMux::default()
    }

    /// Insert (or replace) `session`'s stage on this node.
    pub fn insert(&self, session: u64, app: StageApp) {
        self.inners.borrow_mut().insert(session, app);
    }

    /// Remove `session`'s stage; its not-yet-fired timers will be dropped
    /// when they fire.  Returns whether a stage was resident.
    pub fn remove(&self, session: u64) -> bool {
        self.inners.borrow_mut().remove(&session).is_some()
    }

    /// Session ids with a resident stage, ascending.
    pub fn sessions(&self) -> Vec<u64> {
        self.inners.borrow().keys().copied().collect()
    }

    /// The stage of the session whose bits `key` (a flow id or timer key)
    /// carries, if it is resident, handed to `f`.
    fn route(&self, key: u64, f: impl FnOnce(&mut StageApp)) {
        if let Some(app) = self.inners.borrow_mut().get_mut(&parse_flow_id(key).0) {
            f(app);
        }
    }

    /// A shell sharing this mux's state, boxed for
    /// [`ricsa_netsim::sim::Simulator::install`].
    pub fn shell(&self) -> Box<dyn Application> {
        Box::new(self.clone())
    }
}

impl Application for SessionMux {
    fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
        self.route(dg.payload.flow, |app| app.on_datagram(ctx, dg));
    }

    fn on_timer(&mut self, ctx: &mut Context, key: u64) {
        self.route(key, |app| app.on_timer(ctx, key));
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
    use crate::message::ControlMessage;
    use crate::stage::{flow_id, StageConfig};
    use ricsa_netsim::packet::Payload;
    use ricsa_transport::flow::KIND_DATA;

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

    /// Stage `hop` (0 = the data source) of a three-hop loop of
    /// `session`, refusing iterations before `first_iteration`.
    fn stage(session: u64, hop: usize, first_iteration: u64) -> StageApp {
        StageApp::new(StageConfig {
            session,
            hop_index: hop,
            previous: hop.checked_sub(1).map(NodeId),
            next: Some(NodeId(hop + 1)),
            incoming_bytes: if hop > 0 { 10_000 } else { 0 },
            outgoing_bytes: 10_000,
            processing_seconds: 0.5,
            target_goodput: 1e6,
            stage_label: format!("stage-{session}-{hop}"),
            drive: None,
            first_iteration,
            telemetry: None,
        })
    }

    /// A datagram from node 2 to node 0 carrying `payload`.
    fn datagram(payload: Payload) -> Datagram {
        Datagram {
            dst: NodeId(0),
            payload,
        }
    }

    fn begin(session: u64, iteration: u64) -> Datagram {
        datagram(ControlMessage::BeginIteration { session, iteration }.to_payload())
    }

    fn ctx_at(secs: f64) -> Context {
        Context::new(NodeId(0), SimTime::from_secs(secs), vec![0.5; 4])
    }

    #[test]
    fn session_mux_routes_datagrams_and_timers_by_session() {
        // Two source stages (sessions 7 and 9) on one node, exercised
        // through a raw Context: a BeginIteration for session 9 must only
        // start session 9's processing, and a timer must reach the stage
        // of the session its key's bits name.
        let mut mux = SessionMux::new();
        mux.insert(7, stage(7, 0, 0));
        mux.insert(9, stage(9, 0, 0));
        assert_eq!(mux.sessions(), vec![7, 9]);
        let mut ctx = ctx_at(1.0);
        mux.on_datagram(&mut ctx, begin(9, 0));
        // Only session 9 started processing: exactly one timer armed,
        // keyed with its outgoing flow.
        let keys = |ctx: &Context| -> Vec<u64> {
            ctx.scheduled_timers().iter().map(|t| t.timer_id).collect()
        };
        assert_eq!(keys(&ctx), vec![flow_id(9, 0, 1)]);
        mux.on_datagram(&mut ctx, begin(7, 0));
        assert_eq!(keys(&ctx), vec![flow_id(9, 0, 1), flow_id(7, 0, 1)]);
        // Each key fires into its own session's stage: that stage finishes
        // processing and starts sending, and every outgoing data datagram
        // carries its session's flow-id bits.
        for session in [9, 7] {
            let mut fired = ctx_at(1.5);
            mux.on_timer(&mut fired, flow_id(session, 0, 1));
            let data: Vec<u64> = fired
                .outgoing()
                .iter()
                .filter(|s| s.payload.kind == KIND_DATA)
                .map(|s| parse_flow_id(s.payload.flow).0)
                .collect();
            assert!(!data.is_empty(), "session {session} should be sending");
            assert!(data.iter().all(|&s| s == session), "flows: {data:?}");
        }
        // A key whose session has no stage here is dropped silently.
        let mut ctx3 = ctx_at(2.0);
        mux.on_timer(&mut ctx3, flow_id(8, 0, 1));
        assert!(ctx3.outgoing().is_empty() && ctx3.scheduled_timers().is_empty());
        // Removing a session drops its datagrams from then on.
        assert!(mux.remove(9));
        assert!(!mux.remove(9));
        let mut ctx4 = ctx_at(2.5);
        mux.on_datagram(&mut ctx4, begin(9, 1));
        assert!(ctx4.scheduled_timers().is_empty());
    }

    /// Fire the timer keyed `key` into `mux`; the context shows what came
    /// out.
    fn fire(mux: &mut SessionMux, key: u64) -> Context {
        let mut ctx = ctx_at(2.0);
        mux.on_timer(&mut ctx, key);
        ctx
    }

    fn quiet(ctx: &Context) -> bool {
        ctx.outgoing().is_empty() && ctx.scheduled_timers().is_empty()
    }

    #[test]
    fn a_rehosted_stage_drops_the_timers_of_the_incarnation_it_replaced() {
        // Session 7's stage is torn down and re-hosted on the same node at
        // iteration k.  The keys the old incarnation armed for iteration
        // k - 1 (its receiver's incoming flow, its processing timer's and
        // sender's outgoing flow) carry session 7's bits, so the mux hands
        // them to the new stage: they must reach none of its phases, while
        // the phase's own key does.
        let k = 3;
        let assert_stale_misses = |mux: &mut SessionMux, hop: usize, phase: &str| {
            for key in [flow_id(7, k - 1, hop), flow_id(7, k - 1, hop + 1)] {
                let ctx = fire(mux, key);
                assert!(
                    quiet(&ctx),
                    "hop {hop}, {phase}: stale key {key:#x} got through"
                );
            }
        };
        // The source: idle, processing iteration k, then sending it.
        let mut mux = SessionMux::new();
        mux.insert(7, stage(7, 0, 0));
        mux.insert(7, stage(7, 0, k));
        assert_stale_misses(&mut mux, 0, "idle");
        mux.on_datagram(&mut ctx_at(1.0), begin(7, k));
        assert_stale_misses(&mut mux, 0, "processing");
        assert!(!quiet(&fire(&mut mux, flow_id(7, k, 1))));
        assert_stale_misses(&mut mux, 0, "sending");
        assert!(!quiet(&fire(&mut mux, flow_id(7, k, 1))));
        // The next stage: idle, then receiving iteration k.
        let mut mux = SessionMux::new();
        mux.insert(7, stage(7, 1, 0));
        mux.insert(7, stage(7, 1, k));
        assert_stale_misses(&mut mux, 1, "idle");
        let data = Payload::with_data(KIND_DATA, flow_id(7, k, 1), 0, vec![0; 100]);
        mux.on_datagram(&mut ctx_at(1.0), datagram(data));
        assert_stale_misses(&mut mux, 1, "receiving");
        assert!(!quiet(&fire(&mut mux, flow_id(7, k, 1))));
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
        spec.sessions[0].id = crate::stage::SESSION_ID_BOUND;
        assert!(run_multi_session(&spec).is_err());
    }

    #[test]
    fn an_invalid_topology_is_an_error_value_not_a_panic() {
        // The mapper never reads a link's jitter, so the spec plans — and
        // the simulator, which does, must refuse it by value.
        let wan = contention_wan(1);
        let mut spec = spec_for(&wan, &[2], MappingPolicy::Independent);
        let invalid = LinkSpec {
            jitter: -1.0,
            ..LinkSpec::new(1e6, 0.01)
        };
        spec.topology
            .connect_directed(wan.cm, wan.clients[0], invalid);
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
