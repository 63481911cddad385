//! The pipeline-stage application.
//!
//! Every node that appears in the visualization routing table — the data
//! source, each computing-service node, and the client — runs a
//! [`StageApp`].  Per iteration the stage:
//!
//! 1. receives the upstream message reliably over the Robbins–Monro
//!    transport (`ricsa-transport`),
//! 2. "executes" its assigned visualization modules by waiting for the time
//!    the calibrated cost models predict on its hardware (this is the
//!    simulated stand-in for actually running the modules on that host), and
//! 3. pushes its output downstream over a new transport flow.
//!
//! The data source reacts to `BeginIteration` control messages instead of an
//! upstream flow, and the client stage terminates the chain, emitting an
//! `IterationCompleted` trace record that the experiment driver reads.

use crate::message::{ControlMessage, DedupFilter, CONTROL_REDUNDANCY};
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::node::NodeId;
use ricsa_netsim::packet::{Datagram, Payload};
use ricsa_netsim::time::SimTime;
use ricsa_netsim::trace::{TraceEvent, TraceKind};
use ricsa_pipemap::delay::Mapping;
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use ricsa_pipemap::vrt::VisualizationRoutingTable;
use ricsa_transport::flow::{shared_stats, AckInfo, FlowConfig, KIND_ACK, KIND_DATA};
use ricsa_transport::receiver::FlowReceiver;
use ricsa_transport::rm::{RmController, RmParams};
use ricsa_transport::sender::WindowSender;
use ricsa_transport::telemetry::FlowTelemetry;
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;

/// Shared handle collecting per-link passive telemetry from stage
/// applications: the key is the directed link `(from, to)` in topology
/// node indices, the value the latest [`FlowTelemetry`] snapshot of the
/// most recent transfer that crossed it.  The adaptive re-mapping driver
/// ([`crate::adapt`]) owns the handle and feeds the snapshots to the
/// monitor after every frame.
pub type LinkTelemetrySink = Rc<RefCell<HashMap<(usize, usize), FlowTelemetry>>>;

/// Client-side driving behaviour: the client stage issues the initial
/// steering request and paces subsequent iterations so that "the simulation
/// does not proceed until the image from the last time step is delivered to
/// the end user".
#[derive(Debug, Clone, PartialEq)]
pub struct ClientDrive {
    /// The central-management node requests are sent to.
    pub cm: NodeId,
    /// Total number of iterations (datasets) to pull through the loop.
    pub iterations: u64,
    /// Catalog name of the requested source.
    pub source: String,
    /// Variable of interest.
    pub variable: String,
    /// Isovalue for the isosurface pipeline.
    pub isovalue: f32,
}

/// Static configuration of one stage of the loop.
#[derive(Debug, Clone, PartialEq)]
pub struct StageConfig {
    /// Session identifier (used to derive flow ids).
    pub session: u64,
    /// Position of this stage along the data path (0 = data source).
    pub hop_index: usize,
    /// Total number of hops on the data path.
    pub hop_count: usize,
    /// Node of the upstream stage, if any.
    pub previous: Option<NodeId>,
    /// Node of the downstream stage, if any.
    pub next: Option<NodeId>,
    /// Bytes expected from upstream per iteration (0 for the data source).
    pub incoming_bytes: usize,
    /// Bytes to forward downstream per iteration (0 for the client).
    pub outgoing_bytes: usize,
    /// Seconds of module processing this stage performs per iteration
    /// (already scaled by the node's compute power by the planner).
    pub processing_seconds: f64,
    /// Target goodput for the outgoing transport flow, bytes/second.
    pub target_goodput: f64,
    /// Human-readable description of the modules run here (for traces).
    pub stage_label: String,
    /// Client driving behaviour (only set on the client stage).
    pub drive: Option<ClientDrive>,
    /// The first iteration this stage participates in (0 for a stage
    /// installed at session start).  After a migration the replacement
    /// stages start here: data for *earlier* iterations is a stale
    /// retransmission from the pre-migration flows and is re-acknowledged,
    /// never received — without this floor a stale datagram would open a
    /// receiver for a dead flow and deadlock the new loop.
    pub first_iteration: u64,
    /// Optional sink for passive per-link telemetry (see
    /// [`LinkTelemetrySink`]); the stage records its outgoing flow's
    /// telemetry under `(this node, next node)`.
    pub telemetry: Option<LinkTelemetrySink>,
}

impl StageConfig {
    /// Whether this stage is the data source.
    pub fn is_source(&self) -> bool {
        self.hop_index == 0
    }

    /// Whether this stage is the client (end of the loop).
    pub fn is_client(&self) -> bool {
        self.next.is_none()
    }

    /// The flow id used for data arriving at this stage in `iteration`.
    pub fn incoming_flow(&self, iteration: u64) -> u64 {
        flow_id(self.session, iteration, self.hop_index)
    }

    /// The flow id used for data leaving this stage in `iteration`.
    pub fn outgoing_flow(&self, iteration: u64) -> u64 {
        flow_id(self.session, iteration, self.hop_index + 1)
    }
}

/// The first node a data path visits twice, if any.  A node hosts one
/// stage per session, so such a path cannot be installed.
pub(crate) fn revisited_node(path: &[usize]) -> Option<usize> {
    path.iter()
        .enumerate()
        .find(|(i, node)| path[i + 1..].contains(node))
        .map(|(_, node)| *node)
}

/// Turn a mapping into one [`StageConfig`] per hop of its data path: bytes
/// in and out, neighbours and the stage label from the routing table `vrt`,
/// processing seconds from the modules grouped on the hop and its node's
/// power.  Every stage starts at iteration 0 with no client drive and no
/// telemetry sink; callers that want those set them on the returned
/// configs.  Errors when the path revisits a node.
pub(crate) fn stage_configs(
    pipeline: &Pipeline,
    graph: &NetGraph,
    mapping: &Mapping,
    vrt: &VisualizationRoutingTable,
    session: u64,
    target_goodput: f64,
) -> Result<Vec<StageConfig>, String> {
    let path = &mapping.path;
    if let Some(node) = revisited_node(path) {
        return Err(format!(
            "session {session}: data path revisits node {node}: {path:?}"
        ));
    }
    let hop_count = path.len();
    let configs = path
        .iter()
        .enumerate()
        .map(|(i, &node)| {
            let entry = &vrt.entries[i];
            let power = graph.node(node).power;
            StageConfig {
                session,
                hop_index: i,
                hop_count,
                previous: entry.previous_hop.map(NodeId),
                next: entry.next_hop.map(NodeId),
                incoming_bytes: match i {
                    0 => 0,
                    _ => vrt.entries[i - 1].forward_bytes as usize,
                },
                outgoing_bytes: entry.forward_bytes as usize,
                processing_seconds: mapping.groups[i]
                    .iter()
                    .map(|&m| pipeline.processing_time(m, power))
                    .sum(),
                target_goodput,
                stage_label: format!("{}[{}]", entry.node_name, entry.modules.join(",")),
                drive: None,
                first_iteration: 0,
                telemetry: None,
            }
        })
        .collect();
    Ok(configs)
}

/// Deterministic flow identifier for hop `hop` of `iteration` in `session`.
pub fn flow_id(session: u64, iteration: u64, hop: usize) -> u64 {
    (session << 40) | (iteration << 8) | hop as u64
}

/// Decompose a flow id produced by [`flow_id`].
pub fn parse_flow_id(flow: u64) -> (u64, u64, usize) {
    (
        flow >> 40,
        (flow >> 8) & 0xFFFF_FFFF,
        (flow & 0xFF) as usize,
    )
}

enum Phase {
    /// Waiting for an upstream message (or a BeginIteration, for the source).
    Idle,
    /// Receiving the upstream message.
    Receiving {
        iteration: u64,
        receiver: Box<FlowReceiver>,
        receiver_timers: HashSet<u64>,
    },
    /// Simulating module execution; the timer id marks completion.
    Processing { iteration: u64, timer: u64 },
    /// Pushing the output downstream.
    Sending {
        sender: Box<WindowSender<RmController>>,
        sender_timers: HashSet<u64>,
    },
}

/// The per-node pipeline stage application.
pub struct StageApp {
    config: StageConfig,
    phase: Phase,
    dedup: DedupFilter,
    /// The next upstream iteration this stage expects to receive; data for
    /// earlier iterations is a stale retransmission (the upstream sender
    /// missed our final ACK) and is re-acknowledged, never re-received.
    next_incoming_iteration: u64,
    /// Time at which the current iteration started at this stage.
    iteration_started: SimTime,
}

impl StageApp {
    /// Create a stage application.
    pub fn new(config: StageConfig) -> Self {
        let first = config.first_iteration;
        StageApp {
            config,
            phase: Phase::Idle,
            dedup: DedupFilter::new(),
            next_incoming_iteration: first,
            iteration_started: SimTime::ZERO,
        }
    }

    fn flow_config(&self, bytes: usize) -> FlowConfig {
        FlowConfig {
            message_bytes: Some(bytes.max(1)),
            window: 64,
            ack_every: 32,
            ..FlowConfig::default()
        }
    }

    fn begin_receiving(&mut self, ctx: &mut Context, iteration: u64) {
        let prev = self
            .config
            .previous
            .expect("non-source stages have an upstream node");
        let mut receiver = FlowReceiver::new(
            FlowConfig {
                flow_id: self.config.incoming_flow(iteration),
                ..self.flow_config(self.config.incoming_bytes)
            },
            prev,
            shared_stats(),
        );
        // Start the receiver so it arms its periodic-ACK timer.  Without the
        // fallback ACKs the sender can deadlock mid-message: once it fills
        // its outstanding window with datagrams that were lost, the receiver
        // sees no new arrivals (so no every-Nth-datagram ACK and no NACKs)
        // and the transfer never finishes.  Track the timers it arms so
        // stale timers from a previous phase are not misrouted into it
        // (each forwarded firing would re-arm and spawn an extra periodic
        // chain, distorting the receiver's quiet detection).
        let before = ctx.scheduled_timers().len();
        receiver.on_start(ctx);
        let receiver_timers = armed_since(ctx, before).collect();
        self.phase = Phase::Receiving {
            iteration,
            receiver: Box::new(receiver),
            receiver_timers,
        };
    }

    fn begin_processing(&mut self, ctx: &mut Context, iteration: u64) {
        ctx.trace(TraceEvent::new(TraceKind::StageCompleted {
            stage: format!("{}:received", self.config.stage_label),
            elapsed: (ctx.now() - self.iteration_started).as_secs(),
            output_bytes: self.config.incoming_bytes,
        }));
        if self.config.processing_seconds <= 0.0 {
            self.finish_processing(ctx, iteration);
            return;
        }
        let timer = ctx.set_timer(SimTime::from_secs(self.config.processing_seconds));
        self.phase = Phase::Processing { iteration, timer };
    }

    fn finish_processing(&mut self, ctx: &mut Context, iteration: u64) {
        ctx.trace(TraceEvent::new(TraceKind::StageCompleted {
            stage: format!("{}:processed", self.config.stage_label),
            elapsed: self.config.processing_seconds,
            output_bytes: self.config.outgoing_bytes,
        }));
        if self.config.is_client() {
            // End of the loop: report the finished image.
            ctx.trace(TraceEvent::new(TraceKind::IterationCompleted {
                iteration,
                end_to_end_delay: (ctx.now() - self.iteration_started).as_secs(),
            }));
            self.phase = Phase::Idle;
            // Request the next dataset only after this image arrived.
            if let Some(drive) = &self.config.drive {
                if iteration + 1 < drive.iterations {
                    send_control(
                        ctx,
                        drive.cm,
                        &ControlMessage::BeginIteration {
                            session: self.config.session,
                            iteration: iteration + 1,
                        },
                    );
                }
            }
            return;
        }
        self.begin_sending(ctx, iteration);
    }

    fn begin_sending(&mut self, ctx: &mut Context, iteration: u64) {
        let next = self
            .config
            .next
            .expect("non-client stages have a downstream node");
        let flow_config = FlowConfig {
            flow_id: self.config.outgoing_flow(iteration),
            ..self.flow_config(self.config.outgoing_bytes)
        };
        let controller = RmController::new(RmParams {
            window: flow_config.window,
            mtu: flow_config.mtu,
            // Start near 45 MB/s so short transfers are not dominated by the
            // ramp-up; the Robbins-Monro update pulls the rate toward the
            // link's sustainable goodput within a few ACKs either way.
            initial_sleep: 0.002,
            ..RmParams::for_target(self.config.target_goodput)
        });
        let mut sender = WindowSender::new(flow_config, next, controller, shared_stats());
        // Kick off the first burst immediately, tracking the timers the
        // sender registers so later firings can be routed back to it.
        let before = ctx.scheduled_timers().len();
        sender.on_start(ctx);
        let sender_timers = armed_since(ctx, before).collect();
        self.phase = Phase::Sending {
            sender: Box::new(sender),
            sender_timers,
        };
    }

    /// Re-acknowledge a fully received incoming flow whose final ACK the
    /// upstream sender evidently missed (it is still retransmitting).  The
    /// receiver object is long gone, but the stage knows the flow completed,
    /// so it synthesizes the full-coverage cumulative ACK that lets the
    /// upstream sender retire the flow.
    fn ack_completed_incoming(&self, ctx: &mut Context, iteration: u64) {
        let prev = match self.config.previous {
            Some(prev) => prev,
            None => return,
        };
        let flow = FlowConfig {
            flow_id: self.config.incoming_flow(iteration),
            ..self.flow_config(self.config.incoming_bytes)
        };
        let total = flow.total_datagrams().unwrap_or(1).max(1);
        let ack = AckInfo {
            cumulative: total - 1,
            highest_seen: total - 1,
            missing: vec![],
            sack: vec![],
            goodput_bps: 0.0,
            received_count: total,
        };
        ctx.send(
            prev,
            Payload::with_data(KIND_ACK, flow.flow_id, 0, ack.encode()),
        );
    }

    fn handle_control(&mut self, ctx: &mut Context, msg: ControlMessage) {
        if !self.dedup.accept(&msg) {
            return;
        }
        if let ControlMessage::BeginIteration { session, iteration } = msg {
            if session != self.config.session || !self.config.is_source() {
                return;
            }
            self.iteration_started = ctx.now();
            ctx.trace(TraceEvent::new(TraceKind::Note {
                label: format!("iteration-start:{iteration}"),
                value: ctx.now().as_secs(),
            }));
            // The data source has no upstream transfer; go straight to
            // processing (reading/serving the cached dataset plus any
            // modules assigned to it) and then push downstream.
            self.begin_processing(ctx, iteration);
        }
    }
}

impl Application for StageApp {
    fn on_start(&mut self, ctx: &mut Context) {
        if let Some(drive) = self.config.drive.clone() {
            if self.config.is_client() {
                send_control(
                    ctx,
                    drive.cm,
                    &ControlMessage::SteeringRequest {
                        request_id: self.config.session,
                        source: drive.source.clone(),
                        variable: drive.variable.clone(),
                        isovalue: drive.isovalue,
                        octant: None,
                    },
                );
            }
        }
    }

    fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
        // Control plane.
        if let Some(msg) = ControlMessage::from_payload(&dg.payload) {
            self.handle_control(ctx, msg);
            return;
        }
        match dg.payload.kind {
            KIND_DATA => {
                let (_, iteration, hop) = parse_flow_id(dg.payload.flow);
                if hop != self.config.hop_index {
                    return;
                }
                // A stale retransmission of an iteration this stage already
                // received in full: the upstream sender missed the final ACK
                // (it can be lost like any datagram).  Re-acknowledge so the
                // sender retires the flow — and never tear down the current
                // phase for it.
                if iteration < self.next_incoming_iteration {
                    self.ack_completed_incoming(ctx, iteration);
                    return;
                }
                // Data for a genuinely newer iteration while the previous
                // send is still waiting on its final acknowledgement: the
                // loop only starts a new iteration after the client received
                // the previous image, so the old flow is implicitly complete
                // and can be retired.
                if matches!(self.phase, Phase::Sending { .. }) {
                    self.phase = Phase::Idle;
                }
                // Lazily open the receiver for a new iteration.
                if matches!(self.phase, Phase::Idle) {
                    self.iteration_started = ctx.now();
                    self.begin_receiving(ctx, iteration);
                }
                let finished = if let Phase::Receiving {
                    receiver,
                    iteration: it,
                    ..
                } = &mut self.phase
                {
                    if *it != iteration {
                        return;
                    }
                    receiver.on_datagram(ctx, dg);
                    receiver.is_finished()
                } else {
                    false
                };
                if finished {
                    self.next_incoming_iteration = iteration + 1;
                    self.begin_processing(ctx, iteration);
                }
            }
            KIND_ACK => {
                let Phase::Sending { sender, .. } = &mut self.phase else {
                    return;
                };
                sender.on_datagram(ctx, dg);
                // Publish the flow's passive telemetry under the directed
                // link this stage forwards over — copied only when some
                // monitor reads the sink.
                if let (Some(sink), Some(next)) = (&self.config.telemetry, self.config.next) {
                    let link = (ctx.node_id().0, next.0);
                    sink.borrow_mut().insert(link, sender.telemetry().clone());
                }
                if sender.is_finished() {
                    self.phase = Phase::Idle;
                }
            }
            _ => {}
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, timer_id: u64) {
        match &mut self.phase {
            Phase::Processing { iteration, timer } if *timer == timer_id => {
                let iteration = *iteration;
                self.finish_processing(ctx, iteration);
            }
            Phase::Sending {
                sender,
                sender_timers,
                ..
            } if sender_timers.contains(&timer_id) => {
                // An id fires at most once: forget it, keep what it re-arms.
                sender_timers.remove(&timer_id);
                let before = ctx.scheduled_timers().len();
                sender.on_timer(ctx, timer_id);
                sender_timers.extend(armed_since(ctx, before));
                if sender.is_finished() {
                    self.phase = Phase::Idle;
                }
            }
            // Route only the receiver's own periodic-ACK timers to it; stale
            // timers left over from a previous sender phase must not spawn
            // extra ACK chains.
            Phase::Receiving {
                receiver,
                receiver_timers,
                ..
            } if receiver_timers.contains(&timer_id) => {
                receiver_timers.remove(&timer_id);
                let before = ctx.scheduled_timers().len();
                receiver.on_timer(ctx, timer_id);
                receiver_timers.extend(armed_since(ctx, before));
            }
            _ => {}
        }
    }
}

/// The timers armed since `ctx` listed `before` of them.  A context lists
/// only the timers armed during its own dispatch, in arming order, so
/// whatever a callback armed is the tail of the list.
pub(crate) fn armed_since(ctx: &Context, before: usize) -> impl Iterator<Item = u64> + '_ {
    ctx.scheduled_timers()[before..].iter().map(|t| t.timer_id)
}

/// Send a control message with redundancy to a destination node.
pub fn send_control(ctx: &mut Context, dst: NodeId, msg: &ControlMessage) {
    for _ in 0..CONTROL_REDUNDANCY {
        ctx.send(dst, msg.to_payload());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_ids_round_trip_and_are_unique_per_hop() {
        let f = flow_id(3, 7, 2);
        assert_eq!(parse_flow_id(f), (3, 7, 2));
        assert_ne!(flow_id(3, 7, 2), flow_id(3, 7, 3));
        assert_ne!(flow_id(3, 7, 2), flow_id(3, 8, 2));
        assert_ne!(flow_id(3, 7, 2), flow_id(4, 7, 2));
    }

    fn config(hop: usize, hops: usize) -> StageConfig {
        StageConfig {
            session: 1,
            hop_index: hop,
            hop_count: hops,
            previous: if hop > 0 { Some(NodeId(hop - 1)) } else { None },
            next: if hop + 1 < hops {
                Some(NodeId(hop + 1))
            } else {
                None
            },
            incoming_bytes: if hop > 0 { 10_000 } else { 0 },
            outgoing_bytes: if hop + 1 < hops { 5_000 } else { 0 },
            processing_seconds: 0.01,
            target_goodput: 1e6,
            stage_label: format!("stage{hop}"),
            drive: None,
            first_iteration: 0,
            telemetry: None,
        }
    }

    #[test]
    fn stage_roles_are_derived_from_position() {
        let src = config(0, 3);
        let mid = config(1, 3);
        let dst = config(2, 3);
        assert!(src.is_source() && !src.is_client());
        assert!(!mid.is_source() && !mid.is_client());
        assert!(dst.is_client() && !dst.is_source());
        assert_eq!(src.outgoing_flow(4), mid.incoming_flow(4));
        assert_eq!(mid.outgoing_flow(4), dst.incoming_flow(4));
    }

    #[test]
    fn source_stage_reacts_to_begin_iteration_and_starts_sending() {
        let mut app = StageApp::new(config(0, 2));
        let mut ctx = Context::new(NodeId(0), SimTime::from_secs(1.0), 0, vec![0.5]);
        let begin = ControlMessage::BeginIteration {
            session: 1,
            iteration: 0,
        };
        app.on_datagram(
            &mut ctx,
            Datagram {
                src: NodeId(9),
                dst: NodeId(0),
                sent_at: SimTime::ZERO,
                payload: begin.to_payload(),
            },
        );
        // Processing timer scheduled (0.01 s) but no data yet.
        assert_eq!(ctx.scheduled_timers().len(), 1);
        assert!(matches!(app.phase, Phase::Processing { .. }));
        // Duplicate Begin is ignored.
        let mut ctx2 = Context::new(NodeId(0), SimTime::from_secs(1.0), 10, vec![0.5]);
        app.on_datagram(
            &mut ctx2,
            Datagram {
                src: NodeId(9),
                dst: NodeId(0),
                sent_at: SimTime::ZERO,
                payload: begin.to_payload(),
            },
        );
        assert!(ctx2.scheduled_timers().is_empty());
        // Firing the processing timer moves the source into the sending
        // phase and emits the first burst of data datagrams.
        let timer_id = ctx.scheduled_timers()[0].timer_id;
        let mut ctx3 = Context::new(NodeId(0), SimTime::from_secs(1.02), 20, vec![0.5]);
        app.on_timer(&mut ctx3, timer_id);
        assert!(matches!(app.phase, Phase::Sending { .. }));
        assert!(ctx3
            .outgoing()
            .iter()
            .any(|s| s.payload.kind == KIND_DATA && s.dst == NodeId(1)));
    }

    #[test]
    fn begin_for_wrong_session_or_non_source_is_ignored() {
        let mut app = StageApp::new(config(1, 3));
        let mut ctx = Context::new(NodeId(1), SimTime::ZERO, 0, vec![0.5]);
        let begin = ControlMessage::BeginIteration {
            session: 1,
            iteration: 0,
        };
        app.on_datagram(
            &mut ctx,
            Datagram {
                src: NodeId(0),
                dst: NodeId(1),
                sent_at: SimTime::ZERO,
                payload: begin.to_payload(),
            },
        );
        assert!(matches!(app.phase, Phase::Idle));

        let mut src_app = StageApp::new(config(0, 3));
        let wrong_session = ControlMessage::BeginIteration {
            session: 99,
            iteration: 0,
        };
        src_app.on_datagram(
            &mut ctx,
            Datagram {
                src: NodeId(0),
                dst: NodeId(1),
                sent_at: SimTime::ZERO,
                payload: wrong_session.to_payload(),
            },
        );
        assert!(matches!(src_app.phase, Phase::Idle));
    }

    #[test]
    fn send_control_is_redundant() {
        let mut ctx = Context::new(NodeId(0), SimTime::ZERO, 0, vec![0.5]);
        send_control(&mut ctx, NodeId(3), &ControlMessage::Ack { request_id: 1 });
        assert_eq!(ctx.outgoing().len(), CONTROL_REDUNDANCY);
        assert!(ctx.outgoing().iter().all(|s| s.dst == NodeId(3)));
    }
}
