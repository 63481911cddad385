//! The adaptive re-mapping loop: monitor → decide → migrate, live.
//!
//! [`run_adaptive_loop`] executes a steering loop on a time-varying WAN
//! ([`ricsa_netsim::dynamics`]) under one of three control policies:
//!
//! * [`AdaptPolicy::Static`] — the paper's behaviour: measure once, map
//!   once, never look again;
//! * [`AdaptPolicy::Adaptive`] — the `ricsa-adapt` monitor ingests the
//!   passive per-link telemetry each frame produces, and when a confirmed
//!   change clears the re-map margin the loop migrates at the next frame
//!   boundary;
//! * [`AdaptPolicy::Oracle`] — re-solves from scratch before every frame
//!   with the *true* current link parameters (maintained by replaying the
//!   event schedule onto a topology copy).  This is the unachievable
//!   upper bound the adaptive controller is measured against.
//!
//! This module holds the spec, the run record and the demo WAN.  The loop
//! itself is the one-session case of the frame-paced driver that also runs
//! [`crate::sessions`] (the crate-private `driver` module): a policy picks
//! that driver's per-loop controller, the schedule is applied to the
//! simulator, and the run record is assembled from the driver's frame
//! audit.  The loop is frame-paced — frame `k` is requested only after
//! frame `k-1` reached the client — so a frame boundary is a quiescent
//! point, and a migration there delivers every frame index **exactly
//! once**: the audit counts `IterationCompleted` trace records per index
//! and reports any loss or duplication (`tests/loop_records.rs` and the
//! adaptation sweep's audit assert both are zero).
//!
//! DESIGN.md §8 documents the control plane; §8.5 the migration protocol
//! (quiesce → teardown → VRT handoff → resume) and its invariant.

use crate::driver::{drive, Controller, DriveSpec, LoopState};
use crate::sessions::SessionLoopSpec;
use ricsa_adapt::monitor::{AdaptConfig, AdaptMonitor, DecisionRecord};
use ricsa_netsim::dynamics::{DynamicScenario, LinkChange, LinkEvent};
use ricsa_netsim::link::{LinkId, LinkSpec};
use ricsa_netsim::node::{NodeId, NodeSpec};
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use ricsa_pipemap::dp::optimize_with;
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use serde::{Deserialize, Serialize};

/// How the loop reacts to network change.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AdaptPolicy {
    /// Measure once, map once (the paper's behaviour).
    Static,
    /// Passive monitoring + change-point detection + warm re-solve +
    /// frame-boundary migration.
    Adaptive,
    /// Re-solve from scratch with ground-truth link state before every
    /// frame (upper bound; unrealizable outside a simulator).
    Oracle,
}

impl AdaptPolicy {
    /// Short display name.
    pub fn name(&self) -> &'static str {
        match self {
            AdaptPolicy::Static => "static",
            AdaptPolicy::Adaptive => "adaptive",
            AdaptPolicy::Oracle => "oracle",
        }
    }
}

/// Everything one adaptive-loop run is configured with.
#[derive(Debug, Clone)]
pub struct AdaptiveLoopSpec {
    /// The WAN the loop runs on.
    pub topology: Topology,
    /// The time-varying scenario applied to it.
    pub schedule: DynamicScenario,
    /// The visualization pipeline being mapped.
    pub pipeline: Pipeline,
    /// Data-source node.
    pub source: NodeId,
    /// Client node.
    pub client: NodeId,
    /// Central-management node (must not be the data source).
    pub cm: NodeId,
    /// Frames to pull through the loop.
    pub iterations: u64,
    /// Simulator seed.
    pub seed: u64,
    /// Target goodput of the stage-to-stage flows, bytes/second.
    pub target_goodput: f64,
    /// Monitor configuration (thresholds, hysteresis, margin, cooldown).
    pub adapt: AdaptConfig,
    /// Session identifier (flow-id namespace).
    pub session: u64,
    /// Virtual-time budget for the whole run.
    pub max_virtual_time: SimTime,
}

/// One executed migration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MigrationRecord {
    /// Virtual time the migration committed, seconds.
    pub at: f64,
    /// The first frame served by the new mapping.
    pub first_iteration: u64,
    /// Data path before.
    pub old_path: Vec<usize>,
    /// Data path after.
    pub new_path: Vec<usize>,
    /// Predicted delay of the old mapping at decision time.
    pub predicted_old: f64,
    /// Predicted delay of the new mapping.
    pub predicted_new: f64,
    /// Control datagrams injected for the VRT handoff.
    pub handoff_messages: u64,
}

/// The outcome of one adaptive-loop run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveRun {
    /// Which policy ran.
    pub policy: String,
    /// Measured end-to-end delay of each completed frame, frame order.
    pub delays: Vec<f64>,
    /// Virtual start time of each frame (the data source's
    /// `iteration-start` trace note), frame order.
    pub starts: Vec<f64>,
    /// The data path each frame travelled, frame order.
    pub paths: Vec<Vec<usize>>,
    /// The monitor's deterministic decision trace (empty for
    /// static/oracle).
    pub decisions: Vec<DecisionRecord>,
    /// Executed migrations.
    pub migrations: Vec<MigrationRecord>,
    /// Frames requested.
    pub frames_requested: u64,
    /// Distinct frames delivered to the client.
    pub frames_completed: u64,
    /// Requested frames never delivered (must be 0 on a healthy run).
    pub frames_lost: u64,
    /// Extra deliveries of an already-delivered frame (must be 0).
    pub frames_duplicated: u64,
    /// Virtual seconds from the schedule's first event to the first
    /// migration commit (`None` when either never happened).
    pub remap_latency_s: Option<f64>,
    /// Wall-clock microseconds spent in re-solves, and how many ran
    /// (warm solves for adaptive, cold solves for oracle).
    pub solve_us_total: f64,
    /// Number of re-solves behind `solve_us_total`.
    pub solves: u64,
}

impl AdaptiveRun {
    /// Mean delay of the frames whose start time satisfies `pred`
    /// (`None` when no frame qualifies).
    pub fn mean_delay_where(&self, pred: impl Fn(f64) -> bool) -> Option<f64> {
        let picked: Vec<f64> = self
            .delays
            .iter()
            .zip(&self.starts)
            .filter(|(_, s)| pred(**s))
            .map(|(d, _)| *d)
            .collect();
        if picked.is_empty() {
            None
        } else {
            Some(picked.iter().sum::<f64>() / picked.len() as f64)
        }
    }

    /// Mean delay of the last `n` completed frames.
    pub fn steady_state_mean(&self, n: usize) -> Option<f64> {
        if self.delays.is_empty() {
            return None;
        }
        let tail = &self.delays[self.delays.len().saturating_sub(n)..];
        Some(tail.iter().sum::<f64>() / tail.len() as f64)
    }
}

/// Run one policy over the spec.  Errors only on structurally impossible
/// inputs (no feasible initial mapping, a self-revisiting data path, or
/// the CM placed on the data source).
pub fn run_adaptive_loop(
    spec: &AdaptiveLoopSpec,
    policy: AdaptPolicy,
) -> Result<AdaptiveRun, String> {
    if spec.cm == spec.source {
        return Err("the CM node must differ from the data source".into());
    }
    let base_graph = NetGraph::from_topology(&spec.topology);
    let (initial, _) = optimize_with(
        &spec.pipeline,
        &base_graph,
        spec.source.0,
        spec.client.0,
        &spec.adapt.options,
    );
    let initial = initial.ok_or_else(|| "no feasible initial mapping".to_string())?;
    let controller = match policy {
        AdaptPolicy::Static => Controller::Static,
        AdaptPolicy::Adaptive => Controller::monitored(
            AdaptMonitor::with_initial(
                spec.pipeline.clone(),
                base_graph,
                spec.source.0,
                spec.client.0,
                spec.adapt.clone(),
                initial.clone(),
            ),
            true,
        ),
        AdaptPolicy::Oracle => Controller::oracle(&spec.topology, spec.adapt.options),
    };
    let session = SessionLoopSpec {
        id: spec.session,
        pipeline: spec.pipeline.clone(),
        source: spec.source,
        client: spec.client,
        frames: spec.iterations,
        start_at: 0.0,
    };
    let mut loops = [LoopState::new(session, initial, controller)];
    let (audit, _) = drive(
        &DriveSpec {
            topology: &spec.topology,
            schedule: &spec.schedule.events,
            cm: spec.cm,
            seed: spec.seed,
            target_goodput: spec.target_goodput,
            max_virtual_time: spec.max_virtual_time,
        },
        &mut loops,
    )?;
    let [lp] = loops;

    // Every requested frame delivered exactly once?
    let frames_requested = lp.requested;
    let tally = audit.tally(spec.source.0, spec.client.0, frames_requested);
    let remap_latency_s = match (spec.schedule.first_event_at(), lp.migrations.first()) {
        (Some(event), Some(mig)) => Some(mig.at - event.as_secs()),
        _ => None,
    };
    let (solve_us_total, solves) = lp.controller.solve_timing();
    let decisions = lp.controller.monitor().map(|m| m.decisions().to_vec());
    Ok(AdaptiveRun {
        policy: policy.name().to_string(),
        delays: tally.delays,
        starts: tally.starts,
        paths: lp.frame_paths,
        decisions: decisions.unwrap_or_default(),
        migrations: lp.migrations,
        frames_requested,
        frames_completed: tally.completed,
        frames_lost: frames_requested - tally.completed,
        frames_duplicated: tally.duplicated,
        remap_latency_s,
        solve_us_total,
        solves,
    })
}

// ---------------------------------------------------------------- demo WAN

/// The two-route demonstration WAN used by the adaptive-loop tests and the
/// benchmark's `wan_loop` workload, plus the link ids its degradation
/// scenario targets.
#[derive(Debug, Clone)]
pub struct DemoWan {
    /// The topology: src, midA, midB, client, cm.
    pub topology: Topology,
    /// Headless data source.
    pub source: NodeId,
    /// The fast intermediate (initially optimal route).
    pub mid_a: NodeId,
    /// The alternative intermediate.
    pub mid_b: NodeId,
    /// Graphics-capable client.
    pub client: NodeId,
    /// Central-management node, off the data path.
    pub cm: NodeId,
    /// Both directions of the src–midA link (the degradation target).
    pub src_mid_a: (LinkId, LinkId),
}

/// Build the demo WAN: two candidate routes of different quality plus a
/// thin direct link, with the CM hanging off the side.  Clean links (no
/// loss/jitter) keep the bench exactly reproducible; the dynamics come
/// from the scheduled events.
pub fn demo_wan() -> DemoWan {
    let mut t = Topology::new();
    let source = t.add_node(NodeSpec::headless("src", 1.0));
    let mid_a = t.add_node(NodeSpec::cluster("midA", 6.0, 8));
    let mid_b = t.add_node(NodeSpec::cluster("midB", 5.0, 8));
    let client = t.add_node(NodeSpec::workstation("client", 1.5));
    let cm = t.add_node(NodeSpec::workstation("cm", 1.0));
    let src_mid_a = t.connect(source, mid_a, LinkSpec::from_mbps(320.0, 0.008));
    t.connect(mid_a, client, LinkSpec::from_mbps(320.0, 0.008));
    t.connect(source, mid_b, LinkSpec::from_mbps(200.0, 0.012));
    t.connect(mid_b, client, LinkSpec::from_mbps(200.0, 0.012));
    t.connect(source, client, LinkSpec::from_mbps(40.0, 0.030));
    t.connect(cm, source, LinkSpec::from_mbps(80.0, 0.010));
    t.connect(cm, client, LinkSpec::from_mbps(80.0, 0.010));
    DemoWan {
        topology: t,
        source,
        mid_a,
        mid_b,
        client,
        cm,
        src_mid_a,
    }
}

impl DemoWan {
    /// A degradation scenario for this WAN: at `at` seconds both
    /// directions of src–midA collapse to `factor` of their bandwidth
    /// (and never recover — the route must be abandoned, not waited out).
    pub fn degradation(&self, at: f64, factor: f64) -> DynamicScenario {
        let mk = |link| LinkEvent {
            at: SimTime::from_secs(at),
            link,
            change: LinkChange::ScaleBandwidth { factor },
        };
        DynamicScenario {
            label: format!("src–midA × {factor} at {at}s"),
            seed: 0,
            events: vec![mk(self.src_mid_a.0), mk(self.src_mid_a.1)],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_pipemap::pipeline::ModuleSpec;

    fn demo_pipeline() -> Pipeline {
        // A light pipeline (half-MB dataset) so the loop test stays fast
        // while transfers still dominate processing.
        Pipeline::new(
            "adapt-test",
            512e3,
            vec![
                ModuleSpec::new("filter", 2e-9, 512e3),
                ModuleSpec::new("extract", 1e-8, 128e3),
                ModuleSpec::new("render", 5e-9, 64e3).requiring_graphics(),
            ],
        )
    }

    fn spec(iterations: u64, event_at: f64) -> AdaptiveLoopSpec {
        let wan = demo_wan();
        AdaptiveLoopSpec {
            schedule: wan.degradation(event_at, 0.08),
            pipeline: demo_pipeline(),
            source: wan.source,
            client: wan.client,
            cm: wan.cm,
            iterations,
            seed: 11,
            target_goodput: 200e6,
            adapt: AdaptConfig::default(),
            session: 1,
            max_virtual_time: SimTime::from_secs(600.0),
            topology: wan.topology,
        }
    }

    #[test]
    fn static_loop_completes_every_frame_exactly_once() {
        let run = run_adaptive_loop(&spec(4, 1e9), AdaptPolicy::Static).unwrap();
        assert_eq!(run.frames_requested, 4);
        assert_eq!(run.frames_completed, 4);
        assert_eq!(run.frames_lost, 0);
        assert_eq!(run.frames_duplicated, 0);
        assert_eq!(run.delays.len(), 4);
        assert!(run.migrations.is_empty());
        assert!(run.delays.iter().all(|d| *d > 0.0));
        // Initial mapping routes through midA.
        assert!(
            run.paths[0].contains(&1),
            "expected midA in {:?}",
            run.paths
        );
    }

    #[test]
    fn adaptive_loop_migrates_after_the_event_and_beats_static() {
        let event_at = 1.0;
        let s = spec(14, event_at);
        let run_static = run_adaptive_loop(&s, AdaptPolicy::Static).unwrap();
        let adaptive = run_adaptive_loop(&s, AdaptPolicy::Adaptive).unwrap();
        let oracle = run_adaptive_loop(&s, AdaptPolicy::Oracle).unwrap();

        for run in [&run_static, &adaptive, &oracle] {
            assert_eq!(run.frames_lost, 0, "{}: lost frames", run.policy);
            assert_eq!(run.frames_duplicated, 0, "{}: dup frames", run.policy);
            assert_eq!(run.frames_completed, 14, "{}", run.policy);
        }
        // The adaptive controller migrated off midA exactly once.
        assert_eq!(adaptive.migrations.len(), 1, "{:?}", adaptive.migrations);
        let mig = &adaptive.migrations[0];
        assert!(mig.old_path.contains(&1) && !mig.new_path.contains(&1));
        assert!(adaptive.remap_latency_s.unwrap() > 0.0);
        // Steady state: adaptive ≈ oracle, both beating static clearly.
        let tail = 4;
        let s_tail = run_static.steady_state_mean(tail).unwrap();
        let a_tail = adaptive.steady_state_mean(tail).unwrap();
        let o_tail = oracle.steady_state_mean(tail).unwrap();
        assert!(
            a_tail < s_tail,
            "adaptive tail {a_tail} not better than static {s_tail}"
        );
        assert!(
            a_tail <= o_tail * 1.10,
            "adaptive tail {a_tail} not within 10% of oracle {o_tail}"
        );
    }

    #[test]
    fn adaptive_runs_are_deterministic_per_seed() {
        let s = spec(8, 1.0);
        let a = run_adaptive_loop(&s, AdaptPolicy::Adaptive).unwrap();
        let b = run_adaptive_loop(&s, AdaptPolicy::Adaptive).unwrap();
        assert_eq!(a.decisions, b.decisions);
        assert_eq!(a.delays, b.delays);
        assert_eq!(a.paths, b.paths);
        assert_eq!(
            a.migrations
                .iter()
                .map(|m| (m.at.to_bits(), m.new_path.clone()))
                .collect::<Vec<_>>(),
            b.migrations
                .iter()
                .map(|m| (m.at.to_bits(), m.new_path.clone()))
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn misconfigured_specs_error() {
        let wan = demo_wan();
        let mut s = spec(1, 1e9);
        s.cm = wan.source;
        assert!(run_adaptive_loop(&s, AdaptPolicy::Static).is_err());
    }
}
