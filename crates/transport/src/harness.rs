//! One-call helpers for running transport flows on a simulated topology.
//!
//! The stabilization experiments and the EPB active-measurement procedure
//! both need the same scaffolding: build a simulator, install a sender and a
//! receiver, run for a while, and pull the statistics back out.  This module
//! provides that scaffolding.

use crate::aimd::{AimdController, AimdParams};
use crate::fixed::FixedController;
use crate::flow::{shared_stats, FlowConfig, FlowStats, RateController};
use crate::receiver::FlowReceiver;
use crate::rm::{RmController, RmParams};
use crate::sender::WindowSender;
use crate::stats::TimeSeries;
use ricsa_netsim::node::NodeId;
use ricsa_netsim::sim::Simulator;
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use serde::{Deserialize, Serialize};

/// Which rate controller a flow experiment uses.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControllerChoice {
    /// Robbins–Monro stabilization toward the contained target (bytes/s).
    RobbinsMonro {
        /// Target goodput `g*`, bytes per second.
        target_bps: f64,
    },
    /// AIMD (TCP-like) baseline.
    Aimd,
    /// Open-loop fixed rate (bytes/s).
    FixedRate {
        /// Nominal send rate, bytes per second.
        rate_bps: f64,
    },
}

/// Description of a single-flow experiment between two nodes of a topology.
#[derive(Debug, Clone)]
pub struct FlowExperiment {
    /// The topology to run on.
    pub topology: Topology,
    /// Sending node.
    pub src: NodeId,
    /// Receiving node.
    pub dst: NodeId,
    /// Flow configuration (message size, window, MTU, ...).
    pub config: FlowConfig,
    /// Rate controller selection.
    pub controller: ControllerChoice,
    /// Virtual-time horizon of the run.
    pub duration: SimTime,
    /// RNG seed.
    pub seed: u64,
}

/// The outcome of a flow experiment.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowOutcome {
    /// Raw flow statistics.
    pub stats: FlowStats,
    /// Goodput samples as a time series (receiver estimates, bytes/s).
    pub goodput: TimeSeries,
    /// Controller name for reporting.
    pub controller: String,
    /// Completion time of the finite message, if one was configured and it
    /// completed within the horizon (seconds from flow start).
    pub completion_time: Option<f64>,
}

impl FlowOutcome {
    /// Steady-state mean goodput: the mean over the second half of the run.
    pub fn steady_state_goodput(&self) -> f64 {
        let t_half = self
            .goodput
            .samples
            .last()
            .map(|(t, _)| t / 2.0)
            .unwrap_or(0.0);
        self.goodput.after(t_half).mean()
    }

    /// Steady-state coefficient of variation (jitter) of the goodput.
    pub fn steady_state_cv(&self) -> f64 {
        let t_half = self
            .goodput
            .samples
            .last()
            .map(|(t, _)| t / 2.0)
            .unwrap_or(0.0);
        self.goodput.after(t_half).coefficient_of_variation()
    }
}

/// Run a single transport flow and collect its statistics.
pub fn run_flow(exp: FlowExperiment) -> FlowOutcome {
    let stats = shared_stats();
    let mut sim = Simulator::new(exp.topology, exp.seed);
    let controller_name;

    match exp.controller {
        ControllerChoice::RobbinsMonro { target_bps } => {
            let params = RmParams {
                window: exp.config.window,
                mtu: exp.config.mtu,
                initial_sleep: exp.config.initial_sleep,
                ..RmParams::for_target(target_bps)
            };
            let controller = RmController::new(params);
            controller_name = controller.name().to_string();
            let sender = WindowSender::new(exp.config.clone(), exp.dst, controller, stats.clone());
            sim.install(exp.src, Box::new(sender));
        }
        ControllerChoice::Aimd => {
            let controller = AimdController::new(AimdParams {
                sleep: exp.config.initial_sleep,
                initial_window: exp.config.window,
                ..AimdParams::default()
            });
            controller_name = controller.name().to_string();
            let sender = WindowSender::new(exp.config.clone(), exp.dst, controller, stats.clone());
            sim.install(exp.src, Box::new(sender));
        }
        ControllerChoice::FixedRate { rate_bps } => {
            let controller = FixedController::for_rate(rate_bps, exp.config.window, exp.config.mtu);
            controller_name = controller.name().to_string();
            let sender = WindowSender::new(exp.config.clone(), exp.dst, controller, stats.clone());
            sim.install(exp.src, Box::new(sender));
        }
    }

    let receiver = FlowReceiver::new(exp.config.clone(), exp.src, stats.clone());
    sim.install(exp.dst, Box::new(receiver));
    sim.run_until(exp.duration);

    let final_stats = stats.borrow().clone();
    let goodput = TimeSeries::new(final_stats.goodput_samples.clone());
    FlowOutcome {
        completion_time: final_stats.completion_time,
        goodput,
        controller: controller_name,
        stats: final_stats,
    }
}

/// Convenience: measure the transfer latency of a single message of
/// `bytes` between two nodes using the Robbins–Monro transport with the
/// given target rate.  Returns `None` if the transfer did not complete
/// within `duration`.
pub fn measure_message_latency(
    topology: Topology,
    src: NodeId,
    dst: NodeId,
    bytes: usize,
    target_bps: f64,
    duration: SimTime,
    seed: u64,
) -> Option<f64> {
    let config = FlowConfig {
        message_bytes: Some(bytes),
        ..FlowConfig::default()
    };
    let outcome = run_flow(FlowExperiment {
        topology,
        src,
        dst,
        config,
        controller: ControllerChoice::RobbinsMonro { target_bps },
        duration,
        seed,
    });
    outcome.completion_time
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_netsim::crosstraffic::CrossTraffic;
    use ricsa_netsim::link::LinkSpec;
    use ricsa_netsim::loss::LossModel;
    use ricsa_netsim::node::NodeSpec;

    fn wan_pair(mbps: f64, delay: f64, loss: f64) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("src", 1.0));
        let b = t.add_node(NodeSpec::workstation("dst", 1.0));
        t.connect(
            a,
            b,
            LinkSpec::from_mbps(mbps, delay)
                .with_loss(LossModel::Bernoulli { p: loss })
                .with_queue_delay(1.0),
        );
        (t, a, b)
    }

    #[test]
    fn rm_flow_converges_to_target_goodput() {
        let (topo, a, b) = wan_pair(100.0, 0.02, 0.002);
        let target = 1.0e6; // 1 MB/s, well under the 12.5 MB/s link
        let outcome = run_flow(FlowExperiment {
            topology: topo,
            src: a,
            dst: b,
            config: FlowConfig::default(),
            controller: ControllerChoice::RobbinsMonro { target_bps: target },
            duration: SimTime::from_secs(30.0),
            seed: 5,
        });
        let ss = outcome.steady_state_goodput();
        assert!(
            (ss - target).abs() / target < 0.2,
            "steady-state goodput {ss} should be within 20% of target {target}"
        );
        assert!(
            outcome.steady_state_cv() < 0.2,
            "cv {}",
            outcome.steady_state_cv()
        );
        assert_eq!(outcome.controller, "robbins-monro");
    }

    #[test]
    fn rm_flow_tracks_its_target_where_aimd_cannot() {
        let build = || {
            let mut t = Topology::new();
            let a = t.add_node(NodeSpec::workstation("src", 1.0));
            let b = t.add_node(NodeSpec::workstation("dst", 1.0));
            t.connect(
                a,
                b,
                LinkSpec::from_mbps(20.0, 0.03)
                    .with_loss(LossModel::Bernoulli { p: 0.01 })
                    .with_cross_traffic(CrossTraffic::OnOff {
                        low_load: 0.1,
                        high_load: 0.5,
                        mean_low_duration: 1.0,
                        mean_high_duration: 1.0,
                    })
                    .with_queue_delay(0.5),
            );
            (t, a, b)
        };
        let (t1, a1, b1) = build();
        let rm = run_flow(FlowExperiment {
            topology: t1,
            src: a1,
            dst: b1,
            config: FlowConfig::default(),
            controller: ControllerChoice::RobbinsMonro { target_bps: 0.5e6 },
            duration: SimTime::from_secs(40.0),
            seed: 11,
        });
        let (t2, a2, b2) = build();
        let aimd = run_flow(FlowExperiment {
            topology: t2,
            src: a2,
            dst: b2,
            config: FlowConfig::default(),
            controller: ControllerChoice::Aimd,
            duration: SimTime::from_secs(40.0),
            seed: 11,
        });
        // The point of the Robbins-Monro transport is that the control
        // channel holds a *specified* goodput level despite loss and cross
        // traffic; AIMD has no target and simply runs the link as hard as it
        // can, so its goodput ends up far from g*.
        let target = 0.5e6;
        let rm_error = (rm.steady_state_goodput() - target).abs() / target;
        let aimd_error = (aimd.steady_state_goodput() - target).abs() / target;
        assert!(
            rm_error < 0.2,
            "RM should hold g*: relative error {rm_error}"
        );
        assert!(
            rm.steady_state_cv() < 0.2,
            "RM jitter {}",
            rm.steady_state_cv()
        );
        assert!(
            aimd_error > 2.0 * rm_error,
            "AIMD should miss the target by far more than RM (aimd {aimd_error}, rm {rm_error})"
        );
    }

    #[test]
    fn finite_message_completes_and_latency_scales_with_size() {
        let (topo, a, b) = wan_pair(80.0, 0.01, 0.001);
        let small = measure_message_latency(
            topo.clone(),
            a,
            b,
            200_000,
            5e6,
            SimTime::from_secs(60.0),
            3,
        )
        .expect("small transfer should complete");
        let large =
            measure_message_latency(topo, a, b, 2_000_000, 5e6, SimTime::from_secs(60.0), 3)
                .expect("large transfer should complete");
        assert!(large > small, "large {large} should exceed small {small}");
    }

    #[test]
    fn lossy_path_still_delivers_reliably() {
        let (topo, a, b) = wan_pair(50.0, 0.02, 0.05); // 5 % loss
        let config = FlowConfig {
            message_bytes: Some(500_000),
            ..FlowConfig::default()
        };
        let outcome = run_flow(FlowExperiment {
            topology: topo,
            src: a,
            dst: b,
            config,
            controller: ControllerChoice::RobbinsMonro { target_bps: 2e6 },
            duration: SimTime::from_secs(120.0),
            seed: 9,
        });
        assert!(
            outcome.completion_time.is_some(),
            "transfer must complete despite 5% loss"
        );
        assert!(outcome.stats.retransmissions > 0);
        assert!(outcome.stats.bytes_delivered >= 500_000);
    }

    /// The last-resort timeout measures silence from the flow's first
    /// burst, not from t = 0: a flow created five virtual seconds into a
    /// run on a lossless link retransmits nothing, like one created at 0.
    #[test]
    fn a_flow_created_late_on_a_lossless_link_sends_no_retransmission() {
        for start in [0.0, 5.0] {
            let (topo, a, b) = wan_pair(80.0, 0.01, 0.0);
            let config = FlowConfig {
                message_bytes: Some(2_000_000),
                ..FlowConfig::default()
            };
            let stats = shared_stats();
            let mut sim = Simulator::new(topo, 3);
            sim.wake_at(SimTime::from_secs(start));
            sim.run_until(SimTime::from_secs(start));
            let controller = FixedController::for_rate(5e6, config.window, config.mtu);
            let sender = WindowSender::new(config.clone(), b, controller, stats.clone());
            sim.install(a, Box::new(sender));
            sim.install(b, Box::new(FlowReceiver::new(config, a, stats.clone())));
            sim.run_until(SimTime::from_secs(start + 60.0));
            let stats = stats.borrow();
            assert!(
                stats.completion_time.is_some(),
                "flow created at t = {start} s"
            );
            assert_eq!(stats.retransmissions, 0, "flow created at t = {start} s");
        }
    }

    #[test]
    fn fixed_rate_overdriving_a_slow_link_loses_datagrams() {
        let (topo, a, b) = wan_pair(1.0, 0.01, 0.0); // 125 KB/s link
        let outcome = run_flow(FlowExperiment {
            topology: topo,
            src: a,
            dst: b,
            config: FlowConfig::default(),
            controller: ControllerChoice::FixedRate { rate_bps: 2e6 },
            duration: SimTime::from_secs(10.0),
            seed: 2,
        });
        // The open-loop sender pushes ~2 MB/s into a 125 KB/s link: most of
        // it must be dropped at the queue, so goodput lands near capacity.
        assert!(outcome.steady_state_goodput() < 0.3e6);
        assert_eq!(outcome.controller, "fixed-rate");
    }
}
