//! The RICSA framework: roles, protocol, steering sessions and experiments.
//!
//! This crate ties the substrates together into the system of the paper's
//! Fig. 1: an Ajax client / front end, a central-management (CM) node, a
//! simulation/data-source (DS) node and computing-service (CS) nodes,
//! connected by a control channel (steering and visualization parameters)
//! and a data channel (datasets, geometry, images) over the simulated
//! wide-area network.
//!
//! * [`message`] — the control-protocol messages exchanged over the loop,
//! * [`catalog`] — the simulation/dataset catalog and standard pipeline
//!   construction from calibrated cost models,
//! * [`stage`] — the pipeline-stage application (data source, computing
//!   service, client) that moves data around the loop with the
//!   Robbins–Monro transport and simulates module processing times,
//! * [`roles`] — the client/front-end and central-management applications,
//! * [`session`] — assembling one steering session on a topology,
//! * [`experiment`] — the Fig. 9 / Fig. 10 experiment drivers,
//! * [`sweep`] — the one evaluation-sweep harness (seeded cells, fan-out,
//!   distribution summary, table formatting, audits) and the scenario
//!   sweep evaluating the optimizer across generated WAN families (see
//!   DESIGN.md §6),
//! * `driver` (crate-private) — the one frame-paced loop driver: per-hop
//!   stage hosting in per-node session muxes, the incremental frame
//!   audit, the per-loop controller (static / monitored / oracle) and the
//!   frame-boundary migration protocol (see DESIGN.md §8.5 and §11.2),
//! * [`adapt`] — adaptive re-mapping: the spec, policies and run record
//!   of one frame-paced loop on a time-varying WAN, run as the
//!   one-session case of the driver (see DESIGN.md §8),
//! * [`adapt_sweep`] — the dynamic-scenario sweep quantifying
//!   static-vs-adaptive-vs-oracle win rates across hundreds of seeded
//!   schedules (see DESIGN.md §9),
//! * [`sessions`] — multi-session serving: many frame-paced user loops
//!   contending on one WAN, mapped independently or by the
//!   contention-aware joint solve and run by the driver, with live
//!   spawn/retire/migrate through per-node session muxes (see DESIGN.md
//!   §11),
//! * [`session_sweep`] — the multi-session sweep quantifying
//!   joint-vs-independent-vs-client/server throughput, tail latency and
//!   Jain fairness across session counts and contention families,
//! * [`api`] — the `Ricsa*` simulation-side API mirroring the six calls the
//!   paper inserts into VH1 (Fig. 7), used by the web front end and the
//!   examples to steer a live in-process simulation.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod adapt;
pub mod adapt_sweep;
pub mod api;
pub mod catalog;
mod driver;
pub mod experiment;
pub mod message;
pub mod roles;
pub mod session;
pub mod session_sweep;
pub mod sessions;
pub mod stage;
pub mod sweep;

pub use adapt::{run_adaptive_loop, AdaptPolicy, AdaptiveLoopSpec, AdaptiveRun};
pub use adapt_sweep::{AdaptSweepConfig, AdaptSweepRecord, AdaptSweepReport, AdaptSweepSummary};
pub use api::{SimulationCommand, SimulationServer, SimulationStatus};
pub use catalog::{standard_pipeline, SessionSpec, SimulationCatalog};
pub use experiment::{
    fig10_experiment, fig9_experiment, run_loop_experiment, Fig10Row, Fig9Row, LoopResult, LoopSpec,
};
pub use message::ControlMessage;
pub use session::{SessionPlan, SteeringSession};
pub use session_sweep::{
    ContentionFamily, PolicyComparison, SessionSweepConfig, SessionSweepRecord, SessionSweepReport,
};
pub use sessions::{
    contention_wan, jain_fairness, run_multi_session, MappingPolicy, MultiSessionRun,
    MultiSessionSpec, SessionLoopSpec, SessionMux, SessionRun,
};
pub use sweep::{ScenarioOutcome, Sweep, SweepConfig, SweepReport, SweepSummary};

#[cfg(test)]
mod tests {
    use crate::sweep::{run, Sweep};
    use serde::Serialize;

    /// A sweep whose cell `i` is the sum of `weights[..=i]`: every cell
    /// reads the one shared configuration, and the report is the cells in
    /// order, so [`run`]'s fan-out is checked whatever the core count.
    #[derive(Serialize)]
    struct PrefixSums {
        weights: Vec<f64>,
        seed: u64,
    }

    impl Sweep for PrefixSums {
        type Cell = f64;
        type Report = Vec<f64>;

        fn preset(_quick: bool) -> Self {
            PrefixSums {
                weights: Vec::new(),
                seed: 0,
            }
        }
        fn seed_mut(&mut self) -> &mut u64 {
            &mut self.seed
        }
        fn cells(&self) -> usize {
            self.weights.len()
        }
        fn run_cell(&self, index: usize) -> f64 {
            self.weights[..=index].iter().sum()
        }
        fn aggregate(&self, cells: Vec<f64>) -> Vec<f64> {
            cells
        }
        fn format(report: &Vec<f64>) -> String {
            format!("{report:?}")
        }
        fn audit(&self, _report: &Vec<f64>) -> Result<(), String> {
            Ok(())
        }
    }

    fn prefix_sums(weights: Vec<f64>) -> Vec<f64> {
        run(&PrefixSums { weights, seed: 0 })
    }

    #[test]
    fn range_map_collect_preserves_order() {
        for cells in [1, 7, 1000] {
            let out = prefix_sums((0..cells).map(|i| i as f64).collect());
            let expected: Vec<f64> = (0..cells).map(|i| (i * (i + 1) / 2) as f64).collect();
            assert_eq!(out, expected, "{cells} cells");
        }
    }

    #[test]
    fn empty_range_collects_empty() {
        assert!(prefix_sums(Vec::new()).is_empty());
    }

    #[test]
    fn closures_capture_shared_state() {
        let sums = prefix_sums(vec![1.0; 64]);
        assert_eq!(sums, (1..=64).map(f64::from).collect::<Vec<_>>());
    }
}
