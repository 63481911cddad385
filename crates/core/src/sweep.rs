//! The scenario-sweep driver: generate → map → simulate → aggregate.
//!
//! Where [`crate::experiment`] replays the paper's fixed six-site deployment
//! (Figs. 9–10), this module evaluates the optimizer across *families* of
//! generated wide-area topologies ([`ricsa_netsim::generators`]): for
//! each scenario it generates a WAN, maps the standard isosurface pipeline
//! onto it (relay-extended DP versus the default-route baseline — see
//! `ricsa-pipemap::sweep`), optionally simulates both mappings on the
//! discrete-event WAN, and aggregates win-rate and speedup distributions.
//! Scenarios are independent, so the sweep fans out over worker threads via
//! the `rayon` shim.
//!
//! DESIGN.md §6 ("Evaluation book") documents the scenario model and how to
//! read the output.

use crate::catalog::{standard_pipeline, SessionSpec, SimulationCatalog};
use crate::session::{SessionPlan, SteeringSession};
use crate::stage::revisited_node;
use rayon::prelude::*;
use ricsa_netsim::generators::{generate, GeneratedWan, WanKind};
use ricsa_netsim::node::NodeId;
use ricsa_netsim::sim::Simulator;
use ricsa_netsim::time::SimTime;
use ricsa_pipemap::delay::{DelayBreakdown, Mapping};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::sweep::{solve_scenario, Scenario, SweepRecord, SweepSummary};
use ricsa_pipemap::vrt::VisualizationRoutingTable;
use ricsa_vizdata::dataset::DatasetKind;
use serde::{Deserialize, Serialize};

/// Configuration of one scenario sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepConfig {
    /// Number of scenarios to generate (alternating Waxman / transit-stub).
    pub scenarios: usize,
    /// Base RNG seed; scenario `i` derives its own seed from it.
    pub seed: u64,
    /// Smallest generated topology (nodes).
    pub min_nodes: usize,
    /// Largest generated topology (nodes).
    pub max_nodes: usize,
    /// Dataset size pushed around each loop, bytes.
    pub dataset_bytes: usize,
    /// Also simulate both mappings on the discrete-event WAN (the analytic
    /// comparison always runs).
    pub simulate: bool,
    /// Virtual-time budget per simulated loop.
    pub max_virtual_time: SimTime,
    /// Target goodput of the stage-to-stage data flows, bytes/second.
    pub target_goodput: f64,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            scenarios: 50,
            seed: 20080414,
            min_nodes: 6,
            max_nodes: 24,
            dataset_bytes: 4 << 20,
            simulate: true,
            max_virtual_time: SimTime::from_secs(120.0),
            target_goodput: 200e6,
        }
    }
}

impl SweepConfig {
    /// The CI-friendly quick sweep: ≥ 50 small scenarios, simulated, done
    /// in well under a minute.
    pub fn quick() -> Self {
        SweepConfig::default()
    }

    /// A larger sweep for the full evaluation: more scenarios, bigger
    /// topologies, a paper-scale (Jet-sized) dataset.
    pub fn full() -> Self {
        SweepConfig {
            scenarios: 120,
            max_nodes: 64,
            dataset_bytes: 16 << 20,
            max_virtual_time: SimTime::from_secs(600.0),
            ..SweepConfig::default()
        }
    }
}

/// The outcome of one sweep scenario: the analytic record plus, when
/// simulation ran, the measured loop delays of both mappings.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioOutcome {
    /// Which generator family produced the topology.
    pub kind: WanKind,
    /// The analytic comparison record.
    pub record: SweepRecord,
    /// Measured end-to-end delay of the optimal mapping, seconds.
    pub measured_optimal: Option<f64>,
    /// Measured end-to-end delay of the baseline mapping, seconds.
    pub measured_baseline: Option<f64>,
}

/// Aggregated result of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepReport {
    /// Per-scenario outcomes, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Win-rate/speedup statistics of the analytic (model-predicted) delays
    /// against the default-route baseline.
    pub analytic: SweepSummary,
    /// Analytic statistics against the client/server ("PC–PC") baseline.
    pub analytic_client_server: SweepSummary,
    /// Win-rate/speedup statistics of the simulated (measured) delays.
    pub simulated: SweepSummary,
}

/// Derive a per-scenario seed that decorrelates neighbouring scenarios.
pub(crate) fn scenario_seed(base: u64, index: u64) -> u64 {
    (base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(index)
}

/// Run a sweep: generate, map, optionally simulate, aggregate.
pub fn run_sweep(config: &SweepConfig) -> SweepReport {
    let catalog = SimulationCatalog::default();
    let span = config.max_nodes.max(config.min_nodes) - config.min_nodes + 1;
    let outcomes: Vec<ScenarioOutcome> = (0..config.scenarios)
        .into_par_iter()
        .map(|i| {
            let kind = if i % 2 == 0 {
                WanKind::Waxman
            } else {
                WanKind::TransitStub
            };
            // Sweep the size axis deterministically across the range.
            let nodes = config.min_nodes + (i * 7) % span;
            let seed = scenario_seed(config.seed, i as u64);
            let wan = generate(kind, nodes, seed);
            let graph = NetGraph::from_topology(&wan.topology);
            let scenario = Scenario {
                id: i as u64,
                label: wan.label.clone(),
                seed,
                pipeline: standard_pipeline(config.dataset_bytes, &catalog.costs),
                graph,
                source: wan.source.0,
                destination: wan.client.0,
            };
            let solution = solve_scenario(&scenario);
            let (measured_optimal, measured_baseline) = if config.simulate {
                (
                    solution.optimal.as_ref().and_then(|o| {
                        simulate_mapping(&wan, &scenario, &o.mapping, &o.delay, config)
                    }),
                    solution
                        .baseline
                        .as_ref()
                        .and_then(|(m, d)| simulate_mapping(&wan, &scenario, m, d, config)),
                )
            } else {
                (None, None)
            };
            ScenarioOutcome {
                kind,
                record: solution.record,
                measured_optimal,
                measured_baseline,
            }
        })
        .collect();
    let analytic = SweepSummary::aggregate(
        &outcomes
            .iter()
            .map(|o| o.record.clone())
            .collect::<Vec<_>>(),
    );
    let analytic_client_server = SweepSummary::from_speedups(
        outcomes.len(),
        outcomes
            .iter()
            .filter_map(|o| o.record.client_server_speedup)
            .collect(),
    );
    let measured_speedups: Vec<f64> = outcomes
        .iter()
        .filter_map(|o| match (o.measured_optimal, o.measured_baseline) {
            (Some(opt), Some(base)) if opt > 0.0 => Some(base / opt),
            _ => None,
        })
        .collect();
    let simulated = SweepSummary::from_speedups(outcomes.len(), measured_speedups);
    SweepReport {
        outcomes,
        analytic,
        analytic_client_server,
        simulated,
    }
}

/// Simulate one mapping on the generated WAN and return the measured
/// end-to-end delay of the first completed iteration.  Returns `None` when
/// the scenario cannot be installed (every node lies on the data path, or
/// the walk revisits a node — one stage application per node) or the
/// iteration does not finish within the virtual-time budget.
fn simulate_mapping(
    wan: &GeneratedWan,
    scenario: &Scenario,
    mapping: &Mapping,
    predicted: &DelayBreakdown,
    config: &SweepConfig,
) -> Option<f64> {
    let path = &mapping.path;
    if revisited_node(path).is_some() {
        return None;
    }
    // The central manager must sit off the data path.
    let cm = (0..wan.topology.node_count())
        .map(NodeId)
        .find(|id| !path.contains(&id.0))?;
    let vrt = VisualizationRoutingTable::from_mapping(
        &scenario.pipeline,
        &scenario.graph,
        mapping,
        predicted.total,
    );
    let plan = SessionPlan {
        session: scenario.id + 1,
        spec: SessionSpec::Archival {
            dataset: DatasetKind::Jet,
        },
        pipeline: scenario.pipeline.clone(),
        mapping: mapping.clone(),
        vrt,
        predicted: *predicted,
        processing_overhead: 1.0,
    };
    let mut sim = Simulator::new(wan.topology.clone(), scenario.seed);
    SteeringSession::install(&plan, &mut sim, cm, 1, config.target_goodput);
    let delays = SteeringSession::run(&mut sim, 1, config.max_virtual_time);
    delays
        .first()
        .copied()
        .filter(|d| d.is_finite() && *d > 0.0)
}

/// Render a sweep report as an aligned text table plus summary lines.
pub fn format_sweep_report(report: &SweepReport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<6}{:<14}{:>7}{:>7}{:>12}{:>12}{:>9}{:>12}{:>12}\n",
        "id", "family", "nodes", "links", "opt (s)", "base (s)", "speedup", "sim opt", "sim base"
    ));
    for o in &report.outcomes {
        let fmt_opt = |v: Option<f64>| match v {
            Some(x) => format!("{x:.3}"),
            None => "-".to_string(),
        };
        out.push_str(&format!(
            "{:<6}{:<14}{:>7}{:>7}{:>12}{:>12}{:>9}{:>12}{:>12}\n",
            o.record.id,
            o.kind.name(),
            o.record.nodes,
            o.record.links,
            fmt_opt(o.record.optimal_delay),
            fmt_opt(o.record.baseline_delay),
            match o.record.speedup {
                Some(s) => format!("{s:.2}x"),
                None => "-".to_string(),
            },
            fmt_opt(o.measured_optimal),
            fmt_opt(o.measured_baseline),
        ));
    }
    let line = |label: &str, s: &SweepSummary| {
        format!(
            "{label}: {}/{} compared, win rate {:.0}%, speedup mean {:.2}x (p10 {:.2}x, median {:.2}x, p90 {:.2}x)\n",
            s.compared,
            s.scenarios,
            100.0 * s.win_rate,
            s.mean_speedup,
            s.p10_speedup,
            s.p50_speedup,
            s.p90_speedup
        )
    };
    out.push_str(&line("\nAnalytic vs default route  ", &report.analytic));
    out.push_str(&line(
        "Analytic vs client/server  ",
        &report.analytic_client_server,
    ));
    if report.simulated.compared > 0 {
        out.push_str(&line("Simulated vs default route ", &report.simulated));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_is_deterministic_and_optimal_dominates_analytically() {
        let config = SweepConfig {
            scenarios: 8,
            simulate: false,
            ..SweepConfig::default()
        };
        let a = run_sweep(&config);
        let b = run_sweep(&config);
        assert_eq!(a, b, "same config and seed must reproduce the sweep");
        assert_eq!(a.outcomes.len(), 8);
        // Every scenario must be analytically comparable (generated WANs
        // are connected and the client renders), and the optimizer never
        // loses to the default route under the model.
        assert_eq!(a.analytic.compared, 8);
        for o in &a.outcomes {
            let s = o.record.speedup.expect("comparable");
            assert!(s >= 1.0 - 1e-9, "scenario {}: speedup {s}", o.record.id);
        }
    }

    #[test]
    fn simulated_sweep_produces_measured_delays() {
        let config = SweepConfig {
            scenarios: 4,
            dataset_bytes: 256 << 10,
            ..SweepConfig::default()
        };
        let report = run_sweep(&config);
        let measured = report
            .outcomes
            .iter()
            .filter(|o| o.measured_optimal.is_some() && o.measured_baseline.is_some())
            .count();
        assert!(
            measured >= 3,
            "only {measured}/4 scenarios produced measured delays"
        );
        assert!(report.simulated.compared >= 3);
        let table = format_sweep_report(&report);
        assert!(table.contains("waxman"));
        assert!(table.contains("transit-stub"));
        assert!(table.contains("Analytic vs default route"));
        assert!(table.contains("client/server"));
        assert!(table.contains("Simulated"));
    }

    #[test]
    fn seeds_decorrelate_scenarios() {
        let a = scenario_seed(1, 0);
        let b = scenario_seed(1, 1);
        let c = scenario_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }
}
