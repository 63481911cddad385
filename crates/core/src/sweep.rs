//! The evaluation-sweep harness, and the scenario sweep built on it.
//!
//! Where [`crate::experiment`] replays the paper's fixed six-site deployment
//! (Figs. 9–10), the sweeps apply the same method — run a mapped loop,
//! compare, tabulate — across *families* of generated scenarios.  A sweep is
//! a [`Sweep`] implementation on its configuration: it names its cells, runs
//! one, folds the results into a report, renders the report and audits it.
//! Everything the sweeps share lives here exactly once: the seeded
//! enumeration of generated WANs (`generated_wan`, `scenario_seed`,
//! `off_path_node`), the scoped-thread fan-out ([`run`]), the distribution
//! summary ([`Distribution`], [`mean`]) and the table formatting (`table`,
//! `opt`).  Three sweeps implement it:
//!
//! * the **scenario sweep** of this module ([`SweepConfig`]): does the
//!   *optimizer* win?  Per generated WAN it maps the standard isosurface
//!   pipeline (relay-extended DP versus the default-route baseline — see
//!   `ricsa-pipemap::sweep`), optionally simulates both mappings on the
//!   discrete-event WAN, and aggregates win-rate and speedup distributions,
//! * [`crate::adapt_sweep`]: does the *adaptive controller* win?
//! * [`crate::session_sweep`]: does the *joint mapper* win?
//!
//! Reports carry virtual-time quantities only, so they are byte-identical
//! per seed (`tests/sweep_records.rs` pins the quick presets).  DESIGN.md §6
//! ("Evaluation book") documents the scenario model and how to read the
//! output.

use crate::catalog::{standard_pipeline, SessionSpec, SimulationCatalog};
use crate::session::{SessionPlan, SteeringSession};
use crate::stage::revisited_node;
use ricsa_netsim::generators::{generate, GeneratedWan, WanKind};
use ricsa_netsim::node::NodeId;
use ricsa_netsim::sim::Simulator;
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use ricsa_pipemap::delay::{DelayBreakdown, Mapping};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::sweep::{solve_scenario, Scenario, SweepRecord};
use ricsa_pipemap::vrt::VisualizationRoutingTable;
use ricsa_vizdata::dataset::DatasetKind;
use serde::{Deserialize, Serialize};

/// One evaluation sweep, implemented on its configuration: independent
/// cells, each deterministic per seed, folded into a serializable report.
pub trait Sweep: Serialize + Sync {
    /// What running one cell produces.
    type Cell: Send;
    /// The aggregated result.
    type Report: Serialize;

    /// The CI-scale quick configuration, or the full evaluation.
    fn preset(quick: bool) -> Self;
    /// The base RNG seed every cell derives its own from.
    fn seed_mut(&mut self) -> &mut u64;
    /// Number of independent cells.
    fn cells(&self) -> usize;
    /// Run cell `index`.
    fn run_cell(&self, index: usize) -> Self::Cell;
    /// Fold the cells, in cell order, into the report.
    fn aggregate(&self, cells: Vec<Self::Cell>) -> Self::Report;
    /// Render a report as an aligned text table plus summary lines.
    fn format(report: &Self::Report) -> String;
    /// The sweep's hard acceptance checks: what must hold for the report
    /// to mean anything.
    fn audit(&self, report: &Self::Report) -> Result<(), String>;
}

/// Run a sweep: one scoped worker per available core, each over a
/// contiguous range of cells, aggregated in cell order.
pub fn run<S: Sweep>(config: &S) -> S::Report {
    let len = config.cells();
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let chunk = len.div_ceil(cores).max(1);
    let cells = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..len)
            .step_by(chunk)
            .map(|lo| {
                let cells = lo..(lo + chunk).min(len);
                scope.spawn(move || cells.map(|i| config.run_cell(i)).collect::<Vec<_>>())
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| w.join().expect("sweep worker panicked"))
            .collect()
    });
    config.aggregate(cells)
}

/// Derive a per-cell seed that decorrelates neighbouring cells.
pub(crate) fn scenario_seed(base: u64, index: u64) -> u64 {
    (base ^ index.wrapping_mul(0x9E37_79B9_7F4A_7C15)).wrapping_add(index)
}

/// Generate WAN `index` of a sweep: families alternate Waxman /
/// transit-stub, the node count walks `nodes` (inclusive) in steps of
/// `stride` — pick one coprime to the span or the size axis collapses —
/// and the topology seed is [`scenario_seed`]`(base_seed, index)`.
pub(crate) fn generated_wan(
    base_seed: u64,
    index: usize,
    nodes: (usize, usize),
    stride: usize,
) -> (WanKind, GeneratedWan) {
    let kind = if index.is_multiple_of(2) {
        WanKind::Waxman
    } else {
        WanKind::TransitStub
    };
    let (min, max) = nodes;
    let span = max.max(min) - min + 1;
    let nodes = min + (index * stride) % span;
    (
        kind,
        generate(kind, nodes, scenario_seed(base_seed, index as u64)),
    )
}

/// The first node off `path`: where a sweep puts the central manager, which
/// must not share a node with a pipeline stage.
pub(crate) fn off_path_node(topology: &Topology, path: &[usize]) -> Option<NodeId> {
    (0..topology.node_count())
        .map(NodeId)
        .find(|id| !path.contains(&id.0))
}

/// The one distribution summary every sweep statistic is read from.
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    /// Number of values.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean: f64,
    /// 10th percentile (nearest rank, as all four; 0 when empty).
    pub p10: f64,
    /// Median.
    pub p50: f64,
    /// 90th percentile.
    pub p90: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Values above 1 by more than round-off — wins, when the values are
    /// baseline-over-candidate ratios.
    pub wins: usize,
    /// Values below 1 by more than round-off.
    pub losses: usize,
}

impl Distribution {
    /// Summarize `values`.
    pub fn of(values: impl IntoIterator<Item = f64>) -> Self {
        let mut sorted: Vec<f64> = values.into_iter().collect();
        sorted.sort_by(f64::total_cmp);
        Distribution {
            count: sorted.len(),
            mean: mean(&sorted).unwrap_or(0.0),
            p10: percentile(&sorted, 0.10),
            p50: percentile(&sorted, 0.50),
            p90: percentile(&sorted, 0.90),
            p99: percentile(&sorted, 0.99),
            wins: sorted.iter().filter(|&&v| v > 1.0 + 1e-9).count(),
            losses: sorted.iter().filter(|&&v| v < 1.0 - 1e-9).count(),
        }
    }

    /// `wins / count` (0 when empty).
    pub fn win_rate(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.wins as f64 / self.count as f64
        }
    }
}

/// Arithmetic mean, summed in slice order; absent when there is nothing to
/// average.  (The order is part of the contract: the pinned report digests
/// see the last bit of a sum.)
pub fn mean(values: &[f64]) -> Option<f64> {
    (!values.is_empty()).then(|| values.iter().sum::<f64>() / values.len() as f64)
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// A table cell for a value that may be absent: `decimals` places and a
/// unit suffix, or `-`.
pub(crate) fn opt(value: Option<f64>, decimals: usize, unit: &str) -> String {
    value.map_or_else(|| "-".to_string(), |v| format!("{v:.decimals$}{unit}"))
}

/// Render an aligned text table.  A column is `(header, width)`; cells are
/// right-aligned, or left-aligned when the width is negative.
pub(crate) fn table(
    columns: &[(&str, isize)],
    rows: impl IntoIterator<Item = Vec<String>>,
) -> String {
    let mut out = String::new();
    let header = columns.iter().map(|(name, _)| name.to_string()).collect();
    for row in std::iter::once(header).chain(rows) {
        for (cell, &(_, width)) in row.iter().zip(columns) {
            let pad = width.unsigned_abs();
            if width < 0 {
                out.push_str(&format!("{cell:<pad$}"));
            } else {
                out.push_str(&format!("{cell:>pad$}"));
            }
        }
        out.push('\n');
    }
    out
}

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

/// Win-rate and speedup statistics of the optimizer against one baseline.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Total scenarios in the set.
    pub scenarios: usize,
    /// Scenarios where both the optimizer and the baseline produced a
    /// delay (only these contribute to the statistics below).
    pub compared: usize,
    /// Scenarios where the optimal mapping is strictly faster than the
    /// baseline (by more than round-off).
    pub wins: usize,
    /// `wins / compared` (0 when nothing was compared).
    pub win_rate: f64,
    /// Mean of the per-scenario speedups.
    pub mean_speedup: f64,
    /// 10th percentile of the per-scenario speedups.
    pub p10_speedup: f64,
    /// Median per-scenario speedup.
    pub p50_speedup: f64,
    /// 90th percentile of the per-scenario speedups.
    pub p90_speedup: f64,
}

impl SweepSummary {
    /// Summarize the per-scenario `speedups` (baseline delay over optimal
    /// delay) that `scenarios` attempts produced.
    pub fn of(scenarios: usize, speedups: impl IntoIterator<Item = f64>) -> SweepSummary {
        let d = Distribution::of(speedups);
        SweepSummary {
            scenarios,
            compared: d.count,
            wins: d.wins,
            win_rate: d.win_rate(),
            mean_speedup: d.mean,
            p10_speedup: d.p10,
            p50_speedup: d.p50,
            p90_speedup: d.p90,
        }
    }
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

impl Sweep for SweepConfig {
    type Cell = ScenarioOutcome;
    type Report = SweepReport;

    fn preset(quick: bool) -> Self {
        if quick {
            SweepConfig::quick()
        } else {
            SweepConfig::full()
        }
    }

    fn seed_mut(&mut self) -> &mut u64 {
        &mut self.seed
    }

    fn cells(&self) -> usize {
        self.scenarios
    }

    /// Generate, map, optionally simulate.
    fn run_cell(&self, index: usize) -> ScenarioOutcome {
        let (kind, wan) = generated_wan(self.seed, index, (self.min_nodes, self.max_nodes), 7);
        let scenario = Scenario {
            id: index as u64,
            label: wan.label.clone(),
            seed: wan.seed,
            pipeline: standard_pipeline(self.dataset_bytes, &SimulationCatalog::default().costs),
            graph: NetGraph::from_topology(&wan.topology),
            source: wan.source.0,
            destination: wan.client.0,
        };
        let solution = solve_scenario(&scenario);
        let measure = |mapping: &Mapping, predicted: &DelayBreakdown| {
            self.simulate
                .then(|| simulate_mapping(&wan, &scenario, mapping, predicted, self))
                .flatten()
        };
        ScenarioOutcome {
            kind,
            measured_optimal: solution
                .optimal
                .as_ref()
                .and_then(|o| measure(&o.mapping, &o.delay)),
            measured_baseline: solution.baseline.as_ref().and_then(|(m, d)| measure(m, d)),
            record: solution.record,
        }
    }

    fn aggregate(&self, outcomes: Vec<ScenarioOutcome>) -> SweepReport {
        let summary = |speedup: fn(&ScenarioOutcome) -> Option<f64>| {
            SweepSummary::of(outcomes.len(), outcomes.iter().filter_map(speedup))
        };
        SweepReport {
            analytic: summary(|o| o.record.speedup),
            analytic_client_server: summary(|o| o.record.client_server_speedup),
            simulated: summary(|o| match (o.measured_optimal, o.measured_baseline) {
                (Some(opt), Some(base)) if opt > 0.0 => Some(base / opt),
                _ => None,
            }),
            outcomes,
        }
    }

    fn format(report: &SweepReport) -> String {
        let mut out = table(
            &[
                ("id", -6),
                ("family", -14),
                ("nodes", 7),
                ("links", 7),
                ("opt (s)", 12),
                ("base (s)", 12),
                ("speedup", 9),
                ("sim opt", 12),
                ("sim base", 12),
            ],
            report.outcomes.iter().map(|o| {
                vec![
                    o.record.id.to_string(),
                    o.kind.name().to_string(),
                    o.record.nodes.to_string(),
                    o.record.links.to_string(),
                    opt(o.record.optimal_delay, 3, ""),
                    opt(o.record.baseline_delay, 3, ""),
                    opt(o.record.speedup, 2, "x"),
                    opt(o.measured_optimal, 3, ""),
                    opt(o.measured_baseline, 3, ""),
                ]
            }),
        );
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

    /// The optimum is taken over a superset of the baseline's placements,
    /// so under the model it can never lose to the default route.
    fn audit(&self, report: &SweepReport) -> Result<(), String> {
        match report
            .outcomes
            .iter()
            .find(|o| o.record.speedup.is_some_and(|s| s < 1.0 - 1e-9))
        {
            Some(o) => Err(format!(
                "scenario {}: the optimizer lost to the default route under the model",
                o.record.id
            )),
            None => Ok(()),
        }
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
    let cm = off_path_node(&wan.topology, path)?;
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
    };
    let mut sim = Simulator::try_new(wan.topology.clone(), scenario.seed).ok()?;
    SteeringSession::install(&plan, &mut sim, cm, 1, config.target_goodput);
    let delays = SteeringSession::run(&mut sim, 1, config.max_virtual_time);
    delays
        .first()
        .copied()
        .filter(|d| d.is_finite() && *d > 0.0)
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
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a, b, "same config and seed must reproduce the sweep");
        assert_eq!(a.outcomes.len(), 8);
        // Every scenario must be analytically comparable (generated WANs
        // are connected and the client renders), and the optimizer never
        // loses to the default route under the model.
        assert_eq!(a.analytic.compared, 8);
        assert_eq!(config.audit(&a), Ok(()));
        let mut lost = a;
        lost.outcomes[3].record.speedup = Some(0.9);
        assert!(config.audit(&lost).unwrap_err().contains("scenario 3"));
    }

    #[test]
    fn simulated_sweep_produces_measured_delays() {
        let config = SweepConfig {
            scenarios: 4,
            dataset_bytes: 256 << 10,
            ..SweepConfig::default()
        };
        let report = run(&config);
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
        let table = SweepConfig::format(&report);
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

    #[test]
    fn summary_aggregates_wins_and_percentiles() {
        let s = SweepSummary::of(4, [4.0, 1.0, 2.0]);
        assert_eq!(s.scenarios, 4);
        assert_eq!(s.compared, 3);
        assert_eq!(s.wins, 2);
        assert!((s.win_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_speedup - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.p10_speedup, 1.0);
        assert_eq!(s.p50_speedup, 2.0);
        assert_eq!(s.p90_speedup, 4.0);
        let empty = SweepSummary::of(0, []);
        assert_eq!(empty.compared, 0);
        assert_eq!(empty.win_rate, 0.0);
        let d = Distribution::of([0.5, 1.0, f64::NAN]);
        assert_eq!(
            (d.wins, d.losses),
            (0, 1),
            "a NaN sorts last and counts for neither"
        );
        assert_eq!(mean(&[]), None);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let sorted = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(percentile(&sorted, 0.5), 2.0);
        assert_eq!(percentile(&sorted, 0.99), 4.0);
        assert_eq!(percentile(&sorted[..1], 0.99), 1.0);
        assert_eq!(percentile(&[], 0.99), 0.0);
    }

    #[test]
    fn tables_align_and_absent_values_print_a_dash() {
        let text = table(
            &[("id", -4), ("x", 6)],
            [
                vec!["7".to_string(), opt(Some(1.5), 2, "x")],
                vec!["8".to_string(), opt(None, 2, "x")],
            ],
        );
        assert_eq!(text, "id       x\n7    1.50x\n8        -\n");
    }
}
