//! The Fig. 9 / Fig. 10 experiment drivers.
//!
//! Fig. 9 compares the end-to-end delay of six visualization loops on the
//! Fig. 8 deployment for the Jet (16 MB), Rage (64 MB) and Visible Woman
//! (108 MB) datasets: the RICSA-optimal loop, three alternative loops
//! through the clusters, and two direct PC–PC (client/server) loops.
//! Fig. 10 compares the RICSA-optimal loop against a ParaView-style
//! client / render-server / data-server deployment on the same route.
//!
//! Each loop is *simulated*: the dataset is pushed hop by hop over the
//! Robbins–Monro transport on the simulated WAN, module execution occupies
//! the time the calibrated cost models predict for the hosting node, and the
//! reported delay is the measured time from the data source starting to
//! serve the dataset until the finished image arrives at the client.

use crate::catalog::{standard_pipeline, SessionSpec, SimulationCatalog};
use crate::session::{PathChoice, SessionPlan, SteeringSession};
use crate::stage::revisited_node;
use ricsa_netsim::presets::{fig8_topology_with, Fig8Params, Fig8Site, Fig8Topology};
use ricsa_netsim::sim::Simulator;
use ricsa_netsim::time::SimTime;
use ricsa_vizdata::dataset::DatasetKind;
use serde::{Deserialize, Serialize};

/// Target goodput of the stage-to-stage data flows (bytes/second).  Chosen
/// high enough that the flows are limited by the links, not the controller.
const DATA_TARGET_GOODPUT: f64 = 200e6;

/// A visualization loop to evaluate.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopSpec {
    /// Display name matching the paper's figure legend.
    pub name: String,
    /// The data-source site.
    pub data_source: Fig8Site,
    /// The forced data path (sites from data source to client), or `None`
    /// for the optimizer's choice.
    pub forced_path: Option<Vec<Fig8Site>>,
    /// ParaView-style deployment overhead (render server + factor), if this
    /// loop models ParaView.
    pub paraview: Option<(Fig8Site, f64)>,
}

impl LoopSpec {
    /// The six loops of Fig. 9, in the paper's order.
    pub fn fig9_loops() -> Vec<LoopSpec> {
        use Fig8Site::*;
        let fixed = |name: &str, ds: Fig8Site, path: Vec<Fig8Site>| LoopSpec {
            name: name.to_string(),
            data_source: ds,
            forced_path: Some(path),
            paraview: None,
        };
        vec![
            LoopSpec {
                name: "Loop 1: ORNL-LSU-GaTech-UT-ORNL (RICSA optimal)".into(),
                data_source: GaTech,
                forced_path: None,
                paraview: None,
            },
            fixed(
                "Loop 2: ORNL-LSU-GaTech-NCState-ORNL",
                GaTech,
                vec![GaTech, NcStateCluster, Ornl],
            ),
            fixed(
                "Loop 3: ORNL-LSU-OSU-NCState-ORNL",
                Osu,
                vec![Osu, NcStateCluster, Ornl],
            ),
            fixed(
                "Loop 4: ORNL-LSU-OSU-UT-ORNL",
                Osu,
                vec![Osu, UtCluster, Ornl],
            ),
            fixed(
                "Loop 5: ORNL-GaTech-ORNL (PC-PC)",
                GaTech,
                vec![GaTech, Ornl],
            ),
            fixed("Loop 6: ORNL-OSU-ORNL (PC-PC)", Osu, vec![Osu, Ornl]),
        ]
    }

    /// The two configurations of Fig. 10.
    pub fn fig10_loops(paraview_overhead: f64) -> Vec<LoopSpec> {
        use Fig8Site::*;
        vec![
            LoopSpec {
                name: "RICSA optimal loop: ORNL-LSU-GaTech-UT-ORNL".into(),
                data_source: GaTech,
                forced_path: None,
                paraview: None,
            },
            LoopSpec {
                name: "ParaView -crs mode: ORNL-UT-GaTech (client-render-server)".into(),
                data_source: GaTech,
                forced_path: None,
                paraview: Some((UtCluster, paraview_overhead)),
            },
        ]
    }

    fn path_choice(&self, fig8: &Fig8Topology) -> PathChoice {
        if let Some((render_server, overhead)) = &self.paraview {
            return PathChoice::ParaViewCrs {
                render_server: fig8.node(*render_server),
                overhead: *overhead,
            };
        }
        match &self.forced_path {
            Some(path) => PathChoice::ForcedPath(path.iter().map(|s| fig8.node(*s)).collect()),
            None => PathChoice::Optimal,
        }
    }
}

/// The measured outcome of one loop × dataset combination.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoopResult {
    /// Loop name.
    pub loop_name: String,
    /// Dataset name.
    pub dataset: String,
    /// Dataset size in megabytes.
    pub dataset_mb: f64,
    /// Measured end-to-end delays of each iteration, seconds.
    pub iteration_delays: Vec<f64>,
    /// Mean measured delay, seconds.
    pub measured_delay: f64,
    /// The analytical prediction of the delay model, seconds.
    pub predicted_delay: f64,
    /// Human-readable description of the mapping that was used.
    pub mapping: String,
}

/// One row of the Fig. 9 table: a dataset plus the measured delay of all
/// six loops.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig9Row {
    /// Dataset name.
    pub dataset: String,
    /// Dataset size in megabytes.
    pub dataset_mb: f64,
    /// Measured delay of each loop, in the order of [`LoopSpec::fig9_loops`].
    pub loop_delays: Vec<f64>,
}

/// One row of the Fig. 10 comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Fig10Row {
    /// Dataset name.
    pub dataset: String,
    /// Dataset size in megabytes.
    pub dataset_mb: f64,
    /// Measured delay of the RICSA-optimal loop, seconds.
    pub ricsa_delay: f64,
    /// Measured delay of the ParaView `-crs` deployment, seconds.
    pub paraview_delay: f64,
}

/// Options controlling the experiment scale.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ExperimentOptions {
    /// Iterations (datasets pulled through the loop) per combination.
    pub iterations: u64,
    /// RNG seed.
    pub seed: u64,
    /// Scale factor applied to dataset sizes (1.0 = the paper's sizes);
    /// smaller values make quick test runs cheap.
    pub size_scale: f64,
    /// Virtual-time budget per combination.
    pub max_virtual_time: SimTime,
    /// Topology parameters.
    pub fig8: Fig8Params,
}

impl Default for ExperimentOptions {
    fn default() -> Self {
        ExperimentOptions {
            iterations: 1,
            seed: 20080414,
            size_scale: 1.0,
            max_virtual_time: SimTime::from_secs(600.0),
            fig8: Fig8Params::default(),
        }
    }
}

impl ExperimentOptions {
    /// A reduced-scale configuration for unit/integration tests.
    pub fn quick() -> Self {
        ExperimentOptions {
            iterations: 1,
            size_scale: 1.0 / 64.0,
            max_virtual_time: SimTime::from_secs(120.0),
            ..ExperimentOptions::default()
        }
    }
}

/// Run one loop × dataset combination and return the measured result.  A
/// loop that cannot run (no mapping, an invalid deployment, a data path
/// through the CM or revisiting a node) yields no delays, NaN for both
/// delays, and the reason in `mapping`.
pub fn run_loop_experiment(
    spec: &LoopSpec,
    dataset: DatasetKind,
    options: &ExperimentOptions,
) -> LoopResult {
    let catalog = SimulationCatalog::default();
    let (delays, predicted, mapping) = match simulate_loop(spec, dataset, options, &catalog) {
        Ok((delays, plan)) => (delays, plan.predicted.total, plan.vrt.describe()),
        Err(reason) => (Vec::new(), f64::NAN, reason),
    };
    let measured = if delays.is_empty() {
        f64::NAN
    } else {
        delays.iter().sum::<f64>() / delays.len() as f64
    };
    LoopResult {
        loop_name: spec.name.clone(),
        dataset: dataset.name().to_string(),
        dataset_mb: catalog.datasets.get(dataset).nominal_megabytes() * options.size_scale,
        iteration_delays: delays,
        measured_delay: measured,
        predicted_delay: predicted,
        mapping,
    }
}

/// Plan, install and run one loop on the Fig. 8 deployment, with the CM at
/// LSU; returns the measured delays and the plan, or why the loop cannot
/// run.
fn simulate_loop(
    spec: &LoopSpec,
    dataset: DatasetKind,
    options: &ExperimentOptions,
    catalog: &SimulationCatalog,
) -> Result<(Vec<f64>, SessionPlan), String> {
    let fig8 = fig8_topology_with(options.fig8.clone());
    let mut sim = Simulator::try_new(fig8.topology.clone(), options.seed)?;
    // The size scale applies to the dataset's nominal size; the pipeline is
    // built from the scaled byte count.
    let nominal = catalog.datasets.get(dataset).nominal_bytes() as f64;
    let scaled_bytes = (nominal * options.size_scale).max(64.0 * 1024.0) as usize;
    let plan = SteeringSession::plan_pipeline(
        1,
        &fig8.topology,
        SessionSpec::Archival { dataset },
        standard_pipeline(scaled_bytes, &catalog.costs),
        fig8.node(spec.data_source),
        fig8.node(Fig8Site::Ornl),
        &spec.path_choice(&fig8),
    )
    .map_err(|e| e.to_string())?;
    let cm = fig8.node(Fig8Site::Lsu);
    let path = &plan.mapping.path;
    if let Some(node) = revisited_node(path) {
        return Err(format!("data path revisits node {node}: {path:?}"));
    }
    if path.contains(&cm.0) {
        return Err(format!(
            "data path runs through the CM node {}: {path:?}",
            cm.0
        ));
    }
    SteeringSession::install(&plan, &mut sim, cm, options.iterations, DATA_TARGET_GOODPUT);
    let delays = SteeringSession::run(&mut sim, options.iterations, options.max_virtual_time);
    Ok((delays, plan))
}

/// Reproduce Fig. 9: the end-to-end delay of all six loops for the three
/// datasets.  Returns one row per dataset plus the per-loop results.
pub fn fig9_experiment(options: &ExperimentOptions) -> (Vec<Fig9Row>, Vec<LoopResult>) {
    let loops = LoopSpec::fig9_loops();
    let mut rows = Vec::new();
    let mut all = Vec::new();
    for dataset in DatasetKind::ALL {
        let mut delays = Vec::new();
        for spec in &loops {
            let result = run_loop_experiment(spec, dataset, options);
            delays.push(result.measured_delay);
            all.push(result);
        }
        rows.push(Fig9Row {
            dataset: dataset.name().to_string(),
            dataset_mb: all.last().map_or(0.0, |r| r.dataset_mb),
            loop_delays: delays,
        });
    }
    (rows, all)
}

/// Reproduce Fig. 10: RICSA's optimal loop versus the ParaView `-crs`
/// deployment for the three datasets.
pub fn fig10_experiment(
    options: &ExperimentOptions,
    paraview_overhead: f64,
) -> (Vec<Fig10Row>, Vec<LoopResult>) {
    let loops = LoopSpec::fig10_loops(paraview_overhead);
    let mut rows = Vec::new();
    let mut all = Vec::new();
    for dataset in DatasetKind::ALL {
        let ricsa = run_loop_experiment(&loops[0], dataset, options);
        let paraview = run_loop_experiment(&loops[1], dataset, options);
        rows.push(Fig10Row {
            dataset: dataset.name().to_string(),
            dataset_mb: ricsa.dataset_mb,
            ricsa_delay: ricsa.measured_delay,
            paraview_delay: paraview.measured_delay,
        });
        all.push(ricsa);
        all.push(paraview);
    }
    (rows, all)
}

/// Render a Fig. 9 result set as an aligned text table (used by the
/// benchmark binaries and EXPERIMENTS.md).
pub fn format_fig9_table(rows: &[Fig9Row], loops: &[LoopSpec]) -> String {
    let mut out = String::new();
    out.push_str("Measured end-to-end delay (seconds)\n");
    out.push_str(&format!("{:<44}", "Loop"));
    for row in rows {
        out.push_str(&format!(
            "{:>18}",
            format!("{}({:.0}MB)", row.dataset, row.dataset_mb)
        ));
    }
    out.push('\n');
    for (i, spec) in loops.iter().enumerate() {
        out.push_str(&format!("{:<44}", spec.name));
        for row in rows {
            out.push_str(&format!("{:>18.2}", row.loop_delays[i]));
        }
        out.push('\n');
    }
    out
}

/// Render a Fig. 10 result set as an aligned text table.
pub fn format_fig10_table(rows: &[Fig10Row]) -> String {
    let mut out = String::new();
    out.push_str("Measured end-to-end delay (seconds)\n");
    out.push_str(&format!(
        "{:<24}{:>14}{:>16}{:>12}\n",
        "Dataset", "RICSA", "ParaView-crs", "ratio"
    ));
    for row in rows {
        out.push_str(&format!(
            "{:<24}{:>14.2}{:>16.2}{:>12.2}\n",
            format!("{}({:.0}MB)", row.dataset, row.dataset_mb),
            row.ricsa_delay,
            row.paraview_delay,
            row.paraview_delay / row.ricsa_delay.max(1e-9),
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn loop_specs_match_the_paper_inventory() {
        let loops = LoopSpec::fig9_loops();
        assert_eq!(loops.len(), 6);
        assert!(loops[0].forced_path.is_none());
        assert!(loops[0].name.contains("optimal"));
        // Loops 5 and 6 are the PC-PC (two-node) configurations.
        assert_eq!(loops[4].forced_path.as_ref().unwrap().len(), 2);
        assert_eq!(loops[5].forced_path.as_ref().unwrap().len(), 2);
        let fig10 = LoopSpec::fig10_loops(1.3);
        assert_eq!(fig10.len(), 2);
        assert!(fig10[1].paraview.is_some());
    }

    #[test]
    fn quick_loop_experiment_measures_a_delay_close_to_prediction() {
        let options = ExperimentOptions::quick();
        let loops = LoopSpec::fig9_loops();
        let result = run_loop_experiment(&loops[4], DatasetKind::Jet, &options);
        assert_eq!(result.iteration_delays.len() as u64, options.iterations);
        assert!(result.measured_delay.is_finite());
        assert!(result.measured_delay > 0.0);
        // The measured (simulated) delay should be within a factor of three
        // of the analytical prediction: the simulation adds transport
        // dynamics (windows, ACKs, cross traffic) the model ignores.
        let ratio = result.measured_delay / result.predicted_delay;
        assert!((0.4..6.0).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn optimal_loop_beats_the_pc_pc_loop_at_reduced_scale() {
        // 1/16th scale (VisWoman = 6.7 MB): large enough that the
        // network-optimized loop pays for its extra hop.  At a few hundred
        // kilobytes the PC-PC loop genuinely wins - the same observation the
        // paper makes about small datasets.
        let options = ExperimentOptions {
            size_scale: 1.0 / 16.0,
            max_virtual_time: SimTime::from_secs(200.0),
            ..ExperimentOptions::default()
        };
        let loops = LoopSpec::fig9_loops();
        let optimal = run_loop_experiment(&loops[0], DatasetKind::VisibleWoman, &options);
        let pc_pc = run_loop_experiment(&loops[4], DatasetKind::VisibleWoman, &options);
        assert!(
            optimal.measured_delay < pc_pc.measured_delay,
            "optimal {} should beat PC-PC {}",
            optimal.measured_delay,
            pc_pc.measured_delay
        );
    }

    fn undelivered(result: &LoopResult) -> bool {
        result.iteration_delays.is_empty()
            && result.measured_delay.is_nan()
            && result.predicted_delay.is_nan()
    }

    /// With every datagram lost the queue drains before the frame
    /// completes; the run must return rather than spin at that instant.
    #[test]
    fn a_loop_that_stops_making_progress_returns() {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let options = ExperimentOptions {
                max_virtual_time: SimTime::from_secs(10.0),
                fig8: Fig8Params {
                    loss: 1.0,
                    ..Fig8Params::default()
                },
                ..ExperimentOptions::quick()
            };
            let loops = LoopSpec::fig9_loops();
            let _ = tx.send(run_loop_experiment(&loops[4], DatasetKind::Jet, &options));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(30))
            .expect("the loop experiment returns within 30 s");
        assert!(result.iteration_delays.is_empty());
        assert!(result.measured_delay.is_nan());
        assert!(result.predicted_delay.is_finite());
    }

    #[test]
    fn an_invalid_deployment_is_an_undelivered_record() {
        let options = ExperimentOptions {
            fig8: Fig8Params {
                far_delay: -1.0,
                ..Fig8Params::default()
            },
            ..ExperimentOptions::quick()
        };
        let result = run_loop_experiment(&LoopSpec::fig9_loops()[0], DatasetKind::Jet, &options);
        assert!(undelivered(&result), "{result:?}");
        assert!(result.mapping.contains("edge"), "{}", result.mapping);
    }

    #[test]
    fn a_forced_path_through_the_cm_or_revisiting_a_node_is_an_undelivered_record() {
        use Fig8Site::*;
        let options = ExperimentOptions::quick();
        let cases = [
            (vec![GaTech, Lsu, Ornl], "CM"),
            (
                vec![GaTech, NcStateCluster, GaTech, UtCluster, Ornl],
                "revisits",
            ),
        ];
        for (path, reason) in cases {
            let spec = LoopSpec {
                name: format!("forced {path:?}"),
                data_source: GaTech,
                forced_path: Some(path),
                paraview: None,
            };
            let result = run_loop_experiment(&spec, DatasetKind::Jet, &options);
            assert!(undelivered(&result), "{result:?}");
            assert!(result.mapping.contains(reason), "{}", result.mapping);
        }
    }

    #[test]
    fn table_formatting_contains_all_loops_and_datasets() {
        let loops = LoopSpec::fig9_loops();
        let rows = vec![
            Fig9Row {
                dataset: "Jet".into(),
                dataset_mb: 16.0,
                loop_delays: vec![1.0; 6],
            },
            Fig9Row {
                dataset: "Rage".into(),
                dataset_mb: 64.0,
                loop_delays: vec![2.0; 6],
            },
        ];
        let table = format_fig9_table(&rows, &loops);
        assert!(table.contains("Loop 1"));
        assert!(table.contains("Loop 6"));
        assert!(table.contains("Jet"));
        let fig10 = format_fig10_table(&[Fig10Row {
            dataset: "Jet".into(),
            dataset_mb: 16.0,
            ricsa_delay: 2.0,
            paraview_delay: 3.0,
        }]);
        assert!(fig10.contains("ParaView"));
        assert!(fig10.contains("1.50"));
    }
}
