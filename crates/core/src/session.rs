//! Assembling a steering session on a topology.
//!
//! A [`SessionPlan`] is what the central-management node produces when a
//! steering request arrives: the pipeline for the requested dataset, the
//! chosen mapping (the optimizer's, or a forced path for the comparison
//! loops of Fig. 9, or the ParaView-style fixed deployment of Fig. 10), the
//! routing table, and the predicted delay.  [`SteeringSession`] turns a plan
//! into installed applications on a `ricsa-netsim` simulator and extracts
//! the measured per-iteration delays afterwards.

use crate::catalog::{standard_pipeline, SessionSpec, SimulationCatalog};
use crate::driver::FrameAudit;
use crate::roles::CentralManagerApp;
use crate::stage::{stage_configs, ClientDrive, StageApp};
use ricsa_netsim::node::NodeId;
use ricsa_netsim::sim::Simulator;
use ricsa_netsim::time::SimTime;
use ricsa_netsim::topology::Topology;
use ricsa_pipemap::baselines::{best_split_on_path, paraview_crs_mapping};
use ricsa_pipemap::delay::{DelayBreakdown, Mapping};
use ricsa_pipemap::dp::optimize;
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use ricsa_pipemap::vrt::VisualizationRoutingTable;
use serde::{Deserialize, Serialize};

/// How the data path of a session is chosen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PathChoice {
    /// Let the dynamic-programming optimizer pick the path and decomposition
    /// (RICSA's normal mode).
    Optimal,
    /// Force a specific data path (nodes from data source to client); the
    /// pipeline split across the path is still chosen optimally, matching
    /// how the paper configures its comparison loops.
    ForcedPath(Vec<NodeId>),
    /// A ParaView-style `-crs` deployment: data server → render server →
    /// client, on a pipeline whose message sizes and module complexities
    /// carry a protocol overhead factor (see `paraview_crs_mapping`).
    ParaViewCrs {
        /// The render-server node.
        render_server: NodeId,
        /// Multiplicative protocol/processing overhead (≥ 1).
        overhead: f64,
    },
}

/// The planned configuration of one steering session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionPlan {
    /// Session identifier.
    pub session: u64,
    /// What is being visualized.
    pub spec: SessionSpec,
    /// The pipeline the mapping was evaluated on and the stages host.
    pub pipeline: Pipeline,
    /// The chosen mapping.
    pub mapping: Mapping,
    /// The routing table distributed around the loop.
    pub vrt: VisualizationRoutingTable,
    /// The analytical delay prediction for one iteration.
    pub predicted: DelayBreakdown,
}

/// Errors produced while planning a session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum PlanError {
    /// The requested source is not in the catalog.
    UnknownSource(String),
    /// No feasible mapping exists for the requested path choice.
    Infeasible(String),
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::UnknownSource(s) => write!(f, "unknown source '{s}'"),
            PlanError::Infeasible(m) => write!(f, "no feasible mapping: {m}"),
        }
    }
}

impl std::error::Error for PlanError {}

/// A steering session: planning plus installation on a simulator.
pub struct SteeringSession;

impl SteeringSession {
    /// Plan a session: resolve the source, build the pipeline from the
    /// calibrated costs, and choose the mapping.
    pub fn plan(
        session: u64,
        topology: &Topology,
        catalog: &SimulationCatalog,
        source_name: &str,
        data_source: NodeId,
        client: NodeId,
        choice: &PathChoice,
    ) -> Result<SessionPlan, PlanError> {
        let spec = catalog
            .resolve(source_name)
            .ok_or_else(|| PlanError::UnknownSource(source_name.to_string()))?;
        let dataset_bytes = spec.dataset_bytes(catalog);
        let pipeline = standard_pipeline(dataset_bytes, &catalog.costs);
        Self::plan_pipeline(
            session,
            topology,
            spec,
            pipeline,
            data_source,
            client,
            choice,
        )
    }

    /// Choose the mapping of an already-built `pipeline` — the part of
    /// [`SteeringSession::plan`] that does not depend on the catalog (the
    /// Fig. 9/10 drivers scale the dataset before planning).
    pub(crate) fn plan_pipeline(
        session: u64,
        topology: &Topology,
        spec: SessionSpec,
        mut pipeline: Pipeline,
        data_source: NodeId,
        client: NodeId,
        choice: &PathChoice,
    ) -> Result<SessionPlan, PlanError> {
        let graph = NetGraph::from_topology(topology);
        let src = graph.index_of(data_source);
        let dst = graph.index_of(client);

        let (mapping, predicted) = match choice {
            PathChoice::Optimal => {
                let opt = optimize(&pipeline, &graph, src, dst)
                    .ok_or_else(|| PlanError::Infeasible("optimizer found no placement".into()))?;
                (opt.mapping, opt.delay)
            }
            PathChoice::ForcedPath(path) => {
                let indices: Vec<usize> = path.iter().map(|n| graph.index_of(*n)).collect();
                best_split_on_path(&pipeline, &graph, &indices)
                    .ok_or_else(|| PlanError::Infeasible(format!("no split on path {path:?}")))?
            }
            PathChoice::ParaViewCrs {
                render_server,
                overhead,
            } => {
                let rs = graph.index_of(*render_server);
                let (inflated, mapping, delay) =
                    paraview_crs_mapping(&pipeline, &graph, src, rs, dst, *overhead).ok_or_else(
                        || PlanError::Infeasible("ParaView crs deployment infeasible".into()),
                    )?;
                pipeline = inflated;
                (mapping, delay)
            }
        };
        let vrt =
            VisualizationRoutingTable::from_mapping(&pipeline, &graph, &mapping, predicted.total);
        Ok(SessionPlan {
            session,
            spec,
            pipeline,
            mapping,
            vrt,
            predicted,
        })
    }

    /// Install the applications of a planned session onto a simulator:
    /// one [`StageApp`] per routing-table entry, the central manager at
    /// `cm_node`, and the client drive on the final stage.
    ///
    /// # Panics
    /// Panics if the CM node coincides with a data-path node (the Fig. 8
    /// deployment always keeps the CM at LSU, off the data path), or if the
    /// data path visits a node twice (a node hosts one stage).
    pub fn install(
        plan: &SessionPlan,
        sim: &mut Simulator,
        cm_node: NodeId,
        iterations: u64,
        target_goodput: f64,
    ) {
        let graph = NetGraph::from_topology(sim.topology());
        let path = &plan.mapping.path;
        assert!(
            !path.contains(&cm_node.0),
            "the CM node must not lie on the data path"
        );
        let mut configs = stage_configs(
            &plan.pipeline,
            &graph,
            &plan.mapping,
            &plan.vrt,
            plan.session,
            target_goodput,
        )
        .expect("a planned data path visits no node twice");
        if let Some(client) = configs.last_mut() {
            client.drive = Some(ClientDrive {
                cm: cm_node,
                iterations,
                source: plan.spec.source_name(),
                variable: "pressure".to_string(),
                isovalue: 0.5,
            });
        }
        let participants: Vec<NodeId> = path.iter().map(|&i| NodeId(i)).collect();
        for (node, config) in participants.iter().zip(configs) {
            sim.install(*node, Box::new(StageApp::new(config)));
        }
        let cm = CentralManagerApp::new(
            plan.session,
            participants[0],
            participants,
            plan.vrt.clone(),
        );
        sim.install(cm_node, Box::new(cm));
    }

    /// Run an installed session until `iterations` images have been
    /// delivered (or `max_virtual_time` elapses) and return the measured
    /// end-to-end delay of each iteration: the time from the data source
    /// starting to serve the dataset (its `IterationStarted` trace record) to
    /// the finished image arriving at the client — the quantity the paper's
    /// Fig. 9/10 report.
    pub fn run(sim: &mut Simulator, iterations: u64, max_virtual_time: SimTime) -> Vec<f64> {
        let step = SimTime::from_secs(1.0);
        let mut now = SimTime::ZERO;
        let mut audit = FrameAudit::default();
        while now < max_virtual_time {
            let deadline = now + step;
            now = sim.run_until(deadline);
            audit.update(sim);
            // Stopping short of the deadline means the queue drained:
            // nothing is left that could complete another iteration.
            if audit.sole_loop().completed >= iterations || now < deadline {
                break;
            }
        }
        audit.sole_loop().delays
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_netsim::presets::{fig8_topology, Fig8Site};
    use ricsa_pipemap::delay::evaluate_mapping;

    fn plan_optimal(source: &str) -> (SessionPlan, ricsa_netsim::presets::Fig8Topology) {
        let fig8 = fig8_topology();
        let catalog = SimulationCatalog::default();
        let plan = SteeringSession::plan(
            1,
            &fig8.topology,
            &catalog,
            source,
            fig8.node(Fig8Site::GaTech),
            fig8.node(Fig8Site::Ornl),
            &PathChoice::Optimal,
        )
        .unwrap();
        (plan, fig8)
    }

    #[test]
    fn optimal_plan_starts_at_the_source_and_ends_at_the_client() {
        let (plan, fig8) = plan_optimal("Jet");
        assert_eq!(
            plan.mapping.path.first().copied(),
            Some(fig8.node(Fig8Site::GaTech).0)
        );
        assert_eq!(
            plan.mapping.path.last().copied(),
            Some(fig8.node(Fig8Site::Ornl).0)
        );
        assert!(plan.predicted.total > 0.0);
        assert_eq!(plan.vrt.entries.len(), plan.mapping.path.len());
    }

    #[test]
    fn forced_path_and_paraview_plans_follow_their_prescribed_routes() {
        let fig8 = fig8_topology();
        let catalog = SimulationCatalog::default();
        let gatech = fig8.node(Fig8Site::GaTech);
        let ncstate = fig8.node(Fig8Site::NcStateCluster);
        let ornl = fig8.node(Fig8Site::Ornl);
        let forced = SteeringSession::plan(
            2,
            &fig8.topology,
            &catalog,
            "Rage",
            gatech,
            ornl,
            &PathChoice::ForcedPath(vec![gatech, ncstate, ornl]),
        )
        .unwrap();
        assert_eq!(forced.mapping.path, vec![gatech.0, ncstate.0, ornl.0]);

        let ut = fig8.node(Fig8Site::UtCluster);
        let paraview = SteeringSession::plan(
            3,
            &fig8.topology,
            &catalog,
            "Rage",
            gatech,
            ornl,
            &PathChoice::ParaViewCrs {
                render_server: ut,
                overhead: 1.3,
            },
        )
        .unwrap();
        assert_eq!(paraview.mapping.path, vec![gatech.0, ut.0, ornl.0]);
        // ParaView's predicted delay on the same route is at least the
        // optimizer's.
        let optimal = SteeringSession::plan(
            4,
            &fig8.topology,
            &catalog,
            "Rage",
            gatech,
            ornl,
            &PathChoice::Optimal,
        )
        .unwrap();
        assert!(paraview.predicted.total >= optimal.predicted.total);
    }

    #[test]
    fn every_plan_predicts_the_model_on_the_pipeline_it_hosts() {
        let fig8 = fig8_topology();
        let graph = NetGraph::from_topology(&fig8.topology);
        let catalog = SimulationCatalog::default();
        let gatech = fig8.node(Fig8Site::GaTech);
        let ncstate = fig8.node(Fig8Site::NcStateCluster);
        let ornl = fig8.node(Fig8Site::Ornl);
        let choices = [
            PathChoice::Optimal,
            PathChoice::ForcedPath(vec![gatech, ncstate, ornl]),
            PathChoice::ParaViewCrs {
                render_server: fig8.node(Fig8Site::UtCluster),
                overhead: 1.35,
            },
        ];
        for choice in &choices {
            let plan =
                SteeringSession::plan(1, &fig8.topology, &catalog, "Jet", gatech, ornl, choice)
                    .unwrap();
            assert_eq!(
                plan.predicted,
                evaluate_mapping(&plan.pipeline, &graph, &plan.mapping),
                "{choice:?}"
            );
        }
    }

    #[test]
    fn unknown_sources_are_rejected() {
        let fig8 = fig8_topology();
        let catalog = SimulationCatalog::default();
        let err = SteeringSession::plan(
            1,
            &fig8.topology,
            &catalog,
            "does-not-exist",
            fig8.node(Fig8Site::GaTech),
            fig8.node(Fig8Site::Ornl),
            &PathChoice::Optimal,
        )
        .unwrap_err();
        assert!(matches!(err, PlanError::UnknownSource(_)));
        assert!(err.to_string().contains("does-not-exist"));
    }

    #[test]
    fn predicted_delay_grows_with_dataset_size() {
        let jet = plan_optimal("Jet").0.predicted.total;
        let rage = plan_optimal("Rage").0.predicted.total;
        let vw = plan_optimal("VisWoman").0.predicted.total;
        assert!(jet < rage && rage < vw, "{jet} {rage} {vw}");
    }
}
