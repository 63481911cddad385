//! The simulation/dataset catalog and standard pipeline construction.
//!
//! The client GUI lets the user "choose from a list of available simulation
//! codes" and of archival datasets; the CM turns the chosen source plus the
//! calibrated module cost models into the [`Pipeline`] handed to the
//! optimizer.

use ricsa_hydro::problems::Problem;
use ricsa_pipemap::pipeline::Pipeline;
use ricsa_viz::cost::PipelineCostDb;
use ricsa_vizdata::dataset::{DatasetCatalog, DatasetKind};
use serde::{Deserialize, Serialize};

/// What a steering session visualizes: a live simulation or an archival
/// dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SessionSpec {
    /// A live simulation producing a new dataset every cycle.
    Simulation {
        /// Which simulation code to run.
        problem: Problem,
        /// Approximate bytes of one output snapshot.
        snapshot_bytes: usize,
    },
    /// An archival (pre-generated) dataset.
    Archival {
        /// Which of the paper's datasets.
        dataset: DatasetKind,
    },
}

impl SessionSpec {
    /// The size of the dataset that traverses the pipeline per iteration.
    pub fn dataset_bytes(&self, catalog: &SimulationCatalog) -> usize {
        match self {
            SessionSpec::Simulation { snapshot_bytes, .. } => *snapshot_bytes,
            SessionSpec::Archival { dataset } => catalog.datasets.get(*dataset).nominal_bytes(),
        }
    }

    /// Catalog name of the source.
    pub fn source_name(&self) -> String {
        match self {
            SessionSpec::Simulation { problem, .. } => problem.name().to_string(),
            SessionSpec::Archival { dataset } => dataset.name().to_string(),
        }
    }
}

/// The catalog of steerable sources known to the central manager.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SimulationCatalog {
    /// The archival datasets of the paper's evaluation.
    pub datasets: DatasetCatalog,
    /// The available simulation codes.
    pub simulations: Vec<Problem>,
    /// Calibrated per-module costs for the standard isosurface pipeline.
    pub costs: PipelineCostDb,
}

impl Default for SimulationCatalog {
    fn default() -> Self {
        SimulationCatalog {
            datasets: DatasetCatalog::paper_datasets(),
            simulations: vec![Problem::SodShockTube, Problem::BowShock],
            costs: PipelineCostDb::representative(),
        }
    }
}

impl SimulationCatalog {
    /// Resolve a source name ("Jet", "sod-shock-tube", ...) into a session
    /// specification.
    pub fn resolve(&self, name: &str) -> Option<SessionSpec> {
        for kind in DatasetKind::ALL {
            if kind.name().eq_ignore_ascii_case(name) {
                return Some(SessionSpec::Archival { dataset: kind });
            }
        }
        Problem::from_name(name).map(|problem| SessionSpec::Simulation {
            problem,
            snapshot_bytes: 16 << 20,
        })
    }
}

/// Build the standard RICSA isosurface pipeline (filter → isosurface →
/// render) for a dataset of `dataset_bytes` using calibrated module costs.
pub fn standard_pipeline(dataset_bytes: usize, costs: &PipelineCostDb) -> Pipeline {
    Pipeline::isosurface(
        dataset_bytes as f64,
        costs.filter.seconds_per_byte,
        costs.isosurface.seconds_per_byte,
        costs.isosurface.output_ratio,
        costs.rendering.seconds_per_byte,
        costs.image_bytes,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_resolves_datasets_and_simulations() {
        let catalog = SimulationCatalog::default();
        assert!(matches!(
            catalog.resolve("Jet"),
            Some(SessionSpec::Archival {
                dataset: DatasetKind::Jet
            })
        ));
        assert!(matches!(
            catalog.resolve("viswoman"),
            Some(SessionSpec::Archival {
                dataset: DatasetKind::VisibleWoman
            })
        ));
        assert!(matches!(
            catalog.resolve("sod-shock-tube"),
            Some(SessionSpec::Simulation { .. })
        ));
        assert!(catalog.resolve("nonexistent").is_none());
    }

    #[test]
    fn dataset_bytes_match_the_paper_sizes() {
        let catalog = SimulationCatalog::default();
        let jet = catalog.resolve("Jet").unwrap();
        let rage = catalog.resolve("Rage").unwrap();
        let vw = catalog.resolve("VisWoman").unwrap();
        assert!((jet.dataset_bytes(&catalog) as f64 / 1e6 - 16.0).abs() < 0.5);
        assert!((rage.dataset_bytes(&catalog) as f64 / 1e6 - 64.0).abs() < 0.5);
        assert!((vw.dataset_bytes(&catalog) as f64 / 1e6 - 108.0).abs() < 0.5);
        assert_eq!(jet.source_name(), "Jet");
    }

    #[test]
    fn standard_pipeline_scales_with_dataset_size() {
        let costs = PipelineCostDb::representative();
        let small = standard_pipeline(16 << 20, &costs);
        let large = standard_pipeline(108 << 20, &costs);
        assert_eq!(small.modules.len(), 3);
        assert!(large.source_bytes > small.source_bytes);
        // The mesh produced by extraction grows with the dataset; the final
        // image does not.
        assert!(large.modules[1].output_bytes > small.modules[1].output_bytes);
        assert_eq!(large.modules[2].output_bytes, small.modules[2].output_bytes);
    }
}
