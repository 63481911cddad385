//! The named dataset registry used by the Fig. 9 / Fig. 10 experiments.
//!
//! The paper visualizes three pre-generated datasets replicated at the two
//! data-source hosts:
//!
//! | Name          | Size    | Stand-in generator                   |
//! |---------------|---------|--------------------------------------|
//! | Jet           | 16 MB   | [`VolumeKind::Jet`]                  |
//! | Rage          | 64 MB   | [`VolumeKind::BlastWave`]            |
//! | Visible Woman | 108 MB  | [`VolumeKind::NestedShells`]         |
//!
//! The experiments in the paper are driven by the dataset *sizes* (which set
//! the transfer and processing times in Eq. 2), so each catalog entry records
//! the nominal full-resolution byte size, plus a generator that can produce
//! the field at full or reduced resolution for the algorithmic modules.

use crate::field::Dims;
use crate::synth::{SyntheticVolume, VolumeKind};
use serde::{Deserialize, Serialize};

/// The three datasets of the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DatasetKind {
    /// Jet data, 16 MB.
    Jet,
    /// Rage data, 64 MB.
    Rage,
    /// Visible Woman data (down-sampled), 108 MB.
    VisibleWoman,
}

impl DatasetKind {
    /// All datasets in the order the paper reports them.
    pub const ALL: [DatasetKind; 3] = [
        DatasetKind::Jet,
        DatasetKind::Rage,
        DatasetKind::VisibleWoman,
    ];

    /// Display name matching the paper's figures.
    pub fn name(self) -> &'static str {
        match self {
            DatasetKind::Jet => "Jet",
            DatasetKind::Rage => "Rage",
            DatasetKind::VisibleWoman => "VisWoman",
        }
    }
}

/// One dataset entry: nominal size plus a generator for actual samples.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Dataset {
    /// Which of the paper's datasets this stands in for.
    pub kind: DatasetKind,
    /// Full-resolution grid dimensions.
    pub full_dims: Dims,
    /// Stand-in synthetic generator.
    pub generator: VolumeKind,
    /// Seed for the generator.
    pub seed: u64,
}

impl Dataset {
    /// Nominal full-resolution size in bytes (4 bytes per voxel), which is
    /// what the delay model and the transport experiments use.
    pub fn nominal_bytes(&self) -> usize {
        self.full_dims.bytes()
    }

    /// Nominal size in megabytes (10^6 bytes), as quoted in the paper.
    pub fn nominal_megabytes(&self) -> f64 {
        self.nominal_bytes() as f64 / 1.0e6
    }

    /// Generate the field at a reduced resolution with roughly `max_voxels`
    /// samples — used by tests and cost-model calibration where the full
    /// 10⁷-voxel volumes would be wastefully slow.
    pub fn generate_preview(&self, max_voxels: usize) -> crate::field::ScalarField {
        let full = self.full_dims.count().max(1);
        let ratio = (full as f64 / max_voxels.max(1) as f64).cbrt().max(1.0);
        let dims = Dims::new(
            ((self.full_dims.nx as f64 / ratio).round() as usize).max(8),
            ((self.full_dims.ny as f64 / ratio).round() as usize).max(8),
            ((self.full_dims.nz as f64 / ratio).round() as usize).max(8),
        );
        SyntheticVolume::new(self.generator, dims, self.seed).generate()
    }
}

/// The catalog of the paper's three datasets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetCatalog {
    entries: Vec<Dataset>,
}

impl Default for DatasetCatalog {
    fn default() -> Self {
        DatasetCatalog {
            entries: vec![
                Dataset {
                    kind: DatasetKind::Jet,
                    // 200×200×100 × 4 B = 16.0 MB
                    full_dims: Dims::new(200, 200, 100),
                    generator: VolumeKind::Jet,
                    seed: 101,
                },
                Dataset {
                    kind: DatasetKind::Rage,
                    // 252×252×252 × 4 B = 64.0 MB
                    full_dims: Dims::new(252, 252, 252),
                    generator: VolumeKind::BlastWave,
                    seed: 202,
                },
                Dataset {
                    kind: DatasetKind::VisibleWoman,
                    // 300×300×300 × 4 B = 108.0 MB
                    full_dims: Dims::new(300, 300, 300),
                    generator: VolumeKind::NestedShells,
                    seed: 303,
                },
            ],
        }
    }
}

impl DatasetCatalog {
    /// The default catalog with the paper's three datasets.
    pub fn paper_datasets() -> Self {
        DatasetCatalog::default()
    }

    /// Look up a dataset by kind.
    pub fn get(&self, kind: DatasetKind) -> &Dataset {
        self.entries
            .iter()
            .find(|d| d.kind == kind)
            .expect("catalog always contains the three paper datasets")
    }

    /// All entries in paper order.
    pub fn all(&self) -> &[Dataset] {
        &self.entries
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_contains_three_datasets_with_paper_sizes() {
        let catalog = DatasetCatalog::paper_datasets();
        assert_eq!(catalog.all().len(), 3);
        let jet = catalog.get(DatasetKind::Jet);
        let rage = catalog.get(DatasetKind::Rage);
        let vw = catalog.get(DatasetKind::VisibleWoman);
        assert!(
            (jet.nominal_megabytes() - 16.0).abs() < 0.5,
            "{}",
            jet.nominal_megabytes()
        );
        assert!(
            (rage.nominal_megabytes() - 64.0).abs() < 0.5,
            "{}",
            rage.nominal_megabytes()
        );
        assert!(
            (vw.nominal_megabytes() - 108.0).abs() < 0.5,
            "{}",
            vw.nominal_megabytes()
        );
        assert!(jet.nominal_bytes() < rage.nominal_bytes());
        assert!(rage.nominal_bytes() < vw.nominal_bytes());
    }

    #[test]
    fn names_match_paper_figures() {
        assert_eq!(DatasetKind::Jet.name(), "Jet");
        assert_eq!(DatasetKind::Rage.name(), "Rage");
        assert_eq!(DatasetKind::VisibleWoman.name(), "VisWoman");
        assert_eq!(DatasetKind::ALL.len(), 3);
    }

    #[test]
    fn preview_generation_respects_voxel_budget() {
        let catalog = DatasetCatalog::paper_datasets();
        let vw = catalog.get(DatasetKind::VisibleWoman);
        let preview = vw.generate_preview(40_000);
        assert!(preview.dims.count() <= 80_000, "{}", preview.dims.count());
        assert!(preview.dims.count() >= 8 * 8 * 8);
        let (lo, hi) = preview.value_range();
        assert!(hi > lo);
    }

    #[test]
    fn preview_of_small_dataset_is_near_full_resolution() {
        let d = Dataset {
            kind: DatasetKind::Jet,
            full_dims: Dims::cube(16),
            generator: VolumeKind::Jet,
            seed: 1,
        };
        let preview = d.generate_preview(1_000_000);
        assert_eq!(preview.dims, Dims::cube(16));
    }
}
