//! Block-level isosurface extraction (the pipeline's transformation module).
//!
//! Extraction follows the structure assumed by the paper's cost model
//! (Section 4.4.1): an octree identifies the blocks whose value range
//! straddles the isovalue, extraction is performed block by block, in block
//! order, into one mesh, and per-cell statistics over the 15 marching-cubes
//! case classes are collected so the cost model's `P_Case(i)` frequencies
//! and `T_Case(i)` timings can be calibrated.  The blocks are walked on one
//! thread: a live-steering surface touches about ten 16³ blocks, and two
//! workers over them measured no faster than one pass that needs no merge.
//!
//! Triangulation uses a tetrahedral decomposition of each cell (six
//! tetrahedra), which produces a crack-free surface without the classic
//! 256-entry lookup table; the per-class triangle counts the cost model
//! needs are measured rather than tabulated, exactly as the paper measures
//! them.

use crate::cell::{case_class, corner_config, is_active, CASE_CLASS_COUNT, CORNER_OFFSETS};
use crate::mesh::{normalize, TriangleMesh};
use ricsa_vizdata::field::ScalarField;
use ricsa_vizdata::octree::{Octree, OctreeBlock};
use serde::{Deserialize, Serialize};

/// Histogram of cell classifications over the 15 case classes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CaseHistogram {
    /// Number of cells observed in each class.
    pub counts: [u64; CASE_CLASS_COUNT],
    /// Number of triangles emitted by cells of each class.
    pub triangles: [u64; CASE_CLASS_COUNT],
}

impl Default for CaseHistogram {
    fn default() -> Self {
        CaseHistogram {
            counts: [0; CASE_CLASS_COUNT],
            triangles: [0; CASE_CLASS_COUNT],
        }
    }
}

impl CaseHistogram {
    /// Total number of cells observed.
    pub fn total_cells(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// The case probabilities `P_Case(i)` of the paper's Eq. 5.
    pub fn probabilities(&self) -> [f64; CASE_CLASS_COUNT] {
        let total = self.total_cells();
        let mut p = [0.0; CASE_CLASS_COUNT];
        if total == 0 {
            return p;
        }
        for (i, &c) in self.counts.iter().enumerate() {
            p[i] = c as f64 / total as f64;
        }
        p
    }

    /// Mean triangles emitted per cell of each class (`n_triangle(i)` in
    /// Eq. 6); zero for classes never observed.
    pub fn triangles_per_cell(&self) -> [f64; CASE_CLASS_COUNT] {
        let mut t = [0.0; CASE_CLASS_COUNT];
        for ((t, &count), &triangles) in t.iter_mut().zip(&self.counts).zip(&self.triangles) {
            if count > 0 {
                *t = triangles as f64 / count as f64;
            }
        }
        t
    }

    /// Merge another histogram into this one.
    pub fn merge(&mut self, other: &CaseHistogram) {
        for i in 0..CASE_CLASS_COUNT {
            self.counts[i] += other.counts[i];
            self.triangles[i] += other.triangles[i];
        }
    }
}

/// The result of an isosurface extraction.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct IsosurfaceResult {
    /// The extracted triangle mesh.
    pub mesh: TriangleMesh,
    /// Per-case-class statistics over all processed cells.
    pub histogram: CaseHistogram,
    /// Number of octree blocks that intersected the isovalue (`n_blocks`).
    pub active_blocks: usize,
    /// Number of octree blocks considered in total.
    pub total_blocks: usize,
}

/// Extract an isosurface from an entire field at `isovalue`, decomposing it
/// into blocks of `block_size` samples per edge.
pub fn extract_isosurface(
    field: &ScalarField,
    isovalue: f32,
    block_size: usize,
) -> IsosurfaceResult {
    let octree = Octree::build(field, block_size);
    extract_from_octree(field, &octree, isovalue)
}

/// Extract an isosurface over a precomputed octree.
pub fn extract_from_octree(
    field: &ScalarField,
    octree: &Octree,
    isovalue: f32,
) -> IsosurfaceResult {
    let total_blocks = octree.len();
    let active = octree.active_blocks(isovalue);
    let active_blocks = active.len();

    let mut mesh = TriangleMesh::new();
    let mut histogram = CaseHistogram::default();
    for block in active {
        extract_block_into(&mut mesh, &mut histogram, field, block, isovalue);
    }
    IsosurfaceResult {
        mesh,
        histogram,
        active_blocks,
        total_blocks,
    }
}

/// Extract the isosurface inside a single block.
pub fn extract_block(
    field: &ScalarField,
    block: &OctreeBlock,
    isovalue: f32,
) -> (TriangleMesh, CaseHistogram) {
    let mut mesh = TriangleMesh::new();
    let mut histogram = CaseHistogram::default();
    extract_block_into(&mut mesh, &mut histogram, field, block, isovalue);
    (mesh, histogram)
}

/// Append one block's triangles to `mesh` and its cells to `histogram`.
fn extract_block_into(
    mesh: &mut TriangleMesh,
    histogram: &mut CaseHistogram,
    field: &ScalarField,
    block: &OctreeBlock,
    isovalue: f32,
) {
    let d = field.dims;
    // Cells whose lower corner lies in the block; the +1 sample comes from
    // the neighbouring block (or is clamped at the domain boundary).
    let x_end = (block.max[0]).min(d.nx.saturating_sub(1));
    let y_end = (block.max[1]).min(d.ny.saturating_sub(1));
    let z_end = (block.max[2]).min(d.nz.saturating_sub(1));
    for z in block.min[2]..z_end {
        for y in block.min[1]..y_end {
            for x in block.min[0]..x_end {
                if x + 1 >= d.nx || y + 1 >= d.ny || z + 1 >= d.nz {
                    continue;
                }
                let mut values = [0.0f32; 8];
                for (i, off) in CORNER_OFFSETS.iter().enumerate() {
                    values[i] = field.get(x + off[0], y + off[1], z + off[2]);
                }
                let config = corner_config(&values, isovalue);
                let class = case_class(config);
                histogram.counts[class] += 1;
                if !is_active(config) {
                    continue;
                }
                let before = mesh.triangle_count();
                triangulate_cell(mesh, field, [x, y, z], &values, isovalue);
                let emitted = (mesh.triangle_count() - before) as u64;
                histogram.triangles[class] += emitted;
            }
        }
    }
}

/// The six tetrahedra of a cube cell, as corner indices.
const CELL_TETRAHEDRA: [[usize; 4]; 6] = [
    [0, 5, 1, 3],
    [0, 5, 3, 7],
    [0, 5, 7, 4],
    [0, 3, 2, 7],
    [0, 2, 6, 7],
    [0, 4, 7, 6],
];

fn triangulate_cell(
    mesh: &mut TriangleMesh,
    field: &ScalarField,
    cell: [usize; 3],
    values: &[f32; 8],
    isovalue: f32,
) {
    let corner_pos = |i: usize| -> [f32; 3] {
        [
            (cell[0] + CORNER_OFFSETS[i][0]) as f32,
            (cell[1] + CORNER_OFFSETS[i][1]) as f32,
            (cell[2] + CORNER_OFFSETS[i][2]) as f32,
        ]
    };
    for tet in &CELL_TETRAHEDRA {
        triangulate_tetrahedron(
            mesh,
            field,
            tet.map(corner_pos),
            tet.map(|i| values[i]),
            isovalue,
        );
    }
}

fn interpolate_edge(p0: [f32; 3], p1: [f32; 3], v0: f32, v1: f32, isovalue: f32) -> [f32; 3] {
    let denom = v1 - v0;
    let t = if denom.abs() < 1e-12 {
        0.5
    } else {
        ((isovalue - v0) / denom).clamp(0.0, 1.0)
    };
    [
        p0[0] + t * (p1[0] - p0[0]),
        p0[1] + t * (p1[1] - p0[1]),
        p0[2] + t * (p1[2] - p0[2]),
    ]
}

fn gradient_at(field: &ScalarField, p: [f32; 3]) -> [f32; 3] {
    let d = field.dims;
    let clamp = |v: f32, n: usize| (v.round().max(0.0) as usize).min(n.saturating_sub(1));
    let g = field.gradient(clamp(p[0], d.nx), clamp(p[1], d.ny), clamp(p[2], d.nz));
    // Surface normal points against the gradient (from high to low values).
    normalize([-g[0], -g[1], -g[2]])
}

fn triangulate_tetrahedron(
    mesh: &mut TriangleMesh,
    field: &ScalarField,
    pos: [[f32; 3]; 4],
    val: [f32; 4],
    isovalue: f32,
) {
    // Corner indices inside and outside the surface, each in corner order;
    // a NaN corner counts as outside.
    let (mut inside, mut outside) = ([0usize; 4], [0usize; 4]);
    let (mut n_in, mut n_out) = (0, 0);
    for (i, &v) in val.iter().enumerate() {
        if v >= isovalue {
            inside[n_in] = i;
            n_in += 1;
        } else {
            outside[n_out] = i;
            n_out += 1;
        }
    }
    let edge = |a: usize, b: usize| interpolate_edge(pos[a], pos[b], val[a], val[b], isovalue);
    match n_in {
        0 | 4 => {}
        1 => {
            let a = inside[0];
            let p0 = edge(a, outside[0]);
            let p1 = edge(a, outside[1]);
            let p2 = edge(a, outside[2]);
            let n = gradient_at(field, p0);
            mesh.push_triangle(p0, p1, p2, n);
        }
        3 => {
            let a = outside[0];
            let p0 = edge(a, inside[0]);
            let p1 = edge(a, inside[1]);
            let p2 = edge(a, inside[2]);
            let n = gradient_at(field, p0);
            mesh.push_triangle(p0, p1, p2, n);
        }
        2 => {
            // Quad split into two triangles.
            let (a0, a1) = (inside[0], inside[1]);
            let (b0, b1) = (outside[0], outside[1]);
            let p00 = edge(a0, b0);
            let p01 = edge(a0, b1);
            let p10 = edge(a1, b0);
            let p11 = edge(a1, b1);
            let n = gradient_at(field, p00);
            mesh.push_triangle(p00, p10, p11, n);
            mesh.push_triangle(p00, p11, p01, n);
        }
        _ => unreachable!(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_vizdata::field::Dims;
    use ricsa_vizdata::synth::{SyntheticVolume, VolumeKind};

    fn sphere_field(n: usize) -> ScalarField {
        // Signed distance-ish: value = R - r, so the isosurface at 0 is a
        // sphere of radius R centred in the volume.
        let c = (n as f32 - 1.0) / 2.0;
        let radius = n as f32 / 4.0;
        ScalarField::from_fn(Dims::cube(n), move |x, y, z| {
            let dx = x as f32 - c;
            let dy = y as f32 - c;
            let dz = z as f32 - c;
            radius - (dx * dx + dy * dy + dz * dz).sqrt()
        })
    }

    #[test]
    fn sphere_isosurface_has_expected_area_and_bounds() {
        let n = 32;
        let field = sphere_field(n);
        let result = extract_isosurface(&field, 0.0, 8);
        assert!(!result.mesh.is_empty());
        let radius = n as f64 / 4.0;
        let expected_area = 4.0 * std::f64::consts::PI * radius * radius;
        let area = result.mesh.surface_area();
        assert!(
            (area - expected_area).abs() / expected_area < 0.1,
            "area {area} vs expected {expected_area}"
        );
        // All vertices lie close to the sphere.
        let c = (n as f32 - 1.0) / 2.0;
        for p in &result.mesh.positions {
            let r = ((p[0] - c).powi(2) + (p[1] - c).powi(2) + (p[2] - c).powi(2)).sqrt();
            assert!((r - radius as f32).abs() < 1.0, "vertex at radius {r}");
        }
    }

    #[test]
    fn empty_isovalue_produces_no_geometry_but_counts_cells() {
        let field = sphere_field(16);
        let result = extract_isosurface(&field, 1000.0, 8);
        assert!(result.mesh.is_empty());
        assert_eq!(result.active_blocks, 0);
        assert!(result.total_blocks > 0);
        assert_eq!(result.histogram.total_cells(), 0);
    }

    #[test]
    fn histogram_probabilities_sum_to_one_and_trivial_class_dominates() {
        let field = sphere_field(24);
        let result = extract_isosurface(&field, 0.0, 8);
        let probs = result.histogram.probabilities();
        let sum: f64 = probs.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
        // Most cells in an active block still do not straddle the surface.
        assert!(probs[0] > 0.3, "trivial-class probability {}", probs[0]);
        // Active classes emit triangles, the trivial class does not.
        let tpc = result.histogram.triangles_per_cell();
        assert_eq!(tpc[0], 0.0);
        assert!(tpc.iter().skip(1).any(|&t| t > 0.0));
    }

    #[test]
    fn block_culling_reduces_processed_cells() {
        let field = sphere_field(32);
        let octree = Octree::build(&field, 8);
        let result = extract_from_octree(&field, &octree, 0.0);
        assert!(result.active_blocks < result.total_blocks);
        // Cells are only counted in active blocks; each block owns at most
        // block_size^3 cells (those whose lower corner lies inside it).
        let max_cells = result.active_blocks * octree.block_size.pow(3);
        assert!(result.histogram.total_cells() as usize <= max_cells);
    }

    #[test]
    fn block_size_does_not_change_the_surface_much() {
        // The same isosurface extracted with different block sizes should
        // have nearly identical area (block boundaries add no cracks).
        let field = sphere_field(24);
        let a = extract_isosurface(&field, 0.0, 4).mesh.surface_area();
        let b = extract_isosurface(&field, 0.0, 12).mesh.surface_area();
        assert!((a - b).abs() / a < 0.02, "areas {a} vs {b}");
    }

    #[test]
    fn jet_volume_extraction_is_nonempty_and_finite() {
        let field = SyntheticVolume::new(VolumeKind::Jet, Dims::cube(24), 5).generate();
        let result = extract_isosurface(&field, 0.5, 8);
        assert!(result.mesh.triangle_count() > 0);
        assert!(result
            .mesh
            .positions
            .iter()
            .all(|p| p.iter().all(|v| v.is_finite())));
        assert!(result
            .mesh
            .normals
            .iter()
            .all(|n| n.iter().all(|v| v.is_finite())));
    }
}
