//! Octree block decomposition of a scalar field.
//!
//! The paper's isosurface cost model (Section 4.4.1) assumes extraction is
//! performed at the *block* level: "to speed up the search process, one
//! typically traverses an octree to identify data blocks containing
//! isosurfaces".  The model parameters are the number of blocks containing
//! isosurfaces (`n_blocks`), the number of cells per block (`S_block`), and
//! the per-block extraction time.
//!
//! [`Octree`] partitions a field into cubic blocks of a configurable edge
//! length and records each block's value range (min/max) so that blocks not
//! intersecting the isovalue can be culled.

use crate::field::{Dims, ScalarField};
use serde::{Deserialize, Serialize};

/// Identifier of a block within an [`Octree`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct BlockId(pub usize);

/// One cubic block of the decomposition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OctreeBlock {
    /// Identifier of this block.
    pub id: BlockId,
    /// Inclusive voxel-space lower corner.
    pub min: [usize; 3],
    /// Exclusive voxel-space upper corner.
    pub max: [usize; 3],
    /// Minimum sample value inside the block.
    pub value_min: f32,
    /// Maximum sample value inside the block.
    pub value_max: f32,
}

impl OctreeBlock {
    /// Number of samples in the block.
    pub fn sample_count(&self) -> usize {
        (self.max[0] - self.min[0]) * (self.max[1] - self.min[1]) * (self.max[2] - self.min[2])
    }

    /// Whether an isosurface at `isovalue` can pass through this block.
    pub fn intersects_isovalue(&self, isovalue: f32) -> bool {
        self.value_min <= isovalue && isovalue <= self.value_max
    }
}

/// A flat octree-style block decomposition of a scalar field.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Octree {
    /// Dimensions of the decomposed field.
    pub dims: Dims,
    /// Edge length of a block, in samples.
    pub block_size: usize,
    /// All blocks in scan order.
    pub blocks: Vec<OctreeBlock>,
}

impl Octree {
    /// Decompose `field` into cubic blocks with `block_size` samples per
    /// edge (boundary blocks may be smaller).
    ///
    /// # Panics
    /// Panics if `block_size` is zero.
    pub fn build(field: &ScalarField, block_size: usize) -> Self {
        assert!(block_size > 0, "block size must be positive");
        let dims = field.dims;
        let mut blocks = Vec::new();
        let mut id = 0usize;
        let ranges = |n: usize| -> Vec<(usize, usize)> {
            if n == 0 {
                return vec![];
            }
            (0..n)
                .step_by(block_size)
                .map(|lo| (lo, (lo + block_size).min(n)))
                .collect()
        };
        for (z0, z1) in ranges(dims.nz) {
            for (y0, y1) in ranges(dims.ny) {
                for (x0, x1) in ranges(dims.nx) {
                    let mut lo = f32::INFINITY;
                    let mut hi = f32::NEG_INFINITY;
                    // The value range includes the one-sample overlap shared
                    // with the +x/+y/+z neighbours, because the cells whose
                    // lower corner lies in this block read those samples;
                    // without it, isovalue culling could drop boundary cells.
                    for z in z0..(z1 + 1).min(dims.nz) {
                        for y in y0..(y1 + 1).min(dims.ny) {
                            for x in x0..(x1 + 1).min(dims.nx) {
                                let v = field.get(x, y, z);
                                lo = lo.min(v);
                                hi = hi.max(v);
                            }
                        }
                    }
                    blocks.push(OctreeBlock {
                        id: BlockId(id),
                        min: [x0, y0, z0],
                        max: [x1, y1, z1],
                        value_min: lo,
                        value_max: hi,
                    });
                    id += 1;
                }
            }
        }
        Octree {
            dims,
            block_size,
            blocks,
        }
    }

    /// Number of blocks.
    pub fn len(&self) -> usize {
        self.blocks.len()
    }

    /// Whether the decomposition contains no blocks.
    pub fn is_empty(&self) -> bool {
        self.blocks.is_empty()
    }

    /// The blocks whose value range straddles `isovalue` (the `n_blocks` of
    /// the paper's Eq. 4).
    pub fn active_blocks(&self, isovalue: f32) -> Vec<&OctreeBlock> {
        self.blocks
            .iter()
            .filter(|b| b.intersects_isovalue(isovalue))
            .collect()
    }

    /// Number of blocks whose value range straddles `isovalue`.
    pub fn active_block_count(&self, isovalue: f32) -> usize {
        self.blocks
            .iter()
            .filter(|b| b.intersects_isovalue(isovalue))
            .count()
    }

    /// Nominal cells per (full-size) block — the paper's `S_block`.
    pub fn cells_per_block(&self) -> usize {
        let edge = self.block_size.saturating_sub(1).max(1);
        edge * edge * edge
    }

    /// Total samples across all blocks (equals the field sample count).
    pub fn total_samples(&self) -> usize {
        self.blocks.iter().map(|b| b.sample_count()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ramp_field(n: usize) -> ScalarField {
        ScalarField::from_fn(Dims::cube(n), |x, _, _| x as f32)
    }

    #[test]
    fn decomposition_covers_every_sample_exactly_once() {
        let f = ramp_field(10);
        let tree = Octree::build(&f, 4);
        // 10 = 4 + 4 + 2 -> 3 blocks per axis -> 27 blocks.
        assert_eq!(tree.len(), 27);
        assert_eq!(tree.total_samples(), 1000);
        assert!(!tree.is_empty());
    }

    #[test]
    fn block_value_ranges_include_the_shared_boundary_sample() {
        let f = ramp_field(8);
        let tree = Octree::build(&f, 4);
        for b in &tree.blocks {
            assert_eq!(b.value_min, b.min[0] as f32);
            // The range extends one sample into the +x neighbour (clamped at
            // the domain boundary) so isovalue culling never drops cells.
            let expected_max = b.max[0].min(7) as f32;
            assert_eq!(b.value_max, expected_max);
        }
    }

    #[test]
    fn active_block_culling_matches_value_ranges() {
        let f = ramp_field(8); // values 0..7 along x
        let tree = Octree::build(&f, 4);
        // isovalue 2.0 lies only in blocks covering x in [0,4).
        let active = tree.active_blocks(2.0);
        assert!(active.iter().all(|b| b.min[0] == 0));
        assert_eq!(active.len(), 4);
        assert_eq!(tree.active_block_count(2.0), 4);
        // isovalue outside the data range: no active blocks.
        assert_eq!(tree.active_block_count(100.0), 0);
        // isovalue 6.0 only in blocks covering x in [4,8).
        assert!(tree.active_blocks(6.0).iter().all(|b| b.min[0] == 4));
    }

    #[test]
    fn boundary_blocks_are_smaller() {
        let f = ramp_field(10);
        let tree = Octree::build(&f, 4);
        let sizes: Vec<usize> = tree.blocks.iter().map(|b| b.sample_count()).collect();
        assert!(sizes.contains(&64)); // full 4x4x4 block
        assert!(sizes.contains(&32)); // 2x4x4 boundary block
        assert!(sizes.contains(&8)); // 2x2x2 corner block
    }

    #[test]
    fn cells_per_block_matches_paper_definition() {
        let f = ramp_field(8);
        let tree = Octree::build(&f, 4);
        assert_eq!(tree.cells_per_block(), 27);
        let tree1 = Octree::build(&f, 1);
        assert_eq!(tree1.cells_per_block(), 1);
    }

    #[test]
    #[should_panic(expected = "block size must be positive")]
    fn zero_block_size_panics() {
        let f = ramp_field(4);
        let _ = Octree::build(&f, 0);
    }

    #[test]
    fn empty_field_produces_empty_tree() {
        let f = ScalarField::zeros(Dims::new(0, 0, 0));
        let tree = Octree::build(&f, 4);
        assert!(tree.is_empty());
        assert_eq!(tree.total_samples(), 0);
    }
}
