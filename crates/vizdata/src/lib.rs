//! Volume datasets for the RICSA visualization pipeline.
//!
//! The paper's experiments visualize three pre-generated volumes — *Jet*
//! (16 MB), *Rage* (64 MB) and the down-sampled *Visible Woman* (108 MB) —
//! and live output from a hydrodynamics simulation.  None of those datasets
//! can be redistributed, so this crate provides:
//!
//! * regular-grid scalar and vector fields ([`field`]),
//! * octree block decomposition with per-block min/max metadata used by the
//!   isosurface cost model ([`octree`]),
//! * synthetic generators producing fields with matching nominal sizes and
//!   qualitatively similar structure ([`synth`]),
//! * the named dataset registry used by the Fig. 9 / Fig. 10 experiments
//!   ([`dataset`]),
//! * simple (de)serialization of fields to a tagged binary container
//!   ([`io`]), standing in for the CDF/HDF/NetCDF formats the paper cites,
//! * down-sampling utilities ([`downsample`]), mirroring the paper's 8×
//!   down-sampling of the Visible Woman volume.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod dataset;
pub mod downsample;
pub mod field;
pub mod io;
pub mod octree;
pub mod synth;

pub use dataset::{Dataset, DatasetCatalog, DatasetKind};
pub use field::{Dims, ScalarField, VectorField};
pub use octree::{BlockId, Octree, OctreeBlock};
pub use synth::{SyntheticVolume, VolumeKind};
