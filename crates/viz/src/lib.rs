//! Visualization algorithms and performance (cost) models for RICSA.
//!
//! The paper's visualization pipeline (Fig. 3) runs filtering,
//! transformation (isosurface extraction), and rendering modules, and its
//! central-management node needs *cost models* for those modules
//! (Section 4.4) to drive the dynamic-programming pipeline mapping.  This
//! crate implements both halves.  The filter stage is data serving (the
//! dataset passes on unchanged), so it has a cost model but no algorithm:
//!
//! **Algorithms**
//! * [`isosurface`] — block-level isosurface extraction over an octree with
//!   per-cell classification into the canonical 15 marching-cubes case
//!   classes (computed by symmetry reduction in [`cell`]) and tetrahedral
//!   triangulation,
//! * [`mod@raycast`] — orthographic ray casting with piecewise-linear transfer
//!   functions ([`transfer`]) and empty-block skipping,
//! * [`streamline`] — fourth-order Runge–Kutta streamline advection,
//! * [`render`] — a software z-buffer rasterizer turning triangle meshes
//!   into shaded RGBA framebuffers ([`image`]), viewed through an
//!   orthographic [`camera`].
//!
//! **Cost models** ([`cost`])
//! * isosurface extraction (paper Eqs. 4–6), ray casting (Eq. 7) and
//!   streamline generation (Eq. 8), with calibration routines that measure
//!   `T_Case(i)`, `P_Case(i)`, `t_sample` and `T_advection` on test volumes
//!   exactly as Section 4.4 prescribes.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod camera;
pub mod cell;
pub mod cost;
pub mod image;
pub mod isosurface;
pub mod mesh;
pub mod raycast;
pub mod render;
pub mod streamline;
pub mod transfer;

pub use camera::Camera;
pub use cell::{case_class, CASE_CLASS_COUNT};
pub use cost::{
    IsosurfaceCostModel, ModuleCost, PipelineCostDb, RaycastCostModel, StreamlineCostModel,
};
pub use image::Image;
pub use isosurface::{extract_isosurface, CaseHistogram, IsosurfaceResult};
pub use mesh::TriangleMesh;
pub use raycast::{raycast, RaycastConfig};
pub use render::render_mesh;
pub use streamline::{trace_streamlines, StreamlineConfig, StreamlineSet};
pub use transfer::TransferFunction;
