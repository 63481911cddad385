//! Regular-grid scalar and vector fields.
//!
//! Fields are stored in x-fastest (row-major in x, then y, then z) order as
//! `f32`, matching the layout the visualization algorithms expect and the
//! 4-bytes-per-voxel accounting used when matching the paper's dataset sizes.

use serde::{Deserialize, Serialize};

/// Grid dimensions (number of voxels along each axis).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Dims {
    /// Number of samples along x.
    pub nx: usize,
    /// Number of samples along y.
    pub ny: usize,
    /// Number of samples along z.
    pub nz: usize,
}

impl Dims {
    /// Construct dimensions.
    pub fn new(nx: usize, ny: usize, nz: usize) -> Self {
        Dims { nx, ny, nz }
    }

    /// A cube with `n` samples per side.
    pub fn cube(n: usize) -> Self {
        Dims::new(n, n, n)
    }

    /// Total number of voxels.
    pub fn count(&self) -> usize {
        self.nx * self.ny * self.nz
    }

    /// Number of bytes a `f32` field with these dimensions occupies.
    pub fn bytes(&self) -> usize {
        self.count() * std::mem::size_of::<f32>()
    }

    /// Linear index of voxel `(x, y, z)`; x varies fastest.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        debug_assert!(x < self.nx && y < self.ny && z < self.nz);
        (z * self.ny + y) * self.nx + x
    }

    /// Whether `(x, y, z)` lies inside the grid.
    pub fn contains(&self, x: usize, y: usize, z: usize) -> bool {
        x < self.nx && y < self.ny && z < self.nz
    }
}

/// A scalar field sampled on a regular grid.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalarField {
    /// Grid dimensions.
    pub dims: Dims,
    /// Physical spacing between samples along each axis.
    pub spacing: [f32; 3],
    /// Physical origin of sample `(0,0,0)`.
    pub origin: [f32; 3],
    /// Sample values, x-fastest.
    pub data: Vec<f32>,
}

impl ScalarField {
    /// A zero-filled field with unit spacing.
    pub fn zeros(dims: Dims) -> Self {
        ScalarField {
            dims,
            spacing: [1.0; 3],
            origin: [0.0; 3],
            data: vec![0.0; dims.count()],
        }
    }

    /// Build a field by evaluating `f(x, y, z)` (voxel indices) at every
    /// sample.
    pub fn from_fn(dims: Dims, mut f: impl FnMut(usize, usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(dims.count());
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        ScalarField {
            dims,
            spacing: [1.0; 3],
            origin: [0.0; 3],
            data,
        }
    }

    /// Value at voxel `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> f32 {
        self.data[self.dims.index(x, y, z)]
    }

    /// Number of bytes of sample data.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// Minimum and maximum sample value (`(0, 0)` for an empty field).
    pub fn value_range(&self) -> (f32, f32) {
        if self.data.is_empty() {
            return (0.0, 0.0);
        }
        let mut lo = f32::INFINITY;
        let mut hi = f32::NEG_INFINITY;
        for &v in &self.data {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        (lo, hi)
    }

    /// Trilinear interpolation at a continuous voxel-space position.
    /// Positions outside the grid are clamped to the boundary.
    pub fn sample_trilinear(&self, px: f32, py: f32, pz: f32) -> f32 {
        let cl = |p: f32, n: usize| -> (usize, usize, f32) {
            if n <= 1 {
                return (0, 0, 0.0);
            }
            let p = p.clamp(0.0, (n - 1) as f32);
            let i0 = p.floor() as usize;
            let i1 = (i0 + 1).min(n - 1);
            (i0, i1, p - i0 as f32)
        };
        let (x0, x1, fx) = cl(px, self.dims.nx);
        let (y0, y1, fy) = cl(py, self.dims.ny);
        let (z0, z1, fz) = cl(pz, self.dims.nz);
        let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
        let c00 = lerp(self.get(x0, y0, z0), self.get(x1, y0, z0), fx);
        let c10 = lerp(self.get(x0, y1, z0), self.get(x1, y1, z0), fx);
        let c01 = lerp(self.get(x0, y0, z1), self.get(x1, y0, z1), fx);
        let c11 = lerp(self.get(x0, y1, z1), self.get(x1, y1, z1), fx);
        let c0 = lerp(c00, c10, fy);
        let c1 = lerp(c01, c11, fy);
        lerp(c0, c1, fz)
    }

    /// Central-difference gradient at voxel `(x, y, z)` (one-sided at the
    /// boundary), in physical units.
    pub fn gradient(&self, x: usize, y: usize, z: usize) -> [f32; 3] {
        let d = self.dims;
        let diff = |lo: f32, hi: f32, span: f32, h: f32| (hi - lo) / (span * h);
        let gx = {
            let x0 = x.saturating_sub(1);
            let x1 = (x + 1).min(d.nx - 1);
            diff(
                self.get(x0, y, z),
                self.get(x1, y, z),
                (x1 - x0).max(1) as f32,
                self.spacing[0],
            )
        };
        let gy = {
            let y0 = y.saturating_sub(1);
            let y1 = (y + 1).min(d.ny - 1);
            diff(
                self.get(x, y0, z),
                self.get(x, y1, z),
                (y1 - y0).max(1) as f32,
                self.spacing[1],
            )
        };
        let gz = {
            let z0 = z.saturating_sub(1);
            let z1 = (z + 1).min(d.nz - 1);
            diff(
                self.get(x, y, z0),
                self.get(x, y, z1),
                (z1 - z0).max(1) as f32,
                self.spacing[2],
            )
        };
        [gx, gy, gz]
    }
}

/// A 3-component vector field sampled on a regular grid (used by the
/// streamline module).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VectorField {
    /// Grid dimensions.
    pub dims: Dims,
    /// Physical spacing between samples along each axis.
    pub spacing: [f32; 3],
    /// Vector samples, x-fastest.
    pub data: Vec<[f32; 3]>,
}

impl VectorField {
    /// A zero-filled vector field.
    pub fn zeros(dims: Dims) -> Self {
        VectorField {
            dims,
            spacing: [1.0; 3],
            data: vec![[0.0; 3]; dims.count()],
        }
    }

    /// Build a vector field by evaluating `f(x, y, z)` at every sample.
    pub fn from_fn(dims: Dims, mut f: impl FnMut(usize, usize, usize) -> [f32; 3]) -> Self {
        let mut data = Vec::with_capacity(dims.count());
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(f(x, y, z));
                }
            }
        }
        VectorField {
            dims,
            spacing: [1.0; 3],
            data,
        }
    }

    /// Vector at voxel `(x, y, z)`.
    #[inline]
    pub fn get(&self, x: usize, y: usize, z: usize) -> [f32; 3] {
        self.data[self.dims.index(x, y, z)]
    }

    /// Number of bytes of sample data.
    pub fn nbytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<[f32; 3]>()
    }

    /// Trilinearly interpolated vector at a continuous voxel-space position.
    pub fn sample_trilinear(&self, px: f32, py: f32, pz: f32) -> [f32; 3] {
        let component = |axis: usize| -> f32 {
            // Reuse scalar interpolation per component; cheap and clear.
            let cl = |p: f32, n: usize| -> (usize, usize, f32) {
                if n <= 1 {
                    return (0, 0, 0.0);
                }
                let p = p.clamp(0.0, (n - 1) as f32);
                let i0 = p.floor() as usize;
                let i1 = (i0 + 1).min(n - 1);
                (i0, i1, p - i0 as f32)
            };
            let (x0, x1, fx) = cl(px, self.dims.nx);
            let (y0, y1, fy) = cl(py, self.dims.ny);
            let (z0, z1, fz) = cl(pz, self.dims.nz);
            let lerp = |a: f32, b: f32, t: f32| a + (b - a) * t;
            let g = |x: usize, y: usize, z: usize| self.get(x, y, z)[axis];
            let c00 = lerp(g(x0, y0, z0), g(x1, y0, z0), fx);
            let c10 = lerp(g(x0, y1, z0), g(x1, y1, z0), fx);
            let c01 = lerp(g(x0, y0, z1), g(x1, y0, z1), fx);
            let c11 = lerp(g(x0, y1, z1), g(x1, y1, z1), fx);
            lerp(lerp(c00, c10, fy), lerp(c01, c11, fy), fz)
        };
        [component(0), component(1), component(2)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dims_indexing_is_x_fastest() {
        let d = Dims::new(4, 3, 2);
        assert_eq!(d.count(), 24);
        assert_eq!(d.bytes(), 96);
        assert_eq!(d.index(0, 0, 0), 0);
        assert_eq!(d.index(1, 0, 0), 1);
        assert_eq!(d.index(0, 1, 0), 4);
        assert_eq!(d.index(0, 0, 1), 12);
        assert!(d.contains(3, 2, 1));
        assert!(!d.contains(4, 0, 0));
    }

    #[test]
    fn from_fn_and_accessors() {
        let f = ScalarField::from_fn(Dims::new(3, 3, 3), |x, y, z| (x + 10 * y + 100 * z) as f32);
        assert_eq!(f.get(2, 1, 0), 12.0);
        assert_eq!(f.get(0, 0, 2), 200.0);
        assert_eq!(f.nbytes(), 27 * 4);
        let (lo, hi) = f.value_range();
        assert_eq!(lo, 0.0);
        assert_eq!(hi, 222.0);
        let mut g = f.clone();
        g.data[g.dims.index(0, 0, 0)] = -5.0;
        assert_eq!(g.value_range().0, -5.0);
    }

    #[test]
    fn trilinear_interpolation_reproduces_linear_functions() {
        // A function linear in x, y, z is reproduced exactly by trilinear
        // interpolation.
        let f = ScalarField::from_fn(Dims::cube(5), |x, y, z| {
            2.0 * x as f32 - 1.5 * y as f32 + 0.5 * z as f32
        });
        let exact = |x: f32, y: f32, z: f32| 2.0 * x - 1.5 * y + 0.5 * z;
        for &(x, y, z) in &[(0.5, 0.5, 0.5), (1.25, 2.75, 3.5), (0.0, 4.0, 2.2)] {
            assert!((f.sample_trilinear(x, y, z) - exact(x, y, z)).abs() < 1e-5);
        }
        // Clamping outside the domain.
        assert_eq!(f.sample_trilinear(-3.0, 0.0, 0.0), 0.0);
        assert_eq!(f.sample_trilinear(100.0, 0.0, 0.0), 8.0);
    }

    #[test]
    fn gradient_of_linear_field_is_constant() {
        let f = ScalarField::from_fn(Dims::cube(6), |x, y, z| {
            3.0 * x as f32 + 2.0 * y as f32 - 1.0 * z as f32
        });
        for &(x, y, z) in &[(0, 0, 0), (2, 3, 4), (5, 5, 5)] {
            let g = f.gradient(x, y, z);
            assert!((g[0] - 3.0).abs() < 1e-5, "{g:?}");
            assert!((g[1] - 2.0).abs() < 1e-5);
            assert!((g[2] + 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn vector_field_interpolation() {
        let v = VectorField::from_fn(Dims::cube(4), |x, y, z| {
            [x as f32, y as f32 * 2.0, z as f32 * 3.0]
        });
        assert_eq!(v.get(1, 2, 3), [1.0, 4.0, 9.0]);
        let s = v.sample_trilinear(0.5, 0.5, 0.5);
        assert!((s[0] - 0.5).abs() < 1e-6);
        assert!((s[1] - 1.0).abs() < 1e-6);
        assert!((s[2] - 1.5).abs() < 1e-6);
        assert_eq!(v.nbytes(), 64 * 12);
        let z = VectorField::zeros(Dims::cube(2));
        assert_eq!(z.get(1, 1, 1), [0.0; 3]);
    }

    #[test]
    fn empty_field_value_range() {
        let f = ScalarField::zeros(Dims::new(0, 0, 0));
        assert_eq!(f.value_range(), (0.0, 0.0));
    }
}
