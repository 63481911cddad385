//! Synthetic volume generators.
//!
//! Substitutes for the paper's experimental datasets (Jet, Rage, Visible
//! Woman) and for generic test volumes used to calibrate the visualization
//! cost models.  Each generator produces a scalar field with structure that
//! exercises the same code paths the real datasets would: the jet has a
//! turbulent column with fine isosurface detail, the blast wave has a sharp
//! spherical shock front, and the anatomy-like volume has nested smooth
//! shells of distinct value bands.

use crate::field::{Dims, ScalarField, VectorField};
use serde::{Deserialize, Serialize};

/// Which synthetic volume to generate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum VolumeKind {
    /// Turbulent jet analog (stands in for the paper's 16 MB "Jet" data).
    Jet,
    /// Radial blast-wave analog (stands in for the 64 MB "Rage" data).
    BlastWave,
    /// Nested-shell anatomy analog (stands in for the 108 MB "Visible
    /// Woman" data).
    NestedShells,
    /// Smooth radial ramp — useful for calibration because the isosurface
    /// area varies smoothly with the isovalue.
    RadialRamp,
    /// Pseudo-random value noise — worst case for block culling.
    Noise,
}

/// A synthetic volume description: kind, resolution and seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SyntheticVolume {
    /// Which generator to use.
    pub kind: VolumeKind,
    /// Grid resolution.
    pub dims: Dims,
    /// Seed controlling the pseudo-random components.
    pub seed: u64,
}

impl SyntheticVolume {
    /// Describe a synthetic volume.
    pub fn new(kind: VolumeKind, dims: Dims, seed: u64) -> Self {
        SyntheticVolume { kind, dims, seed }
    }

    /// Generate the scalar field.
    pub fn generate(&self) -> ScalarField {
        let dims = self.dims;
        let mut data = Vec::with_capacity(dims.count());
        for z in 0..dims.nz.max(1) {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    data.push(sample(self.kind, dims, self.seed, x, y, z));
                }
            }
        }
        data.truncate(dims.count());
        ScalarField {
            dims,
            spacing: [1.0; 3],
            origin: [0.0; 3],
            data,
        }
    }

    /// Generate a companion vector field (used by the streamline module):
    /// a swirling flow around the volume axis plus an axial component scaled
    /// by the scalar generator.
    pub fn generate_vector(&self) -> VectorField {
        let dims = self.dims;
        let kind = self.kind;
        let seed = self.seed;
        VectorField::from_fn(dims, |x, y, z| {
            let cx = dims.nx as f32 / 2.0;
            let cy = dims.ny as f32 / 2.0;
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            let r = (dx * dx + dy * dy).sqrt().max(1.0);
            let s = sample(kind, dims, seed, x, y, z);
            [-dy / r, dx / r, 0.2 + 0.8 * s]
        })
    }
}

/// Evaluate the generator at one voxel.  Deterministic in `(kind, dims,
/// seed, x, y, z)`.
fn sample(kind: VolumeKind, dims: Dims, seed: u64, x: usize, y: usize, z: usize) -> f32 {
    let nx = dims.nx.max(2) as f32;
    let ny = dims.ny.max(2) as f32;
    let nz = dims.nz.max(2) as f32;
    // Normalized coordinates in [0, 1].
    let u = x as f32 / (nx - 1.0);
    let v = y as f32 / (ny - 1.0);
    let w = z as f32 / (nz - 1.0);
    match kind {
        VolumeKind::RadialRamp => {
            let dx = u - 0.5;
            let dy = v - 0.5;
            let dz = w - 0.5;
            1.0 - 2.0 * (dx * dx + dy * dy + dz * dz).sqrt()
        }
        VolumeKind::Noise => value_noise(seed, x as i64, y as i64, z as i64),
        VolumeKind::Jet => {
            // Column along z with a Gaussian radial profile, perturbed by
            // multi-octave value noise so isosurfaces are wrinkled.
            let dx = u - 0.5;
            let dy = v - 0.5;
            let r2 = dx * dx + dy * dy;
            let core = (-r2 * 40.0).exp();
            let wake = (-((u - 0.5).powi(2)) * 8.0).exp() * (1.0 - w) * 0.3;
            let turb = 0.35 * fractal_noise(seed, x, y, z, 3);
            (core * (0.6 + 0.4 * (w * 12.0).sin().abs()) + wake + turb * core.max(0.15))
                .clamp(0.0, 1.5)
        }
        VolumeKind::BlastWave => {
            // Expanding spherical shock: high plateau inside a radius, sharp
            // falloff at the front, rippled by noise.
            let dx = u - 0.5;
            let dy = v - 0.5;
            let dz = w - 0.5;
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            let front = 0.33;
            let width = 0.03;
            let shell = (-(r - front).powi(2) / (2.0 * width * width)).exp();
            let interior = if r < front { 0.55 } else { 0.05 };
            let ripple = 0.08 * fractal_noise(seed, x, y, z, 2);
            (interior + shell + ripple).clamp(0.0, 2.0)
        }
        VolumeKind::NestedShells => {
            // Concentric ellipsoidal shells with distinct value bands,
            // standing in for skin/soft-tissue/bone bands of a CT volume.
            let dx = (u - 0.5) * 1.0;
            let dy = (v - 0.5) * 1.3;
            let dz = (w - 0.5) * 0.8;
            let r = (dx * dx + dy * dy + dz * dz).sqrt();
            let band = |center: f32, width: f32, level: f32| {
                if (r - center).abs() < width {
                    level
                } else {
                    0.0
                }
            };
            let body = if r < 0.45 { 0.2 } else { 0.0 };
            body + band(0.45, 0.02, 0.4)
                + band(0.3, 0.03, 0.6)
                + band(0.15, 0.05, 1.0)
                + 0.02 * fractal_noise(seed, x, y, z, 2)
        }
    }
}

/// Hash-based value noise in `[0, 1)`.
fn value_noise(seed: u64, x: i64, y: i64, z: i64) -> f32 {
    let mut h = seed
        ^ (x as u64).wrapping_mul(0x9E3779B97F4A7C15)
        ^ (y as u64).wrapping_mul(0xC2B2AE3D27D4EB4F)
        ^ (z as u64).wrapping_mul(0x165667B19E3779F9);
    h ^= h >> 30;
    h = h.wrapping_mul(0xBF58476D1CE4E5B9);
    h ^= h >> 27;
    h = h.wrapping_mul(0x94D049BB133111EB);
    h ^= h >> 31;
    (h >> 11) as f32 / (1u64 << 53) as f32
}

/// Multi-octave smoothed value noise in roughly `[-1, 1]`.
fn fractal_noise(seed: u64, x: usize, y: usize, z: usize, octaves: u32) -> f32 {
    let mut total = 0.0f32;
    let mut amplitude = 1.0f32;
    let mut norm = 0.0f32;
    for o in 0..octaves {
        let step = 1usize << (o + 2); // coarser octaves sample a sparser lattice
        let xi = (x / step) as i64;
        let yi = (y / step) as i64;
        let zi = (z / step) as i64;
        let n = value_noise(seed.wrapping_add(o as u64 * 7919), xi, yi, zi) * 2.0 - 1.0;
        total += n * amplitude;
        norm += amplitude;
        amplitude *= 0.5;
    }
    if norm > 0.0 {
        total / norm
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic_in_seed() {
        let spec = SyntheticVolume::new(VolumeKind::Jet, Dims::cube(16), 7);
        let a = spec.generate();
        let b = spec.generate();
        assert_eq!(a, b);
        let c = SyntheticVolume::new(VolumeKind::Jet, Dims::cube(16), 8).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn all_kinds_produce_finite_values_with_spread() {
        for kind in [
            VolumeKind::Jet,
            VolumeKind::BlastWave,
            VolumeKind::NestedShells,
            VolumeKind::RadialRamp,
            VolumeKind::Noise,
        ] {
            let f = SyntheticVolume::new(kind, Dims::cube(24), 3).generate();
            assert_eq!(f.data.len(), 24 * 24 * 24);
            assert!(f.data.iter().all(|v| v.is_finite()), "{kind:?}");
            let (lo, hi) = f.value_range();
            assert!(hi > lo, "{kind:?} has no value spread");
        }
    }

    #[test]
    fn radial_ramp_peaks_at_center() {
        let f = SyntheticVolume::new(VolumeKind::RadialRamp, Dims::cube(33), 1).generate();
        let center = f.get(16, 16, 16);
        let corner = f.get(0, 0, 0);
        assert!(center > 0.9);
        assert!(corner < 0.0);
    }

    #[test]
    fn blast_wave_has_a_shell_of_high_values() {
        let n = 48;
        let f = SyntheticVolume::new(VolumeKind::BlastWave, Dims::cube(n), 5).generate();
        // Along the x axis through the center the value should peak near the
        // front radius (0.33 of the half-width from the center).
        let c = n / 2;
        let front = c + (0.33 * n as f32) as usize;
        let at_front = f.get(front.min(n - 1), c, c);
        let far_outside = f.get(n - 1, c, c);
        assert!(at_front > 0.5, "front value {at_front}");
        assert!(far_outside < 0.3, "outside value {far_outside}");
    }

    #[test]
    fn jet_is_concentrated_near_the_axis() {
        let n = 32;
        let f = SyntheticVolume::new(VolumeKind::Jet, Dims::cube(n), 11).generate();
        let axis_mean: f32 = (0..n).map(|z| f.get(n / 2, n / 2, z)).sum::<f32>() / n as f32;
        let edge_mean: f32 = (0..n).map(|z| f.get(0, 0, z)).sum::<f32>() / n as f32;
        assert!(
            axis_mean > 2.0 * edge_mean,
            "axis {axis_mean} edge {edge_mean}"
        );
    }

    #[test]
    fn vector_field_swirls_around_the_axis() {
        let spec = SyntheticVolume::new(VolumeKind::RadialRamp, Dims::cube(17), 2);
        let v = spec.generate_vector();
        // At a point to the +x side of the center the swirl points in +y.
        let sample = v.get(14, 8, 8);
        assert!(sample[1] > 0.5, "{sample:?}");
        // Near the axis (where the ramp is high) the axial component is
        // positive, so streamlines seeded there advect along +z.
        assert!(v.get(8, 8, 8)[2] > 0.5);
    }

    #[test]
    fn noise_is_roughly_uniform() {
        let f = SyntheticVolume::new(VolumeKind::Noise, Dims::cube(24), 9).generate();
        let mean: f32 = f.data.iter().sum::<f32>() / f.data.len() as f32;
        assert!((mean - 0.5).abs() < 0.05, "mean {mean}");
    }
}
