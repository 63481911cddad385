//! Orthographic volume ray casting.
//!
//! The second visualization technique the paper models (Section 4.4.2): rays
//! are cast through the non-empty blocks of the volume, samples are mapped
//! through a transfer function and composited front to back.  As in the
//! paper's cost model the projection is orthographic, so the number of rays
//! and samples per ray depend only on the viewport and the volume extent,
//! and early ray termination can be disabled to make the cost predictable.

use crate::camera::Camera;
use crate::image::Image;
use crate::transfer::TransferFunction;
use ricsa_vizdata::field::ScalarField;
use serde::{Deserialize, Serialize};

/// Configuration of a ray-casting pass.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RaycastConfig {
    /// Distance between successive samples along a ray, in voxels.
    pub step: f32,
    /// Stop compositing once accumulated opacity exceeds this value; set to
    /// a value ≥ 1 to disable early termination (as the cost model assumes).
    pub early_termination_opacity: f32,
    /// Background colour composited behind the volume.
    pub background: [f32; 3],
}

impl Default for RaycastConfig {
    fn default() -> Self {
        RaycastConfig {
            step: 1.0,
            early_termination_opacity: 0.98,
            background: [0.0, 0.0, 0.0],
        }
    }
}

impl RaycastConfig {
    /// A configuration with early ray termination disabled (every sample
    /// along every ray is evaluated), matching the paper's simplification.
    pub fn without_early_termination() -> Self {
        RaycastConfig {
            early_termination_opacity: 2.0,
            ..RaycastConfig::default()
        }
    }
}

/// Statistics of a ray-casting pass, used to calibrate the cost model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct RaycastStats {
    /// Number of rays cast (viewport pixels).
    pub rays: usize,
    /// Total samples evaluated across all rays.
    pub samples: u64,
}

/// Cast rays through `field` and return the composited image plus sampling
/// statistics.
pub fn raycast(
    field: &ScalarField,
    camera: &Camera,
    transfer: &TransferFunction,
    config: &RaycastConfig,
) -> (Image, RaycastStats) {
    let d = field.dims;
    let center = [
        (d.nx.saturating_sub(1)) as f32 / 2.0,
        (d.ny.saturating_sub(1)) as f32 / 2.0,
        (d.nz.saturating_sub(1)) as f32 / 2.0,
    ];
    let half_extent = (d.nx.max(d.ny).max(d.nz)) as f32 / 2.0;
    let max_march = 4.0 * half_extent.max(1.0);
    let step = config.step.max(0.05);
    let projector = camera.projector(center, half_extent);

    let mut image = Image::new(camera.width, camera.height);
    let mut total_samples = 0u64;
    for py in 0..camera.height {
        for px in 0..camera.width {
            let (origin, dir) = projector.pixel_ray(px, py);
            let (rgba, n) = march_ray(field, transfer, config, origin, dir, max_march, step);
            total_samples += n;
            image.set(px, py, rgba);
        }
    }
    let stats = RaycastStats {
        rays: camera.width * camera.height,
        samples: total_samples,
    };
    (image, stats)
}

fn march_ray(
    field: &ScalarField,
    transfer: &TransferFunction,
    config: &RaycastConfig,
    origin: [f32; 3],
    dir: [f32; 3],
    max_march: f32,
    step: f32,
) -> ([u8; 4], u64) {
    let d = field.dims;
    let inside = |p: [f32; 3]| {
        p[0] >= 0.0
            && p[1] >= 0.0
            && p[2] >= 0.0
            && p[0] <= (d.nx.saturating_sub(1)) as f32
            && p[1] <= (d.ny.saturating_sub(1)) as f32
            && p[2] <= (d.nz.saturating_sub(1)) as f32
    };
    let mut color = [0.0f32; 3];
    let mut alpha = 0.0f32;
    let mut samples = 0u64;
    let mut t = 0.0f32;
    while t <= max_march {
        let p = [
            origin[0] + t * dir[0],
            origin[1] + t * dir[1],
            origin[2] + t * dir[2],
        ];
        t += step;
        if !inside(p) {
            continue;
        }
        samples += 1;
        let v = field.sample_trilinear(p[0], p[1], p[2]);
        let (c, o) = transfer.evaluate(v);
        let o = (o * step).clamp(0.0, 1.0);
        if o > 0.0 {
            let weight = (1.0 - alpha) * o;
            for k in 0..3 {
                color[k] += weight * c[k];
            }
            alpha += weight;
            if alpha >= config.early_termination_opacity {
                break;
            }
        }
    }
    for (c, background) in color.iter_mut().zip(config.background) {
        *c += (1.0 - alpha) * background;
    }
    (
        [
            (color[0].clamp(0.0, 1.0) * 255.0) as u8,
            (color[1].clamp(0.0, 1.0) * 255.0) as u8,
            (color[2].clamp(0.0, 1.0) * 255.0) as u8,
            (alpha.clamp(0.0, 1.0) * 255.0) as u8,
        ],
        samples,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_vizdata::field::Dims;
    use ricsa_vizdata::synth::{SyntheticVolume, VolumeKind};

    fn ramp_volume(n: usize) -> ScalarField {
        SyntheticVolume::new(VolumeKind::RadialRamp, Dims::cube(n), 1).generate()
    }

    #[test]
    fn raycast_produces_a_centered_bright_region() {
        let field = ramp_volume(24);
        let cam = Camera::with_viewport(48, 48);
        let tf = TransferFunction::grayscale_ramp(0.2, 1.0);
        let (img, stats) = raycast(&field, &cam, &tf, &RaycastConfig::default());
        assert_eq!(stats.rays, 48 * 48);
        assert!(stats.samples > 0);
        let center = img.get(24, 24);
        let corner = img.get(1, 1);
        assert!(corner[0] < 30, "corner {corner:?}");
        assert!(
            center[0] > corner[0].saturating_add(40),
            "center {center:?} should be clearly brighter than corner {corner:?}"
        );
    }

    /// `Camera::pixel_ray` as it was: the basis recomputed per pixel.
    fn reference_pixel_ray(
        camera: &Camera,
        px: usize,
        py: usize,
        center: [f32; 3],
        half_extent: f32,
    ) -> ([f32; 3], [f32; 3]) {
        let (right, up, forward) = camera.basis();
        let scale =
            half_extent.max(1e-6) / (camera.zoom * 0.5 * camera.width.min(camera.height) as f32);
        let sx = (px as f32 + 0.5 - camera.width as f32 / 2.0) * scale;
        let sy = -(py as f32 + 0.5 - camera.height as f32 / 2.0) * scale;
        let start_dist = 2.0 * half_extent.max(1.0);
        let origin = [
            center[0] + right[0] * sx + up[0] * sy - forward[0] * start_dist,
            center[1] + right[1] * sx + up[1] * sy - forward[1] * start_dist,
            center[2] + right[2] * sx + up[2] * sy - forward[2] * start_dist,
        ];
        (origin, forward)
    }

    #[test]
    fn projector_rays_cast_the_image_the_per_pixel_rays_did() {
        let field = ramp_volume(20);
        let tf = TransferFunction::grayscale_ramp(0.2, 1.0);
        let config = RaycastConfig::default();
        let d = field.dims;
        let center = [
            (d.nx - 1) as f32 / 2.0,
            (d.ny - 1) as f32 / 2.0,
            (d.nz - 1) as f32 / 2.0,
        ];
        let half_extent = d.nx.max(d.ny).max(d.nz) as f32 / 2.0;
        for (w, h, yaw, zoom) in [(33, 21, 0.0, 1.0), (16, 40, 1.1, 2.5), (1, 1, -0.7, 0.5)] {
            let mut camera = Camera::with_viewport(w, h);
            camera.rotate(yaw, -0.3);
            camera.zoom = zoom;
            let (image, stats) = raycast(&field, &camera, &tf, &config);
            let mut expected = Image::new(w, h);
            let mut samples = 0;
            for py in 0..h {
                for px in 0..w {
                    let (origin, dir) = reference_pixel_ray(&camera, px, py, center, half_extent);
                    let max_march = 4.0 * half_extent.max(1.0);
                    let (rgba, n) = march_ray(&field, &tf, &config, origin, dir, max_march, 1.0);
                    expected.set(px, py, rgba);
                    samples += n;
                }
            }
            assert!(image == expected, "{w}x{h}");
            assert_eq!(stats.samples, samples);
        }
    }

    #[test]
    fn disabling_early_termination_increases_samples() {
        let field = ramp_volume(20);
        let cam = Camera::with_viewport(24, 24);
        let tf = TransferFunction::grayscale_ramp(0.0, 0.5);
        let (_, with_term) = raycast(&field, &cam, &tf, &RaycastConfig::default());
        let (_, without) = raycast(
            &field,
            &cam,
            &tf,
            &RaycastConfig::without_early_termination(),
        );
        assert!(without.samples >= with_term.samples);
    }

    #[test]
    fn sample_count_scales_with_viewport_area() {
        let field = ramp_volume(16);
        let tf = TransferFunction::grayscale_ramp(0.0, 1.0);
        let config = RaycastConfig::without_early_termination();
        let (_, small) = raycast(&field, &Camera::with_viewport(16, 16), &tf, &config);
        let (_, large) = raycast(&field, &Camera::with_viewport(32, 32), &tf, &config);
        let ratio = large.samples as f64 / small.samples.max(1) as f64;
        assert!((ratio - 4.0).abs() < 1.0, "ratio {ratio}");
    }

    #[test]
    fn transparent_transfer_function_yields_background() {
        let field = ramp_volume(16);
        let cam = Camera::with_viewport(16, 16);
        let tf = TransferFunction::band(100.0, 0.1, [1.0, 0.0, 0.0]); // never hit
        let config = RaycastConfig {
            background: [0.0, 0.0, 1.0],
            ..RaycastConfig::default()
        };
        let (img, _) = raycast(&field, &cam, &tf, &config);
        let p = img.get(8, 8);
        assert_eq!(p[2], 255);
        assert_eq!(p[0], 0);
        assert_eq!(p[3], 0); // nothing accumulated
    }

    #[test]
    fn smaller_step_samples_more_densely() {
        let field = ramp_volume(16);
        let cam = Camera::with_viewport(12, 12);
        let tf = TransferFunction::grayscale_ramp(0.0, 1.0);
        let coarse = RaycastConfig {
            step: 2.0,
            ..RaycastConfig::without_early_termination()
        };
        let fine = RaycastConfig {
            step: 0.5,
            ..RaycastConfig::without_early_termination()
        };
        let (_, c) = raycast(&field, &cam, &tf, &coarse);
        let (_, f) = raycast(&field, &cam, &tf, &fine);
        assert!(f.samples > 2 * c.samples);
    }
}
