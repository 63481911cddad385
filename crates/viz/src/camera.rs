//! Orthographic camera / view parameters.
//!
//! The RICSA client lets the user pick a zoom factor and rotation angles and
//! rotate the image with the mouse; those view parameters travel over the
//! control channel and are consumed by both the ray caster (which assumes
//! orthographic projection, as the paper's cost model does) and the
//! rasterizer.

use serde::{Deserialize, Serialize};

/// An orthographic camera defined by two rotation angles, a zoom factor and
/// the viewport size in pixels.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Camera {
    /// Rotation about the vertical (y) axis, radians.
    pub yaw: f32,
    /// Rotation about the horizontal (x) axis, radians.
    pub pitch: f32,
    /// Zoom factor; 1.0 fits the dataset's largest extent into the viewport.
    pub zoom: f32,
    /// Viewport width, pixels.
    pub width: usize,
    /// Viewport height, pixels.
    pub height: usize,
}

impl Default for Camera {
    fn default() -> Self {
        Camera {
            yaw: 0.6,
            pitch: 0.4,
            zoom: 1.0,
            width: 512,
            height: 512,
        }
    }
}

impl Camera {
    /// A camera with the given viewport and default orientation.
    pub fn with_viewport(width: usize, height: usize) -> Self {
        Camera {
            width,
            height,
            ..Camera::default()
        }
    }

    /// Rotate the camera by the given deltas (mouse interaction).
    pub fn rotate(&mut self, d_yaw: f32, d_pitch: f32) {
        self.yaw += d_yaw;
        self.pitch = (self.pitch + d_pitch).clamp(-1.5, 1.5);
    }

    /// The orthonormal view basis `(right, up, forward)` in dataset space.
    pub fn basis(&self) -> ([f32; 3], [f32; 3], [f32; 3]) {
        let (sy, cy) = self.yaw.sin_cos();
        let (sp, cp) = self.pitch.sin_cos();
        let forward = [cy * cp, sp, sy * cp];
        let right = [-sy, 0.0, cy];
        let up = [
            right[1] * forward[2] - right[2] * forward[1],
            right[2] * forward[0] - right[0] * forward[2],
            right[0] * forward[1] - right[1] * forward[0],
        ];
        (right, up, forward)
    }

    /// The projection of a dataset with the given center and largest
    /// half-extent onto this camera's viewport, with the view basis and
    /// scales computed once for every point and pixel of a frame.
    pub fn projector(&self, center: [f32; 3], half_extent: f32) -> Projector {
        let (right, up, forward) = self.basis();
        let fit = self.zoom * 0.5 * self.width.min(self.height) as f32;
        Projector {
            right,
            up,
            forward,
            center,
            pixels_per_unit: fit / half_extent.max(1e-6),
            units_per_pixel: half_extent.max(1e-6) / fit,
            start_dist: 2.0 * half_extent.max(1.0),
            half_width: self.width as f32 / 2.0,
            half_height: self.height as f32 / 2.0,
        }
    }
}

/// An orthographic projection between dataset space and a camera's
/// viewport: [`Camera::projector`] for one dataset extent.  The rasterizer
/// projects vertices with it and the ray caster casts pixel rays.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Projector {
    right: [f32; 3],
    up: [f32; 3],
    forward: [f32; 3],
    center: [f32; 3],
    pixels_per_unit: f32,
    units_per_pixel: f32,
    start_dist: f32,
    half_width: f32,
    half_height: f32,
}

impl Projector {
    /// The view direction.
    pub fn forward(&self) -> [f32; 3] {
        self.forward
    }

    /// Project a dataset-space point to pixel coordinates plus view depth.
    #[inline]
    pub fn project(&self, p: [f32; 3]) -> (f32, f32, f32) {
        let c = self.center;
        let rel = [p[0] - c[0], p[1] - c[1], p[2] - c[2]];
        let dot = |a: [f32; 3], b: [f32; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let x = self.half_width + dot(rel, self.right) * self.pixels_per_unit;
        let y = self.half_height - dot(rel, self.up) * self.pixels_per_unit;
        (x, y, dot(rel, self.forward))
    }

    /// The dataset-space ray for a pixel (orthographic: one parallel ray
    /// per pixel), returned as `(origin, direction)`.  The origin lies well
    /// outside the volume, so a ray marches forward from it.
    #[inline]
    pub fn pixel_ray(&self, px: usize, py: usize) -> ([f32; 3], [f32; 3]) {
        let (right, up, forward) = (self.right, self.up, self.forward);
        let sx = (px as f32 + 0.5 - self.half_width) * self.units_per_pixel;
        let sy = -(py as f32 + 0.5 - self.half_height) * self.units_per_pixel;
        let (c, d) = (self.center, self.start_dist);
        let origin = [
            c[0] + right[0] * sx + up[0] * sy - forward[0] * d,
            c[1] + right[1] * sx + up[1] * sy - forward[1] * d,
            c[2] + right[2] * sx + up[2] * sy - forward[2] * d,
        ];
        (origin, forward)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basis_is_orthonormal() {
        let cam = Camera::default();
        let (r, u, f) = cam.basis();
        let dot = |a: [f32; 3], b: [f32; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let len = |a: [f32; 3]| dot(a, a).sqrt();
        assert!((len(r) - 1.0).abs() < 1e-5);
        assert!((len(u) - 1.0).abs() < 1e-5);
        assert!((len(f) - 1.0).abs() < 1e-5);
        assert!(dot(r, u).abs() < 1e-5);
        assert!(dot(r, f).abs() < 1e-5);
        assert!(dot(u, f).abs() < 1e-5);
    }

    #[test]
    fn center_projects_to_viewport_center() {
        let cam = Camera::with_viewport(200, 100);
        let (x, y, depth) = cam
            .projector([5.0, 5.0, 5.0], 10.0)
            .project([5.0, 5.0, 5.0]);
        assert!((x - 100.0).abs() < 1e-4);
        assert!((y - 50.0).abs() < 1e-4);
        assert!(depth.abs() < 1e-4);
    }

    #[test]
    fn zoom_scales_projection() {
        let mut cam = Camera::with_viewport(100, 100);
        cam.yaw = 0.0;
        cam.pitch = 0.0;
        let p = [0.0, 1.0, 1.0];
        let (x1, _, _) = cam.projector([0.0; 3], 2.0).project(p);
        cam.zoom = 2.0;
        let (x2, _, _) = cam.projector([0.0; 3], 2.0).project(p);
        let center = 50.0;
        assert!((x2 - center).abs() > (x1 - center).abs());
    }

    #[test]
    fn rotation_clamps_pitch() {
        let mut cam = Camera::default();
        cam.rotate(0.1, 100.0);
        assert!(cam.pitch <= 1.5);
        cam.rotate(0.0, -100.0);
        assert!(cam.pitch >= -1.5);
    }

    #[test]
    fn pixel_rays_start_outside_and_point_forward() {
        let cam = Camera::with_viewport(64, 64);
        let center = [10.0, 10.0, 10.0];
        let half = 8.0;
        let (origin, dir) = cam.projector(center, half).pixel_ray(32, 32);
        let rel = [
            origin[0] - center[0],
            origin[1] - center[1],
            origin[2] - center[2],
        ];
        let dist = (rel[0] * rel[0] + rel[1] * rel[1] + rel[2] * rel[2]).sqrt();
        assert!(dist >= 2.0 * half - 1e-3);
        // The ray direction points back toward the center.
        let toward = rel[0] * dir[0] + rel[1] * dir[1] + rel[2] * dir[2];
        assert!(toward < 0.0);
    }

    #[test]
    fn center_pixel_ray_passes_near_the_center() {
        let cam = Camera::with_viewport(65, 65);
        let center = [0.0, 0.0, 0.0];
        let (origin, dir) = cam.projector(center, 5.0).pixel_ray(32, 32);
        // Distance from the center to the ray line should be small.
        let t = -(origin[0] * dir[0] + origin[1] * dir[1] + origin[2] * dir[2]);
        let closest = [
            origin[0] + t * dir[0],
            origin[1] + t * dir[1],
            origin[2] + t * dir[2],
        ];
        let d = (closest[0].powi(2) + closest[1].powi(2) + closest[2].powi(2)).sqrt();
        assert!(d < 0.2, "closest approach {d}");
    }
}
