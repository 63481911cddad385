//! Software rasterization of triangle meshes.
//!
//! The rendering module is the last stage of the paper's pipeline: it turns
//! the transformed geometry into a pixel image.  The hosts in the Fig. 8
//! deployment differ in whether they even have a graphics card, which is why
//! rendering placement is a feasibility constraint in the optimizer; this
//! software rasterizer plays the role of that stage with a z-buffer and
//! Lambertian shading.

use crate::camera::{Camera, Projector};
use crate::image::Image;
use crate::mesh::TriangleMesh;

/// Rasterize `mesh` into an RGBA image using the given camera and a single
/// directional light along the view direction.
pub fn render_mesh(mesh: &TriangleMesh, camera: &Camera, base_color: [f32; 3]) -> Image {
    let mut image = Image::new(camera.width, camera.height);
    let Some((lo, hi)) = mesh.bounding_box() else {
        return image;
    };
    let center = [
        (lo[0] + hi[0]) / 2.0,
        (lo[1] + hi[1]) / 2.0,
        (lo[2] + hi[2]) / 2.0,
    ];
    let half_extent = ((hi[0] - lo[0]).max(hi[1] - lo[1]).max(hi[2] - lo[2]) / 2.0).max(1e-3);
    // The view basis and scale once per frame, not per vertex.
    let projector = camera.projector(center, half_extent);
    let mut depth = vec![f32::INFINITY; camera.width * camera.height];
    for tri in mesh.indices.chunks_exact(3) {
        let idx = [tri[0] as usize, tri[1] as usize, tri[2] as usize];
        draw(&mut image, &mut depth, mesh, idx, &projector, base_color);
    }
    image
}

/// Project, shade and rasterize one triangle.
fn draw(
    image: &mut Image,
    depth: &mut [f32],
    mesh: &TriangleMesh,
    idx: [usize; 3],
    projector: &Projector,
    base: [f32; 3],
) {
    let projected = idx.map(|i| projector.project(mesh.positions[i]));
    let xs = projected.map(|p| p.0);
    let ys = projected.map(|p| p.1);
    let zs = projected.map(|p| p.2);
    let (w, h) = (image.width as f32, image.height as f32);
    let lowest = |v: [f32; 3]| v.into_iter().fold(f32::INFINITY, f32::min).floor();
    let highest = |v: [f32; 3]| v.into_iter().fold(f32::NEG_INFINITY, f32::max).ceil();
    let min_x = lowest(xs).max(0.0);
    let max_x = highest(xs).min(w - 1.0);
    let min_y = lowest(ys).max(0.0);
    let max_y = highest(ys).min(h - 1.0);
    if min_x > max_x || min_y > max_y {
        return;
    }
    let area = (xs[1] - xs[0]) * (ys[2] - ys[0]) - (xs[2] - xs[0]) * (ys[1] - ys[0]);
    if area.abs() < 1e-9 {
        return;
    }
    // Lambert shading from the mean normal.
    let n = {
        let mut acc = [0.0f32; 3];
        for &i in &idx {
            for (a, normal) in acc.iter_mut().zip(mesh.normals[i]) {
                *a += normal;
            }
        }
        let len = (acc[0] * acc[0] + acc[1] * acc[1] + acc[2] * acc[2])
            .sqrt()
            .max(1e-6);
        [acc[0] / len, acc[1] / len, acc[2] / len]
    };
    let forward = projector.forward();
    let lambert = (-(n[0] * forward[0] + n[1] * forward[1] + n[2] * forward[2]))
        .abs()
        .clamp(0.1, 1.0);
    let shade = |c: f32| ((c * (0.25 + 0.75 * lambert)).clamp(0.0, 1.0) * 255.0) as u8;
    let color = [shade(base[0]), shade(base[1]), shade(base[2]), 255];

    let (x0, x1) = (min_x as usize, max_x as usize);
    for py in min_y as usize..=max_y as usize {
        let row = py * image.width;
        let depth = &mut depth[row + x0..=row + x1];
        let pixels = &mut image.pixels[4 * (row + x0)..4 * (row + x1 + 1)];
        let p1 = py as f32 + 0.5;
        for ((px, d), rgba) in (x0..).zip(depth).zip(pixels.chunks_exact_mut(4)) {
            let p0 = px as f32 + 0.5;
            // Barycentric coordinates.
            let w0 = ((xs[1] - p0) * (ys[2] - p1) - (xs[2] - p0) * (ys[1] - p1)) / area;
            let w1 = ((xs[2] - p0) * (ys[0] - p1) - (xs[0] - p0) * (ys[2] - p1)) / area;
            let w2 = 1.0 - w0 - w1;
            let z = w0 * zs[0] + w1 * zs[1] + w2 * zs[2];
            // Inside and nearer, without a branch.  A NaN weight is not
            // outside, and then fails the depth test.
            let outside = (w0 < 0.0) | (w1 < 0.0) | (w2 < 0.0);
            let hit = !outside & (z < *d);
            *d = if hit { z } else { *d };
            for (out, c) in rgba.iter_mut().zip(color) {
                *out = if hit { c } else { *out };
            }
        }
    }
}

/// The renderer as it was: a camera basis per vertex, a `Vec` per
/// triangle and a branch per pixel.  Kept as the reference the rasterizer
/// is held equal to.
#[cfg(test)]
mod reference {
    use super::*;

    /// `Camera::project` as it was: the basis recomputed per call.
    pub(super) fn project(
        camera: &Camera,
        p: [f32; 3],
        center: [f32; 3],
        half_extent: f32,
    ) -> (f32, f32, f32) {
        let (right, up, forward) = camera.basis();
        let rel = [p[0] - center[0], p[1] - center[1], p[2] - center[2]];
        let dot = |a: [f32; 3], b: [f32; 3]| a[0] * b[0] + a[1] * b[1] + a[2] * b[2];
        let scale =
            camera.zoom * 0.5 * camera.width.min(camera.height) as f32 / half_extent.max(1e-6);
        let x = camera.width as f32 / 2.0 + dot(rel, right) * scale;
        let y = camera.height as f32 / 2.0 - dot(rel, up) * scale;
        (x, y, dot(rel, forward))
    }

    pub(super) fn render_mesh(mesh: &TriangleMesh, camera: &Camera, base_color: [f32; 3]) -> Image {
        let mut image = Image::new(camera.width, camera.height);
        let mut depth = vec![f32::INFINITY; camera.width * camera.height];
        let (center, half_extent) = match mesh.bounding_box() {
            Some((lo, hi)) => {
                let center = [
                    (lo[0] + hi[0]) / 2.0,
                    (lo[1] + hi[1]) / 2.0,
                    (lo[2] + hi[2]) / 2.0,
                ];
                let half = ((hi[0] - lo[0]).max(hi[1] - lo[1]).max(hi[2] - lo[2]) / 2.0).max(1e-3);
                (center, half)
            }
            None => return image,
        };
        let (_, _, forward) = camera.basis();
        for tri in mesh.indices.chunks_exact(3) {
            let idx = [tri[0] as usize, tri[1] as usize, tri[2] as usize];
            let projected: Vec<(f32, f32, f32)> = idx
                .iter()
                .map(|&i| project(camera, mesh.positions[i], center, half_extent))
                .collect();
            let n = {
                let mut acc = [0.0f32; 3];
                for &i in &idx {
                    for (a, normal) in acc.iter_mut().zip(mesh.normals[i]) {
                        *a += normal;
                    }
                }
                let len = (acc[0] * acc[0] + acc[1] * acc[1] + acc[2] * acc[2])
                    .sqrt()
                    .max(1e-6);
                [acc[0] / len, acc[1] / len, acc[2] / len]
            };
            let lambert = (-(n[0] * forward[0] + n[1] * forward[1] + n[2] * forward[2]))
                .abs()
                .clamp(0.1, 1.0);
            let shade = |c: f32| ((c * (0.25 + 0.75 * lambert)).clamp(0.0, 1.0) * 255.0) as u8;
            let color = [
                shade(base_color[0]),
                shade(base_color[1]),
                shade(base_color[2]),
                255,
            ];
            rasterize_triangle(&mut image, &mut depth, &projected, color);
        }
        image
    }

    fn rasterize_triangle(
        image: &mut Image,
        depth: &mut [f32],
        projected: &[(f32, f32, f32)],
        color: [u8; 4],
    ) {
        let (w, h) = (image.width as f32, image.height as f32);
        let xs = [projected[0].0, projected[1].0, projected[2].0];
        let ys = [projected[0].1, projected[1].1, projected[2].1];
        let zs = [projected[0].2, projected[1].2, projected[2].2];
        let min_x = xs
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0);
        let max_x = xs
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(w - 1.0);
        let min_y = ys
            .iter()
            .cloned()
            .fold(f32::INFINITY, f32::min)
            .floor()
            .max(0.0);
        let max_y = ys
            .iter()
            .cloned()
            .fold(f32::NEG_INFINITY, f32::max)
            .ceil()
            .min(h - 1.0);
        if min_x > max_x || min_y > max_y {
            return;
        }
        let area = (xs[1] - xs[0]) * (ys[2] - ys[0]) - (xs[2] - xs[0]) * (ys[1] - ys[0]);
        if area.abs() < 1e-9 {
            return;
        }
        for py in min_y as usize..=max_y as usize {
            for px in min_x as usize..=max_x as usize {
                let p = (px as f32 + 0.5, py as f32 + 0.5);
                let w0 = ((xs[1] - p.0) * (ys[2] - p.1) - (xs[2] - p.0) * (ys[1] - p.1)) / area;
                let w1 = ((xs[2] - p.0) * (ys[0] - p.1) - (xs[0] - p.0) * (ys[2] - p.1)) / area;
                let w2 = 1.0 - w0 - w1;
                if w0 < 0.0 || w1 < 0.0 || w2 < 0.0 {
                    continue;
                }
                let z = w0 * zs[0] + w1 * zs[1] + w2 * zs[2];
                let di = py * image.width + px;
                if z < depth[di] {
                    depth[di] = z;
                    image.set(px, py, color);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::isosurface::extract_isosurface;
    use ricsa_vizdata::field::{Dims, ScalarField};

    /// A seeded soup of triangles in a 10-unit box, with the awkward ones
    /// mixed in: slivers, zero-area and repeated-vertex triangles, NaN
    /// coordinates, triangles taller than the viewport, and exact repeats
    /// of the previous triangle in another shade (equal depths).
    fn awkward_mesh(seed: u64, triangles: usize) -> TriangleMesh {
        let mut x = seed;
        let mut next = move || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            (x >> 40) as f32 / (1u64 << 24) as f32
        };
        let mut mesh = TriangleMesh::new();
        let mut previous = [[0.0f32; 3]; 3];
        for t in 0..triangles {
            let mut p = [[0.0f32; 3]; 3];
            for v in p.iter_mut().flatten() {
                *v = 10.0 * next();
            }
            match t % 9 {
                // An exact repeat: only the depth-test order picks its colour.
                0 if t > 0 => p = previous,
                // A sliver: the third vertex a hair off the first edge.
                1 => p[2] = [p[0][0] + 1e-4, p[0][1] + 5.0 * next(), p[0][2]],
                // Zero area: collinear, or all three vertices the same.
                2 => p[2] = [2.0 * p[1][0] - p[0][0], 2.0 * p[1][1] - p[0][1], p[1][2]],
                3 => p = [p[0]; 3],
                // A NaN coordinate.
                4 => p[1][(t / 9) % 3] = f32::NAN,
                // Tall: spans the box top to bottom.
                5 => {
                    p[0][1] = -0.5;
                    p[1][1] = 10.5;
                }
                _ => {}
            }
            let normal = [next() - 0.5, next() - 0.5, next() - 0.5];
            mesh.push_triangle(p[0], p[1], p[2], normal);
            previous = p;
        }
        mesh
    }

    #[test]
    fn rasterizer_equals_the_reference_on_awkward_meshes_and_viewports() {
        let viewports = [(0, 0), (1, 1), (3, 257), (257, 3), (64, 48), (37, 91)];
        let mut lit = 0.0;
        for (v, &(w, h)) in viewports.iter().enumerate() {
            for seed in 1..4u64 {
                let mesh = awkward_mesh(0xBEEF * seed + v as u64, 120);
                let mut camera = Camera::with_viewport(w, h);
                for (zoom, yaw) in [(1.0, 0.0), (3.0, 0.9), (0.4, -2.0)] {
                    camera.zoom = zoom;
                    camera.rotate(yaw, 0.2);
                    let expected = reference::render_mesh(&mesh, &camera, [0.85, 0.55, 0.25]);
                    lit += expected.coverage();
                    let got = render_mesh(&mesh, &camera, [0.85, 0.55, 0.25]);
                    assert!(got == expected, "{w}x{h} seed {seed} zoom {zoom}");
                }
            }
        }
        assert!(lit > 1.0, "the soups must cover pixels to test anything");
    }

    #[test]
    fn a_sphere_renders_as_it_did() {
        let mesh = sphere_mesh(24);
        let camera = Camera::with_viewport(96, 80);
        let expected = reference::render_mesh(&mesh, &camera, [0.9, 0.5, 0.2]);
        assert!(expected.coverage() > 0.3);
        assert!(render_mesh(&mesh, &camera, [0.9, 0.5, 0.2]) == expected);
    }

    fn sphere_mesh(n: usize) -> TriangleMesh {
        let c = (n as f32 - 1.0) / 2.0;
        let radius = n as f32 / 4.0;
        let field = ScalarField::from_fn(Dims::cube(n), move |x, y, z| {
            let dx = x as f32 - c;
            let dy = y as f32 - c;
            let dz = z as f32 - c;
            radius - (dx * dx + dy * dy + dz * dz).sqrt()
        });
        extract_isosurface(&field, 0.0, 8).mesh
    }

    #[test]
    fn empty_mesh_renders_black_image() {
        let img = render_mesh(
            &TriangleMesh::new(),
            &Camera::with_viewport(32, 32),
            [1.0; 3],
        );
        assert_eq!(img.coverage(), 0.0);
        assert_eq!(img.width, 32);
    }

    #[test]
    fn sphere_renders_as_a_centered_disk() {
        let mesh = sphere_mesh(24);
        let cam = Camera::with_viewport(64, 64);
        let img = render_mesh(&mesh, &cam, [0.9, 0.5, 0.2]);
        // The camera fits the mesh bounding box to the viewport, so the
        // sphere projects to a disk covering roughly pi/4 of the pixels.
        let cov = img.coverage();
        assert!(cov > 0.5 && cov < 0.95, "coverage {cov}");
        // The center pixel is lit, the corners are not.
        assert_ne!(img.get(32, 32), [0, 0, 0, 0]);
        assert_eq!(img.get(0, 0), [0, 0, 0, 0]);
        assert_eq!(img.get(63, 63), [0, 0, 0, 0]);
    }

    #[test]
    fn zooming_in_increases_coverage() {
        let mesh = sphere_mesh(20);
        let mut cam = Camera::with_viewport(48, 48);
        let cov1 = render_mesh(&mesh, &cam, [1.0; 3]).coverage();
        cam.zoom = 2.0;
        let cov2 = render_mesh(&mesh, &cam, [1.0; 3]).coverage();
        assert!(cov2 > cov1, "zoomed coverage {cov2} should exceed {cov1}");
    }

    #[test]
    fn rotation_changes_the_image_but_not_wildly() {
        let mesh = sphere_mesh(20);
        let cam1 = Camera::with_viewport(48, 48);
        let mut cam2 = cam1;
        cam2.rotate(0.8, 0.3);
        let a = render_mesh(&mesh, &cam1, [1.0; 3]);
        let b = render_mesh(&mesh, &cam2, [1.0; 3]);
        // A sphere looks similar from every angle: coverage within a band.
        assert!((a.coverage() - b.coverage()).abs() < 0.1);
        // But shading/rasterization differs pixel-wise.
        assert!(a.mean_abs_diff(&b).unwrap() > 0.0);
    }

    #[test]
    fn degenerate_triangles_are_skipped() {
        let mut mesh = TriangleMesh::new();
        mesh.push_triangle([0.0; 3], [0.0; 3], [0.0; 3], [0.0, 0.0, 1.0]);
        let img = render_mesh(&mesh, &Camera::with_viewport(16, 16), [1.0; 3]);
        // A zero-area triangle should not light the whole screen (the single
        // pixel it might touch is acceptable).
        assert!(img.coverage() <= 1.0 / 256.0 + 1e-9);
    }
}
