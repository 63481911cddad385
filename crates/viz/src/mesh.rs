//! Triangle meshes produced by the transformation (isosurface) stage.
//!
//! The mesh is the intermediate "geometric primitives" data the paper's
//! pipeline may ship between a computing-service node and the rendering
//! node, so its byte size matters to the delay model as much as its
//! geometry does to the renderer.

use serde::{Deserialize, Serialize};

/// An indexed triangle mesh with per-vertex normals.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct TriangleMesh {
    /// Vertex positions in dataset (voxel) space.
    pub positions: Vec<[f32; 3]>,
    /// Per-vertex unit normals.
    pub normals: Vec<[f32; 3]>,
    /// Vertex indices, three per triangle.
    pub indices: Vec<u32>,
}

impl TriangleMesh {
    /// An empty mesh.
    pub fn new() -> Self {
        TriangleMesh::default()
    }

    /// Number of triangles.
    pub fn triangle_count(&self) -> usize {
        self.indices.len() / 3
    }

    /// Whether the mesh has no triangles.
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }

    /// Size of the mesh in bytes when shipped downstream (positions +
    /// normals + indices).
    pub fn nbytes(&self) -> usize {
        self.positions.len() * 12 + self.normals.len() * 12 + self.indices.len() * 4
    }

    /// Append a triangle given three positions and a shared normal,
    /// creating three new vertices (no welding).
    pub fn push_triangle(&mut self, a: [f32; 3], b: [f32; 3], c: [f32; 3], normal: [f32; 3]) {
        let base = self.positions.len() as u32;
        self.positions.extend_from_slice(&[a, b, c]);
        self.normals.extend_from_slice(&[normal, normal, normal]);
        self.indices.extend_from_slice(&[base, base + 1, base + 2]);
    }

    /// Merge another mesh into this one.
    pub fn append(&mut self, other: &TriangleMesh) {
        let base = self.positions.len() as u32;
        self.positions.extend_from_slice(&other.positions);
        self.normals.extend_from_slice(&other.normals);
        self.indices.extend(other.indices.iter().map(|i| i + base));
    }

    /// Axis-aligned bounding box, or `None` for an empty mesh.
    pub fn bounding_box(&self) -> Option<([f32; 3], [f32; 3])> {
        if self.positions.is_empty() {
            return None;
        }
        let mut lo = [f32::INFINITY; 3];
        let mut hi = [f32::NEG_INFINITY; 3];
        for p in &self.positions {
            for k in 0..3 {
                lo[k] = lo[k].min(p[k]);
                hi[k] = hi[k].max(p[k]);
            }
        }
        Some((lo, hi))
    }

    /// Total surface area of the mesh.
    pub fn surface_area(&self) -> f64 {
        let mut area = 0.0f64;
        for tri in self.indices.chunks_exact(3) {
            let a = self.positions[tri[0] as usize];
            let b = self.positions[tri[1] as usize];
            let c = self.positions[tri[2] as usize];
            let ab = [b[0] - a[0], b[1] - a[1], b[2] - a[2]];
            let ac = [c[0] - a[0], c[1] - a[1], c[2] - a[2]];
            let cross = [
                ab[1] * ac[2] - ab[2] * ac[1],
                ab[2] * ac[0] - ab[0] * ac[2],
                ab[0] * ac[1] - ab[1] * ac[0],
            ];
            let norm =
                (cross[0] as f64).powi(2) + (cross[1] as f64).powi(2) + (cross[2] as f64).powi(2);
            area += 0.5 * norm.sqrt();
        }
        area
    }
}

/// Normalize a vector, returning a default up-vector for degenerate input.
pub fn normalize(v: [f32; 3]) -> [f32; 3] {
    let len = (v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt();
    if len < 1e-12 {
        [0.0, 0.0, 1.0]
    } else {
        [v[0] / len, v[1] / len, v[2] / len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_triangle() -> TriangleMesh {
        let mut m = TriangleMesh::new();
        m.push_triangle(
            [0.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 1.0, 0.0],
            [0.0, 0.0, 1.0],
        );
        m
    }

    #[test]
    fn counts_and_bytes() {
        let m = unit_triangle();
        assert_eq!(m.triangle_count(), 1);
        assert_eq!(m.positions.len(), 3);
        assert!(!m.is_empty());
        assert_eq!(m.nbytes(), 3 * 12 + 3 * 12 + 3 * 4);
        assert!(TriangleMesh::new().is_empty());
    }

    #[test]
    fn append_offsets_indices() {
        let mut a = unit_triangle();
        let b = unit_triangle();
        a.append(&b);
        assert_eq!(a.triangle_count(), 2);
        assert_eq!(a.indices[3..6], [3, 4, 5]);
    }

    #[test]
    fn bounding_box_and_area() {
        let m = unit_triangle();
        let (lo, hi) = m.bounding_box().unwrap();
        assert_eq!(lo, [0.0, 0.0, 0.0]);
        assert_eq!(hi, [1.0, 1.0, 0.0]);
        assert!((m.surface_area() - 0.5).abs() < 1e-9);
        assert!(TriangleMesh::new().bounding_box().is_none());
        assert_eq!(TriangleMesh::new().surface_area(), 0.0);
    }

    #[test]
    fn normalize_handles_degenerate_vectors() {
        let n = normalize([3.0, 0.0, 4.0]);
        assert!((n[0] - 0.6).abs() < 1e-6);
        assert!((n[2] - 0.8).abs() < 1e-6);
        assert_eq!(normalize([0.0, 0.0, 0.0]), [0.0, 0.0, 1.0]);
    }
}
