//! RGBA framebuffers and image encoding.
//!
//! The rendering module converts geometry or volume samples into a
//! "pixel-based image" (paper Fig. 3); the Ajax front end then saves each
//! image as a fixed-size file delivered to the browser.  This module provides
//! the framebuffer type, binary PPM encoding for inspection, and a small
//! difference metric used by tests.

use serde::{Deserialize, Serialize};

/// An 8-bit RGBA image.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Image {
    /// Width in pixels.
    pub width: usize,
    /// Height in pixels.
    pub height: usize,
    /// Pixel data, row-major, 4 bytes per pixel (RGBA).
    pub pixels: Vec<u8>,
}

impl Image {
    /// A black, fully transparent image.
    pub fn new(width: usize, height: usize) -> Self {
        Image {
            width,
            height,
            pixels: vec![0; width * height * 4],
        }
    }

    /// A solid-colour image.
    pub fn filled(width: usize, height: usize, rgba: [u8; 4]) -> Self {
        let mut pixels = Vec::with_capacity(width * height * 4);
        for _ in 0..width * height {
            pixels.extend_from_slice(&rgba);
        }
        Image {
            width,
            height,
            pixels,
        }
    }

    /// The RGBA value at `(x, y)`.
    pub fn get(&self, x: usize, y: usize) -> [u8; 4] {
        let i = (y * self.width + x) * 4;
        [
            self.pixels[i],
            self.pixels[i + 1],
            self.pixels[i + 2],
            self.pixels[i + 3],
        ]
    }

    /// Set the RGBA value at `(x, y)`.
    pub fn set(&mut self, x: usize, y: usize, rgba: [u8; 4]) {
        let i = (y * self.width + x) * 4;
        self.pixels[i..i + 4].copy_from_slice(&rgba);
    }

    /// Size of the raw pixel data in bytes.
    pub fn nbytes(&self) -> usize {
        self.pixels.len()
    }

    /// Fraction of pixels that are not fully transparent black.
    pub fn coverage(&self) -> f64 {
        if self.width * self.height == 0 {
            return 0.0;
        }
        let lit = self
            .pixels
            .chunks_exact(4)
            .filter(|p| p[0] != 0 || p[1] != 0 || p[2] != 0 || p[3] != 0)
            .count();
        lit as f64 / (self.width * self.height) as f64
    }

    /// Mean absolute per-channel difference to another image of the same
    /// size (0 = identical, 255 = maximally different).
    pub fn mean_abs_diff(&self, other: &Image) -> Option<f64> {
        if self.width != other.width || self.height != other.height {
            return None;
        }
        if self.pixels.is_empty() {
            return Some(0.0);
        }
        let total: u64 = self
            .pixels
            .iter()
            .zip(&other.pixels)
            .map(|(a, b)| (*a as i32 - *b as i32).unsigned_abs() as u64)
            .sum();
        Some(total as f64 / self.pixels.len() as f64)
    }

    /// Encode as a binary PPM (P6) image, dropping the alpha channel.
    pub fn encode_ppm(&self) -> Vec<u8> {
        let mut out = format!("P6\n{} {}\n255\n", self.width, self.height).into_bytes();
        for p in self.pixels.chunks_exact(4) {
            out.extend_from_slice(&p[..3]);
        }
        out
    }

    /// Encode as a compact RGBA payload with a 16-byte header — the
    /// "fixed-size file" format the Ajax front end serves to clients.
    pub fn encode_raw(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16 + self.pixels.len());
        out.extend_from_slice(b"RICSAIMG");
        out.extend_from_slice(&(self.width as u32).to_le_bytes());
        out.extend_from_slice(&(self.height as u32).to_le_bytes());
        out.extend_from_slice(&self.pixels);
        out
    }

    /// Decode the format produced by [`Image::encode_raw`].
    pub fn decode_raw(buf: &[u8]) -> Option<Image> {
        Image::raw_parts(buf).map(|(width, height, pixels)| Image {
            width,
            height,
            pixels: pixels.to_vec(),
        })
    }

    /// The width, height and pixel bytes of a buffer in
    /// [`Image::encode_raw`]'s format, borrowed where they lie; `None`
    /// exactly when [`Image::decode_raw`] fails.
    pub fn raw_parts(buf: &[u8]) -> Option<(usize, usize, &[u8])> {
        if buf.len() < 16 || &buf[..8] != b"RICSAIMG" {
            return None;
        }
        let width = u32::from_le_bytes([buf[8], buf[9], buf[10], buf[11]]) as usize;
        let height = u32::from_le_bytes([buf[12], buf[13], buf[14], buf[15]]) as usize;
        let expected = width * height * 4;
        if buf.len() != 16 + expected {
            return None;
        }
        Some((width, height, &buf[16..]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_pixel_access() {
        let mut img = Image::new(4, 3);
        assert_eq!(img.nbytes(), 48);
        assert_eq!(img.get(2, 1), [0, 0, 0, 0]);
        img.set(2, 1, [10, 20, 30, 255]);
        assert_eq!(img.get(2, 1), [10, 20, 30, 255]);
        assert!(img.coverage() > 0.0 && img.coverage() < 0.1);
        let solid = Image::filled(2, 2, [1, 2, 3, 4]);
        assert_eq!(solid.coverage(), 1.0);
    }

    #[test]
    fn diff_metric() {
        let a = Image::filled(2, 2, [10, 10, 10, 10]);
        let b = Image::filled(2, 2, [20, 20, 20, 20]);
        assert_eq!(a.mean_abs_diff(&a), Some(0.0));
        assert_eq!(a.mean_abs_diff(&b), Some(10.0));
        let c = Image::new(3, 2);
        assert_eq!(a.mean_abs_diff(&c), None);
    }

    #[test]
    fn ppm_encoding_has_header_and_rgb_payload() {
        let img = Image::filled(2, 1, [1, 2, 3, 255]);
        let ppm = img.encode_ppm();
        assert!(ppm.starts_with(b"P6\n2 1\n255\n"));
        assert_eq!(&ppm[ppm.len() - 6..], &[1, 2, 3, 1, 2, 3]);
    }

    #[test]
    fn raw_round_trip() {
        let mut img = Image::new(3, 2);
        img.set(1, 1, [5, 6, 7, 8]);
        let encoded = img.encode_raw();
        let back = Image::decode_raw(&encoded).unwrap();
        assert_eq!(back, img);
        assert!(Image::decode_raw(&encoded[..10]).is_none());
        let mut corrupted = encoded.clone();
        corrupted[0] = b'X';
        assert!(Image::decode_raw(&corrupted).is_none());
        let truncated = &encoded[..encoded.len() - 1];
        assert!(Image::decode_raw(truncated).is_none());
    }

    #[test]
    fn empty_image_edge_cases() {
        let img = Image::new(0, 0);
        assert_eq!(img.coverage(), 0.0);
        assert_eq!(img.mean_abs_diff(&Image::new(0, 0)), Some(0.0));
    }
}
