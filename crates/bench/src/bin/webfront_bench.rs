//! Time `rle::packed_len` against `rle::compress` on the frames the hub
//! sizes.
//!
//! The hub's profitability rule weighs every delta against the full
//! payload's length, which `packed_len` computes without packing.  Frames
//! that compress well (a live-steering render) pay for `packed_len` and
//! then for the real `compress` of their full encode, so `packed_len`
//! must be no slower than `compress` on any of them.  Three 256×256
//! frames: a flat one (one long run), the serving benchmark's shape (a
//! gradient in which neighbouring pixels always differ, under a flat
//! square) and a rendered isosurface (flat background around a shaded
//! mesh).  Each time is the median of nine batches.
//!
//! Usage: `cargo run --release -p ricsa-bench --bin webfront_bench`.
//! The process exits non-zero if `packed_len` ever disagrees with
//! `compress`'s length; the timings are reported, not asserted.

use ricsa_viz::camera::Camera;
use ricsa_viz::image::Image;
use ricsa_viz::isosurface::extract_isosurface;
use ricsa_viz::render::render_mesh;
use ricsa_vizdata::dataset::{DatasetCatalog, DatasetKind};
use std::hint::black_box;
use std::time::Instant;

const EDGE: usize = 256;

/// The serving benchmark's frame shape: a gradient whose neighbouring
/// pixels always differ, under a flat 51-pixel square.
fn gradient_with_blob() -> Image {
    let mut img = Image::new(EDGE, EDGE);
    for y in 0..EDGE {
        for x in 0..EDGE {
            let (gx, gy) = (x + 17, y + 93);
            img.set(x, y, [(gx ^ gy) as u8, (gx / 2) as u8, (gy / 2) as u8, 255]);
        }
    }
    for y in 60..111 {
        for x in 140..191 {
            img.set(x, y, [230, 215, 40, 255]);
        }
    }
    img
}

/// The Jet preview's isosurface, rendered as the live-steering path does.
fn rendered_isosurface() -> Image {
    let field = DatasetCatalog::paper_datasets()
        .get(DatasetKind::Jet)
        .generate_preview(400_000);
    let (lo, hi) = field.value_range();
    let surface = extract_isosurface(&field, lo + 0.5 * (hi - lo), 16);
    render_mesh(
        &surface.mesh,
        &Camera::with_viewport(EDGE, EDGE),
        [0.9, 0.6, 0.2],
    )
}

/// Median wall time of one call, µs: nine batches, each long enough to
/// read about 20 ms.
fn median_us(mut call: impl FnMut() -> usize) -> f64 {
    let start = Instant::now();
    black_box(call());
    let once = start.elapsed().as_secs_f64().max(1e-7);
    let reps = ((0.02 / once) as usize).clamp(1, 100_000);
    let mut batches: Vec<f64> = (0..9)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..reps {
                black_box(call());
            }
            start.elapsed().as_secs_f64() * 1e6 / reps as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[batches.len() / 2]
}

fn main() {
    let frames = [
        ("flat", Image::filled(EDGE, EDGE, [12, 34, 56, 255])),
        ("gradient+blob", gradient_with_blob()),
        ("isosurface", rendered_isosurface()),
    ];
    println!(
        "{:<14} {:>8} {:>8} {:>13} {:>15} {:>8}",
        "frame", "bytes", "packed", "compress_us", "packed_len_us", "speedup"
    );
    let mut exact = true;
    let mut no_slower = true;
    for (name, image) in &frames {
        let raw = image.encode_raw();
        let packed = rle::compress(&raw).len();
        exact &= rle::packed_len(&raw) == packed;
        let compress_us = median_us(|| rle::compress(black_box(&raw)).len());
        let packed_len_us = median_us(|| rle::packed_len(black_box(&raw)));
        no_slower &= packed_len_us <= compress_us;
        println!(
            "{name:<14} {:>8} {packed:>8} {compress_us:>13.1} {packed_len_us:>15.1} {:>7.1}x",
            raw.len(),
            compress_us / packed_len_us
        );
    }
    println!(
        "packed_len equals compress's length on every frame: {}",
        if exact { "yes" } else { "NO" }
    );
    println!(
        "packed_len no slower than compress on every frame: {}",
        if no_slower { "yes" } else { "no" }
    );
    if !exact {
        std::process::exit(1);
    }
}
