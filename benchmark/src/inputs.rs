//! Seeded inputs of the serving workloads: the synthetic frame cycle and
//! the steering schedule.  The same seed always gives the same inputs;
//! another seed gives inputs with the same statistics (payload sizes,
//! changed-tile counts), so timings of different seeds are comparable.

use ricsa::netsim::rng::SimRng;
use ricsa::viz::image::Image;

/// Frame edge, pixels.
pub const FRAME_EDGE: usize = 256;
/// Distinct frames in the cycle the serving workloads publish round and
/// round.  The blob's path closes after this many steps, so the delta from
/// the last frame to the first is like any other.
pub const FRAME_CYCLE: usize = 96;
/// Edge of the bright square that walks across the gradient.
const BLOB: usize = 51;

/// The serving workloads' frames: a static gradient in which neighbouring
/// pixels always differ (run-length coding cannot shrink it) under a flat
/// 51-pixel square that moves about six pixels a step along a closed
/// ellipse, so a step changes a handful of 32-pixel tiles.  The seed picks
/// the gradient's offsets, the square's colour and the ellipse.
pub fn frame_cycle(seed: u64) -> Vec<Image> {
    let mut rng = SimRng::new(seed ^ 0x5EED_F4A3);
    let (ox, oy) = (rng.index(256), rng.index(256));
    let colour = [
        200 + rng.index(56) as u8,
        200 + rng.index(56) as u8,
        rng.index(80) as u8,
        255,
    ];
    let centre = ((FRAME_EDGE - BLOB) / 2) as f64;
    let (rx, ry) = (
        rng.uniform_range(80.0, 100.0),
        rng.uniform_range(80.0, 100.0),
    );
    let phase = rng.uniform_range(0.0, std::f64::consts::TAU);

    let mut background = Image::new(FRAME_EDGE, FRAME_EDGE);
    for y in 0..FRAME_EDGE {
        for x in 0..FRAME_EDGE {
            let (gx, gy) = (x + ox, y + oy);
            background.set(x, y, [(gx ^ gy) as u8, (gx / 2) as u8, (gy / 2) as u8, 255]);
        }
    }
    (0..FRAME_CYCLE)
        .map(|step| {
            let angle = phase + std::f64::consts::TAU * step as f64 / FRAME_CYCLE as f64;
            let bx = (centre + rx * angle.cos()).round() as usize;
            let by = (centre + ry * angle.sin()).round() as usize;
            let mut img = background.clone();
            for y in by..by + BLOB {
                for x in bx..bx + BLOB {
                    img.set(x, y, colour);
                }
            }
            img
        })
        .collect()
}

/// Shortest and longest gap between two steering POSTs, seconds.
const STEER_GAP_S: (f64, f64) = (0.200, 0.300);

/// When the steering client posts, seconds from the start of the window:
/// seeded gaps of 200 to 300 ms until `horizon_s`.
pub fn steer_schedule(seed: u64, horizon_s: f64) -> Vec<f64> {
    let mut rng = SimRng::new(seed ^ 0x57EE_2000);
    let mut at = 0.0;
    let mut schedule = Vec::new();
    loop {
        at += rng.uniform_range(STEER_GAP_S.0, STEER_GAP_S.1);
        if at >= horizon_s {
            return schedule;
        }
        schedule.push(at);
    }
}

/// The `drive_strength` the n-th steering POST carries: unique per POST,
/// exactly representable (so it survives JSON both ways bit for bit), and
/// within a millionth of the default so the physics barely notices.
pub fn steer_tag(n: usize) -> f64 {
    1.0 + (n + 1) as f64 / (1u64 << 20) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa::webfront::hub::{diff_images, DELTA_TILE};

    #[test]
    fn frames_repeat_per_seed_and_differ_across_seeds() {
        let a = frame_cycle(11);
        assert_eq!(a.len(), FRAME_CYCLE);
        assert!(a
            .iter()
            .all(|f| (f.width, f.height) == (FRAME_EDGE, FRAME_EDGE)));
        let again = frame_cycle(11);
        assert!(a.iter().zip(&again).all(|(x, y)| x.pixels == y.pixels));
        let other = frame_cycle(12);
        assert!(a.iter().zip(&other).any(|(x, y)| x.pixels != y.pixels));
    }

    #[test]
    fn every_step_of_the_cycle_changes_a_few_tiles_including_the_wrap() {
        let frames = frame_cycle(3);
        for step in 0..FRAME_CYCLE {
            let next = (step + 1) % FRAME_CYCLE;
            let delta = diff_images(&frames[step], &frames[next], DELTA_TILE).unwrap();
            assert!(
                (1..=16).contains(&delta.tiles.len()),
                "step {step}: {} tiles changed",
                delta.tiles.len()
            );
        }
    }

    #[test]
    fn the_gradient_does_not_run_length_compress() {
        let frames = frame_cycle(5);
        let raw = frames[0].encode_raw();
        let packed = rle::compress(&raw);
        // Only the flat square shrinks: 51 rows of 51 pixels.
        assert!(packed.len() > raw.len() - BLOB * BLOB * 4);
        assert!(packed.len() < raw.len());
    }

    #[test]
    fn steer_schedule_is_seeded_and_paced() {
        let a = steer_schedule(9, 10.0);
        assert_eq!(a, steer_schedule(9, 10.0));
        assert_ne!(a, steer_schedule(10, 10.0));
        assert!((33..=50).contains(&a.len()), "{} posts in 10 s", a.len());
        let mut last = 0.0;
        for &at in &a {
            let gap = at - last;
            assert!((0.2..=0.3).contains(&gap), "gap {gap}");
            last = at;
        }
        assert!(steer_schedule(9, 0.1).is_empty());
    }

    #[test]
    fn steer_tags_are_unique_and_exact() {
        assert_ne!(steer_tag(0), steer_tag(1));
        assert!(steer_tag(0) > 1.0 && steer_tag(1000) < 1.001);
        let text = serde_json::to_string(&steer_tag(41)).unwrap();
        assert_eq!(serde_json::from_str::<f64>(&text).unwrap(), steer_tag(41));
    }
}
