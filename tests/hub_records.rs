//! Golden record of the session hub's answers: which payload every poller
//! receives, byte for byte, and how many encodes the hub made for them.
//!
//! A seeded run of publishes goes into a hub that retains only a few
//! frames, so frames are evicted under the pollers.  The image is mostly
//! flat (it run-length codes well) with one textured band (it does not),
//! and a small square moves across it, so most frames change a few tiles
//! and their deltas and delta chains pay.  Some frames are noise, so their
//! deltas — and every chain across them — do not pay.  One publish resizes
//! the image and one carries bytes that do not decode, so no delta reaches
//! the frames after them.
//!
//! After every publish, every `since` in `0..=head+1` polls once in each
//! mode.  Each answer's `(since, mode, sequence, is_delta, payload)` goes
//! into the record, with the hub's epoch masked (it is a clock reading),
//! and so does the encode count after each round.  One FNV-1a digest covers
//! the record, so it moves when any poller would receive one other byte or
//! the hub would encode once more or less.  Two floors keep the scenario
//! covering both ways a lagging delta poller is answered with a delta: a
//! chain carrying it to the head, and the one step to `since + 1` when the
//! chain does not pay.
//!
//! The digest was captured at the commit that introduced it and is not to
//! be edited by a change that claims to preserve behaviour.

use ricsa::netsim::rng::SimRng;
use ricsa::pipemap::fnv1a_hex;
use ricsa::viz::image::Image;
use ricsa::webfront::{Frame, PollMode, SessionHub};
use std::fmt::Write;

/// Frames the hub retains.
const CAPACITY: usize = 5;
/// Publishes in the run.
const PUBLISHES: u64 = 60;
/// The publish that changes the image size.
const RESIZE_AT: u64 = 31;
/// The publish whose image bytes do not decode.
const UNDECODABLE_AT: u64 = 45;
/// Rows of incompressible texture at the top of the image.
const BAND: usize = 24;
/// Edge of the moving square.
const SQUARE: usize = 7;

/// A mostly flat image with a textured band and the square at `(x, y)`.
fn scene(width: usize, height: usize, x: usize, y: usize) -> Image {
    let mut img = Image::filled(width, height, [16, 32, 64, 255]);
    for row in 0..BAND.min(height) {
        for col in 0..width {
            let v = (col * 37 + row * 101 + col * row) as u8;
            img.set(col, row, [v, v ^ 0x5A, v.wrapping_mul(3), 255]);
        }
    }
    for row in y..(y + SQUARE).min(height) {
        for col in x..(x + SQUARE).min(width) {
            img.set(col, row, [240, 200, 40, 255]);
        }
    }
    img
}

/// An image of seeded random pixels: every tile changes.
fn noise(rng: &mut SimRng, width: usize, height: usize) -> Image {
    let mut img = Image::new(width, height);
    for p in img.pixels.iter_mut() {
        *p = rng.next_u64() as u8;
    }
    img
}

/// What the run records, and how often each kind of lagging delta answer
/// came up.
struct Records {
    text: String,
    composed: usize,
    one_step_fallbacks: usize,
}

fn hub_records() -> Records {
    let mut rng = SimRng::new(20080609);
    let hub = SessionHub::new(CAPACITY);
    let epoch = format!("\"epoch\":{}", hub.epoch());
    let mut records = Records {
        text: String::new(),
        composed: 0,
        one_step_fallbacks: 0,
    };
    let (mut x, mut y) = (40, 50);
    for publish in 1..=PUBLISHES {
        let (width, height) = if publish < RESIZE_AT {
            (160, 96)
        } else {
            (128, 96)
        };
        // The square takes a short seeded step, or stays put (an empty
        // delta); now and then a frame is all noise.
        if rng.coin(0.8) {
            x = (x + rng.index(9)) % (width - SQUARE);
            y = BAND + (y - BAND + rng.index(5)) % (height - BAND - SQUARE);
        }
        let image = if publish == UNDECODABLE_AT {
            b"not an image".to_vec()
        } else if rng.coin(0.12) {
            noise(&mut rng, width, height).encode_raw()
        } else {
            scene(width, height, x, y).encode_raw()
        };
        let head = hub.publish(Frame {
            sequence: 0,
            cycle: publish * 10,
            time: publish as f64 * 0.25,
            image,
            monitors: vec![("max_pressure".into(), publish as f64 / 8.0)],
        });
        for since in 0..=head + 1 {
            for mode in [PollMode::Full, PollMode::Delta] {
                let Some(payload) = hub.try_payload(since, mode) else {
                    writeln!(records.text, "{since} {mode:?} none").unwrap();
                    continue;
                };
                let lagging = mode == PollMode::Delta && payload.is_delta && head - since >= 2;
                if lagging && payload.sequence == head {
                    records.composed += 1;
                } else if lagging && payload.sequence == since + 1 {
                    records.one_step_fallbacks += 1;
                }
                writeln!(
                    records.text,
                    "{since} {mode:?} {} {} {}",
                    payload.sequence,
                    payload.is_delta,
                    fnv1a_hex(&payload.json.replacen(&epoch, "\"epoch\":E", 1)),
                )
                .unwrap();
            }
        }
        writeln!(records.text, "encodes {}", hub.encode_count()).unwrap();
    }
    records
}

#[test]
fn hub_answers_are_the_pinned_ones() {
    let records = hub_records();
    assert!(
        records.composed >= 50,
        "only {} composed chains: the scenario stopped covering them",
        records.composed
    );
    assert!(
        records.one_step_fallbacks >= 50,
        "only {} one-step fallbacks: the scenario stopped covering them",
        records.one_step_fallbacks
    );
    assert_eq!(fnv1a_hex(&records.text), "e145e6a477386c78");
}
