//! Offline stand-in for a lossless compression crate (the role `lz4_flex`
//! or `miniz_oxide` would play online): PackBits-style run-length coding
//! over 4-byte pixel units.
//!
//! Rendered RGBA frames are dominated by flat background runs, but the
//! runs repeat at *pixel* granularity — a byte-level RLE sees the repeating
//! 4-byte pattern `R G B A R G B A …` as runs of length one and expands
//! the data.  Coding whole pixels keeps the scheme one pass, allocation-
//! light and exactly reversible:
//!
//! ```text
//! [orig_len: u32 LE] then records over 4-byte units:
//!   control 0..=127   -> (control + 1) literal pixels follow
//!   control 128..=255 -> one pixel follows, repeated (control - 126) times
//! trailing orig_len % 4 bytes are stored raw after the last record
//! ```
//!
//! Run records cover 2..=129 repeats in 5 bytes, so any run of two or more
//! equal pixels already shrinks.  [`decompress`] validates every length and
//! returns `None` on any truncation or trailing garbage, making it safe on
//! wire input.

#![forbid(unsafe_code)]

/// Compress `data` (any byte length; pixel framing starts at offset 0).
///
/// The output always starts with the 4-byte original length, so even the
/// empty input encodes to 4 bytes.  Worst case (no two adjacent pixels
/// equal) the output is `4 + len + ceil(len/512)` bytes; callers that want
/// compression *only when it wins* should compare lengths and keep the
/// original otherwise (see `ricsa-webfront`'s codec field).
pub fn compress(data: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(8 + data.len() / 4);
    out.extend_from_slice(&(data.len() as u32).to_le_bytes());
    let pixels = data.len() / 4;
    let body = &data[..pixels * 4];
    let mut i = 0usize; // pixel index
    let mut literal_start = 0usize;
    let pixel = |index: usize| &body[index * 4..index * 4 + 4];
    let flush_literals = |out: &mut Vec<u8>, from: usize, to: usize| {
        // Emit pixels [from, to) as literal records of <= 128 pixels.
        let mut at = from;
        while at < to {
            let take = (to - at).min(128);
            out.push((take - 1) as u8);
            out.extend_from_slice(&body[at * 4..(at + take) * 4]);
            at += take;
        }
    };
    while i < pixels {
        let mut run = 1usize;
        while run < 129 && i + run < pixels && pixel(i + run) == pixel(i) {
            run += 1;
        }
        if run >= 2 {
            flush_literals(&mut out, literal_start, i);
            out.push((run + 126) as u8);
            out.extend_from_slice(pixel(i));
            i += run;
            literal_start = i;
        } else {
            i += 1;
        }
    }
    flush_literals(&mut out, literal_start, pixels);
    out.extend_from_slice(&data[pixels * 4..]);
    out
}

/// Decompress a [`compress`] output; `None` on any malformed input
/// (truncated records, length mismatch, or trailing garbage).
pub fn decompress(data: &[u8]) -> Option<Vec<u8>> {
    if data.len() < 4 {
        return None;
    }
    let orig_len = u32::from_le_bytes(data[..4].try_into().ok()?) as usize;
    let mut out = Vec::with_capacity(orig_len);
    let body_pixels = (orig_len / 4) * 4;
    let tail_len = orig_len - body_pixels;
    let mut at = 4usize;
    while out.len() < body_pixels {
        let control = *data.get(at)?;
        at += 1;
        if control < 128 {
            let take = (control as usize + 1) * 4;
            let literal = data.get(at..at + take)?;
            out.extend_from_slice(literal);
            at += take;
        } else {
            let repeats = control as usize - 126;
            let unit = data.get(at..at + 4)?;
            for _ in 0..repeats {
                out.extend_from_slice(unit);
            }
            at += 4;
        }
        if out.len() > body_pixels {
            return None; // a record overran the declared pixel area
        }
    }
    let tail = data.get(at..at + tail_len)?;
    out.extend_from_slice(tail);
    at += tail_len;
    if at != data.len() || out.len() != orig_len {
        return None;
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_netsim::rng::SimRng;

    fn byte(rng: &mut SimRng) -> u8 {
        (rng.next_u64() >> 56) as u8
    }

    fn round_trip(data: &[u8]) {
        let packed = compress(data);
        let back = decompress(&packed).expect("own output must decompress");
        assert_eq!(back, data);
    }

    #[test]
    fn empty_and_tiny_inputs_round_trip() {
        round_trip(b"");
        round_trip(b"a");
        round_trip(b"abc"); // below one pixel: raw tail only
        round_trip(b"abcd");
        round_trip(b"abcdef"); // one pixel + 2-byte tail
    }

    #[test]
    fn flat_regions_shrink_dramatically() {
        // A 64x64 solid RGBA image: 16384 bytes of one repeated pixel.
        let flat: Vec<u8> = [10u8, 20, 30, 255].repeat(4096);
        let packed = compress(&flat);
        assert!(
            packed.len() < flat.len() / 20,
            "flat image must shrink >20x, got {} -> {}",
            flat.len(),
            packed.len()
        );
        round_trip(&flat);
    }

    #[test]
    fn pixel_runs_that_defeat_byte_rle_still_shrink() {
        // Alternating bytes inside each pixel (no byte-level runs at all),
        // but every pixel equal — the pixel-unit coder must still win.
        let data: Vec<u8> = [1u8, 2, 1, 2].repeat(1000);
        let packed = compress(&data);
        assert!(packed.len() < data.len() / 10);
        round_trip(&data);
    }

    #[test]
    fn incompressible_data_grows_only_marginally() {
        let mut rng = SimRng::new(7);
        let data: Vec<u8> = (0..4096).map(|_| byte(&mut rng)).collect();
        let packed = compress(&data);
        assert!(packed.len() <= 4 + data.len() + data.len() / 512 + 1);
        round_trip(&data);
    }

    #[test]
    fn seeded_random_pixel_images_round_trip() {
        let mut rng = SimRng::new(42);
        for case in 0..50 {
            let len = rng.index(2000);
            // Mix runs and noise: pick from a tiny palette so runs form.
            let palette: Vec<[u8; 4]> = (0..3)
                .map(|_| [byte(&mut rng), byte(&mut rng), byte(&mut rng), 255])
                .collect();
            let mut data = Vec::with_capacity(len);
            while data.len() + 4 <= len {
                let px = palette[rng.index(palette.len())];
                data.extend_from_slice(&px);
            }
            while data.len() < len {
                data.push(byte(&mut rng));
            }
            let packed = compress(&data);
            assert_eq!(
                decompress(&packed).as_deref(),
                Some(data.as_slice()),
                "case {case} (len {len}) must round-trip"
            );
        }
    }

    #[test]
    fn malformed_inputs_are_rejected_not_panicked() {
        assert_eq!(decompress(b""), None);
        assert_eq!(decompress(b"\x01\x00"), None); // truncated header
        let good = compress(&[9u8, 9, 9, 9].repeat(64));
        assert!(decompress(&good).is_some());
        // Truncations at every prefix length must fail cleanly.
        for cut in 0..good.len() {
            assert_eq!(decompress(&good[..cut]), None, "cut at {cut}");
        }
        // Trailing garbage must fail, not be silently ignored.
        let mut padded = good.clone();
        padded.push(0);
        assert_eq!(decompress(&padded), None);
        // A record overrunning the declared length must fail.
        let mut overrun = vec![4u8, 0, 0, 0]; // claims 4 bytes (1 pixel)
        overrun.push(129 + 10); // but encodes a long run
        overrun.extend_from_slice(&[1, 2, 3, 4]);
        assert_eq!(decompress(&overrun), None);
    }
}
