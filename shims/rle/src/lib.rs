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
//! equal pixels already shrinks.  [`packed_len`] gives the length
//! [`compress`] would produce without producing it, for callers that only
//! weigh sizes.  [`decompress`] validates every length and returns `None`
//! on any truncation or trailing garbage, making it safe on wire input.

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

/// The length of [`compress`]`(data)`, computed without producing it: one
/// pass, no allocation.
///
/// [`compress`]'s greedy parse depends only on where the maximal runs of
/// equal pixels lie.  A run of `n >= 2` pixels costs `n / 129` full run
/// records, one more when the remainder is two or more, and a remainder
/// of one joins the following literal stretch; every other pixel is a
/// literal, and a stretch of `m` literals costs `4m + ceil(m / 128)`.  So
/// the scan only needs, for each pixel, whether it equals its successor:
/// it reads those 64 pixels at a time into a bit word, branch-free, and
/// walks the word's stretches of ones (runs) and zeros (literals) with
/// `trailing_zeros`.  Inside a run it skips 64 equal pixels with one slice
/// compare.  The tests hold it equal to `compress(data).len()`.
pub fn packed_len(data: &[u8]) -> usize {
    let (pixels, tail) = data.as_chunks::<4>();
    let mut sizer = Sizer::default();
    let mut at = 0;
    while at + 64 < pixels.len() {
        let window: &[[u8; 4]; 65] = pixels[at..=at + 64].try_into().expect("65 pixels");
        match sizer.run {
            Some(pairs) if window[..64] == window[1..] => sizer.run = Some(pairs + 64),
            _ => {
                let lanes = window.map(u32::from_ne_bytes);
                let equal = |j: usize| lanes[j] == lanes[j + 1];
                // A stretch of noise holds no repeat at all, which an OR
                // over the compares finds without packing them into bits.
                let word = if (0..64).fold(false, |any, j| any | equal(j)) {
                    (0..64).fold(0u64, |word, j| word | u64::from(equal(j)) << j)
                } else {
                    0
                };
                sizer.take(word, 64);
            }
        }
        at += 64;
    }
    // The last pixel has no successor: its bit is 0, which closes a run.
    let rest = &pixels[at..];
    let word = rest.windows(2).enumerate().fold(0u64, |word, (j, pair)| {
        word | u64::from(pair[0] == pair[1]) << j
    });
    sizer.take(word, rest.len());
    4 + tail.len() + sizer.bytes + literal_bytes(sizer.literals)
}

/// The bytes [`compress`] spends on a stretch of `m` literal pixels.
fn literal_bytes(m: usize) -> usize {
    4 * m + m.div_ceil(128)
}

/// [`packed_len`]'s state between bit words.
#[derive(Default)]
struct Sizer {
    /// Bytes of the records closed so far.
    bytes: usize,
    /// Pixels of the open literal stretch.
    literals: usize,
    /// The open run's equal adjacent pairs (its pixels less one).
    run: Option<usize>,
}

impl Sizer {
    /// Take the next `n` pixels, whose bit `j` in `word` says pixel `j`
    /// equals its successor.
    fn take(&mut self, word: u64, n: usize) {
        let mut pos = 0;
        while pos < n {
            let rest = word >> pos;
            match self.run {
                Some(pairs) => {
                    let ones = ((!rest).trailing_zeros() as usize).min(n - pos);
                    pos += ones;
                    if pos < n {
                        // A 0 bit: this pixel is the run's last.
                        let run = pairs + ones + 1;
                        self.bytes += literal_bytes(self.literals)
                            + 5 * (run / 129 + usize::from(run % 129 >= 2));
                        self.literals = usize::from(run % 129 == 1);
                        self.run = None;
                        pos += 1;
                    } else {
                        self.run = Some(pairs + ones);
                    }
                }
                None => {
                    let zeros = (rest.trailing_zeros() as usize).min(n - pos);
                    self.literals += zeros;
                    pos += zeros;
                    if pos < n {
                        self.run = Some(0);
                    }
                }
            }
        }
    }
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

    /// `packed_len` against `compress` over seeded streams built from
    /// segments whose edges fall where the greedy parse turns: runs of 2,
    /// 129, 130 and 258 pixels (and others), literal stretches of 127, 128
    /// and 129 pixels (each bounded by runs, so the stretch is exactly that
    /// long), two-colour noise with short runs, and 0–3-byte tails.
    #[test]
    fn packed_len_is_the_length_compress_produces() {
        #[derive(Debug, Default)]
        struct Seen {
            runs: [u32; 4],     // maximal runs of 2, 129, 130, 258 pixels
            literals: [u32; 3], // bounded literal stretches of 127, 128, 129
            tails: [u32; 4],    // inputs with a 0..=3-byte tail
            noise: u32,         // two-colour segments
            long: u32,          // inputs over 4 KiB
        }
        const RUNS: [usize; 4] = [2, 129, 130, 258];
        const LITERALS: [usize; 3] = [127, 128, 129];
        assert_eq!(packed_len(b""), compress(b"").len());
        let mut seen = Seen::default();
        let mut rng = SimRng::new(0x0005_ac4e);
        for case in 0..800 {
            let mut data: Vec<u8> = Vec::new();
            // A pixel that differs from the one before it.
            let fresh = |rng: &mut SimRng, data: &[u8]| loop {
                let px = rng.next_u64().to_le_bytes()[..4].to_vec();
                if data.len() < 4 || data[data.len() - 4..] != px[..] {
                    return px;
                }
            };
            for _ in 0..rng.index(9) {
                match rng.index(3) {
                    0 => {
                        let pick = rng.index(RUNS.len() + 1);
                        let n = RUNS.get(pick).copied().unwrap_or(2 + rng.index(400));
                        if let Some(slot) = seen.runs.get_mut(pick) {
                            *slot += 1;
                        }
                        data.extend(fresh(&mut rng, &data).repeat(n));
                    }
                    1 => {
                        let pick = rng.index(LITERALS.len() + 1);
                        let n = LITERALS.get(pick).copied().unwrap_or(1 + rng.index(300));
                        if let Some(slot) = seen.literals.get_mut(pick) {
                            *slot += 1;
                        }
                        for _ in 0..n {
                            data.extend(fresh(&mut rng, &data));
                        }
                        data.extend(fresh(&mut rng, &data).repeat(2));
                    }
                    _ => {
                        seen.noise += 1;
                        let palette = [fresh(&mut rng, &data), fresh(&mut rng, &data)];
                        for _ in 0..rng.index(600) {
                            data.extend(&palette[rng.index(2)]);
                        }
                    }
                }
            }
            let tail = rng.index(4);
            seen.tails[tail] += 1;
            data.extend((0..tail).map(|_| byte(&mut rng)));
            seen.long += u32::from(data.len() > 4096);
            assert_eq!(packed_len(&data), compress(&data).len(), "case {case}");
        }
        let floors = [
            (seen.runs.iter().min(), 140),
            (seen.literals.iter().min(), 160),
            (seen.tails.iter().min(), 110),
            (Some(&seen.noise), 700),
            (Some(&seen.long), 170),
        ];
        assert!(
            floors
                .iter()
                .all(|&(n, floor)| n.is_some_and(|&n| n >= floor)),
            "{seen:?}"
        );
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
