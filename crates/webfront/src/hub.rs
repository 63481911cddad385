//! The session hub: frames out, steering commands in — encoded at most once.
//!
//! The hub is the piece that makes the front end both "Ajax" and scalable:
//!
//! * **Publish → diff; encode once, on first demand.**  Publishing a frame
//!   costs what needs its predecessor — decoding the image and cutting the
//!   tile difference — and no encoding.  The first poller that asks for an
//!   encoding (full, or delta) base64/JSON-encodes it *once* into a shared
//!   `Arc<str>` payload ([`FramePayload`]); every later poller — one
//!   browser or a thousand — receives a clone of the same `Arc`, and an
//!   encoding nobody polls is never made (the embedded page polls delta
//!   only, so its frames never pay for a full payload).  Per-client cost is
//!   a lookup plus a reference-count bump, never a re-encode.
//!   [`SessionHub::encode_count`] certifies this (it grows with publishes,
//!   not with pollers).  The writers put the pixel body straight into the
//!   payload text, so an encode costs what its bytes cost.
//! * **Delta frames.**  Publish computes the changed-tile difference to
//!   the *previous* frame ([`diff_images`]).  A poller `k` frames behind
//!   (1 ≤ `k` ≤ [`MAX_DELTA_CHAIN`]) that asks for [`PollMode::Delta`]
//!   receives only the tiles that changed since its frame — the paper's
//!   "partial screen updates" carried through to the wire.  The steps'
//!   tiles are merged on their common grid, the newest version of each
//!   winning, which is exactly applying them one by one; one step is a
//!   chain of one.  A delta ships only when it is at least 10% smaller
//!   than the full payload (whose length is computed, not encoded, for the
//!   comparison).  When the chain to the newest frame does not ship, the
//!   poller steps one frame (`since + 1`'s delta, else the full payload of
//!   the oldest frame after `since`); a poller further behind gets the
//!   newest full frame.  So delta mode is
//!   never worse and always exact: [`apply_delta`] reconstructs the frame
//!   bit-for-bit.  Every delta is encoded once, like a full payload.
//! * **Snapshot reads, one publish critical section.**  The published
//!   frame ring is an immutable snapshot behind a `std::sync::RwLock`: a
//!   reader holds the read guard only to clone the snapshot's `Arc`, and
//!   resolves and encodes its payload with no lock held.  A publish holds
//!   the publisher lock from sequence assignment through the diff to the
//!   ring swap, and the write guard only for the swap — each hub has one
//!   publisher (one pipeline per session), so nothing waits on it, and
//!   publishers that do race simply serialise: every frame lands whole, in
//!   order, with its delta.
//! * **Wire compression.**  Full frames and delta tiles are run-length
//!   coded (the `rle` shim, pixel-granular PackBits) before base64 whenever
//!   that shrinks them; the `codec`/`rle` JSON fields tell the client to
//!   decompress.  Rendered frames are dominated by flat background, so this
//!   stacks multiplicatively with the delta saving.
//! * **No per-client state.**  The `since` a poller passes is the only
//!   cursor — the client holds the pixels, so it knows which frame they
//!   are (DESIGN.md §7.1).
//!
//! The newest steering command posted by clients waits in a
//! [`SteeringInbox`] for the simulation side to take between cycles.
//!
//! See DESIGN.md §7 for the state machine and the delta exactness argument,
//! and §10 for the snapshot invariants and the traffic assumption.

use ricsa_hydro::steering::SteerableParams;
use ricsa_viz::image::Image;
use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, LockResult, Mutex, OnceLock, PoisonError, RwLock};

/// Tile edge length (pixels) used for delta frames.
pub const DELTA_TILE: usize = 32;

/// Longest delta chain served to a lagging poller: a client more than this
/// many frames behind receives a full frame instead.  Bounds both the
/// tile-merge work per chain and the number of chains the hub can be asked
/// to encode per publish.
pub const MAX_DELTA_CHAIN: u64 = 8;

/// One published frame.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// Monotone frame number.
    pub sequence: u64,
    /// Simulation cycle the frame was produced from.
    pub cycle: u64,
    /// Physical simulation time.
    pub time: f64,
    /// The rendered image encoded with `Image::encode_raw` (RICSAIMG).
    pub image: Vec<u8>,
    /// Monitored scalar statistics shown next to the image
    /// (name → value), e.g. max pressure or total mass.
    pub monitors: Vec<(String, f64)>,
}

/// Which wire encoding a poller asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PollMode {
    /// Always the complete frame.
    Full,
    /// The changed-tile delta when the poller is exactly one frame behind
    /// and a delta is cached; the full frame otherwise.
    Delta,
}

/// A ready-to-serve poll response: the shared JSON payload for one frame.
#[derive(Debug, Clone)]
pub struct FramePayload {
    /// Sequence number of the frame this payload carries the client to.
    pub sequence: u64,
    /// The JSON body, shared across every client that receives this frame.
    pub json: Arc<str>,
    /// Whether this is the delta encoding (tiles only) or the full frame.
    pub is_delta: bool,
}

// ---------------------------------------------------------------- base64

const BASE64_ALPHABET: &[u8; 64] =
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/";

/// Marks a byte outside the alphabet in [`BASE64_VALUES`] (`=` included).
const NOT_BASE64: u8 = 0xFF;

/// Byte → sextet, the inverse of [`BASE64_ALPHABET`].
const BASE64_VALUES: [u8; 256] = {
    let mut table = [NOT_BASE64; 256];
    let mut sextet = 0;
    while sextet < 64 {
        table[BASE64_ALPHABET[sextet] as usize] = sextet as u8;
        sextet += 1;
    }
    table
};

/// Length of the padded base64 text of `bytes` bytes.
fn base64_len(bytes: usize) -> usize {
    bytes.div_ceil(3) * 4
}

/// Append the base64 text of `data` to `out`.
fn base64_extend(out: &mut Vec<u8>, data: &[u8]) {
    let sextet = |n: u32, shift: u32| BASE64_ALPHABET[(n >> shift) as usize & 63];
    let start = out.len();
    out.resize(start + base64_len(data.len()), b'=');
    let mut groups = data.chunks_exact(3);
    let mut quanta = out[start..].chunks_exact_mut(4);
    for (group, quantum) in (&mut groups).zip(&mut quanta) {
        let n = (group[0] as u32) << 16 | (group[1] as u32) << 8 | group[2] as u32;
        quantum.copy_from_slice(&[sextet(n, 18), sextet(n, 12), sextet(n, 6), sextet(n, 0)]);
    }
    // One or two bytes left over fill two or three characters of a last
    // quantum; what they do not fill stays `=`.
    if let Some(quantum) = quanta.next() {
        let rest = groups.remainder();
        let n = (rest[0] as u32) << 16 | (rest.get(1).copied().unwrap_or(0) as u32) << 8;
        quantum[0] = sextet(n, 18);
        quantum[1] = sextet(n, 12);
        if rest.len() == 2 {
            quantum[2] = sextet(n, 6);
        }
    }
}

/// Base64 encoding (standard alphabet, with padding) for frame payloads.
pub fn base64_encode(data: &[u8]) -> String {
    let mut out = Vec::with_capacity(base64_len(data.len()));
    base64_extend(&mut out, data);
    String::from_utf8(out).expect("base64 text is ASCII")
}

/// Decode standard base64 (the inverse of [`base64_encode`]); `None` on
/// any non-alphabet byte, truncated quantum, or `=` anywhere but as the
/// last one or two characters of the text.
pub fn base64_decode(s: &str) -> Option<Vec<u8>> {
    let bytes = s.as_bytes();
    if !bytes.len().is_multiple_of(4) {
        return None;
    }
    let pad = bytes
        .iter()
        .rev()
        .take(2)
        .take_while(|&&c| c == b'=')
        .count();
    let (whole, padded) = bytes.split_at(bytes.len() - if pad > 0 { 4 } else { 0 });
    let mut out = vec![0u8; whole.len() / 4 * 3];
    for (quantum, group) in whole.chunks_exact(4).zip(out.chunks_exact_mut(3)) {
        let v = [
            BASE64_VALUES[quantum[0] as usize],
            BASE64_VALUES[quantum[1] as usize],
            BASE64_VALUES[quantum[2] as usize],
            BASE64_VALUES[quantum[3] as usize],
        ];
        // A sextet is below 64, so the marker's high bits survive the OR.
        if v[0] | v[1] | v[2] | v[3] == NOT_BASE64 {
            return None;
        }
        let n = (v[0] as u32) << 18 | (v[1] as u32) << 12 | (v[2] as u32) << 6 | v[3] as u32;
        group.copy_from_slice(&[(n >> 16) as u8, (n >> 8) as u8, n as u8]);
    }
    if pad > 0 {
        let mut n: u32 = 0;
        for &c in &padded[..4 - pad] {
            let v = BASE64_VALUES[c as usize];
            if v == NOT_BASE64 {
                return None;
            }
            n = (n << 6) | v as u32;
        }
        n <<= 6 * pad as u32;
        out.push((n >> 16) as u8);
        if pad == 1 {
            out.push((n >> 8) as u8);
        }
    }
    Some(out)
}

// ------------------------------------------------------------ delta tiles

/// One changed tile: rectangle origin and size in pixels, plus its raw
/// RGBA bytes (row-major within the rectangle).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TilePatch {
    /// Left edge of the rectangle.
    pub x: usize,
    /// Top edge of the rectangle.
    pub y: usize,
    /// Rectangle width (≤ [`DELTA_TILE`]; smaller at the right edge).
    pub w: usize,
    /// Rectangle height (≤ [`DELTA_TILE`]; smaller at the bottom edge).
    pub h: usize,
    /// Raw RGBA bytes of the rectangle.
    pub data: Vec<u8>,
}

/// The changed-tile difference between two equally-sized images.
#[derive(Debug, Clone, PartialEq)]
pub struct FrameDelta {
    /// Image width in pixels.
    pub width: usize,
    /// Image height in pixels.
    pub height: usize,
    /// Tile edge length the grid was cut with.
    pub tile: usize,
    /// Tiles whose bytes differ, in row-major tile order.
    pub tiles: Vec<TilePatch>,
}

/// Cut both images into a `tile`×`tile` grid and collect the tiles whose
/// bytes differ.  `None` when the images are not the same size (a resize
/// must ship a full frame).
pub fn diff_images(prev: &Image, cur: &Image, tile: usize) -> Option<FrameDelta> {
    if prev.width != cur.width || prev.height != cur.height || tile == 0 {
        return None;
    }
    let mut tiles = Vec::new();
    let mut y = 0;
    while y < cur.height {
        let h = tile.min(cur.height - y);
        let mut x = 0;
        while x < cur.width {
            let w = tile.min(cur.width - x);
            let mut changed = false;
            for row in y..y + h {
                let start = (row * cur.width + x) * 4;
                let end = start + w * 4;
                if prev.pixels[start..end] != cur.pixels[start..end] {
                    changed = true;
                    break;
                }
            }
            if changed {
                let mut data = Vec::with_capacity(w * h * 4);
                for row in y..y + h {
                    let start = (row * cur.width + x) * 4;
                    data.extend_from_slice(&cur.pixels[start..start + w * 4]);
                }
                tiles.push(TilePatch { x, y, w, h, data });
            }
            x += tile;
        }
        y += tile;
    }
    Some(FrameDelta {
        width: cur.width,
        height: cur.height,
        tile,
        tiles,
    })
}

/// Apply a delta to the frame it was computed against, reconstructing the
/// successor frame exactly (`apply_delta(prev, diff(prev, cur)) == cur`).
pub fn apply_delta(prev: &Image, delta: &FrameDelta) -> Image {
    let mut out = prev.clone();
    for patch in &delta.tiles {
        let mut offset = 0;
        for row in patch.y..patch.y + patch.h {
            let start = (row * out.width + patch.x) * 4;
            out.pixels[start..start + patch.w * 4]
                .copy_from_slice(&patch.data[offset..offset + patch.w * 4]);
            offset += patch.w * 4;
        }
    }
    out
}

/// Parse a delta poll response (the wire JSON produced by the hub) back
/// into its base sequence and [`FrameDelta`].  Used by tests and clients
/// that reconstruct frames outside a browser.  `None` on a malformed
/// payload, including a zero tile edge and a tile whose rectangle leaves
/// the image or whose bytes do not fill it exactly — [`apply_delta`]
/// trusts every tile it is given.
pub fn delta_from_json(value: &serde_json::Value) -> Option<(u64, FrameDelta)> {
    if value.get("mode")?.as_str()? != "delta" {
        return None;
    }
    let base = value.get("base_sequence")?.as_u64()?;
    let width = value.get("width")?.as_u64()? as usize;
    let height = value.get("height")?.as_u64()? as usize;
    let tile = value.get("tile")?.as_u64()? as usize;
    if tile == 0 {
        return None;
    }
    let mut tiles = Vec::new();
    for t in value.get("tiles")?.as_array()? {
        let raw = base64_decode(t.get("data_base64")?.as_str()?)?;
        let data = if t.get("rle").and_then(|r| r.as_bool()) == Some(true) {
            rle::decompress(&raw)?
        } else {
            raw
        };
        let patch = TilePatch {
            x: t.get("x")?.as_u64()? as usize,
            y: t.get("y")?.as_u64()? as usize,
            w: t.get("w")?.as_u64()? as usize,
            h: t.get("h")?.as_u64()? as usize,
            data,
        };
        if patch.x.checked_add(patch.w)? > width
            || patch.y.checked_add(patch.h)? > height
            || patch.w.checked_mul(patch.h)?.checked_mul(4)? != patch.data.len()
        {
            return None;
        }
        tiles.push(patch);
    }
    Some((
        base,
        FrameDelta {
            width,
            height,
            tile,
            tiles,
        },
    ))
}

// -------------------------------------------------------------- encoding
//
// The writers below put a payload's JSON text straight into one pre-sized
// buffer: the pixel body goes from (RLE-packed) bytes to base64 text in
// place and never enters a `serde_json::Value` tree, whose `Display` would
// escape-scan it back out.  Small fields still go through `Value`, so
// numbers and monitor names are formatted and escaped by the one rule.
// Members are written in alphabetical key order, the order the tree's
// `BTreeMap` gives; the tests keep the tree-building encoders as the
// reference and assert byte identity.

fn put(out: &mut Vec<u8>, text: &str) {
    out.extend_from_slice(text.as_bytes());
}

fn put_value(out: &mut Vec<u8>, value: &impl Serialize) {
    put(out, &serde_json::to_value(value).to_string());
}

fn into_json(out: Vec<u8>) -> String {
    String::from_utf8(out).expect("JSON text and base64 are UTF-8")
}

/// `data` as it ships: run-length packed when that shrinks it.
fn pack(data: &[u8]) -> Option<Vec<u8>> {
    Some(rle::compress(data)).filter(|packed| packed.len() < data.len())
}

/// Write a full-frame payload around `image`, the bytes to ship (packed
/// when `rle`).  With an empty `image` this is the envelope alone.
fn write_full(out: &mut Vec<u8>, frame: &Frame, epoch: u64, rle: bool, image: &[u8]) {
    put(out, "{");
    if rle {
        put(out, "\"codec\":\"rle\",");
    }
    put(out, "\"cycle\":");
    put_value(out, &frame.cycle);
    put(out, ",\"epoch\":");
    put_value(out, &epoch);
    put(out, ",\"image_base64\":\"");
    base64_extend(out, image);
    put(out, "\",\"mode\":\"full\",\"monitors\":");
    put_value(out, &frame.monitors);
    put(out, ",\"sequence\":");
    put_value(out, &frame.sequence);
    put(out, ",\"time\":");
    put_value(out, &frame.time);
    put(out, "}");
}

/// Room for a payload's members other than pixel bodies and monitors.
const ENVELOPE_ROOM: usize = 256;

/// Room for one tile's members other than its pixel body.
const TILE_ROOM: usize = 64;

/// Size of the monitors member, for pre-sizing (names are seldom escaped).
fn monitors_room(frame: &Frame) -> usize {
    frame.monitors.iter().map(|(name, _)| name.len() + 32).sum()
}

/// JSON-encode a complete frame (mode `full`) stamped with the hub's
/// `epoch`.  This is the work the encode cache performs once per frame,
/// for the first poller that wants the full payload; the benchmark's
/// `hub.encode_full_ms` calls it directly to price the
/// per-client-encode alternative.
///
/// The image bytes are run-length compressed before base64 whenever that
/// shrinks them, signalled by `"codec":"rle"`; incompressible frames ship
/// raw with no `codec` field, so compression is never a regression.
pub fn encode_frame_full(frame: &Frame, epoch: u64) -> String {
    let packed = pack(&frame.image);
    let image = packed.as_deref().unwrap_or(&frame.image);
    let mut out =
        Vec::with_capacity(base64_len(image.len()) + monitors_room(frame) + ENVELOPE_ROOM);
    write_full(&mut out, frame, epoch, packed.is_some(), image);
    into_json(out)
}

/// The length of [`encode_frame_full`]'s output, computed without
/// producing it: the envelope around an empty body plus the base64 length
/// of the bytes that would ship.  The profitability rule weighs a delta
/// against this, so a frame polled only in delta mode never pays for its
/// full payload.
fn full_payload_len(frame: &Frame, epoch: u64) -> usize {
    let packed_len = rle::compress(&frame.image).len();
    let mut envelope = Vec::with_capacity(monitors_room(frame) + ENVELOPE_ROOM);
    write_full(
        &mut envelope,
        frame,
        epoch,
        packed_len < frame.image.len(),
        &[],
    );
    envelope.len() + base64_len(packed_len.min(frame.image.len()))
}

/// Recover the raw image bytes (RICSAIMG framing) carried by a full-frame
/// payload, undoing base64 and the optional `"codec":"rle"` compression.
/// The decoding inverse of [`encode_frame_full`]; `None` on a malformed
/// payload.  Tests and non-browser clients use this instead of assuming
/// the wire representation.
pub fn image_from_json(value: &serde_json::Value) -> Option<Vec<u8>> {
    let bytes = base64_decode(value.get("image_base64")?.as_str()?)?;
    match value.get("codec").and_then(|c| c.as_str()) {
        Some("rle") => rle::decompress(&bytes),
        Some(_) => None, // unknown codec: do not misread the bytes
        None => Some(bytes),
    }
}

/// JSON-encode a delta frame (mode `delta`) against `base_sequence`,
/// stamped with the hub's `epoch`.
///
/// Each tile's bytes are run-length compressed before base64 whenever that
/// shrinks them, marked per-tile with `"rle":true` — a tile of turbulent
/// pixels ships raw while its flat neighbours compress, so the delta is
/// never larger for having the codec available.
pub fn encode_frame_delta(
    frame: &Frame,
    epoch: u64,
    base_sequence: u64,
    delta: &FrameDelta,
) -> String {
    let tiles: Vec<&TilePatch> = delta.tiles.iter().collect();
    write_delta(frame, epoch, base_sequence, delta, &tiles)
}

/// [`encode_frame_delta`] over borrowed tiles: `grid` gives the geometry
/// (its own tiles are ignored), `tiles` the patches to ship, so a chain
/// copies each tile's pixels once, into the output.
fn write_delta(
    frame: &Frame,
    epoch: u64,
    base_sequence: u64,
    grid: &FrameDelta,
    tiles: &[&TilePatch],
) -> String {
    let bodies: usize = tiles
        .iter()
        .map(|t| base64_len(t.data.len()) + TILE_ROOM)
        .sum();
    let mut buffer = Vec::with_capacity(bodies + monitors_room(frame) + ENVELOPE_ROOM);
    let out = &mut buffer;
    put(out, "{\"base_sequence\":");
    put_value(out, &base_sequence);
    put(out, ",\"cycle\":");
    put_value(out, &frame.cycle);
    put(out, ",\"epoch\":");
    put_value(out, &epoch);
    put(out, ",\"height\":");
    put_value(out, &grid.height);
    put(out, ",\"mode\":\"delta\",\"monitors\":");
    put_value(out, &frame.monitors);
    put(out, ",\"sequence\":");
    put_value(out, &frame.sequence);
    put(out, ",\"tile\":");
    put_value(out, &grid.tile);
    put(out, ",\"tiles\":[");
    for (i, tile) in tiles.iter().enumerate() {
        let packed = pack(&tile.data);
        put(out, if i > 0 { ",{" } else { "{" });
        put(out, "\"data_base64\":\"");
        base64_extend(out, packed.as_deref().unwrap_or(&tile.data));
        put(out, "\",\"h\":");
        put_value(out, &tile.h);
        if packed.is_some() {
            put(out, ",\"rle\":true");
        }
        put(out, ",\"w\":");
        put_value(out, &tile.w);
        put(out, ",\"x\":");
        put_value(out, &tile.x);
        put(out, ",\"y\":");
        put_value(out, &tile.y);
        put(out, "}");
    }
    put(out, "],\"time\":");
    put_value(out, &frame.time);
    put(out, ",\"width\":");
    put_value(out, &grid.width);
    put(out, "}");
    into_json(buffer)
}

// ------------------------------------------------------------------- hub

/// One frame with its wire encodings, each made by the first poller that
/// needs it (`OnceLock`: racing pollers share one encode, late ones clone
/// the `Arc`).
struct CachedFrame {
    frame: Frame,
    /// Full-frame payload.
    full: OnceLock<Arc<str>>,
    /// Length of the full payload, for the profitability rule: read off
    /// `full` when that exists, computed without encoding otherwise.
    full_len: OnceLock<usize>,
    /// Delta payload against the immediately preceding sequence number;
    /// `None` for the first frame, after a resize or an undecodable image,
    /// or when the delta would not be meaningfully smaller than the full
    /// payload.
    delta: OnceLock<Option<Arc<str>>>,
    /// The raw (un-encoded) tile difference against the immediately
    /// preceding sequence, kept for chains — present even when the encoded
    /// single-step delta was discarded as unprofitable, since a chain
    /// containing this step may still win.
    delta_raw: Option<FrameDelta>,
}

/// An immutable snapshot of the published frames, replaced whole on every
/// publish.  A poller clones the current `Arc` under the ring's read guard
/// and resolves its payload against the snapshot with no lock held.
#[derive(Default)]
struct FrameRing {
    /// Retained frames in ascending, gap-free sequence order (cloning the
    /// ring clones `Arc`s, not payloads).  The last one is the head.
    frames: Vec<Arc<CachedFrame>>,
    /// The delta chains to the head, indexed by lag − 2 (a one-step delta
    /// lives in its frame's `delta`), each made by the first poller at
    /// that lag.  They belong to this snapshot, so a publish that replaces
    /// it frees them.
    chains: [OnceLock<Option<Arc<str>>>; MAX_DELTA_CHAIN as usize - 1],
}

/// A hub lock's guard, poisoned or not.  Poison is recovered, not
/// propagated: every hub critical section leaves its data valid at every
/// step (the ring's is one pointer swap), so one panicking thread must not
/// wedge every later publisher and poller.
fn recover<G>(lock: LockResult<G>) -> G {
    lock.unwrap_or_else(PoisonError::into_inner)
}

/// Everything a [`SessionHub`] handle points at.
struct HubInner {
    /// The read path: the current frame snapshot.  Readers hold the read
    /// guard for one `Arc` clone, a publish holds the write guard for one
    /// pointer swap.
    ring: RwLock<Arc<FrameRing>>,
    /// The publish path; pollers never take this.  Held for a whole
    /// publish, it makes "next sequence number, diff against the head,
    /// append to the ring" one step.  The value is the head frame's
    /// decoded image, kept so the next publish can diff against it
    /// without re-decoding (`None` before the first frame and after one
    /// whose image did not decode).
    publisher: Mutex<Option<Image>>,
    /// Frames retained in the ring.
    capacity: usize,
    /// Total encode passes (full + delta).
    encodes: AtomicU64,
    /// Instance marker stamped into every payload: a client holding state
    /// from a previous server incarnation sees the epoch change and knows
    /// its pixel buffer and `since` cursor are stale (a delta against
    /// another epoch must never be applied).  Immutable after creation.
    epoch: u64,
    /// Callbacks run after every publish, once the new ring snapshot is
    /// visible — the server wires the HTTP [`crate::Waker`] doorbell here.
    wake_hooks: Mutex<Vec<Box<dyn Fn() + Send + Sync>>>,
}

impl HubInner {
    /// The current frame snapshot.
    fn ring(&self) -> Arc<FrameRing> {
        Arc::clone(&*recover(self.ring.read()))
    }

    /// The full payload of `cached`, encoded on first demand.
    fn full(&self, cached: &CachedFrame) -> Arc<str> {
        cached
            .full
            .get_or_init(|| {
                self.encodes.fetch_add(1, Ordering::Relaxed);
                Arc::from(encode_frame_full(&cached.frame, self.epoch))
            })
            .clone()
    }

    /// The length of `cached`'s full payload, whether or not it exists.
    fn full_len(&self, cached: &CachedFrame) -> usize {
        *cached.full_len.get_or_init(|| match cached.full.get() {
            Some(full) => full.len(),
            None => full_payload_len(&cached.frame, self.epoch),
        })
    }

    /// A delta is worth shipping when it saves at least 10% of the full
    /// payload; when most of the screen changed it is not.
    fn profitable(&self, delta_json: &str, cached: &CachedFrame) -> bool {
        delta_json.len() * 10 <= self.full_len(cached) * 9
    }

    /// The delta payload carrying a client from `since` to the retained
    /// frame `to`: the tiles of steps `since+1..=to` merged into one slot
    /// per grid cell, the newest step winning — exactly the steps applied
    /// in order, and already in row-major order.  Encoded on first demand
    /// and memoised: one step in `to`'s own `delta`, a chain (whose `to` is
    /// the head) in the ring's `chains`.  `None` when a step is not
    /// retained or has no tile difference (the first frame, a resize, an
    /// undecodable image), when the chain is longer than
    /// [`MAX_DELTA_CHAIN`], or when the delta is not profitable.
    fn delta(&self, ring: &FrameRing, since: u64, to: u64) -> Option<Arc<str>> {
        // The ring is gap-free, so frame `s` sits at index `s - first`.
        let first = ring.frames.first()?.frame.sequence;
        let start = (since + 1).checked_sub(first)? as usize;
        let steps = ring.frames.get(start..=to.checked_sub(first)? as usize)?;
        let target = steps.last()?;
        let memo = match steps.len() {
            1 => &target.delta,
            lag => {
                debug_assert_eq!(to, ring.head(), "a chain ends at the head");
                ring.chains.get(lag - 2)?
            }
        };
        memo.get_or_init(|| {
            // Two consecutive present deltas share one geometry: each was
            // cut against its predecessor's decoded image.
            let grid = steps[0].delta_raw.as_ref()?;
            let cols = grid.width.div_ceil(grid.tile);
            let mut slots = vec![None; cols * grid.height.div_ceil(grid.tile)];
            for step in steps {
                for tile in &step.delta_raw.as_ref()?.tiles {
                    slots[tile.y / grid.tile * cols + tile.x / grid.tile] = Some(tile);
                }
            }
            let tiles: Vec<&TilePatch> = slots.into_iter().flatten().collect();
            self.encodes.fetch_add(1, Ordering::Relaxed);
            let json = write_delta(&target.frame, self.epoch, since, grid, &tiles);
            self.profitable(&json, target).then(|| Arc::from(json))
        })
        .clone()
    }
}

impl FrameRing {
    /// The oldest retained frame newer than `since`.
    fn first_after(&self, since: u64) -> Option<&Arc<CachedFrame>> {
        self.frames.iter().find(|c| c.frame.sequence > since)
    }

    /// The newest frame.
    fn newest(&self) -> Option<&Arc<CachedFrame>> {
        self.frames.last()
    }

    /// The newest frame's sequence number (0 before the first publish).
    fn head(&self) -> u64 {
        self.newest().map_or(0, |c| c.frame.sequence)
    }
}

/// A nanosecond clock reading folded into `[10^15, 9·10^15)`.  Two server
/// incarnations read different nanoseconds, so a restart shows; every
/// value prints as 16 digits, so a payload's length does not depend on
/// when its hub was created; and the range lies within f64's exact
/// integers (below 2^53) — JSON numbers, and the serde shim's `Value`, are
/// doubles, and a rounded epoch would defeat the restart detection it
/// exists for.
fn fresh_epoch() -> u64 {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos());
    1_000_000_000_000_000 + (nanos % 8_000_000_000_000_000) as u64
}

/// The frame hub shared between the visualization side and HTTP handlers.
#[derive(Clone)]
pub struct SessionHub {
    inner: Arc<HubInner>,
}

impl Default for SessionHub {
    fn default() -> Self {
        SessionHub::new(32)
    }
}

impl SessionHub {
    /// A hub retaining up to `capacity` recent frames.
    pub fn new(capacity: usize) -> Self {
        SessionHub {
            inner: Arc::new(HubInner {
                ring: RwLock::default(),
                publisher: Mutex::new(None),
                capacity: capacity.max(1),
                encodes: AtomicU64::new(0),
                epoch: fresh_epoch(),
                wake_hooks: Mutex::new(Vec::new()),
            }),
        }
    }

    /// Register a callback run after every publish, once the new frame is
    /// readable through the hub.  The readiness serving core registers the
    /// HTTP server's [`crate::Waker`] here, so parked long-polls are woken
    /// the moment a frame lands.  Hooks must be cheap and must not call
    /// back into the hub.
    pub fn add_wake_hook(&self, hook: impl Fn() + Send + Sync + 'static) {
        recover(self.inner.wake_hooks.lock()).push(Box::new(hook));
    }

    /// Publish a frame; it is assigned the next sequence number, which is
    /// returned.  Publish does the work that needs the predecessor — decode
    /// the image and cut the tile difference against the previous frame —
    /// and no encoding: each wire payload is made by the first poller that
    /// asks for it, once, no matter how many clients poll it, and a payload
    /// nobody asks for is never made.  The wake hooks run once the frame
    /// is readable.
    ///
    /// The whole publish is one critical section on the publisher lock.
    /// Pollers never take that lock (they read the previous ring snapshot
    /// while a frame is diffed), and concurrent publishers serialise, so
    /// every frame diffs against its true predecessor.
    pub fn publish(&self, mut frame: Frame) -> u64 {
        let inner = &*self.inner;
        let seq = {
            let mut last_image = recover(inner.publisher.lock());
            let ring = inner.ring();
            let seq = ring.head() + 1;
            frame.sequence = seq;

            let cur_image = Image::decode_raw(&frame.image);
            let delta_raw = last_image
                .as_ref()
                .zip(cur_image.as_ref())
                .and_then(|(prev_img, cur_img)| diff_images(prev_img, cur_img, DELTA_TILE));
            *last_image = cur_image;

            let mut frames = ring.frames.clone();
            frames.push(Arc::new(CachedFrame {
                frame,
                full: OnceLock::new(),
                full_len: OnceLock::new(),
                delta: OnceLock::new(),
                delta_raw,
            }));
            if frames.len() > inner.capacity {
                let excess = frames.len() - inner.capacity;
                frames.drain(..excess);
            }
            let next = Arc::new(FrameRing {
                frames,
                ..FrameRing::default()
            });
            // One pointer swap under the write guard; the displaced
            // snapshot is dropped once the guard is released.
            let displaced = std::mem::replace(&mut *recover(inner.ring.write()), next);
            drop(displaced);
            seq
        };

        for hook in recover(inner.wake_hooks.lock()).iter() {
            hook();
        }
        seq
    }

    /// The sequence number of the most recent published frame (0 if none
    /// yet).
    pub fn latest_sequence(&self) -> u64 {
        self.inner.ring().head()
    }

    /// The most recent frame, if any.
    pub fn latest_frame(&self) -> Option<Frame> {
        self.inner.ring().newest().map(|c| c.frame.clone())
    }

    /// The hub's instance marker, stamped into every payload (`epoch`
    /// field).  Clients must discard retained frame state when it changes:
    /// a delta from one epoch is meaningless against pixels of another.
    pub fn epoch(&self) -> u64 {
        self.inner.epoch
    }

    /// Total encode passes performed (full + delta), each on the first
    /// demand for that payload.  A frame costs at most one full and one
    /// single-step delta encode — nothing while nobody polls it, one when
    /// every poller asks for the same mode — plus at most one chain per
    /// lag in 2..=[`MAX_DELTA_CHAIN`] while it is the head.
    /// Grows with publishes, never with pollers: the invariant the encode
    /// cache exists to provide.
    pub fn encode_count(&self) -> u64 {
        self.inner.encodes.load(Ordering::Relaxed)
    }

    /// The full payload of the newest frame, if any.
    pub fn latest_payload(&self) -> Option<FramePayload> {
        self.inner.ring().newest().map(|cached| FramePayload {
            sequence: cached.frame.sequence,
            json: self.inner.full(cached),
            is_delta: false,
        })
    }

    /// The shared payload for a frame newer than `since`, without waiting.
    /// Resolves against the current ring snapshot; the first request for a
    /// payload encodes it, every later one clones the shared `Arc`.
    ///
    /// [`PollMode::Full`] always gets the oldest retained frame newer than
    /// `since`, as a full payload.  [`PollMode::Delta`] serves, in order of
    /// preference: the delta carrying the client straight to the newest
    /// frame when it is 1..=[`MAX_DELTA_CHAIN`] behind; the one-step delta
    /// to `since + 1`; the full frame otherwise — the newest one for a
    /// client further behind than a chain reaches.
    pub fn try_payload(&self, since: u64, mode: PollMode) -> Option<FramePayload> {
        let inner = &*self.inner;
        let ring = inner.ring();
        let mut cached = ring.first_after(since)?;
        if mode == PollMode::Delta {
            // first_after succeeded, so head > since.
            let head = ring.head();
            if head - since > MAX_DELTA_CHAIN {
                // Resync in one hop instead of replaying stale frames.
                cached = ring.newest()?;
            } else {
                for to in [head, since + 1] {
                    if let Some(json) = inner.delta(&ring, since, to) {
                        return Some(FramePayload {
                            sequence: to,
                            json,
                            is_delta: true,
                        });
                    }
                }
            }
        }
        Some(FramePayload {
            sequence: cached.frame.sequence,
            json: inner.full(cached),
            is_delta: false,
        })
    }
}

/// The steering requests posted by clients, latest wins: the simulation
/// side applies only the newest between cycles, so the inbox keeps that
/// one and a count of the posts since the last drain — a flood of posts
/// while nothing drains costs no memory.
#[derive(Clone, Default)]
pub struct SteeringInbox {
    /// The newest request, and the number of posts since the last drain.
    pending: Arc<Mutex<(Option<SteerableParams>, usize)>>,
}

impl SteeringInbox {
    /// An empty inbox.
    pub fn new() -> Self {
        SteeringInbox::default()
    }

    /// Post a steering request (from an HTTP handler).
    pub fn post(&self, params: SteerableParams) {
        let mut pending = recover(self.pending.lock());
        *pending = (Some(params), pending.1 + 1);
    }

    /// Drain all pending requests (from the simulation loop); the last one
    /// wins when several arrived between cycles.
    pub fn drain_latest(&self) -> Option<SteerableParams> {
        std::mem::take(&mut *recover(self.pending.lock())).0
    }

    /// Number of requests posted since the last drain.
    pub fn len(&self) -> usize {
        recover(self.pending.lock()).1
    }

    /// Whether no request is pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_netsim::rng::SimRng;
    use std::time::{Duration, Instant};

    fn frame(cycle: u64) -> Frame {
        Frame {
            sequence: 0,
            cycle,
            time: cycle as f64 * 0.1,
            image: Image::filled(8, 8, [cycle as u8, 2, 3, 255]).encode_raw(),
            monitors: vec![("max_pressure".into(), 1.5)],
        }
    }

    /// Spin on a full-mode `try_payload` until a frame newer than `since`
    /// is readable.  It yields between tries, so on one CPU the publisher
    /// gets to run, and it panics past `deadline`, so a lost frame fails
    /// the test instead of hanging it.
    fn next_payload(hub: &SessionHub, since: u64, deadline: Instant) -> FramePayload {
        loop {
            if let Some(payload) = hub.try_payload(since, PollMode::Full) {
                return payload;
            }
            assert!(Instant::now() < deadline, "no frame after {since} in time");
            std::thread::yield_now();
        }
    }

    /// An image of seeded random pixels — incompressible, so wire-size
    /// assertions measure the delta machinery rather than the RLE codec.
    fn noisy_image(rng: &mut SimRng, w: usize, h: usize) -> Image {
        let mut img = Image::new(w, h);
        for p in img.pixels.iter_mut() {
            *p = rng.index(256) as u8;
        }
        img
    }

    // The encoders as they were before the direct writers: build a
    // `Value` tree, pixel body included, and print it.  Kept as the
    // reference the writers must match byte for byte.

    fn frame_header_json(frame: &Frame, epoch: u64) -> serde_json::Value {
        serde_json::json!({
            "sequence": frame.sequence,
            "cycle": frame.cycle,
            "time": frame.time,
            "monitors": frame.monitors,
            "epoch": epoch,
        })
    }

    fn reference_encode_full(frame: &Frame, epoch: u64) -> String {
        let mut value = frame_header_json(frame, epoch);
        if let serde_json::Value::Object(map) = &mut value {
            map.insert("mode".into(), serde_json::json!("full"));
            let packed = rle::compress(&frame.image);
            if packed.len() < frame.image.len() {
                map.insert("codec".into(), serde_json::json!("rle"));
                map.insert(
                    "image_base64".into(),
                    serde_json::json!(base64_encode(&packed)),
                );
            } else {
                map.insert(
                    "image_base64".into(),
                    serde_json::json!(base64_encode(&frame.image)),
                );
            }
        }
        value.to_string()
    }

    fn reference_encode_delta(
        frame: &Frame,
        epoch: u64,
        base_sequence: u64,
        delta: &FrameDelta,
    ) -> String {
        let tiles: Vec<serde_json::Value> = delta
            .tiles
            .iter()
            .map(|t| {
                let packed = rle::compress(&t.data);
                if packed.len() < t.data.len() {
                    serde_json::json!({
                        "x": t.x,
                        "y": t.y,
                        "w": t.w,
                        "h": t.h,
                        "rle": true,
                        "data_base64": base64_encode(&packed),
                    })
                } else {
                    serde_json::json!({
                        "x": t.x,
                        "y": t.y,
                        "w": t.w,
                        "h": t.h,
                        "data_base64": base64_encode(&t.data),
                    })
                }
            })
            .collect();
        let mut value = frame_header_json(frame, epoch);
        if let serde_json::Value::Object(map) = &mut value {
            map.insert("mode".into(), serde_json::json!("delta"));
            map.insert("base_sequence".into(), serde_json::json!(base_sequence));
            map.insert("width".into(), serde_json::json!(delta.width));
            map.insert("height".into(), serde_json::json!(delta.height));
            map.insert("tile".into(), serde_json::json!(delta.tile));
            map.insert("tiles".into(), serde_json::Value::Array(tiles));
        }
        value.to_string()
    }

    #[test]
    fn direct_writers_are_byte_identical_to_the_value_tree_encoders() {
        let mut rng = SimRng::new(0x1D);
        let monitor_sets: Vec<Vec<(String, f64)>> = vec![
            vec![],
            vec![("max_pressure".into(), 1.5), ("step".into(), 12.0)],
            vec![
                ("quote\"back\\slash".into(), -0.25),
                ("line\nbreak\ttab".into(), 1e-9),
                ("control\u{1}byte\u{8}\u{c}\r".into(), 3.0e20),
                ("ünï©ode €😀".into(), 0.1 + 0.2),
                ("nan".into(), f64::NAN),
                ("inf".into(), f64::NEG_INFINITY),
                (String::new(), -0.0),
            ],
        ];
        // Flat, noisy and half-and-half images; 1×1, tile multiples and
        // sizes that leave partial tiles at both edges.
        let sizes = [
            (1, 1),
            (3, 2),
            (32, 32),
            (64, 96),
            (33, 31),
            (70, 45),
            (100, 7),
        ];
        let mut case = 0u64;
        for &(w, h) in &sizes {
            let flat = Image::filled(w, h, [10, 20, 30, 255]);
            let noisy = noisy_image(&mut rng, w, h);
            let mut mixed = flat.clone();
            for y in 0..h {
                for x in w / 2..w {
                    mixed.set(x, y, noisy.get(x, y));
                }
            }
            let images = [flat, noisy, mixed];
            for cur in &images {
                for prev in &images {
                    case += 1;
                    let f = Frame {
                        // Past 2^53 a number leaves the integer form.
                        sequence: if case.is_multiple_of(7) {
                            u64::MAX - case
                        } else {
                            case
                        },
                        cycle: case * 3,
                        time: case as f64 * 0.037,
                        image: cur.encode_raw(),
                        monitors: monitor_sets[case as usize % monitor_sets.len()].clone(),
                    };
                    let epoch = 1_000_000_000_000_000 + case;
                    let full = encode_frame_full(&f, epoch);
                    assert_eq!(full, reference_encode_full(&f, epoch), "full, case {case}");
                    assert_eq!(
                        full_payload_len(&f, epoch),
                        full.len(),
                        "computed full length, case {case}"
                    );
                    // prev == cur gives the empty delta, flat against noisy
                    // every tile, mixed against either about half of them.
                    let delta = diff_images(prev, cur, DELTA_TILE).unwrap();
                    assert_eq!(
                        encode_frame_delta(&f, epoch, case - 1, &delta),
                        reference_encode_delta(&f, epoch, case - 1, &delta),
                        "delta, case {case}"
                    );
                }
            }
        }
        // Many tiles: a small grid over a larger frame.
        let prev = noisy_image(&mut rng, 120, 90);
        let cur = noisy_image(&mut rng, 120, 90);
        let delta = diff_images(&prev, &cur, 8).unwrap();
        assert_eq!(delta.tiles.len(), 15 * 12);
        let f = Frame {
            image: cur.encode_raw(),
            ..frame(9)
        };
        assert_eq!(
            encode_frame_delta(&f, 7, 8, &delta),
            reference_encode_delta(&f, 7, 8, &delta)
        );
    }

    #[test]
    fn publish_assigns_increasing_sequence_numbers() {
        let hub = SessionHub::new(4);
        assert_eq!(hub.latest_sequence(), 0);
        assert!(hub.latest_frame().is_none());
        assert_eq!(hub.publish(frame(1)), 1);
        assert_eq!(hub.publish(frame(2)), 2);
        assert_eq!(hub.latest_sequence(), 2);
        assert_eq!(hub.latest_frame().unwrap().cycle, 2);
    }

    #[test]
    fn poll_returns_only_newer_frames_and_respects_capacity() {
        let hub = SessionHub::new(2);
        for c in 1..=5 {
            hub.publish(frame(c));
        }
        // Capacity 2: only frames 4 and 5 are retained.
        let p = hub.try_payload(0, PollMode::Full).unwrap();
        assert_eq!(p.sequence, 4);
        let p = hub.try_payload(p.sequence, PollMode::Full).unwrap();
        assert_eq!(p.sequence, 5);
        // Nothing newer than 5.
        assert!(hub.try_payload(p.sequence, PollMode::Full).is_none());
    }

    #[test]
    fn payloads_are_encoded_once_and_shared_across_pollers() {
        let hub = SessionHub::new(8);
        hub.publish(frame(1));
        assert_eq!(hub.encode_count(), 0, "publishing must not encode");
        let first = hub.try_payload(0, PollMode::Full).unwrap();
        assert_eq!(hub.encode_count(), 1, "the first poll encodes");
        for _ in 0..100 {
            let p = hub.try_payload(0, PollMode::Full).unwrap();
            assert!(Arc::ptr_eq(&p.json, &first.json), "same shared allocation");
        }
        assert_eq!(hub.encode_count(), 1, "later polls must not encode");
        let value: serde_json::Value = serde_json::from_str(&first.json).unwrap();
        assert_eq!(value["sequence"], 1);
        assert_eq!(value["mode"], "full");
    }

    #[test]
    fn delta_mode_serves_tiles_to_caught_up_pollers_and_full_to_laggards() {
        let hub = SessionHub::new(8);
        let mut img = Image::filled(64, 64, [10, 20, 30, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(1)
        });
        // Change one pixel: exactly one tile differs.
        img.set(5, 5, [200, 0, 0, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(2)
        });

        let caught_up = hub.try_payload(1, PollMode::Delta).unwrap();
        assert!(caught_up.is_delta);
        let value: serde_json::Value = serde_json::from_str(&caught_up.json).unwrap();
        assert_eq!(value["mode"], "delta");
        assert_eq!(value["base_sequence"], 1);
        assert_eq!(value["tiles"].as_array().unwrap().len(), 1);

        // A poller two frames behind gets the full frame even in delta mode.
        let laggard = hub.try_payload(0, PollMode::Delta).unwrap();
        assert!(!laggard.is_delta);
        // Full mode never serves deltas.
        assert!(!hub.try_payload(1, PollMode::Full).unwrap().is_delta);
    }

    #[test]
    fn delta_is_smaller_on_wire_and_skipped_when_not() {
        let mut rng = SimRng::new(0xBEEF);
        let hub = SessionHub::new(8);
        let base = noisy_image(&mut rng, 64, 64);
        hub.publish(Frame {
            image: base.encode_raw(),
            ..frame(1)
        });
        let mut small_change = base.clone();
        small_change.set(0, 0, [9, 9, 9, 255]);
        hub.publish(Frame {
            image: small_change.encode_raw(),
            ..frame(2)
        });
        let delta = hub.try_payload(1, PollMode::Delta).unwrap();
        let full = hub.try_payload(1, PollMode::Full).unwrap();
        assert!(delta.is_delta);
        assert!(
            delta.json.len() < full.json.len() / 3,
            "one-tile delta should be far smaller than the full frame"
        );
        // Now replace every pixel with fresh noise: the delta covers the
        // whole screen plus per-tile overhead, so the hub falls back to
        // full.
        hub.publish(Frame {
            image: noisy_image(&mut rng, 64, 64).encode_raw(),
            ..frame(3)
        });
        assert!(!hub.try_payload(2, PollMode::Delta).unwrap().is_delta);
    }

    #[test]
    fn full_payload_rle_codec_shrinks_flat_frames_and_round_trips() {
        // A flat frame is dominated by one pixel run: the payload must be
        // marked codec=rle, be far smaller than the raw bytes, and decode
        // back bit-for-bit via image_from_json.
        let flat = Frame {
            sequence: 1,
            cycle: 1,
            time: 0.1,
            image: Image::filled(64, 64, [10, 20, 30, 255]).encode_raw(),
            monitors: vec![],
        };
        let json = encode_frame_full(&flat, 7);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert_eq!(value["codec"], "rle");
        assert_eq!(image_from_json(&value).unwrap(), flat.image);
        assert!(
            json.len() < flat.image.len() / 4,
            "flat frame must compress well: {} -> {}",
            flat.image.len(),
            json.len()
        );

        // Incompressible frames ship raw — no codec field, never larger.
        let mut rng = SimRng::new(11);
        let noisy = Frame {
            image: noisy_image(&mut rng, 32, 32).encode_raw(),
            ..flat
        };
        let json = encode_frame_full(&noisy, 7);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        assert!(value.get("codec").is_none());
        assert_eq!(image_from_json(&value).unwrap(), noisy.image);
    }

    #[test]
    fn delta_tiles_rle_compress_flat_tiles_and_decode_exactly() {
        // A one-pixel change in a flat region: the changed tile is mostly
        // one run, so it ships rle-marked, and delta_from_json must undo
        // the compression transparently.
        let prev = Image::filled(64, 64, [5, 6, 7, 255]);
        let mut cur = prev.clone();
        cur.set(40, 9, [1, 2, 3, 4]);
        let delta = diff_images(&prev, &cur, DELTA_TILE).unwrap();
        let f = Frame {
            sequence: 2,
            cycle: 2,
            time: 0.2,
            image: cur.encode_raw(),
            monitors: vec![],
        };
        let json = encode_frame_delta(&f, 7, 1, &delta);
        let value: serde_json::Value = serde_json::from_str(&json).unwrap();
        let tiles = value["tiles"].as_array().unwrap();
        assert_eq!(tiles.len(), 1);
        assert_eq!(tiles[0]["rle"], true);
        let (base, wire) = delta_from_json(&value).unwrap();
        assert_eq!(base, 1);
        assert_eq!(apply_delta(&prev, &wire), cur);
    }

    #[test]
    fn delta_from_json_rejects_tiles_apply_delta_cannot_apply() {
        // A 64×48 delta with one tile of `bytes` bytes at (x, y), size w×h,
        // on a grid of edge `tile`.
        let delta = |tile: usize, (x, y, w, h): (usize, usize, usize, usize), bytes: usize| {
            let patch = serde_json::json!({
                "x": x, "y": y, "w": w, "h": h,
                "data_base64": base64_encode(&vec![9; bytes]),
            });
            serde_json::json!({
                "mode": "delta", "base_sequence": 1, "width": 64, "height": 48,
                "tile": tile, "tiles": [patch],
            })
        };
        let whole = 32 * 16 * 4;
        let (_, wire) = delta_from_json(&delta(32, (32, 32, 32, 16), whole)).unwrap();
        let applied = apply_delta(&Image::new(64, 48), &wire);
        assert_eq!(applied.get(63, 47), [9; 4]);
        for (what, bad) in [
            ("short data", delta(32, (32, 32, 32, 16), whole - 4)),
            ("long data", delta(32, (32, 32, 32, 16), whole + 4)),
            ("past the right edge", delta(32, (40, 32, 32, 16), whole)),
            ("past the bottom edge", delta(32, (32, 40, 32, 16), whole)),
            ("rectangle overflow", delta(32, (1 << 63, 0, 1 << 63, 1), 4)),
            ("zero tile edge", delta(0, (32, 32, 32, 16), whole)),
        ] {
            assert!(delta_from_json(&bad).is_none(), "{what} was accepted");
        }
    }

    #[test]
    fn delta_reconstruction_is_exact_on_random_frames() {
        // Property test: for seeded random frame pairs, shipping the delta
        // and applying it client-side reproduces the full frame exactly —
        // including the JSON/base64 wire round trip.
        let mut rng = SimRng::new(0xD31A);
        for case in 0..40 {
            let (w, h) = (1 + rng.index(70), 1 + rng.index(50));
            let mut prev = Image::new(w, h);
            for p in prev.pixels.iter_mut() {
                *p = rng.index(256) as u8;
            }
            let mut cur = prev.clone();
            // Sparse random edits (possibly none).
            let edits = rng.index(40);
            for _ in 0..edits {
                let x = rng.index(w);
                let y = rng.index(h);
                cur.set(x, y, [rng.index(256) as u8, 0, 255, 1]);
            }
            let delta = diff_images(&prev, &cur, DELTA_TILE).unwrap();
            assert_eq!(apply_delta(&prev, &delta), cur, "case {case}: direct");

            // Through the wire: encode, parse, decode, apply.
            let f = Frame {
                sequence: 2,
                cycle: 2,
                time: 0.2,
                image: cur.encode_raw(),
                monitors: vec![],
            };
            let json = encode_frame_delta(&f, 7, 1, &delta);
            let value: serde_json::Value = serde_json::from_str(&json).unwrap();
            let (base, wire_delta) = delta_from_json(&value).unwrap();
            assert_eq!(base, 1);
            assert_eq!(
                apply_delta(&prev, &wire_delta),
                cur,
                "case {case}: via JSON wire"
            );
        }
    }

    /// Publish a run of frames with sparse edits confined to the first two
    /// tiles, returning the image history indexed by `sequence - 1`.
    fn publish_chain(hub: &SessionHub, rng: &mut SimRng, steps: u64) -> Vec<Image> {
        let (w, h) = (96, 64);
        let mut img = noisy_image(rng, w, h);
        let mut history = Vec::new();
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(0)
        });
        history.push(img.clone());
        for c in 1..=steps {
            // Sparse edits inside the first two tiles of the grid: each
            // per-step delta stays small relative to the (noisy,
            // incompressible) full frame, so deltas and compositions pass
            // the profitability filter.
            for _ in 0..6 {
                let x = rng.index(2 * DELTA_TILE);
                let y = rng.index(DELTA_TILE);
                img.set(x, y, [rng.index(256) as u8, 1, 2, 255]);
            }
            hub.publish(Frame {
                image: img.encode_raw(),
                ..frame(c)
            });
            history.push(img.clone());
        }
        history
    }

    #[test]
    fn composed_delta_chains_reconstruct_the_head_frame_exactly() {
        // Property test: a client `lag` frames behind receives one merged
        // delta jumping it straight to the head; applying that delta to
        // its retained pixels must reproduce the head frame bit-for-bit,
        // for every lag in 2..=MAX_DELTA_CHAIN — i.e. composing k per-step
        // deltas is exactly equivalent to applying them one by one.
        let mut rng = SimRng::new(0xC0FFEE);
        let hub = SessionHub::new(32);
        let history = publish_chain(&hub, &mut rng, MAX_DELTA_CHAIN + 2);
        let head = hub.latest_sequence();
        for lag in 2..=MAX_DELTA_CHAIN {
            let since = head - lag;
            let payload = hub.try_payload(since, PollMode::Delta).unwrap();
            assert!(payload.is_delta, "lag {lag} should compose a delta");
            assert_eq!(payload.sequence, head, "a composition jumps to head");
            let value: serde_json::Value = serde_json::from_str(&payload.json).unwrap();
            let (base, wire) = delta_from_json(&value).unwrap();
            assert_eq!(base, since, "delta is based on the client's pixels");
            assert_eq!(
                apply_delta(&history[since as usize - 1], &wire),
                history[head as usize - 1],
                "lag {lag}: composed chain must equal the head frame"
            );
        }
        // Beyond MAX_DELTA_CHAIN the hub ships a full frame instead.
        let far = hub
            .try_payload(head - MAX_DELTA_CHAIN - 1, PollMode::Delta)
            .unwrap();
        assert!(!far.is_delta, "over-long chains fall back to full");
    }

    #[test]
    fn composed_deltas_are_encoded_once_and_shared_across_pollers() {
        let mut rng = SimRng::new(0xFACE);
        let hub = SessionHub::new(32);
        publish_chain(&hub, &mut rng, 5);
        let head = hub.latest_sequence();
        let since = head - 3;
        let first = hub.try_payload(since, PollMode::Delta).unwrap();
        assert!(first.is_delta);
        let encodes = hub.encode_count();
        for _ in 0..50 {
            let p = hub.try_payload(since, PollMode::Delta).unwrap();
            assert!(Arc::ptr_eq(&p.json, &first.json), "same shared composition");
        }
        assert_eq!(
            hub.encode_count(),
            encodes,
            "repeat compositions must hit the cache, not re-encode"
        );
    }

    #[test]
    fn encodes_follow_demand_one_per_frame_and_mode_polled() {
        const FRAMES: u64 = 12;
        let mut rng = SimRng::new(0xDE3A);
        // A delta-only client in step with the publisher, as the embedded
        // page is: frame 1 has no predecessor and ships full, every later
        // frame ships its delta, and no full payload is ever made for them.
        let delta_hub = SessionHub::new(32);
        // A full-only client of the same frames never causes a delta.
        let full_hub = SessionHub::new(32);
        // And frames nobody polls cost nothing.
        let idle_hub = SessionHub::new(32);
        let mut img = noisy_image(&mut rng, 96, 64);
        for step in 1..=FRAMES {
            img.set(step as usize, 3, [step as u8, 1, 2, 255]);
            let next = Frame {
                image: img.encode_raw(),
                ..frame(step)
            };
            for hub in [&delta_hub, &full_hub, &idle_hub] {
                assert_eq!(hub.publish(next.clone()), step);
            }
            let delta = delta_hub.try_payload(step - 1, PollMode::Delta).unwrap();
            assert_eq!(delta.is_delta, step > 1);
            assert_eq!(delta_hub.encode_count(), step);
            let full = full_hub.try_payload(step - 1, PollMode::Full).unwrap();
            assert!(!full.is_delta);
            assert_eq!(full_hub.encode_count(), step);
        }
        assert_eq!(idle_hub.encode_count(), 0);
        // The profitability verdict did not need the full payload: asking
        // for it now is the first time it is made.
        delta_hub.try_payload(FRAMES - 1, PollMode::Full).unwrap();
        assert_eq!(delta_hub.encode_count(), FRAMES + 1);
    }

    #[test]
    fn an_unprofitable_delta_costs_its_encode_and_the_full_one() {
        let mut rng = SimRng::new(0x0FF);
        let hub = SessionHub::new(4);
        for c in 1..=2 {
            hub.publish(Frame {
                image: noisy_image(&mut rng, 64, 64).encode_raw(),
                ..frame(c)
            });
        }
        let first = hub.try_payload(1, PollMode::Delta).unwrap();
        assert!(!first.is_delta, "every tile changed: the full frame ships");
        assert_eq!(hub.encode_count(), 2);
        let again = hub.try_payload(1, PollMode::Delta).unwrap();
        assert!(Arc::ptr_eq(&again.json, &first.json));
        assert_eq!(hub.encode_count(), 2, "the verdict is remembered");
    }

    #[test]
    fn pollers_racing_for_a_first_payload_share_one_encode() {
        const POLLERS: usize = 8;
        let mut rng = SimRng::new(0x8ACE);
        let hub = SessionHub::new(4);
        let mut img = noisy_image(&mut rng, 128, 128);
        for c in 1..=2 {
            img.set(c as usize, 0, [c as u8, 0, 0, 255]);
            hub.publish(Frame {
                image: img.encode_raw(),
                ..frame(c)
            });
        }
        for (mode, expect_delta, encodes) in
            [(PollMode::Full, false, 1), (PollMode::Delta, true, 2)]
        {
            let barrier = Arc::new(std::sync::Barrier::new(POLLERS));
            let racers: Vec<_> = (0..POLLERS)
                .map(|_| {
                    let (hub, barrier) = (hub.clone(), barrier.clone());
                    std::thread::spawn(move || {
                        barrier.wait();
                        hub.try_payload(1, mode).unwrap()
                    })
                })
                .collect();
            let payloads: Vec<FramePayload> =
                racers.into_iter().map(|r| r.join().unwrap()).collect();
            for p in &payloads {
                assert_eq!(p.is_delta, expect_delta);
                assert!(Arc::ptr_eq(&p.json, &payloads[0].json), "one shared encode");
            }
            assert_eq!(hub.encode_count(), encodes);
        }
    }

    #[test]
    fn payload_lengths_do_not_depend_on_the_hub_instance() {
        // The epoch always prints 16 digits, so two incarnations serving
        // the same frames put the same number of bytes on the wire.
        let mut rng = SimRng::new(0xE90C);
        let hubs = [SessionHub::new(16), SessionHub::new(16)];
        for hub in &hubs {
            let epoch = hub.epoch();
            assert_eq!(epoch.to_string().len(), 16, "epoch {epoch}");
            assert!(epoch < 1 << 53, "exact as a JSON double");
        }
        let mut img = noisy_image(&mut rng, 96, 64);
        for step in 1..=4u64 {
            img.set(step as usize, 5, [step as u8, 9, 9, 255]);
            for hub in &hubs {
                hub.publish(Frame {
                    image: img.encode_raw(),
                    ..frame(step)
                });
            }
        }
        let head = hubs[0].latest_sequence();
        let polls = [
            (0, PollMode::Full),
            (head - 1, PollMode::Full),
            (head - 1, PollMode::Delta),
            (head - 3, PollMode::Delta),
        ];
        for (since, mode) in polls {
            let [a, b] = hubs
                .each_ref()
                .map(|hub| hub.try_payload(since, mode).unwrap());
            assert_eq!(a.is_delta, b.is_delta);
            assert_eq!(a.json.len(), b.json.len(), "since {since}, {mode:?}");
        }
        let [a, b] = hubs.each_ref().map(|hub| hub.latest_payload().unwrap());
        assert_eq!(a.json.len(), b.json.len());
    }

    #[test]
    fn wake_hooks_run_after_every_publish() {
        let hub = SessionHub::new(4);
        let hits = Arc::new(AtomicU64::new(0));
        let hub2 = hub.clone();
        let hits2 = hits.clone();
        hub.add_wake_hook(move || {
            // The new frame must already be readable when the hook runs —
            // the readiness Waker contract (ring the bell only after the
            // frame is observable).
            assert!(hub2.latest_sequence() >= 1);
            hits2.fetch_add(1, Ordering::SeqCst);
        });
        hub.publish(frame(1));
        hub.publish(frame(2));
        assert_eq!(hits.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn diff_rejects_resizes_and_identical_frames_have_empty_deltas() {
        let a = Image::filled(8, 8, [1, 1, 1, 1]);
        let b = Image::filled(16, 8, [1, 1, 1, 1]);
        assert!(diff_images(&a, &b, DELTA_TILE).is_none());
        let d = diff_images(&a, &a, DELTA_TILE).unwrap();
        assert!(d.tiles.is_empty());
        assert_eq!(apply_delta(&a, &d), a);
    }

    #[test]
    fn base64_round_trips_and_matches_known_vectors() {
        assert_eq!(base64_encode(b""), "");
        assert_eq!(base64_encode(b"f"), "Zg==");
        assert_eq!(base64_encode(b"fo"), "Zm8=");
        assert_eq!(base64_encode(b"foo"), "Zm9v");
        assert_eq!(base64_encode(b"foobar"), "Zm9vYmFy");
        assert_eq!(base64_decode("Zm9vYmFy").unwrap(), b"foobar");
        assert_eq!(base64_decode("Zg==").unwrap(), b"f");
        assert_eq!(base64_decode("Zm8=").unwrap(), b"fo");
        assert_eq!(base64_decode("").unwrap(), b"");
        assert!(base64_decode("Zg=").is_none());
        assert!(base64_decode("Z!==").is_none());
        // `=` pads the end of the text and nothing else.
        for interior in [
            "Z=g=", "=Zg=", "Z===", "====", "Zg==Zm9v", "Zm8=Zm9v", "Zm9vZ=8=",
        ] {
            assert!(base64_decode(interior).is_none(), "{interior}");
        }
        assert!(base64_decode("Zm9vZ\u{e9}v").is_none(), "non-ASCII");
        let mut rng = SimRng::new(7);
        for n in 0..=1000 {
            let data: Vec<u8> = (0..n).map(|_| rng.index(256) as u8).collect();
            let text = base64_encode(&data);
            assert_eq!(text.len(), base64_len(n));
            assert_eq!(base64_decode(&text).unwrap(), data);
        }
    }

    #[test]
    fn racing_pollers_see_every_sequence_exactly_once() {
        // Many pollers race one publisher; capacity exceeds the frame
        // count, so every poller must observe 1..=N with no loss and no
        // duplication.
        const FRAMES: u64 = 200;
        const POLLERS: usize = 8;
        let hub = SessionHub::new(FRAMES as usize + 1);
        let pollers: Vec<_> = (0..POLLERS)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    let mut seen = Vec::new();
                    let mut since = 0;
                    while since < FRAMES {
                        since = next_payload(&hub, since, deadline).sequence;
                        seen.push(since);
                    }
                    seen
                })
            })
            .collect();
        let publisher = {
            let hub = hub.clone();
            std::thread::spawn(move || {
                for c in 1..=FRAMES {
                    hub.publish(frame(c));
                    if c.is_multiple_of(50) {
                        std::thread::sleep(Duration::from_millis(1));
                    }
                }
            })
        };
        publisher.join().unwrap();
        for poller in pollers {
            let seen = poller.join().unwrap();
            let expected: Vec<u64> = (1..=FRAMES).collect();
            assert_eq!(seen, expected, "no lost or duplicated sequence numbers");
        }
        // Every poller pulled every frame's full payload: one encode per
        // frame, whichever poller got there first, and no delta encode
        // since nobody asked for one.
        assert_eq!(hub.encode_count(), FRAMES);
    }

    #[test]
    fn payloads_are_stamped_with_the_hub_epoch() {
        // The epoch marks the server incarnation: a client must be able to
        // detect a restart and discard retained pixels before applying a
        // delta from the wrong epoch.
        let hub = SessionHub::new(4);
        let epoch = hub.epoch();
        assert!(epoch > 0);
        let mut img = Image::filled(64, 64, [9, 9, 9, 255]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(1)
        });
        img.set(0, 0, [1, 2, 3, 4]);
        hub.publish(Frame {
            image: img.encode_raw(),
            ..frame(2)
        });
        for (since, mode) in [(0, PollMode::Full), (1, PollMode::Delta)] {
            let payload = hub.try_payload(since, mode).unwrap();
            let value: serde_json::Value = serde_json::from_str(&payload.json).unwrap();
            assert_eq!(value["epoch"].as_u64(), Some(epoch));
        }
    }

    #[test]
    fn racing_publishers_keep_the_frame_cache_ordered() {
        // Two publishers into one hub serialise on the publisher lock; the
        // cache must come out in sequence order so pollers walk it
        // monotonically.
        const PER_PUBLISHER: u64 = 100;
        let hub = SessionHub::new(2 * PER_PUBLISHER as usize + 1);
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    for c in 0..PER_PUBLISHER {
                        hub.publish(frame(c));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        assert_eq!(hub.latest_sequence(), 2 * PER_PUBLISHER);
        let mut since = 0;
        while let Some(p) = hub.try_payload(since, PollMode::Full) {
            assert_eq!(p.sequence, since + 1, "cache must be gap-free and ordered");
            since = p.sequence;
        }
        assert_eq!(since, 2 * PER_PUBLISHER);
    }

    #[test]
    fn pollers_never_skip_frames_while_publishers_race() {
        // With two publishers racing, frame N+1 must never become readable
        // before N, or a live poller would advance past N and lose it.
        // Pollers run *during* the race and assert strict gap-free
        // delivery.
        const PER_PUBLISHER: u64 = 150;
        let hub = SessionHub::new(2 * PER_PUBLISHER as usize + 1);
        let pollers: Vec<_> = (0..4)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    let deadline = Instant::now() + Duration::from_secs(10);
                    let mut since = 0;
                    while since < 2 * PER_PUBLISHER {
                        let p = next_payload(&hub, since, deadline);
                        assert_eq!(
                            p.sequence,
                            since + 1,
                            "a frame was skipped while publishers raced"
                        );
                        since = p.sequence;
                    }
                })
            })
            .collect();
        let publishers: Vec<_> = (0..2)
            .map(|_| {
                let hub = hub.clone();
                std::thread::spawn(move || {
                    for c in 0..PER_PUBLISHER {
                        hub.publish(frame(c));
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        for p in pollers {
            p.join().unwrap();
        }
    }

    #[test]
    fn racing_publishers_keep_their_deltas() {
        // Two threads publish same-size frames with a small moving change
        // into one hub, released together by a barrier each round.  Every
        // frame must diff against its true predecessor, whichever thread
        // published that: after each round the head is served as a
        // single-step delta and the frame before it as part of a 2-step
        // chain, and at the end a 4-step chain through frames of both
        // publishers reconstructs the head exactly.
        const ROUNDS: u64 = 20;
        let mut rng = SimRng::new(0x2ACE);
        let base = noisy_image(&mut rng, 96, 64);
        let hub = SessionHub::new(2 * ROUNDS as usize);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let publishers: Vec<_> = (0..2u64)
            .map(|who| {
                let (hub, base, barrier) = (hub.clone(), base.clone(), barrier.clone());
                std::thread::spawn(move || {
                    for round in 1..=ROUNDS {
                        let mut img = base.clone();
                        img.set(
                            (2 * round + who) as usize,
                            3,
                            [round as u8, who as u8, 7, 255],
                        );
                        let next = Frame {
                            image: img.encode_raw(),
                            ..frame(round)
                        };
                        barrier.wait();
                        hub.publish(next);
                        barrier.wait();
                        if who == 0 {
                            // The other thread is held at the next round's
                            // barrier until these checks are done.
                            let head = hub.latest_sequence();
                            assert_eq!(head, 2 * round);
                            // Frame 1 has no predecessor, so no chain
                            // starts before it.
                            for since in (head - 2).max(1)..head {
                                let p = hub.try_payload(since, PollMode::Delta).unwrap();
                                assert_eq!(p.sequence, head);
                                assert!(
                                    p.is_delta,
                                    "a frame in {}..={head} lost its delta to the race",
                                    since + 1
                                );
                            }
                        }
                    }
                })
            })
            .collect();
        for p in publishers {
            p.join().unwrap();
        }
        let head = 2 * ROUNDS;
        let image_at = |seq: u64| {
            let full = hub.try_payload(seq - 1, PollMode::Full).unwrap();
            assert_eq!(full.sequence, seq);
            let value: serde_json::Value = serde_json::from_str(&full.json).unwrap();
            Image::decode_raw(&image_from_json(&value).unwrap()).unwrap()
        };
        let chain = hub.try_payload(head - 4, PollMode::Delta).unwrap();
        assert!(chain.is_delta, "a 4-step chain must compose");
        assert_eq!(chain.sequence, head);
        let value: serde_json::Value = serde_json::from_str(&chain.json).unwrap();
        let (since, delta) = delta_from_json(&value).unwrap();
        assert_eq!(since, head - 4);
        assert_eq!(apply_delta(&image_at(since), &delta), image_at(head));
    }

    #[test]
    fn steering_inbox_keeps_the_latest_request() {
        let inbox = SteeringInbox::new();
        assert!(inbox.is_empty());
        assert!(inbox.drain_latest().is_none());
        inbox.post(SteerableParams {
            cfl: 0.1,
            ..SteerableParams::default()
        });
        inbox.post(SteerableParams {
            cfl: 0.3,
            ..SteerableParams::default()
        });
        assert_eq!(inbox.len(), 2);
        let latest = inbox.drain_latest().unwrap();
        assert!((latest.cfl - 0.3).abs() < 1e-12);
        assert!(inbox.is_empty());
    }
}
