//! The benchmark's client side: a blocking keep-alive HTTP connection that
//! timestamps the first and last byte of each response (which the product's
//! own `http::read_blocking_response` has no way to report), and a
//! linear-time reader for poll payloads.
//!
//! The payload reader exists because the workspace's `serde_json` stand-in
//! re-validates the rest of its input for every character of a string, so
//! parsing one 350 KB full-frame payload with it takes over a second — a
//! client built on it would measure the parser.  This reader cuts the
//! `..._base64":"..."` string bodies out first (base64 never contains a
//! quote or an escape), parses only the small remaining envelope with
//! `serde_json`, and decodes the cut slices with the hub's own
//! `base64_decode`.  A unit test pins it to the reference path.

use ricsa::viz::image::Image;
use ricsa::webfront::hub::{apply_delta, base64_decode, FrameDelta, TilePatch};
use std::io::{Error, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

/// Longest a client waits for response bytes before the poll counts as
/// failed; longer than the longest long-poll the clients ask for.
const READ_TIMEOUT: Duration = Duration::from_secs(15);

/// One response as read off the socket.  The body stays in the
/// connection's buffer; borrow it with [`Conn::body`].
#[derive(Debug, Clone, Copy)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// When the first response byte was read.
    pub first_byte: Instant,
    /// When the last response byte was read.
    pub last_byte: Instant,
    /// Status line + headers, bytes.
    pub header_bytes: usize,
    /// Status line + headers + body, bytes.
    pub wire_bytes: usize,
}

/// A blocking keep-alive connection speaking minimal HTTP/1.1.
pub struct Conn {
    stream: TcpStream,
    /// The current response: headers then body.
    buf: Vec<u8>,
    header_len: usize,
}

impl Conn {
    /// Connect to the server.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(512 << 10),
            header_len: 0,
        })
    }

    /// Send `GET path`.
    pub fn send_get(&mut self, path: &str) -> std::io::Result<()> {
        self.stream
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: bench\r\n\r\n").as_bytes())
    }

    /// Send `POST path` with a JSON body.
    pub fn send_post(&mut self, path: &str, body: &str) -> std::io::Result<()> {
        self.stream.write_all(
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .as_bytes(),
        )
    }

    /// Read one `Content-Length`-framed response.
    pub fn read_response(&mut self) -> std::io::Result<Response> {
        /// Room for the status line and headers (and a small body) before
        /// the length is known.
        const HEAD_ROOM: usize = 4096;
        let closed = || Error::new(ErrorKind::UnexpectedEof, "closed mid-response");
        self.buf.clear();
        self.buf.resize(HEAD_ROOM, 0);
        let mut filled = 0;
        let mut first_byte = None;
        let (header_len, content_length, status) = loop {
            if filled == self.buf.len() {
                return Err(Error::new(ErrorKind::InvalidData, "headers too long"));
            }
            let n = self.stream.read(&mut self.buf[filled..])?;
            if n == 0 {
                return Err(closed());
            }
            first_byte.get_or_insert_with(Instant::now);
            filled += n;
            if let Some(end) = find(&self.buf[..filled], b"\r\n\r\n") {
                let head = std::str::from_utf8(&self.buf[..end])
                    .map_err(|_| Error::new(ErrorKind::InvalidData, "non-UTF-8 headers"))?;
                let status = head
                    .split_whitespace()
                    .nth(1)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or(0);
                let content_length = head
                    .lines()
                    .find_map(|l| {
                        let (name, value) = l.split_once(':')?;
                        name.eq_ignore_ascii_case("content-length")
                            .then(|| value.trim().parse::<usize>().ok())?
                    })
                    .unwrap_or(0);
                break (end + 4, content_length, status);
            }
        };
        let total = header_len + content_length;
        if filled > total {
            // Lock-step clients never pipeline, so nothing may follow.
            return Err(Error::new(ErrorKind::InvalidData, "bytes after the body"));
        }
        // The body is read straight into place.
        self.buf.resize(total, 0);
        while filled < total {
            let n = self.stream.read(&mut self.buf[filled..])?;
            if n == 0 {
                return Err(closed());
            }
            filled += n;
        }
        let last_byte = Instant::now();
        self.header_len = header_len;
        Ok(Response {
            status,
            first_byte: first_byte.expect("at least one read succeeded"),
            last_byte,
            header_bytes: header_len,
            wire_bytes: total,
        })
    }

    /// The body of the response read last.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.header_len..]
    }

    /// `GET path` and read the response.
    pub fn get(&mut self, path: &str) -> std::io::Result<Response> {
        self.send_get(path)?;
        self.read_response()
    }
}

fn find(haystack: &[u8], needle: &[u8]) -> Option<usize> {
    haystack.windows(needle.len()).position(|w| w == needle)
}

/// The pixel part of a poll payload, still base64.
#[derive(Debug, PartialEq)]
pub enum Pixels<'a> {
    /// A complete frame: its `image_base64` body and whether it is
    /// run-length coded.
    Full {
        /// The base64 text.
        base64: &'a str,
        /// `"codec":"rle"` was present.
        rle: bool,
    },
    /// Changed tiles against `base_sequence`.
    Delta {
        /// The frame the delta applies to.
        base_sequence: u64,
        /// Image width, pixels.
        width: usize,
        /// Image height, pixels.
        height: usize,
        /// Tile grid edge.
        tile: usize,
        /// Per tile: `(x, y, w, h, rle, data_base64)`.
        tiles: Vec<(usize, usize, usize, usize, bool, &'a str)>,
    },
}

/// A poll payload with its envelope parsed and its pixels not yet decoded.
#[derive(Debug, PartialEq)]
pub struct Payload<'a> {
    /// Frame sequence; `None` is the long-poll's timeout answer.
    pub sequence: Option<u64>,
    /// The `monitors` pairs.
    pub monitors: Vec<(String, f64)>,
    /// The pixel part; `None` on a timeout answer.
    pub pixels: Option<Pixels<'a>>,
}

/// Marker that ends the key of every base64 string in a payload.
const BASE64_KEY_END: &[u8] = b"_base64\":\"";

/// Parse a poll response body in time linear in its length.
pub fn read_payload(body: &[u8]) -> Option<Payload<'_>> {
    // Cut every base64 string body out, leaving `..._base64":""`.
    let mut envelope = Vec::with_capacity(4096);
    let mut cuts: Vec<&str> = Vec::new();
    let mut rest = body;
    while let Some(at) = find(rest, BASE64_KEY_END) {
        let start = at + BASE64_KEY_END.len();
        let len = rest[start..].iter().position(|&b| b == b'"')?;
        envelope.extend_from_slice(&rest[..start]);
        cuts.push(std::str::from_utf8(&rest[start..start + len]).ok()?);
        rest = &rest[start + len..];
    }
    envelope.extend_from_slice(rest);
    let value: serde_json::Value = serde_json::from_slice(&envelope).ok()?;

    let sequence = value.get("sequence")?.as_u64();
    let monitors = match value.get("monitors") {
        Some(m) => serde_json::from_value(m).ok()?,
        None => Vec::new(),
    };
    let pixels = match value.get("mode").and_then(|m| m.as_str()) {
        None => None,
        Some("full") => {
            let rle = match value.get("codec").and_then(|c| c.as_str()) {
                None => false,
                Some("rle") => true,
                Some(_) => return None,
            };
            let [base64] = cuts[..] else { return None };
            Some(Pixels::Full { base64, rle })
        }
        Some("delta") => {
            let field = |name: &str| Some(value.get(name)?.as_u64()? as usize);
            let listed = value.get("tiles")?.as_array()?;
            if listed.len() != cuts.len() {
                return None;
            }
            // Tiles serialize in order, so the n-th cut is the n-th tile's.
            let mut tiles = Vec::with_capacity(listed.len());
            for (t, base64) in listed.iter().zip(&cuts) {
                let dim = |name: &str| Some(t.get(name)?.as_u64()? as usize);
                let rle = t.get("rle").and_then(|r| r.as_bool()) == Some(true);
                tiles.push((dim("x")?, dim("y")?, dim("w")?, dim("h")?, rle, *base64));
            }
            Some(Pixels::Delta {
                base_sequence: value.get("base_sequence")?.as_u64()?,
                width: field("width")?,
                height: field("height")?,
                tile: field("tile")?,
                tiles,
            })
        }
        Some(_) => return None,
    };
    Some(Payload {
        sequence,
        monitors,
        pixels,
    })
}

fn unpack(base64: &str, rle: bool) -> Option<Vec<u8>> {
    let bytes = base64_decode(base64)?;
    if rle {
        rle::decompress(&bytes)
    } else {
        Some(bytes)
    }
}

impl Pixels<'_> {
    /// Decode to the frame's image; a delta is applied to `held`, the
    /// image of the frame it names as its base.  `None` on malformed
    /// pixels or a delta without a held frame.
    pub fn decode(&self, held: Option<&Image>) -> Option<Image> {
        match self {
            Pixels::Full { base64, rle } => Image::decode_raw(&unpack(base64, *rle)?),
            Pixels::Delta {
                width,
                height,
                tile,
                tiles,
                ..
            } => {
                let held = held?;
                if (held.width, held.height) != (*width, *height) {
                    return None;
                }
                let mut patches = Vec::with_capacity(tiles.len());
                for &(x, y, w, h, rle, base64) in tiles {
                    let data = unpack(base64, rle)?;
                    // apply_delta indexes by these; check them first.
                    if x + w > *width || y + h > *height || data.len() != w * h * 4 {
                        return None;
                    }
                    patches.push(TilePatch { x, y, w, h, data });
                }
                Some(apply_delta(
                    held,
                    &FrameDelta {
                        width: *width,
                        height: *height,
                        tile: *tile,
                        tiles: patches,
                    },
                ))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa::webfront::hub::{
        delta_from_json, diff_images, encode_frame_delta, encode_frame_full, image_from_json, Frame,
    };

    /// A 32x32 frame whose top half is flat (so RLE engages) and whose
    /// bottom half is a gradient (so it does not).
    fn test_image(marker: u8) -> Image {
        let mut img = Image::filled(32, 32, [9, 9, 9, 255]);
        for y in 16..32 {
            for x in 0..32 {
                img.set(x, y, [(x * 8) as u8, (y * 8) as u8, marker, 255]);
            }
        }
        img.set(3, 3, [marker, 0, 0, 255]);
        img
    }

    fn frame(img: &Image, sequence: u64, tag: f64) -> Frame {
        Frame {
            sequence,
            cycle: 7,
            time: 0.5,
            image: img.encode_raw(),
            monitors: vec![("max pressure".into(), 2.5), ("tag".into(), tag)],
        }
    }

    #[test]
    fn reader_matches_the_reference_path_on_full_and_delta_payloads() {
        let (first, second) = (test_image(1), test_image(2));
        let tag = 1.0 + 1.0 / 1048576.0;

        // Full frame.
        let full = encode_frame_full(&frame(&first, 1, 1.0), 77);
        let reference: serde_json::Value = serde_json::from_slice(full.as_bytes()).unwrap();
        let reference_image = Image::decode_raw(&image_from_json(&reference).unwrap()).unwrap();
        let payload = read_payload(full.as_bytes()).unwrap();
        assert_eq!(payload.sequence, Some(1));
        assert_eq!(payload.monitors[1], ("tag".to_string(), 1.0));
        assert!(matches!(
            payload.pixels,
            Some(Pixels::Full { rle: true, .. })
        ));
        let held = payload.pixels.as_ref().unwrap().decode(None).unwrap();
        assert_eq!(held.pixels, reference_image.pixels);
        assert_eq!(held.pixels, first.pixels);

        // Delta against it, cut on an 8-pixel grid so that it has flat
        // (run-length coded) and gradient (raw) tiles.
        let tiles = diff_images(&first, &second, 8).unwrap();
        assert!(tiles.tiles.len() > 1);
        let delta = encode_frame_delta(&frame(&second, 2, tag), 77, 1, &tiles);
        let reference: serde_json::Value = serde_json::from_slice(delta.as_bytes()).unwrap();
        let (base, reference_delta) = delta_from_json(&reference).unwrap();
        let reference_image = apply_delta(&held, &reference_delta);
        let payload = read_payload(delta.as_bytes()).unwrap();
        assert_eq!(payload.sequence, Some(2));
        // The steer tag survives the JSON round trip bit for bit.
        assert_eq!(payload.monitors[1].1, tag);
        let pixels = payload.pixels.unwrap();
        match &pixels {
            Pixels::Delta {
                base_sequence,
                tiles,
                ..
            } => {
                assert_eq!(*base_sequence, base);
                assert!(tiles.iter().any(|t| t.4) && tiles.iter().any(|t| !t.4));
            }
            other => panic!("expected a delta, got {other:?}"),
        }
        let image = pixels.decode(Some(&held)).unwrap();
        assert_eq!(image.pixels, reference_image.pixels);
        assert_eq!(image.pixels, second.pixels);
        // A delta cannot be decoded without the frame it is based on.
        assert!(pixels.decode(None).is_none());
    }

    #[test]
    fn timeout_answers_and_malformed_bodies() {
        let timeout = read_payload(br#"{"sequence":null,"epoch":5}"#).unwrap();
        assert_eq!(timeout.sequence, None);
        assert!(timeout.pixels.is_none());
        assert!(read_payload(b"not json").is_none());
        // An unterminated base64 string must not read past the body.
        assert!(read_payload(br#"{"sequence":1,"mode":"full","image_base64":"AAAA"#).is_none());
        // Unknown codecs fail closed, as in the hub's own decoder.
        assert!(read_payload(
            br#"{"sequence":1,"mode":"full","codec":"zip","image_base64":"AAAA"}"#
        )
        .is_none());
    }

    #[test]
    fn responses_are_framed_by_content_length() {
        use std::net::TcpListener;
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut request = [0u8; 256];
            let _ = s.read(&mut request).unwrap();
            // Split the response across writes: framing must not depend
            // on how the bytes arrive.
            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Le").unwrap();
            s.write_all(b"ngth: 5\r\nConnection: keep-alive\r\n\r\nhe")
                .unwrap();
            s.write_all(b"llo").unwrap();
        });
        let mut conn = Conn::connect(addr).unwrap();
        let response = conn.get("/x").unwrap();
        server.join().unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(conn.body(), b"hello");
        assert_eq!(response.wire_bytes, response.header_bytes + 5);
        assert!(response.last_byte >= response.first_byte);
    }
}
