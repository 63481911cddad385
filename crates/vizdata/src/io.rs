//! A minimal tagged binary container for scalar fields.
//!
//! The paper's raw data "usually takes a multivariate format and is organized
//! in structures such as CDF, HDF, and NetCDF".  For the reproduction we need
//! a self-describing on-disk/in-memory format so that the data-source node
//! can cache simulation output and serve it back; this module provides a
//! small header + little-endian `f32` payload format with support for
//! multiple named variables.

use crate::field::{Dims, ScalarField};
use serde::{Deserialize, Serialize};

/// Magic bytes identifying the container format ("RICSAVOL").
pub const MAGIC: &[u8; 8] = b"RICSAVOL";
/// Current container version.
pub const VERSION: u32 = 1;

/// Errors produced while encoding/decoding containers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum IoError {
    /// The magic bytes or version did not match.
    BadHeader(String),
    /// The buffer ended before the declared payload.
    Truncated {
        /// Bytes expected.
        expected: usize,
        /// Bytes available.
        actual: usize,
    },
    /// A variable name was not valid UTF-8 or exceeded limits.
    BadVariable(String),
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::BadHeader(m) => write!(f, "bad container header: {m}"),
            IoError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated container: expected {expected} bytes, got {actual}"
                )
            }
            IoError::BadVariable(m) => write!(f, "bad variable: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

/// A named variable stored in a container.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Variable {
    /// Variable name (e.g. `"pressure"`, `"density"`).
    pub name: String,
    /// The field samples.
    pub field: ScalarField,
}

/// A multivariate volume container.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VolumeContainer {
    /// The variables, in insertion order.
    pub variables: Vec<Variable>,
    /// Simulation cycle / time step the data belongs to.
    pub cycle: u64,
    /// Physical simulation time of the snapshot.
    pub time: f64,
}

impl VolumeContainer {
    /// An empty container for the given cycle/time.
    pub fn new(cycle: u64, time: f64) -> Self {
        VolumeContainer {
            variables: Vec::new(),
            cycle,
            time,
        }
    }

    /// Add a named variable.
    pub fn push(&mut self, name: impl Into<String>, field: ScalarField) {
        self.variables.push(Variable {
            name: name.into(),
            field,
        });
    }

    /// Look up a variable by name.
    pub fn variable(&self, name: &str) -> Option<&ScalarField> {
        self.variables
            .iter()
            .find(|v| v.name == name)
            .map(|v| &v.field)
    }

    /// Total payload size in bytes (used by the delay model as the dataset
    /// size `m_0`).
    pub fn nbytes(&self) -> usize {
        self.variables.iter().map(|v| v.field.nbytes()).sum()
    }

    /// Encode to the binary container format.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + self.nbytes());
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&VERSION.to_le_bytes());
        out.extend_from_slice(&self.cycle.to_le_bytes());
        out.extend_from_slice(&self.time.to_le_bytes());
        out.extend_from_slice(&(self.variables.len() as u32).to_le_bytes());
        for v in &self.variables {
            let name_bytes = v.name.as_bytes();
            out.extend_from_slice(&(name_bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(name_bytes);
            let d = v.field.dims;
            for n in [d.nx, d.ny, d.nz] {
                out.extend_from_slice(&(n as u64).to_le_bytes());
            }
            for s in v.field.spacing {
                out.extend_from_slice(&s.to_le_bytes());
            }
            for o in v.field.origin {
                out.extend_from_slice(&o.to_le_bytes());
            }
            for value in &v.field.data {
                out.extend_from_slice(&value.to_le_bytes());
            }
        }
        out
    }

    /// Decode from the binary container format.
    pub fn decode(buf: &[u8]) -> Result<Self, IoError> {
        let mut cursor = Cursor { buf, pos: 0 };
        let magic = cursor.take(8)?;
        if magic != MAGIC {
            return Err(IoError::BadHeader("wrong magic bytes".into()));
        }
        let version = cursor.u32()?;
        if version != VERSION {
            return Err(IoError::BadHeader(format!("unsupported version {version}")));
        }
        let cycle = cursor.u64()?;
        let time = cursor.f64()?;
        let n_vars = cursor.u32()? as usize;
        let mut container = VolumeContainer::new(cycle, time);
        for _ in 0..n_vars {
            let name_len = cursor.u32()? as usize;
            if name_len > 4096 {
                return Err(IoError::BadVariable(format!(
                    "name length {name_len} too large"
                )));
            }
            let name_bytes = cursor.take(name_len)?;
            let name = String::from_utf8(name_bytes.to_vec())
                .map_err(|e| IoError::BadVariable(e.to_string()))?;
            let nx = cursor.u64()? as usize;
            let ny = cursor.u64()? as usize;
            let nz = cursor.u64()? as usize;
            let mut spacing = [0.0f32; 3];
            for s in &mut spacing {
                *s = cursor.f32()?;
            }
            let mut origin = [0.0f32; 3];
            for o in &mut origin {
                *o = cursor.f32()?;
            }
            let dims = Dims::new(nx, ny, nz);
            let count = dims.count();
            let mut data = Vec::with_capacity(count);
            for _ in 0..count {
                data.push(cursor.f32()?);
            }
            container.push(
                name,
                ScalarField {
                    dims,
                    spacing,
                    origin,
                    data,
                },
            );
        }
        Ok(container)
    }
}

struct Cursor<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], IoError> {
        if self.pos + n > self.buf.len() {
            return Err(IoError::Truncated {
                expected: self.pos + n,
                actual: self.buf.len(),
            });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }
    fn u32(&mut self) -> Result<u32, IoError> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn u64(&mut self) -> Result<u64, IoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(u64::from_le_bytes(a))
    }
    fn f32(&mut self) -> Result<f32, IoError> {
        let b = self.take(4)?;
        Ok(f32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }
    fn f64(&mut self) -> Result<f64, IoError> {
        let b = self.take(8)?;
        let mut a = [0u8; 8];
        a.copy_from_slice(b);
        Ok(f64::from_le_bytes(a))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::field::Dims;

    fn sample_container() -> VolumeContainer {
        let mut c = VolumeContainer::new(42, 1.25);
        c.push(
            "pressure",
            ScalarField::from_fn(Dims::new(4, 3, 2), |x, y, z| (x + y + z) as f32),
        );
        c.push(
            "density",
            ScalarField::from_fn(Dims::new(2, 2, 2), |x, _, _| x as f32 * 0.5),
        );
        c
    }

    #[test]
    fn round_trip_preserves_everything() {
        let c = sample_container();
        let bytes = c.encode();
        let back = VolumeContainer::decode(&bytes).unwrap();
        assert_eq!(back, c);
        assert_eq!(back.cycle, 42);
        assert_eq!(back.time, 1.25);
        let names: Vec<&str> = back.variables.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["pressure", "density"]);
        assert!(back.variable("pressure").is_some());
        assert!(back.variable("missing").is_none());
    }

    #[test]
    fn nbytes_counts_payload() {
        let c = sample_container();
        assert_eq!(c.nbytes(), (24 + 8) * 4);
    }

    #[test]
    fn decode_rejects_bad_magic_and_version() {
        let c = sample_container();
        let mut bytes = c.encode();
        bytes[0] = b'X';
        assert!(matches!(
            VolumeContainer::decode(&bytes),
            Err(IoError::BadHeader(_))
        ));
        let mut bytes2 = c.encode();
        bytes2[8] = 99;
        assert!(matches!(
            VolumeContainer::decode(&bytes2),
            Err(IoError::BadHeader(_))
        ));
    }

    #[test]
    fn decode_rejects_truncated_payload() {
        let c = sample_container();
        let bytes = c.encode();
        let cut = &bytes[..bytes.len() - 10];
        match VolumeContainer::decode(cut) {
            Err(IoError::Truncated { expected, actual }) => {
                assert!(expected > actual);
            }
            other => panic!("expected truncation error, got {other:?}"),
        }
        assert!(VolumeContainer::decode(&[]).is_err());
    }

    #[test]
    fn error_display_is_informative() {
        let e = IoError::Truncated {
            expected: 100,
            actual: 10,
        };
        assert!(e.to_string().contains("100"));
        assert!(IoError::BadHeader("x".into()).to_string().contains("x"));
        assert!(IoError::BadVariable("v".into()).to_string().contains("v"));
    }

    #[test]
    fn empty_container_round_trips() {
        let c = VolumeContainer::new(0, 0.0);
        let back = VolumeContainer::decode(&c.encode()).unwrap();
        assert!(back.variables.is_empty());
        assert_eq!(back.nbytes(), 0);
    }
}
