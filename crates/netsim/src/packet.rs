//! Datagrams exchanged between applications.
//!
//! The transport protocols in `ricsa-transport` and the framework messages in
//! `ricsa-core` are both carried as [`Datagram`]s.  Payloads carry a small
//! typed header (`kind`, `seq`, `flow`) plus an opaque size; the simulator
//! charges serialization delay for the *size*, and applications interpret the
//! header.  Actual simulation bytes are optional (`data`) so that large
//! dataset transfers do not require materializing hundreds of megabytes.

use crate::node::NodeId;
use serde::{Deserialize, Serialize};

/// UDP-like maximum datagram payload used by the transport layer, in bytes.
pub const DEFAULT_MTU: usize = 1400;

/// Application-level payload carried by a datagram.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Payload {
    /// Application-defined message kind tag.
    pub kind: u16,
    /// Flow identifier so multiple transport flows can share a node.
    pub flow: u64,
    /// Sequence number within the flow (datagram or ACK sequence).
    pub seq: u64,
    /// Nominal size in bytes (what the network charges for).
    pub size: usize,
    /// Optional inline bytes for small control messages.
    pub data: Vec<u8>,
}

impl Payload {
    /// An opaque payload of the given size with no inline data.
    pub fn opaque(size: usize) -> Self {
        Payload {
            kind: 0,
            flow: 0,
            seq: 0,
            size,
            data: Vec::new(),
        }
    }

    /// A payload carrying inline bytes; the nominal size is the data length.
    pub fn with_data(kind: u16, flow: u64, seq: u64, data: Vec<u8>) -> Self {
        let size = data.len();
        Payload {
            kind,
            flow,
            seq,
            size,
            data,
        }
    }

    /// A sized payload with header fields but no inline data (bulk transfer).
    #[inline]
    pub fn sized(kind: u16, flow: u64, seq: u64, size: usize) -> Self {
        Payload {
            kind,
            flow,
            seq,
            size,
            data: Vec::new(),
        }
    }

    /// Total bytes charged on the wire: nominal size plus a small header.
    #[inline]
    pub fn wire_size(&self) -> usize {
        self.size + HEADER_OVERHEAD
    }
}

/// Per-datagram header overhead charged by the simulator (IP + UDP + app
/// header), in bytes.
pub const HEADER_OVERHEAD: usize = 42;

/// A datagram in flight or delivered to an application.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Datagram {
    /// Destination node.
    pub dst: NodeId,
    /// Payload.
    pub payload: Payload,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn opaque_payload_has_size_only() {
        let p = Payload::opaque(1200);
        assert_eq!(p.size, 1200);
        assert!(p.data.is_empty());
        assert_eq!(p.wire_size(), 1200 + HEADER_OVERHEAD);
    }

    #[test]
    fn with_data_sets_size_from_data() {
        let p = Payload::with_data(3, 9, 42, vec![1, 2, 3, 4]);
        assert_eq!(p.size, 4);
        assert_eq!(p.kind, 3);
        assert_eq!(p.flow, 9);
        assert_eq!(p.seq, 42);
    }
}
