//! Control-protocol messages.
//!
//! Control messages are "typically on the order of bytes or kilobytes"
//! (Section 4.2) and travel over the stabilized control channel: steering
//! requests from the client to the CM, iteration starts to the data source,
//! and the visualization routing table that establishes the loop.  They are serialized as JSON (standing in for the
//! XML/JSON payloads of the paper's Ajax `XMLHttpRequest` exchanges) and
//! carried in datagram payloads.

use crate::stage::flow_id;
use ricsa_netsim::packet::Payload;
use ricsa_pipemap::vrt::VisualizationRoutingTable;
use serde::{Deserialize, Serialize};
use std::collections::HashSet;

/// Payload kind tag for control messages.
pub const KIND_CONTROL: u16 = 0x0201;

/// Number of redundant copies each control datagram is sent with.  The
/// control channel targets loss rates well below 0.1 %, so triple redundancy
/// makes an undelivered control message practically impossible while keeping
/// the protocol one-way (the data channel retains full ACK/NACK
/// reliability).
pub const CONTROL_REDUNDANCY: usize = 3;

/// A control-plane message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ControlMessage {
    /// Client → CM: start (or retarget) a steering session.
    SteeringRequest {
        /// Monotone request identifier.
        request_id: u64,
        /// Simulation or dataset name from the catalog.
        source: String,
        /// Variable of interest.
        variable: String,
        /// Isovalue for isosurface extraction.
        isovalue: f32,
        /// Optional octree subset selection (0..8), as the paper's GUI
        /// offers.  It is part of the request's wire size; no stage acts on
        /// it (the filter stage is data serving).
        octant: Option<usize>,
    },
    /// CM → loop participants: the computed routing table.
    VrtDelivery {
        /// Session this table belongs to.
        session: u64,
        /// The routing table.
        table: VisualizationRoutingTable,
    },
    /// CM (or client, for subsequent iterations) → data source: start
    /// serving the dataset for one iteration.
    BeginIteration {
        /// Session identifier.
        session: u64,
        /// Iteration number.
        iteration: u64,
    },
}

impl ControlMessage {
    /// The session a message belongs to, for the messages that carry one.
    pub fn session(&self) -> Option<u64> {
        match self {
            ControlMessage::VrtDelivery { session, .. }
            | ControlMessage::BeginIteration { session, .. } => Some(*session),
            _ => None,
        }
    }

    /// A deduplication key: control messages are sent redundantly, so
    /// receivers drop copies whose key they have already seen.  A message
    /// that carries a session has it at bit 20.
    pub fn dedup_key(&self) -> u64 {
        let session = self.session().map_or(0, |session| session << 20);
        session
            | match self {
                ControlMessage::SteeringRequest { request_id, .. } => 0x1000_0000_0000 | request_id,
                ControlMessage::VrtDelivery { .. } => 0x3000_0000_0000,
                ControlMessage::BeginIteration { iteration, .. } => 0x4000_0000_0000 | iteration,
            }
    }

    /// Serialize into a datagram payload (kind [`KIND_CONTROL`]).  A
    /// message with a session carries it in the flow id's session bits
    /// ([`flow_id`]), the way transport datagrams do; one without keeps
    /// flow 0.
    pub fn to_payload(&self) -> Payload {
        let data = serde_json::to_vec(self).expect("control messages always serialize");
        let flow = self.session().map_or(0, |session| flow_id(session, 0, 0));
        Payload::with_data(KIND_CONTROL, flow, self.dedup_key(), data)
    }

    /// Deserialize from a datagram payload; `None` if the payload is not a
    /// control message or fails to parse.
    pub fn from_payload(payload: &Payload) -> Option<ControlMessage> {
        if payload.kind != KIND_CONTROL {
            return None;
        }
        serde_json::from_slice(&payload.data).ok()
    }
}

/// Tracks which control messages have already been processed, so redundant
/// copies are ignored.
#[derive(Debug, Default, Clone)]
pub struct DedupFilter {
    seen: HashSet<u64>,
}

impl DedupFilter {
    /// An empty filter.
    pub fn new() -> Self {
        DedupFilter::default()
    }

    /// Returns true exactly once per dedup key.
    pub fn accept(&mut self, msg: &ControlMessage) -> bool {
        self.seen.insert(msg.dedup_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ControlMessage {
        ControlMessage::SteeringRequest {
            request_id: 7,
            source: "sod-shock-tube".into(),
            variable: "pressure".into(),
            isovalue: 0.4,
            octant: Some(3),
        }
    }

    #[test]
    fn payload_round_trip() {
        let msg = sample();
        let payload = msg.to_payload();
        assert_eq!(payload.kind, KIND_CONTROL);
        assert!(
            payload.size > 0 && payload.size < 4096,
            "control messages stay small"
        );
        let back = ControlMessage::from_payload(&payload).unwrap();
        assert_eq!(back, msg);
    }

    #[test]
    fn non_control_payloads_are_rejected() {
        let mut payload = sample().to_payload();
        payload.kind = 0x0101;
        assert!(ControlMessage::from_payload(&payload).is_none());
        let garbage = Payload::with_data(KIND_CONTROL, 0, 0, vec![1, 2, 3]);
        assert!(ControlMessage::from_payload(&garbage).is_none());
    }

    #[test]
    fn dedup_keys_distinguish_message_identity() {
        let a = ControlMessage::BeginIteration {
            session: 1,
            iteration: 1,
        };
        let b = ControlMessage::BeginIteration {
            session: 1,
            iteration: 2,
        };
        let c = ControlMessage::BeginIteration {
            session: 2,
            iteration: 1,
        };
        assert_ne!(a.dedup_key(), b.dedup_key());
        assert_ne!(a.dedup_key(), c.dedup_key());
        let mut filter = DedupFilter::new();
        assert!(filter.accept(&a));
        assert!(!filter.accept(&a));
        assert!(filter.accept(&b));
    }

    #[test]
    fn all_variants_serialize() {
        let msgs = vec![
            sample(),
            ControlMessage::BeginIteration {
                session: 3,
                iteration: 0,
            },
        ];
        for m in msgs {
            let back = ControlMessage::from_payload(&m.to_payload()).unwrap();
            assert_eq!(back, m);
        }
    }
}
