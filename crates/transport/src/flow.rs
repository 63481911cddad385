//! Common flow types: configuration, wire format, statistics, and the rate
//! controller abstraction shared by the Robbins–Monro, AIMD and fixed-rate
//! senders.

use serde::{Deserialize, Serialize};
use std::cell::RefCell;
use std::rc::Rc;

/// Datagram kind carrying flow payload bytes.
pub const KIND_DATA: u16 = 0x0101;
/// Datagram kind carrying an acknowledgement.
pub const KIND_ACK: u16 = 0x0102;

/// Static configuration of a transport flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowConfig {
    /// Flow identifier (must be unique per sender/receiver pair).
    pub flow_id: u64,
    /// Datagram payload size in bytes.
    pub mtu: usize,
    /// Number of datagrams sent per burst (the congestion window `Wc`).
    pub window: u32,
    /// Initial sleep time between bursts, seconds (`Ts(0)`).
    pub initial_sleep: f64,
    /// How often the receiver emits an acknowledgement, in received
    /// datagrams.
    pub ack_every: u32,
    /// Receiver-side ACK fallback interval, seconds (an ACK is sent at least
    /// this often while data is outstanding).
    pub ack_interval: f64,
    /// Maximum number of unacknowledged datagrams the sender keeps in flight
    /// before it pauses new transmissions (retransmissions still go out).
    pub max_outstanding: usize,
    /// Reorder tolerance, seconds: a hole must stay missing this long before
    /// the receiver NACKs it (jittered links reorder datagrams, and NACKing
    /// a merely-late datagram triggers a useless retransmission).
    pub nack_delay: f64,
    /// Total number of bytes to transfer; `None` means an unbounded
    /// monitoring stream (used by the stabilization experiments).
    pub message_bytes: Option<usize>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            flow_id: 1,
            mtu: 1358, // 1400-byte wire MTU minus header overhead
            window: 16,
            initial_sleep: 0.01,
            ack_every: 8,
            ack_interval: 0.05,
            max_outstanding: 4096,
            nack_delay: 0.01,
            message_bytes: None,
        }
    }
}

impl FlowConfig {
    /// Total number of data datagrams needed for a finite message, if any.
    pub fn total_datagrams(&self) -> Option<u64> {
        self.message_bytes
            .map(|bytes| (bytes as u64).div_ceil(self.mtu as u64).max(1))
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), String> {
        if self.mtu == 0 {
            return Err("mtu must be positive".into());
        }
        if self.window == 0 {
            return Err("window must be positive".into());
        }
        if self.initial_sleep <= 0.0 || !self.initial_sleep.is_finite() {
            return Err("initial sleep must be positive".into());
        }
        if self.ack_every == 0 {
            return Err("ack_every must be positive".into());
        }
        if self.max_outstanding == 0 {
            return Err("max_outstanding must be positive".into());
        }
        if !self.nack_delay.is_finite() || self.nack_delay < 0.0 {
            return Err("nack delay must be non-negative".into());
        }
        Ok(())
    }
}

/// A rate controller decides the sleep time and window of the sender.
///
/// The controller sees goodput observations (carried back in ACKs) and loss
/// indications, and produces the pacing parameters for the next burst.
pub trait RateController {
    /// Record a goodput observation (bytes per second) made at time `now`
    /// (seconds of virtual time).
    fn on_goodput(&mut self, goodput_bps: f64, now: f64);

    /// Record a loss indication (NACK or retransmission timeout).
    fn on_loss(&mut self, _now: f64) {}

    /// Current sleep time between bursts, seconds.
    fn sleep_time(&self) -> f64;

    /// Current congestion window (datagrams per burst).
    fn window(&self) -> u32;

    /// Short human-readable name used in traces and experiment reports.
    fn name(&self) -> &'static str;
}

/// The acknowledgement structure exchanged on the reverse channel.
///
/// It carries cumulative progress, explicit selective-acknowledgement
/// ranges (TCP-SACK style), a bounded list of missing sequence numbers
/// (negative acknowledgements) and the receiver's goodput estimate.  The
/// NACK list is deliberately partial — reorder-delayed, throttled, bounded
/// — so receipt must never be inferred from absence in it; only the
/// cumulative point and the SACK ranges confirm delivery.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AckInfo {
    /// Highest sequence number such that all datagrams `<= seq` have been
    /// received (`u64::MAX` if nothing in-order has arrived yet).
    pub cumulative: u64,
    /// Highest sequence number seen so far.
    pub highest_seen: u64,
    /// Missing sequence numbers in `(cumulative, highest_seen)`, truncated.
    pub missing: Vec<u64>,
    /// Inclusive ranges of received sequence numbers above the cumulative
    /// point, truncated to [`MAX_SACK_RANGES_PER_ACK`].
    pub sack: Vec<(u64, u64)>,
    /// Receiver goodput estimate in bytes per second.
    pub goodput_bps: f64,
    /// Total distinct datagrams received so far.
    pub received_count: u64,
}

/// Sentinel for "no in-order data yet".
pub const NO_CUMULATIVE: u64 = u64::MAX;

/// Maximum number of NACKed sequence numbers carried per ACK.
pub const MAX_NACKS_PER_ACK: usize = 64;

/// Maximum number of SACK ranges carried per ACK.
pub const MAX_SACK_RANGES_PER_ACK: usize = 32;

impl AckInfo {
    /// Encode into a compact little-endian byte representation.
    pub fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(8 * (5 + self.missing.len() + 2 * self.sack.len()));
        out.extend_from_slice(&self.cumulative.to_le_bytes());
        out.extend_from_slice(&self.highest_seen.to_le_bytes());
        out.extend_from_slice(&self.goodput_bps.to_le_bytes());
        out.extend_from_slice(&self.received_count.to_le_bytes());
        out.extend_from_slice(&(self.missing.len() as u64).to_le_bytes());
        for m in &self.missing {
            out.extend_from_slice(&m.to_le_bytes());
        }
        out.extend_from_slice(&(self.sack.len() as u64).to_le_bytes());
        for (lo, hi) in &self.sack {
            out.extend_from_slice(&lo.to_le_bytes());
            out.extend_from_slice(&hi.to_le_bytes());
        }
        out
    }

    /// Decode from the representation produced by [`AckInfo::encode`].
    pub fn decode(data: &[u8]) -> Option<AckInfo> {
        if data.len() < 40 {
            return None;
        }
        let read_u64 = |i: usize| -> u64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[i..i + 8]);
            u64::from_le_bytes(b)
        };
        let read_f64 = |i: usize| -> f64 {
            let mut b = [0u8; 8];
            b.copy_from_slice(&data[i..i + 8]);
            f64::from_le_bytes(b)
        };
        let cumulative = read_u64(0);
        let highest_seen = read_u64(8);
        let goodput_bps = read_f64(16);
        let received_count = read_u64(24);
        let n_missing = read_u64(32) as usize;
        if n_missing > MAX_NACKS_PER_ACK || data.len() < 48 + 8 * n_missing {
            return None;
        }
        let missing = (0..n_missing).map(|k| read_u64(40 + 8 * k)).collect();
        let sack_at = 40 + 8 * n_missing;
        let n_sack = read_u64(sack_at) as usize;
        if n_sack > MAX_SACK_RANGES_PER_ACK || data.len() < sack_at + 8 + 16 * n_sack {
            return None;
        }
        let sack = (0..n_sack)
            .map(|k| {
                (
                    read_u64(sack_at + 8 + 16 * k),
                    read_u64(sack_at + 16 + 16 * k),
                )
            })
            .collect();
        Some(AckInfo {
            cumulative,
            highest_seen,
            missing,
            sack,
            goodput_bps,
            received_count,
        })
    }
}

/// Statistics of one flow, shared between the sender/receiver applications
/// and the experiment harness.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowStats {
    /// Goodput samples observed by the receiver: `(time_secs, bytes_per_sec)`.
    pub goodput_samples: Vec<(f64, f64)>,
    /// Sleep-time samples at the sender: `(time_secs, sleep_secs)`.
    pub sleep_samples: Vec<(f64, f64)>,
    /// Data datagrams transmitted (including retransmissions).
    pub datagrams_sent: u64,
    /// Retransmitted datagrams.
    pub retransmissions: u64,
    /// Distinct datagrams received.
    pub datagrams_received: u64,
    /// Duplicate datagrams received (ignored for goodput).
    pub duplicates: u64,
    /// In-order bytes delivered to the application sink.
    pub bytes_delivered: u64,
    /// Completion time of the finite message, if one was configured and it
    /// finished: seconds from flow start.
    pub completion_time: Option<f64>,
    /// Time the first datagram was sent.
    pub start_time: Option<f64>,
}

/// Shared handle to the statistics of a flow.
pub type SharedFlowStats = Rc<RefCell<FlowStats>>;

/// Create a fresh shared statistics handle.
pub fn shared_stats() -> SharedFlowStats {
    Rc::new(RefCell::new(FlowStats::default()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_defaults_validate() {
        let c = FlowConfig::default();
        assert!(c.validate().is_ok());
        assert_eq!(c.total_datagrams(), None);
        let finite = FlowConfig {
            message_bytes: Some(10_000),
            mtu: 1000,
            ..FlowConfig::default()
        };
        assert_eq!(finite.total_datagrams(), Some(10));
        let tiny = FlowConfig {
            message_bytes: Some(1),
            mtu: 1000,
            ..FlowConfig::default()
        };
        assert_eq!(tiny.total_datagrams(), Some(1));
    }

    #[test]
    fn config_validation_rejects_bad_values() {
        let bad = |f: fn(&mut FlowConfig)| {
            let mut c = FlowConfig::default();
            f(&mut c);
            c.validate().is_err()
        };
        assert!(bad(|c| c.mtu = 0));
        assert!(bad(|c| c.window = 0));
        assert!(bad(|c| c.initial_sleep = 0.0));
        assert!(bad(|c| c.initial_sleep = f64::NAN));
        assert!(bad(|c| c.ack_every = 0));
        assert!(bad(|c| c.max_outstanding = 0));
    }

    #[test]
    fn ack_round_trip() {
        let ack = AckInfo {
            cumulative: 41,
            highest_seen: 64,
            missing: vec![42, 50, 63],
            sack: vec![(43, 49), (51, 62)],
            goodput_bps: 123456.78,
            received_count: 61,
        };
        let bytes = ack.encode();
        let decoded = AckInfo::decode(&bytes).unwrap();
        assert_eq!(decoded, ack);
    }

    #[test]
    fn ack_decode_rejects_garbage() {
        assert!(AckInfo::decode(&[]).is_none());
        assert!(AckInfo::decode(&[0u8; 39]).is_none());
        // Claiming more missing entries than bytes present.
        let mut bytes = AckInfo {
            cumulative: 0,
            highest_seen: 0,
            missing: vec![],
            sack: vec![],
            goodput_bps: 0.0,
            received_count: 0,
        }
        .encode();
        bytes[32] = 200; // missing count = 200 but no entries follow
        assert!(AckInfo::decode(&bytes).is_none());
    }
}
