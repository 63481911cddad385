//! Passive per-flow telemetry: monitoring that costs no probe traffic.
//!
//! The adaptive re-mapping control plane (DESIGN.md §8) needs up-to-date
//! estimates of what every virtual link currently delivers — without
//! injecting measurement traffic next to the data it would perturb.  Every
//! [`crate::sender::WindowSender`] therefore maintains a [`FlowTelemetry`]
//! record fed exclusively by signals the transport already produces:
//!
//! * **goodput** — the receiver's sliding-window goodput estimate carried
//!   back in every ACK, smoothed with an EWMA;
//! * **RTT** — one un-retransmitted datagram per round trip is used as a
//!   passive probe: the sample is the time from its transmission to the
//!   first ACK confirming it.  A probe that gets retransmitted is
//!   discarded (Karn's rule: the ACK would be ambiguous);
//! * **loss events** — NACK groups that survive the sender's staleness
//!   filters, i.e. the same signal that drives the rate controller.
//!
//! The struct is `serde`-serializable so controllers can log telemetry
//! snapshots alongside their decision traces.

use serde::{Deserialize, Serialize};

/// Default EWMA weight for goodput and RTT smoothing.
pub const DEFAULT_TELEMETRY_ALPHA: f64 = 0.3;

/// A passive telemetry snapshot of one transport flow.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub struct FlowTelemetry {
    /// The flow this telemetry describes.
    pub flow_id: u64,
    /// EWMA of the receiver-reported goodput, bytes/second (0 until the
    /// first ACK carries a positive estimate).
    pub goodput_bps: f64,
    /// EWMA of the passive round-trip-time samples, seconds (0 until the
    /// first sample).
    pub rtt_s: f64,
    /// Loss events observed (fresh NACK groups, one per controller
    /// back-off).
    pub loss_events: u64,
    /// Number of goodput observations folded into the EWMA.
    pub goodput_samples: u64,
    /// Number of RTT probes resolved.
    pub rtt_samples: u64,
    /// Virtual time of the first observation, seconds.
    pub first_update_s: f64,
    /// Virtual time of the latest observation, seconds.
    pub last_update_s: f64,
}

impl FlowTelemetry {
    /// Whether any goodput observation has arrived yet.
    pub fn has_signal(&self) -> bool {
        self.goodput_samples > 0
    }
}

/// Accumulates [`FlowTelemetry`] from the sender's existing signals.
#[derive(Debug, Clone)]
pub struct TelemetryCollector {
    telemetry: FlowTelemetry,
    alpha: f64,
    /// In-flight passive RTT probe: `(sequence, send time)`.
    probe: Option<(u64, f64)>,
}

impl TelemetryCollector {
    /// A collector for `flow_id` with the default EWMA weight.
    pub fn new(flow_id: u64) -> Self {
        TelemetryCollector::with_alpha(flow_id, DEFAULT_TELEMETRY_ALPHA)
    }

    /// A collector with an explicit EWMA weight in `(0, 1]`.
    pub fn with_alpha(flow_id: u64, alpha: f64) -> Self {
        TelemetryCollector {
            telemetry: FlowTelemetry {
                flow_id,
                ..FlowTelemetry::default()
            },
            alpha: alpha.clamp(1e-3, 1.0),
            probe: None,
        }
    }

    /// The telemetry accumulated so far.
    pub fn telemetry(&self) -> &FlowTelemetry {
        &self.telemetry
    }

    /// The sequence number of the outstanding RTT probe, if any.
    pub fn probe_seq(&self) -> Option<u64> {
        self.probe.map(|(seq, _)| seq)
    }

    /// Note a datagram transmission.  A fresh (non-retransmitted) datagram
    /// becomes the RTT probe when none is outstanding; retransmitting the
    /// current probe discards it (Karn's rule — the eventual ACK could be
    /// for either copy).
    pub fn note_sent(&mut self, seq: u64, now: f64, retransmission: bool) {
        match self.probe {
            Some((probe_seq, _)) if retransmission && probe_seq == seq => self.probe = None,
            None if !retransmission => self.probe = Some((seq, now)),
            _ => {}
        }
    }

    /// Resolve the outstanding probe against the sender's acknowledgement
    /// state (`acked(seq)` must reflect cumulative + SACK confirmation
    /// only).  Produces at most one RTT sample per probe.
    pub fn note_acked(&mut self, now: f64, acked: impl Fn(u64) -> bool) {
        if let Some((seq, sent_at)) = self.probe {
            if acked(seq) {
                let sample = (now - sent_at).max(0.0);
                let t = &mut self.telemetry;
                t.rtt_s = if t.rtt_samples == 0 {
                    sample
                } else {
                    self.alpha * sample + (1.0 - self.alpha) * t.rtt_s
                };
                t.rtt_samples += 1;
                self.touch(now);
                self.probe = None;
            }
        }
    }

    /// Fold a receiver-reported goodput observation into the EWMA.
    pub fn on_goodput(&mut self, goodput_bps: f64, now: f64) {
        if !(goodput_bps.is_finite() && goodput_bps > 0.0) {
            return;
        }
        let t = &mut self.telemetry;
        t.goodput_bps = if t.goodput_samples == 0 {
            goodput_bps
        } else {
            self.alpha * goodput_bps + (1.0 - self.alpha) * t.goodput_bps
        };
        t.goodput_samples += 1;
        self.touch(now);
    }

    /// Record `count` fresh loss events.
    pub fn on_loss(&mut self, count: u64, now: f64) {
        self.telemetry.loss_events += count;
        self.touch(now);
    }

    fn touch(&mut self, now: f64) {
        let t = &mut self.telemetry;
        if t.first_update_s == 0.0 && t.last_update_s == 0.0 {
            t.first_update_s = now;
        }
        t.last_update_s = t.last_update_s.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn goodput_ewma_tracks_observations() {
        let mut c = TelemetryCollector::with_alpha(7, 0.5);
        assert!(!c.telemetry().has_signal());
        c.on_goodput(100.0, 1.0);
        assert_eq!(c.telemetry().goodput_bps, 100.0);
        c.on_goodput(200.0, 2.0);
        assert!((c.telemetry().goodput_bps - 150.0).abs() < 1e-9);
        assert_eq!(c.telemetry().goodput_samples, 2);
        assert!(c.telemetry().has_signal());
        // Garbage observations are ignored.
        c.on_goodput(f64::NAN, 3.0);
        c.on_goodput(-1.0, 3.0);
        assert_eq!(c.telemetry().goodput_samples, 2);
    }

    #[test]
    fn rtt_probe_resolves_once_and_respects_karn() {
        let mut c = TelemetryCollector::new(1);
        c.note_sent(0, 0.0, false);
        assert_eq!(c.probe_seq(), Some(0));
        // A later fresh send does not replace the outstanding probe.
        c.note_sent(1, 0.01, false);
        assert_eq!(c.probe_seq(), Some(0));
        c.note_acked(0.05, |s| s == 0);
        assert!((c.telemetry().rtt_s - 0.05).abs() < 1e-12);
        assert_eq!(c.telemetry().rtt_samples, 1);
        assert_eq!(c.probe_seq(), None);
        // New probe; retransmitting it discards the sample (Karn).
        c.note_sent(5, 0.1, false);
        c.note_sent(5, 0.2, true);
        assert_eq!(c.probe_seq(), None);
        c.note_acked(0.3, |_| true);
        assert_eq!(c.telemetry().rtt_samples, 1);
    }

    #[test]
    fn loss_rate_needs_a_span() {
        let mut c = TelemetryCollector::new(1);
        c.on_loss(2, 1.0);
        let t = c.telemetry();
        assert_eq!(t.last_update_s - t.first_update_s, 0.0);
        c.on_loss(2, 5.0);
        let t = c.telemetry();
        assert_eq!(t.last_update_s - t.first_update_s, 4.0);
        assert_eq!(t.loss_events, 4);
    }

    #[test]
    fn telemetry_serializes() {
        let mut c = TelemetryCollector::new(9);
        c.on_goodput(1e6, 1.0);
        let json = serde_json::to_string(c.telemetry()).unwrap();
        let back: FlowTelemetry = serde_json::from_str(&json).unwrap();
        assert_eq!(&back, c.telemetry());
    }
}
