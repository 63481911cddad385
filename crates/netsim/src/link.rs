//! Network links.
//!
//! A link models one direction of a wide-area virtual connection between two
//! overlay nodes (the paper calls these *virtual links*, Section 4.3): it has
//! a raw bandwidth `b_{i,j}` (bytes/second), a minimum link delay `d_{i,j}`
//! (propagation plus fixed equipment delay), a bounded FIFO queue, a loss
//! process and a cross-traffic process.
//!
//! Transmission of a datagram of wire size `s` that arrives at an idle link at
//! time `t` completes at `t + s / b_eff(t)` and is delivered to the remote
//! node at `t + s / b_eff(t) + d`, where `b_eff` is the raw bandwidth reduced
//! by the instantaneous cross-traffic load.  A busy link serializes datagrams
//! FIFO; datagrams whose queuing delay would exceed the configured limit are
//! dropped (tail drop), which is what closes the control loop for the
//! congestion-reactive transports.

use crate::crosstraffic::{CrossTraffic, CrossTrafficState};
use crate::dynamics::LinkChange;
use crate::loss::{LossModel, LossState};
use crate::node::NodeId;
use crate::rng::SimRng;
use crate::time::SimTime;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a directed link inside a topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct LinkId(pub usize);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// Static description of one direction of a link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// Raw link bandwidth in bytes per second.
    pub bandwidth_bps: f64,
    /// Minimum link delay (propagation + fixed equipment delay), seconds.
    pub min_delay: f64,
    /// Maximum queuing delay before tail drop, seconds.
    pub max_queue_delay: f64,
    /// Random loss process.
    pub loss: LossModel,
    /// Cross-traffic process.
    pub cross_traffic: CrossTraffic,
    /// Random per-datagram jitter added to the delivery time, seconds
    /// (uniform in `[0, jitter]`); models equipment-associated randomness.
    pub jitter: f64,
}

impl LinkSpec {
    /// A clean link with the given bandwidth (bytes/s) and minimum delay (s).
    pub fn new(bandwidth_bps: f64, min_delay: f64) -> Self {
        LinkSpec {
            bandwidth_bps,
            min_delay,
            max_queue_delay: 0.5,
            loss: LossModel::None,
            cross_traffic: CrossTraffic::None,
            jitter: 0.0,
        }
    }

    /// Convenience constructor taking megabits per second.
    pub fn from_mbps(mbps: f64, min_delay: f64) -> Self {
        Self::new(mbps * 1e6 / 8.0, min_delay)
    }

    /// Builder-style loss model.
    pub fn with_loss(mut self, loss: LossModel) -> Self {
        self.loss = loss;
        self
    }

    /// Builder-style cross traffic.
    pub fn with_cross_traffic(mut self, ct: CrossTraffic) -> Self {
        self.cross_traffic = ct;
        self
    }

    /// Builder-style jitter bound (seconds).
    pub fn with_jitter(mut self, jitter: f64) -> Self {
        self.jitter = jitter.max(0.0);
        self
    }

    /// Builder-style queue limit (seconds of queuing delay).
    pub fn with_queue_delay(mut self, max_queue_delay: f64) -> Self {
        self.max_queue_delay = max_queue_delay.max(0.0);
        self
    }

    /// Validate the specification.
    pub fn validate(&self) -> Result<(), String> {
        if !(self.bandwidth_bps.is_finite() && self.bandwidth_bps > 0.0) {
            return Err(format!(
                "link bandwidth must be positive, got {}",
                self.bandwidth_bps
            ));
        }
        if !(self.min_delay.is_finite() && self.min_delay >= 0.0) {
            return Err(format!(
                "link delay must be non-negative, got {}",
                self.min_delay
            ));
        }
        if self.jitter < 0.0 || !self.jitter.is_finite() {
            return Err("link jitter must be non-negative and finite".into());
        }
        Ok(())
    }

    /// The mean bandwidth effectively available once cross traffic is
    /// accounted for, in bytes/second.
    pub fn mean_effective_bandwidth(&self) -> f64 {
        self.bandwidth_bps * (1.0 - self.cross_traffic.mean_load())
    }
}

/// The outcome of offering a datagram to a link.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkOutcome {
    /// The datagram will be delivered at the contained time.
    Deliver(SimTime),
    /// The datagram was dropped by the random loss process.
    RandomLoss,
    /// The datagram was dropped because the queue limit was exceeded.
    QueueDrop,
}

/// Runtime state of a directed link.
#[derive(Debug)]
pub struct Link {
    /// Identifier of this link.
    pub id: LinkId,
    /// Transmitting node.
    pub from: NodeId,
    /// Receiving node.
    pub to: NodeId,
    /// Current parameters (mutable at runtime by scheduled link changes).
    pub spec: LinkSpec,
    /// The original parameters, which relative changes refer to (see
    /// [`crate::dynamics::LinkChange`]).
    base: LinkSpec,
    loss: LossState,
    cross: CrossTrafficState,
    /// Time at which the transmitter becomes free.
    busy_until: SimTime,
    jitter_rng: SimRng,
    stats: LinkStats,
}

/// Per-link counters.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct LinkStats {
    /// Datagrams offered to the link.
    pub offered: u64,
    /// Datagrams delivered to the remote node.
    pub delivered: u64,
    /// Datagrams dropped by the random loss process.
    pub random_losses: u64,
    /// Datagrams dropped at the queue.
    pub queue_drops: u64,
    /// Total payload bytes delivered.
    pub bytes_delivered: u64,
    /// Busy time accumulated by the transmitter, seconds.
    pub busy_time: f64,
}

impl LinkStats {
    /// Fraction of offered datagrams lost for any reason.
    pub fn loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            (self.random_losses + self.queue_drops) as f64 / self.offered as f64
        }
    }
}

impl Link {
    /// Instantiate the runtime state for a link.
    pub fn new(id: LinkId, from: NodeId, to: NodeId, spec: LinkSpec, rng: &mut SimRng) -> Self {
        let loss = spec.loss.instantiate();
        let cross = spec.cross_traffic.instantiate(rng);
        Link {
            id,
            from,
            to,
            base: spec.clone(),
            spec,
            loss,
            cross,
            busy_until: SimTime::ZERO,
            jitter_rng: rng.fork(0x11_77),
            stats: LinkStats::default(),
        }
    }

    /// Offer a datagram of `wire_bytes` to the link at time `now`.
    ///
    /// Returns when (and whether) the datagram reaches the remote node.
    pub fn offer(&mut self, now: SimTime, wire_bytes: usize, rng: &mut SimRng) -> LinkOutcome {
        self.stats.offered += 1;

        // Queue check: how long would this datagram wait before transmission?
        let wait = self.busy_until.saturating_sub(now);
        if wait.as_secs() > self.spec.max_queue_delay {
            self.stats.queue_drops += 1;
            return LinkOutcome::QueueDrop;
        }

        // Random loss (modelled at ingress; a lost datagram still does not
        // consume transmitter time, approximating loss on a downstream hop of
        // the underlying multi-hop physical path).
        if self.loss.should_drop(rng) {
            self.stats.random_losses += 1;
            return LinkOutcome::RandomLoss;
        }

        let start = self.busy_until.max(now);
        let load = self.cross.load_at(start.as_secs());
        let effective_bw = (self.spec.bandwidth_bps * (1.0 - load)).max(1.0);
        let tx_time = wire_bytes as f64 / effective_bw;
        let done = start + tx_time;
        self.busy_until = done;
        self.stats.busy_time += tx_time;

        let jitter = if self.spec.jitter > 0.0 {
            self.jitter_rng.uniform_range(0.0, self.spec.jitter)
        } else {
            0.0
        };
        let arrival = done + self.spec.min_delay + jitter;
        self.stats.delivered += 1;
        self.stats.bytes_delivered += wire_bytes as u64;
        LinkOutcome::Deliver(arrival)
    }

    /// Counters accumulated so far.
    pub fn stats(&self) -> &LinkStats {
        &self.stats
    }

    /// The time at which the transmitter becomes idle.
    pub fn busy_until(&self) -> SimTime {
        self.busy_until
    }

    /// Apply a runtime mutation.  Relative changes (bandwidth scaling,
    /// restore) refer to the link's *original* specification, so repeated
    /// application is idempotent.  A transmission already in progress keeps
    /// its old completion time; subsequent offers see the new parameters.
    pub fn apply_change(&mut self, change: &LinkChange, rng: &mut SimRng) {
        match change {
            LinkChange::ScaleBandwidth { factor } => {
                self.spec.bandwidth_bps = (self.base.bandwidth_bps * factor.max(0.0)).max(1.0);
            }
            LinkChange::SetCrossTraffic { model } => {
                self.spec.cross_traffic = model.clone();
                self.cross = model.instantiate(rng);
            }
            LinkChange::Restore => {
                self.spec = self.base.clone();
                self.cross = self.spec.cross_traffic.instantiate(rng);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_link(spec: LinkSpec) -> (Link, SimRng) {
        let mut rng = SimRng::new(5);
        let link = Link::new(LinkId(0), NodeId(0), NodeId(1), spec, &mut rng);
        (link, rng)
    }

    #[test]
    fn spec_constructors_and_validation() {
        let s = LinkSpec::from_mbps(100.0, 0.01);
        assert!((s.bandwidth_bps - 12.5e6).abs() < 1e-6);
        assert!(s.validate().is_ok());
        assert!(LinkSpec::new(0.0, 0.01).validate().is_err());
        assert!(LinkSpec::new(1e6, -1.0).validate().is_err());
        assert!(LinkSpec::new(1e6, 0.0).with_jitter(-1.0).validate().is_ok());
        assert!((s.mean_effective_bandwidth() - 12.5e6).abs() < 1e-6);
    }

    #[test]
    fn idle_link_delivers_with_serialization_plus_propagation() {
        // 1 MB/s link, 100 ms delay, 1000-byte datagram -> 1 ms + 100 ms.
        let (mut link, mut rng) = mk_link(LinkSpec::new(1e6, 0.1));
        match link.offer(SimTime::ZERO, 1000, &mut rng) {
            LinkOutcome::Deliver(t) => assert!((t.as_secs() - 0.101).abs() < 1e-9),
            other => panic!("unexpected outcome {other:?}"),
        }
        assert_eq!(link.stats().delivered, 1);
    }

    #[test]
    fn back_to_back_datagrams_serialize_fifo() {
        let (mut link, mut rng) = mk_link(LinkSpec::new(1e6, 0.0).with_queue_delay(10.0));
        let t1 = match link.offer(SimTime::ZERO, 1000, &mut rng) {
            LinkOutcome::Deliver(t) => t,
            o => panic!("{o:?}"),
        };
        let t2 = match link.offer(SimTime::ZERO, 1000, &mut rng) {
            LinkOutcome::Deliver(t) => t,
            o => panic!("{o:?}"),
        };
        assert!(t2 > t1);
        assert!((t2.as_secs() - 0.002).abs() < 1e-9);
    }

    #[test]
    fn queue_limit_drops_excess() {
        // Tiny queue: second datagram must be dropped because the first one
        // occupies the transmitter for 1 s.
        let (mut link, mut rng) = mk_link(LinkSpec::new(1000.0, 0.0).with_queue_delay(0.1));
        assert!(matches!(
            link.offer(SimTime::ZERO, 1000, &mut rng),
            LinkOutcome::Deliver(_)
        ));
        assert!(matches!(
            link.offer(SimTime::ZERO, 1000, &mut rng),
            LinkOutcome::QueueDrop
        ));
        assert_eq!(link.stats().queue_drops, 1);
        assert!(link.stats().loss_rate() > 0.0);
    }

    #[test]
    fn random_loss_is_applied() {
        let spec = LinkSpec::new(1e9, 0.0).with_loss(LossModel::Bernoulli { p: 1.0 });
        let (mut link, mut rng) = mk_link(spec);
        assert!(matches!(
            link.offer(SimTime::ZERO, 100, &mut rng),
            LinkOutcome::RandomLoss
        ));
        assert_eq!(link.stats().random_losses, 1);
    }

    #[test]
    fn cross_traffic_slows_transmission() {
        let clean = LinkSpec::new(1e6, 0.0);
        let loaded =
            LinkSpec::new(1e6, 0.0).with_cross_traffic(CrossTraffic::Constant { load: 0.5 });
        let (mut a, mut rng_a) = mk_link(clean);
        let (mut b, mut rng_b) = mk_link(loaded);
        let ta = match a.offer(SimTime::ZERO, 100_000, &mut rng_a) {
            LinkOutcome::Deliver(t) => t.as_secs(),
            o => panic!("{o:?}"),
        };
        let tb = match b.offer(SimTime::ZERO, 100_000, &mut rng_b) {
            LinkOutcome::Deliver(t) => t.as_secs(),
            o => panic!("{o:?}"),
        };
        assert!((ta - 0.1).abs() < 1e-9);
        assert!((tb - 0.2).abs() < 1e-6);
    }

    #[test]
    fn jitter_bounds_delivery_time() {
        let spec = LinkSpec::new(1e9, 0.01).with_jitter(0.005);
        let (mut link, mut rng) = mk_link(spec);
        for _ in 0..100 {
            if let LinkOutcome::Deliver(t) = link.offer(SimTime::ZERO, 10, &mut rng) {
                assert!(t.as_secs() >= 0.01);
                assert!(t.as_secs() <= 0.016);
            }
        }
    }

    #[test]
    fn throughput_accounting() {
        let (mut link, mut rng) = mk_link(LinkSpec::new(1e6, 0.0).with_queue_delay(100.0));
        for _ in 0..10 {
            link.offer(SimTime::ZERO, 1000, &mut rng);
        }
        assert_eq!(link.stats().bytes_delivered, 10_000);
    }
}
