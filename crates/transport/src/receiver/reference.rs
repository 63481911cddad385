//! The per-datagram reference receiver the differential tests compare
//! [`super::FlowReceiver`] against: one `BTreeSet` entry per buffered
//! datagram, a walk over every sequence number for the NACK list, a
//! re-summed goodput window.  Every ACK the run-set receiver emits must be
//! byte-identical to this one's; change neither without the other.

use crate::flow::{
    AckInfo, FlowConfig, SharedFlowStats, KIND_ACK, KIND_DATA, MAX_NACKS_PER_ACK,
    MAX_SACK_RANGES_PER_ACK, NO_CUMULATIVE,
};
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::node::NodeId;
use ricsa_netsim::packet::{Datagram, Payload};
use ricsa_netsim::time::SimTime;
use ricsa_netsim::trace::{TraceEvent, TraceKind};
use std::collections::{BTreeSet, VecDeque};

pub(super) struct ReferenceReceiver {
    config: FlowConfig,
    sender: NodeId,
    stats: SharedFlowStats,
    /// Highest sequence number such that all `<= cumulative` are received.
    cumulative: Option<u64>,
    /// Out-of-order datagrams above the cumulative point.
    pending: BTreeSet<u64>,
    highest_seen: Option<u64>,
    received_count: u64,
    /// Recent arrivals `(time_secs, bytes)` kept for the sliding-window
    /// goodput estimate.
    recent_arrivals: VecDeque<(f64, u64)>,
    /// First arrival time, so early estimates use the true elapsed span.
    first_arrival: Option<f64>,
    ack_timer_pending: bool,
    since_last_ack: u32,
    /// Distinct datagram count at the previous periodic-ACK tick, used to
    /// detect a quiet flow (no arrivals for a full ACK interval).
    received_at_last_tick: u64,
    /// Per-hole NACK schedule: `(earliest re-report time, current backoff)`.
    /// A hole is only reported once it has stayed missing for the reorder
    /// window (jittered links reorder heavily, and NACKing a datagram that
    /// is merely late triggers a useless retransmission).  After each
    /// report the backoff doubles: the receiver does not know the path
    /// round-trip time, and on a bufferbloated path re-asking faster than
    /// the queue drains turns every hole into a duplicate storm.
    nack_schedule: std::collections::BTreeMap<u64, (f64, f64)>,
    pub(super) goodput_estimate: f64,
    finished: bool,
}

impl ReferenceReceiver {
    /// Create a receiver for `config`, acknowledging back to `sender`.
    pub(super) fn new(config: FlowConfig, sender: NodeId, stats: SharedFlowStats) -> Self {
        ReferenceReceiver {
            config,
            sender,
            stats,
            cumulative: None,
            pending: BTreeSet::new(),
            highest_seen: None,
            received_count: 0,
            recent_arrivals: VecDeque::new(),
            first_arrival: None,
            ack_timer_pending: false,
            since_last_ack: 0,
            received_at_last_tick: 0,
            nack_schedule: std::collections::BTreeMap::new(),
            goodput_estimate: 0.0,
            finished: false,
        }
    }

    /// Width of the sliding window used for goodput estimation, seconds.
    fn goodput_window(&self) -> f64 {
        (self.config.ack_interval * 4.0).max(0.2)
    }

    /// Whether the configured finite message has been fully received.
    pub(super) fn is_finished(&self) -> bool {
        self.finished
    }

    fn advance_cumulative(&mut self) {
        loop {
            let next = match self.cumulative {
                None => 0,
                Some(c) => c + 1,
            };
            if self.pending.remove(&next) {
                self.cumulative = Some(next);
            } else {
                break;
            }
        }
    }

    /// Sequence numbers in `(cumulative, end)` that have not arrived,
    /// bounded by `cap`.
    fn missing_up_to(&self, end: u64, cap: usize) -> Vec<u64> {
        if self.highest_seen.is_none() {
            return Vec::new();
        }
        let start = self.cumulative.map(|c| c + 1).unwrap_or(0);
        let mut missing = Vec::new();
        for seq in start..end {
            if !self.pending.contains(&seq) {
                missing.push(seq);
                if missing.len() >= cap {
                    break;
                }
            }
        }
        missing
    }

    /// The NACK list for one acknowledgement.  While data is flowing the
    /// list covers holes below the highest sequence seen (anything above may
    /// simply still be in flight).  When a finite flow has gone *quiet* —
    /// a periodic ACK tick passed with no arrivals — everything in flight
    /// has either landed or died, so the missing range extends to the full
    /// message: this is what lets a lost final datagram (which no later
    /// arrival can reveal) be NACKed instead of waiting out the sender's
    /// retransmission timeout.
    ///
    /// Two timing guards keep the list honest on jittered links: a hole is
    /// reported only after it has stayed missing for the reorder window
    /// (`nack_delay` — kept even when quiet, since a long in-flight leg can
    /// outlast an ACK interval), and a reported hole is not re-reported
    /// until the retransmission had time to arrive.
    fn missing_for_ack(&mut self, now: f64, quiet: bool) -> Vec<u64> {
        let end = match (quiet, self.config.total_datagrams()) {
            (true, Some(total)) => total,
            _ => self.highest_seen.unwrap_or(0),
        };
        // Scan past the per-ACK cap so throttled low holes cannot starve
        // eligible higher ones.
        let holes = self.missing_up_to(end, 4 * MAX_NACKS_PER_ACK);
        // Forget tracked holes that have been filled in the meantime.
        let still_missing: std::collections::BTreeSet<u64> = holes.iter().copied().collect();
        self.nack_schedule
            .retain(|seq, _| still_missing.contains(seq));
        let nack_delay = self.config.nack_delay.max(0.0);
        let first_backoff = (2.0 * self.config.ack_interval).max(nack_delay);
        const MAX_BACKOFF: f64 = 2.0;
        let mut missing = Vec::new();
        for seq in holes {
            let (eligible_at, backoff) = *self
                .nack_schedule
                .entry(seq)
                .or_insert((now + nack_delay, first_backoff));
            if now >= eligible_at {
                missing.push(seq);
                self.nack_schedule
                    .insert(seq, (now + backoff, (backoff * 2.0).min(MAX_BACKOFF)));
                if missing.len() >= MAX_NACKS_PER_ACK {
                    break;
                }
            }
        }
        missing
    }

    /// Coalesce the out-of-order buffer into inclusive SACK ranges,
    /// truncated to [`MAX_SACK_RANGES_PER_ACK`] (lowest ranges first — they
    /// are the ones that let the sender clear its oldest outstanding state).
    fn sack_ranges(&self) -> Vec<(u64, u64)> {
        let mut ranges: Vec<(u64, u64)> = Vec::new();
        for &seq in &self.pending {
            match ranges.last_mut() {
                Some((_, hi)) if *hi + 1 == seq => *hi = seq,
                _ => {
                    if ranges.len() >= MAX_SACK_RANGES_PER_ACK {
                        break;
                    }
                    ranges.push((seq, seq));
                }
            }
        }
        ranges
    }

    fn send_ack(&mut self, ctx: &mut Context) {
        self.send_ack_inner(ctx, false)
    }

    fn send_ack_inner(&mut self, ctx: &mut Context, quiet: bool) {
        let now = ctx.now();
        let now_s = now.as_secs();
        // Goodput over a sliding window: robust to the burst/sleep pattern of
        // the sender, unlike a per-ACK-interval estimate.
        let window = self.goodput_window();
        while let Some(&(t, _)) = self.recent_arrivals.front() {
            if now_s - t > window {
                self.recent_arrivals.pop_front();
            } else {
                break;
            }
        }
        let bytes_in_window: u64 = self.recent_arrivals.iter().map(|(_, b)| b).sum();
        let span = match self.first_arrival {
            Some(first) => (now_s - first).clamp(1e-6, window),
            None => window,
        };
        self.goodput_estimate = bytes_in_window as f64 / span.max(1e-6);
        self.since_last_ack = 0;

        let missing = self.missing_for_ack(now_s, quiet);
        let ack = AckInfo {
            cumulative: self.cumulative.unwrap_or(NO_CUMULATIVE),
            highest_seen: self.highest_seen.unwrap_or(0),
            missing,
            sack: self.sack_ranges(),
            goodput_bps: self.goodput_estimate,
            received_count: self.received_count,
        };
        let payload = Payload::with_data(KIND_ACK, self.config.flow_id, 0, ack.encode());
        ctx.send(self.sender, payload);

        let mut stats = self.stats.borrow_mut();
        stats
            .goodput_samples
            .push((now.as_secs(), self.goodput_estimate));
        ctx.trace(TraceEvent::new(TraceKind::Goodput {
            flow: self.config.flow_id,
            bytes_per_sec: self.goodput_estimate,
        }));
    }

    fn check_completion(&mut self, ctx: &mut Context) {
        if self.finished {
            return;
        }
        if let Some(total) = self.config.total_datagrams() {
            let done = self
                .cumulative
                .map(|c| c + 1 >= total)
                .unwrap_or(total == 0);
            if done {
                self.finished = true;
                let now = ctx.now();
                let mut stats = self.stats.borrow_mut();
                let start = stats.start_time.unwrap_or(0.0);
                let latency = now.as_secs() - start;
                stats.completion_time = Some(latency);
                let bytes = self.config.message_bytes.unwrap_or(0);
                drop(stats);
                ctx.trace(TraceEvent::new(TraceKind::MessageDelivered {
                    flow: self.config.flow_id,
                    bytes,
                    latency,
                }));
            }
        }
    }
}

impl Application for ReferenceReceiver {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ack_timer_pending = true;
        ctx.set_timer(SimTime::from_secs(self.config.ack_interval));
    }

    fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
        if dg.payload.kind != KIND_DATA || dg.payload.flow != self.config.flow_id {
            return;
        }
        let seq = dg.payload.seq;
        let already =
            self.cumulative.map(|c| seq <= c).unwrap_or(false) || self.pending.contains(&seq);
        let mut stats = self.stats.borrow_mut();
        if already {
            stats.duplicates += 1;
            drop(stats);
            // A duplicate arriving after completion means the sender missed
            // the final cumulative ACK (it is lost like any datagram) and is
            // retransmitting the tail; the periodic ACK stops once finished,
            // so re-acknowledge here or the sender retries forever.
            if self.finished {
                self.send_ack(ctx);
            }
            return;
        }
        stats.datagrams_received += 1;
        stats.bytes_delivered += dg.payload.size as u64;
        drop(stats);
        self.received_count += 1;
        let now_s = ctx.now().as_secs();
        if self.first_arrival.is_none() {
            self.first_arrival = Some(now_s);
        }
        self.recent_arrivals
            .push_back((now_s, dg.payload.size as u64));
        self.highest_seen = Some(self.highest_seen.map_or(seq, |h| h.max(seq)));
        self.pending.insert(seq);
        self.advance_cumulative();
        self.since_last_ack += 1;
        if self.since_last_ack >= self.config.ack_every {
            self.send_ack(ctx);
        }
        let was_finished = self.finished;
        self.check_completion(ctx);
        if self.finished && !was_finished {
            // Final cumulative ACK so the sender can retire the flow; without
            // it the sender would wait for the next periodic ACK that never
            // comes once the receiver stops.
            self.send_ack(ctx);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context, _timer_id: u64) {
        // Periodic ACK so the sender keeps getting goodput feedback (and
        // NACKs) even when data arrival stalls.  A tick with no arrivals at
        // all strongly suggests everything in flight has landed or died, so
        // the NACK *range* extends to the end of a finite message — but the
        // per-hole reorder delay still applies, so datagrams merely sitting
        // in a deep queue are not condemned on the first quiet tick.
        if self.received_count > 0 && !self.finished {
            let quiet = self.received_count == self.received_at_last_tick;
            self.send_ack_inner(ctx, quiet);
        }
        self.received_at_last_tick = self.received_count;
        ctx.set_timer(SimTime::from_secs(self.config.ack_interval));
    }
}
