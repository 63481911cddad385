//! The flow receiver: datagram reordering, ACK/NACK generation, goodput
//! measurement (the right-hand side of the paper's Fig. 2).

use crate::flow::{
    AckInfo, FlowConfig, SharedFlowStats, KIND_ACK, KIND_DATA, MAX_NACKS_PER_ACK,
    MAX_SACK_RANGES_PER_ACK, NO_CUMULATIVE,
};
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::node::NodeId;
use ricsa_netsim::packet::{Datagram, Payload};
use ricsa_netsim::time::SimTime;
use std::collections::{BTreeMap, VecDeque};

#[cfg(test)]
mod reference;

/// Receiver half of a transport flow.
///
/// The receiver buffers out-of-order datagrams, delivers in-order bytes to an
/// (accounted, not materialized) sink, estimates goodput over the interval
/// since the previous acknowledgement and reports it back to the sender in
/// every ACK, together with cumulative and selective (NACK) feedback.
pub struct FlowReceiver {
    config: FlowConfig,
    sender: NodeId,
    stats: SharedFlowStats,
    /// Highest sequence number such that all `<= cumulative` are received.
    cumulative: Option<u64>,
    /// Out-of-order datagrams above the cumulative point, as maximal runs
    /// `lo -> hi` (inclusive, merged on insert): the set costs one entry per
    /// hole, not one per buffered datagram, and so does every ACK built
    /// from it.  The first run starts above `cumulative + 1`.
    runs: BTreeMap<u64, u64>,
    highest_seen: Option<u64>,
    received_count: u64,
    /// Recent arrivals `(time_secs, bytes)` kept for the sliding-window
    /// goodput estimate, and the sum of their bytes.
    recent_arrivals: VecDeque<(f64, u64)>,
    recent_bytes: u64,
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
    nack_schedule: BTreeMap<u64, (f64, f64)>,
    goodput_estimate: f64,
    finished: bool,
}

impl FlowReceiver {
    /// Create a receiver for `config`, acknowledging back to `sender`.
    pub fn new(config: FlowConfig, sender: NodeId, stats: SharedFlowStats) -> Self {
        FlowReceiver {
            config,
            sender,
            stats,
            cumulative: None,
            runs: BTreeMap::new(),
            highest_seen: None,
            received_count: 0,
            recent_arrivals: VecDeque::new(),
            recent_bytes: 0,
            first_arrival: None,
            ack_timer_pending: false,
            since_last_ack: 0,
            received_at_last_tick: 0,
            nack_schedule: BTreeMap::new(),
            goodput_estimate: 0.0,
            finished: false,
        }
    }

    /// The sliding-window goodput estimate, bytes/second.
    pub fn goodput_estimate(&self) -> f64 {
        self.goodput_estimate
    }

    /// Width of the sliding window used for goodput estimation, seconds.
    fn goodput_window(&self) -> f64 {
        (self.config.ack_interval * 4.0).max(0.2)
    }

    /// Whether the configured finite message has been fully received.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// The lowest sequence number not yet covered by the cumulative point.
    fn next_expected(&self) -> u64 {
        self.cumulative.map_or(0, |c| c + 1)
    }

    /// Record the arrival of `seq`; `false` when it is a duplicate.
    fn record(&mut self, seq: u64) -> bool {
        let next = self.next_expected();
        if seq < next {
            return false;
        }
        if seq == next {
            // In order: the cumulative point moves, over the run that
            // started right behind the filled hole if there is one.
            let absorbed = match self.runs.first_entry() {
                Some(run) if *run.key() == seq + 1 => run.remove(),
                _ => seq,
            };
            self.cumulative = Some(absorbed);
            return true;
        }
        let below = self.runs.range(..=seq).next_back();
        let below = below.map(|(&lo, &hi)| (lo, hi));
        if below.is_some_and(|(_, hi)| hi >= seq) {
            return false;
        }
        let lo = match below {
            Some((lo, hi)) if hi + 1 == seq => lo,
            _ => seq,
        };
        let hi = self.runs.remove(&(seq + 1)).unwrap_or(seq);
        self.runs.insert(lo, hi);
        true
    }

    #[cfg(test)]
    fn missing_below_highest(&self) -> Vec<u64> {
        self.missing_up_to(self.highest_seen.unwrap_or(0), MAX_NACKS_PER_ACK)
    }

    /// Sequence numbers in `(cumulative, end)` that have not arrived,
    /// bounded by `cap`: the gaps between the runs, then the tail to `end`.
    fn missing_up_to(&self, end: u64, cap: usize) -> Vec<u64> {
        let mut missing = Vec::new();
        if self.highest_seen.is_none() {
            return missing;
        }
        let mut cursor = self.next_expected();
        for (&lo, &hi) in &self.runs {
            if lo >= end || missing.len() >= cap {
                break;
            }
            missing.extend((cursor..lo).take(cap - missing.len()));
            cursor = hi + 1;
        }
        missing.extend((cursor..end).take(cap - missing.len()));
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
        // Forget tracked holes that have been filled in the meantime
        // (`holes` is ascending).
        self.nack_schedule
            .retain(|seq, _| holes.binary_search(seq).is_ok());
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

    /// The out-of-order buffer as inclusive SACK ranges, truncated to
    /// [`MAX_SACK_RANGES_PER_ACK`] (lowest ranges first — they are the ones
    /// that let the sender clear its oldest outstanding state).
    fn sack_ranges(&self) -> Vec<(u64, u64)> {
        let lowest = self.runs.iter().take(MAX_SACK_RANGES_PER_ACK);
        lowest.map(|(&lo, &hi)| (lo, hi)).collect()
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
        while let Some(&(t, bytes)) = self.recent_arrivals.front() {
            if now_s - t > window {
                self.recent_arrivals.pop_front();
                self.recent_bytes -= bytes;
            } else {
                break;
            }
        }
        let bytes_in_window = self.recent_bytes;
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

        let sample = (now_s, self.goodput_estimate);
        self.stats.borrow_mut().goodput_samples.push(sample);
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
                let mut stats = self.stats.borrow_mut();
                let start = stats.start_time.unwrap_or(0.0);
                stats.completion_time = Some(ctx.now().as_secs() - start);
            }
        }
    }
}

impl Application for FlowReceiver {
    fn on_start(&mut self, ctx: &mut Context) {
        self.ack_timer_pending = true;
        ctx.set_timer(
            SimTime::from_secs(self.config.ack_interval),
            self.config.flow_id,
        );
    }

    fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
        if dg.payload.kind != KIND_DATA || dg.payload.flow != self.config.flow_id {
            return;
        }
        let seq = dg.payload.seq;
        let fresh = self.record(seq);
        let mut stats = self.stats.borrow_mut();
        if !fresh {
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
        self.recent_bytes += dg.payload.size as u64;
        self.highest_seen = Some(self.highest_seen.map_or(seq, |h| h.max(seq)));
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

    fn on_timer(&mut self, ctx: &mut Context, _key: u64) {
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
        ctx.set_timer(
            SimTime::from_secs(self.config.ack_interval),
            self.config.flow_id,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::reference::ReferenceReceiver;
    use super::*;
    use crate::flow::shared_stats;
    use ricsa_netsim::app::Context;

    fn mk_receiver(message_bytes: Option<usize>) -> (FlowReceiver, SharedFlowStats) {
        let stats = shared_stats();
        let config = FlowConfig {
            mtu: 100,
            ack_every: 4,
            message_bytes,
            ..FlowConfig::default()
        };
        (FlowReceiver::new(config, NodeId(0), stats.clone()), stats)
    }

    fn data(seq: u64, size: usize) -> Datagram {
        Datagram {
            dst: NodeId(1),
            payload: Payload::sized(KIND_DATA, 1, seq, size),
        }
    }

    fn ctx_at(secs: f64) -> Context {
        Context::new(NodeId(1), SimTime::from_secs(secs), vec![0.5])
    }

    #[test]
    fn in_order_delivery_advances_cumulative() {
        let (mut rx, stats) = mk_receiver(None);
        let mut ctx = ctx_at(0.0);
        for seq in 0..3 {
            rx.on_datagram(&mut ctx, data(seq, 100));
        }
        assert_eq!(rx.cumulative, Some(2));
        assert_eq!(stats.borrow().datagrams_received, 3);
        assert_eq!(stats.borrow().bytes_delivered, 300);
    }

    #[test]
    fn out_of_order_datagrams_are_reordered() {
        let (mut rx, _stats) = mk_receiver(None);
        let mut ctx = ctx_at(0.0);
        rx.on_datagram(&mut ctx, data(2, 100));
        rx.on_datagram(&mut ctx, data(0, 100));
        assert_eq!(rx.cumulative, Some(0));
        assert_eq!(rx.missing_below_highest(), vec![1]);
        rx.on_datagram(&mut ctx, data(1, 100));
        assert_eq!(rx.cumulative, Some(2));
        assert!(rx.missing_below_highest().is_empty());
    }

    #[test]
    fn duplicates_are_counted_not_delivered() {
        let (mut rx, stats) = mk_receiver(None);
        let mut ctx = ctx_at(0.0);
        rx.on_datagram(&mut ctx, data(0, 100));
        rx.on_datagram(&mut ctx, data(0, 100));
        assert_eq!(stats.borrow().datagrams_received, 1);
        assert_eq!(stats.borrow().duplicates, 1);
    }

    #[test]
    fn ack_emitted_every_n_datagrams_with_goodput() {
        let (mut rx, stats) = mk_receiver(None);
        let mut ctx = ctx_at(1.0);
        for seq in 0..4 {
            rx.on_datagram(&mut ctx, data(seq, 100));
        }
        // ack_every = 4, so exactly one ACK should have been queued.
        assert_eq!(ctx.outgoing().len(), 1);
        let ack = AckInfo::decode(&ctx.outgoing()[0].payload.data).unwrap();
        assert_eq!(ack.cumulative, 3);
        assert_eq!(ack.received_count, 4);
        assert!(ack.goodput_bps > 0.0);
        assert_eq!(stats.borrow().goodput_samples.len(), 1);
    }

    #[test]
    fn wrong_flow_or_kind_is_ignored() {
        let (mut rx, stats) = mk_receiver(None);
        let mut ctx = ctx_at(0.0);
        let mut other_flow = data(0, 100);
        other_flow.payload.flow = 99;
        rx.on_datagram(&mut ctx, other_flow);
        let mut ack_kind = data(0, 100);
        ack_kind.payload.kind = KIND_ACK;
        rx.on_datagram(&mut ctx, ack_kind);
        assert_eq!(stats.borrow().datagrams_received, 0);
    }

    #[test]
    fn finite_message_completion_is_recorded() {
        let (mut rx, stats) = mk_receiver(Some(250)); // 3 datagrams at mtu=100
        stats.borrow_mut().start_time = Some(1.0);
        let mut ctx = ctx_at(2.5);
        for seq in 0..3 {
            rx.on_datagram(&mut ctx, data(seq, 100));
        }
        assert!(rx.is_finished());
        let completion = stats.borrow().completion_time.unwrap();
        assert!((completion - 1.5).abs() < 1e-9);
    }

    #[test]
    fn nack_list_is_bounded() {
        let (mut rx, _stats) = mk_receiver(None);
        let mut ctx = ctx_at(0.0);
        // Receive only every other datagram over a long range: many gaps.
        for seq in (0..400).step_by(2) {
            rx.on_datagram(&mut ctx, data(seq, 10));
        }
        assert!(rx.missing_below_highest().len() <= MAX_NACKS_PER_ACK);
    }

    /// The run-set receiver and the per-datagram reference, fed the same
    /// callbacks: every side effect of every callback must match.
    struct Pair {
        new: FlowReceiver,
        old: ReferenceReceiver,
        stats: [SharedFlowStats; 2],
    }

    impl Pair {
        fn new(config: FlowConfig) -> Self {
            let stats = [shared_stats(), shared_stats()];
            Pair {
                new: FlowReceiver::new(config.clone(), NodeId(0), stats[0].clone()),
                old: ReferenceReceiver::new(config, NodeId(0), stats[1].clone()),
                stats,
            }
        }

        /// Run one callback on both receivers at `now` and return the ACKs
        /// it made them send, after checking they sent the same bytes.
        fn both(
            &mut self,
            now: f64,
            f: impl Fn(&mut dyn Application, &mut Context),
        ) -> Vec<AckInfo> {
            let mut ctx_new = Context::new(NodeId(1), SimTime::from_secs(now), vec![]);
            let mut ctx_old = Context::new(NodeId(1), SimTime::from_secs(now), vec![]);
            f(&mut self.new, &mut ctx_new);
            f(&mut self.old, &mut ctx_old);
            let (sent_new, sent_old) = (ctx_new.outgoing(), ctx_old.outgoing());
            assert_eq!(sent_new.len(), sent_old.len(), "ACK count at t = {now}");
            for (a, b) in sent_new.iter().zip(sent_old) {
                assert_eq!(a.dst, b.dst);
                assert_eq!(a.payload, b.payload, "ACK bytes at t = {now}");
            }
            let timers = |ctx: &Context| -> Vec<(u64, f64)> {
                let armed = ctx.scheduled_timers().iter();
                armed.map(|t| (t.timer_id, t.delay.as_secs())).collect()
            };
            assert_eq!(timers(&ctx_new), timers(&ctx_old));
            assert_eq!(self.new.is_finished(), self.old.is_finished());
            assert_eq!(self.new.goodput_estimate, self.old.goodput_estimate);
            let acks = sent_new.iter().map(|s| AckInfo::decode(&s.payload.data));
            acks.map(|ack| ack.expect("receivers send well-formed ACKs"))
                .collect()
        }
    }

    /// What the 200 schedules exercised between them.
    #[derive(Default)]
    struct Coverage {
        acks: u64,
        duplicates: u64,
        retransmitted: u64,
        nack_cap_hit: u32,
        scan_cap_hit: u32,
        sack_cap_hit: u32,
        quiet_extension: u32,
    }

    /// One seeded arrival schedule: a sender model pushes `total` datagrams
    /// through a lossy, reordering, duplicating channel, retransmits what
    /// the ACKs report missing, and the periodic tick fires on time —
    /// including over stretches with no arrivals at all.
    fn run_schedule(seed: u64, seen: &mut Coverage) {
        use ricsa_netsim::rng::SimRng;
        let mut rng = SimRng::new(seed);
        let total = 20 + rng.index(if seed.is_multiple_of(8) { 1200 } else { 300 }) as u64;
        let finite = seed.is_multiple_of(2);
        let config = FlowConfig {
            mtu: 100,
            ack_every: [1, 2, 4, 8, 32][rng.index(5)],
            nack_delay: [0.0, 0.01][rng.index(2)],
            message_bytes: finite.then_some(total as usize * 100 - 40),
            ..FlowConfig::default()
        };
        let tick = config.ack_interval;
        let (loss, reorder, dup) = (
            rng.uniform_range(0.0, 0.3),
            rng.uniform_range(0.0, 0.4),
            rng.uniform_range(0.0, 0.2),
        );
        // Some schedules lose a long stretch outright (more holes than one
        // ACK scans), some every other datagram of one (more runs than one
        // ACK carries); both only on first transmission.
        let stretch = rng.index(total as usize) as u64;
        let stretch = stretch..stretch + [0, 0, 300, 700][rng.index(4)];
        let alternate = seed.is_multiple_of(3);
        let mut first_try = vec![true; total as usize];

        let mut pair = Pair::new(config);
        pair.both(0.0, |rx, ctx| rx.on_start(ctx));
        let mut wire: VecDeque<u64> = (0..total).collect();
        let mut late: Vec<(f64, u64)> = Vec::new();
        let (mut now, mut next_tick, mut idle_ticks) = (0.0, tick, 0);
        let mut acks: Vec<AckInfo> = Vec::new();
        for _ in 0..200_000 {
            now += rng.uniform_range(0.0002, 0.004);
            if wire.is_empty() && late.is_empty() {
                // Nothing in flight: the next thing to happen is a tick.
                now = next_tick;
                idle_ticks += 1;
            }
            while next_tick <= now {
                acks.extend(pair.both(next_tick, |rx, ctx| rx.on_timer(ctx, 0)));
                next_tick += tick;
            }
            let mut arrivals: Vec<u64> = Vec::new();
            late.retain(|&(due, seq)| {
                let released = due <= now;
                if released {
                    arrivals.push(seq);
                }
                !released
            });
            if let Some(seq) = wire.pop_front() {
                let doomed = std::mem::take(&mut first_try[seq as usize])
                    && stretch.contains(&seq)
                    && (!alternate || seq % 2 == 0);
                if doomed || rng.coin(loss) {
                } else if rng.coin(reorder) {
                    late.push((now + rng.uniform_range(0.001, 0.08), seq));
                } else {
                    arrivals.push(seq);
                    if rng.coin(dup) {
                        arrivals.push(seq);
                    }
                }
            }
            for seq in arrivals {
                acks.extend(pair.both(now, |rx, ctx| rx.on_datagram(ctx, data(seq, 100))));
            }
            for ack in acks.drain(..) {
                seen.acks += 1;
                seen.nack_cap_hit += u32::from(ack.missing.len() == MAX_NACKS_PER_ACK);
                seen.sack_cap_hit += u32::from(ack.sack.len() == MAX_SACK_RANGES_PER_ACK);
                // Everything received lies at or below `highest_seen`.
                let holes = ack.highest_seen + 1 - ack.received_count;
                seen.scan_cap_hit += u32::from(holes > 4 * MAX_NACKS_PER_ACK as u64);
                let beyond = |seq: &u64| *seq > ack.highest_seen;
                seen.quiet_extension += u32::from(ack.missing.iter().any(beyond));
                // The sender model: retransmit what the receiver asks for.
                seen.retransmitted += ack.missing.len() as u64;
                wire.extend(ack.missing.iter().filter(|seq| **seq < total));
            }
            if pair.new.is_finished() || (!finite && idle_ticks > 6) {
                break;
            }
        }
        if pair.new.is_finished() {
            // The sender missed the final ACK and retransmits the tail.
            let again = pair.both(now + 0.3, |rx, ctx| {
                rx.on_datagram(ctx, data(total - 1, 60))
            });
            assert_eq!(again.len(), 1);
        }
        assert_eq!(pair.new.is_finished(), finite, "seed {seed}");
        assert_eq!(*pair.stats[0].borrow(), *pair.stats[1].borrow());
        seen.duplicates += pair.stats[0].borrow().duplicates;
    }

    #[test]
    fn every_ack_matches_the_per_datagram_reference_byte_for_byte() {
        let mut seen = Coverage::default();
        for seed in 0..200 {
            run_schedule(seed, &mut seen);
        }
        assert!(seen.acks > 10_000, "{} ACKs compared", seen.acks);
        assert!(seen.duplicates > 500 && seen.retransmitted > 500);
        assert!(seen.nack_cap_hit > 0 && seen.scan_cap_hit > 0 && seen.sack_cap_hit > 0);
        assert!(
            seen.quiet_extension > 0,
            "no quiet tick reached past highest_seen"
        );
    }

    #[test]
    fn fifty_thousand_datagrams_behind_one_hole_are_one_run() {
        let (mut rx, _stats) = mk_receiver(None);
        let mut ctx = ctx_at(0.0);
        for seq in (1..=50_000).filter(|seq| *seq != 30_000) {
            rx.on_datagram(&mut ctx, data(seq, 10));
        }
        // Two holes, two runs: the ACK below is built from these two
        // entries, whatever the number of datagrams they stand for.
        assert_eq!(rx.runs.len(), 2);
        rx.on_datagram(&mut ctx, data(30_000, 10));
        assert_eq!(rx.runs.iter().collect::<Vec<_>>(), [(&1, &50_000)]);
        let mut later = ctx_at(1.0);
        rx.send_ack(&mut later);
        let ack = AckInfo::decode(&later.outgoing()[0].payload.data).unwrap();
        assert_eq!((ack.cumulative, ack.highest_seen), (NO_CUMULATIVE, 50_000));
        assert_eq!((ack.missing, ack.sack), (vec![0], vec![(1, 50_000)]));
        rx.on_datagram(&mut later, data(0, 10));
        assert_eq!(rx.cumulative, Some(50_000));
        assert!(rx.runs.is_empty());
    }
}
