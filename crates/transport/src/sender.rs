//! The window-based sender (left-hand side of the paper's Fig. 2).
//!
//! The sender transmits a full congestion window of `Wc` datagrams, then
//! idles for the controller's sleep time `Ts`, repeating until the message
//! (if finite) is fully acknowledged.  Arriving ACKs update the cumulative /
//! selective acknowledgement state, trigger retransmission of NACKed
//! datagrams, and feed the goodput observation to the rate controller
//! (Robbins–Monro, AIMD or fixed-rate).

use crate::flow::{
    AckInfo, FlowConfig, RateController, SharedFlowStats, KIND_ACK, KIND_DATA, NO_CUMULATIVE,
};
use crate::telemetry::{FlowTelemetry, TelemetryCollector};
use ricsa_netsim::app::{Application, Context};
use ricsa_netsim::node::NodeId;
use ricsa_netsim::packet::{Datagram, Payload};
use ricsa_netsim::time::SimTime;
use seq_set::SeqSet;

mod seq_set;

/// Sender half of a transport flow.
pub struct WindowSender<C: RateController> {
    config: FlowConfig,
    /// Datagrams in the message (`config.total_datagrams()`), `None` for a
    /// stream.
    total_datagrams: Option<u64>,
    receiver: NodeId,
    controller: C,
    stats: SharedFlowStats,
    /// Next never-before-sent sequence number.
    next_new_seq: u64,
    /// Sequence numbers confirmed received (cumulative point).
    cumulative_acked: Option<u64>,
    /// Sequence numbers above the cumulative point the receiver explicitly
    /// confirmed via SACK ranges.
    sacked: SeqSet,
    /// Datagrams the receiver reported missing, pending retransmission.
    nacked: SeqSet,
    /// Datagrams sent but not yet acknowledged.
    outstanding: SeqSet,
    finished: bool,
    /// Whether the periodic burst timer is running.
    burst_timer_armed: bool,
    /// Whether the most recent burst managed to send anything; used to back
    /// off the burst timer while the flow is blocked on acknowledgements.
    last_burst_progressed: bool,
    /// Virtual time of the last acknowledgement progress, for the
    /// retransmission timeout of last resort.
    last_ack_progress: f64,
    /// Highest receiver-reported distinct-datagram count, the progress
    /// signal that holds the retransmission timeout back while data is
    /// still landing.
    last_received_count: u64,
    /// Passive per-flow telemetry (EWMA goodput/RTT, loss events) for the
    /// adaptive re-mapping monitor; costs no extra traffic.
    telemetry: TelemetryCollector,
}

impl<C: RateController> WindowSender<C> {
    /// Create a sender for `config` toward `receiver`, paced by `controller`.
    ///
    /// # Panics
    /// Panics if the flow configuration is invalid.
    pub fn new(
        config: FlowConfig,
        receiver: NodeId,
        controller: C,
        stats: SharedFlowStats,
    ) -> Self {
        config.validate().expect("invalid flow configuration");
        let telemetry = TelemetryCollector::new(config.flow_id);
        WindowSender {
            total_datagrams: config.total_datagrams(),
            config,
            receiver,
            controller,
            stats,
            next_new_seq: 0,
            cumulative_acked: None,
            sacked: SeqSet::default(),
            nacked: SeqSet::default(),
            outstanding: SeqSet::default(),
            finished: false,
            burst_timer_armed: false,
            last_burst_progressed: true,
            last_ack_progress: 0.0,
            last_received_count: 0,
            telemetry,
        }
    }

    /// Whether every datagram of a finite message has been acknowledged.
    pub fn is_finished(&self) -> bool {
        self.finished
    }

    /// Access the rate controller (e.g. to inspect its converged state).
    pub fn controller(&self) -> &C {
        &self.controller
    }

    /// The passive telemetry accumulated by this flow (see
    /// [`crate::telemetry`]).
    pub fn telemetry(&self) -> &FlowTelemetry {
        self.telemetry.telemetry()
    }

    fn is_acked(&self, seq: u64) -> bool {
        // Only the cumulative point and explicit SACK ranges confirm
        // receipt.  The receiver's NACK lists are deliberately partial
        // (reorder-delayed, throttled, bounded), so "below highest and not
        // NACKed" must NOT be treated as received — inferring selective
        // acknowledgements from absence permanently loses real holes.
        self.cumulative_acked.map(|c| seq <= c).unwrap_or(false) || self.sacked.contains(seq)
    }

    fn datagram_size(&self, seq: u64) -> usize {
        match (self.config.message_bytes, self.total_datagrams) {
            (Some(bytes), Some(total)) if seq + 1 == total => {
                let rem = bytes % self.config.mtu;
                if rem == 0 {
                    self.config.mtu
                } else {
                    rem
                }
            }
            _ => self.config.mtu,
        }
    }

    fn send_seq(&mut self, ctx: &mut Context, seq: u64, retransmission: bool) {
        let size = self.datagram_size(seq);
        self.telemetry
            .note_sent(seq, ctx.now().as_secs(), retransmission);
        ctx.send(
            self.receiver,
            Payload::sized(KIND_DATA, self.config.flow_id, seq, size),
        );
        self.outstanding.insert(seq);
        let mut stats = self.stats.borrow_mut();
        stats.datagrams_sent += 1;
        if retransmission {
            stats.retransmissions += 1;
        }
        if stats.start_time.is_none() {
            stats.start_time = Some(ctx.now().as_secs());
        }
    }

    fn send_burst(&mut self, ctx: &mut Context) {
        if self.finished {
            return;
        }
        // Retransmission timeout of last resort: if the receiver has made no
        // progress of any kind for a while and no NACKs are pending, the
        // feedback channel itself has gone silent (every ACK lost, or the
        // whole in-flight window died).  Re-queue one window's worth of the
        // oldest outstanding datagrams.  Only finite messages time out;
        // monitoring streams rely on NACKs alone.
        let now = ctx.now().as_secs();
        let finite = self.total_datagrams.is_some();
        let rto = (self.config.ack_interval * 4.0).max(0.2);
        if finite
            && self.nacked.is_empty()
            && !self.outstanding.is_empty()
            && now - self.last_ack_progress > rto
        {
            let window = self.controller.window().max(1) as usize;
            for seq in self.outstanding.iter().take(window) {
                self.nacked.insert(seq);
            }
            self.last_ack_progress = now;
        }
        let window = self.controller.window().max(1) as usize;
        let mut sent = 0usize;

        // Retransmissions take priority over new data: the lowest `window`
        // pending NACKs leave the queue, and the unconfirmed ones are resent.
        for _ in 0..window {
            let Some(seq) = self.nacked.pop_first() else {
                break;
            };
            if self.is_acked(seq) {
                continue;
            }
            self.send_seq(ctx, seq, true);
            sent += 1;
        }

        // New datagrams, subject to the outstanding cap and message bound.
        while sent < window {
            if self.outstanding.len() >= self.config.max_outstanding {
                break;
            }
            if let Some(total) = self.total_datagrams {
                if self.next_new_seq >= total {
                    break;
                }
            }
            let seq = self.next_new_seq;
            self.next_new_seq += 1;
            self.send_seq(ctx, seq, false);
            sent += 1;
        }

        self.last_burst_progressed = sent > 0;
        // Record the controller state for the experiment harness (only on
        // productive bursts, and bounded so week-long runs stay cheap).
        if sent > 0 {
            let now = ctx.now().as_secs();
            let mut stats = self.stats.borrow_mut();
            if stats.sleep_samples.len() < 100_000 {
                stats
                    .sleep_samples
                    .push((now, self.controller.sleep_time()));
            }
        }
    }

    fn arm_burst_timer(&mut self, ctx: &mut Context) {
        self.burst_timer_armed = true;
        // While the flow is blocked on acknowledgements (nothing could be
        // sent), waking up at the raw sleep interval would just spin; back
        // off to a fraction of the ACK interval instead.
        let mut delay = self.controller.sleep_time().max(1e-6);
        if !self.last_burst_progressed {
            delay = delay.max(self.config.ack_interval * 0.5).max(1e-3);
        }
        ctx.set_timer(SimTime::from_secs(delay), self.config.flow_id);
    }

    fn handle_ack(&mut self, ctx: &mut Context, ack: AckInfo) {
        let now = ctx.now().as_secs();
        let outstanding_before = self.outstanding.len();
        // Cumulative acknowledgement.
        if ack.cumulative != NO_CUMULATIVE {
            let newly_cumulative = ack.cumulative;
            self.cumulative_acked = Some(
                self.cumulative_acked
                    .map_or(newly_cumulative, |c| c.max(newly_cumulative)),
            );
            // Everything at or below the acknowledged point retires; what
            // stays is the part of each set above it.
            if let Some(above) = newly_cumulative.checked_add(1) {
                self.outstanding.drop_below(above);
                self.sacked.drop_below(above);
            }
        }
        // Later feedback supersedes stale NACK state: anything now covered
        // by the cumulative point or a SACK range must not be retransmitted.
        // `nacked` only ever takes unconfirmed sequence numbers, so what
        // this ACK confirms is all there is to drop from it: the stretch up
        // to the cumulative point here, each newly SACKed datagram below.
        if let Some(above) = self.cumulative_acked.and_then(|c| c.checked_add(1)) {
            self.nacked.drop_below(above);
        }
        // Explicit selective acknowledgements: the receiver vouches for
        // these exact ranges, so the sender may retire them.
        for &(lo, hi) in &ack.sack {
            let mut from = lo;
            while let Some(seq) = self.outstanding.first_in(from..=hi) {
                self.outstanding.remove(seq);
                self.sacked.insert(seq);
                self.nacked.remove(seq);
                // `seq` just left `outstanding`, so saturating at the top of
                // the sequence space cannot find it again.
                from = seq.saturating_add(1);
            }
        }
        // NACK-driven retransmission + loss signal to the controller.  Only
        // NACKs that survive the filters count as losses: entries for
        // never-sent sequences (a quiet receiver NACKs up to the full
        // message length) or already-confirmed data must not shrink the
        // window, and a hole already queued for retransmission is one loss
        // event, not one per repeated report.
        let mut fresh_losses = 0u32;
        for &seq in &ack.missing {
            if seq < self.next_new_seq && !self.is_acked(seq) && self.nacked.insert(seq) {
                fresh_losses += 1;
            }
        }
        if fresh_losses > 0 {
            self.controller.on_loss(now);
            self.telemetry.on_loss(fresh_losses as u64, now);
        }
        // Goodput observation drives the Robbins-Monro / AIMD update.
        if ack.goodput_bps > 0.0 {
            self.controller.on_goodput(ack.goodput_bps, now);
            self.telemetry.on_goodput(ack.goodput_bps, now);
        }
        // Resolve the passive RTT probe against the updated ACK state
        // (cumulative point + SACK only, mirroring `is_acked`).
        {
            let cum = self.cumulative_acked;
            let sacked = &self.sacked;
            self.telemetry.note_acked(now, |s| {
                cum.map(|c| s <= c).unwrap_or(false) || sacked.contains(s)
            });
        }
        // Progress = the receiver confirmed something new: the cumulative
        // point advanced (outstanding shrank) or its distinct-datagram count
        // grew.  Either resets the retransmission timeout.
        if self.outstanding.len() < outstanding_before
            || ack.received_count > self.last_received_count
        {
            self.last_ack_progress = now;
        }
        self.last_received_count = self.last_received_count.max(ack.received_count);
        // Completion check for finite messages: the cumulative point covers
        // the whole message exactly when every datagram arrived.
        if let Some(total) = self.total_datagrams {
            if self
                .cumulative_acked
                .map(|c| c + 1 >= total)
                .unwrap_or(false)
            {
                self.finished = true;
            }
        }
    }
}

impl<C: RateController> Application for WindowSender<C> {
    fn on_start(&mut self, ctx: &mut Context) {
        self.send_burst(ctx);
        self.arm_burst_timer(ctx);
    }

    fn on_timer(&mut self, ctx: &mut Context, _key: u64) {
        if self.finished {
            self.burst_timer_armed = false;
            return;
        }
        self.send_burst(ctx);
        self.arm_burst_timer(ctx);
    }

    fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
        if dg.payload.kind != KIND_ACK || dg.payload.flow != self.config.flow_id {
            return;
        }
        if let Some(ack) = AckInfo::decode(&dg.payload.data) {
            self.handle_ack(ctx, ack);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixed::FixedController;
    use crate::flow::shared_stats;
    use std::collections::BTreeSet;

    fn mk_sender(
        message_bytes: Option<usize>,
        window: u32,
    ) -> (WindowSender<FixedController>, SharedFlowStats) {
        let stats = shared_stats();
        let config = FlowConfig {
            mtu: 100,
            window,
            message_bytes,
            max_outstanding: 1000,
            ..FlowConfig::default()
        };
        let sender = WindowSender::new(
            config,
            NodeId(1),
            FixedController::new(0.01, window),
            stats.clone(),
        );
        (sender, stats)
    }

    fn ctx_at(secs: f64) -> Context {
        Context::new(NodeId(0), SimTime::from_secs(secs), vec![0.5])
    }

    fn ack_payload(ack: &AckInfo) -> Datagram {
        Datagram {
            dst: NodeId(0),
            payload: Payload::with_data(KIND_ACK, 1, 0, ack.encode()),
        }
    }

    #[test]
    fn first_burst_sends_window_datagrams() {
        let (mut tx, stats) = mk_sender(None, 8);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx);
        let data_sends = ctx
            .outgoing()
            .iter()
            .filter(|s| s.payload.kind == KIND_DATA)
            .count();
        assert_eq!(data_sends, 8);
        assert_eq!(stats.borrow().datagrams_sent, 8);
        assert_eq!(ctx.scheduled_timers().len(), 1);
    }

    #[test]
    fn finite_message_sends_exact_datagram_count_and_sizes() {
        let (mut tx, _stats) = mk_sender(Some(250), 16);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx);
        let sizes: Vec<usize> = ctx
            .outgoing()
            .iter()
            .filter(|s| s.payload.kind == KIND_DATA)
            .map(|s| s.payload.size)
            .collect();
        assert_eq!(sizes, vec![100, 100, 50]);
    }

    #[test]
    fn cumulative_ack_clears_outstanding_and_finishes() {
        let (mut tx, _stats) = mk_sender(Some(300), 16);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx);
        assert!(!tx.is_finished());
        let ack = AckInfo {
            cumulative: 2,
            highest_seen: 2,
            missing: vec![],
            sack: vec![],
            goodput_bps: 1e5,
            received_count: 3,
        };
        tx.on_datagram(&mut ctx, ack_payload(&ack));
        assert!(tx.is_finished());
        assert!(tx.outstanding.is_empty());
    }

    #[test]
    fn nacks_trigger_retransmission_before_new_data() {
        let (mut tx, stats) = mk_sender(None, 4);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx); // seqs 0..4 sent
        let ack = AckInfo {
            cumulative: 0,
            highest_seen: 3,
            missing: vec![1, 2],
            sack: vec![],
            goodput_bps: 1e5,
            received_count: 2,
        };
        tx.on_datagram(&mut ctx, ack_payload(&ack));
        let mut ctx2 = ctx_at(0.01);
        tx.on_timer(&mut ctx2, 0);
        let sent_seqs: Vec<u64> = ctx2
            .outgoing()
            .iter()
            .filter(|s| s.payload.kind == KIND_DATA)
            .map(|s| s.payload.seq)
            .collect();
        assert!(sent_seqs.starts_with(&[1, 2]), "got {sent_seqs:?}");
        assert_eq!(stats.borrow().retransmissions, 2);
    }

    #[test]
    fn sack_prevents_redundant_retransmission() {
        let (mut tx, _stats) = mk_sender(None, 4);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx); // 0..4 outstanding
        let ack = AckInfo {
            cumulative: NO_CUMULATIVE,
            highest_seen: 3,
            missing: vec![0],
            sack: vec![(1, 3)],
            goodput_bps: 0.0,
            received_count: 3,
        };
        tx.on_datagram(&mut ctx, ack_payload(&ack));
        // 1,2,3 are explicitly sacked; only 0 should be pending
        // retransmission.
        assert_eq!(tx.nacked.iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(tx.outstanding.iter().collect::<Vec<_>>(), vec![0]);
        // A NACK without SACK coverage leaves unconfirmed datagrams alone.
        let ack2 = AckInfo {
            cumulative: NO_CUMULATIVE,
            highest_seen: 3,
            missing: vec![0],
            sack: vec![],
            goodput_bps: 0.0,
            received_count: 3,
        };
        tx.on_datagram(&mut ctx, ack_payload(&ack2));
        assert_eq!(tx.outstanding.iter().collect::<Vec<_>>(), vec![0]);
    }

    #[test]
    fn outstanding_cap_limits_new_data() {
        let stats = shared_stats();
        let config = FlowConfig {
            mtu: 100,
            window: 16,
            max_outstanding: 10,
            ..FlowConfig::default()
        };
        let mut tx = WindowSender::new(config, NodeId(1), FixedController::new(0.01, 16), stats);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx);
        assert_eq!(ctx.outgoing().len(), 10);
    }

    #[test]
    fn timer_after_finish_stops_sending() {
        let (mut tx, _stats) = mk_sender(Some(100), 4);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx);
        let ack = AckInfo {
            cumulative: 0,
            highest_seen: 0,
            missing: vec![],
            sack: vec![],
            goodput_bps: 1e5,
            received_count: 1,
        };
        tx.on_datagram(&mut ctx, ack_payload(&ack));
        assert!(tx.is_finished());
        let mut ctx2 = ctx_at(1.0);
        tx.on_timer(&mut ctx2, 0);
        assert!(ctx2.outgoing().is_empty());
        assert!(ctx2.scheduled_timers().is_empty());
    }

    #[test]
    fn telemetry_accumulates_from_ack_signals_alone() {
        let (mut tx, _stats) = mk_sender(None, 4);
        let mut ctx = ctx_at(0.0);
        tx.on_start(&mut ctx); // sends 0..4; probe = seq 0 at t=0
        assert!(!tx.telemetry().has_signal());
        let ack = AckInfo {
            cumulative: 1,
            highest_seen: 3,
            missing: vec![2],
            sack: vec![],
            goodput_bps: 5e5,
            received_count: 3,
        };
        let mut ctx2 = ctx_at(0.04);
        tx.on_datagram(&mut ctx2, ack_payload(&ack));
        let t = tx.telemetry();
        assert!((t.goodput_bps - 5e5).abs() < 1e-6);
        assert_eq!(t.goodput_samples, 1);
        assert_eq!(t.loss_events, 1, "one fresh NACK group");
        assert!((t.rtt_s - 0.04).abs() < 1e-9, "probe 0 resolved by cum=1");
        assert_eq!(t.rtt_samples, 1);
        // Retransmitting the new probe (seq 2, queued by the NACK) after it
        // becomes the probe must not corrupt RTT (Karn's rule) — exercised
        // through a real retransmission burst.
        let mut ctx3 = ctx_at(0.05);
        tx.on_timer(&mut ctx3, 0); // retransmits 2 (fresh probe candidates skipped)
        assert_eq!(tx.telemetry().rtt_samples, 1);
    }

    #[test]
    #[should_panic(expected = "invalid flow configuration")]
    fn invalid_config_panics() {
        let stats = shared_stats();
        let config = FlowConfig {
            mtu: 0,
            ..FlowConfig::default()
        };
        let _ = WindowSender::new(config, NodeId(1), FixedController::new(0.01, 4), stats);
    }

    /// Counts the calls `handle_ack` makes into the rate controller.
    struct Recording {
        window: u32,
        losses: Vec<f64>,
        goodputs: Vec<(f64, f64)>,
    }

    impl RateController for Recording {
        fn on_goodput(&mut self, goodput_bps: f64, now: f64) {
            self.goodputs.push((goodput_bps, now));
        }
        fn on_loss(&mut self, now: f64) {
            self.losses.push(now);
        }
        fn sleep_time(&self) -> f64 {
            0.01
        }
        fn window(&self) -> u32 {
            self.window
        }
        fn name(&self) -> &'static str {
            "recording"
        }
    }

    /// The acknowledgement bookkeeping of a sender, updated the way
    /// `handle_ack` was first written: collect-then-remove over whole sets
    /// and a `retain` over `sacked` and `nacked` per ACK.  The differential
    /// test below holds `WindowSender::handle_ack` to it.
    #[derive(Debug, Clone, PartialEq)]
    struct ReferenceAckState {
        cumulative_acked: Option<u64>,
        sacked: BTreeSet<u64>,
        nacked: BTreeSet<u64>,
        outstanding: BTreeSet<u64>,
        finished: bool,
    }

    impl ReferenceAckState {
        fn of<C: RateController>(tx: &WindowSender<C>) -> Self {
            ReferenceAckState {
                cumulative_acked: tx.cumulative_acked,
                sacked: tx.sacked.iter().collect(),
                nacked: tx.nacked.iter().collect(),
                outstanding: tx.outstanding.iter().collect(),
                finished: tx.finished,
            }
        }

        fn is_acked(&self, seq: u64) -> bool {
            self.cumulative_acked.map(|c| seq <= c).unwrap_or(false) || self.sacked.contains(&seq)
        }

        /// Apply `ack`; returns the NACKs that count as fresh losses.
        fn handle_ack(&mut self, ack: &AckInfo, next_new_seq: u64, total: Option<u64>) -> u32 {
            if ack.cumulative != NO_CUMULATIVE {
                let newly_cumulative = ack.cumulative;
                self.cumulative_acked = Some(
                    self.cumulative_acked
                        .map_or(newly_cumulative, |c| c.max(newly_cumulative)),
                );
                let acked: Vec<u64> = self
                    .outstanding
                    .iter()
                    .copied()
                    .take_while(|s| *s <= newly_cumulative)
                    .collect();
                for seq in acked {
                    self.outstanding.remove(&seq);
                }
                self.sacked.retain(|s| *s > newly_cumulative);
            }
            for &(lo, hi) in &ack.sack {
                let in_range: Vec<u64> = self.outstanding.range(lo..=hi).copied().collect();
                for seq in in_range {
                    self.outstanding.remove(&seq);
                    self.sacked.insert(seq);
                }
            }
            let cum = self.cumulative_acked;
            let sacked = &self.sacked;
            self.nacked
                .retain(|s| !(cum.map(|c| *s <= c).unwrap_or(false) || sacked.contains(s)));
            let mut fresh_losses = 0u32;
            for &seq in &ack.missing {
                if seq < next_new_seq && !self.is_acked(seq) && self.nacked.insert(seq) {
                    fresh_losses += 1;
                }
            }
            if let Some(total) = total {
                if self.cumulative_acked.is_some_and(|c| c + 1 >= total) {
                    self.finished = true;
                }
            }
            fresh_losses
        }
    }

    /// A random ACK around what the sender has sent so far: cumulative
    /// points that lag, repeat, jump back (reordered ACKs) or run ahead of
    /// the data, SACK ranges and NACKs over sent, confirmed and never-sent
    /// sequence numbers alike.
    fn random_ack(rng: &mut ricsa_netsim::rng::SimRng, sent: u64) -> AckInfo {
        let span = sent as usize + 8;
        let mut pick = |n: usize| rng.index(n) as u64;
        let cumulative = match pick(5) {
            0 => NO_CUMULATIVE,
            1 => pick(span),
            _ => pick(span) / 2,
        };
        let sack = (0..pick(6))
            .map(|_| {
                let lo = pick(span);
                (lo, lo + pick(12))
            })
            .collect();
        AckInfo {
            cumulative,
            highest_seen: pick(span),
            missing: (0..pick(10)).map(|_| pick(span)).collect(),
            sack,
            goodput_bps: [0.0, 1e5, 3e6][pick(3) as usize],
            received_count: pick(span),
        }
    }

    #[test]
    fn handle_ack_matches_the_whole_set_reference_over_random_ack_streams() {
        let (mut loss_events, mut stale_nacks_dropped, mut finished) = (0, 0, 0);
        for seed in 0..200u64 {
            let mut rng = ricsa_netsim::rng::SimRng::new(seed);
            let total = (seed % 2 == 0).then(|| 50 + rng.index(400) as u64);
            let config = FlowConfig {
                mtu: 100,
                message_bytes: total.map(|n| n as usize * 100),
                max_outstanding: 64 + rng.index(200),
                ..FlowConfig::default()
            };
            let controller = Recording {
                window: 1 + rng.index(32) as u32,
                losses: Vec::new(),
                goodputs: Vec::new(),
            };
            let mut tx = WindowSender::new(config, NodeId(1), controller, shared_stats());
            let mut now = 0.0;
            tx.on_start(&mut ctx_at(now));
            for _ in 0..300 {
                now += rng.uniform_range(0.001, 0.12);
                if rng.coin(0.4) {
                    // A burst: new data, retransmissions, and (after a long
                    // enough silence) the retransmission timeout.
                    tx.on_timer(&mut ctx_at(now), 0);
                    continue;
                }
                let ack = random_ack(&mut rng, tx.next_new_seq);
                let mut expected = ReferenceAckState::of(&tx);
                let fresh = expected.handle_ack(&ack, tx.next_new_seq, total);
                let calls = (tx.controller.losses.len(), tx.controller.goodputs.len());
                stale_nacks_dropped += (tx.nacked.len() > expected.nacked.len()) as u32;
                tx.on_datagram(&mut ctx_at(now), ack_payload(&ack));
                assert_eq!(ReferenceAckState::of(&tx), expected, "seed {seed} at {now}");
                let losses = &tx.controller.losses[calls.0..];
                assert_eq!(losses, (fresh > 0).then_some(now).as_slice());
                let goodputs = &tx.controller.goodputs[calls.1..];
                let reported = (ack.goodput_bps > 0.0).then_some((ack.goodput_bps, now));
                assert_eq!(goodputs, reported.as_slice());
                loss_events += losses.len();
            }
            finished += tx.is_finished() as u32;
        }
        assert!(loss_events > 1000, "{loss_events} loss events");
        assert!(stale_nacks_dropped > 500, "{stale_nacks_dropped}");
        assert!(finished > 10, "{finished} messages completed");
    }
}
