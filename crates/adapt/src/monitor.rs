//! The adaptive re-mapping monitor.
//!
//! [`AdaptMonitor`] owns the controller's *live network estimate*: the
//! calibration graph the session was planned on, with each link rescaled
//! by ratios of currently observed telemetry to the baseline established
//! when the link first carried traffic.  Two independent signals feed it:
//!
//! * **goodput → bandwidth**: the link's bandwidth estimate is the
//!   calibrated bandwidth times `current / baseline` goodput.  Passive
//!   telemetry measures *change* precisely but absolute capacity poorly
//!   (protocol overhead, the target-goodput cap), so the ratio form keeps
//!   the estimate on the calibration scale — and works in both
//!   directions: a degradation shows as goodput collapsing below
//!   baseline, a recovery as it returning to the (target-capped)
//!   baseline.
//! * **RTT → delay** (on by default, [`AdaptConfig::rtt_signal`]): the
//!   link's delay estimate is the calibrated delay times
//!   `current / baseline` smoothed RTT from the transport's passive
//!   Karn-filtered probes.  Queueing-delay inflation is an *earlier*
//!   degradation signal than goodput collapse: a flow that does not
//!   saturate its link keeps its goodput (still below the shrunken
//!   capacity) while its RTT inflates immediately, so an RTT change point
//!   can confirm degradations the goodput detector sees frames later —
//!   or never.  The `adapt_sweep` bench toggles this axis to measure the
//!   detection-latency win.
//!
//! Each signal runs its own per-link [`ChangePointDetector`]; when either
//! confirms a drift, the monitor re-prices the current mapping on the
//! updated graph and runs a **warm-started** re-solve ([`optimize_warm`])
//! with the current mapping as incumbent.  Only a predicted improvement
//! beyond the configured re-map margin — and outside the cooldown window
//! — produces a [`Decision::Remap`]; everything else is an explicit,
//! recorded *keep*.  The decision trace is fully deterministic for a
//! deterministic input stream: both ratio estimates derive from virtual-
//! time telemetry only, records carry the triggering signal name, and no
//! record contains a wall clock (solve timing is reported separately via
//! [`AdaptMonitor::solve_timing`]).

use crate::detector::{ChangePointDetector, DetectorConfig};
use ricsa_pipemap::delay::{evaluate_mapping, validate_mapping, Mapping};
use ricsa_pipemap::dp::{optimize_warm, DpOptions, OptimizedMapping};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use ricsa_transport::telemetry::FlowTelemetry;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Controller configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptConfig {
    /// Per-link drift detection (threshold, hysteresis, smoothing).
    pub detector: DetectorConfig,
    /// Required relative improvement of the re-solved mapping's predicted
    /// delay over the current mapping's before a re-map is worth its
    /// migration disruption (e.g. `0.05` = 5 %).
    pub remap_margin: f64,
    /// Minimum virtual time between re-maps, seconds — a second line of
    /// defence against thrash beyond the detector's hysteresis.
    pub cooldown_s: f64,
    /// DP options used for re-solves (relay semantics by default, so
    /// sparse generated WANs stay feasible).
    pub options: DpOptions,
    /// Lower clamp on the bandwidth scale estimate, so one pathological
    /// sample cannot drive a link estimate to zero.
    pub min_scale: f64,
    /// Also run a change-point detector on the passive RTT signal and
    /// rescale the link's *delay* estimate by the confirmed RTT ratio.
    /// Queueing-delay inflation often confirms frames before the goodput
    /// EWMA leaves its drift band (and is the only signal at all on
    /// under-utilized flows), so this is the earlier-detection axis the
    /// adaptation sweep measures.  On by default.
    pub rtt_signal: bool,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            detector: DetectorConfig::default(),
            remap_margin: 0.05,
            cooldown_s: 1.0,
            options: DpOptions::relayed(),
            min_scale: 0.01,
            rtt_signal: true,
        }
    }
}

/// Upper clamp on the RTT-derived delay scale, so one pathological probe
/// cannot price a link out of every mapping forever.
const MAX_DELAY_SCALE: f64 = 1e3;

/// [`DecisionRecord::signal`] value for goodput-triggered evaluations.
pub const SIGNAL_GOODPUT: &str = "goodput";

/// [`DecisionRecord::signal`] value for RTT-triggered evaluations.
pub const SIGNAL_RTT: &str = "rtt";

/// The live estimate the monitor maintains for one directed link.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkEstimate {
    /// Calibration bandwidth (bytes/s) from the planning graph.
    pub calibrated_bandwidth: f64,
    /// Goodput level when the link first carried loop traffic, bytes/s.
    pub baseline_goodput: f64,
    /// Most recent confirmed goodput level, bytes/s.
    pub current_goodput: f64,
    /// `current / baseline` — the scale applied to the calibrated
    /// bandwidth (clamped by [`AdaptConfig::min_scale`]).
    pub scale: f64,
    /// Smoothed RTT when the link first reported a resolved probe,
    /// seconds (0 until the first RTT sample arrives).
    pub baseline_rtt_s: f64,
    /// Most recent smoothed RTT, seconds.
    pub current_rtt_s: f64,
    /// `current_rtt / baseline_rtt` at the last confirmed RTT change —
    /// the scale applied to the calibrated link *delay* (1 until a
    /// change confirms; clamped to `[min_scale, 1e3]`).
    pub delay_scale: f64,
}

/// What the monitor concluded at one evaluation.
#[derive(Debug, Clone, PartialEq)]
pub enum Decision {
    /// Keep the current mapping (no confirmed change, cooldown, mapping
    /// unchanged, or the win was below the margin).
    Keep,
    /// Migrate to a new mapping.
    Remap(Box<OptimizedMapping>),
}

/// One row of the deterministic decision trace.
///
/// Every field derives from virtual-time telemetry — no wall clocks —
/// so a seeded run reproduces the trace byte-for-byte (warm-solve wall
/// time is reported separately by [`AdaptMonitor::solve_timing`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DecisionRecord {
    /// Virtual time of the evaluation, seconds.
    pub at: f64,
    /// The link whose confirmed change triggered the evaluation.
    pub trigger: (usize, usize),
    /// Which telemetry signal confirmed the change: [`SIGNAL_GOODPUT`]
    /// (bandwidth rescale) or [`SIGNAL_RTT`] (delay rescale).
    pub signal: String,
    /// Scale factor of the confirmed change (`new / old` level of the
    /// triggering signal — goodput ratio or RTT ratio).
    pub change_scale: f64,
    /// Predicted delay of the current mapping on the updated estimate.
    pub current_predicted: f64,
    /// Predicted delay of the re-solved mapping (`None` if the re-solve
    /// found no feasible mapping).
    pub resolved_predicted: Option<f64>,
    /// Whether the monitor decided to re-map.
    pub remapped: bool,
    /// Why (`"margin"`, `"cooldown"`, `"same-mapping"`, `"infeasible"`,
    /// `"remap"`).
    pub reason: String,
}

/// What the monitor keeps for a directed link beside its public estimate.
struct LinkWatch {
    /// The link's index in the calibration and live graphs, looked up when
    /// the link is first seen (`None`: no such link in the graph).
    link: Option<usize>,
    goodput: ChangePointDetector,
    /// Present once the route was seeded or an RTT sample arrived.
    rtt: Option<ChangePointDetector>,
}

/// The monitor: live estimates, change detection and re-map decisions.
pub struct AdaptMonitor {
    config: AdaptConfig,
    pipeline: Pipeline,
    /// The calibration view the session was planned on (never mutated).
    base_graph: NetGraph,
    /// The live estimated view (bandwidths rescaled by telemetry).
    graph: NetGraph,
    source: usize,
    destination: usize,
    current: Mapping,
    current_predicted: f64,
    watched: BTreeMap<(usize, usize), LinkWatch>,
    estimates: BTreeMap<(usize, usize), LinkEstimate>,
    /// Confirmed change points not yet evaluated:
    /// `(link, scale, signal)`.
    pending: Vec<((usize, usize), f64, &'static str)>,
    last_remap_at: f64,
    decisions: Vec<DecisionRecord>,
    /// Wall-clock microseconds spent in warm re-solves (reported
    /// separately from the deterministic trace).
    solve_us_total: f64,
    solves: u64,
}

impl LinkWatch {
    fn new(link: Option<usize>, config: DetectorConfig) -> LinkWatch {
        LinkWatch {
            link,
            goodput: ChangePointDetector::new(config),
            rtt: None,
        }
    }
}

impl AdaptMonitor {
    /// Build a monitor around an already-planned mapping (the session
    /// planner has usually just solved this exact instance; re-solving it
    /// would be pure waste).  `initial` must be the optimum of
    /// `(pipeline, graph, source, destination)` under `config.options`.
    pub fn with_initial(
        pipeline: Pipeline,
        graph: NetGraph,
        source: usize,
        destination: usize,
        config: AdaptConfig,
        initial: OptimizedMapping,
    ) -> AdaptMonitor {
        let mut monitor = AdaptMonitor {
            config,
            pipeline,
            base_graph: graph.clone(),
            graph,
            source,
            destination,
            current: initial.mapping,
            current_predicted: initial.delay.total,
            watched: BTreeMap::new(),
            estimates: BTreeMap::new(),
            pending: Vec::new(),
            last_remap_at: f64::NEG_INFINITY,
            decisions: Vec::new(),
            solve_us_total: 0.0,
            solves: 0,
        };
        monitor.seed_route_rtt_baselines();
        monitor
    }

    /// Seed RTT baselines for links of the deployed route that have no
    /// RTT history yet, from the calibration graph (expected RTT ≈ 2 ×
    /// the one-way calibrated delay).
    ///
    /// Without this, a link that never carried loop traffic starts with a
    /// *cold* detector that adopts the first post-deployment RTT sample
    /// as its norm — so a route that is already degraded when traffic
    /// lands on it (a second network event inside the re-map cooldown)
    /// could never be detected.  With the seed, healthy traffic sits
    /// inside the drift band and the baseline adapts smoothly, while
    /// inflated traffic arms the detector from the first sample.
    fn seed_route_rtt_baselines(&mut self) {
        if !self.config.rtt_signal {
            return;
        }
        let links: Vec<(usize, usize)> = self
            .current
            .path
            .windows(2)
            .map(|pair| (pair[0], pair[1]))
            .collect();
        for (from, to) in links {
            let Some(index) = self.base_graph.link_index(from, to) else {
                continue;
            };
            let link = self.base_graph.link(index);
            let expected_rtt = 2.0 * link.delay;
            if !(expected_rtt.is_finite() && expected_rtt > 0.0) {
                continue;
            }
            let entry = self.estimates.entry((from, to)).or_insert(LinkEstimate {
                calibrated_bandwidth: link.bandwidth,
                baseline_goodput: 0.0,
                current_goodput: 0.0,
                scale: 1.0,
                baseline_rtt_s: 0.0,
                current_rtt_s: 0.0,
                delay_scale: 1.0,
            });
            if entry.baseline_rtt_s <= 0.0 {
                entry.baseline_rtt_s = expected_rtt;
            }
            let config = self.config.detector;
            self.watched
                .entry((from, to))
                .or_insert_with(|| LinkWatch::new(Some(index), config))
                .rtt
                .get_or_insert_with(|| ChangePointDetector::with_baseline(config, expected_rtt));
        }
    }

    /// The mapping the monitor currently considers deployed.
    pub fn current(&self) -> &Mapping {
        &self.current
    }

    /// Predicted delay of the current mapping (on the estimate as of the
    /// last evaluation).
    pub fn current_predicted(&self) -> f64 {
        self.current_predicted
    }

    /// The live per-link estimates.
    pub fn estimates(&self) -> &BTreeMap<(usize, usize), LinkEstimate> {
        &self.estimates
    }

    /// The deterministic decision trace.
    pub fn decisions(&self) -> &[DecisionRecord] {
        &self.decisions
    }

    /// Total wall-clock microseconds spent in warm re-solves and how many
    /// ran (not part of the decision trace — wall time is not
    /// deterministic).
    pub fn solve_timing(&self) -> (f64, u64) {
        (self.solve_us_total, self.solves)
    }

    /// Ingest one telemetry snapshot for the directed link `from → to`
    /// (topology node indices).  Updates the live estimate and runs the
    /// link's change-point detectors: goodput always, RTT when
    /// [`AdaptConfig::rtt_signal`] is on and the flow resolved at least
    /// one passive probe.  A sample naming a node outside the graph is
    /// ignored.
    pub fn ingest(&mut self, from: usize, to: usize, telemetry: &FlowTelemetry) {
        if !telemetry.has_signal() || from.max(to) >= self.base_graph.node_count() {
            return;
        }
        let key = (from, to);
        let config = self.config.detector;
        let watch = self
            .watched
            .entry(key)
            .or_insert_with(|| LinkWatch::new(self.base_graph.link_index(from, to), config));
        let (calibrated_bandwidth, calibrated_delay) = watch
            .link
            .map(|index| self.base_graph.link(index))
            .map_or((0.0, 0.0), |l| (l.bandwidth, l.delay));
        let sample = telemetry.goodput_bps;
        let entry = self.estimates.entry(key).or_insert(LinkEstimate {
            calibrated_bandwidth,
            baseline_goodput: sample,
            current_goodput: sample,
            scale: 1.0,
            baseline_rtt_s: 0.0,
            current_rtt_s: 0.0,
            delay_scale: 1.0,
        });
        if entry.baseline_goodput <= 0.0 {
            // The entry may pre-exist from RTT-baseline seeding (a route
            // deployed before carrying traffic): the first real goodput
            // sample still establishes that baseline.
            entry.baseline_goodput = sample;
        }
        entry.current_goodput = sample;
        let mut confirmed_any = false;
        if let Some(cp) = watch.goodput.observe(sample) {
            // Scale relative to the link's *first* baseline, so repeated
            // changes compose correctly (baseline_goodput never moves).
            let scale =
                (cp.new_level / entry.baseline_goodput.max(1e-12)).max(self.config.min_scale);
            entry.scale = scale;
            self.pending.push((key, cp.scale(), SIGNAL_GOODPUT));
            confirmed_any = true;
        }
        if self.config.rtt_signal && telemetry.rtt_samples > 0 {
            let rtt = telemetry.rtt_s;
            if entry.baseline_rtt_s <= 0.0 {
                entry.baseline_rtt_s = rtt;
            }
            entry.current_rtt_s = rtt;
            if let Some(cp) = watch
                .rtt
                .get_or_insert_with(|| ChangePointDetector::new(config))
                .observe(rtt)
            {
                // Queueing inflation rescales the *delay* estimate, again
                // against the link's first baseline so changes never stack.
                let delay_scale = (cp.new_level / entry.baseline_rtt_s.max(1e-12))
                    .clamp(self.config.min_scale, MAX_DELAY_SCALE);
                entry.delay_scale = delay_scale;
                self.pending.push((key, cp.scale(), SIGNAL_RTT));
                confirmed_any = true;
            }
        }
        if let (true, Some(index)) = (confirmed_any, watch.link) {
            self.graph.set_measured_at(
                index,
                (entry.calibrated_bandwidth * entry.scale).max(1.0),
                (calibrated_delay * entry.delay_scale).max(0.0),
            );
        }
    }

    /// Evaluate pending confirmed changes at virtual time `now`: re-price
    /// the current mapping, warm re-solve, and decide.  Appends one
    /// [`DecisionRecord`] per call that had a pending change.
    pub fn evaluate(&mut self, now: f64) -> Decision {
        let Some((trigger, change_scale, signal)) = self.pending.pop() else {
            return Decision::Keep;
        };
        self.pending.clear(); // one evaluation covers all pending changes

        // Re-price the deployed mapping on the updated estimate.  A
        // mapping invalidated outright (should not happen for bandwidth
        // rescales) forces a re-map attempt.
        let current_predicted =
            if validate_mapping(&self.pipeline, &self.graph, &self.current).is_ok() {
                evaluate_mapping(&self.pipeline, &self.graph, &self.current).total
            } else {
                f64::INFINITY
            };
        self.current_predicted = current_predicted;

        if now - self.last_remap_at < self.config.cooldown_s {
            self.decisions.push(DecisionRecord {
                at: now,
                trigger,
                signal: signal.into(),
                change_scale,
                current_predicted,
                resolved_predicted: None,
                remapped: false,
                reason: "cooldown".into(),
            });
            // Defer, don't drop: the detector has re-locked its baseline at
            // the new level, so this change would never re-confirm — the
            // evaluation must retry once the cooldown expires or the loop
            // would sit on a stale mapping forever.
            self.pending.push((trigger, change_scale, signal));
            return Decision::Keep;
        }

        let started = std::time::Instant::now();
        let (resolved, _) = optimize_warm(
            &self.pipeline,
            &self.graph,
            self.source,
            self.destination,
            &self.config.options,
            &self.current,
        );
        self.solve_us_total += started.elapsed().as_secs_f64() * 1e6;
        self.solves += 1;

        let Some(resolved) = resolved else {
            self.decisions.push(DecisionRecord {
                at: now,
                trigger,
                signal: signal.into(),
                change_scale,
                current_predicted,
                resolved_predicted: None,
                remapped: false,
                reason: "infeasible".into(),
            });
            return Decision::Keep;
        };
        let resolved_predicted = resolved.delay.total;
        let improved = resolved_predicted < current_predicted * (1.0 - self.config.remap_margin);
        let same = resolved.mapping == self.current;
        let remap = improved && !same;
        self.decisions.push(DecisionRecord {
            at: now,
            trigger,
            signal: signal.into(),
            change_scale,
            current_predicted,
            resolved_predicted: Some(resolved_predicted),
            remapped: remap,
            reason: if remap {
                "remap".into()
            } else if same {
                "same-mapping".into()
            } else {
                "margin".into()
            },
        });
        if remap {
            self.current = resolved.mapping.clone();
            self.current_predicted = resolved_predicted;
            self.last_remap_at = now;
            // The migration may route traffic over links with no RTT
            // history; seed their baselines so a degradation already
            // present on the new route is detectable immediately.
            self.seed_route_rtt_baselines();
            Decision::Remap(Box::new(resolved))
        } else {
            Decision::Keep
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_pipemap::dp::optimize_with;

    /// Two-route graph: src → midA → dst (fast) and src → midB → dst
    /// (slower), plus a thin direct link.
    fn two_route_graph() -> (Pipeline, NetGraph) {
        let pipeline = Pipeline::new(
            "iso",
            8e6,
            vec![
                ricsa_pipemap::pipeline::ModuleSpec::new("filter", 2e-9, 8e6),
                ricsa_pipemap::pipeline::ModuleSpec::new("extract", 1e-8, 1e6),
                ricsa_pipemap::pipeline::ModuleSpec::new("render", 5e-9, 2e5).requiring_graphics(),
            ],
        );
        let mut g = NetGraph::new();
        let src = g.add_node("src", 1.0, false);
        let mid_a = g.add_node("midA", 6.0, true);
        let mid_b = g.add_node("midB", 5.0, true);
        let dst = g.add_node("dst", 1.5, true);
        g.add_bidirectional(src, mid_a, 40e6, 0.008);
        g.add_bidirectional(mid_a, dst, 40e6, 0.008);
        g.add_bidirectional(src, mid_b, 25e6, 0.012);
        g.add_bidirectional(mid_b, dst, 25e6, 0.012);
        g.add_bidirectional(src, dst, 5e6, 0.030);
        (pipeline, g)
    }

    fn telemetry(goodput: f64) -> FlowTelemetry {
        FlowTelemetry {
            flow_id: 1,
            goodput_bps: goodput,
            rtt_s: 0.02,
            goodput_samples: 1,
            last_update_s: 1.0,
            ..FlowTelemetry::default()
        }
    }

    /// A monitor on `two_route_graph` around the optimum under `config`.
    fn monitor_with(config: AdaptConfig) -> AdaptMonitor {
        let (pipeline, graph) = two_route_graph();
        let initial = optimize_with(&pipeline, &graph, 0, 3, &config.options)
            .0
            .expect("two-route graph admits a mapping");
        AdaptMonitor::with_initial(pipeline, graph, 0, 3, config, initial)
    }

    fn monitor() -> AdaptMonitor {
        monitor_with(AdaptConfig::default())
    }

    #[test]
    fn initial_mapping_uses_the_fast_route() {
        let m = monitor();
        assert!(
            m.current().path.contains(&1),
            "expected midA in {:?}",
            m.current().path
        );
    }

    #[test]
    fn degradation_on_the_active_route_triggers_a_remap_to_the_other() {
        let mut m = monitor();
        // Establish baselines on the active route (~link goodput).
        for t in 0..3 {
            m.ingest(0, 1, &telemetry(35e6));
            m.ingest(1, 3, &telemetry(35e6));
            assert_eq!(m.evaluate(t as f64), Decision::Keep);
        }
        // src→midA collapses to a tenth; hysteresis (2) needs two samples.
        m.ingest(0, 1, &telemetry(3.5e6));
        assert_eq!(m.evaluate(10.0), Decision::Keep, "one sample must not trip");
        m.ingest(0, 1, &telemetry(3.5e6));
        match m.evaluate(11.0) {
            Decision::Remap(opt) => {
                assert!(
                    opt.mapping.path.contains(&2),
                    "expected midB in {:?}",
                    opt.mapping.path
                );
                assert!(!opt.mapping.path.contains(&1));
            }
            Decision::Keep => panic!("confirmed collapse must trigger a remap"),
        }
        let last = m.decisions().last().unwrap();
        assert!(last.remapped);
        assert_eq!(last.reason, "remap");
        assert_eq!(last.trigger, (0, 1));
        assert!(last.change_scale < 0.5);
        let (us, solves) = m.solve_timing();
        assert!(solves >= 1 && us >= 0.0);
    }

    #[test]
    fn jitter_never_remaps_and_marginal_wins_are_rejected() {
        let mut m = monitor();
        for i in 0..30 {
            let noise = if i % 2 == 0 { 1.05 } else { 0.95 };
            m.ingest(0, 1, &telemetry(35e6 * noise));
            m.ingest(1, 3, &telemetry(35e6 * noise));
            assert_eq!(m.evaluate(i as f64), Decision::Keep);
        }
        assert!(
            m.decisions().is_empty(),
            "jitter produced decisions: {:?}",
            m.decisions()
        );
        // A confirmed collapse on a link the mapping does not use: the
        // evaluation runs, but re-solving re-picks the current mapping —
        // an explicit recorded keep, not a remap.
        let mut m2 = monitor();
        for _ in 0..3 {
            m2.ingest(0, 2, &telemetry(20e6));
        }
        m2.ingest(0, 2, &telemetry(2e6));
        m2.ingest(0, 2, &telemetry(2e6));
        assert_eq!(m2.evaluate(50.0), Decision::Keep);
        let rec = m2.decisions().last().expect("confirmed change is recorded");
        assert!(!rec.remapped);
        assert_eq!(rec.trigger, (0, 2));
        assert!(rec.reason == "same-mapping" || rec.reason == "margin");
    }

    #[test]
    fn rtt_inflation_with_flat_goodput_triggers_detection() {
        // The flow does not saturate its link, so a capacity drop leaves
        // goodput flat — only queueing delay (RTT) inflates.  The RTT
        // detector must confirm; with the signal off, nothing may fire.
        let sample = |rtt: f64| FlowTelemetry {
            flow_id: 1,
            goodput_bps: 20e6,
            rtt_s: rtt,
            goodput_samples: 1,
            rtt_samples: 1,
            last_update_s: 1.0,
            ..FlowTelemetry::default()
        };
        let mut m = monitor();
        for t in 0..3 {
            m.ingest(0, 1, &sample(0.02));
            assert_eq!(m.evaluate(t as f64), Decision::Keep);
        }
        // RTT inflates 10×; hysteresis (2) needs two deviating samples.
        m.ingest(0, 1, &sample(0.2));
        m.evaluate(10.0);
        assert!(m.decisions().is_empty(), "one sample must not confirm");
        m.ingest(0, 1, &sample(0.2));
        m.evaluate(11.0);
        let rec = m.decisions().last().expect("RTT inflation must confirm");
        assert_eq!(rec.signal, SIGNAL_RTT);
        assert_eq!(rec.trigger, (0, 1));
        assert!(rec.change_scale > 2.0, "scale {}", rec.change_scale);
        // The live estimate rescaled the link's delay, not its bandwidth.
        let est = &m.estimates()[&(0, 1)];
        assert!(est.delay_scale > 2.0, "delay_scale {}", est.delay_scale);
        assert_eq!(est.scale, 1.0);
        // Same stream with the RTT signal disabled: no detection at all.
        let mut off = monitor_with(AdaptConfig {
            rtt_signal: false,
            ..AdaptConfig::default()
        });
        for (t, rtt) in [0.02, 0.02, 0.02, 0.2, 0.2].iter().enumerate() {
            off.ingest(0, 1, &sample(*rtt));
            assert_eq!(off.evaluate(t as f64), Decision::Keep);
        }
        assert!(off.decisions().is_empty(), "{:?}", off.decisions());
    }

    #[test]
    fn post_migration_rtt_baselines_are_seeded_from_calibration() {
        // Regression (ROADMAP "RTT baselines cold after migration"): after
        // a remap, traffic lands on links that never carried loop traffic.
        // If a *second* network event has already inflated the new route's
        // RTT, a cold detector would adopt the inflated level as its norm
        // and the event would be undetectable forever.  The baseline
        // seeded from the calibration delay keeps it visible.
        let sample = |rtt: f64| FlowTelemetry {
            flow_id: 1,
            goodput_bps: 20e6,
            rtt_s: rtt,
            goodput_samples: 1,
            rtt_samples: 1,
            last_update_s: 1.0,
            ..FlowTelemetry::default()
        };
        let remapped_monitor = || {
            let mut m = monitor_with(AdaptConfig {
                cooldown_s: 5.0,
                ..AdaptConfig::default()
            });
            for t in 0..3 {
                m.ingest(0, 1, &telemetry(35e6));
                m.ingest(1, 3, &telemetry(35e6));
                m.evaluate(t as f64);
            }
            // Collapse the active route's goodput to force a remap to midB.
            m.ingest(0, 1, &telemetry(3.5e6));
            m.ingest(0, 1, &telemetry(3.5e6));
            match m.evaluate(10.0) {
                Decision::Remap(opt) => assert!(opt.mapping.path.contains(&2)),
                Decision::Keep => panic!("collapse must remap"),
            }
            m
        };

        let mut m = remapped_monitor();
        // The new route's links carry seeded baselines (≈ 2 × calibrated
        // one-way delay) despite never having reported telemetry.
        let est = &m.estimates()[&(0, 2)];
        assert!(
            (est.baseline_rtt_s - 0.024).abs() < 1e-9,
            "seeded baseline, got {}",
            est.baseline_rtt_s
        );
        // Second event *inside the cooldown*: the very first RTT samples
        // from midB are already inflated.  Detection must still fire.
        m.ingest(0, 2, &sample(0.2));
        m.evaluate(11.0);
        m.ingest(0, 2, &sample(0.2));
        m.evaluate(12.0);
        let confirmed: Vec<_> = m
            .decisions()
            .iter()
            .filter(|r| r.signal == SIGNAL_RTT && r.trigger == (0, 2))
            .collect();
        assert!(
            !confirmed.is_empty(),
            "inflated RTT on the fresh route must confirm: {:?}",
            m.decisions()
        );
        assert!(confirmed[0].change_scale > 2.0);

        // Healthy traffic on the seeded route sits inside the drift band:
        // the seed must not manufacture false positives.
        let mut healthy = remapped_monitor();
        for t in 0..10 {
            healthy.ingest(0, 2, &sample(0.02));
            healthy.evaluate(11.0 + t as f64);
        }
        assert!(
            healthy
                .decisions()
                .iter()
                .all(|r| !(r.signal == SIGNAL_RTT && r.trigger == (0, 2))),
            "healthy RTT near the seed fired: {:?}",
            healthy.decisions()
        );
    }

    /// Telemetry keys arrive from the stages' sink unchecked: a sample for
    /// a node the graph does not have is dropped, not indexed with.
    #[test]
    fn out_of_range_ingest_changes_nothing() {
        let mut m = monitor();
        m.ingest(0, 1, &telemetry(35e6));
        let estimates = m.estimates().clone();
        let graph = m.graph.clone();
        for (from, to) in [(4, 0), (0, 4), (99, 99), (usize::MAX, 1)] {
            // Enough collapsed samples to confirm a change on a real link.
            for goodput in [35e6, 35e6, 3.5e6, 3.5e6, 3.5e6] {
                m.ingest(from, to, &telemetry(goodput));
                assert_eq!(m.evaluate(1.0), Decision::Keep);
            }
        }
        assert_eq!(m.estimates(), &estimates);
        assert!(m.decisions().is_empty());
        assert!(m.graph == graph && m.base_graph == graph);
    }

    #[test]
    fn cooldown_blocks_back_to_back_remaps() {
        let mut m = monitor_with(AdaptConfig {
            cooldown_s: 100.0,
            ..AdaptConfig::default()
        });
        for _ in 0..3 {
            m.ingest(0, 1, &telemetry(35e6));
        }
        m.ingest(0, 1, &telemetry(3.5e6));
        m.ingest(0, 1, &telemetry(3.5e6));
        assert!(matches!(m.evaluate(10.0), Decision::Remap(_)));
        // The route flips back up immediately — confirmed, but cooldown.
        m.ingest(0, 1, &telemetry(35e6));
        m.ingest(0, 1, &telemetry(35e6));
        assert_eq!(m.evaluate(12.0), Decision::Keep);
        assert_eq!(m.decisions().last().unwrap().reason, "cooldown");
        // The change was deferred, not dropped: once the cooldown expires
        // the evaluation retries (without any fresh confirmation, which
        // the re-locked detector could never provide) and re-maps back.
        match m.evaluate(200.0) {
            Decision::Remap(opt) => assert!(opt.mapping.path.contains(&1)),
            Decision::Keep => panic!("deferred change must remap after cooldown"),
        }
    }

    #[test]
    fn decision_trace_is_deterministic_and_serializable() {
        let run = || {
            let mut m = monitor();
            for t in 0..3 {
                m.ingest(0, 1, &telemetry(35e6));
                m.evaluate(t as f64);
            }
            m.ingest(0, 1, &telemetry(3.5e6));
            m.ingest(0, 1, &telemetry(3.5e6));
            m.evaluate(10.0);
            serde_json::to_string(m.decisions()).unwrap()
        };
        assert_eq!(run(), run());
    }
}
