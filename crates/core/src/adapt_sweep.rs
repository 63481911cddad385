//! The dynamic-scenario sweep: static vs adaptive vs oracle at scale.
//!
//! Where the scenario sweep of [`crate::sweep`] quantifies the *optimizer's*
//! win rate across families of generated static WANs (the paper's §6
//! methodology), this [`Sweep`] quantifies the *adaptive controller's* win
//! rate across families of generated **dynamic** scenarios.  Per scenario it
//!
//! 1. generates a WAN ([`ricsa_netsim::generators`]),
//! 2. derives one member of the WAN's seeded dynamic-schedule family
//!    ([`ricsa_netsim::dynamics::family_member_seed`] — `K` schedules
//!    keyed off the WAN's own seed),
//! 3. runs the frame-paced steering loop under the Static, Adaptive and
//!    Oracle policies ([`crate::adapt::run_adaptive_loop`]), plus a
//!    second Adaptive run with the RTT signal disabled (the
//!    detection-latency axis), and
//! 4. folds the four runs into one serde-able [`AdaptSweepRecord`]:
//!    per-policy frame throughput, post-event speedup vs static,
//!    oracle gap, time-to-remap, detection latencies with and without
//!    the RTT signal and a decision-trace digest.
//!
//! Every record is byte-deterministic per seed — virtual-time quantities
//! only.  This is the first subsystem that composes every prior layer —
//! generators, dynamics, passive telemetry, warm re-solves, the migration
//! protocol — into one reproducible experiment; DESIGN.md §9 ("Adaptation
//! evaluation book") documents the scenario model and how to read the
//! output.

use crate::adapt::{run_adaptive_loop, AdaptPolicy, AdaptiveLoopSpec, AdaptiveRun};
use crate::catalog::{standard_pipeline, SimulationCatalog};
use crate::sweep::{generated_wan, mean, off_path_node, opt, table, Distribution, Sweep};
use ricsa_adapt::monitor::AdaptConfig;
use ricsa_netsim::dynamics::{
    family_member_seed, generate_schedule, DynamicScenario, ScheduleParams,
};
use ricsa_netsim::generators::GeneratedWan;
use ricsa_netsim::link::LinkId;
use ricsa_netsim::node::NodeId;
use ricsa_netsim::rng::SimRng;
use ricsa_netsim::time::SimTime;
use ricsa_pipemap::dp::optimize_with;
use ricsa_pipemap::fnv1a_hex;
use ricsa_pipemap::network::NetGraph;
use serde::{Deserialize, Serialize};

/// Configuration of one dynamic-scenario (adaptation) sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptSweepConfig {
    /// Number of base WANs to generate (alternating Waxman/transit-stub).
    pub wans: usize,
    /// Seeded dynamic schedules derived per WAN — the sweep evaluates
    /// `wans × schedules_per_wan` dynamic scenarios in total.
    pub schedules_per_wan: usize,
    /// Base RNG seed; WAN `i` derives its seed from it, and each WAN's
    /// schedule family is keyed off the WAN seed.
    pub seed: u64,
    /// Smallest generated topology (nodes).
    pub min_nodes: usize,
    /// Largest generated topology (nodes).
    pub max_nodes: usize,
    /// Dataset size pushed around each loop, bytes.
    pub dataset_bytes: usize,
    /// Frames pulled through the loop per policy run.
    pub frames: u64,
    /// Target goodput of the stage-to-stage data flows, bytes/second.
    pub target_goodput: f64,
    /// Virtual-time budget per policy run.
    pub max_virtual_time: SimTime,
    /// Monitor configuration of the adaptive policy (the RTT-off axis run
    /// clears [`AdaptConfig::rtt_signal`] on a copy).
    pub adapt: AdaptConfig,
    /// Parameters of the seeded schedule generator.
    pub schedule: ScheduleParams,
    /// Fraction of each schedule's event links deterministically
    /// retargeted onto the *initially optimal* data route (decided per
    /// distinct link, so an episode's degradation and recovery stay
    /// paired).  Uniformly random events mostly miss the few links the
    /// loop exercises — the common case, but one where every policy ties
    /// by construction — so the sweep stresses the motivating scenario
    /// class at this rate while `0.0` keeps pure background drift.
    pub route_bias: f64,
}

impl Default for AdaptSweepConfig {
    fn default() -> Self {
        AdaptSweepConfig {
            wans: 12,
            schedules_per_wan: 3,
            seed: 20080609,
            min_nodes: 6,
            max_nodes: 14,
            dataset_bytes: 256 << 10,
            frames: 16,
            target_goodput: 200e6,
            max_virtual_time: SimTime::from_secs(240.0),
            adapt: AdaptConfig::default(),
            // Frames on these WANs are a few hundred virtual milliseconds,
            // so events must come much denser than the default WAN drift
            // model or every schedule would land after the run ended:
            // one event every ~0.8 virtual seconds, episodes recovering
            // after ~3 (so recoveries — the cases where a migration can
            // turn out to have been wasted — also land in-window).
            schedule: ScheduleParams {
                horizon: 6.0,
                mean_gap: 0.8,
                mean_outage: 3.0,
                degrade_weight: 2.0,
                ..ScheduleParams::default()
            },
            route_bias: 0.5,
        }
    }
}

impl AdaptSweepConfig {
    /// The CI-friendly quick sweep: 36 dynamic scenarios (12 WANs × 3
    /// schedules), finishes in seconds.
    pub fn quick() -> Self {
        AdaptSweepConfig::default()
    }

    /// The full sweep: hundreds of dynamic scenarios on larger WANs with
    /// more frames per run.
    pub fn full() -> Self {
        AdaptSweepConfig {
            wans: 40,
            schedules_per_wan: 6,
            max_nodes: 24,
            dataset_bytes: 1 << 20,
            frames: 20,
            schedule: ScheduleParams {
                horizon: 20.0,
                mean_gap: 2.0,
                mean_outage: 8.0,
                degrade_weight: 2.0,
                ..ScheduleParams::default()
            },
            ..AdaptSweepConfig::default()
        }
    }
}

/// One serializable row of the sweep: a generated WAN plus one seeded
/// event schedule, run under the static, adaptive and oracle control
/// policies.  The default is the record of a scenario that never ran:
/// every metric absent.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct AdaptSweepRecord {
    /// Scenario id within the sweep (`wan_index * schedules_per_wan + k`).
    pub id: u64,
    /// Human-readable description: WAN family/scale plus schedule seed.
    pub label: String,
    /// Seed the WAN topology was generated from.
    pub wan_seed: u64,
    /// Seed of this dynamic schedule (a family member of `wan_seed`).
    pub schedule_seed: u64,
    /// Node count of the WAN.
    pub nodes: usize,
    /// Directed link count of the WAN.
    pub links: usize,
    /// Scheduled link events that landed *inside the run's measured
    /// virtual window* (events the policies actually experienced; events
    /// scheduled past the last completed frame are not counted).  0 when
    /// the scenario never ran.
    pub events: usize,
    /// Frames requested per policy run.
    pub frames: u64,
    /// Frames delivered per virtual second under the static policy.
    pub static_fps: Option<f64>,
    /// Frames delivered per virtual second under the adaptive policy.
    pub adaptive_fps: Option<f64>,
    /// Frames delivered per virtual second under the oracle policy.
    pub oracle_fps: Option<f64>,
    /// Static post-event mean loop delay divided by adaptive post-event
    /// mean (> 1: adaptation won; ≈ 1: tie — typically no event touched
    /// the active route; < 1: adaptation lost, e.g. a migration paid for
    /// a change that recovered).  `None` when no event landed inside the
    /// run's virtual window or a policy run completed no post-event frame.
    pub post_event_speedup: Option<f64>,
    /// Adaptive steady-state mean delay divided by the oracle's (the
    /// adaptation quality bound: 1 = converged onto the oracle).
    pub oracle_gap: Option<f64>,
    /// Virtual seconds from the first scheduled event to the adaptive
    /// run's first migration commit.
    pub remap_latency_s: Option<f64>,
    /// Migrations the adaptive run executed.
    pub migrations: usize,
    /// Virtual seconds from the first scheduled event to the first
    /// confirmed change-point detection, RTT signal on.
    pub detect_latency_s: Option<f64>,
    /// The same with the RTT signal off (goodput-only detection).
    pub detect_latency_no_rtt_s: Option<f64>,
    /// Frames lost, summed over the policy runs (0 on a healthy record).
    pub frames_lost: u64,
    /// Duplicated frame deliveries, summed over the policy runs (0 on a
    /// healthy record).
    pub frames_duplicated: u64,
    /// FNV-1a digest of the adaptive run's serialized decision trace —
    /// the compact determinism witness two runs of the same seed must
    /// reproduce.
    pub decision_digest: String,
}

/// Aggregate statistics over an [`AdaptSweepRecord`] set: adaptation win
/// rates against the static policy, oracle-gap percentiles, and the
/// detection-latency comparison of the RTT-signal axis.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptSweepSummary {
    /// Total dynamic scenarios in the set.
    pub scenarios: usize,
    /// Records with a comparable post-event window (an event landed
    /// in-window and both static and adaptive completed frames after it);
    /// only these contribute to the win/speedup statistics.
    pub compared: usize,
    /// Compared records where adaptive strictly beat static (beyond
    /// round-off).
    pub adaptive_wins: usize,
    /// Compared records where adaptive strictly lost (the honest column:
    /// migrations that paid for changes which recovered, or thrash near
    /// the margin/cooldown boundary).
    pub adaptive_losses: usize,
    /// Compared records decided within round-off — typically no scheduled
    /// event touched the active route, so both policies ran identically.
    pub ties: usize,
    /// `adaptive_wins / compared` (0 when nothing was compared).
    pub win_rate: f64,
    /// Mean post-event speedup (static / adaptive) over compared records.
    pub mean_post_event_speedup: f64,
    /// 10th percentile of the post-event speedups.
    pub p10_post_event_speedup: f64,
    /// Median post-event speedup.
    pub p50_post_event_speedup: f64,
    /// 90th percentile of the post-event speedups.
    pub p90_post_event_speedup: f64,
    /// Mean adaptive/oracle steady-state ratio over records carrying one.
    pub mean_oracle_gap: f64,
    /// 90th percentile of the oracle gap.
    pub p90_oracle_gap: f64,
    /// Mean virtual seconds from first event to migration commit, over
    /// adaptive runs that migrated.
    pub mean_remap_latency_s: Option<f64>,
    /// Fraction of event-carrying records where the RTT-on controller
    /// confirmed any detection.
    pub detect_rate: f64,
    /// The same for the goodput-only (RTT-off) controller.
    pub detect_rate_no_rtt: f64,
    /// Mean detection latency of the RTT-on controller, seconds.
    pub mean_detect_latency_s: Option<f64>,
    /// Mean detection latency of the goodput-only controller, seconds.
    pub mean_detect_latency_no_rtt_s: Option<f64>,
    /// Mean `(goodput-only − RTT-on)` detection latency over records
    /// where both confirmed — positive means the RTT signal detected
    /// earlier.
    pub mean_rtt_detect_advantage_s: Option<f64>,
}

impl AdaptSweepSummary {
    /// Compute the summary of a record set.
    pub fn aggregate(records: &[AdaptSweepRecord]) -> AdaptSweepSummary {
        let speedups = Distribution::of(records.iter().filter_map(|r| r.post_event_speedup));
        let gaps = Distribution::of(records.iter().filter_map(|r| r.oracle_gap));
        let remap: Vec<f64> = records.iter().filter_map(|r| r.remap_latency_s).collect();
        let eventful: Vec<&AdaptSweepRecord> = records.iter().filter(|r| r.events > 0).collect();
        let latencies = |latency: fn(&AdaptSweepRecord) -> Option<f64>| -> Vec<f64> {
            eventful.iter().filter_map(|r| latency(r)).collect()
        };
        let detect = latencies(|r| r.detect_latency_s);
        let detect_no_rtt = latencies(|r| r.detect_latency_no_rtt_s);
        // Positive: the RTT signal detected earlier.  Only where both did.
        let advantage = latencies(|r| Some(r.detect_latency_no_rtt_s? - r.detect_latency_s?));
        let rate = |detected: &[f64]| match eventful.len() {
            0 => 0.0,
            n => detected.len() as f64 / n as f64,
        };
        AdaptSweepSummary {
            scenarios: records.len(),
            compared: speedups.count,
            adaptive_wins: speedups.wins,
            adaptive_losses: speedups.losses,
            ties: speedups.count - speedups.wins - speedups.losses,
            win_rate: speedups.win_rate(),
            mean_post_event_speedup: speedups.mean,
            p10_post_event_speedup: speedups.p10,
            p50_post_event_speedup: speedups.p50,
            p90_post_event_speedup: speedups.p90,
            mean_oracle_gap: gaps.mean,
            p90_oracle_gap: gaps.p90,
            mean_remap_latency_s: mean(&remap),
            detect_rate: rate(&detect),
            detect_rate_no_rtt: rate(&detect_no_rtt),
            mean_detect_latency_s: mean(&detect),
            mean_detect_latency_no_rtt_s: mean(&detect_no_rtt),
            mean_rtt_detect_advantage_s: mean(&advantage),
        }
    }
}

/// Aggregated result of an adaptation sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptSweepReport {
    /// Per-scenario records, in scenario order.
    pub records: Vec<AdaptSweepRecord>,
    /// Win-rate / oracle-gap / detection statistics over the record set.
    pub summary: AdaptSweepSummary,
}

/// Frames averaged for steady-state (oracle-gap) comparisons.
const STEADY_TAIL: usize = 4;

impl Sweep for AdaptSweepConfig {
    type Cell = AdaptSweepRecord;
    type Report = AdaptSweepReport;

    fn preset(quick: bool) -> Self {
        if quick {
            AdaptSweepConfig::quick()
        } else {
            AdaptSweepConfig::full()
        }
    }

    fn seed_mut(&mut self) -> &mut u64 {
        &mut self.seed
    }

    /// Dynamic scenarios evaluated: every schedule of every WAN.
    fn cells(&self) -> usize {
        self.wans * self.schedules_per_wan
    }

    /// Generate and evaluate dynamic scenario `index`: WAN
    /// `index / schedules_per_wan`, member `index % schedules_per_wan` of
    /// its schedule family, every policy.
    fn run_cell(&self, index: usize) -> AdaptSweepRecord {
        let per_wan = self.schedules_per_wan;
        // Stride 5 is coprime to both presets' size spans (9 and 19), so
        // the size axis cycles through the whole range.
        let (_, wan) = generated_wan(
            self.seed,
            index / per_wan,
            (self.min_nodes, self.max_nodes),
            5,
        );
        let schedule = generate_schedule(
            wan.topology.edge_count(),
            &self.schedule,
            family_member_seed(wan.seed, (index % per_wan) as u64),
        );
        let mut record = AdaptSweepRecord {
            id: index as u64,
            label: format!("{} + {}", wan.label, schedule.label),
            wan_seed: wan.seed,
            schedule_seed: schedule.seed,
            nodes: wan.topology.node_count(),
            links: wan.topology.edge_count(),
            frames: self.frames,
            ..AdaptSweepRecord::default()
        };
        let Some(spec) = loop_spec(self, &wan, &schedule) else {
            return record; // no feasible mapping or no off-path CM node
        };
        let run = |policy: AdaptPolicy, rtt_signal: bool| {
            let mut spec = spec.clone();
            spec.adapt.rtt_signal = rtt_signal;
            run_adaptive_loop(&spec, policy).ok()
        };
        // The fourth run is the detection-latency axis: the same adaptive
        // controller on goodput alone.
        let (Some(static_run), Some(adaptive), Some(oracle), Some(adaptive_no_rtt)) = (
            run(AdaptPolicy::Static, true),
            run(AdaptPolicy::Adaptive, true),
            run(AdaptPolicy::Oracle, true),
            run(AdaptPolicy::Adaptive, false),
        ) else {
            return record;
        };
        let runs = [&static_run, &adaptive, &oracle, &adaptive_no_rtt];

        // Only events that landed inside the static run's virtual window are
        // part of the scenario the policies actually experienced.
        let window_end = virtual_end(&static_run).unwrap_or(0.0);
        record.events = spec
            .schedule
            .events
            .iter()
            .filter(|e| e.at.as_secs() <= window_end)
            .count();
        let event_at = spec
            .schedule
            .first_event_at()
            .map(|t| t.as_secs())
            .filter(|t| *t <= window_end);

        record.static_fps = frames_per_virtual_second(&static_run);
        record.adaptive_fps = frames_per_virtual_second(&adaptive);
        record.oracle_fps = frames_per_virtual_second(&oracle);
        record.post_event_speedup = event_at.and_then(|at| {
            match (
                static_run.mean_delay_where(|s| s >= at),
                adaptive.mean_delay_where(|s| s >= at),
            ) {
                (Some(st), Some(ad)) if ad > 0.0 => Some(st / ad),
                _ => None,
            }
        });
        record.oracle_gap = match (
            adaptive.steady_state_mean(STEADY_TAIL),
            oracle.steady_state_mean(STEADY_TAIL),
        ) {
            (Some(a), Some(o)) if o > 0.0 => Some(a / o),
            _ => None,
        };
        record.remap_latency_s = adaptive.remap_latency_s;
        record.migrations = adaptive.migrations.len();
        record.detect_latency_s = event_at.and_then(|at| detect_latency(&adaptive, at));
        record.detect_latency_no_rtt_s =
            event_at.and_then(|at| detect_latency(&adaptive_no_rtt, at));
        record.frames_lost = runs.iter().map(|r| r.frames_lost).sum();
        record.frames_duplicated = runs.iter().map(|r| r.frames_duplicated).sum();
        record.decision_digest = decision_digest(&adaptive);
        record
    }

    fn aggregate(&self, records: Vec<AdaptSweepRecord>) -> AdaptSweepReport {
        let summary = AdaptSweepSummary::aggregate(&records);
        AdaptSweepReport { records, summary }
    }

    fn format(report: &AdaptSweepReport) -> String {
        let mut out = table(
            &[
                ("id", -5),
                ("nodes", 6),
                ("links", 7),
                ("events", 8),
                ("stat fps", 10),
                ("adpt fps", 10),
                ("orcl fps", 10),
                ("speedup", 9),
                ("remaps", 8),
                ("gap", 9),
                ("det rtt", 10),
                ("det good", 10),
            ],
            report.records.iter().map(|r| {
                vec![
                    r.id.to_string(),
                    r.nodes.to_string(),
                    r.links.to_string(),
                    r.events.to_string(),
                    opt(r.static_fps, 3, ""),
                    opt(r.adaptive_fps, 3, ""),
                    opt(r.oracle_fps, 3, ""),
                    opt(r.post_event_speedup, 2, "x"),
                    r.migrations.to_string(),
                    opt(r.oracle_gap, 3, ""),
                    opt(r.detect_latency_s, 3, ""),
                    opt(r.detect_latency_no_rtt_s, 3, ""),
                ]
            }),
        );
        let s = &report.summary;
        out.push_str(&format!(
            "\nAdaptive vs static: {}/{} compared — {} wins / {} ties / {} losses, win rate {:.0}%\n",
            s.compared,
            s.scenarios,
            s.adaptive_wins,
            s.ties,
            s.adaptive_losses,
            100.0 * s.win_rate
        ));
        out.push_str(&format!(
            "post-event speedup (static/adaptive): mean {:.2}x (p10 {:.2}x, median {:.2}x, p90 {:.2}x)\n",
            s.mean_post_event_speedup,
            s.p10_post_event_speedup,
            s.p50_post_event_speedup,
            s.p90_post_event_speedup
        ));
        out.push_str(&format!(
            "oracle gap (adaptive/oracle steady state): mean {:.3}, p90 {:.3}\n",
            s.mean_oracle_gap, s.p90_oracle_gap
        ));
        out.push_str(&format!(
            "time-to-remap: mean {} s after the first event\n",
            opt(s.mean_remap_latency_s, 3, "")
        ));
        out.push_str(&format!(
            "detection: RTT signal on {:.0}% of eventful scenarios (mean {} s) vs goodput-only {:.0}% (mean {} s); mean RTT advantage {} s\n",
            100.0 * s.detect_rate,
            opt(s.mean_detect_latency_s, 3, ""),
            100.0 * s.detect_rate_no_rtt,
            opt(s.mean_detect_latency_no_rtt_s, 3, ""),
            opt(s.mean_rtt_detect_advantage_s, 3, "")
        ));
        out
    }

    /// The frame audit must be clean across every migration of every
    /// scenario, and most scenarios must have produced a comparison.
    fn audit(&self, report: &AdaptSweepReport) -> Result<(), String> {
        if let Some(r) = report
            .records
            .iter()
            .find(|r| r.frames_lost + r.frames_duplicated > 0)
        {
            return Err(format!(
                "scenario {}: {} lost / {} duplicated frames across the policy runs",
                r.id, r.frames_lost, r.frames_duplicated
            ));
        }
        let (compared, total) = (report.summary.compared, report.records.len());
        if compared < total / 2 {
            return Err(format!(
                "most scenarios must be comparable, only {compared}/{total} are"
            ));
        }
        Ok(())
    }
}

/// Build the adaptive-loop spec for one scenario: the standard pipeline
/// mapped source → client, with the CM on a node off the *initial* data
/// path and [`AdaptSweepConfig::route_bias`] of the schedule's event
/// links retargeted onto that path.  `None` when the WAN admits no
/// feasible mapping or every node lies on it.
pub fn loop_spec(
    config: &AdaptSweepConfig,
    wan: &GeneratedWan,
    schedule: &DynamicScenario,
) -> Option<AdaptiveLoopSpec> {
    let catalog = SimulationCatalog::default();
    let pipeline = standard_pipeline(config.dataset_bytes, &catalog.costs);
    let graph = NetGraph::from_topology(&wan.topology);
    let (initial, _) = optimize_with(
        &pipeline,
        &graph,
        wan.source.0,
        wan.client.0,
        &config.adapt.options,
    );
    let initial = initial?;
    let path = &initial.mapping.path;
    let cm = off_path_node(&wan.topology, path)?;
    let route_links: Vec<LinkId> = path
        .windows(2)
        .filter_map(|pair| {
            wan.topology
                .edge_between(NodeId(pair[0]), NodeId(pair[1]))
                .map(|e| e.id)
        })
        .collect();
    let schedule = retarget_schedule(schedule, &route_links, config.route_bias);
    let seed = schedule.seed;
    Some(AdaptiveLoopSpec {
        topology: wan.topology.clone(),
        schedule,
        pipeline,
        source: wan.source,
        client: wan.client,
        cm,
        iterations: config.frames,
        seed,
        target_goodput: config.target_goodput,
        adapt: config.adapt.clone(),
        session: 1,
        max_virtual_time: config.max_virtual_time,
    })
}

/// Deterministically retarget [`AdaptSweepConfig::route_bias`] of the
/// schedule's event links onto the initially-optimal data route.  The
/// decision is made once per *distinct* link (keyed by first appearance),
/// so a degradation episode and its recovery always stay paired on the
/// same link, and no two source links ever share a target — each route
/// link is drawn without replacement, and route links that already carry
/// original events are excluded from the pool — because merging two
/// event streams onto one link would let one episode's `Restore`
/// silently cancel the other's still-active degradation.  Once the pool
/// is exhausted, later links keep their original target.  The RNG is
/// seeded by the schedule's own seed, so the retargeted scenario
/// reproduces exactly like the raw one.
fn retarget_schedule(
    schedule: &DynamicScenario,
    route_links: &[LinkId],
    bias: f64,
) -> DynamicScenario {
    if route_links.is_empty() || bias <= 0.0 {
        return schedule.clone();
    }
    let mut rng = SimRng::new(schedule.seed ^ 0xA11C_E5ED);
    let mut available: Vec<LinkId> = route_links
        .iter()
        .copied()
        .filter(|r| schedule.events.iter().all(|e| e.link != *r))
        .collect();
    let mut retargeted: std::collections::HashMap<LinkId, LinkId> =
        std::collections::HashMap::new();
    let mut events = schedule.events.clone();
    for event in &mut events {
        let target = *retargeted.entry(event.link).or_insert_with(|| {
            if !available.is_empty() && rng.coin(bias) {
                available.remove(rng.index(available.len()))
            } else {
                event.link
            }
        });
        event.link = target;
    }
    DynamicScenario {
        label: format!("{}·bias{:.0}%", schedule.label, 100.0 * bias),
        seed: schedule.seed,
        events,
    }
}

/// Virtual time the run's last completed frame reached the client.
fn virtual_end(run: &AdaptiveRun) -> Option<f64> {
    let last_start = run.starts.last()?;
    let last_delay = run.delays.last()?;
    Some(last_start + last_delay)
}

/// Frames delivered per virtual second, first request to last delivery.
fn frames_per_virtual_second(run: &AdaptiveRun) -> Option<f64> {
    let first = run.starts.first()?;
    let span = virtual_end(run)? - first;
    (span > 0.0).then(|| run.frames_completed as f64 / span)
}

/// Virtual seconds from `event_at` to the first confirmed detection at or
/// after it (`None` when the controller never confirmed one).  An earlier,
/// noise-triggered confirmation does not count — both axes are measured
/// against the same scheduled event.
fn detect_latency(run: &AdaptiveRun, event_at: f64) -> Option<f64> {
    run.decisions
        .iter()
        .find(|d| d.at >= event_at)
        .map(|d| d.at - event_at)
}

/// FNV-1a digest of the run's serialized decision trace — a compact,
/// wall-clock-free determinism witness.
fn decision_digest(run: &AdaptiveRun) -> String {
    fnv1a_hex(&serde_json::to_string(&run.decisions).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run;

    fn tiny_config() -> AdaptSweepConfig {
        AdaptSweepConfig {
            wans: 2,
            schedules_per_wan: 2,
            frames: 4,
            dataset_bytes: 128 << 10,
            max_nodes: 8,
            ..AdaptSweepConfig::default()
        }
    }

    #[test]
    fn adapt_sweep_records_are_deterministic_per_seed() {
        let config = tiny_config();
        let a = run(&config);
        let b = run(&config);
        assert_eq!(a, b, "records and summary must reproduce per seed");
        // A different base seed produces a different scenario set.
        let other = run(&AdaptSweepConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a.records, other.records);
    }

    #[test]
    fn adapt_sweep_produces_comparable_scenarios_and_audits_cleanly() {
        let config = tiny_config();
        let report = run(&config);
        assert_eq!(report.records.len(), 4);
        let ran = report
            .records
            .iter()
            .filter(|r| r.static_fps.is_some())
            .count();
        assert!(ran >= 3, "only {ran}/4 scenarios ran all policies");
        assert_eq!(config.audit(&report), Ok(()));
        for r in report.records.iter().filter(|r| r.static_fps.is_some()) {
            assert!(!r.decision_digest.is_empty());
        }
        let table = AdaptSweepConfig::format(&report);
        assert!(table.contains("Adaptive vs static"));
        assert!(table.contains("oracle gap"));
        assert!(table.contains("detection"));
        // The audit names the scenario that lost a frame, and refuses a
        // record set with nothing to compare.
        let mut lossy = report.clone();
        lossy.records[2].frames_lost = 1;
        assert!(config.audit(&lossy).unwrap_err().contains("scenario 2"));
        let unran = config.aggregate(vec![AdaptSweepRecord::default(); 4]);
        assert!(config.audit(&unran).unwrap_err().contains("0/4"));
    }

    #[test]
    fn adapt_summary_counts_wins_losses_ties_and_detection_axes() {
        let mk = |id: u64,
                  speedup: Option<f64>,
                  events: usize,
                  detect: Option<f64>,
                  detect_no_rtt: Option<f64>| AdaptSweepRecord {
            id,
            events,
            post_event_speedup: speedup,
            oracle_gap: speedup.map(|_| 1.0),
            remap_latency_s: speedup.filter(|&s| s > 1.0).map(|_| 2.0),
            detect_latency_s: detect,
            detect_latency_no_rtt_s: detect_no_rtt,
            ..AdaptSweepRecord::default()
        };
        let records = vec![
            mk(0, Some(2.0), 3, Some(1.0), Some(3.0)),
            mk(1, Some(1.0), 2, Some(1.5), None),
            mk(2, Some(0.9), 1, None, None),
            mk(3, None, 0, None, None),
        ];
        let s = AdaptSweepSummary::aggregate(&records);
        assert_eq!(s.scenarios, 4);
        assert_eq!(s.compared, 3);
        assert_eq!(s.adaptive_wins, 1);
        assert_eq!(s.adaptive_losses, 1);
        assert_eq!(s.ties, 1);
        assert!((s.win_rate - 1.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_post_event_speedup - 1.3).abs() < 1e-12);
        // Detection rates are over the 3 eventful records only.
        assert!((s.detect_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.detect_rate_no_rtt - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.mean_detect_latency_s, Some(1.25));
        assert_eq!(s.mean_detect_latency_no_rtt_s, Some(3.0));
        // Advantage counted only where both controllers detected.
        assert_eq!(s.mean_rtt_detect_advantage_s, Some(2.0));
        assert_eq!(s.mean_remap_latency_s, Some(2.0));
        let empty = AdaptSweepSummary::aggregate(&[]);
        assert_eq!(empty.compared, 0);
        assert_eq!(empty.detect_rate, 0.0);
        assert_eq!(empty.mean_detect_latency_s, None);
    }
}
