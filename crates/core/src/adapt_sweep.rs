//! The dynamic-scenario sweep: static vs adaptive vs oracle at scale.
//!
//! Where [`crate::sweep`] quantifies the *optimizer's* win rate across
//! families of generated static WANs (the paper's §6 methodology), this
//! module quantifies the *adaptive controller's* win rate across families
//! of generated **dynamic** scenarios.  Per scenario it
//!
//! 1. generates a WAN ([`ricsa_netsim::generators`]),
//! 2. derives one member of a seeded dynamic-schedule family
//!    ([`ricsa_netsim::dynamics::generate_schedule_family`] — `K`
//!    schedules keyed off the WAN's own seed),
//! 3. runs the frame-paced steering loop under the Static, Adaptive and
//!    Oracle policies ([`crate::adapt::run_adaptive_loop`]), plus a
//!    second Adaptive run with the RTT signal disabled (the
//!    detection-latency axis), and
//! 4. folds the four runs into one serde-able
//!    [`ricsa_pipemap::sweep::AdaptSweepRecord`]:
//!    per-policy frame throughput, post-event speedup vs static,
//!    oracle gap, time-to-remap, detection latencies with and without
//!    the RTT signal, warm-vs-cold solve timings and a decision-trace
//!    digest.
//!
//! Scenarios are independent, so the sweep fans out over worker threads
//! via the `rayon` shim; every record is byte-deterministic per seed
//! (wall-clock solve timings are excluded from record equality, exactly
//! as in [`ricsa_pipemap::sweep::SweepRecord`]).  This is the first
//! subsystem that composes every prior layer — generators, dynamics,
//! passive telemetry, warm re-solves, the migration protocol — into one
//! reproducible experiment; DESIGN.md §9 ("Adaptation evaluation book")
//! documents the scenario model and how to read the output.

use crate::adapt::{run_adaptive_loop, AdaptPolicy, AdaptiveLoopSpec, AdaptiveRun};
use crate::catalog::{standard_pipeline, SimulationCatalog};
use crate::sweep::scenario_seed;
use rayon::prelude::*;
use ricsa_adapt::monitor::AdaptConfig;
use ricsa_netsim::dynamics::{generate_schedule_family, DynamicScenario, ScheduleParams};
use ricsa_netsim::generators::{generate, GeneratedWan, WanKind};
use ricsa_netsim::link::LinkId;
use ricsa_netsim::node::NodeId;
use ricsa_netsim::rng::SimRng;
use ricsa_netsim::time::SimTime;
use ricsa_pipemap::dp::optimize_with;
use ricsa_pipemap::fnv1a_hex;
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::sweep::{AdaptSweepRecord, AdaptSweepSummary};
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
    /// Also run the goodput-only adaptive controller per scenario to
    /// measure the RTT signal's detection-latency win (one extra policy
    /// run per scenario).
    pub rtt_axis: bool,
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
            rtt_axis: true,
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

    /// Total dynamic scenarios the sweep evaluates.
    pub fn scenarios(&self) -> usize {
        self.wans * self.schedules_per_wan
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

/// Run the sweep: generate → schedule → run policies → aggregate.
pub fn run_adapt_sweep(config: &AdaptSweepConfig) -> AdaptSweepReport {
    let total = config.scenarios();
    let records: Vec<AdaptSweepRecord> = (0..total)
        .into_par_iter()
        .map(|i| run_dynamic_scenario(config, i))
        .collect();
    let summary = AdaptSweepSummary::aggregate(&records);
    AdaptSweepReport { records, summary }
}

/// Generate and evaluate dynamic scenario `index` of the sweep.
fn run_dynamic_scenario(config: &AdaptSweepConfig, index: usize) -> AdaptSweepRecord {
    let wan_index = index / config.schedules_per_wan.max(1);
    let member = index % config.schedules_per_wan.max(1);
    let kind = if wan_index.is_multiple_of(2) {
        WanKind::Waxman
    } else {
        WanKind::TransitStub
    };
    // Stride 5 is coprime to the default size spans, so the size axis
    // actually cycles through the whole range (stride 7 with a span of 7
    // would pin every WAN to `min_nodes`).
    let span = config.max_nodes.max(config.min_nodes) - config.min_nodes + 1;
    let nodes = config.min_nodes + (wan_index * 5) % span;
    let wan_seed = scenario_seed(config.seed, wan_index as u64);
    let wan = generate(kind, nodes, wan_seed);
    let schedule = generate_schedule_family(
        wan.topology.edge_count(),
        &config.schedule,
        wan_seed,
        member + 1,
    )
    .pop()
    .expect("family has member+1 elements");
    let mut record = empty_record(config, index as u64, &wan, &schedule);
    let Some(spec) = loop_spec(config, &wan, &schedule) else {
        return record; // no feasible mapping or no off-path CM node
    };

    let run = |policy: AdaptPolicy, rtt_signal: bool| {
        let mut spec = spec.clone();
        spec.adapt.rtt_signal = rtt_signal;
        run_adaptive_loop(&spec, policy).ok()
    };
    let Some(static_run) = run(AdaptPolicy::Static, true) else {
        return record;
    };
    let Some(adaptive) = run(AdaptPolicy::Adaptive, true) else {
        return record;
    };
    let Some(oracle) = run(AdaptPolicy::Oracle, true) else {
        return record;
    };
    let adaptive_no_rtt = if config.rtt_axis {
        run(AdaptPolicy::Adaptive, false)
    } else {
        None
    };

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
    record.detect_latency_no_rtt_s = event_at.and_then(|at| {
        adaptive_no_rtt
            .as_ref()
            .and_then(|run| detect_latency(run, at))
    });
    record.frames_lost = static_run.frames_lost
        + adaptive.frames_lost
        + oracle.frames_lost
        + adaptive_no_rtt.as_ref().map_or(0, |r| r.frames_lost);
    record.frames_duplicated = static_run.frames_duplicated
        + adaptive.frames_duplicated
        + oracle.frames_duplicated
        + adaptive_no_rtt.as_ref().map_or(0, |r| r.frames_duplicated);
    record.decision_digest = decision_digest(&adaptive);
    record.warm_solve_us = mean_solve_us(&adaptive);
    record.cold_solve_us = mean_solve_us(&oracle);
    record
}

/// The record of a scenario before (or without) any policy run: identity
/// fields filled in, every metric absent.
fn empty_record(
    config: &AdaptSweepConfig,
    id: u64,
    wan: &GeneratedWan,
    schedule: &DynamicScenario,
) -> AdaptSweepRecord {
    AdaptSweepRecord {
        id,
        label: format!("{} + {}", wan.label, schedule.label),
        wan_seed: wan.seed,
        schedule_seed: schedule.seed,
        nodes: wan.topology.node_count(),
        links: wan.topology.edge_count(),
        events: 0,
        frames: config.frames,
        static_fps: None,
        adaptive_fps: None,
        oracle_fps: None,
        post_event_speedup: None,
        oracle_gap: None,
        remap_latency_s: None,
        migrations: 0,
        detect_latency_s: None,
        detect_latency_no_rtt_s: None,
        frames_lost: 0,
        frames_duplicated: 0,
        decision_digest: String::new(),
        warm_solve_us: 0.0,
        cold_solve_us: 0.0,
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
    let cm = (0..wan.topology.node_count())
        .map(NodeId)
        .find(|id| !path.contains(&id.0) && *id != wan.source)?;
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

/// Mean wall-clock microseconds per re-solve of the run (0 when none ran).
fn mean_solve_us(run: &AdaptiveRun) -> f64 {
    if run.solves == 0 {
        0.0
    } else {
        run.solve_us_total / run.solves as f64
    }
}

/// FNV-1a digest of the run's serialized decision trace — a compact,
/// wall-clock-free determinism witness.
fn decision_digest(run: &AdaptiveRun) -> String {
    fnv1a_hex(&serde_json::to_string(&run.decisions).unwrap_or_default())
}

/// Render a sweep report as an aligned text table plus summary lines.
pub fn format_adapt_sweep_report(report: &AdaptSweepReport) -> String {
    let fmt = |v: Option<f64>| match v {
        Some(x) => format!("{x:.3}"),
        None => "-".to_string(),
    };
    let mut out = String::new();
    out.push_str(&format!(
        "{:<5}{:>6}{:>7}{:>8}{:>10}{:>10}{:>10}{:>9}{:>8}{:>9}{:>10}{:>10}\n",
        "id",
        "nodes",
        "links",
        "events",
        "stat fps",
        "adpt fps",
        "orcl fps",
        "speedup",
        "remaps",
        "gap",
        "det rtt",
        "det good"
    ));
    for r in &report.records {
        out.push_str(&format!(
            "{:<5}{:>6}{:>7}{:>8}{:>10}{:>10}{:>10}{:>9}{:>8}{:>9}{:>10}{:>10}\n",
            r.id,
            r.nodes,
            r.links,
            r.events,
            fmt(r.static_fps),
            fmt(r.adaptive_fps),
            fmt(r.oracle_fps),
            match r.post_event_speedup {
                Some(s) => format!("{s:.2}x"),
                None => "-".to_string(),
            },
            r.migrations,
            fmt(r.oracle_gap),
            fmt(r.detect_latency_s),
            fmt(r.detect_latency_no_rtt_s),
        ));
    }
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
        fmt(s.mean_remap_latency_s)
    ));
    out.push_str(&format!(
        "detection: RTT signal on {:.0}% of eventful scenarios (mean {} s) vs goodput-only {:.0}% (mean {} s); mean RTT advantage {} s\n",
        100.0 * s.detect_rate,
        fmt(s.mean_detect_latency_s),
        100.0 * s.detect_rate_no_rtt,
        fmt(s.mean_detect_latency_no_rtt_s),
        fmt(s.mean_rtt_detect_advantage_s)
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

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
        let a = run_adapt_sweep(&config);
        let b = run_adapt_sweep(&config);
        assert_eq!(a.records, b.records, "records must reproduce per seed");
        assert_eq!(a.summary, b.summary);
        let digests_a: Vec<&str> = a
            .records
            .iter()
            .map(|r| r.decision_digest.as_str())
            .collect();
        let digests_b: Vec<&str> = b
            .records
            .iter()
            .map(|r| r.decision_digest.as_str())
            .collect();
        assert_eq!(digests_a, digests_b, "decision digests must reproduce");
        // A different base seed produces a different scenario set.
        let other = run_adapt_sweep(&AdaptSweepConfig {
            seed: config.seed + 1,
            ..config
        });
        assert_ne!(a.records, other.records);
    }

    #[test]
    fn adapt_sweep_produces_comparable_scenarios_and_audits_cleanly() {
        let report = run_adapt_sweep(&tiny_config());
        assert_eq!(report.records.len(), 4);
        let ran = report
            .records
            .iter()
            .filter(|r| r.static_fps.is_some())
            .count();
        assert!(ran >= 3, "only {ran}/4 scenarios ran all policies");
        for r in &report.records {
            assert_eq!(r.frames_lost, 0, "scenario {}: lost frames", r.id);
            assert_eq!(r.frames_duplicated, 0, "scenario {}: dup frames", r.id);
            if r.static_fps.is_some() {
                assert!(!r.decision_digest.is_empty());
            }
        }
        let table = format_adapt_sweep_report(&report);
        assert!(table.contains("Adaptive vs static"));
        assert!(table.contains("oracle gap"));
        assert!(table.contains("detection"));
    }
}
