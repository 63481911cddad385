//! Scenario sets and parallel batch solving for mapping sweeps.
//!
//! A [`Scenario`] is one self-contained mapping problem: a pipeline, an
//! optimizer network view, and the source/destination pair.  [`solve_batch`]
//! solves many scenarios in parallel (via `rayon`), producing for each a
//! [`ScenarioSolution`] holding the DP-optimal mapping, a *default-route
//! baseline* (the best pipeline split along the minimum-delay path — what a
//! deployment gets when data simply follows the network's default route, the
//! paper's client/server mode generalized to multi-hop routes), and a
//! serializable [`SweepRecord`] comparing the two.  [`SweepSummary`]
//! aggregates a record set into the win-rate and speedup statistics the
//! scenario-sweep experiments report (see DESIGN.md §6).

use crate::baselines::best_split_on_path;
use crate::delay::{DelayBreakdown, Mapping};
use crate::dp::{optimize_with, DpOptions, DpStats, OptimizedMapping};
use crate::network::{dijkstra, EdgeDir, NetGraph};
use crate::pipeline::Pipeline;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};

/// One self-contained mapping problem of a sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Scenario {
    /// Unique id within the sweep.
    pub id: u64,
    /// Human-readable description (generator family, scale, seed).
    pub label: String,
    /// The seed the scenario's topology was generated from.
    pub seed: u64,
    /// The visualization pipeline to map.
    pub pipeline: Pipeline,
    /// The optimizer's network view.
    pub graph: NetGraph,
    /// Data-source node index.
    pub source: usize,
    /// Client node index.
    pub destination: usize,
}

/// The solved form of one scenario.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSolution {
    /// Comparable summary row (what reports serialize).
    pub record: SweepRecord,
    /// The DP-optimal mapping, if one exists.
    pub optimal: Option<OptimizedMapping>,
    /// The default-route baseline mapping and its predicted delay.
    pub baseline: Option<(Mapping, DelayBreakdown)>,
}

/// One serializable row of a sweep result set.
///
/// Equality ignores the two wall-clock timing fields (`dp_cold_us`,
/// `dp_warm_us`): everything else in a sweep is deterministic per seed and
/// the determinism tests compare whole reports.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepRecord {
    /// Scenario id.
    pub id: u64,
    /// Scenario label.
    pub label: String,
    /// Scenario seed.
    pub seed: u64,
    /// Node count of the scenario's network.
    pub nodes: usize,
    /// Directed link count of the scenario's network.
    pub links: usize,
    /// Predicted delay of the DP-optimal mapping, seconds.
    pub optimal_delay: Option<f64>,
    /// Hops (path nodes) of the optimal mapping.
    pub optimal_hops: Option<usize>,
    /// Predicted delay of the default-route baseline, seconds.
    pub baseline_delay: Option<f64>,
    /// `baseline_delay / optimal_delay` when both exist (≥ 1 up to
    /// round-off: the optimum is taken over a superset of placements).
    pub speedup: Option<f64>,
    /// Predicted delay of the client/server baseline (the paper's "PC–PC"
    /// mode: processing only on the source and client, the route merely
    /// forwards), seconds.
    pub client_server_delay: Option<f64>,
    /// `client_server_delay / optimal_delay` when both exist.
    pub client_server_speedup: Option<f64>,
    /// DP work counters (with pruning enabled).
    pub dp_stats: DpStats,
    /// Wall-clock time of the cold DP solve, microseconds.
    pub dp_cold_us: f64,
    /// Wall-clock time of a warm re-solve seeded with the cold optimum
    /// (the best-case incumbent — what an adaptive re-map pays when the
    /// network barely moved), microseconds.  0 when the scenario is
    /// infeasible.
    pub dp_warm_us: f64,
}

impl PartialEq for SweepRecord {
    fn eq(&self, other: &Self) -> bool {
        // Timing fields excluded: wall-clock, not part of scenario identity.
        self.id == other.id
            && self.label == other.label
            && self.seed == other.seed
            && self.nodes == other.nodes
            && self.links == other.links
            && self.optimal_delay == other.optimal_delay
            && self.optimal_hops == other.optimal_hops
            && self.baseline_delay == other.baseline_delay
            && self.speedup == other.speedup
            && self.client_server_delay == other.client_server_delay
            && self.client_server_speedup == other.client_server_speedup
            && self.dp_stats == other.dp_stats
    }
}

/// Solve one scenario: DP-optimal mapping (pruned) plus the default-route
/// baseline.
pub fn solve_scenario(scenario: &Scenario) -> ScenarioSolution {
    let cold_started = std::time::Instant::now();
    let (optimal, dp_stats) = optimize_with(
        &scenario.pipeline,
        &scenario.graph,
        scenario.source,
        scenario.destination,
        // Relay semantics: generated WANs are sparse, so the paper-faithful
        // one-link-per-message walk often cannot reach the client at all,
        // and the default-route baseline (which may relay) would not be
        // comparable.  See DESIGN.md §6.
        &DpOptions::relayed(),
    );
    let dp_cold_us = cold_started.elapsed().as_secs_f64() * 1e6;
    // Warm re-solve with the optimum as incumbent: quantifies the
    // best-case warm-start win that adaptive re-mapping banks on
    // (DESIGN.md §8).
    let dp_warm_us = match optimal.as_ref() {
        Some(opt) => {
            let warm_started = std::time::Instant::now();
            let (warm, _) = crate::dp::optimize_warm(
                &scenario.pipeline,
                &scenario.graph,
                scenario.source,
                scenario.destination,
                &DpOptions::relayed(),
                &opt.mapping,
            );
            let us = warm_started.elapsed().as_secs_f64() * 1e6;
            debug_assert_eq!(warm.map(|w| w.objective), Some(opt.objective));
            us
        }
        None => 0.0,
    };
    let baseline = default_route_baseline(
        &scenario.pipeline,
        &scenario.graph,
        scenario.source,
        scenario.destination,
    );
    let optimal_delay = optimal.as_ref().map(|o| o.delay.total);
    let baseline_delay = baseline.as_ref().map(|(_, d)| d.total);
    let speedup = match (optimal_delay, baseline_delay) {
        (Some(o), Some(b)) if o > 0.0 => Some(b / o),
        _ => None,
    };
    let client_server = client_server_on_route(
        &scenario.pipeline,
        &scenario.graph,
        scenario.source,
        scenario.destination,
    );
    let client_server_delay = client_server.as_ref().map(|(_, d)| d.total);
    let client_server_speedup = match (optimal_delay, client_server_delay) {
        (Some(o), Some(b)) if o > 0.0 => Some(b / o),
        _ => None,
    };
    ScenarioSolution {
        record: SweepRecord {
            id: scenario.id,
            label: scenario.label.clone(),
            seed: scenario.seed,
            nodes: scenario.graph.node_count(),
            links: scenario.graph.link_count(),
            optimal_delay,
            optimal_hops: optimal.as_ref().map(|o| o.mapping.path.len()),
            baseline_delay,
            speedup,
            client_server_delay,
            client_server_speedup,
            dp_stats,
            dp_cold_us,
            dp_warm_us,
        },
        optimal,
        baseline,
    }
}

/// Solve a scenario set in parallel, preserving order.
pub fn solve_batch(scenarios: &[Scenario]) -> Vec<ScenarioSolution> {
    scenarios.par_iter().map(solve_scenario).collect()
}

/// The default-route baseline: the best contiguous pipeline split along a
/// minimum-delay path from `source` to `destination` (among equal-delay
/// routes, which one is returned depends on the deterministic Dijkstra
/// settle order).  Returns `None` when the destination is unreachable or
/// no split along that path is feasible.
pub fn default_route_baseline(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
) -> Option<(Mapping, DelayBreakdown)> {
    let path = min_delay_path(graph, source, destination)?;
    best_split_on_path(pipeline, graph, &path)
}

/// The client/server baseline (the paper's "PC–PC" mode generalized to a
/// routed WAN): processing happens only on the source and the client, every
/// intermediate node of the minimum-delay route merely forwards.  The split
/// point between the two hosts is still chosen optimally.
pub fn client_server_on_route(
    pipeline: &Pipeline,
    graph: &NetGraph,
    source: usize,
    destination: usize,
) -> Option<(Mapping, DelayBreakdown)> {
    use crate::delay::{evaluate_mapping, validate_mapping};
    let path = min_delay_path(graph, source, destination)?;
    let n = pipeline.message_count();
    let mut best: Option<(Mapping, DelayBreakdown)> = None;
    for split in 0..=n {
        let mut groups: Vec<Vec<usize>> = vec![Vec::new(); path.len()];
        groups[0] = (0..split).collect();
        *groups.last_mut().expect("path is non-empty") = (split..n).collect();
        if path.len() == 1 {
            groups[0] = (0..n).collect();
        }
        let mapping = Mapping {
            path: path.clone(),
            groups,
        };
        if validate_mapping(pipeline, graph, &mapping).is_ok() {
            let delay = evaluate_mapping(pipeline, graph, &mapping);
            if best
                .as_ref()
                .map(|(_, d)| delay.total < d.total)
                .unwrap_or(true)
            {
                best = Some((mapping, delay));
            }
        }
    }
    best
}

/// Shortest path by summed link delay (Dijkstra).
fn min_delay_path(graph: &NetGraph, source: usize, destination: usize) -> Option<Vec<usize>> {
    let n = graph.node_count();
    if source >= n || destination >= n {
        return None;
    }
    let mut init = vec![f64::INFINITY; n];
    init[source] = 0.0;
    let (dist, prev) = dijkstra(
        graph,
        &init,
        EdgeDir::Outgoing,
        |link| link.delay,
        |_, _| true,
    );
    if !dist[destination].is_finite() {
        return None;
    }
    let mut path = vec![destination];
    let mut at = destination;
    while at != source {
        at = prev[at];
        if at == usize::MAX {
            return None;
        }
        path.push(at);
    }
    path.reverse();
    Some(path)
}

/// Aggregate win-rate and speedup statistics over a record set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SweepSummary {
    /// Total scenarios in the set.
    pub scenarios: usize,
    /// Scenarios where both the optimizer and the baseline produced a
    /// mapping (only these contribute to the statistics below).
    pub compared: usize,
    /// Scenarios where the optimal mapping is strictly faster than the
    /// baseline (by more than round-off).
    pub wins: usize,
    /// `wins / compared` (0 when nothing was compared).
    pub win_rate: f64,
    /// Mean of the per-scenario speedups.
    pub mean_speedup: f64,
    /// 10th percentile of the per-scenario speedups.
    pub p10_speedup: f64,
    /// Median per-scenario speedup.
    pub p50_speedup: f64,
    /// 90th percentile of the per-scenario speedups.
    pub p90_speedup: f64,
}

impl SweepSummary {
    /// Compute the summary of a record set.
    pub fn aggregate(records: &[SweepRecord]) -> SweepSummary {
        let speedups: Vec<f64> = records.iter().filter_map(|r| r.speedup).collect();
        SweepSummary::from_speedups(records.len(), speedups)
    }

    /// Compute the summary from raw per-scenario speedups out of a set of
    /// `scenarios` attempts (used for the measured/simulated statistics,
    /// where speedups come from simulator timings rather than records).
    pub fn from_speedups(scenarios: usize, mut speedups: Vec<f64>) -> SweepSummary {
        speedups.sort_by(|a, b| a.partial_cmp(b).expect("speedups are finite"));
        let compared = speedups.len();
        let wins = speedups.iter().filter(|&&s| s > 1.0 + 1e-9).count();
        let mean = if compared == 0 {
            0.0
        } else {
            speedups.iter().sum::<f64>() / compared as f64
        };
        SweepSummary {
            scenarios,
            compared,
            wins,
            win_rate: if compared == 0 {
                0.0
            } else {
                wins as f64 / compared as f64
            },
            mean_speedup: mean,
            p10_speedup: percentile(&speedups, 0.10),
            p50_speedup: percentile(&speedups, 0.50),
            p90_speedup: percentile(&speedups, 0.90),
        }
    }
}

/// One serializable row of a *dynamic*-scenario (adaptation) sweep: a
/// generated WAN plus one seeded event schedule, run under the static,
/// adaptive and oracle control policies (see `ricsa-core::adapt_sweep`,
/// DESIGN.md §9).  Lives here, next to [`SweepRecord`], so the record and
/// summary shapes every sweep reports are defined in one crate.
///
/// Equality ignores the wall-clock solve-timing fields (`warm_solve_us`,
/// `cold_solve_us`), exactly as [`SweepRecord`] ignores its `dp_*_us`
/// fields: everything else is deterministic per seed and the determinism
/// tests compare whole record sets.
#[derive(Debug, Clone, Serialize, Deserialize)]
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
    /// Mean wall-clock microseconds per warm (adaptive) re-solve.
    pub warm_solve_us: f64,
    /// Mean wall-clock microseconds per cold (oracle) re-solve.
    pub cold_solve_us: f64,
}

impl PartialEq for AdaptSweepRecord {
    fn eq(&self, other: &Self) -> bool {
        // Solve timings excluded: wall-clock, not part of scenario identity.
        self.id == other.id
            && self.label == other.label
            && self.wan_seed == other.wan_seed
            && self.schedule_seed == other.schedule_seed
            && self.nodes == other.nodes
            && self.links == other.links
            && self.events == other.events
            && self.frames == other.frames
            && self.static_fps == other.static_fps
            && self.adaptive_fps == other.adaptive_fps
            && self.oracle_fps == other.oracle_fps
            && self.post_event_speedup == other.post_event_speedup
            && self.oracle_gap == other.oracle_gap
            && self.remap_latency_s == other.remap_latency_s
            && self.migrations == other.migrations
            && self.detect_latency_s == other.detect_latency_s
            && self.detect_latency_no_rtt_s == other.detect_latency_no_rtt_s
            && self.frames_lost == other.frames_lost
            && self.frames_duplicated == other.frames_duplicated
            && self.decision_digest == other.decision_digest
    }
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
        let mut speedups: Vec<f64> = records
            .iter()
            .filter_map(|r| r.post_event_speedup)
            .collect();
        speedups.sort_by(|a, b| a.partial_cmp(b).expect("speedups are finite"));
        let compared = speedups.len();
        let wins = speedups.iter().filter(|&&s| s > 1.0 + 1e-9).count();
        let losses = speedups.iter().filter(|&&s| s < 1.0 - 1e-9).count();
        let mean = |xs: &[f64]| {
            if xs.is_empty() {
                0.0
            } else {
                xs.iter().sum::<f64>() / xs.len() as f64
            }
        };
        let mut gaps: Vec<f64> = records.iter().filter_map(|r| r.oracle_gap).collect();
        gaps.sort_by(|a, b| a.partial_cmp(b).expect("gaps are finite"));
        let remap: Vec<f64> = records.iter().filter_map(|r| r.remap_latency_s).collect();
        let eventful: Vec<&AdaptSweepRecord> = records.iter().filter(|r| r.events > 0).collect();
        let detect: Vec<f64> = eventful.iter().filter_map(|r| r.detect_latency_s).collect();
        let detect_no_rtt: Vec<f64> = eventful
            .iter()
            .filter_map(|r| r.detect_latency_no_rtt_s)
            .collect();
        let advantage: Vec<f64> = eventful
            .iter()
            .filter_map(|r| match (r.detect_latency_s, r.detect_latency_no_rtt_s) {
                (Some(rtt), Some(goodput_only)) => Some(goodput_only - rtt),
                _ => None,
            })
            .collect();
        let rate = |n: usize| {
            if eventful.is_empty() {
                0.0
            } else {
                n as f64 / eventful.len() as f64
            }
        };
        AdaptSweepSummary {
            scenarios: records.len(),
            compared,
            adaptive_wins: wins,
            adaptive_losses: losses,
            ties: compared - wins - losses,
            win_rate: if compared == 0 {
                0.0
            } else {
                wins as f64 / compared as f64
            },
            mean_post_event_speedup: mean(&speedups),
            p10_post_event_speedup: percentile(&speedups, 0.10),
            p50_post_event_speedup: percentile(&speedups, 0.50),
            p90_post_event_speedup: percentile(&speedups, 0.90),
            mean_oracle_gap: mean(&gaps),
            p90_oracle_gap: percentile(&gaps, 0.90),
            mean_remap_latency_s: (!remap.is_empty()).then(|| mean(&remap)),
            detect_rate: rate(detect.len()),
            detect_rate_no_rtt: rate(detect_no_rtt.len()),
            mean_detect_latency_s: (!detect.is_empty()).then(|| mean(&detect)),
            mean_detect_latency_no_rtt_s: (!detect_no_rtt.is_empty()).then(|| mean(&detect_no_rtt)),
            mean_rtt_detect_advantage_s: (!advantage.is_empty()).then(|| mean(&advantage)),
        }
    }
}

/// Nearest-rank percentile of an ascending-sorted slice (0 when empty).
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{random_instance, XorShift};

    fn scenario_from_seed(id: u64) -> Scenario {
        let mut rng = XorShift::new(id.wrapping_add(500));
        let n_nodes = rng.index(4, 12);
        let n_modules = rng.index(2, 5);
        let (pipeline, graph) = random_instance(&mut rng, n_nodes, n_modules, 0.4);
        Scenario {
            id,
            label: format!("test-{id}"),
            seed: id,
            pipeline,
            graph,
            source: 0,
            destination: n_nodes - 1,
        }
    }

    #[test]
    fn optimal_never_loses_to_the_default_route_baseline() {
        for id in 0..20 {
            let s = scenario_from_seed(id);
            let sol = solve_scenario(&s);
            if let (Some(o), Some(b)) = (sol.record.optimal_delay, sol.record.baseline_delay) {
                assert!(
                    o <= b + 1e-9,
                    "scenario {id}: optimal {o} worse than baseline {b}"
                );
                assert!(sol.record.speedup.unwrap() >= 1.0 - 1e-9);
            }
        }
    }

    #[test]
    fn batch_solving_matches_sequential_solving() {
        let scenarios: Vec<Scenario> = (0..12).map(scenario_from_seed).collect();
        let parallel = solve_batch(&scenarios);
        let sequential: Vec<ScenarioSolution> = scenarios.iter().map(solve_scenario).collect();
        assert_eq!(parallel, sequential);
    }

    #[test]
    fn min_delay_path_follows_low_delay_links() {
        let mut g = NetGraph::new();
        for i in 0..4 {
            g.add_node(format!("n{i}"), 1.0, true);
        }
        // Direct link 0→3 is slow (delay 0.1); the 0→1→2→3 chain totals 0.03.
        g.add_bidirectional(0, 3, 1e6, 0.1);
        g.add_bidirectional(0, 1, 1e6, 0.01);
        g.add_bidirectional(1, 2, 1e6, 0.01);
        g.add_bidirectional(2, 3, 1e6, 0.01);
        assert_eq!(min_delay_path(&g, 0, 3), Some(vec![0, 1, 2, 3]));
        assert_eq!(min_delay_path(&g, 0, 0), Some(vec![0]));
        // Unreachable node.
        let lonely = g.add_node("lonely", 1.0, true);
        assert_eq!(min_delay_path(&g, 0, lonely), None);
        assert_eq!(min_delay_path(&g, 0, 99), None);
    }

    #[test]
    fn summary_aggregates_wins_and_percentiles() {
        let mk = |id: u64, speedup: Option<f64>| SweepRecord {
            id,
            label: String::new(),
            seed: id,
            nodes: 5,
            links: 10,
            optimal_delay: speedup.map(|_| 1.0),
            optimal_hops: Some(2),
            baseline_delay: speedup,
            speedup,
            client_server_delay: speedup,
            client_server_speedup: speedup,
            dp_stats: DpStats::default(),
            dp_cold_us: 0.0,
            dp_warm_us: 0.0,
        };
        let records: Vec<SweepRecord> = vec![
            mk(0, Some(1.0)),
            mk(1, Some(2.0)),
            mk(2, Some(4.0)),
            mk(3, None),
        ];
        let s = SweepSummary::aggregate(&records);
        assert_eq!(s.scenarios, 4);
        assert_eq!(s.compared, 3);
        assert_eq!(s.wins, 2);
        assert!((s.win_rate - 2.0 / 3.0).abs() < 1e-12);
        assert!((s.mean_speedup - 7.0 / 3.0).abs() < 1e-12);
        assert_eq!(s.p10_speedup, 1.0);
        assert_eq!(s.p50_speedup, 2.0);
        assert_eq!(s.p90_speedup, 4.0);
        let empty = SweepSummary::aggregate(&[]);
        assert_eq!(empty.compared, 0);
        assert_eq!(empty.win_rate, 0.0);
    }

    #[test]
    fn adapt_summary_counts_wins_losses_ties_and_detection_axes() {
        let mk = |id: u64,
                  speedup: Option<f64>,
                  events: usize,
                  detect: Option<f64>,
                  detect_no_rtt: Option<f64>| AdaptSweepRecord {
            id,
            label: String::new(),
            wan_seed: id,
            schedule_seed: id,
            nodes: 8,
            links: 20,
            events,
            frames: 10,
            static_fps: Some(1.0),
            adaptive_fps: Some(1.0),
            oracle_fps: Some(1.0),
            post_event_speedup: speedup,
            oracle_gap: speedup.map(|_| 1.0),
            remap_latency_s: speedup.filter(|&s| s > 1.0).map(|_| 2.0),
            migrations: usize::from(speedup.map(|s| s > 1.0).unwrap_or(false)),
            detect_latency_s: detect,
            detect_latency_no_rtt_s: detect_no_rtt,
            frames_lost: 0,
            frames_duplicated: 0,
            decision_digest: "d".into(),
            warm_solve_us: 1.0,
            cold_solve_us: 2.0,
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
        // Equality ignores the wall-clock solve timings.
        let mut a = mk(9, Some(2.0), 1, None, None);
        let b = mk(9, Some(2.0), 1, None, None);
        a.warm_solve_us = 777.0;
        a.cold_solve_us = 888.0;
        assert_eq!(a, b);
        let empty = AdaptSweepSummary::aggregate(&[]);
        assert_eq!(empty.compared, 0);
        assert_eq!(empty.detect_rate, 0.0);
        assert_eq!(empty.mean_detect_latency_s, None);
    }
}
