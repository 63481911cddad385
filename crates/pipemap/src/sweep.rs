//! Mapping scenarios and their baselines for the scenario sweep.
//!
//! A [`Scenario`] is one self-contained mapping problem: a pipeline, an
//! optimizer network view, and the source/destination pair.
//! [`solve_scenario`] produces its [`ScenarioSolution`]: the DP-optimal
//! mapping, a *default-route baseline* (the best pipeline split along the
//! minimum-delay path — what a deployment gets when data simply follows the
//! network's default route, the paper's client/server mode generalized to
//! multi-hop routes), and a serializable [`SweepRecord`] comparing the two.
//! `ricsa-core::sweep` generates the scenarios, fans them out and
//! aggregates the records (see DESIGN.md §6).

use crate::baselines::best_split_on_path;
use crate::delay::{DelayBreakdown, Mapping};
use crate::dp::{optimize_with, DpOptions, DpStats, OptimizedMapping};
use crate::network::{dijkstra, EdgeDir, NetGraph};
use crate::pipeline::Pipeline;
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

/// One serializable row of a sweep result set; every field is
/// deterministic per seed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
}

/// Solve one scenario: DP-optimal mapping (pruned) plus the default-route
/// baseline.
pub fn solve_scenario(scenario: &Scenario) -> ScenarioSolution {
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
        },
        optimal,
        baseline,
    }
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
}
