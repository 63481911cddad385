//! Contention-aware joint mapping for many sessions on one WAN.
//!
//! The DP of [`crate::dp`] optimizes a single pipeline in isolation, so N
//! co-located sessions all pile onto the same "optimal" links and the
//! predicted delays are fictions: a link carrying k sessions gives each of
//! them roughly `1/k` of its bandwidth.  This module solves the *joint*
//! placement problem with an iterated best-response scheme over a
//! link-pricing model:
//!
//! * **Pricing.**  A directed link assigned `k` sessions has effective
//!   bandwidth `b / k`.  When session `i` re-solves, every link is priced
//!   at `b / (1 + others)` where `others` counts the *other* sessions
//!   currently mapped across it — the `+1` is session `i`'s own share once
//!   it commits to the link.
//! * **Best response.**  Sessions re-solve one at a time in deterministic
//!   (index) order against the priced graph, each re-solve warm-started
//!   from the session's incumbent mapping ([`crate::dp::optimize_warm`]).
//! * **Termination.**  The iteration stops at a fixed point (a full round
//!   in which no session moved) or after [`JointOptions::max_rounds`]
//!   rounds, whichever comes first.  Best-response dynamics on priced
//!   links need not converge, so the solver tracks the best iterate seen —
//!   scored by the *contended* aggregate delay, where every link is priced
//!   by its total assigned load — and returns that.  Round zero of the
//!   tracking is the independent solution itself, which makes the returned
//!   assignment **never worse than N independent solves** under the
//!   contended objective, by construction.
//!
//! Everything here is deterministic: same sessions, graph and options give
//! byte-identical solutions (see [`solution_digest`]).  DESIGN.md §11
//! documents the model and its place in the multi-session serving stack.

use crate::delay::{evaluate_mapping, DelayBreakdown, Mapping};
use crate::dp::{optimize_warm, optimize_with, DpOptions};
use crate::network::NetGraph;
use crate::pipeline::Pipeline;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// One session's placement problem: its pipeline and endpoints on the
/// shared graph.
#[derive(Debug, Clone)]
pub struct JointSession {
    /// The visualization pipeline this session maps.
    pub pipeline: Pipeline,
    /// Data-source node index.
    pub source: usize,
    /// Client node index.
    pub destination: usize,
}

/// Knobs for the best-response iteration.
#[derive(Debug, Clone)]
pub struct JointOptions {
    /// Upper bound on best-response rounds (a round re-solves every
    /// session once).  The solver always terminates within this bound.
    pub max_rounds: usize,
    /// DP options used for every solve (relay on for sparse WANs).
    pub dp: DpOptions,
}

impl Default for JointOptions {
    fn default() -> Self {
        JointOptions {
            max_rounds: 8,
            dp: DpOptions::default(),
        }
    }
}

/// The joint solution: the chosen per-session mappings next to the
/// independent baseline they are guaranteed not to lose to.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JointSolution {
    /// Chosen mapping per session (same order as the input slice).
    pub mappings: Vec<Mapping>,
    /// Per-session delay under contended pricing (links divided by their
    /// total assigned load) for the chosen mappings.
    pub contended: Vec<DelayBreakdown>,
    /// Sum of the contended per-session delays — the objective the
    /// best-response iteration is scored by.
    pub aggregate: f64,
    /// What N independent solves chose (round zero).
    pub independent_mappings: Vec<Mapping>,
    /// Contended per-session delays of the independent mappings.
    pub independent_contended: Vec<DelayBreakdown>,
    /// Aggregate contended delay of the independent mappings; always
    /// `>= aggregate`.
    pub independent_aggregate: f64,
    /// Best-response rounds actually executed (0 for a single session,
    /// where independent is trivially joint-optimal).
    pub rounds_used: usize,
    /// Whether a fixed point was reached inside the round bound.
    pub converged: bool,
}

/// Count, per directed link `(from, to)`, how many of the given mappings
/// traverse it.  A mapping traversing a link twice (possible only through
/// relay walks) counts twice — it really does put two transfers there.
fn link_loads(mappings: &[Mapping], skip: Option<usize>) -> BTreeMap<(usize, usize), u32> {
    let mut loads = BTreeMap::new();
    for (i, mapping) in mappings.iter().enumerate() {
        if Some(i) == skip {
            continue;
        }
        for hop in mapping.path.windows(2) {
            *loads.entry((hop[0], hop[1])).or_insert(0) += 1;
        }
    }
    loads
}

/// A copy of `graph` with every loaded link's bandwidth divided by
/// `extra + load` (pricing: `extra = 1` prices the solving session's own
/// share on top of the others'; contended evaluation uses `extra = 0`
/// with loads that include every session).
fn priced_graph(graph: &NetGraph, loads: &BTreeMap<(usize, usize), u32>, extra: u32) -> NetGraph {
    let mut priced = graph.clone();
    for (&(from, to), &load) in loads {
        let divisor = (extra + load) as f64;
        if divisor <= 1.0 {
            continue;
        }
        if let Some(link) = graph.link_between(from, to) {
            priced.set_measured(from, to, link.bandwidth / divisor, link.delay);
        }
    }
    priced
}

/// Evaluate each mapping's delay on the *contended* graph, where every
/// directed link's bandwidth is divided by the total number of sessions
/// assigned to it (its load).
pub fn contended_delays(
    sessions: &[JointSession],
    graph: &NetGraph,
    mappings: &[Mapping],
) -> Vec<DelayBreakdown> {
    let loads = link_loads(mappings, None);
    let contended = priced_graph(graph, &loads, 0);
    sessions
        .iter()
        .zip(mappings)
        .map(|(s, m)| evaluate_mapping(&s.pipeline, &contended, m))
        .collect()
}

fn aggregate_of(delays: &[DelayBreakdown]) -> f64 {
    delays.iter().map(|d| d.total).sum()
}

/// Solve the joint placement problem.  Returns `None` when any session
/// has no feasible mapping at all (on the unloaded graph); otherwise the
/// best assignment seen across the best-response iteration, which is
/// never worse than the independent solution under the contended
/// aggregate objective.
pub fn solve_joint(
    sessions: &[JointSession],
    graph: &NetGraph,
    options: &JointOptions,
) -> Option<JointSolution> {
    // Round zero: every session solves the pristine graph in isolation.
    let mut current: Vec<Mapping> = Vec::with_capacity(sessions.len());
    for s in sessions {
        let (opt, _) = optimize_with(&s.pipeline, graph, s.source, s.destination, &options.dp);
        current.push(opt?.mapping);
    }
    let independent_mappings = current.clone();
    let independent_contended = contended_delays(sessions, graph, &current);
    let independent_aggregate = aggregate_of(&independent_contended);

    let mut best = current.clone();
    let mut best_aggregate = independent_aggregate;
    let mut converged = sessions.len() <= 1;
    let mut rounds_used = 0;

    if !converged {
        for round in 1..=options.max_rounds {
            rounds_used = round;
            let mut changed = false;
            for i in 0..sessions.len() {
                // Price every link by the *other* sessions' current
                // assignment plus this session's own prospective share.
                let loads = link_loads(&current, Some(i));
                let priced = priced_graph(graph, &loads, 1);
                let s = &sessions[i];
                let (opt, _) = optimize_warm(
                    &s.pipeline,
                    &priced,
                    s.source,
                    s.destination,
                    &options.dp,
                    &current[i],
                );
                if let Some(opt) = opt {
                    if opt.mapping != current[i] {
                        current[i] = opt.mapping;
                        changed = true;
                    }
                }
            }
            let aggregate = aggregate_of(&contended_delays(sessions, graph, &current));
            if aggregate + 1e-12 < best_aggregate {
                best_aggregate = aggregate;
                best = current.clone();
            }
            if !changed {
                converged = true;
                break;
            }
        }
    }

    let contended = contended_delays(sessions, graph, &best);
    let aggregate = aggregate_of(&contended);
    Some(JointSolution {
        mappings: best,
        contended,
        aggregate,
        independent_mappings,
        independent_contended,
        independent_aggregate,
        rounds_used,
        converged,
    })
}

/// FNV-1a digest of a solution's serialized form — the byte-determinism
/// witness the property tests (and the `session_sweep` records) pin.
pub fn solution_digest(solution: &JointSolution) -> String {
    crate::fnv1a_hex(&serde_json::to_string(solution).unwrap_or_default())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::ModuleSpec;
    use ricsa_netsim::generators::{generate, WanKind};

    /// A transfer-dominated pipeline; `scale` varies the data volume so
    /// co-scheduled sessions are not carbon copies.
    fn pipeline(scale: f64) -> Pipeline {
        Pipeline::new(
            "joint-test",
            1.6e6 * scale,
            vec![
                ModuleSpec::new("filter", 2e-9, 1.6e6 * scale),
                ModuleSpec::new("extract", 1e-8, 4.0e5 * scale),
                ModuleSpec::new("render", 5e-9, 1.6e5 * scale).requiring_graphics(),
            ],
        )
    }

    /// A two-route WAN with one clearly better shared trunk: every
    /// isolated solve picks the trunk, so pricing has something to spread.
    fn trunk_graph() -> NetGraph {
        let mut g = NetGraph::new();
        let s = g.add_node("src", 1.0, false);
        let h1 = g.add_node("hub1", 6.0, true);
        let h2 = g.add_node("hub2", 6.0, true);
        let m1 = g.add_node("alt1", 5.0, true);
        let m2 = g.add_node("alt2", 5.0, true);
        let c = g.add_node("client", 1.5, true);
        g.add_bidirectional(s, h1, 40e6, 0.008);
        g.add_bidirectional(h1, h2, 40e6, 0.008);
        g.add_bidirectional(h2, c, 40e6, 0.008);
        g.add_bidirectional(s, m1, 25e6, 0.012);
        g.add_bidirectional(m1, m2, 25e6, 0.012);
        g.add_bidirectional(m2, c, 25e6, 0.012);
        g
    }

    fn trunk_sessions(n: usize) -> Vec<JointSession> {
        (0..n)
            .map(|i| JointSession {
                pipeline: pipeline(1.0 + 0.2 * i as f64),
                source: 0,
                destination: 5,
            })
            .collect()
    }

    #[test]
    fn pricing_spreads_contending_sessions_off_the_trunk() {
        let graph = trunk_graph();
        let sessions = trunk_sessions(3);
        let solution = solve_joint(&sessions, &graph, &JointOptions::default()).unwrap();
        // Independent solves all ride the hub trunk...
        for m in &solution.independent_mappings {
            assert!(m.path.contains(&1), "independent should use hub1: {m:?}");
        }
        // ...and the joint solution strictly beats them in aggregate by
        // moving at least one session to the alternative route.
        assert!(
            solution.aggregate < solution.independent_aggregate - 1e-9,
            "joint {} vs independent {}",
            solution.aggregate,
            solution.independent_aggregate
        );
        assert!(
            solution.mappings.iter().any(|m| m.path.contains(&3)),
            "someone should move to alt1: {:?}",
            solution.mappings
        );
    }

    #[test]
    fn single_session_joint_equals_independent() {
        let graph = trunk_graph();
        let sessions = trunk_sessions(1);
        let solution = solve_joint(&sessions, &graph, &JointOptions::default()).unwrap();
        assert_eq!(solution.mappings, solution.independent_mappings);
        assert!(solution.converged);
        assert_eq!(solution.rounds_used, 0);
    }

    #[test]
    fn infeasible_session_yields_none() {
        let mut graph = NetGraph::new();
        graph.add_node("a", 1.0, false);
        graph.add_node("b", 1.0, false); // no graphics anywhere, no links
        let sessions = vec![JointSession {
            pipeline: pipeline(1.0),
            source: 0,
            destination: 1,
        }];
        assert!(solve_joint(&sessions, &graph, &JointOptions::default()).is_none());
    }

    /// The foregrounded property test: across 40 seeded generated WANs the
    /// joint solve is byte-deterministic (two runs, digest equality),
    /// never worse than independent solves under the contended aggregate,
    /// and terminates within the round bound.
    #[test]
    fn joint_solve_property_sweep_on_generated_wans() {
        let options = JointOptions {
            max_rounds: 6,
            dp: DpOptions::relayed(),
        };
        let mut solved = 0;
        let mut improved = 0;
        for index in 0..40u64 {
            let kind = if index % 2 == 0 {
                WanKind::Waxman
            } else {
                WanKind::TransitStub
            };
            let nodes = 12 + (index as usize * 3) % 12;
            let wan = generate(kind, nodes, 0xA11C_E5ED ^ (index * 7919));
            let graph = NetGraph::from_topology(&wan.topology);
            let sessions: Vec<JointSession> = (0..3)
                .map(|i| JointSession {
                    pipeline: pipeline(0.8 + 0.3 * i as f64),
                    source: wan.source.0,
                    destination: wan.client.0,
                })
                .collect();
            let Some(a) = solve_joint(&sessions, &graph, &options) else {
                continue; // a generated WAN with no feasible placement
            };
            let b = solve_joint(&sessions, &graph, &options).unwrap();
            assert_eq!(a, b, "wan {index}: joint solve not deterministic");
            assert_eq!(
                solution_digest(&a),
                solution_digest(&b),
                "wan {index}: digest mismatch"
            );
            assert!(
                a.aggregate <= a.independent_aggregate + 1e-9,
                "wan {index}: joint {} worse than independent {}",
                a.aggregate,
                a.independent_aggregate
            );
            assert!(
                a.rounds_used <= options.max_rounds,
                "wan {index}: round bound exceeded"
            );
            solved += 1;
            if a.aggregate < a.independent_aggregate - 1e-9 {
                improved += 1;
            }
        }
        assert!(solved >= 30, "only {solved}/40 WANs had feasible sessions");
        assert!(
            improved >= 1,
            "pricing never improved any of the {solved} WANs"
        );
    }

    #[test]
    fn contended_delays_divide_shared_links_by_load() {
        let graph = trunk_graph();
        let sessions = trunk_sessions(2);
        // Force both sessions onto the same trunk path with everything at
        // the client, so the contended transport doubles exactly.
        let m = Mapping {
            path: vec![0, 1, 2, 5],
            groups: vec![vec![], vec![], vec![], vec![0, 1, 2]],
        };
        let solo = contended_delays(&sessions[..1], &graph, std::slice::from_ref(&m));
        let both = contended_delays(&sessions, &graph, &[m.clone(), m.clone()]);
        // Session 0's transfer times double when session 1 shares every
        // link (bandwidth halves; the fixed link delays are unchanged).
        let solo_bw_time = solo[0].transport - 3.0 * 0.008;
        let both_bw_time = both[0].transport - 3.0 * 0.008;
        assert!(
            (both_bw_time - 2.0 * solo_bw_time).abs() < 1e-9,
            "expected doubled transfer time: solo {solo_bw_time}, shared {both_bw_time}"
        );
    }
}
