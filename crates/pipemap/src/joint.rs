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
//!   from the session's incumbent mapping.  Prices are load counts per
//!   link index on *one* priced graph kept for the whole solve: a best
//!   response takes the session's own hops off their links, solves, and
//!   puts the hops of whatever it now holds back on.  Every price is
//!   recomputed from the caller's bandwidth and the link's count, never
//!   updated from the previous price.  The DP's transport lower bounds
//!   come from tables built once on the unpriced graph and shared by every
//!   session and round (a bound from a no-slower graph; DESIGN.md §6.3).
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

use crate::delay::{evaluate_with, DelayBreakdown, Mapping};
use crate::dp::{solve, BoundTables, DpOptions};
use crate::network::{NetGraph, NetLink};
use crate::pipeline::Pipeline;
use serde::{Deserialize, Serialize};

#[cfg(test)]
mod reference;

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

/// The link indices a mapping's walk crosses, hop by hop.  A hop names the
/// first link added between its two nodes ([`NetGraph::link_index`]), the
/// same link [`evaluate_with`] charges; a relay walk crossing a link twice
/// lists it twice — it really does put two transfers there.
fn hops<'a>(graph: &'a NetGraph, mapping: &'a Mapping) -> impl Iterator<Item = usize> + 'a {
    mapping
        .path
        .windows(2)
        .filter_map(|hop| graph.link_index(hop[0], hop[1]))
}

/// `link` with its bandwidth shared `divisor` ways.
fn shared_link(link: &NetLink, divisor: u32) -> NetLink {
    NetLink {
        bandwidth: link.bandwidth / f64::from(divisor),
        ..*link
    }
}

/// Each mapping's delay where every link gives a transfer `1 / loads[link]`
/// of its bandwidth.
fn delays_under(
    sessions: &[JointSession],
    graph: &NetGraph,
    mappings: &[Mapping],
    loads: &[u32],
) -> Vec<DelayBreakdown> {
    sessions
        .iter()
        .zip(mappings)
        .map(|(s, m)| {
            evaluate_with(&s.pipeline, graph, m, |link, bytes| {
                shared_link(graph.link(link), loads[link].max(1)).transfer_time(bytes)
            })
        })
        .collect()
}

/// Evaluate each mapping's delay on the *contended* graph, where every
/// directed link's bandwidth is divided by the total number of sessions
/// assigned to it (its load).
pub fn contended_delays(
    sessions: &[JointSession],
    graph: &NetGraph,
    mappings: &[Mapping],
) -> Vec<DelayBreakdown> {
    let mut loads = vec![0; graph.link_count()];
    for mapping in mappings {
        for link in hops(graph, mapping) {
            loads[link] += 1;
        }
    }
    delays_under(sessions, graph, mappings, &loads)
}

fn aggregate_of(delays: &[DelayBreakdown]) -> f64 {
    delays.iter().map(|d| d.total).sum()
}

/// The priced graph of one joint solve: `loads[link]` transfers are
/// assigned to each link, and `priced` charges every link for one more —
/// the share a session would get by committing to it.
struct Pricing<'a> {
    /// The caller's graph: the bandwidth every price is computed from.
    pristine: &'a NetGraph,
    priced: NetGraph,
    loads: Vec<u32>,
}

impl<'a> Pricing<'a> {
    fn new(pristine: &'a NetGraph) -> Pricing<'a> {
        Pricing {
            pristine,
            priced: pristine.clone(),
            loads: vec![0; pristine.link_count()],
        }
    }

    /// Put `mapping`'s hops on their links.
    fn assign(&mut self, mapping: &Mapping) {
        for link in hops(self.pristine, mapping) {
            self.loads[link] += 1;
            self.reprice(link);
        }
    }

    /// Take `mapping`'s hops (assigned earlier) off their links.
    fn release(&mut self, mapping: &Mapping) {
        for link in hops(self.pristine, mapping) {
            self.loads[link] -= 1;
            self.reprice(link);
        }
    }

    fn reprice(&mut self, link: usize) {
        let priced = shared_link(self.pristine.link(link), 1 + self.loads[link]);
        self.priced
            .set_measured_at(link, priced.bandwidth, priced.delay);
    }
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
    let bounds = options
        .dp
        .prune
        .then(|| BoundTables::build(graph, sessions.iter().map(|s| (&s.pipeline, s.destination))));
    let respond = |s: &JointSession, graph: &NetGraph, incumbent: Option<&Mapping>| {
        let (opt, _) = solve(
            &s.pipeline,
            graph,
            s.source,
            s.destination,
            &options.dp,
            incumbent,
            bounds.as_ref(),
        );
        opt.map(|opt| opt.mapping)
    };

    // Round zero: every session solves the pristine graph in isolation.
    let mut current = sessions
        .iter()
        .map(|s| respond(s, graph, None))
        .collect::<Option<Vec<Mapping>>>()?;
    let mut pricing = Pricing::new(graph);
    for mapping in &current {
        pricing.assign(mapping);
    }
    let independent_mappings = current.clone();
    let independent_contended = delays_under(sessions, graph, &current, &pricing.loads);
    let independent_aggregate = aggregate_of(&independent_contended);

    let mut best = current.clone();
    let mut best_contended = independent_contended.clone();
    let mut best_aggregate = independent_aggregate;
    let mut converged = sessions.len() <= 1;
    let mut rounds_used = 0;

    if !converged {
        for round in 1..=options.max_rounds {
            rounds_used = round;
            let mut changed = false;
            for (i, s) in sessions.iter().enumerate() {
                // Price every link by the *other* sessions' current
                // assignment plus this session's own prospective share.
                pricing.release(&current[i]);
                if let Some(mapping) = respond(s, &pricing.priced, Some(&current[i])) {
                    if mapping != current[i] {
                        current[i] = mapping;
                        changed = true;
                    }
                }
                pricing.assign(&current[i]);
            }
            let contended = delays_under(sessions, graph, &current, &pricing.loads);
            let aggregate = aggregate_of(&contended);
            if aggregate + 1e-12 < best_aggregate {
                best_aggregate = aggregate;
                best = current.clone();
                best_contended = contended;
            }
            if !changed {
                converged = true;
                break;
            }
        }
    }

    Some(JointSolution {
        mappings: best,
        contended: best_contended,
        aggregate: best_aggregate,
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
    use crate::dp::{message_distance_to, message_floors, TABLES_BUILT};
    use crate::pipeline::ModuleSpec;
    use crate::testutil::XorShift;
    use ricsa_netsim::generators::{generate, WanKind};
    use std::collections::BTreeSet;

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
            let reference = reference::solve_joint(&sessions, &graph, &options);
            let Some(a) = solve_joint(&sessions, &graph, &options) else {
                assert_eq!(reference, None, "wan {index}: feasibility mismatch");
                continue; // a generated WAN with no feasible placement
            };
            assert_eq!(
                Some(&a),
                reference.as_ref(),
                "wan {index}: not the reference"
            );
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

    /// A benchmark-sized problem: a generated 100–400-node WAN (families
    /// alternating) and 32 sessions of varied volume with seeded endpoints,
    /// ending on graphics-capable nodes.
    fn wan_problem(index: usize) -> (NetGraph, Vec<JointSession>) {
        let kind = if index.is_multiple_of(2) {
            WanKind::Waxman
        } else {
            WanKind::TransitStub
        };
        let nodes = 100 + 300 * (index % 12) / 11;
        let wan = generate(kind, nodes, 0xD1FF ^ (index as u64 * 104_729));
        let graph = NetGraph::from_topology(&wan.topology);
        let displays: Vec<usize> = (0..graph.node_count())
            .filter(|&n| graph.node(n).has_graphics)
            .collect();
        let mut rng = XorShift::new(index as u64 + 77);
        let sessions = (0..32)
            .map(|_| JointSession {
                pipeline: pipeline(0.5 + 3.5 * rng.next()),
                source: rng.index(0, graph.node_count()),
                destination: displays[rng.index(0, displays.len())],
            })
            .collect();
        (graph, sessions)
    }

    fn relayed(max_rounds: usize) -> JointOptions {
        JointOptions {
            max_rounds,
            dp: DpOptions::relayed(),
        }
    }

    /// The in-place solver against the clone-and-reprice reference on
    /// benchmark-sized problems: the whole solution, `==` and not a
    /// tolerance, at a round bound that converges and two that cut the
    /// iteration short.
    #[test]
    fn in_place_solver_equals_the_reference_on_large_wans() {
        let mut cut_short = 0;
        for index in 0..12 {
            let (graph, sessions) = wan_problem(index);
            for max_rounds in [1, 2, 6] {
                let options = relayed(max_rounds);
                let solution = solve_joint(&sessions, &graph, &options);
                let reference = reference::solve_joint(&sessions, &graph, &options);
                assert_eq!(solution, reference, "wan {index}, {max_rounds} rounds");
                let solution = solution.expect("generated WANs are connected");
                assert_eq!(
                    solution.contended,
                    reference::contended_delays(&sessions, &graph, &solution.mappings),
                    "wan {index}, {max_rounds} rounds"
                );
                cut_short += usize::from(!solution.converged);
            }
        }
        assert!(
            cut_short >= 12,
            "only {cut_short} solves stopped at the bound"
        );
    }

    /// Only `gpu` renders and only `v → gpu → u` reaches it, so the cheap
    /// walk is `src u v gpu u v client`: it crosses `u → v` twice and must
    /// be charged two loads there.  Slower links (`src → v`, `gpu →
    /// client`) give pricing a way out of each crossing.
    fn twice_crossed_graph() -> NetGraph {
        let mut g = NetGraph::new();
        let src = g.add_node("src", 1.0, false);
        let u = g.add_node("u", 2.0, false);
        let v = g.add_node("v", 2.0, false);
        let gpu = g.add_node("gpu", 6.0, true);
        let client = g.add_node("client", 1.0, false);
        g.add_link(src, u, 40e6, 0.004);
        g.add_link(u, v, 60e6, 0.004);
        g.add_link(v, gpu, 40e6, 0.004);
        g.add_link(gpu, u, 40e6, 0.004);
        g.add_link(v, client, 40e6, 0.004);
        g.add_link(src, v, 12e6, 0.010);
        g.add_link(gpu, client, 5e6, 0.020);
        g
    }

    #[test]
    fn a_walk_crossing_one_link_twice_loads_it_twice() {
        let graph = twice_crossed_graph();
        let sessions: Vec<JointSession> = (0..4)
            .map(|i| JointSession {
                pipeline: pipeline(1.0 + 0.5 * i as f64),
                source: 0,
                destination: 4,
            })
            .collect();
        for max_rounds in [1, 2, 6] {
            let options = relayed(max_rounds);
            let solution = solve_joint(&sessions, &graph, &options);
            let reference = reference::solve_joint(&sessions, &graph, &options);
            assert_eq!(solution, reference, "{max_rounds} rounds");
            let solution = solution.unwrap();
            assert_eq!(solution.independent_mappings[0].path, [0, 1, 2, 3, 1, 2, 4]);
            assert!(solution.aggregate < solution.independent_aggregate);
        }
        // One session alone on the double crossing: `u → v` carries two of
        // its transfers, every other link one.
        let m = Mapping {
            path: vec![0, 1, 2, 3, 1, 2, 4],
            groups: vec![
                vec![],
                vec![],
                vec![],
                vec![0, 1, 2],
                vec![],
                vec![],
                vec![],
            ],
        };
        let mut halved = graph.clone();
        halved.set_measured(1, 2, 30e6, 0.004);
        assert_eq!(
            contended_delays(&sessions[..1], &graph, std::slice::from_ref(&m)),
            [crate::delay::evaluate_mapping(
                &sessions[0].pipeline,
                &halved,
                &m
            )]
        );
    }

    /// The shared bound tables' two promises on one 32-session solve: the solve runs at
    /// most one Dijkstra per distinct `(destination, floor)` pair, and every
    /// shared table is a lower bound on the table the best response's own
    /// priced graph would give — at every node, for every best response.
    /// The priced graph itself must be the reference's, bit for bit.
    #[test]
    fn bound_tables_are_built_once_and_bound_every_priced_graph() {
        let (graph, sessions) = wan_problem(5);
        let options = relayed(3);
        let pairs: BTreeSet<(usize, u64)> = sessions
            .iter()
            .flat_map(|s| {
                message_floors(&s.pipeline)
                    .into_iter()
                    .map(|floor| (s.destination, floor.to_bits()))
            })
            .collect();

        let before = TABLES_BUILT.with(|built| built.get());
        let solution = solve_joint(&sessions, &graph, &options).unwrap();
        let built = TABLES_BUILT.with(|built| built.get()) - before;
        assert!(
            built <= pairs.len(),
            "{built} tables for {} pairs",
            pairs.len()
        );
        assert!(built <= sessions.len(), "{built} tables for 32 sessions");

        // Replay the iteration by hand to look at each best response.
        let bounds = BoundTables::build(
            &graph,
            sessions.iter().map(|s| (&s.pipeline, s.destination)),
        );
        assert_eq!(
            bounds.len(),
            built,
            "round zero and the best responses built none"
        );
        let mut current = solution.independent_mappings.clone();
        let mut pricing = Pricing::new(&graph);
        current.iter().for_each(|m| pricing.assign(m));
        let mut repriced = 0;
        for _ in 0..solution.rounds_used {
            for (i, s) in sessions.iter().enumerate() {
                pricing.release(&current[i]);
                assert_eq!(
                    pricing.priced,
                    reference::best_response_graph(&graph, &current, i),
                    "session {i}"
                );
                for floor in message_floors(&s.pipeline) {
                    let shared = bounds.get(s.destination, floor).expect("built above");
                    let own = message_distance_to(&pricing.priced, s.destination, floor);
                    assert!(shared.iter().zip(&own).all(|(lent, own)| lent <= own));
                    repriced += usize::from(shared != own);
                }
                let incumbent = Some(&current[i]);
                let (opt, _) = solve(
                    &s.pipeline,
                    &pricing.priced,
                    s.source,
                    s.destination,
                    &options.dp,
                    incumbent,
                    Some(&bounds),
                );
                current[i] = opt.unwrap().mapping;
                pricing.assign(&current[i]);
            }
        }
        assert!(repriced > 0, "pricing never moved a bound table");
        assert_eq!(pricing.priced, {
            let mut all = Pricing::new(&graph);
            current.iter().for_each(|m| all.assign(m));
            all.priced
        });
    }
}
