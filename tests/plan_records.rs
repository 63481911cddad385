//! Golden record of the planner on a corpus built like the `wan_plan`
//! benchmark workload's.
//!
//! Ten generated WANs (Waxman and transit-stub alternating, 100–400
//! nodes), each planned the way a benchmark pass plans it: one cold solve,
//! a chain of warm re-solves after seeded measured drift, and one joint
//! solve of 32 seeded `standard_pipeline` sessions under relay semantics
//! with a six-round bound.  Three more cases cover the edges of the joint
//! iteration: a single session (no rounds at all) and round bounds (1, 2) hit
//! before a fixed point.  One FNV-1a digest covers every
//! `solution_digest`, `rounds_used`, `converged`, and the objective bits
//! and work counters of every single-session solve — so it moves when any
//! plan, any contended delay or any pruning decision moves, and only then:
//! a planner change that keeps it has kept the plans to the bit.  A second
//! digest covers the same corpus without the work counters: the plans
//! alone, which a faster pruner must keep while its counters move.
//!
//! The digests were captured at the commits that introduced them and are
//! not to be edited by a change that claims to preserve behaviour.

use ricsa::core::catalog::{standard_pipeline, SimulationCatalog};
use ricsa::netsim::generators::{generate, WanKind};
use ricsa::netsim::rng::SimRng;
use ricsa::pipemap::dp::{optimize_warm, optimize_with, DpOptions, DpStats};
use ricsa::pipemap::fnv1a_hex;
use ricsa::pipemap::joint::{solution_digest, solve_joint, JointOptions, JointSession};
use ricsa::pipemap::network::NetGraph;
use std::fmt::Write;

/// Generated WANs in the corpus.
const WANS: usize = 10;
/// Warm re-solves per WAN, each after drifting a tenth of the links.
const WARM_RESOLVES: usize = 4;
/// Sessions mapped jointly per WAN.
const SESSIONS: usize = 32;
/// Best-response round bound.
const ROUNDS: usize = 6;

fn stats_text(stats: DpStats) -> String {
    format!("{}/{}", stats.states_expanded, stats.states_pruned)
}

/// What one corpus run records: `all` is everything deterministic, `plans`
/// the same minus the work counters.
#[derive(Default)]
struct Records {
    all: String,
    plans: String,
}

impl Records {
    /// Append a plan fact to both records.
    fn plan(&mut self, text: &str) {
        self.all.push_str(text);
        self.plans.push_str(text);
    }

    /// Append a work counter to the full record only.
    fn counters(&mut self, stats: DpStats) {
        write!(self.all, " {}", stats_text(stats)).unwrap();
    }
}

/// Plan one WAN and append everything deterministic about it to `record`.
/// Returns `(rounds_used, converged)` of the joint solve.
fn plan_wan(
    index: usize,
    sessions: usize,
    max_rounds: usize,
    rng: &mut SimRng,
    record: &mut Records,
) -> (usize, bool) {
    let catalog = SimulationCatalog::default();
    let dp = DpOptions::relayed();
    let kind = if index.is_multiple_of(2) {
        WanKind::Waxman
    } else {
        WanKind::TransitStub
    };
    let nodes = 100 + 300 * index / (WANS - 1);
    let wan = generate(kind, nodes, 0x504C_414E ^ (index as u64 * 7919));
    let mut graph = NetGraph::from_topology(&wan.topology);
    let (src, dst) = (wan.source.0, wan.client.0);
    let dataset = |rng: &mut SimRng| (16e6 * rng.uniform_range(0.5, 4.0)) as usize;

    // The single-session chain: cold, then warm after each drift.
    let pipeline = standard_pipeline(dataset(rng), &catalog.costs);
    let (cold, stats) = optimize_with(&pipeline, &graph, src, dst, &dp);
    let cold = cold.expect("generated WANs are connected");
    record.plan(&format!(
        "wan {index} {nodes} cold {:016x}",
        cold.objective.to_bits()
    ));
    record.counters(stats);
    let mut incumbent = cold.mapping;
    for _ in 0..WARM_RESOLVES {
        for _ in 0..(graph.link_count() / 10).max(4) {
            let link = *graph.link(rng.index(graph.link_count()));
            let bandwidth = link.bandwidth * rng.uniform_range(0.5, 1.5);
            let delay = link.delay * rng.uniform_range(0.8, 1.25);
            graph.set_measured(link.from, link.to, bandwidth, delay);
        }
        let (warm, stats) = optimize_warm(&pipeline, &graph, src, dst, &dp, &incumbent);
        let warm = warm.expect("drift keeps every link");
        record.plan(&format!(" warm {:016x}", warm.objective.to_bits()));
        record.counters(stats);
        incumbent = warm.mapping;
    }

    // The joint solve, on the drifted graph as in the benchmark.  Sessions
    // end on graphics-capable nodes (the pipeline renders last).
    let displays: Vec<usize> = (0..graph.node_count())
        .filter(|&n| graph.node(n).has_graphics)
        .collect();
    let sessions: Vec<JointSession> = (0..sessions)
        .map(|_| JointSession {
            pipeline: standard_pipeline(dataset(rng), &catalog.costs),
            source: rng.index(graph.node_count()),
            destination: displays[rng.index(displays.len())],
        })
        .collect();
    let options = JointOptions { max_rounds, dp };
    let joint = solve_joint(&sessions, &graph, &options).expect("every session is feasible");
    record.plan(&format!(
        " joint {} {} {}\n",
        solution_digest(&joint),
        joint.rounds_used,
        joint.converged
    ));
    (joint.rounds_used, joint.converged)
}

/// Plan the whole corpus, checking the round counts as it goes.
fn plan_corpus() -> Records {
    let mut rng = SimRng::new(20080609);
    let mut record = Records::default();
    for index in 0..WANS {
        let (rounds, _) = plan_wan(index, SESSIONS, ROUNDS, &mut rng, &mut record);
        assert!(
            (1..=ROUNDS).contains(&rounds),
            "wan {index}: {rounds} rounds"
        );
    }
    // The two edges of the iteration: no rounds at all, and a bound that
    // cuts the best response short of a fixed point.
    assert_eq!(plan_wan(2, 1, ROUNDS, &mut rng, &mut record), (0, true));
    assert_eq!(plan_wan(5, SESSIONS, 1, &mut rng, &mut record), (1, false));
    assert_eq!(plan_wan(7, SESSIONS, 2, &mut rng, &mut record), (2, false));
    record
}

#[test]
fn plans_of_the_seeded_corpus_are_pinned() {
    assert_eq!(fnv1a_hex(&plan_corpus().all), "8d1803f1017c2e65");
}

#[test]
fn plans_alone_of_the_seeded_corpus_are_pinned() {
    assert_eq!(fnv1a_hex(&plan_corpus().plans), "555845a6432a9996");
}
