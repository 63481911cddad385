//! Shared helpers for this crate's unit tests: a tiny deterministic RNG, a
//! random-instance generator used by the DP/exhaustive/sweep cross-checks,
//! and the generated-WAN problems of the DP and joint-solver tests.

use crate::joint::JointSession;
use crate::network::NetGraph;
use crate::pipeline::{ModuleSpec, Pipeline};
use ricsa_netsim::generators::{generate, WanKind};

/// A tiny deterministic xorshift generator for building random test
/// instances (kept local so `ricsa-pipemap` needs no RNG dev-dependency).
pub struct XorShift(u64);

impl XorShift {
    /// Seeded constructor; the multiply/add scrambles small seeds apart.
    pub fn new(seed: u64) -> Self {
        XorShift(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1))
    }

    /// A uniform draw in `[0, 1)`.
    pub fn next(&mut self) -> f64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        (self.0 >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform integer in `[lo, hi)`.
    pub fn index(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() * (hi - lo) as f64) as usize
    }
}

/// A random connected instance: `n_nodes` nodes on a chain plus random
/// extra links of the given density, and an `n_modules`-stage pipeline whose
/// final stage requires graphics (the last node always has a graphics card,
/// so a feasible placement exists).
pub fn random_instance(
    rng: &mut XorShift,
    n_nodes: usize,
    n_modules: usize,
    density: f64,
) -> (Pipeline, NetGraph) {
    let mut g = NetGraph::new();
    for i in 0..n_nodes {
        let power = 0.5 + 4.0 * rng.next();
        // Keep at least the last node graphics-capable so the
        // instance is feasible when a render stage is present.
        let has_gfx = i == n_nodes - 1 || rng.next() > 0.3;
        g.add_node(format!("n{i}"), power, has_gfx);
    }
    for a in 0..n_nodes {
        for b in (a + 1)..n_nodes {
            // Always keep a chain so the graph is connected.
            if b == a + 1 || rng.next() < density {
                let bw = 0.2e6 + 10e6 * rng.next();
                let delay = 0.001 + 0.05 * rng.next();
                g.add_bidirectional(a, b, bw, delay);
            }
        }
    }
    let mut modules = Vec::new();
    for k in 0..n_modules {
        let complexity = 1e-9 + 2e-7 * rng.next();
        let out = 1e4 + 2e6 * rng.next();
        let spec = ModuleSpec::new(format!("m{k}"), complexity, out);
        let spec = if k == n_modules - 1 {
            spec.requiring_graphics()
        } else {
            spec
        };
        modules.push(spec);
    }
    let pipeline = Pipeline::new("random", 0.5e6 + 4e6 * rng.next(), modules);
    (pipeline, g)
}

/// A transfer-dominated pipeline; `scale` varies the data volume so
/// co-scheduled sessions are not carbon copies.
pub fn scaled_pipeline(scale: f64) -> Pipeline {
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

/// A benchmark-sized problem: a generated 100–400-node WAN (families
/// alternating) and `sessions` sessions of varied volume with seeded
/// endpoints, ending on graphics-capable nodes.
pub fn wan_problem(index: usize, sessions: usize) -> (NetGraph, Vec<JointSession>) {
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
    let sessions = (0..sessions)
        .map(|_| JointSession {
            pipeline: scaled_pipeline(0.5 + 3.5 * rng.next()),
            source: rng.index(0, graph.node_count()),
            destination: displays[rng.index(0, displays.len())],
        })
        .collect();
    (graph, sessions)
}
