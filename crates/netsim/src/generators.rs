//! Parameterized random WAN generators for scenario sweeps.
//!
//! The paper evaluates RICSA on a single six-site deployment (Fig. 8).  To
//! study the optimizer and transport across "as many scenarios as you can
//! imagine", this module generates families of random wide-area topologies
//! from a 64-bit seed:
//!
//! * **Waxman** graphs ([`waxman`]): nodes scattered uniformly in the unit
//!   square, linked with probability `α·exp(−d/(β·L))` where `d` is the
//!   Euclidean distance and `L` the diagonal — the classic flat random
//!   Internet model (Waxman, JSAC 1988).
//! * **Transit-stub** graphs ([`transit_stub`]): a hierarchical model in the
//!   spirit of GT-ITM (Zegura et al., INFOCOM 1996) — a ring of well-provisioned
//!   transit domains, each transit node fanning out to slower stub domains,
//!   which is where clients and data sources actually live.
//!
//! Every generated topology is **connected by construction** (a random
//! spanning structure is laid down before probabilistic extra links), carries
//! a designated headless *data source* and a graphics-capable *client*, and
//! passes [`Topology::validate`].  Generation is fully deterministic: the
//! same parameters and seed always produce an identical [`Topology`]
//! (`PartialEq`-identical, not merely isomorphic).

use crate::crosstraffic::CrossTraffic;
use crate::link::LinkSpec;
use crate::loss::LossModel;
use crate::node::{NodeId, NodeSpec};
use crate::rng::SimRng;
use crate::topology::Topology;
use serde::{Deserialize, Serialize};

/// How the bandwidth, delay, loss and background load of one class of links
/// are sampled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkDistribution {
    /// Minimum link bandwidth, megabits per second.
    pub mbps_lo: f64,
    /// Maximum link bandwidth, megabits per second.
    pub mbps_hi: f64,
    /// One-way delay of a zero-length link, seconds.
    pub delay_base: f64,
    /// Additional one-way delay per unit of Euclidean distance, seconds
    /// (the unit square has diagonal `√2`).
    pub delay_per_unit: f64,
    /// Bernoulli loss probability applied to every generated link.
    pub loss: f64,
    /// Mean background cross-traffic load in `[0, 0.9]` (0 disables it).
    pub cross_traffic_load: f64,
}

impl LinkDistribution {
    /// Representative wide-area research-network links (fast tier).
    pub fn fast() -> Self {
        LinkDistribution {
            mbps_lo: 200.0,
            mbps_hi: 600.0,
            delay_base: 0.002,
            delay_per_unit: 0.020,
            loss: 0.0002,
            cross_traffic_load: 0.10,
        }
    }

    /// Mid-tier regional links.
    pub fn mid() -> Self {
        LinkDistribution {
            mbps_lo: 60.0,
            mbps_hi: 200.0,
            delay_base: 0.004,
            delay_per_unit: 0.025,
            loss: 0.0005,
            cross_traffic_load: 0.15,
        }
    }

    /// A wide, heterogeneous bandwidth spread (15–500 Mbit/s) for flat
    /// random graphs, where link quality is not predicted by hierarchy:
    /// the spread is what makes route choice matter to the optimizer.
    pub fn wide() -> Self {
        LinkDistribution {
            mbps_lo: 15.0,
            mbps_hi: 500.0,
            delay_base: 0.003,
            delay_per_unit: 0.025,
            loss: 0.0005,
            cross_traffic_load: 0.15,
        }
    }

    /// Slow shared campus/access links.
    pub fn slow() -> Self {
        LinkDistribution {
            mbps_lo: 10.0,
            mbps_hi: 60.0,
            delay_base: 0.006,
            delay_per_unit: 0.030,
            loss: 0.001,
            cross_traffic_load: 0.20,
        }
    }

    /// Sample a [`LinkSpec`] for a link spanning Euclidean `distance`.
    fn sample(&self, distance: f64, rng: &mut SimRng) -> LinkSpec {
        let mbps = rng.uniform_range(self.mbps_lo, self.mbps_hi).max(0.001);
        let delay = self.delay_base + self.delay_per_unit * distance.max(0.0);
        LinkSpec::from_mbps(mbps, delay)
            .with_loss(if self.loss > 0.0 {
                LossModel::Bernoulli { p: self.loss }
            } else {
                LossModel::None
            })
            .with_cross_traffic(if self.cross_traffic_load > 0.0 {
                CrossTraffic::OnOff {
                    low_load: (self.cross_traffic_load * 0.5).min(0.9),
                    high_load: (self.cross_traffic_load * 1.5).min(0.9),
                    mean_low_duration: 2.0,
                    mean_high_duration: 1.0,
                }
            } else {
                CrossTraffic::None
            })
            .with_jitter(0.0015)
            .with_queue_delay(2.0)
    }
}

/// How node compute powers and capabilities are sampled.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeMix {
    /// Probability that a node is a cluster computing service (graphics-
    /// capable, MPI-parallel, high power).
    pub cluster_fraction: f64,
    /// Probability that a non-cluster workstation has a graphics card.
    pub graphics_fraction: f64,
    /// Normalized compute power range of PC-class workstations.
    pub pc_power: (f64, f64),
    /// Normalized compute power range of cluster nodes.
    pub cluster_power: (f64, f64),
}

impl Default for NodeMix {
    fn default() -> Self {
        NodeMix {
            cluster_fraction: 0.2,
            graphics_fraction: 0.5,
            pc_power: (0.5, 2.0),
            cluster_power: (3.0, 9.0),
        }
    }
}

impl NodeMix {
    fn sample(&self, name: String, rng: &mut SimRng) -> NodeSpec {
        if rng.coin(self.cluster_fraction) {
            let power = rng.uniform_range(self.cluster_power.0, self.cluster_power.1);
            let workers = 2 + rng.index(15) as u32;
            NodeSpec::cluster(name, power, workers)
        } else {
            let power = rng.uniform_range(self.pc_power.0, self.pc_power.1);
            if rng.coin(self.graphics_fraction) {
                NodeSpec::workstation(name, power)
            } else {
                NodeSpec::headless(name, power)
            }
        }
    }
}

/// Parameters of the flat Waxman random-graph generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct WaxmanParams {
    /// Number of nodes (≥ 2).
    pub nodes: usize,
    /// Waxman `α`: overall link density in `(0, 1]`.
    pub alpha: f64,
    /// Waxman `β`: distance decay in `(0, 1]` (larger keeps long links).
    pub beta: f64,
    /// Link parameter distribution.
    pub links: LinkDistribution,
    /// Node parameter distribution.
    pub mix: NodeMix,
}

impl Default for WaxmanParams {
    fn default() -> Self {
        WaxmanParams {
            nodes: 16,
            alpha: 0.4,
            beta: 0.35,
            links: LinkDistribution::wide(),
            mix: NodeMix::default(),
        }
    }
}

impl WaxmanParams {
    /// Default parameters scaled to roughly `nodes` nodes, thinning `α` as
    /// the graph grows so the edge count stays near-linear in `n`.
    pub fn sized(nodes: usize) -> Self {
        let nodes = nodes.max(2);
        WaxmanParams {
            nodes,
            alpha: (6.0 / nodes as f64).clamp(0.02, 0.5),
            ..WaxmanParams::default()
        }
    }
}

/// Parameters of the hierarchical transit-stub generator.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TransitStubParams {
    /// Number of transit domains (≥ 1), connected in a ring.
    pub transit_domains: usize,
    /// Transit nodes per domain (≥ 1), connected in a ring plus chords.
    pub transit_nodes: usize,
    /// Stub domains hanging off each transit node.
    pub stub_domains: usize,
    /// Nodes per stub domain (≥ 1), connected as a tree to a gateway.
    pub stub_nodes: usize,
    /// Probability of an extra chord between two transit nodes of a domain.
    pub transit_chord_probability: f64,
    /// Link distribution of the transit core.
    pub transit_links: LinkDistribution,
    /// Link distribution of transit↔stub attachment links.
    pub attachment_links: LinkDistribution,
    /// Link distribution inside stub domains.
    pub stub_links: LinkDistribution,
    /// Node parameter distribution of stub nodes (transit nodes are always
    /// cluster-class: the well-provisioned computing services live there).
    pub mix: NodeMix,
}

impl Default for TransitStubParams {
    fn default() -> Self {
        TransitStubParams {
            transit_domains: 2,
            transit_nodes: 3,
            stub_domains: 1,
            stub_nodes: 2,
            transit_chord_probability: 0.3,
            transit_links: LinkDistribution::fast(),
            attachment_links: LinkDistribution::mid(),
            stub_links: LinkDistribution::slow(),
            mix: NodeMix::default(),
        }
    }
}

impl TransitStubParams {
    /// Default parameters scaled to roughly `nodes` total nodes.
    pub fn sized(nodes: usize) -> Self {
        let nodes = nodes.max(6);
        // total ≈ domains · transit_nodes · (1 + stub_domains · stub_nodes).
        let mut p = TransitStubParams::default();
        let per_transit = 1 + p.stub_domains * p.stub_nodes;
        let transit_total = (nodes / per_transit).max(2);
        p.transit_domains = (transit_total / 4).clamp(1, 8);
        p.transit_nodes = (transit_total / p.transit_domains).max(1);
        p
    }
}

/// A generated topology together with the designated experiment roles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct GeneratedWan {
    /// Short description of the generator and its scale, for reports.
    pub label: String,
    /// The seed the topology was generated from.
    pub seed: u64,
    /// The generated overlay.
    pub topology: Topology,
    /// The designated data-source node (always headless: the paper's data
    /// sources have no graphics card).
    pub source: NodeId,
    /// The designated client node (always graphics-capable, so the standard
    /// render-terminated pipeline is always feasible).
    pub client: NodeId,
}

/// The family a generated scenario topology is drawn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum WanKind {
    /// Flat Waxman random graph.
    Waxman,
    /// Hierarchical transit-stub graph.
    TransitStub,
}

impl WanKind {
    /// Short lowercase name used in labels and reports.
    pub fn name(self) -> &'static str {
        match self {
            WanKind::Waxman => "waxman",
            WanKind::TransitStub => "transit-stub",
        }
    }
}

/// Generate a topology of the given family with default parameters scaled
/// to roughly `nodes` nodes.
pub fn generate(kind: WanKind, nodes: usize, seed: u64) -> GeneratedWan {
    match kind {
        WanKind::Waxman => waxman(&WaxmanParams::sized(nodes), seed),
        WanKind::TransitStub => transit_stub(&TransitStubParams::sized(nodes), seed),
    }
}

fn distance(a: (f64, f64), b: (f64, f64)) -> f64 {
    ((a.0 - b.0).powi(2) + (a.1 - b.1).powi(2)).sqrt()
}

/// Enforce the experiment roles the caller picked: force the client to be
/// graphics-capable and the source to be a headless workstation (matching
/// the paper's data-source hosts), rebuilding those node specs in place.
fn assign_roles(topology: &mut Topology, preferred_source: NodeId, preferred_client: NodeId) {
    // Force the client's graphics on and the source's graphics off, so the
    // standard filter → isosurface → render pipeline is always feasible and
    // the source genuinely needs the network to get pixels rendered.
    let client_spec = topology
        .node(preferred_client)
        .expect("client id is in range")
        .clone();
    if !client_spec.capabilities.has_graphics {
        let mut fixed = client_spec;
        fixed.capabilities.has_graphics = true;
        replace_node(topology, preferred_client, fixed);
    }
    let source_spec = topology
        .node(preferred_source)
        .expect("source id is in range")
        .clone();
    if source_spec.capabilities.has_graphics || source_spec.capabilities.is_cluster {
        replace_node(
            topology,
            preferred_source,
            NodeSpec::headless(source_spec.name, source_spec.compute_power),
        );
    }
}

fn replace_node(topology: &mut Topology, id: NodeId, spec: NodeSpec) {
    // Topology has no in-place node mutation API; rebuild preserving order.
    let mut rebuilt = Topology::new();
    for (nid, n) in topology.nodes() {
        rebuilt.add_node(if nid == id { spec.clone() } else { n.clone() });
    }
    for e in topology.edges() {
        rebuilt.connect_directed(e.from, e.to, e.spec.clone());
    }
    *topology = rebuilt;
}

/// Generate a flat Waxman random WAN.
///
/// Connectivity is guaranteed by first wiring a random spanning tree (node
/// `i` attaches to a uniformly random earlier node), then adding each
/// remaining pair `(i, j)` with probability `α·exp(−d(i,j)/(β·√2))`.
pub fn waxman(params: &WaxmanParams, seed: u64) -> GeneratedWan {
    let n = params.nodes.max(2);
    let mut rng = SimRng::new(seed);
    let mut positions = Vec::with_capacity(n);
    let mut topology = Topology::new();
    for i in 0..n {
        positions.push((rng.uniform(), rng.uniform()));
        let spec = params.mix.sample(format!("w{i}"), &mut rng);
        topology.add_node(spec);
    }
    // Random spanning tree.
    let mut tree_partner = Vec::with_capacity(n);
    for i in 1..n {
        tree_partner.push(rng.index(i));
    }
    for (i, &j) in (1..n).zip(tree_partner.iter()) {
        let spec = params
            .links
            .sample(distance(positions[i], positions[j]), &mut rng);
        topology.connect(NodeId(i), NodeId(j), spec);
    }
    // Waxman extra links.
    let diagonal = std::f64::consts::SQRT_2;
    for i in 0..n {
        for j in (i + 1)..n {
            if topology.edge_between(NodeId(i), NodeId(j)).is_some() {
                continue;
            }
            let d = distance(positions[i], positions[j]);
            let p = params.alpha * (-d / (params.beta * diagonal)).exp();
            if rng.coin(p) {
                let spec = params.links.sample(d, &mut rng);
                topology.connect(NodeId(i), NodeId(j), spec);
            }
        }
    }
    // Roles: the client is the farthest node from node 0 (the source), so
    // the pipeline genuinely crosses the generated WAN.
    let source = NodeId(0);
    let client = NodeId(
        (1..n)
            .max_by(|&a, &b| {
                let da = distance(positions[0], positions[a]);
                let db = distance(positions[0], positions[b]);
                da.partial_cmp(&db).expect("distances are finite")
            })
            .expect("n >= 2"),
    );
    assign_roles(&mut topology, source, client);
    GeneratedWan {
        label: format!("waxman(n={n}, α={:.2}, β={:.2})", params.alpha, params.beta),
        seed,
        topology,
        source,
        client,
    }
}

/// Generate a hierarchical transit-stub WAN.
///
/// Transit domains form a ring; inside a domain the transit nodes form a
/// ring plus random chords; every transit node is a cluster-class computing
/// service; each stub domain is a random tree of PC-class nodes rooted at a
/// gateway that attaches to its transit node.  The client lives in the first
/// stub domain of the first transit domain and the data source in the stub
/// domain diametrically across the transit ring.
pub fn transit_stub(params: &TransitStubParams, seed: u64) -> GeneratedWan {
    let mut rng = SimRng::new(seed);
    let mut topology = Topology::new();
    let domains = params.transit_domains.max(1);
    let mut per_domain = params.transit_nodes.max(1);
    if domains == 1 && per_domain == 1 && params.stub_domains == 0 {
        // A single-node "WAN" cannot host distinct source and client roles.
        per_domain = 2;
    }

    // Synthetic geography: transit domains sit on a circle of radius 0.5
    // around (0.5, 0.5); stubs scatter near their transit node.
    let mut transit: Vec<Vec<NodeId>> = Vec::with_capacity(domains);
    let mut transit_pos: Vec<Vec<(f64, f64)>> = Vec::with_capacity(domains);
    for d in 0..domains {
        let angle = 2.0 * std::f64::consts::PI * d as f64 / domains as f64;
        let center = (0.5 + 0.4 * angle.cos(), 0.5 + 0.4 * angle.sin());
        let mut ids = Vec::with_capacity(per_domain);
        let mut pos = Vec::with_capacity(per_domain);
        for t in 0..per_domain {
            let p = (
                center.0 + rng.uniform_range(-0.05, 0.05),
                center.1 + rng.uniform_range(-0.05, 0.05),
            );
            let power = rng.uniform_range(params.mix.cluster_power.0, params.mix.cluster_power.1);
            let workers = 4 + rng.index(13) as u32;
            let id = topology.add_node(NodeSpec::cluster(format!("t{d}.{t}"), power, workers));
            ids.push(id);
            pos.push(p);
        }
        // Intra-domain ring plus chords.
        for t in 0..per_domain {
            if per_domain > 1 && (t + 1 < per_domain || per_domain > 2) {
                let u = (t + 1) % per_domain;
                if topology.edge_between(ids[t], ids[u]).is_none() {
                    let spec = params
                        .transit_links
                        .sample(distance(pos[t], pos[u]), &mut rng);
                    topology.connect(ids[t], ids[u], spec);
                }
            }
        }
        for a in 0..per_domain {
            for b in (a + 2)..per_domain {
                if topology.edge_between(ids[a], ids[b]).is_none()
                    && rng.coin(params.transit_chord_probability)
                {
                    let spec = params
                        .transit_links
                        .sample(distance(pos[a], pos[b]), &mut rng);
                    topology.connect(ids[a], ids[b], spec);
                }
            }
        }
        transit.push(ids);
        transit_pos.push(pos);
    }
    // Inter-domain ring (one link between random members of adjacent
    // domains); a single domain needs no inter-domain links.
    if domains > 1 {
        for d in 0..domains {
            let e = (d + 1) % domains;
            if d == e || (domains == 2 && d == 1) {
                continue;
            }
            let a = transit[d][rng.index(transit[d].len())];
            let b = transit[e][rng.index(transit[e].len())];
            let pa = transit_pos[d][a.0 - transit[d][0].0];
            let pb = transit_pos[e][b.0 - transit[e][0].0];
            let spec = params.transit_links.sample(distance(pa, pb), &mut rng);
            topology.connect(a, b, spec);
        }
    }
    // Stub domains.
    let mut first_stub_node: Option<NodeId> = None;
    let mut far_stub_node: Option<NodeId> = None;
    let far_domain = domains / 2;
    for (d, domain) in transit.iter().enumerate() {
        for (t, &tid) in domain.iter().enumerate() {
            for s in 0..params.stub_domains {
                let mut stub_ids: Vec<NodeId> = Vec::with_capacity(params.stub_nodes.max(1));
                for k in 0..params.stub_nodes.max(1) {
                    let spec = params.mix.sample(format!("s{d}.{t}.{s}.{k}"), &mut rng);
                    // Stub nodes are end hosts, not clusters.
                    let spec = if spec.capabilities.is_cluster {
                        NodeSpec::workstation(spec.name, params.mix.pc_power.1)
                    } else {
                        spec
                    };
                    let id = topology.add_node(spec);
                    // Tree: attach to the gateway (k == 0 attaches to the
                    // transit node) or to a random earlier stub node.
                    let (parent, links) = if k == 0 {
                        (tid, &params.attachment_links)
                    } else {
                        (stub_ids[rng.index(stub_ids.len())], &params.stub_links)
                    };
                    let hop = 0.02 + 0.03 * rng.uniform();
                    let spec = links.sample(hop, &mut rng);
                    topology.connect(id, parent, spec);
                    stub_ids.push(id);
                }
                if d == 0 && t == 0 && s == 0 {
                    first_stub_node = stub_ids.last().copied();
                }
                if d == far_domain && far_stub_node.is_none() {
                    far_stub_node = stub_ids.last().copied();
                }
            }
        }
    }
    // Roles: client in the first stub domain, source across the ring (or, if
    // there are no stub nodes at all, the two most distant transit nodes).
    let client = first_stub_node.unwrap_or(transit[0][0]);
    let source = far_stub_node
        .filter(|&s| s != client)
        .unwrap_or_else(|| transit[far_domain][per_domain - 1]);
    let (client, source) = if client == source {
        (transit[0][0], source)
    } else {
        (client, source)
    };
    assign_roles(&mut topology, source, client);
    GeneratedWan {
        label: format!(
            "transit-stub(T={domains}×{per_domain}, S={}×{}, n={})",
            params.stub_domains,
            params.stub_nodes,
            topology.node_count()
        ),
        seed,
        topology,
        source,
        client,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::routing::RoutingTable;

    fn check_wan(wan: &GeneratedWan) {
        assert!(wan.topology.validate().is_ok(), "{}", wan.label);
        assert_ne!(wan.source, wan.client);
        let rt = RoutingTable::build(&wan.topology);
        for (id, _) in wan.topology.nodes() {
            assert!(
                rt.reachable(wan.source, id),
                "{}: node {id} unreachable from source",
                wan.label
            );
        }
        let client = wan.topology.node(wan.client).unwrap();
        assert!(client.capabilities.has_graphics, "{}", wan.label);
        let source = wan.topology.node(wan.source).unwrap();
        assert!(!source.capabilities.has_graphics, "{}", wan.label);
    }

    #[test]
    fn waxman_is_deterministic_per_seed() {
        for seed in [0u64, 1, 42, 0xDEADBEEF] {
            let a = waxman(&WaxmanParams::default(), seed);
            let b = waxman(&WaxmanParams::default(), seed);
            assert_eq!(a, b);
        }
        let a = waxman(&WaxmanParams::default(), 1);
        let b = waxman(&WaxmanParams::default(), 2);
        assert_ne!(a, b);
    }

    #[test]
    fn transit_stub_is_deterministic_per_seed() {
        for seed in [0u64, 7, 999] {
            let a = transit_stub(&TransitStubParams::default(), seed);
            let b = transit_stub(&TransitStubParams::default(), seed);
            assert_eq!(a, b);
        }
        let a = transit_stub(&TransitStubParams::default(), 5);
        let b = transit_stub(&TransitStubParams::default(), 6);
        assert_ne!(a, b);
    }

    #[test]
    fn waxman_topologies_are_connected_and_feasible_across_sizes_and_seeds() {
        for &nodes in &[2usize, 6, 16, 64, 200] {
            for seed in 0..5 {
                let wan = waxman(&WaxmanParams::sized(nodes), seed);
                assert_eq!(wan.topology.node_count(), nodes.max(2));
                check_wan(&wan);
            }
        }
    }

    #[test]
    fn transit_stub_topologies_are_connected_and_feasible_across_sizes_and_seeds() {
        for &nodes in &[6usize, 12, 48, 150, 520] {
            for seed in 0..5 {
                let wan = transit_stub(&TransitStubParams::sized(nodes), seed);
                assert!(wan.topology.node_count() >= 6, "{}", wan.label);
                check_wan(&wan);
            }
        }
    }

    #[test]
    fn sized_transit_stub_reaches_five_hundred_nodes() {
        let p = TransitStubParams {
            transit_domains: 6,
            transit_nodes: 4,
            stub_domains: 5,
            stub_nodes: 4,
            ..TransitStubParams::default()
        };
        let wan = transit_stub(&p, 3);
        assert!(wan.topology.node_count() >= 500);
        check_wan(&wan);
    }

    #[test]
    fn generate_dispatches_on_kind() {
        let w = generate(WanKind::Waxman, 10, 1);
        assert!(w.label.starts_with("waxman"));
        let t = generate(WanKind::TransitStub, 20, 1);
        assert!(t.label.starts_with("transit-stub"));
        assert_eq!(WanKind::Waxman.name(), "waxman");
        assert_eq!(WanKind::TransitStub.name(), "transit-stub");
    }

    #[test]
    fn generated_link_classes_are_ordered() {
        // Transit links must be faster than stub links on average, or the
        // hierarchy is meaningless.
        let fast = LinkDistribution::fast();
        let slow = LinkDistribution::slow();
        assert!(fast.mbps_lo > slow.mbps_hi);
    }
}
