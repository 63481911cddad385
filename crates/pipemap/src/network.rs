//! The transport-network model used by the pipeline optimizer.
//!
//! A [`NetGraph`] is the optimizer's view of the overlay: node compute
//! powers `p_i`, graphics capability (for the rendering feasibility check),
//! and directed links with *effective* bandwidth `b_{i,j}` and minimum delay
//! `d_{i,j}`.  It can be built directly from a `ricsa-netsim` topology (using
//! each link's mean effective bandwidth) or from active measurements (EPB
//! estimates), which is how the paper's central-management node obtains it.

use ricsa_netsim::node::NodeId;
use ricsa_netsim::topology::Topology;
use serde::{Deserialize, Serialize};

/// A node of the optimizer's network model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetNode {
    /// Display name.
    pub name: String,
    /// Normalized compute power `p_i`.
    pub power: f64,
    /// Whether rendering modules may be placed here.
    pub has_graphics: bool,
}

/// A directed link of the optimizer's network model.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetLink {
    /// Source node index.
    pub from: usize,
    /// Destination node index.
    pub to: usize,
    /// Effective bandwidth in bytes per second.
    pub bandwidth: f64,
    /// Minimum link delay in seconds.
    pub delay: f64,
}

/// Floor applied to link bandwidths in every delay formula, so a degenerate
/// zero-bandwidth link yields a huge-but-finite delay instead of an
/// infinity/NaN that would poison the DP comparisons.
pub const MIN_BANDWIDTH: f64 = 1e-9;

impl NetLink {
    /// Time to move `bytes` across this link: transmission at the guarded
    /// bandwidth plus the minimum link delay (the `m/b + d` term shared by
    /// the DP objective of Eqs. 9-10 and the Eq. 2 evaluator — one
    /// definition, so the optimizer and `evaluate_mapping` can never
    /// disagree about a link's cost).
    pub fn transfer_time(&self, bytes: f64) -> f64 {
        bytes / self.bandwidth.max(MIN_BANDWIDTH) + self.delay
    }
}

/// The network graph `G = (V, E)` of the paper's Section 4.2.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct NetGraph {
    nodes: Vec<NetNode>,
    links: Vec<NetLink>,
    /// `incoming[v]` lists link indices ending at `v` (what the DP iterates
    /// over as `adj(v_i)`).
    incoming: Vec<Vec<usize>>,
    /// `outgoing[v]` lists link indices leaving `v`.
    outgoing: Vec<Vec<usize>>,
}

impl NetGraph {
    /// An empty graph.
    pub fn new() -> Self {
        NetGraph::default()
    }

    /// Add a node and return its index.
    pub fn add_node(&mut self, name: impl Into<String>, power: f64, has_graphics: bool) -> usize {
        self.nodes.push(NetNode {
            name: name.into(),
            power,
            has_graphics,
        });
        self.incoming.push(Vec::new());
        self.outgoing.push(Vec::new());
        self.nodes.len() - 1
    }

    /// Add a directed link.
    ///
    /// # Panics
    /// Panics if either endpoint is out of range.
    pub fn add_link(&mut self, from: usize, to: usize, bandwidth: f64, delay: f64) -> usize {
        assert!(
            from < self.nodes.len() && to < self.nodes.len(),
            "link endpoint out of range"
        );
        let idx = self.links.len();
        self.links.push(NetLink {
            from,
            to,
            bandwidth,
            delay,
        });
        self.incoming[to].push(idx);
        self.outgoing[from].push(idx);
        idx
    }

    /// Add a symmetric pair of links.
    pub fn add_bidirectional(&mut self, a: usize, b: usize, bandwidth: f64, delay: f64) {
        self.add_link(a, b, bandwidth, delay);
        self.add_link(b, a, bandwidth, delay);
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed links.
    pub fn link_count(&self) -> usize {
        self.links.len()
    }

    /// Node by index.
    pub fn node(&self, idx: usize) -> &NetNode {
        &self.nodes[idx]
    }

    /// All nodes.
    pub fn nodes(&self) -> &[NetNode] {
        &self.nodes
    }

    /// Link by index.
    pub fn link(&self, idx: usize) -> &NetLink {
        &self.links[idx]
    }

    /// Indices of links ending at `node`.
    pub fn incoming_links(&self, node: usize) -> &[usize] {
        &self.incoming[node]
    }

    /// Indices of links leaving `node`.
    pub fn outgoing_links(&self, node: usize) -> &[usize] {
        &self.outgoing[node]
    }

    /// Index of the directed link from `from` to `to` — a handle for
    /// [`NetGraph::link`] and [`NetGraph::set_measured_at`] that stays valid
    /// for the life of the graph.  Between parallel links the first added
    /// wins; a node index outside the graph has no links, so the answer is
    /// `None` rather than a panic.
    pub fn link_index(&self, from: usize, to: usize) -> Option<usize> {
        self.outgoing
            .get(from)?
            .iter()
            .copied()
            .find(|&i| self.links[i].to == to)
    }

    /// The directed link from `from` to `to`, if any (the link
    /// [`NetGraph::link_index`] names).
    pub fn link_between(&self, from: usize, to: usize) -> Option<&NetLink> {
        self.link_index(from, to).map(|i| &self.links[i])
    }

    /// Find a node index by name.
    pub fn node_by_name(&self, name: &str) -> Option<usize> {
        self.nodes.iter().position(|n| n.name == name)
    }

    /// Build the optimizer's view from a simulator topology, using each
    /// link's mean effective bandwidth (raw bandwidth reduced by the mean
    /// cross-traffic load) and minimum delay.
    pub fn from_topology(topo: &Topology) -> Self {
        let mut g = NetGraph::new();
        for (_, spec) in topo.nodes() {
            g.add_node(
                spec.name.clone(),
                spec.compute_power,
                spec.capabilities.has_graphics,
            );
        }
        for edge in topo.edges() {
            g.add_link(
                edge.from.0,
                edge.to.0,
                edge.spec.mean_effective_bandwidth(),
                edge.spec.min_delay,
            );
        }
        g
    }

    /// Map a simulator node id to the corresponding graph index (identical
    /// numbering when built via [`NetGraph::from_topology`]).
    pub fn index_of(&self, node: NodeId) -> usize {
        node.0
    }

    /// Replace the bandwidth/delay of the link `from → to` with measured
    /// values (e.g. an EPB estimate); returns false if no such link exists.
    pub fn set_measured(&mut self, from: usize, to: usize, bandwidth: f64, delay: f64) -> bool {
        match self.link_index(from, to) {
            Some(idx) => {
                self.set_measured_at(idx, bandwidth, delay);
                true
            }
            None => false,
        }
    }

    /// [`NetGraph::set_measured`] by link index.
    ///
    /// # Panics
    /// Panics if `idx` is not a link of this graph.
    pub fn set_measured_at(&mut self, idx: usize, bandwidth: f64, delay: f64) {
        let link = &mut self.links[idx];
        link.bandwidth = bandwidth;
        link.delay = delay;
    }
}

/// Which way a [`dijkstra`] traversal follows the directed links.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EdgeDir {
    /// Relax along outgoing links (distances *from* the seeds).
    Outgoing,
    /// Relax along incoming links in reverse (distances *to* the seeds).
    Incoming,
}

/// Min-heap entry (reverse order on distance, tie-broken by node id for
/// determinism; a NaN distance never enters the heap because `dijkstra`
/// only pushes finite candidates).
#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The one Dijkstra shared by the DP's relay closure and transport lower
/// bounds and the sweep's default-route baseline — a single place for the
/// heap, the stale-entry test and the non-negative-weight guard, so the
/// traversals cannot drift apart.
///
/// `init[v]` is node `v`'s seed distance (use `f64::INFINITY` for
/// non-seeds).  `weight` prices one link; negative prices are clamped to
/// zero.  `expand(node, dist)` is called once per settled node — return
/// `false` to keep the node settled but skip relaxing out of it (the DP's
/// dominance pruning).  Returns `(dist, parent)`, with `parent[v] =
/// usize::MAX` for unreached nodes and seeds.
pub(crate) fn dijkstra(
    graph: &NetGraph,
    init: &[f64],
    dir: EdgeDir,
    weight: impl Fn(&NetLink) -> f64,
    mut expand: impl FnMut(usize, f64) -> bool,
) -> (Vec<f64>, Vec<usize>) {
    let n = graph.node_count();
    let mut dist = init.to_vec();
    let mut parent = vec![usize::MAX; n];
    let mut done = vec![false; n];
    let mut heap = std::collections::BinaryHeap::new();
    for (v, &d) in dist.iter().enumerate() {
        if d.is_finite() {
            heap.push(HeapEntry { dist: d, node: v });
        }
    }
    while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
        if done[u] || d > dist[u] {
            continue;
        }
        done[u] = true;
        if !expand(u, dist[u]) {
            continue;
        }
        let links = match dir {
            EdgeDir::Outgoing => graph.outgoing_links(u),
            EdgeDir::Incoming => graph.incoming_links(u),
        };
        for &lid in links {
            let link = graph.link(lid);
            let next = match dir {
                EdgeDir::Outgoing => link.to,
                EdgeDir::Incoming => link.from,
            };
            let cand = dist[u] + weight(link).max(0.0);
            if cand < dist[next] {
                dist[next] = cand;
                parent[next] = u;
                heap.push(HeapEntry {
                    dist: cand,
                    node: next,
                });
            }
        }
    }
    (dist, parent)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ricsa_netsim::link::LinkSpec;
    use ricsa_netsim::node::NodeSpec;

    fn triangle() -> NetGraph {
        let mut g = NetGraph::new();
        let a = g.add_node("a", 1.0, true);
        let b = g.add_node("b", 4.0, true);
        let c = g.add_node("c", 2.0, false);
        g.add_bidirectional(a, b, 1e6, 0.01);
        g.add_bidirectional(b, c, 2e6, 0.02);
        g.add_link(a, c, 0.5e6, 0.05);
        g
    }

    #[test]
    fn construction_and_queries() {
        let g = triangle();
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 5);
        assert_eq!(g.node(1).power, 4.0);
        assert!(!g.node(2).has_graphics);
        assert_eq!(g.incoming_links(2).len(), 2);
        assert_eq!(g.outgoing_links(0).len(), 2);
        assert!(g.link_between(0, 2).is_some());
        assert!(g.link_between(2, 0).is_none());
        assert_eq!(g.node_by_name("b"), Some(1));
        assert_eq!(g.node_by_name("zzz"), None);
    }

    #[test]
    fn measured_values_override_link_parameters() {
        let mut g = triangle();
        assert!(g.set_measured(0, 1, 9e6, 0.001));
        let l = g.link_between(0, 1).unwrap();
        assert_eq!(l.bandwidth, 9e6);
        assert_eq!(l.delay, 0.001);
        assert!(!g.set_measured(2, 0, 1.0, 1.0));
    }

    #[test]
    fn link_handles_name_the_first_match_and_set_by_index() {
        let mut g = triangle();
        let parallel = g.add_link(0, 1, 7e6, 0.5);
        let first = g.link_index(0, 1).unwrap();
        assert_ne!(first, parallel, "the first link added wins");
        assert_eq!(g.link(first), g.link_between(0, 1).unwrap());
        g.set_measured_at(first, 3e6, 0.25);
        assert_eq!(g.link_between(0, 1).unwrap().bandwidth, 3e6);
        assert_eq!(g.link(first).delay, 0.25);
        assert_eq!(g.link(parallel).bandwidth, 7e6);
        assert_eq!(g.link_index(2, 0), None);
    }

    /// Node ids arrive from telemetry: one outside the graph names no
    /// link, it does not index out of bounds.
    #[test]
    fn out_of_range_nodes_have_no_links() {
        let mut g = triangle();
        let before = g.clone();
        for (from, to) in [(3, 0), (0, 3), (99, 99), (usize::MAX, 0)] {
            assert_eq!(g.link_index(from, to), None);
            assert!(g.link_between(from, to).is_none());
            assert!(!g.set_measured(from, to, 1.0, 1.0));
        }
        assert_eq!(g, before);
    }

    #[test]
    fn from_topology_preserves_structure() {
        let mut topo = Topology::new();
        let a = topo.add_node(NodeSpec::workstation("a", 1.5));
        let b = topo.add_node(NodeSpec::cluster("b", 6.0, 8));
        let c = topo.add_node(NodeSpec::headless("c", 1.0));
        topo.connect(a, b, LinkSpec::from_mbps(100.0, 0.01));
        topo.connect(b, c, LinkSpec::from_mbps(10.0, 0.02));
        let g = NetGraph::from_topology(&topo);
        assert_eq!(g.node_count(), 3);
        assert_eq!(g.link_count(), 4);
        assert_eq!(g.node(g.index_of(a)).power, 1.5);
        assert!(!g.node(g.index_of(c)).has_graphics);
        let l = g.link_between(0, 1).unwrap();
        assert!((l.bandwidth - 12.5e6).abs() < 1.0);
        assert_eq!(l.delay, 0.01);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_link_endpoints_panic() {
        let mut g = NetGraph::new();
        g.add_node("a", 1.0, true);
        g.add_link(0, 5, 1.0, 0.0);
    }
}
