//! Static routing over the overlay graph.
//!
//! Datagrams addressed to a non-adjacent node are forwarded hop by hop along
//! a shortest path.  Paths are computed once from the static topology with
//! Dijkstra's algorithm using the *ideal per-datagram latency* of each link
//! (minimum delay plus the serialization time of an MTU-sized datagram at the
//! mean effective bandwidth) as the edge weight, which mirrors how overlay
//! transport daemons pick virtual circuits in the paper's deployment.

use crate::link::LinkId;
use crate::node::NodeId;
use crate::packet::DEFAULT_MTU;
use crate::topology::Topology;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// Precomputed next-hop table: `next_hop[src][dst]` is the link to take.
#[derive(Debug, Clone)]
pub struct RoutingTable {
    next_hop: Vec<Vec<Option<LinkId>>>,
}

#[derive(PartialEq)]
struct HeapEntry {
    dist: f64,
    node: usize,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on distance (reverse order), tie-broken by node id for
        // determinism.
        other
            .dist
            .partial_cmp(&self.dist)
            .unwrap_or(Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl RoutingTable {
    /// Build the all-pairs next-hop table for a topology.
    pub fn build(topo: &Topology) -> Self {
        let n = topo.node_count();
        let mut next_hop = vec![vec![None; n]; n];

        for src in 0..n {
            // Dijkstra from src.
            let mut dist = vec![f64::INFINITY; n];
            let mut first_link: Vec<Option<LinkId>> = vec![None; n];
            let mut visited = vec![false; n];
            let mut heap = BinaryHeap::new();
            dist[src] = 0.0;
            heap.push(HeapEntry {
                dist: 0.0,
                node: src,
            });
            while let Some(HeapEntry { dist: d, node: u }) = heap.pop() {
                if visited[u] {
                    continue;
                }
                visited[u] = true;
                for &lid in topo.outgoing(NodeId(u)) {
                    let edge = match topo.edge(lid) {
                        Some(e) => e,
                        None => continue,
                    };
                    let v = edge.to.0;
                    let weight = edge.spec.min_delay
                        + DEFAULT_MTU as f64 / edge.spec.mean_effective_bandwidth().max(1.0);
                    let nd = d + weight;
                    if nd < dist[v] {
                        dist[v] = nd;
                        first_link[v] = if u == src { Some(lid) } else { first_link[u] };
                        heap.push(HeapEntry { dist: nd, node: v });
                    }
                }
            }
            next_hop[src] = first_link;
        }

        RoutingTable { next_hop }
    }

    /// The link a datagram at `at` should take to eventually reach `dst`.
    pub fn next_hop(&self, at: NodeId, dst: NodeId) -> Option<LinkId> {
        if at == dst {
            return None;
        }
        self.next_hop.get(at.0)?.get(dst.0).copied().flatten()
    }

    /// Whether `dst` is reachable from `src`.
    pub fn reachable(&self, src: NodeId, dst: NodeId) -> bool {
        if src == dst {
            return true;
        }
        self.next_hop(src, dst).is_some()
    }

    /// The full node sequence from `src` to `dst`, inclusive, if reachable.
    pub fn path(&self, topo: &Topology, src: NodeId, dst: NodeId) -> Option<Vec<NodeId>> {
        let mut path = vec![src];
        let mut at = src;
        let mut hops = 0;
        while at != dst {
            let link = self.next_hop(at, dst)?;
            let edge = topo.edge(link)?;
            at = edge.to;
            path.push(at);
            hops += 1;
            if hops > topo.node_count() {
                return None; // routing loop guard
            }
        }
        Some(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::node::NodeSpec;

    fn line_topology(n: usize) -> Topology {
        let mut t = Topology::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| t.add_node(NodeSpec::workstation(format!("n{i}"), 1.0)))
            .collect();
        for w in ids.windows(2) {
            t.connect(w[0], w[1], LinkSpec::from_mbps(100.0, 0.01));
        }
        t
    }

    #[test]
    fn direct_neighbors_route_directly() {
        let topo = line_topology(3);
        let rt = RoutingTable::build(&topo);
        let hop = rt.next_hop(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(topo.edge(hop).unwrap().to, NodeId(1));
    }

    #[test]
    fn multi_hop_paths_follow_the_line() {
        let topo = line_topology(5);
        let rt = RoutingTable::build(&topo);
        let path = rt.path(&topo, NodeId(0), NodeId(4)).unwrap();
        assert_eq!(
            path,
            vec![NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4)]
        );
        assert!(rt.reachable(NodeId(0), NodeId(4)));
    }

    #[test]
    fn unreachable_nodes_are_reported() {
        let mut topo = line_topology(2);
        let isolated = topo.add_node(NodeSpec::workstation("iso", 1.0));
        let rt = RoutingTable::build(&topo);
        assert!(!rt.reachable(NodeId(0), isolated));
        assert!(rt.next_hop(NodeId(0), isolated).is_none());
        assert!(rt.path(&topo, NodeId(0), isolated).is_none());
    }

    #[test]
    fn self_route_is_trivial() {
        let topo = line_topology(2);
        let rt = RoutingTable::build(&topo);
        assert!(rt.reachable(NodeId(0), NodeId(0)));
        assert!(rt.next_hop(NodeId(0), NodeId(0)).is_none());
        assert_eq!(
            rt.path(&topo, NodeId(1), NodeId(1)).unwrap(),
            vec![NodeId(1)]
        );
    }

    #[test]
    fn prefers_faster_route() {
        // Triangle where the direct 0->2 link is very slow; routing should go
        // through node 1.
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("a", 1.0));
        let b = t.add_node(NodeSpec::workstation("b", 1.0));
        let c = t.add_node(NodeSpec::workstation("c", 1.0));
        t.connect(a, b, LinkSpec::from_mbps(1000.0, 0.001));
        t.connect(b, c, LinkSpec::from_mbps(1000.0, 0.001));
        t.connect(a, c, LinkSpec::from_mbps(0.1, 0.5));
        let rt = RoutingTable::build(&t);
        let path = rt.path(&t, a, c).unwrap();
        assert_eq!(path, vec![a, b, c]);
    }
}
