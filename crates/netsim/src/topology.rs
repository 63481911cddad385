//! Topology description: nodes and (directed) links.
//!
//! A [`Topology`] is the static picture of the overlay network: the set of
//! hosts participating in a RICSA deployment and the virtual links between
//! them.  The paper represents it as a graph `G = (V, E)` which "may or may
//! not be a complete graph, depending on whether the node deployment
//! environment is the Internet or a dedicated network".

use crate::link::{LinkId, LinkSpec};
use crate::node::{NodeId, NodeSpec};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// A directed edge in the overlay graph.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Edge {
    /// Link identifier.
    pub id: LinkId,
    /// Source node.
    pub from: NodeId,
    /// Destination node.
    pub to: NodeId,
    /// Link parameters.
    pub spec: LinkSpec,
}

/// The static overlay network: hosts plus directed virtual links.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Topology {
    nodes: Vec<NodeSpec>,
    edges: Vec<Edge>,
    adjacency: HashMap<NodeId, Vec<LinkId>>,
}

impl Topology {
    /// An empty topology.
    pub fn new() -> Self {
        Topology::default()
    }

    /// Add a node and return its identifier.
    pub fn add_node(&mut self, spec: NodeSpec) -> NodeId {
        let id = NodeId(self.nodes.len());
        self.nodes.push(spec);
        id
    }

    /// Add a single directed link from `from` to `to`.
    pub fn connect_directed(&mut self, from: NodeId, to: NodeId, spec: LinkSpec) -> LinkId {
        let id = LinkId(self.edges.len());
        self.edges.push(Edge { id, from, to, spec });
        self.adjacency.entry(from).or_default().push(id);
        id
    }

    /// Add a symmetric pair of directed links between `a` and `b`.
    pub fn connect(&mut self, a: NodeId, b: NodeId, spec: LinkSpec) -> (LinkId, LinkId) {
        let ab = self.connect_directed(a, b, spec.clone());
        let ba = self.connect_directed(b, a, spec);
        (ab, ba)
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of directed edges.
    pub fn edge_count(&self) -> usize {
        self.edges.len()
    }

    /// Node specification, if the identifier is valid.
    pub fn node(&self, id: NodeId) -> Option<&NodeSpec> {
        self.nodes.get(id.0)
    }

    /// All nodes with their identifiers.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &NodeSpec)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Edge description, if the identifier is valid.
    pub fn edge(&self, id: LinkId) -> Option<&Edge> {
        self.edges.get(id.0)
    }

    /// All directed edges.
    pub fn edges(&self) -> impl Iterator<Item = &Edge> {
        self.edges.iter()
    }

    /// Outgoing links of a node.
    pub fn outgoing(&self, node: NodeId) -> &[LinkId] {
        self.adjacency.get(&node).map(Vec::as_slice).unwrap_or(&[])
    }

    /// The directed edge from `from` to `to`, if one exists.
    pub fn edge_between(&self, from: NodeId, to: NodeId) -> Option<&Edge> {
        self.outgoing(from)
            .iter()
            .filter_map(|id| self.edge(*id))
            .find(|e| e.to == to)
    }

    /// Find a node by name.
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Validate all node and link specifications.
    pub fn validate(&self) -> Result<(), String> {
        for (i, n) in self.nodes.iter().enumerate() {
            n.validate().map_err(|e| format!("node {i}: {e}"))?;
        }
        for e in &self.edges {
            if e.from.0 >= self.nodes.len() || e.to.0 >= self.nodes.len() {
                return Err(format!("edge {} references missing node", e.id));
            }
            if e.from == e.to {
                return Err(format!("edge {} is a self loop", e.id));
            }
            e.spec
                .validate()
                .map_err(|err| format!("edge {}: {err}", e.id))?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> (Topology, NodeId, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("a", 1.0));
        let b = t.add_node(NodeSpec::workstation("b", 2.0));
        let c = t.add_node(NodeSpec::cluster("c", 8.0, 4));
        t.connect(a, b, LinkSpec::from_mbps(100.0, 0.01));
        t.connect_directed(b, c, LinkSpec::from_mbps(1000.0, 0.002));
        t.connect_directed(c, b, LinkSpec::from_mbps(100.0, 0.002));
        (t, a, b, c)
    }

    #[test]
    fn build_and_query() {
        let (t, a, b, c) = sample();
        assert_eq!(t.node_count(), 3);
        assert_eq!(t.edge_count(), 4);
        assert_eq!(t.node(b).unwrap().compute_power, 2.0);
        assert_eq!(t.outgoing(a).len(), 1);
        assert_eq!(t.outgoing(b).len(), 2);
        assert!(t.edge_between(a, b).is_some());
        assert!(t.edge_between(a, c).is_none());
        assert_eq!(t.node_by_name("c"), Some(c));
        assert_eq!(t.node_by_name("zzz"), None);
        assert!(t.validate().is_ok());
    }

    #[test]
    fn asymmetric_links_have_distinct_specs() {
        let (t, _, b, c) = sample();
        let fwd = t.edge_between(b, c).unwrap();
        let back = t.edge_between(c, b).unwrap();
        assert!(fwd.spec.bandwidth_bps > back.spec.bandwidth_bps);
    }

    #[test]
    fn validation_catches_bad_edges() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("a", 1.0));
        let b = t.add_node(NodeSpec::workstation("b", 1.0));
        t.connect_directed(a, b, LinkSpec::new(0.0, 0.01));
        assert!(t.validate().is_err());

        let mut t2 = Topology::new();
        let a2 = t2.add_node(NodeSpec::workstation("a", 1.0));
        t2.connect_directed(a2, a2, LinkSpec::new(1e6, 0.01));
        assert!(t2.validate().is_err());
    }

    #[test]
    fn outgoing_of_unknown_node_is_empty() {
        let (t, ..) = sample();
        assert!(t.outgoing(NodeId(99)).is_empty());
        assert!(t.node(NodeId(99)).is_none());
        assert!(t.edge(LinkId(99)).is_none());
    }
}
