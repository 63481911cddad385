//! The visualization routing table (VRT).
//!
//! After the central-management node computes the optimal pipeline
//! configuration, it produces a routing table that "is delivered
//! sequentially over the loop to establish the network routing path"
//! (Section 2).  Each participating node learns which modules it must run,
//! where the incoming data arrives from, and where to forward its output.

use crate::delay::Mapping;
use crate::network::NetGraph;
use crate::pipeline::Pipeline;
use serde::{Deserialize, Serialize};

/// One node's entry in the routing table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RoutingEntry {
    /// The node this entry applies to (index into the optimizer's graph,
    /// which equals the simulator `NodeId` when built from a topology).
    pub node: usize,
    /// Display name of the node.
    pub node_name: String,
    /// Names of the modules this node runs, in pipeline order.
    pub modules: Vec<String>,
    /// The node the output (or relayed data) must be forwarded to, if any.
    pub next_hop: Option<usize>,
    /// Size in bytes of the message this node forwards downstream.
    pub forward_bytes: f64,
    /// The node this entry expects its input from, if any.
    pub previous_hop: Option<usize>,
}

/// The complete routing table for one steering/visualization session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct VisualizationRoutingTable {
    /// Pipeline name this table was computed for.
    pub pipeline: String,
    /// Predicted end-to-end delay of the configuration, seconds.
    pub predicted_delay: f64,
    /// Entries in loop order (data source first, client last).
    pub entries: Vec<RoutingEntry>,
}

impl VisualizationRoutingTable {
    /// Build the routing table for a mapping.
    pub fn from_mapping(
        pipeline: &Pipeline,
        graph: &NetGraph,
        mapping: &Mapping,
        predicted_delay: f64,
    ) -> Self {
        let mut entries = Vec::with_capacity(mapping.path.len());
        let mut current_bytes = pipeline.source_bytes;
        for (i, &node) in mapping.path.iter().enumerate() {
            let modules: Vec<String> = mapping.groups[i]
                .iter()
                .map(|&m| pipeline.modules[m].name.clone())
                .collect();
            if let Some(&last) = mapping.groups[i].last() {
                current_bytes = pipeline.modules[last].output_bytes;
            }
            entries.push(RoutingEntry {
                node,
                node_name: graph.node(node).name.clone(),
                modules,
                next_hop: mapping.path.get(i + 1).copied(),
                forward_bytes: if i + 1 < mapping.path.len() {
                    current_bytes
                } else {
                    0.0
                },
                previous_hop: if i > 0 {
                    Some(mapping.path[i - 1])
                } else {
                    None
                },
            });
        }
        VisualizationRoutingTable {
            pipeline: pipeline.name.clone(),
            predicted_delay,
            entries,
        }
    }

    /// A compact human-readable description, e.g.
    /// `"GaTech[filter] -> UT[isosurface,render] -> ORNL[]"`.
    pub fn describe(&self) -> String {
        self.entries
            .iter()
            .map(|e| format!("{}[{}]", e.node_name, e.modules.join(",")))
            .collect::<Vec<_>>()
            .join(" -> ")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dp::optimize;
    use crate::pipeline::ModuleSpec;

    fn setup() -> (Pipeline, NetGraph) {
        let pipeline = Pipeline::new(
            "iso",
            1_000_000.0,
            vec![
                ModuleSpec::new("filter", 1e-8, 800_000.0),
                ModuleSpec::new("isosurface", 1e-7, 200_000.0),
                ModuleSpec::new("render", 5e-8, 50_000.0).requiring_graphics(),
            ],
        );
        let mut g = NetGraph::new();
        let src = g.add_node("GaTech", 1.0, false);
        let mid = g.add_node("UT", 8.0, true);
        let dst = g.add_node("ORNL", 1.0, true);
        g.add_bidirectional(src, mid, 1e6, 0.01);
        g.add_bidirectional(mid, dst, 2e6, 0.01);
        g.add_bidirectional(src, dst, 0.25e6, 0.03);
        (pipeline, g)
    }

    #[test]
    fn routing_table_reflects_the_mapping() {
        let (p, g) = setup();
        let opt = optimize(&p, &g, 0, 2).unwrap();
        let vrt = VisualizationRoutingTable::from_mapping(&p, &g, &opt.mapping, opt.delay.total);
        assert_eq!(vrt.pipeline, "iso");
        assert_eq!(vrt.entries.first().map(|e| e.node), Some(0));
        assert_eq!(vrt.entries.last().map(|e| e.node), Some(2));
        assert_eq!(vrt.entries.len(), opt.mapping.path.len());
        // The hops chain together.
        for pair in vrt.entries.windows(2) {
            assert_eq!(pair[0].next_hop, Some(pair[1].node));
            assert_eq!(pair[1].previous_hop, Some(pair[0].node));
        }
        // All module names appear exactly once across the table.
        let all: Vec<String> = vrt.entries.iter().flat_map(|e| e.modules.clone()).collect();
        assert_eq!(all, vec!["filter", "isosurface", "render"]);
        // The last entry forwards nothing.
        assert_eq!(vrt.entries.last().unwrap().forward_bytes, 0.0);
        // Intermediate forward sizes are positive.
        assert!(vrt.entries[0].forward_bytes > 0.0);
    }

    #[test]
    fn description_lists_hops_with_their_modules() {
        let (p, g) = setup();
        let opt = optimize(&p, &g, 0, 2).unwrap();
        let vrt = VisualizationRoutingTable::from_mapping(&p, &g, &opt.mapping, opt.delay.total);
        let desc = vrt.describe();
        assert!(desc.contains("ORNL"));
        assert!(desc.contains("->"));
        assert!(desc.contains("render"));
    }

    #[test]
    fn forwarded_bytes_track_the_current_message() {
        let (p, g) = setup();
        // Source serves raw data, middle runs everything, client displays.
        let mapping = Mapping {
            path: vec![0, 1, 2],
            groups: vec![vec![], vec![0, 1, 2], vec![]],
        };
        let vrt = VisualizationRoutingTable::from_mapping(&p, &g, &mapping, 1.0);
        assert_eq!(vrt.entries[0].forward_bytes, 1_000_000.0);
        assert_eq!(vrt.entries[1].forward_bytes, 50_000.0);
        assert_eq!(vrt.entries[1].modules.len(), 3);
        assert!(vrt.entries[2].modules.is_empty());
    }
}
