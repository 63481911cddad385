//! The end-to-end delay model (paper Eq. 2) and mapping evaluation.
//!
//! A *mapping* assigns the pipeline's processing modules, decomposed into
//! contiguous non-empty groups, to the nodes of a walk through the network
//! that starts at the data-source node and ends at the client node.  Its
//! end-to-end delay is the sum of the group computing times
//! `Σ_j c_j·m_{j-1} / p_{P[i]}` and the transfer times of the inter-group
//! messages `m(g_i) / b_{P[i],P[i+1]}` (plus each link's minimum delay,
//! which the paper neglects as small but which costs nothing to include).

use crate::network::NetGraph;
use crate::pipeline::Pipeline;
use serde::{Deserialize, Serialize};

/// A candidate placement: `path[i]` hosts the modules listed in
/// `groups[i]` (0-based module indices, contiguous and in order).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Mapping {
    /// The walk through the network, starting at the data source node and
    /// ending at the client node.
    pub path: Vec<usize>,
    /// For each path node, the contiguous set of module indices it runs.
    pub groups: Vec<Vec<usize>>,
}

/// The delay of a mapping, broken down into its components.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct DelayBreakdown {
    /// Total end-to-end delay, seconds.
    pub total: f64,
    /// Time spent computing across all groups, seconds.
    pub computing: f64,
    /// Time spent transferring messages between groups, seconds.
    pub transport: f64,
}

/// Errors detected while validating a mapping.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum MappingError {
    /// The path and group lists have different lengths or are empty.
    ShapeMismatch,
    /// The modules are not a contiguous 0..n cover in order.
    ModulesNotContiguous,
    /// Two consecutive path nodes are not connected by a link.
    MissingLink {
        /// Path position of the gap.
        hop: usize,
    },
    /// A module that needs graphics was placed on a node without it.
    GraphicsInfeasible {
        /// The offending module index.
        module: usize,
        /// The node it was placed on.
        node: usize,
    },
}

impl std::fmt::Display for MappingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MappingError::ShapeMismatch => write!(f, "path and groups have mismatched shapes"),
            MappingError::ModulesNotContiguous => {
                write!(f, "groups do not cover the modules contiguously in order")
            }
            MappingError::MissingLink { hop } => {
                write!(f, "no link between path hop {hop} and {}", hop + 1)
            }
            MappingError::GraphicsInfeasible { module, node } => {
                write!(f, "module {module} needs graphics but node {node} has none")
            }
        }
    }
}

impl std::error::Error for MappingError {}

/// Validate a mapping against a pipeline and network.
pub fn validate_mapping(
    pipeline: &Pipeline,
    graph: &NetGraph,
    mapping: &Mapping,
) -> Result<(), MappingError> {
    if mapping.path.is_empty() || mapping.path.len() != mapping.groups.len() {
        return Err(MappingError::ShapeMismatch);
    }
    // Modules must appear contiguously, in order, exactly once.
    let flat: Vec<usize> = mapping.groups.iter().flatten().copied().collect();
    let expected: Vec<usize> = (0..pipeline.message_count()).collect();
    if flat != expected {
        return Err(MappingError::ModulesNotContiguous);
    }
    for (g, group) in mapping.groups.iter().enumerate() {
        // Empty groups are allowed: an empty first group means the source
        // only serves raw data, an empty middle group is a relay hop, and an
        // empty final group means the finished image is delivered to the
        // client without further processing.
        for &module in group {
            if pipeline.modules[module].needs_graphics && !graph.node(mapping.path[g]).has_graphics
            {
                return Err(MappingError::GraphicsInfeasible {
                    module,
                    node: mapping.path[g],
                });
            }
        }
    }
    for hop in 0..mapping.path.len() - 1 {
        if graph
            .link_between(mapping.path[hop], mapping.path[hop + 1])
            .is_none()
        {
            return Err(MappingError::MissingLink { hop });
        }
    }
    Ok(())
}

/// Evaluate the end-to-end delay (Eq. 2) of a mapping.
///
/// # Panics
/// Panics if the mapping is structurally invalid; call
/// [`validate_mapping`] first when handling untrusted input.
pub fn evaluate_mapping(
    pipeline: &Pipeline,
    graph: &NetGraph,
    mapping: &Mapping,
) -> DelayBreakdown {
    evaluate_with(pipeline, graph, mapping, |link, bytes| {
        graph.link(link).transfer_time(bytes)
    })
}

/// [`evaluate_mapping`] with the cost of moving `bytes` across link index
/// `link` supplied by the caller — how the joint solver charges contended
/// prices without building a priced graph.  Same terms, same order of
/// summation.
pub(crate) fn evaluate_with(
    pipeline: &Pipeline,
    graph: &NetGraph,
    mapping: &Mapping,
    transfer_time: impl Fn(usize, f64) -> f64,
) -> DelayBreakdown {
    validate_mapping(pipeline, graph, mapping).expect("invalid mapping");
    let mut computing = 0.0;
    let mut transport = 0.0;
    // The size of the message currently flowing down the pipeline: the raw
    // dataset until the first module runs, then each module's output.
    let mut current_bytes = pipeline.source_bytes;
    for (g, group) in mapping.groups.iter().enumerate() {
        let node = mapping.path[g];
        let power = graph.node(node).power;
        for &module in group {
            computing += pipeline.processing_time(module, power);
            current_bytes = pipeline.modules[module].output_bytes;
        }
        // Transfer of the current message to the next path node.
        if g + 1 < mapping.path.len() {
            let link = graph
                .link_index(mapping.path[g], mapping.path[g + 1])
                .expect("validated above");
            transport += transfer_time(link, current_bytes);
        }
    }
    DelayBreakdown {
        total: computing + transport,
        computing,
        transport,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::NetGraph;
    use crate::pipeline::ModuleSpec;

    fn setup() -> (Pipeline, NetGraph) {
        let pipeline = Pipeline::new(
            "test",
            1_000_000.0,
            vec![
                ModuleSpec::new("filter", 1e-8, 1_000_000.0),
                ModuleSpec::new("extract", 1e-7, 200_000.0),
                ModuleSpec::new("render", 5e-8, 50_000.0).requiring_graphics(),
            ],
        );
        let mut g = NetGraph::new();
        let src = g.add_node("src", 1.0, false);
        let mid = g.add_node("mid", 8.0, true);
        let dst = g.add_node("dst", 1.0, true);
        g.add_bidirectional(src, mid, 1e6, 0.01);
        g.add_bidirectional(mid, dst, 2e6, 0.01);
        g.add_bidirectional(src, dst, 0.25e6, 0.03);
        (pipeline, g)
    }

    #[test]
    fn client_server_delay_matches_hand_computation() {
        let (p, g) = setup();
        // All modules at the destination; raw data crosses the slow link.
        let mapping = Mapping {
            path: vec![0, 2],
            groups: vec![vec![], vec![0, 1, 2]],
        };
        let d = evaluate_mapping(&p, &g, &mapping);
        // Transport: 1 MB over 0.25 MB/s + 30 ms = 4.03 s.
        assert!((d.transport - 4.03).abs() < 1e-9);
        // Computing at power 1: 1e-8*1e6 + 1e-7*1e6 + 5e-8*2e5 = 0.01+0.1+0.01.
        assert!((d.computing - 0.12).abs() < 1e-9);
        assert!((d.total - (d.computing + d.transport)).abs() < 1e-12);
    }

    #[test]
    fn offloading_to_the_fast_middle_node_beats_client_server() {
        let (p, g) = setup();
        let client_server = Mapping {
            path: vec![0, 2],
            groups: vec![vec![], vec![0, 1, 2]],
        };
        let offloaded = Mapping {
            path: vec![0, 1, 2],
            groups: vec![vec![0], vec![1], vec![2]],
        };
        let a = evaluate_mapping(&p, &g, &client_server);
        let b = evaluate_mapping(&p, &g, &offloaded);
        assert!(b.total < a.total, "offloaded {b:?} vs client-server {a:?}");
    }

    #[test]
    fn validation_catches_structural_errors() {
        let (p, g) = setup();
        let bad_shape = Mapping {
            path: vec![0, 2],
            groups: vec![vec![0, 1, 2]],
        };
        assert_eq!(
            validate_mapping(&p, &g, &bad_shape),
            Err(MappingError::ShapeMismatch)
        );
        let out_of_order = Mapping {
            path: vec![0, 2],
            groups: vec![vec![1], vec![0, 2]],
        };
        assert_eq!(
            validate_mapping(&p, &g, &out_of_order),
            Err(MappingError::ModulesNotContiguous)
        );
        let graphics_on_headless = Mapping {
            path: vec![0, 2],
            groups: vec![vec![0, 1, 2], vec![]],
        };
        assert_eq!(
            validate_mapping(&p, &g, &graphics_on_headless),
            Err(MappingError::GraphicsInfeasible { module: 2, node: 0 })
        );
        // A disconnected hop.
        let mut island = NetGraph::new();
        island.add_node("a", 1.0, true);
        island.add_node("b", 1.0, true);
        let disconnected = Mapping {
            path: vec![0, 1],
            groups: vec![vec![0, 1], vec![2]],
        };
        assert_eq!(
            validate_mapping(&p, &island, &disconnected),
            Err(MappingError::MissingLink { hop: 0 })
        );
    }

    #[test]
    fn error_display_strings_are_informative() {
        let e = MappingError::GraphicsInfeasible { module: 2, node: 0 };
        assert!(e.to_string().contains("graphics"));
        assert!(MappingError::MissingLink { hop: 1 }
            .to_string()
            .contains("1"));
        assert!(MappingError::ShapeMismatch.to_string().contains("mismatch"));
        assert!(MappingError::ModulesNotContiguous
            .to_string()
            .contains("contiguous"));
    }

    #[test]
    fn relay_hops_and_trailing_delivery_are_evaluated() {
        let (p, g) = setup();
        // Render at the middle node and deliver the finished image to the
        // client over the 2 MB/s link: 50 kB / 2 MB/s + 10 ms = 35 ms of
        // extra transport for the final hop.
        let deliver = Mapping {
            path: vec![0, 1, 2],
            groups: vec![vec![], vec![0, 1, 2], vec![]],
        };
        let d = evaluate_mapping(&p, &g, &deliver);
        let first_hop = 1_000_000.0 / 1e6 + 0.01;
        let last_hop = 50_000.0 / 2e6 + 0.01;
        assert!((d.transport - (first_hop + last_hop)).abs() < 1e-9);
        // A pure relay hop re-transfers the same message.
        let relay = Mapping {
            path: vec![0, 1, 2],
            groups: vec![vec![], vec![], vec![0, 1, 2]],
        };
        let r = evaluate_mapping(&p, &g, &relay);
        assert!((r.transport - (first_hop + 1_000_000.0 / 2e6 + 0.01)).abs() < 1e-9);
    }

    #[test]
    fn single_node_mapping_has_no_transport() {
        let (p, _) = setup();
        let mut g = NetGraph::new();
        g.add_node("all", 2.0, true);
        let mapping = Mapping {
            path: vec![0],
            groups: vec![vec![0, 1, 2]],
        };
        let d = evaluate_mapping(&p, &g, &mapping);
        assert_eq!(d.transport, 0.0);
        assert!((d.computing - 0.06).abs() < 1e-9);
    }
}
