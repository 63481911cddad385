//! Network nodes.
//!
//! A node models one of the paper's hosts: a PC-class Linux workstation or a
//! cluster running MPI-parallel visualization modules.  Following the paper's
//! analytical model (Section 4.2) each node carries a single *normalized
//! computing power* `p_i`; the execution time of a module with complexity `c`
//! on data of size `m` is `c·m / p_i`.

use serde::{Deserialize, Serialize};
use std::fmt;

/// Identifier of a node inside a [`crate::topology::Topology`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct NodeId(pub usize);

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Hardware capabilities relevant to visualization-module placement.
///
/// The paper notes that "some nodes are only capable of executing certain
/// visualization modules" (e.g. rendering requires a graphics card) and that
/// such constraints are handled by feasibility checks in the DP recursion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodeCapabilities {
    /// Whether the node has a GPU / graphics card usable for rendering.
    pub has_graphics: bool,
    /// Whether the node is a cluster with MPI-parallel visualization modules.
    pub is_cluster: bool,
    /// Number of parallel worker processes available (1 for a plain PC).
    pub parallel_workers: u32,
}

impl Default for NodeCapabilities {
    fn default() -> Self {
        NodeCapabilities {
            has_graphics: true,
            is_cluster: false,
            parallel_workers: 1,
        }
    }
}

/// Static description of a node used when building a topology.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Human-readable name (e.g. `"ORNL"`, `"GaTech"`).
    pub name: String,
    /// Normalized computing power `p_i` (larger is faster).
    pub compute_power: f64,
    /// Hardware capabilities.
    pub capabilities: NodeCapabilities,
}

impl NodeSpec {
    /// A PC-class workstation with the given normalized compute power.
    pub fn workstation(name: impl Into<String>, compute_power: f64) -> Self {
        NodeSpec {
            name: name.into(),
            compute_power,
            capabilities: NodeCapabilities::default(),
        }
    }

    /// A cluster node with MPI-parallel visualization modules.
    pub fn cluster(name: impl Into<String>, compute_power: f64, workers: u32) -> Self {
        NodeSpec {
            name: name.into(),
            compute_power,
            capabilities: NodeCapabilities {
                has_graphics: true,
                is_cluster: true,
                parallel_workers: workers.max(1),
            },
        }
    }

    /// A workstation without a graphics card (cannot run rendering modules).
    pub fn headless(name: impl Into<String>, compute_power: f64) -> Self {
        NodeSpec {
            name: name.into(),
            compute_power,
            capabilities: NodeCapabilities {
                has_graphics: false,
                is_cluster: false,
                parallel_workers: 1,
            },
        }
    }

    /// Validate the specification, returning a description of the first
    /// problem found.
    pub fn validate(&self) -> Result<(), String> {
        if self.name.is_empty() {
            return Err("node name must not be empty".into());
        }
        if !(self.compute_power.is_finite() && self.compute_power > 0.0) {
            return Err(format!(
                "node '{}' has non-positive compute power {}",
                self.name, self.compute_power
            ));
        }
        if self.capabilities.parallel_workers == 0 {
            return Err(format!("node '{}' has zero parallel workers", self.name));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workstation_defaults() {
        let n = NodeSpec::workstation("ORNL", 1.5);
        assert_eq!(n.name, "ORNL");
        assert!(n.capabilities.has_graphics);
        assert!(!n.capabilities.is_cluster);
        assert_eq!(n.capabilities.parallel_workers, 1);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn cluster_clamps_workers() {
        let n = NodeSpec::cluster("UT", 8.0, 0);
        assert_eq!(n.capabilities.parallel_workers, 1);
        assert!(n.capabilities.is_cluster);
    }

    #[test]
    fn headless_has_no_graphics() {
        let n = NodeSpec::headless("GaTech", 1.0);
        assert!(!n.capabilities.has_graphics);
        assert!(n.validate().is_ok());
    }

    #[test]
    fn validation_rejects_bad_specs() {
        assert!(NodeSpec::workstation("", 1.0).validate().is_err());
        assert!(NodeSpec::workstation("x", 0.0).validate().is_err());
        assert!(NodeSpec::workstation("x", f64::NAN).validate().is_err());
        let mut n = NodeSpec::workstation("x", 1.0);
        n.capabilities.parallel_workers = 0;
        assert!(n.validate().is_err());
    }

    #[test]
    fn node_id_display() {
        assert_eq!(format!("{}", NodeId(3)), "n3");
    }
}
