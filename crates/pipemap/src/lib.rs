//! Visualization-pipeline partitioning and network mapping.
//!
//! This crate implements the analytical core of the RICSA paper
//! (Section 4): given
//!
//! * a linear visualization pipeline `M_1, …, M_{n+1}` where module `M_j`
//!   has computational complexity `c_j` and produces a message of size
//!   `m_j` ([`pipeline`]), and
//! * a transport network `G = (V, E)` whose nodes have normalized compute
//!   powers `p_i` and whose links have bandwidths `b_{i,j}` and minimum
//!   delays `d_{i,j}` ([`network`]),
//!
//! find the decomposition of the pipeline into groups and the mapping of
//! those groups onto a path from the data source to the client that
//! minimizes the end-to-end delay of Eq. 2 ([`delay`]).  The optimizer is
//! the dynamic program of Eqs. 9–10 ([`dp`]), validated against an
//! exhaustive search ([`exhaustive`]) and compared against fixed mappings
//! (client/server and a ParaView-style data-server / render-server / client
//! deployment) and a greedy heuristic ([`baselines`]).  The chosen mapping
//! is turned into the visualization routing table circulated around the
//! RICSA loop ([`vrt`]).

#![deny(missing_docs)]

pub mod baselines;
pub mod delay;
pub mod dp;
pub mod exhaustive;
pub mod joint;
pub mod network;
pub mod pipeline;
pub mod sweep;
#[cfg(test)]
pub(crate) mod testutil;
pub mod vrt;

pub use baselines::{client_server_mapping, greedy_mapping, paraview_crs_mapping};
pub use delay::{evaluate_mapping, DelayBreakdown};
pub use dp::{optimize, optimize_warm, optimize_with, DpOptions, DpStats, OptimizedMapping};
pub use exhaustive::exhaustive_optimal;
pub use joint::{solution_digest, solve_joint, JointOptions, JointSession, JointSolution};
pub use network::{NetGraph, NetLink, NetNode};
pub use pipeline::{ModuleSpec, Pipeline};
pub use sweep::{solve_scenario, Scenario, ScenarioSolution, SweepRecord};
pub use vrt::{RoutingEntry, VisualizationRoutingTable};

/// 64-bit FNV-1a of `text` as 16 lowercase hex digits — the one digest
/// every determinism witness in the workspace is printed with.
pub fn fnv1a_hex(text: &str) -> String {
    let hash = text.bytes().fold(0xCBF2_9CE4_8422_2325u64, |hash, byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3)
    });
    format!("{hash:016x}")
}
