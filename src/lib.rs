//! RICSA — a Rust reproduction of *Computational Monitoring and Steering
//! Using Network-Optimized Visualization and Ajax Web Server* (Zhu, Wu &
//! Rao, IPDPS 2008).
//!
//! This umbrella crate re-exports the workspace crates so applications can
//! depend on a single `ricsa` crate:
//!
//! * [`netsim`] — the discrete-event wide-area network simulator,
//! * [`transport`] — the Robbins–Monro-stabilized transport and EPB
//!   estimation,
//! * [`vizdata`] — volume datasets, octrees and synthetic generators,
//! * [`viz`] — visualization algorithms and cost models,
//! * [`hydro`] — the VH1-like hydrodynamics simulator,
//! * [`pipemap`] — the pipeline-partitioning / network-mapping optimizer,
//! * [`adapt`] — live monitoring, change-point detection and adaptive
//!   re-mapping decisions,
//! * [`core`] — the RICSA framework, sessions and experiment drivers,
//! * [`webfront`] — the Ajax web front end.
//!
//! See `examples/quickstart.rs` for a five-minute tour.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub use ricsa_adapt as adapt;
pub use ricsa_core as core;
pub use ricsa_hydro as hydro;
pub use ricsa_netsim as netsim;
pub use ricsa_pipemap as pipemap;
pub use ricsa_transport as transport;
pub use ricsa_viz as viz;
pub use ricsa_vizdata as vizdata;
pub use ricsa_webfront as webfront;

/// The version of the reproduction.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn re_exports_are_wired() {
        // Touch one symbol from every re-exported crate so a broken
        // re-export fails this crate's build/test.
        let _ = crate::netsim::presets::fig8_topology();
        let _ = crate::pipemap::pipeline::Pipeline::isosurface(1e6, 1e-9, 1e-8, 0.3, 1e-9, 1e6);
        let _ = crate::vizdata::dataset::DatasetCatalog::paper_datasets();
        let _ = crate::viz::cost::PipelineCostDb::representative();
        let _ = crate::hydro::steering::SteerableParams::default();
        let _ = crate::core::catalog::SimulationCatalog::default();
        let _ = crate::transport::rm::RmParams::for_target(1e6);
        let _ = crate::adapt::DetectorConfig::default();
        let _ = crate::webfront::hub::SessionHub::default();
        assert!(!crate::VERSION.is_empty());
    }
}
