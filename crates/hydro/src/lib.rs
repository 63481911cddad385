//! A VH1-like finite-volume hydrodynamics simulator with steering hooks.
//!
//! The paper instruments the Virginia Hydrodynamics (VH1) Fortran code with
//! six `RICSA_*` API calls and drives it through the main loop
//! `sweepx; sweepy; sweepz;` (its Fig. 7), and its GUI screenshot shows a Sod
//! shock-tube run and a stellar-wind bow-shock pressure animation.  This
//! crate provides the equivalent simulation substrate in Rust:
//!
//! * [`state`] — conservative-variable state on a regular grid with
//!   primitive-variable conversion,
//! * [`eos`] — the ideal-gas (gamma-law) equation of state,
//! * [`riemann`] — an HLL approximate Riemann solver,
//! * [`sweep`] — dimensionally split 1D sweeps (`sweepx`/`sweepy`/`sweepz`),
//! * [`solver`] — CFL-limited time stepping over whole cycles,
//! * [`problems`] — Sod shock tube and stellar-wind bow shock setups,
//! * [`sod_exact`] — the exact Sod solution used to validate the solver,
//! * [`steering`] — the runtime-adjustable parameters a RICSA client steers.
//!
//! The solver's output is converted into `ricsa-vizdata` containers so it
//! plugs directly into the visualization pipeline.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod eos;
pub mod problems;
pub mod riemann;
pub mod sod_exact;
pub mod solver;
pub mod state;
pub mod steering;
pub mod sweep;

pub use eos::IdealGas;
pub use problems::{bow_shock, sod_shock_tube, Problem};
pub use solver::{HydroSolver, SolverConfig};
pub use state::HydroState;
pub use steering::SteerableParams;
