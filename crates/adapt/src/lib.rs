//! Adaptive pipeline re-mapping: the monitor half of the control plane.
//!
//! The paper maps the visualization pipeline onto the WAN using *measured*
//! bandwidths and latencies (the inputs to Eqs. 9–10) — once.  If cross
//! traffic ramps up or a link degrades mid-session, the "optimal" loop
//! silently goes stale.  This crate closes that loop:
//!
//! * [`detector::ChangePointDetector`] — per-link drift detection over the
//!   passive [`ricsa_transport::telemetry::FlowTelemetry`] stream, with a
//!   configurable relative-drift threshold and hysteresis so measurement
//!   jitter never triggers re-mapping thrash;
//! * [`monitor::AdaptMonitor`] — ingests telemetry for the links the loop
//!   currently exercises, maintains a live network estimate (the
//!   calibration graph with bandwidths rescaled by observed goodput
//!   ratios and delays rescaled by passive-RTT ratios — queueing
//!   inflation detects degradations goodput cannot see), and, once a
//!   change point is confirmed on either signal, decides via a
//!   warm-started re-solve ([`ricsa_pipemap::dp::optimize_warm`])
//!   whether the predicted win clears the re-map margin.
//!
//! The monitor is deliberately simulator-agnostic: it sees only telemetry
//! snapshots and virtual timestamps, so it can be unit-tested without a
//! network and reused against real measurements.  Executing the resulting
//! migration (quiesce at a frame boundary, hand off state, resume without
//! losing or duplicating a frame) is `ricsa-core::adapt`'s job; DESIGN.md
//! §8 documents the whole control plane.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod detector;
pub mod monitor;

pub use detector::{ChangePoint, ChangePointDetector, DetectorConfig};
pub use monitor::{
    AdaptConfig, AdaptMonitor, Decision, DecisionRecord, LinkEstimate, SIGNAL_GOODPUT, SIGNAL_RTT,
};
