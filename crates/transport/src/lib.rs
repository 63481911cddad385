//! Application-level transport protocols for RICSA control and data channels.
//!
//! Section 3 of the paper integrates a window-based UDP transport whose send
//! rate is adapted with a Robbins–Monro stochastic-approximation update
//! (Eq. 1) so that the *goodput* observed by the receiver converges to a
//! target level `g*`.  Stable, low-jitter goodput is what makes interactive
//! steering over a wide-area control channel usable.
//!
//! This crate provides:
//!
//! * [`rm::RmController`] — the Robbins–Monro sleep-time controller (Eq. 1),
//! * [`aimd::AimdController`] and [`fixed::FixedController`] — baselines,
//! * [`sender::WindowSender`] / [`receiver::FlowReceiver`] — the window-based
//!   sender/receiver pair from Fig. 2 (congestion window, sleep time,
//!   ACK/NACK retransmission, datagram reordering), runnable on any
//!   `ricsa-netsim` topology,
//! * [`epb`] — active measurement and linear-regression estimation of the
//!   effective path bandwidth (Section 4.3, Eq. 3),
//! * [`harness`] — one-call helpers that wire a flow across a topology and
//!   report goodput series, convergence and message latencies,
//! * [`stats`] — time-series summaries (mean, jitter, convergence time),
//! * [`telemetry`] — passive per-flow telemetry ([`telemetry::FlowTelemetry`]:
//!   EWMA goodput, RTT, loss-event rate) feeding the adaptive re-mapping
//!   monitor without any probe traffic (DESIGN.md §8).

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod aimd;
pub mod epb;
pub mod fixed;
pub mod flow;
pub mod harness;
pub mod receiver;
pub mod rm;
pub mod sender;
pub mod stats;
pub mod telemetry;

pub use aimd::{AimdController, AimdParams};
pub use epb::{EpbEstimate, EpbEstimator};
pub use fixed::FixedController;
pub use flow::{FlowConfig, FlowStats, RateController, SharedFlowStats};
pub use harness::{run_flow, FlowExperiment, FlowOutcome};
pub use receiver::FlowReceiver;
pub use rm::{RmController, RmParams};
pub use sender::WindowSender;
pub use stats::TimeSeries;
pub use telemetry::{FlowTelemetry, TelemetryCollector};
