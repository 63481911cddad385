//! Discrete-event wide-area network simulator.
//!
//! This crate is the substrate that stands in for the six-host Internet
//! deployment used in the RICSA paper (Fig. 8).  It provides:
//!
//! * a deterministic discrete-event engine with a virtual clock ([`sim::Simulator`]),
//! * network nodes with a normalized compute power (the paper's `p_i`),
//! * duplex links with bandwidth, propagation delay, bounded queues, random
//!   loss and cross traffic (the paper's `b_{i,j}` and `d_{i,j}`),
//! * an application trait ([`app::Application`]) so that transport protocols
//!   and framework roles can be written as event-driven state machines, and
//! * topology presets mirroring the paper's experimental deployment
//!   ([`presets`]).
//!
//! The simulator is single-threaded and fully deterministic for a given seed,
//! which keeps every experiment in the benchmark harness reproducible.
//!
//! # Example
//!
//! ```
//! use ricsa_netsim::prelude::*;
//!
//! // Two hosts connected by a 100 Mbit/s, 10 ms link.
//! let mut topo = Topology::new();
//! let a = topo.add_node(NodeSpec::workstation("a", 1.0));
//! let b = topo.add_node(NodeSpec::workstation("b", 1.0));
//! topo.connect(a, b, LinkSpec::new(100e6 / 8.0, 0.010));
//!
//! let mut sim = Simulator::new(topo, 7);
//! // Send one datagram from a to b and count deliveries at b.
//! struct Sender;
//! impl Application for Sender {
//!     fn on_start(&mut self, ctx: &mut Context) {
//!         ctx.send(NodeId(1), Payload::opaque(1200));
//!     }
//! }
//! #[derive(Default)]
//! struct Counter(u32);
//! impl Application for Counter {
//!     fn on_datagram(&mut self, _ctx: &mut Context, _dg: Datagram) {
//!         self.0 += 1;
//!     }
//! }
//! sim.install(a, Box::new(Sender));
//! sim.install(b, Box::new(Counter::default()));
//! sim.run_until(SimTime::from_secs(1.0));
//! ```

#![deny(missing_docs)]
#![forbid(unsafe_code)]

pub mod app;
pub mod crosstraffic;
pub mod dynamics;
pub mod event;
pub mod generators;
pub mod link;
pub mod loss;
pub mod node;
pub mod packet;
pub mod presets;
pub mod rng;
pub mod routing;
pub mod sim;
pub mod time;
pub mod topology;
pub mod trace;

/// Convenience re-exports of the most commonly used simulator types.
pub mod prelude {
    pub use crate::app::{Application, Context};
    pub use crate::crosstraffic::CrossTraffic;
    pub use crate::dynamics::{DynamicScenario, LinkChange, LinkEvent, ScheduleParams};
    pub use crate::generators::{GeneratedWan, WanKind};
    pub use crate::link::{LinkId, LinkSpec};
    pub use crate::loss::LossModel;
    pub use crate::node::{NodeId, NodeSpec};
    pub use crate::packet::{Datagram, Payload};
    pub use crate::presets::{fig8_topology, Fig8Site};
    pub use crate::sim::Simulator;
    pub use crate::time::SimTime;
    pub use crate::topology::Topology;
    pub use crate::trace::TraceEvent;
}

pub use app::{Application, Context};
pub use link::{LinkId, LinkSpec};
pub use node::{NodeId, NodeSpec};
pub use packet::{Datagram, Payload};
pub use sim::Simulator;
pub use time::SimTime;
pub use topology::Topology;

#[cfg(test)]
mod tests {
    use crate::rng::SimRng;

    #[test]
    fn deterministic_per_seed() {
        let mut a = SimRng::new(9);
        let mut b = SimRng::new(9);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut c = SimRng::new(10);
        assert_ne!(a.next_u64(), c.next_u64());
    }

    #[test]
    fn f64_in_unit_interval() {
        let mut r = SimRng::new(3);
        for _ in 0..10_000 {
            assert!((0.0..1.0).contains(&r.uniform()));
        }
    }

    #[test]
    fn gen_range_respects_bounds() {
        let mut r = SimRng::new(4);
        let mut seen = [false; 5];
        for _ in 0..200 {
            seen[r.index(5)] = true;
        }
        assert!(seen.iter().all(|&s| s), "all values of 0..5 should appear");
        for n in [1, 2, 3, 1000, usize::MAX] {
            assert!(r.index(n) < n);
        }
    }

    #[test]
    fn mean_of_uniform_is_half() {
        let mut r = SimRng::new(5);
        let n = 50_000;
        let mean: f64 = (0..n).map(|_| r.uniform()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.01, "mean {mean}");
    }
}
