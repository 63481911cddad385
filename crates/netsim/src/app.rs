//! The application interface: event-driven state machines on nodes.
//!
//! Transport senders/receivers (`ricsa-transport`) and RICSA framework roles
//! (`ricsa-core`) implement [`Application`].  During a callback the
//! application interacts with the simulator exclusively through [`Context`]:
//! it can read the clock, send datagrams, set timers, and emit trace records.
//! The collected side effects are applied by the engine when the callback
//! returns, which keeps the borrow structure simple and the execution order
//! deterministic.

use crate::node::NodeId;
use crate::packet::{Datagram, Payload};
use crate::time::SimTime;
use crate::trace::TraceEvent;

/// An event-driven application installed on a simulated node.
///
/// All callbacks have empty default implementations so that simple
/// applications only implement what they need.
pub trait Application {
    /// Called once when the simulation starts (or when the application is
    /// installed into an already-running simulation).
    fn on_start(&mut self, _ctx: &mut Context) {}

    /// Called when a datagram addressed to this node is delivered.
    fn on_datagram(&mut self, _ctx: &mut Context, _dg: Datagram) {}

    /// Called when a timer previously set through [`Context::set_timer`]
    /// fires, with the key it was set with.
    fn on_timer(&mut self, _ctx: &mut Context, _key: u64) {}
}

/// Side-effect request: send a datagram to `dst`.
#[derive(Debug, Clone)]
pub struct SendRequest {
    /// Destination node of the requested send.
    pub dst: NodeId,
    /// Payload of the requested send.
    pub payload: Payload,
}

/// Side-effect request: fire a timer after `delay`.
#[derive(Debug, Clone)]
pub struct TimerRequest {
    /// Delay after which the timer fires.
    pub delay: SimTime,
    /// The key the application set the timer with; it is passed back to
    /// `Application::on_timer`.
    pub timer_id: u64,
}

/// Number of uniform draws the engine makes for every event it dispatches
/// to a hosting node, whether or not the application calls
/// [`Context::random`].  This is a determinism contract, not a convenience:
/// the position of the simulation RNG after each dispatch is part of every
/// lossy run's record, so the count may never depend on what the callback
/// does — and may never change without changing every seeded result.
pub const RANDOMS_PER_CALLBACK: usize = 4;

/// The side effects an application requests during one callback.  The
/// engine lends these buffers to each [`Context`] and takes them back
/// drained, so a dispatch allocates nothing once they have grown.
#[derive(Default)]
pub(crate) struct Effects {
    pub(crate) sends: Vec<SendRequest>,
    pub(crate) timers: Vec<TimerRequest>,
    pub(crate) traces: Vec<TraceEvent>,
}

/// The simulator services exposed to an application during a callback.
pub struct Context {
    node: NodeId,
    now: SimTime,
    pub(crate) effects: Effects,
    random_draws: [f64; RANDOMS_PER_CALLBACK],
    random_cursor: usize,
}

impl Context {
    /// Construct a context directly.
    ///
    /// The simulation engine builds contexts internally; this constructor is
    /// public so that applications (transport protocols, framework roles) can
    /// be unit-tested in isolation without spinning up a full simulator.
    /// As in the engine, [`RANDOMS_PER_CALLBACK`] draws are kept: a shorter
    /// list is padded with its last value (0.5 when empty).
    pub fn new(node: NodeId, now: SimTime, randoms: Vec<f64>) -> Self {
        let draw = |i| randoms.get(i).or(randoms.last()).copied().unwrap_or(0.5);
        let random_draws = std::array::from_fn(draw);
        Context::lent(node, now, random_draws, Effects::default())
    }

    /// The engine's constructor: a full set of draws and the (empty)
    /// effect buffers the callback fills.
    pub(crate) fn lent(
        node: NodeId,
        now: SimTime,
        random_draws: [f64; RANDOMS_PER_CALLBACK],
        effects: Effects,
    ) -> Self {
        Context {
            node,
            now,
            effects,
            random_draws,
            random_cursor: 0,
        }
    }

    /// The node this application is installed on.
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Send a datagram to another node.  Delivery (or loss) is decided by the
    /// links along the routed path.
    pub fn send(&mut self, dst: NodeId, payload: Payload) {
        self.effects.sends.push(SendRequest { dst, payload });
    }

    /// Schedule a timer `delay` in the future.  `key` is passed back to
    /// [`Application::on_timer`] when it fires; the caller chooses it, the
    /// way a datagram carries its flow id, so an application that hosts
    /// others can hand each firing to its owner by the key alone.
    pub fn set_timer(&mut self, delay: SimTime, key: u64) {
        self.effects.timers.push(TimerRequest {
            delay,
            timer_id: key,
        });
    }

    /// A deterministic uniform draw in `[0, 1)` tied to the simulation seed.
    ///
    /// A bounded number of draws ([`RANDOMS_PER_CALLBACK`]) is available
    /// per callback; further calls repeat the last value, which keeps the
    /// engine deterministic without unbounded pre-generation.
    pub fn random(&mut self) -> f64 {
        let v = self.random_draws[self.random_cursor];
        if self.random_cursor + 1 < RANDOMS_PER_CALLBACK {
            self.random_cursor += 1;
        }
        v
    }

    /// Record a trace event visible to the experiment harness.
    pub fn trace(&mut self, event: TraceEvent) {
        self.effects.traces.push(event);
    }

    /// The datagram sends requested so far in this callback (test helper).
    pub fn outgoing(&self) -> &[SendRequest] {
        &self.effects.sends
    }

    /// The timers scheduled so far in this callback (test helper).
    pub fn scheduled_timers(&self) -> &[TimerRequest] {
        &self.effects.timers
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_collects_side_effects() {
        let mut ctx = Context::new(NodeId(2), SimTime::from_secs(1.0), vec![0.25, 0.75]);
        assert_eq!(ctx.node_id(), NodeId(2));
        assert_eq!(ctx.now(), SimTime::from_secs(1.0));
        ctx.send(NodeId(3), Payload::opaque(100));
        ctx.set_timer(SimTime::from_millis(5.0), 10);
        ctx.set_timer(SimTime::from_millis(10.0), 10);
        assert_eq!(ctx.outgoing().len(), 1);
        let keys: Vec<u64> = ctx.scheduled_timers().iter().map(|t| t.timer_id).collect();
        assert_eq!(keys, vec![10, 10]);
    }

    #[test]
    fn random_draws_are_bounded_and_stable() {
        let mut ctx = Context::new(NodeId(0), SimTime::ZERO, vec![0.1, 0.2]);
        assert_eq!(ctx.random(), 0.1);
        assert_eq!(ctx.random(), 0.2);
        // Exhausted: repeats the last value instead of panicking.
        assert_eq!(ctx.random(), 0.2);
        let mut empty = Context::new(NodeId(0), SimTime::ZERO, vec![]);
        assert_eq!(empty.random(), 0.5);
    }

    #[test]
    fn default_application_methods_are_noops() {
        struct Nothing;
        impl Application for Nothing {}
        let mut app = Nothing;
        let mut ctx = Context::new(NodeId(0), SimTime::ZERO, vec![]);
        app.on_start(&mut ctx);
        app.on_timer(&mut ctx, 0);
        app.on_datagram(
            &mut ctx,
            Datagram {
                dst: NodeId(0),
                payload: Payload::opaque(1),
            },
        );
        assert!(ctx.outgoing().is_empty());
        assert!(ctx.scheduled_timers().is_empty());
    }
}
