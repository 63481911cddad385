//! The discrete-event simulation engine.
//!
//! The engine owns the topology, the per-link runtime state, one
//! [`Application`] per node, the event queue, the RNG and the trace.  It
//! advances virtual time by popping events in deterministic order and
//! dispatching them to applications; side effects requested by applications
//! (sends, timers, traces) are applied when the callback returns.

use crate::app::{Application, Context};
use crate::dynamics::LinkChange;
use crate::event::{EventKind, EventQueue};
use crate::link::{Link, LinkId, LinkOutcome};
use crate::node::NodeId;
use crate::packet::{Datagram, Payload};
use crate::rng::SimRng;
use crate::routing::RoutingTable;
use crate::time::SimTime;
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent, TraceKind};

/// The discrete-event simulator.
pub struct Simulator {
    topology: Topology,
    routing: RoutingTable,
    links: Vec<Link>,
    /// The application hosted on each node, indexed by `NodeId`.
    apps: Vec<Option<Box<dyn Application>>>,
    queue: EventQueue,
    now: SimTime,
    rng: SimRng,
    trace: Trace,
    /// The context every dispatch lends its application, reset for each.
    ctx: Context,
    started: bool,
    stats: SimStats,
}

/// Engine-level counters.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SimStats {
    /// Total events dispatched.
    pub events_processed: u64,
    /// Datagrams handed to the network by applications.
    pub datagrams_sent: u64,
    /// Datagrams delivered to their final destination application.
    pub datagrams_delivered: u64,
    /// Datagrams dropped anywhere along their path.
    pub datagrams_dropped: u64,
    /// Datagrams addressed to unreachable destinations.
    pub datagrams_unroutable: u64,
    /// Scheduled link mutations applied (time-varying scenarios).
    pub link_changes: u64,
}

impl Simulator {
    /// Create a simulator for a topology with the given RNG seed.
    ///
    /// # Panics
    /// Panics if the topology fails validation; callers whose topology is
    /// generated or comes from a spec use [`Simulator::try_new`].
    pub fn new(topology: Topology, seed: u64) -> Self {
        Simulator::try_new(topology, seed).expect("topology failed validation")
    }

    /// Create a simulator for a topology with the given RNG seed, or say
    /// why the topology is invalid.
    pub fn try_new(topology: Topology, seed: u64) -> Result<Self, String> {
        topology.validate()?;
        let mut rng = SimRng::new(seed);
        let routing = RoutingTable::build(&topology);
        let links = topology
            .edges()
            .map(|e| Link::new(e.id, e.from, e.to, e.spec.clone(), &mut rng))
            .collect();
        let nodes = topology.node_count();
        Ok(Simulator {
            topology,
            routing,
            links,
            apps: (0..nodes).map(|_| None).collect(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng,
            trace: Trace::default(),
            ctx: Context::new(NodeId(0), SimTime::ZERO, Vec::new()),
            started: false,
            stats: SimStats::default(),
        })
    }

    /// Install an application on a node.  The application's `on_start` is
    /// scheduled at the current virtual time.
    pub fn install(&mut self, node: NodeId, app: Box<dyn Application>) {
        assert!(
            self.topology.node(node).is_some(),
            "cannot install application on unknown node {node}"
        );
        self.apps[node.0] = Some(app);
        if self.started {
            self.queue.push(self.now, EventKind::Start { node });
        }
    }

    /// The current virtual time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The static topology.
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The routing table computed from the topology.
    pub fn routing(&self) -> &RoutingTable {
        &self.routing
    }

    /// The trace collected so far.
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Engine counters.
    pub fn stats(&self) -> &SimStats {
        &self.stats
    }

    /// The *current* specification of a link (reflecting any applied
    /// runtime changes), unlike `topology()` which keeps the original.
    pub fn link_spec(&self, id: LinkId) -> Option<&crate::link::LinkSpec> {
        self.links.get(id.0).map(|l| &l.spec)
    }

    /// Schedule a link mutation to take effect at virtual time `at`.
    pub fn schedule_link_change(&mut self, at: SimTime, link: LinkId, change: LinkChange) {
        self.queue.push(at, EventKind::LinkChange { link, change });
    }

    /// Keep the clock running up to `at`: the queue holds a no-op event
    /// there, so a run does not stop early for want of events.
    pub fn wake_at(&mut self, at: SimTime) {
        self.queue.push(at, EventKind::Wake);
    }

    /// Apply a link mutation immediately; a change to an unknown link is
    /// ignored.
    fn apply_link_change(&mut self, link: LinkId, change: &LinkChange) {
        if let Some(l) = self.links.get_mut(link.0) {
            l.apply_change(change, &mut self.rng);
            self.stats.link_changes += 1;
        }
    }

    /// Remove and return the application installed on a node.
    pub fn take_app(&mut self, node: NodeId) -> Option<Box<dyn Application>> {
        self.apps.get_mut(node.0)?.take()
    }

    fn schedule_starts(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for node in (0..self.apps.len()).filter(|&node| self.apps[node].is_some()) {
            let node = NodeId(node);
            self.queue.push(self.now, EventKind::Start { node });
        }
    }

    /// Run until the queue drains or `deadline` is reached, whichever comes
    /// first.  Returns the time at which execution stopped.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.run(deadline, false)
    }

    /// [`Simulator::run_until`] that also stops right after the dispatch
    /// that traces an `IterationCompleted`, at its image's arrival instant.
    pub fn run_until_completion(&mut self, deadline: SimTime) -> SimTime {
        self.run(deadline, true)
    }

    fn run(&mut self, deadline: SimTime, stop_at_completion: bool) -> SimTime {
        self.schedule_starts();
        while let Some(event) = self.queue.pop_due(deadline) {
            let traced = self.trace.len();
            self.now = event.at;
            self.stats.events_processed += 1;
            match event.kind {
                EventKind::DatagramArrival { node, datagram } if datagram.dst == node => {
                    self.stats.datagrams_delivered += 1;
                    self.dispatch(node, Dispatch::Datagram(datagram));
                }
                // A forwarding hop: on to the next link toward the destination.
                EventKind::DatagramArrival { node, datagram } => self.forward(node, datagram),
                EventKind::Timer { node, timer_id } => {
                    self.dispatch(node, Dispatch::Timer(timer_id))
                }
                EventKind::Start { node } => self.dispatch(node, Dispatch::Start),
                EventKind::LinkChange { link, change } => self.apply_link_change(link, &change),
                EventKind::Wake => {}
            }
            let completed = |e: &TraceEvent| matches!(e.kind, TraceKind::IterationCompleted { .. });
            if stop_at_completion && self.trace.events[traced..].iter().any(completed) {
                return self.now;
            }
        }
        // If events remain beyond the deadline, the clock advances to the
        // deadline; if the queue drained first, it stays at the last event.
        if self.queue.peek_time().is_some() {
            self.now = deadline;
        }
        self.now
    }

    #[inline]
    fn forward(&mut self, at: NodeId, datagram: Datagram) {
        let dst = datagram.dst;
        let link_id = match self.routing.next_hop(at, dst) {
            Some(l) => l,
            None => {
                self.stats.datagrams_unroutable += 1;
                return;
            }
        };
        let wire = datagram.payload.wire_size();
        let link = &mut self.links[link_id.0];
        match link.offer(self.now, wire, &mut self.rng) {
            LinkOutcome::Deliver(arrival) => {
                let next_node = link.to;
                self.queue.push_fifo(
                    link_id.0,
                    arrival,
                    EventKind::DatagramArrival {
                        node: next_node,
                        datagram,
                    },
                );
            }
            LinkOutcome::RandomLoss | LinkOutcome::QueueDrop => {
                self.stats.datagrams_dropped += 1;
            }
        }
    }

    #[inline]
    fn dispatch(&mut self, node: NodeId, what: Dispatch) {
        // Take the application out for the callback and put it back after;
        // a node that hosts none consumes no draws.
        let Some(mut app) = self.apps.get_mut(node.0).and_then(Option::take) else {
            return;
        };
        let randoms = std::array::from_fn(|_| self.rng.uniform());
        let ctx = &mut self.ctx;
        ctx.lend(node, self.now, randoms);
        match what {
            Dispatch::Start => app.on_start(ctx),
            Dispatch::Timer(key) => app.on_timer(ctx, key),
            Dispatch::Datagram(dg) => app.on_datagram(ctx, dg),
        }
        self.apps[node.0] = Some(app);
        // Apply side effects, draining the buffers for the next dispatch.
        let effects = &mut self.ctx.effects;
        for mut tr in effects.traces.drain(..) {
            tr.at = self.now;
            tr.node = node;
            self.trace.push(tr);
        }
        for t in effects.timers.drain(..) {
            self.queue.push(
                self.now + t.delay,
                EventKind::Timer {
                    node,
                    timer_id: t.timer_id,
                },
            );
        }
        let mut sends = std::mem::take(&mut effects.sends);
        for datagram in sends.drain(..) {
            self.stats.datagrams_sent += 1;
            if datagram.dst == node {
                // Loopback: deliver immediately without touching any link.
                let arrival = EventKind::DatagramArrival { node, datagram };
                self.queue.push(self.now, arrival);
            } else {
                self.forward(node, datagram);
            }
        }
        self.ctx.effects.sends = sends;
    }

    /// Convenience: send a datagram "from the outside" (not from an
    /// application callback), e.g. to kick off a scenario.
    pub fn inject(&mut self, src: NodeId, dst: NodeId, payload: Payload) {
        self.stats.datagrams_sent += 1;
        let dg = Datagram { dst, payload };
        self.forward(src, dg);
    }
}

enum Dispatch {
    Start,
    Timer(u64),
    Datagram(Datagram),
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkSpec;
    use crate::loss::LossModel;
    use crate::node::NodeSpec;
    use std::cell::RefCell;
    use std::rc::Rc;

    /// Simple application that sends `count` datagrams to a peer at start.
    struct Blaster {
        dst: NodeId,
        count: u32,
        size: usize,
    }
    impl Application for Blaster {
        fn on_start(&mut self, ctx: &mut Context) {
            for i in 0..self.count {
                ctx.send(self.dst, Payload::sized(1, 1, i as u64, self.size));
            }
        }
    }

    /// Records deliveries into a shared vector.
    struct Sink {
        seen: Rc<RefCell<Vec<(u64, SimTime)>>>,
    }
    impl Application for Sink {
        fn on_datagram(&mut self, ctx: &mut Context, dg: Datagram) {
            self.seen.borrow_mut().push((dg.payload.seq, ctx.now()));
            ctx.trace(TraceEvent::new(TraceKind::IterationCompleted {
                iteration: dg.payload.seq,
            }));
        }
    }

    fn two_node_topo(bw_mbps: f64, delay: f64) -> (Topology, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("a", 1.0));
        let b = t.add_node(NodeSpec::workstation("b", 1.0));
        t.connect(a, b, LinkSpec::from_mbps(bw_mbps, delay));
        (t, a, b)
    }

    #[test]
    fn datagrams_arrive_in_order_with_expected_latency() {
        let (topo, a, b) = two_node_topo(8.0, 0.05); // 1 MB/s, 50 ms
        let mut sim = Simulator::new(topo, 1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        sim.install(
            a,
            Box::new(Blaster {
                dst: b,
                count: 3,
                size: 958,
            }),
        );
        sim.install(b, Box::new(Sink { seen: seen.clone() }));
        sim.run_until(SimTime::from_secs(10.0));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 3);
        // In-order delivery.
        assert!(seen.windows(2).all(|w| w[0].0 < w[1].0));
        // First datagram: 1000 wire bytes at 1 MB/s = 1 ms + 50 ms.
        assert!((seen[0].1.as_secs() - 0.051).abs() < 1e-6);
        // Subsequent ones serialize behind it.
        assert!((seen[1].1.as_secs() - 0.052).abs() < 1e-6);
        assert_eq!(sim.stats().datagrams_delivered, 3);
        assert_eq!(sim.stats().datagrams_dropped, 0);
        assert_eq!(sim.trace().len(), 3);
    }

    #[test]
    fn run_until_completion_stops_after_each_completing_dispatch() {
        let (topo, a, b) = two_node_topo(8.0, 0.05);
        let mut sim = Simulator::new(topo, 1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        let blaster = Blaster {
            dst: b,
            count: 3,
            size: 958,
        };
        sim.install(a, Box::new(blaster));
        sim.install(b, Box::new(Sink { seen: seen.clone() }));
        let deadline = SimTime::from_secs(10.0);
        // Each `Sink` delivery traces a completion: the clock stops there.
        for (k, at) in [0.051, 0.052].into_iter().enumerate() {
            let stopped = sim.run_until_completion(deadline).as_secs();
            assert!((stopped - at).abs() < 1e-9, "stopped at {stopped}");
            assert_eq!(seen.borrow().len(), k + 1);
        }
        sim.run_until(deadline);
        assert_eq!(seen.borrow().len(), 3);
    }

    #[test]
    fn multi_hop_forwarding_works() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("a", 1.0));
        let b = t.add_node(NodeSpec::workstation("b", 1.0));
        let c = t.add_node(NodeSpec::workstation("c", 1.0));
        t.connect(a, b, LinkSpec::from_mbps(100.0, 0.01));
        t.connect(b, c, LinkSpec::from_mbps(100.0, 0.02));
        let mut sim = Simulator::new(t, 3);
        let seen = Rc::new(RefCell::new(Vec::new()));
        sim.install(
            a,
            Box::new(Blaster {
                dst: c,
                count: 1,
                size: 1000,
            }),
        );
        sim.install(c, Box::new(Sink { seen: seen.clone() }));
        sim.run_until(SimTime::from_secs(1.0));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 1);
        // Two hops: > 30 ms propagation in total.
        assert!(seen[0].1.as_secs() > 0.03);
        assert_eq!(sim.stats().datagrams_delivered, 1);
    }

    #[test]
    fn lossy_link_drops_are_counted() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("a", 1.0));
        let b = t.add_node(NodeSpec::workstation("b", 1.0));
        t.connect(
            a,
            b,
            LinkSpec::from_mbps(100.0, 0.001).with_loss(LossModel::Bernoulli { p: 0.5 }),
        );
        let mut sim = Simulator::new(t, 11);
        let seen = Rc::new(RefCell::new(Vec::new()));
        sim.install(
            a,
            Box::new(Blaster {
                dst: b,
                count: 1000,
                size: 100,
            }),
        );
        sim.install(b, Box::new(Sink { seen: seen.clone() }));
        sim.run_until(SimTime::from_secs(60.0));
        let delivered = seen.borrow().len();
        assert!(delivered > 300 && delivered < 700, "delivered {delivered}");
        assert_eq!(
            sim.stats().datagrams_dropped + sim.stats().datagrams_delivered,
            1000
        );
    }

    #[test]
    fn unroutable_datagrams_are_counted() {
        let mut t = Topology::new();
        let a = t.add_node(NodeSpec::workstation("a", 1.0));
        let b = t.add_node(NodeSpec::workstation("b", 1.0));
        let _iso = t.add_node(NodeSpec::workstation("iso", 1.0));
        t.connect(a, b, LinkSpec::from_mbps(100.0, 0.001));
        let mut sim = Simulator::new(t, 1);
        sim.install(
            a,
            Box::new(Blaster {
                dst: NodeId(2),
                count: 1,
                size: 10,
            }),
        );
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(sim.stats().datagrams_unroutable, 1);
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            fired: Rc<RefCell<Vec<u64>>>,
        }
        impl Application for TimerApp {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer(SimTime::from_millis(20.0), 0);
                ctx.set_timer(SimTime::from_millis(10.0), 1);
                ctx.set_timer(SimTime::from_millis(30.0), 2);
            }
            fn on_timer(&mut self, _ctx: &mut Context, key: u64) {
                self.fired.borrow_mut().push(key);
            }
        }
        let (topo, a, _) = two_node_topo(10.0, 0.01);
        let mut sim = Simulator::new(topo, 1);
        let fired = Rc::new(RefCell::new(Vec::new()));
        sim.install(
            a,
            Box::new(TimerApp {
                fired: fired.clone(),
            }),
        );
        sim.run_until(SimTime::from_secs(1.0));
        // The timer keyed 1 was set with the shortest delay, so it fires
        // first.
        assert_eq!(*fired.borrow(), vec![1, 0, 2]);
    }

    #[test]
    fn identical_seeds_reproduce_identical_runs() {
        let run = |seed: u64| {
            let mut t = Topology::new();
            let a = t.add_node(NodeSpec::workstation("a", 1.0));
            let b = t.add_node(NodeSpec::workstation("b", 1.0));
            t.connect(
                a,
                b,
                LinkSpec::from_mbps(10.0, 0.01).with_loss(LossModel::Bernoulli { p: 0.2 }),
            );
            let mut sim = Simulator::new(t, seed);
            let seen = Rc::new(RefCell::new(Vec::new()));
            sim.install(
                a,
                Box::new(Blaster {
                    dst: b,
                    count: 200,
                    size: 500,
                }),
            );
            sim.install(b, Box::new(Sink { seen: seen.clone() }));
            sim.run_until(SimTime::from_secs(30.0));
            let v: Vec<u64> = seen.borrow().iter().map(|(s, _)| *s).collect();
            v
        };
        assert_eq!(run(42), run(42));
        assert_ne!(run(42), run(43));
    }

    #[test]
    fn loopback_sends_deliver_locally() {
        struct SelfSender {
            got: Rc<RefCell<u32>>,
        }
        impl Application for SelfSender {
            fn on_start(&mut self, ctx: &mut Context) {
                let me = ctx.node_id();
                ctx.send(me, Payload::opaque(10));
            }
            fn on_datagram(&mut self, _ctx: &mut Context, _dg: Datagram) {
                *self.got.borrow_mut() += 1;
            }
        }
        let (topo, a, _) = two_node_topo(10.0, 0.01);
        let mut sim = Simulator::new(topo, 1);
        let got = Rc::new(RefCell::new(0));
        sim.install(a, Box::new(SelfSender { got: got.clone() }));
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(*got.borrow(), 1);
    }

    #[test]
    fn inject_kicks_off_delivery_without_sender_app() {
        let (topo, a, b) = two_node_topo(100.0, 0.005);
        let mut sim = Simulator::new(topo, 1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        sim.install(b, Box::new(Sink { seen: seen.clone() }));
        sim.run_until(SimTime::from_millis(1.0));
        sim.inject(a, b, Payload::opaque(100));
        sim.run_until(SimTime::from_secs(1.0));
        assert_eq!(seen.borrow().len(), 1);
    }

    #[test]
    fn scheduled_bandwidth_drop_changes_transfer_times_mid_simulation() {
        use crate::dynamics::LinkChange;
        // 1 MB/s link: a 100 kB datagram serializes in 0.1 s.  After the
        // scheduled drop to 10 % the same datagram takes 1.0 s.
        let (topo, a, b) = two_node_topo(8.0, 0.0);
        let mut sim = Simulator::new(topo, 1);
        let seen = Rc::new(RefCell::new(Vec::new()));
        sim.install(b, Box::new(Sink { seen: seen.clone() }));
        sim.schedule_link_change(
            SimTime::from_secs(1.0),
            LinkId(0),
            LinkChange::ScaleBandwidth { factor: 0.1 },
        );
        sim.run_until(SimTime::from_millis(1.0));
        let t0 = sim.now().as_secs();
        sim.inject(a, b, Payload::sized(1, 1, 0, 100_000));
        sim.run_until(SimTime::from_secs(2.0));
        // The clock sits at the last processed event; record the actual
        // injection time of the post-drop datagram.
        let t1 = sim.now().as_secs();
        sim.inject(a, b, Payload::sized(1, 1, 1, 100_000));
        sim.run_until(SimTime::from_secs(10.0));
        let seen = seen.borrow();
        assert_eq!(seen.len(), 2);
        let before = seen[0].1.as_secs() - t0;
        let after = seen[1].1.as_secs() - t1;
        // Wire size adds a small header, so allow a per-mille of slack.
        assert!((before - 0.1).abs() < 1e-3, "pre-drop transfer {before}");
        assert!((after - 1.0).abs() < 1e-2, "post-drop transfer {after}");
        assert_eq!(sim.stats().link_changes, 1);
        // Scales refer to the original bandwidth, so a repeat is
        // idempotent; a change to an unknown link is ignored and not
        // counted; a restore brings the original spec back.
        let bandwidth = |sim: &Simulator| sim.link_spec(LinkId(0)).unwrap().bandwidth_bps;
        let scale = LinkChange::ScaleBandwidth { factor: 0.1 };
        sim.schedule_link_change(SimTime::from_secs(10.2), LinkId(0), scale);
        sim.schedule_link_change(SimTime::from_secs(10.3), LinkId(99), LinkChange::Restore);
        sim.run_until(SimTime::from_secs(10.4));
        assert!((bandwidth(&sim) - 1e5).abs() < 1e-6);
        assert_eq!(sim.stats().link_changes, 2);
        sim.schedule_link_change(SimTime::from_secs(10.5), LinkId(0), LinkChange::Restore);
        sim.run_until(SimTime::from_secs(11.0));
        assert!((bandwidth(&sim) - 1e6).abs() < 1e-6);
        assert_eq!(sim.stats().link_changes, 3);
    }

    #[test]
    #[should_panic(expected = "unknown node")]
    fn installing_on_unknown_node_panics() {
        let (topo, ..) = two_node_topo(10.0, 0.01);
        let mut sim = Simulator::new(topo, 1);
        sim.install(
            NodeId(99),
            Box::new(Blaster {
                dst: NodeId(0),
                count: 0,
                size: 0,
            }),
        );
    }
}
