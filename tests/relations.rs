//! Relations the simulated loops must satisfy, stated as exact checks.
//!
//! The golden records pin what a run does; these say what it must do.  The
//! simulator is deterministic, so each relation compares two runs to
//! within rounding, not statistically.

use ricsa::adapt::monitor::AdaptConfig;
use ricsa::core::adapt::{run_adaptive_loop, AdaptPolicy, AdaptiveLoopSpec, AdaptiveRun};
use ricsa::core::sessions::{
    contention_wan, demo_session_pipeline, run_multi_session, MappingPolicy, MultiSessionRun,
    MultiSessionSpec, SessionLoopSpec,
};
use ricsa::netsim::dynamics::{DynamicScenario, LinkChange, LinkEvent};
use ricsa::netsim::link::{LinkId, LinkSpec};
use ricsa::netsim::loss::LossModel;
use ricsa::netsim::node::NodeSpec;
use ricsa::netsim::time::SimTime;
use ricsa::netsim::topology::Topology;
use ricsa::pipemap::pipeline::{ModuleSpec, Pipeline};

/// Two frame-paced sessions on the contention WAN (no link schedule),
/// every loop spawned at `start_at`.
fn two_sessions_from(start_at: f64) -> MultiSessionRun {
    let wan = contention_wan(2);
    let sessions = (0..2)
        .map(|i| SessionLoopSpec {
            id: i as u64 + 1,
            pipeline: demo_session_pipeline(1.0 + 0.1 * i as f64),
            source: wan.sources[i],
            client: wan.clients[i],
            frames: 12,
            start_at,
        })
        .collect();
    run_multi_session(&MultiSessionSpec {
        topology: wan.topology.clone(),
        cm: wan.cm,
        sessions,
        policy: MappingPolicy::Independent,
        seed: 20080609,
        target_goodput: 200e6,
        adaptive: false,
        adapt: AdaptConfig::default(),
        joint_rounds: 6,
        max_virtual_time: SimTime::from_secs(900.0),
    })
    .expect("every session maps")
}

/// Time shift: on a WAN whose links never change, spawning every loop Δ
/// later changes no frame delay (beyond rounding), no path and no count;
/// every frame simply starts Δ later.  Nothing in a loop may read the
/// absolute clock.
#[test]
fn spawning_every_loop_later_on_a_static_wan_shifts_the_run_and_changes_nothing_else() {
    let base = two_sessions_from(0.0);
    for shift in [0.125, 1.0, 7.5] {
        let shifted = two_sessions_from(shift);
        assert_eq!(base.sessions.len(), shifted.sessions.len());
        for (a, b) in base.sessions.iter().zip(&shifted.sessions) {
            let id = a.id;
            assert_eq!(a.paths, b.paths, "session {id}, Δ = {shift}");
            assert_eq!(
                (a.requested, a.completed, a.lost, a.duplicated, a.migrations),
                (b.requested, b.completed, b.lost, b.duplicated, b.migrations),
                "session {id}, Δ = {shift}"
            );
            assert_eq!(a.delays.len(), b.delays.len(), "session {id}, Δ = {shift}");
            for (k, (x, y)) in a.delays.iter().zip(&b.delays).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9,
                    "session {id}, Δ = {shift}, frame {k}: delay {x} vs {y}"
                );
            }
            for (k, (x, y)) in a.starts.iter().zip(&b.starts).enumerate() {
                assert!(
                    (x + shift - y).abs() <= 1e-9,
                    "session {id}, Δ = {shift}, frame {k}: start {x} + Δ vs {y}"
                );
            }
        }
    }
}

/// The demo WAN's shape (a fast route over midA, a slower one over midB,
/// a slow direct link) with every link lossy, so that one draw more or
/// fewer from the simulator's RNG re-deals the loss coins of the rest of
/// the run.
struct LossyDemo {
    spec: AdaptiveLoopSpec,
    /// Both directions of src–midA: the data path until t = 4 s, when
    /// they collapse to 8 % of their bandwidth.
    src_mid_a: (LinkId, LinkId),
    /// Both directions of the direct src–client link, which no mapping of
    /// this pipeline uses and no control message routes over.
    src_client: (LinkId, LinkId),
}

fn lossy_demo() -> LossyDemo {
    let mut t = Topology::new();
    let source = t.add_node(NodeSpec::headless("src", 1.0));
    let mid_a = t.add_node(NodeSpec::cluster("midA", 6.0, 8));
    let mid_b = t.add_node(NodeSpec::cluster("midB", 5.0, 8));
    let client = t.add_node(NodeSpec::workstation("client", 1.5));
    let cm = t.add_node(NodeSpec::workstation("cm", 1.0));
    let lossy =
        |mbps, delay| LinkSpec::from_mbps(mbps, delay).with_loss(LossModel::Bernoulli { p: 0.002 });
    let src_mid_a = t.connect(source, mid_a, lossy(320.0, 0.008));
    t.connect(mid_a, client, lossy(320.0, 0.008));
    t.connect(source, mid_b, lossy(200.0, 0.012));
    t.connect(mid_b, client, lossy(200.0, 0.012));
    let src_client = t.connect(source, client, lossy(40.0, 0.030));
    t.connect(cm, source, lossy(80.0, 0.010));
    t.connect(cm, client, lossy(80.0, 0.010));
    let collapse = |link| LinkEvent {
        at: SimTime::from_secs(4.0),
        link,
        change: LinkChange::ScaleBandwidth { factor: 0.08 },
    };
    let bytes = 2e6;
    let spec = AdaptiveLoopSpec {
        schedule: DynamicScenario {
            label: "src–midA × 0.08 at 4s".into(),
            seed: 0,
            events: vec![collapse(src_mid_a.0), collapse(src_mid_a.1)],
        },
        pipeline: Pipeline::new(
            "relations",
            bytes,
            vec![
                ModuleSpec::new("filter", 2e-9, bytes),
                ModuleSpec::new("extract", 1e-8, bytes / 4.0),
                ModuleSpec::new("render", 5e-9, 2e5).requiring_graphics(),
            ],
        ),
        source,
        client,
        cm,
        iterations: 40,
        seed: 20080609,
        target_goodput: 200e6,
        adapt: AdaptConfig::default(),
        session: 1,
        max_virtual_time: SimTime::from_secs(600.0),
        topology: t,
    };
    LossyDemo {
        spec,
        src_mid_a,
        src_client,
    }
}

/// Every deterministic field of an adaptive run but `remap_latency_s`,
/// which counts from the schedule's first event (an added event moves
/// it; the commit time itself is in `migrations`).  The wall-clock solve
/// timing is left out too.
fn record(run: &AdaptiveRun) -> String {
    format!(
        "{} {:?} {:?} {:?} {:?} {:?} {} {} {} {} {}",
        run.policy,
        run.delays,
        run.starts,
        run.paths,
        run.decisions,
        run.migrations,
        run.frames_requested,
        run.frames_completed,
        run.frames_lost,
        run.frames_duplicated,
        run.solves,
    )
}

/// The record of `demo` under every policy, with `extra` link events
/// merged into its schedule (time order, the schedule's own events first
/// on a tie).
fn records_with(demo: &LossyDemo, extra: &[LinkEvent]) -> Vec<String> {
    let mut spec = demo.spec.clone();
    spec.schedule.events.extend_from_slice(extra);
    spec.schedule.events.sort_by_key(|event| event.at);
    let policies = [
        AdaptPolicy::Static,
        AdaptPolicy::Adaptive,
        AdaptPolicy::Oracle,
    ];
    let run = |policy| run_adaptive_loop(&spec, policy).expect("the WAN admits a mapping");
    policies.map(|policy| record(&run(policy))).into()
}

/// `change` on both directions of `link` at every 50 ms from 0.5 s to
/// 3.95 s, while the loop pulls frames over the fast route.
fn every_50_ms(link: (LinkId, LinkId), change: LinkChange) -> Vec<LinkEvent> {
    let at = (10..80).map(|k| SimTime::from_secs(0.05 * k as f64));
    at.flat_map(|at| {
        [link.0, link.1].map(|link| LinkEvent {
            at,
            link,
            change: change.clone(),
        })
    })
    .collect()
}

/// No-op changes: scaling a link by 1 while it is unscaled and carrying
/// the loop's frames — its transmitter busy, its queue full — leaves
/// every field of the record as it was, under every policy.  A change
/// may not touch a link's in-flight state, nor draw from the RNG the loss
/// coins come from.
#[test]
fn scaling_an_in_use_unscaled_link_by_one_changes_nothing() {
    let demo = lossy_demo();
    let base = records_with(&demo, &[]);
    let unit = LinkChange::ScaleBandwidth { factor: 1.0 };
    let noop = records_with(&demo, &every_50_ms(demo.src_mid_a, unit));
    for (policy, (a, b)) in ["static", "adaptive", "oracle"]
        .iter()
        .zip(base.iter().zip(&noop))
    {
        assert_eq!(a, b, "{policy}");
    }
    assert!(
        base[1] != base[0],
        "the adaptive loop migrates off src–midA"
    );
}

/// Unused links: scaling a link that no mapping and no control route
/// crosses — down, so that no re-solve is drawn to it — leaves every
/// field of the record as it was, under every policy.  This holds the
/// engine to drawing nothing for a link change (DESIGN.md §4.1).
#[test]
fn scaling_a_link_nothing_crosses_changes_nothing() {
    let demo = lossy_demo();
    let base = records_with(&demo, &[]);
    let mut extra = every_50_ms(demo.src_client, LinkChange::ScaleBandwidth { factor: 0.5 });
    for at in [4.0, 6.5] {
        extra.extend(
            [demo.src_client.0, demo.src_client.1].map(|link| LinkEvent {
                at: SimTime::from_secs(at),
                link,
                change: LinkChange::ScaleBandwidth { factor: 0.25 },
            }),
        );
    }
    let scaled = records_with(&demo, &extra);
    for (policy, (a, b)) in ["static", "adaptive", "oracle"]
        .iter()
        .zip(base.iter().zip(&scaled))
    {
        assert_eq!(a, b, "{policy}");
    }
}
