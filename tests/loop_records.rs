//! Golden records of every frame-paced loop driver.
//!
//! Each test pins the FNV-1a digest of the deterministic fields of a run
//! record.  The simulator is deterministic per seed, so a digest moves only
//! when the sequence of dispatches, datagrams or decisions behind the
//! record moves: a driver refactor that keeps these digests has kept the
//! loops' behaviour event for event — including the loss realisation on
//! lossy WANs, which depends on how many RNG draws stage hosting makes.
//!
//! The digests were captured at the commit that introduced this file and
//! are not to be edited by a change that claims to preserve behaviour.

use ricsa::adapt::monitor::AdaptConfig;
use ricsa::core::adapt::{demo_wan, run_adaptive_loop, AdaptPolicy, AdaptiveLoopSpec, AdaptiveRun};
use ricsa::core::adapt_sweep::{loop_spec, AdaptSweepConfig};
use ricsa::core::catalog::SimulationCatalog;
use ricsa::core::experiment::{fig9_experiment, ExperimentOptions, LoopSpec};
use ricsa::core::session::{PathChoice, SteeringSession};
use ricsa::core::sessions::{
    contention_wan, demo_session_pipeline, run_multi_session, MappingPolicy, MultiSessionRun,
    MultiSessionSpec, SessionLoopSpec,
};
use ricsa::netsim::dynamics::generate_schedule_family;
use ricsa::netsim::generators::{generate, WanKind};
use ricsa::netsim::loss::LossModel;
use ricsa::netsim::presets::{fig8_topology, Fig8Site};
use ricsa::netsim::sim::{SimStats, Simulator};
use ricsa::netsim::time::SimTime;
use ricsa::pipemap::fnv1a_hex;
use ricsa::pipemap::pipeline::{ModuleSpec, Pipeline};
use ricsa::vizdata::dataset::DatasetKind;

/// Every deterministic field of an adaptive run (the two wall-clock solve
/// timings are the only ones left out).
fn adaptive_digest(run: &AdaptiveRun) -> String {
    fnv1a_hex(&format!(
        "{} {:?} {:?} {:?} {:?} {:?} {} {} {} {} {:?} {}",
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
        run.remap_latency_s,
        run.solves,
    ))
}

fn multi_digest(run: &MultiSessionRun) -> String {
    fnv1a_hex(&serde_json::to_string(run).expect("run records serialize"))
}

/// The adaptive loop of the `wan_loop` benchmark workload: a 16 MB
/// pipeline on the demo WAN whose fast route collapses at t = 4 s.
fn demo_spec() -> AdaptiveLoopSpec {
    let wan = demo_wan();
    let bytes = 16e6;
    AdaptiveLoopSpec {
        schedule: wan.degradation(4.0, 0.08),
        pipeline: Pipeline::new(
            "adaptive",
            bytes,
            vec![
                ModuleSpec::new("filter", 2e-9, bytes),
                ModuleSpec::new("extract", 1e-8, bytes / 4.0),
                ModuleSpec::new("render", 5e-9, 2e5).requiring_graphics(),
            ],
        ),
        source: wan.source,
        client: wan.client,
        cm: wan.cm,
        iterations: 24,
        seed: 20080609,
        target_goodput: 200e6,
        adapt: AdaptConfig::default(),
        session: 1,
        max_virtual_time: SimTime::from_secs(600.0),
        topology: wan.topology.clone(),
    }
}

#[test]
fn adaptive_loop_records_on_the_demo_wan_are_pinned() {
    let spec = demo_spec();
    for (policy, migrations, expected) in [
        (AdaptPolicy::Static, 0, "9eb4a9d738ebec9b"),
        (AdaptPolicy::Adaptive, 1, "2f53f5785e034e1d"),
        (AdaptPolicy::Oracle, 1, "da6752f37d083e7c"),
    ] {
        let run = run_adaptive_loop(&spec, policy).expect("the demo WAN admits a mapping");
        assert_eq!(run.frames_lost + run.frames_duplicated, 0, "{policy:?}");
        assert_eq!(run.migrations.len(), migrations, "{policy:?}");
        assert_eq!(adaptive_digest(&run), expected, "{policy:?}");
    }
}

/// An event at exactly t = 0 is in force before the oracle's first
/// decision, which is made before the simulator has run: the oracle
/// leaves the collapsing route before frame 0 is requested.
#[test]
fn oracle_record_with_an_event_at_t_zero_is_pinned() {
    let mut spec = demo_spec();
    spec.schedule = demo_wan().degradation(0.0, 0.08);
    let run = run_adaptive_loop(&spec, AdaptPolicy::Oracle).expect("the demo WAN admits a mapping");
    assert_eq!(run.frames_lost + run.frames_duplicated, 0);
    assert_eq!(run.migrations.len(), 1);
    assert_eq!(run.migrations[0].first_iteration, 0);
    assert_eq!(adaptive_digest(&run), "6fd5ec1a356d60ce");
}

/// A generated WAN with lossy links and one member of its seeded schedule
/// family, turned into a loop spec exactly as `adapt_sweep` does.
fn lossy_spec(kind: WanKind, nodes: usize, wan_seed: u64, member: usize) -> AdaptiveLoopSpec {
    let config = AdaptSweepConfig::quick();
    let wan = generate(kind, nodes, wan_seed);
    let schedule = generate_schedule_family(
        wan.topology.edge_count(),
        &config.schedule,
        wan_seed,
        member + 1,
    )
    .pop()
    .expect("the family has member + 1 schedules");
    let spec = loop_spec(&config, &wan, &schedule).expect("the WAN admits a mapping");
    let lossy = spec
        .topology
        .edges()
        .filter(|e| e.spec.loss != LossModel::None)
        .count();
    assert!(lossy > 0, "the generated WAN must have lossy links");
    spec
}

/// Migrating on a lossy WAN is the case where stage hosting is visible in
/// the record: every dispatch to a node that hosts an application draws
/// from the simulator's one RNG, the loss coins come from the same stream,
/// so a hosting change that adds or removes a single dispatch after the
/// migration shifts which datagrams are lost from then on.
#[test]
fn adaptive_loop_records_across_a_migration_on_a_lossy_wan_are_pinned() {
    for (kind, nodes, wan_seed, member, policy, expected) in LOSSY_CASES {
        let spec = lossy_spec(kind, nodes, wan_seed, member);
        let run = run_adaptive_loop(&spec, policy).expect("the WAN admits a mapping");
        assert!(
            !run.migrations.is_empty(),
            "{policy:?} on seed {wan_seed} must migrate"
        );
        assert_eq!(
            adaptive_digest(&run),
            expected,
            "{policy:?} on seed {wan_seed}"
        );
    }
}

const LOSSY_CASES: [(WanKind, usize, u64, usize, AdaptPolicy, &str); 4] = [
    (
        WanKind::Waxman,
        10,
        22,
        0,
        AdaptPolicy::Adaptive,
        "644b39edc6e456eb",
    ),
    (
        WanKind::Waxman,
        10,
        22,
        0,
        AdaptPolicy::Oracle,
        "0de8cdd6ee072e74",
    ),
    (
        WanKind::TransitStub,
        12,
        1,
        1,
        AdaptPolicy::Adaptive,
        "4a52b5b51d74ad88",
    ),
    (
        WanKind::TransitStub,
        12,
        1,
        1,
        AdaptPolicy::Oracle,
        "02ecf54748061ae7",
    ),
];

/// The multi-session runs of the `wan_loop` workload, at any session count.
fn contention_spec(n: usize, policy: MappingPolicy) -> MultiSessionSpec {
    let wan = contention_wan(n);
    let sessions = (0..n)
        .map(|i| SessionLoopSpec {
            id: i as u64 + 1,
            pipeline: demo_session_pipeline(1.0 + 0.1 * i as f64),
            source: wan.sources[i],
            client: wan.clients[i],
            frames: 10,
            start_at: 0.0,
        })
        .collect();
    MultiSessionSpec {
        topology: wan.topology.clone(),
        cm: wan.cm,
        sessions,
        policy,
        seed: 20080609,
        target_goodput: 200e6,
        adaptive: false,
        adapt: AdaptConfig::default(),
        joint_rounds: 6,
        max_virtual_time: SimTime::from_secs(900.0),
    }
}

#[test]
fn multi_session_records_on_the_contention_wan_are_pinned() {
    for (n, policy, expected) in [
        (2, MappingPolicy::Independent, "cc79560d517f852e"),
        (2, MappingPolicy::Joint, "d4994319cb1b407d"),
        (2, MappingPolicy::ClientServer, "f69fae49e6c2eed1"),
        (8, MappingPolicy::Independent, "a5a4f776cb696c26"),
        (8, MappingPolicy::Joint, "6e4d8924bed34bcf"),
        (8, MappingPolicy::ClientServer, "c82fb8fac9ca9897"),
    ] {
        let run = run_multi_session(&contention_spec(n, policy)).expect("every policy maps");
        for s in &run.sessions {
            assert_eq!(s.lost + s.duplicated, 0, "n = {n}, {policy:?}");
        }
        assert_eq!(multi_digest(&run), expected, "n = {n}, {policy:?}");
    }
}

/// The benchmark's heaviest run: 32 jointly mapped sessions share the
/// trunk, so each sender keeps thousands of sequence numbers outstanding.
/// Slow in a debug build; CI runs it in release.
#[test]
#[ignore = "32 sessions; run in release with --include-ignored"]
fn thirty_two_joint_sessions_on_the_contention_wan_are_pinned() {
    let run = run_multi_session(&contention_spec(32, MappingPolicy::Joint))
        .expect("the joint policy maps");
    for s in &run.sessions {
        assert_eq!(s.lost + s.duplicated, 0, "session {}", s.id);
    }
    assert_eq!(multi_digest(&run), "10d7c0048372b21f");
}

/// Live migration, late spawns and an early retirement in one run: six
/// heavy sessions ride the trunk, two of them joining two virtual seconds
/// in; a monitor that watched the trunk collapse under the newcomers moves
/// its session to the private route, and the first session retires early.
#[test]
fn adaptive_multi_session_record_with_late_spawns_and_a_retirement_is_pinned() {
    let mut spec = contention_spec(6, MappingPolicy::Independent);
    spec.adaptive = true;
    for (i, session) in spec.sessions.iter_mut().enumerate() {
        session.pipeline = demo_session_pipeline(4.0 * (1.0 + 0.1 * i as f64));
        session.frames = 16;
        if i >= 4 {
            session.start_at = 2.0;
        }
    }
    spec.sessions[0].frames = 5;
    let run = run_multi_session(&spec).expect("every session maps");
    let early = run.sessions[0].retired_at.expect("session 1 retires");
    assert!(run.sessions[1..].iter().all(|s| s.retired_at > Some(early)));
    assert!(run.sessions[4..].iter().all(|s| s.spawned_at >= 2.0));
    assert_eq!(
        run.sessions.iter().map(|s| s.migrations).sum::<u64>(),
        1,
        "one session moves off the trunk"
    );
    for s in &run.sessions {
        assert_eq!(s.lost + s.duplicated, 0, "session {}", s.id);
    }
    assert_eq!(multi_digest(&run), "e445a1f2664db5bf");
}

#[test]
fn quick_fig9_loop_results_are_pinned() {
    let (_, results) = fig9_experiment(&ExperimentOptions::quick());
    assert_eq!(results.len(), 18);
    assert!(results.iter().all(|r| r.measured_delay.is_finite()));
    let json = serde_json::to_string(&results).expect("loop results serialize");
    assert_eq!(fnv1a_hex(&json), "3172c0e470b51f9e");
}

/// The 18 full-scale Fig. 9 runs of the `wan_loop` benchmark workload, as
/// the engine counts them.  The totals are exact per seed and move when an
/// event is added, dropped or reordered, when a dispatch draws more or
/// fewer random numbers, or when an ACK changes by a bit (the controller
/// paces the next burst off it): a faster engine that keeps them, and the
/// digests above, runs the same simulation.  CI checks the same numbers on
/// the benchmark's traced output.
#[test]
fn full_scale_fig9_event_and_datagram_counts_are_pinned() {
    let fig8 = fig8_topology();
    let catalog = SimulationCatalog::default();
    let (client, cm) = (fig8.node(Fig8Site::Ornl), fig8.node(Fig8Site::Lsu));
    let mut total = SimStats::default();
    for dataset in DatasetKind::ALL {
        for spec in LoopSpec::fig9_loops() {
            let choice = match &spec.forced_path {
                Some(path) => PathChoice::ForcedPath(path.iter().map(|s| fig8.node(*s)).collect()),
                None => PathChoice::Optimal,
            };
            let source = fig8.node(spec.data_source);
            let (topology, name) = (&fig8.topology, dataset.name());
            let plan = SteeringSession::plan(1, topology, &catalog, name, source, client, &choice)
                .expect("every Fig. 9 loop admits a mapping on the Fig. 8 deployment");
            let mut sim = Simulator::new(topology.clone(), 20080609);
            SteeringSession::install(&plan, &mut sim, cm, 1, 200e6);
            let delays = SteeringSession::run(&mut sim, 1, SimTime::from_secs(600.0));
            assert_eq!(delays.len(), 1, "{} {name}: one frame, once", spec.name);
            total.events_processed += sim.stats().events_processed;
            total.datagrams_sent += sim.stats().datagrams_sent;
            total.datagrams_dropped += sim.stats().datagrams_dropped;
        }
    }
    assert_eq!(total.events_processed, 468_285);
    assert_eq!(total.datagrams_sent, 452_617);
    assert_eq!(total.datagrams_dropped, 232);
}
