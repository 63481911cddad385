//! Keep README.md honest: every command it shows must reference artifacts
//! that exist, the crate map must cover the workspace, and the quickstart
//! snippet must match a runnable example (which this test executes
//! end-to-end through the library, mirroring `examples/quickstart.rs`).

use ricsa::core::catalog::SimulationCatalog;
use ricsa::core::session::{PathChoice, SteeringSession};
use ricsa::netsim::presets::{fig8_topology, Fig8Site};
use ricsa::netsim::sim::Simulator;
use ricsa::netsim::time::SimTime;
use std::path::Path;

fn readme() -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md");
    std::fs::read_to_string(path).expect("README.md exists at the workspace root")
}

/// Every `--example NAME` / `--bin NAME` mentioned in README commands must
/// exist as a source file, so the snippets cannot silently rot.
#[test]
fn readme_commands_reference_existing_artifacts() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = readme();
    let words: Vec<&str> = text.split_whitespace().collect();
    let mut checked = 0;
    for (i, word) in words.iter().enumerate() {
        let (dir, what) = match *word {
            "--example" => ("examples", "example"),
            "--bin" => ("crates/bench/src/bin", "bench binary"),
            _ => continue,
        };
        let name = words
            .get(i + 1)
            .expect("a name follows the flag")
            .trim_matches(|c: char| !c.is_ascii_alphanumeric() && c != '_');
        let file = root.join(dir).join(format!("{name}.rs"));
        assert!(
            file.is_file(),
            "README references {what} '{name}' but {} does not exist",
            file.display()
        );
        checked += 1;
    }
    assert!(
        checked >= 4,
        "expected several README commands, found {checked}"
    );
}

/// The crate map table must list every member under crates/ (and the shims
/// row), so the map cannot drift from the workspace layout.
#[test]
fn readme_crate_map_covers_the_workspace() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let text = readme();
    let crates = std::fs::read_dir(root.join("crates")).expect("crates/ exists");
    for entry in crates {
        let name = entry.expect("readable dir entry").file_name();
        let name = name.to_string_lossy();
        assert!(
            text.contains(&format!("`crates/{name}`")),
            "README crate map is missing `crates/{name}`"
        );
    }
    assert!(
        text.contains("`shims/*`"),
        "README crate map is missing the shims row"
    );
}

/// The serving-layer section must show the load-bench command (the binary
/// itself is existence-checked by `readme_commands_reference_existing_artifacts`)
/// and the crate map must describe `crates/webfront` as the serving layer
/// it now is, not the old one-thread-per-request server.
#[test]
fn readme_serving_layer_section_matches_the_code() {
    let text = readme();
    assert!(
        text.contains("--bin webfront_load -- --quick"),
        "README must show the webfront_load --quick command"
    );
    for promise in ["encode-once", "delta tiles", "keep-alive", "thread-pool"] {
        assert!(
            text.contains(promise),
            "README serving-layer/crate-map text must mention '{promise}'"
        );
    }
    // The promises hold against the actual crate surface.
    use ricsa::webfront::http::HttpServerConfig;
    use ricsa::webfront::hub::{PollMode, SessionHub};
    let config = HttpServerConfig::default();
    assert!(config.workers > 1, "thread-pool promise");
    let hub = SessionHub::default();
    hub.publish(ricsa::webfront::hub::Frame {
        sequence: 0,
        cycle: 1,
        time: 0.0,
        image: ricsa::viz::image::Image::filled(4, 4, [1, 2, 3, 255]).encode_raw(),
        monitors: vec![],
    });
    // The first poll encodes the payload; nine more share it.
    hub.try_payload(0, PollMode::Full);
    let encodes = hub.encode_count();
    assert_eq!(encodes, 1, "encode-on-first-demand promise");
    for _ in 0..9 {
        hub.try_payload(0, PollMode::Full);
    }
    assert_eq!(hub.encode_count(), encodes, "encode-once promise");
}

/// The readiness-core claims in the serving-layer section must hold
/// against the crate surface: the RLE wire codec is lossless, and a
/// client 2-8 frames behind is served one composed delta chain that
/// applies exactly to the frame it retains.
#[test]
fn readme_readiness_section_matches_the_code() {
    let text = readme();
    for promise in [
        "readiness",
        "epoll",
        "parked",
        "composed delta chains",
        "RLE",
        "audited on the wire",
        "Linux (epoll)",
        "read-locked snapshot",
    ] {
        assert!(
            text.contains(promise),
            "README serving-layer text must mention '{promise}'"
        );
    }
    use ricsa::viz::image::Image;
    use ricsa::webfront::hub::{
        apply_delta, delta_from_json, image_from_json, Frame, PollMode, SessionHub,
    };
    let hub = SessionHub::default();
    let publish = |img: &Image, cycle: u64| {
        hub.publish(Frame {
            sequence: 0,
            cycle,
            time: cycle as f64,
            image: img.encode_raw(),
            monitors: vec![],
        });
    };
    let mut img = Image::filled(96, 96, [30, 30, 30, 255]);
    publish(&img, 1);
    let first = hub.latest_payload().expect("a published frame");
    // The flat frame ships RLE-compressed, and decodes back bit-exactly.
    let full: serde_json::Value = serde_json::from_str(&first.json).unwrap();
    assert_eq!(full["codec"], "rle", "flat frames take the RLE pass");
    let retained =
        Image::decode_raw(&image_from_json(&full).expect("decodable full frame")).unwrap();
    assert_eq!(retained, img, "RLE losslessness promise");
    for step in 0..3usize {
        for y in 0..8 {
            for x in 0..8 {
                img.set(8 * step + x, y, [200, 40, 10, 255]);
            }
        }
        publish(&img, 2 + step as u64);
    }
    // The client still holds frame 1, now three behind: one composed
    // chain carries it straight to the head.
    let payload = hub
        .try_payload(first.sequence, PollMode::Delta)
        .expect("newer frames exist");
    assert!(payload.is_delta, "3 behind must still be served a delta");
    assert_eq!(payload.sequence, hub.latest_sequence());
    let composed: serde_json::Value = serde_json::from_str(&payload.json).unwrap();
    let (base, delta) = delta_from_json(&composed).expect("parseable composed delta");
    assert_eq!(
        base, first.sequence,
        "the chain applies to the retained frame"
    );
    assert_eq!(
        apply_delta(&retained, &delta),
        img,
        "chain exactness promise"
    );
}

/// The adaptive re-mapping section must show the `sweep adapt` command and
/// its promises must hold against the actual crate surface: deterministic
/// schedules, passive telemetry with no probe traffic, and a change-point
/// detector that confirms a collapse but not jitter.
#[test]
fn readme_adaptive_section_matches_the_code() {
    let text = readme();
    assert!(
        text.contains("--bin sweep -- adapt --quick"),
        "README must show the sweep adapt --quick command"
    );
    for promise in [
        "change-point",
        "hysteresis",
        "warm-started",
        "FlowTelemetry",
    ] {
        assert!(
            text.contains(promise),
            "README adaptive/crate-map text must mention '{promise}'"
        );
    }
    // Seeded schedules are byte-identical per seed.
    use ricsa::netsim::dynamics::{generate_schedule, ScheduleParams};
    let a = generate_schedule(8, &ScheduleParams::default(), 5);
    let b = generate_schedule(8, &ScheduleParams::default(), 5);
    assert_eq!(a, b, "generate_schedule determinism promise");
    // The detector confirms a sustained collapse, never plain jitter.
    use ricsa::adapt::{ChangePointDetector, DetectorConfig};
    let mut detector = ChangePointDetector::new(DetectorConfig::default());
    for i in 0..20 {
        let jitter = if i % 2 == 0 { 1.05 } else { 0.95 };
        assert!(detector.observe(100.0 * jitter).is_none(), "jitter tripped");
    }
    assert!(
        (0..5).any(|_| detector.observe(10.0).is_some()),
        "a sustained collapse must confirm"
    );
}

/// The adaptation-sweep section must show the `sweep adapt` command and
/// its promises must hold against the actual crate surface: schedule
/// families keyed off one base seed, a byte-deterministic record set,
/// and an RTT signal that detects a degradation goodput cannot see.
#[test]
fn readme_adaptation_sweep_section_matches_the_code() {
    let text = readme();
    assert!(
        text.contains("--bin sweep -- adapt --quick"),
        "README must show the sweep adapt --quick command"
    );
    for promise in [
        "generate_schedule_family",
        "win rate",
        "oracle",
        "byte-deterministic",
        "RTT",
    ] {
        assert!(
            text.contains(promise),
            "README adaptation-sweep text must mention '{promise}'"
        );
    }
    // Schedule families reproduce from one base seed, member by member.
    use ricsa::netsim::dynamics::{
        family_member_seed, generate_schedule, generate_schedule_family, ScheduleParams,
    };
    let params = ScheduleParams::default();
    let family = generate_schedule_family(8, &params, 21, 3);
    assert_eq!(family, generate_schedule_family(8, &params, 21, 3));
    assert_eq!(
        family[2],
        generate_schedule(8, &params, family_member_seed(21, 2)),
        "family member promise: keyed off the base seed"
    );
    // The RTT signal confirms a degradation flat goodput never shows.
    use ricsa::adapt::{AdaptConfig, AdaptMonitor};
    use ricsa::pipemap::dp::optimize_with;
    use ricsa::pipemap::network::NetGraph;
    use ricsa::pipemap::pipeline::{ModuleSpec, Pipeline};
    use ricsa::transport::telemetry::FlowTelemetry;
    let pipeline = Pipeline::new(
        "readme",
        4e6,
        vec![
            ModuleSpec::new("filter", 2e-9, 4e6),
            ModuleSpec::new("render", 5e-9, 1e5).requiring_graphics(),
        ],
    );
    let mut graph = NetGraph::new();
    let src = graph.add_node("src", 1.0, false);
    let mid = graph.add_node("mid", 4.0, true);
    let dst = graph.add_node("dst", 1.5, true);
    graph.add_bidirectional(src, mid, 30e6, 0.01);
    graph.add_bidirectional(mid, dst, 30e6, 0.01);
    graph.add_bidirectional(src, dst, 8e6, 0.02);
    let config = AdaptConfig::default();
    let initial = optimize_with(&pipeline, &graph, src, dst, &config.options)
        .0
        .expect("the three-node graph admits a mapping");
    let mut monitor = AdaptMonitor::with_initial(pipeline, graph, src, dst, config, initial);
    let sample = |rtt: f64| FlowTelemetry {
        flow_id: 1,
        goodput_bps: 10e6, // flat: the flow never saturated the link
        rtt_s: rtt,
        goodput_samples: 1,
        rtt_samples: 1,
        last_update_s: 1.0,
        ..FlowTelemetry::default()
    };
    for (t, rtt) in [0.02, 0.02, 0.02, 0.2, 0.2].iter().enumerate() {
        monitor.ingest(src, mid, &sample(*rtt));
        monitor.evaluate(t as f64);
    }
    let record = monitor
        .decisions()
        .last()
        .expect("RTT inflation must confirm a detection");
    assert_eq!(record.signal, ricsa::adapt::SIGNAL_RTT);
}

/// The multi-session section must show the `sweep session` command and
/// its promises must hold against the actual crate surface: the joint
/// solve is deterministic and never predicts worse than independent
/// under the contended model, and the session layer audits frames per
/// session.
#[test]
fn readme_multi_session_section_matches_the_code() {
    let text = readme();
    assert!(
        text.contains("--bin sweep -- session --quick"),
        "README must show the sweep session --quick command"
    );
    for promise in [
        "contention-aware joint solve",
        "fair-share-priced",
        "Jain fairness",
        "SessionMux",
        "cross-traffic",
        "contention_wan",
    ] {
        assert!(
            text.contains(promise),
            "README multi-session text must mention '{promise}'"
        );
    }
    // The joint solve reproduces and never predicts worse than round
    // zero (the independent solves) under the contended objective.
    use ricsa::core::sessions::{contention_wan, demo_session_pipeline};
    use ricsa::pipemap::dp::optimize_with;
    use ricsa::pipemap::joint::{contended_delays, solve_joint, JointOptions, JointSession};
    use ricsa::pipemap::network::NetGraph;
    let wan = contention_wan(3);
    let graph = NetGraph::from_topology(&wan.topology);
    let sessions: Vec<JointSession> = (0..3)
        .map(|i| JointSession {
            pipeline: demo_session_pipeline(1.0 + 0.1 * i as f64),
            source: wan.sources[i].0,
            destination: wan.clients[i].0,
        })
        .collect();
    let options = JointOptions::default();
    let a = solve_joint(&sessions, &graph, &options).expect("feasible");
    let b = solve_joint(&sessions, &graph, &options).expect("feasible");
    assert_eq!(a.mappings, b.mappings, "joint determinism promise");
    let independent: Vec<_> = sessions
        .iter()
        .map(|s| {
            optimize_with(&s.pipeline, &graph, s.source, s.destination, &options.dp)
                .0
                .expect("feasible")
                .mapping
        })
        .collect();
    let total = |mappings: &[ricsa::pipemap::delay::Mapping]| -> f64 {
        contended_delays(&sessions, &graph, mappings)
            .iter()
            .map(|d| d.total)
            .sum()
    };
    assert!(
        total(&a.mappings) <= total(&independent) + 1e-9,
        "joint never-worse-than-independent promise"
    );
    // Under 3-way contention the joint solve actually spreads: not every
    // session crosses the shared trunk.
    let (h1, h2) = wan.trunk_nodes();
    let on_trunk = a
        .mappings
        .iter()
        .filter(|m| {
            m.path
                .windows(2)
                .any(|w| (w[0], w[1]) == (h1, h2) || (w[1], w[0]) == (h1, h2))
        })
        .count();
    assert!(on_trunk < 3, "joint must move someone off the trunk");
}

/// The quickstart snippet names the quickstart example; run the same flow
/// through the library (at reduced scale) so the snippet's promise — plan,
/// simulate, measure — actually holds.
#[test]
fn readme_quickstart_flow_runs_end_to_end() {
    let text = readme();
    assert!(
        text.contains("cargo run --release --example quickstart"),
        "README quickstart must reference the quickstart example"
    );
    let fig8 = fig8_topology();
    let catalog = SimulationCatalog::default();
    let mut plan = SteeringSession::plan(
        1,
        &fig8.topology,
        &catalog,
        "Rage",
        fig8.node(Fig8Site::GaTech),
        fig8.node(Fig8Site::Ornl),
        &PathChoice::Optimal,
    )
    .expect("the Fig. 8 deployment always admits a mapping");
    // 1/64th scale keeps this test fast; the loop structure is unchanged.
    plan.pipeline.source_bytes /= 64.0;
    for module in &mut plan.pipeline.modules {
        module.output_bytes /= 64.0;
    }
    plan.vrt = ricsa::pipemap::vrt::VisualizationRoutingTable::from_mapping(
        &plan.pipeline,
        &ricsa::pipemap::network::NetGraph::from_topology(&fig8.topology),
        &plan.mapping,
        plan.predicted.total,
    );
    assert!(plan.predicted.total > 0.0);
    let mut sim = Simulator::new(fig8.topology.clone(), 42);
    SteeringSession::install(&plan, &mut sim, fig8.node(Fig8Site::Lsu), 1, 200e6);
    let delays = SteeringSession::run(&mut sim, 1, SimTime::from_secs(300.0));
    assert_eq!(delays.len(), 1, "the quickstart iteration must complete");
    assert!(delays[0].is_finite() && delays[0] > 0.0);
}
