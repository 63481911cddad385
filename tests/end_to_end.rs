//! Integration tests spanning the workspace crates: the full steering loop
//! on the Fig. 8 deployment, the simulation-to-web-front-end path, and the
//! consistency between the analytical delay model and the simulated system.

use ricsa::core::api::{SimulationCommand, SimulationServer};
use ricsa::core::catalog::SimulationCatalog;
use ricsa::core::experiment::{run_loop_experiment, ExperimentOptions, LoopSpec};
use ricsa::core::session::{PathChoice, SteeringSession};
use ricsa::hydro::problems::Problem;
use ricsa::hydro::steering::SteerableParams;
use ricsa::netsim::presets::{fig8_topology, Fig8Site};
use ricsa::netsim::sim::Simulator;
use ricsa::netsim::time::SimTime;
use ricsa::viz::camera::Camera;
use ricsa::viz::isosurface::extract_isosurface;
use ricsa::viz::render::render_mesh;
use ricsa::vizdata::dataset::DatasetKind;
use ricsa::vizdata::field::Dims;
use ricsa::webfront::hub::{image_from_json, Frame, PollMode};
use ricsa::webfront::server::FrontEndServer;

/// The full loop: plan on the Fig. 8 topology, install the stages, simulate,
/// and check that the measured delay is in the same regime as the analytical
/// prediction and that every stage reported completion.
#[test]
fn steering_loop_runs_end_to_end_on_fig8() {
    let fig8 = fig8_topology();
    let catalog = SimulationCatalog::default();
    let mut plan = SteeringSession::plan(
        1,
        &fig8.topology,
        &catalog,
        "Jet",
        fig8.node(Fig8Site::GaTech),
        fig8.node(Fig8Site::Ornl),
        &PathChoice::Optimal,
    )
    .expect("planning succeeds");
    // Scale the pipeline down (1/64th) so the integration test stays fast;
    // the loop structure is unchanged.
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
    let mut sim = Simulator::new(fig8.topology.clone(), 11);
    SteeringSession::install(&plan, &mut sim, fig8.node(Fig8Site::Lsu), 2, 200e6);
    let delays = SteeringSession::run(&mut sim, 2, SimTime::from_secs(300.0));
    assert_eq!(delays.len(), 2, "both iterations must complete");
    assert!(delays.iter().all(|d| *d > 0.0 && d.is_finite()));
    // Stages reported processing via trace records.
    let stage_records = sim
        .trace()
        .events
        .iter()
        .filter(|e| {
            matches!(
                e.kind,
                ricsa::netsim::trace::TraceKind::StageCompleted { .. }
            )
        })
        .count();
    assert!(stage_records >= plan.mapping.path.len());
}

/// The paper's central comparison, at reduced scale: the optimizer's loop
/// beats the forced PC-PC loop on both the measured and the predicted delay.
/// (The full-scale speedups are reproduced by the `fig9_loops` binary and
/// recorded in EXPERIMENTS.md.)
#[test]
fn optimal_loop_beats_pc_pc_and_gap_grows_with_size() {
    // 1/16th of the paper's dataset sizes: large enough (1-7 MB) that the
    // network-optimized loop pays off, small enough for a fast test.  At a
    // few hundred kilobytes the direct PC-PC loop genuinely wins, which is
    // exactly the observation the paper makes for small datasets.
    let options = ExperimentOptions {
        size_scale: 1.0 / 16.0,
        max_virtual_time: SimTime::from_secs(200.0),
        ..ExperimentOptions::default()
    };
    let loops = LoopSpec::fig9_loops();
    for dataset in [DatasetKind::Rage, DatasetKind::VisibleWoman] {
        let optimal = run_loop_experiment(&loops[0], dataset, &options);
        let pc_pc = run_loop_experiment(&loops[4], dataset, &options);
        assert!(
            optimal.measured_delay < pc_pc.measured_delay,
            "{}: optimal {} should beat PC-PC {}",
            dataset.name(),
            optimal.measured_delay,
            pc_pc.measured_delay
        );
        // The analytical model agrees on the ranking.
        assert!(optimal.predicted_delay < pc_pc.predicted_delay);
    }
}

/// Live simulation → isosurface → rendered frame → Ajax front end → steering
/// command back into the simulation: the complete monitoring/steering path
/// without the WAN in between.
#[test]
fn simulation_to_web_front_end_round_trip() {
    let front_end = FrontEndServer::start("127.0.0.1:0").expect("bind front end");
    let hub = front_end.hub();
    let inbox = front_end.inbox();

    let mut server = SimulationServer::startup();
    let (commands, datasets) = server.wait_accept_connection();
    commands
        .send(SimulationCommand::Start {
            problem: Problem::SodShockTube,
            dims: Dims::new(48, 8, 8),
            params: SteerableParams {
                end_cycle: 6,
                ..SteerableParams::default()
            },
        })
        .unwrap();

    // Simulate a browser posting a steering change after the first frame.
    inbox.post(SteerableParams {
        cfl: 0.2,
        end_cycle: 6,
        ..SteerableParams::default()
    });

    let camera = Camera::with_viewport(64, 64);
    while server.run_cycle() {
        if let Some(params) = inbox.drain_latest() {
            commands
                .send(SimulationCommand::UpdateParameters(params))
                .unwrap();
        }
        if let Some(snapshot) = datasets.try_iter().last() {
            let pressure = snapshot.variable("pressure").unwrap();
            let (lo, hi) = pressure.value_range();
            let surface = extract_isosurface(pressure, lo + 0.5 * (hi - lo), 16);
            let image = render_mesh(&surface.mesh, &camera, [0.8, 0.8, 0.8]);
            hub.publish(Frame {
                sequence: 0,
                cycle: snapshot.cycle,
                time: snapshot.time,
                image: image.encode_raw(),
                monitors: vec![("max_pressure".into(), hi as f64)],
            });
        }
    }
    // The steering change reached the solver.
    assert!((server.params().unwrap().cfl - 0.2).abs() < 1e-9);
    // Frames were published and are poll-able like a browser would.
    assert!(hub.latest_sequence() >= 3);
    let payload = hub
        .try_payload(0, PollMode::Full)
        .expect("a frame is available");
    let value: serde_json::Value = serde_json::from_str(&payload.json).unwrap();
    let image = image_from_json(&value).expect("a decodable full frame");
    assert!(image.starts_with(b"RICSAIMG"));
    front_end.shutdown();
}

/// The serving layer at the wire level: two frames that differ in a small
/// region, fetched over one keep-alive socket — the delta poll must ship
/// only the changed tiles yet reconstruct the full frame exactly.
#[test]
fn web_front_end_delta_polls_reconstruct_full_frames_over_http() {
    use ricsa::viz::image::Image;
    use ricsa::webfront::http::read_blocking_response;
    use ricsa::webfront::hub::{apply_delta, delta_from_json};
    use std::io::{BufReader, Write};

    let front_end = FrontEndServer::start("127.0.0.1:0").expect("bind front end");
    let hub = front_end.hub();
    let mut img = Image::filled(96, 96, [40, 40, 40, 255]);
    hub.publish(Frame {
        sequence: 0,
        cycle: 1,
        time: 0.1,
        image: img.encode_raw(),
        monitors: vec![],
    });
    for y in 10..20 {
        for x in 10..20 {
            img.set(x, y, [250, 80, 10, 255]);
        }
    }
    hub.publish(Frame {
        sequence: 0,
        cycle: 2,
        time: 0.2,
        image: img.encode_raw(),
        monitors: vec![],
    });

    let stream = std::net::TcpStream::connect(front_end.addr()).unwrap();
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(5)))
        .unwrap();
    let mut reader = BufReader::new(stream.try_clone().unwrap());
    let mut writer = stream;
    let mut fetch = |path: &str| -> serde_json::Value {
        writer
            .write_all(format!("GET {path} HTTP/1.1\r\nHost: l\r\n\r\n").as_bytes())
            .unwrap();
        let (status, _, body) = read_blocking_response(&mut reader).unwrap();
        assert_eq!(status, 200, "GET {path}");
        serde_json::from_slice(&body).unwrap()
    };

    // All three requests ride the same keep-alive connection.
    let full1 = fetch("/api/poll?since=0&timeout_ms=100&mode=full");
    assert_eq!(full1["sequence"], 1);
    let prev = Image::decode_raw(&image_from_json(&full1).expect("decodable full frame")).unwrap();

    let delta2 = fetch("/api/poll?since=1&timeout_ms=100&mode=delta");
    assert_eq!(delta2["mode"], "delta");
    let (base, delta) = delta_from_json(&delta2).expect("parseable delta");
    assert_eq!(base, 1);
    assert!(
        !delta.tiles.is_empty() && delta.tiles.len() <= 4,
        "a 10x10 edit touches at most 4 tiles, got {}",
        delta.tiles.len()
    );

    let latest = fetch("/api/frame");
    let want = Image::decode_raw(&image_from_json(&latest).expect("decodable full frame")).unwrap();
    assert_eq!(
        apply_delta(&prev, &delta),
        want,
        "delta reconstruction must equal the full frame"
    );
    front_end.shutdown();
}

/// The analytical model and the catalog agree across all three datasets:
/// predicted delay is monotone in dataset size for every loop of Fig. 9.
#[test]
fn predicted_delays_are_monotone_in_dataset_size_for_every_loop() {
    let options = ExperimentOptions {
        size_scale: 1.0 / 256.0,
        max_virtual_time: SimTime::from_secs(60.0),
        ..ExperimentOptions::default()
    };
    for spec in LoopSpec::fig9_loops() {
        let mut last = 0.0;
        for dataset in DatasetKind::ALL {
            let result = run_loop_experiment(&spec, dataset, &options);
            assert!(
                result.predicted_delay > last,
                "{}: prediction not monotone",
                spec.name
            );
            last = result.predicted_delay;
        }
    }
}
