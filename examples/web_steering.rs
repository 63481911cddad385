//! Monitor and steer a live simulation from a web browser.
//!
//! Starts the Ajax front end on a local port, runs a Sod shock-tube
//! simulation in-process, renders a pressure isosurface every few cycles and
//! publishes it to the long-polling hub — the full RICSA user experience:
//! open the printed URL in a browser (or `curl .../api/state`), watch the
//! image update, and POST steering parameters while the run is in flight.
//!
//! Run with: `cargo run --release --example web_steering`
//! (set `RICSA_WEB_CYCLES` to control how long the simulation runs).

use ricsa::core::api::{SimulationCommand, SimulationServer};
use ricsa::hydro::problems::Problem;
use ricsa::hydro::steering::SteerableParams;
use ricsa::viz::camera::Camera;
use ricsa::viz::isosurface::extract_isosurface;
use ricsa::viz::render::render_mesh;
use ricsa::vizdata::field::Dims;
use ricsa::webfront::hub::Frame;
use ricsa::webfront::server::{FrontEndConfig, FrontEndServer};

fn main() {
    let cycles: u64 = std::env::var("RICSA_WEB_CYCLES")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400);

    // The default pool (8 workers, 1024 connections) is far more than one
    // browser needs; it is the same configuration the `webfront_load`
    // bench drives with hundreds of concurrent pollers.
    let config = FrontEndConfig::default();
    let front_end = FrontEndServer::start_with("127.0.0.1:8640", config.clone())
        .or_else(|_| FrontEndServer::start_with("127.0.0.1:0", config))
        .expect("bind the Ajax front end");
    println!(
        "RICSA Ajax front end listening on http://{}/",
        front_end.addr()
    );
    println!("  GET  /api/state   — monitored state as JSON");
    println!("  GET  /api/poll    — long-poll for the frame after since=N (mode=delta for tiles)");
    println!("  POST /api/steer   — submit steering parameters");
    let hub = front_end.hub();
    let inbox = front_end.inbox();

    // The simulation side (the paper's DS node), in-process.
    let mut server = SimulationServer::startup();
    let (commands, datasets) = server.wait_accept_connection();
    commands
        .send(SimulationCommand::Start {
            problem: Problem::SodShockTube,
            dims: Dims::new(128, 32, 16),
            params: SteerableParams {
                end_cycle: cycles,
                ..SteerableParams::default()
            },
        })
        .unwrap();

    let camera = Camera::with_viewport(256, 256);
    while server.run_cycle() {
        // Steering commands posted from the browser are applied between
        // cycles, exactly like RICSA_UpdateSimulationParameters.
        if let Some(params) = inbox.drain_latest() {
            println!("steering update from the web client: {params:?}");
            commands
                .send(SimulationCommand::UpdateParameters(SteerableParams {
                    end_cycle: cycles,
                    ..params
                }))
                .unwrap();
        }
        // Publish a frame every 5 cycles: extract + render the pressure
        // field and push it to the Ajax hub (only the image component of the
        // page updates).
        if server.cycle().is_multiple_of(5) {
            if let Some(snapshot) = datasets.try_iter().last() {
                let pressure = snapshot.variable("pressure").expect("published variable");
                let (lo, hi) = pressure.value_range();
                let iso = lo + 0.5 * (hi - lo);
                let surface = extract_isosurface(pressure, iso, 16);
                let image = render_mesh(&surface.mesh, &camera, [0.85, 0.55, 0.25]);
                let max_p = pressure.data.iter().cloned().fold(f32::MIN, f32::max);
                hub.publish(Frame {
                    sequence: 0,
                    cycle: snapshot.cycle,
                    time: snapshot.time,
                    image: image.encode_raw(),
                    monitors: vec![
                        ("max pressure".into(), max_p as f64),
                        ("isovalue".into(), iso as f64),
                        ("triangles".into(), surface.mesh.triangle_count() as f64),
                    ],
                });
            }
        }
    }
    println!(
        "simulation finished after {} cycles; {} frames published; front end stays up for 10 s",
        server.cycle(),
        hub.latest_sequence()
    );
    std::thread::sleep(std::time::Duration::from_secs(10));
    front_end.shutdown();
}
