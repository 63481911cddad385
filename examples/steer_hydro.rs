//! Steer a live hydrodynamics simulation through the RICSA API.
//!
//! Reproduces the paper's Fig. 7 integration pattern: a VH1-like solver runs
//! its `sweepx; sweepy; sweepz;` main loop with the six `RICSA_*` hooks, a
//! "scientist" watches the monitored quantities, notices the run straying,
//! and steers it back by updating parameters mid-flight — the runaway-
//! computation scenario the introduction motivates.
//!
//! Run with: `cargo run --release --example steer_hydro`

use ricsa::core::api::{SimulationCommand, SimulationServer};
use ricsa::hydro::problems::Problem;
use ricsa::hydro::steering::SteerableParams;
use ricsa::viz::camera::Camera;
use ricsa::viz::isosurface::extract_isosurface;
use ricsa::viz::render::render_mesh;
use ricsa::vizdata::field::Dims;

fn main() {
    // RICSA_StartupSimulationServer / RICSA_WaitAcceptConnection.
    let mut server = SimulationServer::startup();
    let (commands, datasets) = server.wait_accept_connection();

    // The client requests a bow-shock run with a deliberately weak wind and
    // a slow ambient flow: too little ram pressure for a shock to form.
    commands
        .send(SimulationCommand::Start {
            problem: Problem::BowShock,
            dims: Dims::new(48, 32, 8),
            params: SteerableParams {
                drive_strength: 0.2,
                inflow_velocity: 1.0,
                end_cycle: 120,
                ..SteerableParams::default()
            },
        })
        .expect("server accepts commands");

    let mut steered = false;
    while server.run_cycle() {
        // The monitoring side: every pushed snapshot is inspected; the
        // maximum pressure tells the scientist whether the bow shock is
        // forming.
        if let Some(snapshot) = datasets.try_iter().last() {
            let pressure = snapshot
                .variable("pressure")
                .expect("pressure is published");
            let max_p = pressure.data.iter().cloned().fold(f32::MIN, f32::max);
            if server.cycle().is_multiple_of(20) {
                println!(
                    "cycle {:>4}  t={:.4}  max pressure = {max_p:.3}",
                    snapshot.cycle, snapshot.time
                );
            }
            // Steering decision: the weak wind never builds a shock, so at
            // cycle 40 the scientist cranks the wind and the flow up instead
            // of letting the allocation run out — the "saving a stray
            // simulation" case.
            if !steered && snapshot.cycle >= 40 && max_p < 3.0 {
                println!(">>> steering: drive strength 0.2 -> 2.5, inflow 1.0 -> 3.0");
                commands
                    .send(SimulationCommand::UpdateParameters(SteerableParams {
                        drive_strength: 2.5,
                        inflow_velocity: 3.0,
                        end_cycle: 120,
                        ..SteerableParams::default()
                    }))
                    .unwrap();
                steered = true;
            }
        }
    }

    // Render the final pressure field the way the CS node would; the
    // finishing cycle pushed it.
    let snapshot = datasets
        .try_iter()
        .last()
        .expect("the final cycle pushed a snapshot");
    let pressure = snapshot.variable("pressure").unwrap();
    let (lo, hi) = pressure.value_range();
    let iso = lo + 0.6 * (hi - lo);
    let surface = extract_isosurface(pressure, iso, 16);
    let image = render_mesh(
        &surface.mesh,
        &Camera::with_viewport(256, 256),
        [0.9, 0.6, 0.2],
    );
    let path = std::env::temp_dir().join("ricsa_bowshock.ppm");
    std::fs::write(&path, image.encode_ppm()).expect("image written");
    println!(
        "\nFinished after {} cycles; steering {}.",
        server.cycle(),
        if steered {
            "was applied"
        } else {
            "was not needed"
        }
    );
    println!(
        "Final pressure isosurface: {} triangles, rendered to {}",
        surface.mesh.triangle_count(),
        path.display()
    );
}
