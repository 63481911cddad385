//! Golden record of the live-steering frame path: the simulation's main
//! loop, isosurface extraction and rendering, as the `live_steer` benchmark
//! workload drives them.
//!
//! A stellar-wind bow shock runs through `SimulationServer::run_cycle`.
//! Halfway through, one `UpdateParameters` steers γ, the wind strength and
//! the inflow speed.  After every cycle the pushed snapshot is extracted at
//! its mid-range pressure isovalue and rendered with the benchmark's camera
//! and colour.  Three FNV-1a digests cover what comes out:
//!
//! * `fields` — the cycle and time bits and every density, pressure and
//!   speed bit of every snapshot;
//! * `mesh` — every position, normal and index of every extracted mesh,
//!   its case histogram and its block counts;
//! * `image` — every rendered RGBA byte.
//!
//! So a faster solver, extractor or rasterizer that keeps them has kept
//! every state, mesh and pixel to the bit, on however many cores it ran.
//! The digests were captured at the commit that introduced them and are not
//! to be edited by a change that claims to preserve behaviour.

use ricsa::core::api::{SimulationCommand, SimulationServer};
use ricsa::hydro::problems::Problem;
use ricsa::hydro::steering::SteerableParams;
use ricsa::viz::camera::Camera;
use ricsa::viz::isosurface::extract_isosurface;
use ricsa::viz::render::render_mesh;
use ricsa::vizdata::field::Dims;

/// A stop cycle no run here reaches.
const END_CYCLE: u64 = 10_000_000;

/// A 64-bit FNV-1a hash fed with raw bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 = (self.0 ^ u64::from(byte)).wrapping_mul(0x100_0000_01B3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f32s(&mut self, values: &[f32]) {
        for v in values {
            self.bytes(&v.to_bits().to_le_bytes());
        }
    }
}

/// Run `cycles` cycles on a `grid`, steering once halfway, and return the
/// three digests plus the last frame's triangle count.
fn frame_records(grid: (usize, usize, usize), cycles: u64, edge: usize) -> String {
    let mut server = SimulationServer::startup();
    let (commands, datasets) = server.wait_accept_connection();
    let start = SteerableParams {
        end_cycle: END_CYCLE,
        ..SteerableParams::default()
    };
    commands
        .send(SimulationCommand::Start {
            problem: Problem::BowShock,
            dims: Dims::new(grid.0, grid.1, grid.2),
            params: start,
        })
        .unwrap();
    let camera = Camera::with_viewport(edge, edge);
    let (mut fields, mut mesh, mut image) = (Fnv::new(), Fnv::new(), Fnv::new());
    let mut triangles = 0;
    for cycle in 0..cycles {
        if cycle == cycles / 2 {
            commands
                .send(SimulationCommand::UpdateParameters(SteerableParams {
                    gamma: 1.5,
                    drive_strength: 1.7,
                    inflow_velocity: 2.6,
                    ..start
                }))
                .unwrap();
        }
        assert!(server.run_cycle(), "cycle {cycle} finished the run");
        let snapshot = datasets.try_iter().last().expect("a snapshot per cycle");
        fields.u64(snapshot.cycle);
        fields.u64(snapshot.time.to_bits());
        for name in ["density", "pressure", "velocity"] {
            fields.f32s(&snapshot.variable(name).expect("standard variable").data);
        }

        let pressure = snapshot.variable("pressure").unwrap();
        let (lo, hi) = pressure.value_range();
        let surface = extract_isosurface(pressure, lo + 0.5 * (hi - lo), 16);
        for p in surface.mesh.positions.iter().chain(&surface.mesh.normals) {
            mesh.f32s(p);
        }
        for &i in &surface.mesh.indices {
            mesh.bytes(&i.to_le_bytes());
        }
        for (&count, &emitted) in surface
            .histogram
            .counts
            .iter()
            .zip(&surface.histogram.triangles)
        {
            mesh.u64(count);
            mesh.u64(emitted);
        }
        mesh.u64(surface.active_blocks as u64);
        mesh.u64(surface.total_blocks as u64);
        triangles = surface.mesh.triangle_count();

        let frame = render_mesh(&surface.mesh, &camera, [0.85, 0.55, 0.25]);
        image.bytes(&frame.pixels);
    }
    format!(
        "fields {:016x} mesh {:016x} image {:016x} triangles {triangles}",
        fields.0, mesh.0, image.0
    )
}

#[test]
fn a_short_steered_bow_shock_is_pinned_frame_for_frame() {
    assert_eq!(
        frame_records((32, 32, 16), 24, 128),
        "fields a7f4f8be882766a6 mesh 020e3d26b3a2957b image 3d9e0d836a75d308 triangles 2140"
    );
}

/// The benchmark's geometry: 64×64×32 cells, 120 cycles, 256×256 pixels.
#[test]
#[ignore = "the benchmark geometry; run in release with --include-ignored"]
fn the_benchmark_geometry_is_pinned_frame_for_frame() {
    assert_eq!(
        frame_records((64, 64, 32), 120, 256),
        "fields 8e0692153421f2fc mesh 213e12cf806f45f4 image 9656f0066929ab03 triangles 14540"
    );
}
