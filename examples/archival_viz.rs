//! Remote visualization of archival datasets (no live simulation).
//!
//! The paper notes that "in addition to real-time simulation programs, RICSA
//! can also support remote visualization for archival datasets".  This
//! example plans the optimal loop for each of the three archival datasets,
//! compares it against the PC–PC baseline and ParaView-style deployment
//! using the analytical delay model, and then actually runs the local
//! visualization pipeline (isosurface → render) on a reduced-resolution
//! preview of each dataset to produce an image.
//!
//! Run with: `cargo run --release --example archival_viz`

use ricsa::core::catalog::{standard_pipeline, SimulationCatalog};
use ricsa::netsim::presets::{fig8_topology, Fig8Site};
use ricsa::pipemap::baselines::{client_server_mapping, paraview_crs_mapping};
use ricsa::pipemap::dp::optimize;
use ricsa::pipemap::network::NetGraph;
use ricsa::pipemap::vrt::VisualizationRoutingTable;
use ricsa::viz::camera::Camera;
use ricsa::viz::isosurface::extract_isosurface;
use ricsa::viz::render::render_mesh;
use ricsa::vizdata::dataset::DatasetKind;

fn main() {
    let fig8 = fig8_topology();
    let graph = NetGraph::from_topology(&fig8.topology);
    let catalog = SimulationCatalog::default();
    let gatech = graph.index_of(fig8.node(Fig8Site::GaTech));
    let ut = graph.index_of(fig8.node(Fig8Site::UtCluster));
    let ornl = graph.index_of(fig8.node(Fig8Site::Ornl));

    println!("Analytical end-to-end delay per dataset (seconds):");
    println!(
        "{:<14}{:>12}{:>12}{:>14}   optimal loop",
        "dataset", "optimal", "PC-PC", "ParaView-crs"
    );
    for kind in DatasetKind::ALL {
        let dataset = catalog.datasets.get(kind);
        let pipeline = standard_pipeline(dataset.nominal_bytes(), &catalog.costs);
        let optimal = optimize(&pipeline, &graph, gatech, ornl).expect("feasible");
        let pc_pc = client_server_mapping(&pipeline, &graph, gatech, ornl)
            .map(|(_, d)| d.total)
            .unwrap_or(f64::NAN);
        let paraview = paraview_crs_mapping(&pipeline, &graph, gatech, ut, ornl, 1.3)
            .map(|(_, _, d)| d.total)
            .unwrap_or(f64::NAN);
        let vrt = VisualizationRoutingTable::from_mapping(
            &pipeline,
            &graph,
            &optimal.mapping,
            optimal.delay.total,
        );
        println!(
            "{:<14}{:>12.2}{:>12.2}{:>14.2}   {}",
            format!("{}({:.0}MB)", kind.name(), dataset.nominal_megabytes()),
            optimal.delay.total,
            pc_pc,
            paraview,
            vrt.describe()
        );
    }

    // Now run the actual pipeline locally on reduced-resolution previews.
    println!("\nLocal pipeline run on preview volumes:");
    for kind in DatasetKind::ALL {
        let dataset = catalog.datasets.get(kind);
        let field = dataset.generate_preview(400_000);
        let (lo, hi) = field.value_range();
        let iso = lo + 0.5 * (hi - lo);
        let surface = extract_isosurface(&field, iso, 16);
        let image = render_mesh(
            &surface.mesh,
            &Camera::with_viewport(256, 256),
            [0.4, 0.7, 0.9],
        );
        let path = std::env::temp_dir().join(format!("ricsa_{}.ppm", kind.name().to_lowercase()));
        std::fs::write(&path, image.encode_ppm()).expect("image written");
        println!(
            "  {:<10} preview {:>3}^3 voxels  active blocks {:>4}/{:<4}  {:>7} triangles  -> {}",
            kind.name(),
            field.dims.nx,
            surface.active_blocks,
            surface.total_blocks,
            surface.mesh.triangle_count(),
            path.display()
        );
    }
}
