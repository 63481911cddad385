//! Regenerate Fig. 10: RICSA's optimal loop versus a ParaView-style
//! client / render-server / data-server deployment on the same route.
//!
//! Usage: `cargo run --release -p ricsa-bench --bin fig10_paraview [--quick]`

use ricsa_core::experiment::{fig10_experiment, format_fig10_table, ExperimentOptions};

/// Processing/protocol overhead factor applied to the ParaView deployment;
/// the paper attributes its measured gap to "higher processing and
/// communication overhead incurred by visualization and network transfer
/// functions used in ParaView".
const PARAVIEW_OVERHEAD: f64 = 1.35;

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let options = if quick {
        ExperimentOptions::quick()
    } else {
        ExperimentOptions::default()
    };
    eprintln!(
        "running Fig. 10 reproduction ({} scale)...",
        if quick { "1/64" } else { "full" }
    );
    let (rows, results) = fig10_experiment(&options, PARAVIEW_OVERHEAD);
    println!("{}", format_fig10_table(&rows));
    println!("Configurations:");
    for r in &results {
        println!(
            "  {:<58} {:<10} measured {:>8.2} s   {}",
            r.loop_name, r.dataset, r.measured_delay, r.mapping
        );
    }
}
