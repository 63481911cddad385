//! Regenerate Fig. 9: end-to-end delay of the six visualization loops for
//! the Jet (16 MB), Rage (64 MB) and Visible Woman (108 MB) datasets.
//!
//! Usage: `cargo run --release -p ricsa-bench --bin fig9_loops [--quick]`
//!
//! `--quick` runs at 1/64th dataset scale (seconds instead of minutes) and
//! is what CI uses; the full run reproduces the paper-scale dataset sizes.

use ricsa_core::experiment::{fig9_experiment, format_fig9_table, ExperimentOptions, LoopSpec};

fn main() {
    let quick = std::env::args().any(|a| a == "--quick");
    let options = if quick {
        ExperimentOptions::quick()
    } else {
        ExperimentOptions::default()
    };
    eprintln!(
        "running Fig. 9 reproduction ({} scale, {} iteration(s) per loop)...",
        if quick { "1/64" } else { "full" },
        options.iterations
    );
    let (rows, results) = fig9_experiment(&options);
    println!("{}", format_fig9_table(&rows, &LoopSpec::fig9_loops()));
    println!("Chosen mappings and model predictions:");
    for r in &results {
        println!(
            "  {:<46} {:<10} measured {:>8.2} s   predicted {:>8.2} s   {}",
            r.loop_name, r.dataset, r.measured_delay, r.predicted_delay, r.mapping
        );
    }
    // The paper's headline claim: the optimal loop achieves >3x speedup over
    // the default client/server mode at ~100 MB.
    if let Some(last) = rows.last() {
        let optimal = last.loop_delays[0];
        let pc_pc = last.loop_delays[4].min(last.loop_delays[5]);
        println!(
            "\nSpeedup of the optimal loop over the best PC-PC loop on {}: {:.2}x",
            last.dataset,
            pc_pc / optimal.max(1e-9)
        );
    }
}
