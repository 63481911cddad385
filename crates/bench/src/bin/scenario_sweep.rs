//! Scenario sweep: evaluate the optimizer across generated WAN families.
//!
//! Generates Waxman and transit-stub topologies, maps the standard
//! isosurface pipeline onto each (relay-extended DP versus the
//! default-route baseline), simulates both loops on the discrete-event WAN,
//! and prints the win-rate / speedup distribution — the scenario-diversity
//! axis the paper's single six-site deployment (Fig. 8) cannot cover.
//! It also times the DP (pruned and unpruned) on large generated
//! topologies and writes everything as a BENCH json for trend tracking.
//!
//! Usage:
//! `cargo run --release -p ricsa-bench --bin scenario_sweep -- [--quick]
//!  [--scenarios N] [--no-sim] [--json PATH]`
//!
//! `--quick` runs 50 small simulated scenarios (CI scale, finishes in
//! seconds); the default is the full sweep (120 scenarios, up to 64 nodes,
//! Jet-sized dataset).  `--json PATH` overrides where the BENCH json goes
//! (default `target/scenario_sweep.json`).

use ricsa_bench::{flag_value, time_per_call, write_bench_json};
use ricsa_core::sweep::{format_sweep_report, run_sweep, SweepConfig, SweepReport};
use ricsa_netsim::generators::{waxman, WaxmanParams};
use ricsa_pipemap::dp::{optimize_with, DpOptions};
use ricsa_pipemap::network::NetGraph;
use ricsa_pipemap::pipeline::Pipeline;
use serde::Serialize;

/// One row of the DP-scaling timing table.
#[derive(Debug, Serialize)]
struct DpTiming {
    nodes: usize,
    links: usize,
    pruned_us: f64,
    unpruned_us: f64,
    states_expanded_pruned: u64,
    states_expanded_unpruned: u64,
}

/// What the BENCH json records: the sweep statistics plus the DP timings.
#[derive(Debug, Serialize)]
struct BenchJson {
    quick: bool,
    scenarios: usize,
    analytic: ricsa_pipemap::sweep::SweepSummary,
    simulated: ricsa_pipemap::sweep::SweepSummary,
    dp_timings: Vec<DpTiming>,
    /// Mean cold solve time across the sweep's scenarios, microseconds.
    dp_cold_us_mean: f64,
    /// Mean warm re-solve time (cold optimum as incumbent) — the re-map
    /// cost adaptive control pays per decision (DESIGN.md §8).
    dp_warm_us_mean: f64,
}

fn dp_timings(quick: bool) -> Vec<DpTiming> {
    let sizes: &[usize] = if quick {
        &[50, 100, 200]
    } else {
        &[50, 100, 200, 400]
    };
    let mut rows = Vec::new();
    for &nodes in sizes {
        let wan = waxman(&WaxmanParams::sized(nodes), 7);
        let graph = NetGraph::from_topology(&wan.topology);
        let pipeline = Pipeline::isosurface(16e6, 2e-9, 2.5e-8, 0.35, 6e-9, 1e6);
        let (src, dst) = (wan.source.0, wan.client.0);
        let pruned_opts = DpOptions::relayed();
        let unpruned_opts = DpOptions {
            prune: false,
            relay: true,
        };
        let pruned_us = time_per_call(10, || {
            optimize_with(&pipeline, &graph, src, dst, &pruned_opts)
        })
        .as_secs_f64()
            * 1e6;
        let unpruned_us = time_per_call(10, || {
            optimize_with(&pipeline, &graph, src, dst, &unpruned_opts)
        })
        .as_secs_f64()
            * 1e6;
        let (_, ps) = optimize_with(&pipeline, &graph, src, dst, &pruned_opts);
        let (_, us) = optimize_with(&pipeline, &graph, src, dst, &unpruned_opts);
        rows.push(DpTiming {
            nodes: graph.node_count(),
            links: graph.link_count(),
            pruned_us,
            unpruned_us,
            states_expanded_pruned: ps.states_expanded,
            states_expanded_unpruned: us.states_expanded,
        });
    }
    rows
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let no_sim = args.iter().any(|a| a == "--no-sim");
    let mut config = if quick {
        SweepConfig::quick()
    } else {
        SweepConfig::full()
    };
    if let Some(n) = flag_value(&args, "--scenarios").and_then(|s| s.parse().ok()) {
        config.scenarios = n;
    }
    if no_sim {
        config.simulate = false;
    }
    let json_path =
        flag_value(&args, "--json").unwrap_or_else(|| "target/scenario_sweep.json".into());

    eprintln!(
        "running scenario sweep: {} scenarios, {}-{} nodes, {} KiB dataset, simulation {}...",
        config.scenarios,
        config.min_nodes,
        config.max_nodes,
        config.dataset_bytes >> 10,
        if config.simulate { "on" } else { "off" }
    );
    let report: SweepReport = run_sweep(&config);
    println!("{}", format_sweep_report(&report));

    eprintln!("timing the DP on large generated topologies...");
    let timings = dp_timings(quick);
    println!("DP scaling on generated Waxman WANs (median per call):");
    println!(
        "{:>8}{:>8}{:>14}{:>16}{:>12}{:>14}",
        "nodes", "links", "pruned (µs)", "unpruned (µs)", "expanded", "vs unpruned"
    );
    for t in &timings {
        println!(
            "{:>8}{:>8}{:>14.1}{:>16.1}{:>12}{:>14}",
            t.nodes,
            t.links,
            t.pruned_us,
            t.unpruned_us,
            t.states_expanded_pruned,
            t.states_expanded_unpruned
        );
    }

    let solved: Vec<&ricsa_pipemap::sweep::SweepRecord> = report
        .outcomes
        .iter()
        .map(|o| &o.record)
        .filter(|r| r.optimal_delay.is_some())
        .collect();
    let mean = |f: fn(&ricsa_pipemap::sweep::SweepRecord) -> f64| {
        if solved.is_empty() {
            0.0
        } else {
            solved.iter().map(|r| f(r)).sum::<f64>() / solved.len() as f64
        }
    };
    let (dp_cold_us_mean, dp_warm_us_mean) = (mean(|r| r.dp_cold_us), mean(|r| r.dp_warm_us));
    println!(
        "DP re-solve cost over the sweep: cold {dp_cold_us_mean:.1} µs vs warm-started {dp_warm_us_mean:.1} µs per scenario"
    );

    let bench = BenchJson {
        quick,
        scenarios: config.scenarios,
        analytic: report.analytic.clone(),
        simulated: report.simulated.clone(),
        dp_timings: timings,
        dp_cold_us_mean,
        dp_warm_us_mean,
    };
    write_bench_json(&json_path, &bench);
}
