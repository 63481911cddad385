//! Dynamic-scenario sweep: adaptation win rates across seeded schedules.
//!
//! Where `scenario_sweep` quantifies the *optimizer's* win rate across
//! generated static WANs (the paper's §6 methodology), this binary
//! quantifies the *adaptive controller's*: per scenario it generates a
//! WAN, derives a member of a seeded dynamic-schedule family, and runs
//! the frame-paced steering loop under static, adaptive and oracle
//! policies — plus a goodput-only adaptive run that measures how much
//! earlier the passive-RTT signal detects degradations.  Prints the
//! per-scenario table and the aggregate win-rate / oracle-gap /
//! detection statistics, asserts the frame audit (zero lost, zero
//! duplicated frames across every migration of every scenario), and
//! writes a BENCH json to `target/adapt_sweep.json`.
//!
//! Usage:
//! `cargo run --release -p ricsa-bench --bin adapt_sweep -- [--quick]
//!  [--wans N] [--schedules K] [--frames F] [--seed S] [--route-bias B]
//!  [--json PATH]`
//!
//! `--quick` evaluates 36 dynamic scenarios (12 WANs × 3 schedules) in a
//! few seconds; the default full sweep evaluates 240 (40 × 6) on larger
//! WANs.  DESIGN.md §9 explains how to read the output.

use ricsa_bench::{flag_value, write_bench_json};
use ricsa_core::adapt_sweep::{
    format_adapt_sweep_report, run_adapt_sweep, AdaptSweepConfig, AdaptSweepReport,
};
use ricsa_pipemap::sweep::{AdaptSweepRecord, AdaptSweepSummary};
use serde::Serialize;

/// What the BENCH json records: the configuration axes, the aggregate
/// statistics and the full per-scenario record set.
#[derive(Debug, Serialize)]
struct BenchJson {
    quick: bool,
    seed: u64,
    scenarios: usize,
    wans: usize,
    schedules_per_wan: usize,
    frames: u64,
    route_bias: f64,
    /// Mean wall-clock µs per warm (adaptive) re-solve across scenarios.
    warm_solve_us_mean: f64,
    /// Mean wall-clock µs per cold (oracle) re-solve across scenarios.
    cold_solve_us_mean: f64,
    summary: AdaptSweepSummary,
    records: Vec<AdaptSweepRecord>,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut config = if quick {
        AdaptSweepConfig::quick()
    } else {
        AdaptSweepConfig::full()
    };
    if let Some(n) = flag_value(&args, "--wans").and_then(|s| s.parse().ok()) {
        config.wans = n;
    }
    if let Some(k) = flag_value(&args, "--schedules").and_then(|s| s.parse().ok()) {
        config.schedules_per_wan = k;
    }
    if let Some(f) = flag_value(&args, "--frames").and_then(|s| s.parse().ok()) {
        config.frames = f;
    }
    if let Some(s) = flag_value(&args, "--seed").and_then(|s| s.parse().ok()) {
        config.seed = s;
    }
    if let Some(b) = flag_value(&args, "--route-bias").and_then(|s| s.parse().ok()) {
        config.route_bias = b;
    }
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "target/adapt_sweep.json".into());

    eprintln!(
        "running adaptation sweep: {} dynamic scenarios ({} WANs × {} schedules), \
         {}-{} nodes, {} frames/run, {} KiB dataset, route bias {:.0}%...",
        config.scenarios(),
        config.wans,
        config.schedules_per_wan,
        config.min_nodes,
        config.max_nodes,
        config.frames,
        config.dataset_bytes >> 10,
        100.0 * config.route_bias,
    );
    let report: AdaptSweepReport = run_adapt_sweep(&config);
    println!("{}", format_adapt_sweep_report(&report));

    // Hard acceptance checks: fail loudly instead of printing nonsense.
    for r in &report.records {
        assert_eq!(
            r.frames_lost, 0,
            "scenario {}: lost frames across a migration",
            r.id
        );
        assert_eq!(
            r.frames_duplicated, 0,
            "scenario {}: duplicated frames",
            r.id
        );
    }
    let s = &report.summary;
    assert!(
        s.compared >= report.records.len() / 2,
        "most scenarios must be comparable ({}/{})",
        s.compared,
        report.records.len()
    );

    // Mean per-solve cost over records whose runs actually re-solved
    // (a record reports 0 when no change ever confirmed — averaging
    // those in would understate the real per-solve price).
    let mean = |f: fn(&AdaptSweepRecord) -> f64| {
        let solved: Vec<f64> = report
            .records
            .iter()
            .map(f)
            .filter(|us| *us > 0.0)
            .collect();
        if solved.is_empty() {
            0.0
        } else {
            solved.iter().sum::<f64>() / solved.len() as f64
        }
    };
    let warm_solve_us_mean = mean(|r| r.warm_solve_us);
    let cold_solve_us_mean = mean(|r| r.cold_solve_us);
    println!(
        "re-solve cost across the sweep: warm (adaptive) {warm_solve_us_mean:.1} µs/solve \
         vs cold (oracle) {cold_solve_us_mean:.1} µs/solve"
    );

    let bench = BenchJson {
        quick,
        seed: config.seed,
        scenarios: config.scenarios(),
        wans: config.wans,
        schedules_per_wan: config.schedules_per_wan,
        frames: config.frames,
        route_bias: config.route_bias,
        warm_solve_us_mean,
        cold_solve_us_mean,
        summary: report.summary.clone(),
        records: report.records,
    };
    write_bench_json(&json_path, &bench);
}
