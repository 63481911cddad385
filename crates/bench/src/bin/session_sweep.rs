//! Multi-session sweep: contention-aware joint mapping at serving scale.
//!
//! Per cell (contention family × session count N) this binary spawns N
//! frame-paced user loops on the shared-trunk contention WAN and runs
//! them to completion under three mapping policies — N independent
//! solves, the link-pricing joint solve, and the client/server baseline
//! — then reports aggregate throughput, p99 frame latency and the Jain
//! fairness index per run, plus the per-cell joint-vs-independent
//! comparison.  Asserts the per-session frame audit on every run (zero
//! lost, zero duplicated frames) and that the joint policy beats
//! independent on throughput *and* fairness at N = 8 in at least one
//! family, then writes a BENCH json to `target/session_sweep.json`.
//!
//! Usage:
//! `cargo run --release -p ricsa-bench --bin session_sweep -- [--quick]
//!  [--frames F] [--seed S] [--json PATH]`
//!
//! `--quick` evaluates N ∈ {2, 8} across two families in seconds; the
//! default full sweep adds N = 32 and a heavy uniform family.
//! DESIGN.md §11 explains the WAN and how to read the output.

use ricsa_bench::{flag_value, write_bench_json};
use ricsa_core::session_sweep::{
    format_session_sweep_report, run_session_sweep, SessionSweepConfig, SessionSweepRecord,
    SessionSweepReport,
};
use serde::Serialize;

/// What the BENCH json records: the configuration axes, the per-cell
/// comparisons and the full record set.
#[derive(Debug, Serialize)]
struct BenchJson {
    quick: bool,
    seed: u64,
    frames: u64,
    session_counts: Vec<usize>,
    families: Vec<String>,
    joint_double_wins: usize,
    cells: usize,
    report: SessionSweepReport,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let mut config = if quick {
        SessionSweepConfig::quick()
    } else {
        SessionSweepConfig::full()
    };
    if let Some(f) = flag_value(&args, "--frames").and_then(|s| s.parse().ok()) {
        config.frames = f;
    }
    if let Some(s) = flag_value(&args, "--seed").and_then(|s| s.parse().ok()) {
        config.seed = s;
    }
    let json_path =
        flag_value(&args, "--json").unwrap_or_else(|| "target/session_sweep.json".into());

    eprintln!(
        "running multi-session sweep: {} cells ({} families × N ∈ {:?}), \
         {} frames/session, 3 policies per cell...",
        config.cells(),
        config.families.len(),
        config.session_counts,
        config.frames,
    );
    let report = run_session_sweep(&config);
    println!("{}", format_session_sweep_report(&report));

    // Hard acceptance checks: fail loudly instead of printing nonsense.
    let expected = config.cells() * 3;
    assert_eq!(
        report.records.len(),
        expected,
        "every policy must complete on every cell ({}/{expected})",
        report.records.len()
    );
    for r in &report.records {
        assert_eq!(
            r.lost, 0,
            "{} n={} {}: lost frames — the session audit failed",
            r.family, r.n, r.policy
        );
        assert_eq!(
            r.duplicated, 0,
            "{} n={} {}: duplicated frames",
            r.family, r.n, r.policy
        );
        assert_eq!(
            r.completed,
            config.frames * r.n as u64,
            "{} n={} {}: every session must deliver every frame",
            r.family,
            r.n,
            r.policy
        );
    }
    // The tentpole claim: under contention (N = 8) the joint solve beats
    // N independent solves on aggregate throughput AND fairness in at
    // least one seeded family.
    let joint_wins_at_8 = report
        .comparisons
        .iter()
        .filter(|c| c.n == 8 && c.joint_wins_both)
        .count();
    assert!(
        joint_wins_at_8 >= 1,
        "joint must beat independent on fps and fairness at N=8 in some family: {:?}",
        report.comparisons
    );
    let mean = |f: fn(&SessionSweepRecord) -> f64, policy: &str| {
        let v: Vec<f64> = report
            .records
            .iter()
            .filter(|r| r.policy == policy)
            .map(f)
            .collect();
        v.iter().sum::<f64>() / v.len().max(1) as f64
    };
    println!(
        "mean aggregate fps: joint {:.3} vs independent {:.3} vs client/server {:.3}",
        mean(|r| r.aggregate_fps, "joint"),
        mean(|r| r.aggregate_fps, "independent"),
        mean(|r| r.aggregate_fps, "client-server"),
    );
    println!(
        "mean p99 frame delay: joint {:.3}s vs independent {:.3}s vs client/server {:.3}s",
        mean(|r| r.p99_delay_s, "joint"),
        mean(|r| r.p99_delay_s, "independent"),
        mean(|r| r.p99_delay_s, "client-server"),
    );

    let bench = BenchJson {
        quick,
        seed: config.seed,
        frames: config.frames,
        session_counts: config.session_counts.clone(),
        families: config.families.iter().map(|f| f.label.clone()).collect(),
        joint_double_wins: report.joint_double_wins(),
        cells: config.cells(),
        report,
    };
    write_bench_json(&json_path, &bench);
}
