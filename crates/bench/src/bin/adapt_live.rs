//! Live adaptive re-mapping under a seeded link-degradation scenario.
//!
//! Runs the same frame-paced steering loop on the two-route demo WAN
//! (`ricsa_core::adapt::demo_wan`) under three control policies — static
//! (the paper's measure-once-map-once), adaptive (passive telemetry +
//! change-point detection + warm re-solve + frame-boundary migration),
//! and oracle (re-solved from ground truth before every frame) — while a
//! scheduled event collapses the initially-optimal route to a fraction of
//! its bandwidth.  Prints per-policy loop delays before the event, after
//! it, and in steady state, the adaptive controller's re-map decision
//! latency, the warm-vs-cold re-solve cost, and the frame audit (zero
//! lost / zero duplicated frames across the migration).  A BENCH json
//! lands in `target/adapt_live.json`.
//!
//! Usage:
//! `cargo run --release -p ricsa-bench --bin adapt_live -- [--quick]
//!  [--frames N] [--seed S] [--json PATH]`
//!
//! `--quick` runs a smaller dataset and fewer frames (finishes in a few
//! seconds); the default run uses a Jet-scale dataset.  DESIGN.md §8
//! explains how to read the output.

use ricsa_adapt::monitor::AdaptConfig;
use ricsa_bench::{flag_value, write_bench_json};
use ricsa_core::adapt::{demo_wan, run_adaptive_loop, AdaptPolicy, AdaptiveLoopSpec, AdaptiveRun};
use ricsa_netsim::time::SimTime;
use ricsa_pipemap::pipeline::{ModuleSpec, Pipeline};
use serde::Serialize;

/// Per-policy summary row of the printed table and the BENCH json.
#[derive(Debug, Serialize)]
struct PolicyStats {
    policy: String,
    frames: u64,
    pre_event_mean_s: Option<f64>,
    post_event_mean_s: Option<f64>,
    steady_mean_s: Option<f64>,
    remaps: usize,
    frames_lost: u64,
    frames_duplicated: u64,
    solve_us_total: f64,
    solves: u64,
}

#[derive(Debug, Serialize)]
struct BenchJson {
    quick: bool,
    seed: u64,
    frames: u64,
    event_at_s: f64,
    degrade_factor: f64,
    stats: Vec<PolicyStats>,
    /// Virtual seconds from the event to the adaptive migration commit.
    remap_latency_s: Option<f64>,
    /// adaptive steady-state mean / oracle steady-state mean (≤ 1.10 is
    /// the acceptance bar).
    adaptive_vs_oracle: Option<f64>,
    /// static post-event mean / adaptive post-event mean (the win).
    static_vs_adaptive_post: Option<f64>,
    /// Mean microseconds per re-solve: adaptive (warm) vs oracle (cold).
    warm_solve_us_mean: Option<f64>,
    cold_solve_us_mean: Option<f64>,
    /// The adaptive run's deterministic decision trace.
    decisions: Vec<ricsa_adapt::monitor::DecisionRecord>,
}

fn summarize(run: &AdaptiveRun, event_at: f64) -> PolicyStats {
    PolicyStats {
        policy: run.policy.clone(),
        frames: run.frames_completed,
        pre_event_mean_s: run.mean_delay_where(|s| s < event_at),
        post_event_mean_s: run.mean_delay_where(|s| s >= event_at),
        steady_mean_s: run.steady_state_mean(STEADY_TAIL),
        remaps: run.migrations.len(),
        frames_lost: run.frames_lost,
        frames_duplicated: run.frames_duplicated,
        solve_us_total: run.solve_us_total,
        solves: run.solves,
    }
}

/// Frames averaged for the steady-state column (well past detection and
/// migration for every policy).
const STEADY_TAIL: usize = 5;

fn fmt_opt(v: Option<f64>) -> String {
    match v {
        Some(x) => format!("{x:.4}"),
        None => "-".into(),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let quick = args.iter().any(|a| a == "--quick");
    let frames: u64 = flag_value(&args, "--frames")
        .and_then(|s| s.parse().ok())
        .unwrap_or(if quick { 16 } else { 24 });
    let seed: u64 = flag_value(&args, "--seed")
        .and_then(|s| s.parse().ok())
        .unwrap_or(11);
    let json_path = flag_value(&args, "--json").unwrap_or_else(|| "target/adapt_live.json".into());

    // Quick: a 2 MB dataset keeps the three runs inside a few seconds of
    // wall clock.  Full: the paper's Jet dataset (16 MB).
    let dataset_bytes = if quick { 2e6 } else { 16e6 };
    let event_at = if quick { 1.5 } else { 4.0 };
    let degrade_factor = 0.08;

    let wan = demo_wan();
    let pipeline = Pipeline::new(
        "adapt-live",
        dataset_bytes,
        vec![
            ModuleSpec::new("filter", 2e-9, dataset_bytes),
            ModuleSpec::new("extract", 1e-8, dataset_bytes / 4.0),
            ModuleSpec::new("render", 5e-9, 2e5).requiring_graphics(),
        ],
    );
    let spec = AdaptiveLoopSpec {
        schedule: wan.degradation(event_at, degrade_factor),
        pipeline,
        source: wan.source,
        client: wan.client,
        cm: wan.cm,
        iterations: frames,
        seed,
        target_goodput: 200e6,
        adapt: AdaptConfig::default(),
        session: 1,
        max_virtual_time: SimTime::from_secs(600.0),
        topology: wan.topology.clone(),
    };

    eprintln!(
        "adapt_live: {frames} frames, {:.0} kB dataset, src–midA × {degrade_factor} at {event_at}s, seed {seed}...",
        dataset_bytes / 1e3
    );

    let run = |policy| run_adaptive_loop(&spec, policy).expect("demo WAN always admits a mapping");
    let static_run = run(AdaptPolicy::Static);
    let adaptive = run(AdaptPolicy::Adaptive);
    let oracle = run(AdaptPolicy::Oracle);

    // Determinism spot check: the decision trace must reproduce per seed.
    let adaptive2 = run(AdaptPolicy::Adaptive);
    assert_eq!(
        adaptive.decisions, adaptive2.decisions,
        "decision trace must be deterministic per seed"
    );

    let stats: Vec<PolicyStats> = [&static_run, &adaptive, &oracle]
        .iter()
        .map(|r| summarize(r, event_at))
        .collect();

    println!(
        "{:<10}{:>8}{:>14}{:>15}{:>13}{:>8}{:>6}{:>5}",
        "policy", "frames", "pre-event(s)", "post-event(s)", "steady(s)", "remaps", "lost", "dup"
    );
    for s in &stats {
        println!(
            "{:<10}{:>8}{:>14}{:>15}{:>13}{:>8}{:>6}{:>5}",
            s.policy,
            s.frames,
            fmt_opt(s.pre_event_mean_s),
            fmt_opt(s.post_event_mean_s),
            fmt_opt(s.steady_mean_s),
            s.remaps,
            s.frames_lost,
            s.frames_duplicated,
        );
    }

    let adaptive_vs_oracle = match (
        adaptive.steady_state_mean(STEADY_TAIL),
        oracle.steady_state_mean(STEADY_TAIL),
    ) {
        (Some(a), Some(o)) if o > 0.0 => Some(a / o),
        _ => None,
    };
    let static_vs_adaptive_post = match (
        static_run.mean_delay_where(|s| s >= event_at),
        adaptive.mean_delay_where(|s| s >= event_at),
    ) {
        (Some(st), Some(a)) if a > 0.0 => Some(st / a),
        _ => None,
    };
    let warm_solve_us_mean =
        (adaptive.solves > 0).then(|| adaptive.solve_us_total / adaptive.solves as f64);
    let cold_solve_us_mean =
        (oracle.solves > 0).then(|| oracle.solve_us_total / oracle.solves as f64);

    if let Some(mig) = adaptive.migrations.first() {
        // The decision record carries the old mapping re-priced on the
        // *updated* estimate (the migration record keeps plan-time values).
        let decided = adaptive.decisions.iter().find(|d| d.remapped);
        println!(
            "adaptive re-map: {:?} -> {:?} at t={:.2}s (decision latency {:.2}s after the event), predicted {} -> {:.3}s",
            mig.old_path,
            mig.new_path,
            mig.at,
            adaptive.remap_latency_s.unwrap_or(f64::NAN),
            fmt_opt(decided.map(|d| d.current_predicted)),
            mig.predicted_new,
        );
    } else {
        println!("adaptive re-map: none (no confirmed change cleared the margin)");
    }
    println!(
        "steady state: adaptive/oracle = {}  |  post-event win: static/adaptive = {}x",
        fmt_opt(adaptive_vs_oracle),
        fmt_opt(static_vs_adaptive_post),
    );
    println!(
        "re-solve cost: warm (adaptive) {} µs/solve vs cold (oracle) {} µs/solve",
        fmt_opt(warm_solve_us_mean),
        fmt_opt(cold_solve_us_mean),
    );

    // Hard acceptance checks: fail loudly instead of printing nonsense.
    for s in &stats {
        assert_eq!(
            s.frames_lost, 0,
            "{}: lost frames across migration",
            s.policy
        );
        assert_eq!(s.frames_duplicated, 0, "{}: duplicated frames", s.policy);
    }
    if let (Some(st), Some(a)) = (
        static_run.mean_delay_where(|s| s >= event_at),
        adaptive.mean_delay_where(|s| s >= event_at),
    ) {
        assert!(a < st, "adaptive post-event mean {a} must beat static {st}");
    }
    if let Some(ratio) = adaptive_vs_oracle {
        assert!(
            ratio <= 1.10,
            "adaptive steady state must be within 10% of the oracle (got {ratio:.3})"
        );
    }

    let bench = BenchJson {
        quick,
        seed,
        frames,
        event_at_s: event_at,
        degrade_factor,
        stats,
        remap_latency_s: adaptive.remap_latency_s,
        adaptive_vs_oracle,
        static_vs_adaptive_post,
        warm_solve_us_mean,
        cold_solve_us_mean,
        decisions: adaptive.decisions.clone(),
    };
    write_bench_json(&json_path, &bench);
}
