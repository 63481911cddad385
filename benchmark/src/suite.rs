//! `run` and `aa`: the whole set of workloads, each in a fresh process.

use crate::report::{fmt_value, Better, END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::{out_dir, WORKLOADS};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

/// Length of the measured window when `--seconds` is not given; equals
/// `run_seconds` in `BENCHMARK.json`.
pub const DEFAULT_SECONDS: f64 = 20.0;

/// What one child process (one workload, one trace mode) reported.
struct ChildReport {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// Every `metric <name> <value> <unit>` line it printed.
    metrics: BTreeMap<String, f64>,
}

/// Results of one workload: the untraced run, and the traced one if asked.
pub struct WorkloadResult {
    name: &'static str,
    untraced: ChildReport,
    traced: Option<ChildReport>,
}

/// Results of one pass over the workloads.
pub struct Set {
    /// Every child exited cleanly and verified its outputs.
    pub correct: bool,
    workloads: Vec<WorkloadResult>,
}

fn run_child(workload: &str, seed: u64, seconds: f64, trace: bool) -> Result<ChildReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let mut child = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("cannot start {workload}: {e}"))?;
    let stdout = child.stdout.take().expect("stdout is piped");
    let mut metrics = BTreeMap::new();
    let mut last = String::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("{workload}: reading its output: {e}"))?;
        if let Some(rest) = line.strip_prefix("metric ") {
            let mut fields = rest.split_whitespace();
            if let (Some(name), Some(value)) = (fields.next(), fields.next()) {
                if let Ok(value) = value.parse::<f64>() {
                    metrics.insert(name.to_string(), value);
                }
            }
        }
        // The result object is for the driver; everything else is for the
        // reader.
        if !line.starts_with('{') {
            println!("  {line}");
        }
        last = line;
    }
    let status = child
        .wait()
        .map_err(|e| format!("{workload}: waiting for it: {e}"))?;
    let result: serde_json::Value = serde_json::from_str(&last)
        .map_err(|_| format!("{workload} exited with {status} and printed no result"))?;
    Ok(ChildReport {
        correct: status.success() && result["correct"].as_bool() == Some(true),
        attempted: result["attempted"].as_u64().unwrap_or(0),
        failed: result["failed"].as_u64().unwrap_or(0),
        metrics,
    })
}

/// Run every workload (or the one named) in a fresh process each, print
/// the summary and write `result.json`.
pub fn run(
    only: Option<&str>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
) -> Result<Set, String> {
    if let Some(name) = only {
        crate::find_workload(name)?;
    }
    let seconds = seconds.unwrap_or(DEFAULT_SECONDS);
    let mut workloads = Vec::new();
    for workload in WORKLOADS
        .iter()
        .filter(|w| only.is_none_or(|n| n == w.name))
    {
        println!("== {} (seed {seed}, {seconds} s)", workload.name);
        let untraced = run_child(workload.name, seed, seconds, false)?;
        let traced = if trace {
            println!("== {} traced", workload.name);
            Some(run_child(workload.name, seed, seconds, true)?)
        } else {
            None
        };
        workloads.push(WorkloadResult {
            name: workload.name,
            untraced,
            traced,
        });
    }
    let set = Set {
        correct: workloads
            .iter()
            .all(|w| w.untraced.correct && w.traced.as_ref().is_none_or(|t| t.correct)),
        workloads,
    };
    print_summary(&set);
    write_json("result.json", &set_json(&set, seed, seconds));
    Ok(set)
}

fn print_summary(set: &Set) {
    println!("\n== end-to-end (untraced runs)");
    print!("{:<22}", "metric");
    for w in &set.workloads {
        print!("{:>20}", w.name);
    }
    println!();
    for def in END_TO_END {
        print!("{:<22}", format!("{} [{}]", def.name, def.unit));
        for w in &set.workloads {
            match w.untraced.metrics.get(def.name) {
                Some(v) => print!("{v:>20.4}"),
                None => print!("{:>20}", "-"),
            }
        }
        println!();
    }
    // Quantities only some workloads have: omitted elsewhere, not zero.
    for def in PER_LAYER.iter().filter(|d| !d.name.contains('.')) {
        print!("{:<22}", format!("{} [{}]", def.name, def.unit));
        for w in &set.workloads {
            match w.untraced.metrics.get(def.name) {
                Some(v) => print!("{v:>20.6}"),
                None => print!("{:>20}", "-"),
            }
        }
        println!();
    }
    print!("{:<22}", "failed / attempted");
    for w in &set.workloads {
        print!(
            "{:>20}",
            format!("{} / {}", w.untraced.failed, w.untraced.attempted)
        );
    }
    println!();
    for w in &set.workloads {
        if let Some(traced) = &w.traced {
            // Traced vs untraced process: the overhead of tracing as a
            // user of `run --trace` sees it.
            let p50 = |r: &ChildReport| r.metrics.get("op_latency_p50_ms").copied();
            if let (Some(on), Some(off)) = (p50(traced), p50(&w.untraced)) {
                println!(
                    "{}: traced run op_latency_p50_ms {on:.4} vs untraced {off:.4} ({:+.2} %)",
                    w.name,
                    (on - off) / off * 100.0
                );
            }
        }
    }
}

fn metrics_json(report: &ChildReport) -> serde_json::Value {
    let metrics: BTreeMap<&str, f64> = report
        .metrics
        .iter()
        .map(|(name, value)| (name.as_str(), *value))
        .collect();
    serde_json::json!({
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": metrics,
    })
}

fn set_json(set: &Set, seed: u64, seconds: f64) -> serde_json::Value {
    let workloads: BTreeMap<&str, serde_json::Value> = set
        .workloads
        .iter()
        .map(|w| {
            let mut entry = serde_json::json!({ "untraced": metrics_json(&w.untraced) });
            if let (Some(traced), serde_json::Value::Object(map)) = (&w.traced, &mut entry) {
                map.insert("traced".into(), metrics_json(traced));
            }
            (w.name, entry)
        })
        .collect();
    serde_json::json!({
        "seed": seed,
        "seconds": seconds,
        "available_parallelism": std::thread::available_parallelism().map_or(1, |n| n.get()),
        "correct": set.correct,
        "workloads": workloads,
    })
}

fn write_json(file: &str, value: &serde_json::Value) {
    let path = out_dir().join(file);
    let written =
        std::fs::create_dir_all(out_dir()).and_then(|()| std::fs::write(&path, value.to_string()));
    match written {
        Ok(()) => println!("wrote {}", path.display()),
        Err(e) => eprintln!("could not write {}: {e}", path.display()),
    }
}

/// Quantities that are computed, not timed: every run of one seed must
/// report the same value.  `(metric, workloads it is exact on, relative
/// tolerance)`.  Only the wire bytes have a tolerance: every payload
/// carries the hub's epoch, a nanosecond clock reading of 15 or 16 digits,
/// so a frame's size may differ by a byte between runs.
const EXACT: &[(&str, &[&str], f64)] = &[
    (
        "wire_bytes_per_frame",
        &["serve_full", "serve_delta_multi"],
        1e-5,
    ),
    ("loop_delay_virtual_s", &["wan_loop"], 0.0),
    ("model_error_pct", &["wan_loop"], 0.0),
    ("plan_objective_sum", &["wan_plan"], 0.0),
];

/// Runs per set and workload in `aa`; the sets' medians are compared.
const AA_ROUNDS: usize = 3;

/// How far `b` is from `a`, as a share of `a`, counted in the direction
/// that is worse for the metric (0 when `b` is better).
fn worsening(better: Better, a: f64, b: f64) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
    .max(0.0)
}

/// Every value `sets` report for `metric` on workload number `workload`.
fn values_of(sets: &[Set], workload: usize, metric: &str) -> Vec<f64> {
    sets.iter()
        .filter_map(|set| {
            set.workloads[workload]
                .untraced
                .metrics
                .get(metric)
                .copied()
        })
        .collect()
}

/// Run the full set twice — interleaved, [`AA_ROUNDS`] runs of each, so a
/// slow drift of the box falls on both alike — and compare the medians:
/// every end-to-end metric of every workload must agree within its bound
/// (whichever set is taken as the reference), and every exact quantity must
/// be the same in every run.
pub fn aa(seed: u64, seconds: Option<f64>) -> Result<bool, String> {
    let seconds_used = seconds.unwrap_or(DEFAULT_SECONDS);
    let mut sets: [Vec<Set>; 2] = [Vec::new(), Vec::new()];
    for round in 0..AA_ROUNDS {
        for (side, runs) in sets.iter_mut().enumerate() {
            println!(
                "==== A/A set {}, run {} of {AA_ROUNDS}",
                side + 1,
                round + 1
            );
            runs.push(run(None, seed, seconds, false)?);
        }
    }
    let [first, second] = &sets;
    let mut agree = first.iter().chain(second).all(|set| set.correct);
    let mut comparison = Vec::new();
    println!("\n== A/A: medians of {AA_ROUNDS} runs, share by which they differ (bound)");
    for (index, workload) in WORKLOADS.iter().enumerate() {
        for def in END_TO_END {
            let (x, y) = (
                values_of(first, index, def.name),
                values_of(second, index, def.name),
            );
            if x.len() != AA_ROUNDS || y.len() != AA_ROUNDS {
                return Err(format!(
                    "{}: {} missing from a run",
                    workload.name, def.name
                ));
            }
            let (x, y) = (median(&x), median(&y));
            let bound = def.bound.expect("end-to-end metrics have bounds");
            let spread = worsening(def.better, x, y).max(worsening(def.better, y, x));
            let ok = spread <= bound;
            agree &= ok;
            println!(
                "{:<20}{:<22}{:>14.6} {:>14.6} {:>8.2} % ({:.0} %){}",
                workload.name,
                def.name,
                x,
                y,
                spread * 100.0,
                bound * 100.0,
                if ok { "" } else { "  OUT OF BOUND" }
            );
            comparison.push(serde_json::json!({
                "workload": workload.name,
                "metric": def.name,
                "first_median": x,
                "second_median": y,
                "spread": spread,
                "bound": bound,
                "within_bound": ok,
            }));
        }
        for (metric, _, tolerance) in EXACT
            .iter()
            .filter(|(_, on, _)| on.contains(&workload.name))
        {
            let mut all = values_of(first, index, metric);
            all.extend(values_of(second, index, metric));
            let (low, high) = all
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
            let ok = all.len() == 2 * AA_ROUNDS && high - low <= tolerance * low.abs();
            agree &= ok;
            println!(
                "{:<20}{:<22}{:>14} {:>14}    exact to {tolerance:e}{}",
                workload.name,
                metric,
                fmt_value(low),
                fmt_value(high),
                if ok { "" } else { "  DIFFERS" }
            );
            comparison.push(serde_json::json!({
                "workload": workload.name,
                "metric": metric,
                "lowest": low,
                "highest": high,
                "tolerance": tolerance,
                "same_in_every_run": ok,
            }));
        }
    }
    let runs_json = |runs: &[Set]| -> Vec<serde_json::Value> {
        runs.iter()
            .map(|set| set_json(set, seed, seconds_used))
            .collect()
    };
    write_json(
        "aa.json",
        &serde_json::json!({
            "agree": agree,
            "first": runs_json(first),
            "second": runs_json(second),
            "comparison": comparison,
        }),
    );
    println!("A/A {}", if agree { "passed" } else { "FAILED" });
    Ok(agree)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn worsening_follows_the_metric_direction() {
        assert_eq!(worsening(Better::Lower, 10.0, 11.0), 0.1);
        assert_eq!(worsening(Better::Lower, 10.0, 9.0), 0.0);
        assert_eq!(worsening(Better::Higher, 100.0, 93.0), 0.07);
        assert_eq!(worsening(Better::Higher, 100.0, 120.0), 0.0);
    }

    #[test]
    fn exact_quantities_name_real_metrics_and_workloads() {
        for (metric, on, _) in EXACT {
            assert!(PER_LAYER.iter().any(|d| d.name == *metric), "{metric}");
            for workload in *on {
                assert!(WORKLOADS.iter().any(|w| w.name == *workload), "{workload}");
            }
        }
    }
}
