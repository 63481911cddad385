//! The RICSA reproduction's benchmark: one command for the whole path.
//!
//! ```text
//! ricsa-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ricsa-benchmark run [--workload <name>] [--seed <n>] [--seconds <s>] [--trace]
//! ricsa-benchmark aa  [--seed <n>] [--seconds <s>]
//! ricsa-benchmark describe [--glossary]
//! ```
//!
//! The first form runs one workload in this process and prints, as its
//! last line, the result object the driver reads.  `run` re-executes this
//! binary once per workload (a fresh process each, so `peak_rss_mb` is per
//! workload) and prints every metric; `aa` does that twice (three runs
//! each, interleaved) and fails when the two sets' medians disagree by more
//! than the metrics' bounds.  See README.md.

mod inputs;
mod report;
mod serve;
mod slices;
mod stats;
mod suite;
mod trace;
mod wan;
mod wire;

use report::Outcome;
use std::path::PathBuf;
use std::time::Instant;

/// A workload: its name, why it exists, and its entry point.
pub struct Workload {
    /// Name on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// What one *operation* is — the unit `op_latency_*` and `ops_per_s`
    /// count.
    pub op: &'static str,
    /// Why the workload exists (one line; `BENCHMARK.json` records it).
    pub why: &'static str,
    run: fn(&Ctx) -> Outcome,
}

/// The five workloads.
pub const WORKLOADS: &[Workload] = &[
    Workload {
        name: "live_steer",
        op: "one frame delivered to one connection (end of its cycle to pixels decoded)",
        why: "real hydro -> isosurface -> render -> hub -> HTTP path with steering POSTs; compute-dominated, so hydro and viz gains show here only",
        run: serve::live_steer,
    },
    Workload {
        name: "serve_full",
        op: "one frame delivered to one connection (start of publish to pixels decoded)",
        why: "lock-step full-frame polls, about 340 KB per response: payload copy, socket write, envelope size and client decode dominate",
        run: serve::serve_full,
    },
    Workload {
        name: "serve_delta_multi",
        op: "one frame delivered to one connection (start of the step's first publish to pixels decoded)",
        why: "lock-step delta polls through MultiFrontEnd, two sessions: the publish side (diff, tile RLE, two encodes) dominates small responses",
        run: serve::serve_delta_multi,
    },
    Workload {
        name: "wan_plan",
        op: "one pass: the 48 corpus WANs planned once each (graph build, cold solve, 8 warm re-solves, joint solve of 32 sessions)",
        why: "the DP mapper on a fixed corpus of generated WANs with seeded sessions and drift: cold, warm and joint solve changes show here, not in wan_loop",
        run: wan::wan_plan,
    },
    Workload {
        name: "wan_loop",
        op: "one pass: 24 planned loops simulated to completion (the 18 Fig. 9 runs, 3 multi-session runs, 3 adaptive runs) and one transport flow",
        why: "netsim event loop + transport + core drivers on the paper's Fig. 9 loops, contention WANs and an adaptive loop; carries predicted-vs-measured",
        run: wan::wan_loop,
    },
];

/// Fewest complete set-ups performed per run; `setup_s` is their median.
pub const SETUP_REPEATS: usize = 5;
/// Set-ups are repeated until they have taken this long in all, so that a
/// cheap set-up is repeated often enough for its median to be steady...
const SETUP_MIN_S: f64 = 2.5;
/// ...but no more often than this.
const SETUP_MAX_REPEATS: usize = 60;

/// Set up repeatedly, tearing down all but the last; returns what the last
/// set-up built and the median wall time of one set-up, seconds.
pub fn set_up_repeatedly<T>(
    mut set_up: impl FnMut() -> Result<T, String>,
    mut tear_down: impl FnMut(T),
) -> Result<(T, f64), String> {
    let started = Instant::now();
    let mut took_s = Vec::new();
    let mut kept = None;
    loop {
        if let Some(previous) = kept.take() {
            tear_down(previous);
        }
        let t = Instant::now();
        kept = Some(set_up()?);
        took_s.push(t.elapsed().as_secs_f64());
        let steady =
            took_s.len() >= SETUP_REPEATS && started.elapsed().as_secs_f64() >= SETUP_MIN_S;
        if steady || took_s.len() >= SETUP_MAX_REPEATS {
            let last = kept.expect("a set-up just succeeded");
            return Ok((last, stats::median(&took_s)));
        }
    }
}

/// Default `--seed`.
pub const DEFAULT_SEED: u64 = 20080609;

/// The run's clock origin: every span time is nanoseconds since it.
#[derive(Debug, Clone, Copy)]
pub struct Clock {
    origin: Instant,
}

impl Clock {
    /// Nanoseconds from the origin to `at`.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }
}

/// What a workload is run with.
pub struct Ctx {
    /// Workload name (names the trace file).
    pub workload: &'static str,
    /// Input seed.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: f64,
    /// Record spans and produce the per-layer metrics.
    pub trace: bool,
    /// Clock origin of span times.
    pub clock: Clock,
}

impl Ctx {
    /// A span between two instants of this run's clock.
    pub fn span(
        &self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        frame: u64,
        conn: Option<usize>,
    ) -> trace::Span {
        trace::Span {
            name,
            start_ns: self.clock.ns(start),
            end_ns: self.clock.ns(end),
            parent,
            frame,
            conn,
        }
    }

    /// Write the run's spans to `<out>/trace_<workload>.jsonl`.
    pub fn write_trace(&self, trace: &trace::Trace) {
        let path = out_dir().join(format!("trace_{}.jsonl", self.workload));
        if let Err(e) = trace.write_jsonl(&path) {
            eprintln!("could not write {}: {e}", path.display());
        }
    }
}

/// Where result and trace files go: `benchmark/` under cargo's target
/// directory (the driver sets `CARGO_TARGET_DIR`; `target` otherwise).
pub fn out_dir() -> PathBuf {
    PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()))
        .join("benchmark")
}

/// User + system CPU seconds this process has consumed, all threads.
pub fn process_cpu_s() -> f64 {
    // Fields 14 and 15 of /proc/self/stat, counted from after the
    // parenthesised command name; in USER_HZ ticks, which Linux fixes at
    // 100 for every architecture's user-space ABI.
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let after_comm = stat.rsplit_once(')').map_or("", |(_, rest)| rest);
    let ticks: f64 = after_comm
        .split_whitespace()
        .skip(11)
        .take(2)
        .filter_map(|f| f.parse::<f64>().ok())
        .sum();
    ticks / USER_HZ
}

/// Peak resident set of this process, MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Parsed command-line options shared by every form.
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut options = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
    };
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let mut value = || {
            i += 1;
            args.get(i)
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--workload" => options.workload = Some(value()?),
            "--seed" => {
                options.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                options.seconds = Some(s);
            }
            // `--trace` alone (run/aa) or `--trace 0|1` (driver form).
            "--trace" => match args.get(i + 1).map(String::as_str) {
                Some("0") => {
                    options.trace = false;
                    i += 1;
                }
                Some("1") => {
                    options.trace = true;
                    i += 1;
                }
                _ => options.trace = true,
            },
            other => return Err(format!("unknown argument {other}")),
        }
        i += 1;
    }
    Ok(options)
}

pub fn find_workload(name: &str) -> Result<&'static Workload, String> {
    WORKLOADS.iter().find(|w| w.name == name).ok_or_else(|| {
        let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

/// Run one workload in this process and print its report.
fn run_one(options: &Options) -> Result<bool, String> {
    let name = options
        .workload
        .as_deref()
        .ok_or("--workload is required")?;
    let workload = find_workload(name)?;
    let parallelism = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        workload: workload.name,
        seed: options.seed,
        seconds: options.seconds.unwrap_or(suite::DEFAULT_SECONDS),
        trace: options.trace,
        clock: Clock {
            origin: Instant::now(),
        },
    };
    println!(
        "workload {} seed {} seconds {} trace {} available_parallelism {parallelism}",
        ctx.workload, ctx.seed, ctx.seconds, ctx.trace as u8
    );
    println!("operation: {}", workload.op);
    let mut outcome = (workload.run)(&ctx);
    outcome.set("peak_rss_mb", peak_rss_mb());
    for note in &outcome.notes {
        println!("{note}");
    }
    for failure in &outcome.failures {
        println!("FAILED: {failure}");
    }
    // Every metric by name and unit; `suite` parses these lines back.
    for def in report::END_TO_END.iter().chain(report::PER_LAYER) {
        if let Some(value) = outcome.values.get(def.name) {
            println!(
                "metric {} {} {}",
                def.name,
                report::fmt_value(*value),
                def.unit
            );
        }
    }
    println!(
        "attempted {} failed {} failed_share {}",
        outcome.attempted,
        outcome.failed,
        outcome.failed as f64 / outcome.attempted.max(1) as f64
    );
    println!("{}", report::result_line(&outcome, ctx.trace));
    Ok(outcome.correct())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("run") => parse_options(&args[1..]).and_then(|o| {
            suite::run(o.workload.as_deref(), o.seed, o.seconds, o.trace).map(|set| set.correct)
        }),
        Some("aa") => parse_options(&args[1..]).and_then(|o| suite::aa(o.seed, o.seconds)),
        // The text of BENCHMARK.json, or of the README's glossary.
        Some("describe") => {
            match args.get(1).map(String::as_str) {
                Some("--glossary") => print!("{}", report::glossary()),
                _ => print!("{}", report::benchmark_json()),
            }
            Ok(true)
        }
        _ => parse_options(&args).and_then(|o| run_one(&o)),
    };
    match result {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(message) => {
            eprintln!("ricsa-benchmark: {message}");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn driver_form_parses_in_any_order() {
        let o = parse_options(&args(&[
            "--trace",
            "1",
            "--seconds",
            "5",
            "--workload",
            "wan_plan",
            "--seed",
            "9",
        ]))
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("wan_plan"));
        assert_eq!((o.seed, o.seconds, o.trace), (9, Some(5.0), true));
        let o = parse_options(&args(&["--workload", "x", "--trace", "0"])).unwrap();
        assert!(!o.trace);
        assert_eq!(o.seed, DEFAULT_SEED);
    }

    #[test]
    fn bare_trace_flag_and_bad_input() {
        assert!(parse_options(&args(&["--trace"])).unwrap().trace);
        assert!(
            parse_options(&args(&["--trace", "--seed", "3"]))
                .unwrap()
                .trace
        );
        assert!(parse_options(&args(&["--seconds", "0"])).is_err());
        assert!(parse_options(&args(&["--seed"])).is_err());
        assert!(parse_options(&args(&["--bogus"])).is_err());
        assert!(find_workload("nope").is_err());
    }

    #[test]
    fn set_up_repeats_and_keeps_only_the_last() {
        let mut built = 0;
        let mut torn_down = Vec::new();
        let (kept, median_s) = set_up_repeatedly(
            || {
                built += 1;
                Ok(built)
            },
            |n| torn_down.push(n),
        )
        .unwrap();
        // Instant set-ups never reach SETUP_MIN_S: the repeat cap ends it.
        assert_eq!(kept, SETUP_MAX_REPEATS);
        assert_eq!(torn_down, (1..SETUP_MAX_REPEATS).collect::<Vec<_>>());
        assert!(median_s >= 0.0);
        let failed: Result<((), f64), String> = set_up_repeatedly(|| Err("no".into()), |()| {});
        assert_eq!(failed.unwrap_err(), "no");
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 0.0);
        assert!(process_cpu_s() >= 0.0);
    }
}
