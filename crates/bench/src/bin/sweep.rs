//! The evaluation sweeps: does the optimizer, the adaptive controller, the
//! joint mapper win — across generated scenarios, not on one deployment?
//!
//! * `scenario` — the relay-extended DP against the default-route and
//!   client/server baselines on Waxman and transit-stub WANs, analytically
//!   and on the simulated WAN (DESIGN.md §6),
//! * `adapt` — static vs adaptive vs oracle control under seeded
//!   link-event schedules, plus the RTT-signal detection axis (§9),
//! * `session` — independent vs joint vs client/server mapping of N
//!   contending sessions (§11.3).
//!
//! Each prints its table, writes `{config, report}` as the BENCH json —
//! virtual-time quantities only, so byte-identical run to run — and exits
//! 1 when the sweep's audit fails.
//!
//! Usage:
//! `cargo run --release -p ricsa-bench --bin sweep --
//!  <scenario|adapt|session> [--quick] [--seed S] [--json PATH]`
//!
//! `--quick` is the CI scale (seconds); the default is the full
//! evaluation.  `--json PATH` overrides `target/<name>_sweep.json`.

use ricsa_bench::{flag_value, write_bench_json};
use ricsa_core::sweep::{run, Sweep};
use ricsa_core::{AdaptSweepConfig, SessionSweepConfig, SweepConfig};
use serde_json::{to_value, Value};
use std::process::ExitCode;

const USAGE: &str = "usage: sweep <scenario|adapt|session> [--quick] [--seed S] [--json PATH]";

fn drive<S: Sweep>(name: &str, args: &[String]) -> Result<(), String> {
    let mut config = S::preset(args.iter().any(|a| a == "--quick"));
    if let Some(seed) = flag_value(args, "--seed") {
        *config.seed_mut() = seed.parse().map_err(|e| format!("--seed {seed}: {e}"))?;
    }
    let json_path =
        flag_value(args, "--json").unwrap_or_else(|| format!("target/{name}_sweep.json"));
    eprintln!("running the {name} sweep: {} cells...", config.cells());
    let report = run(&config);
    println!("{}", S::format(&report));
    let bench = [
        ("config".to_string(), to_value(&config)),
        ("report".to_string(), to_value(&report)),
    ];
    write_bench_json(&json_path, &Value::Object(bench.into()));
    config.audit(&report)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.split_first() {
        Some((name, rest)) => match name.as_str() {
            "scenario" => drive::<SweepConfig>(name, rest),
            "adapt" => drive::<AdaptSweepConfig>(name, rest),
            "session" => drive::<SessionSweepConfig>(name, rest),
            _ => Err(USAGE.to_string()),
        },
        None => Err(USAGE.to_string()),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("sweep: {message}");
            ExitCode::from(1)
        }
    }
}
