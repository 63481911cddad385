//! Shared helpers for the RICSA benchmark harness.
//!
//! The binaries in this crate regenerate the paper's evaluation: the
//! Fig. 9 loop comparison, the Fig. 10 ParaView comparison, and the
//! supplementary transport-stabilization, optimizer-scaling and cost-model
//! experiments listed in DESIGN.md §4.  Micro-measurements of single layers
//! live in the repository benchmark (`benchmark/`, `BENCHMARK.json`), not
//! here.

#![deny(missing_docs)]

use ricsa_core::experiment::ExperimentOptions;
use ricsa_netsim::time::SimTime;
use ricsa_viz::image::Image;
use ricsa_webfront::hub::Frame;
use serde::Serialize;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Experiment options for full-scale (paper-size) runs, used by the
/// binaries that regenerate the figures.
pub fn full_scale_options() -> ExperimentOptions {
    ExperimentOptions::default()
}

/// Experiment options for reduced-scale (`--quick`) runs of the figure
/// binaries: dataset sizes are 1/64th of the paper's, which keeps the
/// simulated loop structure identical while shrinking the event count.
pub fn bench_scale_options() -> ExperimentOptions {
    ExperimentOptions {
        size_scale: 1.0 / 64.0,
        max_virtual_time: SimTime::from_secs(120.0),
        ..ExperimentOptions::default()
    }
}

/// The synthetic frame for serving-layer benchmarks at publish step
/// `step`: a static gradient background with a bright square blob walking
/// across it, so consecutive frames differ only around the blob and delta
/// encodings are genuinely sparse.
pub fn synth_web_frame(step: u64, width: usize, height: usize) -> Frame {
    const BLOB: usize = 24;
    let mut img = Image::new(width, height);
    for y in 0..height {
        for x in 0..width {
            img.set(x, y, [(x ^ y) as u8, (x / 2) as u8, (y / 2) as u8, 255]);
        }
    }
    let bx = (step as usize * 2) % width.saturating_sub(BLOB).max(1);
    let by = (step as usize) % height.saturating_sub(BLOB).max(1);
    for y in by..(by + BLOB).min(height) {
        for x in bx..(bx + BLOB).min(width) {
            img.set(x, y, [255, 240, 40, 255]);
        }
    }
    Frame {
        sequence: 0,
        cycle: step,
        time: step as f64 * 0.01,
        image: img.encode_raw(),
        monitors: vec![("step".into(), step as f64)],
    }
}

/// Median wall-clock time of one call to `routine` over `sample_size`
/// samples.  A warm-up call calibrates the iteration count to about 5 ms
/// per sample, so fast bodies are timed over many iterations and slow ones
/// over a single run.
pub fn time_per_call<O, F: FnMut() -> O>(sample_size: usize, mut routine: F) -> Duration {
    let start = Instant::now();
    black_box(routine());
    let once = start.elapsed().max(Duration::from_nanos(1));
    let target = Duration::from_millis(5);
    let iters = (target.as_nanos() / once.as_nanos()).clamp(1, 1_000_000) as u32;
    let mut samples: Vec<Duration> = (0..sample_size.max(1))
        .map(|_| {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(routine());
            }
            start.elapsed() / iters
        })
        .collect();
    samples.sort();
    samples[samples.len() / 2]
}

/// The value following flag `name` in `args` (`--json path`), if present.
pub fn flag_value(args: &[String], name: &str) -> Option<String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1).cloned())
}

/// Write `bench` as the bin's BENCH json to `path`, creating missing
/// parent directories.  The outcome goes to stderr: the json is an
/// artifact beside the printed table, never a reason to fail the bin.
pub fn write_bench_json<T: Serialize>(path: &str, bench: &T) {
    match serde_json::to_string(bench) {
        Ok(json) => {
            if let Some(parent) = std::path::Path::new(path).parent() {
                let _ = std::fs::create_dir_all(parent);
            }
            match std::fs::write(path, json) {
                Ok(()) => eprintln!("BENCH json written to {path}"),
                Err(e) => eprintln!("could not write {path}: {e}"),
            }
        }
        Err(e) => eprintln!("could not serialize BENCH json: {e}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_per_call_returns_a_positive_median() {
        let mut n = 0u64;
        let d = time_per_call(3, || {
            n += 1;
            black_box(n)
        });
        assert!(d > Duration::ZERO);
        assert!(n > 0);
    }

    #[test]
    fn flag_value_finds_the_argument_after_the_flag() {
        let args: Vec<String> = ["--quick", "--json", "out.json", "--seed"]
            .map(String::from)
            .to_vec();
        assert_eq!(flag_value(&args, "--json").as_deref(), Some("out.json"));
        assert_eq!(flag_value(&args, "--seed"), None, "flag without a value");
        assert_eq!(flag_value(&args, "--frames"), None);
    }

    #[test]
    fn write_bench_json_creates_a_missing_parent_directory() {
        let root = std::env::temp_dir().join(format!("ricsa_bench_json_{}", std::process::id()));
        let path = root.join("nested/out.json");
        assert!(!root.exists());
        write_bench_json(path.to_str().unwrap(), &vec![1u64, 2, 3]);
        let written = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_dir_all(&root).unwrap();
        assert_eq!(written, "[1,2,3]");
    }

    #[test]
    fn option_presets_differ_in_scale_only() {
        let full = full_scale_options();
        let quick = bench_scale_options();
        assert_eq!(full.size_scale, 1.0);
        assert!(quick.size_scale < 0.05);
        assert_eq!(full.iterations, quick.iterations);
    }
}
