//! What two or more of the RICSA evaluation binaries share.
//!
//! The binaries in this crate regenerate the paper's figures (`fig9_loops`,
//! `fig10_paraview`), calibrate its cost models (`cost_models`), and answer
//! the two questions the repository benchmark (`benchmark/`,
//! `BENCHMARK.json`) declares out of scope: poller fan-out
//! (`webfront_load`) and "does the optimizer / controller / joint mapper
//! win" across generated scenarios (`sweep`).  `webfront_bench` times the
//! hub's payload sizing per frame shape.  DESIGN.md §4 lists them.
//! Anything a benchmark workload already runs and verifies has no binary
//! here.

#![deny(missing_docs)]
#![forbid(unsafe_code)]

use serde::Serialize;

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
}
