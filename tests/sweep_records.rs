//! Golden records of the three evaluation sweeps.
//!
//! Each test runs a sweep's *quick* preset — the configuration CI and the
//! README run — and pins the FNV-1a digest of the serialized library
//! report.  The simulator is deterministic per seed and the reports carry
//! virtual-time quantities only, so a digest moves only when a mapping, a
//! schedule, a simulated loop or a summary statistic moves: a harness
//! refactor that keeps these digests has kept every number the sweeps
//! print.  This is the committed baseline of the `sweep` bin.
//!
//! The digests were captured at the commit that introduced this file and
//! are not to be edited by a change that claims to preserve behaviour.

use ricsa::core::adapt_sweep::{run_adapt_sweep, AdaptSweepConfig};
use ricsa::core::session_sweep::{run_session_sweep, SessionSweepConfig};
use ricsa::core::sweep::{run_sweep, SweepConfig};
use ricsa::netsim::generators::{waxman, WaxmanParams};
use ricsa::pipemap::dp::{optimize_with, DpOptions};
use ricsa::pipemap::fnv1a_hex;
use ricsa::pipemap::network::NetGraph;
use ricsa::pipemap::pipeline::Pipeline;
use serde_json::Value;

/// The wall-clock fields a record may carry; everything else in a report
/// is deterministic per seed.
const WALL_CLOCK_KEYS: [&str; 4] = ["dp_cold_us", "dp_warm_us", "warm_solve_us", "cold_solve_us"];

fn strip_wall_clock(value: &mut Value) {
    match value {
        Value::Object(map) => {
            for key in WALL_CLOCK_KEYS {
                map.remove(key);
            }
            map.values_mut().for_each(strip_wall_clock);
        }
        Value::Array(items) => items.iter_mut().for_each(strip_wall_clock),
        _ => {}
    }
}

fn report_digest(mut value: Value) -> String {
    strip_wall_clock(&mut value);
    fnv1a_hex(&value.to_string())
}

#[test]
fn quick_scenario_sweep_report_is_pinned() {
    let report = run_sweep(&SweepConfig::quick());
    assert_eq!(
        report_digest(serde_json::to_value(&report)),
        "af26149df41c6a2b"
    );
}

#[test]
fn quick_adapt_sweep_report_is_pinned() {
    let report = run_adapt_sweep(&AdaptSweepConfig::quick());
    assert_eq!(
        report_digest(serde_json::to_value(&report)),
        "4dc83a7db704d794"
    );
}

#[test]
fn quick_session_sweep_report_is_pinned() {
    let report = run_session_sweep(&SessionSweepConfig::quick());
    assert_eq!(
        report_digest(serde_json::to_value(&report)),
        "dd688a9a222c452d"
    );
}

/// Dominance pruning on large sparse relay instances, as exact work
/// counters: the states the DP expands with and without the bound on
/// seed-7 Waxman WANs mapping a Jet-sized isosurface pipeline.
#[test]
fn pruning_work_counters_on_large_waxman_wans_are_pinned() {
    for (nodes, pruned, unpruned) in [(50, 152, 200), (100, 203, 400), (200, 225, 800)] {
        let wan = waxman(&WaxmanParams::sized(nodes), 7);
        let graph = NetGraph::from_topology(&wan.topology);
        let pipeline = Pipeline::isosurface(16e6, 2e-9, 2.5e-8, 0.35, 6e-9, 1e6);
        let solve = |options: &DpOptions| {
            optimize_with(&pipeline, &graph, wan.source.0, wan.client.0, options)
        };
        let (with_bound, pruned_stats) = solve(&DpOptions::relayed());
        let (without, unpruned_stats) = solve(&DpOptions {
            prune: false,
            relay: true,
        });
        assert_eq!(
            with_bound.map(|m| m.objective),
            without.map(|m| m.objective),
            "{nodes} nodes: pruning changed the optimum"
        );
        assert_eq!(
            (pruned_stats.states_expanded, unpruned_stats.states_expanded),
            (pruned, unpruned),
            "{nodes} nodes"
        );
    }
}
