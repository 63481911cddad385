//! Golden records of the three evaluation sweeps.
//!
//! Each test runs a sweep's *quick* preset — the configuration CI and the
//! README run — and pins the FNV-1a digest of the serialized library
//! report.  The simulator is deterministic per seed and the reports carry
//! virtual-time quantities only, so a digest moves only when a mapping, a
//! schedule, a simulated loop or a summary statistic moves: a harness
//! refactor that keeps these digests has kept every number the sweeps
//! print.  Each test also runs the sweep's audit — the acceptance checks
//! whose failure makes the `sweep` bin exit 1 — so tier-1 runs them, not
//! only CI.  This is the committed baseline of the `sweep` bin.
//!
//! The digests were captured at the commit that introduced this file and
//! are not to be edited by a change that claims to preserve behaviour.

use ricsa::core::sweep::{run, Sweep};
use ricsa::core::{AdaptSweepConfig, SessionSweepConfig, SweepConfig};
use ricsa::netsim::generators::{waxman, WaxmanParams};
use ricsa::pipemap::dp::{optimize_with, DpOptions, DpStats};
use ricsa::pipemap::fnv1a_hex;
use ricsa::pipemap::network::NetGraph;
use ricsa::pipemap::pipeline::Pipeline;

/// Run the quick preset, audit it, digest the serialized report.
fn quick_report_digest<S: Sweep>() -> String {
    let config = S::preset(true);
    let report = run(&config);
    assert_eq!(config.audit(&report), Ok(()));
    fnv1a_hex(&serde_json::to_string(&report).expect("reports serialize"))
}

#[test]
fn quick_scenario_sweep_report_is_pinned() {
    assert_eq!(quick_report_digest::<SweepConfig>(), "31df947cfb2e891c");
}

/// The scenario sweep's plans alone: the same report with every record's
/// work counters zeroed, which a faster pruner must keep while its
/// counters move.
#[test]
fn quick_scenario_sweep_plans_are_pinned() {
    let config = SweepConfig::preset(true);
    let mut report = run(&config);
    assert_eq!(config.audit(&report), Ok(()));
    for outcome in &mut report.outcomes {
        outcome.record.dp_stats = DpStats::default();
    }
    assert_eq!(
        fnv1a_hex(&serde_json::to_string(&report).expect("reports serialize")),
        "1bf4c8e12c772586"
    );
}

#[test]
fn quick_adapt_sweep_report_is_pinned() {
    assert_eq!(
        quick_report_digest::<AdaptSweepConfig>(),
        "1537ed6512a659ab"
    );
}

#[test]
fn quick_session_sweep_report_is_pinned() {
    assert_eq!(
        quick_report_digest::<SessionSweepConfig>(),
        "43de45dfb3dc9f2c"
    );
}

/// Dominance pruning on large sparse relay instances, as exact work
/// counters: the states the DP expands with and without the bound on
/// seed-7 Waxman WANs mapping a Jet-sized isosurface pipeline.
#[test]
fn pruning_work_counters_on_large_waxman_wans_are_pinned() {
    for (nodes, pruned, unpruned) in [(50, 14, 200), (100, 8, 400), (200, 10, 800)] {
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
