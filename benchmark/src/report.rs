//! The metric catalogue (names, units, direction, bounds) and what one run
//! of one workload reports.
//!
//! `BENCHMARK.json` at the repository root is written from the tables in
//! this file; a unit test keeps the two in step.

use std::collections::BTreeMap;

/// Whether a larger or a smaller value is the better one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric the benchmark can report.
#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    /// Name as printed and as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction.
    pub better: Better,
    /// Share of the parent's median by which an end-to-end metric may get
    /// worse; `None` for a per-layer metric.
    pub bound: Option<f64>,
    /// What it measures and which end-to-end metric it should move (the
    /// README glossary prints this).
    pub what: &'static str,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    bound: f64,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: Some(bound),
        what,
    }
}

const fn layer(
    name: &'static str,
    unit: &'static str,
    better: Better,
    what: &'static str,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        bound: None,
        what,
    }
}

use Better::{Higher, Lower};

/// End-to-end metrics.  Every workload reports every one of them, so each
/// is defined over the workload's *operation* (see [`crate::WORKLOADS`]):
/// a frame delivered to a connection, or a pass over the WANs or loops.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, 0.25,
        "median wall time of one complete set-up (inputs from the seed, servers, connections, warm-up), repeated at least 5 times and for at least 2.5 s per run"),
    e2e("op_latency_p50_ms", "ms", Lower, 0.25,
        "median latency of one operation over the quiet third of the window; on the serving workloads this is frame latency (start of publish, or end of the cycle on live_steer, to pixels decoded in the client)"),
    e2e("ops_per_s", "1/s", Higher, 0.25,
        "operations completed and verified per second over the quiet third of the window (per connection on the serving workloads: frames per second)"),
    e2e("cpu_ms_per_op", "ms", Lower, 0.25,
        "process CPU time (user + system, all threads: publisher, server workers, clients) per operation over the quiet third of the window"),
    e2e("peak_rss_mb", "MB", Lower, 0.25,
        "VmHWM of the workload's process when it reports"),
];

/// Per-layer metrics, the workload-specific end-to-end quantities first.
/// A workload in which a layer does no work reports 0 for it.
pub const PER_LAYER: &[MetricDef] = &[
    // ---- user-visible, but not steady enough on a shared box to carry a
    // bound: ten runs' values spread by up to 31 % (interquartile)
    layer("op_latency_p95_ms", "ms", Lower,
        "95th percentile (nearest rank) of the samples behind op_latency_p50_ms; the sample count is printed beside it"),
    // ---- user-visible quantities that exist on some workloads only
    layer("steer_latency_p50_ms", "ms", Lower,
        "live_steer: first byte of the /api/steer POST to the decoded frame on the same connection whose `tag` monitor has reached the posted value"),
    layer("wire_bytes_per_frame", "B", Lower,
        "serving: bytes read off the socket (status line + headers + body) per delivered frame; the same per seed on serve_* to a byte in 10^5 (the first whole frame cycles only)"),
    layer("pass_wall_s", "s", Lower,
        "wan_plan, wan_loop: median wall time of one pass, over every pass of the window (op_latency_p50_ms is the same over the quiet third)"),
    layer("loop_delay_virtual_s", "s", Lower,
        "wan_loop: mean virtual end-to-end frame delay over every loop and session of a pass; exact per seed"),
    layer("model_error_pct", "%", Lower,
        "wan_loop: mean of abs(measured - predicted) / predicted over the 18 Fig. 9 runs, the paper's validation quantity; exact per seed"),
    layer("plan_objective_sum", "s", Lower,
        "wan_plan: sum of cold-solve objectives and joint aggregates over a pass; exact per seed, pins that a faster planner returns the same plans"),
    // ---- hydro
    layer("hydro.cycle_ms", "ms", Lower,
        "SimulationServer::run_cycle; moves ops_per_s and steer_latency_p50_ms on live_steer, not op_latency (the clock starts after the cycle)"),
    layer("hydro.cells_per_s", "1/s", Higher,
        "grid cells advanced per second of run_cycle time"),
    // ---- viz
    layer("viz.extract_ms", "ms", Lower,
        "extract_isosurface; moves op_latency_p50_ms and ops_per_s on live_steer"),
    layer("viz.render_ms", "ms", Lower, "render_mesh 256x256; same"),
    layer("viz.encode_raw_ms", "ms", Lower, "Image::encode_raw; same"),
    layer("viz.triangles_per_frame", "count", Lower,
        "mean triangle count of the extracted surface"),
    // ---- webfront.hub
    layer("hub.publish_ms", "ms", Lower,
        "SessionHub::publish; moves op_latency_p50_ms on serve_delta_multi first, serve_full second, live_steer little"),
    layer("hub.encodes_per_frame", "count", Lower,
        "encode_count growth per published frame"),
    layer("hub.full_payload_bytes", "B", Lower,
        "mean body size of full-frame deliveries; moves wire_bytes_per_frame"),
    layer("hub.delta_payload_bytes", "B", Lower,
        "mean body size of delta deliveries; moves wire_bytes_per_frame"),
    layer("hub.delta_share", "ratio", Higher, "deliveries that were deltas"),
    layer("hub.diff_ms", "ms", Lower,
        "replay: diff_images against the predecessor"),
    layer("hub.rle_ms", "ms", Lower, "replay: rle::compress of the frame bytes"),
    layer("hub.base64_ms", "ms", Lower, "replay: base64_encode of the frame bytes"),
    layer("hub.encode_full_ms", "ms", Lower, "replay: encode_frame_full"),
    layer("hub.encode_delta_ms", "ms", Lower, "replay: encode_frame_delta"),
    layer("hub.try_payload_us", "us", Lower, "replay: try_payload served from the cache"),
    layer("hub.compose_chain_us", "us", Lower,
        "replay: first try_payload(head - 4, Delta) after a publish on a scratch hub"),
    // ---- webfront.http
    layer("http.wake_ms", "ms", Lower,
        "publish return to first response byte at the client; moves op_latency on all serving workloads"),
    layer("http.transfer_ms", "ms", Lower,
        "first to last response byte; moves op_latency on serve_full"),
    layer("http.small_rtt_us", "us", Lower,
        "median GET .../api/state round trip on the keep-alive connection; the control for 'added handling is cheap'"),
    layer("http.steer_post_us", "us", Lower, "median POST /api/steer to its 200"),
    layer("http.header_bytes", "B", Lower, "status line + headers of a poll response"),
    layer("http.visit_mean_us", "us", Lower, "PoolMetrics mean visit time at the end of the run"),
    layer("http.rotation_mean_us", "us", Lower, "PoolMetrics mean rotation lateness"),
    layer("http.parked", "count", Higher,
        "connections parked in the reactor while both clients wait in a long-poll"),
    layer("http.requests_served", "count", Higher, "requests served by the server"),
    // ---- webfront.multi
    layer("multi.route_overhead_us", "us", Lower,
        "serve_delta_multi: median /s/1/api/state round trip minus the same on a plain front end; moves op_latency there only"),
    // ---- client (benchmark side)
    layer("client.envelope_ms", "ms", Lower,
        "cutting the base64 bodies out and parsing the JSON envelope"),
    layer("client.decode_ms", "ms", Lower,
        "base64_decode + rle::decompress + decode_raw / apply_delta; moves op_latency on serve_full"),
    // ---- pipemap
    layer("pipemap.graph_build_us", "us", Lower, "NetGraph::from_topology; moves ops_per_s on wan_plan"),
    layer("pipemap.cold_us", "us", Lower, "optimize_with(relayed), cold"),
    layer("pipemap.warm_us", "us", Lower, "optimize_warm after measured drift"),
    layer("pipemap.joint_ms", "ms", Lower, "solve_joint for 32 sessions"),
    layer("pipemap.states_expanded", "count", Lower, "DpStats over a pass; exact per seed"),
    layer("pipemap.states_pruned", "count", Higher, "DpStats over a pass; exact per seed"),
    layer("pipemap.joint_rounds", "count", Lower, "best-response rounds over a pass; exact per seed"),
    layer("pipemap.joint_vs_independent", "ratio", Lower,
        "sum of joint aggregates over sum of independent aggregates; exact per seed"),
    // ---- netsim
    layer("netsim.generate_ms", "ms", Lower, "wan_plan: generating one WAN"),
    layer("netsim.events", "count", Lower, "Fig. 9 runs of a pass: events processed; exact per seed"),
    layer("netsim.events_per_s", "1/s", Higher, "the same per wall second of those runs; moves ops_per_s on wan_loop"),
    layer("netsim.datagrams_sent", "count", Lower, "Fig. 9 runs of a pass; exact per seed"),
    layer("netsim.datagrams_dropped", "count", Lower, "Fig. 9 runs of a pass; exact per seed"),
    layer("netsim.virt_s_per_wall_s", "ratio", Higher, "virtual seconds simulated per wall second, whole pass"),
    // ---- transport
    layer("transport.flow_wall_ms", "ms", Lower, "one fixed harness::run_flow per pass"),
    layer("transport.goodput_cv", "ratio", Lower, "its steady-state goodput jitter; exact per seed"),
    layer("transport.completion_virtual_s", "s", Lower, "its virtual completion time; exact per seed"),
    // ---- adapt
    layer("adapt.decisions", "count", Lower, "monitor decisions of the adaptive run; exact per seed"),
    layer("adapt.remaps", "count", Lower, "migrations of the adaptive run; exact per seed"),
    layer("adapt.remap_latency_virtual_s", "s", Lower, "event to re-map, virtual; exact per seed"),
    layer("adapt.resolve_us", "us", Lower, "solve_us_total / solves of the adaptive run"),
    // ---- core
    layer("core.fig9_wall_ms", "ms", Lower, "the 18 Fig. 9 runs of a pass"),
    layer("core.multi8_wall_ms", "ms", Lower, "contention_wan(8), independent + joint"),
    layer("core.multi32_wall_ms", "ms", Lower, "contention_wan(32), joint"),
    layer("core.adaptive_wall_ms", "ms", Lower, "demo_wan under static / adaptive / oracle"),
    layer("core.frames_lost", "count", Lower, "must be 0"),
    layer("core.frames_duplicated", "count", Lower, "must be 0"),
    layer("core.aggregate_fps_virtual", "1/s", Higher, "sum of the multi-session runs' aggregate fps; exact per seed"),
    // ---- bench (the generator itself)
    layer("bench.generator_lag_ms", "ms", Lower,
        "lock-step: last ack received to next publish started; live_steer: steer POST lateness against its schedule"),
    layer("bench.unattributed_ms", "ms", Lower,
        "op_latency_p50_ms of the traced part minus the budget-table rows"),
    layer("bench.trace_overhead_pct", "%", Lower,
        "traced vs untraced op_latency_p50_ms inside one traced run"),
    layer("bench.samples", "count", Higher, "latency samples behind the percentiles"),
];

/// What one run of one workload measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations (and checks) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// Human-readable descriptions of the first few failures.
    pub failures: Vec<String>,
    /// Metric name to value.
    pub values: BTreeMap<&'static str, f64>,
    /// Extra lines for the human reader (budget table, sample counts).
    pub notes: Vec<String>,
}

/// Failures described in full before the rest are only counted.
const MAX_FAILURE_NOTES: usize = 8;

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|m| m.name == name),
            "metric {name} is not in the catalogue"
        );
        self.values.insert(name, value);
    }

    /// Count one attempted operation or check; `ok == false` fails it.
    pub fn check(&mut self, ok: bool, describe: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(describe());
        }
    }

    /// Count one failure of an already-attempted operation.
    pub fn fail(&mut self, what: String) {
        self.failed += 1;
        if self.failures.len() < MAX_FAILURE_NOTES {
            self.failures.push(what);
        }
    }

    /// Whether every output was correct.
    pub fn correct(&self) -> bool {
        self.failed == 0
    }
}

/// Format a value with all its digits but without exponent noise.
pub fn fmt_value(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.0}")
    } else {
        format!("{v}")
    }
}

/// The result line the driver reads: exactly `correct`, `attempted`,
/// `failed` and `metrics` (the end-to-end set untraced, the per-layer set
/// traced; a per-layer metric the workload did not produce reads 0).
pub fn result_line(outcome: &Outcome, traced: bool) -> String {
    let defs = if traced { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    for (i, def) in defs.iter().enumerate() {
        let value = match outcome.values.get(def.name) {
            Some(v) => *v,
            None if traced => 0.0,
            None => panic!("workload did not report end-to-end metric {}", def.name),
        };
        assert!(value.is_finite(), "metric {} is not finite", def.name);
        if i > 0 {
            metrics.push(',');
        }
        metrics.push_str(&format!(
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            def.name,
            fmt_value(value),
            def.unit
        ));
    }
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.correct(),
        outcome.attempted.max(1),
        outcome.failed,
        metrics
    )
}

/// The command the driver runs from the repository root; it appends
/// `--workload <name> --seed <n> --seconds <s> --trace <0|1>`.
pub const COMMAND: &[&str] = &[
    "cargo",
    "run",
    "--release",
    "--quiet",
    "--offline",
    "--manifest-path",
    "benchmark/Cargo.toml",
    "--",
];

/// The text of `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> String {
    let quoted = |items: &[&str]| {
        items
            .iter()
            .map(|s| format!("\"{s}\""))
            .collect::<Vec<_>>()
            .join(", ")
    };
    let workloads: Vec<String> = crate::WORKLOADS
        .iter()
        .map(|w| format!("    {{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    let end_to_end: Vec<String> = END_TO_END
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\", \"bound\": {}}}",
                m.name,
                m.unit,
                m.better.word(),
                m.bound.expect("end-to-end metrics have bounds")
            )
        })
        .collect();
    let per_layer: Vec<String> = PER_LAYER
        .iter()
        .map(|m| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                m.name,
                m.unit,
                m.better.word()
            )
        })
        .collect();
    format!(
        "{{\n  \"command\": [{}],\n  \"paths\": [\"benchmark\"],\n  \"run_seconds\": {},\n  \"workloads\": [\n{}\n  ],\n  \"end_to_end\": [\n{}\n  ],\n  \"per_layer\": [\n{}\n  ]\n}}\n",
        quoted(COMMAND),
        crate::suite::DEFAULT_SECONDS,
        workloads.join(",\n"),
        end_to_end.join(",\n"),
        per_layer.join(",\n")
    )
}

/// The README's glossary of workloads and metrics, as Markdown.
pub fn glossary() -> String {
    let mut out = String::from("| workload | one operation is | why it exists |\n|---|---|---|\n");
    for w in crate::WORKLOADS {
        out.push_str(&format!("| `{}` | {} | {} |\n", w.name, w.op, w.why));
    }
    out.push_str("\n| end-to-end metric | unit | better | bound | what |\n|---|---|---|---|---|\n");
    for m in END_TO_END {
        out.push_str(&format!(
            "| `{}` | {} | {} | {:.0} % | {} |\n",
            m.name,
            m.unit,
            m.better.word(),
            m.bound.expect("end-to-end metrics have bounds") * 100.0,
            m.what
        ));
    }
    out.push_str("\n| per-layer metric | unit | better | what, and what it should move |\n|---|---|---|---|\n");
    for m in PER_LAYER {
        out.push_str(&format!(
            "| `{}` | {} | {} | {} |\n",
            m.name,
            m.unit,
            m.better.word(),
            m.what
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_well_formed() {
        let mut seen = std::collections::BTreeSet::new();
        for def in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(def.name), "duplicate metric {}", def.name);
            assert!(def.name.len() <= 64);
            assert!(def.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(def
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(def.unit.len() <= 16 && !def.unit.is_empty());
            assert!(def
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25)));
        assert!(PER_LAYER.iter().all(|m| m.bound.is_none()));
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
        // The set-up metric the driver requires, with the largest bound.
        let setup = &END_TO_END[0];
        assert_eq!(
            (setup.name, setup.unit, setup.better),
            ("setup_s", "s", Lower)
        );
        assert!(END_TO_END.iter().all(|m| m.bound <= setup.bound));
    }

    #[test]
    fn result_line_is_the_contract_shape() {
        let mut o = Outcome::default();
        for def in END_TO_END {
            o.set(def.name, 1.25);
        }
        o.check(true, || unreachable!());
        let v: serde_json::Value = serde_json::from_str(&result_line(&o, false)).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(keys.len(), 4);
        assert_eq!(v["correct"], true);
        assert_eq!(v["attempted"], 1);
        assert_eq!(v["failed"], 0);
        assert_eq!(v["metrics"].as_object().unwrap().len(), END_TO_END.len());
        assert_eq!(v["metrics"]["setup_s"]["value"], 1.25);
        assert_eq!(v["metrics"]["setup_s"]["unit"], "s");
        // Traced: every per-layer metric, absent ones as 0.
        let t: serde_json::Value = serde_json::from_str(&result_line(&o, true)).unwrap();
        assert_eq!(t["metrics"].as_object().unwrap().len(), PER_LAYER.len());
        assert_eq!(t["metrics"]["hydro.cycle_ms"]["value"], 0);
    }

    #[test]
    fn benchmark_json_at_the_repository_root_matches_the_tables() {
        let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
        let committed = std::fs::read_to_string(root.join("BENCHMARK.json")).unwrap();
        assert_eq!(
            committed,
            benchmark_json(),
            "regenerate with: ricsa-benchmark describe > BENCHMARK.json"
        );
        // And it is the shape the driver accepts.
        let v: serde_json::Value = serde_json::from_str(&committed).unwrap();
        let keys: Vec<&String> = v.as_object().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        assert!(committed.len() < 64 << 10);
        let workloads = v["workloads"].as_array().unwrap();
        assert!((2..=8).contains(&workloads.len()));
        for w in workloads {
            let why = w["why"].as_str().unwrap();
            assert!(why.len() <= 200 && !why.contains('\n'), "{why}");
        }
        let seconds = v["run_seconds"].as_u64().unwrap();
        assert!((1..=60).contains(&seconds));
        // 4 + 22 x workloads runs must fit the driver's 3420 s with room
        // for set-up, reporting and two builds.
        let runs = 4 + 22 * workloads.len() as u64;
        assert!(runs * (seconds + 6) + 2 * 120 < 3420);
    }

    #[test]
    fn readme_glossary_names_every_workload_and_metric() {
        let readme = std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("README.md"),
        )
        .unwrap();
        for line in glossary().lines() {
            assert!(readme.contains(line), "README.md is missing: {line}");
        }
    }

    #[test]
    fn failures_flip_correct_and_are_counted() {
        let mut o = Outcome::default();
        o.check(true, || unreachable!());
        o.check(false, || "pixel mismatch at sequence 7".into());
        assert_eq!((o.attempted, o.failed), (2, 1));
        assert!(!o.correct());
        assert_eq!(o.failures, vec!["pixel mismatch at sequence 7".to_string()]);
    }
}
