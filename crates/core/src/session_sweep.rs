//! The multi-session sweep: joint vs independent vs client/server at scale.
//!
//! Where [`crate::adapt_sweep`] quantifies the *adaptive controller's* win
//! rate across dynamic scenarios, this [`Sweep`] quantifies the
//! *contention-aware joint mapper's* win across session counts.  Per cell
//! (scenario family × session count) it builds the N-session contention
//! WAN ([`crate::sessions::contention_wan`]), spawns N frame-paced user
//! loops, and runs them to completion under each [`MappingPolicy`]:
//!
//! * **independent** — each session solved alone, blind to the others
//!   (they all pile onto the shared trunk),
//! * **joint** — the link-pricing best-response iteration of
//!   [`ricsa_pipemap::joint`] (sessions spread across trunk and private
//!   relays),
//! * **client/server** — the no-pipeline baseline of the paper's Fig. 9.
//!
//! Every run audits per session that every requested frame arrived
//! exactly once ([`SessionSweepRecord::lost`] / `duplicated` are zero on
//! a healthy run); per cell the [`PolicyComparison`] reports the joint
//! policy's aggregate-throughput ratio and Jain-fairness delta over
//! independent.  Every record is deterministic per seed — the metrics are
//! virtual-time only.  `sweep session` prints the table and writes the
//! BENCH json; DESIGN.md §11 documents the layer.

use crate::sessions::{
    contention_wan, demo_session_pipeline, run_multi_session, MappingPolicy, MultiSessionRun,
    MultiSessionSpec, SessionLoopSpec,
};
use crate::sweep::{scenario_seed, table, Distribution, Sweep};
use ricsa_adapt::monitor::AdaptConfig;
use ricsa_netsim::time::SimTime;
use serde::{Deserialize, Serialize};

/// One seeded contention-scenario family: how the N co-scheduled
/// sessions' data volumes relate.  Session `i` runs the demonstration
/// pipeline at scale `base_scale + scale_step * i`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ContentionFamily {
    /// Family label (appears in records and the report table).
    pub label: String,
    /// Scale of session 0's pipeline.
    pub base_scale: f64,
    /// Per-session scale increment (0 = identical sessions).
    pub scale_step: f64,
}

impl ContentionFamily {
    /// A family where every session moves the same data volume.
    pub fn uniform(scale: f64) -> Self {
        ContentionFamily {
            label: format!("uniform{scale:.1}"),
            base_scale: scale,
            scale_step: 0.0,
        }
    }

    /// A family where session `i` moves `base + step·i` — heterogeneous
    /// loads, so per-session rates differ under every policy and the
    /// fairness axis is informative.
    pub fn ramp(base: f64, step: f64) -> Self {
        ContentionFamily {
            label: format!("ramp{base:.1}+{step:.2}"),
            base_scale: base,
            scale_step: step,
        }
    }
}

/// Configuration of one multi-session sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSweepConfig {
    /// Session counts to evaluate (one contention WAN per count).
    pub session_counts: Vec<usize>,
    /// Scenario families evaluated at every session count.
    pub families: Vec<ContentionFamily>,
    /// Frames each session pulls through its loop before retiring.
    pub frames: u64,
    /// Base RNG seed; cell `(family, count)` derives its own from it.
    pub seed: u64,
    /// Target goodput of the stage-to-stage data flows, bytes/second.
    pub target_goodput: f64,
    /// Round bound for the joint best-response iteration.
    pub joint_rounds: usize,
    /// Virtual-time budget per run.
    pub max_virtual_time: SimTime,
    /// Monitor configuration (supplies the DP options every policy solves
    /// with; monitors run estimates-only — the sweep compares *static*
    /// mappings, no mid-run migrations).
    pub adapt: AdaptConfig,
}

impl Default for SessionSweepConfig {
    fn default() -> Self {
        SessionSweepConfig {
            session_counts: vec![2, 8, 32],
            families: vec![
                ContentionFamily::uniform(1.0),
                ContentionFamily::ramp(1.0, 0.1),
                ContentionFamily::uniform(2.0),
            ],
            frames: 10,
            seed: 20080609,
            target_goodput: 200e6,
            joint_rounds: 6,
            max_virtual_time: SimTime::from_secs(900.0),
            adapt: AdaptConfig::default(),
        }
    }
}

impl SessionSweepConfig {
    /// The CI-friendly quick sweep: N ∈ {2, 8} across two families,
    /// fewer frames.  Still exercises the acceptance comparison (joint
    /// vs independent at N = 8).
    pub fn quick() -> Self {
        SessionSweepConfig {
            session_counts: vec![2, 8],
            families: vec![
                ContentionFamily::uniform(1.0),
                ContentionFamily::ramp(1.0, 0.1),
            ],
            frames: 6,
            ..SessionSweepConfig::default()
        }
    }

    /// The full sweep: N ∈ {2, 8, 32} across three families.
    pub fn full() -> Self {
        SessionSweepConfig::default()
    }
}

/// One policy's outcome on one cell of the sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSweepRecord {
    /// Scenario-family label.
    pub family: String,
    /// Concurrent sessions in the cell.
    pub n: usize,
    /// Mapping policy name.
    pub policy: String,
    /// Frames delivered across all sessions.
    pub completed: u64,
    /// Requested frames never delivered (0 on a healthy run).
    pub lost: u64,
    /// Duplicate deliveries (0 on a healthy run).
    pub duplicated: u64,
    /// Total completed frames per virtual second, first spawn to last
    /// delivery.
    pub aggregate_fps: f64,
    /// Jain fairness index of the per-session frame rates.
    pub fairness: f64,
    /// Mean end-to-end frame delay across all completed frames, seconds.
    pub mean_delay_s: f64,
    /// 99th-percentile (nearest-rank) frame delay, seconds.
    pub p99_delay_s: f64,
    /// The solver's predicted aggregate delay under the shared contended
    /// model (comparable across policies).
    pub predicted_aggregate_s: f64,
    /// Sessions whose data path crosses the shared hub trunk.
    pub trunk_users: usize,
    /// Virtual time the run ended.
    pub duration_s: f64,
}

/// The joint-vs-independent comparison of one cell.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PolicyComparison {
    /// Scenario-family label.
    pub family: String,
    /// Concurrent sessions in the cell.
    pub n: usize,
    /// Joint aggregate fps over independent aggregate fps (> 1 = win).
    pub fps_ratio: f64,
    /// Joint fairness minus independent fairness (> 0 = fairer).
    pub fairness_delta: f64,
    /// Independent p99 frame delay over joint p99 (> 1 = joint's tail is
    /// shorter).
    pub p99_ratio: f64,
    /// The joint policy won on throughput *and* fairness.
    pub joint_wins_both: bool,
}

/// Aggregated result of a multi-session sweep.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionSweepReport {
    /// Per-(cell × policy) records: cell-major, policies in
    /// independent / joint / client-server order.
    pub records: Vec<SessionSweepRecord>,
    /// Per-cell joint-vs-independent comparisons, cell order.
    pub comparisons: Vec<PolicyComparison>,
}

impl SessionSweepReport {
    /// Cells where the joint policy beat independent on throughput and
    /// fairness simultaneously.
    pub fn joint_double_wins(&self) -> usize {
        self.comparisons
            .iter()
            .filter(|c| c.joint_wins_both)
            .count()
    }
}

impl Sweep for SessionSweepConfig {
    /// The records of one cell, one per policy that completed.
    type Cell = Vec<SessionSweepRecord>;
    type Report = SessionSweepReport;

    fn preset(quick: bool) -> Self {
        if quick {
            SessionSweepConfig::quick()
        } else {
            SessionSweepConfig::full()
        }
    }

    fn seed_mut(&mut self) -> &mut u64 {
        &mut self.seed
    }

    /// Cells evaluated, family-major (each runs all three policies).
    fn cells(&self) -> usize {
        self.families.len() * self.session_counts.len()
    }

    /// Run one cell: the same N loops on the same WAN under each policy.
    fn run_cell(&self, index: usize) -> Vec<SessionSweepRecord> {
        let family = &self.families[index / self.session_counts.len()];
        let n = self.session_counts[index % self.session_counts.len()];
        let wan = contention_wan(n);
        let seed = scenario_seed(self.seed, index as u64);
        let policies = [
            MappingPolicy::Independent,
            MappingPolicy::Joint,
            MappingPolicy::ClientServer,
        ];
        policies
            .iter()
            .filter_map(|&policy| {
                let sessions: Vec<SessionLoopSpec> = (0..n)
                    .map(|i| SessionLoopSpec {
                        id: i as u64 + 1,
                        pipeline: demo_session_pipeline(
                            family.base_scale + family.scale_step * i as f64,
                        ),
                        source: wan.sources[i],
                        client: wan.clients[i],
                        frames: self.frames,
                        start_at: 0.0,
                    })
                    .collect();
                let spec = MultiSessionSpec {
                    topology: wan.topology.clone(),
                    cm: wan.cm,
                    sessions,
                    policy,
                    seed,
                    target_goodput: self.target_goodput,
                    adaptive: false,
                    adapt: self.adapt.clone(),
                    joint_rounds: self.joint_rounds,
                    max_virtual_time: self.max_virtual_time,
                };
                run_multi_session(&spec)
                    .ok()
                    .map(|run| to_record(family, n, wan.trunk_nodes(), &run))
            })
            .collect()
    }

    fn aggregate(&self, cells: Vec<Vec<SessionSweepRecord>>) -> SessionSweepReport {
        let mut records = Vec::with_capacity(cells.len() * 3);
        let mut comparisons = Vec::with_capacity(cells.len());
        for cell in cells {
            if let (Some(ind), Some(joint)) = (
                cell.iter().find(|r| r.policy == "independent"),
                cell.iter().find(|r| r.policy == "joint"),
            ) {
                let fps_ratio = joint.aggregate_fps / ind.aggregate_fps.max(f64::EPSILON);
                let fairness_delta = joint.fairness - ind.fairness;
                comparisons.push(PolicyComparison {
                    family: ind.family.clone(),
                    n: ind.n,
                    fps_ratio,
                    fairness_delta,
                    p99_ratio: ind.p99_delay_s / joint.p99_delay_s.max(f64::EPSILON),
                    joint_wins_both: fps_ratio > 1.0 && fairness_delta > 0.0,
                });
            }
            records.extend(cell);
        }
        SessionSweepReport {
            records,
            comparisons,
        }
    }

    fn format(report: &SessionSweepReport) -> String {
        let mut out = table(
            &[
                ("family", -12),
                ("n", 4),
                ("", 2), // a gap: `n` is right-aligned, `policy` left-aligned
                ("policy", -14),
                ("done", 6),
                ("lost", 6),
                ("dup", 5),
                ("agg fps", 10),
                ("fairness", 10),
                ("mean s", 10),
                ("p99 s", 10),
                ("trunk", 7),
            ],
            report.records.iter().map(|r| {
                vec![
                    r.family.clone(),
                    r.n.to_string(),
                    String::new(),
                    r.policy.clone(),
                    r.completed.to_string(),
                    r.lost.to_string(),
                    r.duplicated.to_string(),
                    format!("{:.3}", r.aggregate_fps),
                    format!("{:.3}", r.fairness),
                    format!("{:.3}", r.mean_delay_s),
                    format!("{:.3}", r.p99_delay_s),
                    r.trunk_users.to_string(),
                ]
            }),
        );
        out.push('\n');
        for c in &report.comparisons {
            out.push_str(&format!(
                "{} n={}: joint/independent fps {:.2}x, fairness {:+.3}, p99 {:.2}x shorter{}\n",
                c.family,
                c.n,
                c.fps_ratio,
                c.fairness_delta,
                c.p99_ratio,
                if c.joint_wins_both {
                    "  [joint wins both]"
                } else {
                    ""
                }
            ));
        }
        out.push_str(&format!(
            "joint beat independent on throughput AND fairness in {}/{} cells\n",
            report.joint_double_wins(),
            report.comparisons.len()
        ));
        out
    }

    /// Every policy completes on every cell with a clean per-session frame
    /// audit, and under contention (N = 8) the joint solve beats N
    /// independent solves on aggregate throughput *and* fairness in at
    /// least one family.
    fn audit(&self, report: &SessionSweepReport) -> Result<(), String> {
        let expected = self.cells() * 3;
        if report.records.len() != expected {
            return Err(format!(
                "every policy must complete on every cell, {}/{expected} did",
                report.records.len()
            ));
        }
        if let Some(r) = report
            .records
            .iter()
            .find(|r| r.lost + r.duplicated > 0 || r.completed != self.frames * r.n as u64)
        {
            return Err(format!(
                "{} n={} {}: {} lost / {} duplicated / {} of {} frames delivered",
                r.family,
                r.n,
                r.policy,
                r.lost,
                r.duplicated,
                r.completed,
                self.frames * r.n as u64
            ));
        }
        if !report
            .comparisons
            .iter()
            .any(|c| c.n == 8 && c.joint_wins_both)
        {
            return Err(format!(
                "joint must beat independent on fps and fairness at N=8 in some family: {:?}",
                report.comparisons
            ));
        }
        Ok(())
    }
}

/// Fold one run into its sweep record.
fn to_record(
    family: &ContentionFamily,
    n: usize,
    trunk: (usize, usize),
    run: &MultiSessionRun,
) -> SessionSweepRecord {
    let delays = Distribution::of(run.sessions.iter().flat_map(|s| s.delays.iter().copied()));
    let trunk_users = run
        .sessions
        .iter()
        .filter(|s| {
            s.paths.first().is_some_and(|p| {
                p.windows(2).any(|w| {
                    (w[0], w[1]) == (trunk.0, trunk.1) || (w[1], w[0]) == (trunk.0, trunk.1)
                })
            })
        })
        .count();
    SessionSweepRecord {
        family: family.label.clone(),
        n,
        policy: run.policy.clone(),
        completed: run.sessions.iter().map(|s| s.completed).sum(),
        lost: run.sessions.iter().map(|s| s.lost).sum(),
        duplicated: run.sessions.iter().map(|s| s.duplicated).sum(),
        aggregate_fps: run.aggregate_fps,
        fairness: run.fairness,
        mean_delay_s: delays.mean,
        p99_delay_s: delays.p99,
        predicted_aggregate_s: run.predicted_aggregate,
        trunk_users,
        duration_s: run.duration,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sweep::run;

    fn tiny_config() -> SessionSweepConfig {
        SessionSweepConfig {
            session_counts: vec![2, 3],
            families: vec![ContentionFamily::ramp(1.0, 0.1)],
            frames: 3,
            ..SessionSweepConfig::default()
        }
    }

    #[test]
    fn session_sweep_audits_cleanly_and_reproduces() {
        let config = tiny_config();
        let a = run(&config);
        assert_eq!(a.records.len(), 2 * 3, "2 cells × 3 policies");
        assert_eq!(a.comparisons.len(), 2);
        // Every policy completed with a clean frame audit; the one check
        // left to fail is the N = 8 comparison this config does not run.
        assert!(config.audit(&a).unwrap_err().contains("at N=8"));
        let mut lossy = a.clone();
        lossy.records[4].lost = 1;
        assert!(config.audit(&lossy).unwrap_err().contains("1 lost"));
        lossy.records.pop();
        assert!(config.audit(&lossy).unwrap_err().contains("5/6"));
        for r in &a.records {
            assert!(r.p99_delay_s >= r.mean_delay_s * 0.5);
            assert!(r.aggregate_fps > 0.0 && r.fairness > 0.0 && r.fairness <= 1.0 + 1e-9);
        }
        let b = run(&config);
        assert_eq!(a, b, "virtual-time metrics must reproduce per seed");
        let table = SessionSweepConfig::format(&a);
        assert!(table.contains("joint/independent fps"));
        assert!(table.contains("cells"));
    }

    #[test]
    fn joint_never_predicts_worse_than_independent_in_any_cell() {
        let report = run(&tiny_config());
        for c in report.comparisons.iter() {
            let ind = report
                .records
                .iter()
                .find(|r| r.family == c.family && r.n == c.n && r.policy == "independent")
                .unwrap();
            let joint = report
                .records
                .iter()
                .find(|r| r.family == c.family && r.n == c.n && r.policy == "joint")
                .unwrap();
            assert!(
                joint.predicted_aggregate_s <= ind.predicted_aggregate_s + 1e-9,
                "{} n={}: joint predicted {} > independent {}",
                c.family,
                c.n,
                joint.predicted_aggregate_s,
                ind.predicted_aggregate_s
            );
        }
    }
}
