//! Relations the simulated loops must satisfy, stated as exact checks.
//!
//! The golden records pin what a run does; these say what it must do.  The
//! simulator is deterministic, so each relation compares two runs to
//! within rounding, not statistically.

use ricsa::adapt::monitor::AdaptConfig;
use ricsa::core::sessions::{
    contention_wan, demo_session_pipeline, run_multi_session, MappingPolicy, MultiSessionRun,
    MultiSessionSpec, SessionLoopSpec,
};
use ricsa::netsim::time::SimTime;

/// Two frame-paced sessions on the contention WAN (no link schedule),
/// every loop spawned at `start_at`.
fn two_sessions_from(start_at: f64) -> MultiSessionRun {
    let wan = contention_wan(2);
    let sessions = (0..2)
        .map(|i| SessionLoopSpec {
            id: i as u64 + 1,
            pipeline: demo_session_pipeline(1.0 + 0.1 * i as f64),
            source: wan.sources[i],
            client: wan.clients[i],
            frames: 12,
            start_at,
        })
        .collect();
    run_multi_session(&MultiSessionSpec {
        topology: wan.topology.clone(),
        cm: wan.cm,
        sessions,
        policy: MappingPolicy::Independent,
        seed: 20080609,
        target_goodput: 200e6,
        adaptive: false,
        adapt: AdaptConfig::default(),
        joint_rounds: 6,
        max_virtual_time: SimTime::from_secs(900.0),
    })
    .expect("every session maps")
}

/// Time shift: on a WAN whose links never change, spawning every loop Δ
/// later changes no frame delay (beyond rounding), no path and no count;
/// every frame simply starts Δ later.  Nothing in a loop may read the
/// absolute clock.
#[test]
fn spawning_every_loop_later_on_a_static_wan_shifts_the_run_and_changes_nothing_else() {
    let base = two_sessions_from(0.0);
    for shift in [0.125, 1.0, 7.5] {
        let shifted = two_sessions_from(shift);
        assert_eq!(base.sessions.len(), shifted.sessions.len());
        for (a, b) in base.sessions.iter().zip(&shifted.sessions) {
            let id = a.id;
            assert_eq!(a.paths, b.paths, "session {id}, Δ = {shift}");
            assert_eq!(
                (a.requested, a.completed, a.lost, a.duplicated, a.migrations),
                (b.requested, b.completed, b.lost, b.duplicated, b.migrations),
                "session {id}, Δ = {shift}"
            );
            assert_eq!(a.delays.len(), b.delays.len(), "session {id}, Δ = {shift}");
            for (k, (x, y)) in a.delays.iter().zip(&b.delays).enumerate() {
                assert!(
                    (x - y).abs() <= 1e-9,
                    "session {id}, Δ = {shift}, frame {k}: delay {x} vs {y}"
                );
            }
            for (k, (x, y)) in a.starts.iter().zip(&b.starts).enumerate() {
                assert!(
                    (x + shift - y).abs() <= 1e-9,
                    "session {id}, Δ = {shift}, frame {k}: start {x} + Δ vs {y}"
                );
            }
        }
    }
}
