//! The cycle-based solver driving the dimensional sweeps.
//!
//! Mirrors VH1's main loop as instrumented in the paper's Fig. 7:
//!
//! ```text
//! do {
//!     sweepx; sweepy; sweepz;
//!     RICSA_PushDataToVizNode();
//!     RICSA_ReceiveHandleMessage();
//!     if (Message is NewSimulationParameters) RICSA_UpdateSimulationParameters();
//! } while (Cycle Not EndCycle)
//! ```
//!
//! The solver exposes exactly those hook points: [`HydroSolver::step`]
//! advances one cycle, [`HydroSolver::snapshot`] produces the dataset to
//! push, and [`HydroSolver::update_params`] applies steering changes between
//! cycles.

use crate::problems::{apply_wind_source, Problem};
use crate::state::HydroState;
use crate::steering::SteerableParams;
use crate::sweep::{sweepx, sweepy, sweepz};
use ricsa_vizdata::field::Dims;
use ricsa_vizdata::io::VolumeContainer;
use serde::{Deserialize, Serialize};

/// Static configuration of a solver run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SolverConfig {
    /// Which problem to run.
    pub problem: Problem,
    /// Grid resolution.
    pub dims: Dims,
    /// Initial steering parameters.
    pub params: SteerableParams,
}

impl SolverConfig {
    /// A small Sod shock-tube configuration suitable for tests and examples.
    pub fn sod_small() -> Self {
        SolverConfig {
            problem: Problem::SodShockTube,
            dims: Dims::new(128, 4, 4),
            params: SteerableParams::default(),
        }
    }
}

/// The cycle-based hydrodynamics solver.
#[derive(Debug, Clone)]
pub struct HydroSolver {
    config: SolverConfig,
    params: SteerableParams,
    state: HydroState,
}

impl HydroSolver {
    /// Initialize the solver from a configuration.
    pub fn new(config: SolverConfig) -> Self {
        let params = config.params.sanitized();
        let state = config.problem.initialize(config.dims, &params);
        HydroSolver {
            config,
            params,
            state,
        }
    }

    /// The current simulation state.
    pub fn state(&self) -> &HydroState {
        &self.state
    }

    /// The current steering parameters.
    pub fn params(&self) -> &SteerableParams {
        &self.params
    }

    /// The configured problem.
    pub fn problem(&self) -> Problem {
        self.config.problem
    }

    /// Current cycle number.
    pub fn cycle(&self) -> u64 {
        self.state.cycle
    }

    /// Whether the simulation has reached its configured end cycle.
    pub fn finished(&self) -> bool {
        self.state.cycle >= self.params.end_cycle
    }

    /// The CFL-limited time step for the current state.
    pub fn stable_dt(&self) -> f64 {
        let max_speed = self.state.max_signal_speed().max(1e-9);
        let min_dx = self.state.dx.iter().cloned().fold(f64::INFINITY, f64::min);
        self.params.cfl * min_dx / max_speed
    }

    /// Advance one cycle (`sweepx; sweepy; sweepz;`), returning the time
    /// step taken.
    pub fn step(&mut self) -> f64 {
        let dt = self.stable_dt();
        sweepx(&mut self.state, dt);
        sweepy(&mut self.state, dt);
        sweepz(&mut self.state, dt);
        if self.config.problem == Problem::BowShock {
            apply_wind_source(&mut self.state, &self.params);
        }
        self.state.time += dt;
        self.state.cycle += 1;
        dt
    }

    /// Advance `cycles` cycles.
    pub fn run(&mut self, cycles: u64) {
        for _ in 0..cycles {
            if self.finished() {
                break;
            }
            self.step();
        }
    }

    /// Apply new steering parameters (the `RICSA_UpdateSimulationParameters`
    /// hook).  Parameters are sanitized; the adiabatic index is applied to
    /// the equation of state immediately.
    pub fn update_params(&mut self, params: SteerableParams) {
        let params = params.sanitized();
        self.state.eos.gamma = params.gamma;
        self.params = params;
    }

    /// Produce the dataset for the current cycle (the
    /// `RICSA_PushDataToVizNode` hook).
    pub fn snapshot(&self) -> VolumeContainer {
        self.state.to_container()
    }

    /// Restart from a previously produced snapshot ("restart from old dump
    /// file to save time" in the VH1 pseudo-code).  Only the standard
    /// variables are recovered; velocity direction information is not stored
    /// in snapshots, so momentum is reset along x.
    pub fn restart_from(&mut self, snapshot: &VolumeContainer) -> bool {
        let density = match snapshot.variable("density") {
            Some(f) if f.dims == self.state.dims => f,
            _ => return false,
        };
        let pressure = match snapshot.variable("pressure") {
            Some(f) if f.dims == self.state.dims => f,
            _ => return false,
        };
        let velocity = snapshot.variable("velocity");
        for i in 0..self.state.rho.len() {
            let rho = density.data[i].max(1e-6) as f64;
            let p = pressure.data[i].max(1e-9) as f64;
            let u = velocity.map(|v| v.data[i] as f64).unwrap_or(0.0);
            self.state.set_primitive(i, rho, [u, 0.0, 0.0], p);
        }
        self.state.cycle = snapshot.cycle;
        self.state.time = snapshot.time;
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sod_exact::{ExactRiemann, RiemannStates};
    use crate::state::HydroVariable;

    #[test]
    fn sod_run_matches_the_exact_solution_shape() {
        // 1D Sod tube at t ~ 0.15: compare the numerical density profile to
        // the exact solution in L1.  A first-order scheme on 256 cells keeps
        // the L1 error below a few percent.
        let config = SolverConfig {
            problem: Problem::SodShockTube,
            dims: Dims::new(256, 1, 1),
            params: SteerableParams {
                cfl: 0.4,
                end_cycle: 100_000,
                ..SteerableParams::default()
            },
        };
        let mut solver = HydroSolver::new(config);
        let t_target = 0.15;
        while solver.state().time < t_target {
            solver.step();
        }
        let exact = ExactRiemann::solve(RiemannStates::sod());
        let state = solver.state();
        let n = state.dims.nx;
        let mut l1 = 0.0;
        for x in 0..n {
            let pos = (x as f64 + 0.5) / n as f64;
            let (rho_exact, _, _) = exact.sample(pos, 0.5, state.time);
            let (rho_num, _, _) = state.primitive(state.index(x, 0, 0));
            l1 += (rho_exact - rho_num).abs() / n as f64;
        }
        assert!(l1 < 0.03, "L1 density error {l1}");
        assert!(state.is_physical());
    }

    #[test]
    fn mass_is_conserved_while_waves_stay_interior() {
        let mut solver = HydroSolver::new(SolverConfig {
            problem: Problem::SodShockTube,
            dims: Dims::new(128, 1, 1),
            params: SteerableParams::default(),
        });
        let before = solver.state().total_mass();
        solver.run(30);
        let after = solver.state().total_mass();
        assert!(
            ((before - after) / before).abs() < 1e-10,
            "mass drifted from {before} to {after}"
        );
    }

    #[test]
    fn cycles_and_finish_flag_advance() {
        let mut solver = HydroSolver::new(SolverConfig {
            problem: Problem::SodShockTube,
            dims: Dims::new(32, 1, 1),
            params: SteerableParams {
                end_cycle: 5,
                ..SteerableParams::default()
            },
        });
        assert_eq!(solver.cycle(), 0);
        assert!(!solver.finished());
        solver.run(100);
        assert_eq!(solver.cycle(), 5);
        assert!(solver.finished());
    }

    #[test]
    fn steering_changes_take_effect_mid_run() {
        let mut solver = HydroSolver::new(SolverConfig::sod_small());
        solver.run(3);
        let old_gamma = solver.state().eos.gamma;
        solver.update_params(SteerableParams {
            gamma: 1.6667,
            cfl: 0.2,
            ..SteerableParams::default()
        });
        assert!((solver.state().eos.gamma - 1.6667).abs() < 1e-9);
        assert_ne!(solver.state().eos.gamma, old_gamma);
        // A smaller CFL factor shrinks the next step.
        let dt = solver.stable_dt();
        solver.update_params(SteerableParams {
            cfl: 0.4,
            gamma: 1.6667,
            ..SteerableParams::default()
        });
        assert!(solver.stable_dt() > dt);
    }

    #[test]
    fn bow_shock_develops_a_pressure_peak_upstream_of_the_source() {
        let mut solver = HydroSolver::new(SolverConfig {
            problem: Problem::BowShock,
            dims: Dims::new(64, 48, 1),
            params: SteerableParams {
                inflow_velocity: 3.0,
                ..SteerableParams::default()
            },
        });
        solver.run(60);
        let state = solver.state();
        assert!(state.is_physical());
        let p = state.field(HydroVariable::Pressure);
        // Pressure just upstream (lower x) of the wind source exceeds the
        // ambient pressure because the wind and the inflow collide there.
        let upstream = p.get(14, 24, 0);
        let ambient = p.get(60, 5, 0);
        assert!(
            upstream > ambient * 1.3,
            "upstream {upstream} vs ambient {ambient}"
        );
    }

    #[test]
    fn snapshot_and_restart_round_trip() {
        let mut solver = HydroSolver::new(SolverConfig::sod_small());
        solver.run(5);
        let snap = solver.snapshot();
        assert_eq!(snap.cycle, 5);
        let mut fresh = HydroSolver::new(SolverConfig::sod_small());
        assert!(fresh.restart_from(&snap));
        assert_eq!(fresh.cycle(), 5);
        let (rho_a, _, _) = solver.state().primitive(10);
        let (rho_b, _, _) = fresh.state().primitive(10);
        assert!((rho_a - rho_b).abs() < 1e-4);
        // Mismatched dims are rejected.
        let mut other = HydroSolver::new(SolverConfig {
            problem: Problem::SodShockTube,
            dims: Dims::new(16, 1, 1),
            params: SteerableParams::default(),
        });
        assert!(!other.restart_from(&snap));
    }
}
