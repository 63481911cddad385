//! The RICSA simulation-side API.
//!
//! The paper integrates simulation codes by inserting six API calls into
//! their main loops (Fig. 7):
//!
//! ```text
//! RICSA_StartupSimulationServer();
//! RICSA_WaitAcceptConnection();
//! do RICSA_ReceiveHandleMessage(); while (Message Not SimulationReq)
//! ...
//! do {
//!     sweepx; sweepy; sweepz;
//!     RICSA_PushDataToVizNode();
//!     RICSA_ReceiveHandleMessage();
//!     if (Message is NewSimulationParameters) RICSA_UpdateSimulationParameters();
//! } while (Cycle Not EndCycle)
//! ```
//!
//! [`SimulationServer`] provides the same six operations for in-process use
//! (the web front end and the examples steer a live `ricsa-hydro` solver
//! through it): `startup`, `wait_accept_connection`,
//! `receive_handle_message`, `push_data_to_viz_node`,
//! `update_simulation_parameters`, and the cycle loop itself.

use crossbeam::channel::{unbounded, Receiver, Sender};
use ricsa_hydro::problems::Problem;
use ricsa_hydro::solver::{HydroSolver, SolverConfig};
use ricsa_hydro::steering::SteerableParams;
use ricsa_vizdata::field::Dims;
use ricsa_vizdata::io::VolumeContainer;
use serde::{Deserialize, Serialize};

/// Commands a client (front end) can send to a running simulation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum SimulationCommand {
    /// Start the requested simulation (the initial "SimulationReq").
    Start {
        /// Which problem to run.
        problem: Problem,
        /// Grid resolution.
        dims: Dims,
        /// Initial steering parameters.
        params: SteerableParams,
    },
    /// Update the steering parameters of the running simulation.
    UpdateParameters(SteerableParams),
    /// Pause the simulation (no further cycles until resumed).
    Pause,
    /// Resume a paused simulation.
    Resume,
    /// Stop the simulation and shut the server down.
    Stop,
}

/// The server's view of the simulation state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SimulationStatus {
    /// Waiting for a client to connect and request a simulation.
    WaitingForRequest,
    /// Running cycles.
    Running,
    /// Paused by the client.
    Paused,
    /// Finished (end cycle reached or stopped).
    Finished,
}

/// The in-process simulation server wrapping a hydrodynamics solver.
pub struct SimulationServer {
    command_tx: Sender<SimulationCommand>,
    command_rx: Receiver<SimulationCommand>,
    data_tx: Sender<VolumeContainer>,
    data_rx: Receiver<VolumeContainer>,
    solver: Option<HydroSolver>,
    status: SimulationStatus,
}

impl Default for SimulationServer {
    fn default() -> Self {
        SimulationServer::startup()
    }
}

impl SimulationServer {
    /// `RICSA_StartupSimulationServer`: create the server and its channels.
    pub fn startup() -> Self {
        let (command_tx, command_rx) = unbounded();
        let (data_tx, data_rx) = unbounded();
        SimulationServer {
            command_tx,
            command_rx,
            data_tx,
            data_rx,
            solver: None,
            status: SimulationStatus::WaitingForRequest,
        }
    }

    /// `RICSA_WaitAcceptConnection`: hand out the endpoints a client (front
    /// end) uses to steer the simulation and receive datasets.
    pub fn wait_accept_connection(&self) -> (Sender<SimulationCommand>, Receiver<VolumeContainer>) {
        (self.command_tx.clone(), self.data_rx.clone())
    }

    /// Current server status.
    pub fn status(&self) -> SimulationStatus {
        self.status
    }

    /// Current cycle of the running simulation (0 before start).
    pub fn cycle(&self) -> u64 {
        self.solver.as_ref().map(|s| s.cycle()).unwrap_or(0)
    }

    /// The running solver's steering parameters, if any.
    pub fn params(&self) -> Option<SteerableParams> {
        self.solver.as_ref().map(|s| *s.params())
    }

    /// `RICSA_ReceiveHandleMessage`: drain pending client commands, applying
    /// them to the server state.  Returns the number of commands handled.
    pub fn receive_handle_message(&mut self) -> usize {
        let mut handled = 0;
        while let Ok(cmd) = self.command_rx.try_recv() {
            handled += 1;
            self.handle(cmd);
        }
        handled
    }

    fn handle(&mut self, cmd: SimulationCommand) {
        match cmd {
            SimulationCommand::Start {
                problem,
                dims,
                params,
            } => {
                if self.solver.is_none() {
                    self.solver = Some(HydroSolver::new(SolverConfig {
                        problem,
                        dims,
                        params,
                    }));
                    self.status = SimulationStatus::Running;
                }
            }
            SimulationCommand::UpdateParameters(params) => {
                self.update_simulation_parameters(params);
            }
            SimulationCommand::Pause => {
                if self.status == SimulationStatus::Running {
                    self.status = SimulationStatus::Paused;
                }
            }
            SimulationCommand::Resume => {
                if self.status == SimulationStatus::Paused {
                    self.status = SimulationStatus::Running;
                }
            }
            SimulationCommand::Stop => {
                self.status = SimulationStatus::Finished;
            }
        }
    }

    /// `RICSA_UpdateSimulationParameters`: apply new steering parameters to
    /// the running solver.
    pub fn update_simulation_parameters(&mut self, params: SteerableParams) {
        if let Some(solver) = &mut self.solver {
            solver.update_params(params);
        }
    }

    /// `RICSA_PushDataToVizNode`: snapshot the current state and push it to
    /// the visualization side.  Returns the snapshot size in bytes.
    pub fn push_data_to_viz_node(&mut self) -> usize {
        match &self.solver {
            Some(solver) => {
                let snapshot = solver.snapshot();
                let bytes = snapshot.nbytes();
                // The channel is unbounded, so nothing is dropped: a send
                // fails only once the visualization side has hung up, and
                // then there is nobody left to deliver to.
                let _ = self.data_tx.send(snapshot);
                bytes
            }
            None => 0,
        }
    }

    /// Run one simulation cycle (`sweepx; sweepy; sweepz;`), push the data,
    /// and handle pending messages — one trip around the paper's main loop.
    /// Returns `false` once the simulation has finished.
    pub fn run_cycle(&mut self) -> bool {
        self.receive_handle_message();
        match self.status {
            SimulationStatus::Running => {}
            SimulationStatus::Paused | SimulationStatus::WaitingForRequest => return true,
            SimulationStatus::Finished => return false,
        }
        let finished = {
            let solver = match &mut self.solver {
                Some(s) => s,
                None => return true,
            };
            solver.step();
            solver.finished()
        };
        self.push_data_to_viz_node();
        if finished {
            self.status = SimulationStatus::Finished;
        }
        self.status != SimulationStatus::Finished
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn start_command(end_cycle: u64) -> SimulationCommand {
        SimulationCommand::Start {
            problem: Problem::SodShockTube,
            dims: Dims::new(32, 2, 2),
            params: SteerableParams {
                end_cycle,
                ..SteerableParams::default()
            },
        }
    }

    #[test]
    fn full_main_loop_round_trip() {
        let mut server = SimulationServer::startup();
        assert_eq!(server.status(), SimulationStatus::WaitingForRequest);
        let (commands, data) = server.wait_accept_connection();
        commands.send(start_command(3)).unwrap();
        // The paper's loop: handle the request, then cycle until EndCycle.
        let mut cycles = 0;
        while server.run_cycle() && cycles < 100 {
            cycles += 1;
        }
        assert_eq!(server.status(), SimulationStatus::Finished);
        assert_eq!(server.cycle(), 3);
        // One snapshot per completed cycle was pushed to the viz side.
        let snapshots: Vec<VolumeContainer> = data.try_iter().collect();
        assert_eq!(snapshots.len(), 3);
        assert!(snapshots.iter().all(|s| s.nbytes() > 0));
        assert_eq!(snapshots.last().unwrap().cycle, 3);
    }

    #[test]
    fn steering_updates_reach_the_solver_between_cycles() {
        let mut server = SimulationServer::startup();
        let (commands, _data) = server.wait_accept_connection();
        commands.send(start_command(100)).unwrap();
        server.run_cycle();
        let before = server.params().unwrap().cfl;
        commands
            .send(SimulationCommand::UpdateParameters(SteerableParams {
                cfl: 0.1,
                end_cycle: 100,
                ..SteerableParams::default()
            }))
            .unwrap();
        server.run_cycle();
        let after = server.params().unwrap().cfl;
        assert_ne!(before, after);
        assert!((after - 0.1).abs() < 1e-12);
    }

    #[test]
    fn pause_resume_and_stop() {
        let mut server = SimulationServer::startup();
        let (commands, _data) = server.wait_accept_connection();
        commands.send(start_command(1000)).unwrap();
        server.run_cycle();
        let cycle_before = server.cycle();
        commands.send(SimulationCommand::Pause).unwrap();
        server.run_cycle();
        server.run_cycle();
        assert_eq!(
            server.cycle(),
            cycle_before,
            "paused simulation must not advance"
        );
        assert_eq!(server.status(), SimulationStatus::Paused);
        commands.send(SimulationCommand::Resume).unwrap();
        server.run_cycle();
        assert!(server.cycle() > cycle_before);
        commands.send(SimulationCommand::Stop).unwrap();
        assert!(!server.run_cycle());
        assert_eq!(server.status(), SimulationStatus::Finished);
    }

    #[test]
    fn push_without_a_running_simulation_is_a_noop() {
        let mut server = SimulationServer::startup();
        assert_eq!(server.push_data_to_viz_node(), 0);
        assert_eq!(server.cycle(), 0);
        assert!(server.params().is_none());
        // Cycling while waiting for a request does nothing but stays alive.
        assert!(server.run_cycle());
    }
}
