//! Initial conditions: the Sod shock tube and the stellar-wind bow shock.
//!
//! These are the two problems visible in the paper's experiments: "The Sod
//! shock tube simulation, a classical hydrodynamics problem, is running on a
//! Linux cluster" and the GUI screenshot shows "the pressure animation of
//! stellar wind bowshock on a cluster".

use crate::eos::IdealGas;
use crate::state::HydroState;
use crate::steering::SteerableParams;
use ricsa_vizdata::field::Dims;
use serde::{Deserialize, Serialize};

/// Which initial-value problem the solver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Problem {
    /// The Sod shock tube: a diaphragm separating a high-pressure and a
    /// low-pressure region along x.
    SodShockTube,
    /// A stellar wind blowing against a uniform ambient flow, forming a bow
    /// shock around the source.
    BowShock,
}

impl Problem {
    /// Display name used by the framework's simulation catalog.
    pub fn name(self) -> &'static str {
        match self {
            Problem::SodShockTube => "sod-shock-tube",
            Problem::BowShock => "stellar-wind-bowshock",
        }
    }

    /// Parse a catalog name back into a problem.
    pub fn from_name(name: &str) -> Option<Problem> {
        match name {
            "sod-shock-tube" => Some(Problem::SodShockTube),
            "stellar-wind-bowshock" => Some(Problem::BowShock),
            _ => None,
        }
    }

    /// Build the initial state on the given grid with the given steering
    /// parameters.
    pub fn initialize(self, dims: Dims, params: &SteerableParams) -> HydroState {
        match self {
            Problem::SodShockTube => sod_shock_tube(dims, params),
            Problem::BowShock => bow_shock(dims, params),
        }
    }
}

/// Standard Sod shock tube: left state `(ρ, p) = (1, 1)`, right state
/// `(0.125, 0.1)`, both at rest, diaphragm at the domain midpoint.  The
/// steering parameter `drive_strength` scales the left-state pressure so a
/// user can strengthen or weaken the shock on the fly.
pub fn sod_shock_tube(dims: Dims, params: &SteerableParams) -> HydroState {
    let params = params.sanitized();
    let eos = IdealGas::new(params.gamma);
    let mut state = HydroState::uniform(dims, eos);
    let mid = dims.nx / 2;
    for z in 0..dims.nz {
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                let i = state.index(x, y, z);
                if x < mid {
                    state.set_primitive(i, 1.0, [0.0; 3], 1.0 * params.drive_strength.max(0.1));
                } else {
                    state.set_primitive(i, 0.125, [0.0; 3], 0.1);
                }
            }
        }
    }
    state
}

/// A stellar wind source at the domain center blowing radially outward into
/// an ambient medium streaming in the +x direction, which rolls up into a
/// bow shock upstream of the source.
pub fn bow_shock(dims: Dims, params: &SteerableParams) -> HydroState {
    let params = params.sanitized();
    let eos = IdealGas::new(params.gamma);
    let mut state = HydroState::uniform(dims, eos);
    let ambient_rho = 1.0;
    let ambient_p = 0.6;
    let inflow = [params.inflow_velocity, 0.0, 0.0];
    for z in 0..dims.nz {
        for y in 0..dims.ny {
            for x in 0..dims.nx {
                let i = state.index(x, y, z);
                state.set_primitive(i, ambient_rho, inflow, ambient_p);
            }
        }
    }
    apply_wind_source(&mut state, &params);
    state
}

/// Re-impose the stellar-wind source region; the solver calls this every
/// cycle so the wind keeps blowing (and so steering changes to the wind
/// strength take effect immediately).
pub fn apply_wind_source(state: &mut HydroState, params: &SteerableParams) {
    let params = params.sanitized();
    let dims = state.dims;
    if dims.nx < 4 || dims.ny < 4 {
        return;
    }
    let center = [
        dims.nx as f64 * 0.35,
        dims.ny as f64 * 0.5,
        (dims.nz.max(1)) as f64 * 0.5,
    ];
    let radius = (dims.ny.min(dims.nx) as f64 * 0.08).max(1.5);
    let wind_rho = 2.0 * params.drive_strength.max(0.01);
    let wind_p = 2.0 * params.drive_strength.max(0.01);
    let wind_speed = params.inflow_velocity.max(0.5);
    // Only cells within a cell of the sphere's bounding box can pass the
    // `r <= radius` test; the margin keeps rounding on the safe side.
    let span = |c: f64, n: usize| {
        let lo = (c - radius).floor() - 1.0;
        lo.max(0.0) as usize..((c + radius).ceil() + 2.0).min(n as f64) as usize
    };
    let zs = if dims.nz > 1 {
        span(center[2], dims.nz)
    } else {
        0..dims.nz
    };
    for z in zs {
        for y in span(center[1], dims.ny) {
            for x in span(center[0], dims.nx) {
                let dx = x as f64 - center[0];
                let dy = y as f64 - center[1];
                let dz = if dims.nz > 1 {
                    z as f64 - center[2]
                } else {
                    0.0
                };
                let r = (dx * dx + dy * dy + dz * dz).sqrt();
                if r <= radius {
                    let dir = if r < 1e-9 {
                        [0.0, 0.0, 0.0]
                    } else {
                        [dx / r, dy / r, dz / r]
                    };
                    let v = [
                        dir[0] * wind_speed,
                        dir[1] * wind_speed,
                        dir[2] * wind_speed,
                    ];
                    let i = state.index(x, y, z);
                    state.set_primitive(i, wind_rho, v, wind_p);
                }
            }
        }
    }
    // Keep the upstream (low-x) boundary feeding the ambient flow.
    for z in 0..dims.nz {
        for y in 0..dims.ny {
            let i = state.index(0, y, z);
            state.set_primitive(i, 1.0, [params.inflow_velocity, 0.0, 0.0], 0.6);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn problem_names_round_trip() {
        for p in [Problem::SodShockTube, Problem::BowShock] {
            assert_eq!(Problem::from_name(p.name()), Some(p));
        }
        assert_eq!(Problem::from_name("unknown"), None);
    }

    #[test]
    fn sod_initial_state_has_the_standard_jump() {
        let state = sod_shock_tube(Dims::new(64, 4, 4), &SteerableParams::default());
        assert!(state.is_physical());
        let (rho_l, v_l, p_l) = state.primitive(state.index(10, 2, 2));
        let (rho_r, v_r, p_r) = state.primitive(state.index(50, 2, 2));
        assert!((rho_l - 1.0).abs() < 1e-12);
        assert!((p_l - 1.0).abs() < 1e-12);
        assert!((rho_r - 0.125).abs() < 1e-12);
        assert!((p_r - 0.1).abs() < 1e-9);
        assert_eq!(v_l, [0.0; 3]);
        assert_eq!(v_r, [0.0; 3]);
    }

    #[test]
    fn drive_strength_scales_the_driver_pressure() {
        let strong = sod_shock_tube(
            Dims::new(32, 1, 1),
            &SteerableParams {
                drive_strength: 5.0,
                ..SteerableParams::default()
            },
        );
        let (_, _, p) = strong.primitive(strong.index(2, 0, 0));
        assert!((p - 5.0).abs() < 1e-9);
    }

    #[test]
    fn bow_shock_has_a_wind_source_inside_ambient_flow() {
        let params = SteerableParams::default();
        let state = bow_shock(Dims::new(48, 32, 1), &params);
        assert!(state.is_physical());
        // Ambient cell far downstream flows in +x at the inflow speed.
        let (_, v, _) = state.primitive(state.index(44, 16, 0));
        assert!((v[0] - params.inflow_velocity).abs() < 1e-9);
        // Wind source region is denser than the ambient medium.
        let src = state.primitive(state.index(16, 16, 0));
        assert!(src.0 > 1.5, "wind density {}", src.0);
    }

    #[test]
    fn wind_source_respects_steering_changes() {
        let mut state = bow_shock(Dims::new(48, 32, 1), &SteerableParams::default());
        let weak = SteerableParams {
            drive_strength: 0.1,
            ..SteerableParams::default()
        };
        apply_wind_source(&mut state, &weak);
        let src = state.primitive(state.index(16, 16, 0));
        assert!(src.0 < 0.5, "wind density after weakening {}", src.0);
    }

    /// The wind source as it was: a distance test at every cell.
    fn reference_apply_wind_source(state: &mut HydroState, params: &SteerableParams) {
        let params = params.sanitized();
        let dims = state.dims;
        if dims.nx < 4 || dims.ny < 4 {
            return;
        }
        let center = [
            dims.nx as f64 * 0.35,
            dims.ny as f64 * 0.5,
            (dims.nz.max(1)) as f64 * 0.5,
        ];
        let radius = (dims.ny.min(dims.nx) as f64 * 0.08).max(1.5);
        let wind = 2.0 * params.drive_strength.max(0.01);
        let wind_speed = params.inflow_velocity.max(0.5);
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                for x in 0..dims.nx {
                    let dx = x as f64 - center[0];
                    let dy = y as f64 - center[1];
                    let dz = if dims.nz > 1 {
                        z as f64 - center[2]
                    } else {
                        0.0
                    };
                    let r = (dx * dx + dy * dy + dz * dz).sqrt();
                    if r <= radius {
                        let dir = if r < 1e-9 {
                            [0.0, 0.0, 0.0]
                        } else {
                            [dx / r, dy / r, dz / r]
                        };
                        let v = dir.map(|d| d * wind_speed);
                        let i = state.index(x, y, z);
                        state.set_primitive(i, wind, v, wind);
                    }
                }
            }
        }
        for z in 0..dims.nz {
            for y in 0..dims.ny {
                let i = state.index(0, y, z);
                state.set_primitive(i, 1.0, [params.inflow_velocity, 0.0, 0.0], 0.6);
            }
        }
    }

    #[test]
    fn the_wind_source_box_equals_the_whole_grid_scan() {
        let params = SteerableParams {
            drive_strength: 1.3,
            inflow_velocity: 2.2,
            ..SteerableParams::default()
        };
        for dims in [
            Dims::new(4, 4, 1),
            Dims::new(5, 9, 2),
            Dims::new(7, 5, 3),
            Dims::new(33, 17, 1),
            Dims::new(64, 64, 32),
            Dims::new(40, 100, 7),
        ] {
            let start = HydroState::uniform(dims, IdealGas::default());
            let (mut boxed, mut scanned) = (start.clone(), start);
            apply_wind_source(&mut boxed, &params);
            reference_apply_wind_source(&mut scanned, &params);
            assert_eq!(boxed, scanned, "{dims:?}");
        }
    }

    #[test]
    fn tiny_grids_do_not_panic() {
        let state = bow_shock(Dims::new(2, 2, 1), &SteerableParams::default());
        assert!(state.is_physical());
    }
}
