//! The conservative-variable state of the hydrodynamics solver.

use crate::eos::IdealGas;
use ricsa_vizdata::field::{Dims, ScalarField};
use ricsa_vizdata::io::VolumeContainer;
use serde::{Deserialize, Serialize};

/// Conservative variables (density, momentum, total energy) on a regular
/// grid, stored struct-of-arrays in the same x-fastest order as
/// `ricsa_vizdata` fields.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HydroState {
    /// Grid dimensions.
    pub dims: Dims,
    /// Cell width along each axis (uniform).
    pub dx: [f64; 3],
    /// Mass density ρ.
    pub rho: Vec<f64>,
    /// Momentum density (ρu, ρv, ρw).
    pub momentum: [Vec<f64>; 3],
    /// Total energy density E.
    pub energy: Vec<f64>,
    /// Equation of state.
    pub eos: IdealGas,
    /// Physical time of this state.
    pub time: f64,
    /// Cycle (time step) counter.
    pub cycle: u64,
}

impl HydroState {
    /// A quiescent state (`ρ = 1`, `p = 1`, `u = 0`) on the given grid.
    pub fn uniform(dims: Dims, eos: IdealGas) -> Self {
        let n = dims.count();
        let rho = vec![1.0; n];
        let momentum = [vec![0.0; n], vec![0.0; n], vec![0.0; n]];
        let energy = vec![eos.total_energy(1.0, [0.0; 3], 1.0); n];
        HydroState {
            dims,
            dx: [
                1.0 / dims.nx.max(1) as f64,
                1.0 / dims.ny.max(1) as f64,
                1.0 / dims.nz.max(1) as f64,
            ],
            rho,
            momentum,
            energy,
            eos,
            time: 0.0,
            cycle: 0,
        }
    }

    /// Linear index of a cell.
    #[inline]
    pub fn index(&self, x: usize, y: usize, z: usize) -> usize {
        self.dims.index(x, y, z)
    }

    /// Set the primitive variables of one cell.
    pub fn set_primitive(&mut self, i: usize, rho: f64, velocity: [f64; 3], pressure: f64) {
        self.rho[i] = rho;
        for (momentum, v) in self.momentum.iter_mut().zip(velocity) {
            momentum[i] = rho * v;
        }
        self.energy[i] = self.eos.total_energy(rho, velocity, pressure);
    }

    /// Primitive variables `(rho, velocity, pressure)` of one cell.
    pub fn primitive(&self, i: usize) -> (f64, [f64; 3], f64) {
        let m = &self.momentum;
        self.eos
            .primitive(self.rho[i], [m[0][i], m[1][i], m[2][i]], self.energy[i])
    }

    /// The primitive variables of every cell, in order.
    fn primitives(&self) -> impl Iterator<Item = (f64, [f64; 3], f64)> + '_ {
        let m = &self.momentum;
        self.rho
            .iter()
            .zip(&m[0])
            .zip(&m[1])
            .zip(&m[2])
            .zip(&self.energy)
            .map(|((((&rho, &u), &v), &w), &e)| self.eos.primitive(rho, [u, v, w], e))
    }

    /// Total mass in the domain.
    pub fn total_mass(&self) -> f64 {
        let cell_volume = self.dx[0] * self.dx[1] * self.dx[2];
        self.rho.iter().sum::<f64>() * cell_volume
    }

    /// Total energy in the domain.
    pub fn total_energy(&self) -> f64 {
        let cell_volume = self.dx[0] * self.dx[1] * self.dx[2];
        self.energy.iter().sum::<f64>() * cell_volume
    }

    /// Largest signal speed in the domain (|u| + c over all axes), used for
    /// the CFL condition.
    pub fn max_signal_speed(&self) -> f64 {
        let mut max = 0.0f64;
        for (rho, v, p) in self.primitives() {
            let c = self.eos.sound_speed(rho, p);
            for vk in v {
                max = max.max(vk.abs() + c);
            }
        }
        max
    }

    /// Whether every cell holds finite, physically admissible values.
    pub fn is_physical(&self) -> bool {
        self.rho.iter().all(|r| r.is_finite() && *r > 0.0)
            && self.energy.iter().all(|e| e.is_finite())
            && self
                .momentum
                .iter()
                .all(|m| m.iter().all(|v| v.is_finite()))
    }

    /// Extract a named primitive field as an `f32` scalar field for the
    /// visualization pipeline.
    pub fn field(&self, variable: HydroVariable) -> ScalarField {
        let mut out = ScalarField::zeros(self.dims);
        out.spacing = [self.dx[0] as f32, self.dx[1] as f32, self.dx[2] as f32];
        for i in 0..self.rho.len() {
            let (rho, v, p) = self.primitive(i);
            out.data[i] = match variable {
                HydroVariable::Density => rho as f32,
                HydroVariable::Pressure => p as f32,
                HydroVariable::VelocityMagnitude => {
                    ((v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()) as f32
                }
                HydroVariable::Energy => self.energy[i] as f32,
            };
        }
        out
    }

    /// Package the standard variable set into a `VolumeContainer` for the
    /// data-source node to cache (the paper's periodically cached datasets).
    /// One pass computes each cell's primitives once for all three fields.
    pub fn to_container(&self) -> VolumeContainer {
        let blank = || {
            let mut field = ScalarField::zeros(self.dims);
            field.spacing = [self.dx[0] as f32, self.dx[1] as f32, self.dx[2] as f32];
            field
        };
        let (mut density, mut pressure, mut speed) = (blank(), blank(), blank());
        let fields = density
            .data
            .iter_mut()
            .zip(&mut pressure.data)
            .zip(&mut speed.data);
        for ((rho, v, p), ((density, pressure), speed)) in self.primitives().zip(fields) {
            *density = rho as f32;
            *pressure = p as f32;
            *speed = ((v[0] * v[0] + v[1] * v[1] + v[2] * v[2]).sqrt()) as f32;
        }
        let mut c = VolumeContainer::new(self.cycle, self.time);
        c.push("density", density);
        c.push("pressure", pressure);
        c.push("velocity", speed);
        c
    }
}

/// The primitive variables exposed to the visualization pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum HydroVariable {
    /// Mass density.
    Density,
    /// Gas pressure.
    Pressure,
    /// Speed (magnitude of the velocity).
    VelocityMagnitude,
    /// Total energy density.
    Energy,
}

/// Seeded states and bit-level comparison for the differential tests.
#[cfg(test)]
pub(crate) mod testing {
    use super::*;

    /// A state with seeded, mostly physical random cells.  About one cell
    /// in eight is extreme: near-vacuum density, an energy below the
    /// kinetic part (negative pressure), or a NaN momentum.
    pub(crate) fn random_state(dims: Dims, seed: u64) -> HydroState {
        let mut s = HydroState::uniform(dims, IdealGas::new(1.4));
        let mut x = seed ^ 0x9E37_79B9_7F4A_7C15;
        let mut next = move || {
            // splitmix64
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
        };
        for i in 0..dims.count() {
            let rho = 0.1 + 3.0 * next();
            let v = [4.0 * next() - 2.0, 4.0 * next() - 2.0, 4.0 * next() - 2.0];
            s.set_primitive(i, rho, v, 0.05 + 3.0 * next());
            match (8.0 * next()) as u32 {
                0 => s.rho[i] = 1e-13,
                1 => s.energy[i] = 1e-3,
                2 if next() < 0.25 => s.momentum[1][i] = f64::NAN,
                _ => {}
            }
        }
        s
    }

    /// Every bit of the state's arrays, so NaNs compare too.
    pub(crate) fn bits(s: &HydroState) -> Vec<u64> {
        let arrays = [
            &s.rho,
            &s.momentum[0],
            &s.momentum[1],
            &s.momentum[2],
            &s.energy,
        ];
        arrays
            .into_iter()
            .flat_map(|a| a.iter().map(|v| v.to_bits()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::testing::random_state;
    use super::*;

    /// The snapshot as it was: one `field` pass per variable.
    fn reference_container(s: &HydroState) -> VolumeContainer {
        let mut c = VolumeContainer::new(s.cycle, s.time);
        c.push("density", s.field(HydroVariable::Density));
        c.push("pressure", s.field(HydroVariable::Pressure));
        c.push("velocity", s.field(HydroVariable::VelocityMagnitude));
        c
    }

    /// The CFL speed as it was: one serial pass.
    fn reference_max_signal_speed(s: &HydroState) -> f64 {
        let mut max = 0.0f64;
        for i in 0..s.rho.len() {
            let (rho, v, p) = s.primitive(i);
            let c = s.eos.sound_speed(rho, p);
            for vk in v {
                max = max.max(vk.abs() + c);
            }
        }
        max
    }

    fn field_bits(c: &VolumeContainer) -> Vec<(String, Vec<u32>, [u32; 3])> {
        c.variables
            .iter()
            .map(|v| {
                let data = v.field.data.iter().map(|x| x.to_bits()).collect();
                (v.name.clone(), data, v.field.spacing.map(f32::to_bits))
            })
            .collect()
    }

    #[test]
    fn one_pass_snapshot_and_streamed_cfl_speed_equal_the_reference() {
        let grids = [
            Dims::new(0, 3, 3),
            Dims::new(1, 1, 1),
            Dims::new(2, 1, 1),
            Dims::new(7, 5, 3),
            Dims::new(16, 9, 4),
        ];
        for (g, dims) in grids.into_iter().enumerate() {
            for seed in 0..3 {
                let mut s = random_state(dims, 0xC0FFEE + 17 * g as u64 + seed);
                s.cycle = 9 + seed;
                s.time = 0.125 * seed as f64;
                let expected = reference_container(&s);
                let speed = reference_max_signal_speed(&s).to_bits();
                let got = s.to_container();
                assert_eq!((got.cycle, got.time), (expected.cycle, expected.time));
                assert_eq!(field_bits(&got), field_bits(&expected), "{dims:?}");
                assert_eq!(s.max_signal_speed().to_bits(), speed);
            }
        }
    }

    #[test]
    fn uniform_state_is_quiescent_and_physical() {
        let s = HydroState::uniform(Dims::new(8, 4, 2), IdealGas::default());
        assert!(s.is_physical());
        let (rho, v, p) = s.primitive(s.index(3, 2, 1));
        assert!((rho - 1.0).abs() < 1e-12);
        assert_eq!(v, [0.0; 3]);
        assert!((p - 1.0).abs() < 1e-12);
        // Quiescent signal speed equals the sound speed.
        assert!((s.max_signal_speed() - s.eos.sound_speed(1.0, 1.0)).abs() < 1e-12);
    }

    #[test]
    fn primitive_round_trip() {
        let mut s = HydroState::uniform(Dims::cube(4), IdealGas::new(1.4));
        let i = s.index(1, 2, 3);
        s.set_primitive(i, 2.5, [0.4, -0.1, 0.2], 3.0);
        let (rho, v, p) = s.primitive(i);
        assert!((rho - 2.5).abs() < 1e-12);
        assert!((v[0] - 0.4).abs() < 1e-12);
        assert!((v[1] + 0.1).abs() < 1e-12);
        assert!((p - 3.0).abs() < 1e-12);
    }

    #[test]
    fn conserved_totals_scale_with_cell_volume() {
        let s = HydroState::uniform(Dims::cube(10), IdealGas::default());
        // Domain is the unit cube, so total mass is the mean density = 1.
        assert!((s.total_mass() - 1.0).abs() < 1e-12);
        assert!(s.total_energy() > 0.0);
    }

    #[test]
    fn field_extraction_matches_primitives() {
        let mut s = HydroState::uniform(Dims::cube(4), IdealGas::default());
        let i = s.index(2, 1, 0);
        s.set_primitive(i, 4.0, [3.0, 0.0, 4.0], 2.0);
        let rho = s.field(HydroVariable::Density);
        let speed = s.field(HydroVariable::VelocityMagnitude);
        let p = s.field(HydroVariable::Pressure);
        assert!((rho.data[i] - 4.0).abs() < 1e-5);
        assert!((speed.data[i] - 5.0).abs() < 1e-5);
        assert!((p.data[i] - 2.0).abs() < 1e-5);
        let energy = s.field(HydroVariable::Energy);
        assert!(energy.data[i] > 0.0);
    }

    #[test]
    fn container_packaging_includes_standard_variables() {
        let s = HydroState::uniform(Dims::cube(4), IdealGas::default());
        let c = s.to_container();
        let names: Vec<&str> = c.variables.iter().map(|v| v.name.as_str()).collect();
        assert_eq!(names, ["density", "pressure", "velocity"]);
        assert_eq!(c.cycle, 0);
        assert!(c.nbytes() > 0);
    }

    #[test]
    fn unphysical_states_are_detected() {
        let mut s = HydroState::uniform(Dims::cube(2), IdealGas::default());
        s.rho[0] = -1.0;
        assert!(!s.is_physical());
        let mut t = HydroState::uniform(Dims::cube(2), IdealGas::default());
        t.energy[3] = f64::NAN;
        assert!(!t.is_physical());
    }
}
