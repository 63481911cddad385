//! Ideal-gas (gamma-law) equation of state.

use serde::{Deserialize, Serialize};

/// The gamma-law equation of state `p = (γ - 1) ρ e_int`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IdealGas {
    /// Adiabatic index γ.
    pub gamma: f64,
}

impl Default for IdealGas {
    fn default() -> Self {
        IdealGas { gamma: 1.4 }
    }
}

impl IdealGas {
    /// Construct with the given adiabatic index.
    ///
    /// # Panics
    /// Panics unless `gamma > 1`.
    pub fn new(gamma: f64) -> Self {
        assert!(gamma > 1.0, "adiabatic index must exceed 1, got {gamma}");
        IdealGas { gamma }
    }

    /// Pressure from density and specific internal energy.
    pub fn pressure(&self, rho: f64, internal_energy: f64) -> f64 {
        ((self.gamma - 1.0) * rho * internal_energy).max(0.0)
    }

    /// Pressure from conservative variables (density, momentum, total
    /// energy per volume).
    pub fn pressure_cons(&self, rho: f64, momentum: [f64; 3], total_energy: f64) -> f64 {
        let rho = rho.max(1e-12);
        let kinetic = 0.5 * (momentum[0].powi(2) + momentum[1].powi(2) + momentum[2].powi(2)) / rho;
        ((self.gamma - 1.0) * (total_energy - kinetic)).max(0.0)
    }

    /// Primitive variables `(rho, velocity, pressure)` from conservative
    /// ones; the density is returned as given.
    pub(crate) fn primitive(
        &self,
        rho: f64,
        momentum: [f64; 3],
        total_energy: f64,
    ) -> (f64, [f64; 3], f64) {
        let guarded = rho.max(1e-12);
        let v = momentum.map(|m| m / guarded);
        (rho, v, self.pressure_cons(rho, momentum, total_energy))
    }

    /// Total energy per volume from primitive variables.
    pub fn total_energy(&self, rho: f64, velocity: [f64; 3], pressure: f64) -> f64 {
        let kinetic = 0.5 * rho * (velocity[0].powi(2) + velocity[1].powi(2) + velocity[2].powi(2));
        pressure / (self.gamma - 1.0) + kinetic
    }

    /// Adiabatic sound speed.
    pub fn sound_speed(&self, rho: f64, pressure: f64) -> f64 {
        (self.gamma * pressure.max(0.0) / rho.max(1e-12)).sqrt()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pressure_and_energy_are_inverse_operations() {
        let eos = IdealGas::new(1.4);
        let rho = 1.2;
        let v = [0.3, -0.2, 0.1];
        let p = 0.8;
        let e = eos.total_energy(rho, v, p);
        let mom = [rho * v[0], rho * v[1], rho * v[2]];
        let back = eos.pressure_cons(rho, mom, e);
        assert!((back - p).abs() < 1e-12);
    }

    #[test]
    fn sound_speed_matches_analytics() {
        let eos = IdealGas::new(1.4);
        // c = sqrt(gamma * p / rho) = sqrt(1.4) for p = rho = 1.
        assert!((eos.sound_speed(1.0, 1.0) - 1.4f64.sqrt()).abs() < 1e-12);
        // Degenerate inputs do not produce NaN.
        assert!(eos.sound_speed(0.0, 1.0).is_finite());
        assert_eq!(eos.sound_speed(1.0, -1.0), 0.0);
    }

    #[test]
    fn negative_internal_energy_clamps_to_zero_pressure() {
        let eos = IdealGas::default();
        assert_eq!(eos.pressure(1.0, -5.0), 0.0);
        assert_eq!(eos.pressure_cons(1.0, [10.0, 0.0, 0.0], 1.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "adiabatic index")]
    fn gamma_must_exceed_one() {
        let _ = IdealGas::new(1.0);
    }
}
