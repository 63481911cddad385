//! The HLL approximate Riemann solver used by the dimensional sweeps.
//!
//! VH1 proper uses a Lagrangian-remap PPM scheme; a first-order Godunov
//! scheme with HLL fluxes reproduces the same wave families (shock, contact,
//! rarefaction) with more numerical diffusion, which is all the steering
//! framework needs: physically plausible fields evolving over many cycles.

use crate::eos::IdealGas;
use serde::{Deserialize, Serialize};

/// One-dimensional conservative state used inside a sweep: density, normal
/// momentum, the two transverse momenta, and total energy.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct Cons1D {
    /// Mass density.
    pub rho: f64,
    /// Momentum along the sweep direction.
    pub mn: f64,
    /// First transverse momentum.
    pub mt1: f64,
    /// Second transverse momentum.
    pub mt2: f64,
    /// Total energy density.
    pub energy: f64,
}

impl Cons1D {
    /// Build from primitive variables.
    pub fn from_primitive(eos: &IdealGas, rho: f64, un: f64, ut1: f64, ut2: f64, p: f64) -> Self {
        Cons1D {
            rho,
            mn: rho * un,
            mt1: rho * ut1,
            mt2: rho * ut2,
            energy: eos.total_energy(rho, [un, ut1, ut2], p),
        }
    }

    /// Normal velocity.
    pub fn un(&self) -> f64 {
        self.mn / self.rho.max(1e-12)
    }

    /// Pressure under the given equation of state.
    pub fn pressure(&self, eos: &IdealGas) -> f64 {
        eos.pressure_cons(self.rho, [self.mn, self.mt1, self.mt2], self.energy)
    }

    /// The physical flux of this state along the sweep direction.
    pub fn flux(&self, eos: &IdealGas) -> Cons1D {
        self.flux_at(self.un(), self.pressure(eos))
    }

    /// The physical flux given this state's normal velocity and pressure.
    fn flux_at(&self, un: f64, p: f64) -> Cons1D {
        Cons1D {
            rho: self.mn,
            mn: self.mn * un + p,
            mt1: self.mt1 * un,
            mt2: self.mt2 * un,
            energy: (self.energy + p) * un,
        }
    }

    /// Component-wise linear combination `self + scale * other`.
    pub fn add_scaled(&self, other: &Cons1D, scale: f64) -> Cons1D {
        Cons1D {
            rho: self.rho + scale * other.rho,
            mn: self.mn + scale * other.mn,
            mt1: self.mt1 + scale * other.mt1,
            mt2: self.mt2 + scale * other.mt2,
            energy: self.energy + scale * other.energy,
        }
    }
}

/// A cell's state with what the HLL flux needs from it at either face:
/// normal velocity, sound speed and physical flux.  A sweep computes one
/// per cell, where evaluating both faces from the bare states would compute
/// every cell's twice.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Wave {
    pub(crate) state: Cons1D,
    pub(crate) un: f64,
    pub(crate) c: f64,
    pub(crate) flux: Cons1D,
}

impl Wave {
    #[inline(always)]
    pub(crate) fn new(eos: &IdealGas, state: Cons1D) -> Wave {
        let un = state.un();
        let p = state.pressure(eos);
        Wave {
            state,
            un,
            c: eos.sound_speed(state.rho, p),
            flux: state.flux_at(un, p),
        }
    }
}

/// The HLL numerical flux across an interface between states `left` and
/// `right`.
pub fn hll_flux(eos: &IdealGas, left: &Cons1D, right: &Cons1D) -> Cons1D {
    hll_between(&Wave::new(eos, *left), &Wave::new(eos, *right))
}

/// The HLL numerical flux between two prepared cells.  The star-state
/// flux is computed whether or not it is taken, so a loop over faces has
/// no branch to take.
#[inline(always)]
pub(crate) fn hll_between(l: &Wave, r: &Wave) -> Cons1D {
    let (left, right) = (&l.state, &r.state);
    let (ul, ur, cl, cr) = (l.un, r.un, l.c, r.c);
    // Davis wave-speed estimates.
    let s_left = (ul - cl).min(ur - cr);
    let s_right = (ul + cl).max(ur + cr);
    let span = (s_right - s_left).max(1e-12);
    let pick = |fl: f64, fr: f64, ql: f64, qr: f64| {
        let star = (s_right * fl - s_left * fr + s_left * s_right * (qr - ql)) / span;
        if s_left >= 0.0 {
            fl
        } else if s_right <= 0.0 {
            fr
        } else {
            star
        }
    };
    let (fl, fr) = (l.flux, r.flux);
    Cons1D {
        rho: pick(fl.rho, fr.rho, left.rho, right.rho),
        mn: pick(fl.mn, fr.mn, left.mn, right.mn),
        mt1: pick(fl.mt1, fr.mt1, left.mt1, right.mt1),
        mt2: pick(fl.mt2, fr.mt2, left.mt2, right.mt2),
        energy: pick(fl.energy, fr.energy, left.energy, right.energy),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn eos() -> IdealGas {
        IdealGas::new(1.4)
    }

    #[test]
    fn primitive_round_trip_and_flux_of_rest_state() {
        let e = eos();
        let s = Cons1D::from_primitive(&e, 1.0, 0.0, 0.0, 0.0, 1.0);
        assert!((s.pressure(&e) - 1.0).abs() < 1e-12);
        assert_eq!(s.un(), 0.0);
        let f = s.flux(&e);
        // At rest the only nonzero flux component is the pressure term.
        assert_eq!(f.rho, 0.0);
        assert!((f.mn - 1.0).abs() < 1e-12);
        assert_eq!(f.energy, 0.0);
    }

    #[test]
    fn hll_of_identical_states_is_their_physical_flux() {
        let e = eos();
        let s = Cons1D::from_primitive(&e, 1.3, 0.4, 0.1, -0.2, 0.9);
        let f = hll_flux(&e, &s, &s);
        let expected = s.flux(&e);
        assert!((f.rho - expected.rho).abs() < 1e-12);
        assert!((f.mn - expected.mn).abs() < 1e-12);
        assert!((f.energy - expected.energy).abs() < 1e-12);
    }

    #[test]
    fn supersonic_flow_upwinds_completely() {
        let e = eos();
        // Mach ~3 flow to the right: the flux must equal the left flux.
        let left = Cons1D::from_primitive(&e, 1.0, 4.0, 0.0, 0.0, 1.0);
        let right = Cons1D::from_primitive(&e, 0.1, 4.0, 0.0, 0.0, 0.1);
        let f = hll_flux(&e, &left, &right);
        let fl = left.flux(&e);
        assert!((f.rho - fl.rho).abs() < 1e-12);
        // And symmetrically for leftward supersonic flow.
        let l2 = Cons1D::from_primitive(&e, 0.1, -4.0, 0.0, 0.0, 0.1);
        let r2 = Cons1D::from_primitive(&e, 1.0, -4.0, 0.0, 0.0, 1.0);
        let f2 = hll_flux(&e, &l2, &r2);
        let fr2 = r2.flux(&e);
        assert!((f2.rho - fr2.rho).abs() < 1e-12);
    }

    #[test]
    fn sod_interface_flux_moves_mass_rightward() {
        let e = eos();
        let left = Cons1D::from_primitive(&e, 1.0, 0.0, 0.0, 0.0, 1.0);
        let right = Cons1D::from_primitive(&e, 0.125, 0.0, 0.0, 0.0, 0.1);
        let f = hll_flux(&e, &left, &right);
        assert!(f.rho > 0.0, "mass flux {}", f.rho);
        assert!(f.energy > 0.0);
    }

    #[test]
    fn add_scaled_is_componentwise() {
        let a = Cons1D {
            rho: 1.0,
            mn: 2.0,
            mt1: 3.0,
            mt2: 4.0,
            energy: 5.0,
        };
        let b = Cons1D {
            rho: 10.0,
            mn: 10.0,
            mt1: 10.0,
            mt2: 10.0,
            energy: 10.0,
        };
        let c = a.add_scaled(&b, 0.1);
        assert!((c.rho - 2.0).abs() < 1e-12);
        assert!((c.energy - 6.0).abs() < 1e-12);
    }
}
