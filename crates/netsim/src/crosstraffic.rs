//! Cross-traffic processes.
//!
//! On real wide-area paths the bandwidth available to a flow fluctuates with
//! competing traffic; this is what makes throughput "random" in the paper's
//! Section 4.3 and what the Robbins–Monro stabilizer of Section 3 must cope
//! with.  A [`CrossTraffic`] process maps virtual time to the fraction of the
//! link's raw bandwidth that competing traffic currently consumes, so the
//! effective bandwidth seen by the simulated flow is `raw * (1 - load(t))`.

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// A time-varying cross-traffic load model for one link direction.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum CrossTraffic {
    /// No competing traffic: the flow sees the raw link bandwidth.
    #[default]
    None,
    /// A constant fraction of the link consumed by background traffic.
    Constant {
        /// Fraction of the link consumed, in `[0, 1)`.
        load: f64,
    },
    /// A two-state Markov-modulated on/off process: background traffic
    /// alternates between a low-load and a high-load state with
    /// exponentially distributed holding times.
    OnOff {
        /// Load during the quiet state, in `[0, 1)`.
        low_load: f64,
        /// Load during the busy state, in `[0, 1)`.
        high_load: f64,
        /// Mean holding time of the quiet state, seconds.
        mean_low_duration: f64,
        /// Mean holding time of the busy state, seconds.
        mean_high_duration: f64,
    },
    /// Sinusoidally varying load (diurnal-style slow variation), useful for
    /// testing adaptation to smooth drifts.
    Sinusoidal {
        /// Mean load, in `[0, 1)`.
        mean_load: f64,
        /// Peak deviation from the mean.
        amplitude: f64,
        /// Oscillation period, seconds.
        period: f64,
    },
}

impl CrossTraffic {
    /// Create the runtime state for this process.
    pub fn instantiate(&self, rng: &mut SimRng) -> CrossTrafficState {
        let mut state = CrossTrafficState {
            model: self.clone(),
            in_high_state: false,
            next_transition: 0.0,
            rng: rng.fork(0xC0FF),
        };
        if let CrossTraffic::OnOff {
            mean_low_duration, ..
        } = self
        {
            state.next_transition = state.rng.exponential(*mean_low_duration);
        }
        state
    }

    /// The long-run mean load of this process.
    pub fn mean_load(&self) -> f64 {
        match *self {
            CrossTraffic::None => 0.0,
            CrossTraffic::Constant { load } => clamp_load(load),
            CrossTraffic::OnOff {
                low_load,
                high_load,
                mean_low_duration,
                mean_high_duration,
            } => {
                let total = mean_low_duration + mean_high_duration;
                if total <= 0.0 {
                    return clamp_load(low_load);
                }
                clamp_load(
                    (clamp_load(low_load) * mean_low_duration
                        + clamp_load(high_load) * mean_high_duration)
                        / total,
                )
            }
            CrossTraffic::Sinusoidal { mean_load, .. } => clamp_load(mean_load),
        }
    }
}

fn clamp_load(l: f64) -> f64 {
    l.clamp(0.0, 0.99)
}

/// Mutable state of an instantiated cross-traffic process.
#[derive(Debug, Clone)]
pub struct CrossTrafficState {
    model: CrossTraffic,
    in_high_state: bool,
    next_transition: f64,
    rng: SimRng,
}

impl CrossTrafficState {
    /// The background load at virtual time `now` (seconds), in `[0, 0.99]`.
    ///
    /// For the Markov on/off process the state machine is advanced lazily up
    /// to `now`; queries must therefore be made with non-decreasing times
    /// (which the simulator guarantees).
    #[inline]
    pub fn load_at(&mut self, now: f64) -> f64 {
        match self.model {
            CrossTraffic::None => 0.0,
            CrossTraffic::Constant { load } => clamp_load(load),
            CrossTraffic::Sinusoidal {
                mean_load,
                amplitude,
                period,
            } => {
                if period <= 0.0 {
                    return clamp_load(mean_load);
                }
                let phase = 2.0 * std::f64::consts::PI * now / period;
                clamp_load(mean_load + amplitude * phase.sin())
            }
            CrossTraffic::OnOff {
                low_load,
                high_load,
                mean_low_duration,
                mean_high_duration,
            } => {
                while now >= self.next_transition {
                    self.in_high_state = !self.in_high_state;
                    let mean = if self.in_high_state {
                        mean_high_duration
                    } else {
                        mean_low_duration
                    };
                    let hold = self.rng.exponential(mean.max(1e-6)).max(1e-6);
                    self.next_transition += hold;
                }
                clamp_load(if self.in_high_state {
                    high_load
                } else {
                    low_load
                })
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_and_constant() {
        let mut rng = SimRng::new(1);
        let mut none = CrossTraffic::None.instantiate(&mut rng);
        assert_eq!(none.load_at(10.0), 0.0);
        let mut c = CrossTraffic::Constant { load: 0.4 }.instantiate(&mut rng);
        assert_eq!(c.load_at(0.0), 0.4);
        assert_eq!(c.load_at(100.0), 0.4);
        // Extreme constant load is clamped below 1 so links never stall.
        let mut full = CrossTraffic::Constant { load: 5.0 }.instantiate(&mut rng);
        assert!(full.load_at(0.0) <= 0.99);
    }

    #[test]
    fn sinusoidal_oscillates_about_mean() {
        let mut rng = SimRng::new(2);
        let model = CrossTraffic::Sinusoidal {
            mean_load: 0.5,
            amplitude: 0.2,
            period: 10.0,
        };
        let mut s = model.instantiate(&mut rng);
        let loads: Vec<f64> = (0..100).map(|i| s.load_at(i as f64 * 0.1)).collect();
        let mean: f64 = loads.iter().sum::<f64>() / loads.len() as f64;
        assert!((mean - 0.5).abs() < 0.05);
        assert!(loads.iter().cloned().fold(0.0_f64, f64::max) > 0.65);
        assert!(loads.iter().cloned().fold(1.0_f64, f64::min) < 0.35);
    }

    #[test]
    fn onoff_time_average_matches_mean() {
        let model = CrossTraffic::OnOff {
            low_load: 0.1,
            high_load: 0.7,
            mean_low_duration: 2.0,
            mean_high_duration: 1.0,
        };
        let expected = model.mean_load();
        assert!((expected - (0.1 * 2.0 + 0.7) / 3.0).abs() < 1e-12);
        let mut rng = SimRng::new(3);
        let mut s = model.instantiate(&mut rng);
        let dt = 0.01;
        let steps = 400_000;
        let mean: f64 = (0..steps).map(|i| s.load_at(i as f64 * dt)).sum::<f64>() / steps as f64;
        assert!((mean - expected).abs() < 0.03, "mean {mean} vs {expected}");
    }

    #[test]
    fn onoff_queries_are_monotone_safe() {
        let model = CrossTraffic::OnOff {
            low_load: 0.0,
            high_load: 0.9,
            mean_low_duration: 0.5,
            mean_high_duration: 0.5,
        };
        let mut rng = SimRng::new(4);
        let mut s = model.instantiate(&mut rng);
        // Repeated queries at the same time must not advance the process.
        let a = s.load_at(1.0);
        let b = s.load_at(1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn mean_load_degenerate() {
        let m = CrossTraffic::OnOff {
            low_load: 0.3,
            high_load: 0.8,
            mean_low_duration: 0.0,
            mean_high_duration: 0.0,
        };
        assert_eq!(m.mean_load(), 0.3);
        let s = CrossTraffic::Sinusoidal {
            mean_load: 0.2,
            amplitude: 0.1,
            period: 0.0,
        };
        assert_eq!(s.mean_load(), 0.2);
    }
}
