//! Packet loss models for simulated links.
//!
//! The transport-stabilization analysis in the paper (Section 3, citing Rao
//! et al.) assumes *random losses*; wide-area paths additionally exhibit
//! bursty (correlated) loss.  Both are provided here: a Bernoulli model and a
//! two-state Gilbert–Elliott model.

use crate::rng::SimRng;
use serde::{Deserialize, Serialize};

/// A per-datagram loss process.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize, Default)]
pub enum LossModel {
    /// No loss at all.
    #[default]
    None,
    /// Independent (Bernoulli) loss with the given probability per datagram.
    Bernoulli {
        /// Probability that any given datagram is dropped.
        p: f64,
    },
    /// Two-state Gilbert–Elliott bursty loss.
    ///
    /// The channel alternates between a *good* state with loss `p_good` and a
    /// *bad* state with loss `p_bad`; transitions occur per datagram with the
    /// given probabilities.
    GilbertElliott {
        /// Probability of moving good → bad on a datagram.
        p_good_to_bad: f64,
        /// Probability of moving bad → good on a datagram.
        p_bad_to_good: f64,
        /// Loss probability while in the good state.
        p_good: f64,
        /// Loss probability while in the bad state.
        p_bad: f64,
    },
}

impl LossModel {
    /// Create the runtime state for this model.
    pub fn instantiate(&self) -> LossState {
        LossState {
            model: self.clone(),
            in_bad_state: false,
            offered: 0,
            dropped: 0,
        }
    }

    /// Long-run average loss probability implied by the model parameters.
    pub fn steady_state_loss(&self) -> f64 {
        match *self {
            LossModel::None => 0.0,
            LossModel::Bernoulli { p } => p.clamp(0.0, 1.0),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                p_good,
                p_bad,
            } => {
                let denom = p_good_to_bad + p_bad_to_good;
                if denom <= 0.0 {
                    return p_good.clamp(0.0, 1.0);
                }
                let pi_bad = p_good_to_bad / denom;
                let pi_good = 1.0 - pi_bad;
                (pi_good * p_good + pi_bad * p_bad).clamp(0.0, 1.0)
            }
        }
    }
}

/// Mutable state of an instantiated loss process on one link direction.
#[derive(Debug, Clone)]
pub struct LossState {
    model: LossModel,
    in_bad_state: bool,
    offered: u64,
    dropped: u64,
}

impl LossState {
    /// Sample whether the next datagram is dropped.
    #[inline]
    pub fn should_drop(&mut self, rng: &mut SimRng) -> bool {
        self.offered += 1;
        let drop = match self.model {
            LossModel::None => false,
            LossModel::Bernoulli { p } => rng.coin(p),
            LossModel::GilbertElliott {
                p_good_to_bad,
                p_bad_to_good,
                p_good,
                p_bad,
            } => {
                // Transition first, then sample loss in the new state.
                if self.in_bad_state {
                    if rng.coin(p_bad_to_good) {
                        self.in_bad_state = false;
                    }
                } else if rng.coin(p_good_to_bad) {
                    self.in_bad_state = true;
                }
                rng.coin(if self.in_bad_state { p_bad } else { p_good })
            }
        };
        if drop {
            self.dropped += 1;
        }
        drop
    }

    /// Fraction of offered datagrams dropped so far (0 if none offered).
    pub fn observed_loss_rate(&self) -> f64 {
        if self.offered == 0 {
            0.0
        } else {
            self.dropped as f64 / self.offered as f64
        }
    }

    /// Number of datagrams offered to this loss process.
    pub fn offered(&self) -> u64 {
        self.offered
    }

    /// Number of datagrams dropped by this loss process.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_never_drops() {
        let mut s = LossModel::None.instantiate();
        let mut rng = SimRng::new(1);
        assert!(!(0..1000).any(|_| s.should_drop(&mut rng)));
        assert_eq!(s.observed_loss_rate(), 0.0);
    }

    #[test]
    fn bernoulli_matches_rate() {
        let mut s = LossModel::Bernoulli { p: 0.1 }.instantiate();
        let mut rng = SimRng::new(2);
        let n = 50_000;
        let drops = (0..n).filter(|_| s.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate}");
        assert!((s.observed_loss_rate() - rate).abs() < 1e-12);
        assert_eq!(s.offered(), n as u64);
        assert_eq!(s.dropped(), drops as u64);
    }

    #[test]
    fn gilbert_elliott_steady_state() {
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 0.01,
            p_bad_to_good: 0.09,
            p_good: 0.001,
            p_bad: 0.3,
        };
        // pi_bad = 0.1, expected loss = 0.9*0.001 + 0.1*0.3 = 0.0309
        let expected = model.steady_state_loss();
        assert!((expected - 0.0309).abs() < 1e-9);
        let mut s = model.instantiate();
        let mut rng = SimRng::new(3);
        let n = 200_000;
        let drops = (0..n).filter(|_| s.should_drop(&mut rng)).count();
        let rate = drops as f64 / n as f64;
        assert!((rate - expected).abs() < 0.005, "rate {rate} vs {expected}");
    }

    #[test]
    fn gilbert_elliott_losses_are_bursty() {
        // With sticky states, consecutive drops should be much more common
        // than under an independent model with the same average rate.
        let model = LossModel::GilbertElliott {
            p_good_to_bad: 0.005,
            p_bad_to_good: 0.05,
            p_good: 0.0,
            p_bad: 0.5,
        };
        let mut s = model.instantiate();
        let mut rng = SimRng::new(4);
        let n = 100_000;
        let outcomes: Vec<bool> = (0..n).map(|_| s.should_drop(&mut rng)).collect();
        let loss_rate = outcomes.iter().filter(|&&d| d).count() as f64 / n as f64;
        let pairs = outcomes.windows(2).filter(|w| w[0] && w[1]).count() as f64;
        let pair_rate = pairs / (n - 1) as f64;
        // Independent losses would give pair_rate ~= loss_rate^2.
        assert!(
            pair_rate > 3.0 * loss_rate * loss_rate,
            "pair_rate {pair_rate}, loss_rate {loss_rate}"
        );
    }

    #[test]
    fn steady_state_degenerate_params() {
        let m = LossModel::GilbertElliott {
            p_good_to_bad: 0.0,
            p_bad_to_good: 0.0,
            p_good: 0.02,
            p_bad: 0.9,
        };
        assert!((m.steady_state_loss() - 0.02).abs() < 1e-12);
    }
}
