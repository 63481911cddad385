//! Deterministic random number generation for the simulator.
//!
//! All stochastic behaviour in the network simulator (loss sampling, cross
//! traffic, jitter) is driven by a single seedable generator so that a run is
//! exactly reproducible from `(topology, seed)`.  The generator is
//! xoshiro256++ seeded through SplitMix64; its stream is part of the
//! simulation's definition, so every pinned record rests on it (the
//! `stream_is_pinned` test below).  It is not cryptographically secure.

/// A seedable simulator RNG with convenience sampling methods.
#[derive(Debug, Clone)]
pub struct SimRng {
    s: [u64; 4],
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SimRng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut sm = seed;
        SimRng {
            s: std::array::from_fn(|_| splitmix64(&mut sm)),
        }
    }

    /// Derive an independent stream for a sub-component, so that adding a new
    /// consumer does not perturb the draws of existing ones.
    pub fn fork(&mut self, stream: u64) -> SimRng {
        let base = self.next_u64();
        SimRng::new(base ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// A uniform sample in `[0, 1)` with 53 bits of precision.
    pub fn uniform(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// A uniform sample in `[lo, hi)`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        if hi <= lo {
            return lo;
        }
        lo + (hi - lo) * self.uniform()
    }

    /// A Bernoulli trial with success probability `p` (clamped to `[0,1]`).
    pub fn coin(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.uniform() < p
    }

    /// An exponential sample with the given mean (returns 0 for mean <= 0).
    pub fn exponential(&mut self, mean: f64) -> f64 {
        if mean <= 0.0 {
            return 0.0;
        }
        let u: f64 = self.uniform().max(1e-300);
        -mean * u.ln()
    }

    /// A normal sample via Box-Muller.
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        let u1: f64 = self.uniform().max(1e-300);
        let u2: f64 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        mean + std_dev * z
    }

    /// A uniform integer in `[0, n)`, or 0 if `n == 0`.  Unbiased: draws
    /// at or above the widest multiple of `n` below 2^64 are rejected.
    pub fn index(&mut self, n: usize) -> usize {
        if n == 0 {
            return 0;
        }
        let span = n as u64;
        let zone = u64::MAX - (u64::MAX % span);
        loop {
            let draw = self.next_u64();
            if draw < zone {
                return (draw % span) as usize;
            }
        }
    }

    /// A raw 64-bit draw (one xoshiro256++ step).
    pub fn next_u64(&mut self) -> u64 {
        let s = &mut self.s;
        let result = s[0].wrapping_add(s[3]).rotate_left(23).wrapping_add(s[0]);
        let t = s[1] << 17;
        s[2] ^= s[0];
        s[3] ^= s[1];
        s[1] ^= s[2];
        s[0] ^= s[3];
        s[2] ^= t;
        s[3] = s[3].rotate_left(45);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SimRng::new(42);
        let mut b = SimRng::new(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seed_differs() {
        let mut a = SimRng::new(1);
        let mut b = SimRng::new(2);
        let same = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 4);
    }

    #[test]
    fn uniform_in_range() {
        let mut r = SimRng::new(7);
        for _ in 0..1000 {
            let x = r.uniform_range(2.0, 3.0);
            assert!((2.0..3.0).contains(&x));
        }
        assert_eq!(r.uniform_range(5.0, 5.0), 5.0);
        assert_eq!(r.uniform_range(5.0, 1.0), 5.0);
    }

    #[test]
    fn coin_respects_extremes() {
        let mut r = SimRng::new(9);
        assert!(!(0..100).any(|_| r.coin(0.0)));
        assert!((0..100).all(|_| r.coin(1.0)));
        assert!((0..100).all(|_| r.coin(2.0)));
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut r = SimRng::new(11);
        let n = 20_000;
        let mean: f64 = (0..n).map(|_| r.exponential(0.5)).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
        assert_eq!(r.exponential(0.0), 0.0);
        assert_eq!(r.exponential(-1.0), 0.0);
    }

    #[test]
    fn normal_moments_are_close() {
        let mut r = SimRng::new(13);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| r.normal(3.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 3.0).abs() < 0.1, "mean {mean}");
        assert!((var - 4.0).abs() < 0.3, "var {var}");
    }

    #[test]
    fn index_bounds() {
        let mut r = SimRng::new(17);
        assert_eq!(r.index(0), 0);
        for _ in 0..100 {
            assert!(r.index(5) < 5);
        }
    }

    #[test]
    fn fork_streams_are_independent_of_order() {
        let mut a = SimRng::new(100);
        let mut fork_a = a.fork(1);
        let mut b = SimRng::new(100);
        let mut fork_b = b.fork(1);
        for _ in 0..10 {
            assert_eq!(fork_a.next_u64(), fork_b.next_u64());
        }
    }

    /// The stream is part of the simulation's definition: every pinned
    /// record (loop, sweep, plan, hub) rests on these exact draws.
    #[test]
    fn stream_is_pinned() {
        struct Gold {
            seed: u64,
            next_u64: [u64; 8],
            uniform_bits: [u64; 8],
            index_1_3_1000: [usize; 3],
            fork_7_then_next: [u64; 2],
        }
        let golds = [
            Gold {
                seed: 0,
                next_u64: [
                    5987356902031041503,
                    7051070477665621255,
                    6633766593972829180,
                    211316841551650330,
                    9136120204379184874,
                    379361710973160858,
                    15813423377499357806,
                    15596884590815070553,
                ],
                uniform_bits: [
                    4598983807939961468,
                    4590013529041420872,
                    4599337545279582310,
                    4589425337114929736,
                    4592174451281597960,
                    4591424302423800544,
                    4589405037653437456,
                    4600883638806463780,
                ],
                index_1_3_1000: [0, 0, 96],
                fork_7_then_next: [4550386660513937811, 5109650347567479772],
            },
            Gold {
                seed: 1,
                next_u64: [
                    14971601782005023387,
                    13781649495232077965,
                    1847458086238483744,
                    13765271635752736470,
                    3406718355780431780,
                    10892412867582108485,
                    18204613561675945223,
                    9655336933892813345,
                ],
                uniform_bits: [
                    4591625315818484552,
                    4594006463704732532,
                    4606465270380993020,
                    4599859584241752894,
                    4589883677091657280,
                    4600779750321656852,
                    4591113353766980232,
                    4594801013050446932,
                ],
                index_1_3_1000: [0, 0, 822],
                fork_7_then_next: [9905059312051311118, 4869519043768407819],
            },
            Gold {
                seed: 20080609,
                next_u64: [
                    9218126168365364664,
                    17190283932187214995,
                    17902007138948607081,
                    17795353089887001740,
                    4742633572265585019,
                    9099989561253765005,
                    8209057123345828454,
                    17205056875585781207,
                ],
                uniform_bits: [
                    4599618834011093632,
                    4589427082012287080,
                    4604056313875271596,
                    4603192118964962542,
                    4583460655059453792,
                    4605598973953446024,
                    4604906786559971362,
                    4594086235684745424,
                ],
                index_1_3_1000: [0, 2, 67],
                fork_7_then_next: [4509151793674024790, 16814282983693118041],
            },
        ];
        for g in golds {
            let mut r = SimRng::new(g.seed);
            let next: Vec<u64> = (0..8).map(|_| r.next_u64()).collect();
            assert_eq!(next, g.next_u64, "seed {}: next_u64", g.seed);
            let uniform: Vec<u64> = (0..8).map(|_| r.uniform().to_bits()).collect();
            assert_eq!(uniform, g.uniform_bits, "seed {}: uniform", g.seed);
            let index = [1, 3, 1000].map(|n| r.index(n));
            assert_eq!(index, g.index_1_3_1000, "seed {}: index", g.seed);
            let forked = r.fork(7).next_u64();
            assert_eq!(
                [forked, r.next_u64()],
                g.fork_7_then_next,
                "seed {}: fork",
                g.seed
            );
        }
    }
}
