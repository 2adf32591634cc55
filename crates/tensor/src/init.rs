//! Parameter initialisation.
//!
//! The paper trains every model with the Xavier initializer (§V-D, citing
//! Glorot & Bengio); the models use the uniform variant, TensorFlow's
//! `xavier_initializer` default.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::matrix::Matrix;

/// A deterministic RNG from a 64-bit seed. All randomness in the
/// reproduction (init, dropout, data generation, negative sampling) flows
/// from seeded [`StdRng`]s so every experiment is replayable.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Xavier/Glorot *uniform* initialisation: entries drawn from
/// `U(-limit, limit)` with `limit = sqrt(6 / (fan_in + fan_out))`.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0 / (rows + cols) as f32).sqrt();
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(-limit..limit))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_reproducible() {
        let a = xavier_uniform(4, 4, &mut seeded_rng(123));
        let b = xavier_uniform(4, 4, &mut seeded_rng(123));
        assert!(a.approx_eq(&b, 0.0));
        let c = xavier_uniform(4, 4, &mut seeded_rng(124));
        assert!(!a.approx_eq(&c, 0.0));
    }

    #[test]
    fn xavier_uniform_respects_limit() {
        let rows = 30;
        let cols = 50;
        let limit = (6.0 / (rows + cols) as f32).sqrt();
        let m = xavier_uniform(rows, cols, &mut seeded_rng(7));
        assert!(m.as_slice().iter().all(|v| v.abs() <= limit));
        // Entries should not all collapse to one sign.
        let pos = m.as_slice().iter().filter(|&&v| v > 0.0).count();
        assert!(pos > 500 && pos < 1000, "suspicious sign balance: {pos}");
    }

    #[test]
    fn xavier_uniform_mean_near_zero() {
        let m = xavier_uniform(100, 100, &mut seeded_rng(11));
        let mean = m.sum() / m.len() as f32;
        assert!(mean.abs() < 0.005, "mean {mean} too far from 0");
    }
}
