//! Weight initialisation schemes.
//!
//! All randomness flows through a caller-provided `rand::Rng`, so trainings
//! are reproducible from a single seed — the paper's §VI-D discussion of
//! reproducibility across distributed configurations depends on controlling
//! exactly this.

use crate::matrix::Matrix;
use rand::Rng;
use simd_kernels::mathf64;

/// Initialisation scheme for a `fan_in × fan_out` weight matrix.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Init {
    /// Xavier/Glorot uniform: `U(±sqrt(6/(fan_in+fan_out)))` — default for
    /// tanh networks (the paper's frameworks use tanh MLPs for PPO).
    XavierUniform,
    /// He/Kaiming uniform: `U(±sqrt(6/fan_in))` — for ReLU networks (SAC).
    HeUniform,
    /// Small uniform `U(±scale)` — used for final policy layers so the
    /// initial policy is near-uniform (a standard PPO trick).
    Uniform(f64),
}

impl Init {
    /// Sample a `rows × cols` matrix (`rows = fan_in`, `cols = fan_out`).
    pub(crate) fn sample(self, rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
        let limit = match self {
            Init::XavierUniform => (6.0 / (rows + cols) as f64).sqrt(),
            Init::HeUniform => (6.0 / rows as f64).sqrt(),
            Init::Uniform(s) => s,
        };
        let mut m = Matrix::zeros(rows, cols);
        for v in m.as_mut_slice() {
            *v = rng.gen_range(-limit..=limit);
        }
        m
    }
}

/// Draw a standard normal via Box–Muller (keeps `rand_distr` out of the
/// dependency tree).
pub(crate) fn standard_normal(rng: &mut impl Rng) -> f64 {
    loop {
        let u1: f64 = rng.gen::<f64>();
        if u1 <= f64::MIN_POSITIVE {
            continue;
        }
        let u2: f64 = rng.gen::<f64>();
        let (_, cos) = mathf64::sin_cos(2.0 * std::f64::consts::PI * u2);
        return (-2.0 * mathf64::ln(u1)).sqrt() * cos;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Init::XavierUniform.sample(10, 20, &mut rng);
        let limit = (6.0f64 / 30.0).sqrt();
        assert!(m.as_slice().iter().all(|&v| v.abs() <= limit));
    }

    #[test]
    fn he_bounds_hold() {
        let mut rng = StdRng::seed_from_u64(7);
        let m = Init::HeUniform.sample(8, 4, &mut rng);
        let limit = (6.0f64 / 8.0).sqrt();
        assert!(m.as_slice().iter().all(|&v| v.abs() <= limit));
    }

    #[test]
    fn same_seed_same_weights() {
        let a = Init::XavierUniform.sample(5, 5, &mut StdRng::seed_from_u64(42));
        let b = Init::XavierUniform.sample(5, 5, &mut StdRng::seed_from_u64(42));
        assert_eq!(a, b);
    }

    #[test]
    fn standard_normal_moments_are_sane() {
        let mut rng = StdRng::seed_from_u64(123);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.05, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.08, "var = {var}");
    }
}
