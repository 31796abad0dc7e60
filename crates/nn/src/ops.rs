//! Numerically-stable softmax family with backward helpers.

use simd_kernels::mathf64::{self, exp, ln};
use simd_kernels::Isa;

/// `½·ln 2π`, the normalisation of the standard normal log-density.
const HALF_LN_2PI: f64 = 0.918_938_533_204_672_8;

/// In-place softmax over a single row (stable: shifts by the max).
pub(crate) fn softmax_inplace(logits: &mut [f64]) {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    for v in logits.iter_mut() {
        *v -= max;
    }
    mathf64::exp_inplace(Isa::cached(), logits);
    let sum: f64 = logits.iter().sum();
    for v in logits.iter_mut() {
        *v /= sum;
    }
}

/// Softmax of a row into a new vector.
pub fn softmax(logits: &[f64]) -> Vec<f64> {
    let mut out = logits.to_vec();
    softmax_inplace(&mut out);
    out
}

/// Log-softmax of a row (stable log-sum-exp).
pub fn log_softmax(logits: &[f64]) -> Vec<f64> {
    let max = logits.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let lse = ln(logits.iter().map(|&v| exp(v - max)).sum::<f64>()) + max;
    logits.iter().map(|&v| v - lse).collect()
}

/// Log of the sum of exponentials of a row (stable).
pub fn log_sum_exp(xs: &[f64]) -> f64 {
    let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    if max.is_infinite() {
        return max;
    }
    ln(xs.iter().map(|&v| exp(v - max)).sum::<f64>()) + max
}

/// Gradient of `log p(a)` w.r.t. the logits: `onehot(a) - softmax(logits)`.
pub fn d_log_prob_d_logits(probs: &[f64], action: usize, out: &mut [f64]) {
    debug_assert_eq!(probs.len(), out.len());
    for (o, &p) in out.iter_mut().zip(probs) {
        *o = -p;
    }
    out[action] += 1.0;
}

/// Entropy of a categorical distribution given its probabilities.
pub fn categorical_entropy(probs: &[f64]) -> f64 {
    -probs.iter().filter(|&&p| p > 0.0).map(|&p| p * ln(p)).sum::<f64>()
}

/// Gradient of the entropy w.r.t. the logits:
/// `dH/dlogit_i = -p_i (log p_i + H)`.
pub(crate) fn d_entropy_d_logits(probs: &[f64], out: &mut [f64]) {
    let h = categorical_entropy(probs);
    for (o, &p) in out.iter_mut().zip(probs) {
        *o = if p > 0.0 { -p * (ln(p) + h) } else { 0.0 };
    }
}

/// Natural log of the standard normal density at `z`.
pub(crate) fn log_normal_pdf(z: f64) -> f64 {
    -0.5 * z * z - HALF_LN_2PI
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn softmax_sums_to_one_and_is_shift_invariant() {
        let a = softmax(&[1.0, 2.0, 3.0]);
        let b = softmax(&[101.0, 102.0, 103.0]);
        assert!((a.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        for (x, y) in a.iter().zip(&b) {
            assert!((x - y).abs() < 1e-12);
        }
    }

    #[test]
    fn softmax_handles_large_logits() {
        let p = softmax(&[1000.0, 0.0]);
        assert!((p[0] - 1.0).abs() < 1e-12);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_softmax_is_log_of_softmax() {
        let logits = [0.5, -1.0, 2.0, 0.0];
        let p = softmax(&logits);
        let lp = log_softmax(&logits);
        for (a, b) in p.iter().zip(&lp) {
            assert!((a.ln() - b).abs() < 1e-12);
        }
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let xs = [0.1f64, 0.2, 0.3];
        let naive = xs.iter().map(|&v| v.exp()).sum::<f64>().ln();
        assert!((log_sum_exp(&xs) - naive).abs() < 1e-12);
    }

    #[test]
    fn log_prob_gradient_matches_finite_differences() {
        let logits = vec![0.3, -0.5, 1.2];
        let action = 2;
        let probs = softmax(&logits);
        let mut grad = vec![0.0; 3];
        d_log_prob_d_logits(&probs, action, &mut grad);
        let eps = 1e-6;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let num = (log_softmax(&lp)[action] - log_softmax(&lm)[action]) / (2.0 * eps);
            assert!((num - grad[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn entropy_gradient_matches_finite_differences() {
        let logits = vec![0.1, 0.9, -0.4];
        let probs = softmax(&logits);
        let mut grad = vec![0.0; 3];
        d_entropy_d_logits(&probs, &mut grad);
        let eps = 1e-6;
        for i in 0..3 {
            let mut lp = logits.clone();
            lp[i] += eps;
            let mut lm = logits.clone();
            lm[i] -= eps;
            let num = (categorical_entropy(&softmax(&lp)) - categorical_entropy(&softmax(&lm)))
                / (2.0 * eps);
            assert!((num - grad[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn entropy_is_max_for_uniform() {
        let uni = categorical_entropy(&[1.0 / 3.0; 3]);
        let skew = categorical_entropy(&softmax(&[3.0, 0.0, 0.0]));
        assert!(uni > skew);
        assert!((uni - 3.0f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn log_normal_pdf_at_zero() {
        assert!((log_normal_pdf(0.0) + 0.5 * (2.0 * std::f64::consts::PI).ln()).abs() < 1e-15);
    }
}
