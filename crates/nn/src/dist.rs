//! Policy distributions: categorical, diagonal Gaussian and tanh-squashed
//! Gaussian, with the gradient helpers PPO and SAC need.
//!
//! Conventions: one distribution instance describes a single state's
//! action distribution (the algorithms loop over batch rows); all
//! gradients are with respect to the *network outputs* that parameterise
//! the distribution (logits, mean, log-std).

// Index loops here co-index several arrays; zip chains would obscure them.
#![allow(clippy::needless_range_loop)]
use crate::init::standard_normal;
use crate::ops;
use rand::Rng;
use simd_kernels::mathf64::{exp, ln, tanh};

/// `½·ln 2πe`, the entropy of a unit-variance Gaussian dimension.
const HALF_LN_2PI_E: f64 = 1.418_938_533_204_672_7;

/// Categorical distribution over `n` discrete actions, built from logits.
#[derive(Debug, Clone)]
pub struct Categorical {
    probs: Vec<f64>,
}

impl Categorical {
    /// From raw network logits.
    pub fn from_logits(logits: &[f64]) -> Self {
        Self { probs: ops::softmax(logits) }
    }

    /// Sample an action index by inverse CDF.
    pub fn sample(&self, rng: &mut impl Rng) -> usize {
        let u: f64 = rng.gen();
        let mut acc = 0.0;
        for (i, &p) in self.probs.iter().enumerate() {
            acc += p;
            if u < acc {
                return i;
            }
        }
        self.probs.len() - 1
    }

    /// Greedy (argmax) action.
    pub fn mode(&self) -> usize {
        self.probs
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("finite probs"))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// `log p(action)`.
    pub fn log_prob(&self, action: usize) -> f64 {
        ln(self.probs[action].max(1e-300))
    }

    /// Shannon entropy.
    pub fn entropy(&self) -> f64 {
        ops::categorical_entropy(&self.probs)
    }

    /// `d log p(action) / d logits` into `out`.
    pub fn d_log_prob_d_logits(&self, action: usize, out: &mut [f64]) {
        ops::d_log_prob_d_logits(&self.probs, action, out);
    }

    /// `d entropy / d logits` into `out`.
    pub fn d_entropy_d_logits(&self, out: &mut [f64]) {
        ops::d_entropy_d_logits(&self.probs, out);
    }
}

/// Diagonal Gaussian over `n` continuous action dimensions.
///
/// PPO parameterises `mean` by the policy network and keeps `log_std` as a
/// free (state-independent) parameter vector, exactly as the paper's
/// frameworks do by default.
#[derive(Debug, Clone)]
pub struct DiagGaussian {
    /// Mean vector (network output).
    pub mean: Vec<f64>,
    /// Log standard deviations.
    pub(crate) log_std: Vec<f64>,
}

impl DiagGaussian {
    /// Construct from mean and log-std slices.
    pub fn new(mean: &[f64], log_std: &[f64]) -> Self {
        debug_assert_eq!(mean.len(), log_std.len());
        Self { mean: mean.to_vec(), log_std: log_std.to_vec() }
    }

    /// Sample an action.
    pub fn sample(&self, rng: &mut impl Rng) -> Vec<f64> {
        self.mean
            .iter()
            .zip(&self.log_std)
            .map(|(&m, &ls)| m + exp(ls) * standard_normal(rng))
            .collect()
    }

    /// `log p(action)` under the Gaussian.
    pub fn log_prob(&self, action: &[f64]) -> f64 {
        debug_assert_eq!(action.len(), self.mean.len());
        self.mean
            .iter()
            .zip(&self.log_std)
            .zip(action)
            .map(|((&m, &ls), &a)| {
                let std = exp(ls);
                ops::log_normal_pdf((a - m) / std) - ls
            })
            .sum()
    }

    /// Differential entropy `Σ (log σ + ½ log 2πe)`.
    pub fn entropy(&self) -> f64 {
        self.log_std.iter().map(|&ls| ls + HALF_LN_2PI_E).sum()
    }

    /// `d log p / d mean` into `out`: `(a - μ) / σ²`.
    pub fn d_log_prob_d_mean(&self, action: &[f64], out: &mut [f64]) {
        for i in 0..self.mean.len() {
            let var = exp(2.0 * self.log_std[i]);
            out[i] = (action[i] - self.mean[i]) / var;
        }
    }

    /// `d log p / d log_std` into `out`: `((a-μ)/σ)² - 1`.
    pub fn d_log_prob_d_log_std(&self, action: &[f64], out: &mut [f64]) {
        for i in 0..self.mean.len() {
            let z = (action[i] - self.mean[i]) / exp(self.log_std[i]);
            out[i] = z * z - 1.0;
        }
    }
}

/// Tanh-squashed Gaussian — SAC's action distribution.
///
/// `a = tanh(u)` with `u ~ N(μ, σ)`; actions live in `(-1, 1)`.
#[derive(Debug, Clone, Default)]
pub struct SquashedGaussian {
    /// Pre-squash mean (network output).
    pub(crate) mean: Vec<f64>,
    /// Pre-squash log standard deviation (network output, clamped).
    pub(crate) log_std: Vec<f64>,
}

/// Clamp range for SAC log-std network outputs (standard practice).
pub const LOG_STD_MIN: f64 = -20.0;
/// See [`LOG_STD_MIN`].
pub const LOG_STD_MAX: f64 = 2.0;

/// A reparameterised sample from a [`SquashedGaussian`].
#[derive(Debug, Clone, Default)]
pub struct SquashedSample {
    /// Squashed action `tanh(u)`.
    pub action: Vec<f64>,
    /// Pre-squash value `u = μ + σ ε`.
    pub(crate) pre_tanh: Vec<f64>,
    /// The standard-normal noise `ε` used (for pathwise gradients).
    pub(crate) noise: Vec<f64>,
    /// `log π(a|s)` including the tanh change-of-variables correction.
    pub log_prob: f64,
}

impl SquashedGaussian {
    /// Construct, clamping `log_std` into `[LOG_STD_MIN, LOG_STD_MAX]`.
    pub fn new(mean: &[f64], log_std: &[f64]) -> Self {
        let mut d = Self::default();
        d.assign(mean, log_std);
        d
    }

    /// [`SquashedGaussian::new`] into `self`, reusing its vectors.
    pub fn assign(&mut self, mean: &[f64], log_std: &[f64]) {
        self.mean.clear();
        self.mean.extend_from_slice(mean);
        self.log_std.clear();
        self.log_std.extend(log_std.iter().map(|&l| l.clamp(LOG_STD_MIN, LOG_STD_MAX)));
    }

    /// Reparameterised sample (`rsample` in PyTorch terms).
    pub fn rsample(&self, rng: &mut impl Rng) -> SquashedSample {
        let mut s = SquashedSample::default();
        self.rsample_into(rng, &mut s);
        s
    }

    /// [`SquashedGaussian::rsample`] into `s`, reusing its vectors: the
    /// SAC update draws two samples per batch row.
    pub fn rsample_into(&self, rng: &mut impl Rng, s: &mut SquashedSample) {
        s.noise.clear();
        s.pre_tanh.clear();
        s.action.clear();
        for i in 0..self.mean.len() {
            let e = standard_normal(rng);
            let u = self.mean[i] + exp(self.log_std[i]) * e;
            s.noise.push(e);
            s.pre_tanh.push(u);
            s.action.push(tanh(u));
        }
        s.log_prob = self.log_prob_pre_tanh(&s.pre_tanh);
    }

    /// Deterministic action `tanh(μ)` (evaluation mode).
    pub fn mode(&self) -> Vec<f64> {
        self.mean.iter().map(|&m| tanh(m)).collect()
    }

    /// `log π(a)` given the pre-squash value `u` (numerically stable form:
    /// `log(1 - tanh²u) = 2 (log 2 - u - softplus(-2u))`).
    pub(crate) fn log_prob_pre_tanh(&self, pre_tanh: &[f64]) -> f64 {
        let mut lp = 0.0;
        for i in 0..self.mean.len() {
            let std = exp(self.log_std[i]);
            let z = (pre_tanh[i] - self.mean[i]) / std;
            lp += ops::log_normal_pdf(z) - self.log_std[i];
            let u = pre_tanh[i];
            lp -= 2.0 * (std::f64::consts::LN_2 - u - softplus(-2.0 * u));
        }
        lp
    }

    /// Pathwise partials for the SAC actor loss into `out`, reusing its
    /// vectors.
    ///
    /// With `u = μ + σ ε` and `a = tanh(u)`:
    /// * `da/dμ = 1 - a²`
    /// * `da/dlogσ = (1 - a²) · σ ε`
    /// * `dlogπ/dμ`, `dlogπ/dlogσ` — total derivatives including the path
    ///   through `u`.
    pub fn pathwise_partials_into(&self, s: &SquashedSample, out: &mut PathwisePartials) {
        let PathwisePartials { da_dmean, da_dlogstd, dlp_dmean, dlp_dlogstd } = out;
        da_dmean.clear();
        da_dlogstd.clear();
        dlp_dmean.clear();
        dlp_dlogstd.clear();
        for i in 0..self.mean.len() {
            let a = s.action[i];
            let sig = exp(self.log_std[i]);
            let e = s.noise[i];
            let one_m_a2 = 1.0 - a * a;
            da_dmean.push(one_m_a2);
            da_dlogstd.push(one_m_a2 * sig * e);
            // log π(u) = log N(u; μ, σ) - log(1 - a²)
            // With u = μ + σ ε reparameterised: z = ε is fixed, so the
            // Gaussian term's dependence on μ vanishes except through the
            // correction term:
            //   d/dμ [ -½ε² - logσ - log(1-a²) ] = 2 a · da/dμ / (1-a²) · ...
            // Work it out: d(-log(1-a²))/du = 2a; du/dμ = 1; du/dlogσ = σε.
            // The Gaussian density term -½z² - logσ has z=ε fixed under the
            // path, but logπ also changes because the *density* is evaluated
            // at the sampled u: under reparameterisation the standard result
            // is dlogπ/dμ = 2a, dlogπ/dlogσ = 2a·σε - 1.
            dlp_dmean.push(2.0 * a);
            dlp_dlogstd.push(2.0 * a * sig * e - 1.0);
        }
    }
}

/// Partial derivatives written by [`SquashedGaussian::pathwise_partials_into`].
#[derive(Debug, Clone, Default)]
pub struct PathwisePartials {
    /// `∂a_i/∂μ_i`.
    pub da_dmean: Vec<f64>,
    /// `∂a_i/∂logσ_i`.
    pub da_dlogstd: Vec<f64>,
    /// `∂logπ/∂μ_i` (total, through the path).
    pub dlp_dmean: Vec<f64>,
    /// `∂logπ/∂logσ_i` (total, through the path).
    pub dlp_dlogstd: Vec<f64>,
}

/// Numerically stable `log(1 + e^x)`.
pub(crate) fn softplus(x: f64) -> f64 {
    if x > 30.0 {
        return x;
    }
    // ln(1 + e) with the rounding error of the sum put back, so a small
    // `e` keeps its relative precision (what `ln_1p` is for): below
    // x ≈ −36.7 the sum is 1 and the result is `e` itself.
    let e = exp(x);
    let u = 1.0 + e;
    ln(u) + (e - (u - 1.0)) / u
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn categorical_sampling_frequencies_match_probs() {
        let d = Categorical::from_logits(&[1.0, 0.0, -1.0]);
        let mut rng = StdRng::seed_from_u64(1);
        let mut counts = [0usize; 3];
        let n = 30_000;
        for _ in 0..n {
            counts[d.sample(&mut rng)] += 1;
        }
        for i in 0..3 {
            let freq = counts[i] as f64 / n as f64;
            assert!((freq - d.probs[i]).abs() < 0.02, "i={i}: {freq} vs {}", d.probs[i]);
        }
    }

    #[test]
    fn categorical_mode_is_argmax() {
        let d = Categorical::from_logits(&[0.0, 5.0, 1.0]);
        assert_eq!(d.mode(), 1);
    }

    #[test]
    fn categorical_log_prob_consistent_with_probs() {
        let d = Categorical::from_logits(&[0.2, -0.7, 1.5]);
        for a in 0..3 {
            assert!((d.log_prob(a) - d.probs[a].ln()).abs() < 1e-12);
        }
    }

    #[test]
    fn gaussian_log_prob_peaks_at_mean() {
        let d = DiagGaussian::new(&[0.5, -0.5], &[0.0, 0.0]);
        let at_mean = d.log_prob(&[0.5, -0.5]);
        let off = d.log_prob(&[1.5, -0.5]);
        assert!(at_mean > off);
    }

    #[test]
    fn gaussian_sample_statistics() {
        let d = DiagGaussian::new(&[2.0], &[0.5f64.ln()]);
        let mut rng = StdRng::seed_from_u64(2);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| d.sample(&mut rng)[0]).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 2.0).abs() < 0.02, "mean {mean}");
        assert!((var - 0.25).abs() < 0.02, "var {var}");
    }

    #[test]
    fn gaussian_grad_mean_matches_finite_differences() {
        let mean = [0.3, -0.2];
        let log_std = [0.1, -0.5];
        let action = [0.8, 0.0];
        let d = DiagGaussian::new(&mean, &log_std);
        let mut grad = [0.0; 2];
        d.d_log_prob_d_mean(&action, &mut grad);
        let eps = 1e-6;
        for i in 0..2 {
            let mut mp = mean;
            mp[i] += eps;
            let mut mm = mean;
            mm[i] -= eps;
            let num = (DiagGaussian::new(&mp, &log_std).log_prob(&action)
                - DiagGaussian::new(&mm, &log_std).log_prob(&action))
                / (2.0 * eps);
            assert!((num - grad[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn gaussian_grad_log_std_matches_finite_differences() {
        let mean = [0.3, -0.2];
        let log_std = [0.1, -0.5];
        let action = [0.8, 0.0];
        let d = DiagGaussian::new(&mean, &log_std);
        let mut grad = [0.0; 2];
        d.d_log_prob_d_log_std(&action, &mut grad);
        let eps = 1e-6;
        for i in 0..2 {
            let mut lp = log_std;
            lp[i] += eps;
            let mut lm = log_std;
            lm[i] -= eps;
            let num = (DiagGaussian::new(&mean, &lp).log_prob(&action)
                - DiagGaussian::new(&mean, &lm).log_prob(&action))
                / (2.0 * eps);
            assert!((num - grad[i]).abs() < 1e-6, "i={i}");
        }
    }

    #[test]
    fn gaussian_entropy_grows_with_std() {
        let small = DiagGaussian::new(&[0.0], &[-1.0]).entropy();
        let large = DiagGaussian::new(&[0.0], &[1.0]).entropy();
        assert!(large > small);
    }

    #[test]
    fn squashed_actions_are_in_bounds() {
        let d = SquashedGaussian::new(&[5.0, -5.0], &[1.0, 1.0]);
        let mut rng = StdRng::seed_from_u64(3);
        for _ in 0..100 {
            let s = d.rsample(&mut rng);
            assert!(s.action.iter().all(|a| a.abs() < 1.0));
        }
    }

    #[test]
    fn squashed_log_prob_matches_change_of_variables() {
        // For small |u| compare against the naive formula.
        let d = SquashedGaussian::new(&[0.1], &[-0.3]);
        let pre = [0.4];
        let lp = d.log_prob_pre_tanh(&pre);
        let std = (-0.3f64).exp();
        let z = (0.4 - 0.1) / std;
        let naive = ops::log_normal_pdf(z) - (-0.3) - (1.0 - 0.4f64.tanh().powi(2)).ln();
        assert!((lp - naive).abs() < 1e-10, "{lp} vs {naive}");
    }

    /// The partials into fresh vectors: the reference for reused ones.
    fn partials(d: &SquashedGaussian, s: &SquashedSample) -> PathwisePartials {
        let mut parts = PathwisePartials::default();
        d.pathwise_partials_into(s, &mut parts);
        parts
    }

    #[test]
    fn squashed_pathwise_partials_match_finite_differences() {
        // Perturb μ and logσ with ε held fixed; compare action & logπ.
        let mean = [0.2];
        let log_std = [-0.4];
        let d = SquashedGaussian::new(&mean, &log_std);
        let mut rng = StdRng::seed_from_u64(9);
        let s = d.rsample(&mut rng);
        let parts = partials(&d, &s);
        let eps = 1e-6;

        let eval = |m: f64, ls: f64| -> (f64, f64) {
            let dd = SquashedGaussian::new(&[m], &[ls]);
            let u = m + ls.exp() * s.noise[0];
            let a = u.tanh();
            (a, dd.log_prob_pre_tanh(&[u]))
        };

        let (ap, lpp) = eval(mean[0] + eps, log_std[0]);
        let (am, lpm) = eval(mean[0] - eps, log_std[0]);
        assert!(((ap - am) / (2.0 * eps) - parts.da_dmean[0]).abs() < 1e-5);
        assert!(((lpp - lpm) / (2.0 * eps) - parts.dlp_dmean[0]).abs() < 1e-5);

        let (ap, lpp) = eval(mean[0], log_std[0] + eps);
        let (am, lpm) = eval(mean[0], log_std[0] - eps);
        assert!(((ap - am) / (2.0 * eps) - parts.da_dlogstd[0]).abs() < 1e-5);
        assert!(((lpp - lpm) / (2.0 * eps) - parts.dlp_dlogstd[0]).abs() < 1e-5);
    }

    #[test]
    fn reused_buffers_are_fully_overwritten() {
        // The `_into` forms on buffers left over from a wider
        // distribution must give exactly what the allocating forms give.
        let wide = SquashedGaussian::new(&[0.3, -0.2, 0.9], &[0.1, -0.5, 50.0]);
        let mut d = wide.clone();
        let mut s = wide.rsample(&mut StdRng::seed_from_u64(4));
        let mut parts = partials(&wide, &s);

        d.assign(&[0.2, -1.1], &[-0.4, -50.0]);
        let fresh = SquashedGaussian::new(&[0.2, -1.1], &[-0.4, -50.0]);
        assert_eq!((&d.mean, &d.log_std), (&fresh.mean, &fresh.log_std));

        d.rsample_into(&mut StdRng::seed_from_u64(5), &mut s);
        let want = fresh.rsample(&mut StdRng::seed_from_u64(5));
        assert_eq!((&s.action, &s.pre_tanh, &s.noise), (&want.action, &want.pre_tanh, &want.noise));
        assert_eq!(s.log_prob.to_bits(), want.log_prob.to_bits());

        d.pathwise_partials_into(&s, &mut parts);
        let want = partials(&fresh, &want);
        assert_eq!((&parts.da_dmean, &parts.da_dlogstd), (&want.da_dmean, &want.da_dlogstd));
        assert_eq!((&parts.dlp_dmean, &parts.dlp_dlogstd), (&want.dlp_dmean, &want.dlp_dlogstd));
    }

    #[test]
    fn softplus_matches_naive_in_safe_range() {
        for x in [-5.0, -1.0, 0.0, 1.0, 5.0] {
            assert!((softplus(x) - (1.0 + f64::exp(x)).ln()).abs() < 1e-12);
        }
        assert_eq!(softplus(100.0), 100.0);
        assert!(softplus(-100.0) > 0.0);
    }

    #[test]
    fn log_std_is_clamped() {
        let d = SquashedGaussian::new(&[0.0], &[100.0]);
        assert_eq!(d.log_std[0], LOG_STD_MAX);
        let d = SquashedGaussian::new(&[0.0], &[-100.0]);
        assert_eq!(d.log_std[0], LOG_STD_MIN);
    }
}
