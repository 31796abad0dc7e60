//! Distribution-first metric samples: dispersion, tail risk, and
//! bootstrap confidence intervals.
//!
//! The paper ranks configurations on three scalar means. A decision tool
//! that serves real users must also say how *reliable* each configuration
//! is — "Measuring the Reliability of Reinforcement Learning Algorithms"
//! (Chan et al.) defines the dispersion and tail-risk statistics kept
//! here (IQR, CVaR, drawdown), and "Empirical Design in RL" argues for
//! bootstrap confidence intervals over point estimates. A
//! [`Distribution`] is the per-trial sample store those statistics are
//! computed from; [`crate::metrics::MetricValues`] can carry one next to
//! each scalar metric, and the ranking layer reads them through
//! [`crate::metrics::Risk`] specs.
//!
//! ## Determinism
//!
//! Every statistic here is a pure function of the sample vector (and, for
//! the bootstrap, of an explicit `(seed, resamples)` pair): no global
//! RNG, no time, no thread-dependent iteration order. The bootstrap uses
//! an inline SplitMix64 generator so a fixed seed produces bit-identical
//! confidence intervals on every platform and from any thread.

/// A per-trial sample store: the observations of one metric in the order
/// they were recorded (the *stream* order, which [`max_drawdown`] needs)
/// plus a sorted copy for exact quantile statistics.
///
/// Non-finite observations are dropped at construction so every
/// statistic is well-defined; an empty distribution yields `NaN` from
/// the statistical accessors.
///
/// [`max_drawdown`]: Distribution::max_drawdown
#[derive(Debug, Clone, PartialEq)]
pub struct Distribution {
    samples: Vec<f64>,
    sorted: Vec<f64>,
}

impl From<Vec<f64>> for Distribution {
    fn from(samples: Vec<f64>) -> Self {
        Self::from_samples(samples)
    }
}

impl FromIterator<f64> for Distribution {
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        Self::from_samples(iter.into_iter().collect())
    }
}

impl Distribution {
    /// Build from observations in recording order. Non-finite samples
    /// are dropped.
    pub fn from_samples(samples: Vec<f64>) -> Self {
        let samples: Vec<f64> = samples.into_iter().filter(|v| v.is_finite()).collect();
        let mut sorted = samples.clone();
        sorted.sort_by(f64::total_cmp);
        Self { samples, sorted }
    }

    /// Number of (finite) observations.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// True when no observation survived construction.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }

    /// The observations in recording (stream) order.
    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// The observations in ascending order.
    pub fn sorted(&self) -> &[f64] {
        &self.sorted
    }

    /// Arithmetic mean — the scalar the paper's Table I ranks on. Summed
    /// in recording order, so a distribution built from the same stream
    /// an existing scalar path averaged reproduces that scalar bitwise.
    pub fn mean(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        self.samples.iter().sum::<f64>() / self.samples.len() as f64
    }

    /// Population variance (`Σ (x - mean)² / n`).
    pub fn var(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let m = self.mean();
        self.samples.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.samples.len() as f64
    }

    /// Population standard deviation.
    pub fn std(&self) -> f64 {
        self.var().sqrt()
    }

    /// Smallest observation.
    pub fn min(&self) -> f64 {
        self.sorted.first().copied().unwrap_or(f64::NAN)
    }

    /// Largest observation.
    pub fn max(&self) -> f64 {
        self.sorted.last().copied().unwrap_or(f64::NAN)
    }

    /// Exact sample quantile with linear interpolation between order
    /// statistics (Hyndman–Fan type 7, the default of R and NumPy):
    /// `q(p)` interpolates at rank `(n-1)·p`. `p` is clamped to `[0, 1]`.
    pub fn quantile(&self, p: f64) -> f64 {
        let n = self.sorted.len();
        if n == 0 {
            return f64::NAN;
        }
        let p = p.clamp(0.0, 1.0);
        let h = (n - 1) as f64 * p;
        let lo = h.floor() as usize;
        let hi = h.ceil() as usize;
        if lo == hi {
            self.sorted[lo]
        } else {
            let w = h - lo as f64;
            self.sorted[lo] * (1.0 - w) + self.sorted[hi] * w
        }
    }

    /// Median (`quantile(0.5)`).
    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    /// Interquartile range: `quantile(0.75) - quantile(0.25)` — the
    /// dispersion statistic of Chan et al.
    pub fn iqr(&self) -> f64 {
        self.quantile(0.75) - self.quantile(0.25)
    }

    /// Conditional value at risk, lower tail: the mean of the worst
    /// (smallest) `α`-fraction of observations, with the tail size
    /// rounded up to at least one sample (`k = max(1, ⌈α·n⌉)`).
    ///
    /// This is the pessimistic summary for a metric where larger is
    /// better (e.g. reward): "how bad are the bad runs".
    pub fn cvar_lower(&self, alpha: f64) -> f64 {
        let k = self.tail_len(alpha);
        if k == 0 {
            return f64::NAN;
        }
        self.sorted[..k].iter().sum::<f64>() / k as f64
    }

    /// Conditional value at risk, upper tail: the mean of the worst
    /// (largest) `α`-fraction — the pessimistic summary for a metric
    /// where smaller is better (e.g. computation time or power).
    pub fn cvar_upper(&self, alpha: f64) -> f64 {
        let k = self.tail_len(alpha);
        if k == 0 {
            return f64::NAN;
        }
        self.sorted[self.sorted.len() - k..].iter().sum::<f64>() / k as f64
    }

    fn tail_len(&self, alpha: f64) -> usize {
        if self.sorted.is_empty() {
            return 0;
        }
        let alpha = alpha.clamp(0.0, 1.0);
        ((alpha * self.sorted.len() as f64).ceil() as usize).clamp(1, self.sorted.len())
    }

    /// Maximum drawdown over the recording-order stream: the largest
    /// peak-to-trough drop `max_t (max_{s≤t} x_s − x_t)`. Zero for a
    /// monotonically non-decreasing stream; `NaN` when empty.
    ///
    /// Meaningful when the samples are a learning curve (per-iteration
    /// mean returns): it measures how much performance a run gives back
    /// after its best point (Chan et al.'s long-term risk axis).
    pub fn max_drawdown(&self) -> f64 {
        if self.samples.is_empty() {
            return f64::NAN;
        }
        let mut peak = f64::NEG_INFINITY;
        let mut dd = 0.0f64;
        for &x in &self.samples {
            peak = peak.max(x);
            dd = dd.max(peak - x);
        }
        dd
    }

    /// Seeded percentile-bootstrap confidence interval for the mean.
    ///
    /// Draws `spec.resamples` resamples (with replacement, `n` draws
    /// each) using a SplitMix64 stream seeded with `spec.seed`, computes
    /// each resample's mean, and reads the `(1±level)/2` percentiles off
    /// the sorted resample means. Deterministic: a fixed
    /// `(seed, resamples)` pair yields bit-identical bounds regardless
    /// of platform or calling thread.
    ///
    /// A single-sample distribution yields the degenerate interval
    /// `[x, x]`; an empty one yields `[NaN, NaN]`.
    pub fn bootstrap_ci(&self, spec: &BootstrapSpec) -> Ci {
        let n = self.samples.len();
        if n == 0 {
            return Ci { lo: f64::NAN, hi: f64::NAN, level: spec.level };
        }
        if n == 1 || spec.resamples == 0 {
            return Ci { lo: self.samples[0], hi: self.samples[0], level: spec.level };
        }
        let mut rng = SplitMix64::new(spec.seed);
        let mut means = Vec::with_capacity(spec.resamples);
        for _ in 0..spec.resamples {
            let mut sum = 0.0;
            for _ in 0..n {
                sum += self.samples[rng.below(n)];
            }
            means.push(sum / n as f64);
        }
        means.sort_by(f64::total_cmp);
        let boot = Distribution { samples: Vec::new(), sorted: means };
        let tail = (1.0 - spec.level.clamp(0.0, 1.0)) / 2.0;
        Ci { lo: boot.quantile(tail), hi: boot.quantile(1.0 - tail), level: spec.level }
    }
}

/// Bootstrap parameters: confidence level, resample count, and the RNG
/// seed. Two equal specs produce bit-identical intervals from the same
/// samples.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BootstrapSpec {
    /// Two-sided confidence level in `(0, 1)` (e.g. `0.95`).
    pub level: f64,
    /// Number of bootstrap resamples.
    pub resamples: usize,
    /// Seed of the SplitMix64 resampling stream.
    pub seed: u64,
}

impl Default for BootstrapSpec {
    fn default() -> Self {
        Self { level: 0.95, resamples: 200, seed: 0x5EED_CAFE }
    }
}

impl BootstrapSpec {
    /// A spec with the given confidence level and the default
    /// resamples/seed.
    pub fn level(level: f64) -> Self {
        Self { level, ..Self::default() }
    }
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// The confidence level the interval was computed at.
    pub level: f64,
}

impl Ci {
    /// A degenerate point interval `[v, v]`.
    pub fn point(v: f64, level: f64) -> Self {
        Self { lo: v, hi: v, level }
    }

    /// Interval width (`hi - lo`).
    pub fn width(&self) -> f64 {
        self.hi - self.lo
    }

    /// Whether the two intervals overlap (closed intervals; a shared
    /// endpoint counts as overlap). The CI-gated ranking refuses to
    /// order two trials apart when their intervals overlap.
    pub fn overlaps(&self, other: &Ci) -> bool {
        self.lo <= other.hi && other.lo <= self.hi
    }
}

/// SplitMix64 (Steele et al.) — a tiny, platform-independent generator
/// used only for bootstrap resampling, so confidence intervals never
/// depend on the `rand` crate's version or the caller's thread.
struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform index in `[0, n)` via 128-bit multiply (Lemire's unbiased
    /// enough fixed-point reduction; the tiny modulo bias of the plain
    /// product is irrelevant for bootstrap resampling and the mapping is
    /// exactly reproducible).
    fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn grid_1_to_100() -> Distribution {
        Distribution::from_samples((1..=100).map(|i| i as f64).collect())
    }

    #[test]
    fn mean_matches_sequential_sum() {
        let d = Distribution::from_samples(vec![0.1, 0.2, 0.3]);
        let seq: f64 = (0.1 + 0.2 + 0.3) / 3.0;
        assert_eq!(d.mean().to_bits(), seq.to_bits(), "mean must reproduce the scalar path");
    }

    #[test]
    fn closed_form_quantiles_on_the_grid() {
        let d = grid_1_to_100();
        // Type-7 quantile of 1..=100 is exactly 1 + 99p.
        assert!((d.quantile(0.25) - 25.75).abs() < 1e-12);
        assert!((d.quantile(0.75) - 75.25).abs() < 1e-12);
        assert!((d.median() - 50.5).abs() < 1e-12);
        assert!((d.iqr() - 49.5).abs() < 1e-12);
        assert_eq!(d.min(), 1.0);
        assert_eq!(d.max(), 100.0);
    }

    #[test]
    fn closed_form_cvar_on_the_grid() {
        let d = grid_1_to_100();
        // Worst 10% of 1..=100: mean of 1..=10 = 5.5 (lower tail),
        // mean of 91..=100 = 95.5 (upper tail).
        assert!((d.cvar_lower(0.1) - 5.5).abs() < 1e-12);
        assert!((d.cvar_upper(0.1) - 95.5).abs() < 1e-12);
        // α → 0 clamps to the single worst sample.
        assert_eq!(d.cvar_lower(0.0), 1.0);
        assert_eq!(d.cvar_upper(0.0), 100.0);
        // α = 1 is the mean.
        assert!((d.cvar_lower(1.0) - d.mean()).abs() < 1e-12);
    }

    #[test]
    fn drawdown_measures_peak_to_trough() {
        let d = Distribution::from_samples(vec![0.0, 10.0, 4.0, 8.0, 2.0, 12.0, 5.0]);
        assert!((d.max_drawdown() - 8.0).abs() < 1e-12, "10 → 2 is the deepest drop");
        let up = Distribution::from_samples(vec![1.0, 2.0, 3.0]);
        assert_eq!(up.max_drawdown(), 0.0);
    }

    #[test]
    fn non_finite_samples_are_dropped() {
        let d = Distribution::from_samples(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(d.len(), 2);
        assert!((d.mean() - 1.5).abs() < 1e-12);
        let empty = Distribution::from_samples(vec![f64::NAN]);
        assert!(empty.is_empty());
        assert!(empty.mean().is_nan());
        assert!(empty.quantile(0.5).is_nan());
        assert!(empty.cvar_lower(0.1).is_nan());
        assert!(empty.max_drawdown().is_nan());
    }

    #[test]
    fn bootstrap_is_deterministic_and_ordered() {
        let d = grid_1_to_100();
        let spec = BootstrapSpec { level: 0.95, resamples: 500, seed: 7 };
        let a = d.bootstrap_ci(&spec);
        let b = d.bootstrap_ci(&spec);
        assert_eq!(a.lo.to_bits(), b.lo.to_bits());
        assert_eq!(a.hi.to_bits(), b.hi.to_bits());
        assert!(a.lo <= a.hi);
        assert!(a.lo < d.mean() && d.mean() < a.hi, "CI should bracket the mean here");
        // A different seed moves the interval (with overwhelming odds).
        let c = d.bootstrap_ci(&BootstrapSpec { seed: 8, ..spec });
        assert!(c.lo.to_bits() != a.lo.to_bits() || c.hi.to_bits() != a.hi.to_bits());
    }

    #[test]
    fn bootstrap_degenerate_cases() {
        let one = Distribution::from_samples(vec![3.5]);
        let ci = one.bootstrap_ci(&BootstrapSpec::default());
        assert_eq!((ci.lo, ci.hi), (3.5, 3.5));
        let constant = Distribution::from_samples(vec![2.0; 32]);
        let ci = constant.bootstrap_ci(&BootstrapSpec::default());
        assert_eq!((ci.lo, ci.hi), (2.0, 2.0));
        let empty = Distribution::from_samples(vec![]);
        let ci = empty.bootstrap_ci(&BootstrapSpec::default());
        assert!(ci.lo.is_nan() && ci.hi.is_nan());
    }

    #[test]
    fn ci_overlap_is_symmetric_and_closed() {
        let a = Ci { lo: 0.0, hi: 1.0, level: 0.95 };
        let b = Ci { lo: 1.0, hi: 2.0, level: 0.95 };
        let c = Ci { lo: 1.1, hi: 2.0, level: 0.95 };
        assert!(a.overlaps(&b) && b.overlaps(&a), "shared endpoint counts");
        assert!(!a.overlaps(&c) && !c.overlaps(&a));
        assert!((a.width() - 1.0).abs() < 1e-12);
    }
}
