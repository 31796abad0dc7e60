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

use crate::spread::{cores, map_blocks};
use std::fmt;
use std::sync::OnceLock;

/// A per-trial sample store: the observations of one metric in the order
/// they were recorded plus a sorted copy for exact quantile statistics.
///
/// Non-finite observations are dropped at construction so every
/// statistic is well-defined; an empty distribution yields `NaN` from
/// the statistical accessors.
///
/// The first bootstrap interval asked of it (`Bootstrap::ci`) is kept
/// with its spec, so that the next reader under the same spec gets it
/// without resampling. Like the sorted copy it is derived from the
/// samples: equality compares the samples alone, and a clone carries it.
#[derive(Clone)]
pub struct Distribution {
    samples: Vec<f64>,
    sorted: Vec<f64>,
    /// The first computed interval and its spec. Boxed, so that a
    /// distribution nobody bootstraps grows by 16 bytes rather than 56.
    interval: OnceLock<Box<(BootstrapSpec, Ci)>>,
}

impl PartialEq for Distribution {
    fn eq(&self, other: &Self) -> bool {
        self.samples == other.samples
    }
}

impl fmt::Debug for Distribution {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Distribution")
            .field("samples", &self.samples)
            .field("sorted", &self.sorted)
            .finish()
    }
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
        // Keys equal under `total_cmp` are bit-identical, so an unstable
        // sort yields the same `sorted` as a stable one.
        sorted.sort_unstable_by(f64::total_cmp);
        Self { samples, sorted, interval: OnceLock::new() }
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
    pub(crate) fn var(&self) -> f64 {
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
        if self.sorted.is_empty() {
            return f64::NAN;
        }
        Rank::of(self.sorted.len(), p).read(&self.sorted)
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

    /// Whether it keeps an interval, under any spec.
    pub(crate) fn keeps_an_interval(&self) -> bool {
        self.interval.get().is_some()
    }

    /// Seeded percentile-bootstrap confidence interval for the mean.
    /// The distribution keeps its first interval, so a second call under
    /// the same spec reads it. A first call draws a resample plan for this
    /// one distribution, which costs several times what one amortised
    /// over many distributions does: to rank or report many of them, give
    /// the spec to `RankSpec::bootstrap` or to a report renderer, which
    /// share one plan per metric and resample across cores.
    pub fn bootstrap_ci(&self, spec: &BootstrapSpec) -> Ci {
        Bootstrap::new(*spec).ci(self)
    }
}

/// Where the type-7 quantile `p` of `n ≥ 1` order statistics sits: rank
/// `(n-1)·p` lies between statistics `lo` and `hi`, `w` of the way up.
struct Rank {
    lo: usize,
    hi: usize,
    w: f64,
}

impl Rank {
    fn of(n: usize, p: f64) -> Self {
        let h = (n - 1) as f64 * p.clamp(0.0, 1.0);
        let lo = h.floor() as usize;
        Self { lo, hi: h.ceil() as usize, w: h - lo as f64 }
    }

    /// The quantile, from a slice holding its `lo`-th and `hi`-th order
    /// statistics at those positions.
    fn read(&self, placed: &[f64]) -> f64 {
        if self.lo == self.hi {
            placed[self.lo]
        } else {
            placed[self.lo] * (1.0 - self.w) + placed[self.hi] * self.w
        }
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

/// The seeded percentile bootstrap of the mean, as a kernel that is built
/// once and run over many distributions.
///
/// [`Self::ci`] draws `spec.resamples` resamples (with replacement, `n`
/// draws each) from a SplitMix64 stream seeded with `spec.seed`, takes
/// each resample's mean, and reads the `(1±level)/2` type-7 percentiles
/// of those means. Deterministic: equal specs give bit-identical bounds
/// from equal samples, on every platform and from any thread.
///
/// ## The plan, and what sharing it means
///
/// The resample indices depend on `(seed, resamples, n)` and never on
/// the samples. So they are drawn once per sample count `n` — the
/// *plan*, `resamples × n` indices of four bytes (`4·R·n` bytes: 51 kB
/// at R = 200, n = 64; 40 MB at R = 10³, n = 10⁴) — and kept for the
/// next distribution of the same length; a different length redraws it.
/// A caller walking a column of trials builds one `Bootstrap` for the
/// pass and reuses it row after row.
///
/// Equal-length distributions under one spec therefore see the *same*
/// index sequence (common random numbers). That is harmless for one
/// interval per trial and is what every report and the CI gate have
/// always computed. It is wrong for anything that compares resamples
/// *across* trials: a front-stability loop (ROADMAP item 1) needs an
/// independent stream per (trial, metric) and must construct its own
/// `Bootstrap`, with its own seed, per stream rather than reuse one.
#[derive(Debug, Clone)]
pub(crate) struct Bootstrap {
    spec: BootstrapSpec,
    /// `resamples` rows of `n` sample indices each, in draw order.
    plan: Vec<u32>,
    /// The sample count `plan` was drawn for.
    n: usize,
    /// The resample means of the last call (scratch, kept for its
    /// allocation).
    means: Vec<f64>,
}

impl Bootstrap {
    /// A resampler for `spec`. Allocates nothing until the first
    /// [`Self::ci`].
    pub(crate) fn new(spec: BootstrapSpec) -> Self {
        Self { spec, plan: Vec::new(), n: 0, means: Vec::new() }
    }

    /// Confidence interval for the mean of `dist`.
    ///
    /// A single-sample distribution (or zero resamples) yields the
    /// degenerate interval `[x, x]`; an empty one yields `[NaN, NaN]`.
    ///
    /// The interval `dist` keeps is returned when it was computed under
    /// this exact spec (`level` to the bit); otherwise the interval is
    /// resampled, and kept if `dist` keeps none yet.
    pub fn ci(&mut self, dist: &Distribution) -> Ci {
        if let Some(ci) = self.read(dist) {
            return ci;
        }
        let ci = self.resample(dist.samples());
        // Kept unless an interval is kept already: under another spec, or
        // by a racing reader. Either way the slot holds one true to its spec.
        let _ = dist.interval.set(Box::new((self.spec, ci)));
        ci
    }

    /// [`Self::ci`] where it needs no resample: the degenerate intervals,
    /// and the one `dist` keeps under this exact spec. `None` otherwise.
    fn read(&self, dist: &Distribution) -> Option<Ci> {
        let BootstrapSpec { level, resamples, .. } = self.spec;
        let x = dist.samples();
        match x.len() {
            0 => return Some(Ci::point(f64::NAN, level)),
            1 => return Some(Ci::point(x[0], level)),
            _ if resamples == 0 => return Some(Ci::point(x[0], level)),
            _ => {}
        }
        let key = |spec: &BootstrapSpec| (spec.level.to_bits(), spec.resamples, spec.seed);
        dist.interval.get().filter(|kept| key(&kept.0) == key(&self.spec)).map(|kept| kept.1)
    }

    /// The interval of `x` (at least two samples, at least one resample).
    fn resample(&mut self, x: &[f64]) -> Ci {
        let BootstrapSpec { level, resamples, .. } = self.spec;
        let n = x.len();
        if n != self.n {
            self.draw_plan(n);
        }
        self.means.clear();
        // Four resamples at a time: each sum still adds its own draws in
        // draw order (the bits of every mean are those of a serial loop),
        // but the four add chains overlap.
        let mut blocks = self.plan.chunks_exact(4 * n);
        for block in &mut blocks {
            self.means.extend(resample_means::<4>(x, block));
        }
        for row in blocks.remainder().chunks_exact(n) {
            self.means.extend(resample_means::<1>(x, row));
        }
        // Two quantiles need at most four order statistics, not a sort.
        // Placed highest first: a selection leaves everything below it in
        // front of it, so the next one only looks there.
        let tail = (1.0 - level.clamp(0.0, 1.0)) / 2.0;
        let (lo, hi) = (Rank::of(resamples, tail), Rank::of(resamples, 1.0 - tail));
        let mut ranks = [lo.lo, lo.hi, hi.lo, hi.hi];
        ranks.sort_unstable();
        let mut end = self.means.len();
        for k in ranks.into_iter().rev() {
            if k < end {
                self.means[..end].select_nth_unstable_by(k, f64::total_cmp);
                end = k;
            }
        }
        Ci { lo: lo.read(&self.means), hi: hi.read(&self.means), level }
    }

    fn draw_plan(&mut self, n: usize) {
        assert!(u32::try_from(n).is_ok(), "a resample plan indexes at most 2^32 samples");
        let draws = self.spec.resamples.checked_mul(n).expect("resamples × n overflows usize");
        let mut rng = SplitMix64::new(self.spec.seed);
        self.plan.clear();
        self.plan.extend((0..draws).map(|_| rng.below(n) as u32));
        self.n = n;
    }
}

/// Intervals a thread resamples per turn; as many or fewer to resample in
/// all start no thread.
const BLOCK: usize = 32;

/// [`Bootstrap::ci`] under `spec` of each of `dists`, in order, with the
/// resampling spread over the cores `available_parallelism` allows.
///
/// Degenerate and kept intervals are read here. The rest are resampled
/// once each, in blocks of `BLOCK`, each thread with a `Bootstrap` of its
/// own; as there, an interval is kept when its distribution keeps none
/// yet. A plan depends on `(seed, resamples, n)` alone, so every interval
/// has the bits of the serial loop's.
pub(crate) fn intervals(dists: &[&Distribution], spec: &BootstrapSpec) -> Vec<Ci> {
    let boot = Bootstrap::new(*spec);
    let mut out: Vec<Option<Ci>> = dists.iter().map(|d| boot.read(d)).collect();
    let pending: Vec<usize> = (0..dists.len()).filter(|&i| out[i].is_none()).collect();
    let threads = match pending.len().div_ceil(BLOCK) {
        0 | 1 => 1,
        blocks => cores().min(blocks),
    };
    let init = || Bootstrap::new(*spec);
    let resampled =
        map_blocks(pending.len(), threads, BLOCK, init, |boot, k| boot.ci(dists[pending[k]]));
    for (&i, ci) in pending.iter().zip(resampled) {
        out[i] = Some(ci);
    }
    out.into_iter().map(|ci| ci.expect("every interval is read or resampled")).collect()
}

/// The means of `L` resamples of `x`; `rows` holds their `L × x.len()`
/// indices, one resample after the other.
fn resample_means<const L: usize>(x: &[f64], rows: &[u32]) -> [f64; L] {
    let n = x.len();
    let mut sums = [0.0; L];
    for j in 0..n {
        for (l, sum) in sums.iter_mut().enumerate() {
            *sum += x[rows[l * n + j] as usize];
        }
    }
    sums.map(|sum| sum / n as f64)
}

/// A two-sided confidence interval.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ci {
    /// Lower bound.
    pub lo: f64,
    /// Upper bound.
    pub hi: f64,
    /// The confidence level the interval was computed at.
    pub(crate) level: f64,
}

impl Ci {
    /// A degenerate point interval `[v, v]`.
    pub(crate) fn point(v: f64, level: f64) -> Self {
        Self { lo: v, hi: v, level }
    }

    /// Whether the two intervals overlap (closed intervals; a shared
    /// endpoint counts as overlap). The CI-gated ranking refuses to
    /// order two trials apart when their intervals overlap.
    pub(crate) fn overlaps(&self, other: &Ci) -> bool {
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
pub(crate) mod tests {
    use super::*;
    use testkit::{sweep, Gen};

    /// The loop [`Bootstrap::ci`] replaced, kept as its oracle: one serial
    /// sum per resample straight off the generator, a full sort of the
    /// means, two type-7 reads.
    pub(crate) fn oracle_ci(dist: &Distribution, spec: &BootstrapSpec) -> Ci {
        let n = dist.samples.len();
        if n == 0 {
            return Ci { lo: f64::NAN, hi: f64::NAN, level: spec.level };
        }
        if n == 1 || spec.resamples == 0 {
            return Ci { lo: dist.samples[0], hi: dist.samples[0], level: spec.level };
        }
        let mut rng = SplitMix64::new(spec.seed);
        let mut means = Vec::with_capacity(spec.resamples);
        for _ in 0..spec.resamples {
            let mut sum = 0.0;
            for _ in 0..n {
                sum += dist.samples[rng.below(n)];
            }
            means.push(sum / n as f64);
        }
        means.sort_by(f64::total_cmp);
        let quantile = |p: f64| {
            let h = (means.len() - 1) as f64 * p.clamp(0.0, 1.0);
            let (lo, hi) = (h.floor() as usize, h.ceil() as usize);
            if lo == hi {
                means[lo]
            } else {
                let w = h - lo as f64;
                means[lo] * (1.0 - w) + means[hi] * w
            }
        };
        let tail = (1.0 - spec.level.clamp(0.0, 1.0)) / 2.0;
        Ci { lo: quantile(tail), hi: quantile(1.0 - tail), level: spec.level }
    }

    fn bits(ci: Ci) -> (u64, u64, u64) {
        (ci.lo.to_bits(), ci.hi.to_bits(), ci.level.to_bits())
    }

    /// `n` samples of one of three kinds: spread over ±100 (the sum's last
    /// bits depend on the order of the adds), a four-value grid holding
    /// both zeros (repeats; a mean of −0.0s), or magnitudes twelve decades
    /// apart (an add out of order shows in the leading bits).
    fn samples(g: &mut Gen, n: usize) -> Vec<f64> {
        match g.below(3) {
            0 => g.f64s(n, -100.0..100.0),
            1 => (0..n).map(|_| *g.pick(&[-0.0, 0.0, 1.5, -2.25])).collect(),
            _ => (0..n).map(|_| g.f64_in(-1.0..1.0) * *g.pick(&[1e-6, 1.0, 1e6])).collect(),
        }
    }

    #[test]
    fn bootstrap_equals_the_serial_oracle_bit_for_bit() {
        const RESAMPLES: [usize; 8] = [1, 2, 3, 7, 50, 200, 201, 1000];
        const LEVELS: [f64; 5] = [0.0, 0.5, 0.9, 0.95, 1.0];
        // Every length once, with 64 met again after other lengths (the
        // plan is redrawn) and 3 and 64 met twice running (it is kept).
        const LENGTHS: [usize; 13] = [64, 2, 3, 3, 5, 8, 20, 63, 64, 64, 65, 256, 64];
        let mut case = 0;
        sweep(RESAMPLES.len() * LEVELS.len(), 0xB007_57A9, |g| {
            let (resamples, level) = (RESAMPLES[case % 8], LEVELS[case / 8]);
            case += 1;
            let spec = BootstrapSpec { level, resamples, seed: g.u64() };
            let mut reused = Bootstrap::new(spec);
            for n in LENGTHS {
                let dist = Distribution::from_samples(samples(g, n));
                let expected = bits(oracle_ci(&dist, &spec));
                let ctx = format!("n {n}, {spec:?}");
                assert_eq!(bits(reused.ci(&dist)), expected, "reused resampler, {ctx}");
                assert_eq!(bits(dist.bootstrap_ci(&spec)), expected, "kept interval, {ctx}");
                let unread = Distribution::from_samples(dist.samples().to_vec());
                assert_eq!(bits(unread.bootstrap_ci(&spec)), expected, "fresh resampler, {ctx}");
            }
        });
        assert_eq!(case, 40);
    }

    #[test]
    fn bootstrap_edge_inputs_match_the_oracle() {
        let spec = BootstrapSpec { level: 0.9, resamples: 50, seed: 3 };
        let mut reused = Bootstrap::new(spec);
        // Empty and single-sample distributions between two real ones
        // leave the kept plan alone.
        for samples in [vec![1.0, 2.0, 4.0], vec![], vec![7.5], vec![-0.0; 3], vec![3.0, 1.0, 2.0]]
        {
            let dist = Distribution::from_samples(samples);
            assert_eq!(
                bits(reused.ci(&dist)),
                bits(oracle_ci(&dist, &spec)),
                "{:?}",
                dist.samples()
            );
        }
        let dist = Distribution::from_samples(vec![1.0, 2.0, 4.0]);
        for (level, resamples) in [(f64::NAN, 50), (-1.0, 50), (2.0, 50), (0.9, 0)] {
            let spec = BootstrapSpec { level, resamples, ..spec };
            assert_eq!(bits(dist.bootstrap_ci(&spec)), bits(oracle_ci(&dist, &spec)), "{spec:?}");
        }
    }

    /// The spec of the interval `dist` keeps, if it keeps one.
    pub(crate) fn kept_spec(dist: &Distribution) -> Option<BootstrapSpec> {
        dist.interval.get().map(|kept| kept.0)
    }

    #[test]
    fn a_kept_interval_is_the_oracle_cold_and_warm_and_per_spec() {
        sweep(40, 0x0CE_1A57, |g| {
            let n = 2 + g.below(100);
            let dist = Distribution::from_samples(samples(g, n));
            let first = BootstrapSpec { level: 0.9, resamples: 1 + g.below(300), seed: g.u64() };
            // Differs from `first` in one field only, `level` by one ulp.
            let second = match g.below(3) {
                0 => BootstrapSpec { level: f64::from_bits(0.9f64.to_bits() + 1), ..first },
                1 => BootstrapSpec { resamples: first.resamples + 1, ..first },
                _ => BootstrapSpec { seed: first.seed ^ 1, ..first },
            };
            let (want_first, want_second) = (oracle_ci(&dist, &first), oracle_ci(&dist, &second));
            assert_eq!(kept_spec(&dist), None);
            let mut boot = Bootstrap::new(first);
            assert_eq!(bits(boot.ci(&dist)), bits(want_first), "cold");
            assert_eq!(kept_spec(&dist), Some(first));
            assert_eq!(bits(boot.ci(&dist)), bits(want_first), "warm, same resampler");
            assert_eq!(bits(dist.bootstrap_ci(&first)), bits(want_first), "warm, fresh");
            for _ in 0..2 {
                assert_eq!(bits(dist.bootstrap_ci(&second)), bits(want_second), "{second:?}");
                assert_eq!(kept_spec(&dist), Some(first), "the first interval stays");
            }
            assert_eq!(bits(boot.ci(&dist)), bits(want_first), "after the second spec");
        });
    }

    #[test]
    fn a_clone_carries_the_kept_interval_and_equality_ignores_it() {
        let spec = BootstrapSpec { level: 0.95, resamples: 100, seed: 11 };
        let read = grid_1_to_100();
        let ci = read.bootstrap_ci(&spec);
        let copy = read.clone();
        assert_eq!(kept_spec(&copy), Some(spec));
        assert_eq!(bits(copy.bootstrap_ci(&spec)), bits(ci));
        let unread = grid_1_to_100();
        assert_eq!(kept_spec(&unread), None);
        assert!(read == unread && unread == copy, "samples alone decide equality");
        assert_eq!(format!("{read:?}"), format!("{unread:?}"));
        assert_ne!(read, Distribution::from_samples(vec![1.0, 2.0]));
    }

    #[test]
    fn intervals_equal_the_serial_oracle_and_keep_what_they_may() {
        sweep(6, 0x1A7E_5CA1, |g| {
            let spec = BootstrapSpec { level: 0.9, resamples: 1 + g.below(250), seed: g.u64() };
            let other = BootstrapSpec { seed: spec.seed ^ 1, ..spec };
            // Runs of one length between changes of length, so that every
            // thread's blocks meet several plans; empty and one-sample
            // distributions among them.
            let mut dists = Vec::new();
            while dists.len() < 10 * BLOCK {
                let n = *g.pick(&[0, 1, 2, 5, 64, 64, 64, 100]);
                for _ in 0..1 + g.below(2 * BLOCK) {
                    dists.push(Distribution::from_samples(samples(g, n)));
                }
            }
            // Some keep an interval already, under this spec or another.
            let mut kept = Vec::new();
            for (i, d) in dists.iter().enumerate().filter(|(_, d)| d.len() > 1) {
                match g.below(8) {
                    0 => kept.push((i, other, bits(d.bootstrap_ci(&other)))),
                    1 => kept.push((i, spec, bits(d.bootstrap_ci(&spec)))),
                    _ => {}
                }
            }
            assert!(kept.iter().any(|k| k.1 == other) && kept.iter().any(|k| k.1 == spec));
            let refs: Vec<&Distribution> = dists.iter().collect();
            let got = intervals(&refs, &spec);
            assert_eq!(got.len(), dists.len());
            for (i, (d, ci)) in dists.iter().zip(&got).enumerate() {
                assert_eq!(bits(*ci), bits(oracle_ci(d, &spec)), "distribution {i}, n {}", d.len());
            }
            for (i, d) in dists.iter().enumerate() {
                let was = kept.iter().find(|k| k.0 == i);
                let want = match was {
                    Some(&(_, under, _)) => Some(under),
                    None if d.len() > 1 => Some(spec),
                    None => None,
                };
                assert_eq!(kept_spec(d), want, "distribution {i}, n {}", d.len());
            }
            for &(i, kept_under, ci) in &kept {
                assert_eq!(bits(dists[i].bootstrap_ci(&kept_under)), ci, "distribution {i}");
            }
        });
    }

    #[test]
    fn racing_readers_of_one_distribution_agree_bit_for_bit() {
        let spec = BootstrapSpec { level: 0.9, resamples: 400, seed: 5 };
        let want = bits(oracle_ci(&grid_1_to_100(), &spec));
        for _ in 0..8 {
            let dist = grid_1_to_100();
            let barrier = std::sync::Barrier::new(2);
            let got: Vec<_> = std::thread::scope(|s| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        s.spawn(|| {
                            barrier.wait();
                            bits(dist.bootstrap_ci(&spec))
                        })
                    })
                    .collect();
                racers.into_iter().map(|r| r.join().unwrap()).collect()
            });
            assert_eq!(got, [want, want]);
            assert_eq!(bits(dist.bootstrap_ci(&spec)), want, "whichever racer kept it");
        }
    }

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
    fn non_finite_samples_are_dropped() {
        let d = Distribution::from_samples(vec![1.0, f64::NAN, 2.0, f64::INFINITY]);
        assert_eq!(d.len(), 2);
        assert!((d.mean() - 1.5).abs() < 1e-12);
        let empty = Distribution::from_samples(vec![f64::NAN]);
        assert!(empty.is_empty());
        assert!(empty.mean().is_nan());
        assert!(empty.quantile(0.5).is_nan());
        assert!(empty.cvar_lower(0.1).is_nan());
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
    }
}
