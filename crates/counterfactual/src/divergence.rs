//! Divergences between empirical return distributions, and the rules
//! that collapse per-alternative divergences into one decision-point
//! score.
//!
//! Both divergences are pure functions of the two sample vectors — no
//! RNG, no iteration-order dependence — so a fixed pair of
//! [`Distribution`]s yields bit-identical scores on every platform and
//! from every execution path (the cross-path parity suite relies on
//! this).
//!
//! * [`js_divergence`] — Jensen–Shannon divergence over a shared-binning
//!   histogram of the union support. Natural log, so it is bounded by
//!   `ln 2` ([`JS_BOUND`]); symmetric; `0` iff the histograms coincide.
//!   Binning makes it a *density* comparison: it saturates for disjoint
//!   supports no matter how far apart they are, so between two point
//!   masses it says nothing and [`js_unless_point_masses`] declines.
//! * [`wasserstein_1`] — the 1-Wasserstein (earth mover's) distance
//!   between the empirical CDFs, `∫ |F_a − F_b| dx`. Unbounded and
//!   scale-carrying: it grows with *how far* the returns moved, which is
//!   exactly what a "did this decision matter?" score wants alongside
//!   the saturating JS signal.

use decision::distribution::Distribution;

/// Upper bound of [`js_divergence`] (natural log): `ln 2`.
pub const JS_BOUND: f64 = std::f64::consts::LN_2;

/// Jensen–Shannon divergence between two sample sets, computed over a
/// shared histogram of `bins` equal-width cells spanning the union
/// support `[min(a, b), max(a, b)]`.
///
/// Natural-log convention: `0 ≤ JS ≤ ln 2`, with `ln 2` reached exactly
/// when the binned supports are disjoint. Returns `NaN` when either
/// distribution is empty; two point masses on the same value (or any
/// pair whose union support is a single point) give `0`.
///
/// Deterministic and symmetric up to floating-point addition order;
/// `js_divergence(a, b)` and `js_divergence(b, a)` agree to within a few
/// ulps (the property tests pin `1e-12`).
pub fn js_divergence(a: &Distribution, b: &Distribution, bins: usize) -> f64 {
    if a.is_empty() || b.is_empty() {
        return f64::NAN;
    }
    let bins = bins.max(1);
    let lo = a.min().min(b.min());
    let hi = a.max().max(b.max());
    if lo == hi {
        return 0.0; // all mass of both sides on one point: identical histograms
    }
    let hist = |d: &Distribution| -> Vec<f64> {
        let mut h = vec![0.0f64; bins];
        let w = 1.0 / d.len() as f64;
        for &x in d.samples() {
            let t = (x - lo) / (hi - lo);
            let cell = ((t * bins as f64) as usize).min(bins - 1);
            h[cell] += w;
        }
        h
    };
    let p = hist(a);
    let q = hist(b);
    let mut js = 0.0;
    for (pi, qi) in p.iter().zip(&q) {
        let m = 0.5 * (pi + qi);
        if *pi > 0.0 {
            js += 0.5 * pi * (pi / m).ln();
        }
        if *qi > 0.0 {
            js += 0.5 * qi * (qi / m).ln();
        }
    }
    // KL terms are non-negative analytically; shave the few negative ulps
    // rounding can leave so callers can rely on `0 ≤ js`.
    js.max(0.0)
}

/// [`js_divergence`] where it can say something: `None` when both sides
/// have zero spread. Two point masses share a histogram cell or they do
/// not, so JS would read `0` or [`JS_BOUND`] however near the two values
/// are; their [`wasserstein_1`] distance is the gap itself.
pub(crate) fn js_unless_point_masses(
    a: &Distribution,
    b: &Distribution,
    bins: usize,
) -> Option<f64> {
    let point_mass = |d: &Distribution| d.min() == d.max();
    if point_mass(a) && point_mass(b) {
        None
    } else {
        Some(js_divergence(a, b, bins))
    }
}

/// 1-Wasserstein distance between two empirical distributions: the area
/// between their CDFs, `∫ |F_a(x) − F_b(x)| dx`, computed exactly by
/// walking the merged sorted sample values.
///
/// For equal sample counts this equals the mean absolute difference of
/// the order statistics; the CDF form also handles unequal counts.
/// Returns `NaN` when either side is empty.
pub fn wasserstein_1(a: &Distribution, b: &Distribution) -> f64 {
    let xs = a.sorted();
    let ys = b.sorted();
    if xs.is_empty() || ys.is_empty() {
        return f64::NAN;
    }
    let mut all: Vec<f64> = Vec::with_capacity(xs.len() + ys.len());
    all.extend_from_slice(xs);
    all.extend_from_slice(ys);
    all.sort_by(f64::total_cmp);
    let (na, nb) = (xs.len() as f64, ys.len() as f64);
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut w = 0.0;
    for pair in all.windows(2) {
        let (lo, hi) = (pair[0], pair[1]);
        // CDF value on [lo, hi): the fraction of samples ≤ lo.
        while ia < xs.len() && xs[ia] <= lo {
            ia += 1;
        }
        while ib < ys.len() && ys[ib] <= lo {
            ib += 1;
        }
        w += (ia as f64 / na - ib as f64 / nb).abs() * (hi - lo);
    }
    w
}

/// How per-alternative divergences collapse into one decision-point
/// score.
///
/// For non-negative inputs the three rules are ordered
/// `mean ≤ weighted_mean ≤ max` (Cauchy–Schwarz gives the middle
/// inequality), which
/// `analyzer::tests::aggregates_stay_ordered_on_real_scores` asserts on
/// every decision point of a recorded episode.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Aggregate {
    /// The single most consequential alternative.
    Max,
    /// Uniform average over alternatives.
    Mean,
    /// Self-weighted average `Σ sᵢ² / Σ sᵢ` — alternatives count in
    /// proportion to their own divergence, so one decisive fork is not
    /// washed out by many inert ones. `0` when every score is `0`.
    WeightedMean,
}

impl Aggregate {
    /// Collapse `scores` (one per alternative) into one scalar. An empty
    /// slice — a decision point with no alternative actions — scores
    /// `0`: no fork, no evidence of consequence.
    pub fn apply(self, scores: &[f64]) -> f64 {
        if scores.is_empty() {
            return 0.0;
        }
        match self {
            Aggregate::Max => scores.iter().copied().fold(f64::NEG_INFINITY, f64::max),
            Aggregate::Mean => scores.iter().sum::<f64>() / scores.len() as f64,
            Aggregate::WeightedMean => {
                let total: f64 = scores.iter().sum();
                if total == 0.0 {
                    0.0
                } else {
                    scores.iter().map(|s| s * s).sum::<f64>() / total
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dist(samples: &[f64]) -> Distribution {
        Distribution::from_samples(samples.to_vec())
    }

    // ---- JS closed forms -----------------------------------------

    #[test]
    fn js_of_identical_samples_is_zero() {
        let a = dist(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(js_divergence(&a, &a, 8), 0.0, "p == q: every KL term is ln 1");
    }

    #[test]
    fn js_of_disjoint_supports_is_ln_2() {
        // With 11 bins over [0, 11], a's mass lands in cell 0 and b's in
        // cell 10 — fully disjoint histograms saturate at ln 2.
        let a = dist(&[0.0, 0.2, 0.4]);
        let b = dist(&[10.5, 10.7, 11.0]);
        assert!((js_divergence(&a, &b, 11) - JS_BOUND).abs() < 1e-12);
    }

    #[test]
    fn js_half_overlap_matches_hand_computation() {
        // Two bins over [0, 1]: p = [1, 0], q = [1/2, 1/2],
        // m = [3/4, 1/4].
        let a = dist(&[0.0, 0.25]);
        let b = dist(&[0.25, 1.0]);
        let expected = 0.5 * (4.0f64 / 3.0).ln() + 0.25 * (2.0f64 / 3.0).ln() + 0.25 * 2.0f64.ln();
        assert!((js_divergence(&a, &b, 2) - expected).abs() < 1e-12);
    }

    #[test]
    fn js_point_masses() {
        let at = |v: f64| dist(&[v, v, v]);
        assert_eq!(js_divergence(&at(2.0), &at(2.0), 16), 0.0, "same point: zero-width support");
        // Distinct point masses are disjoint in any binning with ≥ 2 cells.
        assert!((js_divergence(&at(0.0), &at(1.0), 2) - JS_BOUND).abs() < 1e-12);
    }

    #[test]
    fn js_of_two_point_masses_is_none() {
        let at = |v: f64| dist(&[v, v, v]);
        assert_eq!(js_unless_point_masses(&at(0.0), &at(1e-4), 16), None);
        assert_eq!(js_unless_point_masses(&at(2.0), &at(2.0), 16), None);
    }

    #[test]
    fn js_of_a_point_mass_against_a_two_point_uniform() {
        // Two bins over [0, 1]: p = [1, 0], q = [1/2, 1/2], m = [3/4, 1/4].
        let point = dist(&[0.0, 0.0]);
        let uniform = dist(&[0.0, 1.0]);
        let expected = 0.5 * (4.0f64 / 3.0).ln() + 0.25 * (2.0f64 / 3.0).ln() + 0.25 * 2.0f64.ln();
        for js in [
            js_unless_point_masses(&point, &uniform, 2),
            js_unless_point_masses(&uniform, &point, 2),
        ] {
            assert!((js.expect("one side has spread") - expected).abs() < 1e-12, "{js:?}");
        }
    }

    #[test]
    fn js_of_two_shifted_uniforms() {
        // Uniform on {0,1,2,3} against {1,2,3,4}, five bins over [0, 4]:
        // p = [¼,¼,¼,¼,0], q = [0,¼,¼,¼,¼]. Only the two end cells differ,
        // each adding ½·¼·ln 2, so JS = ¼ ln 2.
        let a = dist(&[0.0, 1.0, 2.0, 3.0]);
        let b = dist(&[1.0, 2.0, 3.0, 4.0]);
        let js = js_unless_point_masses(&a, &b, 5).expect("both sides have spread");
        assert!((js - 0.25 * JS_BOUND).abs() < 1e-12, "{js}");
    }

    #[test]
    fn js_degenerate_inputs() {
        let a = dist(&[1.0]);
        let empty = dist(&[]);
        assert!(js_divergence(&a, &empty, 8).is_nan());
        assert!(js_divergence(&empty, &a, 8).is_nan());
        // bins = 0 is clamped to one cell: everything coincides.
        assert_eq!(js_divergence(&dist(&[0.0, 1.0]), &dist(&[0.25, 0.75]), 0), 0.0);
    }

    // ---- Wasserstein closed forms --------------------------------

    #[test]
    fn w1_of_identical_samples_is_zero() {
        let a = dist(&[3.0, 1.0, 2.0]);
        assert_eq!(wasserstein_1(&a, &a), 0.0);
    }

    #[test]
    fn w1_of_point_masses_is_their_distance() {
        let a = dist(&[1.5]);
        let b = dist(&[4.25]);
        assert!((wasserstein_1(&a, &b) - 2.75).abs() < 1e-12);
    }

    #[test]
    fn w1_of_a_shifted_grid_is_the_shift() {
        // Shifting every sample by c moves the CDF horizontally by c:
        // W₁ = c exactly.
        let a = dist(&(1..=10).map(|i| i as f64).collect::<Vec<_>>());
        let b = dist(&(1..=10).map(|i| i as f64 + 0.5).collect::<Vec<_>>());
        assert!((wasserstein_1(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn w1_handles_unequal_sample_counts() {
        // Uniform on {0, 1} vs a point mass at 1/2: E|X − 1/2| = 1/2.
        let a = dist(&[0.0, 1.0]);
        let b = dist(&[0.5]);
        assert!((wasserstein_1(&a, &b) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn w1_equal_counts_matches_order_statistic_form() {
        let a = dist(&[0.0, 2.0, 5.0, 9.0]);
        let b = dist(&[1.0, 1.0, 7.0, 8.0]);
        // Mean |a₍ᵢ₎ − b₍ᵢ₎| = (1 + 1 + 2 + 1) / 4.
        assert!((wasserstein_1(&a, &b) - 1.25).abs() < 1e-12);
    }

    #[test]
    fn w1_degenerate_inputs() {
        let a = dist(&[1.0]);
        let empty = dist(&[]);
        assert!(wasserstein_1(&a, &empty).is_nan());
        assert!(wasserstein_1(&empty, &a).is_nan());
    }

    // ---- aggregation ---------------------------------------------

    #[test]
    fn aggregates_are_ordered_mean_weighted_max() {
        let scores = [0.1, 0.4, 0.0, 0.7];
        let mean = Aggregate::Mean.apply(&scores);
        let weighted = Aggregate::WeightedMean.apply(&scores);
        let max = Aggregate::Max.apply(&scores);
        assert!((mean - 0.3).abs() < 1e-12);
        assert!((weighted - (0.01 + 0.16 + 0.49) / 1.2).abs() < 1e-12);
        assert_eq!(max, 0.7);
        assert!(mean <= weighted && weighted <= max);
    }

    #[test]
    fn aggregates_on_empty_and_all_zero_scores() {
        for agg in [Aggregate::Max, Aggregate::Mean, Aggregate::WeightedMean] {
            assert_eq!(agg.apply(&[]), 0.0, "no alternatives: no consequence");
            assert_eq!(agg.apply(&[0.0, 0.0]), 0.0);
        }
    }
}
