//! Symmetry/bounds properties of the counterfactual divergences: fixed
//! seed grids first, then seeded sweeps that draw the samples themselves.

use counterfactual::{js_divergence, wasserstein_1, Aggregate, JS_BOUND};
use decision::distribution::Distribution;
use testkit::sweep;

const SEED: u64 = 0xD1FF;

/// SplitMix64 step, the repo's dependency-free deterministic stream.
fn mix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn samples(seed: u64, n: usize, scale: f64, shift: f64) -> Vec<f64> {
    let mut s = seed;
    (0..n).map(|_| (mix(&mut s) >> 11) as f64 / (1u64 << 53) as f64 * scale + shift).collect()
}

fn check_pair(a: &Distribution, b: &Distribution, bins: usize) {
    let js_ab = js_divergence(a, b, bins);
    let js_ba = js_divergence(b, a, bins);
    assert!((js_ab - js_ba).abs() < 1e-12, "JS symmetric: {js_ab} vs {js_ba}");
    assert!((0.0..=JS_BOUND + 1e-12).contains(&js_ab), "JS in [0, ln 2]: {js_ab}");
    let w_ab = wasserstein_1(a, b);
    let w_ba = wasserstein_1(b, a);
    assert_eq!(w_ab.to_bits(), w_ba.to_bits(), "W1 exactly symmetric");
    assert!(w_ab >= 0.0, "W1 non-negative: {w_ab}");
    // Self-distance is exactly zero for both.
    assert_eq!(js_divergence(a, a, bins), 0.0);
    assert_eq!(wasserstein_1(a, a), 0.0);
    // W1 between sets inside [lo, hi] cannot exceed the span.
    let lo = a.min().min(b.min());
    let hi = a.max().max(b.max());
    assert!(w_ab <= (hi - lo) + 1e-12, "W1 bounded by the union span");
}

#[test]
fn divergence_properties_hold_across_a_seed_sweep() {
    for seed in 0..24u64 {
        let na = 2 + (seed as usize % 9);
        let nb = 2 + ((seed as usize * 7) % 9);
        let a = Distribution::from_samples(samples(seed, na, 10.0, -5.0));
        let b = Distribution::from_samples(samples(seed ^ 0xABCD, nb, 6.0, seed as f64 % 4.0));
        for bins in [1, 2, 7, 32] {
            check_pair(&a, &b, bins);
        }
    }
}

#[test]
fn aggregate_ordering_holds_across_a_seed_sweep() {
    for seed in 0..24u64 {
        let scores = samples(seed.wrapping_mul(31), 1 + seed as usize % 8, 3.0, 0.0);
        let mean = Aggregate::Mean.apply(&scores);
        let weighted = Aggregate::WeightedMean.apply(&scores);
        let max = Aggregate::Max.apply(&scores);
        assert!(mean <= weighted + 1e-12, "mean ≤ weighted_mean (Cauchy–Schwarz)");
        assert!(weighted <= max + 1e-12, "weighted_mean ≤ max");
        assert!(
            Aggregate::Max.apply(&scores) >= scores.iter().copied().fold(0.0, f64::max) - 1e-12
        );
    }
}

#[test]
fn w1_shift_invariance_across_a_seed_sweep() {
    // W1(a + c, b + c) == W1(a, b): the CDF area is translation-invariant.
    for seed in 0..12u64 {
        let raw_a = samples(seed, 6, 4.0, 0.0);
        let raw_b = samples(seed ^ 99, 6, 4.0, 1.0);
        let d = |v: &[f64], c: f64| Distribution::from_samples(v.iter().map(|x| x + c).collect());
        let base = wasserstein_1(&d(&raw_a, 0.0), &d(&raw_b, 0.0));
        let shifted = wasserstein_1(&d(&raw_a, 100.0), &d(&raw_b, 100.0));
        assert!((base - shifted).abs() < 1e-9, "shift-invariant: {base} vs {shifted}");
    }
}

/// JS is symmetric to addition-order noise, bounded by ln 2, zero on
/// itself; W1 is exactly symmetric and non-negative.
#[test]
fn divergences_are_symmetric_and_bounded() {
    sweep(64, SEED, |g| {
        let a = g.vec(1..40, |g| g.f64_in(-50.0..50.0));
        let b = g.vec(1..40, |g| g.f64_in(-50.0..50.0));
        let bins = g.int_in(1usize..64);
        let da = Distribution::from_samples(a);
        let db = Distribution::from_samples(b);
        let js_ab = js_divergence(&da, &db, bins);
        let js_ba = js_divergence(&db, &da, bins);
        assert!((js_ab - js_ba).abs() < 1e-12);
        assert!((0.0..=JS_BOUND + 1e-12).contains(&js_ab));
        assert_eq!(js_divergence(&da, &da, bins), 0.0);
        let w_ab = wasserstein_1(&da, &db);
        assert_eq!(w_ab.to_bits(), wasserstein_1(&db, &da).to_bits());
        assert!(w_ab >= 0.0);
        assert_eq!(wasserstein_1(&da, &da), 0.0);
    });
}

/// W1 carries scale: it is bounded by the union support span and is
/// translation-invariant.
#[test]
fn w1_is_span_bounded_and_shift_invariant() {
    sweep(64, SEED, |g| {
        let a = g.vec(1..30, |g| g.f64_in(-20.0..20.0));
        let b = g.vec(1..30, |g| g.f64_in(-20.0..20.0));
        let shift = g.f64_in(-100.0..100.0);
        let da = Distribution::from_samples(a.clone());
        let db = Distribution::from_samples(b.clone());
        let w = wasserstein_1(&da, &db);
        let span = da.max().max(db.max()) - da.min().min(db.min());
        assert!(w <= span + 1e-12);
        let sa = Distribution::from_samples(a.iter().map(|x| x + shift).collect());
        let sb = Distribution::from_samples(b.iter().map(|x| x + shift).collect());
        assert!((wasserstein_1(&sa, &sb) - w).abs() < 1e-9);
    });
}

/// Aggregation rules stay ordered mean ≤ weighted_mean ≤ max on
/// non-negative scores.
#[test]
fn aggregates_stay_ordered() {
    sweep(64, SEED, |g| {
        let scores = g.vec(0..20, |g| g.f64_in(0.0..10.0));
        let mean = Aggregate::Mean.apply(&scores);
        let weighted = Aggregate::WeightedMean.apply(&scores);
        let max = Aggregate::Max.apply(&scores);
        assert!(mean <= weighted + 1e-12);
        assert!(weighted <= max + 1e-12);
    });
}
