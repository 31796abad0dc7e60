//! Seeded-sweep and closed-form tests for the distribution-first metrics:
//! bootstrap determinism (including across thread counts) and exact
//! agreement of CVaR / IQR / drawdown with hand-computed values.

use decision::prelude::*;
use testkit::sweep;

const SEED: u64 = 0xB007;

/// A bootstrap CI is a pure function of (samples, spec): repeated
/// calls are bit-identical.
#[test]
fn bootstrap_ci_is_deterministic() {
    sweep(48, SEED, |g| {
        let samples = g.vec(2..60, |g| g.f64_in(-100.0..100.0));
        let (seed, resamples) = (g.int_in(0u64..1_000), g.int_in(10usize..200));
        let d = Distribution::from_samples(samples);
        let spec = BootstrapSpec { level: 0.9, resamples, seed };
        let a = d.bootstrap_ci(&spec);
        let b = d.bootstrap_ci(&spec);
        assert_eq!(a.lo.to_bits(), b.lo.to_bits());
        assert_eq!(a.hi.to_bits(), b.hi.to_bits());
    });
}

/// The same (seed, resamples) gives the same interval no matter how
/// many threads compute it concurrently: the resampler's RNG state is
/// local to the call, never shared or work-stealing-dependent.
#[test]
fn bootstrap_ci_is_thread_count_invariant() {
    sweep(48, SEED, |g| {
        let samples = g.vec(4..40, |g| g.f64_in(-50.0..50.0));
        let seed = g.int_in(0u64..1_000);
        let d = Distribution::from_samples(samples);
        let spec = BootstrapSpec { level: 0.95, resamples: 64, seed };
        let reference = d.bootstrap_ci(&spec);
        for threads in [1usize, 2, 4] {
            let bits: Vec<(u64, u64)> = std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads)
                    .map(|_| {
                        let d = &d;
                        let spec = &spec;
                        scope.spawn(move || {
                            let ci = d.bootstrap_ci(spec);
                            (ci.lo.to_bits(), ci.hi.to_bits())
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            for (lo, hi) in bits {
                assert_eq!(lo, reference.lo.to_bits(), "{threads} threads");
                assert_eq!(hi, reference.hi.to_bits(), "{threads} threads");
            }
        }
    });
}

/// Percentile-bootstrap bounds of the mean are ordered and stay
/// inside the sample range (every resampled mean does).
#[test]
fn bootstrap_ci_is_ordered_and_bounded() {
    sweep(48, SEED, |g| {
        let samples = g.vec(2..50, |g| g.f64_in(-10.0..10.0));
        let seed = g.int_in(0u64..100);
        let d = Distribution::from_samples(samples);
        let spec = BootstrapSpec { level: 0.95, resamples: 50, seed };
        let ci = d.bootstrap_ci(&spec);
        assert!(ci.lo <= ci.hi);
        assert!(ci.lo >= d.min() - 1e-12);
        assert!(ci.hi <= d.max() + 1e-12);
    });
}

/// CVaR tails bracket the mean and tighten monotonically: a smaller
/// alpha keeps only worse outcomes.
#[test]
fn cvar_tails_bracket_the_mean() {
    sweep(48, SEED, |g| {
        let samples = g.vec(1..60, |g| g.f64_in(-100.0..100.0));
        let d = Distribution::from_samples(samples);
        assert!(d.cvar_lower(0.1) <= d.mean() + 1e-9);
        assert!(d.cvar_upper(0.1) >= d.mean() - 1e-9);
        assert!(d.cvar_lower(0.1) <= d.cvar_lower(0.5) + 1e-9);
        assert!(d.cvar_upper(0.1) >= d.cvar_upper(0.5) - 1e-9);
    });
}

/// Risk::Mean never changes a ranking: the order is the scalar order
/// even when every trial carries a distribution that, read through CVaR,
/// would say otherwise. The literal is what the pre-engine
/// `SortedRanking` returned on this fixture.
#[test]
fn risk_mean_ranks_by_the_scalar_whatever_the_distribution_says() {
    let values = [(1.5, 9.0), (-2.0, 0.1), (4.0, 7.5), (1.5, 0.2), (3.25, 0.1), (-4.5, 3.0)];
    let trials: Vec<Trial> = values
        .iter()
        .enumerate()
        .map(|(i, &(r, spread))| {
            let mut m = MetricValues::new().with("reward", r);
            m.set_distribution("reward", vec![r - spread, r, r + spread].into());
            Trial::complete(i, Configuration::new(), m)
        })
        .collect();
    let def = MetricDef::maximize("reward");
    assert_eq!(SortedRanking::by(def.clone()).rank(&trials), vec![2, 4, 0, 3, 1, 5]);
    assert_eq!(RankSpec::sorted().metric(def.clone()).rank(&trials).order, vec![2, 4, 0, 3, 1, 5]);
    // The distributions are not decoration: the lower tail reorders them.
    let cvar = def.with_risk(Risk::Cvar(0.3));
    assert_eq!(SortedRanking::by(cvar).rank(&trials), vec![4, 3, 1, 2, 0, 5]);
}

#[test]
fn cvar_matches_hand_computed_tail_means() {
    let d: Distribution = (1..=100).map(f64::from).collect();
    // alpha = 0.05 keeps ceil(0.05 * 100) = 5 samples per tail.
    assert!((d.cvar_lower(0.05) - 3.0).abs() < 1e-12, "mean of 1..=5");
    assert!((d.cvar_upper(0.05) - 98.0).abs() < 1e-12, "mean of 96..=100");
    // alpha = 1 degenerates to the mean; tiny alpha to the extremes.
    assert!((d.cvar_lower(1.0) - d.mean()).abs() < 1e-12);
    assert!((d.cvar_lower(1e-9) - 1.0).abs() < 1e-12);
    assert!((d.cvar_upper(1e-9) - 100.0).abs() < 1e-12);
}

#[test]
fn quantiles_match_type7_interpolation() {
    let d: Distribution = (1..=100).map(f64::from).collect();
    // Hyndman–Fan type 7: rank (n-1)p, linear interpolation.
    assert!((d.quantile(0.25) - 25.75).abs() < 1e-12);
    assert!((d.quantile(0.75) - 75.25).abs() < 1e-12);
    assert!((d.iqr() - 49.5).abs() < 1e-12);
    assert!((d.median() - 50.5).abs() < 1e-12);
    let single = Distribution::from_samples(vec![7.0]);
    assert!((single.median() - 7.0).abs() < 1e-12);
    assert!((single.iqr() - 0.0).abs() < 1e-12);
}
