//! Allocation budget of a trial's record: a clone shares every name and
//! every distribution's samples, so it allocates one vector per non-empty
//! map and nothing per name or per sample. A deep copy — a `String` per
//! name, a `Vec` per distribution — would show as one more allocation per
//! metric.
//!
//! Counted by `testkit::alloc`'s thread-scoped allocator: everything here
//! runs on the calling thread, so the counts are exact.

use decision::prelude::*;
use testkit::alloc::{allocations, CountingAllocator};

#[global_allocator]
static ALLOC: CountingAllocator = CountingAllocator;

/// What `f` returns, and the allocations it made.
fn counted<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = allocations();
    let out = f();
    (out, allocations() - before)
}

fn reward() -> Distribution {
    Distribution::from_samples((0..64).map(|i| -0.5 + 0.01 * f64::from(i)).collect())
}

/// Three scalars and a 64-sample distribution under typed keys, as the
/// study benchmark's surrogate objective answers.
fn record() -> MetricValues {
    let reward = reward();
    let mut m = MetricValues::new()
        .with_key(metric_keys::REWARD, reward.mean())
        .with_key(metric_keys::TIME_MIN, 46.0)
        .with_key(metric_keys::POWER_KJ, 900.0);
    m.set_distribution_key(metric_keys::REWARD, reward);
    m
}

#[test]
fn a_distribution_is_built_in_one_allocation() {
    let samples: Vec<f64> = (0..64).map(f64::from).collect();
    let (dist, n) = counted(|| Distribution::from_samples(samples));
    assert_eq!(dist.len(), 64);
    assert_eq!(n, 1, "samples and their sorted copy share one allocation");
}

#[test]
fn a_record_clone_allocates_one_vector_per_map() {
    let m = record();
    let (copy, n) = counted(|| m.clone());
    assert_eq!(copy, m);
    assert_eq!(n, 2, "the scalars' vector and the distributions' vector");
    let (a, b) =
        (m.distribution_key(metric_keys::REWARD), copy.distribution_key(metric_keys::REWARD));
    assert_eq!(a.unwrap().samples().as_ptr(), b.unwrap().samples().as_ptr(), "samples are shared");
    let (empty, n) = counted(|| MetricValues::new().clone());
    assert!(empty.is_empty());
    assert_eq!(n, 0, "an empty map allocates nothing");
}

#[test]
fn a_cache_hit_allocates_its_key_and_one_vector_per_map() {
    let space = ParamSpace::builder()
        .categorical("algorithm", ["PPO", "SAC"])
        .categorical_int("cores", [1, 2, 4])
        .int("draw", 0, 3)
        .build();
    let config = space.grid().swap_remove(5);
    let mut trial = Trial::complete(0, config.clone(), record());
    trial.intermediate = vec![(1, -0.5), (2, -0.4)];
    let cache = TrialCache::new();
    cache.absorb(&[trial], "v1", 7);
    let (hit, n) = counted(|| cache.lookup(&config, "v1", 7));
    assert!(hit.is_some());
    // The key, the configuration's vector and its one label, the two
    // metric maps and the intermediate reports: no name, no sample.
    assert_eq!(n, 1 + 2 + 2 + 1);
}

#[test]
fn a_clone_sees_the_interval_kept_before_it_and_shares_the_samples() {
    let spec = BootstrapSpec { level: 0.9, resamples: 100, seed: 3 };
    let dist = reward();
    let (early, n) = counted(|| dist.clone());
    assert_eq!(n, 0, "no interval is kept yet: a clone is a count bump");
    let ci = dist.bootstrap_ci(&spec);
    let (late, n) = counted(|| dist.clone());
    assert_eq!(n, 1, "the kept interval is copied with the handle");
    let (late_ci, n) = counted(|| late.bootstrap_ci(&spec));
    assert_eq!(n, 0, "a clone made after the interval reads it");
    let (early_ci, n) = counted(|| early.bootstrap_ci(&spec));
    assert!(n > 0, "a clone made before the interval resamples");
    for other in [late_ci, early_ci] {
        assert_eq!((other.lo.to_bits(), other.hi.to_bits()), (ci.lo.to_bits(), ci.hi.to_bits()));
    }
    for other in [&early, &late] {
        assert_eq!(other.samples().as_ptr(), dist.samples().as_ptr());
        assert_eq!(other.sorted().as_ptr(), dist.sorted().as_ptr());
    }
}
