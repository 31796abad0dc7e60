//! Incremental trial reuse: a content-addressed cache of trial outcomes.
//!
//! Resubmitted or overlapping studies routinely propose configurations
//! that have already been evaluated. The cache keys each finished outcome
//! on the triple
//!
//! ```text
//! Configuration::canonical_key() | objective fingerprint | study seed
//! ```
//!
//! so a hit is only declared when the configuration, the objective
//! version (the caller-supplied fingerprint — bump it when the objective
//! changes), and the study seed all match. On a hit the study adopts the
//! cached outcome, records a `trial.reused` WAL event, and skips the
//! objective entirely.
//!
//! Only `Complete` and `Pruned` outcomes are cached: a `Failed` trial
//! says nothing durable about the configuration (the failure may be
//! transient) and must re-execute.

use crate::metrics::MetricValues;
use crate::trial::{Configuration, Trial, TrialStatus};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// A cached trial outcome (identity-free: the adopting study assigns its
/// own trial id).
#[derive(Debug, Clone, PartialEq)]
pub struct CachedOutcome {
    /// The evaluated configuration.
    pub(crate) config: Configuration,
    /// `Complete` or `Pruned`.
    pub(crate) status: TrialStatus,
    /// Final metric values.
    pub(crate) metrics: MetricValues,
    /// Intermediate reports, replayed into the adopting study's pruner so
    /// warm and cold runs prune identically.
    pub(crate) intermediate: Vec<(u64, f64)>,
}

impl CachedOutcome {
    /// Materialize as a trial with the adopting study's id.
    pub(crate) fn to_trial(&self, id: usize) -> Trial {
        Trial {
            id,
            config: self.config.clone(),
            metrics: self.metrics.clone(),
            status: self.status,
            intermediate: self.intermediate.clone(),
            error: None,
            reused: true,
        }
    }
}

/// Content-addressed store of finished trial outcomes, shared between
/// studies (and across [`crate::server::StudyServer`] submissions) behind
/// an `Arc`.
#[derive(Debug, Default)]
pub struct TrialCache {
    map: Mutex<HashMap<String, CachedOutcome>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl TrialCache {
    /// An empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// The cache key for a configuration under an objective fingerprint
    /// and study seed.
    pub(crate) fn key(config: &Configuration, fingerprint: &str, seed: u64) -> String {
        format!("{}|{fingerprint}|{seed}", config.canonical_key())
    }

    /// The map, poisoned or not: a panicking trial must not wedge the cache.
    fn map(&self) -> MutexGuard<'_, HashMap<String, CachedOutcome>> {
        self.map.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Look up a configuration; counts a hit or miss.
    pub fn lookup(
        &self,
        config: &Configuration,
        fingerprint: &str,
        seed: u64,
    ) -> Option<CachedOutcome> {
        let found = self.map().get(&Self::key(config, fingerprint, seed)).cloned();
        match found {
            Some(hit) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(hit)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// Store a finished trial's outcome. `Failed` trials are ignored.
    pub(crate) fn store(&self, trial: &Trial, fingerprint: &str, seed: u64) {
        if trial.status == TrialStatus::Failed {
            return;
        }
        let outcome = CachedOutcome {
            config: trial.config.clone(),
            status: trial.status,
            metrics: trial.metrics.clone(),
            intermediate: trial.intermediate.clone(),
        };
        self.map().insert(Self::key(&trial.config, fingerprint, seed), outcome);
    }

    /// Warm the cache from a set of finished trials (e.g. a replayed
    /// journal from an earlier submission).
    pub fn absorb(&self, trials: &[Trial], fingerprint: &str, seed: u64) {
        for t in trials {
            self.store(t, fingerprint, seed);
        }
    }

    /// Number of cached outcomes.
    pub fn len(&self) -> usize {
        self.map().len()
    }

    /// True when nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.map().is_empty()
    }

    /// `(hits, misses)` since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits.load(Ordering::Relaxed), self.misses.load(Ordering::Relaxed))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::param::ParamValue;

    fn cfg(k: i64) -> Configuration {
        Configuration::new().with("k", ParamValue::Int(k))
    }

    fn complete(id: usize, k: i64) -> Trial {
        Trial::complete(id, cfg(k), MetricValues::new().with("loss", k as f64))
    }

    #[test]
    fn hit_requires_config_fingerprint_and_seed() {
        let cache = TrialCache::new();
        cache.store(&complete(0, 1), "v1", 7);
        assert!(cache.lookup(&cfg(1), "v1", 7).is_some());
        assert!(cache.lookup(&cfg(2), "v1", 7).is_none(), "different config");
        assert!(cache.lookup(&cfg(1), "v2", 7).is_none(), "different objective");
        assert!(cache.lookup(&cfg(1), "v1", 8).is_none(), "different seed");
        assert_eq!(cache.stats(), (1, 3));
    }

    #[test]
    fn failed_trials_are_never_cached() {
        let cache = TrialCache::new();
        let mut t = complete(0, 1);
        t.status = TrialStatus::Failed;
        cache.store(&t, "v1", 0);
        assert!(cache.is_empty());
    }

    #[test]
    fn adopted_trial_gets_the_new_id_and_reused_flag() {
        let cache = TrialCache::new();
        let mut t = complete(3, 1);
        t.intermediate = vec![(1, 0.5)];
        cache.store(&t, "v1", 0);
        let hit = cache.lookup(&cfg(1), "v1", 0).unwrap();
        let adopted = hit.to_trial(9);
        assert_eq!(adopted.id, 9);
        assert!(adopted.reused);
        assert_eq!(adopted.metrics, t.metrics);
        assert_eq!(adopted.intermediate, t.intermediate);
    }

    #[test]
    fn absorb_warms_from_a_trial_set() {
        let cache = TrialCache::new();
        cache.absorb(&[complete(0, 1), complete(1, 2)], "v1", 0);
        assert_eq!(cache.len(), 2);
    }
}
