//! Trial pruning — the Optuna-style extension discussed in §III-C
//! ("pruning algorithms which automatically stop unpromising trials").

use std::collections::BTreeMap;
use std::sync::{Mutex, PoisonError};

/// Decides whether a running trial should stop early based on its
/// intermediate objective reports.
pub trait Pruner: Send + Sync {
    /// Record `value` at `step` for `trial` and decide.
    ///
    /// Larger values must be better (the study orients them before
    /// reporting).
    fn should_prune(&self, trial: usize, step: u64, value: f64) -> bool;

    /// Name for reports.
    fn name(&self) -> &'static str;
}

/// Never prunes.
pub(crate) struct NopPruner;

impl Pruner for NopPruner {
    fn should_prune(&self, _trial: usize, _step: u64, _value: f64) -> bool {
        false
    }
    fn name(&self) -> &'static str {
        "none"
    }
}

/// Optuna's `MedianPruner`: stop a trial whose intermediate value is
/// below the median of the values other trials reported at the same step.
/// As there, a NaN report (a diverged trial) prunes the trial that made it
/// once the protections below have passed, and counts for nothing in any
/// other trial's median or startup quota.
pub struct MedianPruner {
    /// Trials that may not be pruned (warmup), counted per distinct trial.
    pub(crate) n_startup_trials: usize,
    /// Steps within a trial before pruning may trigger.
    pub(crate) n_warmup_steps: u64,
    // step -> per-trial latest value at that step
    history: Mutex<BTreeMap<u64, BTreeMap<usize, f64>>>,
}

impl MedianPruner {
    /// Standard configuration: 4 startup trials, no warmup steps.
    pub fn new() -> Self {
        Self { n_startup_trials: 4, n_warmup_steps: 0, history: Mutex::new(BTreeMap::new()) }
    }

    /// Override the number of protected startup trials.
    pub fn with_startup(n_startup_trials: usize) -> Self {
        Self { n_startup_trials, ..Self::new() }
    }
}

impl Default for MedianPruner {
    fn default() -> Self {
        Self::new()
    }
}

impl Pruner for MedianPruner {
    fn should_prune(&self, trial: usize, step: u64, value: f64) -> bool {
        let mut h = self.history.lock().unwrap_or_else(PoisonError::into_inner);
        let at_step = h.entry(step).or_default();
        let mut sorted: Vec<f64> =
            at_step.iter().filter(|(t, _)| **t != trial).map(|(_, v)| *v).collect();
        if !value.is_nan() {
            at_step.insert(trial, value);
        }

        if step < self.n_warmup_steps || sorted.len() < self.n_startup_trials {
            return false;
        }
        if value.is_nan() {
            return true;
        }
        sorted.sort_by(f64::total_cmp);
        let median = if sorted.len() % 2 == 1 {
            sorted[sorted.len() / 2]
        } else {
            0.5 * (sorted[sorted.len() / 2 - 1] + sorted[sorted.len() / 2])
        };
        value < median
    }

    fn name(&self) -> &'static str {
        "median"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nop_never_prunes() {
        let p = NopPruner;
        assert!(!p.should_prune(0, 0, f64::NEG_INFINITY));
        assert_eq!(p.name(), "none");
    }

    #[test]
    fn median_needs_startup_trials() {
        let p = MedianPruner::new();
        // Fewer than 4 other trials at the step: never prune.
        assert!(!p.should_prune(0, 1, -100.0));
        assert!(!p.should_prune(1, 1, 0.0));
        assert!(!p.should_prune(2, 1, -100.0));
    }

    #[test]
    fn median_prunes_below_median() {
        let p = MedianPruner::new();
        for (t, v) in [(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)] {
            assert!(!p.should_prune(t, 1, v));
        }
        // Median of {10, 20, 30, 40} is 25.
        assert!(p.should_prune(4, 1, 5.0), "5 < median 25 must prune");
        assert!(!p.should_prune(5, 1, 35.0), "35 > median must survive");
    }

    #[test]
    fn a_nan_report_prunes_its_trial_and_touches_no_other_verdict() {
        // 30 trials report at one step and trial 17 has diverged. Wherever
        // its report lands among the others', the 30 verdicts are the same
        // (and sorting 29 values with a NaN among them does not panic).
        let verdicts = |nan_lands_at: usize| {
            let p = MedianPruner::new();
            let mut order: Vec<usize> = (0..30).filter(|&t| t != 17).collect();
            order.insert(nan_lands_at, 17);
            let mut pruned = [false; 30];
            for t in order {
                let value = if t == 17 { f64::NAN } else { (t * 7 % 30) as f64 };
                pruned[t] = p.should_prune(t, 1, value);
            }
            pruned
        };
        let early = verdicts(4);
        assert!(early[17], "the diverged trial is pruned");
        assert!((5..25).contains(&early.iter().filter(|&&v| v).count()), "{early:?}");
        assert_eq!(verdicts(15), early);
        assert_eq!(verdicts(29), early);
        // The startup quota protects every trial, a diverged one included.
        assert!(!verdicts(0)[17]);
    }

    #[test]
    fn median_warmup_steps_protect_early_reports() {
        let mut p = MedianPruner::new();
        p.n_warmup_steps = 10;
        for (t, v) in [(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)] {
            assert!(!p.should_prune(t, 5, v));
        }
        assert!(!p.should_prune(4, 5, -100.0), "step 5 < warmup 10");
        // Populate step 10 and check pruning applies there.
        for (t, v) in [(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)] {
            assert!(!p.should_prune(t, 10, v));
        }
        assert!(p.should_prune(4, 10, -100.0));
    }

    #[test]
    fn steps_are_compared_independently() {
        let p = MedianPruner::new();
        for (t, v) in [(0, 10.0), (1, 20.0), (2, 30.0), (3, 40.0)] {
            assert!(!p.should_prune(t, 1, v));
        }
        // A different step has no history: no pruning.
        assert!(!p.should_prune(9, 2, -100.0));
    }
}
