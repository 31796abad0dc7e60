//! Weighted-sum scalarization with min–max normalization.
//!
//! A classic alternative ranking method: collapse the metrics into one
//! score `Σ w_m · normalized_m` and sort. Normalization maps every metric
//! onto `[0, 1]` with 1 = best, so weights are comparable across metrics
//! with different units (minutes vs kJ vs reward).

use crate::metrics::MetricDef;
use crate::trial::Trial;

use super::spec::{RankSpec, Ranker, Ranking};

/// Weighted-sum ranking: `RankSpec::weighted` under a name that returns
/// the order alone. Scores are `Σ w_m · normalized_m / Σ w_m`: 1 = ideal
/// on every metric, 0 = worst on every metric.
#[derive(Debug, Clone)]
pub struct WeightedSum {
    spec: RankSpec,
}

impl Default for WeightedSum {
    fn default() -> Self {
        Self { spec: RankSpec::weighted() }
    }
}

impl WeightedSum {
    /// Empty scalarization (add weights with [`WeightedSum::weight`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a metric with a weight (weights need not sum to 1).
    pub fn weight(self, metric: MetricDef, w: f64) -> Self {
        Self { spec: self.spec.weighted_metric(metric, w) }
    }

    /// Indices of rankable trials, best score first.
    pub fn rank(&self, trials: &[Trial]) -> Vec<usize> {
        self.spec.ranking(trials).order
    }
}

impl Ranker for WeightedSum {
    fn rank(&self, trials: &[Trial]) -> Ranking {
        self.spec.ranking(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValues;
    use crate::trial::Configuration;

    fn t(id: usize, reward: f64, time: f64) -> Trial {
        Trial::complete(
            id,
            Configuration::new(),
            MetricValues::new().with("reward", reward).with("time_min", time),
        )
    }

    fn scalarizer(wr: f64, wt: f64) -> WeightedSum {
        WeightedSum::new()
            .weight(MetricDef::maximize("reward"), wr)
            .weight(MetricDef::minimize("time_min"), wt)
    }

    #[test]
    fn ideal_point_scores_one() {
        let trials = vec![t(0, 1.0, 10.0), t(1, 0.0, 20.0)];
        let s = scalarizer(1.0, 1.0).spec.scores(&trials);
        assert!((s[0].unwrap() - 1.0).abs() < 1e-12, "best on both metrics");
        assert!((s[1].unwrap() - 0.0).abs() < 1e-12, "worst on both metrics");
    }

    #[test]
    fn weights_steer_the_winner() {
        // Trial 0: fast but weak; trial 1: slow but strong.
        let trials = vec![t(0, 0.0, 10.0), t(1, 1.0, 20.0)];
        assert_eq!(scalarizer(0.1, 0.9).rank(&trials)[0], 0, "time-heavy weights");
        assert_eq!(scalarizer(0.9, 0.1).rank(&trials)[0], 1, "reward-heavy weights");
    }

    #[test]
    fn constant_metric_normalizes_to_one() {
        let trials = vec![t(0, 0.5, 10.0), t(1, 0.5, 20.0)];
        let s = scalarizer(1.0, 1.0).spec.scores(&trials);
        // Reward is constant: both get 1.0 on it; time splits them.
        assert!(s[0].unwrap() > s[1].unwrap());
        assert!((s[0].unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unrankable_trials_get_none() {
        let partial =
            Trial::complete(0, Configuration::new(), MetricValues::new().with("reward", 0.5));
        let trials = vec![partial, t(1, 0.5, 10.0)];
        let s = scalarizer(1.0, 1.0).spec.scores(&trials);
        assert!(s[0].is_none());
        assert!(s[1].is_some());
        assert_eq!(scalarizer(1.0, 1.0).rank(&trials), vec![1]);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn negative_weights_rejected() {
        WeightedSum::new().weight(MetricDef::maximize("reward"), -1.0);
    }
}
