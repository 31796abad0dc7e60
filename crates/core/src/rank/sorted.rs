//! Sorted-array ranking — the paper's textual alternative to Pareto
//! fronts (§III-B e).

use crate::metrics::MetricDef;
use crate::trial::Trial;

use super::spec::{RankSpec, Ranker, Ranking};

/// Ranks trials by one metric: [`RankSpec::sorted`] under a name that
/// returns the bare order.
#[derive(Debug, Clone)]
pub struct SortedRanking {
    spec: RankSpec,
}

impl SortedRanking {
    /// Rank by a single metric.
    pub fn by(metric: MetricDef) -> Self {
        Self { spec: RankSpec::sorted().metric(metric) }
    }

    /// Indices of complete trials, best first. Trials missing any key
    /// metric are excluded.
    pub fn rank(&self, trials: &[Trial]) -> Vec<usize> {
        self.spec.ranking(trials).order
    }

    /// Best trial index, if any trial is rankable.
    pub fn best(&self, trials: &[Trial]) -> Option<usize> {
        self.rank(trials).first().copied()
    }
}

impl Ranker for SortedRanking {
    fn rank(&self, trials: &[Trial]) -> Ranking {
        self.spec.ranking(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricDef, MetricValues};
    use crate::trial::{Configuration, Trial, TrialStatus};

    fn t(id: usize, reward: f64, time: f64) -> Trial {
        Trial::complete(
            id,
            Configuration::new(),
            MetricValues::new().with("reward", reward).with("time_min", time),
        )
    }

    #[test]
    fn ranks_by_maximized_metric() {
        let trials = vec![t(0, -0.65, 46.0), t(1, -0.45, 65.0), t(2, -0.78, 72.0)];
        let r = SortedRanking::by(MetricDef::maximize("reward")).rank(&trials);
        assert_eq!(r, vec![1, 0, 2]);
    }

    #[test]
    fn ranks_by_minimized_metric() {
        let trials = vec![t(0, -0.65, 46.0), t(1, -0.45, 65.0), t(2, -0.78, 72.0)];
        let r = SortedRanking::by(MetricDef::minimize("time_min")).rank(&trials);
        assert_eq!(r, vec![0, 1, 2]);
        assert_eq!(SortedRanking::by(MetricDef::minimize("time_min")).best(&trials), Some(0));
    }

    #[test]
    fn tie_break_applies_second_key() {
        let trials = vec![t(0, -0.5, 60.0), t(1, -0.5, 50.0), t(2, -0.4, 70.0)];
        let spec = RankSpec::sorted().metric(MetricDef::maximize("reward"));
        let r = spec.metric(MetricDef::minimize("time_min")).rank(&trials);
        assert_eq!(r.order, vec![2, 1, 0]);
    }

    #[test]
    fn incomplete_trials_are_excluded() {
        let mut bad = t(0, 100.0, 1.0);
        bad.status = TrialStatus::Pruned;
        let trials = vec![bad, t(1, -0.5, 60.0)];
        let r = SortedRanking::by(MetricDef::maximize("reward")).rank(&trials);
        assert_eq!(r, vec![1]);
    }

    #[test]
    fn empty_input_gives_empty_ranking() {
        let r = SortedRanking::by(MetricDef::maximize("reward"));
        assert!(r.rank(&[]).is_empty());
        assert_eq!(r.best(&[]), None);
    }
}
