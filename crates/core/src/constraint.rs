//! Feasibility constraints over trials — the §IV-C scenarios.
//!
//! "Power consumption is an important metric for constrained devices.
//! […] the use of the computing platform by several operational projects
//! at the same time \[makes\] the processing units a disputed resource. In
//! that case, our methodology allows to find solutions that best fit the
//! number of available resources at the moment."
//!
//! A [`ConstraintSet`] filters trials to the currently-feasible subset
//! (metric bounds like "≤ 150 kJ", parameter bounds like "≤ 4 cores")
//! before a ranking method runs, so the same study answers different
//! operational situations without re-running anything.

use crate::param::ParamValue;
use crate::trial::Trial;

/// One feasibility requirement.
#[derive(Debug, Clone, PartialEq)]
pub enum Constraint {
    /// `metric ≤ bound`.
    MetricAtMost {
        /// Metric name.
        metric: String,
        /// Upper bound.
        bound: f64,
    },
    /// `metric ≥ bound`.
    MetricAtLeast {
        /// Metric name.
        metric: String,
        /// Lower bound.
        bound: f64,
    },
    /// Integer/float parameter bounded above (e.g. "at most 4 cores free").
    ParamAtMost {
        /// Parameter name.
        param: String,
        /// Upper bound.
        bound: f64,
    },
    /// Parameter pinned to a value (e.g. "only single-node deployments").
    ParamEquals {
        /// Parameter name.
        param: String,
        /// Required value.
        value: ParamValue,
    },
}

impl Constraint {
    /// Whether `trial` satisfies this constraint. Trials missing the
    /// referenced metric/parameter are infeasible (fail-closed).
    pub fn satisfied_by(&self, trial: &Trial) -> bool {
        match self {
            Constraint::MetricAtMost { metric, bound } => {
                trial.metrics.get(metric).map(|v| v <= *bound).unwrap_or(false)
            }
            Constraint::MetricAtLeast { metric, bound } => {
                trial.metrics.get(metric).map(|v| v >= *bound).unwrap_or(false)
            }
            Constraint::ParamAtMost { param, bound } => {
                trial.config.float(param).map(|v| v <= *bound).unwrap_or(false)
            }
            Constraint::ParamEquals { param, value } => trial.config.get(param) == Some(value),
        }
    }
}

/// A conjunction of constraints.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ConstraintSet {
    constraints: Vec<Constraint>,
}

impl ConstraintSet {
    /// No constraints (everything feasible).
    pub fn new() -> Self {
        Self::default()
    }

    /// Add `metric ≤ bound`.
    pub fn metric_at_most(mut self, metric: impl Into<String>, bound: f64) -> Self {
        self.constraints.push(Constraint::MetricAtMost { metric: metric.into(), bound });
        self
    }

    /// Add `metric ≥ bound`.
    pub fn metric_at_least(mut self, metric: impl Into<String>, bound: f64) -> Self {
        self.constraints.push(Constraint::MetricAtLeast { metric: metric.into(), bound });
        self
    }

    /// Add `param ≤ bound` (numeric parameters).
    pub fn param_at_most(mut self, param: impl Into<String>, bound: f64) -> Self {
        self.constraints.push(Constraint::ParamAtMost { param: param.into(), bound });
        self
    }

    /// Pin a parameter to a value.
    pub fn param_equals(mut self, param: impl Into<String>, value: ParamValue) -> Self {
        self.constraints.push(Constraint::ParamEquals { param: param.into(), value });
        self
    }

    /// The individual constraints.
    pub fn constraints(&self) -> &[Constraint] {
        &self.constraints
    }

    /// Whether a trial is complete and satisfies every constraint.
    pub fn feasible(&self, trial: &Trial) -> bool {
        trial.is_complete() && self.constraints.iter().all(|c| c.satisfied_by(trial))
    }

    /// Indices of the feasible trials.
    pub fn filter_indices(&self, trials: &[Trial]) -> Vec<usize> {
        trials.iter().enumerate().filter(|(_, t)| self.feasible(t)).map(|(i, _)| i).collect()
    }

    /// The feasible trials, cloned (convenient input for the ranking
    /// methods, which operate on slices).
    pub fn filter(&self, trials: &[Trial]) -> Vec<Trial> {
        trials.iter().filter(|t| self.feasible(t)).cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricDef, MetricValues};
    use crate::rank::pareto::ParetoFront;
    use crate::trial::{Configuration, TrialStatus};

    fn t(id: usize, cores: i64, reward: f64, power: f64) -> Trial {
        Trial::complete(
            id,
            Configuration::new().with("cores", ParamValue::Int(cores)),
            MetricValues::new().with("reward", reward).with("power_kj", power),
        )
    }

    fn table() -> Vec<Trial> {
        vec![
            t(0, 4, -0.45, 154.0),
            t(1, 2, -0.47, 133.0),
            t(2, 4, -0.51, 120.0),
            t(3, 4, -0.65, 201.0),
        ]
    }

    #[test]
    fn power_budget_filters_trials() {
        // The §IV-C battery scenario: at most 140 kJ available.
        let cs = ConstraintSet::new().metric_at_most("power_kj", 140.0);
        assert_eq!(cs.filter_indices(&table()), vec![1, 2]);
    }

    #[test]
    fn contested_cores_scenario() {
        // Only 2 cores free right now.
        let cs = ConstraintSet::new().param_at_most("cores", 2.0);
        assert_eq!(cs.filter_indices(&table()), vec![1]);
    }

    #[test]
    fn constraints_conjoin() {
        let cs =
            ConstraintSet::new().metric_at_most("power_kj", 160.0).metric_at_least("reward", -0.5);
        assert_eq!(cs.filter_indices(&table()), vec![0, 1]);
    }

    #[test]
    fn param_equals_pins_deployments() {
        let cs = ConstraintSet::new().param_equals("cores", ParamValue::Int(4));
        assert_eq!(cs.filter_indices(&table()), vec![0, 2, 3]);
    }

    #[test]
    fn missing_fields_fail_closed() {
        let bare = Trial::complete(9, Configuration::new(), MetricValues::new());
        let cs = ConstraintSet::new().metric_at_most("power_kj", 1e9);
        assert!(!cs.feasible(&bare));
        let cs = ConstraintSet::new().param_at_most("cores", 100.0);
        assert!(!cs.feasible(&bare));
    }

    #[test]
    fn incomplete_trials_are_infeasible() {
        let mut bad = t(0, 4, 0.0, 0.0);
        bad.status = TrialStatus::Failed;
        assert!(!ConstraintSet::new().feasible(&bad));
    }

    #[test]
    fn constrained_pareto_front_changes_the_decision() {
        // Unconstrained reward/power front vs. a 140 kJ budget.
        let trials = table();
        let metrics = [MetricDef::maximize("reward"), MetricDef::minimize("power_kj")];
        let full = ParetoFront::compute(&trials, &metrics);
        assert!(full.contains(0), "best reward is on the unconstrained front");

        let feasible = ConstraintSet::new().metric_at_most("power_kj", 140.0).filter(&trials);
        let constrained = ParetoFront::compute(&feasible, &metrics);
        let ids: Vec<usize> = constrained.indices().iter().map(|&i| feasible[i].id).collect();
        assert!(!ids.contains(&0), "over-budget solution must drop out");
        assert!(ids.contains(&1));
    }

    #[test]
    fn empty_constraint_set_keeps_complete_trials() {
        assert_eq!(ConstraintSet::new().filter_indices(&table()).len(), 4);
    }
}
