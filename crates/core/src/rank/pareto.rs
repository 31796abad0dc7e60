//! Pareto dominance and non-dominated fronts: the dominance test itself,
//! and the front-shaped views of the ranking engine in [`super::spec`].

use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::trial::Trial;

use super::spec::{front, layers, resolve};

/// `a` Pareto-dominates `b` under the given metrics: `a` is no worse on
/// every metric and strictly better on at least one. False when either
/// trial is not rankable under them.
pub fn dominates(a: &Trial, b: &Trial, metrics: &[MetricDef]) -> bool {
    let rows = resolve([a, b], metrics, &BootstrapSpec::default());
    matches!(rows.as_slice(), [Some(a), Some(b)] if dominates_values(a, b, metrics))
}

/// Value-level Pareto dominance: `a[i]`/`b[i]` are two trials' readings
/// of `metrics[i]`, already resolved through the defs' [`crate::metrics::Risk`]
/// specs. The comparison the front is built on; the layering tests the
/// same relation on readings it has oriented once.
pub(crate) fn dominates_values(a: &[f64], b: &[f64], metrics: &[MetricDef]) -> bool {
    debug_assert_eq!(a.len(), metrics.len());
    debug_assert_eq!(b.len(), metrics.len());
    let mut strictly_better = false;
    for (m, (&va, &vb)) in metrics.iter().zip(a.iter().zip(b)) {
        if !m.direction.no_worse(va, vb) {
            return false;
        }
        if m.direction.better(va, vb) {
            strictly_better = true;
        }
    }
    strictly_better
}

/// The set of non-dominated trials (the paper's decision analysis output:
/// "Pareto front […] presents the results as trade-offs between metrics",
/// §V-e).
#[derive(Debug, Clone, PartialEq)]
pub struct ParetoFront {
    indices: Vec<usize>,
}

impl ParetoFront {
    /// Compute the front over `trials` for the given metrics, each read
    /// through its def's risk spec. Incomplete trials and trials missing
    /// a metric are never on the front; with no metrics nothing dominates
    /// and every complete trial is on it.
    pub fn compute(trials: &[Trial], metrics: &[MetricDef]) -> Self {
        Self { indices: front(&resolve(trials, metrics, &BootstrapSpec::default()), metrics) }
    }

    /// Indices (into the input slice) of the non-dominated trials,
    /// ascending by construction ([`Self::contains`] bisects them).
    pub fn indices(&self) -> &[usize] {
        &self.indices
    }

    /// Whether trial `i` is on the front.
    pub fn contains(&self, i: usize) -> bool {
        self.indices.binary_search(&i).is_ok()
    }

    /// Number of non-dominated trials.
    pub fn len(&self) -> usize {
        self.indices.len()
    }

    /// True for an empty front (no eligible trials).
    pub fn is_empty(&self) -> bool {
        self.indices.is_empty()
    }
}

/// Partition trials into fronts `F1, F2, …` where `F1` is the Pareto
/// front, `F2` the front after removing `F1`, and so on: per-trial front
/// ranks (0-based), `None` for ineligible trials.
pub fn non_dominated_ranks(trials: &[Trial], metrics: &[MetricDef]) -> Vec<Option<usize>> {
    let mut rank = vec![None; trials.len()];
    let tiers = layers(&resolve(trials, metrics, &BootstrapSpec::default()), metrics);
    for (level, tier) in tiers.iter().enumerate() {
        for &i in tier {
            rank[i] = Some(level);
        }
    }
    rank
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

    fn metrics() -> Vec<MetricDef> {
        vec![MetricDef::maximize("reward"), MetricDef::minimize("time_min")]
    }

    #[test]
    fn dominance_definition() {
        let m = metrics();
        assert!(dominates(&t(0, -0.4, 50.0), &t(1, -0.5, 60.0), &m));
        assert!(!dominates(&t(0, -0.4, 70.0), &t(1, -0.5, 60.0), &m), "trade-off");
        assert!(!dominates(&t(0, -0.5, 60.0), &t(1, -0.5, 60.0), &m), "equal");
        // One-sided strict improvement still dominates.
        assert!(dominates(&t(0, -0.5, 50.0), &t(1, -0.5, 60.0), &m));
    }

    #[test]
    fn paper_fig4_shape() {
        // A miniature of Figure 4: solutions 2, 5, 11, 16 non-dominated.
        let trials = vec![
            t(0, -0.78, 72.0), // 1 dominated
            t(1, -0.65, 46.0), // 2 fastest: on front
            t(2, -0.55, 49.0), // 5 trade-off: on front
            t(3, -0.58, 49.5), // 11-ish: dominated by (2)? -0.55@49 dominates -0.58@49.5
            t(4, -0.45, 65.0), // 16 best reward: on front
            t(5, -0.52, 85.0), // 7 dominated by 16 (worse both)
        ];
        let front = ParetoFront::compute(&trials, &metrics());
        assert_eq!(front.indices(), &[1, 2, 4]);
        assert!(front.contains(4));
        assert!(!front.contains(0));
    }

    #[test]
    fn front_invariants_hold() {
        // Property: no front member is dominated; every non-member is
        // dominated by some member.
        let trials: Vec<Trial> = (0..40)
            .map(|i| {
                let x = (i as f64 * 0.7).sin();
                let y = (i as f64 * 1.3).cos();
                t(i, x, 50.0 + 20.0 * y)
            })
            .collect();
        let m = metrics();
        let front = ParetoFront::compute(&trials, &m);
        for &i in front.indices() {
            for (j, other) in trials.iter().enumerate() {
                if i != j {
                    assert!(!dominates(other, &trials[i], &m), "front member {i} dominated by {j}");
                }
            }
        }
        for (j, _) in trials.iter().enumerate() {
            if !front.contains(j) {
                assert!(
                    front.indices().iter().any(|&i| dominates(&trials[i], &trials[j], &m)),
                    "non-member {j} not dominated by the front"
                );
            }
        }
    }

    #[test]
    fn incomplete_trials_never_reach_the_front() {
        let mut bad = t(0, 100.0, 1.0);
        bad.status = TrialStatus::Failed;
        let trials = vec![bad, t(1, -0.5, 60.0)];
        let front = ParetoFront::compute(&trials, &metrics());
        assert_eq!(front.indices(), &[1]);
    }

    #[test]
    fn missing_metrics_exclude_a_trial() {
        let incomplete = Trial::complete(
            0,
            Configuration::new(),
            MetricValues::new().with("reward", 10.0), // no time_min
        );
        let trials = vec![incomplete, t(1, -0.5, 60.0)];
        let front = ParetoFront::compute(&trials, &metrics());
        assert_eq!(front.indices(), &[1]);
    }

    #[test]
    fn ranks_partition_into_layers() {
        let trials = vec![
            t(0, 1.0, 10.0), // front 0
            t(1, 0.5, 20.0), // dominated by 0 only -> front 1
            t(2, 0.2, 30.0), // dominated by 0 and 1 -> front 2
        ];
        let ranks = non_dominated_ranks(&trials, &metrics());
        assert_eq!(ranks, vec![Some(0), Some(1), Some(2)]);
    }

    #[test]
    fn ranks_match_front_zero() {
        let trials = vec![t(0, -0.65, 46.0), t(1, -0.45, 65.0), t(2, -0.78, 72.0)];
        let m = metrics();
        let ranks = non_dominated_ranks(&trials, &m);
        let front = ParetoFront::compute(&trials, &m);
        for (i, r) in ranks.iter().enumerate() {
            assert_eq!(*r == Some(0), front.contains(i));
        }
    }
}
