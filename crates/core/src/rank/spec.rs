//! The ranking engine: one resolver, one implementation of each method,
//! and the [`RankSpec`] builder / [`Ranker`] trait that select among them.
//!
//! Every ranking in the crate takes the same two steps. `resolve` turns
//! `trials × metric defs` into a table of numbers, each metric read
//! through the [`crate::metrics::Risk`] spec its [`MetricDef`] carries
//! (mean, CVaR, or a bootstrap CI bound); a trial that is incomplete or
//! lacks a finite scalar for some metric gets no row. Then one algorithm
//! per method runs over that table: the non-dominated front, the
//! non-dominated layers, the lexicographic sort and the min–max weighted
//! score below, and the sweep in [`super::hypervolume`]. The per-method
//! names (`ParetoFront`, `non_dominated_ranks`, `SortedRanking`,
//! `WeightedSum`, `Hypervolume`) are presets over it with their own return
//! shapes, so a def's risk spec means the same whichever name is called.
//!
//! ```
//! use decision::prelude::*;
//!
//! let trials = vec![
//!     Trial::complete(0, Configuration::new(),
//!         MetricValues::new().with("reward", -0.65).with("time_min", 46.0)),
//!     Trial::complete(1, Configuration::new(),
//!         MetricValues::new().with("reward", -0.45).with("time_min", 65.0)),
//! ];
//! let ranking = RankSpec::pareto()
//!     .metric(MetricDef::maximize("reward"))
//!     .metric(MetricDef::minimize("time_min"))
//!     .rank(&trials);
//! assert_eq!(ranking.front, vec![0, 1], "trade-off: both non-dominated");
//! ```

use std::cmp::Ordering;

use crate::distribution::{intervals, Bootstrap, BootstrapSpec, Ci, Distribution};
use crate::metrics::{Direction, MetricDef};
use crate::trial::Trial;

use super::pareto::dominates_values;

/// Row `i` is trial `i`'s reading of each metric def, `None` when the
/// trial cannot be ranked. The only thing a ranking algorithm sees.
pub(super) type Resolved = Vec<Option<Vec<f64>>>;

/// Read every trial through the defs' risk specs. A trial is eligible
/// when it is complete and has a finite scalar for every def. Each
/// column has one resampler, so a `LowerCi` column draws its resample
/// plan once and not once a row.
pub(super) fn resolve<'a>(
    trials: impl IntoIterator<Item = &'a Trial>,
    defs: &[MetricDef],
    bootstrap: &BootstrapSpec,
) -> Resolved {
    let mut boots: Vec<Bootstrap> = defs.iter().map(|d| d.risk.bootstrap(bootstrap)).collect();
    trials
        .into_iter()
        .map(|t| {
            if !(t.is_complete() && t.metrics.covers(defs)) {
                return None;
            }
            defs.iter()
                .zip(&mut boots)
                .map(|(d, boot)| {
                    let sample = t.metrics.sample(&d.name);
                    sample.map(|s| s.risk_value_with(d.direction, d.risk, boot))
                })
                .collect()
        })
        .collect()
}

/// The eligible rows with their trial indices, ascending.
fn eligible(rows: &Resolved) -> Vec<(usize, &[f64])> {
    rows.iter().enumerate().filter_map(|(i, r)| Some((i, r.as_deref()?))).collect()
}

/// Indices of the rows no other row dominates, ascending.
pub(super) fn front(rows: &Resolved, defs: &[MetricDef]) -> Vec<usize> {
    let live = eligible(rows);
    live.iter()
        .filter(|(_, a)| !live.iter().any(|(_, b)| dominates_values(b, a, defs)))
        .map(|&(i, _)| i)
        .collect()
}

/// Non-dominated sorting: layer 0 is the front, layer 1 the front once
/// layer 0 is removed, and so on; each layer ascending.
///
/// The rows are sorted lexicographically best first, so that a row can
/// only be dominated by rows before it, and each goes into the first
/// layer none of whose members dominates it. Every member of layer `k+1`
/// is dominated by a member of layer `k` and dominance is transitive, so
/// "some member of layer `k` dominates this row" holds for a prefix of
/// the layers and the first layer where it fails is found by bisection.
pub(super) fn layers(rows: &Resolved, defs: &[MetricDef]) -> Vec<Vec<usize>> {
    // Row `i`'s readings at `i·m..`, turned so that bigger is better.
    // `+ 0.0` turns the −0.0 a minimised 0.0 orients to back into 0.0:
    // the two compare equal under dominance and must sort as equal.
    let m = defs.len();
    let mut oriented = vec![0.0; rows.len() * m];
    let mut order = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let Some(row) = row else { continue };
        for ((slot, def), &v) in oriented[i * m..].iter_mut().zip(defs).zip(row) {
            *slot = def.direction.orient(v) + 0.0;
        }
        order.push(i);
    }
    let at = |i: usize| &oriented[i * m..(i + 1) * m];
    let best_first = |&a: &usize, &b: &usize| {
        let mut by_reading = at(b).iter().zip(at(a)).map(|(y, x)| y.total_cmp(x));
        by_reading.find(|ord| ord.is_ne()).unwrap_or(a.cmp(&b))
    };
    order.sort_unstable_by(best_first);

    let dominates = |a: &[f64], b: &[f64]| {
        a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
    };
    let mut tiers: Vec<Vec<usize>> = Vec::new();
    for i in order {
        let k = tiers.partition_point(|tier| tier.iter().any(|&j| dominates(at(j), at(i))));
        match tiers.get_mut(k) {
            Some(tier) => tier.push(i),
            None => tiers.push(vec![i]),
        }
    }
    tiers.iter_mut().for_each(|tier| tier.sort_unstable());
    tiers
}

/// Eligible indices best first by the first def, later defs breaking
/// ties lexicographically, the index breaking what is left.
fn lexicographic(rows: &Resolved, defs: &[MetricDef]) -> Vec<usize> {
    let mut live = eligible(rows);
    live.sort_by(|&(a, ra), &(b, rb)| {
        for (def, (&va, &vb)) in defs.iter().zip(ra.iter().zip(rb)) {
            match def.direction.orient(vb).partial_cmp(&def.direction.orient(va)) {
                Some(Ordering::Equal) | None => continue,
                Some(ord) => return ord,
            }
        }
        a.cmp(&b)
    });
    live.into_iter().map(|(i, _)| i).collect()
}

/// Weighted sum of the min–max normalised readings: every metric maps
/// onto `[0, 1]` with 1 = best over the eligible rows (a constant metric
/// reads 1), the score is `Σ w·norm / Σ w`. `None` for ineligible rows,
/// and for every row when the weights sum to zero.
fn weighted_scores(rows: &Resolved, defs: &[MetricDef], weights: &[f64]) -> Vec<Option<f64>> {
    let mut ranges = vec![(f64::INFINITY, f64::NEG_INFINITY); defs.len()];
    for vals in rows.iter().flatten() {
        for (range, &v) in ranges.iter_mut().zip(vals) {
            *range = (range.0.min(v), range.1.max(v));
        }
    }
    let wsum: f64 = weights.iter().sum();
    rows.iter()
        .map(|row| {
            let vals = row.as_ref().filter(|_| wsum != 0.0)?;
            let mut score = 0.0;
            for (((def, w), &(lo, hi)), &v) in defs.iter().zip(weights).zip(&ranges).zip(vals) {
                let span = (hi - lo).abs();
                let norm = if span < 1e-12 {
                    1.0
                } else {
                    match def.direction {
                        Direction::Maximize => (v - lo) / span,
                        Direction::Minimize => (hi - v) / span,
                    }
                };
                score += w * norm;
            }
            Some(score / wsum)
        })
        .collect()
}

/// Indices that have a score, highest first, ties by index.
fn best_score_first(scores: &[Option<f64>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..scores.len()).filter(|&i| scores[i].is_some()).collect();
    order.sort_by(|&a, &b| {
        scores[b].partial_cmp(&scores[a]).unwrap_or(Ordering::Equal).then(a.cmp(&b))
    });
    order
}

/// Anything that can rank a slice of trials. Implemented by
/// [`RankSpec`] and the sorted / weighted presets.
pub trait Ranker {
    /// Rank the trials; indices in the result refer into `trials`.
    fn rank(&self, trials: &[Trial]) -> Ranking;
}

/// The uniform result shape of every ranking method.
#[derive(Debug, Clone, PartialEq)]
pub struct Ranking {
    /// Rankable trial indices, best first.
    pub order: Vec<usize>,
    /// `order` partitioned into tiers of trials the method refuses to
    /// rank apart: Pareto layers for front methods, CI-overlap groups
    /// for the gated sorted ranking, singletons otherwise. Tiers are
    /// best-first and concatenate to `order`.
    pub tiers: Vec<Vec<usize>>,
    /// The best tier's members in ascending index order — the Pareto
    /// front for dominance methods, the statistically-best group for a
    /// CI-gated sort.
    pub front: Vec<usize>,
}

/// Which method a [`RankSpec`] dispatches to.
#[derive(Debug, Clone, PartialEq)]
enum Method {
    Pareto,
    Sorted,
    Weighted,
}

/// Builder selecting a ranking method, the metrics it reads (each def
/// carrying its own [`crate::metrics::Risk`] spec), and the bootstrap
/// parameters behind CI-based readings.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSpec {
    method: Method,
    defs: Vec<MetricDef>,
    weights: Vec<f64>,
    bootstrap: BootstrapSpec,
    ci_gate: Option<f64>,
}

impl RankSpec {
    fn new(method: Method) -> Self {
        Self {
            method,
            defs: Vec::new(),
            weights: Vec::new(),
            bootstrap: BootstrapSpec::default(),
            ci_gate: None,
        }
    }

    /// Pareto-front ranking: tiers are non-dominated layers (NSGA-II
    /// style), `front` is layer zero.
    pub fn pareto() -> Self {
        Self::new(Method::Pareto)
    }

    /// Sorted-array ranking by the first metric, later metrics breaking
    /// ties lexicographically.
    pub fn sorted() -> Self {
        Self::new(Method::Sorted)
    }

    /// Weighted-sum scalarization (weights from `Self::weighted_metric`,
    /// default 1.0).
    pub(crate) fn weighted() -> Self {
        Self::new(Method::Weighted)
    }

    /// Add a metric (risk spec rides on the def via
    /// [`MetricDef::with_risk`]; weight 1.0 for the weighted method).
    pub fn metric(self, def: MetricDef) -> Self {
        self.weighted_metric(def, 1.0)
    }

    /// Add a metric with an explicit weighted-sum weight (weights need
    /// not sum to 1; a negative or non-finite one panics).
    pub(crate) fn weighted_metric(mut self, def: MetricDef, weight: f64) -> Self {
        assert!(weight >= 0.0 && weight.is_finite(), "weights must be non-negative");
        self.defs.push(def);
        self.weights.push(weight);
        self
    }

    /// Bootstrap parameters used by `Risk::LowerCi` readings and CI
    /// gating.
    pub fn bootstrap(mut self, spec: BootstrapSpec) -> Self {
        self.bootstrap = spec;
        self
    }

    /// Gate the sorted ranking on CI overlap at the given confidence
    /// level: consecutive trials whose bootstrap CIs (on the primary
    /// metric) overlap are placed in one tier — the ranking refuses to
    /// call them different. Only the sorted method consults this.
    pub fn ci_gate(mut self, level: f64) -> Self {
        self.ci_gate = Some(level);
        self
    }

    /// Weighted-sum score of each trial under this spec's metrics and
    /// weights (`None` for unrankable trials): what the tests hold
    /// against the brute-force oracle.
    #[cfg(test)]
    pub(super) fn scores(&self, trials: &[Trial]) -> Vec<Option<f64>> {
        weighted_scores(&resolve(trials, &self.defs, &self.bootstrap), &self.defs, &self.weights)
    }

    /// [`Ranker::rank`] without its non-empty-metrics check: what the
    /// presets call, for which an empty metric list is a valid input.
    pub(super) fn ranking(&self, trials: &[Trial]) -> Ranking {
        let rows = resolve(trials, &self.defs, &self.bootstrap);
        let singletons = |order: Vec<usize>| order.into_iter().map(|i| vec![i]).collect();
        let tiers: Vec<Vec<usize>> = match self.method {
            Method::Pareto => layers(&rows, &self.defs),
            Method::Sorted => {
                let order = lexicographic(&rows, &self.defs);
                match self.ci_gate {
                    None => singletons(order),
                    Some(level) => self.ci_tiers(trials, &order, level),
                }
            }
            Method::Weighted => {
                singletons(best_score_first(&weighted_scores(&rows, &self.defs, &self.weights)))
            }
        };
        let order = tiers.iter().flatten().copied().collect();
        let mut front = tiers.first().cloned().unwrap_or_default();
        front.sort_unstable();
        Ranking { order, tiers, front }
    }

    /// Group consecutive trials of `order` whose CIs on the primary
    /// metric overlap the group head's CI: within a tier the evidence
    /// cannot tell the trials apart. The intervals are computed first,
    /// across cores; a trial without samples has the point interval of
    /// its scalar.
    fn ci_tiers(&self, trials: &[Trial], order: &[usize], level: f64) -> Vec<Vec<usize>> {
        let primary = &self.defs[0];
        let samples: Vec<_> = order
            .iter()
            .map(|&i| {
                let s = trials[i].metrics.sample(&primary.name);
                let s = s.expect("a ranked trial has every metric");
                (s.value, s.distribution.filter(|d| !d.is_empty()))
            })
            .collect();
        let dists: Vec<&Distribution> = samples.iter().filter_map(|&(_, d)| d).collect();
        let mut cis = intervals(&dists, &BootstrapSpec { level, ..self.bootstrap }).into_iter();
        let mut tiers: Vec<Vec<usize>> = Vec::new();
        let mut head_ci: Option<Ci> = None;
        for (&i, &(value, dist)) in order.iter().zip(&samples) {
            let ci = match dist {
                Some(_) => cis.next().expect("an interval per distribution"),
                None => Ci::point(value, level),
            };
            match (tiers.last_mut(), &head_ci) {
                (Some(tier), Some(head)) if head.overlaps(&ci) => tier.push(i),
                _ => {
                    tiers.push(vec![i]);
                    head_ci = Some(ci);
                }
            }
        }
        tiers
    }
}

impl Ranker for RankSpec {
    fn rank(&self, trials: &[Trial]) -> Ranking {
        assert!(!self.defs.is_empty(), "RankSpec needs at least one metric");
        self.ranking(trials)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::metrics::{MetricDef, MetricValues, Risk};
    use crate::rank::pareto::{dominates, non_dominated_ranks, ParetoFront};
    use crate::rank::{SortedRanking, WeightedSum};
    use crate::trial::{Configuration, Trial, TrialStatus};

    fn t(id: usize, reward: f64, time: f64) -> Trial {
        Trial::complete(
            id,
            Configuration::new(),
            MetricValues::new().with("reward", reward).with("time_min", time),
        )
    }

    /// A trial whose reward scalar is the mean of an explicit sample set.
    fn t_dist(id: usize, samples: Vec<f64>, time: f64) -> Trial {
        let d = Distribution::from_samples(samples);
        let mut v = MetricValues::new().with("reward", d.mean()).with("time_min", time);
        v.set_distribution("reward", d);
        Trial::complete(id, Configuration::new(), v)
    }

    fn defs() -> (MetricDef, MetricDef) {
        (MetricDef::maximize("reward"), MetricDef::minimize("time_min"))
    }

    /// The outputs of the last commit at which the presets and `RankSpec`
    /// were separate implementations, on that commit's parity fixtures.
    #[test]
    fn mean_rankings_are_pinned() {
        let (r, m) = defs();
        let trials = vec![
            t(0, -0.78, 72.0),
            t(1, -0.65, 46.0),
            t(2, -0.55, 49.0),
            t(3, -0.58, 49.5),
            t(4, -0.45, 65.0),
            t(5, -0.52, 85.0),
        ];
        assert_eq!(ParetoFront::compute(&trials, &[r.clone(), m.clone()]).indices(), &[1, 2, 4]);
        let spec = RankSpec::pareto().metric(r.clone()).metric(m.clone());
        let tiers = vec![vec![1, 2, 4], vec![3, 5], vec![0]];
        let pinned = Ranking { order: vec![1, 2, 4, 3, 5, 0], front: vec![1, 2, 4], tiers };
        assert_eq!(spec.rank(&trials), pinned);

        let trials = vec![t(0, -0.65, 46.0), t(1, -0.45, 65.0), t(2, -0.78, 72.0)];
        let tiers = vec![vec![1], vec![0], vec![2]];
        let pinned = Ranking { order: vec![1, 0, 2], front: vec![1], tiers };
        assert_eq!(RankSpec::sorted().metric(r.clone()).metric(m.clone()).rank(&trials), pinned);

        let trials = vec![t(0, 0.0, 10.0), t(1, 1.0, 20.0), t(2, 0.4, 12.0)];
        let preset = WeightedSum::new().weight(r.clone(), 0.3).weight(m.clone(), 0.7);
        assert_eq!(preset.rank(&trials), vec![0, 2, 1]);
        let spec = RankSpec::weighted().weighted_metric(r, 0.3).weighted_metric(m, 0.7);
        let bits: Vec<u64> = spec.scores(&trials).iter().map(|s| s.unwrap().to_bits()).collect();
        assert_eq!(bits, vec![0x3FE6666666666666, 0x3FD3333333333333, 0x3FE5C28F5C28F5C2]);
        assert_eq!(spec.rank(&trials).order, vec![0, 2, 1]);
    }

    #[test]
    fn every_entry_point_honours_the_risk_on_a_def() {
        // The gambler (trial 0) wins on mean reward, the steady trial 1 on
        // the lower tail; equal time.
        let trials = vec![
            t_dist(0, vec![-20.0, 9.0, 10.0, 11.0, 40.0], 50.0),
            t_dist(1, vec![8.0, 9.0, 9.0, 9.0, 9.0], 50.0),
        ];
        let (mean, time) = defs();
        let cvar = mean.clone().with_risk(Risk::Cvar(0.2));
        // (front, layers, best, weighted order) as the presets see a reward def.
        let read = |reward: &MetricDef| {
            let both = [reward.clone(), time.clone()];
            let weighted = WeightedSum::new().weight(reward.clone(), 1.0).weight(time.clone(), 1.0);
            (
                ParetoFront::compute(&trials, &both).indices().to_vec(),
                non_dominated_ranks(&trials, &both),
                SortedRanking::by(reward.clone()).best(&trials),
                weighted.rank(&trials),
            )
        };
        assert_eq!(read(&mean), (vec![0], vec![Some(0), Some(1)], Some(0), vec![0, 1]));
        let by_cvar = (vec![1], vec![Some(1), Some(0)], Some(1), vec![1, 0]);
        assert_eq!(read(&cvar), by_cvar, "the presets read the def's risk spec");
        assert!(dominates(&trials[1], &trials[0], &[cvar.clone(), time.clone()]));
        assert!(dominates(&trials[0], &trials[1], &[mean, time.clone()]));

        // And they say what `RankSpec` says on the same def.
        let spec = |method: RankSpec| method.metric(cvar.clone()).metric(time.clone());
        let pareto = spec(RankSpec::pareto()).rank(&trials);
        assert_eq!((pareto.front, pareto.tiers), (by_cvar.0, vec![vec![1], vec![0]]));
        assert_eq!(spec(RankSpec::sorted()).rank(&trials).order.first().copied(), by_cvar.2);
        assert_eq!(spec(RankSpec::weighted()).rank(&trials).order, by_cvar.3);
    }

    #[test]
    fn bad_weights_are_rejected_by_the_engine() {
        for w in [-1.0, f64::NAN, f64::INFINITY] {
            let add = || RankSpec::weighted().weighted_metric(MetricDef::maximize("reward"), w);
            assert!(std::panic::catch_unwind(add).is_err(), "weight {w}");
        }
    }

    #[test]
    fn zero_weight_sum_ranks_nothing() {
        let trials = vec![t(0, 0.0, 10.0), t(1, 1.0, 20.0)];
        let (r, m) = defs();
        // No weights at all is the same zero sum, and no panic.
        let zero = || RankSpec::weighted().weighted_metric(r.clone(), 0.0);
        for (preset, spec) in [
            (WeightedSum::new(), RankSpec::weighted()),
            (WeightedSum::new().weight(r.clone(), 0.0), zero()),
        ] {
            assert_eq!(spec.scores(&trials), vec![None, None]);
            assert!(preset.rank(&trials).is_empty());
        }
        let spec = RankSpec::weighted().weighted_metric(r, 0.0).weighted_metric(m, 0.0);
        assert_eq!(spec.rank(&trials), Ranking { order: vec![], tiers: vec![], front: vec![] });
    }

    #[test]
    fn no_metrics_puts_every_complete_trial_on_the_front() {
        let mut failed = t(1, 9.0, 1.0);
        failed.status = TrialStatus::Failed;
        let trials = vec![t(0, -0.65, 46.0), failed, t(2, -0.78, 72.0)];
        assert_eq!(ParetoFront::compute(&trials, &[]).indices(), &[0, 2]);
        assert_eq!(non_dominated_ranks(&trials, &[]), vec![Some(0), None, Some(0)]);
    }

    #[test]
    #[should_panic(expected = "at least one metric")]
    fn rank_spec_itself_still_needs_a_metric() {
        RankSpec::pareto().rank(&[t(0, -0.65, 46.0)]);
    }

    #[test]
    fn cvar_front_differs_from_mean_front() {
        // Same story the bench fixture tells: trial 0 wins on mean but
        // its lower tail is catastrophic; trial 1 is steady. Same time.
        let trials = vec![
            t_dist(0, vec![-20.0, 9.0, 10.0, 11.0, 40.0], 50.0),
            t_dist(1, vec![8.0, 9.0, 9.0, 9.0, 9.0], 50.0),
        ];
        let (r, m) = defs();
        let mean_front = RankSpec::pareto().metric(r.clone()).metric(m.clone()).rank(&trials);
        assert_eq!(mean_front.front, vec![0], "mean 10 beats mean 8.8 at equal time");
        let cvar = RankSpec::pareto().metric(r.with_risk(Risk::Cvar(0.2))).metric(m);
        assert_eq!(cvar.rank(&trials).front, vec![1], "CVaR(0.2): -20 loses to 8");
    }

    #[test]
    fn pareto_tiers_are_nested_fronts() {
        let trials = vec![t(0, 1.0, 10.0), t(1, 0.5, 20.0), t(2, 0.2, 30.0)];
        let (r, m) = defs();
        let ranking = RankSpec::pareto().metric(r).metric(m).rank(&trials);
        assert_eq!(ranking.tiers, vec![vec![0], vec![1], vec![2]]);
        assert_eq!(ranking.order, vec![0, 1, 2]);
    }

    #[test]
    fn ci_gate_refuses_to_split_overlapping_trials() {
        // Two trials drawn from overlapping samples, one clearly worse.
        let a: Vec<f64> = (0..40).map(|i| 10.0 + (i % 7) as f64 * 0.1).collect();
        let b: Vec<f64> = (0..40).map(|i| 10.02 + (i % 7) as f64 * 0.1).collect();
        let c: Vec<f64> = (0..40).map(|i| 2.0 + (i % 7) as f64 * 0.1).collect();
        let trials = vec![t_dist(0, a, 50.0), t_dist(1, b, 50.0), t_dist(2, c, 50.0)];
        let (r, _) = defs();
        let ranking = RankSpec::sorted().metric(r).ci_gate(0.95).rank(&trials);
        assert_eq!(ranking.order, vec![1, 0, 2]);
        assert_eq!(
            ranking.tiers,
            vec![vec![1, 0], vec![2]],
            "0 and 1 share a tier; 2 stands alone"
        );
        assert_eq!(ranking.front, vec![0, 1]);
    }

    #[test]
    fn ci_gate_tiers_equal_a_serial_walk_over_the_oracle_intervals() {
        use crate::distribution::tests::oracle_ci;
        let mut g = testkit::Gen::new(0x7_1E25);
        // Means a little apart against a unit spread: tiers of many sizes.
        // Every fifth trial has no reward samples and every seventh has one.
        let trials: Vec<Trial> = (0..400)
            .map(|id| match id % 35 {
                0 | 5 | 10 | 15 | 20 | 25 | 30 => t(id, 0.01 * id as f64, 1.0),
                7 | 14 | 21 | 28 => t_dist(id, vec![0.01 * id as f64], 1.0),
                _ => {
                    let n = *g.pick(&[8, 40, 64]);
                    let centre = 0.01 * id as f64;
                    t_dist(id, g.f64s(n, centre - 1.0..centre + 1.0), 1.0)
                }
            })
            .collect();
        let (r, _) = defs();
        let spec = BootstrapSpec { level: 0.5, resamples: 120, seed: 0xB00 };
        let gated = RankSpec::sorted().metric(r.clone()).bootstrap(spec).ci_gate(0.8);
        let ranking = gated.rank(&trials);

        let order = RankSpec::sorted().metric(r).rank(&trials).order;
        let spec = BootstrapSpec { level: 0.8, ..spec };
        let mut tiers: Vec<Vec<usize>> = Vec::new();
        let mut head: Option<Ci> = None;
        for i in order {
            let s = trials[i].metrics.sample("reward").unwrap();
            let ci = match s.distribution {
                Some(d) => oracle_ci(d, &spec),
                None => Ci::point(s.value, spec.level),
            };
            match (tiers.last_mut(), head) {
                (Some(tier), Some(h)) if h.overlaps(&ci) => tier.push(i),
                _ => {
                    tiers.push(vec![i]);
                    head = Some(ci);
                }
            }
        }
        assert!(tiers.len() > 10 && tiers.iter().any(|t| t.len() > 3), "{tiers:?}");
        assert_eq!(ranking.tiers, tiers);
    }

    #[test]
    fn legacy_rankers_implement_the_trait() {
        let trials = vec![t(0, -0.65, 46.0), t(1, -0.45, 65.0)];
        let (r, m) = defs();
        let a: &dyn Ranker = &SortedRanking::by(r.clone());
        assert_eq!(a.rank(&trials).order, vec![1, 0]);
        let b: &dyn Ranker = &WeightedSum::new().weight(r, 1.0).weight(m, 1.0);
        assert!(!b.rank(&trials).order.is_empty());
    }
}
