//! Exploratory methods: the methodology's stage (c).
//!
//! "If the search space is continuous or it is a large set […] a better
//! strategy than trying all the possibilities is to partially explore the
//! search space" (§III-B). The paper's study uses Random Search; Grid
//! Search and a TPE-like sampler (the Optuna/Hyperopt approach discussed
//! in §III-C) are provided as alternatives.

use crate::metrics::Direction;
use crate::param::{Domain, Draw, ParamDef, ParamValue};
use crate::space::ParamSpace;
use crate::trial::{Configuration, Trial};
use std::collections::BTreeSet;

/// A strategy for proposing the next configuration to evaluate.
pub trait Explorer: Send {
    /// Propose the next configuration, or `None` when the exploration
    /// budget is exhausted. `history` holds every finished trial.
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Trial],
        rng: &mut dyn rand::RngCore,
    ) -> Option<Configuration>;

    /// Strategy name for reports.
    fn name(&self) -> &'static str;

    /// Whether the explorer deduplicates against the history itself
    /// (config-keyed resume). When true, the study must NOT burn warm-up
    /// proposals for journal-loaded trials; the explorer handles them.
    fn supports_keyed_resume(&self) -> bool {
        false
    }
}

/// Random Search: the paper's exploratory method (§V-c), which "takes
/// random combinations of parameters and has turned out to be effective
/// for hyper-parameter optimization" (Bergstra & Bengio, 2012).
pub struct RandomSearch {
    budget: usize,
    proposed: usize,
    dedup: bool,
    seen: BTreeSet<String>,
}

impl RandomSearch {
    /// Propose `budget` random configurations (duplicates allowed).
    pub fn new(budget: usize) -> Self {
        Self { budget, proposed: 0, dedup: false, seen: BTreeSet::new() }
    }

    /// Skip configurations that were already proposed (useful on small
    /// discrete spaces like the paper's 72-point space).
    pub fn without_duplicates(mut self) -> Self {
        self.dedup = true;
        self
    }
}

impl Explorer for RandomSearch {
    fn propose(
        &mut self,
        space: &ParamSpace,
        _history: &[Trial],
        mut rng: &mut dyn rand::RngCore,
    ) -> Option<Configuration> {
        if self.proposed >= self.budget {
            return None;
        }
        // Bounded retries when deduplicating; on exhaustion fall back to
        // whatever comes out (the space may be smaller than the budget).
        let mut cfg = space.sample(&mut rng);
        if self.dedup {
            for _ in 0..200 {
                if self.seen.insert(cfg.canonical_key()) {
                    break;
                }
                cfg = space.sample(&mut rng);
            }
        }
        self.proposed += 1;
        Some(cfg)
    }

    fn name(&self) -> &'static str {
        "random-search"
    }
}

/// Grid Search: exhaustively enumerate the Cartesian product, in the
/// order of [`ParamSpace::grid`]. Each proposal computes its own point, so
/// a limited search never builds the whole grid.
pub struct GridSearch {
    cursor: usize,
    limit: Option<usize>,
}

impl GridSearch {
    /// Visit the full grid.
    pub fn new() -> Self {
        Self { cursor: 0, limit: None }
    }

    /// Visit at most `limit` grid points.
    pub fn with_limit(limit: usize) -> Self {
        Self { cursor: 0, limit: Some(limit) }
    }
}

impl Default for GridSearch {
    fn default() -> Self {
        Self::new()
    }
}

impl Explorer for GridSearch {
    fn propose(
        &mut self,
        space: &ParamSpace,
        _history: &[Trial],
        _rng: &mut dyn rand::RngCore,
    ) -> Option<Configuration> {
        if self.limit.is_some_and(|l| self.cursor >= l) {
            return None;
        }
        let cfg = space.grid_point(self.cursor)?;
        self.cursor += 1;
        Some(cfg)
    }

    fn name(&self) -> &'static str {
        "grid-search"
    }
}

/// Replays a fixed list of configurations, in order.
///
/// This is how a study reproduces a previously-drawn sample — e.g. the 18
/// configurations of the paper's Table I, which were drawn once by Random
/// Search and then treated as the fixed experiment set.
pub struct PresetList {
    configs: std::collections::VecDeque<Configuration>,
}

impl PresetList {
    /// Propose exactly these configurations.
    pub fn new(configs: impl IntoIterator<Item = Configuration>) -> Self {
        Self { configs: configs.into_iter().collect() }
    }
}

impl Explorer for PresetList {
    fn propose(
        &mut self,
        _space: &ParamSpace,
        history: &[Trial],
        _rng: &mut dyn rand::RngCore,
    ) -> Option<Configuration> {
        // Resume semantics are *config-keyed*: entries whose configuration
        // already appears in the history (e.g. loaded from a journal) are
        // skipped, so a partially-complete study re-runs exactly the
        // missing rows regardless of journal ordering.
        let seen: BTreeSet<String> = history.iter().map(|t| t.config.canonical_key()).collect();
        while let Some(cfg) = self.configs.pop_front() {
            if !seen.contains(&cfg.canonical_key()) {
                return Some(cfg);
            }
        }
        None
    }

    fn name(&self) -> &'static str {
        "preset-list"
    }

    fn supports_keyed_resume(&self) -> bool {
        true
    }
}

/// A simplified Tree-structured Parzen Estimator in the spirit of
/// Optuna/Hyperopt (§III-C).
///
/// After `warmup` random trials, history is split into the best `gamma`
/// fraction ("good") and the rest; `candidates` random configurations are
/// scored by a per-parameter density ratio (Laplace-smoothed counts for
/// finite domains, nearest-neighbour distance ratios for continuous
/// ones), and the best-scoring candidate is proposed. Each trial is read
/// once, into a row that later proposals reuse while the history only
/// grows; every proposal tallies the rows once per parameter, scores each
/// candidate as its draws, and builds a configuration for the winner only.
pub struct TpeLite {
    budget: usize,
    proposed: usize,
    /// Metric the sampler optimizes.
    pub(crate) metric: String,
    /// Direction of that metric.
    pub(crate) direction: Direction,
    warmup: usize,
    gamma: f64,
    candidates: usize,
    rows: Rows,
}

impl TpeLite {
    /// A TPE-like sampler optimizing one metric.
    pub fn new(budget: usize, metric: impl Into<String>, direction: Direction) -> Self {
        Self {
            budget,
            proposed: 0,
            metric: metric.into(),
            direction,
            warmup: 8,
            gamma: 0.3,
            candidates: 24,
            rows: Rows::default(),
        }
    }

    /// The density-ratio score of one candidate, one term per parameter.
    /// `tallies[i]` is the tally of `space.params()[i]`, drawn as
    /// `draws[i]`.
    fn score(draws: &[Draw], tallies: &[Tally]) -> f64 {
        let mut score = 0.0;
        for (&draw, tally) in draws.iter().zip(tallies) {
            match tally {
                Tally::Counts { terms, unseen, choices, values } => {
                    let slot = match draw {
                        Draw::Choice(i) => choices[i],
                        Draw::Int(v) => values.iter().position(|u| *u == ParamValue::Int(v)),
                        // A finite domain draws no float.
                        Draw::Float(_) => None,
                    };
                    score += slot.map_or(*unseen, |k| terms[k]);
                }
                Tally::Readings { span, good, bad } => {
                    let x = if let Draw::Float(x) = draw { x } else { 0.0 };
                    // NaN (no reading) never wins a `min`.
                    let nearest = |ys: &[f64]| {
                        ys.iter().map(|y| ((y - x) / span).abs()).fold(1.0f64, f64::min)
                    };
                    // Closer to good points and farther from bad is better.
                    score += (nearest(bad) + 1e-3).ln() - (nearest(good) + 1e-3).ln();
                }
            }
        }
        score
    }
}

/// What proposals read of the history: one row per trial, appended as the
/// history grows, and read again from the start when it is not an
/// extension of the trials already read (by their ids) or the space
/// changed.
#[derive(Default)]
struct Rows {
    /// The space the columns follow.
    space: ParamSpace,
    /// The ids of the trials read, in history order.
    ids: Vec<usize>,
    /// `(oriented reading, row)` of every complete trial with a finite
    /// reading, best first; ties keep history order.
    ranked: Vec<(f64, usize)>,
    /// One column per parameter of `space`, one entry per row.
    columns: Vec<Column>,
}

/// One parameter's values, one per row.
enum Column {
    /// A finite domain: each row's value as an index into `values`, the
    /// distinct values in first-seen order, or `None` when it has none a
    /// draw could equal (missing, or NaN).
    Keys { values: Vec<ParamValue>, keys: Vec<Option<u32>> },
    /// A float range: its span, and each row's reading, NaN when missing.
    Floats { span: f64, readings: Vec<f64> },
}

impl Rows {
    /// Read the trials of `history` not read yet; `reading` is a trial's
    /// oriented reading when it counts.
    fn sync(
        &mut self,
        space: &ParamSpace,
        history: &[Trial],
        reading: impl Fn(&Trial) -> Option<f64>,
    ) {
        let extends = *space == self.space
            && history.len() >= self.ids.len()
            && history.iter().zip(&self.ids).all(|(t, &id)| t.id == id);
        if !extends {
            self.space = space.clone();
            self.ids.clear();
            self.ranked.clear();
            self.columns = space
                .params()
                .iter()
                .map(|p| match p.domain {
                    Domain::FloatRange { lo, hi, .. } => {
                        Column::Floats { span: (hi - lo).max(1e-12), readings: Vec::new() }
                    }
                    _ => Column::Keys { values: Vec::new(), keys: Vec::new() },
                })
                .collect();
        }
        for t in &history[self.ids.len()..] {
            let row = self.ids.len();
            self.ids.push(t.id);
            if let Some(r) = reading(t) {
                let at = self.ranked.partition_point(|&(s, _)| s >= r);
                self.ranked.insert(at, (r, row));
            }
            for (p, column) in space.params().iter().zip(&mut self.columns) {
                match column {
                    Column::Keys { values, keys } => {
                        let v = t.config.get(&p.name);
                        let v = v.filter(|v| !matches!(v, ParamValue::Float(x) if x.is_nan()));
                        keys.push(v.map(|v| {
                            let k = values.iter().position(|u| u == v).unwrap_or_else(|| {
                                values.push(v.clone());
                                values.len() - 1
                            });
                            k as u32
                        }));
                    }
                    Column::Floats { readings, .. } => {
                        readings.push(t.config.float(&p.name).unwrap_or(f64::NAN));
                    }
                }
            }
        }
    }
}

/// What scoring needs of one parameter's rows, gathered in one pass over
/// the good and the bad ones.
enum Tally<'a> {
    /// Finite domains: the score term of each distinct value, from its
    /// Laplace-smoothed good and bad counts, and of a value no row holds;
    /// for a categorical domain, the slot of each choice.
    Counts { terms: Vec<f64>, unseen: f64, choices: Vec<Option<usize>>, values: &'a [ParamValue] },
    /// Float ranges: the domain's span and the good and bad readings, in
    /// ranked order.
    Readings { span: f64, good: Vec<f64>, bad: Vec<f64> },
}

impl<'a> Tally<'a> {
    fn of(p: &ParamDef, column: &'a Column, good: &[(f64, usize)], bad: &[(f64, usize)]) -> Self {
        match column {
            Column::Keys { values, keys } => {
                let mut counts = vec![[0, 0]; values.len()];
                for (side, set) in [good, bad].into_iter().enumerate() {
                    for k in set.iter().filter_map(|&(_, row)| keys[row]) {
                        counts[k as usize][side] += 1;
                    }
                }
                let term = |[g, b]: [usize; 2]| {
                    let l = (g as f64 + 1.0) / (good.len() as f64 + 2.0);
                    let g = (b as f64 + 1.0) / (bad.len() as f64 + 2.0);
                    (l / g).ln()
                };
                let choices = match &p.domain {
                    Domain::Categorical(set) => {
                        set.iter().map(|c| values.iter().position(|u| u == c)).collect()
                    }
                    _ => Vec::new(),
                };
                Tally::Counts {
                    terms: counts.into_iter().map(term).collect(),
                    unseen: term([0, 0]),
                    choices,
                    values,
                }
            }
            Column::Floats { span, readings } => {
                let of = |set: &[(f64, usize)]| set.iter().map(|&(_, row)| readings[row]).collect();
                Tally::Readings { span: *span, good: of(good), bad: of(bad) }
            }
        }
    }
}

impl Explorer for TpeLite {
    fn propose(
        &mut self,
        space: &ParamSpace,
        history: &[Trial],
        mut rng: &mut dyn rand::RngCore,
    ) -> Option<Configuration> {
        if self.proposed >= self.budget {
            return None;
        }
        self.proposed += 1;

        // Like the rankers, only complete trials with a finite reading
        // count: a diverged trial's NaN has no place in the order.
        let (metric, direction) = (&self.metric, self.direction);
        self.rows.sync(space, history, |t| {
            let reading = t.metrics.get(metric).filter(|v| v.is_finite() && t.is_complete());
            reading.map(|v| direction.orient(v))
        });
        let ranked = &self.rows.ranked;
        if ranked.len() < self.warmup {
            return Some(space.sample(&mut rng));
        }
        let split = ((ranked.len() as f64 * self.gamma).ceil() as usize).clamp(1, ranked.len() - 1);
        let (good, bad) = ranked.split_at(split);
        let tallies: Vec<Tally> = space
            .params()
            .iter()
            .zip(&self.rows.columns)
            .map(|(p, column)| Tally::of(p, column, good, bad))
            .collect();

        // The same draws, in the same order, as `space.sample` makes.
        let mut draws = Vec::with_capacity(space.len());
        let mut best: Option<(f64, Vec<Draw>)> = None;
        for _ in 0..self.candidates {
            draws.clear();
            draws.extend(space.params().iter().map(|p| p.domain.draw(&mut rng)));
            let s = Self::score(&draws, &tallies);
            if best.as_ref().map(|(bs, _)| s > *bs).unwrap_or(true) {
                best = Some((s, draws.clone()));
            }
        }
        best.map(|(_, draws)| space.configuration(&draws))
    }

    fn name(&self) -> &'static str {
        "tpe-lite"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValues;
    use crate::trial::TrialStatus;
    use rand::rngs::StdRng;
    use rand::{RngCore, SeedableRng};
    use testkit::{sweep, Gen};

    fn space() -> ParamSpace {
        ParamSpace::builder().categorical_int("k", [1, 2, 3, 4]).float("x", 0.0, 1.0).build()
    }

    fn discrete_space() -> ParamSpace {
        ParamSpace::builder().categorical_int("a", [0, 1]).categorical_int("b", [0, 1]).build()
    }

    #[test]
    fn random_search_respects_budget() {
        let mut ex = RandomSearch::new(3);
        let mut rng = StdRng::seed_from_u64(1);
        let s = space();
        for _ in 0..3 {
            assert!(ex.propose(&s, &[], &mut rng).is_some());
        }
        assert!(ex.propose(&s, &[], &mut rng).is_none());
    }

    #[test]
    fn random_search_dedup_covers_small_space() {
        let mut ex = RandomSearch::new(4).without_duplicates();
        let mut rng = StdRng::seed_from_u64(2);
        let s = discrete_space();
        let keys: BTreeSet<String> = (0..4)
            .map(|_| ex.propose(&s, &[], &mut rng).expect("within budget").canonical_key())
            .collect();
        assert_eq!(keys.len(), 4, "all four points visited exactly once");
    }

    #[test]
    fn grid_search_visits_everything_then_stops() {
        let mut ex = GridSearch::new();
        let mut rng = StdRng::seed_from_u64(3);
        let s = discrete_space();
        let mut seen = BTreeSet::new();
        while let Some(cfg) = ex.propose(&s, &[], &mut rng) {
            seen.insert(cfg.canonical_key());
        }
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn grid_search_limit_caps_proposals() {
        let mut ex = GridSearch::with_limit(2);
        let mut rng = StdRng::seed_from_u64(4);
        let s = discrete_space();
        assert!(ex.propose(&s, &[], &mut rng).is_some());
        assert!(ex.propose(&s, &[], &mut rng).is_some());
        assert!(ex.propose(&s, &[], &mut rng).is_none());
    }

    /// The Cartesian product as `ParamSpace::grid` built it before points
    /// were computed by index: one parameter at a time, each existing
    /// prefix extended by every value, so the last parameter varies fastest.
    fn oracle_grid(params: &[(String, Vec<ParamValue>)]) -> Vec<Configuration> {
        let mut out = vec![Configuration::new()];
        for (name, values) in params {
            out = out
                .iter()
                .flat_map(|cfg| values.iter().map(|v| cfg.clone().with(name, v.clone())))
                .collect();
        }
        out
    }

    #[test]
    fn grid_proposals_equal_the_cartesian_product_prefix() {
        sweep(60, 0x6_21D, |g| {
            let mut builder = ParamSpace::builder();
            let mut params = Vec::new();
            for p in 0..1 + g.below(6) {
                let (name, len) = (format!("p{p}"), 1 + g.below(4));
                let values: Vec<ParamValue> = match g.below(3) {
                    0 => {
                        let lo = g.int_in(-5i64..5);
                        builder = builder.int(&name, lo, lo + len as i64 - 1);
                        (lo..lo + len as i64).map(ParamValue::Int).collect()
                    }
                    1 => {
                        let ints: Vec<i64> =
                            (0..len as i64).map(|k| 10 * k - g.int_in(0..5)).collect();
                        builder = builder.categorical_int(&name, ints.clone());
                        ints.into_iter().map(ParamValue::Int).collect()
                    }
                    _ => {
                        let labels: Vec<String> = (0..len).map(|k| format!("v{k}")).collect();
                        builder = builder.categorical(&name, labels.clone());
                        labels.into_iter().map(ParamValue::Str).collect()
                    }
                };
                params.push((name, values));
            }
            let space = builder.build();
            let oracle = oracle_grid(&params);
            assert_eq!(space.grid(), oracle);
            let size = oracle.len();
            for limit in [None, Some(0), Some(1), Some(size / 2), Some(size), Some(size + 3)] {
                let mut ex = match limit {
                    Some(l) => GridSearch::with_limit(l),
                    None => GridSearch::new(),
                };
                let mut rng = StdRng::seed_from_u64(g.u64());
                let proposed: Vec<Configuration> =
                    std::iter::from_fn(|| ex.propose(&space, &[], &mut rng)).collect();
                assert_eq!(proposed, oracle[..limit.unwrap_or(size).min(size)], "limit {limit:?}");
                for _ in 0..2 {
                    assert_eq!(ex.propose(&space, &[], &mut rng), None, "after the last point");
                }
            }
        });
    }

    /// Synthetic objective: k=3 is best, x near 0.25 is best (minimize).
    fn objective(cfg: &Configuration) -> f64 {
        let k = cfg.int("k").unwrap() as f64;
        let x = cfg.float("x").unwrap();
        (k - 3.0).powi(2) + 4.0 * (x - 0.25).powi(2)
    }

    fn run_explorer(mut ex: impl Explorer, n: usize, seed: u64) -> f64 {
        let s = space();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut history: Vec<Trial> = Vec::new();
        let mut best = f64::INFINITY;
        for id in 0..n {
            let cfg = match ex.propose(&s, &history, &mut rng) {
                Some(c) => c,
                None => break,
            };
            let y = objective(&cfg);
            best = best.min(y);
            history.push(Trial::complete(id, cfg, MetricValues::new().with("loss", y)));
        }
        best
    }

    #[test]
    fn tpe_beats_random_on_a_smooth_objective() {
        // Averaged over seeds, TPE should find lower losses than random
        // search with the same budget.
        let seeds = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let budget = 60;
        let tpe_mean: f64 = seeds
            .iter()
            .map(|&s| run_explorer(TpeLite::new(budget, "loss", Direction::Minimize), budget, s))
            .sum::<f64>()
            / seeds.len() as f64;
        let rnd_mean: f64 =
            seeds.iter().map(|&s| run_explorer(RandomSearch::new(budget), budget, s)).sum::<f64>()
                / seeds.len() as f64;
        assert!(
            tpe_mean <= rnd_mean * 1.05,
            "TPE mean best {tpe_mean} should not lose to random {rnd_mean}"
        );
    }

    #[test]
    fn tpe_warmup_falls_back_to_random() {
        let mut ex = TpeLite::new(10, "loss", Direction::Minimize);
        let mut rng = StdRng::seed_from_u64(9);
        let s = space();
        // No history at all: must still propose.
        assert!(ex.propose(&s, &[], &mut rng).is_some());
    }

    #[test]
    fn tpe_leaves_a_nan_reading_out_of_the_order() {
        // 40 complete trials, one of them diverged: the proposal is the one
        // the other 39 alone would get, and sorting them does not panic.
        let s = space();
        let mut rng = StdRng::seed_from_u64(9);
        let mut history: Vec<Trial> = (0..40)
            .map(|i| {
                let cfg = s.sample(&mut rng);
                let loss = (cfg.float("x").unwrap() - 0.3).abs();
                Trial::complete(i, cfg, MetricValues::new().with("loss", loss))
            })
            .collect();
        history[23].metrics.set("loss", f64::NAN);
        let propose = |history: &[Trial]| {
            let mut ex = TpeLite::new(100, "loss", Direction::Minimize);
            ex.propose(&s, history, &mut StdRng::seed_from_u64(5)).expect("within budget")
        };
        let with_nan = propose(&history);
        history.remove(23);
        assert_eq!(with_nan, propose(&history));
    }

    /// The per-candidate scan [`TpeLite::propose`] replaced, kept as its
    /// oracle: the history sorted on two metric reads per comparison, and
    /// every candidate rescanning every trial for every parameter.
    fn oracle_propose(
        tpe: &mut TpeLite,
        space: &ParamSpace,
        history: &[Trial],
        mut rng: &mut dyn rand::RngCore,
    ) -> Option<Configuration> {
        if tpe.proposed >= tpe.budget {
            return None;
        }
        tpe.proposed += 1;
        let value = |t: &Trial| {
            let reading = t.metrics.get(&tpe.metric).filter(|v| v.is_finite());
            reading.map(|v| tpe.direction.orient(v))
        };
        let mut scored: Vec<&Trial> =
            history.iter().filter(|t| t.is_complete() && value(t).is_some()).collect();
        if scored.len() < tpe.warmup {
            return Some(space.sample(&mut rng));
        }
        scored.sort_by(|a, b| value(b).partial_cmp(&value(a)).expect("finite readings order"));
        let split = ((scored.len() as f64 * tpe.gamma).ceil() as usize).clamp(1, scored.len() - 1);
        let (good, bad) = scored.split_at(split);
        let score = |cfg: &Configuration| {
            let mut score = 0.0;
            for p in space.params() {
                let Some(v) = cfg.get(&p.name) else { continue };
                match &p.domain {
                    Domain::Categorical(_) | Domain::IntRange { .. } => {
                        let count = |set: &[&Trial]| {
                            set.iter().filter(|t| t.config.get(&p.name) == Some(v)).count() as f64
                        };
                        let l = (count(good) + 1.0) / (good.len() as f64 + 2.0);
                        let g = (count(bad) + 1.0) / (bad.len() as f64 + 2.0);
                        score += (l / g).ln();
                    }
                    Domain::FloatRange { lo, hi, .. } => {
                        let x = v.as_float().unwrap_or(0.0);
                        let span = (hi - lo).max(1e-12);
                        let nearest = |set: &[&Trial]| {
                            set.iter()
                                .filter_map(|t| t.config.float(&p.name))
                                .map(|y| ((y - x) / span).abs())
                                .fold(1.0f64, f64::min)
                        };
                        score += (nearest(bad) + 1e-3).ln() - (nearest(good) + 1e-3).ln();
                    }
                }
            }
            score
        };
        let mut best: Option<(f64, Configuration)> = None;
        for _ in 0..tpe.candidates {
            let cand = space.sample(&mut rng);
            let s = score(&cand);
            if best.as_ref().map(|(bs, _)| s > *bs).unwrap_or(true) {
                best = Some((s, cand));
            }
        }
        best.map(|(_, c)| c)
    }

    /// A space with a string and an int `Categorical`, an `IntRange` and a
    /// `FloatRange` (linear or log), each of a drawn size.
    fn mixed_space(g: &mut Gen) -> ParamSpace {
        let lo = g.int_in(-3i64..3);
        let builder = ParamSpace::builder()
            .categorical("algo", ["PPO", "SAC", "A2C"][..1 + g.below(3)].to_vec())
            .categorical_int("cores", [1, 2, 4, 8][..1 + g.below(4)].to_vec())
            .int("nodes", lo, lo + g.int_in(0i64..5));
        if g.bool() {
            builder.float("x", -1.0, g.f64_in(-1.0..2.0)).build()
        } else {
            builder.log_float("x", 1e-4, 1e-1).build()
        }
    }

    /// A drawn history over `space`: some parameters missing, some values
    /// outside their domain (NaN, a float where an int belongs, an unknown
    /// label), readings that are NaN, infinite or absent, and pruned and
    /// failed trials among the complete ones.
    fn mixed_history(g: &mut Gen, space: &ParamSpace) -> Vec<Trial> {
        let mut rng = StdRng::seed_from_u64(g.u64());
        let len = g.below(80);
        (0..len)
            .map(|id| {
                let mut config = Configuration::new();
                for (name, v) in space.sample(&mut rng).iter() {
                    match g.below(12) {
                        0 => {}
                        1 => config.set(name, ParamValue::Float(f64::NAN)),
                        2 => config.set(name, ParamValue::Float(1.0)),
                        3 => config.set(name, ParamValue::Str("TD3".into())),
                        _ => config.set(name, v.clone()),
                    }
                }
                let reading = match g.below(10) {
                    0 => Some(f64::NAN),
                    1 => Some(f64::INFINITY),
                    2 => None,
                    // A coarse grid, so that readings tie.
                    _ => Some(g.below(8) as f64 * 0.25),
                };
                let metrics = match reading {
                    Some(r) => MetricValues::new().with("reward", r),
                    None => MetricValues::new(),
                };
                let mut trial = Trial::complete(id, config, metrics);
                trial.status = *g.pick(&[
                    TrialStatus::Complete,
                    TrialStatus::Complete,
                    TrialStatus::Complete,
                    TrialStatus::Pruned,
                    TrialStatus::Failed,
                ]);
                trial
            })
            .collect()
    }

    #[test]
    fn tpe_proposals_equal_the_per_candidate_scan() {
        sweep(200, 0x7BE_1173, |g| {
            let space = mixed_space(g);
            let grown = mixed_history(g, &space);
            // Another history over the same space, with ids of its own.
            let mut other = mixed_history(g, &space);
            other.iter_mut().for_each(|t| t.id += 1_000);
            let direction = *g.pick(&[Direction::Maximize, Direction::Minimize]);
            let budget = g.below(9);
            let seed = g.u64();
            let mut tallied = TpeLite::new(budget, "reward", direction);
            let mut scanned = TpeLite::new(budget, "reward", direction);
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let half = budget / 2;
            for k in 0..budget + 1 {
                // One explorer sees a history that grows between proposals,
                // then switches between it and a different one.
                let history: &[Trial] = if k <= half {
                    &grown[..grown.len() * (k + 1) / (half + 1)]
                } else if k % 2 == 1 {
                    &other
                } else {
                    &grown
                };
                let ctx = format!("proposal {k}, {} trials, {space:?}", history.len());
                let proposal = tallied.propose(&space, history, &mut a);
                assert_eq!(
                    proposal,
                    oracle_propose(&mut scanned, &space, history, &mut b),
                    "{ctx}"
                );
                assert_eq!(proposal.is_none(), k == budget, "{ctx}");
                assert_eq!(a.next_u64(), b.next_u64(), "next draw after {ctx}");
            }
        });
    }

    #[test]
    fn preset_list_skips_configs_already_in_history() {
        use crate::metrics::MetricValues;
        let cfgs: Vec<Configuration> = (0..4)
            .map(|i| Configuration::new().with("k", crate::param::ParamValue::Int(i)))
            .collect();
        let mut ex = PresetList::new(cfgs.clone());
        // History already contains configs 0 and 2 (out of order).
        let history = vec![
            Trial::complete(0, cfgs[2].clone(), MetricValues::new()),
            Trial::complete(1, cfgs[0].clone(), MetricValues::new()),
        ];
        let mut rng = StdRng::seed_from_u64(0);
        let s = space();
        assert_eq!(ex.propose(&s, &history, &mut rng).as_ref(), Some(&cfgs[1]));
        assert_eq!(ex.propose(&s, &history, &mut rng).as_ref(), Some(&cfgs[3]));
        assert!(ex.propose(&s, &history, &mut rng).is_none());
    }

    #[test]
    fn preset_list_replays_in_order() {
        let cfgs: Vec<Configuration> = (0..3)
            .map(|i| Configuration::new().with("k", crate::param::ParamValue::Int(i)))
            .collect();
        let mut ex = PresetList::new(cfgs.clone());
        let mut rng = StdRng::seed_from_u64(0);
        let s = space();
        for want in &cfgs {
            assert_eq!(ex.propose(&s, &[], &mut rng).as_ref(), Some(want));
        }
        assert!(ex.propose(&s, &[], &mut rng).is_none());
        assert_eq!(PresetList::new([]).name(), "preset-list");
    }

    #[test]
    fn explorer_names() {
        assert_eq!(RandomSearch::new(1).name(), "random-search");
        assert_eq!(GridSearch::new().name(), "grid-search");
        assert_eq!(TpeLite::new(1, "m", Direction::Maximize).name(), "tpe-lite");
    }
}
