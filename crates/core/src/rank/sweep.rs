//! A seeded sweep of every ranking entry point against brute-force
//! oracles written from the definitions, not from the engine.

use crate::metrics::{Direction, MetricDef, MetricValues};
use crate::rank::pareto::non_dominated_ranks;
use crate::rank::spec::layers;
use crate::rank::{ParetoFront, RankSpec, Ranker, SortedRanking, WeightedSum};
use crate::trial::{Configuration, Trial, TrialStatus};
use testkit::{sweep, Gen};

/// 1–60 trials over 1–3 metrics `m0..` with random directions and values
/// on a coarse grid (ties), plus four hazards, each in about a third of
/// the sets and reported in the flags: a trial missing a metric, a failed
/// trial, a NaN, a ±∞.
fn trial_set(rng: &mut Gen) -> (Vec<Trial>, Vec<MetricDef>, [bool; 4]) {
    let (n, m) = (1 + rng.below(60), 1 + rng.below(3));
    let defs: Vec<MetricDef> = (0..m)
        .map(|k| match rng.below(2) {
            0 => MetricDef::maximize(format!("m{k}")),
            _ => MetricDef::minimize(format!("m{k}")),
        })
        .collect();
    let grid = 2 + rng.below(9);
    let mut trials: Vec<Trial> = (0..n)
        .map(|i| {
            let mut v = MetricValues::new();
            for def in &defs {
                v.set(def.name.as_str(), rng.below(grid) as f64 * 0.25 - 1.0);
            }
            Trial::complete(i, Configuration::new(), v)
        })
        .collect();
    let hazards = [(); 4].map(|_| rng.below(3) == 0);
    if hazards[0] {
        let (i, skip) = (rng.below(n), rng.below(m));
        trials[i].metrics = MetricValues::new();
        for (k, def) in defs.iter().enumerate().filter(|(k, _)| *k != skip) {
            trials[i].metrics.set(def.name.as_str(), k as f64);
        }
    }
    if hazards[1] {
        trials[rng.below(n)].status = TrialStatus::Failed;
    }
    let inf = if rng.below(2) == 0 { f64::INFINITY } else { f64::NEG_INFINITY };
    for (hazard, bad) in [(hazards[2], f64::NAN), (hazards[3], inf)] {
        if hazard {
            let (i, k) = (rng.below(n), rng.below(m));
            trials[i].metrics.set(defs[k].name.as_str(), bad);
        }
    }
    (trials, defs, hazards)
}

/// A rankable trial's readings turned so that bigger is better; `None`
/// for a trial that is not complete or lacks a finite value.
fn oriented(t: &Trial, defs: &[MetricDef]) -> Option<Vec<f64>> {
    if t.status != TrialStatus::Complete {
        return None;
    }
    defs.iter()
        .map(|d| {
            let v = t.metrics.get(&d.name).filter(|v| v.is_finite())?;
            Some(if d.direction == Direction::Maximize { v } else { -v })
        })
        .collect()
}

fn dominates(a: &[f64], b: &[f64]) -> bool {
    a.iter().zip(b).all(|(x, y)| x >= y) && a.iter().zip(b).any(|(x, y)| x > y)
}

/// Peel fronts off until nothing is left: layer `k` is whatever no
/// remaining trial dominates once layers `0..k` are gone.
fn oracle_layers(rows: &[Option<Vec<f64>>]) -> Vec<Vec<usize>> {
    let mut left: Vec<usize> = (0..rows.len()).filter(|&i| rows[i].is_some()).collect();
    let row = |i: usize| rows[i].as_deref().unwrap();
    let mut layers = Vec::new();
    while !left.is_empty() {
        let undominated = |&i: &usize| !left.iter().any(|&j| dominates(row(j), row(i)));
        let layer: Vec<usize> = left.iter().copied().filter(undominated).collect();
        left.retain(|i| !layer.contains(i));
        layers.push(layer);
    }
    layers
}

/// Indices with a key, greatest key first, the lower index first among
/// equals. A sorted array's key is the oriented readings read
/// lexicographically, a weighted sum's is the score.
fn best_first<K: PartialOrd>(keys: &[Option<K>]) -> Vec<usize> {
    let mut order: Vec<usize> = (0..keys.len()).filter(|&i| keys[i].is_some()).collect();
    order.sort_by(|&a, &b| keys[b].partial_cmp(&keys[a]).unwrap().then(a.cmp(&b)));
    order
}

/// `Σ w·norm / Σ w` with `norm` the min–max position of the reading among
/// the rankable trials, 1 = best, a constant metric reading 1.
fn oracle_scores(rows: &[Option<Vec<f64>>], weights: &[f64]) -> Vec<Option<f64>> {
    let column = |k: usize| rows.iter().flatten().map(move |r| r[k]);
    let score = |row: &Vec<f64>| {
        let weighted = weights.iter().enumerate().map(|(k, w)| {
            let worst = column(k).fold(f64::INFINITY, f64::min);
            let span = column(k).fold(f64::NEG_INFINITY, f64::max) - worst;
            w * if span < 1e-12 { 1.0 } else { (row[k] - worst) / span }
        });
        weighted.sum::<f64>() / weights.iter().sum::<f64>()
    };
    rows.iter().map(|row| row.as_ref().map(score)).collect()
}

/// Every entry point against the oracles on one trial set; says whether
/// the set had two rankable trials with equal readings.
fn check(ctx: &str, trials: &[Trial], defs: &[MetricDef]) -> bool {
    let rows: Vec<Option<Vec<f64>>> = trials.iter().map(|t| oriented(t, defs)).collect();

    let layers = oracle_layers(&rows);
    let front = layers.first().cloned().unwrap_or_default();
    assert_eq!(ParetoFront::compute(trials, defs).indices(), front, "front, {ctx}");
    let mut ranks = vec![None; trials.len()];
    for (level, layer) in layers.iter().enumerate() {
        layer.iter().for_each(|&i| ranks[i] = Some(level));
    }
    assert_eq!(non_dominated_ranks(trials, defs), ranks, "layers, {ctx}");
    // `RankSpec` says the same in its own shape.
    let pareto = defs.iter().cloned().fold(RankSpec::pareto(), RankSpec::metric);
    let ranking = pareto.rank(trials);
    assert_eq!((ranking.order, ranking.front), (layers.concat(), front), "spec order, {ctx}");
    assert_eq!(ranking.tiers, layers, "spec tiers, {ctx}");

    let sorted = best_first(&rows);
    let spec = defs.iter().cloned().fold(RankSpec::sorted(), RankSpec::metric);
    assert_eq!(spec.rank(trials).order, sorted, "sorted order, {ctx}");
    if let [def] = defs {
        let preset = SortedRanking::by(def.clone());
        assert_eq!(preset.rank(trials), sorted, "sorted preset, {ctx}");
        assert_eq!(preset.best(trials), sorted.first().copied(), "best, {ctx}");
    }

    let weights: Vec<f64> = (0..defs.len()).map(|k| 0.5 + k as f64).collect();
    let scores = oracle_scores(&rows, &weights);
    let weigh = |ws: WeightedSum, (d, &w): (&MetricDef, &f64)| ws.weight(d.clone(), w);
    let preset = defs.iter().zip(&weights).fold(WeightedSum::new(), weigh);
    let weigh = |spec: RankSpec, (d, &w): (&MetricDef, &f64)| spec.weighted_metric(d.clone(), w);
    let spec = defs.iter().zip(&weights).fold(RankSpec::weighted(), weigh);
    assert_eq!(spec.scores(trials), scores, "weighted scores, {ctx}");
    assert_eq!(preset.rank(trials), best_first(&scores), "weighted order, {ctx}");
    sorted.windows(2).any(|w| rows[w[0]] == rows[w[1]])
}

#[test]
fn every_method_matches_its_brute_force_oracle() {
    let mut rng = Gen::new(0x5EED);
    let (mut seen, mut tied_sets) = ([0usize; 4], 0usize);
    for set in 0..400 {
        let (mut trials, defs, hazards) = trial_set(&mut rng);
        for (count, hazard) in seen.iter_mut().zip(hazards) {
            *count += hazard as usize;
        }
        let ctx = format!("set {set}: {} trials, {} metrics", trials.len(), defs.len());
        tied_sets += check(&ctx, &trials, &defs) as usize;
        if set % 40 == 0 {
            // Nothing to rank, two ways: no trial is eligible, no trial at all.
            trials.iter_mut().for_each(|t| t.status = TrialStatus::Failed);
            check(&format!("{ctx}, all failed"), &trials, &defs);
            check(&format!("{ctx}, emptied"), &[], &defs);
        }
    }
    assert!(seen.iter().all(|&n| n >= 50), "every hazard is exercised: {seen:?}");
    assert!(tied_sets >= 200, "ties are exercised: {tied_sets}");
}

/// Complete trials reading `rows[i][k]` for metric `mk`.
fn trials_of(rows: &[Vec<f64>]) -> Vec<Trial> {
    let trial = |(i, row): (usize, &Vec<f64>)| {
        let mut v = MetricValues::new();
        row.iter().enumerate().for_each(|(k, &x)| v.set(format!("m{k}"), x));
        Trial::complete(i, Configuration::new(), v)
    };
    rows.iter().enumerate().map(trial).collect()
}

/// The paper's three directions over `m0, m1, m2`.
fn max_min_min() -> Vec<MetricDef> {
    vec![MetricDef::maximize("m0"), MetricDef::minimize("m1"), MetricDef::minimize("m2")]
}

/// The shapes that decide what the layering costs and whether its
/// bisection is sound, each through every entry point.
#[test]
fn layering_matches_the_oracle_on_its_extreme_shapes() {
    let defs = max_min_min();
    let n = 150;
    // A chain: every row dominates the next, n layers of one.
    let chain: Vec<Vec<f64>> = (0..n).map(|i| vec![-(i as f64), i as f64, i as f64]).collect();
    // An anti-chain: what m0 gains m1 pays for, one layer of n.
    let anti: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64, i as f64, 1.0]).collect();
    // All equal, both zeros among the readings: nothing dominates.
    let equal: Vec<Vec<f64>> = (0..n).map(|i| vec![1.0, [0.0, -0.0][i % 2], 2.0]).collect();
    for (name, mut rows, depth) in
        [("chain", chain, n), ("anti-chain", anti, 1), ("equal", equal, 1)]
    {
        for pass in ["in order", "reversed"] {
            let trials = trials_of(&rows);
            check(&format!("{name}, {pass}"), &trials, &defs);
            let deepest = non_dominated_ranks(&trials, &defs).into_iter().flatten().max();
            assert_eq!(deepest, Some(depth - 1), "{name}, {pass}");
            rows.reverse();
        }
    }
}

/// The `study_core` pool in small: 72 configurations on a time × energy
/// grid, each met 16 times, shuffled. With one reward a configuration the
/// 16 are exact copies (72 distinct points); with 8 they are 8 rewards
/// twice over the configuration's one time and energy, which is what
/// stacks the workload's layers hundreds deep.
#[test]
fn layering_matches_the_oracle_on_the_pooled_study_shape() {
    let defs = max_min_min();
    for rewards in [1, 8] {
        let mut rng = Gen::new(0x7216);
        let mut rows: Vec<Vec<f64>> = Vec::new();
        for config in 0..72 {
            let (time, energy) = ((config % 12) as f64 * 5.0, (config / 12) as f64 * 0.5);
            let met: Vec<f64> = (0..rewards).map(|_| -0.4 - 0.01 * rng.below(30) as f64).collect();
            rows.extend((0..16).map(|copy| vec![met[copy % rewards], time, energy]));
        }
        for i in (1..rows.len()).rev() {
            rows.swap(i, rng.below(i + 1));
        }
        let distinct: std::collections::BTreeSet<Vec<u64>> =
            rows.iter().map(|r| r.iter().map(|x| x.to_bits()).collect()).collect();
        assert!(rows.len() == 1152 && (rewards > 1 || distinct.len() == 72));
        check(&format!("{rewards} rewards a configuration"), &trials_of(&rows), &defs);
    }
}

/// Readings no trial can carry through `covers` but a risk reading could
/// produce: ±∞ compare like any number, a NaN row neither dominates nor
/// is dominated and sits in layer 0.
#[test]
fn layering_orders_infinities_and_isolates_nan() {
    let defs = max_min_min();
    sweep(100, 0x1AF, |rng| {
        let n = 1 + rng.below(40);
        let odd = [f64::INFINITY, f64::NEG_INFINITY, f64::NAN, 0.0, -0.0];
        let reading = |rng: &mut Gen| match rng.below(3) {
            0 => *rng.pick(&odd),
            _ => rng.below(4) as f64 - 1.0,
        };
        let rows: Vec<Option<Vec<f64>>> = (0..n)
            .map(|_| (rng.below(8) != 0).then(|| (0..3).map(|_| reading(rng)).collect()))
            .collect();
        let oriented: Vec<Option<Vec<f64>>> = rows
            .iter()
            .map(|row| {
                row.as_ref()
                    .map(|r| r.iter().zip(&defs).map(|(&v, d)| d.direction.orient(v)).collect())
            })
            .collect();
        assert_eq!(layers(&rows, &defs), oracle_layers(&oriented));
    });
}
