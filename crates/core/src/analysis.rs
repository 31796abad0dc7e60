//! Parameter-effect analysis: the quantitative backing for §VI-D-style
//! conclusions ("using all the available CPU cores speeds-up the
//! training", "RLlib is a good candidate to deal with the computation
//! time", …).
//!
//! For each parameter level (e.g. `framework = "TF-Agents"`), the
//! analysis aggregates every metric over the complete trials at that
//! level, so the user can read off main effects without eyeballing the
//! scatter plots.

use crate::metrics::MetricDef;
use crate::param::ParamValue;
use crate::space::ParamSpace;
use crate::trial::Trial;
use std::collections::BTreeMap;

/// Aggregate statistics of one metric at one parameter level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelStats {
    /// Number of contributing trials.
    pub n: usize,
    /// Mean metric value.
    pub mean: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

impl LevelStats {
    fn from_values(vals: &[f64]) -> Self {
        let n = vals.len();
        let mean = vals.iter().sum::<f64>() / n as f64;
        Self {
            n,
            mean,
            min: vals.iter().cloned().fold(f64::INFINITY, f64::min),
            max: vals.iter().cloned().fold(f64::NEG_INFINITY, f64::max),
        }
    }
}

/// Main-effect table of one parameter: metric statistics per level.
#[derive(Debug, Clone)]
pub struct ParamEffect {
    /// Parameter name.
    pub param: String,
    /// Per-level, per-metric statistics (level → metric → stats), in
    /// level order of first appearance.
    pub levels: Vec<(ParamValue, BTreeMap<String, LevelStats>)>,
}

impl ParamEffect {
    /// Compute the effect of `param` over the complete trials.
    ///
    /// Continuous parameters with many distinct values are binned into
    /// quartile ranges (labelled `"[lo..hi)"`) so the table stays
    /// readable; discrete parameters keep one row per level.
    pub fn compute(trials: &[Trial], param: &str, metrics: &[MetricDef]) -> Self {
        let complete: Vec<&Trial> = trials.iter().filter(|t| t.is_complete()).collect();
        // Detect a continuous parameter worth binning: float-valued with
        // more distinct values than bins.
        let float_vals: Vec<f64> = complete
            .iter()
            .filter_map(|t| match t.config.get(param) {
                Some(ParamValue::Float(f)) => Some(*f),
                _ => None,
            })
            .collect();
        let distinct = {
            let mut v = float_vals.clone();
            v.sort_by(f64::total_cmp);
            v.dedup();
            v.len()
        };
        if float_vals.len() == complete.len() && distinct > 4 {
            return Self::compute_binned(&complete, param, metrics, &float_vals);
        }

        let mut order: Vec<ParamValue> = Vec::new();
        let mut buckets: Vec<Vec<&Trial>> = Vec::new();
        for t in &complete {
            let Some(v) = t.config.get(param) else { continue };
            match order.iter().position(|x| x == v) {
                Some(i) => buckets[i].push(t),
                None => {
                    order.push(v.clone());
                    buckets.push(vec![t]);
                }
            }
        }
        let levels = order
            .into_iter()
            .zip(buckets)
            .map(|(value, ts)| {
                let mut stats = BTreeMap::new();
                for m in metrics {
                    let vals: Vec<f64> = ts.iter().filter_map(|t| t.metrics.get(&m.name)).collect();
                    if !vals.is_empty() {
                        stats.insert(m.name.clone(), LevelStats::from_values(&vals));
                    }
                }
                (value, stats)
            })
            .collect();
        Self { param: param.to_string(), levels }
    }

    /// The level with the best mean for `metric`, if any level has data.
    pub fn best_level(&self, metric: &MetricDef) -> Option<&ParamValue> {
        self.levels
            .iter()
            .filter_map(|(v, stats)| stats.get(&metric.name).map(|s| (v, s.mean)))
            .reduce(|best, cur| if metric.direction.better(cur.1, best.1) { cur } else { best })
            .map(|(v, _)| v)
    }

    /// Render as an aligned text block.
    pub fn render(&self, metrics: &[MetricDef]) -> String {
        let mut out = format!("Effect of `{}`:\n", self.param);
        out.push_str(&format!("  {:<16}", "level"));
        for m in metrics {
            out.push_str(&format!(" {:>18}", format!("{} (mean)", m.name)));
        }
        out.push_str("    n\n");
        for (value, stats) in &self.levels {
            out.push_str(&format!("  {:<16}", value.to_string()));
            let mut n = 0;
            for m in metrics {
                match stats.get(&m.name) {
                    Some(s) => {
                        out.push_str(&format!(" {:>18.3}", s.mean));
                        n = s.n;
                    }
                    None => out.push_str(&format!(" {:>18}", "-")),
                }
            }
            out.push_str(&format!(" {n:>4}\n"));
        }
        out
    }
}

impl ParamEffect {
    /// Quartile-binned effect for continuous parameters.
    fn compute_binned(
        complete: &[&Trial],
        param: &str,
        metrics: &[MetricDef],
        vals: &[f64],
    ) -> Self {
        let mut sorted = vals.to_vec();
        sorted.sort_by(f64::total_cmp);
        let q = |p: f64| sorted[((sorted.len() - 1) as f64 * p).round() as usize];
        let edges = [sorted[0], q(0.25), q(0.5), q(0.75), sorted[sorted.len() - 1]];
        let bin_of = |x: f64| -> usize {
            for b in 0..3 {
                if x < edges[b + 1] {
                    return b;
                }
            }
            3
        };
        let mut buckets: [Vec<&Trial>; 4] = [vec![], vec![], vec![], vec![]];
        for t in complete {
            if let Some(ParamValue::Float(f)) = t.config.get(param) {
                buckets[bin_of(*f)].push(t);
            }
        }
        let levels = (0..4)
            .filter(|&b| !buckets[b].is_empty())
            .map(|b| {
                let label = format!("[{:.2e}..{:.2e})", edges[b], edges[b + 1]);
                let mut stats = BTreeMap::new();
                for m in metrics {
                    let vs: Vec<f64> =
                        buckets[b].iter().filter_map(|t| t.metrics.get(&m.name)).collect();
                    if !vs.is_empty() {
                        stats.insert(m.name.clone(), LevelStats::from_values(&vs));
                    }
                }
                (ParamValue::Str(label), stats)
            })
            .collect();
        Self { param: param.to_string(), levels }
    }
}

/// Compute the effects of every parameter in the space.
pub fn all_effects(
    trials: &[Trial],
    space: &ParamSpace,
    metrics: &[MetricDef],
) -> Vec<ParamEffect> {
    space.params().iter().map(|p| ParamEffect::compute(trials, &p.name, metrics)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricDef, MetricValues};
    use crate::trial::{Configuration, TrialStatus};

    fn t(id: usize, fw: &str, cores: i64, reward: f64, time: f64) -> Trial {
        Trial::complete(
            id,
            Configuration::new()
                .with("framework", ParamValue::Str(fw.into()))
                .with("cores", ParamValue::Int(cores)),
            MetricValues::new().with("reward", reward).with("time_min", time),
        )
    }

    fn metrics() -> Vec<MetricDef> {
        vec![MetricDef::maximize("reward"), MetricDef::minimize("time_min")]
    }

    fn sample() -> Vec<Trial> {
        vec![
            t(0, "rllib", 4, -0.65, 46.0),
            t(1, "rllib", 4, -0.55, 49.0),
            t(2, "sb", 2, -0.47, 85.0),
            t(3, "sb", 4, -0.45, 65.0),
            t(4, "tfa", 4, -0.51, 49.4),
            t(5, "tfa", 2, -0.70, 98.0),
        ]
    }

    #[test]
    fn level_means_are_correct() {
        let eff = ParamEffect::compute(&sample(), "framework", &metrics());
        assert_eq!(eff.levels.len(), 3);
        let (v, stats) = &eff.levels[0];
        assert_eq!(v, &ParamValue::Str("rllib".into()));
        let s = stats.get("time_min").unwrap();
        assert_eq!(s.n, 2);
        assert!((s.mean - 47.5).abs() < 1e-12);
        assert_eq!(s.min, 46.0);
        assert_eq!(s.max, 49.0);
    }

    #[test]
    fn best_level_respects_direction() {
        let eff = ParamEffect::compute(&sample(), "framework", &metrics());
        // Best mean reward: sb (-0.46); best mean time: rllib (47.5).
        assert_eq!(
            eff.best_level(&MetricDef::maximize("reward")),
            Some(&ParamValue::Str("sb".into()))
        );
        assert_eq!(
            eff.best_level(&MetricDef::minimize("time_min")),
            Some(&ParamValue::Str("rllib".into()))
        );
    }

    #[test]
    fn cores_effect_matches_paper_narrative() {
        // §VI-D: more cores → faster.
        let eff = ParamEffect::compute(&sample(), "cores", &metrics());
        assert_eq!(eff.best_level(&MetricDef::minimize("time_min")), Some(&ParamValue::Int(4)));
    }

    #[test]
    fn incomplete_trials_are_ignored() {
        let mut trials = sample();
        let mut bad = t(6, "sb", 4, 100.0, 0.0);
        bad.status = TrialStatus::Failed;
        trials.push(bad);
        let eff = ParamEffect::compute(&trials, "framework", &metrics());
        let (_, stats) =
            eff.levels.iter().find(|(v, _)| v == &ParamValue::Str("sb".into())).unwrap();
        assert_eq!(stats.get("reward").unwrap().n, 2, "failed trial must not count");
    }

    #[test]
    fn missing_parameter_yields_empty_effect() {
        let eff = ParamEffect::compute(&sample(), "nonexistent", &metrics());
        assert!(eff.levels.is_empty());
        assert_eq!(eff.best_level(&MetricDef::maximize("reward")), None);
    }

    #[test]
    fn render_contains_all_levels() {
        let eff = ParamEffect::compute(&sample(), "framework", &metrics());
        let s = eff.render(&metrics());
        for needle in ["rllib", "sb", "tfa", "reward (mean)", "time_min (mean)"] {
            assert!(s.contains(needle), "missing {needle}:\n{s}");
        }
    }

    #[test]
    fn continuous_parameters_are_quartile_binned() {
        let trials: Vec<Trial> = (0..20)
            .map(|i| {
                let lr = 1e-4 * (i + 1) as f64;
                Trial::complete(
                    i,
                    Configuration::new().with("lr", ParamValue::Float(lr)),
                    MetricValues::new().with("reward", -lr * 100.0).with("time_min", 50.0),
                )
            })
            .collect();
        let eff = ParamEffect::compute(&trials, "lr", &metrics());
        assert!(eff.levels.len() <= 4, "binned into at most 4 quartiles");
        assert!(eff.levels.len() >= 3);
        // Reward decreases with lr, so the first bin must have the best mean.
        let first = eff.levels[0].1.get("reward").unwrap().mean;
        let last = eff.levels.last().unwrap().1.get("reward").unwrap().mean;
        assert!(first > last);
        // Every trial lands in exactly one bin.
        let n: usize = eff.levels.iter().map(|(_, s)| s.get("reward").unwrap().n).sum();
        assert_eq!(n, 20);
    }

    #[test]
    fn few_distinct_floats_stay_unbinned() {
        let trials: Vec<Trial> = (0..6)
            .map(|i| {
                Trial::complete(
                    i,
                    Configuration::new().with("x", ParamValue::Float((i % 2) as f64)),
                    MetricValues::new().with("reward", 0.0).with("time_min", 1.0),
                )
            })
            .collect();
        let eff = ParamEffect::compute(&trials, "x", &metrics());
        assert_eq!(eff.levels.len(), 2, "two distinct values keep their own rows");
    }

    #[test]
    fn all_effects_covers_every_space_param() {
        let space = ParamSpace::builder()
            .categorical("framework", ["rllib", "sb", "tfa"])
            .categorical_int("cores", [2, 4])
            .build();
        let effects = all_effects(&sample(), &space, &metrics());
        assert_eq!(effects.len(), 2);
        assert_eq!(effects[0].param, "framework");
        assert_eq!(effects[1].param, "cores");
    }
}
