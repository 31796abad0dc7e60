//! Rendering study results: ASCII tables (Table I), CSV exports, and SVG
//! scatter plots of Pareto fronts (Figures 4–6).

use crate::distribution::{intervals, Bootstrap, BootstrapSpec, Ci, Distribution};
use crate::metrics::MetricDef;
use crate::param::ParamValue;
use crate::trial::Trial;
use std::fmt::Write as _;
use telemetry::push_shortest;

pub mod csv;
pub mod markdown;
pub mod svg;
pub mod table;

/// Append a parameter value as its `Display` writes it.
fn push_param(out: &mut String, value: &ParamValue) {
    match value {
        ParamValue::Int(i) => {
            let _ = write!(out, "{i}");
        }
        ParamValue::Float(f) => push_shortest(out, *f),
        ParamValue::Str(s) => out.push_str(s),
        ParamValue::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
    }
}

/// Where a report's confidence intervals come from. The renderers ask
/// for one by metric column; what answers is [`PerColumn`] behind every
/// public entry point and the serial reference loop in this module's
/// tests.
trait Intervals {
    /// The confidence level the intervals are computed at.
    fn level(&self) -> f64;

    /// The interval of `dist`, a cell of metric column `column`.
    fn ci(&mut self, column: usize, dist: &Distribution) -> Ci;
}

/// One [`Bootstrap`] per metric column, so that a column's resample plan
/// is drawn once and shared down the rows (a column's distributions have
/// one length as a rule; two columns' need not).
struct PerColumn {
    level: f64,
    columns: Vec<Bootstrap>,
}

impl PerColumn {
    /// The intervals of the metric columns `names` for the trials `rows`.
    /// Every non-empty cell distribution that keeps no interval yet is
    /// resampled here, across cores, and keeps its interval, so that the
    /// render reads it. One that keeps an interval under another spec is
    /// left to its column's resampler: it cannot keep a second.
    fn new<'a>(
        spec: &BootstrapSpec,
        names: &[&str],
        rows: impl Iterator<Item = &'a Trial> + Clone,
    ) -> Self {
        let cells = names.iter().flat_map(|name| {
            rows.clone().filter_map(move |t| t.metrics.distribution(name).filter(|d| !d.is_empty()))
        });
        let fresh: Vec<&Distribution> = cells.filter(|d| !d.keeps_an_interval()).collect();
        intervals(&fresh, spec);
        Self { level: spec.level, columns: vec![Bootstrap::new(*spec); names.len()] }
    }

    /// [`Self::new`] for a report with a column per metric and a row per trial.
    fn for_metrics(spec: &BootstrapSpec, metrics: &[MetricDef], trials: &[Trial]) -> Self {
        let names: Vec<&str> = metrics.iter().map(|m| m.name.as_str()).collect();
        Self::new(spec, &names, trials.iter())
    }
}

impl Intervals for PerColumn {
    fn level(&self) -> f64 {
        self.level
    }

    fn ci(&mut self, column: usize, dist: &Distribution) -> Ci {
        self.columns[column].ci(dist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::tests::{kept_spec, oracle_ci};
    use crate::metrics::{MetricDef, MetricValues};
    use crate::param::ParamValue;
    use crate::rank::ParetoFront;
    use crate::trial::{Configuration, Trial, TrialStatus};
    use svg::ScatterPlot;
    use testkit::Gen;

    /// The interval every report printed before the resampler was shared:
    /// the serial loop, afresh for every cell.
    struct Oracle(BootstrapSpec);

    impl Intervals for Oracle {
        fn level(&self) -> f64 {
            self.0.level
        }

        fn ci(&mut self, _column: usize, dist: &Distribution) -> Ci {
            oracle_ci(dist, &self.0)
        }
    }

    /// 300 trials: reward samples whose count changes every few rows (a
    /// column's plan is redrawn mid-report), time samples on every third
    /// trial at a length of their own, no energy samples, one failure.
    fn fixture() -> Vec<Trial> {
        let mut rng = Gen::new(0x300);
        let trial = |id: usize| {
            let reward =
                Distribution::from_samples(rng.f64s([64, 20, 1, 33][id / 7 % 4], -1.0..0.0));
            let mut metrics = MetricValues::new()
                .with("reward", reward.mean())
                .with("time_min", rng.f64_in(40.0..90.0))
                .with("power_kj", rng.f64_in(1.0..9.0))
                .with_distribution("reward", reward);
            if id.is_multiple_of(3) {
                metrics.set_distribution("time_min", rng.f64s(12, 40.0..90.0).into());
            }
            let config = Configuration::new().with("cores", ParamValue::Int(1 + id as i64 % 8));
            let mut trial = Trial::complete(id, config, metrics);
            if id == 17 {
                trial.status = TrialStatus::Failed;
            }
            trial
        };
        (0..300).map(trial).collect()
    }

    #[test]
    fn every_report_is_byte_identical_to_its_render_from_the_serial_intervals() {
        let trials = fixture();
        let (reward, time) = (MetricDef::maximize("reward"), MetricDef::minimize("time_min"));
        let metrics = [reward.clone(), time.clone(), MetricDef::minimize("power_kj")];
        let params = ["cores"];
        let spec = BootstrapSpec { level: 0.9, resamples: 150, seed: 0x5EED };
        let front = ParetoFront::compute(&trials, &[time.clone(), reward.clone()]);
        let oracle = || Oracle(spec);

        let shared = table::render_table_with_dispersion(&trials, &params, &metrics, &spec);
        assert_eq!(shared, table::render(&trials, &params, &metrics, Some(&mut oracle())));
        assert!(shared.contains('['), "the table carries intervals");

        let shared = csv::trials_to_csv_with_dispersion(&trials, &params, &metrics, &spec);
        assert_eq!(shared, csv::render(&trials, &params, &metrics, Some(&mut oracle())));

        let with_front = Some(&front);
        let shared =
            markdown::trials_to_markdown_with_ci(&trials, &params, &metrics, with_front, &spec);
        let serial = markdown::render(&trials, &params, &metrics, with_front, Some(&mut oracle()));
        assert_eq!(shared, serial);
        assert!(shared.contains("(90% CI)") && shared.contains("**"));

        let plot = ScatterPlot::new("fixture", time, reward).with_whiskers(spec);
        let shared = plot.render(&trials, &front);
        assert_eq!(shared, plot.render_with(&trials, &front, Some(&mut oracle())));
        // A reward whisker for every complete trial, a time whisker for every third.
        assert_eq!(shared.matches("stroke=\"#7f7f7f\"").count(), 299 + 100);
    }

    #[test]
    fn the_reports_render_the_same_bytes_from_kept_intervals() {
        let trials = fixture();
        let (reward, time) = (MetricDef::maximize("reward"), MetricDef::minimize("time_min"));
        let metrics = [reward.clone(), time.clone(), MetricDef::minimize("power_kj")];
        let spec = BootstrapSpec { level: 0.95, resamples: 120, seed: 0xC0DE };
        let front = ParetoFront::compute(&trials, &[time.clone(), reward.clone()]);
        let plot = ScatterPlot::new("fixture", time, reward).with_whiskers(spec);
        let render = |trials: &[Trial]| {
            [
                table::render_table_with_dispersion(trials, &["cores"], &metrics, &spec),
                csv::trials_to_csv_with_dispersion(trials, &["cores"], &metrics, &spec),
                markdown::trials_to_markdown_with_ci(trials, &["cores"], &metrics, None, &spec),
                plot.render(trials, &front),
            ]
        };
        let cold = render(&trials);
        let mut resampled = trials
            .iter()
            .filter(|t| t.is_complete())
            .filter_map(|t| t.metrics.distribution("reward").filter(|d| d.len() > 1));
        assert!(resampled.clone().count() > 200);
        assert!(resampled.all(|d| kept_spec(d) == Some(spec)), "the first pass kept its intervals");
        // A second pass over the same trials reads every interval it prints.
        assert_eq!(render(&trials), cold);
        // And a clone of the trials, carrying the kept intervals, too.
        assert_eq!(render(&trials.clone()), cold);

        // Under another spec every interval is resampled, and the kept
        // ones stay.
        let other = BootstrapSpec { seed: 0xC0DF, ..spec };
        let table = table::render_table_with_dispersion(&trials, &["cores"], &metrics, &other);
        let serial = table::render(&trials, &["cores"], &metrics, Some(&mut Oracle(other)));
        assert_eq!(table, serial);
        assert_ne!(table, cold[0]);
        let mut resampled = trials.iter().filter_map(|t| t.metrics.distribution("reward"));
        assert!(resampled.all(|d| d.len() < 2 || kept_spec(d) == Some(spec)));
    }
}
