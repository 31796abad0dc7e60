//! Table-I-style ASCII rendering.

use super::{push_param, Intervals, PerColumn};
use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::trial::{Trial, TrialStatus};
use std::fmt::Write as _;
use telemetry::push_fixed;

/// Render trials as an aligned ASCII table: one row per trial, columns
/// `#`, the given parameters, the given metrics, and the trial status
/// (mirroring Table I's "Configuration | Results" layout).
pub fn render_table(trials: &[Trial], params: &[&str], metrics: &[MetricDef]) -> String {
    render(trials, params, metrics, None)
}

/// Like [`render_table`], but each metric gets two extra columns computed
/// from the trial's attached sample distribution: `<m> std` (sample
/// standard deviation) and the bootstrap confidence interval under
/// `spec`. Trials
/// without a distribution show `-` in both, so scalar-only studies render
/// the same numbers they always did, just with two sparse columns.
pub fn render_table_with_dispersion(
    trials: &[Trial],
    params: &[&str],
    metrics: &[MetricDef],
    spec: &BootstrapSpec,
) -> String {
    render(trials, params, metrics, Some(&mut PerColumn::for_metrics(spec, metrics, trials)))
}

pub(super) fn render(
    trials: &[Trial],
    params: &[&str],
    metrics: &[MetricDef],
    mut cis: Option<&mut dyn Intervals>,
) -> String {
    // Every cell's text in one arena, header row first; a cell ends where
    // `ends` says.
    let mut cells = Cells::default();
    cells.push("#");
    for p in params {
        cells.push(p);
    }
    for m in metrics {
        cells.push(&m.name);
        if cis.is_some() {
            cells.push_pair(&m.name, " std");
            cells.push_pair(&m.name, " CI");
        }
    }
    cells.push("status");
    let ncols = cells.ends.len();

    for t in trials {
        let _ = write!(cells.text, "{}", t.id + 1);
        cells.end();
        for p in params {
            match t.config.get(p) {
                Some(v) => push_param(&mut cells.text, v),
                None => cells.text.push('-'),
            }
            cells.end();
        }
        for (column, m) in metrics.iter().enumerate() {
            match t.metrics.get(&m.name) {
                Some(v) => push_fixed(&mut cells.text, v, 2),
                None => cells.text.push('-'),
            }
            cells.end();
            if let Some(cis) = &mut cis {
                match t.metrics.distribution(&m.name).filter(|d| !d.is_empty()) {
                    Some(d) => {
                        let ci = cis.ci(column, d);
                        push_fixed(&mut cells.text, d.std(), 2);
                        cells.end();
                        let text = &mut cells.text;
                        text.push('[');
                        push_fixed(text, ci.lo, 2);
                        text.push_str(", ");
                        push_fixed(text, ci.hi, 2);
                        text.push(']');
                        cells.end();
                    }
                    None => {
                        cells.push("-");
                        cells.push("-");
                    }
                }
            }
        }
        cells.push(match t.status {
            TrialStatus::Complete => "ok",
            TrialStatus::Pruned => "pruned",
            TrialStatus::Failed => "failed",
        });
    }

    // Widths in bytes, as `str::len` counts them.
    let mut widths = vec![0; ncols];
    for (i, cell) in cells.iter().enumerate() {
        widths[i % ncols] = widths[i % ncols].max(cell.len());
    }
    let mut rule = String::from("+");
    for w in &widths {
        rule.extend(std::iter::repeat_n('-', w + 2));
        rule.push('+');
    }
    rule.push('\n');

    let line_len = rule.len() + 2 * ncols;
    let mut out = String::with_capacity(line_len * (trials.len() + 4));
    out.push_str(&rule);
    for (i, cell) in cells.iter().enumerate() {
        let column = i % ncols;
        out.push_str(if column == 0 { "| " } else { " " });
        // `{:>w$}` pads to `w` characters, and `w` is a byte count.
        out.extend(std::iter::repeat_n(' ', widths[column].saturating_sub(cell.chars().count())));
        out.push_str(cell);
        out.push_str(" |");
        if column + 1 == ncols {
            out.push('\n');
            if i + 1 == ncols {
                out.push_str(&rule);
            }
        }
    }
    out.push_str(&rule);
    out
}

/// The cells of a table, row by row: their text in one buffer, and where
/// each one ends.
#[derive(Default)]
struct Cells {
    text: String,
    ends: Vec<usize>,
}

impl Cells {
    /// End the cell written since the last one ended.
    fn end(&mut self) {
        self.ends.push(self.text.len());
    }

    fn push(&mut self, cell: &str) {
        self.text.push_str(cell);
        self.end();
    }

    fn push_pair(&mut self, a: &str, b: &str) {
        self.text.push_str(a);
        self.push(b);
    }

    fn iter(&self) -> impl Iterator<Item = &str> {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, &end)| &self.text[start..end])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{MetricDef, MetricValues};
    use crate::param::ParamValue;
    use crate::trial::Configuration;

    fn sample_trials() -> Vec<Trial> {
        vec![
            Trial::complete(
                0,
                Configuration::new()
                    .with("rk_order", ParamValue::Int(3))
                    .with("framework", ParamValue::Str("RLlib".into())),
                MetricValues::new().with("reward", -0.65).with("time_min", 46.0),
            ),
            Trial::complete(
                1,
                Configuration::new()
                    .with("rk_order", ParamValue::Int(8))
                    .with("framework", ParamValue::Str("SB".into())),
                MetricValues::new().with("reward", -0.45).with("time_min", 65.0),
            ),
        ]
    }

    fn metrics() -> Vec<MetricDef> {
        vec![MetricDef::maximize("reward"), MetricDef::minimize("time_min")]
    }

    #[test]
    fn table_contains_every_cell() {
        let s = render_table(&sample_trials(), &["rk_order", "framework"], &metrics());
        for needle in [
            "rk_order",
            "framework",
            "reward",
            "time_min",
            "RLlib",
            "SB",
            "-0.65",
            "-0.45",
            "46.00",
            "65.00",
            "ok",
        ] {
            assert!(s.contains(needle), "missing {needle} in:\n{s}");
        }
    }

    #[test]
    fn rows_are_one_indexed_like_the_paper() {
        let s = render_table(&sample_trials(), &["rk_order"], &metrics());
        assert!(s.contains("| 1 |") || s.contains("|  1 |") || s.contains(" 1 |"));
    }

    #[test]
    fn missing_values_render_as_dash() {
        let t = Trial::complete(0, Configuration::new(), MetricValues::new());
        let mut failed = t.clone();
        failed.status = TrialStatus::Failed;
        let s = render_table(&[failed], &["rk_order"], &metrics());
        assert!(s.contains('-'));
        assert!(s.contains("failed"));
    }

    #[test]
    fn all_lines_have_equal_width() {
        let s = render_table(&sample_trials(), &["rk_order", "framework"], &metrics());
        let widths: std::collections::BTreeSet<usize> =
            s.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1, "ragged table:\n{s}");
    }

    #[test]
    fn dispersion_table_stays_aligned_and_sparse() {
        let mut ts = sample_trials();
        ts[0].metrics.set_distribution("reward", vec![-0.7, -0.65, -0.6].into());
        let spec = BootstrapSpec::default();
        let s = render_table_with_dispersion(&ts, &["rk_order"], &metrics(), &spec);
        assert!(s.contains("reward std"));
        assert!(s.contains("reward CI"));
        assert!(s.contains('['), "instrumented row shows an interval:\n{s}");
        let widths: std::collections::BTreeSet<usize> =
            s.lines().map(|l| l.chars().count()).collect();
        assert_eq!(widths.len(), 1, "ragged table:\n{s}");
        // Trial 1 has no distribution: its dispersion cells are dashes.
        let plain = render_table(&ts, &["rk_order"], &metrics());
        assert!(!plain.contains("reward std"), "legacy table unchanged");
    }

    #[test]
    fn empty_trials_render_header_only() {
        let s = render_table(&[], &["rk_order"], &metrics());
        assert!(s.contains("rk_order"));
        assert_eq!(s.lines().count(), 4, "rule, header, rule, closing rule");
    }
}
