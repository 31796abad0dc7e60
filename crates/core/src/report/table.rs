//! Table-I-style ASCII rendering.

use super::{Intervals, PerColumn};
use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::trial::{Trial, TrialStatus};

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
    let mut header: Vec<String> = vec!["#".to_string()];
    header.extend(params.iter().map(|p| p.to_string()));
    for m in metrics {
        header.push(m.name.clone());
        if cis.is_some() {
            header.push(format!("{} std", m.name));
            header.push(format!("{} CI", m.name));
        }
    }
    header.push("status".to_string());

    let mut rows: Vec<Vec<String>> = Vec::with_capacity(trials.len());
    for t in trials {
        let mut row = vec![(t.id + 1).to_string()];
        for p in params {
            row.push(t.config.get(p).map(|v| v.to_string()).unwrap_or_else(|| "-".into()));
        }
        for (column, m) in metrics.iter().enumerate() {
            row.push(
                t.metrics.get(&m.name).map(|v| format!("{v:.2}")).unwrap_or_else(|| "-".into()),
            );
            if let Some(cis) = &mut cis {
                match t.metrics.distribution(&m.name).filter(|d| !d.is_empty()) {
                    Some(d) => {
                        let ci = cis.ci(column, d);
                        row.push(format!("{:.2}", d.std()));
                        row.push(format!("[{:.2}, {:.2}]", ci.lo, ci.hi));
                    }
                    None => {
                        row.push("-".into());
                        row.push("-".into());
                    }
                }
            }
        }
        row.push(
            match t.status {
                TrialStatus::Complete => "ok",
                TrialStatus::Pruned => "pruned",
                TrialStatus::Failed => "failed",
            }
            .to_string(),
        );
        rows.push(row);
    }

    let ncols = header.len();
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }

    let line = |cells: &[String]| -> String {
        let mut s = String::from("|");
        for (i, c) in cells.iter().enumerate() {
            s.push_str(&format!(" {:>w$} |", c, w = widths[i]));
        }
        s.push('\n');
        s
    };
    let rule = || -> String {
        let mut s = String::from("+");
        for w in widths.iter().take(ncols) {
            s.push_str(&"-".repeat(w + 2));
            s.push('+');
        }
        s.push('\n');
        s
    };

    let mut out = String::new();
    out.push_str(&rule());
    out.push_str(&line(&header));
    out.push_str(&rule());
    for row in &rows {
        out.push_str(&line(row));
    }
    out.push_str(&rule());
    out
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
