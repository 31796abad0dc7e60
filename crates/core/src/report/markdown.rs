//! Markdown rendering of study results (for READMEs / experiment logs).

use super::{push_param, Intervals, PerColumn};
use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::param::ParamValue;
use crate::rank::pareto::ParetoFront;
use crate::trial::{Trial, TrialStatus};
use std::fmt::Write as _;
use telemetry::push_fixed;

/// Render trials as a GitHub-flavoured markdown table; Pareto-front rows
/// are bolded.
pub fn trials_to_markdown(
    trials: &[Trial],
    params: &[&str],
    metrics: &[MetricDef],
    front: Option<&ParetoFront>,
) -> String {
    render(trials, params, metrics, front, None)
}

/// Like [`trials_to_markdown`], but metric cells carry a bootstrap
/// confidence interval when the trial has a sample distribution attached:
/// `-0.45 [-0.52, -0.39]`. Scalar-only cells render as before, so the
/// table mixes instrumented and legacy trials without surprises.
pub fn trials_to_markdown_with_ci(
    trials: &[Trial],
    params: &[&str],
    metrics: &[MetricDef],
    front: Option<&ParetoFront>,
    spec: &BootstrapSpec,
) -> String {
    render(trials, params, metrics, front, Some(&mut PerColumn::for_metrics(spec, metrics, trials)))
}

pub(super) fn render(
    trials: &[Trial],
    params: &[&str],
    metrics: &[MetricDef],
    front: Option<&ParetoFront>,
    mut cis: Option<&mut dyn Intervals>,
) -> String {
    let mut out = String::with_capacity(64 * (params.len() + metrics.len()) * (trials.len() + 2));
    out.push_str("| # |");
    for p in params {
        out.push(' ');
        push_label(&mut out, p);
        out.push_str(" |");
    }
    for m in metrics {
        out.push(' ');
        push_label(&mut out, &m.name);
        if let Some(cis) = &cis {
            out.push_str(" (");
            push_fixed(&mut out, cis.level() * 100.0, 0);
            out.push_str("% CI)");
        }
        out.push_str(" |");
    }
    out.push_str(" status |\n|---|");
    for _ in 0..params.len() + metrics.len() + 1 {
        out.push_str("---|");
    }
    out.push('\n');

    for (i, t) in trials.iter().enumerate() {
        let on_front = front.map(|f| f.contains(i)).unwrap_or(false);
        let emph = if on_front { "**" } else { "" };
        let _ = write!(out, "| {emph}{}{emph} |", t.id + 1);
        for p in params {
            out.push(' ');
            out.push_str(emph);
            match t.config.get(p) {
                Some(ParamValue::Str(label)) => push_label(&mut out, label),
                Some(v) => push_param(&mut out, v),
                None => out.push('-'),
            }
            out.push_str(emph);
            out.push_str(" |");
        }
        for (column, m) in metrics.iter().enumerate() {
            out.push(' ');
            out.push_str(emph);
            let dist = t.metrics.distribution(&m.name).filter(|d| !d.is_empty());
            match (t.metrics.get(&m.name), cis.as_mut().zip(dist)) {
                (Some(v), Some((cis, d))) => {
                    let ci = cis.ci(column, d);
                    push_fixed(&mut out, v, 2);
                    out.push_str(" [");
                    push_fixed(&mut out, ci.lo, 2);
                    out.push_str(", ");
                    push_fixed(&mut out, ci.hi, 2);
                    out.push(']');
                }
                (Some(v), None) => push_fixed(&mut out, v, 2),
                (None, _) => out.push('-'),
            }
            out.push_str(emph);
            out.push_str(" |");
        }
        out.push_str(match t.status {
            TrialStatus::Complete => " ok |\n",
            TrialStatus::Pruned => " pruned |\n",
            TrialStatus::Failed => " failed |\n",
        });
    }
    out
}

/// A label as one cell's text: a `|` escaped, so that it does not end the
/// cell, and a line break written as a space, so that it does not end the
/// row.
fn push_label(out: &mut String, label: &str) {
    if !label.contains(['|', '\n', '\r']) {
        out.push_str(label);
        return;
    }
    for c in label.chars() {
        match c {
            '|' => out.push_str("\\|"),
            '\n' | '\r' => out.push(' '),
            c => out.push(c),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValues;
    use crate::param::ParamValue;
    use crate::trial::Configuration;

    fn trials() -> Vec<Trial> {
        vec![
            Trial::complete(
                0,
                Configuration::new().with("fw", ParamValue::Str("sb".into())),
                MetricValues::new().with("reward", -0.45).with("time_min", 65.0),
            ),
            Trial::complete(
                1,
                Configuration::new().with("fw", ParamValue::Str("ray".into())),
                MetricValues::new().with("reward", -0.73).with("time_min", 80.0),
            ),
        ]
    }

    fn metrics() -> Vec<MetricDef> {
        vec![MetricDef::maximize("reward"), MetricDef::minimize("time_min")]
    }

    #[test]
    fn header_and_rows_align() {
        let md = trials_to_markdown(&trials(), &["fw"], &metrics(), None);
        let lines: Vec<&str> = md.lines().collect();
        assert!(lines.len() >= 4);
        let cols = lines[0].matches('|').count();
        for l in &lines[1..] {
            assert_eq!(l.matches('|').count(), cols, "misaligned row: {l}");
        }
    }

    /// The `|` that delimit cells: not those escaped as `\\|`.
    fn delimiters(line: &str) -> usize {
        line.matches('|').count() - line.matches("\\|").count()
    }

    #[test]
    fn a_pipe_or_a_line_break_in_a_label_stays_inside_its_cell() {
        let mut ts = trials();
        ts[1].config.set("f|w", ParamValue::Str("a|b".into()));
        ts[0].config.set("f|w", ParamValue::Str("two\nlines\r".into()));
        let metrics = [MetricDef::maximize("re|ward"), MetricDef::minimize("time\nmin")];
        let md = trials_to_markdown(&ts, &["f|w"], &metrics, None);
        let lines: Vec<&str> = md.lines().collect();
        assert_eq!(lines.len(), 4, "{md}");
        let cols = delimiters(lines[0]);
        assert_eq!(cols, 6, "{md}");
        for l in &lines {
            assert_eq!(delimiters(l), cols, "misaligned row: {l}");
        }
        assert!(md.contains(" a\\|b |") && md.contains(" two lines  |"), "{md}");
        assert!(md.starts_with("| # | f\\|w | re\\|ward | time min | status |"), "{md}");
    }

    #[test]
    fn front_rows_are_bolded() {
        let ts = trials();
        let front = ParetoFront::compute(&ts, &metrics());
        assert_eq!(front.indices(), &[0]);
        let md = trials_to_markdown(&ts, &["fw"], &metrics(), Some(&front));
        assert!(md.contains("**sb**"));
        assert!(!md.contains("**ray**"));
    }

    #[test]
    fn ci_cells_bracket_the_point_estimate() {
        let mut ts = trials();
        ts[0].metrics.set_distribution("reward", vec![-0.5, -0.45, -0.4].into());
        let md =
            trials_to_markdown_with_ci(&ts, &["fw"], &metrics(), None, &BootstrapSpec::default());
        assert!(md.contains("reward (95% CI)"), "header names the level:\n{md}");
        assert!(md.contains('['), "instrumented cell shows an interval:\n{md}");
        // The scalar-only trial still renders a bare point estimate.
        assert!(md.contains(" -0.73 |"), "legacy cell unchanged:\n{md}");
        let plain = trials_to_markdown(&ts, &["fw"], &metrics(), None);
        let cols = plain.lines().next().unwrap().matches('|').count();
        for l in md.lines() {
            assert_eq!(l.matches('|').count(), cols, "misaligned row: {l}");
        }
    }

    #[test]
    fn plain_markdown_ignores_attached_distributions() {
        // Without a spec the shared body must emit plain headers and
        // cells and never read the attached distribution.
        let mut ts = trials();
        ts[0].metrics.set_distribution("reward", vec![-0.5, -0.45, -0.4].into());
        let front = ParetoFront::compute(&ts, &metrics());
        assert_eq!(
            trials_to_markdown(&ts, &["fw"], &metrics(), Some(&front)),
            "| # | fw | reward | time_min | status |\n\
             |---|---|---|---|---|\n\
             | **1** | **sb** | **-0.45** | **65.00** | ok |\n\
             | 2 | ray | -0.73 | 80.00 | ok |\n"
        );
    }

    #[test]
    fn missing_values_render_dash() {
        let t = Trial::complete(0, Configuration::new(), MetricValues::new());
        let md = trials_to_markdown(&[t], &["fw"], &metrics(), None);
        assert!(md.contains("| - |"));
    }
}
