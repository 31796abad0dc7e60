//! CSV export of trials (for external plotting/analysis tools).

use super::{push_param, Intervals, PerColumn};
use crate::distribution::BootstrapSpec;
use crate::metrics::MetricDef;
use crate::param::ParamValue;
use crate::trial::{Trial, TrialStatus};
use std::borrow::Cow;
use std::fmt::Write as _;
use telemetry::push_shortest;

/// Serialize trials as CSV with columns `id, <params…>, <metrics…>,
/// status`. Fields containing commas, quotes or line breaks are quoted per
/// RFC 4180.
pub fn trials_to_csv(trials: &[Trial], params: &[&str], metrics: &[MetricDef]) -> String {
    render(trials, params, metrics, None)
}

/// Like [`trials_to_csv`], but each metric column is followed by four
/// dispersion columns computed from the trial's attached sample
/// distribution: `<m>_std`, `<m>_iqr`, `<m>_ci_lo`, `<m>_ci_hi` (the
/// bootstrap confidence bounds under `spec`). Trials without a
/// distribution for a metric leave those four fields empty, so scalar-only
/// studies still export cleanly.
pub fn trials_to_csv_with_dispersion(
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
    let mut out = String::from("id");
    for p in params {
        out.push(',');
        out.push_str(&escape(p));
    }
    for m in metrics {
        out.push(',');
        out.push_str(&escape(&m.name));
        if cis.is_some() {
            for suffix in ["std", "iqr", "ci_lo", "ci_hi"] {
                out.push(',');
                out.push_str(&escape(&format!("{}_{suffix}", m.name)));
            }
        }
    }
    out.push_str(",status\n");

    // Rows go straight into `out`. A number's text has no comma, quote or
    // line break, so only labels need escaping.
    for t in trials {
        let _ = write!(out, "{}", t.id);
        for p in params {
            out.push(',');
            match t.config.get(p) {
                Some(ParamValue::Str(label)) => out.push_str(&escape(label)),
                Some(v) => push_param(&mut out, v),
                None => {}
            }
        }
        for (column, m) in metrics.iter().enumerate() {
            out.push(',');
            if let Some(v) = t.metrics.get(&m.name) {
                push_shortest(&mut out, v);
            }
            if let Some(cis) = &mut cis {
                match t.metrics.distribution(&m.name).filter(|d| !d.is_empty()) {
                    Some(d) => {
                        let ci = cis.ci(column, d);
                        for x in [d.std(), d.iqr(), ci.lo, ci.hi] {
                            out.push(',');
                            push_shortest(&mut out, x);
                        }
                    }
                    None => out.push_str(",,,,"),
                }
            }
        }
        out.push_str(match t.status {
            TrialStatus::Complete => ",complete\n",
            TrialStatus::Pruned => ",pruned\n",
            TrialStatus::Failed => ",failed\n",
        });
    }
    out
}

/// `field` as one CSV field: quoted, with its quotes doubled, when it holds
/// a comma, a quote or a line break (`\n` or `\r`, RFC 4180).
fn escape(field: &str) -> Cow<'_, str> {
    if field.contains([',', '"', '\n', '\r']) {
        Cow::Owned(format!("\"{}\"", field.replace('"', "\"\"")))
    } else {
        Cow::Borrowed(field)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::MetricValues;
    use crate::param::ParamValue;
    use crate::trial::Configuration;

    #[test]
    fn csv_round_shape() {
        let trials = vec![Trial::complete(
            0,
            Configuration::new().with("fw", ParamValue::Str("RLlib".into())),
            MetricValues::new().with("reward", -0.5),
        )];
        let csv = trials_to_csv(&trials, &["fw"], &[MetricDef::maximize("reward")]);
        let mut lines = csv.lines();
        assert_eq!(lines.next(), Some("id,fw,reward,status"));
        assert_eq!(lines.next(), Some("0,RLlib,-0.5,complete"));
        assert_eq!(lines.next(), None);
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let trials = vec![Trial::complete(
            0,
            Configuration::new().with("note", ParamValue::Str("a,b".into())),
            MetricValues::new().with("m", 1.0),
        )];
        let csv = trials_to_csv(&trials, &["note"], &[MetricDef::maximize("m")]);
        assert!(csv.contains("\"a,b\""));
    }

    #[test]
    fn quotes_are_doubled() {
        assert_eq!(escape("x\"y"), "\"x\"\"y\"");
        assert_eq!(escape("plain"), "plain");
    }

    #[test]
    fn labels_with_a_carriage_return_are_quoted() {
        // RFC 4180 quotes CR as it quotes LF: a bare one would end the
        // record for a reader that takes CR LF or a lone CR as a break.
        let trials = vec![Trial::complete(
            0,
            Configuration::new().with("fw", ParamValue::Str("Ray\rRLlib".into())),
            MetricValues::new().with("reward", 1.0),
        )];
        let csv = trials_to_csv(&trials, &["fw"], &[MetricDef::maximize("reward")]);
        assert_eq!(csv, "id,fw,reward,status\n0,\"Ray\rRLlib\",1,complete\n");
        assert_eq!(escape("a\rb"), "\"a\rb\"");
    }

    #[test]
    fn float_parameters_and_metrics_are_written_as_display_writes_them() {
        let values = [0.1, -2.5e-7, 1e21, 123456.789, f64::NAN, f64::NEG_INFINITY, -0.0];
        let trials: Vec<Trial> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| {
                let config = Configuration::new().with("lr", ParamValue::Float(v));
                Trial::complete(i, config, MetricValues::new().with("reward", v))
            })
            .collect();
        let csv = trials_to_csv(&trials, &["lr"], &[MetricDef::maximize("reward")]);
        for (line, v) in csv.lines().skip(1).zip(values) {
            let cells: Vec<&str> = line.split(',').collect();
            assert_eq!(cells[1], format!("{v}"));
            assert_eq!(cells[2], format!("{v}"));
        }
    }

    #[test]
    fn dispersion_columns_follow_each_metric() {
        let mut m = MetricValues::new().with("reward", 2.0);
        m.set_distribution("reward", (1..=3).map(f64::from).collect());
        let trials = vec![
            Trial::complete(0, Configuration::new(), m),
            Trial::complete(1, Configuration::new(), MetricValues::new().with("reward", 5.0)),
        ];
        let spec = BootstrapSpec::default();
        let csv =
            trials_to_csv_with_dispersion(&trials, &[], &[MetricDef::maximize("reward")], &spec);
        let mut lines = csv.lines();
        assert_eq!(
            lines.next(),
            Some("id,reward,reward_std,reward_iqr,reward_ci_lo,reward_ci_hi,status")
        );
        let row0 = lines.next().unwrap();
        let cells: Vec<&str> = row0.split(',').collect();
        assert_eq!(cells[1], "2");
        let ci_lo: f64 = cells[4].parse().unwrap();
        let ci_hi: f64 = cells[5].parse().unwrap();
        assert!(ci_lo <= 2.0 && 2.0 <= ci_hi, "CI [{ci_lo}, {ci_hi}] must cover the mean");
        // Scalar-only trial: the four dispersion fields are empty, not 0.
        assert_eq!(lines.next(), Some("1,5,,,,,complete"));
    }

    #[test]
    fn plain_csv_ignores_attached_distributions() {
        // Without a spec the shared body must emit no dispersion column
        // and never read the attached distribution.
        let mut m = MetricValues::new().with("reward", -0.45).with("time_min", 65.0);
        m.set_distribution("reward", vec![-0.5, -0.45, -0.4].into());
        let trials = vec![
            Trial::complete(0, Configuration::new().with("fw", ParamValue::Str("sb".into())), m),
            Trial::complete(
                1,
                Configuration::new().with("fw", ParamValue::Str("ray".into())),
                MetricValues::new().with("reward", -0.73).with("time_min", 80.0),
            ),
        ];
        let metrics = [MetricDef::maximize("reward"), MetricDef::minimize("time_min")];
        assert_eq!(
            trials_to_csv(&trials, &["fw"], &metrics),
            "id,fw,reward,time_min,status\n0,sb,-0.45,65,complete\n1,ray,-0.73,80,complete\n"
        );
    }

    #[test]
    fn missing_values_are_empty_fields() {
        let trials = vec![Trial::complete(0, Configuration::new(), MetricValues::new())];
        let csv = trials_to_csv(&trials, &["fw"], &[MetricDef::maximize("reward")]);
        assert!(csv.lines().nth(1).unwrap().starts_with("0,,"));
    }
}
