//! The record maps the name-ordered vectors replaced, kept as their test
//! oracle: `MetricValues` and `Configuration` on `BTreeMap<String, _>`,
//! every name an owned `String`. The type and field names are the
//! originals', so that their `Debug` text is the one to match.

use crate::distribution::Distribution;
use crate::param::ParamValue;
use crate::wal::oracle::{push_config, push_metrics, snap_line};
use std::collections::BTreeMap;
use telemetry::{FieldValue, SnapEvent};

/// Metric values on two maps.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct MetricValues {
    values: BTreeMap<String, f64>,
    dists: BTreeMap<String, Distribution>,
}

impl MetricValues {
    pub(crate) fn set(&mut self, name: &str, v: f64) {
        self.values.insert(name.to_string(), v);
    }

    pub(crate) fn set_distribution(&mut self, name: &str, dist: Distribution) {
        self.dists.insert(name.to_string(), dist);
    }

    pub(crate) fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    pub(crate) fn distribution(&self, name: &str) -> Option<&Distribution> {
        self.dists.get(name)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, f64)> {
        self.values.iter().map(|(k, v)| (k.as_str(), *v))
    }

    pub(crate) fn distributions(&self) -> impl Iterator<Item = (&str, &Distribution)> {
        self.dists.iter().map(|(k, v)| (k.as_str(), v))
    }
}

/// A configuration on one map.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct Configuration {
    values: BTreeMap<String, ParamValue>,
}

impl Configuration {
    pub(crate) fn set(&mut self, name: &str, v: ParamValue) {
        self.values.insert(name.to_string(), v);
    }

    pub(crate) fn get(&self, name: &str) -> Option<&ParamValue> {
        self.values.get(name)
    }

    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.values.iter().map(|(k, v)| (k.as_str(), v))
    }

    pub(crate) fn canonical_key(&self) -> String {
        let mut s = String::new();
        for (k, v) in &self.values {
            s.push_str(k);
            s.push('=');
            s.push_str(&v.to_string());
            s.push(';');
        }
        s
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (k, v) in &self.values {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// The `trial.reused` line the tree codec writes for trial `trial` at
/// `seq` with these records and no intermediate report.
pub(crate) fn reused_line(
    seq: u64,
    trial: usize,
    config: &Configuration,
    status: &str,
    metrics: &MetricValues,
) -> String {
    let mut fields = vec![("trial".to_string(), FieldValue::U64(trial as u64))];
    push_config(&mut fields, config.iter());
    fields.push(("status".into(), FieldValue::Str(status.into())));
    push_metrics(&mut fields, metrics.iter(), metrics.distributions());
    snap_line(SnapEvent { t_ns: seq, thread: 0, key: "trial.reused".into(), fields })
}
