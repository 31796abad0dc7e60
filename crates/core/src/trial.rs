//! Configurations and trials.

use crate::metrics::{MetricValues, Name, Named};
use crate::param::ParamValue;
use std::fmt::Write;

/// An assignment of values to parameters — one point of the search space.
///
/// A clone allocates the one vector of assignments and a copy of each
/// string label; the names are shared.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Configuration {
    values: Named<ParamValue>,
}

impl Configuration {
    /// Empty configuration.
    pub fn new() -> Self {
        Self::default()
    }

    /// Assign a value.
    pub(crate) fn set(&mut self, name: impl Into<Name>, v: ParamValue) {
        self.values.insert(name.into(), v);
    }

    /// Builder-style assignment.
    pub fn with(mut self, name: &str, v: ParamValue) -> Self {
        self.set(name, v);
        self
    }

    /// Raw value lookup.
    pub(crate) fn get(&self, name: &str) -> Option<&ParamValue> {
        self.values.get(name)
    }

    /// Typed integer lookup.
    pub fn int(&self, name: &str) -> Option<i64> {
        self.get(name).and_then(ParamValue::as_int)
    }

    /// Typed float lookup (ints coerce).
    pub fn float(&self, name: &str) -> Option<f64> {
        self.get(name).and_then(ParamValue::as_float)
    }

    /// Typed string lookup.
    pub fn str(&self, name: &str) -> Option<&str> {
        self.get(name).and_then(ParamValue::as_str)
    }

    /// Iterate `(name, value)` pairs in name order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.values.iter()
    }

    /// Number of assigned parameters.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True when nothing is assigned.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// A canonical text key (for deduplication by explorers).
    pub fn canonical_key(&self) -> String {
        let mut s = String::new();
        self.push_canonical_key(&mut s);
        s
    }

    /// Append [`Self::canonical_key`] to `out`.
    pub(crate) fn push_canonical_key(&self, out: &mut String) {
        for (k, v) in self.iter() {
            // Writing to a `String` cannot fail.
            let _ = write!(out, "{k}={v};");
        }
    }
}

impl std::fmt::Display for Configuration {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut first = true;
        for (k, v) in self.iter() {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{k}={v}")?;
            first = false;
        }
        Ok(())
    }
}

/// The lifecycle state of a trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TrialStatus {
    /// Finished and produced metrics.
    Complete,
    /// Stopped early by a pruner ("automatically stop unpromising
    /// trials", §III-C).
    Pruned,
    /// The objective returned an error.
    Failed,
}

/// One evaluated configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// Sequential id within the study.
    pub id: usize,
    /// The evaluated configuration.
    pub config: Configuration,
    /// Collected metric values (empty unless `Complete`).
    pub metrics: MetricValues,
    /// Outcome.
    pub status: TrialStatus,
    /// Intermediate values reported to the pruner, as `(step, value)`.
    pub intermediate: Vec<(u64, f64)>,
    /// Error message for failed trials.
    pub error: Option<String>,
    /// True when the outcome was adopted from the reuse cache instead of
    /// executing the objective (recorded as a `trial.reused` WAL event).
    pub reused: bool,
}

impl Trial {
    /// A completed trial.
    pub fn complete(id: usize, config: Configuration, metrics: MetricValues) -> Self {
        Self {
            id,
            config,
            metrics,
            status: TrialStatus::Complete,
            intermediate: Vec::new(),
            error: None,
            reused: false,
        }
    }

    /// Whether the trial finished with metrics.
    pub fn is_complete(&self) -> bool {
        self.status == TrialStatus::Complete
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn typed_lookups() {
        let cfg = Configuration::new()
            .with("a", ParamValue::Int(3))
            .with("b", ParamValue::Str("PPO".into()))
            .with("c", ParamValue::Bool(true))
            .with("d", ParamValue::Float(0.5));
        assert_eq!(cfg.int("a"), Some(3));
        assert_eq!(cfg.float("a"), Some(3.0));
        assert_eq!(cfg.str("b"), Some("PPO"));
        assert_eq!(cfg.float("d"), Some(0.5));
        assert_eq!(cfg.int("missing"), None);
        assert_eq!(cfg.len(), 4);
    }

    #[test]
    fn canonical_key_is_order_independent() {
        let a = Configuration::new().with("x", ParamValue::Int(1)).with("y", ParamValue::Int(2));
        let b = Configuration::new().with("y", ParamValue::Int(2)).with("x", ParamValue::Int(1));
        assert_eq!(a.canonical_key(), b.canonical_key());
    }

    #[test]
    fn display_lists_pairs() {
        let cfg = Configuration::new()
            .with("cores", ParamValue::Int(4))
            .with("algo", ParamValue::Str("PPO".into()));
        assert_eq!(cfg.to_string(), "algo=PPO, cores=4");
    }

    #[test]
    fn trial_completion() {
        let t = Trial::complete(0, Configuration::new(), MetricValues::new());
        assert!(t.is_complete());
        let mut p = t.clone();
        p.status = TrialStatus::Pruned;
        assert!(!p.is_complete());
    }
}
