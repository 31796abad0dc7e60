//! The study write-ahead log: typed events over the telemetry wire format.
//!
//! A study's durable record is an append-only sequence of [`StudyEvent`]s,
//! one per line, serialized as telemetry `"ty":"event"` JSON records
//! (`telemetry::export::push_event_line`). Reusing that format buys the
//! WAL the exporter's bit-exactness guarantees for free: integers stay
//! bare, f64 values use shortest round-trip text, and non-finite values
//! travel as the `"NaN"`/`"inf"`/`"-inf"` string spellings — so replaying
//! a log reconstructs every metric to identical bits.
//!
//! Event keys and payloads:
//!
//! ```text
//! study.checkpoint  study, seed, explorer, fingerprint, trials
//! trial.started     trial, c.<param>...    (flat typed parameter fields)
//! trial.report      trial, step, value     (one per intermediate report)
//! trial.completed   trial, m.<metric>...   (flat metric fields)
//! trial.pruned      trial, m.<metric>...
//! trial.failed      trial, error, m.<metric>...
//! trial.reused      trial, c.<param>..., status, m.<metric>..., i.<step>...
//! ```
//!
//! Configurations are stored as one `c.<name>` field per parameter.
//! Floats and bools map onto the native field kinds; integer and string
//! parameters both travel as strings, disambiguated by an `i:`/`s:` type
//! tag — the telemetry wire format has no signed-integer kind, and a bare
//! string would be ambiguous with a numeric label.
//!
//! A finished trial is *event-sourced*: its `intermediate` vector is not
//! stored on the finish record but rebuilt from the `trial.report` lines
//! that preceded it, so a crash between reports loses at most the single
//! report that was being appended. `trial.reused` is the one denormalized
//! record — it carries the full cached outcome (including intermediates as
//! `i.<step>` fields) so a log replays without consulting the cache that
//! produced it.
//!
//! [`Replay`] folds an event sequence back into study state: finished
//! trials by id, plus the in-flight trials (started, not yet finished)
//! that a crashed run left behind. A second `trial.started` for an
//! unfinished id supersedes the first — that is exactly what a resumed
//! study emits when it re-runs an interrupted trial.

use crate::metrics::MetricValues;
use crate::param::ParamValue;
use crate::trial::{Configuration, Trial, TrialStatus};
use std::collections::BTreeMap;
use telemetry::{FieldValue, SnapEvent};

/// Event keys used by the study WAL (also validated by the bench
/// `telemetry_smoke` schema check).
pub mod wal_keys {
    /// Study-level checkpoint marker (emitted when a run opens the log).
    pub const CHECKPOINT: &str = "study.checkpoint";
    /// A trial was handed to the objective.
    pub const TRIAL_STARTED: &str = "trial.started";
    /// One intermediate objective report (pruner input).
    pub const TRIAL_REPORT: &str = "trial.report";
    /// The objective returned full metrics.
    pub const TRIAL_COMPLETED: &str = "trial.completed";
    /// The pruner stopped the trial early.
    pub const TRIAL_PRUNED: &str = "trial.pruned";
    /// The objective returned an error.
    pub const TRIAL_FAILED: &str = "trial.failed";
    /// A cached result was adopted without executing the objective.
    pub const TRIAL_REUSED: &str = "trial.reused";
}

/// One durable state transition of a study.
#[derive(Debug, Clone, PartialEq)]
pub enum StudyEvent {
    /// Run-open marker: identifies the study a log belongs to and how many
    /// trials had finished when the writing run began.
    Checkpoint {
        /// Study name.
        study: String,
        /// Exploration RNG seed.
        seed: u64,
        /// Explorer name (`Explorer::name`).
        explorer: String,
        /// Objective fingerprint (reuse-cache component).
        fingerprint: String,
        /// Finished trials at the time the checkpoint was written.
        trials: u64,
    },
    /// Trial `trial` started evaluating `config`.
    TrialStarted {
        /// Sequential trial id.
        trial: usize,
        /// The proposed configuration.
        config: Configuration,
    },
    /// Intermediate report `(step, value)` from trial `trial`.
    TrialReport {
        /// Sequential trial id.
        trial: usize,
        /// Report step.
        step: u64,
        /// Raw (un-oriented) reported value.
        value: f64,
    },
    /// Trial `trial` completed with `metrics`.
    TrialCompleted {
        /// Sequential trial id.
        trial: usize,
        /// Final metric values.
        metrics: MetricValues,
    },
    /// Trial `trial` was pruned; `metrics` holds whatever the objective
    /// returned on early exit.
    TrialPruned {
        /// Sequential trial id.
        trial: usize,
        /// Partial metric values.
        metrics: MetricValues,
    },
    /// Trial `trial` failed with `error`. `metrics` holds any values the
    /// objective reported before failing (a metric-coverage failure keeps
    /// the partial set).
    TrialFailed {
        /// Sequential trial id.
        trial: usize,
        /// The objective's error message.
        error: String,
        /// Partial metric values (often empty).
        metrics: MetricValues,
    },
    /// Trial `trial` adopted a cached outcome instead of executing.
    TrialReused {
        /// Sequential trial id.
        trial: usize,
        /// The configuration whose cached outcome was adopted.
        config: Configuration,
        /// Cached outcome status (`Complete` or `Pruned`).
        status: TrialStatus,
        /// Cached metric values.
        metrics: MetricValues,
        /// Cached intermediate reports.
        intermediate: Vec<(u64, f64)>,
    },
}

impl StudyEvent {
    /// The WAL key this event serializes under.
    pub fn key(&self) -> &'static str {
        match self {
            StudyEvent::Checkpoint { .. } => wal_keys::CHECKPOINT,
            StudyEvent::TrialStarted { .. } => wal_keys::TRIAL_STARTED,
            StudyEvent::TrialReport { .. } => wal_keys::TRIAL_REPORT,
            StudyEvent::TrialCompleted { .. } => wal_keys::TRIAL_COMPLETED,
            StudyEvent::TrialPruned { .. } => wal_keys::TRIAL_PRUNED,
            StudyEvent::TrialFailed { .. } => wal_keys::TRIAL_FAILED,
            StudyEvent::TrialReused { .. } => wal_keys::TRIAL_REUSED,
        }
    }

    /// Encode as a telemetry event record. `seq` (the line's position in
    /// the log) is stored in the `t_ns` slot so the format carries no
    /// wall-clock dependence: re-writing the same study produces a
    /// byte-identical log.
    pub(crate) fn to_snap(&self, seq: u64) -> SnapEvent {
        let mut fields: Vec<(String, FieldValue)> = Vec::new();
        match self {
            StudyEvent::Checkpoint { study, seed, explorer, fingerprint, trials } => {
                fields.push(("study".into(), FieldValue::Str(study.clone())));
                fields.push(("seed".into(), FieldValue::U64(*seed)));
                fields.push(("explorer".into(), FieldValue::Str(explorer.clone())));
                fields.push(("fingerprint".into(), FieldValue::Str(fingerprint.clone())));
                fields.push(("trials".into(), FieldValue::U64(*trials)));
            }
            StudyEvent::TrialStarted { trial, config } => {
                fields.push(("trial".into(), FieldValue::U64(*trial as u64)));
                push_config(&mut fields, config);
            }
            StudyEvent::TrialReport { trial, step, value } => {
                fields.push(("trial".into(), FieldValue::U64(*trial as u64)));
                fields.push(("step".into(), FieldValue::U64(*step)));
                fields.push(("value".into(), FieldValue::F64(*value)));
            }
            StudyEvent::TrialCompleted { trial, metrics }
            | StudyEvent::TrialPruned { trial, metrics } => {
                fields.push(("trial".into(), FieldValue::U64(*trial as u64)));
                push_metrics(&mut fields, metrics);
            }
            StudyEvent::TrialFailed { trial, error, metrics } => {
                fields.push(("trial".into(), FieldValue::U64(*trial as u64)));
                fields.push(("error".into(), FieldValue::Str(error.clone())));
                push_metrics(&mut fields, metrics);
            }
            StudyEvent::TrialReused { trial, config, status, metrics, intermediate } => {
                fields.push(("trial".into(), FieldValue::U64(*trial as u64)));
                push_config(&mut fields, config);
                let status = match status {
                    TrialStatus::Complete => "complete",
                    TrialStatus::Pruned => "pruned",
                    TrialStatus::Failed => "failed",
                };
                fields.push(("status".into(), FieldValue::Str(status.into())));
                push_metrics(&mut fields, metrics);
                for (step, value) in intermediate {
                    fields.push((format!("i.{step}"), FieldValue::F64(*value)));
                }
            }
        }
        SnapEvent { t_ns: seq, thread: 0, key: self.key().to_string(), fields }
    }

    /// Decode a telemetry event record back into a [`StudyEvent`].
    pub(crate) fn from_snap(ev: &SnapEvent) -> Result<StudyEvent, String> {
        match ev.key.as_str() {
            wal_keys::CHECKPOINT => Ok(StudyEvent::Checkpoint {
                study: need_str(ev, "study")?,
                seed: need_u64(ev, "seed")?,
                explorer: need_str(ev, "explorer")?,
                fingerprint: need_str(ev, "fingerprint")?,
                trials: need_u64(ev, "trials")?,
            }),
            wal_keys::TRIAL_STARTED => Ok(StudyEvent::TrialStarted {
                trial: need_u64(ev, "trial")? as usize,
                config: take_config(ev)?,
            }),
            wal_keys::TRIAL_REPORT => Ok(StudyEvent::TrialReport {
                trial: need_u64(ev, "trial")? as usize,
                step: need_u64(ev, "step")?,
                value: need_f64(ev, "value")?,
            }),
            wal_keys::TRIAL_COMPLETED => Ok(StudyEvent::TrialCompleted {
                trial: need_u64(ev, "trial")? as usize,
                metrics: take_metrics(ev)?,
            }),
            wal_keys::TRIAL_PRUNED => Ok(StudyEvent::TrialPruned {
                trial: need_u64(ev, "trial")? as usize,
                metrics: take_metrics(ev)?,
            }),
            wal_keys::TRIAL_FAILED => Ok(StudyEvent::TrialFailed {
                trial: need_u64(ev, "trial")? as usize,
                error: need_str(ev, "error")?,
                metrics: take_metrics(ev)?,
            }),
            wal_keys::TRIAL_REUSED => {
                let status = match need_str(ev, "status")?.as_str() {
                    "complete" => TrialStatus::Complete,
                    "pruned" => TrialStatus::Pruned,
                    "failed" => TrialStatus::Failed,
                    other => return Err(format!("unknown reused-trial status '{other}'")),
                };
                let mut intermediate = Vec::new();
                for (name, value) in &ev.fields {
                    if let Some(step) = name.strip_prefix("i.") {
                        let step =
                            step.parse::<u64>().map_err(|_| format!("bad report step '{name}'"))?;
                        let value = match value {
                            FieldValue::F64(v) => *v,
                            FieldValue::U64(v) => *v as f64,
                            _ => return Err(format!("report field '{name}' must be a number")),
                        };
                        intermediate.push((step, value));
                    }
                }
                Ok(StudyEvent::TrialReused {
                    trial: need_u64(ev, "trial")? as usize,
                    config: take_config(ev)?,
                    status,
                    metrics: take_metrics(ev)?,
                    intermediate,
                })
            }
            other => Err(format!("unknown study WAL event key '{other}'")),
        }
    }

    /// Append this event to `out` as one WAL line (no trailing newline).
    pub(crate) fn push_line(&self, seq: u64, out: &mut String) {
        telemetry::export::push_event_line(out, &self.to_snap(seq));
    }

    /// This event as one WAL line (no trailing newline).
    #[cfg(test)]
    pub(crate) fn to_line(&self, seq: u64) -> String {
        let mut line = String::new();
        self.push_line(seq, &mut line);
        line
    }

    /// Parse one WAL line.
    pub fn from_line(line: &str) -> Result<StudyEvent, String> {
        StudyEvent::from_snap(&telemetry::export::event_from_json_line(line)?)
    }
}

fn push_config(fields: &mut Vec<(String, FieldValue)>, config: &Configuration) {
    for (name, value) in config.iter() {
        let fv = match value {
            // The telemetry F64 spelling is shortest-round-trip, so float
            // parameters replay to identical bits.
            ParamValue::Float(f) => FieldValue::F64(*f),
            ParamValue::Bool(b) => FieldValue::Bool(*b),
            ParamValue::Int(i) => FieldValue::Str(format!("i:{i}")),
            ParamValue::Str(s) => FieldValue::Str(format!("s:{s}")),
        };
        fields.push((["c.", name].concat(), fv));
    }
}

fn take_config(ev: &SnapEvent) -> Result<Configuration, String> {
    let mut config = Configuration::new();
    for (name, value) in &ev.fields {
        if let Some(param) = name.strip_prefix("c.") {
            let v = match value {
                FieldValue::F64(f) => ParamValue::Float(*f),
                FieldValue::U64(u) => ParamValue::Float(*u as f64),
                FieldValue::Bool(b) => ParamValue::Bool(*b),
                FieldValue::Str(s) => {
                    if let Some(i) = s.strip_prefix("i:") {
                        ParamValue::Int(
                            i.parse().map_err(|_| format!("bad int parameter '{name}'"))?,
                        )
                    } else if let Some(text) = s.strip_prefix("s:") {
                        ParamValue::Str(text.to_string())
                    } else {
                        return Err(format!("parameter '{name}' has an unknown type tag"));
                    }
                }
            };
            config.set(param, v);
        }
    }
    Ok(config)
}

fn push_metrics(fields: &mut Vec<(String, FieldValue)>, metrics: &MetricValues) {
    for (name, value) in metrics.iter() {
        fields.push((["m.", name].concat(), FieldValue::F64(value)));
    }
    // Sample distributions ride as separate `d.` fields so the scalar
    // `m.` fields stay byte-identical to pre-distribution journals.
    // Shortest-round-trip text (`telemetry::push_shortest`, `Display`'s
    // bytes) makes the encoding lossless, so resumed studies adopt
    // bit-identical distributions. Each field is written into one buffer,
    // reserved at 24 bytes a sample: a 17-digit sample with its sign,
    // point and comma fits.
    for (name, dist) in metrics.distributions() {
        let samples = dist.samples();
        let mut joined = String::with_capacity(24 * samples.len());
        for (i, &x) in samples.iter().enumerate() {
            if i > 0 {
                joined.push(',');
            }
            telemetry::push_shortest(&mut joined, x);
        }
        fields.push((["d.", name].concat(), FieldValue::Str(joined)));
    }
}

/// The `m.` and `d.` fields of `ev`. A field the writer could not have
/// written — a metric that is not a number, a sample that is not a
/// finite number — is an error, never a skipped value: a distribution
/// one sample short would load as a different ranking.
fn take_metrics(ev: &SnapEvent) -> Result<MetricValues, String> {
    let mut m = MetricValues::new();
    for (name, value) in &ev.fields {
        if let Some(metric) = name.strip_prefix("m.") {
            match value {
                FieldValue::F64(v) => m.set(metric, *v),
                FieldValue::U64(v) => m.set(metric, *v as f64),
                _ => return Err(format!("metric field '{name}' must be a number")),
            }
        } else if let Some(metric) = name.strip_prefix("d.") {
            let FieldValue::Str(s) = value else {
                return Err(format!("distribution field '{name}' must be a string"));
            };
            // `""` is the empty distribution.
            let samples = s
                .split(',')
                .filter(|_| !s.is_empty())
                .map(|x| match x.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(v),
                    _ => Err(format!("distribution field '{name}' holds '{x}', not a sample")),
                })
                .collect::<Result<Vec<f64>, String>>()?;
            m.set_distribution(metric, crate::distribution::Distribution::from_samples(samples));
        }
    }
    Ok(m)
}

fn need_field<'a>(ev: &'a SnapEvent, name: &str) -> Result<&'a FieldValue, String> {
    ev.fields
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, v)| v)
        .ok_or_else(|| format!("{} event missing field '{name}'", ev.key))
}

fn need_str(ev: &SnapEvent, name: &str) -> Result<String, String> {
    match need_field(ev, name)? {
        FieldValue::Str(s) => Ok(s.clone()),
        _ => Err(format!("{} field '{name}' must be a string", ev.key)),
    }
}

fn need_u64(ev: &SnapEvent, name: &str) -> Result<u64, String> {
    match need_field(ev, name)? {
        FieldValue::U64(v) => Ok(*v),
        _ => Err(format!("{} field '{name}' must be an integer", ev.key)),
    }
}

fn need_f64(ev: &SnapEvent, name: &str) -> Result<f64, String> {
    match need_field(ev, name)? {
        FieldValue::F64(v) => Ok(*v),
        FieldValue::U64(v) => Ok(*v as f64),
        _ => Err(format!("{} field '{name}' must be a number", ev.key)),
    }
}

/// Study state rebuilt by folding a WAL event sequence.
#[derive(Debug, Default)]
pub struct Replay {
    /// Finished trials (completed, pruned, failed, or reused) by id.
    pub finished: BTreeMap<usize, Trial>,
    /// Trials that started but never finished: `id → (config, reports)`.
    /// A resumed study re-runs these with the logged configuration.
    pub in_flight: BTreeMap<usize, (Configuration, Vec<(u64, f64)>)>,
    /// Checkpoint records, in log order.
    pub checkpoints: Vec<StudyEvent>,
}

impl Replay {
    /// Fold a full event sequence.
    pub fn from_events(events: impl IntoIterator<Item = StudyEvent>) -> Result<Replay, String> {
        let mut replay = Replay::default();
        for (i, ev) in events.into_iter().enumerate() {
            replay.apply(ev).map_err(|e| format!("WAL replay failed at event {i}: {e}"))?;
        }
        Ok(replay)
    }

    /// Apply one event.
    pub(crate) fn apply(&mut self, ev: StudyEvent) -> Result<(), String> {
        match ev {
            StudyEvent::Checkpoint { .. } => self.checkpoints.push(ev),
            StudyEvent::TrialStarted { trial, config } => {
                if self.finished.contains_key(&trial) {
                    return Err(format!("trial {trial} restarted after finishing"));
                }
                // A repeated start for an unfinished id supersedes the
                // earlier attempt (a resumed run re-executing it).
                self.in_flight.insert(trial, (config, Vec::new()));
            }
            StudyEvent::TrialReport { trial, step, value } => {
                let (_, reports) = self
                    .in_flight
                    .get_mut(&trial)
                    .ok_or_else(|| format!("report for trial {trial} which never started"))?;
                reports.push((step, value));
            }
            StudyEvent::TrialCompleted { trial, metrics } => {
                self.finish(trial, TrialStatus::Complete, metrics, None)?;
            }
            StudyEvent::TrialPruned { trial, metrics } => {
                self.finish(trial, TrialStatus::Pruned, metrics, None)?;
            }
            StudyEvent::TrialFailed { trial, error, metrics } => {
                self.finish(trial, TrialStatus::Failed, metrics, Some(error))?;
            }
            StudyEvent::TrialReused { trial, config, status, metrics, intermediate } => {
                if self.finished.contains_key(&trial) || self.in_flight.contains_key(&trial) {
                    return Err(format!("reused trial {trial} collides with a live trial"));
                }
                self.finished.insert(
                    trial,
                    Trial {
                        id: trial,
                        config,
                        metrics,
                        status,
                        intermediate,
                        error: None,
                        reused: true,
                    },
                );
            }
        }
        Ok(())
    }

    fn finish(
        &mut self,
        trial: usize,
        status: TrialStatus,
        metrics: MetricValues,
        error: Option<String>,
    ) -> Result<(), String> {
        let (config, intermediate) = self
            .in_flight
            .remove(&trial)
            .ok_or_else(|| format!("trial {trial} finished without starting"))?;
        self.finished.insert(
            trial,
            Trial { id: trial, config, metrics, status, intermediate, error, reused: false },
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::distribution::Distribution;
    use crate::param::ParamValue;

    fn cfg(k: i64) -> Configuration {
        Configuration::new().with("k", ParamValue::Int(k))
    }

    fn sample_events() -> Vec<StudyEvent> {
        vec![
            StudyEvent::Checkpoint {
                study: "s".into(),
                seed: 7,
                explorer: "grid".into(),
                fingerprint: "v1".into(),
                trials: 0,
            },
            StudyEvent::TrialStarted { trial: 0, config: cfg(1) },
            StudyEvent::TrialReport { trial: 0, step: 1, value: 0.5 },
            StudyEvent::TrialReport { trial: 0, step: 2, value: f64::NAN },
            StudyEvent::TrialCompleted {
                trial: 0,
                metrics: MetricValues::new().with("loss", 0.1 + 0.2),
            },
            StudyEvent::TrialStarted { trial: 1, config: cfg(2) },
            StudyEvent::TrialFailed {
                trial: 1,
                error: "boom".into(),
                metrics: MetricValues::new(),
            },
            StudyEvent::TrialReused {
                trial: 2,
                config: cfg(3),
                status: TrialStatus::Pruned,
                metrics: MetricValues::new().with("loss", 4.0),
                intermediate: vec![(1, 4.0), (3, f64::INFINITY)],
            },
        ]
    }

    #[test]
    fn every_event_round_trips_through_a_line() {
        for (seq, ev) in sample_events().into_iter().enumerate() {
            let line = ev.to_line(seq as u64);
            let back = StudyEvent::from_line(&line).unwrap();
            // NaN forbids plain equality; compare through debug text which
            // prints NaN canonically.
            assert_eq!(format!("{back:?}"), format!("{ev:?}"), "line: {line}");
        }
    }

    #[test]
    fn replay_rebuilds_trials_and_intermediates() {
        let replay = Replay::from_events(sample_events()).unwrap();
        assert_eq!(replay.finished.len(), 3);
        assert!(replay.in_flight.is_empty());
        let t0 = &replay.finished[&0];
        assert_eq!(t0.status, TrialStatus::Complete);
        assert_eq!(t0.intermediate.len(), 2);
        assert!(t0.intermediate[1].1.is_nan());
        assert_eq!(t0.metrics.get("loss").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
        assert_eq!(replay.finished[&1].error.as_deref(), Some("boom"));
        let t2 = &replay.finished[&2];
        assert!(t2.reused);
        assert_eq!(t2.status, TrialStatus::Pruned);
        assert_eq!(t2.intermediate[1], (3, f64::INFINITY));
        assert_eq!(replay.finished.keys().copied().collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn interrupted_trial_is_left_in_flight_and_superseded_on_restart() {
        let mut events = sample_events();
        events.push(StudyEvent::TrialStarted { trial: 3, config: cfg(9) });
        events.push(StudyEvent::TrialReport { trial: 3, step: 1, value: 1.0 });
        let replay = Replay::from_events(events.clone()).unwrap();
        assert_eq!(replay.in_flight.len(), 1);
        assert_eq!(replay.in_flight[&3].1, vec![(1, 1.0)]);

        // The resumed run re-starts trial 3: the fresh start wins.
        events.push(StudyEvent::TrialStarted { trial: 3, config: cfg(9) });
        events.push(StudyEvent::TrialReport { trial: 3, step: 1, value: 2.0 });
        events.push(StudyEvent::TrialCompleted { trial: 3, metrics: MetricValues::new() });
        let replay = Replay::from_events(events).unwrap();
        assert_eq!(replay.finished[&3].intermediate, vec![(1, 2.0)]);
    }

    #[test]
    fn malformed_sequences_are_rejected() {
        let finish_without_start =
            vec![StudyEvent::TrialCompleted { trial: 0, metrics: MetricValues::new() }];
        assert!(Replay::from_events(finish_without_start).is_err());

        let report_without_start = vec![StudyEvent::TrialReport { trial: 0, step: 0, value: 0.0 }];
        assert!(Replay::from_events(report_without_start).is_err());

        let restart_after_finish = vec![
            StudyEvent::TrialStarted { trial: 0, config: cfg(1) },
            StudyEvent::TrialCompleted { trial: 0, metrics: MetricValues::new() },
            StudyEvent::TrialStarted { trial: 0, config: cfg(1) },
        ];
        assert!(Replay::from_events(restart_after_finish).is_err());
    }

    #[test]
    fn a_hundred_thousand_deep_line_is_an_error_not_a_crash() {
        assert!(StudyEvent::from_line(&"{\"a\":".repeat(100_000)).is_err());
        let started = "{\"ty\":\"event\",\"key\":\"trial.started\",\"t_ns\":0,\"thread\":0,";
        let deep = format!("{started}\"fields\":{{\"trial\":{}", "[".repeat(100_000));
        assert!(StudyEvent::from_line(&deep).is_err());
    }

    fn with_reward_samples(trial: usize, samples: Vec<f64>) -> StudyEvent {
        let reward = Distribution::from_samples(samples);
        let metrics = MetricValues::new().with("reward", reward.mean());
        StudyEvent::TrialCompleted { trial, metrics: metrics.with_distribution("reward", reward) }
    }

    #[test]
    fn an_empty_distribution_round_trips() {
        let ev = with_reward_samples(0, vec![]);
        let line = ev.to_line(0);
        assert!(line.contains("\"d.reward\":\"\""), "{line}");
        let back = StudyEvent::from_line(&line).unwrap();
        let StudyEvent::TrialCompleted { metrics, .. } = &back else { panic!("{back:?}") };
        assert!(metrics.distribution("reward").expect("kept").is_empty());
        assert_eq!(format!("{back:?}"), format!("{ev:?}"));
    }

    #[test]
    fn a_field_the_writer_cannot_write_is_an_error() {
        let line = with_reward_samples(0, vec![1.5, 2.25]).to_line(0);
        for (from, to) in [
            ("2.25", "2.2b"),
            ("2.25", "NaN"),
            ("1.5,", "1.5,,"),
            ("\"d.reward\":\"1.5,2.25\"", "\"d.reward\":2.25"),
            ("\"m.reward\":1.875", "\"m.reward\":\"1.875\""),
        ] {
            assert!(line.contains(from), "{line}");
            let bad = line.replacen(from, to, 1);
            assert!(StudyEvent::from_line(&bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn a_letter_in_a_distribution_is_corrupt_mid_file_and_torn_at_the_tail() {
        use crate::storage::{Journal, JournalError};
        let path = std::env::temp_dir().join(format!("decision-wal-flip-{}", std::process::id()));
        let journal = Journal::new(&path);
        journal.clear().unwrap();
        let events = [
            StudyEvent::TrialStarted { trial: 0, config: cfg(1) },
            with_reward_samples(0, vec![1.5, 2.25, 4.0]),
            StudyEvent::TrialStarted { trial: 1, config: cfg(2) },
            with_reward_samples(1, vec![4.5, 2.25, 6.0]),
        ];
        for ev in &events {
            journal.append(ev).unwrap();
        }
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        let flip = |line: &str| line.replacen("2.25", "2.2b", 1);

        // Line 2 of 4: valid JSON, and not a tear a crash could leave.
        let mid = [lines[0], &flip(lines[1]), lines[2], lines[3]].join("\n") + "\n";
        std::fs::write(&path, mid).unwrap();
        match Journal::new(&path).load() {
            Err(JournalError::Corrupt { line, .. }) => assert_eq!(line, 2),
            other => panic!("expected Corrupt at line 2, got {other:?}"),
        }

        // The unterminated last line: a torn append, dropped.
        let tail = [lines[0], lines[1], lines[2], &flip(lines[3])].join("\n");
        std::fs::write(&path, tail).unwrap();
        let load = Journal::new(&path).load().unwrap();
        assert!(load.torn_tail);
        assert_eq!(load.events, events[..3]);
        std::fs::remove_file(&path).unwrap();
    }

    /// Every line of the checked-in journals decodes, and re-encodes with
    /// its line index as `seq` to the same bytes: the WAL format is pinned
    /// by the data written under it.
    #[test]
    fn the_checked_in_journals_re_encode_byte_for_byte() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../journals/scaled");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "jsonl") {
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            for (seq, line) in text.lines().enumerate() {
                let ev = StudyEvent::from_line(line).unwrap();
                assert_eq!(ev.to_line(seq as u64), line, "{} line {}", path.display(), seq + 1);
                checked += 1;
            }
        }
        assert!(checked >= 1_000, "only {checked} journal lines found under {}", dir.display());
    }

    /// A random event of every kind: names and messages that need
    /// escapes, non-finite metrics, empty and 64-sample distributions.
    fn any_event(g: &mut testkit::Gen) -> StudyEvent {
        const NAMES: [&str; 5] = ["lr", "rk_order", "naïve \"q\"", "tab\there", "§"];
        let name = |g: &mut testkit::Gen| g.pick(&NAMES).to_string();
        let float = |g: &mut testkit::Gen| match g.below(5) {
            0 => f64::NAN,
            1 => *g.pick(&[f64::INFINITY, f64::NEG_INFINITY, -0.0, 0.0]),
            2 => g.f64_in(-10.0..10.0).round(),
            _ => finite(g),
        };
        let config = |g: &mut testkit::Gen| {
            let mut config = Configuration::new();
            for _ in 0..g.below(5) {
                let value = match g.below(4) {
                    0 => ParamValue::Int(g.int_in(i64::MIN..i64::MAX)),
                    1 => ParamValue::Str(name(g)),
                    2 => ParamValue::Float(finite(g)),
                    _ => ParamValue::Bool(g.bool()),
                };
                config.set(&name(g), value);
            }
            config
        };
        let metrics = |g: &mut testkit::Gen| {
            let mut m = MetricValues::new();
            for _ in 0..g.below(4) {
                m.set(name(g), float(g));
            }
            for _ in 0..g.below(3) {
                let len = *g.pick(&[0, 1, 64]);
                let samples = (0..len).map(|_| finite(g)).collect();
                m.set_distribution(name(g), Distribution::from_samples(samples));
            }
            m
        };
        let trial = g.below(10_000);
        match g.below(7) {
            0 => StudyEvent::Checkpoint {
                study: name(g),
                seed: g.u64(),
                explorer: name(g),
                fingerprint: name(g),
                trials: g.u64(),
            },
            1 => StudyEvent::TrialStarted { trial, config: config(g) },
            2 => StudyEvent::TrialReport { trial, step: g.u64(), value: float(g) },
            3 => StudyEvent::TrialCompleted { trial, metrics: metrics(g) },
            4 => StudyEvent::TrialPruned { trial, metrics: metrics(g) },
            5 => StudyEvent::TrialFailed {
                trial,
                error: format!("objective said \"§{}\"\nat step {}", name(g), g.below(9)),
                metrics: metrics(g),
            },
            _ => StudyEvent::TrialReused {
                trial,
                config: config(g),
                status: *g.pick(&[TrialStatus::Complete, TrialStatus::Pruned, TrialStatus::Failed]),
                metrics: metrics(g),
                intermediate: g.vec(0..4, |g| (g.u64(), float(g))),
            },
        }
    }

    /// Any finite f64, the extreme exponents included.
    fn finite(g: &mut testkit::Gen) -> f64 {
        loop {
            let x = f64::from_bits(g.u64());
            if x.is_finite() {
                return x;
            }
        }
    }

    #[test]
    fn every_event_kind_round_trips_both_ways() {
        testkit::sweep(400, 0x3A1_F0A7, |g| {
            let ev = any_event(g);
            let seq = g.u64();
            let line = ev.to_line(seq);
            let back = StudyEvent::from_line(&line).unwrap();
            // NaN forbids plain equality; Debug prints every f64 as its
            // shortest round-trip text, so equal text is equal bits.
            assert_eq!(format!("{back:?}"), format!("{ev:?}"), "line: {line}");
            assert_eq!(back.to_line(seq), line);
        });
    }

    #[test]
    fn unknown_keys_are_errors() {
        assert!(StudyEvent::from_line(
            "{\"ty\":\"event\",\"key\":\"trial.exploded\",\"t_ns\":0,\"thread\":0,\"fields\":{}}"
        )
        .is_err());
        assert!(StudyEvent::from_line("{\"ty\":\"counter\",\"key\":\"k\",\"value\":1}").is_err());
    }
}
