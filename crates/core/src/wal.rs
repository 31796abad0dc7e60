//! The study write-ahead log: typed events over the telemetry wire format.
//!
//! A study's durable record is an append-only sequence of [`StudyEvent`]s,
//! one per line, each a telemetry `"ty":"event"` JSON record: the line the
//! trace exporter writes for an event. The codec goes straight between a
//! `StudyEvent` and those bytes. It writes through
//! `telemetry::export::EventLine` and reads the tokens of
//! `telemetry::json::Tokens`, the reader that holds the JSON grammar, so no
//! intermediate event or JSON tree is built, and a `d.` field's samples
//! are parsed where they lie in the line. The format keeps the exporter's
//! bit-exactness: integers stay bare, f64 values use shortest round-trip
//! text, and non-finite values travel as the `"NaN"`/`"inf"`/`"-inf"`
//! string spellings, so replaying a log reconstructs every metric to
//! identical bits. A reader takes what the exporter's reader took: fields
//! in any order, whitespace between tokens, the first of a repeated name.
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

use crate::distribution::Distribution;
use crate::metrics::MetricValues;
use crate::param::ParamValue;
use crate::trial::{Configuration, Trial, TrialStatus};
use std::borrow::Cow;
use std::collections::BTreeMap;
use telemetry::export::EventLine;
use telemetry::json::{JsonError, Token, Tokens};

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

    /// Append this event to `out` as one WAL line (no trailing newline).
    /// `seq` (the line's position in the log) is stored in the `t_ns`
    /// slot so the format carries no wall-clock dependence: re-writing the
    /// same study produces a byte-identical log.
    pub(crate) fn push_line(&self, seq: u64, out: &mut String) {
        let mut line = EventLine::begin(out, self.key(), seq, 0);
        match self {
            StudyEvent::Checkpoint { study, seed, explorer, fingerprint, trials } => {
                line.str(&["study"], &[study]);
                line.u64(&["seed"], *seed);
                line.str(&["explorer"], &[explorer]);
                line.str(&["fingerprint"], &[fingerprint]);
                line.u64(&["trials"], *trials);
            }
            StudyEvent::TrialStarted { trial, config } => {
                line.u64(&["trial"], *trial as u64);
                push_config(&mut line, config);
            }
            StudyEvent::TrialReport { trial, step, value } => {
                line.u64(&["trial"], *trial as u64);
                line.u64(&["step"], *step);
                line.f64(&["value"], *value);
            }
            StudyEvent::TrialCompleted { trial, metrics }
            | StudyEvent::TrialPruned { trial, metrics } => {
                line.u64(&["trial"], *trial as u64);
                push_metrics(&mut line, metrics);
            }
            StudyEvent::TrialFailed { trial, error, metrics } => {
                line.u64(&["trial"], *trial as u64);
                line.str(&["error"], &[error]);
                push_metrics(&mut line, metrics);
            }
            StudyEvent::TrialReused { trial, config, status, metrics, intermediate } => {
                line.u64(&["trial"], *trial as u64);
                push_config(&mut line, config);
                line.str(&["status"], &[status_name(*status)]);
                push_metrics(&mut line, metrics);
                for (step, value) in intermediate {
                    line.f64(&["i.", &step.to_string()], *value);
                }
            }
        }
        line.finish();
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
        let mut tokens = Tokens::new(line);
        if !matches!(next(&mut tokens)?, Some(Token::BeginObject)) {
            return Err("a WAL record must be a JSON object".into());
        }
        // Of each name only the first counts, as in a lookup.
        let (mut ty, mut kind, mut t_ns, mut thread) = (false, None, false, false);
        let mut event = None;
        // A `fields` object met before the key: read again once the key
        // is known.
        let mut early_fields = None;
        while let Some(Token::Name(name)) = next(&mut tokens)? {
            match &*name {
                "ty" if !ty => match next(&mut tokens)? {
                    Some(Token::Str(value)) if value == "event" => ty = true,
                    _ => return Err("not an event record".into()),
                },
                "key" if kind.is_none() => match next(&mut tokens)? {
                    Some(Token::Str(key)) => kind = Some(Kind::of(&key)?),
                    _ => return Err("the record's 'key' must be a string".into()),
                },
                "t_ns" if !t_ns => t_ns = integer(&mut tokens, &name)?,
                "thread" if !thread => thread = integer(&mut tokens, &name)?,
                "fields" if event.is_none() && early_fields.is_none() => match kind {
                    Some(kind) => event = Some(decode_fields(kind, &mut tokens)?),
                    None => {
                        let start = tokens.offset();
                        let first = next(&mut tokens)?;
                        if first != Some(Token::BeginObject) {
                            return Err("event 'fields' must be an object".into());
                        }
                        tokens.skip(&Token::BeginObject).map_err(json_error)?;
                        early_fields = Some(start..tokens.offset());
                    }
                },
                _ => {
                    let value = next(&mut tokens)?.unwrap_or(Token::Null);
                    tokens.skip(&value).map_err(json_error)?;
                }
            }
        }
        // Nothing but whitespace may follow the record.
        next(&mut tokens)?;
        let Some(kind) = kind else { return Err("the record has no 'key'".into()) };
        if !(ty && t_ns && thread) {
            return Err("the record lacks one of 'ty', 't_ns' and 'thread'".into());
        }
        match (event, early_fields) {
            (Some(event), _) => Ok(event),
            (None, Some(range)) => {
                let fields = line.get(range).ok_or("the record's 'fields' is cut")?;
                decode_fields(kind, &mut Tokens::new(fields))
            }
            (None, None) => Err("the record has no 'fields'".into()),
        }
    }
}

fn status_name(status: TrialStatus) -> &'static str {
    match status {
        TrialStatus::Complete => "complete",
        TrialStatus::Pruned => "pruned",
        TrialStatus::Failed => "failed",
    }
}

/// One `c.<name>` field per parameter. Floats and bools map onto the
/// native field kinds; integers and strings travel as strings under an
/// `i:`/`s:` tag.
fn push_config(line: &mut EventLine<'_>, config: &Configuration) {
    for (name, value) in config.iter() {
        let name = &["c.", name];
        match value {
            // Shortest round-trip text: float parameters replay to
            // identical bits.
            ParamValue::Float(f) => line.f64(name, *f),
            ParamValue::Bool(b) => line.bool(name, *b),
            ParamValue::Int(i) => line.str(name, &["i:", &i.to_string()]),
            ParamValue::Str(s) => line.str(name, &["s:", s]),
        }
    }
}

/// One `m.<name>` field per scalar metric, then one `d.<name>` field per
/// sample distribution. The distributions ride as separate fields so the
/// scalar `m.` fields stay byte-identical to pre-distribution journals;
/// shortest round-trip text makes them lossless, so resumed studies adopt
/// bit-identical distributions.
fn push_metrics(line: &mut EventLine<'_>, metrics: &MetricValues) {
    for (name, value) in metrics.iter() {
        line.f64(&["m.", name], value);
    }
    for (name, dist) in metrics.distributions() {
        line.f64s(&["d.", name], dist.samples());
    }
}

// ---------------------------------------------------------------- decoder

fn json_error(e: JsonError) -> String {
    format!("study WAL: {e}")
}

fn next<'a>(tokens: &mut Tokens<'a>) -> Result<Option<Token<'a>>, String> {
    tokens.next_token().map_err(json_error)
}

/// An event's kind, known from its key before its fields are read.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Checkpoint,
    Started,
    Report,
    Completed,
    Pruned,
    Failed,
    Reused,
}

/// Each kind's key, in the order of [`Kind`].
const KINDS: [(&str, Kind); 7] = [
    (wal_keys::CHECKPOINT, Kind::Checkpoint),
    (wal_keys::TRIAL_STARTED, Kind::Started),
    (wal_keys::TRIAL_REPORT, Kind::Report),
    (wal_keys::TRIAL_COMPLETED, Kind::Completed),
    (wal_keys::TRIAL_PRUNED, Kind::Pruned),
    (wal_keys::TRIAL_FAILED, Kind::Failed),
    (wal_keys::TRIAL_REUSED, Kind::Reused),
];

impl Kind {
    fn of(key: &str) -> Result<Kind, String> {
        KINDS
            .iter()
            .find(|(k, _)| *k == key)
            .map(|&(_, kind)| kind)
            .ok_or_else(|| format!("unknown study WAL event key '{key}'"))
    }

    fn key(self) -> &'static str {
        KINDS[self as usize].0
    }

    /// The fields this kind reads by name.
    fn names(self) -> &'static [&'static str] {
        match self {
            Kind::Checkpoint => &["study", "seed", "explorer", "fingerprint", "trials"],
            Kind::Started | Kind::Completed | Kind::Pruned => &["trial"],
            Kind::Report => &["trial", "step", "value"],
            Kind::Failed => &["trial", "error"],
            Kind::Reused => &["trial", "status"],
        }
    }
}

/// The record's `t_ns` or `thread`: `true` once it is read as an integer.
fn integer(tokens: &mut Tokens<'_>, name: &str) -> Result<bool, String> {
    match next(tokens)? {
        Some(Token::U64(_)) => Ok(true),
        _ => Err(format!("the record's '{name}' must be an integer")),
    }
}

/// A field's value as the writer's field kinds have it; a string is a
/// slice of the line unless it held an escape.
enum Field<'a> {
    U64(u64),
    F64(f64),
    Bool(bool),
    Str(Cow<'a, str>),
}

/// The value of field `name`: a scalar, read the way telemetry's field
/// kinds read it.
fn field<'a>(tokens: &mut Tokens<'a>, name: &str) -> Result<Field<'a>, String> {
    Ok(match next(tokens)? {
        Some(Token::U64(x)) => Field::U64(x),
        // The writer spells integers unsigned, so a signed integer token
        // is a float someone wrote without its `.0`.
        Some(Token::I64(x)) => Field::F64(x as f64),
        Some(Token::F64(x)) => Field::F64(x),
        Some(Token::Bool(x)) => Field::Bool(x),
        // Non-finite doubles travel as these three strings.
        Some(Token::Str(s)) => match &*s {
            "NaN" => Field::F64(f64::NAN),
            "inf" => Field::F64(f64::INFINITY),
            "-inf" => Field::F64(f64::NEG_INFINITY),
            _ => Field::Str(s),
        },
        _ => return Err(format!("event field '{name}' must be a scalar")),
    })
}

/// Read a `fields` object, from its `{`, into the event of kind `kind`.
/// The named fields take their first value; every `c.`, `m.`, `d.` and
/// `i.` field the kind reads is applied in line order, so a later one of
/// the same name wins. A field the writer could not have written — a
/// metric that is not a number, a sample that is not a finite number — is
/// an error, never a skipped value: a distribution one sample short would
/// load as a different ranking.
fn decode_fields(kind: Kind, tokens: &mut Tokens<'_>) -> Result<StudyEvent, String> {
    if !matches!(next(tokens)?, Some(Token::BeginObject)) {
        return Err("event 'fields' must be an object".into());
    }
    let names = kind.names();
    let mut named: [Option<Field<'_>>; 5] = Default::default();
    let mut config = Configuration::new();
    let mut metrics = MetricValues::new();
    let mut intermediate = Vec::new();
    let (with_config, with_metrics) = match kind {
        Kind::Started => (true, false),
        Kind::Completed | Kind::Pruned | Kind::Failed => (false, true),
        Kind::Reused => (true, true),
        Kind::Checkpoint | Kind::Report => (false, false),
    };
    while let Some(Token::Name(name)) = next(tokens)? {
        let value = field(tokens, &name)?;
        if let Some(i) = names.iter().position(|n| *n == name) {
            named[i].get_or_insert(value);
        } else if let (true, Some(param)) = (with_config, name.strip_prefix("c.")) {
            config.set(param, param_value(&name, value)?);
        } else if let (true, Some(metric)) = (with_metrics, name.strip_prefix("m.")) {
            match value {
                Field::F64(v) => metrics.set(metric, v),
                Field::U64(v) => metrics.set(metric, v as f64),
                _ => return Err(format!("metric field '{name}' must be a number")),
            }
        } else if let (true, Some(metric)) = (with_metrics, name.strip_prefix("d.")) {
            let Field::Str(text) = value else {
                return Err(format!("distribution field '{name}' must be a string"));
            };
            metrics.set_distribution(metric, samples(&name, &text)?);
        } else if let (Kind::Reused, Some(step)) = (kind, name.strip_prefix("i.")) {
            let step = step.parse::<u64>().map_err(|_| format!("bad report step '{name}'"))?;
            match value {
                Field::F64(v) => intermediate.push((step, v)),
                Field::U64(v) => intermediate.push((step, v as f64)),
                _ => return Err(format!("report field '{name}' must be a number")),
            }
        }
    }
    let key = kind.key();
    let mut take = |i: usize| {
        named[i].take().ok_or_else(|| format!("{key} event missing field '{}'", names[i]))
    };
    let int = |v: Field<'_>, name: &str| match v {
        Field::U64(v) => Ok(v),
        _ => Err(format!("{key} field '{name}' must be an integer")),
    };
    let text = |v: Field<'_>, name: &str| match v {
        Field::Str(s) => Ok(s.into_owned()),
        _ => Err(format!("{key} field '{name}' must be a string")),
    };
    let trial = match kind {
        Kind::Checkpoint => 0,
        _ => int(take(0)?, "trial")? as usize,
    };
    Ok(match kind {
        Kind::Checkpoint => StudyEvent::Checkpoint {
            study: text(take(0)?, "study")?,
            seed: int(take(1)?, "seed")?,
            explorer: text(take(2)?, "explorer")?,
            fingerprint: text(take(3)?, "fingerprint")?,
            trials: int(take(4)?, "trials")?,
        },
        Kind::Started => StudyEvent::TrialStarted { trial, config },
        Kind::Report => StudyEvent::TrialReport {
            trial,
            step: int(take(1)?, "step")?,
            value: match take(2)? {
                Field::F64(v) => v,
                Field::U64(v) => v as f64,
                _ => return Err(format!("{key} field 'value' must be a number")),
            },
        },
        Kind::Completed => StudyEvent::TrialCompleted { trial, metrics },
        Kind::Pruned => StudyEvent::TrialPruned { trial, metrics },
        Kind::Failed => StudyEvent::TrialFailed { trial, error: text(take(1)?, "error")?, metrics },
        Kind::Reused => {
            let status = match text(take(1)?, "status")?.as_str() {
                "complete" => TrialStatus::Complete,
                "pruned" => TrialStatus::Pruned,
                "failed" => TrialStatus::Failed,
                other => return Err(format!("unknown reused-trial status '{other}'")),
            };
            StudyEvent::TrialReused { trial, config, status, metrics, intermediate }
        }
    })
}

/// A `c.` field's parameter value: a float or a bool as written, an
/// integer or a label behind its `i:` or `s:` tag.
fn param_value(name: &str, value: Field<'_>) -> Result<ParamValue, String> {
    Ok(match value {
        Field::F64(f) => ParamValue::Float(f),
        Field::U64(u) => ParamValue::Float(u as f64),
        Field::Bool(b) => ParamValue::Bool(b),
        Field::Str(s) => {
            if let Some(i) = s.strip_prefix("i:") {
                ParamValue::Int(i.parse().map_err(|_| format!("bad int parameter '{name}'"))?)
            } else if let Some(label) = s.strip_prefix("s:") {
                ParamValue::Str(label.to_string())
            } else {
                return Err(format!("parameter '{name}' has an unknown type tag"));
            }
        }
    })
}

/// The samples of a `d.` field, parsed where they lie in the line:
/// comma-separated finite numbers, none in `""`.
fn samples(name: &str, text: &str) -> Result<Distribution, String> {
    if text.is_empty() {
        return Ok(Distribution::from_samples(Vec::new()));
    }
    let mut samples = Vec::with_capacity(1 + text.bytes().filter(|&b| b == b',').count());
    for x in text.split(',') {
        match x.parse::<f64>() {
            Ok(v) if v.is_finite() => samples.push(v),
            _ => return Err(format!("distribution field '{name}' holds '{x}', not a sample")),
        }
    }
    Ok(Distribution::from_samples(samples))
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
mod oracle;

#[cfg(test)]
mod tests {
    use super::*;
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

    /// The direct codec and the tree codec it replaced agree on `line`:
    /// both fail, or both read the same event (compared through Debug
    /// text, which prints every f64 as its shortest round-trip spelling).
    fn agrees_with_the_tree_codec(line: &str) {
        match (StudyEvent::from_line(line), oracle::from_line(line)) {
            (Ok(ours), Ok(theirs)) => {
                assert_eq!(format!("{ours:?}"), format!("{theirs:?}"), "{line}")
            }
            (Err(_), Err(_)) => {}
            (ours, theirs) => panic!("{line:?}: direct {ours:?}, tree {theirs:?}"),
        }
    }

    #[test]
    fn every_journal_line_reads_and_writes_as_the_tree_codec_did() {
        let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../journals/scaled");
        let mut checked = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.extension().is_none_or(|e| e != "jsonl") {
                continue;
            }
            for (seq, line) in std::fs::read_to_string(&path).unwrap().lines().enumerate() {
                agrees_with_the_tree_codec(line);
                let ev = StudyEvent::from_line(line).unwrap();
                assert_eq!(ev.to_line(seq as u64), oracle::to_line(&ev, seq as u64));
                checked += 1;
            }
        }
        assert!(checked >= 1_000, "only {checked} journal lines found under {}", dir.display());
    }

    #[test]
    fn random_events_read_and_write_as_the_tree_codec_did() {
        testkit::sweep(400, 0x000E_AC1E, |g| {
            let ev = any_event(g);
            let seq = g.u64();
            let line = ev.to_line(seq);
            assert_eq!(line, oracle::to_line(&ev, seq));
            agrees_with_the_tree_codec(&line);
        });
    }

    #[test]
    fn fields_out_of_order_spaced_or_repeated_read_as_the_tree_codec_did() {
        let head = "\"ty\":\"event\",\"t_ns\":0,\"thread\":0";
        let fields = "\"fields\":{\"trial\":3,\"c.k\":\"i:7\",\"c.k\":\"s:x\"}";
        for line in [
            // The fields before the key, which names their kind.
            format!("{{{fields},{head},\"key\":\"trial.started\"}}"),
            format!("{{{head},{fields},\"key\":\"trial.reused\"}}"),
            // The first of two keys, fields and trial ids counts.
            format!("{{{head},\"key\":\"trial.started\",\"key\":\"x\",{fields},\"fields\":1}}"),
            format!(
                "{{{head},\"key\":\"trial.report\",\"fields\":{{\"trial\":1,\"step\":2,\
                     \"value\":-3,\"trial\":\"no\"}}}}"
            ),
            // Whitespace between every token, and members nobody reads.
            format!(
                " {{ {head} , \"key\" : \"trial.completed\" , \"extra\" : [ {{ }} , null ] ,\
                     \"fields\" : {{ \"trial\" : 1 , \"m.r\" : \"-inf\" , \"d.r\" : \"\" }} }} "
            ),
            // Escapes in names and values.
            format!(
                "{{{head},\"key\":\"trial\\u002estarted\",\"fields\":{{\"tri\\u0061l\":1,\
                     \"c.\\\"q\\\"\":\"s:\\n\"}}}}"
            ),
            // What the writer cannot write: a nested field, a fields
            // array, no fields, a second top-level value.
            format!("{{{head},\"key\":\"trial.started\",\"fields\":{{\"trial\":[1]}}}}"),
            format!("{{{head},\"key\":\"trial.started\",\"fields\":[]}}"),
            format!("{{{head},\"key\":\"trial.started\"}}"),
            format!("{{{head},\"key\":\"trial.started\",{fields}}} {{}}"),
            // A member nobody reads still has to be JSON.
            format!("{{{head},\"key\":\"trial.started\",\"x\":[[1,]],{fields}}}"),
        ] {
            agrees_with_the_tree_codec(&line);
        }
        let line = format!("{{{fields},{head},\"key\":\"trial.started\"}}");
        let StudyEvent::TrialStarted { trial: 3, config } = StudyEvent::from_line(&line).unwrap()
        else {
            panic!("{line}")
        };
        assert_eq!(config.str("k"), Some("x"), "the later of two parameter fields wins");
    }

    /// A journal with every event kind, a non-ASCII label, a 64-sample
    /// distribution, non-finite metrics, a line spaced between its tokens
    /// and a line with a repeated field.
    fn hostile_journal() -> Vec<u8> {
        let mut g = testkit::Gen::new(0x0070_55ED);
        let config = Configuration::new()
            .with("stage", ParamValue::Str("§VI-D naïve".into()))
            .with("k", ParamValue::Int(-3))
            .with("lr", ParamValue::Float(0.003))
            .with("on", ParamValue::Bool(true));
        let metrics = MetricValues::new()
            .with("reward", f64::NAN)
            .with("time", f64::NEG_INFINITY)
            .with_distribution("reward", Distribution::from_samples(g.f64s(64, -2.0..1.0)));
        let events = [
            StudyEvent::Checkpoint {
                study: "s".into(),
                seed: 1,
                explorer: "grid".into(),
                fingerprint: "v1".into(),
                trials: 0,
            },
            StudyEvent::TrialStarted { trial: 0, config: config.clone() },
            StudyEvent::TrialReport { trial: 0, step: 1, value: f64::INFINITY },
            StudyEvent::TrialCompleted { trial: 0, metrics: metrics.clone() },
            StudyEvent::TrialStarted { trial: 1, config: config.clone() },
            StudyEvent::TrialPruned { trial: 1, metrics: MetricValues::new().with("reward", 1.0) },
            StudyEvent::TrialStarted { trial: 2, config: config.clone() },
            StudyEvent::TrialFailed {
                trial: 2,
                error: "no §".into(),
                metrics: MetricValues::new(),
            },
            StudyEvent::TrialReused {
                trial: 3,
                config,
                status: TrialStatus::Complete,
                metrics,
                intermediate: vec![(1, 0.5)],
            },
        ];
        let mut lines: Vec<String> =
            events.iter().enumerate().map(|(seq, ev)| ev.to_line(seq as u64)).collect();
        lines.push(lines[2].replace(",\"", " , \"").replace(":", " : "));
        lines.push(lines[5].replace("\"fields\":{", "\"fields\":{\"trial\":9,"));
        (lines.join("\n") + "\n").into_bytes()
    }

    #[test]
    fn cut_and_bit_flipped_journals_load_or_are_corrupt_and_read_as_the_tree_codec_did() {
        use crate::storage::{Journal, JournalError};
        let journal = hostile_journal();
        assert!(!journal.is_ascii());
        let path =
            std::env::temp_dir().join(format!("decision-wal-hostile-{}", std::process::id()));
        let load = |bytes: &[u8]| {
            std::fs::write(&path, bytes).unwrap();
            match Journal::new(&path).load() {
                Ok(_) | Err(JournalError::Corrupt { .. }) => {}
                Err(e) => panic!("{e}"),
            }
        };
        // The line of `bytes` that holds byte `at`.
        let line_at = |bytes: &[u8], at: usize| {
            let start = bytes[..at].iter().rposition(|&b| b == b'\n').map_or(0, |nl| nl + 1);
            let end = bytes[at..].iter().position(|&b| b == b'\n').map_or(bytes.len(), |n| at + n);
            bytes[start..end].to_vec()
        };
        let agree = |line: Vec<u8>| {
            if let Ok(line) = String::from_utf8(line) {
                agrees_with_the_tree_codec(&line);
            }
        };
        let text = String::from_utf8(journal.clone()).unwrap();
        assert!(text.lines().all(|line| StudyEvent::from_line(line).is_ok()));
        load(&journal);
        for end in 0..journal.len() {
            load(&journal[..end]);
            agree(line_at(&journal[..end], end.saturating_sub(1)));
        }
        for i in 0..journal.len() {
            for bit in 0..7 {
                let mut bytes = journal.clone();
                bytes[i] ^= 1 << bit;
                load(&bytes);
                agree(line_at(&bytes, i));
            }
        }
        std::fs::remove_file(&path).unwrap();
    }
}
