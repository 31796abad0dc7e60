//! The WAL codec the direct one replaced, kept as its test oracle: events
//! went through telemetry's `SnapEvent` both ways, written by the trace
//! exporter and read back through the `Json` tree.

use super::StudyEvent;
use crate::distribution::Distribution;
use crate::metrics::MetricValues;
use crate::param::ParamValue;
use crate::trial::{Configuration, TrialStatus};
use telemetry::json::{self, Json};
use telemetry::{FieldValue, SnapEvent, Snapshot};

/// The line the tree codec writes for `ev` at `seq`.
pub(crate) fn to_line(ev: &StudyEvent, seq: u64) -> String {
    snap_line(to_snap(ev, seq))
}

/// The line the trace exporter writes for `event`.
pub(crate) fn snap_line(event: SnapEvent) -> String {
    let mut snap = Snapshot::default();
    snap.events.push(event);
    let text = telemetry::export::to_json_lines(&snap);
    // The exporter writes a `meta` line first; the event is the second.
    text.lines().nth(1).expect("one event line").to_string()
}

/// The tree codec's reading of `line`.
pub(crate) fn from_line(line: &str) -> Result<StudyEvent, String> {
    let obj = match json::parse(line).map_err(|e| format!("telemetry trace: {e}"))? {
        obj @ Json::Obj(_) => obj,
        other => return Err(format!("a record must be an object, got {}", other.kind())),
    };
    match obj.get("ty").and_then(Json::as_str) {
        Some("event") => from_snap(&event_from_obj(&obj)?),
        _ => Err("not an event record".into()),
    }
}

fn event_from_obj(obj: &Json) -> Result<SnapEvent, String> {
    let Some(Json::Obj(fields)) = obj.get("fields") else {
        return Err("event 'fields' must be an object".into());
    };
    let fields = fields
        .iter()
        .map(|(name, v)| {
            let fv = match v {
                Json::U64(x) => FieldValue::U64(*x),
                Json::I64(x) => FieldValue::F64(*x as f64),
                Json::F64(x) => FieldValue::F64(*x),
                Json::Bool(x) => FieldValue::Bool(*x),
                Json::Str(s) => match s.as_str() {
                    "NaN" => FieldValue::F64(f64::NAN),
                    "inf" => FieldValue::F64(f64::INFINITY),
                    "-inf" => FieldValue::F64(f64::NEG_INFINITY),
                    _ => FieldValue::Str(s.clone()),
                },
                Json::Null | Json::Arr(_) | Json::Obj(_) => {
                    return Err(format!("event field '{name}' must be a scalar"))
                }
            };
            Ok((name.clone(), fv))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let t_ns = obj.get("t_ns").and_then(|v| match v {
        Json::U64(x) => Some(*x),
        _ => None,
    });
    let thread = obj.get("thread").and_then(|v| match v {
        Json::U64(x) => Some(*x as usize),
        _ => None,
    });
    let key = obj.get("key").and_then(Json::as_str);
    match (t_ns, thread, key) {
        (Some(t_ns), Some(thread), Some(key)) => {
            Ok(SnapEvent { t_ns, thread, key: key.to_string(), fields })
        }
        _ => Err("bad t_ns, thread or key".into()),
    }
}

fn to_snap(ev: &StudyEvent, seq: u64) -> SnapEvent {
    let mut fields: Vec<(String, FieldValue)> = Vec::new();
    let trial = |fields: &mut Vec<(String, FieldValue)>, trial: usize| {
        fields.push(("trial".into(), FieldValue::U64(trial as u64)));
    };
    match ev {
        StudyEvent::Checkpoint { study, seed, explorer, fingerprint, trials } => {
            fields.push(("study".into(), FieldValue::Str(study.clone())));
            fields.push(("seed".into(), FieldValue::U64(*seed)));
            fields.push(("explorer".into(), FieldValue::Str(explorer.clone())));
            fields.push(("fingerprint".into(), FieldValue::Str(fingerprint.clone())));
            fields.push(("trials".into(), FieldValue::U64(*trials)));
        }
        StudyEvent::TrialStarted { trial: id, config } => {
            trial(&mut fields, *id);
            push_config(&mut fields, config.iter());
        }
        StudyEvent::TrialReport { trial: id, step, value } => {
            trial(&mut fields, *id);
            fields.push(("step".into(), FieldValue::U64(*step)));
            fields.push(("value".into(), FieldValue::F64(*value)));
        }
        StudyEvent::TrialCompleted { trial: id, metrics }
        | StudyEvent::TrialPruned { trial: id, metrics } => {
            trial(&mut fields, *id);
            push_metrics(&mut fields, metrics.iter(), metrics.distributions());
        }
        StudyEvent::TrialFailed { trial: id, error, metrics } => {
            trial(&mut fields, *id);
            fields.push(("error".into(), FieldValue::Str(error.clone())));
            push_metrics(&mut fields, metrics.iter(), metrics.distributions());
        }
        StudyEvent::TrialReused { trial: id, config, status, metrics, intermediate } => {
            trial(&mut fields, *id);
            push_config(&mut fields, config.iter());
            let status = match status {
                TrialStatus::Complete => "complete",
                TrialStatus::Pruned => "pruned",
                TrialStatus::Failed => "failed",
            };
            fields.push(("status".into(), FieldValue::Str(status.into())));
            push_metrics(&mut fields, metrics.iter(), metrics.distributions());
            for (step, value) in intermediate {
                fields.push((format!("i.{step}"), FieldValue::F64(*value)));
            }
        }
    }
    SnapEvent { t_ns: seq, thread: 0, key: ev.key().to_string(), fields }
}

fn from_snap(ev: &SnapEvent) -> Result<StudyEvent, String> {
    let trial = || need_u64(ev, "trial").map(|t| t as usize);
    match ev.key.as_str() {
        "study.checkpoint" => Ok(StudyEvent::Checkpoint {
            study: need_str(ev, "study")?,
            seed: need_u64(ev, "seed")?,
            explorer: need_str(ev, "explorer")?,
            fingerprint: need_str(ev, "fingerprint")?,
            trials: need_u64(ev, "trials")?,
        }),
        "trial.started" => {
            Ok(StudyEvent::TrialStarted { trial: trial()?, config: take_config(ev)? })
        }
        "trial.report" => Ok(StudyEvent::TrialReport {
            trial: trial()?,
            step: need_u64(ev, "step")?,
            value: need_f64(ev, "value")?,
        }),
        "trial.completed" => {
            Ok(StudyEvent::TrialCompleted { trial: trial()?, metrics: take_metrics(ev)? })
        }
        "trial.pruned" => {
            Ok(StudyEvent::TrialPruned { trial: trial()?, metrics: take_metrics(ev)? })
        }
        "trial.failed" => Ok(StudyEvent::TrialFailed {
            trial: trial()?,
            error: need_str(ev, "error")?,
            metrics: take_metrics(ev)?,
        }),
        "trial.reused" => {
            let status = match need_str(ev, "status")?.as_str() {
                "complete" => TrialStatus::Complete,
                "pruned" => TrialStatus::Pruned,
                "failed" => TrialStatus::Failed,
                other => return Err(format!("unknown reused-trial status '{other}'")),
            };
            let mut intermediate = Vec::new();
            for (name, value) in &ev.fields {
                if let Some(step) = name.strip_prefix("i.") {
                    let step = step.parse::<u64>().map_err(|_| format!("bad step '{name}'"))?;
                    let value = match value {
                        FieldValue::F64(v) => *v,
                        FieldValue::U64(v) => *v as f64,
                        _ => return Err(format!("report field '{name}' must be a number")),
                    };
                    intermediate.push((step, value));
                }
            }
            Ok(StudyEvent::TrialReused {
                trial: trial()?,
                config: take_config(ev)?,
                status,
                metrics: take_metrics(ev)?,
                intermediate,
            })
        }
        other => Err(format!("unknown study WAL event key '{other}'")),
    }
}

/// The `c.` fields of a configuration's `(name, value)`s.
pub(crate) fn push_config<'a>(
    fields: &mut Vec<(String, FieldValue)>,
    config: impl Iterator<Item = (&'a str, &'a ParamValue)>,
) {
    for (name, value) in config {
        let fv = match value {
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
                        ParamValue::Int(i.parse().map_err(|_| format!("bad int '{name}'"))?)
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

/// The `m.` fields of a record's `(name, value)`s, then the `d.` fields
/// of its `(name, distribution)`s.
pub(crate) fn push_metrics<'a>(
    fields: &mut Vec<(String, FieldValue)>,
    values: impl Iterator<Item = (&'a str, f64)>,
    dists: impl Iterator<Item = (&'a str, &'a Distribution)>,
) {
    for (name, value) in values {
        fields.push((["m.", name].concat(), FieldValue::F64(value)));
    }
    for (name, dist) in dists {
        let joined: Vec<String> = dist.samples().iter().map(|x| format!("{x}")).collect();
        fields.push((["d.", name].concat(), FieldValue::Str(joined.join(","))));
    }
}

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
            let samples = s
                .split(',')
                .filter(|_| !s.is_empty())
                .map(|x| match x.parse::<f64>() {
                    Ok(v) if v.is_finite() => Ok(v),
                    _ => Err(format!("distribution field '{name}' holds '{x}'")),
                })
                .collect::<Result<Vec<f64>, String>>()?;
            m.set_distribution(metric, Distribution::from_samples(samples));
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
