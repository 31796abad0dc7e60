//! The trace reader the record reader replaced, kept as its test oracle:
//! each line parsed into a `Json` tree and the record's members looked up
//! in it.

use crate::json::{self, Json};
use crate::snapshot::{FieldValue, GaugeStats, SnapEvent, SnapSpan, Snapshot};

/// Parse one trace line: a single JSON object, nothing after it.
fn parse_line(line: &str) -> Result<Json, String> {
    match json::parse(line).map_err(|e| format!("telemetry trace: {e}"))? {
        obj @ Json::Obj(_) => Ok(obj),
        other => Err(format!("telemetry trace: a record must be an object, got {}", other.kind())),
    }
}

/// The f64 a string field spells, for the three non-finite values.
fn non_finite(s: &str) -> Option<f64> {
    match s {
        "NaN" => Some(f64::NAN),
        "inf" => Some(f64::INFINITY),
        "-inf" => Some(f64::NEG_INFINITY),
        _ => None,
    }
}

fn field<'a>(obj: &'a Json, name: &str) -> Result<&'a Json, String> {
    obj.get(name).ok_or_else(|| format!("trace record missing field '{name}'"))
}

fn need_str<'a>(obj: &'a Json, name: &str) -> Result<&'a str, String> {
    field(obj, name)?.as_str().ok_or_else(|| format!("trace field '{name}' must be a string"))
}

fn need_u64(obj: &Json, name: &str) -> Result<u64, String> {
    match field(obj, name)? {
        Json::U64(v) => Ok(*v),
        _ => Err(format!("trace field '{name}' must be an integer")),
    }
}

/// f64 view, accepting the string spellings of non-finite values.
fn need_f64(obj: &Json, name: &str) -> Result<f64, String> {
    match field(obj, name)? {
        Json::F64(v) => Some(*v),
        Json::U64(v) => Some(*v as f64),
        Json::I64(v) => Some(*v as f64),
        Json::Str(s) => non_finite(s),
        _ => None,
    }
    .ok_or_else(|| format!("trace field '{name}' must be a number"))
}

/// Decode one parsed `"ty":"event"` object into a [`SnapEvent`].
fn event_from_obj(obj: &Json) -> Result<SnapEvent, String> {
    let Json::Obj(fields) = field(obj, "fields")? else {
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
                Json::Str(s) => match non_finite(s) {
                    Some(x) => FieldValue::F64(x),
                    None => FieldValue::Str(s.clone()),
                },
                Json::Null | Json::Arr(_) | Json::Obj(_) => {
                    return Err(format!("event field '{name}' must be a scalar, got {}", v.kind()))
                }
            };
            Ok((name.clone(), fv))
        })
        .collect::<Result<Vec<_>, String>>()?;
    Ok(SnapEvent {
        t_ns: need_u64(obj, "t_ns")?,
        thread: need_u64(obj, "thread")? as usize,
        key: need_str(obj, "key")?.to_string(),
        fields,
    })
}

/// The tree reader's reading of a JSON-lines trace.
pub(crate) fn from_json_lines(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_line(line)?;
        let key = || need_str(&obj, "key").map(str::to_string);
        match need_str(&obj, "ty")? {
            "meta" => {
                snap.dropped_events = snap
                    .dropped_events
                    .checked_add(need_u64(&obj, "dropped_events")?)
                    .ok_or("trace meta lines drop more than u64::MAX events in all")?;
            }
            "counter" => {
                snap.counters.insert(key()?, need_u64(&obj, "value")?);
            }
            "accum" => {
                snap.accums.insert(key()?, need_f64(&obj, "value")?);
            }
            "gauge" => {
                let stats = GaugeStats {
                    last: need_f64(&obj, "last")?,
                    count: need_u64(&obj, "count")?,
                    sum: need_f64(&obj, "sum")?,
                    min: need_f64(&obj, "min")?,
                    max: need_f64(&obj, "max")?,
                };
                snap.gauges.insert(key()?, stats);
            }
            "span" => snap.spans.push(SnapSpan {
                key: key()?,
                thread: need_u64(&obj, "thread")? as usize,
                begin_ns: need_u64(&obj, "begin_ns")?,
                end_ns: need_u64(&obj, "end_ns")?,
            }),
            "event" => snap.events.push(event_from_obj(&obj)?),
            other => return Err(format!("unknown trace record type '{other}'")),
        }
    }
    Ok(snap)
}
