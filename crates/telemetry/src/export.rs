//! Snapshot exporter: the JSON-lines trace.
//!
//! The writer is hand-rolled for the one flat shape the trace needs: one
//! object per line, string keys, and numbers typed by spelling — integers
//! are written bare and doubles always carry a `.` or an exponent, so
//! [`from_json_lines`] (reading through [`crate::json`]) reconstructs the
//! exact value kinds and [`to_json_lines`] → [`from_json_lines`]
//! round-trips a [`Snapshot`] to equality (f64 text uses Rust's shortest
//! round-trip formatting).
//!
//! Record shapes (`ty` discriminates):
//!
//! ```text
//! {"ty":"meta","dropped_events":0}
//! {"ty":"counter","key":"vecenv.steps","value":8192}
//! {"ty":"accum","key":"session.wall_s","value":12.75}
//! {"ty":"gauge","key":"...","last":0.5,"count":3,"sum":1.5,"min":0.25,"max":0.75}
//! {"ty":"span","key":"study.trial","thread":0,"begin_ns":10,"end_ns":950}
//! {"ty":"event","key":"driver.iteration","t_ns":42,"thread":0,"fields":{"iteration":1}}
//! ```

use crate::json::{self, Json};
use crate::snapshot::{FieldValue, GaugeStats, SnapEvent, SnapSpan, Snapshot};
use std::fmt::Write as _;

// ---------------------------------------------------------------- writer

/// Format an f64 so the parser reads it back as an f64 (never a bare
/// integer) and bit-for-bit equal: shortest round-trip text, with `.0`
/// appended when it would otherwise look integral. Non-finite values are
/// written as JSON strings.
fn fmt_f64(x: f64) -> String {
    if x.is_nan() {
        return "\"NaN\"".to_string();
    }
    if x.is_infinite() {
        return if x > 0.0 { "\"inf\"" } else { "\"-inf\"" }.to_string();
    }
    let s = format!("{x}");
    if s.contains(['.', 'e', 'E']) {
        s
    } else {
        format!("{s}.0")
    }
}

fn push_json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_field_value(out: &mut String, v: &FieldValue) {
    match v {
        FieldValue::U64(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::F64(x) => out.push_str(&fmt_f64(*x)),
        FieldValue::Bool(x) => {
            let _ = write!(out, "{x}");
        }
        FieldValue::Str(s) => push_json_string(out, s),
    }
}

/// Serialize one event record as a single JSON line (no trailing
/// newline), in the exact spelling [`to_json_lines`] uses for its
/// `"ty":"event"` records. This is the unit the `decision` crate's
/// write-ahead log appends: one durable event per line, bit-exact through
/// [`event_from_json_line`].
pub fn event_to_json_line(e: &SnapEvent) -> String {
    let mut out = String::new();
    out.push_str("{\"ty\":\"event\",\"key\":");
    push_json_string(&mut out, &e.key);
    let _ = write!(out, ",\"t_ns\":{},\"thread\":{},\"fields\":{{", e.t_ns, e.thread);
    for (i, (name, value)) in e.fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_string(&mut out, name);
        out.push(':');
        push_field_value(&mut out, value);
    }
    out.push_str("}}");
    out
}

/// Serialize a snapshot as a JSON-lines trace: a `meta` line, then every
/// counter, accumulator, gauge, span, and event, one object per line.
pub fn to_json_lines(snap: &Snapshot) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{\"ty\":\"meta\",\"dropped_events\":{}}}", snap.dropped_events);
    for (key, value) in &snap.counters {
        out.push_str("{\"ty\":\"counter\",\"key\":");
        push_json_string(&mut out, key);
        let _ = writeln!(out, ",\"value\":{value}}}");
    }
    for (key, value) in &snap.accums {
        out.push_str("{\"ty\":\"accum\",\"key\":");
        push_json_string(&mut out, key);
        let _ = writeln!(out, ",\"value\":{}}}", fmt_f64(*value));
    }
    for (key, g) in &snap.gauges {
        out.push_str("{\"ty\":\"gauge\",\"key\":");
        push_json_string(&mut out, key);
        let _ = writeln!(
            out,
            ",\"last\":{},\"count\":{},\"sum\":{},\"min\":{},\"max\":{}}}",
            fmt_f64(g.last),
            g.count,
            fmt_f64(g.sum),
            fmt_f64(g.min),
            fmt_f64(g.max)
        );
    }
    for s in &snap.spans {
        out.push_str("{\"ty\":\"span\",\"key\":");
        push_json_string(&mut out, &s.key);
        let _ = writeln!(
            out,
            ",\"thread\":{},\"begin_ns\":{},\"end_ns\":{}}}",
            s.thread, s.begin_ns, s.end_ns
        );
    }
    for e in &snap.events {
        out.push_str(&event_to_json_line(e));
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------- reader

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

fn need_str(obj: &Json, name: &str) -> Result<String, String> {
    field(obj, name)?
        .as_str()
        .map(str::to_string)
        .ok_or_else(|| format!("trace field '{name}' must be a string"))
}

fn need_u64(obj: &Json, name: &str) -> Result<u64, String> {
    field(obj, name)?.as_u64().ok_or_else(|| format!("trace field '{name}' must be an integer"))
}

/// f64 view, accepting the string spellings of non-finite values.
fn need_f64(obj: &Json, name: &str) -> Result<f64, String> {
    let v = field(obj, name)?;
    v.as_f64()
        .or_else(|| v.as_str().and_then(non_finite))
        .ok_or_else(|| format!("trace field '{name}' must be a number"))
}

/// Decode one parsed `"ty":"event"` object into a [`SnapEvent`].
fn event_from_obj(obj: &Json) -> Result<SnapEvent, String> {
    let fields = field(obj, "fields")?
        .as_object()
        .ok_or("event 'fields' must be an object")?
        .iter()
        .map(|(name, v)| {
            let fv = match v {
                Json::U64(x) => FieldValue::U64(*x),
                // The writer spells integers unsigned, so a signed
                // integer token is a float someone wrote without its `.0`.
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
        key: need_str(obj, "key")?,
        fields,
    })
}

/// Parse one JSON line written by [`event_to_json_line`] back into a
/// [`SnapEvent`]. Field values round-trip exactly (f64 bits included, via
/// the string spellings of non-finite values). Errors on any non-`event`
/// record or malformed line.
pub fn event_from_json_line(line: &str) -> Result<SnapEvent, String> {
    let obj = parse_line(line)?;
    let ty = need_str(&obj, "ty")?;
    if ty != "event" {
        return Err(format!("expected an event record, got ty '{ty}'"));
    }
    event_from_obj(&obj)
}

/// Parse a JSON-lines trace produced by [`to_json_lines`] back into a
/// [`Snapshot`]. Values round-trip exactly: counters stay integers and
/// f64 text re-parses to the identical bits.
pub fn from_json_lines(text: &str) -> Result<Snapshot, String> {
    let mut snap = Snapshot::default();
    for line in text.lines() {
        if line.trim().is_empty() {
            continue;
        }
        let obj = parse_line(line)?;
        let ty = need_str(&obj, "ty")?;
        match ty.as_str() {
            "meta" => snap.dropped_events += need_u64(&obj, "dropped_events")?,
            "counter" => {
                snap.counters.insert(need_str(&obj, "key")?, need_u64(&obj, "value")?);
            }
            "accum" => {
                snap.accums.insert(need_str(&obj, "key")?, need_f64(&obj, "value")?);
            }
            "gauge" => {
                let stats = GaugeStats {
                    last: need_f64(&obj, "last")?,
                    count: need_u64(&obj, "count")?,
                    sum: need_f64(&obj, "sum")?,
                    min: need_f64(&obj, "min")?,
                    max: need_f64(&obj, "max")?,
                };
                snap.gauges.insert(need_str(&obj, "key")?, stats);
            }
            "span" => snap.spans.push(SnapSpan {
                key: need_str(&obj, "key")?,
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

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_snapshot() -> Snapshot {
        let mut snap = Snapshot::default();
        snap.counters.insert("vecenv.steps".into(), 8192);
        snap.counters.insert("driver.env_steps".into(), 4096);
        snap.accums.insert("session.wall_s".into(), 12.75);
        snap.accums.insert("session.active_j".into(), 0.1 + 0.2); // 0.30000000000000004
        snap.gauges.insert(
            "runtime.occupancy".into(),
            GaugeStats { last: 0.5, count: 3, sum: 1.5, min: 0.25, max: 0.75 },
        );
        snap.spans.push(SnapSpan {
            key: "study.trial".into(),
            thread: 0,
            begin_ns: 10,
            end_ns: 950,
        });
        snap.events.push(SnapEvent {
            t_ns: 42,
            thread: 1,
            key: "driver.iteration".into(),
            fields: vec![
                ("iteration".into(), FieldValue::U64(1)),
                ("mean_return".into(), FieldValue::F64(-3.25)),
                ("done".into(), FieldValue::Bool(false)),
                ("status".into(), FieldValue::Str("ok \"quoted\"".into())),
            ],
        });
        snap.dropped_events = 2;
        snap
    }

    #[test]
    fn json_lines_round_trip_is_exact() {
        let snap = sample_snapshot();
        let text = to_json_lines(&snap);
        let back = from_json_lines(&text).unwrap();
        assert_eq!(back, snap);
        // The awkward float survives bit for bit.
        assert_eq!(back.accum("session.active_j").unwrap().to_bits(), (0.1f64 + 0.2).to_bits());
    }

    #[test]
    fn number_typing_is_preserved() {
        let snap = from_json_lines(
            "{\"ty\":\"event\",\"key\":\"e\",\"t_ns\":1,\"thread\":0,\
             \"fields\":{\"i\":3,\"x\":3.0,\"neg\":-2,\"exp\":1e3}}",
        )
        .unwrap();
        let e = &snap.events[0];
        assert_eq!(e.field("i"), Some(&FieldValue::U64(3)));
        assert_eq!(e.field("x"), Some(&FieldValue::F64(3.0)));
        assert_eq!(e.field("neg"), Some(&FieldValue::F64(-2.0)));
        assert_eq!(e.field("exp"), Some(&FieldValue::F64(1000.0)));
    }

    #[test]
    fn non_finite_floats_round_trip() {
        let mut snap = Snapshot::default();
        snap.accums.insert("nan".into(), f64::NAN);
        snap.accums.insert("pinf".into(), f64::INFINITY);
        snap.accums.insert("ninf".into(), f64::NEG_INFINITY);
        let back = from_json_lines(&to_json_lines(&snap)).unwrap();
        assert!(back.accum("nan").unwrap().is_nan());
        assert_eq!(back.accum("pinf"), Some(f64::INFINITY));
        assert_eq!(back.accum("ninf"), Some(f64::NEG_INFINITY));
    }

    #[test]
    fn single_event_line_round_trips_exactly() {
        let e = SnapEvent {
            t_ns: 7,
            thread: 3,
            key: "trial.completed".into(),
            fields: vec![
                ("trial".into(), FieldValue::U64(12)),
                ("m.reward".into(), FieldValue::F64(0.1 + 0.2)),
                ("m.loss".into(), FieldValue::F64(f64::NAN)),
                ("m.bound".into(), FieldValue::F64(f64::NEG_INFINITY)),
                ("config".into(), FieldValue::Str("lr=0.003;\n\"q\"".into())),
                ("reused".into(), FieldValue::Bool(true)),
            ],
        };
        let line = event_to_json_line(&e);
        assert!(!line.contains('\n'), "one event must stay on one line");
        let back = event_from_json_line(&line).unwrap();
        // NaN breaks PartialEq; compare everything else then the bits.
        assert_eq!(back.key, e.key);
        assert_eq!((back.t_ns, back.thread), (e.t_ns, e.thread));
        assert_eq!(back.fields.len(), e.fields.len());
        for ((bn, bv), (en, ev)) in back.fields.iter().zip(e.fields.iter()) {
            assert_eq!(bn, en);
            match (bv, ev) {
                (FieldValue::F64(b), FieldValue::F64(e)) => {
                    assert_eq!(b.to_bits(), e.to_bits(), "field {bn}");
                }
                _ => assert_eq!(bv, ev, "field {bn}"),
            }
        }
    }

    #[test]
    fn event_line_parser_rejects_other_records() {
        assert!(event_from_json_line("{\"ty\":\"counter\",\"key\":\"k\",\"value\":1}").is_err());
        assert!(event_from_json_line("{\"ty\":\"event\",\"key\":\"k\"").is_err());
        assert!(event_from_json_line("").is_err());
    }

    #[test]
    fn hostile_nesting_is_an_error_naming_the_offset_not_a_stack_overflow() {
        // A few hundred kB of `{"a":{"a":…` used to recurse once per level.
        let deep = "{\"a\":".repeat(100_000);
        let cap = crate::json::MAX_DEPTH;
        let e = event_from_json_line(&deep).unwrap_err();
        assert!(e.contains(&format!("at byte {}: nesting deeper than {cap}", 5 * cap)), "{e}");
        assert!(from_json_lines(&deep).is_err());
        let in_fields = format!(
            "{{\"ty\":\"event\",\"key\":\"k\",\"t_ns\":0,\"thread\":0,\"fields\":{{\"x\":{}",
            "[".repeat(100_000)
        );
        assert!(event_from_json_line(&in_fields).is_err());
    }

    #[test]
    fn event_fields_stay_scalar() {
        for value in ["null", "[1]", "{}"] {
            let line = format!(
                "{{\"ty\":\"event\",\"key\":\"k\",\"t_ns\":0,\"thread\":0,\
                 \"fields\":{{\"x\":{value}}}}}"
            );
            let e = event_from_json_line(&line).unwrap_err();
            assert!(e.contains("'x' must be a scalar"), "{e}");
        }
        assert!(from_json_lines("[]").unwrap_err().contains("must be an object"));
    }

    #[test]
    fn parser_rejects_malformed_lines() {
        assert!(from_json_lines("{\"ty\":\"counter\"}").is_err());
        assert!(from_json_lines("{\"ty\":\"mystery\",\"key\":\"k\"}").is_err());
        assert!(from_json_lines("not json").is_err());
        assert!(from_json_lines("{\"ty\":\"counter\",\"key\":\"k\",\"value\":1} extra").is_err());
        // Counters must be integers, not floats.
        assert!(from_json_lines("{\"ty\":\"counter\",\"key\":\"k\",\"value\":1.5}").is_err());
    }
}
