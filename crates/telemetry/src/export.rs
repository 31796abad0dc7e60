//! Snapshot exporter: the JSON-lines trace.
//!
//! The writer is hand-rolled for the one flat shape the trace needs: one
//! object per line, string keys, and numbers typed by spelling — integers
//! are written bare and doubles always carry a `.` or an exponent, so
//! [`from_json_lines`] (reading through [`crate::json`]) reconstructs the
//! exact value kinds and [`to_json_lines`] → [`from_json_lines`]
//! round-trips a [`Snapshot`] to equality (f64 text is the shortest
//! round-trip spelling, [`push_shortest`]).
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
use crate::push_shortest;
use crate::snapshot::{FieldValue, GaugeStats, SnapEvent, SnapSpan, Snapshot};
use std::fmt::Write as _;

// ---------------------------------------------------------------- writer

/// Append an f64 the parser reads back as an f64 (never a bare integer)
/// and bit-for-bit equal: shortest round-trip text ([`push_shortest`]),
/// written in place, with `.0` appended when it would otherwise look
/// integral. Non-finite values are written as JSON strings.
fn push_f64(out: &mut String, x: f64) {
    if x.is_nan() {
        out.push_str("\"NaN\"");
    } else if x.is_infinite() {
        out.push_str(if x > 0.0 { "\"inf\"" } else { "\"-inf\"" });
    } else {
        let start = out.len();
        push_shortest(out, x);
        // The layout is positional: no exponent, so only a point marks a
        // fraction.
        if !out.as_bytes()[start..].contains(&b'.') {
            out.push_str(".0");
        }
    }
}

/// Append `s` as a JSON string.
fn push_json_string(out: &mut String, s: &str) {
    push_json_parts(out, &[s]);
}

/// Append the concatenation of `parts` as one JSON string.
fn push_json_parts(out: &mut String, parts: &[&str]) {
    out.push('"');
    for part in parts {
        push_escaped(out, part);
    }
    out.push('"');
}

/// Append `s` with JSON's escapes, copying the runs between escapes
/// whole. Every byte that needs an escape is ASCII, so each run ends on a
/// character boundary.
fn push_escaped(out: &mut String, s: &str) {
    let mut run = 0;
    // Branch-free over every byte, so it vectorises: a string with
    // nothing to escape, the common case, skips the loop.
    if s.bytes().fold(false, |any, b| any | (b < 0x20) | (b == b'"') | (b == b'\\')) {
        for (i, b) in s.bytes().enumerate() {
            let escape = match b {
                b'"' => "\\\"",
                b'\\' => "\\\\",
                b'\n' => "\\n",
                b'\r' => "\\r",
                b'\t' => "\\t",
                0..=0x1f => "",
                _ => continue,
            };
            out.push_str(&s[run..i]);
            if escape.is_empty() {
                let _ = write!(out, "\\u{b:04x}");
            } else {
                out.push_str(escape);
            }
            run = i + 1;
        }
    }
    out.push_str(&s[run..]);
}

/// One `"ty":"event"` record, written field by field straight into the
/// caller's buffer in the exact spelling [`to_json_lines`] uses for its
/// event records, on one line with no trailing newline. This is the unit
/// the `decision` crate's write-ahead log appends. A field's name is given
/// as pieces and written as their concatenation, so a prefixed name costs
/// no allocation, and a buffer that is cleared and reused allocates
/// nothing per line once it has grown.
pub struct EventLine<'a> {
    out: &'a mut String,
    empty: bool,
}

impl<'a> EventLine<'a> {
    /// Start a record: everything before its first field.
    pub fn begin(out: &'a mut String, key: &str, t_ns: u64, thread: usize) -> Self {
        out.push_str("{\"ty\":\"event\",\"key\":");
        push_json_string(out, key);
        let _ = write!(out, ",\"t_ns\":{t_ns},\"thread\":{thread},\"fields\":{{");
        EventLine { out, empty: true }
    }

    /// Write the separator and `name:`.
    fn name(&mut self, name: &[&str]) -> &mut String {
        if !std::mem::take(&mut self.empty) {
            self.out.push(',');
        }
        push_json_parts(self.out, name);
        self.out.push(':');
        self.out
    }

    /// An integer field, written bare.
    pub fn u64(&mut self, name: &[&str], v: u64) {
        let _ = write!(self.name(name), "{v}");
    }

    /// A double field: shortest round-trip text that never reads as an
    /// integer, or the string spelling of a non-finite value.
    pub fn f64(&mut self, name: &[&str], v: f64) {
        push_f64(self.name(name), v);
    }

    /// A boolean field.
    pub fn bool(&mut self, name: &[&str], v: bool) {
        self.name(name).push_str(if v { "true" } else { "false" });
    }

    /// A string field: the concatenation of `value`.
    pub fn str(&mut self, name: &[&str], value: &[&str]) {
        push_json_parts(self.name(name), value);
    }

    /// A string field holding `xs` as comma-separated shortest round-trip
    /// text ([`push_shortest`]): the empty string for no values.
    pub fn f64s(&mut self, name: &[&str], xs: &[f64]) {
        let out = self.name(name);
        // A 17-digit value with its sign, point and comma fits 24 bytes.
        out.reserve(2 + 24 * xs.len());
        out.push('"');
        for (i, &x) in xs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            // Digits, '.', '-', "NaN" and "inf": nothing to escape.
            push_shortest(out, x);
        }
        out.push('"');
    }

    /// Close the record.
    pub fn finish(self) {
        self.out.push_str("}}");
    }
}

/// Append one event record to `out` as a single JSON line (no trailing
/// newline), through [`EventLine`].
fn push_event_line(out: &mut String, e: &SnapEvent) {
    let mut line = EventLine::begin(out, &e.key, e.t_ns, e.thread);
    for (name, value) in &e.fields {
        let name = &[name.as_str()];
        match value {
            FieldValue::U64(x) => line.u64(name, *x),
            FieldValue::F64(x) => line.f64(name, *x),
            FieldValue::Bool(x) => line.bool(name, *x),
            FieldValue::Str(s) => line.str(name, &[s]),
        }
    }
    line.finish();
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
        out.push_str(",\"value\":");
        push_f64(&mut out, *value);
        out.push_str("}\n");
    }
    for (key, g) in &snap.gauges {
        out.push_str("{\"ty\":\"gauge\",\"key\":");
        push_json_string(&mut out, key);
        out.push_str(",\"last\":");
        push_f64(&mut out, g.last);
        let _ = write!(out, ",\"count\":{},\"sum\":", g.count);
        push_f64(&mut out, g.sum);
        out.push_str(",\"min\":");
        push_f64(&mut out, g.min);
        out.push_str(",\"max\":");
        push_f64(&mut out, g.max);
        out.push_str("}\n");
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
        push_event_line(&mut out, e);
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

fn need_str<'a>(obj: &'a Json, name: &str) -> Result<&'a str, String> {
    field(obj, name)?.as_str().ok_or_else(|| format!("trace field '{name}' must be a string"))
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

/// Move the first field called `name` out of a parsed record, leaving
/// `null` in its place.
fn take_field(obj: &mut Json, name: &str) -> Result<Json, String> {
    let Json::Obj(fields) = obj else {
        return Err(format!("trace record missing field '{name}'"));
    };
    fields
        .iter_mut()
        .find(|(n, _)| n == name)
        .map(|(_, v)| std::mem::replace(v, Json::Null))
        .ok_or_else(|| format!("trace record missing field '{name}'"))
}

/// Decode one parsed `"ty":"event"` object into a [`SnapEvent`]. Names
/// and strings move out of the tree, so a long string field is copied
/// once, by the parser, and never again.
fn event_from_obj(mut obj: Json) -> Result<SnapEvent, String> {
    let Json::Obj(fields) = take_field(&mut obj, "fields")? else {
        return Err("event 'fields' must be an object".into());
    };
    let fields = fields
        .into_iter()
        .map(|(name, v)| {
            let fv = match v {
                Json::U64(x) => FieldValue::U64(x),
                // The writer spells integers unsigned, so a signed
                // integer token is a float someone wrote without its `.0`.
                Json::I64(x) => FieldValue::F64(x as f64),
                Json::F64(x) => FieldValue::F64(x),
                Json::Bool(x) => FieldValue::Bool(x),
                Json::Str(s) => match non_finite(&s) {
                    Some(x) => FieldValue::F64(x),
                    None => FieldValue::Str(s),
                },
                Json::Null | Json::Arr(_) | Json::Obj(_) => {
                    return Err(format!("event field '{name}' must be a scalar, got {}", v.kind()))
                }
            };
            Ok((name, fv))
        })
        .collect::<Result<Vec<_>, String>>()?;
    let t_ns = need_u64(&obj, "t_ns")?;
    let thread = need_u64(&obj, "thread")? as usize;
    let Json::Str(key) = take_field(&mut obj, "key")? else {
        return Err("trace field 'key' must be a string".into());
    };
    Ok(SnapEvent { t_ns, thread, key, fields })
}

/// Parse a JSON-lines trace produced by [`to_json_lines`] back into a
/// [`Snapshot`]. Values round-trip exactly: counters stay integers and
/// f64 text re-parses to the identical bits. `meta` lines add up their
/// `dropped_events`; a sum past `u64::MAX` is an error.
pub fn from_json_lines(text: &str) -> Result<Snapshot, String> {
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
            "event" => snap.events.push(event_from_obj(obj)?),
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
        let mut line = String::new();
        push_event_line(&mut line, &e);
        assert!(!line.contains('\n'), "one event must stay on one line");
        let back = from_json_lines(&line).unwrap().events.remove(0);
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
    fn an_event_line_writes_prefixed_names_and_sample_lists_as_one_string() {
        let mut out = String::from("kept ");
        let mut line = EventLine::begin(&mut out, "k", 3, 0);
        line.u64(&["n"], 7);
        line.str(&["c.", "na\"me"], &["s:", "a\tb"]);
        line.f64s(&["d.", "x"], &[1.5, -0.0, 2e-7]);
        line.f64s(&["d.", "none"], &[]);
        line.bool(&["b"], false);
        line.f64(&["m.", "y"], 2.0);
        line.finish();
        assert_eq!(
            out,
            "kept {\"ty\":\"event\",\"key\":\"k\",\"t_ns\":3,\"thread\":0,\"fields\":{\"n\":7,\
             \"c.na\\\"me\":\"s:a\\tb\",\"d.x\":\"1.5,-0,0.0000002\",\"d.none\":\"\",\"b\":false,\
             \"m.y\":2.0}}"
        );
    }

    #[test]
    fn strings_round_trip_with_an_escape_at_every_offset() {
        // Both the writer's and the reader's runs are cut at escapes and
        // the reader scans in 16-byte blocks: put one at every offset.
        for len in 0..40 {
            for at in 0..len {
                for special in ['"', '\\', '\n', '\u{1}', '\u{1f}', 'é', '/'] {
                    let s: String = (0..len).map(|i| if i == at { special } else { 'a' }).collect();
                    let mut text = String::new();
                    push_json_string(&mut text, &s);
                    assert!(!text.bytes().any(|b| b < 0x20), "raw control byte in {text:?}");
                    assert_eq!(json::parse(&text).unwrap().as_str(), Some(s.as_str()), "{text}");
                }
            }
        }
    }

    #[test]
    fn hostile_nesting_is_an_error_naming_the_offset_not_a_stack_overflow() {
        // A few hundred kB of `{"a":{"a":…` used to recurse once per level.
        let deep = "{\"a\":".repeat(100_000);
        let cap = crate::json::MAX_DEPTH;
        let e = from_json_lines(&deep).unwrap_err();
        assert!(e.contains(&format!("at byte {}: nesting deeper than {cap}", 5 * cap)), "{e}");
        let in_fields = format!(
            "{{\"ty\":\"event\",\"key\":\"k\",\"t_ns\":0,\"thread\":0,\"fields\":{{\"x\":{}",
            "[".repeat(100_000)
        );
        assert!(from_json_lines(&in_fields).is_err());
    }

    #[test]
    fn event_fields_stay_scalar() {
        for value in ["null", "[1]", "{}"] {
            let line = format!(
                "{{\"ty\":\"event\",\"key\":\"k\",\"t_ns\":0,\"thread\":0,\
                 \"fields\":{{\"x\":{value}}}}}"
            );
            let e = from_json_lines(&line).unwrap_err();
            assert!(e.contains("'x' must be a scalar"), "{e}");
        }
        assert!(from_json_lines("[]").unwrap_err().contains("must be an object"));
    }

    const OVERFLOWING_METAS: &str = "{\"ty\":\"meta\",\"dropped_events\":18446744073709551615}\n\
                                     {\"ty\":\"meta\",\"dropped_events\":1}\n";

    #[test]
    fn dropped_events_past_u64_max_are_an_error_not_an_overflow() {
        let e = from_json_lines(OVERFLOWING_METAS).unwrap_err();
        assert!(e.contains("u64::MAX"), "{e}");
        let one = OVERFLOWING_METAS.lines().next().unwrap();
        assert_eq!(from_json_lines(one).unwrap().dropped_events, u64::MAX);
    }

    #[test]
    fn truncated_and_bit_flipped_traces_are_ok_or_err_never_a_panic() {
        let mut snap = sample_snapshot();
        snap.events[0].fields.push(("site".into(), FieldValue::Str("Zürich §7 ✓".into())));
        let trace = to_json_lines(&snap);
        assert_eq!(from_json_lines(&trace).unwrap(), snap);
        // A tear inside a multi-byte character reads back lossily, as a
        // file read that way would.
        let read = |bytes: &[u8]| {
            let _ = from_json_lines(&String::from_utf8_lossy(bytes));
        };
        let bytes = trace.as_bytes();
        for end in 0..bytes.len() {
            read(&bytes[..end]);
        }
        for i in 0..bytes.len() {
            for bit in 0..7 {
                let mut flipped = bytes.to_vec();
                flipped[i] ^= 1 << bit;
                read(&flipped);
            }
        }
        read(OVERFLOWING_METAS.as_bytes());
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
