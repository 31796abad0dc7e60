//! Snapshot exporter: the JSON-lines trace.
//!
//! The telemetry crate sits below the serde-using crates, so the JSON
//! emitted and parsed here is hand-rolled for the one flat shape the
//! trace needs: one object per line, string keys, and numbers typed by
//! spelling — integers are written bare and doubles always carry a `.`
//! or an exponent, so [`from_json_lines`] reconstructs the exact value
//! kinds and [`to_json_lines`] → [`from_json_lines`] round-trips a
//! [`Snapshot`] to equality (f64 text uses Rust's shortest round-trip
//! formatting).
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

// ---------------------------------------------------------------- parser

/// A parsed JSON value restricted to the subset the trace uses. Numbers
/// keep their spelling-derived type: bare integers become `U64`,
/// anything with a `.`, exponent, or sign becomes `F64`.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Str(String),
    U64(u64),
    F64(f64),
    Bool(bool),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get<'a>(&'a self, name: &str) -> Option<&'a Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(n, _)| n == name).map(|(_, v)| v),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// f64 view, accepting the string spellings of non-finite values.
    fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::Str(s) => match s.as_str() {
                "NaN" => Some(f64::NAN),
                "inf" => Some(f64::INFINITY),
                "-inf" => Some(f64::NEG_INFINITY),
                _ => None,
            },
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Parser<'a> {
    fn new(line: &'a str) -> Self {
        Parser { bytes: line.as_bytes(), pos: 0 }
    }

    fn err(&self, what: &str) -> String {
        format!("telemetry trace parse error at byte {}: {what}", self.pos)
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), String> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            match b {
                b'"' => return Ok(out),
                b'\\' => {
                    let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            if self.pos + 4 > self.bytes.len() {
                                return Err(self.err("truncated \\u escape"));
                            }
                            let hex = std::str::from_utf8(&self.bytes[self.pos..self.pos + 4])
                                .map_err(|_| self.err("bad \\u escape"))?;
                            let code = u32::from_str_radix(hex, 16)
                                .map_err(|_| self.err("bad \\u escape"))?;
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("bad \\u code point"))?,
                            );
                            self.pos += 4;
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => {
                    // Re-borrow the full char (multi-byte UTF-8 safe).
                    self.pos -= 1;
                    let rest = std::str::from_utf8(&self.bytes[self.pos..])
                        .map_err(|_| self.err("invalid utf-8"))?;
                    let c = rest.chars().next().ok_or_else(|| self.err("unterminated"))?;
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| self.err("invalid number"))?;
        let float_spelled = text.contains(['.', 'e', 'E', '-']);
        if !float_spelled {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| self.err("invalid number"))
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'"' => Ok(Json::Str(self.string()?)),
            b'{' => self.object(),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            _ => self.number(),
        }
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown keyword"))
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut fields = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(fields));
        }
        loop {
            self.skip_ws();
            let name = self.string()?;
            self.expect(b':')?;
            let value = self.value()?;
            fields.push((name, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                _ => return Err(self.err("expected ',' or '}'")),
            }
        }
    }
}

fn parse_line(line: &str) -> Result<Json, String> {
    let mut p = Parser::new(line);
    let v = p.object()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

fn field(obj: &Json, name: &str) -> Result<Json, String> {
    obj.get(name).cloned().ok_or_else(|| format!("trace record missing field '{name}'"))
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

fn need_f64(obj: &Json, name: &str) -> Result<f64, String> {
    field(obj, name)?.as_f64().ok_or_else(|| format!("trace field '{name}' must be a number"))
}

/// Decode one parsed `"ty":"event"` object into a [`SnapEvent`].
fn event_from_obj(obj: &Json) -> Result<SnapEvent, String> {
    let fields = match field(obj, "fields")? {
        Json::Obj(fields) => fields
            .into_iter()
            .map(|(name, v)| {
                let fv = match v {
                    Json::U64(x) => FieldValue::U64(x),
                    Json::F64(x) => FieldValue::F64(x),
                    Json::Bool(x) => FieldValue::Bool(x),
                    Json::Str(s) => match s.as_str() {
                        "NaN" => FieldValue::F64(f64::NAN),
                        "inf" => FieldValue::F64(f64::INFINITY),
                        "-inf" => FieldValue::F64(f64::NEG_INFINITY),
                        _ => FieldValue::Str(s),
                    },
                    Json::Obj(_) => {
                        return Err("nested objects not allowed in event fields".to_string())
                    }
                };
                Ok((name, fv))
            })
            .collect::<Result<Vec<_>, String>>()?,
        _ => return Err("event 'fields' must be an object".to_string()),
    };
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
    fn parser_rejects_malformed_lines() {
        assert!(from_json_lines("{\"ty\":\"counter\"}").is_err());
        assert!(from_json_lines("{\"ty\":\"mystery\",\"key\":\"k\"}").is_err());
        assert!(from_json_lines("not json").is_err());
        assert!(from_json_lines("{\"ty\":\"counter\",\"key\":\"k\",\"value\":1} extra").is_err());
        // Counters must be integers, not floats.
        assert!(from_json_lines("{\"ty\":\"counter\",\"key\":\"k\",\"value\":1.5}").is_err());
    }
}
