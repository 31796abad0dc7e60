//! The tree's one JSON reader.
//!
//! [`parse`] turns one document into a [`Json`] value. The trace and WAL
//! readers in [`crate::export`] and the schema validator in
//! `telemetry_smoke` go through it. Numbers keep a spelling-derived type,
//! which is what lets the trace round-trip bit for bit: a bare integer
//! token is `U64` (or `I64` when negative) and never passes through an
//! `f64`; anything with a `.` or an exponent, or too large for 64 bits,
//! is `F64`.
//!
//! Nesting is capped at `MAX_DEPTH`, so a hostile `{"a":{"a":…` line is
//! an `Err` naming the byte offset rather than a stack overflow.

use std::fmt;

/// Deepest nesting of arrays and objects [`parse`] accepts.
pub(crate) const MAX_DEPTH: usize = 64;

/// A parsed JSON value. Object fields keep document order (duplicates
/// included; [`Json::get`] returns the first).
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer token that fits `u64`.
    U64(u64),
    /// A negative integer token that fits `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, fields in document order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// The first field called `name`, when this is an object that has one.
    pub fn get(&self, name: &str) -> Option<&Json> {
        self.as_object()?.iter().find(|(n, _)| n == name).map(|(_, v)| v)
    }

    /// The string, when this is one.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value of a non-negative integer token.
    pub(crate) fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(v) => Some(*v),
            _ => None,
        }
    }

    /// Any number as an `f64` (integers converted).
    pub(crate) fn as_f64(&self) -> Option<f64> {
        match self {
            Json::F64(v) => Some(*v),
            Json::U64(v) => Some(*v as f64),
            Json::I64(v) => Some(*v as f64),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The fields, when this is an object.
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(fields) => Some(fields),
            _ => None,
        }
    }

    /// The JSON Schema name of this value's kind (`"integer"` for both
    /// integer variants, `"number"` for `F64`).
    pub fn kind(&self) -> &'static str {
        match self {
            Json::Null => "null",
            Json::Bool(_) => "boolean",
            Json::U64(_) | Json::I64(_) => "integer",
            Json::F64(_) => "number",
            Json::Str(_) => "string",
            Json::Arr(_) => "array",
            Json::Obj(_) => "object",
        }
    }
}

/// A syntax error, located by byte offset into the input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// Byte offset the parser had reached.
    pub(crate) offset: usize,
    /// What it found wrong there.
    pub(crate) what: String,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "JSON parse error at byte {}: {}", self.offset, self.what)
    }
}

impl std::error::Error for JsonError {}

/// Parse one complete JSON document; trailing non-whitespace is an error.
pub fn parse(text: &str) -> Result<Json, JsonError> {
    let mut p = Parser { text, bytes: text.as_bytes(), pos: 0, depth: 0 };
    let v = p.value()?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.err("trailing characters"));
    }
    Ok(v)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl Parser<'_> {
    fn err(&self, what: impl Into<String>) -> JsonError {
        JsonError { offset: self.pos, what: what.into() }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        self.skip_ws();
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(format!("expected '{}'", b as char)))
        }
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // The run up to the next quote or backslash is copied whole.
            // Both are ASCII, so the run ends on a character boundary.
            let end = self.pos + plain_run(&self.bytes[self.pos..]);
            out.push_str(self.text.get(self.pos..end).ok_or_else(|| self.err("invalid utf-8"))?);
            self.pos = end;
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            if b == b'"' {
                return Ok(out);
            }
            let esc = self.peek().ok_or_else(|| self.err("bad escape"))?;
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'b' => out.push('\u{8}'),
                b'f' => out.push('\u{c}'),
                b'n' => out.push('\n'),
                b'r' => out.push('\r'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex = self.text.get(self.pos..self.pos + 4);
                    let code = hex.and_then(|hex| u32::from_str_radix(hex, 16).ok());
                    let c = code.and_then(char::from_u32);
                    out.push(c.ok_or_else(|| self.err("bad \\u escape"))?);
                    self.pos += 4;
                }
                _ => return Err(self.err("unknown escape")),
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
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
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Json::U64(v));
            }
            match text.parse::<i64>() {
                // "-0" has no integer reading: it is the float negative zero.
                Ok(0) => return Ok(Json::F64(-0.0)),
                Ok(v) => return Ok(Json::I64(v)),
                Err(_) => {}
            }
        }
        text.parse::<f64>().map(Json::F64).map_err(|_| self.err("invalid number"))
    }

    fn keyword(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.err("unknown keyword"))
        }
    }

    fn value(&mut self) -> Result<Json, JsonError> {
        self.skip_ws();
        match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'"' => Ok(Json::Str(self.string()?)),
            b'{' => self.nested(Self::object),
            b'[' => self.nested(Self::array),
            b't' => self.keyword("true", Json::Bool(true)),
            b'f' => self.keyword("false", Json::Bool(false)),
            b'n' => self.keyword("null", Json::Null),
            _ => self.number(),
        }
    }

    fn nested(
        &mut self,
        container: fn(&mut Self) -> Result<Json, JsonError>,
    ) -> Result<Json, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.depth += 1;
        let v = container(self);
        self.depth -= 1;
        v
    }

    fn array(&mut self) -> Result<Json, JsonError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            items.push(self.value()?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                _ => return Err(self.err("expected ',' or ']'")),
            }
        }
    }

    fn object(&mut self) -> Result<Json, JsonError> {
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

/// The length of the run before the first `"` or `\` in `bytes` (all of
/// it when there is none). Whole 16-byte blocks are tested branch-free,
/// which vectorises, so a long string costs one branch per block.
fn plain_run(bytes: &[u8]) -> usize {
    let special = |b: u8| (b == b'"') | (b == b'\\');
    let mut at = 0;
    for block in bytes.chunks_exact(16) {
        if block.iter().fold(false, |any, &b| any | special(b)) {
            break;
        }
        at += 16;
    }
    at + bytes[at..].iter().position(|&b| special(b)).unwrap_or(bytes.len() - at)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_parses() {
        let v = parse(r#" {"a": [1, -2, 3.5, 1e3, true, false, null, "s"], "b": {}, "c": []} "#)
            .unwrap();
        assert_eq!(
            v.get("a").unwrap().as_array().unwrap(),
            &[
                Json::U64(1),
                Json::I64(-2),
                Json::F64(3.5),
                Json::F64(1000.0),
                Json::Bool(true),
                Json::Bool(false),
                Json::Null,
                Json::Str("s".into()),
            ]
        );
        assert_eq!(v.get("b"), Some(&Json::Obj(vec![])));
        assert_eq!(v.get("c"), Some(&Json::Arr(vec![])));
        assert_eq!(v.get("d"), None);
        assert_eq!(parse("7").unwrap().kind(), "integer");
    }

    #[test]
    fn integers_are_exact_over_both_64_bit_ranges() {
        assert_eq!(parse("18446744073709551615").unwrap(), Json::U64(u64::MAX));
        assert_eq!(parse("-9223372036854775808").unwrap(), Json::I64(i64::MIN));
        assert_eq!(parse("9223372036854775807").unwrap(), Json::U64(i64::MAX as u64));
        assert_eq!(parse("-9223372036854775807").unwrap(), Json::I64(-i64::MAX));
        // One past either end is a float, not a wrapped integer.
        assert_eq!(parse("18446744073709551616").unwrap(), Json::F64(18446744073709551616.0));
        assert_eq!(parse("-9223372036854775809").unwrap(), Json::F64(-9223372036854775809.0));
        match parse("-0").unwrap() {
            Json::F64(z) => assert!(z == 0.0 && z.is_sign_negative()),
            other => panic!("-0 parsed as {other:?}"),
        }
    }

    #[test]
    fn string_escapes_decode() {
        let v = parse(r#""a\"\\\/\b\f\n\r\t\u00e9é""#).unwrap();
        assert_eq!(v.as_str(), Some("a\"\\/\u{8}\u{c}\n\r\téé"));
        assert!(parse(r#""\ud83d\ude00""#).is_err(), "surrogate halves are not code points");
        assert!(parse(r#""\u00""#).is_err());
        assert!(parse(r#""\x""#).is_err());
        assert!(parse(r#""open"#).is_err());
    }

    #[test]
    fn malformed_documents_name_the_offset() {
        for (text, offset) in [
            ("", 0),
            ("{\"a\":1} x", 8),
            ("[1,]", 3),
            ("[1 2]", 3),
            ("{\"a\" 1}", 5),
            ("{\"a\":1,}", 7),
            ("nul", 0),
            ("1.2.3", 5),
            ("--1", 3),
        ] {
            let e = parse(text).unwrap_err();
            assert_eq!(e.offset, offset, "{text:?}: {e}");
        }
    }

    #[test]
    fn nesting_is_capped_not_overflowed() {
        let ok = format!("{}{}", "[".repeat(MAX_DEPTH), "]".repeat(MAX_DEPTH));
        assert!(parse(&ok).is_ok());
        let mixed = format!("{}1{}", "{\"a\":[".repeat(MAX_DEPTH / 2), "]}".repeat(MAX_DEPTH / 2));
        assert!(parse(&mixed).is_ok());

        let over = format!("{}{}", "[".repeat(MAX_DEPTH + 1), "]".repeat(MAX_DEPTH + 1));
        let e = parse(&over).unwrap_err();
        assert_eq!(e.offset, MAX_DEPTH);
        assert!(e.what.contains("nesting"), "{e}");

        // Deep enough to overflow the stack of an unbounded recursion.
        for open in ["{\"a\":", "["] {
            let e = parse(&open.repeat(100_000)).unwrap_err();
            assert_eq!(e.offset, open.len() * MAX_DEPTH, "{e}");
        }
    }

    #[test]
    fn truncated_and_bit_flipped_documents_are_ok_or_err_never_a_panic() {
        let doc = r#"{"k":"name","v":[1,-2,3.5e-1,true,false,null],"o":{"s":"a\"\u00e9"}}"#;
        assert!(parse(doc).is_ok());
        // Every strict prefix leaves the outer object open.
        for end in 0..doc.len() {
            let e = parse(&doc[..end]).unwrap_err();
            assert!(e.offset <= end, "{:?}: {e}", &doc[..end]);
        }
        // Every flip of one of an ASCII byte's low seven bits.
        for i in 0..doc.len() {
            for bit in 0..7 {
                let mut bytes = doc.as_bytes().to_vec();
                bytes[i] ^= 1 << bit;
                let text = String::from_utf8(bytes).expect("still ASCII");
                if let Err(e) = parse(&text) {
                    assert!(e.offset <= text.len(), "{text:?}: {e}");
                }
            }
        }
    }
}
