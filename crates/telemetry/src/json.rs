//! The tree's one JSON reader.
//!
//! [`Tokens`] reads a document as a stream of [`Token`]s and holds the
//! whole grammar: names and `:`, `,` between members and elements,
//! nesting, and nothing but whitespace after the one top-level value. Two
//! readers sit on it. [`parse`] builds a [`Json`] tree, which the trace
//! reader in [`crate::export`] and the schema validator in
//! `telemetry_smoke` walk; the `decision` crate's WAL decoder pulls the
//! tokens of a line straight into its event type. A string without escapes
//! comes out as a slice of the input, so a reader that only looks at it
//! copies nothing.
//!
//! Numbers keep a spelling-derived type, which is what lets the trace
//! round-trip bit for bit: a bare integer token is `U64` (or `I64` when
//! negative) and never passes through an `f64`; anything with a `.` or an
//! exponent, or too large for 64 bits, is `F64`.
//!
//! Nesting is capped at `MAX_DEPTH`, so a hostile `{"a":{"a":…` line is
//! an `Err` naming the byte offset rather than a stack overflow.

use std::borrow::Cow;
use std::fmt;

/// Deepest nesting of arrays and objects [`Tokens`] accepts.
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
    let mut tokens = Tokens::new(text);
    let first = tokens.next_token()?;
    let value = tree(&mut tokens, first)?;
    // The document is whole only once the reader has seen its end.
    match tokens.next_token()? {
        None => Ok(value),
        Some(_) => Err(tokens.err("trailing characters")),
    }
}

/// The value that starts with `token`, read to its end. The recursion is
/// as deep as the nesting, which [`Tokens`] caps.
fn tree(tokens: &mut Tokens<'_>, token: Option<Token<'_>>) -> Result<Json, JsonError> {
    Ok(match token.ok_or_else(|| tokens.err("unexpected end"))? {
        Token::Null => Json::Null,
        Token::Bool(b) => Json::Bool(b),
        Token::U64(v) => Json::U64(v),
        Token::I64(v) => Json::I64(v),
        Token::F64(v) => Json::F64(v),
        Token::Str(s) => Json::Str(s.into_owned()),
        Token::BeginArray => {
            let mut items = Vec::new();
            loop {
                match tokens.next_token()? {
                    Some(Token::EndArray) => break Json::Arr(items),
                    token => items.push(tree(tokens, token)?),
                }
            }
        }
        Token::BeginObject => {
            let mut fields = Vec::new();
            loop {
                match tokens.next_token()? {
                    Some(Token::EndObject) => break Json::Obj(fields),
                    Some(Token::Name(name)) => {
                        let value = tokens.next_token()?;
                        fields.push((name.into_owned(), tree(tokens, value)?));
                    }
                    _ => return Err(tokens.err("expected a name")),
                }
            }
        }
        Token::Name(_) | Token::EndArray | Token::EndObject => {
            return Err(tokens.err("expected a value"))
        }
    })
}

/// One token of a JSON document, as [`Tokens`] reads it.
#[derive(Debug, Clone, PartialEq)]
pub enum Token<'a> {
    /// `{`.
    BeginObject,
    /// `}`.
    EndObject,
    /// `[`.
    BeginArray,
    /// `]`.
    EndArray,
    /// An object member's name, its `:` read with it.
    Name(Cow<'a, str>),
    /// A string value: a slice of the input unless it holds an escape.
    Str(Cow<'a, str>),
    /// A non-negative integer token that fits `u64`.
    U64(u64),
    /// A negative integer token that fits `i64`.
    I64(i64),
    /// Any other number.
    F64(f64),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// What the reader expects next.
#[derive(Debug, Clone, Copy)]
enum State {
    /// A value: at the start, and after a name.
    Value,
    /// A first element or `]`.
    ArrayFirst,
    /// `,` and an element, or `]`.
    ArrayNext,
    /// A first name or `}`.
    ObjectFirst,
    /// `,` and a name, or `}`.
    ObjectNext,
    /// Whitespace to the end of the input.
    Done,
}

/// A pull reader over one JSON document: each [`Tokens::next_token`] checks the
/// grammar up to the next token and returns it, and `Ok(None)` once the
/// top-level value is complete and only whitespace follows it. After an
/// `Err` the reader is spent.
#[derive(Debug)]
pub struct Tokens<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
    /// Open containers, innermost last.
    depth: usize,
    /// Bit `i` is set when the container at depth `i` is an object.
    objects: u64,
    state: State,
}

impl<'a> Tokens<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Tokens { text, bytes: text.as_bytes(), pos: 0, depth: 0, objects: 0, state: State::Value }
    }

    /// The byte offset the reader has reached: just past the last token.
    pub fn offset(&self) -> usize {
        self.pos
    }

    /// The next token.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, JsonError> {
        match self.state {
            State::Value => self.value().map(Some),
            State::ArrayFirst => {
                self.skip_ws();
                if self.peek() == Some(b']') {
                    self.pos += 1;
                    Ok(Some(self.close(Token::EndArray)))
                } else {
                    self.value().map(Some)
                }
            }
            State::ObjectFirst => {
                self.skip_ws();
                if self.peek() == Some(b'}') {
                    self.pos += 1;
                    Ok(Some(self.close(Token::EndObject)))
                } else {
                    self.name().map(Some)
                }
            }
            State::ArrayNext => {
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.value().map(Some)
                    }
                    Some(b']') => {
                        self.pos += 1;
                        Ok(Some(self.close(Token::EndArray)))
                    }
                    _ => Err(self.err("expected ',' or ']'")),
                }
            }
            State::ObjectNext => {
                self.skip_ws();
                match self.peek() {
                    Some(b',') => {
                        self.pos += 1;
                        self.name().map(Some)
                    }
                    Some(b'}') => {
                        self.pos += 1;
                        Ok(Some(self.close(Token::EndObject)))
                    }
                    _ => Err(self.err("expected ',' or '}'")),
                }
            }
            State::Done => {
                self.skip_ws();
                if self.pos == self.bytes.len() {
                    Ok(None)
                } else {
                    Err(self.err("trailing characters"))
                }
            }
        }
    }

    /// Read past the rest of the value that `token` began: nothing for a
    /// scalar, everything to the matching close for `{` or `[`.
    pub fn skip(&mut self, token: &Token<'_>) -> Result<(), JsonError> {
        if matches!(token, Token::BeginObject | Token::BeginArray) {
            let outer = self.depth - 1;
            while self.depth > outer {
                self.next_token()?;
            }
        }
        Ok(())
    }

    /// An error at the reader's offset.
    pub(crate) fn err(&self, what: impl Into<String>) -> JsonError {
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

    /// The state after a complete value at the current depth.
    fn after_value(&mut self) {
        self.state = match self.depth {
            0 => State::Done,
            d if self.objects >> (d - 1) & 1 == 1 => State::ObjectNext,
            _ => State::ArrayNext,
        };
    }

    fn open(&mut self, object: bool) -> Result<Token<'a>, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err(format!("nesting deeper than {MAX_DEPTH}")));
        }
        self.pos += 1;
        let bit = 1 << self.depth;
        self.depth += 1;
        if object {
            self.objects |= bit;
            self.state = State::ObjectFirst;
            Ok(Token::BeginObject)
        } else {
            self.objects &= !bit;
            self.state = State::ArrayFirst;
            Ok(Token::BeginArray)
        }
    }

    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.depth -= 1;
        self.after_value();
        token
    }

    fn name(&mut self) -> Result<Token<'a>, JsonError> {
        let name = self.string()?;
        self.expect(b':')?;
        self.state = State::Value;
        Ok(Token::Name(name))
    }

    fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.skip_ws();
        let token = match self.peek().ok_or_else(|| self.err("unexpected end"))? {
            b'{' => return self.open(true),
            b'[' => return self.open(false),
            b'"' => Token::Str(self.string()?),
            b't' => self.keyword("true", Token::Bool(true))?,
            b'f' => self.keyword("false", Token::Bool(false))?,
            b'n' => self.keyword("null", Token::Null)?,
            _ => self.number()?,
        };
        self.after_value();
        Ok(token)
    }

    /// A string, borrowed from the input up to its first escape.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let mut out: Option<String> = None;
        loop {
            // The run up to the next quote or backslash is taken whole.
            // Both are ASCII, so the run ends on a character boundary.
            let end = self.pos + plain_run(&self.bytes[self.pos..]);
            let run = self.text.get(self.pos..end).ok_or_else(|| self.err("invalid utf-8"))?;
            self.pos = end;
            let b = self.peek().ok_or_else(|| self.err("unterminated string"))?;
            self.pos += 1;
            if b == b'"' {
                return Ok(match out {
                    None => Cow::Borrowed(run),
                    Some(mut out) => {
                        out.push_str(run);
                        Cow::Owned(out)
                    }
                });
            }
            let out = out.get_or_insert_with(String::new);
            out.push_str(run);
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

    fn number(&mut self) -> Result<Token<'a>, JsonError> {
        let start = self.pos;
        while let Some(b) = self.peek() {
            if b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E') {
                self.pos += 1;
            } else {
                break;
            }
        }
        let text = self.text.get(start..self.pos).ok_or_else(|| self.err("invalid number"))?;
        if !text.contains(['.', 'e', 'E']) {
            if let Ok(v) = text.parse::<u64>() {
                return Ok(Token::U64(v));
            }
            match text.parse::<i64>() {
                // "-0" has no integer reading: it is the float negative zero.
                Ok(0) => return Ok(Token::F64(-0.0)),
                Ok(v) => return Ok(Token::I64(v)),
                Err(_) => {}
            }
        }
        text.parse::<f64>().map(Token::F64).map_err(|_| self.err("invalid number"))
    }

    fn keyword(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else {
            Err(self.err("unknown keyword"))
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
    fn tokens_borrow_plain_strings_and_skip_whole_values() {
        let doc = r#" {"a" : "plain", "b\u0021": [1, {"c": [true]}], "d": -2.5e1} "#;
        let mut tokens = Tokens::new(doc);
        let mut next = || tokens.next_token().unwrap();
        assert_eq!(next(), Some(Token::BeginObject));
        assert!(matches!(next(), Some(Token::Name(Cow::Borrowed("a")))));
        assert!(matches!(next(), Some(Token::Str(Cow::Borrowed("plain")))));
        match next() {
            Some(Token::Name(Cow::Owned(name))) => assert_eq!(name, "b!"),
            other => panic!("{other:?}"),
        }
        let mut tokens = Tokens::new(doc);
        for _ in 0..4 {
            tokens.next_token().unwrap();
        }
        // Skipping the array leaves the reader at the next member.
        let array = tokens.next_token().unwrap().unwrap();
        assert_eq!(array, Token::BeginArray);
        tokens.skip(&array).unwrap();
        assert_eq!(&doc[tokens.offset() - 1..tokens.offset()], "]");
        assert_eq!(tokens.next_token().unwrap(), Some(Token::Name(Cow::Borrowed("d"))));
        assert_eq!(tokens.next_token().unwrap(), Some(Token::F64(-25.0)));
        tokens.skip(&Token::F64(-25.0)).unwrap();
        assert_eq!(tokens.next_token().unwrap(), Some(Token::EndObject));
        assert_eq!(tokens.next_token().unwrap(), None);
        assert_eq!(tokens.offset(), doc.len());
        // A skip checks what it passes over.
        let mut tokens = Tokens::new("[[1,]]");
        let first = tokens.next_token().unwrap().unwrap();
        assert_eq!(tokens.skip(&first).unwrap_err().offset, 4);
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
