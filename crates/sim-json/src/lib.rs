//! # sim-json
//!
//! A zero-dependency JSON value type with a strict parser and a
//! deterministic serializer, in the spirit of the in-tree `sim-rng`
//! precedent: the workspace must stay offline-buildable, so instead of
//! pulling `serde_json` we pin a small, fully-tested codec here.
//!
//! The workspace historically only *emitted* JSON by hand
//! (`mcr_dram::telemetry_to_json`, `SweepResults::to_json`, the golden
//! snapshots). This crate adds the other direction — parsing — which the
//! `mcr-serve` protocol needs, and which lets tests validate the
//! hand-rolled emitters instead of trusting them.
//!
//! Design points:
//!
//! * **Order-preserving objects.** [`Json::Obj`] stores members as a
//!   `Vec<(String, Json)>` in insertion/document order, so
//!   `parse(serialize(v)) == v` holds structurally *and* byte-wise for
//!   re-serialization. Duplicate keys are rejected at parse time
//!   ([`JsonErrorKind::DuplicateKey`]) — the protocol never produces
//!   them and silently-last-wins is a classic grief vector.
//! * **Typed, panic-free errors.** Every malformed input maps to a
//!   [`JsonError`] carrying a [`JsonErrorKind`] and a byte offset; the
//!   parser never panics (fuzzed in `tests/proptests.rs`).
//! * **Finite numbers only.** JSON has no NaN/Infinity literals; the
//!   serializer renders non-finite numbers as `null`, matching the
//!   workspace's existing emitters.
//! * **Bounded recursion.** Nesting deeper than [`MAX_DEPTH`] is a typed
//!   error, not a stack overflow.
//!
//! ```
//! use sim_json::Json;
//!
//! let v = Json::parse(r#"{"cmd": "ping", "seq": 7}"#)?;
//! assert_eq!(v.get("cmd").and_then(Json::as_str), Some("ping"));
//! assert_eq!(v.get("seq").and_then(Json::as_u64), Some(7));
//! assert_eq!(Json::parse(&v.to_string())?, v);
//! # Ok::<(), sim_json::JsonError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;

/// Maximum nesting depth the parser accepts before returning
/// [`JsonErrorKind::TooDeep`]. Generous for protocol traffic (requests
/// nest 3–4 levels) while keeping recursion bounded on hostile input.
pub const MAX_DEPTH: usize = 128;

/// A JSON document: the usual six value kinds.
///
/// Objects preserve member order (a `Vec`, not a map), so documents
/// round-trip byte-identically through parse → serialize.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number. Stored as `f64`; integers up to 2^53 are exact.
    Num(f64),
    /// A string (unescaped, i.e. the logical character sequence).
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion/document order.
    Obj(Vec<(String, Json)>),
}

/// What went wrong while parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JsonErrorKind {
    /// Input ended inside a value, string, or literal.
    UnexpectedEof,
    /// A character that cannot start or continue the expected token.
    UnexpectedChar(char),
    /// Valid document followed by non-whitespace trailing bytes.
    TrailingData,
    /// Nesting exceeded [`MAX_DEPTH`].
    TooDeep,
    /// Malformed `\` escape inside a string.
    BadEscape,
    /// Malformed `\uXXXX` sequence (bad hex digits or a lone surrogate).
    BadUnicode,
    /// Malformed number token.
    BadNumber,
    /// An object repeated a member name.
    DuplicateKey(String),
    /// A literal control character (U+0000..U+001F) inside a string.
    ControlInString,
}

/// A parse failure: the kind plus the byte offset it was detected at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub kind: JsonErrorKind,
    /// Byte offset into the input where the error was detected.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let what = match &self.kind {
            JsonErrorKind::UnexpectedEof => "unexpected end of input".to_string(),
            JsonErrorKind::UnexpectedChar(c) => format!("unexpected character {c:?}"),
            JsonErrorKind::TrailingData => "trailing data after the document".to_string(),
            JsonErrorKind::TooDeep => format!("nesting deeper than {MAX_DEPTH}"),
            JsonErrorKind::BadEscape => "invalid string escape".to_string(),
            JsonErrorKind::BadUnicode => "invalid \\u escape".to_string(),
            JsonErrorKind::BadNumber => "malformed number".to_string(),
            JsonErrorKind::DuplicateKey(k) => format!("duplicate object key {k:?}"),
            JsonErrorKind::ControlInString => "raw control character in string".to_string(),
        };
        write!(f, "{} at byte {}", what, self.offset)
    }
}

impl std::error::Error for JsonError {}

impl Json {
    /// Parses one complete JSON document (leading/trailing whitespace
    /// allowed, nothing else after the value).
    ///
    /// # Errors
    ///
    /// Returns a [`JsonError`] locating the first problem; never panics,
    /// regardless of input.
    pub fn parse(text: &str) -> Result<Json, JsonError> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        p.skip_ws();
        let v = p.value(0)?;
        p.skip_ws();
        if p.pos != p.bytes.len() {
            return Err(p.err(JsonErrorKind::TrailingData));
        }
        Ok(v)
    }

    /// Appends the compact serialization to `out`.
    pub fn write(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => write_num(*n, out),
            Json::Str(s) => write_str(s, out),
            Json::Arr(items) => {
                out.push('[');
                for (i, v) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    v.write(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_str(k, out);
                    out.push(':');
                    v.write(out);
                }
                out.push('}');
            }
        }
    }

    /// Object member lookup (first match); `None` on non-objects.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Sets (replacing) or appends an object member. Returns `false`
    /// — and leaves `self` untouched — when this is not an object.
    pub fn set(&mut self, key: &str, value: Json) -> bool {
        match self {
            Json::Obj(members) => {
                match members.iter_mut().find(|(k, _)| k == key) {
                    Some((_, slot)) => *slot = value,
                    None => members.push((key.to_string(), value)),
                }
                true
            }
            _ => false,
        }
    }

    /// The string payload, when this is a [`Json::Str`].
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a [`Json::Num`].
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// The numeric payload as an exact non-negative integer: `Some` only
    /// for numbers that are whole, in-range and loss-free as `u64`.
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        // 2^53: beyond this f64 cannot represent every integer exactly.
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// Encodes any `u64` losslessly: values an `f64` can hold exactly
    /// (≤ 2^53) become a plain [`Json::Num`]; anything larger becomes a
    /// decimal [`Json::Str`]. [`Json::as_u64_lossless`] reverses both
    /// encodings. This is how the result store persists full-range
    /// counters (e.g. the `u64::MAX` empty-histogram min sentinel)
    /// through a codec whose only number type is `f64`.
    pub fn from_u64_lossless(n: u64) -> Json {
        if n <= 9_007_199_254_740_992 {
            Json::Num(n as f64)
        } else {
            Json::Str(n.to_string())
        }
    }

    /// Decodes either [`Json::from_u64_lossless`] encoding: a whole
    /// in-range number (per [`Json::as_u64`]) or an all-digit decimal
    /// string. Signs, blanks and non-canonical strings return `None`.
    pub fn as_u64_lossless(&self) -> Option<u64> {
        match self {
            Json::Num(_) => self.as_u64(),
            Json::Str(s) => {
                if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
                    return None;
                }
                s.parse().ok()
            }
            _ => None,
        }
    }

    /// The boolean payload, when this is a [`Json::Bool`].
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The items, when this is a [`Json::Arr`].
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// The members, when this is a [`Json::Obj`].
    pub fn as_object(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(members) => Some(members),
            _ => None,
        }
    }

    /// Convenience constructor for an object from `(key, value)` pairs.
    pub fn obj(members: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
        Json::Obj(
            members
                .into_iter()
                .map(|(k, v)| (k.to_string(), v))
                .collect(),
        )
    }

    /// Convenience constructor for a string value.
    pub fn str(s: impl Into<String>) -> Json {
        Json::Str(s.into())
    }
}

impl From<f64> for Json {
    fn from(n: f64) -> Json {
        Json::Num(n)
    }
}

impl From<u64> for Json {
    fn from(n: u64) -> Json {
        Json::Num(n as f64)
    }
}

impl From<bool> for Json {
    fn from(b: bool) -> Json {
        Json::Bool(b)
    }
}

/// Serializes compactly (no insignificant whitespace). Object member
/// order is preserved; non-finite numbers render as `null`; the output
/// always re-parses to an equal value. `to_string()` comes for free.
impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut out = String::new();
        self.write(&mut out);
        f.write_str(&out)
    }
}

/// Renders a number the way the workspace's hand-rolled emitters do:
/// whole in-range values as integers, everything else via Rust's
/// shortest-round-trip float formatting, non-finite as `null`.
fn write_num(n: f64, out: &mut String) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= 9_007_199_254_740_992.0 {
        let _ = write!(out, "{}", n as i64);
    } else {
        let _ = write!(out, "{n}");
    }
}

fn write_str(s: &str, out: &mut String) {
    use fmt::Write as _;
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

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            Some(c) => Err(self.err(JsonErrorKind::UnexpectedChar(c as char))),
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, JsonError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else if self.bytes.len() - self.pos < word.len() {
            Err(self.err(JsonErrorKind::UnexpectedEof))
        } else {
            Err(self.err(JsonErrorKind::UnexpectedChar(self.bytes[self.pos] as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, JsonError> {
        if depth > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        match self.peek() {
            None => Err(self.err(JsonErrorKind::UnexpectedEof)),
            Some(b'n') => self.literal("null", Json::Null),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => self.array(depth),
            Some(b'{') => self.object(depth),
            Some(b'-' | b'0'..=b'9') => self.number(),
            Some(c) => Err(self.err(JsonErrorKind::UnexpectedChar(c as char))),
        }
    }

    fn array(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(Json::Arr(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(Json::Arr(items));
                }
                Some(c) => return Err(self.err(JsonErrorKind::UnexpectedChar(c as char))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn object(&mut self, depth: usize) -> Result<Json, JsonError> {
        self.eat(b'{')?;
        let mut members: Vec<(String, Json)> = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(Json::Obj(members));
        }
        loop {
            self.skip_ws();
            let key_at = self.pos;
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(JsonError {
                    kind: JsonErrorKind::DuplicateKey(key),
                    offset: key_at,
                });
            }
            self.skip_ws();
            self.eat(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(Json::Obj(members));
                }
                Some(c) => return Err(self.err(JsonErrorKind::UnexpectedChar(c as char))),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    fn hex4(&mut self) -> Result<u16, JsonError> {
        let mut v: u16 = 0;
        for _ in 0..4 {
            let d = match self.peek() {
                Some(c @ b'0'..=b'9') => c - b'0',
                Some(c @ b'a'..=b'f') => c - b'a' + 10,
                Some(c @ b'A'..=b'F') => c - b'A' + 10,
                Some(_) => return Err(self.err(JsonErrorKind::BadUnicode)),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            };
            v = (v << 4) | u16::from(d);
            self.pos += 1;
        }
        Ok(v)
    }

    fn string(&mut self) -> Result<String, JsonError> {
        self.eat(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    match self.peek() {
                        None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
                        Some(b'"') => {
                            out.push('"');
                            self.pos += 1;
                        }
                        Some(b'\\') => {
                            out.push('\\');
                            self.pos += 1;
                        }
                        Some(b'/') => {
                            out.push('/');
                            self.pos += 1;
                        }
                        Some(b'b') => {
                            out.push('\u{8}');
                            self.pos += 1;
                        }
                        Some(b'f') => {
                            out.push('\u{c}');
                            self.pos += 1;
                        }
                        Some(b'n') => {
                            out.push('\n');
                            self.pos += 1;
                        }
                        Some(b'r') => {
                            out.push('\r');
                            self.pos += 1;
                        }
                        Some(b't') => {
                            out.push('\t');
                            self.pos += 1;
                        }
                        Some(b'u') => {
                            self.pos += 1;
                            let hi = self.hex4()?;
                            let code = if (0xD800..=0xDBFF).contains(&hi) {
                                // A high surrogate must pair with \uDC00..DFFF.
                                if self.peek() == Some(b'\\') {
                                    self.pos += 1;
                                } else {
                                    return Err(self.err(JsonErrorKind::BadUnicode));
                                }
                                if self.peek() == Some(b'u') {
                                    self.pos += 1;
                                } else {
                                    return Err(self.err(JsonErrorKind::BadUnicode));
                                }
                                let lo = self.hex4()?;
                                if !(0xDC00..=0xDFFF).contains(&lo) {
                                    return Err(self.err(JsonErrorKind::BadUnicode));
                                }
                                0x10000
                                    + ((u32::from(hi) - 0xD800) << 10)
                                    + (u32::from(lo) - 0xDC00)
                            } else if (0xDC00..=0xDFFF).contains(&hi) {
                                return Err(self.err(JsonErrorKind::BadUnicode));
                            } else {
                                u32::from(hi)
                            };
                            match char::from_u32(code) {
                                Some(c) => out.push(c),
                                None => return Err(self.err(JsonErrorKind::BadUnicode)),
                            }
                        }
                        Some(_) => return Err(self.err(JsonErrorKind::BadEscape)),
                    }
                }
                Some(c) if c < 0x20 => return Err(self.err(JsonErrorKind::ControlInString)),
                Some(_) => {
                    // Consume one UTF-8 scalar (input is &str, so always valid).
                    let rest = match std::str::from_utf8(&self.bytes[self.pos..]) {
                        Ok(s) => s,
                        Err(_) => return Err(self.err(JsonErrorKind::BadUnicode)),
                    };
                    let Some(c) = rest.chars().next() else {
                        return Err(self.err(JsonErrorKind::UnexpectedEof));
                    };
                    out.push(c);
                    self.pos += c.len_utf8();
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, JsonError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => {
                while matches!(self.peek(), Some(b'0'..=b'9')) {
                    self.pos += 1;
                }
            }
            Some(_) => return Err(self.err(JsonErrorKind::BadNumber)),
            None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
        }
        if self.peek() == Some(b'.') {
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            while matches!(self.peek(), Some(b'0'..=b'9')) {
                self.pos += 1;
            }
        }
        let text = match std::str::from_utf8(&self.bytes[start..self.pos]) {
            Ok(t) => t,
            Err(_) => return Err(self.err(JsonErrorKind::BadNumber)),
        };
        match text.parse::<f64>() {
            Ok(n) => Ok(Json::Num(n)),
            Err(_) => Err(self.err(JsonErrorKind::BadNumber)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(s: &str) -> Json {
        Json::parse(s).expect(s)
    }

    fn fails(s: &str) -> JsonErrorKind {
        Json::parse(s).expect_err(s).kind
    }

    #[test]
    fn u64_lossless_round_trips_the_full_range() {
        for v in [
            0u64,
            1,
            9_007_199_254_740_992, // 2^53 — last exactly-held Num
            9_007_199_254_740_993, // 2^53 + 1 — first Str fallback
            u64::MAX - 1,
            u64::MAX,
        ] {
            let j = Json::from_u64_lossless(v);
            assert_eq!(j.as_u64_lossless(), Some(v), "value {v}");
            // Survives a serialize → parse cycle too.
            let reparsed = Json::parse(&j.to_string()).expect("well-formed");
            assert_eq!(reparsed.as_u64_lossless(), Some(v), "reparsed {v}");
        }
        assert!(matches!(Json::from_u64_lossless(u64::MAX), Json::Str(_)));
        assert!(matches!(Json::from_u64_lossless(42), Json::Num(_)));
        // Non-canonical strings are rejected.
        assert_eq!(Json::str("").as_u64_lossless(), None);
        assert_eq!(Json::str("+5").as_u64_lossless(), None);
        assert_eq!(Json::str("12a").as_u64_lossless(), None);
        assert_eq!(Json::Num(1.5).as_u64_lossless(), None);
        assert_eq!(Json::Null.as_u64_lossless(), None);
    }

    #[test]
    fn scalars_parse() {
        assert_eq!(parse("null"), Json::Null);
        assert_eq!(parse(" true "), Json::Bool(true));
        assert_eq!(parse("false"), Json::Bool(false));
        assert_eq!(parse("0"), Json::Num(0.0));
        assert_eq!(parse("-12.5e2"), Json::Num(-1250.0));
        assert_eq!(parse("1e3"), Json::Num(1000.0));
        assert_eq!(parse("\"a\\nb\""), Json::Str("a\nb".into()));
    }

    #[test]
    fn containers_parse_in_order() {
        let v = parse(r#"{"b": [1, 2, {"x": null}], "a": "y"}"#);
        let Json::Obj(members) = &v else {
            panic!("object")
        };
        assert_eq!(members[0].0, "b");
        assert_eq!(members[1].0, "a");
        assert_eq!(
            v.get("b").and_then(Json::as_array).map(<[Json]>::len),
            Some(3)
        );
    }

    #[test]
    fn unicode_escapes_and_surrogates() {
        assert_eq!(parse(r#""A""#), Json::Str("A".into()));
        assert_eq!(parse(r#""😀""#), Json::Str("😀".into()));
        assert_eq!(fails(r#""\ud83d""#), JsonErrorKind::BadUnicode);
        assert_eq!(fails(r#""\ude00""#), JsonErrorKind::BadUnicode);
        assert_eq!(fails(r#""\uzzzz""#), JsonErrorKind::BadUnicode);
    }

    #[test]
    fn malformed_inputs_are_typed_errors() {
        assert_eq!(fails(""), JsonErrorKind::UnexpectedEof);
        assert_eq!(fails("{"), JsonErrorKind::UnexpectedEof);
        assert_eq!(fails("nul"), JsonErrorKind::UnexpectedEof);
        assert_eq!(fails("nulL"), JsonErrorKind::UnexpectedChar('n'));
        assert_eq!(fails("01"), JsonErrorKind::TrailingData);
        assert_eq!(fails("1 2"), JsonErrorKind::TrailingData);
        assert_eq!(fails("[1,]"), JsonErrorKind::UnexpectedChar(']'));
        assert_eq!(fails("{'a': 1}"), JsonErrorKind::UnexpectedChar('\''));
        assert_eq!(fails("1."), JsonErrorKind::BadNumber);
        assert_eq!(fails("-"), JsonErrorKind::UnexpectedEof);
        assert_eq!(fails("1e"), JsonErrorKind::BadNumber);
        assert_eq!(fails("\"\u{1}\""), JsonErrorKind::ControlInString);
        assert_eq!(
            fails(r#"{"a": 1, "a": 2}"#),
            JsonErrorKind::DuplicateKey("a".into())
        );
    }

    #[test]
    fn depth_limit_is_enforced() {
        let deep = "[".repeat(MAX_DEPTH + 2) + &"]".repeat(MAX_DEPTH + 2);
        assert_eq!(fails(&deep), JsonErrorKind::TooDeep);
        let ok = "[".repeat(MAX_DEPTH - 1) + &"]".repeat(MAX_DEPTH - 1);
        assert!(Json::parse(&ok).is_ok());
    }

    #[test]
    fn serializer_round_trips() {
        let v = Json::obj([
            ("s", Json::str("a\"b\\c\n\u{1}")),
            ("n", Json::Num(0.1)),
            ("i", Json::from(42u64)),
            ("neg", Json::Num(-7.0)),
            ("arr", Json::Arr(vec![Json::Null, Json::Bool(true)])),
            ("o", Json::Obj(vec![])),
        ]);
        let text = v.to_string();
        assert_eq!(Json::parse(&text).expect("round trip"), v);
        // Stable: serializing the reparse gives the same bytes.
        assert_eq!(parse(&text).to_string(), text);
    }

    #[test]
    fn non_finite_serializes_as_null() {
        assert_eq!(Json::Num(f64::NAN).to_string(), "null");
        assert_eq!(Json::Num(f64::INFINITY).to_string(), "null");
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).to_string(), "3");
        assert_eq!(Json::Num(3.5).to_string(), "3.5");
        assert_eq!(Json::from(u64::from(u32::MAX)).to_string(), "4294967295");
    }

    #[test]
    fn as_u64_guards_range_and_fraction() {
        assert_eq!(Json::Num(7.0).as_u64(), Some(7));
        assert_eq!(Json::Num(7.5).as_u64(), None);
        assert_eq!(Json::Num(-1.0).as_u64(), None);
        assert_eq!(Json::Num(1e15).as_u64(), Some(1_000_000_000_000_000));
        assert_eq!(Json::Num(1e16).as_u64(), None, "beyond 2^53 exactness");
    }

    #[test]
    fn set_replaces_appends_and_refuses_non_objects() {
        let mut v = Json::obj([("a", Json::from(1u64))]);
        assert!(v.set("a", Json::from(2u64)));
        assert!(v.set("b", Json::str("x")));
        assert_eq!(v.get("a").and_then(Json::as_u64), Some(2));
        assert_eq!(v.get("b").and_then(Json::as_str), Some("x"));
        assert_eq!(v.as_object().map(<[_]>::len), Some(2));
        let mut not_obj = Json::from(true);
        assert!(!not_obj.set("a", Json::Null));
        assert_eq!(not_obj, Json::Bool(true));
    }
}
