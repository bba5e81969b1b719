//! # sim-json
//!
//! A zero-dependency JSON value type with a strict reader and a
//! deterministic serializer, in the spirit of the in-tree `sim-rng`
//! precedent: the workspace must stay offline-buildable, so instead of
//! pulling `serde_json` we pin a small, fully-tested codec here.
//!
//! It is the workspace's only JSON writer: `mcr-serve` builds every
//! exported document (run telemetry, sweep results, compare tables,
//! service replies, command-trace lines) as a [`Json`] tree, and the
//! result store encodes its entries with it. Its one grammar is the pull
//! [`Reader`]: [`Json::parse`], which the `mcr-serve` protocol reads
//! requests with, builds a tree from the reader's tokens, and the result
//! store decodes its reports from them without a tree.
//!
//! Design points:
//!
//! * **Order-preserving objects.** [`Json::Obj`] stores members as a
//!   `Vec<(String, Json)>` in insertion/document order, so
//!   `parse(serialize(v)) == v` holds structurally *and* byte-wise for
//!   re-serialization. Duplicate keys are rejected at parse time
//!   ([`JsonErrorKind::DuplicateKey`]), in time linear in the members —
//!   the protocol never produces them and silently-last-wins is a
//!   classic grief vector.
//! * **Borrowed tokens, exact integers.** The reader's member names and
//!   strings borrow from the input unless escaped, and a plain integer
//!   token reads exactly as a `u64` ([`Number::as_u64`]) without the
//!   float parser.
//! * **Typed, panic-free errors.** Every malformed input maps to a
//!   [`JsonError`] carrying a [`JsonErrorKind`] and a byte offset; the
//!   reader never panics (fuzzed in `tests/proptests.rs`).
//! * **Finite numbers only.** JSON has no NaN/Infinity literals; the
//!   serializer renders non-finite numbers as `null`.
//! * **Bounded nesting.** Nesting deeper than [`MAX_DEPTH`] is a typed
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
#![warn(clippy::unwrap_used, clippy::expect_used)]

use std::borrow::Cow;
use std::collections::HashSet;
use std::fmt;

/// Maximum nesting depth the reader accepts before returning
/// [`JsonErrorKind::TooDeep`]. Generous for protocol traffic (requests
/// nest 3–4 levels) while keeping recursion bounded on hostile input.
pub const MAX_DEPTH: usize = 128;

/// 2^53: an `f64` holds every integer up to here exactly, and rounds
/// some integers above it.
pub const MAX_EXACT_INT: u64 = 1 << 53;

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
    /// Any JSON number. Stored as `f64`; integers up to
    /// [`MAX_EXACT_INT`] are exact.
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
        let mut reader = Reader::new(text);
        let token = reader.next_token()?;
        let value = build(&mut reader, token)?;
        // The end of the input, or `TrailingData`.
        reader.next_token()?;
        Ok(value)
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
        if n.fract() == 0.0 && (0.0..=MAX_EXACT_INT as f64).contains(&n) {
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
        if n <= MAX_EXACT_INT {
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

/// Renders a number: whole values within ±2^53 as integers, everything
/// else via Rust's shortest-round-trip float formatting, non-finite as
/// `null`.
fn write_num(n: f64, out: &mut String) {
    use fmt::Write as _;
    if !n.is_finite() {
        out.push_str("null");
    } else if n.fract() == 0.0 && n.abs() <= MAX_EXACT_INT as f64 {
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

/// One token of a JSON document, as [`Reader::next_token`] yields it.
/// Member names and strings borrow from the input; only one with an
/// escape in it is copied out.
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
    /// An object member's name. The `:` after it is read with the value.
    Key(Cow<'a, str>),
    /// A string value (unescaped).
    Str(Cow<'a, str>),
    /// A number.
    Num(Number<'a>),
    /// `true` / `false`.
    Bool(bool),
    /// `null`.
    Null,
}

/// A number token: its text, checked against the JSON number grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Number<'a> {
    text: &'a str,
    exact: Option<u64>,
}

impl<'a> Number<'a> {
    /// The token as written.
    pub fn text(self) -> &'a str {
        self.text
    }

    /// The exact value of a plain integer token (digits only: no sign,
    /// fraction or exponent) that fits a `u64`, read without the float
    /// parser; `None` for any other number.
    pub fn as_u64(self) -> Option<u64> {
        self.exact
    }

    /// The nearest `f64`: bit-identical to `str::parse::<f64>` of the
    /// token, so a value past the `f64` range reads as ±infinity.
    pub fn as_f64(self) -> f64 {
        match self.exact {
            // `as` rounds to nearest, ties to even, as the parse does.
            Some(n) => n as f64,
            // The JSON number grammar is a subset of what `parse`
            // accepts, so this never falls back.
            None => self.text.parse().unwrap_or(f64::NAN),
        }
    }
}

/// What [`Reader::next_token`] reads next.
#[derive(Debug, Clone, Copy)]
enum Expect {
    /// The document's value.
    Value,
    /// A member's `:`, then its value.
    Colon,
    /// The innermost container's first item or member name, or its
    /// closer.
    First,
    /// A `,` and the next item or member name, or the closer.
    Next,
    /// The end of the input, after the document.
    End,
}

/// A pull reader over one JSON document, and the crate's one grammar:
/// structure, commas and colons, [`MAX_DEPTH`], string escapes,
/// surrogate pairs and control characters, the number grammar, and
/// nothing but whitespace after the document. [`Json::parse`] builds
/// its tree from these tokens; the result store decodes reports from
/// them directly.
///
/// ```
/// use sim_json::{Reader, Token};
///
/// let mut r = Reader::new(r#"{"seq": 7}"#);
/// assert_eq!(r.next_token()?, Some(Token::BeginObject));
/// assert_eq!(r.next_token()?, Some(Token::Key("seq".into())));
/// let Some(Token::Num(n)) = r.next_token()? else { panic!("a number") };
/// assert_eq!(n.as_u64(), Some(7));
/// assert_eq!(r.next_token()?, Some(Token::EndObject));
/// assert_eq!(r.next_token()?, None);
/// # Ok::<(), sim_json::JsonError>(())
/// ```
#[derive(Debug, Clone)]
pub struct Reader<'a> {
    text: &'a str,
    pos: usize,
    /// Where the last token returned began.
    start: usize,
    /// Open containers, innermost last: `true` for an object.
    open: Vec<bool>,
    expect: Expect,
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            start: 0,
            open: Vec::new(),
            expect: Expect::Value,
        }
    }

    /// The next token, or `None` once the document and any whitespace
    /// after it are read.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] locating the first problem; never panics,
    /// regardless of input.
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, JsonError> {
        self.skip_ws();
        let in_object = self.open.last() == Some(&true);
        let token = match (self.expect, self.peek()) {
            (Expect::End, None) => return Ok(None),
            (Expect::End, Some(_)) => return Err(self.err(JsonErrorKind::TrailingData)),
            (Expect::Value, _) => self.value()?,
            (Expect::Colon, _) => {
                self.eat(b':')?;
                self.skip_ws();
                self.value()?
            }
            (Expect::First | Expect::Next, Some(b']')) if !in_object => self.close(Token::EndArray),
            (Expect::First | Expect::Next, Some(b'}')) if in_object => self.close(Token::EndObject),
            (Expect::First, _) => self.item(in_object)?,
            (Expect::Next, Some(b',')) => {
                self.pos += 1;
                self.skip_ws();
                self.item(in_object)?
            }
            (Expect::Next, other) => return Err(self.unexpected(other)),
        };
        Ok(Some(token))
    }

    /// The byte offset where the last token returned began.
    pub(crate) fn offset(&self) -> usize {
        self.start
    }

    fn err(&self, kind: JsonErrorKind) -> JsonError {
        JsonError {
            kind,
            offset: self.pos,
        }
    }

    fn unexpected(&self, byte: Option<u8>) -> JsonError {
        self.err(match byte {
            Some(c) => JsonErrorKind::UnexpectedChar(c as char),
            None => JsonErrorKind::UnexpectedEof,
        })
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        // The hot loops run a local cursor: through `&mut self` the
        // compiler stores `self.pos` on every step.
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while matches!(bytes.get(pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            pos += 1;
        }
        self.pos = pos;
    }

    fn eat(&mut self, b: u8) -> Result<(), JsonError> {
        match self.peek() {
            Some(c) if c == b => {
                self.pos += 1;
                Ok(())
            }
            other => Err(self.unexpected(other)),
        }
    }

    /// What follows a complete value: the enclosing container's next
    /// `,` or closer, or the end of the input.
    fn after_value(&self) -> Expect {
        if self.open.is_empty() {
            Expect::End
        } else {
            Expect::Next
        }
    }

    fn begin(&mut self, object: bool, token: Token<'a>) -> Token<'a> {
        self.pos += 1;
        self.open.push(object);
        self.expect = Expect::First;
        token
    }

    fn close(&mut self, token: Token<'a>) -> Token<'a> {
        self.start = self.pos;
        self.pos += 1;
        self.open.pop();
        self.expect = self.after_value();
        token
    }

    /// An object's member name, or an array's item.
    fn item(&mut self, in_object: bool) -> Result<Token<'a>, JsonError> {
        if !in_object {
            return self.value();
        }
        self.start = self.pos;
        let key = self.string()?;
        self.expect = Expect::Colon;
        Ok(Token::Key(key))
    }

    fn value(&mut self) -> Result<Token<'a>, JsonError> {
        self.start = self.pos;
        if self.open.len() > MAX_DEPTH {
            return Err(self.err(JsonErrorKind::TooDeep));
        }
        let token = match self.peek() {
            Some(b'{') => return Ok(self.begin(true, Token::BeginObject)),
            Some(b'[') => return Ok(self.begin(false, Token::BeginArray)),
            Some(b'"') => Token::Str(self.string()?),
            Some(b'n') => self.literal("null", Token::Null)?,
            Some(b't') => self.literal("true", Token::Bool(true))?,
            Some(b'f') => self.literal("false", Token::Bool(false))?,
            Some(b'-' | b'0'..=b'9') => Token::Num(self.number()?),
            other => return Err(self.unexpected(other)),
        };
        self.expect = self.after_value();
        Ok(token)
    }

    fn literal(&mut self, word: &str, token: Token<'a>) -> Result<Token<'a>, JsonError> {
        let rest = &self.text.as_bytes()[self.pos..];
        if rest.starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(token)
        } else if rest.len() < word.len() {
            Err(self.err(JsonErrorKind::UnexpectedEof))
        } else {
            Err(self.unexpected(self.peek()))
        }
    }

    /// Reads a string from its opening quote. It borrows from the input
    /// unless an escape makes it differ from its bytes.
    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.eat(b'"')?;
        let mut owned: Option<String> = None;
        loop {
            let run = self.run()?;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(match owned {
                        None => Cow::Borrowed(run),
                        Some(mut s) => {
                            s.push_str(run);
                            Cow::Owned(s)
                        }
                    });
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let s = owned.get_or_insert_with(String::new);
                    s.push_str(run);
                    s.push(self.escape()?);
                }
                // The run stops only at a quote, a backslash, a control
                // character or the end.
                Some(_) => return Err(self.err(JsonErrorKind::ControlInString)),
                None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            }
        }
    }

    /// Skips the plain bytes of a string and returns them. The run
    /// stops before an ASCII byte or at the end, so on `&str` input it
    /// is always whole UTF-8.
    fn run(&mut self) -> Result<&'a str, JsonError> {
        let start = self.pos;
        let bytes = self.text.as_bytes();
        let mut end = start;
        while bytes
            .get(end)
            .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
        {
            end += 1;
        }
        self.pos = end;
        let text = self.text;
        text.get(start..end)
            .ok_or_else(|| self.err(JsonErrorKind::BadUnicode))
    }

    /// Reads the escape after a `\` and returns the character it stands
    /// for.
    fn escape(&mut self) -> Result<char, JsonError> {
        let c = match self.peek() {
            None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
            Some(b'"') => '"',
            Some(b'\\') => '\\',
            Some(b'/') => '/',
            Some(b'b') => '\u{8}',
            Some(b'f') => '\u{c}',
            Some(b'n') => '\n',
            Some(b'r') => '\r',
            Some(b't') => '\t',
            Some(b'u') => {
                self.pos += 1;
                return self.unicode();
            }
            Some(_) => return Err(self.err(JsonErrorKind::BadEscape)),
        };
        self.pos += 1;
        Ok(c)
    }

    /// Reads the `XXXX` of a `\uXXXX` escape, and a low surrogate's
    /// `\uXXXX` after a high one.
    fn unicode(&mut self) -> Result<char, JsonError> {
        let hi = self.hex4()?;
        let code = if (0xD800..=0xDBFF).contains(&hi) {
            // A high surrogate must pair with \uDC00..DFFF.
            for b in [b'\\', b'u'] {
                if self.peek() != Some(b) {
                    return Err(self.err(JsonErrorKind::BadUnicode));
                }
                self.pos += 1;
            }
            let lo = self.hex4()?;
            if !(0xDC00..=0xDFFF).contains(&lo) {
                return Err(self.err(JsonErrorKind::BadUnicode));
            }
            0x10000 + ((u32::from(hi) - 0xD800) << 10) + (u32::from(lo) - 0xDC00)
        } else if (0xDC00..=0xDFFF).contains(&hi) {
            return Err(self.err(JsonErrorKind::BadUnicode));
        } else {
            u32::from(hi)
        };
        char::from_u32(code).ok_or_else(|| self.err(JsonErrorKind::BadUnicode))
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

    fn digits(&mut self) {
        let bytes = self.text.as_bytes();
        let mut pos = self.pos;
        while bytes.get(pos).is_some_and(u8::is_ascii_digit) {
            pos += 1;
        }
        self.pos = pos;
    }

    fn number(&mut self) -> Result<Number<'a>, JsonError> {
        let start = self.pos;
        let negative = self.peek() == Some(b'-');
        if negative {
            self.pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits.
        match self.peek() {
            Some(b'0') => self.pos += 1,
            Some(b'1'..=b'9') => self.digits(),
            Some(_) => return Err(self.err(JsonErrorKind::BadNumber)),
            None => return Err(self.err(JsonErrorKind::UnexpectedEof)),
        }
        let mut plain = !negative;
        if self.peek() == Some(b'.') {
            plain = false;
            self.pos += 1;
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            self.digits();
        }
        if matches!(self.peek(), Some(b'e' | b'E')) {
            plain = false;
            self.pos += 1;
            if matches!(self.peek(), Some(b'+' | b'-')) {
                self.pos += 1;
            }
            if !matches!(self.peek(), Some(b'0'..=b'9')) {
                return Err(self.err(JsonErrorKind::BadNumber));
            }
            self.digits();
        }
        let text = self.text;
        match text.get(start..self.pos) {
            Some(text) => Ok(Number {
                text,
                // An integer parse, exact or `None` past `u64::MAX`.
                exact: plain.then(|| text.parse().ok()).flatten(),
            }),
            None => Err(self.err(JsonErrorKind::BadNumber)),
        }
    }
}

/// Builds the value that `token` starts, reading the rest of it from
/// `reader`.
fn build<'a>(reader: &mut Reader<'a>, token: Option<Token<'a>>) -> Result<Json, JsonError> {
    Ok(match token {
        Some(Token::Null) => Json::Null,
        Some(Token::Bool(b)) => Json::Bool(b),
        Some(Token::Num(n)) => Json::Num(n.as_f64()),
        Some(Token::Str(s)) => Json::Str(s.into_owned()),
        Some(Token::BeginArray) => {
            let mut items = Vec::new();
            loop {
                match reader.next_token()? {
                    Some(Token::EndArray) => break,
                    token => items.push(build(reader, token)?),
                }
            }
            Json::Arr(items)
        }
        Some(Token::BeginObject) => {
            let mut members: Vec<(String, Json)> = Vec::new();
            // The names seen so far, borrowed from the input unless escaped.
            let mut seen: HashSet<Cow<'a, str>> = HashSet::new();
            while let Some(Token::Key(key)) = reader.next_token()? {
                if !seen.insert(key.clone()) {
                    return Err(JsonError {
                        kind: JsonErrorKind::DuplicateKey(key.into_owned()),
                        offset: reader.offset(),
                    });
                }
                let token = reader.next_token()?;
                members.push((key.into_owned(), build(reader, token)?));
            }
            Json::Obj(members)
        }
        // The reader yields a closer or a member name only after the
        // opener of its container, and `None` only after the document.
        Some(Token::EndArray | Token::EndObject | Token::Key(_)) | None => {
            unreachable!("the reader starts every value with a value token")
        }
    })
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

    /// Every token `text` reads to, and the offset each began at.
    fn tokens(text: &str) -> Vec<(usize, Token<'_>)> {
        let mut r = Reader::new(text);
        let mut out = Vec::new();
        while let Some(t) = r.next_token().expect(text) {
            out.push((r.offset(), t));
        }
        out
    }

    #[test]
    fn reader_tokens_borrow_unless_escaped() {
        let text = r#" {"k": ["v", "a\nb", -1.5, null], "e\u00e9": true} "#;
        let got = tokens(text);
        let want = [
            (1, Token::BeginObject),
            (2, Token::Key("k".into())),
            (7, Token::BeginArray),
            (8, Token::Str("v".into())),
            (13, Token::Str("a\nb".into())),
            (
                21,
                Token::Num(Number {
                    text: "-1.5",
                    exact: None,
                }),
            ),
            (27, Token::Null),
            (31, Token::EndArray),
            (34, Token::Key("e\u{e9}".into())),
            (45, Token::Bool(true)),
            (49, Token::EndObject),
        ];
        assert_eq!(got, want);
        assert!(matches!(&got[1].1, Token::Key(Cow::Borrowed(_))));
        assert!(matches!(&got[3].1, Token::Str(Cow::Borrowed(_))));
        assert!(matches!(&got[4].1, Token::Str(Cow::Owned(_))));
        assert!(matches!(&got[8].1, Token::Key(Cow::Owned(_))));
        // After the document: only the end, however often asked.
        let mut r = Reader::new("[] ");
        for _ in 0..2 {
            r.next_token().expect("token");
        }
        assert_eq!(r.next_token(), Ok(None));
        assert_eq!(r.next_token(), Ok(None));
    }

    #[test]
    fn integer_tokens_are_exact() {
        fn number(text: &str) -> Number<'_> {
            match Reader::new(text).next_token() {
                Ok(Some(Token::Num(n))) => n,
                other => panic!("{text}: {other:?}"),
            }
        }
        for (text, exact) in [
            ("0", Some(0)),
            ("9007199254740992", Some(MAX_EXACT_INT)),
            ("9007199254740993", Some(MAX_EXACT_INT + 1)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", None),
            ("-0", None),
            ("-1", None),
            ("1.0", None),
            ("1e3", None),
            ("5e-324", None),
            ("1e400", None),
        ] {
            let n = number(text);
            assert_eq!(n.text(), text);
            assert_eq!(n.as_u64(), exact, "{text}");
            let parsed: f64 = text.parse().expect(text);
            assert_eq!(n.as_f64().to_bits(), parsed.to_bits(), "{text}");
        }
        // The tree still holds the rounded f64 of a long integer.
        assert_eq!(
            parse("9007199254740993"),
            Json::Num(9_007_199_254_740_992.0)
        );
    }

    #[test]
    fn duplicate_key_check_is_linear() {
        let mut text = String::from("{");
        for i in 0..20_000 {
            text.push_str(&format!("\"k{i}\":{i},"));
        }
        let last = text.len();
        text.push_str("\"k0\":0}");
        let err = Json::parse(&text).expect_err("repeated key");
        assert_eq!(err.kind, JsonErrorKind::DuplicateKey("k0".into()));
        assert_eq!(err.offset, last);
        // An escaped spelling repeats a name too.
        let escaped = text.replace("\"k0\":0}", "\"\\u006b19999\":0}");
        let err = Json::parse(&escaped).expect_err("repeated key");
        assert_eq!(err.kind, JsonErrorKind::DuplicateKey("k19999".into()));
        assert_eq!(err.offset, last);
        // Distinct keys all the way: one object of 20,000 members.
        let distinct = text.replace("\"k0\":0}", "\"k20000\":0}");
        let v = Json::parse(&distinct).expect("distinct keys");
        assert_eq!(v.as_object().map(<[_]>::len), Some(20_001));
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
