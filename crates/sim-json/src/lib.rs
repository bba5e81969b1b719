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
//!   token reads exactly as a `u64` ([`Number::as_u64`]), summed as its
//!   digits are lexed, without the float parser.
//! * **Lexing speed.** The reader allocates nothing but escaped strings.
//!   Its one non-inlined step returns a one-byte lexeme and leaves the
//!   payload in the reader; [`Reader::next_token`] inlines at each
//!   caller and puts the token together there.
//! * **Typed, panic-free errors.** Every malformed input maps to a
//!   [`JsonError`] carrying a [`JsonErrorKind`] and a byte offset; the
//!   reader never panics (fuzzed in `tests/proptests.rs`, which also
//!   pins its verdicts and offsets on seeded inputs to one digest).
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
    /// fraction or exponent) that fits a `u64`, summed as the reader
    /// lexed its digits; `None` for any other number.
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
    /// An object's first member name, or its `}`.
    FirstMember,
    /// A `,` and the next member name, or the object's `}`.
    NextMember,
    /// An array's first item, or its `]`.
    FirstItem,
    /// A `,` and the next item, or the array's `]`.
    NextItem,
    /// The end of the input, after the document.
    End,
}

/// What one lexing step read. A token's payload waits in the reader's
/// fields, so the step returns one byte, in a register, and the token is
/// put together where [`Reader::next_token`] is inlined.
#[derive(Debug, Clone, Copy)]
enum Lexeme {
    BeginObject,
    EndObject,
    BeginArray,
    EndArray,
    /// A member name in `run`.
    Key,
    /// A member name with an escape, in `escaped`.
    EscapedKey,
    /// A string in `run`.
    Str,
    /// A string with an escape, in `escaped`.
    EscapedStr,
    /// A number: its text in `run`, its integer in `exact`.
    Num,
    True,
    False,
    Null,
    /// The end of the input, after the document.
    End,
    /// An error, in `fault`.
    Fault,
}

/// A reader error before [`Reader::next_token`] turns it into a
/// [`JsonError`]: one of its kinds, less [`JsonErrorKind::DuplicateKey`]
/// (which only [`Json::parse`] reports), and with no `String` in it.
#[derive(Debug, Clone, Copy)]
enum Fault {
    Eof,
    Char(char),
    Trailing,
    TooDeep,
    Escape,
    Unicode,
    Number,
    Control,
}

/// A [`Fault`] and the byte offset it was detected at.
type Lexed<T> = Result<T, (Fault, usize)>;

impl Fault {
    /// A `Char` for `byte`, or `Eof` at the end of the input.
    fn unexpected(byte: Option<&u8>) -> Fault {
        match byte {
            Some(&c) => Fault::Char(c as char),
            None => Fault::Eof,
        }
    }

    #[cold]
    fn at(self, offset: usize) -> JsonError {
        let kind = match self {
            Fault::Eof => JsonErrorKind::UnexpectedEof,
            Fault::Char(c) => JsonErrorKind::UnexpectedChar(c),
            Fault::Trailing => JsonErrorKind::TrailingData,
            Fault::TooDeep => JsonErrorKind::TooDeep,
            Fault::Escape => JsonErrorKind::BadEscape,
            Fault::Unicode => JsonErrorKind::BadUnicode,
            Fault::Number => JsonErrorKind::BadNumber,
            Fault::Control => JsonErrorKind::ControlInString,
        };
        JsonError { kind, offset }
    }
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
    /// The open containers, outermost first, `true` for an object; only
    /// the first `depth` are live. A value is refused past `MAX_DEPTH`
    /// open containers, so one more slot always suffices.
    open: [bool; MAX_DEPTH + 1],
    depth: usize,
    expect: Expect,
    /// The last string, member name or number token's text, as written.
    run: &'a str,
    /// The last number token's exact integer ([`Number::as_u64`]).
    exact: Option<u64>,
    /// The last string or member name with an escape in it, unescaped.
    escaped: String,
    /// The last error.
    fault: (Fault, usize),
}

impl<'a> Reader<'a> {
    /// A reader at the start of `text`.
    pub fn new(text: &'a str) -> Self {
        Reader {
            text,
            pos: 0,
            start: 0,
            open: [false; MAX_DEPTH + 1],
            depth: 0,
            expect: Expect::Value,
            run: "",
            exact: None,
            escaped: String::new(),
            fault: (Fault::Eof, 0),
        }
    }

    /// The next token, or `None` once the document and any whitespace
    /// after it are read.
    ///
    /// # Errors
    ///
    /// A [`JsonError`] locating the first problem; never panics,
    /// regardless of input.
    #[inline]
    pub fn next_token(&mut self) -> Result<Option<Token<'a>>, JsonError> {
        Ok(Some(match self.lex() {
            Lexeme::BeginObject => Token::BeginObject,
            Lexeme::EndObject => Token::EndObject,
            Lexeme::BeginArray => Token::BeginArray,
            Lexeme::EndArray => Token::EndArray,
            Lexeme::Key => Token::Key(Cow::Borrowed(self.run)),
            Lexeme::EscapedKey => Token::Key(Cow::Owned(std::mem::take(&mut self.escaped))),
            Lexeme::Str => Token::Str(Cow::Borrowed(self.run)),
            Lexeme::EscapedStr => Token::Str(Cow::Owned(std::mem::take(&mut self.escaped))),
            Lexeme::Num => Token::Num(Number {
                text: self.run,
                exact: self.exact,
            }),
            Lexeme::True => Token::Bool(true),
            Lexeme::False => Token::Bool(false),
            Lexeme::Null => Token::Null,
            Lexeme::End => return Ok(None),
            Lexeme::Fault => return Err(self.fault.0.at(self.fault.1)),
        }))
    }

    /// The byte offset where the last token returned began.
    pub(crate) fn offset(&self) -> usize {
        self.start
    }

    /// One token's step. It runs on a local cursor: through `&mut self`
    /// the compiler would store `self.pos` on every step of the byte
    /// loops.
    fn lex(&mut self) -> Lexeme {
        let mut pos = self.pos;
        let lexeme = self.step(&mut pos).unwrap_or_else(|fault| {
            self.fault = fault;
            Lexeme::Fault
        });
        self.pos = pos;
        lexeme
    }

    #[inline(always)]
    fn step(&mut self, pos: &mut usize) -> Lexed<Lexeme> {
        let bytes = self.text.as_bytes();
        skip_ws(bytes, pos);
        // Whether a member name or a value comes next: each is read in
        // one place below.
        let key = match (self.expect, bytes.get(*pos)) {
            (Expect::Value, _) => false,
            (Expect::Colon, Some(b':')) | (Expect::NextItem, Some(b',')) => {
                *pos += 1;
                skip_ws(bytes, pos);
                false
            }
            (Expect::NextMember, Some(b',')) => {
                *pos += 1;
                skip_ws(bytes, pos);
                true
            }
            (Expect::FirstMember | Expect::NextMember, Some(b'}')) => {
                return Ok(self.close(pos, Lexeme::EndObject));
            }
            (Expect::FirstItem | Expect::NextItem, Some(b']')) => {
                return Ok(self.close(pos, Lexeme::EndArray));
            }
            (Expect::FirstMember, _) => true,
            (Expect::FirstItem, _) => false,
            (Expect::End, None) => return Ok(Lexeme::End),
            (Expect::End, Some(_)) => return Err((Fault::Trailing, *pos)),
            (Expect::Colon | Expect::NextMember | Expect::NextItem, other) => {
                return Err((Fault::unexpected(other), *pos));
            }
        };
        if key {
            self.key(pos)
        } else {
            self.value(pos)
        }
    }

    /// What follows a complete value: the enclosing container's next
    /// `,` or closer, or the end of the input.
    fn after_value(&mut self) {
        // `depth - 1` wraps to a missing slot when nothing is open.
        self.expect = match self.open.get(self.depth.wrapping_sub(1)) {
            None => Expect::End,
            Some(true) => Expect::NextMember,
            Some(false) => Expect::NextItem,
        };
    }

    fn begin(&mut self, pos: &mut usize, object: bool, lexeme: Lexeme) -> Lexeme {
        // `value` refused this container past `MAX_DEPTH`, so its slot
        // exists.
        if let Some(slot) = self.open.get_mut(self.depth) {
            *slot = object;
        }
        self.depth += 1;
        *pos += 1;
        self.expect = if object {
            Expect::FirstMember
        } else {
            Expect::FirstItem
        };
        lexeme
    }

    fn close(&mut self, pos: &mut usize, lexeme: Lexeme) -> Lexeme {
        self.start = *pos;
        *pos += 1;
        self.depth -= 1;
        self.after_value();
        lexeme
    }

    /// An object's member name.
    #[inline(always)]
    fn key(&mut self, pos: &mut usize) -> Lexed<Lexeme> {
        self.start = *pos;
        match self.text.as_bytes().get(*pos) {
            Some(b'"') => {}
            other => return Err((Fault::unexpected(other), *pos)),
        }
        let escaped = self.string(pos)?;
        self.expect = Expect::Colon;
        Ok(if escaped {
            Lexeme::EscapedKey
        } else {
            Lexeme::Key
        })
    }

    #[inline(always)]
    fn value(&mut self, pos: &mut usize) -> Lexed<Lexeme> {
        self.start = *pos;
        if self.depth > MAX_DEPTH {
            return Err((Fault::TooDeep, *pos));
        }
        let bytes = self.text.as_bytes();
        let lexeme = match bytes.get(*pos) {
            Some(b'{') => return Ok(self.begin(pos, true, Lexeme::BeginObject)),
            Some(b'[') => return Ok(self.begin(pos, false, Lexeme::BeginArray)),
            Some(b'"') => {
                if self.string(pos)? {
                    Lexeme::EscapedStr
                } else {
                    Lexeme::Str
                }
            }
            Some(b'-' | b'0'..=b'9') => {
                self.number(pos)?;
                Lexeme::Num
            }
            Some(b'n') => literal(bytes, pos, b"null", Lexeme::Null)?,
            Some(b't') => literal(bytes, pos, b"true", Lexeme::True)?,
            Some(b'f') => literal(bytes, pos, b"false", Lexeme::False)?,
            other => return Err((Fault::unexpected(other), *pos)),
        };
        self.after_value();
        Ok(lexeme)
    }

    /// Reads a string from its opening quote into `run`, or into
    /// `escaped` (and returns `true`) when an escape makes it differ from
    /// its bytes.
    #[inline(always)]
    fn string(&mut self, pos: &mut usize) -> Lexed<bool> {
        let from = *pos + 1;
        *pos = plain_run(self.text.as_bytes(), from);
        if self.text.as_bytes().get(*pos) == Some(&b'"') {
            self.run = self.run(from, *pos)?;
            *pos += 1;
            return Ok(false);
        }
        self.escaped = self.escaped(pos, from)?;
        Ok(true)
    }

    /// The rest of a string whose first plain run, from `from`, ends at
    /// `pos` on something other than its closing quote.
    #[inline(never)]
    fn escaped(&self, pos: &mut usize, mut from: usize) -> Lexed<String> {
        let bytes = self.text.as_bytes();
        let mut out = String::new();
        loop {
            out.push_str(self.run(from, *pos)?);
            match bytes.get(*pos) {
                Some(b'"') => {
                    *pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    *pos += 1;
                    out.push(escape(bytes, pos)?);
                }
                // A run stops only at a quote, a backslash, a control
                // character or the end.
                Some(_) => return Err((Fault::Control, *pos)),
                None => return Err((Fault::Eof, *pos)),
            }
            from = *pos;
            *pos = plain_run(bytes, from);
        }
    }

    /// The plain run of a string from `from` to `end`. A run stops before
    /// an ASCII byte or at the end, so on `&str` input it is always whole
    /// UTF-8.
    fn run(&self, from: usize, end: usize) -> Lexed<&'a str> {
        let text = self.text;
        text.get(..end)
            .and_then(|s| s.get(from..))
            .ok_or((Fault::Unicode, end))
    }

    /// Reads a number token into `run` and `exact`: the exact `u64` of a
    /// plain integer comes from the same pass over its digits.
    #[inline(always)]
    fn number(&mut self, pos: &mut usize) -> Lexed<()> {
        let bytes = self.text.as_bytes();
        let start = *pos;
        let negative = bytes.get(*pos) == Some(&b'-');
        if negative {
            *pos += 1;
        }
        // Integer part: one zero, or a nonzero digit followed by digits,
        // summed with overflow checks (wrapping would go unseen in a
        // release build).
        let mut n: u64 = 0;
        let mut fits = !negative;
        match bytes.get(*pos) {
            Some(b'0') => *pos += 1,
            Some(b'1'..=b'9') => {
                while let Some(&d) = bytes.get(*pos).filter(|d| d.is_ascii_digit()) {
                    match n
                        .checked_mul(10)
                        .and_then(|n| n.checked_add(u64::from(d - b'0')))
                    {
                        Some(next) => n = next,
                        None => fits = false,
                    }
                    *pos += 1;
                }
            }
            Some(_) => return Err((Fault::Number, *pos)),
            None => return Err((Fault::Eof, *pos)),
        }
        if matches!(bytes.get(*pos), Some(b'.' | b'e' | b'E')) {
            fits = false;
            fraction_and_exponent(bytes, pos)?;
        }
        let text = self.text;
        self.run = text
            .get(..*pos)
            .and_then(|s| s.get(start..))
            .ok_or((Fault::Number, *pos))?;
        self.exact = fits.then_some(n);
        Ok(())
    }
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while matches!(bytes.get(*pos), Some(b' ' | b'\t' | b'\n' | b'\r')) {
        *pos += 1;
    }
}

/// Where the plain bytes of a string that start at `from` end: at a
/// quote, a backslash, a control character or the end of the input.
/// Eight bytes at a time while a whole word is left.
#[inline(always)]
fn plain_run(bytes: &[u8], from: usize) -> usize {
    const ONES: u64 = u64::from_ne_bytes([0x01; 8]);
    const HIGH: u64 = u64::from_ne_bytes([0x80; 8]);
    // The high bit of each byte of `x` below `n` (for `n` <= 0x80). A
    // borrow may also flag a byte above a true hit, never one below it,
    // so the lowest flag is the first such byte.
    let below = |x: u64, n: u8| x.wrapping_sub(ONES * u64::from(n)) & !x & HIGH;
    let mut end = from;
    while let Some(Ok(word)) = bytes.get(end..end + 8).map(<[u8; 8]>::try_from) {
        let w = u64::from_le_bytes(word);
        let stops = below(w, 0x20)
            | below(w ^ (ONES * u64::from(b'"')), 1)
            | below(w ^ (ONES * u64::from(b'\\')), 1);
        if stops != 0 {
            return end + (stops.trailing_zeros() / 8) as usize;
        }
        end += 8;
    }
    while bytes
        .get(end)
        .is_some_and(|&b| b != b'"' && b != b'\\' && b >= 0x20)
    {
        end += 1;
    }
    end
}

/// A number's fraction and exponent, either optional, from `pos`.
#[inline(never)]
fn fraction_and_exponent(bytes: &[u8], pos: &mut usize) -> Lexed<()> {
    if bytes.get(*pos) == Some(&b'.') {
        *pos += 1;
        digits(bytes, pos)?;
    }
    if matches!(bytes.get(*pos), Some(b'e' | b'E')) {
        *pos += 1;
        if matches!(bytes.get(*pos), Some(b'+' | b'-')) {
            *pos += 1;
        }
        digits(bytes, pos)?;
    }
    Ok(())
}

/// One or more digits.
fn digits(bytes: &[u8], pos: &mut usize) -> Lexed<()> {
    if !matches!(bytes.get(*pos), Some(b'0'..=b'9')) {
        return Err((Fault::Number, *pos));
    }
    while bytes.get(*pos).is_some_and(u8::is_ascii_digit) {
        *pos += 1;
    }
    Ok(())
}

/// `null`, `true` or `false` at `pos`, as `word`.
#[inline(never)]
fn literal(bytes: &[u8], pos: &mut usize, word: &[u8], lexeme: Lexeme) -> Lexed<Lexeme> {
    let rest = bytes.get(*pos..).unwrap_or_default();
    if rest.starts_with(word) {
        *pos += word.len();
        Ok(lexeme)
    } else if rest.len() < word.len() {
        Err((Fault::Eof, *pos))
    } else {
        Err((Fault::unexpected(rest.first()), *pos))
    }
}

/// Reads the escape after a `\` and returns the character it stands for.
fn escape(bytes: &[u8], pos: &mut usize) -> Lexed<char> {
    let c = match bytes.get(*pos) {
        None => return Err((Fault::Eof, *pos)),
        Some(b'"') => '"',
        Some(b'\\') => '\\',
        Some(b'/') => '/',
        Some(b'b') => '\u{8}',
        Some(b'f') => '\u{c}',
        Some(b'n') => '\n',
        Some(b'r') => '\r',
        Some(b't') => '\t',
        Some(b'u') => {
            *pos += 1;
            return unicode(bytes, pos);
        }
        Some(_) => return Err((Fault::Escape, *pos)),
    };
    *pos += 1;
    Ok(c)
}

/// Reads the `XXXX` of a `\uXXXX` escape, and a low surrogate's `\uXXXX`
/// after a high one.
fn unicode(bytes: &[u8], pos: &mut usize) -> Lexed<char> {
    let hi = hex4(bytes, pos)?;
    let code = if (0xD800..=0xDBFF).contains(&hi) {
        // A high surrogate must pair with \uDC00..DFFF.
        for b in [b'\\', b'u'] {
            if bytes.get(*pos) != Some(&b) {
                return Err((Fault::Unicode, *pos));
            }
            *pos += 1;
        }
        let lo = hex4(bytes, pos)?;
        if !(0xDC00..=0xDFFF).contains(&lo) {
            return Err((Fault::Unicode, *pos));
        }
        0x10000 + ((u32::from(hi) - 0xD800) << 10) + (u32::from(lo) - 0xDC00)
    } else if (0xDC00..=0xDFFF).contains(&hi) {
        return Err((Fault::Unicode, *pos));
    } else {
        u32::from(hi)
    };
    char::from_u32(code).ok_or((Fault::Unicode, *pos))
}

fn hex4(bytes: &[u8], pos: &mut usize) -> Lexed<u16> {
    let mut v: u16 = 0;
    for _ in 0..4 {
        let d = match bytes.get(*pos) {
            Some(c @ b'0'..=b'9') => c - b'0',
            Some(c @ b'a'..=b'f') => c - b'a' + 10,
            Some(c @ b'A'..=b'F') => c - b'A' + 10,
            Some(_) => return Err((Fault::Unicode, *pos)),
            None => return Err((Fault::Eof, *pos)),
        };
        v = (v << 4) | u16::from(d);
        *pos += 1;
    }
    Ok(v)
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
        let deep = "[".repeat(MAX_DEPTH + 2);
        for (text, kind, offset) in [
            ("", JsonErrorKind::UnexpectedEof, 0),
            ("{", JsonErrorKind::UnexpectedEof, 1),
            ("nul", JsonErrorKind::UnexpectedEof, 0),
            ("nulL", JsonErrorKind::UnexpectedChar('n'), 0),
            ("01", JsonErrorKind::TrailingData, 1),
            ("1 2", JsonErrorKind::TrailingData, 2),
            ("[1,]", JsonErrorKind::UnexpectedChar(']'), 3),
            ("{'a': 1}", JsonErrorKind::UnexpectedChar('\''), 1),
            ("1.", JsonErrorKind::BadNumber, 2),
            ("-", JsonErrorKind::UnexpectedEof, 1),
            ("1e", JsonErrorKind::BadNumber, 2),
            ("\"\u{1}\"", JsonErrorKind::ControlInString, 1),
            ("\"abc", JsonErrorKind::UnexpectedEof, 4),
            (r#""\x""#, JsonErrorKind::BadEscape, 2),
            (r#""\uzzzz""#, JsonErrorKind::BadUnicode, 3),
            (r#""\ud83d""#, JsonErrorKind::BadUnicode, 7),
            ("[nul", JsonErrorKind::UnexpectedEof, 1),
            (r#"{"a" 1}"#, JsonErrorKind::UnexpectedChar('1'), 5),
            ("[1 2]", JsonErrorKind::UnexpectedChar('2'), 3),
            (&deep, JsonErrorKind::TooDeep, MAX_DEPTH + 1),
            (
                r#"{"a": 1, "a": 2}"#,
                JsonErrorKind::DuplicateKey("a".into()),
                9,
            ),
        ] {
            let err = Json::parse(text).expect_err(text);
            assert_eq!((err.kind, err.offset), (kind, offset), "{text:?}");
        }
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
    fn plain_runs_stop_at_the_first_quote_backslash_or_control() {
        // Plain bytes next to each stop byte's value, and non-ASCII ones.
        let plain = [0x20, 0x21, 0x23, 0x5b, 0x5d, 0x7f, 0x80, 0xc3, 0xff];
        let filler: Vec<u8> = (0..21).map(|i| plain[i % plain.len()]).collect();
        assert_eq!(plain_run(&filler, 0), filler.len());
        for stop in [b'"', b'\\', 0x00, 0x1f] {
            for at in 0..filler.len() {
                let mut bytes = filler.clone();
                bytes[at] = stop;
                // A later stop must not hide the first.
                bytes[filler.len() - 1] = b'"';
                for from in 0..=at {
                    assert_eq!(plain_run(&bytes, from), at, "{stop:#x} at {at} from {from}");
                }
            }
        }
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
