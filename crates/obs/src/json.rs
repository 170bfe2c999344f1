//! A small, dependency-free JSON value type with parser and writer.
//!
//! The telemetry layer ships run artifacts as JSONL, and the build
//! environment cannot fetch serde — so this module implements exactly the
//! JSON subset the artifacts need: objects with ordered keys, arrays,
//! strings with full escape handling, booleans, null, and numbers. Unsigned
//! integers are kept exact (no float round-trip), which matters for
//! nanosecond timestamps above 2^53.
//!
//! Three layers share one grammar: the crate-internal `JsonReader` pulls
//! tokens off a document's bytes, [`Json::parse`] builds the tree on top
//! of it, and `JsonWriter` streams a document into a `String` without one.
//! Trace event lines — all but a handful of an artifact's lines — go
//! through the reader and the writer directly and never become a [`Json`].

use std::borrow::Cow;
use std::fmt;

/// A JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// A non-negative integer, kept exact.
    U64(u64),
    /// Any other number.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object; key order is preserved.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Object member lookup (first match).
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The value as a u64, if it is one (accepts integral F64).
    pub fn as_u64(&self) -> Option<u64> {
        match self {
            Json::U64(n) => Some(*n),
            Json::F64(f) => Num::F64(*f).as_u64(),
            _ => None,
        }
    }

    /// The value as an f64, if numeric.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::U64(n) => Some(*n as f64),
            Json::F64(f) => Some(*f),
            _ => None,
        }
    }

    /// The value as a str, if it is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// The value as a bool, if it is one.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            Json::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The value as an array, if it is one.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }

    /// Compact single-line rendering.
    pub fn to_compact(&self) -> String {
        let mut out = String::new();
        self.write_compact(&mut out);
        out
    }

    pub(crate) fn write_compact(&self, out: &mut String) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(true) => out.push_str("true"),
            Json::Bool(false) => out.push_str("false"),
            Json::U64(n) => push_u64(out, *n),
            Json::F64(f) => {
                use fmt::Write;
                if f.is_finite() {
                    let _ = write!(out, "{f:?}");
                } else {
                    out.push_str("null");
                }
            }
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                out.push('[');
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    item.write_compact(out);
                }
                out.push(']');
            }
            Json::Obj(members) => {
                out.push('{');
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    write_escaped(out, k);
                    out.push(':');
                    v.write_compact(out);
                }
                out.push('}');
            }
        }
    }

    /// Indented multi-line rendering (2-space indent).
    pub fn to_pretty(&self) -> String {
        let mut out = String::new();
        self.write_pretty(&mut out, 0);
        out
    }

    fn write_pretty(&self, out: &mut String, depth: usize) {
        match self {
            Json::Arr(items) if !items.is_empty() => {
                out.push_str("[\n");
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    item.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push(']');
            }
            Json::Obj(members) if !members.is_empty() => {
                out.push_str("{\n");
                for (i, (k, v)) in members.iter().enumerate() {
                    if i > 0 {
                        out.push_str(",\n");
                    }
                    indent(out, depth + 1);
                    write_escaped(out, k);
                    out.push_str(": ");
                    v.write_pretty(out, depth + 1);
                }
                out.push('\n');
                indent(out, depth);
                out.push('}');
            }
            _ => self.write_compact(out),
        }
    }

    /// Parse one JSON document (surrounding whitespace allowed). Arrays and
    /// objects may nest [`MAX_DEPTH`] deep; a deeper document is an error,
    /// not a stack overflow.
    pub fn parse(input: &str) -> Result<Json, JsonError> {
        JsonReader::new(input).document(true)
    }
}

/// Accept exactly the documents [`Json::parse`] accepts, building nothing.
pub(crate) fn check(input: &str) -> Result<(), JsonError> {
    JsonReader::new(input).document(false).map(drop)
}

fn indent(out: &mut String, depth: usize) {
    for _ in 0..depth {
        out.push_str("  ");
    }
}

/// True for the bytes a JSON string cannot hold as they are. All of them
/// are ASCII, so the runs between them are whole characters.
const fn needs_escape(b: u8) -> bool {
    b < 0x20 || b == b'"' || b == b'\\'
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    let mut rest = s;
    while let Some(i) = rest.bytes().position(needs_escape) {
        out.push_str(&rest[..i]);
        match rest.as_bytes()[i] {
            b'"' => out.push_str("\\\""),
            b'\\' => out.push_str("\\\\"),
            b'\n' => out.push_str("\\n"),
            b'\r' => out.push_str("\\r"),
            b'\t' => out.push_str("\\t"),
            0x08 => out.push_str("\\b"),
            0x0c => out.push_str("\\f"),
            b => {
                use fmt::Write;
                let _ = write!(out, "\\u{b:04x}");
            }
        }
        rest = &rest[i + 1..];
    }
    out.push_str(rest);
    out.push('"');
}

/// Append `n` in decimal, through a stack buffer rather than `fmt`.
pub(crate) fn push_u64(out: &mut String, mut n: u64) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[at..]).expect("decimal digits are ASCII"));
}

/// True when `key` stands for itself inside a JSON string.
pub(crate) const fn is_plain(key: &str) -> bool {
    let bytes = key.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if needs_escape(bytes[i]) {
            return false;
        }
        i += 1;
    }
    true
}

/// A literal member key as it stands in a document — quoted, colon and
/// all — for [`JsonWriter::member`]. Refuses, at compile time, a key that
/// would need escaping.
macro_rules! member_head {
    ($key:literal) => {{
        const _: () = assert!($crate::json::is_plain($key), "key needs escaping");
        concat!("\"", $key, "\":")
    }};
}
pub(crate) use member_head;

/// A streaming writer of compact JSON into a `String`: the caller names
/// objects, arrays, keys and scalars in document order and the writer
/// supplies the punctuation. Byte for byte what [`Json::to_compact`] prints
/// for the same document, without building it.
pub(crate) struct JsonWriter<'a> {
    out: &'a mut String,
    /// True when the next key or value follows a sibling.
    comma: bool,
}

impl<'a> JsonWriter<'a> {
    /// A writer appending to `out`.
    pub(crate) fn new(out: &'a mut String) -> Self {
        JsonWriter { out, comma: false }
    }

    /// Start a value the caller writes verbatim into the returned buffer;
    /// it must be one complete JSON value.
    pub(crate) fn raw(&mut self) -> &mut String {
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        self.out
    }

    fn open(&mut self, bracket: char) {
        self.raw().push(bracket);
        self.comma = false;
    }

    fn close(&mut self, bracket: char) {
        self.out.push(bracket);
        self.comma = true;
    }

    pub(crate) fn begin_object(&mut self) {
        self.open('{');
    }

    pub(crate) fn end_object(&mut self) {
        self.close('}');
    }

    pub(crate) fn begin_array(&mut self) {
        self.open('[');
    }

    pub(crate) fn end_array(&mut self) {
        self.close(']');
    }

    /// A member key; the member's value comes next.
    pub(crate) fn key(&mut self, key: &str) {
        write_escaped(self.raw(), key);
        self.out.push(':');
        self.comma = false;
    }

    /// [`JsonWriter::key`] for a key that [`member_head!`] spelled out at
    /// compile time.
    pub(crate) fn member(&mut self, head: &'static str) {
        self.raw().push_str(head);
        self.comma = false;
    }

    pub(crate) fn u64(&mut self, n: u64) {
        push_u64(self.raw(), n);
    }

    pub(crate) fn str(&mut self, s: &str) {
        write_escaped(self.raw(), s);
    }

    pub(crate) fn bool(&mut self, b: bool) {
        self.raw().push_str(if b { "true" } else { "false" });
    }

    pub(crate) fn null(&mut self) {
        self.raw().push_str("null");
    }
}

/// A parse failure with byte offset.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JsonError {
    /// What went wrong.
    pub message: String,
    /// Byte offset in the input.
    pub offset: usize,
}

impl fmt::Display for JsonError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "json error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for JsonError {}

impl From<JsonError> for String {
    fn from(e: JsonError) -> String {
        e.to_string()
    }
}

/// Deepest nesting of arrays and objects [`Json::parse`] accepts. The
/// deepest line of a run artifact, the verifier snapshot, nests 6.
pub const MAX_DEPTH: usize = 128;

/// A JSON number as lexed: an exact unsigned integer, or anything else.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum Num {
    U64(u64),
    F64(f64),
}

impl Num {
    /// The number as a u64 when it is a non-negative integer in range,
    /// however it was spelled (`3`, `3.0`, `3e0`).
    pub(crate) fn as_u64(self) -> Option<u64> {
        match self {
            Num::U64(n) => Some(n),
            Num::F64(f) if f >= 0.0 && f.fract() == 0.0 && f <= u64::MAX as f64 => Some(f as u64),
            Num::F64(_) => None,
        }
    }
}

/// A pull reader over one JSON document: the caller asks for the token it
/// expects next and gets it straight off the bytes — strings borrowed from
/// the input unless they contain escapes, integers exact. [`Json::parse`]
/// is this reader plus a tree; trace event lines are decoded from it
/// directly. Copying a reader is a cheap way to look ahead.
#[derive(Debug, Clone, Copy)]
pub(crate) struct JsonReader<'a> {
    text: &'a str,
    pos: usize,
    /// Arrays and objects currently open.
    depth: usize,
}

impl<'a> JsonReader<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        JsonReader {
            text,
            pos: 0,
            depth: 0,
        }
    }

    fn err(&self, msg: &str) -> JsonError {
        JsonError {
            message: msg.to_string(),
            offset: self.pos,
        }
    }

    pub(crate) fn skip_ws(&mut self) {
        while let Some(b' ' | b'\t' | b'\n' | b'\r') = self.peek() {
            self.pos += 1;
        }
    }

    /// The next byte, unconsumed.
    pub(crate) fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn expect(&mut self, b: u8) -> Result<(), JsonError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.err(&format!("expected '{}'", b as char)))
        }
    }

    /// Consume exactly `lit` (`null`, `true`, `false`).
    pub(crate) fn literal(&mut self, lit: &str) -> Result<(), JsonError> {
        if self.text.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err(&format!("expected '{lit}'")))
        }
    }

    /// One whole document: whitespace, a value (see [`JsonReader::value`]
    /// for `keep`), whitespace.
    fn document(mut self, keep: bool) -> Result<Json, JsonError> {
        self.skip_ws();
        let v = self.value(keep)?;
        self.finish()?;
        Ok(v)
    }

    /// After the document's value: only whitespace may remain.
    pub(crate) fn finish(&mut self) -> Result<(), JsonError> {
        self.skip_ws();
        if self.pos != self.text.len() {
            return Err(self.err("trailing data"));
        }
        Ok(())
    }

    /// Consume the `[` or `{` under the cursor. True when an element or a
    /// member follows; false when the container closed at once with `close`.
    pub(crate) fn open(&mut self, close: u8) -> Result<bool, JsonError> {
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.skip_ws();
        Ok(!self.close_if(close))
    }

    /// After an element or a member's value. True when another follows (the
    /// `,` is consumed); false when the container closed with `close`.
    pub(crate) fn next(&mut self, close: u8) -> Result<bool, JsonError> {
        self.skip_ws();
        if self.peek() == Some(b',') {
            self.pos += 1;
            self.skip_ws();
            return Ok(true);
        }
        if self.close_if(close) {
            return Ok(false);
        }
        Err(self.err(if close == b']' {
            "expected ',' or ']'"
        } else {
            "expected ',' or '}'"
        }))
    }

    fn close_if(&mut self, close: u8) -> bool {
        let closed = self.peek() == Some(close);
        if closed {
            self.pos += 1;
            self.depth -= 1;
        }
        closed
    }

    /// Advance through an open object's members (`more` is what `open` or
    /// `next` last said) to the value of the first one named `name`. False
    /// when the object closed without one.
    pub(crate) fn seek_member(&mut self, mut more: bool, name: &str) -> Result<bool, JsonError> {
        while more {
            if self.key()? == name {
                return Ok(true);
            }
            self.skip_value()?;
            more = self.next(b'}')?;
        }
        Ok(false)
    }

    /// A member's key and its `:`; the member's value comes next.
    pub(crate) fn key(&mut self) -> Result<Cow<'a, str>, JsonError> {
        let key = self.string()?;
        self.skip_ws();
        self.expect(b':')?;
        self.skip_ws();
        Ok(key)
    }

    /// Parse the value under the cursor. With `keep` false it is only
    /// checked — same grammar, no tree — and `Json::Null` comes back.
    fn value(&mut self, keep: bool) -> Result<Json, JsonError> {
        match self.peek() {
            Some(b'n') => self.literal("null").map(|()| Json::Null),
            Some(b't') => self.literal("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.literal("false").map(|()| Json::Bool(false)),
            Some(b'"') => {
                let s = self.string()?;
                Ok(if keep {
                    Json::Str(s.into_owned())
                } else {
                    Json::Null
                })
            }
            Some(b'[') => {
                let mut items = Vec::new();
                let mut more = self.open(b']')?;
                while more {
                    let item = self.value(keep)?;
                    if keep {
                        items.push(item);
                    }
                    more = self.next(b']')?;
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                let mut members = Vec::new();
                let mut more = self.open(b'}')?;
                while more {
                    let key = self.key()?;
                    let val = self.value(keep)?;
                    if keep {
                        members.push((key.into_owned(), val));
                    }
                    more = self.next(b'}')?;
                }
                Ok(Json::Obj(members))
            }
            Some(b'-' | b'0'..=b'9') => Ok(match self.number()? {
                Num::U64(n) => Json::U64(n),
                Num::F64(f) => Json::F64(f),
            }),
            _ => Err(self.err("expected a value")),
        }
    }

    /// Check and step over the value under the cursor, whatever it is.
    pub(crate) fn skip_value(&mut self) -> Result<(), JsonError> {
        self.value(false).map(drop)
    }

    /// The value under the cursor as a u64 (`None`, and the value skipped,
    /// when it is anything else).
    pub(crate) fn u64(&mut self) -> Result<Option<u64>, JsonError> {
        if let Some(b'-' | b'0'..=b'9') = self.peek() {
            return Ok(self.number()?.as_u64());
        }
        self.skip_value().map(|()| None)
    }

    /// The value under the cursor as a string (`None`, and the value
    /// skipped, when it is anything else).
    pub(crate) fn str(&mut self) -> Result<Option<Cow<'a, str>>, JsonError> {
        if self.peek() == Some(b'"') {
            return self.string().map(Some);
        }
        self.skip_value().map(|()| None)
    }

    /// The value under the cursor as a bool (`None`, and the value skipped,
    /// when it is anything else).
    pub(crate) fn bool(&mut self) -> Result<Option<bool>, JsonError> {
        match self.peek() {
            Some(b't') => self.literal("true").map(|()| Some(true)),
            Some(b'f') => self.literal("false").map(|()| Some(false)),
            _ => self.skip_value().map(|()| None),
        }
    }

    /// Step over a run of string bytes that stand for themselves.
    fn skip_plain(&mut self) -> &'a str {
        let start = self.pos;
        while self.peek().is_some_and(|b| !needs_escape(b)) {
            self.pos += 1;
        }
        // The run starts after an ASCII byte and ends at one or at the end
        // of the input: both are character boundaries.
        &self.text[start..self.pos]
    }

    fn string(&mut self) -> Result<Cow<'a, str>, JsonError> {
        self.expect(b'"')?;
        let plain = self.skip_plain();
        if self.peek() == Some(b'"') {
            self.pos += 1;
            return Ok(Cow::Borrowed(plain));
        }
        let mut out = plain.to_string();
        loop {
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    self.pos += 1;
                    let esc = self.peek().ok_or_else(|| self.err("truncated escape"))?;
                    self.pos += 1;
                    match esc {
                        b'"' => out.push('"'),
                        b'\\' => out.push('\\'),
                        b'/' => out.push('/'),
                        b'b' => out.push('\u{08}'),
                        b'f' => out.push('\u{0c}'),
                        b'n' => out.push('\n'),
                        b'r' => out.push('\r'),
                        b't' => out.push('\t'),
                        b'u' => {
                            let hi = self.hex4()?;
                            let code = if (0xD800..0xDC00).contains(&hi) {
                                // Surrogate pair.
                                if self.peek() != Some(b'\\') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                if self.peek() != Some(b'u') {
                                    return Err(self.err("unpaired surrogate"));
                                }
                                self.pos += 1;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                0x10000 + ((hi - 0xD800) << 10) + (lo - 0xDC00)
                            } else {
                                hi
                            };
                            out.push(
                                char::from_u32(code)
                                    .ok_or_else(|| self.err("invalid codepoint"))?,
                            );
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
            out.push_str(self.skip_plain());
        }
    }

    fn hex4(&mut self) -> Result<u32, JsonError> {
        let mut v: u32 = 0;
        for _ in 0..4 {
            let b = self
                .peek()
                .ok_or_else(|| self.err("truncated \\u escape"))?;
            let d = match b {
                b'0'..=b'9' => (b - b'0') as u32,
                b'a'..=b'f' => (b - b'a' + 10) as u32,
                b'A'..=b'F' => (b - b'A' + 10) as u32,
                _ => return Err(self.err("bad hex digit")),
            };
            v = v * 16 + d;
            self.pos += 1;
        }
        Ok(v)
    }

    fn digits(&mut self) {
        while let Some(b'0'..=b'9') = self.peek() {
            self.pos += 1;
        }
    }

    fn number(&mut self) -> Result<Num, JsonError> {
        let start = self.pos;
        // The common spelling: plain digits that fit a u64, kept exact.
        let mut exact = Some(0u64);
        while let Some(b @ b'0'..=b'9') = self.peek() {
            exact = exact.and_then(|n| n.checked_mul(10)?.checked_add((b - b'0') as u64));
            self.pos += 1;
        }
        if self.pos > start && !matches!(self.peek(), Some(b'.' | b'e' | b'E')) {
            if let Some(n) = exact {
                return Ok(Num::U64(n));
            }
        }
        // Anything else — a sign, a fraction, an exponent, or more digits
        // than a u64 holds — is a float.
        self.pos = start;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        self.digits();
        if self.peek() == Some(b'.') {
            self.pos += 1;
            self.digits();
        }
        if let Some(b'e' | b'E') = self.peek() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek() {
                self.pos += 1;
            }
            self.digits();
        }
        let text = &self.text[start..self.pos];
        if text.is_empty() || text == "-" {
            return Err(self.err("bad number"));
        }
        text.parse::<f64>()
            .map(Num::F64)
            .map_err(|_| self.err("bad number"))
    }
}

/// Conversion into a [`Json`] value.
pub trait ToJson {
    /// The JSON representation of `self`.
    fn to_json(&self) -> Json;
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::F64(*self)
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl ToJson for &str {
    fn to_json(&self) -> Json {
        Json::Str((*self).to_string())
    }
}

macro_rules! to_json_uint {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Json {
                Json::U64(*self as u64)
            }
        }
    )*};
}

to_json_uint!(u8, u16, u32, u64, usize);

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: ToJson> ToJson for [T] {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

/// Implements [`ToJson`] for a struct by listing its fields:
/// `impl_to_json!(Row { n, sdn, mean_ms });`
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Json {
                $crate::json::Json::Obj(vec![
                    $((
                        stringify!($field).to_string(),
                        $crate::json::ToJson::to_json(&self.$field),
                    )),+
                ])
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse(" true ").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse("42").unwrap(), Json::U64(42));
        assert_eq!(Json::parse("-3.5").unwrap(), Json::F64(-3.5));
        assert_eq!(Json::parse("1e3").unwrap(), Json::F64(1000.0));
        assert_eq!(
            Json::parse("18446744073709551615").unwrap(),
            Json::U64(u64::MAX)
        );
    }

    #[test]
    fn parses_structures() {
        let v = Json::parse(r#"{"a":[1,2,{"b":"x"}],"c":null}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_arr().unwrap().len(), 3);
        assert_eq!(v.get("c"), Some(&Json::Null));
        assert_eq!(
            v.get("a").unwrap().as_arr().unwrap()[2]
                .get("b")
                .unwrap()
                .as_str(),
            Some("x")
        );
    }

    #[test]
    fn string_escapes_roundtrip() {
        let original = "quote\" backslash\\ newline\n tab\t nul\u{0} emoji\u{1F600} high\u{10FFFF}";
        let v = Json::Str(original.to_string());
        let text = v.to_compact();
        assert_eq!(Json::parse(&text).unwrap(), v);
        // And we can parse third-party \u escapes incl. surrogate pairs.
        let parsed = Json::parse(r#""\ud83d\ude00 \u0041""#).unwrap();
        assert_eq!(parsed.as_str(), Some("\u{1F600} A"));
    }

    #[test]
    fn escapes_every_control_char_and_nothing_more() {
        // All of C0 must escape; everything from 0x20 up passes through
        // verbatim (0x7f DEL included — JSON does not require escaping it).
        for c in (0u32..0x20).map(|c| char::from_u32(c).unwrap()) {
            let text = Json::Str(c.to_string()).to_compact();
            assert!(
                text.bytes().all(|b| (0x20..0x7f).contains(&b)),
                "U+{:04X} leaked into {text:?}",
                c as u32
            );
            assert_eq!(Json::parse(&text).unwrap().as_str(), Some(&*c.to_string()));
        }
        assert_eq!(Json::Str("\u{7f}".into()).to_compact(), "\"\u{7f}\"");
        // The short-form escapes are used where JSON defines them.
        assert_eq!(
            Json::Str("\u{08}\u{0c}\n\r\t".into()).to_compact(),
            r#""\b\f\n\r\t""#
        );
        // Others fall back to \uXXXX with lowercase hex.
        assert_eq!(
            Json::Str("\u{01}\u{1f}".into()).to_compact(),
            "\"\\u0001\\u001f\""
        );
    }

    #[test]
    fn rejects_lone_surrogates() {
        for bad in [
            r#""\ud83d""#,       // high surrogate, end of string
            r#""\ud83d rest""#,  // high surrogate, no \u follows
            r#""\ud83dA""#,      // high surrogate, non-surrogate follows
            r#""\ud83d\ud83d""#, // high followed by another high
            r#""\ude00""#,       // bare low surrogate
        ] {
            assert!(Json::parse(bad).is_err(), "{bad} should fail");
        }
    }

    #[test]
    fn rejects_garbage() {
        for bad in [
            "",
            "tru",
            "{",
            "[1,",
            "\"abc",
            "{\"a\" 1}",
            "1 2",
            "\"\\u12\"",
        ] {
            assert!(Json::parse(bad).is_err(), "{bad:?} should fail");
        }
    }

    #[test]
    fn nesting_is_capped_not_a_stack_overflow() {
        let arrays = |depth: usize| "[".repeat(depth) + &"]".repeat(depth);
        let objects = |depth: usize| "{\"k\":".repeat(depth) + "0" + &"}".repeat(depth);
        for (depth, ok) in [(127, true), (128, true), (129, false)] {
            for doc in [arrays(depth), objects(depth)] {
                assert_eq!(Json::parse(&doc).is_ok(), ok, "depth {depth}: {doc}");
                assert_eq!(check(&doc).is_ok(), ok, "depth {depth} (check): {doc}");
            }
        }
        let err = Json::parse(&arrays(129)).unwrap_err();
        assert_eq!(err.message, "nesting too deep");
        assert_eq!(err.offset, 128, "the bracket that went too far");
        assert_eq!(check(&arrays(129)).unwrap_err(), err);
        // What used to abort the process: unclosed and hostile.
        for hostile in ["[".repeat(200_000), "{\"a\":".repeat(200_000)] {
            assert_eq!(
                Json::parse(&hostile).unwrap_err().message,
                "nesting too deep"
            );
            assert_eq!(check(&hostile).unwrap_err().message, "nesting too deep");
        }
        // Depth is nesting, not length: siblings do not count.
        let wide = format!("[{}]", vec!["[[]]"; 10_000].join(","));
        assert!(Json::parse(&wide).is_ok());
    }

    #[test]
    fn check_agrees_with_parse() {
        for doc in [
            "null",
            " {\"a\":[1,2.5,{\"b\":\"x\\n\\ud83d\\ude00\"}],\"c\":null} ",
            "[]",
            "",
            "tru",
            "{",
            "[1,",
            "[1,]",
            "{\"a\":1,}",
            "{\"a\" 1}",
            "1 2",
            "\"\\u12\"",
            "\"\\ud83d\"",
            "\"ctl\u{1}\"",
            "1e",
            "-",
            "01",
            "-0",
        ] {
            assert_eq!(
                check(doc).err(),
                Json::parse(doc).err(),
                "{doc:?} must fail or pass alike"
            );
        }
    }

    #[test]
    fn writer_prints_what_the_tree_prints() {
        let tree = Json::Obj(vec![
            ("n".into(), Json::U64(u64::MAX)),
            (
                "quote\"d\n".into(),
                Json::Str("a\\b\u{1}\u{7f}é\u{1F600}".into()),
            ),
            (
                "xs".into(),
                Json::Arr(vec![
                    Json::U64(0),
                    Json::Null,
                    Json::Bool(true),
                    Json::Arr(vec![]),
                    Json::Obj(vec![]),
                ]),
            ),
            ("last".into(), Json::Bool(false)),
        ]);
        let mut out = String::from("prefix ");
        let mut w = JsonWriter::new(&mut out);
        w.begin_object();
        w.key("n");
        w.u64(u64::MAX);
        w.key("quote\"d\n");
        w.str("a\\b\u{1}\u{7f}é\u{1F600}");
        w.member(member_head!("xs"));
        w.begin_array();
        w.u64(0);
        w.null();
        w.bool(true);
        w.begin_array();
        w.end_array();
        w.begin_object();
        w.end_object();
        w.end_array();
        w.key("last");
        w.bool(false);
        w.end_object();
        assert_eq!(out, format!("prefix {}", tree.to_compact()));
    }

    #[test]
    fn numbers_read_as_the_tree_reads_them() {
        // (spelling, as_u64): exact integers, integral floats, and the
        // spellings that are numbers but not unsigned integers.
        for (text, want) in [
            ("0", Some(0)),
            ("007", Some(7)),
            ("18446744073709551615", Some(u64::MAX)),
            ("18446744073709551616", Some(u64::MAX)), // rounds to 2^64, saturates
            ("1.0", Some(1)),
            ("3e0", Some(3)),
            ("25E-1", None),
            ("-0", Some(0)),
            ("-1", None),
            ("1.5", None),
            ("1e999", None),
        ] {
            assert_eq!(Json::parse(text).unwrap().as_u64(), want, "{text}");
            let mut r = JsonReader::new(text);
            assert_eq!(r.u64().unwrap(), want, "{text} (reader)");
            r.finish().unwrap();
        }
        // Not a number at all: skipped whole, reported as absent.
        let mut r = JsonReader::new("[1,[2]] ");
        assert_eq!(r.u64().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn compact_and_pretty_reparse() {
        let v = Json::Obj(vec![
            ("n".into(), Json::U64(8)),
            ("ok".into(), Json::Bool(true)),
            (
                "xs".into(),
                Json::Arr(vec![Json::F64(1.25), Json::Null, Json::Str("s".into())]),
            ),
        ]);
        assert_eq!(Json::parse(&v.to_compact()).unwrap(), v);
        assert_eq!(Json::parse(&v.to_pretty()).unwrap(), v);
    }

    #[test]
    fn u64_precision_survives() {
        let big = (1u64 << 53) + 1;
        let text = Json::U64(big).to_compact();
        assert_eq!(Json::parse(&text).unwrap().as_u64(), Some(big));
    }

    struct Row {
        n: usize,
        label: String,
        ratio: f64,
    }
    impl_to_json!(Row { n, label, ratio });

    #[test]
    fn impl_to_json_macro_works() {
        let r = Row {
            n: 4,
            label: "x".into(),
            ratio: 0.5,
        };
        let j = r.to_json();
        assert_eq!(j.get("n").unwrap().as_u64(), Some(4));
        assert_eq!(j.get("label").unwrap().as_str(), Some("x"));
        assert_eq!(j.get("ratio").unwrap().as_f64(), Some(0.5));
    }
}
