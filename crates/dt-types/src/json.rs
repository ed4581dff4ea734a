//! Minimal JSON document model, parser, and writer.
//!
//! The build environment has no crates.io access, so the workspace
//! carries its own JSON support instead of `serde_json`. Two consumers
//! drive the feature set:
//!
//! * `dt-server` decodes newline-delimited JSON tuple frames off the
//!   wire with the pull reader ([`JsonReader`], no tree), parses
//!   control commands ([`Json::parse`]) and emits run reports
//!   ([`Json::render`]).
//! * `dt-bench` / `dt-metrics` serialize experiment results for
//!   plotting ([`ToJson`]).
//!
//! The parser accepts standard JSON (RFC 8259): objects, arrays,
//! strings with escapes (including `\uXXXX`), numbers, booleans, and
//! null, nested at most [`MAX_DEPTH`] deep. [`Json::parse`] is the
//! reader building a tree, so the grammar is implemented once. Object
//! key order is preserved (`Vec<(String, Json)>`), which keeps
//! rendering deterministic.

use crate::error::{DtError, DtResult};
use std::borrow::Cow;

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (always held as `f64`; integers up to 2^53
    /// round-trip exactly, which covers every count this workspace
    /// serializes).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

impl Json {
    /// Parse one JSON document from `input`. Trailing non-whitespace
    /// is an error (one frame per line on the wire).
    pub fn parse(input: &str) -> DtResult<Json> {
        let mut r = JsonReader::new(input);
        let v = r.tree()?;
        r.finish()?;
        Ok(v)
    }

    /// Compact single-line rendering (the NDJSON wire format).
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, None, 0);
        out
    }

    /// Pretty rendering with two-space indentation, for files meant to
    /// be read by humans (experiment reports).
    pub fn render_pretty(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, Some(2), 0);
        out
    }

    fn write(&self, out: &mut String, indent: Option<usize>, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(n) => out.push_str(&render_number(*n)),
            Json::Str(s) => write_escaped(out, s),
            Json::Arr(items) => {
                write_seq(out, indent, depth, '[', ']', items.len(), |out, i, d| {
                    items[i].write(out, indent, d);
                })
            }
            Json::Obj(fields) => {
                write_seq(out, indent, depth, '{', '}', fields.len(), |out, i, d| {
                    let (k, v) = &fields[i];
                    write_escaped(out, k);
                    out.push(':');
                    if indent.is_some() {
                        out.push(' ');
                    }
                    v.write(out, indent, d);
                })
            }
        }
    }

    /// The value at `key`, if this is an object containing it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Numeric payload, if this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    /// Integer payload, if this is a number representing an integer
    /// exactly.
    pub fn as_i64(&self) -> Option<i64> {
        self.as_f64().and_then(exact_i64)
    }

    /// String payload, if this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Array payload, if this is an array.
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(items) => Some(items),
            _ => None,
        }
    }
}

/// Render a sequence with optional pretty indentation.
fn write_seq(
    out: &mut String,
    indent: Option<usize>,
    depth: usize,
    open: char,
    close: char,
    len: usize,
    mut item: impl FnMut(&mut String, usize, usize),
) {
    out.push(open);
    if len == 0 {
        out.push(close);
        return;
    }
    for i in 0..len {
        if i > 0 {
            out.push(',');
        }
        if let Some(step) = indent {
            out.push('\n');
            out.extend(std::iter::repeat_n(' ', step * (depth + 1)));
        }
        item(out, i, depth + 1);
    }
    if let Some(step) = indent {
        out.push('\n');
        out.extend(std::iter::repeat_n(' ', step * depth));
    }
    out.push(close);
}

/// Numbers render as integers when they are integers (counts, ids) and
/// via `f64`'s shortest round-trip formatting otherwise.
fn render_number(n: f64) -> String {
    if !n.is_finite() {
        // JSON has no Inf/NaN; null is the conventional degradation.
        return "null".to_string();
    }
    if n.fract() == 0.0 && n.abs() < 2f64.powi(53) {
        format!("{}", n as i64)
    } else {
        format!("{n}")
    }
}

fn write_escaped(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Deepest nesting of arrays and objects the reader accepts. Reading
/// a tree recurses once per level, so without a bound one line of
/// `[[[[…` from a network peer would overflow the thread's stack; with
/// it, such input is an ordinary parse error. Every document this
/// workspace reads (frames, commands, reports) nests a few levels.
pub const MAX_DEPTH: usize = 128;

/// The kind of the next value in a [`JsonReader`], told by its first
/// byte.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JsonKind {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool,
    /// A number.
    Num,
    /// A string.
    Str,
    /// An array.
    Arr,
    /// An object.
    Obj,
}

/// A borrowing pull parser over one JSON document: the caller walks
/// the document value by value and keeps only what it needs. Strings
/// and object keys come back borrowed from the input unless they hold
/// escapes, and [`JsonReader::skip`] validates a value without
/// building it. [`Json::parse`] is this reader building a tree, so
/// both accept exactly the same grammar, nesting bound included.
///
/// ```
/// use dt_types::json::JsonReader;
///
/// let mut r = JsonReader::new(r#"{"row":[17,4],"note":{"x":null}}"#);
/// r.begin_object()?;
/// let mut row = Vec::new();
/// while let Some(key) = r.next_key()? {
///     if key == "row" {
///         r.begin_array()?;
///         while r.next_item()? {
///             row.push(r.i64()?.expect("an integer"));
///         }
///     } else {
///         r.skip()?;
///     }
/// }
/// r.finish()?;
/// assert_eq!(row, [17, 4]);
/// # Ok::<(), dt_types::DtError>(())
/// ```
#[derive(Debug, Clone)]
pub struct JsonReader<'a> {
    src: &'a str,
    pos: usize,
    /// Arrays and objects opened and not yet closed.
    depth: usize,
    /// The innermost container was just opened, so its first member
    /// (or its close) follows without a `,`.
    fresh: bool,
}

// The per-token methods are `#[inline(always)]`: the frame decoder
// in `dt-server` calls them once per token, and as out-of-line
// cross-crate calls they cost about as much as the lexing itself.
impl<'a> JsonReader<'a> {
    /// A reader positioned before the document in `src`.
    #[inline]
    pub fn new(src: &'a str) -> Self {
        JsonReader {
            src,
            pos: 0,
            depth: 0,
            fresh: false,
        }
    }

    #[cold]
    #[inline(never)]
    fn err(&self, what: &str) -> DtError {
        DtError::parse_at(format!("{what} (JSON)"), self.pos)
    }

    #[inline(always)]
    fn skip_ws(&mut self) {
        self.pos += self.src.as_bytes()[self.pos..]
            .iter()
            .take_while(|&&b| matches!(b, b' ' | b'\t' | b'\n' | b'\r'))
            .count();
    }

    #[inline(always)]
    fn peek_byte(&self) -> Option<u8> {
        self.src.as_bytes().get(self.pos).copied()
    }

    #[inline]
    fn eat(&mut self, lit: &str) -> DtResult<()> {
        if self.src.as_bytes()[self.pos..].starts_with(lit.as_bytes()) {
            self.pos += lit.len();
            Ok(())
        } else {
            Err(self.err("unexpected token"))
        }
    }

    /// The kind of the next value, skipping whitespace before it; an
    /// error if no value can start here.
    #[inline(always)]
    pub fn peek(&mut self) -> DtResult<JsonKind> {
        self.skip_ws();
        match self.peek_byte() {
            Some(b'n') => Ok(JsonKind::Null),
            Some(b't' | b'f') => Ok(JsonKind::Bool),
            Some(b'"') => Ok(JsonKind::Str),
            Some(b'[') => Ok(JsonKind::Arr),
            Some(b'{') => Ok(JsonKind::Obj),
            Some(b'-' | b'0'..=b'9') => Ok(JsonKind::Num),
            Some(_) => Err(self.err("unexpected character")),
            None => Err(self.err("unexpected end of input")),
        }
    }

    #[inline(always)]
    fn expect(&mut self, kind: JsonKind) -> DtResult<()> {
        // One byte test for the expected kind, not `peek`'s full
        // classification: this runs before every value read.
        self.skip_ws();
        let ok = match kind {
            JsonKind::Null => self.peek_byte() == Some(b'n'),
            JsonKind::Bool => matches!(self.peek_byte(), Some(b't' | b'f')),
            JsonKind::Num => matches!(self.peek_byte(), Some(b'-' | b'0'..=b'9')),
            JsonKind::Str => self.peek_byte() == Some(b'"'),
            JsonKind::Arr => self.peek_byte() == Some(b'['),
            JsonKind::Obj => self.peek_byte() == Some(b'{'),
        };
        if ok {
            Ok(())
        } else {
            Err(self.err(&format!("expected {kind:?}")))
        }
    }

    /// Read a `null`.
    #[inline]
    pub fn null(&mut self) -> DtResult<()> {
        self.expect(JsonKind::Null)?;
        self.eat("null")
    }

    /// Read a boolean.
    #[inline]
    pub fn bool(&mut self) -> DtResult<bool> {
        self.expect(JsonKind::Bool)?;
        let v = self.peek_byte() == Some(b't');
        self.eat(if v { "true" } else { "false" })?;
        Ok(v)
    }

    /// Read a string, borrowed from the input unless it holds escapes.
    #[inline(always)]
    pub fn str(&mut self) -> DtResult<Cow<'a, str>> {
        self.expect(JsonKind::Str)?;
        self.string()
    }

    /// Read a number.
    #[inline]
    pub fn f64(&mut self) -> DtResult<f64> {
        self.expect(JsonKind::Num)?;
        let text = self.number();
        text.parse::<f64>()
            .map_err(|_| self.err("malformed number"))
    }

    /// Read a number as an integer: `Some` exactly when
    /// [`Json::as_i64`] would give one for the same text. Plain
    /// integers of at most 15 digits — below 2^53, so exact as `f64` —
    /// skip the float conversion.
    #[inline(always)]
    pub fn i64(&mut self) -> DtResult<Option<i64>> {
        self.expect(JsonKind::Num)?;
        let bytes = self.src.as_bytes();
        let neg = bytes[self.pos] == b'-';
        let first = self.pos + usize::from(neg);
        let mut end = first;
        let mut v = 0i64;
        while let Some(&b @ b'0'..=b'9') = bytes.get(end) {
            // Wraps only on digit runs far past 15, which take the
            // float path below.
            v = v.wrapping_mul(10).wrapping_add(i64::from(b - b'0'));
            end += 1;
        }
        if (1..=15).contains(&(end - first)) && !matches!(bytes.get(end), Some(b'.' | b'e' | b'E'))
        {
            self.pos = end;
            return Ok(Some(if neg { -v } else { v }));
        }
        let text = self.number();
        text.parse::<f64>()
            .map(exact_i64)
            .map_err(|_| self.err("malformed number"))
    }

    #[inline(always)]
    fn open(&mut self, kind: JsonKind) -> DtResult<()> {
        self.expect(kind)?;
        if self.depth == MAX_DEPTH {
            return Err(self.err("nesting too deep"));
        }
        self.depth += 1;
        self.pos += 1;
        self.fresh = true;
        Ok(())
    }

    /// Open an object; walk its members with [`JsonReader::next_key`].
    #[inline(always)]
    pub fn begin_object(&mut self) -> DtResult<()> {
        self.open(JsonKind::Obj)
    }

    /// Open an array; walk its items with [`JsonReader::next_item`].
    #[inline(always)]
    pub fn begin_array(&mut self) -> DtResult<()> {
        self.open(JsonKind::Arr)
    }

    /// Step past the `,` before the innermost container's next member:
    /// `true` if a member follows, `false` once `close` is consumed.
    #[inline(always)]
    fn next_member(&mut self, close: u8, what: &str) -> DtResult<bool> {
        self.skip_ws();
        let fresh = std::mem::replace(&mut self.fresh, false);
        match self.peek_byte() {
            Some(b) if b == close => {
                self.pos += 1;
                self.depth -= 1;
                Ok(false)
            }
            _ if fresh => Ok(true),
            Some(b',') => {
                self.pos += 1;
                Ok(true)
            }
            _ => Err(self.err(what)),
        }
    }

    /// In an open array: `true` when another item follows (read it
    /// next), `false` once the array is closed.
    #[inline(always)]
    pub fn next_item(&mut self) -> DtResult<bool> {
        self.next_member(b']', "expected ',' or ']'")
    }

    /// In an open object: the next member's key, with its `:` consumed
    /// (read the value next), or `None` once the object is closed.
    #[inline(always)]
    pub fn next_key(&mut self) -> DtResult<Option<Cow<'a, str>>> {
        if !self.next_member(b'}', "expected ',' or '}'")? {
            return Ok(None);
        }
        self.skip_ws();
        if self.peek_byte() != Some(b'"') {
            return Err(self.err("expected object key string"));
        }
        let key = self.string()?;
        self.skip_ws();
        if self.peek_byte() != Some(b':') {
            return Err(self.err("expected ':'"));
        }
        self.pos += 1;
        Ok(Some(key))
    }

    /// Read one value of any kind and discard it, checking it exactly
    /// as [`Json::parse`] would.
    #[inline]
    pub fn skip(&mut self) -> DtResult<()> {
        match self.peek()? {
            JsonKind::Null => self.null(),
            JsonKind::Bool => self.bool().map(drop),
            JsonKind::Num => self.f64().map(drop),
            JsonKind::Str => self.str().map(drop),
            JsonKind::Arr => {
                self.begin_array()?;
                while self.next_item()? {
                    self.skip()?;
                }
                Ok(())
            }
            JsonKind::Obj => {
                self.begin_object()?;
                while self.next_key()?.is_some() {
                    self.skip()?;
                }
                Ok(())
            }
        }
    }

    /// Read one value into a [`Json`] tree.
    fn tree(&mut self) -> DtResult<Json> {
        Ok(match self.peek()? {
            JsonKind::Null => self.null().map(|()| Json::Null)?,
            JsonKind::Bool => Json::Bool(self.bool()?),
            JsonKind::Num => Json::Num(self.f64()?),
            JsonKind::Str => Json::Str(self.str()?.into_owned()),
            JsonKind::Arr => {
                self.begin_array()?;
                let mut items = Vec::new();
                while self.next_item()? {
                    items.push(self.tree()?);
                }
                Json::Arr(items)
            }
            JsonKind::Obj => {
                self.begin_object()?;
                let mut fields = Vec::new();
                while let Some(key) = self.next_key()? {
                    fields.push((key.into_owned(), self.tree()?));
                }
                Json::Obj(fields)
            }
        })
    }

    /// End of the document: only whitespace may follow (one frame per
    /// line on the wire).
    #[inline]
    pub fn finish(&mut self) -> DtResult<()> {
        self.skip_ws();
        if self.pos == self.src.len() {
            Ok(())
        } else {
            Err(self.err("trailing characters after JSON document"))
        }
    }

    /// The string starting at the `"` under the cursor.
    #[inline]
    fn string(&mut self) -> DtResult<Cow<'a, str>> {
        self.pos += 1; // consume '"'
        let start = self.pos;
        // Stays unallocated unless an escape forces a copy.
        let mut out = String::new();
        loop {
            let run_start = self.pos;
            // Runs end only at ASCII bytes, so every slice below falls
            // on a char boundary.
            self.pos += self.src.as_bytes()[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\' || b < 0x20)
                .unwrap_or(self.src.len() - self.pos);
            let run = &self.src[run_start..self.pos];
            match self.peek_byte() {
                Some(b'"') => {
                    self.pos += 1;
                    if run_start == start {
                        return Ok(Cow::Borrowed(run));
                    }
                    out.push_str(run);
                    return Ok(Cow::Owned(out));
                }
                Some(b'\\') => {
                    out.push_str(run);
                    self.pos += 1;
                    let esc = self
                        .peek_byte()
                        .ok_or_else(|| self.err("dangling escape"))?;
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
                            let cp = self.hex4()?;
                            // Surrogate pairs for astral-plane chars.
                            let c = if (0xD800..0xDC00).contains(&cp) {
                                self.eat("\\u")
                                    .map_err(|_| self.err("unpaired surrogate"))?;
                                let lo = self.hex4()?;
                                if !(0xDC00..0xE000).contains(&lo) {
                                    return Err(self.err("invalid low surrogate"));
                                }
                                let combined = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
                                char::from_u32(combined)
                            } else {
                                char::from_u32(cp)
                            };
                            out.push(c.ok_or_else(|| self.err("invalid \\u escape"))?);
                        }
                        _ => return Err(self.err("unknown escape")),
                    }
                }
                _ => return Err(self.err("unterminated string")),
            }
        }
    }

    #[inline]
    fn hex4(&mut self) -> DtResult<u32> {
        let slice = self
            .src
            .as_bytes()
            .get(self.pos..self.pos + 4)
            .ok_or_else(|| self.err("truncated \\u escape"))?;
        let s = std::str::from_utf8(slice).map_err(|_| self.err("bad \\u escape"))?;
        let v = u32::from_str_radix(s, 16).map_err(|_| self.err("bad \\u escape"))?;
        self.pos += 4;
        Ok(v)
    }

    /// The lexeme of the number under the cursor (validated by the
    /// caller's conversion).
    #[inline]
    fn number(&mut self) -> &'a str {
        let start = self.pos;
        if self.peek_byte() == Some(b'-') {
            self.pos += 1;
        }
        while let Some(b'0'..=b'9') = self.peek_byte() {
            self.pos += 1;
        }
        if self.peek_byte() == Some(b'.') {
            self.pos += 1;
            while let Some(b'0'..=b'9') = self.peek_byte() {
                self.pos += 1;
            }
        }
        if let Some(b'e' | b'E') = self.peek_byte() {
            self.pos += 1;
            if let Some(b'+' | b'-') = self.peek_byte() {
                self.pos += 1;
            }
            while let Some(b'0'..=b'9') = self.peek_byte() {
                self.pos += 1;
            }
        }
        &self.src[start..self.pos]
    }
}

/// The integer a JSON number denotes, if it is one exactly: integral
/// and within ±2^53, where every `f64` integer is exact.
fn exact_i64(n: f64) -> Option<i64> {
    (n.fract() == 0.0 && n.abs() <= 2f64.powi(53)).then_some(n as i64)
}

/// Conversion into the [`Json`] document model — the workspace's
/// replacement for `serde::Serialize`. Implemented by hand on the few
/// result types that are written to disk or the wire.
pub trait ToJson {
    /// Build the JSON representation of `self`.
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
        Json::Num(*self)
    }
}

impl ToJson for u64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for usize {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for i64 {
    fn to_json(&self) -> Json {
        Json::Num(*self as f64)
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_string())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
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

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(v) => v.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

/// Build a [`Json::Obj`] from `("key", value)` pairs; the workhorse
/// for hand-written `ToJson` impls.
pub fn obj(fields: Vec<(&str, Json)>) -> Json {
    Json::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars() {
        assert_eq!(Json::parse("null").unwrap(), Json::Null);
        assert_eq!(Json::parse("true").unwrap(), Json::Bool(true));
        assert_eq!(Json::parse(" false ").unwrap(), Json::Bool(false));
        assert_eq!(Json::parse("42").unwrap(), Json::Num(42.0));
        assert_eq!(Json::parse("-3.5e2").unwrap(), Json::Num(-350.0));
        assert_eq!(
            Json::parse("\"hi\\n\\u0041\"").unwrap(),
            Json::Str("hi\nA".into())
        );
    }

    #[test]
    fn parses_nested() {
        let doc = Json::parse(r#"{"s":"cpu","ts":123,"vals":[1,2.5,-3],"ok":true}"#).unwrap();
        assert_eq!(doc.get("s").and_then(Json::as_str), Some("cpu"));
        assert_eq!(doc.get("ts").and_then(Json::as_i64), Some(123));
        let vals = doc.get("vals").and_then(Json::as_arr).unwrap();
        assert_eq!(vals.len(), 3);
        assert_eq!(vals[1].as_f64(), Some(2.5));
        assert_eq!(doc.get("missing"), None);
    }

    #[test]
    fn surrogate_pairs_round_trip() {
        let doc = Json::parse("\"\\ud83d\\ude00\"").unwrap();
        assert_eq!(doc, Json::Str("😀".into()));
    }

    #[test]
    fn rejects_garbage() {
        assert!(Json::parse("").is_err());
        assert!(Json::parse("{").is_err());
        assert!(Json::parse("[1,]").is_err());
        assert!(Json::parse("{\"a\" 1}").is_err());
        assert!(Json::parse("\"unterminated").is_err());
        assert!(Json::parse("1 2").is_err());
        assert!(Json::parse("\"\\ud800\"").is_err());
    }

    #[test]
    fn round_trips_render() {
        let src = r#"{"name":"w","count":7,"frac":0.25,"tags":["a","b"],"none":null}"#;
        let doc = Json::parse(src).unwrap();
        assert_eq!(doc.render(), src);
        let re = Json::parse(&doc.render_pretty()).unwrap();
        assert_eq!(re, doc);
    }

    #[test]
    fn integers_render_without_fraction() {
        assert_eq!(Json::Num(3.0).render(), "3");
        assert_eq!(Json::Num(3.25).render(), "3.25");
        assert_eq!(Json::Num(f64::NAN).render(), "null");
    }

    #[test]
    fn to_json_building_blocks() {
        let v = obj(vec![
            ("xs", vec![1u64, 2, 3].to_json()),
            ("label", "hi".to_json()),
            ("opt", None::<f64>.to_json()),
        ]);
        assert_eq!(v.render(), r#"{"xs":[1,2,3],"label":"hi","opt":null}"#);
    }

    #[test]
    fn nesting_is_bounded() {
        // Unbounded, a megabyte of `[` would recurse once per byte and
        // overflow the stack; bounded, it is an ordinary parse error.
        let deep = "[".repeat(1 << 20);
        assert!(Json::parse(&deep).is_err());
        assert!(JsonReader::new(&deep).skip().is_err());
        let at = |n: usize| format!("{}{}", "[".repeat(n), "]".repeat(n));
        assert!(Json::parse(&at(MAX_DEPTH)).is_ok());
        assert!(Json::parse(&at(MAX_DEPTH + 1)).is_err());
        let objs = format!(
            "{}1{}",
            r#"{"a":"#.repeat(MAX_DEPTH + 1),
            "}".repeat(MAX_DEPTH + 1)
        );
        assert!(Json::parse(&objs).is_err());
    }

    #[test]
    fn reader_borrows_plain_strings_and_keys() {
        let mut r = JsonReader::new(r#" {"k" : "plain", "e\u0078" : "a\"b"} "#);
        r.begin_object().unwrap();
        let k = r.next_key().unwrap().unwrap();
        assert!(matches!(k, Cow::Borrowed("k")));
        assert!(matches!(r.str().unwrap(), Cow::Borrowed("plain")));
        let k = r.next_key().unwrap().unwrap();
        assert!(matches!(&k, Cow::Owned(s) if s == "ex"));
        assert_eq!(r.str().unwrap(), "a\"b");
        assert_eq!(r.next_key().unwrap(), None);
        r.finish().unwrap();
    }

    #[test]
    fn reader_integers_follow_the_tree_rule() {
        for text in [
            "0",
            "-0",
            "01",
            "42",
            "-17",
            "1.0",
            "1e2",
            "1.5",
            "-3.5e2",
            "999999999999999",
            "-999999999999999",
            "1000000000000000",
            "9007199254740992",
            "9007199254740993",
            "18014398509481984",
            "1e400",
            "-",
            "1e",
            "1.",
            "-.5",
        ] {
            let tree = Json::parse(text).map(|j| j.as_i64());
            let pulled = JsonReader::new(text).i64();
            assert_eq!(tree.is_ok(), pulled.is_ok(), "{text}");
            if let (Ok(a), Ok(b)) = (tree, pulled) {
                assert_eq!(a, b, "{text}");
            }
        }
    }

    #[test]
    fn reader_skip_validates_what_it_skips() {
        for bad in [
            r#"{"a":[1,]}"#,
            r#"{"a":"\q"}"#,
            r#"{"a":1e}"#,
            r#"{"a":tru}"#,
        ] {
            let mut r = JsonReader::new(bad);
            r.begin_object().unwrap();
            r.next_key().unwrap();
            assert!(r.skip().is_err(), "{bad}");
        }
        let mut r = JsonReader::new(r#"[{"x":[null,true,"s",-1.5e3,{}]}, 2] "#);
        r.skip().unwrap();
        r.finish().unwrap();
        let mut r = JsonReader::new("1 2");
        r.skip().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn control_chars_escape() {
        let s = Json::Str("a\u{1}b".into());
        assert_eq!(s.render(), "\"a\\u0001b\"");
        assert_eq!(Json::parse(&s.render()).unwrap(), s);
    }
}
