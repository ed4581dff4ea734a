//! The wire format: newline-delimited JSON tuple frames and control
//! commands.
//!
//! One frame per line:
//!
//! ```json
//! {"stream":"R","row":[17,4],"ts":1500000}
//! ```
//!
//! `stream` names a catalog stream, `row` is the tuple's integer
//! values in schema order, and `ts` (optional) is the arrival
//! timestamp in microseconds on the server's clock — omitted, the
//! server stamps the tuple with `Clock::now()` at ingest. An optional
//! `tenant` string tags the tuple for the stream's weighted-fair
//! shedding lanes (untagged traffic lands in the catch-all lane).
//!
//! A line carrying a `cmd` field is a **control command** instead of
//! a tuple; the server answers each one with a single JSON reply line
//! on the same connection:
//!
//! ```json
//! {"cmd":"register","sql":"SELECT a, COUNT(*) FROM R GROUP BY a",
//!  "tenant":"acme","delay_ms":50,"weight":2.0}
//! {"cmd":"unregister","id":3}
//! {"cmd":"list"}
//! ```
//!
//! A tuple line is decoded in one pass over its bytes by a pull
//! reader ([`dt_types::json::JsonReader`]), with no JSON tree: the
//! first occurrence of a key wins, unknown keys are skipped but still
//! validated, and only a command line is parsed into a [`Json`] tree.
//! Lines are capped at [`MAX_LINE_BYTES`] and JSON nesting at
//! [`dt_types::json::MAX_DEPTH`]; input past either is one rejected
//! frame.

use dt_types::json::{JsonKind, JsonReader};
use dt_types::{DtError, DtResult, Json, Row, Timestamp, ToJson, Tuple, Value};
use std::borrow::Cow;

/// One parsed ingest frame.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// Catalog stream name.
    pub stream: String,
    /// Tuple values in schema order.
    pub row: Row,
    /// Arrival timestamp; `None` means "stamp at ingest".
    pub ts: Option<Timestamp>,
    /// Fair-shedding lane tag; `None` lands in the catch-all lane.
    pub tenant: Option<String>,
}

impl Frame {
    /// Stamp the frame into a [`Tuple`], defaulting to `now`.
    pub fn into_tuple(self, now: Timestamp) -> Tuple {
        Tuple::new(self.row, self.ts.unwrap_or(now))
    }
}

/// One parsed control command (a line with a `cmd` field).
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Register a continuous query at runtime.
    Register {
        /// The TCQ-dialect statement.
        sql: String,
        /// Owning tenant, if any.
        tenant: Option<String>,
        /// Per-tenant delay constraint in milliseconds, if any.
        delay_ms: Option<u64>,
        /// Fair-share weight (defaults to 1 server-side).
        weight: Option<f64>,
    },
    /// Detach a registered query at the next window boundary.
    Unregister {
        /// The id `register` returned.
        id: u64,
    },
    /// List every query ever registered (active and detached).
    List,
}

impl Command {
    /// Render the command as one wire line (no trailing newline).
    pub fn render(&self) -> String {
        match self {
            Command::Register {
                sql,
                tenant,
                delay_ms,
                weight,
            } => {
                let mut fields = vec![("cmd", "register".to_json()), ("sql", sql.to_json())];
                if let Some(t) = tenant {
                    fields.push(("tenant", t.to_json()));
                }
                if let Some(d) = delay_ms {
                    fields.push(("delay_ms", (*d as i64).to_json()));
                }
                if let Some(w) = weight {
                    fields.push(("weight", Json::Num(*w)));
                }
                dt_types::json::obj(fields).render()
            }
            Command::Unregister { id } => dt_types::json::obj(vec![
                ("cmd", "unregister".to_json()),
                ("id", (*id as i64).to_json()),
            ])
            .render(),
            Command::List => dt_types::json::obj(vec![("cmd", "list".to_json())]).render(),
        }
    }

    /// Parse a control-command line, the inverse of
    /// [`Command::render`].
    pub fn parse(line: &str) -> DtResult<Command> {
        let json = Json::parse(line)?;
        let bad = |what: &str| DtError::parse_at(format!("{what} (control command)"), 0);
        let cmd = json
            .get("cmd")
            .and_then(Json::as_str)
            .ok_or_else(|| bad("'cmd' must be a string"))?;
        Ok(match cmd {
            "register" => Command::Register {
                sql: json
                    .get("sql")
                    .and_then(Json::as_str)
                    .ok_or_else(|| bad("register needs a string field 'sql'"))?
                    .to_string(),
                tenant: match json.get("tenant") {
                    None => None,
                    Some(t) => Some(
                        t.as_str()
                            .ok_or_else(|| bad("'tenant' must be a string"))?
                            .to_string(),
                    ),
                },
                delay_ms: match json.get("delay_ms") {
                    None => None,
                    Some(d) => Some(
                        d.as_i64()
                            .filter(|&ms| ms >= 0)
                            .ok_or_else(|| bad("'delay_ms' must be a non-negative integer"))?
                            as u64,
                    ),
                },
                weight: match json.get("weight") {
                    None => None,
                    Some(w) => Some(w.as_f64().ok_or_else(|| bad("'weight' must be a number"))?),
                },
            },
            "unregister" => Command::Unregister {
                id: json
                    .get("id")
                    .and_then(Json::as_i64)
                    .filter(|&id| id >= 0)
                    .ok_or_else(|| bad("unregister needs a non-negative integer field 'id'"))?
                    as u64,
            },
            "list" => Command::List,
            other => return Err(bad(&format!("unknown command '{other}'"))),
        })
    }
}

/// One ingest line, classified: a tuple frame or a control command.
#[derive(Debug, Clone, PartialEq)]
pub enum Incoming {
    /// A data tuple for a stream.
    Tuple(Frame),
    /// A control-plane command expecting a reply line.
    Control(Command),
}

/// Parse one ingest line: a top-level `cmd` field makes it a control
/// command, anything else is a tuple frame.
pub fn parse_incoming(line: &str) -> DtResult<Incoming> {
    Ok(match decode_incoming(line)? {
        Decoded::Tuple(f) => Incoming::Tuple(f.into_frame()),
        Decoded::Control(cmd) => Incoming::Control(cmd),
    })
}

/// Parse one frame line (a `cmd` field is ignored like any unknown
/// key).
pub fn parse_frame(line: &str) -> DtResult<Frame> {
    decode_frame(line).map(FrameRef::into_frame)
}

/// A tuple frame decoded straight off its line: the stream name and
/// tenant borrow from the line unless they hold escapes.
#[derive(Debug)]
pub(crate) struct FrameRef<'a> {
    pub(crate) stream: Cow<'a, str>,
    pub(crate) row: Row,
    pub(crate) ts: Option<Timestamp>,
    pub(crate) tenant: Option<Cow<'a, str>>,
}

impl FrameRef<'_> {
    fn into_frame(self) -> Frame {
        Frame {
            stream: self.stream.into_owned(),
            row: self.row,
            ts: self.ts,
            tenant: self.tenant.map(Cow::into_owned),
        }
    }
}

/// One decoded ingest line.
pub(crate) enum Decoded<'a> {
    /// A data tuple.
    Tuple(FrameRef<'a>),
    /// A control command.
    Control(Command),
}

/// Decode one ingest line: a control command when it has a top-level
/// `cmd` key, else a tuple frame.
pub(crate) fn decode_incoming(line: &str) -> DtResult<Decoded<'_>> {
    let fields = scan(line)?;
    if fields.cmd {
        Command::parse(line).map(Decoded::Control)
    } else {
        fields.frame().map(Decoded::Tuple)
    }
}

/// Decode one line as a tuple frame, whatever its other keys.
pub(crate) fn decode_frame(line: &str) -> DtResult<FrameRef<'_>> {
    scan(line)?.frame()
}

/// A line's frame fields, in one pass. Each slot is `None` while its
/// key is unseen and otherwise holds the key's *first* value — the one
/// [`Json::get`] would find — with an inner `None`/`Err` when that
/// value has the wrong shape. Shape errors surface only in
/// [`Fields::frame`], after the whole line is known to be valid JSON
/// with no `cmd` key: a command line's other keys are not the frame
/// decoder's business.
struct Fields<'a> {
    stream: Option<Option<Cow<'a, str>>>,
    row: Option<Result<Vec<Value>, &'static str>>,
    ts: Option<Option<Timestamp>>,
    tenant: Option<Option<Cow<'a, str>>>,
    cmd: bool,
}

fn scan(line: &str) -> DtResult<Fields<'_>> {
    let mut f = Fields {
        stream: None,
        row: None,
        ts: None,
        tenant: None,
        cmd: false,
    };
    let mut r = JsonReader::new(line);
    r.begin_object()?;
    while let Some(key) = r.next_key()? {
        match &*key {
            "stream" if f.stream.is_none() => f.stream = Some(string(&mut r)?),
            "row" if f.row.is_none() => f.row = Some(int_row(&mut r)?),
            "ts" if f.ts.is_none() => {
                let us = int(&mut r)?.filter(|&us| us >= 0);
                f.ts = Some(us.map(|us| Timestamp::from_micros(us as u64)));
            }
            "tenant" if f.tenant.is_none() => f.tenant = Some(string(&mut r)?),
            "cmd" => {
                f.cmd = true;
                r.skip()?;
            }
            _ => r.skip()?,
        }
    }
    r.finish()?;
    Ok(f)
}

impl<'a> Fields<'a> {
    fn frame(self) -> DtResult<FrameRef<'a>> {
        let bad = |what: &str| DtError::parse_at(format!("{what} (tuple frame)"), 0);
        let stream = self
            .stream
            .flatten()
            .ok_or_else(|| bad("missing string field 'stream'"))?;
        let values = self
            .row
            .unwrap_or(Err("missing array field 'row'"))
            .map_err(bad)?;
        if values.is_empty() {
            return Err(bad("row must not be empty"));
        }
        let ts = self
            .ts
            .map(|ts| ts.ok_or_else(|| bad("'ts' must be a non-negative integer")))
            .transpose()?;
        let tenant = self
            .tenant
            .map(|t| t.ok_or_else(|| bad("'tenant' must be a string")))
            .transpose()?;
        Ok(FrameRef {
            stream,
            row: Row::new(values),
            ts,
            tenant,
        })
    }
}

/// The next value as a string; `None` (the value skipped) if it is not
/// one.
fn string<'a>(r: &mut JsonReader<'a>) -> DtResult<Option<Cow<'a, str>>> {
    if r.peek()? == JsonKind::Str {
        r.str().map(Some)
    } else {
        r.skip().map(|()| None)
    }
}

/// The next value as an exact integer; `None` (the value skipped) if it
/// is not one.
fn int(r: &mut JsonReader<'_>) -> DtResult<Option<i64>> {
    if r.peek()? == JsonKind::Num {
        r.i64()
    } else {
        r.skip().map(|()| None)
    }
}

/// The next value as a row of integers, or why it is not one.
fn int_row(r: &mut JsonReader<'_>) -> DtResult<Result<Vec<Value>, &'static str>> {
    if r.peek()? != JsonKind::Arr {
        r.skip()?;
        return Ok(Err("missing array field 'row'"));
    }
    r.begin_array()?;
    let mut values = Ok(Vec::new());
    while r.next_item()? {
        match (int(r)?, &mut values) {
            (Some(v), Ok(values)) => values.push(Value::Int(v)),
            (Some(_), Err(_)) => {}
            (None, values) => *values = Err("row values must be integers"),
        }
    }
    Ok(values)
}

/// Render one frame line (no trailing newline). Errors if a value is
/// not an integer.
pub fn render_frame(stream: &str, row: &Row, ts: Option<Timestamp>) -> DtResult<String> {
    render_frame_tagged(stream, row, ts, None)
}

/// Render one frame line with an optional tenant lane tag.
pub fn render_frame_tagged(
    stream: &str,
    row: &Row,
    ts: Option<Timestamp>,
    tenant: Option<&str>,
) -> DtResult<String> {
    let values: Vec<Json> = row
        .values()
        .iter()
        .map(|v| {
            v.as_i64()
                .map(|i| i.to_json())
                .ok_or_else(|| DtError::config(format!("frame values must be integers, got {v}")))
        })
        .collect::<DtResult<_>>()?;
    let mut fields = vec![("stream", stream.to_json()), ("row", Json::Arr(values))];
    if let Some(t) = ts {
        fields.push(("ts", (t.micros() as i64).to_json()));
    }
    if let Some(t) = tenant {
        fields.push(("tenant", t.to_json()));
    }
    Ok(dt_types::json::obj(fields).render())
}

/// Longest line a [`FrameAssembler`] buffers, in bytes before its
/// newline. Far above any real frame (tens of bytes) or `register`
/// command (hundreds); a longer line is dropped up to its next newline
/// and surfaces once as [`Line::TooLong`], so a peer that never sends
/// a newline cannot grow its connection's buffer without bound.
pub const MAX_LINE_BYTES: usize = 1 << 20;

/// One item pulled from a [`FrameAssembler`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Line<'a> {
    /// A complete line without its newline (or a `\r` before it),
    /// borrowed from the assembler unless invalid UTF-8 had to be
    /// replaced.
    Text(Cow<'a, str>),
    /// A line longer than [`MAX_LINE_BYTES`], dropped unread.
    TooLong,
}

/// Incremental NDJSON line splitter over raw socket reads.
///
/// The ingest loop feeds whatever byte chunks the socket yields —
/// which may split a frame mid-line or pack several frames per read —
/// and pulls complete lines out one at a time. Invalid UTF-8 is
/// replaced (the replacement characters then fail frame parsing and
/// count against the connection's error budget rather than killing
/// the read loop). The buffer holds at most one partial line of
/// [`MAX_LINE_BYTES`] plus the last chunk pushed.
#[derive(Debug, Default)]
pub struct FrameAssembler {
    buf: Vec<u8>,
    /// Read cursor into `buf`; consumed bytes are compacted lazily.
    pos: usize,
    /// `buf[pos..scan]` holds no newline, so a line arriving over many
    /// reads is scanned once.
    scan: usize,
    /// Dropping the rest of an over-long line, up to its newline.
    skipping: bool,
}

impl FrameAssembler {
    pub fn new() -> Self {
        FrameAssembler::default()
    }

    /// Append a chunk of raw bytes from the socket.
    pub fn push(&mut self, mut chunk: &[u8]) {
        if self.skipping {
            let Some(nl) = find_newline(chunk) else {
                return;
            };
            self.skipping = false;
            chunk = &chunk[nl + 1..];
        }
        // Compact once the consumed prefix dominates, so a long-lived
        // connection doesn't grow the buffer without bound.
        if self.pos > 4096 && self.pos * 2 > self.buf.len() {
            self.buf.drain(..self.pos);
            self.scan -= self.pos;
            self.pos = 0;
        }
        self.buf.extend_from_slice(chunk);
    }

    /// Pull the next complete line, if any, borrowing it from the
    /// buffer. A line over [`MAX_LINE_BYTES`] comes out once, as
    /// [`Line::TooLong`].
    pub fn pull_line(&mut self) -> Option<Line<'_>> {
        let Some(i) = find_newline(&self.buf[self.scan..]) else {
            if self.buf.len() - self.pos > MAX_LINE_BYTES {
                // Release the memory too: this connection may never
                // send a line that long again.
                *self = FrameAssembler {
                    skipping: true,
                    ..FrameAssembler::default()
                };
                return Some(Line::TooLong);
            }
            self.scan = self.buf.len();
            return None;
        };
        let (start, nl) = (self.pos, self.scan + i);
        self.pos = nl + 1;
        self.scan = self.pos;
        if nl - start > MAX_LINE_BYTES {
            return Some(Line::TooLong);
        }
        let mut line = &self.buf[start..nl];
        if line.last() == Some(&b'\r') {
            line = &line[..line.len() - 1];
        }
        // `from_utf8` checks ASCII a word at a time; the lossy path's
        // chunk iterator is reached only for invalid input.
        Some(Line::Text(match std::str::from_utf8(line) {
            Ok(text) => Cow::Borrowed(text),
            Err(_) => String::from_utf8_lossy(line),
        }))
    }

    /// Pull the next complete line as an owned string, passing over
    /// over-long lines.
    pub fn next_line(&mut self) -> Option<String> {
        loop {
            if let Line::Text(text) = self.pull_line()? {
                return Some(text.into_owned());
            }
        }
    }

    /// Take whatever trailing partial line remains (no newline seen).
    /// Used at EOF: a sender that died mid-frame leaves a fragment the
    /// connection still wants to count as a parse error. (The tail of
    /// an over-long line was already counted when it was dropped.)
    pub fn take_partial(&mut self) -> Option<String> {
        let rest = &self.buf[self.pos..];
        let out = if rest.is_empty() {
            None
        } else {
            Some(String::from_utf8_lossy(rest).into_owned())
        };
        *self = FrameAssembler::default();
        out
    }
}

/// Index of the first `\n` in `hay`, eight bytes at a time: in
/// `x = word ^ "\n\n\n\n\n\n\n\n"` a newline is a zero byte, and
/// `(x - 0x01…01) & !x & 0x80…80` sets the high bit of the lowest
/// zero byte (a borrow can only mark bytes above it).
fn find_newline(hay: &[u8]) -> Option<usize> {
    const LO: u64 = u64::from_le_bytes([0x01; 8]);
    const HI: u64 = u64::from_le_bytes([0x80; 8]);
    const NL: u64 = u64::from_le_bytes([b'\n'; 8]);
    let mut words = hay.chunks_exact(8);
    for (k, word) in (&mut words).enumerate() {
        let x = u64::from_le_bytes(word.try_into().expect("chunks of eight")) ^ NL;
        let zero = x.wrapping_sub(LO) & !x & HI;
        if zero != 0 {
            return Some(k * 8 + zero.trailing_zeros() as usize / 8);
        }
    }
    let tail = hay.len() - words.remainder().len();
    words
        .remainder()
        .iter()
        .position(|&b| b == b'\n')
        .map(|i| tail + i)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrips() {
        let row = Row::from_ints(&[17, 4]);
        let line = render_frame("R", &row, Some(Timestamp::from_micros(1_500_000))).unwrap();
        let f = parse_frame(&line).unwrap();
        assert_eq!(f.stream, "R");
        assert_eq!(f.row, row);
        assert_eq!(f.ts, Some(Timestamp::from_micros(1_500_000)));
        // Without a timestamp, stamping falls back to `now`.
        let line = render_frame("R", &row, None).unwrap();
        let f = parse_frame(&line).unwrap();
        assert_eq!(f.ts, None);
        let t = f.into_tuple(Timestamp::from_secs(9));
        assert_eq!(t.ts, Timestamp::from_secs(9));
    }

    #[test]
    fn rejects_malformed_frames() {
        assert!(parse_frame("not json").is_err());
        assert!(parse_frame("{}").is_err());
        assert!(parse_frame(r#"{"stream":"R"}"#).is_err());
        assert!(parse_frame(r#"{"stream":"R","row":[]}"#).is_err());
        assert!(parse_frame(r#"{"stream":"R","row":[1.5]}"#).is_err());
        assert!(parse_frame(r#"{"stream":"R","row":[1],"ts":-4}"#).is_err());
        assert!(parse_frame(r#"{"stream":7,"row":[1]}"#).is_err());
    }

    #[test]
    fn tenant_tags_roundtrip() {
        let row = Row::from_ints(&[3]);
        let line = render_frame_tagged("R", &row, None, Some("acme")).unwrap();
        let f = parse_frame(&line).unwrap();
        assert_eq!(f.tenant.as_deref(), Some("acme"));
        assert_eq!(
            parse_frame(r#"{"stream":"R","row":[1]}"#).unwrap().tenant,
            None
        );
        assert!(parse_frame(r#"{"stream":"R","row":[1],"tenant":7}"#).is_err());
    }

    #[test]
    fn incoming_classifies_tuples_and_commands() {
        match parse_incoming(r#"{"stream":"R","row":[1]}"#).unwrap() {
            Incoming::Tuple(f) => assert_eq!(f.stream, "R"),
            other => panic!("{other:?}"),
        }
        let cmd = Command::Register {
            sql: "SELECT a, COUNT(*) FROM R GROUP BY a".into(),
            tenant: Some("acme".into()),
            delay_ms: Some(50),
            weight: Some(2.0),
        };
        match parse_incoming(&cmd.render()).unwrap() {
            Incoming::Control(c) => assert_eq!(c, cmd),
            other => panic!("{other:?}"),
        }
        for cmd in [Command::Unregister { id: 3 }, Command::List] {
            match parse_incoming(&cmd.render()).unwrap() {
                Incoming::Control(c) => assert_eq!(c, cmd),
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn incoming_rejects_malformed_commands() {
        assert!(parse_incoming(r#"{"cmd":"register"}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"register","sql":7}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"unregister"}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"unregister","id":-1}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":"selfdestruct"}"#).is_err());
        assert!(parse_incoming(r#"{"cmd":7}"#).is_err());
        let err = parse_incoming(r#"{"cmd":"register","sql":"x","weight":"heavy"}"#).unwrap_err();
        assert!(err.to_string().contains("weight"), "{err}");
    }

    #[test]
    fn render_rejects_non_integer_values() {
        use dt_types::Value;
        let row = Row::new(vec![Value::Str("x".into())]);
        assert!(render_frame("R", &row, None).is_err());
    }

    #[test]
    fn assembler_reassembles_lines_across_arbitrary_splits() {
        let text = "alpha\nbeta\r\ngamma\n";
        // Feed the same text one byte at a time, three bytes at a
        // time, and all at once — identical line streams.
        for step in [1usize, 3, text.len()] {
            let mut asm = FrameAssembler::new();
            let mut lines = Vec::new();
            for chunk in text.as_bytes().chunks(step) {
                asm.push(chunk);
                while let Some(l) = asm.next_line() {
                    lines.push(l);
                }
            }
            assert_eq!(lines, vec!["alpha", "beta", "gamma"], "step {step}");
            assert_eq!(asm.take_partial(), None);
        }
    }

    #[test]
    fn assembler_surfaces_trailing_fragment_at_eof() {
        let mut asm = FrameAssembler::new();
        asm.push(b"whole\n{\"stream\":\"R\",\"ro");
        assert_eq!(asm.next_line().as_deref(), Some("whole"));
        assert_eq!(asm.next_line(), None);
        assert_eq!(
            asm.take_partial().as_deref(),
            Some("{\"stream\":\"R\",\"ro")
        );
        // Taking the partial resets the buffer entirely.
        assert_eq!(asm.take_partial(), None);
    }

    #[test]
    fn assembler_replaces_invalid_utf8_instead_of_failing() {
        let mut asm = FrameAssembler::new();
        asm.push(&[0xff, 0xfe, b'\n']);
        let line = asm.next_line().unwrap();
        assert!(!line.is_empty());
        assert!(parse_frame(&line).is_err());
    }

    #[test]
    fn assembler_compacts_long_lived_buffers() {
        let mut asm = FrameAssembler::new();
        for i in 0..10_000 {
            asm.push(format!("line-{i}\n").as_bytes());
            assert!(asm.next_line().is_some());
        }
        // After 10k consumed lines the retained buffer must be far
        // smaller than the ~80 KiB that flowed through it.
        assert!(
            asm.buf.len() < 16 * 1024,
            "buffer grew to {}",
            asm.buf.len()
        );
    }

    #[test]
    fn assembler_drops_overlong_lines_with_a_bounded_buffer() {
        const CHUNK: usize = 16 * 1024;
        let mut asm = FrameAssembler::new();
        let mut pulled = Vec::new();
        // 3 MiB with no newline, then the line's end and a real frame.
        let junk = vec![b'x'; CHUNK];
        let frame = r#"{"stream":"R","row":[5]}"#;
        let tail = format!("end of junk\n{frame}\n");
        for chunk in std::iter::repeat_n(&junk[..], 3 * MAX_LINE_BYTES / CHUNK)
            .chain(std::iter::once(tail.as_bytes()))
        {
            asm.push(chunk);
            assert!(asm.buf.len() <= MAX_LINE_BYTES + CHUNK, "{}", asm.buf.len());
            while let Some(line) = asm.pull_line() {
                pulled.push(match line {
                    Line::Text(text) => Some(text.into_owned()),
                    Line::TooLong => None,
                });
            }
        }
        assert_eq!(pulled, vec![None, Some(frame.to_string())]);
        assert!(parse_frame(frame).is_ok());
        assert_eq!(asm.take_partial(), None);

        // A whole over-long line in one read is dropped the same way;
        // a line of exactly the cap is not.
        let mut asm = FrameAssembler::new();
        let long = "y".repeat(MAX_LINE_BYTES + 1);
        let edge = "z".repeat(MAX_LINE_BYTES);
        asm.push(format!("{long}\n{edge}\nok\n").as_bytes());
        assert_eq!(asm.pull_line(), Some(Line::TooLong));
        assert_eq!(asm.pull_line(), Some(Line::Text(edge.as_str().into())));
        assert_eq!(asm.next_line().as_deref(), Some("ok"));
        // `next_line` passes over an over-long line.
        asm.push(format!("{long}\nafter\n").as_bytes());
        assert_eq!(asm.next_line().as_deref(), Some("after"));
    }

    #[test]
    fn find_newline_matches_a_byte_scan() {
        // Bytes next to '\n' (0x0a) in value or differing in the high
        // bit, at every offset of slices spanning several words.
        let fill = [b'a', 0x0b, 0x09, 0x8a, 0x00, 0xff, 0x01, 0x7f];
        for len in 0..40 {
            for f in 0..fill.len() {
                let hay: Vec<u8> = (0..len).map(|i| fill[(i + f) % fill.len()]).collect();
                for at in 0..=len {
                    let mut h = hay.clone();
                    if at < len {
                        h[at] = b'\n';
                        if at + 3 < len {
                            h[at + 3] = b'\n';
                        }
                    }
                    let want = h.iter().position(|&b| b == b'\n');
                    assert_eq!(find_newline(&h), want, "{h:?}");
                }
            }
        }
    }

    #[test]
    fn decoder_reads_frames_the_way_the_tree_did() {
        // First occurrence wins; later duplicates are only validated.
        let f = parse_frame(r#"{"row":[1],"stream":"R","row":"x","stream":7}"#).unwrap();
        assert_eq!((f.stream.as_str(), f.row), ("R", Row::from_ints(&[1])));
        assert!(parse_frame(r#"{"stream":"R","row":[1],"row":[1,]}"#).is_err());
        assert!(parse_frame(r#"{"stream":7,"row":[1],"stream":"R"}"#).is_err());
        // Unknown keys may hold anything well-formed.
        let f = parse_frame(r#"{"x":{"y":[null,{"z":-1e9}]},"stream":"R","row":[2],"t":true}"#);
        assert_eq!(f.unwrap().row, Row::from_ints(&[2]));
        // Escaped names decode; numbers follow the tree's integer rule.
        let f = parse_frame(r#"{"stream":"R","row":[1.0,1e2,-0],"ts":01}"#).unwrap();
        assert_eq!(f.stream, "R");
        assert_eq!(f.row, Row::from_ints(&[1, 100, 0]));
        assert_eq!(f.ts, Some(Timestamp::from_micros(1)));
        // A top-level `cmd` anywhere makes a command, whatever else the
        // line holds; a nested one does not.
        assert_eq!(
            parse_incoming(r#"{"row":"x","cmd":"list"}"#).unwrap(),
            Incoming::Control(Command::List)
        );
        assert!(matches!(
            parse_incoming(r#"{"stream":"R","row":[1],"x":{"cmd":"list"}}"#).unwrap(),
            Incoming::Tuple(_)
        ));
        // `parse_frame` treats `cmd` as just another key.
        assert!(parse_frame(r#"{"cmd":"list","stream":"R","row":[3]}"#).is_ok());
        // Hostile nesting is a parse error, not a stack overflow.
        let deep = format!(r#"{{"stream":"R","row":[1],"x":{}}}"#, "[".repeat(200_000));
        assert!(parse_incoming(&deep).is_err());
        let deep_cmd = format!(r#"{{"cmd":"list","x":{}}}"#, "[".repeat(200_000));
        assert!(parse_incoming(&deep_cmd).is_err());
    }

    #[test]
    fn decoder_borrows_plain_names() {
        let line = r#"{"stream":"R","row":[1],"tenant":"acme"}"#;
        let Decoded::Tuple(f) = decode_incoming(line).unwrap() else {
            panic!("a tuple frame");
        };
        assert!(matches!(f.stream, Cow::Borrowed("R")));
        assert!(matches!(f.tenant, Some(Cow::Borrowed("acme"))));
    }
}
