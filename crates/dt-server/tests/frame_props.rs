//! Property tests for the NDJSON frame codec and the incremental
//! line assembler.
//!
//! The ingest boundary is the one place the server touches bytes it
//! does not control, so the codec's contract is checked adversarially:
//! `parse ∘ render` is the identity on every well-formed frame,
//! `parse_frame` never panics on arbitrary input (including every
//! prefix of a valid frame — the torn-write shapes the fault injector
//! produces), and the [`FrameAssembler`] yields the same line stream
//! no matter how reads split the bytes.
//!
//! The one-pass decoder behind `parse_incoming` / `parse_frame` is
//! checked differentially against the tree decoder it replaced (a full
//! `Json::parse`, then field lookups): on generated frames, byte-level
//! mutations of them, and arbitrary bytes, both give the same `Ok`
//! value or both fail.

use dt_server::{
    parse_frame, parse_incoming, render_frame, Command, Frame, FrameAssembler, Incoming, Line,
    MAX_LINE_BYTES,
};
use dt_types::{DtError, DtResult, Json, Row, Timestamp};
use proptest::prelude::*;

/// The tree decoder's frame reading, kept as the reference.
fn frame_from(json: &Json) -> DtResult<Frame> {
    let bad = |what: &str| DtError::parse_at(format!("{what} (tuple frame)"), 0);
    let stream = json
        .get("stream")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("missing string field 'stream'"))?
        .to_string();
    let row = json
        .get("row")
        .and_then(Json::as_arr)
        .ok_or_else(|| bad("missing array field 'row'"))?;
    let values: Vec<i64> = row
        .iter()
        .map(|v| v.as_i64().ok_or_else(|| bad("row values must be integers")))
        .collect::<DtResult<_>>()?;
    if values.is_empty() {
        return Err(bad("row must not be empty"));
    }
    let ts = match json.get("ts") {
        None => None,
        Some(t) => Some(
            t.as_i64()
                .filter(|&us| us >= 0)
                .map(|us| Timestamp::from_micros(us as u64))
                .ok_or_else(|| bad("'ts' must be a non-negative integer"))?,
        ),
    };
    let tenant = match json.get("tenant") {
        None => None,
        Some(t) => Some(
            t.as_str()
                .ok_or_else(|| bad("'tenant' must be a string"))?
                .to_string(),
        ),
    };
    Ok(Frame {
        stream,
        row: Row::from_ints(&values),
        ts,
        tenant,
    })
}

fn tree_frame(line: &str) -> DtResult<Frame> {
    frame_from(&Json::parse(line)?)
}

fn tree_incoming(line: &str) -> DtResult<Incoming> {
    let json = Json::parse(line)?;
    if json.get("cmd").is_none() {
        frame_from(&json).map(Incoming::Tuple)
    } else {
        Command::parse(line).map(Incoming::Control)
    }
}

/// Both decoders agree on `line`: equal `Ok` values, or both `Err`.
fn agree(line: &str) -> TestCaseResult {
    prop_assert_eq!(
        parse_frame(line).ok(),
        tree_frame(line).ok(),
        "frame {:?}",
        line
    );
    prop_assert_eq!(
        parse_incoming(line).ok(),
        tree_incoming(line).ok(),
        "incoming {:?}",
        line
    );
    Ok(())
}

/// A tiny deterministic generator for frame-shaped text.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut x = self.0;
        x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    fn one_in(&mut self, n: usize) -> bool {
        self.below(n) == 0
    }

    fn pick<'a>(&mut self, xs: &[&'a str]) -> &'a str {
        xs[self.below(xs.len())]
    }

    fn ws(&mut self) -> &'static str {
        self.pick(&["", "", "", " ", "  ", "\t", "\r\n"])
    }

    /// A string literal for `s`, with some characters escaped.
    fn string(&mut self, s: &str) -> String {
        let mut out = String::from('"');
        for c in s.chars() {
            match c {
                '"' => out.push_str("\\\""),
                '\\' => out.push_str("\\\\"),
                '\t' => out.push_str("\\t"),
                c if self.one_in(4) && (c as u32) < 0x10000 => {
                    out.push_str(&format!("\\u{:04x}", c as u32))
                }
                c if self.one_in(8) && c == '/' => out.push_str("\\/"),
                c => out.push(c),
            }
        }
        out.push('"');
        out
    }

    fn number(&mut self) -> String {
        match self.below(6) {
            0..=2 => format!("{}", self.below(1000)),
            3 => format!("{}", self.next() as i64 >> self.below(64)),
            _ => self
                .pick(&[
                    "1.0",
                    "1e2",
                    "-0",
                    "01",
                    "007",
                    "0.5",
                    "-1.5e3",
                    "1E+2",
                    "2.50e1",
                    "9007199254740992",
                    "9007199254740993",
                    "-9007199254740993",
                    "123456789012345",
                    "1234567890123456",
                    "-999999999999999",
                    "1e400",
                    "-0.0",
                    "3e-2",
                    "1e15",
                    "100000000000000000000",
                ])
                .to_string(),
        }
    }

    /// Any JSON value, nested at most `depth` more levels.
    fn value(&mut self, depth: usize) -> String {
        match self.below(if depth == 0 { 4 } else { 6 }) {
            0 => self.pick(&["null", "true", "false"]).to_string(),
            1 => self.number(),
            2 | 3 => {
                let s = self.pick(&["R", "S", "x", "", "a\"b", "caf\u{e9}", "c\\d", "/p"]);
                self.string(s)
            }
            4 => {
                let items: Vec<String> =
                    (0..self.below(4)).map(|_| self.value(depth - 1)).collect();
                format!("[{}]", self.join(&items))
            }
            _ => {
                let members: Vec<String> = (0..self.below(4))
                    .map(|_| {
                        let key = self.pick(&["k", "cmd", "stream", "row", "ts"]);
                        self.member(key, depth - 1)
                    })
                    .collect();
                format!("{{{}}}", self.join(&members))
            }
        }
    }

    fn member(&mut self, key: &str, depth: usize) -> String {
        let (w1, w2) = (self.ws(), self.ws());
        let value = self.value(depth);
        format!("{}{w1}:{w2}{value}", self.string(key))
    }

    fn join(&mut self, parts: &[String]) -> String {
        let mut out = String::new();
        for (i, p) in parts.iter().enumerate() {
            if i > 0 {
                out.push_str(self.ws());
                out.push(',');
            }
            out.push_str(self.ws());
            out.push_str(p);
        }
        out
    }

    /// A frame-shaped line: mostly valid, sometimes with missing,
    /// mistyped, duplicated or extra keys, or a `cmd`.
    fn frame(&mut self) -> String {
        let mut members = Vec::new();
        if !self.one_in(12) {
            let name = self.pick(&["R", "S", "packets", "R\"x", "tab\there"]);
            let v = if self.one_in(12) {
                self.value(1)
            } else {
                self.string(name)
            };
            members.push(format!("\"stream\":{v}"));
        }
        if !self.one_in(12) {
            let v = if self.one_in(12) {
                self.value(2)
            } else {
                let n = self.below(4) + usize::from(!self.one_in(10));
                let items: Vec<String> = (0..n)
                    .map(|_| {
                        if self.one_in(20) {
                            self.value(1)
                        } else {
                            self.number()
                        }
                    })
                    .collect();
                format!("[{}]", self.join(&items))
            };
            members.push(format!("\"row\":{v}"));
        }
        if self.one_in(2) {
            let v = if self.one_in(10) {
                self.value(1)
            } else {
                self.number()
            };
            members.push(format!("\"ts\":{v}"));
        }
        if self.one_in(3) {
            let t = self.pick(&["acme", "globex", "a b", "q\"t"]);
            let v = if self.one_in(10) {
                self.value(1)
            } else {
                self.string(t)
            };
            members.push(format!("\"tenant\":{v}"));
        }
        for _ in 0..self.below(3) {
            let key = self.pick(&[
                "x", "meta", "Row", "x", "stream", "row", "ts", "tenant", "cmd",
            ]);
            if key == "cmd" && !self.one_in(4) {
                continue;
            }
            members.push(self.member(key, 3));
        }
        if self.one_in(16) {
            let cmd = self.pick(&["list", "register", "unregister", "nope"]);
            members.push(format!("\"cmd\":{}", self.string(cmd)));
            if self.one_in(2) {
                members.push(format!("\"id\":{}", self.number()));
            }
        }
        // Shuffle: key order must not matter (beyond first-wins).
        for i in (1..members.len()).rev() {
            let j = self.below(i + 1);
            members.swap(i, j);
        }
        let (w1, w2) = (self.ws(), self.ws());
        format!("{w1}{{{}}}{w2}", self.join(&members))
    }
}

/// Bytes biased toward JSON's own tokens, so mutations and random
/// input reach past the first character.
const JSONISH: &[u8] = b"{}[]\",:\\ -+.0123456789eEutrfalsn\t\r";

fn mutate(line: &str, ops: &[(u8, usize, u8)]) -> String {
    let mut bytes = line.as_bytes().to_vec();
    for &(op, at, b) in ops {
        let at = at % (bytes.len() + 1);
        let b = if b < 200 {
            JSONISH[b as usize % JSONISH.len()]
        } else {
            b
        };
        match op % 4 {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, b),
            2 if at < bytes.len() => bytes[at] = b,
            _ => {
                let end = (at + 1 + b as usize % 8).min(bytes.len());
                let dup = bytes[at..end].to_vec();
                bytes.splice(at..at, dup);
            }
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Rendering a frame and parsing it back reproduces the frame.
    /// Values stay inside ±2^53: JSON numbers travel as doubles, so
    /// that is the codec's documented exact-integer range.
    #[test]
    fn render_parse_roundtrip(
        name_sel in 0usize..4,
        values in prop::collection::vec(-(1i64 << 53)..(1i64 << 53), 1..6),
        ts in prop::option::of(0u64..10_000_000_000),
    ) {
        let stream = ["R", "S", "packets", "a_long_stream_name"][name_sel];
        let row = Row::from_ints(&values);
        let ts = ts.map(Timestamp::from_micros);
        let line = render_frame(stream, &row, ts).unwrap();
        let frame = parse_frame(&line).unwrap();
        prop_assert_eq!(frame.stream.as_str(), stream);
        prop_assert_eq!(frame.row, row);
        prop_assert_eq!(frame.ts, ts);
    }

    /// `parse_frame` returns Ok or Err but never panics, on fully
    /// arbitrary byte soup fed through the same lossy UTF-8 path the
    /// server uses.
    #[test]
    fn parse_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        let text = String::from_utf8_lossy(&bytes);
        let _ = parse_frame(&text);
    }

    /// Every proper prefix of a valid frame is rejected without a
    /// panic — exactly the torn-write corruption the fault plan
    /// injects.
    #[test]
    fn truncated_frames_error_cleanly(
        values in prop::collection::vec(any::<i64>(), 1..4),
        ts in 0u64..1_000_000_000,
        cut_frac in 0.0f64..1.0,
    ) {
        let row = Row::from_ints(&values);
        let line = render_frame("R", &row, Some(Timestamp::from_micros(ts))).unwrap();
        let cut = ((line.len() as f64) * cut_frac) as usize;
        let prefix = &line[..cut.min(line.len().saturating_sub(1))];
        prop_assert!(parse_frame(prefix).is_err(), "prefix parsed: {:?}", prefix);
    }

    /// The assembler is split-invariant: any chunking of the same
    /// bytes yields the same lines and the same trailing fragment.
    #[test]
    fn assembler_is_split_invariant(
        lines in prop::collection::vec(
            prop::collection::vec(32u8..127, 0..20),
            0..10,
        ),
        trailing in prop::collection::vec(32u8..127, 0..10),
        split_seed in any::<u64>(),
    ) {
        let mut bytes: Vec<u8> = Vec::new();
        for l in &lines {
            // Interior newlines can't occur (range excludes b'\n').
            bytes.extend_from_slice(l);
            bytes.push(b'\n');
        }
        bytes.extend_from_slice(&trailing);

        // Reference: one giant push.
        let mut whole = FrameAssembler::new();
        whole.push(&bytes);
        let mut want = Vec::new();
        while let Some(l) = whole.next_line() {
            want.push(l);
        }
        let want_partial = whole.take_partial();

        // Candidate: pseudo-random splits derived from the seed.
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut rest = &bytes[..];
        let mut state = split_seed | 1;
        while !rest.is_empty() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let take = 1 + (state as usize) % rest.len().min(7);
            let (chunk, tail) = rest.split_at(take.min(rest.len()));
            asm.push(chunk);
            while let Some(l) = asm.next_line() {
                got.push(l);
            }
            rest = tail;
        }
        let got_partial = asm.take_partial();

        prop_assert_eq!(&got, &want);
        prop_assert_eq!(got_partial, want_partial);
        prop_assert_eq!(want.len(), lines.len());
    }

    /// A stream of rendered frames split at arbitrary read boundaries
    /// — including zero-length chunks, which a readiness-layer read
    /// may legally deliver — reassembles and decodes bit-identically
    /// to a one-shot decode of the whole stream. This is the
    /// event-loop plane's core invariant: chopped reads
    /// (`FaultPlan::read_chop`) change only the chunking, never the
    /// decoded frames.
    #[test]
    fn chopped_frame_stream_decodes_identically(
        frames in prop::collection::vec(
            (prop::collection::vec(-(1i64 << 53)..(1i64 << 53), 1..4), 0u64..1_000_000),
            1..12,
        ),
        cuts in prop::collection::vec(any::<usize>(), 0..40),
        zeros in prop::collection::vec(0usize..40, 0..6),
    ) {
        let mut bytes = Vec::new();
        let mut rendered = Vec::new();
        for (values, ts) in &frames {
            let row = Row::from_ints(values);
            let ts = Timestamp::from_micros(*ts);
            let line = render_frame("R", &row, Some(ts)).unwrap();
            bytes.extend_from_slice(line.as_bytes());
            bytes.push(b'\n');
            rendered.push((row, ts));
        }

        // Reference: one-shot decode of the whole byte stream.
        let mut whole = FrameAssembler::new();
        whole.push(&bytes);
        let mut want = Vec::new();
        while let Some(l) = whole.next_line() {
            want.push(l);
        }
        prop_assert!(whole.take_partial().is_none());

        // Candidate: cut the stream anywhere (1..=n chunks), and
        // sprinkle zero-length reads between chunks.
        let mut points: Vec<usize> = cuts.iter().map(|i| i % (bytes.len() + 1)).collect();
        points.push(0);
        points.push(bytes.len());
        points.sort_unstable();
        points.dedup();
        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        for (k, pair) in points.windows(2).enumerate() {
            if zeros.contains(&k) {
                asm.push(&[]); // a read that returned no bytes
            }
            asm.push(&bytes[pair[0]..pair[1]]);
            while let Some(l) = asm.next_line() {
                got.push(l);
            }
        }
        prop_assert_eq!(&got, &want);
        prop_assert!(asm.take_partial().is_none());
        // And the decoded frames match the rendered inputs exactly.
        prop_assert_eq!(got.len(), rendered.len());
        for (line, (row, ts)) in got.iter().zip(&rendered) {
            let f = parse_frame(line).unwrap();
            prop_assert_eq!(&f.row, row);
            prop_assert_eq!(f.ts, Some(*ts));
        }
    }
}

/// The generator must reach every outcome — valid frames, rejects and
/// commands — or agreement would be vacuous.
#[test]
fn generated_frames_cover_every_outcome() {
    let (mut tuples, mut commands, mut errors) = (0, 0, 0);
    for seed in 0..2000 {
        match parse_incoming(&Gen(seed).frame()) {
            Ok(Incoming::Tuple(_)) => tuples += 1,
            Ok(Incoming::Control(_)) => commands += 1,
            Err(_) => errors += 1,
        }
    }
    assert!(tuples > 500, "{tuples} valid frames of 2000");
    assert!(errors > 200, "{errors} rejects of 2000");
    assert!(commands > 5, "{commands} commands of 2000");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1024))]

    /// Generated frames — shuffled keys, whitespace, escaped names,
    /// nested extras, duplicate keys, every number spelling — decode
    /// exactly as the tree decoder decodes them.
    #[test]
    fn decoder_matches_tree_on_generated_frames(seed in any::<u64>()) {
        agree(&Gen(seed).frame())?;
    }

    /// Byte-level mutations of generated frames: both decoders accept
    /// the same mutants, with the same values.
    #[test]
    fn decoder_matches_tree_on_mutated_frames(
        seed in any::<u64>(),
        ops in prop::collection::vec((any::<u8>(), any::<usize>(), any::<u8>()), 1..4),
    ) {
        agree(&mutate(&Gen(seed).frame(), &ops))?;
    }

    /// Arbitrary bytes, raw and drawn from JSON's alphabet.
    #[test]
    fn decoder_matches_tree_on_arbitrary_bytes(
        raw in prop::collection::vec(any::<u8>(), 0..64),
        picks in prop::collection::vec(any::<usize>(), 0..64),
    ) {
        agree(&String::from_utf8_lossy(&raw))?;
        let jsonish: Vec<u8> = picks.iter().map(|&i| JSONISH[i % JSONISH.len()]).collect();
        agree(&String::from_utf8_lossy(&jsonish))?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// However the reads split it, a line longer than
    /// `MAX_LINE_BYTES` surfaces as exactly one `Line::TooLong`, and
    /// the frames on either side of it come through intact.
    #[test]
    fn overlong_line_is_dropped_once_under_any_split(
        extra in 1usize..5000,
        cr in any::<bool>(),
        chunks in prop::collection::vec(1000usize..70_000, 1..8),
    ) {
        let frame = render_frame("R", &Row::from_ints(&[9]), None).unwrap();
        let mut bytes = format!("{frame}\n").into_bytes();
        bytes.resize(bytes.len() + MAX_LINE_BYTES + extra, b'x');
        if cr {
            bytes.push(b'\r');
        }
        bytes.extend_from_slice(format!("\n{frame}\n").as_bytes());

        let mut asm = FrameAssembler::new();
        let mut got = Vec::new();
        let mut rest = &bytes[..];
        for k in 0.. {
            if rest.is_empty() {
                break;
            }
            let (chunk, tail) = rest.split_at(chunks[k % chunks.len()].min(rest.len()));
            asm.push(chunk);
            while let Some(line) = asm.pull_line() {
                got.push(match line {
                    Line::Text(text) => Some(text.into_owned()),
                    Line::TooLong => None,
                });
            }
            rest = tail;
        }
        prop_assert_eq!(got, vec![Some(frame.clone()), None, Some(frame)]);
        prop_assert!(asm.take_partial().is_none());
    }
}
