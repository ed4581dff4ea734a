//! The per-connection ingest state machine.
//!
//! The reactor ([`crate::reactor`]) moves a connection's bytes; the
//! *semantics* of a connection live here, apart from any socket: the
//! first-line HTTP probe, lazy conn id draw, fault-plan
//! corruption/holdback/disconnect, the error budget and its
//! structured farewell frame, and the holdback-flush guarantees on
//! every close path. That keeps them testable with the reactor's fake
//! sockets.
//!
//! Replies (command answers, HTTP bodies, the budget farewell) are
//! appended to a caller-owned `out` buffer, which the reactor queues
//! behind its write-side backpressure.
//!
//! A connection that sends a tuple frame becomes a progress source
//! ([`ProgressSource`]): it publishes the newest `ts` it has pushed,
//! and the merger seals a window once every source is past its end
//! (DESIGN.md §7).

use crate::config::CONN_ERROR_BUDGET;
use crate::fault::FaultPlan;
use crate::frame::Line;
use crate::obs::{
    http_method_not_allowed, http_not_found, http_response, FAULT_CORRUPT, FAULT_DELAY,
    FAULT_DISCONNECT,
};
use crate::server::{seal_watermark, ServerHandle};
use dt_types::{Timestamp, VDuration, WindowId, WindowSpec};
use std::borrow::Cow;

/// One ingest connection's standing in the merger's progress table,
/// from its first tuple frame until it is dropped with the session.
pub(crate) struct ProgressSource {
    handle: ServerHandle,
    id: u64,
    spec: WindowSpec,
    /// The newest `ts` this connection has pushed.
    pushed: Option<Timestamp>,
    /// The newest window `pushed` lets seal, as last published.
    published: Option<WindowId>,
}

impl ProgressSource {
    /// Register a new source in `handle`'s progress table. It holds
    /// every progress seal back until it first publishes.
    pub(crate) fn register(handle: &ServerHandle) -> ProgressSource {
        ProgressSource {
            id: handle.register_source(),
            spec: handle.spec(),
            handle: handle.clone(),
            pushed: None,
            published: None,
        }
    }

    /// A tuple stamped `ts` has been pushed (kept or shed).
    pub(crate) fn pushed(&mut self, ts: Timestamp) {
        self.pushed = self.pushed.max(Some(ts));
    }

    /// Publish the frontier when the newest window it alone would let
    /// seal has advanced — at most once per window. The caller must
    /// hold no line back: a held line is not pushed yet, and may lie
    /// below the frontier.
    fn publish(&mut self) {
        let Some(ts) = self.pushed else {
            return;
        };
        let sealable = seal_watermark(ts, self.spec, VDuration::ZERO);
        if sealable > self.published {
            self.published = sealable;
            self.handle.publish_progress(self.id, ts);
        }
    }
}

impl Drop for ProgressSource {
    /// The connection is gone: it pushes nothing more, but its
    /// frontier keeps holding seals back until the grace passes it.
    fn drop(&mut self) {
        self.handle.close_source(self.id, self.pushed);
    }
}

/// What the session decided after consuming input: keep the
/// connection open, or close it once `out` has been flushed. On
/// `Close` the caller must not feed the session any further buffered
/// lines — they are discarded exactly as a closed socket would have
/// discarded them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum LineVerdict {
    /// Keep reading.
    Open,
    /// Flush `out` (best effort) and close the connection.
    Close,
}

/// Ingest-side state for one NDJSON connection: line accounting, the
/// error budget, and fault-plan holdbacks.
pub(crate) struct IngestSession {
    fault: FaultPlan,
    /// This connection's ingest id, drawn lazily at the first data
    /// line so HTTP probe connections never consume one.
    id: Option<u64>,
    /// Data lines seen so far (the fault plan's line index).
    lines: u64,
    /// Frames this connection had rejected.
    errors: u64,
    /// Lines the fault plan is holding back: `(release_after, text)`.
    held: Vec<(u64, String)>,
    /// Still waiting for the first line (HTTP probe sniffing window).
    first: bool,
    /// Set at the first tuple frame: this connection is a progress
    /// source.
    source: Option<ProgressSource>,
}

impl IngestSession {
    pub(crate) fn new(fault: FaultPlan) -> IngestSession {
        IngestSession {
            fault,
            id: None,
            lines: 0,
            errors: 0,
            held: Vec::new(),
            first: true,
            source: None,
        }
    }

    /// Ingest one line — a tuple frame or a control command (whose
    /// reply is appended to `out`) — and account failures; `true`
    /// means the error budget is exhausted and the caller must close
    /// the connection (after flushing holdbacks).
    fn process(&mut self, handle: &ServerHandle, text: &str, out: &mut Vec<u8>) -> bool {
        match handle.ingest_line(text, &mut self.source) {
            Ok(None) => false,
            Ok(Some(reply)) => {
                out.extend_from_slice(reply.as_bytes());
                out.push(b'\n');
                false
            }
            Err(_) => self.reject(handle),
        }
    }

    /// Publish this connection's progress after its pushes. While
    /// lines are held back the frontier stays put, so a delayed frame
    /// never lands in a window that has already sealed.
    fn publish(&mut self) {
        if self.held.is_empty() {
            if let Some(source) = &mut self.source {
                source.publish();
            }
        }
    }

    /// Count one rejected frame; `true` once the budget is exhausted.
    fn reject(&mut self, handle: &ServerHandle) -> bool {
        handle.note_rejected_frame();
        self.errors += 1;
        self.errors >= CONN_ERROR_BUDGET
    }

    /// Release every held line due at or before line index `upto`
    /// (`u64::MAX` flushes all — done before any close or on idle, so
    /// a delayed frame is never outright lost).
    fn release_held(&mut self, handle: &ServerHandle, out: &mut Vec<u8>, upto: u64) -> bool {
        let mut exhausted = false;
        while let Some(pos) = self.held.iter().position(|(due, _)| *due <= upto) {
            let (_, text) = self.held.remove(pos);
            exhausted |= self.process(handle, &text, out);
        }
        exhausted
    }

    /// Flush all holdbacks and append the structured budget-exhausted
    /// farewell frame.
    fn farewell(&mut self, handle: &ServerHandle, out: &mut Vec<u8>) {
        let _ = self.release_held(handle, out, u64::MAX);
        let msg = format!(
            "{{\"error\":\"error budget exhausted\",\"rejected\":{},\"budget\":{}}}\n",
            self.errors, CONN_ERROR_BUDGET
        );
        out.extend_from_slice(msg.as_bytes());
    }

    /// One line off the wire. Replies accumulate in `out`. An
    /// over-long line is one rejected frame; it draws no line number
    /// from the fault plan, since no text of it was kept.
    pub(crate) fn on_line(
        &mut self,
        handle: &ServerHandle,
        line: Line<'_>,
        out: &mut Vec<u8>,
    ) -> LineVerdict {
        let raw = match line {
            Line::Text(raw) => raw,
            Line::TooLong => {
                self.first = false;
                if self.reject(handle) {
                    self.farewell(handle, out);
                    return LineVerdict::Close;
                }
                return LineVerdict::Open;
            }
        };
        let trimmed = raw.trim();
        if self.first && trimmed.starts_with("GET ") {
            let path = trimmed.split_whitespace().nth(1).unwrap_or("/stats");
            let reply = if path.starts_with("/stats") {
                http_response("application/json", &handle.stats_body())
            } else if path.starts_with("/metrics") {
                http_response("text/plain; version=0.0.4", &handle.metrics_body())
            } else {
                http_not_found()
            };
            out.extend_from_slice(reply.as_bytes());
            return LineVerdict::Close;
        }
        if self.first && is_non_get_http(trimmed) {
            out.extend_from_slice(http_method_not_allowed().as_bytes());
            return LineVerdict::Close;
        }
        self.first = false;
        if trimmed.is_empty() {
            return LineVerdict::Open;
        }
        let id = *self.id.get_or_insert_with(|| handle.next_conn_id());
        let line_no = self.lines;
        self.lines += 1;
        // Borrowed unless the fault plan rewrites or holds the line.
        let mut text = Cow::Borrowed(trimmed);
        if !self.fault.is_disabled() {
            if let Some(kind) = self.fault.corrupt(id, line_no) {
                handle.obs().faults_injected[FAULT_CORRUPT].inc();
                text = Cow::Owned(self.fault.corrupt_line(kind, id, line_no, &text));
            }
        }
        let mut exhausted = false;
        if let Some(k) = (!self.fault.is_disabled())
            .then(|| self.fault.delay(id, line_no))
            .flatten()
        {
            handle.obs().faults_injected[FAULT_DELAY].inc();
            self.held.push((line_no + k, text.into_owned()));
        } else {
            exhausted = self.process(handle, &text, out);
        }
        exhausted |= self.release_held(handle, out, line_no);
        if exhausted {
            self.farewell(handle, out);
            return LineVerdict::Close;
        }
        if !self.fault.is_disabled() && self.fault.disconnect_after(id, line_no) {
            // Mid-stream disconnect: drop the socket with no farewell
            // — any lines already buffered past this one are discarded
            // unread, exactly like a torn network path.
            handle.obs().faults_injected[FAULT_DISCONNECT].inc();
            let _ = self.release_held(handle, out, u64::MAX);
            return LineVerdict::Close;
        }
        self.publish();
        LineVerdict::Open
    }

    /// The connection has gone quiet for one idle interval: release
    /// every holdback (delayed frames must not outlive the lull that
    /// would seal their window). A holdback that exhausts the budget
    /// still closes the connection with the farewell frame.
    pub(crate) fn on_idle(&mut self, handle: &ServerHandle, out: &mut Vec<u8>) -> LineVerdict {
        if self.release_held(handle, out, u64::MAX) {
            self.farewell(handle, out);
            return LineVerdict::Close;
        }
        self.publish();
        LineVerdict::Open
    }

    /// Clean EOF. A trailing fragment is a torn frame: count it
    /// against the budget like any other bad line, then flush
    /// holdbacks. (Exhaustion is moot — the peer already left.)
    pub(crate) fn on_eof(
        &mut self,
        handle: &ServerHandle,
        partial: Option<String>,
        out: &mut Vec<u8>,
    ) {
        if let Some(partial) = partial {
            let trimmed = partial.trim();
            if !trimmed.is_empty() {
                let _ = self.process(handle, trimmed, out);
            }
        }
        let _ = self.release_held(handle, out, u64::MAX);
    }

    /// Abrupt teardown (socket error, readiness-layer injected
    /// disconnect): flush holdbacks so every *completed* line reached
    /// the engine; a torn trailing fragment is dropped uncounted —
    /// the bytes never finished arriving, so to the accounting they
    /// were never read.
    pub(crate) fn on_error(&mut self, handle: &ServerHandle, out: &mut Vec<u8>) {
        let _ = self.release_held(handle, out, u64::MAX);
    }
}

/// True when a connection's first line looks like an HTTP request for
/// a method the server does not serve (everything but GET): an
/// all-caps method token followed by a `/`-rooted path. Tuple and
/// control frames start with `{`, so they can never match.
fn is_non_get_http(line: &str) -> bool {
    let mut it = line.split_whitespace();
    match (it.next(), it.next()) {
        (Some(method), Some(path)) => {
            method != "GET"
                && !method.is_empty()
                && method.chars().all(|c| c.is_ascii_uppercase())
                && path.starts_with('/')
        }
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn http_method_sniffing() {
        assert!(is_non_get_http("POST /stats HTTP/1.1"));
        assert!(is_non_get_http("DELETE /x"));
        assert!(!is_non_get_http("GET /stats HTTP/1.1"));
        assert!(!is_non_get_http("{\"stream\":\"R\"}"));
        assert!(!is_non_get_http("post /stats"));
        assert!(!is_non_get_http(""));
    }
}
