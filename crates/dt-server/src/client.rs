//! A minimal loopback client for the NDJSON ingest protocol.
//!
//! Integration tests (and the bursty-replay example) drive a running
//! server exactly like an external producer would: frames over a
//! `TcpStream`, stats over a second short-lived connection.
//!
//! The client is built for unreliable servers: every read carries a
//! configurable deadline surfaced as [`DtError::Timeout`] (a client on
//! a dead socket fails fast instead of blocking forever), and sends
//! retry with exponential backoff plus deterministic jitter,
//! reconnecting between attempts ([`RetryPolicy`]).

use crate::frame::{render_frame_tagged, Command};
use crate::stats::StreamSnapshot;
use dt_obs::{Counter, MetricsRegistry};
use dt_types::{DtError, DtResult, Json, Row, Timestamp};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn io_err(what: &str, e: std::io::Error) -> DtError {
    if e.kind() == std::io::ErrorKind::WouldBlock || e.kind() == std::io::ErrorKind::TimedOut {
        DtError::timeout(format!("{what}: {e}"))
    } else {
        DtError::engine(format!("{what}: {e}"))
    }
}

/// Retry discipline for client sends: up to `max_retries` reconnect
/// attempts, sleeping `base_backoff * 2^attempt` (capped at
/// `max_backoff`) plus deterministic jitter between attempts.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnect-and-resend attempts after the first failure.
    pub max_retries: u32,
    /// First backoff sleep; doubles every attempt.
    pub base_backoff: Duration,
    /// Ceiling on any single backoff sleep.
    pub max_backoff: Duration,
    /// Seed for the deterministic jitter sequence (tests pin it).
    pub jitter_seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_retries: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
            jitter_seed: 1,
        }
    }
}

impl RetryPolicy {
    /// No retries: the first failure is final.
    pub fn none() -> Self {
        RetryPolicy {
            max_retries: 0,
            ..RetryPolicy::default()
        }
    }

    /// The backoff before retry `attempt` (0-based), jittered by up to
    /// +50% from a deterministic per-client sequence.
    fn backoff(&self, attempt: u32, jitter_state: &mut u64) -> Duration {
        let exp = self
            .base_backoff
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.max_backoff);
        // xorshift64* — cheap, deterministic, good enough for jitter.
        let mut x = *jitter_state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        *jitter_state = x;
        let half = exp.as_micros() as u64 / 2;
        let jitter = if half == 0 { 0 } else { x % half };
        exp + Duration::from_micros(jitter)
    }
}

/// Knobs for [`Client::connect_with`].
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Deadline for reads on the ingest socket (the structured error
    /// frame, mostly). `None` blocks forever — the pre-deadline
    /// behavior, kept opt-in.
    pub read_timeout: Option<Duration>,
    /// Send retry discipline.
    pub retry: RetryPolicy,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            read_timeout: Some(Duration::from_secs(5)),
            retry: RetryPolicy::default(),
        }
    }
}

/// A connected frame producer.
pub struct Client {
    stream: TcpStream,
    addr: SocketAddr,
    cfg: ClientConfig,
    jitter_state: u64,
    retries: u64,
    retry_ctr: Option<Counter>,
}

impl Client {
    /// Connect to a server's ingest port with the default config
    /// (5 s read deadline, 3 retries).
    pub fn connect(addr: SocketAddr) -> DtResult<Client> {
        Self::connect_with(addr, ClientConfig::default())
    }

    /// Connect with explicit timeout/retry knobs.
    pub fn connect_with(addr: SocketAddr, cfg: ClientConfig) -> DtResult<Client> {
        let stream = Self::open(addr, &cfg)?;
        let jitter_state = cfg.retry.jitter_seed.max(1);
        Ok(Client {
            stream,
            addr,
            cfg,
            jitter_state,
            retries: 0,
            retry_ctr: None,
        })
    }

    /// Record retry counts on `reg` as `dt_client_retries_total`.
    pub fn with_metrics(mut self, reg: &MetricsRegistry) -> Self {
        self.retry_ctr = Some(reg.counter(
            "dt_client_retries_total",
            "Client send retries (reconnect-and-resend attempts)",
            &[],
        ));
        self
    }

    fn open(addr: SocketAddr, cfg: &ClientConfig) -> DtResult<TcpStream> {
        let stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
        stream
            .set_nodelay(true)
            .map_err(|e| io_err("set_nodelay", e))?;
        stream
            .set_read_timeout(cfg.read_timeout)
            .map_err(|e| io_err("set_read_timeout", e))?;
        Ok(stream)
    }

    /// Retries performed by this client so far.
    pub fn retries(&self) -> u64 {
        self.retries
    }

    /// Send one tuple frame (with retry per the policy).
    pub fn send(&mut self, stream: &str, row: &Row, ts: Option<Timestamp>) -> DtResult<()> {
        self.send_tagged(stream, row, ts, None)
    }

    /// Send one tuple frame tagged with a tenant lane.
    pub fn send_tagged(
        &mut self,
        stream: &str,
        row: &Row,
        ts: Option<Timestamp>,
        tenant: Option<&str>,
    ) -> DtResult<()> {
        let line = render_frame_tagged(stream, row, ts, tenant)?;
        self.send_line(&line)
    }

    /// Send one control command and read its JSON reply line. A
    /// server-side `{"error":…}` reply surfaces as a config error.
    fn command(&mut self, cmd: &Command) -> DtResult<Json> {
        self.send_line(&cmd.render())?;
        let reply = self
            .recv_line()?
            .ok_or_else(|| DtError::engine("server closed before answering the command"))?;
        let doc = Json::parse(&reply)?;
        if let Some(e) = doc.get("error").and_then(Json::as_str) {
            return Err(DtError::config(e.to_string()));
        }
        Ok(doc)
    }

    /// Register a continuous query over the wire. Returns the query
    /// id the server assigned (use it with
    /// [`Client::unregister_query`]).
    pub fn register_query(
        &mut self,
        sql: &str,
        tenant: Option<&str>,
        delay_ms: Option<u64>,
        weight: Option<f64>,
    ) -> DtResult<u64> {
        let doc = self.command(&Command::Register {
            sql: sql.to_string(),
            tenant: tenant.map(str::to_string),
            delay_ms,
            weight,
        })?;
        doc.get("registered")
            .and_then(Json::as_i64)
            .filter(|&id| id >= 0)
            .map(|id| id as u64)
            .ok_or_else(|| DtError::config("register reply missing 'registered'"))
    }

    /// Detach a registered query at the next window boundary.
    /// Returns the first window it no longer covers.
    pub fn unregister_query(&mut self, id: u64) -> DtResult<u64> {
        let doc = self.command(&Command::Unregister { id })?;
        doc.get("active_to")
            .and_then(Json::as_i64)
            .filter(|&w| w >= 0)
            .map(|w| w as u64)
            .ok_or_else(|| DtError::config("unregister reply missing 'active_to'"))
    }

    /// List every query the server has ever registered.
    pub fn list_queries(&mut self) -> DtResult<Vec<QueryEntry>> {
        let doc = self.command(&Command::List)?;
        doc.get("queries")
            .and_then(Json::as_arr)
            .ok_or_else(|| DtError::config("list reply missing 'queries'"))?
            .iter()
            .map(|q| {
                QueryEntry::from_json(q)
                    .ok_or_else(|| DtError::config("bad query entry in list reply"))
            })
            .collect()
    }

    /// Send a raw line (tests use this to exercise the server's
    /// parse-error handling). On failure, reconnects and resends with
    /// exponential backoff + jitter up to the policy's retry cap; the
    /// error returned after the final attempt is the last failure.
    pub fn send_line(&mut self, line: &str) -> DtResult<()> {
        let payload = format!("{line}\n");
        let mut last = match self.stream.write_all(payload.as_bytes()) {
            Ok(()) => return Ok(()),
            Err(e) => io_err("send line", e),
        };
        for attempt in 0..self.cfg.retry.max_retries {
            self.retries += 1;
            if let Some(c) = &self.retry_ctr {
                c.inc();
            }
            std::thread::sleep(self.cfg.retry.backoff(attempt, &mut self.jitter_state));
            match Self::open(self.addr, &self.cfg) {
                Err(e) => last = e,
                Ok(fresh) => {
                    self.stream = fresh;
                    match self.stream.write_all(payload.as_bytes()) {
                        Ok(()) => return Ok(()),
                        Err(e) => last = io_err("send line (retry)", e),
                    }
                }
            }
        }
        Err(last)
    }

    /// Read one line from the server (the structured error frame the
    /// server sends before closing an over-budget connection).
    /// `Ok(None)` means clean EOF; a missed deadline surfaces as
    /// [`DtError::Timeout`].
    pub fn recv_line(&mut self) -> DtResult<Option<String>> {
        let mut out = Vec::new();
        let mut byte = [0u8; 1];
        loop {
            match self.stream.read(&mut byte) {
                Ok(0) => {
                    return Ok(if out.is_empty() {
                        None
                    } else {
                        Some(String::from_utf8_lossy(&out).into_owned())
                    });
                }
                Ok(_) => {
                    if byte[0] == b'\n' {
                        return Ok(Some(String::from_utf8_lossy(&out).into_owned()));
                    }
                    out.push(byte[0]);
                }
                Err(e) => return Err(io_err("recv line", e)),
            }
        }
    }

    /// Close the write side so the server sees EOF.
    pub fn close(self) -> DtResult<()> {
        self.stream
            .shutdown(std::net::Shutdown::Both)
            .map_err(|e| io_err("shutdown", e))
    }
}

/// One query from a `list` command reply.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryEntry {
    /// The server-assigned query id.
    pub id: u64,
    /// The registered statement.
    pub sql: String,
    /// Owning tenant, if any.
    pub tenant: Option<String>,
    /// Still registered?
    pub active: bool,
    /// Windows emitted for this query so far.
    pub windows_emitted: u64,
}

impl QueryEntry {
    fn from_json(j: &Json) -> Option<QueryEntry> {
        Some(QueryEntry {
            id: j.get("id")?.as_i64().filter(|&v| v >= 0)? as u64,
            sql: j.get("sql")?.as_str()?.to_string(),
            tenant: j.get("tenant").and_then(Json::as_str).map(str::to_string),
            active: matches!(j.get("active"), Some(Json::Bool(true))),
            windows_emitted: j.get("windows_emitted")?.as_i64().filter(|&v| v >= 0)? as u64,
        })
    }
}

/// A parsed `/stats` reply.
#[derive(Debug, Clone)]
pub struct StatsReply {
    /// Per-stream counters, in stream order.
    pub streams: Vec<StreamSnapshot>,
    /// Windows fully merged and emitted.
    pub windows_emitted: u64,
    /// Ingest lines that failed to parse.
    pub parse_errors: u64,
    /// Emitted windows flagged degraded (0 for servers that predate
    /// the field).
    pub windows_degraded: u64,
}

impl StatsReply {
    /// Counters for a stream by name.
    pub fn stream(&self, name: &str) -> Option<&StreamSnapshot> {
        self.streams.iter().find(|s| s.name == name)
    }

    /// Parse a `/stats` body — the JSON object the server sends, or
    /// the legacy `key value` text format. An empty body (a reply cut
    /// off right after its headers) is an error, not a zero snapshot.
    pub fn parse(body: &str) -> DtResult<StatsReply> {
        if body.trim().is_empty() {
            return Err(DtError::config("empty stats reply"));
        }
        if body.trim_start().starts_with('{') {
            return Self::parse_json(body);
        }
        let mut reply = StatsReply {
            streams: Vec::new(),
            windows_emitted: 0,
            parse_errors: 0,
            windows_degraded: 0,
        };
        for line in body.lines() {
            if let Some(s) = StreamSnapshot::parse_line(line) {
                reply.streams.push(s);
                continue;
            }
            let mut it = line.split_whitespace();
            match (it.next(), it.next()) {
                (Some("windows_emitted"), Some(v)) => {
                    reply.windows_emitted = v
                        .parse()
                        .map_err(|_| DtError::config("bad windows_emitted"))?;
                }
                (Some("parse_errors"), Some(v)) => {
                    reply.parse_errors =
                        v.parse().map_err(|_| DtError::config("bad parse_errors"))?;
                }
                (Some("windows_degraded"), Some(v)) => {
                    reply.windows_degraded = v
                        .parse()
                        .map_err(|_| DtError::config("bad windows_degraded"))?;
                }
                (None, _) => {}
                _ => return Err(DtError::config(format!("bad stats line: {line}"))),
            }
        }
        Ok(reply)
    }

    fn parse_json(body: &str) -> DtResult<StatsReply> {
        let j = Json::parse(body.trim())?;
        let streams = j
            .get("streams")
            .and_then(Json::as_arr)
            .ok_or_else(|| DtError::config("stats reply missing 'streams'"))?
            .iter()
            .map(|s| {
                StreamSnapshot::from_json(s)
                    .ok_or_else(|| DtError::config("bad stream snapshot in stats reply"))
            })
            .collect::<DtResult<Vec<_>>>()?;
        let count = |key: &str| {
            j.get(key)
                .and_then(Json::as_i64)
                .filter(|&v| v >= 0)
                .map(|v| v as u64)
                .ok_or_else(|| DtError::config(format!("stats reply missing '{key}'")))
        };
        Ok(StatsReply {
            streams,
            windows_emitted: count("windows_emitted")?,
            parse_errors: count("parse_errors")?,
            // Optional for wire compatibility with older servers.
            windows_degraded: count("windows_degraded").unwrap_or(0),
        })
    }
}

/// One short-lived HTTP-ish GET: send the request line, read the whole
/// reply under `timeout`, strip the response headers (if any). A
/// server that accepts but never answers yields [`DtError::Timeout`]
/// instead of a hung client.
fn http_get(addr: SocketAddr, path: &str, timeout: Option<Duration>) -> DtResult<String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| io_err("connect", e))?;
    stream
        .set_read_timeout(timeout)
        .map_err(|e| io_err("set_read_timeout", e))?;
    stream
        .write_all(format!("GET {path} HTTP/1.0\r\n\r\n").as_bytes())
        .map_err(|e| io_err("request", e))?;
    stream
        .shutdown(std::net::Shutdown::Write)
        .map_err(|e| io_err("shutdown write", e))?;
    let mut reply = String::new();
    stream
        .read_to_string(&mut reply)
        .map_err(|e| io_err("reply", e))?;
    Ok(match reply.find("\r\n\r\n") {
        Some(i) => reply[i + 4..].to_string(),
        None => reply,
    })
}

/// Default deadline for the short-lived stats/metrics fetches.
const FETCH_TIMEOUT: Duration = Duration::from_secs(5);

/// Fetch and parse `/stats` over a short-lived connection (5 s
/// deadline).
pub fn fetch_stats(addr: SocketAddr) -> DtResult<StatsReply> {
    fetch_stats_with(addr, Some(FETCH_TIMEOUT))
}

/// Fetch and parse `/stats` with an explicit read deadline (`None`
/// blocks forever).
pub fn fetch_stats_with(addr: SocketAddr, timeout: Option<Duration>) -> DtResult<StatsReply> {
    StatsReply::parse(&http_get(addr, "/stats", timeout)?)
}

/// Fetch the raw `/metrics` Prometheus exposition body (5 s deadline).
pub fn fetch_metrics(addr: SocketAddr) -> DtResult<String> {
    fetch_metrics_with(addr, Some(FETCH_TIMEOUT))
}

/// Fetch `/metrics` with an explicit read deadline.
pub fn fetch_metrics_with(addr: SocketAddr, timeout: Option<Duration>) -> DtResult<String> {
    http_get(addr, "/metrics", timeout)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reply_parses_the_text_format() {
        let body = "stream R offered 10 kept 7 shed 3 late 0\nwindows_emitted 4\nparse_errors 1\n";
        let reply = StatsReply::parse(body).unwrap();
        assert_eq!(reply.stream("R").unwrap().shed, 3);
        assert_eq!(reply.windows_emitted, 4);
        assert_eq!(reply.parse_errors, 1);
        assert_eq!(reply.windows_degraded, 0);
        assert!(reply.stream("S").is_none());
    }

    #[test]
    fn stats_reply_rejects_an_empty_body() {
        assert!(StatsReply::parse("").is_err());
        assert!(StatsReply::parse(" \r\n").is_err());
    }

    #[test]
    fn stats_reply_parses_the_json_format() {
        let body = concat!(
            r#"{"streams":[{"name":"R","offered":10,"kept":7,"shed":3,"late":1}],"#,
            r#""windows_emitted":4,"parse_errors":2,"windows_degraded":1}"#
        );
        let reply = StatsReply::parse(body).unwrap();
        assert_eq!(reply.stream("R").unwrap().kept, 7);
        assert_eq!(reply.stream("R").unwrap().late, 1);
        assert_eq!(reply.windows_emitted, 4);
        assert_eq!(reply.parse_errors, 2);
        assert_eq!(reply.windows_degraded, 1);
    }

    #[test]
    fn stats_reply_tolerates_a_missing_degraded_count() {
        // Wire compatibility: replies from servers that predate the
        // degraded counter still parse.
        let body = concat!(
            r#"{"streams":[{"name":"R","offered":1,"kept":1,"shed":0,"late":0}],"#,
            r#""windows_emitted":1,"parse_errors":0}"#
        );
        let reply = StatsReply::parse(body).unwrap();
        assert_eq!(reply.windows_degraded, 0);
    }

    #[test]
    fn stats_reply_rejects_garbage() {
        assert!(StatsReply::parse("nonsense here").is_err());
        assert!(StatsReply::parse(r#"{"streams":[{"name":"R"}]}"#).is_err());
        assert!(StatsReply::parse(r#"{"windows_emitted":1}"#).is_err());
    }

    #[test]
    fn backoff_grows_caps_and_jitters_deterministically() {
        let p = RetryPolicy {
            max_retries: 8,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(80),
            jitter_seed: 7,
        };
        let mut s1 = 7u64;
        let mut s2 = 7u64;
        let a: Vec<Duration> = (0..6).map(|i| p.backoff(i, &mut s1)).collect();
        let b: Vec<Duration> = (0..6).map(|i| p.backoff(i, &mut s2)).collect();
        assert_eq!(a, b, "same seed, same jitter sequence");
        for (i, d) in a.iter().enumerate() {
            let exp = Duration::from_millis(10)
                .saturating_mul(1 << i)
                .min(Duration::from_millis(80));
            assert!(*d >= exp, "attempt {i}: {d:?} below base {exp:?}");
            assert!(
                *d < exp + exp / 2 + Duration::from_millis(1),
                "attempt {i}: {d:?} over-jittered"
            );
        }
        // The exponential portion caps at max_backoff.
        assert!(a[5] < Duration::from_millis(121));
    }
}
