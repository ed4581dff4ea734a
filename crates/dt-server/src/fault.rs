//! Deterministic fault injection for the streaming runtime.
//!
//! Overload is Data Triage's normal case; *faults* — garbage frames,
//! half-closed sockets, crashing workers, stalled sealers — are the
//! production reality layered on top. A [`FaultPlan`] is a seeded,
//! pure decision function the runtime consults at well-defined
//! injection points:
//!
//! * **Ingest** (via `IngestSession`): corrupt a
//!   frame line, hold a line back for a few frames (delayed/reordered
//!   delivery), or close the connection after a frame (mid-frame
//!   disconnect).
//! * **Readiness layer** (the TCP plane's reactors): chop a
//!   nonblocking read short (a mid-frame partial read — the frame
//!   assembler must reassemble across the seam) or tear the
//!   connection down at a specific read. These are keyed by *accept
//!   order* and *read index*, not line numbers: they model the
//!   network delivering bytes in arbitrary pieces, below the framing
//!   layer.
//! * **Workers** (`run_worker`): panic after consuming a specific
//!   tuple — exercised against the supervisor's restart path.
//! * **Sealing** (`run_worker`): swallow a seal watermark once, so a
//!   stream's windows stall until the next watermark (or the merger's
//!   watchdog force-seals them).
//!
//! Every decision is a hash of `(seed, domain, a, b)` — no interior
//! state, no RNG stream to keep in sync — so a test harness holding
//! the same plan can *predict* every injection from the indices it
//! already tracks (connection number, line number, window id). That
//! prediction is what lets the chaos suite assert fault-free windows
//! are bit-identical to a no-fault run.
//!
//! Rates express approximate per-event probabilities; explicit
//! `inject_*` entries fire regardless of rates, which is how targeted
//! tests schedule exactly one fault at exactly one place.

/// What to do to a frame line selected for corruption.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the line short at a seeded offset (a torn write).
    Truncate,
    /// Replace the line with bytes that are not a frame at all.
    Garbage,
}

/// A seeded, deterministic fault schedule. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    seed: u64,
    /// Per-line probability of corrupting an ingest frame.
    pub corrupt_rate: f64,
    /// Per-line probability of holding a frame back (reordering).
    pub delay_rate: f64,
    /// Per-line probability of closing the connection after the line.
    pub disconnect_rate: f64,
    /// Per-consumed-tuple probability of a worker panic.
    pub worker_panic_rate: f64,
    /// Per-watermark probability of a worker swallowing a seal.
    pub seal_stall_rate: f64,
    /// Per-read probability of chopping a readiness-layer read short
    /// (lossless — the bytes arrive on the next read).
    pub read_chop_rate: f64,
    /// Per-read probability of tearing a connection down at the
    /// readiness layer (abrupt — unread bytes
    /// and any torn trailing fragment are lost).
    pub read_disconnect_rate: f64,
    /// Explicit injections: corrupt line `line` of ingest connection
    /// `conn`.
    inject_corrupt: Vec<(u64, u64)>,
    /// Explicit injections: disconnect after line `line` of `conn`.
    inject_disconnect: Vec<(u64, u64)>,
    /// Explicit injections: panic worker `stream` after consuming its
    /// `consumed`-th tuple (1-based).
    inject_panic: Vec<(usize, u64)>,
    /// Explicit injections: worker `stream` swallows the watermark
    /// sealing through window `upto`.
    inject_stall: Vec<(usize, u64)>,
    /// Explicit injections: chop read `read` of accepted connection
    /// `conn` (accept order) short.
    inject_read_chop: Vec<(u64, u64)>,
    /// Explicit injections: tear connection `conn` (accept order)
    /// down at read `read`.
    inject_read_disconnect: Vec<(u64, u64)>,
}

/// Hash domains keep decision families independent of each other.
const D_CORRUPT: u64 = 1;
const D_CORRUPT_KIND: u64 = 2;
const D_DELAY: u64 = 3;
const D_DELAY_DEPTH: u64 = 4;
const D_DISCONNECT: u64 = 5;
const D_PANIC: u64 = 6;
const D_STALL: u64 = 7;
const D_TRUNCATE_AT: u64 = 8;
const D_READ_CHOP: u64 = 9;
const D_READ_CHOP_LEN: u64 = 10;
const D_READ_DISCONNECT: u64 = 11;

impl FaultPlan {
    /// The no-fault plan: every decision is "don't".
    pub fn disabled() -> Self {
        FaultPlan::default()
    }

    /// A plan with the default chaos-soak rates: faults are frequent
    /// enough to exercise every recovery path over a few hundred
    /// frames, rare enough that most windows stay fault-free.
    pub fn seeded(seed: u64) -> Self {
        FaultPlan {
            seed,
            corrupt_rate: 0.01,
            delay_rate: 0.05,
            disconnect_rate: 0.004,
            worker_panic_rate: 0.004,
            seal_stall_rate: 0.15,
            ..FaultPlan::default()
        }
    }

    /// True when no fault can ever fire (the hot paths skip their
    /// injection checks entirely).
    pub fn is_disabled(&self) -> bool {
        self.corrupt_rate == 0.0
            && self.delay_rate == 0.0
            && self.disconnect_rate == 0.0
            && self.worker_panic_rate == 0.0
            && self.seal_stall_rate == 0.0
            && self.read_chop_rate == 0.0
            && self.read_disconnect_rate == 0.0
            && self.inject_corrupt.is_empty()
            && self.inject_disconnect.is_empty()
            && self.inject_panic.is_empty()
            && self.inject_stall.is_empty()
            && self.inject_read_chop.is_empty()
            && self.inject_read_disconnect.is_empty()
    }

    /// Set the plan's seed without touching any rate — explicit
    /// `inject_*` schedules stay deterministic either way, but seeded
    /// rate decisions (and chop lengths) key off it.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Schedule one corruption of line `line` on ingest connection
    /// `conn` (both 0-based).
    pub fn inject_corrupt(mut self, conn: u64, line: u64) -> Self {
        self.inject_corrupt.push((conn, line));
        self
    }

    /// Schedule one disconnect after line `line` of connection `conn`.
    pub fn inject_disconnect(mut self, conn: u64, line: u64) -> Self {
        self.inject_disconnect.push((conn, line));
        self
    }

    /// Schedule one panic of worker `stream` after it consumes its
    /// `consumed`-th tuple (1-based, cumulative across restarts).
    pub fn inject_worker_panic(mut self, stream: usize, consumed: u64) -> Self {
        self.inject_panic.push((stream, consumed));
        self
    }

    /// Schedule worker `stream` to swallow the watermark that seals
    /// through window `upto`.
    pub fn inject_seal_stall(mut self, stream: usize, upto: u64) -> Self {
        self.inject_stall.push((stream, upto));
        self
    }

    /// Schedule one readiness-layer chop: read `read` (0-based) of
    /// the `conn`-th accepted connection is cut to a few bytes.
    pub fn inject_read_chop(mut self, conn: u64, read: u64) -> Self {
        self.inject_read_chop.push((conn, read));
        self
    }

    /// Schedule one readiness-layer teardown: the `conn`-th accepted
    /// connection is torn down at its `read`-th read (0-based).
    pub fn inject_read_disconnect(mut self, conn: u64, read: u64) -> Self {
        self.inject_read_disconnect.push((conn, read));
        self
    }

    /// splitmix64 over `(seed, domain, a, b)` — the one source of
    /// randomness, stateless and order-independent.
    fn roll(&self, domain: u64, a: u64, b: u64) -> u64 {
        let mut x = self
            .seed
            .wrapping_mul(0x9e3779b97f4a7c15)
            .wrapping_add(domain.wrapping_mul(0xbf58476d1ce4e5b9))
            .wrapping_add(a.wrapping_mul(0x94d049bb133111eb))
            .wrapping_add(b.wrapping_add(0x2545f4914f6cdd1d));
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^= x >> 31;
        x
    }

    fn hit(&self, rate: f64, domain: u64, a: u64, b: u64) -> bool {
        rate > 0.0 && (self.roll(domain, a, b) as f64) < rate * (u64::MAX as f64)
    }

    /// Should line `line` of ingest connection `conn` be corrupted,
    /// and how?
    pub fn corrupt(&self, conn: u64, line: u64) -> Option<Corruption> {
        if self.inject_corrupt.contains(&(conn, line))
            || self.hit(self.corrupt_rate, D_CORRUPT, conn, line)
        {
            Some(if self.roll(D_CORRUPT_KIND, conn, line) & 1 == 0 {
                Corruption::Truncate
            } else {
                Corruption::Garbage
            })
        } else {
            None
        }
    }

    /// Apply a corruption decision to a frame line. Both kinds are
    /// guaranteed unparseable: a frame needs its closing brace, and
    /// the garbage bytes are not JSON.
    pub fn corrupt_line(&self, kind: Corruption, conn: u64, line: u64, text: &str) -> String {
        match kind {
            Corruption::Truncate => {
                let cut = 1
                    + (self.roll(D_TRUNCATE_AT, conn, line) as usize)
                        % text.len().saturating_sub(1).max(1);
                text.chars().take(cut).collect()
            }
            Corruption::Garbage => format!("@@fault-injected-garbage:{conn}:{line}@@"),
        }
    }

    /// Hold line `line` of connection `conn` back for `Some(k)` more
    /// lines (released after `k` subsequent lines, or when the
    /// connection goes idle or closes).
    pub fn delay(&self, conn: u64, line: u64) -> Option<u64> {
        if self.hit(self.delay_rate, D_DELAY, conn, line) {
            Some(1 + self.roll(D_DELAY_DEPTH, conn, line) % 4)
        } else {
            None
        }
    }

    /// Close connection `conn` right after processing line `line`?
    pub fn disconnect_after(&self, conn: u64, line: u64) -> bool {
        self.inject_disconnect.contains(&(conn, line))
            || self.hit(self.disconnect_rate, D_DISCONNECT, conn, line)
    }

    /// Should worker `stream` panic after consuming its `consumed`-th
    /// tuple (1-based, cumulative across restarts)?
    pub fn worker_panic(&self, stream: usize, consumed: u64) -> bool {
        self.inject_panic.contains(&(stream, consumed))
            || self.hit(self.worker_panic_rate, D_PANIC, stream as u64, consumed)
    }

    /// Should worker `stream` swallow the watermark sealing through
    /// `upto`? (Watermarks are cumulative, so the stalled windows are
    /// still sealed by the next watermark — or force-sealed by the
    /// merger's watchdog first.)
    pub fn stall_seal(&self, stream: usize, upto: u64) -> bool {
        self.inject_stall.contains(&(stream, upto))
            || self.hit(self.seal_stall_rate, D_STALL, stream as u64, upto)
    }

    /// Should read `read` of accepted connection `conn` be chopped
    /// short, and to how many bytes? Chops are lossless: the frame
    /// assembler sees the same byte stream, just in smaller pieces —
    /// this exercises exactly the mid-frame partial reads nonblocking
    /// sockets produce. (Keyed by accept order and per-connection
    /// read index, *not* line numbers, because it models the transport
    /// below the framing layer.)
    pub fn read_chop(&self, conn: u64, read: u64) -> Option<usize> {
        if self.inject_read_chop.contains(&(conn, read))
            || self.hit(self.read_chop_rate, D_READ_CHOP, conn, read)
        {
            Some(1 + (self.roll(D_READ_CHOP_LEN, conn, read) as usize) % 7)
        } else {
            None
        }
    }

    /// Tear accepted connection `conn` down at its `read`-th read?
    /// Abrupt, like a vanished peer: unread socket bytes and any torn
    /// trailing fragment are lost (uncounted), completed lines and
    /// holdbacks still reach the engine.
    pub fn read_disconnect(&self, conn: u64, read: u64) -> bool {
        self.inject_read_disconnect.contains(&(conn, read))
            || self.hit(self.read_disconnect_rate, D_READ_DISCONNECT, conn, read)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_plan_never_fires() {
        let p = FaultPlan::disabled();
        assert!(p.is_disabled());
        for i in 0..500 {
            assert!(p.corrupt(0, i).is_none());
            assert!(p.delay(0, i).is_none());
            assert!(!p.disconnect_after(0, i));
            assert!(!p.worker_panic(0, i));
            assert!(!p.stall_seal(0, i));
            assert!(p.read_chop(0, i).is_none());
            assert!(!p.read_disconnect(0, i));
        }
    }

    #[test]
    fn readiness_injections_fire_exactly_where_scheduled() {
        let p = FaultPlan::disabled()
            .inject_read_chop(2, 1)
            .inject_read_disconnect(3, 0);
        assert!(!p.is_disabled());
        let chop = p.read_chop(2, 1).expect("scheduled chop fires");
        assert!((1..=7).contains(&chop), "chop lengths stay tiny: {chop}");
        assert!(p.read_chop(2, 2).is_none());
        assert!(p.read_chop(1, 1).is_none());
        assert!(p.read_disconnect(3, 0));
        assert!(!p.read_disconnect(3, 1));
        assert!(!p.read_disconnect(0, 0));
    }

    #[test]
    fn read_chop_rate_is_deterministic_per_seed() {
        let mut a = FaultPlan::disabled().with_seed(9);
        a.read_chop_rate = 0.25;
        let hits: Vec<u64> = (0..400).filter(|&i| a.read_chop(1, i).is_some()).collect();
        let mut b = FaultPlan::disabled().with_seed(9);
        b.read_chop_rate = 0.25;
        let again: Vec<u64> = (0..400).filter(|&i| b.read_chop(1, i).is_some()).collect();
        assert_eq!(hits, again);
        assert!(!hits.is_empty(), "25% over 400 reads must fire");
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let a = FaultPlan::seeded(7);
        let b = FaultPlan::seeded(7);
        let c = FaultPlan::seeded(8);
        let hits = |p: &FaultPlan| -> Vec<u64> {
            (0..2000).filter(|&i| p.corrupt(0, i).is_some()).collect()
        };
        assert_eq!(hits(&a), hits(&b), "same seed, same schedule");
        assert_ne!(hits(&a), hits(&c), "different seed, different schedule");
        assert!(!hits(&a).is_empty(), "1% over 2000 lines must fire");
    }

    #[test]
    fn rates_land_in_the_right_ballpark() {
        let p = FaultPlan::seeded(42);
        let n = 100_000u64;
        let corrupt = (0..n).filter(|&i| p.corrupt(3, i).is_some()).count() as f64 / n as f64;
        assert!((0.005..0.02).contains(&corrupt), "corrupt rate {corrupt}");
        let delay = (0..n).filter(|&i| p.delay(3, i).is_some()).count() as f64 / n as f64;
        assert!((0.03..0.08).contains(&delay), "delay rate {delay}");
    }

    #[test]
    fn explicit_injections_fire_exactly_where_scheduled() {
        let p = FaultPlan::disabled()
            .inject_corrupt(1, 5)
            .inject_disconnect(0, 9)
            .inject_worker_panic(2, 100)
            .inject_seal_stall(0, 3);
        assert!(p.corrupt(1, 5).is_some());
        assert!(p.corrupt(1, 6).is_none());
        assert!(p.disconnect_after(0, 9));
        assert!(!p.disconnect_after(1, 9));
        assert!(p.worker_panic(2, 100));
        assert!(!p.worker_panic(2, 99));
        assert!(p.stall_seal(0, 3));
        assert!(!p.stall_seal(1, 3));
        assert!(!p.is_disabled());
    }

    #[test]
    fn corrupted_lines_never_parse_as_frames() {
        let p = FaultPlan::seeded(3);
        let valid = r#"{"stream":"R","row":[17,4],"ts":1500000}"#;
        for line in 0..200 {
            for kind in [Corruption::Truncate, Corruption::Garbage] {
                let mangled = p.corrupt_line(kind, 0, line, valid);
                assert!(
                    crate::frame::parse_frame(&mangled).is_err(),
                    "corruption must make the frame unparseable: {mangled:?}"
                );
            }
        }
    }
}
