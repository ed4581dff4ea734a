//! Per-stream triage state: the one place a stream's kept and shed
//! tuples are folded into their windows and sealed.
//!
//! Both runtimes drive a [`StreamTriage`] per shard of a stream's
//! worker group and differ only in their clock and their threads. The
//! virtual-clock [`crate::SharedPipeline`] owns one per stream (a
//! one-shard group) and calls it inline as its engine drains the
//! triage queues; `dt-server` gives each shard a worker thread that
//! owns one and hands its seals to the merger thread. Either way a
//! tuple is classified as **kept** (delivered to the exact engine) or
//! **shed**, and folded with its per-stream sequence number into the
//! kept or dropped synopsis of every window containing its timestamp.
//! Once the seal frontier passes a window's end the window is sealed
//! with its rows, sequence numbers, unsealed synopses and counts;
//! [`crate::merge_sealed`] folds a group's seals of one window and
//! seals the synopses, for one shard or many alike.
//!
//! A [`StreamTriage`] is single-threaded; the concurrency lives in
//! the channels around it. It does not require time-ordered arrivals
//! — a tuple lands in whatever windows contain its timestamp — but
//! once a window is sealed, stragglers for it are counted as `late`
//! and discarded (their window has already been emitted).
//!
//! Synopsis points are buffered per window as integer columns
//! (`PointCols`) and inserted in one vectorized pass at seal, so the
//! per-tuple path only appends integers. Counters are plain fields
//! published to the [`StreamObs`] handles at each seal, keeping
//! atomics off the per-tuple path.

use std::borrow::Cow;

use dt_obs::MetricsRegistry;
use dt_synopsis::{Synopsis, SynopsisConfig};
use dt_types::{DtError, DtResult, Row, Tuple, WindowId, WindowSpec};

use crate::executor::SynPair;
use crate::obs::StreamObs;
use crate::shed::ShedMode;
use crate::winmap::WinMap;

/// Columnar accumulation of synopsis points awaiting a batched flush:
/// one `Vec<i64>` per dimension, in row order. The per-tuple hot path
/// only pushes integers here; the actual synopsis inserts happen once
/// per window seal via [`dt_synopsis::Synopsis::insert_columns`],
/// which vectorizes bucket arithmetic over whole columns.
#[derive(Debug, Default)]
struct PointCols {
    cols: Vec<Vec<i64>>,
    /// Per-stream sequence tags, one per buffered point (so they also
    /// count zero-dimension points).
    tags: Vec<u64>,
}

impl PointCols {
    /// Append one point carrying its per-stream sequence tag.
    #[inline]
    fn push(&mut self, point: &[i64], tag: u64) {
        if self.cols.len() != point.len() {
            self.cols.resize_with(point.len(), Vec::new);
        }
        for (col, &v) in self.cols.iter_mut().zip(point) {
            col.push(v);
        }
        self.tags.push(tag);
    }

    /// Insert every buffered point into `syn` in row order (so
    /// order-sensitive synopsis kinds see exactly the per-tuple
    /// sequence), then clear the buffer keeping column capacity.
    fn flush_into(&mut self, syn: &mut Synopsis) -> DtResult<()> {
        if self.tags.is_empty() {
            return Ok(());
        }
        if self.cols.is_empty() {
            // Zero-arity points carry no columns; replay by tag.
            for &tag in &self.tags {
                syn.insert_tagged(&[], tag)?;
            }
        } else {
            syn.insert_columns_tagged(&self.cols, &self.tags)?;
        }
        for c in &mut self.cols {
            c.clear();
        }
        self.tags.clear();
        Ok(())
    }
}

/// One window's pending kept/dropped point columns.
#[derive(Debug, Default)]
struct PendPair {
    kept: PointCols,
    dropped: PointCols,
}

/// Convert a row of integer values to a synopsis point, writing into
/// a caller-owned buffer so hot loops convert one row per iteration
/// without allocating.
fn row_point_into(row: &Row, out: &mut Vec<i64>) -> DtResult<()> {
    out.clear();
    out.reserve(row.values().len());
    for v in row.values() {
        out.push(
            v.as_i64().ok_or_else(|| {
                DtError::engine(format!("non-integer value {v} in synopsis path"))
            })?,
        );
    }
    Ok(())
}

/// One sealed window of one physical stream, ready for the merger.
#[derive(Debug, Clone, PartialEq)]
pub struct SealedWindow {
    /// Physical stream index.
    pub stream: usize,
    /// Which shard of the stream's worker group sealed this (0 for
    /// the simulator's one-shard groups and for a merged seal). The
    /// merger folds the shard seals of a window in ascending shard
    /// order ([`crate::merge_sealed`]).
    pub shard: usize,
    /// Which window.
    pub window: WindowId,
    /// Rows delivered to the exact engine, in arrival order.
    pub rows: Vec<Row>,
    /// Per-stream sequence numbers, always parallel to `rows`.
    /// Sorting the union of shard contributions by these unique
    /// sequences restores global arrival order at merge, which is what
    /// keeps sealed windows bit-identical across shard counts.
    pub seqs: Vec<u64>,
    /// Kept/dropped synopses (synopsis modes only): unsealed as a
    /// [`StreamTriage`] emits them, sealed once [`crate::merge_sealed`]
    /// has folded the group's seals of the window.
    pub syn: Option<SynPair>,
    /// Tuples that arrived with timestamps in this window.
    pub arrived: u64,
    /// Tuples kept (delivered).
    pub kept: u64,
    /// Tuples shed.
    pub dropped: u64,
    /// True when this window's state may be incomplete beyond normal
    /// shedding — e.g. the owning worker crashed and was restarted
    /// while the window was open, losing consumed-but-unsealed
    /// tuples. Degraded windows still carry whatever survived; the
    /// flag tells consumers the usual RMS-error bounds do not apply.
    pub degraded: bool,
}

impl SealedWindow {
    /// The seal of a window stream `stream` never saw, as
    /// [`crate::merge_sealed`] folds it for a one-shard group: no rows,
    /// zero counts and, in a synopsis mode, a freshly built and sealed
    /// synopsis pair. The server's merger fills a stream's missing
    /// seal with it.
    pub fn empty(
        stream: usize,
        window: WindowId,
        mode: ShedMode,
        synopsis: &SynopsisConfig,
        arity: usize,
    ) -> DtResult<SealedWindow> {
        let part = WinState::open(mode, synopsis, arity)?.into_sealed(stream, 0, window);
        crate::merge_sealed(vec![part])
    }
}

/// Open-window state.
#[derive(Debug)]
struct WinState {
    rows: Vec<Row>,
    /// Sequence numbers parallel to `rows`.
    seqs: Vec<u64>,
    syn: Option<SynPair>,
    /// Columnar kept/dropped point buffers, flushed into `syn` in one
    /// vectorized pass at seal time (synopsis modes only).
    pend: PendPair,
    arrived: u64,
    kept: u64,
    dropped: u64,
}

impl WinState {
    /// Fresh state for a window a stream has not seen yet, with a
    /// kept/dropped synopsis pair if the mode builds synopses.
    fn open(mode: ShedMode, synopsis: &SynopsisConfig, arity: usize) -> DtResult<WinState> {
        let syn = if mode.uses_synopses() {
            Some(SynPair {
                kept: synopsis.build(arity)?,
                dropped: synopsis.build(arity)?,
            })
        } else {
            None
        };
        Ok(WinState {
            rows: Vec::new(),
            seqs: Vec::new(),
            syn,
            pend: PendPair::default(),
            arrived: 0,
            kept: 0,
            dropped: 0,
        })
    }

    /// Window `w`'s seal, its buffered points already flushed and its
    /// synopses left unsealed for [`crate::merge_sealed`].
    fn into_sealed(self, stream: usize, shard: usize, w: WindowId) -> SealedWindow {
        SealedWindow {
            stream,
            shard,
            window: w,
            rows: self.rows,
            seqs: self.seqs,
            syn: self.syn,
            arrived: self.arrived,
            kept: self.kept,
            dropped: self.dropped,
            degraded: false,
        }
    }
}

/// Fold counts not yet added to the [`StreamObs`] handles.
#[derive(Debug, Default)]
struct Unpublished {
    kept: u64,
    dropped: u64,
    late: u64,
    synopsis_inserts: u64,
}

/// Per-stream triage state. See the module docs.
#[derive(Debug)]
pub struct StreamTriage {
    stream: usize,
    arity: usize,
    mode: ShedMode,
    synopsis: SynopsisConfig,
    spec: WindowSpec,
    /// Which shard of its worker group this triage is.
    shard: usize,
    /// Open windows, oldest first.
    wins: WinMap<WinState>,
    /// Windows below this id are sealed; tuples for them are late.
    next_seal: WindowId,
    /// Windows below this id (and at or above `next_seal`) seal with
    /// the `degraded` flag set — the crash-recovery marker.
    degraded_until: WindowId,
    late: u64,
    unpublished: Unpublished,
    /// Reusable synopsis-point buffer for the per-tuple hot path.
    point_scratch: Vec<i64>,
    /// Per-stream instruments (default = every handle disabled).
    obs: StreamObs,
}

impl StreamTriage {
    /// Triage state for physical stream `stream` whose rows have
    /// `arity` integer columns: shard 0 of its worker group.
    pub fn new(
        stream: usize,
        arity: usize,
        mode: ShedMode,
        synopsis: SynopsisConfig,
        spec: WindowSpec,
    ) -> Self {
        StreamTriage {
            stream,
            arity,
            mode,
            synopsis,
            spec,
            shard: 0,
            wins: WinMap::new(),
            next_seal: 0,
            degraded_until: 0,
            late: 0,
            unpublished: Unpublished::default(),
            point_scratch: Vec::new(),
            obs: StreamObs::default(),
        }
    }

    /// Make this triage shard `shard` of its worker group; its seals
    /// carry the shard index.
    pub fn sharded(mut self, shard: usize) -> Self {
        self.shard = shard;
        self
    }

    /// The shard index stamped on this triage's seals.
    pub fn shard(&self) -> usize {
        self.shard
    }

    /// Record per-stream kept/dropped/late counters and sampled
    /// synopsis-insert latency on `reg`, labeling series with
    /// `stream_name`.
    pub fn with_metrics(mut self, reg: &MetricsRegistry, stream_name: &str) -> Self {
        self.obs = StreamObs::register(reg, self.mode, stream_name);
        self
    }

    /// The id of the next window a seal will emit.
    pub fn next_seal(&self) -> WindowId {
        self.next_seal
    }

    /// The oldest window currently open, if any.
    pub fn first_open(&self) -> Option<WindowId> {
        self.wins.first_id()
    }

    /// The highest window id currently open, if any.
    pub fn max_open(&self) -> Option<WindowId> {
        self.wins.last_id()
    }

    /// Resume a replacement triage where a crashed predecessor left
    /// off: windows below `next_seal` were already sealed and emitted,
    /// so this instance must never re-seal them.
    pub fn resume_from(&mut self, next_seal: WindowId) {
        self.next_seal = next_seal;
        self.degraded_until = self.degraded_until.max(next_seal);
    }

    /// Mark every window below `upto` (and not yet sealed) as
    /// degraded: the predecessor may have consumed tuples for them
    /// that died with it, so their seals are flagged.
    pub fn mark_degraded_until(&mut self, upto: WindowId) {
        self.degraded_until = self.degraded_until.max(upto);
    }

    /// Move the seal frontier up to `upto` without sealing the windows
    /// it passes. It never passes this stream's oldest open window, so
    /// only windows with no state here are skipped. The simulator
    /// seals just the windows some stream has state for; the server
    /// never skips, because its merger needs a seal from every stream
    /// for every window.
    pub fn skip_idle(&mut self, upto: WindowId) {
        let stop = self.wins.first_id().map_or(upto, |w| w.min(upto));
        self.next_seal = self.next_seal.max(stop);
    }

    /// Tuples discarded because their window was already sealed.
    pub fn late(&self) -> u64 {
        self.late
    }

    /// Would a tuple with this timestamp be counted late (every
    /// containing window already sealed)? Work-stealing uses this to
    /// leave near-deadline tuples with the shard responsible for
    /// draining them at seal.
    pub fn would_be_late(&self, ts: dt_types::Timestamp) -> bool {
        self.spec.windows_of(ts).all(|w| w < self.next_seal)
    }

    /// Record a tuple delivered to the exact engine: buffer its row
    /// with its per-stream sequence number `seq` and (in Data Triage
    /// mode) fold it into the kept synopsis of every window containing
    /// its timestamp. Sequence numbers must be unique per stream:
    /// [`crate::merge_sealed`] orders a group's rows by them. Returns
    /// `false` if every such window was already sealed (the tuple is
    /// late and only counted).
    pub fn keep_seq(&mut self, tuple: &Tuple, seq: u64) -> DtResult<bool> {
        self.fold(Cow::Borrowed(tuple), seq, true)
    }

    /// [`StreamTriage::keep_seq`] for a caller that owns the tuple: its
    /// row moves into the (last) containing window instead of being
    /// copied.
    pub fn keep_owned(&mut self, tuple: Tuple, seq: u64) -> DtResult<bool> {
        self.fold(Cow::Owned(tuple), seq, true)
    }

    /// [`StreamTriage::keep_seq`] over a drained batch, returning how
    /// many tuples landed in at least one open window.
    pub fn keep_batch_seq(&mut self, tuples: &[(Tuple, u64)]) -> DtResult<usize> {
        let mut landed = 0;
        for (t, seq) in tuples {
            if self.fold(Cow::Borrowed(t), *seq, true)? {
                landed += 1;
            }
        }
        Ok(landed)
    }

    /// Record a shed tuple with its per-stream sequence number (see
    /// [`StreamTriage::keep_seq`]): fold it into the dropped synopsis
    /// of every window containing its timestamp (synopsis modes) or
    /// just count it (drop-only). Returns `false` if the tuple was
    /// late.
    pub fn shed_seq(&mut self, tuple: &Tuple, seq: u64) -> DtResult<bool> {
        self.fold(Cow::Borrowed(tuple), seq, false)
    }

    /// The one fold behind every keep and shed entry point.
    fn fold(&mut self, tuple: Cow<'_, Tuple>, seq: u64, kept: bool) -> DtResult<bool> {
        // Kept tuples are summarized only in Data Triage mode (the
        // shadow plan reads the kept synopsis); shed ones whenever the
        // mode builds synopses.
        let summarize = if kept {
            self.mode == ShedMode::DataTriage
        } else {
            self.mode.uses_synopses()
        };
        let t0 = (summarize && self.obs.sample_synopsis()).then(std::time::Instant::now);
        let mut point = std::mem::take(&mut self.point_scratch);
        if summarize {
            row_point_into(&tuple.row, &mut point)?;
        }
        let mut landed = false;
        let ts = tuple.ts;
        // A kept row is copied into every containing window but the
        // last, which takes the tuple itself.
        let mut keep_row = kept.then_some(tuple);
        let mut windows = self
            .spec
            .windows_of(ts)
            .filter(|&w| w >= self.next_seal)
            .peekable();
        while let Some(w) = windows.next() {
            landed = true;
            let st = self.wins.get_or_try_insert_with(w, || {
                WinState::open(self.mode, &self.synopsis, self.arity)
            })?;
            st.arrived += 1;
            let pend = if kept {
                st.kept += 1;
                let row = match windows.peek() {
                    Some(_) => keep_row.as_ref().map(|t| t.row.clone()),
                    None => keep_row.take().map(|t| t.into_owned().row),
                };
                st.rows.extend(row);
                st.seqs.push(seq);
                &mut st.pend.kept
            } else {
                st.dropped += 1;
                &mut st.pend.dropped
            };
            if summarize && st.syn.is_some() {
                pend.push(&point, seq);
                self.unpublished.synopsis_inserts += 1;
            }
        }
        self.point_scratch = point;
        if let Some(t0) = t0 {
            self.obs
                .synopsis_insert_us
                .observe(t0.elapsed().as_micros() as u64);
        }
        match (landed, kept) {
            (true, true) => self.unpublished.kept += 1,
            (true, false) => self.unpublished.dropped += 1,
            (false, _) => {
                self.late += 1;
                self.unpublished.late += 1;
            }
        }
        Ok(landed)
    }

    /// Window `w`'s dropped synopsis with every pending point folded
    /// in — what the synergistic drop policy consults when picking a
    /// victim. `None` until `w` holds at least one dropped tuple on
    /// this stream (or when the mode builds no synopses).
    pub fn dropped_synopsis(&mut self, w: WindowId) -> DtResult<Option<&Synopsis>> {
        let Some(st) = self.wins.get_mut(w) else {
            return Ok(None);
        };
        match st.syn.as_mut() {
            Some(pair) if st.dropped > 0 => {
                st.pend.dropped.flush_into(&mut pair.dropped)?;
                Ok(Some(&pair.dropped))
            }
            _ => Ok(None),
        }
    }

    fn seal_one(&mut self, w: WindowId) -> DtResult<SealedWindow> {
        let mut st = match self.wins.remove(w) {
            Some(st) => st,
            None => WinState::open(self.mode, &self.synopsis, self.arity)?,
        };
        // Flush the window's buffered points in one vectorized pass.
        // Sealing the synopses is left to the group merge, which folds
        // the shards' partials first, so MAXDIFF (and any other
        // order-observing finalization) runs exactly once, over the
        // globally ordered point sequence.
        if let Some(pair) = &mut st.syn {
            let t0 = self
                .obs
                .synopsis_batch_insert_us
                .is_enabled()
                .then(std::time::Instant::now);
            st.pend.kept.flush_into(&mut pair.kept)?;
            st.pend.dropped.flush_into(&mut pair.dropped)?;
            if let Some(t0) = t0 {
                self.obs
                    .synopsis_batch_insert_us
                    .observe(t0.elapsed().as_micros() as u64);
            }
        }
        let mut sw = st.into_sealed(self.stream, self.shard, w);
        sw.degraded = w < self.degraded_until;
        Ok(sw)
    }

    /// Add the fold counts gathered since the last seal to the
    /// instrument handles.
    fn publish_obs(&mut self) {
        let u = std::mem::take(&mut self.unpublished);
        self.obs.kept.add(u.kept);
        self.obs.dropped.add(u.dropped);
        self.obs.late.add(u.late);
        self.obs.synopsis_inserts.add(u.synopsis_inserts);
    }

    /// Seal every window with id `<= upto`, oldest first, including
    /// empty ones (the merger needs a report from every stream for
    /// every window). Windows already sealed are skipped, so sealing
    /// is idempotent per id.
    pub fn seal_through(&mut self, upto: WindowId) -> DtResult<Vec<SealedWindow>> {
        let mut out = Vec::new();
        while self.next_seal <= upto {
            let w = self.next_seal;
            out.push(self.seal_one(w)?);
            self.next_seal += 1;
        }
        self.publish_obs();
        Ok(out)
    }

    /// Seal everything still open (shutdown drain). Gaps between open
    /// windows are emitted as empty windows so the sealed sequence
    /// stays contiguous, and the degraded range is always covered —
    /// windows a crashed predecessor had open must be reported (as
    /// degraded) even when the replacement never saw a tuple for them.
    pub fn seal_all(&mut self) -> DtResult<Vec<SealedWindow>> {
        let last_open = self.wins.last_id();
        let last_degraded = self.degraded_until.checked_sub(1);
        match last_open.max(last_degraded) {
            Some(last) => self.seal_through(last),
            None => {
                self.publish_obs();
                Ok(Vec::new())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_types::{Row, Timestamp, VDuration};

    fn spec() -> WindowSpec {
        WindowSpec::new(VDuration::from_secs(1)).unwrap()
    }

    fn triage(mode: ShedMode) -> StreamTriage {
        StreamTriage::new(0, 1, mode, SynopsisConfig::Sparse { cell_width: 1 }, spec())
    }

    fn tup(v: i64, us: u64) -> Tuple {
        Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(us))
    }

    #[test]
    fn keep_and_shed_fold_into_the_right_synopses() {
        let mut t = triage(ShedMode::DataTriage);
        assert!(t.keep_seq(&tup(1, 100_000), 0).unwrap());
        assert!(t.keep_seq(&tup(2, 200_000), 1).unwrap());
        assert!(t.shed_seq(&tup(3, 300_000), 2).unwrap());
        let sealed = t.seal_through(0).unwrap();
        assert_eq!(sealed.len(), 1);
        let w = &sealed[0];
        assert_eq!((w.arrived, w.kept, w.dropped), (3, 2, 1));
        assert_eq!(w.rows.len(), 2);
        let syn = w.syn.as_ref().unwrap();
        assert!((syn.kept.total_mass() - 2.0).abs() < 1e-9);
        assert!((syn.dropped.total_mass() - 1.0).abs() < 1e-9);
    }

    #[test]
    fn drop_only_counts_but_does_not_summarize() {
        let mut t = triage(ShedMode::DropOnly);
        t.keep_seq(&tup(1, 100), 0).unwrap();
        t.shed_seq(&tup(2, 200), 1).unwrap();
        let sealed = t.seal_through(0).unwrap();
        assert_eq!(sealed[0].dropped, 1);
        assert!(sealed[0].syn.is_none());
    }

    #[test]
    fn late_tuples_are_counted_not_folded() {
        let mut t = triage(ShedMode::DataTriage);
        t.keep_seq(&tup(1, 100), 0).unwrap();
        assert_eq!(t.seal_through(0).unwrap().len(), 1);
        // Window 0 is sealed: both paths reject stragglers.
        assert!(!t.keep_seq(&tup(2, 500), 1).unwrap());
        assert!(!t.shed_seq(&tup(3, 600), 2).unwrap());
        assert_eq!(t.late(), 2);
        assert_eq!(t.next_seal(), 1);
    }

    #[test]
    fn seal_emits_contiguous_windows_including_empty() {
        let mut t = triage(ShedMode::DataTriage);
        // Tuples only in windows 0 and 3.
        t.keep_seq(&tup(1, 500_000), 0).unwrap();
        t.keep_seq(&tup(2, 3_500_000), 1).unwrap();
        let sealed = t.seal_all().unwrap();
        let ids: Vec<WindowId> = sealed.iter().map(|s| s.window).collect();
        assert_eq!(ids, vec![0, 1, 2, 3]);
        assert_eq!(sealed[1].arrived, 0);
        assert!(sealed[1].rows.is_empty());
        // Idempotent: nothing left.
        assert!(t.seal_through(3).unwrap().is_empty());
    }

    #[test]
    fn resumed_triage_flags_the_degraded_range() {
        // Simulate a crash: the predecessor sealed window 0, then died
        // with windows 1 and 2 open. The replacement resumes at 1 and
        // marks everything through 2 degraded.
        let mut t = triage(ShedMode::DataTriage);
        t.resume_from(1);
        t.mark_degraded_until(3);
        // A fresh tuple for window 2 still lands and is reported.
        assert!(t.keep_seq(&tup(9, 2_500_000), 0).unwrap());
        let sealed = t.seal_all().unwrap();
        let ids: Vec<WindowId> = sealed.iter().map(|s| s.window).collect();
        assert_eq!(ids, vec![1, 2], "resumes after the sealed prefix");
        assert!(sealed.iter().all(|s| s.degraded), "crash range flagged");
        assert_eq!(sealed[1].kept, 1, "post-restart tuples survive");
        // Windows past the degraded range seal clean again.
        t.keep_seq(&tup(1, 3_500_000), 1).unwrap();
        let clean = t.seal_all().unwrap();
        assert_eq!(clean.len(), 1);
        assert!(!clean[0].degraded);
    }

    #[test]
    fn seal_all_covers_an_empty_degraded_range() {
        let mut t = triage(ShedMode::DataTriage);
        t.mark_degraded_until(2);
        // No tuples at all: the degraded windows must still be
        // reported so the merger can flag them instead of losing them.
        let sealed = t.seal_all().unwrap();
        let ids: Vec<WindowId> = sealed.iter().map(|s| s.window).collect();
        assert_eq!(ids, vec![0, 1]);
        assert!(sealed.iter().all(|s| s.degraded && s.arrived == 0));
    }

    #[test]
    fn hopping_windows_fold_into_every_containing_window() {
        let spec = WindowSpec::hopping(VDuration::from_secs(2), VDuration::from_secs(1)).unwrap();
        let mut t = StreamTriage::new(
            0,
            1,
            ShedMode::DataTriage,
            SynopsisConfig::Sparse { cell_width: 1 },
            spec,
        );
        // ts = 1.5 s is in windows 0 and 1, whether the row is
        // borrowed or handed over.
        t.keep_seq(&tup(7, 1_500_000), 0).unwrap();
        t.keep_owned(tup(8, 1_600_000), 1).unwrap();
        let sealed = t.seal_all().unwrap();
        assert_eq!(sealed.len(), 2);
        let want = vec![Row::from_ints(&[7]), Row::from_ints(&[8])];
        assert!(sealed.iter().all(|w| w.kept == 2 && w.rows == want));
    }

    #[test]
    fn kept_rows_partition_by_timestamp() {
        let mut t = triage(ShedMode::DropOnly);
        for (v, us) in [(1, 100_000), (2, 900_000), (3, 1_100_000)] {
            t.keep_seq(&tup(v, us), v as u64).unwrap();
        }
        let sealed = t.seal_through(1).unwrap();
        assert_eq!(
            sealed[0].rows,
            vec![Row::from_ints(&[1]), Row::from_ints(&[2])]
        );
        assert_eq!(sealed[1].rows, vec![Row::from_ints(&[3])]);
    }

    #[test]
    fn sealed_rows_keep_arrival_order() {
        let mut t = StreamTriage::new(
            0,
            2,
            ShedMode::DropOnly,
            SynopsisConfig::Sparse { cell_width: 1 },
            spec(),
        );
        // Out-of-order timestamps inside one window: rows stay in the
        // order they were kept, whole.
        for (seq, (row, us)) in [([2, 20], 500), ([1, 10], 100), ([3, 30], 300)]
            .into_iter()
            .enumerate()
        {
            let tuple = Tuple::new(Row::from_ints(&row), Timestamp::from_micros(us));
            t.keep_seq(&tuple, seq as u64).unwrap();
        }
        let sealed = t.seal_all().unwrap();
        assert_eq!(
            sealed[0].rows,
            vec![
                Row::from_ints(&[2, 20]),
                Row::from_ints(&[1, 10]),
                Row::from_ints(&[3, 30])
            ]
        );
    }

    #[test]
    fn sealing_an_untouched_window_is_empty() {
        let mut t = triage(ShedMode::DataTriage);
        t.skip_idle(42);
        let sealed = t.seal_through(42).unwrap();
        assert_eq!(sealed.len(), 1);
        let w = &sealed[0];
        assert_eq!(w.window, 42);
        assert_eq!((w.arrived, w.kept, w.dropped), (0, 0, 0));
        assert!(w.rows.is_empty() && w.seqs.is_empty());
        let syn = w.syn.as_ref().expect("Data Triage mode builds synopses");
        assert_eq!(syn.kept.total_mass(), 0.0);
        assert_eq!(syn.dropped.total_mass(), 0.0);
    }

    #[test]
    fn empty_seal_is_what_a_one_shard_group_seals_for_an_unseen_window() {
        let configs = [
            SynopsisConfig::Sparse { cell_width: 5 },
            SynopsisConfig::MHist {
                max_buckets: 8,
                alignment: None,
            },
            SynopsisConfig::AdaptiveSparse {
                base_width: 1,
                max_cells: 4,
            },
            SynopsisConfig::Reservoir {
                capacity: 4,
                seed: 3,
            },
        ];
        for mode in [
            ShedMode::DropOnly,
            ShedMode::SummarizeOnly,
            ShedMode::DataTriage,
        ] {
            for synopsis in configs {
                let mut t = StreamTriage::new(3, 2, mode, synopsis, spec());
                // Window 7 holds tuples; window 6 is never seen.
                let tuple = Tuple::new(Row::from_ints(&[1, 2]), Timestamp::from_micros(7_500_000));
                t.keep_seq(&tuple, 0).unwrap();
                let unseen = t.seal_through(6).unwrap().pop().unwrap();
                let unseen = crate::merge_sealed(vec![unseen]).unwrap();
                let empty = SealedWindow::empty(3, 6, mode, &synopsis, 2).unwrap();
                assert_eq!(empty, unseen, "{mode:?} {synopsis:?}");
            }
        }
    }

    #[test]
    fn first_open_tracks_the_oldest_window_and_skip_idle_stops_there() {
        let mut t = triage(ShedMode::DataTriage);
        assert_eq!(t.first_open(), None);
        t.keep_seq(&tup(1, 5_500_000), 0).unwrap();
        assert_eq!(t.first_open(), Some(5));
        t.shed_seq(&tup(2, 1_500_000), 1).unwrap();
        assert_eq!((t.first_open(), t.max_open()), (Some(1), Some(5)));
        // Skipping never passes an open window…
        t.skip_idle(9);
        assert_eq!(t.next_seal(), 1);
        assert_eq!(t.seal_through(1).unwrap().len(), 1);
        // …but jumps straight over the idle ones before it, sealing
        // nothing on the way.
        t.skip_idle(9);
        assert_eq!(t.next_seal(), 5);
        let sealed = t.seal_through(5).unwrap();
        assert_eq!(sealed.len(), 1);
        assert_eq!((sealed[0].window, sealed[0].kept), (5, 1));
        // With nothing open, the frontier moves to the target.
        t.skip_idle(9);
        assert_eq!((t.first_open(), t.next_seal()), (None, 9));
    }

    #[test]
    fn dropped_synopsis_appears_with_the_first_shed_tuple() {
        let mut t = triage(ShedMode::DataTriage);
        t.keep_seq(&tup(1, 100), 0).unwrap();
        assert!(t.dropped_synopsis(0).unwrap().is_none(), "nothing shed yet");
        t.shed_seq(&tup(4, 200), 1).unwrap();
        t.shed_seq(&tup(4, 300), 2).unwrap();
        let syn = t.dropped_synopsis(0).unwrap().expect("shed tuples");
        assert!(
            (syn.total_mass() - 2.0).abs() < 1e-9,
            "pending points flushed"
        );
        assert!(t.dropped_synopsis(1).unwrap().is_none(), "no window 1");
        // A mid-window flush changes nothing at seal.
        let w = t.seal_through(0).unwrap().pop().unwrap();
        let pair = w.syn.unwrap();
        assert!((pair.dropped.total_mass() - 2.0).abs() < 1e-9);
        assert!((pair.kept.total_mass() - 1.0).abs() < 1e-9);
        // Drop-only builds no synopses to consult.
        let mut d = triage(ShedMode::DropOnly);
        d.shed_seq(&tup(4, 200), 3).unwrap();
        assert!(d.dropped_synopsis(0).unwrap().is_none());
    }
}
