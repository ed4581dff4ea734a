//! Sharded triage: partitioning, work-stealing, and shard-seal
//! merging (DESIGN.md §15).
//!
//! A hot stream's triage work is partitioned across a *worker group*
//! of `k` shards. Three primitives make the group behave, externally,
//! exactly like one worker:
//!
//! * [`ShardRouter`] — the partition function. Tuples hash on the
//!   stream's group-key column (so grouped aggregation and synopsis
//!   cells stay shard-local under skewless load) or round-robin when
//!   the stream's queries are keyless.
//! * [`ShardQueues`] — one bounded triage queue per shard with
//!   **batch work-stealing**: an idle worker steals the newest half of
//!   the deepest sibling queue. Stolen tuples are processed by the
//!   thief's [`crate::StreamTriage`]; correctness is unaffected
//!   because the merge step (below) re-orders by ingest sequence and
//!   every supported synopsis merges partition-independently —
//!   "stolen grouped work re-partitions at merge".
//! * [`merge_sealed`] — fold the group's per-shard seals of one
//!   window into a single [`SealedWindow`], in ascending shard order:
//!   rows re-sort on their unique per-stream ingest sequence numbers
//!   (restoring global arrival order), per-shard synopsis partials
//!   fold via [`dt_synopsis::Synopsis::merge_from`] and only then
//!   seal, and counters sum. The simulator's streams are one-shard
//!   groups that seal through the same function.
//!
//! **Determinism argument.** Stamp every tuple with the per-stream
//! ingest sequence `seq` *before* routing. (1) The kept-row multiset
//! of a window is decided by admission (shed/keep), which happens
//! before routing — so it is shard-count-independent. (2) Sorting the
//! merged rows by unique `seq` is a permutation-free function of that
//! multiset. (3) Each supported synopsis's merged state is a function
//! of the tagged point *set* alone: sparse grids are commutative
//! integer sums, MHISTs re-sort their point buffers by tag before the
//! single deferred MAXDIFF build, and reservoirs retain the bottom-k
//! rows by the deterministic priority `splitmix64(seed, seq)`. Hence
//! sealed output is a pure function of the admitted
//! `(tuple, seq)` sequence — independent of shard count, partition
//! function, and steal schedule. That is the property the
//! `sharded_identity` proptest pins.
//!
//! [`ShardedStream`] composes the three primitives into a
//! single-threaded reference model of the concurrent worker group;
//! the server's threaded plane (dt-server) and the proptests both
//! follow its seal/merge discipline.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use dt_synopsis::SynopsisConfig;
use dt_types::{DtError, DtResult, Row, Tuple, Value, WindowId, WindowSpec};

use crate::shed::ShedMode;
use crate::stream::{SealedWindow, StreamTriage};

/// splitmix64 finalizer — the same mix the reservoir sample uses,
/// here spreading group-key values across shards.
#[inline]
fn mix64(x: u64) -> u64 {
    let mut z = x.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The partition function of a stream's worker group.
///
/// Routing is a *locality heuristic*, not a correctness input: the
/// merge step re-orders rows by ingest sequence and every supported
/// synopsis merges partition-independently, so any routing (including
/// the round-robin fallback and mid-run work-stealing) yields
/// bit-identical sealed windows. Keyed routing just keeps each group
/// key's kept rows and synopsis cells on one core.
#[derive(Debug)]
pub struct ShardRouter {
    shards: usize,
    key_col: Option<usize>,
    rr: AtomicU64,
}

impl ShardRouter {
    /// A router over `shards` shards. `key_col` is the row column to
    /// hash (the queries' shared GROUP BY column); `None` routes
    /// round-robin (keyless windows).
    pub fn new(shards: usize, key_col: Option<usize>) -> Self {
        ShardRouter {
            shards: shards.max(1),
            key_col,
            rr: AtomicU64::new(0),
        }
    }

    /// Number of shards routed across.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The group-key column this router hashes, if any.
    pub fn key_col(&self) -> Option<usize> {
        self.key_col
    }

    /// Which shard a row belongs to. Integer group keys hash via
    /// splitmix64; rows without a usable key (keyless streams, NULL or
    /// non-integer key values) round-robin.
    pub fn route(&self, row: &Row) -> usize {
        if self.shards == 1 {
            return 0;
        }
        if let Some(col) = self.key_col {
            if let Some(Value::Int(v)) = row.get(col) {
                return (mix64(*v as u64) % self.shards as u64) as usize;
            }
        }
        (self.rr.fetch_add(1, Ordering::Relaxed) % self.shards as u64) as usize
    }
}

/// One stream's group of bounded triage queues with batch
/// work-stealing.
///
/// Each shard owns one FIFO queue bounded at `capacity` items — the
/// per-shard triage queue of the paper's Fig. 1, with a full queue as
/// the overflow (shed) signal. An idle worker calls
/// [`ShardQueues::steal`] to take the newest half of the deepest
/// sibling queue; the victim's oldest tuples stay put because their
/// windows seal from the victim's queue (the thief may already have
/// sealed them — stealing near-deadline work would turn it late).
#[derive(Debug)]
pub struct ShardQueues<T> {
    queues: Vec<Mutex<VecDeque<T>>>,
    depths: Vec<AtomicUsize>,
    capacity: usize,
    steals: AtomicU64,
    stolen_items: AtomicU64,
    /// Optional per-shard depth gauges, mirrored on every mutation
    /// (empty = unobserved).
    gauges: Vec<dt_obs::Gauge>,
}

impl<T> ShardQueues<T> {
    /// A group of `shards` queues, each bounded at `capacity` items.
    pub fn new(shards: usize, capacity: usize) -> Self {
        let shards = shards.max(1);
        ShardQueues {
            queues: (0..shards).map(|_| Mutex::new(VecDeque::new())).collect(),
            depths: (0..shards).map(|_| AtomicUsize::new(0)).collect(),
            capacity: capacity.max(1),
            steals: AtomicU64::new(0),
            stolen_items: AtomicU64::new(0),
            gauges: Vec::new(),
        }
    }

    /// Attach one depth gauge per shard; every push, pop, drain, and
    /// steal keeps them current.
    pub fn with_gauges(mut self, gauges: Vec<dt_obs::Gauge>) -> Self {
        assert_eq!(gauges.len(), self.queues.len(), "one gauge per shard");
        self.gauges = gauges;
        self
    }

    fn gauge_sub(&self, shard: usize, n: usize) {
        if let Some(g) = self.gauges.get(shard) {
            g.sub(n as i64);
        }
    }

    /// Number of shards in the group.
    pub fn shards(&self) -> usize {
        self.queues.len()
    }

    /// Per-shard queue bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Enqueue onto one shard's queue; a full queue returns the item
    /// back (the shed signal).
    pub fn push(&self, shard: usize, item: T) -> Result<(), T> {
        let mut q = self.queues[shard].lock().expect("shard queue poisoned");
        if q.len() >= self.capacity {
            return Err(item);
        }
        q.push_back(item);
        self.depths[shard].fetch_add(1, Ordering::Relaxed);
        if let Some(g) = self.gauges.get(shard) {
            g.add(1);
        }
        Ok(())
    }

    /// Dequeue the oldest item of one shard's queue.
    pub fn pop(&self, shard: usize) -> Option<T> {
        let mut q = self.queues[shard].lock().expect("shard queue poisoned");
        let item = q.pop_front();
        if item.is_some() {
            self.depths[shard].fetch_sub(1, Ordering::Relaxed);
            self.gauge_sub(shard, 1);
        }
        item
    }

    /// Drain every item currently queued on one shard (seal-time and
    /// shutdown use this), oldest first.
    pub fn drain(&self, shard: usize) -> Vec<T> {
        let mut q = self.queues[shard].lock().expect("shard queue poisoned");
        self.depths[shard].fetch_sub(q.len(), Ordering::Relaxed);
        self.gauge_sub(shard, q.len());
        q.drain(..).collect()
    }

    /// Current depth of one shard's queue.
    pub fn depth(&self, shard: usize) -> usize {
        self.depths[shard].load(Ordering::Relaxed)
    }

    /// Total backlog across the group — what the delay controller and
    /// the steal heuristic read.
    pub fn total_depth(&self) -> usize {
        self.depths.iter().map(|d| d.load(Ordering::Relaxed)).sum()
    }

    /// How many steal operations (batches) have succeeded.
    pub fn steal_count(&self) -> u64 {
        self.steals.load(Ordering::Relaxed)
    }

    /// How many items have moved between shards by stealing.
    pub fn stolen_items(&self) -> u64 {
        self.stolen_items.load(Ordering::Relaxed)
    }

    /// Steal a batch for idle shard `thief`: from the deepest other
    /// queue, take up to the newest half of the items for which
    /// `eligible` returns true (the thief's lateness filter — see
    /// [`crate::StreamTriage::would_be_late`]), preserving their
    /// relative order. Returns an empty vector when no sibling has
    /// stealable work.
    pub fn steal(&self, thief: usize, mut eligible: impl FnMut(&T) -> bool) -> Vec<T> {
        let victim = match (0..self.queues.len())
            .filter(|&s| s != thief)
            .max_by_key(|&s| self.depth(s))
        {
            Some(v) if self.depth(v) >= 2 => v,
            _ => return Vec::new(),
        };
        let mut q = self.queues[victim].lock().expect("shard queue poisoned");
        let take = q.len() / 2;
        if take == 0 {
            return Vec::new();
        }
        // Pull the newest `take` items off the back, keep the ones
        // the thief can still process, and put the rest back in their
        // original order.
        let keep_from = q.len() - take;
        let mut tail: Vec<T> = q.split_off(keep_from).into_iter().collect();
        let mut stolen = Vec::new();
        let mut putback = Vec::new();
        for item in tail.drain(..) {
            if eligible(&item) {
                stolen.push(item);
            } else {
                putback.push(item);
            }
        }
        for item in putback {
            q.push_back(item);
        }
        drop(q);
        if !stolen.is_empty() {
            self.depths[victim].fetch_sub(stolen.len(), Ordering::Relaxed);
            self.gauge_sub(victim, stolen.len());
            self.steals.fetch_add(1, Ordering::Relaxed);
            self.stolen_items
                .fetch_add(stolen.len() as u64, Ordering::Relaxed);
        }
        stolen
    }
}

/// Fold one window's per-shard seals into a single [`SealedWindow`],
/// in ascending shard order (see the module docs for why the result
/// is bit-identical to a single-worker seal), and seal its synopses.
///
/// This is the one place a window's synopses are sealed: the server
/// merges each worker group's seals here and the simulator merges its
/// one-shard groups' seals, so one part takes the same code path as
/// many. Merging one partial is the identity up to row order: a
/// thief's part can hold its own and stolen tuples interleaved out of
/// arrival order, so rows re-sort on their sequence numbers whenever
/// they are out of order.
///
/// # Errors
/// Errors if `parts` is empty, the parts disagree on stream, window
/// or whether they carry synopses, some part's sequence numbers are
/// not parallel to its rows, or the synopsis kind cannot merge.
pub fn merge_sealed(mut parts: Vec<SealedWindow>) -> DtResult<SealedWindow> {
    let Some(first) = parts.first() else {
        return Err(DtError::engine("merge_sealed needs at least one shard"));
    };
    let (stream, window, has_syn) = (first.stream, first.window, first.syn.is_some());
    if parts
        .iter()
        .any(|p| p.stream != stream || p.window != window)
    {
        return Err(DtError::engine(
            "merge_sealed parts disagree on stream or window",
        ));
    }
    if parts.iter().any(|p| p.syn.is_some() != has_syn) {
        return Err(DtError::engine("merge_sealed parts disagree on synopses"));
    }
    if parts.iter().any(|p| p.seqs.len() != p.rows.len()) {
        return Err(DtError::engine(
            "merge_sealed part has sequence numbers not parallel to its rows",
        ));
    }
    parts.sort_by_key(|p| p.shard);
    let total: usize = parts.iter().map(|p| p.rows.len()).sum();
    let several = parts.len() > 1;
    let mut parts = parts.into_iter();
    let mut acc = parts.next().expect("checked non-empty");
    // Several parts always interleave, so their rows go straight into
    // one tagged vector; a lone part re-sorts only when out of order.
    let resort = several || acc.seqs.windows(2).any(|p| p[0] > p[1]);
    let mut tagged: Vec<(u64, Row)> = Vec::new();
    if resort {
        tagged.reserve_exact(total);
        tagged.extend(
            std::mem::take(&mut acc.seqs)
                .into_iter()
                .zip(std::mem::take(&mut acc.rows)),
        );
    }
    for part in parts {
        acc.arrived += part.arrived;
        acc.kept += part.kept;
        acc.dropped += part.dropped;
        acc.degraded |= part.degraded;
        tagged.extend(part.seqs.into_iter().zip(part.rows));
        if let (Some(a), Some(b)) = (&mut acc.syn, &part.syn) {
            a.kept.merge_from(&b.kept)?;
            a.dropped.merge_from(&b.dropped)?;
        }
    }
    // Each part is already near-sorted (own tuples in seq order,
    // stolen batches as short out-of-order runs), and the stable sort
    // finds and merges those runs in close to linear time. Sequence
    // numbers are unique, so the order equals any other sort's.
    if resort {
        tagged.sort_by_key(|&(seq, _)| seq);
        (acc.seqs, acc.rows) = tagged.into_iter().unzip();
    }
    if let Some(pair) = &mut acc.syn {
        pair.kept.seal();
        pair.dropped.seal();
    }
    acc.shard = 0;
    Ok(acc)
}

/// A single-threaded sharded stream: the reference model the
/// concurrent server plane mirrors, and the harness the bit-identity
/// proptest drives.
///
/// Tuples offered to [`ShardedStream::keep`] / [`ShardedStream::shed`]
/// are stamped with the stream's next ingest sequence, routed by the
/// group's [`ShardRouter`], and folded into that shard's
/// [`StreamTriage`]; seals fold the shards' windows with
/// [`merge_sealed`].
#[derive(Debug)]
pub struct ShardedStream {
    router: ShardRouter,
    shards: Vec<StreamTriage>,
    next_seq: u64,
}

impl ShardedStream {
    /// A worker group of `shards` triages for physical stream
    /// `stream` with `arity` integer columns, routing on `key_col`.
    pub fn new(
        stream: usize,
        arity: usize,
        mode: ShedMode,
        synopsis: SynopsisConfig,
        spec: WindowSpec,
        shards: usize,
        key_col: Option<usize>,
    ) -> Self {
        let shards = shards.max(1);
        ShardedStream {
            router: ShardRouter::new(shards, key_col),
            shards: (0..shards)
                .map(|i| StreamTriage::new(stream, arity, mode, synopsis, spec).sharded(i))
                .collect(),
            next_seq: 0,
        }
    }

    /// Number of shards in the group.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    fn stamp(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Admit a kept tuple: stamp, route, fold. Returns the shard it
    /// landed on.
    pub fn keep(&mut self, tuple: &Tuple) -> DtResult<usize> {
        let seq = self.stamp();
        let shard = self.router.route(&tuple.row);
        self.shards[shard].keep_seq(tuple, seq)?;
        Ok(shard)
    }

    /// Record a shed tuple: stamp, route, fold into the routed
    /// shard's dropped synopsis.
    pub fn shed(&mut self, tuple: &Tuple) -> DtResult<usize> {
        let seq = self.stamp();
        let shard = self.router.route(&tuple.row);
        self.shards[shard].shed_seq(tuple, seq)?;
        Ok(shard)
    }

    /// Route a tuple as [`ShardedStream::keep`] would, but fold it
    /// into an explicit shard — the single-threaded analog of a stolen
    /// batch landing on the thief. Output must be unaffected; the
    /// steal tests pin that.
    pub fn keep_on(&mut self, tuple: &Tuple, shard: usize) -> DtResult<()> {
        let seq = self.stamp();
        self.shards[shard].keep_seq(tuple, seq)?;
        Ok(())
    }

    /// Seal every window with id `<= upto` on every shard and fold
    /// the per-shard seals, returning one merged [`SealedWindow`] per
    /// window id in order.
    pub fn seal_through(&mut self, upto: WindowId) -> DtResult<Vec<SealedWindow>> {
        let mut per_shard: Vec<Vec<SealedWindow>> = Vec::with_capacity(self.shards.len());
        for t in &mut self.shards {
            per_shard.push(t.seal_through(upto)?);
        }
        Self::fold(per_shard)
    }

    /// Seal everything still open on any shard (every shard seals
    /// through the group-wide maximum so contributions stay aligned),
    /// returning merged windows in order.
    pub fn seal_all(&mut self) -> DtResult<Vec<SealedWindow>> {
        let last = self.shards.iter().filter_map(|t| t.max_open()).max();
        match last {
            Some(last) => self.seal_through(last),
            None => Ok(Vec::new()),
        }
    }

    fn fold(per_shard: Vec<Vec<SealedWindow>>) -> DtResult<Vec<SealedWindow>> {
        let n = per_shard.first().map_or(0, Vec::len);
        if per_shard.iter().any(|s| s.len() != n) {
            return Err(DtError::engine("shards sealed unequal window ranges"));
        }
        let mut out = Vec::with_capacity(n);
        let mut iters: Vec<_> = per_shard.into_iter().map(Vec::into_iter).collect();
        for _ in 0..n {
            let parts: Vec<SealedWindow> = iters
                .iter_mut()
                .map(|it| it.next().expect("sized"))
                .collect();
            out.push(merge_sealed(parts)?);
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_types::{Timestamp, VDuration};

    fn spec() -> WindowSpec {
        WindowSpec::new(VDuration::from_secs(1)).unwrap()
    }

    fn tup(v: i64, us: u64) -> Tuple {
        Tuple::new(Row::from_ints(&[v]), Timestamp::from_micros(us))
    }

    #[test]
    fn router_is_stable_per_key_and_covers_shards() {
        let r = ShardRouter::new(4, Some(0));
        for v in 0..100 {
            let row = Row::from_ints(&[v]);
            assert_eq!(r.route(&row), r.route(&row), "keyed routing is stable");
        }
        let hit: std::collections::BTreeSet<usize> =
            (0..100).map(|v| r.route(&Row::from_ints(&[v]))).collect();
        assert!(hit.len() > 1, "keys spread across shards: {hit:?}");
        // Keyless: round-robin cycles every shard.
        let rr = ShardRouter::new(3, None);
        let row = Row::from_ints(&[7]);
        let seq: Vec<usize> = (0..6).map(|_| rr.route(&row)).collect();
        assert_eq!(seq, vec![0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn queues_bound_and_steal_newest_half() {
        let q: ShardQueues<i32> = ShardQueues::new(2, 4);
        for v in 0..4 {
            q.push(0, v).unwrap();
        }
        assert_eq!(q.push(0, 99).unwrap_err(), 99, "full queue sheds");
        assert_eq!(q.total_depth(), 4);
        let stolen = q.steal(1, |_| true);
        assert_eq!(stolen, vec![2, 3], "newest half, order preserved");
        assert_eq!(q.depth(0), 2);
        assert_eq!(q.pop(0), Some(0));
        assert_eq!(q.steal_count(), 1);
        assert_eq!(q.stolen_items(), 2);
    }

    #[test]
    fn steal_respects_the_eligibility_filter() {
        let q: ShardQueues<i32> = ShardQueues::new(2, 16);
        for v in 0..8 {
            q.push(0, v).unwrap();
        }
        let stolen = q.steal(1, |&v| v % 2 == 0);
        assert_eq!(stolen, vec![4, 6], "only eligible items move");
        // Ineligible items remain, in order, behind the untouched head.
        let rest: Vec<i32> = std::iter::from_fn(|| q.pop(0)).collect();
        assert_eq!(rest, vec![0, 1, 2, 3, 5, 7]);
    }

    #[test]
    fn sharded_seal_matches_single_worker() {
        let cfg = SynopsisConfig::Sparse { cell_width: 10 };
        let mut single = ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), 1, Some(0));
        let mut group = ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), 4, Some(0));
        for i in 0..200u64 {
            let t = tup((i % 17) as i64, i * 4_000);
            if i % 5 == 0 {
                single.shed(&t).unwrap();
                group.shed(&t).unwrap();
            } else {
                single.keep(&t).unwrap();
                group.keep(&t).unwrap();
            }
        }
        let a = single.seal_all().unwrap();
        let b = group.seal_all().unwrap();
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rows, y.rows, "window {}", x.window);
            assert_eq!(x.seqs, y.seqs);
            assert_eq!(x.syn, y.syn);
            assert_eq!(
                (x.arrived, x.kept, x.dropped),
                (y.arrived, y.kept, y.dropped)
            );
        }
    }

    #[test]
    fn stolen_work_lands_without_loss_or_duplication() {
        let cfg = SynopsisConfig::Sparse { cell_width: 10 };
        let mut routed = ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), 4, Some(0));
        let mut stolen = ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), 4, Some(0));
        // Adversarial single-key load: everything routes to one shard.
        // The "stolen" run sprays the same tuples across all shards —
        // the single-threaded analog of batch stealing under skew.
        for i in 0..120u64 {
            let t = tup(42, i * 8_000);
            routed.keep(&t).unwrap();
            stolen.keep_on(&t, (i % 4) as usize).unwrap();
        }
        let a = routed.seal_all().unwrap();
        let b = stolen.seal_all().unwrap();
        assert_eq!(a.len(), b.len());
        let total: usize = b.iter().map(|w| w.seqs.len()).sum();
        assert_eq!(total, 120, "every tuple lands exactly once");
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.rows, y.rows);
            assert_eq!(x.seqs, y.seqs, "no batch lost or duplicated");
            assert_eq!(x.syn, y.syn);
        }
    }

    #[test]
    fn merging_one_part_restores_arrival_order() {
        // A worker that stole newer tuples before draining its own
        // older ones folds them out of sequence order; when it is the
        // only shard holding the window, the merge must still re-sort.
        let cfg = SynopsisConfig::Sparse { cell_width: 10 };
        let mut thief = StreamTriage::new(0, 1, ShedMode::DataTriage, cfg, spec()).sharded(1);
        for (v, seq) in [(3, 3), (1, 1), (4, 4), (0, 0), (2, 2)] {
            thief.keep_seq(&tup(v, 1_000 + seq), seq).unwrap();
        }
        let parts = thief.seal_all().unwrap();
        assert_eq!(parts[0].seqs, vec![3, 1, 4, 0, 2]);
        let merged = merge_sealed(parts).unwrap();
        assert_eq!(merged.seqs, vec![0, 1, 2, 3, 4]);
        let want: Vec<Row> = (0..5).map(|v| Row::from_ints(&[v])).collect();
        assert_eq!(merged.rows, want);
    }

    #[test]
    fn merge_sealed_rejects_mismatched_parts() {
        assert!(merge_sealed(Vec::new()).is_err());
        let cfg = SynopsisConfig::Sparse { cell_width: 10 };
        let mut a = ShardedStream::new(0, 1, ShedMode::DataTriage, cfg, spec(), 2, None);
        a.keep(&tup(1, 1_000)).unwrap();
        let mut b = ShardedStream::new(1, 1, ShedMode::DataTriage, cfg, spec(), 2, None);
        b.keep(&tup(1, 1_000)).unwrap();
        let wa = a.seal_all().unwrap();
        let wb = b.seal_all().unwrap();
        let err = merge_sealed(vec![wa[0].clone(), wb[0].clone()]);
        assert!(err.is_err(), "different streams must not merge");
    }

    #[test]
    fn merge_sealed_rejects_parts_that_disagree_on_synopses() {
        let cfg = SynopsisConfig::Sparse { cell_width: 10 };
        let part = |shard: usize| {
            let mut t = StreamTriage::new(0, 1, ShedMode::DataTriage, cfg, spec()).sharded(shard);
            t.keep_seq(&tup(1, 1_000 + shard as u64), shard as u64)
                .unwrap();
            t.seal_all().unwrap().pop().unwrap()
        };
        // Whichever shard lacks its pair, and wherever it sorts.
        for bare in [0, 1] {
            let mut parts = vec![part(0), part(1)];
            parts[bare].syn = None;
            assert!(merge_sealed(parts.clone()).is_err(), "bare shard {bare}");
            parts.reverse();
            assert!(merge_sealed(parts).is_err(), "bare shard {bare}, reversed");
        }
        assert!(merge_sealed(vec![part(0), part(1)]).is_ok());
    }

    #[test]
    fn merge_sealed_rejects_rows_without_sequence_numbers() {
        let cfg = SynopsisConfig::Sparse { cell_width: 10 };
        let mut t = StreamTriage::new(0, 1, ShedMode::DataTriage, cfg, spec());
        t.keep_seq(&tup(1, 1_000), 0).unwrap();
        let mut only = t.seal_all().unwrap().pop().unwrap();
        only.seqs.clear();
        assert!(merge_sealed(vec![only]).is_err(), "one part checks too");
    }
}
