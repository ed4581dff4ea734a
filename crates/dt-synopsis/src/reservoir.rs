//! Reservoir-sample synopses.
//!
//! The paper's §8.1 lists "additional types of synopsis data
//! structures" as future work; a uniform sample is the natural first
//! candidate and doubles as an ablation baseline (`A1` in DESIGN.md).
//! A sample supports every relational operation the shadow plan needs,
//! but joining two *independent* samples famously underestimates join
//! results (Chaudhuri et al., cited in the paper's related work) — the
//! ablation bench makes that visible.
//!
//! A sampling reservoir is a *bottom-k* sample: each insert carries an
//! arrival tag, gets the deterministic priority `splitmix64(seed,
//! tag)`, and the sample retains the `capacity` rows with the smallest
//! `(priority, tag)` keys. That is a simple random sample without
//! replacement whose content is a pure function of the inserted `(row,
//! tag)` *set* — independent of insertion order and of how inserts
//! were partitioned across shards — so per-shard partials merge
//! exactly. Each retained row represents `seen / kept` source tuples.
//! The relational operations produce *frozen weighted samples* — plain
//! weighted row sets that are no longer sampled into.

use dt_types::{DtError, DtResult};

/// Deterministic 64-bit mix (splitmix64 finalizer) mapping an arrival
/// tag to a sampling priority.
fn priority_of(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A uniform bottom-k reservoir sample with deterministic (seeded)
/// priorities (see the module docs).
#[derive(Debug, Clone)]
pub struct ReservoirSample {
    dims: usize,
    capacity: usize,
    /// `(row, weight)`. While sampling, weights are 1 and the scale
    /// factor `seen / rows.len()` is applied at read time; after a
    /// relational operation, weights are explicit and `seen` equals
    /// their sum.
    rows: Vec<(Box<[i64]>, f64)>,
    /// Total source mass represented.
    seen: f64,
    /// `true` until a relational operation freezes the sample.
    sampling: bool,
    /// Priority seed, kept so merges can check compatibility.
    seed: u64,
    /// The retained `(priority, tag)` keys, sorted ascending and
    /// parallel to `rows` (empty once frozen).
    keys: Vec<(u64, u64)>,
    /// Some insert came without a tag and was tagged with its arrival
    /// index. Such tags are not known to be unique across samples, so
    /// the sample refuses to merge.
    untagged: bool,
}

impl ReservoirSample {
    /// A reservoir over `dims` dimensions holding at most `capacity`
    /// rows, with a deterministic seed.
    pub fn new(dims: usize, capacity: usize, seed: u64) -> DtResult<Self> {
        if capacity == 0 {
            return Err(DtError::synopsis("reservoir capacity must be >= 1"));
        }
        Ok(ReservoirSample {
            dims,
            capacity,
            rows: Vec::new(),
            seen: 0.0,
            sampling: true,
            seed,
            keys: Vec::new(),
            untagged: false,
        })
    }

    /// A frozen weighted sample (the output form of relational ops).
    fn from_weighted(dims: usize, capacity: usize, rows: Vec<(Box<[i64]>, f64)>) -> Self {
        let seen = rows.iter().map(|(_, w)| w).sum();
        ReservoirSample {
            dims,
            capacity,
            rows,
            seen,
            sampling: false,
            seed: 0,
            keys: Vec::new(),
            untagged: false,
        }
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Number of retained rows.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Estimated total source mass (`COUNT(*)`).
    pub fn total_mass(&self) -> f64 {
        self.seen
    }

    /// True if nothing has been seen.
    pub fn is_empty(&self) -> bool {
        self.seen == 0.0
    }

    /// Insert one tuple without a tag: it is tagged with its arrival
    /// index (the number of tuples seen before it), and the sample no
    /// longer merges. Errors if this sample is the frozen output of a
    /// relational operation.
    pub fn insert(&mut self, point: &[i64]) -> DtResult<()> {
        let tag = self.seen as u64;
        self.insert_tagged(point, tag)?;
        self.untagged = true;
        Ok(())
    }

    /// Insert one tuple carrying an arrival tag, which determines the
    /// row's retention priority (see the module docs).
    pub fn insert_tagged(&mut self, point: &[i64], tag: u64) -> DtResult<()> {
        if !self.sampling {
            return Err(DtError::synopsis("cannot insert into a frozen sample"));
        }
        if point.len() != self.dims {
            return Err(DtError::synopsis(format!(
                "point arity {} != sample dims {}",
                point.len(),
                self.dims
            )));
        }
        self.seen += 1.0;
        let key = (priority_of(self.seed, tag), tag);
        if self.keys.len() == self.capacity {
            match self.keys.last() {
                Some(&last) if key < last => {
                    self.keys.pop();
                    self.rows.pop();
                }
                _ => return Ok(()),
            }
        }
        let at = self.keys.partition_point(|&k| k < key);
        self.keys.insert(at, key);
        self.rows.insert(at, (point.into(), 1.0));
        Ok(())
    }

    /// Fold another sample into this one: the union of the retained
    /// sets, re-truncated to the `capacity` smallest `(priority, tag)`
    /// keys.
    ///
    /// Because each partial sample retains its shard's bottom
    /// `capacity` keys, the union is a superset of the global bottom
    /// `capacity` — so the merged sample equals what a single sample
    /// over the whole stream would retain, regardless of partitioning.
    ///
    /// # Errors
    /// Errors unless both samples are unfrozen, took only tagged
    /// inserts, and share dims, capacity, and seed.
    pub fn merge_from(&mut self, other: &ReservoirSample) -> DtResult<()> {
        if self.untagged || other.untagged {
            return Err(DtError::synopsis("reservoir merge requires tagged inserts"));
        }
        if !self.sampling || !other.sampling {
            return Err(DtError::synopsis("cannot merge frozen samples"));
        }
        if self.dims != other.dims || self.capacity != other.capacity || self.seed != other.seed {
            return Err(DtError::synopsis(
                "cannot merge reservoirs with different dims, capacity, or seed",
            ));
        }
        // One retained entry: the (priority, tag) sort key + its row.
        type KeyedRow = ((u64, u64), (Box<[i64]>, f64));
        let mut all: Vec<KeyedRow> = std::mem::take(&mut self.keys)
            .into_iter()
            .zip(std::mem::take(&mut self.rows))
            .chain(other.keys.iter().copied().zip(other.rows.iter().cloned()))
            .collect();
        all.sort_unstable_by_key(|&(k, _)| k);
        all.truncate(self.capacity);
        (self.keys, self.rows) = all.into_iter().unzip();
        self.seen += other.seen;
        Ok(())
    }

    /// The retained rows with their effective (scaled) weights.
    pub fn weighted_rows(&self) -> impl Iterator<Item = (&[i64], f64)> {
        let scale = if self.sampling && !self.rows.is_empty() {
            self.seen / self.rows.len() as f64
        } else {
            1.0
        };
        self.rows.iter().map(move |(r, w)| (r.as_ref(), w * scale))
    }

    /// π onto the given dimensions.
    pub fn project(&self, keep: &[usize]) -> DtResult<ReservoirSample> {
        for &d in keep {
            if d >= self.dims {
                return Err(DtError::synopsis("projection dim out of range"));
            }
        }
        let rows = self
            .weighted_rows()
            .map(|(r, w)| {
                let nr: Box<[i64]> = keep.iter().map(|&d| r[d]).collect();
                (nr, w)
            })
            .collect();
        Ok(ReservoirSample::from_weighted(
            keep.len(),
            self.capacity,
            rows,
        ))
    }

    /// `UNION ALL`: concatenate weighted rows.
    pub fn union_all(&self, other: &ReservoirSample) -> DtResult<ReservoirSample> {
        if self.dims != other.dims {
            return Err(DtError::synopsis("union of samples with different dims"));
        }
        let mut rows: Vec<(Box<[i64]>, f64)> =
            self.weighted_rows().map(|(r, w)| (r.into(), w)).collect();
        rows.extend(other.weighted_rows().map(|(r, w)| (Box::from(r), w)));
        Ok(ReservoirSample::from_weighted(
            self.dims,
            self.capacity.max(other.capacity),
            rows,
        ))
    }

    /// Equijoin on `self_dim = other_dim`: hash join of the retained
    /// rows, weights multiplying. (Samples of joins ≠ joins of
    /// samples; expect underestimation — see module docs.)
    pub fn equijoin(
        &self,
        self_dim: usize,
        other: &ReservoirSample,
        other_dim: usize,
    ) -> DtResult<ReservoirSample> {
        if self_dim >= self.dims || other_dim >= other.dims {
            return Err(DtError::synopsis("join dimension out of range"));
        }
        let mut index: dt_types::FxHashMap<i64, Vec<(&[i64], f64)>> = Default::default();
        for (r, w) in other.weighted_rows() {
            index.entry(r[other_dim]).or_default().push((r, w));
        }
        let mut rows: Vec<(Box<[i64]>, f64)> = Vec::new();
        for (r, w) in self.weighted_rows() {
            if let Some(matches) = index.get(&r[self_dim]) {
                for &(t, tw) in matches {
                    let mut nr = Vec::with_capacity(self.dims + other.dims - 1);
                    nr.extend_from_slice(r);
                    for (d, &v) in t.iter().enumerate() {
                        if d != other_dim {
                            nr.push(v);
                        }
                    }
                    // Each matched pair represents w · tw source pairs,
                    // but only `1/max(scale)`… the unbiased correction
                    // for sampled joins is an open problem; we use the
                    // plain product, documenting the bias.
                    rows.push((nr.into_boxed_slice(), w * tw / self.join_correction(other)));
                }
            }
        }
        Ok(ReservoirSample::from_weighted(
            self.dims + other.dims - 1,
            self.capacity.max(other.capacity),
            rows,
        ))
    }

    /// Correction factor for sampled joins.
    ///
    /// If both operands are unfrozen unit-weight reservoirs, each
    /// *matching pair* of sampled rows was observed with probability
    /// `(kept_s/seen_s)·(kept_t/seen_t)`, and the plain product of
    /// effective weights `(seen_s/kept_s)·(seen_t/kept_t)` is exactly
    /// the Horvitz–Thompson estimate — correction 1. The hook exists so
    /// alternative estimators can be slotted in; it currently returns 1.
    fn join_correction(&self, _other: &ReservoirSample) -> f64 {
        1.0
    }

    /// Is an identical row already retained? Used by the synergistic
    /// drop policy.
    pub fn covers(&self, point: &[i64]) -> bool {
        point.len() == self.dims && self.rows.iter().any(|(r, _)| r.as_ref() == point)
    }

    /// Cross product ×: row pairs concatenate, weights multiply.
    pub fn cross(&self, other: &ReservoirSample) -> DtResult<ReservoirSample> {
        let mut rows: Vec<(Box<[i64]>, f64)> = Vec::new();
        for (r, w) in self.weighted_rows() {
            for (t, tw) in other.weighted_rows() {
                let mut nr = Vec::with_capacity(self.dims + other.dims);
                nr.extend_from_slice(r);
                nr.extend_from_slice(t);
                rows.push((nr.into_boxed_slice(), w * tw));
            }
        }
        Ok(ReservoirSample::from_weighted(
            self.dims + other.dims,
            self.capacity.max(other.capacity),
            rows,
        ))
    }

    /// σ on an inclusive integer range.
    pub fn select_range(&self, dim: usize, lo: i64, hi: i64) -> DtResult<ReservoirSample> {
        if dim >= self.dims {
            return Err(DtError::synopsis("selection dim out of range"));
        }
        let rows = self
            .weighted_rows()
            .filter(|(r, _)| r[dim] >= lo && r[dim] <= hi)
            .map(|(r, w)| (Box::from(r), w))
            .collect();
        Ok(ReservoirSample::from_weighted(
            self.dims,
            self.capacity,
            rows,
        ))
    }

    /// Estimated per-value counts along one dimension.
    pub fn group_counts(&self, dim: usize) -> DtResult<dt_types::FxHashMap<i64, f64>> {
        if dim >= self.dims {
            return Err(DtError::synopsis("group dim out of range"));
        }
        let mut out = dt_types::FxHashMap::default();
        for (r, w) in self.weighted_rows() {
            *out.entry(r[dim]).or_insert(0.0) += w;
        }
        Ok(out)
    }

    /// Estimated per-group `SUM(sum_dim)`.
    pub fn group_sums(
        &self,
        group_dim: usize,
        sum_dim: usize,
    ) -> DtResult<dt_types::FxHashMap<i64, f64>> {
        if group_dim >= self.dims || sum_dim >= self.dims {
            return Err(DtError::synopsis("group/sum dim out of range"));
        }
        let mut out = dt_types::FxHashMap::default();
        for (r, w) in self.weighted_rows() {
            *out.entry(r[group_dim]).or_insert(0.0) += w * r[sum_dim] as f64;
        }
        Ok(out)
    }
}

impl PartialEq for ReservoirSample {
    fn eq(&self, other: &Self) -> bool {
        self.dims == other.dims
            && self.capacity == other.capacity
            && self.rows == other.rows
            && self.seen == other.seen
            && self.sampling == other.sampling
            && self.keys == other.keys
            && self.untagged == other.untagged
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample1(cap: usize, points: &[i64]) -> ReservoirSample {
        let mut s = ReservoirSample::new(1, cap, 42).unwrap();
        for &p in points {
            s.insert(&[p]).unwrap();
        }
        s
    }

    #[test]
    fn rejects_bad_config_and_arity() {
        assert!(ReservoirSample::new(1, 0, 0).is_err());
        let mut s = ReservoirSample::new(2, 4, 0).unwrap();
        assert!(s.insert(&[1]).is_err());
        assert!(s.insert(&[1, 2]).is_ok());
    }

    #[test]
    fn under_capacity_keeps_everything() {
        let s = sample1(10, &[1, 2, 3]);
        assert_eq!(s.num_rows(), 3);
        assert_eq!(s.total_mass(), 3.0);
        // Scale 1: weights are exact.
        let total: f64 = s.weighted_rows().map(|(_, w)| w).sum();
        assert!((total - 3.0).abs() < 1e-12);
    }

    #[test]
    fn over_capacity_bounds_rows_and_scales() {
        let pts: Vec<i64> = (0..1000).collect();
        let s = sample1(50, &pts);
        assert_eq!(s.num_rows(), 50);
        assert_eq!(s.total_mass(), 1000.0);
        let total: f64 = s.weighted_rows().map(|(_, w)| w).sum();
        assert!((total - 1000.0).abs() < 1e-9);
    }

    #[test]
    fn deterministic_given_seed() {
        let a = sample1(5, &(0..100).collect::<Vec<_>>());
        let b = sample1(5, &(0..100).collect::<Vec<_>>());
        assert_eq!(a, b);
    }

    #[test]
    fn group_counts_estimate_uniform() {
        // 200 tuples of each of 4 values; with a large sample the
        // per-value estimates should be near 200.
        let mut pts = Vec::new();
        for v in 0..4 {
            pts.extend(std::iter::repeat_n(v, 200));
        }
        let s = sample1(400, &pts);
        let g = s.group_counts(0).unwrap();
        for v in 0..4 {
            let est = g.get(&v).copied().unwrap_or(0.0);
            assert!((est - 200.0).abs() < 80.0, "value {v}: {est}");
        }
    }

    #[test]
    fn equijoin_exact_when_unsampled() {
        let a = sample1(100, &[1, 1, 2]);
        let b = sample1(100, &[1, 3]);
        let j = a.equijoin(0, &b, 0).unwrap();
        assert!((j.total_mass() - 2.0).abs() < 1e-12);
        assert_eq!(j.dims(), 1);
    }

    #[test]
    fn union_concatenates_weighted() {
        let a = sample1(10, &[1]);
        let b = sample1(10, &[2, 3]);
        let u = a.union_all(&b).unwrap();
        assert!((u.total_mass() - 3.0).abs() < 1e-12);
        let c = ReservoirSample::new(2, 4, 0).unwrap();
        assert!(a.union_all(&c).is_err());
    }

    #[test]
    fn frozen_sample_rejects_insert() {
        let a = sample1(10, &[1]);
        let mut p = a.project(&[0]).unwrap();
        assert!(p.insert(&[5]).is_err());
    }

    #[test]
    fn select_range_filters() {
        let s = sample1(100, &[1, 5, 9]);
        let f = s.select_range(0, 2, 8).unwrap();
        assert!((f.total_mass() - 1.0).abs() < 1e-12);
        assert!(s.select_range(1, 0, 1).is_err());
    }

    #[test]
    fn group_sums() {
        let mut s = ReservoirSample::new(2, 10, 0).unwrap();
        s.insert(&[7, 40]).unwrap();
        s.insert(&[7, 2]).unwrap();
        let sums = s.group_sums(0, 1).unwrap();
        assert!((sums[&7] - 42.0).abs() < 1e-12);
    }

    #[test]
    fn project_reorders() {
        let mut s = ReservoirSample::new(2, 10, 0).unwrap();
        s.insert(&[1, 2]).unwrap();
        let p = s.project(&[1, 0]).unwrap();
        let rows: Vec<_> = p.weighted_rows().collect();
        assert_eq!(rows[0].0, &[2, 1]);
        assert!(s.project(&[9]).is_err());
    }
}
