//! The sparse multidimensional histogram with cubic buckets — the
//! paper's "fast synopsis".
//!
//! Values are integers (the paper's experiments draw all attributes
//! from `1..=100`). The value space of each dimension is partitioned
//! into fixed-width, globally aligned cells of `cell_width` integers;
//! a `k`-dimensional histogram stores mass only for occupied cells of
//! the `k`-dimensional grid, so memory is proportional to the number
//! of *distinct occupied cells*, not to the domain size.
//!
//! Alignment is the whole trick: two sparse histograms over the same
//! grid can be equijoined by matching cell coordinates directly —
//! linear in the number of occupied cells — instead of intersecting
//! arbitrary rectangles, which is what makes unconstrained MHIST joins
//! quadratic (see paper §5.2.2 and `crate::mhist`).

use std::borrow::Cow;
use std::collections::BTreeMap;

use dt_types::FxHashMap;

use dt_types::{DtError, DtResult};

/// A sparse grid histogram with cubic (equal-width, axis-aligned)
/// buckets.
///
/// ```
/// use dt_synopsis::SparseHist;
///
/// // Two one-dimensional histograms over a width-10 grid.
/// let mut r = SparseHist::new(1, 10)?;
/// let mut s = SparseHist::new(1, 10)?;
/// for v in [3, 7, 41] { r.insert(&[v])?; }
/// for v in [5, 44, 48] { s.insert(&[v])?; }
///
/// // Join estimate: cells 0 and 4 match; each contributes
/// // m_r · m_s / 10 under the uniformity assumption.
/// let j = r.equijoin(0, &s, 0)?;
/// assert!((j.total_mass() - (2.0 * 1.0 + 1.0 * 2.0) / 10.0).abs() < 1e-12);
/// # Ok::<(), dt_types::DtError>(())
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct SparseHist {
    dims: usize,
    cell_width: i64,
    // BTreeMap, not HashMap: deterministic iteration order makes every
    // downstream floating-point accumulation bit-reproducible run to
    // run (a stated property of this reproduction).
    cells: BTreeMap<Box<[i64]>, f64>,
    total: f64,
}

impl SparseHist {
    /// A histogram over `dims` dimensions with the given cell width
    /// (in integer value units, ≥ 1).
    pub fn new(dims: usize, cell_width: i64) -> DtResult<Self> {
        if cell_width < 1 {
            return Err(DtError::synopsis("cell width must be >= 1"));
        }
        Ok(SparseHist {
            dims,
            cell_width,
            cells: BTreeMap::new(),
            total: 0.0,
        })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.dims
    }

    /// Cell width.
    pub fn cell_width(&self) -> i64 {
        self.cell_width
    }

    /// Total mass (estimated `COUNT(*)`).
    pub fn total_mass(&self) -> f64 {
        self.total
    }

    /// Number of occupied cells — the memory footprint driver.
    pub fn num_cells(&self) -> usize {
        self.cells.len()
    }

    /// True if no mass has been inserted.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cell index of a value.
    fn cell_of(&self, v: i64) -> i64 {
        v.div_euclid(self.cell_width)
    }

    /// Insert one tuple.
    ///
    /// # Errors
    /// Errors if the point's arity differs from `dims`.
    pub fn insert(&mut self, point: &[i64]) -> DtResult<()> {
        self.insert_weighted(point, 1.0)
    }

    /// Insert `mass` tuples' worth of weight at a point.
    ///
    /// The common case — the point's cell is already occupied — does
    /// not allocate: cell coordinates are computed into a stack buffer
    /// and probed by slice before a boxed key is built for a fresh
    /// cell.
    pub fn insert_weighted(&mut self, point: &[i64], mass: f64) -> DtResult<()> {
        if point.len() != self.dims {
            return Err(DtError::synopsis(format!(
                "point arity {} != histogram dims {}",
                point.len(),
                self.dims
            )));
        }
        if mass == 0.0 {
            return Ok(());
        }
        const STACK_DIMS: usize = 8;
        let mut stack = [0i64; STACK_DIMS];
        if self.dims <= STACK_DIMS {
            for (slot, &v) in stack.iter_mut().zip(point) {
                *slot = self.cell_of(v);
            }
            let coords = &stack[..self.dims];
            match self.cells.get_mut(coords) {
                Some(cell) => *cell += mass,
                None => {
                    self.cells.insert(coords.into(), mass);
                }
            }
        } else {
            let coords: Box<[i64]> = point.iter().map(|&v| self.cell_of(v)).collect();
            *self.cells.entry(coords).or_insert(0.0) += mass;
        }
        self.total += mass;
        Ok(())
    }

    /// Insert a batch of points, equivalent to one [`SparseHist::insert`]
    /// per point (bit-identical resulting state).
    pub fn insert_batch<'a>(
        &mut self,
        points: impl IntoIterator<Item = &'a [i64]>,
    ) -> DtResult<()> {
        for p in points {
            self.insert_weighted(p, 1.0)?;
        }
        Ok(())
    }

    /// Fold another histogram's mass into this one, cell by cell.
    ///
    /// For unit-mass ingest the result is bit-identical to a single
    /// histogram that saw every point, in any order: per-cell masses
    /// and the total are integer-valued, `f64` adds integers below
    /// 2^53 exactly, and integer addition commutes. This is what lets
    /// sharded triage keep one partial histogram per shard and merge
    /// at seal without an ordering tag (contrast [`crate::MHist`],
    /// whose MAXDIFF build observes insertion order).
    ///
    /// # Errors
    /// Errors if dimensions or cell widths differ.
    pub fn merge_from(&mut self, other: &SparseHist) -> DtResult<()> {
        if self.dims != other.dims || self.cell_width != other.cell_width {
            return Err(DtError::synopsis(
                "cannot merge sparse histograms with different dims or cell width",
            ));
        }
        for (coords, &mass) in &other.cells {
            match self.cells.get_mut(coords.as_ref()) {
                Some(cell) => *cell += mass,
                None => {
                    self.cells.insert(coords.clone(), mass);
                }
            }
        }
        self.total += other.total;
        Ok(())
    }

    /// Vectorized unit-mass insert over column-wise points:
    /// `cols[d][i]` is dimension `d` of point `i`. Cell coordinates
    /// are computed column-at-a-time as pure arithmetic (a chunked,
    /// autovectorizable `div_euclid` pass), counts are grouped per
    /// cell in a hash pass, and each distinct cell touches the
    /// `BTreeMap` once.
    ///
    /// Bit-identical to one [`SparseHist::insert`] per transposed
    /// point: per-cell counts and the running total accumulate
    /// integers, which `f64` represents exactly below 2^53, so adding
    /// `k` once equals adding `1.0` `k` times. (This is why the kernel
    /// is unit-mass only — fractional masses would not commute.)
    ///
    /// # Errors
    /// Errors if `cols.len() != dims` or the columns have unequal
    /// lengths.
    pub fn insert_columns(&mut self, cols: &[Vec<i64>]) -> DtResult<()> {
        if cols.len() != self.dims {
            return Err(DtError::synopsis(format!(
                "point arity {} != histogram dims {}",
                cols.len(),
                self.dims
            )));
        }
        let n = cols.first().map_or(0, Vec::len);
        if cols.iter().any(|c| c.len() != n) {
            return Err(DtError::synopsis("column lengths differ in insert_columns"));
        }
        if n == 0 {
            return Ok(());
        }
        // Bucket-index pass: one tight loop per dimension.
        let coords: Vec<Vec<i64>> = cols
            .iter()
            .map(|col| col.iter().map(|&v| self.cell_of(v)).collect())
            .collect();
        match coords.as_slice() {
            [c0] => {
                let mut counts: FxHashMap<i64, f64> = FxHashMap::default();
                for &c in c0 {
                    *counts.entry(c).or_insert(0.0) += 1.0;
                }
                for (c, mass) in counts {
                    match self.cells.get_mut(&[c][..]) {
                        Some(cell) => *cell += mass,
                        None => {
                            self.cells.insert(Box::new([c]), mass);
                        }
                    }
                }
            }
            [c0, c1] => {
                let mut counts: FxHashMap<(i64, i64), f64> = FxHashMap::default();
                for (&a, &b) in c0.iter().zip(c1) {
                    *counts.entry((a, b)).or_insert(0.0) += 1.0;
                }
                for ((a, b), mass) in counts {
                    match self.cells.get_mut(&[a, b][..]) {
                        Some(cell) => *cell += mass,
                        None => {
                            self.cells.insert(Box::new([a, b]), mass);
                        }
                    }
                }
            }
            _ => {
                let mut counts: FxHashMap<Box<[i64]>, f64> = FxHashMap::default();
                let mut key: Vec<i64> = Vec::with_capacity(self.dims);
                for i in 0..n {
                    key.clear();
                    key.extend(coords.iter().map(|c| c[i]));
                    match counts.get_mut(key.as_slice()) {
                        Some(mass) => *mass += 1.0,
                        None => {
                            counts.insert(key.as_slice().into(), 1.0);
                        }
                    }
                }
                for (key, mass) in counts {
                    match self.cells.get_mut(&*key) {
                        Some(cell) => *cell += mass,
                        None => {
                            self.cells.insert(key, mass);
                        }
                    }
                }
            }
        }
        self.total += n as f64;
        Ok(())
    }

    /// Add mass directly at cell coordinates (used by the relational
    /// operations below).
    fn add_cell(&mut self, coords: Box<[i64]>, mass: f64) {
        if mass == 0.0 {
            return;
        }
        *self.cells.entry(coords).or_insert(0.0) += mass;
        self.total += mass;
    }

    /// [`SparseHist::add_cell`] probing by slice first: occupied cells
    /// take no allocation, fresh cells box the coordinates once.
    fn add_mass(&mut self, coords: &[i64], mass: f64) {
        if mass == 0.0 {
            return;
        }
        match self.cells.get_mut(coords) {
            Some(cell) => *cell += mass,
            None => {
                self.cells.insert(coords.into(), mass);
            }
        }
        self.total += mass;
    }

    /// Iterate `(cell coordinates, mass)`.
    pub fn iter_cells(&self) -> impl Iterator<Item = (&[i64], f64)> {
        self.cells.iter().map(|(c, &m)| (c.as_ref(), m))
    }

    /// π: project onto the given dimensions (mass sums over the
    /// dropped coordinates). Dimensions may be repeated or reordered.
    pub fn project(&self, keep: &[usize]) -> DtResult<SparseHist> {
        for &d in keep {
            if d >= self.dims {
                return Err(DtError::synopsis(format!(
                    "projection dim {d} out of range for {} dims",
                    self.dims
                )));
            }
        }
        let mut out = SparseHist::new(keep.len(), self.cell_width)?;
        for (coords, mass) in self.iter_cells() {
            let c: Box<[i64]> = keep.iter().map(|&d| coords[d]).collect();
            out.add_cell(c, mass);
        }
        Ok(out)
    }

    /// `UNION ALL`: masses add. Requires identical dimensionality and
    /// grid.
    pub fn union_all(&self, other: &SparseHist) -> DtResult<SparseHist> {
        if self.dims != other.dims {
            return Err(DtError::synopsis(format!(
                "union of {}-dim and {}-dim histograms",
                self.dims, other.dims
            )));
        }
        if self.cell_width != other.cell_width {
            return Err(DtError::synopsis(
                "union of histograms with different grids",
            ));
        }
        let mut out = self.clone();
        for (coords, mass) in other.iter_cells() {
            out.add_mass(coords, mass);
        }
        Ok(out)
    }

    /// Equijoin on `self`'s dimension `self_dim` = `other`'s dimension
    /// `other_dim`.
    ///
    /// Cells match when their coordinates on the join dimensions are
    /// equal (the grids are aligned). Under the uniform-frequency
    /// assumption, two values uniform in the same width-`w` cell are
    /// equal with probability `1/w`, so the matched pair contributes
    /// `m_s · m_t / w`. The result keeps `self`'s dimensions in order
    /// followed by `other`'s with `other_dim` removed (its coordinate
    /// is redundant: it equals `self_dim`'s).
    ///
    /// Cost: linear in occupied cells (hash match on the join
    /// coordinate) — this is the property that makes the shadow query
    /// cheap (paper Fig. 6, "fast synopsis").
    pub fn equijoin(
        &self,
        self_dim: usize,
        other: &SparseHist,
        other_dim: usize,
    ) -> DtResult<SparseHist> {
        if self_dim >= self.dims || other_dim >= other.dims {
            return Err(DtError::synopsis("join dimension out of range"));
        }
        if self.cell_width != other.cell_width {
            return Err(DtError::synopsis("join of histograms with different grids"));
        }
        let w = self.cell_width as f64;
        // Index other's cells by their join coordinate.
        let mut index: FxHashMap<i64, Vec<(&[i64], f64)>> = FxHashMap::default();
        for (coords, mass) in other.iter_cells() {
            index
                .entry(coords[other_dim])
                .or_default()
                .push((coords, mass));
        }
        let mut out = SparseHist::new(self.dims + other.dims - 1, self.cell_width)?;
        let mut scratch: Vec<i64> = Vec::with_capacity(self.dims + other.dims - 1);
        for (scoords, smass) in self.iter_cells() {
            let Some(matches) = index.get(&scoords[self_dim]) else {
                continue;
            };
            for &(tcoords, tmass) in matches {
                scratch.clear();
                scratch.extend_from_slice(scoords);
                for (d, &tc) in tcoords.iter().enumerate() {
                    if d != other_dim {
                        scratch.push(tc);
                    }
                }
                out.add_mass(&scratch, smass * tmass / w);
            }
        }
        Ok(out)
    }

    /// Would inserting this point land in an already-occupied cell?
    /// (Used by the "synergistic" drop policy of paper §8.1: such a
    /// victim is summarized at zero marginal memory cost.)
    pub fn covers(&self, point: &[i64]) -> bool {
        if point.len() != self.dims {
            return false;
        }
        let coords: Box<[i64]> = point.iter().map(|&v| self.cell_of(v)).collect();
        self.cells.contains_key(&coords)
    }

    /// Coarsen the grid by an integer factor: the new cell width is
    /// `cell_width × factor` and every `factor^dims` block of old
    /// cells merges into one. Mass is conserved exactly. This is the
    /// primitive behind the adaptive, memory-bounded synopsis: halve
    /// the resolution whenever the cell budget is exceeded.
    pub fn coarsen(&self, factor: i64) -> DtResult<SparseHist> {
        if factor < 1 {
            return Err(DtError::synopsis("coarsening factor must be >= 1"));
        }
        if factor == 1 {
            return Ok(self.clone());
        }
        let width = self
            .cell_width
            .checked_mul(factor)
            .ok_or_else(|| DtError::synopsis("coarsened cell width overflows i64"))?;
        let mut out = SparseHist::new(self.dims, width)?;
        for (coords, mass) in self.iter_cells() {
            let c: Box<[i64]> = coords.iter().map(|&v| v.div_euclid(factor)).collect();
            out.add_cell(c, mass);
        }
        Ok(out)
    }

    /// Bring two histograms onto one grid: the finer is coarsened to
    /// the coarser width, the other is borrowed as is. Exact when the
    /// widths divide, which holds for adaptive histograms sharing a
    /// base width (theirs are `base × 2^k`).
    ///
    /// # Errors
    /// Errors if neither width is a multiple of the other.
    pub(crate) fn harmonize<'a, 'b>(
        a: &'a SparseHist,
        b: &'b SparseHist,
    ) -> DtResult<(Cow<'a, SparseHist>, Cow<'b, SparseHist>)> {
        let (wa, wb) = (a.cell_width, b.cell_width);
        let (fine_w, coarse_w) = (wa.min(wb), wa.max(wb));
        if coarse_w % fine_w != 0 {
            return Err(DtError::synopsis(format!(
                "cannot harmonize grids of widths {fine_w} and {coarse_w} (not integer multiples)"
            )));
        }
        let factor = coarse_w / fine_w;
        Ok(if wa < wb {
            (Cow::Owned(a.coarsen(factor)?), Cow::Borrowed(b))
        } else {
            (Cow::Borrowed(a), Cow::Owned(b.coarsen(factor)?))
        })
    }

    /// Cross product ×: cell pairs concatenate, masses multiply.
    pub fn cross(&self, other: &SparseHist) -> DtResult<SparseHist> {
        if self.cell_width != other.cell_width {
            return Err(DtError::synopsis(
                "cross of histograms with different grids",
            ));
        }
        let mut out = SparseHist::new(self.dims + other.dims, self.cell_width)?;
        let mut scratch: Vec<i64> = Vec::with_capacity(self.dims + other.dims);
        for (sc, sm) in self.iter_cells() {
            for (tc, tm) in other.iter_cells() {
                scratch.clear();
                scratch.extend_from_slice(sc);
                scratch.extend_from_slice(tc);
                out.add_mass(&scratch, sm * tm);
            }
        }
        Ok(out)
    }

    /// σ on an inclusive integer range of one dimension: cells fully
    /// inside keep their mass; cells partially overlapping are scaled
    /// by the fraction of their `cell_width` integer values that fall
    /// in the range (uniformity assumption).
    pub fn select_range(&self, dim: usize, lo: i64, hi: i64) -> DtResult<SparseHist> {
        if dim >= self.dims {
            return Err(DtError::synopsis("selection dim out of range"));
        }
        let w = self.cell_width;
        let mut out = SparseHist::new(self.dims, w)?;
        for (coords, mass) in self.iter_cells() {
            let cell_lo = coords[dim] * w;
            let cell_hi = cell_lo + w - 1;
            let ov_lo = cell_lo.max(lo);
            let ov_hi = cell_hi.min(hi);
            if ov_lo > ov_hi {
                continue;
            }
            let frac = (ov_hi - ov_lo + 1) as f64 / w as f64;
            out.add_mass(coords, mass * frac);
        }
        Ok(out)
    }

    /// Estimated per-integer-value counts along one dimension — the
    /// estimator behind `GROUP BY <col>` + `COUNT(*)`. Each cell
    /// spreads its mass uniformly over its `cell_width` integer values.
    pub fn group_counts(&self, dim: usize) -> DtResult<FxHashMap<i64, f64>> {
        if dim >= self.dims {
            return Err(DtError::synopsis("group dim out of range"));
        }
        let w = self.cell_width;
        let mut out: FxHashMap<i64, f64> = FxHashMap::default();
        for (coords, mass) in self.iter_cells() {
            let base = coords[dim] * w;
            let per_value = mass / w as f64;
            for v in base..base + w {
                *out.entry(v).or_insert(0.0) += per_value;
            }
        }
        Ok(out)
    }

    /// Estimated per-group `SUM(sum_dim)`: each cell contributes its
    /// mass times the midpoint of `sum_dim`'s cell interval, spread
    /// uniformly over the group dimension's values.
    pub fn group_sums(&self, group_dim: usize, sum_dim: usize) -> DtResult<FxHashMap<i64, f64>> {
        if group_dim >= self.dims || sum_dim >= self.dims {
            return Err(DtError::synopsis("group/sum dim out of range"));
        }
        let w = self.cell_width;
        let mut out: FxHashMap<i64, f64> = FxHashMap::default();
        for (coords, mass) in self.iter_cells() {
            let sum_mid = (coords[sum_dim] * w) as f64 + (w - 1) as f64 / 2.0;
            let base = coords[group_dim] * w;
            let per_value = mass / w as f64;
            for v in base..base + w {
                *out.entry(v).or_insert(0.0) += per_value * sum_mid;
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hist1(w: i64, points: &[i64]) -> SparseHist {
        let mut h = SparseHist::new(1, w).unwrap();
        for &p in points {
            h.insert(&[p]).unwrap();
        }
        h
    }

    #[test]
    fn rejects_bad_config_and_arity() {
        assert!(SparseHist::new(1, 0).is_err());
        let mut h = SparseHist::new(2, 5).unwrap();
        assert!(h.insert(&[1]).is_err());
        assert!(h.insert(&[1, 2, 3]).is_err());
        assert!(h.insert(&[1, 2]).is_ok());
    }

    #[test]
    fn insert_accumulates_mass() {
        let h = hist1(10, &[1, 2, 11, 99]);
        assert_eq!(h.total_mass(), 4.0);
        assert_eq!(h.num_cells(), 3); // cells 0, 1, 9
    }

    #[test]
    fn negative_values_use_euclidean_cells() {
        let h = hist1(10, &[-1, -10, 0]);
        // -1 -> cell -1, -10 -> cell -1, 0 -> cell 0.
        assert_eq!(h.num_cells(), 2);
    }

    #[test]
    fn project_sums_dropped_dims() {
        let mut h = SparseHist::new(2, 10).unwrap();
        h.insert(&[5, 5]).unwrap();
        h.insert(&[5, 95]).unwrap();
        let p = h.project(&[0]).unwrap();
        assert_eq!(p.dims(), 1);
        assert_eq!(p.num_cells(), 1);
        assert_eq!(p.total_mass(), 2.0);
        assert!(h.project(&[7]).is_err());
    }

    #[test]
    fn project_can_reorder_and_duplicate() {
        let mut h = SparseHist::new(2, 1).unwrap();
        h.insert(&[3, 4]).unwrap();
        let p = h.project(&[1, 0, 1]).unwrap();
        assert_eq!(p.dims(), 3);
        let cells: Vec<_> = p.iter_cells().collect();
        assert_eq!(cells[0].0, &[4, 3, 4]);
    }

    #[test]
    fn union_adds() {
        let a = hist1(10, &[1, 2]);
        let b = hist1(10, &[2, 50]);
        let u = a.union_all(&b).unwrap();
        assert_eq!(u.total_mass(), 4.0);
        assert_eq!(u.num_cells(), 2);
        let c = hist1(5, &[1]);
        assert!(a.union_all(&c).is_err());
        let d = SparseHist::new(2, 10).unwrap();
        assert!(a.union_all(&d).is_err());
    }

    #[test]
    fn equijoin_width_one_is_exact() {
        // With w = 1, cells are single values: the estimate is exact.
        let a = hist1(1, &[1, 1, 2]);
        let b = hist1(1, &[1, 3]);
        let j = a.equijoin(0, &b, 0).unwrap();
        // 2 copies of value 1 join 1 copy of value 1 => mass 2.
        assert_eq!(j.total_mass(), 2.0);
        assert_eq!(j.dims(), 1);
        let counts = j.group_counts(0).unwrap();
        assert_eq!(counts[&1], 2.0);
    }

    #[test]
    fn equijoin_mass_scales_by_inverse_width() {
        let a = hist1(10, &[5]); // 1 tuple in cell 0
        let b = hist1(10, &[7]); // 1 tuple in cell 0
        let j = a.equijoin(0, &b, 0).unwrap();
        // Expected matches under uniformity: 1 * 1 / 10.
        assert!((j.total_mass() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn equijoin_combines_dims() {
        let mut a = SparseHist::new(2, 1).unwrap(); // (x, k)
        a.insert(&[10, 1]).unwrap();
        let mut b = SparseHist::new(2, 1).unwrap(); // (k, y)
        b.insert(&[1, 20]).unwrap();
        let j = a.equijoin(1, &b, 0).unwrap();
        assert_eq!(j.dims(), 3); // (x, k, y)
        let cells: Vec<_> = j.iter_cells().collect();
        assert_eq!(cells[0].0, &[10, 1, 20]);
        assert_eq!(cells[0].1, 1.0);
    }

    #[test]
    fn equijoin_no_match_is_empty() {
        let a = hist1(1, &[1]);
        let b = hist1(1, &[2]);
        assert!(a.equijoin(0, &b, 0).unwrap().is_empty());
    }

    #[test]
    fn equijoin_checks_dims_and_grid() {
        let a = hist1(1, &[1]);
        let b = hist1(2, &[1]);
        assert!(a.equijoin(0, &b, 0).is_err()); // grid mismatch
        assert!(a.equijoin(1, &hist1(1, &[1]), 0).is_err()); // dim oob
    }

    #[test]
    fn select_range_full_and_partial() {
        let h = hist1(10, &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]); // 10 tuples, cell 0
                                                            // Full cell.
        let full = h.select_range(0, 0, 9).unwrap();
        assert_eq!(full.total_mass(), 10.0);
        // Half the cell's values.
        let half = h.select_range(0, 0, 4).unwrap();
        assert!((half.total_mass() - 5.0).abs() < 1e-12);
        // Disjoint.
        assert!(h.select_range(0, 100, 200).unwrap().is_empty());
        assert!(h.select_range(1, 0, 1).is_err());
    }

    #[test]
    fn group_counts_spread_uniformly() {
        let h = hist1(4, &[0, 1]); // 2 tuples in cell 0 = values 0..=3
        let g = h.group_counts(0).unwrap();
        assert_eq!(g.len(), 4);
        for v in 0..4 {
            assert!((g[&v] - 0.5).abs() < 1e-12);
        }
        assert!(h.group_counts(3).is_err());
    }

    #[test]
    fn group_sums_use_midpoint() {
        let mut h = SparseHist::new(2, 1).unwrap();
        h.insert(&[7, 40]).unwrap();
        h.insert(&[7, 42]).unwrap();
        let sums = h.group_sums(0, 1).unwrap();
        // Width 1: midpoints are the exact values.
        assert!((sums[&7] - 82.0).abs() < 1e-12);
    }

    #[test]
    fn coarsen_conserves_mass_and_merges_cells() {
        let h = hist1(5, &[0, 3, 7, 12, 49]);
        // Cells at width 5: 0, 1, 2, 9 -> 4 cells.
        assert_eq!(h.num_cells(), 4);
        let c = h.coarsen(2).unwrap();
        assert_eq!(c.cell_width(), 10);
        // Width 10 cells: 0 (from 0,3,7), 1 (12), 4 (49) -> 3 cells.
        assert_eq!(c.num_cells(), 3);
        assert_eq!(c.total_mass(), h.total_mass());
        // Identity and error cases.
        assert_eq!(h.coarsen(1).unwrap(), h);
        assert!(h.coarsen(0).is_err());
        assert!(h.coarsen(i64::MAX).is_err(), "width overflow errs");
    }

    #[test]
    fn coarsen_handles_negative_cells() {
        let h = hist1(1, &[-3, -1, 2]);
        let c = h.coarsen(4).unwrap();
        assert_eq!(c.total_mass(), 3.0);
        // -3,-1 -> cell -1 at width 4; 2 -> cell 0.
        assert_eq!(c.num_cells(), 2);
    }

    #[test]
    fn insert_weighted_fractional() {
        let mut h = SparseHist::new(1, 1).unwrap();
        h.insert_weighted(&[3], 0.25).unwrap();
        h.insert_weighted(&[3], 0.25).unwrap();
        assert!((h.total_mass() - 0.5).abs() < 1e-12);
        assert_eq!(h.num_cells(), 1);
    }
}
