//! The unified [`Synopsis`] type used by triage queues and shadow
//! query plans.
//!
//! The paper implements synopses as an object-relational datatype with
//! user-defined functions (`project`, `union_all`, `equijoin`, …) and
//! evaluates the shadow query as SQL over that datatype. Our analog is
//! this enum: one closed set of operations, four interchangeable
//! structures, chosen per run by [`SynopsisConfig`]. Binary operations
//! require both operands to share a structure (each experiment picks
//! one synopsis datatype, as in the paper); sparse and adaptive grids
//! mix, on the coarser of their widths.

use std::borrow::Cow;

use dt_types::FxHashMap;

use dt_types::{DtError, DtResult};

use crate::adaptive::AdaptiveSparse;
use crate::mhist::{MHist, MHistConfig};
use crate::reservoir::ReservoirSample;
use crate::sparse::SparseHist;

/// Estimated per-group aggregate values, keyed by the (integer) group
/// value.
pub type GroupEstimate = FxHashMap<i64, f64>;

/// Which synopsis structure to use, with its tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SynopsisConfig {
    /// Sparse grid histogram with cubic buckets (the paper's fast
    /// synopsis).
    Sparse {
        /// Bucket edge length in integer value units.
        cell_width: i64,
    },
    /// MHIST with MAXDIFF splits (the paper's accurate-but-slow
    /// synopsis); `alignment` selects the §8.1 constrained variant.
    MHist {
        /// Maximum bucket count.
        max_buckets: usize,
        /// Snap split boundaries to multiples of this grid.
        alignment: Option<i64>,
    },
    /// Uniform bottom-k reservoir sample (§8.1 "additional synopsis
    /// types").
    Reservoir {
        /// Maximum retained rows.
        capacity: usize,
        /// Seed of the deterministic retention priorities.
        seed: u64,
    },
    /// Memory-bounded adaptive sparse histogram: starts at
    /// `base_width` and coarsens 2× whenever it would exceed
    /// `max_cells` occupied cells. Binary operations harmonize grids
    /// automatically (the finer operand is coarsened to the coarser
    /// width), and so does [`Synopsis::merge_from`].
    AdaptiveSparse {
        /// Initial cell width.
        base_width: i64,
        /// Occupied-cell budget per synopsis; at least `2^dims`.
        max_cells: usize,
    },
}

impl SynopsisConfig {
    /// The paper's default: sparse histogram, cell width 10 over the
    /// 1–100 integer domain.
    pub fn default_sparse() -> Self {
        SynopsisConfig::Sparse { cell_width: 10 }
    }

    /// Build an empty synopsis over `dims` dimensions.
    pub fn build(&self, dims: usize) -> DtResult<Synopsis> {
        Ok(match *self {
            SynopsisConfig::Sparse { cell_width } => {
                Synopsis::Sparse(SparseHist::new(dims, cell_width)?)
            }
            SynopsisConfig::MHist {
                max_buckets,
                alignment,
            } => Synopsis::MHist(MHist::new(
                dims,
                MHistConfig {
                    max_buckets,
                    alignment,
                },
            )?),
            SynopsisConfig::Reservoir { capacity, seed } => {
                Synopsis::Reservoir(ReservoirSample::new(dims, capacity, seed)?)
            }
            SynopsisConfig::AdaptiveSparse {
                base_width,
                max_cells,
            } => Synopsis::Adaptive(AdaptiveSparse::new(dims, base_width, max_cells)?),
        })
    }

    /// A short human-readable label, used in experiment output.
    pub fn label(&self) -> String {
        match self {
            SynopsisConfig::Sparse { cell_width } => format!("sparse(w={cell_width})"),
            SynopsisConfig::MHist {
                max_buckets,
                alignment: None,
            } => format!("mhist(b={max_buckets})"),
            SynopsisConfig::MHist {
                max_buckets,
                alignment: Some(g),
            } => format!("mhist-aligned(b={max_buckets},g={g})"),
            SynopsisConfig::Reservoir { capacity, .. } => format!("reservoir(c={capacity})"),
            SynopsisConfig::AdaptiveSparse {
                base_width,
                max_cells,
            } => format!("adaptive(w={base_width},cells={max_cells})"),
        }
    }
}

/// A synopsis of a set of dropped (or kept) tuples.
///
/// (Variant sizes differ, but the system holds only a handful of
/// synopses at a time — two per stream per open window — so boxing the
/// larger variants would cost more in indirection than it saves.)
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)]
pub enum Synopsis {
    /// See [`SparseHist`].
    Sparse(SparseHist),
    /// See [`MHist`].
    MHist(MHist),
    /// See [`ReservoirSample`].
    Reservoir(ReservoirSample),
    /// See [`AdaptiveSparse`].
    Adaptive(AdaptiveSparse),
}

impl Synopsis {
    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        match self {
            Synopsis::Sparse(s) => s.dims(),
            Synopsis::MHist(m) => m.dims(),
            Synopsis::Reservoir(r) => r.dims(),
            Synopsis::Adaptive(a) => a.dims(),
        }
    }

    /// Estimated total tuple count.
    pub fn total_mass(&self) -> f64 {
        match self {
            Synopsis::Sparse(s) => s.total_mass(),
            Synopsis::MHist(m) => m.total_mass(),
            Synopsis::Reservoir(r) => r.total_mass(),
            Synopsis::Adaptive(a) => a.total_mass(),
        }
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        match self {
            Synopsis::Sparse(s) => s.is_empty(),
            Synopsis::MHist(m) => m.is_empty(),
            Synopsis::Reservoir(r) => r.is_empty(),
            Synopsis::Adaptive(a) => a.is_empty(),
        }
    }

    /// Memory-footprint proxy: occupied cells / buckets / retained
    /// rows.
    pub fn memory_units(&self) -> usize {
        match self {
            Synopsis::Sparse(s) => s.num_cells(),
            Synopsis::MHist(m) => m.num_buckets(),
            Synopsis::Reservoir(r) => r.num_rows(),
            Synopsis::Adaptive(a) => a.num_cells(),
        }
    }

    /// Insert one tuple (the triage queue's per-victim operation).
    pub fn insert(&mut self, point: &[i64]) -> DtResult<()> {
        match self {
            Synopsis::Sparse(s) => s.insert(point),
            Synopsis::MHist(m) => m.insert(point),
            Synopsis::Reservoir(r) => r.insert(point),
            Synopsis::Adaptive(a) => a.insert(point),
        }
    }

    /// Insert a batch of points — bit-identical to one
    /// [`Synopsis::insert`] per point, but the enum dispatch happens
    /// once per batch and the structures can amortize internal work
    /// (MHIST reserves its point buffer in one step).
    pub fn insert_batch<'a>(
        &mut self,
        points: impl IntoIterator<Item = &'a [i64]>,
    ) -> DtResult<()> {
        match self {
            Synopsis::Sparse(s) => s.insert_batch(points),
            Synopsis::MHist(m) => m.insert_batch(points),
            Synopsis::Reservoir(r) => {
                for p in points {
                    r.insert(p)?;
                }
                Ok(())
            }
            Synopsis::Adaptive(a) => {
                for p in points {
                    a.insert(p)?;
                }
                Ok(())
            }
        }
    }

    /// Insert unit-mass points given column-wise: `cols[d][i]` is
    /// dimension `d` of point `i`. Bit-identical to one
    /// [`Synopsis::insert`] per transposed point, in row order.
    ///
    /// Sparse and MHIST dispatch to their vectorized column kernels.
    /// Reservoirs replay the points row by row, each tagged with its
    /// arrival index; adaptive histograms do too, not for order (their
    /// final state is order-free) but so the cell budget holds after
    /// every point.
    pub fn insert_columns(&mut self, cols: &[Vec<i64>]) -> DtResult<()> {
        match self {
            Synopsis::Sparse(s) => s.insert_columns(cols),
            Synopsis::MHist(m) => m.insert_columns(cols),
            other => {
                let n = cols.first().map_or(0, Vec::len);
                if cols.iter().any(|c| c.len() != n) {
                    return Err(DtError::synopsis("column lengths differ in insert_columns"));
                }
                let mut point: Vec<i64> = Vec::with_capacity(cols.len());
                for i in 0..n {
                    point.clear();
                    point.extend(cols.iter().map(|c| c[i]));
                    other.insert(&point)?;
                }
                Ok(())
            }
        }
    }

    /// Insert one unit-mass tuple carrying an arrival tag (a unique,
    /// totally ordered sequence number — sharded triage uses the
    /// per-stream ingest sequence). Tags are what make partial
    /// synopses mergeable: MHIST records them to restore global
    /// insertion order at merge, reservoirs hash them into retention
    /// priorities, and the order-free structures (sparse and
    /// adaptive grids) ignore them — for those this is exactly
    /// [`Synopsis::insert`].
    pub fn insert_tagged(&mut self, point: &[i64], tag: u64) -> DtResult<()> {
        match self {
            Synopsis::MHist(m) => m.insert_tagged(point, tag),
            Synopsis::Reservoir(r) => r.insert_tagged(point, tag),
            other => other.insert(point),
        }
    }

    /// Columnar [`Synopsis::insert_tagged`]: unit-mass points given
    /// column-wise with one tag per row, bit-identical to one tagged
    /// insert per transposed point in row order.
    pub fn insert_columns_tagged(&mut self, cols: &[Vec<i64>], tags: &[u64]) -> DtResult<()> {
        let n = cols.first().map_or(0, Vec::len);
        if tags.len() != n {
            return Err(DtError::synopsis("tag count != row count"));
        }
        match self {
            Synopsis::Sparse(s) => s.insert_columns(cols),
            Synopsis::MHist(m) => m.insert_columns_tagged(cols, tags),
            other => {
                if cols.iter().any(|c| c.len() != n) {
                    return Err(DtError::synopsis("column lengths differ in insert_columns"));
                }
                let mut point: Vec<i64> = Vec::with_capacity(cols.len());
                for (i, &tag) in tags.iter().enumerate() {
                    point.clear();
                    point.extend(cols.iter().map(|c| c[i]));
                    other.insert_tagged(&point, tag)?;
                }
                Ok(())
            }
        }
    }

    /// Fold another (unsealed) partial synopsis into this one.
    ///
    /// Sharded triage keeps one synopsis per shard and merges them at
    /// seal, in shard order; the merged result is bit-identical to a
    /// single synopsis that saw every tuple, provided inserts carried
    /// the per-stream sequence tags ([`Synopsis::insert_tagged`]).
    /// Sparse grids merge by cell-mass addition (order-free), adaptive
    /// grids likewise after harmonizing widths and then coarsen back
    /// under budget, MHISTs by tag-sorted point-buffer concatenation,
    /// reservoirs by bottom-k union.
    pub fn merge_from(&mut self, other: &Synopsis) -> DtResult<()> {
        match (self, other) {
            (Synopsis::Sparse(a), Synopsis::Sparse(b)) => a.merge_from(b),
            (Synopsis::MHist(a), Synopsis::MHist(b)) => a.merge_from(b),
            (Synopsis::Reservoir(a), Synopsis::Reservoir(b)) => a.merge_from(b),
            (Synopsis::Adaptive(a), Synopsis::Adaptive(b)) => a.merge_from(b),
            (a, b) => Err(Self::kind_mismatch("merge_from", a, b)),
        }
    }

    /// Finalize the synopsis at a window boundary. For MHIST this runs
    /// MAXDIFF partitioning; for the other structures it is a no-op.
    pub fn seal(&mut self) {
        if let Synopsis::MHist(m) = self {
            m.freeze();
        }
    }

    /// The grid histogram behind a sparse or adaptive synopsis. The
    /// relational operations run on it, so their results are `Sparse`.
    fn grid(&self) -> Option<&SparseHist> {
        match self {
            Synopsis::Sparse(s) => Some(s),
            Synopsis::Adaptive(a) => Some(a.as_sparse()),
            _ => None,
        }
    }

    /// Both operands' grids on one width ([`SparseHist::harmonize`]),
    /// or a kind-mismatch error for `op`.
    fn grids<'a>(
        op: &str,
        a: &'a Synopsis,
        b: &'a Synopsis,
    ) -> DtResult<(Cow<'a, SparseHist>, Cow<'a, SparseHist>)> {
        match (a.grid(), b.grid()) {
            (Some(ga), Some(gb)) => SparseHist::harmonize(ga, gb),
            _ => Err(Self::kind_mismatch(op, a, b)),
        }
    }

    /// π onto the given dimensions.
    pub fn project(&self, keep: &[usize]) -> DtResult<Synopsis> {
        Ok(match self {
            Synopsis::Sparse(s) => Synopsis::Sparse(s.project(keep)?),
            Synopsis::MHist(m) => Synopsis::MHist(m.project(keep)?),
            Synopsis::Reservoir(r) => Synopsis::Reservoir(r.project(keep)?),
            Synopsis::Adaptive(a) => Synopsis::Sparse(a.as_sparse().project(keep)?),
        })
    }

    /// `UNION ALL`.
    pub fn union_all(&self, other: &Synopsis) -> DtResult<Synopsis> {
        Ok(match (self, other) {
            (Synopsis::MHist(a), Synopsis::MHist(b)) => Synopsis::MHist(a.union_all(b)?),
            (Synopsis::Reservoir(a), Synopsis::Reservoir(b)) => {
                Synopsis::Reservoir(a.union_all(b)?)
            }
            _ => {
                let (a, b) = Self::grids("union_all", self, other)?;
                Synopsis::Sparse(a.union_all(&b)?)
            }
        })
    }

    /// Equijoin on `self_dim = other_dim`.
    pub fn equijoin(
        &self,
        self_dim: usize,
        other: &Synopsis,
        other_dim: usize,
    ) -> DtResult<Synopsis> {
        Ok(match (self, other) {
            (Synopsis::MHist(a), Synopsis::MHist(b)) => {
                Synopsis::MHist(a.equijoin(self_dim, b, other_dim)?)
            }
            (Synopsis::Reservoir(a), Synopsis::Reservoir(b)) => {
                Synopsis::Reservoir(a.equijoin(self_dim, b, other_dim)?)
            }
            _ => {
                let (a, b) = Self::grids("equijoin", self, other)?;
                Synopsis::Sparse(a.equijoin(self_dim, &b, other_dim)?)
            }
        })
    }

    /// Would this point be absorbed by existing synopsis structure
    /// (occupied cell / covering bucket / duplicate sample row)? The
    /// synergistic drop policy prefers such victims.
    pub fn covers(&self, point: &[i64]) -> bool {
        match self {
            Synopsis::Sparse(s) => s.covers(point),
            Synopsis::MHist(m) => m.covers(point),
            Synopsis::Reservoir(r) => r.covers(point),
            Synopsis::Adaptive(a) => a.covers(point),
        }
    }

    /// Cross product ×.
    pub fn cross(&self, other: &Synopsis) -> DtResult<Synopsis> {
        Ok(match (self, other) {
            (Synopsis::MHist(a), Synopsis::MHist(b)) => Synopsis::MHist(a.cross(b)?),
            (Synopsis::Reservoir(a), Synopsis::Reservoir(b)) => Synopsis::Reservoir(a.cross(b)?),
            _ => {
                let (a, b) = Self::grids("cross", self, other)?;
                Synopsis::Sparse(a.cross(&b)?)
            }
        })
    }

    /// σ on an inclusive integer range of one dimension.
    pub fn select_range(&self, dim: usize, lo: i64, hi: i64) -> DtResult<Synopsis> {
        Ok(match self {
            Synopsis::Sparse(s) => Synopsis::Sparse(s.select_range(dim, lo, hi)?),
            Synopsis::MHist(m) => Synopsis::MHist(m.select_range(dim, lo, hi)?),
            Synopsis::Reservoir(r) => Synopsis::Reservoir(r.select_range(dim, lo, hi)?),
            Synopsis::Adaptive(a) => Synopsis::Sparse(a.as_sparse().select_range(dim, lo, hi)?),
        })
    }

    /// Estimated `GROUP BY dim` + `COUNT(*)`.
    pub fn group_counts(&self, dim: usize) -> DtResult<GroupEstimate> {
        match self {
            Synopsis::Sparse(s) => s.group_counts(dim),
            Synopsis::MHist(m) => m.group_counts(dim),
            Synopsis::Reservoir(r) => r.group_counts(dim),
            Synopsis::Adaptive(a) => a.as_sparse().group_counts(dim),
        }
    }

    /// Estimated `GROUP BY group_dim` + `SUM(sum_dim)`.
    pub fn group_sums(&self, group_dim: usize, sum_dim: usize) -> DtResult<GroupEstimate> {
        match self {
            Synopsis::Sparse(s) => s.group_sums(group_dim, sum_dim),
            Synopsis::MHist(m) => m.group_sums(group_dim, sum_dim),
            Synopsis::Reservoir(r) => r.group_sums(group_dim, sum_dim),
            Synopsis::Adaptive(a) => a.as_sparse().group_sums(group_dim, sum_dim),
        }
    }

    /// Estimated `GROUP BY group_dim` + `AVG(avg_dim)` (sum/count,
    /// groups with zero estimated count omitted).
    pub fn group_avgs(&self, group_dim: usize, avg_dim: usize) -> DtResult<GroupEstimate> {
        let counts = self.group_counts(group_dim)?;
        let sums = self.group_sums(group_dim, avg_dim)?;
        let mut out = GroupEstimate::default();
        for (k, s) in sums {
            if let Some(&c) = counts.get(&k) {
                if c > 0.0 {
                    out.insert(k, s / c);
                }
            }
        }
        Ok(out)
    }

    fn kind_mismatch(op: &str, a: &Synopsis, b: &Synopsis) -> DtError {
        DtError::synopsis(format!(
            "{op} requires matching synopsis kinds, got {} and {}",
            a.kind_name(),
            b.kind_name()
        ))
    }

    /// Structure name, for error messages and labels.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Synopsis::Sparse(_) => "sparse",
            Synopsis::MHist(_) => "mhist",
            Synopsis::Reservoir(_) => "reservoir",
            Synopsis::Adaptive(_) => "adaptive-sparse",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_configs() -> Vec<SynopsisConfig> {
        vec![
            SynopsisConfig::Sparse { cell_width: 1 },
            SynopsisConfig::MHist {
                max_buckets: 64,
                alignment: None,
            },
            SynopsisConfig::MHist {
                max_buckets: 64,
                alignment: Some(10),
            },
            SynopsisConfig::Reservoir {
                capacity: 1000,
                seed: 7,
            },
            SynopsisConfig::AdaptiveSparse {
                base_width: 1,
                max_cells: 64,
            },
        ]
    }

    #[test]
    fn every_config_builds_and_counts() {
        for cfg in all_configs() {
            let mut s = cfg.build(1).unwrap();
            for v in [1i64, 1, 2, 3] {
                s.insert(&[v]).unwrap();
            }
            s.seal();
            assert!(
                (s.total_mass() - 4.0).abs() < 1e-9,
                "{}: {}",
                cfg.label(),
                s.total_mass()
            );
            assert!(!s.is_empty());
            assert!(s.memory_units() > 0);
        }
    }

    #[test]
    fn every_config_joins_exactly_when_lossless() {
        // With per-value resolution (w=1, enough buckets/capacity,
        // alignment grid 1) the estimated join count matches the exact
        // join for every structure.
        let lossless_configs = vec![
            SynopsisConfig::Sparse { cell_width: 1 },
            SynopsisConfig::MHist {
                max_buckets: 64,
                alignment: None,
            },
            SynopsisConfig::MHist {
                max_buckets: 64,
                alignment: Some(1),
            },
            SynopsisConfig::Reservoir {
                capacity: 1000,
                seed: 7,
            },
            // Budget large enough that the grid never coarsens.
            SynopsisConfig::AdaptiveSparse {
                base_width: 1,
                max_cells: 1000,
            },
        ];
        for cfg in lossless_configs {
            let mut a = cfg.build(1).unwrap();
            let mut b = cfg.build(1).unwrap();
            for v in [1i64, 1, 2] {
                a.insert(&[v]).unwrap();
            }
            for v in [1i64, 3] {
                b.insert(&[v]).unwrap();
            }
            a.seal();
            b.seal();
            let j = a.equijoin(0, &b, 0).unwrap();
            assert!(
                (j.total_mass() - 2.0).abs() < 1e-6,
                "{}: {}",
                cfg.label(),
                j.total_mass()
            );
            let g = j.group_counts(0).unwrap();
            assert!((g[&1] - 2.0).abs() < 1e-6, "{}", cfg.label());
        }
    }

    #[test]
    fn mixed_kind_binary_ops_error() {
        let a = SynopsisConfig::Sparse { cell_width: 1 }.build(1).unwrap();
        let b = SynopsisConfig::Reservoir {
            capacity: 10,
            seed: 0,
        }
        .build(1)
        .unwrap();
        assert!(a.union_all(&b).is_err());
        assert!(a.equijoin(0, &b, 0).is_err());
    }

    #[test]
    fn group_avgs_divide() {
        let mut s = SynopsisConfig::Sparse { cell_width: 1 }.build(2).unwrap();
        s.insert(&[5, 10]).unwrap();
        s.insert(&[5, 20]).unwrap();
        let avg = s.group_avgs(0, 1).unwrap();
        assert!((avg[&5] - 15.0).abs() < 1e-9);
    }

    #[test]
    fn labels_are_descriptive() {
        assert_eq!(SynopsisConfig::default_sparse().label(), "sparse(w=10)");
        assert_eq!(
            SynopsisConfig::MHist {
                max_buckets: 8,
                alignment: Some(5)
            }
            .label(),
            "mhist-aligned(b=8,g=5)"
        );
        assert_eq!(
            SynopsisConfig::Reservoir {
                capacity: 3,
                seed: 0
            }
            .label(),
            "reservoir(c=3)"
        );
        assert_eq!(
            SynopsisConfig::AdaptiveSparse {
                base_width: 1,
                max_cells: 64
            }
            .label(),
            "adaptive(w=1,cells=64)"
        );
    }

    #[test]
    fn adaptive_operands_harmonize_grids() {
        // One synopsis coarsens under pressure, the other does not;
        // union and join still work, at the coarser resolution.
        let cfg = SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 8,
        };
        let mut pressured = cfg.build(1).unwrap();
        for v in 0..64 {
            pressured.insert(&[v]).unwrap();
        }
        let mut light = cfg.build(1).unwrap();
        for v in 0..4 {
            light.insert(&[v]).unwrap();
        }
        let u = pressured.union_all(&light).unwrap();
        assert!((u.total_mass() - 68.0).abs() < 1e-9);
        let j = pressured.equijoin(0, &light, 0).unwrap();
        assert!(j.total_mass() > 0.0);
        // Harmonization failure: incompatible fixed widths.
        let a = SynopsisConfig::Sparse { cell_width: 3 }.build(1).unwrap();
        let b = SynopsisConfig::Sparse { cell_width: 5 }.build(1).unwrap();
        let err = a.union_all(&b).unwrap_err().to_string();
        assert!(
            err.contains("widths 3 and 5 (not integer multiples)"),
            "{err}"
        );
    }

    #[test]
    fn adaptive_bounds_memory_under_the_enum_api() {
        let cfg = SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 10,
        };
        let mut s = cfg.build(2).unwrap();
        for x in 0..30 {
            s.insert(&[x, x * 3 % 50]).unwrap();
        }
        s.seal();
        assert!(s.memory_units() <= 10);
        assert_eq!(s.total_mass(), 30.0);
        assert_eq!(s.kind_name(), "adaptive-sparse");
    }

    /// Every kind: partitioning tagged inserts across 3
    /// partials and merging in partition order reproduces the
    /// single-writer synopsis bit-for-bit.
    #[test]
    fn sharded_merge_matches_single_writer() {
        let configs = vec![
            SynopsisConfig::Sparse { cell_width: 10 },
            SynopsisConfig::MHist {
                max_buckets: 8,
                alignment: None,
            },
            SynopsisConfig::Reservoir {
                capacity: 16,
                seed: 99,
            },
            SynopsisConfig::AdaptiveSparse {
                base_width: 1,
                max_cells: 8,
            },
        ];
        // Deterministic pseudo-random values; tag = arrival index.
        let points: Vec<(u64, i64)> = (0..200u64)
            .map(|i| (i, ((i * 2654435761) % 100) as i64))
            .collect();
        for cfg in configs {
            let mut single = cfg.build(1).unwrap();
            for &(tag, v) in &points {
                single.insert_tagged(&[v], tag).unwrap();
            }
            let mut parts: Vec<Synopsis> = (0..3).map(|_| cfg.build(1).unwrap()).collect();
            for &(tag, v) in &points {
                // Skewed partition, deliberately unlike round-robin.
                let p = if v < 50 { 0 } else { (tag % 2 + 1) as usize };
                parts[p].insert_tagged(&[v], tag).unwrap();
            }
            let mut merged = parts.remove(0);
            for p in &parts {
                merged.merge_from(p).unwrap();
            }
            merged.seal();
            single.seal();
            assert_eq!(merged, single, "{}", cfg.label());
        }
    }

    #[test]
    fn merge_rejects_unsupported_and_mismatched_kinds() {
        // Unsupported: a reservoir that took untagged inserts has no
        // tags known to be unique to merge by.
        let res = SynopsisConfig::Reservoir {
            capacity: 4,
            seed: 1,
        };
        let mut r = res.build(1).unwrap();
        r.insert(&[1]).unwrap();
        assert!(r.merge_from(&res.build(1).unwrap()).is_err());
        let a = SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 8,
        }
        .build(1)
        .unwrap();
        let mut s = SynopsisConfig::default_sparse().build(1).unwrap();
        let err = s.merge_from(&a).unwrap_err().to_string();
        assert!(err.contains("sparse and adaptive-sparse"), "{err}");
    }

    #[test]
    fn mergeable_reservoir_demands_tags_and_matching_seeds() {
        let cfg = SynopsisConfig::Reservoir {
            capacity: 4,
            seed: 1,
        };
        let mut r = cfg.build(1).unwrap();
        r.insert_tagged(&[1], 0).unwrap();
        let other = SynopsisConfig::Reservoir {
            capacity: 4,
            seed: 2,
        }
        .build(1)
        .unwrap();
        assert!(r.merge_from(&other).is_err(), "seed mismatch must fail");
        let mut tagged = cfg.build(1).unwrap();
        tagged.insert_tagged(&[2], 1).unwrap();
        r.merge_from(&tagged).unwrap();
        // An untagged insert is tagged with its arrival index, which
        // matches what a tagged insert at that index keeps...
        let mut plain = cfg.build(1).unwrap();
        let mut by_index = cfg.build(1).unwrap();
        for (i, v) in [5, 6, 7, 8, 9, 10].into_iter().enumerate() {
            plain.insert(&[v]).unwrap();
            by_index.insert_tagged(&[v], i as u64).unwrap();
        }
        let rows = |s: &Synopsis| match s {
            Synopsis::Reservoir(r) => r.weighted_rows().map(|(p, _)| p[0]).collect::<Vec<_>>(),
            _ => unreachable!(),
        };
        assert_eq!(rows(&plain), rows(&by_index));
        // ...but such a sample cannot merge, on either side.
        assert!(plain.merge_from(&tagged).is_err());
        assert!(tagged.merge_from(&plain).is_err());
    }

    #[test]
    fn mhist_merge_requires_tags_and_thawed_operands() {
        let cfg = SynopsisConfig::MHist {
            max_buckets: 8,
            alignment: None,
        };
        let mut a = cfg.build(1).unwrap();
        a.insert(&[1]).unwrap(); // untagged
        let b = cfg.build(1).unwrap();
        assert!(a.merge_from(&b).is_err(), "untagged points cannot merge");
        let mut c = cfg.build(1).unwrap();
        c.insert_tagged(&[1], 0).unwrap();
        let mut d = cfg.build(1).unwrap();
        d.insert_tagged(&[2], 1).unwrap();
        d.seal();
        assert!(c.merge_from(&d).is_err(), "frozen operand cannot merge");
    }

    #[test]
    fn project_and_select_dispatch() {
        for cfg in all_configs() {
            let mut s = cfg.build(2).unwrap();
            s.insert(&[1, 10]).unwrap();
            s.insert(&[2, 20]).unwrap();
            s.seal();
            let p = s.project(&[0]).unwrap();
            assert_eq!(p.dims(), 1, "{}", cfg.label());
            let f = s.select_range(0, 2, 2).unwrap();
            assert!(f.total_mass() <= 2.0);
        }
    }
}
