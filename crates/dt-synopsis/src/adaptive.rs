//! The memory-bounded adaptive sparse histogram.
//!
//! The paper's summarize-only baseline has its "synopsis data
//! structure tuned to handle the highest observed data rate" (§7.1) —
//! a static choice. The *adaptive* alternative tunes itself: start at
//! a fine grid, and whenever the number of occupied cells exceeds the
//! configured budget, coarsen the grid by 2× (mass-conserving, see
//! [`SparseHist::coarsen`]). Under light shedding the synopsis stays
//! near-lossless; under a heavy burst it degrades resolution instead
//! of memory.
//!
//! Widths evolve as `base × 2^k`, so two adaptive synopses that have
//! coarsened differently can always be *harmonized* — the finer one
//! coarsened to the coarser width — before a binary operation;
//! [`crate::Synopsis`]'s operators do this automatically.
//!
//! The final state does not depend on insertion order, which is what
//! lets sharded triage merge per-shard partials
//! ([`AdaptiveSparse::merge_from`]). Write `cells(S, k)` for the
//! occupied cells of point set `S` at width `base × 2^k`: it grows with
//! `S` and never grows with `k`, so on-line inserts stop at the least
//! `k` with `cells(S, k) ≤ budget`, every subset's level is at most
//! that, and a merge that coarsens while over budget stops exactly
//! there. Masses are integer counts (exact in `f64`) in a `BTreeMap`,
//! so the merged histogram equals the single-writer one bit for bit.

use dt_types::{DtError, DtResult};

use crate::sparse::SparseHist;

/// A sparse histogram that halves its resolution whenever it would
/// exceed a cell budget.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveSparse {
    hist: SparseHist,
    max_cells: usize,
}

impl AdaptiveSparse {
    /// An adaptive histogram over `dims` dimensions starting at
    /// `base_width` and never exceeding `max_cells` occupied cells.
    ///
    /// # Errors
    /// Errors unless `max_cells ≥ 2^dims`: coarsening never merges
    /// cells on opposite sides of 0, so the coarsest grid keeps one
    /// cell per occupied orthant, and a smaller budget could never be
    /// met.
    pub fn new(dims: usize, base_width: i64, max_cells: usize) -> DtResult<Self> {
        let orthants = u32::try_from(dims).ok().and_then(|d| 1usize.checked_shl(d));
        if orthants.is_none_or(|o| o > max_cells) {
            return Err(DtError::synopsis(format!(
                "cell budget {max_cells} is below 2^{dims}: the coarsest grid keeps one \
                 cell per occupied orthant"
            )));
        }
        Ok(AdaptiveSparse {
            hist: SparseHist::new(dims, base_width)?,
            max_cells,
        })
    }

    /// Number of dimensions.
    pub fn dims(&self) -> usize {
        self.hist.dims()
    }

    /// The configured cell budget.
    pub fn max_cells(&self) -> usize {
        self.max_cells
    }

    /// The current (possibly coarsened) cell width.
    pub fn current_width(&self) -> i64 {
        self.hist.cell_width()
    }

    /// Total mass.
    pub fn total_mass(&self) -> f64 {
        self.hist.total_mass()
    }

    /// True if nothing has been inserted.
    pub fn is_empty(&self) -> bool {
        self.hist.is_empty()
    }

    /// Occupied cells (≤ `max_cells` after every insert).
    pub fn num_cells(&self) -> usize {
        self.hist.num_cells()
    }

    /// Insert one tuple, coarsening as needed to respect the budget.
    pub fn insert(&mut self, point: &[i64]) -> DtResult<()> {
        self.hist.insert(point)?;
        self.fit_budget()
    }

    /// Fold another partial histogram into this one: harmonize the two
    /// grids, add the cell masses, then coarsen while over budget. The
    /// result equals one histogram that saw both point sets (module
    /// docs), whatever the split or merge order.
    ///
    /// # Errors
    /// Errors if the budgets or dimensions differ, or neither width is
    /// a multiple of the other.
    pub fn merge_from(&mut self, other: &AdaptiveSparse) -> DtResult<()> {
        if self.max_cells != other.max_cells {
            return Err(DtError::synopsis(
                "cannot merge adaptive histograms with different cell budgets",
            ));
        }
        let (mine, theirs) = SparseHist::harmonize(&self.hist, &other.hist)?;
        let mut hist = mine.into_owned();
        hist.merge_from(&theirs)?;
        self.hist = hist;
        self.fit_budget()
    }

    /// Coarsen 2× until the occupied cells fit the budget. Terminates:
    /// `new` guarantees the budget admits one cell per orthant.
    fn fit_budget(&mut self) -> DtResult<()> {
        while self.hist.num_cells() > self.max_cells {
            self.hist = self.hist.coarsen(2)?;
        }
        Ok(())
    }

    /// Does the point land in an occupied cell? (Synergistic-policy
    /// hook.)
    pub fn covers(&self, point: &[i64]) -> bool {
        self.hist.covers(point)
    }

    /// The underlying plain histogram (for lowering into the shared
    /// relational operations).
    pub fn as_sparse(&self) -> &SparseHist {
        &self.hist
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_zero_budget() {
        assert!(AdaptiveSparse::new(1, 1, 0).is_err());
    }

    #[test]
    fn stays_lossless_under_budget() {
        let mut a = AdaptiveSparse::new(1, 1, 100).unwrap();
        for v in 0..50 {
            a.insert(&[v]).unwrap();
        }
        assert_eq!(a.current_width(), 1, "no coarsening needed");
        assert_eq!(a.num_cells(), 50);
        assert_eq!(a.total_mass(), 50.0);
    }

    #[test]
    fn coarsens_under_pressure_and_conserves_mass() {
        let mut a = AdaptiveSparse::new(1, 1, 16).unwrap();
        for v in 0..100 {
            a.insert(&[v]).unwrap();
        }
        assert!(a.num_cells() <= 16, "{}", a.num_cells());
        assert!(a.current_width() > 1, "must have coarsened");
        // Widths evolve as powers of two times the base.
        assert!(a.current_width().count_ones() == 1);
        assert_eq!(a.total_mass(), 100.0);
    }

    #[test]
    fn budget_below_one_cell_per_orthant_is_rejected() {
        // Cells either side of 0 never merge: with a budget of 1, the
        // inserts [-1] then [0] would coarsen until the width overflows.
        let err = AdaptiveSparse::new(1, 1, 1).unwrap_err();
        assert!(err.to_string().contains("orthant"), "{err}");
        assert!(AdaptiveSparse::new(2, 1, 3).is_err());
        assert!(AdaptiveSparse::new(64, 1, usize::MAX).is_err());
        let mut a = AdaptiveSparse::new(1, 1, 2).unwrap();
        for v in [-1i64, 0, 99, -50] {
            a.insert(&[v]).unwrap();
        }
        assert_eq!(a.num_cells(), 2);
        assert_eq!(a.total_mass(), 4.0);
    }

    #[test]
    fn merge_matches_single_writer_and_checks_budgets() {
        let points: Vec<i64> = (0..60).map(|i| (i * 37 % 90) - 45).collect();
        let mut single = AdaptiveSparse::new(1, 1, 6).unwrap();
        let mut left = AdaptiveSparse::new(1, 1, 6).unwrap();
        let mut right = AdaptiveSparse::new(1, 1, 6).unwrap();
        for &v in &points {
            single.insert(&[v]).unwrap();
            // Skewed split: the left part stays at a finer width.
            let part = if (0..4).contains(&v) {
                &mut left
            } else {
                &mut right
            };
            part.insert(&[v]).unwrap();
        }
        assert!(left.current_width() < right.current_width());
        left.merge_from(&right).unwrap();
        assert_eq!(left, single);
        let other_budget = AdaptiveSparse::new(1, 1, 7).unwrap();
        assert!(left.merge_from(&other_budget).is_err());
    }

    #[test]
    fn two_dimensional_budgets() {
        let mut a = AdaptiveSparse::new(2, 1, 25).unwrap();
        for x in 0..20 {
            for y in 0..20 {
                a.insert(&[x, y]).unwrap();
            }
        }
        assert!(a.num_cells() <= 25);
        assert_eq!(a.total_mass(), 400.0);
    }

    #[test]
    fn covers_tracks_current_grid() {
        let mut a = AdaptiveSparse::new(1, 1, 2).unwrap();
        a.insert(&[0]).unwrap();
        a.insert(&[10]).unwrap();
        a.insert(&[20]).unwrap(); // forces coarsening
                                  // After coarsening, wide cells cover neighbours of inserted
                                  // values too.
        assert!(a.covers(&[0]));
        let w = a.current_width();
        assert!(w >= 2);
        assert!(a.covers(&[1]) || w == 1);
    }
}
