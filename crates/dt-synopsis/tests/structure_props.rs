//! Structural property tests for the synopsis implementations:
//! MAXDIFF bucket geometry, adaptive budgets and merges, and
//! compression invariants — the internal guarantees the estimator
//! correctness rests on.

use dt_synopsis::{AdaptiveSparse, MHist, MHistConfig, SparseHist};
use proptest::prelude::*;

fn arb_points(dims: usize, domain: i64, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, dims), 1..=max)
}

/// Points on both sides of 0, which coarsening never merges across.
fn arb_straddling(dims: usize, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(-50i64..50, dims), 1..=max)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// MAXDIFF buckets never overlap and every point lies in exactly
    /// one bucket; masses partition the input count.
    #[test]
    fn mhist_buckets_partition(
        points in arb_points(2, 30, 60),
        max_buckets in 1usize..20,
    ) {
        let mut h = MHist::new(2, MHistConfig::unaligned(max_buckets)).unwrap();
        for p in &points {
            h.insert(p).unwrap();
        }
        h.freeze();
        let buckets = h.built_buckets().into_owned();
        prop_assert!(buckets.len() <= max_buckets);
        // Every point in exactly one bucket.
        for p in &points {
            let containing = buckets
                .iter()
                .filter(|b| {
                    b.bounds
                        .iter()
                        .zip(p)
                        .all(|(&(lo, hi), &v)| v >= lo && v < hi)
                })
                .count();
            prop_assert_eq!(containing, 1, "point {:?}", p);
        }
        // Masses sum to the point count.
        let mass: f64 = buckets.iter().map(|b| b.mass).sum();
        prop_assert!((mass - points.len() as f64).abs() < 1e-9);
        // Bounds are well-formed.
        for b in &buckets {
            for &(lo, hi) in &b.bounds {
                prop_assert!(lo < hi);
            }
        }
    }

    /// Aligned MHIST interior boundaries land on the grid.
    #[test]
    fn aligned_mhist_boundaries_on_grid(
        points in arb_points(1, 50, 60),
        g in 2i64..8,
    ) {
        let mut h = MHist::new(1, MHistConfig::aligned(12, g)).unwrap();
        for p in &points {
            h.insert(p).unwrap();
        }
        h.freeze();
        for b in h.built_buckets().iter() {
            let (lo, hi) = b.bounds[0];
            prop_assert_eq!(lo.rem_euclid(g), 0, "lo {} grid {}", lo, g);
            prop_assert_eq!(hi.rem_euclid(g), 0, "hi {} grid {}", hi, g);
        }
    }

    /// Compression preserves mass and respects the target for any
    /// input.
    #[test]
    fn mhist_compress_invariants(
        points in arb_points(1, 40, 50),
        target in 1usize..10,
    ) {
        let mut h = MHist::new(1, MHistConfig::unaligned(16)).unwrap();
        for p in &points {
            h.insert(p).unwrap();
        }
        h.freeze();
        let c = h.compress(target).unwrap();
        prop_assert!(c.num_buckets() <= target);
        prop_assert!((c.total_mass() - h.total_mass()).abs() < 1e-9);
    }

    /// The adaptive histogram never exceeds its budget, conserves
    /// mass, and its width stays a power-of-two multiple of the base.
    /// A budget below one cell per orthant (4 in 2-D) is rejected.
    #[test]
    fn adaptive_budget_and_width_laws(
        points in arb_straddling(2, 80),
        budget in 1usize..30,
        base in 1i64..4,
    ) {
        let built = AdaptiveSparse::new(2, base, budget);
        prop_assert_eq!(built.is_err(), budget < 4);
        prop_assume!(budget >= 4);
        let mut a = built.unwrap();
        for p in &points {
            a.insert(p).unwrap();
            prop_assert!(a.num_cells() <= budget);
        }
        prop_assert!((a.total_mass() - points.len() as f64).abs() < 1e-9);
        let ratio = a.current_width() / base;
        prop_assert_eq!(a.current_width() % base, 0);
        prop_assert!(ratio.count_ones() == 1, "ratio {ratio} not a power of two");
    }

    /// Merging adaptive partials reproduces the single-writer
    /// histogram bit for bit, whatever the split and merge order.
    #[test]
    fn adaptive_merge_equals_single_writer(
        points in prop::collection::vec(
            (prop::collection::vec(-50i64..50, 2), 0usize..4),
            0..=80,
        ),
        rotate in 0usize..4,
        base in 1i64..4,
        budget in 4usize..40,
    ) {
        let mut single = AdaptiveSparse::new(2, base, budget).unwrap();
        let mut parts = vec![single.clone(); 4];
        for (p, part) in &points {
            single.insert(p).unwrap();
            parts[*part].insert(p).unwrap();
        }
        parts.rotate_left(rotate);
        let mut merged = parts[0].clone();
        for p in &parts[1..] {
            merged.merge_from(p).unwrap();
        }
        prop_assert_eq!(merged, single);
    }

    /// Coarsening a sparse histogram k then m times equals coarsening
    /// once by k·m.
    #[test]
    fn sparse_coarsen_composes(
        points in arb_points(1, 64, 40),
        k in 2i64..4,
        m in 2i64..4,
    ) {
        let mut h = SparseHist::new(1, 1).unwrap();
        for p in &points {
            h.insert(p).unwrap();
        }
        let twice = h.coarsen(k).unwrap().coarsen(m).unwrap();
        let once = h.coarsen(k * m).unwrap();
        prop_assert_eq!(twice, once);
    }
}
