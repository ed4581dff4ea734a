//! Property test: the vectorized column-insert kernels leave every
//! synopsis kind in a state **bit-identical** to inserting the same
//! unit-mass points one at a time, in row order. This is the synopsis
//! half of the columnar-path acceptance test (the engine half lives in
//! dt-engine's `columnar_equivalence`).

use dt_synopsis::SynopsisConfig;
use proptest::prelude::*;

fn all_configs() -> Vec<SynopsisConfig> {
    vec![
        SynopsisConfig::Sparse { cell_width: 10 },
        SynopsisConfig::MHist {
            max_buckets: 8,
            alignment: Some(10),
        },
        SynopsisConfig::Reservoir {
            capacity: 16,
            seed: 7,
        },
        SynopsisConfig::AdaptiveSparse {
            base_width: 4,
            max_cells: 16,
        },
    ]
}

fn arb_points(dims: usize, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(-100i64..100, dims), 0..=max)
}

/// Transpose row-wise points into per-dimension columns.
fn columns_of(points: &[Vec<i64>], dims: usize) -> Vec<Vec<i64>> {
    let mut cols = vec![Vec::with_capacity(points.len()); dims];
    for p in points {
        for (d, col) in cols.iter_mut().enumerate() {
            col.push(p[d]);
        }
    }
    cols
}

fn check_equivalence(points: &[Vec<i64>], dims: usize) -> Result<(), TestCaseError> {
    let cols = columns_of(points, dims);
    for cfg in all_configs() {
        let mut scalar = cfg.build(dims).unwrap();
        for p in points {
            scalar.insert(p).unwrap();
        }
        let mut columnar = cfg.build(dims).unwrap();
        columnar.insert_columns(&cols).unwrap();
        prop_assert_eq!(
            &scalar,
            &columnar,
            "pre-seal state diverged for {}",
            cfg.label()
        );
        scalar.seal();
        columnar.seal();
        prop_assert_eq!(
            &scalar,
            &columnar,
            "sealed state diverged for {}",
            cfg.label()
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn columnar_insert_matches_scalar_1d(points in arb_points(1, 200)) {
        check_equivalence(&points, 1)?;
    }

    #[test]
    fn columnar_insert_matches_scalar_2d(points in arb_points(2, 120)) {
        check_equivalence(&points, 2)?;
    }

    #[test]
    fn columnar_insert_matches_scalar_3d(points in arb_points(3, 80)) {
        check_equivalence(&points, 3)?;
    }
}

#[test]
fn empty_columns_are_a_no_op() {
    for cfg in all_configs() {
        let mut s = cfg.build(2).unwrap();
        s.insert_columns(&[vec![], vec![]]).unwrap();
        assert!(s.is_empty(), "{}", cfg.label());
    }
}

#[test]
fn dimension_mismatch_is_rejected() {
    let mut s = SynopsisConfig::default_sparse().build(2).unwrap();
    assert!(s.insert_columns(&[vec![1]]).is_err());
    let mut m = SynopsisConfig::MHist {
        max_buckets: 4,
        alignment: None,
    }
    .build(2)
    .unwrap();
    assert!(m.insert_columns(&[vec![1]]).is_err());
}

#[test]
fn unequal_column_lengths_are_rejected() {
    for cfg in all_configs() {
        let mut s = cfg.build(2).unwrap();
        assert!(
            s.insert_columns(&[vec![1, 2], vec![3]]).is_err(),
            "{}",
            cfg.label()
        );
    }
}
