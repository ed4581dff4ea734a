//! Property tests pinning synopsis estimates to the exact relational
//! algebra of `dt-algebra`.
//!
//! The strongest statements hold at per-value resolution (sparse cell
//! width 1), where the histogram estimate degenerates to exact
//! counting; coarser configurations are checked for the invariants
//! that must hold at *any* resolution (mass conservation under π and
//! ∪, join-mass formulas, estimate non-negativity).

use dt_algebra::Relation;
use dt_synopsis::{Synopsis, SynopsisConfig};
use dt_types::Row;
use proptest::prelude::*;

fn to_relation(points: &[Vec<i64>]) -> Relation {
    Relation::from_rows(points.iter().map(|p| Row::from_ints(p)))
}

fn build(cfg: &SynopsisConfig, dims: usize, points: &[Vec<i64>]) -> Synopsis {
    let mut s = cfg.build(dims).unwrap();
    for p in points {
        s.insert(p).unwrap();
    }
    s.seal();
    s
}

fn arb_points(dims: usize, domain: i64, max: usize) -> impl Strategy<Value = Vec<Vec<i64>>> {
    prop::collection::vec(prop::collection::vec(0..domain, dims), 0..=max)
}

/// Coarse sparse, MHIST and reservoir configurations.
fn coarse_configs() -> Vec<SynopsisConfig> {
    vec![
        SynopsisConfig::Sparse { cell_width: 4 },
        SynopsisConfig::MHist {
            max_buckets: 6,
            alignment: None,
        },
        SynopsisConfig::MHist {
            max_buckets: 6,
            alignment: Some(4),
        },
        SynopsisConfig::Reservoir {
            capacity: 8,
            seed: 11,
        },
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Sparse w=1 `GROUP BY` counts are exactly the relational counts.
    #[test]
    fn sparse_w1_group_counts_are_exact(points in arb_points(2, 12, 40)) {
        let syn = build(&SynopsisConfig::Sparse { cell_width: 1 }, 2, &points);
        let rel = to_relation(&points);
        let est = syn.group_counts(0).unwrap();
        let exact = rel.project(&[0]);
        for (row, c) in exact.iter() {
            let v = row[0].as_i64().unwrap();
            prop_assert!((est[&v] - c as f64).abs() < 1e-9);
        }
        let est_total: f64 = est.values().sum();
        prop_assert!((est_total - rel.len() as f64).abs() < 1e-9);
    }

    /// Sparse w=1 equijoin estimates are exactly the relational join.
    #[test]
    fn sparse_w1_join_is_exact(
        a in arb_points(1, 8, 25),
        b in arb_points(1, 8, 25),
    ) {
        let sa = build(&SynopsisConfig::Sparse { cell_width: 1 }, 1, &a);
        let sb = build(&SynopsisConfig::Sparse { cell_width: 1 }, 1, &b);
        let j = sa.equijoin(0, &sb, 0).unwrap();
        let exact = to_relation(&a).equijoin(&to_relation(&b), &[(0, 0)]);
        prop_assert!((j.total_mass() - exact.len() as f64).abs() < 1e-6,
            "est {} vs exact {}", j.total_mass(), exact.len());
    }

    /// Total mass equals the tuple count for every structure.
    #[test]
    fn mass_equals_count(points in arb_points(2, 20, 30)) {
        for cfg in coarse_configs() {
            let syn = build(&cfg, 2, &points);
            prop_assert!((syn.total_mass() - points.len() as f64).abs() < 1e-6,
                "{}: {}", cfg.label(), syn.total_mass());
        }
    }

    /// π conserves mass at any resolution.
    #[test]
    fn project_conserves_mass(points in arb_points(3, 20, 30)) {
        for cfg in coarse_configs() {
            let syn = build(&cfg, 3, &points);
            let p = syn.project(&[1]).unwrap();
            prop_assert!((p.total_mass() - syn.total_mass()).abs() < 1e-6,
                "{}", cfg.label());
        }
    }

    /// ∪ adds mass at any resolution.
    #[test]
    fn union_adds_mass(
        a in arb_points(1, 20, 20),
        b in arb_points(1, 20, 20),
    ) {
        for cfg in coarse_configs() {
            let sa = build(&cfg, 1, &a);
            let sb = build(&cfg, 1, &b);
            let u = sa.union_all(&sb).unwrap();
            prop_assert!((u.total_mass() - (a.len() + b.len()) as f64).abs() < 1e-6,
                "{}", cfg.label());
        }
    }

    /// σ never increases mass, and a full-domain σ is the identity on
    /// mass.
    #[test]
    fn select_bounds_mass(points in arb_points(1, 20, 30)) {
        for cfg in coarse_configs() {
            let syn = build(&cfg, 1, &points);
            let some = syn.select_range(0, 5, 12).unwrap();
            prop_assert!(some.total_mass() <= syn.total_mass() + 1e-9, "{}", cfg.label());
            let all = syn.select_range(0, -1000, 1000).unwrap();
            prop_assert!((all.total_mass() - syn.total_mass()).abs() < 1e-6, "{}", cfg.label());
        }
    }

    /// Group-count estimates are non-negative and sum to the total
    /// mass at any resolution.
    #[test]
    fn group_counts_partition_mass(points in arb_points(2, 20, 30)) {
        for cfg in coarse_configs() {
            let syn = build(&cfg, 2, &points);
            let g = syn.group_counts(1).unwrap();
            for (&v, &m) in &g {
                prop_assert!(m >= 0.0, "{}: value {v} mass {m}", cfg.label());
            }
            let sum: f64 = g.values().sum();
            prop_assert!((sum - syn.total_mass()).abs() < 1e-6, "{}", cfg.label());
        }
    }

    /// The sparse histogram's join mass obeys the closed form
    /// Σ m_s(c)·m_t(c)/w over matching cells.
    #[test]
    fn sparse_join_mass_closed_form(
        a in arb_points(1, 30, 25),
        b in arb_points(1, 30, 25),
        w in 1i64..6,
    ) {
        let cfg = SynopsisConfig::Sparse { cell_width: w };
        let sa = build(&cfg, 1, &a);
        let sb = build(&cfg, 1, &b);
        let j = sa.equijoin(0, &sb, 0).unwrap();
        // Closed form over per-cell masses.
        let mut cell_a: std::collections::HashMap<i64, f64> = Default::default();
        for p in &a { *cell_a.entry(p[0].div_euclid(w)).or_default() += 1.0; }
        let mut cell_b: std::collections::HashMap<i64, f64> = Default::default();
        for p in &b { *cell_b.entry(p[0].div_euclid(w)).or_default() += 1.0; }
        let expected: f64 = cell_a
            .iter()
            .filter_map(|(c, ma)| cell_b.get(c).map(|mb| ma * mb / w as f64))
            .sum();
        prop_assert!((j.total_mass() - expected).abs() < 1e-6);
    }

    /// Sparse group counts at coarse width still converge to exact
    /// counts when the data is cell-uniform (each cell's values hit
    /// uniformly) — the histogram's modelling assumption.
    #[test]
    fn sparse_exact_under_uniform_cells(cells in prop::collection::vec(0i64..5, 1..6), w in 2i64..5) {
        // For each chosen cell, insert one tuple at *every* value of
        // the cell: intra-cell uniformity holds exactly.
        let mut points = Vec::new();
        for &c in &cells {
            for v in c * w..(c + 1) * w {
                points.push(vec![v]);
            }
        }
        let syn = build(&SynopsisConfig::Sparse { cell_width: w }, 1, &points);
        let rel = to_relation(&points);
        let est = syn.group_counts(0).unwrap();
        for (row, c) in rel.iter() {
            let v = row[0].as_i64().unwrap();
            prop_assert!((est[&v] - c as f64).abs() < 1e-9);
        }
    }
}
