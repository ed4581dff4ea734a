//! Property tests: the columnar executor ([`execute_window_cols`]) is
//! **bit-identical** to the row-at-a-time reference path
//! ([`execute_window_ref`]) — same rows in the same emission order,
//! same groups with the same float *bits* — across randomized plans:
//! filters, 3-way joins, grouped aggregates, NULL-heavy data, type
//! mixes that force the row fallback, and empty windows.
//!
//! Float results are compared by `to_bits()` (not `==`) so NaN
//! conventions (AVG/MIN/MAX of an empty group) count as equal when —
//! and only when — both paths produce the same bit pattern.

use dt_engine::{execute_window_cols, execute_window_ref, execute_window_rows, WindowOutput};
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_types::{ColumnBatch, DataType, Row, Schema, Value};
use proptest::prelude::*;

fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    c.add_stream(
        "S",
        Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
    );
    c.add_stream("T", Schema::from_pairs(&[("d", DataType::Int)]));
    c
}

fn plan(sql: &str) -> QueryPlan {
    Planner::new(&catalog())
        .plan(&parse_select(sql).unwrap())
        .unwrap()
}

/// One cell: mostly small ints, some floats, some NULLs, a few strings
/// (strings force the columnar path's row fallback — still must be
/// identical).
fn arb_value(null_weight: u32) -> impl Strategy<Value = Value> {
    // The vendored proptest shim's `prop_oneof!` is an unweighted
    // union; approximate weights by picking from an index range.
    let specials = 1 + null_weight as i64;
    (0i64..(6 + specials)).prop_map(move |i| match i {
        0..=3 => Value::Int(i),
        4 => Value::Float(1.5),
        5 => Value::Float(3.0),
        6 => Value::Float(f64::NAN),
        _ => Value::Null,
    })
}

fn arb_rows(arity: usize, max: usize, null_weight: u32) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(arb_value(null_weight), arity).prop_map(Row::new),
        0..=max,
    )
}

/// Integer-only rows (keeps join keys on the vectorized path).
fn arb_int_rows(arity: usize, max: usize) -> impl Strategy<Value = Vec<Row>> {
    prop::collection::vec(
        prop::collection::vec(
            (0i64..6).prop_map(|i| if i < 5 { Value::Int(i) } else { Value::Null }),
            arity,
        )
        .prop_map(Row::new),
        0..=max,
    )
}

fn run_cols(plan: &QueryPlan, inputs: &[Vec<Row>]) -> WindowOutput {
    let batches: Vec<ColumnBatch> = inputs
        .iter()
        .zip(&plan.streams)
        .map(|(rows, b)| ColumnBatch::from_rows(b.schema.arity(), rows))
        .collect();
    let refs: Vec<&ColumnBatch> = batches.iter().collect();
    execute_window_cols(plan, &refs).unwrap()
}

fn run_ref(plan: &QueryPlan, inputs: &[Vec<Row>]) -> WindowOutput {
    let slices: Vec<&[Row]> = inputs.iter().map(Vec::as_slice).collect();
    execute_window_ref(plan, &slices).unwrap()
}

/// Bit-exact equality check. Rows are compared *in emission order*;
/// groups are sorted by key (hash-map iteration order is an
/// implementation detail of equality, but values must match to the
/// bit).
fn assert_bit_identical(cols: &WindowOutput, refr: &WindowOutput) -> Result<(), TestCaseError> {
    match (cols, refr) {
        (WindowOutput::Rows(x), WindowOutput::Rows(y)) => {
            prop_assert_eq!(x, y, "row outputs differ (order-sensitive)");
        }
        (WindowOutput::Groups(x), WindowOutput::Groups(y)) => {
            let canon = |g: &dt_types::FxHashMap<Row, Vec<dt_engine::AggValue>>| {
                let mut v: Vec<(Row, Vec<(u64, u64)>)> = g
                    .iter()
                    .map(|(k, aggs)| {
                        (
                            k.clone(),
                            aggs.iter().map(|a| (a.value.to_bits(), a.n)).collect(),
                        )
                    })
                    .collect();
                v.sort();
                v
            };
            prop_assert_eq!(canon(x), canon(y), "group outputs differ in bits");
        }
        _ => prop_assert!(false, "output shape mismatch"),
    }
    Ok(())
}

fn check(p: &QueryPlan, inputs: &[Vec<Row>]) -> Result<(), TestCaseError> {
    assert_bit_identical(&run_cols(p, inputs), &run_ref(p, inputs))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn filters_are_bit_identical(
        s in arb_rows(2, 24, 2),
        lit in 0i64..5,
    ) {
        let p = plan(&format!("SELECT b, c FROM S WHERE b > {lit} AND c <= 3"));
        check(&p, &[s])?;
    }

    #[test]
    fn three_way_join_grouped_is_bit_identical(
        r in arb_int_rows(1, 10),
        s in arb_int_rows(2, 10),
        t in arb_int_rows(1, 10),
    ) {
        let p = plan(
            "SELECT a, COUNT(*) as n FROM R,S,T \
             WHERE R.a = S.b AND S.c = T.d GROUP BY a",
        );
        check(&p, &[r, s, t])?;
    }

    #[test]
    fn join_with_residual_filter_is_bit_identical(
        r in arb_int_rows(1, 10),
        s in arb_rows(2, 10, 2),
    ) {
        let p = plan(
            "SELECT a, COUNT(*), SUM(S.c), AVG(S.c) FROM R, S \
             WHERE R.a = S.b AND S.c > 1 GROUP BY a",
        );
        check(&p, &[r, s])?;
    }

    #[test]
    fn grouped_aggregates_are_bit_identical(
        s in arb_rows(2, 24, 2),
    ) {
        let p = plan(
            "SELECT b, COUNT(*), COUNT(c), SUM(c), AVG(c), MIN(c), MAX(c) \
             FROM S GROUP BY b",
        );
        check(&p, &[s])?;
    }

    #[test]
    fn null_heavy_windows_are_bit_identical(
        r in arb_rows(1, 12, 8),
        s in arb_rows(2, 12, 8),
    ) {
        let grouped = plan(
            "SELECT a, COUNT(*) FROM R, S WHERE R.a = S.b AND S.c < 4 GROUP BY a",
        );
        check(&grouped, &[r.clone(), s.clone()])?;
        let rows = plan("SELECT a, c FROM R, S WHERE R.a = S.b");
        check(&rows, &[r, s])?;
    }

    #[test]
    fn distinct_projection_is_bit_identical(
        r in arb_rows(1, 16, 2),
        t in arb_rows(1, 16, 2),
    ) {
        let p = plan("SELECT DISTINCT a, d FROM R, T");
        check(&p, &[r, t])?;
    }

    #[test]
    fn global_aggregate_is_bit_identical(
        s in arb_rows(2, 16, 3),
    ) {
        let p = plan("SELECT COUNT(*), AVG(c) FROM S WHERE b >= 1");
        check(&p, &[s])?;
    }
}

#[test]
fn empty_windows_are_bit_identical() {
    for sql in [
        "SELECT a FROM R",
        "SELECT a, COUNT(*) FROM R GROUP BY a",
        "SELECT COUNT(*), AVG(c) FROM S",
        "SELECT a, COUNT(*) as n FROM R,S,T WHERE R.a = S.b AND S.c = T.d GROUP BY a",
    ] {
        let p = plan(sql);
        let empties: Vec<Vec<Row>> = p.streams.iter().map(|_| Vec::new()).collect();
        let cols = run_cols(&p, &empties);
        let refr = run_ref(&p, &empties);
        assert_bit_identical(&cols, &refr).unwrap();
    }
}

#[test]
fn wrong_input_count_is_rejected_identically() {
    let p = plan("SELECT a FROM R");
    let err_cols = execute_window_cols(&p, &[]).unwrap_err();
    let err_ref = execute_window_ref(&p, &[]).unwrap_err();
    assert_eq!(err_cols.to_string(), err_ref.to_string());
}

// Single-stream grouped and global windows: these reach the per-
// predicate filter passes (typed when an unmasked `Int` column meets an
// `Int` literal on either side) and the group-slot pass. `U(k, f, g, x)`
// groups on `k`, filters on the NULL-free `f` and `g`, and aggregates
// `x`, whose column type each case picks.

/// Keys and filter values at the `i64` edges.
const EDGES: [i64; 5] = [i64::MIN, -1, 0, 1, i64::MAX];

const OPS: [&str; 6] = ["=", "<>", "<", "<=", ">", ">="];

fn u_plan(sql: &str) -> QueryPlan {
    let mut c = Catalog::new();
    c.add_stream(
        "U",
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("f", DataType::Int),
            ("g", DataType::Int),
            ("x", DataType::Int),
        ]),
    );
    Planner::new(&c).plan(&parse_select(sql).unwrap()).unwrap()
}

/// Per-row cell indices `(k, f, g, x)`; [`u_rows`] turns them into
/// values.
fn arb_u_cells(max: usize) -> impl Strategy<Value = Vec<(usize, usize, usize, usize)>> {
    prop::collection::vec((0usize..6, 0usize..5, 0usize..5, 0usize..6), 0..=max)
}

/// `k` is an edge or NULL; `f` and `g` are edges. `x` depends on
/// `arg`: 0 = Int with NULLs, 1 = Float with NULLs, 2 = all NULL,
/// 3 = mixed Int and Float (an untyped column), 4 = Int, 5 = Float.
fn u_rows(cells: &[(usize, usize, usize, usize)], arg: usize) -> Vec<Row> {
    cells
        .iter()
        .map(|&(k, f, g, x)| {
            let key = EDGES.get(k).map_or(Value::Null, |&k| Value::Int(k));
            let arg = match (arg, x) {
                (2, _) | (0 | 1 | 3, 5) => Value::Null,
                (0 | 4, x) => Value::Int([-2, 0, 3, 7, i64::MAX, i64::MIN][x]),
                (1 | 5, x) => Value::Float([-1.5, 0.0, 2.25, 1e300, f64::NAN, -0.0][x]),
                (_, x) if x % 2 == 0 => Value::Int(x as i64 - 1),
                (_, x) => Value::Float(x as f64 * 0.75),
            };
            Row::new(vec![key, Value::Int(EDGES[f]), Value::Int(EDGES[g]), arg])
        })
        .collect()
}

const U_AGGS: &str = "COUNT(*), COUNT(x), SUM(x), AVG(x), MIN(x), MAX(x)";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn single_stream_groups_with_edge_keys_are_bit_identical(
        cells in arb_u_cells(300),
        arg in 0usize..6,
        op in 0usize..6,
        lit in 0usize..5,
        lit_left in any::<bool>(),
    ) {
        let (op, lit) = (OPS[op], EDGES[lit]);
        let pred = if lit_left { format!("{lit} {op} f") } else { format!("f {op} {lit}") };
        let p = u_plan(&format!("SELECT k, {U_AGGS} FROM U WHERE {pred} GROUP BY k"));
        check(&p, &[u_rows(&cells, arg)])?;
    }

    #[test]
    fn two_local_predicates_on_one_stream_are_bit_identical(
        cells in arb_u_cells(300),
        arg in 0usize..6,
        ops in (0usize..6, 0usize..6),
        lits in (0usize..5, 0usize..5),
    ) {
        let sql = format!(
            "SELECT k, {U_AGGS} FROM U WHERE f {} {} AND {} {} g GROUP BY k",
            OPS[ops.0], EDGES[lits.0], EDGES[lits.1], OPS[ops.1],
        );
        check(&u_plan(&sql), &[u_rows(&cells, arg)])?;
    }

    #[test]
    fn single_stream_global_aggregates_are_bit_identical(
        cells in arb_u_cells(300),
        arg in 0usize..6,
        op in 0usize..6,
        lit in 0usize..5,
    ) {
        let rows = u_rows(&cells, arg);
        let p = u_plan(&format!("SELECT {U_AGGS} FROM U WHERE g {} {}", OPS[op], EDGES[lit]));
        check(&p, std::slice::from_ref(&rows))?;
        // No `f` exceeds `i64::MAX`: the filter selects nothing, and the
        // one global group still reports its empty-input values.
        let none = u_plan(&format!("SELECT {U_AGGS} FROM U WHERE f > {}", i64::MAX));
        check(&none, &[rows])?;
    }
}

// Several queries closing one shared batch, as a window's fan-out does:
// an integer GROUP BY reads its column's memoized group codes, which
// the first query to group on that column computes and every later
// one reuses. Each close must still equal the row reference, and equal
// the same plan on a fresh batch down to group iteration order.

/// `U(k, f, g, x)` as above plus `V(j)`, a join partner for `U.f`.
fn uv_plan(sql: &str) -> QueryPlan {
    let mut c = Catalog::new();
    c.add_stream(
        "U",
        Schema::from_pairs(&[
            ("k", DataType::Int),
            ("f", DataType::Int),
            ("g", DataType::Int),
            ("x", DataType::Int),
        ]),
    );
    c.add_stream("V", Schema::from_pairs(&[("j", DataType::Int)]));
    Planner::new(&c).plan(&parse_select(sql).unwrap()).unwrap()
}

/// The output's groups (or rows) in iteration order.
fn iteration_order(out: &WindowOutput) -> Vec<Row> {
    match out {
        WindowOutput::Rows(rows) => rows.clone(),
        WindowOutput::Groups(g) => g.keys().cloned().collect(),
    }
}

/// Close `plans` in sequence over one batch per stream of `tables`
/// (`(stream, rows)`), checking each against [`execute_window_rows`]
/// and against a fresh batch.
fn check_shared(plans: &[QueryPlan], tables: &[(&str, Vec<Row>)]) -> Result<(), TestCaseError> {
    let table = |name: &str| tables.iter().position(|(n, _)| *n == name).unwrap();
    let arity = |name: &str| if name == "V" { 1 } else { 4 };
    let shared: Vec<ColumnBatch> = tables
        .iter()
        .map(|(n, rows)| ColumnBatch::from_rows(arity(n), rows))
        .collect();
    for p in plans {
        let at: Vec<usize> = p.streams.iter().map(|b| table(&b.stream)).collect();
        let batches: Vec<&ColumnBatch> = at.iter().map(|&t| &shared[t]).collect();
        let out = execute_window_cols(p, &batches).unwrap();
        let rows: Vec<Vec<&Row>> = at.iter().map(|&t| tables[t].1.iter().collect()).collect();
        assert_bit_identical(&out, &execute_window_rows(p, &rows).unwrap())?;
        let fresh: Vec<Vec<Row>> = at.iter().map(|&t| tables[t].1.clone()).collect();
        prop_assert_eq!(
            iteration_order(&out),
            iteration_order(&run_cols(p, &fresh)),
            "a shared batch changed group order"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn plans_closing_one_shared_batch_are_bit_identical(
        cells in arb_u_cells(300),
        arg in 0usize..6,
        ops in (0usize..6, 0usize..6),
        lits in (0usize..5, 0usize..5),
        first in 0usize..6,
    ) {
        let (o1, o2, l1, l2) = (OPS[ops.0], OPS[ops.1], EDGES[lits.0], EDGES[lits.1]);
        let mut plans: Vec<QueryPlan> = [
            format!("SELECT k, {U_AGGS} FROM U WHERE f {o1} {l1} GROUP BY k"),
            "SELECT k, COUNT(*) FROM U GROUP BY k".to_string(),
            format!("SELECT f, SUM(x), COUNT(*) FROM U WHERE g {o2} {l2} GROUP BY f"),
            format!("SELECT g, MIN(x), AVG(x) FROM U WHERE {l1} {o2} k GROUP BY g"),
            format!("SELECT {U_AGGS} FROM U WHERE f {o2} {l2}"),
            "SELECT x, COUNT(*), MAX(x) FROM U GROUP BY x".to_string(),
        ]
        .iter()
        .map(|sql| uv_plan(sql))
        .collect();
        // Vary which plan computes each column's codes.
        plans.rotate_left(first);
        check_shared(&plans, &[("U", u_rows(&cells, arg))])?;
    }

    #[test]
    fn high_cardinality_keys_sharing_one_batch_are_bit_identical(
        cells in arb_u_cells(300),
        arg in 0usize..6,
        op in 0usize..6,
        lit in 0usize..5,
    ) {
        // Every key distinct: an odd multiplier is a bijection on i64,
        // and rows 0 and 1 take the edges.
        let mut rows = u_rows(&cells, arg);
        for (i, row) in rows.iter_mut().enumerate() {
            let mut vals = row.values().to_vec();
            vals[0] = Value::Int(match i {
                0 => i64::MIN,
                1 => i64::MAX,
                _ => (i as i64).wrapping_mul(0x9E37_79B9_7F4A_7C15_u64 as i64),
            });
            *row = Row::new(vals);
        }
        let plans: Vec<QueryPlan> = [
            format!("SELECT k, {U_AGGS} FROM U WHERE f {} {} GROUP BY k", OPS[op], EDGES[lit]),
            format!("SELECT k, COUNT(*) FROM U WHERE g {} {} GROUP BY k", OPS[op], EDGES[lit]),
            "SELECT k, SUM(x) FROM U GROUP BY k".to_string(),
        ]
        .iter()
        .map(|sql| uv_plan(sql))
        .collect();
        check_shared(&plans, &[("U", rows)])?;
    }

    #[test]
    fn join_and_single_stream_grouping_one_column_are_bit_identical(
        cells in arb_u_cells(60),
        v in prop::collection::vec(0usize..6, 0..=8),
        arg in 0usize..6,
        op in 0usize..6,
        lit in 0usize..5,
        first in 0usize..5,
    ) {
        let v_rows: Vec<Row> = v
            .iter()
            .map(|&j| Row::new(vec![EDGES.get(j).map_or(Value::Null, |&j| Value::Int(j))]))
            .collect();
        let mut plans: Vec<QueryPlan> = [
            format!("SELECT k, COUNT(*) FROM U WHERE g {} {} GROUP BY k", OPS[op], EDGES[lit]),
            // Count-only: the inner level collapses to match counts.
            "SELECT k, COUNT(*) FROM U, V WHERE U.f = V.j GROUP BY k".to_string(),
            // Per-result fold into the slot arena.
            "SELECT k, COUNT(*), SUM(x) FROM U, V WHERE U.f = V.j GROUP BY k".to_string(),
            // The group column on the last stream.
            "SELECT k, COUNT(*) FROM V, U WHERE V.j = U.f GROUP BY k".to_string(),
            format!("SELECT k, AVG(x) FROM U, V WHERE U.f = V.j AND U.g {} {} GROUP BY k", OPS[op], EDGES[lit]),
        ]
        .iter()
        .map(|sql| uv_plan(sql))
        .collect();
        plans.rotate_left(first);
        check_shared(&plans, &[("U", u_rows(&cells, arg)), ("V", v_rows)])?;
    }
}
