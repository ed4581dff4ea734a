//! Vectorized window execution over columnar batches.
//!
//! [`execute_window_cols`] runs the same select-project-join-aggregate
//! plans as [`crate::exec::execute_window_rows`], but over
//! [`ColumnBatch`] inputs:
//!
//! * residual predicates that touch a single stream become one pass
//!   each that compacts that stream's **selection vector** (evaluated
//!   once per input row, not once per join result); an unmasked `Int`
//!   column against an `Int` literal is a typed loop;
//! * join-step hash indexes key contiguous `i64` columns with FxHash
//!   (`i64` keys instead of `Value` keys, built over the filtered
//!   selection);
//! * a single-stream plan grouped by one `Int` column or by none runs
//!   column at a time: one pass assigns each selected row its group
//!   slot, then each aggregate folds its typed argument column;
//! * an integer GROUP BY numbers its groups through the column's
//!   memoized [`GroupCodes`], so the key hashing is done once per
//!   batch column, not once per query.
//!
//! The executor is bit-identical to the row path by construction: it
//! enumerates join results in exactly the row path's driver order
//! (depth-first, input order within each key), applies predicates with
//! the same NULL/`numeric_cmp` semantics, and folds each group's
//! accumulators in the same sequence — so group order and float
//! accumulation order match. Plan or column shapes the
//! vectorized kernels do not support (string or mixed-typed predicate
//! and join columns, float join keys) fall back to the row path on
//! reconstructed rows, which is trivially identical.

use std::cmp::Ordering;

use dt_query::{CmpOp, CompiledPredicate, OutputColumn, PredOperand, QueryPlan};
use dt_types::{ColumnBatch, DtError, DtResult, FxHashMap, FxHashSet, GroupCodes, Row, Value};

use crate::aggregate::AggState;
use crate::exec::{execute_window_rows, AggValue, WindowOutput};

/// Execute the plan over one window's columnar batch per stream
/// (`inputs[i]` holds stream `i`'s batch, FROM order). Bit-identical
/// to [`crate::exec::execute_window_ref`] over the same rows.
pub fn execute_window_cols(plan: &QueryPlan, inputs: &[&ColumnBatch]) -> DtResult<WindowOutput> {
    if inputs.len() != plan.streams.len() {
        return Err(DtError::engine(format!(
            "expected {} window inputs, got {}",
            plan.streams.len(),
            inputs.len()
        )));
    }
    match try_execute(plan, inputs) {
        Some(out) => Ok(out),
        None => {
            // Row-path adapter for unsupported shapes: rebuild the
            // exact rows and run the reference executor.
            let rows: Vec<Vec<Row>> = inputs.iter().map(|b| b.to_rows()).collect();
            let by_ref: Vec<Vec<&Row>> = rows.iter().map(|r| r.iter().collect()).collect();
            execute_window_rows(plan, &by_ref)
        }
    }
}

/// A numeric value drawn from a column or literal during predicate
/// evaluation; mirrors the `Int`/`Float` arms of `Value::numeric_cmp`.
#[derive(Clone, Copy)]
enum NumVal {
    I(i64),
    F(f64),
}

impl NumVal {
    #[inline]
    fn as_f64(self) -> f64 {
        match self {
            NumVal::I(i) => i as f64,
            NumVal::F(f) => f,
        }
    }
}

/// Exactly `Value::numeric_cmp` restricted to the numeric arms.
#[inline]
fn num_cmp(l: NumVal, r: NumVal) -> Option<Ordering> {
    use NumVal::*;
    match (l, r) {
        (I(a), I(b)) => Some(a.cmp(&b)),
        (I(a), F(b)) => (a as f64).partial_cmp(&b),
        (F(a), I(b)) => a.partial_cmp(&(b as f64)),
        (F(a), F(b)) => a.partial_cmp(&b),
    }
}

/// A numeric column resolved to its typed slice(s).
#[derive(Clone, Copy)]
enum NumColKind<'a> {
    Int(&'a [i64], Option<&'a [bool]>),
    Float(&'a [f64], Option<&'a [bool]>),
    /// Every row NULL (untyped column).
    AllNull,
}

impl NumColKind<'_> {
    #[inline]
    fn get(self, i: u32) -> Option<NumVal> {
        let i = i as usize;
        match self {
            NumColKind::Int(v, m) => m.is_none_or(|m| m[i]).then(|| NumVal::I(v[i])),
            NumColKind::Float(v, m) => m.is_none_or(|m| m[i]).then(|| NumVal::F(v[i])),
            NumColKind::AllNull => None,
        }
    }
}

/// Resolve stream-local column `(stream, local)` to a numeric slice;
/// `None` means the column is string- or mixed-typed (fall back).
fn num_col<'a>(inputs: &[&'a ColumnBatch], stream: usize, local: usize) -> Option<NumColKind<'a>> {
    let col = inputs[stream].column(local)?;
    if let Some((v, m)) = col.ints() {
        Some(NumColKind::Int(v, m))
    } else if let Some((v, m)) = col.floats() {
        Some(NumColKind::Float(v, m))
    } else if col.is_all_null() {
        Some(NumColKind::AllNull)
    } else {
        None
    }
}

/// One compiled predicate operand.
enum COperand<'a> {
    Col { stream: usize, kind: NumColKind<'a> },
    Lit(NumVal),
}

impl COperand<'_> {
    #[inline]
    fn get(&self, row_of: &impl Fn(usize) -> u32) -> Option<NumVal> {
        match self {
            COperand::Lit(v) => Some(*v),
            COperand::Col { stream, kind } => kind.get(row_of(*stream)),
        }
    }
}

/// A residual predicate compiled against resolved numeric columns.
struct CPred<'a> {
    left: COperand<'a>,
    op: CmpOp,
    right: COperand<'a>,
}

impl CPred<'_> {
    /// `row_of(stream)` supplies the row index under evaluation for
    /// each stream. NULL operands fail the predicate, matching
    /// `CompiledPredicate::eval`.
    #[inline]
    fn eval(&self, row_of: impl Fn(usize) -> u32) -> bool {
        let (Some(l), Some(r)) = (self.left.get(&row_of), self.right.get(&row_of)) else {
            return false;
        };
        match num_cmp(l, r) {
            Some(ord) => self.op.matches(ord),
            None => false,
        }
    }
}

/// Compact the selection `sel` to the rows that pass `p` (one pass per
/// predicate; conjuncts compose by successive compaction). An `Int`
/// column with no NULL mask against an `Int` literal — on either side,
/// via [`CmpOp::flipped`] — runs a typed loop with the operator matched
/// once per pass; every other operand pair evaluates [`CPred::eval`].
fn filter_pass(sel: &mut Vec<u32>, p: &CPred) {
    let typed = match (&p.left, &p.right) {
        (
            COperand::Col {
                kind: NumColKind::Int(v, None),
                ..
            },
            &COperand::Lit(NumVal::I(k)),
        ) => Some((*v, p.op, k)),
        (
            &COperand::Lit(NumVal::I(k)),
            COperand::Col {
                kind: NumColKind::Int(v, None),
                ..
            },
        ) => Some((*v, p.op.flipped(), k)),
        _ => None,
    };
    let Some((v, op, k)) = typed else {
        sel.retain(|&r| p.eval(|_| r));
        return;
    };
    match op {
        CmpOp::Eq => retain_int(sel, v, |a| a == k),
        CmpOp::Neq => retain_int(sel, v, |a| a != k),
        CmpOp::Lt => retain_int(sel, v, |a| a < k),
        CmpOp::Le => retain_int(sel, v, |a| a <= k),
        CmpOp::Gt => retain_int(sel, v, |a| a > k),
        CmpOp::Ge => retain_int(sel, v, |a| a >= k),
    }
}

/// The typed loop of [`filter_pass`], monomorphized per operator.
/// Branch-free compaction: every candidate is written at the cursor,
/// which advances by the predicate's `bool`, so a selective predicate
/// on noisy data costs no mispredicted branches. The cursor never
/// passes the read index, so the order and the kept rows are those of
/// `retain`.
#[inline]
fn retain_int(sel: &mut Vec<u32>, v: &[i64], keep: impl Fn(i64) -> bool) {
    let mut w = 0;
    for i in 0..sel.len() {
        let r = sel[i];
        sel[w] = r;
        w += keep(v[r as usize]) as usize;
    }
    sel.truncate(w);
}

/// Classification of one residual predicate.
enum PredCompile<'a> {
    /// Constant true: drop it.
    True,
    /// Constant false: the query emits nothing.
    False,
    /// All columns on one stream: filter that stream's selection.
    Local(usize, CPred<'a>),
    /// Spans streams: evaluate per join result.
    Emit(CPred<'a>),
}

/// Compile one predicate; `None` means an operand column is not
/// numerically typed (fall back to the row path, which handles e.g.
/// string comparisons).
fn compile_pred<'a>(
    plan: &QueryPlan,
    inputs: &[&'a ColumnBatch],
    p: &CompiledPredicate,
) -> Option<PredCompile<'a>> {
    let is_col = |o: &PredOperand| matches!(o, PredOperand::Col(_));
    if !is_col(&p.left) && !is_col(&p.right) {
        // Literal-only: evaluate once with the reference evaluator.
        return Some(if p.eval(&Row::new(Vec::new())) {
            PredCompile::True
        } else {
            PredCompile::False
        });
    }
    let mut streams: Vec<usize> = Vec::new();
    // Outer `None` = fall back; inner `None` = operand can never be
    // numerically comparable (NULL / non-numeric literal / all-NULL or
    // out-of-range column), making the predicate constant-false.
    let mut operand = |o: &PredOperand| -> Option<Option<COperand<'a>>> {
        match o {
            PredOperand::Lit(Value::Int(i)) => Some(Some(COperand::Lit(NumVal::I(*i)))),
            PredOperand::Lit(Value::Float(f)) => Some(Some(COperand::Lit(NumVal::F(*f)))),
            PredOperand::Lit(_) => Some(None),
            PredOperand::Col(c) => match plan.locate_column(*c) {
                None => Some(None),
                Some((s, local)) => match num_col(inputs, s, local) {
                    Some(NumColKind::AllNull) => Some(None),
                    Some(kind) => {
                        streams.push(s);
                        Some(Some(COperand::Col { stream: s, kind }))
                    }
                    None => None,
                },
            },
        }
    };
    let l = operand(&p.left)?;
    let r = operand(&p.right)?;
    let (Some(left), Some(right)) = (l, r) else {
        return Some(PredCompile::False);
    };
    let pred = CPred {
        left,
        op: p.op,
        right,
    };
    streams.sort_unstable();
    streams.dedup();
    Some(match streams.as_slice() {
        [s] => PredCompile::Local(*s, pred),
        _ => PredCompile::Emit(pred),
    })
}

/// An `i64` join-key column (or an all-NULL column, which never
/// produces a key — NULL never joins).
#[derive(Clone, Copy)]
struct IntKeyCol<'a> {
    col: Option<(&'a [i64], Option<&'a [bool]>)>,
}

impl IntKeyCol<'_> {
    #[inline]
    fn get(&self, i: u32) -> Option<i64> {
        let (v, m) = self.col?;
        let i = i as usize;
        m.is_none_or(|m| m[i]).then(|| v[i])
    }
}

/// The memoized [`GroupCodes`] of an integer (or all-NULL) GROUP BY
/// column; `None` → the generic grouping path.
fn group_codes<'a>(
    inputs: &[&'a ColumnBatch],
    stream: usize,
    local: usize,
) -> Option<&'a GroupCodes> {
    inputs[stream].column(local)?.group_codes()
}

/// Resolve a join-key column; columnar joins require integer keys
/// (`None` → row-path fallback).
fn int_key_col<'a>(
    inputs: &[&'a ColumnBatch],
    stream: usize,
    local: usize,
) -> Option<IntKeyCol<'a>> {
    let col = inputs[stream].column(local)?;
    if let Some(vm) = col.ints() {
        Some(IntKeyCol { col: Some(vm) })
    } else if col.is_all_null() {
        Some(IntKeyCol { col: None })
    } else {
        None
    }
}

/// One compiled join step: the hash index over stream `d+1`'s filtered
/// selection, probed by key columns of already-joined streams.
enum CStep<'a> {
    /// No condition: cross product with the selection.
    Cross,
    /// Single-column equijoin: counting-sort `(start, len)` ranges
    /// over one contiguous slot vector, FxHash-keyed by `i64`.
    Single {
        left: (usize, IntKeyCol<'a>),
        ranges: FxHashMap<i64, (u32, u32)>,
        slots: Vec<u32>,
    },
    /// Multi-column equijoin.
    Multi {
        lefts: Vec<(usize, IntKeyCol<'a>)>,
        map: FxHashMap<Vec<i64>, Vec<u32>>,
    },
}

/// Build the step index for stream `right_stream` over its selection.
fn compile_step<'a>(
    plan: &QueryPlan,
    inputs: &[&'a ColumnBatch],
    sel: &[u32],
    right_stream: usize,
    conds: &[(usize, usize)],
) -> Option<CStep<'a>> {
    if conds.is_empty() {
        return Some(CStep::Cross);
    }
    if let [(lc, rc)] = *conds {
        let (ls, llocal) = plan.locate_column(lc)?;
        let left = (ls, int_key_col(inputs, ls, llocal)?);
        let right = int_key_col(inputs, right_stream, rc)?;
        // Counting-sort placement over the filtered selection: two
        // passes, input order preserved within each key.
        let mut ranges: FxHashMap<i64, (u32, u32)> =
            FxHashMap::with_capacity_and_hasher(sel.len(), Default::default());
        for &r in sel {
            if let Some(k) = right.get(r) {
                ranges.entry(k).or_insert((0, 0)).1 += 1;
            }
        }
        let mut off = 0u32;
        for e in ranges.values_mut() {
            e.0 = off;
            off += e.1;
            e.1 = 0;
        }
        let mut slots = vec![0u32; off as usize];
        for &r in sel {
            if let Some(k) = right.get(r) {
                let e = ranges.get_mut(&k).expect("counted in pass 1");
                slots[(e.0 + e.1) as usize] = r;
                e.1 += 1;
            }
        }
        return Some(CStep::Single {
            left,
            ranges,
            slots,
        });
    }
    let mut lefts = Vec::with_capacity(conds.len());
    let mut rights = Vec::with_capacity(conds.len());
    for &(lc, rc) in conds {
        let (ls, llocal) = plan.locate_column(lc)?;
        lefts.push((ls, int_key_col(inputs, ls, llocal)?));
        rights.push(int_key_col(inputs, right_stream, rc)?);
    }
    let mut map: FxHashMap<Vec<i64>, Vec<u32>> = FxHashMap::default();
    'rows: for &r in sel {
        let mut key = Vec::with_capacity(rights.len());
        for col in &rights {
            match col.get(r) {
                Some(k) => key.push(k),
                None => continue 'rows,
            }
        }
        map.entry(key).or_default().push(r);
    }
    Some(CStep::Multi { lefts, map })
}

/// Depth-first enumeration of join results in the row path's exact
/// order: `cur[s]` holds the row index chosen for stream `s`.
struct Driver<'a, F: FnMut(&[u32])> {
    steps: &'a [CStep<'a>],
    sels: &'a [Vec<u32>],
    cur: Vec<u32>,
    emit: F,
}

impl<F: FnMut(&[u32])> Driver<'_, F> {
    /// Streams `0..=d` are assigned in `cur`; join stream `d+1` next.
    fn walk(&mut self, d: usize) {
        // Copy the shared refs out of `self` so the index borrows are
        // independent of `self.cur`'s mutation below.
        let steps = self.steps;
        let sels = self.sels;
        if d == steps.len() {
            (self.emit)(&self.cur);
            return;
        }
        match &steps[d] {
            CStep::Cross => {
                for &r in &sels[d + 1] {
                    self.cur[d + 1] = r;
                    self.walk(d + 1);
                }
            }
            CStep::Single {
                left,
                ranges,
                slots,
            } => {
                let Some(k) = left.1.get(self.cur[left.0]) else {
                    return;
                };
                let Some(&(start, len)) = ranges.get(&k) else {
                    return;
                };
                for &r in &slots[start as usize..(start + len) as usize] {
                    self.cur[d + 1] = r;
                    self.walk(d + 1);
                }
            }
            CStep::Multi { lefts, map } => {
                let mut key: Vec<i64> = Vec::with_capacity(lefts.len());
                for (s, col) in lefts {
                    match col.get(self.cur[*s]) {
                        Some(k) => key.push(k),
                        None => return,
                    }
                }
                let Some(matches) = map.get(key.as_slice()) else {
                    return;
                };
                for &r in matches {
                    self.cur[d + 1] = r;
                    self.walk(d + 1);
                }
            }
        }
    }
}

/// Vectorized execution; `None` when the plan/column shapes require
/// the row-path fallback.
fn try_execute(plan: &QueryPlan, inputs: &[&ColumnBatch]) -> Option<WindowOutput> {
    let n_streams = plan.streams.len();
    // Classify residual predicates.
    let mut local: Vec<Vec<CPred>> = (0..n_streams).map(|_| Vec::new()).collect();
    let mut emit_preds: Vec<CPred> = Vec::new();
    let mut never = false;
    for p in &plan.residual {
        match compile_pred(plan, inputs, p)? {
            PredCompile::True => {}
            PredCompile::False => never = true,
            PredCompile::Local(s, pred) => local[s].push(pred),
            PredCompile::Emit(pred) => emit_preds.push(pred),
        }
    }
    // Selection vectors: one compacting pass per local predicate.
    let sels: Vec<Vec<u32>> = inputs
        .iter()
        .enumerate()
        .map(|(s, batch)| {
            if never {
                return Vec::new();
            }
            let mut sel: Vec<u32> = (0..batch.len() as u32).collect();
            for p in &local[s] {
                filter_pass(&mut sel, p);
            }
            sel
        })
        .collect();
    // Join-step indexes over the filtered selections.
    let steps = &plan.join_graph.steps;
    let mut csteps: Vec<CStep> = Vec::with_capacity(steps.len());
    for (i, conds) in steps.iter().enumerate() {
        csteps.push(compile_step(plan, inputs, &sels[i + 1], i + 1, conds)?);
    }

    if plan.is_aggregating() || !plan.group_by.is_empty() {
        let mut group_cols: Vec<(usize, usize)> = Vec::with_capacity(plan.group_by.len());
        for &g in &plan.group_by {
            group_cols.push(plan.locate_column(g)?);
        }
        let fetches: Vec<AggFetch> = plan
            .aggregates
            .iter()
            .map(|a| match a.arg {
                None => AggFetch::ConstNone,
                Some(arg) => match plan.locate_column(arg) {
                    None => AggFetch::ConstNone,
                    Some((s, c)) => match num_col(inputs, s, c) {
                        Some(kind) => AggFetch::Num { stream: s, kind },
                        None => AggFetch::Generic {
                            stream: s,
                            local: c,
                        },
                    },
                },
            })
            .collect();
        let n_aggs = plan.aggregates.len();
        let fresh = || plan.aggregates.iter().map(AggState::new);
        // Single stream, grouped by one integer column or by none:
        // column at a time (see `fold_single_stream`).
        if n_streams == 1 {
            let key_col = match group_cols[..] {
                [] => Some(None),
                [(_, gc)] => group_codes(inputs, 0, gc).map(Some),
                _ => None,
            };
            if let Some(key_col) = key_col {
                return Some(fold_single_stream(
                    plan, inputs, &sels[0], key_col, &fetches,
                ));
            }
        }
        // Single integer GROUP BY column over a join — the paper-query
        // shape: group on the column's codes with no per-result `Value`
        // materialization or hashing. Per-group update order (and with
        // it every accumulated bit) is the driver order.
        if let [(gs, gc)] = group_cols[..] {
            if let Some(codes) = group_codes(inputs, gs, gc) {
                let mut slots = GroupSlots::new(codes);
                // Count-only refinement: with no emit predicates and
                // only argument-less aggregates (`COUNT(*)`), the last
                // join level's matches all land in the group chosen by
                // the outer streams (`gs` is not the last stream), so
                // the innermost enumeration collapses to adding the
                // match count. A group still only exists once it
                // receives a match (`m > 0`), exactly as in per-row
                // emission.
                if emit_preds.is_empty()
                    && gs < n_streams - 1
                    && plan.aggregates.iter().all(|a| a.arg.is_none())
                {
                    let (last, head) = csteps.split_last().expect("n_streams >= 2");
                    let last_sel_len = sels[n_streams - 1].len() as u64;
                    let mut counts: Vec<u64> = Vec::new();
                    run_driver(head, &sels, n_streams, |cur| {
                        let m = match last {
                            CStep::Cross => last_sel_len,
                            CStep::Single { left, ranges, .. } => left
                                .1
                                .get(cur[left.0])
                                .and_then(|k| ranges.get(&k))
                                .map_or(0, |&(_, len)| len as u64),
                            CStep::Multi { lefts, map } => {
                                let key: Option<Vec<i64>> =
                                    lefts.iter().map(|(s, col)| col.get(cur[*s])).collect();
                                key.and_then(|k| map.get(k.as_slice()))
                                    .map_or(0, |v| v.len() as u64)
                            }
                        };
                        if m == 0 {
                            return;
                        }
                        let slot = slots.slot(cur[gs]) as usize;
                        if slot == counts.len() {
                            counts.push(0);
                        }
                        counts[slot] += m;
                    });
                    let finished: FxHashMap<Row, Vec<AggValue>> = slots
                        .into_key_rows()
                        .zip(counts)
                        .map(|(k, n)| (k, vec![AggValue { value: n as f64, n }; n_aggs]))
                        .collect();
                    return Some(WindowOutput::Groups(finished));
                }
                let mut states: Vec<AggState> = Vec::new();
                run_driver(&csteps, &sels, n_streams, |cur| {
                    if !emit_preds.iter().all(|p| p.eval(|s| cur[s])) {
                        return;
                    }
                    let at = slots.slot(cur[gs]) as usize * n_aggs;
                    if at == states.len() {
                        states.extend(fresh());
                    }
                    for (st, fetch) in states[at..at + n_aggs].iter_mut().zip(&fetches) {
                        st.update_value(fetch.get(cur, inputs));
                    }
                });
                return Some(finish_slots(slots.into_key_rows(), &states, n_aggs));
            }
        }
        let mut groups: FxHashMap<Row, Vec<AggState>> = FxHashMap::default();
        let mut key_scratch: Vec<Value> = Vec::with_capacity(plan.group_by.len());
        run_driver(&csteps, &sels, n_streams, |cur| {
            if !emit_preds.iter().all(|p| p.eval(|s| cur[s])) {
                return;
            }
            key_scratch.clear();
            for &(s, c) in &group_cols {
                key_scratch.push(inputs[s].value(cur[s] as usize, c));
            }
            let states = match groups.get_mut(key_scratch.as_slice()) {
                Some(states) => states,
                None => groups
                    .entry(Row::new(std::mem::take(&mut key_scratch)))
                    .or_insert_with(|| fresh().collect()),
            };
            for (st, fetch) in states.iter_mut().zip(&fetches) {
                st.update_value(fetch.get(cur, inputs));
            }
        });
        if groups.is_empty() && plan.group_by.is_empty() {
            groups.insert(
                Row::new(vec![]),
                plan.aggregates.iter().map(AggState::new).collect(),
            );
        }
        let finished = groups
            .into_iter()
            .map(|(k, states)| (k, agg_values(&states)))
            .collect();
        Some(WindowOutput::Groups(finished))
    } else {
        let mut out_cols: Vec<(usize, usize)> = Vec::with_capacity(plan.outputs.len());
        for o in &plan.outputs {
            match o {
                OutputColumn::Column { index, .. } => out_cols.push(plan.locate_column(*index)?),
                OutputColumn::Aggregate { .. } => {
                    unreachable!("aggregate output in non-aggregating plan")
                }
            }
        }
        let mut rows: Vec<Row> = Vec::new();
        run_driver(&csteps, &sels, n_streams, |cur| {
            if !emit_preds.iter().all(|p| p.eval(|s| cur[s])) {
                return;
            }
            rows.push(Row::new(
                out_cols
                    .iter()
                    .map(|&(s, c)| inputs[s].value(cur[s] as usize, c))
                    .collect(),
            ));
        });
        if plan.distinct {
            let mut seen = FxHashSet::default();
            rows.retain(|r| seen.insert(r.clone()));
        }
        Some(WindowOutput::Rows(rows))
    }
}

/// How one aggregate's argument is read per join result.
enum AggFetch<'a> {
    /// `COUNT(*)` or an out-of-range argument: no numeric value (the
    /// [`AggState`] decides whether that still counts the row).
    ConstNone,
    /// Typed numeric column slice.
    Num { stream: usize, kind: NumColKind<'a> },
    /// Untyped column: rebuild the [`Value`] and convert, exactly as
    /// the row path does.
    Generic { stream: usize, local: usize },
}

impl AggFetch<'_> {
    #[inline]
    fn get(&self, cur: &[u32], inputs: &[&ColumnBatch]) -> Option<f64> {
        match self {
            AggFetch::ConstNone => None,
            AggFetch::Num { stream, kind } => kind.get(cur[*stream]).map(NumVal::as_f64),
            AggFetch::Generic { stream, local } => inputs[*stream]
                .value(cur[*stream] as usize, *local)
                .as_f64(),
        }
    }
}

/// Group-slot assignment on an integer GROUP BY column: slots number
/// the groups in first-appearance order over the rows passed to
/// [`GroupSlots::slot`], and NULL keys share one slot. A dense remap
/// from the column's [`GroupCodes`] to slots replaces a per-query hash
/// of the keys.
struct GroupSlots<'a> {
    codes: &'a GroupCodes,
    /// Slot of each code, [`UNSEEN`] until the code's first row.
    remap: Vec<u32>,
    keys: Vec<Option<i64>>,
}

/// A code no visited row has carried yet.
const UNSEEN: u32 = u32::MAX;

impl<'a> GroupSlots<'a> {
    fn new(codes: &'a GroupCodes) -> Self {
        GroupSlots {
            codes,
            remap: vec![UNSEEN; codes.keys().len()],
            keys: Vec::new(),
        }
    }

    /// The slot of row `row`'s key, opening the next one on first sight.
    #[inline]
    fn slot(&mut self, row: u32) -> u32 {
        let code = self.codes.codes()[row as usize] as usize;
        let slot = &mut self.remap[code];
        if *slot == UNSEEN {
            *slot = self.keys.len() as u32;
            self.keys.push(self.codes.keys()[code]);
        }
        *slot
    }

    /// Each slot's group key as a result-map key, in slot order.
    fn into_key_rows(self) -> impl ExactSizeIterator<Item = Row> {
        self.keys
            .into_iter()
            .map(|k| Row::new(vec![k.map_or(Value::Null, Value::Int)]))
    }
}

/// Finished values of one group's aggregate states.
fn agg_values(states: &[AggState]) -> Vec<AggValue> {
    states
        .iter()
        .map(|s| AggValue {
            value: s.finish(),
            n: s.contributors(),
        })
        .collect()
}

/// Finish a flat slot arena (`n_aggs` states per slot, in slot order)
/// into the result map, slot `i` keyed by the `i`-th of `keys`.
fn finish_slots(
    keys: impl ExactSizeIterator<Item = Row>,
    states: &[AggState],
    n_aggs: usize,
) -> WindowOutput {
    let groups = keys
        .enumerate()
        .map(|(slot, k)| (k, agg_values(&states[slot * n_aggs..(slot + 1) * n_aggs])))
        .collect();
    WindowOutput::Groups(groups)
}

/// Grouped aggregation over one stream, column at a time. One pass
/// gives each selected row its group slot; then each aggregate folds
/// its argument column over the `(slot, row)` pairs into one flat
/// state arena. Groups are numbered in first-appearance order and each
/// state still folds its rows in selection order, so every group and
/// every accumulated bit match the per-row path. `key_col` holds the
/// integer GROUP BY column's codes, or is `None` for a global
/// aggregate, whose one group exists even when nothing is selected.
fn fold_single_stream(
    plan: &QueryPlan,
    inputs: &[&ColumnBatch],
    sel: &[u32],
    key_col: Option<&GroupCodes>,
    fetches: &[AggFetch],
) -> WindowOutput {
    let n_aggs = fetches.len();
    let (keys, slots): (Vec<Row>, Vec<u32>) = match key_col {
        None => (vec![Row::new(Vec::new())], vec![0; sel.len()]),
        Some(codes) => {
            let mut groups = GroupSlots::new(codes);
            let slots = sel.iter().map(|&r| groups.slot(r)).collect();
            (groups.into_key_rows().collect(), slots)
        }
    };
    let mut states: Vec<AggState> = Vec::with_capacity(keys.len() * n_aggs);
    for _ in 0..keys.len() {
        states.extend(plan.aggregates.iter().map(AggState::new));
    }
    for (j, fetch) in fetches.iter().enumerate() {
        match *fetch {
            AggFetch::Num {
                kind: NumColKind::Int(v, None),
                ..
            } => fold_agg(&mut states, n_aggs, j, &slots, sel, |r| {
                Some(v[r as usize] as f64)
            }),
            AggFetch::Num {
                kind: NumColKind::Float(v, None),
                ..
            } => fold_agg(&mut states, n_aggs, j, &slots, sel, |r| Some(v[r as usize])),
            _ => fold_agg(&mut states, n_aggs, j, &slots, sel, |r| {
                fetch.get(&[r], inputs)
            }),
        }
    }
    finish_slots(keys.into_iter(), &states, n_aggs)
}

/// Fold aggregate `j`'s argument `arg(row)` into `states[slot *
/// n_aggs + j]` for each `(slot, row)` pair, in pair order.
#[inline]
fn fold_agg(
    states: &mut [AggState],
    n_aggs: usize,
    j: usize,
    slots: &[u32],
    sel: &[u32],
    arg: impl Fn(u32) -> Option<f64>,
) {
    for (&s, &r) in slots.iter().zip(sel) {
        states[s as usize * n_aggs + j].update_value(arg(r));
    }
}

/// Drive every selected stream-0 row through the probe chain.
fn run_driver(csteps: &[CStep], sels: &[Vec<u32>], n_streams: usize, mut emit: impl FnMut(&[u32])) {
    let mut driver = Driver {
        steps: csteps,
        sels,
        cur: vec![0u32; n_streams],
        emit: &mut emit,
    };
    for &r in &sels[0] {
        driver.cur[0] = r;
        driver.walk(0);
    }
}
