//! Columnar window batches.
//!
//! A [`ColumnBatch`] stores a window's rows as one typed vector per
//! field — `i64`, `f64`, or dictionary-encoded string columns, each
//! with an optional validity mask — instead of a `Vec<Row>`. The
//! engine's vectorized kernels (filter → selection vector, join-key
//! hashing, synopsis bucket arithmetic) run over these contiguous
//! vectors; see `DESIGN.md` §13.
//!
//! The representation is *lossless*: [`ColumnBatch::value`] rebuilds
//! exactly the [`Value`] that was pushed (float bit patterns included),
//! so the row-oriented entry points can remain thin adapters with
//! bit-identical results.
//!
//! Typing is inferred per column from the data actually pushed:
//!
//! * a column starts untyped (all-NULL);
//! * the first non-NULL value fixes the type (`Int` / `Float` /
//!   `Str`);
//! * a later value of a different type degrades that column to a
//!   [`Column::is_mixed`] fallback holding verbatim [`Value`]s, which
//!   the vectorized kernels decline (they fall back to the row path).
//!
//! An integer column also memoizes its [`GroupCodes`]: the dense
//! numbering every GROUP BY over that column reads, computed on first
//! use and shared by every query closing the same batch.

use std::sync::OnceLock;

use crate::hash::FxHashMap;
use crate::row::Row;
use crate::value::Value;

/// Typed storage behind one [`Column`].
#[derive(Debug, Clone)]
enum ColData {
    /// No non-NULL value seen yet; every row so far is NULL.
    AllNull,
    /// 64-bit integers.
    Int(Vec<i64>),
    /// 64-bit floats, stored with their exact bit patterns.
    Float(Vec<f64>),
    /// Dictionary-encoded strings: `codes[i]` indexes `dict`.
    Str {
        dict: Vec<String>,
        index: FxHashMap<String, u32>,
        codes: Vec<u32>,
    },
    /// Type-mixed fallback: values stored verbatim.
    Mixed(Vec<Value>),
}

/// The distinct keys of an integer (or all-NULL) column, numbered in
/// first-appearance order over the whole column: `codes()[i]` is row
/// `i`'s code and `keys()[code]` its key, with every NULL row sharing
/// one code whose key is `None`. Built once per column by
/// [`Column::group_codes`].
#[derive(Debug, Clone)]
pub struct GroupCodes {
    codes: Vec<u32>,
    keys: Vec<Option<i64>>,
}

impl GroupCodes {
    /// Number `vals` (row `i` NULL where `mask[i] == false`).
    fn number(vals: &[i64], mask: Option<&[bool]>) -> Self {
        let mut index: FxHashMap<i64, u32> = FxHashMap::default();
        let mut null: Option<u32> = None;
        let mut keys: Vec<Option<i64>> = Vec::new();
        let codes = (0..vals.len())
            .map(|i| {
                let key = mask.is_none_or(|m| m[i]).then(|| vals[i]);
                let open = |keys: &mut Vec<Option<i64>>| {
                    keys.push(key);
                    (keys.len() - 1) as u32
                };
                match key {
                    Some(k) => *index.entry(k).or_insert_with(|| open(&mut keys)),
                    None => *null.get_or_insert_with(|| open(&mut keys)),
                }
            })
            .collect();
        GroupCodes { codes, keys }
    }

    /// One code per row, in row order.
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    /// The key of each code, in code (first-appearance) order.
    pub fn keys(&self) -> &[Option<i64>] {
        &self.keys
    }
}

/// One column of a [`ColumnBatch`]: typed values plus an optional
/// validity mask (`validity[i] == false` marks row `i` NULL; a `None`
/// mask means no NULLs so far). Typed variants keep a placeholder
/// payload at NULL positions so the value vector stays index-aligned.
#[derive(Debug, Clone)]
pub struct Column {
    data: ColData,
    validity: Option<Vec<bool>>,
    /// Memoized [`Column::group_codes`]; every push clears it.
    group_codes: OnceLock<GroupCodes>,
}

impl Column {
    /// An empty, untyped column.
    fn new() -> Self {
        Column {
            data: ColData::AllNull,
            validity: None,
            group_codes: OnceLock::new(),
        }
    }

    /// Number of rows in the column.
    pub fn len(&self) -> usize {
        match &self.data {
            ColData::AllNull => self.validity.as_ref().map_or(0, Vec::len),
            ColData::Int(v) => v.len(),
            ColData::Float(v) => v.len(),
            ColData::Str { codes, .. } => codes.len(),
            ColData::Mixed(v) => v.len(),
        }
    }

    /// True if the column has no rows.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// True if every row so far is NULL (including the empty column).
    pub fn is_all_null(&self) -> bool {
        matches!(self.data, ColData::AllNull)
    }

    /// True if the column degraded to the verbatim-`Value` fallback.
    pub fn is_mixed(&self) -> bool {
        matches!(self.data, ColData::Mixed(_))
    }

    /// The typed `i64` vector and validity mask, when this column is
    /// integer-typed. `None` mask means every row is valid.
    pub fn ints(&self) -> Option<(&[i64], Option<&[bool]>)> {
        match &self.data {
            ColData::Int(v) => Some((v.as_slice(), self.validity.as_deref())),
            _ => None,
        }
    }

    /// The typed `f64` vector and validity mask, when this column is
    /// float-typed. `None` mask means every row is valid.
    pub fn floats(&self) -> Option<(&[f64], Option<&[bool]>)> {
        match &self.data {
            ColData::Float(v) => Some((v.as_slice(), self.validity.as_deref())),
            _ => None,
        }
    }

    /// The column's [`GroupCodes`] when it is integer-typed or
    /// all-NULL (`None` for float, string and mixed columns). Computed
    /// by one hash pass on first call and cached until the next push,
    /// so every query grouping on this column of one batch shares it.
    pub fn group_codes(&self) -> Option<&GroupCodes> {
        let number = || match &self.data {
            ColData::Int(v) => GroupCodes::number(v, self.validity.as_deref()),
            _ => GroupCodes {
                codes: vec![0; self.len()],
                keys: if self.is_empty() { vec![] } else { vec![None] },
            },
        };
        match self.data {
            ColData::Int(_) | ColData::AllNull => Some(self.group_codes.get_or_init(number)),
            _ => None,
        }
    }

    /// True if row `i` holds a non-NULL value.
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn is_valid(&self, i: usize) -> bool {
        assert!(i < self.len(), "row {i} out of range");
        self.validity.as_ref().is_none_or(|v| v[i])
    }

    /// Rebuild the exact [`Value`] stored at row `i` (float bits
    /// preserved; strings cloned out of the dictionary).
    ///
    /// # Panics
    /// Panics if `i >= self.len()`.
    pub fn value(&self, i: usize) -> Value {
        if let Some(validity) = &self.validity {
            if !validity[i] {
                return Value::Null;
            }
        }
        match &self.data {
            ColData::AllNull => Value::Null,
            ColData::Int(v) => Value::Int(v[i]),
            ColData::Float(v) => Value::Float(v[i]),
            ColData::Str { dict, codes, .. } => Value::Str(dict[codes[i] as usize].clone()),
            ColData::Mixed(v) => v[i].clone(),
        }
    }

    /// Mark the current row valid/invalid, materializing the mask on
    /// the first NULL.
    fn push_validity(&mut self, len: usize, valid: bool) {
        match (&mut self.validity, valid) {
            (Some(mask), v) => mask.push(v),
            (None, true) => {}
            (None, false) => {
                let mut mask = vec![true; len];
                mask.push(false);
                self.validity = Some(mask);
            }
        }
    }

    /// Reserve room for `additional` more rows in the typed vector
    /// and the validity mask, if there is one.
    fn reserve(&mut self, additional: usize) {
        match &mut self.data {
            ColData::AllNull => {}
            ColData::Int(v) => v.reserve(additional),
            ColData::Float(v) => v.reserve(additional),
            ColData::Str { codes, .. } => codes.reserve(additional),
            ColData::Mixed(v) => v.reserve(additional),
        }
        if let Some(mask) = &mut self.validity {
            mask.reserve(additional);
        }
    }

    /// Append `v` as row `len` (the column's current length).
    fn push(&mut self, v: Value, len: usize) {
        // A grown column must never serve the old rows' codes.
        self.group_codes.take();
        match (&mut self.data, v) {
            // NULL: extend the mask and keep a placeholder payload so
            // the typed vector stays index-aligned.
            (data, Value::Null) => {
                match data {
                    ColData::AllNull => {}
                    ColData::Int(vals) => vals.push(0),
                    ColData::Float(vals) => vals.push(0.0),
                    ColData::Str { codes, .. } => codes.push(0),
                    ColData::Mixed(vals) => {
                        // Mixed stores NULL verbatim; no mask needed.
                        vals.push(Value::Null);
                        return;
                    }
                }
                self.push_validity(len, false);
            }
            (ColData::Int(vals), Value::Int(i)) => {
                vals.push(i);
                self.push_validity(len, true);
            }
            (ColData::Float(vals), Value::Float(f)) => {
                vals.push(f);
                self.push_validity(len, true);
            }
            (ColData::Str { dict, index, codes }, Value::Str(s)) => {
                let code = match index.get(&s) {
                    Some(&c) => c,
                    None => {
                        let c = dict.len() as u32;
                        dict.push(s.clone());
                        index.insert(s, c);
                        c
                    }
                };
                codes.push(code);
                self.push_validity(len, true);
            }
            (ColData::Mixed(vals), v) => vals.push(v),
            // First non-NULL value: fix the column's type (all prior
            // rows are NULL placeholders).
            (data @ ColData::AllNull, v) => {
                *data = match v {
                    Value::Int(i) => {
                        let mut vals = vec![0i64; len];
                        vals.push(i);
                        ColData::Int(vals)
                    }
                    Value::Float(f) => {
                        let mut vals = vec![0.0f64; len];
                        vals.push(f);
                        ColData::Float(vals)
                    }
                    Value::Str(s) => {
                        let mut codes = vec![0u32; len];
                        codes.push(0);
                        let mut index = FxHashMap::default();
                        index.insert(s.clone(), 0);
                        ColData::Str {
                            dict: vec![s],
                            index,
                            codes,
                        }
                    }
                    // Bool (and anything else untyped) goes straight
                    // to the verbatim fallback.
                    other => {
                        let mut vals = vec![Value::Null; len];
                        vals.push(other);
                        self.validity = None;
                        ColData::Mixed(vals)
                    }
                };
                if !matches!(self.data, ColData::Mixed(_)) {
                    self.push_validity(len, true);
                }
            }
            // Type clash: degrade the whole column to the verbatim
            // fallback, rebuilding prior rows exactly.
            (_, v) => {
                let mut vals: Vec<Value> = (0..len).map(|i| self.value(i)).collect();
                vals.push(v);
                self.data = ColData::Mixed(vals);
                self.validity = None;
            }
        }
    }
}

/// A window's rows stored column-wise: `arity` [`Column`]s of equal
/// length. Rows shorter than `arity` are NULL-padded on push; extra
/// trailing values are ignored (mirroring [`Row::project_padded`]'s
/// treatment of missing columns).
#[derive(Debug, Clone)]
pub struct ColumnBatch {
    len: usize,
    columns: Vec<Column>,
}

impl ColumnBatch {
    /// An empty batch with `arity` columns.
    pub fn new(arity: usize) -> Self {
        ColumnBatch {
            len: 0,
            columns: (0..arity).map(|_| Column::new()).collect(),
        }
    }

    /// Build a batch of the given `arity` from rows (cloning values).
    /// Equal to pushing each row with [`ColumnBatch::push_row`]; each
    /// column reserves room for the remaining rows once its type is
    /// fixed, and an integer into an unmasked integer column skips the
    /// generic push.
    pub fn from_rows(arity: usize, rows: &[Row]) -> Self {
        let mut batch = ColumnBatch::new(arity);
        for (i, row) in rows.iter().enumerate() {
            for (c, col) in batch.columns.iter_mut().enumerate() {
                let v = row.get(c);
                if let (ColData::Int(vals), None, Some(&Value::Int(x))) =
                    (&mut col.data, &col.validity, v)
                {
                    vals.push(x);
                    continue;
                }
                let untyped = col.is_all_null();
                col.push(v.cloned().unwrap_or(Value::Null), i);
                if untyped && !col.is_all_null() {
                    col.reserve(rows.len() - i - 1);
                }
            }
            batch.len += 1;
        }
        batch
    }

    /// Number of columns.
    pub fn arity(&self) -> usize {
        self.columns.len()
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if the batch has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The column at index `c`, if `c < arity`.
    pub fn column(&self, c: usize) -> Option<&Column> {
        self.columns.get(c)
    }

    /// Append one row, cloning its values.
    pub fn push_row(&mut self, row: &Row) {
        for (c, col) in self.columns.iter_mut().enumerate() {
            let v = row.get(c).cloned().unwrap_or(Value::Null);
            col.push(v, self.len);
        }
        self.len += 1;
    }

    /// Append one row, moving its values (avoids cloning strings).
    pub fn push_row_owned(&mut self, row: Row) {
        let mut values = row.into_values().into_iter();
        for col in self.columns.iter_mut() {
            let v = values.next().unwrap_or(Value::Null);
            col.push(v, self.len);
        }
        self.len += 1;
    }

    /// Rebuild the exact [`Value`] at (`row`, `col`); NULL when `col`
    /// is out of range (mirroring `Row::get` on a short row).
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    pub fn value(&self, row: usize, col: usize) -> Value {
        match self.columns.get(col) {
            Some(c) => c.value(row),
            None => Value::Null,
        }
    }

    /// Rebuild row `row` as an owned [`Row`] of `arity` values.
    ///
    /// # Panics
    /// Panics if `row >= self.len()`.
    pub fn row(&self, row: usize) -> Row {
        Row::new(self.columns.iter().map(|c| c.value(row)).collect())
    }

    /// Rebuild every row (the row-path adapter boundary).
    pub fn to_rows(&self) -> Vec<Row> {
        (0..self.len).map(|i| self.row(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn v(vals: Vec<Value>) -> Row {
        Row::new(vals)
    }

    #[test]
    fn int_column_roundtrips() {
        let rows = vec![Row::from_ints(&[1, 2]), Row::from_ints(&[3, 4])];
        let b = ColumnBatch::from_rows(2, &rows);
        assert_eq!(b.len(), 2);
        assert_eq!(b.to_rows(), rows);
        let (ints, validity) = b.column(0).unwrap().ints().unwrap();
        assert_eq!(ints, &[1, 3]);
        assert!(validity.is_none());
    }

    #[test]
    fn nulls_set_validity_and_roundtrip() {
        let rows = vec![
            v(vec![Value::Null]),
            v(vec![Value::Int(7)]),
            v(vec![Value::Null]),
        ];
        let b = ColumnBatch::from_rows(1, &rows);
        assert_eq!(b.to_rows(), rows);
        let (ints, validity) = b.column(0).unwrap().ints().unwrap();
        assert_eq!(ints.len(), 3);
        assert_eq!(ints[1], 7);
        assert_eq!(validity.unwrap(), &[false, true, false]);
    }

    #[test]
    fn all_null_column_stays_untyped() {
        let rows = vec![v(vec![Value::Null]), v(vec![Value::Null])];
        let b = ColumnBatch::from_rows(1, &rows);
        assert!(b.column(0).unwrap().is_all_null());
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn float_bits_preserved() {
        let rows = vec![v(vec![Value::Float(-0.0)]), v(vec![Value::Float(f64::NAN)])];
        let b = ColumnBatch::from_rows(1, &rows);
        let (floats, _) = b.column(0).unwrap().floats().unwrap();
        assert_eq!(floats[0].to_bits(), (-0.0f64).to_bits());
        assert!(floats[1].is_nan());
    }

    #[test]
    fn string_dictionary_roundtrips() {
        let rows = vec![
            v(vec![Value::Str("a".into())]),
            v(vec![Value::Str("b".into())]),
            v(vec![Value::Str("a".into())]),
            v(vec![Value::Null]),
        ];
        let b = ColumnBatch::from_rows(1, &rows);
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn type_clash_degrades_to_mixed_exactly() {
        let rows = vec![
            v(vec![Value::Int(1)]),
            v(vec![Value::Null]),
            v(vec![Value::Float(2.5)]),
            v(vec![Value::Str("x".into())]),
        ];
        let b = ColumnBatch::from_rows(1, &rows);
        assert!(b.column(0).unwrap().is_mixed());
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn bool_goes_to_mixed() {
        let rows = vec![v(vec![Value::Bool(true)]), v(vec![Value::Bool(false)])];
        let b = ColumnBatch::from_rows(1, &rows);
        assert!(b.column(0).unwrap().is_mixed());
        assert_eq!(b.to_rows(), rows);
    }

    #[test]
    fn short_rows_null_pad_and_long_rows_truncate() {
        let rows = vec![Row::from_ints(&[1]), Row::from_ints(&[2, 3, 4])];
        let b = ColumnBatch::from_rows(2, &rows);
        assert_eq!(
            b.to_rows(),
            vec![
                v(vec![Value::Int(1), Value::Null]),
                v(vec![Value::Int(2), Value::Int(3)]),
            ]
        );
    }

    #[test]
    fn push_row_owned_matches_push_row() {
        let rows = vec![
            v(vec![Value::Str("s".into()), Value::Int(1)]),
            v(vec![Value::Null, Value::Float(0.5)]),
        ];
        let mut a = ColumnBatch::new(2);
        let mut b = ColumnBatch::new(2);
        for r in &rows {
            a.push_row(r);
            b.push_row_owned(r.clone());
        }
        assert_eq!(a.to_rows(), b.to_rows());
        assert_eq!(a.to_rows(), rows);
    }

    #[test]
    fn group_codes_number_keys_in_first_appearance_order() {
        let rows = vec![
            v(vec![Value::Int(5)]),
            v(vec![Value::Null]),
            v(vec![Value::Int(-1)]),
            v(vec![Value::Int(5)]),
            v(vec![Value::Null]),
        ];
        let b = ColumnBatch::from_rows(1, &rows);
        let gc = b.column(0).unwrap().group_codes().unwrap();
        assert_eq!(gc.codes(), &[0, 1, 2, 0, 1]);
        assert_eq!(gc.keys(), &[Some(5), None, Some(-1)]);
        // All-NULL columns share one code; non-integer columns have none.
        let nulls = ColumnBatch::from_rows(1, &[v(vec![Value::Null]), v(vec![Value::Null])]);
        let gc = nulls.column(0).unwrap().group_codes().unwrap();
        assert_eq!((gc.codes(), gc.keys()), (&[0, 0][..], &[None][..]));
        let floats = ColumnBatch::from_rows(1, &[v(vec![Value::Float(1.0)])]);
        assert!(floats.column(0).unwrap().group_codes().is_none());
        assert!(ColumnBatch::new(1)
            .column(0)
            .unwrap()
            .group_codes()
            .unwrap()
            .keys()
            .is_empty());
    }

    #[test]
    fn group_codes_see_rows_pushed_after_a_read() {
        let mut b = ColumnBatch::from_rows(1, &[Row::from_ints(&[3]), Row::from_ints(&[4])]);
        assert_eq!(b.column(0).unwrap().group_codes().unwrap().codes(), &[0, 1]);
        b.push_row(&Row::from_ints(&[9]));
        b.push_row_owned(Row::from_ints(&[3]));
        let gc = b.column(0).unwrap().group_codes().unwrap();
        assert_eq!(gc.codes(), &[0, 1, 2, 0]);
        assert_eq!(gc.keys(), &[Some(3), Some(4), Some(9)]);
        // A NULL pushed later also shows, as its own code.
        b.push_row(&v(vec![Value::Null]));
        let gc = b.column(0).unwrap().group_codes().unwrap();
        assert_eq!(gc.codes(), &[0, 1, 2, 0, 3]);
        assert_eq!(gc.keys(), &[Some(3), Some(4), Some(9), None]);
    }

    #[test]
    fn from_rows_matches_push_row_on_every_shape() {
        let rows = vec![
            v(vec![Value::Null, Value::Int(1), Value::Int(2)]),
            v(vec![Value::Int(3), Value::Null, Value::Str("x".into())]),
            v(vec![Value::Int(4), Value::Int(5)]),
            v(vec![Value::Int(6), Value::Int(7), Value::Float(0.5)]),
        ];
        let mut pushed = ColumnBatch::new(3);
        for r in &rows {
            pushed.push_row(r);
        }
        let built = ColumnBatch::from_rows(3, &rows);
        assert_eq!(built.to_rows(), pushed.to_rows());
        for c in 0..3 {
            let (a, b) = (built.column(c).unwrap(), pushed.column(c).unwrap());
            assert_eq!(a.ints(), b.ints());
            assert_eq!(a.is_mixed(), b.is_mixed());
        }
    }

    #[test]
    fn empty_batch_has_arity() {
        let b = ColumnBatch::new(3);
        assert_eq!(b.arity(), 3);
        assert!(b.is_empty());
        assert!(b.to_rows().is_empty());
    }
}
