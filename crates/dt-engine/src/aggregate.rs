//! Aggregate accumulators: one [`AggState`] per (group, aggregate)
//! that the window executors fold rows into.

use dt_query::{AggSpec, Aggregate};
use dt_types::{Row, Value};

/// Incremental state for one aggregate over one group.
#[derive(Debug, Clone)]
pub struct AggState {
    func: Aggregate,
    arg: Option<usize>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl AggState {
    /// Fresh state for an aggregate spec.
    pub fn new(spec: &AggSpec) -> Self {
        AggState {
            func: spec.func,
            arg: spec.arg,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Fold one combined row into the state.
    ///
    /// `COUNT(*)` counts every row; the other aggregates (and
    /// `COUNT(col)`) skip rows whose argument is NULL or non-numeric,
    /// following SQL semantics.
    pub fn update(&mut self, row: &Row) {
        let v = self
            .arg
            .and_then(|arg| row.get(arg).and_then(Value::as_f64));
        self.update_value(v);
    }

    /// Fold one already-fetched argument value — the columnar
    /// executor's entry point ([`crate::batch_exec`] reads arguments
    /// straight from typed column slices). `None` means the argument
    /// was NULL or non-numeric; `COUNT(*)` (no argument) counts the
    /// row regardless.
    #[inline]
    pub fn update_value(&mut self, v: Option<f64>) {
        if self.arg.is_none() {
            // COUNT(*).
            self.count += 1;
            return;
        }
        let Some(v) = v else {
            return;
        };
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Number of rows that contributed to this aggregate (all rows for
    /// `COUNT(*)`, non-NULL-argument rows otherwise). The merge stage
    /// uses this to re-weight `AVG` when combining with an estimate.
    pub fn contributors(&self) -> u64 {
        self.count
    }

    /// Finish into the aggregate's numeric value.
    ///
    /// Empty-input conventions: `COUNT` → 0; `SUM` → 0; `AVG`/`MIN`/
    /// `MAX` → NaN (callers treat NaN groups as absent — SQL would
    /// return NULL).
    pub fn finish(&self) -> f64 {
        match self.func {
            Aggregate::Count => self.count as f64,
            Aggregate::Sum => self.sum,
            Aggregate::Avg => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.sum / self.count as f64
                }
            }
            Aggregate::Min => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.min
                }
            }
            Aggregate::Max => {
                if self.count == 0 {
                    f64::NAN
                } else {
                    self.max
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(func: Aggregate, arg: Option<usize>) -> AggSpec {
        AggSpec {
            func,
            arg,
            name: "x".into(),
        }
    }

    #[test]
    fn count_star_counts_everything() {
        let mut s = AggState::new(&spec(Aggregate::Count, None));
        s.update(&Row::from_ints(&[1]));
        s.update(&Row::new(vec![Value::Null]));
        assert_eq!(s.finish(), 2.0);
    }

    #[test]
    fn count_col_skips_null() {
        let mut s = AggState::new(&spec(Aggregate::Count, Some(0)));
        s.update(&Row::from_ints(&[1]));
        s.update(&Row::new(vec![Value::Null]));
        s.update(&Row::new(vec![Value::Str("x".into())]));
        assert_eq!(s.finish(), 1.0);
    }

    #[test]
    fn sum_avg_min_max() {
        let specs = [
            (Aggregate::Sum, 30.0),
            (Aggregate::Avg, 10.0),
            (Aggregate::Min, 5.0),
            (Aggregate::Max, 20.0),
        ];
        for (func, expected) in specs {
            let mut s = AggState::new(&spec(func, Some(0)));
            for v in [5i64, 5, 20] {
                s.update(&Row::from_ints(&[v]));
            }
            assert_eq!(s.finish(), expected, "{func:?}");
        }
    }

    #[test]
    fn empty_conventions() {
        assert_eq!(AggState::new(&spec(Aggregate::Count, None)).finish(), 0.0);
        assert_eq!(AggState::new(&spec(Aggregate::Sum, Some(0))).finish(), 0.0);
        assert!(AggState::new(&spec(Aggregate::Avg, Some(0)))
            .finish()
            .is_nan());
        assert!(AggState::new(&spec(Aggregate::Min, Some(0)))
            .finish()
            .is_nan());
        assert!(AggState::new(&spec(Aggregate::Max, Some(0)))
            .finish()
            .is_nan());
    }

    #[test]
    fn floats_mix_with_ints() {
        let mut s = AggState::new(&spec(Aggregate::Sum, Some(0)));
        s.update(&Row::new(vec![Value::Float(1.5)]));
        s.update(&Row::from_ints(&[2]));
        assert_eq!(s.finish(), 3.5);
    }
}
