//! Engine-side instruments: window-execution latency and join
//! fan-out.
//!
//! The execution functions in [`crate::exec`] are stateless, so the
//! instruments live in a small bundle the caller owns (one per
//! executor) and threads through. A default-constructed bundle is
//! fully disabled — every handle is a no-op — so uninstrumented
//! callers pay one branch per window close.

use dt_obs::{Histogram, MetricsRegistry};
use dt_query::QueryPlan;
use dt_types::{ColumnBatch, DtResult};

use crate::batch_exec::execute_window_cols;
use crate::exec::WindowOutput;

/// Instruments for exact window execution.
#[derive(Debug, Clone, Default)]
pub struct ExecMetrics {
    /// Latency of one exact window execution (join + aggregate), µs.
    pub window_exec_us: Histogram,
    /// Result rows / groups per executed window — the join fan-out
    /// the engine had to stream through.
    pub window_output_rows: Histogram,
    /// Rows per input batch handed to the columnar executor (one
    /// observation per stream per executed window).
    pub batch_rows: Histogram,
}

impl ExecMetrics {
    /// Register the engine instruments on `reg` (no-op handles when
    /// the registry is disabled).
    pub fn register(reg: &MetricsRegistry) -> Self {
        ExecMetrics {
            window_exec_us: reg.histogram(
                "dt_engine_window_exec_us",
                "Exact window execution latency (join + aggregate), microseconds",
                &[],
            ),
            window_output_rows: reg.histogram(
                "dt_engine_window_output_rows",
                "Result rows or groups per executed window (join fan-out)",
                &[],
            ),
            batch_rows: reg.histogram(
                "dt_engine_batch_rows",
                "Rows per columnar input batch handed to the vectorized executor",
                &[],
            ),
        }
    }

    /// [`execute_window_cols`] with execution latency, output fan-out,
    /// and per-stream batch sizes recorded.
    pub fn execute_window_cols(
        &self,
        plan: &QueryPlan,
        inputs: &[&ColumnBatch],
    ) -> DtResult<WindowOutput> {
        if self.batch_rows.is_enabled() {
            for b in inputs {
                self.batch_rows.observe(b.len() as u64);
            }
        }
        let timer = self.window_exec_us.start_timer();
        let out = execute_window_cols(plan, inputs);
        timer.stop();
        if let Ok(o) = &out {
            self.window_output_rows.observe(o.len() as u64);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dt_query::{parse_select, Catalog, Planner};
    use dt_types::{DataType, Row, Schema};

    #[test]
    fn timed_execution_matches_untimed_and_records() {
        let mut c = Catalog::new();
        c.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
        let plan = Planner::new(&c)
            .plan(&parse_select("SELECT a, COUNT(*) FROM R GROUP BY a").unwrap())
            .unwrap();
        let rows: Vec<Row> = (0..10).map(|i| Row::from_ints(&[i % 3])).collect();
        let batch = ColumnBatch::from_rows(1, &rows);
        let inputs = [&batch];

        let reg = MetricsRegistry::new();
        let m = ExecMetrics::register(&reg);
        let timed = m.execute_window_cols(&plan, &inputs).unwrap();
        let plain = execute_window_cols(&plan, &inputs).unwrap();
        assert_eq!(timed, plain);
        assert_eq!(m.window_exec_us.count(), 1);
        assert_eq!(m.window_output_rows.count(), 1);
        assert_eq!(m.window_output_rows.max(), 3, "three groups");
        assert_eq!(m.batch_rows.max(), 10);

        let off = ExecMetrics::default();
        assert_eq!(off.execute_window_cols(&plan, &inputs).unwrap(), plain);
        assert_eq!(off.window_exec_us.count(), 0);
    }
}
