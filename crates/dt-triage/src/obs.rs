//! Triage-layer instruments.
//!
//! Two bundles:
//!
//! * [`TriageObs`] — owned by the single-threaded simulation
//!   ([`crate::SharedPipeline`]): per-stream queue-depth gauges,
//!   arrived/kept/dropped counters labeled by [`ShedMode`], and a
//!   windows-closed counter.
//! * [`StreamObs`] — owned by each [`crate::StreamTriage`], in the
//!   simulator and in every server worker alike: kept/shed/late and
//!   synopsis-insert counters per stream, plus the *sampled*
//!   synopsis-insert and per-seal batch-flush latency histograms.
//!
//! The synopsis-insert histogram is sampled 1-in-[`SYNOPSIS_SAMPLE`]
//! because reading the clock costs a meaningful fraction of the
//! ~1 µs/tuple pipeline budget; counters and gauges are cheap enough
//! to run unsampled.

use dt_obs::{Counter, Gauge, Histogram, MetricsRegistry};

use crate::shed::ShedMode;

/// Sampling interval for synopsis-insert timing: 1 in 64 inserts.
pub const SYNOPSIS_SAMPLE: u64 = 64;

/// Instruments for the simulation pipeline. See the module docs.
#[derive(Debug, Clone, Default)]
pub struct TriageObs {
    /// Current depth of each physical stream's triage queue.
    pub queue_depth: Vec<Gauge>,
    /// Tuples offered to the pipeline.
    pub arrived: Counter,
    /// Tuples delivered to the exact engine.
    pub kept: Counter,
    /// Tuples shed.
    pub dropped: Counter,
    /// Windows closed and emitted.
    pub windows_closed: Counter,
}

impl TriageObs {
    /// Register the simulation instruments for `streams` (by name)
    /// under `mode`.
    pub fn register(reg: &MetricsRegistry, mode: ShedMode, streams: &[&str]) -> Self {
        let mode_label = mode.label();
        TriageObs {
            queue_depth: streams
                .iter()
                .map(|s| {
                    reg.gauge(
                        "dt_triage_queue_depth",
                        "Current depth of the stream's triage queue (tuples)",
                        &[("stream", s)],
                    )
                })
                .collect(),
            arrived: reg.counter(
                "dt_triage_tuples_total",
                "Tuples by triage outcome",
                &[("mode", mode_label), ("outcome", "arrived")],
            ),
            kept: reg.counter(
                "dt_triage_tuples_total",
                "Tuples by triage outcome",
                &[("mode", mode_label), ("outcome", "kept")],
            ),
            dropped: reg.counter(
                "dt_triage_tuples_total",
                "Tuples by triage outcome",
                &[("mode", mode_label), ("outcome", "dropped")],
            ),
            windows_closed: reg.counter(
                "dt_triage_windows_closed_total",
                "Windows closed and emitted",
                &[("mode", mode_label)],
            ),
        }
    }
}

/// Gauges publishing one adaptive controller's state (see
/// [`crate::SharedController`]). Default
/// handles are disabled no-ops, so a controller can publish
/// unconditionally; registration is opt-in per stream.
#[derive(Debug, Clone, Default)]
pub struct ControllerGauges {
    /// The dynamic triage threshold, tuples.
    pub threshold: Gauge,
    /// Estimated queue-drain delay at the last observed depth, ms.
    pub estimated_delay_ms: Gauge,
    /// Shed fraction applied at the last decision, per-mille (0–1000).
    pub shed_fraction: Gauge,
}

impl ControllerGauges {
    /// Register the controller gauges for `stream` (by name).
    pub fn register(reg: &MetricsRegistry, stream: &str) -> Self {
        ControllerGauges {
            threshold: reg.gauge(
                "dt_triage_threshold",
                "Dynamic triage threshold derived from the delay constraint (tuples)",
                &[("stream", stream)],
            ),
            estimated_delay_ms: reg.gauge(
                "dt_triage_estimated_delay_ms",
                "Estimated queue-drain delay at the current depth (milliseconds)",
                &[("stream", stream)],
            ),
            shed_fraction: reg.gauge(
                "dt_triage_shed_fraction",
                "Controller shed fraction at the last decision (per-mille, 0-1000)",
                &[("stream", stream)],
            ),
        }
    }

    /// Publish one controller state snapshot.
    pub fn publish(&self, state: &crate::controller::ControllerState) {
        // An unbounded threshold (cold estimates) is published as -1
        // rather than a saturated i64, so dashboards can tell
        // "disabled" from "astronomically large".
        self.threshold.set(if state.threshold == u64::MAX {
            -1
        } else {
            state.threshold.min(i64::MAX as u64) as i64
        });
        self.estimated_delay_ms
            .set((state.estimated_delay.micros() / 1_000) as i64);
        self.shed_fraction
            .set((state.shed_fraction * 1000.0).round() as i64);
    }
}

/// Instruments for one [`crate::StreamTriage`]. Its counters are
/// added at each seal, not per tuple.
#[derive(Debug, Clone, Default)]
pub struct StreamObs {
    /// Tuples folded as kept on this stream.
    pub kept: Counter,
    /// Tuples folded as shed on this stream.
    pub dropped: Counter,
    /// Stragglers whose windows were already sealed.
    pub late: Counter,
    /// Synopsis inserts performed on this stream (kept + dropped,
    /// one per containing window). This is the shared-triage
    /// invariant's witness: the count depends only on the stream's
    /// traffic and window overlap, never on how many queries read the
    /// stream.
    pub synopsis_inserts: Counter,
    /// Shared sampled synopsis-insert latency, µs.
    pub synopsis_insert_us: Histogram,
    /// Latency of one batched (columnar) synopsis flush at seal, µs.
    /// Flushes happen once per window per stream, so this is timed
    /// unsampled.
    pub synopsis_batch_insert_us: Histogram,
    tick: u64,
}

impl StreamObs {
    /// Register the per-stream triage instruments for `stream` under
    /// `mode`.
    pub fn register(reg: &MetricsRegistry, mode: ShedMode, stream: &str) -> Self {
        let mode_label = mode.label();
        StreamObs {
            kept: reg.counter(
                "dt_triage_stream_tuples_total",
                "Tuples folded per stream by triage outcome",
                &[
                    ("stream", stream),
                    ("mode", mode_label),
                    ("outcome", "kept"),
                ],
            ),
            dropped: reg.counter(
                "dt_triage_stream_tuples_total",
                "Tuples folded per stream by triage outcome",
                &[
                    ("stream", stream),
                    ("mode", mode_label),
                    ("outcome", "dropped"),
                ],
            ),
            late: reg.counter(
                "dt_triage_stream_tuples_total",
                "Tuples folded per stream by triage outcome",
                &[
                    ("stream", stream),
                    ("mode", mode_label),
                    ("outcome", "late"),
                ],
            ),
            synopsis_inserts: reg.counter(
                "dt_triage_synopsis_inserts_total",
                "Synopsis inserts performed per stream (independent of attached query count)",
                &[("stream", stream)],
            ),
            synopsis_insert_us: reg.histogram(
                "dt_triage_synopsis_insert_us",
                "Sampled latency of folding one tuple into its windows' synopses, microseconds",
                &[],
            ),
            synopsis_batch_insert_us: reg.histogram(
                "dt_triage_synopsis_batch_insert_us",
                "Latency of one batched columnar synopsis flush at window close, microseconds",
                &[],
            ),
            tick: 0,
        }
    }

    /// True on every [`SYNOPSIS_SAMPLE`]-th call.
    #[inline]
    pub fn sample_synopsis(&mut self) -> bool {
        if !self.synopsis_insert_us.is_enabled() {
            return false;
        }
        self.tick = self.tick.wrapping_add(1);
        self.tick.is_multiple_of(SYNOPSIS_SAMPLE)
    }
}
