//! The benchmark's workloads and their seeded inputs.
//!
//! A workload fixes the catalog, the registered queries, the arrival
//! process and the server knobs. [`Inputs::generate`] turns it plus a
//! seed into the arrival sequence and its pre-rendered NDJSON frames.
//! Every frame carries its scheduled timestamp, so the seed alone fixes
//! which tuples share a window and therefore the offline ideal; wall
//! timing only decides latency and shedding.

use dt_engine::CostModel;
use dt_query::Catalog;
use dt_server::{parse_frame, ServerConfig};
use dt_synopsis::SynopsisConfig;
use dt_triage::{DelayConstraint, ShedMode};
use dt_types::{
    DataType, DtError, DtResult, Schema, Timestamp, Tuple, VDuration, WindowId, WindowSpec,
};
use dt_workload::{generate, ArrivalModel, Gaussian, StreamSpec, WorkloadConfig};

/// Tumbling window width shared by every workload.
pub const WINDOW_US: u64 = 100_000;
/// How far the seal watermark trails the server clock.
pub const GRACE_US: u64 = 60_000;
/// The first scheduled arrival time on the server clock: a whole number
/// of windows, so window membership does not depend on start-up time.
pub const START_US: u64 = 500_000;

const FIG7_SQL: &str = "SELECT a, COUNT(*) FROM R, S, T WHERE R.a = S.b AND S.c = T.d GROUP BY a";

/// A workload: what the server hosts and what the generator offers it.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Catalog streams in physical order: `(name, column names)`.
    pub streams: Vec<(&'static str, Vec<&'static str>)>,
    pub queries: Vec<String>,
    pub arrival: ArrivalModel,
    /// Value distributions, parallel to `streams`.
    pub specs: Vec<StreamSpec>,
    pub shards: usize,
    pub channel_capacity: usize,
    pub delay: Option<DelayConstraint>,
}

impl Workload {
    /// The workload called `name`.
    pub fn new(name: &str) -> DtResult<Workload> {
        let join_streams = vec![("R", vec!["a"]), ("S", vec!["b", "c"]), ("T", vec!["d"])];
        Ok(match name {
            // 30k t/s (33 µs gaps) keeps the merger's exact close the
            // largest CPU consumer while leaving it headroom below
            // saturation on a 2-core host, even in slow spells of a
            // shared one. The deep queue absorbs scheduler hiccups, so
            // shedding stays rare and unshed windows must match the
            // ideal exactly.
            "fig7-join" => Workload {
                streams: join_streams,
                queries: vec![FIG7_SQL.to_string()],
                arrival: ArrivalModel::Constant { rate: 30_000.0 },
                specs: vec![
                    StreamSpec::uniform_bursts(1, Gaussian::paper_default()),
                    StreamSpec::uniform_bursts(2, Gaussian::paper_default()),
                    StreamSpec::uniform_bursts(1, Gaussian::paper_default()),
                ],
                shards: 1,
                channel_capacity: 4096,
                delay: None,
            },
            // Paper §6.2.2 bursts: 60 % of tuples arrive at 100× the
            // base rate with shifted values. The server's default
            // 100-slot triage queue overflows during bursts, so the
            // shed fold, synopses and shadow plan all do real work.
            "bursty-join" => Workload {
                streams: join_streams,
                queries: vec![FIG7_SQL.to_string()],
                arrival: ArrivalModel::paper_bursty(8_000.0),
                specs: vec![
                    StreamSpec::paper_bursty(1),
                    StreamSpec::paper_bursty(2),
                    StreamSpec::paper_bursty(1),
                ],
                shards: 1,
                channel_capacity: 100,
                delay: Some(DelayConstraint::from_millis(20)?),
            },
            // Many cheap queries over one hot stream: the reactor's
            // parse-and-admit path dominates, and group-key routing,
            // stealing and the shard merge all run.
            "fanout-ingest" => Workload {
                streams: vec![("R", vec!["a", "b"])],
                queries: (0..8)
                    .flat_map(|k| {
                        let cut = 20 + 5 * k;
                        [
                            format!("SELECT a, COUNT(*) FROM R WHERE b > {cut} GROUP BY a"),
                            format!("SELECT a, SUM(b) FROM R WHERE b < {} GROUP BY a", cut + 40),
                        ]
                    })
                    .collect(),
                arrival: ArrivalModel::Constant { rate: 100_000.0 },
                specs: vec![StreamSpec::uniform_bursts(2, Gaussian::paper_default())],
                shards: 2,
                channel_capacity: 4096,
                delay: None,
            },
            other => {
                return Err(DtError::config(format!(
                    "unknown workload '{other}' (fig7-join | bursty-join | fanout-ingest)"
                )))
            }
        })
    }

    /// Every workload query reads each stream once, in catalog order, so
    /// arrivals and per-stream window state index its plan directly.
    pub fn expect_catalog_order<'a>(&self, names: impl Iterator<Item = &'a str>) -> DtResult<()> {
        if names.eq(self.streams.iter().map(|(n, _)| *n)) {
            Ok(())
        } else {
            Err(DtError::config("query streams differ from catalog order"))
        }
    }

    pub fn catalog(&self) -> Catalog {
        let mut c = Catalog::new();
        for (name, cols) in &self.streams {
            let fields: Vec<(&str, DataType)> = cols.iter().map(|c| (*c, DataType::Int)).collect();
            c.add_stream(*name, Schema::from_pairs(&fields));
        }
        c
    }

    pub fn spec() -> WindowSpec {
        WindowSpec::new(VDuration::from_micros(WINDOW_US)).expect("positive width")
    }

    /// The server configuration this workload runs under.
    pub fn server_config(&self) -> ServerConfig {
        let mut cfg = ServerConfig::new(self.queries[0].clone(), self.catalog());
        cfg.queries = self.queries.clone();
        cfg.mode = ShedMode::DataTriage;
        cfg.synopsis = SynopsisConfig::default_sparse();
        cfg.window = Some(VDuration::from_micros(WINDOW_US));
        cfg.grace = VDuration::from_micros(GRACE_US);
        cfg.channel_capacity = self.channel_capacity;
        cfg.shards = self.shards;
        cfg.delay = self.delay;
        // Prime the controller near the measured per-tuple cost instead
        // of the simulator's 1 ms default; workers replace it with
        // their own measurements within the first window.
        cfg.cost_hint = CostModel::from_capacity(200_000.0).expect("positive capacity");
        cfg
    }
}

/// One run's seeded inputs.
pub struct Inputs {
    /// `(physical stream, tuple)` in arrival order, timestamps on the
    /// server clock.
    pub arrivals: Vec<(usize, Tuple)>,
    /// Every frame, newline-terminated, back to back.
    bytes: Vec<u8>,
    /// `ends[i]` is one past frame `i`'s last byte.
    ends: Vec<usize>,
}

impl Inputs {
    /// Arrivals for `seconds` of traffic starting at [`START_US`].
    pub fn generate(w: &Workload, seed: u64, seconds: u64) -> DtResult<Inputs> {
        let span_us = seconds * 1_000_000;
        // Overshoot the expected count, then cut at the time limit, so
        // bursty runs also cover exactly `seconds` of schedule.
        let total = (w.arrival.mean_rate() * seconds as f64 * 1.2) as usize + 1_000;
        let mut arrivals = generate(&WorkloadConfig {
            streams: w.specs.clone(),
            arrival: w.arrival,
            total_tuples: total,
            seed,
        })?;
        arrivals.retain(|(_, t)| t.ts.micros() < span_us);
        if arrivals.is_empty() {
            return Err(DtError::config("workload generated no arrivals"));
        }
        let mut bytes = Vec::with_capacity(arrivals.len() * 40);
        let mut ends = Vec::with_capacity(arrivals.len());
        for (s, t) in &mut arrivals {
            t.ts = Timestamp::from_micros(START_US + t.ts.micros());
            render(&mut bytes, w.streams[*s].0, t);
            ends.push(bytes.len());
        }
        let inputs = Inputs {
            arrivals,
            bytes,
            ends,
        };
        inputs.check_wire_format(w)?;
        Ok(inputs)
    }

    pub fn len(&self) -> usize {
        self.arrivals.len()
    }

    /// Scheduled send time of frame `i`, in server-clock microseconds.
    pub fn due(&self, i: usize) -> u64 {
        self.arrivals[i].1.ts.micros()
    }

    /// The wire bytes of frames `i..j`.
    pub fn frames(&self, i: usize, j: usize) -> &[u8] {
        let start = if i == 0 { 0 } else { self.ends[i - 1] };
        let end = if j == 0 { 0 } else { self.ends[j - 1] };
        &self.bytes[start..end]
    }

    pub fn first_window(&self) -> WindowId {
        Workload::spec().window_of(self.arrivals[0].1.ts)
    }

    pub fn last_window(&self) -> WindowId {
        Workload::spec().window_of(self.arrivals[self.len() - 1].1.ts)
    }

    /// Parse a sample of frames back with the server's own parser: a
    /// frame that fails here would be silently rejected on the wire.
    fn check_wire_format(&self, w: &Workload) -> DtResult<()> {
        let step = (self.len() / 64).max(1);
        for i in (0..self.len()).step_by(step) {
            let raw = self.frames(i, i + 1);
            let line = std::str::from_utf8(raw).map_err(|e| DtError::config(e.to_string()))?;
            let line = line
                .strip_suffix('\n')
                .ok_or_else(|| DtError::config("frame without trailing newline"))?;
            let f = parse_frame(line)?;
            let (s, t) = &self.arrivals[i];
            if f.stream != w.streams[*s].0 || f.row != t.row || f.ts != Some(t.ts) {
                return Err(DtError::config(format!(
                    "frame {i} does not round-trip: {line}"
                )));
            }
        }
        Ok(())
    }
}

/// Append one NDJSON tuple frame, the same shape as
/// `dt_server::render_frame`, plus its newline.
fn render(out: &mut Vec<u8>, stream: &str, t: &Tuple) {
    use std::io::Write;
    let _ = write!(out, "{{\"stream\":\"{stream}\",\"row\":[");
    for (k, v) in t.row.values().iter().enumerate() {
        if k > 0 {
            out.push(b',');
        }
        let _ = write!(out, "{}", v.as_i64().expect("integer workload values"));
    }
    let _ = writeln!(out, "],\"ts\":{}}}", t.ts.micros());
}
