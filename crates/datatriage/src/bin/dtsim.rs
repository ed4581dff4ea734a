//! `dtsim` — a command-line Data Triage simulator.
//!
//! Runs a continuous query over a synthetic workload through the load
//! shedding pipeline, printing per-window results and the RMS error
//! against the ideal (unshed) answer.
//!
//! ```text
//! dtsim [options]
//!   --query SQL         continuous query (default: the paper's Fig. 7 query)
//!   --streams SPEC      stream schemas, e.g. "R:a;S:b,c;T:d" (all INTEGER)
//!   --mode MODE         data-triage | drop-only | summarize-only | compare
//!   --rate N            constant arrival rate, tuples/s (default 2000)
//!   --bursty            use the paper's bursty arrival model (N = peak rate)
//!   --tuples N          total tuples to generate (default 12000)
//!   --capacity N        engine capacity, tuples/s (default 1000)
//!   --queue N           triage queue capacity (default 100)
//!   --delay-ms MS       delay constraint: enable the adaptive
//!                       controller and keep window results within MS
//!                       milliseconds of window close (default: off)
//!   --synopsis SPEC     sparse:W | mhist:B | mhist-aligned:B,G |
//!                       reservoir:C (default sparse:10)
//!   --policy P          random | front | newest | synergistic
//!   --window SECS       window width in seconds (default: scale to
//!                       600 tuples/window)
//!   --seed N            RNG seed (default 0)
//!   --windows N         print at most N windows (default 5)
//!   --explain           print the plan tree and shadow query first
//!   --optimize          reorder joins with the cost-based optimizer
//!   --trace FILE        replay arrivals from a trace file instead of
//!                       generating them (format: ts_us,stream,v1[,v2…])
//!   --dump-trace FILE   write the arrivals used to a trace file
//!   --serve ADDR        instead of simulating, host the query on a
//!                       live dt-server at ADDR and replay the
//!                       arrivals through the TCP ingest path at their
//!                       recorded wall-clock times (single mode only)
//!   --queries FILE      additional ;-separated statements to register
//!                       alongside --query (`--` comment lines are
//!                       skipped); they share each stream's triage and
//!                       synopses (DESIGN.md §12). Requires --serve
//!   --obs               record observability instruments during the
//!                       run and print the snapshot table afterwards
//! ```
//!
//! Example:
//!
//! ```sh
//! cargo run --release -p datatriage --bin dtsim -- --mode compare --bursty --rate 12000
//! ```

use std::process::ExitCode;

use datatriage::prelude::*;

struct Args {
    query: String,
    streams: String,
    mode: String,
    rate: f64,
    bursty: bool,
    tuples: usize,
    capacity: f64,
    queue: usize,
    delay: Option<DelayConstraint>,
    synopsis: String,
    policy: String,
    window_secs: Option<f64>,
    seed: u64,
    show_windows: usize,
    trace_in: Option<String>,
    trace_out: Option<String>,
    explain: bool,
    optimize: bool,
    serve: Option<String>,
    queries_file: Option<String>,
    obs: bool,
}

impl Default for Args {
    fn default() -> Self {
        Args {
            query: "SELECT a, COUNT(*) as count FROM R,S,T \
                    WHERE R.a = S.b AND S.c = T.d GROUP BY a"
                .into(),
            streams: "R:a;S:b,c;T:d".into(),
            mode: "data-triage".into(),
            rate: 2_000.0,
            bursty: false,
            tuples: 12_000,
            capacity: 1_000.0,
            queue: 100,
            delay: None,
            synopsis: "sparse:10".into(),
            policy: "random".into(),
            window_secs: None,
            seed: 0,
            show_windows: 5,
            trace_in: None,
            trace_out: None,
            explain: false,
            optimize: false,
            serve: None,
            queries_file: None,
            obs: false,
        }
    }
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| it.next().ok_or_else(|| format!("missing value for {name}"));
        match flag.as_str() {
            "--query" => args.query = value("--query")?,
            "--streams" => args.streams = value("--streams")?,
            "--mode" => args.mode = value("--mode")?,
            "--rate" => {
                args.rate = value("--rate")?
                    .parse()
                    .map_err(|e| format!("bad --rate: {e}"))?
            }
            "--bursty" => args.bursty = true,
            "--tuples" => {
                args.tuples = value("--tuples")?
                    .parse()
                    .map_err(|e| format!("bad --tuples: {e}"))?
            }
            "--capacity" => {
                args.capacity = value("--capacity")?
                    .parse()
                    .map_err(|e| format!("bad --capacity: {e}"))?
            }
            "--queue" => {
                args.queue = value("--queue")?
                    .parse()
                    .map_err(|e| format!("bad --queue: {e}"))?
            }
            "--delay-ms" => {
                let ms: u64 = value("--delay-ms")?
                    .parse()
                    .map_err(|e| format!("bad --delay-ms: {e}"))?;
                args.delay = Some(
                    DelayConstraint::from_millis(ms).map_err(|e| format!("bad --delay-ms: {e}"))?,
                );
            }
            "--synopsis" => args.synopsis = value("--synopsis")?,
            "--policy" => args.policy = value("--policy")?,
            "--window" => {
                args.window_secs = Some(
                    value("--window")?
                        .parse()
                        .map_err(|e| format!("bad --window: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("bad --seed: {e}"))?
            }
            "--windows" => {
                args.show_windows = value("--windows")?
                    .parse()
                    .map_err(|e| format!("bad --windows: {e}"))?
            }
            "--explain" => args.explain = true,
            "--optimize" => args.optimize = true,
            "--trace" => args.trace_in = Some(value("--trace")?),
            "--dump-trace" => args.trace_out = Some(value("--dump-trace")?),
            "--serve" => args.serve = Some(value("--serve")?),
            "--queries" => args.queries_file = Some(value("--queries")?),
            "--obs" => args.obs = true,
            "--help" | "-h" => {
                println!("see `dtsim` module docs (cargo doc) or the README for options");
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn parse_streams(spec: &str) -> Result<Catalog, String> {
    let mut catalog = Catalog::new();
    for stream in spec.split(';').filter(|s| !s.is_empty()) {
        let (name, cols) = stream
            .split_once(':')
            .ok_or_else(|| format!("bad stream spec '{stream}' (want NAME:col1,col2)"))?;
        let fields: Vec<(&str, DataType)> = cols
            .split(',')
            .filter(|c| !c.is_empty())
            .map(|c| (c.trim(), DataType::Int))
            .collect();
        if fields.is_empty() {
            return Err(format!("stream '{name}' has no columns"));
        }
        catalog.add_stream(name.trim(), Schema::from_pairs(&fields));
    }
    Ok(catalog)
}

fn parse_synopsis(spec: &str, seed: u64) -> Result<SynopsisConfig, String> {
    let (kind, params) = spec.split_once(':').unwrap_or((spec, ""));
    let int = |s: &str| {
        s.parse::<i64>()
            .map_err(|e| format!("bad synopsis param '{s}': {e}"))
    };
    Ok(match kind {
        "sparse" => SynopsisConfig::Sparse {
            cell_width: int(params)?,
        },
        "mhist" => SynopsisConfig::MHist {
            max_buckets: int(params)? as usize,
            alignment: None,
        },
        "mhist-aligned" => {
            let (b, g) = params
                .split_once(',')
                .ok_or("mhist-aligned wants B,G".to_string())?;
            SynopsisConfig::MHist {
                max_buckets: int(b)? as usize,
                alignment: Some(int(g)?),
            }
        }
        "reservoir" => SynopsisConfig::Reservoir {
            capacity: int(params)? as usize,
            seed,
        },
        other => return Err(format!("unknown synopsis kind '{other}'")),
    })
}

/// Split a `--queries` file into statements: `;`-separated, comment
/// lines (`--` prefix) dropped, blanks ignored.
fn split_statements(text: &str) -> Vec<String> {
    let stripped: String = text
        .lines()
        .filter(|l| !l.trim_start().starts_with("--"))
        .collect::<Vec<_>>()
        .join("\n");
    stripped
        .split(';')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(str::to_string)
        .collect()
}

fn parse_policy(s: &str) -> Result<DropPolicy, String> {
    DropPolicy::all()
        .into_iter()
        .find(|p| p.label() == s)
        .ok_or_else(|| format!("unknown policy '{s}'"))
}

fn parse_mode(s: &str) -> Result<Vec<ShedMode>, String> {
    if s == "compare" {
        return Ok(ShedMode::all().to_vec());
    }
    ShedMode::all()
        .into_iter()
        .find(|m| m.label() == s)
        .map(|m| vec![m])
        .ok_or_else(|| format!("unknown mode '{s}'"))
}

fn run(args: &Args) -> DtResult<()> {
    let catalog = parse_streams(&args.streams).map_err(DtError::config)?;
    let stmt = parse_select(&args.query)?;
    let mut plan = Planner::new(&catalog).plan(&stmt)?;
    if args.optimize {
        // Uniform per-stream statistics: equal shares of the window's
        // tuples, paper-domain distinct counts.
        let n_distinct_streams = {
            let mut seen = Vec::new();
            for b in &plan.streams {
                if !seen.contains(&b.stream) {
                    seen.push(b.stream.clone());
                }
            }
            seen.len().max(1)
        };
        let per_stream = 600.0 / n_distinct_streams as f64;
        let stats: Vec<datatriage::query::StreamStats> = plan
            .streams
            .iter()
            .map(|b| datatriage::query::StreamStats::uniform(b.schema.arity(), per_stream, 100.0))
            .collect();
        plan = datatriage::query::optimize_join_order(&plan, &stats)?;
    }

    // Workload: equal shares across the plan's *distinct* streams.
    let mut seen = Vec::new();
    for b in &plan.streams {
        if !seen.contains(&b.stream) {
            seen.push(b.stream.clone());
        }
    }
    let g = Gaussian::paper_default();
    let stream_specs: Vec<StreamSpec> = seen
        .iter()
        .map(|name| {
            let arity = catalog.schema(name).expect("planned stream").arity();
            if args.bursty {
                let mut s = StreamSpec::paper_bursty(arity);
                s.base_dist = g;
                s
            } else {
                StreamSpec::uniform_bursts(arity, g)
            }
        })
        .collect();
    let arrival = if args.bursty {
        ArrivalModel::paper_bursty(args.rate / 100.0)
    } else {
        ArrivalModel::Constant { rate: args.rate }
    };
    let workload = WorkloadConfig {
        streams: stream_specs,
        arrival,
        total_tuples: args.tuples,
        seed: args.seed,
    };

    // Window width: explicit or scaled to ~600 tuples/window.
    let width = match args.window_secs {
        Some(s) => VDuration::from_secs_f64(s),
        None => VDuration::from_secs_f64(600.0 / arrival.mean_rate()),
    };
    let spec = WindowSpec::new(width)?;
    for s in &mut plan.streams {
        s.window = spec;
    }

    let arrivals = match &args.trace_in {
        Some(path) => {
            let text = std::fs::read_to_string(path)
                .map_err(|e| DtError::config(format!("cannot read trace '{path}': {e}")))?;
            datatriage::workload::parse_trace(&text)?
        }
        None => generate(&workload)?,
    };
    if let Some(path) = &args.trace_out {
        let text = datatriage::workload::write_trace(&arrivals)?;
        std::fs::write(path, text)
            .map_err(|e| DtError::config(format!("cannot write trace '{path}': {e}")))?;
        println!("(trace written to {path})");
    }
    let ideal = if plan.is_aggregating() || !plan.group_by.is_empty() {
        Some(ideal_map(&plan, &arrivals)?)
    } else {
        None
    };

    println!(
        "dtsim: {} tuples, {} arrivals at {} t/s, engine {} t/s, window {:.3}s",
        args.tuples,
        if args.bursty {
            "bursty peak"
        } else {
            "constant"
        },
        args.rate,
        args.capacity,
        width.as_secs_f64()
    );
    println!("query: {}\n", args.query.trim());
    if args.explain {
        println!("{}", datatriage::query::explain(&plan));
        if let Ok(shadow) = datatriage::rewrite::rewrite_dropped(&plan) {
            let names: Vec<String> = plan.streams.iter().map(|s| s.alias.clone()).collect();
            println!("shadow query: {}\n", shadow.plan.display_sql(&names));
        }
    }

    let modes = parse_mode(&args.mode).map_err(DtError::config)?;

    // Live-serve wiring: host the same query on a real dt-server
    // socket, replay the same arrivals through TCP at their recorded
    // times, and score the live run against the same ideal.
    if args.queries_file.is_some() && args.serve.is_none() {
        return Err(DtError::config(
            "--queries registers extra live queries and wants --serve",
        ));
    }
    if let Some(addr) = &args.serve {
        if modes.len() > 1 {
            return Err(DtError::config(
                "--serve wants a single --mode, not compare",
            ));
        }
        let mode = modes[0];
        let mut scfg = ServerConfig::new(args.query.clone(), catalog.clone());
        if let Some(path) = &args.queries_file {
            let text = std::fs::read_to_string(path)
                .map_err(|e| DtError::config(format!("--queries {path}: {e}")))?;
            scfg.queries.extend(split_statements(&text));
        }
        scfg.mode = mode;
        scfg.window = Some(width);
        scfg.channel_capacity = args.queue;
        scfg.delay = args.delay;
        scfg.cost_hint = CostModel::from_capacity(args.capacity)?;
        scfg.synopsis = parse_synopsis(&args.synopsis, args.seed).map_err(DtError::config)?;
        if args.obs {
            scfg.metrics = MetricsRegistry::new();
        }
        let server = Server::start(
            &scfg,
            Some(addr),
            std::sync::Arc::new(MonotonicClock::new()),
        )?;
        let bound = server.addr().expect("listener bound");
        println!(
            "serving on {bound}; replaying {} arrivals at recorded times…",
            arrivals.len()
        );
        let names = seen.clone();
        let mut client = Client::connect(bound)?;
        let wall = MonotonicClock::new();
        replay(&arrivals, &wall, |s, t| {
            client.send(&names[s], &t.row, Some(t.ts))
        })?;
        client.close()?;
        let report = server.shutdown()?;
        let live = &report.reports[0];
        println!(
            "== live {:<11} kept {:>6}  shed {:>6} ({:>5.1}%)  windows {}",
            mode.label(),
            live.totals.kept,
            live.totals.dropped,
            100.0 * live.totals.dropped as f64 / live.totals.arrived.max(1) as f64,
            live.windows.len()
        );
        if let Some(ideal) = &ideal {
            println!(
                "   RMS error vs ideal: {:.3}",
                rms_error(ideal, &report_to_map(live))
            );
        }
        // Extra --queries statements share the streams' triage; only
        // the primary query is scored against the ideal.
        for q in report.queries.iter().skip(1) {
            println!("   q{} windows {:>4}  {}", q.id, q.windows_emitted, q.sql);
        }
        if let Some(snap) = &report.obs {
            println!("\n{}", snap.render_table());
        }
        return Ok(());
    }

    for mode in modes {
        let mut cfg = PipelineConfig::new(mode);
        cfg.policy = parse_policy(&args.policy).map_err(DtError::config)?;
        cfg.queue_capacity = args.queue;
        cfg.cost = CostModel::from_capacity(args.capacity)?;
        cfg.delay = args.delay;
        cfg.synopsis = parse_synopsis(&args.synopsis, args.seed).map_err(DtError::config)?;
        cfg.seed = args.seed;
        let reg = if args.obs {
            MetricsRegistry::new()
        } else {
            MetricsRegistry::disabled()
        };
        let report = Pipeline::run_with_metrics(plan.clone(), cfg, arrivals.iter().cloned(), &reg)?;
        println!(
            "== {:<15} kept {:>6}  dropped {:>6} ({:>5.1}%)  windows {}",
            mode.label(),
            report.totals.kept,
            report.totals.dropped,
            100.0 * report.totals.dropped as f64 / report.totals.arrived.max(1) as f64,
            report.windows.len()
        );
        if let Some(ideal) = &ideal {
            println!(
                "   RMS error vs ideal: {:.3}",
                rms_error(ideal, &report_to_map(&report))
            );
        }
        for w in report.windows.iter().take(args.show_windows) {
            match &w.payload {
                WindowPayload::Groups(groups) => {
                    let mut top: Vec<(&Row, f64)> = groups.iter().map(|(k, v)| (k, v[0])).collect();
                    top.sort_by(|a, b| b.1.total_cmp(&a.1));
                    let show: Vec<String> = top
                        .iter()
                        .take(4)
                        .map(|(k, v)| format!("{k}={v:.1}"))
                        .collect();
                    println!(
                        "   w{:<4} arrived {:>5} kept {:>5} dropped {:>5} | {}",
                        w.window,
                        w.arrived,
                        w.kept,
                        w.dropped,
                        show.join("  ")
                    );
                }
                WindowPayload::Rows { rows, lost } => {
                    println!(
                        "   w{:<4} {} exact rows, est. {:.1} lost",
                        w.window,
                        rows.len(),
                        lost.as_ref().map(|l| l.total_mass()).unwrap_or(0.0)
                    );
                }
            }
        }
        if report.windows.len() > args.show_windows {
            println!(
                "   … {} more windows",
                report.windows.len() - args.show_windows
            );
        }
        if args.obs {
            println!("\n{}", reg.render_table());
        }
        println!();
    }
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dtsim: {e}");
            return ExitCode::FAILURE;
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dtsim: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_specs_parse() {
        let c = parse_streams("R:a;S:b,c;T:d").unwrap();
        assert_eq!(c.schema("R").unwrap().arity(), 1);
        assert_eq!(c.schema("S").unwrap().arity(), 2);
        assert_eq!(c.schema("T").unwrap().arity(), 1);
        assert!(parse_streams("R").is_err());
        assert!(parse_streams("R:").is_err());
        // Trailing separators are tolerated.
        assert!(parse_streams("R:a;").is_ok());
    }

    #[test]
    fn synopsis_specs_parse() {
        assert_eq!(
            parse_synopsis("sparse:10", 0).unwrap(),
            SynopsisConfig::Sparse { cell_width: 10 }
        );
        assert_eq!(
            parse_synopsis("mhist:64", 0).unwrap(),
            SynopsisConfig::MHist {
                max_buckets: 64,
                alignment: None
            }
        );
        assert_eq!(
            parse_synopsis("mhist-aligned:64,10", 0).unwrap(),
            SynopsisConfig::MHist {
                max_buckets: 64,
                alignment: Some(10)
            }
        );
        assert_eq!(
            parse_synopsis("reservoir:200", 7).unwrap(),
            SynopsisConfig::Reservoir {
                capacity: 200,
                seed: 7
            }
        );
        assert!(parse_synopsis("zipf:3", 0).is_err());
        assert!(parse_synopsis("sparse:x", 0).is_err());
        assert!(parse_synopsis("mhist-aligned:64", 0).is_err());
    }

    #[test]
    fn modes_and_policies_parse() {
        assert_eq!(parse_mode("compare").unwrap().len(), 3);
        assert_eq!(parse_mode("drop-only").unwrap(), vec![ShedMode::DropOnly]);
        assert!(parse_mode("yolo").is_err());
        assert_eq!(
            parse_policy("synergistic").unwrap(),
            DropPolicy::Synergistic
        );
        assert!(parse_policy("coinflip").is_err());
    }
}
