//! `dt-serve` — run a Data Triage server on a TCP socket, or talk to
//! a running one.
//!
//! ```text
//! dt-serve --stream 'R:a' --query 'SELECT a, COUNT(*) FROM R GROUP BY a' \
//!          --listen 127.0.0.1:7077 --window 1.0 --capacity 100
//! ```
//!
//! Clients send newline-delimited JSON tuple frames
//! (`{"stream":"R","row":[17],"ts":1500000}`); a first line starting
//! with `GET ` turns the connection into an HTTP-ish probe instead:
//! `GET /stats` answers the live counters as JSON, `GET /metrics` the
//! Prometheus text exposition (curl both). The server runs until stdin
//! reaches EOF (pipe `/dev/null` for "run until killed" semantics
//! under a supervisor, or press Ctrl-D interactively), then drains
//! gracefully and prints the final JSON report to stdout.
//!
//! The `register`, `unregister`, and `list` subcommands act as a
//! loopback control client against a *running* server: queries come
//! and go at runtime without restarting the dataflow (see
//! `dt-registry`).

use dt_obs::MetricsRegistry;
use dt_query::Catalog;
use dt_server::{Client, MonotonicClock, Server, ServerConfig};
use dt_synopsis::SynopsisConfig;
use dt_triage::{DelayConstraint, ShedMode};
use dt_types::{DataType, DtError, DtResult, Schema, ToJson, VDuration};
use std::io::Read;
use std::sync::Arc;

const USAGE: &str = "\
dt-serve — serve Data Triage pipelines over TCP

USAGE:
  dt-serve --stream NAME:col[,col…] [--stream …] --query SQL [--query …]
           [--queries FILE]   read ;-separated statements from FILE
           [--listen ADDR]    listen address        (default 127.0.0.1:7077)
           [--window SECS]    window width override (default: per query)
           [--capacity N]     triage queue bound per shard (default 100)
           [--grace MS]       longest a window waits for a quiet or
                              slow source (default 100); it seals
                              sooner once every connection is past it
           [--cell-width N]   sparse synopsis cell  (default 10)
           [--delay-ms MS]    adaptive delay constraint (default: off —
                              shed only on channel overflow)
           [--mode M]         data-triage | drop-only | summarize-only
           [--shards N]       worker-group size per stream (default 1;
                              >1 partitions each stream's triage across
                              N shard workers with work-stealing —
                              DESIGN.md §15)
           [--no-pacing]      consume ahead of tuple timestamps
           [--no-metrics]     disable the /metrics registry
           [--fault-disconnect CONN:LINE]
                              chaos: drop ingest connection CONN after
                              LINE lines (deterministic FaultPlan);
                              repeatable — each occurrence adds one
                              injection

  dt-serve send --addr ADDR
                     forward NDJSON tuple frames from stdin to a
                     running server (reconnect-and-resend on failure)
  dt-serve register --addr ADDR --sql SQL
           [--tenant NAME] [--delay-ms MS] [--weight W]
                     register a query on a running server; prints its id
  dt-serve unregister --addr ADDR --id N
                     detach query N at the next window boundary
  dt-serve list --addr ADDR
                     list every query the server has registered

All stream columns are integers. `GET /stats` returns live counters as
JSON; `GET /metrics` returns Prometheus text exposition. Runs until
stdin EOF, then drains and prints the final JSON report.";

struct Args {
    listen: String,
    streams: Vec<(String, Vec<String>)>,
    queries: Vec<String>,
    window: Option<VDuration>,
    capacity: usize,
    grace: VDuration,
    cell_width: i64,
    delay: Option<DelayConstraint>,
    mode: ShedMode,
    shards: usize,
    pacing: bool,
    metrics: bool,
    fault_disconnect: Vec<(u64, u64)>,
}

fn parse_args(argv: &[String]) -> DtResult<Args> {
    let mut args = Args {
        listen: "127.0.0.1:7077".to_string(),
        streams: Vec::new(),
        queries: Vec::new(),
        window: None,
        capacity: 100,
        grace: VDuration::from_millis(100),
        cell_width: 10,
        delay: None,
        mode: ShedMode::DataTriage,
        shards: 1,
        pacing: true,
        metrics: true,
        fault_disconnect: Vec::new(),
    };
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| DtError::config(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--listen" => args.listen = value()?,
            "--stream" => {
                let spec = value()?;
                let (name, cols) = spec
                    .split_once(':')
                    .ok_or_else(|| DtError::config("--stream wants NAME:col[,col…]"))?;
                args.streams.push((
                    name.to_string(),
                    cols.split(',').map(str::to_string).collect(),
                ));
            }
            "--query" => args.queries.push(value()?),
            "--queries" => {
                let path = value()?;
                let text = std::fs::read_to_string(&path)
                    .map_err(|e| DtError::config(format!("--queries {path}: {e}")))?;
                args.queries.extend(split_statements(&text));
            }
            "--window" => {
                let secs: f64 = value()?
                    .parse()
                    .map_err(|_| DtError::config("--window wants seconds"))?;
                args.window = Some(VDuration::from_secs_f64(secs));
            }
            "--capacity" => {
                args.capacity = value()?
                    .parse()
                    .map_err(|_| DtError::config("--capacity wants an integer"))?;
            }
            "--grace" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|_| DtError::config("--grace wants milliseconds"))?;
                args.grace = VDuration::from_millis(ms);
            }
            "--cell-width" => {
                args.cell_width = value()?
                    .parse()
                    .map_err(|_| DtError::config("--cell-width wants an integer"))?;
            }
            "--delay-ms" => {
                let ms: u64 = value()?
                    .parse()
                    .map_err(|_| DtError::config("--delay-ms wants milliseconds"))?;
                args.delay = Some(DelayConstraint::from_millis(ms)?);
            }
            "--mode" => {
                args.mode = match value()?.as_str() {
                    "data-triage" => ShedMode::DataTriage,
                    "drop-only" => ShedMode::DropOnly,
                    "summarize-only" => ShedMode::SummarizeOnly,
                    m => return Err(DtError::config(format!("unknown mode '{m}'"))),
                };
            }
            "--shards" => {
                args.shards = value()?
                    .parse()
                    .map_err(|_| DtError::config("--shards wants an integer"))?;
            }
            "--no-pacing" => args.pacing = false,
            "--no-metrics" => args.metrics = false,
            "--fault-disconnect" => {
                let spec = value()?;
                let (conn, line) = spec
                    .split_once(':')
                    .ok_or_else(|| DtError::config("--fault-disconnect wants CONN:LINE"))?;
                args.fault_disconnect.push((
                    conn.parse()
                        .map_err(|_| DtError::config("--fault-disconnect CONN wants an integer"))?,
                    line.parse()
                        .map_err(|_| DtError::config("--fault-disconnect LINE wants an integer"))?,
                ));
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(DtError::config(format!("unknown flag '{other}'"))),
        }
    }
    if args.streams.is_empty() || args.queries.is_empty() {
        return Err(DtError::config(
            "need at least one --stream and one --query (see --help)",
        ));
    }
    Ok(args)
}

/// Split a `--queries` file into statements: `;`-separated, comment
/// lines (leading `--`) stripped, blanks dropped.
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

/// The control-client subcommands (`register`/`unregister`/`list`).
fn run_client(cmd: &str, argv: &[String]) -> DtResult<()> {
    let mut addr = None;
    let mut sql = None;
    let mut tenant = None;
    let mut delay_ms = None;
    let mut weight = None;
    let mut id = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .cloned()
                .ok_or_else(|| DtError::config(format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--addr" => addr = Some(value()?),
            "--sql" => sql = Some(value()?),
            "--tenant" => tenant = Some(value()?),
            "--delay-ms" => {
                delay_ms = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| DtError::config("--delay-ms wants milliseconds"))?,
                )
            }
            "--weight" => {
                weight = Some(
                    value()?
                        .parse::<f64>()
                        .map_err(|_| DtError::config("--weight wants a number"))?,
                )
            }
            "--id" => {
                id = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|_| DtError::config("--id wants an integer"))?,
                )
            }
            other => return Err(DtError::config(format!("unknown flag '{other}'"))),
        }
    }
    let addr = addr
        .ok_or_else(|| DtError::config(format!("{cmd} needs --addr HOST:PORT")))?
        .parse::<std::net::SocketAddr>()
        .map_err(|e| DtError::config(format!("bad --addr: {e}")))?;
    let mut client = Client::connect(addr)?;
    match cmd {
        "send" => {
            let mut sent = 0u64;
            for line in std::io::stdin().lines() {
                let line = line.map_err(|e| DtError::engine(format!("stdin: {e}")))?;
                if line.trim().is_empty() {
                    continue;
                }
                client.send_line(&line)?;
                sent += 1;
            }
            let retries = client.retries();
            client.close()?;
            eprintln!("dt-serve send: forwarded {sent} lines ({retries} retries)");
        }
        "register" => {
            let sql = sql.ok_or_else(|| DtError::config("register needs --sql"))?;
            let qid = client.register_query(&sql, tenant.as_deref(), delay_ms, weight)?;
            println!("registered {qid}");
        }
        "unregister" => {
            let id = id.ok_or_else(|| DtError::config("unregister needs --id"))?;
            let boundary = client.unregister_query(id)?;
            println!("unregistered {id} at window {boundary}");
        }
        "list" => {
            for q in client.list_queries()? {
                println!(
                    "{} {} tenant={} windows={} {}",
                    q.id,
                    if q.active { "active" } else { "detached" },
                    q.tenant.as_deref().unwrap_or("-"),
                    q.windows_emitted,
                    q.sql
                );
            }
        }
        _ => unreachable!(),
    }
    Ok(())
}

fn run() -> DtResult<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(cmd) = argv.first() {
        if matches!(cmd.as_str(), "send" | "register" | "unregister" | "list") {
            return run_client(cmd, &argv[1..]);
        }
    }
    let args = parse_args(&argv)?;

    let mut catalog = Catalog::new();
    for (name, cols) in &args.streams {
        let pairs: Vec<(&str, DataType)> =
            cols.iter().map(|c| (c.as_str(), DataType::Int)).collect();
        catalog.add_stream(name, Schema::from_pairs(&pairs));
    }
    let mut cfg = ServerConfig::new(args.queries[0].clone(), catalog);
    cfg.queries = args.queries.clone();
    cfg.mode = args.mode;
    cfg.window = args.window;
    cfg.channel_capacity = args.capacity;
    cfg.grace = args.grace;
    cfg.synopsis = SynopsisConfig::Sparse {
        cell_width: args.cell_width,
    };
    cfg.pace_by_timestamp = args.pacing;
    cfg.delay = args.delay;
    cfg.shards = args.shards;
    for &(conn, line) in &args.fault_disconnect {
        cfg.fault = std::mem::take(&mut cfg.fault).inject_disconnect(conn, line);
    }
    if args.metrics {
        cfg.metrics = MetricsRegistry::new();
    }

    let clock = Arc::new(MonotonicClock::new());
    let server = Server::start(&cfg, Some(&args.listen), clock)?;
    let addr = server.addr().expect("listener bound");
    eprintln!(
        "dt-serve: listening on {addr} ({:?} mode); EOF on stdin stops",
        args.mode
    );

    // Block until stdin closes, then drain.
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    eprintln!("dt-serve: stdin closed, draining…");
    let report = server.shutdown()?;
    println!("{}", report.to_json().render_pretty());
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("dt-serve: error: {e}");
        eprintln!("{USAGE}");
        std::process::exit(1);
    }
}
