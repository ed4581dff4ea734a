//! Ablation A1: synopsis structure.
//!
//! Runs the Fig. 8 mid-overload point (2× capacity, where shedding is
//! heavy but the exact channel still matters) with each synopsis
//! structure, reporting RMS error, shadow-query evaluation cost (as a
//! proxy: total wall time of the run), and synopsis memory. This is
//! the experiment behind the paper's §8.1 "more advanced synopsis"
//! discussion: accuracy per byte vs manipulation cost.
//!
//! ```sh
//! cargo run --release -p dt-bench --bin ablation_synopsis
//! ```

use std::time::Instant;

use dt_metrics::{rate_sweep, SweepConfig};
use dt_synopsis::SynopsisConfig;
use dt_triage::ShedMode;

fn main() {
    let variants: Vec<SynopsisConfig> = vec![
        SynopsisConfig::Sparse { cell_width: 10 },
        SynopsisConfig::Sparse { cell_width: 5 },
        SynopsisConfig::MHist {
            max_buckets: 32,
            alignment: None,
        },
        SynopsisConfig::MHist {
            max_buckets: 32,
            alignment: Some(10),
        },
        SynopsisConfig::Reservoir {
            capacity: 100,
            seed: 0,
        },
        SynopsisConfig::Reservoir {
            capacity: 400,
            seed: 0,
        },
        SynopsisConfig::AdaptiveSparse {
            base_width: 1,
            max_cells: 50,
        },
    ];

    println!("# Ablation A1 — synopsis structure at 2x overload (rate 2000, capacity 1000)");
    println!(
        "{:<26} {:>16} {:>16} {:>12}",
        "synopsis", "RMS (mean±std)", "vs drop-only", "wall time"
    );
    for cfg in variants {
        let mut sweep = SweepConfig::paper_default();
        sweep.runs = 5;
        sweep.workload.total_tuples = 15_000;
        sweep.tuples_per_window = 600;
        sweep.engine_capacity = 1_000.0;
        sweep.synopsis = cfg;
        sweep.modes = vec![ShedMode::DataTriage, ShedMode::DropOnly];
        let start = Instant::now();
        let points = rate_sweep(&sweep, &[2_000.0], false).expect("sweep");
        let elapsed = start.elapsed();
        let dt = &points[0].modes[0];
        let dr = &points[0].modes[1];
        println!(
            "{:<26} {:>16} {:>15.1}% {:>10.2} s",
            cfg.label(),
            format!("{:7.2} ± {:5.2}", dt.rms.mean, dt.rms.std),
            100.0 * dt.rms.mean / dr.rms.mean,
            elapsed.as_secs_f64()
        );
    }
    println!("\n(lower RMS and lower wall time are better; 'vs drop-only' < 100% means");
    println!(" the synopsis recovers signal that dropping loses)");
}
