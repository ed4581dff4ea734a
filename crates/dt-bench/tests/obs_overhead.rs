//! Enforce the dt-obs overhead budget: running the pipeline bench with
//! a live `MetricsRegistry` must cost at most 3 % over running it with
//! the registry disabled.
//!
//! Each run is timed in *thread CPU time* (`CLOCK_THREAD_CPUTIME_ID`;
//! `Pipeline::run` is single-threaded), so time the thread spends
//! preempted on a shared host does not count against either arm. The
//! two variants are still measured *interleaved* (alternating runs,
//! min of each) inside a single process, so frequency drift and cache
//! effects hit both alike. On a first failure the test re-measures
//! with more reps before judging — the min-of-N estimator converges
//! with N, so a transient spike must survive a deeper sample to count
//! as a real regression.

// The thread CPU clock id below is Linux's.
#![cfg(target_os = "linux")]

use std::os::raw::{c_int, c_long};

use dt_engine::CostModel;
use dt_obs::MetricsRegistry;
use dt_query::{parse_select, Catalog, Planner, QueryPlan};
use dt_synopsis::SynopsisConfig;
use dt_triage::{Pipeline, PipelineConfig, ShedMode};
use dt_types::{DataType, Schema};
use dt_workload::{generate, WorkloadConfig};

const BUDGET: f64 = 1.03;

/// `struct timespec` on Linux.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const CLOCK_THREAD_CPUTIME_ID: c_int = 3;

extern "C" {
    fn clock_gettime(clock_id: c_int, tp: *mut Timespec) -> c_int;
}

/// CPU time the calling thread has consumed, in seconds.
fn thread_cpu_secs() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec`, and the
    // clock id is a constant the kernel always supports.
    let rc = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_THREAD_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

fn paper_plan() -> QueryPlan {
    let mut catalog = Catalog::new();
    catalog.add_stream("R", Schema::from_pairs(&[("a", DataType::Int)]));
    catalog.add_stream(
        "S",
        Schema::from_pairs(&[("b", DataType::Int), ("c", DataType::Int)]),
    );
    catalog.add_stream("T", Schema::from_pairs(&[("d", DataType::Int)]));
    Planner::new(&catalog)
        .plan(
            &parse_select("SELECT a, COUNT(*) FROM R,S,T WHERE R.a = S.b AND S.c = T.d GROUP BY a")
                .unwrap(),
        )
        .unwrap()
}

fn cfg() -> PipelineConfig {
    let mut cfg = PipelineConfig::new(ShedMode::DataTriage);
    cfg.cost = CostModel::from_capacity(1_000.0).unwrap();
    cfg.synopsis = SynopsisConfig::Sparse { cell_width: 10 };
    cfg
}

/// Interleaved min-of-`reps` of the pipeline bench body's thread CPU
/// time with metrics disabled vs. enabled. Returns `(disabled_secs,
/// enabled_secs)`.
fn measure_pair(reps: usize) -> (f64, f64) {
    let workload = WorkloadConfig::paper_constant(4_000.0, 4_000, 5);
    let arrivals = generate(&workload).unwrap();
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let t0 = thread_cpu_secs();
        let report = Pipeline::run(paper_plan(), cfg(), arrivals.iter().cloned()).unwrap();
        best_off = best_off.min(thread_cpu_secs() - t0);
        std::hint::black_box(report.windows.len());

        let reg = MetricsRegistry::new();
        let t0 = thread_cpu_secs();
        let report =
            Pipeline::run_with_metrics(paper_plan(), cfg(), arrivals.iter().cloned(), &reg)
                .unwrap();
        best_on = best_on.min(thread_cpu_secs() - t0);
        std::hint::black_box(report.windows.len());
    }
    (best_off, best_on)
}

#[test]
fn metrics_enabled_pipeline_stays_within_three_percent() {
    // Escalating re-measures before failing: min-of-N tightens with N
    // and the mins carry across rounds, so only a regression that
    // persists through every deeper sample is treated as real. Debug
    // builds run this body ~10x slower than release; thread CPU time
    // removes preemption from the noise, not cache or frequency
    // effects.
    let (mut off, mut on) = measure_pair(5);
    assert!(off > 0.0, "the thread CPU clock must advance over a run");
    for reps in [15, 45] {
        if on <= off * BUDGET {
            return;
        }
        let (off2, on2) = measure_pair(reps);
        off = off.min(off2);
        on = on.min(on2);
    }
    assert!(
        on <= off * BUDGET,
        "metrics-enabled pipeline is {:.2}% over the disabled baseline (budget 3%): \
         disabled {:.3} ms, enabled {:.3} ms of thread CPU",
        (on / off - 1.0) * 100.0,
        off * 1e3,
        on * 1e3,
    );
}
