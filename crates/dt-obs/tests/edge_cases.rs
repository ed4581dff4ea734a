//! Histogram edge cases and concurrency hammering (no lost updates).

use dt_obs::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;

#[test]
fn zero_sample_histogram_reports_zeros() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("empty_us", "no samples", &[]);
    assert_eq!(h.count(), 0);
    assert_eq!(h.sum(), 0);
    assert_eq!(h.max(), 0);
    for q in [0.0, 0.5, 0.99, 1.0] {
        assert_eq!(h.quantile(q), 0, "q={q}");
    }
    let snap = h.snapshot();
    assert_eq!(snap.mean(), 0.0);
    assert_eq!((snap.p50, snap.p90, snap.p99), (0, 0, 0));
    // The exposition still renders a well-formed (all-zero) series.
    let text = reg.render_prometheus();
    assert!(text.contains("empty_us_bucket{le=\"+Inf\"} 0"), "{text}");
    assert!(text.contains("empty_us_count 0"), "{text}");
}

#[test]
fn single_sample_is_exact_at_every_quantile() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("one_us", "one sample", &[]);
    h.observe(12_345);
    // The quantile estimate is the bucket upper bound clamped to the
    // observed max, so one sample is reported exactly everywhere.
    for q in [0.0, 0.01, 0.5, 0.9, 0.999, 1.0] {
        assert_eq!(h.quantile(q), 12_345, "q={q}");
    }
    assert_eq!(h.max(), 12_345);
    assert_eq!(h.sum(), 12_345);
}

#[test]
fn values_beyond_the_top_bucket_still_count() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("huge_us", "overflow", &[]);
    let huge = 1u64 << 50; // far past the 2^40 overflow boundary
    h.observe(huge);
    h.observe(u64::MAX);
    h.observe(5);
    assert_eq!(h.count(), 3);
    assert_eq!(h.max(), u64::MAX);
    // Overflow samples are clamped to the observed max, never lost.
    assert_eq!(h.quantile(1.0), u64::MAX);
    assert_eq!(h.quantile(0.0), 5);
    // The finite `le` series only covers values below the overflow
    // boundary (2^40); the two overflow samples appear in `+Inf`.
    let cum = h.cumulative_pow2();
    assert_eq!(cum.last().unwrap().1, 1, "{cum:?}");
    let text = reg.render_prometheus();
    assert!(text.contains("huge_us_bucket{le=\"+Inf\"} 3"), "{text}");
}

#[test]
fn quantiles_are_monotone_in_q() {
    let reg = MetricsRegistry::new();
    let h = reg.histogram("mono_us", "monotone", &[]);
    // A spread covering linear buckets, several octaves, and overflow.
    let mut v = 1u64;
    for i in 0..2_000u64 {
        h.observe(v % 5_000_000);
        v = v.wrapping_mul(6364136223846793005).wrapping_add(i);
    }
    h.observe(1 << 45);
    let mut prev = 0u64;
    for i in 0..=100 {
        let q = h.quantile(i as f64 / 100.0);
        assert!(q >= prev, "q={} gave {q} after {prev}", i as f64 / 100.0);
        prev = q;
    }
    assert_eq!(h.quantile(1.0), h.max());
}

#[test]
fn hammered_counters_and_histograms_lose_no_updates() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 50_000;

    let reg = MetricsRegistry::new();
    let counter = reg.counter("hammer_total", "hammered", &[]);
    let gauge = reg.gauge("hammer_level", "hammered", &[]);
    let hist = reg.histogram("hammer_us", "hammered", &[]);
    let expected_sum = Arc::new(AtomicU64::new(0));

    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let counter = counter.clone();
            let gauge = gauge.clone();
            let hist = hist.clone();
            let expected_sum = Arc::clone(&expected_sum);
            thread::spawn(move || {
                let mut local_sum = 0u64;
                for i in 0..PER_THREAD {
                    counter.inc();
                    gauge.add(1);
                    gauge.sub(1);
                    let v = (t as u64) * 1_000 + (i % 997);
                    hist.observe(v);
                    local_sum += v;
                }
                expected_sum.fetch_add(local_sum, Ordering::Relaxed);
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }

    let total = THREADS as u64 * PER_THREAD;
    assert_eq!(counter.get(), total, "counter lost updates");
    assert_eq!(gauge.get(), 0, "gauge add/sub should cancel");
    assert_eq!(hist.count(), total, "histogram lost samples");
    assert_eq!(
        hist.sum(),
        expected_sum.load(Ordering::Relaxed),
        "histogram sum drifted"
    );
    // Bucket totals must also agree with the count.
    assert_eq!(h_total(&hist), total, "bucket counts lost updates");
}

fn h_total(h: &dt_obs::Histogram) -> u64 {
    h.cumulative_pow2().last().map(|&(_, c)| c).unwrap_or(0)
}

#[test]
fn hammered_registration_returns_shared_cells() {
    // Concurrent registration of the same metric must converge on one
    // cell and never deadlock or duplicate.
    const THREADS: usize = 8;
    let reg = MetricsRegistry::new();
    let handles: Vec<_> = (0..THREADS)
        .map(|_| {
            let reg = reg.clone();
            thread::spawn(move || {
                for _ in 0..1_000 {
                    reg.counter("shared_total", "shared", &[("k", "v")]).inc();
                }
            })
        })
        .collect();
    for h in handles {
        h.join().unwrap();
    }
    let snap = reg.snapshot();
    assert_eq!(snap.metrics.len(), 1, "duplicate registration");
    let c = reg.counter("shared_total", "shared", &[("k", "v")]);
    assert_eq!(c.get(), THREADS as u64 * 1_000);
}
