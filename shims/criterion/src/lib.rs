//! Offline stand-in for the `criterion` crate.
//!
//! Implements enough of criterion's API for the workspace's benches to
//! build and run without crates.io access: `Criterion`,
//! `benchmark_group`, `bench_function`, `iter`/`iter_batched`,
//! `black_box`, and the `criterion_group!`/`criterion_main!` macros.
//!
//! Statistics are intentionally simple — warm-up, then a fixed-time
//! measurement loop reporting mean/min per iteration — because the
//! benches' role offline is regression *smoke* coverage, not
//! publication-grade statistics.

use std::time::{Duration, Instant};

pub use std::hint::black_box;

/// How `iter_batched` amortizes setup cost (accepted, not acted on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One input per batch.
    PerIteration,
}

/// Per-iteration timing driver handed to bench closures.
pub struct Bencher {
    /// Total measured time across iterations.
    elapsed: Duration,
    /// Iterations measured.
    iters: u64,
    /// Wall-clock budget for the measurement loop.
    budget: Duration,
}

impl Bencher {
    fn new(budget: Duration) -> Self {
        Bencher {
            elapsed: Duration::ZERO,
            iters: 0,
            budget,
        }
    }

    /// Measure `routine` repeatedly until the time budget is spent.
    /// As in upstream criterion, dropping each output is part of the
    /// timed region; [`Bencher::iter_batched`] excludes it.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Warm-up.
        black_box(routine());
        let start = Instant::now();
        while start.elapsed() < self.budget {
            let t0 = Instant::now();
            black_box(routine());
            self.elapsed += t0.elapsed();
            self.iters += 1;
        }
    }

    /// Measure `routine` on fresh inputs from `setup`. Neither setup nor
    /// dropping the routine's output is timed: the output is held past
    /// the clock read and dropped after, as upstream criterion does.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        black_box(routine(setup()));
        let start = Instant::now();
        while start.elapsed() < self.budget {
            let input = setup();
            let t0 = Instant::now();
            let output = black_box(routine(input));
            self.elapsed += t0.elapsed();
            self.iters += 1;
            drop(output);
        }
    }
}

fn report(label: &str, b: &Bencher) {
    if b.iters == 0 {
        println!("{label:50} (no iterations)");
        return;
    }
    let mean = b.elapsed.as_nanos() as f64 / b.iters as f64;
    println!("{label:50} {:>12.1} ns/iter  ({} iters)", mean, b.iters);
}

/// The benchmark driver.
pub struct Criterion {
    budget: Duration,
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        // Keep offline runs quick; CRITERION_BUDGET_MS overrides.
        let ms = std::env::var("CRITERION_BUDGET_MS")
            .ok()
            .and_then(|v| v.parse().ok())
            .unwrap_or(200);
        Criterion {
            budget: Duration::from_millis(ms),
            sample_size: 100,
        }
    }
}

impl Criterion {
    /// Run one named benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.budget);
        f(&mut b);
        report(id, &b);
        self
    }

    /// Start a named group of benchmarks.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            parent: self,
            name: name.to_string(),
        }
    }

    /// Accepted for API compatibility (the shim keys on wall time).
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n;
        self
    }
}

/// A group of related benchmarks sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    parent: &'a mut Criterion,
    name: String,
}

impl BenchmarkGroup<'_> {
    /// Run one benchmark within the group.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, id: &str, mut f: F) -> &mut Self {
        let mut b = Bencher::new(self.parent.budget);
        f(&mut b);
        report(&format!("{}/{}", self.name, id), &b);
        self
    }

    /// Accepted for API compatibility.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.parent.sample_size = n;
        self
    }

    /// Accepted for API compatibility.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.parent.budget = d;
        self
    }

    /// Finish the group.
    pub fn finish(&mut self) {}
}

/// Collect bench functions into a runnable group.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $( $target(&mut c); )+
        }
    };
}

/// Emit `main` running the named groups.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $( $group(); )+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_bench(c: &mut Criterion) {
        c.bench_function("add", |b| b.iter(|| black_box(1u64) + black_box(2)));
        let mut g = c.benchmark_group("grp");
        g.sample_size(10).bench_function("mul", |b| {
            b.iter_batched(|| 3u64, |x| x * 2, BatchSize::SmallInput)
        });
        g.finish();
    }

    /// An output whose drop is slow: `iter_batched` must not time it.
    struct SlowDrop;

    impl Drop for SlowDrop {
        fn drop(&mut self) {
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    #[test]
    fn iter_batched_excludes_dropping_the_output() {
        let mut b = Bencher::new(Duration::from_millis(20));
        b.iter_batched(|| (), |()| SlowDrop, BatchSize::SmallInput);
        assert!(b.iters > 0);
        let per_iter = b.elapsed / b.iters as u32;
        assert!(per_iter < Duration::from_millis(1), "{per_iter:?}/iter");
    }

    #[test]
    fn harness_runs() {
        std::env::set_var("CRITERION_BUDGET_MS", "5");
        let mut c = Criterion::default();
        sample_bench(&mut c);
    }
}
