//! Wall-clock micro-benchmark harness standing in for `criterion` (see
//! `shims/README.md`).
//!
//! Supports the subset the workspace's benches use: `criterion_group!` /
//! `criterion_main!`, benchmark groups with `bench_function` /
//! `bench_with_input` / `sample_size` / `finish`, [`BenchmarkId`], and
//! [`Bencher::iter`]. Each iteration is timed with `std::time::Instant`
//! and the median ns/iter is printed to stdout; there is no statistical
//! analysis beyond that median, and no HTML report.

#![warn(missing_docs)]

use std::fmt::Display;
use std::hint::black_box as std_black_box;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Measurements recorded by every reported benchmark of this process, as
/// `(label, median ns/iter)` pairs, in execution order.
static MEASUREMENTS: Mutex<Vec<(String, f64)>> = Mutex::new(Vec::new());

/// Drain the measurements recorded so far (label → median ns/iter).
///
/// Extension over upstream criterion: benches with a custom `main` call
/// this after running their groups to emit machine-readable results (e.g.
/// the workspace's `BENCH_engine.json`).
pub fn take_measurements() -> Vec<(String, f64)> {
    std::mem::take(&mut *MEASUREMENTS.lock().expect("measurement registry poisoned"))
}

/// Opaque-to-the-optimizer identity (re-export of `std::hint::black_box`).
pub fn black_box<T>(x: T) -> T {
    std_black_box(x)
}

/// A benchmark label, optionally parameterized.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` label.
    pub fn new(name: impl Display, parameter: impl Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// Parameter-only label.
    pub fn from_parameter(parameter: impl Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId { label: s.into() }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Timed iterations every benchmark gets however slow it is (fewer only
/// if its group's `sample_size` is smaller).
const MIN_SAMPLES: u64 = 10;

/// Once [`MIN_SAMPLES`] are in, sampling stops after this much time.
const TIME_BUDGET: Duration = Duration::from_millis(200);

/// Times one closure; handed to the user's benchmark function.
#[derive(Debug, Default)]
pub struct Bencher {
    /// Most iterations to time (the group's `sample_size`).
    samples: u64,
    /// Each timed iteration's wall time.
    times: Vec<Duration>,
}

impl Bencher {
    fn new(samples: u64) -> Self {
        Bencher {
            samples,
            times: Vec::new(),
        }
    }

    /// Run `f` repeatedly, timing each iteration: `sample_size` of them,
    /// or fewer once the time budget is spent, but never fewer than
    /// `min(10, sample_size)`.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        for _ in 0..2 {
            std_black_box(f()); // warm-up
        }
        let floor = self.samples.min(MIN_SAMPLES);
        self.times.clear();
        let start = Instant::now();
        loop {
            let t = Instant::now();
            std_black_box(f());
            self.times.push(t.elapsed());
            let n = self.times.len() as u64;
            if n >= self.samples || (n >= floor && start.elapsed() > TIME_BUDGET) {
                break;
            }
        }
    }

    fn report(&mut self, label: &str) {
        let n = self.times.len();
        if n == 0 {
            println!("{label}: no samples");
            return;
        }
        self.times.sort_unstable();
        let ns = |i: usize| self.times[i].as_nanos() as f64;
        let median = if n % 2 == 1 {
            ns(n / 2)
        } else {
            (ns(n / 2 - 1) + ns(n / 2)) / 2.0
        };
        println!("{label}: {median:.0} ns/iter (median of {n} iters)");
        MEASUREMENTS
            .lock()
            .expect("measurement registry poisoned")
            .push((label.to_string(), median));
    }
}

/// A named set of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    sample_size: u64,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Cap the number of timed iterations per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.sample_size = n as u64;
        self
    }

    /// Benchmark a closure under `id`.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(self.sample_size);
        f(&mut b);
        b.report(&format!("{}/{}", self.name, id.label));
        self
    }

    /// Benchmark a closure that receives `input` under `id`.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let mut b = Bencher::new(self.sample_size);
        f(&mut b, input);
        b.report(&format!("{}/{}", self.name, id.label));
        self
    }

    /// End the group (no-op beyond matching the upstream API).
    pub fn finish(self) {}
}

/// Top-level benchmark driver.
#[derive(Debug, Default)]
pub struct Criterion {}

impl Criterion {
    /// Start a named group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            sample_size: 100,
            _criterion: self,
        }
    }

    /// Benchmark a standalone closure.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        let mut b = Bencher::new(100);
        f(&mut b);
        b.report(&id.label);
        self
    }
}

/// Group benchmark functions under one runner function.
#[macro_export]
macro_rules! criterion_group {
    ($group:ident, $($target:path),+ $(,)?) => {
        fn $group() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Emit `main` running the given groups (ignores harness CLI arguments).
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}
