//! Offline shim for the `criterion` crate.
//!
//! Implements the API surface the workspace's bench uses: groups,
//! `bench_function`, `iter` / `iter_batched`,
//! throughput annotation, and the `criterion_group!`/`criterion_main!`
//! macros. Measurement is a simple mean-of-samples timer — adequate for
//! spotting regressions, with none of real criterion's statistics.
//!
//! Like real criterion, benchmarks only execute when the binary receives
//! the `--bench` flag (which `cargo bench` passes); under `cargo test`
//! the harness exits immediately so bench targets stay cheap. A positional
//! argument is a name filter: `cargo bench --bench engine_micro -- crc32c`
//! runs only the benchmarks whose `group/name` contains `crc32c`.

#![deny(unsafe_code)]

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Hint to the optimizer that `value` is used (prevents dead-code
/// elimination of benchmark bodies).
pub fn black_box<T>(value: T) -> T {
    std::hint::black_box(value)
}

/// Throughput annotation for a benchmark group; purely informational.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Bytes processed per iteration.
    Bytes(u64),
    /// Elements processed per iteration.
    Elements(u64),
}

/// How `iter_batched` amortizes setup; the shim treats all variants the
/// same (one setup per routine invocation).
#[derive(Clone, Copy, Debug)]
pub enum BatchSize {
    /// Small per-iteration inputs.
    SmallInput,
    /// Large per-iteration inputs.
    LargeInput,
    /// One setup per iteration.
    PerIteration,
}

/// Times closures for one benchmark.
pub struct Bencher {
    samples: usize,
    target_time: Duration,
    /// Mean nanoseconds per iteration, filled in by `iter*`.
    mean_ns: f64,
}

impl Bencher {
    /// Measures `routine` repeatedly.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        // Calibrate: how many iterations fit in one sample slice.
        let calibrate = Instant::now();
        black_box(routine());
        let once = calibrate.elapsed().max(Duration::from_nanos(1));
        let per_sample =
            (self.target_time.as_nanos() / self.samples.max(1) as u128 / once.as_nanos())
                .clamp(1, 1_000_000) as usize;

        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..per_sample {
                black_box(routine());
            }
            total += start.elapsed();
            iters += per_sample as u64;
        }
        self.mean_ns = total.as_nanos() as f64 / iters.max(1) as f64;
    }

    /// Measures `routine` over fresh inputs from `setup`, excluding setup
    /// time from the measurement.
    pub fn iter_batched<I, O, S, R>(&mut self, mut setup: S, mut routine: R, _size: BatchSize)
    where
        S: FnMut() -> I,
        R: FnMut(I) -> O,
    {
        let mut total = Duration::ZERO;
        let mut iters = 0u64;
        for _ in 0..self.samples.max(1) {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
            iters += 1;
        }
        self.mean_ns = total.as_nanos() as f64 / iters.max(1) as f64;
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    criterion: &'a Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Sets the throughput annotation for subsequent benchmarks.
    pub fn throughput(&mut self, throughput: Throughput) -> &mut Self {
        self.throughput = Some(throughput);
        self
    }

    /// Runs one benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(
        &mut self,
        id: impl Display,
        mut f: F,
    ) -> &mut Self {
        let id = id.to_string();
        if !self.criterion.selects(&self.name, &id) {
            return self;
        }
        let mut b = Bencher {
            samples: self.criterion.sample_size,
            target_time: self.criterion.measurement_time,
            mean_ns: 0.0,
        };
        f(&mut b);
        self.report(&id, b.mean_ns);
        self
    }

    /// Finishes the group (reporting already happened per-benchmark).
    pub fn finish(&mut self) {}

    fn report(&self, id: &str, mean_ns: f64) {
        let rate = match self.throughput {
            Some(Throughput::Bytes(n)) if mean_ns > 0.0 => {
                format!(
                    "  {:>10.1} MiB/s",
                    n as f64 / mean_ns * 1e9 / (1 << 20) as f64
                )
            }
            Some(Throughput::Elements(n)) if mean_ns > 0.0 => {
                format!("  {:>10.1} Kelem/s", n as f64 / mean_ns * 1e9 / 1e3)
            }
            _ => String::new(),
        };
        println!("{}/{:<28} {:>12.1} ns/iter{}", self.name, id, mean_ns, rate);
    }
}

/// Benchmark harness configuration and entry point.
pub struct Criterion {
    sample_size: usize,
    measurement_time: Duration,
    enabled: bool,
    /// Substring a benchmark's `group/name` must contain to run.
    filter: Option<String>,
}

impl Default for Criterion {
    fn default() -> Criterion {
        Criterion {
            sample_size: 10,
            measurement_time: Duration::from_secs(1),
            // Like real criterion, only measure when cargo bench passes
            // --bench; under cargo test the targets are built but skipped.
            enabled: std::env::args().any(|a| a == "--bench"),
            // Like real criterion, the first positional argument.
            filter: std::env::args().skip(1).find(|a| !a.starts_with('-')),
        }
    }
}

impl Criterion {
    /// Opens a benchmark group.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Whether benchmark `id` of `group` runs: measurement is on and the
    /// name filter, if any, occurs in `group/id`.
    fn selects(&self, group: &str, id: &str) -> bool {
        self.enabled
            && self
                .filter
                .as_ref()
                .is_none_or(|f| format!("{group}/{id}").contains(f.as_str()))
    }
}

/// Declares a benchmark group function, criterion-style.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion: $crate::Criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        $crate::criterion_group!(
            name = $name;
            config = $crate::Criterion::default();
            targets = $($target),+
        );
    };
}

/// Declares the benchmark binary's `main`.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_without_bench_flag() {
        // Test binaries never receive --bench, so measurement is off and
        // bench bodies are skipped entirely.
        let mut c = Criterion::default();
        assert!(!c.enabled);
        let mut ran = false;
        c.benchmark_group("g")
            .bench_function("noop", |_b| ran = true);
        assert!(!ran, "bench body must not run without --bench");
    }

    #[test]
    fn name_filter_selects_by_substring_of_group_and_id() {
        let mut c = Criterion {
            enabled: true,
            filter: Some("crc32c/4k".into()),
            sample_size: 1,
            ..Criterion::default()
        };
        assert!(c.selects("crc32c", "4k_block"));
        assert!(!c.selects("crc32c", "64k_chunk"));
        assert!(!c.selects("bloom", "probe"));
        let mut ran = Vec::new();
        for id in ["4k_block", "1k_value"] {
            c.benchmark_group("crc32c")
                .bench_function(id, |_b| ran.push(id));
        }
        assert_eq!(ran, ["4k_block"]);
        c.filter = None;
        assert!(c.selects("bloom", "probe"));
        c.enabled = false;
        assert!(!c.selects("bloom", "probe"));
    }

    #[test]
    fn bencher_measures_when_forced() {
        let mut b = Bencher {
            samples: 3,
            target_time: Duration::from_millis(5),
            mean_ns: 0.0,
        };
        b.iter(|| black_box(1u64 + 1));
        assert!(b.mean_ns > 0.0);
        b.iter_batched(|| vec![0u8; 16], |v| v.len(), BatchSize::SmallInput);
        assert!(b.mean_ns > 0.0);
    }
}
