//! Minimal, dependency-free shim of the `criterion` API surface this
//! workspace uses.
//!
//! The build must work fully offline, so instead of the real crate we vendor
//! a small benchmarking harness with the same spelling: `Criterion`,
//! `Bencher::iter`, `black_box`, `criterion_group!` (both the positional and
//! the `name =/config =/targets =` forms) and `criterion_main!`.
//!
//! Reporting is intentionally simple — median and mean ns/iter over a fixed
//! number of timed samples — but the measurement loop is real, so relative
//! comparisons (e.g. tracing enabled vs disabled) remain meaningful.

#![forbid(unsafe_code)]

use std::time::Instant;

/// Opaque value barrier preventing the optimizer from deleting benched work.
pub fn black_box<T>(x: T) -> T {
    std::hint::black_box(x)
}

/// Benchmark registry and runner.
pub struct Criterion {
    sample_size: usize,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion { sample_size: 60 }
    }
}

impl Criterion {
    /// Number of timed samples per benchmark (per-sample iteration counts
    /// are auto-calibrated).
    pub fn sample_size(mut self, n: usize) -> Self {
        assert!(n >= 2, "sample_size must be >= 2");
        self.sample_size = n;
        self
    }

    /// Runs `f` as a named benchmark and prints a one-line summary.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        // Calibrate: find an iteration count that runs for ~2ms per sample.
        let mut iters = 1u64;
        loop {
            let mut b = Bencher {
                iters,
                elapsed_ns: 0,
            };
            f(&mut b);
            if b.elapsed_ns >= 2_000_000 || iters >= 1 << 24 {
                break;
            }
            // Grow towards the 2ms target without overshooting wildly.
            iters = (iters * 2).max(iters + 1);
        }

        let mut samples_ns_per_iter = Vec::with_capacity(self.sample_size);
        for _ in 0..self.sample_size {
            let mut b = Bencher {
                iters,
                elapsed_ns: 0,
            };
            f(&mut b);
            samples_ns_per_iter.push(b.elapsed_ns as f64 / iters as f64);
        }
        samples_ns_per_iter.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = samples_ns_per_iter[samples_ns_per_iter.len() / 2];
        let mean: f64 = samples_ns_per_iter.iter().sum::<f64>() / samples_ns_per_iter.len() as f64;
        println!(
            "{name:<44} time: [median {} mean {}] ({} samples x {} iters)",
            fmt_ns(median),
            fmt_ns(mean),
            self.sample_size,
            iters
        );
        self
    }
}

fn fmt_ns(ns: f64) -> String {
    if ns < 1_000.0 {
        format!("{ns:.1} ns")
    } else if ns < 1_000_000.0 {
        format!("{:.2} us", ns / 1_000.0)
    } else if ns < 1_000_000_000.0 {
        format!("{:.2} ms", ns / 1_000_000.0)
    } else {
        format!("{:.2} s", ns / 1_000_000_000.0)
    }
}

/// Timing handle passed to each benchmark closure.
pub struct Bencher {
    iters: u64,
    elapsed_ns: u128,
}

impl Bencher {
    /// Times `routine` over the calibrated iteration count.
    pub fn iter<O, R: FnMut() -> O>(&mut self, mut routine: R) {
        let start = Instant::now();
        for _ in 0..self.iters {
            black_box(routine());
        }
        self.elapsed_ns = start.elapsed().as_nanos().max(1);
    }
}

/// Groups benchmark functions; both upstream invocation forms are accepted.
#[macro_export]
macro_rules! criterion_group {
    (name = $name:ident; config = $config:expr; targets = $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $config;
            $($target(&mut criterion);)+
        }
    };
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Generates `main` running each group.
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
    fn bench_function_runs_and_reports() {
        let mut c = Criterion::default().sample_size(3);
        let mut ran = 0u64;
        c.bench_function("shim/self_test", |b| {
            b.iter(|| {
                ran += 1;
                black_box(ran)
            })
        });
        assert!(ran > 0);
    }
}
