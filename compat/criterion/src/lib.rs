//! Offline stand-in for `criterion`: the `Criterion` / group / `Bencher`
//! API this workspace's benches use, backed by a deliberately small
//! timing loop (short warmup, a handful of timed batches, report the
//! fastest). Numbers are indicative, not statistically rigorous — the
//! goal is that `cargo bench` runs offline and prints per-iteration
//! times, and `cargo test` compiles the benches.
//!
//! When invoked with `--test` (as `cargo test` does for
//! `harness = false` benches), each benchmark body runs exactly once as
//! a smoke test.

#![forbid(unsafe_code)]

use std::fmt;
use std::time::{Duration, Instant};

/// Runs one benchmark's timing loop.
pub struct Bencher {
    mode: Mode,
    /// Best observed per-iteration time, filled by [`Bencher::iter`].
    best_ns: f64,
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    Measure,
    SmokeTest,
}

impl Bencher {
    /// Time `f`, keeping the fastest batch's per-iteration cost.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut f: F) {
        if self.mode == Mode::SmokeTest {
            std::hint::black_box(f());
            return;
        }
        // Warmup + batch sizing: grow until one batch takes >= 5ms.
        let mut batch = 1u64;
        loop {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            let el = t.elapsed();
            if el >= Duration::from_millis(5) || batch >= 1 << 20 {
                break;
            }
            batch *= 4;
        }
        let mut best = f64::INFINITY;
        for _ in 0..5 {
            let t = Instant::now();
            for _ in 0..batch {
                std::hint::black_box(f());
            }
            best = best.min(t.elapsed().as_nanos() as f64 / batch as f64);
        }
        self.best_ns = best;
    }
}

/// Identifier for one case within a benchmark group.
pub struct BenchmarkId {
    label: String,
}

impl BenchmarkId {
    /// `name/parameter` form.
    pub fn new(name: impl fmt::Display, parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: format!("{name}/{parameter}"),
        }
    }

    /// Parameter-only form.
    pub fn from_parameter(parameter: impl fmt::Display) -> Self {
        BenchmarkId {
            label: parameter.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> Self {
        BenchmarkId {
            label: s.to_string(),
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> Self {
        BenchmarkId { label: s }
    }
}

/// Units processed per iteration, for derived throughput reporting.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Bytes per iteration.
    Bytes(u64),
    /// Elements per iteration.
    Elements(u64),
}

/// The benchmark driver.
pub struct Criterion {
    mode: Mode,
}

impl Default for Criterion {
    fn default() -> Self {
        let smoke = std::env::args().any(|a| a == "--test");
        Criterion {
            mode: if smoke {
                Mode::SmokeTest
            } else {
                Mode::Measure
            },
        }
    }
}

impl Criterion {
    /// Run one standalone benchmark.
    pub fn bench_function<F: FnMut(&mut Bencher)>(&mut self, name: &str, mut f: F) -> &mut Self {
        let mut b = Bencher {
            mode: self.mode,
            best_ns: f64::NAN,
        };
        f(&mut b);
        report(name, b.best_ns, None, self.mode);
        self
    }

    /// Open a named group of related cases.
    pub fn benchmark_group(&mut self, name: &str) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.to_string(),
            throughput: None,
        }
    }
}

/// A set of related benchmark cases sharing a name prefix.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Declare per-iteration work for throughput reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Accepted for compatibility; the loop sizes itself.
    pub fn sample_size(&mut self, _n: usize) -> &mut Self {
        self
    }

    /// Run one case in the group.
    pub fn bench_function<I: Into<BenchmarkId>, F: FnMut(&mut Bencher)>(
        &mut self,
        id: I,
        mut f: F,
    ) -> &mut Self {
        let id = id.into();
        let mut b = Bencher {
            mode: self.criterion.mode,
            best_ns: f64::NAN,
        };
        f(&mut b);
        report(
            &format!("{}/{}", self.name, id.label),
            b.best_ns,
            self.throughput,
            self.criterion.mode,
        );
        self
    }

    /// Run one case with an input handed through to the closure.
    pub fn bench_with_input<I, F: FnMut(&mut Bencher, &I)>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self {
        let mut b = Bencher {
            mode: self.criterion.mode,
            best_ns: f64::NAN,
        };
        f(&mut b, input);
        report(
            &format!("{}/{}", self.name, id.label),
            b.best_ns,
            self.throughput,
            self.criterion.mode,
        );
        self
    }

    /// Close the group.
    pub fn finish(self) {}
}

fn report(name: &str, best_ns: f64, throughput: Option<Throughput>, mode: Mode) {
    if mode == Mode::SmokeTest {
        println!("bench {name}: ok (smoke test)");
        return;
    }
    let time = if best_ns < 1_000.0 {
        format!("{best_ns:.1} ns")
    } else if best_ns < 1_000_000.0 {
        format!("{:.2} µs", best_ns / 1_000.0)
    } else {
        format!("{:.3} ms", best_ns / 1_000_000.0)
    };
    match throughput {
        Some(Throughput::Bytes(n)) => {
            let gibps = n as f64 / best_ns; // bytes/ns == GB/s
            println!("bench {name}: {time}/iter, {gibps:.3} GB/s");
        }
        Some(Throughput::Elements(n)) => {
            let meps = n as f64 / best_ns * 1_000.0; // elem/ns -> Melem/s
            println!("bench {name}: {time}/iter, {meps:.2} Melem/s");
        }
        None => println!("bench {name}: {time}/iter"),
    }
}

/// Group benchmark functions under one registry entry.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        fn $name() {
            let mut c = $crate::Criterion::default();
            $($target(&mut c);)+
        }
    };
}

/// Emit `main` running the listed groups.
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
    fn measures_something() {
        let mut c = Criterion {
            mode: Mode::Measure,
        };
        let mut g = c.benchmark_group("g");
        g.throughput(Throughput::Bytes(8));
        g.bench_function("sum", |b| b.iter(|| (0u64..32).sum::<u64>()));
        g.finish();
    }

    #[test]
    fn smoke_mode_runs_once() {
        let mut count = 0u32;
        let mut b = Bencher {
            mode: Mode::SmokeTest,
            best_ns: f64::NAN,
        };
        b.iter(|| count += 1);
        assert_eq!(count, 1);
    }
}
