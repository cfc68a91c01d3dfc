//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Implements the API subset the workspace's benches use — benchmark
//! groups, `bench_function` / `bench_with_input`, `iter` / `iter_batched`,
//! throughput annotations, and the `criterion_group!` / `criterion_main!`
//! macros — with a simple but honest timing loop: warm-up, then timed
//! batches until the measurement window closes, reporting the median
//! batch's per-iteration time and derived throughput.
//!
//! When invoked with `--test` (as `cargo test --benches` does) every
//! benchmark runs exactly one iteration, so benches double as smoke tests
//! without burning CI time.

use std::time::{Duration, Instant};

/// Re-export so benches can use `criterion::black_box` like the real crate.
pub use std::hint::black_box;

/// Top-level harness state and configuration.
pub struct Criterion {
    warm_up: Duration,
    measurement: Duration,
    sample_size: usize,
    test_mode: bool,
}

impl Default for Criterion {
    fn default() -> Self {
        Criterion {
            warm_up: Duration::from_millis(500),
            measurement: Duration::from_secs(2),
            sample_size: 30,
            test_mode: std::env::args().any(|a| a == "--test"),
        }
    }
}

impl Criterion {
    /// Sets the warm-up window.
    pub fn warm_up_time(mut self, d: Duration) -> Self {
        self.warm_up = d;
        self
    }

    /// Sets the measurement window.
    pub fn measurement_time(mut self, d: Duration) -> Self {
        self.measurement = d;
        self
    }

    /// Sets the target number of timed samples per benchmark.
    pub fn sample_size(mut self, n: usize) -> Self {
        self.sample_size = n.max(1);
        self
    }

    /// Opens a named group of related benchmarks.
    pub fn benchmark_group(&mut self, name: impl Into<String>) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            criterion: self,
            name: name.into(),
            throughput: None,
        }
    }

    /// Benchmarks a single function outside any group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let id = id.into();
        run_bench(self, &id.render(), None, &mut f);
        self
    }
}

/// Identifies one benchmark within a group.
#[derive(Debug, Clone)]
pub struct BenchmarkId {
    function: String,
    parameter: Option<String>,
}

impl BenchmarkId {
    /// A benchmark named `function` at `parameter` (rendered `fn/param`).
    pub fn new(function: impl Into<String>, parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: function.into(),
            parameter: Some(parameter.to_string()),
        }
    }

    /// Only a parameter, for groups benchmarking one function.
    pub fn from_parameter(parameter: impl std::fmt::Display) -> BenchmarkId {
        BenchmarkId {
            function: String::new(),
            parameter: Some(parameter.to_string()),
        }
    }

    fn render(&self) -> String {
        match (&self.function[..], &self.parameter) {
            ("", Some(p)) => p.clone(),
            (f, Some(p)) => format!("{f}/{p}"),
            (f, None) => f.to_string(),
        }
    }
}

impl From<&str> for BenchmarkId {
    fn from(s: &str) -> BenchmarkId {
        BenchmarkId {
            function: s.to_string(),
            parameter: None,
        }
    }
}

impl From<String> for BenchmarkId {
    fn from(s: String) -> BenchmarkId {
        BenchmarkId {
            function: s,
            parameter: None,
        }
    }
}

/// Units processed per iteration, used to report a rate.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Elements (rows, commands, hypotheses …) per iteration.
    Elements(u64),
    /// Bytes per iteration.
    Bytes(u64),
}

/// How `iter_batched` amortizes setup; the shim times the routine only,
/// so the variants are equivalent and kept for API compatibility.
#[derive(Debug, Clone, Copy)]
pub enum BatchSize {
    SmallInput,
    LargeInput,
    PerIteration,
}

/// A named collection of benchmarks sharing throughput settings.
pub struct BenchmarkGroup<'a> {
    criterion: &'a mut Criterion,
    name: String,
    throughput: Option<Throughput>,
}

impl BenchmarkGroup<'_> {
    /// Annotates subsequent benchmarks with a per-iteration workload size.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Benchmarks `f` under this group.
    pub fn bench_function<F>(&mut self, id: impl Into<BenchmarkId>, mut f: F) -> &mut Self
    where
        F: FnMut(&mut Bencher),
    {
        let label = format!("{}/{}", self.name, id.into().render());
        run_bench(self.criterion, &label, self.throughput, &mut f);
        self
    }

    /// Benchmarks `f` with a borrowed input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher, &I),
    {
        let label = format!("{}/{}", self.name, id.render());
        run_bench(self.criterion, &label, self.throughput, &mut |b| {
            f(b, input)
        });
        self
    }

    /// Ends the group (report flushing is per-benchmark in the shim).
    pub fn finish(self) {}
}

/// Passed to benchmark closures; drives the timing loop.
pub struct Bencher {
    iters_per_sample: u64,
    samples_ns: Vec<f64>, // per-iteration nanoseconds, one entry per sample
    test_mode: bool,
}

impl Bencher {
    /// Times `routine`, which is called `iters_per_sample` times per
    /// timed sample.
    pub fn iter<R, F: FnMut() -> R>(&mut self, mut routine: F) {
        if self.test_mode {
            black_box(routine());
            self.samples_ns.push(0.0);
            return;
        }
        let n = self.iters_per_sample.max(1);
        let start = Instant::now();
        for _ in 0..n {
            black_box(routine());
        }
        let elapsed = start.elapsed().as_nanos() as f64;
        self.samples_ns.push(elapsed / n as f64);
    }

    /// Times `routine` on fresh values from `setup`; setup time is
    /// excluded from the measurement.
    pub fn iter_batched<S, R, FS, FR>(&mut self, mut setup: FS, mut routine: FR, _size: BatchSize)
    where
        FS: FnMut() -> S,
        FR: FnMut(S) -> R,
    {
        if self.test_mode {
            let input = setup();
            black_box(routine(input));
            self.samples_ns.push(0.0);
            return;
        }
        let n = self.iters_per_sample.max(1);
        let mut total = Duration::ZERO;
        for _ in 0..n {
            let input = setup();
            let start = Instant::now();
            black_box(routine(input));
            total += start.elapsed();
        }
        self.samples_ns.push(total.as_nanos() as f64 / n as f64);
    }
}

/// The artifact named by the `BENCH_JSON` environment variable, when
/// set and non-empty. CI points this at a JSON-lines file (e.g.
/// `BENCH_serve.json`) so the perf trajectory is tracked across PRs.
fn bench_json_path() -> Option<String> {
    std::env::var("BENCH_JSON").ok().filter(|p| !p.is_empty())
}

fn append_row(path: &str, line: &str) {
    let _ = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .and_then(|mut f| std::io::Write::write_all(&mut f, line.as_bytes()));
}

/// Appends one median record to the `BENCH_JSON` artifact (no-op when
/// unset): test-mode runs record `"mode":"test"` with zero timings,
/// real runs record the measured median and rate. Public so a bench
/// that drives its own sampling loop emits the exact row shape the
/// harness does — one shape for the CI guards and artifact diffs.
pub fn record_json(label: &str, mode: &str, median_ns: f64, throughput: Option<Throughput>) {
    if let Some(path) = bench_json_path() {
        record_json_to(&path, label, mode, median_ns, throughput);
    }
}

fn record_json_to(
    path: &str,
    label: &str,
    mode: &str,
    median_ns: f64,
    throughput: Option<Throughput>,
) {
    let escaped: String = label
        .chars()
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            c => vec![c],
        })
        .collect();
    let rate = match throughput {
        Some(Throughput::Elements(n)) | Some(Throughput::Bytes(n)) if median_ns > 0.0 => {
            n as f64 / (median_ns * 1e-9)
        }
        _ => 0.0,
    };
    let unit = match throughput {
        Some(Throughput::Bytes(_)) => "bytes_per_sec",
        _ => "elements_per_sec",
    };
    let line = format!(
        "{{\"bench\":\"{escaped}\",\"mode\":\"{mode}\",\"median_ns\":{median_ns:.1},\"{unit}\":{rate:.1}}}\n",
    );
    append_row(path, &line);
}

/// Sorts `samples_ns`, prints its p50/p90/p99, and appends them as one
/// latency-quantile record to the `BENCH_JSON` artifact. `extra` is
/// spliced in verbatim before the closing brace (`,"key":value…`).
pub fn record_quantiles(label: &str, samples_ns: &mut [u64], extra: &str) {
    samples_ns.sort_unstable();
    let q = |p: f64| samples_ns[((samples_ns.len() - 1) as f64 * p) as usize];
    let (p50, p90, p99) = (q(0.50), q(0.90), q(0.99));
    println!("bench {label:<55} p50 {p50} ns  p90 {p90} ns  p99 {p99} ns");
    if let Some(path) = bench_json_path() {
        let line = format!(
            "{{\"bench\":\"{label}\",\"mode\":\"measured\",\"p50_ns\":{p50},\"p90_ns\":{p90},\"p99_ns\":{p99}{extra}}}\n",
        );
        append_row(&path, &line);
    }
}

fn run_bench<F: FnMut(&mut Bencher)>(
    c: &Criterion,
    label: &str,
    throughput: Option<Throughput>,
    f: &mut F,
) {
    if c.test_mode {
        let mut b = Bencher {
            iters_per_sample: 1,
            samples_ns: Vec::new(),
            test_mode: true,
        };
        f(&mut b);
        println!("test-mode bench {label}: ok");
        record_json(label, "test", 0.0, throughput);
        return;
    }

    // Warm-up and calibration: find an iteration count whose sample takes
    // roughly measurement/sample_size, by doubling from 1.
    let mut iters: u64 = 1;
    let warm_start = Instant::now();
    let target_sample = c.measurement.div_f64(c.sample_size as f64);
    loop {
        let mut b = Bencher {
            iters_per_sample: iters,
            samples_ns: Vec::new(),
            test_mode: false,
        };
        let t0 = Instant::now();
        f(&mut b);
        let sample_time = t0.elapsed();
        if warm_start.elapsed() >= c.warm_up || sample_time >= target_sample {
            break;
        }
        iters = iters.saturating_mul(2);
    }

    // Measurement: repeat samples until the window closes.
    let mut samples: Vec<f64> = Vec::with_capacity(c.sample_size);
    let meas_start = Instant::now();
    while samples.len() < c.sample_size && meas_start.elapsed() < c.measurement {
        let mut b = Bencher {
            iters_per_sample: iters,
            samples_ns: Vec::new(),
            test_mode: false,
        };
        f(&mut b);
        samples.extend(b.samples_ns);
    }
    if samples.is_empty() {
        let mut b = Bencher {
            iters_per_sample: iters,
            samples_ns: Vec::new(),
            test_mode: false,
        };
        f(&mut b);
        samples.extend(b.samples_ns);
    }
    samples.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let median = samples[samples.len() / 2];
    let lo = samples[0];
    let hi = samples[samples.len() - 1];

    record_json(label, "measured", median, throughput);
    let rate = throughput.map(|t| match t {
        Throughput::Elements(n) => format!("  {:>12}/s", si(n as f64 / (median * 1e-9))),
        Throughput::Bytes(n) => format!("  {:>10}B/s", si(n as f64 / (median * 1e-9))),
    });
    println!(
        "bench {label:<55} {:>12}/iter  [{} .. {}]{}",
        ns(median),
        ns(lo),
        ns(hi),
        rate.unwrap_or_default()
    );
}

fn ns(v: f64) -> String {
    if v < 1_000.0 {
        format!("{v:.1} ns")
    } else if v < 1_000_000.0 {
        format!("{:.2} µs", v / 1_000.0)
    } else if v < 1_000_000_000.0 {
        format!("{:.2} ms", v / 1_000_000.0)
    } else {
        format!("{:.3} s", v / 1_000_000_000.0)
    }
}

fn si(v: f64) -> String {
    if v >= 1e9 {
        format!("{:.2}G", v / 1e9)
    } else if v >= 1e6 {
        format!("{:.2}M", v / 1e6)
    } else if v >= 1e3 {
        format!("{:.2}K", v / 1e3)
    } else {
        format!("{v:.1}")
    }
}

/// Declares a group of benchmark functions, optionally with a shared
/// `Criterion` configuration.
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

/// Emits `main` running every listed group.
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

    fn sample_bench(c: &mut Criterion) {
        let mut group = c.benchmark_group("shim");
        group.throughput(Throughput::Elements(100));
        group.bench_function("sum", |b| b.iter(|| (0..100u64).sum::<u64>()));
        group.bench_with_input(BenchmarkId::new("sum_to", 50), &50u64, |b, &n| {
            b.iter(|| (0..n).sum::<u64>())
        });
        group.finish();
        c.bench_function("batched", |b| {
            b.iter_batched(
                || vec![1u64; 64],
                |v| v.iter().sum::<u64>(),
                BatchSize::SmallInput,
            )
        });
    }

    #[test]
    fn harness_runs_benches() {
        // Tiny windows so the test finishes instantly.
        let mut c = Criterion {
            test_mode: false,
            ..Criterion::default()
                .warm_up_time(Duration::from_millis(1))
                .measurement_time(Duration::from_millis(10))
                .sample_size(3)
        };
        sample_bench(&mut c);
    }

    #[test]
    fn test_mode_runs_single_iterations() {
        let mut c = Criterion {
            test_mode: true,
            ..Criterion::default()
        };
        sample_bench(&mut c);
    }

    #[test]
    fn bench_json_records_are_well_formed() {
        let dir = std::env::temp_dir().join(format!("bench_json_{}", std::process::id()));
        let path = dir.join("BENCH_test.json");
        std::fs::create_dir_all(&dir).unwrap();
        let _ = std::fs::remove_file(&path);
        let path_str = path.to_str().unwrap();
        record_json_to(
            path_str,
            "group/\"case\"/1",
            "measured",
            2_000.0,
            Some(Throughput::Elements(64)),
        );
        record_json_to(path_str, "group/case/8", "test", 0.0, None);
        let contents = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = contents.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"mode\":\"measured\""));
        assert!(
            lines[0].contains("\\\"case\\\""),
            "quote escaped: {}",
            lines[0]
        );
        assert!(lines[0].contains("\"elements_per_sec\":32000000.0"));
        assert!(lines[1].contains("\"median_ns\":0.0"));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_dir(&dir);
    }

    #[test]
    fn id_rendering() {
        assert_eq!(BenchmarkId::new("f", 10).render(), "f/10");
        assert_eq!(BenchmarkId::from_parameter("x").render(), "x");
        assert_eq!(BenchmarkId::from("plain").render(), "plain");
    }
}
