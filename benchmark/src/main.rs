//! The AWARE serving benchmark. See `README.md` in this directory.
//!
//! ```text
//! aware-benchmark --workload NAME --seed N --seconds S --trace 0|1   one run, one result line
//! aware-benchmark --check                                            every workload at 1/10 size
//! aware-benchmark --repeat N [--seed N] [--workload NAME]            two sets of N runs, compared
//! aware-benchmark --manifest                                         print BENCHMARK.json
//! ```

mod layers;
mod metrics;
mod oracle;
mod procs;
mod run;
mod summary;
mod trace;
mod workload;

use metrics::{Reported, END_TO_END, PER_LAYER, RUN_SECONDS};
use procs::Binaries;
use run::LoadPlan;
use std::time::{Duration, Instant};
use workload::{Spec, SPECS};

/// One invocation must end well inside the 180 s the driver allows.
const TIME_LIMIT: Duration = Duration::from_secs(170);
/// `--seed` when none is given, and the second seed documented for
/// held-out claims (README, "Seeds").
const DEFAULT_SEED: u64 = 1;

/// How long each part of a run lasts; shrunk by `--check`.
#[derive(Clone, Copy)]
struct Sizing {
    /// Untraced run: warm-up after priming, then the measured interval.
    end_to_end: LoadPlan,
    /// Each of the traced run's two passes over the binaries.
    pass: LoadPlan,
}

fn sizing(seconds: f64) -> Sizing {
    let plan = |warmup: f64, measure: f64| LoadPlan {
        warmup: Duration::from_secs_f64(warmup),
        measure: Duration::from_secs_f64(measure),
    };
    Sizing {
        end_to_end: plan(seconds / 5.0, seconds),
        pass: plan(seconds / 15.0, seconds / 5.0),
    }
}

/// Result of one run in either mode.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Reported>,
}

fn report_problems(problems: &[String]) {
    for p in problems.iter().take(8) {
        eprintln!("benchmark: FAILED OP: {p}");
    }
}

fn run_untraced(
    binaries: &Binaries,
    spec: &Spec,
    seed: u64,
    sizing: Sizing,
) -> Result<Outcome, String> {
    let e = run::end_to_end(binaries, spec, seed, sizing.end_to_end)?;
    report_problems(&e.problems);
    eprintln!(
        "benchmark: {} seed {seed}: {} ops attempted, {} failed (fail_share {:.6}); oracle compared {} decisions; \
         the percentiles rest on {} samples",
        spec.name,
        e.attempted,
        e.failed,
        e.failed as f64 / e.attempted.max(1) as f64,
        e.oracle_decisions,
        e.pooled,
    );
    let values = [
        e.op_p50_us,
        e.op_p99_us,
        e.ops_per_s,
        e.setup_s,
        e.peak_rss_mb,
    ];
    Ok(Outcome {
        correct: e.failed == 0,
        attempted: e.attempted.max(1),
        failed: e.failed,
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, value)| Reported {
                name: m.name,
                unit: m.unit,
                value,
            })
            .collect(),
    })
}

fn run_traced(
    binaries: &Binaries,
    spec: &Spec,
    seed: u64,
    sizing: Sizing,
) -> Result<Outcome, String> {
    let t = trace::traced(binaries, spec, seed, sizing.pass)?;
    report_problems(&t.problems);
    let path = trace::write_spans(spec, seed, &t.spans)?;
    let selfs: Vec<String> = t
        .path_selfs
        .iter()
        .map(|(name, ns)| format!("{name} {ns:.0}"))
        .collect();
    eprintln!(
        "benchmark: {} seed {seed}: {} spans in {}; self time per op on the request path, fattest first (ns): {}",
        spec.name,
        t.spans.len(),
        path.display(),
        selfs.join(", "),
    );
    Ok(Outcome {
        correct: t.failed == 0,
        attempted: t.attempted.max(1),
        failed: t.failed,
        metrics: t.metrics,
    })
}

fn run_one(
    binaries: &Binaries,
    spec: &Spec,
    seed: u64,
    sizing: Sizing,
    traced: bool,
) -> Result<Outcome, String> {
    let began = Instant::now();
    let outcome = if traced {
        run_traced(binaries, spec, seed, sizing)
    } else {
        run_untraced(binaries, spec, seed, sizing)
    }?;
    for m in &outcome.metrics {
        eprintln!("benchmark:   {:<36} {:>16.4} {}", m.name, m.value, m.unit);
    }
    eprintln!(
        "benchmark: {} took {:.1} s",
        spec.name,
        began.elapsed().as_secs_f64()
    );
    if let Some(bad) = outcome.metrics.iter().find(|m| !m.value.is_finite()) {
        return Err(format!("{} is not finite", bad.name));
    }
    Ok(outcome)
}

fn provenance_line() {
    let p = procs::provenance();
    eprintln!(
        "benchmark: commit {}, {}, nproc {}",
        p.commit, p.rustc, p.nproc
    );
}

/// `--check`: every workload, both modes, at a tenth of the size, and
/// every declared metric present once, finite and — where zero would
/// mean "not measured" — non-zero.
fn check(binaries: &Binaries) -> Result<(), String> {
    let sizing = sizing(1.0);
    for spec in SPECS {
        let spec = spec.scaled(0.1);
        for traced in [false, true] {
            let outcome = run_one(binaries, &spec, DEFAULT_SEED, sizing, traced)?;
            if !outcome.correct {
                return Err(format!(
                    "{}: {} failed operations",
                    spec.name, outcome.failed
                ));
            }
            let declared: Vec<(&str, &str)> = if traced {
                PER_LAYER.iter().map(|m| (m.name, m.unit)).collect()
            } else {
                END_TO_END.iter().map(|m| (m.name, m.unit)).collect()
            };
            for (name, unit) in declared {
                let found: Vec<&Reported> =
                    outcome.metrics.iter().filter(|m| m.name == name).collect();
                let [m] = found[..] else {
                    return Err(format!(
                        "{}: {name} reported {} times",
                        spec.name,
                        found.len()
                    ));
                };
                // Counts, ratios and the server's whole-microsecond
                // stage quantiles may honestly read 0.
                let may_be_zero = traced && matches!(unit, "count" | "ratio" | "us");
                if m.unit != unit || !m.value.is_finite() || (m.value == 0.0 && !may_be_zero) {
                    return Err(format!("{}: {name} = {} {}", spec.name, m.value, m.unit));
                }
            }
        }
    }
    eprintln!("benchmark: check passed");
    Ok(())
}

/// `--repeat N`: two sets of `N` runs per workload over the same seeds;
/// per metric the sets' medians, quartiles and spread against the bound.
/// Fails when a spread exceeds its bound (`setup_s` excepted, as in the
/// acceptance rule) or the second set's median is worse than the
/// first's by more than the bound.
fn repeat(binaries: &Binaries, specs: &[Spec], n: usize, seed: u64) -> Result<(), String> {
    if n < 2 {
        return Err("--repeat needs at least 2 runs per set".into());
    }
    let sizing = sizing(RUN_SECONDS as f64);
    let p = procs::provenance();
    println!(
        "# {n} runs per set, seeds {seed}..{}, commit {}, {}, nproc {}",
        seed + n as u64,
        p.commit,
        p.rustc,
        p.nproc
    );
    let mut disagreements = Vec::new();
    for spec in specs {
        let mut sets: [Vec<Vec<f64>>; 2] = [
            vec![Vec::new(); END_TO_END.len()],
            vec![Vec::new(); END_TO_END.len()],
        ];
        for set in &mut sets {
            for i in 0..n as u64 {
                let outcome = run_one(binaries, spec, seed + i, sizing, false)?;
                if !outcome.correct {
                    return Err(format!(
                        "{} seed {}: {} failed operations",
                        spec.name,
                        seed + i,
                        outcome.failed
                    ));
                }
                for (values, m) in set.iter_mut().zip(&outcome.metrics) {
                    values.push(m.value);
                }
            }
        }
        println!("{}", spec.name);
        println!(
            "  {:<12} {:>5} {:>12} {:>12} {:>12} {:>8} {:>12} {:>8} {:>8}  verdict",
            "metric",
            "bound",
            "A q1",
            "A median",
            "A q3",
            "A spread",
            "B median",
            "B spread",
            "B vs A"
        );
        for (k, m) in END_TO_END.iter().enumerate() {
            let [a_q1, a_med, a_q3] = summary::quartiles(&sets[0][k]);
            let b_med = summary::quartiles(&sets[1][k])[1];
            let (a_spread, b_spread) = (summary::spread(&sets[0][k]), summary::spread(&sets[1][k]));
            let worse = if m.better == "lower" {
                b_med / a_med - 1.0
            } else {
                1.0 - b_med / a_med
            };
            let spread_ok = m.name == "setup_s" || a_spread.max(b_spread) <= m.bound;
            let agree = spread_ok && worse <= m.bound;
            println!(
                "  {:<12} {:>5.2} {:>12.4} {:>12.4} {:>12.4} {:>8.4} {:>12.4} {:>8.4} {:>+8.4}  {}",
                m.name,
                m.bound,
                a_q1,
                a_med,
                a_q3,
                a_spread,
                b_med,
                b_spread,
                worse,
                if agree { "agree" } else { "DISAGREE" }
            );
            if !agree {
                disagreements.push(format!("{} {}", spec.name, m.name));
            }
        }
    }
    if disagreements.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "the two sets disagree beyond the bound on: {}",
            disagreements.join(", ")
        ))
    }
}

struct Args {
    workload: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: Option<bool>,
    repeat: Option<usize>,
    check: bool,
    manifest: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: None,
        seconds: None,
        trace: None,
        repeat: None,
        check: false,
        manifest: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = Some(value()?),
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                args.seconds = Some(value()?.parse().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                args.trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--repeat" => {
                args.repeat = Some(value()?.parse().map_err(|e| format!("--repeat: {e}"))?)
            }
            "--check" => args.check = true,
            "--manifest" => args.manifest = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn named_spec(name: &str) -> Result<Spec, String> {
    workload::spec(name).ok_or_else(|| {
        let names: Vec<&str> = SPECS.iter().map(|s| s.name).collect();
        format!("unknown workload {name}; one of {}", names.join(", "))
    })
}

fn real_main() -> Result<(), String> {
    let args = parse_args()?;
    if args.manifest {
        print!("{}", metrics::manifest());
        return Ok(());
    }
    provenance_line();
    layers::quiet_logs();
    let binaries = procs::build_binaries()?;
    if args.check {
        procs::start_watchdog(TIME_LIMIT);
        return check(&binaries);
    }
    if let Some(n) = args.repeat {
        let specs = match &args.workload {
            Some(name) => vec![named_spec(name)?],
            None => SPECS.to_vec(),
        };
        return repeat(&binaries, &specs, n, args.seed.unwrap_or(DEFAULT_SEED));
    }
    let spec = named_spec(args.workload.as_deref().ok_or("--workload is required")?)?;
    let seed = args.seed.ok_or("--seed is required")?;
    let seconds = args.seconds.unwrap_or(RUN_SECONDS as f64);
    if !(1.0..=60.0).contains(&seconds) {
        return Err(format!("--seconds {seconds} is outside 1..=60"));
    }
    procs::start_watchdog(TIME_LIMIT);
    let outcome = run_one(
        &binaries,
        &spec,
        seed,
        sizing(seconds),
        args.trace.unwrap_or(false),
    )?;
    println!(
        "{}",
        metrics::result_line(
            outcome.correct,
            outcome.attempted,
            outcome.failed,
            &outcome.metrics
        )
    );
    Ok(())
}

fn main() {
    if let Err(e) = real_main() {
        eprintln!("benchmark: {e}");
        std::process::exit(1);
    }
}
