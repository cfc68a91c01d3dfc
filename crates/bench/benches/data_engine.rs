//! Data-engine throughput: the filter → histogram loop behind every
//! visualization, at census scale (the Fig-6 workload substrate).

use aware_data::bitmap::Bitmap;
use aware_data::census::CensusGenerator;
use aware_data::column::Column;
use aware_data::hist::{categorical_histogram, numeric_histogram};
use aware_data::predicate::{CmpOp, Predicate};
use aware_data::sample::{downsample, permute_columns};
use aware_data::table::Table;
use aware_data::value::Value;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn filters(c: &mut Criterion) {
    let mut group = c.benchmark_group("filter_eval");
    for &rows in &[10_000usize, 100_000] {
        let table = CensusGenerator::new(1).generate(rows);
        group.throughput(Throughput::Elements(rows as u64));
        let simple = Predicate::eq("salary_over_50k", true);
        group.bench_with_input(BenchmarkId::new("equality", rows), &table, |b, t| {
            b.iter(|| simple.eval(black_box(t)).unwrap())
        });
        let chain = Predicate::eq("education", "PhD")
            .and(Predicate::eq("marital_status", "Married").negate())
            .and(Predicate::cmp("age", CmpOp::Ge, Value::from(30i64)));
        group.bench_with_input(
            BenchmarkId::new("three_condition_chain", rows),
            &table,
            |b, t| b.iter(|| chain.eval(black_box(t)).unwrap()),
        );
    }
    group.finish();
}

fn histograms(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram");
    for &rows in &[10_000usize, 100_000] {
        let table = CensusGenerator::new(2).generate(rows);
        let sel = Predicate::eq("salary_over_50k", true).eval(&table).unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("categorical", rows), &table, |b, t| {
            b.iter(|| categorical_histogram(black_box(t), "education", Some(&sel)).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("numeric_10bins", rows), &table, |b, t| {
            b.iter(|| numeric_histogram(black_box(t), "age", Some(&sel), 10).unwrap())
        });
    }
    group.finish();
}

/// A seeded selection of about `percent` % of the rows, scattered so
/// every word of the bitmap is equally dense.
fn scattered(rows: usize, percent: u32) -> Bitmap {
    let mut rng = SmallRng::seed_from_u64(u64::from(percent));
    Bitmap::from_fn(rows, |_| rng.gen_bool(f64::from(percent) / 100.0))
}

/// The histogram kernels across selection density. The counting
/// kernel reads `k·⌈n/64⌉` index words when that is no more than the
/// `min(|sel|, n−|sel|)` rows a walk would visit, a numeric row
/// counting for four, so for `education` (k = 5) the crossover sits at
/// 7.8 % / 92.2 % density and for `age` (k = 10) at 3.9 % / 96.1 %:
/// `education` is walked at 5 % and 95 % (95 % from the stored totals),
/// everything else is popcounted.
fn histogram_density(c: &mut Criterion) {
    let mut group = c.benchmark_group("histogram_density");
    for &rows in &[100_000usize, 1_000_000] {
        let table = CensusGenerator::new(2).generate(rows);
        group.throughput(Throughput::Elements(rows as u64));
        for percent in [5u32, 30, 70, 95] {
            let sel = scattered(rows, percent);
            let case = format!("{percent}pct/{rows}");
            group.bench_with_input(BenchmarkId::new("categorical", &case), &table, |b, t| {
                b.iter(|| categorical_histogram(black_box(t), "education", Some(&sel)).unwrap())
            });
            group.bench_with_input(BenchmarkId::new("numeric_10bins", &case), &table, |b, t| {
                b.iter(|| numeric_histogram(black_box(t), "age", Some(&sel), 10).unwrap())
            });
        }
        eprintln!(
            "histogram_density: bucket indexes of education + age over {rows} rows hold {} bytes",
            table.index_bytes()
        );
    }
    group.finish();
}

/// The evaluation cache on the growing-chain shape: cold chains pay the
/// naive fold, warm chains pay fingerprint lookups, and one-clause
/// extensions pay one scan + one word-level AND.
fn eval_cache(c: &mut Criterion) {
    use aware_data::cache::EvalCache;
    let rows = 100_000usize;
    let table = CensusGenerator::new(4).generate(rows);
    let chain = Predicate::eq("education", "PhD")
        .and(Predicate::eq("marital_status", "Married").negate())
        .and(Predicate::cmp("age", CmpOp::Ge, Value::from(30i64)))
        .and(Predicate::eq("salary_over_50k", true));
    let mut group = c.benchmark_group("eval_cache");
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("chain_cold", |b| {
        b.iter_batched(
            EvalCache::new,
            |cache| cache.selection(black_box(&table), &chain).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    let warm = EvalCache::new();
    warm.selection(&table, &chain).unwrap();
    group.bench_function("chain_warm", |b| {
        b.iter(|| warm.selection(black_box(&table), &chain).unwrap())
    });
    // One new clause on a warm prefix: the interactive step cost.
    let extended = chain.clone().and(Predicate::eq("sex", "Male"));
    group.bench_function("chain_extend_one_clause", |b| {
        b.iter_batched(
            || {
                let cache = EvalCache::new();
                cache.selection(&table, &chain).unwrap();
                cache
            },
            |cache| cache.selection(black_box(&table), &extended).unwrap(),
            criterion::BatchSize::SmallInput,
        )
    });
    group.bench_function("invariants_warm", |b| {
        b.iter(|| warm.invariants(black_box(&table), "age").unwrap())
    });

    // A cold test at the scale and shape of the `cold_scan_1m` workload:
    // a 3-clause filter (rank bit-slice `Between` and `≥`, bucket-index
    // `In`) through a fresh cache, then the rule-2 histogram under it.
    let rows = 1_000_000usize;
    let table = CensusGenerator::new(4).generate(rows);
    let cold = Predicate::between("age", 27.0, 52.0)
        .and(Predicate::cmp(
            "hours_per_week",
            CmpOp::Ge,
            Value::from(30.0),
        ))
        .and(Predicate::In {
            column: "education".into(),
            values: ["Some-College", "Bachelor", "Master"]
                .map(Value::from)
                .to_vec(),
        });
    group.throughput(Throughput::Elements(rows as u64));
    group.bench_function("cold_chain_1m", |b| {
        b.iter_batched(
            EvalCache::new,
            |cache| {
                let sel = cache.selection(black_box(&table), &cold).unwrap();
                numeric_histogram(&table, "age", Some(&sel), 10).unwrap()
            },
            criterion::BatchSize::SmallInput,
        )
    });
    group.finish();
}

/// The membership kernel: on a dictionary column an OR of the listed
/// buckets of the column's index (four of five labels: the complement
/// of the one left out), no row read.
fn in_membership(c: &mut Criterion) {
    use aware_data::value::Value;
    let pred = Predicate::In {
        column: "education".into(),
        values: ["HS", "Some-College", "Bachelor", "Master"]
            .iter()
            .map(|&s| Value::from(s))
            .collect(),
    };
    let mut group = c.benchmark_group("in_membership");
    for &rows in &[100_000usize, 1_000_000] {
        let table = CensusGenerator::new(5).generate(rows);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(BenchmarkId::new("four_values", rows), &table, |b, t| {
            b.iter(|| pred.eval(black_box(t)).unwrap())
        });
    }
    group.finish();
}

/// Numeric leaves. `age` (62 distinct values, 6 rank slices) and
/// `hours_per_week` (about 80, 7 slices) are answered from their rank
/// bit-slices. `wide` is `age` plus a per-row fraction — every value
/// distinct, over the index's 65 536-value rule — so the same three
/// shapes over it run the scan kernels: the two sets of rows are the
/// index against what it replaced, re-checkable on any commit.
/// `index_build` is a column's first leaf: bucket bitmaps and rank
/// slices built, then one compare.
fn numeric_range(c: &mut Criterion) {
    let mut group = c.benchmark_group("numeric_range");
    for &rows in &[100_000usize, 1_000_000] {
        let census = CensusGenerator::new(6).generate(rows);
        let mut columns: Vec<(String, Column)> = census
            .column_names()
            .iter()
            .enumerate()
            .map(|(at, name)| (name.clone(), census.column_at(at).clone()))
            .collect();
        let ages = census.numeric_values("age", None).unwrap();
        let wide = ages
            .iter()
            .enumerate()
            .map(|(row, age)| age + row as f64 / rows as f64)
            .collect();
        columns.push(("wide".into(), Column::Float64(wide)));
        let table = Table::new(columns).unwrap();
        group.throughput(Throughput::Elements(rows as u64));
        for (kernel, age, hours) in [
            ("slices", "age", "hours_per_week"),
            ("scan", "wide", "wide"),
        ] {
            let shapes = [
                ("between", Predicate::between(age, 30.0, 45.5)),
                ("ge", Predicate::cmp(hours, CmpOp::Ge, Value::from(40i64))),
                ("neq", Predicate::cmp(age, CmpOp::Neq, Value::from(30i64))),
            ];
            for (shape, pred) in shapes {
                let id = BenchmarkId::new(format!("{shape}_{kernel}"), rows);
                group.bench_with_input(id, &table, |b, t| {
                    b.iter(|| pred.eval(black_box(t)).unwrap())
                });
            }
        }
        let first_leaf = Predicate::between("age", 30.0, 45.5);
        group.bench_with_input(BenchmarkId::new("index_build", rows), &table, |b, t| {
            b.iter_batched(
                // A projection starts without indexes.
                || t.project(&["age"]).unwrap(),
                |fresh| first_leaf.eval(black_box(&fresh)).unwrap(),
                criterion::BatchSize::LargeInput,
            )
        });
        eprintln!(
            "numeric_range: indexes of age + hours_per_week (+ wide's bins) over {rows} rows hold {} bytes",
            table.index_bytes()
        );
    }
    group.finish();
}

fn sampling(c: &mut Criterion) {
    let mut group = c.benchmark_group("sampling");
    let table = CensusGenerator::new(3).generate(100_000);
    group.throughput(Throughput::Elements(100_000));
    group.bench_function("downsample_10pct", |b| {
        b.iter(|| downsample(black_box(&table), 0.1, 7).unwrap())
    });
    group.bench_function("permute_columns", |b| {
        b.iter(|| permute_columns(black_box(&table), 7).unwrap())
    });
    group.finish();
}

/// Shared Criterion configuration: short but stable windows so the whole
/// suite runs in a few minutes without CLI flags.
fn quick() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(2))
        .sample_size(30)
}

criterion_group! {
    name = benches;
    config = quick();
    targets = filters, histograms, histogram_density, eval_cache, in_membership, numeric_range,
        sampling
}
criterion_main!(benches);
