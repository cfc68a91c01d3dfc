//! End-to-end interactivity: the latency of one `add_visualization` call
//! (heuristics + filter + histogram + χ² + α-investing + flip estimate) —
//! the operation behind every click in the paper's Figure 1 — the
//! Fig-6 workflow replay, the gauge / transcript read that follows
//! every click (from scratch and from the session's ledger-text memo),
//! and the decode → restore → gauge read of a spilled session.

use aware_core::session::Session;
use aware_core::{gauge, transcript};
use aware_data::census::{CensusGenerator, ATTRIBUTES, EDUCATION, RACE};
use aware_data::predicate::Predicate;
use aware_mht::investing::policies::Fixed;
use aware_sim::workflow::WorkflowGenerator;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::hint::black_box;

fn session_step(c: &mut Criterion) {
    let mut group = c.benchmark_group("session_step");
    for &rows in &[10_000usize, 100_000] {
        let table = CensusGenerator::new(4).generate(rows);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_with_input(
            BenchmarkId::new("add_visualization", rows),
            &table,
            |b, t| {
                let mut i = 0usize;
                b.iter_batched(
                    || Session::new(t.clone(), 0.05, Fixed::new(1e6)).unwrap(),
                    |mut s| {
                        i = (i + 1) % RACE.len();
                        s.add_visualization(black_box("education"), Predicate::eq("race", RACE[i]))
                            .unwrap()
                    },
                    criterion::BatchSize::LargeInput,
                )
            },
        );
    }
    group.finish();
}

fn fig6_workflow(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig6_workflow");
    let table = CensusGenerator::new(5).generate(20_000);
    let workflow = WorkflowGenerator::paper_default(5).generate();
    group.throughput(Throughput::Elements(workflow.len() as u64));
    group.bench_function("replay_115_hypotheses_20k_rows", |b| {
        b.iter(|| workflow.evaluate(black_box(&table)))
    });
    group.finish();
}

/// Re-reading the gauge / CSV transcript of an unchanged ledger of 8
/// (a drill-down) and 48 (a long session) entries: every entry
/// formatted again, against header + memoised body + footer.
fn ledger_text(c: &mut Criterion) {
    let mut group = c.benchmark_group("ledger_text");
    let table = CensusGenerator::new(6).generate(5_000);
    for &entries in &[8usize, 48] {
        let mut s = Session::new(table.clone(), 0.05, Fixed::new(1e6)).unwrap();
        for i in 0.. {
            if s.hypotheses().len() == entries {
                break;
            }
            let filter = Predicate::eq("race", RACE[i % RACE.len()])
                .and(Predicate::eq("education", EDUCATION[i % EDUCATION.len()]));
            s.add_visualization(ATTRIBUTES[i % ATTRIBUTES.len()], filter)
                .unwrap();
        }
        // The memo starts at a session's second read.
        for _ in 0..2 {
            assert_eq!(gauge::render_memo(&mut s), gauge::render(&s));
            assert_eq!(
                transcript::export_csv_memo(&mut s),
                transcript::export_csv(&s)
            );
        }
        group.bench_function(BenchmarkId::new("gauge_from_scratch", entries), |b| {
            b.iter(|| gauge::render(black_box(&s)))
        });
        group.bench_function(BenchmarkId::new("gauge_memo", entries), |b| {
            b.iter(|| gauge::render_memo(black_box(&mut s)))
        });
        group.bench_function(BenchmarkId::new("csv_memo", entries), |b| {
            b.iter(|| transcript::export_csv_memo(black_box(&mut s)))
        });
    }
    group.finish();
}

/// The read side of a spilled session, piece by piece: decoding its
/// `AWRS` image, restoring it (ledger re-validation; no selection is
/// derived) and rendering its gauge from scratch — what every
/// `durable_evict_20k` op pays. Sessions of 24 and 48 entries from
/// drill-down chains up to 12 clauses deep, over 20k rows.
fn durable_read(c: &mut Criterion) {
    use aware_serve::proto::PolicySpec;
    use aware_serve::snapshot::{self, SessionImage};
    use std::sync::Arc;
    let mut group = c.benchmark_group("durable_read");
    let table = Arc::new(CensusGenerator::new(7).generate(20_000));
    let cache = Arc::new(aware_data::cache::EvalCache::new());
    let policy = PolicySpec::Fixed { gamma: 1000.0 };
    for &entries in &[24usize, 48] {
        let mut s =
            Session::shared_with_cache(table.clone(), 0.05, policy.build().unwrap(), cache.clone())
                .unwrap();
        let mut chain = Predicate::True;
        for i in 0.. {
            if s.hypotheses().len() == entries {
                break;
            }
            let clause = match i % 3 {
                0 => Predicate::eq("race", RACE[i % RACE.len()]),
                1 => Predicate::eq("education", EDUCATION[i % EDUCATION.len()]),
                _ => Predicate::eq("sex", "Male"),
            }
            .negate();
            chain = if i % 12 == 0 {
                clause
            } else {
                chain.and(clause)
            };
            s.add_visualization(ATTRIBUTES[i % ATTRIBUTES.len()], chain.clone())
                .unwrap();
        }
        let bytes = snapshot::encode(&SessionImage {
            id: 1,
            dataset: "census".into(),
            fingerprint: Some(table.fingerprint()),
            policy: policy.clone(),
            policy_since: 0,
            session: s.snapshot(),
        });
        let restore = |image: SessionImage| {
            Session::restore(
                table.clone(),
                Some(cache.clone()),
                image.session,
                image.policy.build().unwrap(),
                0,
            )
            .unwrap()
        };
        let restored = restore(snapshot::decode(&bytes).unwrap());
        assert_eq!(gauge::render(&restored), gauge::render(&s));
        group.bench_function(BenchmarkId::new("decode", entries), |b| {
            b.iter(|| snapshot::decode(black_box(&bytes)).unwrap())
        });
        group.bench_function(BenchmarkId::new("restore", entries), |b| {
            b.iter_batched(
                || snapshot::decode(&bytes).unwrap(),
                &restore,
                criterion::BatchSize::SmallInput,
            )
        });
        group.bench_function(BenchmarkId::new("gauge", entries), |b| {
            b.iter(|| gauge::render(black_box(&restored)))
        });
    }
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
    targets = session_step, fig6_workflow, ledger_text, durable_read
}
criterion_main!(benches);
