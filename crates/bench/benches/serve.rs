//! End-to-end serving throughput, three angles:
//!
//! * `serve_throughput` — commands per second through the in-process
//!   `ServiceHandle` at 1, 8, and 64 concurrent sessions (the same
//!   dispatch, registry, and session path the TCP front end uses,
//!   minus socket I/O). Each measured iteration creates the sessions,
//!   drives an interleaved per-session command stream (filtered
//!   visualizations → hypothesis tests through α-investing), and
//!   closes them, so no state leaks between iterations. One client
//!   thread per session, and each command runs on its client's thread
//!   under its session's stripe, so the parallelism under test is the
//!   client threads' over the service's shared state.
//! * `serve_batch_dispatch` — protocol v2's reason to exist: the same
//!   64 single-session commands as 64 `call`s vs one `call_batch`, at
//!   batch sizes 1/8/64/256. The per-command work is held light
//!   (gauge renders) so what's measured is dispatch overhead — a
//!   pending-slot reservation, a stripe and a reply allocation per
//!   *unit*, not per command.
//! * `serve_wire` — full TCP loopback at the same batch sizes in both
//!   encodings (NDJSON lines vs AWR2 binary frames), so the codec and
//!   syscall savings are visible end to end.

use aware_data::census::{CensusGenerator, EDUCATION, RACE};
use aware_data::predicate::CmpOp;
use aware_data::table::Table;
use aware_data::value::Value;
use aware_serve::proto::{
    BatchMode, Command, Encoding, FilterSpec, PolicySpec, SessionId, TranscriptFormat,
};
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::{Client, TcpServer};
use aware_serve::{Response, ServiceHandle};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use std::sync::Arc;

/// The ISSUE-mandated sweep; matches `BATCH_SIZE_BUCKETS` edges.
const BATCH_SIZES: [usize; 4] = [1, 8, 64, 256];

const COMMANDS_PER_SESSION: usize = 20;

fn census() -> Arc<Table> {
    Arc::new(CensusGenerator::new(2017).generate(5_000))
}

fn start_service(table: Arc<Table>) -> Service {
    let service = Service::start(ServiceConfig::default());
    service.handle().register_shared("census", table);
    service
}

fn create_session(handle: &ServiceHandle) -> SessionId {
    match handle.call(Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 100.0 },
    }) {
        Response::SessionCreated { session, .. } => session,
        other => panic!("create failed: {other:?}"),
    }
}

/// One session's command stream: filtered views (each a χ² test through
/// the investing machine) with a gauge render and a transcript export
/// mixed in — the shape of real interactive traffic.
fn drive_session(handle: &ServiceHandle, sid: SessionId) {
    for step in 0..COMMANDS_PER_SESSION {
        let response = match step % 10 {
            7 => handle.call(Command::Gauge { session: sid }),
            9 => handle.call(Command::Transcript {
                session: sid,
                format: TranscriptFormat::Csv,
            }),
            _ => handle.call(Command::AddVisualization {
                session: sid,
                attribute: ["education", "race", "marital_status", "occupation"][step % 4].into(),
                filter: match step % 3 {
                    0 => FilterSpec::Cmp {
                        column: "salary_over_50k".into(),
                        op: CmpOp::Eq,
                        value: Value::Bool(true),
                    },
                    1 => FilterSpec::Cmp {
                        column: "race".into(),
                        op: CmpOp::Eq,
                        value: Value::Str(RACE[step % RACE.len()].into()),
                    },
                    _ => FilterSpec::Cmp {
                        column: "education".into(),
                        op: CmpOp::Eq,
                        value: Value::Str(EDUCATION[step % EDUCATION.len()].into()),
                    },
                },
            }),
        };
        assert!(response.is_ok(), "{response:?}");
    }
    let closed = handle.call(Command::CloseSession { session: sid });
    assert!(closed.is_ok(), "{closed:?}");
}

fn serve_throughput(c: &mut Criterion) {
    let table = census();
    let mut group = c.benchmark_group("serve_throughput");
    for &sessions in &[1usize, 8, 64] {
        let service = start_service(table.clone());
        let handle = service.handle();
        // create + commands + close, per session.
        group.throughput(Throughput::Elements(
            (sessions * (COMMANDS_PER_SESSION + 2)) as u64,
        ));
        group.bench_with_input(
            BenchmarkId::new("sessions", sessions),
            &sessions,
            |b, &sessions| {
                b.iter(|| {
                    std::thread::scope(|scope| {
                        for _ in 0..sessions {
                            let handle = handle.clone();
                            scope.spawn(move || {
                                let sid = create_session(&handle);
                                drive_session(&handle, sid);
                            });
                        }
                    })
                })
            },
        );
    }
    group.finish();
}

/// One `call` per command vs one `call_batch` for all of them, same
/// session, same light command mix. The batch path must win on cmd/s —
/// that is the acceptance bar for the batched dispatcher.
fn serve_batch_dispatch(c: &mut Criterion) {
    let table = census();
    let service = start_service(table);
    let handle = service.handle();
    let sid = create_session(&handle);
    let mut group = c.benchmark_group("serve_batch_dispatch");
    for &size in &BATCH_SIZES {
        let cmds: Vec<Command> = (0..size).map(|_| Command::Gauge { session: sid }).collect();
        group.throughput(Throughput::Elements(size as u64));
        group.bench_with_input(BenchmarkId::new("call", size), &cmds, |b, cmds| {
            b.iter(|| {
                for cmd in cmds {
                    assert!(handle.call(cmd.clone()).is_ok());
                }
            })
        });
        group.bench_with_input(BenchmarkId::new("call_batch", size), &cmds, |b, cmds| {
            b.iter(|| {
                let responses = handle.call_batch(cmds.clone());
                assert!(responses.iter().all(Response::is_ok));
            })
        });
    }
    group.finish();
}

/// The same sweep over a real socket, NDJSON lines vs binary frames —
/// one pipelined envelope per iteration on the batch path.
fn serve_wire(c: &mut Criterion) {
    let table = census();
    let service = start_service(table);
    let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let mut group = c.benchmark_group("serve_wire");
    for encoding in [Encoding::Json, Encoding::Binary] {
        let mut client = Client::connect_with(server.local_addr(), encoding).unwrap();
        let sid = match client.call(&create_command()).unwrap() {
            Response::SessionCreated { session, .. } => session,
            other => panic!("create failed: {other:?}"),
        };
        for &size in &BATCH_SIZES {
            let cmds: Vec<Command> = (0..size).map(|_| Command::Gauge { session: sid }).collect();
            group.throughput(Throughput::Elements(size as u64));
            group.bench_with_input(
                BenchmarkId::new(encoding.as_str(), size),
                &cmds,
                |b, cmds| {
                    b.iter(|| {
                        let responses = client.call_batch(cmds, BatchMode::Continue).unwrap();
                        assert!(responses.iter().all(Response::is_ok));
                    })
                },
            );
        }
    }
    group.finish();
}

fn create_command() -> Command {
    Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 100.0 },
    }
}

/// Eve's workload from Figure 1 of the paper: the step-N filter is the
/// step-N−1 filter plus one clause, so a naive engine re-evaluates an
/// ever-growing conjunction from scratch at every step while a chain-aware
/// cache pays one clause per step. Clauses are broad (≠ on minority
/// labels, wide brushes) so every step keeps a testable selection.
const CHAIN_STEPS: usize = 12;

fn chain_clause(step: usize) -> FilterSpec {
    let neq = |column: &str, value: &str| FilterSpec::Cmp {
        column: column.into(),
        op: CmpOp::Neq,
        value: Value::Str(value.into()),
    };
    match step {
        0 => neq("education", "PhD"),
        1 => neq("marital_status", "Widowed"),
        2 => neq("race", RACE[4]),
        3 => neq("native_region", "Overseas"),
        4 => neq("survey_wave", "Wave-4"),
        5 => FilterSpec::Between {
            column: "age".into(),
            lo: 18.0,
            hi: 75.0,
        },
        6 => FilterSpec::Cmp {
            column: "salary_over_50k".into(),
            op: CmpOp::Eq,
            value: Value::Bool(false),
        },
        7 => neq("sex", "Other"),
        8 => FilterSpec::Between {
            column: "hours_per_week".into(),
            lo: 1.0,
            hi: 95.0,
        },
        9 => neq("survey_wave", "Wave-3"),
        10 => neq("race", RACE[3]),
        _ => neq("marital_status", "Divorced"),
    }
}

/// One session's growing-chain stream: step k visualizes a rotating
/// attribute under the conjunction of clauses 0..=k (a rule-2 hypothesis
/// test through α-investing at every step).
fn drive_chain_session(handle: &ServiceHandle, sid: SessionId) {
    let mut clauses: Vec<FilterSpec> = Vec::with_capacity(CHAIN_STEPS);
    for step in 0..CHAIN_STEPS {
        clauses.push(chain_clause(step));
        let response = handle.call(Command::AddVisualization {
            session: sid,
            attribute: ["education", "race", "occupation", "marital_status"][step % 4].into(),
            filter: FilterSpec::And(clauses.clone()),
        });
        assert!(response.is_ok(), "{response:?}");
    }
    let closed = handle.call(Command::CloseSession { session: sid });
    assert!(closed.is_ok(), "{closed:?}");
}

/// The ISSUE-3 acceptance bench: repeated-filter-chain hypothesis
/// workload. Many sessions replay the same exploration over one shared
/// dataset — the redundancy interactive exploration creates, and exactly
/// what the shared per-dataset evaluation cache exists to absorb.
fn serve_filter_chain(c: &mut Criterion) {
    let table = census();
    let mut group = c.benchmark_group("serve_filter_chain");
    for &sessions in &[1usize, 16] {
        let service = start_service(table.clone());
        let handle = service.handle();
        // create + chain steps + close, per session.
        group.throughput(Throughput::Elements((sessions * (CHAIN_STEPS + 2)) as u64));
        group.bench_with_input(
            BenchmarkId::new("sessions", sessions),
            &sessions,
            |b, &sessions| {
                b.iter(|| {
                    for _ in 0..sessions {
                        let sid = create_session(&handle);
                        drive_chain_session(&handle, sid);
                    }
                })
            },
        );
    }
    group.finish();
}

/// Steady-state cost of durability: the `serve_throughput` workload
/// (create + 20 commands + close per session) with the snapshot store
/// off, on with a background snapshotter (the recommended production
/// setting — mutations only set a dirty flag, disk work happens off the
/// hot path), and on in synchronous mode (every mutating command writes
/// and fsyncs its snapshot before replying — the upper bound, priced
/// honestly). `close_session` deletes the session's snapshot files, so
/// iterations don't accrete disk state.
fn serve_persistence(c: &mut Criterion) {
    let table = census();
    let data_dir = std::env::temp_dir().join(format!("aware-bench-snap-{}", std::process::id()));
    let mut group = c.benchmark_group("serve_persistence");
    let configs: [(&str, Option<std::time::Duration>); 3] = [
        ("off", None),
        ("periodic-1s", Some(std::time::Duration::from_secs(1))),
        ("sync", Some(std::time::Duration::ZERO)),
    ];
    for (label, snapshot_every) in configs {
        let _ = std::fs::remove_dir_all(&data_dir);
        let service = Service::start(ServiceConfig {
            data_dir: snapshot_every.is_some().then(|| data_dir.clone()),
            snapshot_every,
            ..ServiceConfig::default()
        });
        let handle = service.handle();
        handle.register_shared("census", table.clone());
        group.throughput(Throughput::Elements((COMMANDS_PER_SESSION + 2) as u64));
        group.bench_with_input(BenchmarkId::new("snapshots", label), &(), |b, ()| {
            b.iter(|| {
                let sid = create_session(&handle);
                drive_session(&handle, sid);
            })
        });
        drop(handle);
        service.shutdown();
    }
    let _ = std::fs::remove_dir_all(&data_dir);
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(800))
        .measurement_time(std::time::Duration::from_secs(3))
        .sample_size(20);
    targets = serve_throughput, serve_filter_chain, serve_batch_dispatch, serve_wire,
        serve_persistence
}
criterion_main!(benches);
