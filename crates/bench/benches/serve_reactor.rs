//! Pricing the reactor front end against thread-per-connection on the
//! workload that matters: active sessions doing real work.
//!
//! Three identically-provisioned services on loopback, different only
//! in their front end: `thread` (blocking socket per connection — the
//! default), `reactor` (the epoll event loop behind `--reactor`), and
//! `reactor_1k_idle` (the same reactor carrying 1,000 extra connected
//! but silent sockets — the "mostly-idle dashboards" regime the
//! reactor exists for). The workload is the replication bench's
//! steady-state 64-item batch — gauges with a policy swap per session
//! per iteration — over 8 primed sessions per lane.
//!
//! The acceptance bar (ISSUE 9): reactor 64-batch throughput at ≥ 95%
//! of the thread lane — CI enforces it from `BENCH_reactor.json`. The
//! idle lane has no guard of its own; its row documents that parked
//! connections are free (the scaling conformance test asserts the
//! same bar at 10K idle against the real binary).
//!
//! Measurement is *paired*: samples rotate thread/reactor/idle batch
//! by batch inside one window, because a shared runner's drift across
//! sequential windows (frequency scaling, noisy neighbours) bills
//! itself to whichever lane runs second and swamps a 5% bar.
//! JSON rows keep the shim's exact shape so the awk guard and artifact
//! trajectory stay uniform across benches.

use aware_data::census::CensusGenerator;
use aware_data::predicate::CmpOp;
use aware_data::table::Table;
use aware_data::value::Value;
use aware_serve::proto::{
    BatchMode, Command, Encoding, FilterSpec, PolicySpec, Response, SessionId,
};
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::Client;
use aware_serve::ServerFront;
use criterion::{criterion_group, criterion_main, record_json, Criterion, Throughput};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Instant;

const SESSIONS: usize = 8;
const BATCH: usize = 64;
const IDLE_CONNS: usize = 1_000;

fn census() -> Arc<Table> {
    Arc::new(CensusGenerator::new(2017).generate(5_000))
}

fn start_service(table: &Arc<Table>, reactor: bool) -> (Service, ServerFront) {
    let service = Service::start(ServiceConfig::default());
    service.handle().register_shared("census", table.clone());
    let server = ServerFront::bind("127.0.0.1:0", service.handle(), reactor).unwrap();
    (service, server)
}

fn create_session(client: &mut Client) -> SessionId {
    match client
        .call(&Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 100.0 },
        })
        .unwrap()
    {
        Response::SessionCreated { session, .. } => session,
        other => panic!("create failed: {other:?}"),
    }
}

fn prime_sessions(client: &mut Client) -> Vec<SessionId> {
    (0..SESSIONS)
        .map(|_| {
            let sid = create_session(client);
            let response = client
                .call(&Command::AddVisualization {
                    session: sid,
                    attribute: "education".into(),
                    filter: FilterSpec::Cmp {
                        column: "salary_over_50k".into(),
                        op: CmpOp::Eq,
                        value: Value::Bool(true),
                    },
                })
                .unwrap();
            assert!(response.is_ok(), "{response:?}");
            sid
        })
        .collect()
}

/// One steady-state iteration: 7 gauges + 1 policy swap per session
/// (same mix as the replication bench, so rows are
/// comparable across artifacts).
fn steady_state_batch(sids: &[SessionId], round: u64) -> Vec<Command> {
    let mut cmds = Vec::with_capacity(BATCH);
    for &sid in sids {
        for _ in 0..(BATCH / SESSIONS - 1) {
            cmds.push(Command::Gauge { session: sid });
        }
        cmds.push(Command::SetPolicy {
            session: sid,
            policy: PolicySpec::Fixed {
                gamma: if round.is_multiple_of(2) {
                    100.0
                } else {
                    101.0
                },
            },
        });
    }
    cmds
}

/// One front end under measurement: its service, client, sessions, and
/// (for the idle lane) the parked connections it must carry.
struct Lane {
    label: &'static str,
    _service: Service,
    _server: ServerFront,
    _idle: Vec<TcpStream>,
    client: Client,
    sids: Vec<SessionId>,
    round: u64,
    samples_ns: Vec<f64>,
}

impl Lane {
    fn new(label: &'static str, table: &Arc<Table>, reactor: bool, idle: usize) -> Lane {
        let (service, server) = start_service(table, reactor);
        let idle = (0..idle)
            .map(|_| TcpStream::connect(server.local_addr()).unwrap())
            .collect();
        let mut client = Client::connect_with(server.local_addr(), Encoding::Binary).unwrap();
        let sids = prime_sessions(&mut client);
        Lane {
            label,
            _service: service,
            _server: server,
            _idle: idle,
            client,
            sids,
            round: 0,
            samples_ns: Vec::new(),
        }
    }

    fn run_batch(&mut self) {
        self.round += 1;
        let cmds = steady_state_batch(&self.sids, self.round);
        let responses = self.client.call_batch(&cmds, BatchMode::Continue).unwrap();
        assert!(responses.iter().all(Response::is_ok));
    }

    /// One timed sample: `iters` batches, recorded as per-batch ns.
    fn sample(&mut self, iters: u32) {
        let start = Instant::now();
        for _ in 0..iters {
            self.run_batch();
        }
        self.samples_ns
            .push(start.elapsed().as_nanos() as f64 / f64::from(iters));
    }

    fn median_ns(&mut self) -> f64 {
        self.samples_ns.sort_by(|a, b| a.partial_cmp(b).unwrap());
        self.samples_ns[self.samples_ns.len() / 2]
    }
}

fn serve_reactor(_c: &mut Criterion) {
    let table = census();

    let mut thread = Lane::new("serve_reactor/thread/64", &table, false, 0);
    let mut reactor = Lane::new("serve_reactor/reactor/64", &table, true, 0);
    let mut idle = Lane::new("serve_reactor/reactor_1k_idle/64", &table, true, IDLE_CONNS);

    // `cargo bench -- --test` smoke mode, mirroring the shim: one batch
    // per lane, zero timings recorded.
    if std::env::args().any(|a| a == "--test") {
        for lane in [&mut thread, &mut reactor, &mut idle] {
            lane.run_batch();
            println!("test-mode bench {}: ok", lane.label);
            record_json(
                lane.label,
                "test",
                0.0,
                Some(Throughput::Elements(BATCH as u64)),
            );
        }
        return;
    }

    // Warm-up all lanes, then take paired samples rotating lane by
    // lane so a slow stretch of the box lands on every front end
    // instead of whichever one a sequential harness was measuring.
    const WARMUP_BATCHES: u32 = 64;
    const ITERS: u32 = 16;
    const SAMPLE_ROUNDS: usize = 40;
    for _ in 0..WARMUP_BATCHES {
        thread.run_batch();
        reactor.run_batch();
        idle.run_batch();
    }
    for _ in 0..SAMPLE_ROUNDS {
        thread.sample(ITERS);
        reactor.sample(ITERS);
        idle.sample(ITERS);
    }

    for lane in [&mut thread, &mut reactor, &mut idle] {
        let median = lane.median_ns();
        let lo = lane.samples_ns[0];
        let hi = lane.samples_ns[lane.samples_ns.len() - 1];
        record_json(
            lane.label,
            "measured",
            median,
            Some(Throughput::Elements(BATCH as u64)),
        );
        println!(
            "bench {:<55} {:>9.2} µs/iter  [{:.2} µs .. {:.2} µs]  {:>9.2}K elem/s",
            lane.label,
            median / 1e3,
            lo / 1e3,
            hi / 1e3,
            BATCH as f64 / (median * 1e-9) / 1e3,
        );
    }
}

criterion_group!(benches, serve_reactor);
criterion_main!(benches);
