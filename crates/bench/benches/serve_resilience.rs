//! Pricing `aware-chaos`'s armed resilience plane: what per-command
//! deadlines and circuit-breaker admission cost when nothing is
//! failing.
//!
//! Two routed clusters on the same box, identical except for the
//! router's deadline budget: `unarmed` runs blocking sockets
//! (`shard_timeout: None` — the pre-resilience configuration) while
//! `armed` runs the production default (socket connect/read/write
//! deadlines on every pooled connection plus breaker admission on
//! every round trip). The workload is the replication bench's
//! steady-state 64-item batch — gauges with a policy swap per session
//! per iteration — against 3 in-process shards over real TCP loopback.
//!
//! The acceptance bar (ISSUE 8): armed 64-batch throughput at ≥ 97% of
//! unarmed — CI enforces it from `BENCH_resilience.json`. The happy
//! path pays the timestamp bookkeeping and one atomic breaker check;
//! it must never pay a syscall more than the unarmed path.
//!
//! Measurement is *paired*: samples alternate unarmed/armed batch for
//! batch inside one window, instead of measuring each configuration in
//! its own multi-second window. A 3% guard is tighter than the drift a
//! shared CI runner shows across windows (frequency scaling, noisy
//! neighbors), and sequential windows bill all of that drift to
//! whichever configuration runs second; interleaving prices both under
//! identical conditions so the delta is the resilience plane, not the
//! weather. The JSON rows keep the shim's exact shape so the awk guard
//! and the artifact trajectory stay uniform across benches.

use aware_cluster::breaker::BreakerConfig;
use aware_cluster::router::{Router, RouterConfig, RouterHandle};
use aware_data::census::CensusGenerator;
use aware_data::predicate::CmpOp;
use aware_data::table::Table;
use aware_data::value::Value;
use aware_serve::proto::{
    BatchMode, Command, Encoding, FilterSpec, PolicySpec, Response, SessionId,
};
use aware_serve::service::{Service, ServiceConfig};
use aware_serve::tcp::{Client, TcpServer};
use criterion::{criterion_group, criterion_main, record_json, Criterion, Throughput};
use std::sync::Arc;
use std::time::{Duration, Instant};

const SHARDS: usize = 3;
const SESSIONS: usize = 8;
const BATCH: usize = 64;

fn census() -> Arc<Table> {
    Arc::new(CensusGenerator::new(2017).generate(5_000))
}

struct Cluster {
    _shards: Vec<(Service, TcpServer)>,
    _router: Router,
    _handle: RouterHandle,
    server: TcpServer,
}

fn start_cluster(table: &Arc<Table>, shard_timeout: Option<Duration>) -> Cluster {
    let mut shards = Vec::new();
    let mut addrs = Vec::new();
    for _ in 0..SHARDS {
        let service = Service::start(ServiceConfig::default());
        service.handle().register_shared("census", table.clone());
        let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
        addrs.push(server.local_addr().to_string());
        shards.push((service, server));
    }
    let router = Router::start(RouterConfig {
        shard_timeout,
        breaker: BreakerConfig::default(),
        ..RouterConfig::default()
    });
    let handle = router.handle();
    for addr in &addrs {
        match handle.call(Command::JoinShard { addr: addr.clone() }) {
            Response::Rebalanced { .. } => {}
            other => panic!("join failed: {other:?}"),
        }
    }
    let server = TcpServer::bind("127.0.0.1:0", handle.clone()).unwrap();
    Cluster {
        _shards: shards,
        _router: router,
        _handle: handle,
        server,
    }
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
/// (same mix as the replication bench, so rows are comparable across
/// artifacts).
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

/// One configuration under measurement: its routed client, sessions,
/// and a monotonic round counter (the policy swap alternates on it).
struct Lane {
    label: &'static str,
    client: Client,
    sids: Vec<SessionId>,
    round: u64,
    samples_ns: Vec<f64>,
}

impl Lane {
    fn new(label: &'static str, cluster: &Cluster) -> Lane {
        let mut client =
            Client::connect_with(cluster.server.local_addr(), Encoding::Binary).unwrap();
        let sids = prime_sessions(&mut client);
        Lane {
            label,
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

fn serve_resilience(_c: &mut Criterion) {
    let table = census();

    // Unarmed: the pre-resilience configuration — blocking sockets, no
    // deadline bookkeeping. Armed: the production default budget; on a
    // healthy loopback it never fires, so the measured delta is pure
    // bookkeeping overhead.
    let unarmed_cluster = start_cluster(&table, None);
    let armed_cluster = start_cluster(&table, Some(Duration::from_secs(2)));
    let mut unarmed = Lane::new("serve_resilience/unarmed/64", &unarmed_cluster);
    let mut armed = Lane::new("serve_resilience/armed/64", &armed_cluster);

    // `cargo bench -- --test` smoke mode, mirroring the shim: one batch
    // per configuration, zero timings recorded.
    if std::env::args().any(|a| a == "--test") {
        for lane in [&mut unarmed, &mut armed] {
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

    // Warm-up both lanes (connections pooled, caches hot, CPU governor
    // settled), then take paired samples: each pass times `ITERS`
    // batches on the unarmed lane, then the same on the armed lane, so
    // a slow stretch of the box lands on both configurations instead of
    // whichever one a sequential harness happened to be measuring.
    const WARMUP_BATCHES: u32 = 64;
    const ITERS: u32 = 16;
    const SAMPLE_PAIRS: usize = 40;
    for _ in 0..WARMUP_BATCHES {
        unarmed.run_batch();
        armed.run_batch();
    }
    for _ in 0..SAMPLE_PAIRS {
        unarmed.sample(ITERS);
        armed.sample(ITERS);
    }

    for lane in [&mut unarmed, &mut armed] {
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

criterion_group!(benches, serve_resilience);
criterion_main!(benches);
