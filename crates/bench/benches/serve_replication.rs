//! Pricing `aware-replica`: what warm snapshot-shipping replication
//! costs the client.
//!
//! Two routed clusters on the same box, identical except for
//! `--replicas`: 3 shards behind a replication-off router vs 3 shards
//! behind a replication-on router (R = 1, fast cadence). The measured
//! workload keeps every session perpetually dirty — 64-item batches of
//! gauges with a policy swap per session per iteration — so the
//! replication plane is continuously cutting and shipping images while
//! the client drives. The delta is the steady-state replication
//! overhead: the stripe a `replicate_one` holds through its
//! cut-and-ship is the same stripe the client's next command on that
//! session needs.
//!
//! The acceptance bar (ISSUE 7): replication-on 64-batch throughput at
//! ≥ 95% of replication-off — CI enforces it from `BENCH_replica.json`.
//!
//! The second half records single-gauge round-trip latency quantiles
//! (p50/p90/p99) against both clusters, with every session clean and
//! its replicas at the latest acked epoch. Replicas are standby images
//! that only promotion reads, so both rows go to the primary alone;
//! the quantile rows land in the same JSON artifact.

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
use criterion::{
    criterion_group, criterion_main, record_quantiles, BenchmarkId, Criterion, Throughput,
};
use std::sync::Arc;
use std::time::Duration;

const SHARDS: usize = 3;
const SESSIONS: usize = 8;
const BATCH: usize = 64;

fn census() -> Arc<Table> {
    Arc::new(CensusGenerator::new(2017).generate(5_000))
}

struct Cluster {
    /// Shard stacks and the router's TCP front end — dropped together.
    _shards: Vec<(Service, TcpServer)>,
    _router: Router,
    handle: RouterHandle,
    server: TcpServer,
}

/// A full in-process cluster: `SHARDS` serve stacks behind one router,
/// all over real TCP loopback with binary framing.
fn start_cluster(table: &Arc<Table>, replicas: usize) -> Cluster {
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
        replicas,
        // A fast cadence so the replication plane genuinely runs during
        // the measurement window (the off-cluster has nothing to ship,
        // so the same cadence is a no-op there).
        probe_interval: Some(Duration::from_millis(200)),
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
        handle,
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

/// Primes `SESSIONS` sessions with one visualization each, so gauges
/// render real ledgers and snapshot images carry real state.
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

/// One steady-state iteration: 7 gauges + 1 policy swap per session.
/// The swap alternates between two fixed-γ policies, so it always
/// succeeds, always dirties the session, and never touches wealth.
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

fn serve_replication(c: &mut Criterion) {
    let table = census();
    let test_mode = std::env::args().any(|a| a == "--test");

    let off = start_cluster(&table, 0);
    let on = start_cluster(&table, 1);

    // --- Steady-state throughput: replication off vs on.
    let mut group = c.benchmark_group("serve_replication");
    for (label, cluster) in [("replication_off", &off), ("replication_on", &on)] {
        let mut client =
            Client::connect_with(cluster.server.local_addr(), Encoding::Binary).unwrap();
        let sids = prime_sessions(&mut client);
        // Seed the replicas before measuring, so the window prices the
        // steady re-ship cadence, not the initial fan-out.
        cluster.handle.replicate_now();
        let mut round: u64 = 0;
        group.throughput(Throughput::Elements(BATCH as u64));
        group.bench_with_input(BenchmarkId::new(label, BATCH), &sids, |b, sids| {
            b.iter(|| {
                round += 1;
                let cmds = steady_state_batch(sids, round);
                let responses = client.call_batch(&cmds, BatchMode::Continue).unwrap();
                assert!(responses.iter().all(Response::is_ok));
            })
        });
    }
    group.finish();

    // --- Read-latency quantiles with replication off vs on, clean
    // sessions at the latest acked epoch. Measured outside the
    // criterion loop — quantiles need the raw sample distribution, not
    // a median of batched samples.
    let samples = if test_mode { 50 } else { 2_000 };
    let mut results: Vec<(String, Vec<u64>)> = Vec::new();
    for (label, cluster) in [
        ("latency_replication_off", &off),
        ("latency_replication_on", &on),
    ] {
        let mut client =
            Client::connect_with(cluster.server.local_addr(), Encoding::Binary).unwrap();
        let sids = prime_sessions(&mut client);
        // Quiesce: ship every image and let the acks land.
        while cluster.handle.replication_lag() > 0 {
            cluster.handle.replicate_now();
        }
        let mut ns: Vec<u64> = Vec::with_capacity(samples);
        for i in 0..samples {
            let sid = sids[i % sids.len()];
            let start = std::time::Instant::now();
            let response = client.call(&Command::Gauge { session: sid }).unwrap();
            ns.push(start.elapsed().as_nanos() as u64);
            assert!(response.is_ok(), "{response:?}");
        }
        results.push((format!("serve_replication/{label}/gauge"), ns));
    }
    for (label, mut ns) in results {
        record_quantiles(&label, &mut ns, "");
    }
}
criterion_group!(benches, serve_replication);
criterion_main!(benches);
