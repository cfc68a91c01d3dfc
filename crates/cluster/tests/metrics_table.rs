//! The router's metrics, in process: a `RouterHandle` holds the same
//! `Metrics` block a shard does and merges shard snapshots by each
//! scalar's declared rule, so the reactor front end's accounting
//! reaches a router's `stats`, and its `/metrics` body only ever grows.

#![cfg(target_os = "linux")]

use aware_cluster::router::{Router, RouterConfig, RouterHandle};
use aware_data::census::CensusGenerator;
use aware_data::predicate::CmpOp;
use aware_data::value::Value;
use aware_obs::expose::validate_exposition;
use aware_serve::proto::{BatchMode, Command, FilterSpec, PolicySpec, Response};
use aware_serve::reactor_front::bind_reactor;
use aware_serve::service::{Dispatch, Service, ServiceConfig};
use aware_serve::tcp::{Client, TcpServer};

/// A real shard: a `Service` behind the thread-per-connection front
/// end on a loopback port. Same census content on every shard.
fn shard() -> (Service, TcpServer, String) {
    let service = Service::start(ServiceConfig::default());
    service
        .handle()
        .register_table("census", CensusGenerator::new(7).generate(2_000));
    let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
    let addr = server.local_addr().to_string();
    (service, server, addr)
}

fn router_over(shards: &[&str]) -> Router {
    let router = Router::start(RouterConfig::default());
    for addr in shards {
        let joined = router.handle().call(Command::JoinShard {
            addr: addr.to_string(),
        });
        assert!(joined.is_ok(), "{joined:?}");
    }
    router
}

fn create_session() -> Command {
    Command::CreateSession {
        dataset: "census".into(),
        alpha: 0.05,
        policy: PolicySpec::Fixed { gamma: 10.0 },
    }
}

fn viz(session: u64) -> Command {
    Command::AddVisualization {
        session,
        attribute: "education".into(),
        filter: FilterSpec::Cmp {
            column: "salary_over_50k".into(),
            op: CmpOp::Eq,
            value: Value::Bool(true),
        },
    }
}

/// Regression: the four reactor scalars were never folded into a
/// router's `stats` (they were missing from the hand-written sum), and
/// a router behind the reactor front end never counted its own
/// connections or wakeups.
#[test]
fn reactor_router_counts_its_own_front_end_and_merges_the_shards_reactor_scalars() {
    let (_s1, _t1, a1) = shard();
    let (_s2, _t2, a2) = shard();
    let router = router_over(&[&a1, &a2]);
    let front = bind_reactor("127.0.0.1:0", router.handle()).unwrap();

    let mut client = Client::connect(front.local_addr()).unwrap();
    let session = match client.call(&create_session()).unwrap() {
        Response::SessionCreated { session, .. } => session,
        other => panic!("{other:?}"),
    };
    // One 65-item batch, forwarded to the owning shard as one binary
    // sub-batch frame.
    let gauges = vec![Command::Gauge { session }; 65];
    let replies = client.call_batch(&gauges, BatchMode::Continue).unwrap();
    assert!(replies.iter().all(Response::is_ok));

    let stats = match client.call(&Command::Stats).unwrap() {
        Response::Stats(stats) => stats,
        other => panic!("{other:?}"),
    };
    // The shards run thread-per-connection, so these two are the
    // router's own: this client's open connection and its requests.
    assert_eq!(stats.reactor_connections, 1, "{stats:?}");
    assert!(stats.reactor_wakeups >= 3, "{stats:?}");
    // And this one is the shards': this client speaks v1 NDJSON to
    // the router, so only the router's hops to its shards are frames.
    assert!(stats.binary_frames >= 1, "{stats:?}");
}

/// Every line the router's endpoint served before the scalar table
/// drove it — each `# TYPE`, and each sample that depends on neither
/// the clock nor a shard's ephemeral port — is still served unchanged
/// after the same command stream. Which shard a session lands on
/// follows the ports, so the cache counters are pinned by their sum.
#[test]
fn router_exposition_is_a_superset_of_the_hand_written_one() {
    let (_s1, _t1, a1) = shard();
    let (_s2, _t2, a2) = shard();
    let router = router_over(&[&a1, &a2]);
    let h: RouterHandle = router.handle();

    let sids: Vec<u64> = (0..6)
        .map(|_| match h.call(create_session()) {
            Response::SessionCreated { session, .. } => session,
            other => panic!("{other:?}"),
        })
        .collect();
    for &sid in &sids {
        assert!(h.call(viz(sid)).is_ok());
    }
    assert!(!h.call(Command::Gauge { session: 999 }).is_ok());
    let replies = Dispatch::call_batch_mode(
        &h,
        vec![
            viz(sids[0]),
            Command::Gauge { session: sids[1] },
            viz(sids[2]),
        ],
        BatchMode::Continue,
    );
    assert!(replies.iter().all(Response::is_ok));
    assert!(h.call(Command::CloseSession { session: sids[0] }).is_ok());
    assert!(h.call(Command::Stats).is_ok());

    let body = h.metrics_text();
    validate_exposition(&body).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{body}"));
    let served: std::collections::HashSet<&str> = body.lines().collect();
    for line in include_str!("fixtures/router-exposition-parent.txt").lines() {
        assert!(served.contains(line), "no longer served: {line}\n{body}");
    }
    let sample = |family: &str| -> u64 {
        body.lines()
            .find_map(|l| l.strip_prefix(family)?.strip_prefix(' ')?.parse().ok())
            .unwrap_or_else(|| panic!("no {family} sample:\n{body}"))
    };
    // Eight visualizations, two cache probes each.
    assert_eq!(
        sample("aware_cache_hits_total") + sample("aware_cache_misses_total"),
        16
    );
    // The family a hand-picked list of fifteen left out.
    assert!(body.contains("# TYPE aware_sessions_created_total counter\n"));
    assert_eq!(sample("aware_sessions_created_total"), 6);
}
