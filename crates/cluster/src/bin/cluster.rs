//! The `cluster` binary: the AWARE cluster plane in one executable.
//!
//! ```text
//! cluster router [--addr 127.0.0.1:7878] [--shard HOST:PORT]...
//!                [--probe-secs 5] [--replicas R]
//!                [--shard-timeout-ms MS]
//!                [--log-level LEVEL] [--log-json] [--slow-ms MS]
//!                [--metrics-addr HOST:PORT] [--reactor]
//! cluster shard  [every `serve` flag; --addr defaults to 127.0.0.1:0]
//! ```
//!
//! `shard` is the `serve` binary under another name: it runs the same
//! process body ([`aware_serve::launch::run`]) with the same flags and
//! defaults, except that `--addr` defaults to an ephemeral port. It
//! stays a role here so a cluster deploys one executable.
//!
//! `router` starts the consistent-hash router and admits each `--shard`
//! through the same `join_shard` path a live rebalance uses. With
//! `--replicas R` each session's snapshot image is shipped to its R
//! ring successors on the probe cadence, and a confirmed-dead shard's
//! sessions fail over automatically to their freshest verified
//! replica — which holds the last *shipped* ledger, so decisions acked
//! after the last ship are lost (see the README's "Replication &
//! failover"). `--probe-secs` (default 5) must be positive: failure
//! detection and replication run on that cadence.
//!
//! `--shard-timeout-ms MS` caps every router→shard round trip
//! (connect, read, write; default 10 000 ms; must be positive — there
//! is no blocking mode). A blown deadline answers `unavailable`, counts
//! toward the shard's circuit breaker and its probe misses, and — with
//! `--replicas R` — a frozen shard converges to confirmed-dead and
//! fails over exactly like a crashed one.
//!
//! `--reactor` swaps the thread-per-connection front end for the epoll
//! event loop in `aware-reactor`, and the observability flags work as
//! in `serve`: the router stamps a trace id on every forwarded
//! envelope, so one `grep trace=<id>` follows a command across both
//! processes, and its `--metrics-addr` endpoint serves merged-plus-
//! per-shard views.
//!
//! Both roles announce `… listening on ADDR …` on stderr once bound,
//! exit 2 on any startup refusal (bad flag, failed bind, failed join),
//! and drain gracefully on SIGTERM/SIGINT: stop accepting, flush dirty
//! sessions (shard role), then log a structured `drain_complete`
//! record and exit 0.

use aware_cluster::router::{Router, RouterConfig};
use aware_serve::launch::{self, die, parsed, value, ObsFlags, Role};
use aware_serve::proto::{Command, Response};
use aware_serve::reactor_front::ServerFront;
use std::time::Duration;

const ROUTER: &str = "cluster router";

const ROUTER_USAGE: &str = "[--addr HOST:PORT] [--shard HOST:PORT]... [--probe-secs S] \
     [--replicas R] [--shard-timeout-ms MS] \
     [--log-level debug|info|warn|error] [--log-json] [--slow-ms MS] \
     [--metrics-addr HOST:PORT] [--reactor]";

const SHARD: Role = Role {
    command: "cluster shard",
    banner: "aware-cluster-shard",
    name: "shard",
};

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("router") => run_router(args),
        Some("shard") => launch::run(&SHARD, "127.0.0.1:0", args),
        Some("--help") | Some("-h") | None => usage(),
        Some(other) => die("cluster", &format!("unknown role '{other}' (try --help)")),
    }
}

fn usage() {
    println!(
        "{ROUTER} {ROUTER_USAGE}\n{} {}",
        SHARD.command,
        launch::USAGE
    );
}

/// A parsed `cluster router` command line.
struct RouterFlags {
    addr: String,
    shards: Vec<String>,
    reactor: bool,
    config: RouterConfig,
    obs: ObsFlags,
}

fn parse_router(args: impl IntoIterator<Item = String>) -> Result<RouterFlags, String> {
    let mut args = args.into_iter();
    let mut flags = RouterFlags {
        addr: "127.0.0.1:7878".into(),
        shards: Vec::new(),
        reactor: false,
        config: RouterConfig {
            probe_interval: Some(Duration::from_secs(5)),
            ..RouterConfig::default()
        },
        obs: ObsFlags::default(),
    };
    while let Some(flag) = args.next() {
        if flags.obs.accept(&flag, &mut args)? {
            continue;
        }
        let config = &mut flags.config;
        match flag.as_str() {
            "--addr" => flags.addr = value(&mut args, &flag)?,
            "--shard" => flags.shards.push(value(&mut args, &flag)?),
            "--probe-secs" => match parsed(&mut args, &flag)? {
                0 => return Err("--probe-secs must be positive: failure detection and replication run on the probe cadence".into()),
                secs => config.probe_interval = Some(Duration::from_secs(secs)),
            },
            "--replicas" => config.replicas = parsed(&mut args, &flag)?,
            "--shard-timeout-ms" => match parsed(&mut args, &flag)? {
                0 => return Err("--shard-timeout-ms must be positive: every shard round trip carries a deadline".into()),
                ms => config.shard_timeout = Duration::from_millis(ms),
            },
            "--reactor" => flags.reactor = true,
            other => return Err(format!("unknown router flag '{other}' (try --help)")),
        }
    }
    flags.config.slow_ms = flags.obs.slow_ms;
    Ok(flags)
}

fn run_router(args: impl Iterator<Item = String>) {
    let args: Vec<String> = args.collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        return usage();
    }
    let flags = parse_router(args).unwrap_or_else(|e| die(ROUTER, &e));
    flags.obs.init_logger();
    let router = Router::start(flags.config);
    let handle = router.handle();
    for shard in &flags.shards {
        match handle.call(Command::JoinShard {
            addr: shard.clone(),
        }) {
            Response::Rebalanced { .. } => eprintln!("joined shard {shard}"),
            Response::Error(e) => die(ROUTER, &format!("cannot join shard {shard}: {e}")),
            other => die(ROUTER, &format!("cannot join shard {shard}: {other:?}")),
        }
    }
    let front = ServerFront::bind(&flags.addr, handle.clone(), flags.reactor)
        .unwrap_or_else(|e| die(ROUTER, &format!("cannot bind {}: {e}", flags.addr)));
    let _metrics = flags
        .obs
        .bind_metrics(ROUTER, move || handle.metrics_text());
    eprintln!(
        "aware-cluster listening on {} ({} shards: {})",
        front.local_addr(),
        flags.shards.len(),
        flags.shards.join(", "),
    );
    // Session state lives on the shards, which flush it in their own
    // drains; dropping the router stops its probe loop.
    let shards = [("shards", flags.shards.len().to_string())];
    launch::wait_for_term("router", &shards, &router.handle(), front, || drop(router));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(line: &str) -> Result<RouterFlags, String> {
        parse_router(line.split_whitespace().map(String::from))
    }

    #[test]
    fn probe_cadence_defaults_to_five_seconds_and_zero_is_refused() {
        let flags = parse("--shard 127.0.0.1:1 --replicas 1 --slow-ms 9").unwrap();
        assert_eq!(flags.config.probe_interval, Some(Duration::from_secs(5)));
        assert_eq!((flags.config.replicas, flags.config.slow_ms), (1, Some(9)));
        assert_eq!(flags.shards, ["127.0.0.1:1"]);
        let custom = parse("--probe-secs 2").unwrap();
        assert_eq!(custom.config.probe_interval, Some(Duration::from_secs(2)));
        let zero = parse("--replicas 1 --probe-secs 0").err().unwrap();
        assert!(zero.starts_with("--probe-secs must be positive"), "{zero}");
    }

    #[test]
    fn a_zero_shard_deadline_and_unknown_flags_are_refused() {
        let zero = parse("--shard-timeout-ms 0").err().unwrap();
        assert!(
            zero.starts_with("--shard-timeout-ms must be positive"),
            "{zero}"
        );
        let ms = parse("--shard-timeout-ms 250").unwrap();
        assert_eq!(ms.config.shard_timeout, Duration::from_millis(250));
        let unknown = parse("--rows 5").err().unwrap();
        assert!(unknown.contains("'--rows'"), "{unknown}");
    }
}
