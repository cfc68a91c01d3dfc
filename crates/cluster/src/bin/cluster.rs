//! The `cluster` binary: the AWARE cluster plane in one executable.
//!
//! ```text
//! cluster router [--addr 127.0.0.1:7878] [--shard HOST:PORT]...
//!                [--probe-secs 5] [--replicas R]
//!                [--shard-timeout-ms MS]
//!                [--log-level LEVEL] [--log-json] [--slow-ms MS]
//!                [--metrics-addr HOST:PORT] [--reactor]
//! cluster shard  [--addr 127.0.0.1:0] [--rows 20000] [--seed 2017]
//!                [--data-dir DIR] [--snapshot-every S]
//!                [--log-level LEVEL] [--log-json] [--slow-ms MS]
//!                [--metrics-addr HOST:PORT] [--reactor]
//! ```
//!
//! `--reactor` (either role) swaps the thread-per-connection front end
//! for the epoll event loop in `aware-reactor`; the wire protocol is
//! byte-identical either way, a hello's `push` request included: every
//! front declines it, since no server pushes.
//!
//! Both roles share the observability quartet: the structured stderr
//! logger (`--log-level`, `--log-json`), slow-query records past
//! `--slow-ms` (the router stamps a trace id on every forwarded
//! envelope, so one `grep trace=<id>` follows a command across both
//! processes), and a Prometheus text endpoint on `--metrics-addr` —
//! the router's endpoint serves merged-plus-per-shard views.
//!
//! `router` starts the consistent-hash router and admits each `--shard`
//! through the same `join_shard` path a live rebalance uses. With
//! `--replicas R` each session's snapshot image is shipped to its R
//! ring successors on the probe cadence, and a confirmed-dead shard's
//! sessions fail over automatically to their freshest verified
//! replica. `shard`
//! runs a plain `aware-serve` service (identical `Service` +
//! `TcpServer` stack to the `serve` binary) — one binary to deploy for
//! both roles, and the multi-process conformance suite spawns it for
//! both.
//!
//! `--shard-timeout-ms MS` caps every router→shard round trip
//! (connect, read, write; default 10 000 ms). A blown deadline answers
//! `unavailable`, counts toward the shard's circuit breaker and SWIM
//! suspicion, and — with `--replicas R` — a frozen shard converges to
//! confirmed-dead and fails over exactly like a crashed one.
//!
//! Both roles announce `… listening on ADDR …` on stderr once bound,
//! and both drain gracefully on SIGTERM/SIGINT: stop accepting, flush
//! dirty sessions (shard role), then log a structured `drain_complete`
//! record and exit 0.

use aware_cluster::router::{Router, RouterConfig};
use aware_data::census::CensusGenerator;
use aware_serve::proto::{Command, Response};
use aware_serve::reactor_front::ServerFront;
use aware_serve::service::{Service, ServiceConfig};
use std::path::PathBuf;
use std::time::Duration;

fn die(message: &str) -> ! {
    eprintln!("cluster: {message}");
    std::process::exit(2);
}

fn usage() -> ! {
    println!(
        "cluster router [--addr HOST:PORT] [--shard HOST:PORT]... [--probe-secs S] \
         [--replicas R] [--shard-timeout-ms MS] \
         [--log-level debug|info|warn|error] [--log-json] [--slow-ms MS] [--metrics-addr HOST:PORT] \
         [--reactor]\n\
         cluster shard  [--addr HOST:PORT] [--rows N] [--seed K] \
         [--data-dir DIR] [--snapshot-every S] \
         [--log-level debug|info|warn|error] [--log-json] [--slow-ms MS] [--metrics-addr HOST:PORT] \
         [--reactor]"
    );
    std::process::exit(0);
}

/// The observability flags both roles share.
#[derive(Default)]
struct ObsArgs {
    log_level: Option<aware_obs::log::Level>,
    log_json: bool,
    slow_ms: Option<u64>,
    metrics_addr: Option<String>,
}

impl ObsArgs {
    /// Consumes the flag if it is one of ours; true when handled.
    fn accept(&mut self, flag: &str, args: &mut impl Iterator<Item = String>) -> bool {
        match flag {
            "--log-level" => {
                let raw = next_value(args, "--log-level");
                self.log_level = Some(
                    aware_obs::log::Level::parse(&raw)
                        .unwrap_or_else(|| die(&format!("--log-level: unknown level '{raw}'"))),
                );
            }
            "--log-json" => self.log_json = true,
            "--slow-ms" => {
                self.slow_ms = Some(
                    next_value(args, "--slow-ms")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("--slow-ms: {e}"))),
                )
            }
            "--metrics-addr" => self.metrics_addr = Some(next_value(args, "--metrics-addr")),
            _ => return false,
        }
        true
    }

    fn init_logger(&self) {
        aware_obs::log::init(
            self.log_level.unwrap_or(aware_obs::log::Level::Info),
            self.log_json,
        );
    }

    /// Binds the metrics endpoint (if asked) — the returned server must
    /// stay alive for the process's lifetime.
    fn bind_metrics(
        &self,
        render: impl Fn() -> String + Send + Sync + 'static,
    ) -> Option<aware_obs::expose::MetricsServer> {
        self.metrics_addr.as_ref().map(|addr| {
            match aware_obs::expose::MetricsServer::bind(addr, render) {
                Ok(m) => {
                    eprintln!("metrics exposition on http://{}/metrics", m.local_addr());
                    m
                }
                Err(e) => die(&format!("cannot bind metrics addr {addr}: {e}")),
            }
        })
    }
}

fn main() {
    let mut args = std::env::args().skip(1);
    match args.next().as_deref() {
        Some("router") => run_router(args),
        Some("shard") => run_shard(args),
        Some("--help") | Some("-h") | None => usage(),
        Some(other) => die(&format!("unknown role '{other}' (try --help)")),
    }
}

fn next_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next()
        .unwrap_or_else(|| die(&format!("flag {flag} needs a value")))
}

fn run_router(mut args: impl Iterator<Item = String>) {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut shards: Vec<String> = Vec::new();
    let mut config = RouterConfig::default();
    let mut obs = ObsArgs::default();
    let mut reactor = false;
    while let Some(flag) = args.next() {
        if obs.accept(&flag, &mut args) {
            continue;
        }
        match flag.as_str() {
            "--addr" => addr = next_value(&mut args, "--addr"),
            "--shard" => shards.push(next_value(&mut args, "--shard")),
            "--probe-secs" => {
                let secs: u64 = next_value(&mut args, "--probe-secs")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--probe-secs: {e}")));
                config.probe_interval = (secs > 0).then(|| Duration::from_secs(secs));
            }
            "--replicas" => {
                config.replicas = next_value(&mut args, "--replicas")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--replicas: {e}")))
            }
            "--shard-timeout-ms" => {
                let ms: u64 = next_value(&mut args, "--shard-timeout-ms")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--shard-timeout-ms: {e}")));
                // 0 disables the deadline (back to blocking sockets).
                config.shard_timeout = (ms > 0).then(|| Duration::from_millis(ms));
            }
            "--reactor" => reactor = true,
            "--help" | "-h" => usage(),
            other => die(&format!("unknown router flag '{other}'")),
        }
    }
    if config.probe_interval.is_none() {
        config.probe_interval = Some(Duration::from_secs(5));
    }
    obs.init_logger();
    config.slow_ms = obs.slow_ms;
    let router = Router::start(config);
    let handle = router.handle();
    for shard in &shards {
        match handle.call(Command::JoinShard {
            addr: shard.clone(),
        }) {
            Response::Rebalanced { .. } => eprintln!("joined shard {shard}"),
            Response::Error(e) => die(&format!("cannot join shard {shard}: {e}")),
            other => die(&format!("unexpected join reply for {shard}: {other:?}")),
        }
    }
    let server = match ServerFront::bind(&addr, handle.clone(), reactor) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    let _metrics = obs.bind_metrics(move || handle.metrics_text());
    eprintln!(
        "aware-cluster listening on {} ({} shards: {})",
        server.local_addr(),
        shards.len(),
        shards.join(", "),
    );

    aware_obs::signal::install_term_handler();
    while !aware_obs::signal::term_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    // Graceful drain: stop accepting, then drop the router (stops the
    // probe loop). Session state lives on the shards, which flush it
    // in their own drain paths; the router records what it was serving.
    let sessions_live = match router.handle().call(Command::Stats) {
        Response::Stats(s) => s.sessions_live,
        _ => 0,
    };
    let started = std::time::Instant::now();
    drop(server);
    drop(router);
    aware_obs::logline!(
        aware_obs::log::Level::Info,
        "drain_complete",
        role = "router",
        shards = shards.len(),
        sessions_live = sessions_live,
        drain_ms = started.elapsed().as_millis()
    );
}

fn run_shard(mut args: impl Iterator<Item = String>) {
    let mut addr = "127.0.0.1:0".to_string();
    let mut rows: usize = 20_000;
    let mut seed: u64 = 2017;
    let mut data_dir: Option<PathBuf> = None;
    let mut snapshot_every = Duration::from_secs(30);
    let mut obs = ObsArgs::default();
    let mut reactor = false;
    while let Some(flag) = args.next() {
        if obs.accept(&flag, &mut args) {
            continue;
        }
        match flag.as_str() {
            "--addr" => addr = next_value(&mut args, "--addr"),
            "--rows" => {
                rows = next_value(&mut args, "--rows")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--rows: {e}")))
            }
            "--seed" => {
                seed = next_value(&mut args, "--seed")
                    .parse()
                    .unwrap_or_else(|e| die(&format!("--seed: {e}")))
            }
            "--data-dir" => data_dir = Some(PathBuf::from(next_value(&mut args, "--data-dir"))),
            "--snapshot-every" => {
                snapshot_every = Duration::from_secs(
                    next_value(&mut args, "--snapshot-every")
                        .parse()
                        .unwrap_or_else(|e| die(&format!("--snapshot-every: {e}"))),
                )
            }
            "--reactor" => reactor = true,
            "--help" | "-h" => usage(),
            other => die(&format!("unknown shard flag '{other}'")),
        }
    }
    obs.init_logger();
    let config = ServiceConfig {
        snapshot_every: data_dir.as_ref().map(|_| snapshot_every),
        data_dir,
        sweep_interval: Some(Duration::from_secs(5)),
        slow_ms: obs.slow_ms,
        ..ServiceConfig::default()
    };
    eprintln!("generating census dataset: {rows} rows (seed {seed}) …");
    let table = CensusGenerator::new(seed).generate(rows);
    let service = Service::start(config);
    let handle = service.handle();
    handle.register_table("census", table);
    let server = match ServerFront::bind(&addr, handle.clone(), reactor) {
        Ok(server) => server,
        Err(e) => die(&format!("cannot bind {addr}: {e}")),
    };
    let _metrics = obs.bind_metrics(move || handle.metrics_text());
    eprintln!(
        "aware-cluster-shard listening on {} ({rows} census rows, seed {seed})",
        server.local_addr()
    );

    aware_obs::signal::install_term_handler();
    while !aware_obs::signal::term_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    // Graceful drain: stop accepting, then Service::shutdown waits for
    // admitted commands and spills every dirty session to disk before
    // the summary line goes out.
    let sessions_live = match service.handle().call(Command::Stats) {
        Response::Stats(s) => s.sessions_live,
        _ => 0,
    };
    let started = std::time::Instant::now();
    drop(server);
    service.shutdown();
    aware_obs::logline!(
        aware_obs::log::Level::Info,
        "drain_complete",
        role = "shard",
        sessions_live = sessions_live,
        drain_ms = started.elapsed().as_millis()
    );
}
