//! The `serve` binary: AWARE multi-session exploration service over TCP.
//!
//! ```text
//! serve [--addr 127.0.0.1:7878] [--rows 20000]
//!       [--max-sessions N] [--idle-timeout-secs S] [--seed K]
//!       [--max-pending N] [--data-dir DIR] [--snapshot-every SECS]
//!       [--log-level LEVEL] [--log-json] [--slow-ms MS]
//!       [--metrics-addr HOST:PORT] [--reactor]
//! ```
//!
//! `--reactor` swaps the thread-per-connection front end for the
//! epoll-based event loop in `aware-reactor`: thousands of mostly-idle
//! connections on a handful of threads. The wire protocol is
//! byte-identical either way; both fronts decline a hello's `push`
//! request, since no server pushes.
//!
//! Observability: `--log-level` (debug|info|warn|error, default info)
//! and `--log-json` control the structured stderr logger; `--slow-ms`
//! emits a `slow_query` record (with trace id, stage timings, and
//! cache deltas) for every command at or past the threshold;
//! `--metrics-addr` serves Prometheus text exposition over HTTP GET.
//!
//! With `--data-dir`, sessions are durable: eviction spills to disk,
//! commands addressing spilled sessions restore them lazily, and a
//! restart over the same directory resumes every session.
//! `--snapshot-every SECS` sets the background snapshot cadence
//! (default 30 s); `--snapshot-every 0` makes every mutating command
//! write its snapshot before the response is released.
//!
//! Registers a synthetic census dataset (the workspace's stand-in for
//! UCI Adult) under the name `census` and speaks both protocol
//! surfaces documented in the repository README — v1 NDJSON and v2
//! envelopes (JSON or AWR2 binary frames), auto-detected per
//! connection by first byte. Try v1 with netcat:
//!
//! ```text
//! $ echo '{"id":1,"cmd":"create_session","dataset":"census","alpha":0.05,
//!          "policy":{"kind":"fixed","gamma":10}}' | nc 127.0.0.1 7878
//! ```

use aware_data::census::CensusGenerator;
use aware_serve::reactor_front::ServerFront;
use aware_serve::service::{Service, ServiceConfig};
use std::path::PathBuf;
use std::time::Duration;

struct Args {
    addr: String,
    reactor: bool,
    rows: usize,
    max_sessions: u64,
    idle_timeout: Duration,
    seed: u64,
    max_pending: usize,
    data_dir: Option<PathBuf>,
    snapshot_every: Duration,
    log_level: aware_obs::log::Level,
    log_json: bool,
    slow_ms: Option<u64>,
    metrics_addr: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7878".into(),
        reactor: false,
        rows: 20_000,
        max_sessions: 65_536,
        idle_timeout: Duration::from_secs(15 * 60),
        seed: 2017,
        max_pending: 4096,
        data_dir: None,
        snapshot_every: Duration::from_secs(30),
        log_level: aware_obs::log::Level::Info,
        log_json: false,
        slow_ms: None,
        metrics_addr: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .ok_or_else(|| format!("flag {name} needs a value"))
        };
        match flag.as_str() {
            "--addr" => args.addr = value("--addr")?,
            "--rows" => {
                args.rows = value("--rows")?
                    .parse()
                    .map_err(|e| format!("--rows: {e}"))?
            }
            "--max-sessions" => {
                args.max_sessions = value("--max-sessions")?
                    .parse()
                    .map_err(|e| format!("--max-sessions: {e}"))?
            }
            "--idle-timeout-secs" => {
                args.idle_timeout = Duration::from_secs(
                    value("--idle-timeout-secs")?
                        .parse()
                        .map_err(|e| format!("--idle-timeout-secs: {e}"))?,
                )
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--max-pending" => {
                args.max_pending = value("--max-pending")?
                    .parse()
                    .map_err(|e| format!("--max-pending: {e}"))?
            }
            "--data-dir" => args.data_dir = Some(PathBuf::from(value("--data-dir")?)),
            "--snapshot-every" => {
                args.snapshot_every = Duration::from_secs(
                    value("--snapshot-every")?
                        .parse()
                        .map_err(|e| format!("--snapshot-every: {e}"))?,
                )
            }
            "--log-level" => {
                let raw = value("--log-level")?;
                args.log_level = aware_obs::log::Level::parse(&raw)
                    .ok_or_else(|| format!("--log-level: unknown level '{raw}'"))?
            }
            "--log-json" => args.log_json = true,
            "--slow-ms" => {
                args.slow_ms = Some(
                    value("--slow-ms")?
                        .parse()
                        .map_err(|e| format!("--slow-ms: {e}"))?,
                )
            }
            "--metrics-addr" => args.metrics_addr = Some(value("--metrics-addr")?),
            "--reactor" => args.reactor = true,
            "--help" | "-h" => {
                println!(
                    "serve [--addr HOST:PORT] [--rows N] \
                     [--max-sessions N] [--idle-timeout-secs S] [--seed K] \
                     [--max-pending N] [--data-dir DIR] [--snapshot-every SECS] \
                     [--log-level debug|info|warn|error] [--log-json] \
                     [--slow-ms MS] [--metrics-addr HOST:PORT] [--reactor]"
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    Ok(args)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("serve: {e}");
            std::process::exit(2);
        }
    };

    aware_obs::log::init(args.log_level, args.log_json);

    let config = ServiceConfig {
        max_sessions: args.max_sessions,
        idle_timeout: args.idle_timeout,
        sweep_interval: Some(Duration::from_secs(5)),
        max_pending_per_session: args.max_pending,
        data_dir: args.data_dir.clone(),
        snapshot_every: args.data_dir.as_ref().map(|_| args.snapshot_every),
        slow_ms: args.slow_ms,
        ..ServiceConfig::default()
    };

    eprintln!(
        "generating census dataset: {} rows (seed {}) …",
        args.rows, args.seed
    );
    let table = CensusGenerator::new(args.seed).generate(args.rows);

    let service = Service::start(config.clone());
    let handle = service.handle();
    handle.register_table("census", table);

    let server = match ServerFront::bind(&args.addr, handle.clone(), args.reactor) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("serve: cannot bind {}: {e}", args.addr);
            std::process::exit(1);
        }
    };
    // Held until after join(): dropping it would stop the endpoint.
    let _metrics = args.metrics_addr.as_ref().map(|addr| {
        let h = handle.clone();
        match aware_obs::expose::MetricsServer::bind(addr, move || h.metrics_text()) {
            Ok(m) => {
                eprintln!("metrics exposition on http://{}/metrics", m.local_addr());
                m
            }
            Err(e) => {
                eprintln!("serve: cannot bind metrics addr {addr}: {e}");
                std::process::exit(1);
            }
        }
    });
    match (&config.data_dir, config.snapshot_every) {
        (Some(dir), Some(every)) if every.is_zero() => eprintln!(
            "persistence: {} (synchronous — every mutation hits disk)",
            dir.display()
        ),
        (Some(dir), Some(every)) => {
            eprintln!("persistence: {} (snapshot every {every:?})", dir.display())
        }
        _ => {}
    }
    eprintln!(
        "aware-serve listening on {} ({} max sessions, idle timeout {:?}, {} front end)",
        server.local_addr(),
        config.max_sessions,
        config.idle_timeout,
        if args.reactor {
            "reactor"
        } else {
            "thread-per-connection"
        },
    );

    aware_obs::signal::install_term_handler();
    while !aware_obs::signal::term_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }

    // Graceful drain: stop accepting first (dropping the server joins
    // the accept loop), then let Service::shutdown finish in-flight
    // work and spill every dirty session to disk.
    let sessions_live = match handle.call(aware_serve::proto::Command::Stats) {
        aware_serve::proto::Response::Stats(s) => s.sessions_live,
        _ => 0,
    };
    let started = std::time::Instant::now();
    drop(server);
    service.shutdown();
    aware_obs::logline!(
        aware_obs::log::Level::Info,
        "drain_complete",
        role = "serve",
        sessions_live = sessions_live,
        drain_ms = started.elapsed().as_millis()
    );
}
