//! The server process body, written once.
//!
//! `serve` and `cluster shard` are one role under two names: [`run`]
//! parses the flags, generates the census, starts the [`Service`]
//! behind a [`ServerFront`], binds the metrics endpoint, announces the
//! listening address and drains on SIGTERM/SIGINT. The pieces
//! `cluster router` shares with it — the observability flags
//! ([`ObsFlags`]), the flag-value helpers ([`value`], [`parsed`]),
//! the startup refusal ([`die`]) and the wait-then-drain
//! ([`wait_for_term`]) — are public for it.
//!
//! Two stderr lines are an interface: `metrics exposition on
//! http://ADDR/metrics` (under `--metrics-addr`) and then the banner
//! `<prefix> listening on ADDR (…)`. Test suites and the benchmark
//! read the address from them. Every startup refusal — a bad flag, a
//! failed bind — exits 2.

use crate::proto::{Command, Response};
use crate::reactor_front::ServerFront;
use crate::service::{Dispatch, Service, ServiceConfig};
use aware_data::census::CensusGenerator;
use aware_obs::expose::MetricsServer;
use aware_obs::log::Level;
use std::fmt::Display;
use std::path::PathBuf;
use std::str::FromStr;
use std::time::{Duration, Instant};

/// The flags `serve` and `cluster shard` take, one usage line.
pub const USAGE: &str = "[--addr HOST:PORT] [--rows N] [--seed K] \
     [--max-sessions N] [--idle-timeout-secs S] \
     [--data-dir DIR] [--snapshot-every SECS] \
     [--log-level debug|info|warn|error] [--log-json] \
     [--slow-ms MS] [--metrics-addr HOST:PORT] [--reactor]";

/// How a server role names itself.
pub struct Role {
    /// The command line that starts it, for usage and refusals
    /// (`serve`, `cluster shard`).
    pub command: &'static str,
    /// The banner's prefix before ` listening on ADDR`.
    pub banner: &'static str,
    /// The `role` field of its `drain_complete` record.
    pub name: &'static str,
}

/// A parsed command line of the server role.
struct Flags {
    addr: String,
    reactor: bool,
    rows: usize,
    seed: u64,
    config: ServiceConfig,
    obs: ObsFlags,
}

/// The observability flags every role takes.
#[derive(Default)]
pub struct ObsFlags {
    /// `None` logs at `info`.
    pub log_level: Option<Level>,
    pub log_json: bool,
    pub slow_ms: Option<u64>,
    pub metrics_addr: Option<String>,
}

impl ObsFlags {
    /// Consumes `flag` (and its value) if it is an observability flag;
    /// `Ok(true)` when it was.
    pub fn accept(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--log-level" => {
                let raw = value(args, flag)?;
                self.log_level = Some(
                    Level::parse(&raw)
                        .ok_or_else(|| format!("--log-level: unknown level '{raw}'"))?,
                );
            }
            "--log-json" => self.log_json = true,
            "--slow-ms" => self.slow_ms = Some(parsed(args, flag)?),
            "--metrics-addr" => self.metrics_addr = Some(value(args, flag)?),
            _ => return Ok(false),
        }
        Ok(true)
    }

    pub fn init_logger(&self) {
        aware_obs::log::init(self.log_level.unwrap_or(Level::Info), self.log_json);
    }

    /// Binds the metrics endpoint if one was asked for and announces
    /// it. The returned server must outlive the drain.
    pub fn bind_metrics(
        &self,
        command: &str,
        render: impl Fn() -> String + Send + Sync + 'static,
    ) -> Option<MetricsServer> {
        let addr = self.metrics_addr.as_ref()?;
        let metrics = MetricsServer::bind(addr, render)
            .unwrap_or_else(|e| die(command, &format!("cannot bind metrics addr {addr}: {e}")));
        eprintln!(
            "metrics exposition on http://{}/metrics",
            metrics.local_addr()
        );
        Some(metrics)
    }
}

/// The value after `flag`, or an error naming the flag.
pub fn value(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<String, String> {
    args.next()
        .ok_or_else(|| format!("flag {flag} needs a value"))
}

/// The value after `flag`, parsed.
pub fn parsed<T: FromStr>(args: &mut impl Iterator<Item = String>, flag: &str) -> Result<T, String>
where
    T::Err: Display,
{
    value(args, flag)?
        .parse()
        .map_err(|e| format!("{flag}: {e}"))
}

/// Refuses to start: the message on stderr, exit status 2.
pub fn die(command: &str, message: &str) -> ! {
    eprintln!("{command}: {message}");
    std::process::exit(2);
}

/// Parses the server role's flags (`--help` excepted). Defaults:
/// `ServiceConfig::default()` with a 5 s idle sweep, 20 000 census
/// rows from seed 2017, and a 30 s snapshot cadence once `--data-dir`
/// is given.
fn parse(args: impl IntoIterator<Item = String>, default_addr: &str) -> Result<Flags, String> {
    let mut args = args.into_iter();
    let mut flags = Flags {
        addr: default_addr.into(),
        reactor: false,
        rows: 20_000,
        seed: 2017,
        config: ServiceConfig {
            sweep_interval: Some(Duration::from_secs(5)),
            ..ServiceConfig::default()
        },
        obs: ObsFlags::default(),
    };
    let mut snapshot_every = Duration::from_secs(30);
    while let Some(flag) = args.next() {
        if flags.obs.accept(&flag, &mut args)? {
            continue;
        }
        let config = &mut flags.config;
        match flag.as_str() {
            "--addr" => flags.addr = value(&mut args, &flag)?,
            "--rows" => flags.rows = parsed(&mut args, &flag)?,
            "--seed" => flags.seed = parsed(&mut args, &flag)?,
            "--max-sessions" => config.max_sessions = parsed(&mut args, &flag)?,
            "--idle-timeout-secs" => {
                config.idle_timeout = Duration::from_secs(parsed(&mut args, &flag)?)
            }
            "--data-dir" => config.data_dir = Some(PathBuf::from(value(&mut args, &flag)?)),
            "--snapshot-every" => snapshot_every = Duration::from_secs(parsed(&mut args, &flag)?),
            "--reactor" => flags.reactor = true,
            other => return Err(format!("unknown flag '{other}' (try --help)")),
        }
    }
    flags.config.snapshot_every = flags.config.data_dir.as_ref().map(|_| snapshot_every);
    flags.config.slow_ms = flags.obs.slow_ms;
    Ok(flags)
}

/// Runs the server role to completion: returns after the drain.
pub fn run(role: &Role, default_addr: &str, args: impl Iterator<Item = String>) {
    let args: Vec<String> = args.collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{} {USAGE}", role.command);
        return;
    }
    let flags = parse(args, default_addr).unwrap_or_else(|e| die(role.command, &e));
    flags.obs.init_logger();
    eprintln!(
        "generating census dataset: {} rows (seed {}) …",
        flags.rows, flags.seed
    );
    let table = CensusGenerator::new(flags.seed).generate(flags.rows);
    let service = Service::start(flags.config.clone());
    let handle = service.handle();
    handle.register_table("census", table);
    let front = ServerFront::bind(&flags.addr, handle.clone(), flags.reactor)
        .unwrap_or_else(|e| die(role.command, &format!("cannot bind {}: {e}", flags.addr)));
    let _metrics = flags
        .obs
        .bind_metrics(role.command, move || handle.metrics_text());
    match (&flags.config.data_dir, flags.config.snapshot_every) {
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
        "{} listening on {} ({} max sessions, idle timeout {:?}, {} front end)",
        role.banner,
        front.local_addr(),
        flags.config.max_sessions,
        flags.config.idle_timeout,
        if flags.reactor {
            "reactor"
        } else {
            "thread-per-connection"
        },
    );
    // Service::shutdown waits for admitted commands and spills every
    // dirty session to disk before the record goes out.
    wait_for_term(role.name, &[], &service.handle(), front, || {
        service.shutdown()
    });
}

/// Blocks until SIGTERM or SIGINT, then drains: stops accepting
/// (dropping `front` joins its accept loop), runs `shutdown`, and logs
/// `drain_complete` with `role`, the `extra` fields, the sessions live
/// when the signal came and the drain's duration.
pub fn wait_for_term(
    role: &str,
    extra: &[(&str, String)],
    handle: &impl Dispatch,
    front: ServerFront,
    shutdown: impl FnOnce(),
) {
    aware_obs::signal::install_term_handler();
    while !aware_obs::signal::term_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let sessions_live = match handle.call(Command::Stats) {
        Response::Stats(s) => s.sessions_live,
        _ => 0,
    };
    let started = Instant::now();
    drop(front);
    shutdown();
    if aware_obs::log::enabled(Level::Info) {
        let mut fields = vec![("role", role.to_string())];
        fields.extend(extra.iter().cloned());
        fields.push(("sessions_live", sessions_live.to_string()));
        fields.push(("drain_ms", started.elapsed().as_millis().to_string()));
        aware_obs::log::emit(Level::Info, "drain_complete", &fields);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn both_roles_parse_one_flag_list_to_one_config() {
        let line = args(
            "--rows 500 --seed 9 --max-sessions 12 --idle-timeout-secs 7 \
             --data-dir /d --snapshot-every 3 --slow-ms 40 --log-level warn \
             --log-json --metrics-addr 127.0.0.1:0 --reactor",
        );
        let serve = parse(line.clone(), "127.0.0.1:7878").unwrap();
        let shard = parse(line, "127.0.0.1:0").unwrap();
        assert_eq!(format!("{:?}", serve.config), format!("{:?}", shard.config));
        assert_eq!(
            (serve.addr.as_str(), shard.addr.as_str()),
            ("127.0.0.1:7878", "127.0.0.1:0")
        );
        for flags in [&serve, &shard] {
            assert_eq!((flags.rows, flags.seed, flags.reactor), (500, 9, true));
            assert_eq!(flags.config.max_sessions, 12);
            assert_eq!(flags.config.idle_timeout, Duration::from_secs(7));
            assert_eq!(flags.config.sweep_interval, Some(Duration::from_secs(5)));
            assert_eq!(flags.config.data_dir, Some(PathBuf::from("/d")));
            assert_eq!(flags.config.snapshot_every, Some(Duration::from_secs(3)));
            assert_eq!(flags.config.slow_ms, Some(40));
            assert_eq!(flags.obs.log_level, Some(Level::Warn));
            assert!(flags.obs.log_json);
            assert_eq!(flags.obs.metrics_addr.as_deref(), Some("127.0.0.1:0"));
        }
    }

    #[test]
    fn defaults_are_the_service_defaults_plus_the_sweep() {
        let flags = parse(Vec::new(), "127.0.0.1:0").unwrap();
        let expected = ServiceConfig {
            sweep_interval: Some(Duration::from_secs(5)),
            ..ServiceConfig::default()
        };
        assert_eq!(format!("{:?}", flags.config), format!("{expected:?}"));
        assert_eq!(
            (flags.rows, flags.seed, flags.reactor),
            (20_000, 2017, false)
        );
        assert_eq!(flags.obs.log_level, None);
    }

    #[test]
    fn snapshot_cadence_applies_only_with_a_data_dir() {
        let durable = parse(args("--data-dir /d --snapshot-every 0"), "a").unwrap();
        assert_eq!(durable.config.snapshot_every, Some(Duration::ZERO));
        let memory = parse(args("--snapshot-every 0"), "a").unwrap();
        assert_eq!(memory.config.snapshot_every, None);
        assert_eq!(memory.config.data_dir, None);
    }

    #[test]
    fn refusals_name_the_flag() {
        let unknown = parse(args("--rows 5 --no-such-flag"), "a").err().unwrap();
        assert!(unknown.contains("--no-such-flag"), "{unknown}");
        let missing = parse(args("--data-dir"), "a").err().unwrap();
        assert!(missing.contains("--data-dir"), "{missing}");
        let bad = parse(args("--rows x"), "a").err().unwrap();
        assert!(bad.starts_with("--rows: "), "{bad}");
        let level = parse(args("--log-level loud"), "a").err().unwrap();
        assert!(level.contains("--log-level"), "{level}");
    }
}
