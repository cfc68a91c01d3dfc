//! Per-shard connection pools with health accounting, deadlines, and
//! circuit breaking.
//!
//! The router keeps one [`ShardPool`] per backend shard, and it is the
//! router's only health record for that shard: health flag, breaker,
//! counters, and the probe-miss count that confirms a death
//! ([`ShardPool::observe_probe`]). Connections
//! are the binary-framed reference [`Client`] (the hello handshake is
//! paid once per connection, not per command), checked out for one
//! round trip and returned on success. A connection-level failure
//! drops the connection, counts against the shard, and flips it
//! unhealthy; the next successful round trip (or health probe) flips
//! it back. The pool never invents responses — command-level errors
//! from the shard pass through untouched, and only transport failures
//! become [`PoolError`]s for the router to surface as `unavailable`.
//!
//! Two resilience layers sit in front of every round trip:
//!
//! - **Deadlines** ([`PoolConfig::timeout`]): the TCP handshake uses
//!   `connect_timeout` and every socket carries read/write timeouts, so
//!   a frozen (SIGSTOP-grade) shard costs at most one deadline per
//!   socket operation instead of hanging the caller forever. A blown
//!   deadline is a transport failure like any other — the router
//!   answers `unavailable`, never `unknown_session`, never a fresh
//!   budget — and is counted separately ([`ShardPool::timeouts`]).
//! - **A circuit breaker** ([`crate::breaker::CircuitBreaker`]): after
//!   `failure_threshold` consecutive failures the breaker opens and
//!   calls are *shed* without touching the network, with exponential
//!   backoff plus deterministic per-shard jitter before the next
//!   half-open probe. Shed calls surface as [`PoolError`]s with
//!   [`PoolError::shed`] set so probes can still count them as misses.

use crate::breaker::{BreakerConfig, BreakerState, CircuitBreaker};
use aware_serve::proto::{BatchMode, Command, Encoding, Response};
use aware_serve::tcp::{is_deadline_error, Client};
use aware_serve::ServeError;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// A transport-level failure against a shard (connect, send, or
/// receive). Distinct from a `Response::Error` the shard itself
/// produced, which is a *successful* round trip.
#[derive(Debug)]
pub struct PoolError {
    pub message: String,
    /// The failure was a blown deadline (connect/read/write timeout)
    /// rather than a refused or peer-closed connection.
    pub timed_out: bool,
    /// The call never touched the network: the breaker was open and
    /// shed it.
    pub shed: bool,
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

/// True for commands that can safely execute twice: pure reads of
/// session or server state. Everything else — creates, visualizations
/// (they charge α-wealth), policy swaps, closes, export/import, ring
/// admin — must never be blind-retried.
///
/// Deliberately an exhaustive match with no `_` arm: a future command
/// variant must fail compilation here and be classified by a human,
/// because silently defaulting a mutation to "retryable" would
/// double-charge α-wealth on a retried reply-lost round trip.
fn idempotent(cmd: &Command) -> bool {
    match cmd {
        // Pure reads of session or server state.
        Command::Gauge { .. }
        | Command::Transcript { .. }
        | Command::Stats
        | Command::ListDatasets
        // Replication-plane reads: `snapshot_session` cuts an image
        // without removing anything, `list_sessions` is pure
        // inventory, and a retired `gossip` is refused — executing any
        // of them twice changes nothing.
        | Command::SnapshotSession { .. }
        | Command::ListSessions
        | Command::Gossip { .. } => true,
        // Mutations: a broken connection cannot tell "never processed"
        // from "processed, reply lost"; re-sending would double-apply.
        Command::CreateSession { .. }
        | Command::CreateSessionAs { .. }
        | Command::ExportSession { .. }
        | Command::ImportSession { .. }
        | Command::JoinShard { .. }
        | Command::LeaveShard { .. }
        | Command::ReplicateSession { .. }
        | Command::PromoteReplica { .. }
        | Command::DropReplica { .. }
        | Command::AddVisualization { .. }
        | Command::SetPolicy { .. }
        | Command::CloseSession { .. } => false,
    }
}

/// Idle connections kept per shard; more than this many concurrent
/// round trips simply open (and afterwards drop) extra connections.
const MAX_IDLE: usize = 8;

/// Consecutive missed probe rounds that confirm a shard dead. One miss
/// only suspects it: a single dropped packet or a GC-length stall must
/// never flap the ring, because a failover moves a *wealth ledger*, not
/// just traffic.
pub const SUSPECT_CONFIRM_MISSES: u32 = 2;

/// Deadline and breaker tunables for a pool.
#[derive(Debug, Clone, Copy)]
pub struct PoolConfig {
    /// Per-socket-operation deadline (connect, read, write). Every
    /// pooled connection carries one; there is no blocking mode.
    pub timeout: Duration,
    /// Circuit-breaker tunables.
    pub breaker: BreakerConfig,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            // Generous by default: long enough that only a genuinely
            // wedged peer blows it, short enough that nothing hangs
            // forever.
            timeout: Duration::from_secs(10),
            breaker: BreakerConfig::default(),
        }
    }
}

/// One backend shard: address, idle connections, health counters.
pub struct ShardPool {
    addr: String,
    parsed: SocketAddr,
    /// Per-socket-operation deadline ([`PoolConfig::timeout`]).
    timeout: Duration,
    breaker: CircuitBreaker,
    idle: Mutex<Vec<Client>>,
    healthy: AtomicBool,
    /// Commands forwarded to this shard (batch items count singly).
    forwarded: AtomicU64,
    /// Transport-level failures observed against this shard.
    errors: AtomicU64,
    /// Blown deadlines (subset of `errors`).
    timeouts: AtomicU64,
    /// Live sessions the shard reported on its last successful probe.
    last_live: AtomicU64,
    /// Consecutive missed probe rounds; only [`ShardPool::observe_probe`]
    /// moves it.
    misses: AtomicU32,
}

impl ShardPool {
    /// Creates a pool for `addr` (must parse as `ip:port`) with default
    /// deadlines and breaker. No connection is opened yet; the first
    /// round trip (or probe) does.
    pub fn new(addr: impl Into<String>) -> Result<ShardPool, ServeError> {
        ShardPool::with_config(addr, PoolConfig::default())
    }

    /// Creates a pool with explicit deadline/breaker tunables.
    pub fn with_config(
        addr: impl Into<String>,
        config: PoolConfig,
    ) -> Result<ShardPool, ServeError> {
        let addr = addr.into();
        let parsed: SocketAddr = addr
            .parse()
            .map_err(|e| ServeError::invalid(format!("shard address '{addr}': {e}")))?;
        let PoolConfig { timeout, breaker } = config;
        let breaker = CircuitBreaker::new(&addr, breaker);
        Ok(ShardPool {
            addr,
            parsed,
            timeout,
            breaker,
            idle: Mutex::new(Vec::new()),
            healthy: AtomicBool::new(false),
            forwarded: AtomicU64::new(0),
            errors: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            last_live: AtomicU64::new(0),
            misses: AtomicU32::new(0),
        })
    }

    /// The shard's address, as given at construction.
    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// False once a transport failure has been observed and no round
    /// trip has succeeded since.
    pub fn is_healthy(&self) -> bool {
        self.healthy.load(Ordering::Relaxed)
    }

    /// Commands forwarded to this shard.
    pub fn forwarded(&self) -> u64 {
        self.forwarded.load(Ordering::Relaxed)
    }

    /// Transport failures observed against this shard.
    pub fn errors(&self) -> u64 {
        self.errors.load(Ordering::Relaxed)
    }

    /// Blown deadlines observed against this shard.
    pub fn timeouts(&self) -> u64 {
        self.timeouts.load(Ordering::Relaxed)
    }

    /// Closed/half-open → open breaker transitions.
    pub fn breaker_opens(&self) -> u64 {
        self.breaker.opens()
    }

    /// Calls shed without touching the network while the breaker was
    /// open.
    pub fn breaker_shed(&self) -> u64 {
        self.breaker.shed()
    }

    /// The breaker's current state.
    pub fn breaker_state(&self) -> BreakerState {
        self.breaker.state()
    }

    /// Live sessions reported by the last successful probe.
    pub fn last_live(&self) -> u64 {
        self.last_live.load(Ordering::Relaxed)
    }

    fn checkout(&self) -> (Option<Client>, bool) {
        match self.idle.lock().unwrap().pop() {
            Some(client) => (Some(client), true),
            None => (None, false),
        }
    }

    fn connect(&self) -> Result<Client, PoolError> {
        Client::connect_with_deadline(self.parsed, Encoding::Binary, self.timeout)
            .map_err(|e| self.classify(&e))
    }

    fn checkin(&self, client: Client) {
        let mut idle = self.idle.lock().unwrap();
        if idle.len() < MAX_IDLE {
            idle.push(client);
        }
    }

    /// Maps a client-level failure onto a [`PoolError`], counting blown
    /// deadlines separately from peer-closed connections.
    fn classify(&self, e: &ServeError) -> PoolError {
        let timed_out = is_deadline_error(e);
        if timed_out {
            self.timeouts.fetch_add(1, Ordering::Relaxed);
        }
        PoolError {
            message: format!("shard {}: {e}", self.addr),
            timed_out,
            shed: false,
        }
    }

    /// The single health-flip path: every failure counts, but only the
    /// healthy→unhealthy *transition* logs — the atomic swap is what
    /// collapses a 64-connection pool failing at once into exactly one
    /// `shard_unhealthy` event, not 64. The flip also drains the idle
    /// pool: every pooled socket points at the same dead peer, and
    /// handing them out would cost one doomed round trip each before
    /// the callers reconnect.
    fn flip_unhealthy(&self, reason: &str) {
        self.errors.fetch_add(1, Ordering::Relaxed);
        if self.healthy.swap(false, Ordering::Relaxed) {
            let idle_dropped = {
                let mut idle = self.idle.lock().unwrap();
                let n = idle.len();
                idle.clear();
                n
            };
            aware_obs::logline!(
                aware_obs::log::Level::Warn,
                "shard_unhealthy",
                addr = self.addr,
                error = reason,
                idle_dropped = idle_dropped,
            );
        }
    }

    fn fail(&self, error: PoolError) -> PoolError {
        self.breaker.record_failure();
        self.flip_unhealthy(&error.message);
        error
    }

    /// Counts a protocol-level sign of shard death (e.g. a `shutdown`
    /// error reply) against the shard — the round trip succeeded, so
    /// the pool itself cannot see it.
    pub fn mark_unhealthy(&self) {
        self.breaker.record_failure();
        self.flip_unhealthy("protocol-level shutdown reply");
    }

    fn succeed(&self) {
        self.breaker.record_success();
        if !self.healthy.swap(true, Ordering::Relaxed) {
            aware_obs::logline!(
                aware_obs::log::Level::Info,
                "shard_healthy",
                addr = self.addr,
            );
        }
    }

    /// Idle connections currently pooled (drained to zero by an
    /// unhealthy flip).
    pub fn idle_connections(&self) -> usize {
        self.idle.lock().unwrap().len()
    }

    /// One command, one round trip. A read-only command that fails on
    /// a *pooled* connection (the shard may simply have closed an idle
    /// socket) is retried once on a fresh connection before the shard
    /// is blamed.
    pub fn call(&self, cmd: &Command) -> Result<Response, PoolError> {
        self.call_traced(cmd, aware_obs::trace::next_trace_id())
    }

    /// One command under an explicit trace id, carried to the shard as
    /// the envelope id so the same trace greps out of both processes'
    /// slow-query logs.
    pub fn call_traced(&self, cmd: &Command, trace: u64) -> Result<Response, PoolError> {
        self.forwarded.fetch_add(1, Ordering::Relaxed);
        self.round_trip(idempotent(cmd), |client| client.call_with_id(cmd, trace))
    }

    /// One batch envelope, one round trip; responses in order. Retried
    /// only when *every* item is read-only.
    pub fn call_batch(
        &self,
        cmds: &[Command],
        mode: BatchMode,
    ) -> Result<Vec<Response>, PoolError> {
        self.call_batch_traced(cmds, mode, aware_obs::trace::next_trace_id())
    }

    /// One batch under an explicit trace id on the envelope; the shard
    /// adopts it for every item in the sub-batch.
    pub fn call_batch_traced(
        &self,
        cmds: &[Command],
        mode: BatchMode,
        trace: u64,
    ) -> Result<Vec<Response>, PoolError> {
        self.forwarded
            .fetch_add(cmds.len() as u64, Ordering::Relaxed);
        let retryable = cmds.iter().all(idempotent);
        self.round_trip(retryable, |client| {
            client.call_batch_with_id(cmds, mode, trace)
        })
    }

    /// `retryable` must be false for anything mutating: a connection
    /// that breaks *after* the request was written cannot tell "never
    /// processed" from "processed, reply lost", and re-sending an
    /// `add_visualization` would charge the session's α-wealth twice —
    /// the transcript would no longer be byte-identical to a
    /// single-process replay. Mutations fail over to the router's
    /// `unavailable` answer instead (at-most-once across the hop).
    fn round_trip<T>(
        &self,
        retryable: bool,
        mut op: impl FnMut(&mut Client) -> Result<T, ServeError>,
    ) -> Result<T, PoolError> {
        if !self.breaker.admit() {
            // Shed without a handshake; the breaker already counted it.
            return Err(PoolError {
                message: format!("shard {}: circuit open, call shed", self.addr),
                timed_out: false,
                shed: true,
            });
        }
        let (pooled, was_pooled) = self.checkout();
        let mut client = match pooled {
            Some(client) => client,
            None => match self.connect() {
                Ok(client) => client,
                Err(e) => return Err(self.fail(e)),
            },
        };
        match op(&mut client) {
            Ok(value) => {
                self.succeed();
                self.checkin(client);
                Ok(value)
            }
            Err(first) => {
                drop(client); // never reuse a connection mid-protocol
                if !was_pooled || !retryable {
                    return Err(self.fail(self.classify(&first)));
                }
                // A read on a pooled socket that may simply have idled
                // out server-side: one fresh attempt before declaring
                // the shard down.
                let mut fresh = match self.connect() {
                    Ok(client) => client,
                    Err(e) => return Err(self.fail(e)),
                };
                match op(&mut fresh) {
                    Ok(value) => {
                        self.succeed();
                        self.checkin(fresh);
                        Ok(value)
                    }
                    Err(second) => Err(self.fail(self.classify(&second))),
                }
            }
        }
    }

    /// Health probe: a `stats` round trip. Updates the health flag and
    /// the live-session gauge; returns the shard's stats on success. A
    /// shed probe fails fast — the caller must still count it as a
    /// missed probe (the breaker being open *is* evidence of sickness),
    /// which is how a frozen shard converges to confirmed-dead.
    pub fn probe(&self) -> Result<aware_serve::proto::StatsSnapshot, PoolError> {
        let response = self.round_trip(true, |client| client.call(&Command::Stats))?;
        match response {
            Response::Stats(stats) => {
                self.last_live.store(stats.sessions_live, Ordering::Relaxed);
                Ok(*stats)
            }
            other => Err(self.fail(PoolError {
                message: format!("shard {}: stats answered {other:?}", self.addr),
                timed_out: false,
                shed: false,
            })),
        }
    }

    /// Records one probe round's outcome for this shard and returns
    /// true once [`SUSPECT_CONFIRM_MISSES`] consecutive misses confirm
    /// it dead; a success resets the count. Only the probe round calls
    /// this — a `stats` poll never advances suspicion — and a shed
    /// probe counts as a miss.
    pub fn observe_probe(&self, ok: bool) -> bool {
        if ok {
            self.misses.store(0, Ordering::Relaxed);
            return false;
        }
        let misses = self
            .misses
            .fetch_add(1, Ordering::Relaxed)
            .saturating_add(1);
        misses >= SUSPECT_CONFIRM_MISSES
    }

    /// The shard's health row for the router's `stats` breakdown.
    pub fn health(&self) -> aware_serve::proto::ShardHealth {
        aware_serve::proto::ShardHealth {
            addr: self.addr.clone(),
            healthy: self.is_healthy(),
            sessions_live: self.last_live(),
            forwarded: self.forwarded(),
            errors: self.errors(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::census::CensusGenerator;
    use aware_serve::proto::{FilterSpec, PolicySpec, TranscriptFormat};
    use aware_serve::service::{Service, ServiceConfig};
    use aware_serve::tcp::TcpServer;

    #[test]
    fn unhealthy_flip_drains_idle_and_one_success_flips_back() {
        let service = Service::start(ServiceConfig::default());
        service
            .handle()
            .register_table("census", CensusGenerator::new(7).generate(500));
        let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
        let pool = ShardPool::new(server.local_addr().to_string()).unwrap();

        assert!(pool.call(&Command::Stats).is_ok());
        assert!(pool.is_healthy());
        assert_eq!(pool.idle_connections(), 1);

        // One flip: unhealthy, idle sockets gone (they all point at the
        // same dead peer).
        pool.mark_unhealthy();
        assert!(!pool.is_healthy());
        assert_eq!(pool.idle_connections(), 0);
        // Repeated failures while already down are counted, not
        // re-flipped — the per-shard dedupe.
        let errors_after_flip = pool.errors();
        pool.mark_unhealthy();
        assert_eq!(pool.errors(), errors_after_flip + 1);

        // The next successful round trip reconnects and flips back.
        assert!(pool.call(&Command::Stats).is_ok());
        assert!(pool.is_healthy());
        assert_eq!(pool.idle_connections(), 1);
    }

    /// Pins the retry classification of every command variant. This is
    /// the α-integrity boundary: a variant listed as `true` here is
    /// blind-retried on pooled-connection failures, so anything that
    /// charges wealth, moves a session, or edits the ring MUST be
    /// `false`. `idempotent()` is an exhaustive match, so adding a
    /// `Command` variant without classifying it (and extending this
    /// table) fails compilation.
    #[test]
    fn idempotent_classification_is_pinned() {
        let sid = 7;
        let retryable: Vec<Command> = vec![
            Command::Gauge { session: sid },
            Command::Transcript {
                session: sid,
                format: TranscriptFormat::Csv,
            },
            Command::Stats,
            Command::ListDatasets,
            Command::SnapshotSession { session: sid },
            Command::ListSessions,
            Command::Gossip {
                from: "127.0.0.1:1".into(),
                generation: 1,
                members: vec![],
            },
        ];
        let never_retry: Vec<Command> = vec![
            Command::CreateSession {
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 2.0 },
            },
            Command::CreateSessionAs {
                session: sid,
                dataset: "census".into(),
                alpha: 0.05,
                policy: PolicySpec::Fixed { gamma: 2.0 },
            },
            Command::ExportSession { session: sid },
            Command::ImportSession {
                session: sid,
                image: vec![],
            },
            Command::JoinShard {
                addr: "127.0.0.1:1".into(),
            },
            Command::LeaveShard {
                addr: "127.0.0.1:1".into(),
            },
            Command::ReplicateSession {
                session: sid,
                epoch: 1,
                image: vec![],
            },
            Command::PromoteReplica { session: sid },
            Command::DropReplica { session: sid },
            Command::AddVisualization {
                session: sid,
                attribute: "age".into(),
                filter: FilterSpec::True,
            },
            Command::SetPolicy {
                session: sid,
                policy: PolicySpec::Fixed { gamma: 2.0 },
            },
            Command::CloseSession { session: sid },
        ];
        for cmd in &retryable {
            assert!(idempotent(cmd), "{} must be retryable", cmd.name());
        }
        for cmd in &never_retry {
            assert!(!idempotent(cmd), "{} must never be retried", cmd.name());
        }
        // Every variant is classified exactly once.
        assert_eq!(
            retryable.len() + never_retry.len(),
            aware_serve::proto::COMMAND_KINDS.len(),
            "a new Command variant must be added to this pin table"
        );
    }

    /// A success between two misses resets the count: death needs
    /// consecutive misses, so a shard that answers in between is never
    /// confirmed by misses spread across rounds.
    #[test]
    fn a_probe_success_resets_the_miss_count() {
        // `ShardPool::new` opens no connection; the outcomes are fed in.
        let pool = ShardPool::new("127.0.0.1:9").unwrap();
        assert!(!pool.observe_probe(false), "one miss only suspects");
        assert!(!pool.observe_probe(true));
        assert!(!pool.observe_probe(false), "the success reset the count");
        assert!(pool.observe_probe(false), "two consecutive misses confirm");
    }

    /// A black-holed address (TEST-NET-1, no listener, packets dropped)
    /// must cost at most the connect deadline, not a kernel-default
    /// multi-minute SYN retry ladder.
    #[test]
    fn connect_deadline_bounds_a_black_hole() {
        let pool = ShardPool::with_config(
            "192.0.2.1:9",
            PoolConfig {
                timeout: Duration::from_millis(300),
                breaker: BreakerConfig::default(),
            },
        )
        .unwrap();
        let start = std::time::Instant::now();
        let err = pool.call(&Command::Stats).unwrap_err();
        let elapsed = start.elapsed();
        assert!(
            elapsed < Duration::from_secs(3),
            "black-holed connect took {elapsed:?}"
        );
        // Either the SYN genuinely times out (black hole) or some
        // middlebox refuses it; on the timeout path the blown deadline
        // is counted.
        if err.timed_out {
            assert_eq!(pool.timeouts(), 1);
        }
        assert!(!pool.is_healthy());
    }

    /// A frozen server (accepts, then never replies) blows the read
    /// deadline instead of hanging, and repeated failures open the
    /// breaker, which sheds without touching the network.
    #[test]
    fn read_deadline_and_breaker_shed_on_a_frozen_peer() {
        use std::net::TcpListener;
        // A listener that accepts and then ignores the socket forever.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let frozen = std::thread::spawn(move || {
            let mut held = Vec::new();
            for conn in listener.incoming() {
                match conn {
                    Ok(stream) => held.push(stream),
                    Err(_) => break,
                }
                if held.len() >= 8 {
                    break;
                }
            }
            held
        });

        let pool = ShardPool::with_config(
            addr.to_string(),
            PoolConfig {
                timeout: Duration::from_millis(150),
                breaker: BreakerConfig {
                    failure_threshold: 2,
                    base_backoff: Duration::from_secs(5),
                    max_backoff: Duration::from_secs(5),
                },
            },
        )
        .unwrap();

        // Each call blows the read deadline inside ~2x the budget (the
        // hello never gets acked).
        for expected_timeouts in 1..=2u64 {
            let start = std::time::Instant::now();
            let err = pool.call(&Command::Stats).unwrap_err();
            assert!(err.timed_out, "frozen peer must surface as a timeout");
            assert!(
                start.elapsed() < Duration::from_millis(600),
                "deadline did not bound the call"
            );
            assert_eq!(pool.timeouts(), expected_timeouts);
        }
        // Two consecutive failures opened the breaker: the next call is
        // shed instantly, no third connection is attempted.
        assert_eq!(pool.breaker_opens(), 1);
        let start = std::time::Instant::now();
        let err = pool.call(&Command::Stats).unwrap_err();
        assert!(err.shed, "open breaker must shed");
        assert!(start.elapsed() < Duration::from_millis(50));
        assert_eq!(pool.breaker_shed(), 1);
        assert_eq!(pool.breaker_state(), BreakerState::Open);
        drop(pool);
        drop(frozen); // the held sockets die with the test
    }
}
