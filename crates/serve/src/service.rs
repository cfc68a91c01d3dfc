//! The multi-session service: dispatch, eviction and persistence.
//!
//! ## Ordering model
//!
//! α-investing is a *sequential* guarantee: within one session, bids and
//! decisions must happen in a single total order, and a decision once
//! announced is final. Across sessions there is no coupling at all. The
//! dispatcher encodes exactly that, with no threads of its own: a
//! single command is a one-item batch, and every batch splits into
//! per-session units that run on the thread that submitted it (a
//! connection thread or a reactor dispatcher), each holding its
//! session's stripe mutex. So, per session, one unit runs at a time —
//! two restores of a spilled session cannot install two ledgers — and
//! each command is atomic between its request and its reply. A batch's
//! same-session items form one unit and run back-to-back in batch
//! order. Commands from concurrent connections to one session wait for
//! its stripe and run in the order they take it; nothing is refused
//! for waiting, no FIFO across connections is promised, and no client
//! can observe one (neither knows when the other's request arrived).
//!
//! ## Eviction
//!
//! Interactive sessions are abandoned, not closed. The service evicts
//! sessions idle longer than `idle_timeout` (via [`Service::sweep_idle`]
//! or the optional background sweeper) and, when the registry is at
//! `max_sessions`, evicts the least-recently-used session to admit a
//! new one. Without persistence, eviction is indistinguishable from
//! `close_session` to a late-returning client: both yield
//! `unknown_session`.
//!
//! ## Persistence
//!
//! With a [`ServiceConfig::data_dir`] configured, the service keeps a
//! write-ahead snapshot directory ([`crate::store`]):
//!
//! * **eviction spills** — both LRU admission eviction and the idle
//!   sweep write the victim's snapshot to disk *before* unlinking it,
//!   so eviction parks α-wealth instead of destroying it;
//! * **lazy restore** — a command addressing a session that is not in
//!   memory but has a snapshot on disk restores it transparently
//!   (selections never deserialized nor re-derived on restore: the
//!   first test that needs one derives it through the dataset's shared
//!   `EvalCache`);
//! * **periodic snapshots** — a background thread writes every dirty
//!   session each [`ServiceConfig::snapshot_every`]; a `Some(ZERO)`
//!   interval instead makes every mutating command write its snapshot
//!   *before* its response is released (synchronous durability);
//! * **restart** — a new service over the same directory resumes id
//!   allocation above every persisted id and restores sessions on
//!   first touch.

use crate::error::{ErrorCode, ServeError};
use crate::metrics::{Metrics, Stage};
use crate::proto::{
    BatchMode, Command, HypothesisReport, PolicySpec, Response, SessionId, Stat, TranscriptFormat,
    SCALARS,
};
use crate::registry::{Registry, SessionEntry, SessionMeta};
use crate::snapshot::SessionImage;
use crate::store::SnapshotStore;
use aware_core::session::Session;
use aware_core::{gauge, transcript};
use aware_data::cache::EvalCache;
use aware_data::table::Table;
use std::collections::HashMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, TryLockError, Weak};
use std::time::{Duration, Instant};

/// Service tuning knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Hard cap on live sessions; beyond it, creation evicts the LRU
    /// session.
    pub max_sessions: u64,
    /// Sessions idle longer than this are evicted by sweeps.
    pub idle_timeout: Duration,
    /// Interval of the background eviction sweeper; `None` (the default)
    /// means sweeps only happen when [`Service::sweep_idle`] is called.
    pub sweep_interval: Option<Duration>,
    /// Snapshot directory for durable sessions. `None` (the default)
    /// keeps every session in memory only — the pre-persistence
    /// behaviour. `Some(dir)` enables eviction spill, lazy restore, and
    /// restart recovery.
    pub data_dir: Option<PathBuf>,
    /// Snapshot cadence when `data_dir` is set: `Some(interval)` runs a
    /// background thread writing every dirty session each interval;
    /// `Some(Duration::ZERO)` means *synchronous* — each mutating
    /// command writes its session's snapshot before its response is
    /// released; `None` snapshots only on eviction/spill and shutdown.
    pub snapshot_every: Option<Duration>,
    /// Slow-query threshold in milliseconds: a command whose queue
    /// wait + execute crosses it emits a structured slow-query record
    /// (trace id, session, dataset, predicate fingerprint, cache
    /// hit/miss delta, stage timings) to the process log. `None` (the
    /// default) disables slow-query records entirely.
    pub slow_ms: Option<u64>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            max_sessions: 65_536,
            idle_timeout: Duration::from_secs(15 * 60),
            sweep_interval: None,
            data_dir: None,
            snapshot_every: None,
            slow_ms: None,
        }
    }
}

/// Dispatch route for session-free commands that consume no session id
/// (`list_datasets`, the router admin verbs). Reserved: the allocator
/// counts up from 0 and could never reach it, so these commands share a
/// stripe with each other but never with a real session — a roster
/// poll never waits behind session `0`.
const SESSION_FREE_ROUTE: u64 = u64::MAX;

/// Route exclusion stripes (a constant, not a knob: a collision only
/// makes one route's command wait for another's).
const ROUTE_STRIPES: usize = 256;

/// A registered dataset: the immutable table plus its shared evaluation
/// cache. Every session opened on the dataset gets both, so 1k sessions
/// over one census share one table *and* one warm cache.
struct Dataset {
    table: Arc<Table>,
    cache: Arc<EvalCache>,
    /// Content fingerprint of `table`, computed once at registration —
    /// stamped into snapshot images and checked on restore/import so a
    /// ledger is never replayed against a table that merely shares the
    /// dataset's *name*.
    fingerprint: u64,
}

/// A warm replica image held for a session whose primary lives on
/// another shard. With a store configured the bytes live on disk only
/// (`repl-<id>.e<epoch>.awrs`) and `image` is `None` — promotion
/// re-reads the durable file as the authoritative copy; without one
/// the shipped bytes are kept in memory.
struct ReplicaHeld {
    epoch: u64,
    image: Option<Vec<u8>>,
}

/// State shared by handles and the background threads.
struct Inner {
    registry: Registry,
    metrics: Metrics,
    datasets: RwLock<HashMap<String, Dataset>>,
    next_session: AtomicU64,
    /// Per-route exclusion, held by a unit while it executes.
    stripes: [Mutex<()>; ROUTE_STRIPES],
    /// Units admitted past the shutdown check and not yet finished
    /// (waiting for their stripe or executing); 0 before the shutdown
    /// flush.
    in_flight: AtomicUsize,
    store: Option<SnapshotStore>,
    /// Warm replica images held for sessions homed elsewhere, by id.
    replicas: Mutex<HashMap<SessionId, ReplicaHeld>>,
    /// Last adopted membership view (`gossip`): ring generation plus
    /// the roster. A restarted router can learn the cluster from any
    /// shard that heard a gossip round.
    gossip: Mutex<(u64, Vec<crate::proto::MemberInfo>)>,
    /// Set by shutdown before it waits for `in_flight`. Unit admission
    /// and the `stats` fast path check it, so a drained shard stops
    /// advertising healthy stats — which is what lets a cluster
    /// router's health probe see an in-process shard death.
    shutting_down: AtomicBool,
    config: ServiceConfig,
}

impl Inner {
    /// True when every mutating command must hit disk before replying.
    fn sync_snapshots(&self) -> bool {
        self.store.is_some() && self.config.snapshot_every == Some(Duration::ZERO)
    }

    fn stripe(&self, route: u64) -> &Mutex<()> {
        // Fibonacci hash: sequential ids land on distinct stripes.
        &self.stripes[(route.wrapping_mul(0x9E3779B97F4A7C15) >> 32) as usize % ROUTE_STRIPES]
    }
}

/// Stats snapshot with the evaluation-cache counters summed over every
/// registered dataset folded in, plus the persisted-session gauge,
/// process uptime, and the capped per-session risk telemetry.
fn snapshot_with_caches(inner: &Inner) -> crate::proto::StatsSnapshot {
    let mut snapshot = inner.metrics.snapshot(inner.registry.len());
    for dataset in inner.datasets.read().unwrap().values() {
        // counters() reads two atomics — a stats poll never touches the
        // cache's stripe locks, so it cannot stall hot-path evaluation.
        let (hits, misses) = dataset.cache.counters();
        snapshot.cache_hits += hits;
        snapshot.cache_misses += misses;
    }
    if let Some(store) = &inner.store {
        snapshot.persisted = store.persisted();
    }
    snapshot.replicas_live = inner.replicas.lock().unwrap().len() as u64;
    snapshot.uptime_seconds = inner.registry.now_ms() / 1000;
    snapshot.sessions = session_risk(inner);
    snapshot
}

/// Per-session risk rows for `stats`: wealth, tests, discoveries, and
/// the cumulative α spent (the sum of every test's bid — an
/// information-usage-style readout of consumed error budget). Sorted
/// by id and capped at [`crate::proto::MAX_RISK_SESSIONS`].
fn session_risk(inner: &Inner) -> Vec<crate::proto::SessionRisk> {
    let mut entries = inner.registry.entries();
    entries.sort_by_key(|e| e.id);
    entries.truncate(crate::proto::MAX_RISK_SESSIONS);
    entries
        .iter()
        .map(|entry| {
            let dataset = entry.meta.lock().unwrap().dataset.clone();
            let session = entry.session.lock().unwrap();
            let risk_spent = session
                .hypotheses()
                .iter()
                .filter_map(|h| h.record().map(|r| r.bid))
                .sum();
            crate::proto::SessionRisk {
                session: entry.id,
                dataset,
                wealth: session.wealth(),
                tests_run: session.tests_run() as u64,
                discoveries: session.discovery_count() as u64,
                risk_spent,
            }
        })
        .collect()
}

/// Builds the durable image of a session; call with the session mutex
/// held so the image is a consistent cut.
fn image_of(entry: &SessionEntry, session: &crate::registry::ServedSession) -> SessionImage {
    let meta = entry.meta.lock().unwrap();
    SessionImage {
        id: entry.id,
        dataset: meta.dataset.clone(),
        fingerprint: Some(meta.fingerprint),
        policy: meta.policy.clone(),
        policy_since: meta.policy_since,
        session: session.snapshot(),
    }
}

/// Writes `image` to the store (when one is configured), recording the
/// flush duration and reporting failures without tearing the service
/// down.
fn save_image(inner: &Inner, image: &SessionImage) -> bool {
    let Some(store) = &inner.store else {
        return true;
    };
    let start = std::time::Instant::now();
    let result = store.save(image);
    inner
        .metrics
        .observe(Stage::SnapshotFlush, start.elapsed().as_micros() as u64);
    match result {
        Ok(()) => true,
        Err(e) => {
            aware_obs::logline!(
                aware_obs::log::Level::Error,
                "persist_failed",
                session = image.id,
                error = e,
            );
            false
        }
    }
}

/// Snapshots `id` if a store is configured and it is live, then runs
/// `unlink` (an eviction's removal), all under the session mutex: no
/// command mutates between image and removal, and no concurrent spill
/// finds the session clean before these bytes land. `false` when the
/// store *failed* the write (keep the session: never drop unspilled
/// α-wealth) or `unlink` refused.
fn spill_to_disk(inner: &Inner, id: SessionId, unlink: impl FnOnce() -> bool) -> bool {
    let (Some(store), Some(entry)) = (&inner.store, inner.registry.peek(id)) else {
        return unlink();
    };
    let session = entry.session.lock().unwrap();
    // A clean session that is already on disk has a current snapshot —
    // evicting it must not pay encode + write + two fsyncs for bytes
    // the store already holds.
    if entry.is_dirty() || !store.contains(id) {
        if !save_image(inner, &image_of(&entry, &session)) {
            return false;
        }
        entry.clear_dirty();
    }
    unlink()
}

/// One command of a dispatch unit, tagged with its position in the
/// submitting batch so responses reassemble in order.
struct UnitItem {
    index: usize,
    cmd: Command,
    /// Pre-allocated session id for `create_session` items.
    assigned: Option<SessionId>,
}

/// What the connection protocol needs from the thing that executes
/// commands. The one protocol handler (`conn::Handler`) is
/// generic over this, and both transports — the thread-per-connection
/// front ([`crate::tcp`]) and the reactor front
/// ([`crate::reactor_front`]) — drive that handler, so the same
/// decoder, hello and framing code serves both the in-process
/// [`ServiceHandle`] and a cluster router fanning out to remote shards:
/// the wire surface cannot drift between a shard and the router
/// standing in front of it, nor between two fronts.
pub trait Dispatch {
    /// Executes one command to completion, attributed to a trace id
    /// (stamped by the wire front end).
    fn call_traced(&self, cmd: Command, trace: u64) -> Response;
    /// Executes an ordered batch, responses in submission order,
    /// attributed to a trace id.
    fn call_batch_traced(&self, cmds: Vec<Command>, mode: BatchMode, trace: u64) -> Vec<Response>;
    /// The counter block the wire front ends record into: messages
    /// per surface, protocol errors, reply encode time, and the
    /// reactor's connection/wakeup accounting.
    fn metrics(&self) -> &Metrics;
    /// [`Dispatch::call_traced`] under a freshly minted trace id.
    fn call(&self, cmd: Command) -> Response {
        self.call_traced(cmd, aware_obs::trace::next_trace_id())
    }
    /// [`Dispatch::call_batch_traced`] under a freshly minted trace id.
    fn call_batch_mode(&self, cmds: Vec<Command>, mode: BatchMode) -> Vec<Response> {
        self.call_batch_traced(cmds, mode, aware_obs::trace::next_trace_id())
    }
}

/// A cloneable, thread-safe client of an in-process service — the same
/// code path the TCP front end uses, minus the socket.
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl Dispatch for ServiceHandle {
    fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }

    /// A one-item run of the batch path.
    fn call_traced(&self, cmd: Command, trace: u64) -> Response {
        let mut replies = self.call_batch_traced(vec![cmd], BatchMode::Continue, trace);
        replies.pop().expect("one reply per command")
    }

    /// Same-session commands execute as one unit — back-to-back, in
    /// batch order, never interleaved with commands from other clients
    /// — so the α-investing decision sequence a batch observes is
    /// exactly the sequence a v1 client would have produced with N
    /// round trips. Units run one after another on the calling thread,
    /// in order of each route's first appearance; every unit the batch
    /// splits into carries `trace`.
    fn call_batch_traced(&self, cmds: Vec<Command>, mode: BatchMode, trace: u64) -> Vec<Response> {
        self.inner.metrics.batch(cmds.len());
        let mut slots: Vec<Option<Response>> = Vec::new();
        slots.resize_with(cmds.len(), || None);
        // One unit, hence one stripe, at a time: no lock ordering.
        for (route, items) in self.units(cmds, &mut slots) {
            self.run_unit(route, items, mode, trace, &mut slots);
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every item answered"))
            .collect()
    }
}

fn shutdown_error() -> Response {
    Response::Error(ServeError {
        code: ErrorCode::Shutdown,
        message: "service is shut down".into(),
    })
}

impl ServiceHandle {
    /// Executes one command to completion and returns its response: a
    /// one-element [`ServiceHandle::call_batch`].
    pub fn call(&self, cmd: Command) -> Response {
        Dispatch::call(self, cmd)
    }

    /// Executes an ordered batch of commands and returns their
    /// responses in submission order, errors reported per item (see
    /// [`Dispatch::call_batch_traced`] for the unit semantics).
    pub fn call_batch(&self, cmds: Vec<Command>) -> Vec<Response> {
        self.call_batch_mode(cmds, BatchMode::Continue)
    }

    /// [`ServiceHandle::call_batch`] with an explicit failure mode. In
    /// [`BatchMode::FailFast`], an item error aborts the *rest of its
    /// same-session unit* (those items answer `aborted`); items for
    /// other sessions are untouched — sessions share no statistical
    /// state, so there is nothing coherent to abort across them.
    pub fn call_batch_mode(&self, cmds: Vec<Command>, mode: BatchMode) -> Vec<Response> {
        Dispatch::call_batch_mode(self, cmds, mode)
    }

    /// Counts each command and splits the batch into per-route units,
    /// in order of each route's first appearance, batch order kept
    /// within a unit. A `stats` is answered into its slot here. Items
    /// of the first route never touch the route map, so a single
    /// command or a one-session batch hashes nothing.
    fn units(
        &self,
        cmds: Vec<Command>,
        slots: &mut [Option<Response>],
    ) -> Vec<(u64, Vec<UnitItem>)> {
        let mut units: Vec<(u64, Vec<UnitItem>)> = Vec::new();
        // Unit index of every route but the first.
        let mut later: HashMap<u64, usize> = HashMap::new();
        for (index, cmd) in cmds.into_iter().enumerate() {
            let (route, item) = match self.route(index, cmd) {
                Ok(routed) => routed,
                Err(answer) => {
                    slots[index] = Some(answer);
                    continue;
                }
            };
            let unit = match units.first() {
                Some((first, _)) if *first == route => 0,
                Some(_) => *later.entry(route).or_insert_with(|| {
                    units.push((route, Vec::new()));
                    units.len() - 1
                }),
                None => {
                    units.push((route, Vec::new()));
                    0
                }
            };
            units[unit].1.push(item);
        }
        units
    }

    /// Counts one command and assigns its route: its session, a fresh
    /// id for `create_session`, or [`SESSION_FREE_ROUTE`]. `Err` carries
    /// the answer of a `stats`, which is session-free and read-only and
    /// so is answered here rather than behind some route's stripe.
    fn route(&self, index: usize, cmd: Command) -> Result<(u64, UnitItem), Response> {
        let inner = &self.inner;
        inner.metrics.inc(Stat::commands);
        if matches!(cmd, Command::Stats) {
            if inner.shutting_down.load(Ordering::SeqCst) {
                return Err(shutdown_error());
            }
            let start = Instant::now();
            let response = Response::Stats(Box::new(snapshot_with_caches(inner)));
            inner
                .metrics
                .observe_command(cmd.kind_index(), start.elapsed().as_micros() as u64);
            return Err(response);
        }
        let (assigned, route) = match cmd.session() {
            Some(sid) => (None, sid),
            // Only creation consumes an id; other session-free commands
            // (list_datasets, the router admin verbs) route without
            // touching the allocator — a roster poll must not advance
            // the id space a cluster router seats its cluster-wide
            // allocator above.
            None if matches!(cmd, Command::CreateSession { .. }) => {
                let id = inner.next_session.fetch_add(1, Ordering::Relaxed);
                (Some(id), id)
            }
            None => (None, SESSION_FREE_ROUTE),
        };
        Ok((
            route,
            UnitItem {
                index,
                cmd,
                assigned,
            },
        ))
    }

    /// Runs one unit to completion on the calling thread, answering
    /// into `slots`: counts itself in flight (or answers `shutdown`),
    /// then executes under its route's stripe. Time spent waiting for a
    /// busy stripe is the unit's queue wait; a free stripe records 0 µs
    /// without reading the clock.
    fn run_unit(
        &self,
        route: u64,
        items: Vec<UnitItem>,
        mode: BatchMode,
        trace: u64,
        slots: &mut [Option<Response>],
    ) {
        let inner = &self.inner;
        // SeqCst: shutdown either sees this unit in flight or we see its
        // flag. A unit counted here finishes before the shutdown flush,
        // even one still waiting for its stripe.
        inner.in_flight.fetch_add(1, Ordering::SeqCst);
        if inner.shutting_down.load(Ordering::SeqCst) {
            for item in items {
                inner.metrics.inc(Stat::errors);
                slots[item.index] = Some(shutdown_error());
            }
        } else {
            let stripe = inner.stripe(route);
            let (_held, queue_us) = match stripe.try_lock() {
                Ok(held) => (held, 0),
                Err(TryLockError::Poisoned(poisoned)) => (poisoned.into_inner(), 0),
                Err(TryLockError::WouldBlock) => {
                    let start = Instant::now();
                    let held = stripe.lock().unwrap_or_else(PoisonError::into_inner);
                    (held, start.elapsed().as_micros() as u64)
                }
            };
            execute_unit(inner, items, mode, queue_us, trace, slots);
        }
        inner.in_flight.fetch_sub(1, Ordering::SeqCst);
    }

    /// Registers (or replaces) a dataset under `name`.
    pub fn register_table(&self, name: impl Into<String>, table: Table) {
        self.register_shared(name, Arc::new(table));
    }

    /// Registers an already-shared dataset — N sessions, one table, one
    /// fresh evaluation cache, one content fingerprint (computed here,
    /// once, so restores and imports can verify table identity without
    /// ever re-scanning the data).
    pub fn register_shared(&self, name: impl Into<String>, table: Arc<Table>) {
        let fingerprint = table.fingerprint();
        self.inner.datasets.write().unwrap().insert(
            name.into(),
            Dataset {
                table,
                cache: Arc::new(EvalCache::new()),
                fingerprint,
            },
        );
    }

    /// Registered dataset names, sorted.
    pub fn dataset_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self
            .inner
            .datasets
            .read()
            .unwrap()
            .keys()
            .cloned()
            .collect();
        names.sort();
        names
    }

    /// Number of live sessions.
    pub fn live_sessions(&self) -> u64 {
        self.inner.registry.len()
    }

    /// Evicts every session idle longer than the configured timeout;
    /// returns how many were evicted.
    pub fn sweep_idle(&self) -> usize {
        sweep_idle(&self.inner)
    }

    /// Renders every counter, gauge, and histogram as Prometheus text
    /// exposition — the body the `--metrics-addr` endpoint serves.
    pub fn metrics_text(&self) -> String {
        render_metrics(&self.inner)
    }
}

/// Prometheus text exposition of the whole service: scalar counters
/// and gauges from the stats snapshot, per-command-kind and per-stage
/// latency summaries, per-dataset evaluation-cache occupancy, snapshot
/// store health, and per-session risk telemetry.
fn render_metrics(inner: &Inner) -> String {
    use aware_obs::expose::TextRender;
    let snapshot = snapshot_with_caches(inner);
    let mut r = TextRender::new();

    r.family("aware_up", "gauge", "1 while the process serves.");
    r.sample("aware_up", &[], 1);
    r.scalars(&SCALARS, &snapshot.scalars());

    r.family(
        "aware_batch_size",
        "counter",
        "Batches by size bucket (upper edge; +Inf for the overflow bucket).",
    );
    for (i, &n) in snapshot.batch_size_hist.iter().enumerate() {
        let edge = crate::proto::BATCH_SIZE_BUCKETS
            .get(i)
            .map(|e| e.to_string())
            .unwrap_or_else(|| "+Inf".into());
        r.sample("aware_batch_size", &[("le", &edge)], n);
    }

    r.family(
        "aware_command_latency_us",
        "summary",
        "End-to-end command latency (queue wait + execute) by kind, microseconds.",
    );
    for (kind, name) in crate::proto::COMMAND_KINDS.iter().enumerate() {
        let snap = inner.metrics.latency_of_kind(kind);
        if snap.count() > 0 {
            r.summary("aware_command_latency_us", &[("kind", name)], &snap);
        }
    }
    r.family(
        "aware_stage_latency_us",
        "summary",
        "Stage breakdown: queue_wait (waiting for the session's stripe), execute, \
         snapshot_flush, wire_encode (one reply's encode, socket write excluded); \
         microseconds.",
    );
    for (stage, snap) in inner.metrics.stages() {
        r.summary("aware_stage_latency_us", &[("stage", stage)], &snap);
    }

    r.family(
        "aware_cache_hits_total",
        "counter",
        "Evaluation-cache probes answered from the cache, by dataset.",
    );
    r.family(
        "aware_cache_misses_total",
        "counter",
        "Evaluation-cache probes evaluated cold, by dataset.",
    );
    r.family(
        "aware_cache_selections",
        "gauge",
        "Selection bitmaps currently resident, by dataset.",
    );
    r.family(
        "aware_cache_invariants",
        "gauge",
        "Attribute invariant sets currently resident, by dataset.",
    );
    let datasets = inner.datasets.read().unwrap();
    let mut names: Vec<&String> = datasets.keys().collect();
    names.sort();
    for name in names {
        let stats = datasets[name].cache.stats();
        let labels = [("dataset", name.as_str())];
        r.sample("aware_cache_hits_total", &labels, stats.hits);
        r.sample("aware_cache_misses_total", &labels, stats.misses);
        r.sample("aware_cache_selections", &labels, stats.selections);
        r.sample("aware_cache_invariants", &labels, stats.invariants);
    }
    drop(datasets);

    if let Some(store) = &inner.store {
        r.family(
            "aware_persisted_sessions",
            "gauge",
            "Sessions with a durable snapshot on disk.",
        );
        r.sample("aware_persisted_sessions", &[], store.persisted());
        r.family(
            "aware_corrupt_snapshots_total",
            "counter",
            "Snapshot files that failed to decode since open.",
        );
        r.sample("aware_corrupt_snapshots_total", &[], store.corrupt_count());
    }

    r.family(
        "aware_session_wealth",
        "gauge",
        "Remaining α-wealth, by session.",
    );
    r.family(
        "aware_session_tests_run",
        "gauge",
        "Hypotheses tested, by session.",
    );
    r.family(
        "aware_session_discoveries",
        "gauge",
        "Discoveries, by session.",
    );
    r.family(
        "aware_session_risk_spent",
        "gauge",
        "Cumulative α bid across all tests, by session (information-usage readout).",
    );
    for row in &snapshot.sessions {
        let id = row.session.to_string();
        let labels = [("session", id.as_str()), ("dataset", row.dataset.as_str())];
        r.sample_f64("aware_session_wealth", &labels, row.wealth);
        r.sample("aware_session_tests_run", &labels, row.tests_run);
        r.sample("aware_session_discoveries", &labels, row.discoveries);
        r.sample_f64("aware_session_risk_spent", &labels, row.risk_spent);
    }

    r.finish()
}

/// The running service: the shared state behind its handles. Dropping
/// (or calling [`Service::shutdown`]) waits for admitted commands and
/// flushes dirty sessions; commands sent through surviving handles then
/// answer with a `shutdown` error.
pub struct Service {
    handle: ServiceHandle,
}

impl Service {
    /// Starts a service with the given configuration.
    ///
    /// # Panics
    ///
    /// Panics when [`ServiceConfig::data_dir`] is set but the snapshot
    /// directory cannot be created or scanned — running "durable" with
    /// a broken store would be a silent lie.
    pub fn start(config: ServiceConfig) -> Service {
        let store = config.data_dir.as_ref().map(|dir| {
            SnapshotStore::open(dir).unwrap_or_else(|e| {
                panic!(
                    "aware-serve: cannot open snapshot directory {}: {e}",
                    dir.display()
                )
            })
        });
        // Resume id allocation above every persisted session, so a
        // restored session and a newly created one can never collide —
        // handing a returning client someone else's fresh wealth would
        // be exactly the reset persistence exists to prevent.
        let first_free_id = store
            .as_ref()
            .and_then(SnapshotStore::max_session_id)
            .map_or(0, |max| max + 1);
        // Replica images survive a shard restart: re-seed the held map
        // from the store's replica namespace so a restarted shard still
        // answers `list_sessions`/`promote_replica` for them.
        let replicas: HashMap<SessionId, ReplicaHeld> = store
            .as_ref()
            .map(|s| {
                s.replica_entries()
                    .into_iter()
                    .map(|(id, epoch)| (id, ReplicaHeld { epoch, image: None }))
                    .collect()
            })
            .unwrap_or_default();
        let inner = Arc::new(Inner {
            registry: Registry::default(),
            metrics: Metrics::new(),
            datasets: RwLock::new(HashMap::new()),
            next_session: AtomicU64::new(first_free_id),
            stripes: std::array::from_fn(|_| Mutex::new(())),
            in_flight: AtomicUsize::new(0),
            store,
            replicas: Mutex::new(replicas),
            gossip: Mutex::new((0, Vec::new())),
            shutting_down: AtomicBool::new(false),
            config,
        });

        if let Some(interval) = inner.config.sweep_interval {
            let weak = Arc::downgrade(&inner);
            std::thread::Builder::new()
                .name("aware-serve-sweeper".into())
                .spawn(move || sweeper_loop(weak, interval))
                .expect("spawn sweeper thread");
        }

        if inner.store.is_some() {
            if let Some(interval) = inner.config.snapshot_every {
                if !interval.is_zero() {
                    let weak = Arc::downgrade(&inner);
                    std::thread::Builder::new()
                        .name("aware-serve-snapshotter".into())
                        .spawn(move || snapshotter_loop(weak, interval))
                        .expect("spawn snapshotter thread");
                }
            }
        }

        Service {
            handle: ServiceHandle { inner },
        }
    }

    /// Starts with defaults.
    pub fn with_defaults() -> Service {
        Service::start(ServiceConfig::default())
    }

    /// A new client handle.
    pub fn handle(&self) -> ServiceHandle {
        self.handle.clone()
    }

    /// See [`ServiceHandle::sweep_idle`].
    pub fn sweep_idle(&self) -> usize {
        self.handle.sweep_idle()
    }

    /// Refuses new commands, waits for admitted ones, and flushes every
    /// dirty session — what dropping the service does.
    pub fn shutdown(self) {
        drop(self);
    }
}

/// Writes every dirty session's snapshot (a no-op without a store).
fn flush_dirty(inner: &Inner) {
    for entry in inner.registry.entries() {
        if entry.is_dirty() {
            spill_to_disk(inner, entry.id, || true);
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        let inner = &self.handle.inner;
        inner.shutting_down.store(true, Ordering::SeqCst);
        // Callers admitted before the flag finish their unit first — a
        // caller still waiting for its stripe included — so an acked
        // mutation never misses the flush.
        while inner.in_flight.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_micros(100));
        }
        // Quiet now: flush every dirty session so a graceful restart
        // loses nothing even in periodic-snapshot mode.
        flush_dirty(inner);
    }
}

fn sweeper_loop(inner: Weak<Inner>, interval: Duration) {
    loop {
        std::thread::sleep(interval);
        match inner.upgrade() {
            Some(inner) => {
                sweep_idle(&inner);
            }
            None => return, // service is gone
        }
    }
}

fn sweep_idle(inner: &Inner) -> usize {
    let timeout_ms = inner.config.idle_timeout.as_millis() as u64;
    let Some(cutoff) = inner.registry.now_ms().checked_sub(timeout_ms) else {
        return 0; // the service is younger than the timeout
    };
    let mut evicted = 0;
    for id in inner.registry.idle_ids(cutoff) {
        // With a store, spill before unlinking: idle eviction parks
        // wealth on disk instead of destroying it. A failed spill keeps
        // the session in memory. Recency is re-checked under the shard
        // write lock: a session touched between the scan and the
        // removal survives the sweep (its just-written snapshot is then
        // merely stale, and overwritten on its next spill).
        if spill_to_disk(inner, id, || inner.registry.remove_if_idle(id, cutoff)) {
            inner.metrics.inc(Stat::sessions_evicted);
            evicted += 1;
        }
    }
    evicted
}

fn snapshotter_loop(inner: Weak<Inner>, interval: Duration) {
    loop {
        std::thread::sleep(interval);
        match inner.upgrade() {
            Some(inner) => flush_dirty(&inner),
            None => return, // service is gone
        }
    }
}

/// Executes one dispatch unit to completion on the calling thread —
/// back-to-back, under its route's stripe held by the caller, so a
/// batched stream decides exactly as N sequential round trips. Each
/// reply lands in its item's slot.
fn execute_unit(
    inner: &Inner,
    items: Vec<UnitItem>,
    mode: BatchMode,
    queue_us: u64,
    trace: u64,
    slots: &mut [Option<Response>],
) {
    // Queue wait: one span per unit (the unit waited for its stripe as a
    // whole; 0 when the stripe was free). Each command's end-to-end
    // latency is that wait plus its own execute time.
    inner.metrics.observe(Stage::QueueWait, queue_us);
    let slow_us = inner.config.slow_ms.map(|ms| ms.saturating_mul(1000));
    let mut aborted = false;
    for item in items {
        let UnitItem {
            index,
            cmd,
            assigned,
        } = item;
        let response = if aborted {
            Response::Error(ServeError {
                code: ErrorCode::Aborted,
                message: "skipped: an earlier command of this session stream \
                                      failed in a fail_fast batch"
                    .into(),
            })
        } else {
            let kind = cmd.kind_index();
            // Slow-query context is extracted up front (the
            // command moves into the closure below) and only
            // when a threshold is configured.
            let slow_ctx = slow_us
                .is_some()
                .then(|| SlowContext::capture(inner, &cmd, assigned));
            let exec_start = std::time::Instant::now();
            // Panic isolation: a handler panic (poisoned
            // session mutex, engine bug) must cost one error
            // response — at worst one bricked session —
            // never the calling connection or dispatcher thread.
            // The command moves into the closure — no
            // per-command clone on the hot path.
            let response = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                execute(inner, cmd, assigned)
            }))
            .unwrap_or_else(|panic| {
                let what = panic
                    .downcast_ref::<&str>()
                    .map(|s| (*s).to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                Response::Error(ServeError {
                    code: ErrorCode::SessionError,
                    message: format!("internal error executing command: {what}"),
                })
            });
            let exec_us = exec_start.elapsed().as_micros() as u64;
            inner.metrics.observe(Stage::Execute, exec_us);
            inner.metrics.observe_command(kind, queue_us + exec_us);
            if let (Some(threshold), Some(ctx)) = (slow_us, slow_ctx) {
                if queue_us + exec_us >= threshold {
                    ctx.emit(inner, trace, kind, queue_us, exec_us);
                }
            }
            response
        };
        if matches!(response, Response::Error(_)) {
            inner.metrics.inc(Stat::errors);
            if mode == BatchMode::FailFast {
                aborted = true;
            }
        }
        slots[index] = Some(response);
    }
}

/// Context for a potential slow-query record, captured before the
/// command moves into the execute closure. Cache hit/miss figures are
/// counter deltas summed over every dataset — approximate under
/// concurrency (other threads' probes land in the same window), but
/// free of per-probe bookkeeping on the hot path.
struct SlowContext {
    session: Option<SessionId>,
    fingerprint: Option<u64>,
    cache_before: (u64, u64),
}

impl SlowContext {
    fn capture(inner: &Inner, cmd: &Command, assigned: Option<SessionId>) -> SlowContext {
        let fingerprint = match cmd {
            Command::AddVisualization { filter, .. } => {
                Some(aware_data::cache::Fingerprint::of(&filter.to_predicate()).hash())
            }
            _ => None,
        };
        SlowContext {
            session: assigned.or_else(|| cmd.session()),
            fingerprint,
            cache_before: cache_totals(inner),
        }
    }

    /// Emits the structured slow-query record. The trace id is the
    /// grep key that follows the command across processes (a router's
    /// record for the same command carries the same id).
    fn emit(&self, inner: &Inner, trace: u64, kind: usize, queue_us: u64, exec_us: u64) {
        inner.metrics.inc(Stat::slow_queries);
        let (hits_after, misses_after) = cache_totals(inner);
        let dataset = self
            .session
            .and_then(|id| inner.registry.peek(id))
            .map(|e| e.meta.lock().unwrap().dataset.clone())
            .unwrap_or_else(|| "-".into());
        let kinds = crate::proto::COMMAND_KINDS;
        aware_obs::logline!(
            aware_obs::log::Level::Warn,
            "slow_query",
            trace = aware_obs::trace::fmt_trace(trace),
            kind = kinds[kind.min(kinds.len() - 1)],
            session = self
                .session
                .map(|s| s.to_string())
                .unwrap_or_else(|| "-".into()),
            dataset = dataset,
            fingerprint = self
                .fingerprint
                .map(|f| format!("{f:016x}"))
                .unwrap_or_else(|| "-".into()),
            cache_hits = hits_after.saturating_sub(self.cache_before.0),
            cache_misses = misses_after.saturating_sub(self.cache_before.1),
            queue_us = queue_us,
            exec_us = exec_us,
            total_us = queue_us + exec_us,
        );
    }
}

/// Evaluation-cache hit/miss totals summed over every dataset
/// (atomics only; never touches the stripe locks).
fn cache_totals(inner: &Inner) -> (u64, u64) {
    let mut totals = (0u64, 0u64);
    for dataset in inner.datasets.read().unwrap().values() {
        let (hits, misses) = dataset.cache.counters();
        totals.0 += hits;
        totals.1 += misses;
    }
    totals
}

fn execute(inner: &Inner, cmd: Command, assigned: Option<SessionId>) -> Response {
    match cmd {
        Command::CreateSession {
            dataset,
            alpha,
            policy,
        } => create_session(
            inner,
            assigned.expect("create is pre-assigned"),
            dataset,
            alpha,
            policy,
            false,
        ),
        Command::CreateSessionAs {
            session,
            dataset,
            alpha,
            policy,
        } => create_session(inner, session, dataset, alpha, policy, true),
        Command::ExportSession { session } => export_session(inner, session),
        Command::ImportSession { session, image } => import_session(inner, session, image),
        Command::ListDatasets => list_datasets(inner),
        Command::JoinShard { .. } | Command::LeaveShard { .. } => {
            Response::Error(ServeError::invalid(
                "this server is a shard, not a cluster router — \
                 join_shard/leave_shard are router admin commands",
            ))
        }
        Command::AddVisualization {
            session,
            attribute,
            filter,
        } => add_visualization(inner, session, attribute, filter),
        Command::SetPolicy { session, policy } => set_policy(inner, session, policy),
        Command::Gauge { session } => with_session(inner, session, |s| Response::GaugeText {
            session,
            text: gauge::render_memo(s),
        }),
        Command::Transcript { session, format } => with_session(inner, session, |s| {
            let text = match format {
                TranscriptFormat::Csv => transcript::export_csv_memo(s),
                TranscriptFormat::Text => transcript::export_text_memo(s),
            };
            Response::TranscriptText {
                session,
                format,
                text,
            }
        }),
        Command::CloseSession { session } => close_session(inner, session),
        Command::Stats => Response::Stats(Box::new(snapshot_with_caches(inner))),
        Command::ReplicateSession {
            session,
            epoch,
            image,
        } => replicate_session(inner, session, epoch, image),
        Command::PromoteReplica { session } => promote_replica(inner, session),
        Command::DropReplica { session } => drop_replica(inner, session),
        Command::SnapshotSession { session } => snapshot_session(inner, session),
        Command::ListSessions => list_sessions(inner),
        Command::Gossip {
            from,
            generation,
            members,
        } => gossip(inner, from, generation, members),
    }
}

fn create_session(
    inner: &Inner,
    id: SessionId,
    dataset: String,
    alpha: f64,
    policy: PolicySpec,
    preassigned: bool,
) -> Response {
    let Some((table, cache, fingerprint)) = inner
        .datasets
        .read()
        .unwrap()
        .get(&dataset)
        .map(|d| (d.table.clone(), d.cache.clone(), d.fingerprint))
    else {
        return Response::Error(ServeError {
            code: ErrorCode::UnknownDataset,
            message: format!("no dataset '{dataset}' registered"),
        });
    };
    let boxed = match policy.build() {
        Ok(p) => p,
        Err(e) => return Response::Error(e),
    };
    // A preassigned id comes from outside this shard's allocator (a
    // cluster router); refuse collisions with anything this shard
    // already knows — live or spilled — and keep the local allocator
    // above it so locally created sessions can never collide either.
    if preassigned {
        if inner.store.as_ref().is_some_and(|s| s.contains(id)) {
            return Response::Error(ServeError::invalid(format!(
                "session id {id} is already in use (persisted on this shard)"
            )));
        }
        inner.next_session.fetch_max(id + 1, Ordering::Relaxed);
    }
    // All sessions on one dataset share its evaluation cache: filter
    // chains and global histograms warmed by any session serve them all.
    let session = match Session::shared_with_cache(table, alpha, boxed, cache) {
        Ok(s) => s,
        Err(e) => return Response::Error(ServeError::invalid(format!("cannot open session: {e}"))),
    };

    if let Err(refusal) = ensure_capacity(inner) {
        return refusal;
    }

    let wealth = session.wealth();
    let policy_name = session.policy_name();
    let meta = SessionMeta {
        dataset,
        fingerprint,
        policy,
        policy_since: 0,
    };
    let entry = if preassigned {
        match inner.registry.try_insert(id, session, meta) {
            Some(entry) => entry,
            None => {
                return Response::Error(ServeError::invalid(format!(
                    "session id {id} is already in use (live on this shard)"
                )))
            }
        }
    } else {
        inner.registry.insert(id, session, meta)
    };
    inner.metrics.inc(Stat::sessions_created);
    // A created session is durable the moment the client learns its id:
    // in synchronous mode the initial snapshot is on disk before this
    // response is released; otherwise the dirty flag queues it for the
    // next periodic pass.
    entry.mark_dirty();
    if inner.sync_snapshots() {
        let image = {
            let session = entry.session.lock().unwrap();
            entry.clear_dirty();
            image_of(&entry, &session)
        };
        if !save_image(inner, &image) {
            // The write-before-reply promise broke; leave the session
            // dirty so the shutdown flush (and any later spill) retries.
            entry.mark_dirty();
        }
    }
    Response::SessionCreated {
        session: id,
        wealth,
        policy: policy_name,
    }
}

/// Makes room for one more session, spilling (with a store) or dropping
/// (without) LRU victims. The victim's recency is re-checked under its
/// shard write lock, so a session touched after the scan survives and
/// the scan re-runs; a bounded number of attempts turns a registry full
/// of hot sessions into an `overloaded` error instead of a livelock.
/// Under concurrent creates this can momentarily overshoot by a few
/// evictions — harmless, the cap is a resource bound, not an exact
/// count.
// An `Err` here is one `Response` about to hit the wire — cold path,
// not worth boxing.
#[allow(clippy::result_large_err)]
fn ensure_capacity(inner: &Inner) -> Result<(), Response> {
    let mut attempts = 0;
    while inner.registry.len() >= inner.config.max_sessions {
        attempts += 1;
        let evicted = match inner.registry.lru_candidate() {
            Some((victim, observed_seq)) => {
                // Spill before unlinking: LRU eviction parks the
                // victim's wealth on disk. A session touched (and
                // possibly mutated) after the scan is not removed; its
                // just-written snapshot is then merely stale and will
                // be overwritten by its next spill.
                spill_to_disk(inner, victim, || {
                    inner.registry.remove_if_unused_since(victim, observed_seq)
                })
            }
            None => false,
        };
        if evicted {
            inner.metrics.inc(Stat::sessions_evicted);
        } else if attempts >= 16 {
            inner.metrics.inc(Stat::overloaded);
            return Err(Response::Error(ServeError {
                code: ErrorCode::Overloaded,
                message: "session capacity exhausted and nothing evictable".into(),
            }));
        }
    }
    Ok(())
}

/// Finds a live session, transparently restoring it from the snapshot
/// store when it was spilled (or the server restarted). The restore
/// derives no selection: the first later test that needs one derives it
/// through the dataset's shared evaluation cache — snapshots carry no
/// bitmaps.
#[allow(clippy::result_large_err)] // cold path, the Err is the reply
fn lookup_or_restore(inner: &Inner, id: SessionId) -> Result<Arc<SessionEntry>, Response> {
    if let Some(entry) = inner.registry.get(id) {
        return Ok(entry);
    }
    let Some(store) = &inner.store else {
        return Err(Response::Error(ServeError::unknown_session(id)));
    };
    if !store.contains(id) {
        return Err(Response::Error(ServeError::unknown_session(id)));
    }
    let image = store.load(id).map_err(Response::Error)?;
    let (session, meta) = restore_image(inner, image).map_err(Response::Error)?;
    ensure_capacity(inner)?;
    Ok(inner.registry.insert(id, session, meta))
}

/// Serves the read-only commands (`gauge`, `transcript`) from the
/// live (or restored) session. A replica image held here is not a
/// session: it answers the same refusal an unknown id does, and only
/// promotion reads it.
fn with_session(
    inner: &Inner,
    id: SessionId,
    f: impl FnOnce(&mut crate::registry::ServedSession) -> Response,
) -> Response {
    match lookup_or_restore(inner, id) {
        Ok(entry) => f(&mut entry.session.lock().unwrap()),
        Err(refusal) => refusal,
    }
}

/// [`with_session`] for state-mutating commands: marks the entry dirty
/// and, in synchronous-snapshot mode, writes the session's snapshot to
/// disk before the response escapes (the write happens outside the
/// session mutex; the image was cut under it).
fn with_session_mut(
    inner: &Inner,
    id: SessionId,
    f: impl FnOnce(&mut crate::registry::ServedSession, &SessionEntry) -> Response,
) -> Response {
    let mut f = Some(f);
    let (entry, response, image) = loop {
        let entry = match lookup_or_restore(inner, id) {
            Ok(entry) => entry,
            Err(refusal) => return refusal,
        };
        let mut session = entry.session.lock().unwrap();
        // An eviction spills and unlinks under this mutex: an entry it
        // unlinked since the lookup is a stale copy, so look up again
        // (restoring the image it just wrote) instead of mutating it.
        if !inner.registry.holds(&entry) {
            continue;
        }
        let response = f.take().expect("runs once")(&mut session, &entry);
        entry.mark_dirty();
        let image = if inner.sync_snapshots() {
            entry.clear_dirty();
            Some(image_of(&entry, &session))
        } else {
            None
        };
        drop(session);
        break (entry, response, image);
    };
    if let Some(image) = image {
        if !save_image(inner, &image) {
            // Synchronous durability failed: re-mark dirty so the
            // shutdown flush and eviction spill keep trying.
            entry.mark_dirty();
        }
    }
    response
}

fn add_visualization(
    inner: &Inner,
    id: SessionId,
    attribute: String,
    filter: crate::proto::FilterSpec,
) -> Response {
    with_session_mut(inner, id, |s, _entry| {
        match s.add_visualization(attribute, filter.to_predicate()) {
            Ok(outcome) => {
                let hypothesis = outcome.hypothesis.map(|(hid, record)| {
                    inner.metrics.inc(Stat::hypotheses_tested);
                    if record.decision.is_rejection() {
                        inner.metrics.inc(Stat::discoveries);
                    }
                    HypothesisReport::from_record(hid.0, &record)
                });
                Response::VizAdded {
                    session: id,
                    viz: outcome.viz.0,
                    wealth: s.wealth(),
                    hypothesis,
                }
            }
            Err(e) if e.is_wealth_exhausted() => {
                inner.metrics.inc(Stat::rejected_by_budget);
                Response::Error(ServeError::from_session(e))
            }
            Err(e) => Response::Error(ServeError::from_session(e)),
        }
    })
}

fn set_policy(inner: &Inner, id: SessionId, policy: PolicySpec) -> Response {
    let boxed = match policy.build() {
        Ok(p) => p,
        Err(e) => return Response::Error(e),
    };
    with_session_mut(inner, id, |s, entry| {
        s.replace_policy(boxed);
        // Record where the new policy's observation history begins, so
        // a restore replays `observe` only for tests it actually saw.
        let mut meta = entry.meta.lock().unwrap();
        meta.policy = policy;
        meta.policy_since = s.tests_run() as u64;
        Response::PolicySet {
            session: id,
            policy: s.policy_name(),
        }
    })
}

fn close_session(inner: &Inner, id: SessionId) -> Response {
    match inner.registry.remove(id) {
        Some(entry) => {
            let s = entry.session.lock().unwrap();
            if let Some(store) = &inner.store {
                store.remove(id);
            }
            inner.metrics.inc(Stat::sessions_closed);
            Response::SessionClosed {
                session: id,
                hypotheses: s.hypotheses().len() as u64,
                discoveries: s.discovery_count() as u64,
            }
        }
        // A spilled session can be closed without resurrecting it: the
        // farewell totals are read from the snapshot, then the files go.
        None => match &inner.store {
            Some(store) if store.contains(id) => match store.load(id) {
                Ok(image) => {
                    store.remove(id);
                    inner.metrics.inc(Stat::sessions_closed);
                    Response::SessionClosed {
                        session: id,
                        hypotheses: image.session.hypotheses.len() as u64,
                        discoveries: image
                            .session
                            .hypotheses
                            .iter()
                            .filter(|h| h.is_discovery())
                            .count() as u64,
                    }
                }
                // Corrupt snapshots are NOT deleted on close: the bytes
                // are the only remaining evidence an operator could
                // still recover.
                Err(e) => Response::Error(e),
            },
            _ => Response::Error(ServeError::unknown_session(id)),
        },
    }
}

/// Exports a session for migration: quiesce (this runs under the
/// session's stripe, after every earlier command), snapshot, remove from
/// memory *and* disk, and hand the complete `AWRS` image to the caller.
/// After the response leaves, the wealth ledger exists only in those
/// bytes — which is the point: a migrated session must never be
/// serveable from two shards at once (that would double its α-budget).
fn export_session(inner: &Inner, id: SessionId) -> Response {
    let entry = match lookup_or_restore(inner, id) {
        Ok(entry) => entry,
        Err(refusal) => return refusal,
    };
    let image = {
        let session = entry.session.lock().unwrap();
        image_of(&entry, &session)
    };
    let bytes = crate::snapshot::encode(&image);
    // Decode-validate our own bytes before destroying the live session:
    // shipping an image the far side must refuse would strand the
    // wealth in transit.
    if let Err(e) = crate::snapshot::decode(&bytes) {
        return Response::Error(ServeError {
            code: ErrorCode::CorruptSnapshot,
            message: format!("session {id} produced an unreadable export image: {e}"),
        });
    }
    inner.registry.remove(id);
    if let Some(store) = &inner.store {
        store.remove(id);
    }
    Response::SessionExported {
        session: id,
        image: bytes,
    }
}

/// Imports an exported `AWRS` image: full snapshot validation (see
/// [`validate_image`]), id allocator bumped above the imported id.
fn import_session(inner: &Inner, id: SessionId, bytes: Vec<u8>) -> Response {
    let (session, meta) = match validate_image(inner, id, &bytes) {
        Ok(restored) => restored,
        Err(e) => return Response::Error(e),
    };
    if let Some(store) = &inner.store {
        if store.contains(id) {
            return Response::Error(ServeError::invalid(format!(
                "session id {id} is already in use (persisted on this shard)"
            )));
        }
        // The id may carry a tombstone from an earlier export off this
        // shard (or a close); an imported session must be able to
        // persist here again.
        store.revive(id);
    }
    if let Err(refusal) = ensure_capacity(inner) {
        return refusal;
    }
    let wealth = session.wealth();
    let Some(entry) = inner.registry.try_insert(id, session, meta) else {
        return Response::Error(ServeError::invalid(format!(
            "session id {id} is already in use (live on this shard)"
        )));
    };
    // Imported ids come from another allocator; never hand them out
    // locally again.
    inner.next_session.fetch_max(id + 1, Ordering::Relaxed);
    // The import is durable under the same contract a create is.
    entry.mark_dirty();
    if inner.sync_snapshots() {
        let image = {
            let session = entry.session.lock().unwrap();
            entry.clear_dirty();
            image_of(&entry, &session)
        };
        if !save_image(inner, &image) {
            entry.mark_dirty();
        }
    }
    Response::SessionImported {
        session: id,
        wealth,
    }
}

/// The dataset roster: what a router checks (by content fingerprint)
/// before admitting this shard to a ring, plus the shard's next free
/// session id so a router can seat its cluster-wide allocator above
/// every id any shard has ever handed out.
fn list_datasets(inner: &Inner) -> Response {
    let mut datasets: Vec<crate::proto::DatasetInfo> = inner
        .datasets
        .read()
        .unwrap()
        .iter()
        .map(|(name, d)| crate::proto::DatasetInfo {
            name: name.clone(),
            rows: d.table.rows() as u64,
            fingerprint: d.fingerprint,
        })
        .collect();
    datasets.sort_by(|a, b| a.name.cmp(&b.name));
    Response::Datasets {
        datasets,
        next_session: inner.next_session.load(Ordering::Relaxed),
    }
}

/// Runs the full restore validation battery over shipped image bytes
/// without installing anything: decode, id match, then
/// [`restore_image`]. Returns the restored session and its meta so
/// import and promotion can install the result; replication validates
/// and drops.
fn validate_image(
    inner: &Inner,
    id: SessionId,
    bytes: &[u8],
) -> Result<(crate::registry::ServedSession, SessionMeta), ServeError> {
    let image = crate::snapshot::decode(bytes)?;
    if image.id != id {
        return Err(ServeError::invalid(format!(
            "image addressed session {id} but contains session {}",
            image.id
        )));
    }
    restore_image(inner, image)
}

/// The one restore preamble — a spilled session's return, an import,
/// a replica's validation: dataset lookup by name, content-fingerprint
/// check, policy build, and bit-for-bit ledger re-validation via
/// `Session::restore`. Installs nothing.
fn restore_image(
    inner: &Inner,
    image: SessionImage,
) -> Result<(crate::registry::ServedSession, SessionMeta), ServeError> {
    let id = image.id;
    let Some((table, cache, fingerprint)) = inner
        .datasets
        .read()
        .unwrap()
        .get(&image.dataset)
        .map(|d| (d.table.clone(), d.cache.clone(), d.fingerprint))
    else {
        return Err(ServeError {
            code: ErrorCode::UnknownDataset,
            message: format!(
                "session {id} is over dataset '{}', which is not registered on this shard",
                image.dataset
            ),
        });
    };
    // The image names its table by *content*, not just by name: a
    // registered table whose fingerprint differs is different data (on
    // a cross-shard handoff both shards say "census"), and a ledger
    // replayed against different data is a corrupt ledger. Version-1
    // images predate fingerprints and keep the trust they always had.
    if let Some(stamped) = image.fingerprint {
        if stamped != fingerprint {
            return Err(ServeError {
                code: ErrorCode::CorruptSnapshot,
                message: format!(
                    "session {id} was snapshotted over dataset '{}' with content \
                     fingerprint {stamped:016x}, but this shard's table fingerprints \
                     {fingerprint:016x} — refusing to replay the ledger against \
                     different data",
                    image.dataset
                ),
            });
        }
    }
    let boxed = image.policy.build()?;
    let session = Session::restore(
        table,
        Some(cache),
        image.session,
        boxed,
        image.policy_since as usize,
    )
    .map_err(|e| ServeError {
        code: ErrorCode::CorruptSnapshot,
        message: format!("session {id} failed restore validation: {e}"),
    })?;
    let meta = SessionMeta {
        dataset: image.dataset,
        fingerprint,
        policy: image.policy,
        policy_since: image.policy_since,
    };
    Ok((session, meta))
}

/// Forgets the held replica image of `id` (map entry and durable file).
fn discard_replica(inner: &Inner, id: SessionId) {
    inner.replicas.lock().unwrap().remove(&id);
    if let Some(store) = &inner.store {
        store.remove_replica(id);
    }
}

/// Applies one `replicate_session`: full restore validation (a diverged
/// or tampered image is refused and nothing is stored), monotone epoch
/// check, then durable (or in-memory) retention of the image bytes.
fn replicate_session(inner: &Inner, id: SessionId, epoch: u64, bytes: Vec<u8>) -> Response {
    // This shard is the session's *primary* — replication here would
    // leave two serveable copies of one wealth ledger. Placement is
    // wrong; refuse loudly.
    if inner.registry.peek(id).is_some() || inner.store.as_ref().is_some_and(|s| s.contains(id)) {
        return Response::Error(ServeError::invalid(format!(
            "session {id} is primary on this shard — a shard never replicates to itself"
        )));
    }
    if let Err(e) = validate_image(inner, id, &bytes) {
        return Response::Error(ServeError {
            code: ErrorCode::CorruptSnapshot,
            message: format!("replica image of session {id} refused: {}", e.message),
        });
    }
    // The dispatcher serializes commands per session, so no concurrent
    // replicate/promote/drop races this epoch check.
    if let Some(held) = inner.replicas.lock().unwrap().get(&id) {
        if epoch < held.epoch {
            return Response::Error(ServeError::invalid(format!(
                "stale replication epoch {epoch} for session {id} (holding epoch {})",
                held.epoch
            )));
        }
        if epoch == held.epoch {
            // Idempotent re-ship of the current epoch: ack, don't rewrite.
            return Response::SessionReplicated { session: id, epoch };
        }
    }
    let image = if let Some(store) = &inner.store {
        if let Err(e) = store.save_replica(id, epoch, &bytes) {
            return Response::Error(ServeError {
                code: ErrorCode::Unavailable,
                message: format!("cannot persist replica image of session {id}: {e}"),
            });
        }
        None
    } else {
        Some(bytes)
    };
    inner
        .replicas
        .lock()
        .unwrap()
        .insert(id, ReplicaHeld { epoch, image });
    Response::SessionReplicated { session: id, epoch }
}

/// Installs the held replica image as the live session. The bytes are
/// re-read from their durable home and re-validated from scratch — a
/// tampered or diverged image answers `corrupt_snapshot` and the
/// replica is discarded, never adopted as a ledger.
fn promote_replica(inner: &Inner, id: SessionId) -> Response {
    let held = inner
        .replicas
        .lock()
        .unwrap()
        .get(&id)
        .map(|h| (h.epoch, h.image.clone()));
    let Some((epoch, mem_bytes)) = held else {
        return Response::Error(ServeError {
            code: ErrorCode::UnknownSession,
            message: format!("no replica image held for session {id}"),
        });
    };
    let bytes = match &inner.store {
        Some(store) => match store.load_replica(id) {
            Some((_, bytes)) => bytes,
            None => {
                discard_replica(inner, id);
                return Response::Error(ServeError {
                    code: ErrorCode::CorruptSnapshot,
                    message: format!("replica image of session {id} is missing from disk"),
                });
            }
        },
        None => match mem_bytes {
            Some(bytes) => bytes,
            None => {
                discard_replica(inner, id);
                return Response::Error(ServeError {
                    code: ErrorCode::CorruptSnapshot,
                    message: format!("replica image of session {id} has no bytes"),
                });
            }
        },
    };
    let (session, meta) = match validate_image(inner, id, &bytes) {
        Ok(v) => v,
        Err(e) => {
            // The Hardt–Ullman rule: a ledger that fails validation is
            // not a stale ledger, it is no ledger. Discard, never adopt.
            discard_replica(inner, id);
            aware_obs::logline!(
                aware_obs::log::Level::Warn,
                "replica_refused",
                session = id,
                epoch = epoch,
                error = e.message,
            );
            return Response::Error(ServeError {
                code: ErrorCode::CorruptSnapshot,
                message: format!(
                    "replica image of session {id} (epoch {epoch}) refused at promotion: {}",
                    e.message
                ),
            });
        }
    };
    if let Err(refusal) = ensure_capacity(inner) {
        return refusal;
    }
    if let Some(store) = &inner.store {
        // The id may carry a tombstone from an earlier export/close.
        store.revive(id);
    }
    let wealth = session.wealth();
    let Some(entry) = inner.registry.try_insert(id, session, meta) else {
        return Response::Error(ServeError::invalid(format!(
            "session id {id} is already in use (live on this shard)"
        )));
    };
    inner.next_session.fetch_max(id + 1, Ordering::Relaxed);
    // The promoted session is durable under the same contract an
    // import is; the replica file goes — this shard is the primary now.
    entry.mark_dirty();
    if inner.sync_snapshots() {
        let image = {
            let session = entry.session.lock().unwrap();
            entry.clear_dirty();
            image_of(&entry, &session)
        };
        if !save_image(inner, &image) {
            entry.mark_dirty();
        }
    }
    discard_replica(inner, id);
    inner.metrics.inc(Stat::promotions);
    aware_obs::logline!(
        aware_obs::log::Level::Info,
        "replica_promoted",
        session = id,
        epoch = epoch,
        wealth = wealth,
    );
    Response::ReplicaPromoted {
        session: id,
        epoch,
        wealth,
    }
}

fn drop_replica(inner: &Inner, id: SessionId) -> Response {
    discard_replica(inner, id);
    Response::ReplicaDropped { session: id }
}

/// The non-destructive half of `export_session`: snapshot the session
/// (quiesced under its stripe) and return the image, leaving the
/// session serving. The router's replication cadence lives on this.
fn snapshot_session(inner: &Inner, id: SessionId) -> Response {
    let entry = match lookup_or_restore(inner, id) {
        Ok(entry) => entry,
        Err(refusal) => return refusal,
    };
    let image = {
        let session = entry.session.lock().unwrap();
        image_of(&entry, &session)
    };
    let bytes = crate::snapshot::encode(&image);
    // Decode-validate our own bytes: shipping an image the replica must
    // refuse would waste the round trip and mask encoder bugs.
    if let Err(e) = crate::snapshot::decode(&bytes) {
        return Response::Error(ServeError {
            code: ErrorCode::CorruptSnapshot,
            message: format!("session {id} produced an unreadable snapshot image: {e}"),
        });
    }
    Response::SessionExported {
        session: id,
        image: bytes,
    }
}

/// Everything this shard knows about: live and persisted primaries,
/// plus held replica images with their epochs. Sorted by id for
/// deterministic replies.
fn list_sessions(inner: &Inner) -> Response {
    let mut seen = std::collections::HashSet::new();
    let mut sessions: Vec<crate::proto::SessionEntry> = Vec::new();
    for entry in inner.registry.entries() {
        if seen.insert(entry.id) {
            sessions.push(crate::proto::SessionEntry {
                session: entry.id,
                replica: false,
                epoch: 0,
            });
        }
    }
    if let Some(store) = &inner.store {
        for id in store.session_ids() {
            if seen.insert(id) {
                sessions.push(crate::proto::SessionEntry {
                    session: id,
                    replica: false,
                    epoch: 0,
                });
            }
        }
    }
    for (&id, held) in inner.replicas.lock().unwrap().iter() {
        sessions.push(crate::proto::SessionEntry {
            session: id,
            replica: true,
            epoch: held.epoch,
        });
    }
    sessions.sort_by_key(|s| (s.session, s.replica));
    Response::Sessions { sessions }
}

/// Merges a membership view: a higher ring generation replaces the
/// held one (SWIM-style last-writer-wins on the generation), and the
/// reply always carries the merged view so the sender learns what this
/// shard knows.
fn gossip(
    inner: &Inner,
    from: String,
    generation: u64,
    members: Vec<crate::proto::MemberInfo>,
) -> Response {
    let mut view = inner.gossip.lock().unwrap();
    if generation > view.0 {
        aware_obs::logline!(
            aware_obs::log::Level::Debug,
            "gossip_adopted",
            from = from,
            generation = generation,
            members = members.len(),
        );
        *view = (generation, members);
    }
    Response::GossipView {
        generation: view.0,
        members: view.1.clone(),
    }
}

// Compile-time proof that sessions may cross threads: the whole serving
// design rests on it.
const _: () = {
    const fn assert_send<T: Send>() {}
    assert_send::<crate::registry::ServedSession>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::FilterSpec;
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::CmpOp;
    use aware_data::value::Value;
    use std::sync::mpsc;

    fn test_service(config: ServiceConfig) -> Service {
        let service = Service::start(config);
        service
            .handle()
            .register_table("census", CensusGenerator::new(7).generate(4_000));
        service
    }

    fn fixed_policy() -> PolicySpec {
        PolicySpec::Fixed { gamma: 10.0 }
    }

    fn create(h: &ServiceHandle) -> SessionId {
        match h.call(Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: fixed_policy(),
        }) {
            Response::SessionCreated {
                session, wealth, ..
            } => {
                assert!((wealth - 0.0475).abs() < 1e-12);
                session
            }
            other => panic!("create failed: {other:?}"),
        }
    }

    fn salary_filter() -> FilterSpec {
        FilterSpec::Cmp {
            column: "salary_over_50k".into(),
            op: CmpOp::Eq,
            value: Value::Bool(true),
        }
    }

    #[test]
    fn full_session_lifecycle_through_the_handle() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = create(&h);

        // Descriptive view: no hypothesis.
        let r = h.call(Command::AddVisualization {
            session: sid,
            attribute: "sex".into(),
            filter: FilterSpec::True,
        });
        match r {
            Response::VizAdded {
                viz, hypothesis, ..
            } => {
                assert_eq!(viz, 0);
                assert!(hypothesis.is_none());
            }
            other => panic!("{other:?}"),
        }

        // Filtered view on a planted dependency: discovery.
        let r = h.call(Command::AddVisualization {
            session: sid,
            attribute: "education".into(),
            filter: salary_filter(),
        });
        match r {
            Response::VizAdded {
                hypothesis: Some(hyp),
                wealth,
                ..
            } => {
                assert!(hyp.rejected, "planted dependency: p = {}", hyp.p_value);
                assert!(wealth > 0.0475, "payout grows wealth");
            }
            other => panic!("{other:?}"),
        }

        // Gauge and transcripts render.
        match h.call(Command::Gauge { session: sid }) {
            Response::GaugeText { text, .. } => assert!(text.contains("AWARE risk gauge")),
            other => panic!("{other:?}"),
        }
        match h.call(Command::Transcript {
            session: sid,
            format: TranscriptFormat::Csv,
        }) {
            Response::TranscriptText { text, .. } => {
                assert!(text.starts_with(transcript::TRANSCRIPT_HEADER));
            }
            other => panic!("{other:?}"),
        }

        // Policy swap keeps the session but renames the policy.
        match h.call(Command::SetPolicy {
            session: sid,
            policy: PolicySpec::Hopeful { delta: 5.0 },
        }) {
            Response::PolicySet { policy, .. } => assert!(policy.contains("hopeful")),
            other => panic!("{other:?}"),
        }

        // Close reports totals; a second close is unknown.
        match h.call(Command::CloseSession { session: sid }) {
            Response::SessionClosed {
                hypotheses,
                discoveries,
                ..
            } => {
                assert_eq!(hypotheses, 1);
                assert_eq!(discoveries, 1);
            }
            other => panic!("{other:?}"),
        }
        match h.call(Command::CloseSession { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }

        // Metrics saw it all.
        match h.call(Command::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.sessions_created, 1);
                assert_eq!(s.sessions_closed, 1);
                assert_eq!(s.sessions_live, 0);
                assert_eq!(s.hypotheses_tested, 1);
                assert_eq!(s.discoveries, 1);
                assert!(s.commands >= 8);
                assert_eq!(s.errors, 1, "the double-close");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn batches_mix_sessions_and_preserve_submission_order() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        // Two creates in one batch: both pre-assigned, distinct ids.
        let make = Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: fixed_policy(),
        };
        let created = h.call_batch(vec![make.clone(), make]);
        let sids: Vec<SessionId> = created
            .iter()
            .map(|r| match r {
                Response::SessionCreated { session, .. } => *session,
                other => panic!("{other:?}"),
            })
            .collect();
        assert_ne!(sids[0], sids[1]);

        // A mixed batch: per-session streams interleaved, plus an
        // inline stats item in the middle.
        let batch = vec![
            Command::AddVisualization {
                session: sids[0],
                attribute: "education".into(),
                filter: salary_filter(),
            },
            Command::Gauge { session: sids[1] },
            Command::Stats,
            Command::Gauge { session: sids[0] },
            Command::AddVisualization {
                session: sids[1],
                attribute: "race".into(),
                filter: FilterSpec::True,
            },
        ];
        let responses = h.call_batch(batch);
        assert_eq!(responses.len(), 5);
        // Responses come back in submission order, each for the session
        // that its command addressed.
        match &responses[0] {
            Response::VizAdded { session, .. } => assert_eq!(*session, sids[0]),
            other => panic!("{other:?}"),
        }
        match &responses[1] {
            Response::GaugeText { session, .. } => assert_eq!(*session, sids[1]),
            other => panic!("{other:?}"),
        }
        assert!(matches!(&responses[2], Response::Stats(_)));
        match &responses[3] {
            Response::GaugeText { session, .. } => assert_eq!(*session, sids[0]),
            other => panic!("{other:?}"),
        }
        match &responses[4] {
            Response::VizAdded { session, .. } => assert_eq!(*session, sids[1]),
            other => panic!("{other:?}"),
        }
        match h.call(Command::Stats) {
            Response::Stats(s) => {
                assert!(s.batches >= 2);
                assert!(s.batch_commands >= 7);
                assert!(s.batch_size_hist[1] >= 2, "{:?}", s.batch_size_hist);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn fail_fast_aborts_only_the_failing_session_stream() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let healthy = create(&h);
        let failing = create(&h);
        let responses = h.call_batch_mode(
            vec![
                Command::Gauge { session: failing },
                Command::AddVisualization {
                    session: failing,
                    attribute: "no_such_column".into(),
                    filter: FilterSpec::True,
                },
                Command::Gauge { session: failing },
                Command::Gauge { session: healthy },
            ],
            BatchMode::FailFast,
        );
        assert!(responses[0].is_ok(), "{:?}", responses[0]);
        match &responses[1] {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::SessionError),
            other => panic!("{other:?}"),
        }
        // The rest of the failing stream is skipped…
        match &responses[2] {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Aborted),
            other => panic!("{other:?}"),
        }
        // …but the healthy session's stream is untouched.
        assert!(responses[3].is_ok(), "{:?}", responses[3]);
        // The aborted session itself survives (nothing was applied).
        assert!(h.call(Command::Gauge { session: failing }).is_ok());
        // Same shape in continue mode: the post-error gauge executes.
        let responses = h.call_batch(vec![
            Command::AddVisualization {
                session: failing,
                attribute: "no_such_column".into(),
                filter: FilterSpec::True,
            },
            Command::Gauge { session: failing },
        ]);
        assert!(matches!(&responses[0], Response::Error(_)));
        assert!(responses[1].is_ok(), "{:?}", responses[1]);
    }

    #[test]
    fn a_unit_answers_its_submitter_with_one_message() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let a = create(&h);
        let code = |r: &Response| match r {
            Response::Error(e) => Some(e.code),
            _ => None,
        };

        // One fail_fast unit, run directly by the executor: however it
        // ends, it answers every item (`aborted` for the tail) in the
        // slot of the index it was submitted with, and no other slot.
        // Reassembly by that index is what
        // `batches_mix_sessions_and_preserve_submission_order` and
        // `fail_fast_aborts_only_the_failing_session_stream` check.
        let items = [
            (5, Command::Gauge { session: a }),
            (
                2,
                Command::AddVisualization {
                    session: a,
                    attribute: "no_such_column".into(),
                    filter: FilterSpec::True,
                },
            ),
            (9, Command::Gauge { session: a }),
            (0, Command::Gauge { session: a }),
        ];
        let mut slots: Vec<Option<Response>> = vec![None; 10];
        execute_unit(
            &h.inner,
            items
                .into_iter()
                .map(|(index, cmd)| UnitItem {
                    index,
                    cmd,
                    assigned: None,
                })
                .collect(),
            BatchMode::FailFast,
            0,
            0,
            &mut slots,
        );
        let answered: Vec<(usize, Option<ErrorCode>)> = slots
            .iter()
            .enumerate()
            .filter_map(|(i, slot)| slot.as_ref().map(|r| (i, code(r))))
            .collect();
        assert_eq!(
            answered,
            [
                (0, Some(ErrorCode::Aborted)),
                (2, Some(ErrorCode::SessionError)),
                (5, None),
                (9, Some(ErrorCode::Aborted)),
            ]
        );
    }

    #[test]
    fn a_held_route_stripe_holds_back_that_routes_call() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = create(&h);
        let before = queue_wait(&h);
        // The stripe is busy, so the caller waits for it.
        let stripe = h.inner.stripe(sid).lock().unwrap();
        let (done_tx, done_rx) = mpsc::channel();
        let caller = h.clone();
        let join = std::thread::spawn(move || {
            done_tx
                .send(caller.call(Command::Gauge { session: sid }))
                .unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "a command ran while its route's stripe was held"
        );
        drop(stripe);
        let response = done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        assert!(matches!(response, Response::GaugeText { session, .. } if session == sid));
        join.join().unwrap();
        // The wait for the stripe is the unit's queue wait: one sample
        // covering the 50 ms hold.
        let after = queue_wait(&h);
        assert_eq!(after.count() - before.count(), 1);
        assert!(
            after.sum - before.sum >= 40_000,
            "queue wait {} µs does not cover the hold",
            after.sum - before.sum
        );
    }

    fn queue_wait(h: &ServiceHandle) -> aware_obs::hist::HistogramSnapshot {
        h.inner.metrics.stages()[Stage::QueueWait as usize]
            .1
            .clone()
    }

    #[test]
    fn an_idle_route_call_runs_inline_with_zero_queue_wait() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = create(&h);
        let before = queue_wait(&h);
        for _ in 0..20 {
            assert!(h.call(Command::Gauge { session: sid }).is_ok());
        }
        let after = queue_wait(&h);
        // Twenty hand-offs to another thread would each wait
        // microseconds; twenty inline executions record exactly 0 µs
        // apiece.
        assert_eq!(after.count() - before.count(), 20);
        assert_eq!(
            after.sum, before.sum,
            "an idle-route call waited in a queue"
        );
        // An uncontended 8-session batch: eight units, each run inline
        // on a free stripe, eight 0 µs samples.
        let sessions: Vec<SessionId> = (0..8).map(|_| create(&h)).collect();
        let before = queue_wait(&h);
        let replies = h.call_batch(
            sessions
                .iter()
                .map(|&session| Command::Gauge { session })
                .collect(),
        );
        assert!(replies.iter().all(Response::is_ok));
        let after = queue_wait(&h);
        assert_eq!(after.count() - before.count(), 8);
        assert_eq!(
            after.sum, before.sum,
            "an uncontended batch unit waited in a queue"
        );
    }

    #[test]
    fn a_session_waits_for_its_stripe_behind_a_full_batch_instead_of_overloading() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = create(&h);
        let stripe = h.inner.stripe(sid).lock().unwrap();
        // A protocol-maximum same-session batch waits for the stripe…
        let batcher = h.clone();
        let batch = std::thread::spawn(move || {
            batcher.call_batch(vec![
                Command::Gauge { session: sid };
                crate::proto::MAX_BATCH_ITEMS
            ])
        });
        let deadline = Instant::now() + Duration::from_secs(10);
        while h.inner.in_flight.load(Ordering::SeqCst) != 1 {
            assert!(
                Instant::now() < deadline,
                "the batch never reached its stripe"
            );
            std::thread::yield_now();
        }
        // …and one more command of that session waits behind it rather
        // than being refused: it is admitted (a second unit in flight)
        // before the stripe is released.
        let caller = h.clone();
        let single = std::thread::spawn(move || caller.call(Command::Gauge { session: sid }));
        while h.inner.in_flight.load(Ordering::SeqCst) != 2 && !single.is_finished() {
            assert!(
                Instant::now() < deadline,
                "the command never reached its stripe"
            );
            std::thread::yield_now();
        }
        drop(stripe);
        let replies = batch.join().unwrap();
        assert_eq!(replies.len(), crate::proto::MAX_BATCH_ITEMS);
        for reply in replies.iter().chain([&single.join().unwrap()]) {
            assert!(
                matches!(reply, Response::GaugeText { session, .. } if *session == sid),
                "{reply:?}"
            );
        }
    }

    #[test]
    fn a_call_is_a_one_item_batch() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = create(&h);
        let counters = |h: &ServiceHandle| match h.call(Command::Stats) {
            Response::Stats(s) => (s.commands, s.batch_size_hist),
            other => panic!("{other:?}"),
        };
        for cmd in [
            Command::Gauge { session: sid },
            Command::Gauge { session: sid + 1 },
            Command::ListDatasets,
        ] {
            let (commands_0, hist_0) = counters(&h);
            let single = h.call(cmd.clone());
            let (commands_1, hist_1) = counters(&h);
            let batch = h.call_batch(vec![cmd]);
            let (commands_2, hist_2) = counters(&h);
            assert_eq!(batch, vec![single]);
            // Each `counters` read is itself one command in one batch.
            assert_eq!(commands_1 - commands_0, commands_2 - commands_1);
            let delta = |a: [u64; 5], b: [u64; 5]| -> Vec<u64> {
                a.iter().zip(b).map(|(a, b)| b - a).collect()
            };
            assert_eq!(delta(hist_0, hist_1), delta(hist_1, hist_2));
        }
    }

    #[test]
    fn unknown_dataset_and_session_are_clean_errors() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        match h.call(Command::CreateSession {
            dataset: "nope".into(),
            alpha: 0.05,
            policy: fixed_policy(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownDataset),
            other => panic!("{other:?}"),
        }
        match h.call(Command::Gauge { session: 123 }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
        // Bad alpha surfaces as invalid_argument.
        match h.call(Command::CreateSession {
            dataset: "census".into(),
            alpha: 2.0,
            policy: fixed_policy(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::InvalidArgument),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn wealth_exhaustion_maps_to_budget_rejection() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = match h.call(Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 1.0 }, // one acceptance drains it
        }) {
            Response::SessionCreated { session, .. } => session,
            other => panic!("{other:?}"),
        };
        let mut saw_exhaustion = false;
        for wave in ["Wave-1", "Wave-2", "Wave-3", "Wave-4", "Wave-1"] {
            let r = h.call(Command::AddVisualization {
                session: sid,
                attribute: "race".into(),
                filter: FilterSpec::Cmp {
                    column: "survey_wave".into(),
                    op: CmpOp::Eq,
                    value: Value::Str(wave.into()),
                },
            });
            if let Response::Error(e) = r {
                assert_eq!(e.code, ErrorCode::WealthExhausted);
                saw_exhaustion = true;
                break;
            }
        }
        assert!(saw_exhaustion, "γ=1 on null views must exhaust the budget");
        match h.call(Command::Stats) {
            Response::Stats(s) => assert!(s.rejected_by_budget >= 1),
            other => panic!("{other:?}"),
        }
        // The session survives exhaustion: the gauge still renders.
        assert!(h.call(Command::Gauge { session: sid }).is_ok());
    }

    #[test]
    fn lru_cap_evicts_oldest_session() {
        let service = test_service(ServiceConfig {
            max_sessions: 4,
            ..ServiceConfig::default()
        });
        let h = service.handle();
        let first = create(&h);
        let rest: Vec<SessionId> = (0..3).map(|_| create(&h)).collect();
        assert_eq!(h.live_sessions(), 4);
        // Touch every session except the first so it is clearly LRU.
        for &sid in &rest {
            assert!(h.call(Command::Gauge { session: sid }).is_ok());
        }
        let fifth = create(&h);
        assert_eq!(h.live_sessions(), 4);
        match h.call(Command::Gauge { session: first }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("evicted session should be gone: {other:?}"),
        }
        assert!(h.call(Command::Gauge { session: fifth }).is_ok());
        match h.call(Command::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.sessions_created, 5);
                assert_eq!(s.sessions_evicted, 1);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn idle_sweep_evicts_abandoned_sessions() {
        let service = test_service(ServiceConfig {
            idle_timeout: Duration::from_millis(40),
            ..ServiceConfig::default()
        });
        let h = service.handle();
        let idle = create(&h);
        let busy = create(&h);
        assert_eq!(h.sweep_idle(), 0, "nothing is idle yet");
        std::thread::sleep(Duration::from_millis(60));
        // Keep one session warm across the idle line.
        assert!(h.call(Command::Gauge { session: busy }).is_ok());
        assert_eq!(h.sweep_idle(), 1);
        assert!(matches!(
            h.call(Command::Gauge { session: idle }),
            Response::Error(_)
        ));
        assert!(h.call(Command::Gauge { session: busy }).is_ok());
    }

    fn temp_data_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "aware-service-{tag}-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn gauge_of(h: &ServiceHandle, sid: SessionId) -> String {
        match h.call(Command::Gauge { session: sid }) {
            Response::GaugeText { text, .. } => text,
            other => panic!("{other:?}"),
        }
    }

    fn csv_of(h: &ServiceHandle, sid: SessionId) -> String {
        match h.call(Command::Transcript {
            session: sid,
            format: TranscriptFormat::Csv,
        }) {
            Response::TranscriptText { text, .. } => text,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn lru_eviction_spills_to_disk_and_restores_on_touch() {
        let dir = temp_data_dir("spill");
        let service = test_service(ServiceConfig {
            max_sessions: 2,
            data_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let h = service.handle();
        let first = create(&h);
        assert!(h
            .call(Command::AddVisualization {
                session: first,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        let reference = (gauge_of(&h, first), csv_of(&h, first));
        let _second = create(&h);
        let _third = create(&h); // evicts `first` — to disk, not oblivion
        assert_eq!(h.live_sessions(), 2);
        match h.call(Command::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.sessions_evicted, 1);
                assert!(s.persisted >= 1, "evicted session must be on disk");
            }
            other => panic!("{other:?}"),
        }
        // Touching the evicted session restores it transparently with
        // byte-identical observables (evicting another to make room).
        assert_eq!((gauge_of(&h, first), csv_of(&h, first)), reference);
        // And its wealth keeps evolving from where it left off.
        assert!(h
            .call(Command::AddVisualization {
                session: first,
                attribute: "race".into(),
                filter: FilterSpec::True,
            })
            .is_ok());
        drop(h);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Every memoised reply — warm, after a header-only change, after an
    /// append, and after a spill + restore — equals the from-scratch
    /// renderers on a `Session` replayed independently of the service.
    #[test]
    fn memoised_replies_match_an_independent_replay() {
        let text_of = |h: &ServiceHandle, sid| match h.call(Command::Transcript {
            session: sid,
            format: TranscriptFormat::Text,
        }) {
            Response::TranscriptText { text, .. } => text,
            other => panic!("{other:?}"),
        };
        let dir = temp_data_dir("memo-replay");
        let service = test_service(ServiceConfig {
            max_sessions: 2,
            data_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        });
        let h = service.handle();
        let sid = create(&h);
        let mut oracle = Session::shared(
            Arc::new(CensusGenerator::new(7).generate(4_000)),
            0.05,
            fixed_policy().build().unwrap(),
        )
        .unwrap();
        let add =
            |oracle: &mut crate::registry::ServedSession, attribute: &str, filter: FilterSpec| {
                oracle
                    .add_visualization(attribute, filter.to_predicate())
                    .unwrap();
                assert!(h
                    .call(Command::AddVisualization {
                        session: sid,
                        attribute: attribute.into(),
                        filter,
                    })
                    .is_ok());
            };
        let eq = |column: &str, label: &str| FilterSpec::Cmp {
            column: column.into(),
            op: CmpOp::Eq,
            value: Value::from(label),
        };
        add(&mut oracle, "education", salary_filter());
        add(&mut oracle, "race", eq("sex", "Female"));
        add(&mut oracle, "marital_status", eq("education", "PhD"));

        // First read (from scratch), then the memoised one.
        assert_eq!(gauge_of(&h, sid), gauge::render(&oracle));
        assert_eq!(gauge_of(&h, sid), gauge::render(&oracle));
        // A policy swap moves only the header.
        let swapped = PolicySpec::Fixed { gamma: 11.0 };
        assert!(h
            .call(Command::SetPolicy {
                session: sid,
                policy: swapped.clone(),
            })
            .is_ok());
        oracle.replace_policy(swapped.build().unwrap());
        assert_eq!(gauge_of(&h, sid), gauge::render(&oracle));
        // An append extends the memo by one entry.
        add(&mut oracle, "occupation", eq("race", "White"));
        assert_eq!(gauge_of(&h, sid), gauge::render(&oracle));
        for _ in 0..2 {
            assert_eq!(csv_of(&h, sid), transcript::export_csv(&oracle));
            assert_eq!(text_of(&h, sid), transcript::export_text(&oracle));
        }

        // LRU spill: two younger sessions push `sid` to disk; the next
        // reads restore it (cold memo) and then warm it again.
        let image = image_of_session(&h, sid);
        let _second = create(&h);
        let _third = create(&h);
        assert_eq!(stats_of(&h).sessions_evicted, 1);
        for _ in 0..2 {
            assert_eq!(gauge_of(&h, sid), gauge::render(&oracle));
            assert_eq!(csv_of(&h, sid), transcript::export_csv(&oracle));
        }

        // Shipping the spilled session's image makes a replica, not a
        // live session.
        let replica = test_service(ServiceConfig::default());
        let hr = replica.handle();
        assert!(hr
            .call(Command::ReplicateSession {
                session: sid,
                epoch: 1,
                image,
            })
            .is_ok());
        assert_eq!(hr.live_sessions(), 0);

        drop(h);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn sessions_survive_a_service_restart() {
        let dir = temp_data_dir("restart");
        let config = || ServiceConfig {
            data_dir: Some(dir.clone()),
            snapshot_every: Some(Duration::ZERO), // synchronous durability
            ..ServiceConfig::default()
        };
        let service = test_service(config());
        let h = service.handle();
        let sid = create(&h);
        assert!(h
            .call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        match h.call(Command::SetPolicy {
            session: sid,
            policy: PolicySpec::Hopeful { delta: 5.0 },
        }) {
            Response::PolicySet { .. } => {}
            other => panic!("{other:?}"),
        }
        let reference = (gauge_of(&h, sid), csv_of(&h, sid));
        drop(h);
        service.shutdown();

        // A new service over the same directory: the session is back,
        // byte for byte, and new ids never collide with restored ones.
        let service = test_service(config());
        let h = service.handle();
        assert_eq!((gauge_of(&h, sid), csv_of(&h, sid)), reference);
        let fresh = create(&h);
        assert!(fresh > sid, "id allocation must resume above {sid}");
        // Closing the restored session deletes its snapshot files.
        assert!(h.call(Command::CloseSession { session: sid }).is_ok());
        match h.call(Command::Stats) {
            Response::Stats(s) => assert_eq!(s.persisted, 1, "only `fresh` remains"),
            other => panic!("{other:?}"),
        }
        drop(h);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_snapshots_surface_as_corrupt_snapshot_not_fresh_wealth() {
        let dir = temp_data_dir("corrupt");
        let config = || ServiceConfig {
            data_dir: Some(dir.clone()),
            snapshot_every: Some(Duration::ZERO),
            ..ServiceConfig::default()
        };
        let service = test_service(config());
        let h = service.handle();
        let sid = create(&h);
        assert!(h
            .call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        drop(h);
        service.shutdown();
        // Mangle every on-disk generation of the session.
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            let bytes = std::fs::read(&path).unwrap();
            std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        }
        let service = test_service(config());
        let h = service.handle();
        match h.call(Command::Gauge { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot),
            other => panic!("corrupt ledger must never answer with state: {other:?}"),
        }
        // close_session refuses too (and keeps the evidence on disk).
        match h.call(Command::CloseSession { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot),
            other => panic!("{other:?}"),
        }
        assert!(std::fs::read_dir(&dir).unwrap().next().is_some());
        drop(h);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Cuts a snapshot image of `sid` off the primary without
    /// disturbing it — the router's replication primitive.
    fn image_of_session(h: &ServiceHandle, sid: SessionId) -> Vec<u8> {
        match h.call(Command::SnapshotSession { session: sid }) {
            Response::SessionExported { image, .. } => image,
            other => panic!("{other:?}"),
        }
    }

    fn stats_of(h: &ServiceHandle) -> crate::proto::StatsSnapshot {
        match h.call(Command::Stats) {
            Response::Stats(s) => *s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replicate_then_promote_restores_the_exact_ledger() {
        let primary = test_service(ServiceConfig::default());
        let replica = test_service(ServiceConfig::default());
        let hp = primary.handle();
        let hr = replica.handle();
        let sid = create(&hp);
        assert!(hp
            .call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        let reference = (gauge_of(&hp, sid), csv_of(&hp, sid));

        // `snapshot_session` is non-destructive: the primary keeps serving.
        let image = image_of_session(&hp, sid);
        assert!(hp.call(Command::Gauge { session: sid }).is_ok());

        match hr.call(Command::ReplicateSession {
            session: sid,
            epoch: 1,
            image: image.clone(),
        }) {
            Response::SessionReplicated { session, epoch } => {
                assert_eq!((session, epoch), (sid, 1));
            }
            other => panic!("{other:?}"),
        }
        assert_eq!(stats_of(&hr).replicas_live, 1);

        // A held replica never becomes a live session.
        assert_eq!(hr.live_sessions(), 0);

        // Epochs are monotone: a stale ship is refused, the current one
        // is an idempotent ack.
        match hr.call(Command::ReplicateSession {
            session: sid,
            epoch: 0,
            image: image.clone(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::InvalidArgument),
            other => panic!("{other:?}"),
        }
        match hr.call(Command::ReplicateSession {
            session: sid,
            epoch: 1,
            image,
        }) {
            Response::SessionReplicated { epoch: 1, .. } => {}
            other => panic!("{other:?}"),
        }

        // The shard inventory names the replica with its epoch.
        match hr.call(Command::ListSessions) {
            Response::Sessions { sessions } => {
                assert_eq!(
                    sessions,
                    vec![crate::proto::SessionEntry {
                        session: sid,
                        replica: true,
                        epoch: 1,
                    }]
                );
            }
            other => panic!("{other:?}"),
        }

        // Promotion installs the exact acked ledger and retires the
        // replica image.
        match hr.call(Command::PromoteReplica { session: sid }) {
            Response::ReplicaPromoted {
                session,
                epoch,
                wealth,
            } => {
                assert_eq!((session, epoch), (sid, 1));
                assert!(wealth > 0.0, "promoted ledger carries real wealth");
            }
            other => panic!("{other:?}"),
        }
        assert_eq!((gauge_of(&hr, sid), csv_of(&hr, sid)), reference);
        let s = stats_of(&hr);
        assert_eq!(s.replicas_live, 0);
        assert_eq!(s.promotions, 1);
        assert_eq!(hr.live_sessions(), 1);
        // The promoted session is live: wealth keeps evolving from the
        // acked state, and a fresh local id never collides with it.
        assert!(hr
            .call(Command::AddVisualization {
                session: sid,
                attribute: "race".into(),
                filter: FilterSpec::True,
            })
            .is_ok());
        assert!(create(&hr) > sid);
        // A second promotion has nothing to promote.
        match hr.call(Command::PromoteReplica { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replication_refuses_corrupt_images_and_self_replication() {
        let primary = test_service(ServiceConfig::default());
        let hp = primary.handle();
        let sid = create(&hp);
        let image = image_of_session(&hp, sid);

        // A shard never replicates a session it is primary for.
        match hp.call(Command::ReplicateSession {
            session: sid,
            epoch: 1,
            image: image.clone(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::InvalidArgument),
            other => panic!("{other:?}"),
        }

        let replica = test_service(ServiceConfig::default());
        let hr = replica.handle();
        // A truncated image fails the restore validator at apply time:
        // nothing is stored, so there is nothing to promote.
        match hr.call(Command::ReplicateSession {
            session: sid,
            epoch: 1,
            image: image[..image.len() / 2].to_vec(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot),
            other => panic!("{other:?}"),
        }
        assert_eq!(stats_of(&hr).replicas_live, 0);
        match hr.call(Command::PromoteReplica { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
        // An image whose payload names a different session is refused
        // even though the bytes themselves decode.
        match hr.call(Command::ReplicateSession {
            session: sid + 1,
            epoch: 1,
            image,
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn tampered_replica_file_is_refused_at_promotion_never_adopted() {
        let dir = temp_data_dir("replica-tamper");
        let primary = test_service(ServiceConfig::default());
        let hp = primary.handle();
        let sid = create(&hp);
        assert!(hp
            .call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        let image = image_of_session(&hp, sid);

        let config = || ServiceConfig {
            data_dir: Some(dir.clone()),
            ..ServiceConfig::default()
        };
        let replica = test_service(config());
        let hr = replica.handle();
        match hr.call(Command::ReplicateSession {
            session: sid,
            epoch: 3,
            image,
        }) {
            Response::SessionReplicated { epoch: 3, .. } => {}
            other => panic!("{other:?}"),
        }
        drop(hr);
        replica.shutdown();

        // Flip bytes in the durable replica image.
        let mut tampered = 0;
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path
                .file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("repl-"))
            {
                let mut bytes = std::fs::read(&path).unwrap();
                let mid = bytes.len() / 2;
                bytes[mid] ^= 0xff;
                std::fs::write(&path, &bytes).unwrap();
                tampered += 1;
            }
        }
        assert_eq!(tampered, 1, "exactly one replica image on disk");

        // A restart re-seeds the replica index from disk; promotion
        // re-validates the bytes, refuses them, and discards the
        // replica — the answer is corrupt_snapshot, never a ledger.
        let replica = test_service(config());
        let hr = replica.handle();
        assert_eq!(stats_of(&hr).replicas_live, 1);
        match hr.call(Command::PromoteReplica { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::CorruptSnapshot),
            other => panic!("tampered ledger must never serve: {other:?}"),
        }
        let s = stats_of(&hr);
        assert_eq!((s.replicas_live, s.promotions), (0, 0));
        match hr.call(Command::PromoteReplica { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("{other:?}"),
        }
        drop(hr);
        replica.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn gossip_merges_by_generation_and_echoes_the_merged_view() {
        use crate::proto::{MemberInfo, MemberStatus};
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let members = vec![
            MemberInfo {
                addr: "a:1".into(),
                status: MemberStatus::Alive,
                incarnation: 1,
            },
            MemberInfo {
                addr: "b:2".into(),
                status: MemberStatus::Suspect,
                incarnation: 4,
            },
        ];
        match h.call(Command::Gossip {
            from: "router".into(),
            generation: 7,
            members: members.clone(),
        }) {
            Response::GossipView {
                generation,
                members: got,
            } => {
                assert_eq!(generation, 7);
                assert_eq!(got, members);
            }
            other => panic!("{other:?}"),
        }
        // An older view does not regress the held one.
        match h.call(Command::Gossip {
            from: "router".into(),
            generation: 3,
            members: Vec::new(),
        }) {
            Response::GossipView {
                generation,
                members: got,
            } => {
                assert_eq!(generation, 7);
                assert_eq!(got.len(), 2);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn preassigned_creation_honours_the_id_and_refuses_collisions() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        match h.call(Command::CreateSessionAs {
            session: 1_000,
            dataset: "census".into(),
            alpha: 0.05,
            policy: fixed_policy(),
        }) {
            Response::SessionCreated { session, .. } => assert_eq!(session, 1_000),
            other => panic!("{other:?}"),
        }
        // The same id again is a refusal, not a silent second session.
        match h.call(Command::CreateSessionAs {
            session: 1_000,
            dataset: "census".into(),
            alpha: 0.05,
            policy: fixed_policy(),
        }) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::InvalidArgument);
                assert!(e.message.contains("already in use"), "{e}");
            }
            other => panic!("{other:?}"),
        }
        // The local allocator was bumped past the preassigned id.
        let fresh = create(&h);
        assert!(fresh > 1_000, "local allocation must resume above: {fresh}");
    }

    #[test]
    fn export_import_moves_a_session_between_services_byte_identically() {
        let source = test_service(ServiceConfig::default());
        let hs = source.handle();
        let sid = create(&hs);
        assert!(hs
            .call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        let reference = (gauge_of(&hs, sid), csv_of(&hs, sid));

        let image = match hs.call(Command::ExportSession { session: sid }) {
            Response::SessionExported { session, image } => {
                assert_eq!(session, sid);
                image
            }
            other => panic!("{other:?}"),
        };
        // Export removed the session: it is gone here, wealth and all.
        match hs.call(Command::Gauge { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
            other => panic!("exported session must be gone: {other:?}"),
        }

        // Same dataset content (same generator seed) on the target: the
        // fingerprint check passes and the session continues exactly.
        let target = test_service(ServiceConfig::default());
        let ht = target.handle();
        match ht.call(Command::ImportSession {
            session: sid,
            image: image.clone(),
        }) {
            Response::SessionImported { session, .. } => assert_eq!(session, sid),
            other => panic!("{other:?}"),
        }
        assert_eq!((gauge_of(&ht, sid), csv_of(&ht, sid)), reference);
        // Imported ids are reserved on the target's allocator.
        let fresh = create(&ht);
        assert!(fresh > sid);
        // A second import of the same id is refused.
        match ht.call(Command::ImportSession {
            session: sid,
            image: image.clone(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::InvalidArgument),
            other => panic!("{other:?}"),
        }

        // A shard holding *different* census data under the same name
        // refuses the image as corrupt — never replays the ledger.
        let other = Service::start(ServiceConfig::default());
        other
            .handle()
            .register_table("census", CensusGenerator::new(999).generate(4_000));
        match other.handle().call(Command::ImportSession {
            session: sid,
            image,
        }) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::CorruptSnapshot);
                assert!(e.message.contains("fingerprint"), "{e}");
            }
            other => panic!("mismatched table must refuse the import: {other:?}"),
        }
    }

    #[test]
    fn import_refuses_dangling_references_as_corrupt_snapshot() {
        use aware_core::hypothesis::{HypothesisId, HypothesisStatus};
        use aware_core::viz::VizId;
        let source = test_service(ServiceConfig::default());
        let hs = source.handle();
        let sid = create(&hs);
        assert!(hs
            .call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        let image = match hs.call(Command::ExportSession { session: sid }) {
            Response::SessionExported { image, .. } => image,
            other => panic!("{other:?}"),
        };
        let genuine = crate::snapshot::decode(&image).unwrap();
        // Checksummed, well-formed images whose transcript would print
        // `viz#99` or `superseded-by-H99` for objects that never existed.
        let mut ghost_viz = genuine.clone();
        ghost_viz.session.hypotheses[0].source = Some(VizId(99));
        let mut ghost_successor = genuine;
        ghost_successor.session.hypotheses[0].status = HypothesisStatus::Superseded {
            by: HypothesisId(99),
        };
        let target = test_service(ServiceConfig::default());
        let ht = target.handle();
        for forged in [ghost_viz, ghost_successor] {
            match ht.call(Command::ImportSession {
                session: sid,
                image: crate::snapshot::encode(&forged),
            }) {
                Response::Error(e) => {
                    assert_eq!(e.code, ErrorCode::CorruptSnapshot, "{e}");
                    assert!(e.message.contains("failed restore validation"), "{e}");
                }
                other => panic!("a dangling reference must refuse the import: {other:?}"),
            }
            match ht.call(Command::Gauge { session: sid }) {
                Response::Error(e) => assert_eq!(e.code, ErrorCode::UnknownSession),
                other => panic!("a refused import installed a session: {other:?}"),
            }
        }
        match ht.call(Command::ImportSession {
            session: sid,
            image,
        }) {
            Response::SessionImported { session, .. } => assert_eq!(session, sid),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn restore_refuses_a_fingerprint_mismatched_snapshot() {
        let dir = temp_data_dir("fp-mismatch");
        let config = |rows: usize, seed: u64| {
            let service = Service::start(ServiceConfig {
                data_dir: Some(dir.clone()),
                snapshot_every: Some(Duration::ZERO),
                ..ServiceConfig::default()
            });
            service
                .handle()
                .register_table("census", CensusGenerator::new(seed).generate(rows));
            service
        };
        let service = config(4_000, 7);
        let h = service.handle();
        let sid = create(&h);
        assert!(h
            .call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
            .is_ok());
        drop(h);
        service.shutdown();

        // Restart over the same directory but with *different* data
        // registered under the same dataset name: lazy restore must
        // answer corrupt_snapshot, never serve the ledger over the
        // wrong table.
        let service = config(4_000, 8);
        let h = service.handle();
        match h.call(Command::Gauge { session: sid }) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::CorruptSnapshot);
                assert!(e.message.contains("fingerprint"), "{e}");
            }
            other => panic!("{other:?}"),
        }
        drop(h);
        service.shutdown();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn list_datasets_reports_roster_and_allocator() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let _ = create(&h);
        match h.call(Command::ListDatasets) {
            Response::Datasets {
                datasets,
                next_session,
            } => {
                assert_eq!(datasets.len(), 1);
                assert_eq!(datasets[0].name, "census");
                assert_eq!(datasets[0].rows, 4_000);
                assert_eq!(
                    datasets[0].fingerprint,
                    CensusGenerator::new(7).generate(4_000).fingerprint(),
                    "roster fingerprint must be the registered table's"
                );
                assert!(next_session >= 1);
            }
            other => panic!("{other:?}"),
        }
        // A shard is not a router: rebalance admin commands bounce.
        match h.call(Command::JoinShard {
            addr: "127.0.0.1:1".into(),
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::InvalidArgument),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shutdown_answers_late_callers_with_shutdown_error() {
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = create(&h);
        service.shutdown();
        match h.call(Command::Gauge { session: sid }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Shutdown),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn shutdown_flushes_only_after_inline_callers_finish() {
        // The admitted caller parks mid-command on the session mutex,
        // then (second input) before executing, on its route's stripe.
        for park_on_stripe in [false, true] {
            shutdown_waits_for_a_parked_caller(park_on_stripe);
        }
    }

    fn shutdown_waits_for_a_parked_caller(park_on_stripe: bool) {
        let dir = temp_data_dir(if park_on_stripe {
            "stripe-drain"
        } else {
            "inline-drain"
        });
        let config = || ServiceConfig {
            data_dir: Some(dir.clone()),
            snapshot_every: Some(Duration::from_secs(3_600)),
            ..ServiceConfig::default()
        };
        let service = test_service(config());
        let h = service.handle();
        let sid = create(&h);
        // On disk and clean: a flush that ran early would skip it.
        flush_dirty(&h.inner);
        let entry = h.inner.registry.peek(sid).unwrap();
        let held_session = (!park_on_stripe).then(|| entry.session.lock().unwrap());
        let held_stripe = park_on_stripe.then(|| h.inner.stripe(sid).lock().unwrap());
        let caller = h.clone();
        let caller = std::thread::spawn(move || {
            caller.call(Command::AddVisualization {
                session: sid,
                attribute: "education".into(),
                filter: salary_filter(),
            })
        });
        // Admitted (counted in flight), then parked on the held lock. A
        // caller that parked on the stripe before being counted would
        // never show here: past the deadline the test goes on, and the
        // shutdown assertions below catch it.
        let deadline = Instant::now() + Duration::from_secs(1);
        while h.inner.in_flight.load(Ordering::SeqCst) == 0 && Instant::now() < deadline {
            std::thread::yield_now();
        }
        let (done_tx, done_rx) = mpsc::channel();
        let stopper = std::thread::spawn(move || {
            service.shutdown();
            done_tx.send(()).unwrap();
        });
        assert!(
            done_rx.recv_timeout(Duration::from_millis(50)).is_err(),
            "shutdown finished while an admitted caller was parked (on the stripe: \
             {park_on_stripe})"
        );
        drop(held_session);
        drop(held_stripe);
        assert!(matches!(
            caller.join().unwrap(),
            Response::VizAdded {
                hypothesis: Some(_),
                ..
            }
        ));
        done_rx.recv_timeout(Duration::from_secs(10)).unwrap();
        stopper.join().unwrap();
        // The acked decision reached the shutdown flush.
        let service = test_service(config());
        assert_eq!(csv_of(&service.handle(), sid).lines().count(), 2);
        drop(service);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_65_item_same_session_batch_answers_complete_and_in_order() {
        // One session, one unit of 65 commands, run whole on the
        // calling thread: every response comes back, in submission order.
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let sid = create(&h);
        let n = 65;
        let cmds: Vec<Command> = (0..n).map(|_| Command::Gauge { session: sid }).collect();
        let responses = h.call_batch(cmds);
        assert_eq!(responses.len(), n);
        for r in &responses {
            assert!(
                matches!(r, Response::GaugeText { session, .. } if *session == sid),
                "{r:?}"
            );
        }
    }

    #[test]
    fn two_concurrent_session_streams_both_finish() {
        // Two session streams submitting from two threads: both finish,
        // and every gauge answers for its own session.
        let service = test_service(ServiceConfig::default());
        let h = service.handle();
        let a = create(&h);
        let b = create(&h);
        let mut joins = Vec::new();
        for sid in [a, b] {
            let h = h.clone();
            joins.push(std::thread::spawn(move || {
                for _ in 0..20 {
                    match h.call(Command::Gauge { session: sid }) {
                        Response::GaugeText { session, .. } => assert_eq!(session, sid),
                        other => panic!("{other:?}"),
                    }
                }
            }));
        }
        for j in joins {
            j.join().unwrap();
        }
    }
}
