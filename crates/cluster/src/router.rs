//! The router: one process that speaks the full v1/v2 wire protocol to
//! clients and fans commands out to N backend `aware-serve` shards.
//!
//! ## Placement
//!
//! Session ids map to shards through the consistent-hash [`Ring`]
//! (plus a small `overrides` table that exists only around
//! rebalances). The router owns cluster-wide id allocation: a
//! `create_session` allocates the id *here*, routes it through the
//! ring, and forwards a `create_session_as` to the owning shard — so a
//! session's placement is decided before any shard has seen it, and
//! every later command for that id deterministically finds it. At
//! `join_shard` time the router seats its allocator above every id the
//! shard has ever handed out (the `list_datasets` roster carries the
//! shard's allocator floor).
//!
//! ## Ordering
//!
//! The α-investing contract is per-session and sequential, and it must
//! hold *across the hop*: two commands for one session, even from two
//! different router connections, must reach the shard in a single
//! total order. The router serializes per session with striped locks:
//! a single command and a batch are one forwarding path (`route`),
//! which takes every stripe its run touches in sorted order (no
//! deadlocks) and holds them for the whole shard round trip, and
//! migrations take the same stripe before moving a session. Commands
//! for different sessions proceed in parallel on pooled connections.
//!
//! ## Rebalancing
//!
//! `join_shard`/`leave_shard` compute the remapped slice of the ring
//! (ring monotonicity keeps it to ≈ live/n sessions) and migrate
//! exactly those sessions: under the session's stripe lock, an
//! `export_session` quiesces and removes it from its old shard and an
//! `import_session` restores it — full snapshot validation, dataset
//! fingerprint check; selections are derived lazily through the
//! target's `EvalCache` by the first test that needs them — on the new
//! one. Each migrated session gets a
//! placement override the moment it moves; the ring itself flips only
//! after *every* remapped session has moved, so there is no window in
//! which a client can observe a session on neither shard. A failed
//! migration leaves the old ring (and the already-moved overrides) in
//! place and reports the rebalance incomplete — re-issuing the command
//! retries only the sessions that still need to move.
//!
//! ## Failure semantics
//!
//! A dead shard answers [`ErrorCode::Unavailable`] — deliberately not
//! `unknown_session`: the session and its wealth ledger still exist on
//! the unreachable shard, and handing the client a fresh budget
//! instead is exactly the ledger reset the whole system exists to
//! prevent (Hardt & Ullman's adaptive attack needs nothing more).
//!
//! ## Replication & failover (`aware-replica`)
//!
//! With [`RouterConfig::replicas`] > 0 a dead shard stops being a
//! dead end. Each session's ring position names a primary plus R warm
//! replicas (the ring's successor walk, [`Ring::successors`]); the
//! replication round ([`RouterHandle::replicate_now`], run on the
//! probe cadence) cuts a `snapshot_session` image off each dirty
//! session's primary and ships it with a monotone epoch via
//! `replicate_session` — replicas run the full restore validator and
//! *refuse* any image that fails it, so a diverged replica is
//! discarded and re-seeded, never adopted. Probe misses run the
//! SWIM-lite suspect/confirm machine in [`crate::gossip`]; only a
//! *confirmed* death triggers `fail_over`, which promotes the
//! highest-acked-epoch replica (decode-validated again at promotion —
//! a tampered image answers `corrupt_snapshot` and failover falls
//! through to the next-best epoch), installs a placement override,
//! and leaves the session dirty so the next round re-establishes R
//! replicas on the new ring. Replicas are standby images; only
//! promotion reads them. Every command, reads included, goes to the
//! session's primary, mutations at most once.

use crate::gossip::Membership;
use crate::pool::{PoolError, ShardPool};
use crate::replica::{self, SessState};
use crate::ring::{Ring, DEFAULT_VNODES};
use aware_serve::metrics::Metrics;
use aware_serve::proto::{
    BatchMode, Command, DatasetInfo, MemberStatus, Response, SessionId, Stat, StatsSnapshot,
    COMMAND_KINDS, SCALARS,
};
use aware_serve::service::Dispatch;
use aware_serve::{ErrorCode, ServeError};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, RwLock, Weak};
use std::time::{Duration, Instant};

/// Router tuning knobs.
#[derive(Debug, Clone)]
pub struct RouterConfig {
    /// Background health-probe cadence; `None` probes only on `stats`.
    pub probe_interval: Option<Duration>,
    /// Router-hop slow-query threshold (milliseconds). A forwarded
    /// command whose round trip reaches it emits a structured
    /// `slow_query` record carrying the same trace id the shard logs,
    /// so one grep follows the command across both processes. `None`
    /// disables the records (histograms still fill).
    pub slow_ms: Option<u64>,
    /// Warm replicas per session (`0` disables the replication plane
    /// entirely: no snapshot shipping, no failover — the exact
    /// pre-replica behavior). With R > 0 each session's image is
    /// shipped to the R ring successors of its primary on the probe
    /// cadence, and a confirmed-dead primary is failed over
    /// automatically.
    pub replicas: usize,
    /// Per-command deadline budget against a shard: TCP connect, every
    /// socket read, and every socket write each get this long before
    /// the round trip is abandoned and answered `unavailable` (never
    /// `unknown_session`, never a fresh budget). `None` disables
    /// deadlines (pre-resilience blocking behavior). Blown deadlines
    /// feed the same SWIM suspicion as refused connections, so a
    /// frozen shard converges to confirmed-dead and fails over exactly
    /// like a SIGKILLed one.
    pub shard_timeout: Option<Duration>,
}

impl Default for RouterConfig {
    fn default() -> Self {
        RouterConfig {
            probe_interval: None,
            slow_ms: None,
            replicas: 0,
            shard_timeout: Some(Duration::from_secs(10)),
        }
    }
}

/// Per-session serialization stripes (a constant, not a knob: a
/// collision only makes one session's command wait for another's;
/// correctness never depends on the count).
const ROUTER_STRIPES: usize = 512;

/// Router-allocated ids a `create_session` tries before it gives up.
const ID_ATTEMPTS: usize = 16;

/// Current placement: the ring, plus per-session overrides that exist
/// only around rebalances (sessions already moved before the ring
/// flips, or pinned in place by a failed migration).
struct Topology {
    ring: Ring,
    overrides: HashMap<SessionId, String>,
}

impl Topology {
    /// The shard address that currently serves `id`.
    fn route(&self, id: SessionId) -> Option<String> {
        if let Some(addr) = self.overrides.get(&id) {
            return Some(addr.clone());
        }
        self.ring.route(id).map(str::to_string)
    }
}

struct Inner {
    config: RouterConfig,
    topology: RwLock<Topology>,
    pools: RwLock<HashMap<String, Arc<ShardPool>>>,
    stripes: [Mutex<()>; ROUTER_STRIPES],
    /// Sessions created (or imported) through this router and not yet
    /// closed, with their replication state — the population a
    /// rebalance considers for migration and a replication round
    /// considers for shipping.
    sessions: Mutex<HashMap<SessionId, SessState>>,
    /// Replica holders of sessions that no longer exist (closed or
    /// exported away); drained by the next replication round with
    /// `drop_replica`.
    pending_drops: Mutex<Vec<(SessionId, Vec<String>)>>,
    /// Sessions whose failover exhausted every replica without a valid
    /// image: they answer this error (always `corrupt_snapshot` —
    /// never a fresh budget) until an operator intervenes.
    stranded: Mutex<HashMap<SessionId, ServeError>>,
    /// SWIM-lite membership: suspect/confirm so one missed probe never
    /// flaps the ring; the view is disseminated to shards via `gossip`.
    membership: Mutex<Membership>,
    next_session: AtomicU64,
    /// Process start, for the router's own `uptime_seconds`.
    started: Instant,
    metrics: Metrics,
    /// Serializes join/leave/failover; command forwarding never takes
    /// this.
    rebalance: Mutex<()>,
}

/// The running router. Dropping it stops the background prober; open
/// TCP front ends hold their own [`RouterHandle`] clones.
pub struct Router {
    handle: RouterHandle,
}

/// A cloneable client of the router — implements the same [`Dispatch`]
/// contract the in-process `ServiceHandle` does, so `aware-serve`'s
/// TCP front end serves it unchanged.
#[derive(Clone)]
pub struct RouterHandle {
    inner: Arc<Inner>,
}

fn unavailable(message: impl Into<String>) -> Response {
    Response::Error(ServeError {
        code: ErrorCode::Unavailable,
        message: message.into(),
    })
}

impl Router {
    /// Starts a router with no shards; admit them with
    /// [`Command::JoinShard`] (the binary does exactly that for its
    /// `--shard` flags, so startup and live rebalancing share one code
    /// path).
    pub fn start(config: RouterConfig) -> Router {
        let inner = Arc::new(Inner {
            topology: RwLock::new(Topology {
                ring: Ring::new(DEFAULT_VNODES),
                overrides: HashMap::new(),
            }),
            pools: RwLock::new(HashMap::new()),
            stripes: std::array::from_fn(|_| Mutex::new(())),
            sessions: Mutex::new(HashMap::new()),
            pending_drops: Mutex::new(Vec::new()),
            stranded: Mutex::new(HashMap::new()),
            membership: Mutex::new(Membership::new()),
            next_session: AtomicU64::new(0),
            started: Instant::now(),
            metrics: Metrics::new(),
            rebalance: Mutex::new(()),
            config,
        });
        if let Some(interval) = inner.config.probe_interval {
            let weak = Arc::downgrade(&inner);
            std::thread::Builder::new()
                .name("aware-cluster-prober".into())
                .spawn(move || prober_loop(weak, interval))
                .expect("spawn prober thread");
        }
        Router {
            handle: RouterHandle { inner },
        }
    }

    /// A new client handle.
    pub fn handle(&self) -> RouterHandle {
        self.handle.clone()
    }
}

fn prober_loop(inner: Weak<Inner>, interval: Duration) {
    loop {
        std::thread::sleep(interval);
        match inner.upgrade() {
            Some(inner) => {
                // Detect (and fail over) first, then replicate: a
                // promotion leaves its session dirty, so the same tick
                // starts re-establishing R replicas on the new ring.
                probe_round(&inner);
                replicate_round(&inner);
            }
            None => return, // router is gone
        }
    }
}

/// One probe round: every shard is probed, misses run the SWIM-lite
/// suspect/confirm machine, a *confirmed* death triggers failover (only
/// when replication is on — with R = 0 there is nothing to promote and
/// the shard keeps answering `unavailable`), and the membership view is
/// disseminated to the surviving shards.
fn probe_round(inner: &Inner) {
    let mut confirmed_dead: Vec<String> = Vec::new();
    for pool in pools_sorted(inner) {
        let addr = pool.addr().to_string();
        match pool.probe() {
            Ok(_) => inner.membership.lock().unwrap().observe_success(&addr),
            Err(_) => {
                let status = inner.membership.lock().unwrap().observe_miss(&addr);
                if status == MemberStatus::Dead
                    && inner.config.replicas > 0
                    && inner.topology.read().unwrap().ring.contains(&addr)
                {
                    confirmed_dead.push(addr);
                }
            }
        }
    }
    for addr in confirmed_dead {
        fail_over(inner, &addr);
    }
    // Disseminate the (possibly updated) view. Shards keep the highest
    // generation they have seen, so late or reordered pushes are safe.
    let (generation, members) = {
        let membership = inner.membership.lock().unwrap();
        (membership.generation(), membership.view())
    };
    for pool in pools_sorted(inner) {
        let _ = pool.call(&Command::Gossip {
            from: "router".to_string(),
            generation,
            members: members.clone(),
        });
    }
}

fn pools_sorted(inner: &Inner) -> Vec<Arc<ShardPool>> {
    let pools = inner.pools.read().unwrap();
    let mut out: Vec<Arc<ShardPool>> = pools.values().cloned().collect();
    out.sort_by(|a, b| a.addr().cmp(b.addr()));
    out
}

fn stripe_of(id: SessionId) -> usize {
    // splitmix-style mix so sequential ids spread across stripes.
    let mut x = id.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    (x as usize) % ROUTER_STRIPES
}

/// The pool currently serving `id`, or an `unavailable`/empty-ring
/// refusal. A session stranded by an exhausted failover (every replica
/// image refused) answers its recorded `corrupt_snapshot` — never a
/// fresh budget.
// An `Err` here is one `Response` about to hit the wire — cold path,
// not worth boxing (matching serve's own dispatch helpers).
#[allow(clippy::result_large_err)]
fn owner_pool(inner: &Inner, id: SessionId) -> Result<Arc<ShardPool>, Response> {
    if let Some(e) = inner.stranded.lock().unwrap().get(&id) {
        return Err(Response::Error(e.clone()));
    }
    let addr = match inner.topology.read().unwrap().route(id) {
        Some(addr) => addr,
        None => {
            return Err(unavailable(
                "no shards are joined to this router's ring".to_string(),
            ))
        }
    };
    match inner.pools.read().unwrap().get(&addr) {
        Some(pool) => Ok(pool.clone()),
        None => Err(unavailable(format!(
            "session {id} maps to shard {addr}, which has no connection pool"
        ))),
    }
}

/// Forgets a session's replication state, queueing its replica holders
/// for `drop_replica` on the next replication round.
fn forget_session(inner: &Inner, id: SessionId) {
    if let Some(state) = inner.sessions.lock().unwrap().remove(&id) {
        if !state.replicas.is_empty() {
            let holders = state.replicas.into_iter().map(|(addr, _)| addr).collect();
            inner.pending_drops.lock().unwrap().push((id, holders));
        }
    }
}

/// Updates the session map (and the id allocator) from a forwarded
/// command's response. `route` is the session the command addressed —
/// error responses don't carry one.
fn note_response(inner: &Inner, route: Option<SessionId>, response: &Response) {
    match response {
        Response::SessionCreated { session, .. } => {
            inner
                .sessions
                .lock()
                .unwrap()
                .insert(*session, SessState::new_dirty());
        }
        Response::SessionImported { session, .. } => {
            inner
                .sessions
                .lock()
                .unwrap()
                .entry(*session)
                .or_insert_with(SessState::new_dirty)
                .dirty = true;
            inner.next_session.fetch_max(session + 1, Ordering::Relaxed);
        }
        // Mutations: the primary's ledger moved past the last shipped
        // image, so the session owes a replication round.
        Response::VizAdded { session, .. } | Response::PolicySet { session, .. } => {
            if let Some(state) = inner.sessions.lock().unwrap().get_mut(session) {
                state.dirty = true;
            }
        }
        Response::SessionClosed { session, .. } | Response::SessionExported { session, .. } => {
            forget_session(inner, *session);
        }
        Response::Error(e) if e.code == ErrorCode::UnknownSession => {
            // The shard no longer knows the session (idle-evicted
            // without a store, or closed out of band): stop offering
            // it for migration — a stale session map would, among
            // other things, refuse to let the last shard leave.
            if let Some(id) = route {
                forget_session(inner, id);
            }
        }
        _ => {}
    }
}

/// A shard that answers `shutdown` is, from the cluster client's view,
/// an unavailable shard: the session's ledger is intact on it and will
/// serve again when the shard returns. Rewrite rather than pass
/// through — `shutdown` from a router means *the router* is going
/// away, which is not what happened.
fn adapt_shard_response(
    inner: &Inner,
    pool: &ShardPool,
    route: Option<SessionId>,
    response: Response,
) -> Response {
    if let Response::Error(e) = &response {
        if e.code == ErrorCode::Shutdown {
            pool.mark_unhealthy();
            inner.metrics.inc(Stat::shard_errors);
            inner.metrics.inc(Stat::errors);
            return unavailable(format!(
                "shard {} is shutting down; session state is intact there — \
                 retry when the shard returns",
                pool.addr()
            ));
        }
    }
    note_response(inner, route, &response);
    response
}

/// Where a routed command's reply goes and the session it addresses.
struct Slot {
    index: usize,
    id: SessionId,
    /// The router allocated `id` for a client `create_session`, so a
    /// shard that already holds it gets the next id instead.
    allocated: bool,
}

/// One shard's share of a forwarding round, in submission order.
struct Group {
    pool: Arc<ShardPool>,
    slots: Vec<Slot>,
    cmds: Vec<Command>,
}

/// The router's one forwarding path: a single command is a run of one,
/// a batch a run of many, and each gets one reply per command, in
/// order. Admin commands answer here, `create_session` gets a
/// router-allocated id, and everything else goes to the shard that
/// owns its session. The router owns allocation, so an id a shard
/// already holds can only mean the shard carried ids this router never
/// learned about (e.g. sessions created behind its back); such a create
/// retries with the next id, up to [`ID_ATTEMPTS`] times.
fn route(inner: &Inner, cmds: Vec<Command>, mode: BatchMode, trace: u64) -> Vec<Response> {
    let mut replies: Vec<Option<Response>> = Vec::with_capacity(cmds.len());
    let mut pending: Vec<(Slot, Command)> = Vec::new();
    for (index, cmd) in cmds.into_iter().enumerate() {
        inner.metrics.inc(Stat::commands);
        let (id, allocated, cmd) = match answer_locally(inner, cmd) {
            Ok(response) => {
                replies.push(Some(response));
                continue;
            }
            Err(Command::CreateSession {
                dataset,
                alpha,
                policy,
            }) => {
                let id = inner.next_session.fetch_add(1, Ordering::Relaxed);
                let cmd = Command::CreateSessionAs {
                    session: id,
                    dataset,
                    alpha,
                    policy,
                };
                (id, true, cmd)
            }
            Err(cmd) => {
                let id = cmd.session().expect("non-admin commands address a session");
                (id, false, cmd)
            }
        };
        let slot = Slot {
            index,
            id,
            allocated,
        };
        replies.push(None);
        pending.push((slot, cmd));
    }
    for _ in 0..ID_ATTEMPTS {
        if pending.is_empty() {
            break;
        }
        pending = forward(inner, pending, mode, trace, &mut replies);
    }
    for (slot, _) in pending {
        inner.metrics.inc(Stat::errors);
        replies[slot.index] = Some(Response::Error(ServeError::invalid(format!(
            "could not allocate a free session id in {ID_ATTEMPTS} attempts — \
             were sessions created on the shards directly?"
        ))));
    }
    replies
        .into_iter()
        .map(|reply| {
            reply.unwrap_or_else(|| {
                Response::Error(ServeError::invalid("batch item produced no response"))
            })
        })
        .collect()
}

/// One forwarding round. Holds the stripe of every session the round
/// touches (sorted, so two rounds never deadlock) for the whole shard
/// round trip, groups the commands by owning shard, and sends each
/// group as one envelope: on the caller's thread, or on one scoped
/// thread per shard when two or more shards are involved. Fills
/// `replies` and returns the creates whose id a shard already held,
/// re-addressed to fresh ids.
fn forward(
    inner: &Inner,
    pending: Vec<(Slot, Command)>,
    mode: BatchMode,
    trace: u64,
    replies: &mut [Option<Response>],
) -> Vec<(Slot, Command)> {
    let mut stripes: Vec<usize> = pending.iter().map(|(slot, _)| stripe_of(slot.id)).collect();
    stripes.sort_unstable();
    stripes.dedup();
    let _guards: Vec<MutexGuard<'_, ()>> = stripes
        .iter()
        .map(|&s| inner.stripes[s].lock().unwrap())
        .collect();

    let mut groups: Vec<Group> = Vec::new();
    for (slot, cmd) in pending {
        let pool = match owner_pool(inner, slot.id) {
            Ok(pool) => pool,
            Err(refusal) => {
                inner.metrics.inc(Stat::errors);
                replies[slot.index] = Some(refusal);
                continue;
            }
        };
        let at = match groups.iter().position(|g| g.pool.addr() == pool.addr()) {
            Some(at) => at,
            None => {
                groups.push(Group {
                    pool,
                    slots: Vec::new(),
                    cmds: Vec::new(),
                });
                groups.len() - 1
            }
        };
        groups[at].slots.push(slot);
        groups[at].cmds.push(cmd);
    }

    let sent: Vec<(Group, Result<Vec<Response>, PoolError>, u64)> = if groups.len() < 2 {
        groups.into_iter().map(|g| send(g, mode, trace)).collect()
    } else {
        std::thread::scope(|scope| {
            let joins: Vec<_> = groups
                .into_iter()
                .map(|g| scope.spawn(move || send(g, mode, trace)))
                .collect();
            joins
                .into_iter()
                .map(|join| join.join().expect("shard call thread"))
                .collect()
        })
    };

    let mut retry = Vec::new();
    for (group, result, rt_us) in sent {
        inner.metrics.add(Stat::forwarded, group.cmds.len() as u64);
        // One hop, many items: every item completed its hop in rt_us.
        for cmd in &group.cmds {
            inner.metrics.observe_command(cmd.kind_index(), rt_us);
        }
        note_slow(inner, trace, &group, rt_us);
        let responses = match result {
            Ok(responses) => responses,
            Err(e) => {
                inner.metrics.inc(Stat::shard_errors);
                for slot in group.slots {
                    inner.metrics.inc(Stat::errors);
                    replies[slot.index] = Some(unavailable(format!(
                        "shard serving session {} is unreachable ({e}); its wealth ledger \
                         is intact there — retry when the shard returns",
                        slot.id
                    )));
                }
                continue;
            }
        };
        let items = group.slots.into_iter().zip(group.cmds);
        for ((mut slot, mut cmd), response) in items.zip(responses) {
            let taken = matches!(&response, Response::Error(e)
                if e.code == ErrorCode::InvalidArgument && e.message.contains("already in use"));
            if slot.allocated && taken {
                slot.id = inner.next_session.fetch_add(1, Ordering::Relaxed);
                if let Command::CreateSessionAs { session, .. } = &mut cmd {
                    *session = slot.id;
                }
                retry.push((slot, cmd));
            } else {
                replies[slot.index] = Some(adapt_shard_response(
                    inner,
                    &group.pool,
                    Some(slot.id),
                    response,
                ));
            }
        }
    }
    retry
}

/// Sends one group as one envelope, timing the round trip: a lone
/// command as itself, so a single command's hop stays a single-command
/// frame, and more as a sub-batch stamped with the run's trace id.
fn send(
    group: Group,
    mode: BatchMode,
    trace: u64,
) -> (Group, Result<Vec<Response>, PoolError>, u64) {
    let start = Instant::now();
    let result = match &group.cmds[..] {
        [cmd] => group.pool.call_traced(cmd, trace).map(|r| vec![r]),
        cmds => group.pool.call_batch_traced(cmds, mode, trace),
    };
    let rt_us = start.elapsed().as_micros() as u64;
    (group, result, rt_us)
}

/// Emits the router-hop `slow_query` record when a group's round trip
/// reached the configured threshold. The record carries the same trace
/// id the shard stamps into *its* slow-query log, so `grep trace=<id>`
/// follows one command across both processes; a sub-batch logs once
/// (the shard logs its own per-item records under the same trace).
fn note_slow(inner: &Inner, trace: u64, group: &Group, rt_us: u64) {
    let Some(ms) = inner.config.slow_ms else {
        return;
    };
    if rt_us < ms.saturating_mul(1000) {
        return;
    }
    inner.metrics.inc(Stat::slow_queries);
    let (kind, session) = match (&group.cmds[..], &group.slots[..]) {
        ([cmd], [slot]) => (
            COMMAND_KINDS[cmd.kind_index().min(COMMAND_KINDS.len() - 1)],
            slot.id.to_string(),
        ),
        _ => ("batch", "-".to_string()),
    };
    aware_obs::logline!(
        aware_obs::log::Level::Warn,
        "slow_query",
        trace = aware_obs::trace::fmt_trace(trace),
        kind = kind,
        session = session,
        items = group.cmds.len(),
        shard = group.pool.addr(),
        rt_us = rt_us,
    );
}

// ---------------------------------------------------------------------------
// Replication & failover
// ---------------------------------------------------------------------------

/// One replication round: first drains `drop_replica` debts left by
/// closed/exported sessions, then ships every due session's snapshot
/// image to its ring successors. Returns the number of sessions
/// shipped. Runs on the probe cadence; [`RouterHandle::replicate_now`]
/// runs it deterministically for tests.
fn replicate_round(inner: &Inner) -> u64 {
    let drops: Vec<(SessionId, Vec<String>)> =
        std::mem::take(&mut *inner.pending_drops.lock().unwrap());
    for (id, holders) in drops {
        for addr in holders {
            let pool = inner.pools.read().unwrap().get(&addr).cloned();
            if let Some(pool) = pool {
                let _ = pool.call(&Command::DropReplica { session: id });
            }
        }
    }
    let r = inner.config.replicas;
    if r == 0 {
        return 0;
    }
    let mut ids: Vec<SessionId> = inner.sessions.lock().unwrap().keys().copied().collect();
    ids.sort_unstable();
    let mut shipped = 0u64;
    for id in ids {
        if replicate_one(inner, id, r) {
            shipped += 1;
        }
    }
    shipped
}

/// Ships one session's image to its desired replica set if a ship is
/// due. Holds the session's stripe for the whole cut-and-ship, so the
/// dirty bit can never be cleared for state that isn't in the image —
/// a concurrent mutation waits on the stripe and re-dirties after.
fn replicate_one(inner: &Inner, id: SessionId, r: usize) -> bool {
    let _stripe = inner.stripes[stripe_of(id)].lock().unwrap();
    let (primary_addr, desired) = {
        let topo = inner.topology.read().unwrap();
        let Some(primary) = topo.route(id) else {
            return false;
        };
        let desired = replica::desired_replicas(&topo.ring, id, &primary, r);
        (primary, desired)
    };
    {
        let sessions = inner.sessions.lock().unwrap();
        let Some(state) = sessions.get(&id) else {
            return false;
        };
        // A replica-derived placeholder has no live primary to cut an
        // image from; it becomes shippable when its primary rejoins.
        if !state.primary_known || !replica::needs_ship(state, &desired) {
            return false;
        }
    }
    let primary_pool = inner.pools.read().unwrap().get(&primary_addr).cloned();
    let Some(primary_pool) = primary_pool else {
        return false;
    };
    inner.metrics.inc(Stat::forwarded);
    let image = match primary_pool.call(&Command::SnapshotSession { session: id }) {
        Ok(Response::SessionExported { image, .. }) => image,
        Ok(Response::Error(e)) if e.code == ErrorCode::UnknownSession => {
            forget_session(inner, id);
            return false;
        }
        Ok(_) => return false, // stays dirty; next round retries
        Err(_) => {
            inner.metrics.inc(Stat::shard_errors);
            return false;
        }
    };
    let epoch = inner
        .sessions
        .lock()
        .unwrap()
        .get(&id)
        .map(|s| s.epoch + 1)
        .unwrap_or(1);
    let mut acked: Vec<String> = Vec::new();
    for addr in &desired {
        let pool = inner.pools.read().unwrap().get(addr).cloned();
        let Some(pool) = pool else { continue };
        inner.metrics.inc(Stat::forwarded);
        match pool.call(&Command::ReplicateSession {
            session: id,
            epoch,
            image: image.clone(),
        }) {
            Ok(Response::SessionReplicated { .. }) => acked.push(addr.clone()),
            Ok(Response::Error(e)) => {
                // A refused image (failed the replica's restore
                // validator) is a loud event: the replica discarded it
                // rather than adopt a diverged ledger.
                aware_obs::logline!(
                    aware_obs::log::Level::Warn,
                    "replica_ship_refused",
                    session = id,
                    to = addr,
                    epoch = epoch,
                    error = e.message,
                );
            }
            Ok(_) => {}
            Err(_) => inner.metrics.inc(Stat::shard_errors),
        }
    }
    let stale = {
        let mut sessions = inner.sessions.lock().unwrap();
        match sessions.get_mut(&id) {
            Some(state) => replica::merge_acks(state, &desired, epoch, &acked),
            None => Vec::new(),
        }
    };
    for addr in stale {
        let pool = inner.pools.read().unwrap().get(&addr).cloned();
        if let Some(pool) = pool {
            let _ = pool.call(&Command::DropReplica { session: id });
        }
    }
    true
}

/// Fails every session whose primary was confirmed dead over to its
/// freshest acked replica. Promotion is verified: the shard decodes
/// and restore-validates the replica image before adopting it, so a
/// tampered or diverged image answers `corrupt_snapshot` and failover
/// falls through to the next-best epoch. A session with no promotable
/// replica stays pinned to the dead shard (`unavailable` — the ledger
/// is intact there); one whose *every* replica was refused is stranded
/// on `corrupt_snapshot` — in no case does a client ever see a fresh
/// budget.
fn fail_over(inner: &Inner, dead: &str) {
    let _rebalance = inner.rebalance.lock().unwrap();
    if !inner.topology.read().unwrap().ring.contains(dead) {
        return; // a concurrent leave already removed it
    }
    aware_obs::logline!(
        aware_obs::log::Level::Warn,
        "shard_confirmed_dead",
        addr = dead,
    );
    let victims: Vec<SessionId> = {
        let topo = inner.topology.read().unwrap();
        let sessions = inner.sessions.lock().unwrap();
        let mut ids: Vec<SessionId> = sessions
            .keys()
            .copied()
            .filter(|&id| topo.route(id).as_deref() == Some(dead))
            .collect();
        ids.sort_unstable();
        ids
    };
    let (mut promoted, mut pinned, mut lost) = (0u64, 0u64, 0u64);
    for id in victims {
        let _stripe = inner.stripes[stripe_of(id)].lock().unwrap();
        let candidates = {
            let sessions = inner.sessions.lock().unwrap();
            sessions
                .get(&id)
                .map(replica::promotion_order)
                .unwrap_or_default()
        };
        let mut winner: Option<(String, u64)> = None;
        let mut last_refusal: Option<ServeError> = None;
        for (addr, acked_epoch) in candidates {
            let pool = inner.pools.read().unwrap().get(&addr).cloned();
            let Some(pool) = pool else { continue };
            inner.metrics.inc(Stat::forwarded);
            match pool.call(&Command::PromoteReplica { session: id }) {
                Ok(Response::ReplicaPromoted { epoch, .. }) => {
                    winner = Some((addr, epoch));
                    break;
                }
                Ok(Response::Error(e)) => {
                    // Refused (tampered/diverged image, already
                    // discarded shard-side): fall through to the
                    // next-best epoch, and stop counting on this copy.
                    aware_obs::logline!(
                        aware_obs::log::Level::Warn,
                        "promotion_refused",
                        session = id,
                        replica = addr,
                        acked_epoch = acked_epoch,
                        error = e.message,
                    );
                    if let Some(state) = inner.sessions.lock().unwrap().get_mut(&id) {
                        state.replicas.retain(|(a, _)| a != &addr);
                    }
                    last_refusal = Some(e);
                }
                Ok(_) => {}
                Err(_) => inner.metrics.inc(Stat::shard_errors), // unreachable replica: keep its ack
            }
        }
        match winner {
            Some((addr, epoch)) => {
                inner
                    .topology
                    .write()
                    .unwrap()
                    .overrides
                    .insert(id, addr.clone());
                if let Some(state) = inner.sessions.lock().unwrap().get_mut(&id) {
                    state.epoch = state.epoch.max(epoch);
                    state.dirty = true; // re-establish R replicas on the new ring
                    state.primary_known = true;
                    state.replicas.retain(|(a, _)| a != &addr && a != dead);
                }
                aware_obs::logline!(
                    aware_obs::log::Level::Info,
                    "session_failed_over",
                    session = id,
                    from = dead,
                    to = addr,
                    epoch = epoch,
                );
                promoted += 1;
            }
            None => match last_refusal {
                Some(e) => {
                    // Every replica image was refused: the session is
                    // stranded on corrupt_snapshot. Adopting a diverged
                    // ledger (or minting a fresh one) is exactly the
                    // reset the α-investing contract forbids.
                    inner.stranded.lock().unwrap().insert(
                        id,
                        ServeError {
                            code: ErrorCode::CorruptSnapshot,
                            message: format!(
                                "session {id} lost its primary ({dead}) and every \
                                 replica image was refused at promotion: {}",
                                e.message
                            ),
                        },
                    );
                    lost += 1;
                }
                None => {
                    // No replicas (or none reachable): pin to the dead
                    // shard so the session answers `unavailable` until
                    // it returns. The pin survives the ring flip below.
                    inner
                        .topology
                        .write()
                        .unwrap()
                        .overrides
                        .insert(id, dead.to_string());
                    pinned += 1;
                }
            },
        }
    }
    {
        let mut topo = inner.topology.write().unwrap();
        let ring = topo.ring.leave(dead);
        topo.overrides
            .retain(|id, addr| ring.route(*id) != Some(addr.as_str()));
        topo.ring = ring;
    }
    inner.membership.lock().unwrap().leave(dead);
    inner.pools.write().unwrap().remove(dead);
    aware_obs::logline!(
        aware_obs::log::Level::Warn,
        "failover_complete",
        addr = dead,
        promoted = promoted,
        pinned = pinned,
        lost = lost,
    );
}

/// Cluster-wide replication lag: the worst per-session gap between the
/// primary's state and its replicas' acked epochs, in epochs. `0`
/// means every session's replicas provably hold the latest shipped
/// state (and is the constant answer with replication off).
fn replication_lag(inner: &Inner) -> u64 {
    let r = inner.config.replicas;
    if r == 0 {
        return 0;
    }
    let topo = inner.topology.read().unwrap();
    let sessions = inner.sessions.lock().unwrap();
    sessions
        .iter()
        .filter(|(_, state)| state.primary_known)
        .map(|(&id, state)| {
            let Some(primary) = topo.route(id) else {
                return 0;
            };
            let desired = replica::desired_replicas(&topo.ring, id, &primary, r);
            replica::lag(state, &desired)
        })
        .max()
        .unwrap_or(0)
}

/// Renders up to 16 session ids for an error payload.
fn fmt_sessions(ids: &[SessionId]) -> String {
    let mut ids = ids.to_vec();
    ids.sort_unstable();
    let shown: Vec<String> = ids.iter().take(16).map(|id| id.to_string()).collect();
    let suffix = if ids.len() > 16 {
        format!(" (+{} more)", ids.len() - 16)
    } else {
        String::new()
    };
    format!("[{}]{}", shown.join(", "), suffix)
}

/// Rebuilds placement and replication state from a joining shard's
/// `list_sessions` inventory: persisted primaries re-enter the session
/// map (with a placement override when the ring would put them
/// elsewhere), held replica images re-enter as acks, and the id
/// allocator seats above every reported id. A rejoining shard whose
/// session was promoted elsewhere while it was down is *stale* — its
/// copy is ignored, never adopted over the live ledger.
fn recover_inventory(inner: &Inner, pool: &ShardPool) {
    let addr = pool.addr().to_string();
    let entries = match pool.call(&Command::ListSessions) {
        Ok(Response::Sessions { sessions }) => sessions,
        // Inventory is best-effort: the roster check already passed,
        // and a shard with nothing persisted reports nothing anyway.
        _ => return,
    };
    for entry in entries {
        let id = entry.session;
        inner.next_session.fetch_max(id + 1, Ordering::Relaxed);
        if entry.replica {
            let mut sessions = inner.sessions.lock().unwrap();
            let state = sessions.entry(id).or_insert_with(|| SessState {
                dirty: true,
                ..SessState::default()
            });
            if state.acked(&addr).is_none() {
                state.replicas.push((addr.clone(), entry.epoch));
            }
            state.epoch = state.epoch.max(entry.epoch);
        } else {
            let already_placed = {
                let sessions = inner.sessions.lock().unwrap();
                sessions
                    .get(&id)
                    .map(|state| state.primary_known)
                    .unwrap_or(false)
            };
            if already_placed {
                aware_obs::logline!(
                    aware_obs::log::Level::Warn,
                    "stale_primary_ignored",
                    session = id,
                    shard = addr,
                    note = "session is already placed; the rejoining copy is stale",
                );
                continue;
            }
            {
                let mut sessions = inner.sessions.lock().unwrap();
                let state = sessions.entry(id).or_insert_with(SessState::new_dirty);
                state.primary_known = true;
                state.dirty = true;
            }
            let mut topo = inner.topology.write().unwrap();
            if topo.route(id).as_deref() != Some(addr.as_str()) {
                topo.overrides.insert(id, addr.clone());
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Stats aggregation
// ---------------------------------------------------------------------------

/// Cluster-wide stats: the router's own counters with every shard's
/// snapshot merged in by each scalar's declared rule (the probe that
/// fetches them doubles as the health check), and the per-shard
/// health breakdown attached (JSON surface only — the binary payload
/// stays the count-prefixed scalar list). Returns the merged total
/// plus each healthy shard's own snapshot, so the exposition endpoint
/// can serve both views off one probe round.
fn probe_all(inner: &Inner) -> (StatsSnapshot, Vec<(String, StatsSnapshot)>) {
    let pools = pools_sorted(inner);
    let mut per_shard: Vec<(String, StatsSnapshot)> = Vec::new();
    std::thread::scope(|scope| {
        let probes: Vec<_> = pools
            .iter()
            .map(|pool| scope.spawn(move || (pool.addr().to_string(), pool.probe())))
            .collect();
        for probe in probes {
            let (addr, result) = probe.join().expect("probe thread");
            match result {
                Ok(stats) => per_shard.push((addr, stats)),
                Err(_) => inner.metrics.inc(Stat::shard_errors),
            }
        }
    });
    // The live-session gauge is the shards' to report.
    let mut total = inner.metrics.snapshot(0);
    total.uptime_seconds = inner.started.elapsed().as_secs();
    // Only the router knows how far replicas trail their primaries.
    total.replication_lag_max_epochs = replication_lag(inner);
    // Deadline/breaker accounting lives in the router's shard pools.
    for pool in &pools {
        total.shard_timeouts += pool.timeouts();
        total.breaker_opens += pool.breaker_opens();
        total.breaker_shed += pool.breaker_shed();
    }
    for (_, stats) in &per_shard {
        total.merge(stats);
    }
    total.shards = pools.iter().map(|p| p.health()).collect();
    (total, per_shard)
}

fn aggregate_stats(inner: &Inner) -> Response {
    Response::Stats(Box::new(probe_all(inner).0))
}

/// The dataset roster, answered from the first healthy shard (the
/// join-time fingerprint check keeps every shard's roster identical),
/// with the *router's* allocator as `next_session`.
fn list_datasets(inner: &Inner) -> Response {
    let pools = pools_sorted(inner);
    if pools.is_empty() {
        return Response::Datasets {
            datasets: Vec::new(),
            next_session: inner.next_session.load(Ordering::Relaxed),
        };
    }
    for pool in &pools {
        if let Ok(Response::Datasets { datasets, .. }) = pool.call(&Command::ListDatasets) {
            return Response::Datasets {
                datasets,
                next_session: inner.next_session.load(Ordering::Relaxed),
            };
        }
        inner.metrics.inc(Stat::shard_errors);
    }
    inner.metrics.inc(Stat::errors);
    unavailable("no shard answered the dataset roster")
}

// ---------------------------------------------------------------------------
// Rebalancing
// ---------------------------------------------------------------------------

/// Fetches a shard's roster (name, rows, fingerprint) and allocator
/// floor, seating the router's allocator above the floor.
#[allow(clippy::result_large_err)] // cold path, the Err is the reply
fn fetch_roster(inner: &Inner, pool: &ShardPool) -> Result<Vec<DatasetInfo>, Response> {
    match pool.call(&Command::ListDatasets) {
        Ok(Response::Datasets {
            datasets,
            next_session,
        }) => {
            inner
                .next_session
                .fetch_max(next_session, Ordering::Relaxed);
            Ok(datasets)
        }
        Ok(other) => Err(Response::Error(ServeError::invalid(format!(
            "shard {} answered the roster request with {other:?}",
            pool.addr()
        )))),
        Err(e) => {
            inner.metrics.inc(Stat::shard_errors);
            Err(unavailable(format!("shard roster check failed: {e}")))
        }
    }
}

enum Migration {
    Moved,
    /// The session no longer exists on its shard (closed or evicted
    /// out from under the router); dropped from the live set.
    Gone,
    Failed,
}

/// Moves one session to `to_addr` under its stripe lock: export
/// (removes it from the old shard), import (restores it on the new
/// one), then a placement override so commands follow it immediately.
/// On an import failure the image is re-imported to the source — the
/// wealth ledger must land *somewhere* before the stripe unlocks.
fn migrate_session(inner: &Inner, id: SessionId, to_addr: &str) -> Migration {
    let _stripe = inner.stripes[stripe_of(id)].lock().unwrap();
    let from_addr = match inner.topology.read().unwrap().route(id) {
        Some(addr) => addr,
        None => return Migration::Failed,
    };
    if from_addr == to_addr {
        return Migration::Moved; // a previous (partial) rebalance already moved it
    }
    let (from_pool, to_pool) = {
        let pools = inner.pools.read().unwrap();
        match (pools.get(&from_addr), pools.get(to_addr)) {
            (Some(f), Some(t)) => (f.clone(), t.clone()),
            _ => return Migration::Failed,
        }
    };
    inner.metrics.inc(Stat::forwarded);
    let image = match from_pool.call(&Command::ExportSession { session: id }) {
        Ok(Response::SessionExported { image, .. }) => image,
        Ok(Response::Error(e)) if e.code == ErrorCode::UnknownSession => {
            forget_session(inner, id);
            return Migration::Gone;
        }
        Ok(other) => {
            aware_obs::logline!(
                aware_obs::log::Level::Error,
                "migration_export_refused",
                session = id,
                from = from_addr,
                reply = format!("{other:?}"),
            );
            return Migration::Failed;
        }
        Err(e) => {
            inner.metrics.inc(Stat::shard_errors);
            aware_obs::logline!(
                aware_obs::log::Level::Error,
                "migration_export_failed",
                session = id,
                from = from_addr,
                error = e,
            );
            return Migration::Failed;
        }
    };
    inner.metrics.inc(Stat::forwarded);
    let import = to_pool.call(&Command::ImportSession {
        session: id,
        image: image.clone(),
    });
    match import {
        Ok(Response::SessionImported { .. }) => {
            inner
                .topology
                .write()
                .unwrap()
                .overrides
                .insert(id, to_addr.to_string());
            // The move changes the session's ring neighborhood, so its
            // replica set drifts: leave it due for the next round.
            if let Some(state) = inner.sessions.lock().unwrap().get_mut(&id) {
                state.dirty = true;
            }
            inner.metrics.inc(Stat::migrations);
            Migration::Moved
        }
        other => {
            if let Err(e) = &other {
                inner.metrics.inc(Stat::shard_errors);
                aware_obs::logline!(
                    aware_obs::log::Level::Error,
                    "migration_import_failed",
                    session = id,
                    to = to_addr,
                    error = e,
                );
            } else {
                aware_obs::logline!(
                    aware_obs::log::Level::Error,
                    "migration_import_refused",
                    session = id,
                    to = to_addr,
                    reply = format!("{other:?}"),
                );
            }
            // Put the wealth back where it came from.
            match from_pool.call(&Command::ImportSession { session: id, image }) {
                Ok(Response::SessionImported { .. }) => Migration::Failed,
                rollback => {
                    inner.metrics.inc(Stat::shard_errors);
                    forget_session(inner, id);
                    aware_obs::logline!(
                        aware_obs::log::Level::Error,
                        "migration_ledger_lost",
                        session = id,
                        from = from_addr,
                        rollback = format!("{rollback:?}"),
                        note = "ledger lost in transit; refusing to fabricate a fresh one",
                    );
                    Migration::Failed
                }
            }
        }
    }
}

/// Migrates every live session whose placement changes from the
/// current topology to `new_ring`; flips the ring only when all of
/// them moved. Returns `(migrated, failed session ids)` — the ids let
/// a refusal name exactly which ledgers are stranded, and where.
fn rebalance_to(inner: &Inner, new_ring: Ring) -> (u64, Vec<SessionId>) {
    let remapped: Vec<(SessionId, String)> = {
        let topo = inner.topology.read().unwrap();
        let sessions = inner.sessions.lock().unwrap();
        sessions
            .iter()
            // Replica-derived placeholders have no live primary to
            // export from; they migrate only once their primary is back.
            .filter(|(_, state)| state.primary_known)
            .filter_map(|(&id, _)| {
                let target = new_ring.route(id)?.to_string();
                match topo.route(id) {
                    Some(current) if current != target => Some((id, target)),
                    _ => None,
                }
            })
            .collect()
    };
    let mut migrated = 0u64;
    let mut failed: Vec<SessionId> = Vec::new();
    for (id, target) in remapped {
        match migrate_session(inner, id, &target) {
            Migration::Moved => migrated += 1,
            Migration::Gone => {}
            Migration::Failed => failed.push(id),
        }
    }
    if failed.is_empty() {
        let mut topo = inner.topology.write().unwrap();
        // Keep only overrides that still disagree with the new ring
        // (pins left by earlier partial rebalances).
        let ring = new_ring;
        topo.overrides
            .retain(|id, addr| ring.route(*id) != Some(addr.as_str()));
        topo.ring = ring;
    }
    (migrated, failed)
}

fn join_shard(inner: &Inner, addr: String) -> Response {
    let _rebalance = inner.rebalance.lock().unwrap();
    if inner.topology.read().unwrap().ring.contains(&addr) {
        return Response::Rebalanced {
            addr,
            joined: true,
            migrated: 0,
        };
    }
    let pool = match inner.pools.read().unwrap().get(&addr) {
        Some(pool) => pool.clone(),
        None => match ShardPool::with_config(
            &addr,
            crate::pool::PoolConfig {
                timeout: inner.config.shard_timeout,
                breaker: crate::breaker::BreakerConfig::default(),
            },
        ) {
            Ok(pool) => Arc::new(pool),
            Err(e) => return Response::Error(e),
        },
    };
    // Roster check: the joining shard must hold every dataset the
    // cluster serves, with byte-identical content — the fingerprint is
    // what makes "same dataset name" mean "same data", and without it
    // a migrated ledger would silently change meaning.
    let joining_roster = match fetch_roster(inner, &pool) {
        Ok(roster) => roster,
        Err(refusal) => return refusal,
    };
    for reference in pools_sorted(inner) {
        if let Ok(expected) = fetch_roster(inner, &reference) {
            if expected != joining_roster {
                return Response::Error(ServeError::invalid(format!(
                    "shard {} dataset roster {:?} does not match the cluster's {:?} \
                     (names, row counts, and content fingerprints must all agree)",
                    addr, joining_roster, expected
                )));
            }
            break; // one healthy reference is enough — rosters are transitively equal
        }
    }
    inner
        .pools
        .write()
        .unwrap()
        .insert(addr.clone(), pool.clone());
    inner.membership.lock().unwrap().join(&addr);
    // Router-restart recovery: adopt whatever the shard already holds
    // (persisted primaries and replica images) before rebalancing, so
    // the rebalance places recovered sessions exactly per the new ring.
    recover_inventory(inner, &pool);
    let new_ring = inner.topology.read().unwrap().ring.join(&addr);
    let (migrated, failed) = rebalance_to(inner, new_ring);
    if !failed.is_empty() {
        inner.metrics.inc(Stat::errors);
        return unavailable(format!(
            "join of {addr} incomplete: {migrated} sessions migrated, {} failed and \
             stay on their current shards — stranded sessions {} keep serving from \
             their pre-join placement; re-issue join_shard to retry",
            failed.len(),
            fmt_sessions(&failed),
        ));
    }
    Response::Rebalanced {
        addr,
        joined: true,
        migrated,
    }
}

fn leave_shard(inner: &Inner, addr: String) -> Response {
    let _rebalance = inner.rebalance.lock().unwrap();
    {
        let topo = inner.topology.read().unwrap();
        if !topo.ring.contains(&addr) && !topo.overrides.values().any(|a| a == &addr) {
            return Response::Rebalanced {
                addr,
                joined: false,
                migrated: 0,
            };
        }
        if topo.ring.contains(&addr)
            && topo.ring.len() == 1
            && !inner.sessions.lock().unwrap().is_empty()
        {
            return Response::Error(ServeError::invalid(format!(
                "cannot remove {addr}: it is the last shard and live sessions remain"
            )));
        }
    }
    let new_ring = inner.topology.read().unwrap().ring.leave(&addr);
    let (migrated, failed) = rebalance_to(inner, new_ring);
    if !failed.is_empty() {
        inner.metrics.inc(Stat::errors);
        // Name the stranded ledgers and where they still live: with no
        // replicas, the departing shard holds the *only* copy of each,
        // so the operator must know exactly what is at stake before
        // forcing anything.
        return unavailable(format!(
            "leave of {addr} incomplete: {migrated} sessions migrated, {} failed and \
             stay pinned — stranded sessions {} are still owned by shard {addr}, \
             which holds their only copy; re-issue leave_shard (with the shard \
             reachable) to retry",
            failed.len(),
            fmt_sessions(&failed),
        ));
    }
    // Nothing routes to the shard any more (ring flipped, overrides
    // retained only where they disagree with the new ring — none can
    // point at a departed member after a clean leave).
    inner.membership.lock().unwrap().leave(&addr);
    inner.pools.write().unwrap().remove(&addr);
    Response::Rebalanced {
        addr,
        joined: false,
        migrated,
    }
}

// ---------------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------------

/// Answers a router-local command — `stats`, `list_datasets`, the
/// rebalance verbs, a refusal for the replication plane — or hands back
/// a command the owning shard must execute. Exhaustive, with no `_`
/// arm: a new command is classified here once, for a single command and
/// a batch item alike.
fn answer_locally(inner: &Inner, cmd: Command) -> Result<Response, Command> {
    match cmd {
        Command::Stats => Ok(aggregate_stats(inner)),
        Command::ListDatasets => Ok(list_datasets(inner)),
        Command::JoinShard { addr } => Ok(join_shard(inner, addr)),
        Command::LeaveShard { addr } => Ok(leave_shard(inner, addr)),
        // The replication plane is router-to-shard only: letting a
        // client ship images or force promotions through the router
        // would bypass the epoch bookkeeping that makes promotion safe.
        Command::ReplicateSession { .. }
        | Command::PromoteReplica { .. }
        | Command::DropReplica { .. }
        | Command::SnapshotSession { .. }
        | Command::ListSessions
        | Command::Gossip { .. } => {
            inner.metrics.inc(Stat::errors);
            Ok(Response::Error(ServeError::invalid(
                "replication commands are shard-internal — the router manages \
                 replicas, promotion, and membership itself",
            )))
        }
        cmd @ (Command::CreateSession { .. }
        | Command::CreateSessionAs { .. }
        | Command::ExportSession { .. }
        | Command::ImportSession { .. }
        | Command::AddVisualization { .. }
        | Command::SetPolicy { .. }
        | Command::Gauge { .. }
        | Command::Transcript { .. }
        | Command::CloseSession { .. }) => Err(cmd),
    }
}

impl Dispatch for RouterHandle {
    fn call_traced(&self, cmd: Command, trace: u64) -> Response {
        self.inner.metrics.batch(1);
        let mut replies = route(&self.inner, vec![cmd], BatchMode::Continue, trace);
        replies.pop().expect("one reply per command")
    }

    /// A batch runs the same `route` a single command does. Items
    /// for one shard keep their submission order inside its sub-batch,
    /// so the shard's own batch unit semantics (one run under the
    /// session's stripe, fail-fast per stream) hold across the hop.
    fn call_batch_traced(&self, cmds: Vec<Command>, mode: BatchMode, trace: u64) -> Vec<Response> {
        self.inner.metrics.batch(cmds.len());
        route(&self.inner, cmds, mode, trace)
    }

    fn metrics(&self) -> &Metrics {
        &self.inner.metrics
    }
}

impl RouterHandle {
    /// Executes one command (inherent mirror of the [`Dispatch`] impl,
    /// so callers don't need the trait in scope).
    pub fn call(&self, cmd: Command) -> Response {
        Dispatch::call(self, cmd)
    }

    /// Sessions the router currently believes live, cluster-wide.
    pub fn live_sessions(&self) -> u64 {
        self.inner.sessions.lock().unwrap().len() as u64
    }

    /// Total sessions migrated by rebalances so far.
    pub fn migrations(&self) -> u64 {
        self.inner.metrics.get(Stat::migrations)
    }

    /// Runs one replication round now (the background prober runs the
    /// same on its cadence): drains pending replica drops and ships
    /// every due session's image to its ring successors. Returns the
    /// number of sessions shipped. Deterministic entry point for tests
    /// and operators — no probe interval needed.
    pub fn replicate_now(&self) -> u64 {
        replicate_round(&self.inner)
    }

    /// Runs one probe round now: health-probes every shard, advances
    /// the SWIM-lite suspect/confirm machine (two consecutive missed
    /// rounds confirm death and trigger failover when replication is
    /// on), and disseminates the membership view to surviving shards.
    pub fn probe_now(&self) {
        probe_round(&self.inner);
    }

    /// Worst per-session replication epoch gap (`0` = every replica
    /// provably holds the latest shipped state).
    pub fn replication_lag(&self) -> u64 {
        replication_lag(&self.inner)
    }

    /// Current ring membership, sorted.
    pub fn shards(&self) -> Vec<String> {
        self.inner.topology.read().unwrap().ring.members().to_vec()
    }

    /// Prometheus text exposition for the `--metrics-addr` endpoint:
    /// the cluster-merged view (one probe round across every shard)
    /// plus per-shard breakdowns labeled `shard="addr"`, plus the
    /// router hop's own per-kind latency summaries.
    pub fn metrics_text(&self) -> String {
        use aware_obs::expose::TextRender;
        let inner = &self.inner;
        let (merged, per_shard) = probe_all(inner);
        let mut r = TextRender::new();

        r.family("aware_up", "gauge", "1 while the router serves.");
        r.sample("aware_up", &[], 1);
        r.scalars(&SCALARS, &merged.scalars());
        // The two cache scalars are hidden from the table walk because
        // a shard serves them per dataset; here they are the totals.
        r.family(
            "aware_cache_hits_total",
            "counter",
            "Evaluation-cache hits, cluster-wide.",
        );
        r.sample("aware_cache_hits_total", &[], merged.cache_hits);
        r.family(
            "aware_cache_misses_total",
            "counter",
            "Evaluation-cache misses, cluster-wide.",
        );
        r.sample("aware_cache_misses_total", &[], merged.cache_misses);

        r.family(
            "aware_router_latency_us",
            "summary",
            "Router-hop latency (stripe + shard round trip) by command kind, microseconds.",
        );
        for (kind, name) in COMMAND_KINDS.iter().enumerate() {
            let snap = inner.metrics.latency_of_kind(kind);
            if snap.count() > 0 {
                r.summary("aware_router_latency_us", &[("kind", name)], &snap);
            }
        }

        r.family(
            "aware_shard_healthy",
            "gauge",
            "1 when the shard's last round trip succeeded.",
        );
        r.family(
            "aware_shard_sessions_live",
            "gauge",
            "Live sessions on the shard (last probe).",
        );
        r.family(
            "aware_shard_forwarded_total",
            "counter",
            "Commands forwarded to the shard.",
        );
        r.family(
            "aware_shard_errors",
            "counter",
            "Transport failures observed against the shard.",
        );
        for health in &merged.shards {
            let labels = [("shard", health.addr.as_str())];
            r.sample("aware_shard_healthy", &labels, u64::from(health.healthy));
            r.sample("aware_shard_sessions_live", &labels, health.sessions_live);
            r.sample("aware_shard_forwarded_total", &labels, health.forwarded);
            r.sample("aware_shard_errors", &labels, health.errors);
        }

        r.family(
            "aware_shard_breaker_state",
            "gauge",
            "1 for the shard's current circuit-breaker state (closed/open/half_open).",
        );
        r.family(
            "aware_shard_timeouts_total",
            "counter",
            "Blown deadlines observed against the shard.",
        );
        for pool in pools_sorted(inner) {
            r.sample(
                "aware_shard_breaker_state",
                &[
                    ("shard", pool.addr()),
                    ("state", pool.breaker_state().as_str()),
                ],
                1,
            );
            r.sample(
                "aware_shard_timeouts_total",
                &[("shard", pool.addr())],
                pool.timeouts(),
            );
        }

        r.family(
            "aware_shard_latency_us",
            "summary",
            "Each shard's own end-to-end latency quartet, from its stats scalars.",
        );
        r.family(
            "aware_shard_slow_queries_total",
            "counter",
            "Slow-query records emitted by the shard itself.",
        );
        for (addr, stats) in &per_shard {
            let labels = [("shard", addr.as_str())];
            for (q, v) in [
                ("0.5", stats.latency_p50_us),
                ("0.9", stats.latency_p90_us),
                ("0.99", stats.latency_p99_us),
                ("0.999", stats.latency_p999_us),
            ] {
                r.sample(
                    "aware_shard_latency_us",
                    &[("shard", addr.as_str()), ("quantile", q)],
                    v,
                );
            }
            r.sample(
                "aware_shard_slow_queries_total",
                &labels,
                stats.slow_queries,
            );
        }

        r.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aware_data::census::CensusGenerator;
    use aware_data::predicate::CmpOp;
    use aware_data::value::Value;
    use aware_serve::proto::{FilterSpec, PolicySpec, TranscriptFormat};
    use aware_serve::service::{Service, ServiceConfig};
    use aware_serve::tcp::TcpServer;

    /// A real shard: a Service behind a real TCP front end on a
    /// loopback port. Same census content on every shard (same seed).
    fn shard(seed: u64) -> (Service, TcpServer, String) {
        let service = Service::start(ServiceConfig::default());
        service
            .handle()
            .register_table("census", CensusGenerator::new(seed).generate(2_000));
        let server = TcpServer::bind("127.0.0.1:0", service.handle()).unwrap();
        let addr = server.local_addr().to_string();
        (service, server, addr)
    }

    fn join(handle: &RouterHandle, addr: &str) -> u64 {
        match handle.call(Command::JoinShard { addr: addr.into() }) {
            Response::Rebalanced {
                migrated, joined, ..
            } => {
                assert!(joined);
                migrated
            }
            other => panic!("join failed: {other:?}"),
        }
    }

    fn create(handle: &RouterHandle) -> SessionId {
        match handle.call(Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        }) {
            Response::SessionCreated { session, .. } => session,
            other => panic!("create failed: {other:?}"),
        }
    }

    fn viz(session: SessionId) -> Command {
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

    fn csv(handle: &RouterHandle, session: SessionId) -> String {
        match handle.call(Command::Transcript {
            session,
            format: TranscriptFormat::Csv,
        }) {
            Response::TranscriptText { text, .. } => text,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn routes_sessions_across_shards_and_aggregates_stats() {
        let (_s1, _t1, a1) = shard(7);
        let (_s2, _t2, a2) = shard(7);
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        assert_eq!(join(&h, &a1), 0);
        assert_eq!(join(&h, &a2), 0);
        assert_eq!(h.shards().len(), 2);

        let sids: Vec<SessionId> = (0..12).map(|_| create(&h)).collect();
        for &sid in &sids {
            assert!(h.call(viz(sid)).is_ok());
        }
        // Each shard holds exactly the sessions the ring places on it
        // for the ports actually bound (placement hashes the addresses,
        // so a one-sided split is rare but correct).
        let ring = Ring::with_members(DEFAULT_VNODES, [a1.as_str(), a2.as_str()]);
        match h.call(Command::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.sessions_live, 12, "cluster-wide live gauge");
                assert_eq!(s.shards.len(), 2);
                assert!(s.shards.iter().all(|sh| sh.healthy));
                for sh in &s.shards {
                    let placed = sids
                        .iter()
                        .filter(|&&sid| ring.route(sid) == Some(sh.addr.as_str()))
                        .count() as u64;
                    assert_eq!(sh.sessions_live, placed, "{:?}", s.shards);
                }
                assert!(s.forwarded >= 24, "creates + vizzes forwarded");
                assert_eq!(s.migrations, 0);
                assert!(s.hypotheses_tested >= 12);
            }
            other => panic!("{other:?}"),
        }
        // Closing through the router reaches the right shard.
        for &sid in &sids {
            assert!(h.call(Command::CloseSession { session: sid }).is_ok());
        }
        assert_eq!(h.live_sessions(), 0);
    }

    #[test]
    fn batches_fan_out_and_preserve_submission_order() {
        let (_s1, _t1, a1) = shard(7);
        let (_s2, _t2, a2) = shard(7);
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        join(&h, &a1);
        join(&h, &a2);
        let make = Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        };
        let created = Dispatch::call_batch_mode(
            &h,
            vec![make.clone(), make.clone(), make],
            BatchMode::Continue,
        );
        let sids: Vec<SessionId> = created
            .iter()
            .map(|r| match r {
                Response::SessionCreated { session, .. } => *session,
                other => panic!("{other:?}"),
            })
            .collect();
        // A mixed batch across all sessions plus an inline stats item.
        let batch = vec![
            viz(sids[0]),
            Command::Gauge { session: sids[1] },
            Command::Stats,
            viz(sids[2]),
            Command::Gauge { session: sids[0] },
        ];
        let responses = Dispatch::call_batch_mode(&h, batch, BatchMode::Continue);
        assert_eq!(responses.len(), 5);
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
            Response::VizAdded { session, .. } => assert_eq!(*session, sids[2]),
            other => panic!("{other:?}"),
        }
        match &responses[4] {
            Response::GaugeText { session, .. } => assert_eq!(*session, sids[0]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn join_migrates_only_remapped_sessions_with_state_intact() {
        let (_s1, _t1, a1) = shard(7);
        let (_s2, _t2, a2) = shard(7);
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        join(&h, &a1);
        join(&h, &a2);
        // 48 sessions: the chance that a third shard's join remaps
        // none of them (or all of them) is astronomically small, so the
        // migrated-count window below cannot flake on port-dependent
        // ring placement.
        let sids: Vec<SessionId> = (0..48).map(|_| create(&h)).collect();
        for &sid in &sids {
            assert!(h.call(viz(sid)).is_ok());
        }
        let before: Vec<String> = sids.iter().map(|&sid| csv(&h, sid)).collect();

        // A third shard joins mid-run: only the ring-remapped slice
        // moves, and every session keeps serving byte-identical state.
        let (_s3, _t3, a3) = shard(7);
        let migrated = join(&h, &a3);
        assert!(
            migrated > 0,
            "a 48-session cluster should remap some sessions"
        );
        assert!(
            migrated < sids.len() as u64,
            "a join must not reshuffle everything ({migrated} of {})",
            sids.len()
        );
        assert_eq!(h.migrations(), migrated);
        for (i, &sid) in sids.iter().enumerate() {
            assert_eq!(
                csv(&h, sid),
                before[i],
                "session {sid} changed across the join"
            );
        }
        // …and migrated sessions keep *evolving*: wealth continues from
        // where the ledger left off on the new shard.
        for &sid in &sids {
            assert!(h.call(viz(sid)).is_ok(), "session {sid} must keep serving");
        }
        match h.call(Command::Stats) {
            Response::Stats(s) => {
                assert_eq!(s.migrations, migrated);
                assert_eq!(s.sessions_live, 48);
                assert_eq!(s.shards.len(), 3);
            }
            other => panic!("{other:?}"),
        }

        // Leave: the third shard's sessions move back out; nothing lost.
        match h.call(Command::LeaveShard { addr: a3.clone() }) {
            Response::Rebalanced { joined, .. } => assert!(!joined),
            other => panic!("{other:?}"),
        }
        assert_eq!(h.shards().len(), 2);
        for &sid in &sids {
            assert!(h.call(Command::Gauge { session: sid }).is_ok());
        }
        assert_eq!(h.live_sessions(), 48);
    }

    #[test]
    fn dead_shard_answers_unavailable_never_a_fresh_budget() {
        let (_s1, _t1, a1) = shard(7);
        let (s2, t2, a2) = shard(7);
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        join(&h, &a1);
        join(&h, &a2);
        let sids: Vec<SessionId> = (0..8).map(|_| create(&h)).collect();

        // Kill shard 2 (service and front end both).
        drop(t2);
        s2.shutdown();

        let mut unavailable_seen = 0;
        let mut ok_seen = 0;
        for &sid in &sids {
            match h.call(Command::Gauge { session: sid }) {
                Response::GaugeText { .. } => ok_seen += 1,
                Response::Error(e) => {
                    assert_eq!(e.code, ErrorCode::Unavailable, "{e}");
                    unavailable_seen += 1;
                }
                other => panic!("{other:?}"),
            }
        }
        assert!(ok_seen > 0, "shard 1's sessions keep serving");
        assert!(
            unavailable_seen > 0,
            "shard 2's sessions answer unavailable"
        );
        // shard_errors counted against the dying shard (a drained
        // service answers `shutdown` even to stats probes, so the
        // router's health check sees in-process death the same way the
        // multi-process conformance suite sees a SIGKILL).
        match h.call(Command::Stats) {
            Response::Stats(s) => assert!(s.shard_errors > 0),
            other => panic!("{other:?}"),
        }
        // Leaving a dead shard is refused (migration needs its data) —
        // sessions stay pinned, unavailable, never reset.
        match h.call(Command::LeaveShard { addr: a2.clone() }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Unavailable),
            other => panic!("leave of a dead shard must fail: {other:?}"),
        }
    }

    #[test]
    fn join_refuses_a_shard_with_different_data_under_the_same_name() {
        let (_s1, _t1, a1) = shard(7);
        let (_s2, _t2, a2) = shard(8); // different seed ⇒ different census content
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        join(&h, &a1);
        match h.call(Command::JoinShard { addr: a2 }) {
            Response::Error(e) => {
                assert_eq!(e.code, ErrorCode::InvalidArgument);
                assert!(e.message.contains("roster"), "{e}");
            }
            other => panic!("mismatched shard must be refused: {other:?}"),
        }
        assert_eq!(h.shards().len(), 1);
    }

    fn stats_of(h: &RouterHandle) -> StatsSnapshot {
        match h.call(Command::Stats) {
            Response::Stats(s) => *s,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn replication_ships_and_failover_promotes_with_transcripts_byte_identical() {
        let (_s1, _t1, a1) = shard(7);
        let (s2, t2, a2) = shard(7);
        let router = Router::start(RouterConfig {
            replicas: 1,
            ..RouterConfig::default()
        });
        let h = router.handle();
        join(&h, &a1);
        join(&h, &a2);
        // 12 sessions: a one-sided ring split is astronomically
        // unlikely, so both shards hold primaries (asserted below) and
        // the kill provably exercises promotion.
        let sids: Vec<SessionId> = (0..12).map(|_| create(&h)).collect();
        for &sid in &sids {
            assert!(h.call(viz(sid)).is_ok());
        }
        let s = stats_of(&h);
        assert!(
            s.shards.iter().all(|sh| sh.sessions_live > 0),
            "both shards should hold primaries: {:?}",
            s.shards
        );

        // One round ships every session once; the lag gauge then
        // proves the replicas hold the latest shipped state.
        assert_eq!(h.replicate_now(), sids.len() as u64);
        assert_eq!(h.replication_lag(), 0);
        assert_eq!(stats_of(&h).replicas_live, sids.len() as u64);
        // Every read goes to the primary; these transcripts are what
        // the promoted replicas must reproduce.
        let before: Vec<String> = sids.iter().map(|&sid| csv(&h, sid)).collect();
        // Everything clean and placed: a second round ships nothing.
        assert_eq!(h.replicate_now(), 0);

        // Kill shard 2. One missed probe only *suspects* (no ring
        // flap); the second confirms death and fails its sessions over
        // to their verified replicas on shard 1.
        drop(t2);
        s2.shutdown();
        h.probe_now();
        assert_eq!(h.shards().len(), 2, "one miss must not flap the ring");
        h.probe_now();
        assert_eq!(h.shards(), vec![a1.clone()]);

        for (i, &sid) in sids.iter().enumerate() {
            assert_eq!(
                csv(&h, sid),
                before[i],
                "session {sid} changed across the failover"
            );
            assert!(
                h.call(viz(sid)).is_ok(),
                "session {sid} must keep serving after failover"
            );
        }
        let s = stats_of(&h);
        assert!(s.promotions > 0, "failover performed verified promotions");
        assert_eq!(s.sessions_live, sids.len() as u64);
        assert_eq!(s.shards.len(), 1);
    }

    /// The service whose shard listens on `addr`.
    fn service_at<'a>(shards: &[(&'a Service, &str)], addr: &str) -> &'a Service {
        shards
            .iter()
            .find(|(_, a)| *a == addr)
            .map(|(service, _)| *service)
            .expect("one of ours")
    }

    #[test]
    fn single_and_batch_creates_walk_past_ids_the_shards_already_hold() {
        let (s1, _t1, a1) = shard(7);
        let (s2, _t2, a2) = shard(7);
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        join(&h, &a1);
        join(&h, &a2);
        let shards = [(&s1, a1.as_str()), (&s2, a2.as_str())];
        // Creates the router's next `n` ids directly on their owning
        // shards, behind the router's back.
        let occupy = |n: u64| -> Vec<SessionId> {
            let next = h.inner.next_session.load(Ordering::Relaxed);
            let ids: Vec<SessionId> = (next..next + n).collect();
            for &id in &ids {
                let owner = h.inner.topology.read().unwrap().route(id).unwrap();
                let reply = service_at(&shards, &owner)
                    .handle()
                    .call(Command::CreateSessionAs {
                        session: id,
                        dataset: "census".into(),
                        alpha: 0.05,
                        policy: PolicySpec::Fixed { gamma: 10.0 },
                    });
                assert!(
                    matches!(reply, Response::SessionCreated { .. }),
                    "{reply:?}"
                );
            }
            ids
        };
        let mut taken = occupy(3);
        let mut fresh = vec![create(&h)];
        taken.extend(occupy(3));
        let make = Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        };
        for reply in Dispatch::call_batch_mode(&h, vec![make; 3], BatchMode::Continue) {
            match reply {
                Response::SessionCreated { session, .. } => fresh.push(session),
                other => panic!("a batch create must walk past held ids: {other:?}"),
            }
        }
        let mut distinct = fresh.clone();
        distinct.sort_unstable();
        distinct.dedup();
        assert_eq!(distinct.len(), 4, "{fresh:?}");
        assert!(
            fresh.iter().all(|id| !taken.contains(id)),
            "{fresh:?} vs {taken:?}"
        );
        assert_eq!(h.live_sessions(), 4);
        for &sid in &fresh {
            assert!(h.call(viz(sid)).is_ok(), "session {sid} must serve");
        }
    }

    #[test]
    fn reads_are_forwarded_once_and_never_served_from_a_replica() {
        let (s1, _t1, a1) = shard(7);
        let (s2, t2, a2) = shard(7);
        let router = Router::start(RouterConfig {
            replicas: 1,
            ..RouterConfig::default()
        });
        let h = router.handle();
        join(&h, &a1);
        join(&h, &a2);
        let shards = [(&s1, a1.as_str()), (&s2, a2.as_str())];
        let sids: Vec<SessionId> = (0..12).map(|_| create(&h)).collect();
        for &sid in &sids {
            assert!(h.call(viz(sid)).is_ok());
        }
        assert!(
            stats_of(&h).shards.iter().all(|sh| sh.sessions_live > 0),
            "both shards should hold primaries"
        );
        // Clean and fully shipped: every replica holds the latest image.
        assert_eq!(h.replicate_now(), sids.len() as u64);
        assert_eq!(h.replication_lag(), 0);

        let forwarded = || h.inner.metrics.get(Stat::forwarded);
        let reads = |session| {
            vec![
                Command::Gauge { session },
                Command::Transcript {
                    session,
                    format: TranscriptFormat::Csv,
                },
            ]
        };
        let mut before: Vec<Vec<Response>> = Vec::new();
        for &sid in &sids {
            let primary = h.inner.topology.read().unwrap().route(sid).unwrap();
            let holders: Vec<String> = h.inner.sessions.lock().unwrap()[&sid]
                .replicas
                .iter()
                .map(|(addr, _)| addr.clone())
                .collect();
            assert_eq!(holders.len(), 1);
            assert_ne!(holders[0], primary);
            let mut alone = Vec::new();
            for cmd in reads(sid) {
                let at = forwarded();
                let reply = h.call(cmd.clone());
                assert_eq!(forwarded(), at + 1, "one read, one forward");
                assert_eq!(reply, service_at(&shards, &primary).handle().call(cmd));
                alone.push(reply);
            }
            let at = forwarded();
            let batched = Dispatch::call_batch_mode(&h, reads(sid), BatchMode::Continue);
            assert_eq!(forwarded(), at + 2);
            assert_eq!(batched, alone);
            // The replica holder answers as for a session it does not hold.
            for cmd in reads(sid) {
                assert_eq!(
                    service_at(&shards, &holders[0]).handle().call(cmd),
                    Response::Error(ServeError::unknown_session(sid))
                );
            }
            before.push(alone);
        }

        // The replicas still promote byte-identically.
        drop(t2);
        s2.shutdown();
        h.probe_now();
        h.probe_now();
        assert_eq!(h.shards(), vec![a1.clone()]);
        assert!(stats_of(&h).promotions > 0);
        for (i, &sid) in sids.iter().enumerate() {
            let after: Vec<Response> = reads(sid).into_iter().map(|cmd| h.call(cmd)).collect();
            assert_eq!(
                after, before[i],
                "session {sid} changed across the failover"
            );
        }
    }

    #[test]
    fn router_restart_rebuilds_placement_from_shard_inventory() {
        let (_s1, _t1, a1) = shard(7);
        let first = Router::start(RouterConfig::default());
        let h = first.handle();
        join(&h, &a1);
        let sids: Vec<SessionId> = (0..4).map(|_| create(&h)).collect();
        for &sid in &sids {
            assert!(h.call(viz(sid)).is_ok());
        }
        let before: Vec<String> = sids.iter().map(|&sid| csv(&h, sid)).collect();
        drop(h);
        drop(first); // the router restarts with no memory of the shard

        let second = Router::start(RouterConfig::default());
        let h = second.handle();
        join(&h, &a1);
        assert_eq!(
            h.live_sessions(),
            sids.len() as u64,
            "join-time inventory recovers the placement"
        );
        for (i, &sid) in sids.iter().enumerate() {
            assert_eq!(csv(&h, sid), before[i]);
        }
        // The allocator seated above every recovered id: a new create
        // works and collides with nothing.
        let fresh = create(&h);
        assert!(!sids.contains(&fresh));
        assert!(h.call(viz(fresh)).is_ok());
    }

    #[test]
    fn replication_commands_are_shard_internal_at_the_router() {
        let (_s1, _t1, a1) = shard(7);
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        join(&h, &a1);
        let sid = create(&h);
        for cmd in [
            Command::SnapshotSession { session: sid },
            Command::PromoteReplica { session: sid },
            Command::DropReplica { session: sid },
            Command::ReplicateSession {
                session: sid,
                epoch: 1,
                image: vec![1, 2, 3],
            },
            Command::ListSessions,
            Command::Gossip {
                from: "client".into(),
                generation: 9,
                members: Vec::new(),
            },
        ] {
            match h.call(cmd) {
                Response::Error(e) => {
                    assert_eq!(e.code, ErrorCode::InvalidArgument);
                    assert!(e.message.contains("shard-internal"), "{e}");
                }
                other => panic!("{other:?}"),
            }
        }
        // The batch path classifies them inline — same refusal, and the
        // rest of the batch still executes.
        let responses = Dispatch::call_batch_mode(
            &h,
            vec![Command::ListSessions, Command::Gauge { session: sid }],
            BatchMode::Continue,
        );
        assert!(
            matches!(&responses[0], Response::Error(e) if e.code == ErrorCode::InvalidArgument)
        );
        assert!(matches!(&responses[1], Response::GaugeText { .. }));
    }

    #[test]
    fn empty_ring_refuses_with_unavailable() {
        let router = Router::start(RouterConfig::default());
        let h = router.handle();
        match h.call(Command::CreateSession {
            dataset: "census".into(),
            alpha: 0.05,
            policy: PolicySpec::Fixed { gamma: 10.0 },
        }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Unavailable),
            other => panic!("{other:?}"),
        }
        match h.call(Command::Gauge { session: 3 }) {
            Response::Error(e) => assert_eq!(e.code, ErrorCode::Unavailable),
            other => panic!("{other:?}"),
        }
    }
}
