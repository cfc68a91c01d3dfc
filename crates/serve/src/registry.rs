//! The sharded session registry.
//!
//! Sessions live behind [`SHARDS`] shards of `RwLock<HashMap<SessionId,
//! Arc<SessionEntry>>>`, so lookups from many connection threads contend
//! only on the shard they hash to, and an eviction sweep never stops
//! the world. The entry's `Mutex<Session>` serializes *statistical*
//! state per session — the α-investing guarantee is sequential, so a
//! session's decisions must happen one at a time even though the map
//! itself is freely concurrent.
//!
//! Recency is tracked twice per entry, because its two consumers need
//! different properties: the **idle sweep** compares wall-clock
//! milliseconds since the registry epoch (a timeout is a duration), while
//! **LRU admission eviction** orders by a registry-global monotone touch
//! sequence — milliseconds are too coarse there, since under load many
//! touches share one millisecond and a "touched after the scan" re-check
//! on ms stamps could still evict an actively-used session.
//!
//! Admission eviction is *sampled* past [`LRU_EXACT_THRESHOLD`] live
//! sessions (Redis-style: draw a uniformly random shard, evict its
//! oldest entry), so a full registry pays O(live/shards) under one
//! lock per create instead of an O(live) all-shard scan; the exact
//! scan survives for small registries and as the fallback when drawn
//! shards are empty. Safety never depends on the choice being exact —
//! any candidate is re-checked for freshness under the shard write
//! lock before removal.

use crate::proto::{BoxedPolicy, PolicySpec, SessionId};
use aware_core::session::Session;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::Instant;

/// A session as the service stores it: dynamic policy, shared table.
pub type ServedSession = Session<BoxedPolicy>;

/// Persistence bookkeeping the session itself cannot carry: which
/// dataset it explores and which wire-level policy spec is active (the
/// boxed policy object is opaque — the spec is what a snapshot stores
/// and a restore rebuilds from).
#[derive(Debug, Clone)]
pub struct SessionMeta {
    /// Name of the registered dataset the session was opened on.
    pub dataset: String,
    /// Content fingerprint of the dataset's table at session-open (or
    /// restore/import) time — stamped into every snapshot image so a
    /// restore on another process can prove it holds the same table.
    pub fingerprint: u64,
    /// The policy spec currently in force.
    pub policy: PolicySpec,
    /// Ledger index at which `policy` was installed (0 = at creation);
    /// restore replays `observe` from here.
    pub policy_since: u64,
}

/// One registered session plus its bookkeeping.
pub struct SessionEntry {
    /// The session's id (key in its shard).
    pub id: SessionId,
    /// The serialized session state, locked for the duration of one
    /// command.
    pub session: Mutex<ServedSession>,
    /// Persistence metadata (dataset name, active policy spec).
    pub meta: Mutex<SessionMeta>,
    /// Set by state-mutating commands, cleared when a snapshot of the
    /// session reaches disk — the periodic snapshotter skips clean
    /// sessions.
    dirty: AtomicBool,
    /// Milliseconds since the registry epoch at last use (idle sweeps).
    last_used_ms: AtomicU64,
    /// Registry-global touch sequence at last use (LRU ordering).
    touch_seq: AtomicU64,
}

impl SessionEntry {
    /// Recency in epoch-milliseconds.
    pub fn last_used_ms(&self) -> u64 {
        self.last_used_ms.load(Ordering::Relaxed)
    }

    /// Recency in the registry's monotone touch sequence.
    pub fn touch_seq(&self) -> u64 {
        self.touch_seq.load(Ordering::Relaxed)
    }

    /// Marks the session as changed since its last durable snapshot.
    pub fn mark_dirty(&self) {
        self.dirty.store(true, Ordering::Release);
    }

    /// True when the session changed since its last durable snapshot.
    pub fn is_dirty(&self) -> bool {
        self.dirty.load(Ordering::Acquire)
    }

    /// Clears the dirty flag (call with the session mutex held, after
    /// capturing the snapshot that will be written).
    pub fn clear_dirty(&self) {
        self.dirty.store(false, Ordering::Release);
    }
}

/// Live-session count at or below which [`Registry::lru_candidate`]
/// scans exactly instead of sampling — an exact scan over a few dozen
/// entries is cheaper than worrying about sample coverage.
pub const LRU_EXACT_THRESHOLD: u64 = 64;

/// Registry shard count (a constant, not a knob: it only spreads lock
/// contention, and the sampled eviction scans one shard's population).
pub const SHARDS: usize = 16;

/// Sharded id → session map.
pub struct Registry {
    shards: [RwLock<HashMap<SessionId, Arc<SessionEntry>>>; SHARDS],
    epoch: Instant,
    seq: AtomicU64,
    live: AtomicU64,
    /// xorshift64 state for sampled eviction.
    rng: AtomicU64,
}

impl Default for Registry {
    /// An empty registry.
    fn default() -> Registry {
        Registry {
            shards: std::array::from_fn(|_| RwLock::new(HashMap::new())),
            epoch: Instant::now(),
            seq: AtomicU64::new(0),
            live: AtomicU64::new(0),
            rng: AtomicU64::new(0x9E3779B97F4A7C15),
        }
    }
}

impl Registry {
    fn shard(&self, id: SessionId) -> &RwLock<HashMap<SessionId, Arc<SessionEntry>>> {
        // Ids are sequential; a multiplicative hash spreads neighbours
        // across shards so one busy tenant block doesn't pile onto one lock.
        let h = id.wrapping_mul(0x9E3779B97F4A7C15) >> 32;
        &self.shards[(h as usize) % SHARDS]
    }

    /// Milliseconds since the registry was created.
    pub fn now_ms(&self) -> u64 {
        self.epoch.elapsed().as_millis() as u64
    }

    fn touch(&self, entry: &SessionEntry) {
        entry.last_used_ms.store(self.now_ms(), Ordering::Relaxed);
        let seq = self.seq.fetch_add(1, Ordering::Relaxed) + 1;
        entry.touch_seq.store(seq, Ordering::Relaxed);
    }

    /// Number of live sessions.
    pub fn len(&self) -> u64 {
        self.live.load(Ordering::Relaxed)
    }

    /// True when no sessions are registered.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Inserts a fresh (or freshly restored) session under `id`,
    /// stamping it used-now.
    pub fn insert(
        &self,
        id: SessionId,
        session: ServedSession,
        meta: SessionMeta,
    ) -> Arc<SessionEntry> {
        let entry = Arc::new(SessionEntry {
            id,
            session: Mutex::new(session),
            meta: Mutex::new(meta),
            dirty: AtomicBool::new(false),
            last_used_ms: AtomicU64::new(0),
            touch_seq: AtomicU64::new(0),
        });
        self.touch(&entry);
        let prev = self.shard(id).write().unwrap().insert(id, entry.clone());
        debug_assert!(prev.is_none(), "session ids are unique by construction");
        self.live.fetch_add(1, Ordering::Relaxed);
        entry
    }

    /// Inserts a session under a caller-chosen id, refusing (without
    /// effect) when the id is already live — the import/preassigned-
    /// create path, where the id arrives from outside the shard's own
    /// allocator. The check and the insert happen under one shard
    /// write lock, so two racing imports of the same id cannot both
    /// win.
    pub fn try_insert(
        &self,
        id: SessionId,
        session: ServedSession,
        meta: SessionMeta,
    ) -> Option<Arc<SessionEntry>> {
        let entry = Arc::new(SessionEntry {
            id,
            session: Mutex::new(session),
            meta: Mutex::new(meta),
            dirty: AtomicBool::new(false),
            last_used_ms: AtomicU64::new(0),
            touch_seq: AtomicU64::new(0),
        });
        self.touch(&entry);
        {
            let mut shard = self.shard(id).write().unwrap();
            if shard.contains_key(&id) {
                return None;
            }
            shard.insert(id, entry.clone());
        }
        self.live.fetch_add(1, Ordering::Relaxed);
        Some(entry)
    }

    /// Looks up a session and bumps its recency.
    pub fn get(&self, id: SessionId) -> Option<Arc<SessionEntry>> {
        let entry = self.shard(id).read().unwrap().get(&id).cloned()?;
        self.touch(&entry);
        Some(entry)
    }

    /// Looks up a session *without* bumping its recency — the spill
    /// paths use this so snapshotting a victim doesn't make it look
    /// freshly used and dodge its own eviction.
    pub fn peek(&self, id: SessionId) -> Option<Arc<SessionEntry>> {
        self.shard(id).read().unwrap().get(&id).cloned()
    }

    /// True while `entry` is the one registered under its id — false
    /// once an eviction, close or export has unlinked it.
    pub fn holds(&self, entry: &Arc<SessionEntry>) -> bool {
        let shard = self.shard(entry.id).read().unwrap();
        shard.get(&entry.id).is_some_and(|e| Arc::ptr_eq(e, entry))
    }

    /// Every live entry (the periodic snapshotter walks these).
    pub fn entries(&self) -> Vec<Arc<SessionEntry>> {
        let mut out = Vec::new();
        for shard in &self.shards {
            out.extend(shard.read().unwrap().values().cloned());
        }
        out
    }

    /// Unlinks a session; in-flight holders of the `Arc` finish their
    /// command, after which the state drops.
    pub fn remove(&self, id: SessionId) -> Option<Arc<SessionEntry>> {
        let removed = self.shard(id).write().unwrap().remove(&id);
        if removed.is_some() {
            self.live.fetch_sub(1, Ordering::Relaxed);
        }
        removed
    }

    /// Removes `id` only if it is still idle past `cutoff_ms`, checked
    /// under the shard's write lock so a just-touched session survives.
    pub fn remove_if_idle(&self, id: SessionId, cutoff_ms: u64) -> bool {
        let mut shard = self.shard(id).write().unwrap();
        match shard.get(&id) {
            Some(entry) if entry.last_used_ms() < cutoff_ms => {
                shard.remove(&id);
                self.live.fetch_sub(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }

    /// Ids of sessions idle since before `cutoff_ms` (epoch-relative).
    pub fn idle_ids(&self, cutoff_ms: u64) -> Vec<SessionId> {
        let mut ids = Vec::new();
        for shard in &self.shards {
            for entry in shard.read().unwrap().values() {
                if entry.last_used_ms() < cutoff_ms {
                    ids.push(entry.id);
                }
            }
        }
        ids
    }

    /// An eviction candidate with the touch sequence observed during
    /// the scan — used when the registry is full. The sequence is
    /// globally monotone, so "touched after the scan" is exact (ties on
    /// ms timestamps cannot hide a touch). Pass the observed sequence
    /// to [`Self::remove_if_unused_since`].
    ///
    /// Small registries (≤ [`LRU_EXACT_THRESHOLD`] live sessions) get
    /// the exact least-recently-used session. Beyond that the cost of
    /// an exact scan — O(live) across every shard lock, paid on
    /// *every* create once the registry sits at capacity — buys
    /// nothing a Redis-style sample does not: one random shard is
    /// scanned and its oldest entry is the candidate, an O(live/shards)
    /// single-lock approximation whose victims sit in the oldest tail
    /// of the recency distribution with overwhelming probability.
    /// Either way the caller re-checks recency under the shard write
    /// lock before removal, so an actively-used session never falls to
    /// eviction.
    pub fn lru_candidate(&self) -> Option<(SessionId, u64)> {
        if self.len() <= LRU_EXACT_THRESHOLD {
            self.lru_candidate_exact()
        } else {
            self.lru_candidate_sampled()
        }
    }

    /// Exact full scan over every shard.
    fn lru_candidate_exact(&self) -> Option<(SessionId, u64)> {
        let mut best: Option<(u64, SessionId)> = None;
        for shard in &self.shards {
            for entry in shard.read().unwrap().values() {
                let key = (entry.touch_seq(), entry.id);
                if best.is_none() || key < best.unwrap() {
                    best = Some(key);
                }
            }
        }
        best.map(|(seq, id)| (id, seq))
    }

    /// Sampled scan: draw one random shard and evict-candidate its
    /// oldest entry — the sample is the shard's whole population, so
    /// the candidate is the true LRU of a uniformly random 1/shards
    /// slice of the registry. One pass, one read lock, O(live/shards):
    /// `HashMap` offers no O(1) random access, so any K-point sample
    /// would pay the same iterator walk for a strictly worse candidate.
    /// Uniformity across shards is load-bearing, not cosmetic: a fixed
    /// probe window could wedge admission if exactly those entries were
    /// hot, whereas here a failed re-check just re-draws a shard. Falls
    /// back to the exact scan if the drawn shards are empty — possible
    /// only under heavy concurrent removal. (True O(1) sampling needs
    /// an auxiliary dense index.)
    fn lru_candidate_sampled(&self) -> Option<(SessionId, u64)> {
        for _ in 0..4 {
            let r = self.next_rand();
            let shard = &self.shards[(r as usize >> 8) % SHARDS];
            let shard = shard.read().unwrap();
            let mut best: Option<(u64, SessionId)> = None;
            for entry in shard.values() {
                let key = (entry.touch_seq(), entry.id);
                if best.is_none() || key < best.unwrap() {
                    best = Some(key);
                }
            }
            if let Some((seq, id)) = best {
                return Some((id, seq));
            }
        }
        self.lru_candidate_exact()
    }

    /// Next value of the sampling generator (xorshift64; racy updates
    /// under contention merely repeat a draw, which is harmless).
    fn next_rand(&self) -> u64 {
        let mut x = self.rng.load(Ordering::Relaxed);
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.rng.store(x, Ordering::Relaxed);
        x
    }

    /// Removes `id` only if its touch sequence has not advanced past
    /// `observed_seq` since the caller's scan, checked under the shard's
    /// write lock — an actively-used session never falls to LRU eviction.
    pub fn remove_if_unused_since(&self, id: SessionId, observed_seq: u64) -> bool {
        let mut shard = self.shard(id).write().unwrap();
        match shard.get(&id) {
            Some(entry) if entry.touch_seq() <= observed_seq => {
                shard.remove(&id);
                self.live.fetch_sub(1, Ordering::Relaxed);
                true
            }
            _ => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::PolicySpec;
    use aware_data::census::CensusGenerator;

    fn session(table: &Arc<aware_data::table::Table>) -> ServedSession {
        Session::shared(
            table.clone(),
            0.05,
            PolicySpec::Fixed { gamma: 10.0 }.build().unwrap(),
        )
        .unwrap()
    }

    fn meta() -> SessionMeta {
        SessionMeta {
            dataset: "census".into(),
            fingerprint: 0,
            policy: PolicySpec::Fixed { gamma: 10.0 },
            policy_since: 0,
        }
    }

    #[test]
    fn try_insert_refuses_a_live_id() {
        let table = Arc::new(CensusGenerator::new(9).generate(100));
        let reg = Registry::default();
        assert!(reg.try_insert(7, session(&table), meta()).is_some());
        assert!(reg.try_insert(7, session(&table), meta()).is_none());
        assert_eq!(reg.len(), 1);
        reg.remove(7);
        assert!(reg.try_insert(7, session(&table), meta()).is_some());
    }

    #[test]
    fn insert_get_remove_lifecycle() {
        let table = Arc::new(CensusGenerator::new(1).generate(200));
        let reg = Registry::default();
        assert!(reg.is_empty());
        reg.insert(0, session(&table), meta());
        reg.insert(1, session(&table), meta());
        assert_eq!(reg.len(), 2);
        assert!(reg.get(0).is_some());
        assert!(reg.get(99).is_none());
        assert!(reg.remove(0).is_some());
        assert!(reg.remove(0).is_none());
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn sessions_share_one_table() {
        let table = Arc::new(CensusGenerator::new(2).generate(100));
        let reg = Registry::default();
        for id in 0..50 {
            reg.insert(id, session(&table), meta());
        }
        // 50 sessions + this handle: 51 strong refs, one table.
        assert_eq!(Arc::strong_count(&table), 51);
    }

    #[test]
    fn touch_sequence_orders_lru_exactly() {
        let table = Arc::new(CensusGenerator::new(3).generate(100));
        let reg = Registry::default();
        for id in 0..4 {
            reg.insert(id, session(&table), meta());
        }
        // Insertion order is the initial LRU order, even though all four
        // inserts very likely landed in the same millisecond.
        let (victim, _) = reg.lru_candidate().unwrap();
        assert_eq!(victim, 0);
        // Touching 0 makes 1 the LRU.
        reg.get(0).unwrap();
        let (victim, _) = reg.lru_candidate().unwrap();
        assert_eq!(victim, 1);
        // Touching everything in reverse order makes 3 the LRU.
        for id in (0..4u64).rev() {
            reg.get(id).unwrap();
        }
        let (victim, _) = reg.lru_candidate().unwrap();
        assert_eq!(victim, 3);
    }

    #[test]
    fn idle_scan_uses_wall_clock_ms() {
        let table = Arc::new(CensusGenerator::new(4).generate(100));
        let reg = Registry::default();
        for id in 0..3 {
            reg.insert(id, session(&table), meta());
        }
        // Deterministic recency without sleeping: stamp ms by hand.
        for id in 0..3u64 {
            reg.get(id)
                .unwrap()
                .last_used_ms
                .store(10 * id, Ordering::Relaxed);
        }
        let mut idle = reg.idle_ids(15);
        idle.sort_unstable();
        assert_eq!(idle, vec![0, 1]);
        assert!(reg.remove_if_idle(0, 15));
        assert!(!reg.remove_if_idle(2, 15), "still fresh");
        assert_eq!(reg.len(), 2);
    }

    #[test]
    fn sampled_eviction_avoids_the_hot_tail_and_respects_the_recheck() {
        let table = Arc::new(CensusGenerator::new(6).generate(100));
        let reg = Registry::default();
        let total: u64 = 4 * LRU_EXACT_THRESHOLD; // well into the sampled regime
        for id in 0..total {
            reg.insert(id, session(&table), meta());
        }
        // Touch everything once in id order so recency is fully known;
        // the most recent 8 are the ids at the end.
        for id in 0..total {
            reg.get(id).unwrap();
        }
        let hottest: Vec<SessionId> = (total - 8..total).collect();
        // The candidate is the oldest entry of a random shard; landing
        // in the hottest 8 of 256 would require a whole shard (~16
        // entries) to fit inside those 8 — impossible by pigeonhole.
        let (victim, seq) = reg.lru_candidate().unwrap();
        assert!(
            !hottest.contains(&victim),
            "sampled eviction picked one of the most recently used sessions"
        );
        // Touched-after-scan still survives, exactly as on the exact path.
        reg.get(victim).unwrap();
        assert!(!reg.remove_if_unused_since(victim, seq));
        // Under churn the sampled candidates keep the registry draining:
        // every fresh scan must yield an evictable session.
        while reg.len() > LRU_EXACT_THRESHOLD {
            let before = reg.len();
            let (victim, seq) = reg.lru_candidate().unwrap();
            assert!(reg.remove_if_unused_since(victim, seq));
            assert_eq!(reg.len(), before - 1);
        }
    }

    #[test]
    fn stale_lru_candidate_survives_removal() {
        let table = Arc::new(CensusGenerator::new(5).generate(100));
        let reg = Registry::default();
        reg.insert(0, session(&table), meta());
        let (victim, seq) = reg.lru_candidate().unwrap();
        // The session is touched after the scan (same millisecond is
        // fine — the sequence is what's compared)…
        reg.get(victim).unwrap();
        // …so the stale candidate must not be evicted.
        assert!(!reg.remove_if_unused_since(victim, seq));
        assert_eq!(reg.len(), 1);
        // A fresh scan observes the new sequence and may evict.
        let (victim, seq) = reg.lru_candidate().unwrap();
        assert!(reg.remove_if_unused_since(victim, seq));
        assert_eq!(reg.len(), 0);
        assert!(
            !reg.remove_if_unused_since(victim, u64::MAX),
            "already gone"
        );
    }
}
