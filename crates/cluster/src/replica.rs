//! Replication planning: the pure bookkeeping under `aware-replica`.
//!
//! The router keeps one [`SessState`] per live session — the shipped
//! replication epoch, a dirty bit, and the set of acked replica
//! holders. Everything *decidable without I/O* lives here, unit-tested
//! without sockets: which shards should hold replicas
//! ([`desired_replicas`]), whether a ship is due ([`needs_ship`]), how
//! acks merge across partial rounds ([`merge_acks`]), in which order
//! failover tries candidates ([`promotion_order`]), and how far behind
//! the replicas are ([`lag`]). The router's replication round and
//! failover are thin I/O drivers over these.
//!
//! The epoch is the ordering spine: it bumps on every ship, a replica
//! refuses anything older than what it holds, and promotion picks the
//! highest *acked* epoch — so the promoted ledger is provably the last
//! state the primary confirmed shipped, never something older racing
//! in from a slow packet.
//!
//! That is the last state a replica acked, not the last state the
//! client was acked. Replication is asynchronous: a decision acked
//! after the last complete ship only sets `dirty`, and promotion
//! never reads `dirty`. Such a decision is lost at promotion, and the
//! client can run the same test again with a fresh bid. The ROADMAP
//! Queue item "Close the failover rewind window" tracks the fix; the
//! failover conformance tests wait for a replication lag of 0 before
//! each kill, so they do not exercise this window.

use crate::ring::Ring;
use aware_serve::proto::SessionId;

/// Per-session replication state, as the router tracks it.
#[derive(Debug, Clone, Default)]
pub struct SessState {
    /// Highest replication epoch shipped (0 = never shipped).
    pub epoch: u64,
    /// True when the session mutated since the last complete ship.
    pub dirty: bool,
    /// True when the router knows a live primary serves this session.
    /// False for entries rebuilt from a shard's *replica* inventory
    /// whose primary has not rejoined yet — those can be promoted but
    /// must not be shipped, migrated, or treated as placed.
    pub primary_known: bool,
    /// Acked replica holders: `(addr, acked epoch)`.
    pub replicas: Vec<(String, u64)>,
}

impl SessState {
    /// The state of a freshly created (or imported, or promoted)
    /// session: nothing shipped, replication due.
    pub fn new_dirty() -> SessState {
        SessState {
            epoch: 0,
            dirty: true,
            primary_known: true,
            replicas: Vec::new(),
        }
    }

    /// The highest epoch any holder acked for `addr`, if any.
    pub fn acked(&self, addr: &str) -> Option<u64> {
        self.replicas
            .iter()
            .find(|(a, _)| a == addr)
            .map(|&(_, e)| e)
    }
}

/// The `r` shards that should hold warm replicas of `id`: the ring's
/// successor walk with the current primary filtered out. The primary
/// is passed in (not recomputed) because a failover override can put
/// it anywhere on the ring.
pub fn desired_replicas(ring: &Ring, id: SessionId, primary: &str, r: usize) -> Vec<String> {
    ring.successors(id, r + 1)
        .into_iter()
        .filter(|addr| *addr != primary)
        .take(r)
        .map(str::to_string)
        .collect()
}

/// True when a replication round must ship this session: it mutated,
/// or the desired holder set drifted from the acked one (a failover or
/// rebalance moved its ring neighborhood).
pub fn needs_ship(state: &SessState, desired: &[String]) -> bool {
    if state.dirty {
        return true;
    }
    desired.len() != state.replicas.len() || desired.iter().any(|addr| state.acked(addr).is_none())
}

/// Folds one replication round into the state: `epoch` was shipped,
/// `acked` holders confirmed it. Holders no longer desired are
/// returned for the caller to send `drop_replica` to; desired holders
/// that missed this round keep their previous ack (their epoch is
/// stale but their image is still promotable). The dirty bit clears
/// only when every desired holder acked — a partial round leaves the
/// session due for the next one.
pub fn merge_acks(
    state: &mut SessState,
    desired: &[String],
    epoch: u64,
    acked: &[String],
) -> Vec<String> {
    let stale: Vec<String> = state
        .replicas
        .iter()
        .filter(|(addr, _)| !desired.contains(addr))
        .map(|(addr, _)| addr.clone())
        .collect();
    let mut next: Vec<(String, u64)> = Vec::with_capacity(desired.len());
    for addr in desired {
        if acked.iter().any(|a| a == addr) {
            next.push((addr.clone(), epoch));
        } else if let Some(previous) = state.acked(addr) {
            next.push((addr.clone(), previous));
        }
    }
    state.epoch = epoch;
    state.dirty = acked.len() < desired.len();
    state.replicas = next;
    stale
}

/// Failover candidates, best first: highest acked epoch wins (ties
/// break by address for determinism). The promoted ledger is the
/// freshest state any replica *confirmed* holding.
pub fn promotion_order(state: &SessState) -> Vec<(String, u64)> {
    let mut candidates = state.replicas.clone();
    candidates.sort_by(|(a_addr, a_epoch), (b_addr, b_epoch)| {
        b_epoch.cmp(a_epoch).then_with(|| a_addr.cmp(b_addr))
    });
    candidates
}

/// How many epochs the worst desired replica trails the primary. The
/// target is `epoch + 1` while dirty (a ship is owed) and `epoch`
/// otherwise; a desired holder with no ack counts from zero. `0`
/// means every replica provably holds the latest shipped state —
/// the conformance suite polls for exactly that before it kills a
/// primary.
pub fn lag(state: &SessState, desired: &[String]) -> u64 {
    let target = state.epoch + u64::from(state.dirty);
    desired
        .iter()
        .map(|addr| target.saturating_sub(state.acked(addr).unwrap_or(0)))
        .max()
        .unwrap_or(0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ring3() -> Ring {
        Ring::with_members(64, ["10.0.0.0:7878", "10.0.0.1:7878", "10.0.0.2:7878"])
    }

    #[test]
    fn desired_replicas_exclude_the_primary_wherever_it_sits() {
        let ring = ring3();
        for id in 0..200u64 {
            let primary = ring.route(id).unwrap().to_string();
            let desired = desired_replicas(&ring, id, &primary, 1);
            assert_eq!(desired.len(), 1);
            assert_ne!(desired[0], primary);
            // With an override moving the primary onto its own
            // successor, the replica set still avoids it and still
            // finds R distinct holders.
            let moved = desired_replicas(&ring, id, &desired[0], 1);
            assert_eq!(moved.len(), 1);
            assert_ne!(moved[0], desired[0]);
        }
        // R capped by membership: 3 shards can hold at most 2 replicas.
        let primary = ring.route(7).unwrap().to_string();
        assert_eq!(desired_replicas(&ring, 7, &primary, 5).len(), 2);
    }

    #[test]
    fn ship_is_due_on_dirt_or_holder_drift_and_acks_merge() {
        let desired = vec!["b".to_string(), "c".to_string()];
        let mut state = SessState::new_dirty();
        assert!(needs_ship(&state, &desired));

        // Full ack: clean, nothing stale, lag 0.
        let stale = merge_acks(&mut state, &desired, 1, &["b".into(), "c".into()]);
        assert!(stale.is_empty());
        assert!(!state.dirty);
        assert!(!needs_ship(&state, &desired));
        assert_eq!(lag(&state, &desired), 0);

        // Partial ack: stays dirty, the missed holder keeps its old
        // ack, and the lag window is visible.
        state.dirty = true;
        assert_eq!(lag(&state, &desired), 1, "dirty owes one epoch");
        let stale = merge_acks(&mut state, &desired, 2, &["b".into()]);
        assert!(stale.is_empty());
        assert!(state.dirty, "partial round leaves the ship owed");
        assert_eq!(state.acked("b"), Some(2));
        assert_eq!(state.acked("c"), Some(1), "old ack survives a miss");
        assert_eq!(lag(&state, &desired), 2, "dirty + c one epoch behind");

        // Holder drift: same acks, new desired set → ship due, and the
        // departed holder is handed back for drop_replica.
        let drifted = vec!["b".to_string(), "d".to_string()];
        assert!(needs_ship(&state, &drifted));
        let stale = merge_acks(&mut state, &drifted, 3, &["b".into(), "d".into()]);
        assert_eq!(stale, vec!["c".to_string()]);
        assert!(!state.dirty);
        assert_eq!(state.replicas.len(), 2);
        // An un-acked desired holder counts from zero.
        assert_eq!(lag(&state, &["e".to_string()]), 3);
        // No desired replicas (R = 0): nothing can lag.
        assert_eq!(lag(&state, &[]), 0);
    }

    #[test]
    fn promotion_prefers_the_highest_acked_epoch_deterministically() {
        let state = SessState {
            epoch: 9,
            dirty: false,
            primary_known: true,
            replicas: vec![("c".into(), 7), ("a".into(), 9), ("b".into(), 9)],
        };
        let order = promotion_order(&state);
        assert_eq!(
            order,
            vec![
                ("a".to_string(), 9),
                ("b".to_string(), 9),
                ("c".to_string(), 7),
            ]
        );
        assert!(promotion_order(&SessState::new_dirty()).is_empty());
    }
}
