//! The consistent-hash ring: session ids → shard addresses.
//!
//! Classic Karger-style consistent hashing with virtual nodes: every
//! shard contributes `vnodes` points on a `u64` circle, a session id
//! hashes to a point, and the session belongs to the first shard point
//! at or clockwise of it. The properties the cluster leans on:
//!
//! * **determinism** — the ring is a pure function of the member set
//!   and the vnode count, so every router (and every test) computes
//!   the same placement;
//! * **monotonicity** — adding a shard moves keys only *onto* the new
//!   shard, and removing one moves keys only *off* it; a session never
//!   hops between two surviving shards during a rebalance, which is
//!   what keeps migration traffic at ≈ live/n sessions instead of a
//!   full reshuffle (pinned by the proptests below);
//! * **balance** — with ≥ 64 vnodes per shard, each shard's share of a
//!   uniform key population stays within 2× of ideal (also pinned).
//!
//! Hashing is FNV-1a with a splitmix64 finalizer: FNV alone is weak in
//! the high bits for the short, similar strings vnode labels are
//! (`"addr#0"`, `"addr#1"`, …), and ring balance lives entirely in
//! those bits. Std-only, like everything else in the workspace.

use aware_data::hash::fnv1a;
use aware_serve::proto::SessionId;

/// splitmix64 finalizer: full-avalanche mixing of an FNV digest.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// Ring point of vnode `index` of shard `addr`.
fn vnode_point(addr: &str, index: u64) -> u64 {
    let mut bytes = Vec::with_capacity(addr.len() + 9);
    bytes.extend_from_slice(addr.as_bytes());
    bytes.push(0xff); // unambiguous separator: 0xff never occurs in UTF-8 addresses
    bytes.extend_from_slice(&index.to_le_bytes());
    mix(fnv1a(&bytes))
}

/// Ring point of a session id.
fn key_point(id: SessionId) -> u64 {
    mix(fnv1a(&id.to_le_bytes()))
}

/// An immutable consistent-hash ring. Roster changes build a new
/// ring (cheap — rebuilds are O(members · vnodes · log) and happen only
/// on join/leave), which is exactly what the router's migration logic
/// wants: the old and new rings side by side to diff placements.
#[derive(Debug, Clone)]
pub struct Ring {
    vnodes: usize,
    /// Member addresses, sorted (determinism) and deduplicated.
    members: Vec<String>,
    /// `(point, member index)`, sorted by point. Ties (a ~2⁻⁶⁴ event)
    /// break by member index, deterministically.
    points: Vec<(u64, u32)>,
}

/// Default virtual nodes per shard — the floor at which the balance
/// property below is proven.
pub const DEFAULT_VNODES: usize = 64;

impl Ring {
    /// An empty ring with the given vnode count (min 1).
    pub fn new(vnodes: usize) -> Ring {
        Ring::with_members(vnodes, std::iter::empty::<String>())
    }

    /// A ring over the given members.
    pub fn with_members(
        vnodes: usize,
        members: impl IntoIterator<Item = impl Into<String>>,
    ) -> Ring {
        let vnodes = vnodes.max(1);
        let mut members: Vec<String> = members.into_iter().map(Into::into).collect();
        members.sort();
        members.dedup();
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for (index, addr) in members.iter().enumerate() {
            for v in 0..vnodes {
                points.push((vnode_point(addr, v as u64), index as u32));
            }
        }
        points.sort_unstable();
        Ring {
            vnodes,
            members,
            points,
        }
    }

    /// Member addresses, sorted.
    pub fn members(&self) -> &[String] {
        &self.members
    }

    /// Number of member shards.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when no shards are in the ring.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// True when `addr` is a member.
    pub fn contains(&self, addr: &str) -> bool {
        self.members
            .binary_search_by(|m| m.as_str().cmp(addr))
            .is_ok()
    }

    /// A new ring with `addr` added (idempotent).
    pub fn join(&self, addr: &str) -> Ring {
        Ring::with_members(
            self.vnodes,
            self.members
                .iter()
                .map(String::as_str)
                .chain(std::iter::once(addr)),
        )
    }

    /// A new ring with `addr` removed (idempotent).
    pub fn leave(&self, addr: &str) -> Ring {
        Ring::with_members(
            self.vnodes,
            self.members
                .iter()
                .filter(|m| m.as_str() != addr)
                .map(String::as_str),
        )
    }

    /// The shard that owns `id`, or `None` on an empty ring: the first
    /// vnode point at or clockwise of the key's point.
    pub fn route(&self, id: SessionId) -> Option<&str> {
        self.successors(id, 1).into_iter().next()
    }

    /// The first `n` *distinct* shards clockwise from `id`'s ring
    /// point — the owner first, then its successors. This is the
    /// replica preference list: with replication factor R the primary
    /// is element 0 and the warm replicas are elements 1..=R. Returns
    /// fewer than `n` when the ring has fewer members. Like `route`,
    /// the list is a pure function of the member set, so every router
    /// computes the same placement.
    pub fn successors(&self, id: SessionId, n: usize) -> Vec<&str> {
        let mut out: Vec<&str> = Vec::with_capacity(n.min(self.members.len()));
        if self.points.is_empty() || n == 0 {
            return out;
        }
        let key = key_point(id);
        let start = match self.points.binary_search(&(key, 0)) {
            Ok(i) => i,
            Err(i) if i == self.points.len() => 0, // wrap past the top
            Err(i) => i,
        };
        let mut seen = vec![false; self.members.len()];
        for offset in 0..self.points.len() {
            let (_, member) = self.points[(start + offset) % self.points.len()];
            if !std::mem::replace(&mut seen[member as usize], true) {
                out.push(self.members[member as usize].as_str());
                if out.len() == n || out.len() == self.members.len() {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::HashMap;

    fn shard_names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("10.0.0.{i}:7878")).collect()
    }

    #[test]
    fn routing_is_deterministic_and_total() {
        let ring = Ring::with_members(64, shard_names(3));
        let again = Ring::with_members(64, shard_names(3));
        for id in 0..1_000u64 {
            let owner = ring.route(id).expect("non-empty ring routes everything");
            assert_eq!(Some(owner), again.route(id));
            assert!(ring.contains(owner));
        }
        assert_eq!(Ring::new(64).route(7), None, "empty ring routes nowhere");
    }

    #[test]
    fn join_and_leave_are_idempotent_and_order_free() {
        let a = Ring::with_members(32, ["b", "a", "c"]);
        let b = Ring::with_members(32, ["c", "b", "a", "a"]);
        assert_eq!(a.members(), b.members());
        for id in 0..500u64 {
            assert_eq!(a.route(id), b.route(id));
        }
        let joined = a.join("a");
        assert_eq!(joined.members(), a.members());
        let left = a.leave("zzz-not-a-member");
        assert_eq!(left.members(), a.members());
    }

    #[test]
    fn successors_are_distinct_owner_first_and_stable() {
        let ring = Ring::with_members(64, shard_names(4));
        for id in 0..1_000u64 {
            let list = ring.successors(id, 3);
            assert_eq!(list.len(), 3);
            assert_eq!(Some(list[0]), ring.route(id), "owner leads the list");
            let mut dedup = list.clone();
            dedup.sort();
            dedup.dedup();
            assert_eq!(dedup.len(), 3, "preference list must be distinct: {list:?}");
            // A longer walk extends the list without reordering the prefix.
            assert_eq!(ring.successors(id, 4)[..3], list[..]);
        }
        // Asking past the membership truncates instead of repeating.
        assert_eq!(ring.successors(42, 9).len(), 4);
        assert_eq!(Ring::new(64).successors(42, 2), Vec::<&str>::new());
        assert_eq!(ring.successors(42, 0), Vec::<&str>::new());
    }

    /// Shard share of `keys` uniform keys, by member.
    fn distribution(ring: &Ring, keys: u64) -> HashMap<String, u64> {
        let mut counts: HashMap<String, u64> = HashMap::new();
        for id in 0..keys {
            *counts
                .entry(ring.route(id).unwrap().to_string())
                .or_insert(0) += 1;
        }
        counts
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Balance: with ≥ 64 vnodes/shard, every shard's share of a
        /// uniform key population stays within 2× of uniform — in both
        /// directions (no shard melts, no shard idles).
        #[test]
        fn key_distribution_stays_within_2x_of_uniform(
            shards in 2usize..8,
            vnode_factor in 0usize..3,
        ) {
            let vnodes = DEFAULT_VNODES << vnode_factor; // 64, 128, 256
            let keys = 20_000u64;
            let ring = Ring::with_members(vnodes, shard_names(shards));
            let counts = distribution(&ring, keys);
            let ideal = keys as f64 / shards as f64;
            for addr in ring.members() {
                let got = *counts.get(addr).unwrap_or(&0) as f64;
                prop_assert!(
                    got >= ideal / 2.0 && got <= ideal * 2.0,
                    "shard {} owns {} of {} keys (ideal {}, {} vnodes)",
                    addr, got, keys, ideal, vnodes
                );
            }
        }

        /// Monotonicity on join: every remapped key lands on the *new*
        /// shard (no session ever moves between two surviving shards),
        /// and the remapped fraction is ≈ 1/n of the keys.
        #[test]
        fn join_remaps_only_about_one_nth_and_only_onto_the_joiner(
            shards in 2usize..8,
        ) {
            let keys = 20_000u64;
            let before = Ring::with_members(DEFAULT_VNODES, shard_names(shards));
            let newcomer = "10.0.9.9:7878";
            let after = before.join(newcomer);
            let mut moved = 0u64;
            for id in 0..keys {
                let old = before.route(id).unwrap();
                let new = after.route(id).unwrap();
                if old != new {
                    moved += 1;
                    prop_assert_eq!(
                        new, newcomer,
                        "key {} moved from {} to {}, bypassing the joiner", id, old, new
                    );
                }
            }
            let expected = keys as f64 / (shards + 1) as f64;
            prop_assert!(
                (moved as f64) <= expected * 2.0,
                "{} keys moved; expected ≈ {}", moved, expected
            );
            prop_assert!(
                (moved as f64) >= expected / 2.0,
                "only {} keys moved; expected ≈ {} — the joiner is starved", moved, expected
            );
        }

        /// Monotonicity on leave: only the departing shard's keys move;
        /// every key owned by a survivor stays exactly where it was.
        #[test]
        fn leave_remaps_only_the_departing_shards_keys(
            shards in 3usize..8,
            victim in 0usize..8,
        ) {
            let keys = 10_000u64;
            let names = shard_names(shards);
            let victim = names[victim % shards].clone();
            let before = Ring::with_members(DEFAULT_VNODES, names);
            let after = before.leave(&victim);
            for id in 0..keys {
                let old = before.route(id).unwrap();
                let new = after.route(id).unwrap();
                if old != victim {
                    prop_assert_eq!(
                        old, new,
                        "key {} moved off surviving shard {}", id, old
                    );
                } else {
                    prop_assert_ne!(new, victim.as_str());
                }
            }
        }
    }
}
