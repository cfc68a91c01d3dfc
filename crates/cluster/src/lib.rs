//! # aware-cluster
//!
//! Horizontal sharding for the AWARE serving layer: a router process
//! that speaks the existing v1/v2 wire protocol to clients and fans
//! out to N backend `aware-serve` shards over the binary framing.
//!
//! Why routing is not enough on its own: the α-investing guarantee
//! (Zhao et al., SIGMOD 2017) is per-session and *stateful* — the
//! wealth ledger is the defense Hardt & Ullman's hardness result makes
//! mandatory, and a reset (or misplaced) ledger re-opens the adaptive
//! attack. So scaling past one process means sessions must *move* with
//! their ledgers intact, never restart. The PR 4 `AWRS` session image
//! is exactly that shard-handoff primitive; this crate builds the
//! cluster plane on top of it:
//!
//! * [`ring`] — the consistent-hash ring (virtual nodes, FNV-based,
//!   std-only) mapping session ids to shards, with proven balance and
//!   join/leave monotonicity;
//! * [`pool`] — per-shard connection pools over the reference binary
//!   [`aware_serve::tcp::Client`], with health accounting and
//!   transport-failure isolation;
//! * [`router`] — the [`router::Router`]: cluster-wide id allocation,
//!   per-session stripe serialization across the hop, batch fan-out
//!   (one sub-batch envelope per shard), cluster-wide `stats`
//!   aggregation with a per-shard health breakdown, and **live
//!   rebalancing** — `join_shard`/`leave_shard` migrate exactly the
//!   remapped sessions via the serve-side `export_session`/
//!   `import_session` commands (dataset content fingerprints prove
//!   both shards hold the same table before a ledger moves);
//! * [`replica`] — replication planning under `aware-replica`: each
//!   session's ring position names a primary plus R warm replicas (the
//!   successor walk), images ship with monotone epochs, and failover
//!   promotes the highest *acked* epoch — after the target shard
//!   re-validates the image, so a diverged replica is refused, never
//!   adopted;
//! * [`breaker`] — the per-shard circuit breaker that sheds calls to a
//!   failing shard. Failure detection itself is one counter per pool:
//!   one missed probe only suspects a shard, and a second consecutive
//!   miss confirms it dead ([`pool::SUSPECT_CONFIRM_MISSES`]), so a
//!   single dropped packet never flaps the ring.
//!
//! The router implements [`aware_serve::service::Dispatch`], so
//! `aware-serve`'s hardened TCP front end (NDJSON + AWR2 frames,
//! first-byte auto-detection, hello negotiation) serves it unchanged —
//! a client cannot tell a router from a shard, and the batched-
//! envelope, per-session-ordering, and corrupt-vs-unknown error
//! contracts hold across the hop (proven byte-identical by the
//! multi-process conformance suite in `tests/cluster_conformance.rs`).
//!
//! Failure semantics: with replication off, a dead shard answers
//! `unavailable` — never `unknown_session`, and never a fresh budget.
//! With `--replicas N`, a *confirmed*-dead primary is failed over to a
//! verified replica automatically; a session whose every replica image
//! fails validation answers `corrupt_snapshot` — still never a fresh
//! budget.

pub mod breaker;
pub mod pool;
pub mod replica;
pub mod ring;
pub mod router;

pub use ring::Ring;
pub use router::{Router, RouterConfig, RouterHandle};
