//! Server-wide metrics: one lock-free atomic slot per declared scalar
//! ([`crate::proto::SCALARS`]), per-command-kind latency histograms
//! with a stage breakdown, and a live-session gauge, snapshotted on
//! demand by the `stats` command and rendered by the `--metrics-addr`
//! exposition endpoint. A cluster router holds the same block; slots
//! it never touches stay 0.

use crate::proto::{Encoding, Stat, StatsSnapshot, BATCH_SIZE_BUCKETS, COMMAND_KINDS};
use aware_obs::hist::{HistogramSnapshot, LatencyHistogram};
use std::sync::atomic::{AtomicU64, Ordering};

/// One stage of a command's life, each with its own latency histogram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Stage {
    /// An admitted unit waiting for its session's stripe (another
    /// unit of the same session, or of one sharing its stripe, is
    /// executing). 0 µs when the stripe was free.
    QueueWait,
    /// Executing one command.
    Execute,
    /// Writing one durable session snapshot (tmp + fsync + rename).
    SnapshotFlush,
    /// Encoding one reply for its surface (the socket write is not
    /// included): one sample per reply, on either front.
    WireEncode,
}

impl Stage {
    pub const COUNT: usize = 4;
    /// The `stage` label values, in discriminant order.
    pub const NAMES: [&'static str; Stage::COUNT] =
        ["queue_wait", "execute", "snapshot_flush", "wire_encode"];
}

/// Counter block shared by every connection and dispatcher thread.
///
/// Every slot is cumulative since start; the gauges among the declared
/// scalars (`sessions_live`, cache and store readings, uptime) are
/// folded in by the owner at snapshot time. Relaxed ordering is
/// deliberate: each counter is an independent statistic, not a
/// synchronization edge. Histogram recording is likewise one relaxed
/// `fetch_add` per sample.
#[derive(Debug)]
pub struct Metrics {
    scalars: [AtomicU64; Stat::COUNT],
    /// `reactor_connections` is opened − closed, computed at snapshot
    /// time from two monotone counters (the scalar's own slot counts
    /// opens) so concurrent open/close never races a decrement below
    /// zero.
    reactor_conn_closed: AtomicU64,
    batch_size_hist: [AtomicU64; 5],
    /// End-to-end command latency (queue wait + execute), bucketed by
    /// [`COMMAND_KINDS`] index. The all-kinds distribution is the
    /// bucket-wise merge of these at snapshot time — no separate
    /// total histogram to double-record into.
    latency_by_kind: [LatencyHistogram; COMMAND_KINDS.len()],
    stages: [LatencyHistogram; Stage::COUNT],
}

impl Default for Metrics {
    fn default() -> Metrics {
        Metrics {
            scalars: std::array::from_fn(|_| AtomicU64::new(0)),
            reactor_conn_closed: AtomicU64::new(0),
            batch_size_hist: Default::default(),
            latency_by_kind: Default::default(),
            stages: Default::default(),
        }
    }
}

impl Metrics {
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Counts one event against `stat`.
    pub fn inc(&self, stat: Stat) {
        self.add(stat, 1);
    }

    /// Counts `n` events against `stat`.
    pub fn add(&self, stat: Stat, n: u64) {
        self.scalars[stat as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// The cumulative count recorded against `stat`.
    pub fn get(&self, stat: Stat) -> u64 {
        self.scalars[stat as usize].load(Ordering::Relaxed)
    }

    /// One dispatch unit of `n` commands accepted by `call_batch` (a
    /// plain `call` is a batch of one).
    pub fn batch(&self, n: usize) {
        self.inc(Stat::batches);
        self.add(Stat::batch_commands, n as u64);
        let bucket = BATCH_SIZE_BUCKETS
            .iter()
            .position(|&edge| n as u64 <= edge)
            .unwrap_or(BATCH_SIZE_BUCKETS.len());
        self.batch_size_hist[bucket].fetch_add(1, Ordering::Relaxed);
    }

    /// One wire message received on the given surface.
    pub fn wire_request(&self, encoding: Encoding) {
        self.inc(match encoding {
            Encoding::Json => Stat::ndjson_requests,
            Encoding::Binary => Stat::binary_frames,
        });
    }

    /// A request that failed before reaching a command (frame too
    /// long, malformed JSON, unknown command), so the `stats` counters
    /// see protocol-level abuse, not only session-level errors.
    pub fn protocol_error(&self) {
        self.inc(Stat::commands);
        self.inc(Stat::errors);
    }

    /// One reactor connection fully closed (deregistered and dropped);
    /// its accept was an `inc(Stat::reactor_connections)`.
    pub fn reactor_conn_closed(&self) {
        self.reactor_conn_closed.fetch_add(1, Ordering::Relaxed);
    }

    /// End-to-end latency (µs) of one command of the given
    /// [`COMMAND_KINDS`] index.
    pub fn observe_command(&self, kind: usize, micros: u64) {
        self.latency_by_kind[kind.min(COMMAND_KINDS.len() - 1)].record(micros);
    }

    /// One sample (µs) of the given stage.
    pub fn observe(&self, stage: Stage, micros: u64) {
        self.stages[stage as usize].record(micros);
    }

    /// The all-kinds latency distribution: bucket-wise merge of every
    /// per-kind histogram.
    pub fn latency(&self) -> HistogramSnapshot {
        let mut total = HistogramSnapshot::default();
        for h in &self.latency_by_kind {
            total.merge(&h.snapshot());
        }
        total
    }

    /// Latency distribution of one command kind.
    pub fn latency_of_kind(&self, kind: usize) -> HistogramSnapshot {
        self.latency_by_kind[kind.min(COMMAND_KINDS.len() - 1)].snapshot()
    }

    /// The four stage distributions, labeled, in [`Stage`] order.
    pub fn stages(&self) -> [(&'static str, HistogramSnapshot); Stage::COUNT] {
        std::array::from_fn(|i| (Stage::NAMES[i], self.stages[i].snapshot()))
    }

    /// Snapshot with the given live-session gauge. Scalars nothing in
    /// this block records (cache, store, uptime, replication readings)
    /// read 0; their owner overwrites them.
    pub fn snapshot(&self, sessions_live: u64) -> StatsSnapshot {
        let mut snapshot = StatsSnapshot::default();
        for (slot, counter) in snapshot.scalars_mut().into_iter().zip(&self.scalars) {
            *slot = counter.load(Ordering::Relaxed);
        }
        snapshot.sessions_live = sessions_live;
        snapshot.reactor_connections = snapshot
            .reactor_connections
            .saturating_sub(self.reactor_conn_closed.load(Ordering::Relaxed));
        [
            snapshot.latency_p50_us,
            snapshot.latency_p90_us,
            snapshot.latency_p99_us,
            snapshot.latency_p999_us,
        ] = self.latency().summary();
        for (slot, counter) in snapshot
            .batch_size_hist
            .iter_mut()
            .zip(&self.batch_size_hist)
        {
            *slot = counter.load(Ordering::Relaxed);
        }
        snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let m = Metrics::new();
        m.inc(Stat::sessions_created);
        m.inc(Stat::sessions_created);
        m.inc(Stat::sessions_closed);
        m.inc(Stat::sessions_evicted);
        m.inc(Stat::commands);
        m.inc(Stat::hypotheses_tested);
        m.inc(Stat::discoveries);
        m.inc(Stat::hypotheses_tested);
        m.inc(Stat::rejected_by_budget);
        m.inc(Stat::errors);
        m.batch(1);
        m.batch(8);
        m.batch(64);
        m.batch(65);
        m.batch(1000);
        m.inc(Stat::overloaded);
        m.wire_request(Encoding::Json);
        m.wire_request(Encoding::Binary);
        m.wire_request(Encoding::Binary);
        let s = m.snapshot(1);
        assert_eq!(s.sessions_created, 2);
        assert_eq!(s.sessions_closed, 1);
        assert_eq!(s.sessions_evicted, 1);
        assert_eq!(s.sessions_live, 1);
        assert_eq!(s.commands, 1);
        assert_eq!(s.hypotheses_tested, 2);
        assert_eq!(s.discoveries, 1);
        assert_eq!(s.rejected_by_budget, 1);
        assert_eq!(s.errors, 1);
        assert_eq!(s.batches, 5);
        assert_eq!(s.batch_commands, 1 + 8 + 64 + 65 + 1000);
        assert_eq!(s.batch_size_hist, [1, 1, 1, 1, 1]);
        assert_eq!(s.overloaded, 1);
        assert_eq!(s.ndjson_requests, 1);
        assert_eq!(s.binary_frames, 2);
    }

    #[test]
    fn reactor_gauge_is_opened_minus_closed() {
        let m = Metrics::new();
        m.inc(Stat::reactor_connections);
        m.inc(Stat::reactor_connections);
        m.inc(Stat::reactor_connections);
        m.reactor_conn_closed();
        m.inc(Stat::reactor_wakeups);
        m.inc(Stat::push_frames);
        m.inc(Stat::push_frames);
        m.inc(Stat::drr_deferrals);
        let s = m.snapshot(0);
        assert_eq!(s.reactor_connections, 2);
        assert_eq!(s.reactor_wakeups, 1);
        assert_eq!(s.push_frames, 2);
        assert_eq!(s.drr_deferrals, 1);
        // The gauge saturates rather than wrapping if a close is
        // counted before its open is visible.
        let m = Metrics::new();
        m.reactor_conn_closed();
        assert_eq!(m.snapshot(0).reactor_connections, 0);
    }

    #[test]
    fn latency_histograms_merge_across_kinds_into_the_snapshot() {
        let m = Metrics::new();
        m.observe_command(0, 100);
        m.observe_command(2, 300);
        m.observe_command(2, 50_000);
        m.observe(Stage::QueueWait, 5);
        m.observe(Stage::Execute, 95);
        m.observe(Stage::SnapshotFlush, 2_000);
        m.observe(Stage::WireEncode, 8);
        m.inc(Stat::slow_queries);
        assert_eq!(m.latency().count(), 3);
        assert_eq!(m.latency_of_kind(2).count(), 2);
        let s = m.snapshot(0);
        // p50 of {100, 300, 50000} is 300; the histogram may overshoot
        // by at most 1/16.
        assert!(
            s.latency_p50_us >= 300 && s.latency_p50_us as u128 * 16 <= 300 * 17,
            "{}",
            s.latency_p50_us
        );
        assert!(s.latency_p999_us >= 50_000);
        assert_eq!(s.slow_queries, 1);
        for (name, stage) in m.stages() {
            assert_eq!(stage.count(), 1, "{name}");
        }
    }

    #[test]
    fn concurrent_increments_are_lossless() {
        let m = std::sync::Arc::new(Metrics::new());
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let m = m.clone();
                std::thread::spawn(move || {
                    for _ in 0..10_000 {
                        m.inc(Stat::commands);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(m.snapshot(0).commands, 80_000);
    }
}
