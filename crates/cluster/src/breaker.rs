//! Per-shard circuit breakers with exponential backoff.
//!
//! A [`CircuitBreaker`] guards every connection-forming path against a
//! flapping or black-holed shard: once a shard has failed
//! `failure_threshold` consecutive round trips the breaker **opens**,
//! and every call until the backoff deadline is *shed* — answered
//! `unavailable` immediately, without paying a TCP handshake or a
//! socket timeout. When the deadline passes the breaker goes
//! **half-open** and admits exactly one probe; success closes the
//! breaker, failure re-opens it with a doubled backoff.
//!
//! Backoff is exponential with **deterministic jitter**: the jitter for
//! attempt *n* against shard *a* is a pure function of `(a, n)` (an
//! FNV-1a hash fed through SplitMix64), so a fleet of routers does not
//! retry in lockstep, yet a given router's schedule is exactly
//! reproducible — the property the chaos conformance suite leans on.
//!
//! The breaker never invents health: it only counts what the pool
//! observed, and the pool's health flag and probe-miss count remain
//! the health truth. Shed calls are reported to the caller so a shed
//! probe still registers as a missed probe for failure detection.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Observable breaker state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Calls flow; consecutive failures are being counted.
    Closed,
    /// Calls are shed until the backoff deadline.
    Open,
    /// One probe is in flight; everything else is shed.
    HalfOpen,
}

impl BreakerState {
    /// Stable lowercase name, used in health rows and Prometheus labels.
    pub fn as_str(self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

/// Tunables for one breaker.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive failures that open a closed breaker.
    pub failure_threshold: u32,
    /// Backoff after the first open; doubles per consecutive re-open.
    pub base_backoff: Duration,
    /// Backoff growth cap.
    pub max_backoff: Duration,
}

impl Default for BreakerConfig {
    fn default() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
        }
    }
}

struct Inner {
    state: BreakerState,
    /// Consecutive failures while closed.
    failures: u32,
    /// Consecutive open episodes; the backoff exponent.
    attempt: u32,
    /// While open: when the next half-open probe is admitted.
    open_until: Instant,
    /// While half-open: whether the single probe slot is taken.
    probe_in_flight: bool,
}

/// The breaker itself. All methods are cheap and lock one small mutex;
/// counters are read lock-free.
pub struct CircuitBreaker {
    config: BreakerConfig,
    /// Per-shard jitter key (FNV-1a of the shard address).
    jitter_key: u64,
    inner: Mutex<Inner>,
    opens: AtomicU64,
    shed: AtomicU64,
}

/// FNV-1a over the shard address: a stable per-shard jitter identity.
fn fnv1a(s: &str) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

/// SplitMix64 finalizer: decorrelates (key, attempt) pairs.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl CircuitBreaker {
    pub fn new(addr: &str, config: BreakerConfig) -> CircuitBreaker {
        CircuitBreaker {
            config,
            jitter_key: fnv1a(addr),
            inner: Mutex::new(Inner {
                state: BreakerState::Closed,
                failures: 0,
                attempt: 0,
                open_until: Instant::now(),
                probe_in_flight: false,
            }),
            opens: AtomicU64::new(0),
            shed: AtomicU64::new(0),
        }
    }

    /// The backoff for open episode `attempt`: exponential from the
    /// base, capped, plus deterministic jitter of up to a quarter of
    /// the backoff — a pure function of `(shard, attempt)`.
    pub fn backoff_for(&self, attempt: u32) -> Duration {
        let base = self.config.base_backoff.max(Duration::from_millis(1));
        let capped = base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.config.max_backoff.max(base));
        let quarter = (capped.as_millis() as u64 / 4).max(1);
        let jitter = mix(self.jitter_key ^ u64::from(attempt)) % quarter;
        capped + Duration::from_millis(jitter)
    }

    /// Asks to place one call. `false` means the call is shed: the
    /// breaker is open (or a half-open probe is already in flight) and
    /// the caller must answer `unavailable` without touching the
    /// network.
    pub fn admit(&self) -> bool {
        let mut inner = self.inner.lock().unwrap();
        match inner.state {
            BreakerState::Closed => true,
            BreakerState::Open => {
                if Instant::now() >= inner.open_until {
                    inner.state = BreakerState::HalfOpen;
                    inner.probe_in_flight = true;
                    true
                } else {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    false
                }
            }
            BreakerState::HalfOpen => {
                if inner.probe_in_flight {
                    self.shed.fetch_add(1, Ordering::Relaxed);
                    false
                } else {
                    inner.probe_in_flight = true;
                    true
                }
            }
        }
    }

    /// Records a successful round trip: closes the breaker and resets
    /// the failure count and backoff exponent.
    pub fn record_success(&self) {
        let mut inner = self.inner.lock().unwrap();
        inner.state = BreakerState::Closed;
        inner.failures = 0;
        inner.attempt = 0;
        inner.probe_in_flight = false;
    }

    /// Records a failed round trip. While closed this counts toward the
    /// threshold; a half-open probe failure re-opens immediately with a
    /// doubled backoff.
    pub fn record_failure(&self) {
        let mut inner = self.inner.lock().unwrap();
        match inner.state {
            BreakerState::Closed => {
                inner.failures += 1;
                if inner.failures >= self.config.failure_threshold {
                    self.open(&mut inner);
                }
            }
            BreakerState::HalfOpen => self.open(&mut inner),
            // A straggler that was admitted before the open; the
            // deadline already covers it.
            BreakerState::Open => {}
        }
    }

    fn open(&self, inner: &mut Inner) {
        let backoff = self.backoff_for(inner.attempt);
        inner.state = BreakerState::Open;
        inner.failures = 0;
        inner.probe_in_flight = false;
        inner.open_until = Instant::now() + backoff;
        inner.attempt = inner.attempt.saturating_add(1);
        self.opens.fetch_add(1, Ordering::Relaxed);
    }

    /// Current state (does not itself advance open → half-open; only
    /// [`CircuitBreaker::admit`] transitions).
    pub fn state(&self) -> BreakerState {
        self.inner.lock().unwrap().state
    }

    /// Closed/half-open → open transitions so far.
    pub fn opens(&self) -> u64 {
        self.opens.load(Ordering::Relaxed)
    }

    /// Calls refused while open (or while a half-open probe held the
    /// only slot).
    pub fn shed(&self) -> u64 {
        self.shed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    fn fast() -> BreakerConfig {
        BreakerConfig {
            failure_threshold: 3,
            base_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_millis(200),
        }
    }

    #[test]
    fn opens_at_threshold_and_sheds() {
        let b = CircuitBreaker::new("127.0.0.1:9999", fast());
        assert_eq!(b.state(), BreakerState::Closed);
        for _ in 0..2 {
            assert!(b.admit());
            b.record_failure();
            assert_eq!(b.state(), BreakerState::Closed);
        }
        assert!(b.admit());
        b.record_failure(); // third consecutive: opens
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        assert!(!b.admit(), "open breaker must shed");
        assert_eq!(b.shed(), 1);
    }

    #[test]
    fn success_resets_the_failure_streak() {
        let b = CircuitBreaker::new("127.0.0.1:9999", fast());
        b.record_failure();
        b.record_failure();
        b.record_success();
        b.record_failure();
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Closed, "streak was broken");
    }

    #[test]
    fn half_open_probe_success_closes() {
        let b = CircuitBreaker::new("127.0.0.1:9999", fast());
        for _ in 0..3 {
            b.record_failure();
        }
        assert_eq!(b.state(), BreakerState::Open);
        sleep(b.backoff_for(0) + Duration::from_millis(5));
        assert!(b.admit(), "backoff elapsed: one probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        assert!(!b.admit(), "only one probe slot while half-open");
        b.record_success();
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(b.admit());
    }

    #[test]
    fn half_open_probe_failure_reopens_with_doubled_backoff() {
        let b = CircuitBreaker::new("127.0.0.1:9999", fast());
        for _ in 0..3 {
            b.record_failure();
        }
        sleep(b.backoff_for(0) + Duration::from_millis(5));
        assert!(b.admit());
        b.record_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        // Second episode backs off at least twice the base (before
        // jitter, 2x; jitter only adds).
        assert!(b.backoff_for(1) >= fast().base_backoff * 2);
    }

    #[test]
    fn backoff_is_deterministic_capped_and_jittered_per_shard() {
        let a = CircuitBreaker::new("10.0.0.1:7000", fast());
        let b = CircuitBreaker::new("10.0.0.2:7000", fast());
        for attempt in 0..20 {
            // Pure function of (addr, attempt).
            assert_eq!(a.backoff_for(attempt), a.backoff_for(attempt));
            // Cap: growth stops at max + a quarter of jitter.
            assert!(a.backoff_for(attempt) <= fast().max_backoff + fast().max_backoff / 4);
        }
        // Different shards get different jitter somewhere in the ladder.
        assert!(
            (0..20).any(|n| a.backoff_for(n) != b.backoff_for(n)),
            "jitter must decorrelate shards"
        );
    }
}
