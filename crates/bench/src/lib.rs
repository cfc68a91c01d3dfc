//! # aware-bench
//!
//! Criterion benchmarks for the AWARE reproduction. The *statistical*
//! regeneration of every figure lives in the `aware-sim` binaries
//! (`cargo run -p aware-sim --release --bin exp1a` …); this crate measures
//! the *systems* side the paper's interactivity argument rests on — a
//! hypothesis test must be decided in the time budget of a UI interaction.
//!
//! Benches (the `[[bench]]` targets in this crate's `Cargo.toml`; some
//! hold several criterion groups):
//!
//! * `stats_kernels`     — p-value kernels (t, χ², Φ⁻¹);
//! * `procedures`        — groups `fig3_static` (batch procedures at the
//!   Figure-3 stream sizes), `fig4_incremental` (sequential/investing
//!   decisions per hypothesis) and `fig5_support` (ψ-support bidding);
//! * `data_engine`       — the filter → histogram kernels at census scale;
//! * `session`           — groups `session_step` (one `add_visualization`),
//!   `fig6_workflow` (census workflow replay), `ledger_text` (gauge and
//!   transcript, from scratch and memoised) and `durable_read`
//!   (decode → restore → gauge of a spilled session);
//! * `serve`             — in-process service throughput at 1/8/64
//!   sessions, batch dispatch, the wire codecs, filter chains and the
//!   snapshot-cadence cost;
//! * `serve_cluster`     — router hop vs direct `serve` over loopback;
//! * `serve_replication` — replication on vs off through a router;
//! * `obs`               — observability overhead (tracing armed plus a
//!   scraped `/metrics` endpoint vs disarmed);
//! * `serve_reactor`     — the reactor front end vs thread-per-connection.
//!
//! Shared stream generators live here so benches measure procedures, not
//! RNG setup.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Deterministic mixed p-value stream: `frac_signal` of the entries are
/// tiny (signal), the rest uniform (null) — the shape investing policies
/// see in practice.
pub fn p_stream(len: usize, frac_signal: f64, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..len)
        .map(|_| {
            if rng.gen::<f64>() < frac_signal {
                rng.gen::<f64>() * 1e-6
            } else {
                rng.gen::<f64>()
            }
        })
        .collect()
}

/// Support fractions paired with [`p_stream`].
pub fn support_stream(len: usize, seed: u64) -> Vec<f64> {
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xFEED);
    (0..len).map(|_| rng.gen_range(0.01..=1.0)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_are_deterministic_and_in_range() {
        let a = p_stream(100, 0.2, 1);
        assert_eq!(a, p_stream(100, 0.2, 1));
        assert!(a.iter().all(|p| (0.0..=1.0).contains(p)));
        let s = support_stream(100, 1);
        assert!(s.iter().all(|f| (0.01..=1.0).contains(f)));
        let signal = p_stream(2000, 0.3, 2).iter().filter(|&&p| p < 1e-5).count();
        assert!((400..800).contains(&signal), "{signal}");
    }
}
