//! Percentile, window and quartile arithmetic.

/// One completed operation: when it ended (ns since the run's origin)
/// and how long it took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub end_ns: u64,
    pub latency_ns: u64,
}

/// Nearest-rank percentile of an ascending slice; `q` in `[0, 1]`.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Latency percentiles and throughput of the quieter part of a measured
/// interval. The interval is split into equal windows; the half of them
/// (rounded up) that completed the most operations is kept and its
/// samples are pooled.
///
/// The box is a few cores of a shared host: for a second or three at a
/// time everything on it runs 10–30 % slower, CPU-bound and
/// syscall-bound work alike. A percentile over the whole interval
/// follows how many such seconds a run happened to catch, and so does a
/// median over a few long windows once every window has caught one.
/// What slows a whole window this way is taken to be the host; a window
/// is as long as the servers' periodic background work (probe and
/// replication rounds, once a second), so no window is without it.
#[derive(Debug, Clone, PartialEq)]
pub struct QuietHalf {
    pub p50_ns: f64,
    pub p99_ns: f64,
    /// Operations completed per second of kept window.
    pub ops_per_s: f64,
    /// Samples the percentiles rest on.
    pub pooled: usize,
    /// Every window's operations per second, in time order.
    pub window_ops_per_s: Vec<f64>,
}

pub fn quiet_half(
    samples: &[Sample],
    start_ns: u64,
    window_ns: u64,
    windows: usize,
) -> Option<QuietHalf> {
    let mut buckets: Vec<Vec<u64>> = vec![Vec::new(); windows];
    for s in samples {
        if s.end_ns < start_ns {
            continue;
        }
        let w = ((s.end_ns - start_ns) / window_ns) as usize;
        if w < windows {
            buckets[w].push(s.latency_ns);
        }
    }
    let per_s =
        |count: usize, windows: usize| count as f64 * 1e9 / (windows as u64 * window_ns) as f64;
    let window_ops_per_s = buckets.iter().map(|b| per_s(b.len(), 1)).collect();
    // Busiest first; the sort is stable, so ties keep time order.
    buckets.sort_by_key(|b| std::cmp::Reverse(b.len()));
    let kept = windows.div_ceil(2);
    if buckets[kept - 1].is_empty() {
        return None;
    }
    let mut pooled: Vec<u64> = buckets[..kept].concat();
    pooled.sort_unstable();
    Some(QuietHalf {
        p50_ns: percentile(&pooled, 0.50) as f64,
        p99_ns: percentile(&pooled, 0.99) as f64,
        ops_per_s: per_s(pooled.len(), kept),
        pooled: pooled.len(),
        window_ops_per_s,
    })
}

/// First quartile, median and third quartile, computed as Python's
/// `statistics.quantiles(values, n=4)` does (the exclusive method) —
/// the acceptance rule for this benchmark is stated in those terms.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    assert!(values.len() >= 2, "quartiles need two values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let m = n + 1;
    [1usize, 2, 3].map(|i| {
        let j = (i * m / 4).clamp(1, n - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    })
}

/// Interquartile distance as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let [q1, med, q3] = quartiles(values);
    (q3 - q1) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.50), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[7], 0.99), 7);
    }

    #[test]
    fn median_handles_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([10, 20, 40], n=4) == [10.0, 20.0, 40.0]
        assert_eq!(quartiles(&[40.0, 10.0, 20.0]), [10.0, 20.0, 40.0]);
        // statistics.quantiles([1, 3, 7, 15, 31], n=4) == [2.0, 7.0, 23.0]
        assert_eq!(quartiles(&[1.0, 3.0, 7.0, 15.0, 31.0]), [2.0, 7.0, 23.0]);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn the_busier_half_of_the_windows_is_pooled_and_warm_up_skipped() {
        // Three windows of 100 ns starting at t = 100. Window 1 is slow:
        // it completes 5 operations where the others complete 10.
        let mut samples = vec![Sample {
            end_ns: 50,
            latency_ns: 9_999,
        }];
        for w in 0..3u64 {
            let n = if w == 1 { 5 } else { 10 };
            for i in 0..n {
                samples.push(Sample {
                    end_ns: 100 + w * 100 + i,
                    latency_ns: if w == 1 { 1_000 } else { 10 + i },
                });
            }
        }
        samples.push(Sample {
            end_ns: 400,
            latency_ns: 9_999,
        }); // past the end
        let got = quiet_half(&samples, 100, 100, 3).unwrap();
        assert_eq!(got.window_ops_per_s, [1e8, 5e7, 1e8]);
        // Windows 0 and 2 are kept: 20 samples, each of 10..=19 twice.
        assert_eq!(got.pooled, 20);
        assert_eq!(got.ops_per_s, 1e8);
        assert_eq!(got.p50_ns, 14.0);
        assert_eq!(got.p99_ns, 19.0);
        // Windows that completed nothing are the first to be dropped;
        // if one would have to be kept, the interval was not covered.
        assert_eq!(quiet_half(&samples, 100, 100, 5).unwrap().pooled, 25);
        assert_eq!(quiet_half(&samples, 100, 100, 9), None);
    }
}
