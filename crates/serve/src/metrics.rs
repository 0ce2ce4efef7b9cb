//! Lock-free serving metrics: counters and log₂ latency histograms.
//!
//! Everything here is a plain [`AtomicU64`], updated with relaxed ordering
//! — the numbers feed `/stats`, not control flow, so the only requirement
//! is that each individual increment lands. Histograms bucket by
//! power-of-two microsecond ranges, which gives ~5% worst-case relative
//! error on the quantiles `/stats` reports while costing one atomic add
//! per observation.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Number of log₂ buckets: bucket `i` covers `[2^i, 2^(i+1))` µs, with
/// bucket 0 also absorbing sub-microsecond observations. 2^25 µs ≈ 33 s,
/// far past any deadline the server will allow; larger observations clamp
/// into the last bucket.
pub const BUCKETS: usize = 26;

/// A fixed-bucket latency histogram safe to share across worker threads.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    total_us: AtomicU64,
    max_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            total_us: AtomicU64::new(0),
            max_us: AtomicU64::new(0),
        }
    }
}

/// A point-in-time read of a [`Histogram`], in milliseconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSnapshot {
    /// Observations recorded so far.
    pub count: u64,
    /// Arithmetic mean, ms.
    pub mean_ms: f64,
    /// Median (upper bucket bound), ms.
    pub p50_ms: f64,
    /// 90th percentile (upper bucket bound), ms.
    pub p90_ms: f64,
    /// 99th percentile (upper bucket bound), ms.
    pub p99_ms: f64,
    /// Largest single observation, ms (exact, not bucketed).
    pub max_ms: f64,
}

impl Histogram {
    /// Records one observation.
    pub fn record(&self, elapsed: Duration) {
        let us = u64::try_from(elapsed.as_micros()).unwrap_or(u64::MAX);
        let bucket = bucket_for(us);
        self.buckets[bucket].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.total_us.fetch_add(us, Ordering::Relaxed);
        self.max_us.fetch_max(us, Ordering::Relaxed);
    }

    /// Reads the histogram. Concurrent recording may skew a snapshot by a
    /// handful of observations; that is fine for `/stats`.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: [u64; BUCKETS] =
            std::array::from_fn(|i| self.buckets[i].load(Ordering::Relaxed));
        let count: u64 = counts.iter().sum();
        let total_us = self.total_us.load(Ordering::Relaxed);
        let max_us = self.max_us.load(Ordering::Relaxed);
        let mean_ms = if count == 0 {
            0.0
        } else {
            total_us as f64 / count as f64 / 1000.0
        };
        HistogramSnapshot {
            count,
            mean_ms,
            p50_ms: quantile_ms(&counts, count, 0.50),
            p90_ms: quantile_ms(&counts, count, 0.90),
            p99_ms: quantile_ms(&counts, count, 0.99),
            max_ms: max_us as f64 / 1000.0,
        }
    }
}

fn bucket_for(us: u64) -> usize {
    if us < 2 {
        return 0;
    }
    let log2 = 63usize.saturating_sub(usize::try_from(us.leading_zeros()).unwrap_or(64));
    log2.min(BUCKETS - 1)
}

/// The upper bound of the first bucket whose cumulative count reaches
/// `q * count`, in ms. Zero when the histogram is empty.
fn quantile_ms(counts: &[u64; BUCKETS], count: u64, q: f64) -> f64 {
    if count == 0 {
        return 0.0;
    }
    #[allow(clippy::cast_sign_loss, reason = "`max(1.0)` keeps the rank positive")]
    let target = ((count as f64) * q).ceil().max(1.0) as u64;
    let mut cumulative = 0u64;
    for (i, &c) in counts.iter().enumerate() {
        cumulative += c;
        if cumulative >= target {
            let upper_us = 1u64 << (i + 1);
            return upper_us as f64 / 1000.0;
        }
    }
    (1u64 << BUCKETS) as f64 / 1000.0
}

/// Monotonic request counters for the whole server, exported by `/stats`.
#[derive(Debug, Default)]
pub struct ServeCounters {
    /// Connections accepted off the listener.
    pub accepted: AtomicU64,
    /// `/mine` requests fully served (any outcome except shed/error).
    pub mined: AtomicU64,
    /// `/mine` responses answered straight from the result cache.
    pub cache_served: AtomicU64,
    /// Requests rejected with `429` because the admission queue was full.
    pub shed: AtomicU64,
    /// Requests answered with a 4xx/5xx protocol or HTTP error.
    pub errors: AtomicU64,
    /// `/mine` responses whose deadline expired mid-mining (truncated).
    pub deadline_exceeded: AtomicU64,
    /// Mining batches executed (one shared DFS pass per batch; cache hits
    /// and errors are answered before batching and do not join).
    pub batches: AtomicU64,
    /// `/mine` requests that went through a mining batch (sum of batch
    /// sizes; `batched_requests / batches` is the mean batch size).
    pub batched_requests: AtomicU64,
    /// Largest mining batch executed so far.
    pub max_batch_size: AtomicU64,
}

impl ServeCounters {
    /// Relaxed load of every counter as `(name, value)` pairs, in a stable
    /// order for JSON export.
    pub fn load(&self) -> [(&'static str, u64); 9] {
        [
            ("accepted", self.accepted.load(Ordering::Relaxed)),
            ("mined", self.mined.load(Ordering::Relaxed)),
            ("cache_served", self.cache_served.load(Ordering::Relaxed)),
            ("shed", self.shed.load(Ordering::Relaxed)),
            ("errors", self.errors.load(Ordering::Relaxed)),
            (
                "deadline_exceeded",
                self.deadline_exceeded.load(Ordering::Relaxed),
            ),
            ("batches", self.batches.load(Ordering::Relaxed)),
            (
                "batched_requests",
                self.batched_requests.load(Ordering::Relaxed),
            ),
            (
                "max_batch_size",
                self.max_batch_size.load(Ordering::Relaxed),
            ),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_reads_zero() {
        let h = Histogram::default();
        let snap = h.snapshot();
        assert_eq!(snap.count, 0);
        assert_eq!(snap.p50_ms, 0.0);
        assert_eq!(snap.max_ms, 0.0);
    }

    #[test]
    fn quantiles_bracket_the_observations() {
        let h = Histogram::default();
        // 99 fast observations at ~1ms, one slow at ~500ms.
        for _ in 0..99 {
            h.record(Duration::from_micros(1_000));
        }
        h.record(Duration::from_millis(500));
        let snap = h.snapshot();
        assert_eq!(snap.count, 100);
        // 1000µs lands in bucket [2^9, 2^10) -> upper bound 1024µs.
        assert!((snap.p50_ms - 1.024).abs() < 1e-9, "{}", snap.p50_ms);
        assert!((snap.p90_ms - 1.024).abs() < 1e-9, "{}", snap.p90_ms);
        // p99 over 100 obs targets the 99th, still the fast bucket...
        assert!(snap.p99_ms <= 1.024 + 1e-9, "{}", snap.p99_ms);
        // ...while the max reports the slow outlier exactly.
        assert!((snap.max_ms - 500.0).abs() < 1.0, "{}", snap.max_ms);
        assert!(snap.mean_ms > 5.0 && snap.mean_ms < 7.0, "{}", snap.mean_ms);
    }

    #[test]
    fn extreme_observations_clamp_instead_of_panicking() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(3600));
        let snap = h.snapshot();
        assert_eq!(snap.count, 2);
        assert!(snap.max_ms >= 3_600_000.0);
    }

    #[test]
    fn counters_export_in_a_stable_order() {
        let c = ServeCounters::default();
        c.mined.fetch_add(3, Ordering::Relaxed);
        c.shed.fetch_add(1, Ordering::Relaxed);
        let loaded = c.load();
        assert_eq!(loaded[1], ("mined", 3));
        assert_eq!(loaded[3], ("shed", 1));
    }
}
