//! Lock-free, log-bucketed latency histograms.
//!
//! One [`Histogram`] is 48 `AtomicU64` buckets, bucket `i` counting
//! latencies in `[2^(i-1), 2^i)` microseconds (bucket 0 is `< 1 µs`).
//! Recording is a single relaxed `fetch_add` — no lock, no allocation —
//! so the serving hot path pays nanoseconds per sample regardless of
//! contention. Quantiles are read back by walking the bucket counts and
//! reporting the matched bucket's **upper bound**: a conservative
//! estimate whose relative error is bounded by the 2× bucket width,
//! which is exactly the resolution an SLO gate needs (a p99 regression
//! big enough to matter moves the answer at least one bucket).
//!
//! [`LatencyStats`] keys one histogram per objective, so `F_MS`,
//! `F_MM` and `F_mono` latencies — whose solve complexities differ —
//! never blur into one distribution.

use divr_core::problem::ObjectiveKind;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

const BUCKETS: usize = 48;

/// One log-bucketed latency distribution (microsecond domain).
pub(crate) struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    count: AtomicU64,
    sum_us: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            count: AtomicU64::new(0),
            sum_us: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    fn bucket_of(us: u64) -> usize {
        // floor(log2(us)) + 1, clamped; us = 0 lands in bucket 0.
        ((64 - us.leading_zeros()) as usize).min(BUCKETS - 1)
    }

    /// Records one sample.
    pub(crate) fn record(&self, elapsed: Duration) {
        let us = elapsed.as_micros().min(u64::MAX as u128) as u64;
        self.buckets[Self::bucket_of(us)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
    }

    /// Samples recorded so far.
    pub(crate) fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Mean latency in microseconds (0 when empty).
    pub(crate) fn mean_us(&self) -> u64 {
        self.sum_us
            .load(Ordering::Relaxed)
            .checked_div(self.count())
            .unwrap_or(0)
    }

    /// The `q`-quantile in microseconds as the matched bucket's upper
    /// bound (0 when empty). `q` is clamped to `[0, 1]`.
    pub(crate) fn quantile_us(&self, q: f64) -> u64 {
        let count = self.count();
        if count == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, bucket) in self.buckets.iter().enumerate() {
            seen += bucket.load(Ordering::Relaxed);
            if seen >= rank {
                return upper_bound_us(i);
            }
        }
        upper_bound_us(BUCKETS - 1)
    }
}

fn upper_bound_us(bucket: usize) -> u64 {
    if bucket == 0 {
        1
    } else {
        1u64 << bucket.min(63)
    }
}

/// Per-objective latency histograms (the `/stats` export).
#[derive(Default)]
pub(crate) struct LatencyStats {
    per_objective: [Histogram; 3],
}

impl LatencyStats {
    /// Empty stats.
    pub(crate) fn new() -> Self {
        LatencyStats::default()
    }

    fn index(kind: ObjectiveKind) -> usize {
        match kind {
            ObjectiveKind::MaxSum => 0,
            ObjectiveKind::MaxMin => 1,
            ObjectiveKind::Mono => 2,
        }
    }

    /// The histogram for one objective.
    pub(crate) fn of(&self, kind: ObjectiveKind) -> &Histogram {
        &self.per_objective[Self::index(kind)]
    }

    /// Records one served request's latency under its objective.
    pub(crate) fn record(&self, kind: ObjectiveKind, elapsed: Duration) {
        self.of(kind).record(elapsed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_walk_buckets_conservatively() {
        let h = Histogram::default();
        for _ in 0..99 {
            h.record(Duration::from_micros(10)); // bucket [8, 16)
        }
        h.record(Duration::from_micros(5000)); // bucket [4096, 8192)
        assert_eq!(h.count(), 100);
        assert_eq!(h.quantile_us(0.50), 16);
        assert_eq!(h.quantile_us(0.99), 16);
        assert_eq!(h.quantile_us(1.0), 8192);
        // Upper-bound reporting: never *under*-estimates the sample.
        assert!(h.quantile_us(0.5) >= 10);
        assert!(h.mean_us() >= 10);
    }

    #[test]
    fn zero_and_huge_samples_stay_in_range() {
        let h = Histogram::default();
        h.record(Duration::ZERO);
        h.record(Duration::from_secs(10_000));
        assert_eq!(h.count(), 2);
        assert_eq!(h.quantile_us(0.0), 1);
        assert!(h.quantile_us(1.0) >= 10_000_000_000 / 2);
    }

    #[test]
    fn objectives_do_not_blur() {
        let stats = LatencyStats::new();
        stats.record(ObjectiveKind::MaxSum, Duration::from_micros(3));
        stats.record(ObjectiveKind::Mono, Duration::from_micros(3000));
        assert_eq!(stats.of(ObjectiveKind::MaxSum).count(), 1);
        assert_eq!(stats.of(ObjectiveKind::MaxMin).count(), 0);
        assert!(stats.of(ObjectiveKind::Mono).quantile_us(0.5) > 2048);
    }
}
