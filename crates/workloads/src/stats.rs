//! Summary statistics for measurement series, plus a lock-free latency
//! histogram for concurrent recording (serving paths record from many
//! threads; a mutex around a `Vec<f64>` would serialize the hot path).

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Arithmetic mean (0 for empty input).
#[must_use]
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Percentile by nearest-rank (p in [0, 100]).
///
/// # Panics
/// Panics on empty input or out-of-range `p`.
#[must_use]
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!(!xs.is_empty(), "percentile of empty series");
    assert!((0.0..=100.0).contains(&p));
    let mut sorted = xs.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaNs in measurements"));
    let rank = ((p / 100.0) * (sorted.len() - 1) as f64).round() as usize;
    sorted[rank]
}

/// Median (50th percentile).
///
/// # Panics
/// Panics on empty input.
#[must_use]
pub fn median(xs: &[f64]) -> f64 {
    percentile(xs, 50.0)
}

/// Geometric mean of positive values.
///
/// # Panics
/// Panics on empty input or non-positive values.
#[must_use]
pub fn geo_mean(xs: &[f64]) -> f64 {
    assert!(!xs.is_empty());
    assert!(
        xs.iter().all(|&x| x > 0.0),
        "geo_mean needs positive values"
    );
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

/// Linear sub-buckets per power-of-two octave. Eight sub-buckets bound the
/// relative quantization error at `1/8 ≈ 12.5%` of the value — plenty for
/// latency percentiles, where run-to-run noise is larger.
const HIST_SUB_BITS: u32 = 3;
const HIST_SUB: usize = 1 << HIST_SUB_BITS;
/// Bucket count covering the full `u64` nanosecond range: values below
/// `HIST_SUB` get exact buckets, every octave above contributes `HIST_SUB`.
const HIST_BUCKETS: usize = HIST_SUB + (64 - HIST_SUB_BITS as usize) * HIST_SUB;

/// Lock-free log-linear latency histogram (HDR-histogram-style: power-of-two
/// octaves split into `HIST_SUB` linear sub-buckets), recordable from any
/// number of threads with one relaxed atomic increment per sample.
///
/// Quantiles are approximate — a sample lands in a bucket spanning at most
/// 12.5% of its value — which is the standard trade for a fixed-size,
/// allocation-free, contention-free recorder. Exact percentiles for offline
/// series stay in [`percentile`].
#[derive(Debug)]
pub struct LatencyHistogram {
    counts: Box<[AtomicU64; HIST_BUCKETS]>,
    total: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Snapshot clone (bucket-by-bucket relaxed loads); concurrent recorders
/// make it approximate the same way live reads are.
impl Clone for LatencyHistogram {
    fn clone(&self) -> Self {
        let h = Self::new();
        h.merge(self);
        h
    }
}

/// Bucket index for a nanosecond value.
fn hist_bucket(ns: u64) -> usize {
    if ns < HIST_SUB as u64 {
        return ns as usize;
    }
    let octave = 63 - ns.leading_zeros(); // ns ∈ [2^octave, 2^{octave+1})
    let sub = (ns >> (octave - HIST_SUB_BITS)) as usize & (HIST_SUB - 1);
    (octave - HIST_SUB_BITS + 1) as usize * HIST_SUB + sub
}

/// Representative (upper-bound) nanosecond value of a bucket — the inverse
/// of [`hist_bucket`], quoting the bucket's inclusive top so quantiles never
/// under-report.
fn hist_value(bucket: usize) -> u64 {
    if bucket < HIST_SUB {
        return bucket as u64;
    }
    let octave = (bucket / HIST_SUB) as u32 + HIST_SUB_BITS - 1;
    let sub = (bucket % HIST_SUB) as u64;
    let base = 1u64 << octave;
    let width = base >> HIST_SUB_BITS;
    // `base - 1` first: the top octave's upper bound is u64::MAX and the
    // unsubtracted sum would wrap.
    (base - 1) + (sub + 1) * width
}

impl LatencyHistogram {
    /// An empty histogram.
    #[must_use]
    pub fn new() -> Self {
        Self {
            counts: Box::new([0u64; HIST_BUCKETS].map(AtomicU64::new)),
            total: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
            max_ns: AtomicU64::new(0),
        }
    }

    /// Record one sample. Relaxed atomics: counts are only read after the
    /// recording threads are joined (or approximately, for live monitoring).
    pub fn record(&self, d: Duration) {
        let ns = u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.counts[hist_bucket(ns)].fetch_add(1, Ordering::Relaxed);
        self.total.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.max_ns.fetch_max(ns, Ordering::Relaxed);
    }

    /// Number of recorded samples.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Mean of the recorded samples (exact — tracked outside the buckets).
    #[must_use]
    pub fn mean(&self) -> Duration {
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        Duration::from_nanos(self.sum_ns.load(Ordering::Relaxed) / n)
    }

    /// Largest recorded sample (exact).
    #[must_use]
    pub fn max(&self) -> Duration {
        Duration::from_nanos(self.max_ns.load(Ordering::Relaxed))
    }

    /// Approximate quantile (`q` in `[0, 1]`): the upper bound of the bucket
    /// where the cumulative count reaches `⌈q·n⌉`. Returns zero for an empty
    /// histogram.
    ///
    /// # Panics
    /// Panics when `q` is outside `[0, 1]`.
    #[must_use]
    pub fn quantile(&self, q: f64) -> Duration {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        let n = self.count();
        if n == 0 {
            return Duration::ZERO;
        }
        let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (b, c) in self.counts.iter().enumerate() {
            seen += c.load(Ordering::Relaxed);
            if seen >= rank {
                return Duration::from_nanos(hist_value(b));
            }
        }
        self.max()
    }

    /// Fold `other`'s samples into `self` (bucket-wise count addition;
    /// count, mean and max stay exact). Aggregating per-shard or per-tier
    /// recorders into an overall distribution is bucket-exact — unlike
    /// averaging the shards' quantiles, which has no meaning. Quiesce (or
    /// accept approximate reads from) concurrent recorders on both sides.
    pub fn merge(&self, other: &LatencyHistogram) {
        for (dst, src) in self.counts.iter().zip(other.counts.iter()) {
            let c = src.load(Ordering::Relaxed);
            if c != 0 {
                dst.fetch_add(c, Ordering::Relaxed);
            }
        }
        self.total
            .fetch_add(other.total.load(Ordering::Relaxed), Ordering::Relaxed);
        self.sum_ns
            .fetch_add(other.sum_ns.load(Ordering::Relaxed), Ordering::Relaxed);
        self.max_ns
            .fetch_max(other.max_ns.load(Ordering::Relaxed), Ordering::Relaxed);
    }

    /// Reset every counter to zero (not atomic across buckets; callers
    /// quiesce recorders first).
    pub fn clear(&self) {
        for c in self.counts.iter() {
            c.store(0, Ordering::Relaxed);
        }
        self.total.store(0, Ordering::Relaxed);
        self.sum_ns.store(0, Ordering::Relaxed);
        self.max_ns.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_std() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-12);
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn percentiles() {
        let xs = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&xs), 3.0);
        assert_eq!(percentile(&xs, 0.0), 1.0);
        assert_eq!(percentile(&xs, 100.0), 5.0);
    }

    #[test]
    fn geometric_mean() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!((geo_mean(&[8.0]) - 8.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn geo_mean_rejects_zero() {
        let _ = geo_mean(&[1.0, 0.0]);
    }

    #[test]
    fn hist_bucket_and_value_are_consistent() {
        // Buckets partition the range: every value maps into a bucket whose
        // representative upper bound maps back to the same bucket, and
        // bucket indices are monotone in the value.
        let probes: Vec<u64> = (0..200)
            .chain([
                255,
                256,
                257,
                1 << 20,
                (1 << 20) + 1,
                u64::MAX - 1,
                u64::MAX,
            ])
            .collect();
        let mut last = 0usize;
        for &ns in &probes {
            let b = hist_bucket(ns);
            assert!(b < HIST_BUCKETS);
            assert!(b >= last, "bucket index must be monotone at {ns}");
            last = b;
            let top = hist_value(b);
            assert!(top >= ns, "upper bound {top} below sample {ns}");
            assert_eq!(hist_bucket(top), b, "upper bound re-buckets at {ns}");
            // Relative error of quoting the upper bound: ≤ 1/8 + rounding.
            if ns >= 8 {
                assert!((top - ns) as f64 / ns as f64 <= 0.125 + 1e-9);
            }
        }
    }

    #[test]
    fn histogram_quantiles_track_exact_percentiles() {
        let h = LatencyHistogram::new();
        let samples: Vec<u64> = (1..=1000u64).map(|i| i * 997 % 50_000 + 1).collect();
        for &ns in &samples {
            h.record(Duration::from_nanos(ns));
        }
        assert_eq!(h.count(), 1000);
        let exact: Vec<f64> = samples.iter().map(|&x| x as f64).collect();
        for q in [0.5, 0.9, 0.99] {
            let approx = h.quantile(q).as_nanos() as f64;
            let truth = percentile(&exact, q * 100.0);
            let rel = (approx - truth).abs() / truth;
            assert!(rel < 0.15, "q={q}: approx {approx} vs exact {truth}");
        }
        assert_eq!(
            h.max().as_nanos() as f64,
            exact.iter().copied().fold(0.0, f64::max)
        );
        assert!(h.quantile(1.0) >= h.max());
        assert_eq!(h.quantile(0.0).as_nanos(), h.quantile(1e-9).as_nanos());
    }

    #[test]
    fn histogram_merge_matches_recording_into_one() {
        let (a, b, all) = (
            LatencyHistogram::new(),
            LatencyHistogram::new(),
            LatencyHistogram::new(),
        );
        for i in 1..=500u64 {
            let ns = Duration::from_nanos(i * 131 % 20_000 + 1);
            if i % 3 == 0 {
                a.record(ns)
            } else {
                b.record(ns)
            }
            all.record(ns);
        }
        a.merge(&b);
        assert_eq!(a.count(), all.count());
        assert_eq!(a.mean(), all.mean());
        assert_eq!(a.max(), all.max());
        for q in [0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), all.quantile(q), "q={q}");
        }
    }

    #[test]
    fn histogram_concurrent_recording_loses_nothing() {
        let h = LatencyHistogram::new();
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let h = &h;
                s.spawn(move || {
                    for i in 0..1000u64 {
                        h.record(Duration::from_nanos(t * 1000 + i + 1));
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert!(h.mean() > Duration::ZERO);
        h.clear();
        assert_eq!(h.count(), 0);
        assert_eq!(h.quantile(0.99), Duration::ZERO);
    }
}
