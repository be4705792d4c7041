//! Order statistics and the one curve fit the benchmark reports.

use std::time::Duration;

/// Median of `values` (mean of the two middle values for an even count).
///
/// # Panics
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// The `q`-quantile (nearest rank) of per-op samples in nanoseconds, in µs.
pub fn quantile_us(samples_ns: &[u32], q: f64) -> f64 {
    assert!(!samples_ns.is_empty(), "quantile of no samples");
    let mut v = samples_ns.to_vec();
    v.sort_unstable();
    let rank = ((v.len() as f64 * q).ceil() as usize).clamp(1, v.len());
    f64::from(v[rank - 1]) / 1e3
}

/// One timed slice: how many operations it ran and how long it took.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    pub ops: usize,
    pub elapsed: Duration,
}

impl Slice {
    pub fn ops_per_s(&self) -> f64 {
        self.ops as f64 / self.elapsed.as_secs_f64()
    }
}

/// Throughput of a phase: the median slice (rule 5), so one slice that
/// shared its core with something else cannot move the result.
pub fn median_ops_per_s(slices: &[Slice]) -> f64 {
    median(&slices.iter().map(Slice::ops_per_s).collect::<Vec<_>>())
}

/// Every slice's rate, for the run's report: the spread inside a run is the
/// first thing to look at when two runs disagree.
pub fn slice_rates(slices: &[Slice]) -> String {
    let rates: Vec<String> = slices
        .iter()
        .map(|s| format!("{:.0}", s.ops_per_s()))
        .collect();
    rates.join(" ")
}

/// Least-squares slope of `ln y` on `ln x`: the exponent `a` of `y ≈ c·xᵃ`.
/// The paper's claim for query time against the number of documents is
/// `a ≈ 0.5`.
pub fn loglog_slope(points: &[(f64, f64)]) -> f64 {
    assert!(points.len() >= 2, "a slope needs two points");
    let n = points.len() as f64;
    let (mut sx, mut sy, mut sxx, mut sxy) = (0.0, 0.0, 0.0, 0.0);
    for &(x, y) in points {
        let (lx, ly) = (x.ln(), y.ln());
        sx += lx;
        sy += ly;
        sxx += lx * lx;
        sxy += lx * ly;
    }
    (n * sxy - sx * sy) / (n * sxx - sx * sx)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unordered() {
        assert_eq!(median(&[3.0]), 3.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn quantiles_use_nearest_rank() {
        let ns: Vec<u32> = (1..=100).map(|i| i * 1000).collect();
        assert_eq!(quantile_us(&ns, 0.5), 50.0);
        assert_eq!(quantile_us(&ns, 0.99), 99.0);
        assert_eq!(quantile_us(&ns, 1.0), 100.0);
        assert_eq!(quantile_us(&[7000], 0.5), 7.0);
    }

    #[test]
    fn median_slice_ignores_one_slow_slice() {
        let fast = Slice {
            ops: 1000,
            elapsed: Duration::from_millis(100),
        };
        let slow = Slice {
            ops: 1000,
            elapsed: Duration::from_millis(400),
        };
        assert_eq!(median_ops_per_s(&[fast, slow, fast]), 10_000.0);
    }

    #[test]
    fn slope_recovers_a_square_root_law() {
        let pts: Vec<(f64, f64)> = [1000.0, 4000.0, 16000.0]
            .iter()
            .map(|&k: &f64| (k, 3.0 * k.sqrt()))
            .collect();
        assert!((loglog_slope(&pts) - 0.5).abs() < 1e-9);
        let linear: Vec<(f64, f64)> = [10.0, 100.0].iter().map(|&k| (k, 2.0 * k)).collect();
        assert!((loglog_slope(&linear) - 1.0).abs() < 1e-9);
    }
}
