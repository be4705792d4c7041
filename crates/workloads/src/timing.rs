//! Wall-clock measurement helpers for the bench harnesses.
//!
//! The paper reports query time as single-thread CPU time and construction
//! time as wall-clock over 40 threads (§5.2). In this reproduction every
//! measured section is CPU-bound and single-process, so wall time over the
//! measured thread is the faithful equivalent; this is noted in
//! EXPERIMENTS.md.

use std::time::{Duration, Instant};

/// Run `f`, returning its result and elapsed wall time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let start = Instant::now();
    let out = f();
    (out, start.elapsed())
}

/// Format a duration the way the paper's tables do (`1m25s`, `52m`, `2h30m`,
/// `0.018 ms`).
#[must_use]
pub fn human_duration(d: Duration) -> String {
    let secs = d.as_secs_f64();
    if secs >= 3600.0 {
        let h = (secs / 3600.0).floor();
        let m = ((secs - h * 3600.0) / 60.0).round();
        format!("{h:.0}h{m:.0}m")
    } else if secs >= 60.0 {
        let m = (secs / 60.0).floor();
        let s = (secs - m * 60.0).round();
        format!("{m:.0}m{s:.0}s")
    } else if secs >= 1.0 {
        format!("{secs:.2}s")
    } else {
        format!("{:.4} ms", secs * 1e3)
    }
}

/// Format bytes like the paper's size tables (`12.8GB`, `51 MB`).
#[must_use]
pub fn human_bytes(bytes: usize) -> String {
    const GB: f64 = 1e9;
    const MB: f64 = 1e6;
    const KB: f64 = 1e3;
    let b = bytes as f64;
    if b >= GB {
        format!("{:.2}GB", b / GB)
    } else if b >= MB {
        format!("{:.2}MB", b / MB)
    } else if b >= KB {
        format!("{:.1}KB", b / KB)
    } else {
        format!("{bytes}B")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_returns_result_and_duration() {
        let (v, d) = time(|| (0..1000).sum::<u64>());
        assert_eq!(v, 499_500);
        assert!(d >= Duration::ZERO);
    }

    #[test]
    fn duration_formats() {
        assert_eq!(human_duration(Duration::from_secs(9000)), "2h30m");
        assert_eq!(human_duration(Duration::from_secs(85)), "1m25s");
        assert_eq!(human_duration(Duration::from_secs_f64(2.5)), "2.50s");
        assert_eq!(human_duration(Duration::from_micros(18)), "0.0180 ms");
    }

    #[test]
    fn byte_formats() {
        assert_eq!(human_bytes(12_800_000_000), "12.80GB");
        assert_eq!(human_bytes(51_000_000), "51.00MB");
        assert_eq!(human_bytes(2_048), "2.0KB");
        assert_eq!(human_bytes(12), "12B");
    }
}
