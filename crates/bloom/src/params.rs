//! Bloom filter parameter arithmetic (paper §2.1).
//!
//! The simplified analysis the paper adopts: a filter of `m` bits holding `n`
//! keys with `η` hash functions has false-positive rate
//! `p ≈ (1 − e^{−ηn/m})^η`, minimized by `η = (m/n)·ln 2`, giving
//! `m = −n·ln p / (ln 2)²`. The paper notes (citing Christensen et al. \[13\])
//! that this underestimates slightly for tiny filters but is accurate at BFU
//! scale; we implement the same expressions, and `rambo-core`'s index tests
//! check [`expected_fpr`] against the false positives a BFU measures.

/// Optimal bit count `m = ⌈−n·ln p / (ln 2)²⌉` for `n` keys at FPR `p`.
///
/// # Panics
/// Panics unless `0 < p < 1` and `n > 0`.
#[must_use]
pub fn optimal_m(n: usize, p: f64) -> usize {
    assert!(n > 0, "capacity must be positive");
    assert!(p > 0.0 && p < 1.0, "fpr must be in (0, 1)");
    let ln2 = std::f64::consts::LN_2;
    ((-(n as f64) * p.ln()) / (ln2 * ln2)).ceil() as usize
}

/// The simplified false-positive estimate `(1 − e^{−ηn/m})^η`.
///
/// # Panics
/// Panics if `m == 0`.
#[must_use]
pub fn expected_fpr(m: usize, n: usize, eta: u32) -> f64 {
    assert!(m > 0, "filter must have bits");
    let exponent = -(f64::from(eta) * n as f64) / m as f64;
    (1.0 - exponent.exp()).powi(eta as i32)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn optimal_m_textbook_values() {
        // Classic reference point: n = 1e6, p = 0.01 → ~9.585e6 bits.
        let m = optimal_m(1_000_000, 0.01);
        assert!((9_580_000..9_590_000).contains(&m), "m = {m}");
    }

    #[test]
    fn expected_fpr_monotone_in_load() {
        let lo = expected_fpr(10_000, 100, 3);
        let hi = expected_fpr(10_000, 2_000, 3);
        assert!(lo < hi, "more keys must mean more false positives");
        assert!(lo > 0.0 && hi < 1.0);
    }

    #[test]
    fn sized_filter_meets_target() {
        // Sizing for p (η = ⌈−log₂ p⌉) then evaluating the estimate at
        // capacity should land at or below ~p (the ceil in m and η pushes it
        // slightly under).
        for &p in &[0.1f64, 0.01, 0.001] {
            let eta = (-p.log2()).ceil() as u32;
            let m = optimal_m(50_000, p);
            let achieved = expected_fpr(m, 50_000, eta);
            assert!(
                achieved <= p * 1.05,
                "target {p}, achieved {achieved} (m {m}, η {eta})"
            );
        }
    }

    #[test]
    #[should_panic(expected = "fpr must be in (0, 1)")]
    fn rejects_invalid_fpr() {
        let _ = optimal_m(100, 1.0);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn rejects_zero_capacity() {
        let _ = optimal_m(0, 0.1);
    }
}
