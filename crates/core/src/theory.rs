//! The paper's analytic results as executable formulas (§4 and appendix §7).
//!
//! These are used three ways in this repository: parameter selection in
//! [`crate::RamboBuilder`], predicted-vs-measured comparisons in the Figure 4
//! and Table 2 harnesses, and property tests pinning the qualitative claims
//! (monotonicity, limits) the paper states in prose.

/// **Lemma 4.1** — per-document false-positive rate.
///
/// With per-BFU FPR `p`, `B` buckets, `R` repetitions, and a query term
/// present in at most `v` documents, the probability of wrongly reporting a
/// specific non-containing document is
/// `F_p = (p·(1−1/B)^V + 1 − (1−1/B)^V)^R`: in each repetition the
/// document's bucket must either collide with a true document's bucket
/// (`1 − (1−1/B)^V`) or its BFU must fail (`p`, conditioned on no
/// collision).
///
/// # Panics
/// Panics unless `0 ≤ p ≤ 1` and `b ≥ 1`.
#[must_use]
pub fn per_doc_fpr(p: f64, b: u64, v: u32, r: usize) -> f64 {
    assert!((0.0..=1.0).contains(&p), "p must be a probability");
    assert!(b >= 1, "need at least one bucket");
    let clean = (1.0 - 1.0 / b as f64).powi(v as i32);
    (p * clean + (1.0 - clean)).powi(r as i32)
}

/// **Lemma 4.2** — overall false-positive bound over all `K` documents
/// (union bound over Lemma 4.1): `δ ≤ K·(1 − (1−p)(1−1/B)^V)^R`.
#[must_use]
pub fn overall_fpr_bound(k: usize, p: f64, b: u64, v: u32, r: usize) -> f64 {
    (k as f64 * per_doc_fpr(p, b, v, r)).min(1.0)
}

/// **Theorem 4.3** — repetitions needed for a target overall FPR `δ`:
/// `R = O(log K − log δ)`. This is the paper's simplified form
/// `⌈ln K − ln δ⌉` (base-e; assumes the per-repetition survival factor is at
/// most `1/e`).
///
/// # Panics
/// Panics unless `0 < delta < 1` and `k ≥ 1`.
#[must_use]
pub fn required_repetitions(k: usize, delta: f64) -> usize {
    assert!(k >= 1);
    assert!(delta > 0.0 && delta < 1.0);
    ((k as f64).ln() - delta.ln()).ceil().max(1.0) as usize
}

/// Exact version of Theorem 4.3: the smallest `R` with
/// `K·inner^R ≤ δ`, where `inner = p(1−1/B)^V + 1 − (1−1/B)^V` is the
/// per-repetition survival probability from Lemma 4.1.
///
/// # Panics
/// Panics on out-of-range probabilities or `inner ≥ 1`.
#[must_use]
pub fn required_repetitions_exact(k: usize, delta: f64, p: f64, b: u64, v: u32) -> usize {
    assert!(delta > 0.0 && delta < 1.0);
    let clean = (1.0 - 1.0 / b as f64).powi(v as i32);
    let inner = p * clean + (1.0 - clean);
    assert!(
        inner < 1.0,
        "per-repetition survival must be < 1 (p={p}, B={b}, V={v})"
    );
    ((delta.ln() - (k as f64).ln()) / inner.ln())
        .ceil()
        .max(1.0) as usize
}

/// **Lemma 4.4** — expected query time (in abstract "operations"):
/// `E[q_t] ≤ B·R·η + (K/B)·(V + B·p)·R`. The first term prices the BFU
/// probes, the second the union/intersection work over expected survivors.
#[must_use]
pub fn expected_query_ops(b: u64, r: usize, eta: u32, k: usize, v: u32, p: f64) -> f64 {
    let probes = b as f64 * r as f64 * f64::from(eta);
    let merge = (k as f64 / b as f64) * (f64::from(v) + b as f64 * p) * r as f64;
    probes + merge
}

/// The bucket count minimizing Lemma 4.4: `B = √(K·V/η)` (from
/// `∇_B E[q_t] = 0`, §4.2). Clamped to at least 2.
#[must_use]
pub fn optimal_buckets(k: usize, v: u32, eta: u32) -> u64 {
    (((k as f64 * f64::from(v)) / f64::from(eta)).sqrt().round() as u64).max(2)
}

/// **Theorem 4.5** — the headline complexity `O(√K(log K − log δ))`,
/// returned as the concrete operation count at the optimal `B` and the
/// simplified `R`.
#[must_use]
pub fn theorem_query_ops(k: usize, delta: f64, v: u32, eta: u32, p: f64) -> f64 {
    let b = optimal_buckets(k, v, eta);
    let r = required_repetitions(k, delta);
    expected_query_ops(b, r, eta, k, v, p)
}

/// **Lemma 4.6's Γ** — the deduplication factor: expected *distinct*
/// `(term, bucket)` insertions per repetition divided by total insertions
/// `Σ|S|`, for terms of uniform multiplicity `V`:
/// `Γ = (B/V)·(1 − (1−1/B)^V)`.
///
/// Satisfies the paper's claims: `Γ = 1` at `V = 1`; `Γ < 1` for `V > 1`;
/// `Γ → 1` as `B → ∞` (one filter per set). Note the paper's printed sum
/// (`Σ_v (1/v)(B−1)^{V−2v+1}/B^{V−1}`) contains a typo — see
/// [`gamma_paper`] and DESIGN.md.
///
/// # Panics
/// Panics if `b < 1` or `v < 1`.
#[must_use]
pub fn gamma(b: u64, v: u32) -> f64 {
    assert!(b >= 1 && v >= 1);
    let bf = b as f64;
    (bf / f64::from(v)) * (1.0 - (1.0 - 1.0 / bf).powi(v as i32))
}

/// The paper's *literal* Γ formula from the appendix:
/// `Σ_{v=1}^{V} (1/v)·(B−1)^{V−2v+1}/B^{V−1}`. Reproduced verbatim for
/// comparison; for `v > (V+1)/2` the exponent goes negative, which is the
/// typo documented in DESIGN.md.
#[must_use]
pub fn gamma_paper(b: u64, v_max: u32) -> f64 {
    let bf = b as f64;
    (1..=v_max)
        .map(|v| {
            let exp = i32::try_from(v_max).unwrap() - 2 * v as i32 + 1;
            (1.0 / f64::from(v)) * (bf - 1.0).powi(exp) / bf.powi(v_max as i32 - 1)
        })
        .sum()
}

/// **Lemma 4.6** — expected index size in bits:
/// `R · Γ · Σ|S| · log₂(1/p) / ln 2` (optimal Bloom bits per distinct key,
/// times distinct insertions per repetition, times repetitions). With
/// `R = O(log K)` this is the paper's `Γ·log K·log(1/p)·Σ|S|` up to the
/// `ln 2` constants it absorbs.
///
/// # Panics
/// Panics unless `0 < p < 1`.
#[must_use]
pub fn expected_memory_bits(total_insertions: u64, v: u32, b: u64, r: usize, p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0);
    let bits_per_key = -p.log2() / std::f64::consts::LN_2;
    r as f64 * gamma(b, v) * total_insertions as f64 * bits_per_key
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_doc_fpr_limits() {
        // R=1, V=0 (term in no document): only the Bloom failure remains.
        assert!((per_doc_fpr(0.01, 100, 0, 1) - 0.01).abs() < 1e-12);
        // p=0: pure bucket-collision term.
        let b = 50u64;
        let expect = 1.0 - (1.0 - 1.0 / 50.0f64).powi(3);
        assert!((per_doc_fpr(0.0, b, 3, 1) - expect).abs() < 1e-12);
        // More repetitions always help.
        assert!(per_doc_fpr(0.01, 50, 2, 3) < per_doc_fpr(0.01, 50, 2, 2));
        // Higher multiplicity always hurts.
        assert!(per_doc_fpr(0.01, 50, 8, 2) > per_doc_fpr(0.01, 50, 2, 2));
    }

    #[test]
    fn overall_bound_scales_with_k_and_caps_at_one() {
        let a = overall_fpr_bound(100, 0.01, 50, 2, 3);
        let b = overall_fpr_bound(200, 0.01, 50, 2, 3);
        assert!((b / a - 2.0).abs() < 1e-9);
        assert_eq!(overall_fpr_bound(1_000_000, 0.5, 2, 50, 1), 1.0);
    }

    #[test]
    fn repetitions_grow_logarithmically() {
        let r100 = required_repetitions(100, 0.01);
        let r10k = required_repetitions(10_000, 0.01);
        // ln(10000/100) ≈ 4.6 more repetitions.
        assert!((4..=5).contains(&(r10k - r100)));
        assert_eq!(required_repetitions(1, 0.5), 1);
    }

    #[test]
    fn exact_repetitions_achieve_the_bound() {
        let (k, delta, p, b, v) = (1000usize, 0.01, 0.01, 60u64, 4u32);
        let r = required_repetitions_exact(k, delta, p, b, v);
        assert!(overall_fpr_bound(k, p, b, v, r) <= delta * 1.0001);
        if r > 1 {
            assert!(overall_fpr_bound(k, p, b, v, r - 1) > delta);
        }
    }

    #[test]
    fn optimal_b_is_sqrt_shaped() {
        assert_eq!(optimal_buckets(100, 1, 1), 10);
        assert_eq!(optimal_buckets(10_000, 1, 1), 100);
        // 4x K → 2x B.
        let b1 = optimal_buckets(2_500, 4, 2);
        let b2 = optimal_buckets(10_000, 4, 2);
        assert!((f64::from(b2 as u32) / f64::from(b1 as u32) - 2.0).abs() < 0.1);
    }

    #[test]
    fn query_ops_minimized_near_optimal_b() {
        let (k, v, eta, p, r) = (10_000usize, 2u32, 2u32, 0.01, 3usize);
        let b_opt = optimal_buckets(k, v, eta);
        let at_opt = expected_query_ops(b_opt, r, eta, k, v, p);
        for factor in [4u64, 8] {
            assert!(expected_query_ops(b_opt * factor, r, eta, k, v, p) > at_opt);
            assert!(expected_query_ops((b_opt / factor).max(2), r, eta, k, v, p) > at_opt);
        }
    }

    #[test]
    fn theorem_scaling_is_sublinear() {
        // Doubling K should grow cost by ≈ √2 (log factor is mild), far
        // below 2x (the COBS scaling).
        let c1 = theorem_query_ops(10_000, 0.01, 2, 2, 0.01);
        let c2 = theorem_query_ops(40_000, 0.01, 2, 2, 0.01);
        let ratio = c2 / c1;
        assert!(
            ratio < 3.0,
            "4x documents must cost well under 4x (got {ratio:.2}x)"
        );
        assert!(ratio > 1.5, "cost must still grow with K (got {ratio:.2}x)");
    }

    #[test]
    fn gamma_limits_and_monotonicity() {
        // V = 1: no duplicates to merge, Γ = 1 exactly.
        assert!((gamma(64, 1) - 1.0).abs() < 1e-12);
        // V > 1 with B < ∞: Γ < 1 (the paper's claim).
        assert!(gamma(64, 2) < 1.0);
        assert!(gamma(64, 16) < gamma(64, 2));
        // B → large: Γ → 1.
        assert!(gamma(1 << 30, 4) > 0.999_999);
        // B = 1: everything merges into one bucket, Γ = 1/V.
        assert!((gamma(1, 8) - 1.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn gamma_matches_monte_carlo() {
        // Balls-in-bins simulation: T terms × V docs hashed into B buckets.
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let (b, v, t) = (32u64, 6u32, 20_000u32);
        let mut rng = StdRng::seed_from_u64(42);
        let mut distinct = 0u64;
        for _ in 0..t {
            let mut buckets = std::collections::HashSet::new();
            for _ in 0..v {
                buckets.insert(rng.gen_range(0..b));
            }
            distinct += buckets.len() as u64;
        }
        let measured = distinct as f64 / (f64::from(t) * f64::from(v));
        let predicted = gamma(b, v);
        assert!(
            (measured - predicted).abs() < 0.01,
            "Monte-Carlo Γ {measured:.4} vs predicted {predicted:.4}"
        );
    }

    #[test]
    fn gamma_paper_agrees_at_v1_and_diverges_after() {
        // At V=1 the printed formula is correct (Γ = 1)…
        assert!((gamma_paper(64, 1) - 1.0).abs() < 1e-12);
        // …and both agree B→∞-ish at V=1 only; for V=2 the printed formula
        // still tracks loosely at large B (the typo term vanishes as 1/B²).
        let delta = (gamma_paper(1 << 20, 2) - gamma(1 << 20, 2)).abs();
        assert!(delta < 1e-3, "large-B agreement broken: {delta}");
    }

    #[test]
    fn memory_decreases_with_multiplicity_and_grows_with_r() {
        let n = 1_000_000u64;
        let base = expected_memory_bits(n, 1, 100, 3, 0.01);
        assert!(expected_memory_bits(n, 8, 100, 3, 0.01) < base);
        assert!(expected_memory_bits(n, 1, 100, 6, 0.01) > base);
        // V=1, R=1: plain optimal Bloom size n·log2(1/p)/ln2.
        let plain = expected_memory_bits(n, 1, 100, 1, 0.01);
        let expect = n as f64 * (-(0.01f64).log2()) / std::f64::consts::LN_2;
        assert!((plain - expect).abs() / expect < 1e-9);
    }
}
