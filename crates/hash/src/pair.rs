//! Double-hashing pairs: the bridge between "hash the term once" and
//! "probe `η` Bloom-filter positions".
//!
//! Kirsch & Mitzenmacher showed that the probe sequence
//! `g_i(x) = h1(x) + i·h2(x) (mod m)` preserves the asymptotic false-positive
//! behaviour of `η` independent hashes. RAMBO leans on this hard: a term is
//! hashed **once** and the same [`HashPair`] is reused across all `R` BFUs it
//! is inserted into (the BFUs share one Bloom hash family, paper §5.3 — "all
//! machines use the same hash function and seeds").

use crate::mix::mix64;
use crate::murmur3::murmur3_x64_128;

/// A 128-bit digest split into the two halves used for double hashing.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct HashPair {
    /// First probe base.
    pub h1: u64,
    /// Probe stride. Forced odd so that for power-of-two `m` the probe
    /// sequence cycles through all positions.
    pub h2: u64,
}

impl HashPair {
    /// Hash an arbitrary byte term (word, raw k-mer string, …).
    #[inline]
    #[must_use]
    pub fn of_bytes(term: &[u8], seed: u64) -> Self {
        let (h1, h2) = murmur3_x64_128(term, seed);
        Self { h1, h2: h2 | 1 }
    }

    /// Fast path for 2-bit-packed k-mers: two decorrelated [`mix64`]
    /// cascades instead of a byte-stream hash. ~3–4× faster than
    /// [`HashPair::of_bytes`] on 8-byte inputs, which matters because every
    /// inserted k-mer is hashed exactly once on the construction hot path.
    #[inline]
    #[must_use]
    pub fn of_u64(term: u64, seed: u64) -> Self {
        let h1 = mix64(term ^ seed);
        let h2 = mix64(h1 ^ 0x9e37_79b9_7f4a_7c15u64.wrapping_mul(seed | 1));
        Self { h1, h2: h2 | 1 }
    }

    /// The `i`-th probe position in a filter of `m` bits.
    #[inline]
    #[must_use]
    pub fn index(&self, i: u32, m: u64) -> u64 {
        debug_assert!(m > 0);
        self.h1.wrapping_add(u64::from(i).wrapping_mul(self.h2)) % m
    }

    /// [`HashPair::index`] against a modulus prepared once — the same
    /// position, without the hardware divide.
    #[inline]
    #[must_use]
    pub fn index_in(&self, i: u32, m: &Modulus) -> u64 {
        m.reduce(self.h1.wrapping_add(u64::from(i).wrapping_mul(self.h2)))
    }

    /// Iterate the first `eta` probe positions in a filter of `m` bits.
    #[inline]
    pub fn indices(&self, eta: u32, m: u64) -> impl Iterator<Item = u64> + '_ {
        (0..eta).map(move |i| self.index(i, m))
    }
}

/// A run-time modulus `m` with its reciprocal precomputed, so that `x % m`
/// over many `x` costs a multiply-high, a multiply and one conditional
/// subtract instead of a 64-bit divide (20–40 cycles, unpipelined, on the
/// cores this runs on). Exact for every `x` and every `m ≥ 1`.
///
/// With `c = ⌊(2⁶⁴ − 1)/m⌋` and `q = ⌊x·c / 2⁶⁴⌋`: `c = (2⁶⁴ − e)/m` for some
/// `1 ≤ e ≤ m`, so `x·c/2⁶⁴ = x/m − (x/2⁶⁴)(e/m)` lies in `(x/m − 1, x/m]`
/// and `q` is `⌊x/m⌋` or one less. Hence `r = x − q·m` is in `[0, 2m)` — it
/// never exceeds `x`, so it fits a `u64` even when `2m` does not — and one
/// subtract lands it in `[0, m)`. (`⌊(2⁶⁴ − 1)/m⌋` rather than `⌊2⁶⁴/m⌋`
/// differs only for powers of two and is what lets `m = 1` and `m > 2⁶³`
/// through the same three instructions.)
///
/// [`HashPair::index`] stays the definition; this is an equal, faster way to
/// evaluate it on the hot paths that hash thousands of terms against one `m`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Modulus {
    m: u64,
    /// `⌊(2⁶⁴ − 1)/m⌋`.
    reciprocal: u64,
}

impl Modulus {
    /// Prepare to reduce by `m`.
    ///
    /// # Panics
    /// Panics if `m` is zero.
    #[inline]
    #[must_use]
    pub fn new(m: u64) -> Self {
        assert!(m > 0, "modulus must be nonzero");
        Self {
            m,
            reciprocal: u64::MAX / m,
        }
    }

    /// `m` itself.
    #[inline]
    #[must_use]
    pub fn get(&self) -> u64 {
        self.m
    }

    /// `x % m`.
    #[inline]
    #[must_use]
    pub fn reduce(&self, x: u64) -> u64 {
        let q = ((u128::from(x) * u128::from(self.reciprocal)) >> 64) as u64;
        let r = x - q * self.m;
        if r >= self.m {
            r - self.m
        } else {
            r
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SplitMix64;

    #[test]
    fn modulus_reduce_is_exactly_the_remainder() {
        let mut rng = SplitMix64::new(0x5eed);
        let mut moduli = vec![
            1,
            2,
            3,
            1013,
            65_521,
            u64::from(u32::MAX),
            4_294_967_311, // first prime above 2³²
            (1 << 61) - 1,
            (1 << 63) - 1,
            1 << 63,
            (1 << 63) + 1,
            u64::MAX - 58, // largest 64-bit prime
            u64::MAX - 1,
            u64::MAX,
        ];
        for k in 1..64 {
            moduli.extend([(1u64 << k) - 1, 1 << k, (1 << k) + 1]);
        }
        moduli.extend((0..200).map(|i| (rng.next_u64() >> (i % 64)).max(1)));
        for m in moduli {
            let modulus = Modulus::new(m);
            let mut xs = vec![
                0,
                1,
                m - 1,
                m,
                m.wrapping_add(1),
                m.wrapping_mul(2),
                u64::MAX,
            ];
            for i in 0..64 {
                // Around a multiple of `m`, where the quotient estimate is
                // most likely to be one short; then any magnitude at all.
                let multiple = (rng.next_u64() / m).wrapping_mul(m);
                xs.extend([multiple.wrapping_sub(1), multiple, multiple.wrapping_add(1)]);
                xs.push(rng.next_u64() >> i);
            }
            for x in xs {
                assert_eq!(modulus.reduce(x), x % m, "{x} % {m}");
            }
        }
    }

    #[test]
    fn index_in_matches_index() {
        for m in [1u64, 64, 1013, 1 << 20, (1 << 20) + 7, u64::MAX] {
            let modulus = Modulus::new(m);
            for t in 0..500u64 {
                let p = HashPair::of_u64(t, 11);
                for i in 0..6 {
                    assert_eq!(p.index_in(i, &modulus), p.index(i, m));
                }
            }
        }
    }

    #[test]
    fn bytes_and_u64_paths_are_deterministic() {
        assert_eq!(
            HashPair::of_bytes(b"ACGT", 5),
            HashPair::of_bytes(b"ACGT", 5)
        );
        assert_eq!(HashPair::of_u64(77, 5), HashPair::of_u64(77, 5));
    }

    #[test]
    fn stride_is_always_odd() {
        for i in 0..1000u64 {
            assert_eq!(HashPair::of_u64(i, 3).h2 & 1, 1);
            assert_eq!(HashPair::of_bytes(&i.to_le_bytes(), 3).h2 & 1, 1);
        }
    }

    #[test]
    fn probe_positions_in_range_and_spread() {
        let m = 1013u64; // prime, non power of two
        let p = HashPair::of_u64(123_456, 9);
        let idx: Vec<u64> = p.indices(6, m).collect();
        assert_eq!(idx.len(), 6);
        for &i in &idx {
            assert!(i < m);
        }
        // With m prime and h2 != 0 mod m, all probes are distinct.
        let set: std::collections::HashSet<_> = idx.iter().collect();
        assert_eq!(set.len(), 6);
    }

    #[test]
    fn index_zero_is_h1_mod_m() {
        let p = HashPair { h1: 1000, h2: 33 };
        assert_eq!(p.index(0, 64), 1000 % 64);
        assert_eq!(p.index(1, 64), (1000 + 33) % 64);
        assert_eq!(p.index(2, 64), (1000 + 66) % 64);
    }

    #[test]
    fn different_seeds_decorrelate_positions() {
        let m = 1 << 20;
        let mut same = 0;
        for t in 0..1000u64 {
            let a = HashPair::of_u64(t, 1).index(0, m);
            let b = HashPair::of_u64(t, 2).index(0, m);
            if a == b {
                same += 1;
            }
        }
        // Collision chance per term is ~1/m; over 1000 terms expect ~0.
        assert!(same <= 2, "seeds insufficiently independent: {same}");
    }
}
