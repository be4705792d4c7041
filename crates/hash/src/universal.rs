//! 2-universal hash families over the Mersenne prime `p = 2^61 − 1`, plus the
//! partition and two-level routing hashers built on them.
//!
//! The paper's construction (§3.2) requires, for each repetition `i ∈ 1..R`,
//! an independent 2-universal function `φ_i : doc-identity → [0, B)`. The
//! Carter–Wegman family `h_{a,b}(x) = ((a·x + b) mod p) mod B` is exactly
//! 2-universal when `a ∈ [1, p)`, `b ∈ [0, p)` are drawn uniformly.
//!
//! §5.3 extends this to the cluster setting: a *routing* hash `τ(D)` picks one
//! of `N` nodes, then the node-local `φ_i(D)` picks one of `b` local buckets,
//! and the composed global bucket is `b·τ(D) + φ_i(D)` — still pairwise
//! independent over the `B = N·b` global range. [`TwoLevelHash`] packages this
//! composition so that sharded construction, stacking and single-machine
//! construction agree bit-for-bit.

use crate::mix::SplitMix64;
use crate::murmur3::murmur3_x64_64;

/// The Mersenne prime `2^61 − 1` used as the field modulus.
pub const MERSENNE_P61: u64 = (1 << 61) - 1;

/// Reduce a 128-bit product modulo `2^61 − 1` using the Mersenne shortcut
/// (`x mod 2^k−1 == (x >> k) + (x & 2^k−1)`, folded twice).
#[inline]
fn mod_p61(x: u128) -> u64 {
    let lo = (x & u128::from(MERSENNE_P61)) as u64;
    let hi = (x >> 61) as u64;
    let mut s = lo.wrapping_add(hi & MERSENNE_P61).wrapping_add(hi >> 61);
    if s >= MERSENNE_P61 {
        s -= MERSENNE_P61;
    }
    s
}

/// A Carter–Wegman 2-universal hash `x ↦ ((a·x + b) mod p) mod range`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CarterWegman {
    a: u64,
    b: u64,
    range: u64,
}

impl CarterWegman {
    /// Draw a function from the family with output `range`, deterministically
    /// from `seed`.
    ///
    /// # Panics
    /// Panics if `range == 0`.
    #[must_use]
    pub fn from_seed(seed: u64, range: u64) -> Self {
        assert!(range > 0, "hash range must be positive");
        let mut s = SplitMix64::new(seed);
        // a ∈ [1, p), b ∈ [0, p).
        let a = 1 + s.next_below(MERSENNE_P61 - 1);
        let b = s.next_below(MERSENNE_P61);
        Self { a, b, range }
    }

    /// Evaluate the function on a 64-bit key (keys are first reduced mod p;
    /// the loss of injectivity above 2^61 is irrelevant for hashed inputs).
    #[inline]
    #[must_use]
    pub fn eval(&self, x: u64) -> u64 {
        let x = x % MERSENNE_P61;
        let ax = u128::from(self.a) * u128::from(x) + u128::from(self.b);
        mod_p61(ax) % self.range
    }

    /// Output range of this function.
    #[must_use]
    pub fn range(&self) -> u64 {
        self.range
    }
}

/// Maps document identities (names) to partitions — the `φ_i(·)` of
/// Algorithm 1. One `PartitionHasher` per repetition.
///
/// The document name is first digested with MurmurHash3 (seeded identically
/// everywhere), then pushed through a [`CarterWegman`] function into `[0, B)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PartitionHasher {
    name_seed: u64,
    cw: CarterWegman,
}

impl PartitionHasher {
    /// Create the partition hasher for one repetition.
    ///
    /// `seed` must be identical across all machines participating in a
    /// distributed build (paper §5.3).
    #[must_use]
    pub fn new(seed: u64, buckets: u64) -> Self {
        let mut s = SplitMix64::new(seed ^ 0x7061_7274_6974_696f); // "partitio"
        let name_seed = s.next_u64();
        let cw = CarterWegman::from_seed(s.next_u64(), buckets);
        Self { name_seed, cw }
    }

    /// Bucket of a document identified by raw name bytes.
    #[inline]
    #[must_use]
    pub fn bucket_of_name(&self, name: &[u8]) -> u64 {
        self.cw.eval(murmur3_x64_64(name, self.name_seed))
    }

    /// Number of buckets `B`.
    #[must_use]
    pub fn buckets(&self) -> u64 {
        self.cw.range()
    }
}

/// The two-level routing hash of §5.3: `global = b·τ(D) + φ_i(D)`.
///
/// `τ` routes a document to one of `nodes` machines; `φ_i` is the machine-
/// local partition hash for repetition `i` with `local_buckets` buckets. The
/// composition is used *both* by the sharded builder (each node evaluates only
/// `φ_i` on the documents `τ` routed to it) and by the monolithic index (which
/// evaluates the composition directly), making the two constructions
/// filter-identical.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TwoLevelHash {
    tau_seed: u64,
    nodes: u64,
    local: Vec<PartitionHasher>,
    local_buckets: u64,
}

impl TwoLevelHash {
    /// Build the router for `nodes` machines, `repetitions` tables and
    /// `local_buckets` BFUs per table per machine, all derived from `seed`.
    ///
    /// # Panics
    /// Panics if any dimension is zero.
    #[must_use]
    pub fn new(seed: u64, nodes: u64, repetitions: usize, local_buckets: u64) -> Self {
        assert!(nodes > 0 && repetitions > 0 && local_buckets > 0);
        let mut s = SplitMix64::new(seed ^ 0x726f_7574_6572_3256); // "router2V"
        let tau_seed = s.next_u64();
        let local = (0..repetitions)
            .map(|_| PartitionHasher::new(s.next_u64(), local_buckets))
            .collect();
        Self {
            tau_seed,
            nodes,
            local,
            local_buckets,
        }
    }

    /// `τ(name)`: which node owns this document.
    #[inline]
    #[must_use]
    pub fn node_of(&self, name: &[u8]) -> u64 {
        murmur3_x64_64(name, self.tau_seed) % self.nodes
    }

    /// `φ_i(name)`: node-local bucket for repetition `rep`.
    #[inline]
    #[must_use]
    pub fn local_bucket(&self, rep: usize, name: &[u8]) -> u64 {
        self.local[rep].bucket_of_name(name)
    }

    /// The composed global bucket `b·τ(name) + φ_rep(name)` in
    /// `[0, nodes·local_buckets)`.
    #[inline]
    #[must_use]
    pub fn global_bucket(&self, rep: usize, name: &[u8]) -> u64 {
        self.local_buckets * self.node_of(name) + self.local_bucket(rep, name)
    }

    /// Number of repetitions this router was built for.
    #[must_use]
    pub fn repetitions(&self) -> usize {
        self.local.len()
    }

    /// Number of nodes `N`.
    #[must_use]
    pub fn nodes(&self) -> u64 {
        self.nodes
    }

    /// Node-local buckets `b`.
    #[must_use]
    pub fn local_buckets(&self) -> u64 {
        self.local_buckets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mod_p61_agrees_with_naive() {
        let cases: [u128; 6] = [
            0,
            1,
            u128::from(MERSENNE_P61),
            u128::from(MERSENNE_P61) + 1,
            u128::from(u64::MAX) * 3,
            u128::from(MERSENNE_P61 - 1) * u128::from(MERSENNE_P61 - 1),
        ];
        for &x in &cases {
            assert_eq!(
                u128::from(mod_p61(x)),
                x % u128::from(MERSENNE_P61),
                "x = {x}"
            );
        }
    }

    #[test]
    fn carter_wegman_range_respected() {
        let h = CarterWegman::from_seed(7, 100);
        for x in 0..10_000u64 {
            assert!(h.eval(x) < 100);
        }
    }

    #[test]
    fn carter_wegman_near_uniform() {
        let b = 50u64;
        let h = CarterWegman::from_seed(11, b);
        let mut hist = vec![0u32; b as usize];
        let n = 100_000u64;
        for x in 0..n {
            hist[h.eval(x.wrapping_mul(0x9e37_79b9)) as usize] += 1;
        }
        let expected = (n / b) as f64;
        for (i, &c) in hist.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.25, "bucket {i} off by {dev:.2}");
        }
    }

    #[test]
    fn pairwise_collision_rate_close_to_one_over_b() {
        // Empirical 2-universality check: Pr[h(x) == h(y)] ≈ 1/B over random
        // function draws.
        let b = 64u64;
        let trials = 20_000u32;
        let mut collisions = 0u32;
        for seed in 0..trials {
            let h = CarterWegman::from_seed(u64::from(seed), b);
            if h.eval(123_456_789) == h.eval(987_654_321) {
                collisions += 1;
            }
        }
        let rate = f64::from(collisions) / f64::from(trials);
        let ideal = 1.0 / b as f64;
        assert!(
            (rate - ideal).abs() < ideal * 0.5,
            "collision rate {rate:.5} vs ideal {ideal:.5}"
        );
    }

    #[test]
    fn partition_hasher_stable_and_in_range() {
        let p = PartitionHasher::new(3, 20);
        assert_eq!(p.buckets(), 20);
        let b1 = p.bucket_of_name(b"ENA-0001.fastq");
        let b2 = p.bucket_of_name(b"ENA-0001.fastq");
        assert_eq!(b1, b2);
        assert!(b1 < 20);
    }

    #[test]
    fn two_level_composition_matches_parts() {
        let t = TwoLevelHash::new(42, 10, 3, 50);
        for i in 0..200u32 {
            let name = format!("doc-{i}");
            let node = t.node_of(name.as_bytes());
            assert!(node < 10);
            for rep in 0..3 {
                let local = t.local_bucket(rep, name.as_bytes());
                assert!(local < 50);
                assert_eq!(t.global_bucket(rep, name.as_bytes()), 50 * node + local);
            }
        }
    }

    #[test]
    fn two_level_global_buckets_near_uniform() {
        // The paper's claim: the composed map keeps the collision probability
        // at 1/B. We check the occupancy histogram of the global range.
        let t = TwoLevelHash::new(1, 8, 1, 16);
        let b = (t.nodes() * t.local_buckets()) as usize;
        let mut hist = vec![0u32; b];
        let n = 64_000;
        for i in 0..n {
            let name = format!("genome-{i}");
            hist[t.global_bucket(0, name.as_bytes()) as usize] += 1;
        }
        let expected = n as f64 / b as f64;
        for (i, &c) in hist.iter().enumerate() {
            let dev = (f64::from(c) - expected).abs() / expected;
            assert!(dev < 0.3, "global bucket {i} off by {dev:.2}");
        }
    }
}
