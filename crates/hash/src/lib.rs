//! Hashing primitives for the RAMBO index family.
//!
//! The RAMBO paper (Gupta et al., SIGMOD 2021) relies on three distinct kinds
//! of hashing, all implemented here from scratch:
//!
//! 1. **Bloom-filter key hashing** — every term (a packed 31-mer or a word)
//!    must be mapped to `η` bit positions inside a Bloom Filter for the Union
//!    (BFU). We use MurmurHash3 (128-bit, x64 variant) to derive a
//!    [`HashPair`] and expand it into `η` indices with
//!    Kirsch–Mitzenmacher *double hashing* (`h1 + i·h2 mod m`), which is the
//!    standard trick used by BIGSI/COBS and friends: one hash computation
//!    serves any `η`.
//! 2. **Partition hashing** — each of the `R` repetitions partitions the `K`
//!    documents into `B` groups with an independent 2-universal hash function
//!    `φ_i(·)` (paper §3.2, citing Carter–Wegman). [`CarterWegman`] implements
//!    the classic `((a·x + b) mod p) mod B` family over the Mersenne prime
//!    `p = 2^61 − 1`.
//! 3. **Two-level distributed routing** (paper §5.3) — documents are first
//!    routed to a node by `τ(·)` and then to a node-local BFU by `φ_i(·)`;
//!    the composed map `b·τ(D) + φ_i(D)` is again 2-universal.
//!    [`TwoLevelHash`] implements exactly this composition so that a sharded
//!    build can be *stacked* into a monolithic index bit-for-bit.
//!
//! All functions are deterministic given their seeds, which is what makes the
//! paper's "fold-over" and cluster-stacking tricks possible: every machine
//! must draw the same hash functions.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod mix;
mod murmur3;
mod pair;
mod universal;

pub use mix::{mix64, splitmix64, SplitMix64};
pub use murmur3::murmur3_x64_64;
pub use pair::{HashPair, Modulus};
pub use universal::{CarterWegman, PartitionHasher, TwoLevelHash, MERSENNE_P61};

use std::hash::{BuildHasherDefault, Hasher};

/// A `std::hash::Hasher` that finalizes with [`mix64`]; intended for hash maps
/// keyed by integers that are already well-distributed or that only need a
/// cheap final scramble (e.g. packed k-mers).
///
/// This fills the role that `rustc-hash`/`nohash-hasher` would play in a
/// production codebase without adding a dependency: `write_u64` stores the
/// value and `finish` applies a full 64-bit finalizer, so even adversarially
/// structured k-mer integers spread across buckets.
#[derive(Default, Clone, Copy)]
pub struct Mix64Hasher {
    state: u64,
}

impl Hasher for Mix64Hasher {
    #[inline]
    fn finish(&self) -> u64 {
        mix64(self.state)
    }

    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        // Byte-stream fallback: FNV-1a accumulate, mixed at finish.
        let mut h = self.state ^ 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        self.state = h;
    }

    #[inline]
    fn write_u64(&mut self, i: u64) {
        self.state = self.state.rotate_left(31) ^ i;
    }

    #[inline]
    fn write_u32(&mut self, i: u32) {
        self.write_u64(u64::from(i));
    }

    #[inline]
    fn write_usize(&mut self, i: usize) {
        self.write_u64(i as u64);
    }
}

/// `BuildHasher` for [`Mix64Hasher`]; use as
/// `HashMap<u64, V, Mix64State>::default()`.
pub type Mix64State = BuildHasherDefault<Mix64Hasher>;

/// Convenience alias: a `HashMap` using the fast [`Mix64Hasher`].
pub type FastMap<K, V> = std::collections::HashMap<K, V, Mix64State>;

/// Convenience alias: a `HashSet` using the fast [`Mix64Hasher`].
pub type FastSet<K> = std::collections::HashSet<K, Mix64State>;

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn mix64_hasher_spreads_sequential_keys() {
        let state = Mix64State::default();
        let mut buckets = [0u32; 64];
        for i in 0u64..64_000 {
            let h = state.hash_one(i);
            buckets[(h % 64) as usize] += 1;
        }
        let expected = 64_000 / 64;
        for &c in &buckets {
            assert!(
                (c as i64 - expected as i64).unsigned_abs() < expected as u64 / 2,
                "bucket count {c} too far from expected {expected}"
            );
        }
    }

    #[test]
    fn fast_map_works_with_kmer_keys() {
        let mut m: FastMap<u64, u32> = FastMap::default();
        for i in 0..1000u64 {
            m.insert(i * 4, i as u32);
        }
        assert_eq!(m.len(), 1000);
        assert_eq!(m[&400], 100);
    }
}
