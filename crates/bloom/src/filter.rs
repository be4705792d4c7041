//! The classic fixed-size Bloom filter (paper §2.1) — the BFU building block.

use crate::error::BloomError;
use crate::params::BloomParams;
use bytes::{Buf, BufMut};
use rambo_bitvec::{BitVec, DecodeError};
use rambo_hash::HashPair;

const MAGIC: &[u8; 4] = b"RBF1";

/// A Bloom filter over `m` bits with `η` double-hashed probes per key.
///
/// Two RAMBO-specific design points:
///
/// * Keys can be presented pre-hashed as a [`HashPair`]. The RAMBO insert
///   path hashes each term **once** and reuses the pair across all `R`
///   repetitions (all BFUs share one hash family — required for fold-over
///   and distributed stacking to be lossless).
/// * [`BloomFilter::union_assign`] implements the merge underlying both BFU
///   construction ("Bloom Filter for the *Union*") and §5.3 fold-over.
///
/// ```
/// use rambo_bloom::{BloomFilter, BloomParams};
/// let mut f = BloomFilter::new(BloomParams::fixed(1 << 14, 7, 42));
/// f.insert_bytes(b"ACGTACGTACGTACGT");
/// assert!(f.contains_bytes(b"ACGTACGTACGTACGT")); // never a false negative
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BloomFilter {
    params: BloomParams,
    bits: BitVec,
    /// Number of `insert_*` calls (an upper bound on distinct keys; exact
    /// when the caller deduplicates). Drives the load-based FPR estimate.
    inserts: u64,
}

impl BloomFilter {
    /// An empty filter with the given parameters.
    ///
    /// # Panics
    /// Panics if `m_bits == 0` or `eta == 0`.
    #[must_use]
    pub fn new(params: BloomParams) -> Self {
        assert!(params.m_bits > 0, "filter must have at least one bit");
        assert!(params.eta > 0, "filter needs at least one hash");
        Self {
            params,
            bits: BitVec::zeros(params.m_bits),
            inserts: 0,
        }
    }

    /// The construction parameters.
    #[must_use]
    pub fn params(&self) -> BloomParams {
        self.params
    }

    /// Filter length in bits.
    #[must_use]
    pub fn m_bits(&self) -> usize {
        self.params.m_bits
    }

    /// Number of probes per key.
    #[must_use]
    pub fn eta(&self) -> u32 {
        self.params.eta
    }

    /// Number of insert operations performed (including re-inserts).
    #[must_use]
    pub fn inserts(&self) -> u64 {
        self.inserts
    }

    /// The raw bits (used by fold-over and the bit-sliced baselines' tests).
    #[must_use]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Hash a byte key under this filter's seed.
    #[inline]
    #[must_use]
    pub fn hash_bytes(&self, key: &[u8]) -> HashPair {
        HashPair::of_bytes(key, self.params.seed)
    }

    /// Hash a packed 64-bit key (e.g. a 2-bit-encoded k-mer) under this
    /// filter's seed.
    #[inline]
    #[must_use]
    fn hash_u64(&self, key: u64) -> HashPair {
        HashPair::of_u64(key, self.params.seed)
    }

    /// Insert a pre-hashed key.
    #[inline]
    pub fn insert_pair(&mut self, pair: HashPair) {
        let m = self.params.m_bits as u64;
        for i in 0..self.params.eta {
            self.bits.set(pair.index(i, m) as usize);
        }
        self.inserts += 1;
    }

    /// Insert a byte key.
    #[inline]
    pub fn insert_bytes(&mut self, key: &[u8]) {
        self.insert_pair(self.hash_bytes(key));
    }

    /// Insert a packed 64-bit key.
    #[inline]
    pub fn insert_u64(&mut self, key: u64) {
        self.insert_pair(self.hash_u64(key));
    }

    /// Membership test for a pre-hashed key.
    #[inline]
    #[must_use]
    pub fn contains_pair(&self, pair: HashPair) -> bool {
        let m = self.params.m_bits as u64;
        (0..self.params.eta).all(|i| self.bits.get(pair.index(i, m) as usize))
    }

    /// Membership test for a byte key.
    #[inline]
    #[must_use]
    pub fn contains_bytes(&self, key: &[u8]) -> bool {
        self.contains_pair(self.hash_bytes(key))
    }

    /// Membership test for a packed 64-bit key.
    #[inline]
    #[must_use]
    pub fn contains_u64(&self, key: u64) -> bool {
        self.contains_pair(self.hash_u64(key))
    }

    /// Fraction of set bits.
    #[must_use]
    pub fn fill_ratio(&self) -> f64 {
        self.bits.fill_ratio()
    }

    /// Merge `other` into `self` by bitwise OR — the *union* of the two
    /// represented sets. Requires identical parameters.
    ///
    /// # Errors
    /// [`BloomError::ParamsMismatch`] if `(m, η, seed)` differ.
    pub fn union_assign(&mut self, other: &Self) -> Result<(), BloomError> {
        if self.params != other.params {
            return Err(BloomError::ParamsMismatch {
                detail: format!("{:?} vs {:?}", self.params, other.params),
            });
        }
        self.bits.or_assign(&other.bits);
        self.inserts += other.inserts;
        Ok(())
    }

    /// Heap bytes of the filter payload.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.bits.size_bytes()
    }

    /// Append the binary encoding.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_slice(MAGIC);
        out.put_u64_le(self.params.m_bits as u64);
        out.put_u32_le(self.params.eta);
        out.put_u64_le(self.params.seed);
        out.put_u64_le(self.inserts);
        self.bits.encode_into(out);
    }

    /// Serialize to a standalone buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32 + self.bits.size_bytes());
        self.encode_into(&mut out);
        out
    }

    /// Decode from a buffer, advancing it past the consumed bytes.
    ///
    /// # Errors
    /// [`BloomError::Decode`] on format violations.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, BloomError> {
        if buf.remaining() < 4 + 8 + 4 + 8 + 8 {
            return Err(DecodeError::new("bloom header truncated").into());
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(DecodeError::new("bad bloom magic").into());
        }
        let m_bits = usize::try_from(buf.get_u64_le())
            .map_err(|_| DecodeError::new("bloom m_bits exceeds address space"))?;
        let eta = buf.get_u32_le();
        let seed = buf.get_u64_le();
        let inserts = buf.get_u64_le();
        let bits = BitVec::decode_from(buf)?;
        if bits.len() != m_bits {
            return Err(DecodeError::new("bloom bit length disagrees with header").into());
        }
        if eta == 0 || m_bits == 0 {
            return Err(DecodeError::new("bloom header has zero m or eta").into());
        }
        Ok(Self {
            params: BloomParams { m_bits, eta, seed },
            bits,
            inserts,
        })
    }

    /// Decode from an exact buffer.
    ///
    /// # Errors
    /// [`BloomError::Decode`] on format violations or trailing bytes.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, BloomError> {
        let f = Self::decode_from(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(DecodeError::new("trailing bytes after bloom filter").into());
        }
        Ok(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::optimal_m;
    use rambo_hash::SplitMix64;

    fn params(m: usize, eta: u32) -> BloomParams {
        BloomParams::fixed(m, eta, 0xBEEF)
    }

    #[test]
    fn no_false_negatives_bytes_and_u64() {
        let mut f = BloomFilter::new(params(1 << 14, 4));
        let keys: Vec<u64> = (0..500).map(|i| i * 2654435761).collect();
        for &k in &keys {
            f.insert_u64(k);
            f.insert_bytes(&k.to_le_bytes());
        }
        for &k in &keys {
            assert!(f.contains_u64(k));
            assert!(f.contains_bytes(&k.to_le_bytes()));
        }
    }

    #[test]
    fn empty_filter_contains_nothing() {
        let f = BloomFilter::new(params(1024, 3));
        let mut s = SplitMix64::new(7);
        for _ in 0..100 {
            assert!(!f.contains_u64(s.next_u64()));
        }
        assert_eq!(f.fill_ratio(), 0.0);
    }

    #[test]
    fn measured_fpr_tracks_target() {
        // Size for 2000 keys at 1% (η = ⌈−log₂ 0.01⌉ = 7): measured FPR on
        // unseen keys should land in the same decade.
        let n = 2000;
        let sized = BloomParams::fixed(optimal_m(n, 0.01), 7, 3);
        let mut f = BloomFilter::new(sized);
        for i in 0..n as u64 {
            f.insert_u64(i);
        }
        let trials = 50_000u32;
        let mut fp = 0u32;
        for t in 0..trials {
            // Disjoint from inserted key space.
            if f.contains_u64(1_000_000 + u64::from(t)) {
                fp += 1;
            }
        }
        let rate = f64::from(fp) / f64::from(trials);
        assert!(rate < 0.02, "measured {rate} vs target 0.01");
        // Analytic estimate from the fill ratio should agree with measurement
        // within 2x.
        let est = f.fill_ratio().powi(7);
        assert!(
            rate < est * 2.0 + 0.005 && est < rate * 2.0 + 0.005,
            "estimate {est} vs measured {rate}"
        );
    }

    #[test]
    fn union_is_set_union() {
        let p = params(1 << 12, 3);
        let mut a = BloomFilter::new(p);
        let mut b = BloomFilter::new(p);
        for i in 0..200u64 {
            a.insert_u64(i);
        }
        for i in 200..400u64 {
            b.insert_u64(i);
        }
        let mut u = a.clone();
        u.union_assign(&b).unwrap();
        for i in 0..400u64 {
            assert!(u.contains_u64(i), "union lost key {i}");
        }
        assert_eq!(u.inserts(), 400);

        // OR of filters must equal the filter of inserting everything into one.
        let mut direct = BloomFilter::new(p);
        for i in 0..400u64 {
            direct.insert_u64(i);
        }
        assert_eq!(u.bits(), direct.bits());
    }

    #[test]
    fn union_rejects_mismatched_params() {
        let mut a = BloomFilter::new(params(1024, 3));
        let b = BloomFilter::new(params(2048, 3));
        assert!(matches!(
            a.union_assign(&b),
            Err(BloomError::ParamsMismatch { .. })
        ));
        let c = BloomFilter::new(BloomParams::fixed(1024, 3, 999));
        assert!(a.union_assign(&c).is_err(), "seed mismatch must fail");
    }

    #[test]
    fn serialization_roundtrip() {
        let mut f = BloomFilter::new(params(5000, 5));
        for i in 0..100u64 {
            f.insert_u64(i * 31);
        }
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(f, back);
        for i in 0..100u64 {
            assert!(back.contains_u64(i * 31));
        }
    }

    #[test]
    fn serialization_rejects_corruption() {
        let f = BloomFilter::new(params(512, 2));
        let mut bytes = f.to_bytes();
        bytes[1] ^= 0xFF;
        assert!(BloomFilter::from_bytes(&bytes).is_err());
        let bytes = f.to_bytes();
        assert!(BloomFilter::from_bytes(&bytes[..10]).is_err());
    }

    #[test]
    fn pair_reuse_equals_direct_insertion() {
        // Hash once, insert into several filters — must agree with hashing
        // inside each filter. This is the invariant the RAMBO hot path uses.
        let p = params(4096, 4);
        let mut direct = BloomFilter::new(p);
        let mut via_pair = BloomFilter::new(p);
        for i in 0..100u64 {
            direct.insert_u64(i);
            let pair = via_pair.hash_u64(i);
            via_pair.insert_pair(pair);
        }
        assert_eq!(direct.bits(), via_pair.bits());
    }

    #[test]
    fn eta_one_filter_works() {
        let mut f = BloomFilter::new(params(1 << 12, 1));
        f.insert_u64(5);
        assert!(f.contains_u64(5));
    }
}
