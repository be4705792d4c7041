//! Property-based tests for the Bloom filter invariants RAMBO depends on.

use proptest::prelude::*;
use rambo_bloom::{BloomFilter, BloomParams};

proptest! {
    /// The paper's central claim ("RAMBO cannot report false negatives",
    /// §4.1) bottoms out here: a Bloom filter retains every inserted key.
    #[test]
    fn never_a_false_negative(
        keys in proptest::collection::vec(any::<u64>(), 1..300),
        m_exp in 8u32..16,
        eta in 1u32..7,
        seed in any::<u64>(),
    ) {
        let mut f = BloomFilter::new(BloomParams::fixed(1 << m_exp, eta, seed));
        for &k in &keys {
            f.insert_u64(k);
        }
        for &k in &keys {
            prop_assert!(f.contains_u64(k));
        }
    }

    /// OR of filters == filter of the union of inserts, for any split of the
    /// key set. This is what justifies both BFU construction and fold-over.
    #[test]
    fn union_commutes_with_insertion(
        keys in proptest::collection::vec(any::<u64>(), 1..300),
        split in any::<proptest::sample::Index>(),
        seed in any::<u64>(),
    ) {
        let p = BloomParams::fixed(1 << 12, 3, seed);
        let cut = split.index(keys.len());
        let mut a = BloomFilter::new(p);
        let mut b = BloomFilter::new(p);
        for &k in &keys[..cut] { a.insert_u64(k); }
        for &k in &keys[cut..] { b.insert_u64(k); }
        a.union_assign(&b).unwrap();

        let mut direct = BloomFilter::new(p);
        for &k in &keys { direct.insert_u64(k); }
        prop_assert_eq!(a.bits(), direct.bits());
    }

    /// Union is order-insensitive (commutative + associative on bits).
    #[test]
    fn union_is_commutative(
        xs in proptest::collection::vec(any::<u64>(), 0..100),
        ys in proptest::collection::vec(any::<u64>(), 0..100),
    ) {
        let p = BloomParams::fixed(4096, 4, 1);
        let mut a = BloomFilter::new(p);
        let mut b = BloomFilter::new(p);
        for &k in &xs { a.insert_u64(k); }
        for &k in &ys { b.insert_u64(k); }
        let mut ab = a.clone();
        ab.union_assign(&b).unwrap();
        let mut ba = b.clone();
        ba.union_assign(&a).unwrap();
        prop_assert_eq!(ab.bits(), ba.bits());
    }

    #[test]
    fn serialization_roundtrip(
        keys in proptest::collection::vec(any::<u64>(), 0..200),
        eta in 1u32..6,
        seed in any::<u64>(),
    ) {
        let mut f = BloomFilter::new(BloomParams::fixed(2048, eta, seed));
        for &k in &keys { f.insert_u64(k); }
        let back = BloomFilter::from_bytes(&f.to_bytes()).unwrap();
        prop_assert_eq!(&f, &back);
    }

    /// Byte-path and u64-path report consistently for the same logical key
    /// inserted through the byte path.
    #[test]
    fn bytes_path_no_false_negatives(
        words in proptest::collection::vec("[a-z]{1,12}", 1..100),
    ) {
        let mut f = BloomFilter::new(BloomParams::fixed(1 << 13, 4, 9));
        for w in &words { f.insert_bytes(w.as_bytes()); }
        for w in &words {
            prop_assert!(f.contains_bytes(w.as_bytes()));
        }
    }
}
