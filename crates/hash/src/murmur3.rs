//! MurmurHash3 (x64, 128-bit) — the hash used by the genomics Bloom-filter
//! indexes this repository reproduces (BIGSI, COBS and the authors' RAMBO
//! implementation all hash k-mers with MurmurHash3).
//!
//! This is a faithful port of Austin Appleby's public-domain
//! `MurmurHash3_x64_128`. It processes 16-byte blocks with two lanes of
//! multiply-rotate mixing and finalizes with the 64-bit avalanche function
//! (`fmix64`).

const C1: u64 = 0x87c3_7b91_1142_53d5;
const C2: u64 = 0x4cf5_ad43_2745_937f;

/// The 64-bit finalizer ("fmix64") from MurmurHash3: a full-avalanche mixer.
#[inline]
pub(crate) fn fmix64(mut k: u64) -> u64 {
    k ^= k >> 33;
    k = k.wrapping_mul(0xff51_afd7_ed55_8ccd);
    k ^= k >> 33;
    k = k.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    k ^= k >> 33;
    k
}

#[inline]
fn read_u64_le(bytes: &[u8]) -> u64 {
    let mut buf = [0u8; 8];
    buf.copy_from_slice(&bytes[..8]);
    u64::from_le_bytes(buf)
}

/// Compute the 128-bit MurmurHash3 (x64 variant) of `data` with `seed`.
///
/// Returns the two 64-bit halves `(h1, h2)`. The pair is used directly as a
/// [double-hashing pair](crate::HashPair) for Bloom filters, so a single call
/// prices the entire `η`-probe sequence of a filter lookup.
pub(crate) fn murmur3_x64_128(data: &[u8], seed: u64) -> (u64, u64) {
    let len = data.len();
    let n_blocks = len / 16;

    let mut h1 = seed;
    let mut h2 = seed;

    // Body: 16-byte blocks.
    for i in 0..n_blocks {
        let block = &data[i * 16..i * 16 + 16];
        let mut k1 = read_u64_le(&block[0..8]);
        let mut k2 = read_u64_le(&block[8..16]);

        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;

        h1 = h1.rotate_left(27);
        h1 = h1.wrapping_add(h2);
        h1 = h1.wrapping_mul(5).wrapping_add(0x52dc_e729);

        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;

        h2 = h2.rotate_left(31);
        h2 = h2.wrapping_add(h1);
        h2 = h2.wrapping_mul(5).wrapping_add(0x3849_5ab5);
    }

    // Tail: up to 15 remaining bytes, accumulated big-endian-style per the
    // reference implementation's fallthrough switch.
    let tail = &data[n_blocks * 16..];
    let mut k1: u64 = 0;
    let mut k2: u64 = 0;

    if tail.len() > 8 {
        for (i, &b) in tail[8..].iter().enumerate() {
            k2 ^= u64::from(b) << (8 * i);
        }
        k2 = k2.wrapping_mul(C2);
        k2 = k2.rotate_left(33);
        k2 = k2.wrapping_mul(C1);
        h2 ^= k2;
    }
    if !tail.is_empty() {
        for (i, &b) in tail[..tail.len().min(8)].iter().enumerate() {
            k1 ^= u64::from(b) << (8 * i);
        }
        k1 = k1.wrapping_mul(C1);
        k1 = k1.rotate_left(31);
        k1 = k1.wrapping_mul(C2);
        h1 ^= k1;
    }

    // Finalization.
    h1 ^= len as u64;
    h2 ^= len as u64;

    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);

    h1 = fmix64(h1);
    h2 = fmix64(h2);

    h1 = h1.wrapping_add(h2);
    h2 = h2.wrapping_add(h1);

    (h1, h2)
}

/// 64-bit convenience wrapper: the first half of the 128-bit MurmurHash3.
///
/// Used for document-name hashing (mapping set identities onto the
/// 2-universal partition domain) where 64 bits are plenty.
#[inline]
pub fn murmur3_x64_64(data: &[u8], seed: u64) -> u64 {
    murmur3_x64_128(data, seed).0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_seed_zero_is_zero() {
        // In reference MurmurHash3_x64_128, hashing zero bytes with seed 0
        // leaves h1 = h2 = 0 through every stage.
        assert_eq!(murmur3_x64_128(b"", 0), (0, 0));
    }

    #[test]
    fn deterministic_and_seed_sensitive() {
        let a = murmur3_x64_128(b"the quick brown fox", 1);
        let b = murmur3_x64_128(b"the quick brown fox", 1);
        let c = murmur3_x64_128(b"the quick brown fox", 2);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn short_kmer_is_deterministic_and_seed_sensitive() {
        // A tail-only input (no 16-byte block).
        assert_eq!(murmur3_x64_128(b"ACGT", 7), murmur3_x64_128(b"ACGT", 7));
        assert_ne!(murmur3_x64_128(b"ACGT", 7), murmur3_x64_128(b"ACGT", 8));
    }

    #[test]
    fn block_and_tail_paths_differ_from_each_other() {
        // 16 bytes exercises exactly one body block and no tail; 17 adds a
        // 1-byte tail. The outputs must differ (length is folded in).
        let h16 = murmur3_x64_128(&[0xABu8; 16], 0);
        let h17 = murmur3_x64_128(&[0xABu8; 17], 0);
        let h15 = murmur3_x64_128(&[0xABu8; 15], 0);
        assert_ne!(h16, h17);
        assert_ne!(h15, h16);
    }

    #[test]
    fn tail_lengths_all_distinct() {
        // Exercise every tail length 0..=15 on top of one full block; all 16
        // digests must be pairwise distinct.
        let data = [0x5Au8; 31];
        let mut seen = std::collections::HashSet::new();
        for l in 16..=31 {
            assert!(seen.insert(murmur3_x64_128(&data[..l], 9)));
        }
    }

    #[test]
    fn single_bit_flip_avalanches() {
        // Flipping one input bit should flip roughly half the output bits.
        let base = b"GATTACAGATTACAGATTACA".to_vec();
        let (b1, b2) = murmur3_x64_128(&base, 0);
        let mut flipped = base.clone();
        flipped[3] ^= 0x01;
        let (f1, f2) = murmur3_x64_128(&flipped, 0);
        let dist = (b1 ^ f1).count_ones() + (b2 ^ f2).count_ones();
        assert!(
            (32..=96).contains(&dist),
            "hamming distance {dist} outside avalanche window"
        );
    }

    #[test]
    fn output_bits_unbiased_over_many_keys() {
        // Over many distinct keys each output bit of h1 should be set about
        // half of the time.
        let n = 4096u64;
        let mut ones = [0u32; 64];
        for i in 0..n {
            let (h1, _) = murmur3_x64_128(&i.to_le_bytes(), 42);
            for (b, count) in ones.iter_mut().enumerate() {
                *count += ((h1 >> b) & 1) as u32;
            }
        }
        for (b, &c) in ones.iter().enumerate() {
            let frac = f64::from(c) / n as f64;
            assert!(
                (0.45..=0.55).contains(&frac),
                "bit {b} biased: p(set) = {frac}"
            );
        }
    }

    #[test]
    fn fmix64_is_a_bijection_fixed_points() {
        // fmix64(0) == 0 is the single well-known fixed point.
        assert_eq!(fmix64(0), 0);
        assert_ne!(fmix64(1), 1);
    }
}
