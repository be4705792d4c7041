//! RRR-style compressed bitvector (Raman–Raman–Rao, reference [25] of the
//! RAMBO paper).
//!
//! The paper's Table 3 notes that HowDeSBT and SSBT owe part of their small
//! index sizes to RRR bitvector compression while "RAMBO does not compress
//! the bitvectors". To reproduce the baselines honestly we implement the
//! classic scheme:
//!
//! * the vector is cut into **blocks of 15 bits**;
//! * each block is stored as a `(class, offset)` pair — `class` is the
//!   popcount (4 bits), `offset` the block's index within the enumeration of
//!   all `C(15, class)` bit patterns (⌈log₂ C(15,class)⌉ bits, so dense and
//!   empty blocks cost almost nothing);
//! * every `SUPER` (= 64) blocks, a superblock sample stores the
//!   cumulative rank and the cumulative offset-stream bit position, making
//!   `access`/`rank1` local (pinned by the
//!   `superblock_sampling_interval_matches_constant` test).
//!
//! Blocks are decoded on the fly; the structure is immutable after build.
//! [`RrrVec`] is the rank-capable node filter whose size Table 3 compares
//! (`baselines::split` sizes HowDeSBT's nodes with it). It lives only in
//! memory and is never written to disk; RAMBO's own BFU matrices are dense.

use crate::dense::BitVec;

const BLOCK: usize = 15;
const SUPER: usize = 64; // blocks per superblock

/// `BINOM[n][k] = C(n, k)` for `n, k ≤ 15`.
const fn binomial_table() -> [[u16; BLOCK + 1]; BLOCK + 1] {
    let mut t = [[0u16; BLOCK + 1]; BLOCK + 1];
    let mut n = 0;
    while n <= BLOCK {
        t[n][0] = 1;
        let mut k = 1;
        while k <= n {
            t[n][k] = t[n - 1][k - 1] + if k < n { t[n - 1][k] } else { 0 };
            k += 1;
        }
        n += 1;
    }
    t
}

const BINOM: [[u16; BLOCK + 1]; BLOCK + 1] = binomial_table();

/// Bits needed to store an offset for a block of the given class.
const fn offset_bits_table() -> [u8; BLOCK + 1] {
    let mut t = [0u8; BLOCK + 1];
    let mut k = 0;
    while k <= BLOCK {
        let c = BINOM[BLOCK][k] as u32;
        // ceil(log2(c)) = bit length of (c - 1); c >= 1 always.
        t[k] = (32 - (c - 1).leading_zeros()) as u8;
        k += 1;
    }
    t
}

const OFFSET_BITS: [u8; BLOCK + 1] = offset_bits_table();

/// Class of nibble `b` in a packed class array (two 4-bit classes per byte).
#[inline]
fn class_at(classes: &[u8], b: usize) -> usize {
    let byte = classes[b / 2];
    usize::from(if b.is_multiple_of(2) {
        byte & 0x0F
    } else {
        byte >> 4
    })
}

/// Pack `class` into nibble `b` of `classes` (which must be zeroed).
#[inline]
fn set_class(classes: &mut [u8], b: usize, class: usize) {
    if b.is_multiple_of(2) {
        classes[b / 2] |= class as u8;
    } else {
        classes[b / 2] |= (class as u8) << 4;
    }
}

/// Enumerative encoding: rank of `bits` (low `BLOCK` bits meaningful) among
/// all blocks with the same popcount, in position-lexicographic order.
#[allow(clippy::needless_range_loop)]
fn encode_offset(bits: u16, mut k: usize) -> u32 {
    let mut offset = 0u32;
    for i in 0..BLOCK {
        if k == 0 {
            break;
        }
        let remaining = BLOCK - i - 1;
        if (bits >> i) & 1 == 1 {
            // Skip every pattern that has a 0 in this position.
            offset += u32::from(BINOM[remaining][k]);
            k -= 1;
        }
    }
    offset
}

/// Inverse of [`encode_offset`].
fn decode_offset(mut offset: u32, mut k: usize) -> u16 {
    let mut bits = 0u16;
    for i in 0..BLOCK {
        if k == 0 {
            break;
        }
        let remaining = BLOCK - i - 1;
        let zero_here = u32::from(BINOM[remaining][k]);
        if offset >= zero_here {
            bits |= 1 << i;
            offset -= zero_here;
            k -= 1;
        }
    }
    bits
}

/// Append-only bit stream used for the offset array.
#[derive(Debug, Default)]
struct BitWriter {
    words: Vec<u64>,
    len: usize,
}

impl BitWriter {
    fn push(&mut self, value: u32, n_bits: u8) {
        debug_assert!(n_bits <= 32);
        let mut v = u64::from(value);
        let mut remaining = usize::from(n_bits);
        while remaining > 0 {
            let word = self.len / 64;
            let bit = self.len % 64;
            if word >= self.words.len() {
                self.words.push(0);
            }
            let take = remaining.min(64 - bit);
            let mask = if take == 64 {
                u64::MAX
            } else {
                (1u64 << take) - 1
            };
            self.words[word] |= (v & mask) << bit;
            v >>= take;
            self.len += take;
            remaining -= take;
        }
    }
}

#[inline]
fn read_bits(words: &[u64], pos: usize, n_bits: u8) -> u32 {
    if n_bits == 0 {
        return 0;
    }
    let word = pos / 64;
    let bit = pos % 64;
    let n = usize::from(n_bits);
    let lo = words[word] >> bit;
    let val = if bit + n <= 64 {
        lo
    } else {
        lo | (words[word + 1] << (64 - bit))
    };
    (val & ((1u64 << n) - 1)) as u32
}

/// An immutable RRR-compressed bitvector supporting `access` and `rank1`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrrVec {
    len: usize,
    /// 4-bit classes, two per byte.
    classes: Vec<u8>,
    /// Bit-packed offsets.
    offsets: Vec<u64>,
    /// Per superblock: (ones before, offset-stream bit position before).
    samples: Vec<(u64, u64)>,
    total_ones: usize,
}

impl RrrVec {
    /// Compress a dense vector.
    #[must_use]
    pub fn from_bitvec(bits: &BitVec) -> Self {
        let len = bits.len();
        let n_blocks = len.div_ceil(BLOCK);
        let mut classes = vec![0u8; n_blocks.div_ceil(2)];
        let mut writer = BitWriter::default();
        let mut samples = Vec::with_capacity(n_blocks.div_ceil(SUPER));
        let mut ones = 0u64;

        for b in 0..n_blocks {
            if b % SUPER == 0 {
                samples.push((ones, writer.len as u64));
            }
            let mut block_bits = 0u16;
            let start = b * BLOCK;
            for i in 0..BLOCK.min(len - start) {
                if bits.get(start + i) {
                    block_bits |= 1 << i;
                }
            }
            let class = block_bits.count_ones() as usize;
            ones += class as u64;
            set_class(&mut classes, b, class);
            writer.push(encode_offset(block_bits, class), OFFSET_BITS[class]);
        }

        Self {
            len,
            classes,
            offsets: writer.words,
            samples,
            total_ones: ones as usize,
        }
    }

    #[inline]
    fn class_of(&self, block: usize) -> usize {
        class_at(&self.classes, block)
    }

    /// Locate `block`: returns (ones before block, offset bit-pos of block).
    fn seek(&self, block: usize) -> (usize, usize) {
        let sb = block / SUPER;
        let (mut rank, mut pos) = self.samples[sb];
        for b in sb * SUPER..block {
            let c = self.class_of(b);
            rank += c as u64;
            pos += u64::from(OFFSET_BITS[c]);
        }
        (rank as usize, pos as usize)
    }

    fn decode_block(&self, block: usize, offset_pos: usize) -> u16 {
        let class = self.class_of(block);
        let off = read_bits(&self.offsets, offset_pos, OFFSET_BITS[class]);
        decode_offset(off, class)
    }

    /// Bit length of the original vector.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.total_ones
    }

    /// Read bit `i` without decompressing the vector.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        let block = i / BLOCK;
        let (_, pos) = self.seek(block);
        let bits = self.decode_block(block, pos);
        (bits >> (i % BLOCK)) & 1 == 1
    }

    /// Number of set bits strictly before `i`.
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    pub fn rank1(&self, i: usize) -> usize {
        assert!(i <= self.len, "rank index out of range");
        if i == self.len {
            return self.total_ones;
        }
        let block = i / BLOCK;
        let (rank, pos) = self.seek(block);
        let bits = self.decode_block(block, pos);
        let within = i % BLOCK;
        rank + (bits & ((1u16 << within) - 1)).count_ones() as usize
    }

    /// Heap bytes of the compressed representation (classes + offsets +
    /// samples). Compare against `BitVec::size_bytes` for the ratio.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.classes.len() + self.offsets.len() * 8 + self.samples.len() * 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The dense vector `rrr` reads back through `get`.
    fn decoded(rrr: &RrrVec) -> BitVec {
        BitVec::from_ones(rrr.len(), (0..rrr.len()).filter(|&i| rrr.get(i)))
    }

    #[test]
    fn binomials_are_correct() {
        assert_eq!(BINOM[15][0], 1);
        assert_eq!(BINOM[15][1], 15);
        assert_eq!(BINOM[15][7], 6435);
        assert_eq!(BINOM[15][15], 1);
        assert_eq!(BINOM[4][2], 6);
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn offset_codec_roundtrips_every_class() {
        for k in 0..=BLOCK {
            // Enumerate a spread of patterns with popcount k.
            let mut tested = 0;
            for bits in 0u16..(1 << BLOCK) {
                if bits.count_ones() as usize == k {
                    let off = encode_offset(bits, k);
                    assert!(off < u32::from(BINOM[BLOCK][k]), "offset in range");
                    assert_eq!(decode_offset(off, k), bits, "class {k} bits {bits:#b}");
                    tested += 1;
                    if tested > 200 {
                        break; // keep the test fast; coverage is already broad
                    }
                }
            }
            assert!(tested > 0);
        }
    }

    #[test]
    fn offsets_are_dense_ranks() {
        // For a small class, offsets must be exactly 0..C(15,k) with no gaps.
        let k = 2;
        let mut offsets: Vec<u32> = (0u16..(1 << BLOCK))
            .filter(|b| b.count_ones() == k)
            .map(|b| encode_offset(b, k as usize))
            .collect();
        offsets.sort_unstable();
        let expect: Vec<u32> = (0..u32::from(BINOM[BLOCK][k as usize])).collect();
        assert_eq!(offsets, expect);
    }

    #[test]
    fn access_matches_dense() {
        let dense = BitVec::from_ones(1234, (0..1234).filter(|i| i % 3 == 0 || i % 17 == 0));
        let rrr = RrrVec::from_bitvec(&dense);
        assert_eq!(rrr.len(), 1234);
        assert_eq!(rrr.count_ones(), dense.count_ones());
        for i in 0..1234 {
            assert_eq!(rrr.get(i), dense.get(i), "bit {i}");
        }
    }

    #[test]
    fn rank_matches_naive() {
        let dense = BitVec::from_ones(2000, (0..2000).filter(|i| i % 5 == 0));
        let rrr = RrrVec::from_bitvec(&dense);
        let mut acc = 0usize;
        for i in 0..2000 {
            assert_eq!(rrr.rank1(i), acc, "rank1({i})");
            if dense.get(i) {
                acc += 1;
            }
        }
        assert_eq!(rrr.rank1(2000), acc);
    }

    #[test]
    fn sparse_vectors_compress() {
        // 1% fill: RRR should be far below the dense 12.5 KB.
        let dense = BitVec::from_ones(100_000, (0..100_000).step_by(100));
        let rrr = RrrVec::from_bitvec(&dense);
        assert!(
            rrr.size_bytes() < dense.size_bytes() * 6 / 10,
            "rrr {} vs dense {}",
            rrr.size_bytes(),
            dense.size_bytes()
        );
        assert_eq!(decoded(&rrr), dense);
    }

    #[test]
    fn dense_vectors_also_roundtrip() {
        let dense = BitVec::ones(500);
        let rrr = RrrVec::from_bitvec(&dense);
        assert_eq!(rrr.count_ones(), 500);
        assert_eq!(decoded(&rrr), dense);
    }

    #[test]
    fn empty_vector() {
        let rrr = RrrVec::from_bitvec(&BitVec::zeros(0));
        assert!(rrr.is_empty());
        assert_eq!(rrr.count_ones(), 0);
        assert_eq!(decoded(&rrr), BitVec::zeros(0));
    }

    #[test]
    fn partial_final_block() {
        // len = 20 → one full block + 5-bit tail.
        let dense = BitVec::from_ones(20, [0, 14, 15, 19]);
        let rrr = RrrVec::from_bitvec(&dense);
        for i in 0..20 {
            assert_eq!(rrr.get(i), dense.get(i));
        }
        assert_eq!(rrr.rank1(20), 4);
    }

    #[test]
    fn superblock_sampling_interval_matches_constant() {
        // The module doc promises one sample every `SUPER` blocks; pin the
        // doc to the code so they cannot drift apart again.
        let len = BLOCK * (3 * SUPER) + 7; // 3 full superblocks + partial
        let dense = BitVec::from_ones(len, (0..len).step_by(3));
        let rrr = RrrVec::from_bitvec(&dense);
        assert_eq!(rrr.samples.len(), len.div_ceil(BLOCK).div_ceil(SUPER));
        assert_eq!(rrr.samples.len(), 4);
        // Each sample's rank is the dense rank at its block boundary — i.e.
        // the sample really sits at block `sb * SUPER`, not some other
        // interval that happens to produce the same count.
        for (sb, &(rank, _)) in rrr.samples.iter().enumerate() {
            let bit = sb * SUPER * BLOCK;
            assert_eq!(rank as usize, (0..bit).filter(|i| i % 3 == 0).count());
        }
    }
}
