//! Rank/select acceleration over a dense [`BitVec`].
//!
//! A single directory level: one cumulative popcount per 8-word (512-bit)
//! superblock, with word-level popcount scans inside a superblock. That is
//! ~1.6% space overhead and O(1)-ish rank — plenty for converting query
//! result bitmaps ("which of the K documents matched") into ranked document
//! lists, and for the RRR sampling layer.

use crate::dense::BitVec;

const WORDS_PER_BLOCK: usize = 8; // 512 bits

/// A dense bitvector with a rank directory.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankBitVec {
    bits: BitVec,
    /// `block_ranks[i]` = number of ones strictly before word `i*8`.
    block_ranks: Vec<u64>,
    total_ones: usize,
}

impl RankBitVec {
    /// Index an existing bitvector (takes ownership; the bits are immutable
    /// afterwards — mutating would invalidate the directory).
    #[must_use]
    pub fn new(bits: BitVec) -> Self {
        let words = bits.words();
        let n_blocks = words.len().div_ceil(WORDS_PER_BLOCK);
        let mut block_ranks = Vec::with_capacity(n_blocks);
        let mut acc = 0u64;
        for (i, w) in words.iter().enumerate() {
            if i % WORDS_PER_BLOCK == 0 {
                block_ranks.push(acc);
            }
            acc += u64::from(w.count_ones());
        }
        Self {
            bits,
            block_ranks,
            total_ones: acc as usize,
        }
    }

    /// The wrapped bits.
    #[must_use]
    pub fn bits(&self) -> &BitVec {
        &self.bits
    }

    /// Bit length.
    #[must_use]
    pub fn len(&self) -> usize {
        self.bits.len()
    }

    /// True when empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.bits.is_empty()
    }

    /// Total number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.total_ones
    }

    /// Read bit `i`.
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        self.bits.get(i)
    }

    /// Number of set bits strictly before position `i` (`rank1(len)` equals
    /// [`RankBitVec::count_ones`]).
    ///
    /// # Panics
    /// Panics if `i > len()`.
    #[must_use]
    pub fn rank1(&self, i: usize) -> usize {
        assert!(i <= self.bits.len(), "rank index out of range");
        let words = self.bits.words();
        let word = i / 64;
        let block = word / WORDS_PER_BLOCK;
        let mut r = if block < self.block_ranks.len() {
            self.block_ranks[block] as usize
        } else {
            return self.total_ones;
        };
        for w in &words[block * WORDS_PER_BLOCK..word] {
            r += w.count_ones() as usize;
        }
        let tail = i % 64;
        if tail != 0 && word < words.len() {
            r += (words[word] & ((1u64 << tail) - 1)).count_ones() as usize;
        }
        r
    }

    /// Position of the `k`-th set bit (0-based): `select1(0)` is the first
    /// one. Returns `None` when fewer than `k+1` bits are set.
    #[must_use]
    pub fn select1(&self, k: usize) -> Option<usize> {
        if k >= self.total_ones {
            return None;
        }
        // Binary search the superblock directory, then scan words.
        let target = k as u64;
        let mut lo = 0usize;
        let mut hi = self.block_ranks.len();
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if self.block_ranks[mid] <= target {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let mut remaining = k - self.block_ranks[lo] as usize;
        let words = self.bits.words();
        let start = lo * WORDS_PER_BLOCK;
        for (off, &w) in words[start..].iter().enumerate() {
            let ones = w.count_ones() as usize;
            if remaining < ones {
                return Some((start + off) * 64 + select_in_word(w, remaining));
            }
            remaining -= ones;
        }
        None
    }
}

/// Index of the `k`-th (0-based) set bit inside one word.
fn select_in_word(mut w: u64, mut k: usize) -> usize {
    debug_assert!(k < w.count_ones() as usize);
    loop {
        let tz = w.trailing_zeros() as usize;
        if k == 0 {
            return tz;
        }
        w &= w - 1;
        k -= 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_rank(bits: &BitVec, i: usize) -> usize {
        (0..i).filter(|&j| bits.get(j)).count()
    }

    #[test]
    fn rank_matches_naive_on_pattern() {
        let bits = BitVec::from_ones(1500, (0..1500).filter(|i| i % 7 == 0 || i % 11 == 0));
        let rb = RankBitVec::new(bits.clone());
        for i in (0..=1500).step_by(31) {
            assert_eq!(rb.rank1(i), naive_rank(&bits, i), "rank1({i})");
        }
        assert_eq!(rb.rank1(1500), rb.count_ones());
    }

    #[test]
    fn select_inverts_rank() {
        let bits = BitVec::from_ones(2000, (0..2000).filter(|i| i % 13 == 0));
        let rb = RankBitVec::new(bits);
        for k in 0..rb.count_ones() {
            let pos = rb.select1(k).unwrap();
            assert!(rb.get(pos));
            assert_eq!(rb.rank1(pos), k, "rank1(select1({k}))");
        }
        assert_eq!(rb.select1(rb.count_ones()), None);
    }

    #[test]
    fn empty_and_all_zero() {
        let rb = RankBitVec::new(BitVec::zeros(0));
        assert_eq!(rb.rank1(0), 0);
        assert_eq!(rb.select1(0), None);

        let rb = RankBitVec::new(BitVec::zeros(300));
        assert_eq!(rb.rank1(300), 0);
        assert_eq!(rb.select1(0), None);
    }

    #[test]
    fn all_ones_rank_is_identity() {
        let rb = RankBitVec::new(BitVec::ones(777));
        for i in (0..=777).step_by(97) {
            assert_eq!(rb.rank1(i), i);
        }
        for k in (0..777).step_by(55) {
            assert_eq!(rb.select1(k), Some(k));
        }
    }

    #[test]
    fn select_in_word_all_positions() {
        let w: u64 = 0b1010_1101;
        assert_eq!(select_in_word(w, 0), 0);
        assert_eq!(select_in_word(w, 1), 2);
        assert_eq!(select_in_word(w, 2), 3);
        assert_eq!(select_in_word(w, 3), 5);
        assert_eq!(select_in_word(w, 4), 7);
    }
}
