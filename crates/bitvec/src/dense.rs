//! Dense bit vector on `u64` words.
//!
//! Every per-repetition document bitmap in Algorithm 2, every bit-sliced row
//! in COBS and every SBT node is one of these; the BFU matrix keeps its own
//! words (a [`crate::WordStore`]) and hands a single BFU out as one of these
//! only on request. Union and intersection — the two operations
//! the RAMBO query loop performs per repetition — are whole-word `|=` / `&=`
//! passes, which is exactly the "fast bitwise operations" implementation the
//! paper describes in §3.3 and §5.1. The word loops run through the
//! portable kernels in [`crate::kernel`] over a heap-owned `Vec<u64>`.

use crate::kernel;

const WORD_BITS: usize = 64;

/// A fixed-length dense bit vector.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    words: Vec<u64>,
}

#[inline]
fn word_count(len: usize) -> usize {
    len.div_ceil(WORD_BITS)
}

impl BitVec {
    /// An all-zero vector of `len` bits.
    #[must_use]
    pub fn zeros(len: usize) -> Self {
        Self {
            len,
            words: vec![0; word_count(len)],
        }
    }

    /// An all-one vector of `len` bits (trailing bits in the last word are
    /// kept zero so `count_ones` stays exact).
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            len,
            words: vec![u64::MAX; word_count(len)],
        };
        v.mask_tail();
        v
    }

    /// Build from an iterator of set-bit positions.
    ///
    /// # Panics
    /// Panics if any position is `>= len`.
    #[must_use]
    pub fn from_ones(len: usize, ones: impl IntoIterator<Item = usize>) -> Self {
        let mut v = Self::zeros(len);
        for i in ones {
            v.set(i);
        }
        v
    }

    /// Zero any bits beyond `len` in the final word.
    fn mask_tail(&mut self) {
        let tail = self.len % WORD_BITS;
        if tail != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << tail) - 1;
            }
        }
    }

    /// Number of addressable bits.
    #[inline]
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when `len() == 0`.
    #[inline]
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Set bit `i` to one.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clear bit `i` to zero.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
    }

    /// Write `value` into bit `i`.
    #[inline]
    pub fn assign(&mut self, i: usize, value: bool) {
        if value {
            self.set(i);
        } else {
            self.clear(i);
        }
    }

    /// Zero every bit, keeping the allocation (the query scratch buffers in
    /// RAMBO reuse one vector per repetition).
    pub fn clear_all(&mut self) {
        self.words.fill(0);
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        kernel::popcount(&self.words)
    }

    /// True if at least one bit is set.
    #[must_use]
    pub fn any(&self) -> bool {
        kernel::any(&self.words)
    }

    /// True if no bit is set.
    #[must_use]
    pub fn none(&self) -> bool {
        !self.any()
    }

    /// In-place union (`self |= other`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn or_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "or_assign length mismatch");
        kernel::or_into(&mut self.words, &other.words);
    }

    /// In-place intersection (`self &= other`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "and_assign length mismatch");
        kernel::and_rows_into_any(&mut self.words, [&other.words]);
    }

    /// Fused in-place intersection + liveness: `self &= other`, returning
    /// `true` if any bit survives. One pass instead of `and_assign` followed
    /// by `any` — this is the repetition-intersection walk of Algorithm 2.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_assign_any(&mut self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "and_assign_any length mismatch");
        kernel::and_rows_into_any(&mut self.words, [&other.words])
    }

    /// In-place difference (`self &= !other`): clears every bit set in
    /// `other`. Used by the split-filter SBT baselines ("rem = union − sim").
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_not_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "and_not_assign length mismatch");
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a &= !b;
        }
    }

    /// Overwrite `self` with `other`, reusing the existing allocation.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "copy_from length mismatch");
        self.words.copy_from_slice(&other.words);
    }

    /// `popcount(self & other)` without materializing the intersection.
    /// This is the similarity kernel used by SBT greedy insertion.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[must_use]
    pub fn count_and(&self, other: &Self) -> usize {
        assert_eq!(self.len, other.len, "count_and length mismatch");
        self.words
            .iter()
            .zip(&other.words)
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// Iterate the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> Ones<'_> {
        let words = &self.words;
        Ones {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// The underlying words (little-endian bit order within each word).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Heap bytes consumed by the raw bits (excludes the struct header).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }
}

/// Iterator over set-bit indices; see [`BitVec::iter_ones`].
pub struct Ones<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for Ones<'_> {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        while self.current == 0 {
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
        let bit = self.current.trailing_zeros() as usize;
        self.current &= self.current - 1; // clear lowest set bit
        Some(self.word_idx * WORD_BITS + bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_ones_counts() {
        let z = BitVec::zeros(130);
        assert_eq!(z.len(), 130);
        assert_eq!(z.count_ones(), 0);
        assert!(z.none());
        let o = BitVec::ones(130);
        assert_eq!(o.count_ones(), 130);
        assert!(o.any());
        let empty = BitVec::zeros(0);
        assert!(empty.is_empty());
        assert_eq!(empty.count_ones(), 0);
    }

    #[test]
    fn set_get_clear_roundtrip() {
        let mut v = BitVec::zeros(200);
        for i in (0..200).step_by(7) {
            v.set(i);
        }
        for i in 0..200 {
            assert_eq!(v.get(i), i % 7 == 0, "bit {i}");
        }
        v.clear(0);
        assert!(!v.get(0));
        v.assign(0, true);
        assert!(v.get(0));
        v.assign(0, false);
        assert!(!v.get(0));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn get_out_of_range_panics() {
        let v = BitVec::zeros(64);
        let _ = v.get(64);
    }

    #[test]
    fn boolean_ops_match_naive() {
        let a = BitVec::from_ones(100, (0..100).filter(|i| i % 3 == 0));
        let b = BitVec::from_ones(100, (0..100).filter(|i| i % 5 == 0));

        let mut or = a.clone();
        or.or_assign(&b);
        let mut and = a.clone();
        and.and_assign(&b);
        let mut diff = a.clone();
        diff.and_not_assign(&b);

        for i in 0..100 {
            let (x, y) = (i % 3 == 0, i % 5 == 0);
            assert_eq!(or.get(i), x || y);
            assert_eq!(and.get(i), x && y);
            assert_eq!(diff.get(i), x && !y);
        }
        assert_eq!(a.count_and(&b), and.count_ones());
    }

    #[test]
    fn fused_and_assign_any_reports_liveness() {
        let a = BitVec::from_ones(100, [3, 30, 90]);
        let b = BitVec::from_ones(100, [30, 91]);
        let mut x = a.clone();
        assert!(x.and_assign_any(&b));
        assert_eq!(x.iter_ones().collect::<Vec<_>>(), vec![30]);
        let disjoint = BitVec::from_ones(100, [1, 2]);
        assert!(!x.and_assign_any(&disjoint));
        assert!(x.none());
    }

    #[test]
    fn fused_and_rows_matches_sequential() {
        let base = BitVec::ones(300);
        let r0 = BitVec::from_ones(300, (0..300).filter(|i| i % 2 == 0));
        let r1 = BitVec::from_ones(300, (0..300).filter(|i| i % 3 == 0));
        let r2 = BitVec::from_ones(300, (0..300).filter(|i| i % 5 == 0));
        let r3 = BitVec::from_ones(300, (0..300).filter(|i| i % 7 == 0));

        let mut seq = base.clone();
        for r in [&r0, &r1, &r2, &r3] {
            seq.and_assign_any(r);
        }
        let mut fused = base.clone();
        let rows = [r0.words(), r1.words(), r2.words(), r3.words()];
        let live = kernel::and_rows_into_any(&mut fused.words, rows);
        assert_eq!(fused, seq);
        assert_eq!(live, seq.any());
    }

    #[test]
    fn ones_iterator_yields_sorted_positions() {
        let positions = vec![0, 1, 63, 64, 65, 127, 128, 199];
        let v = BitVec::from_ones(200, positions.clone());
        let got: Vec<usize> = v.iter_ones().collect();
        assert_eq!(got, positions);
    }

    #[test]
    fn ones_iterator_empty_and_full() {
        assert_eq!(BitVec::zeros(70).iter_ones().count(), 0);
        let full: Vec<usize> = BitVec::ones(70).iter_ones().collect();
        assert_eq!(full, (0..70).collect::<Vec<_>>());
    }

    #[test]
    fn tail_masking_keeps_counts_exact() {
        let v = BitVec::ones(65);
        assert_eq!(v.count_ones(), 65);
    }

    #[test]
    fn clear_all_keeps_len() {
        let mut v = BitVec::ones(100);
        v.clear_all();
        assert_eq!(v.len(), 100);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let a = BitVec::from_ones(128, [0, 64, 127]);
        let mut b = BitVec::zeros(128);
        b.copy_from(&a);
        assert_eq!(a, b);
    }
}
