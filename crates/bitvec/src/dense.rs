//! Dense bit vector on `u64` words.
//!
//! This is the workhorse of the whole repository: every BFU, every bit-sliced
//! row in COBS, every SBT node, and every per-repetition document bitmap in
//! Algorithm 2 is one of these. Union and intersection — the two operations
//! the RAMBO query loop performs per repetition — are whole-word `|=` / `&=`
//! passes, which is exactly the "fast bitwise operations" implementation the
//! paper describes in §3.3 and §5.1. The word loops run through the
//! portable kernels in [`crate::kernel`], and the words themselves
//! live in a [`WordStore`] — heap-owned, or a zero-copy view into a shared
//! byte buffer ([`BitVec::open_view`]).

use crate::error::DecodeError;
use crate::kernel;
use crate::store::{skip_word_padding, write_word_padding, WordStore, WordView};
use bytes::{Buf, BufMut};
use std::sync::Arc;

const WORD_BITS: usize = 64;
/// Format magic. `RBV2` revs `RBV1` by 8-byte-aligning the word payload
/// (one pad byte + up to 7 zero bytes after the header) so serialized
/// vectors can be mapped in place.
const MAGIC: &[u8; 4] = b"RBV2";
/// Bytes before the alignment padding: magic, bit length, pad length.
const HEADER_BYTES: usize = 4 + 8 + 1;

/// A fixed-length dense bit vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BitVec {
    len: usize,
    words: WordStore,
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
            words: vec![0; word_count(len)].into(),
        }
    }

    /// An all-one vector of `len` bits (trailing bits in the last word are
    /// kept zero so `count_ones` stays exact).
    #[must_use]
    pub fn ones(len: usize) -> Self {
        let mut v = Self {
            len,
            words: vec![u64::MAX; word_count(len)].into(),
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
            if let Some(last) = self.words.to_mut().last_mut() {
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

    /// True when the words are a zero-copy view into a shared buffer (see
    /// [`BitVec::open_view`]).
    #[inline]
    #[must_use]
    pub fn is_view(&self) -> bool {
        self.words.is_view()
    }

    /// Read bit `i`.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    #[must_use]
    pub fn get(&self, i: usize) -> bool {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        (self.words.as_words()[i / WORD_BITS] >> (i % WORD_BITS)) & 1 == 1
    }

    /// Set bit `i` to one.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn set(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words.to_mut()[i / WORD_BITS] |= 1u64 << (i % WORD_BITS);
    }

    /// Clear bit `i` to zero.
    ///
    /// # Panics
    /// Panics if `i >= len()`.
    #[inline]
    pub fn clear(&mut self, i: usize) {
        assert!(i < self.len, "bit index {i} out of range {}", self.len);
        self.words.to_mut()[i / WORD_BITS] &= !(1u64 << (i % WORD_BITS));
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
        self.words.to_mut().fill(0);
    }

    /// Number of set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        kernel::popcount(self.words.as_words())
    }

    /// True if at least one bit is set.
    #[must_use]
    pub fn any(&self) -> bool {
        kernel::any(self.words.as_words())
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
        kernel::or_into(self.words.to_mut(), other.words.as_words());
    }

    /// In-place intersection (`self &= other`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "and_assign length mismatch");
        kernel::and_rows_into_any(self.words.to_mut(), [other.words.as_words()]);
    }

    /// Fused in-place intersection + liveness: `self &= other`, returning
    /// `true` if any bit survives. One pass instead of `and_assign` followed
    /// by `any` — this is the repetition-intersection walk of Algorithm 2.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_assign_any(&mut self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "and_assign_any length mismatch");
        kernel::and_rows_into_any(self.words.to_mut(), [other.words.as_words()])
    }

    /// In-place symmetric difference (`self ^= other`).
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn xor_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "xor_assign length mismatch");
        for (a, b) in self.words.to_mut().iter_mut().zip(other.words.as_words()) {
            *a ^= b;
        }
    }

    /// In-place difference (`self &= !other`): clears every bit set in
    /// `other`. Used by the split-filter SBT baselines ("rem = union − sim").
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn and_not_assign(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "and_not_assign length mismatch");
        for (a, b) in self.words.to_mut().iter_mut().zip(other.words.as_words()) {
            *a &= !b;
        }
    }

    /// In-place intersection with a raw word slice (`self &= words`), used
    /// by row-major bit matrices whose rows alias this vector's geometry;
    /// returns `true` if any bit survives (fused AND + liveness, one pass).
    ///
    /// # Panics
    /// Panics if `words` is shorter than this vector's word count.
    pub fn and_words_any(&mut self, words: &[u64]) -> bool {
        kernel::and_rows_into_any(self.words.to_mut(), [words])
    }

    /// Overwrite `self` with `other`, reusing the existing allocation.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn copy_from(&mut self, other: &Self) {
        assert_eq!(self.len, other.len, "copy_from length mismatch");
        self.words.to_mut().copy_from_slice(other.words.as_words());
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
            .as_words()
            .iter()
            .zip(other.words.as_words())
            .map(|(a, b)| (a & b).count_ones() as usize)
            .sum()
    }

    /// True if every set bit of `self` is also set in `other`.
    ///
    /// # Panics
    /// Panics on length mismatch.
    #[must_use]
    pub fn is_subset_of(&self, other: &Self) -> bool {
        assert_eq!(self.len, other.len, "is_subset_of length mismatch");
        self.words
            .as_words()
            .iter()
            .zip(other.words.as_words())
            .all(|(a, b)| a & !b == 0)
    }

    /// Iterate the indices of set bits in increasing order.
    pub fn iter_ones(&self) -> Ones<'_> {
        let words = self.words.as_words();
        Ones {
            words,
            word_idx: 0,
            current: words.first().copied().unwrap_or(0),
        }
    }

    /// The underlying words (little-endian bit order within each word).
    #[must_use]
    pub fn words(&self) -> &[u64] {
        self.words.as_words()
    }

    /// Heap bytes consumed by the raw bits (excludes the struct header; a
    /// view's borrowed payload counts toward its backing buffer, not here).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.words.len() * 8
    }

    /// Append the binary encoding (`RBV2` magic, bit length, alignment
    /// padding, words). The pad is chosen so the word payload lands on an
    /// 8-byte boundary *relative to the start of `out`* — containers that
    /// keep that origin (files, [`BitVec::to_bytes`]) can later be opened
    /// zero-copy via [`BitVec::open_view`].
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.put_slice(MAGIC);
        out.put_u64_le(self.len as u64);
        write_word_padding(out);
        for &w in self.words.as_words() {
            out.put_u64_le(w);
        }
    }

    /// Serialize to a standalone byte buffer.
    #[must_use]
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(HEADER_BYTES + 7 + self.words.len() * 8);
        self.encode_into(&mut out);
        out
    }

    /// Parse the fixed header, returning `(len, n_words, payload_len)` with
    /// `buf` advanced past the header and padding.
    fn decode_header(buf: &mut &[u8]) -> Result<(usize, usize, usize), DecodeError> {
        if buf.remaining() < HEADER_BYTES - 1 {
            return Err(DecodeError::new("bitvec header truncated"));
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(DecodeError::new("bad bitvec magic"));
        }
        let len = usize::try_from(buf.get_u64_le())
            .map_err(|_| DecodeError::new("bitvec length exceeds address space"))?;
        skip_word_padding(buf)?;
        let n_words = word_count(len);
        let payload_len = n_words
            .checked_mul(8)
            .ok_or_else(|| DecodeError::new("bitvec size overflow"))?;
        if buf.remaining() < payload_len {
            return Err(DecodeError::new("bitvec payload truncated"));
        }
        Ok((len, n_words, payload_len))
    }

    /// Reject encodings whose last word sets bits beyond `len`.
    fn check_tail(words: &[u64], len: usize) -> Result<(), DecodeError> {
        let tail = len % WORD_BITS;
        if tail != 0 {
            if let Some(&last) = words.last() {
                if last & !((1u64 << tail) - 1) != 0 {
                    return Err(DecodeError::new("bitvec tail bits beyond len are set"));
                }
            }
        }
        Ok(())
    }

    /// Decode from a buffer previously filled by [`BitVec::encode_into`],
    /// advancing `buf` past the consumed bytes. Copies the payload into
    /// owned storage.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on bad magic, truncation, or dirty tail bits.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let (len, n_words, payload_len) = Self::decode_header(buf)?;
        // Bulk chunked decode (mirrors the BFU matrix decode).
        let mut words = Vec::with_capacity(n_words);
        words.extend(
            buf[..payload_len]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8"))),
        );
        buf.advance(payload_len);
        Self::check_tail(&words, len)?;
        Ok(Self {
            len,
            words: words.into(),
        })
    }

    /// Decode from an exact buffer (must consume all bytes).
    ///
    /// # Errors
    /// Returns [`DecodeError`] on any format violation or trailing garbage.
    pub fn from_bytes(mut bytes: &[u8]) -> Result<Self, DecodeError> {
        let v = Self::decode_from(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(DecodeError::new("trailing bytes after bitvec"));
        }
        Ok(v)
    }

    /// Zero-copy load: parse the header and borrow the word payload straight
    /// out of `buf` (an mmap'd file, a loaded `Vec<u8>` behind an `Arc`).
    /// No word is copied; mutating the result promotes it to owned storage
    /// first (see [`crate::WordStore`]). The whole buffer must be consumed.
    ///
    /// # Errors
    /// Returns [`DecodeError`] on any format violation, on trailing bytes,
    /// or when the payload is not 8-byte-aligned in memory.
    pub fn open_view(buf: Arc<[u8]>) -> Result<Self, DecodeError> {
        let mut slice: &[u8] = &buf;
        let total = slice.len();
        let (len, n_words, payload_len) = Self::decode_header(&mut slice)?;
        let start = total - slice.len();
        if start + payload_len != total {
            return Err(DecodeError::new("trailing bytes after bitvec"));
        }
        let view = WordView::new(buf, start, n_words)?;
        Self::check_tail(view.as_words(), len)?;
        Ok(Self {
            len,
            words: WordStore::View(view),
        })
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
        let mut xor = a.clone();
        xor.xor_assign(&b);
        let mut diff = a.clone();
        diff.and_not_assign(&b);

        for i in 0..100 {
            let (x, y) = (i % 3 == 0, i % 5 == 0);
            assert_eq!(or.get(i), x || y);
            assert_eq!(and.get(i), x && y);
            assert_eq!(xor.get(i), x ^ y);
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
            seq.and_words_any(r.words());
        }
        let mut fused = base.clone();
        let rows = [r0.words(), r1.words(), r2.words(), r3.words()];
        let live = kernel::and_rows_into_any(fused.words.to_mut(), rows);
        assert_eq!(fused, seq);
        assert_eq!(live, seq.any());
    }

    #[test]
    fn subset_relation() {
        let small = BitVec::from_ones(64, [1, 5, 9]);
        let big = BitVec::from_ones(64, [1, 3, 5, 9, 11]);
        assert!(small.is_subset_of(&big));
        assert!(!big.is_subset_of(&small));
        assert!(small.is_subset_of(&small));
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
    fn serialization_roundtrip() {
        let v = BitVec::from_ones(1000, (0..1000).filter(|i| i % 13 == 0));
        let bytes = v.to_bytes();
        let back = BitVec::from_bytes(&bytes).unwrap();
        assert_eq!(v, back);
    }

    #[test]
    fn serialized_payload_is_aligned() {
        let v = BitVec::from_ones(100, [5, 50]);
        let bytes = v.to_bytes();
        // magic (4) + len (8) + pad byte (1) + pad → word payload at a
        // multiple of 8 from the buffer start.
        let pad = bytes[12] as usize;
        assert_eq!((HEADER_BYTES + pad) % 8, 0);
    }

    #[test]
    fn serialization_rejects_corruption() {
        let v = BitVec::from_ones(100, [5, 50]);
        let mut bytes = v.to_bytes();
        bytes[0] = b'X';
        assert!(BitVec::from_bytes(&bytes).is_err());

        let bytes = v.to_bytes();
        assert!(BitVec::from_bytes(&bytes[..bytes.len() - 1]).is_err());

        let mut bytes = v.to_bytes();
        bytes.push(0);
        assert!(BitVec::from_bytes(&bytes).is_err());

        // Non-zero padding byte.
        let mut bytes = v.to_bytes();
        if bytes[12] > 0 {
            bytes[13] = 1;
            assert!(BitVec::from_bytes(&bytes).is_err());
        }
    }

    #[test]
    fn serialization_rejects_dirty_tail() {
        let v = BitVec::zeros(10);
        let mut bytes = v.to_bytes();
        // Set a bit beyond len=10 inside the stored word.
        let last = bytes.len() - 1;
        bytes[last] = 0x80;
        assert!(BitVec::from_bytes(&bytes).is_err());
    }

    #[test]
    fn empty_vector_roundtrip() {
        let v = BitVec::zeros(0);
        assert!(v.is_empty());
        let back = BitVec::from_bytes(&v.to_bytes()).unwrap();
        assert_eq!(v, back);
        assert_eq!(v.count_ones(), 0);
    }

    #[test]
    fn open_view_borrows_and_matches_decode() {
        let v = BitVec::from_ones(500, (0..500).filter(|i| i % 11 == 0));
        let buf: Arc<[u8]> = v.to_bytes().into();
        if !(buf.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }
        let view = BitVec::open_view(buf.clone()).unwrap();
        assert!(view.is_view());
        assert_eq!(view, v);
        assert_eq!(view.count_ones(), v.count_ones());
        // The words really live inside `buf`.
        let range = buf.as_ptr_range();
        let p = view.words().as_ptr().cast::<u8>();
        assert!(range.contains(&p));
    }

    #[test]
    fn open_view_promotes_on_write() {
        let v = BitVec::from_ones(100, [1, 99]);
        let buf: Arc<[u8]> = v.to_bytes().into();
        if !(buf.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }
        let mut view = BitVec::open_view(buf).unwrap();
        view.set(50);
        assert!(!view.is_view(), "mutation must promote to owned");
        assert!(view.get(50) && view.get(1) && view.get(99));
    }

    #[test]
    fn open_view_rejects_trailing_and_truncation() {
        let v = BitVec::from_ones(100, [7]);
        let mut bytes = v.to_bytes();
        bytes.push(0);
        assert!(BitVec::open_view(bytes.clone().into()).is_err());
        bytes.truncate(bytes.len() - 3);
        assert!(BitVec::open_view(bytes.into()).is_err());
    }

    #[test]
    fn copy_from_reuses_allocation() {
        let a = BitVec::from_ones(128, [0, 64, 127]);
        let mut b = BitVec::zeros(128);
        b.copy_from(&a);
        assert_eq!(a, b);
    }
}
