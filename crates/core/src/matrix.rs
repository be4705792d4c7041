//! Position-major BFU storage: the Count-Min-Sketch layout of a RAMBO table.
//!
//! A repetition holds `B` Bloom Filters for the Union that share one hash
//! family and one size `m` (required for fold-over and stacking). A query
//! term therefore probes the *same* bit position in every BFU — exactly a
//! Count-Min-Sketch row access. Storing the table as an `m × B` bit matrix
//! (row = filter position, column = BFU) turns the per-table probe from
//! `B·η` scattered bit reads into `η` contiguous `B`-bit row reads ANDed
//! together — the same word-parallel trick BIGSI/COBS use across documents,
//! applied across buckets. This is what makes RAMBO's `O(√K)` probe phase
//! beat COBS's `O(K)` row scan in practice and not just asymptotically.
//!
//! The probe itself is *planned* by the evaluator ([`crate::query`]): it
//! hands this module the word offset of every row a repetition must read,
//! and [`BfuMatrix::and_rows_into`] only moves them — on dense storage one
//! [`rambo_bitvec::kernel::and_gather_rows_into_any`] call ANDs the whole
//! list into the bucket mask, four rows per fused pass, abandoning the table
//! the moment the running mask goes all-zero. The probe, the
//! repetition-intersection walk and the bit-sliced column fills share those
//! portable, auto-vectorized kernels. The word payload lives in a
//! [`WordStore`] — owned, or a zero-copy view into a serialized index buffer
//! (see [`crate::Rambo::open_view`]); mutating a viewed matrix promotes it to
//! owned storage first.
//!
//! The layout also keeps the §5.3 operations cheap and exact:
//! * **fold-over** ORs the right half of every row onto the left half
//!   (columns `b` and `b + B/2` merge — Figure 3);
//! * **stacking** copies each node's rows into a column window of the global
//!   matrix (`global bucket = node·b + local`).

use crate::error::RamboError;
use bytes::{Buf, BufMut};
use rambo_bitvec::{
    kernel, skip_word_padding, write_word_padding, BitVec, BlockCacheCounters, DecodeError,
    PagedFile, PagedWords, RrrMatrix, WordStore, WordView,
};
use rambo_hash::HashPair;
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"RBFM";
/// Bytes before the alignment padding: magic, rows, columns, pad length.
const HEADER_BYTES: usize = 4 + 8 + 8 + 1;

/// Storage backend behind one repetition's bit payload.
///
/// * `Dense` — row-major words, owned or a zero-copy view; the probe fast
///   path (one gather-AND call per repetition) runs only here.
/// * `Rrr` — RRR-compressed rows for cold tiers; probes decode the touched
///   rows block-wise into dense scratch words.
/// * `Paged` — dense rows left on disk, faulted in row-aligned blocks
///   through a shared byte-budgeted cache.
///
/// Mutation always goes through [`BfuMatrix::words_mut`], which first
/// materializes owned dense storage, so `Rrr`/`Paged` matrices stay
/// logically identical to their dense counterparts under every operation.
#[derive(Debug, Clone)]
pub(crate) enum MatrixStore {
    Dense(WordStore),
    Rrr(RrrMatrix),
    Paged(PagedWords),
}

/// An `m × B` bit matrix holding one repetition's BFUs column-wise.
#[derive(Debug, Clone)]
pub(crate) struct BfuMatrix {
    /// Filter length in bits (`m`) — the number of rows.
    m_bits: usize,
    /// Number of BFUs (`B`) — the number of columns.
    buckets: usize,
    /// Words per row (`⌈B/64⌉`).
    row_words: usize,
    /// Row-major bit storage — dense (owned or zero-copy view),
    /// RRR-compressed, or file-backed paged.
    store: MatrixStore,
}

/// Equality is *logical* (same bits at the same geometry), regardless of
/// storage backend — a compressed or paged matrix equals its dense source.
impl PartialEq for BfuMatrix {
    fn eq(&self, other: &Self) -> bool {
        if self.m_bits != other.m_bits || self.buckets != other.buckets {
            return false;
        }
        if let (MatrixStore::Dense(a), MatrixStore::Dense(b)) = (&self.store, &other.store) {
            return a.as_words() == b.as_words();
        }
        let rw = self.row_words;
        let (mut ra, mut rb) = (vec![0u64; rw], vec![0u64; rw]);
        (0..self.m_bits).all(|p| {
            self.row_into(p, &mut ra);
            other.row_into(p, &mut rb);
            ra == rb
        })
    }
}

impl Eq for BfuMatrix {}

/// Parsed fixed-size matrix header (shared by the copying and zero-copy
/// decode paths). The cursor is left at the first payload word.
struct MatrixHeader {
    m_bits: usize,
    buckets: usize,
    row_words: usize,
    n_words: usize,
    payload_len: usize,
}

impl BfuMatrix {
    pub(crate) fn new(m_bits: usize, buckets: usize) -> Self {
        assert!(m_bits > 0 && buckets > 0);
        let row_words = buckets.div_ceil(64);
        Self {
            m_bits,
            buckets,
            row_words,
            store: MatrixStore::Dense(vec![0; m_bits * row_words].into()),
        }
    }

    /// Wrap a decoded RRR payload.
    fn from_rrr(rrr: RrrMatrix) -> Self {
        Self {
            m_bits: rrr.m_bits(),
            buckets: rrr.buckets(),
            row_words: rrr.row_words(),
            store: MatrixStore::Rrr(rrr),
        }
    }

    pub(crate) fn m_bits(&self) -> usize {
        self.m_bits
    }

    pub(crate) fn buckets(&self) -> usize {
        self.buckets
    }

    /// True when the word payload is a zero-copy view into a shared buffer.
    pub(crate) fn is_view(&self) -> bool {
        matches!(&self.store, MatrixStore::Dense(ws) if ws.is_view())
    }

    /// True when rows are stored RRR-compressed.
    pub(crate) fn is_compressed(&self) -> bool {
        matches!(self.store, MatrixStore::Rrr(_))
    }

    /// True when the word payload is file-backed (faulted on demand).
    #[allow(dead_code)] // diagnostic helper; exercised by tests
    pub(crate) fn is_paged(&self) -> bool {
        matches!(self.store, MatrixStore::Paged(_))
    }

    /// Does the word payload live inside `buf`? (Diagnostic for the
    /// zero-copy load path; owned/compressed/paged matrices answer `false`.)
    pub(crate) fn payload_borrows(&self, buf: &[u8]) -> bool {
        let MatrixStore::Dense(ws) = &self.store else {
            return false;
        };
        if !ws.is_view() {
            return false;
        }
        let range = buf.as_ptr_range();
        let words = ws.as_words();
        let start = words.as_ptr().cast::<u8>();
        // `range.end` is one-past-the-end, so a payload ending exactly at
        // the buffer end is still inside.
        range.contains(&start) && words.as_ptr_range().end.cast::<u8>() <= range.end
    }

    /// The dense word payload. Only valid on `Dense` storage — callers on
    /// generic paths use [`BfuMatrix::row_into`] instead.
    #[inline]
    fn dense_words(&self) -> &[u64] {
        match &self.store {
            MatrixStore::Dense(ws) => ws.as_words(),
            _ => unreachable!("dense_words on compressed/paged storage"),
        }
    }

    #[inline]
    fn row(&self, p: usize) -> &[u64] {
        &self.dense_words()[p * self.row_words..(p + 1) * self.row_words]
    }

    /// Copy row `p` into `out` (`row_words` words), whatever the backend.
    /// Bits at positions `≥ buckets` in the final word come out zero even
    /// for paged payloads (whose on-disk tails are not pre-validated).
    pub(crate) fn row_into(&self, p: usize, out: &mut [u64]) {
        debug_assert_eq!(out.len(), self.row_words);
        match &self.store {
            MatrixStore::Dense(_) => out.copy_from_slice(self.row(p)),
            MatrixStore::Rrr(rrr) => rrr.decode_row_into(p, out),
            MatrixStore::Paged(pw) => {
                out.copy_from_slice(&pw.read(p * self.row_words, self.row_words));
                mask_tail(out, self.buckets);
            }
        }
    }

    /// Read one bit, whatever the backend.
    #[inline]
    pub(crate) fn bit(&self, p: usize, bucket: usize) -> bool {
        self.bit_at(p * self.row_words, bucket)
    }

    /// [`BfuMatrix::bit`] of the row at word offset `offset` — the form the
    /// query row plan stores, so RAMBO+'s per-bucket probes read planned
    /// rows without re-deriving positions.
    #[inline]
    pub(crate) fn bit_at(&self, offset: usize, bucket: usize) -> bool {
        let (word, shift) = (bucket / 64, bucket % 64);
        match &self.store {
            MatrixStore::Dense(ws) => (ws.as_words()[offset + word] >> shift) & 1 == 1,
            MatrixStore::Rrr(rrr) => rrr.get(offset / self.row_words, bucket),
            MatrixStore::Paged(pw) => (pw.read_word(offset + word) >> shift) & 1 == 1,
        }
    }

    /// Materialize owned dense storage (decode / page in all rows). No-op
    /// for matrices that are already dense.
    fn materialize(&mut self) {
        if matches!(self.store, MatrixStore::Dense(_)) {
            return;
        }
        let rw = self.row_words;
        let mut words = vec![0u64; self.m_bits * rw];
        for (p, row) in words.chunks_exact_mut(rw).enumerate() {
            self.row_into(p, row);
        }
        self.store = MatrixStore::Dense(words.into());
    }

    /// Mutable dense words — materializes compressed/paged storage and
    /// promotes views to owned first (copy-on-write).
    fn words_mut(&mut self) -> &mut Vec<u64> {
        self.materialize();
        match &mut self.store {
            MatrixStore::Dense(ws) => ws.to_mut(),
            _ => unreachable!("materialize produced dense storage"),
        }
    }

    /// Convert storage to RRR-compressed rows (materializing dense words
    /// first if needed). Build-time only: any later mutation materializes
    /// back to dense via [`BfuMatrix::words_mut`].
    pub(crate) fn compress_rrr(&mut self) {
        self.materialize();
        let rrr = RrrMatrix::from_words(self.dense_words(), self.m_bits, self.buckets);
        self.store = MatrixStore::Rrr(rrr);
    }

    /// Set the `eta` filter bits of one term in one BFU (Algorithm 1's
    /// `Insert(x, RAMBO[φ_d(x), d])`).
    #[inline]
    pub(crate) fn insert(&mut self, bucket: usize, pair: HashPair, eta: u32) {
        debug_assert!(bucket < self.buckets);
        let m = self.m_bits as u64;
        let row_words = self.row_words;
        let words = self.words_mut();
        for i in 0..eta {
            let p = pair.index(i, m) as usize;
            words[p * row_words + bucket / 64] |= 1u64 << (bucket % 64);
        }
    }

    /// Set one bucket's bit in every listed filter row. For tables past the
    /// cache the hash stage hands the rows over sorted, so this walks the
    /// row-major storage monotonically — sequential cache lines instead of
    /// the term-order hopping of repeated [`BfuMatrix::insert`] calls.
    #[inline]
    pub(crate) fn set_rows(&mut self, bucket: usize, rows: &[usize]) {
        debug_assert!(bucket < self.buckets);
        let word = bucket / 64;
        let bit = 1u64 << (bucket % 64);
        let row_words = self.row_words;
        let m_bits = self.m_bits;
        let words = self.words_mut();
        for &p in rows {
            debug_assert!(p < m_bits);
            words[p * row_words + word] |= bit;
        }
    }

    /// AND the planned filter rows into `dst` (`row_words` words): afterwards
    /// bit `b` of `dst` survives only if BFU `b` has every listed position
    /// set. With `dst` starting all-ones this is the whole per-table probe
    /// of Algorithm 2. Returns `false` once `dst` is all-zero — AND can only
    /// clear bits, so the rows left unread cannot change the answer.
    ///
    /// `rows` holds the word offset of each row (`position · row_words`, see
    /// [`crate::query::QueryContext`]'s row plan). The caller must start from
    /// a mask whose bits beyond `B` are zero; then paged rows, whose on-disk
    /// tails are unvalidated, cannot set them.
    ///
    /// * Dense rows go through one
    ///   [`kernel::and_gather_rows_into_any`] call with no dedupe: a repeated
    ///   row is one more cache-resident AND.
    /// * RRR and paged rows cost a block decode or a page fault each, so the
    ///   list is sorted (in place — AND is order-blind) and repeats are
    ///   skipped; ascending row order is also what the block cache wants.
    pub(crate) fn and_rows_into(
        &self,
        rows: &mut [usize],
        dst: &mut [u64],
        scratch: &mut Vec<u64>,
    ) -> bool {
        let rw = self.row_words;
        debug_assert_eq!(dst.len(), rw);
        if let MatrixStore::Dense(ws) = &self.store {
            return kernel::and_gather_rows_into_any(dst, ws.as_words(), rows);
        }
        rows.sort_unstable();
        let mut live = kernel::any(dst);
        let mut prev = usize::MAX;
        for &offset in rows.iter() {
            if !live {
                break;
            }
            if offset != prev {
                prev = offset;
                live = self.with_row(offset, scratch, |row| kernel::and_rows_into_any(dst, [row]));
            }
        }
        live
    }

    /// Run `f` on the row at word offset `offset`, whatever the backend: a
    /// dense row in place, an RRR row decoded into `scratch`, a paged row
    /// from its resident block (tail bits beyond `B` unvalidated).
    #[inline]
    fn with_row<T>(&self, offset: usize, scratch: &mut Vec<u64>, f: impl FnOnce(&[u64]) -> T) -> T {
        let rw = self.row_words;
        match &self.store {
            MatrixStore::Dense(ws) => f(&ws.as_words()[offset..offset + rw]),
            MatrixStore::Rrr(rrr) => {
                scratch.resize(rw, 0);
                rrr.decode_row_into(offset / rw, scratch);
                f(scratch)
            }
            MatrixStore::Paged(pw) => f(&pw.read(offset, rw)),
        }
    }

    /// Each term's *own* bucket mask: `out[t · row_words..][..row_words]`
    /// becomes the AND of the `eta` planned rows of term `t` — which BFUs
    /// hold that term. Unlike [`BfuMatrix::and_rows_into`] the masks stay
    /// separate (θ queries count them per bucket) and there is no early
    /// exit, so no term's row loads wait on another's. Bits beyond `B` come
    /// out zero on every backend.
    pub(crate) fn term_masks_into(
        &self,
        rows: &[usize],
        eta: usize,
        out: &mut [u64],
        scratch: &mut Vec<u64>,
    ) {
        let rw = self.row_words;
        debug_assert_eq!(out.len() * eta, rows.len() * rw);
        for (mask, term_rows) in out.chunks_exact_mut(rw).zip(rows.chunks_exact(eta)) {
            self.with_row(term_rows[0], scratch, |row| mask.copy_from_slice(row));
            for &offset in &term_rows[1..] {
                self.with_row(offset, scratch, |row| {
                    for (dst, r) in mask.iter_mut().zip(row) {
                        *dst &= r;
                    }
                });
            }
            mask_tail(mask, self.buckets);
        }
    }

    /// Extract one BFU's bits as a standalone filter image (column slice).
    /// O(m) — used for stats, tests and cross-checks, not on query paths.
    pub(crate) fn column(&self, bucket: usize) -> BitVec {
        assert!(bucket < self.buckets);
        BitVec::from_ones(
            self.m_bits,
            (0..self.m_bits).filter(|&p| self.bit(p, bucket)),
        )
    }

    /// Set-bit count of every column in one sequential matrix pass, via the
    /// bit-sliced vertical counters of [`kernel::ColumnCounter`] — 64
    /// columns advance per word operation, with no per-set-bit extraction.
    pub(crate) fn column_ones(&self) -> Vec<usize> {
        let mut cc = kernel::ColumnCounter::new(self.row_words);
        if let MatrixStore::Dense(_) = &self.store {
            for p in 0..self.m_bits {
                cc.add_row(self.row(p));
            }
        } else {
            let mut scratch = vec![0u64; self.row_words];
            for p in 0..self.m_bits {
                self.row_into(p, &mut scratch);
                cc.add_row(&scratch);
            }
        }
        let mut counts = cc.counts();
        counts.truncate(self.buckets);
        counts
    }

    /// Fraction of set bits in one BFU column.
    #[allow(dead_code)] // diagnostic helper; exercised by tests
    pub(crate) fn column_fill(&self, bucket: usize) -> f64 {
        let ones = (0..self.m_bits).filter(|&p| self.bit(p, bucket)).count();
        ones as f64 / self.m_bits as f64
    }

    /// Fold-over (§5.3): merge column `b + B/2` into column `b` for every
    /// row; the matrix narrows to `B/2` columns. Always produces owned
    /// storage (the fold rebuilds the payload anyway, so folding a viewed
    /// matrix costs no extra copy).
    ///
    /// # Errors
    /// [`RamboError::FoldUnavailable`] when `B` is odd or below 4.
    pub(crate) fn fold_once(&mut self) -> Result<(), RamboError> {
        if !self.buckets.is_multiple_of(2) {
            return Err(RamboError::FoldUnavailable(format!(
                "bucket count {} is odd",
                self.buckets
            )));
        }
        if self.buckets < 4 {
            return Err(RamboError::FoldUnavailable(format!(
                "folding below 2 buckets (current {}) would collapse the partition",
                self.buckets
            )));
        }
        let half = self.buckets / 2;
        let new_row_words = half.div_ceil(64);
        // The fold walks every row anyway, so compressed/paged storage is
        // materialized up front (folding belongs to the build phase).
        self.materialize();
        let mut new_words = vec![0u64; self.m_bits * new_row_words];
        for p in 0..self.m_bits {
            let row = self.row(p);
            let dst = &mut new_words[p * new_row_words..(p + 1) * new_row_words];
            // Low half: bits [0, half).
            for (w, d) in dst.iter_mut().enumerate() {
                *d = row[w];
            }
            mask_tail(dst, half);
            // High half: bits [half, 2·half) shifted down by `half`.
            let shift = half % 64;
            let word_off = half / 64;
            for w in 0..new_row_words {
                let lo = row[word_off + w] >> shift;
                let hi = if shift == 0 {
                    0
                } else {
                    row.get(word_off + w + 1).map_or(0, |x| x << (64 - shift))
                };
                dst[w] |= lo | hi;
            }
            mask_tail(dst, half);
        }
        self.buckets = half;
        self.row_words = new_row_words;
        self.store = MatrixStore::Dense(new_words.into());
        Ok(())
    }

    /// Stacking (§5.3, Figure 3): copy `src`'s columns into this matrix at
    /// column offset `dst_offset` (OR-ing; the window is expected empty).
    ///
    /// # Panics
    /// Panics on row-count mismatch or column overflow.
    pub(crate) fn copy_columns_from(&mut self, src: &Self, dst_offset: usize) {
        assert_eq!(self.m_bits, src.m_bits, "row counts must match");
        assert!(dst_offset + src.buckets <= self.buckets, "column overflow");
        let shift = dst_offset % 64;
        let word_off = dst_offset / 64;
        let (dst_rw, src_rw) = (self.row_words, src.row_words);
        let m_bits = self.m_bits;
        // Non-dense sources stream row by row through scratch; the common
        // stacking path (dense shard into dense global) stays a slice walk.
        let mut scratch = vec![0u64; src_rw];
        let dense_src = match &src.store {
            MatrixStore::Dense(ws) => Some(ws.as_words()),
            _ => None,
        };
        let dst_words = self.words_mut();
        for p in 0..m_bits {
            let src_row: &[u64] = match dense_src {
                Some(words) => &words[p * src_rw..(p + 1) * src_rw],
                None => {
                    src.row_into(p, &mut scratch);
                    &scratch
                }
            };
            let dst_row = &mut dst_words[p * dst_rw..(p + 1) * dst_rw];
            for (w, &sw) in src_row.iter().enumerate() {
                if sw == 0 {
                    continue;
                }
                dst_row[word_off + w] |= sw << shift;
                if shift != 0 && word_off + w + 1 < dst_row.len() {
                    dst_row[word_off + w + 1] |= sw >> (64 - shift);
                }
            }
            // Clear any bits that spilled past the window (src tail bits are
            // zero by construction, so nothing to clean in practice).
        }
    }

    /// Total set bits (diagnostics).
    #[allow(dead_code)] // diagnostic helper; exercised by tests
    pub(crate) fn count_ones(&self) -> usize {
        match &self.store {
            MatrixStore::Dense(ws) => kernel::popcount(ws.as_words()),
            MatrixStore::Rrr(rrr) => rrr.count_ones(),
            MatrixStore::Paged(_) => {
                let mut scratch = vec![0u64; self.row_words];
                (0..self.m_bits)
                    .map(|p| {
                        self.row_into(p, &mut scratch);
                        kernel::popcount(&scratch)
                    })
                    .sum()
            }
        }
    }

    /// Resident bytes of the matrix payload. A view's borrowed payload
    /// counts toward its backing buffer; a compressed matrix reports its
    /// encoded footprint; a paged matrix reports its *logical* word extent
    /// (the on-disk payload it addresses — cache residency is accounted by
    /// the shared [`PagedFile`], not per matrix).
    pub(crate) fn size_bytes(&self) -> usize {
        match &self.store {
            MatrixStore::Dense(ws) => ws.len() * 8,
            MatrixStore::Rrr(rrr) => rrr.size_bytes(),
            MatrixStore::Paged(pw) => pw.len() * 8,
        }
    }

    /// Append the binary encoding. Dense and paged matrices write the
    /// `RBFM` framing: the word payload is preceded by a pad byte plus up
    /// to 7 zero bytes so it lands 8-byte-aligned *relative to the start of
    /// `out`* — containers that keep that origin (index files) can be
    /// re-opened zero-copy via [`BfuMatrix::decode_view`]. Compressed
    /// matrices write the `RBFR` framing of [`RrrMatrix`] instead (also a
    /// whole number of words), which every decode path dispatches on by
    /// magic.
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match &self.store {
            MatrixStore::Dense(ws) => {
                out.put_slice(MAGIC);
                out.put_u64_le(self.m_bits as u64);
                out.put_u64_le(self.buckets as u64);
                write_word_padding(out);
                for &w in ws.as_words() {
                    out.put_u64_le(w);
                }
            }
            MatrixStore::Rrr(rrr) => rrr.encode_into(out),
            MatrixStore::Paged(_) => {
                // Stream the on-disk rows back out as a dense record.
                out.put_slice(MAGIC);
                out.put_u64_le(self.m_bits as u64);
                out.put_u64_le(self.buckets as u64);
                write_word_padding(out);
                let mut scratch = vec![0u64; self.row_words];
                for p in 0..self.m_bits {
                    self.row_into(p, &mut scratch);
                    for &w in &scratch {
                        out.put_u64_le(w);
                    }
                }
            }
        }
    }

    /// Parse the fixed header and padding, advancing `buf` to the payload.
    fn decode_header(buf: &mut &[u8]) -> Result<MatrixHeader, RamboError> {
        if buf.remaining() < HEADER_BYTES {
            return Err(DecodeError::new("bfu matrix header truncated").into());
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(DecodeError::new("bad bfu matrix magic").into());
        }
        let m_bits = usize::try_from(buf.get_u64_le())
            .map_err(|_| DecodeError::new("matrix rows exceed address space"))?;
        let buckets = usize::try_from(buf.get_u64_le())
            .map_err(|_| DecodeError::new("matrix columns exceed address space"))?;
        if m_bits == 0 || buckets == 0 {
            return Err(DecodeError::new("matrix with zero dimension").into());
        }
        skip_word_padding(buf)?;
        let row_words = buckets.div_ceil(64);
        let n_words = m_bits
            .checked_mul(row_words)
            .ok_or_else(|| DecodeError::new("matrix size overflow"))?;
        let payload_len = n_words
            .checked_mul(8)
            .ok_or_else(|| DecodeError::new("matrix size overflow"))?;
        // NOTE: the payload-presence check lives in the callers — the paged
        // open path parses this header from a short prefix read and must not
        // require the payload bytes to be in memory.
        Ok(MatrixHeader {
            m_bits,
            buckets,
            row_words,
            n_words,
            payload_len,
        })
    }

    /// Reject payloads whose rows set bits beyond `buckets`.
    fn check_row_tails(
        words: &[u64],
        m_bits: usize,
        row_words: usize,
        buckets: usize,
    ) -> Result<(), RamboError> {
        let tail = buckets % 64;
        if tail != 0 {
            let mask = !((1u64 << tail) - 1);
            for p in 0..m_bits {
                if words[p * row_words + row_words - 1] & mask != 0 {
                    return Err(DecodeError::new("matrix row tail bits set").into());
                }
            }
        }
        Ok(())
    }

    /// Decode, advancing the buffer. Copies the payload into owned storage.
    /// Dispatches on magic: `RBFM` records decode dense, `RBFR` records
    /// decode into RRR-compressed storage.
    pub(crate) fn decode_from(buf: &mut &[u8]) -> Result<Self, RamboError> {
        if buf.len() >= 4 && buf[..4] == RrrMatrix::MAGIC {
            let rrr = RrrMatrix::decode_from(buf)?;
            return Ok(Self::from_rrr(rrr));
        }
        let h = Self::decode_header(buf)?;
        if buf.remaining() < h.payload_len {
            return Err(DecodeError::new("bfu matrix payload truncated").into());
        }
        // Bulk chunked decode of the word payload (one pass, no per-element
        // cursor bookkeeping).
        let mut words = Vec::with_capacity(h.n_words);
        words.extend(
            buf[..h.payload_len]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8"))),
        );
        buf.advance(h.payload_len);
        Self::check_row_tails(&words, h.m_bits, h.row_words, h.buckets)?;
        Ok(Self {
            m_bits: h.m_bits,
            buckets: h.buckets,
            row_words: h.row_words,
            store: MatrixStore::Dense(words.into()),
        })
    }

    /// Zero-copy decode: parse the header at byte `*pos` of `buf` and
    /// borrow the word payload in place (no word copies; validation reads
    /// one word per row for the tail check). Advances `*pos` past the
    /// consumed bytes.
    ///
    /// # Errors
    /// [`RamboError::Decode`] on any format violation, or when the payload
    /// is not 8-byte-aligned in memory (e.g. the index was embedded at an
    /// unaligned offset — fall back to [`BfuMatrix::decode_from`]).
    pub(crate) fn decode_view(buf: &Arc<[u8]>, pos: &mut usize) -> Result<Self, RamboError> {
        let mut slice: &[u8] = buf
            .get(*pos..)
            .ok_or_else(|| DecodeError::new("matrix offset out of range"))?;
        if slice.len() >= 4 && slice[..4] == RrrMatrix::MAGIC {
            // Compressed records have no zero-copy form: the (class, offset)
            // streams are decoded into an owned RrrMatrix.
            let before = slice.len();
            let rrr = RrrMatrix::decode_from(&mut slice)?;
            *pos += before - slice.len();
            return Ok(Self::from_rrr(rrr));
        }
        let before = slice.len();
        let h = Self::decode_header(&mut slice)?;
        if slice.remaining() < h.payload_len {
            return Err(DecodeError::new("bfu matrix payload truncated").into());
        }
        let word_start = *pos + (before - slice.len());
        let view = WordView::new(buf.clone(), word_start, h.n_words)?;
        Self::check_row_tails(view.as_words(), h.m_bits, h.row_words, h.buckets)?;
        *pos = word_start + h.payload_len;
        Ok(Self {
            m_bits: h.m_bits,
            buckets: h.buckets,
            row_words: h.row_words,
            store: MatrixStore::Dense(WordStore::View(view)),
        })
    }

    /// File-backed decode: parse the matrix record at byte `*pos` of `file`
    /// reading only its header (one short read), and leave the dense word
    /// payload on disk behind a [`PagedWords`] that faults row-aligned
    /// blocks through `file`'s shared cache, charging traffic to
    /// `counters`. Compressed (`RBFR`) records are decoded eagerly — they
    /// are small by construction (that is why the tier was compressed) and
    /// RRR probes need the class/offset streams resident anyway. Advances
    /// `*pos` past the record.
    ///
    /// Paged payload rows are *not* tail-validated at open (that would read
    /// every row, defeating the O(metadata) open); instead
    /// [`BfuMatrix::row_into`] masks tail bits on every fault, so dirty
    /// on-disk tails cannot reach a probe mask.
    pub(crate) fn decode_paged(
        file: &Arc<PagedFile>,
        pos: &mut u64,
        counters: &Arc<BlockCacheCounters>,
    ) -> Result<Self, RamboError> {
        let remaining = file.len().saturating_sub(*pos);
        // Enough for either header: RBFM needs HEADER_BYTES + 7 pad bytes
        // (28), RBFR's peek needs its 28-byte fixed prefix + pad (36).
        let head_len = 36.min(remaining as usize);
        let head = file
            .read_bytes(*pos, head_len)
            .map_err(|e| DecodeError::new(format!("catalog read: {e}")))?;
        if head.len() >= 4 && head[..4] == RrrMatrix::MAGIC {
            let total = RrrMatrix::peek_encoded_len(&head)?;
            if total as u64 > remaining {
                return Err(DecodeError::new("rrr matrix record truncated").into());
            }
            let record = file
                .read_bytes(*pos, total)
                .map_err(|e| DecodeError::new(format!("catalog read: {e}")))?;
            let mut slice = record.as_slice();
            let rrr = RrrMatrix::decode_from(&mut slice)?;
            *pos += total as u64;
            return Ok(Self::from_rrr(rrr));
        }
        let mut slice = head.as_slice();
        let before = slice.len();
        let h = Self::decode_header(&mut slice)?;
        let word_start = *pos + (before - slice.len()) as u64;
        let end = word_start
            .checked_add(h.payload_len as u64)
            .ok_or_else(|| DecodeError::new("matrix size overflow"))?;
        if end > file.len() {
            return Err(DecodeError::new("bfu matrix payload truncated").into());
        }
        let paged = PagedWords::new(
            file.clone(),
            word_start,
            h.n_words,
            h.row_words,
            counters.clone(),
        )?;
        *pos = end;
        Ok(Self {
            m_bits: h.m_bits,
            buckets: h.buckets,
            row_words: h.row_words,
            store: MatrixStore::Paged(paged),
        })
    }
}

/// Zero bits at positions `>= len` in the final word of a row.
fn mask_tail(row: &mut [u64], len: usize) {
    let tail = len % 64;
    if tail != 0 {
        if let Some(last) = row.last_mut() {
            *last &= (1u64 << tail) - 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair(t: u64) -> HashPair {
        HashPair::of_u64(t, 99)
    }

    /// The planned row offsets of `pairs`: η per pair, as the evaluator
    /// stages them.
    fn plan(m: &BfuMatrix, pairs: &[HashPair], eta: u32) -> Vec<usize> {
        pairs
            .iter()
            .flat_map(|p| p.indices(eta, m.m_bits as u64))
            .map(|row| row as usize * m.row_words)
            .collect()
    }

    /// Which BFUs hold all `pairs`: the planned probe from an all-ones mask.
    fn probe_all(m: &BfuMatrix, pairs: &[HashPair], eta: u32) -> BitVec {
        let mut mask = BitVec::ones(m.buckets).words().to_vec();
        let live = m.and_rows_into(&mut plan(m, pairs, eta), &mut mask, &mut Vec::new());
        assert_eq!(live, mask.iter().any(|&w| w != 0));
        let ones = (0..m.buckets).filter(|b| (mask[b / 64] >> (b % 64)) & 1 == 1);
        BitVec::from_ones(m.buckets, ones)
    }

    fn probe_bucket(m: &BfuMatrix, bucket: usize, pairs: &[HashPair], eta: u32) -> bool {
        plan(m, pairs, eta).iter().all(|&o| m.bit_at(o, bucket))
    }

    #[test]
    fn insert_probe_roundtrip() {
        let mut m = BfuMatrix::new(1 << 10, 70); // >64 columns: two words/row
        m.insert(3, pair(1), 2);
        m.insert(68, pair(2), 2);
        assert!(probe_bucket(&m, 3, &[pair(1)], 2));
        assert!(probe_bucket(&m, 68, &[pair(2)], 2));
        assert!(!probe_bucket(&m, 3, &[pair(2)], 2));
        assert!(!probe_bucket(&m, 0, &[pair(1)], 2));
    }

    #[test]
    fn probe_all_matches_per_bucket_probes() {
        let mut m = BfuMatrix::new(1 << 12, 130);
        for b in 0..130usize {
            for t in 0..(b as u64 % 7) {
                m.insert(b, pair(t), 3);
            }
        }
        for t in 0..7u64 {
            let mask = probe_all(&m, &[pair(t)], 3);
            for b in 0..130usize {
                assert_eq!(
                    mask.get(b),
                    probe_bucket(&m, b, &[pair(t)], 3),
                    "term {t} bucket {b}"
                );
            }
        }
    }

    /// The gather kernel must agree with per-bucket probes for every
    /// pair-count arity (1..=5 pairs × η rows exercises every remainder
    /// branch of its four-row grouping).
    #[test]
    fn probe_all_arity_sweep() {
        let mut m = BfuMatrix::new(1 << 12, 70);
        for b in 0..70usize {
            for t in 0..10u64 {
                if !(b as u64 + t).is_multiple_of(3) {
                    m.insert(b, pair(t), 3);
                }
            }
        }
        for n_pairs in 1..=5usize {
            for eta in 1..=5u32 {
                let pairs: Vec<HashPair> = (0..n_pairs as u64).map(pair).collect();
                let mask = probe_all(&m, &pairs, eta);
                for b in 0..70usize {
                    assert_eq!(
                        mask.get(b),
                        probe_bucket(&m, b, &pairs, eta),
                        "pairs {n_pairs} eta {eta} bucket {b}"
                    );
                }
            }
        }
    }

    /// Repeated terms do not change the mask, on any backend: dense ANDs the
    /// repeated rows again (idempotent), RRR and paged sort the plan and skip
    /// them.
    #[test]
    fn probe_all_dedupes_repeated_pairs() {
        let mut dense = BfuMatrix::new(1 << 12, 66);
        for b in 0..66usize {
            dense.insert(b, pair(b as u64 % 5), 3);
            dense.insert(b, pair((b as u64 + 1) % 5), 3);
        }
        let mut rrr = dense.clone();
        rrr.compress_rrr();
        let path = std::env::temp_dir().join(format!("rambo-matrix-{}.rbfm", std::process::id()));
        let mut bytes = Vec::new();
        dense.encode_into(&mut bytes);
        std::fs::write(&path, &bytes).unwrap();
        let file = PagedFile::open(&path, 1 << 16).unwrap();
        let paged =
            BfuMatrix::decode_paged(&file, &mut 0, &Arc::new(BlockCacheCounters::new())).unwrap();
        std::fs::remove_file(&path).unwrap();
        assert!(rrr.is_compressed() && paged.is_paged());

        let plain = [pair(1), pair(2)];
        let repeated = [pair(1), pair(2), pair(1), pair(1), pair(2)];
        let expect = probe_all(&dense, &plain, 3);
        assert!(expect.any(), "the fixture must leave live buckets");
        for m in [&dense, &rrr, &paged] {
            assert_eq!(probe_all(m, &plain, 3), expect);
            assert_eq!(probe_all(m, &repeated, 3), expect);
            for b in 0..66 {
                assert_eq!(
                    probe_bucket(m, b, &repeated, 3),
                    expect.get(b),
                    "bucket {b}"
                );
            }
        }
    }

    #[test]
    fn multi_term_probe_is_conjunctive() {
        let mut m = BfuMatrix::new(1 << 12, 16);
        m.insert(5, pair(10), 2);
        m.insert(5, pair(11), 2);
        m.insert(9, pair(10), 2);
        let mask = probe_all(&m, &[pair(10), pair(11)], 2);
        assert!(mask.get(5));
        assert!(!mask.get(9) || probe_bucket(&m, 9, &[pair(11)], 2));
    }

    #[test]
    fn probe_all_on_empty_matrix_dies_early() {
        let m = BfuMatrix::new(1 << 10, 40);
        assert!(probe_all(&m, &[pair(1), pair(2), pair(3)], 4).none());
    }

    #[test]
    fn column_extraction_matches_inserts() {
        let mut m = BfuMatrix::new(4096, 10);
        m.insert(7, pair(42), 4);
        let col = m.column(7);
        let expected: Vec<usize> = (0..4).map(|i| pair(42).index(i, 4096) as usize).collect();
        for p in expected {
            assert!(col.get(p));
        }
        assert!(m.column(6).none());
        assert!(m.column_fill(7) > 0.0);
        assert_eq!(m.column_fill(6), 0.0);
    }

    #[test]
    fn column_ones_matches_column_extraction() {
        let mut m = BfuMatrix::new(2048, 130);
        for b in 0..130usize {
            for t in 0..(b as u64 % 9) {
                m.insert(b, pair(t * 31 + b as u64), 3);
            }
        }
        let counts = m.column_ones();
        assert_eq!(counts.len(), 130);
        for (b, &count) in counts.iter().enumerate() {
            assert_eq!(count, m.column(b).count_ones(), "column {b}");
        }
    }

    #[test]
    fn fold_merges_column_pairs() {
        for b in [8usize, 70, 128, 130] {
            let mut m = BfuMatrix::new(2048, b);
            // Distinct term per bucket.
            for col in 0..b {
                m.insert(col, pair(col as u64), 2);
            }
            let before: Vec<BitVec> = (0..b).map(|c| m.column(c)).collect();
            m.fold_once().unwrap();
            assert_eq!(m.buckets(), b / 2);
            for c in 0..b / 2 {
                let mut expect = before[c].clone();
                expect.or_assign(&before[c + b / 2]);
                assert_eq!(m.column(c), expect, "B={b} col {c}");
            }
        }
    }

    #[test]
    fn fold_guards() {
        let mut odd = BfuMatrix::new(64, 7);
        assert!(odd.fold_once().is_err());
        let mut tiny = BfuMatrix::new(64, 2);
        assert!(tiny.fold_once().is_err());
    }

    #[test]
    fn stacking_copies_column_windows() {
        // Three shards of 5 columns each → 15-column global, offsets 0/5/10
        // (exercises non-word-aligned shifts).
        let mut global = BfuMatrix::new(1024, 15);
        let mut shards = Vec::new();
        for node in 0..3u64 {
            let mut s = BfuMatrix::new(1024, 5);
            for col in 0..5usize {
                s.insert(col, pair(node * 100 + col as u64), 3);
            }
            shards.push(s);
        }
        for (node, s) in shards.iter().enumerate() {
            global.copy_columns_from(s, node * 5);
        }
        for (node, s) in shards.iter().enumerate() {
            for col in 0..5usize {
                assert_eq!(
                    global.column(node * 5 + col),
                    s.column(col),
                    "node {node} col {col}"
                );
            }
        }
    }

    #[test]
    fn stacking_across_word_boundaries() {
        let mut global = BfuMatrix::new(512, 200);
        let mut src = BfuMatrix::new(512, 90);
        for col in (0..90).step_by(7) {
            src.insert(col, pair(col as u64), 2);
        }
        global.copy_columns_from(&src, 60); // offset 60, spans words 0..3
        for col in 0..90 {
            assert_eq!(global.column(60 + col), src.column(col), "col {col}");
        }
        assert_eq!(global.count_ones(), src.count_ones());
    }

    #[test]
    fn serialization_roundtrip() {
        let mut m = BfuMatrix::new(2048, 77);
        for t in 0..50u64 {
            m.insert((t % 77) as usize, pair(t), 3);
        }
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let mut slice = buf.as_slice();
        let back = BfuMatrix::decode_from(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(m, back);
    }

    #[test]
    fn encoded_payload_is_aligned() {
        let m = BfuMatrix::new(64, 10);
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let pad = buf[20] as usize;
        assert_eq!((HEADER_BYTES + pad) % 8, 0);
    }

    #[test]
    fn serialization_rejects_corruption() {
        let m = BfuMatrix::new(64, 10);
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let mut bad = buf.clone();
        bad[0] = b'X';
        assert!(BfuMatrix::decode_from(&mut bad.as_slice()).is_err());
        assert!(BfuMatrix::decode_from(&mut &buf[..10]).is_err());
        // Dirty tail bits.
        let mut dirty = buf.clone();
        let last = dirty.len() - 1;
        dirty[last] |= 0x80; // bit 63 of a 10-column row
        assert!(BfuMatrix::decode_from(&mut dirty.as_slice()).is_err());
    }

    #[test]
    fn view_decode_matches_owned_and_borrows() {
        let mut m = BfuMatrix::new(1024, 70);
        for t in 0..60u64 {
            m.insert((t % 70) as usize, pair(t), 3);
        }
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let total = buf.len();
        let arc: Arc<[u8]> = buf.into();
        if !(arc.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }
        let mut pos = 0;
        let view = BfuMatrix::decode_view(&arc, &mut pos).unwrap();
        assert_eq!(pos, total);
        assert!(view.is_view());
        assert!(view.payload_borrows(&arc));
        assert_eq!(view, m);
        // Probes agree between owned and viewed storage.
        for t in 0..70u64 {
            let (a, b) = (
                probe_all(&m, &[pair(t)], 3),
                probe_all(&view, &[pair(t)], 3),
            );
            assert_eq!(a, b, "term {t}");
        }
    }

    #[test]
    fn view_decode_rejects_misaligned_offset() {
        // Encoding pads relative to the *current* buffer, so embedding at an
        // odd offset normally still aligns. Force misalignment by encoding
        // standalone (pad for origin 0) and then shifting the bytes by one.
        let m = BfuMatrix::new(256, 10);
        let mut standalone = Vec::new();
        m.encode_into(&mut standalone);
        let mut shifted = vec![0u8; 1];
        shifted.extend_from_slice(&standalone);
        let arc: Arc<[u8]> = shifted.into();
        if (arc.as_ptr() as usize).is_multiple_of(8) {
            let mut pos = 1;
            assert!(
                BfuMatrix::decode_view(&arc, &mut pos).is_err(),
                "misaligned payload must be an error, never UB"
            );
            // The copying path has no alignment requirement.
            assert!(BfuMatrix::decode_from(&mut &arc[1..]).is_ok());
        }
    }

    #[test]
    fn viewed_matrix_promotes_on_insert() {
        let mut m = BfuMatrix::new(512, 12);
        m.insert(3, pair(9), 2);
        let mut buf = Vec::new();
        m.encode_into(&mut buf);
        let arc: Arc<[u8]> = buf.into();
        if !(arc.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }
        let mut pos = 0;
        let mut view = BfuMatrix::decode_view(&arc, &mut pos).unwrap();
        view.insert(5, pair(10), 2);
        assert!(!view.is_view(), "mutation must promote to owned");
        assert!(probe_bucket(&view, 3, &[pair(9)], 2));
        assert!(probe_bucket(&view, 5, &[pair(10)], 2));
    }
}
