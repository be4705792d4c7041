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
//! Two containers share the codec:
//!
//! * [`RrrVec`] — a single in-memory vector with `access`/`rank1`, the
//!   rank-capable node filter whose size Table 3 compares (it is never
//!   written to disk);
//! * [`RrrMatrix`] — an `m × B` row-major matrix where each row is an
//!   independently addressable RRR stream (per-row start samples), the
//!   compressed cold-tier backend behind the BFU probe path. Rows decode
//!   block-wise into dense words ([`RrrMatrix::decode_row_into`]) that feed
//!   the fused-AND mask kernels unchanged.

use crate::dense::BitVec;
use crate::error::DecodeError;
use crate::store::{skip_word_padding, write_word_padding};

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

/// v2 serialization magic for an [`RrrMatrix`] (compressed BFU tier).
const MAT_MAGIC: &[u8; 4] = b"RBFR";

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

/// Split `n` leading bytes off a decode cursor, or fail with a truncation
/// error naming `what`.
fn take<'a>(buf: &mut &'a [u8], n: usize, what: &str) -> Result<&'a [u8], DecodeError> {
    if buf.len() < n {
        return Err(DecodeError::new(format!("{what} truncated")));
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

/// Read a little-endian `u64` field off a decode cursor as `usize`.
fn take_u64(buf: &mut &[u8], what: &str) -> Result<usize, DecodeError> {
    let raw = take(buf, 8, what)?;
    let v = u64::from_le_bytes(raw.try_into().expect("8-byte field"));
    usize::try_from(v).map_err(|_| DecodeError::new(format!("{what} exceeds address space")))
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

/// Zero bytes needed after `len` payload bytes to reach a word boundary.
#[inline]
fn word_pad(len: usize) -> usize {
    len.next_multiple_of(8) - len
}

/// Decode the class-nibble array and offset words of an `RBFR` record,
/// validating all padding bytes/nibbles/bits are zero.
fn decode_streams(
    buf: &mut &[u8],
    n_blocks: usize,
    offset_bits: usize,
) -> Result<(Vec<u8>, Vec<u64>), DecodeError> {
    let classes_len = n_blocks.div_ceil(2);
    let padded = classes_len
        .checked_add(word_pad(classes_len))
        .ok_or_else(|| DecodeError::new("rrr class array size overflow"))?;
    let n_off_words = offset_bits.div_ceil(64);
    let class_bytes = take(buf, padded, "rrr class array")?;
    if class_bytes[classes_len..].iter().any(|&b| b != 0) {
        return Err(DecodeError::new("rrr class array padding not zero"));
    }
    let classes = class_bytes[..classes_len].to_vec();
    if !n_blocks.is_multiple_of(2) && classes_len > 0 && classes[classes_len - 1] >> 4 != 0 {
        return Err(DecodeError::new("rrr class nibble padding not zero"));
    }
    let payload_len = n_off_words
        .checked_mul(8)
        .ok_or_else(|| DecodeError::new("rrr offset stream size overflow"))?;
    let off_bytes = take(buf, payload_len, "rrr offset stream")?;
    let offsets: Vec<u64> = off_bytes
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
        .collect();
    if !offset_bits.is_multiple_of(64) && n_off_words > 0 {
        let last = offsets[n_off_words - 1];
        if last >> (offset_bits % 64) != 0 {
            return Err(DecodeError::new("rrr offset stream trailing bits set"));
        }
    }
    Ok((classes, offsets))
}

/// Validate one block at stream position `pos`: the offset must fit the
/// stream and stay below `C(15, class)`, and a partial final block (`tail <
/// BLOCK` significant bits) may not decode bits beyond its tail. Returns the
/// position of the next block.
fn check_block(
    offsets: &[u64],
    pos: usize,
    offset_bits: usize,
    class: usize,
    tail: usize,
) -> Result<usize, DecodeError> {
    let nb = usize::from(OFFSET_BITS[class]);
    if pos + nb > offset_bits {
        return Err(DecodeError::new("rrr offset stream overrun"));
    }
    let off = read_bits(offsets, pos, OFFSET_BITS[class]);
    if off >= u32::from(BINOM[BLOCK][class]) {
        return Err(DecodeError::new("rrr offset out of range for class"));
    }
    if tail < BLOCK && decode_offset(off, class) >> tail != 0 {
        return Err(DecodeError::new("rrr bits set beyond vector length"));
    }
    Ok(pos + nb)
}

/// An `m × B` bit matrix stored as one RRR stream per row.
///
/// This is the compressed storage backend for cold BFU tiers: each of the
/// `m_bits` rows is an independently addressable `buckets`-bit RRR vector
/// whose offset-stream start is sampled per row (`row_starts`), so a probe
/// decodes exactly the rows it touches — block-wise, straight into dense
/// words that feed the fused-AND mask kernels ([`crate::kernel`]) with no
/// intermediate bitvector.
///
/// The structure is immutable; build it from a dense row-major word payload
/// with [`RrrMatrix::from_words`]. Mutation paths in callers are expected to
/// materialize a dense copy first. Serialization uses the v2 `RBFR` framing;
/// like the dense matrix codec, decoding re-validates every structural
/// invariant so hostile input errors instead of panicking.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RrrMatrix {
    /// Number of rows (`m`).
    m_bits: usize,
    /// Logical bits per row (`B`).
    buckets: usize,
    /// 15-bit blocks per row (`⌈B/15⌉`).
    blocks_per_row: usize,
    /// 4-bit classes, two per byte, row-major (nibble `p·blocks_per_row+b`).
    classes: Vec<u8>,
    /// One bit-packed offset stream for all rows, row-major.
    offsets: Vec<u64>,
    /// Per-row start bit position in the offset stream (rebuilt on decode).
    row_starts: Vec<u64>,
    /// Bit length of the offset stream.
    offset_bits: usize,
    /// Total set bits (diagnostics).
    total_ones: u64,
}

impl RrrMatrix {
    /// The `RBFR` serialization magic — lets container decoders dispatch
    /// between dense and compressed matrix records by peeking 4 bytes.
    pub const MAGIC: [u8; 4] = *MAT_MAGIC;

    /// Compress a dense row-major word payload (`m_bits · ⌈buckets/64⌉`
    /// words; bits at positions `≥ buckets` in each row's final word must be
    /// zero — the dense matrix invariant).
    ///
    /// # Panics
    /// Panics on zero dimensions or a payload length mismatch.
    #[must_use]
    pub fn from_words(words: &[u64], m_bits: usize, buckets: usize) -> Self {
        assert!(m_bits > 0 && buckets > 0, "zero matrix dimension");
        let row_words = buckets.div_ceil(64);
        assert_eq!(words.len(), m_bits * row_words, "payload length mismatch");
        let bpr = buckets.div_ceil(BLOCK);
        let mut classes = vec![0u8; (m_bits * bpr).div_ceil(2)];
        let mut writer = BitWriter::default();
        let mut row_starts = Vec::with_capacity(m_bits);
        let mut ones = 0u64;
        for p in 0..m_bits {
            row_starts.push(writer.len as u64);
            let row = &words[p * row_words..(p + 1) * row_words];
            for b in 0..bpr {
                let start = b * BLOCK;
                let take_bits = BLOCK.min(buckets - start);
                let bits = read_bits(row, start, take_bits as u8) as u16;
                let class = bits.count_ones() as usize;
                ones += class as u64;
                set_class(&mut classes, p * bpr + b, class);
                writer.push(encode_offset(bits, class), OFFSET_BITS[class]);
            }
        }
        Self {
            m_bits,
            buckets,
            blocks_per_row: bpr,
            classes,
            offset_bits: writer.len,
            offsets: writer.words,
            row_starts,
            total_ones: ones,
        }
    }

    /// Number of rows (`m`).
    #[must_use]
    pub fn m_bits(&self) -> usize {
        self.m_bits
    }

    /// Logical bits per row (`B`).
    #[must_use]
    pub fn buckets(&self) -> usize {
        self.buckets
    }

    /// Words per dense row (`⌈B/64⌉`) — the `out` length
    /// [`RrrMatrix::decode_row_into`] expects.
    #[must_use]
    pub fn row_words(&self) -> usize {
        self.buckets.div_ceil(64)
    }

    /// Total set bits.
    #[must_use]
    pub fn count_ones(&self) -> usize {
        self.total_ones as usize
    }

    /// Decode row `p` into dense words. `out` is fully overwritten; bits at
    /// positions `≥ buckets` in the final word come out zero, so the result
    /// can feed the masked AND kernels directly.
    ///
    /// # Panics
    /// Panics if `p` is out of range or `out` is not `row_words()` long.
    pub fn decode_row_into(&self, p: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.row_words(), "row buffer length mismatch");
        out.fill(0);
        let mut pos = self.row_starts[p] as usize;
        let base = p * self.blocks_per_row;
        for b in 0..self.blocks_per_row {
            let class = class_at(&self.classes, base + b);
            let off = read_bits(&self.offsets, pos, OFFSET_BITS[class]);
            pos += usize::from(OFFSET_BITS[class]);
            if class == 0 {
                continue;
            }
            let bits = u64::from(decode_offset(off, class));
            let bitpos = b * BLOCK;
            let (w, s) = (bitpos / 64, bitpos % 64);
            out[w] |= bits << s;
            if s + BLOCK > 64 && w + 1 < out.len() {
                out[w + 1] |= bits >> (64 - s);
            }
        }
    }

    /// Read one bit without decoding the whole row. O(blocks_per_row) —
    /// used by candidate-bucket probes, not the row-probe hot path.
    ///
    /// # Panics
    /// Panics if `p` or `bit` is out of range.
    #[must_use]
    pub fn get(&self, p: usize, bit: usize) -> bool {
        assert!(p < self.m_bits && bit < self.buckets, "index out of range");
        let block = bit / BLOCK;
        let base = p * self.blocks_per_row;
        let mut pos = self.row_starts[p] as usize;
        for b in 0..block {
            pos += usize::from(OFFSET_BITS[class_at(&self.classes, base + b)]);
        }
        let class = class_at(&self.classes, base + block);
        let bits = decode_offset(read_bits(&self.offsets, pos, OFFSET_BITS[class]), class);
        (bits >> (bit % BLOCK)) & 1 == 1
    }

    /// Heap bytes of the compressed representation (classes + offset stream
    /// + per-row samples). Compare against the dense `m·⌈B/64⌉·8`.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.classes.len() + self.offsets.len() * 8 + self.row_starts.len() * 8
    }

    /// Append the v2 binary encoding: `RBFR` magic, rows, columns,
    /// offset-stream bit length, word-alignment padding, class nibbles
    /// (zero-padded to a word boundary) and offset words. Row-start samples
    /// are rebuilt on decode. The total encoding is a whole number of words
    /// when `out` started word-aligned, preserving the catalog's
    /// concatenation invariant.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(MAT_MAGIC);
        out.extend_from_slice(&(self.m_bits as u64).to_le_bytes());
        out.extend_from_slice(&(self.buckets as u64).to_le_bytes());
        out.extend_from_slice(&(self.offset_bits as u64).to_le_bytes());
        write_word_padding(out);
        out.extend_from_slice(&self.classes);
        out.resize(out.len() + word_pad(self.classes.len()), 0);
        for &w in &self.offsets {
            out.extend_from_slice(&w.to_le_bytes());
        }
    }

    /// Total encoded byte length of the `RBFR` record starting at `buf[0]`,
    /// parsed from the header alone (`buf` may be a prefix). Lets a paged
    /// loader size its read without decoding the payload.
    ///
    /// # Errors
    /// [`DecodeError`] when the prefix is not an `RBFR` header.
    pub fn peek_encoded_len(mut buf: &[u8]) -> Result<usize, DecodeError> {
        let start = buf.len();
        let (m_bits, buckets, offset_bits) = Self::decode_header(&mut buf)?;
        let consumed = start - buf.len();
        let bpr = buckets.div_ceil(BLOCK);
        let nibbles = m_bits
            .checked_mul(bpr)
            .ok_or_else(|| DecodeError::new("rrr matrix size overflow"))?;
        let classes_len = nibbles.div_ceil(2);
        classes_len
            .checked_add(word_pad(classes_len))
            .and_then(|c| offset_bits.div_ceil(64).checked_mul(8).map(|o| (c, o)))
            .and_then(|(c, o)| c.checked_add(o))
            .and_then(|p| p.checked_add(consumed))
            .ok_or_else(|| DecodeError::new("rrr matrix size overflow"))
    }

    /// Parse the fixed header and padding, advancing `buf` to the class
    /// array. Returns `(m_bits, buckets, offset_bits)`.
    fn decode_header(buf: &mut &[u8]) -> Result<(usize, usize, usize), DecodeError> {
        let magic = take(buf, 4, "rrr matrix header")?;
        if magic != MAT_MAGIC {
            return Err(DecodeError::new("bad rrr matrix magic"));
        }
        let m_bits = take_u64(buf, "rrr matrix rows")?;
        let buckets = take_u64(buf, "rrr matrix columns")?;
        let offset_bits = take_u64(buf, "rrr matrix offset-stream length")?;
        if m_bits == 0 || buckets == 0 {
            return Err(DecodeError::new("rrr matrix with zero dimension"));
        }
        skip_word_padding(buf)?;
        Ok((m_bits, buckets, offset_bits))
    }

    /// Decode, advancing the buffer past the consumed bytes. Re-validates
    /// every block (offset ranges, per-row tail blocks, stream length and
    /// all padding) while rebuilding the row-start samples, so corrupted or
    /// truncated input errors rather than panicking.
    ///
    /// # Errors
    /// [`DecodeError`] on any format violation.
    pub fn decode_from(buf: &mut &[u8]) -> Result<Self, DecodeError> {
        let (m_bits, buckets, offset_bits) = Self::decode_header(buf)?;
        let bpr = buckets.div_ceil(BLOCK);
        let nibbles = m_bits
            .checked_mul(bpr)
            .ok_or_else(|| DecodeError::new("rrr matrix size overflow"))?;
        let (classes, offsets) = decode_streams(buf, nibbles, offset_bits)?;

        let tail_bits = buckets - (bpr - 1) * BLOCK;
        let mut row_starts = Vec::with_capacity(m_bits);
        let mut pos = 0usize;
        let mut ones = 0u64;
        for p in 0..m_bits {
            row_starts.push(pos as u64);
            let base = p * bpr;
            for b in 0..bpr {
                let class = class_at(&classes, base + b);
                let tail = if b == bpr - 1 { tail_bits } else { BLOCK };
                pos = check_block(&offsets, pos, offset_bits, class, tail)?;
                ones += class as u64;
            }
        }
        if pos != offset_bits {
            return Err(DecodeError::new("rrr matrix offset stream length mismatch"));
        }
        Ok(Self {
            m_bits,
            buckets,
            blocks_per_row: bpr,
            classes,
            offsets,
            row_starts,
            offset_bits,
            total_ones: ones,
        })
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

    fn dense_rows(m: usize, buckets: usize, f: impl Fn(usize, usize) -> bool) -> Vec<u64> {
        let rw = buckets.div_ceil(64);
        let mut words = vec![0u64; m * rw];
        for p in 0..m {
            for b in 0..buckets {
                if f(p, b) {
                    words[p * rw + b / 64] |= 1u64 << (b % 64);
                }
            }
        }
        words
    }

    #[test]
    fn matrix_rows_roundtrip_bit_identical() {
        for buckets in [1usize, 15, 16, 64, 65, 70, 128, 130] {
            let m = 97;
            let words = dense_rows(m, buckets, |p, b| (p * 31 + b * 7) % 13 == 0);
            let rrr = RrrMatrix::from_words(&words, m, buckets);
            assert_eq!(
                rrr.count_ones(),
                words.iter().map(|w| w.count_ones() as usize).sum()
            );
            let rw = buckets.div_ceil(64);
            let mut row = vec![0u64; rw];
            for p in 0..m {
                rrr.decode_row_into(p, &mut row);
                assert_eq!(&row, &words[p * rw..(p + 1) * rw], "B={buckets} row {p}");
                for b in 0..buckets {
                    assert_eq!(
                        rrr.get(p, b),
                        (words[p * rw + b / 64] >> (b % 64)) & 1 == 1,
                        "B={buckets} bit ({p},{b})"
                    );
                }
            }
        }
    }

    #[test]
    fn matrix_serialization_roundtrip_and_peek() {
        let (m, buckets) = (64, 70);
        let words = dense_rows(m, buckets, |p, b| (p + b) % 11 == 3);
        let rrr = RrrMatrix::from_words(&words, m, buckets);
        let bytes = {
            // Encode at a nonzero word-aligned origin, like a catalog does.
            let mut out = vec![0u8; 16];
            rrr.encode_into(&mut out);
            out.split_off(16)
        };
        assert!(bytes.len().is_multiple_of(8));
        assert_eq!(RrrMatrix::peek_encoded_len(&bytes).unwrap(), bytes.len());
        // The peek needs only the header prefix.
        assert_eq!(
            RrrMatrix::peek_encoded_len(&bytes[..36]).unwrap(),
            bytes.len()
        );
        let mut slice = bytes.as_slice();
        let back = RrrMatrix::decode_from(&mut slice).unwrap();
        assert!(slice.is_empty());
        assert_eq!(back, rrr);
    }

    #[test]
    fn matrix_serialization_rejects_corruption() {
        let words = dense_rows(32, 40, |p, b| (p ^ b) % 5 == 0);
        let rrr = RrrMatrix::from_words(&words, 32, 40);
        let mut bytes = Vec::new();
        rrr.encode_into(&mut bytes);
        for cut in 0..bytes.len() {
            assert!(
                RrrMatrix::decode_from(&mut &bytes[..cut]).is_err(),
                "cut {cut}"
            );
        }
        let mut bad = bytes.clone();
        bad[2] = b'!';
        assert!(RrrMatrix::decode_from(&mut bad.as_slice()).is_err());
        // Corrupting the stream-length field desynchronizes the walk.
        let mut short_stream = bytes.clone();
        short_stream[20] ^= 0x01;
        assert!(RrrMatrix::decode_from(&mut short_stream.as_slice()).is_err());
        // An empty-matrix claim (zero rows) is rejected outright.
        let mut zero = bytes.clone();
        zero[4..12].fill(0);
        assert!(RrrMatrix::decode_from(&mut zero.as_slice()).is_err());
    }
}
