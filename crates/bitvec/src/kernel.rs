//! Word-parallel kernels for the probe and intersection hot loops.
//!
//! RAMBO's query path (Algorithm 2) is dominated by row-AND passes over
//! `η·|terms|` Bloom rows per table, plus the `K`-bit bitmap intersection
//! across repetitions. The loops here are written in the shape LLVM's
//! auto-vectorizer reliably turns into SIMD: four `u64` lanes per iteration,
//! no early exits inside the unrolled body, all slices pre-trimmed to one
//! length so bounds checks hoist out. [`and_rows_into_any`] additionally
//! fuses up to `N` probed rows into a *single* pass over the destination
//! mask — `N + 2` streams instead of `3N` — which is where the measured win
//! over the row-at-a-time baseline comes from (`query_direct` and the
//! `bitvec.kernel.and_rows_ns_per_word` trace metric of the `benchmark/`
//! package measure it). The same trick is what makes the bit-sliced
//! COBS/Bloofi baselines fast; here it is applied across buckets instead of
//! documents.
//! [`and_gather_rows_into_any`] runs that fused body over a whole list of
//! rows named by their offsets in one row-major matrix — the entire probe of
//! one repetition in a single call.
//!
//! Liveness (`-> bool`: "does any bit survive?") is accumulated for free in
//! the unrolled body, so callers can stop probing the moment a running mask
//! goes all-zero without a separate scan.
//!
//! # One compilation
//!
//! Every kernel is one portable loop, compiled at the crate's baseline
//! target (SSE2 on x86-64) and auto-vectorized there; each body is
//! `#[inline(always)]` so it vectorizes inside its caller. There is no wider
//! SIMD tier: at the paper's `B ≈ √K` geometry a probed row is 1–9 words, so
//! a probe is bound by fetching rows, not by the width of the AND, and a
//! hand-written 256-bit AND measured slower than these loops on 3- and
//! 9-word rows (it won only from 64 words up). The module is safe code.

/// `dst[i] &= rows[0][i] & rows[1][i] & … & rows[N-1][i]` for every word,
/// fused into one pass; returns `true` if any bit of `dst` remains set.
///
/// `N` is a compile-time constant (the probe loop uses 1, 2, 3 and 4), so
/// the inner reduction unrolls completely and the whole body vectorizes.
///
/// # Panics
/// Panics if any row is shorter than `dst`.
#[inline(always)]
pub fn and_rows_into_any<const N: usize>(dst: &mut [u64], rows: [&[u64]; N]) -> bool {
    let n = dst.len();
    let rows: [&[u64]; N] = rows.map(|r| &r[..n]);
    let mut live = 0u64;
    let mut i = 0;
    // Main loop: 4 u64 lanes per iteration, N-row reduction unrolled by the
    // const generic — auto-vectorizable.
    while i + 4 <= n {
        let mut w0 = dst[i];
        let mut w1 = dst[i + 1];
        let mut w2 = dst[i + 2];
        let mut w3 = dst[i + 3];
        for r in &rows {
            w0 &= r[i];
            w1 &= r[i + 1];
            w2 &= r[i + 2];
            w3 &= r[i + 3];
        }
        dst[i] = w0;
        dst[i + 1] = w1;
        dst[i + 2] = w2;
        dst[i + 3] = w3;
        live |= w0 | w1 | w2 | w3;
        i += 4;
    }
    while i < n {
        let mut w = dst[i];
        for r in &rows {
            w &= r[i];
        }
        dst[i] = w;
        live |= w;
        i += 1;
    }
    live != 0
}

/// The whole per-table probe of Algorithm 2 in one call: `words` is a
/// row-major matrix of `dst.len()`-word rows, `row_offsets` the word offset
/// of each probed row, and every listed row is ANDed into `dst`. Returns
/// `true` if any bit of `dst` remains set.
///
/// The rows go through the fused body of [`and_rows_into_any`] four at a
/// time. Liveness is checked after every group and the walk stops at the
/// first dead one: AND can only clear bits, so the rows left unread cannot
/// change an all-zero `dst`. A repeated offset is one more idempotent AND.
///
/// # Panics
/// Panics if a listed row does not lie inside `words`.
#[inline(always)]
pub fn and_gather_rows_into_any(dst: &mut [u64], words: &[u64], row_offsets: &[usize]) -> bool {
    let n = dst.len();
    // The live window: every word of `dst` outside `[lo, hi)` is zero, and
    // AND cannot set a bit, so later rows are only read inside it. A probe
    // of a few hundred rows is down to a word or two after the first group;
    // the rest of each 72-byte row is traffic for nothing.
    let (mut lo, mut hi) = (0, n);
    // Each row is sliced whole first, so an offset that does not lie inside
    // `words` panics however far the window has closed.
    let row = |offset: usize, lo: usize, hi: usize| &words[offset..offset + n][lo..hi];
    let mut groups = row_offsets.chunks_exact(4);
    for g in &mut groups {
        let rows = [
            row(g[0], lo, hi),
            row(g[1], lo, hi),
            row(g[2], lo, hi),
            row(g[3], lo, hi),
        ];
        if !and_rows_into_any(&mut dst[lo..hi], rows) {
            return false;
        }
        // Live, so both scans stop at a set word inside the window.
        while dst[lo] == 0 {
            lo += 1;
        }
        while dst[hi - 1] == 0 {
            hi -= 1;
        }
    }
    let dst = &mut dst[lo..hi];
    let row = |offset: usize| row(offset, lo, hi);
    match *groups.remainder() {
        [a] => and_rows_into_any(dst, [row(a)]),
        [a, b] => and_rows_into_any(dst, [row(a), row(b)]),
        [a, b, c] => and_rows_into_any(dst, [row(a), row(b), row(c)]),
        // Every group so far left `dst` live; with no group, ask `dst`.
        _ => !row_offsets.is_empty() || any(dst),
    }
}

/// Reference row-at-a-time AND (`dst &= src`), one row per pass — the
/// pre-kernel scalar baseline, kept as the property tests' reference.
///
/// # Panics
/// Panics if `src` is shorter than `dst`.
#[inline]
pub fn and_into_scalar(dst: &mut [u64], src: &[u64]) {
    let src = &src[..dst.len()];
    for (a, b) in dst.iter_mut().zip(src) {
        *a &= b;
    }
}

/// `dst[i] |= src[i]`, 4 lanes per iteration.
///
/// # Panics
/// Panics if `src` is shorter than `dst`.
#[inline(always)]
pub fn or_into(dst: &mut [u64], src: &[u64]) {
    let n = dst.len();
    let src = &src[..n];
    let mut i = 0;
    while i + 4 <= n {
        dst[i] |= src[i];
        dst[i + 1] |= src[i + 1];
        dst[i + 2] |= src[i + 2];
        dst[i + 3] |= src[i + 3];
        i += 4;
    }
    while i < n {
        dst[i] |= src[i];
        i += 1;
    }
}

/// Total set bits, 4 independent accumulators per iteration (breaks the
/// popcount dependency chain so the loop pipelines).
#[inline(always)]
#[must_use]
pub fn popcount(words: &[u64]) -> usize {
    let mut c0 = 0usize;
    let mut c1 = 0usize;
    let mut c2 = 0usize;
    let mut c3 = 0usize;
    let mut chunks = words.chunks_exact(4);
    for c in &mut chunks {
        c0 += c[0].count_ones() as usize;
        c1 += c[1].count_ones() as usize;
        c2 += c[2].count_ones() as usize;
        c3 += c[3].count_ones() as usize;
    }
    for &w in chunks.remainder() {
        c0 += w.count_ones() as usize;
    }
    c0 + c1 + c2 + c3
}

/// True if any bit is set: OR-reduce 4 lanes per iteration, checking (and
/// early-exiting) once per chunk rather than once per word.
#[inline(always)]
#[must_use]
pub fn any(words: &[u64]) -> bool {
    let mut chunks = words.chunks_exact(4);
    for c in &mut chunks {
        if c[0] | c[1] | c[2] | c[3] != 0 {
            return true;
        }
    }
    chunks.remainder().iter().any(|&w| w != 0)
}

// ---------------------------------------------------------------------------
// Bit-sliced vertical counters
// ---------------------------------------------------------------------------

/// Bit-sliced vertical counters: per-bit-position popcounts over a sequence
/// of equal-width word rows, updated 64 columns at a time.
///
/// Plane `k` holds bit `k` of every column's running count, so adding a row
/// is a word-parallel ripple-carry add — the same bit-sliced trick COBS uses
/// for its document rows, applied here to the `m × B` BFU matrix to compute
/// all `B` column fills in one sequential pass (no per-set-bit extraction).
/// Each add touches `O(carry depth)` planes, amortized ~2 passes per row.
#[derive(Debug, Default)]
pub struct ColumnCounter {
    width: usize,
    /// `planes[k][w]`: bit `k` of the count of column `w·64 + b`, sliced
    /// across bit `b` of the word.
    planes: Vec<Vec<u64>>,
    /// Carries still propagating while adding one row.
    scratch: Vec<u64>,
}

impl ColumnCounter {
    /// Counters for rows of `width` words (`width · 64` columns).
    #[must_use]
    pub fn new(width: usize) -> Self {
        Self {
            width,
            planes: Vec::new(),
            scratch: vec![0; width],
        }
    }

    /// Add one row: column `c`'s counter increments iff bit `c` of the row
    /// is set.
    ///
    /// # Panics
    /// Panics if `row.len() != width`.
    pub fn add_row(&mut self, row: &[u64]) {
        assert_eq!(row.len(), self.width, "row width mismatch");
        // Plane `k` gets bit `k` of every column's running count via
        // word-parallel half-adders.
        let (width, planes, scratch) = (self.width, &mut self.planes, &mut self.scratch);
        scratch.copy_from_slice(row);
        let mut carry_any = row.iter().fold(0u64, |a, &w| a | w);
        let mut k = 0;
        while carry_any != 0 {
            if k == planes.len() {
                planes.push(vec![0; width]);
            }
            let plane = &mut planes[k];
            carry_any = 0;
            // Half-adder per word: sum = plane ^ x, carry = plane & x.
            let mut i = 0;
            while i + 4 <= width {
                let (x0, x1, x2, x3) = (scratch[i], scratch[i + 1], scratch[i + 2], scratch[i + 3]);
                let (c0, c1, c2, c3) = (
                    plane[i] & x0,
                    plane[i + 1] & x1,
                    plane[i + 2] & x2,
                    plane[i + 3] & x3,
                );
                plane[i] ^= x0;
                plane[i + 1] ^= x1;
                plane[i + 2] ^= x2;
                plane[i + 3] ^= x3;
                scratch[i] = c0;
                scratch[i + 1] = c1;
                scratch[i + 2] = c2;
                scratch[i + 3] = c3;
                carry_any |= c0 | c1 | c2 | c3;
                i += 4;
            }
            while i < width {
                let x = scratch[i];
                let c = plane[i] & x;
                plane[i] ^= x;
                scratch[i] = c;
                carry_any |= c;
                i += 1;
            }
            k += 1;
        }
    }

    /// Add every `width`-word row of the row-major slice `rows`.
    ///
    /// Eight rows at a time go through a carry-save adder tree first: per
    /// word, seven word-wide adders compress the eight input bits of each
    /// column into one 4-bit number, and only that number ripples into the
    /// planes — about a quarter of the word operations of eight
    /// [`ColumnCounter::add_row`] calls, whatever the rows' density. Rows
    /// left over after the last full block are added one by one.
    ///
    /// # Panics
    /// Panics if `rows.len()` is not a multiple of `width`.
    pub fn add_rows(&mut self, rows: &[u64]) {
        let width = self.width;
        if width == 0 {
            return;
        }
        assert_eq!(rows.len() % width, 0, "row width mismatch");
        // (carry, sum) of three one-bit-per-column inputs.
        let csa = |a: u64, b: u64, c: u64| ((a & b) | ((a ^ b) & c), a ^ b ^ c);
        let mut blocks = rows.chunks_exact(8 * width);
        for block in &mut blocks {
            while self.planes.len() < 4 {
                self.planes.push(vec![0; width]);
            }
            for w in 0..width {
                let r = |i: usize| block[i * width + w];
                let (twos_a, ones_a) = csa(r(0), r(1), r(2));
                let (twos_b, ones_b) = csa(r(3), r(4), r(5));
                let (twos_c, ones_c) = csa(ones_a, ones_b, r(6));
                let (twos_d, ones) = (ones_c & r(7), ones_c ^ r(7));
                let (fours_a, twos_e) = csa(twos_a, twos_b, twos_c);
                let (fours_b, twos) = (twos_e & twos_d, twos_e ^ twos_d);
                let (eights, fours) = (fours_a & fours_b, fours_a ^ fours_b);
                // Full-adder ripple of the 4-bit column sums into the low
                // planes, then the usual half-adder ripple of what is left.
                let mut carry = 0u64;
                for (plane, x) in self.planes.iter_mut().zip([ones, twos, fours, eights]) {
                    let p = plane[w];
                    plane[w] = p ^ x ^ carry;
                    carry = (p & x) | (carry & (p ^ x));
                }
                let mut k = 4;
                while carry != 0 {
                    if k == self.planes.len() {
                        self.planes.push(vec![0; width]);
                    }
                    let p = self.planes[k][w];
                    self.planes[k][w] = p ^ carry;
                    carry &= p;
                    k += 1;
                }
            }
        }
        for row in blocks.remainder().chunks_exact(width) {
            self.add_row(row);
        }
    }

    /// Zero every counter and resize for rows of `width` words, keeping the
    /// plane allocations — a counter reused across queries stops allocating
    /// once it has seen its deepest carry.
    pub fn reset(&mut self, width: usize) {
        self.width = width;
        self.scratch.clear();
        self.scratch.resize(width, 0);
        for plane in &mut self.planes {
            plane.clear();
            plane.resize(width, 0);
        }
    }

    /// Write into `out` the bitmap of columns whose count is at least
    /// `threshold`: a bit-sliced magnitude comparison walking the planes from
    /// the most significant down, 64 columns per word operation, with no
    /// per-column count materialized.
    ///
    /// # Panics
    /// Panics if `out.len() != width`.
    pub fn at_least(&self, threshold: usize, out: &mut [u64]) {
        assert_eq!(out.len(), self.width, "bitmap width mismatch");
        let depth = self.planes.len();
        // A threshold with a bit above every plane exceeds any count held.
        if depth < usize::BITS as usize && threshold >> depth != 0 {
            out.fill(0);
            return;
        }
        for (w, out_word) in out.iter_mut().enumerate() {
            // `eq`: columns equal to the threshold on the planes seen so
            // far; `gt`: columns already decided greater.
            let (mut gt, mut eq) = (0u64, u64::MAX);
            for (k, plane) in self.planes.iter().enumerate().rev() {
                if (threshold >> k) & 1 == 1 {
                    eq &= plane[w];
                } else {
                    gt |= eq & plane[w];
                }
            }
            *out_word = gt | eq;
        }
    }

    /// Materialize the per-column counts (`width · 64` entries, column
    /// order).
    #[must_use]
    pub fn counts(&self) -> Vec<usize> {
        let mut out = vec![0usize; self.width * 64];
        for (k, plane) in self.planes.iter().enumerate() {
            for (w, &word) in plane.iter().enumerate() {
                let mut rest = word;
                while rest != 0 {
                    let bit = rest.trailing_zeros() as usize;
                    out[w * 64 + bit] += 1 << k;
                    rest &= rest - 1;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pseudo(seed: u64, n: usize) -> Vec<u64> {
        let mut x = seed | 1;
        (0..n)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect()
    }

    #[test]
    fn fused_and_matches_sequential_scalar() {
        for len in [0usize, 1, 3, 4, 7, 8, 9, 15, 16, 33, 257] {
            let r0 = pseudo(1, len);
            let r1 = pseudo(2, len);
            let r2 = pseudo(3, len);
            let r3 = pseudo(4, len);
            let base = pseudo(5, len);

            let mut expect = base.clone();
            for r in [&r0, &r1, &r2, &r3] {
                and_into_scalar(&mut expect, r);
            }

            let mut got = base.clone();
            let live = and_rows_into_any(&mut got, [&r0[..], &r1, &r2, &r3]);
            assert_eq!(got, expect, "len {len}");
            assert_eq!(live, expect.iter().any(|&w| w != 0), "len {len}");
        }
    }

    #[test]
    fn fused_and_all_arities() {
        let len = 67;
        let rows: Vec<Vec<u64>> = (0..4).map(|s| pseudo(s + 10, len)).collect();
        let base = pseudo(99, len);
        // N = 1, 2, 3 against the scalar reference.
        for n in 1..=3usize {
            let mut expect = base.clone();
            for r in rows.iter().take(n) {
                and_into_scalar(&mut expect, r);
            }
            let mut got = base.clone();
            let live = match n {
                1 => and_rows_into_any(&mut got, [&rows[0][..]]),
                2 => and_rows_into_any(&mut got, [&rows[0][..], &rows[1]]),
                _ => and_rows_into_any(&mut got, [&rows[0][..], &rows[1], &rows[2]]),
            };
            assert_eq!(got, expect, "N = {n}");
            assert!(live);
        }
    }

    #[test]
    fn fused_and_reports_death() {
        let mut dst = vec![u64::MAX; 9];
        let zero = [0u64; 9];
        assert!(!and_rows_into_any(&mut dst, [&zero[..]]));
        assert!(dst.iter().all(|&w| w == 0));
    }

    #[test]
    fn popcount_and_any_match_naive() {
        for len in [0usize, 1, 4, 5, 7, 8, 63, 64, 130] {
            let words = pseudo(7, len);
            let naive: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            assert_eq!(popcount(&words), naive, "len {len}");
            assert_eq!(any(&words), naive > 0, "len {len}");
        }
        assert!(!any(&[0, 0, 0, 0, 0]));
        assert!(any(&[0, 0, 0, 0, 1]));
    }

    #[test]
    fn or_into_matches_naive() {
        let a0 = pseudo(11, 37);
        let b = pseudo(12, 37);
        let mut got = a0.clone();
        or_into(&mut got, &b);
        let expect: Vec<u64> = a0.iter().zip(&b).map(|(x, y)| x | y).collect();
        assert_eq!(got, expect);
    }

    #[test]
    fn column_counter_matches_naive() {
        let width = 3;
        let rows: Vec<Vec<u64>> = (0..300).map(|s| pseudo(s * 7 + 1, width)).collect();
        let mut cc = ColumnCounter::new(width);
        let mut naive = vec![0usize; width * 64];
        for row in &rows {
            cc.add_row(row);
            for (w, &word) in row.iter().enumerate() {
                for b in 0..64 {
                    naive[w * 64 + b] += ((word >> b) & 1) as usize;
                }
            }
        }
        assert_eq!(cc.counts(), naive);
    }

    #[test]
    fn column_counter_empty_and_sparse() {
        let mut cc = ColumnCounter::new(2);
        assert_eq!(cc.counts(), vec![0; 128]);
        cc.add_row(&[0, 0]);
        cc.add_row(&[1, 1 << 63]);
        let counts = cc.counts();
        assert_eq!(counts[0], 1);
        assert_eq!(counts[127], 1);
        assert_eq!(counts.iter().sum::<usize>(), 2);
    }
}
