//! Property-based tests for the bit-vector substrate.
//!
//! The RAMBO query engine's correctness rests on these algebraic identities
//! (union distributing over partitions, intersection across repetitions), so
//! they are checked against a naive `Vec<bool>` model under random inputs.

use proptest::prelude::*;
use rambo_bitvec::kernel::{self, and_into_scalar, ColumnCounter};
use rambo_bitvec::{BitVec, RrrVec, WordView};
use std::sync::Arc;

/// A bit length paired with set-bit positions below it.
type LenAndOnes = (usize, Vec<usize>);

/// Strategy: a bit length and a set of positions below it.
fn bits_strategy(max_len: usize) -> impl Strategy<Value = LenAndOnes> {
    (1..max_len).prop_flat_map(|len| {
        (
            Just(len),
            proptest::collection::vec(0..len, 0..(len.min(256))),
        )
    })
}

fn model(len: usize, ones: &[usize]) -> Vec<bool> {
    let mut v = vec![false; len];
    for &i in ones {
        v[i] = true;
    }
    v
}

/// Deterministic pseudo-random words from a fuzzed seed: `sparsify` extra
/// AND-draws thin the density (0 → ~50% set, 3 → ~6%), so the kernel
/// identity tests cover both live and dying masks.
fn sparse_words(seed: u64, n: usize, sparsify: u32) -> Vec<u64> {
    let mut x = seed | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    (0..n)
        .map(|_| (0..=sparsify).fold(u64::MAX, |w, _| w & next()))
        .collect()
}

proptest! {
    #[test]
    #[allow(clippy::needless_range_loop)]
    fn get_matches_model((len, ones) in bits_strategy(2000)) {
        let bv = BitVec::from_ones(len, ones.iter().copied());
        let m = model(len, &ones);
        for i in 0..len {
            prop_assert_eq!(bv.get(i), m[i]);
        }
        prop_assert_eq!(bv.count_ones(), m.iter().filter(|&&b| b).count());
    }

    #[test]
    fn or_and_match_model(
        (len, a_ones) in bits_strategy(1500),
        b_seed in proptest::collection::vec(0usize..1500, 0..128),
    ) {
        let b_ones: Vec<usize> = b_seed.into_iter().map(|x| x % len).collect();
        let a = BitVec::from_ones(len, a_ones.iter().copied());
        let b = BitVec::from_ones(len, b_ones.iter().copied());
        let (ma, mb) = (model(len, &a_ones), model(len, &b_ones));

        let mut or = a.clone();
        or.or_assign(&b);
        let mut and = a.clone();
        and.and_assign(&b);

        for i in 0..len {
            prop_assert_eq!(or.get(i), ma[i] | mb[i]);
            prop_assert_eq!(and.get(i), ma[i] & mb[i]);
        }
    }

    #[test]
    fn iter_ones_roundtrip((len, ones) in bits_strategy(3000)) {
        let bv = BitVec::from_ones(len, ones.iter().copied());
        let collected: Vec<usize> = bv.iter_ones().collect();
        let rebuilt = BitVec::from_ones(len, collected.iter().copied());
        prop_assert_eq!(&bv, &rebuilt);
        // Sorted and unique.
        prop_assert!(collected.windows(2).all(|w| w[0] < w[1]));
    }

    /// The fused N-row AND must be **bit-identical** to the row-at-a-time
    /// scalar AND — mask words *and* the liveness flag — across fuzzed
    /// lengths, densities (sparse rows exercise the mask-death path) and all
    /// four probe arities.
    #[test]
    fn kernel_fused_and_bit_identical(
        len in 0usize..600,
        seed in any::<u64>(),
        sparsify in 0u32..4,
    ) {
        let rows: Vec<Vec<u64>> =
            (0..4).map(|i| sparse_words(seed ^ (i * 0x9E37), len, sparsify)).collect();
        let base = sparse_words(seed ^ 0xABCD, len, 0);
        for arity in 1..=4usize {
            // Independent reference: row-at-a-time scalar AND.
            let mut expect = base.clone();
            for r in rows.iter().take(arity) {
                and_into_scalar(&mut expect, r);
            }
            let mut got = base.clone();
            let live = match arity {
                1 => kernel::and_rows_into_any(&mut got, [&rows[0][..]]),
                2 => kernel::and_rows_into_any(&mut got, [&rows[0][..], &rows[1]]),
                3 => kernel::and_rows_into_any(&mut got, [&rows[0][..], &rows[1], &rows[2]]),
                _ => kernel::and_rows_into_any(
                    &mut got,
                    [&rows[0][..], &rows[1], &rows[2], &rows[3]],
                ),
            };
            prop_assert_eq!(&got, &expect, "arity {}", arity);
            prop_assert_eq!(live, expect.iter().any(|&w| w != 0), "liveness, arity {}", arity);
        }
    }

    /// The gather-AND — a whole repetition's probe in one call — must equal
    /// the naive row-at-a-time AND: mask words
    /// *and* liveness, for 1..=24-word rows and 0..=13 listed rows (every
    /// four-row group and remainder shape), with repeated offsets and with
    /// an all-zero row planted mid-list so the early exit is taken. The walk
    /// may stop at a dead mask; a dead mask is also what the naive AND of
    /// the full list leaves.
    ///
    /// The kernel only reads later rows inside the mask's live word window,
    /// so the cases that would expose a wrong window are forced: a row that
    /// is zero outside one (usually interior) word planted anywhere in the
    /// list, collapsing the mask to that word while the rows after it stay
    /// dense everywhere else — they differ from a zero-padded copy only
    /// outside the window, and the naive AND still reads them whole; and a
    /// mask that *enters* with zero words, at both ends or everywhere but
    /// one word.
    #[test]
    fn kernel_gather_and_bit_identical(
        width in 1usize..=24,
        picks in proptest::collection::vec(0usize..5, 0..14),
        kill_at in 0usize..18,
        collapse_at in 0usize..18,
        focus in 0usize..24,
        dst_shape in 0u32..3,
        seed in any::<u64>(),
        sparsify in 0u32..3,
    ) {
        let focus = focus % width;
        // Rows 0..5 are fuzzed, row 5 is all-zero, row 6 is all-ones in word
        // `focus` and zero elsewhere; `picks` repeats rows.
        let mut words = sparse_words(seed, 5 * width, sparsify);
        words.extend(std::iter::repeat_n(0u64, 2 * width));
        words[6 * width + focus] = u64::MAX;
        let mut offsets: Vec<usize> = picks.iter().map(|&r| r * width).collect();
        if let Some(slot) = offsets.get_mut(collapse_at) {
            *slot = 6 * width;
        }
        if let Some(slot) = offsets.get_mut(kill_at) {
            *slot = 5 * width;
        }
        let mut base = sparse_words(seed ^ 0xABCD, width, 0);
        match dst_shape {
            0 => {}
            // Zero words at both ends.
            1 => {
                let edge = width / 3;
                base[..edge].fill(0);
                base[width - edge..].fill(0);
            }
            // One live word, not the one the collapsing row keeps (unless
            // the width leaves no choice).
            _ => {
                let keep = (focus + width / 2) % width;
                for (i, w) in base.iter_mut().enumerate() {
                    if i != keep {
                        *w = 0;
                    }
                }
            }
        }
        let mut expect = base.clone();
        for &o in &offsets {
            and_into_scalar(&mut expect, &words[o..o + width]);
        }
        let mut got = base.clone();
        let live = kernel::and_gather_rows_into_any(&mut got, &words, &offsets);
        prop_assert_eq!(&got, &expect, "on {:?}", offsets);
        prop_assert_eq!(live, expect.iter().any(|&w| w != 0), "liveness");
    }

    /// OR, popcount and any must equal their per-word definitions on fuzzed
    /// words (the intersection walk and fill statistics depend on these
    /// three): `|=` per word, a sum of `count_ones`, and `iter().any`.
    #[test]
    fn kernel_or_popcount_any_bit_identical(
        len in 0usize..600,
        seed in any::<u64>(),
        sparsify in 0u32..4,
    ) {
        let a = sparse_words(seed, len, sparsify);
        let b = sparse_words(seed ^ 0x5555, len, sparsify);
        let mut expect = a.clone();
        for (x, y) in expect.iter_mut().zip(&b) {
            *x |= y;
        }
        let mut got = a.clone();
        kernel::or_into(&mut got, &b);
        prop_assert_eq!(&got, &expect, "or_into");
        for words in [&a, &got] {
            let naive: usize = words.iter().map(|w| w.count_ones() as usize).sum();
            prop_assert_eq!(kernel::popcount(words), naive);
            prop_assert_eq!(kernel::any(words), words.iter().any(|&w| w != 0));
        }
    }

    /// The bit-sliced column counters must produce the naive per-column
    /// counts (fuzzed row width, row count and density), whether rows
    /// arrive one by one or in bulk through the carry-save blocks of
    /// `add_rows`, also on a counter `reset` from another width; and
    /// `at_least` must be the bitmap of `count ≥ t`.
    #[test]
    fn kernel_column_counts_bit_identical(
        width in 1usize..8,
        n_rows in 0usize..70,
        threshold in 0usize..80,
        seed in any::<u64>(),
        sparsify in 0u32..4,
    ) {
        let rows: Vec<u64> = (0..n_rows)
            .flat_map(|i| sparse_words(seed ^ (i as u64 * 31), width, sparsify))
            .collect();
        let mut expect = vec![0usize; width * 64];
        for row in rows.chunks_exact(width) {
            for (c, count) in expect.iter_mut().enumerate() {
                *count += ((row[c / 64] >> (c % 64)) & 1) as usize;
            }
        }
        let passing: Vec<u64> = expect
            .chunks_exact(64)
            .map(|cs| cs.iter().enumerate().fold(0, |w, (b, &c)| w | u64::from(c >= threshold) << b))
            .collect();
        let mut one_by_one = ColumnCounter::new(width);
        for row in rows.chunks_exact(width) {
            one_by_one.add_row(row);
        }
        prop_assert_eq!(&one_by_one.counts(), &expect, "add_row");

        // A counter that held other counts at another width, reused.
        let mut bulk = ColumnCounter::new(width + 1);
        bulk.add_rows(&sparse_words(seed, 9 * (width + 1), 0));
        bulk.reset(width);
        bulk.add_rows(&rows);
        prop_assert_eq!(&bulk.counts(), &expect, "add_rows");
        let mut got = vec![u64::MAX; width];
        bulk.at_least(threshold, &mut got);
        prop_assert_eq!(&got, &passing, "at_least {}", threshold);
    }

    #[test]
    fn rrr_equals_dense((len, ones) in bits_strategy(4000)) {
        let dense = BitVec::from_ones(len, ones);
        let rrr = RrrVec::from_bitvec(&dense);
        prop_assert_eq!(rrr.len(), dense.len());
        prop_assert_eq!(rrr.count_ones(), dense.count_ones());
        let mut rank = 0usize;
        for i in 0..len {
            if i % 7 == 0 {
                prop_assert_eq!(rrr.get(i), dense.get(i), "get({})", i);
                prop_assert_eq!(rrr.rank1(i), rank, "rank1({})", i);
            }
            rank += usize::from(dense.get(i));
        }
        prop_assert_eq!(rrr.rank1(len), rank);
    }

    /// `WordView::new` — the gate in front of the crate's one `unsafe`
    /// cast — must refuse exactly the windows that overrun the buffer or
    /// start off an 8-byte boundary in memory (and every window on a
    /// big-endian target); every window it accepts must read back as the
    /// little-endian decode of its bytes.
    #[test]
    fn word_view_accepts_exactly_aligned_in_bounds_windows(
        bytes in proptest::collection::vec(any::<u8>(), 0..256),
        start in 0usize..300,
        words in 0usize..40,
    ) {
        let buf: Arc<[u8]> = bytes.into();
        let end = start + words * 8;
        let aligned = (buf.as_ptr() as usize + start).is_multiple_of(8);
        let little_endian = 1u64.to_le() == 1;
        let view = WordView::new(buf.clone(), start, words);
        prop_assert_eq!(view.is_ok(), end <= buf.len() && aligned && little_endian);
        if let Ok(view) = view {
            let expect: Vec<u64> = buf[start..end]
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
                .collect();
            prop_assert_eq!(view.as_words(), &expect[..]);
        }
    }
}
