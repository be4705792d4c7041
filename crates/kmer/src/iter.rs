//! Sliding-window k-mer extraction (Figure 1 of the paper).
//!
//! The iterator maintains a rolling packed k-mer: each new base shifts the
//! window by one (`O(1)` per position, `O(n)` per sequence). Ambiguous bases
//! (anything outside ACGT) reset the window, so no emitted k-mer spans an
//! `N` — matching how BIGSI/COBS/McCortex treat ambiguity codes.
//!
//! The reverse complement rolls alongside the forward window, entering at
//! the top instead of the bottom, so a canonical k-mer costs one `min` per
//! position rather than a full [`crate::canonical_kmer`].

use crate::encode::{encode_base, kmer_mask};
use crate::MAX_K;

/// [`encode_base`] as a table: the 2-bit code of every byte, or
/// [`NOT_A_BASE`].
const BASE_CODE: [u8; 256] = {
    let mut table = [NOT_A_BASE; 256];
    let mut b = 0;
    while b < 256 {
        if let Some(code) = encode_base(b as u8) {
            table[b] = code;
        }
        b += 1;
    }
    table
};

const NOT_A_BASE: u8 = 4;

/// Iterator over the packed k-mers of a sequence. See [`kmers_of`].
pub struct KmerIter<'a> {
    seq: &'a [u8],
    k: usize,
    mask: u64,
    pos: usize,
    /// The window, first base most significant.
    fwd: u64,
    /// Its reverse complement: each new base enters complemented at bit
    /// `rc_shift` while the oldest falls off the bottom.
    rc: u64,
    rc_shift: u32,
    /// Number of consecutive valid bases ending just before `pos`.
    run: usize,
    canonical: bool,
}

impl<'a> KmerIter<'a> {
    fn new(seq: &'a [u8], k: usize, canonical: bool) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        Self {
            seq,
            k,
            mask: kmer_mask(k),
            pos: 0,
            fwd: 0,
            rc: 0,
            rc_shift: 2 * (k as u32 - 1),
            run: 0,
            canonical,
        }
    }
}

impl Iterator for KmerIter<'_> {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        while let Some(&b) = self.seq.get(self.pos) {
            self.pos += 1;
            let code = BASE_CODE[usize::from(b)];
            if code == NOT_A_BASE {
                self.run = 0;
                continue;
            }
            let code = u64::from(code);
            self.fwd = ((self.fwd << 2) | code) & self.mask;
            self.rc = (self.rc >> 2) | ((code ^ 0b11) << self.rc_shift);
            self.run += 1;
            if self.run >= self.k {
                return Some(if self.canonical {
                    self.fwd.min(self.rc)
                } else {
                    self.fwd
                });
            }
        }
        None
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let remaining = self.seq.len() - self.pos;
        (0, Some(remaining + self.run.saturating_sub(self.k - 1)))
    }
}

/// All packed k-mers of `seq` in order, one per window position.
///
/// ```
/// use rambo_kmer::kmers_of;
/// let kmers: Vec<u64> = kmers_of(b"ACGTA", 3, false).collect();
/// assert_eq!(kmers.len(), 3); // ACG, CGT, GTA
/// ```
#[must_use]
pub fn kmers_of(seq: &[u8], k: usize, canonical: bool) -> KmerIter<'_> {
    KmerIter::new(seq, k, canonical)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::pack_kmer;

    fn naive(seq: &[u8], k: usize) -> Vec<u64> {
        seq.windows(k).filter_map(pack_kmer).collect()
    }

    #[test]
    fn matches_naive_extraction() {
        let seq = b"GATTACAGATTACACCGGTT";
        for k in [1usize, 3, 5, 11] {
            let got: Vec<u64> = kmers_of(seq, k, false).collect();
            assert_eq!(got, naive(seq, k), "k={k}");
        }
    }

    #[test]
    fn window_count_formula() {
        // n - k + 1 windows on a clean sequence (the paper's "length-31
        // strings each shifted by 1 character").
        let seq = vec![b'A'; 100];
        assert_eq!(kmers_of(&seq, 31, false).count(), 70);
    }

    #[test]
    fn ambiguity_resets_window() {
        // No k-mer may span the N: "ACGNTAC" with k=3 yields ACG and TAC.
        let got: Vec<u64> = kmers_of(b"ACGNTAC", 3, false).collect();
        assert_eq!(
            got,
            vec![pack_kmer(b"ACG").unwrap(), pack_kmer(b"TAC").unwrap()]
        );
    }

    #[test]
    fn sequence_shorter_than_k_yields_nothing() {
        assert_eq!(kmers_of(b"ACG", 5, false).count(), 0);
        assert_eq!(kmers_of(b"", 3, false).count(), 0);
    }

    #[test]
    fn canonical_mode_strand_invariant() {
        let seq = b"GATTACAGATTACA";
        let rc = crate::encode::revcomp_seq(seq);
        let mut fwd: Vec<u64> = kmers_of(seq, 5, true).collect();
        let mut rev: Vec<u64> = kmers_of(&rc, 5, true).collect();
        fwd.sort_unstable();
        rev.sort_unstable();
        assert_eq!(fwd, rev, "canonical k-mer multisets must match strands");
    }

    #[test]
    fn lowercase_sequences_accepted() {
        let upper: Vec<u64> = kmers_of(b"ACGTACGT", 4, false).collect();
        let lower: Vec<u64> = kmers_of(b"acgtacgt", 4, false).collect();
        assert_eq!(upper, lower);
    }
}
