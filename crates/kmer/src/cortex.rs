//! McCortex-like binary k-mer-set format.
//!
//! The paper's fastest ingestion path uses the McCortex format (Turner et
//! al., reference \[32\]): "a filtered set of k-mers that omits low-frequency
//! errors from the sequencing instruments", noting that "insertion from
//! McCortex format is blazing fast and preferred as it has unique and
//! filtered k-mers" (§5.2).
//!
//! Real McCortex files carry de-Bruijn-graph edge/coverage metadata that the
//! index never reads; what RAMBO consumes is exactly *the distinct k-mer set
//! of a document*. Our format stores that and nothing else: sorted, distinct,
//! 2-bit-packed k-mers behind a validated header (see DESIGN.md,
//! "Substitutions" item 2).

use crate::encode::kmer_mask;
use crate::iter::kmers_of;
use crate::MAX_K;
use bytes::{Buf, BufMut};
use std::io::{self, Read, Write};

const MAGIC: &[u8; 4] = b"RKMC";
const VERSION: u8 = 1;

/// A document's distinct k-mer set (sorted ascending).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct KmerSet {
    k: u8,
    kmers: Vec<u64>,
}

impl KmerSet {
    /// Build from arbitrary packed k-mers: sorts and deduplicates (the
    /// "filtering" step that makes McCortex ingestion cheap for the index).
    ///
    /// # Panics
    /// Panics if `k` is zero or exceeds [`MAX_K`], or if any k-mer has bits
    /// above `2k`.
    #[must_use]
    pub fn from_kmers(k: usize, kmers: impl IntoIterator<Item = u64>) -> Self {
        assert!((1..=MAX_K).contains(&k), "k must be in 1..={MAX_K}");
        let mask = kmer_mask(k);
        let mut v: Vec<u64> = kmers.into_iter().collect();
        for &km in &v {
            assert!(km & !mask == 0, "k-mer {km:#x} has bits beyond 2k");
        }
        v.sort_unstable();
        v.dedup();
        Self {
            k: k as u8,
            kmers: v,
        }
    }

    /// Extract the distinct k-mer set of one sequence.
    #[must_use]
    pub fn from_sequence(seq: &[u8], k: usize, canonical: bool) -> Self {
        Self::from_kmers(k, kmers_of(seq, k, canonical))
    }

    /// Extract the distinct k-mer set of many sequences (e.g. all reads of a
    /// FASTQ file).
    #[must_use]
    pub fn from_sequences<'a>(
        seqs: impl IntoIterator<Item = &'a [u8]>,
        k: usize,
        canonical: bool,
    ) -> Self {
        Self::from_kmers(
            k,
            seqs.into_iter()
                .flat_map(|s| kmers_of(s, k, canonical).collect::<Vec<_>>()),
        )
    }

    /// k-mer length.
    #[must_use]
    pub fn k(&self) -> usize {
        usize::from(self.k)
    }

    /// Number of distinct k-mers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.kmers.len()
    }

    /// True when the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.kmers.is_empty()
    }

    /// The sorted k-mers.
    #[must_use]
    pub fn kmers(&self) -> &[u64] {
        &self.kmers
    }

    /// Binary-search membership test.
    #[must_use]
    pub fn contains(&self, kmer: u64) -> bool {
        self.kmers.binary_search(&kmer).is_ok()
    }

    /// Merge another set (same `k`) into this one.
    ///
    /// # Panics
    /// Panics if the k values differ.
    pub fn merge(&mut self, other: &Self) {
        assert_eq!(self.k, other.k, "cannot merge k-mer sets of different k");
        let mut merged = Vec::with_capacity(self.kmers.len() + other.kmers.len());
        merged.extend_from_slice(&self.kmers);
        merged.extend_from_slice(&other.kmers);
        merged.sort_unstable();
        merged.dedup();
        self.kmers = merged;
    }

    /// Serialize: magic, version, k, count, packed k-mers.
    ///
    /// # Errors
    /// Propagates I/O errors.
    pub fn write_to<W: Write>(&self, mut out: W) -> io::Result<()> {
        let mut header = Vec::with_capacity(14);
        header.put_slice(MAGIC);
        header.put_u8(VERSION);
        header.put_u8(self.k);
        header.put_u64_le(self.kmers.len() as u64);
        out.write_all(&header)?;
        let mut buf = Vec::with_capacity(8 * 1024);
        for chunk in self.kmers.chunks(1024) {
            buf.clear();
            for &km in chunk {
                buf.put_u64_le(km);
            }
            out.write_all(&buf)?;
        }
        Ok(())
    }

    /// Deserialize and validate (magic, version, k range, sortedness,
    /// distinctness, k-mer bit width).
    ///
    /// # Errors
    /// `InvalidData` on any violation; propagates I/O errors.
    pub fn read_from<R: Read>(mut input: R) -> io::Result<Self> {
        let mut header = [0u8; 14];
        input.read_exact(&mut header)?;
        let mut h = &header[..];
        let mut magic = [0u8; 4];
        h.copy_to_slice(&mut magic);
        let bad = |msg: &str| io::Error::new(io::ErrorKind::InvalidData, msg.to_string());
        if &magic != MAGIC {
            return Err(bad("bad k-mer set magic"));
        }
        if h.get_u8() != VERSION {
            return Err(bad("unsupported k-mer set version"));
        }
        let k = h.get_u8();
        if k == 0 || usize::from(k) > MAX_K {
            return Err(bad("k out of range"));
        }
        let count = usize::try_from(h.get_u64_le()).map_err(|_| bad("count overflow"))?;
        let mask = kmer_mask(usize::from(k));
        let mut kmers = Vec::with_capacity(count.min(1 << 24));
        let mut word = [0u8; 8];
        let mut prev: Option<u64> = None;
        for _ in 0..count {
            input.read_exact(&mut word)?;
            let km = u64::from_le_bytes(word);
            if km & !mask != 0 {
                return Err(bad("k-mer wider than 2k bits"));
            }
            if let Some(p) = prev {
                if km <= p {
                    return Err(bad("k-mers not strictly ascending"));
                }
            }
            prev = Some(km);
            kmers.push(km);
        }
        Ok(Self { k, kmers })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encode::pack_kmer;

    #[test]
    fn from_kmers_sorts_and_dedups() {
        let s = KmerSet::from_kmers(4, [9u64, 3, 9, 1, 3]);
        assert_eq!(s.kmers(), &[1, 3, 9]);
        assert_eq!(s.len(), 3);
        assert!(s.contains(3));
        assert!(!s.contains(4));
    }

    #[test]
    fn from_sequence_matches_manual_extraction() {
        let s = KmerSet::from_sequence(b"ACGTACGT", 4, false);
        // Windows: ACGT CGTA GTAC TACG ACGT → 4 distinct.
        assert_eq!(s.len(), 4);
        assert!(s.contains(pack_kmer(b"ACGT").unwrap()));
        assert!(s.contains(pack_kmer(b"TACG").unwrap()));
    }

    #[test]
    fn from_sequences_unions_reads() {
        let reads: Vec<&[u8]> = vec![b"ACGTA", b"GGGGG"];
        let s = KmerSet::from_sequences(reads, 5, false);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn merge_unions() {
        let mut a = KmerSet::from_kmers(4, [1u64, 5]);
        let b = KmerSet::from_kmers(4, [5u64, 7]);
        a.merge(&b);
        assert_eq!(a.kmers(), &[1, 5, 7]);
    }

    #[test]
    fn io_roundtrip() {
        let s = KmerSet::from_sequence(&b"GATTACA".repeat(20), 7, false);
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        assert_eq!(buf.len(), 14 + s.len() * 8, "14-byte header + 8 per k-mer");
        let back = KmerSet::read_from(&buf[..]).unwrap();
        assert_eq!(s, back);
    }

    #[test]
    fn io_rejects_corruption() {
        let s = KmerSet::from_kmers(4, [1u64, 2, 3]);
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();

        let mut bad_magic = buf.clone();
        bad_magic[0] = b'X';
        assert!(KmerSet::read_from(&bad_magic[..]).is_err());

        // Unsorted payload: swap two k-mers.
        let mut unsorted = buf.clone();
        let (a, b) = (14, 22);
        for i in 0..8 {
            unsorted.swap(a + i, b + i);
        }
        assert!(KmerSet::read_from(&unsorted[..]).is_err());

        // Truncated payload.
        assert!(KmerSet::read_from(&buf[..buf.len() - 4]).is_err());
    }

    #[test]
    fn io_rejects_wide_kmers() {
        // Hand-craft a file with a k-mer exceeding 2k bits.
        let mut buf = Vec::new();
        buf.extend_from_slice(b"RKMC");
        buf.push(1); // version
        buf.push(2); // k = 2 → mask 0xF
        buf.extend_from_slice(&1u64.to_le_bytes()); // one k-mer
        buf.extend_from_slice(&0x100u64.to_le_bytes()); // too wide
        assert!(KmerSet::read_from(&buf[..]).is_err());
    }

    #[test]
    fn empty_set_roundtrip() {
        let s = KmerSet::from_kmers(31, std::iter::empty());
        assert!(s.is_empty());
        let mut buf = Vec::new();
        s.write_to(&mut buf).unwrap();
        assert_eq!(KmerSet::read_from(&buf[..]).unwrap(), s);
    }
}
