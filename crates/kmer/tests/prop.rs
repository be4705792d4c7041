//! Property-based tests for the genomics substrate.

use proptest::prelude::*;
use rambo_kmer::{
    canonical_kmer, kmers_of, pack_kmer, revcomp_kmer, revcomp_seq, unpack_kmer, FastaReader,
    FastaRecord, FastqReader, FastqRecord, KmerSet,
};
use std::io::Cursor;

fn dna(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(proptest::sample::select(vec![b'A', b'C', b'G', b'T']), len)
}

fn dna_with_n(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<u8>> {
    proptest::collection::vec(
        proptest::sample::select(vec![b'A', b'C', b'G', b'T', b'N']),
        len,
    )
}

proptest! {
    #[test]
    fn pack_unpack_roundtrip(seq in dna(1..32)) {
        let k = seq.len();
        let packed = pack_kmer(&seq).unwrap();
        prop_assert_eq!(unpack_kmer(packed, k), seq);
    }

    #[test]
    fn revcomp_involution(seq in dna(1..32)) {
        let k = seq.len();
        let packed = pack_kmer(&seq).unwrap();
        prop_assert_eq!(revcomp_kmer(revcomp_kmer(packed, k), k), packed);
        // Packed revcomp agrees with string-level revcomp.
        prop_assert_eq!(
            unpack_kmer(revcomp_kmer(packed, k), k),
            revcomp_seq(&seq)
        );
    }

    #[test]
    fn canonical_agrees_between_strands(seq in dna(1..32)) {
        let k = seq.len();
        let fwd = pack_kmer(&seq).unwrap();
        let rev = pack_kmer(&revcomp_seq(&seq)).unwrap();
        prop_assert_eq!(canonical_kmer(fwd, k), canonical_kmer(rev, k));
    }

    #[test]
    fn extraction_matches_windows(seq in dna_with_n(0..200), k in 1usize..16) {
        let got: Vec<u64> = kmers_of(&seq, k, false).collect();
        let expect: Vec<u64> = seq.windows(k).filter_map(pack_kmer).collect();
        prop_assert_eq!(got, expect);
    }

    /// The rolling extractor (forward and reverse-complement windows, table
    /// decode) emits exactly the definition: every window without a
    /// non-ACGT byte, packed, then canonicalised from scratch. Input mixes
    /// both cases of ACGT with `N`, other IUPAC codes and arbitrary bytes,
    /// sparse enough that windows up to k = 31 survive between them.
    #[test]
    fn rolling_extraction_matches_definition(
        bases in proptest::collection::vec(proptest::sample::select(b"ACGTacgt".to_vec()), 0..300),
        breaks in proptest::collection::vec(
            (any::<proptest::sample::Index>(), any::<u8>(), proptest::sample::select(b"NnRYKMSWx-\n".to_vec())),
            0..6,
        ),
        k in 1usize..=31,
        canonical in any::<bool>(),
    ) {
        let mut seq = bases;
        for (at, byte, iupac) in breaks {
            if !seq.is_empty() {
                let at = at.index(seq.len());
                seq[at] = if byte % 2 == 0 { iupac } else { byte };
            }
        }
        let got: Vec<u64> = kmers_of(&seq, k, canonical).collect();
        let expect: Vec<u64> = seq
            .windows(k)
            .filter_map(pack_kmer)
            .map(|x| if canonical { canonical_kmer(x, k) } else { x })
            .collect();
        prop_assert_eq!(got, expect, "k={} canonical={}", k, canonical);
    }

    #[test]
    fn kmer_set_contains_exactly_extracted(seq in dna(10..200), k in 1usize..12) {
        let set = KmerSet::from_sequence(&seq, k, false);
        for km in kmers_of(&seq, k, false) {
            prop_assert!(set.contains(km));
        }
        // Sortedness and distinctness invariants.
        let ks = set.kmers();
        prop_assert!(ks.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn kmer_set_io_roundtrip(seq in dna(0..300), k in 1usize..16) {
        let set = KmerSet::from_sequence(&seq, k, false);
        let mut buf = Vec::new();
        set.write_to(&mut buf).unwrap();
        prop_assert_eq!(KmerSet::read_from(&buf[..]).unwrap(), set);
    }

    #[test]
    fn fasta_roundtrip(
        ids in proptest::collection::vec("[A-Za-z0-9_. -]{1,20}", 1..6),
        seqs in proptest::collection::vec(dna(0..150), 1..6),
    ) {
        let records: Vec<FastaRecord> = ids
            .iter()
            .zip(&seqs)
            .map(|(id, seq)| FastaRecord { id: id.trim().to_string(), seq: seq.clone() })
            .collect();
        let mut buf = Vec::new();
        rambo_kmer::fasta::write_fasta(&mut buf, &records).unwrap();
        let parsed: Vec<FastaRecord> =
            FastaReader::new(Cursor::new(buf)).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(parsed, records);
    }

    #[test]
    fn fastq_roundtrip(
        ids in proptest::collection::vec("[A-Za-z0-9_/]{1,20}", 1..6),
        seqs in proptest::collection::vec(dna(1..150), 1..6),
    ) {
        let records: Vec<FastqRecord> = ids
            .iter()
            .zip(&seqs)
            .map(|(id, seq)| FastqRecord {
                id: id.clone(),
                qual: vec![b'I'; seq.len()],
                seq: seq.clone(),
            })
            .collect();
        let mut buf = Vec::new();
        rambo_kmer::fastq::write_fastq(&mut buf, &records).unwrap();
        let parsed: Vec<FastqRecord> =
            FastqReader::new(Cursor::new(buf)).collect::<Result<_, _>>().unwrap();
        prop_assert_eq!(parsed, records);
    }
}
