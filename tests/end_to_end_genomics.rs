//! End-to-end genomics pipeline integration test: simulate genomes, sequence
//! them into FASTQ, parse the FASTQ back, extract k-mer sets (McCortex-like),
//! index with RAMBO, and verify queries against the exact inverted index —
//! the full Figure 1 workflow across five crates.

use rambo::baselines::InvertedIndex;
use rambo::core::{QueryContext, QueryMode, Rambo, RamboBuilder};
use rambo::kmer::sim::GenomeSimulator;
use rambo::kmer::{kmers_of, FastqReader, KmerSet};
use std::io::Cursor;

const K: usize = 31;

/// `(name, distinct packed k-mers)` per document.
type DocKmers = Vec<(String, Vec<u64>)>;
/// `(name, genome bases)` per simulated strain.
type Genomes = Vec<(String, Vec<u8>)>;

fn build_archive() -> (DocKmers, Genomes) {
    let mut sim = GenomeSimulator::new(77);
    let mut genomes = Vec::new();
    for f in 0..4 {
        let ancestor = sim.random_genome(4000);
        for (s, strain) in sim
            .derive_family(&ancestor, 3, 0.01)
            .into_iter()
            .enumerate()
        {
            genomes.push((format!("f{f}s{s}"), strain));
        }
    }
    let mut docs = Vec::new();
    for (name, genome) in &genomes {
        let reads = sim.simulate_reads(genome, 120, 8.0, 0.001);
        // Write + re-parse FASTQ to exercise the text format path.
        let mut buf = Vec::new();
        rambo::kmer::fastq::write_fastq(&mut buf, &reads).unwrap();
        let parsed: Vec<_> = FastqReader::new(Cursor::new(buf))
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(parsed.len(), reads.len());
        let set = KmerSet::from_sequences(parsed.iter().map(|r| r.seq.as_slice()), K, false);
        // Roundtrip the McCortex-like binary format too.
        let mut bin = Vec::new();
        set.write_to(&mut bin).unwrap();
        let set = KmerSet::read_from(&bin[..]).unwrap();
        docs.push((name.clone(), set.kmers().to_vec()));
    }
    (docs, genomes)
}

fn build_index(docs: &[(String, Vec<u64>)]) -> Rambo {
    let mean = docs.iter().map(|(_, t)| t.len()).sum::<usize>() / docs.len();
    let mut index = RamboBuilder::new()
        .expected_documents(docs.len())
        .expected_terms_per_doc(mean)
        .expected_multiplicity(3)
        .target_fpr(0.01)
        .seed(3)
        .build()
        .unwrap();
    for (name, terms) in docs {
        index.insert_document(name, terms.iter().copied()).unwrap();
    }
    index
}

#[test]
fn rambo_is_superset_of_inverted_index_on_real_pipeline() {
    let (docs, _) = build_archive();
    let index = build_index(&docs);
    let oracle = InvertedIndex::build(&docs);

    // Sample k-mers from every document.
    for (d, (_, terms)) in docs.iter().enumerate() {
        for &t in terms.iter().step_by(terms.len() / 5 + 1) {
            let truth = oracle.postings(t);
            let got = index.query_u64(t);
            assert!(got.contains(&(d as u32)));
            for want in truth {
                assert!(got.contains(want), "missing doc {want} for kmer {t:#x}");
            }
        }
    }
}

#[test]
fn sequence_queries_find_source_genome() {
    let (docs, genomes) = build_archive();
    let index = build_index(&docs);
    let mut ctx = QueryContext::new();
    for target in [0usize, 5, 11] {
        let fragment = &genomes[target].1[1000..1300];
        let kmers: Vec<u64> = kmers_of(fragment, K, false).collect();
        let hits = index.query_sequence_theta(&kmers, 0.8, QueryMode::Full, &mut ctx);
        let names = index.resolve_names(&hits);
        assert!(
            names.contains(&genomes[target].0.as_str()),
            "fragment of {} not found (got {names:?})",
            genomes[target].0
        );
    }
}

#[test]
fn index_survives_serialization_and_folding() {
    let (docs, genomes) = build_archive();
    let index = build_index(&docs);
    let bytes = index.to_bytes().unwrap();
    let mut reloaded = Rambo::from_bytes(&bytes).unwrap();
    assert_eq!(index, reloaded);

    // Fold as far as legal; every fold must retain the owner.
    let probe: Vec<u64> = kmers_of(&genomes[2].1[500..600], K, false).collect();
    let owner = reloaded.document_id("f0s2").unwrap();
    loop {
        let mut ctx = QueryContext::new();
        let hits = reloaded.query_sequence_theta(&probe, 0.8, QueryMode::Full, &mut ctx);
        assert!(
            hits.contains(&owner),
            "owner lost at fold factor {}",
            reloaded.fold_factor()
        );
        if reloaded.fold_once().is_err() {
            break;
        }
    }
    assert!(reloaded.fold_factor() >= 1, "at least one fold exercised");
}

#[test]
fn canonical_kmers_unify_strands() {
    let (_, genomes) = build_archive();
    let genome = &genomes[0].1;
    let rc = rambo::kmer::revcomp_seq(genome);
    let fwd = KmerSet::from_sequence(genome, K, true);
    let rev = KmerSet::from_sequence(&rc, K, true);
    assert_eq!(fwd, rev, "canonical k-mer sets must be strand-invariant");
}
