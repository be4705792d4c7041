//! Genomic sequence search end-to-end: the paper's Figure 1 workflow.
//!
//! Simulates a microbial archive (genome families with shared ancestry),
//! sequences each genome into error-laden FASTQ reads, extracts 31-mers,
//! indexes them with RAMBO, and then answers sequence queries — including
//! for a strain *related but not identical* to an indexed one, the paper's
//! outbreak-tracking motivation.
//!
//! ```text
//! cargo run --release --example genome_search
//! ```

use rambo::baselines::{InvertedIndex, MembershipIndex};
use rambo::core::{IngestPipeline, QueryBatch, QueryContext, QueryMode, RamboBuilder};
use rambo::kmer::sim::GenomeSimulator;
use rambo::kmer::{kmers_of, KmerSet};

const K: usize = 31;
const GENOME_LEN: usize = 20_000;
const FAMILIES: usize = 10;
const STRAINS_PER_FAMILY: usize = 5;

fn main() {
    // --- 1. Simulate the archive: families of related strains ------------
    let mut sim = GenomeSimulator::new(2024);
    let mut genomes: Vec<(String, Vec<u8>)> = Vec::new();
    for f in 0..FAMILIES {
        let ancestor = sim.random_genome(GENOME_LEN);
        for (s, strain) in sim
            .derive_family(&ancestor, STRAINS_PER_FAMILY, 0.01)
            .into_iter()
            .enumerate()
        {
            genomes.push((format!("family{f}-strain{s}"), strain));
        }
    }
    println!("simulated {} genomes of {} bp", genomes.len(), GENOME_LEN);

    // --- 2. Sequence + extract k-mers (FASTQ -> McCortex-like sets) ------
    let mut sets: Vec<(String, KmerSet)> = Vec::new();
    for (name, genome) in &genomes {
        let reads = sim.simulate_reads(genome, 150, 6.0, 0.002);
        let set = KmerSet::from_sequences(reads.iter().map(|r| r.seq.as_slice()), K, false);
        sets.push((name.clone(), set));
    }
    let mean_kmers = sets.iter().map(|(_, s)| s.len()).sum::<usize>() / sets.len();
    println!("mean distinct {K}-mers per document: {mean_kmers}");
    let docs: Vec<(String, Vec<u64>)> = sets
        .iter()
        .map(|(name, set)| (name.clone(), set.kmers().to_vec()))
        .collect();

    // --- 3. Index with RAMBO (+ exact oracle for comparison) -------------
    // K-mer sets stream in through the ingestion pipeline: the calling
    // thread registers the next genomes while a worker pool hashes and
    // writes the earlier ones, one repetition of one batch per job (each
    // unique k-mer is still hashed once per repetition). A batch is handed
    // off once it holds 2^15 unique k-mers, so two of these genomes share
    // one hand-off.
    let mut index = RamboBuilder::new()
        .expected_documents(docs.len())
        .expected_terms_per_doc(mean_kmers)
        .expected_multiplicity(STRAINS_PER_FAMILY as u32)
        .target_fpr(0.01)
        .seed(7)
        .build()
        .expect("valid parameters");
    let report = IngestPipeline::new()
        .ingest(&mut index, docs.iter().cloned())
        .expect("unique names");
    println!(
        "pipelined ingest: {} documents, {} terms in {} hand-offs; caller stalled {}x, \
         workers {}x; landing {:.2} ms",
        report.docs,
        report.terms,
        report.batches,
        report.producer_stalls,
        report.writer_stalls,
        report.land_ns as f64 / 1e6
    );
    let oracle = InvertedIndex::build(&docs);
    println!(
        "RAMBO: B={} x R={}, {:.1} KB (exact inverted index: {:.1} KB)",
        index.buckets(),
        index.repetitions(),
        index.size_bytes() as f64 / 1e3,
        oracle.size_bytes() as f64 / 1e3,
    );

    // --- 4. Query a fragment of a known strain ---------------------------
    // The index holds k-mers from *reads*: coverage gaps and sequencing
    // errors mean a few percent of any genome fragment's k-mers are simply
    // not in the indexed set, so the strict all-terms intersection of §3.3.1
    // is too brittle here. We query with a θ-fraction threshold (θ = 0.8),
    // the same robustness mechanism the SBT family uses.
    let mut ctx = QueryContext::new();
    let target = 17; // family3-strain2
    let fragment = &genomes[target].1[5_000..5_400];
    let query_kmers: Vec<u64> = kmers_of(fragment, K, false).collect();
    let hits = index.query_sequence_theta(&query_kmers, 0.8, QueryMode::Full, &mut ctx);
    let names = index.resolve_names(&hits);
    println!("\nfragment of {} -> {:?}", genomes[target].0, names);
    assert!(
        names.contains(&genomes[target].0.as_str()),
        "zero false negatives: the owner must be found"
    );
    // Cross-check against the exact oracle under the same θ semantics: every
    // document truly containing ≥80% of the k-mers must be reported.
    let needed = (query_kmers.len() as f64 * 0.8).ceil() as usize;
    for d in 0..docs.len() as u32 {
        let truly = query_kmers
            .iter()
            .filter(|&&t| oracle.postings(t).binary_search(&d).is_ok())
            .count();
        if truly >= needed {
            assert!(
                hits.contains(&d),
                "RAMBO must return a superset of the truth"
            );
        }
    }

    // --- 5. Query an unseen outbreak strain (novel mutant) ---------------
    // A strain 0.2% diverged from an indexed one: most 31-mer windows are
    // intact, so the θ query still pins the family.
    let outbreak = sim.mutate(&genomes[target].1, 0.002);
    let fragment = &outbreak[8_000..8_400];
    let query_kmers: Vec<u64> = kmers_of(fragment, K, false).collect();
    let hits = index.query_sequence_theta(&query_kmers, 0.6, QueryMode::Full, &mut ctx);
    println!(
        "outbreak-strain fragment (0.2% diverged) -> {:?}",
        index.resolve_names(&hits)
    );

    // --- 6. And a fragment from a genome never sequenced -----------------
    let alien = GenomeSimulator::new(999).random_genome(1_000);
    let query_kmers: Vec<u64> = kmers_of(&alien[..200], K, false).collect();
    let hits = index.query_sequence_theta(&query_kmers, 0.6, QueryMode::Full, &mut ctx);
    println!("unrelated fragment -> {} hits (expect 0)", hits.len());

    // --- 7. Batch membership: which documents hold each probe k-mer? -----
    // One evaluator handle answers the whole batch on reused scratch.
    let probes: Vec<Vec<u64>> = genomes[target].1[5_000..5_200]
        .windows(K)
        .step_by(8)
        .filter_map(|w| kmers_of(w, K, false).next().map(|km| vec![km]))
        .collect();
    let mut batch = QueryBatch::new(&index);
    let results = batch.run(&probes, QueryMode::Full);
    let owner = index.document_id(&genomes[target].0).expect("indexed");
    let found = results.iter().filter(|r| r.contains(&owner)).count();
    println!(
        "batch membership: {found}/{} probe k-mers report the owner",
        probes.len()
    );
}
