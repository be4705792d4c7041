//! Integration test of the §5.4 document-indexing pipeline: tokenizer →
//! term hashing → RAMBO and COBS, with the Zipf corpus's head/tail
//! document-frequency structure preserved end to end.

use rambo::baselines::{CompactBitSliced, InvertedIndex, MembershipIndex};
use rambo::core::{QueryMode, RamboBuilder};
use rambo::hash::murmur3_x64_64;
use rambo::text::{tokenize, CorpusParams, ZipfCorpus};

fn term_of(word: &str) -> u64 {
    murmur3_x64_64(word.as_bytes(), 1)
}

#[test]
fn tokenizer_to_index_roundtrip() {
    let pages = [
        ("a", "the quick brown fox jumps over the lazy dog"),
        ("b", "pack my box with five dozen liquor jugs"),
        ("c", "the five boxing wizards jump quickly"),
    ];
    let mut index = RamboBuilder::new()
        .expected_documents(3)
        .expected_terms_per_doc(10)
        .buckets(6)
        .repetitions(3)
        .seed(2)
        .build()
        .unwrap();
    for (name, text) in pages {
        let terms: Vec<u64> = tokenize(text).iter().map(|w| term_of(w)).collect();
        index.insert_document(name, terms).unwrap();
    }
    // Stop words were removed at both index and query time, so "the" finds
    // nothing; content words find their documents.
    assert!(index.query_u64(term_of("the")).is_empty());
    let five = index.resolve_names(&index.query_u64(term_of("five")));
    assert!(five.contains(&"b") && five.contains(&"c"));
    let fox = index.resolve_names(&index.query_u64(term_of("fox")));
    assert!(fox.contains(&"a"));
}

#[test]
fn zipf_corpus_document_frequencies_survive_indexing() {
    let corpus = ZipfCorpus::generate(&CorpusParams {
        docs: 300,
        vocab: 20_000,
        exponent: 1.05,
        mean_terms: 120,
        seed: 5,
    });
    let docs: Vec<(String, Vec<u64>)> = corpus
        .docs
        .iter()
        .map(|d| (d.name.clone(), d.terms.clone()))
        .collect();

    let mean = corpus.total_terms() / docs.len();
    let mut rambo = RamboBuilder::new()
        .expected_documents(docs.len())
        .expected_terms_per_doc(mean)
        .expected_multiplicity(16)
        .seed(6)
        .build()
        .unwrap();
    for (name, terms) in &docs {
        rambo.insert_document(name, terms.iter().copied()).unwrap();
    }
    let cobs = CompactBitSliced::build(&docs, 32, 0.01, 3, 6);
    let oracle = InvertedIndex::build(&docs);

    // Head terms: document frequency high; both indexes must cover it.
    for term in [0u64, 1, 2] {
        let truth = oracle.postings(term);
        assert!(truth.len() > docs.len() / 4, "term {term} should be hot");
        let r = rambo.query_u64(term);
        let c = cobs.query_term(term);
        for d in truth {
            assert!(r.contains(d), "RAMBO dropped hot term doc {d}");
            assert!(c.contains(d), "COBS dropped hot term doc {d}");
        }
    }
    // Tail terms: rare or absent; result sets must stay small.
    for term in [19_990u64, 19_995, 19_999] {
        let truth = oracle.postings(term).len();
        assert!(rambo.query_u64(term).len() <= truth + docs.len() / 10);
    }
}

#[test]
fn conjunctive_phrase_queries() {
    let corpus = ZipfCorpus::generate(&CorpusParams {
        docs: 150,
        vocab: 10_000,
        exponent: 1.05,
        mean_terms: 80,
        seed: 8,
    });
    let docs: Vec<(String, Vec<u64>)> = corpus
        .docs
        .iter()
        .map(|d| (d.name.clone(), d.terms.clone()))
        .collect();
    let oracle = InvertedIndex::build(&docs);
    let mut rambo = RamboBuilder::new()
        .expected_documents(150)
        .expected_terms_per_doc(80)
        .expected_multiplicity(8)
        .seed(9)
        .build()
        .unwrap();
    for (name, terms) in &docs {
        rambo.insert_document(name, terms.iter().copied()).unwrap();
    }
    // Conjunctions of a document's rarest terms pinpoint it.
    for d in (0..docs.len()).step_by(31) {
        let q: Vec<u64> = docs[d].1.iter().rev().take(3).copied().collect();
        let truth = oracle.query_terms(&q);
        let got = rambo.query_terms_u64(&q, QueryMode::Full);
        assert!(got.contains(&(d as u32)));
        for want in &truth {
            assert!(got.contains(want));
        }
    }
}
