//! Cross-index agreement on one shared archive: every structure in the
//! Table 2 suite must return a superset of the exact answer, and the
//! structures' false-positive behaviour must stay within their design
//! budgets. This is the integration-level contract behind every comparison
//! table in EXPERIMENTS.md.

use rambo::baselines::{
    BitSlicedIndex, CompactBitSliced, InvertedIndex, MembershipIndex, RamboIndex, Sbt, SplitSbt,
};
use rambo::core::{Rambo, RamboParams};
use rambo::workloads::{ArchiveParams, PlantedQueries, SyntheticArchive};

fn archive_with_queries() -> (Vec<(String, Vec<u64>)>, PlantedQueries) {
    let mut p = ArchiveParams::tiny(120, 42);
    p.mean_terms = 250;
    p.std_terms = 100;
    let mut archive = SyntheticArchive::generate(&p);
    let planted = PlantedQueries::generate(150, archive.len(), 10.0, 9);
    planted.plant_into(&mut archive.docs);
    (archive.docs, planted)
}

fn suite(docs: &[(String, Vec<u64>)]) -> Vec<Box<dyn MembershipIndex>> {
    let mut rambo = Rambo::new(RamboParams::flat(24, 3, 1 << 16, 2, 5)).unwrap();
    for (name, terms) in docs {
        rambo.insert_document(name, terms.iter().copied()).unwrap();
    }
    let m_tree =
        rambo::bloom::params::optimal_m(docs.iter().map(|(_, t)| t.len()).max().unwrap(), 0.01);
    vec![
        Box::new(RamboIndex::new(rambo)),
        Box::new(BitSlicedIndex::build_auto(docs, 0.01, 3, 5)),
        Box::new(CompactBitSliced::build(docs, 16, 0.01, 3, 5)),
        Box::new(Sbt::build(docs, m_tree, 1, 5)),
        Box::new(SplitSbt::build(docs, m_tree, 1, 5, false)),
        Box::new(SplitSbt::build(docs, m_tree, 1, 5, true)),
    ]
}

#[test]
fn every_index_contains_planted_truth() {
    let (docs, planted) = archive_with_queries();
    let indexes = suite(&docs);
    for idx in &indexes {
        // `measure` panics on any false negative, so this asserts the
        // superset property for every planted query at once.
        let m = planted.measure(docs.len(), |t| idx.query_term(t));
        assert_eq!(m.queries, planted.len());
        // All approximate structures run comfortably below 50% per-doc FPR
        // at these budgets; the exact one reports zero.
        let rate = m.per_doc_rate();
        assert!(rate < 0.5, "{}: per-doc FPR {rate}", idx.label());
    }
}

#[test]
fn exact_index_agrees_with_itself_and_bounds_everyone() {
    let (docs, planted) = archive_with_queries();
    let oracle = InvertedIndex::build(&docs);
    let m = planted.measure(docs.len(), |t| oracle.query_term(t));
    assert_eq!(m.false_positives, 0, "inverted index must be exact");

    // Archive terms (not planted): compare each index against the oracle.
    let indexes = suite(&docs);
    for (d, (_, terms)) in docs.iter().enumerate().step_by(17) {
        for &t in terms.iter().take(3) {
            let truth = oracle.postings(t);
            assert!(truth.contains(&(d as u32)));
            for idx in &indexes {
                let got = idx.query_term(t);
                for want in truth {
                    assert!(
                        got.contains(want),
                        "{} dropped doc {want} for archive term {t:#x}",
                        idx.label()
                    );
                }
            }
        }
    }
}

#[test]
fn multi_term_conjunctions_agree() {
    let (docs, _) = archive_with_queries();
    let oracle = InvertedIndex::build(&docs);
    let indexes = suite(&docs);
    for d in (0..docs.len()).step_by(23) {
        let q: Vec<u64> = docs[d].1.iter().take(4).copied().collect();
        let truth = oracle.query_terms(&q);
        assert!(truth.contains(&(d as u32)));
        for idx in &indexes {
            let got = idx.query_terms(&q);
            for want in &truth {
                assert!(
                    got.contains(want),
                    "{} dropped doc {want} on conjunction",
                    idx.label()
                );
            }
        }
    }
}

#[test]
fn size_ordering_matches_paper_shape() {
    // RAMBO within a small factor of COBS; plain SBT far larger; the
    // RRR-compressed split tree smaller than the dense one.
    let (docs, _) = archive_with_queries();
    let indexes = suite(&docs);
    let size_of = |label: &str| {
        indexes
            .iter()
            .find(|i| i.label() == label)
            .map(|i| i.size_bytes())
            .unwrap()
    };
    let rambo = size_of("RAMBO");
    let cobs = size_of("COBS");
    let bigsi = size_of("COBS(uniform)");
    let sbt = size_of("SBT");
    let ssbt = size_of("SSBT");
    let howde = size_of("HowDeSBT~");
    assert!(rambo < cobs * 16, "RAMBO {rambo} vs COBS {cobs}");
    // A tree stores 2K−1 filters of the same m the uniform bit-sliced index
    // uses for its K columns → ≈2x the bits (word-padding effects aside).
    assert!(
        sbt > bigsi * 3 / 2,
        "trees pay per-node filters: SBT {sbt} vs BIGSI {bigsi}"
    );
    assert!(howde < ssbt, "RRR compression must shrink the split tree");
}
