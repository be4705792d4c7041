//! Cross-baseline property tests: every approximate index must return a
//! superset of the exact inverted index's answer (zero false negatives), for
//! random archives and random geometries. This is the contract that makes
//! the Table 2 comparison meaningful.

use proptest::prelude::*;
use rambo_baselines::{
    BitSlicedIndex, CompactBitSliced, InvertedIndex, MembershipIndex, RamboIndex, Sbt, SplitSbt,
};
use rambo_core::{Rambo, RamboParams};

fn archive_strategy() -> impl Strategy<Value = Vec<(String, Vec<u64>)>> {
    (2usize..14, 1usize..30, 0usize..8).prop_map(|(k, private, shared)| {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 32;
                let mut terms: Vec<u64> = (0..private as u64).map(|t| base | t).collect();
                terms.extend((0..shared as u64).map(|s| 0x5555_0000 + (s % 4)));
                terms.sort_unstable();
                terms.dedup();
                (format!("doc-{d}"), terms)
            })
            .collect()
    })
}

fn build_all(docs: &[(String, Vec<u64>)], seed: u64) -> Vec<Box<dyn MembershipIndex>> {
    let mut rambo = Rambo::new(RamboParams::flat(4, 2, 1 << 12, 2, seed)).unwrap();
    for (name, terms) in docs {
        rambo.insert_document(name, terms.iter().copied()).unwrap();
    }
    vec![
        Box::new(RamboIndex::new(rambo)),
        Box::new(BitSlicedIndex::build_auto(docs, 0.01, 3, seed)),
        Box::new(CompactBitSliced::build(docs, 4, 0.01, 3, seed)),
        Box::new(Sbt::build(docs, 1 << 12, 2, seed)),
        Box::new(SplitSbt::build(docs, 1 << 12, 2, seed, false)),
        Box::new(SplitSbt::build(docs, 1 << 12, 2, seed, true)),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Single-term answers: superset of ground truth for every index.
    #[test]
    fn all_indexes_contain_ground_truth(
        docs in archive_strategy(),
        seed in any::<u64>(),
    ) {
        let truth = InvertedIndex::build(&docs);
        let indexes = build_all(&docs, seed);
        for (_, terms) in &docs {
            for &t in terms.iter().take(3) {
                let exact = truth.postings(t);
                for idx in &indexes {
                    let got = idx.query_term(t);
                    for d in exact {
                        prop_assert!(
                            got.contains(d),
                            "{} dropped doc {} for term {:#x}",
                            idx.label(), d, t
                        );
                    }
                    // Ascending ids.
                    prop_assert!(got.windows(2).all(|w| w[0] < w[1]));
                }
            }
        }
    }

    /// Multi-term answers: same superset contract under conjunctions.
    #[test]
    fn multi_term_contains_ground_truth(
        docs in archive_strategy(),
        seed in any::<u64>(),
    ) {
        let truth = InvertedIndex::build(&docs);
        let indexes = build_all(&docs, seed);
        for (d, (_, terms)) in docs.iter().enumerate() {
            let q: Vec<u64> = terms.iter().take(3).copied().collect();
            let exact = truth.query_terms(&q);
            prop_assert!(exact.contains(&(d as u32)), "oracle broken");
            for idx in &indexes {
                let got = idx.query_terms(&q);
                for doc in &exact {
                    prop_assert!(
                        got.contains(doc),
                        "{} dropped doc {} for joint query",
                        idx.label(), doc
                    );
                }
            }
        }
    }

    /// Absent terms: the exact index returns nothing; approximate ones may
    /// return few spurious docs but must not blow up.
    #[test]
    fn absent_terms_bounded_false_positives(
        docs in archive_strategy(),
        seed in any::<u64>(),
        probes in proptest::collection::vec(0xFFFF_0000_0000u64..0xFFFF_0000_1000, 5..15),
    ) {
        let truth = InvertedIndex::build(&docs);
        let indexes = build_all(&docs, seed);
        for t in probes {
            prop_assert!(truth.query_term(t).is_empty());
            for idx in &indexes {
                let fp = idx.query_term(t).len();
                prop_assert!(
                    fp <= docs.len(),
                    "{} returned {} docs for an absent term", idx.label(), fp
                );
            }
        }
    }
}
