//! The exact inverted index — Table 1's classical comparator and the ground
//! truth oracle for every false-positive measurement in this repository.
//!
//! The paper notes (Table 1) that inverted indexes have the best possible
//! query time but "enormous construction time, impractical for bigger
//! datasets": every distinct term must be materialized with its posting
//! list. At our synthetic scales that cost is affordable, which is exactly
//! why it can serve as the oracle.

use crate::traits::MembershipIndex;
use rambo_hash::FastMap;

/// Exact term → posting-list index over `u64` terms.
#[derive(Debug, Default, Clone)]
pub struct InvertedIndex {
    map: FastMap<u64, Vec<u32>>,
    ndocs: usize,
}

impl InvertedIndex {
    /// Empty index.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Build from a batch of documents.
    #[must_use]
    pub fn build(docs: &[(String, Vec<u64>)]) -> Self {
        let mut idx = Self::new();
        for (_, terms) in docs {
            idx.push_document(terms.iter().copied());
        }
        idx
    }

    /// Append one document (ids issued in insertion order). Duplicate terms
    /// within a document are recorded once.
    pub fn push_document(&mut self, terms: impl IntoIterator<Item = u64>) -> u32 {
        let id = u32::try_from(self.ndocs).expect("doc count exceeds u32");
        for term in terms {
            let posting = self.map.entry(term).or_default();
            if posting.last() != Some(&id) {
                posting.push(id);
            }
        }
        self.ndocs += 1;
        id
    }

    /// Exact posting list for a term (ascending ids; empty if absent).
    #[must_use]
    pub fn postings(&self, term: u64) -> &[u32] {
        self.map.get(&term).map_or(&[], Vec::as_slice)
    }

    /// Document frequency of a term — the multiplicity `V` of the analysis.
    #[must_use]
    pub fn doc_frequency(&self, term: u64) -> usize {
        self.postings(term).len()
    }
}

impl MembershipIndex for InvertedIndex {
    fn label(&self) -> &'static str {
        "InvertedIndex"
    }

    fn num_documents(&self) -> usize {
        self.ndocs
    }

    fn query_term(&self, term: u64) -> Vec<u32> {
        self.postings(term).to_vec()
    }

    fn size_bytes(&self) -> usize {
        // Term keys + posting entries + per-entry Vec headers; hash table
        // overhead approximated by its load-factor-1 footprint.
        self.map
            .values()
            .map(|v| 8 + v.len() * 4 + std::mem::size_of::<Vec<u32>>())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn postings_are_exact_and_sorted() {
        let mut idx = InvertedIndex::new();
        idx.push_document([1u64, 2, 3]);
        idx.push_document([2u64, 4]);
        idx.push_document([2u64, 1]);
        assert_eq!(idx.postings(2), &[0, 1, 2]);
        assert_eq!(idx.postings(1), &[0, 2]);
        assert_eq!(idx.postings(4), &[1]);
        assert_eq!(idx.postings(99), &[] as &[u32]);
        assert_eq!(idx.num_documents(), 3);
        assert_eq!(idx.doc_frequency(2), 3);
        assert_eq!(idx.map.len(), 4);
    }

    #[test]
    fn duplicate_terms_in_doc_counted_once() {
        let mut idx = InvertedIndex::new();
        idx.push_document([5u64, 5, 5]);
        assert_eq!(idx.postings(5), &[0]);
    }

    #[test]
    fn query_terms_is_exact_intersection() {
        let docs = vec![
            ("a".to_string(), vec![1u64, 2, 3]),
            ("b".to_string(), vec![2u64, 3]),
            ("c".to_string(), vec![3u64]),
        ];
        let idx = InvertedIndex::build(&docs);
        assert_eq!(idx.query_terms(&[2, 3]), vec![0, 1]);
        assert_eq!(idx.query_terms(&[1, 2, 3]), vec![0]);
        assert_eq!(idx.query_terms(&[1, 99]), Vec::<u32>::new());
    }

    #[test]
    fn size_grows_with_content() {
        let mut idx = InvertedIndex::new();
        let s0 = idx.size_bytes();
        idx.push_document(0..1000u64);
        assert!(idx.size_bytes() > s0);
    }
}
