//! Inputs made from `--seed`: term-set documents and the query streams cut
//! from them. Nothing here calls into the repository.

use crate::rng::XorShift;
use std::collections::HashSet;

/// Indexed terms have the top bit clear and absent terms have it set, so an
/// "absent" term is absent by construction, not by luck.
const ABSENT_BIT: u64 = 1 << 63;

/// Share of each document drawn from a pool of terms that several documents
/// use (multiplicity V > 1 in the paper's Lemma 4.1); the rest is unique.
const SHARED_SHARE_PCT: u64 = 10;
/// Each pooled term lands in about this many documents.
const SHARED_MULTIPLICITY: u64 = 4;

/// `docs[i]` is the term set of the document named `d<i>`.
pub struct Corpus {
    pub docs: Vec<Vec<u64>>,
}

pub fn doc_name(id: usize) -> String {
    format!("d{id}")
}

impl Corpus {
    /// `k` documents whose sizes are uniform in 0.6–1.4 × `mean_terms`,
    /// without repeated terms inside a document.
    pub fn generate(seed: u64, k: usize, mean_terms: usize) -> Self {
        let mut rng = XorShift::new(seed, 0xC0);
        let pool = ((k * mean_terms) as u64 * SHARED_SHARE_PCT / 100 / SHARED_MULTIPLICITY).max(1);
        let pool_base = rng.next_u64() & !ABSENT_BIT;
        let (lo, hi) = (mean_terms as u64 * 6 / 10, mean_terms as u64 * 14 / 10);
        let mut seen = HashSet::new();
        let docs = (0..k)
            .map(|_| {
                let n = rng.range(lo, hi) as usize;
                seen.clear();
                let mut terms = Vec::with_capacity(n);
                while terms.len() < n {
                    let t = if rng.below(100) < SHARED_SHARE_PCT {
                        pool_base.wrapping_add(rng.below(pool)) & !ABSENT_BIT
                    } else {
                        rng.next_u64() & !ABSENT_BIT
                    };
                    if seen.insert(t) {
                        terms.push(t);
                    }
                }
                terms
            })
            .collect();
        Self { docs }
    }

    pub fn total_terms(&self) -> usize {
        self.docs.iter().map(Vec::len).sum()
    }
}

/// One query of a stream.
#[derive(Debug, Clone)]
pub struct Query {
    pub terms: Vec<u64>,
}

/// Cuts windows of `window` consecutive terms from indexed documents; every
/// `perturb_every`-th query has `perturb_terms` of its terms replaced by
/// absent ones (a read with errors, a near miss).
pub struct QueryMaker {
    rng: XorShift,
    window: usize,
    perturb_every: usize,
    perturb_terms: usize,
    made: usize,
}

impl QueryMaker {
    pub fn new(seed: u64, window: usize, perturb_every: usize, perturb_terms: usize) -> Self {
        Self {
            rng: XorShift::new(seed, 0x9E),
            window,
            perturb_every,
            perturb_terms,
            made: 0,
        }
    }

    /// A window from one of the first `visible` documents of `corpus`.
    pub fn next(&mut self, corpus: &Corpus, visible: usize) -> Query {
        let doc = &corpus.docs[self.rng.below(visible as u64) as usize];
        let len = self.window.min(doc.len());
        let at = self.rng.below((doc.len() - len + 1) as u64) as usize;
        let mut terms = doc[at..at + len].to_vec();
        self.made += 1;
        if self.made.is_multiple_of(self.perturb_every) {
            for _ in 0..self.perturb_terms {
                let slot = self.rng.below(len as u64) as usize;
                terms[slot] = self.rng.next_u64() | ABSENT_BIT;
            }
        }
        Query { terms }
    }
}

/// `n` single-term queries for terms no document holds: whatever comes back
/// is a false positive.
pub fn absent_terms(seed: u64, n: usize) -> Vec<u64> {
    let mut rng = XorShift::new(seed, 0xAB);
    (0..n).map(|_| rng.next_u64() | ABSENT_BIT).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_is_a_function_of_the_seed() {
        let a = Corpus::generate(3, 50, 100);
        let b = Corpus::generate(3, 50, 100);
        let c = Corpus::generate(4, 50, 100);
        assert_eq!(a.docs, b.docs);
        assert_ne!(a.docs, c.docs);
        for d in &a.docs {
            assert!((60..=140).contains(&d.len()));
            assert!(d.iter().all(|t| t & ABSENT_BIT == 0));
            assert_eq!(d.iter().collect::<HashSet<_>>().len(), d.len());
        }
    }

    #[test]
    fn windows_come_from_visible_documents_and_perturbation_is_periodic() {
        let corpus = Corpus::generate(1, 40, 100);
        let mut maker = QueryMaker::new(9, 20, 4, 1);
        for i in 1..=40 {
            let q = maker.next(&corpus, 10);
            assert_eq!(q.terms.len(), 20);
            let absent = q.terms.iter().filter(|t| *t & ABSENT_BIT != 0).count();
            assert_eq!(absent, usize::from(i % 4 == 0));
            let from_visible = corpus.docs[..10]
                .iter()
                .any(|d| q.terms.iter().filter(|t| d.contains(t)).count() >= 19);
            assert!(from_visible);
        }
    }
}
