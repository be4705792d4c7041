//! Whole-document ingestion and batched query evaluation.
//!
//! The term-at-a-time paths ([`Rambo::insert_term_u64`],
//! [`Rambo::query_terms_with`]) pay their full cost per term: every insertion
//! re-derives the document's bucket, hashes, and scatters `η` single-bit
//! writes across all `R` matrices; every query re-probes from scratch.
//!
//! * **Ingestion** ([`Rambo::insert_document_batch`]): one document through
//!   the write path of [`crate::pipeline`] on the calling thread —
//!   [`crate::HashPlan::hash_document`] (dedupe once, hash each unique term
//!   once per repetition), then [`Rambo::apply_hashed`]. The produced index is
//!   **bit-identical** to term-at-a-time insertion (bit-setting is idempotent
//!   and commutative per table), which the property suite asserts via full
//!   `PartialEq`.
//! * **Query** ([`QueryBatch`]): many queries evaluated against one shared
//!   [`QueryContext`] through the planned probe of [`crate::query`], so a
//!   batch allocates nothing per query but the returned id lists.

use crate::error::RamboError;
use crate::index::{DocId, Rambo};
use crate::query::{QueryContext, QueryMode};

/// The machine's available parallelism, probed once (the syscall behind
/// `available_parallelism` is not free).
#[must_use]
pub(crate) fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

impl Rambo {
    /// Register a document and insert its whole term set: hash, then apply,
    /// on the calling thread.
    ///
    /// Produces an index bit-identical to [`Rambo::add_document`] followed by
    /// [`Rambo::insert_term_u64`] per term (duplicates included in the
    /// [`Rambo::total_inserts`] accounting, exactly like the loop would).
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed.
    pub fn insert_document_batch(
        &mut self,
        name: &str,
        terms: &[u64],
    ) -> Result<DocId, RamboError> {
        let hashed = self.hash_plan().hash_document(name, terms);
        self.apply_hashed(&hashed)
    }

    /// Exists only because `benchmark/src/sut.rs` (frozen for this PR) still
    /// calls it; goes with the next `benchmark` PR. `threads` is ignored.
    ///
    /// # Errors
    /// As [`Rambo::insert_document_batch`].
    ///
    /// # Panics
    /// Panics if `threads == 0`.
    #[doc(hidden)]
    pub fn insert_document_batch_with(
        &mut self,
        name: &str,
        terms: &[u64],
        threads: usize,
    ) -> Result<DocId, RamboError> {
        assert!(threads > 0, "need at least one thread");
        self.insert_document_batch(name, terms)
    }
}

/// A query evaluator bound to one index with its own reused scratch: the
/// handle a server lane or a batch job holds, so that a run of queries pays
/// for [`QueryContext`] warm-up once.
///
/// Holds an immutable borrow of the index for its lifetime. Every query goes
/// through [`Rambo::query_terms_with`], so a batch answers exactly what
/// per-call evaluation answers.
///
/// ```
/// use rambo_core::{QueryBatch, QueryMode, Rambo, RamboParams};
///
/// let mut index = Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 7)).unwrap();
/// let a = index.insert_document("doc-a", [1u64, 2, 3]).unwrap();
/// let b = index.insert_document("doc-b", [2u64, 3, 4]).unwrap();
///
/// let mut batch = QueryBatch::new(&index);
/// let results = batch.run(&[vec![2], vec![2, 3], vec![4]], QueryMode::Full);
/// assert_eq!(results[0], vec![a, b]); // term 2 is in both documents
/// assert_eq!(results[1], vec![a, b]); // both contain {2, 3}
/// assert_eq!(results[2], vec![b]);
/// ```
pub struct QueryBatch<'i> {
    index: &'i Rambo,
    ctx: QueryContext,
}

impl<'i> QueryBatch<'i> {
    /// Create an evaluator bound to `index`.
    #[must_use]
    pub fn new(index: &'i Rambo) -> Self {
        Self {
            index,
            ctx: QueryContext::new(),
        }
    }

    /// Evaluate one query (Algorithm 2 semantics: a BFU matches only if it
    /// contains *all* terms). Returns exactly what
    /// [`Rambo::query_terms_with`] returns for the same inputs.
    #[must_use]
    pub fn query_terms(&mut self, terms: &[u64], mode: QueryMode) -> Vec<DocId> {
        self.index.query_terms_with(terms, mode, &mut self.ctx)
    }

    /// Evaluate a batch of queries, reusing scratch across all of them.
    /// Results are in input order.
    #[must_use]
    pub fn run<Q: AsRef<[u64]>>(&mut self, queries: &[Q], mode: QueryMode) -> Vec<Vec<DocId>> {
        queries
            .iter()
            .map(|q| self.query_terms(q.as_ref(), mode))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RamboParams;

    fn archive(k: usize, terms_per_doc: usize) -> Vec<(String, Vec<u64>)> {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 32;
                let mut ts: Vec<u64> = (0..terms_per_doc as u64).map(|t| base | t).collect();
                ts.push(0xFFFF); // shared term
                ts.push(base); // duplicate of term 0
                (format!("doc-{d}"), ts)
            })
            .collect()
    }

    fn params(seed: u64) -> RamboParams {
        RamboParams::flat(8, 4, 1 << 13, 2, seed)
    }

    fn term_at_a_time(p: RamboParams, docs: &[(String, Vec<u64>)]) -> Rambo {
        let mut serial = Rambo::new(p).unwrap();
        for (name, terms) in docs {
            let d = serial.add_document(name).unwrap();
            for &t in terms {
                serial.insert_term_u64(d, t).unwrap();
            }
        }
        serial
    }

    #[test]
    fn batch_is_bit_identical_to_term_at_a_time() {
        let docs = archive(25, 60);
        let serial = term_at_a_time(params(9), &docs);
        let mut batch = Rambo::new(params(9)).unwrap();
        for (name, terms) in &docs {
            batch.insert_document_batch(name, terms).unwrap();
        }
        assert_eq!(serial, batch);
        assert_eq!(serial.total_inserts(), batch.total_inserts());
    }

    #[test]
    fn batch_rejects_duplicates_and_unknown_docs() {
        let mut r = Rambo::new(params(1)).unwrap();
        r.insert_document_batch("a", &[1, 2]).unwrap();
        let before = r.clone();
        assert!(matches!(
            r.insert_document_batch("a", &[3]),
            Err(RamboError::DuplicateDocument(_))
        ));
        assert_eq!(r, before, "a rejected document sets no bit");
        assert_eq!(r.total_inserts(), 2);
        assert!(matches!(
            r.insert_term_u64(99, 1),
            Err(RamboError::UnknownDocument(99))
        ));
    }

    #[test]
    fn empty_batch_is_a_registered_empty_document() {
        let mut r = Rambo::new(params(2)).unwrap();
        let d = r.insert_document_batch("empty", &[]).unwrap();
        assert_eq!(r.num_documents(), 1);
        assert_eq!(r.total_inserts(), 0);
        assert!(r.query_u64(123).is_empty() || !r.query_u64(123).contains(&d));
    }

    #[test]
    fn query_batch_matches_per_call_results() {
        let docs = archive(30, 40);
        let mut r = Rambo::new(params(7)).unwrap();
        for (name, terms) in &docs {
            r.insert_document_batch(name, terms).unwrap();
        }
        // Single-term, multi-term, and absent-term queries, with repeats to
        // exercise scratch reuse.
        let mut queries: Vec<Vec<u64>> = docs.iter().map(|(_, ts)| ts[..1].to_vec()).collect();
        queries.push(vec![0xFFFF]);
        queries.push(vec![0xFFFF]);
        queries.push(docs[3].1[..4].to_vec());
        queries.extend((0..20).map(|i| vec![0xDEAD_0000_0000u64 + i]));
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            let mut ctx = QueryContext::new();
            let expected: Vec<Vec<DocId>> = queries
                .iter()
                .map(|q| r.query_terms_with(q, mode, &mut ctx))
                .collect();
            let mut batch = QueryBatch::new(&r);
            let got = batch.run(&queries, mode);
            assert_eq!(got, expected, "mode {mode:?}");
        }
    }
}
