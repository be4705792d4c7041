//! Algorithm 2 as the paper writes it: the reference that
//! [`QueryMode::Sparse`](crate::QueryMode::Sparse) answers with.
//!
//! Every answer here comes from one single-bit probe per (repetition,
//! bucket, term): hash the term with [`Rambo::hash_u64_rep`] and ask
//! [`Rambo::bfu_contains_pair`] whether the bucket's BFU holds it. There is
//! no row plan, no precomputed modulus, no word kernel and no
//! [`QueryContext`](crate::QueryContext) scratch, and documents reach their
//! buckets through [`Rambo::bucket_of`] rather than the bucket lists. The
//! planned evaluator of [`crate::query`] and this module share only the
//! index, so the property suites and the benchmark's oracle can hold one
//! against the other. Nothing serves from here.
//!
//! Both functions expect non-empty `terms` and a non-empty index:
//! [`Rambo::query_terms_with`] and [`Rambo::query_sequence_theta`] decide
//! those cases before they choose an evaluator.

use crate::index::{DocId, Rambo};
use rambo_hash::HashPair;

/// Each term hashed once for repetition `rep`.
fn pairs(index: &Rambo, rep: usize, terms: &[u64]) -> Vec<HashPair> {
    terms.iter().map(|&t| index.hash_u64_rep(rep, t)).collect()
}

/// AND: the documents whose BFU holds every term in every repetition,
/// ascending.
///
/// Per repetition, a bucket passes when its BFU holds every term (stopping
/// at the first miss). Buckets partition the documents, so the union of the
/// passing buckets' documents is the set of documents whose own bucket
/// passes; intersecting it with the earlier repetitions' answer keeps just
/// those.
pub(crate) fn all_terms(index: &Rambo, terms: &[u64]) -> Vec<DocId> {
    let mut live: Vec<DocId> = (0..index.num_documents() as DocId).collect();
    for rep in 0..index.repetitions() {
        let pairs = pairs(index, rep, terms);
        let passes: Vec<bool> = (0..index.buckets() as usize)
            .map(|b| pairs.iter().all(|&p| index.bfu_contains_pair(rep, b, p)))
            .collect();
        live.retain(|&d| passes[index.bucket_of(rep, d) as usize]);
        if live.is_empty() {
            break;
        }
    }
    live
}

/// θ: the documents holding at least `needed` of `terms`, counted with
/// multiplicity, ascending. A term is held when it is in the document's
/// bucket in every repetition.
pub(crate) fn theta(index: &Rambo, terms: &[u64], needed: usize) -> Vec<DocId> {
    let docs = 0..index.num_documents() as DocId;
    // A document holds no more terms than its bucket does in any one
    // repetition, an exact bound: once a bucket misses more than this many
    // terms, none of its documents can reach `needed`.
    let misses_allowed = terms.len() - needed;
    // Per repetition, the bucket × term membership table
    // (`holds[rep][bucket][t]`), one row per bucket that holds a document.
    // A row stops at the miss that rules its bucket out, so a short row marks
    // a bucket below `needed`; the exact count decides every other document.
    let holds: Vec<Vec<Vec<bool>>> = (0..index.repetitions())
        .map(|rep| {
            let pairs = pairs(index, rep, terms);
            let mut rows = vec![Vec::new(); index.buckets() as usize];
            for d in docs.clone() {
                let b = index.bucket_of(rep, d) as usize;
                let row = &mut rows[b];
                if row.is_empty() {
                    let mut misses = 0;
                    for &p in &pairs {
                        let held = index.bfu_contains_pair(rep, b, p);
                        row.push(held);
                        misses += usize::from(!held);
                        if misses > misses_allowed {
                            break;
                        }
                    }
                }
            }
            rows
        })
        .collect();
    docs.filter(|&d| {
        let row = |rep: usize| &holds[rep][index.bucket_of(rep, d) as usize];
        if (0..holds.len()).any(|rep| row(rep).len() < terms.len()) {
            return false; // some bucket of it is below `needed`
        }
        let held = (0..terms.len()).filter(|&t| (0..holds.len()).all(|rep| row(rep)[t]));
        held.count() >= needed
    })
    .collect()
}
