//! Batch-parallel ingestion and query engine.
//!
//! The term-at-a-time paths ([`Rambo::insert_term_u64`],
//! [`Rambo::query_terms_with`]) pay their full cost per term: every insertion
//! re-derives the document's bucket, hashes, and scatters `η` single-bit
//! writes across all `R` matrices; every query re-probes from scratch. At
//! RAMBO's design point — millions of k-mers per document, thousands of
//! queries per batch — both hot paths are dominated by redundant hashing and
//! cache-hostile write patterns.
//!
//! This module amortizes both:
//!
//! * **Ingestion** ([`Rambo::insert_document_batch`]): the document's term
//!   set is deduplicated once, each unique term is hashed once per
//!   repetition, the resulting filter positions are grouped (sorted) by
//!   matrix row so the bit writes walk each repetition's matrix
//!   monotonically, and the `R` independent tables fan out across scoped
//!   threads — the same per-table independence [`crate::sharded`] exploits
//!   across nodes. The produced index is **bit-identical** to term-at-a-time
//!   insertion (bit-setting is idempotent and commutative per table), which
//!   the property suite asserts via full `PartialEq`.
//! * **Query** ([`QueryBatch`]): many queries evaluated against one shared
//!   [`QueryContext`] through the planned probe of [`crate::query`], so a
//!   batch allocates nothing per query but the returned id lists.

use crate::error::RamboError;
use crate::index::{DocId, Rambo};
use crate::query::{QueryContext, QueryMode};
use rambo_hash::HashPair;

/// Below this much per-table work (unique terms × η bit writes), thread
/// spawn/join overhead outweighs the parallel win and insertion stays on the
/// calling thread. Determinism is unaffected — the tables are independent.
const PARALLEL_MIN_WRITES: usize = 1 << 13;

/// Per-table matrix size above which staged writes are worth sorting by row:
/// once a table outgrows the last-level cache, random row writes are
/// DRAM-latency-bound and a sorted sweep (sequential, prefetchable) wins.
/// Below it the matrix is cache-resident and the O(n log n) sort costs more
/// than it saves, so the engine sweeps terms directly — still one repetition
/// at a time, which keeps a single table hot instead of cycling all `R`
/// matrices through the cache per term like the term-at-a-time path does.
/// Shared with [`crate::pipeline`]'s hash stage, which makes the same call.
pub(crate) const ROW_SORT_MIN_BYTES: usize = 24 << 20;

/// The machine's available parallelism, probed once (the syscall behind
/// `available_parallelism` is not free, and ingestion calls this per
/// document).
#[must_use]
pub fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| std::thread::available_parallelism().map_or(1, std::num::NonZero::get))
}

impl Rambo {
    /// Register a document and insert its whole term set through the batch
    /// engine, fanning the `R` repetitions out over up to
    /// `available_parallelism` threads for large documents.
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
        self.insert_document_batch_with(name, terms, default_threads())
    }

    /// [`Rambo::insert_document_batch`] with an explicit thread budget
    /// (`threads == 1` forces fully sequential insertion; the result is
    /// identical either way).
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed.
    ///
    /// # Panics
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn insert_document_batch_with(
        &mut self,
        name: &str,
        terms: &[u64],
        threads: usize,
    ) -> Result<DocId, RamboError> {
        let id = self.add_document(name)?;
        self.insert_terms_batch_with(id, terms, threads)?;
        Ok(id)
    }

    /// Insert a term batch for an already-registered document with an
    /// explicit thread budget.
    ///
    /// # Errors
    /// [`RamboError::UnknownDocument`] if `doc` was not issued by this index.
    ///
    /// # Panics
    /// Panics if `threads == 0` or a worker thread panics.
    pub fn insert_terms_batch_with(
        &mut self,
        doc: DocId,
        terms: &[u64],
        threads: usize,
    ) -> Result<(), RamboError> {
        assert!(threads > 0, "need at least one thread");
        if doc as usize >= self.doc_names.len() {
            return Err(RamboError::UnknownDocument(doc));
        }
        if terms.is_empty() {
            return Ok(());
        }
        let mut owned: Vec<u64> = Vec::new();
        let unique = dedupe_terms(terms, &mut owned);

        let eta = self.params().eta;
        let m = self.params().bfu_bits as u64;
        // Disjoint field borrows: each worker owns one table exclusively.
        let seeds = &self.bloom_seeds;
        let tables = &mut self.tables;

        let spec = |seed: u64| RepInsert {
            seed,
            eta,
            m,
            row_sort_min_bytes: ROW_SORT_MIN_BYTES,
        };
        let per_table_writes = unique.len() * eta as usize;
        if threads == 1 || tables.len() == 1 || per_table_writes < PARALLEL_MIN_WRITES {
            let mut rows = Vec::new();
            for (table, &seed) in tables.iter_mut().zip(seeds) {
                insert_table(table, doc, unique, &mut rows, spec(seed));
            }
        } else {
            std::thread::scope(|scope| {
                // Chunk the R independent tables over at most `threads`
                // scoped workers (R is small — 2..8 — so this is the whole
                // fan-out; each worker is pure CPU on its own tables).
                let chunk = tables.len().div_ceil(threads);
                let mut handles = Vec::new();
                for (c, table_chunk) in tables.chunks_mut(chunk).enumerate() {
                    let seed_chunk = &seeds[c * chunk..c * chunk + table_chunk.len()];
                    handles.push(scope.spawn(move || {
                        let mut rows = Vec::new();
                        for (table, &seed) in table_chunk.iter_mut().zip(seed_chunk) {
                            insert_table(table, doc, unique, &mut rows, spec(seed));
                        }
                    }));
                }
                for h in handles {
                    h.join().expect("batch insertion worker panicked");
                }
            });
        }
        // Multiplicity accounting matches the term-at-a-time loop.
        self.inserts += terms.len() as u64;
        Ok(())
    }
}

/// Dedupe a term batch once for all repetitions: Bloom insertion is
/// idempotent, so duplicates would only re-hash and re-write the same bits.
/// Inputs that are already strictly sorted (KmerSet output, the synthetic
/// archives) skip the sort entirely; otherwise `scratch` receives the
/// sorted-deduped copy and the returned slice borrows it. Shared by the
/// in-place batch engine and the [`crate::pipeline`] hash stage.
pub(crate) fn dedupe_terms<'a>(terms: &'a [u64], scratch: &'a mut Vec<u64>) -> &'a [u64] {
    if terms.windows(2).all(|w| w[0] < w[1]) {
        terms
    } else {
        scratch.clear();
        scratch.extend_from_slice(terms);
        scratch.sort_unstable();
        scratch.dedup();
        scratch
    }
}

/// Per-repetition insertion parameters shared by every table of one batch
/// (all but the Bloom seed are identical across repetitions).
#[derive(Clone, Copy)]
struct RepInsert {
    seed: u64,
    eta: u32,
    m: u64,
    row_sort_min_bytes: usize,
}

/// Insert one repetition's worth of a document batch: hash every unique term
/// once for this repetition's Bloom family and set the bucket's filter bits.
///
/// For cache-resident tables the terms are swept directly (the whole sweep
/// touches only this one matrix, so it stays hot). For tables past
/// `spec.row_sort_min_bytes` (normally [`ROW_SORT_MIN_BYTES`]) the
/// `(row, bucket-bit)` updates are staged and sorted by matrix row first,
/// turning DRAM-latency-bound random writes into a prefetchable sequential
/// walk.
fn insert_table(
    table: &mut crate::index::Table,
    doc: DocId,
    unique: &[u64],
    rows: &mut Vec<usize>,
    spec: RepInsert,
) {
    let bucket = table.assign[doc as usize] as usize;
    if table.matrix.size_bytes() < spec.row_sort_min_bytes {
        for &t in unique {
            let pair = HashPair::of_u64(t, spec.seed);
            table.matrix.insert(bucket, pair, spec.eta);
        }
    } else {
        rows.clear();
        rows.reserve(unique.len() * spec.eta as usize);
        for &t in unique {
            let pair = HashPair::of_u64(t, spec.seed);
            for i in 0..spec.eta {
                rows.push(pair.index(i, spec.m) as usize);
            }
        }
        rows.sort_unstable();
        table.matrix.set_rows(bucket, rows);
    }
}

/// A query evaluator bound to one index with its own reused scratch: the
/// handle a server lane or a batch job holds, so that a run of queries pays
/// for [`QueryContext`] warm-up once.
///
/// Holds an immutable borrow of the index for its lifetime. Both modes go
/// through [`Rambo::query_terms_with`] — the planned probe is the only
/// evaluator, so a batch answers exactly what per-call evaluation answers.
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

    #[test]
    fn batch_is_bit_identical_to_term_at_a_time() {
        let docs = archive(25, 60);
        for threads in [1, 4] {
            let mut serial = Rambo::new(params(9)).unwrap();
            let mut batch = Rambo::new(params(9)).unwrap();
            for (name, terms) in &docs {
                let d = serial.add_document(name).unwrap();
                for &t in terms {
                    serial.insert_term_u64(d, t).unwrap();
                }
                batch
                    .insert_document_batch_with(name, terms, threads)
                    .unwrap();
            }
            assert_eq!(serial, batch, "threads = {threads}");
            assert_eq!(serial.total_inserts(), batch.total_inserts());
        }
    }

    /// The row-sorted staged write path only engages for tables past
    /// [`ROW_SORT_MIN_BYTES`] in production; force it here (threshold 0) so
    /// the large-table branch is covered by the bit-identity guarantee too.
    #[test]
    fn row_sorted_write_path_is_bit_identical() {
        let docs = archive(12, 120);
        let mut serial = Rambo::new(params(21)).unwrap();
        let mut staged = Rambo::new(params(21)).unwrap();
        for (name, terms) in &docs {
            let d = serial.add_document(name).unwrap();
            for &t in terms {
                serial.insert_term_u64(d, t).unwrap();
            }

            let id = staged.add_document(name).unwrap();
            let mut unique = terms.clone();
            unique.sort_unstable();
            unique.dedup();
            let eta = staged.params().eta;
            let m = staged.params().bfu_bits as u64;
            let seeds = staged.bloom_seeds.clone();
            let mut rows = Vec::new();
            for (table, &seed) in staged.tables.iter_mut().zip(&seeds) {
                super::insert_table(
                    table,
                    id,
                    &unique,
                    &mut rows,
                    super::RepInsert {
                        seed,
                        eta,
                        m,
                        row_sort_min_bytes: 0,
                    },
                );
            }
            staged.inserts += terms.len() as u64;
        }
        assert_eq!(serial, staged, "staged row-sorted writes must be lossless");
    }

    #[test]
    fn parallel_fanout_crosses_the_threshold() {
        // Enough work per table to take the scoped-thread path.
        let big: Vec<u64> = (0..(super::PARALLEL_MIN_WRITES as u64)).collect();
        let mut seq = Rambo::new(params(3)).unwrap();
        let mut par = Rambo::new(params(3)).unwrap();
        seq.insert_document_batch_with("big", &big, 1).unwrap();
        par.insert_document_batch_with("big", &big, 4).unwrap();
        assert_eq!(seq, par);
    }

    #[test]
    fn batch_rejects_duplicates_and_unknown_docs() {
        let mut r = Rambo::new(params(1)).unwrap();
        r.insert_document_batch("a", &[1, 2]).unwrap();
        assert!(matches!(
            r.insert_document_batch("a", &[3]),
            Err(RamboError::DuplicateDocument(_))
        ));
        assert!(matches!(
            r.insert_terms_batch_with(99, &[1], 1),
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
