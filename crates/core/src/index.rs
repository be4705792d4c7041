//! The RAMBO index structure and Algorithm 1 (insertion).

use crate::error::RamboError;
use crate::matrix::BfuMatrix;
use crate::params::RamboParams;
use crate::partition::{derive_seeds, Resolver};
use crate::theory;
use rambo_bitvec::BitVec;
use rambo_bloom::params::expected_fpr;
use rambo_hash::{HashPair, SplitMix64};
use std::collections::HashMap;

/// Identifier of a registered document (dense, issued in insertion order).
pub type DocId = u32;

/// One repetition: the `B` BFUs stored as a position-major bit matrix (see
/// [`crate::matrix`]) plus the document→bucket assignment that drives both
/// insertion and the union step of Algorithm 2.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Table {
    /// The Bloom Filters for the Union, column-wise.
    pub matrix: BfuMatrix,
    /// Documents assigned to each bucket (sorted ascending — ids are issued
    /// monotonically and fold-over re-sorts).
    pub buckets: Vec<Vec<DocId>>,
    /// Per-document bucket, parallel to the registry.
    pub assign: Vec<u32>,
}

impl Table {
    pub(crate) fn new(buckets: usize, m_bits: usize) -> Self {
        Self {
            matrix: BfuMatrix::new(m_bits, buckets),
            buckets: vec![Vec::new(); buckets],
            assign: Vec::new(),
        }
    }
}

/// Everything [`Rambo::add_document`] writes, borrowed apart from the
/// matrices (see [`Rambo::split_registry`]).
pub(crate) struct Registry<'a> {
    resolver: &'a Resolver,
    current_buckets: u64,
    doc_names: &'a mut Vec<String>,
    name_index: &'a mut HashMap<String, DocId>,
    /// Per repetition: the document→bucket assignment and the bucket lists.
    slots: Vec<(&'a mut Vec<u32>, &'a mut Vec<Vec<DocId>>)>,
    /// [`Rambo::total_inserts`].
    pub inserts: &'a mut u64,
}

impl Registry<'_> {
    /// Issue the next id to `name` and assign it its `R` buckets.
    pub(crate) fn add(&mut self, name: &str) -> Result<DocId, RamboError> {
        if self.name_index.contains_key(name) {
            return Err(RamboError::DuplicateDocument(name.to_string()));
        }
        let id = u32::try_from(self.doc_names.len())
            .map_err(|_| RamboError::InvalidParams("document count exceeds u32".into()))?;
        self.doc_names.push(name.to_string());
        self.name_index.insert(name.to_string(), id);
        for (rep, (assign, buckets)) in self.slots.iter_mut().enumerate() {
            // Raw bucket in the unfolded range, then the fold composition.
            let raw = self.resolver.bucket(rep, name.as_bytes());
            let bucket = (raw % self.current_buckets) as u32;
            assign.push(bucket);
            buckets[bucket as usize].push(id);
        }
        Ok(id)
    }

    /// The bucket of document `doc` in repetition `rep`.
    pub(crate) fn bucket_of(&self, rep: usize, doc: DocId) -> usize {
        self.slots[rep].0[doc as usize] as usize
    }
}

/// The Repeated And Merged BloOm filter: a `B × R` grid of BFUs (Figure 2 of
/// the paper).
///
/// See the [crate docs](crate) for the algorithmic overview and
/// [`crate::RamboBuilder`] for guided parameter selection.
#[derive(Debug, Clone, PartialEq)]
pub struct Rambo {
    params: RamboParams,
    pub(crate) resolver: Resolver,
    /// Per-repetition Bloom hash seeds, derived from the master seed.
    ///
    /// Seeds are shared by every BFU *within* a repetition (required for
    /// fold-over and stacking, which OR filters of the same table), but are
    /// **independent across repetitions**: if they were shared, a document's
    /// own term bits would occupy identical positions in all `R` of its
    /// buckets, making Bloom false positives survive every repetition at
    /// once and voiding the independence behind Lemma 4.1. (The paper's
    /// §5.3 seed-sharing requirement is about machines, not repetitions.)
    pub(crate) bloom_seeds: Vec<u64>,
    pub(crate) tables: Vec<Table>,
    pub(crate) doc_names: Vec<String>,
    pub(crate) name_index: HashMap<String, DocId>,
    /// Bucket count after `fold_factor` fold-overs (`B₀ / 2^fold_factor`).
    pub(crate) current_buckets: u64,
    pub(crate) fold_factor: u32,
    /// Total term insertions performed (with multiplicity).
    pub(crate) inserts: u64,
}

impl Rambo {
    /// Create an empty index.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] when dimensions are degenerate.
    pub fn new(params: RamboParams) -> Result<Self, RamboError> {
        params.validate()?;
        let seeds = derive_seeds(params.seed);
        let resolver = Resolver::new(params.partition, params.repetitions, seeds.partition);
        Ok(Self::from_parts(
            params,
            resolver,
            seeds.bloom,
            params.buckets(),
        ))
    }

    /// Internal constructor shared with the sharded builder (which supplies a
    /// node-local resolver) and the decoders (whose tables start at the
    /// stored, possibly folded, bucket count `buckets`).
    pub(crate) fn from_parts(
        params: RamboParams,
        resolver: Resolver,
        bloom_seed: u64,
        buckets: u64,
    ) -> Self {
        let mut stream = SplitMix64::new(bloom_seed);
        Self {
            tables: (0..params.repetitions)
                .map(|_| Table::new(buckets as usize, params.bfu_bits))
                .collect(),
            resolver,
            bloom_seeds: (0..params.repetitions).map(|_| stream.next_u64()).collect(),
            doc_names: Vec::new(),
            name_index: HashMap::new(),
            current_buckets: buckets,
            fold_factor: 0,
            inserts: 0,
            params,
        }
    }

    /// The construction parameters (pre-fold geometry).
    #[must_use]
    pub fn params(&self) -> &RamboParams {
        &self.params
    }

    /// Number of repetitions `R`.
    #[must_use]
    pub fn repetitions(&self) -> usize {
        self.params.repetitions
    }

    /// Current bucket count `B` (halved by each fold-over).
    #[must_use]
    pub fn buckets(&self) -> u64 {
        self.current_buckets
    }

    /// How many times the index has been folded.
    #[must_use]
    pub fn fold_factor(&self) -> u32 {
        self.fold_factor
    }

    /// Number of registered documents `K`.
    #[must_use]
    pub fn num_documents(&self) -> usize {
        self.doc_names.len()
    }

    /// Total term insertions performed (with multiplicity).
    #[must_use]
    pub fn total_inserts(&self) -> u64 {
        self.inserts
    }

    /// Name of a document.
    ///
    /// # Panics
    /// Panics if the id was not issued by this index.
    #[must_use]
    pub fn document_name(&self, id: DocId) -> &str {
        &self.doc_names[id as usize]
    }

    /// Look up a document id by name.
    #[must_use]
    pub fn document_id(&self, name: &str) -> Option<DocId> {
        self.name_index.get(name).copied()
    }

    /// All document names in id order.
    #[must_use]
    pub fn document_names(&self) -> &[String] {
        &self.doc_names
    }

    /// The bucket of document `doc` in repetition `rep` (after folds).
    ///
    /// # Panics
    /// Panics if `rep` or `doc` is out of range.
    #[must_use]
    pub fn bucket_of(&self, rep: usize, doc: DocId) -> u32 {
        self.tables[rep].assign[doc as usize]
    }

    /// Register a document. The name is the partition-hash identity: the
    /// same name always lands in the same `R` buckets, on any machine with
    /// the same seed (paper §5.3).
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed.
    pub fn add_document(&mut self, name: &str) -> Result<DocId, RamboError> {
        self.split_registry().0.add(name)
    }

    /// Borrow the index as two disjoint halves: the [`Registry`] (names,
    /// ids, bucket assignments, insert count) and the `R` matrices, so that
    /// documents can register on one thread while their bits are written
    /// on others.
    pub(crate) fn split_registry(&mut self) -> (Registry<'_>, Vec<&mut BfuMatrix>) {
        let (slots, matrices) = self
            .tables
            .iter_mut()
            .map(|t| ((&mut t.assign, &mut t.buckets), &mut t.matrix))
            .unzip();
        let registry = Registry {
            resolver: &self.resolver,
            current_buckets: self.current_buckets,
            doc_names: &mut self.doc_names,
            name_index: &mut self.name_index,
            slots,
            inserts: &mut self.inserts,
        };
        (registry, matrices)
    }

    /// Hash a packed 64-bit term (e.g. a 2-bit-encoded k-mer) for
    /// repetition `rep` (each repetition draws an independent Bloom hash
    /// family; within a repetition all BFUs share it).
    #[inline]
    #[must_use]
    pub fn hash_u64_rep(&self, rep: usize, term: u64) -> HashPair {
        HashPair::of_u64(term, self.bloom_seeds[rep])
    }

    /// Insert a packed 64-bit term of `doc` into its `R` assigned BFUs
    /// (Algorithm 1's inner loop; the term is hashed once per repetition).
    ///
    /// # Errors
    /// [`RamboError::UnknownDocument`] if `doc` was not issued by this index.
    #[inline]
    pub fn insert_term_u64(&mut self, doc: DocId, term: u64) -> Result<(), RamboError> {
        if doc as usize >= self.doc_names.len() {
            return Err(RamboError::UnknownDocument(doc));
        }
        let eta = self.params.eta;
        for (rep, table) in self.tables.iter_mut().enumerate() {
            let bucket = table.assign[doc as usize] as usize;
            let pair = HashPair::of_u64(term, self.bloom_seeds[rep]);
            table.matrix.insert(bucket, pair, eta);
        }
        self.inserts += 1;
        Ok(())
    }

    /// Register a document and ingest its whole term set — the typical
    /// ingestion call (one McCortex file, one tokenized web page, …).
    ///
    /// Routed through [`Rambo::insert_document_batch`]: the term set is
    /// deduplicated, hashed once per repetition, and written one repetition
    /// at a time — bit-identical to the term-at-a-time loop but
    /// substantially faster for real document sizes.
    ///
    /// ```
    /// use rambo_core::{Rambo, RamboParams};
    ///
    /// // 8 buckets × 3 repetitions of 4096-bit BFUs, η = 2 hash functions.
    /// let mut index = Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 7)).unwrap();
    /// let doc = index.insert_document("genome-A", [0xAC67u64, 0xBEEF]).unwrap();
    /// assert_eq!(index.query_u64(0xAC67), vec![doc]); // zero false negatives
    /// assert_eq!(index.total_inserts(), 2);
    /// ```
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed.
    pub fn insert_document(
        &mut self,
        name: &str,
        terms: impl IntoIterator<Item = u64>,
    ) -> Result<DocId, RamboError> {
        let terms: Vec<u64> = terms.into_iter().collect();
        self.insert_document_batch(name, &terms)
    }

    /// Heap bytes of the index payload: BFU bits plus the bucket/assignment
    /// auxiliary structures (the paper's reported sizes include "all
    /// auxiliary data structures (like the inverted index mapping B buckets
    /// to K documents)", §5.2).
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        let mut total = 0;
        for table in &self.tables {
            total += table.matrix.size_bytes();
            total += table.assign.len() * 4;
            total += table
                .buckets
                .iter()
                .map(|b| b.len() * 4 + std::mem::size_of::<Vec<DocId>>())
                .sum::<usize>();
        }
        total += self
            .doc_names
            .iter()
            .map(|n| n.len() + std::mem::size_of::<String>())
            .sum::<usize>();
        total
    }

    /// True when every repetition's matrix payload is file-backed (came
    /// from [`Rambo::open_paged_at`] and has not been written to).
    #[must_use]
    pub fn tables_paged(&self) -> bool {
        self.tables.iter().all(|t| t.matrix.is_paged())
    }

    /// Mean and maximum BFU fill ratio — the observable that predicts the
    /// per-BFU `p` of Lemmas 4.1/4.2.
    #[must_use]
    pub fn fill_stats(&self) -> (f64, f64) {
        let m = self.params.bfu_bits as f64;
        let mut sum = 0.0;
        let mut max: f64 = 0.0;
        let mut n = 0usize;
        for table in &self.tables {
            for ones in table.matrix.column_ones() {
                let f = ones as f64 / m;
                sum += f;
                max = max.max(f);
                n += 1;
            }
        }
        (if n == 0 { 0.0 } else { sum / n as f64 }, max)
    }

    /// Mean estimated per-BFU false-positive rate (`fillᵉᵗᵃ`, averaged).
    #[must_use]
    pub fn estimated_bfu_fpr(&self) -> f64 {
        let m = self.params.bfu_bits as f64;
        let eta = self.params.eta as i32;
        let mut sum = 0.0;
        let mut n = 0usize;
        for table in &self.tables {
            for ones in table.matrix.column_ones() {
                sum += (ones as f64 / m).powi(eta);
                n += 1;
            }
        }
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Predicted per-document query false-positive rate, from metadata
    /// alone: the §2.1 per-BFU estimate `(1 − e^{−ηn/m})^η` at the mean keys
    /// per bucket (recorded insertions / current buckets), fed into Lemma 4.1
    /// at term multiplicity `V = 1`. No matrix scan, so a zero-copy or paged
    /// open stays metadata-only ([`Rambo::estimated_bfu_fpr`] is the measured
    /// alternative). Conservative: the insertion total counts duplicates that
    /// Bloom insertion dedupes. Serving cannot know a query term's true
    /// multiplicity, so the rare-term case the paper's k-mer workloads are
    /// dominated by stands in; the figure orders fold-over tiers and tracks a
    /// live index's fill, and the choice of `V` changes neither. The one
    /// prediction every serving surface quotes.
    #[must_use]
    pub fn predicted_fpr(&self) -> f64 {
        let keys_per_bucket = (self.inserts / self.current_buckets.max(1)) as usize;
        let bfu_fpr = expected_fpr(self.params.bfu_bits, keys_per_bucket, self.params.eta);
        theory::per_doc_fpr(bfu_fpr, self.current_buckets, 1, self.repetitions())
    }

    /// Extract one BFU's filter image (column of the position-major matrix).
    /// O(m) — for inspection, tests and cross-checks, not query paths.
    ///
    /// # Panics
    /// Panics when out of range.
    #[must_use]
    pub fn bfu_bits(&self, rep: usize, bucket: usize) -> BitVec {
        self.tables[rep].matrix.column(bucket)
    }

    /// Does the BFU at `(rep, bucket)` report this pre-hashed term?
    ///
    /// # Panics
    /// Panics when out of range.
    #[must_use]
    pub fn bfu_contains_pair(&self, rep: usize, bucket: usize, pair: HashPair) -> bool {
        let matrix = &self.tables[rep].matrix;
        pair.indices(self.params.eta, matrix.m_bits() as u64)
            .all(|p| matrix.bit(p as usize, bucket))
    }

    /// Documents currently assigned to a bucket.
    #[cfg(test)]
    pub(crate) fn bucket_documents(&self, rep: usize, bucket: usize) -> &[DocId] {
        &self.tables[rep].buckets[bucket]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::PartitionScheme;

    fn small() -> Rambo {
        Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 42)).unwrap()
    }

    #[test]
    fn registry_issues_dense_ids() {
        let mut r = small();
        assert_eq!(r.add_document("a").unwrap(), 0);
        assert_eq!(r.add_document("b").unwrap(), 1);
        assert_eq!(r.num_documents(), 2);
        assert_eq!(r.document_name(1), "b");
        assert_eq!(r.document_id("a"), Some(0));
        assert_eq!(r.document_id("zz"), None);
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut r = small();
        r.add_document("a").unwrap();
        assert!(matches!(
            r.add_document("a"),
            Err(RamboError::DuplicateDocument(_))
        ));
        assert_eq!(r.num_documents(), 1);
    }

    #[test]
    fn assignment_is_consistent_across_structures() {
        let mut r = small();
        for i in 0..50 {
            r.add_document(&format!("doc{i}")).unwrap();
        }
        for rep in 0..3 {
            let mut seen = 0;
            for b in 0..8usize {
                for &d in r.bucket_documents(rep, b) {
                    assert_eq!(r.bucket_of(rep, d), b as u32);
                    seen += 1;
                }
            }
            assert_eq!(seen, 50, "every doc in exactly one bucket per table");
        }
    }

    #[test]
    fn buckets_are_roughly_balanced() {
        let mut r = Rambo::new(RamboParams::flat(16, 1, 1 << 10, 2, 7)).unwrap();
        for i in 0..1600 {
            r.add_document(&format!("doc{i}")).unwrap();
        }
        for b in 0..16usize {
            let n = r.bucket_documents(0, b).len();
            assert!((40..200).contains(&n), "bucket {b} holds {n} docs");
        }
    }

    #[test]
    fn insert_rejects_unknown_doc() {
        let mut r = small();
        assert!(matches!(
            r.insert_term_u64(5, 123),
            Err(RamboError::UnknownDocument(5))
        ));
    }

    #[test]
    fn insert_sets_bits_in_every_repetition() {
        let mut r = small();
        let d = r.add_document("x").unwrap();
        r.insert_term_u64(d, 0xDEAD_BEEF).unwrap();
        for rep in 0..3 {
            let b = r.bucket_of(rep, d) as usize;
            assert!(
                r.bfu_contains_pair(rep, b, r.hash_u64_rep(rep, 0xDEAD_BEEF)),
                "rep {rep}"
            );
        }
        assert_eq!(r.total_inserts(), 1);
    }

    #[test]
    fn insert_document_streams_terms() {
        let mut r = small();
        let d = r.insert_document("y", [1u64, 2, 3]).unwrap();
        assert_eq!(r.total_inserts(), 3);
        for rep in 0..3 {
            let b = r.bucket_of(rep, d) as usize;
            for t in [1u64, 2, 3] {
                assert!(r.bfu_contains_pair(rep, b, r.hash_u64_rep(rep, t)));
            }
        }
    }

    #[test]
    fn two_level_scheme_constructs() {
        let p = RamboParams::two_level(4, 4, 2, 1 << 10, 2, 3);
        let mut r = Rambo::new(p).unwrap();
        assert_eq!(r.buckets(), 16);
        r.add_document("d").unwrap();
        assert!(matches!(
            r.params().partition,
            PartitionScheme::TwoLevel { .. }
        ));
    }

    #[test]
    fn size_accounts_bfus_and_aux() {
        let mut r = small();
        let bare = r.size_bytes();
        // 8 buckets × 3 reps × 4096 bits = 12 KiB of filters minimum.
        assert!(bare >= 8 * 3 * (1 << 12) / 8);
        r.add_document("some-name").unwrap();
        assert!(r.size_bytes() > bare);
    }

    #[test]
    fn fill_stats_track_insertions() {
        let mut r = small();
        let (mean0, max0) = r.fill_stats();
        assert_eq!((mean0, max0), (0.0, 0.0));
        let d = r.add_document("z").unwrap();
        for t in 0..200u64 {
            r.insert_term_u64(d, t).unwrap();
        }
        let (mean, max) = r.fill_stats();
        assert!(mean > 0.0 && max > mean / 2.0);
        assert!(r.estimated_bfu_fpr() > 0.0);
    }

    /// The §2.1 estimate `(1 − e^{−ηn/m})^η` the FPR predictions are built
    /// on holds for a BFU: one document of `n` distinct terms in BFUs sized
    /// for 1 % (η = ⌈−log₂ 0.01⌉ = 7), probed with absent terms in every
    /// repetition.
    #[test]
    fn measured_fpr_tracks_target() {
        let n = 2000;
        let m = rambo_bloom::params::optimal_m(n, 0.01);
        let mut r = Rambo::new(RamboParams::flat(2, 3, m, 7, 3)).unwrap();
        let d = r.insert_document("doc", 0..n as u64).unwrap();
        let expected = expected_fpr(m, n, 7);
        let trials = 50_000u64;
        for rep in 0..3 {
            let bucket = r.bucket_of(rep, d) as usize;
            let fp = (0..trials)
                .map(|t| 1_000_000 + t)
                .filter(|&t| r.bfu_contains_pair(rep, bucket, r.hash_u64_rep(rep, t)))
                .count();
            let rate = fp as f64 / trials as f64;
            assert!(
                (rate - expected).abs() < 0.25 * expected,
                "rep {rep}: measured {rate} vs expected {expected}"
            );
        }
    }
}
