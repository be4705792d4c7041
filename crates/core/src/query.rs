//! Algorithm 2 (query) and the θ-threshold sequence query — one evaluator
//! for every caller.
//!
//! A query against one repetition is: probe the BFUs (η contiguous row reads
//! of the position-major matrix, ANDed into a `B`-bit bucket mask — see
//! [`crate::matrix`]), union the document sets of the buckets whose BFU
//! answered *true*, and intersect those unions across repetitions. The
//! paper's §5.1 measured the AND at under 5% of query cycles; the row-major
//! probe plus word-AND here reproduces that design. An AND query is also
//! §3.3.1's large-sequence query: a document holds every term in every
//! repetition exactly when, in every repetition, its BFU holds every term,
//! and evaluation stops at the first repetition whose bucket mask or
//! intersection empties ("the first returned FALSE will be conclusive").
//!
//! # One planned probe
//!
//! Every verb runs on the same **row plan**: when evaluation reaches a
//! repetition, each term is hashed once with that repetition's Bloom seed
//! (each repetition has an independent Bloom family — see the seed
//! discussion on [`Rambo`]) and its η filter rows are written, as word
//! offsets into the row-major matrix, to one flat scratch vector in the
//! [`QueryContext`]. The probe then does nothing but move those rows: one
//! [`rambo_bitvec::kernel::and_gather_rows_into_any`] call ANDs a whole
//! repetition's rows into the bucket mask. Planning per repetition, not per
//! query, means a query that dies in repetition 0 never hashes for the rest.
//! A static catalog tier, a zero-copy view, a paged file or a live tenant's
//! matrix are all the same [`Rambo`] to it.
//!
//! AND materializes each repetition's union as a `K`-bit document bitmap
//! and word-ANDs them (the paper's base RAMBO with "bitmap arrays", §5.1).
//! θ builds per-term bucket masks (one η-AND each), counts term hits per
//! *bucket* and verifies only the documents whose buckets reach the
//! threshold.
//!
//! [`QueryMode::Sparse`] selects the reference instead: Algorithm 2 as
//! written, in a private module that shares no plan, kernel or scratch with
//! this one. The property suites and the benchmark's oracle hold the planned
//! probe against it.

use crate::index::{DocId, Rambo};
use crate::reference;
use rambo_bitvec::kernel::{self, ColumnCounter};
use rambo_bitvec::BitVec;
use rambo_hash::{HashPair, Modulus};

/// Which evaluator answers a query. Both return the same documents.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// The planned probe of this module: the one evaluator, and the only
    /// one anything serves.
    #[default]
    Full,
    /// The reference: Algorithm 2 as written, one single-bit probe per
    /// (repetition, bucket, term), sharing no plan, kernel or scratch with
    /// `Full`. It is for tests and the benchmark's oracle, never a serving
    /// strategy.
    Sparse,
}

/// Reusable query scratch space. Query latency at RAMBO's scale is dominated
/// by cache behaviour; reusing the buffers means a warmed-up context
/// allocates nothing per query but the returned id list.
#[derive(Debug, Default)]
pub struct QueryContext {
    /// The current repetition's row plan: η word offsets per term,
    /// term-major (see the [module docs](self)).
    rows: Vec<usize>,
    /// Bucket mask for the per-table probe (`⌈B/64⌉` words).
    mask: Vec<u64>,
    /// Intersection accumulator across repetitions (`K` bits).
    acc: BitVec,
    /// Per-repetition union bitmap (`K` bits).
    tbl: BitVec,
    /// Per-(repetition, term) bucket masks, repetition-major (θ).
    term_masks: Vec<u64>,
    /// Per-repetition bitmaps of buckets reaching the θ threshold.
    passing: Vec<u64>,
    /// Per-bucket term-hit counters (θ).
    bucket_counts: ColumnCounter,
}

/// Grow `v` to at least `len` entries (never shrink it).
fn grow<T: Clone + Default>(v: &mut Vec<T>, len: usize) {
    if v.len() < len {
        v.resize(len, T::default());
    }
}

impl QueryContext {
    /// Fresh context; buffers are sized lazily on first use.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Size the scratch buffers for an index with `docs` documents and
    /// `buckets` buckets.
    ///
    /// **Invariant: buffer reuse is monotonic.** Every buffer only ever
    /// grows, so a context alternating between indexes of different geometry
    /// keeps its largest allocation instead of thrashing the allocator. This
    /// is sound because every query path fully re-initializes the prefix it
    /// reads: `mask[..⌈B/64⌉]` is refilled per repetition, `tbl` is cleared
    /// per repetition, `acc` is overwritten from `tbl` at repetition 0 (and
    /// only documents `< docs` are ever set), and the θ mask arena and the
    /// bucket counters are reset per θ-query. The row plan is rewritten
    /// before each use.
    fn ensure(&mut self, docs: usize, buckets: usize) {
        if self.acc.len() < docs {
            self.acc = BitVec::zeros(docs);
            self.tbl = BitVec::zeros(docs);
        }
        grow(&mut self.mask, buckets.div_ceil(64));
    }
}

/// The per-repetition planner of `terms` for an index of `geometry`'s shape:
/// given a repetition's Bloom seed, it overwrites the vector with the η row
/// offsets of every term, term-major. The row positions are
/// [`HashPair::index`] (through a [`Modulus`] built once here: a 200-term
/// query takes 1 200 of them), so they match insertion bit for bit.
fn planner<'a>(geometry: &Rambo, terms: &'a [u64]) -> impl Fn(u64, &mut Vec<usize>) + 'a {
    let eta = geometry.params().eta;
    let m = Modulus::new(geometry.params().bfu_bits as u64);
    let row_words = (geometry.buckets() as usize).div_ceil(64);
    move |seed, rows| {
        rows.clear();
        for &term in terms {
            let pair = HashPair::of_u64(term, seed);
            rows.extend((0..eta).map(|j| pair.index_in(j, &m) as usize * row_words));
        }
    }
}

/// Set the low `bits` bits of `mask`, zero the rest of its last word.
fn fill_ones(mask: &mut [u64], bits: usize) {
    mask.fill(u64::MAX);
    let tail = bits % 64;
    if tail != 0 {
        mask[bits / 64] = (1u64 << tail) - 1;
    }
}

/// Indices of the set bits of a word slice, ascending.
fn ones(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        std::iter::successors((word != 0).then_some(word), |&rest| {
            let rest = rest & (rest - 1);
            (rest != 0).then_some(rest)
        })
        .map(move |rest| w * 64 + rest.trailing_zeros() as usize)
    })
}

fn bit(words: &[u64], i: usize) -> bool {
    (words[i / 64] >> (i % 64)) & 1 == 1
}

/// Probe every repetition's whole matrix, union into `K`-bit bitmaps,
/// intersect across repetitions.
fn query_full(index: &Rambo, terms: &[u64], ctx: &mut QueryContext) -> Vec<DocId> {
    let b = index.buckets() as usize;
    ctx.ensure(index.num_documents(), b);
    let plan = planner(index, terms);
    let QueryContext {
        rows,
        mask,
        acc,
        tbl,
        ..
    } = ctx;
    let mask = &mut mask[..b.div_ceil(64)];
    for (rep, (&seed, table)) in index.bloom_seeds.iter().zip(&index.tables).enumerate() {
        plan(seed, rows);
        fill_ones(mask, b);
        if !table.matrix.and_rows_into(rows, mask) {
            return Vec::new(); // no BFU holds every term: the union is empty
        }
        tbl.clear_all();
        for bucket in ones(mask) {
            for &d in &table.buckets[bucket] {
                tbl.set(d as usize);
            }
        }
        // Fused AND + liveness (one unrolled pass — see
        // [`rambo_bitvec::kernel`]): stop the moment the intersection
        // empties, it is already conclusive.
        let live = if rep == 0 {
            acc.copy_from(tbl);
            acc.any()
        } else {
            acc.and_assign_any(tbl)
        };
        if !live {
            return Vec::new();
        }
    }
    acc.iter_ones().map(|i| i as DocId).collect()
}

/// θ: filter at bucket granularity, then verify.
///
/// A term hits a document only if it hits the document's bucket in every
/// repetition, so a document's hit count is at most the smallest, over
/// repetitions, of its bucket's hit count. Per repetition, each term's
/// `B`-bit mask is built on the shared row plan and summed per bucket with
/// bit-sliced counters (`B` bits of work per term, not `K`); only documents
/// whose `R` buckets all reach `needed` are counted exactly, from the
/// retained masks.
fn theta_by_bucket_count(
    index: &Rambo,
    terms: &[u64],
    needed: usize,
    ctx: &mut QueryContext,
) -> Vec<DocId> {
    let rw = (index.buckets() as usize).div_ceil(64);
    let n = terms.len();
    let eta = index.params().eta as usize;
    let reps = index.repetitions();
    let plan = planner(index, terms);
    let QueryContext {
        rows,
        term_masks,
        passing,
        bucket_counts,
        ..
    } = ctx;
    grow(term_masks, reps * n * rw);
    grow(passing, reps * rw);
    for (rep, (&seed, table)) in index.bloom_seeds.iter().zip(&index.tables).enumerate() {
        plan(seed, rows);
        bucket_counts.reset(rw);
        let masks = &mut term_masks[rep * n * rw..(rep + 1) * n * rw];
        table.matrix.term_masks_into(rows, eta, masks);
        bucket_counts.add_rows(masks);
        let passing = &mut passing[rep * rw..(rep + 1) * rw];
        bucket_counts.at_least(needed, passing);
        if !kernel::any(passing) {
            return Vec::new(); // no bucket of this repetition can hold a match
        }
    }
    // Exact count: a term hits `doc` if its mask holds the document's bucket
    // in every repetition.
    let reaches_needed = |doc: usize| {
        let buckets = |rep: usize| index.tables[rep].assign[doc] as usize;
        if !(1..reps).all(|rep| bit(&passing[rep * rw..], buckets(rep))) {
            return false;
        }
        let mut hits = 0;
        for t in 0..n {
            let hit = (0..reps).all(|rep| bit(&term_masks[(rep * n + t) * rw..], buckets(rep)));
            hits += usize::from(hit);
            // Decided either way: enough hits, or too many misses to recover.
            if hits >= needed || t + 1 - hits > n - needed {
                break;
            }
        }
        hits >= needed
    };
    let mut out = Vec::new();
    for bucket in ones(&passing[..rw]) {
        let docs = &index.tables[0].buckets[bucket];
        out.extend(docs.iter().filter(|&&d| reaches_needed(d as usize)));
    }
    out.sort_unstable();
    out
}

impl Rambo {
    /// Query a single packed 64-bit term (allocates a fresh context; use
    /// [`Rambo::query_terms_with`] with a reused [`QueryContext`] on hot
    /// paths).
    #[must_use]
    pub fn query_u64(&self, term: u64) -> Vec<DocId> {
        let mut ctx = QueryContext::new();
        self.query_terms_with(&[term], QueryMode::Full, &mut ctx)
    }

    /// Query a multi-term set under Algorithm 2 semantics (a BFU matches only
    /// if it contains *all* terms).
    #[must_use]
    pub fn query_terms_u64(&self, terms: &[u64], mode: QueryMode) -> Vec<DocId> {
        let mut ctx = QueryContext::new();
        self.query_terms_with(terms, mode, &mut ctx)
    }

    /// The core of Algorithm 2 over packed terms, with caller-owned scratch
    /// space. Returns matching document ids in ascending order.
    ///
    /// Zero false negatives: every document actually containing all terms is
    /// returned (its BFUs contain every term in every repetition, so it
    /// survives each union and the final intersection).
    ///
    /// This is also the large-sequence query of §3.3.1: intersecting the
    /// per-term answers keeps the documents that hold every term in every
    /// repetition, which is exactly this answer, and evaluation stops at the
    /// first repetition that leaves nothing ("the first returned FALSE will
    /// be conclusive").
    #[must_use]
    pub fn query_terms_with(
        &self,
        terms: &[u64],
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        // Both evaluators see the same inputs: empty cases end here.
        if self.num_documents() == 0 || terms.is_empty() {
            return Vec::new();
        }
        match mode {
            QueryMode::Full => query_full(self, terms, ctx),
            QueryMode::Sparse => reference::all_terms(self, terms),
        }
    }

    /// θ-fraction sequence query: return documents that (appear to) contain
    /// at least `⌈theta · terms.len()⌉` of the query terms, counted with
    /// multiplicity.
    ///
    /// Strict intersection (θ = 1) is brittle on raw-read workloads: a
    /// sequencing error or coverage gap removes a single k-mer from the
    /// indexed set and empties the result. The SBT family answers sequence
    /// queries with a θ threshold for exactly this reason; this method gives
    /// RAMBO the same robustness. Documents are returned in ascending id
    /// order; queries that can no longer reach the threshold abort early.
    ///
    /// ```
    /// use rambo_core::{QueryContext, QueryMode, Rambo, RamboParams};
    ///
    /// let mut index = Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 7)).unwrap();
    /// let doc = index.insert_document("run-1", 0..100u64).unwrap();
    ///
    /// // Two of five query terms were never indexed (read errors): the
    /// // strict intersection fails, θ = 0.6 still recovers the document.
    /// let seq = [1u64, 2, 3, 9999, 8888];
    /// let mut ctx = QueryContext::new();
    /// assert!(index.query_terms_u64(&seq, QueryMode::Full).is_empty());
    /// let hits = index.query_sequence_theta(&seq, 0.6, QueryMode::Full, &mut ctx);
    /// assert_eq!(hits, vec![doc]);
    /// ```
    ///
    /// # Panics
    /// Panics unless `0 < theta ≤ 1`.
    #[must_use]
    pub fn query_sequence_theta(
        &self,
        terms: &[u64],
        theta: f64,
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        // Both evaluators see the same inputs: empty cases end here.
        if self.num_documents() == 0 || terms.is_empty() {
            return Vec::new();
        }
        let needed = ((theta * terms.len() as f64).ceil() as usize).max(1);
        match mode {
            QueryMode::Full => theta_by_bucket_count(self, terms, needed, ctx),
            QueryMode::Sparse => reference::theta(self, terms, needed),
        }
    }

    /// Convenience: resolve query results to document names.
    #[must_use]
    pub fn resolve_names(&self, ids: &[DocId]) -> Vec<&str> {
        ids.iter().map(|&d| self.document_name(d)).collect()
    }
}

/// Salts decorrelating the two 64-bit halves of the query keys.
const QUERY_KEY_SALT_LO: u64 = 0x9E37_79B9_7F4A_7C15;
const QUERY_KEY_SALT_HI: u64 = 0xC2B2_AE3D_27D4_EB4F;

/// A 128-bit key identifying a query's term **set**, independent of term
/// order and multiplicity: `[b, a, a]` and `[a, b]` produce the same key,
/// mirroring Algorithm 2's semantics (probing a term twice ANDs the same
/// mask twice — idempotent), so any serving-layer result cache keyed by
/// this value returns bit-identical answers for every phrasing of the same
/// set.
///
/// It is the [`multiset_query_key`] of the distinct terms: no sort is needed
/// for the already-strictly-sorted batches the ingestion paths produce;
/// unsorted inputs pay one sort+dedupe of a scratch copy.
///
/// ```
/// use rambo_core::canonical_query_key;
///
/// assert_eq!(
///     canonical_query_key(&[3, 1, 2, 2]),
///     canonical_query_key(&[1, 2, 3]),
/// );
/// assert_ne!(canonical_query_key(&[1, 2]), canonical_query_key(&[1, 2, 3]));
/// ```
#[must_use]
pub fn canonical_query_key(terms: &[u64]) -> u128 {
    if terms.windows(2).all(|w| w[0] < w[1]) {
        multiset_query_key(terms)
    } else {
        let mut sorted = terms.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        multiset_query_key(&sorted)
    }
}

/// A 128-bit key identifying a query's term **multiset**: independent of
/// term order but not of multiplicity, so `[a, b]` and `[b, a]` share a key
/// while `[a, a, b]` gets its own. This is the key for θ-threshold sequence
/// queries, which count a repeated term once per occurrence — under
/// [`canonical_query_key`] a cached answer for `[a, b]` would be served for
/// `[a, a, b]`, whose threshold `a` alone can reach.
///
/// The combine is a commutative wrapping sum of two independently salted
/// [`rambo_hash::mix64`] images per term, folded with the term count —
/// order-insensitive by construction, no sort needed.
///
/// ```
/// use rambo_core::multiset_query_key;
///
/// assert_eq!(multiset_query_key(&[3, 1, 2]), multiset_query_key(&[1, 2, 3]));
/// assert_ne!(multiset_query_key(&[1, 1, 2]), multiset_query_key(&[1, 2]));
/// ```
#[must_use]
pub fn multiset_query_key(terms: &[u64]) -> u128 {
    use rambo_hash::mix64;
    let mut lo = 0u64;
    let mut hi = 0u64;
    for &t in terms {
        lo = lo.wrapping_add(mix64(t ^ QUERY_KEY_SALT_LO));
        hi = hi.wrapping_add(mix64(t.rotate_left(32) ^ QUERY_KEY_SALT_HI));
    }
    // Fold the count into both halves so `{}`-padding or truncation
    // collisions cannot survive the final mix.
    let n = terms.len() as u64;
    (u128::from(mix64(lo ^ n)) << 64) | u128::from(mix64(hi ^ n.rotate_left(17)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RamboParams;

    /// A small index over synthetic documents with known term sets.
    fn build(k: usize, terms_per_doc: usize, seed: u64) -> (Rambo, Vec<Vec<u64>>) {
        let params = RamboParams::flat(8, 3, 1 << 14, 2, seed);
        let mut r = Rambo::new(params).unwrap();
        let mut contents = Vec::new();
        for d in 0..k {
            // Disjoint term ranges per doc, plus one shared term 0xFFFF.
            let base = (d as u64) << 32;
            let mut ts: Vec<u64> = (0..terms_per_doc as u64).map(|t| base | t).collect();
            ts.push(0xFFFF);
            r.insert_document(&format!("doc{d}"), ts.iter().copied())
                .unwrap();
            contents.push(ts);
        }
        (r, contents)
    }

    #[test]
    fn zero_false_negatives_single_term() {
        let (r, contents) = build(30, 50, 1);
        for (d, ts) in contents.iter().enumerate() {
            for &t in ts.iter().take(5) {
                let hits = r.query_u64(t);
                assert!(
                    hits.contains(&(d as DocId)),
                    "doc {d} missing for its own term {t:#x}"
                );
            }
        }
    }

    #[test]
    fn shared_term_returns_all_documents() {
        let (r, _) = build(20, 30, 2);
        let hits = r.query_u64(0xFFFF);
        assert_eq!(hits.len(), 20, "shared term must hit every doc");
        // Ascending order.
        assert!(hits.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn absent_term_mostly_returns_empty() {
        let (r, _) = build(30, 50, 3);
        let mut nonempty = 0;
        for probe in 0..200u64 {
            // Terms outside every doc's range.
            if !r.query_u64(0xDEAD_0000_0000 + probe).is_empty() {
                nonempty += 1;
            }
        }
        assert!(
            nonempty < 20,
            "too many false-positive result sets: {nonempty}"
        );
    }

    /// With independent per-repetition Bloom families, a Bloom failure in
    /// one repetition is uncorrelated with the others, so false positives
    /// need all R tables to fail *independently*. Regression test for the
    /// shared-seed bug where a document's own bits made its buckets pass in
    /// every repetition at once.
    #[test]
    fn repetitions_fail_independently() {
        let (r, _) = build(40, 300, 4); // heavy fill: single-table FPs common
        let mut single_fp = 0usize;
        let mut all_rep_fp = 0usize;
        for probe in 0..400u64 {
            let t = 0xCCCC_0000_0000 + probe;
            // Count docs passing in repetition 0 only vs in the full query.
            for d in 0..40u32 {
                let b0 = r.bucket_of(0, d) as usize;
                if r.bfu_contains_pair(0, b0, r.hash_u64_rep(0, t)) {
                    single_fp += 1;
                }
            }
            all_rep_fp += r.query_u64(t).len();
        }
        assert!(single_fp > 0, "test needs observable single-table FPs");
        // The full-query FP count must be dramatically below the
        // single-table count (here: orders of magnitude).
        assert!(
            all_rep_fp * 10 < single_fp,
            "repetitions look correlated: single {single_fp}, full {all_rep_fp}"
        );
    }

    #[test]
    fn sparse_equals_full() {
        let (r, contents) = build(40, 40, 4);
        let mut ctx_f = QueryContext::new();
        let mut ctx_s = QueryContext::new();
        // Present terms, the shared term, and absent terms.
        let mut probes: Vec<u64> = contents.iter().flat_map(|ts| ts[..3].to_vec()).collect();
        probes.push(0xFFFF);
        probes.extend((0..50).map(|i| 0xABCD_0000_0000u64 + i));
        for t in probes {
            let full = r.query_terms_with(&[t], QueryMode::Full, &mut ctx_f);
            let sparse = r.query_terms_with(&[t], QueryMode::Sparse, &mut ctx_s);
            assert_eq!(full, sparse, "modes disagree on term {t:#x}");
        }
    }

    #[test]
    fn multi_term_narrows_to_owner() {
        let (r, contents) = build(25, 40, 5);
        // Terms 0..4 of doc 7 identify it uniquely (plus possible FPs, but
        // never missing it).
        let hits = r.query_terms_u64(&contents[7][..4], QueryMode::Full);
        assert!(hits.contains(&7));
        // All-terms semantics must be at least as selective as any single term.
        let single = r.query_u64(contents[7][0]);
        assert!(hits.iter().all(|d| single.contains(d)));
    }

    #[test]
    fn sequence_query_intersects_terms() {
        let (r, contents) = build(25, 40, 6);
        let hits = r.query_terms_u64(&contents[3][..6], QueryMode::Full);
        assert!(hits.contains(&3));
        // A sequence mixing two docs' exclusive terms matches nobody.
        let mixed = [contents[3][0], contents[4][0]];
        let hits = r.query_terms_u64(&mixed, QueryMode::Full);
        assert!(!hits.contains(&3) || !hits.contains(&4));
    }

    #[test]
    fn all_terms_result_equals_intersection_of_single_terms() {
        // Per-BFU all-terms (Algorithm 2) equals term-at-a-time intersection
        // (§3.3.1): both keep the documents holding every term in every
        // repetition. A mixed window (another document's term, an absent
        // term) must agree too.
        let (r, contents) = build(30, 40, 7);
        for d in [0usize, 9, 21] {
            let mut mixed = contents[d][..3].to_vec();
            mixed.extend([contents[(d + 1) % 30][0], 0xFFFF, 0xDEAD_0000_0003]);
            for q in [&contents[d][..5], &mixed[..4], &mixed] {
                let joint = r.query_terms_u64(q, QueryMode::Full);
                let mut seq = r.query_u64(q[0]);
                for &t in &q[1..] {
                    let hits = r.query_u64(t);
                    seq.retain(|x| hits.contains(x));
                }
                assert_eq!(joint, seq, "query {q:x?}");
            }
            assert!(r
                .query_terms_u64(&contents[d][..5], QueryMode::Full)
                .contains(&(d as DocId)));
        }
    }

    #[test]
    fn sequence_query_modes_agree() {
        let (r, contents) = build(20, 30, 11);
        for d in [2usize, 13] {
            let mut q = contents[d][..4].to_vec();
            for _ in 0..2 {
                assert_eq!(
                    r.query_terms_u64(&q, QueryMode::Full),
                    r.query_terms_u64(&q, QueryMode::Sparse)
                );
                q.push(contents[d + 1][0]); // another document's term
            }
        }
    }

    #[test]
    fn empty_inputs() {
        let (r, _) = build(5, 10, 8);
        let empty = Rambo::new(RamboParams::flat(4, 2, 1024, 2, 0)).unwrap();
        let mut ctx = QueryContext::new();
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            assert!(r.query_terms_u64(&[], mode).is_empty());
            assert!(r.query_sequence_theta(&[], 0.5, mode, &mut ctx).is_empty());
            assert!(empty.query_terms_u64(&[42], mode).is_empty());
            assert!(empty
                .query_sequence_theta(&[42], 1.0, mode, &mut ctx)
                .is_empty());
        }
    }

    #[test]
    fn context_reuse_is_sound() {
        let (r, contents) = build(20, 30, 9);
        let mut ctx = QueryContext::new();
        // Interleave queries with very different result sizes.
        let a1 = r.query_terms_with(&[0xFFFF], QueryMode::Full, &mut ctx);
        let b1 = r.query_terms_with(&[contents[0][0]], QueryMode::Full, &mut ctx);
        let a2 = r.query_terms_with(&[0xFFFF], QueryMode::Full, &mut ctx);
        let b2 = r.query_terms_with(&[contents[0][0]], QueryMode::Full, &mut ctx);
        assert_eq!(a1, a2);
        assert_eq!(b1, b2);
    }

    #[test]
    fn resolve_names_maps_ids() {
        let (r, _) = build(3, 5, 10);
        let hits = r.query_u64(0xFFFF);
        let names = r.resolve_names(&hits);
        assert_eq!(names, vec!["doc0", "doc1", "doc2"]);
    }

    #[test]
    fn theta_query_tolerates_missing_terms() {
        let (r, contents) = build(20, 40, 12);
        let mut ctx = QueryContext::new();
        // Query doc 5's terms plus two absent terms: strict intersection
        // fails, θ = 0.7 still finds the owner.
        let mut q: Vec<u64> = contents[5][..8].to_vec();
        q.push(0xDEAD_0000_0001);
        q.push(0xDEAD_0000_0002);
        let strict = r.query_terms_u64(&q, QueryMode::Full);
        assert!(strict.is_empty(), "absent terms must break strict AND");
        let theta = r.query_sequence_theta(&q, 0.7, QueryMode::Full, &mut ctx);
        assert!(theta.contains(&5), "theta query must recover the owner");
        // θ = 1 equals the strict conjunction semantics on per-term results.
        let theta1 = r.query_sequence_theta(&q, 1.0, QueryMode::Full, &mut ctx);
        assert_eq!(theta1, strict);
    }

    #[test]
    fn theta_query_early_exit_on_hopeless_queries() {
        let (r, _) = build(10, 20, 13);
        let mut ctx = QueryContext::new();
        let absent: Vec<u64> = (0..10).map(|i| 0xBBBB_0000_0000u64 + i).collect();
        for mode in [QueryMode::Full, QueryMode::Sparse] {
            assert!(r
                .query_sequence_theta(&absent, 0.9, mode, &mut ctx)
                .is_empty());
        }
    }

    #[test]
    fn canonical_query_key_is_order_and_multiplicity_insensitive() {
        let sorted = [1u64, 5, 9, 42];
        let shuffled = [42u64, 9, 1, 5];
        let duplicated = [5u64, 1, 42, 9, 5, 1, 1];
        let k = canonical_query_key(&sorted);
        assert_eq!(k, canonical_query_key(&shuffled));
        assert_eq!(k, canonical_query_key(&duplicated));
        // Distinct sets get distinct keys (w.h.p.; these literals do).
        assert_ne!(k, canonical_query_key(&[1u64, 5, 9]));
        assert_ne!(k, canonical_query_key(&[1u64, 5, 9, 43]));
        assert_ne!(canonical_query_key(&[]), canonical_query_key(&[0]));
        // Subset-sum padding: {a} vs {a, a} must collapse, {a} vs {a, 0}
        // must not (0 hashes to a non-zero image).
        assert_eq!(canonical_query_key(&[7, 7]), canonical_query_key(&[7]));
        assert_ne!(canonical_query_key(&[7, 0]), canonical_query_key(&[7]));
    }
}
