//! Algorithm 2 (query), the RAMBO+ sparse evaluation of §5.1, and the
//! large-sequence query protocol of §3.3.1 — one evaluator for every caller.
//!
//! A query against one repetition is: probe the BFUs (η contiguous row reads
//! of the position-major matrix, ANDed into a `B`-bit bucket mask — see
//! [`crate::matrix`]), union the document sets of the buckets whose BFU
//! answered *true*, and intersect those unions across repetitions. The
//! paper's §5.1 measured the AND at under 5% of query cycles; the row-major
//! probe plus word-AND here reproduces that design.
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
//!
//! Every evaluator takes one [`Rambo`]: a static catalog tier, a zero-copy
//! view, a paged file or a live tenant's matrix are all the same index to
//! it, and the planned rows feed the matrix's own kernels — the gather-AND,
//! or θ's per-term η-AND.
//!
//! Two evaluation strategies:
//!
//! * [`QueryMode::Full`] materializes each repetition's union as a `K`-bit
//!   document bitmap and word-ANDs them (the paper's base RAMBO with
//!   "bitmap arrays", §5.1).
//! * [`QueryMode::Sparse`] is **RAMBO+**: repetitions are evaluated
//!   sequentially over an explicit candidate list — repetition `r` only
//!   probes the buckets that still hold live candidates, memoized. Its cost
//!   is Lemma 4.4's `B·η + (K/B)(V + B·p)·R` with no `O(K)` bitmap pass.
//!
//! θ-threshold sequence queries use the two modes as two independent
//! strategies: Full counts term hits per *bucket* first and verifies only the
//! documents whose buckets reach the threshold; Sparse runs one single-term
//! RAMBO+ query per term and counts per document. The property suites and the
//! benchmark's oracle hold one against the other.

use crate::index::{DocId, Rambo};
use rambo_bitvec::kernel::{self, ColumnCounter};
use rambo_bitvec::BitVec;
use rambo_hash::{HashPair, Modulus};

/// Evaluation strategy for Algorithm 2.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QueryMode {
    /// Probe all `B × R` BFUs and intersect `K`-bit bitmaps (base RAMBO).
    #[default]
    Full,
    /// RAMBO+ sparse sequential evaluation over candidate lists (§5.1
    /// "Query time speedup").
    Sparse,
}

/// Reusable query scratch space. Query latency at RAMBO's scale is dominated
/// by cache behaviour; reusing the buffers means a warmed-up context
/// allocates nothing per query but the returned id list.
#[derive(Debug)]
pub struct QueryContext {
    /// The current repetition's row plan: η word offsets per term,
    /// term-major (see the [module docs](self)).
    rows: Vec<usize>,
    /// Bucket mask for the per-table probe (`⌈B/64⌉` words).
    mask: Vec<u64>,
    /// One decoded RRR row, for probes of non-dense storage.
    row_scratch: Vec<u64>,
    /// Intersection accumulator across repetitions (`K` bits, Full mode).
    acc: BitVec,
    /// Per-repetition union bitmap (`K` bits, Full mode).
    tbl: BitVec,
    /// Probe memo per bucket: 0 unknown, 1 true, 2 false (Sparse mode).
    probes: Vec<u8>,
    /// Live candidates (Sparse mode).
    candidates: Vec<DocId>,
    /// Per-document hit counts (Sparse-mode θ queries).
    counts: Vec<u32>,
    /// Per-(repetition, term) bucket masks, repetition-major (Full-mode θ).
    term_masks: Vec<u64>,
    /// Per-repetition bitmaps of buckets reaching the θ threshold.
    passing: Vec<u64>,
    /// Per-bucket term-hit counters (Full-mode θ).
    bucket_counts: ColumnCounter,
}

impl Default for QueryContext {
    fn default() -> Self {
        Self::new()
    }
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
        Self {
            rows: Vec::new(),
            mask: Vec::new(),
            row_scratch: Vec::new(),
            acc: BitVec::zeros(0),
            tbl: BitVec::zeros(0),
            probes: Vec::new(),
            candidates: Vec::new(),
            counts: Vec::new(),
            term_masks: Vec::new(),
            passing: Vec::new(),
            bucket_counts: ColumnCounter::new(0),
        }
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
    /// only documents `< docs` are ever set), `probes[..buckets]` is zeroed
    /// per repetition, and `counts[..docs]`, the θ mask arena and the bucket
    /// counters are reset per θ-query. The row plan and the row staging are
    /// rewritten before each use.
    fn ensure(&mut self, docs: usize, buckets: usize) {
        if self.acc.len() < docs {
            self.acc = BitVec::zeros(docs);
            self.tbl = BitVec::zeros(docs);
        }
        grow(&mut self.mask, buckets.div_ceil(64));
        grow(&mut self.probes, buckets);
    }
}

/// The per-repetition planner of one query: given a repetition's Bloom seed,
/// overwrite the vector with the η row offsets of every term, term-major.
type Planner<'a> = dyn Fn(u64, &mut Vec<usize>) + 'a;

/// Build the [`Planner`] of `terms` for an index of `geometry`'s shape.
/// `hash` is the only thing that differs between packed and byte terms; the
/// row positions are [`HashPair::index`] (through a [`Modulus`] built once
/// here: a 200-term query takes 1 200 of them), so they match insertion bit
/// for bit.
fn planner<'a, T>(
    geometry: &Rambo,
    terms: &'a [T],
    hash: impl Fn(&T, u64) -> HashPair + 'a,
) -> impl Fn(u64, &mut Vec<usize>) + 'a {
    let eta = geometry.params().eta;
    let m = Modulus::new(geometry.params().bfu_bits as u64);
    let row_words = (geometry.buckets() as usize).div_ceil(64);
    move |seed, rows| {
        rows.clear();
        for term in terms {
            let pair = hash(term, seed);
            rows.extend((0..eta).map(|j| pair.index_in(j, &m) as usize * row_words));
        }
    }
}

fn hash_u64(term: &u64, seed: u64) -> HashPair {
    HashPair::of_u64(*term, seed)
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

/// Algorithm 2 with caller-owned scratch: ids of the documents whose BFUs
/// hold *all* `terms`, ascending. `hash` maps a term and a repetition's Bloom
/// seed to its [`HashPair`].
fn evaluate<T>(
    index: &Rambo,
    terms: &[T],
    hash: impl Fn(&T, u64) -> HashPair,
    mode: QueryMode,
    ctx: &mut QueryContext,
) -> Vec<DocId> {
    let docs = index.num_documents();
    if docs == 0 || terms.is_empty() {
        return Vec::new();
    }
    ctx.ensure(docs, index.buckets() as usize);
    let plan = planner(index, terms, hash);
    match mode {
        QueryMode::Full => query_full(index, &plan, ctx),
        QueryMode::Sparse => query_sparse(index, &plan, ctx),
    }
}

/// Full evaluation: probe every repetition's whole matrix, union into
/// `K`-bit bitmaps, intersect across repetitions.
fn query_full(index: &Rambo, plan: &Planner<'_>, ctx: &mut QueryContext) -> Vec<DocId> {
    let b = index.buckets() as usize;
    let QueryContext {
        rows,
        mask,
        row_scratch,
        acc,
        tbl,
        ..
    } = ctx;
    let mask = &mut mask[..b.div_ceil(64)];
    for (rep, (&seed, table)) in index.bloom_seeds.iter().zip(&index.tables).enumerate() {
        plan(seed, rows);
        fill_ones(mask, b);
        if !table.matrix.and_rows_into(rows, mask, row_scratch) {
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

/// RAMBO+ evaluation: repetition 0 probes the matrix once and gathers an
/// explicit candidate list; repetition `r > 0` probes only the buckets
/// holding surviving candidates, memoized per bucket.
fn query_sparse(index: &Rambo, plan: &Planner<'_>, ctx: &mut QueryContext) -> Vec<DocId> {
    let b = index.buckets() as usize;
    let QueryContext {
        rows,
        mask,
        row_scratch,
        probes,
        candidates,
        ..
    } = ctx;
    let mask = &mut mask[..b.div_ceil(64)];
    candidates.clear();
    for (rep, (&seed, table)) in index.bloom_seeds.iter().zip(&index.tables).enumerate() {
        plan(seed, rows);
        if rep == 0 {
            // Full matrix probe, then gather candidates from the matching
            // buckets (buckets partition the documents, so the
            // concatenation is duplicate-free; one sort restores id order).
            fill_ones(mask, b);
            if table.matrix.and_rows_into(rows, mask, row_scratch) {
                for bucket in ones(mask) {
                    candidates.extend_from_slice(&table.buckets[bucket]);
                }
                candidates.sort_unstable();
            }
        } else {
            probes[..b].fill(0);
            candidates.retain(|&doc| {
                let bucket = table.assign[doc as usize] as usize;
                if probes[bucket] == 0 {
                    let hit = rows
                        .iter()
                        .all(|&offset| table.matrix.bit_at(offset, bucket));
                    probes[bucket] = if hit { 1 } else { 2 };
                }
                probes[bucket] == 1
            });
        }
        if candidates.is_empty() {
            break;
        }
    }
    std::mem::take(candidates)
}

/// θ-fraction sequence query: ids of the documents that (appear to) contain
/// at least `⌈theta · terms.len()⌉` of the terms, counted with multiplicity,
/// ascending.
///
/// # Panics
/// Panics unless `0 < theta ≤ 1`.
fn evaluate_theta(
    index: &Rambo,
    terms: &[u64],
    theta: f64,
    mode: QueryMode,
    ctx: &mut QueryContext,
) -> Vec<DocId> {
    assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
    if index.num_documents() == 0 || terms.is_empty() {
        return Vec::new();
    }
    let needed = ((theta * terms.len() as f64).ceil() as usize).max(1);
    match mode {
        QueryMode::Full => theta_by_bucket_count(index, terms, needed, ctx),
        QueryMode::Sparse => theta_term_at_a_time(index, terms, needed, ctx),
    }
}

/// Full-mode θ: filter at bucket granularity, then verify.
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
    let plan = planner(index, terms, hash_u64);
    let QueryContext {
        rows,
        row_scratch,
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
        table.matrix.term_masks_into(rows, eta, masks, row_scratch);
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

/// Sparse-mode θ: one single-term RAMBO+ query per term, counted per
/// document — the strategy [`theta_by_bucket_count`] is held against.
fn theta_term_at_a_time(
    index: &Rambo,
    terms: &[u64],
    needed: usize,
    ctx: &mut QueryContext,
) -> Vec<DocId> {
    let k = index.num_documents();
    grow(&mut ctx.counts, k);
    ctx.counts[..k].fill(0);
    // Running maximum over all counts: increments only ever raise a single
    // counter, so tracking the max incrementally needs no O(K) scan per term.
    let mut max_count = 0usize;
    for (done, term) in terms.iter().enumerate() {
        let term = std::slice::from_ref(term);
        for d in evaluate(index, term, hash_u64, QueryMode::Sparse, ctx) {
            let c = &mut ctx.counts[d as usize];
            *c += 1;
            max_count = max_count.max(*c as usize);
        }
        // Early exit: even if every remaining term hit every document,
        // nobody can reach the threshold once the deficit is fatal.
        let remaining = terms.len() - done - 1;
        if max_count + remaining < needed {
            return Vec::new();
        }
    }
    ctx.counts[..k]
        .iter()
        .enumerate()
        .filter(|&(_, &c)| c as usize >= needed)
        .map(|(d, _)| d as DocId)
        .collect()
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

    /// Query a single byte term.
    #[must_use]
    pub fn query_bytes(&self, term: &[u8]) -> Vec<DocId> {
        let mut ctx = QueryContext::new();
        self.query_bytes_terms_with(&[term], QueryMode::Full, &mut ctx)
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
    #[must_use]
    pub fn query_terms_with(
        &self,
        terms: &[u64],
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        evaluate(self, terms, hash_u64, mode, ctx)
    }

    /// [`Rambo::query_terms_with`] for byte terms (words, raw k-mer text).
    #[must_use]
    pub fn query_bytes_terms_with(
        &self,
        terms: &[&[u8]],
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        let hash = |term: &&[u8], seed| HashPair::of_bytes(term, seed);
        evaluate(self, terms, hash, mode, ctx)
    }

    /// Large-sequence query (§3.3.1): membership-test each term of the query
    /// sequence and intersect the per-term results, stopping at the first
    /// term whose result empties the intersection ("the first returned FALSE
    /// will be conclusive"). The output is bounded by the rarest term.
    #[must_use]
    pub fn query_sequence_u64(&self, terms: &[u64], mode: QueryMode) -> Vec<DocId> {
        let mut ctx = QueryContext::new();
        self.query_sequence_with(terms, mode, &mut ctx)
    }

    /// [`Rambo::query_sequence_u64`] with caller-owned scratch space.
    #[must_use]
    pub fn query_sequence_with(
        &self,
        terms: &[u64],
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        let mut acc: Option<Vec<DocId>> = None;
        for &term in terms {
            let hits = self.query_terms_with(&[term], mode, ctx);
            acc = Some(match acc {
                None => hits,
                Some(prev) => intersect_sorted_ids(&prev, &hits),
            });
            if acc.as_ref().is_some_and(Vec::is_empty) {
                return Vec::new(); // first conclusive FALSE
            }
        }
        acc.unwrap_or_default()
    }

    /// θ-fraction sequence query: return documents that (appear to) contain
    /// at least `theta · terms.len()` of the query terms.
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
    /// assert!(index.query_sequence_u64(&seq, QueryMode::Full).is_empty());
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
        evaluate_theta(self, terms, theta, mode, ctx)
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

/// Merge-intersection of two ascending id lists.
fn intersect_sorted_ids(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    out
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
    fn byte_and_u64_paths_consistent() {
        let params = RamboParams::flat(8, 3, 1 << 12, 2, 5);
        let mut r = Rambo::new(params).unwrap();
        let d = r.add_document("bytes-doc").unwrap();
        r.insert_term_bytes(d, b"GATTACA").unwrap();
        assert!(r.query_bytes(b"GATTACA").contains(&d));
        assert!(r.query_bytes(b"GATTACC").is_empty());
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
                if r.bfu_contains_u64(0, b0, t) {
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
        let hits = r.query_sequence_u64(&contents[3][..6], QueryMode::Full);
        assert!(hits.contains(&3));
        // A sequence mixing two docs' exclusive terms matches nobody.
        let mixed = [contents[3][0], contents[4][0]];
        let hits = r.query_sequence_u64(&mixed, QueryMode::Full);
        assert!(!hits.contains(&3) || !hits.contains(&4));
    }

    #[test]
    fn all_terms_result_subset_of_sequence_result() {
        // Per-BFU all-terms (Algorithm 2) is at least as selective as
        // term-at-a-time intersection (§3.3.1); both retain the true owner.
        let (r, contents) = build(30, 40, 7);
        for d in [0usize, 9, 21] {
            let q = &contents[d][..5];
            let joint = r.query_terms_u64(q, QueryMode::Full);
            let seq = r.query_sequence_u64(q, QueryMode::Full);
            assert!(joint.contains(&(d as DocId)));
            assert!(seq.contains(&(d as DocId)));
            assert!(
                joint.iter().all(|x| seq.contains(x)),
                "all-terms result must be ⊆ sequence result"
            );
        }
    }

    #[test]
    fn sequence_query_modes_agree() {
        let (r, contents) = build(20, 30, 11);
        for d in [2usize, 13] {
            let q = &contents[d][..4];
            assert_eq!(
                r.query_sequence_u64(q, QueryMode::Full),
                r.query_sequence_u64(q, QueryMode::Sparse)
            );
        }
    }

    #[test]
    fn empty_inputs() {
        let (r, _) = build(5, 10, 8);
        assert!(r.query_terms_u64(&[], QueryMode::Full).is_empty());
        assert!(r.query_sequence_u64(&[], QueryMode::Full).is_empty());
        let empty = Rambo::new(RamboParams::flat(4, 2, 1024, 2, 0)).unwrap();
        assert!(empty.query_u64(42).is_empty());
    }

    #[test]
    fn context_reuse_is_sound() {
        let (r, contents) = build(20, 30, 9);
        let mut ctx = QueryContext::new();
        // Interleave queries with very different result sizes.
        let a1 = r.query_terms_with(&[0xFFFF], QueryMode::Full, &mut ctx);
        let b1 = r.query_terms_with(&[contents[0][0]], QueryMode::Sparse, &mut ctx);
        let a2 = r.query_terms_with(&[0xFFFF], QueryMode::Full, &mut ctx);
        let b2 = r.query_terms_with(&[contents[0][0]], QueryMode::Sparse, &mut ctx);
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
        let strict = r.query_sequence_u64(&q, QueryMode::Full);
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
        let hits = r.query_sequence_theta(&absent, 0.9, QueryMode::Sparse, &mut ctx);
        assert!(hits.is_empty());
    }

    #[test]
    fn intersect_sorted_ids_basic() {
        assert_eq!(intersect_sorted_ids(&[1, 3, 5], &[3, 5, 7]), vec![3, 5]);
        assert_eq!(intersect_sorted_ids(&[], &[1]), Vec::<DocId>::new());
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
