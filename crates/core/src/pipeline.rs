//! The write path, and the worker pool that runs it for a document stream
//! (the paper's §5.3 construction story, inside one node).
//!
//! Every document's bits come from one hashing step: each unique term's
//! `η` filter positions under repetition `r`'s Bloom seed (rows-for-`r`, on
//! a [`HashPlan`]), set in the document's bucket of table `r`. Bit-setting
//! is idempotent and commutative, so any order and any split of that work
//! is **bit-identical** to term-at-a-time Algorithm 1 (pinned by the
//! property suites via full `PartialEq`). Two drivers run it, and they
//! differ in where the bits go first:
//!
//! * **One document, position-major.** [`HashPlan::hash_document`] dedupes
//!   once and collects rows-for-`r` for every repetition into a
//!   [`HashedDoc`], touching nothing but the Bloom seeds;
//!   [`Rambo::apply_hashed`] registers the name and sets each repetition's
//!   rows straight in the matrix. [`Rambo::insert_document_batch`] (and so
//!   every tenant insert, which must answer between inserts) runs the two
//!   back to back on the calling thread.
//! * **A stream, bucket-major.** [`IngestPipeline::ingest`] keeps only the
//!   serial part on the calling thread: it parses, extracts, dedupes and
//!   registers each document in stream order and appends it (its unique
//!   terms and its `R` buckets) to an open batch. A batch is handed off as
//!   one job per repetition on a bounded queue once it holds `2^15` unique
//!   terms, when the stream ends, and before a registration error returns.
//!   A document is never split, so a genome of tens of thousands of terms
//!   is a batch of one, while hundreds of small documents share one
//!   hand-off: a blocking queue hand-off costs about as much as hashing
//!   one 500-term document, and paid per document it left the caller and
//!   the workers waiting on each other for most of a stream of small ones.
//!   A pool of `available_parallelism` workers runs the jobs, each its
//!   repetition over every document of its batch. For the length of the
//!   call every table stages one lazily allocated `m`-bit column per
//!   bucket; a job locks one document's column `(r, bucket)` at a time and
//!   sets the positions there as it hashes them — a column is a few
//!   hundred KB, so the writes stay in cache where the matrix's `m × B`
//!   rows would not. When the stream ends (or stops on an error) one pass
//!   lands the staging: 64 columns' words at a time are transposed and
//!   ORed into 64 row words, every table split into row slices shared
//!   evenly by the pool's threads. Staging costs at most one extra copy of
//!   the matrices while the call runs. Hand-offs, stall time on both sides
//!   of the queue and the landing's time are counted in the
//!   [`PipelineReport`]: a full queue means the workers are the
//!   bottleneck, an empty one means the caller is.

use crate::batch::default_threads;
use crate::error::RamboError;
use crate::index::{DocId, Rambo};
use crate::matrix::BfuMatrix;
use crate::params::RamboParams;
use rambo_hash::{HashPair, Modulus};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Batches the pool's queue holds, as `R` jobs each. A few absorb the
/// stage-time variance between batches; each holds its documents' unique
/// terms (8 bytes apiece) until its last job is staged, so four batches of
/// small documents hold about 1 MiB.
const QUEUE_DEPTH: usize = 4;

/// Unique terms at which the open batch is handed off. One job over this
/// many terms is ~0.3 ms of hashing on a 2-vCPU VM, far above a blocking
/// hand-off, and four queued batches of them stay near 1 MiB.
const BATCH_TERMS: usize = 1 << 15;

/// Dedupe a term batch in place, once for all repetitions: Bloom insertion
/// is idempotent, so duplicates would only re-hash and re-write the same
/// bits. Input that is already strictly sorted (KmerSet output, the
/// synthetic archives) is left as it is. Otherwise an exact open-addressed
/// set (`seen`, reused scratch) keeps each term's first occurrence — the
/// survivors' order does not matter, because bits are order-free.
fn dedupe_terms(terms: &mut Vec<u64>, seen: &mut Vec<u64>) {
    if terms.windows(2).all(|w| w[0] < w[1]) {
        return;
    }
    // A power-of-two table at most half full. Slot value 0 means empty, so
    // the term 0 is tracked apart.
    let bits = (terms.len() * 2).next_power_of_two().trailing_zeros();
    seen.clear();
    seen.resize(1 << bits, 0);
    let mask = seen.len() - 1;
    let mut zero_seen = false;
    let mut kept = 0;
    for i in 0..terms.len() {
        let t = terms[i];
        let fresh = if t == 0 {
            !std::mem::replace(&mut zero_seen, true)
        } else {
            let mut slot = (t.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> (64 - bits)) as usize;
            loop {
                match seen[slot] {
                    0 => {
                        seen[slot] = t;
                        break true;
                    }
                    s if s == t => break false,
                    _ => slot = (slot + 1) & mask,
                }
            }
        };
        if fresh {
            terms[kept] = t;
            kept += 1;
        }
    }
    terms.truncate(kept);
}

/// Fingerprint of a seed vector, carried by every [`HashedDoc`] so
/// [`Rambo::apply_hashed`] can reject blocks hashed under a different seed
/// (same geometry, different seeds would silently set wrong bits — a false
/// negative, not an error, without this check).
fn seed_tag(seeds: &[u64]) -> u64 {
    seeds.iter().fold(0x9E37_79B9_7F4A_7C15, |acc, &s| {
        acc.rotate_left(7) ^ s.wrapping_mul(0xFF51_AFD7_ED55_8CCD)
    })
}

/// Everything needed to hash a document's terms into matrix-row blocks
/// without touching the index: the per-repetition Bloom seeds and the filter
/// geometry. Cheap to clone; obtained from [`Rambo::hash_plan`].
#[derive(Debug, Clone)]
pub struct HashPlan {
    seed_tag: u64,
    seeds: Vec<u64>,
    eta: u32,
    /// Filter size, with its reciprocal: a 50 kb genome takes ~300 000
    /// positions modulo this one value.
    m: Modulus,
}

impl Rambo {
    /// The hash plan of this index — hand it to other threads so they can
    /// run [`HashPlan::hash_document`] without touching the index.
    #[must_use]
    pub fn hash_plan(&self) -> HashPlan {
        HashPlan {
            seed_tag: seed_tag(&self.bloom_seeds),
            seeds: self.bloom_seeds.clone(),
            eta: self.params().eta,
            m: Modulus::new(self.params().bfu_bits as u64),
        }
    }

    /// Apply one hashed document: register the name and set each
    /// repetition's row block in the document's bucket. Produces exactly the
    /// bits (and insert accounting) of term-at-a-time insertion of the same
    /// raw terms.
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed;
    /// [`RamboError::InvalidParams`] when the block came from a
    /// [`HashPlan`] of a different geometry (filter size, `η`, repetition
    /// count) or a different Bloom-seed family — a mismatched plan would
    /// otherwise set wrong bits (or index out of bounds) and silently void
    /// the zero-false-negative guarantee.
    pub fn apply_hashed(&mut self, doc: &HashedDoc) -> Result<DocId, RamboError> {
        if doc.m != self.params().bfu_bits as u64 || doc.eta != self.params().eta {
            return Err(RamboError::InvalidParams(format!(
                "hashed block was built for m={} η={}, index has m={} η={}",
                doc.m,
                doc.eta,
                self.params().bfu_bits,
                self.params().eta
            )));
        }
        if doc.seed_tag != seed_tag(&self.bloom_seeds) {
            return Err(RamboError::InvalidParams(
                "hashed block was built with different Bloom seeds than this index".into(),
            ));
        }
        // Empty documents hash to empty blocks in every repetition, so their
        // block count is indistinguishable — and any count is correct.
        if doc.per_rep != 0 && doc.rows.len() / doc.per_rep != self.repetitions() {
            return Err(RamboError::InvalidParams(format!(
                "hashed block has {} repetitions, index has {}",
                doc.rows.len() / doc.per_rep,
                self.repetitions()
            )));
        }
        let id = self.add_document(&doc.name)?;
        for (rep, table) in self.tables.iter_mut().enumerate() {
            let bucket = table.assign[id as usize] as usize;
            table.matrix.set_rows(bucket, doc.rep_rows(rep));
        }
        self.inserts += doc.term_count;
        Ok(id)
    }
}

impl HashPlan {
    /// Hash a document's term set: dedupe once, then rows-for-`r` for
    /// every repetition. This is the CPU-heavy half of ingestion and needs
    /// no access to the index.
    #[must_use]
    pub fn hash_document(&self, name: &str, terms: &[u64]) -> HashedDoc {
        let mut unique = terms.to_vec();
        dedupe_terms(&mut unique, &mut Vec::new());
        let per_rep = unique.len() * self.eta as usize;
        let mut rows = Vec::with_capacity(per_rep * self.seeds.len());
        for rep in 0..self.seeds.len() {
            self.push_rows(rep, &unique, &mut rows);
        }
        HashedDoc {
            name: name.to_string(),
            term_count: terms.len() as u64,
            per_rep,
            rows,
            m: self.m.get(),
            eta: self.eta,
            seed_tag: self.seed_tag,
        }
    }

    /// Rows-for-`rep`, the one hashing step of every write: each unique
    /// term's `η` filter positions under repetition `rep`'s Bloom seed,
    /// handed to `f` in term order.
    #[inline]
    fn positions(&self, rep: usize, unique: &[u64], mut f: impl FnMut(usize)) {
        let seed = self.seeds[rep];
        for &t in unique {
            let pair = HashPair::of_u64(t, seed);
            for i in 0..self.eta {
                f(pair.index_in(i, &self.m) as usize);
            }
        }
    }

    /// Append rows-for-`rep` to `rows`, for a position-major write.
    fn push_rows(&self, rep: usize, unique: &[u64], rows: &mut Vec<usize>) {
        rows.reserve(unique.len() * self.eta as usize);
        self.positions(rep, unique, |p| rows.push(p));
    }

    /// Set rows-for-`rep` in one bucket-major column as they are hashed.
    fn set_column(&self, rep: usize, unique: &[u64], column: &mut [u64]) {
        self.positions(rep, unique, |p| column[p / 64] |= 1 << (p % 64));
    }

    /// An all-zero column: one bit per filter position.
    fn empty_column(&self) -> Box<[u64]> {
        vec![0; self.m.get().div_ceil(64) as usize].into_boxed_slice()
    }
}

/// One document, fully hashed: `R` consecutive blocks of matrix rows (one
/// per repetition), ready for [`Rambo::apply_hashed`].
#[derive(Debug, Clone)]
pub struct HashedDoc {
    name: String,
    /// Raw term count *with multiplicity* (drives `total_inserts`, exactly
    /// like the term-at-a-time loop's accounting).
    term_count: u64,
    /// Rows per repetition block (`unique_terms × η`).
    per_rep: usize,
    /// `R · per_rep` rows, repetition-major.
    rows: Vec<usize>,
    /// Filter geometry and seed fingerprint the rows were derived for —
    /// checked by [`Rambo::apply_hashed`] so a plan from one index cannot
    /// corrupt another.
    m: u64,
    eta: u32,
    seed_tag: u64,
}

impl HashedDoc {
    /// Document name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    fn rep_rows(&self, rep: usize) -> &[usize] {
        if self.per_rep == 0 {
            &[]
        } else {
            &self.rows[rep * self.per_rep..(rep + 1) * self.per_rep]
        }
    }
}

/// What one pipeline run did, including where it stalled. Counters are
/// exact; stall durations are wall-clock sums over blocking waits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Documents ingested.
    pub docs: u64,
    /// Terms ingested (with multiplicity).
    pub terms: u64,
    /// Hand-offs to the pool, each of `R` jobs: one per batch of documents
    /// (at most one per `2^15` unique terms, plus the last). A function of
    /// the stream alone.
    pub batches: u64,
    /// Times the calling thread found the queue full and had to block.
    pub producer_stalls: u64,
    /// Total nanoseconds the calling thread spent blocked on a full queue.
    pub producer_stall_ns: u64,
    /// Times a worker found the queue empty and had to block, over all
    /// workers.
    pub writer_stalls: u64,
    /// Nanoseconds workers spent blocked on an empty queue, summed over
    /// workers.
    pub writer_stall_ns: u64,
    /// Nanoseconds of the landing: the one pass that ORs the staged
    /// columns into the matrices after the stream ends.
    pub land_ns: u64,
    /// High-water mark of documents registered but not yet completely
    /// staged. A document is in flight with its batch, so this is at most
    /// the documents of `QUEUE_DEPTH + 1 + workers` batches (4, 1 and
    /// `available_parallelism`): the caller's batch, being filled or
    /// pushed; at most `QUEUE_DEPTH` others with a job in the queue, since
    /// each of them is fully pushed and, the queue being FIFO, only the
    /// front one has lost jobs to the workers; and at most one per worker
    /// whose jobs have all left the queue.
    pub max_queue_depth: u64,
}

/// Shared atomic counters behind a [`PipelineReport`].
#[derive(Default)]
struct Counters {
    docs: AtomicU64,
    terms: AtomicU64,
    batches: AtomicU64,
    producer_stalls: AtomicU64,
    producer_stall_ns: AtomicU64,
    writer_stalls: AtomicU64,
    writer_stall_ns: AtomicU64,
    depth: AtomicU64,
    max_depth: AtomicU64,
}

impl Counters {
    fn report(&self, land: Duration) -> PipelineReport {
        PipelineReport {
            docs: self.docs.load(Ordering::Relaxed),
            terms: self.terms.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            producer_stalls: self.producer_stalls.load(Ordering::Relaxed),
            producer_stall_ns: self.producer_stall_ns.load(Ordering::Relaxed),
            writer_stalls: self.writer_stalls.load(Ordering::Relaxed),
            writer_stall_ns: self.writer_stall_ns.load(Ordering::Relaxed),
            land_ns: land.as_nanos() as u64,
            max_queue_depth: self.max_depth.load(Ordering::Relaxed),
        }
    }

    fn stalled(count: &AtomicU64, ns: &AtomicU64, waited: Duration) {
        count.fetch_add(1, Ordering::Relaxed);
        ns.fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }
}

/// Registered documents, in stream order, shared by the `R` jobs of one
/// hand-off. Each counts toward the report's queue depth from registration
/// until the batch's last job is staged and the last `Arc` drops.
struct Batch<'c> {
    /// Each document's unique terms.
    docs: Vec<Vec<u64>>,
    /// Document `d`'s bucket in repetition `r`, at `d * R + r`.
    buckets: Vec<usize>,
    /// Unique terms over `docs`.
    terms: usize,
    counters: &'c Counters,
}

impl<'c> Batch<'c> {
    fn new(counters: &'c Counters) -> Self {
        Self {
            docs: Vec::new(),
            buckets: Vec::new(),
            terms: 0,
            counters,
        }
    }

    /// Append a registered document.
    fn push(&mut self, terms: Vec<u64>, buckets: impl IntoIterator<Item = usize>) {
        let depth = self.counters.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.counters.max_depth.fetch_max(depth, Ordering::Relaxed);
        self.terms += terms.len();
        self.docs.push(terms);
        self.buckets.extend(buckets);
    }
}

impl Drop for Batch<'_> {
    fn drop(&mut self) {
        self.counters
            .depth
            .fetch_sub(self.docs.len() as u64, Ordering::Relaxed);
    }
}

/// One repetition's share of one batch: rows-for-`rep` of each document's
/// terms, set in that document's staged column `(rep, bucket)`.
struct Job<'c> {
    batch: Arc<Batch<'c>>,
    rep: usize,
}

/// The bounded queue between the calling thread and the workers.
struct JobQueue<'c> {
    state: Mutex<QueueState<'c>>,
    not_empty: Condvar,
    not_full: Condvar,
    capacity: usize,
}

struct QueueState<'c> {
    jobs: VecDeque<Job<'c>>,
    closed: bool,
}

impl<'c> JobQueue<'c> {
    fn new(capacity: usize) -> Self {
        Self {
            state: Mutex::new(QueueState {
                jobs: VecDeque::with_capacity(capacity),
                closed: false,
            }),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            capacity,
        }
    }

    /// The state lock. Every update under it (a push, a pop, closing)
    /// leaves the queue valid, so a poisoned lock is recovered — and
    /// `close` runs in `Drop`, where a second panic would abort.
    fn lock(&self) -> MutexGuard<'_, QueueState<'c>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Enqueue, blocking while the queue is full (a producer stall).
    /// Returns `false` when the queue was closed under the caller, which
    /// only a dying worker does.
    fn push(&self, job: Job<'c>, counters: &Counters) -> bool {
        let mut state = self.lock();
        if state.jobs.len() >= self.capacity && !state.closed {
            let t0 = Instant::now();
            state = self
                .not_full
                .wait_while(state, |s| s.jobs.len() >= self.capacity && !s.closed)
                .unwrap_or_else(PoisonError::into_inner);
            Counters::stalled(
                &counters.producer_stalls,
                &counters.producer_stall_ns,
                t0.elapsed(),
            );
        }
        if state.closed {
            return false;
        }
        state.jobs.push_back(job);
        drop(state);
        self.not_empty.notify_one();
        true
    }

    /// Enqueue a batch as `R` jobs, one per repetition, blocking as
    /// [`Self::push`] does; an empty batch is not handed off. `false` when
    /// the queue was closed under the caller.
    fn push_batch(&self, batch: Batch<'c>, reps: usize, counters: &Counters) -> bool {
        if batch.docs.is_empty() {
            return true;
        }
        counters.batches.fetch_add(1, Ordering::Relaxed);
        let batch = Arc::new(batch);
        (0..reps).all(|rep| {
            let batch = Arc::clone(&batch);
            self.push(Job { batch, rep }, counters)
        })
    }

    /// Dequeue, blocking while the queue is empty and open (a worker
    /// stall). `None` once it is closed and drained.
    fn pop(&self, counters: &Counters) -> Option<Job<'c>> {
        let mut state = self.lock();
        if state.jobs.is_empty() && !state.closed {
            let t0 = Instant::now();
            state = self
                .not_empty
                .wait_while(state, |s| s.jobs.is_empty() && !s.closed)
                .unwrap_or_else(PoisonError::into_inner);
            Counters::stalled(
                &counters.writer_stalls,
                &counters.writer_stall_ns,
                t0.elapsed(),
            );
        }
        let job = state.jobs.pop_front();
        drop(state);
        if job.is_some() {
            self.not_full.notify_one();
        }
        job
    }

    fn close(&self) {
        self.lock().closed = true;
        self.not_empty.notify_all();
        self.not_full.notify_all();
    }
}

/// Closes the queue when dropped: at the end of the stream, on an early
/// error return, and when the caller or a worker unwinds — so no thread
/// waits forever on a peer that is gone.
struct CloseOnDrop<'q, 'c>(&'q JobQueue<'c>);

impl Drop for CloseOnDrop<'_, '_> {
    fn drop(&mut self) {
        self.0.close();
    }
}

/// One staged BFU column of one table, allocated by the first job that
/// writes it.
type Column = Mutex<Option<Box<[u64]>>>;

/// A worker: run jobs until the queue is closed and drained.
fn work(queue: &JobQueue<'_>, plan: &HashPlan, staged: &[Vec<Column>], c: &Counters) {
    let _close = CloseOnDrop(queue);
    let reps = staged.len();
    while let Some(Job { batch, rep }) = queue.pop(c) {
        for (d, terms) in batch.docs.iter().enumerate() {
            let mut column = staged[rep][batch.buckets[d * reps + rep]]
                .lock()
                .expect("another worker panicked while writing this column");
            let column = column.get_or_insert_with(|| plan.empty_column());
            plan.set_column(rep, terms, column);
        }
    }
}

/// OR every table's staged columns into its matrix. Each table with a
/// staged column is split into `threads` row slices, and scoped thread `t`
/// takes slice `t` of every table, so the threads share all `R` tables
/// evenly.
fn land(matrices: Vec<&mut BfuMatrix>, staged: Vec<Vec<Column>>, threads: usize) {
    let columns: Vec<Vec<Option<Box<[u64]>>>> = staged
        .into_iter()
        .map(|table| {
            table
                .into_iter()
                .map(|c| {
                    c.into_inner()
                        .expect("a worker's panic is re-raised before the staging lands")
                })
                .collect()
        })
        .collect();
    let mut shares: Vec<Vec<_>> = (0..threads).map(|_| Vec::new()).collect();
    for (matrix, columns) in matrices.into_iter().zip(&columns) {
        if columns.iter().any(Option::is_some) {
            for (share, slice) in shares.iter_mut().zip(matrix.row_slices(threads)) {
                share.push((slice, columns.as_slice()));
            }
        }
    }
    std::thread::scope(|scope| {
        for share in shares.into_iter().filter(|s| !s.is_empty()) {
            scope.spawn(move || {
                for (mut slice, columns) in share {
                    slice.or_columns(columns);
                }
            });
        }
    });
}

/// The pool behind [`IngestPipeline::ingest`], with the worker count and
/// the batch size ([`BATCH_TERMS`]) as parameters so tests can sweep them.
fn run_pool(
    index: &mut Rambo,
    workers: usize,
    batch_terms: usize,
    docs: impl IntoIterator<Item = (String, Vec<u64>)>,
) -> Result<PipelineReport, RamboError> {
    let plan = &index.hash_plan();
    let counters = &Counters::default();
    let (mut registry, matrices) = index.split_registry();
    let staged: Vec<Vec<Column>> = matrices
        .iter()
        .map(|m| (0..m.buckets()).map(|_| Mutex::new(None)).collect())
        .collect();
    let reps = staged.len();
    let queue = &JobQueue::new(QUEUE_DEPTH * reps);
    let columns = &staged;
    let streamed = std::thread::scope(|scope| -> Result<(), RamboError> {
        let _close = CloseOnDrop(queue);
        let mut started = false;
        // `false` when a worker died, whose panic leaving the scope
        // re-raises.
        let mut hand_off = |batch| {
            if !queue.push_batch(batch, reps, counters) {
                return false;
            }
            if !started && counters.batches.load(Ordering::Relaxed) > 0 {
                // Started only now, with the first batch's jobs queued
                // (they fit: the queue holds several batches), so the
                // workers do not idle through its parse.
                started = true;
                for _ in 0..workers {
                    scope.spawn(move || work(queue, plan, columns, counters));
                }
            }
            true
        };
        let mut seen = Vec::new();
        let mut open = Batch::new(counters);
        for (name, mut terms) in docs {
            let id = match registry.add(&name) {
                Ok(id) => id,
                Err(e) => {
                    // The documents registered before it go to the pool
                    // first, so they land before the error returns.
                    hand_off(open);
                    return Err(e);
                }
            };
            *registry.inserts += terms.len() as u64;
            counters.docs.fetch_add(1, Ordering::Relaxed);
            counters
                .terms
                .fetch_add(terms.len() as u64, Ordering::Relaxed);
            dedupe_terms(&mut terms, &mut seen);
            open.push(terms, (0..reps).map(|rep| registry.bucket_of(rep, id)));
            if open.terms >= batch_terms
                && !hand_off(std::mem::replace(&mut open, Batch::new(counters)))
            {
                return Ok(());
            }
        }
        hand_off(open);
        Ok(())
    });
    // Every document registered before an error is staged by now; land it
    // before the error goes back, so the index holds what it registered.
    let t0 = Instant::now();
    land(matrices, staged, workers);
    let land = t0.elapsed();
    streamed?;
    Ok(counters.report(land))
}

/// The ingestion pool: the calling thread parses, dedupes and registers,
/// a pool of `available_parallelism` workers hashes one repetition of one
/// batch of documents per job into each document's staged column, and the
/// staging lands in the matrices when the stream ends. Carries no
/// configuration.
#[derive(Debug, Clone, Default)]
pub struct IngestPipeline;

impl IngestPipeline {
    /// The pipeline.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    /// Ingest a document stream into an existing index. Bit-identical to
    /// calling [`Rambo::insert_document_batch`] per document in stream
    /// order, with the hashing and column writes on the worker pool.
    ///
    /// # Errors
    /// The first index error (a duplicate name, …) stops the stream before
    /// anything of that document is queued; every document registered
    /// before it, in the open batch too, is completely written, none after
    /// it is registered.
    ///
    /// # Panics
    /// Panics if a worker panics.
    pub fn ingest(
        &self,
        index: &mut Rambo,
        docs: impl IntoIterator<Item = (String, Vec<u64>)>,
    ) -> Result<PipelineReport, RamboError> {
        run_pool(index, default_threads(), BATCH_TERMS, docs)
    }

    /// Build a fresh index by pipelining a document stream.
    ///
    /// # Errors
    /// Invalid params, or any [`IngestPipeline::ingest`] failure.
    pub fn build(
        &self,
        params: RamboParams,
        docs: impl IntoIterator<Item = (String, Vec<u64>)>,
    ) -> Result<(Rambo, PipelineReport), RamboError> {
        let mut index = Rambo::new(params)?;
        let report = self.ingest(&mut index, docs)?;
        Ok((index, report))
    }
}

impl PipelineReport {
    /// Producer stall time as a `Duration`.
    #[must_use]
    pub fn producer_stall(&self) -> Duration {
        Duration::from_nanos(self.producer_stall_ns)
    }

    /// Writer stall time as a `Duration`.
    #[must_use]
    pub fn writer_stall(&self) -> Duration {
        Duration::from_nanos(self.writer_stall_ns)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryMode;
    use proptest::prelude::*;

    fn params(seed: u64) -> RamboParams {
        RamboParams::flat(8, 3, 1 << 12, 2, seed)
    }

    fn archive(k: usize, terms_per_doc: usize) -> Vec<(String, Vec<u64>)> {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 32;
                let mut ts: Vec<u64> = (0..terms_per_doc as u64).map(|t| base | t).collect();
                ts.push(0xFFFF); // shared term
                ts.push(base); // duplicate
                (format!("doc-{d}"), ts)
            })
            .collect()
    }

    /// Algorithm 1 as written: the reference the write path must equal.
    fn sequential(p: RamboParams, docs: &[(String, Vec<u64>)]) -> Rambo {
        let mut r = Rambo::new(p).unwrap();
        for (name, terms) in docs {
            let d = r.add_document(name).unwrap();
            for &t in terms {
                r.insert_term_u64(d, t).unwrap();
            }
        }
        r
    }

    #[test]
    fn hash_apply_split_is_bit_identical() {
        let docs = archive(20, 50);
        let reference = sequential(params(3), &docs);
        let mut split = Rambo::new(params(3)).unwrap();
        let plan = split.hash_plan();
        for (name, terms) in &docs {
            let hashed = plan.hash_document(name, terms);
            split.apply_hashed(&hashed).unwrap();
        }
        assert_eq!(reference, split);
        assert_eq!(reference.total_inserts(), split.total_inserts());
    }

    #[test]
    fn pipelined_build_is_bit_identical() {
        let docs = archive(25, 40);
        let reference = sequential(params(7), &docs);
        let (piped, report) = IngestPipeline::new()
            .build(params(7), docs.iter().cloned())
            .unwrap();
        assert_eq!(reference, piped);
        assert_eq!(report.docs, 25);
        assert_eq!(
            report.terms,
            docs.iter().map(|(_, t)| t.len() as u64).sum::<u64>()
        );
        assert!(report.max_queue_depth >= 1);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// The pool is Algorithm 1: for any repetition count, pool size,
        /// batch size and geometry, with duplicate terms and empty
        /// documents, a pooled build equals the term-at-a-time reference
        /// structurally and in its insert count, and the report counts
        /// what went in. The batch sizes give a batch per document, batches
        /// that close mid-stream, and one batch for the whole stream. The
        /// bucket counts give one-word, multi-word and partial-last-word
        /// rows to the transpose-OR; an `m` off a multiple of 64 gives it a
        /// ragged last 64-row block.
        #[test]
        fn pipeline_pool_equals_algorithm_1(
            term_lists in proptest::collection::vec(proptest::collection::vec(0u64..64, 0..50), 0..12),
            r in proptest::sample::select(vec![1usize, 2, 3, 5]),
            workers in proptest::sample::select(vec![1usize, 2, 3, 8]),
            batch_terms in proptest::sample::select(vec![1usize, 40, 150, BATCH_TERMS]),
            b in proptest::sample::select(vec![8u64, 64, 100, 130]),
            m in proptest::sample::select(vec![1usize << 11, 2000]),
            seed in any::<u64>(),
        ) {
            let docs: Vec<(String, Vec<u64>)> = term_lists
                .into_iter()
                .enumerate()
                .map(|(d, terms)| (format!("doc-{d}"), terms))
                .collect();
            let p = RamboParams::flat(b, r, m, 2, seed);
            let reference = sequential(p, &docs);
            let mut pooled = Rambo::new(p).unwrap();
            let report = run_pool(&mut pooled, workers, batch_terms, docs.iter().cloned()).unwrap();
            prop_assert_eq!(&reference, &pooled, "R={} workers={} batch={} B={} m={}", r, workers, batch_terms, b, m);
            prop_assert_eq!(reference.total_inserts(), pooled.total_inserts());
            prop_assert_eq!(report.docs as usize, docs.len());
            prop_assert_eq!(report.terms, reference.total_inserts());
            prop_assert!(report.batches <= report.docs);
        }

        /// The sort-free dedupe keeps exactly the set `sort + dedup` keeps,
        /// each term once, on random input and on the edge shapes: empty,
        /// all-equal, already sorted, and the extremes `0` and `u64::MAX`.
        #[test]
        fn pipeline_dedupe_equals_sort_dedup(
            raw in proptest::collection::vec(0u64..40, 0..200),
            wide in proptest::collection::vec(any::<u64>(), 0..50),
            shape in 0u8..5,
        ) {
            let mut terms: Vec<u64> = match shape {
                0 => raw.iter().map(|&t| [0, u64::MAX, t][t as usize % 3]).collect(),
                1 => vec![raw.first().copied().unwrap_or(0); raw.len()],
                2 => (0..raw.len() as u64).collect(),
                3 => Vec::new(),
                _ => raw.iter().chain(&wide).copied().collect(),
            };
            let mut expect = terms.clone();
            expect.sort_unstable();
            expect.dedup();
            dedupe_terms(&mut terms, &mut Vec::new());
            let kept = terms.len();
            terms.sort_unstable();
            prop_assert_eq!(kept, expect.len(), "a term kept twice");
            prop_assert_eq!(terms, expect);
        }
    }

    #[test]
    fn pipeline_into_existing_index_continues_ids() {
        let docs = archive(10, 20);
        let mut idx = Rambo::new(params(5)).unwrap();
        idx.insert_document_batch("pre-existing", &[1, 2, 3])
            .unwrap();
        let report = IngestPipeline::new()
            .ingest(&mut idx, docs.iter().cloned())
            .unwrap();
        assert_eq!(report.docs, 10);
        assert_eq!(idx.num_documents(), 11);
        assert_eq!(idx.document_id("doc-3"), Some(4));
        // Ingested documents answer queries.
        let hits = idx.query_terms_u64(&[0xFFFF], QueryMode::Full);
        assert_eq!(hits.len(), 10);
    }

    /// A duplicate name mid-stream stops the caller before anything of that
    /// document is queued: every earlier document is completely written
    /// (it returns itself for each of its own terms), no later one is
    /// registered, and `total_inserts` counts only the accepted documents.
    #[test]
    fn duplicate_name_error_propagates_and_prior_docs_survive() {
        let mut docs = archive(12, 30);
        docs[8].0 = "doc-2".to_string();
        for workers in [1, 2, 8] {
            let mut idx = Rambo::new(params(9)).unwrap();
            let err = run_pool(&mut idx, workers, BATCH_TERMS, docs.iter().cloned());
            assert!(matches!(err, Err(RamboError::DuplicateDocument(ref n)) if n == "doc-2"));
            assert_eq!(idx.num_documents(), 8, "workers={workers}");
            for (d, (name, terms)) in docs[..8].iter().enumerate() {
                assert_eq!(idx.document_id(name), Some(d as DocId));
                for &t in terms {
                    assert!(
                        idx.query_u64(t).contains(&(d as DocId)),
                        "{name} lost {t:#x}"
                    );
                }
            }
            assert!(docs[9..].iter().all(|(n, _)| idx.document_id(n).is_none()));
            let accepted: usize = docs[..8].iter().map(|(_, t)| t.len()).sum();
            assert_eq!(idx.total_inserts(), accepted as u64);
        }
    }

    /// An error inside an open batch, after two batches were handed off:
    /// the open batch's documents go to the pool before the error returns,
    /// so the index equals Algorithm 1 over exactly the registered prefix.
    /// 21 unique terms a document and batches of ≥ 64 close every four
    /// documents; the duplicate is the eleventh, behind two closed batches
    /// and two documents of the third.
    #[test]
    fn error_in_an_open_batch_lands_every_registered_document() {
        let mut docs = archive(14, 20);
        docs[10].0 = "doc-4".to_string();
        let registered = sequential(params(10), &docs[..10]);
        for workers in [1, 2, 8] {
            let mut idx = Rambo::new(params(10)).unwrap();
            let err = run_pool(&mut idx, workers, 64, docs.iter().cloned());
            assert!(matches!(err, Err(RamboError::DuplicateDocument(ref n)) if n == "doc-4"));
            assert_eq!(idx, registered, "workers={workers}");
            assert_eq!(idx.total_inserts(), registered.total_inserts());
        }
    }

    /// One hand-off per batch, not per document: a stream of small
    /// documents takes at most one per `BATCH_TERMS` unique terms plus the
    /// last (2 000 documents of 100 terms: ≤ 8, where a hand-off per
    /// document would be 2 000), and a document of `BATCH_TERMS` terms or
    /// more is a batch of its own.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn batches_count_the_hand_offs() {
        let small: Vec<(String, Vec<u64>)> = (0..2000u64)
            .map(|d| {
                (
                    format!("small-{d}"),
                    (0..100).map(|t| d << 32 | t).collect(),
                )
            })
            .collect();
        let (index, report) = IngestPipeline::new()
            .build(params(11), small.iter().cloned())
            .unwrap();
        assert_eq!(index, sequential(params(11), &small));
        let unique: usize = small.iter().map(|(_, t)| t.len()).sum();
        assert!(
            report.batches <= unique.div_ceil(BATCH_TERMS) as u64 + 1,
            "{report:?}"
        );
        assert!(report.batches <= 8, "{report:?}");

        let big: Vec<(String, Vec<u64>)> = (0..3u64)
            .map(|d| {
                let terms = (0..BATCH_TERMS as u64 + d).map(|t| d << 32 | t).collect();
                (format!("big-{d}"), terms)
            })
            .collect();
        let (index, report) = IngestPipeline::new()
            .build(params(12), big.iter().cloned())
            .unwrap();
        assert_eq!(index, sequential(params(12), &big));
        assert_eq!(report.batches, report.docs, "{report:?}");
    }

    /// Hundreds of tiny documents (0–3 terms, duplicates included) share
    /// batches with documents of `BATCH_TERMS` terms or more, which close
    /// the open batch wherever they land; at every pool size the build is
    /// Algorithm 1.
    #[test]
    #[cfg_attr(miri, ignore)]
    fn tiny_and_big_documents_mixed_equal_algorithm_1() {
        let tiny = |d: u64| -> Vec<u64> { (0..d % 4).map(|t| (d * 7 + t) % 500).collect() };
        let docs: Vec<(String, Vec<u64>)> = (0..900u64)
            .map(|d| {
                let terms = if d % 300 == 150 {
                    (0..BATCH_TERMS as u64 + 3).map(|t| d << 32 | t).collect()
                } else {
                    tiny(d)
                };
                (format!("doc-{d}"), terms)
            })
            .collect();
        let reference = sequential(params(13), &docs);
        for workers in [1, 2, 8] {
            let mut pooled = Rambo::new(params(13)).unwrap();
            let report = run_pool(&mut pooled, workers, BATCH_TERMS, docs.iter().cloned()).unwrap();
            assert_eq!(pooled, reference, "workers={workers}");
            assert_eq!(pooled.total_inserts(), reference.total_inserts());
            // Each big document closes its batch; the tail is the last.
            assert_eq!(report.batches, 4, "{report:?}");
        }
    }

    #[test]
    fn apply_hashed_rejects_mismatched_geometry() {
        // Repetition-count mismatch.
        let other = Rambo::new(RamboParams::flat(8, 2, 1 << 12, 2, 1)).unwrap();
        let hashed = other.hash_plan().hash_document("x", &[1, 2, 3]);
        let mut idx = Rambo::new(params(1)).unwrap(); // R = 3
        assert!(matches!(
            idx.apply_hashed(&hashed),
            Err(RamboError::InvalidParams(_))
        ));
        // Same R, bigger filter: rows would index out of bounds (or, with a
        // smaller filter, silently set wrong bits) — must error instead.
        let big_m = Rambo::new(RamboParams::flat(8, 3, 1 << 20, 2, 1)).unwrap();
        let hashed = big_m.hash_plan().hash_document("x", &[1, 2, 3]);
        assert!(matches!(
            idx.apply_hashed(&hashed),
            Err(RamboError::InvalidParams(_))
        ));
        // Same R and m, different η: per-term row count diverges — error.
        let other_eta = Rambo::new(RamboParams::flat(8, 3, 1 << 12, 4, 1)).unwrap();
        let hashed = other_eta.hash_plan().hash_document("x", &[1, 2, 3]);
        assert!(matches!(
            idx.apply_hashed(&hashed),
            Err(RamboError::InvalidParams(_))
        ));
        // Identical geometry, different master seed: the rows are valid
        // positions but for the *wrong* hash family — accepting them would
        // be a silent false negative, so this must error too.
        let other_seed = Rambo::new(params(999)).unwrap();
        let hashed = other_seed.hash_plan().hash_document("x", &[1, 2, 3]);
        assert!(matches!(
            idx.apply_hashed(&hashed),
            Err(RamboError::InvalidParams(_))
        ));
        assert_eq!(idx.num_documents(), 0, "no half-registered documents");
    }

    #[test]
    fn empty_documents_and_streams_are_fine() {
        let mut idx = Rambo::new(params(2)).unwrap();
        let report = IngestPipeline::new()
            .ingest(&mut idx, std::iter::empty())
            .unwrap();
        assert_eq!(report.docs, 0);
        let report = IngestPipeline::new()
            .ingest(&mut idx, [("empty".to_string(), Vec::new())])
            .unwrap();
        assert_eq!(report.docs, 1);
        assert_eq!(idx.num_documents(), 1);
        assert_eq!(idx.total_inserts(), 0);
    }

    /// The report is the pipeline's only observer: a caller slower than
    /// the workers leaves the queue empty, and the report must say so; it
    /// also bounds what was ever in flight. A batch size of one term makes
    /// every document a batch of its own, as a genome is at the real size.
    #[test]
    fn observer_sees_stalls_and_depths() {
        let docs = archive(3 * QUEUE_DEPTH, 40);
        let slow = docs.iter().cloned().inspect(|_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        let mut idx = Rambo::new(params(4)).unwrap();
        let report = run_pool(&mut idx, default_threads(), 1, slow).unwrap();
        assert_eq!(report.docs, docs.len() as u64);
        assert_eq!(report.batches, report.docs);
        assert!(report.writer_stalls >= 1, "{report:?}");
        assert!(report.writer_stall_ns > 0, "{report:?}");
        assert_eq!(
            report.writer_stall(),
            Duration::from_nanos(report.writer_stall_ns)
        );
        let bound = (QUEUE_DEPTH + 1 + default_threads()) as u64;
        assert!((1..=bound).contains(&report.max_queue_depth), "{report:?}");
    }

    /// Workers slower than the caller fill the queue: the caller's stalls
    /// are counted, and the depth stays within its bound. Sorted terms
    /// make the caller's share a scan while one worker hashes and writes
    /// five repetitions, tens of times more work per document; a batch
    /// size of one document's terms makes each document a batch.
    #[test]
    fn pipeline_counts_producer_stalls_behind_one_worker() {
        let p = RamboParams::flat(8, 5, 1 << 12, 2, 6);
        let docs: Vec<(String, Vec<u64>)> = (0..60u64)
            .map(|d| (format!("doc-{d}"), (0..4000).map(|t| d << 32 | t).collect()))
            .collect();
        let mut idx = Rambo::new(p).unwrap();
        let report = run_pool(&mut idx, 1, 4000, docs.clone()).unwrap();
        assert_eq!(report.batches, 60);
        assert_eq!(idx, sequential(p, &docs));
        assert!(report.producer_stalls >= 1, "{report:?}");
        assert_eq!(
            report.producer_stall(),
            Duration::from_nanos(report.producer_stall_ns)
        );
        assert!(
            report.max_queue_depth <= (QUEUE_DEPTH + 2) as u64,
            "{report:?}"
        );
    }
}
