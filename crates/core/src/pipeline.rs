//! The write path: `hash_document → apply_hashed`, and the two-stage
//! pipeline that overlaps the two halves (the paper's §5.3 construction
//! story).
//!
//! Every document enters an index the same way, split into two independent
//! halves:
//!
//! * **Hash.** [`HashPlan::hash_document`] turns a raw term set into a
//!   [`HashedDoc`] — per-repetition blocks of matrix rows, sorted when the
//!   table has outgrown the cache (24 MiB) — using nothing but the index's
//!   Bloom seeds, so it can run on any thread without touching the index.
//! * **Apply.** [`Rambo::apply_hashed`] registers the name and replays each
//!   block through the matrix row sweep. Bit-setting is idempotent and
//!   commutative, so the result is **bit-identical** to term-at-a-time
//!   Algorithm 1 (pinned by the property suite via full `PartialEq`).
//!
//! [`Rambo::insert_document_batch`] runs the two back to back on the calling
//! thread. [`IngestPipeline::ingest`] overlaps them across documents through
//! a bounded queue: the *calling thread* parses and hashes document *n+1*
//! while a dedicated writer thread applies document *n*'s bucket writes.
//! Stall time on either side of the queue is counted — a saturated queue
//! means the writer is the bottleneck, an empty one means parsing is — and
//! returned in the [`PipelineReport`].

use crate::error::RamboError;
use crate::index::{DocId, Rambo};
use crate::params::RamboParams;
use rambo_hash::{HashPair, Modulus};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError, TrySendError};
use std::time::{Duration, Instant};

/// Per-table matrix size above which a repetition's row block is sorted
/// before it is written: once a table outgrows the last-level cache, random
/// row writes are DRAM-latency-bound and a sorted sweep (sequential,
/// prefetchable) wins. Below it the matrix is cache-resident and the
/// O(n log n) sort costs more than it saves.
const ROW_SORT_MIN_BYTES: usize = 24 << 20;

/// Hashed-but-unwritten documents the pipeline queue holds. A few absorb
/// the stage-time variance between documents; each costs roughly
/// `unique_terms × η × R × 8` bytes.
const QUEUE_DEPTH: usize = 4;

/// Dedupe a term batch once for all repetitions: Bloom insertion is
/// idempotent, so duplicates would only re-hash and re-write the same bits.
/// Inputs that are already strictly sorted (KmerSet output, the synthetic
/// archives) skip the sort entirely; otherwise `scratch` receives the
/// sorted-deduped copy and the returned slice borrows it.
fn dedupe_terms<'a>(terms: &'a [u64], scratch: &'a mut Vec<u64>) -> &'a [u64] {
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
    /// Sort each repetition's row block? True for tables of at least
    /// [`ROW_SORT_MIN_BYTES`]; crate-visible so tests can force the branch
    /// on a small index.
    pub(crate) sort_rows: bool,
}

impl Rambo {
    /// The hash plan of this index — hand it to producer/hash threads so
    /// they can run [`HashPlan::hash_document`] while the index itself is
    /// exclusively owned by the write stage.
    #[must_use]
    pub fn hash_plan(&self) -> HashPlan {
        let table_bytes = self.tables[0].matrix.size_bytes();
        HashPlan {
            seed_tag: seed_tag(&self.bloom_seeds),
            seeds: self.bloom_seeds.clone(),
            eta: self.params().eta,
            m: Modulus::new(self.params().bfu_bits as u64),
            sort_rows: table_bytes >= ROW_SORT_MIN_BYTES,
        }
    }

    /// Apply one hashed document: register the name and replay each
    /// repetition's row block through the matrix row sweep — the one place
    /// whole-document ingestion sets bits. Produces exactly the bits (and
    /// insert accounting) of term-at-a-time insertion of the same raw terms.
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
    /// Hash a document's term set: dedupe once, then derive each unique
    /// term's `η` filter positions per repetition — sorting each
    /// repetition's block when the table is large enough that the write
    /// stage's monotone sweep pays for it. This is the CPU-heavy half of
    /// ingestion and needs no access to the index.
    #[must_use]
    pub fn hash_document(&self, name: &str, terms: &[u64]) -> HashedDoc {
        let mut scratch = Vec::new();
        let unique = dedupe_terms(terms, &mut scratch);
        let per_rep = unique.len() * self.eta as usize;
        let mut rows = Vec::with_capacity(per_rep * self.seeds.len());
        for &seed in &self.seeds {
            let start = rows.len();
            for &t in unique {
                let pair = HashPair::of_u64(t, seed);
                for i in 0..self.eta {
                    rows.push(pair.index_in(i, &self.m) as usize);
                }
            }
            if self.sort_rows {
                rows[start..].sort_unstable();
            }
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
}

/// One document, fully hashed: `R` consecutive blocks of sorted matrix rows
/// (one per repetition), ready for [`Rambo::apply_hashed`]. This is the unit
/// that flows through the pipeline queue.
#[derive(Debug, Clone)]
pub struct HashedDoc {
    name: String,
    /// Raw term count *with multiplicity* (drives `total_inserts`, exactly
    /// like the term-at-a-time loop's accounting).
    term_count: u64,
    /// Rows per repetition block (`unique_terms × η`).
    per_rep: usize,
    /// `R · per_rep` rows, repetition-major (blocks sorted ascending when
    /// the plan's table size warrants the monotone sweep).
    rows: Vec<usize>,
    /// Filter geometry and seed fingerprint the rows were derived for —
    /// checked by [`Rambo::apply_hashed`] so a plan from one index cannot
    /// corrupt another.
    m: u64,
    eta: u32,
    seed_tag: u64,
}

impl HashedDoc {
    /// Document name carried through the pipeline.
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
/// exact; durations are wall-clock sums over blocking waits.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PipelineReport {
    /// Documents ingested.
    pub docs: u64,
    /// Terms ingested (with multiplicity).
    pub terms: u64,
    /// Times the producer found the queue full and had to block.
    pub producer_stalls: u64,
    /// Total nanoseconds the producer spent blocked on a full queue.
    pub producer_stall_ns: u64,
    /// Times the writer found the queue empty and had to block.
    pub writer_stalls: u64,
    /// Total nanoseconds the writer spent blocked on an empty queue.
    pub writer_stall_ns: u64,
    /// High-water mark of documents in flight between producer and writer.
    /// Can exceed the queue's capacity by two: a document blocked in `send`
    /// counts, and so does the one the writer has received but not yet
    /// counted out.
    pub max_queue_depth: u64,
}

/// Shared atomic counters behind a [`PipelineReport`].
#[derive(Default)]
struct Counters {
    docs: AtomicU64,
    terms: AtomicU64,
    producer_stalls: AtomicU64,
    producer_stall_ns: AtomicU64,
    writer_stalls: AtomicU64,
    writer_stall_ns: AtomicU64,
    depth: AtomicU64,
    max_depth: AtomicU64,
}

impl Counters {
    fn report(&self) -> PipelineReport {
        PipelineReport {
            docs: self.docs.load(Ordering::Relaxed),
            terms: self.terms.load(Ordering::Relaxed),
            producer_stalls: self.producer_stalls.load(Ordering::Relaxed),
            producer_stall_ns: self.producer_stall_ns.load(Ordering::Relaxed),
            writer_stalls: self.writer_stalls.load(Ordering::Relaxed),
            writer_stall_ns: self.writer_stall_ns.load(Ordering::Relaxed),
            max_queue_depth: self.max_depth.load(Ordering::Relaxed),
        }
    }

    /// Depth++ (before enqueue).
    fn enqueued(&self) {
        let d = self.depth.fetch_add(1, Ordering::Relaxed) + 1;
        self.max_depth.fetch_max(d, Ordering::Relaxed);
    }

    fn dequeued(&self) {
        self.depth.fetch_sub(1, Ordering::Relaxed);
    }
}

/// The two-stage ingestion pipeline: parse+hash on the calling thread ∥
/// write on a scoped writer thread, joined by a bounded queue of four
/// hashed documents. Carries no configuration.
#[derive(Debug, Clone, Default)]
pub struct IngestPipeline;

impl IngestPipeline {
    /// The pipeline.
    #[must_use]
    pub fn new() -> Self {
        Self
    }

    fn observe_producer_stall(&self, counters: &Counters, waited: Duration) {
        counters.producer_stalls.fetch_add(1, Ordering::Relaxed);
        counters
            .producer_stall_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }

    fn observe_writer_stall(&self, counters: &Counters, waited: Duration) {
        counters.writer_stalls.fetch_add(1, Ordering::Relaxed);
        counters
            .writer_stall_ns
            .fetch_add(waited.as_nanos() as u64, Ordering::Relaxed);
    }

    /// Pipeline a document stream into an existing index. Bit-identical to
    /// calling [`Rambo::insert_document_batch`] per document in stream
    /// order, but the parse+hash of document *n+1* overlaps the bucket
    /// writes of document *n*.
    ///
    /// # Errors
    /// Propagates the writer's first index error (duplicate names, …);
    /// documents applied before the failure remain in the index, documents
    /// still in flight are dropped.
    ///
    /// # Panics
    /// Panics if a pipeline thread panics.
    pub fn ingest(
        &self,
        index: &mut Rambo,
        docs: impl IntoIterator<Item = (String, Vec<u64>)>,
    ) -> Result<PipelineReport, RamboError> {
        let plan = index.hash_plan();
        let counters = Counters::default();
        self.run_two_stage(index, &plan, &counters, docs)?;
        Ok(counters.report())
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

    /// Two-stage pipeline: caller thread parses + hashes, a scoped writer
    /// thread applies.
    fn run_two_stage(
        &self,
        index: &mut Rambo,
        plan: &HashPlan,
        counters: &Counters,
        docs: impl IntoIterator<Item = (String, Vec<u64>)>,
    ) -> Result<(), RamboError> {
        std::thread::scope(|scope| {
            let (tx, rx) = std::sync::mpsc::sync_channel::<HashedDoc>(QUEUE_DEPTH);
            let writer = scope.spawn(move || -> Result<(), RamboError> {
                loop {
                    let doc = match self.next_hashed(&rx, counters) {
                        Some(d) => d,
                        None => return Ok(()),
                    };
                    counters.dequeued();
                    index.apply_hashed(&doc)?;
                }
            });
            for (name, terms) in docs {
                let hashed = plan.hash_document(&name, &terms);
                counters.docs.fetch_add(1, Ordering::Relaxed);
                counters
                    .terms
                    .fetch_add(terms.len() as u64, Ordering::Relaxed);
                if !self.enqueue(&tx, hashed, counters) {
                    break; // writer hung up: it hit an error
                }
            }
            drop(tx); // close the queue; the writer drains and returns
            writer.join().expect("pipeline writer panicked")
        })
    }

    /// Blocking-with-accounting receive: `try_recv` first so an already-full
    /// queue costs nothing, then a timed blocking `recv` counted as a writer
    /// stall. `None` means the channel closed (end of stream).
    fn next_hashed<T>(&self, rx: &Receiver<T>, counters: &Counters) -> Option<T> {
        match rx.try_recv() {
            Ok(d) => Some(d),
            Err(TryRecvError::Disconnected) => None,
            Err(TryRecvError::Empty) => {
                let t0 = Instant::now();
                let got = rx.recv();
                self.observe_writer_stall(counters, t0.elapsed());
                got.ok()
            }
        }
    }

    /// Non-blocking-first send with stall accounting. Returns `false` when
    /// the consumer hung up (error downstream).
    fn enqueue<T>(&self, tx: &SyncSender<T>, item: T, counters: &Counters) -> bool {
        counters.enqueued();
        match tx.try_send(item) {
            Ok(()) => true,
            Err(TrySendError::Disconnected(_)) => {
                counters.dequeued();
                false
            }
            Err(TrySendError::Full(item)) => {
                let t0 = Instant::now();
                let sent = tx.send(item).is_ok();
                self.observe_producer_stall(counters, t0.elapsed());
                if !sent {
                    counters.dequeued();
                }
                sent
            }
        }
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

    #[test]
    fn duplicate_name_error_propagates_and_prior_docs_survive() {
        let docs = vec![
            ("a".to_string(), vec![1u64, 2]),
            ("b".to_string(), vec![3u64]),
            ("a".to_string(), vec![4u64]), // duplicate
            ("c".to_string(), vec![5u64]),
        ];
        let mut idx = Rambo::new(params(9)).unwrap();
        let err = IngestPipeline::new().ingest(&mut idx, docs);
        assert!(matches!(err, Err(RamboError::DuplicateDocument(_))));
        // a and b landed before the failure.
        assert!(idx.num_documents() >= 2);
        assert_eq!(idx.document_id("a"), Some(0));
        assert_eq!(idx.document_id("b"), Some(1));
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

    /// The report is the pipeline's only observer: a producer slower than
    /// the writer leaves the queue empty, and the report must say so; it
    /// also bounds what was ever in flight.
    #[test]
    fn observer_sees_stalls_and_depths() {
        let docs = archive(3 * QUEUE_DEPTH, 40);
        let slow = docs.iter().cloned().inspect(|_| {
            std::thread::sleep(Duration::from_millis(2));
        });
        let (_, report) = IngestPipeline::new().build(params(4), slow).unwrap();
        assert_eq!(report.docs, docs.len() as u64);
        assert!(report.writer_stalls >= 1, "{report:?}");
        assert!(report.writer_stall_ns > 0, "{report:?}");
        assert_eq!(
            report.writer_stall(),
            Duration::from_nanos(report.writer_stall_ns)
        );
        assert!((1..=QUEUE_DEPTH as u64 + 2).contains(&report.max_queue_depth));
    }
}
