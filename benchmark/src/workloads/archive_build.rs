//! `archive_build` — write-only: the paper's construction-time claim.
//! `kmer`, `hash`, `core::pipeline` and `bitvec` writes do all the work;
//! `server` does none.
//!
//! 384 simulated genomes of 50 kb (families of 8 at 1 % divergence) arrive
//! as in-memory FASTA in chunks of 32 records. One round builds a fresh index
//! (B = 64, R = 3) by pipelining every chunk through
//! `kmer::pipeline_fasta_documents`. One op is one document; one timed sample
//! is one chunk, divided by its 32 documents.

use super::{finish_trace, EndToEnd, Outcome, RunConfig};
use crate::corpus::absent_terms;
use crate::metrics::LayerMetrics;
use crate::oracle::Tally;
use crate::rng::XorShift;
use crate::stats::{median, median_ops_per_s, slice_rates, Slice};
use crate::sut::{self, Index, QueryContext};
use crate::trace::Tracer;
use std::hint::black_box;
use std::time::{Duration, Instant};

const GENOMES: usize = 384;
const GENOME_LEN: usize = 50_000;
const FAMILY: usize = 8;
const DIVERGENCE: f64 = 0.01;
const CHUNK: usize = 32;
const BUCKETS: u64 = 64;
const REPETITIONS: usize = 3;
const ROUNDS_AT_REFERENCE: usize = 7;
/// A set-up is a whole build of more than a second, so three are enough.
const SETUPS: usize = 3;
/// K-mers of each document looked up after every round: the document must
/// come back (no false negatives) and the answer must be the reference's.
const PROBES_PER_DOC: usize = 4;
/// Single-term absent queries of the false-positive count. The index is
/// small and a false positive needs all three repetitions to err, so it
/// takes this many probes for the count to run to thousands.
const ABSENT_QUERIES: usize = 400_000;

fn params(genomes: usize) -> sut::Params {
    sut::params(genomes, GENOME_LEN, BUCKETS, REPETITIONS)
}

struct Archive {
    chunks: Vec<Vec<u8>>,
    genomes: usize,
}

impl Archive {
    fn generate(cfg: &RunConfig) -> Self {
        let genomes = cfg.docs(GENOMES);
        Self {
            chunks: sut::simulate_fasta_chunks(
                cfg.seed, genomes, GENOME_LEN, FAMILY, DIVERGENCE, CHUNK,
            ),
            genomes,
        }
    }

    /// One round: a fresh index, every chunk through the pipelined ingest.
    /// Returns per-chunk times.
    fn build(&self) -> (Index, Vec<Duration>, Duration) {
        let mut index = sut::empty_index(params(self.genomes));
        let mut chunk_times = Vec::with_capacity(self.chunks.len());
        let start = Instant::now();
        for chunk in &self.chunks {
            let t0 = Instant::now();
            sut::ingest_fasta_chunk(&mut index, chunk);
            chunk_times.push(t0.elapsed());
        }
        (index, chunk_times, start.elapsed())
    }
}

/// The oracle for builds: the reference index, and for each document a few
/// of its own k-mers.
struct BuildOracle {
    reference: Index,
    probes: Vec<(u32, u64)>,
}

impl BuildOracle {
    fn new(cfg: &RunConfig, archive: &Archive) -> Self {
        let mut rng = XorShift::new(cfg.seed, 0xB1);
        let mut reference = sut::empty_index(params(archive.genomes));
        let mut probes = Vec::new();
        let mut doc = 0u32;
        for chunk in &archive.chunks {
            for (name, kmers) in sut::fasta_kmers(chunk) {
                sut::insert_reference(&mut reference, &name, &kmers);
                for _ in 0..PROBES_PER_DOC {
                    probes.push((doc, kmers[rng.below(kmers.len() as u64) as usize]));
                }
                doc += 1;
            }
        }
        Self { reference, probes }
    }

    /// One round's product: every document is an op. A document fails if
    /// any of its own k-mers does not return it or returns other documents
    /// than the reference does; if the index as a whole is not the
    /// reference bit for bit, every document of the round fails.
    fn check(&self, tally: &mut Tally, built: &Index, docs: usize) {
        if *built != self.reference {
            for d in 0..docs {
                tally.errored(format!(
                    "round product differs from the reference (doc {d})"
                ));
            }
            return;
        }
        let mut ctx = QueryContext::new();
        let mut bad = vec![false; docs];
        for &(doc, kmer) in &self.probes {
            let answer = sut::query_full(built, &[kmer], &mut ctx);
            let reference = sut::query_sparse(&self.reference, &[kmer], &mut ctx);
            if crate::oracle::check(&answer, &[doc], &reference).is_err() {
                bad[doc as usize] = true;
            }
        }
        for (d, bad) in bad.into_iter().enumerate() {
            if bad {
                tally.errored(format!("document {d} lost one of its k-mers"));
            } else {
                tally.passed(1);
            }
        }
    }
}

pub fn run(cfg: &RunConfig) -> Outcome {
    let archive = Archive::generate(cfg);
    // Set-up is one whole discarded build: it faults in the allocator's
    // pages and warms the pipeline's threads for the timed rounds.
    let setups: Vec<f64> = (0..SETUPS)
        .map(|_| archive.build().2.as_secs_f64())
        .collect();
    let oracle = BuildOracle::new(cfg, &archive);
    let rounds = cfg.slices(ROUNDS_AT_REFERENCE);
    let mut tally = Tally::default();
    let mut per_doc_ns = Vec::new();
    let mut slices = Vec::new();
    let mut last = None;
    for _ in 0..rounds {
        let (index, chunk_times, elapsed) = archive.build();
        per_doc_ns.extend(
            chunk_times
                .iter()
                .map(|t| t.as_nanos() as f64 / CHUNK as f64),
        );
        slices.push(Slice {
            ops: archive.genomes,
            elapsed,
        });
        oracle.check(&mut tally, &index, archive.genomes);
        last = Some(index);
    }
    let index = last.expect("at least one round");

    let absent = absent_terms(cfg.seed, cfg.ops(ABSENT_QUERIES));
    let mut ctx = QueryContext::new();
    let fp_before = tally.false_positive_docs;
    for &t in &absent {
        let answer = sut::query_full(&index, &[t], &mut ctx);
        let reference = sut::query_sparse(&oracle.reference, &[t], &mut ctx);
        tally.answered("absent k-mer", &answer, &[], &reference);
    }
    let fp_docs = tally.false_positive_docs - fp_before;

    let e2e = EndToEnd {
        setup_s: median(&setups),
        op_p50_us: median(&per_doc_ns) / 1e3,
        ops_per_s: median_ops_per_s(&slices),
        index_bytes_per_doc: index.size_bytes() as f64 / archive.genomes as f64,
        fp_docs_per_op: fp_docs as f64 / absent.len() as f64,
    };
    Outcome {
        tally,
        metrics: e2e.metrics(),
        sizes: format!(
            "genomes={} bases={GENOME_LEN} chunk={CHUNK} B={BUCKETS} R={REPETITIONS} rounds={rounds} \
             samples={} absent_queries={} slice_ops_per_s=[{}]",
            archive.genomes,
            per_doc_ns.len(),
            absent.len(),
            slice_rates(&slices),
        ),
    }
}

pub fn trace(cfg: &RunConfig, tracer: &mut Tracer) -> Outcome {
    let archive = Archive::generate(cfg);
    let oracle = BuildOracle::new(cfg, &archive);
    let mut m = LayerMetrics::zeroed();
    let mut tally = Tally::default();
    let docs = archive.genomes as f64;

    // Outermost surface, untraced then traced (one round each; a round is a
    // quarter of the untraced run's op stream or more).
    archive.build();
    let (_, _, untraced) = archive.build();
    let mut index = sut::empty_index(params(archive.genomes));
    let (mut producer_stall, mut writer_stall, mut inserts) = (0u64, 0u64, 0u64);
    let mut chunk_spans = Vec::new();
    let t0 = Instant::now();
    for (c, chunk) in archive.chunks.iter().enumerate() {
        let (report, id) = tracer.span("kmer.pipeline_fasta", (c * CHUNK) as u32, 0, || {
            sut::ingest_fasta_chunk(&mut index, chunk)
        });
        producer_stall += report.producer_stall_ns;
        writer_stall += report.writer_stall_ns;
        inserts += report.terms;
        chunk_spans.push(id);
    }
    let traced = t0.elapsed();
    oracle.check(&mut tally, &index, archive.genomes);
    m.set(
        "core.pipeline.producer_stall_ms",
        producer_stall as f64 / 1e6,
    );
    m.set("core.pipeline.writer_stall_ms", writer_stall as f64 / 1e6);
    m.set("core.pipeline.inserts", inserts as f64);
    m.set(
        "trace.overhead_share",
        traced.as_secs_f64() / untraced.as_secs_f64() - 1.0,
    );

    // The same documents against each inner surface, one thread: extract,
    // then hash, then write. The pipeline overlaps hash and write on two
    // threads, so the inner layers can add up to more than the outer span.
    let mut staged = sut::empty_index(params(archive.genomes));
    let mut batch = sut::empty_index(params(archive.genomes));
    let (mut extract, mut hash, mut apply, mut batch_insert) = (
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
        Duration::ZERO,
    );
    let mut kmers_total = 0usize;
    let mut op = 0u32;
    for (c, chunk) in archive.chunks.iter().enumerate() {
        let parent = chunk_spans[c];
        let start = tracer.now_ns();
        let t0 = Instant::now();
        let records = sut::fasta_kmers(chunk);
        extract += t0.elapsed();
        tracer.record("kmer.extract", op, parent, start, tracer.now_ns());
        for (name, kmers) in &records {
            kmers_total += kmers.len();
            let start = tracer.now_ns();
            let (h, a) = sut::hash_then_apply(&mut staged, name, kmers);
            let end = tracer.now_ns();
            let split = start + h.as_nanos() as u64;
            tracer.record("core.pipeline.hash", op, parent, start, split);
            tracer.record("core.pipeline.apply", op, parent, split, end);
            hash += h;
            apply += a;
            let t0 = Instant::now();
            sut::insert_batch_one_thread(&mut batch, name, kmers);
            batch_insert += t0.elapsed();
            op += 1;
        }
    }
    if staged != oracle.reference || batch != oracle.reference {
        tally.errored("hash+apply or batch build differs from the reference".into());
    }
    m.set("kmer.extract_s", extract.as_secs_f64());
    m.set(
        "kmer.mkmers_per_s",
        kmers_total as f64 / extract.as_secs_f64() / 1e6,
    );
    m.set("kmer.kmers", kmers_total as f64);
    m.set("core.pipeline.hash_s", hash.as_secs_f64());
    m.set("core.pipeline.apply_s", apply.as_secs_f64());
    m.set("core.batch.insert_s", batch_insert.as_secs_f64());

    let sample: Vec<u64> = absent_terms(cfg.seed, 1 << 16);
    let passes = cfg.ops(100);
    let t0 = Instant::now();
    for _ in 0..passes {
        black_box(sut::hash_pairs(black_box(&sample), REPETITIONS));
    }
    m.set(
        "hash.pair_ns_per_term",
        t0.elapsed().as_secs_f64() * 1e9 / (passes * sample.len() * REPETITIONS) as f64,
    );

    finish_trace(
        &mut m,
        tracer,
        archive.genomes,
        traced.as_secs_f64() * 1e6 / docs,
        &[
            "kmer.extract",
            "core.pipeline.hash",
            "core.pipeline.apply",
            "kmer.pipeline_fasta",
        ],
        false,
    );
    Outcome {
        tally,
        metrics: m.into_vec(),
        sizes: format!("genomes={} traced_rounds=1", archive.genomes),
    }
}
