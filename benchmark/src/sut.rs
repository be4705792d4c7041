//! The system under test, and the only file of the benchmark that calls into
//! the repository (rule 7). It uses the surfaces ROADMAP.md says will
//! survive the serving-core refactor: `Catalog::builder()`,
//! `ServerConfig::builder()`, `IngestPipeline`,
//! `kmer::pipeline_fasta_documents`, `Rambo::query_terms_with`,
//! `Server::scope` + `serve_tcp`, `TenantRegistry` + `serve_tenant_tcp`.
//! The two wire protocols are spoken as raw bytes by `wire.rs`, which needs
//! nothing from here. When a surface moves, this file moves with it and the
//! workloads do not.

use crate::corpus::{doc_name, Corpus};
use rambo_core::{
    GenerationConfig, GenerationalIndex, IngestPipeline, QueryBatch, QueryMode, RamboBuilder,
};
use rambo_hash::HashPair;
use rambo_kmer::sim::GenomeSimulator;
use rambo_kmer::{kmers_of, pipeline_fasta_documents, FastaReader};
use rambo_server::{
    serve_tcp, serve_tenant_tcp, Catalog, Server, ServerConfig, ServerHandle, TenantOptions,
    TenantQuotas, TenantRegistry, TenantServeOptions,
};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

pub use rambo_core::{PipelineReport, QueryContext, Rambo as Index, RamboParams as Params};

/// Index seed: fixed, because `--seed` changes the inputs and nothing else.
const INDEX_SEED: u64 = 7;
/// Per-BFU false-positive target of every index the benchmark builds.
const TARGET_FPR: f64 = 0.01;
/// The paper's k-mer length; k-mers are canonical (strand-neutral).
const KMER: usize = 31;
/// Deadline on every served query: long enough that it is never the reason
/// an answer is missing on a healthy run, so a deadline reply is a failure.
pub const DEADLINE: Duration = Duration::from_secs(10);

// ---------------------------------------------------------------------
// Index: geometry, the two build routes, the query calls.
// ---------------------------------------------------------------------

/// Geometry for `docs` documents of about `terms_per_doc` terms in `buckets`
/// × `repetitions` BFUs. The sizes are the workload's constants, never the
/// generated corpus's, so the geometry is the same for every `--seed`.
pub fn params(docs: usize, terms_per_doc: usize, buckets: u64, repetitions: usize) -> Params {
    RamboBuilder::new()
        .expected_documents(docs)
        .expected_terms_per_doc(terms_per_doc)
        .buckets(buckets)
        .repetitions(repetitions)
        .target_fpr(TARGET_FPR)
        .seed(INDEX_SEED)
        .params()
        .expect("benchmark geometry is valid")
}

pub fn empty_index(params: Params) -> Index {
    Index::new(params).expect("benchmark geometry is valid")
}

/// The build route under test: the bounded-queue ingestion pipeline.
pub fn build_pipelined(params: Params, corpus: &Corpus) -> Index {
    let docs = corpus
        .docs
        .iter()
        .enumerate()
        .map(|(i, terms)| (doc_name(i), terms.clone()));
    IngestPipeline::new()
        .build(params, docs)
        .expect("pipelined build of distinct document names")
        .0
}

/// The reference route: Algorithm 1 as written, one term at a time on one
/// thread. Shares no batching, hashing-ahead or row-sorting code with the
/// routes under test.
pub fn build_reference(params: Params, corpus: &Corpus) -> Index {
    let mut index = empty_index(params);
    for (i, terms) in corpus.docs.iter().enumerate() {
        insert_reference(&mut index, &doc_name(i), terms);
    }
    index
}

pub fn insert_reference(index: &mut Index, name: &str, terms: &[u64]) {
    let doc = index.add_document(name).expect("distinct document names");
    for &t in terms {
        index.insert_term_u64(doc, t).expect("document just added");
    }
}

/// One document through the batch engine on one thread (`core.batch`).
pub fn insert_batch_one_thread(index: &mut Index, name: &str, terms: &[u64]) {
    index
        .insert_document_batch_with(name, terms, 1)
        .expect("distinct document names");
}

/// Hash stage and write stage of the pipeline, called apart (`core.pipeline`).
pub fn hash_then_apply(index: &mut Index, name: &str, terms: &[u64]) -> (Duration, Duration) {
    let plan = index.hash_plan();
    let t0 = std::time::Instant::now();
    let hashed = plan.hash_document(name, terms);
    let hash = t0.elapsed();
    let t1 = std::time::Instant::now();
    index.apply_hashed(&hashed).expect("plan of this index");
    (hash, t1.elapsed())
}

pub fn query_full(index: &Index, terms: &[u64], ctx: &mut QueryContext) -> Vec<u32> {
    index.query_terms_with(terms, QueryMode::Full, ctx)
}

pub fn query_sparse(index: &Index, terms: &[u64], ctx: &mut QueryContext) -> Vec<u32> {
    index.query_terms_with(terms, QueryMode::Sparse, ctx)
}

pub fn query_theta(index: &Index, terms: &[u64], theta: f64, ctx: &mut QueryContext) -> Vec<u32> {
    index.query_sequence_theta(terms, theta, QueryMode::Full, ctx)
}

/// The reference's θ answer by the other evaluation strategy (RAMBO+).
pub fn query_theta_sparse(
    index: &Index,
    terms: &[u64],
    theta: f64,
    ctx: &mut QueryContext,
) -> Vec<u32> {
    index.query_sequence_theta(terms, theta, QueryMode::Sparse, ctx)
}

/// `core.batch`: `QueryBatch`, the memoising evaluator the server keeps per
/// tier and runs inline.
pub struct Evaluator<'i>(QueryBatch<'i>);

impl<'i> Evaluator<'i> {
    pub fn new(index: &'i Index) -> Self {
        Self(QueryBatch::new(index))
    }

    pub fn query(&mut self, terms: &[u64]) -> Vec<u32> {
        self.0.query_terms(terms, QueryMode::Full)
    }
}

/// `hash`: the per-repetition hash pairs of a term set, as `core.query`
/// derives them before it touches a filter.
pub fn hash_pairs(terms: &[u64], repetitions: usize) -> u64 {
    let mut acc = 0u64;
    for rep in 0..repetitions as u64 {
        for &t in terms {
            acc ^= HashPair::of_u64(t, INDEX_SEED ^ rep).index(0, u64::MAX);
        }
    }
    acc
}

/// `bitvec.kernel`: AND two rows into `dst`; true if any bit survives.
pub fn kernel_and_rows(dst: &mut [u64], a: &[u64], b: &[u64]) -> bool {
    rambo_bitvec::kernel::and_rows_into_any(dst, [a, b])
}

/// Serialize and reopen zero-copy (`core.serialize`).
pub fn to_bytes(index: &Index) -> Arc<[u8]> {
    index.to_bytes().expect("flat index serializes").into()
}

pub fn open_view(bytes: &Arc<[u8]>) -> Index {
    Index::open_view(bytes.clone()).expect("bytes of to_bytes reopen")
}

/// The index folded `times` times (B halves each time), by the core route.
pub fn folded(index: &Index, times: u32) -> Index {
    index.folded(times).expect("bucket count divides")
}

// ---------------------------------------------------------------------
// Genomes: the archive the build workload ingests.
// ---------------------------------------------------------------------

/// `genomes` simulated genomes of `len` bases in families of `family` that
/// diverge from a common ancestor by `divergence`, as FASTA text in chunks
/// of `chunk` records. Record `i` is named `g<i>`.
pub fn simulate_fasta_chunks(
    seed: u64,
    genomes: usize,
    len: usize,
    family: usize,
    divergence: f64,
    chunk: usize,
) -> Vec<Vec<u8>> {
    let mut sim = GenomeSimulator::new(seed);
    let mut chunks = Vec::new();
    let mut current = Vec::new();
    let mut records = 0;
    while records < genomes {
        let ancestor = sim.random_genome(len);
        for seq in sim.derive_family(&ancestor, family.min(genomes - records), divergence) {
            current.extend_from_slice(format!(">g{records}\n").as_bytes());
            current.extend_from_slice(&seq);
            current.push(b'\n');
            records += 1;
            if records % chunk == 0 {
                chunks.push(std::mem::take(&mut current));
            }
        }
    }
    if !current.is_empty() {
        chunks.push(current);
    }
    chunks
}

/// The records of one FASTA chunk as `(name, canonical 31-mers)`.
pub fn fasta_kmers(chunk: &[u8]) -> Vec<(String, Vec<u64>)> {
    FastaReader::new(chunk)
        .map(|rec| {
            let rec = rec.expect("generated FASTA parses");
            let kmers = kmers_of(&rec.seq, KMER, true).collect();
            (rec.id, kmers)
        })
        .collect()
}

/// One chunk through the pipelined FASTA ingest: parse, extract, hash and
/// write overlapped on two threads.
pub fn ingest_fasta_chunk(index: &mut Index, chunk: &[u8]) -> PipelineReport {
    pipeline_fasta_documents(
        index,
        FastaReader::new(chunk),
        KMER,
        true,
        &IngestPipeline::new(),
    )
    .expect("generated FASTA ingests")
    .report
}

// ---------------------------------------------------------------------
// The static server: catalog, engine, binary TCP front.
// ---------------------------------------------------------------------

pub type Handle<'a> = ServerHandle<'a>;

/// The tiered catalog the static server answers from.
pub struct Tiers {
    catalog: Catalog,
}

impl Tiers {
    /// `halvings` + 1 tiers: the base index and its successive fold-overs.
    pub fn build(base: &Index, halvings: u32) -> Self {
        let catalog = Catalog::builder()
            .base(base)
            .halving(halvings)
            .build()
            .expect("halving catalog of a power-of-two-divisible B");
        Self { catalog }
    }

    pub fn len(&self) -> usize {
        self.catalog.len()
    }

    /// Bytes of the structure that answers queries: every tier, one buffer.
    pub fn bytes(&self) -> usize {
        self.catalog.buffer().len()
    }

    /// An FPR budget that routes to exactly tier `t`.
    pub fn budget_for(&self, t: usize) -> f64 {
        let budget = self.catalog.info(t).predicted_fpr;
        assert_eq!(self.catalog.select(budget), t, "tier budgets are distinct");
        budget
    }

    /// Tier `t` as the catalog opened it (`core.query` under `server.handle`).
    pub fn tier(&self, t: usize) -> &Index {
        self.catalog.tier(t)
    }
}

/// What the engine counted while it served.
#[derive(Debug, Clone, Copy, Default)]
pub struct EngineCounts {
    pub completed: u64,
    pub inline: u64,
    pub batches: u64,
    pub rejected: u64,
    pub cache_hits: u64,
    pub cache_lookups: u64,
}

/// Run `f` against a default-configured server over `tiers`, listening on a
/// loopback port with the binary front. The server is stopped and joined
/// before this returns.
pub fn serve_static<T>(
    tiers: &Tiers,
    f: impl FnOnce(&Handle<'_>, SocketAddr) -> T,
) -> (T, EngineCounts) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let stop = AtomicBool::new(false);
    let config = ServerConfig::builder().build();
    let (out, stats) = Server::scope(&tiers.catalog, config, |handle| {
        std::thread::scope(|s| {
            let front = s.spawn(|| serve_tcp(handle, listener, &stop));
            let out = f(handle, addr);
            stop.store(true, Ordering::Relaxed);
            front
                .join()
                .expect("front thread")
                .expect("front ends cleanly");
            out
        })
    });
    let cache = stats.cache.map(|c| c.counters).unwrap_or_default();
    let counts = EngineCounts {
        completed: stats.total_completed(),
        inline: stats.total_inline(),
        batches: stats.total_batches(),
        rejected: stats.total_rejected(),
        cache_hits: cache.hits,
        cache_lookups: cache.hits + cache.misses,
    };
    (out, counts)
}

/// `server.handle`: one query through the engine, no socket.
pub fn handle_query(
    handle: &Handle<'_>,
    terms: &[u64],
    fpr_budget: f64,
) -> Result<(Vec<u32>, usize), String> {
    handle
        .query(terms, fpr_budget, DEADLINE)
        .map(|r| (r.docs, r.tier))
        .map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------
// The tenant server: registry, RESP front, and the layers beneath it.
// ---------------------------------------------------------------------

pub type Registry = TenantRegistry;

/// An empty tenant registry of base geometry `params` and default quotas.
pub fn registry(params: Params) -> Registry {
    TenantRegistry::new(params, TenantQuotas::default()).expect("benchmark geometry is valid")
}

/// Run `f` against an empty tenant registry of base geometry `params`,
/// listening on a loopback port with the RESP front. Stopped and joined
/// before this returns.
pub fn serve_tenants<T>(params: Params, f: impl FnOnce(&Registry, SocketAddr) -> T) -> T {
    let registry = registry(params);
    let listener = TcpListener::bind("127.0.0.1:0").expect("bind loopback");
    let addr = listener.local_addr().expect("bound address");
    let stop = AtomicBool::new(false);
    std::thread::scope(|s| {
        let front = s.spawn(|| {
            serve_tenant_tcp(
                &registry,
                listener,
                None,
                &stop,
                &TenantServeOptions::default(),
            )
        });
        let out = f(&registry, addr);
        stop.store(true, Ordering::Relaxed);
        front
            .join()
            .expect("front thread")
            .expect("front ends cleanly");
        out
    })
}

/// Shape of one tenant after its merges have quiesced.
#[derive(Debug, Clone, Copy)]
pub struct TenantShape {
    pub documents: usize,
    pub generations: usize,
    pub size_bytes: usize,
    pub cache_hits: u64,
}

pub fn tenant_shape(registry: &Registry, tenant: &str) -> TenantShape {
    registry.drain_maintenance();
    let s = registry.stats(tenant).expect("tenant exists");
    TenantShape {
        documents: s.documents,
        generations: s.generations,
        size_bytes: s.size_bytes,
        cache_hits: s.cache.map_or(0, |c| c.counters.hits),
    }
}

/// `server.tenant`: the registry called in-process, no socket, no RESP.
pub fn tenant_create(registry: &Registry, tenant: &str) {
    registry
        .create(tenant, TenantOptions::default())
        .expect("fresh tenant name");
}

pub fn tenant_insert(registry: &Registry, tenant: &str, name: &str, terms: &[u64]) {
    registry
        .insert_document(tenant, name, terms)
        .expect("insert within quota");
}

pub fn tenant_query_theta(
    registry: &Registry,
    tenant: &str,
    terms: &[u64],
    theta: f64,
) -> Vec<u32> {
    registry
        .query_theta(tenant, terms, theta, None)
        .expect("tenant exists")
}

pub fn tenant_maintain(registry: &Registry) -> bool {
    registry.maintain_once()
}

/// `core.generations`: the live index beneath one tenant, with the same
/// seal policy the registry gives a tenant created with default options.
pub struct Generations {
    index: GenerationalIndex,
    pub seals: u64,
    pub merges: u64,
    pub merge_time: Duration,
}

impl Generations {
    pub fn new(params: Params) -> Self {
        let config = GenerationConfig {
            memtable_fpr_budget: TenantOptions::default().fpr,
            ..GenerationConfig::default()
        };
        Self {
            index: GenerationalIndex::new(params, config).expect("benchmark geometry is valid"),
            seals: 0,
            merges: 0,
            merge_time: Duration::ZERO,
        }
    }

    /// Insert, then run the merges the insert made due (the reactor runs
    /// them on its next idle tick; here they are timed apart).
    pub fn insert(&mut self, name: &str, terms: &[u64]) {
        let before = self.index.memtable_documents();
        self.index
            .insert_document(name, terms)
            .expect("distinct document names");
        if self.index.memtable_documents() <= before {
            self.seals += 1;
        }
        let t0 = std::time::Instant::now();
        while self
            .index
            .merge_once()
            .expect("merge of same-geometry generations")
        {
            self.merges += 1;
        }
        self.merge_time += t0.elapsed();
    }

    pub fn query_theta(&self, terms: &[u64], theta: f64, ctx: &mut QueryContext) -> Vec<u32> {
        self.index
            .query_sequence_theta_with(terms, theta, QueryMode::Full, ctx)
    }

    pub fn count(&self) -> usize {
        self.index.num_generations()
    }
}
