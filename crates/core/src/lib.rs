//! # RAMBO — Repeated And Merged BloOm Filter
//!
//! Reproduction of the index from *"Fast Processing and Querying of 170TB of
//! Genomics Data via a Repeated And Merged BloOm Filter (RAMBO)"* (Gupta et
//! al., SIGMOD 2021).
//!
//! ## The problem
//!
//! Multi-set membership: given `K` documents `S = {S₁ … S_K}` (each a set of
//! terms — 31-mers for genomes, words for text) and a query term `q`, return
//! every `Sᵢ` containing `q`, with **zero false negatives** and a small
//! false-positive rate. BIGSI/COBS keep one Bloom filter per document and
//! probe all `K` at query time; sequence Bloom trees get `log K` best-case
//! but are sequential and memory-hungry.
//!
//! ## The idea (paper §3)
//!
//! RAMBO is a Count-Min-Sketch arrangement of Bloom filters. The documents
//! are partitioned into `B ≪ K` groups by a 2-universal hash of the document
//! *identity*; each group is compressed into one **Bloom Filter for the
//! Union** (BFU). This is repeated `R` times with independent partition
//! hashes. A query probes the `B×R` BFUs, takes the union of document sets
//! within each repetition and the intersection across repetitions. Each
//! repetition cuts the candidate pool by `1/B` in expectation, so
//! `R = O(log K − log δ)` repetitions suffice (Theorem 4.3), giving expected
//! query time `O(√K (log K − log δ))` (Theorem 4.5).
//!
//! ## What this crate provides
//!
//! * [`Rambo`] — the index: Algorithm 1 insertion, Algorithm 2 querying,
//!   plain and **RAMBO+** sparse evaluation ([`QueryMode`]), large-sequence
//!   queries with first-FALSE early exit (§3.3.1), and §5.3 **fold-over**
//!   (halve `B` by OR-ing filter halves, trading memory for FPR). Every
//!   query verb, on a static index or a live tenant's, runs on one planned
//!   probe: each term hashed once per repetition into a row plan held in
//!   the [`QueryContext`], one gather-AND kernel call per repetition.
//! * [`HashPlan::hash_document`] → [`Rambo::apply_hashed`] — the write
//!   path for one document: dedupe, hash each unique term once per
//!   repetition into row blocks, then set the blocks in the matrices.
//!   [`Rambo::insert_document_batch`] runs the two halves on the calling
//!   thread. [`IngestPipeline`] runs the same per-repetition step for a
//!   stream: the calling thread parses, dedupes and registers documents in
//!   order, and a worker pool hashes and writes one repetition of one
//!   document per job. Both are bit-identical to term-at-a-time
//!   Algorithm 1. A live index takes inserts the same way: it is one
//!   [`Rambo`] whose fixed `B × R` grid absorbs each new document's bits,
//!   the paper's cheap streaming update.
//! * [`QueryBatch`] — shared-scratch batch querying that allocates nothing
//!   per query but the answer.
//! * [`Rambo::open_view`]/[`Rambo::open_view_at`] — zero-copy index loads:
//!   the v2 serialization format 8-byte-aligns every matrix word payload, so
//!   a serialized index (or several fold-over versions concatenated in one
//!   file) is re-opened by *borrowing* its words in place from an
//!   `Arc<[u8]>` — no payload copy, copy-on-write on mutation. The probe
//!   hot path runs through the fused word-parallel kernels of
//!   [`rambo_bitvec::kernel`] (re-exported as [`kernel`]): portable loops,
//!   one compilation, auto-vectorized.
//! * [`RamboBuilder`]/[`RamboParams`] — parameter selection following §4/§5.1
//!   (`B ≈ √(KV/η)`, `R ≈ log K − log δ`, BFU sizing by pooled cardinality).
//! * [`sharded`] — the distributed construction of §5.3: two-level hash
//!   routing over simulated nodes, embarrassingly parallel ingestion, and
//!   lossless stacking into a monolithic index.
//! * [`theory`] — the paper's analytic results (Lemmas 4.1, 4.2, 4.4, 4.6,
//!   Theorems 4.3, 4.5) as executable formulas, cross-checked against
//!   measurements in the benches.
//!
//! ## Quick start
//!
//! ```
//! use rambo_core::{Rambo, RamboBuilder};
//!
//! // 100 documents, ~1000 terms each, target per-BFU FPR 1%.
//! let mut index = RamboBuilder::new()
//!     .expected_documents(100)
//!     .expected_terms_per_doc(1000)
//!     .target_fpr(0.01)
//!     .seed(7)
//!     .build()
//!     .unwrap();
//!
//! let doc = index.add_document("genome-A").unwrap();
//! index.insert_term_u64(doc, 0xAC67).unwrap(); // a packed k-mer
//! let hits = index.query_u64(0xAC67);
//! assert_eq!(hits, vec![doc]); // zero false negatives
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batch;
mod builder;
mod error;
mod fold;
mod forwards;
mod index;
mod matrix;
mod params;
mod partition;
pub mod pipeline;
mod query;
mod serialize;
pub mod sharded;
pub mod theory;

pub use batch::QueryBatch;
pub use builder::RamboBuilder;
pub use error::RamboError;
pub use fold::TierCompression;
#[doc(hidden)]
pub use forwards::{GenerationConfig, GenerationalIndex};
pub use index::{DocId, Rambo};
pub use params::RamboParams;
pub use partition::PartitionScheme;
pub use pipeline::{HashPlan, HashedDoc, IngestPipeline, PipelineReport};
pub use query::{canonical_query_key, multiset_query_key, QueryContext, QueryMode};
pub use rambo_bitvec::kernel;
pub use sharded::{build_sharded_parallel, ShardedRambo};
