//! Genomics substrate for the RAMBO reproduction.
//!
//! The paper's pipeline (§1, §5.1–5.2) converts each archive file into a set
//! of 31-mers before anything touches a Bloom filter:
//!
//! * a **document** is one sequencing run / assembled genome;
//! * its **terms** are the length-31 substrings (`k = 31`, chosen because it
//!   is discriminative and "small enough to be represented as a 64-bit
//!   integer variable with 2-bit encoding", §5.1);
//! * the input arrives either as **FASTQ** (raw reads, with sequencing
//!   errors) or **McCortex** (pre-filtered distinct k-mer sets).
//!
//! This crate provides all of that: [`encode`] packs DNA into `u64`s (with
//! reverse complements and canonical forms), [`KmerIter`] does the
//! sliding-window extraction, [`fasta`]/[`fastq`] parse the text formats,
//! [`KmerSet`] is our McCortex-like binary k-mer-set format,
//! [`sim::GenomeSimulator`] generates the synthetic archives that stand in
//! for the 170TB ENA dataset (see DESIGN.md "Substitutions"), and
//! [`ingest`] streams FASTA/FASTQ into an index through
//! `rambo_core::IngestPipeline`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cortex;
pub mod encode;
pub mod fasta;
pub mod fastq;
pub mod ingest;
mod iter;
pub mod sim;

pub use cortex::KmerSet;
pub use encode::{canonical_kmer, pack_kmer, revcomp_kmer, revcomp_seq, unpack_kmer};
pub use fasta::{FastaReader, FastaRecord};
pub use fastq::{FastqReader, FastqRecord};
pub use ingest::{
    pipeline_fasta_documents, pipeline_fastq_documents, IngestError, PipelinedIngest,
};
pub use iter::{kmers_of, KmerIter};

/// Maximum supported k for 2-bit packing into a `u64`.
pub const MAX_K: usize = 31;
