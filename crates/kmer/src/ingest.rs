//! Genomics ingestion glue: FASTA / FASTQ streams → a RAMBO index, through
//! the ingestion pipeline.
//!
//! The paper's pipeline treats one sequencing run or assembled genome as one
//! document and its distinct 31-mers as the term set. These helpers feed the
//! parsers in this crate straight into [`IngestPipeline`]: the calling
//! thread parses each record and extracts its k-mers, and the pipeline's
//! worker pool hashes each unique k-mer once per repetition and writes the
//! bits while the next records are parsed (small records travel to the pool
//! in batches; a genome-sized one is a batch of its own). A document already in memory (a
//! [`crate::KmerSet`], an extracted k-mer vector) goes through
//! [`Rambo::insert_document_batch`] directly.

use crate::fasta::FastaReader;
use crate::fastq::FastqReader;
use crate::iter::kmers_of;
use rambo_core::{DocId, IngestPipeline, PipelineReport, Rambo, RamboError};
use std::fmt;
use std::io::{self, BufRead};

/// Errors from streaming ingestion: parser I/O or index-level failures.
#[derive(Debug)]
pub enum IngestError {
    /// The underlying reader failed or the input was malformed.
    Io(io::Error),
    /// The index rejected a document (duplicate name, …).
    Index(RamboError),
}

impl fmt::Display for IngestError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Io(e) => write!(f, "ingestion I/O error: {e}"),
            Self::Index(e) => write!(f, "ingestion index error: {e}"),
        }
    }
}

impl std::error::Error for IngestError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Index(e) => Some(e),
        }
    }
}

impl From<io::Error> for IngestError {
    fn from(e: io::Error) -> Self {
        Self::Io(e)
    }
}

impl From<RamboError> for IngestError {
    fn from(e: RamboError) -> Self {
        Self::Index(e)
    }
}

/// Outcome of a pipelined streaming ingestion: the ids issued plus the
/// pipeline's stall/queue telemetry.
#[derive(Debug, Clone)]
pub struct PipelinedIngest {
    /// Ids of the documents ingested, in stream order.
    pub ids: Vec<DocId>,
    /// Queue/stall counters from the pipeline run.
    pub report: PipelineReport,
}

/// Upper bound on the k-mers of `seq`: its window count.
fn windows(seq: &[u8], k: usize) -> usize {
    (seq.len() + 1).saturating_sub(k)
}

/// Ingest a FASTA stream through the ingestion pipeline: every record
/// becomes one document named by its header, with the record's k-mers as
/// terms. While the pipeline's workers hash and write document *n*'s
/// filter bits, the calling thread is already parsing record *n+1* and
/// extracting its k-mers — the overlap that matters when records stream off
/// storage or a decompressor.
///
/// # Errors
/// [`IngestError::Io`] on malformed FASTA or reader failure,
/// [`IngestError::Index`] on duplicate headers. Every document registered
/// before the failure is completely written; nothing after it is
/// registered.
pub fn pipeline_fasta_documents<R: BufRead>(
    index: &mut Rambo,
    reader: FastaReader<R>,
    k: usize,
    canonical: bool,
    pipeline: &IngestPipeline,
) -> Result<PipelinedIngest, IngestError> {
    let start = index.num_documents() as DocId;
    let mut parse_err: Option<io::Error> = None;
    let mut records = reader;
    let report = pipeline.ingest(
        index,
        std::iter::from_fn(|| match records.next() {
            None => None,
            Some(Ok(rec)) => {
                let mut terms = Vec::with_capacity(windows(&rec.seq, k));
                terms.extend(kmers_of(&rec.seq, k, canonical));
                Some((rec.id, terms))
            }
            Some(Err(e)) => {
                // Stop producing; the workers drain what's queued. The I/O
                // error is surfaced after the index error check below.
                parse_err = Some(e);
                None
            }
        }),
    )?;
    if let Some(e) = parse_err {
        return Err(e.into());
    }
    Ok(PipelinedIngest {
        ids: (start..index.num_documents() as DocId).collect(),
        report,
    })
}

/// Ingest several FASTQ runs through the pipeline, each as **one** document
/// (the genomics convention: one sequencing run per file) whose term set is
/// the k-mers across all its reads: run *n+1* is parsed while run *n* is
/// hashed and written.
///
/// # Errors
/// As [`pipeline_fasta_documents`]; the first malformed run stops the
/// stream.
pub fn pipeline_fastq_documents<R: BufRead>(
    index: &mut Rambo,
    runs: impl IntoIterator<Item = (String, FastqReader<R>)>,
    k: usize,
    canonical: bool,
    pipeline: &IngestPipeline,
) -> Result<PipelinedIngest, IngestError> {
    let start = index.num_documents() as DocId;
    let mut parse_err: Option<io::Error> = None;
    let mut runs = runs.into_iter();
    let report = pipeline.ingest(
        index,
        std::iter::from_fn(|| {
            let (name, reader) = runs.next()?;
            let mut kmers: Vec<u64> = Vec::new();
            for record in reader {
                match record {
                    Ok(rec) => {
                        kmers.reserve(windows(&rec.seq, k));
                        kmers.extend(kmers_of(&rec.seq, k, canonical));
                    }
                    Err(e) => {
                        parse_err = Some(e);
                        return None;
                    }
                }
            }
            Some((name, kmers))
        }),
    )?;
    if let Some(e) = parse_err {
        return Err(e.into());
    }
    Ok(PipelinedIngest {
        ids: (start..index.num_documents() as DocId).collect(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cortex::KmerSet;
    use rambo_core::RamboParams;
    use std::io::Cursor;

    fn index() -> Rambo {
        Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 5)).unwrap()
    }

    fn fasta(
        index: &mut Rambo,
        text: &str,
        k: usize,
        canonical: bool,
    ) -> Result<PipelinedIngest, IngestError> {
        pipeline_fasta_documents(
            index,
            FastaReader::new(Cursor::new(text)),
            k,
            canonical,
            &IngestPipeline::new(),
        )
    }

    #[test]
    fn fasta_records_become_documents() {
        let mut idx = index();
        let out = fasta(&mut idx, ">g1\nACGTACGTACGT\n>g2\nTTTTGGGGCCCC\n", 5, false).unwrap();
        assert_eq!(out.ids, vec![0, 1]);
        assert_eq!(idx.document_name(0), "g1");
        // A k-mer of g1 finds g1.
        let probe = kmers_of(b"ACGTACGTACGT", 5, false).next().unwrap();
        assert!(idx.query_u64(probe).contains(&0));
    }

    /// A reader that fails mid-stream: the I/O error surfaces, and the
    /// records parsed before it are in the index.
    #[test]
    fn fasta_errors_propagate() {
        struct Broken;
        impl io::Read for Broken {
            fn read(&mut self, _: &mut [u8]) -> io::Result<usize> {
                Err(io::Error::other("disk on fire"))
            }
        }
        let stream = io::Read::chain(Cursor::new(">g1\nACGTACGT\n>g2\nTTTTGGGG\n>g3\n"), Broken);
        let mut idx = index();
        let err = pipeline_fasta_documents(
            &mut idx,
            FastaReader::new(io::BufReader::new(stream)),
            4,
            false,
            &IngestPipeline::new(),
        );
        assert!(matches!(err, Err(IngestError::Io(_))));
        assert_eq!(idx.document_names(), ["g1", "g2"]);
    }

    #[test]
    fn fastq_file_is_one_document() {
        let fastq = "@r1\nACGTACGT\n+\nFFFFFFFF\n@r2\nGGGGCCCC\n+\nFFFFFFFF\n";
        let mut idx = index();
        let out = pipeline_fastq_documents(
            &mut idx,
            [("run-1".to_string(), FastqReader::new(Cursor::new(fastq)))],
            4,
            false,
            &IngestPipeline::new(),
        )
        .unwrap();
        assert_eq!(idx.num_documents(), 1);
        let probe = kmers_of(b"ACGTACGT", 4, false).next().unwrap();
        assert!(idx.query_u64(probe).contains(&out.ids[0]));
    }

    #[test]
    fn kmer_set_ingestion_matches_sequence_ingestion() {
        let seq = b"ACGTTGCAACGTGGGTACCA";
        let set = KmerSet::from_sequence(seq, 7, true);
        let raw: Vec<u64> = kmers_of(seq, 7, true).collect();
        let mut via_set = index();
        let mut via_seq = index();
        via_set.insert_document_batch("doc", set.kmers()).unwrap();
        via_seq.insert_document_batch("doc", &raw).unwrap();
        // Same distinct k-mers → same filter bits; only the multiplicity
        // accounting may differ (the raw sequence repeats k-mers).
        for kmer in set.kmers() {
            assert_eq!(via_set.query_u64(*kmer), via_seq.query_u64(*kmer));
        }
    }

    #[test]
    fn pipelined_fasta_is_bit_identical_to_eager() {
        let text = ">g1\nACGTACGTACGTTTAA\n>g2\nTTTTGGGGCCCCAAAA\n>g3\nACACACACGTGTGTGT\n";
        let mut eager = index();
        for rec in FastaReader::new(Cursor::new(text)) {
            let rec = rec.unwrap();
            let terms: Vec<u64> = kmers_of(&rec.seq, 5, true).collect();
            eager.insert_document_batch(&rec.id, &terms).unwrap();
        }
        let mut piped = index();
        let out = fasta(&mut piped, text, 5, true).unwrap();
        assert_eq!(eager, piped, "pipelined FASTA ingest must be lossless");
        assert_eq!(out.ids, vec![0, 1, 2]);
        assert_eq!(out.report.docs, 3);
    }

    #[test]
    fn pipelined_fasta_surfaces_parse_errors() {
        let bad = "ACGT\n>late\nAC\n"; // data before first header
        let mut idx = index();
        assert!(matches!(
            fasta(&mut idx, bad, 4, false),
            Err(IngestError::Io(_))
        ));
        assert_eq!(idx.num_documents(), 0);
    }

    /// A malformed record after hundreds of small ones, all still in the
    /// pool's open batch: the parse error returns, and every record before
    /// it is landed, bit-identical to eager per-record ingest.
    #[test]
    fn pipelined_fasta_parse_error_mid_batch_lands_earlier_records() {
        let bases = |i: usize| -> String {
            (0..24)
                .map(|j| b"ACGT"[(i * 7 + j * j) % 4] as char)
                .collect()
        };
        let good: String = (0..300).map(|i| format!(">g{i}\n{}\n", bases(i))).collect();
        let text = [good.as_bytes(), b">bad\nAC\xffGT\n>never\nACGTACGT\n"].concat();
        let mut eager = index();
        for rec in FastaReader::new(Cursor::new(good.as_bytes())) {
            let rec = rec.unwrap();
            let terms: Vec<u64> = kmers_of(&rec.seq, 5, true).collect();
            eager.insert_document_batch(&rec.id, &terms).unwrap();
        }
        let mut piped = index();
        let err = pipeline_fasta_documents(
            &mut piped,
            FastaReader::new(Cursor::new(text)),
            5,
            true,
            &IngestPipeline::new(),
        );
        assert!(
            matches!(err, Err(IngestError::Io(ref e)) if e.kind() == io::ErrorKind::InvalidData)
        );
        assert_eq!(piped.num_documents(), 300);
        assert_eq!(eager, piped, "every record before the error is landed");
    }

    #[test]
    fn pipelined_fastq_runs_match_eager_per_run_ingest() {
        let run = |tag: u8| {
            format!("@r1-{tag}\nACGTACGT\n+\nFFFFFFFF\n@r2-{tag}\nGGGGCCCC\n+\nFFFFFFFF\n")
        };
        let mut eager = index();
        for t in 0..3u8 {
            let mut kmers: Vec<u64> = Vec::new();
            for rec in FastqReader::new(Cursor::new(run(t))) {
                kmers.extend(kmers_of(&rec.unwrap().seq, 4, false));
            }
            eager
                .insert_document_batch(&format!("run-{t}"), &kmers)
                .unwrap();
        }
        let mut piped = index();
        let out = pipeline_fastq_documents(
            &mut piped,
            (0..3u8).map(|t| (format!("run-{t}"), FastqReader::new(Cursor::new(run(t))))),
            4,
            false,
            &IngestPipeline::new(),
        )
        .unwrap();
        assert_eq!(eager, piped, "pipelined FASTQ ingest must be lossless");
        assert_eq!(out.ids, vec![0, 1, 2]);
    }

    #[test]
    fn pipelined_fastq_stops_on_malformed_run() {
        let good = "@r\nACGT\n+\nIIII\n";
        let bad = "@r\nACGT\n+\nII\n"; // length mismatch
        let mut idx = index();
        let err = pipeline_fastq_documents(
            &mut idx,
            vec![
                ("good".to_string(), FastqReader::new(Cursor::new(good))),
                ("bad".to_string(), FastqReader::new(Cursor::new(bad))),
                ("never".to_string(), FastqReader::new(Cursor::new(good))),
            ],
            4,
            false,
            &IngestPipeline::new(),
        );
        assert!(matches!(err, Err(IngestError::Io(_))));
        assert!(idx.document_id("never").is_none(), "stream stops at error");
    }

    #[test]
    fn duplicate_names_surface_as_index_errors() {
        let mut idx = index();
        let err = fasta(&mut idx, ">dup\nACGTACGT\n>dup\nTTTT\n", 4, false);
        assert!(matches!(
            err,
            Err(IngestError::Index(RamboError::DuplicateDocument(_)))
        ));
        assert_eq!(idx.document_id("dup"), Some(0), "the first one landed");
    }
}
