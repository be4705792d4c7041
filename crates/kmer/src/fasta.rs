//! Minimal streaming FASTA parser and writer.
//!
//! FASTA is the paper's "assembled genomes" input format (§1). Records are a
//! `>` header line followed by any number of sequence lines; we concatenate
//! the sequence lines and keep the full header (minus `>`) as the record id.

use std::io::{self, BufRead, Write};

/// One FASTA record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FastaRecord {
    /// Header text after `>` (including any description).
    pub id: String,
    /// Concatenated sequence bytes (whitespace stripped).
    pub seq: Vec<u8>,
}

/// Streaming reader yielding [`FastaRecord`]s from any `BufRead`.
pub struct FastaReader<R: BufRead> {
    input: R,
    /// Header of the record currently being accumulated.
    pending: Option<String>,
    /// The current line's raw bytes, validated as UTF-8 before use.
    line: Vec<u8>,
    /// Sequence length of the previous record: the next one's capacity.
    last_len: usize,
    done: bool,
}

impl<R: BufRead> FastaReader<R> {
    /// Wrap a buffered reader.
    pub fn new(input: R) -> Self {
        Self {
            input,
            pending: None,
            line: Vec::new(),
            last_len: 0,
            done: false,
        }
    }
}

impl<R: BufRead> Iterator for FastaReader<R> {
    type Item = io::Result<FastaRecord>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.done {
            return None;
        }
        let mut seq: Vec<u8> = Vec::with_capacity(self.last_len);
        loop {
            self.line.clear();
            let n = match self.input.read_until(b'\n', &mut self.line) {
                Ok(n) => n,
                Err(e) => return Some(Err(e)),
            };
            if n == 0 {
                // EOF: flush the pending record if any.
                self.done = true;
                return self.pending.take().map(|id| Ok(FastaRecord { id, seq }));
            }
            let line = match std::str::from_utf8(&self.line) {
                Ok(line) => line.trim_end(),
                Err(_) => {
                    return Some(Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "stream did not contain valid UTF-8",
                    )))
                }
            };
            if line.is_empty() {
                continue;
            }
            if let Some(header) = line.strip_prefix('>') {
                let header = header.to_string();
                match self.pending.replace(header) {
                    Some(id) => {
                        self.last_len = seq.len();
                        return Some(Ok(FastaRecord { id, seq }));
                    }
                    None => {
                        if !seq.is_empty() {
                            self.done = true;
                            return Some(Err(io::Error::new(
                                io::ErrorKind::InvalidData,
                                "sequence data before first FASTA header",
                            )));
                        }
                    }
                }
            } else {
                if self.pending.is_none() {
                    self.done = true;
                    return Some(Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        "sequence data before first FASTA header",
                    )));
                }
                let bases = line.as_bytes();
                if bases.iter().any(u8::is_ascii_whitespace) {
                    seq.extend(bases.iter().filter(|b| !b.is_ascii_whitespace()));
                } else {
                    seq.extend_from_slice(bases);
                }
            }
        }
    }
}

/// Write records in FASTA format with 70-column sequence wrapping.
///
/// # Errors
/// Propagates I/O errors from the underlying writer.
pub fn write_fasta<'a, W: Write>(
    mut out: W,
    records: impl IntoIterator<Item = &'a FastaRecord>,
) -> io::Result<()> {
    for rec in records {
        writeln!(out, ">{}", rec.id)?;
        for chunk in rec.seq.chunks(70) {
            out.write_all(chunk)?;
            out.write_all(b"\n")?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    fn parse(text: &str) -> Vec<FastaRecord> {
        FastaReader::new(Cursor::new(text))
            .collect::<Result<Vec<_>, _>>()
            .unwrap()
    }

    #[test]
    fn single_record() {
        let recs = parse(">genome1 desc\nACGT\nTTAA\n");
        assert_eq!(recs.len(), 1);
        assert_eq!(recs[0].id, "genome1 desc");
        assert_eq!(recs[0].seq, b"ACGTTTAA");
    }

    #[test]
    fn multiple_records_and_blank_lines() {
        let recs = parse(">a\nAC\n\n>b\nGG\nTT\n\n>c\nA\n");
        assert_eq!(recs.len(), 3);
        assert_eq!(recs[1].id, "b");
        assert_eq!(recs[1].seq, b"GGTT");
        assert_eq!(recs[2].seq, b"A");
    }

    #[test]
    fn empty_input_yields_nothing() {
        assert!(parse("").is_empty());
    }

    #[test]
    fn record_with_empty_sequence_is_kept() {
        let recs = parse(">only-header\n");
        assert_eq!(recs.len(), 1);
        assert!(recs[0].seq.is_empty());
    }

    #[test]
    fn data_before_header_is_an_error() {
        let mut rdr = FastaReader::new(Cursor::new("ACGT\n>late\nAC\n"));
        assert!(rdr.next().unwrap().is_err());
        assert!(rdr.next().is_none(), "reader stops after error");
    }

    #[test]
    fn roundtrip_through_writer() {
        let original = vec![
            FastaRecord {
                id: "r1".into(),
                seq: b"ACGT".repeat(50),
            },
            FastaRecord {
                id: "r2 with description".into(),
                seq: b"TTT".to_vec(),
            },
        ];
        let mut buf = Vec::new();
        write_fasta(&mut buf, &original).unwrap();
        let parsed = parse(std::str::from_utf8(&buf).unwrap());
        assert_eq!(parsed, original);
    }

    #[test]
    fn crlf_line_endings_handled() {
        let recs = parse(">a\r\nACGT\r\nAC\r\n");
        assert_eq!(recs[0].seq, b"ACGTAC");
    }

    #[test]
    fn interior_whitespace_is_stripped() {
        let recs = parse(">a\nAC GT\tTT\x0cA\n  CC\n");
        assert_eq!(recs[0].seq, b"ACGTTTACC");
    }

    #[test]
    fn non_utf8_input_is_an_error() {
        let mut rdr = FastaReader::new(Cursor::new(&b">a\nAC\xffGT\n"[..]));
        let err = rdr.next().unwrap().unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
        let mut rdr = FastaReader::new(Cursor::new(&b">\xc3(\nACGT\n"[..]));
        assert!(rdr.next().unwrap().is_err());
    }
}
