//! Binary serialization of a RAMBO index.
//!
//! The paper's workflow writes indexes to disk after construction (the 170TB
//! build produces a 1.8TB serialized index; fold-over derives smaller
//! versions offline). The format here is self-describing and validated:
//!
//! ```text
//! magic "RMB1" | version u16 (= 2)
//! partition tag u8 (+ fields) | repetitions u32 | bfu_bits u64 | eta u32 | seed u64
//!   tag 0 Flat:      buckets u64 | 0 u64
//!   tag 1 TwoLevel:  nodes u64 | local_buckets u64
//!   tag 2 NodeLocal: local_buckets u64 | nodes u64 | node u64
//! fold_factor u32 | inserts u64 | K u32
//! K × (name_len u32, utf8 bytes)
//! R × ( K × assign u32, BFU matrix [8-byte-aligned word payload] )
//! ```
//!
//! Bucket lists and the name lookup table are reconstructed from `assign` on
//! load; the resolver is re-derived from the seed (all hash functions are
//! deterministic in it).
//!
//! Version 2 revs the matrix encoding to 8-byte-align every word payload
//! relative to the start of the buffer, which enables the **zero-copy load
//! path**: [`Rambo::open_view`] parses the metadata and then *borrows* each
//! matrix payload in place from a shared `Arc<[u8]>` (typically a
//! memory-mapped index file) — no word is copied, so re-opening the
//! fold-over workflow's "several index versions on disk" costs metadata
//! time, not payload time. [`Rambo::open_view_at`] additionally supports
//! several indexes concatenated in one buffer.

use crate::error::RamboError;
use crate::index::{DocId, Rambo, Table};
use crate::matrix::BfuMatrix;
use crate::params::RamboParams;
use crate::partition::{derive_seeds, PartitionScheme, Resolver};
use bytes::{Buf, BufMut};
use rambo_bitvec::{BlockCacheCounters, DecodeError, PagedFile};
use std::sync::Arc;

const MAGIC: &[u8; 4] = b"RMB1";
const VERSION: u16 = 2;

fn short(buf: &[u8], need: usize, what: &str) -> Result<(), RamboError> {
    if buf.remaining() < need {
        return Err(DecodeError::new(format!("truncated while reading {what}")).into());
    }
    Ok(())
}

/// Everything that precedes the per-table payloads in the serialized form.
struct Prelude {
    params: RamboParams,
    fold_factor: u32,
    inserts: u64,
    current_buckets: u64,
    doc_names: Vec<String>,
    /// `(nodes, node)` for a node-local shard of a sharded build (partition
    /// tag 2); `None` for standalone indexes.
    node_ctx: Option<(u64, u64)>,
}

/// Decode the header, geometry and document names, advancing `buf`.
fn decode_prelude(buf: &mut &[u8]) -> Result<Prelude, RamboError> {
    short(buf, 6, "header")?;
    let mut magic = [0u8; 4];
    buf.copy_to_slice(&mut magic);
    if &magic != MAGIC {
        return Err(DecodeError::new("bad RAMBO magic").into());
    }
    if buf.get_u16_le() != VERSION {
        return Err(DecodeError::new("unsupported RAMBO version").into());
    }
    short(buf, 1 + 8 + 8 + 4 + 8 + 4 + 8 + 4 + 8 + 4, "geometry")?;
    let mut node_ctx = None;
    let partition = match buf.get_u8() {
        0 => {
            let buckets = buf.get_u64_le();
            let _ = buf.get_u64_le();
            PartitionScheme::Flat { buckets }
        }
        1 => PartitionScheme::TwoLevel {
            nodes: buf.get_u64_le(),
            local_buckets: buf.get_u64_le(),
        },
        2 => {
            // A node-local shard: flat over its local buckets, but routed
            // through the shared two-level hash of its parent build.
            let local_buckets = buf.get_u64_le();
            let nodes = buf.get_u64_le();
            // The extra node-id word shifts the rest of the geometry block
            // past the upfront bound; re-check before reading on.
            short(buf, 8 + 4 + 8 + 4 + 8 + 4 + 8 + 4, "node-local geometry")?;
            let node = buf.get_u64_le();
            if node >= nodes {
                return Err(
                    DecodeError::new(format!("node id {node} out of range {nodes}")).into(),
                );
            }
            node_ctx = Some((nodes, node));
            PartitionScheme::Flat {
                buckets: local_buckets,
            }
        }
        t => return Err(DecodeError::new(format!("unknown partition tag {t}")).into()),
    };
    let repetitions = buf.get_u32_le() as usize;
    let bfu_bits = usize::try_from(buf.get_u64_le())
        .map_err(|_| DecodeError::new("bfu_bits exceeds address space"))?;
    let eta = buf.get_u32_le();
    let seed = buf.get_u64_le();
    let fold_factor = buf.get_u32_le();
    let inserts = buf.get_u64_le();
    let params = RamboParams {
        partition,
        repetitions,
        bfu_bits,
        eta,
        seed,
    };
    params.validate().map_err(|e| {
        RamboError::Decode(DecodeError::new(format!("stored parameters invalid: {e}")))
    })?;
    let b0 = params.buckets();
    if fold_factor > 32 || (b0 >> fold_factor) < 2 {
        return Err(DecodeError::new("fold factor inconsistent with bucket count").into());
    }
    let current_buckets = b0 >> fold_factor;

    let k = buf.get_u32_le() as usize;
    let mut doc_names = Vec::with_capacity(k.min(1 << 20));
    for _ in 0..k {
        short(buf, 4, "name length")?;
        let len = buf.get_u32_le() as usize;
        short(buf, len, "name bytes")?;
        let mut bytes = vec![0u8; len];
        buf.copy_to_slice(&mut bytes);
        let name =
            String::from_utf8(bytes).map_err(|_| DecodeError::new("document name is not UTF-8"))?;
        doc_names.push(name);
    }
    Ok(Prelude {
        params,
        fold_factor,
        inserts,
        current_buckets,
        doc_names,
        node_ctx,
    })
}

/// Build the index skeleton (resolver, empty folded-geometry tables) from a
/// decoded prelude. Names are installed at the end, after the payloads
/// parse, mirroring the original decode order.
///
/// `available` is the byte count that follows the prelude. The tables need
/// at least `R · (4K + 8m⌈B/64⌉)` of them, so a prelude claiming more is an
/// error here, before anything is sized from its counts.
fn skeleton(p: &Prelude, available: u64) -> Result<Rambo, RamboError> {
    let need = (p.params.bfu_bits as u64)
        .checked_mul(p.current_buckets.div_ceil(64) * 8)
        .and_then(|payload| payload.checked_add(4 * p.doc_names.len() as u64))
        .and_then(|table| table.checked_mul(p.params.repetitions as u64));
    if need.is_none_or(|need| need > available) {
        return Err(DecodeError::new("stored geometry overruns the input").into());
    }
    let seeds = derive_seeds(p.params.seed);
    let resolver = match p.node_ctx {
        Some((nodes, node)) => {
            let PartitionScheme::Flat { buckets } = p.params.partition else {
                unreachable!("tag-2 preludes always carry flat local params")
            };
            Resolver::NodeLocal {
                router: Resolver::shared_router(
                    nodes,
                    buckets,
                    p.params.repetitions,
                    seeds.partition,
                ),
                node,
            }
        }
        None => Resolver::new(p.params.partition, p.params.repetitions, seeds.partition),
    };
    let mut index = Rambo::from_parts(p.params, resolver, seeds.bloom, p.current_buckets);
    index.fold_factor = p.fold_factor;
    index.inserts = p.inserts;
    Ok(index)
}

/// Install one table's assignment vector, rebuilding its bucket lists.
fn install_assignments(
    table: &mut Table,
    assign: Vec<u32>,
    current_buckets: u64,
) -> Result<(), RamboError> {
    table.assign = assign;
    for (doc, &a) in table.assign.iter().enumerate() {
        if u64::from(a) >= current_buckets {
            return Err(DecodeError::new(format!(
                "assignment {a} of doc {doc} out of range {current_buckets}"
            ))
            .into());
        }
        table.buckets[a as usize].push(doc as DocId);
    }
    Ok(())
}

/// Validate a decoded matrix against the header geometry.
fn check_matrix(
    matrix: &BfuMatrix,
    bfu_bits: usize,
    current_buckets: u64,
) -> Result<(), RamboError> {
    if matrix.m_bits() != bfu_bits || matrix.buckets() as u64 != current_buckets {
        return Err(DecodeError::new("stored matrix geometry disagrees with header").into());
    }
    Ok(())
}

/// Register the document names, rejecting duplicates.
fn install_names(index: &mut Rambo, doc_names: Vec<String>) -> Result<(), RamboError> {
    for (id, name) in doc_names.iter().enumerate() {
        if index.name_index.insert(name.clone(), id as DocId).is_some() {
            return Err(DecodeError::new(format!("duplicate document name {name}")).into());
        }
    }
    index.doc_names = doc_names;
    Ok(())
}

impl Rambo {
    /// Serialize the full index. Node-local shards of a sharded build
    /// serialize with their node identity (partition tag 2), so a serving
    /// cluster can ship each node its slice; deserializing re-derives the
    /// shared two-level router from the seed.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] for internally inconsistent resolver
    /// state (a node-local resolver over non-flat parameters).
    pub fn to_bytes(&self) -> Result<Vec<u8>, RamboError> {
        let mut out = Vec::with_capacity(64 + self.size_bytes());
        out.put_slice(MAGIC);
        out.put_u16_le(VERSION);
        if let Resolver::NodeLocal { router, node } = &self.resolver {
            let PartitionScheme::Flat {
                buckets: local_buckets,
            } = self.params().partition
            else {
                return Err(RamboError::InvalidParams(
                    "node-local shard carries non-flat parameters".into(),
                ));
            };
            out.put_u8(2);
            out.put_u64_le(local_buckets);
            out.put_u64_le(router.nodes());
            out.put_u64_le(*node);
        } else {
            match self.params().partition {
                PartitionScheme::Flat { buckets } => {
                    out.put_u8(0);
                    out.put_u64_le(buckets);
                    out.put_u64_le(0);
                }
                PartitionScheme::TwoLevel {
                    nodes,
                    local_buckets,
                } => {
                    out.put_u8(1);
                    out.put_u64_le(nodes);
                    out.put_u64_le(local_buckets);
                }
            }
        }
        out.put_u32_le(self.params().repetitions as u32);
        out.put_u64_le(self.params().bfu_bits as u64);
        out.put_u32_le(self.params().eta);
        out.put_u64_le(self.params().seed);
        out.put_u32_le(self.fold_factor);
        out.put_u64_le(self.inserts);
        out.put_u32_le(self.doc_names.len() as u32);
        for name in &self.doc_names {
            out.put_u32_le(name.len() as u32);
            out.put_slice(name.as_bytes());
        }
        for table in &self.tables {
            for &a in &table.assign {
                out.put_u32_le(a);
            }
            table.matrix.encode_into(&mut out);
        }
        Ok(out)
    }

    /// Deserialize an index, validating structure and ranges. Copies every
    /// matrix payload into owned storage; see [`Rambo::open_view`] for the
    /// zero-copy alternative.
    ///
    /// # Errors
    /// [`RamboError::Decode`] on any malformed input.
    pub fn from_bytes(mut buf: &[u8]) -> Result<Self, RamboError> {
        let buf = &mut buf;
        let prelude = decode_prelude(buf)?;
        let k = prelude.doc_names.len();
        let mut index = skeleton(&prelude, buf.len() as u64)?;
        for table in &mut index.tables {
            short(buf, 4 * k, "assignment vector")?;
            let assign: Vec<u32> = (0..k).map(|_| buf.get_u32_le()).collect();
            install_assignments(table, assign, prelude.current_buckets)?;
            let matrix = BfuMatrix::decode_from(buf)?;
            check_matrix(&matrix, prelude.params.bfu_bits, prelude.current_buckets)?;
            table.matrix = matrix;
        }
        if !buf.is_empty() {
            return Err(DecodeError::new("trailing bytes after RAMBO index").into());
        }
        install_names(&mut index, prelude.doc_names)?;
        Ok(index)
    }

    /// Zero-copy load: parse the metadata and *borrow* every matrix word
    /// payload in place from `buf` (typically an `Arc` around a
    /// memory-mapped index file). Load time is metadata-bound — no word is
    /// copied; validation reads one word per filter row for the tail check.
    ///
    /// The returned index answers every query exactly like the
    /// [`Rambo::from_bytes`] copy would (the property suite pins this).
    /// Mutation still works: the first write to a table promotes that
    /// table's payload to owned storage (one copy, once — see
    /// [`rambo_bitvec::WordStore`]).
    ///
    /// The whole buffer must contain exactly one index; use
    /// [`Rambo::open_view_at`] for multi-index buffers.
    ///
    /// ```
    /// use rambo_core::{Rambo, RamboParams};
    /// use std::sync::Arc;
    ///
    /// let mut index = Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 7)).unwrap();
    /// let doc = index.insert_document("genome-A", [7u64, 8, 9]).unwrap();
    ///
    /// // Serialize (format v2 8-byte-aligns word payloads), then re-open
    /// // borrowing the filter words in place — no payload copy.
    /// let buf: Arc<[u8]> = index.to_bytes().unwrap().into();
    /// if let Ok(view) = Rambo::open_view(buf.clone()) {
    ///     assert!(view.is_view() && view.payload_borrows(&buf));
    ///     assert_eq!(view.query_u64(8), vec![doc]); // answers match the copy
    /// } // (an Err means the buffer landed misaligned — fall back to from_bytes)
    /// ```
    ///
    /// # Errors
    /// [`RamboError::Decode`] on any malformed input, on trailing bytes, or
    /// when a word payload is not 8-byte-aligned in memory (fall back to
    /// [`Rambo::from_bytes`], which has no alignment requirement).
    pub fn open_view(buf: Arc<[u8]>) -> Result<Self, RamboError> {
        let (index, used) = Self::open_view_at(&buf, 0)?;
        if used != buf.len() {
            return Err(DecodeError::new("trailing bytes after RAMBO index").into());
        }
        Ok(index)
    }

    /// [`Rambo::open_view`] for an index embedded at byte `offset` of a
    /// larger buffer — the fold-over workflow's "several index versions in
    /// one file" layout. Returns the index and the number of bytes it
    /// occupied, so callers can walk a concatenated sequence.
    ///
    /// # Errors
    /// See [`Rambo::open_view`]; additionally errors when `offset` is out
    /// of range.
    pub fn open_view_at(buf: &Arc<[u8]>, offset: usize) -> Result<(Self, usize), RamboError> {
        let mut slice: &[u8] = buf
            .get(offset..)
            .ok_or_else(|| DecodeError::new("index offset out of range"))?;
        let total = slice.len();
        let prelude = decode_prelude(&mut slice)?;
        let k = prelude.doc_names.len();
        let mut index = skeleton(&prelude, slice.len() as u64)?;
        // Switch from slice-relative to absolute-cursor parsing: matrix
        // views need their position inside `buf` to borrow the payload.
        let mut pos = offset + (total - slice.len());
        for table in &mut index.tables {
            let assign_end = pos
                .checked_add(4 * k)
                .filter(|&e| e <= buf.len())
                .ok_or_else(|| DecodeError::new("truncated while reading assignment vector"))?;
            let assign: Vec<u32> = buf[pos..assign_end]
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
                .collect();
            pos = assign_end;
            install_assignments(table, assign, prelude.current_buckets)?;
            let matrix = BfuMatrix::decode_view(buf, &mut pos)?;
            check_matrix(&matrix, prelude.params.bfu_bits, prelude.current_buckets)?;
            table.matrix = matrix;
        }
        install_names(&mut index, prelude.doc_names)?;
        Ok((index, pos - offset))
    }

    /// File-backed load: parse the index record at byte `offset` of `file`
    /// reading *only metadata* — the prelude (geometry + document names),
    /// the per-table assignment vectors, and one fixed-size header per
    /// matrix record. Word payloads stay on disk and are faulted in
    /// row-aligned blocks through `file`'s shared cache on first probe.
    /// Open time is therefore independent of the payload size — the
    /// O(metadata) open behind the paper's "170TB on disk, queried in
    /// milliseconds" serving story.
    ///
    /// Cache traffic for every matrix of this index is charged to
    /// `counters` (a serving catalog passes one set per tier). Returns the
    /// index and the number of bytes its record occupied, mirroring
    /// [`Rambo::open_view_at`].
    ///
    /// # Errors
    /// [`RamboError::Decode`] on malformed metadata, out-of-range offsets,
    /// or payloads overrunning the file. Dense payload *words* are not
    /// validated at open (row tails are masked at fault time instead).
    pub fn open_paged_at(
        file: &Arc<PagedFile>,
        offset: u64,
        counters: &Arc<BlockCacheCounters>,
    ) -> Result<(Self, u64), RamboError> {
        if offset > file.len() {
            return Err(DecodeError::new("index offset out of range").into());
        }
        // The prelude is metadata-sized but not fixed-size (document names).
        // Read a growing prefix until it parses or provably cannot: a failed
        // parse of a chunk that already reaches EOF is a real error.
        let mut chunk_len = (64 << 10).min((file.len() - offset) as usize);
        let prelude = loop {
            let chunk = file
                .read_bytes(offset, chunk_len)
                .map_err(|e| DecodeError::new(format!("catalog read: {e}")))?;
            let mut slice = chunk.as_slice();
            match decode_prelude(&mut slice) {
                Ok(p) => break (p, chunk_len - slice.len()),
                Err(e) if offset + chunk_len as u64 >= file.len() => return Err(e),
                Err(_) => chunk_len = (chunk_len * 2).min((file.len() - offset) as usize),
            }
        };
        let (prelude, prelude_len) = prelude;
        let k = prelude.doc_names.len();
        let mut pos = offset + prelude_len as u64;
        let mut index = skeleton(&prelude, file.len() - pos)?;
        for table in &mut index.tables {
            let assign_len = 4 * k;
            if pos + assign_len as u64 > file.len() {
                return Err(DecodeError::new("truncated while reading assignment vector").into());
            }
            let bytes = file
                .read_bytes(pos, assign_len)
                .map_err(|e| DecodeError::new(format!("catalog read: {e}")))?;
            let assign: Vec<u32> = bytes
                .chunks_exact(4)
                .map(|c| u32::from_le_bytes(c.try_into().expect("chunk of 4")))
                .collect();
            pos += assign_len as u64;
            install_assignments(table, assign, prelude.current_buckets)?;
            let matrix = BfuMatrix::decode_paged(file, &mut pos, counters)?;
            check_matrix(&matrix, prelude.params.bfu_bits, prelude.current_buckets)?;
            table.matrix = matrix;
        }
        install_names(&mut index, prelude.doc_names)?;
        Ok((index, pos - offset))
    }

    /// True when every table's word payload is a zero-copy view into a
    /// shared buffer (i.e. the index came from [`Rambo::open_view`] and has
    /// not been written to).
    #[must_use]
    pub fn is_view(&self) -> bool {
        self.tables.iter().all(|t| t.matrix.is_view())
    }

    /// Do all matrix word payloads live inside `buf`? The "zero word-payload
    /// copies" assertion for the view load path: an index opened with
    /// [`Rambo::open_view`] answers `true` for its backing buffer, an index
    /// from [`Rambo::from_bytes`] answers `false` for every buffer.
    #[must_use]
    pub fn payload_borrows(&self, buf: &[u8]) -> bool {
        !self.tables.is_empty() && self.tables.iter().all(|t| t.matrix.payload_borrows(buf))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn build_sample() -> Rambo {
        let mut r = Rambo::new(RamboParams::flat(8, 3, 1 << 12, 2, 77)).unwrap();
        for d in 0..20 {
            let base = (d as u64) << 16;
            r.insert_document(&format!("doc{d}"), (0..30u64).map(|t| base | t))
                .unwrap();
        }
        r
    }

    #[test]
    fn roundtrip_preserves_everything() {
        let r = build_sample();
        let bytes = r.to_bytes().unwrap();
        let back = Rambo::from_bytes(&bytes).unwrap();
        assert_eq!(r, back);
        // Queries agree, including for absent terms.
        for t in [0u64, 5, (3 << 16) | 2, 0xDEAD] {
            assert_eq!(r.query_u64(t), back.query_u64(t));
        }
    }

    #[test]
    fn roundtrip_after_folding() {
        let mut r = build_sample();
        r.fold_once().unwrap();
        let back = Rambo::from_bytes(&r.to_bytes().unwrap()).unwrap();
        assert_eq!(r, back);
        assert_eq!(back.fold_factor(), 1);
        assert_eq!(back.buckets(), 4);
    }

    #[test]
    fn loaded_index_accepts_new_documents() {
        let r = build_sample();
        let mut back = Rambo::from_bytes(&r.to_bytes().unwrap()).unwrap();
        let d = back.insert_document("new-doc", [0xCAFEu64]).unwrap();
        assert!(back.query_u64(0xCAFE).contains(&d));
        // The resolver was re-derived from the seed: the same name must land
        // in the same buckets as in the original index.
        let mut orig = r.clone();
        let d2 = orig.insert_document("new-doc", [0xCAFEu64]).unwrap();
        for rep in 0..3 {
            assert_eq!(orig.bucket_of(rep, d2), back.bucket_of(rep, d));
        }
    }

    #[test]
    fn rejects_corruption() {
        let r = build_sample();
        let bytes = r.to_bytes().unwrap();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Rambo::from_bytes(&bad).is_err());

        assert!(Rambo::from_bytes(&bytes[..bytes.len() / 2]).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Rambo::from_bytes(&trailing).is_err());

        // Every cut through the prelude, the geometry block's last word
        // included.
        for cut in 0..256 {
            assert!(Rambo::from_bytes(&bytes[..cut]).is_err(), "cut {cut}");
        }
        // A count raised far past what the input holds errors before
        // anything is sized from it: the flat geometry's buckets,
        // repetitions, filter bits and η start at bytes 7, 23, 27 and 35.
        for at in [7 + 3, 23 + 3, 27 + 4, 35 + 3] {
            let mut big = bytes.clone();
            big[at] = 0x40;
            assert!(Rambo::from_bytes(&big).is_err(), "byte {at}");
        }
    }

    #[test]
    fn rejects_out_of_range_assignment() {
        let r = build_sample();
        let mut bytes = r.to_bytes().unwrap();
        // The first assign word sits right after the names section; find it
        // by re-encoding a modified struct instead of byte surgery: flip an
        // assignment directly in a clone and ensure validation catches it.
        // (Byte-offset surgery would be brittle; we corrupt the u32 that
        // follows the last name, which is the first assignment.)
        let names_len: usize = r
            .document_names()
            .iter()
            .map(|n| 4 + n.len())
            .sum::<usize>();
        let offset = 4 + 2 + 17 + 4 + 8 + 4 + 8 + 4 + 8 + 4 + names_len;
        bytes[offset] = 0xFF; // assignment 0xFF ≥ 8 buckets
        assert!(Rambo::from_bytes(&bytes).is_err());
    }

    #[test]
    fn two_level_roundtrip() {
        let mut r = Rambo::new(RamboParams::two_level(4, 4, 2, 1 << 10, 2, 5)).unwrap();
        r.insert_document("a", [1u64, 2]).unwrap();
        r.insert_document("b", [3u64]).unwrap();
        let back = Rambo::from_bytes(&r.to_bytes().unwrap()).unwrap();
        assert_eq!(r, back);
    }

    #[test]
    fn node_local_shard_roundtrip() {
        // Serving clusters ship each node its shard; the shard must
        // roundtrip with its node identity (tag 2) so the re-derived
        // resolver keeps inserting through the shared router.
        let mut sharded =
            crate::ShardedRambo::new(RamboParams::two_level(3, 8, 2, 1 << 10, 2, 5)).unwrap();
        for d in 0..12u64 {
            sharded
                .ingest_document(&format!("doc{d}"), (0..10).map(|t| d << 16 | t))
                .unwrap();
        }
        for shard in (0..sharded.nodes()).map(|n| sharded.shard(n)) {
            let back = Rambo::from_bytes(&shard.to_bytes().unwrap()).unwrap();
            assert_eq!(*shard, back);
            for t in [0u64, 3 << 16 | 1, 0xBEEF] {
                assert_eq!(shard.query_u64(t), back.query_u64(t));
            }
        }
    }

    #[test]
    fn node_local_tag_rejects_out_of_range_node() {
        let mut sharded =
            crate::ShardedRambo::new(RamboParams::two_level(2, 8, 2, 1 << 10, 2, 5)).unwrap();
        sharded.ingest_document("a", [1u64]).unwrap();
        let mut bytes = sharded.shard(0).to_bytes().unwrap();
        // partition block: tag at offset 6, local_buckets, nodes, then node.
        bytes[7 + 16..7 + 24].copy_from_slice(&9u64.to_le_bytes());
        assert!(Rambo::from_bytes(&bytes).is_err(), "node 9 of 2 must fail");
    }

    #[test]
    fn open_view_is_zero_copy_and_equal() {
        let r = build_sample();
        let buf: Arc<[u8]> = r.to_bytes().unwrap().into();
        if !(buf.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }
        let view = Rambo::open_view(buf.clone()).unwrap();
        assert!(view.is_view());
        assert!(
            view.payload_borrows(&buf),
            "view must borrow the input buffer, not copy it"
        );
        assert_eq!(view, r);
        // And the copying path never borrows.
        let owned = Rambo::from_bytes(&buf).unwrap();
        assert!(!owned.is_view());
        assert!(!owned.payload_borrows(&buf));
        for t in [0u64, 5, (3 << 16) | 2, 0xBEEF] {
            assert_eq!(view.query_u64(t), r.query_u64(t));
        }
    }

    #[test]
    fn open_view_rejects_corruption_and_trailing() {
        let r = build_sample();
        let bytes = r.to_bytes().unwrap();

        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(Rambo::open_view(bad.into()).is_err());

        let truncated: Arc<[u8]> = bytes[..bytes.len() / 2].to_vec().into();
        assert!(Rambo::open_view(truncated).is_err());

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(Rambo::open_view(trailing.into()).is_err());
    }

    #[test]
    fn open_view_at_walks_concatenated_versions() {
        // The fold-over workflow: the full index and a folded version in one
        // buffer, both opened zero-copy from their offsets.
        let full = build_sample();
        let folded = full.folded(1).unwrap();
        let mut buf = full.to_bytes().unwrap();
        let second_at = buf.len();
        buf.extend(folded.to_bytes().unwrap());
        let arc: Arc<[u8]> = buf.into();
        if !(arc.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }

        let (v_full, used) = Rambo::open_view_at(&arc, 0).unwrap();
        assert_eq!(used, second_at);
        let (v_folded, used2) = Rambo::open_view_at(&arc, second_at).unwrap();
        assert_eq!(second_at + used2, arc.len());
        assert_eq!(v_full, full);
        assert_eq!(v_folded, folded);
        assert!(v_full.payload_borrows(&arc) && v_folded.payload_borrows(&arc));
    }

    #[test]
    fn open_paged_matches_in_memory_load() {
        let r = build_sample();
        let bytes = r.to_bytes().unwrap();
        let path = std::env::temp_dir().join(format!(
            "rambo-open-paged-{}-{}.idx",
            std::process::id(),
            bytes.len()
        ));
        std::fs::write(&path, &bytes).unwrap();
        let file = PagedFile::open(&path, 1 << 20).unwrap();
        let counters = Arc::new(BlockCacheCounters::new());
        let (paged, used) = Rambo::open_paged_at(&file, 0, &counters).unwrap();
        assert_eq!(used, bytes.len() as u64);
        assert!(paged.tables_paged(), "payloads must stay on disk");
        // No payload block faulted yet: the open read metadata only.
        assert_eq!(counters.snapshot().misses, 0);
        for t in [0u64, 5, (3 << 16) | 2, 0xBEEF] {
            assert_eq!(paged.query_u64(t), r.query_u64(t), "term {t}");
        }
        let snap = counters.snapshot();
        assert!(snap.misses > 0, "queries must fault payload blocks");
        assert_eq!(paged, r, "paged index is logically the source");
        // Truncated file: the open itself fails on the overrunning payload.
        let cut = bytes.len() / 2;
        std::fs::write(&path, &bytes[..cut]).unwrap();
        let file2 = PagedFile::open(&path, 1 << 20).unwrap();
        assert!(Rambo::open_paged_at(&file2, 0, &counters).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn viewed_index_promotes_on_mutation() {
        let r = build_sample();
        let buf: Arc<[u8]> = r.to_bytes().unwrap().into();
        if !(buf.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }
        let mut view = Rambo::open_view(buf).unwrap();
        let d = view.insert_document("late", [0xABCDu64]).unwrap();
        assert!(!view.is_view(), "writes must promote the touched tables");
        assert!(view.query_u64(0xABCD).contains(&d));
    }

    #[test]
    fn viewed_index_folds() {
        let r = build_sample();
        let buf: Arc<[u8]> = r.to_bytes().unwrap().into();
        if !(buf.as_ptr() as usize).is_multiple_of(8) {
            return; // 32-bit Arc layouts may misalign the payload; the
                    // loader correctly errors there (see store.rs tests)
        }
        let mut view = Rambo::open_view(buf).unwrap();
        view.fold_once().unwrap();
        assert_eq!(view, r.folded(1).unwrap());
    }
}
