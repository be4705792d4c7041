//! BIGSI and COBS: bit-sliced signature indexes.
//!
//! BIGSI (Bradley et al., Nature Biotech 2019 — reference [9]) keeps one
//! same-size Bloom filter per document but stores the matrix *transposed*:
//! row `i` is a `K`-bit vector whose `j`-th bit says "filter bit `i` is set
//! in document `j`". A term lookup reads its `η` rows and ANDs them — one
//! cache-friendly pass that answers the membership question for **all** `K`
//! documents simultaneously. That is why its query time is `O(K)` but with
//! an excellent constant, and why the paper calls the layout "a simple,
//! system-friendly data structure".
//!
//! COBS (Bingmann et al., SPIRE 2019 — reference [6]) adds the *compact*
//! twist: documents are sorted by cardinality and grouped into blocks, each
//! block getting a filter size fitted to its largest member, removing the
//! padding BIGSI wastes on small documents.

use crate::traits::MembershipIndex;
use rambo_bitvec::BitVec;
use rambo_bloom::params::optimal_m;
use rambo_hash::HashPair;

/// BIGSI-style uniform bit-sliced index.
#[derive(Debug, Clone)]
pub struct BitSlicedIndex {
    /// `m` rows of `K` bits each.
    rows: Vec<BitVec>,
    m: usize,
    eta: u32,
    seed: u64,
    ndocs: usize,
}

impl BitSlicedIndex {
    /// Build from a document batch with filter size `m_bits` and `eta`
    /// probes (BIGSI sizes `m_bits` for the largest document).
    ///
    /// # Panics
    /// Panics if `m_bits == 0` or `eta == 0`.
    #[must_use]
    pub fn build(docs: &[(String, Vec<u64>)], m_bits: usize, eta: u32, seed: u64) -> Self {
        assert!(m_bits > 0 && eta > 0);
        let ndocs = docs.len();
        let mut rows = vec![BitVec::zeros(ndocs); m_bits];
        for (j, (_, terms)) in docs.iter().enumerate() {
            for &term in terms {
                let pair = HashPair::of_u64(term, seed);
                for i in 0..eta {
                    rows[pair.index(i, m_bits as u64) as usize].set(j);
                }
            }
        }
        Self {
            rows,
            m: m_bits,
            eta,
            seed,
            ndocs,
        }
    }

    /// Build with the classic auto-sizing: fit the largest document at the
    /// target false-positive rate.
    #[must_use]
    pub fn build_auto(docs: &[(String, Vec<u64>)], fpr: f64, eta: u32, seed: u64) -> Self {
        let max_n = docs.iter().map(|(_, t)| t.len()).max().unwrap_or(1).max(1);
        Self::build(docs, optimal_m(max_n, fpr), eta, seed)
    }

    /// The term's candidate bitmap over all documents (AND of `η` rows).
    #[must_use]
    pub fn query_bitmap(&self, term: u64) -> BitVec {
        let pair = HashPair::of_u64(term, self.seed);
        let mut acc = self.rows[pair.index(0, self.m as u64) as usize].clone();
        for i in 1..self.eta {
            acc.and_assign(&self.rows[pair.index(i, self.m as u64) as usize]);
            if acc.none() {
                break;
            }
        }
        acc
    }
}

impl MembershipIndex for BitSlicedIndex {
    fn label(&self) -> &'static str {
        "COBS(uniform)"
    }

    fn num_documents(&self) -> usize {
        self.ndocs
    }

    fn query_term(&self, term: u64) -> Vec<u32> {
        self.query_bitmap(term)
            .iter_ones()
            .map(|i| i as u32)
            .collect()
    }

    fn query_terms(&self, terms: &[u64]) -> Vec<u32> {
        if terms.is_empty() || self.ndocs == 0 {
            return Vec::new();
        }
        let mut acc = self.query_bitmap(terms[0]);
        for &t in &terms[1..] {
            if acc.none() {
                return Vec::new();
            }
            acc.and_assign(&self.query_bitmap(t));
        }
        acc.iter_ones().map(|i| i as u32).collect()
    }

    fn size_bytes(&self) -> usize {
        self.rows.iter().map(BitVec::size_bytes).sum()
    }
}

/// One block of the compact layout.
#[derive(Debug, Clone)]
struct Block {
    /// Original document ids, in block-local column order.
    doc_ids: Vec<u32>,
    index: BitSlicedIndex,
}

/// COBS-style compact bit-sliced index: per-block filter sizes.
#[derive(Debug, Clone)]
pub struct CompactBitSliced {
    blocks: Vec<Block>,
    ndocs: usize,
}

impl CompactBitSliced {
    /// Build with `block_size` documents per block, sorted by cardinality,
    /// each block sized for its largest member at `fpr`.
    ///
    /// # Panics
    /// Panics if `block_size == 0` or `eta == 0`.
    #[must_use]
    pub fn build(
        docs: &[(String, Vec<u64>)],
        block_size: usize,
        fpr: f64,
        eta: u32,
        seed: u64,
    ) -> Self {
        assert!(block_size > 0 && eta > 0);
        // Sort document indices by cardinality (ascending) — small documents
        // share small filters.
        let mut order: Vec<u32> = (0..docs.len() as u32).collect();
        order.sort_by_key(|&j| docs[j as usize].1.len());
        let blocks = order
            .chunks(block_size)
            .map(|chunk| {
                let block_docs: Vec<(String, Vec<u64>)> =
                    chunk.iter().map(|&j| docs[j as usize].clone()).collect();
                let max_n = block_docs
                    .iter()
                    .map(|(_, t)| t.len())
                    .max()
                    .unwrap_or(1)
                    .max(1);
                Block {
                    doc_ids: chunk.to_vec(),
                    index: BitSlicedIndex::build(&block_docs, optimal_m(max_n, fpr), eta, seed),
                }
            })
            .collect();
        Self {
            blocks,
            ndocs: docs.len(),
        }
    }
}

impl MembershipIndex for CompactBitSliced {
    fn label(&self) -> &'static str {
        "COBS"
    }

    fn num_documents(&self) -> usize {
        self.ndocs
    }

    fn query_term(&self, term: u64) -> Vec<u32> {
        let mut out: Vec<u32> = self
            .blocks
            .iter()
            .flat_map(|b| {
                b.index
                    .query_bitmap(term)
                    .iter_ones()
                    .map(|col| b.doc_ids[col])
                    .collect::<Vec<_>>()
            })
            .collect();
        out.sort_unstable();
        out
    }

    fn query_terms(&self, terms: &[u64]) -> Vec<u32> {
        if terms.is_empty() || self.ndocs == 0 {
            return Vec::new();
        }
        let mut out: Vec<u32> = Vec::new();
        for block in &self.blocks {
            let mut acc = block.index.query_bitmap(terms[0]);
            for &t in &terms[1..] {
                if acc.none() {
                    break;
                }
                acc.and_assign(&block.index.query_bitmap(t));
            }
            out.extend(acc.iter_ones().map(|col| block.doc_ids[col]));
        }
        out.sort_unstable();
        out
    }

    fn size_bytes(&self) -> usize {
        self.blocks
            .iter()
            .map(|b| b.index.size_bytes() + b.doc_ids.len() * 4)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn docs(k: usize, terms_per_doc: usize) -> Vec<(String, Vec<u64>)> {
        (0..k)
            .map(|d| {
                let base = (d as u64) << 24;
                // Vary cardinality so compact blocks differ in size.
                let n = terms_per_doc / 2 + (d * terms_per_doc) / k;
                (format!("doc{d}"), (0..n as u64).map(|t| base | t).collect())
            })
            .collect()
    }

    #[test]
    fn bigsi_no_false_negatives() {
        let ds = docs(20, 60);
        let idx = BitSlicedIndex::build_auto(&ds, 0.01, 3, 7);
        for (j, (_, terms)) in ds.iter().enumerate() {
            for &t in terms.iter().take(5) {
                assert!(idx.query_term(t).contains(&(j as u32)));
            }
        }
    }

    #[test]
    fn bigsi_absent_terms_mostly_empty() {
        let ds = docs(20, 60);
        let idx = BitSlicedIndex::build_auto(&ds, 0.01, 3, 7);
        let mut fp = 0usize;
        for probe in 0..500u64 {
            fp += idx.query_term(0xDEAD_0000_0000 + probe).len();
        }
        // 500 probes × 20 docs × ~1% → ~100 expected; stay well under 4x.
        assert!(fp < 400, "false positives {fp}");
    }

    #[test]
    fn bigsi_multi_term_narrows() {
        let ds = docs(15, 40);
        let idx = BitSlicedIndex::build_auto(&ds, 0.01, 3, 1);
        let q: Vec<u64> = ds[7].1[..5].to_vec();
        let hits = idx.query_terms(&q);
        assert!(hits.contains(&7));
        assert!(hits.len() <= idx.query_term(q[0]).len());
    }

    #[test]
    fn compact_agrees_with_uniform_on_membership() {
        let ds = docs(30, 50);
        let uniform = BitSlicedIndex::build_auto(&ds, 0.01, 3, 5);
        let compact = CompactBitSliced::build(&ds, 8, 0.01, 3, 5);
        assert!(compact.blocks.len() >= 3);
        for (j, (_, terms)) in ds.iter().enumerate() {
            for &t in terms.iter().take(3) {
                assert!(uniform.query_term(t).contains(&(j as u32)));
                assert!(compact.query_term(t).contains(&(j as u32)));
            }
        }
    }

    #[test]
    fn compact_is_smaller_on_skewed_cardinalities() {
        // One huge document forces BIGSI to pad everyone: its row count is
        // sized for 20k terms and every row spans all K documents. COBS
        // blocks confine that width to the huge document's block. (K must be
        // well above 64 so the row width is not just word-granularity.)
        let mut ds = docs(200, 40);
        ds.push((
            "huge".to_string(),
            (0..20_000u64).map(|t| (1 << 40) | t).collect(),
        ));
        let uniform = BitSlicedIndex::build_auto(&ds, 0.01, 3, 5);
        let compact = CompactBitSliced::build(&ds, 64, 0.01, 3, 5);
        assert!(
            compact.size_bytes() < uniform.size_bytes() / 2,
            "compact {} vs uniform {}",
            compact.size_bytes(),
            uniform.size_bytes()
        );
    }

    #[test]
    fn compact_query_terms_blockwise_and() {
        let ds = docs(20, 30);
        let compact = CompactBitSliced::build(&ds, 6, 0.01, 3, 9);
        let q: Vec<u64> = ds[3].1[..4].to_vec();
        let hits = compact.query_terms(&q);
        assert!(hits.contains(&3));
        assert!(hits.windows(2).all(|w| w[0] < w[1]), "sorted output");
    }

    #[test]
    fn empty_inputs() {
        let idx = BitSlicedIndex::build(&[], 64, 2, 0);
        assert!(idx.query_term(1).is_empty());
        let c = CompactBitSliced::build(&[], 4, 0.1, 2, 0);
        assert!(c.query_term(1).is_empty());
        assert!(c.query_terms(&[1, 2]).is_empty());
    }
}
