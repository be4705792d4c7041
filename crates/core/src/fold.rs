//! Fold-over (§5.3, Figure 3): halve `B` by OR-ing the upper half of each
//! repetition's BFUs onto the lower half.
//!
//! Because a BFU is a Bloom filter of the *union* of its documents, OR-ing
//! BFU `b` with BFU `b + B/2` yields exactly the BFU of the merged bucket —
//! i.e. the index one would have built with `B/2` partitions and partition
//! hash `φᵢ mod B/2`. The paper uses this for one-time post-construction
//! size/accuracy tuning: "a one-time processing allows us to create several
//! versions of RAMBO with varying sizes and FP rates" (Table 4, Figure 4).
//! Folding never introduces false negatives; it raises the false-positive
//! rate super-linearly as memory shrinks by 2×, 4×, 8×…

use crate::error::RamboError;
use crate::index::Rambo;

/// Storage choice for one tier of a fold-over catalog
/// ([`Rambo::fold_catalog_bytes_with`]).
///
/// `Dense` tiers serialize row-major words (re-openable zero-copy or paged);
/// `Rrr` tiers serialize RRR-compressed rows — the Table 3 trade the paper
/// attributes to HowDeSBT/SSBT, applied here to *cold* tiers only. RRR wins
/// when rows are sparse, which is exactly the unfolded (large-`B`) end of
/// the catalog: folding ORs columns together and raises the fill fraction,
/// so the hot folded tiers stay dense where the kernel fast path runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TierCompression {
    /// Row-major dense words (the v2 default; zero-copy / paged openable).
    Dense,
    /// RRR-compressed rows; probes decode touched rows block-wise.
    Rrr,
}

impl Rambo {
    /// Fold once: `B → B/2`, total size halves, FPR grows.
    ///
    /// # Errors
    /// [`RamboError::FoldUnavailable`] when the current bucket count is odd
    /// or would drop below 2.
    pub fn fold_once(&mut self) -> Result<(), RamboError> {
        let b = self.current_buckets;
        if !b.is_multiple_of(2) {
            return Err(RamboError::FoldUnavailable(format!(
                "bucket count {b} is odd"
            )));
        }
        if b < 4 {
            return Err(RamboError::FoldUnavailable(format!(
                "folding below 2 buckets (current {b}) would collapse the partition"
            )));
        }
        let half = (b / 2) as usize;
        for table in &mut self.tables {
            // OR the upper-half columns onto the lower half.
            table.matrix.fold_once()?;
            // Merge bucket membership: new bucket = old mod B/2.
            for i in 0..half {
                let moved = std::mem::take(&mut table.buckets[half + i]);
                table.buckets[i].extend(moved);
                table.buckets[i].sort_unstable();
            }
            table.buckets.truncate(half);
            for a in &mut table.assign {
                if *a >= half as u32 {
                    *a -= half as u32;
                }
            }
        }
        self.current_buckets = b / 2;
        self.fold_factor += 1;
        Ok(())
    }

    /// Fold `n` times.
    ///
    /// # Errors
    /// Stops at the first unavailable fold (state stays consistent: all
    /// completed folds are applied).
    pub fn fold_times(&mut self, n: u32) -> Result<(), RamboError> {
        for _ in 0..n {
            self.fold_once()?;
        }
        Ok(())
    }

    /// Clone-and-fold: the Table 4 workflow of deriving several index sizes
    /// from one build.
    ///
    /// # Errors
    /// Same as [`Rambo::fold_times`].
    pub fn folded(&self, n: u32) -> Result<Self, RamboError> {
        let mut copy = self.clone();
        copy.fold_times(n)?;
        Ok(copy)
    }

    /// Fold down to exactly `target_buckets`. The target must divide the
    /// current bucket count by a power of two (each fold halves `B`, so
    /// those are the only reachable geometries); `target_buckets ==
    /// buckets()` is a no-op.
    ///
    /// # Errors
    /// [`RamboError::FoldUnavailable`] when the target is zero, larger than
    /// the current bucket count, not a power-of-two divisor of it, or when
    /// an intermediate fold is unavailable (odd or sub-2 bucket count); all
    /// folds completed before the failure stay applied, exactly like
    /// [`Rambo::fold_times`].
    pub fn fold_to(&mut self, target_buckets: u64) -> Result<(), RamboError> {
        let b = self.current_buckets;
        if target_buckets == 0 || target_buckets > b {
            return Err(RamboError::FoldUnavailable(format!(
                "cannot fold {b} buckets to {target_buckets}"
            )));
        }
        if !b.is_multiple_of(target_buckets) || !(b / target_buckets).is_power_of_two() {
            return Err(RamboError::FoldUnavailable(format!(
                "target {target_buckets} is not a power-of-two divisor of {b}"
            )));
        }
        self.fold_times((b / target_buckets).trailing_zeros())
    }

    /// Serialize the §5.3 / Table 4 fold-over *catalog*: one buffer holding
    /// this index folded to each geometry in `tier_buckets`, concatenated in
    /// order. Every tier is re-openable zero-copy with
    /// [`Rambo::open_view_at`] — this is the on-disk layout behind
    /// "a one-time processing allows us to create several versions of RAMBO
    /// with varying sizes and FP rates" that a serving catalog walks.
    ///
    /// `tier_buckets` must be strictly decreasing, with each entry a
    /// power-of-two divisor of its predecessor (and the first a
    /// power-of-two divisor of the current bucket count, typically equal to
    /// it). The folds are applied progressively — one clone total, not one
    /// per tier.
    ///
    /// # Errors
    /// [`RamboError::FoldUnavailable`] on an empty or non-decreasing tier
    /// list or an unreachable geometry, plus everything
    /// [`Rambo::to_bytes`] can raise (node-local shards).
    pub fn fold_catalog_bytes(&self, tier_buckets: &[u64]) -> Result<Vec<u8>, RamboError> {
        let tiers: Vec<(u64, TierCompression)> = tier_buckets
            .iter()
            .map(|&b| (b, TierCompression::Dense))
            .collect();
        self.fold_catalog_bytes_with(&tiers)
    }

    /// [`Rambo::fold_catalog_bytes`] with a per-tier compression flag: each
    /// `(buckets, compression)` entry folds to `buckets` and serializes
    /// either dense (`RBFM` matrix records) or RRR-compressed (`RBFR`
    /// records). Every decode path — [`Rambo::from_bytes`],
    /// [`Rambo::open_view_at`], [`Rambo::open_paged_at`] — dispatches on
    /// the record magic, so mixed catalogs open transparently; compressed
    /// tiers simply have no zero-copy/paged form and decode into owned RRR
    /// storage.
    ///
    /// # Errors
    /// Same as [`Rambo::fold_catalog_bytes`].
    pub fn fold_catalog_bytes_with(
        &self,
        tiers: &[(u64, TierCompression)],
    ) -> Result<Vec<u8>, RamboError> {
        if tiers.is_empty() {
            return Err(RamboError::FoldUnavailable(
                "catalog needs at least one tier".into(),
            ));
        }
        if tiers.windows(2).any(|w| w[1].0 >= w[0].0) {
            let buckets: Vec<u64> = tiers.iter().map(|t| t.0).collect();
            return Err(RamboError::FoldUnavailable(format!(
                "catalog tiers must be strictly decreasing, got {buckets:?}"
            )));
        }
        let mut out = Vec::new();
        let mut cur = self.clone();
        for &(target, compression) in tiers {
            cur.fold_to(target)?;
            match compression {
                TierCompression::Dense => out.extend(cur.to_bytes()?),
                TierCompression::Rrr => {
                    // Compress a clone: `cur` keeps dense storage so later
                    // (smaller) tiers fold from words, not decodes.
                    let mut compressed = cur.clone();
                    compressed.compress_to_rrr();
                    out.extend(compressed.to_bytes()?);
                }
            }
            // Zero-copy invariant: every encoded index ends on its 8-aligned
            // word payload (RRR records are whole words too), so each tier
            // starts at a multiple of 8 and the per-tier internal padding
            // stays valid inside the catalog.
            debug_assert!(out.len().is_multiple_of(8));
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::RamboParams;
    use crate::query::QueryMode;
    use crate::DocId;

    fn build(buckets: u64, k: usize, seed: u64) -> (Rambo, Vec<Vec<u64>>) {
        let mut r = Rambo::new(RamboParams::flat(buckets, 3, 1 << 13, 2, seed)).unwrap();
        let mut contents = Vec::new();
        for d in 0..k {
            let base = (d as u64) << 20;
            let ts: Vec<u64> = (0..40u64).map(|t| base | t).collect();
            r.insert_document(&format!("doc{d}"), ts.iter().copied())
                .unwrap();
            contents.push(ts);
        }
        (r, contents)
    }

    #[test]
    fn fold_halves_buckets_and_size() {
        // B must stay above word granularity (64 columns) for the matrix
        // rows to actually narrow.
        let (mut r, _) = build(256, 60, 1);
        let size0 = r.size_bytes();
        r.fold_once().unwrap();
        assert_eq!(r.buckets(), 128);
        assert_eq!(r.fold_factor(), 1);
        assert!(r.size_bytes() < size0, "folding must shrink the index");
        r.fold_once().unwrap();
        assert_eq!(r.buckets(), 64);
    }

    #[test]
    fn fold_preserves_zero_false_negatives() {
        let (mut r, contents) = build(16, 60, 2);
        r.fold_times(2).unwrap();
        for (d, ts) in contents.iter().enumerate() {
            for &t in ts.iter().take(3) {
                assert!(
                    r.query_u64(t).contains(&(d as DocId)),
                    "doc {d} lost after folding"
                );
            }
        }
    }

    #[test]
    fn folded_equals_building_with_half_b() {
        // The semantic claim behind fold-over: folding B=16 once yields the
        // same BFU bit patterns as... NOT in general the same as building at
        // B=8 (the partition hash ranges differ), but it must equal merging
        // bucket pairs (b, b+8). Verify bucket contents and filter bits.
        let (mut r, _) = build(16, 80, 3);
        let before = r.clone();
        r.fold_once().unwrap();
        for rep in 0..3 {
            for b in 0..8usize {
                // Filter = OR of the two source filters.
                let mut expect = before.bfu_bits(rep, b);
                expect.or_assign(&before.bfu_bits(rep, b + 8));
                assert_eq!(r.bfu_bits(rep, b), expect);
                // Bucket docs = union of the two source buckets.
                let mut docs: Vec<DocId> = before
                    .bucket_documents(rep, b)
                    .iter()
                    .chain(before.bucket_documents(rep, b + 8))
                    .copied()
                    .collect();
                docs.sort_unstable();
                assert_eq!(r.bucket_documents(rep, b), docs.as_slice());
            }
        }
    }

    #[test]
    fn fold_keeps_assignment_consistent() {
        let (mut r, _) = build(16, 50, 4);
        r.fold_once().unwrap();
        for rep in 0..3 {
            for b in 0..8usize {
                for &d in r.bucket_documents(rep, b) {
                    assert_eq!(r.bucket_of(rep, d), b as u32);
                }
            }
        }
    }

    #[test]
    fn documents_added_after_fold_are_queryable() {
        let (mut r, _) = build(16, 30, 5);
        r.fold_once().unwrap();
        let d = r.insert_document("late-arrival", [0xAAAA_BBBBu64]).unwrap();
        assert!(r.query_u64(0xAAAA_BBBB).contains(&d));
        // And its assignment respects the folded range.
        for rep in 0..3 {
            assert!(u64::from(r.bucket_of(rep, d)) < r.buckets());
        }
    }

    #[test]
    fn fold_increases_fpr() {
        let (r, _) = build(32, 200, 6);
        let folded = r.folded(3).unwrap();
        // Estimated per-BFU FPR grows as filters merge.
        assert!(folded.estimated_bfu_fpr() > r.estimated_bfu_fpr());
        // Measured: count false-positive docs on absent terms.
        let mut fp_base = 0usize;
        let mut fp_fold = 0usize;
        for t in 0..300u64 {
            let probe = 0xFFFF_0000_0000u64 + t;
            fp_base += r.query_u64(probe).len();
            fp_fold += folded.query_u64(probe).len();
        }
        assert!(
            fp_fold >= fp_base,
            "folding should not reduce false positives (base {fp_base}, folded {fp_fold})"
        );
    }

    #[test]
    fn fold_unavailable_cases() {
        let (mut r, _) = build(6, 10, 7); // 6 → 3 (odd) → error on second fold
        r.fold_once().unwrap();
        assert!(matches!(r.fold_once(), Err(RamboError::FoldUnavailable(_))));
        let (mut tiny, _) = build(2, 5, 8);
        assert!(matches!(
            tiny.fold_once(),
            Err(RamboError::FoldUnavailable(_))
        ));
    }

    #[test]
    fn fold_to_composes_fold_once() {
        let (r, _) = build(64, 40, 10);
        let mut direct = r.clone();
        direct.fold_to(8).unwrap();
        assert_eq!(direct.buckets(), 8);
        assert_eq!(direct.fold_factor(), 3);
        assert_eq!(direct, r.folded(3).unwrap());
        // No-op target.
        let mut same = r.clone();
        same.fold_to(64).unwrap();
        assert_eq!(same, r);
    }

    #[test]
    fn fold_to_rejects_unreachable_targets() {
        let (r, _) = build(16, 10, 11);
        for bad in [0u64, 3, 5, 6, 32] {
            let mut c = r.clone();
            assert!(
                matches!(c.fold_to(bad), Err(RamboError::FoldUnavailable(_))),
                "target {bad} must be rejected"
            );
            assert_eq!(c, r, "failed fold_to({bad}) must not mutate");
        }
    }

    #[test]
    fn fold_catalog_bytes_concatenates_reopenable_tiers() {
        let (r, contents) = build(32, 40, 12);
        let bytes = r.fold_catalog_bytes(&[32, 16, 8]).unwrap();
        let arc: std::sync::Arc<[u8]> = bytes.into();
        if !(arc.as_ptr() as usize).is_multiple_of(8) {
            return; // loader correctly errors on misaligned Arc payloads
        }
        let mut offset = 0;
        let mut tiers = Vec::new();
        while offset < arc.len() {
            let (tier, used) = Rambo::open_view_at(&arc, offset).unwrap();
            offset += used;
            tiers.push(tier);
        }
        assert_eq!(offset, arc.len());
        assert_eq!(tiers.len(), 3);
        assert_eq!(tiers[0], r);
        assert_eq!(tiers[1], r.folded(1).unwrap());
        assert_eq!(tiers[2], r.folded(2).unwrap());
        // Same query answers, zero false negatives on every tier.
        for tier in &tiers {
            assert!(tier.payload_borrows(&arc));
            for &t in contents[3].iter().take(3) {
                assert!(tier.query_u64(t).contains(&3));
            }
        }
    }

    #[test]
    fn compressed_catalog_tiers_answer_identically() {
        let (r, contents) = build(128, 50, 14);
        let dense = r.fold_catalog_bytes(&[128, 32]).unwrap();
        let mixed = r
            .fold_catalog_bytes_with(&[(128, TierCompression::Rrr), (32, TierCompression::Dense)])
            .unwrap();
        assert!(
            mixed.len() < dense.len(),
            "RRR tier 0 must shrink the catalog ({} vs {})",
            mixed.len(),
            dense.len()
        );
        // Both tiers reopen through open_view_at (which dispatches per
        // record: RBFR decodes owned, RBFM borrows) and answer like the
        // all-dense catalog.
        let arc: std::sync::Arc<[u8]> = mixed.into();
        let mut tiers = Vec::new();
        let mut offset = 0;
        while offset < arc.len() {
            let (tier, used) = Rambo::open_view_at(&arc, offset).unwrap();
            offset += used;
            tiers.push(tier);
        }
        assert_eq!(tiers.len(), 2);
        assert!(tiers[0].is_compressed(), "tier 0 must decode as RRR");
        assert!(!tiers[1].is_compressed(), "tier 1 must stay dense");
        assert_eq!(tiers[0], r, "compressed tier is logically the source");
        assert_eq!(tiers[1], r.folded(2).unwrap());
        for (d, ts) in contents.iter().enumerate().take(6) {
            for &t in ts.iter().take(3) {
                for tier in &tiers {
                    assert!(tier.query_u64(t).contains(&(d as crate::DocId)));
                }
            }
        }
    }

    #[test]
    fn compress_to_rrr_roundtrips_and_mutates() {
        let (r, _) = build(256, 40, 15);
        let mut c = r.clone();
        c.compress_to_rrr();
        assert!(c.is_compressed());
        assert_eq!(c, r, "compression is logically lossless");
        assert!(c.size_bytes() < r.size_bytes());
        // Mutation materializes transparently.
        let d = c.insert_document("late", [0x5EEDu64]).unwrap();
        assert!(!c.is_compressed());
        assert!(c.query_u64(0x5EED).contains(&d));
    }

    #[test]
    fn fold_catalog_rejects_bad_tier_lists() {
        let (r, _) = build(16, 10, 13);
        assert!(matches!(
            r.fold_catalog_bytes(&[]),
            Err(RamboError::FoldUnavailable(_))
        ));
        assert!(matches!(
            r.fold_catalog_bytes(&[16, 16]),
            Err(RamboError::FoldUnavailable(_))
        ));
        assert!(matches!(
            r.fold_catalog_bytes(&[8, 16]),
            Err(RamboError::FoldUnavailable(_))
        ));
        assert!(matches!(
            r.fold_catalog_bytes(&[16, 6]),
            Err(RamboError::FoldUnavailable(_))
        ));
    }

    #[test]
    fn sparse_mode_agrees_after_folding() {
        let (mut r, contents) = build(16, 60, 9);
        r.fold_once().unwrap();
        for &t in contents[10].iter().take(5) {
            assert_eq!(
                r.query_terms_u64(&[t], QueryMode::Full),
                r.query_terms_u64(&[t], QueryMode::Sparse)
            );
        }
    }
}
