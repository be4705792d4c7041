//! RAMBO parameters (`B`, `R`, BFU geometry, seeds).

use crate::error::RamboError;
use crate::partition::PartitionScheme;

/// Full parameter set of a RAMBO index.
///
/// The two structural knobs are the partition scheme (how many buckets `B`,
/// flat or two-level for distributed builds) and the repetition count `R`;
/// `bfu_bits`/`eta` size the individual Bloom Filters for the Union. All hash
/// functions (Bloom family, `R` partition hashes, node router) derive
/// deterministically from `seed` — the paper's §5.3 requires every machine to
/// share them so fold-over and stacking stay lossless.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RamboParams {
    /// Document partition layout (the `B` of the paper).
    pub partition: PartitionScheme,
    /// Number of independent repetitions (the `R` of the paper).
    pub repetitions: usize,
    /// Bits per BFU (`m`). All BFUs share one size, set from the pooled
    /// average document cardinality (§5.1 "Size of BFU").
    pub bfu_bits: usize,
    /// Hash probes per key per BFU (`η`; "ranges from 1 to 6 in practice").
    pub eta: u32,
    /// Master seed for every hash family in the index.
    pub seed: u64,
}

impl RamboParams {
    /// Convenience constructor for a flat (single-machine) layout.
    #[must_use]
    pub fn flat(buckets: u64, repetitions: usize, bfu_bits: usize, eta: u32, seed: u64) -> Self {
        Self {
            partition: PartitionScheme::Flat { buckets },
            repetitions,
            bfu_bits,
            eta,
            seed,
        }
    }

    /// Convenience constructor for the two-level (distributed) layout of
    /// §5.3: `nodes · local_buckets` global buckets.
    #[must_use]
    pub fn two_level(
        nodes: u64,
        local_buckets: u64,
        repetitions: usize,
        bfu_bits: usize,
        eta: u32,
        seed: u64,
    ) -> Self {
        Self {
            partition: PartitionScheme::TwoLevel {
                nodes,
                local_buckets,
            },
            repetitions,
            bfu_bits,
            eta,
            seed,
        }
    }

    /// Total buckets per repetition (`B`).
    #[must_use]
    pub fn buckets(&self) -> u64 {
        self.partition.total_buckets()
    }

    /// Validate dimensions.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] when any dimension is degenerate.
    pub fn validate(&self) -> Result<(), RamboError> {
        let b = self.buckets();
        if b < 2 {
            return Err(RamboError::InvalidParams(format!(
                "need at least 2 buckets, got {b}"
            )));
        }
        if self.repetitions == 0 {
            return Err(RamboError::InvalidParams("repetitions must be ≥ 1".into()));
        }
        if self.bfu_bits == 0 {
            return Err(RamboError::InvalidParams("bfu_bits must be ≥ 1".into()));
        }
        if self.eta == 0 {
            return Err(RamboError::InvalidParams("eta must be ≥ 1".into()));
        }
        if self.eta as usize > self.bfu_bits {
            // A query plans η rows per term: more than the filter has would
            // size that plan from a count no index needs (or a corrupt file).
            return Err(RamboError::InvalidParams(format!(
                "eta {} exceeds bfu_bits {}",
                self.eta, self.bfu_bits
            )));
        }
        if u32::try_from(b).is_err() {
            return Err(RamboError::InvalidParams(format!(
                "bucket count {b} exceeds u32 addressing"
            )));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_and_two_level_bucket_counts() {
        let f = RamboParams::flat(100, 3, 1 << 20, 2, 1);
        assert_eq!(f.buckets(), 100);
        let t = RamboParams::two_level(10, 50, 5, 1 << 20, 2, 1);
        assert_eq!(t.buckets(), 500);
        assert!(f.validate().is_ok());
        assert!(t.validate().is_ok());
    }

    #[test]
    fn validation_rejects_degenerate_dimensions() {
        assert!(RamboParams::flat(1, 3, 10, 2, 0).validate().is_err());
        assert!(RamboParams::flat(10, 0, 10, 2, 0).validate().is_err());
        assert!(RamboParams::flat(10, 3, 0, 2, 0).validate().is_err());
        assert!(RamboParams::flat(10, 3, 10, 0, 0).validate().is_err());
        assert!(RamboParams::flat(10, 3, 10, 11, 0).validate().is_err());
    }
}
