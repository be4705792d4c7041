//! Forwards kept only so the `benchmark/` harness, which still names the
//! old generational API, compiles unchanged. Nothing else may call them.
//!
//! A live index is one [`Rambo`]; these answer exactly as that one matrix
//! does. There are no seals, no merges and no generations: every document
//! is in the "memtable", a merge is never due, and the generation count is
//! zero. They go when the harness calls [`Rambo`] itself.

use crate::{DocId, QueryContext, QueryMode, Rambo, RamboError, RamboParams};

/// The former seal policy. Only the field the harness sets survives, and
/// nothing reads it.
#[doc(hidden)]
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct GenerationConfig {
    /// Ignored: one matrix never seals.
    pub memtable_fpr_budget: f64,
}

/// One [`Rambo`] under the generational index's method names.
#[doc(hidden)]
#[derive(Debug)]
pub struct GenerationalIndex(Rambo);

impl GenerationalIndex {
    /// An empty index of `params`.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] when `params` is degenerate.
    pub fn new(params: RamboParams, _config: GenerationConfig) -> Result<Self, RamboError> {
        Rambo::new(params).map(Self)
    }

    /// [`Rambo::insert_document_batch`].
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when the name is already indexed.
    pub fn insert_document(&mut self, name: &str, terms: &[u64]) -> Result<DocId, RamboError> {
        self.0.insert_document_batch(name, terms)
    }

    /// Every document: a matrix that never seals holds them all.
    #[must_use]
    pub fn memtable_documents(&self) -> usize {
        self.0.num_documents()
    }

    /// Always `Ok(false)`: there is nothing to merge.
    ///
    /// # Errors
    /// Never.
    pub fn merge_once(&mut self) -> Result<bool, RamboError> {
        Ok(false)
    }

    /// [`Rambo::query_sequence_theta`].
    #[must_use]
    pub fn query_sequence_theta_with(
        &self,
        terms: &[u64],
        theta: f64,
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        self.0.query_sequence_theta(terms, theta, mode, ctx)
    }

    /// Always 0.
    #[must_use]
    pub fn num_generations(&self) -> usize {
        0
    }
}
