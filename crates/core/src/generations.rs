//! Online mutable RAMBO: LSM-style generations with live inserts.
//!
//! The paper's 170TB index is build-once, but a serving deployment needs
//! writes during reads. [`GenerationalIndex`] keeps one small **mutable
//! memtable** [`Rambo`] that absorbs [`GenerationalIndex::insert_document`]
//! calls, plus an ordered list of **immutable generations** — sealed
//! memtables round-tripped through [`Rambo::to_bytes`]/[`Rambo::open_view`],
//! so their filter payloads are zero-copy views of their own serialized form
//! (exactly the bytes a catalog tier or a disk file would hold).
//!
//! # Scalable-Bloom growth (when the memtable seals)
//!
//! A fixed-geometry index cannot absorb unbounded inserts: BFU fill — and
//! with it the false-positive rate — rises with every document. The memtable
//! therefore follows the scalable Bloom filter rule (Almeida et al., the
//! paper's reference \[4\], lifted to the RAMBO level): when its
//! *predicted* per-BFU FPR — the same metadata-only §2.1 estimate the
//! serving catalog quotes per tier — exceeds
//! [`GenerationConfig::memtable_fpr_budget`], the memtable is **sealed**:
//! serialized, re-opened as a zero-copy view, and appended to the generation
//! list, with a fresh empty memtable taking over. Geometry stays fixed
//! across all components (a requirement of `merge_or`-style OR-folds and of
//! bit-identity below); what grows is the number of sealed slices, just as a
//! scalable Bloom filter appends slices. A document-count cap
//! ([`GenerationConfig::memtable_max_docs`]) makes seal points deterministic
//! for tests and benchmarks.
//!
//! # Size-tiered merging (bounded read amplification)
//!
//! Every live generation is one more filter grid to probe per query — the
//! read-amplification concern Bloofi raises for filter collections. A merge
//! (run inline via [`GenerationalIndex::maintain`], or on a background
//! thread via the [`MergeJob`] split) OR-folds **adjacent** generations back
//! together whenever an older generation has fallen into its newer
//! neighbour's size class (`docs(i) < tier_growth · docs(i+1)`), so
//! generation sizes grow geometrically from newest to oldest and the live
//! count stays `O(log K)`. Merging only ever combines *adjacent* components,
//! which keeps the global document-id space — generation-local ids plus the
//! generation's `doc_lo` offset — contiguous and stable forever.
//!
//! # Bit-identity with a monolithic rebuild
//!
//! All components share one [`RamboParams`] (hence one partition-hash family
//! and one per-repetition Bloom seed schedule), so a monolithic index over
//! the same documents in the same arrival order is exactly the component-wise
//! OR: its filter matrix is the OR of the component matrices, and its bucket
//! lists are the offset concatenation of the component bucket lists. Queries
//! here evaluate **OR-first**: per repetition, one gather ORs each probed
//! filter row across components into a block *before* the η-row AND that
//! forms the bucket mask (see [`crate::query`]). AND-ing within each
//! component and unioning the per-component *answers* would miss exactly the
//! monolith's cross-component false positives and break bit-identity (the
//! property tests pin this equivalence, including for [`QueryMode::Sparse`]).

use std::sync::Arc;

use crate::error::RamboError;
use crate::index::{DocId, Rambo};
use crate::params::RamboParams;
use crate::query::{evaluate, evaluate_theta, hash_u64, Component, QueryContext, QueryMode};
use crate::theory;

/// Policy knobs for [`GenerationalIndex`]: when the memtable seals and when
/// generations merge.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GenerationConfig {
    /// Seal the memtable when its predicted per-BFU FPR (the metadata-only
    /// §2.1 estimate, identical to the catalog's per-tier figure) exceeds
    /// this budget. Must lie in `(0, 1]`.
    pub memtable_fpr_budget: f64,
    /// Also seal once the memtable holds this many documents (`0` disables
    /// the cap). A deterministic seal point independent of term counts.
    pub memtable_max_docs: usize,
    /// Size-tier growth factor: adjacent generations merge when the older
    /// one holds fewer than `tier_growth ×` the newer one's documents. Must
    /// be at least 1.
    pub tier_growth: u64,
    /// Hard cap on live generations: beyond it the cheapest adjacent pair
    /// merges even if the size tiers are respected. Must be at least 1.
    pub max_generations: usize,
}

impl Default for GenerationConfig {
    fn default() -> Self {
        Self {
            memtable_fpr_budget: 0.01,
            memtable_max_docs: 1024,
            tier_growth: 2,
            max_generations: 8,
        }
    }
}

impl GenerationConfig {
    fn validate(&self) -> Result<(), RamboError> {
        if !(self.memtable_fpr_budget > 0.0 && self.memtable_fpr_budget <= 1.0) {
            return Err(RamboError::InvalidParams(
                "memtable_fpr_budget must lie in (0, 1]".into(),
            ));
        }
        if self.tier_growth == 0 {
            return Err(RamboError::InvalidParams(
                "tier_growth must be at least 1".into(),
            ));
        }
        if self.max_generations == 0 {
            return Err(RamboError::InvalidParams(
                "max_generations must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// One immutable generation: a sealed memtable re-opened as a zero-copy view
/// of its own serialized bytes, plus its global document-id offset.
#[derive(Debug, Clone)]
struct Generation {
    index: Arc<Rambo>,
    /// Global id of this generation's first document.
    doc_lo: u32,
    /// Serialized size of the sealed index (the view's backing buffer).
    encoded_len: usize,
}

/// Read-only description of one live generation, for stats surfaces.
#[derive(Debug, Clone, PartialEq)]
pub struct GenerationInfo {
    /// Position in the generation list (0 = oldest).
    pub ordinal: usize,
    /// Global id of the generation's first document.
    pub doc_lo: u32,
    /// Documents held.
    pub docs: usize,
    /// Serialized size in bytes of the sealed index.
    pub encoded_len: usize,
    /// Predicted per-BFU FPR (metadata-only §2.1 estimate).
    pub predicted_fpr: f64,
}

/// A planned merge of two adjacent generations, detached from the index so
/// the expensive OR-fold can run without holding any lock.
///
/// Obtain one with [`GenerationalIndex::merge_job`], run it with
/// [`MergeJob::run`] (no lock needed — it only reads the two `Arc`'d
/// immutable components), and hand the result back with
/// [`GenerationalIndex::install_merged`], which validates the job is still
/// current before splicing.
#[derive(Debug, Clone)]
pub struct MergeJob {
    /// Index of the older generation in the list at plan time.
    slot: usize,
    older: Arc<Rambo>,
    newer: Arc<Rambo>,
}

impl MergeJob {
    /// Position of the older of the two generations being merged.
    #[must_use]
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Combined document count of the merge output.
    #[must_use]
    pub fn docs(&self) -> usize {
        self.older.num_documents() + self.newer.num_documents()
    }

    /// OR-fold the two generations and seal the result. Heavy — run this
    /// off-lock; the job only touches its own `Arc`'d immutable components.
    ///
    /// # Errors
    /// Propagates serialization failures from sealing the merged index.
    pub fn run(&self) -> Result<SealedGeneration, RamboError> {
        let merged = merge_components(*self.older.params(), &[&self.older, &self.newer])?;
        SealedGeneration::seal(merged)
    }
}

/// A merged-and-sealed index produced by [`MergeJob::run`], ready for
/// [`GenerationalIndex::install_merged`].
#[derive(Debug)]
pub struct SealedGeneration {
    index: Arc<Rambo>,
    encoded_len: usize,
}

impl SealedGeneration {
    /// Serialize `index` and re-open it as a zero-copy view of its own
    /// bytes, so the sealed generation's filter payload borrows the
    /// serialized buffer instead of owning a second copy.
    fn seal(index: Rambo) -> Result<Self, RamboError> {
        let bytes: Arc<[u8]> = index.to_bytes()?.into();
        let encoded_len = bytes.len();
        // Arc payloads are at least 8-aligned on every mainstream allocator;
        // if an exotic one ever under-aligns the buffer, fall back to an
        // owned decode — correctness over zero-copy.
        let view = match Rambo::open_view(Arc::clone(&bytes)) {
            Ok(view) => view,
            Err(_) => Rambo::from_bytes(&bytes)?,
        };
        Ok(Self {
            index: Arc::new(view),
            encoded_len,
        })
    }

    /// Documents held by the sealed index.
    #[must_use]
    pub fn docs(&self) -> usize {
        self.index.num_documents()
    }
}

/// An online mutable RAMBO: one mutable memtable plus N immutable sealed
/// generations, query-equivalent (bit-identical) to a monolithic [`Rambo`]
/// over the same documents in the same order. See the module docs above
/// for the sealing/merging policy and the equivalence argument.
#[derive(Debug)]
pub struct GenerationalIndex {
    params: RamboParams,
    config: GenerationConfig,
    /// Immutable sealed components, oldest first; `doc_lo` ascending.
    generations: Vec<Generation>,
    /// Mutable component absorbing inserts.
    memtable: Rambo,
    /// Global id of the memtable's first document.
    memtable_lo: u32,
    /// Bumped on every structural change (seal or merge install). Servers
    /// key cached artifacts (catalog snapshots, result-cache versions) on
    /// this.
    epoch: u64,
}

impl GenerationalIndex {
    /// Create an empty generational index.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] when `params` or `config` are
    /// degenerate.
    pub fn new(params: RamboParams, config: GenerationConfig) -> Result<Self, RamboError> {
        config.validate()?;
        Ok(Self {
            memtable: Rambo::new(params)?,
            params,
            config,
            generations: Vec::new(),
            memtable_lo: 0,
            epoch: 0,
        })
    }

    /// The shared construction parameters (identical for every component).
    #[must_use]
    pub fn params(&self) -> &RamboParams {
        &self.params
    }

    /// The sealing/merging policy.
    #[must_use]
    pub fn config(&self) -> &GenerationConfig {
        &self.config
    }

    /// Structural version: bumped on every seal and every merge install.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Total documents across all generations and the memtable.
    #[must_use]
    pub fn num_documents(&self) -> usize {
        self.memtable_lo as usize + self.memtable.num_documents()
    }

    /// Documents currently in the mutable memtable.
    #[must_use]
    pub fn memtable_documents(&self) -> usize {
        self.memtable.num_documents()
    }

    /// Number of live immutable generations.
    #[must_use]
    pub fn num_generations(&self) -> usize {
        self.generations.len()
    }

    /// Total term insertions across all components (with multiplicity).
    #[must_use]
    pub fn total_inserts(&self) -> u64 {
        self.generations
            .iter()
            .map(|g| g.index.total_inserts())
            .sum::<u64>()
            + self.memtable.total_inserts()
    }

    /// In-memory footprint of all components' filter payloads.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.generations
            .iter()
            .map(|g| g.index.size_bytes())
            .sum::<usize>()
            + self.memtable.size_bytes()
    }

    /// Per-generation stats snapshot, oldest first.
    #[must_use]
    pub fn generation_infos(&self) -> Vec<GenerationInfo> {
        self.generations
            .iter()
            .enumerate()
            .map(|(ordinal, g)| GenerationInfo {
                ordinal,
                doc_lo: g.doc_lo,
                docs: g.index.num_documents(),
                encoded_len: g.encoded_len,
                predicted_fpr: predicted_fpr(&g.index),
            })
            .collect()
    }

    /// Global id of `name`, searching the memtable first, else any
    /// generation.
    #[must_use]
    pub fn document_id(&self, name: &str) -> Option<DocId> {
        if let Some(local) = self.memtable.document_id(name) {
            return Some(self.memtable_lo + local);
        }
        self.generations
            .iter()
            .find_map(|g| g.index.document_id(name).map(|local| g.doc_lo + local))
    }

    /// Name of global document `id`.
    ///
    /// # Panics
    /// When `id` was not issued by this index.
    #[must_use]
    pub fn document_name(&self, id: DocId) -> &str {
        if id >= self.memtable_lo {
            return self.memtable.document_name(id - self.memtable_lo);
        }
        let slot = self.generations.partition_point(|g| g.doc_lo <= id) - 1;
        let g = &self.generations[slot];
        g.index.document_name(id - g.doc_lo)
    }

    /// Predicted per-BFU FPR of the memtable — the metadata-only §2.1
    /// estimate (`theory::bfu_fpr` over average keys per bucket), identical
    /// to the figure the serving catalog quotes per tier. Cheap: no matrix
    /// scan.
    #[must_use]
    pub fn predicted_memtable_fpr(&self) -> f64 {
        predicted_fpr(&self.memtable)
    }

    /// Whether the next [`GenerationalIndex::insert_document`] would seal
    /// first (FPR budget exceeded or document cap reached).
    #[must_use]
    pub fn memtable_over_budget(&self) -> bool {
        let docs = self.memtable.num_documents();
        if docs == 0 {
            return false;
        }
        if self.config.memtable_max_docs > 0 && docs >= self.config.memtable_max_docs {
            return true;
        }
        self.predicted_memtable_fpr() > self.config.memtable_fpr_budget
    }

    /// Insert a document with its term set into the memtable, returning its
    /// **global** id (stable forever — merges only combine adjacent
    /// components, preserving id order). Seals the memtable afterwards if
    /// the insert pushed it over budget; sealing never changes the returned
    /// id.
    ///
    /// # Errors
    /// [`RamboError::DuplicateDocument`] when `name` is already indexed in
    /// any component; [`RamboError::InvalidParams`] when the u32 global id
    /// space is exhausted; sealing errors propagate.
    pub fn insert_document(&mut self, name: &str, terms: &[u64]) -> Result<DocId, RamboError> {
        // The memtable's own duplicate check only covers itself; the sealed
        // generations must be consulted too.
        for g in &self.generations {
            if g.index.document_id(name).is_some() {
                return Err(RamboError::DuplicateDocument(name.to_owned()));
            }
        }
        if self.memtable_lo as u64 + self.memtable.num_documents() as u64 >= u64::from(u32::MAX) {
            return Err(RamboError::InvalidParams(
                "document id space (u32) exhausted".into(),
            ));
        }
        let local = self.memtable.insert_document_batch(name, terms)?;
        let global = self.memtable_lo + local;
        if self.memtable_over_budget() {
            self.seal_memtable()?;
        }
        Ok(global)
    }

    /// Seal the memtable unconditionally: serialize it, re-open the bytes as
    /// a zero-copy view, append it as the newest generation, and start a
    /// fresh memtable. Returns `false` (and does nothing) when the memtable
    /// is empty. Bumps [`GenerationalIndex::epoch`].
    ///
    /// # Errors
    /// Serialization failures propagate; the index is unchanged on error.
    pub fn seal_memtable(&mut self) -> Result<bool, RamboError> {
        let docs = self.memtable.num_documents();
        if docs == 0 {
            return Ok(false);
        }
        let sealed = SealedGeneration::seal(std::mem::replace(
            &mut self.memtable,
            Rambo::new(self.params)?,
        ))?;
        self.generations.push(Generation {
            index: sealed.index,
            doc_lo: self.memtable_lo,
            encoded_len: sealed.encoded_len,
        });
        self.memtable_lo += docs as u32;
        self.epoch += 1;
        Ok(true)
    }

    /// Size-tiered merge planning: the position of the older generation of
    /// the next adjacent pair to merge, or `None` when the tiers are
    /// respected and the generation count is within
    /// [`GenerationConfig::max_generations`].
    ///
    /// Scanning newest-to-oldest, a pair merges when the older member holds
    /// fewer than `tier_growth ×` the newer member's documents; when only
    /// the hard cap is violated, the adjacent pair with the smallest
    /// combined document count merges instead.
    #[must_use]
    pub fn plan_merge(&self) -> Option<usize> {
        let n = self.generations.len();
        if n < 2 {
            return None;
        }
        let docs = |i: usize| self.generations[i].index.num_documents() as u64;
        for i in (0..n - 1).rev() {
            if docs(i) < self.config.tier_growth.saturating_mul(docs(i + 1)) {
                return Some(i);
            }
        }
        if n > self.config.max_generations {
            return (0..n - 1).min_by_key(|&i| docs(i) + docs(i + 1));
        }
        None
    }

    /// Whether [`GenerationalIndex::plan_merge`] has work.
    #[must_use]
    pub fn needs_merge(&self) -> bool {
        self.plan_merge().is_some()
    }

    /// Detach the next planned merge as a [`MergeJob`] whose heavy OR-fold
    /// can run without holding any lock on this index. `None` when no merge
    /// is due.
    #[must_use]
    pub fn merge_job(&self) -> Option<MergeJob> {
        let slot = self.plan_merge()?;
        Some(MergeJob {
            slot,
            older: Arc::clone(&self.generations[slot].index),
            newer: Arc::clone(&self.generations[slot + 1].index),
        })
    }

    /// Install the output of [`MergeJob::run`], replacing the job's two
    /// source generations with the merged one. Returns `false` without
    /// changing anything when the job is stale — the generations at
    /// `job.slot()` are no longer the exact `Arc`s the job captured (a
    /// competing merge installed first). Seals only *append*, so a job
    /// planned before concurrent seals still installs. Bumps
    /// [`GenerationalIndex::epoch`] on success.
    pub fn install_merged(&mut self, job: &MergeJob, merged: SealedGeneration) -> bool {
        let i = job.slot;
        if i + 1 >= self.generations.len()
            || !Arc::ptr_eq(&self.generations[i].index, &job.older)
            || !Arc::ptr_eq(&self.generations[i + 1].index, &job.newer)
        {
            return false;
        }
        debug_assert_eq!(merged.index.num_documents(), job.docs());
        let doc_lo = self.generations[i].doc_lo;
        self.generations.splice(
            i..=i + 1,
            [Generation {
                index: merged.index,
                doc_lo,
                encoded_len: merged.encoded_len,
            }],
        );
        self.epoch += 1;
        true
    }

    /// Run one planned merge inline (plan → OR-fold → install). Returns
    /// whether a merge happened.
    ///
    /// # Errors
    /// Propagates [`MergeJob::run`] failures.
    pub fn merge_once(&mut self) -> Result<bool, RamboError> {
        let Some(job) = self.merge_job() else {
            return Ok(false);
        };
        let merged = job.run()?;
        // Single-threaded: the job cannot have gone stale.
        let installed = self.install_merged(&job, merged);
        debug_assert!(installed);
        Ok(installed)
    }

    /// Inline maintenance: seal the memtable if it is over budget, then run
    /// merges until the size tiers are quiescent. The synchronous equivalent
    /// of one background-thread cycle.
    ///
    /// # Errors
    /// Propagates sealing/merging failures.
    pub fn maintain(&mut self) -> Result<(), RamboError> {
        if self.memtable_over_budget() {
            self.seal_memtable()?;
        }
        while self.merge_once()? {}
        Ok(())
    }

    /// Single-term convenience query (Full mode, fresh context).
    #[must_use]
    pub fn query_u64(&self, term: u64) -> Vec<DocId> {
        self.query_terms_with(&[term], QueryMode::Full, &mut QueryContext::new())
    }

    /// Multi-term AND query across memtable + generations, bit-identical to
    /// [`Rambo::query_terms_with`] on a monolithic rebuild of the same
    /// documents in the same order (see the module docs for the OR-first
    /// argument). Global document ids, ascending.
    #[must_use]
    pub fn query_terms_with(
        &self,
        terms: &[u64],
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        evaluate(&self.components(), terms, hash_u64, mode, ctx)
    }

    /// θ-fraction sequence query across memtable + generations: documents
    /// that (appear to) contain at least `theta · terms.len()` of the query
    /// terms, counted with multiplicity. Runs [`Rambo::query_sequence_theta`]'s
    /// evaluator over the component list, so the answer is bit-identical to
    /// the monolithic rebuild's. This is the serving path behind the
    /// multi-tenant `R.QUERYSEQ` verb.
    ///
    /// # Panics
    /// Panics unless `0 < theta ≤ 1`.
    #[must_use]
    pub fn query_sequence_theta_with(
        &self,
        terms: &[u64],
        theta: f64,
        mode: QueryMode,
        ctx: &mut QueryContext,
    ) -> Vec<DocId> {
        evaluate_theta(&self.components(), terms, theta, mode, ctx)
    }

    /// The live components the shared evaluator of [`crate::query`] runs
    /// over, oldest first. The Bloom seed schedule is derived from the
    /// shared master seed, so it is identical in every component (and in
    /// the monolith).
    fn components(&self) -> Vec<Component<'_>> {
        let mut comps = Vec::with_capacity(self.generations.len() + 1);
        comps.extend(self.generations.iter().map(|g| (&*g.index, g.doc_lo)));
        if self.memtable.num_documents() > 0 {
            comps.push((&self.memtable, self.memtable_lo));
        }
        comps
    }

    /// Rebuild a monolithic [`Rambo`] over every indexed document (global id
    /// order), by re-registering names and OR-folding all component
    /// matrices. Equals a from-scratch build over the same documents in the
    /// same order (full structural equality) — the bridge to the catalog
    /// path, which tiers/folds a single index.
    ///
    /// # Errors
    /// Propagates index-construction failures.
    pub fn to_monolithic(&self) -> Result<Rambo, RamboError> {
        let mut comps: Vec<&Rambo> = self.generations.iter().map(|g| &*g.index).collect();
        if self.memtable.num_documents() > 0 {
            comps.push(&self.memtable);
        }
        merge_components(self.params, &comps)
    }
}

/// Metadata-only predicted per-BFU FPR of one component (§2.1 estimate over
/// average keys per bucket — the same rule as the catalog's per-tier info).
fn predicted_fpr(index: &Rambo) -> f64 {
    let params = index.params();
    let keys = (index.total_inserts() / params.buckets().max(1)) as usize;
    theory::bfu_fpr(params.bfu_bits, keys, params.eta)
}

/// OR-fold `comps` (in order) into one fresh monolithic index: re-register
/// every document name (recomputing identical bucket assignments — the
/// partition hash depends only on name and shared seed), then `merge_or`
/// every table matrix.
fn merge_components(params: RamboParams, comps: &[&Rambo]) -> Result<Rambo, RamboError> {
    let mut out = Rambo::new(params)?;
    for comp in comps {
        for name in comp.document_names() {
            out.add_document(name)?;
        }
    }
    for comp in comps {
        for (dst, src) in out.tables.iter_mut().zip(&comp.tables) {
            dst.matrix.merge_or(&src.matrix);
        }
        out.inserts += comp.total_inserts();
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RamboParams {
        RamboParams::flat(8, 3, 256, 2, 42)
    }

    fn config(max_docs: usize) -> GenerationConfig {
        GenerationConfig {
            memtable_max_docs: max_docs,
            ..GenerationConfig::default()
        }
    }

    /// Deterministic fake document corpus: `doc-i` holds a window of terms.
    fn doc(i: usize) -> (String, Vec<u64>) {
        let terms: Vec<u64> = (0..12).map(|t| (i as u64 * 7 + t * 3) % 97).collect();
        (format!("doc-{i}"), terms)
    }

    fn oracle(n: usize) -> Rambo {
        let mut mono = Rambo::new(params()).unwrap();
        for i in 0..n {
            let (name, terms) = doc(i);
            mono.insert_document_batch(&name, &terms).unwrap();
        }
        mono
    }

    #[test]
    fn rejects_degenerate_config() {
        let bad = GenerationConfig {
            memtable_fpr_budget: 0.0,
            ..GenerationConfig::default()
        };
        assert!(GenerationalIndex::new(params(), bad).is_err());
        let bad = GenerationConfig {
            tier_growth: 0,
            ..GenerationConfig::default()
        };
        assert!(GenerationalIndex::new(params(), bad).is_err());
        let bad = GenerationConfig {
            max_generations: 0,
            ..GenerationConfig::default()
        };
        assert!(GenerationalIndex::new(params(), bad).is_err());
    }

    #[test]
    fn auto_seals_on_doc_cap_and_ids_are_stable() {
        let mut gi = GenerationalIndex::new(params(), config(4)).unwrap();
        for i in 0..13 {
            let (name, terms) = doc(i);
            let id = gi.insert_document(&name, &terms).unwrap();
            assert_eq!(id as usize, i, "global ids are issued sequentially");
        }
        assert!(gi.num_generations() >= 1, "doc cap must have sealed");
        assert_eq!(gi.num_documents(), 13);
        for i in 0..13 {
            let (name, _) = doc(i);
            assert_eq!(gi.document_id(&name), Some(i as u32));
            assert_eq!(gi.document_name(i as u32), name);
        }
    }

    #[test]
    fn duplicate_names_rejected_across_components() {
        let mut gi = GenerationalIndex::new(params(), config(2)).unwrap();
        for i in 0..5 {
            let (name, terms) = doc(i);
            gi.insert_document(&name, &terms).unwrap();
        }
        assert!(gi.num_generations() >= 1);
        // doc-0 lives in a sealed generation by now; doc-4 in the memtable.
        for i in [0usize, 4] {
            let (name, terms) = doc(i);
            assert!(matches!(
                gi.insert_document(&name, &terms),
                Err(RamboError::DuplicateDocument(_))
            ));
        }
    }

    #[test]
    fn queries_match_monolith_across_seals_and_merges() {
        let mut gi = GenerationalIndex::new(params(), config(3)).unwrap();
        let mut ctx = QueryContext::new();
        for i in 0..20 {
            let (name, terms) = doc(i);
            gi.insert_document(&name, &terms).unwrap();
            if i % 7 == 6 {
                gi.maintain().unwrap();
            }
            let mono = oracle(i + 1);
            let mut mctx = QueryContext::new();
            for probe in [0u64, 3, 50, 96, 1000] {
                for mode in [QueryMode::Full, QueryMode::Sparse] {
                    let got = gi.query_terms_with(&[probe], mode, &mut ctx);
                    let want = mono.query_terms_with(&[probe], mode, &mut mctx);
                    assert_eq!(got, want, "term {probe} mode {mode:?} after doc {i}");
                }
                // Multi-term AND as well.
                let got = gi.query_terms_with(&[probe, probe + 3], QueryMode::Full, &mut ctx);
                let want = mono.query_terms_with(&[probe, probe + 3], QueryMode::Full, &mut mctx);
                assert_eq!(got, want);
            }
        }
    }

    #[test]
    fn to_monolithic_equals_from_scratch_build() {
        let mut gi = GenerationalIndex::new(params(), config(3)).unwrap();
        for i in 0..17 {
            let (name, terms) = doc(i);
            gi.insert_document(&name, &terms).unwrap();
        }
        gi.maintain().unwrap();
        assert_eq!(gi.to_monolithic().unwrap(), oracle(17));
    }

    #[test]
    fn merge_policy_bounds_generation_count() {
        let mut gi = GenerationalIndex::new(params(), config(2)).unwrap();
        for i in 0..40 {
            let (name, terms) = doc(i);
            gi.insert_document(&name, &terms).unwrap();
            gi.maintain().unwrap();
        }
        // 20 seals of 2 docs each, size-tiered with growth 2 => O(log n).
        assert!(
            gi.num_generations() <= 6,
            "got {} generations",
            gi.num_generations()
        );
        let infos = gi.generation_infos();
        for w in infos.windows(2) {
            assert!(w[0].doc_lo < w[1].doc_lo);
        }
    }

    #[test]
    fn stale_merge_job_is_rejected() {
        let mut gi = GenerationalIndex::new(params(), config(2)).unwrap();
        for i in 0..8 {
            let (name, terms) = doc(i);
            gi.insert_document(&name, &terms).unwrap();
        }
        let job = gi.merge_job().expect("a merge should be due");
        let merged = job.run().unwrap();
        // A competing merge installs first.
        assert!(gi.merge_once().unwrap());
        assert!(
            !gi.install_merged(&job, merged),
            "stale job must be rejected"
        );
        // The index remains consistent and queryable.
        assert_eq!(gi.to_monolithic().unwrap(), oracle(8));
    }

    #[test]
    fn seal_survives_concurrent_merge_job() {
        // A job planned before a seal still installs: seals only append.
        let mut gi = GenerationalIndex::new(params(), config(2)).unwrap();
        for i in 0..8 {
            let (name, terms) = doc(i);
            gi.insert_document(&name, &terms).unwrap();
        }
        let job = gi.merge_job().expect("a merge should be due");
        let (name, terms) = doc(100);
        gi.insert_document(&name, &terms).unwrap();
        let (name, terms) = doc(101);
        gi.insert_document(&name, &terms).unwrap(); // seals (cap 2)
        let merged = job.run().unwrap();
        assert!(gi.install_merged(&job, merged), "append-only seal is safe");
        let mut mono = oracle(8);
        for i in [100usize, 101] {
            let (name, terms) = doc(i);
            mono.insert_document_batch(&name, &terms).unwrap();
        }
        assert_eq!(gi.to_monolithic().unwrap(), mono);
    }

    #[test]
    fn fpr_budget_seals_without_doc_cap() {
        let tight = GenerationConfig {
            memtable_fpr_budget: 1e-6,
            memtable_max_docs: 0,
            ..GenerationConfig::default()
        };
        let mut gi = GenerationalIndex::new(params(), tight).unwrap();
        for i in 0..6 {
            let (name, terms) = doc(i);
            gi.insert_document(&name, &terms).unwrap();
        }
        assert!(
            gi.num_generations() >= 1,
            "a tiny FPR budget must force seals"
        );
    }

    #[test]
    fn empty_and_empty_term_queries() {
        let mut gi = GenerationalIndex::new(params(), config(2)).unwrap();
        assert!(gi.query_u64(7).is_empty());
        assert!(gi
            .query_terms_with(&[], QueryMode::Full, &mut QueryContext::new())
            .is_empty());
        let (name, terms) = doc(0);
        gi.insert_document(&name, &terms).unwrap();
        assert!(gi
            .query_terms_with(&[], QueryMode::Sparse, &mut QueryContext::new())
            .is_empty());
        assert!(gi.seal_memtable().unwrap());
        assert!(!gi.seal_memtable().unwrap(), "empty memtable does not seal");
    }
}
