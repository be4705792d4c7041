//! The fold-over tier catalog: several serialized versions of one RAMBO
//! index — the base build plus progressively folded copies — opened
//! zero-copy out of a single shared buffer, with an FPR-budget routing rule.
//!
//! This is the serving-side half of the paper's §5.3 / Table 4 workflow:
//! "a one-time processing allows us to create several versions of RAMBO
//! with varying sizes and FP rates". Construction writes the versions
//! back-to-back ([`rambo_core::Rambo::fold_catalog_bytes`]); the catalog
//! walks the concatenation with [`Rambo::open_view_at`], so all tiers
//! *borrow* their filter payloads from one `Arc<[u8]>` — opening a catalog
//! costs metadata, not payload, no matter how many tiers it holds.

use rambo_bitvec::{BlockCacheCounters, BlockCacheSnapshot, PagedFile};
use rambo_core::{Rambo, RamboError, TierCompression};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Default block-cache budget for file-backed catalogs opened through
/// [`CatalogBuilder`] when [`CatalogBuilder::cache_bytes`] is not called.
pub const DEFAULT_CACHE_BYTES: usize = 64 << 20;

/// Errors from catalog construction ([`CatalogBuilder::build`]).
#[derive(Debug)]
pub enum CatalogError {
    /// [`CatalogBuilder::build`] was called without a source.
    MissingSource,
    /// A live-index source ([`CatalogBuilder::base`]) needs a tier spec
    /// ([`CatalogBuilder::tier_buckets`], [`CatalogBuilder::tiers`] or
    /// [`CatalogBuilder::halving`]) to know what to fold.
    MissingTiers,
    /// A tier spec was combined with an already-serialized source
    /// (buffer/file) — those carry their tier layout in-band.
    TiersWithSerializedSource,
    /// The buffer or file held no serialized tiers.
    Empty,
    /// Tier bucket counts must strictly shrink (the FPR-routing rule
    /// depends on that order).
    NotShrinking {
        /// Position of the offending tier.
        tier: usize,
        /// Its bucket count.
        buckets: u64,
        /// The preceding tier's bucket count.
        prev: u64,
    },
    /// I/O failure opening a catalog file.
    Io(std::io::Error),
    /// Core index failure (decode, fold, parameter validation).
    Index(RamboError),
}

impl fmt::Display for CatalogError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::MissingSource => write!(f, "catalog builder needs a source"),
            Self::MissingTiers => write!(
                f,
                "folding a live index needs a tier spec (tier_buckets/tiers/halving)"
            ),
            Self::TiersWithSerializedSource => write!(
                f,
                "tier specs only apply to live-index sources; serialized catalogs carry their tiers"
            ),
            Self::Empty => write!(f, "catalog source holds no tiers"),
            Self::NotShrinking {
                tier,
                buckets,
                prev,
            } => write!(
                f,
                "catalog tiers must shrink: tier {tier} has {buckets} buckets after {prev}"
            ),
            Self::Io(e) => write!(f, "catalog file: {e}"),
            Self::Index(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for CatalogError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Io(e) => Some(e),
            Self::Index(e) => Some(e),
            _ => None,
        }
    }
}

impl From<RamboError> for CatalogError {
    fn from(e: RamboError) -> Self {
        Self::Index(e)
    }
}

impl From<std::io::Error> for CatalogError {
    fn from(e: std::io::Error) -> Self {
        Self::Io(e)
    }
}

/// Description of one catalog tier (one fold-over version of the index).
#[derive(Debug, Clone, PartialEq)]
pub struct TierInfo {
    /// Position in the catalog: 0 is the unfolded (largest, most accurate)
    /// version; higher tiers are smaller and less accurate.
    pub tier: usize,
    /// How many times this version was folded from the base build.
    pub fold_factor: u32,
    /// Bucket count `B` of this version.
    pub buckets: u64,
    /// Byte offset of the serialized version inside the catalog buffer.
    pub offset: usize,
    /// Serialized length in bytes.
    pub encoded_len: usize,
    /// In-memory payload size ([`Rambo::size_bytes`]).
    pub size_bytes: usize,
    /// Predicted per-document query FPR ([`Rambo::predicted_fpr`]: §2.1 and
    /// Lemma 4.1 from **metadata only**, so opening a catalog never scans
    /// filter payloads). Strictly grows with the fold factor (folding
    /// doubles per-bucket keys and shrinks `B`); tier selection compares
    /// budgets to this.
    pub predicted_fpr: f64,
}

/// One tier: the opened index plus its description. Paged tiers also carry
/// the block-cache counters their payload faults are charged to.
#[derive(Debug)]
struct Tier {
    index: Rambo,
    info: TierInfo,
    block_counters: Option<Arc<BlockCacheCounters>>,
}

/// Where a catalog's tier payloads live.
#[derive(Debug)]
enum Source {
    /// One shared in-memory buffer; tiers borrow their payloads zero-copy.
    Buffer(Arc<[u8]>),
    /// A file on disk; dense tier payloads fault through the shared block
    /// cache on demand. The `Arc` is held only to pin the file (and its
    /// block cache) to the catalog's lifetime — every paged tier carries
    /// its own clone, so nothing reads this field directly.
    Paged(#[allow(dead_code)] Arc<PagedFile>),
}

/// An ordered set of fold-over versions of one index, sharing a single
/// backing buffer, with FPR-budget tier selection.
///
/// Tier 0 is the most accurate (lowest FPR, largest footprint); each
/// subsequent tier is a further-folded, strictly smaller version. A request
/// carrying an FPR budget is routed to the *smallest* tier whose predicted
/// FPR still satisfies the budget — loosening the budget frees memory
/// bandwidth, tightening it buys accuracy, exactly the trade Table 4
/// quantifies.
#[derive(Debug)]
pub struct Catalog {
    source: Source,
    tiers: Vec<Tier>,
}

impl Catalog {
    /// Start a [`CatalogBuilder`] — the one entry point behind every way of
    /// making a catalog (in-memory buffer, file-backed paged open, or folding
    /// a live [`Rambo`] — a tenant's [`freeze`](crate::TenantRegistry::freeze)
    /// included).
    ///
    /// ```
    /// use rambo_core::{Rambo, RamboParams};
    /// use rambo_server::Catalog;
    ///
    /// let mut index = Rambo::new(RamboParams::flat(16, 3, 1 << 12, 2, 7)).unwrap();
    /// for d in 0..24u64 {
    ///     index
    ///         .insert_document(&format!("doc{d}"), (0..40).map(|t| d << 16 | t))
    ///         .unwrap();
    /// }
    /// let catalog = Catalog::builder().base(&index).halving(1).build().unwrap();
    /// assert_eq!(catalog.len(), 2);
    /// ```
    #[must_use]
    pub fn builder<'a>() -> CatalogBuilder<'a> {
        CatalogBuilder::new()
    }

    /// Number of tiers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tiers.len()
    }

    /// Always false — the builder rejects sources that hold no tiers.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.tiers.is_empty()
    }

    /// The shared backing buffer (for persisting: write these bytes to disk
    /// and re-open them with [`CatalogBuilder::buffer`] or
    /// [`CatalogBuilder::file`]).
    ///
    /// # Panics
    /// Panics for a paged catalog — its payloads live in the file, not in
    /// memory; persist by copying the file.
    #[must_use]
    pub fn buffer(&self) -> &Arc<[u8]> {
        match &self.source {
            Source::Buffer(buf) => buf,
            Source::Paged(_) => panic!("paged catalogs have no in-memory buffer"),
        }
    }

    /// True when this catalog serves payloads from a file through the
    /// block cache ([`CatalogBuilder::file`]).
    #[must_use]
    pub fn is_paged(&self) -> bool {
        matches!(self.source, Source::Paged(_))
    }

    /// Block-cache traffic charged to one tier's payload faults, or `None`
    /// for tiers that serve from memory (buffer-backed catalogs, and
    /// RRR-compressed tiers of a paged catalog).
    ///
    /// # Panics
    /// Panics when `tier` is out of range.
    #[must_use]
    pub fn block_cache_stats(&self, tier: usize) -> Option<BlockCacheSnapshot> {
        self.tiers[tier]
            .block_counters
            .as_ref()
            .map(|c| c.snapshot())
    }

    /// A tier's index.
    ///
    /// # Panics
    /// Panics when `tier` is out of range.
    #[must_use]
    pub fn tier(&self, tier: usize) -> &Rambo {
        &self.tiers[tier].index
    }

    /// A tier's description.
    ///
    /// # Panics
    /// Panics when `tier` is out of range.
    #[must_use]
    pub fn info(&self, tier: usize) -> &TierInfo {
        &self.tiers[tier].info
    }

    /// Route an FPR budget to a tier: the **smallest** (highest-numbered)
    /// tier whose predicted FPR is at most `fpr_budget`. A budget tighter
    /// than every tier falls back to tier 0, the most accurate version —
    /// the server can not do better than its best index.
    #[must_use]
    pub fn select(&self, fpr_budget: f64) -> usize {
        self.tiers
            .iter()
            .rposition(|t| t.info.predicted_fpr <= fpr_budget)
            .unwrap_or(0)
    }
}

/// How a [`CatalogBuilder`] derives tier geometries from a live index.
#[derive(Debug, Clone)]
enum TierSpec {
    /// Explicit `(buckets, compression)` list.
    Explicit(Vec<(u64, TierCompression)>),
    /// `levels` halvings from the base geometry, all dense.
    Halving(u32),
}

/// Where a [`CatalogBuilder`]'s tiers come from.
#[derive(Debug)]
enum BuilderSource<'a> {
    /// An already-serialized catalog held in memory (tiers open zero-copy).
    Buffer(Arc<[u8]>),
    /// An already-serialized catalog file (tiers open paged through the
    /// block cache).
    File(PathBuf),
    /// A live index to fold per the tier spec.
    Base(&'a Rambo),
}

/// The one entry point for catalog construction: pick exactly one
/// **source**, optionally a **tier spec** (required for
/// live-index sources, rejected for serialized ones — those carry their tier
/// layout in-band), and for file sources a block-cache budget.
///
/// ```no_run
/// use rambo_server::Catalog;
///
/// let catalog = Catalog::builder()
///     .file("/data/genomes.cat")
///     .cache_bytes(128 << 20)
///     .build()?;
/// # Ok::<(), rambo_server::CatalogError>(())
/// ```
#[derive(Debug)]
pub struct CatalogBuilder<'a> {
    source: Option<BuilderSource<'a>>,
    tiers: Option<TierSpec>,
    cache_bytes: usize,
}

impl Default for CatalogBuilder<'_> {
    fn default() -> Self {
        Self::new()
    }
}

impl<'a> CatalogBuilder<'a> {
    /// Fresh builder: no source, no tier spec,
    /// [`DEFAULT_CACHE_BYTES`] of block cache for file sources.
    #[must_use]
    pub fn new() -> Self {
        Self {
            source: None,
            tiers: None,
            cache_bytes: DEFAULT_CACHE_BYTES,
        }
    }

    /// Source: an already-serialized catalog buffer (the
    /// [`Rambo::fold_catalog_bytes`] concatenation layout — typically a
    /// memory-mapped catalog file). Tiers open zero-copy, borrowing their
    /// payloads from `buf`.
    ///
    /// ```
    /// use rambo_core::{Rambo, RamboParams};
    /// use rambo_server::Catalog;
    /// use std::sync::Arc;
    ///
    /// let mut index = Rambo::new(RamboParams::flat(16, 3, 1 << 12, 2, 7)).unwrap();
    /// for d in 0..24u64 {
    ///     index
    ///         .insert_document(&format!("doc{d}"), (0..40).map(|t| d << 16 | t))
    ///         .unwrap();
    /// }
    /// // Serialize tiers B = 16 and B = 8 back-to-back, then re-open them
    /// // zero-copy from one shared buffer (persist `bytes` to make a file).
    /// let bytes: Arc<[u8]> = index.fold_catalog_bytes(&[16, 8]).unwrap().into();
    /// let catalog = Catalog::builder().buffer(bytes).build().unwrap();
    /// assert_eq!(catalog.len(), 2);
    /// assert_eq!(catalog.tier(0).buckets(), 16);
    /// assert!(catalog.info(1).predicted_fpr > catalog.info(0).predicted_fpr);
    /// ```
    #[must_use]
    pub fn buffer(mut self, buf: Arc<[u8]>) -> Self {
        self.source = Some(BuilderSource::Buffer(buf));
        self
    }

    /// Source: a serialized catalog file. Only metadata is read at build
    /// (each tier's prelude, assignment vectors and matrix headers), so open
    /// time is independent of how many gigabytes of filter payload the tiers
    /// hold; dense payloads stay on disk and fault in row-aligned blocks
    /// through one shared block cache sized by
    /// [`CatalogBuilder::cache_bytes`], per-tier traffic observable via
    /// [`Catalog::block_cache_stats`]. RRR-compressed tiers decode eagerly
    /// (they are small by construction) and serve from memory, uncached.
    #[must_use]
    pub fn file(mut self, path: impl Into<PathBuf>) -> Self {
        self.source = Some(BuilderSource::File(path.into()));
        self
    }

    /// Source: a live index to fold into tiers (a tier spec is required).
    #[must_use]
    pub fn base(mut self, base: &'a Rambo) -> Self {
        self.source = Some(BuilderSource::Base(base));
        self
    }

    /// Tier spec: explicit strictly-decreasing bucket counts, all dense.
    #[must_use]
    pub fn tier_buckets(mut self, buckets: &[u64]) -> Self {
        self.tiers = Some(TierSpec::Explicit(
            buckets
                .iter()
                .map(|&b| (b, TierCompression::Dense))
                .collect(),
        ));
        self
    }

    /// Tier spec: explicit bucket counts with per-tier compression.
    #[must_use]
    pub fn tiers(mut self, tiers: &[(u64, TierCompression)]) -> Self {
        self.tiers = Some(TierSpec::Explicit(tiers.to_vec()));
        self
    }

    /// Tier spec: `levels` halvings from the base geometry
    /// (`B, B/2, …, B/2^levels`), all dense.
    #[must_use]
    pub fn halving(mut self, levels: u32) -> Self {
        self.tiers = Some(TierSpec::Halving(levels));
        self
    }

    /// Block-cache budget (total bytes) for file sources. Ignored for other
    /// sources. Defaults to [`DEFAULT_CACHE_BYTES`].
    #[must_use]
    pub fn cache_bytes(mut self, bytes: usize) -> Self {
        self.cache_bytes = bytes;
        self
    }

    /// Build the catalog.
    ///
    /// # Errors
    /// [`CatalogError::MissingSource`] / [`CatalogError::MissingTiers`] /
    /// [`CatalogError::TiersWithSerializedSource`] on inconsistent builder
    /// state, and the underlying fold/decode/I-O failures otherwise.
    pub fn build(self) -> Result<Catalog, CatalogError> {
        let source = self.source.ok_or(CatalogError::MissingSource)?;
        let buf: Arc<[u8]> = match (source, self.tiers) {
            (BuilderSource::Buffer(_) | BuilderSource::File(_), Some(_)) => {
                return Err(CatalogError::TiersWithSerializedSource)
            }
            (BuilderSource::Buffer(buf), None) => buf,
            (BuilderSource::File(path), None) => return open_paged(&path, self.cache_bytes),
            (BuilderSource::Base(_), None) => return Err(CatalogError::MissingTiers),
            (BuilderSource::Base(base), Some(spec)) => fold_spec(base, &spec)?.into(),
        };
        let tiers = open_tiers(buf.len() as u64, |offset| {
            let (index, used) = Rambo::open_view_at(&buf, offset as usize)?;
            Ok((index, used as u64, None))
        })?;
        Ok(Catalog {
            source: Source::Buffer(buf),
            tiers,
        })
    }
}

/// Open a catalog file reading only metadata; see [`CatalogBuilder::file`].
fn open_paged(path: &Path, cache_bytes: usize) -> Result<Catalog, CatalogError> {
    let file = PagedFile::open(path, cache_bytes)?;
    let tiers = open_tiers(file.len(), |offset| {
        let counters = Arc::new(BlockCacheCounters::new());
        let (index, used) = Rambo::open_paged_at(&file, offset, &counters)?;
        // A tier that decoded eagerly (RRR) never touches the cache; only
        // paged tiers report counters.
        let counters = index.tables_paged().then_some(counters);
        Ok((index, used, counters))
    })?;
    Ok(Catalog {
        source: Source::Paged(file),
        tiers,
    })
}

/// One opened tier, its serialized length, and its block-cache counters.
type OpenedTier = (Rambo, u64, Option<Arc<BlockCacheCounters>>);

/// Walk `len` bytes of back-to-back serialized tiers with `open_at`, which
/// opens the tier starting at an offset. Tiers must strictly shrink in
/// bucket count (the FPR-routing rule depends on that order) and there must
/// be at least one.
fn open_tiers(
    len: u64,
    mut open_at: impl FnMut(u64) -> Result<OpenedTier, CatalogError>,
) -> Result<Vec<Tier>, CatalogError> {
    let mut tiers: Vec<Tier> = Vec::new();
    let mut offset = 0;
    while offset < len {
        let (index, used, block_counters) = open_at(offset)?;
        if let Some(prev) = tiers.last().filter(|p| index.buckets() >= p.info.buckets) {
            return Err(CatalogError::NotShrinking {
                tier: tiers.len(),
                buckets: index.buckets(),
                prev: prev.info.buckets,
            });
        }
        let info = tier_info(&index, tiers.len(), offset as usize, used as usize);
        tiers.push(Tier {
            index,
            info,
            block_counters,
        });
        offset += used;
    }
    if tiers.is_empty() {
        return Err(CatalogError::Empty);
    }
    Ok(tiers)
}

/// Serialize `base` folded per `spec` (the concatenated catalog layout).
fn fold_spec(base: &Rambo, spec: &TierSpec) -> Result<Vec<u8>, CatalogError> {
    let bytes = match spec {
        TierSpec::Explicit(tiers) => base.fold_catalog_bytes_with(tiers)?,
        TierSpec::Halving(levels) => {
            let tiers: Vec<u64> = (0..=*levels).map(|l| base.buckets() >> l).collect();
            base.fold_catalog_bytes(&tiers)?
        }
    };
    Ok(bytes)
}

/// Describe one opened tier, from its metadata only.
fn tier_info(index: &Rambo, tier: usize, offset: usize, encoded_len: usize) -> TierInfo {
    TierInfo {
        tier,
        fold_factor: index.fold_factor(),
        buckets: index.buckets(),
        offset,
        encoded_len,
        size_bytes: index.size_bytes(),
        predicted_fpr: index.predicted_fpr(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambo_core::RamboParams;

    fn build_base(buckets: u64, docs: usize, seed: u64) -> Rambo {
        let mut r = Rambo::new(RamboParams::flat(buckets, 3, 1 << 12, 2, seed)).unwrap();
        for d in 0..docs {
            let base = (d as u64) << 24;
            r.insert_document(&format!("doc{d}"), (0..60u64).map(|t| base | t))
                .unwrap();
        }
        r
    }

    fn halving(base: &Rambo, levels: u32) -> Catalog {
        Catalog::builder()
            .base(base)
            .halving(levels)
            .build()
            .unwrap()
    }

    fn open(buf: impl Into<Arc<[u8]>>) -> Result<Catalog, CatalogError> {
        Catalog::builder().buffer(buf.into()).build()
    }

    fn open_paged(path: &Path) -> Catalog {
        Catalog::builder()
            .file(path)
            .cache_bytes(1 << 20)
            .build()
            .unwrap()
    }

    #[test]
    fn tiers_shrink_and_fpr_grows() {
        // Buckets must stay above word granularity (64 columns per matrix
        // row) for folding to actually narrow the rows.
        let base = build_base(256, 120, 1);
        let cat = halving(&base, 2);
        assert_eq!(cat.len(), 3);
        let infos: Vec<&TierInfo> = (0..cat.len()).map(|t| cat.info(t)).collect();
        for w in infos.windows(2) {
            assert!(w[1].size_bytes < w[0].size_bytes, "tiers must shrink");
            assert!(w[1].encoded_len < w[0].encoded_len);
            assert!(
                w[1].predicted_fpr > w[0].predicted_fpr,
                "folding must raise predicted FPR"
            );
        }
        assert_eq!(infos[0].buckets, 256);
        assert_eq!(infos[2].buckets, 64);
        assert_eq!(infos[2].fold_factor, 2);
        // Every tier is a zero-copy view of the shared buffer.
        for t in 0..cat.len() {
            assert!(cat.tier(t).payload_borrows(cat.buffer()));
        }
    }

    #[test]
    fn loosening_the_budget_selects_strictly_smaller_tiers() {
        let base = build_base(256, 120, 2);
        let cat = halving(&base, 2);
        let infos: Vec<&TierInfo> = (0..cat.len()).map(|t| cat.info(t)).collect();
        // A budget exactly at a tier's predicted FPR admits that tier.
        for info in &infos {
            assert_eq!(cat.select(info.predicted_fpr), info.tier);
        }
        // Budgets between consecutive tiers' FPRs pick the larger tier;
        // crossing a tier's FPR strictly shrinks the selected size.
        let tight = cat.select(infos[0].predicted_fpr);
        let loose = cat.select(infos[1].predicted_fpr);
        let loosest = cat.select(1.0);
        assert!(loose > tight);
        assert!(loosest > loose || loosest == cat.len() - 1);
        assert!(cat.info(loose).size_bytes < cat.info(tight).size_bytes);
        // Impossible budget → most accurate tier.
        assert_eq!(cat.select(0.0), 0);
        assert_eq!(cat.select(infos[0].predicted_fpr / 2.0), 0);
    }

    #[test]
    fn open_roundtrips_the_buffer() {
        let base = build_base(16, 40, 3);
        let cat = halving(&base, 1);
        let reopened = open(cat.buffer().clone()).unwrap();
        assert_eq!(reopened.len(), cat.len());
        for t in 0..cat.len() {
            assert_eq!(reopened.tier(t), cat.tier(t));
            assert_eq!(reopened.info(t), cat.info(t));
        }
    }

    #[test]
    fn every_tier_answers_queries_without_false_negatives() {
        let base = build_base(32, 60, 4);
        let cat = halving(&base, 2);
        for t in 0..cat.len() {
            for d in [0usize, 17, 59] {
                let term = ((d as u64) << 24) | 5;
                assert!(
                    cat.tier(t).query_u64(term).contains(&(d as u32)),
                    "tier {t} lost doc {d}"
                );
            }
        }
    }

    fn temp_catalog_path(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("rambo-catalog-{tag}-{}.cat", std::process::id()))
    }

    #[test]
    fn open_paged_matches_buffer_catalog() {
        let base = build_base(256, 120, 6);
        let cat = halving(&base, 2);
        let path = temp_catalog_path("paged");
        std::fs::write(&path, cat.buffer()).unwrap();
        let paged = open_paged(&path);
        assert!(paged.is_paged());
        assert_eq!(paged.len(), cat.len());
        for t in 0..cat.len() {
            assert_eq!(paged.info(t), cat.info(t), "tier {t} info");
            // Nothing faulted at open.
            assert_eq!(paged.block_cache_stats(t).unwrap().misses, 0);
        }
        // Queries answer identically and fault blocks as they go.
        for d in [0usize, 33, 119] {
            let term = ((d as u64) << 24) | 7;
            for t in 0..cat.len() {
                assert_eq!(
                    paged.tier(t).query_u64(term),
                    cat.tier(t).query_u64(term),
                    "tier {t} doc {d}"
                );
            }
        }
        assert!(paged.block_cache_stats(0).unwrap().misses > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn paged_catalog_with_compressed_cold_tier() {
        let base = build_base(256, 120, 7);
        let bytes = base
            .fold_catalog_bytes_with(&[(256, TierCompression::Rrr), (64, TierCompression::Dense)])
            .unwrap();
        let path = temp_catalog_path("mixed");
        std::fs::write(&path, &bytes).unwrap();
        let paged = open_paged(&path);
        assert_eq!(paged.len(), 2);
        // RRR tier decoded eagerly → no block counters; dense tier paged.
        assert!(paged.tier(0).is_compressed());
        assert!(paged.block_cache_stats(0).is_none());
        assert!(paged.tier(1).tables_paged());
        assert!(paged.block_cache_stats(1).is_some());
        let buffered = open(bytes).unwrap();
        for d in [3usize, 77] {
            let term = ((d as u64) << 24) | 2;
            for t in 0..2 {
                assert_eq!(
                    paged.tier(t).query_u64(term),
                    buffered.tier(t).query_u64(term)
                );
            }
        }
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn tiers_spec_compresses_requested_tiers() {
        let base = build_base(256, 120, 8);
        let cat = Catalog::builder()
            .base(&base)
            .tiers(&[(256, TierCompression::Rrr), (64, TierCompression::Dense)])
            .build()
            .unwrap();
        assert!(cat.tier(0).is_compressed());
        assert!(!cat.tier(1).is_compressed());
        let dense = Catalog::builder()
            .base(&base)
            .tier_buckets(&[256, 64])
            .build()
            .unwrap();
        assert!(
            cat.info(0).encoded_len < dense.info(0).encoded_len,
            "compressed tier must encode smaller"
        );
        assert_eq!(cat.info(1).encoded_len, dense.info(1).encoded_len);
    }

    #[test]
    fn rejects_malformed_catalogs() {
        assert!(matches!(open(Vec::new()), Err(CatalogError::Empty)));
        let base = build_base(16, 20, 5);
        let mut bytes = base.to_bytes().unwrap();
        let good_len = bytes.len();
        bytes.extend(base.to_bytes().unwrap()); // equal buckets: not shrinking
        assert!(matches!(
            open(bytes.clone()),
            Err(CatalogError::NotShrinking { tier: 1, .. })
        ));
        bytes.truncate(good_len + 10); // trailing garbage
        assert!(open(bytes).is_err());
    }
}
