//! Multi-tenant registry: many named live indexes in one process, with
//! per-tenant admission quotas and byte budgets.
//!
//! The paper pitches RAMBO as a general sub-linear multiple-set-membership
//! service, not a single-index appliance. [`TenantRegistry`] is that
//! service's core: it owns any number of **named** mutable indexes (each a
//! [`GenerationalIndex`] behind an `RwLock` and a [`ResultCache`]), created
//! and dropped at runtime, each with its own memtable FPR budget, document
//! quota and index byte budget. A single live index is a registry with one
//! tenant.
//!
//! Per tenant, **inserts** take the write lock briefly — the memtable is
//! small by construction (it seals at the FPR budget), so even an insert that
//! triggers a seal serializes only the memtable. **Queries** take the read
//! lock and OR-fold answers across memtable + generations — bit-identical to
//! a monolithic rebuild, so a reader never observes a half-merged state.
//! Every insert bumps the tenant's result-cache version (a new document can
//! match any cached query); merge installs do not, being answer-preserving.
//!
//! **Quotas are enforced at admission**, mirroring the bounded-admission
//! layer of the catalog server: an insert that would exceed the tenant's
//! document quota or arrives after the index has filled its byte budget is
//! rejected *before* touching the index, with a typed
//! [`TenantError`] the protocol fronts map to an in-band error reply
//! (`-ERR quota exceeded …` on the RESP front). Rejections are counted per
//! tenant ([`TenantStats::quota_rejections`]).
//!
//! **Isolation** is structural: tenants share no index state — each has its
//! own `GenerationalIndex`, its own [`ResultCache`] and its own latency
//! histograms — so one tenant's answers are bit-identical to a
//! single-index process holding only that tenant's documents (property
//! tested in `tests/tenant_prop.rs`). Dropping a tenant drops its cache
//! with it; a recreated tenant of the same name starts from a fresh cache
//! and a fresh creation stamp, so a drop/create cycle can never serve a
//! stale cached answer.
//!
//! Merging is cooperative: inserts seal over-budget memtables inline, and
//! [`TenantRegistry::maintain_once`] runs at most one pending generation
//! merge — planned under a read lock, folded off-lock, installed under a
//! brief write lock that validates the plan is still current, so writers and
//! readers proceed during the fold. The serving reactor
//! ([`crate::serve_tenant_tcp`]) calls it whenever a turn has no I/O to do,
//! so merge work rides the serving thread's idle gaps; an in-process caller
//! that wants background merging loops it on a thread of its own.

use crate::cache::{CacheStats, ResultCache};
use rambo_core::{
    canonical_query_key, multiset_query_key, DocId, GenerationConfig, GenerationalIndex,
    QueryContext, QueryMode, Rambo, RamboError, RamboParams,
};
use rambo_hash::mix64;
use rambo_workloads::stats::LatencyHistogram;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Cap on pooled query scratch contexts shared by all tenants.
const CTX_POOL_CAP: usize = 16;

/// Registry-wide and per-tenant admission limits. Every limit is enforced
/// *at admission* — a rejected request never touches the index.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuotas {
    /// Maximum live tenants; `R.CREATE`/`BF.RESERVE` beyond it is rejected.
    pub max_tenants: usize,
    /// Default per-tenant document cap (overridable per tenant at create).
    pub max_docs: usize,
    /// Default per-tenant index byte budget (overridable per tenant at
    /// create): once [`GenerationalIndex::size_bytes`] reaches it, further
    /// inserts are rejected. The budget bounds *admission*, so the index
    /// can overshoot by at most the in-flight memtable.
    pub max_bytes: usize,
    /// Largest accepted term set per document insert.
    pub max_terms_per_doc: usize,
    /// Per-tenant result-cache byte budget; `0` disables caching.
    pub cache_bytes: usize,
}

impl Default for TenantQuotas {
    fn default() -> Self {
        Self {
            max_tenants: 64,
            max_docs: 1 << 20,
            max_bytes: 256 << 20,
            max_terms_per_doc: 1 << 16,
            cache_bytes: 1 << 20,
        }
    }
}

/// What flavor of index a tenant serves — only a display/bookkeeping tag;
/// both kinds share the same engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TenantKind {
    /// A full RAMBO index created via `R.CREATE`.
    Rambo,
    /// A degenerate single-repetition index backing the `BF.*` compatibility
    /// verbs (each item is its own single-term document).
    Bloom,
}

impl fmt::Display for TenantKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Rambo => write!(f, "rambo"),
            Self::Bloom => write!(f, "bloom"),
        }
    }
}

/// Per-tenant creation options ([`TenantRegistry::create`]).
#[derive(Debug, Clone)]
pub struct TenantOptions {
    /// Memtable seal budget (the generational index seals when its
    /// metadata-predicted FPR exceeds this). Must lie in `(0, 1]`.
    pub fpr: f64,
    /// Index geometry override; `None` uses the registry's base params.
    pub params: Option<RamboParams>,
    /// Document-quota override; `None` uses [`TenantQuotas::max_docs`].
    pub max_docs: Option<usize>,
    /// Byte-budget override; `None` uses [`TenantQuotas::max_bytes`].
    pub max_bytes: Option<usize>,
    /// Generation-cap override (`R.CREATE … tiers=N`): the LSM tier count
    /// beyond which adjacent generations merge eagerly.
    pub max_generations: Option<usize>,
    /// Display/bookkeeping kind tag.
    pub kind: TenantKind,
}

impl Default for TenantOptions {
    fn default() -> Self {
        Self {
            fpr: 0.01,
            params: None,
            max_docs: None,
            max_bytes: None,
            max_generations: None,
            kind: TenantKind::Rambo,
        }
    }
}

/// Typed failure of a registry operation. The protocol fronts map each
/// variant onto one entry of the wire error taxonomy.
#[derive(Debug)]
pub enum TenantError {
    /// No tenant with this name is live.
    UnknownTenant(String),
    /// A tenant with this name already exists.
    DuplicateTenant(String),
    /// A tenant name failed validation (empty, too long, or non-graphic
    /// ASCII — names travel on the inline text protocol, so they must not
    /// contain whitespace or control bytes).
    BadName(String),
    /// The registry is at its live-tenant cap.
    TenantQuota {
        /// The configured [`TenantQuotas::max_tenants`].
        limit: usize,
    },
    /// The tenant is at its document cap.
    DocQuota {
        /// The tenant's document cap.
        limit: usize,
    },
    /// The tenant's index has filled its byte budget.
    ByteQuota {
        /// The tenant's byte budget.
        limit: usize,
    },
    /// The insert's term set exceeds [`TenantQuotas::max_terms_per_doc`].
    TermQuota {
        /// The configured per-document term cap.
        limit: usize,
    },
    /// The underlying index refused (duplicate document, bad parameters).
    Index(RamboError),
}

impl TenantError {
    /// Whether this error is an admission-quota rejection (vs a lookup or
    /// index failure) — the RESP front prefixes these `quota exceeded`.
    #[must_use]
    pub fn is_quota(&self) -> bool {
        matches!(
            self,
            Self::TenantQuota { .. }
                | Self::DocQuota { .. }
                | Self::ByteQuota { .. }
                | Self::TermQuota { .. }
        )
    }
}

impl fmt::Display for TenantError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::UnknownTenant(name) => write!(f, "no such tenant '{name}'"),
            Self::DuplicateTenant(name) => write!(f, "tenant '{name}' already exists"),
            Self::BadName(name) => write!(
                f,
                "invalid tenant name '{name}' (want 1..=128 graphic ASCII chars)"
            ),
            Self::TenantQuota { limit } => {
                write!(f, "quota exceeded: registry holds {limit} tenants")
            }
            Self::DocQuota { limit } => {
                write!(f, "quota exceeded: tenant at its document cap ({limit})")
            }
            Self::ByteQuota { limit } => {
                write!(f, "quota exceeded: tenant filled its byte budget ({limit})")
            }
            Self::TermQuota { limit } => {
                write!(f, "quota exceeded: term set larger than {limit}")
            }
            Self::Index(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for TenantError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            Self::Index(e) => Some(e),
            _ => None,
        }
    }
}

/// One live tenant: its index, cache, limits and counters.
pub(crate) struct TenantState {
    pub(crate) name: String,
    kind: TenantKind,
    pub(crate) index: RwLock<GenerationalIndex>,
    cache: Option<ResultCache>,
    max_docs: usize,
    max_bytes: usize,
    /// Registry-wide creation stamp: strictly increasing across every
    /// create, so a drop/recreate cycle is observable (and a recreated
    /// tenant can never be confused with its previous incarnation).
    created: u64,
    inserts: AtomicU64,
    queries: AtomicU64,
    quota_rejections: AtomicU64,
    read_latency: LatencyHistogram,
    write_latency: LatencyHistogram,
}

/// Point-in-time counters and shape of one tenant
/// ([`TenantRegistry::stats`], [`TenantRegistry::list`]).
#[derive(Debug, Clone)]
pub struct TenantStats {
    /// Tenant name.
    pub name: String,
    /// Index flavor tag.
    pub kind: TenantKind,
    /// Registry-wide creation stamp (strictly increasing across creates).
    pub created: u64,
    /// Documents indexed.
    pub documents: usize,
    /// Live immutable generations.
    pub generations: usize,
    /// Documents in the mutable memtable.
    pub memtable_documents: usize,
    /// Structural epoch of the index.
    pub epoch: u64,
    /// Current index payload size.
    pub size_bytes: usize,
    /// The tenant's byte budget.
    pub max_bytes: usize,
    /// Documents inserted.
    pub inserts: u64,
    /// Queries answered (cache hits included).
    pub queries: u64,
    /// Admission rejections (document/byte/term quota).
    pub quota_rejections: u64,
    /// Read-path p50.
    pub read_p50: Duration,
    /// Read-path p99.
    pub read_p99: Duration,
    /// Write-path p99.
    pub write_p99: Duration,
    /// Result-cache counters, when caching is enabled.
    pub cache: Option<CacheStats>,
}

impl fmt::Display for TenantStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "tenant '{}' [{}]: {} docs ({} generations + {} memtable), epoch {}, {} bytes",
            self.name,
            self.kind,
            self.documents,
            self.generations,
            self.memtable_documents,
            self.epoch,
            self.size_bytes,
        )?;
        writeln!(
            f,
            "  inserts {}, queries {}, quota rejections {}",
            self.inserts, self.queries, self.quota_rejections
        )?;
        writeln!(
            f,
            "  read p50 {}us p99 {}us, write p99 {}us",
            self.read_p50.as_micros(),
            self.read_p99.as_micros(),
            self.write_p99.as_micros(),
        )?;
        if let Some(cache) = &self.cache {
            writeln!(
                f,
                "  cache: hits {} misses {} version {}",
                cache.counters.hits, cache.counters.misses, cache.version
            )?;
        }
        Ok(())
    }
}

/// The registry: many named live indexes behind one handle. `Sync` — share
/// by reference between the serving reactor and in-process callers.
pub struct TenantRegistry {
    tenants: RwLock<HashMap<String, Arc<TenantState>>>,
    quotas: TenantQuotas,
    params: RamboParams,
    default_mode: QueryMode,
    /// Creation-stamp source; also the "tenants ever created" counter.
    creations: AtomicU64,
    drops: AtomicU64,
    /// `R.CREATE`/`BF.RESERVE` rejections at the registry tenant cap.
    tenant_quota_rejections: AtomicU64,
    ctx_pool: Mutex<Vec<QueryContext>>,
}

impl TenantRegistry {
    /// Create an empty registry. `params` is the default geometry for
    /// tenants created without an explicit override.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] when `params` is degenerate.
    pub fn new(params: RamboParams, quotas: TenantQuotas) -> Result<Self, RamboError> {
        params.validate()?;
        Ok(Self {
            tenants: RwLock::new(HashMap::new()),
            quotas,
            params,
            default_mode: QueryMode::Full,
            creations: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            tenant_quota_rejections: AtomicU64::new(0),
            ctx_pool: Mutex::new(Vec::new()),
        })
    }

    /// The registry's quota configuration.
    #[must_use]
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
    }

    /// The default index geometry for created tenants.
    #[must_use]
    pub fn base_params(&self) -> &RamboParams {
        &self.params
    }

    /// Number of live tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.read().expect("tenant map").len()
    }

    /// Whether no tenants are live.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a tenant with this name is live.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.tenants.read().expect("tenant map").contains_key(name)
    }

    fn get(&self, name: &str) -> Result<Arc<TenantState>, TenantError> {
        self.tenants
            .read()
            .expect("tenant map")
            .get(name)
            .cloned()
            .ok_or_else(|| TenantError::UnknownTenant(name.to_owned()))
    }

    /// Create a named tenant.
    ///
    /// # Errors
    /// [`TenantError::BadName`], [`TenantError::DuplicateTenant`],
    /// [`TenantError::TenantQuota`] at the live-tenant cap, and
    /// [`TenantError::Index`] when the FPR budget or geometry is invalid.
    pub fn create(&self, name: &str, opts: TenantOptions) -> Result<(), TenantError> {
        validate_name(name)?;
        let params = opts.params.unwrap_or(self.params);
        let mut config = GenerationConfig {
            memtable_fpr_budget: opts.fpr,
            ..GenerationConfig::default()
        };
        if let Some(tiers) = opts.max_generations {
            config.max_generations = tiers;
        }
        let index = GenerationalIndex::new(params, config).map_err(TenantError::Index)?;
        let mut map = self.tenants.write().expect("tenant map");
        if map.contains_key(name) {
            return Err(TenantError::DuplicateTenant(name.to_owned()));
        }
        if map.len() >= self.quotas.max_tenants {
            self.tenant_quota_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(TenantError::TenantQuota {
                limit: self.quotas.max_tenants,
            });
        }
        let created = self.creations.fetch_add(1, Ordering::Relaxed) + 1;
        map.insert(
            name.to_owned(),
            Arc::new(TenantState {
                name: name.to_owned(),
                kind: opts.kind,
                index: RwLock::new(index),
                cache: (self.quotas.cache_bytes > 0)
                    .then(|| ResultCache::new(self.quotas.cache_bytes)),
                max_docs: opts.max_docs.unwrap_or(self.quotas.max_docs),
                max_bytes: opts.max_bytes.unwrap_or(self.quotas.max_bytes),
                created,
                inserts: AtomicU64::new(0),
                queries: AtomicU64::new(0),
                quota_rejections: AtomicU64::new(0),
                read_latency: LatencyHistogram::new(),
                write_latency: LatencyHistogram::new(),
            }),
        );
        Ok(())
    }

    /// Drop a tenant, releasing its index and result cache. Returns whether
    /// the name was live. A subsequent [`TenantRegistry::create`] of the
    /// same name starts from an empty index, a fresh cache and a new
    /// creation stamp — nothing of the dropped incarnation can leak into
    /// answers.
    pub fn drop_tenant(&self, name: &str) -> bool {
        let removed = self
            .tenants
            .write()
            .expect("tenant map")
            .remove(name)
            .is_some();
        if removed {
            self.drops.fetch_add(1, Ordering::Relaxed);
        }
        removed
    }

    /// Insert a document into a tenant, returning its tenant-local id.
    /// Quotas (term cap, document cap, byte budget) are checked at
    /// admission, before the index is touched; rejections are counted in
    /// the tenant's [`TenantStats::quota_rejections`].
    ///
    /// # Errors
    /// [`TenantError::UnknownTenant`], the quota variants, and
    /// [`TenantError::Index`] for duplicate document names.
    pub fn insert_document(
        &self,
        tenant: &str,
        doc: &str,
        terms: &[u64],
    ) -> Result<DocId, TenantError> {
        let t = self.get(tenant)?;
        let start = Instant::now();
        if terms.len() > self.quotas.max_terms_per_doc {
            t.quota_rejections.fetch_add(1, Ordering::Relaxed);
            return Err(TenantError::TermQuota {
                limit: self.quotas.max_terms_per_doc,
            });
        }
        let id = {
            let mut index = t.index.write().expect("tenant index");
            if index.num_documents() >= t.max_docs {
                drop(index);
                t.quota_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(TenantError::DocQuota { limit: t.max_docs });
            }
            if index.size_bytes() >= t.max_bytes {
                drop(index);
                t.quota_rejections.fetch_add(1, Ordering::Relaxed);
                return Err(TenantError::ByteQuota { limit: t.max_bytes });
            }
            index
                .insert_document(doc, terms)
                .map_err(TenantError::Index)?
        };
        t.inserts.fetch_add(1, Ordering::Relaxed);
        if let Some(cache) = &t.cache {
            // A new document can match any cached query of this tenant.
            cache.bump_version();
        }
        t.write_latency.record(start.elapsed());
        Ok(id)
    }

    /// Multi-term AND query against one tenant (bit-identical to a
    /// single-index process holding only this tenant's documents), through
    /// the tenant's result cache. `None` mode uses the registry default.
    ///
    /// # Errors
    /// [`TenantError::UnknownTenant`].
    pub fn query(
        &self,
        tenant: &str,
        terms: &[u64],
        mode: Option<QueryMode>,
    ) -> Result<Vec<DocId>, TenantError> {
        self.query_inner(tenant, terms, None, mode)
    }

    /// θ-fraction sequence query against one tenant (documents matching at
    /// least `theta · terms.len()` query terms), through the tenant's
    /// result cache.
    ///
    /// # Errors
    /// [`TenantError::UnknownTenant`].
    ///
    /// # Panics
    /// Panics unless `0 < theta ≤ 1` (the RESP front validates before
    /// calling).
    pub fn query_theta(
        &self,
        tenant: &str,
        terms: &[u64],
        theta: f64,
        mode: Option<QueryMode>,
    ) -> Result<Vec<DocId>, TenantError> {
        assert!(theta > 0.0 && theta <= 1.0, "theta must be in (0, 1]");
        self.query_inner(tenant, terms, Some(theta), mode)
    }

    fn query_inner(
        &self,
        tenant: &str,
        terms: &[u64],
        theta: Option<f64>,
        mode: Option<QueryMode>,
    ) -> Result<Vec<DocId>, TenantError> {
        let t = self.get(tenant)?;
        let start = Instant::now();
        let mode = mode.unwrap_or(self.default_mode);
        let mode_lane = match mode {
            QueryMode::Full => 0u32,
            QueryMode::Sparse => 1,
        };
        // θ queries live in their own cache lanes with the threshold mixed
        // into the key: the same terms at a different θ are a different
        // answer. θ counts a repeated term once per occurrence, so its key
        // keeps multiplicity; AND queries are set-valued.
        let (lane, key) = match theta {
            None => (mode_lane, canonical_query_key(terms)),
            Some(th) => (2 + mode_lane, multiset_query_key(terms) ^ theta_salt(th)),
        };
        let mut version = 0;
        if let Some(cache) = &t.cache {
            version = cache.version();
            if let Some(docs) = cache.get(lane, key, version) {
                t.queries.fetch_add(1, Ordering::Relaxed);
                t.read_latency.record(start.elapsed());
                return Ok(docs);
            }
            cache.record_miss();
        }
        let mut ctx = self
            .ctx_pool
            .lock()
            .expect("ctx pool")
            .pop()
            .unwrap_or_default();
        let docs = {
            let index = t.index.read().expect("tenant index");
            match theta {
                None => index.query_terms_with(terms, mode, &mut ctx),
                Some(th) => index.query_sequence_theta_with(terms, th, mode, &mut ctx),
            }
        };
        {
            let mut pool = self.ctx_pool.lock().expect("ctx pool");
            if pool.len() < CTX_POOL_CAP {
                pool.push(ctx);
            }
        }
        if let Some(cache) = &t.cache {
            // Keyed to the version read before evaluation: an insert that
            // raced this query bumped the version, so the entry can never
            // mask the new document.
            cache.insert(lane, key, version, &docs);
        }
        t.queries.fetch_add(1, Ordering::Relaxed);
        t.read_latency.record(start.elapsed());
        Ok(docs)
    }

    /// Resolve tenant-local document ids (as returned by the query methods)
    /// to document names.
    ///
    /// # Errors
    /// [`TenantError::UnknownTenant`].
    ///
    /// # Panics
    /// Panics on an id the tenant never issued.
    pub fn resolve_names(&self, tenant: &str, ids: &[DocId]) -> Result<Vec<String>, TenantError> {
        let t = self.get(tenant)?;
        let index = t.index.read().expect("tenant index");
        Ok(ids
            .iter()
            .map(|&d| index.document_name(d).to_owned())
            .collect())
    }

    /// Collapse a tenant's live index into one monolithic [`Rambo`] snapshot
    /// (bit-identical to a from-scratch build over the same documents) — the
    /// bridge back to the batch pipeline: feed the result to
    /// [`Catalog::builder`](crate::Catalog::builder) via
    /// [`CatalogBuilder::base`](crate::CatalogBuilder::base) to freeze the
    /// accumulated documents into fold-over serving tiers.
    ///
    /// # Errors
    /// [`TenantError::UnknownTenant`]; merge failures as
    /// [`TenantError::Index`].
    pub fn freeze(&self, tenant: &str) -> Result<Rambo, TenantError> {
        let t = self.get(tenant)?;
        let index = t.index.read().expect("tenant index");
        index.to_monolithic().map_err(TenantError::Index)
    }

    /// Point-in-time stats for one tenant.
    ///
    /// # Errors
    /// [`TenantError::UnknownTenant`].
    pub fn stats(&self, tenant: &str) -> Result<TenantStats, TenantError> {
        self.get(tenant).map(|t| snapshot(&t))
    }

    /// Stats for every live tenant, sorted by name.
    #[must_use]
    pub fn list(&self) -> Vec<TenantStats> {
        let mut all: Vec<TenantStats> = self
            .tenants
            .read()
            .expect("tenant map")
            .values()
            .map(|t| snapshot(t))
            .collect();
        all.sort_by(|a, b| a.name.cmp(&b.name));
        all
    }

    /// Registry-level counters: tenants ever created, dropped, and
    /// creations rejected at the tenant cap.
    #[must_use]
    pub fn registry_counters(&self) -> (u64, u64, u64) {
        (
            self.creations.load(Ordering::Relaxed),
            self.drops.load(Ordering::Relaxed),
            self.tenant_quota_rejections.load(Ordering::Relaxed),
        )
    }

    /// Plain-text summary of the registry and every tenant — the payload of
    /// the binary front's `STATS` frame and of `R.STATS` without a tenant
    /// argument.
    #[must_use]
    pub fn summary(&self) -> String {
        use fmt::Write;
        let (created, dropped, rejected) = self.registry_counters();
        let all = self.list();
        let mut out = String::new();
        let _ = writeln!(
            out,
            "tenants: {} live ({} created, {} dropped, {} create-rejections)",
            all.len(),
            created,
            dropped,
            rejected,
        );
        for stats in &all {
            let _ = write!(out, "{stats}");
        }
        out
    }

    /// Run at most one pending generation merge across all tenants: plan
    /// under a read lock, OR-fold off-lock, install under a brief validated
    /// write lock. Returns whether a merge was installed — callers (the
    /// serving reactor's idle path, tests, benches) loop while it returns
    /// `true` to quiesce. Merges are answer-preserving, so no cache bump.
    pub fn maintain_once(&self) -> bool {
        let tenants: Vec<Arc<TenantState>> = self
            .tenants
            .read()
            .expect("tenant map")
            .values()
            .cloned()
            .collect();
        for t in tenants {
            let job = {
                let index = t.index.read().expect("tenant index");
                index.merge_job()
            };
            let Some(job) = job else { continue };
            let Ok(merged) = job.run() else { continue };
            if t.index
                .write()
                .expect("tenant index")
                .install_merged(&job, merged)
            {
                return true;
            }
        }
        false
    }

    /// Run merges until every tenant's tiers are quiescent.
    pub fn drain_maintenance(&self) {
        while self.maintain_once() {}
    }
}

fn snapshot(t: &TenantState) -> TenantStats {
    let (documents, generations, memtable_documents, epoch, size_bytes) = {
        let index = t.index.read().expect("tenant index");
        (
            index.num_documents(),
            index.num_generations(),
            index.memtable_documents(),
            index.epoch(),
            index.size_bytes(),
        )
    };
    TenantStats {
        name: t.name.clone(),
        kind: t.kind,
        created: t.created,
        documents,
        generations,
        memtable_documents,
        epoch,
        size_bytes,
        max_bytes: t.max_bytes,
        inserts: t.inserts.load(Ordering::Relaxed),
        queries: t.queries.load(Ordering::Relaxed),
        quota_rejections: t.quota_rejections.load(Ordering::Relaxed),
        read_p50: t.read_latency.quantile(0.50),
        read_p99: t.read_latency.quantile(0.99),
        write_p99: t.write_latency.quantile(0.99),
        cache: t.cache.as_ref().map(ResultCache::stats),
    }
}

/// Tenant names travel on the inline text protocol: 1..=128 graphic ASCII
/// characters (no whitespace, no control bytes).
fn validate_name(name: &str) -> Result<(), TenantError> {
    if name.is_empty() || name.len() > 128 || !name.bytes().all(|b| b.is_ascii_graphic()) {
        return Err(TenantError::BadName(name.to_owned()));
    }
    Ok(())
}

/// Mix a θ threshold into a 128-bit cache key so the same term set at a
/// different θ occupies a different cache slot.
fn theta_salt(theta: f64) -> u128 {
    let bits = theta.to_bits();
    (u128::from(mix64(bits)) << 64) | u128::from(mix64(bits ^ 0xA076_1D64_78BD_642F))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn params() -> RamboParams {
        RamboParams::flat(8, 3, 1 << 10, 2, 7)
    }

    fn registry() -> TenantRegistry {
        TenantRegistry::new(params(), TenantQuotas::default()).unwrap()
    }

    #[test]
    fn create_insert_query_drop_roundtrip() {
        let reg = registry();
        reg.create("a", TenantOptions::default()).unwrap();
        assert_eq!(reg.insert_document("a", "d0", &[1, 2, 3]).unwrap(), 0);
        assert_eq!(reg.query("a", &[2], None).unwrap(), vec![0]);
        assert_eq!(reg.resolve_names("a", &[0]).unwrap(), vec!["d0"]);
        assert!(reg.drop_tenant("a"));
        assert!(!reg.drop_tenant("a"));
        assert!(matches!(
            reg.query("a", &[2], None),
            Err(TenantError::UnknownTenant(_))
        ));
    }

    #[test]
    fn tenants_are_isolated() {
        let reg = registry();
        reg.create("a", TenantOptions::default()).unwrap();
        reg.create("b", TenantOptions::default()).unwrap();
        reg.insert_document("a", "d", &[10, 11]).unwrap();
        reg.insert_document("b", "d", &[20, 21]).unwrap();
        assert_eq!(reg.query("a", &[10], None).unwrap(), vec![0]);
        assert!(reg.query("b", &[10], None).unwrap().is_empty());
    }

    #[test]
    fn duplicate_and_bad_names_are_rejected() {
        let reg = registry();
        reg.create("a", TenantOptions::default()).unwrap();
        assert!(matches!(
            reg.create("a", TenantOptions::default()),
            Err(TenantError::DuplicateTenant(_))
        ));
        for bad in ["", "has space", "ctrl\x07", &"x".repeat(129)] {
            assert!(
                matches!(
                    reg.create(bad, TenantOptions::default()),
                    Err(TenantError::BadName(_))
                ),
                "name {bad:?} must be rejected"
            );
        }
    }

    #[test]
    fn tenant_cap_is_enforced() {
        let quotas = TenantQuotas {
            max_tenants: 2,
            ..TenantQuotas::default()
        };
        let reg = TenantRegistry::new(params(), quotas).unwrap();
        reg.create("a", TenantOptions::default()).unwrap();
        reg.create("b", TenantOptions::default()).unwrap();
        assert!(matches!(
            reg.create("c", TenantOptions::default()),
            Err(TenantError::TenantQuota { limit: 2 })
        ));
        // Dropping frees a slot.
        assert!(reg.drop_tenant("a"));
        reg.create("c", TenantOptions::default()).unwrap();
        assert_eq!(reg.registry_counters().2, 1);
    }

    #[test]
    fn document_and_term_quotas_are_enforced_and_counted() {
        let quotas = TenantQuotas {
            max_docs: 2,
            max_terms_per_doc: 4,
            ..TenantQuotas::default()
        };
        let reg = TenantRegistry::new(params(), quotas).unwrap();
        reg.create("a", TenantOptions::default()).unwrap();
        reg.insert_document("a", "d0", &[1]).unwrap();
        assert!(matches!(
            reg.insert_document("a", "big", &[1, 2, 3, 4, 5]),
            Err(TenantError::TermQuota { limit: 4 })
        ));
        reg.insert_document("a", "d1", &[2]).unwrap();
        assert!(matches!(
            reg.insert_document("a", "d2", &[3]),
            Err(TenantError::DocQuota { limit: 2 })
        ));
        let stats = reg.stats("a").unwrap();
        assert_eq!(stats.quota_rejections, 2);
        assert_eq!(stats.documents, 2);
    }

    #[test]
    fn byte_budget_bounds_admission() {
        let reg = registry();
        reg.create(
            "tiny",
            TenantOptions {
                max_bytes: Some(1),
                ..TenantOptions::default()
            },
        )
        .unwrap();
        // The empty index already exceeds a 1-byte budget, so the very
        // first insert is rejected at admission.
        assert!(matches!(
            reg.insert_document("tiny", "d", &[1]),
            Err(TenantError::ByteQuota { limit: 1 })
        ));
    }

    #[test]
    fn recreate_after_drop_serves_fresh_answers_not_stale_cache() {
        let reg = registry();
        reg.create("a", TenantOptions::default()).unwrap();
        reg.insert_document("a", "old", &[42]).unwrap();
        // Prime and hit the cache.
        assert_eq!(reg.query("a", &[42], None).unwrap(), vec![0]);
        assert_eq!(reg.query("a", &[42], None).unwrap(), vec![0]);
        let first_created = reg.stats("a").unwrap().created;
        assert!(reg.drop_tenant("a"));
        reg.create("a", TenantOptions::default()).unwrap();
        // The recreated tenant must answer from its own (empty) index.
        assert!(reg.query("a", &[42], None).unwrap().is_empty());
        assert!(reg.stats("a").unwrap().created > first_created);
    }

    #[test]
    fn maintenance_merges_generations() {
        let reg = registry();
        reg.create("a", TenantOptions::default()).unwrap();
        let small = GenerationConfig::default();
        assert!(small.memtable_max_docs >= 4, "default cap sanity");
        // Force seals via many docs with rich term sets to cross the FPR
        // budget quickly at the tiny geometry.
        for d in 0..64 {
            let base = (d as u64) << 16;
            let terms: Vec<u64> = (0..64).map(|t| base | t).collect();
            reg.insert_document("a", &format!("d{d}"), &terms).unwrap();
        }
        reg.drain_maintenance();
        let stats = reg.stats("a").unwrap();
        assert_eq!(stats.documents, 64);
        // Every doc still answers after merging.
        for d in [0u64, 31, 63] {
            let got = reg.query("a", &[(d << 16) | 5], None).unwrap();
            assert!(got.contains(&(d as u32)), "doc {d} lost after merges");
        }
    }
}
