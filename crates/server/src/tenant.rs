//! Multi-tenant registry: many named live indexes in one process, with
//! per-tenant admission quotas and byte budgets.
//!
//! The paper pitches RAMBO as a general sub-linear multiple-set-membership
//! service, not a single-index appliance. [`TenantRegistry`] is that
//! service's core: it owns any number of **named** mutable indexes (each one
//! [`Rambo`] behind an `RwLock`, plus a [`ResultCache`]), created and dropped
//! at runtime, each with its own document quota and index byte budget. A
//! single live index is a registry with one tenant.
//!
//! **One matrix per tenant.** RAMBO absorbs a streamed document by setting
//! its bits in the fixed `B × R` grid, so an insert is
//! [`Rambo::insert_document_batch`] under the tenant's write lock, and a
//! query is the single-index evaluator under its read lock — bit-identical
//! to a from-scratch build over the same documents, false positives
//! included. Every insert bumps the tenant's result-cache version (a new
//! document can match any cached query).
//!
//! **Every tenant has the registry's geometry.** [`TenantStats`] reports the
//! tenant's predicted FPR ([`Rambo::predicted_fpr`], the figure the catalog
//! quotes per tier); it rises with every insert, and what bounds a tenant
//! is its document quota.
//!
//! **Quotas are enforced at admission**: an insert that would exceed the
//! tenant's document quota or term cap is rejected *before* touching the
//! index, with a typed [`TenantError`] the protocol fronts map to an
//! in-band error reply (`-ERR quota exceeded …` on the RESP front).
//! Rejections are counted per tenant ([`TenantStats::quota_rejections`]).
//! The byte budget is checked twice: [`TenantRegistry::create`] refuses a
//! tenant whose empty matrix already reaches it, and an insert is refused
//! once the index (matrix plus per-document bookkeeping, which grows with
//! every document) has reached it — so a tenant overshoots its budget by at
//! most one document.
//!
//! **Isolation** is structural: tenants share no index state — each has its
//! own [`Rambo`], its own [`ResultCache`] and its own latency histograms —
//! so one tenant's answers are bit-identical to a single-index process
//! holding only that tenant's documents (property tested in
//! `tests/tenant_prop.rs`). Dropping a tenant drops its cache with it; a
//! recreated tenant of the same name starts from a fresh cache and a fresh
//! creation stamp, so a drop/create cycle can never serve a stale cached
//! answer.

use crate::cache::{CacheStats, ResultCache};
use crate::server::ScratchPool;
use rambo_core::{
    canonical_query_key, multiset_query_key, DocId, QueryMode, Rambo, RamboError, RamboParams,
};
use rambo_hash::mix64;
use rambo_workloads::stats::LatencyHistogram;
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};
use std::time::{Duration, Instant};

/// Registry-wide and per-tenant admission limits. Every limit is enforced
/// *at admission* — a rejected request never touches the index.
#[derive(Debug, Clone, Copy)]
pub struct TenantQuotas {
    /// Maximum live tenants; `R.CREATE` beyond it is rejected.
    pub max_tenants: usize,
    /// Default per-tenant document cap (overridable per tenant at create).
    pub max_docs: usize,
    /// Default per-tenant index byte budget (overridable per tenant at
    /// create), measured by [`Rambo::size_bytes`]: a tenant whose empty
    /// index already reaches it is refused at create, and an insert once
    /// the index has reached it. The matrix never grows after create, but
    /// the per-document bookkeeping (bucket lists, document names) does.
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

/// Per-tenant creation options ([`TenantRegistry::create`]).
#[derive(Debug, Clone)]
pub struct TenantOptions {
    /// Document-quota override; `None` uses [`TenantQuotas::max_docs`].
    pub max_docs: Option<usize>,
    /// Byte-budget override; `None` uses [`TenantQuotas::max_bytes`].
    pub max_bytes: Option<usize>,
    /// Read by nothing. Kept for the `benchmark/` harness.
    #[doc(hidden)]
    pub fpr: f64,
}

impl Default for TenantOptions {
    fn default() -> Self {
        Self {
            max_docs: None,
            max_bytes: None,
            fpr: 0.01,
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
    /// The tenant's index is larger than its byte budget.
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
                write!(
                    f,
                    "quota exceeded: index larger than the byte budget ({limit})"
                )
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
    pub(crate) index: RwLock<Rambo>,
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
    /// Registry-wide creation stamp (strictly increasing across creates).
    pub created: u64,
    /// Documents indexed.
    pub documents: usize,
    /// Always 0: a tenant is one matrix. Kept for the `benchmark/` harness.
    #[doc(hidden)]
    pub generations: usize,
    /// Predicted per-document query FPR at the current fill
    /// ([`Rambo::predicted_fpr`]).
    pub predicted_fpr: f64,
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
            "tenant '{}': {} docs, {} bytes, predicted fpr {:.3e}",
            self.name, self.documents, self.size_bytes, self.predicted_fpr,
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
    /// Creation-stamp source; also the "tenants ever created" counter.
    creations: AtomicU64,
    drops: AtomicU64,
    /// `R.CREATE` rejections at the registry tenant cap.
    tenant_quota_rejections: AtomicU64,
    /// Query scratch shared by every tenant.
    scratch: ScratchPool,
}

impl TenantRegistry {
    /// Create an empty registry. `params` is every tenant's geometry.
    ///
    /// # Errors
    /// [`RamboError::InvalidParams`] when `params` is degenerate.
    pub fn new(params: RamboParams, quotas: TenantQuotas) -> Result<Self, RamboError> {
        params.validate()?;
        Ok(Self {
            tenants: RwLock::new(HashMap::new()),
            quotas,
            params,
            creations: AtomicU64::new(0),
            drops: AtomicU64::new(0),
            tenant_quota_rejections: AtomicU64::new(0),
            scratch: ScratchPool::default(),
        })
    }

    /// The registry's quota configuration.
    #[must_use]
    pub fn quotas(&self) -> &TenantQuotas {
        &self.quotas
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
    /// [`TenantError::TenantQuota`] at the live-tenant cap,
    /// [`TenantError::ByteQuota`] when the empty index already reaches the
    /// byte budget (it would refuse every insert).
    pub fn create(&self, name: &str, opts: TenantOptions) -> Result<(), TenantError> {
        validate_name(name)?;
        let index = Rambo::new(self.params).map_err(TenantError::Index)?;
        let max_bytes = opts.max_bytes.unwrap_or(self.quotas.max_bytes);
        if index.size_bytes() >= max_bytes {
            return Err(TenantError::ByteQuota { limit: max_bytes });
        }
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
                index: RwLock::new(index),
                cache: (self.quotas.cache_bytes > 0)
                    .then(|| ResultCache::new(self.quotas.cache_bytes)),
                max_docs: opts.max_docs.unwrap_or(self.quotas.max_docs),
                max_bytes,
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
    /// admission, before the index is touched; rejections are counted in the
    /// tenant's
    /// [`TenantStats::quota_rejections`].
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
                .insert_document_batch(doc, terms)
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
    /// the tenant's result cache. `None` mode evaluates `Full`; either mode
    /// returns the same documents, so both share one cache lane.
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
        let mode = mode.unwrap_or(QueryMode::Full);
        // The catalog's rule: the mode is not part of the key, because Full
        // returns exactly what the plan-free reference (Sparse) returns.
        // Lane 0 holds AND queries; θ queries live in lane 1 with the
        // threshold mixed into the key: the same terms at a different θ are a
        // different answer. θ counts a repeated term once per occurrence, so
        // its key keeps multiplicity; AND queries are set-valued.
        let (lane, key) = match theta {
            None => (0, canonical_query_key(terms)),
            Some(th) => (1, multiset_query_key(terms) ^ theta_salt(th)),
        };
        let evaluate = || {
            let index = t.index.read().expect("tenant index");
            self.scratch.with(|ctx| match theta {
                None => index.query_terms_with(terms, mode, ctx),
                Some(th) => index.query_sequence_theta(terms, th, mode, ctx),
            })
        };
        // An insert racing this query bumps the version, so the entry it
        // leaves can never mask the new document.
        let docs = match &t.cache {
            Some(cache) => cache.get_or_evaluate(lane, key, evaluate).0,
            None => evaluate(),
        };
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

    /// A snapshot of a tenant's index (bit-identical to a from-scratch build
    /// over the same documents) — the bridge back to the batch pipeline:
    /// feed the result to [`Catalog::builder`](crate::Catalog::builder) via
    /// [`CatalogBuilder::base`](crate::CatalogBuilder::base) to freeze the
    /// accumulated documents into fold-over serving tiers.
    ///
    /// # Errors
    /// [`TenantError::UnknownTenant`].
    pub fn freeze(&self, tenant: &str) -> Result<Rambo, TenantError> {
        let t = self.get(tenant)?;
        let index = t.index.read().expect("tenant index");
        Ok(index.clone())
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

    /// Always `false`: a tenant is one matrix, with nothing to merge. Kept
    /// for the `benchmark/` harness.
    #[doc(hidden)]
    #[must_use]
    pub fn maintain_once(&self) -> bool {
        false
    }

    /// A no-op, for the same reason. Kept for the `benchmark/` harness.
    #[doc(hidden)]
    pub fn drain_maintenance(&self) {}
}

fn snapshot(t: &TenantState) -> TenantStats {
    let (documents, predicted_fpr, size_bytes) = {
        let index = t.index.read().expect("tenant index");
        (
            index.num_documents(),
            index.predicted_fpr(),
            index.size_bytes(),
        )
    };
    TenantStats {
        name: t.name.clone(),
        created: t.created,
        documents,
        generations: 0,
        predicted_fpr,
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
        let tiny = |max_bytes| TenantOptions {
            max_bytes: Some(max_bytes),
            ..TenantOptions::default()
        };
        // The empty index already exceeds a 1-byte budget: no tenant.
        assert!(matches!(
            reg.create("tiny", tiny(1)),
            Err(TenantError::ByteQuota { limit: 1 })
        ));
        assert!(!reg.contains("tiny"));
        // A budget the empty matrix already reaches would refuse every
        // insert, so it is refused at create too.
        let empty = Rambo::new(params()).unwrap().size_bytes();
        assert!(matches!(
            reg.create("exact", tiny(empty)),
            Err(TenantError::ByteQuota { .. })
        ));
        // The matrix is fixed, but every document adds bookkeeping (bucket
        // entries, its name): long-named inserts fill a budget a little
        // above the empty size, and the insert that finds it full is refused.
        let budget = empty + 4096;
        reg.create("fits", tiny(budget)).unwrap();
        let mut admitted = 0u64;
        let mut largest_doc = 0;
        let rejection = loop {
            let before = reg.stats("fits").unwrap().size_bytes;
            let name = format!("{admitted:0>500}");
            match reg.insert_document("fits", &name, &[admitted]) {
                Ok(_) => {
                    largest_doc = largest_doc.max(reg.stats("fits").unwrap().size_bytes - before);
                    admitted += 1;
                    assert!(admitted < 64, "the byte budget never refused an insert");
                }
                Err(e) => break e,
            }
        };
        assert!(matches!(rejection, TenantError::ByteQuota { limit } if limit == budget));
        assert!(admitted > 1);
        let stats = reg.stats("fits").unwrap();
        assert_eq!(stats.quota_rejections, 1);
        assert_eq!(stats.documents as u64, admitted);
        assert!(stats.size_bytes >= budget);
        assert!(stats.size_bytes < budget + largest_doc);
    }

    /// One FPR rule: a tenant reports the prediction the catalog quotes for
    /// tier 0 of the tenant's frozen index.
    #[test]
    fn reported_fpr_is_the_catalog_prediction() {
        let reg = registry();
        reg.create("a", TenantOptions::default()).unwrap();
        for d in 0..40u64 {
            let terms: Vec<u64> = (0..64).map(|t| d << 16 | t).collect();
            reg.insert_document("a", &format!("d{d}"), &terms).unwrap();
        }
        let stats = reg.stats("a").unwrap();
        let frozen = reg.freeze("a").unwrap();
        let catalog = crate::Catalog::builder()
            .base(&frozen)
            .halving(1)
            .build()
            .unwrap();
        assert!(stats.predicted_fpr > 0.0);
        assert_eq!(stats.predicted_fpr, catalog.info(0).predicted_fpr);
        assert_eq!(stats.size_bytes, frozen.size_bytes());
    }

    #[test]
    fn recreate_after_drop_serves_fresh_answers_not_stale_cache() {
        let reg = registry();
        reg.create("a", TenantOptions::default()).unwrap();
        reg.insert_document("a", "old", &[42]).unwrap();
        // Prime and hit the cache; the mode is not part of the key, so a
        // reference-mode repeat of a Full query is a hit with the same
        // documents.
        let full = reg.query("a", &[42], Some(QueryMode::Full)).unwrap();
        assert_eq!(full, vec![0]);
        assert_eq!(
            reg.query("a", &[42], Some(QueryMode::Sparse)).unwrap(),
            full
        );
        assert_eq!(reg.stats("a").unwrap().cache.unwrap().counters.hits, 1);
        let first_created = reg.stats("a").unwrap().created;
        assert!(reg.drop_tenant("a"));
        reg.create("a", TenantOptions::default()).unwrap();
        // The recreated tenant must answer from its own (empty) index.
        assert!(reg.query("a", &[42], None).unwrap().is_empty());
        assert!(reg.stats("a").unwrap().created > first_created);
    }
}
