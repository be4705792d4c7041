//! The serving engine over a tier catalog: every query is evaluated on the
//! thread that asks it, behind a hot-query result cache.
//!
//! Lifecycle is scope-shaped ([`Server::scope`]): the closure receives a
//! [`ServerHandle`] to query through (or to pass to [`crate::serve_tcp`]),
//! and when it returns the final counters come back as a [`ServerStats`]
//! snapshot. The engine starts no thread and holds no queue, so there is
//! nothing to drain, join or leak.
//!
//! ## Evaluation
//!
//! A RAMBO query reads an immutable index, so any thread can answer one if
//! it has its own scratch. [`ServerHandle::query_opts`] routes the request
//! to a tier, answers it `DeadlineExceeded` if it is already past its
//! deadline, and otherwise looks it up in the result cache and, on a miss,
//! evaluates it on the calling thread with a [`QueryContext`] borrowed from
//! a shared `ScratchPool`. Concurrent callers each take their own
//! context; nothing on the read path waits for another query.

use crate::cache::ResultCache;
use crate::catalog::Catalog;
use crate::stats::{ServerStats, SlowQuery, SlowQueryLog, TierCounters};
use rambo_core::{canonical_query_key, DocId, QueryContext, QueryMode};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worst-latency requests the slow-query log retains.
const SLOW_LOG_DEPTH: usize = 32;

/// Serving configuration: the engine's one memory budget.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Byte budget of the hot-query result cache; `0` disables it.
    pub result_cache_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            result_cache_bytes: 16 << 20,
        }
    }
}

impl ServerConfig {
    /// Start a [`ServerConfigBuilder`] whose defaults are exactly
    /// [`ServerConfig::default`].
    #[must_use]
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::new()
    }
}

/// Builder for [`ServerConfig`]. Unset knobs keep today's defaults.
///
/// ```
/// use rambo_server::ServerConfig;
///
/// let config = ServerConfig::builder().result_cache_bytes(0).build();
/// assert_eq!(config.result_cache_bytes, 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ServerConfigBuilder {
    config: ServerConfig,
}

impl ServerConfigBuilder {
    /// Fresh builder seeded with [`ServerConfig::default`].
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// See [`ServerConfig::result_cache_bytes`].
    #[must_use]
    pub fn result_cache_bytes(mut self, bytes: usize) -> Self {
        self.config.result_cache_bytes = bytes;
        self
    }

    /// Finish: the assembled [`ServerConfig`].
    #[must_use]
    pub fn build(self) -> ServerConfig {
        self.config
    }
}

/// Why the server could not answer a query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServerError {
    /// The deadline had passed when the request was admitted; it was not
    /// evaluated.
    DeadlineExceeded {
        /// Tier the request was routed to.
        tier: usize,
    },
    /// An explicitly requested tier does not exist in the catalog.
    UnknownTier(usize),
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::DeadlineExceeded { tier } => {
                write!(f, "deadline passed before tier {tier} answered")
            }
            Self::UnknownTier(tier) => write!(f, "catalog has no tier {tier}"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Per-query options for [`ServerHandle::query_opts`].
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Acceptable per-document false-positive rate; the request is routed to
    /// the smallest catalog tier satisfying it ([`Catalog::select`]). The
    /// default `0.0` always picks tier 0, the most accurate version.
    pub fpr_budget: f64,
    /// Give-up horizon measured from submission.
    pub deadline: Duration,
    /// Bypass budget routing and hit this tier directly.
    pub tier: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            fpr_budget: 0.0,
            deadline: Duration::from_secs(1),
            tier: None,
        }
    }
}

/// A successfully answered query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QueryReply {
    /// Matching document ids, ascending (zero false negatives, per-tier
    /// false-positive rate as catalogued).
    pub docs: Vec<DocId>,
    /// The tier that evaluated the query.
    pub tier: usize,
}

/// Most idle contexts a [`ScratchPool`] keeps.
const SCRATCH_POOL_CAP: usize = 16;

/// Warmed query scratch shared by every thread that evaluates: take a
/// context, evaluate, put it back (up to a cap). One pool serves indexes of
/// any geometry — every tier, every tenant — because a context only ever
/// grows (`QueryContext::ensure` is monotonic).
#[derive(Debug, Default)]
pub(crate) struct ScratchPool(Mutex<Vec<QueryContext>>);

impl ScratchPool {
    /// Run `f` with a pooled context; the lock is not held while it runs.
    pub(crate) fn with<T>(&self, f: impl FnOnce(&mut QueryContext) -> T) -> T {
        let mut ctx = self
            .0
            .lock()
            .expect("scratch pool")
            .pop()
            .unwrap_or_default();
        let out = f(&mut ctx);
        let mut pool = self.0.lock().expect("scratch pool");
        if pool.len() < SCRATCH_POOL_CAP {
            pool.push(ctx);
        }
        out
    }
}

/// The in-process client surface of a running server. `Sync`: any number of
/// threads may query through one handle (the TCP front does).
pub struct ServerHandle<'env> {
    catalog: &'env Catalog,
    counters: &'env [TierCounters],
    cache: Option<&'env ResultCache>,
    slow: &'env SlowQueryLog,
    scratch: &'env ScratchPool,
}

impl ServerHandle<'_> {
    /// Answer a query: route by `fpr_budget`, give up if `deadline` has
    /// already passed.
    ///
    /// # Errors
    /// See [`ServerHandle::query_opts`].
    pub fn query(
        &self,
        terms: &[u64],
        fpr_budget: f64,
        deadline: Duration,
    ) -> Result<QueryReply, ServerError> {
        self.query_opts(
            terms,
            &QueryOptions {
                fpr_budget,
                deadline,
                ..QueryOptions::default()
            },
        )
    }

    /// [`ServerHandle::query`] with full per-query options. A cache hit
    /// returns without evaluating; a miss is evaluated on this thread.
    ///
    /// # Errors
    /// [`ServerError::UnknownTier`] for an out-of-range explicit tier,
    /// [`ServerError::DeadlineExceeded`] when the deadline has passed by
    /// admission.
    pub fn query_opts(
        &self,
        terms: &[u64],
        opts: &QueryOptions,
    ) -> Result<QueryReply, ServerError> {
        let submitted = Instant::now();
        let tier = match opts.tier {
            Some(t) if t < self.catalog.len() => t,
            Some(t) => return Err(ServerError::UnknownTier(t)),
            None => self.catalog.select(opts.fpr_budget),
        };
        let counters = &self.counters[tier];
        counters.accepted.fetch_add(1, Ordering::Relaxed);
        if submitted.elapsed() >= opts.deadline {
            counters.expired.fetch_add(1, Ordering::Relaxed);
            return Err(ServerError::DeadlineExceeded { tier });
        }

        let mut eval = Duration::ZERO;
        let mut evaluate = || {
            let start = Instant::now();
            let index = self.catalog.tier(tier);
            let docs = self
                .scratch
                .with(|ctx| index.query_terms_with(terms, QueryMode::Full, ctx));
            eval = start.elapsed();
            docs
        };
        let (docs, hit) = match self.cache {
            Some(cache) => cache.get_or_evaluate(tier as u32, canonical_query_key(terms), evaluate),
            None => (evaluate(), false),
        };
        let total = submitted.elapsed();
        counters.record_completion(docs.len(), total);
        if hit {
            counters.cache_hits.fetch_add(1, Ordering::Relaxed);
        } else {
            counters.evaluated.fetch_add(1, Ordering::Relaxed);
            self.slow.record(SlowQuery {
                tier,
                terms: terms.len(),
                eval,
                total,
            });
        }
        Ok(QueryReply { docs, tier })
    }

    /// Invalidate every result-cache entry (O(1) version bump). Call after
    /// swapping or re-building the catalog contents. No-op when the cache
    /// is disabled.
    pub fn invalidate_result_cache(&self) {
        if let Some(cache) = self.cache {
            cache.bump_version();
        }
    }

    /// Zero the per-tier counters, latency histograms and slow-query log —
    /// a monitoring-window boundary (steady-state benchmark start after
    /// warmup, or a periodic scrape). The pooled scratch and the result
    /// cache (whose counters are cumulative by design, see
    /// [`crate::cache::CacheStats`]) are untouched: the point of a window
    /// boundary is fresh *measurements* of the same warmed server.
    pub fn reset_stats(&self) {
        for counters in self.counters {
            counters.clear();
        }
        self.slow.clear();
    }

    /// Snapshot of the per-tier counters, slow-query log and cache counters
    /// (safe while serving; counts may trail in-flight work by a few
    /// relaxed stores).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        ServerStats::snapshot(self.catalog, self.counters.iter(), self.slow, self.cache)
    }
}

/// The serving engine. See [`Server::scope`].
pub struct Server;

impl Server {
    /// Run a server over `catalog` for the duration of `f`: hand `f` a
    /// [`ServerHandle`], and return `f`'s output together with the final
    /// [`ServerStats`].
    pub fn scope<T>(
        catalog: &Catalog,
        config: ServerConfig,
        f: impl FnOnce(&ServerHandle<'_>) -> T,
    ) -> (T, ServerStats) {
        let counters: Vec<TierCounters> = (0..catalog.len()).map(|_| Default::default()).collect();
        let cache =
            (config.result_cache_bytes > 0).then(|| ResultCache::new(config.result_cache_bytes));
        let slow = SlowQueryLog::new(SLOW_LOG_DEPTH);
        let scratch = ScratchPool::default();
        let handle = ServerHandle {
            catalog,
            counters: &counters,
            cache: cache.as_ref(),
            slow: &slow,
            scratch: &scratch,
        };
        let out = f(&handle);
        (out, handle.stats())
    }
}
