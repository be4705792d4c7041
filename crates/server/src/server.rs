//! The serving engine: scoped per-core evaluator workers over a tier
//! catalog, with bounded admission, a hot-query result cache, and an
//! in-process query API.
//!
//! Lifecycle is scope-shaped ([`Server::scope`]): workers are scoped
//! threads borrowing the catalog (no payload duplication — each worker's
//! evaluator borrows its tier's zero-copy view), the closure receives a
//! [`ServerHandle`] to submit queries (or to pass to
//! [`crate::serve_tcp`]), and when the closure returns the intake channels
//! close, workers drain every admitted request, and the joined, quiesced
//! counters come back as a [`ServerStats`] snapshot. There is no detached
//! state to leak and no shutdown flag to forget.
//!
//! ## Admission
//!
//! Each tier has one shared evaluator and a bounded queue served by its
//! workers. [`ServerHandle::submit`] applies one rule, which keeps no state
//! and has no setting: when `try_lock` on the tier's evaluator succeeds, the
//! request is evaluated **inline on the calling thread** and comes back as
//! an already-resolved [`PendingReply`]; otherwise it goes on the tier's
//! queue, where a worker takes it, checks its deadline, evaluates it with
//! its own evaluator and answers. A lone caller — the TCP reactor is one —
//! always finds the evaluator free and never pays a hand-off, while
//! concurrent in-process callers spill onto the workers instead of queueing
//! on the lock. Both paths run the same evaluation, so their answers are
//! bit-identical.

use crate::cache::ResultCache;
use crate::catalog::Catalog;
use crate::reactor::Waker;
use crate::scheduler::{run_worker, Reply, Request};
use crate::stats::{ServerStats, SlowQuery, SlowQueryLog, TierCounters};
use rambo_core::{canonical_query_key, default_threads, DocId, QueryBatch, QueryMode};
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Mutex;
#[cfg(test)]
use std::sync::MutexGuard;
use std::time::{Duration, Instant};

/// Serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Bounded admission queue depth per tier; a full queue rejects with
    /// [`ServerError::Overloaded`] instead of buffering without limit.
    pub queue_capacity: usize,
    /// Evaluator workers per tier (defaults to the machine's available
    /// parallelism — one evaluator per core).
    pub workers_per_tier: usize,
    /// Evaluation mode for requests that do not specify one.
    pub default_mode: QueryMode,
    /// Byte budget of the hot-query result cache; `0` disables it.
    pub result_cache_bytes: usize,
    /// Retain this many worst-latency requests in the slow-query log; `0`
    /// disables it.
    pub slow_log: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            queue_capacity: 1024,
            workers_per_tier: default_threads(),
            default_mode: QueryMode::Full,
            result_cache_bytes: 16 << 20,
            slow_log: 32,
        }
    }
}

impl ServerConfig {
    /// Start a [`ServerConfigBuilder`] whose defaults are exactly
    /// [`ServerConfig::default`] — the one place to set every serving knob.
    #[must_use]
    pub fn builder() -> ServerConfigBuilder {
        ServerConfigBuilder::new()
    }
}

/// Builder for [`ServerConfig`]: every serving knob (admission, workers,
/// caching, slow log) in one place. Unset knobs keep today's defaults.
///
/// ```
/// use rambo_server::ServerConfig;
///
/// let config = ServerConfig::builder()
///     .workers_per_tier(2)
///     .result_cache_bytes(0)
///     .build();
/// assert_eq!(config.workers_per_tier, 2);
/// assert_eq!(config.queue_capacity, ServerConfig::default().queue_capacity);
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

    /// See [`ServerConfig::queue_capacity`].
    #[must_use]
    pub fn queue_capacity(mut self, n: usize) -> Self {
        self.config.queue_capacity = n;
        self
    }

    /// See [`ServerConfig::workers_per_tier`].
    #[must_use]
    pub fn workers_per_tier(mut self, n: usize) -> Self {
        self.config.workers_per_tier = n;
        self
    }

    /// See [`ServerConfig::default_mode`].
    #[must_use]
    pub fn default_mode(mut self, mode: QueryMode) -> Self {
        self.config.default_mode = mode;
        self
    }

    /// See [`ServerConfig::result_cache_bytes`].
    #[must_use]
    pub fn result_cache_bytes(mut self, bytes: usize) -> Self {
        self.config.result_cache_bytes = bytes;
        self
    }

    /// See [`ServerConfig::slow_log`].
    #[must_use]
    pub fn slow_log(mut self, depth: usize) -> Self {
        self.config.slow_log = depth;
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
    /// The selected tier's admission queue was full (backpressure): retry
    /// later, shed the request, or widen `queue_capacity`.
    Overloaded {
        /// Tier whose queue was full.
        tier: usize,
    },
    /// The deadline passed before the request was evaluated (either dropped
    /// unevaluated by a worker or timed out waiting for the reply).
    DeadlineExceeded {
        /// Tier the request was routed to.
        tier: usize,
    },
    /// An explicitly requested tier does not exist in the catalog.
    UnknownTier(usize),
    /// The server is shutting down (intake closed).
    Disconnected,
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::Overloaded { tier } => write!(f, "tier {tier} admission queue is full"),
            Self::DeadlineExceeded { tier } => {
                write!(f, "deadline passed before tier {tier} answered")
            }
            Self::UnknownTier(tier) => write!(f, "catalog has no tier {tier}"),
            Self::Disconnected => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServerError {}

/// Per-query options for [`ServerHandle::submit`].
#[derive(Debug, Clone, Copy)]
pub struct QueryOptions {
    /// Acceptable per-document false-positive rate; the request is routed to
    /// the smallest catalog tier satisfying it ([`Catalog::select`]). The
    /// default `0.0` always picks tier 0, the most accurate version.
    pub fpr_budget: f64,
    /// Give-up horizon measured from submission.
    pub deadline: Duration,
    /// Evaluation mode; `None` uses the server's default.
    pub mode: Option<QueryMode>,
    /// Bypass budget routing and hit this tier directly.
    pub tier: Option<usize>,
}

impl Default for QueryOptions {
    fn default() -> Self {
        Self {
            fpr_budget: 0.0,
            deadline: Duration::from_secs(1),
            mode: None,
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

/// How a [`PendingReply`] resolves: already answered at admission (inline
/// evaluation or a cache hit), or waiting on a worker's reply channel.
#[derive(Debug)]
enum PendingInner {
    /// `Some` until consumed by `wait`/`try_wait`.
    Ready(Option<Result<QueryReply, ServerError>>),
    Waiting(Receiver<Reply>),
}

/// An admitted, not-yet-consumed query result (from
/// [`ServerHandle::submit`]). Inline and cache-hit completions come back
/// already resolved; queued requests resolve when a worker answers.
#[derive(Debug)]
pub struct PendingReply {
    inner: PendingInner,
    tier: usize,
    deadline: Instant,
}

impl PendingReply {
    fn ready(result: Result<QueryReply, ServerError>, tier: usize, deadline: Instant) -> Self {
        Self {
            inner: PendingInner::Ready(Some(result)),
            tier,
            deadline,
        }
    }

    /// A reply no worker will ever send, for the reactor's deadline tests;
    /// the sender keeps the channel connected.
    #[cfg(test)]
    pub(crate) fn unanswered(deadline: Instant) -> (Self, SyncSender<Reply>) {
        let (tx, rx) = mpsc::sync_channel(1);
        let reply = Self {
            inner: PendingInner::Waiting(rx),
            tier: 0,
            deadline,
        };
        (reply, tx)
    }

    /// The instant past which [`PendingReply::try_wait`] gives up on a worker
    /// — what the TCP reactor bounds its wait by.
    pub(crate) fn deadline(&self) -> Instant {
        self.deadline
    }

    /// Block until the reply arrives or the request's deadline passes.
    ///
    /// # Errors
    /// [`ServerError::DeadlineExceeded`] on timeout or worker-side expiry,
    /// [`ServerError::Disconnected`] when the server dropped the request
    /// during shutdown.
    pub fn wait(self) -> Result<QueryReply, ServerError> {
        match self.inner {
            PendingInner::Ready(result) => result.unwrap_or(Err(ServerError::Disconnected)),
            PendingInner::Waiting(rx) => {
                let timeout = self.deadline.saturating_duration_since(Instant::now());
                match rx.recv_timeout(timeout) {
                    Ok(Reply::Docs(docs)) => Ok(QueryReply {
                        docs,
                        tier: self.tier,
                    }),
                    Ok(Reply::Expired) | Err(RecvTimeoutError::Timeout) => {
                        Err(ServerError::DeadlineExceeded { tier: self.tier })
                    }
                    Err(RecvTimeoutError::Disconnected) => Err(ServerError::Disconnected),
                }
            }
        }
    }

    /// Non-blocking poll: `Some` once the result is available (at most once
    /// — the result is consumed), `None` while still pending. A pending
    /// request past its deadline resolves to
    /// [`ServerError::DeadlineExceeded`]. This is what lets the TCP
    /// reactor multiplex many in-flight requests on one thread.
    pub fn try_wait(&mut self) -> Option<Result<QueryReply, ServerError>> {
        match &mut self.inner {
            PendingInner::Ready(slot) => slot.take(),
            PendingInner::Waiting(rx) => {
                let resolved = match rx.try_recv() {
                    Ok(Reply::Docs(docs)) => Ok(QueryReply {
                        docs,
                        tier: self.tier,
                    }),
                    Ok(Reply::Expired) => Err(ServerError::DeadlineExceeded { tier: self.tier }),
                    Err(TryRecvError::Empty) => {
                        if Instant::now() >= self.deadline {
                            Err(ServerError::DeadlineExceeded { tier: self.tier })
                        } else {
                            return None;
                        }
                    }
                    Err(TryRecvError::Disconnected) => Err(ServerError::Disconnected),
                };
                // Consumed: later polls report nothing new.
                self.inner = PendingInner::Ready(None);
                Some(resolved)
            }
        }
    }
}

/// One tier's intake lane as seen by the handle.
struct Lane<'env> {
    tx: SyncSender<Request>,
    counters: &'env TierCounters,
    /// The tier's shared inline evaluator. A busy one sends the request to
    /// the queue: admission never blocks on it.
    inline: &'env Mutex<QueryBatch<'env>>,
}

/// The in-process client surface of a running server. `Sync`: any number of
/// threads may submit queries through one handle (the TCP front does).
pub struct ServerHandle<'env> {
    catalog: &'env Catalog,
    lanes: Vec<Lane<'env>>,
    default_mode: QueryMode,
    cache: Option<&'env ResultCache>,
    slow: &'env SlowQueryLog,
}

impl<'env> ServerHandle<'env> {
    /// Submit a query without blocking for its answer.
    ///
    /// A cache hit, or a query the tier's free evaluator answers on this
    /// thread, comes back as an already-resolved [`PendingReply`]; when the
    /// evaluator is busy the query waits on the tier's queue for a worker.
    ///
    /// # Errors
    /// [`ServerError::Overloaded`] when the routed tier's queue is full,
    /// [`ServerError::UnknownTier`] for an out-of-range explicit tier,
    /// [`ServerError::Disconnected`] during shutdown.
    pub fn submit(&self, terms: &[u64], opts: &QueryOptions) -> Result<PendingReply, ServerError> {
        self.submit_waking(terms, opts, None)
    }

    /// [`ServerHandle::submit`] for a caller that will not block on the
    /// reply: if the request ends up on a worker's queue, the worker signals
    /// `waker` once it has answered or expired it. Requests answered at
    /// admission never touch it.
    pub(crate) fn submit_waking(
        &self,
        terms: &[u64],
        opts: &QueryOptions,
        waker: Option<&Waker>,
    ) -> Result<PendingReply, ServerError> {
        let tier = match opts.tier {
            Some(t) if t < self.lanes.len() => t,
            Some(t) => return Err(ServerError::UnknownTier(t)),
            None => self.catalog.select(opts.fpr_budget),
        };
        let lane = &self.lanes[tier];
        let submitted = Instant::now();
        let deadline = submitted + opts.deadline;
        let mode = opts.mode.unwrap_or(self.default_mode);

        // Result-cache probe. The version stamp is read *before* lookup and
        // evaluation and travels with the request, so a catalog-version bump
        // racing a slow evaluation invalidates the eventual insert.
        let (key, version) = match self.cache {
            Some(cache) => {
                let key = canonical_query_key(terms);
                let version = cache.version();
                if let Some(docs) = cache.get(tier as u32, key, version) {
                    lane.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    lane.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    lane.counters
                        .record_completion(docs.len(), submitted.elapsed());
                    return Ok(PendingReply::ready(
                        Ok(QueryReply { docs, tier }),
                        tier,
                        deadline,
                    ));
                }
                cache.record_miss();
                (key, version)
            }
            None => (0, 0),
        };

        // The admission rule: a free evaluator answers on this thread; a
        // busy one sends the request to the queue. `try_lock` never blocks.
        if let Ok(mut evaluator) = lane.inline.try_lock() {
            lane.counters.accepted.fetch_add(1, Ordering::Relaxed);
            if Instant::now() >= deadline {
                lane.counters.expired.fetch_add(1, Ordering::Relaxed);
                return Ok(PendingReply::ready(
                    Err(ServerError::DeadlineExceeded { tier }),
                    tier,
                    deadline,
                ));
            }
            let eval_start = Instant::now();
            let docs = evaluator.query_terms(terms, mode);
            drop(evaluator);
            let eval = eval_start.elapsed();
            let total = submitted.elapsed();
            lane.counters.record_completion(docs.len(), total);
            lane.counters.inline.fetch_add(1, Ordering::Relaxed);
            self.slow.record(SlowQuery {
                tier,
                terms: terms.len(),
                queue_wait: Duration::ZERO,
                eval,
                total,
                queued: false,
            });
            if let Some(cache) = self.cache {
                cache.insert(tier as u32, key, version, &docs);
            }
            return Ok(PendingReply::ready(
                Ok(QueryReply { docs, tier }),
                tier,
                deadline,
            ));
        }

        let (reply_tx, reply_rx) = mpsc::sync_channel(1);
        let request = Request {
            terms: terms.to_vec(),
            mode,
            deadline,
            submitted,
            key,
            version,
            reply: reply_tx,
            waker: waker.cloned(),
        };
        let depth = lane.counters.depth.fetch_add(1, Ordering::AcqRel) + 1;
        match lane.tx.try_send(request) {
            Ok(()) => {
                lane.counters.accepted.fetch_add(1, Ordering::Relaxed);
                lane.counters
                    .queue_depth_max
                    .fetch_max(depth, Ordering::Relaxed);
                Ok(PendingReply {
                    inner: PendingInner::Waiting(reply_rx),
                    tier,
                    deadline,
                })
            }
            Err(TrySendError::Full(_)) => {
                lane.counters.depth.fetch_sub(1, Ordering::AcqRel);
                lane.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Overloaded { tier })
            }
            Err(TrySendError::Disconnected(_)) => {
                lane.counters.depth.fetch_sub(1, Ordering::AcqRel);
                Err(ServerError::Disconnected)
            }
        }
    }

    /// Submit and block for the answer: route by `fpr_budget`, wait at most
    /// `deadline`.
    ///
    /// # Errors
    /// See [`ServerHandle::submit`] and [`PendingReply::wait`].
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

    /// [`ServerHandle::query`] with full per-query options.
    ///
    /// # Errors
    /// See [`ServerHandle::submit`] and [`PendingReply::wait`].
    pub fn query_opts(
        &self,
        terms: &[u64],
        opts: &QueryOptions,
    ) -> Result<QueryReply, ServerError> {
        self.submit(terms, opts)?.wait()
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
    /// warmup, or a periodic scrape). The live queue-depth gauge, evaluator
    /// scratch and the result cache (whose counters are cumulative by
    /// design, see [`crate::cache::CacheStats`]) are untouched: the point of
    /// a window boundary is fresh *measurements* of the same warmed server.
    pub fn reset_stats(&self) {
        for lane in &self.lanes {
            lane.counters.clear();
        }
        self.slow.clear();
    }

    /// Hold tier `tier`'s shared evaluator, so every admission to it queues
    /// for a worker until the guard drops.
    #[cfg(test)]
    pub(crate) fn hold_evaluator(&self, tier: usize) -> MutexGuard<'_, QueryBatch<'env>> {
        self.lanes[tier].inline.lock().expect("evaluator lock")
    }

    /// Snapshot of the per-tier counters, slow-query log and cache counters
    /// (safe while serving; counts may trail in-flight work by a few
    /// relaxed stores).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let counters = self.lanes.iter().map(|lane| lane.counters);
        ServerStats::snapshot(self.catalog, counters, self.slow, self.cache)
    }
}

/// The serving engine. See [`Server::scope`].
pub struct Server;

impl Server {
    /// Run a server over `catalog` for the duration of `f`.
    ///
    /// Spawns `workers_per_tier` scoped evaluator threads per catalog tier
    /// (each borrowing its tier's zero-copy view), hands `f` a
    /// [`ServerHandle`], and on return closes the intakes, lets the workers
    /// drain every admitted request, joins them, and returns `f`'s output
    /// together with the final [`ServerStats`].
    ///
    /// # Panics
    /// Panics if `queue_capacity` or `workers_per_tier` is zero, or if a
    /// worker thread panics.
    pub fn scope<T>(
        catalog: &Catalog,
        config: ServerConfig,
        f: impl FnOnce(&ServerHandle<'_>) -> T,
    ) -> (T, ServerStats) {
        assert!(
            config.queue_capacity >= 1 && config.workers_per_tier >= 1,
            "queue_capacity and workers_per_tier must be at least 1"
        );
        let counters: Vec<TierCounters> = (0..catalog.len()).map(|_| Default::default()).collect();
        let inline_evaluators: Vec<Mutex<QueryBatch<'_>>> = (0..catalog.len())
            .map(|t| Mutex::new(QueryBatch::new(catalog.tier(t))))
            .collect();
        let cache =
            (config.result_cache_bytes > 0).then(|| ResultCache::new(config.result_cache_bytes));
        let slow = SlowQueryLog::new(config.slow_log);
        let (intakes, receivers): (Vec<_>, Vec<_>) = (0..catalog.len())
            .map(|_| {
                let (tx, rx) = mpsc::sync_channel::<Request>(config.queue_capacity);
                (tx, Mutex::new(rx))
            })
            .unzip();
        let out = std::thread::scope(|scope| {
            for (tier, intake) in receivers.iter().enumerate() {
                let (index, counters, cache, slow) =
                    (catalog.tier(tier), &counters[tier], cache.as_ref(), &slow);
                for w in 0..config.workers_per_tier {
                    std::thread::Builder::new()
                        .name(format!("rambo-serve-t{tier}-w{w}"))
                        .spawn_scoped(scope, move || {
                            run_worker(tier, index, intake, counters, cache, slow);
                        })
                        .expect("spawn evaluator worker");
                }
            }
            let handle = ServerHandle {
                catalog,
                lanes: intakes
                    .into_iter()
                    .zip(counters.iter().zip(&inline_evaluators))
                    .map(|(tx, (counters, inline))| Lane {
                        tx,
                        counters,
                        inline,
                    })
                    .collect(),
                default_mode: config.default_mode,
                cache: cache.as_ref(),
                slow: &slow,
            };
            // `handle` (and with it every intake sender) drops here, which
            // disconnects the lanes; workers drain and exit, and the scope
            // joins them before returning.
            f(&handle)
        });
        let stats = ServerStats::snapshot(catalog, counters.iter(), &slow, cache.as_ref());
        (out, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambo_core::{QueryContext, Rambo, RamboParams};

    /// 32 documents of 20 terms (`d << 16 | t`), folded `halvings` times.
    fn catalog(halvings: u32) -> Catalog {
        let mut index = Rambo::new(RamboParams::flat(16, 3, 1 << 12, 2, 7)).unwrap();
        for d in 0..32u64 {
            index
                .insert_document(&format!("doc{d}"), (0..20).map(|t| d << 16 | t))
                .unwrap();
        }
        Catalog::builder()
            .base(&index)
            .halving(halvings)
            .build()
            .unwrap()
    }

    fn one_worker_no_cache() -> ServerConfig {
        ServerConfig::builder()
            .workers_per_tier(1)
            .result_cache_bytes(0)
            .build()
    }

    #[test]
    fn inline_and_queued_paths_answer_identically() {
        let catalog = catalog(1);
        // Present single terms, present pairs and absent probes, every tier.
        let queries: Vec<(Vec<u64>, usize)> = (0..32u64)
            .flat_map(|d| [vec![d << 16 | 3], vec![d << 16 | 5, d << 16 | 6], vec![!d]])
            .flat_map(|q| (0..catalog.len()).map(move |t| (q.clone(), t)))
            .collect();
        let mut ctx = QueryContext::new();
        let direct: Vec<Vec<DocId>> = queries
            .iter()
            .map(|(q, t)| {
                catalog
                    .tier(*t)
                    .query_terms_with(q, QueryMode::Full, &mut ctx)
            })
            .collect();
        let (answers, stats) = Server::scope(&catalog, one_worker_no_cache(), |handle| {
            let run = || -> Vec<Vec<DocId>> {
                queries
                    .iter()
                    .map(|(q, t)| {
                        let opts = QueryOptions {
                            tier: Some(*t),
                            ..QueryOptions::default()
                        };
                        handle.query_opts(q, &opts).unwrap().docs
                    })
                    .collect()
            };
            let inline = run();
            let _held: Vec<_> = (0..catalog.len())
                .map(|t| handle.hold_evaluator(t))
                .collect();
            [inline, run()]
        });
        assert_eq!(answers, [direct.clone(), direct], "inline, then queued");
        let n = queries.len() as u64;
        assert_eq!((stats.total_inline(), stats.total_batches()), (n, n));
    }

    #[test]
    fn a_queued_request_past_its_deadline_is_expired_unevaluated() {
        let catalog = catalog(0);
        let (reply, stats) = Server::scope(&catalog, one_worker_no_cache(), |handle| {
            let _held = handle.hold_evaluator(0);
            let opts = QueryOptions {
                deadline: Duration::ZERO,
                ..QueryOptions::default()
            };
            handle.submit(&[3 << 16 | 1], &opts).unwrap().wait()
        });
        assert_eq!(reply, Err(ServerError::DeadlineExceeded { tier: 0 }));
        // Queued (the scope drains it before returning), then expired.
        let t = &stats.tiers[0];
        assert_eq!((t.accepted, t.max_queue_depth, t.expired), (1, 1, 1));
        assert_eq!(
            (t.queued, t.inline_completed, t.completed, t.hits),
            (0, 0, 0, 0)
        );
    }
}
