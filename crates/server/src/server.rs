//! The serving engine: scoped per-core evaluator workers over a tier
//! catalog, with bounded admission, an adaptive inline-bypass scheduler, a
//! hot-query result cache, and an in-process query API.
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
//! ## The adaptive scheduler
//!
//! Micro-batching pays off when the queue is busy: one wake-up and one
//! warmed-up scratch serve the whole batch. Under light
//! load it *loses* — staging a lone request through a channel, a worker
//! wake-up and a reply channel costs more than just evaluating it. The
//! scheduler therefore tracks each lane's instantaneous queue depth: while
//! the lane is quiet, [`ServerHandle::submit`] evaluates the request
//! **inline on the admitting thread** against the tier's shared evaluator
//! (same code path, bit-identical results) and returns an already-resolved
//! [`PendingReply`]. When admission finds the queued depth at or above
//! `batch_above` (or inline-lock contention proves concurrent admissions)
//! the lane flips to batching; a worker flips it back only after a
//! sustained streak of quiet batches *and* a cooldown with no fresh proof
//! of concurrency (hysteresis, so the gate does not flap on every request).
//! [`SchedulerMode::AlwaysBatch`] pins the old behavior for comparison
//! benchmarks.

use crate::cache::ResultCache;
use crate::catalog::Catalog;
use crate::reactor::Waker;
use crate::scheduler::{run_worker, BatchKnobs, LaneGate, Reply, Request, INLINE_OVERLAP_WINDOW};
use crate::stats::{ServerStats, SlowQuery, SlowQueryLog, TierCounters};
use rambo_core::{canonical_query_key, default_threads, DocId, QueryBatch, QueryMode};
use rambo_workloads::stats::LatencyHistogram;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, SyncSender, TryRecvError, TrySendError};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// How the server decides between inline evaluation and micro-batching.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedulerMode {
    /// Load-aware bypass: evaluate inline on the admitting thread while the
    /// lane is quiet; switch to greedy-drain batching when the queued depth
    /// reaches `batch_above`, and back once a worker drains the queue to
    /// `inline_below`. `inline_below < batch_above` gives the hysteresis
    /// band that keeps the gate from flapping.
    Adaptive {
        /// Flip to batching when admission observes this many queued
        /// requests.
        batch_above: usize,
        /// Flip back to inline when a worker observes the queue at or below
        /// this depth.
        inline_below: usize,
    },
    /// Always stage through the micro-batch queue (the pre-adaptive
    /// behavior; the `serve_load` bench's comparison arm).
    AlwaysBatch,
}

impl Default for SchedulerMode {
    fn default() -> Self {
        Self::Adaptive {
            batch_above: 3,
            inline_below: 0,
        }
    }
}

/// Serving configuration.
#[derive(Debug, Clone, Copy)]
pub struct ServerConfig {
    /// Largest micro-batch a worker evaluates in one pass. `1` disables
    /// batching (the one-query-at-a-time baseline).
    pub max_batch: usize,
    /// How long a worker with a short batch waits for stragglers once the
    /// queue runs empty. `0` means greedy adaptive batching: evaluate
    /// whatever accumulated while the previous batch ran, never wait.
    pub max_delay: Duration,
    /// Bounded admission queue depth per tier; a full queue rejects with
    /// [`ServerError::Overloaded`] instead of buffering without limit.
    pub queue_capacity: usize,
    /// Evaluator workers per tier (defaults to the machine's available
    /// parallelism — one evaluator per core).
    pub workers_per_tier: usize,
    /// Evaluation mode for requests that do not specify one.
    pub default_mode: QueryMode,
    /// Inline-bypass vs batching policy (see [`SchedulerMode`]).
    pub scheduler: SchedulerMode,
    /// Byte budget of the hot-query result cache; `0` disables it.
    pub result_cache_bytes: usize,
    /// Retain this many worst-latency requests in the slow-query log; `0`
    /// disables it.
    pub slow_log: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            max_batch: 64,
            max_delay: Duration::from_micros(100),
            queue_capacity: 1024,
            workers_per_tier: default_threads(),
            default_mode: QueryMode::Full,
            scheduler: SchedulerMode::default(),
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

/// Builder for [`ServerConfig`]: every scattered serving knob (scheduler
/// mode, batching, admission, caching, slow log) in one place. Unset knobs
/// keep today's defaults.
///
/// ```
/// use rambo_server::{SchedulerMode, ServerConfig};
///
/// let config = ServerConfig::builder()
///     .max_batch(32)
///     .scheduler(SchedulerMode::AlwaysBatch)
///     .result_cache_bytes(0)
///     .build();
/// assert_eq!(config.max_batch, 32);
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

    /// See [`ServerConfig::max_batch`].
    #[must_use]
    pub fn max_batch(mut self, n: usize) -> Self {
        self.config.max_batch = n;
        self
    }

    /// See [`ServerConfig::max_delay`].
    #[must_use]
    pub fn max_delay(mut self, d: Duration) -> Self {
        self.config.max_delay = d;
        self
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

    /// See [`ServerConfig::scheduler`].
    #[must_use]
    pub fn scheduler(mut self, mode: SchedulerMode) -> Self {
        self.config.scheduler = mode;
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

    /// The tier the request was routed to.
    #[must_use]
    pub fn tier(&self) -> usize {
        self.tier
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
    gate: &'env LaneGate,
    /// The tier's shared inline evaluator. `try_lock` contention simply
    /// falls through to the queue — the bypass must never block admission.
    inline: &'env Mutex<QueryBatch<'env>>,
}

/// A nonzero identity for the calling thread, cheap enough for the admission
/// hot path: the address of a thread-local byte. Distinct per live thread;
/// an address may be reused after a thread exits, which at worst delays one
/// overlap detection (see [`INLINE_OVERLAP_WINDOW`]).
fn admit_token() -> u64 {
    thread_local! {
        static TOKEN: u8 = const { 0 };
    }
    TOKEN.with(|t| std::ptr::from_ref(t) as u64)
}

/// The in-process client surface of a running server. `Sync`: any number of
/// threads may submit queries through one handle (the TCP front does).
pub struct ServerHandle<'env> {
    catalog: &'env Catalog,
    lanes: Vec<Lane<'env>>,
    default_mode: QueryMode,
    scheduler: SchedulerMode,
    cache: Option<&'env ResultCache>,
    slow: &'env SlowQueryLog,
    /// Server start instant; `LaneGate::last_live` stamps are nanoseconds
    /// since this epoch.
    epoch: Instant,
}

impl<'env> ServerHandle<'env> {
    /// The catalog being served.
    #[must_use]
    pub fn catalog(&self) -> &'env Catalog {
        self.catalog
    }

    /// Submit a query without blocking for its answer.
    ///
    /// Under the adaptive scheduler a quiet lane evaluates the query inline
    /// (or answers it from the result cache) and returns an
    /// already-resolved [`PendingReply`]; a busy lane stages it through the
    /// micro-batch queue.
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
                    lane.counters
                        .hits
                        .fetch_add(docs.len() as u64, Ordering::Relaxed);
                    lane.counters.accepted.fetch_add(1, Ordering::Relaxed);
                    lane.counters.completed.fetch_add(1, Ordering::Relaxed);
                    lane.counters.cache_hits.fetch_add(1, Ordering::Relaxed);
                    lane.counters.latency.record(submitted.elapsed());
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

        // Adaptive bypass: while the lane is quiet, evaluate inline on this
        // thread. Lock contention (another thread mid-inline-evaluation)
        // flips the lane to batching and falls through to the queue: inline
        // admissions serialize on this one mutex anyway, so batching loses
        // no parallelism under contention — and contention is a far earlier
        // (and at low client counts, the only reachable) load signal than
        // the queue-depth threshold.
        if matches!(self.scheduler, SchedulerMode::Adaptive { .. }) {
            // Concurrency is also proven by *who* is admitting: admissions
            // from two different threads inside a short window mean at
            // least two live clients, even if the inline lock never
            // contends. On a single-core host concurrent clients execute
            // serialized — each one's try_lock succeeds in turn — so
            // without this check a fully loaded lane could stay inline
            // until a preemption happens to land mid-evaluation. The check
            // runs on *every* adaptive admission (not just inline ones):
            // while batching it refreshes the liveness stamp, so a lane
            // with two live clients never drifts back to inline on quiet
            // singleton batches alone, only to flip again two requests
            // later through a cold inline evaluator.
            let token = admit_token();
            let now_ns = self.epoch.elapsed().as_nanos() as u64;
            let prev_token = lane.gate.last_admit_token.swap(token, Ordering::AcqRel);
            let prev_ns = lane.gate.last_admit_ns.swap(now_ns, Ordering::AcqRel);
            let overlapping = prev_token != 0
                && prev_token != token
                && now_ns.saturating_sub(prev_ns) < INLINE_OVERLAP_WINDOW.as_nanos() as u64;
            if overlapping {
                lane.gate.last_live.store(now_ns, Ordering::Release);
            }
            if lane.gate.batching.load(Ordering::Acquire) {
                // Fall through to the queue path below.
            } else if overlapping {
                if !lane.gate.batching.swap(true, Ordering::AcqRel) {
                    lane.counters
                        .switched_to_batch
                        .fetch_add(1, Ordering::Relaxed);
                }
            } else if let Ok(mut evaluator) = lane.inline.try_lock() {
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
                lane.counters
                    .hits
                    .fetch_add(docs.len() as u64, Ordering::Relaxed);
                lane.counters.completed.fetch_add(1, Ordering::Relaxed);
                lane.counters.inline.fetch_add(1, Ordering::Relaxed);
                lane.counters.latency.record(total);
                self.slow.record(SlowQuery {
                    tier,
                    terms: terms.len(),
                    queue_wait: Duration::ZERO,
                    eval,
                    total,
                    batched: false,
                });
                if let Some(cache) = self.cache {
                    cache.insert(tier as u32, key, version, &docs);
                }
                return Ok(PendingReply::ready(
                    Ok(QueryReply { docs, tier }),
                    tier,
                    deadline,
                ));
            } else {
                lane.gate
                    .last_live
                    .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
                if !lane.gate.batching.swap(true, Ordering::AcqRel) {
                    lane.counters
                        .switched_to_batch
                        .fetch_add(1, Ordering::Relaxed);
                }
            }
        }

        // Queue path. The depth gauge is incremented *before* the send so a
        // worker's decrement can never land first and wrap it; send failure
        // undoes the increment.
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
        let depth = lane.gate.queued.fetch_add(1, Ordering::AcqRel) + 1;
        match lane.tx.try_send(request) {
            Ok(()) => {
                lane.counters.accepted.fetch_add(1, Ordering::Relaxed);
                lane.counters
                    .queue_depth_max
                    .fetch_max(depth, Ordering::Relaxed);
                if let SchedulerMode::Adaptive { batch_above, .. } = self.scheduler {
                    if depth >= batch_above as u64 {
                        lane.gate
                            .last_live
                            .store(self.epoch.elapsed().as_nanos() as u64, Ordering::Release);
                        if !lane.gate.batching.swap(true, Ordering::AcqRel) {
                            lane.counters
                                .switched_to_batch
                                .fetch_add(1, Ordering::Relaxed);
                        }
                    }
                }
                Ok(PendingReply {
                    inner: PendingInner::Waiting(reply_rx),
                    tier,
                    deadline,
                })
            }
            Err(TrySendError::Full(_)) => {
                lane.gate.queued.fetch_sub(1, Ordering::AcqRel);
                lane.counters.rejected.fetch_add(1, Ordering::Relaxed);
                Err(ServerError::Overloaded { tier })
            }
            Err(TrySendError::Disconnected(_)) => {
                lane.gate.queued.fetch_sub(1, Ordering::AcqRel);
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
    /// warmup, or a periodic scrape). Scheduler gate state, evaluator scratch
    /// and the result cache (whose counters are cumulative by design, see
    /// [`crate::cache::CacheStats`]) are untouched: the point of a window
    /// boundary is fresh *measurements* of the same warmed server.
    pub fn reset_stats(&self) {
        for lane in &self.lanes {
            lane.counters.clear();
        }
        self.slow.clear();
    }

    /// The result cache, when enabled (tests and diagnostics).
    #[must_use]
    pub fn result_cache(&self) -> Option<&'env ResultCache> {
        self.cache
    }

    /// Snapshot of the per-tier counters, slow-query log and cache counters
    /// (safe while serving; counts may trail in-flight work by a few
    /// relaxed stores).
    #[must_use]
    pub fn stats(&self) -> ServerStats {
        let latency = LatencyHistogram::new();
        for lane in &self.lanes {
            latency.merge(&lane.counters.latency);
        }
        ServerStats {
            tiers: self
                .lanes
                .iter()
                .enumerate()
                .map(|(t, lane)| {
                    lane.counters
                        .snapshot(self.catalog.info(t), self.catalog.block_cache_stats(t))
                })
                .collect(),
            slow_queries: self.slow.snapshot(),
            cache: self.cache.map(ResultCache::stats),
            latency,
        }
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
    /// Panics if `max_batch`, `queue_capacity` or `workers_per_tier` is
    /// zero, or if a worker thread panics.
    pub fn scope<T>(
        catalog: &Catalog,
        config: ServerConfig,
        f: impl FnOnce(&ServerHandle<'_>) -> T,
    ) -> (T, ServerStats) {
        assert!(config.max_batch >= 1, "max_batch must be at least 1");
        assert!(
            config.queue_capacity >= 1,
            "queue_capacity must be at least 1"
        );
        assert!(
            config.workers_per_tier >= 1,
            "workers_per_tier must be at least 1"
        );
        let knobs = BatchKnobs {
            max_batch: config.max_batch,
            max_delay: config.max_delay,
            inline_below: match config.scheduler {
                SchedulerMode::Adaptive { inline_below, .. } => Some(inline_below),
                SchedulerMode::AlwaysBatch => None,
            },
            batch_above: match config.scheduler {
                SchedulerMode::Adaptive { batch_above, .. } => batch_above,
                SchedulerMode::AlwaysBatch => 0,
            },
        };
        let counters: Vec<TierCounters> = (0..catalog.len()).map(|_| TierCounters::new()).collect();
        // Always-batch lanes start (and stay) gated closed; adaptive lanes
        // start open for inline bypass.
        let gates: Vec<LaneGate> = (0..catalog.len())
            .map(|_| LaneGate::new(matches!(config.scheduler, SchedulerMode::AlwaysBatch)))
            .collect();
        let inline_evaluators: Vec<Mutex<QueryBatch<'_>>> = (0..catalog.len())
            .map(|t| Mutex::new(QueryBatch::new(catalog.tier(t))))
            .collect();
        let cache =
            (config.result_cache_bytes > 0).then(|| ResultCache::new(config.result_cache_bytes));
        let slow = SlowQueryLog::new(config.slow_log);
        let mut intakes = Vec::with_capacity(catalog.len());
        let mut receivers = Vec::with_capacity(catalog.len());
        for _ in 0..catalog.len() {
            let (tx, rx) = mpsc::sync_channel::<Request>(config.queue_capacity);
            intakes.push(tx);
            receivers.push(Mutex::new(rx));
        }
        let epoch = Instant::now();
        let out = std::thread::scope(|scope| {
            for (tier, intake) in receivers.iter().enumerate() {
                let index = catalog.tier(tier);
                let tier_counters = &counters[tier];
                let gate = &gates[tier];
                let cache = cache.as_ref();
                let slow = &slow;
                for w in 0..config.workers_per_tier {
                    std::thread::Builder::new()
                        .name(format!("rambo-serve-t{tier}-w{w}"))
                        .spawn_scoped(scope, move || {
                            run_worker(
                                tier,
                                index,
                                intake,
                                knobs,
                                tier_counters,
                                gate,
                                cache,
                                slow,
                                epoch,
                            );
                        })
                        .expect("spawn evaluator worker");
                }
            }
            let handle = ServerHandle {
                catalog,
                lanes: intakes
                    .into_iter()
                    .zip(counters.iter().zip(gates.iter().zip(&inline_evaluators)))
                    .map(|(tx, (counters, (gate, inline)))| Lane {
                        tx,
                        counters,
                        gate,
                        inline,
                    })
                    .collect(),
                default_mode: config.default_mode,
                scheduler: config.scheduler,
                cache: cache.as_ref(),
                slow: &slow,
                epoch,
            };
            // `handle` (and with it every intake sender) drops here, which
            // disconnects the lanes; workers drain and exit, and the scope
            // joins them before returning.
            f(&handle)
        });
        let latency = LatencyHistogram::new();
        for c in &counters {
            latency.merge(&c.latency);
        }
        let stats = ServerStats {
            tiers: counters
                .iter()
                .enumerate()
                .map(|(t, c)| c.snapshot(catalog.info(t), catalog.block_cache_stats(t)))
                .collect(),
            slow_queries: slow.snapshot(),
            cache: cache.as_ref().map(ResultCache::stats),
            latency,
        };
        (out, stats)
    }
}
