//! Per-tier serving counters, the slow-query log, and their exported
//! snapshot.
//!
//! Every evaluating thread records into lock-free atomics (one relaxed
//! increment per event, a [`LatencyHistogram`] bucket bump per completion);
//! [`ServerStats`] is the read side — a plain-data snapshot safe to take
//! while the server runs and returned when its scope ends. The slow-query log is
//! the one non-atomic recorder: a small mutex-guarded keep-the-worst buffer
//! whose fast path (request faster than the current floor) is a single
//! relaxed load.

use crate::cache::{CacheStats, ResultCache};
use crate::catalog::{Catalog, TierInfo};
use rambo_bitvec::BlockCacheSnapshot;
use rambo_workloads::stats::LatencyHistogram;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Live counters for one tier lane. All increments are relaxed: counters are
/// monotone event counts with no cross-counter invariant to order.
#[derive(Debug, Default)]
pub(crate) struct TierCounters {
    /// Requests admitted (routed to this tier).
    pub accepted: AtomicU64,
    /// Requests answered (evaluated or from cache).
    pub completed: AtomicU64,
    /// Requests answered `DeadlineExceeded` unevaluated: their deadline had
    /// passed at admission.
    pub expired: AtomicU64,
    /// Requests evaluated (on the thread that asked).
    pub evaluated: AtomicU64,
    /// Requests answered from the result cache without any evaluation.
    pub cache_hits: AtomicU64,
    /// Total documents returned (hit counter).
    pub hits: AtomicU64,
    /// Submit→completion latency of answered requests.
    pub latency: LatencyHistogram,
}

impl TierCounters {
    /// One answered request: its documents, its completion, its latency.
    pub(crate) fn record_completion(&self, docs: usize, latency: Duration) {
        self.hits.fetch_add(docs as u64, Ordering::Relaxed);
        self.completed.fetch_add(1, Ordering::Relaxed);
        self.latency.record(latency);
    }

    /// Zero every counter (monitoring-window boundary). Not atomic across
    /// counters; concurrent recording simply lands in the new window.
    pub(crate) fn clear(&self) {
        for c in [
            &self.accepted,
            &self.completed,
            &self.expired,
            &self.evaluated,
            &self.cache_hits,
            &self.hits,
        ] {
            c.store(0, Ordering::Relaxed);
        }
        self.latency.clear();
    }

    pub(crate) fn snapshot(
        &self,
        info: &TierInfo,
        block_cache: Option<BlockCacheSnapshot>,
    ) -> TierStats {
        TierStats {
            block_cache,
            tier: info.tier,
            buckets: info.buckets,
            predicted_fpr: info.predicted_fpr,
            size_bytes: info.size_bytes,
            accepted: self.accepted.load(Ordering::Relaxed),
            completed: self.completed.load(Ordering::Relaxed),
            expired: self.expired.load(Ordering::Relaxed),
            evaluated: self.evaluated.load(Ordering::Relaxed),
            cache_hits: self.cache_hits.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            mean: self.latency.mean(),
            p50: self.latency.quantile(0.50),
            p99: self.latency.quantile(0.99),
            max: self.latency.max(),
        }
    }
}

/// Snapshot of one tier's serving counters.
#[derive(Debug, Clone)]
pub struct TierStats {
    /// Tier position in the catalog (0 = most accurate).
    pub tier: usize,
    /// Bucket count of the tier's index version.
    pub buckets: u64,
    /// The tier's predicted per-document FPR (the selection key).
    pub predicted_fpr: f64,
    /// In-memory payload size of the tier.
    pub size_bytes: usize,
    /// Requests admitted (routed to this tier).
    pub accepted: u64,
    /// Requests answered (evaluated or from cache).
    pub completed: u64,
    /// Requests past their deadline at admission, answered unevaluated.
    pub expired: u64,
    /// Requests evaluated (on the thread that asked).
    pub evaluated: u64,
    /// Requests answered from the result cache.
    pub cache_hits: u64,
    /// Total documents returned.
    pub hits: u64,
    /// Block-cache traffic of this tier's file-backed payload (hits,
    /// misses, evictions); `None` when the tier serves from memory.
    pub block_cache: Option<BlockCacheSnapshot>,
    /// Mean submit→completion latency.
    pub mean: Duration,
    /// Median submit→completion latency (log-linear histogram, ≤12.5% off).
    pub p50: Duration,
    /// 99th-percentile submit→completion latency.
    pub p99: Duration,
    /// Worst observed latency (exact).
    pub max: Duration,
}

/// One entry of the slow-query log: where the worst evaluated requests
/// spent their time. `eval` vs `total` splits evaluation proper from the
/// routing and cache probe around it — long evals want a smaller tier or
/// fewer terms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlowQuery {
    /// Tier that served the request.
    pub tier: usize,
    /// Number of query terms (as submitted, before dedup).
    pub terms: usize,
    /// Evaluation time proper.
    pub eval: Duration,
    /// Submission → completion.
    pub total: Duration,
}

/// Keep-the-worst ring of the `cap` highest-latency requests.
///
/// Recording is O(cap) only when the new request actually displaces an
/// entry; the common case — a request faster than the slowest retained one
/// while the log is full — is rejected by a single relaxed atomic load of
/// the current floor.
#[derive(Debug)]
pub(crate) struct SlowQueryLog {
    cap: usize,
    /// Smallest `total` (ns) in a *full* log; 0 while the log has room, so
    /// the fast path never rejects a request that would fit.
    floor_ns: AtomicU64,
    entries: Mutex<Vec<SlowQuery>>,
}

impl SlowQueryLog {
    pub(crate) fn new(cap: usize) -> Self {
        Self {
            cap,
            floor_ns: AtomicU64::new(0),
            entries: Mutex::new(Vec::with_capacity(cap)),
        }
    }

    pub(crate) fn record(&self, entry: SlowQuery) {
        if self.cap == 0 {
            return;
        }
        let total_ns = u64::try_from(entry.total.as_nanos()).unwrap_or(u64::MAX);
        if total_ns <= self.floor_ns.load(Ordering::Relaxed) {
            return;
        }
        let mut entries = self.entries.lock().expect("slow-query log");
        if entries.len() < self.cap {
            entries.push(entry);
        } else {
            let (slot, floor) = entries
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.total)
                .map(|(i, e)| (i, e.total))
                .expect("full log is non-empty");
            if entry.total <= floor {
                return; // raced below the floor between load and lock
            }
            entries[slot] = entry;
        }
        if entries.len() == self.cap {
            let floor = entries.iter().map(|e| e.total).min().expect("non-empty");
            self.floor_ns.store(
                u64::try_from(floor.as_nanos()).unwrap_or(u64::MAX),
                Ordering::Relaxed,
            );
        }
    }

    /// Forget every retained entry (monitoring-window boundary).
    pub(crate) fn clear(&self) {
        let mut entries = self.entries.lock().expect("slow-query log");
        entries.clear();
        self.floor_ns.store(0, Ordering::Relaxed);
    }

    /// The retained entries, worst first.
    pub(crate) fn snapshot(&self) -> Vec<SlowQuery> {
        let mut entries = self.entries.lock().expect("slow-query log").clone();
        entries.sort_by_key(|e| std::cmp::Reverse(e.total));
        entries
    }
}

/// Snapshot of every tier's counters, tier 0 first, plus the slow-query log
/// and (when enabled) the result-cache counters.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Per-tier counters.
    pub tiers: Vec<TierStats>,
    /// The worst-latency requests observed, worst first (empty when the log
    /// is disabled).
    pub slow_queries: Vec<SlowQuery>,
    /// Result-cache counters; `None` when the cache is disabled.
    pub cache: Option<CacheStats>,
    /// Submit→completion latency aggregated over every tier (bucket-exact
    /// merge of the per-tier histograms). This is the serving boundary:
    /// cache probe and evaluation are inside, the socket and the client's
    /// wake-up are not — on an oversubscribed host, client-side tails
    /// measure the OS scheduler instead.
    pub latency: LatencyHistogram,
}

impl ServerStats {
    /// Snapshot the per-tier `counters` (tier order), the slow-query log and
    /// the cache counters of a server over `catalog`.
    pub(crate) fn snapshot<'a>(
        catalog: &Catalog,
        counters: impl Iterator<Item = &'a TierCounters>,
        slow: &SlowQueryLog,
        cache: Option<&ResultCache>,
    ) -> Self {
        let latency = LatencyHistogram::new();
        let tiers = counters
            .enumerate()
            .map(|(t, c)| {
                latency.merge(&c.latency);
                c.snapshot(catalog.info(t), catalog.block_cache_stats(t))
            })
            .collect();
        Self {
            tiers,
            slow_queries: slow.snapshot(),
            cache: cache.map(ResultCache::stats),
            latency,
        }
    }

    /// Total requests answered across tiers.
    #[must_use]
    pub fn total_completed(&self) -> u64 {
        self.tiers.iter().map(|t| t.completed).sum()
    }

    /// Always 0: this engine rejects nothing at admission. Kept for the
    /// `benchmark/` harness.
    #[doc(hidden)]
    #[must_use]
    pub fn total_rejected(&self) -> u64 {
        0
    }

    /// Always 0: there are no worker batches. Kept for the `benchmark/`
    /// harness.
    #[doc(hidden)]
    #[must_use]
    pub fn total_batches(&self) -> u64 {
        0
    }

    /// Total evaluated requests across tiers (the sum of
    /// [`TierStats::evaluated`]; the name predates the one evaluation path).
    #[must_use]
    pub fn total_inline(&self) -> u64 {
        self.tiers.iter().map(|t| t.evaluated).sum()
    }

    /// Total result-cache hits across tiers.
    #[must_use]
    pub fn total_cache_hits(&self) -> u64 {
        self.tiers.iter().map(|t| t.cache_hits).sum()
    }
}

/// Plain-text rendering — one line per tier, one for the cache, one per
/// slow-query entry. This is the payload of the TCP front's `STATS` frame.
impl fmt::Display for ServerStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for t in &self.tiers {
            writeln!(
                f,
                "tier {}: buckets={} fpr={:.3e} accepted={} completed={} expired={} \
                 inline={} cache_hits={} docs={}",
                t.tier,
                t.buckets,
                t.predicted_fpr,
                t.accepted,
                t.completed,
                t.expired,
                t.evaluated,
                t.cache_hits,
                t.hits,
            )?;
            writeln!(
                f,
                "tier {}: latency mean={}us p50={}us p99={}us max={}us",
                t.tier,
                t.mean.as_micros(),
                t.p50.as_micros(),
                t.p99.as_micros(),
                t.max.as_micros(),
            )?;
            if let Some(b) = &t.block_cache {
                writeln!(
                    f,
                    "tier {}: blocks hits={} misses={} evictions={} hit_ratio={:.3}",
                    t.tier,
                    b.hits,
                    b.misses,
                    b.evictions,
                    b.hit_ratio(),
                )?;
            }
        }
        writeln!(
            f,
            "overall: latency mean={}us p50={}us p99={}us max={}us",
            self.latency.mean().as_micros(),
            self.latency.quantile(0.50).as_micros(),
            self.latency.quantile(0.99).as_micros(),
            self.latency.max().as_micros(),
        )?;
        match &self.cache {
            Some(c) => writeln!(
                f,
                "cache: hits={} misses={} hit_ratio={:.3} insertions={} evictions={} \
                 stale={} bytes={}/{} version={}",
                c.counters.hits,
                c.counters.misses,
                c.hit_ratio(),
                c.counters.insertions,
                c.counters.evictions,
                c.counters.stale,
                c.counters.bytes,
                c.capacity_bytes,
                c.version,
            )?,
            None => writeln!(f, "cache: disabled")?,
        }
        for (i, q) in self.slow_queries.iter().enumerate() {
            writeln!(
                f,
                "slow {i}: tier={} terms={} eval={}us total={}us",
                q.tier,
                q.terms,
                q.eval.as_micros(),
                q.total.as_micros(),
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(total_us: u64) -> SlowQuery {
        SlowQuery {
            tier: 0,
            terms: 3,
            eval: Duration::from_micros(total_us),
            total: Duration::from_micros(total_us),
        }
    }

    #[test]
    fn slow_log_keeps_the_worst_n() {
        let log = SlowQueryLog::new(3);
        for us in [10, 50, 20, 5, 80, 40, 1] {
            log.record(entry(us));
        }
        let worst: Vec<u64> = log
            .snapshot()
            .iter()
            .map(|e| e.total.as_micros() as u64)
            .collect();
        assert_eq!(worst, vec![80, 50, 40]);
    }

    #[test]
    fn slow_log_disabled_records_nothing() {
        let log = SlowQueryLog::new(0);
        log.record(entry(100));
        assert!(log.snapshot().is_empty());
    }
}
