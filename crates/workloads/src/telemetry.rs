//! Result-cache telemetry: lock-free hit/miss/eviction counters and a
//! resident-bytes gauge for the serving engine's cache.

use std::sync::atomic::{AtomicU64, Ordering};

/// Lock-free counters for a result cache: every recorder is one relaxed
/// atomic op, safe to call from concurrent admission threads and batch
/// workers alike.
///
/// The byte gauge tracks resident payload size so callers can enforce a
/// byte budget (caches here are sized in bytes, not entries — a single
/// broad-tier hit list can outweigh a thousand point lookups).
#[derive(Debug, Default)]
pub struct CacheTelemetry {
    hits: AtomicU64,
    misses: AtomicU64,
    insertions: AtomicU64,
    evictions: AtomicU64,
    stale: AtomicU64,
    bytes: AtomicU64,
}

/// Point-in-time copy of a [`CacheTelemetry`]'s counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheSnapshot {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to evaluation.
    pub misses: u64,
    /// Entries inserted.
    pub insertions: u64,
    /// Entries evicted to stay under the byte budget.
    pub evictions: u64,
    /// Entries dropped because their stamped version lagged the catalog.
    pub stale: u64,
    /// Resident payload bytes at snapshot time.
    pub bytes: u64,
}

impl CacheSnapshot {
    /// Hits over total lookups; 0.0 when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Counter-wise sum of two snapshots — aggregate several caches (or
    /// the same cache across monitoring windows) into one set of totals.
    /// Saturating, so merging cannot panic on adversarial inputs.
    #[must_use]
    pub fn merged(&self, other: &Self) -> Self {
        Self {
            hits: self.hits.saturating_add(other.hits),
            misses: self.misses.saturating_add(other.misses),
            insertions: self.insertions.saturating_add(other.insertions),
            evictions: self.evictions.saturating_add(other.evictions),
            stale: self.stale.saturating_add(other.stale),
            bytes: self.bytes.saturating_add(other.bytes),
        }
    }
}

impl CacheTelemetry {
    /// Zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Count a lookup answered from the cache.
    pub fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    /// Count a lookup that missed (including version-stale drops, which
    /// additionally call [`Self::record_stale`]).
    pub fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Count an insertion of `bytes` resident payload.
    pub fn record_insert(&self, bytes: u64) {
        self.insertions.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Count a budget eviction freeing `bytes`.
    pub fn record_evict(&self, bytes: u64) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Count a version-stale drop freeing `bytes`.
    pub fn record_stale(&self, bytes: u64) {
        self.stale.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Copy out every counter.
    #[must_use]
    pub fn snapshot(&self) -> CacheSnapshot {
        CacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            stale: self.stale.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
        }
    }

    /// Reset every counter to zero.
    pub fn clear(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.insertions.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.stale.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cache_telemetry_counts_and_byte_gauge_balance() {
        let t = CacheTelemetry::new();
        t.record_miss();
        t.record_insert(100);
        t.record_insert(40);
        t.record_hit();
        t.record_hit();
        t.record_evict(100);
        t.record_miss();
        t.record_stale(40);
        let s = t.snapshot();
        assert_eq!(s.hits, 2);
        assert_eq!(s.misses, 2);
        assert_eq!(s.insertions, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.stale, 1);
        assert_eq!(s.bytes, 0);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(CacheSnapshot::default().hit_ratio(), 0.0);
        t.clear();
        assert_eq!(t.snapshot(), CacheSnapshot::default());
    }

    #[test]
    fn snapshot_merge_sums_counters() {
        let a = CacheSnapshot {
            hits: 3,
            misses: 1,
            insertions: 2,
            evictions: 1,
            stale: 0,
            bytes: 100,
        };
        let b = CacheSnapshot {
            hits: 1,
            misses: 3,
            insertions: 1,
            evictions: 0,
            stale: 2,
            bytes: 50,
        };
        let m = a.merged(&b);
        assert_eq!(m.hits, 4);
        assert_eq!(m.misses, 4);
        assert_eq!(m.insertions, 3);
        assert_eq!(m.evictions, 1);
        assert_eq!(m.stale, 2);
        assert_eq!(m.bytes, 150);
        assert!((m.hit_ratio() - 0.5).abs() < 1e-12);
        assert_eq!(
            CacheSnapshot::default().merged(&CacheSnapshot::default()),
            CacheSnapshot::default()
        );
    }
}
