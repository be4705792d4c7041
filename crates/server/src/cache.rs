//! Hot-query result cache: a sharded, byte-bounded LRU over answered
//! queries, invalidated by a catalog version stamp.
//!
//! Sequence workloads (§3.3.1) re-issue the same window queries from many
//! clients; re-probing `B×R` filters for a term set the server answered
//! microseconds ago is pure waste. Entries are keyed by
//! `(tier, canonical term-set key)` — the key is
//! [`rambo_core::canonical_query_key`], order- and multiplicity-insensitive,
//! so permuted or duplicated term lists hit the same entry. Evaluation mode
//! is deliberately *not* part of the key: `Full` returns exactly what the
//! plan-free reference `Sparse` returns (Algorithm 2 ∩/∪ semantics; asserted
//! in the property suites), so either mode may consume a hit produced by the
//! other.
//!
//! The cache is sized in **bytes, not entries** — one broad-tier hit list
//! can outweigh a thousand point lookups — and is an intrusive LRU: a
//! [`FastMap`] indexes into a slot arena that doubles as a doubly-linked recency list, so hit, insert
//! and evict are all O(1) under one short shard lock.
//!
//! Invalidation is O(1): [`ResultCache::bump_version`] increments an atomic
//! stamp; entries carry the version current when their lookup *began* (not
//! when its evaluation finished, so a bump racing a slow evaluation can
//! never be masked), and a lookup that finds a stale entry removes it and
//! reports a miss. Stale entries that are never touched again age out
//! through the LRU tail like any cold entry. Both engines take the whole
//! rule from one method, `ResultCache::get_or_evaluate`.

use rambo_core::DocId;
use rambo_hash::FastMap;
use rambo_workloads::{CacheSnapshot, CacheTelemetry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Sentinel link for the intrusive LRU lists.
const NIL: u32 = u32::MAX;

/// Lock shards. Eight is plenty: the critical section is a hash probe plus
/// a few link writes, and concurrency is bounded by the evaluating threads.
const SHARDS: usize = 8;

/// Accounting overhead charged per resident entry on top of its doc-id
/// payload: key, version stamp, LRU links and the map slot.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// One cached result with its LRU links.
struct Slot {
    tier: u32,
    key: u128,
    version: u64,
    docs: Box<[DocId]>,
    bytes: usize,
    prev: u32,
    next: u32,
}

/// One lock shard: an intrusive-LRU arena with a byte budget.
struct Shard {
    map: FastMap<(u32, u128), u32>,
    slots: Vec<Slot>,
    /// Recycled arena indices (stale removals / evictions free slots).
    free: Vec<u32>,
    head: u32,
    tail: u32,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: FastMap::default(),
            slots: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            bytes: 0,
        }
    }

    fn unlink(&mut self, s: u32) {
        let (prev, next) = (self.slots[s as usize].prev, self.slots[s as usize].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev as usize].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next as usize].prev = prev;
        }
    }

    fn push_front(&mut self, s: u32) {
        self.slots[s as usize].prev = NIL;
        self.slots[s as usize].next = self.head;
        if self.head != NIL {
            self.slots[self.head as usize].prev = s;
        }
        self.head = s;
        if self.tail == NIL {
            self.tail = s;
        }
    }

    /// Unlink + unmap + free a slot, returning its payload bytes.
    fn remove(&mut self, s: u32) -> usize {
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        self.map.remove(&(slot.tier, slot.key));
        slot.docs = Box::new([]);
        let bytes = slot.bytes;
        self.bytes -= bytes;
        self.free.push(s);
        bytes
    }
}

/// Point-in-time view of a [`ResultCache`]: counters, byte budget and the
/// current invalidation version.
#[derive(Debug, Clone, Copy, Default)]
pub struct CacheStats {
    /// Hit/miss/insert/evict/stale counters and the resident-byte gauge.
    pub counters: CacheSnapshot,
    /// Configured byte budget across all shards.
    pub capacity_bytes: u64,
    /// Invalidation stamp at snapshot time (starts at 0, +1 per
    /// [`ResultCache::bump_version`]).
    pub version: u64,
}

impl CacheStats {
    /// Hits over total lookups; 0.0 when no lookups happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        self.counters.hit_ratio()
    }
}

/// Sharded, byte-bounded, version-invalidated LRU of answered queries.
///
/// All methods take `&self`; sharded `Mutex`es make it safe to probe and
/// insert from every evaluating thread concurrently.
pub struct ResultCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total / SHARDS).
    shard_cap: usize,
    version: AtomicU64,
    telemetry: CacheTelemetry,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("capacity_bytes", &(self.shard_cap * SHARDS))
            .field("version", &self.version.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl ResultCache {
    /// A cache holding at most ~`capacity_bytes` of result payload
    /// (apportioned evenly across lock shards; floored so every shard can
    /// hold at least one small entry).
    #[must_use]
    pub fn new(capacity_bytes: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_cap: (capacity_bytes / SHARDS).max(ENTRY_OVERHEAD_BYTES),
            version: AtomicU64::new(0),
            telemetry: CacheTelemetry::new(),
        }
    }

    /// The current invalidation stamp. Read it **before** looking up or
    /// evaluating; pass the same value to [`ResultCache::get`] /
    /// [`ResultCache::insert`] so a bump racing the evaluation invalidates
    /// the entry rather than being masked by it.
    #[must_use]
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::Acquire)
    }

    /// Invalidate every cached result in O(1): bump the stamp so existing
    /// entries fail their version check on next touch (and age out of the
    /// LRU otherwise). Call after re-opening / swapping the catalog.
    pub fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::Release);
    }

    fn shard_of(&self, tier: u32, key: u128) -> &Mutex<Shard> {
        // The key is two mix64 images — its low bits are already uniform.
        let h = (key as u64) ^ ((key >> 64) as u64).rotate_left(17) ^ u64::from(tier);
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Look up a cached result, bumping it to most-recently-used. A hit
    /// whose stamp differs from `version` is removed, counted stale, and
    /// reported as a miss — the cache never serves across a version bump.
    #[must_use]
    pub fn get(&self, tier: u32, key: u128, version: u64) -> Option<Vec<DocId>> {
        let mut shard = self.shard_of(tier, key).lock().expect("cache shard");
        let s = *shard.map.get(&(tier, key))?;
        if shard.slots[s as usize].version != version {
            let bytes = shard.remove(s);
            self.telemetry.record_stale(bytes as u64);
            return None;
        }
        if shard.head != s {
            shard.unlink(s);
            shard.push_front(s);
        }
        self.telemetry.record_hit();
        Some(shard.slots[s as usize].docs.to_vec())
    }

    /// Count a lookup that fell through to evaluation. (Kept separate from
    /// [`ResultCache::get`] so a `None` caused by a disabled probe path is
    /// not miscounted.)
    pub fn record_miss(&self) {
        self.telemetry.record_miss();
    }

    /// Insert an answered query, evicting least-recently-used entries until
    /// the shard fits its budget. `version` must be the stamp read before
    /// the lookup. Oversized results (larger than a whole shard) and
    /// downgrades (an entry for the key already carries a newer stamp) are
    /// skipped.
    pub fn insert(&self, tier: u32, key: u128, version: u64, docs: &[DocId]) {
        let bytes = std::mem::size_of_val(docs) + ENTRY_OVERHEAD_BYTES;
        if bytes > self.shard_cap {
            return;
        }
        let mut shard = self.shard_of(tier, key).lock().expect("cache shard");
        if let Some(&s) = shard.map.get(&(tier, key)) {
            if shard.slots[s as usize].version > version {
                return;
            }
            let freed = shard.remove(s);
            self.telemetry.record_evict(freed as u64);
        }
        while shard.bytes + bytes > self.shard_cap {
            let victim = shard.tail;
            debug_assert_ne!(victim, NIL, "budget admits at least one entry");
            let freed = shard.remove(victim);
            self.telemetry.record_evict(freed as u64);
        }
        let s = if let Some(s) = shard.free.pop() {
            let slot = &mut shard.slots[s as usize];
            slot.tier = tier;
            slot.key = key;
            slot.version = version;
            slot.docs = docs.into();
            slot.bytes = bytes;
            s
        } else {
            let s = u32::try_from(shard.slots.len()).expect("cache slots exceed u32");
            shard.slots.push(Slot {
                tier,
                key,
                version,
                docs: docs.into(),
                bytes,
                prev: NIL,
                next: NIL,
            });
            s
        };
        shard.map.insert((tier, key), s);
        shard.push_front(s);
        shard.bytes += bytes;
        self.telemetry.record_insert(bytes as u64);
    }

    /// The whole cache rule, in order: read the version, probe, and on a
    /// miss evaluate and insert under the version read *first* — so an
    /// invalidation racing `evaluate` leaves the entry stale instead of
    /// masking it. Returns the answer and whether it was a hit.
    pub(crate) fn get_or_evaluate(
        &self,
        tier: u32,
        key: u128,
        evaluate: impl FnOnce() -> Vec<DocId>,
    ) -> (Vec<DocId>, bool) {
        let version = self.version();
        if let Some(docs) = self.get(tier, key, version) {
            return (docs, true);
        }
        self.record_miss();
        let docs = evaluate();
        self.insert(tier, key, version, &docs);
        (docs, false)
    }

    /// Counter snapshot plus capacity and the current version stamp.
    #[must_use]
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            counters: self.telemetry.snapshot(),
            capacity_bytes: (self.shard_cap * SHARDS) as u64,
            version: self.version.load(Ordering::Relaxed),
        }
    }

    /// Resident entries across all shards (tests/diagnostics).
    #[must_use]
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("cache shard").map.len())
            .sum()
    }

    /// True when no entries are resident.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rambo_core::canonical_query_key;

    fn key(terms: &[u64]) -> u128 {
        canonical_query_key(terms)
    }

    #[test]
    fn hit_returns_inserted_docs_and_counts() {
        let cache = ResultCache::new(1 << 16);
        let k = key(&[1, 2, 3]);
        let v = cache.version();
        assert!(cache.get(0, k, v).is_none());
        cache.record_miss();
        cache.insert(0, k, v, &[7, 9]);
        assert_eq!(cache.get(0, k, v), Some(vec![7, 9]));
        // Same terms, different tier: distinct entry.
        assert!(cache.get(1, k, v).is_none());
        let s = cache.stats();
        assert_eq!(s.counters.hits, 1);
        assert_eq!(s.counters.misses, 1);
        assert_eq!(s.counters.insertions, 1);
        assert!(s.counters.bytes > 0);
        assert!((s.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn bump_version_invalidates_without_serving_stale() {
        let cache = ResultCache::new(1 << 16);
        let k = key(&[10, 20]);
        let v0 = cache.version();
        cache.insert(0, k, v0, &[1]);
        cache.bump_version();
        let v1 = cache.version();
        assert_eq!(v1, v0 + 1);
        // The stale entry is removed on touch and reported as a miss.
        assert!(cache.get(0, k, v1).is_none());
        assert_eq!(cache.stats().counters.stale, 1);
        assert!(cache.is_empty());
        // Re-insert under the new version serves again.
        cache.insert(0, k, v1, &[2]);
        assert_eq!(cache.get(0, k, v1), Some(vec![2]));
    }

    /// The race the version rule exists for, as explicit steps on one
    /// thread: an insert lands (bumping the version) while a query is being
    /// evaluated.
    #[test]
    fn a_bump_during_evaluation_leaves_the_entry_stale() {
        let cache = ResultCache::new(1 << 16);
        let k = key(&[4, 2]);
        let raced = cache.get_or_evaluate(0, k, || {
            cache.bump_version();
            vec![7]
        });
        assert_eq!(raced, (vec![7], false), "the answer is still returned");
        let next = cache.get_or_evaluate(0, k, || vec![7, 8]);
        assert_eq!(next, (vec![7, 8], false), "the next lookup misses");
        assert_eq!(cache.stats().counters.stale, 1);
    }

    #[test]
    fn byte_budget_evicts_lru_first() {
        // One shard's budget fits ~3 small entries; keys landing in the same
        // shard evict oldest-first.
        let cache = ResultCache::new(SHARDS * (3 * ENTRY_OVERHEAD_BYTES + 64));
        let v = cache.version();
        let keys: Vec<u128> = (0..32u64).map(|i| key(&[i])).collect();
        for (i, &k) in keys.iter().enumerate() {
            cache.insert(0, k, v, &[i as DocId]);
        }
        let s = cache.stats();
        assert!(s.counters.evictions > 0, "budget must force evictions");
        assert!(s.counters.bytes as usize <= SHARDS * (3 * ENTRY_OVERHEAD_BYTES + 64) * SHARDS);
        // The most recent insertion is still resident.
        assert_eq!(
            cache.get(0, *keys.last().unwrap(), v),
            Some(vec![31 as DocId])
        );
        // Oversized entries are skipped outright.
        let big = vec![0 as DocId; 1 << 20];
        cache.insert(0, key(&[999]), v, &big);
        assert!(cache.get(0, key(&[999]), v).is_none());
    }

    #[test]
    fn reinsert_replaces_and_downgrades_are_skipped() {
        let cache = ResultCache::new(1 << 16);
        let k = key(&[5]);
        let v0 = cache.version();
        cache.insert(0, k, v0, &[1, 2]);
        cache.bump_version();
        let v1 = cache.version();
        cache.insert(0, k, v1, &[3]);
        // A straggler finishing an old-version evaluation must not clobber
        // the fresher entry.
        cache.insert(0, k, v0, &[1, 2]);
        assert_eq!(cache.get(0, k, v1), Some(vec![3]));
        // Same-version re-insert replaces the payload (idempotent refresh).
        cache.insert(0, k, v1, &[4]);
        assert_eq!(cache.get(0, k, v1), Some(vec![4]));
    }
}
