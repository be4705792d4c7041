//! File-backed word storage with an on-demand block cache — the paged
//! loading tier behind [`crate::WordStore`]'s owned/view backends.
//!
//! A serialized catalog can be far larger than RAM (the paper's headline is
//! 170TB on disk); opening it must read *metadata only*, and queries must
//! fault in just the rows they probe. [`PagedFile`] wraps one open catalog
//! file plus a sharded, byte-budgeted block cache; [`PagedWords`] is one
//! matrix payload inside that file, exposing bucket-row-aligned reads:
//! blocks are a whole number of rows (`stride` words), so a probed row
//! never straddles two pages and a [`PageGuard`] can hand out one
//! contiguous `&[u64]` slice per row.
//!
//! The cache reuses the intrusive-LRU shape proven by the server's
//! `ResultCache`: a map indexes into a slot arena that doubles as a
//! doubly-linked recency list, so hit, insert and evict are all O(1) under
//! one short shard lock. It is sized in **bytes, not blocks**, and each
//! resident block remembers its owning tier's [`BlockCacheCounters`] so an
//! eviction is charged to the tier that loaded it, not the tier that
//! triggered it.
//!
//! Words are decoded from little-endian bytes at fault time (an explicit
//! conversion, unlike the zero-copy [`crate::WordView`] which requires an
//! LE target), so the paged path works on any endianness.

use crate::error::DecodeError;
use std::collections::HashMap;
use std::fs::File;
use std::io::{self, Read, Seek, SeekFrom};
use std::ops::Deref;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Sentinel link for the intrusive LRU lists.
const NIL: u32 = u32::MAX;

/// Lock shards — same count as the result cache; the critical section is a
/// hash probe plus a few link writes.
const SHARDS: usize = 8;

/// Accounting overhead charged per resident block on top of its word
/// payload: key, LRU links, owner pointer and the map slot.
const ENTRY_OVERHEAD_BYTES: usize = 64;

/// Target page size in words (8 KiB) — rounded up to a whole number of
/// rows so a row read never crosses a page.
const TARGET_BLOCK_WORDS: usize = 1024;

/// Per-tier block-cache traffic counters (lock-free increments).
#[derive(Debug, Default)]
pub struct BlockCacheCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BlockCacheCounters {
    /// Fresh zeroed counters.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn record_hit(&self) {
        self.hits.fetch_add(1, Ordering::Relaxed);
    }

    fn record_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    fn record_evict(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time counter values.
    #[must_use]
    pub fn snapshot(&self) -> BlockCacheSnapshot {
        BlockCacheSnapshot {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// Point-in-time view of one tier's block-cache traffic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BlockCacheSnapshot {
    /// Block reads served from the cache.
    pub hits: u64,
    /// Block reads that faulted in from the file.
    pub misses: u64,
    /// Resident blocks of this tier evicted by the byte budget.
    pub evictions: u64,
}

impl BlockCacheSnapshot {
    /// Hits over total block reads; 0.0 when no reads happened.
    #[must_use]
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

/// One resident block with its LRU links.
struct Slot {
    key: u128,
    block: Arc<[u64]>,
    bytes: usize,
    owner: Arc<BlockCacheCounters>,
    prev: u32,
    next: u32,
}

/// One lock shard: an intrusive-LRU arena with a byte budget.
struct Shard {
    map: HashMap<u128, u32>,
    slots: Vec<Slot>,
    /// Recycled arena indices (evictions free slots).
    free: Vec<u32>,
    head: u32,
    tail: u32,
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Self {
            map: HashMap::new(),
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

    /// Bump a resident slot to most-recently-used.
    fn touch(&mut self, s: u32) {
        if self.head != s {
            self.unlink(s);
            self.push_front(s);
        }
    }

    /// Unlink + unmap + free a slot, dropping its block payload and
    /// charging the eviction to the block's owner.
    fn evict(&mut self, s: u32) {
        self.unlink(s);
        let slot = &mut self.slots[s as usize];
        self.map.remove(&slot.key);
        slot.block = Arc::from(Vec::new());
        slot.owner.record_evict();
        self.bytes -= slot.bytes;
        self.free.push(s);
    }
}

/// Sharded, byte-bounded LRU of file blocks, shared by every matrix payload
/// of one [`PagedFile`].
pub(crate) struct PageCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total / SHARDS).
    shard_cap: usize,
}

impl PageCache {
    fn new(capacity_bytes: usize) -> Self {
        Self {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_cap: (capacity_bytes / SHARDS).max(ENTRY_OVERHEAD_BYTES),
        }
    }

    fn shard_of(&self, key: u128) -> &Mutex<Shard> {
        // Block numbers are small sequential integers — mix before sharding.
        let mut h = (key as u64) ^ ((key >> 64) as u64).rotate_left(29);
        h ^= h >> 33;
        h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
        h ^= h >> 29;
        &self.shards[(h as usize) & (SHARDS - 1)]
    }

    /// Look up a resident block, bumping it to most-recently-used.
    fn get(&self, key: u128) -> Option<Arc<[u64]>> {
        let mut shard = self.shard_of(key).lock().expect("page cache shard");
        let s = *shard.map.get(&key)?;
        shard.touch(s);
        Some(shard.slots[s as usize].block.clone())
    }

    /// Admit a freshly loaded block, evicting least-recently-used blocks
    /// until the shard fits its budget. Blocks larger than a whole shard
    /// are not admitted (the caller still gets its loaded copy), and a block
    /// already resident is only bumped: a second fault of the same block
    /// evicts nothing.
    fn insert(&self, key: u128, block: &Arc<[u64]>, owner: &Arc<BlockCacheCounters>) {
        let bytes = std::mem::size_of_val(&block[..]) + ENTRY_OVERHEAD_BYTES;
        if bytes > self.shard_cap {
            return;
        }
        let mut shard = self.shard_of(key).lock().expect("page cache shard");
        if let Some(&s) = shard.map.get(&key) {
            // A concurrent fault already admitted this block.
            shard.touch(s);
            return;
        }
        while shard.bytes + bytes > self.shard_cap {
            let victim = shard.tail;
            debug_assert_ne!(victim, NIL, "budget admits at least one block");
            shard.evict(victim);
        }
        let s = if let Some(s) = shard.free.pop() {
            let slot = &mut shard.slots[s as usize];
            slot.key = key;
            slot.block = block.clone();
            slot.bytes = bytes;
            slot.owner = owner.clone();
            s
        } else {
            let s = u32::try_from(shard.slots.len()).expect("page cache slots exceed u32");
            shard.slots.push(Slot {
                key,
                block: block.clone(),
                bytes,
                owner: owner.clone(),
                prev: NIL,
                next: NIL,
            });
            s
        };
        shard.map.insert(key, s);
        shard.push_front(s);
        shard.bytes += bytes;
    }

    /// Resident blocks across all shards (tests/diagnostics).
    fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| s.lock().expect("page cache shard").map.len())
            .sum()
    }
}

/// One open catalog file plus the block cache its matrix payloads share.
///
/// Opening reads nothing but the file length; all payload traffic goes
/// through [`PagedWords`] faults. Each payload claims a unique *region* id
/// so block keys from different matrices never collide in the shared cache.
pub struct PagedFile {
    file: Mutex<File>,
    len: u64,
    cache: PageCache,
    next_region: AtomicU64,
}

impl std::fmt::Debug for PagedFile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedFile")
            .field("len", &self.len)
            .field("resident_blocks", &self.cache.len())
            .finish_non_exhaustive()
    }
}

impl PagedFile {
    /// Open a catalog file for paged access with a block cache of about
    /// `cache_bytes` (apportioned across lock shards).
    ///
    /// # Errors
    /// Any I/O error from opening or stat-ing the file.
    pub fn open(path: impl AsRef<Path>, cache_bytes: usize) -> io::Result<Arc<Self>> {
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        Ok(Arc::new(Self {
            file: Mutex::new(file),
            len,
            cache: PageCache::new(cache_bytes),
            next_region: AtomicU64::new(0),
        }))
    }

    /// Total file length in bytes.
    #[must_use]
    pub fn len(&self) -> u64 {
        self.len
    }

    /// True for a zero-length file.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read `len` raw bytes at `offset`, bypassing the block cache — for
    /// headers and other metadata read once at open.
    ///
    /// # Errors
    /// Any I/O error; reading past the end yields `UnexpectedEof`.
    pub fn read_bytes(&self, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        let mut file = self.file.lock().expect("paged file");
        file.seek(SeekFrom::Start(offset))?;
        file.read_exact(&mut buf)?;
        Ok(buf)
    }

    /// Read `n_words` little-endian words at byte `offset`.
    fn read_words(&self, offset: u64, n_words: usize) -> io::Result<Vec<u64>> {
        let bytes = self.read_bytes(offset, n_words * 8)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("chunk of 8")))
            .collect())
    }

    /// Resident blocks across the cache (tests/diagnostics).
    #[must_use]
    pub fn resident_blocks(&self) -> usize {
        self.cache.len()
    }
}

/// One matrix word payload inside a [`PagedFile`], faulted in
/// row-aligned blocks on demand.
///
/// `stride` is the row length in words; blocks are `stride` rounded up to
/// ~`TARGET_BLOCK_WORDS` (a whole number of rows), so any in-row read is
/// one contiguous slice of one block.
#[derive(Clone)]
pub struct PagedWords {
    file: Arc<PagedFile>,
    /// Cache-key namespace for this payload within the shared file cache.
    region: u64,
    /// Byte offset of word 0 in the file.
    start: u64,
    /// Total payload words.
    words: usize,
    /// Words per row.
    stride: usize,
    /// Words per cache block (a multiple of `stride`).
    block_words: usize,
    counters: Arc<BlockCacheCounters>,
}

impl std::fmt::Debug for PagedWords {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PagedWords")
            .field("start", &self.start)
            .field("words", &self.words)
            .field("stride", &self.stride)
            .field("block_words", &self.block_words)
            .finish_non_exhaustive()
    }
}

impl PagedWords {
    /// Describe a payload of `words` words starting at byte `start` of
    /// `file`, organized in rows of `stride` words. Faulted blocks are
    /// charged to `counters` (one set per catalog tier).
    ///
    /// # Errors
    /// [`DecodeError`] when the described range overruns the file, `stride`
    /// is zero, or `words` is not a whole number of rows.
    pub fn new(
        file: Arc<PagedFile>,
        start: u64,
        words: usize,
        stride: usize,
        counters: Arc<BlockCacheCounters>,
    ) -> Result<Self, DecodeError> {
        if stride == 0 || !words.is_multiple_of(stride) {
            return Err(DecodeError::new("paged payload is not whole rows"));
        }
        let end = (words as u64)
            .checked_mul(8)
            .and_then(|b| b.checked_add(start))
            .ok_or_else(|| DecodeError::new("paged payload size overflow"))?;
        if end > file.len() {
            return Err(DecodeError::new("paged payload overruns file"));
        }
        let rows_per_block = (TARGET_BLOCK_WORDS / stride).max(1);
        Ok(Self {
            region: file.next_region.fetch_add(1, Ordering::Relaxed),
            block_words: rows_per_block * stride,
            file,
            start,
            words,
            stride,
            counters,
        })
    }

    /// Total payload words.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words
    }

    /// True when the payload holds no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words == 0
    }

    /// Words per cache block (tests/diagnostics).
    #[must_use]
    pub fn block_words(&self) -> usize {
        self.block_words
    }

    /// The tier counters charged for this payload's cache traffic.
    #[must_use]
    pub fn counters(&self) -> &Arc<BlockCacheCounters> {
        &self.counters
    }

    /// Fetch the block containing word `first`, from cache or file.
    fn fetch(&self, block_no: usize) -> Arc<[u64]> {
        let key = (u128::from(self.region) << 64) | block_no as u128;
        if let Some(block) = self.file.cache.get(key) {
            self.counters.record_hit();
            return block;
        }
        self.counters.record_miss();
        let first = block_no * self.block_words;
        let n = self.block_words.min(self.words - first);
        let words = self
            .file
            .read_words(self.start + (first as u64) * 8, n)
            .expect("paged catalog read failed (file changed under the process?)");
        let block: Arc<[u64]> = words.into();
        self.file.cache.insert(key, &block, &self.counters);
        block
    }

    /// Read `n` words at `word_off` — an in-row range: `n ≤ stride` and the
    /// range may not cross a row boundary, which guarantees it lives in one
    /// block. Returns a guard dereferencing to the word slice.
    ///
    /// # Panics
    /// Panics when the range overruns the payload or crosses a block, or if
    /// the underlying file read fails (the catalog file changed or vanished
    /// under the process — unrecoverable for a serving probe path).
    #[must_use]
    pub fn read(&self, word_off: usize, n: usize) -> PageGuard {
        assert!(word_off + n <= self.words, "paged read out of range");
        let block_no = word_off / self.block_words;
        let within = word_off - block_no * self.block_words;
        assert!(within + n <= self.block_words, "paged read crosses a page");
        PageGuard {
            block: self.fetch(block_no),
            start: within,
            len: n,
        }
    }

    /// Read a single word (cached like any block access).
    ///
    /// # Panics
    /// Panics when `word_off` is out of range or on a failed file read.
    #[must_use]
    pub fn read_word(&self, word_off: usize) -> u64 {
        self.read(word_off, 1)[0]
    }
}

/// A borrowed view of words inside a resident cache block.
pub struct PageGuard {
    block: Arc<[u64]>,
    start: usize,
    len: usize,
}

impl Deref for PageGuard {
    type Target = [u64];

    fn deref(&self) -> &[u64] {
        &self.block[self.start..self.start + self.len]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    /// Write a file of `n` little-endian words `f(i)` and open it paged.
    fn paged_fixture(
        name: &str,
        n: usize,
        cache_bytes: usize,
    ) -> (Arc<PagedFile>, std::path::PathBuf) {
        let path =
            std::env::temp_dir().join(format!("rambo_paged_{}_{}", std::process::id(), name));
        let mut f = File::create(&path).unwrap();
        for i in 0..n {
            f.write_all(&(i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15).to_le_bytes())
                .unwrap();
        }
        f.flush().unwrap();
        (PagedFile::open(&path, cache_bytes).unwrap(), path)
    }

    fn expect_word(i: usize) -> u64 {
        (i as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
    }

    #[test]
    fn reads_match_file_and_count_hits() {
        let (file, path) = paged_fixture("basic", 4096, 1 << 20);
        let counters = Arc::new(BlockCacheCounters::new());
        let pw = PagedWords::new(file.clone(), 0, 4096, 8, counters.clone()).unwrap();
        assert_eq!(pw.block_words(), 1024);
        for row in 0..512 {
            let g = pw.read(row * 8, 8);
            for w in 0..8 {
                assert_eq!(g[w], expect_word(row * 8 + w), "row {row} word {w}");
            }
        }
        let snap = counters.snapshot();
        assert_eq!(snap.misses, 4, "4096 words / 1024-word blocks");
        assert_eq!(snap.hits, 512 - 4);
        assert!(snap.hit_ratio() > 0.9);
        assert_eq!(pw.read_word(77), expect_word(77));
        drop(file);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn byte_budget_evicts_and_charges_owner() {
        // Each shard's budget fits exactly one 8 KiB block; touching 16
        // blocks lands ≥ 2 in some shard and forces evictions.
        let (file, path) = paged_fixture("evict", 16 * 1024, SHARDS * (1024 * 8 + 64));
        let counters = Arc::new(BlockCacheCounters::new());
        let pw = PagedWords::new(file.clone(), 0, 16 * 1024, 8, counters.clone()).unwrap();
        for pass in 0..2 {
            for block in 0..16 {
                let g = pw.read(block * 1024, 8);
                assert_eq!(g[0], expect_word(block * 1024), "pass {pass}");
            }
        }
        let snap = counters.snapshot();
        assert!(snap.evictions > 0, "tiny budget must evict: {snap:?}");
        assert!(snap.misses > 16, "second pass re-faults evicted blocks");
        assert!(file.resident_blocks() <= SHARDS);
        drop(file);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn readmitting_a_resident_block_is_not_an_eviction() {
        let cache = PageCache::new(1 << 20);
        let counters = Arc::new(BlockCacheCounters::new());
        let block: Arc<[u64]> = vec![7u64; 16].into();
        cache.insert(42, &block, &counters);
        cache.insert(42, &block, &counters);
        assert_eq!(cache.len(), 1);
        assert_eq!(counters.snapshot().evictions, 0);
    }

    #[test]
    fn regions_do_not_collide_and_metadata_reads_bypass_cache() {
        let (file, path) = paged_fixture("regions", 2048, 1 << 20);
        let c1 = Arc::new(BlockCacheCounters::new());
        let c2 = Arc::new(BlockCacheCounters::new());
        // Two payloads over different windows of the same file.
        let a = PagedWords::new(file.clone(), 0, 1024, 4, c1.clone()).unwrap();
        let b = PagedWords::new(file.clone(), 1024 * 8, 1024, 4, c2.clone()).unwrap();
        assert_eq!(a.read_word(0), expect_word(0));
        assert_eq!(b.read_word(0), expect_word(1024));
        assert_eq!(c1.snapshot().misses, 1);
        assert_eq!(c2.snapshot().misses, 1);
        let raw = file.read_bytes(8, 8).unwrap();
        assert_eq!(u64::from_le_bytes(raw.try_into().unwrap()), expect_word(1));
        assert_eq!(
            c1.snapshot().misses + c2.snapshot().misses,
            2,
            "read_bytes is uncached"
        );
        drop((a, b, file));
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn constructor_rejects_bad_geometry() {
        let (file, path) = paged_fixture("geom", 64, 1 << 16);
        let c = Arc::new(BlockCacheCounters::new());
        assert!(PagedWords::new(file.clone(), 0, 64, 0, c.clone()).is_err());
        assert!(PagedWords::new(file.clone(), 0, 63, 8, c.clone()).is_err());
        assert!(
            PagedWords::new(file.clone(), 8, 64, 8, c.clone()).is_err(),
            "overruns file"
        );
        assert!(PagedWords::new(file.clone(), 0, 64, 8, c).is_ok());
        drop(file);
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn wide_rows_get_single_row_blocks() {
        let n = 4 * 2000;
        let (file, path) = paged_fixture("wide", n, 1 << 20);
        let c = Arc::new(BlockCacheCounters::new());
        // stride 2000 > TARGET_BLOCK_WORDS → one row per block.
        let pw = PagedWords::new(file.clone(), 0, n, 2000, c).unwrap();
        assert_eq!(pw.block_words(), 2000);
        let g = pw.read(3 * 2000, 2000);
        assert_eq!(g[1999], expect_word(4 * 2000 - 1));
        drop(file);
        std::fs::remove_file(path).ok();
    }
}
