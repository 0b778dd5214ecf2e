//! A sharded LRU chunk cache wrapping any [`ChunkStore`].
//!
//! The thesis' mini-benchmark (§6.3) shows APR cost is dominated by
//! back-end round trips, and repeated queries over the same array
//! re-fetch the same chunks. [`CachedChunkStore`] keeps decoded chunk
//! payloads resident under a byte budget, keyed `(array_id, chunk_id)`:
//!
//! * **write-through** — `put_chunk` updates the cache as well as the
//!   back-end, so a freshly stored array is immediately warm;
//! * **invalidation** — `delete_array` / `begin_array` drop every
//!   cached chunk of that array, so re-storing under the same id can
//!   never serve stale bytes;
//! * **sharding** — entries hash across independently locked shards,
//!   so concurrent readers (the parallel retrieval pipeline) rarely
//!   contend on the same mutex;
//! * **composition** — the wrapper is itself a [`ChunkStore`] (and a
//!   [`SharedChunkRead`] when the inner store is), so it stacks above
//!   any back-end, the sharded store or the fault injector.
//!
//! Cached payloads are post-CRC bytes as stored: a hit skips both the
//! back-end statement and the checksum pass. For `SCC1` codec frames
//! ([`crate::codec`]) the cached bytes are still compressed — but the
//! budget charges each entry at its *uncompressed* size, since that is
//! the data volume a hit keeps hot for readers (see
//! [`codec::charged_size`]). Corruption injected behind the cache (via
//! [`RawChunkAccess`]) invalidates the touched key so fault-injection
//! tests still see the damage.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ssdm_obs as obs;

use crate::codec;
use crate::store::{
    Capabilities, ChunkStore, CompositeRows, IoStats, RawChunkAccess, SharedChunkRead, StorageError,
};

/// Number of independently locked shards. A small power of two: enough
/// to keep parallel workers off each other's locks, small enough that
/// per-shard budgets stay meaningful for modest cache sizes.
const SHARDS: usize = 8;

/// Upper bound on speculative pre-allocation in [`range_get`]: the span
/// width comes from the caller and must not translate into a giant
/// allocation before the first cached byte is found.
const RANGE_PREALLOC_CAP: u64 = 1024;

/// Process-wide cache hit counter (all [`ChunkCache`] instances).
fn obs_cache_hits() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_cache_hits"))
}

/// Process-wide cache miss counter (all [`ChunkCache`] instances).
fn obs_cache_misses() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_cache_misses"))
}

/// Counters describing cache effectiveness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to go to the back-end.
    pub misses: u64,
    /// Entries displaced to stay under the byte budget.
    pub evictions: u64,
    /// Entries written into the cache (fills + write-throughs).
    pub insertions: u64,
    /// Bytes currently charged against the budget. `SCC1` codec frames
    /// ([`crate::codec`]) are charged at their *uncompressed* size —
    /// the cost a reader pays once the payload is decoded — so a
    /// well-compressed store cannot silently pin more decoded data
    /// than the configured budget.
    pub resident_bytes: u64,
    /// Configured byte budget.
    pub capacity_bytes: u64,
}

impl CacheStats {
    /// Fraction of lookups served from the cache (0 when idle).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

struct Shard {
    /// Key → (recency tick, stored payload).
    map: HashMap<(u64, u64), (u64, Vec<u8>)>,
    /// Recency index: oldest tick first. Ticks are globally unique, so
    /// this is a faithful LRU order across bumps.
    recency: BTreeMap<u64, (u64, u64)>,
    /// Bytes charged against this shard's budget: the payload size for
    /// raw chunks, the *uncompressed* size for codec frames (see
    /// [`codec::charged_size`]).
    bytes: usize,
}

impl Shard {
    fn new() -> Self {
        Shard {
            map: HashMap::new(),
            recency: BTreeMap::new(),
            bytes: 0,
        }
    }

    fn remove(&mut self, key: (u64, u64)) -> bool {
        if let Some((tick, data)) = self.map.remove(&key) {
            self.recency.remove(&tick);
            self.bytes -= codec::charged_size(&data);
            true
        } else {
            false
        }
    }
}

/// The sharded LRU core. Usable on its own, but normally driven through
/// [`CachedChunkStore`].
pub struct ChunkCache {
    shards: Vec<Mutex<Shard>>,
    /// Per-shard byte budget (total budget / shard count).
    shard_budget: usize,
    capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    insertions: AtomicU64,
}

impl ChunkCache {
    /// A cache holding at most `capacity_bytes` of chunk payload.
    pub fn new(capacity_bytes: usize) -> Self {
        ChunkCache {
            shards: (0..SHARDS).map(|_| Mutex::new(Shard::new())).collect(),
            shard_budget: capacity_bytes / SHARDS,
            capacity: capacity_bytes,
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            insertions: AtomicU64::new(0),
        }
    }

    fn shard(&self, key: (u64, u64)) -> &Mutex<Shard> {
        // SplitMix64-style mix so sequential chunk ids spread across
        // shards instead of all landing in one.
        let mut h = key.0 ^ key.1.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 30;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^= h >> 27;
        &self.shards[(h % SHARDS as u64) as usize]
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed)
    }

    /// Look up one chunk, bumping its recency on a hit.
    pub fn get(&self, array_id: u64, chunk_id: u64) -> Option<Vec<u8>> {
        let key = (array_id, chunk_id);
        let mut shard = self.shard(key).lock().expect("cache shard");
        if let Some((tick, data)) = shard.map.get_mut(&key) {
            let old = *tick;
            *tick = self.next_tick();
            let new = *tick;
            let out = data.clone();
            shard.recency.remove(&old);
            shard.recency.insert(new, key);
            drop(shard);
            self.note_hits(1);
            Some(out)
        } else {
            drop(shard);
            self.note_misses(1);
            None
        }
    }

    /// Like [`get`](ChunkCache::get) — refreshes the entry's recency on
    /// a hit — but touches no hit/miss counters. Batched probes use it
    /// to walk a span once, deciding afterwards how the span counts.
    pub fn peek_bump(&self, array_id: u64, chunk_id: u64) -> Option<Vec<u8>> {
        let key = (array_id, chunk_id);
        let mut shard = self.shard(key).lock().expect("cache shard");
        if let Some((tick, data)) = shard.map.get_mut(&key) {
            let old = *tick;
            *tick = self.next_tick();
            let new = *tick;
            let out = data.clone();
            shard.recency.remove(&old);
            shard.recency.insert(new, key);
            Some(out)
        } else {
            None
        }
    }

    /// Count `n` lookups as hits (one atomic add, plus the process-wide
    /// obs counter when recording is on).
    fn note_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
        if obs::recorder().enabled() {
            obs_cache_hits().add(n);
        }
    }

    /// Count `n` lookups as misses.
    fn note_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
        if obs::recorder().enabled() {
            obs_cache_misses().add(n);
        }
    }

    /// Peek without touching hit/miss counters (used by batched reads
    /// to probe coverage before deciding to delegate).
    pub fn peek(&self, array_id: u64, chunk_id: u64) -> Option<Vec<u8>> {
        let key = (array_id, chunk_id);
        let shard = self.shard(key).lock().expect("cache shard");
        shard.map.get(&key).map(|(_, data)| data.clone())
    }

    /// Insert (or refresh) a chunk, evicting least-recently-used
    /// entries in the same shard until the shard fits its budget.
    /// Payloads charged larger than a whole shard's budget are not
    /// cached. Codec frames are charged at their uncompressed size:
    /// the budget bounds the decoded data the cache keeps hot, not the
    /// (smaller) wire bytes.
    pub fn insert(&self, array_id: u64, chunk_id: u64, data: &[u8]) {
        let charge = codec::charged_size(data);
        if charge > self.shard_budget {
            return;
        }
        let key = (array_id, chunk_id);
        let tick = self.next_tick();
        let mut shard = self.shard(key).lock().expect("cache shard");
        shard.remove(key);
        shard.bytes += charge;
        shard.map.insert(key, (tick, data.to_vec()));
        shard.recency.insert(tick, key);
        let mut evicted = 0;
        while shard.bytes > self.shard_budget {
            let (&oldest, &victim) = shard.recency.iter().next().expect("nonempty over budget");
            debug_assert_ne!(victim, key, "fresh insert should fit");
            let (t, data) = shard.map.remove(&victim).expect("recency/map in sync");
            debug_assert_eq!(t, oldest);
            shard.recency.remove(&oldest);
            shard.bytes -= codec::charged_size(&data);
            evicted += 1;
        }
        drop(shard);
        self.insertions.fetch_add(1, Ordering::Relaxed);
        if evicted > 0 {
            self.evictions.fetch_add(evicted, Ordering::Relaxed);
        }
    }

    /// Drop one cached chunk (e.g. after the raw bytes under it were
    /// deliberately damaged).
    pub fn invalidate(&self, array_id: u64, chunk_id: u64) {
        let key = (array_id, chunk_id);
        self.shard(key).lock().expect("cache shard").remove(key);
    }

    /// Drop every cached chunk of `array_id`.
    pub fn invalidate_array(&self, array_id: u64) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard");
            let victims: Vec<(u64, u64)> = shard
                .map
                .keys()
                .filter(|(a, _)| *a == array_id)
                .copied()
                .collect();
            for key in victims {
                shard.remove(key);
            }
        }
    }

    /// Drop everything (counters are kept; use [`reset_stats`] too for
    /// a pristine cache).
    ///
    /// [`reset_stats`]: ChunkCache::reset_stats
    pub fn clear(&self) {
        for shard in &self.shards {
            let mut shard = shard.lock().expect("cache shard");
            shard.map.clear();
            shard.recency.clear();
            shard.bytes = 0;
        }
    }

    /// Current counters plus resident/capacity bytes.
    pub fn stats(&self) -> CacheStats {
        let resident: usize = self
            .shards
            .iter()
            .map(|s| s.lock().expect("cache shard").bytes)
            .sum();
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            insertions: self.insertions.load(Ordering::Relaxed),
            resident_bytes: resident as u64,
            capacity_bytes: self.capacity as u64,
        }
    }

    /// Zero the hit/miss/eviction/insertion counters.
    pub fn reset_stats(&self) {
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.evictions.store(0, Ordering::Relaxed);
        self.insertions.store(0, Ordering::Relaxed);
    }
}

/// A [`ChunkStore`] decorator that serves repeated reads from a
/// [`ChunkCache`]. See the module docs for the caching contract.
pub struct CachedChunkStore<S> {
    inner: S,
    cache: ChunkCache,
}

impl<S> CachedChunkStore<S> {
    /// Wrap `inner` with a cache of `capacity_bytes`.
    pub fn new(inner: S, capacity_bytes: usize) -> Self {
        CachedChunkStore {
            inner,
            cache: ChunkCache::new(capacity_bytes),
        }
    }

    /// The wrapped store.
    pub fn inner(&self) -> &S {
        &self.inner
    }

    /// The wrapped store, mutably. Writing to the back-end directly
    /// bypasses write-through — pair with [`cache`](Self::cache)
    /// invalidation if the bytes under a cached key change.
    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    /// The cache core (for explicit `clear` / `invalidate` / stats).
    pub fn cache(&self) -> &ChunkCache {
        &self.cache
    }

    /// Unwrap, discarding the cache.
    pub fn into_inner(self) -> S {
        self.inner
    }
}

impl<S: ChunkStore> ChunkStore for CachedChunkStore<S> {
    fn begin_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        // (Re-)creating an array invalidates whatever was cached under
        // its id — back-ends may truncate or reset storage here.
        self.cache.invalidate_array(array_id);
        self.inner.begin_array(array_id, chunk_bytes)
    }

    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put_chunk(array_id, chunk_id, data)?;
        // Write-through only after the back-end accepted the write, so
        // the cache never holds bytes the store doesn't.
        self.cache.insert(array_id, chunk_id, data);
        Ok(())
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        if let Some(hit) = self.cache.get(array_id, chunk_id) {
            return Ok(hit);
        }
        let data = self.inner.get_chunk(array_id, chunk_id)?;
        self.cache.insert(array_id, chunk_id, &data);
        Ok(data)
    }

    fn get_chunks_in(
        &mut self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        batched_get(
            &self.cache,
            chunk_ids,
            |&c| (array_id, c),
            |missing| self.inner.get_chunks_in(array_id, missing),
        )
    }

    fn get_chunk_range(
        &mut self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        range_get(&self.cache, array_id, lo, hi, || {
            self.inner.get_chunk_range(array_id, lo, hi)
        })
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.cache.invalidate_array(array_id);
        self.inner.delete_array(array_id, chunk_count)
    }

    fn get_composite_range(
        &mut self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        // All or nothing, like a one-array range, and here never from the
        // cache: a cross-array range does not say which keys it spans —
        // how many chunks each array between `lo` and `hi` has — so a
        // key that is not resident cannot be told from one that was
        // never stored without asking the store anyway. The rows still
        // warm the cache.
        let rows = self.inner.get_composite_range(lo, hi)?;
        for ((a, c), data) in &rows {
            self.cache.insert(*a, *c, data);
        }
        Ok(rows)
    }

    fn get_composite_in(&mut self, keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        batched_get(
            &self.cache,
            keys,
            |&key| key,
            |missing| self.inner.get_composite_in(missing),
        )
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&mut self) {
        self.inner.reset_io_stats();
    }

    fn shard_stats(&self) -> Option<crate::shard::ShardStats> {
        self.inner.shard_stats()
    }

    fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    fn reset_cache_stats(&mut self) {
        self.cache.reset_stats();
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        // The cache is write-through, so syncing the inner store covers
        // everything ever written through this wrapper.
        self.inner.sync()
    }
}

impl<S: SharedChunkRead> SharedChunkRead for CachedChunkStore<S> {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        if let Some(hit) = self.cache.get(array_id, chunk_id) {
            return Ok(hit);
        }
        let data = self.inner.read_chunk(array_id, chunk_id)?;
        self.cache.insert(array_id, chunk_id, &data);
        Ok(data)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        batched_get(
            &self.cache,
            chunk_ids,
            |&c| (array_id, c),
            |missing| self.inner.read_chunks_in(array_id, missing),
        )
    }

    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        range_get(&self.cache, array_id, lo, hi, || {
            self.inner.read_chunk_range(array_id, lo, hi)
        })
    }
}

impl<S: RawChunkAccess> RawChunkAccess for CachedChunkStore<S> {
    fn flip_stored_bit(
        &mut self,
        array_id: u64,
        chunk_id: u64,
        bit: u64,
    ) -> Result<bool, StorageError> {
        let flipped = self.inner.flip_stored_bit(array_id, chunk_id, bit)?;
        if flipped {
            // The bytes at rest no longer match the cached payload;
            // drop it so the corruption is observed (and detected by
            // the CRC check) on the next read.
            self.cache.invalidate(array_id, chunk_id);
        }
        Ok(flipped)
    }
}

/// Serve an `IN`-list read — of one array's chunk ids, or of composite
/// `(array, chunk)` keys — where `at` names each key's chunk: resident
/// keys come from the cache, the rest from one delegated fetch of only
/// the missing keys, merged back in request order (a key the store
/// lacks is skipped). Each key counts as one hit or one miss.
fn batched_get<K: Copy + Eq + std::hash::Hash>(
    cache: &ChunkCache,
    keys: &[K],
    at: impl Fn(&K) -> (u64, u64),
    fetch_missing: impl FnOnce(&[K]) -> Result<Vec<(K, Vec<u8>)>, StorageError>,
) -> Result<Vec<(K, Vec<u8>)>, StorageError> {
    let mut found: HashMap<K, Vec<u8>> = HashMap::new();
    let mut missing = Vec::new();
    for key in keys {
        let (a, c) = at(key);
        match cache.get(a, c) {
            Some(data) => {
                found.insert(*key, data);
            }
            None => missing.push(*key),
        }
    }
    if !missing.is_empty() {
        for (key, data) in fetch_missing(&missing)? {
            let (a, c) = at(&key);
            cache.insert(a, c, &data);
            found.insert(key, data);
        }
    }
    Ok(keys
        .iter()
        .filter_map(|k| found.remove(k).map(|d| (*k, d)))
        .collect())
}

/// Serve a range read. All-or-nothing: only a fully cached `lo..=hi`
/// span avoids the back-end, because a cache miss in the middle of a
/// range cannot distinguish "not cached" from "never stored" without
/// asking the store anyway.
fn range_get(
    cache: &ChunkCache,
    array_id: u64,
    lo: u64,
    hi: u64,
    fetch: impl FnOnce() -> Result<Vec<(u64, Vec<u8>)>, StorageError>,
) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
    if lo > hi {
        // A reversed span is empty. Guarding here also keeps the
        // `hi - lo + 1` width below from underflowing into a huge
        // pre-allocation in release builds.
        return Ok(Vec::new());
    }
    let span = hi - lo + 1;
    let mut cached = Vec::with_capacity(span.min(RANGE_PREALLOC_CAP) as usize);
    let mut complete = true;
    for c in lo..=hi {
        // One pass: refresh recency as we probe, settle the hit
        // accounting only once the whole span is known to be resident.
        match cache.peek_bump(array_id, c) {
            Some(data) => cached.push((c, data)),
            None => {
                complete = false;
                break;
            }
        }
    }
    if complete {
        cache.note_hits(span);
        return Ok(cached);
    }
    let rows = fetch()?;
    for (c, data) in &rows {
        cache.insert(array_id, *c, data);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::MemoryChunkStore;

    #[test]
    fn hit_miss_and_write_through() {
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        s.put_chunk(1, 0, b"aaaaaaaa").unwrap();
        // Write-through: the read is a hit and issues no statement.
        assert_eq!(s.get_chunk(1, 0).unwrap(), b"aaaaaaaa");
        assert_eq!(s.io_stats().statements, 0);
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 0));
        assert!(cs.hit_rate() > 0.99);
    }

    #[test]
    fn miss_fills_then_hits() {
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        s.put_chunk(1, 0, b"aaaaaaaa").unwrap();
        s.cache().clear();
        assert_eq!(s.get_chunk(1, 0).unwrap(), b"aaaaaaaa"); // miss, fill
        assert_eq!(s.get_chunk(1, 0).unwrap(), b"aaaaaaaa"); // hit
        assert_eq!(s.io_stats().statements, 1);
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 1));
    }

    #[test]
    fn batched_read_fetches_only_missing() {
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        for c in 0..4 {
            s.put_chunk(1, c, &[c as u8; 8]).unwrap();
        }
        s.cache().clear();
        let _ = s.get_chunk(1, 1).unwrap(); // warm chunk 1 only
        s.reset_io_stats();
        let rows = s.get_chunks_in(1, &[0, 1, 2]).unwrap();
        assert_eq!(
            rows,
            vec![(0, vec![0u8; 8]), (1, vec![1u8; 8]), (2, vec![2u8; 8])]
        );
        // Only chunks 0 and 2 were fetched.
        assert_eq!(s.io_stats().chunks_returned, 2);
    }

    #[test]
    fn range_read_all_or_nothing() {
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        for c in 0..3 {
            s.put_chunk(1, c, &[c as u8; 8]).unwrap();
        }
        // Fully cached (write-through): no statement.
        s.reset_io_stats();
        assert_eq!(s.get_chunk_range(1, 0, 2).unwrap().len(), 3);
        assert_eq!(s.io_stats().statements, 0);
        // Punch a hole: the whole range is delegated.
        s.cache().invalidate(1, 1);
        assert_eq!(s.get_chunk_range(1, 0, 2).unwrap().len(), 3);
        assert_eq!(s.io_stats().statements, 1);
    }

    #[test]
    fn range_read_single_chunk_span() {
        // lo == hi: the degenerate one-chunk span behaves like a point
        // read, counted as one hit when warm.
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        s.put_chunk(1, 5, b"aaaaaaaa").unwrap();
        s.reset_io_stats();
        s.reset_cache_stats();
        let rows = s.get_chunk_range(1, 5, 5).unwrap();
        assert_eq!(rows, vec![(5, b"aaaaaaaa".to_vec())]);
        assert_eq!(s.io_stats().statements, 0);
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (1, 0));
    }

    #[test]
    fn range_read_reversed_span_is_empty() {
        // A reversed span used to underflow `hi - lo + 1` into a huge
        // `Vec::with_capacity` (alloc bomb in release builds). It must
        // be an empty result that never reaches the back-end.
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        s.put_chunk(1, 0, b"aaaaaaaa").unwrap();
        s.reset_io_stats();
        s.reset_cache_stats();
        assert_eq!(s.get_chunk_range(1, 7, 3).unwrap(), vec![]);
        assert_eq!(s.get_chunk_range(1, u64::MAX, 0).unwrap(), vec![]);
        assert_eq!(s.io_stats().statements, 0);
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (0, 0));
    }

    #[test]
    fn range_read_complete_hit_is_single_pass() {
        // A fully cached span is counted as span-many hits without a
        // second walk, and the probe itself refreshes recency: after
        // ranging over [0, 1], inserting a third same-shard key under
        // byte pressure must evict the *unranged* key, not a ranged one.
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        for c in 0..4 {
            s.put_chunk(1, c, &[c as u8; 8]).unwrap();
        }
        s.reset_cache_stats();
        assert_eq!(s.get_chunk_range(1, 0, 3).unwrap().len(), 4);
        let cs = s.cache_stats();
        assert_eq!((cs.hits, cs.misses), (4, 0));
    }

    #[test]
    fn range_read_survives_eviction_mid_span() {
        // Byte pressure evicts part of a previously warm span; the
        // range read must notice the hole and delegate the whole span,
        // returning every chunk.
        let shard_budget = 100;
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), SHARDS * shard_budget);
        s.begin_array(1, 60).unwrap();
        for c in 0..4 {
            s.put_chunk(1, c, &[c as u8; 60]).unwrap();
        }
        // Find a chunk id outside the span that shares a shard with a
        // span chunk; writing it overflows that shard's 100-byte budget
        // and evicts the older (span) entry.
        let probe = |c: u64| {
            let mut h = 1u64 ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h % SHARDS as u64
        };
        let colliding = (4..256)
            .find(|&c| (0..4).any(|s| probe(c) == probe(s)))
            .expect("some id collides with the span");
        s.put_chunk(1, colliding, &[9u8; 60]).unwrap();
        assert!(s.cache().stats().evictions > 0);
        s.reset_io_stats();
        let rows = s.get_chunk_range(1, 0, 3).unwrap();
        assert_eq!(rows.len(), 4);
        for (c, data) in rows {
            assert_eq!(data, vec![c as u8; 60]);
        }
        assert_eq!(s.io_stats().statements, 1);
    }

    #[test]
    fn peek_bump_refreshes_recency_without_counting() {
        // 200-byte shard budget: two 90-byte entries fit, three don't.
        let data = vec![1u8; 90];
        // Reuse the shard-colliding probe from eviction_prefers_least_recent.
        let probe = |c: u64| {
            let mut h = 1u64 ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h % SHARDS as u64
        };
        let target = probe(0);
        let same: Vec<u64> = (0..64).filter(|&c| probe(c) == target).take(3).collect();
        let (a, b, c) = (same[0], same[1], same[2]);
        let wide = ChunkCache::new(SHARDS * 200);
        wide.insert(1, a, &data);
        wide.insert(1, b, &data);
        assert!(wide.peek_bump(1, a).is_some()); // a is now most recent
        wide.insert(1, c, &data); // over budget: evicts b, the least recent
        assert!(wide.peek(1, b).is_none());
        assert!(wide.peek(1, a).is_some());
        let cs = wide.stats();
        assert_eq!((cs.hits, cs.misses), (0, 0));
    }

    #[test]
    fn lru_eviction_under_budget() {
        // Budget of one shard is capacity / SHARDS; use chunks big
        // enough that two can't share a shard.
        let cap = 1024;
        let chunk = vec![7u8; cap / SHARDS];
        let cache = ChunkCache::new(cap);
        cache.insert(1, 0, &chunk);
        cache.insert(1, 1, &chunk);
        cache.insert(1, 2, &chunk);
        let cs = cache.stats();
        assert_eq!(cs.insertions, 3);
        assert!(
            cs.resident_bytes <= cap as u64,
            "resident {} over budget {cap}",
            cs.resident_bytes
        );
    }

    #[test]
    fn eviction_prefers_least_recent() {
        // Single-shard-sized scenario: force keys into one shard by
        // using a cache where every entry fits but three don't.
        let cache = ChunkCache::new(SHARDS * 100); // 100 bytes/shard
        let data = vec![1u8; 60];
        // Find two keys in the same shard.
        let mut same: Vec<u64> = Vec::new();
        let probe = |c: u64| {
            let mut h = 1u64 ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h % SHARDS as u64
        };
        let target = probe(0);
        for c in 0..64 {
            if probe(c) == target {
                same.push(c);
            }
            if same.len() == 3 {
                break;
            }
        }
        let (a, b, c) = (same[0], same[1], same[2]);
        cache.insert(1, a, &data);
        cache.insert(1, b, &data); // evicts a (over 100-byte shard budget)
        assert!(cache.peek(1, a).is_none());
        assert!(cache.peek(1, b).is_some());
        cache.insert(1, c, &data); // evicts b
        assert!(cache.peek(1, b).is_none());
        assert!(cache.peek(1, c).is_some());
        assert_eq!(cache.stats().evictions, 2);
    }

    #[test]
    fn codec_frames_charge_uncompressed_size() {
        use crate::codec::{encode_chunk, CodecPolicy};
        use ssdm_array::NumericType;
        // A constant chunk compresses to a tiny RLE frame, but the
        // budget must account for what the entry costs once decoded:
        // 1 KiB, not the ~52 stored bytes.
        let raw = vec![7u8; 1024];
        let (frame, _) = encode_chunk(&raw, NumericType::Int, CodecPolicy::Rle);
        assert!(
            frame.len() < raw.len() / 4,
            "constant chunk should compress"
        );
        let cache = ChunkCache::new(SHARDS * 4096);
        cache.insert(1, 0, &frame);
        assert_eq!(cache.stats().resident_bytes, raw.len() as u64);
        // Removal refunds the same charge — the books stay balanced.
        cache.invalidate(1, 0);
        assert_eq!(cache.stats().resident_bytes, 0);
        // A frame whose *decoded* size exceeds the shard budget is
        // refused even though its stored bytes would fit comfortably.
        let tight = ChunkCache::new(SHARDS * 512);
        tight.insert(1, 0, &frame);
        assert!(tight.peek(1, 0).is_none());
        assert_eq!(tight.stats().insertions, 0);
    }

    #[test]
    fn codec_frames_evict_by_decoded_charge() {
        use crate::codec::{encode_chunk, CodecPolicy};
        use ssdm_array::NumericType;
        // Two 1 KiB-decoded frames in one shard with a 1.5 KiB shard
        // budget: the second insert must evict the first even though
        // both frames' stored bytes together are far under budget.
        let (frame, _) = encode_chunk(&vec![7u8; 1024], NumericType::Int, CodecPolicy::Rle);
        let probe = |c: u64| {
            let mut h = 1u64 ^ c.wrapping_mul(0x9E37_79B9_7F4A_7C15);
            h ^= h >> 30;
            h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
            h ^= h >> 27;
            h % SHARDS as u64
        };
        let target = probe(0);
        let same: Vec<u64> = (0..64).filter(|&c| probe(c) == target).take(2).collect();
        let cache = ChunkCache::new(SHARDS * 1536);
        cache.insert(1, same[0], &frame);
        cache.insert(1, same[1], &frame);
        assert!(cache.peek(1, same[0]).is_none());
        assert!(cache.peek(1, same[1]).is_some());
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(cache.stats().resident_bytes, 1024);
    }

    #[test]
    fn oversized_payloads_are_not_cached() {
        let cache = ChunkCache::new(SHARDS * 16);
        cache.insert(1, 0, &[0u8; 64]);
        assert!(cache.peek(1, 0).is_none());
        assert_eq!(cache.stats().insertions, 0);
    }

    #[test]
    fn invalidate_array_is_selective() {
        let cache = ChunkCache::new(1 << 20);
        cache.insert(1, 0, b"one");
        cache.insert(2, 0, b"two");
        cache.invalidate_array(1);
        assert!(cache.peek(1, 0).is_none());
        assert_eq!(cache.peek(2, 0).unwrap(), b"two");
    }

    #[test]
    fn bit_flip_invalidates_cached_key() {
        let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
        s.begin_array(1, 8).unwrap();
        s.put_chunk(1, 0, b"aaaaaaaa").unwrap();
        assert!(s.flip_stored_bit(1, 0, 3).unwrap());
        // The cache must not mask the corruption.
        assert!(matches!(
            s.get_chunk(1, 0),
            Err(StorageError::Corrupt { .. })
        ));
    }
}
