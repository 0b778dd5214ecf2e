//! The sharded, replicated chunk store.
//!
//! [`ShardedChunkStore`] partitions chunks across N backend shards by
//! **rendezvous hashing** on `(array_id, chunk_id)` — each key scores
//! every shard and lands on the highest scorer, so adding a shard only
//! moves the keys that now score higher there (no modulo reshuffle).
//! Each shard is a primary [`SharedChunkStore`] plus K WAL-shipping
//! read [`Replica`]s: every write is applied to the primary *and*
//! appended to a per-shard SWL1 log, which followers copy and replay to
//! catch up by LSN before serving reads (see [`crate::replica`]).
//!
//! Robustness machinery:
//! * per-replica consecutive-failure circuit [`Breaker`] with half-open
//!   probes, so dead replicas shed traffic instead of eating timeouts;
//! * read routing that rotates across caught-up replicas and fails over
//!   to a sibling or the primary with **at most one retry hop** after a
//!   failure — a second replica failure surfaces the error;
//! * graceful degradation only where the read contract allows it: range
//!   reads already skip missing chunks, so a dark shard contributes an
//!   empty range (counted in `degraded_reads`); point and IN-list reads
//!   raise a typed [`StorageError::ShardUnavailable`] carrying exactly
//!   which shards failed;
//! * scatter-gather batched reads through
//!   [`crate::parallel::scatter_gather`] — "N workers over N shards" —
//!   with input-order reassembly, so results are **bit-identical** to
//!   an unsharded store.
//!
//! [`Breaker`]: crate::replica::Breaker

use std::fs;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ssdm_obs as obs;

use crate::parallel::scatter_gather;
use crate::replica::{Replica, ReplicaHealth};
use crate::store::{
    Capabilities, ChunkStore, CompositeRows, IoStats, SharedChunkRead, SharedChunkStore,
    StorageError,
};
use crate::wal::{FsyncPolicy, WalOptions, WalRecord, WalWriter};

/// Process-wide count of read attempts that failed over away from a
/// replica (all sharded stores).
fn obs_shard_failovers() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_shard_failovers"))
}

/// Process-wide count of circuit-breaker trips (all sharded stores).
fn obs_shard_breaker_opens() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_shard_breaker_opens"))
}

/// SplitMix64 finalizer: the mixing function under both the placement
/// hash and the rendezvous scores.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Rendezvous placement: which of `shard_count` shards owns
/// `(array_id, chunk_id)`. Ties (astronomically unlikely) break toward
/// the lower shard index.
pub fn place(array_id: u64, chunk_id: u64, shard_count: usize) -> usize {
    debug_assert!(shard_count > 0);
    if shard_count <= 1 {
        return 0;
    }
    let key = mix(array_id ^ mix(chunk_id));
    let mut best = 0usize;
    let mut best_score = mix(key ^ 1);
    for s in 1..shard_count {
        let score = mix(key ^ (s as u64 + 1));
        if score > best_score {
            best = s;
            best_score = score;
        }
    }
    best
}

/// Tuning for [`ShardedChunkStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardOptions {
    /// WAL-shipping read replicas per shard. `0` routes every read to
    /// the primaries.
    pub replicas: usize,
    /// Maximum LSNs a replica may trail the primary and still serve a
    /// read. `0` demands full catch-up.
    pub lag_bound: u64,
    /// Consecutive failures before a replica's breaker opens.
    pub breaker_threshold: u32,
    /// Rejected admissions while open before a half-open probe.
    pub breaker_cooldown: u32,
    /// Worker threads for scatter-gather batched reads across shards.
    pub read_workers: usize,
}

impl Default for ShardOptions {
    fn default() -> Self {
        ShardOptions {
            replicas: 0,
            lag_bound: 0,
            breaker_threshold: 3,
            breaker_cooldown: 2,
            read_workers: 4,
        }
    }
}

/// Point-in-time health of one shard, inside [`ShardStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardHealth {
    /// Reads served by the primary.
    pub primary_reads: u64,
    /// Reads served by any replica of this shard.
    pub replica_reads: u64,
    /// Read attempts that failed over away from a replica.
    pub failovers: u64,
    /// Next LSN the shard's WAL will assign (replica catch-up target).
    pub wal_lsn: u64,
    pub primary_alive: bool,
    pub replicas: Vec<ReplicaHealth>,
}

/// Aggregated placement/failover/replication counters, surfaced through
/// `ChunkStore::shard_stats` into `stats_report`/`STATS`/Prometheus.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    pub shards: Vec<ShardHealth>,
    /// Total failovers across shards.
    pub failovers: u64,
    /// Total circuit-breaker trips across replicas.
    pub breaker_opens: u64,
    /// Range reads that served partial results because a shard was
    /// unavailable (the only degradation the read contract permits).
    pub degraded_reads: u64,
}

struct Shard {
    primary: Box<dyn SharedChunkStore>,
    /// Kill switch for failure drills: a dead primary turns reads that
    /// reach it into [`StorageError::ShardUnavailable`].
    primary_alive: AtomicBool,
    wal: Mutex<WalWriter>,
    wal_dir: PathBuf,
    /// Lock-free mirror of the WAL's next LSN, read by the routing path
    /// without taking the writer lock.
    next_lsn: AtomicU64,
    replicas: Vec<Replica>,
    /// Round-robin cursor over replicas.
    rotation: AtomicU64,
    primary_reads: AtomicU64,
    replica_reads: AtomicU64,
    failovers: AtomicU64,
}

/// See the module docs.
pub struct ShardedChunkStore {
    shards: Vec<Shard>,
    opts: ShardOptions,
    /// Statement-level accounting: one logical statement per public
    /// call, mirroring how the paper counts back-end round trips at the
    /// query-processor boundary (fan-out is an implementation detail).
    stats: Mutex<IoStats>,
    degraded_reads: AtomicU64,
    root: PathBuf,
    /// Whether `root` is a private temp directory removed on drop.
    ephemeral: bool,
}

fn ephemeral_root() -> PathBuf {
    static N: AtomicU64 = AtomicU64::new(0);
    let n = N.fetch_add(1, Ordering::Relaxed);
    std::env::temp_dir().join(format!("ssdm-shards-{}-{n}", std::process::id()))
}

impl ShardedChunkStore {
    /// Shard over `primaries` with per-shard WALs and replica state in a
    /// private temp directory (removed on drop). Use [`Self::with_root`]
    /// to keep the replication state with a persistent backend.
    pub fn new(
        primaries: Vec<Box<dyn SharedChunkStore>>,
        opts: ShardOptions,
    ) -> Result<Self, StorageError> {
        Self::build(primaries, ephemeral_root(), true, opts)
    }

    /// Shard over `primaries`, keeping WALs and replica segment copies
    /// under `root` (`root/shard-N/{wal,replica-K}`), so a reopened
    /// store resumes from the shipped state.
    pub fn with_root(
        primaries: Vec<Box<dyn SharedChunkStore>>,
        root: PathBuf,
        opts: ShardOptions,
    ) -> Result<Self, StorageError> {
        Self::build(primaries, root, false, opts)
    }

    fn build(
        primaries: Vec<Box<dyn SharedChunkStore>>,
        root: PathBuf,
        ephemeral: bool,
        opts: ShardOptions,
    ) -> Result<Self, StorageError> {
        if primaries.is_empty() {
            return Err(StorageError::Backend(
                "sharded store needs at least one primary".into(),
            ));
        }
        let mut shards = Vec::with_capacity(primaries.len());
        for (i, primary) in primaries.into_iter().enumerate() {
            let shard_dir = root.join(format!("shard-{i}"));
            let wal_dir = shard_dir.join("wal");
            fs::create_dir_all(&wal_dir)?;
            // Replication does not need fsync: the WAL here is a
            // shipping medium, durability is the primary's concern.
            let (wal, _recovery) = WalWriter::open(
                &wal_dir,
                WalOptions {
                    policy: FsyncPolicy::Off,
                    ..WalOptions::default()
                },
            )?;
            let next_lsn = wal.next_lsn();
            let mut replicas = Vec::with_capacity(opts.replicas);
            for k in 0..opts.replicas {
                replicas.push(Replica::new(
                    shard_dir.join(format!("replica-{k}")),
                    opts.breaker_threshold,
                    opts.breaker_cooldown,
                )?);
            }
            shards.push(Shard {
                primary,
                primary_alive: AtomicBool::new(true),
                wal: Mutex::new(wal),
                wal_dir,
                next_lsn: AtomicU64::new(next_lsn),
                replicas,
                rotation: AtomicU64::new(0),
                primary_reads: AtomicU64::new(0),
                replica_reads: AtomicU64::new(0),
                failovers: AtomicU64::new(0),
            });
        }
        Ok(ShardedChunkStore {
            shards,
            opts,
            stats: Mutex::new(IoStats::default()),
            degraded_reads: AtomicU64::new(0),
            root,
            ephemeral,
        })
    }

    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    pub fn replica_count(&self) -> usize {
        self.opts.replicas
    }

    /// Kill switches for failure drills.
    pub fn kill_replica(&self, shard: usize, replica: usize) {
        self.shards[shard].replicas[replica].set_alive(false);
    }

    pub fn revive_replica(&self, shard: usize, replica: usize) {
        self.shards[shard].replicas[replica].set_alive(true);
    }

    pub fn kill_primary(&self, shard: usize) {
        self.shards[shard]
            .primary_alive
            .store(false, Ordering::Release);
    }

    pub fn revive_primary(&self, shard: usize) {
        self.shards[shard]
            .primary_alive
            .store(true, Ordering::Release);
    }

    /// Snapshot of per-shard health and the aggregate counters.
    pub fn stats(&self) -> ShardStats {
        let mut out = ShardStats {
            degraded_reads: self.degraded_reads.load(Ordering::Relaxed),
            ..ShardStats::default()
        };
        for shard in &self.shards {
            let target = shard.next_lsn.load(Ordering::Acquire);
            let replicas: Vec<ReplicaHealth> =
                shard.replicas.iter().map(|r| r.health(target)).collect();
            let failovers = shard.failovers.load(Ordering::Relaxed);
            out.failovers += failovers;
            out.breaker_opens += replicas.iter().map(|r| r.breaker_opens).sum::<u64>();
            out.shards.push(ShardHealth {
                primary_reads: shard.primary_reads.load(Ordering::Relaxed),
                replica_reads: shard.replica_reads.load(Ordering::Relaxed),
                failovers,
                wal_lsn: target,
                primary_alive: shard.primary_alive.load(Ordering::Acquire),
                replicas,
            });
        }
        out
    }

    fn account(&self, chunks: usize, bytes: usize) {
        let mut stats = self.stats.lock().expect("stats mutex");
        stats.statements += 1;
        stats.chunks_returned += chunks as u64;
        stats.bytes_returned += bytes as u64;
    }

    /// Append a chunk-level record to a shard's WAL and publish the new
    /// LSN to the routing mirror.
    fn log(shard: &Shard, record: &WalRecord) -> Result<(), StorageError> {
        let lsn = shard.wal.lock().expect("wal mutex").append(record)?;
        shard.next_lsn.store(lsn + 1, Ordering::Release);
        Ok(())
    }

    fn primary_read<T>(
        &self,
        idx: usize,
        f: &dyn Fn(&dyn SharedChunkRead) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let shard = &self.shards[idx];
        if !shard.primary_alive.load(Ordering::Acquire) {
            return Err(StorageError::ShardUnavailable { shards: vec![idx] });
        }
        let v = f(&shard.primary)?;
        shard.primary_reads.fetch_add(1, Ordering::Relaxed);
        Ok(v)
    }

    /// Route one read on shard `idx`: rotate across replicas whose
    /// breaker admits them, skipping any that lag past the bound; after
    /// one replica *failure*, allow at most one more attempt (the retry
    /// hop) before surfacing the error; when no replica can serve, fall
    /// through to the primary.
    fn read_on<T>(
        &self,
        idx: usize,
        f: impl Fn(&dyn SharedChunkRead) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        let shard = &self.shards[idx];
        let n = shard.replicas.len();
        if n == 0 {
            return self.primary_read(idx, &f);
        }
        let target = shard.next_lsn.load(Ordering::Acquire);
        let start = shard.rotation.fetch_add(1, Ordering::Relaxed) as usize % n;
        let mut hop_used = false;
        for k in 0..n {
            let rep = &shard.replicas[(start + k) % n];
            if !rep.breaker().admit() {
                continue;
            }
            let attempt = rep.catch_up(&shard.wal_dir, target).and_then(|()| {
                if target.saturating_sub(rep.applied_lsn()) > self.opts.lag_bound {
                    // Lagging is not a fault — skip without breaker
                    // penalty or hop consumption.
                    Ok(None)
                } else {
                    rep.read(&f).map(Some)
                }
            });
            match attempt {
                Ok(Some(v)) => {
                    rep.breaker().on_success();
                    shard.replica_reads.fetch_add(1, Ordering::Relaxed);
                    return Ok(v);
                }
                Ok(None) => continue,
                // Data errors (missing chunk, unknown array) are not
                // replica faults: the primary would answer identically.
                Err(e) if !e.is_transient() => return Err(e),
                Err(e) => {
                    if rep.breaker().on_failure() && obs::recorder().enabled() {
                        obs_shard_breaker_opens().add(1);
                    }
                    shard.failovers.fetch_add(1, Ordering::Relaxed);
                    if obs::recorder().enabled() {
                        obs_shard_failovers().add(1);
                    }
                    if hop_used {
                        return Err(e);
                    }
                    hop_used = true;
                }
            }
        }
        self.primary_read(idx, &f)
    }

    /// Partition `chunk_ids` by owning shard, preserving input order
    /// inside each group.
    fn group_by_shard(&self, array_id: u64, chunk_ids: &[u64]) -> Vec<(usize, Vec<u64>)> {
        let n = self.shards.len();
        let mut groups: Vec<Vec<u64>> = vec![Vec::new(); n];
        for &c in chunk_ids {
            groups[place(array_id, c, n)].push(c);
        }
        groups
            .into_iter()
            .enumerate()
            .filter(|(_, g)| !g.is_empty())
            .collect()
    }

    /// Merge per-job errors: if any job failed with `ShardUnavailable`,
    /// report the union of dark shards; otherwise the first error in
    /// job order wins (deterministic regardless of worker timing).
    fn merge_errors(results: &mut Vec<Result<ChunkGroup, StorageError>>) -> Option<StorageError> {
        let mut dark: Vec<usize> = Vec::new();
        let mut first: Option<usize> = None;
        for (i, r) in results.iter().enumerate() {
            if let Err(e) = r {
                if let StorageError::ShardUnavailable { shards } = e {
                    dark.extend(shards.iter().copied());
                } else if first.is_none() {
                    first = Some(i);
                }
            }
        }
        if !dark.is_empty() {
            dark.sort_unstable();
            dark.dedup();
            return Some(StorageError::ShardUnavailable { shards: dark });
        }
        first.map(|i| match results.swap_remove(i) {
            Err(e) => e,
            Ok(_) => unreachable!("indexed error"),
        })
    }
}

type ChunkGroup = Vec<(u64, Vec<u8>)>;

impl SharedChunkRead for ShardedChunkStore {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let idx = place(array_id, chunk_id, self.shards.len());
        let v = self.read_on(idx, |t| t.read_chunk(array_id, chunk_id))?;
        self.account(1, v.len());
        Ok(v)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let jobs = self.group_by_shard(array_id, chunk_ids);
        let mut results = scatter_gather(self.opts.read_workers, &jobs, |_, (idx, ids)| {
            self.read_on(*idx, |t| t.read_chunks_in(array_id, ids))
        });
        if let Some(e) = Self::merge_errors(&mut results) {
            return Err(e);
        }
        let mut merged: std::collections::HashMap<u64, Vec<u8>> =
            std::collections::HashMap::with_capacity(chunk_ids.len());
        for rows in results {
            for (c, v) in rows.expect("errors merged above") {
                merged.insert(c, v);
            }
        }
        // Reassemble in input-id order — bit-identical to an unsharded
        // read of the same id list.
        let mut out = Vec::with_capacity(chunk_ids.len());
        let mut bytes = 0;
        for &c in chunk_ids {
            let v = merged.get(&c).cloned().ok_or(StorageError::MissingChunk {
                array_id,
                chunk_id: c,
            })?;
            bytes += v.len();
            out.push((c, v));
        }
        self.account(out.len(), bytes);
        Ok(out)
    }

    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let idxs: Vec<usize> = (0..self.shards.len()).collect();
        let results = scatter_gather(self.opts.read_workers, &idxs, |_, &idx| {
            self.read_on(idx, |t| t.read_chunk_range(array_id, lo, hi))
        });
        let mut rows: ChunkGroup = Vec::new();
        for r in results {
            match r {
                Ok(part) => rows.extend(part),
                // The range contract already skips missing chunks, so a
                // dark shard degrades to an empty contribution — the one
                // place partial results are semantically sound.
                Err(StorageError::ShardUnavailable { .. }) => {
                    self.degraded_reads.fetch_add(1, Ordering::Relaxed);
                }
                Err(e) => return Err(e),
            }
        }
        rows.sort_unstable_by_key(|(c, _)| *c);
        let bytes = rows.iter().map(|(_, v)| v.len()).sum();
        self.account(rows.len(), bytes);
        Ok(rows)
    }
}

impl ChunkStore for ShardedChunkStore {
    fn begin_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        for shard in &mut self.shards {
            shard.primary.begin_array(array_id, chunk_bytes)?;
            Self::log(
                shard,
                &WalRecord::BeginArray {
                    array_id,
                    chunk_bytes: chunk_bytes as u64,
                },
            )?;
        }
        self.account(0, 0);
        Ok(())
    }

    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        let idx = place(array_id, chunk_id, self.shards.len());
        let shard = &mut self.shards[idx];
        shard.primary.put_chunk(array_id, chunk_id, data)?;
        Self::log(
            shard,
            &WalRecord::PutChunk {
                array_id,
                chunk_id,
                data: data.to_vec(),
            },
        )?;
        self.account(0, 0);
        Ok(())
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.read_chunk(array_id, chunk_id)
    }

    fn get_chunks_in(
        &mut self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.read_chunks_in(array_id, chunk_ids)
    }

    fn get_chunk_range(
        &mut self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.read_chunk_range(array_id, lo, hi)
    }

    fn get_composite_range(
        &mut self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        // Composite (bag-of-proxy) scans are served by the primaries:
        // their skip-missing contract cannot distinguish "key not
        // stored" from "shard dark", so a dead primary must raise, not
        // degrade.
        let mut dark: Vec<usize> = Vec::new();
        let mut rows = CompositeRows::new();
        for (i, shard) in self.shards.iter_mut().enumerate() {
            if !shard.primary_alive.load(Ordering::Acquire) {
                dark.push(i);
                continue;
            }
            rows.extend(shard.primary.get_composite_range(lo, hi)?);
            shard.primary_reads.fetch_add(1, Ordering::Relaxed);
        }
        if !dark.is_empty() {
            return Err(StorageError::ShardUnavailable { shards: dark });
        }
        rows.sort_unstable_by_key(|(k, _)| *k);
        let bytes = rows.iter().map(|(_, v)| v.len()).sum();
        self.account(rows.len(), bytes);
        Ok(rows)
    }

    fn get_composite_in(&mut self, keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        let n = self.shards.len();
        let mut groups: Vec<Vec<(u64, u64)>> = vec![Vec::new(); n];
        for &(a, c) in keys {
            groups[place(a, c, n)].push((a, c));
        }
        let mut dark: Vec<usize> = Vec::new();
        let mut merged: std::collections::HashMap<(u64, u64), Vec<u8>> =
            std::collections::HashMap::with_capacity(keys.len());
        for (i, group) in groups.iter().enumerate() {
            if group.is_empty() {
                continue;
            }
            let shard = &mut self.shards[i];
            if !shard.primary_alive.load(Ordering::Acquire) {
                dark.push(i);
                continue;
            }
            for (k, v) in shard.primary.get_composite_in(group)? {
                merged.insert(k, v);
            }
            shard.primary_reads.fetch_add(1, Ordering::Relaxed);
        }
        if !dark.is_empty() {
            return Err(StorageError::ShardUnavailable { shards: dark });
        }
        // Input order, missing keys skipped — the composite contract.
        let mut out = CompositeRows::with_capacity(keys.len());
        let mut bytes = 0;
        for k in keys {
            if let Some(v) = merged.get(k) {
                bytes += v.len();
                out.push((*k, v.clone()));
            }
        }
        self.account(out.len(), bytes);
        Ok(out)
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        for shard in &mut self.shards {
            shard.primary.delete_array(array_id, chunk_count)?;
            Self::log(
                shard,
                &WalRecord::DeleteArray {
                    array_id,
                    chunk_count,
                },
            )?;
        }
        self.account(0, 0);
        Ok(())
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_in_list: true,
            supports_range: true,
            supports_cross_range: self
                .shards
                .iter()
                .all(|s| s.primary.capabilities().supports_cross_range),
            supports_parallel: true,
        }
    }

    fn io_stats(&self) -> IoStats {
        *self.stats.lock().expect("stats mutex")
    }

    fn reset_io_stats(&mut self) {
        *self.stats.get_mut().expect("stats mutex") = IoStats::default();
    }

    fn shard_stats(&self) -> Option<ShardStats> {
        Some(self.stats())
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        for shard in &mut self.shards {
            shard.primary.sync()?;
            shard.wal.lock().expect("wal mutex").sync()?;
        }
        Ok(())
    }
}

impl Drop for ShardedChunkStore {
    fn drop(&mut self) {
        if self.ephemeral {
            let _ = fs::remove_dir_all(&self.root);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::replica::BreakerState;
    use crate::store::MemoryChunkStore;

    fn primaries(n: usize) -> Vec<Box<dyn SharedChunkStore>> {
        (0..n)
            .map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn SharedChunkStore>)
            .collect()
    }

    fn seeded(shards: usize, opts: ShardOptions, chunks: u64) -> ShardedChunkStore {
        let mut s = ShardedChunkStore::new(primaries(shards), opts).unwrap();
        s.begin_array(1, 32).unwrap();
        for c in 0..chunks {
            let data: Vec<u8> = (0..32)
                .map(|b| (c as u8).wrapping_mul(7).wrapping_add(b))
                .collect();
            s.put_chunk(1, c, &data).unwrap();
        }
        s
    }

    #[test]
    fn placement_is_deterministic_and_balanced() {
        let mut per_shard = [0usize; 4];
        for c in 0..1000u64 {
            let s = place(1, c, 4);
            assert_eq!(s, place(1, c, 4));
            per_shard[s] += 1;
        }
        for (i, &n) in per_shard.iter().enumerate() {
            assert!(n > 100, "shard {i} got only {n} of 1000 keys");
        }
    }

    #[test]
    fn sharded_reads_are_bit_identical_to_unsharded() {
        let sharded = seeded(4, ShardOptions::default(), 64);
        let mut plain = MemoryChunkStore::new();
        for c in 0..64u64 {
            let data: Vec<u8> = (0..32)
                .map(|b| (c as u8).wrapping_mul(7).wrapping_add(b))
                .collect();
            plain.put_chunk(1, c, &data).unwrap();
        }
        // Point reads.
        for c in 0..64 {
            assert_eq!(
                sharded.read_chunk(1, c).unwrap(),
                plain.read_chunk(1, c).unwrap()
            );
        }
        // IN-list in scrambled order, with duplicates.
        let ids: Vec<u64> = vec![63, 0, 17, 5, 17, 42, 1];
        assert_eq!(
            sharded.read_chunks_in(1, &ids).unwrap(),
            plain.read_chunks_in(1, &ids).unwrap()
        );
        // Range (hi beyond the stored chunks: missing are skipped).
        assert_eq!(
            sharded.read_chunk_range(1, 10, 80).unwrap(),
            plain.read_chunk_range(1, 10, 80).unwrap()
        );
    }

    #[test]
    fn composite_ops_match_unsharded() {
        let mut sharded = seeded(3, ShardOptions::default(), 16);
        let mut plain = MemoryChunkStore::new();
        for c in 0..16u64 {
            let data: Vec<u8> = (0..32)
                .map(|b| (c as u8).wrapping_mul(7).wrapping_add(b))
                .collect();
            plain.put_chunk(1, c, &data).unwrap();
        }
        assert_eq!(
            sharded.get_composite_range((1, 2), (1, 12)).unwrap(),
            plain.get_composite_range((1, 2), (1, 12)).unwrap()
        );
        let keys = vec![(1, 3), (1, 99), (1, 0), (1, 15)];
        assert_eq!(
            sharded.get_composite_in(&keys).unwrap(),
            plain.get_composite_in(&keys).unwrap()
        );
    }

    #[test]
    fn replicas_serve_reads_and_primaries_stay_idle() {
        let opts = ShardOptions {
            replicas: 1,
            ..ShardOptions::default()
        };
        let sharded = seeded(2, opts, 32);
        let ids: Vec<u64> = (0..32).collect();
        let rows = sharded.read_chunks_in(1, &ids).unwrap();
        assert_eq!(rows.len(), 32);
        let st = sharded.stats();
        let replica_reads: u64 = st.shards.iter().map(|s| s.replica_reads).sum();
        let primary_reads: u64 = st.shards.iter().map(|s| s.primary_reads).sum();
        assert!(replica_reads >= 2, "replicas served {replica_reads}");
        assert_eq!(primary_reads, 0, "reads leaked to primaries");
        // Replicas are caught up: zero lag in the health report.
        for shard in &st.shards {
            for rep in &shard.replicas {
                assert_eq!(rep.lag, 0);
            }
        }
    }

    #[test]
    fn dead_replica_fails_over_to_sibling_within_one_hop() {
        let opts = ShardOptions {
            replicas: 2,
            ..ShardOptions::default()
        };
        let sharded = seeded(1, opts, 16);
        sharded.kill_replica(0, 0);
        for c in 0..16 {
            assert!(sharded.read_chunk(1, c).is_ok(), "read {c} failed");
        }
        let st = sharded.stats();
        assert!(st.failovers >= 1, "no failover recorded");
        assert!(st.shards[0].replica_reads >= 1);
    }

    #[test]
    fn dead_primary_without_replicas_is_a_typed_error() {
        let sharded = seeded(2, ShardOptions::default(), 32);
        // Find a chunk on shard 1, then kill that primary.
        let on_one: Vec<u64> = (0..32).filter(|&c| place(1, c, 2) == 1).collect();
        assert!(!on_one.is_empty());
        sharded.kill_primary(1);
        let ids: Vec<u64> = (0..32).collect();
        match sharded.read_chunks_in(1, &ids) {
            Err(StorageError::ShardUnavailable { shards }) => assert_eq!(shards, vec![1]),
            other => panic!("expected ShardUnavailable, got {other:?}"),
        }
        // Ranges degrade to the surviving shards' chunks instead.
        let rows = sharded.read_chunk_range(1, 0, 31).unwrap();
        let expect: Vec<u64> = (0..32).filter(|&c| place(1, c, 2) == 0).collect();
        assert_eq!(rows.iter().map(|(c, _)| *c).collect::<Vec<_>>(), expect);
        assert!(sharded.stats().degraded_reads >= 1);
        // Revival restores full service.
        sharded.revive_primary(1);
        assert_eq!(sharded.read_chunks_in(1, &ids).unwrap().len(), 32);
    }

    #[test]
    fn breaker_opens_on_repeated_failures_and_recovers_via_probe() {
        let opts = ShardOptions {
            replicas: 1,
            breaker_threshold: 2,
            breaker_cooldown: 2,
            ..ShardOptions::default()
        };
        let sharded = seeded(1, opts, 4);
        sharded.kill_replica(0, 0);
        // Two failed reads trip the breaker (each falls through to the
        // primary, so no read ever fails).
        for _ in 0..2 {
            sharded.read_chunk(1, 0).unwrap();
        }
        let st = sharded.stats();
        assert_eq!(st.shards[0].replicas[0].breaker, BreakerState::Open);
        assert_eq!(st.breaker_opens, 1);
        assert_eq!(st.failovers, 2);
        sharded.revive_replica(0, 0);
        // Cooldown burns on the next admissions, then a half-open probe
        // succeeds and the breaker closes.
        for _ in 0..3 {
            sharded.read_chunk(1, 0).unwrap();
        }
        let st = sharded.stats();
        assert_eq!(st.shards[0].replicas[0].breaker, BreakerState::Closed);
        assert!(st.shards[0].replica_reads >= 1);
    }

    #[test]
    fn writes_replicate_through_wal_shipping() {
        let opts = ShardOptions {
            replicas: 1,
            ..ShardOptions::default()
        };
        let mut sharded = seeded(2, opts, 8);
        // Overwrite a chunk, then delete the array: replicas must track
        // both through the shipped log.
        sharded.put_chunk(1, 3, &[0xAB; 32]).unwrap();
        assert_eq!(sharded.read_chunk(1, 3).unwrap(), vec![0xAB; 32]);
        sharded.delete_array(1, 8).unwrap();
        assert!(matches!(
            sharded.read_chunk(1, 3),
            Err(StorageError::MissingChunk { .. })
        ));
        let st = sharded.stats();
        assert_eq!(st.failovers, 0);
    }
}
