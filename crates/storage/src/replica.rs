//! WAL-shipping read replicas and their health machinery.
//!
//! A [`Replica`] follows one shard primary by ingesting copies of the
//! primary's SWL1 segments (the same files the durability subsystem
//! writes — see [`crate::wal`]) and replaying the chunk-level records
//! (kinds 5–7: `BeginArray`/`PutChunk`/`DeleteArray`) into a private
//! [`MemoryChunkStore`]. Because chunk framing is deterministic, a
//! caught-up replica serves bytes **bit-identical** to its primary.
//!
//! Catch-up is LSN-addressed: the replica remembers the next LSN it has
//! to apply, ships only segments whose on-disk copy is stale, and
//! replays forward from its watermark — the snapshot + LSN catch-up
//! discipline of the durability layer, reused for replication. Copying
//! a segment the primary is still appending to is safe: the SWL1 reader
//! treats a torn final frame as a clean prefix.
//!
//! Health is tracked by a consecutive-failure circuit [`Breaker`] with
//! half-open probes, so a dead replica stops receiving traffic after a
//! few failures and is re-probed after a cooldown instead of hammered.

use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;

use crate::store::{ChunkStore, MemoryChunkStore, SharedChunkRead, StorageError};
use crate::wal::{WalReader, WalRecord};

/// Circuit breaker states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: requests flow.
    Closed,
    /// Tripped: requests are rejected until the cooldown elapses.
    Open,
    /// Cooldown elapsed: exactly one probe request is admitted; its
    /// outcome closes or re-opens the breaker.
    HalfOpen,
}

impl BreakerState {
    pub fn label(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open => "open",
            BreakerState::HalfOpen => "half_open",
        }
    }
}

#[derive(Debug)]
struct BreakerCore {
    state: BreakerState,
    /// Consecutive failures while `Closed`.
    consecutive: u32,
    /// Admissions remaining to sit out while `Open`.
    cooldown_left: u32,
    /// Times the breaker tripped (Closed→Open or HalfOpen→Open).
    opens: u64,
}

/// A consecutive-failure circuit breaker. Deliberately *count-based*
/// (cooldown measured in rejected admissions, not wall-clock), so
/// failover drills behave identically run to run — no clock reads, no
/// flaky sleeps.
#[derive(Debug)]
pub struct Breaker {
    core: Mutex<BreakerCore>,
    threshold: u32,
    cooldown: u32,
}

impl Breaker {
    /// `threshold` consecutive failures trip the breaker; `cooldown`
    /// subsequent admissions are rejected before a half-open probe.
    pub fn new(threshold: u32, cooldown: u32) -> Self {
        Breaker {
            core: Mutex::new(BreakerCore {
                state: BreakerState::Closed,
                consecutive: 0,
                cooldown_left: 0,
                opens: 0,
            }),
            threshold: threshold.max(1),
            cooldown: cooldown.max(1),
        }
    }

    pub fn state(&self) -> BreakerState {
        self.core.lock().expect("breaker").state
    }

    /// Times the breaker has tripped.
    pub fn opens(&self) -> u64 {
        self.core.lock().expect("breaker").opens
    }

    /// Whether a request may proceed. While open, each rejected call
    /// burns one unit of cooldown; when it reaches zero the breaker goes
    /// half-open and admits a single probe.
    pub fn admit(&self) -> bool {
        let mut core = self.core.lock().expect("breaker");
        match core.state {
            BreakerState::Closed | BreakerState::HalfOpen => true,
            BreakerState::Open => {
                core.cooldown_left = core.cooldown_left.saturating_sub(1);
                if core.cooldown_left == 0 {
                    core.state = BreakerState::HalfOpen;
                    true
                } else {
                    false
                }
            }
        }
    }

    pub fn on_success(&self) {
        let mut core = self.core.lock().expect("breaker");
        core.state = BreakerState::Closed;
        core.consecutive = 0;
    }

    /// Record a failure. Returns `true` when this failure tripped the
    /// breaker (Closed→Open on reaching the threshold, or a failed
    /// half-open probe re-opening it).
    pub fn on_failure(&self) -> bool {
        let mut core = self.core.lock().expect("breaker");
        match core.state {
            BreakerState::HalfOpen => {
                // Failed probe: straight back to open, full cooldown.
                core.state = BreakerState::Open;
                core.cooldown_left = self.cooldown;
                core.opens += 1;
                true
            }
            BreakerState::Closed => {
                core.consecutive += 1;
                if core.consecutive >= self.threshold {
                    core.state = BreakerState::Open;
                    core.cooldown_left = self.cooldown;
                    core.opens += 1;
                    true
                } else {
                    false
                }
            }
            BreakerState::Open => false,
        }
    }
}

/// Point-in-time health of one replica, for [`crate::shard::ShardStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaHealth {
    /// Reads served by this replica.
    pub reads: u64,
    /// Next LSN the replica would apply (all records below are in).
    pub applied_lsn: u64,
    /// LSNs behind the primary at observation time.
    pub lag: u64,
    pub alive: bool,
    pub breaker: BreakerState,
    pub breaker_opens: u64,
}

/// One WAL-shipping follower of a shard primary.
pub struct Replica {
    /// The replica's private copy of the primary's WAL segments.
    dir: PathBuf,
    store: Mutex<MemoryChunkStore>,
    /// Next LSN to apply; every record with a smaller LSN has been
    /// replayed into `store`.
    applied_lsn: AtomicU64,
    /// Kill switch for failure drills: a dead replica fails reads and
    /// refuses catch-up with a transient error.
    alive: AtomicBool,
    breaker: Breaker,
    reads: AtomicU64,
}

impl Replica {
    pub fn new(
        dir: PathBuf,
        breaker_threshold: u32,
        breaker_cooldown: u32,
    ) -> Result<Self, StorageError> {
        fs::create_dir_all(&dir)?;
        Ok(Replica {
            dir,
            store: Mutex::new(MemoryChunkStore::new()),
            applied_lsn: AtomicU64::new(0),
            alive: AtomicBool::new(true),
            breaker: Breaker::new(breaker_threshold, breaker_cooldown),
            reads: AtomicU64::new(0),
        })
    }

    pub fn alive(&self) -> bool {
        self.alive.load(Ordering::Acquire)
    }

    pub fn set_alive(&self, on: bool) {
        self.alive.store(on, Ordering::Release);
    }

    pub fn applied_lsn(&self) -> u64 {
        self.applied_lsn.load(Ordering::Acquire)
    }

    pub fn breaker(&self) -> &Breaker {
        &self.breaker
    }

    pub fn health(&self, target_lsn: u64) -> ReplicaHealth {
        let applied = self.applied_lsn();
        ReplicaHealth {
            reads: self.reads.load(Ordering::Relaxed),
            applied_lsn: applied,
            lag: target_lsn.saturating_sub(applied),
            alive: self.alive(),
            breaker: self.breaker.state(),
            breaker_opens: self.breaker.opens(),
        }
    }

    /// Ship any stale segments from `primary_wal` and replay forward
    /// until the replica has applied every record below `target_lsn`.
    /// No-op when already caught up.
    pub fn catch_up(&self, primary_wal: &Path, target_lsn: u64) -> Result<(), StorageError> {
        if !self.alive() {
            return Err(StorageError::Transient("replica down".into()));
        }
        if self.applied_lsn() >= target_lsn {
            return Ok(());
        }
        self.ship_segments(primary_wal)?;
        let scan = WalReader::scan(&self.dir)?;
        let mut store = self.store.lock().expect("replica store");
        let mut applied = self.applied_lsn();
        for (lsn, record) in &scan.records {
            if *lsn < applied {
                continue;
            }
            match record {
                WalRecord::BeginArray {
                    array_id,
                    chunk_bytes,
                } => store.begin_array(*array_id, *chunk_bytes as usize)?,
                WalRecord::PutChunk {
                    array_id,
                    chunk_id,
                    data,
                } => store.put_chunk(*array_id, *chunk_id, data)?,
                WalRecord::DeleteArray {
                    array_id,
                    chunk_count,
                } => store.delete_array(*array_id, *chunk_count)?,
                // Statement/graph/checkpoint records belong to the
                // durability WAL, not chunk replication.
                _ => {}
            }
            applied = *lsn + 1;
        }
        drop(store);
        self.applied_lsn.store(applied, Ordering::Release);
        Ok(())
    }

    /// Serve one read from the replica's local store. Fails with a
    /// transient error when the replica is down (the routing layer's
    /// cue to fail over).
    pub fn read<T>(
        &self,
        f: impl FnOnce(&dyn SharedChunkRead) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        if !self.alive() {
            return Err(StorageError::Transient("replica down".into()));
        }
        let store = self.store.lock().expect("replica store");
        let out = f(&*store);
        if out.is_ok() {
            self.reads.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Copy every primary segment whose local copy is missing or has a
    /// different length. Copying a segment mid-append is fine: the SWL1
    /// reader treats a torn final frame as a clean prefix, and the next
    /// catch-up re-ships the grown file.
    fn ship_segments(&self, primary_wal: &Path) -> Result<(), StorageError> {
        for entry in fs::read_dir(primary_wal)? {
            let entry = entry?;
            let name = entry.file_name();
            let name = name.to_string_lossy().into_owned();
            if !(name.starts_with("wal-") && name.ends_with(".log")) {
                continue;
            }
            let src = entry.path();
            let dst = self.dir.join(&name);
            let src_len = entry.metadata()?.len();
            let stale = match fs::metadata(&dst) {
                Ok(m) => m.len() != src_len,
                Err(_) => true,
            };
            if stale {
                fs::copy(&src, &dst)?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::{WalOptions, WalWriter};
    use crate::TmpDir;

    fn tmp_dir(tag: &str) -> TmpDir {
        TmpDir::new(&format!("replica-{tag}"))
    }

    #[test]
    fn breaker_trips_after_threshold_and_probes_half_open() {
        let b = Breaker::new(3, 2);
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 1);
        // Two admissions burn the cooldown: first rejected, second is
        // the half-open probe.
        assert!(!b.admit());
        assert!(b.admit());
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Failed probe re-opens with a fresh cooldown.
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.opens(), 2);
        assert!(!b.admit());
        assert!(b.admit());
        b.on_success();
        assert_eq!(b.state(), BreakerState::Closed);
        // Recovery resets the consecutive count entirely.
        b.on_failure();
        b.on_failure();
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn replica_replays_chunk_records_and_tracks_lsn() {
        let primary = tmp_dir("primary");
        let primary_wal = primary.path();
        let (mut wal, _) = WalWriter::open(primary_wal, WalOptions::default()).unwrap();
        wal.append(&WalRecord::BeginArray {
            array_id: 1,
            chunk_bytes: 16,
        })
        .unwrap();
        for c in 0..4u64 {
            wal.append(&WalRecord::PutChunk {
                array_id: 1,
                chunk_id: c,
                data: vec![c as u8; 16],
            })
            .unwrap();
        }

        let follower = tmp_dir("follower");
        let replica = Replica::new(follower.path().to_path_buf(), 3, 2).unwrap();
        replica.catch_up(primary_wal, wal.next_lsn()).unwrap();
        assert_eq!(replica.applied_lsn(), wal.next_lsn());
        let rows = replica
            .read(|s| s.read_chunks_in(1, &[0, 1, 2, 3]))
            .unwrap();
        assert_eq!(rows.len(), 4);
        assert_eq!(rows[2].1, vec![2u8; 16]);

        // Incremental: new writes, another catch-up, no re-copy churn.
        wal.append(&WalRecord::PutChunk {
            array_id: 1,
            chunk_id: 4,
            data: vec![9u8; 16],
        })
        .unwrap();
        replica.catch_up(primary_wal, wal.next_lsn()).unwrap();
        let row = replica.read(|s| s.read_chunk(1, 4)).unwrap();
        assert_eq!(row, vec![9u8; 16]);

        // Deletion replicates too.
        wal.append(&WalRecord::DeleteArray {
            array_id: 1,
            chunk_count: 5,
        })
        .unwrap();
        replica.catch_up(primary_wal, wal.next_lsn()).unwrap();
        assert!(replica.read(|s| s.read_chunk(1, 0)).is_err());
    }

    #[test]
    fn dead_replica_fails_reads_and_catch_up_transiently() {
        let primary = tmp_dir("primary-dead");
        let primary_wal = primary.path();
        let (wal, _) = WalWriter::open(primary_wal, WalOptions::default()).unwrap();
        let follower = tmp_dir("follower-dead");
        let replica = Replica::new(follower.path().to_path_buf(), 3, 2).unwrap();
        replica.set_alive(false);
        let err = replica.read(|s| s.read_chunk(1, 0)).unwrap_err();
        assert!(err.is_transient());
        let err = replica.catch_up(primary_wal, wal.next_lsn()).unwrap_err();
        assert!(err.is_transient());
        replica.set_alive(true);
        replica.catch_up(primary_wal, wal.next_lsn()).unwrap();
    }
}
