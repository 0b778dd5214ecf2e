//! The Array Storage Extensibility Interface (ASEI) and its back-ends.
//!
//! The ASEI (thesis §6.1) is the contract between SSDM's query processor
//! and any system able to hold array chunks. A back-end advertises its
//! [`Capabilities`]; the APR picks a retrieval strategy the back-end
//! supports and *delegates* batched operations (IN-lists, ranges) to it
//! when possible, falling back to per-chunk requests otherwise — this is
//! the "common supported operations are delegated to the array storage
//! back-ends, according to their capabilities" behaviour of the
//! abstract.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, RwLock};

use relstore::{Db, Key, LatencyModel};

/// Errors raised by chunk storage back-ends.
///
/// Every error classifies as either *transient* (worth retrying: the
/// fault may not recur) or *permanent* (retrying cannot help) via
/// [`StorageError::is_transient`]. The resilience layer
/// ([`crate::ResilientChunkStore`]) retries transient errors only.
#[derive(Debug)]
pub enum StorageError {
    Io(io::Error),
    Backend(String),
    MissingChunk {
        array_id: u64,
        chunk_id: u64,
    },
    MissingArray(u64),
    Array(ssdm_array::ArrayError),
    /// A transient back-end fault (dropped connection, injected fault,
    /// timeout): retrying the same operation may succeed.
    Transient(String),
    /// A chunk failed its checksum at read time (frame header CRC32
    /// mismatch or mangled frame). Classified transient: a re-read can
    /// succeed when the corruption happened in transit rather than at
    /// rest.
    Corrupt {
        array_id: u64,
        chunk_id: u64,
        detail: String,
    },
    /// A chunk read returned fewer bytes than its frame promises (file
    /// truncated below the expected chunk length, torn write).
    /// Classified transient: concurrent writers may complete the chunk.
    ShortRead {
        array_id: u64,
        chunk_id: u64,
        expected: usize,
        got: usize,
    },
    /// The retry policy exhausted its attempt or time budget; the last
    /// underlying error is carried as text.
    DeadlineExceeded {
        op: &'static str,
        attempts: u32,
        last_error: String,
    },
    /// One or more shards of a [`crate::ShardedChunkStore`] could not
    /// serve the read: the primary is down and every replica failed or
    /// lags past the bound. Carries the failed shard indices so callers
    /// can report *which* partitions are dark. Not transient: the
    /// sharded store already exhausted its failover hop before raising
    /// this, so an outer retry cannot help.
    ShardUnavailable {
        shards: Vec<usize>,
    },
    /// An aggregate that has no value over zero elements (`Avg`, `Min`,
    /// `Max`) was asked of an empty view, or of a filtered view nothing
    /// matched. Not a failure of the back-end: callers that treat "no
    /// value" as unbound match exactly this variant.
    EmptyView,
    /// A [`crate::Request`] list the runner refuses: a probe
    /// ([`crate::Request::probe`]) next to another request (its early
    /// stop would stop them too), or a probe that folds.
    InvalidRequest,
    /// A [`crate::Resolved`] accessor asked for a result its
    /// request did not compute, say the array of a fold.
    NotRequested(&'static str),
}

impl StorageError {
    /// Whether retrying the failed operation could plausibly succeed.
    pub fn is_transient(&self) -> bool {
        match self {
            StorageError::Transient(_) => true,
            StorageError::Corrupt { .. } => true,
            StorageError::ShortRead { .. } => true,
            StorageError::Io(e) => matches!(
                e.kind(),
                io::ErrorKind::Interrupted
                    | io::ErrorKind::TimedOut
                    | io::ErrorKind::WouldBlock
                    | io::ErrorKind::UnexpectedEof
            ),
            StorageError::Backend(_)
            | StorageError::MissingChunk { .. }
            | StorageError::MissingArray(_)
            | StorageError::Array(_)
            | StorageError::DeadlineExceeded { .. }
            | StorageError::ShardUnavailable { .. }
            | StorageError::EmptyView
            | StorageError::InvalidRequest
            | StorageError::NotRequested(_) => false,
        }
    }

    /// Map a frame decode failure on `(array_id, chunk_id)` to the
    /// matching storage error.
    pub(crate) fn from_frame(array_id: u64, chunk_id: u64, e: crate::frame::FrameError) -> Self {
        match e {
            crate::frame::FrameError::Truncated { expected, got } => StorageError::ShortRead {
                array_id,
                chunk_id,
                expected,
                got,
            },
            other => StorageError::Corrupt {
                array_id,
                chunk_id,
                detail: other.to_string(),
            },
        }
    }
}

impl std::fmt::Display for StorageError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "I/O error: {e}"),
            StorageError::Backend(m) => write!(f, "back-end error: {m}"),
            StorageError::MissingChunk { array_id, chunk_id } => {
                write!(f, "missing chunk {chunk_id} of array {array_id}")
            }
            StorageError::MissingArray(id) => write!(f, "unknown array id {id}"),
            StorageError::Array(e) => write!(f, "array error: {e}"),
            StorageError::Transient(m) => write!(f, "transient back-end fault: {m}"),
            StorageError::Corrupt {
                array_id,
                chunk_id,
                detail,
            } => write!(f, "corrupt chunk {chunk_id} of array {array_id}: {detail}"),
            StorageError::ShortRead {
                array_id,
                chunk_id,
                expected,
                got,
            } => write!(
                f,
                "short read of chunk {chunk_id} of array {array_id}: {got} of {expected} bytes"
            ),
            StorageError::DeadlineExceeded {
                op,
                attempts,
                last_error,
            } => write!(
                f,
                "{op} failed after {attempts} attempts (retry budget exhausted): {last_error}"
            ),
            StorageError::ShardUnavailable { shards } => {
                let list: Vec<String> = shards.iter().map(|s| s.to_string()).collect();
                write!(f, "shard(s) {} unavailable", list.join(", "))
            }
            StorageError::EmptyView => write!(f, "aggregate over empty array view"),
            StorageError::InvalidRequest => {
                write!(f, "a probe is read alone and does not fold")
            }
            StorageError::NotRequested(what) => write!(f, "the request did not ask for {what}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<io::Error> for StorageError {
    fn from(e: io::Error) -> Self {
        StorageError::Io(e)
    }
}

impl From<ssdm_array::ArrayError> for StorageError {
    fn from(e: ssdm_array::ArrayError) -> Self {
        StorageError::Array(e)
    }
}

impl From<relstore::StoreError> for StorageError {
    fn from(e: relstore::StoreError) -> Self {
        StorageError::Backend(e.to_string())
    }
}

/// What batched operations a back-end supports natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Capabilities {
    pub supports_in_list: bool,
    pub supports_range: bool,
    /// Whether one statement can scan across array boundaries
    /// (clustered composite-key table).
    pub supports_cross_range: bool,
    /// Whether the store tolerates concurrent shared reads (the
    /// [`SharedChunkRead`] contract) — when false, the parallel
    /// retrieval pipeline degrades to the sequential path even if the
    /// type implements the trait (e.g. a wrapper whose bookkeeping is
    /// not meaningful under concurrency).
    pub supports_parallel: bool,
}

/// Result rows of composite-key operations: `((array, chunk), payload)`.
pub type CompositeRows = Vec<((u64, u64), Vec<u8>)>;

/// Result rows of per-array chunk reads: `(chunk_id, payload)`.
pub type ChunkRows = Vec<(u64, Vec<u8>)>;

/// Back-end I/O statistics (statement-level, mirrors the paper's
/// measurement of SQL statements issued and rows returned).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct IoStats {
    pub statements: u64,
    pub chunks_returned: u64,
    pub bytes_returned: u64,
}

/// The ASEI: chunk-granular storage of linearized arrays. `Send` so an
/// SSDM instance can be owned by a server thread (thesis §5.1:
/// client-server deployment).
pub trait ChunkStore: Send {
    /// Announce a new array before its chunks are written. Back-ends
    /// with per-array physical layout (files) allocate here; the default
    /// is a no-op.
    fn begin_array(&mut self, _array_id: u64, _chunk_bytes: usize) -> Result<(), StorageError> {
        Ok(())
    }

    /// Write one chunk of an array.
    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError>;

    /// Fetch one chunk (one back-end statement).
    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError>;

    /// Fetch a set of chunks in one statement. Back-ends without native
    /// IN-list support may loop internally; the default does so and
    /// charges one statement per chunk.
    fn get_chunks_in(
        &mut self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let mut out = Vec::with_capacity(chunk_ids.len());
        for &c in chunk_ids {
            out.push((c, self.get_chunk(array_id, c)?));
        }
        Ok(out)
    }

    /// Fetch an inclusive chunk-id range in one statement. Default loops.
    fn get_chunk_range(
        &mut self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let ids: Vec<u64> = (lo..=hi).collect();
        self.get_chunks_in(array_id, &ids)
    }

    /// Fetch an inclusive composite-key range `(array, chunk)` that may
    /// span array boundaries, in ONE statement — the clustered-table
    /// scan behind bag-of-proxy resolution (thesis §6.2.4). Back-ends
    /// without a cross-array clustered layout return `Unsupported`;
    /// callers must consult [`Capabilities::supports_cross_range`].
    fn get_composite_range(
        &mut self,
        _lo: (u64, u64),
        _hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        Err(StorageError::Backend(
            "cross-array ranges not supported by this back-end".into(),
        ))
    }

    /// Row-value `IN`-list over composite keys in one statement
    /// (`WHERE (array, chunk) IN (...)`). Default: unsupported.
    fn get_composite_in(&mut self, _keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        Err(StorageError::Backend(
            "composite IN-lists not supported by this back-end".into(),
        ))
    }

    /// Delete all chunks of an array.
    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError>;

    fn capabilities(&self) -> Capabilities;

    fn io_stats(&self) -> IoStats;

    fn reset_io_stats(&mut self);

    /// Retry/corruption counters of the resilience layer, if any is
    /// present in this store stack. Plain back-ends report zeros.
    fn resilience_stats(&self) -> crate::resilient::ResilienceStats {
        crate::resilient::ResilienceStats::default()
    }

    fn reset_resilience_stats(&mut self) {}

    /// Hit/miss/eviction counters of the chunk cache, if any is present
    /// in this store stack. Uncached stacks report zeros.
    fn cache_stats(&self) -> crate::cache::CacheStats {
        crate::cache::CacheStats::default()
    }

    fn reset_cache_stats(&mut self) {}

    /// Placement/failover/replica-lag counters of the sharded store, if
    /// this stack routes reads across shards. Unsharded stacks report
    /// `None`.
    fn shard_stats(&self) -> Option<crate::shard::ShardStats> {
        None
    }

    /// Flush buffered writes to durable media (fsync). Checkpointing
    /// calls this before publishing a snapshot so chunk data referenced
    /// by the snapshot's catalog survives a crash. No-op for purely
    /// in-memory back-ends.
    fn sync(&mut self) -> Result<(), StorageError> {
        Ok(())
    }
}

/// The concurrent read side of a chunk store: the same fetch shapes as
/// [`ChunkStore`], but through `&self`, callable from many worker
/// threads at once. This is what the parallel retrieval pipeline
/// ([`crate::parallel`]) partitions an APR fetch plan over.
///
/// Implementations must keep [`IoStats`] accounting exact under
/// concurrency (the APR reports statement counts as deltas), and should
/// do per-chunk CRC32 frame verification on the *calling* thread, so
/// decode work parallelizes along with the fetches.
pub trait SharedChunkRead: Send + Sync {
    /// Fetch one chunk (one back-end statement).
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError>;

    /// Fetch a set of chunks in one statement.
    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError>;

    /// Fetch an inclusive chunk-id range in one statement.
    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError>;
}

/// Raw access to a chunk's *stored* (framed) bytes, beneath the
/// checksum layer. This is how the deterministic fault injector
/// ([`crate::FaultInjectingChunkStore`]) models media corruption: it
/// flips a bit in the at-rest representation, so the back-end's own
/// CRC32 verification — not the injector — detects the damage on the
/// next read, exactly as it would for a real corrupted page or file.
pub trait RawChunkAccess {
    /// Flip one bit of the stored representation of a chunk. `bit` is
    /// taken modulo the stored length in bits. Returns `Ok(false)` when
    /// the chunk does not exist.
    fn flip_stored_bit(
        &mut self,
        array_id: u64,
        chunk_id: u64,
        bit: u64,
    ) -> Result<bool, StorageError>;
}

/// [`ChunkStore`] + [`SharedChunkRead`] combined: what a boxed dataset
/// back-end must provide so *both* the mutating store path and the
/// parallel read pipeline work through one trait object. Blanket-
/// implemented for every type with both traits — all shipped back-ends
/// (memory, file, relational, their cache/resilience wrappers, the
/// sharded store, and the fault injector over a shared-readable inner
/// store) qualify. The injector still advertises `supports_parallel:
/// false` unless a test opts in via `enable_parallel`, so capability-
/// based downgrades to the sequential path are unchanged.
pub trait SharedChunkStore: ChunkStore + SharedChunkRead {}

impl<T: ChunkStore + SharedChunkRead> SharedChunkStore for T {}

impl ChunkStore for Box<dyn SharedChunkStore> {
    fn begin_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        (**self).begin_array(array_id, chunk_bytes)
    }

    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        (**self).put_chunk(array_id, chunk_id, data)
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        (**self).get_chunk(array_id, chunk_id)
    }

    fn get_chunks_in(
        &mut self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        (**self).get_chunks_in(array_id, chunk_ids)
    }

    fn get_chunk_range(
        &mut self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        (**self).get_chunk_range(array_id, lo, hi)
    }

    fn get_composite_range(
        &mut self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        (**self).get_composite_range(lo, hi)
    }

    fn get_composite_in(&mut self, keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        (**self).get_composite_in(keys)
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        (**self).delete_array(array_id, chunk_count)
    }

    fn capabilities(&self) -> Capabilities {
        (**self).capabilities()
    }

    fn io_stats(&self) -> IoStats {
        (**self).io_stats()
    }

    fn reset_io_stats(&mut self) {
        (**self).reset_io_stats()
    }

    fn resilience_stats(&self) -> crate::resilient::ResilienceStats {
        (**self).resilience_stats()
    }

    fn reset_resilience_stats(&mut self) {
        (**self).reset_resilience_stats()
    }

    fn cache_stats(&self) -> crate::cache::CacheStats {
        (**self).cache_stats()
    }

    fn reset_cache_stats(&mut self) {
        (**self).reset_cache_stats()
    }

    fn shard_stats(&self) -> Option<crate::shard::ShardStats> {
        (**self).shard_stats()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        (**self).sync()
    }
}

impl SharedChunkRead for Box<dyn SharedChunkStore> {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        (**self).read_chunk(array_id, chunk_id)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        (**self).read_chunks_in(array_id, chunk_ids)
    }

    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        (**self).read_chunk_range(array_id, lo, hi)
    }
}

// ---------------------------------------------------------------------
// Memory back-end
// ---------------------------------------------------------------------

/// A transient in-process back-end (hash map of chunks). Used as the
/// "resident" baseline and in tests. Chunks are held in their framed,
/// checksummed representation so at-rest corruption (or a fault
/// injector flipping stored bits) is caught on read like in the
/// persistent back-ends. Statistics live behind a mutex so reads can
/// run concurrently through [`SharedChunkRead`].
#[derive(Debug, Default)]
pub struct MemoryChunkStore {
    chunks: HashMap<(u64, u64), Vec<u8>>,
    stats: Mutex<IoStats>,
}

impl MemoryChunkStore {
    pub fn new() -> Self {
        MemoryChunkStore::default()
    }

    fn account(&self, chunks: usize, bytes: usize) {
        let mut stats = self.stats.lock().expect("stats mutex");
        stats.statements += 1;
        stats.chunks_returned += chunks as u64;
        stats.bytes_returned += bytes as u64;
    }

    /// Verify the stored frame where it lies; the one copy is the
    /// payload leaving the map.
    fn decode(frame: &[u8], array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        crate::frame::decode(frame)
            .map(<[u8]>::to_vec)
            .map_err(|e| StorageError::from_frame(array_id, chunk_id, e))
    }
}

impl SharedChunkRead for MemoryChunkStore {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let frame = self
            .chunks
            .get(&(array_id, chunk_id))
            .ok_or(StorageError::MissingChunk { array_id, chunk_id })?;
        let v = Self::decode(frame, array_id, chunk_id)?;
        self.account(1, v.len());
        Ok(v)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let mut out = Vec::with_capacity(chunk_ids.len());
        let mut bytes = 0;
        for &c in chunk_ids {
            let frame = self
                .chunks
                .get(&(array_id, c))
                .ok_or(StorageError::MissingChunk {
                    array_id,
                    chunk_id: c,
                })?;
            let v = Self::decode(frame, array_id, c)?;
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
        let mut out = Vec::new();
        let mut bytes = 0;
        for c in lo..=hi {
            if let Some(frame) = self.chunks.get(&(array_id, c)) {
                let v = Self::decode(frame, array_id, c)?;
                bytes += v.len();
                out.push((c, v));
            }
        }
        self.account(out.len(), bytes);
        Ok(out)
    }
}

impl RawChunkAccess for MemoryChunkStore {
    fn flip_stored_bit(
        &mut self,
        array_id: u64,
        chunk_id: u64,
        bit: u64,
    ) -> Result<bool, StorageError> {
        match self.chunks.get_mut(&(array_id, chunk_id)) {
            Some(frame) if !frame.is_empty() => {
                let bit = bit % (frame.len() as u64 * 8);
                frame[(bit / 8) as usize] ^= 1 << (bit % 8);
                Ok(true)
            }
            _ => Ok(false),
        }
    }
}

impl ChunkStore for MemoryChunkStore {
    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.chunks
            .insert((array_id, chunk_id), crate::frame::encode(data));
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

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        for c in 0..chunk_count {
            self.chunks.remove(&(array_id, c));
        }
        Ok(())
    }

    fn get_composite_range(
        &mut self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        let mut keys: Vec<(u64, u64)> = self
            .chunks
            .keys()
            .filter(|&&k| k >= lo && k <= hi)
            .copied()
            .collect();
        keys.sort_unstable();
        let mut out = Vec::with_capacity(keys.len());
        let mut bytes = 0;
        for k in keys {
            let v = Self::decode(&self.chunks[&k], k.0, k.1)?;
            bytes += v.len();
            out.push((k, v));
        }
        self.account(out.len(), bytes);
        Ok(out)
    }

    fn get_composite_in(&mut self, keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        let mut out = Vec::with_capacity(keys.len());
        let mut bytes = 0;
        for &k in keys {
            if let Some(frame) = self.chunks.get(&k) {
                let v = Self::decode(frame, k.0, k.1)?;
                bytes += v.len();
                out.push((k, v));
            }
        }
        self.account(out.len(), bytes);
        Ok(out)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_in_list: true,
            supports_range: true,
            supports_cross_range: true,
            supports_parallel: true,
        }
    }

    fn io_stats(&self) -> IoStats {
        *self.stats.lock().expect("stats mutex")
    }

    fn reset_io_stats(&mut self) {
        *self.stats.get_mut().expect("stats mutex") = IoStats::default();
    }
}

// ---------------------------------------------------------------------
// Binary-file back-end
// ---------------------------------------------------------------------

/// One binary file per array, chunks at fixed offsets after a small
/// header — the paper's file-based storage (and the `.mat` file-link
/// scenario of ch. 7). Supports ranges natively (sequential read);
/// IN-lists are looped but still one "statement" since there is no
/// server round trip. Files persist across store instances: reopening
/// the directory lazily re-attaches existing arrays via their headers.
///
/// Layout (format 2, checksummed): a 16-byte file header, then one
/// fixed-size *slot* per chunk of `FRAME_HEADER + SCC_HEADER +
/// chunk_bytes` bytes. Each slot holds a checksummed [`crate::frame`]
/// whose recorded length may be shorter than the slot capacity (partial
/// tail chunk, or a compressed [`crate::codec`] frame). The
/// `SCC_HEADER` slack exists because an `SCC1` chunk frame is bounded
/// at `chunk_bytes + SCC_HEADER` (every codec falls back to raw
/// passthrough when it cannot shrink the payload), so even an
/// incompressible chunk always fits its slot. A file truncated below a
/// chunk's framed length surfaces as [`StorageError::ShortRead`],
/// distinct from both a missing chunk and a checksum mismatch.
pub struct FileChunkStore {
    dir: PathBuf,
    files: RwLock<HashMap<u64, Arc<ArrayFile>>>,
    stats: Mutex<IoStats>,
    /// fsync every chunk write before returning. Off by default; the
    /// durability layer turns it on under `FsyncPolicy::Always` so
    /// acknowledged chunk data is on media, not just in the page cache.
    sync_writes: bool,
}

/// One open array file and its declared chunk size.
struct ArrayFile {
    file: File,
    chunk_bytes: usize,
}

/// Array-file header: magic + chunk size. `SSDMARR2` introduced
/// per-chunk checksum frames; v1 files (no frames) are rejected with a
/// clear error rather than misread.
const FILE_MAGIC: &[u8; 8] = b"SSDMARR2";
const FILE_MAGIC_V1: &[u8; 8] = b"SSDMARR1";
const FILE_HEADER: u64 = 16;

impl FileChunkStore {
    /// Store files under `dir` (created if needed).
    pub fn new(dir: impl Into<PathBuf>) -> Result<Self, StorageError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(FileChunkStore {
            dir,
            files: RwLock::new(HashMap::new()),
            stats: Mutex::new(IoStats::default()),
            sync_writes: false,
        })
    }

    /// Make every chunk write fsync before returning (see
    /// `sync_writes`). Independent of [`ChunkStore::sync`], which
    /// flushes on demand whatever this knob says.
    pub fn set_sync_writes(&mut self, on: bool) {
        self.sync_writes = on;
    }

    /// Declare the chunk size of an array before writing it.
    pub fn create_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        let path = self.array_path(array_id);
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        let mut header = [0u8; FILE_HEADER as usize];
        header[..8].copy_from_slice(FILE_MAGIC);
        header[8..12].copy_from_slice(&(chunk_bytes as u32).to_le_bytes());
        file.write_all_at(&header, 0)?;
        if self.sync_writes {
            file.sync_all()?;
        }
        self.files
            .write()
            .expect("files lock")
            .insert(array_id, Arc::new(ArrayFile { file, chunk_bytes }));
        Ok(())
    }

    fn array_path(&self, array_id: u64) -> PathBuf {
        self.dir.join(format!("arr_{array_id}.bin"))
    }

    /// The open handle for an array, lazily re-attaching a file written
    /// by a previous instance of the store over the same directory.
    /// Returns a cloned [`Arc`] so callers hold no lock while reading.
    fn file(&self, array_id: u64) -> Result<Arc<ArrayFile>, StorageError> {
        if let Some(af) = self.files.read().expect("files lock").get(&array_id) {
            return Ok(Arc::clone(af));
        }
        let path = self.array_path(array_id);
        if !path.exists() {
            return Err(StorageError::MissingArray(array_id));
        }
        let file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut header = [0u8; FILE_HEADER as usize];
        file.read_exact_at(&mut header, 0)?;
        if &header[..8] == FILE_MAGIC_V1 {
            return Err(StorageError::Backend(format!(
                "{} is a legacy v1 array file without chunk checksums; re-import it",
                path.display()
            )));
        }
        if &header[..8] != FILE_MAGIC {
            return Err(StorageError::Backend(format!(
                "{} is not an SSDM array file",
                path.display()
            )));
        }
        let chunk_bytes = u32::from_le_bytes(header[8..12].try_into().expect("4 bytes")) as usize;
        let af = Arc::new(ArrayFile { file, chunk_bytes });
        // Two racing re-attachers both open the file; either handle
        // works, keep whichever landed first.
        Ok(Arc::clone(
            self.files
                .write()
                .expect("files lock")
                .entry(array_id)
                .or_insert(af),
        ))
    }

    /// Bytes per chunk slot: checksum frame header, codec-frame slack,
    /// and the full payload (see the struct docs for why the slack is
    /// safe and sufficient).
    fn slot_bytes(chunk_bytes: usize) -> u64 {
        (crate::frame::FRAME_HEADER + crate::codec::SCC_HEADER + chunk_bytes) as u64
    }

    /// Up to `want` bytes at `offset`, stopping where the file ends. How
    /// many come back is how the read paths learn where that is, with no
    /// `fstat` beside the read; the buffer grows by what the file has
    /// already proven to hold, so a `want` far past the end allocates
    /// nothing for it.
    fn read_up_to(file: &File, offset: u64, want: u64) -> io::Result<Vec<u8>> {
        let mut buf = Vec::new();
        let mut got = 0;
        while (got as u64) < want {
            if got == buf.len() {
                let step = (want - got as u64).min((got as u64).max(1 << 20));
                buf.resize(got + step as usize, 0);
            }
            match file.read_at(&mut buf[got..], offset + got as u64) {
                Ok(0) => break,
                Ok(n) => got += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        buf.truncate(got);
        Ok(buf)
    }

    /// The stored bytes from chunk `first`'s slot on, up to `want` of
    /// them, as far as the file has any. Nothing at the slot's offset
    /// (or an offset no file can have) is a chunk beyond the end of the
    /// file: missing.
    fn read_slots(
        af: &ArrayFile,
        array_id: u64,
        first: u64,
        want: u64,
    ) -> Result<Vec<u8>, StorageError> {
        let offset = first
            .checked_mul(Self::slot_bytes(af.chunk_bytes))
            .and_then(|o| o.checked_add(FILE_HEADER))
            .filter(|&o| o <= i64::MAX as u64);
        let bytes = match offset {
            Some(offset) => Self::read_up_to(&af.file, offset, want)?,
            None => Vec::new(),
        };
        if bytes.is_empty() {
            return Err(StorageError::MissingChunk {
                array_id,
                chunk_id: first,
            });
        }
        Ok(bytes)
    }

    /// Read one slot into the buffer that becomes the payload, and
    /// verify the frame in it; a frame cut off by the file end is a
    /// short read.
    fn read_slot(af: &ArrayFile, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let slot = Self::read_slots(af, array_id, chunk_id, Self::slot_bytes(af.chunk_bytes))?;
        crate::frame::into_payload(slot)
            .map_err(|e| StorageError::from_frame(array_id, chunk_id, e))
    }

    /// Native sequential read of a whole chunk-id range in one pread,
    /// then per-slot frame verification in the span; each payload is
    /// copied out of it once.
    fn read_range(
        af: &ArrayFile,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<(ChunkRows, usize), StorageError> {
        let slot = Self::slot_bytes(af.chunk_bytes);
        let want = (hi - lo).saturating_add(1).saturating_mul(slot);
        let span = Self::read_slots(af, array_id, lo, want)?;
        // Chunks past the end of the file were never written: `chunks`
        // stops at the last slot the read reached.
        let mut out = Vec::with_capacity(span.len().div_ceil(slot as usize));
        let mut bytes = 0;
        for (chunk_id, framed) in (lo..).zip(span.chunks(slot as usize)) {
            let payload = crate::frame::decode(framed)
                .map_err(|e| StorageError::from_frame(array_id, chunk_id, e))?;
            bytes += payload.len();
            out.push((chunk_id, payload.to_vec()));
        }
        Ok((out, bytes))
    }

    fn account(&self, chunks: usize, bytes: usize) {
        let mut stats = self.stats.lock().expect("stats mutex");
        stats.statements += 1;
        stats.chunks_returned += chunks as u64;
        stats.bytes_returned += bytes as u64;
    }
}

impl SharedChunkRead for FileChunkStore {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let af = self.file(array_id)?;
        let payload = Self::read_slot(&af, array_id, chunk_id)?;
        self.account(1, payload.len());
        Ok(payload)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let af = self.file(array_id)?;
        let mut out = Vec::with_capacity(chunk_ids.len());
        let mut bytes = 0;
        for &c in chunk_ids {
            let payload = Self::read_slot(&af, array_id, c)?;
            bytes += payload.len();
            out.push((c, payload));
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
        let af = self.file(array_id)?;
        let (out, bytes) = Self::read_range(&af, array_id, lo, hi)?;
        self.account(out.len(), bytes);
        Ok(out)
    }
}

impl RawChunkAccess for FileChunkStore {
    fn flip_stored_bit(
        &mut self,
        array_id: u64,
        chunk_id: u64,
        bit: u64,
    ) -> Result<bool, StorageError> {
        let af = self.file(array_id)?;
        let len = af.file.metadata()?.len();
        let offset = FILE_HEADER + chunk_id * Self::slot_bytes(af.chunk_bytes);
        if offset >= len {
            return Ok(false);
        }
        let avail = (len - offset).min(Self::slot_bytes(af.chunk_bytes));
        let bit = bit % (avail * 8);
        let mut byte = [0u8; 1];
        af.file.read_exact_at(&mut byte, offset + bit / 8)?;
        byte[0] ^= 1 << (bit % 8);
        af.file.write_all_at(&byte, offset + bit / 8)?;
        Ok(true)
    }
}

impl ChunkStore for FileChunkStore {
    fn begin_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        self.create_array(array_id, chunk_bytes)
    }

    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        let af = self.file(array_id)?;
        let offset = FILE_HEADER + chunk_id * Self::slot_bytes(af.chunk_bytes);
        af.file.write_all_at(&crate::frame::encode(data), offset)?;
        if self.sync_writes {
            af.file.sync_data()?;
        }
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

    fn delete_array(&mut self, array_id: u64, _chunk_count: u64) -> Result<(), StorageError> {
        self.files.write().expect("files lock").remove(&array_id);
        std::fs::remove_file(self.array_path(array_id)).ok();
        Ok(())
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_in_list: false,
            supports_range: true,
            supports_cross_range: false, // one file per array
            supports_parallel: true,
        }
    }

    fn io_stats(&self) -> IoStats {
        *self.stats.lock().expect("stats mutex")
    }

    fn reset_io_stats(&mut self) {
        *self.stats.get_mut().expect("stats mutex") = IoStats::default();
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        for af in self.files.read().expect("files lock").values() {
            af.file.sync_all()?;
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------
// Relational back-end
// ---------------------------------------------------------------------

/// The relational back-end: chunks as rows of a clustered table keyed
/// `(array_id, chunk_id)` (thesis §6.2.1), served by the embedded
/// [`relstore`] substrate with its statement latency model. Row values
/// are checksummed [`crate::frame`]s, so page-level corruption in the
/// substrate is detected when the row is read back.
///
/// The embedded [`Db`] is single-writer, so shared reads serialize on a
/// mutex — but the simulated client–server latency is charged *outside*
/// the lock (by parking, not spinning), so concurrent readers overlap
/// their simulated round trips the way real connections to a remote
/// RDBMS would.
pub struct RelChunkStore {
    db: Mutex<Db>,
}

impl RelChunkStore {
    /// Verify a row value in the buffer the substrate returned it in;
    /// that buffer, less the frame header, is the payload.
    fn decode_row(frame: Vec<u8>, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        crate::frame::into_payload(frame)
            .map_err(|e| StorageError::from_frame(array_id, chunk_id, e))
    }

    fn decode_rows(rows: Vec<(Key, Vec<u8>)>) -> Result<ChunkRows, StorageError> {
        rows.into_iter()
            .map(|(k, v)| Ok((k.chunk_id, Self::decode_row(v, k.array_id, k.chunk_id)?)))
            .collect()
    }

    fn decode_composite_rows(rows: Vec<(Key, Vec<u8>)>) -> Result<CompositeRows, StorageError> {
        rows.into_iter()
            .map(|(k, v)| {
                Ok((
                    (k.array_id, k.chunk_id),
                    Self::decode_row(v, k.array_id, k.chunk_id)?,
                ))
            })
            .collect()
    }

    /// An `IN`-list statement returns the rows it found; a requested
    /// chunk without a row is missing.
    fn decode_in_rows(
        rows: Vec<(Key, Vec<u8>)>,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<ChunkRows, StorageError> {
        if rows.len() != chunk_ids.len() {
            let got: std::collections::HashSet<u64> =
                rows.iter().map(|(k, _)| k.chunk_id).collect();
            if let Some(&chunk_id) = chunk_ids.iter().find(|c| !got.contains(c)) {
                return Err(StorageError::MissingChunk { array_id, chunk_id });
            }
        }
        Self::decode_rows(rows)
    }
}

impl RawChunkAccess for RelChunkStore {
    fn flip_stored_bit(
        &mut self,
        array_id: u64,
        chunk_id: u64,
        bit: u64,
    ) -> Result<bool, StorageError> {
        let db = self.db.get_mut().expect("db mutex");
        let key = Key::new(array_id, chunk_id);
        let Some(mut frame) = db.get(key)? else {
            return Ok(false);
        };
        if frame.is_empty() {
            return Ok(false);
        }
        let bit = bit % (frame.len() as u64 * 8);
        frame[(bit / 8) as usize] ^= 1 << (bit % 8);
        db.put(key, &frame)?;
        Ok(true)
    }
}

impl RelChunkStore {
    pub fn new(db: Db) -> Self {
        RelChunkStore { db: Mutex::new(db) }
    }

    /// An in-memory relational store with default options.
    pub fn open_memory() -> Result<Self, StorageError> {
        Ok(Self::new(Db::open_memory(relstore::DbOptions::default())?))
    }

    /// Create a file-backed relational store.
    pub fn create_file(path: &Path, options: relstore::DbOptions) -> Result<Self, StorageError> {
        Ok(Self::new(Db::create_file(path, options)?))
    }

    pub fn db_mut(&mut self) -> &mut Db {
        self.db.get_mut().expect("db mutex")
    }

    /// Run `op` against the locked [`Db`] with latency charging
    /// suppressed, then return the result together with the charge the
    /// configured [`LatencyModel`] would have applied. The caller pays
    /// the charge *after* releasing the lock by parking
    /// ([`relstore::park_wait`]): a client–server round trip is an I/O
    /// wait, so concurrent readers overlap it instead of serializing
    /// spin-waits through the mutex.
    fn shared_statement<T>(
        &self,
        op: impl FnOnce(&mut Db) -> Result<T, StorageError>,
        cost: impl FnOnce(&T) -> (usize, usize),
    ) -> Result<T, StorageError> {
        let (out, charge) = {
            let mut db = self.db.lock().expect("db mutex");
            let lat = db.latency();
            db.set_latency(LatencyModel::none());
            let r = op(&mut db);
            db.set_latency(lat);
            let out = r?;
            let (rows, bytes) = cost(&out);
            let charge = lat.charge(rows, bytes);
            (out, charge)
        };
        relstore::park_wait(charge);
        Ok(out)
    }
}

impl SharedChunkRead for RelChunkStore {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let frame = self.shared_statement(
            |db| Ok(db.get(Key::new(array_id, chunk_id))?),
            |v| match v {
                Some(b) => (1, b.len()),
                None => (0, 0),
            },
        )?;
        let frame = frame.ok_or(StorageError::MissingChunk { array_id, chunk_id })?;
        Self::decode_row(frame, array_id, chunk_id)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let rows = self.shared_statement(
            |db| Ok(db.get_in(array_id, chunk_ids)?),
            |rows| (rows.len(), rows.iter().map(|(_, v)| v.len()).sum()),
        )?;
        Self::decode_in_rows(rows, array_id, chunk_ids)
    }

    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let rows = self.shared_statement(
            |db| Ok(db.get_range(array_id, lo, hi)?),
            |rows| (rows.len(), rows.iter().map(|(_, v)| v.len()).sum()),
        )?;
        Self::decode_rows(rows)
    }
}

impl ChunkStore for RelChunkStore {
    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.db
            .get_mut()
            .expect("db mutex")
            .put(Key::new(array_id, chunk_id), &crate::frame::encode(data))?;
        Ok(())
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let frame = self
            .db
            .get_mut()
            .expect("db mutex")
            .get(Key::new(array_id, chunk_id))?
            .ok_or(StorageError::MissingChunk { array_id, chunk_id })?;
        Self::decode_row(frame, array_id, chunk_id)
    }

    fn get_chunks_in(
        &mut self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let rows = self
            .db
            .get_mut()
            .expect("db mutex")
            .get_in(array_id, chunk_ids)?;
        Self::decode_in_rows(rows, array_id, chunk_ids)
    }

    fn get_chunk_range(
        &mut self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let rows = self
            .db
            .get_mut()
            .expect("db mutex")
            .get_range(array_id, lo, hi)?;
        Self::decode_rows(rows)
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        let db = self.db.get_mut().expect("db mutex");
        for c in 0..chunk_count {
            db.delete(Key::new(array_id, c))?;
        }
        Ok(())
    }

    fn get_composite_range(
        &mut self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        let rows = self
            .db
            .get_mut()
            .expect("db mutex")
            .get_key_range(Key::new(lo.0, lo.1), Key::new(hi.0, hi.1))?;
        Self::decode_composite_rows(rows)
    }

    fn get_composite_in(&mut self, keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        let db_keys: Vec<Key> = keys.iter().map(|&(a, c)| Key::new(a, c)).collect();
        let rows = self.db.get_mut().expect("db mutex").get_keys(&db_keys)?;
        Self::decode_composite_rows(rows)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_in_list: true,
            supports_range: true,
            supports_cross_range: true,
            supports_parallel: true,
        }
    }

    fn io_stats(&self) -> IoStats {
        let s = self.db.lock().expect("db mutex").statement_stats();
        IoStats {
            statements: s.statements,
            chunks_returned: s.rows_returned,
            bytes_returned: s.bytes_returned,
        }
    }

    fn reset_io_stats(&mut self) {
        self.db.get_mut().expect("db mutex").reset_stats();
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.db.get_mut().expect("db mutex").flush()?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(store: &mut dyn ChunkStore) {
        store.put_chunk(1, 0, b"aaaaaaaa").unwrap();
        store.put_chunk(1, 1, b"bbbbbbbb").unwrap();
        store.put_chunk(1, 2, b"cccccccc").unwrap();
        assert_eq!(store.get_chunk(1, 1).unwrap(), b"bbbbbbbb");
        let many = store.get_chunks_in(1, &[0, 2]).unwrap();
        assert_eq!(many.len(), 2);
        assert_eq!(many[0], (0, b"aaaaaaaa".to_vec()));
        let range = store.get_chunk_range(1, 0, 2).unwrap();
        assert_eq!(range.len(), 3);
        assert!(store.get_chunk(1, 99).is_err());
        assert!(store.get_chunk(9, 0).is_err());
    }

    #[test]
    fn memory_store_contract() {
        let mut s = MemoryChunkStore::new();
        exercise(&mut s);
        // get_chunk + get_chunks_in + get_chunk_range succeeded; the
        // two failing lookups error out before being accounted.
        assert_eq!(s.io_stats().statements, 3);
    }

    #[test]
    fn rel_store_contract() {
        let mut s = RelChunkStore::open_memory().unwrap();
        exercise(&mut s);
    }

    #[test]
    fn file_store_contract() {
        let dir = std::env::temp_dir().join(format!("ssdm-fcs-{}", std::process::id()));
        let mut s = FileChunkStore::new(&dir).unwrap();
        s.create_array(1, 8).unwrap();
        exercise(&mut s);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_partial_last_chunk() {
        let dir = std::env::temp_dir().join(format!("ssdm-fcs2-{}", std::process::id()));
        let mut s = FileChunkStore::new(&dir).unwrap();
        s.create_array(1, 16).unwrap();
        s.put_chunk(1, 0, &[1u8; 16]).unwrap();
        s.put_chunk(1, 1, &[2u8; 4]).unwrap(); // partial tail
        assert_eq!(s.get_chunk(1, 1).unwrap(), vec![2u8; 4]);
        let range = s.get_chunk_range(1, 0, 1).unwrap();
        assert_eq!(range[1].1.len(), 4);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_store_truncation_is_short_read_not_io_error() {
        let dir = std::env::temp_dir().join(format!("ssdm-fcs4-{}", std::process::id()));
        let mut s = FileChunkStore::new(&dir).unwrap();
        s.create_array(1, 16).unwrap();
        s.put_chunk(1, 0, &[7u8; 16]).unwrap();
        s.put_chunk(1, 1, &[8u8; 16]).unwrap();
        // Cut the file off mid-way through chunk 1's frame: 10 bytes of
        // a 32-byte slot survive.
        let slot = FileChunkStore::slot_bytes(16);
        let f = OpenOptions::new()
            .write(true)
            .open(dir.join("arr_1.bin"))
            .unwrap();
        f.set_len(FILE_HEADER + slot + 10).unwrap();
        drop(f);
        let err = s.get_chunk(1, 1).unwrap_err();
        assert!(
            matches!(
                err,
                StorageError::ShortRead {
                    array_id: 1,
                    chunk_id: 1,
                    ..
                }
            ),
            "expected ShortRead, got {err:?}"
        );
        assert!(err.is_transient(), "short reads are retry-classified");
        // A range over the torn tail reports the same, and the intact
        // chunk is still served.
        assert!(matches!(
            s.get_chunk_range(1, 0, 1),
            Err(StorageError::ShortRead { .. })
        ));
        assert_eq!(s.get_chunk(1, 0).unwrap(), vec![7u8; 16]);
        // Chunks beyond the file end stay MissingChunk, not ShortRead.
        assert!(matches!(
            s.get_chunk(1, 5),
            Err(StorageError::MissingChunk { .. })
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn capabilities_differ() {
        assert!(MemoryChunkStore::new().capabilities().supports_in_list);
        let dir = std::env::temp_dir().join(format!("ssdm-fcs3-{}", std::process::id()));
        let f = FileChunkStore::new(&dir).unwrap();
        assert!(!f.capabilities().supports_in_list);
        assert!(f.capabilities().supports_range);
        std::fs::remove_dir_all(&dir).ok();
    }
}
