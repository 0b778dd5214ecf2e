//! External storage of *RDF with Arrays*: the Array Storage
//! Extensibility Interface and lazy array retrieval.
//!
//! Massive arrays do not live in SSDM's main memory: they are split into
//! fixed-size one-dimensional chunks (thesis §2.5: "we split the arrays
//! into one-dimensional chunks, so that the chunk size is the only
//! parameter") and stored in an external back-end behind the **ASEI**
//! ([`ChunkStore`]). Queries carry **array proxies** ([`ArrayProxy`]) —
//! descriptors holding shape and pending view transformations but no
//! elements — and the **array-proxy-resolve** operator ([`apr`])
//! materializes exactly the elements a query touches, using one of the
//! retrieval strategies compared in §6.3:
//!
//! * [`RetrievalStrategy::Single`] — one back-end statement per chunk;
//! * [`RetrievalStrategy::BufferedIn`] — buffered `IN`-list statements;
//! * [`RetrievalStrategy::SpdRange`] — the Sequence Pattern Detector
//!   ([`spd`]) compresses regular chunk-id sequences into range queries;
//! * [`RetrievalStrategy::WholeArray`] — fetch everything (the baseline).
//!
//! Back-ends provided: [`MemoryChunkStore`], [`FileChunkStore`] (binary
//! files, the paper's file-link scenario) and [`RelChunkStore`] (the
//! embedded relational substrate standing in for MySQL).
//!
//! The crate is safe Rust but for one module, the CRC32 kernel in
//! [`frame`]; each `unsafe` block there states why it is sound.

#![deny(unsafe_code)]
#![warn(clippy::undocumented_unsafe_blocks)]

pub mod apr;
mod bag;
pub mod cache;
mod chunks;
pub mod codec;
pub mod fault;
pub mod frame;
mod meta;
pub mod parallel;
pub mod replica;
pub mod runs;
pub mod shard;
pub mod spd;
mod store;
pub mod wal;

pub use apr::{AprStats, ArrayStore, Request, Resolved, RetrievalStrategy};
pub use cache::{CacheStats, CachedChunkStore, ChunkCache};
pub use chunks::{auto_chunk_bytes, Chunking};
pub use codec::{
    ChunkSummary, CodecError, CodecId, CodecPolicy, ValuePredicate, ZoneMap, SCC_HEADER, SCC_MAGIC,
};
pub use fault::{FaultInjectingChunkStore, FaultKind, FaultPlan, FaultStats, OpKind};
pub use meta::{ArrayMeta, ArrayProxy};
pub use replica::{Breaker, BreakerState, Replica, ReplicaHealth};
pub use shard::{ShardHealth, ShardOptions, ShardStats, ShardedChunkStore};
pub use store::{
    Capabilities, ChunkStore, FileChunkStore, IoStats, MemoryChunkStore, RawChunkAccess,
    RelChunkStore, SharedChunkRead, SharedChunkStore, StorageError,
};
pub use wal::{
    CrashPlan, FsyncPolicy, WalOptions, WalReader, WalRecord, WalRecovery, WalStats, WalWriter,
};

/// A fresh directory under the system's temporary directory, removed
/// when the guard drops: at the end of the test, or while it unwinds
/// from a failed assert.
#[cfg(test)]
pub(crate) struct TmpDir(std::path::PathBuf);

#[cfg(test)]
impl TmpDir {
    pub(crate) fn new(tag: &str) -> TmpDir {
        use std::sync::atomic::{AtomicU64, Ordering};
        static N: AtomicU64 = AtomicU64::new(0);
        let n = N.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!("ssdm-{tag}-{}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create a test directory");
        TmpDir(dir)
    }

    pub(crate) fn path(&self) -> &std::path::Path {
        &self.0
    }
}

#[cfg(test)]
impl Drop for TmpDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
