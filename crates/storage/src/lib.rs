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
pub mod resilient;
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
pub use resilient::{ResilienceStats, ResilientChunkStore, RetryPolicy};
pub use shard::{ShardHealth, ShardOptions, ShardStats, ShardedChunkStore};
pub use store::{
    Capabilities, ChunkStore, FileChunkStore, IoStats, MemoryChunkStore, RawChunkAccess,
    RelChunkStore, SharedChunkRead, SharedChunkStore, StorageError,
};
pub use wal::{
    CrashPlan, FsyncPolicy, WalOptions, WalReader, WalRecord, WalRecovery, WalStats, WalWriter,
};

/// Result alias for storage operations.
pub type Result<T> = std::result::Result<T, StorageError>;
