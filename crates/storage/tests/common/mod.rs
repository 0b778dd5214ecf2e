//! What the integration tests share: one request read alone.

use ssdm_storage::{ArrayStore, ChunkStore, Request, Resolved, RetrievalStrategy, StorageError};

/// Read `req` on its own (a bag of one) on the sequential lane.
pub fn one<S: ChunkStore>(
    store: &mut ArrayStore<S>,
    req: Request,
    strategy: RetrievalStrategy,
) -> Result<Resolved, StorageError> {
    Ok(store.read(&[req], strategy)?.remove(0))
}
