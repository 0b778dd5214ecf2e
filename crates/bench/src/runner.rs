//! Experiment execution and measurement collection.

use std::time::Instant;

use relstore::{Db, DbOptions, LatencyModel};
use ssdm_storage::{ArrayProxy, ArrayStore, ChunkStore, RelChunkStore, RetrievalStrategy};

use crate::workload::{AccessPattern, QueryGenerator};

/// Measurements for one (pattern, strategy) cell of an experiment
/// table, averaged over `queries` query instances.
#[derive(Debug, Clone, Copy)]
pub struct Measurement {
    pub queries: usize,
    pub total_seconds: f64,
    pub statements: u64,
    pub chunks_fetched: u64,
    pub bytes_fetched: u64,
    pub elements_resolved: u64,
}

impl Measurement {
    pub fn per_query_ms(&self) -> f64 {
        self.total_seconds * 1e3 / self.queries.max(1) as f64
    }

    /// Back-end statements per query.
    pub fn statements_per_query(&self) -> f64 {
        self.statements as f64 / self.queries.max(1) as f64
    }

    /// Overfetch factor: bytes fetched per byte actually needed.
    pub fn overfetch(&self) -> f64 {
        let needed = self.elements_resolved.max(1) * 8;
        self.bytes_fetched as f64 / needed as f64
    }
}

/// An in-memory relational chunk store that charges `latency` per
/// statement, with a buffer pool of `pool_pages`.
pub fn rel_store(latency: LatencyModel, pool_pages: usize) -> RelChunkStore {
    let options = DbOptions {
        pool_pages,
        latency,
    };
    RelChunkStore::new(Db::open_memory(options).expect("in-memory relational store"))
}

/// Run `queries` instances of `pattern` under `strategy`, resolving
/// each view fully, and return the aggregated measurements.
pub fn run_pattern<S: ChunkStore>(
    store: &mut ArrayStore<S>,
    base: &ArrayProxy,
    generator: &mut QueryGenerator,
    pattern: AccessPattern,
    strategy: RetrievalStrategy,
    queries: usize,
) -> Measurement {
    store.backend_mut().reset_io_stats();
    let mut elements = 0u64;
    let start = Instant::now();
    for _ in 0..queries {
        let proxy = generator.instance(base, pattern);
        let resolved = store.resolve(&proxy, strategy).expect("resolve");
        elements += resolved.element_count() as u64;
        std::hint::black_box(&resolved);
    }
    let total_seconds = start.elapsed().as_secs_f64();
    let io = store.backend().io_stats();
    Measurement {
        queries,
        total_seconds,
        statements: io.statements,
        chunks_fetched: io.chunks_returned,
        bytes_fetched: io.bytes_returned,
        elements_resolved: elements,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::standard_patterns;
    use ssdm_storage::MemoryChunkStore;

    #[test]
    fn measurements_are_consistent() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        // Pin the raw codec: this test checks *wire* overfetch against
        // bytes needed, an invariant compression deliberately breaks.
        store.set_codec(ssdm_storage::CodecPolicy::Raw);
        let m = QueryGenerator::matrix(64, 64);
        let base = store.store_array(&m, 512).unwrap();
        let mut gen = QueryGenerator::new(64, 64, 3);
        for p in standard_patterns() {
            let meas = run_pattern(&mut store, &base, &mut gen, p, RetrievalStrategy::Single, 4);
            assert_eq!(meas.queries, 4);
            assert!(meas.statements >= 4, "{}", p.name());
            assert!(meas.chunks_fetched >= meas.statements);
            assert!(
                meas.overfetch() >= 0.99,
                "{}: {}",
                p.name(),
                meas.overfetch()
            );
        }
    }
}
