//! Chunk-side parallel aggregation (`read_parallel` of a fold) is
//! **bit-identical** to the sequential `read` of it for every worker
//! count, strategy, element type, and view shape: both paths fold each
//! chunk's relevant elements with the same typed kernel and combine the
//! per-chunk partials in plan order, so the fold tree never depends on
//! scheduling.

use ssdm_array::{AggregateOp, Num, NumArray};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, Capabilities, ChunkStore, IoStats, MemoryChunkStore, Request, RetrievalStrategy,
    SharedChunkRead, StorageError,
};

mod common;
use common::one;

fn real_matrix() -> NumArray {
    NumArray::from_shape_fn(&[24, 24], |ix| {
        ((ix[0] * 131 + ix[1] * 17) as f64 * 0.37 - 40.0).into()
    })
}

fn int_matrix() -> NumArray {
    let vals: Vec<i64> = (0..24 * 24).map(|i| (i * 7919 % 1000) - 500).collect();
    NumArray::from_i64_shaped(vals, &[24, 24]).unwrap()
}

fn strategies() -> Vec<RetrievalStrategy> {
    vec![
        RetrievalStrategy::Single,
        RetrievalStrategy::BufferedIn { buffer_size: 4 },
        RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        },
        RetrievalStrategy::WholeArray,
    ]
}

const OPS: &[AggregateOp] = &[
    AggregateOp::Sum,
    AggregateOp::Avg,
    AggregateOp::Min,
    AggregateOp::Max,
    AggregateOp::Count,
];

/// Views covering single-chunk, cross-chunk, strided, and full access.
fn views(base: &ssdm_storage::ArrayProxy) -> Vec<ssdm_storage::ArrayProxy> {
    vec![
        base.subscript(0, 3).unwrap(),    // one row (within few chunks)
        base.subscript(1, 5).unwrap(),    // one column, crosses every chunk row
        base.slice(0, 1, 3, 22).unwrap(), // strided rows
        base.slice(0, 4, 1, 11)
            .and_then(|p| p.slice(1, 4, 1, 11))
            .unwrap(), // block spanning chunk seams
        base.clone(),                     // whole array
    ]
}

fn bits(n: &Num) -> (bool, u64) {
    match n {
        Num::Int(v) => (true, *v as u64),
        Num::Real(v) => (false, v.to_bits()),
    }
}

/// `req`'s fold, read alone on the sequential lane or on `workers`.
fn fold<S: ChunkStore + SharedChunkRead>(
    store: &mut ArrayStore<S>,
    req: Request,
    workers: Option<usize>,
) -> Result<Num, StorageError> {
    let s = RetrievalStrategy::Single;
    match workers {
        None => one(store, req, s)?.total(),
        Some(w) => store.read_parallel(&[req], s, w)?.remove(0).total(),
    }
}

#[test]
fn parallel_aggregation_is_bit_identical() {
    for array in [real_matrix(), int_matrix()] {
        for strategy in strategies() {
            let mut store = ArrayStore::new(MemoryChunkStore::new());
            let base = store.store_array(&array, 256).unwrap();
            for view in views(&base) {
                for &op in OPS {
                    let req = Request::new(&view).fold(op);
                    let seq = one(&mut store, req, strategy).unwrap().total().unwrap();
                    for workers in [1, 2, 4] {
                        let par = store.read_parallel(&[req], strategy, workers).unwrap();
                        let par = par.into_iter().next().unwrap().total().unwrap();
                        assert_eq!(
                            bits(&par),
                            bits(&seq),
                            "{} {op:?} workers={workers}: {par:?} vs {seq:?}",
                            strategy.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn parallel_aggregation_matches_resident_for_int() {
    // Int aggregation must also agree bit-for-bit with aggregating the
    // resident array (the kernel checked-sum contract), not just with
    // the sequential streamed path.
    let array = int_matrix();
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&array, 128).unwrap();
    let buffered = RetrievalStrategy::BufferedIn { buffer_size: 4 };
    for &op in OPS {
        let resident = array.aggregate(op).unwrap();
        let streamed = store.read_parallel(&[Request::new(&base).fold(op)], buffered, 4);
        let streamed = streamed.unwrap().remove(0).total().unwrap();
        assert_eq!(bits(&streamed), bits(&resident), "{op:?}");
    }
}

#[test]
fn empty_views_and_count_take_no_fetches() {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&real_matrix(), 256).unwrap();

    // Count needs no chunk payloads at all.
    store.backend_mut().reset_io_stats();
    let n = fold(
        &mut store,
        Request::new(&base).fold(AggregateOp::Count),
        Some(4),
    )
    .unwrap();
    assert_eq!(bits(&n), (true, (24 * 24) as u64));
    assert_eq!(store.backend().io_stats().statements, 0);

    // Empty array: Sum/Count answer without fetching, Min errors —
    // exactly like the sequential path.
    let empty = store.store_array(&NumArray::from_f64(vec![]), 256).unwrap();
    let sum = fold(
        &mut store,
        Request::new(&empty).fold(AggregateOp::Sum),
        Some(4),
    );
    assert_eq!(bits(&sum.unwrap()), (true, 0));
    let min = Request::new(&empty).fold(AggregateOp::Min);
    assert!(fold(&mut store, min, Some(4)).is_err());
    assert!(fold(&mut store, min, None).is_err());
}

/// A back-end that declares `supports_parallel: false`; any call on the
/// shared-read path is a contract violation and panics.
struct NoParallelStore(MemoryChunkStore);

impl ChunkStore for NoParallelStore {
    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.0.put_chunk(array_id, chunk_id, data)
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.0.get_chunk(array_id, chunk_id)
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.0.delete_array(array_id, chunk_count)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_parallel: false,
            ..self.0.capabilities()
        }
    }

    fn io_stats(&self) -> IoStats {
        self.0.io_stats()
    }

    fn reset_io_stats(&mut self) {
        self.0.reset_io_stats()
    }
}

impl SharedChunkRead for NoParallelStore {
    fn read_chunk(&self, _: u64, _: u64) -> Result<Vec<u8>, StorageError> {
        panic!("shared read on a supports_parallel: false back-end")
    }

    fn read_chunks_in(&self, _: u64, _: &[u64]) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        panic!("shared read on a supports_parallel: false back-end")
    }

    fn read_chunk_range(
        &self,
        _: u64,
        _: u64,
        _: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        panic!("shared read on a supports_parallel: false back-end")
    }
}

#[test]
fn aggregate_degrades_on_unsupported_backends_and_one_worker() {
    let mut store = ArrayStore::new(NoParallelStore(MemoryChunkStore::new()));
    let base = store.store_array(&real_matrix(), 256).unwrap();
    let sum = Request::new(&base).fold(AggregateOp::Sum);
    let seq = fold(&mut store, sum, None).unwrap();
    // Capability gate: 4 workers requested, sequential path taken (the
    // panicking SharedChunkRead impl proves the shared path is unused).
    let gated = fold(&mut store, sum, Some(4)).unwrap();
    assert_eq!(bits(&gated), bits(&seq));

    // workers == 1 degrades the same way on any back-end.
    let mut plain = ArrayStore::new(MemoryChunkStore::new());
    let base = plain.store_array(&real_matrix(), 256).unwrap();
    let sum = Request::new(&base).fold(AggregateOp::Sum);
    let seq = fold(&mut plain, sum, None).unwrap();
    let one = fold(&mut plain, sum, Some(1)).unwrap();
    assert_eq!(bits(&one), bits(&seq));
}
