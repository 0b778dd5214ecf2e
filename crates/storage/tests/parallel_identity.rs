//! Tentpole acceptance: `resolve_parallel` is **bit-identical** to
//! sequential `resolve` for every strategy, pattern, and worker count —
//! and the APR statement accounting stays exact, because the same
//! back-end statements execute, just concurrently.

use std::sync::Arc;

use ssdm_array::{AggregateOp, ArrayView, Dim, Num, NumArray, NumericType};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayMeta, ArrayProxy, ArrayStore, CachedChunkStore, Capabilities, ChunkStore, Chunking,
    FaultInjectingChunkStore, FaultPlan, FileChunkStore, IoStats, MemoryChunkStore, ParallelConfig,
    RelChunkStore, RetrievalStrategy, ShardOptions, ShardedChunkStore, SharedChunkRead,
    SharedChunkStore, StorageError,
};

fn matrix() -> NumArray {
    NumArray::from_shape_fn(&[32, 32], |ix| {
        ((ix[0] * 131 + ix[1] * 17) as f64 * 0.37).into()
    })
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

/// Views covering single-chunk, multi-chunk, strided, and full access.
fn views(base: &ssdm_storage::ArrayProxy) -> Vec<ssdm_storage::ArrayProxy> {
    vec![
        base.subscript(0, 3).unwrap(),    // one row
        base.subscript(1, 5).unwrap(),    // one column, many chunks
        base.slice(0, 1, 3, 30).unwrap(), // strided rows
        base.slice(0, 4, 1, 11)
            .and_then(|p| p.slice(1, 4, 1, 11))
            .unwrap(), // block
        base.clone(),                     // whole
    ]
}

#[test]
fn parallel_resolution_is_bit_identical_with_exact_stats() {
    for strategy in strategies() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let base = store.store_array(&matrix(), 256).unwrap();
        for view in views(&base) {
            let seq = store.resolve(&view, strategy).unwrap();
            let seq_stats = store.last_stats();
            let seq_bits: Vec<u64> = seq
                .elements()
                .iter()
                .map(|n| n.as_f64().to_bits())
                .collect();
            for workers in [2, 4, 8] {
                let par = store
                    .resolve_parallel(&view, strategy, ParallelConfig::with_workers(workers))
                    .unwrap();
                let par_bits: Vec<u64> = par
                    .elements()
                    .iter()
                    .map(|n| n.as_f64().to_bits())
                    .collect();
                assert_eq!(par_bits, seq_bits, "{} workers={workers}", strategy.name());
                assert_eq!(par.shape(), seq.shape());
                let par_stats = store.last_stats();
                assert_eq!(
                    (
                        par_stats.statements,
                        par_stats.chunks_fetched,
                        par_stats.bytes_fetched
                    ),
                    (
                        seq_stats.statements,
                        seq_stats.chunks_fetched,
                        seq_stats.bytes_fetched
                    ),
                    "stats must not depend on concurrency ({} workers={workers})",
                    strategy.name()
                );
            }
        }
    }
}

#[test]
fn parallel_through_the_cache_stays_identical() {
    let mut store = ArrayStore::new(CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20));
    let base = store.store_array(&matrix(), 256).unwrap();
    let col = base.subscript(1, 9).unwrap();
    let seq = store.resolve(&col, RetrievalStrategy::Single).unwrap();
    // Repeat with warm cache and workers: identical bits, zero backend
    // statements.
    store.backend_mut().reset_io_stats();
    let par = store
        .resolve_parallel(&col, RetrievalStrategy::Single, ParallelConfig::default())
        .unwrap();
    assert_eq!(par.elements(), seq.elements());
    assert_eq!(
        store.backend().io_stats().statements,
        0,
        "served from cache"
    );
    assert!(store.backend().cache_stats().hit_rate() > 0.99);
}

/// A back-end that *could* serve shared reads but declares it must not
/// (`supports_parallel: false`). Any call on the shared path is a
/// contract violation and panics.
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
fn unsupported_backends_degrade_to_sequential() {
    // resolve_parallel must honor the capability flag and take the
    // sequential (&mut) path; the panicking SharedChunkRead impl proves
    // the shared path is never touched.
    let mut store = ArrayStore::new(NoParallelStore(MemoryChunkStore::new()));
    let base = store.store_array(&matrix(), 256).unwrap();
    let col = base.subscript(1, 2).unwrap();
    let seq = store.resolve(&col, RetrievalStrategy::Single).unwrap();
    let par = store
        .resolve_parallel(
            &col,
            RetrievalStrategy::Single,
            ParallelConfig::with_workers(4),
        )
        .unwrap();
    assert_eq!(seq.elements(), par.elements());
}

#[test]
fn fault_injector_opts_out_of_parallel_reads() {
    // The injector's deterministic schedule is keyed to operation
    // order, which concurrency would scramble — it must advertise the
    // sequential-only contract.
    let s = FaultInjectingChunkStore::new(MemoryChunkStore::new(), FaultPlan::default());
    assert!(!s.capabilities().supports_parallel);
    assert!(
        MemoryChunkStore::new().capabilities().supports_parallel,
        "the wrapped store alone does support it — the injector overrides"
    );
}

#[test]
fn one_worker_is_the_sequential_path() {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&matrix(), 256).unwrap();
    let view = base.subscript(1, 0).unwrap();
    let seq = store.resolve(&view, RetrievalStrategy::Single).unwrap();
    let one = store
        .resolve_parallel(
            &view,
            RetrievalStrategy::Single,
            ParallelConfig::with_workers(1),
        )
        .unwrap();
    assert_eq!(seq.elements(), one.elements());
}

/// SplitMix64 over a counter: the fleet generator's dice.
struct Dice(u64);

impl Dice {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        (z ^ (z >> 31)) % n
    }
}

/// A seeded fleet of `arrays` stored arrays — Int and Real, 1..=5 rows
/// of 1..=12 columns, chunks of 1..=7 elements (ragged last chunks) —
/// plus one linked external array stored raw (`encoded: false`), and a
/// bag over some of them: per proxy a slice, strided slice, subscript,
/// transpose or empty view, some arrays read twice, the others left
/// out of the bag but interleaved with it in the catalog.
fn fleet<S: ChunkStore>(store: &mut ArrayStore<S>, seed: u64, arrays: u64) -> Vec<ArrayProxy> {
    let mut dice = Dice(seed);
    let mut bag = Vec::new();
    for k in 0..arrays {
        let (rows, cols) = (1 + dice.below(5) as usize, 1 + dice.below(12) as usize);
        let chunk_bytes = 8 * (1 + dice.below(7) as usize);
        let ints = dice.below(2) == 0;
        let values: Vec<i64> = (0..rows * cols)
            .map(|_| dice.below(201) as i64 - 100)
            .collect();
        let proxy = if k == arrays / 2 {
            // Linked, not stored: raw little-endian chunks, no frame,
            // under the id the next stored array would have taken.
            let id = store.catalog().map(|m| m.array_id).max().unwrap_or(0) + 1;
            let chunking = Chunking::new(chunk_bytes, values.len());
            store.backend_mut().begin_array(id, chunk_bytes).unwrap();
            for c in 0..chunking.chunk_count() {
                let (lo, hi) = chunking.chunk_span(c);
                let raw: Vec<u8> = values[lo..hi]
                    .iter()
                    .flat_map(|v| v.to_le_bytes())
                    .collect();
                store.backend_mut().put_chunk(id, c, &raw).unwrap();
            }
            store.link_external(ArrayMeta {
                array_id: id,
                numeric_type: NumericType::Int,
                shape: vec![rows, cols],
                chunking,
                encoded: false,
            })
        } else {
            let a = if ints {
                NumArray::from_i64_shaped(values, &[rows, cols]).unwrap()
            } else {
                let reals = values.iter().map(|&v| v as f64 * 0.37 - 0.1).collect();
                NumArray::from_f64_shaped(reals, &[rows, cols]).unwrap()
            };
            store.store_array(&a, chunk_bytes).unwrap()
        };
        for _ in 0..match dice.below(6) {
            0 => 0, // outside the bag
            1 => 2, // read twice
            _ => 1,
        } {
            let (r, c) = (
                dice.below(rows as u64) as usize,
                dice.below(cols as u64) as usize,
            );
            bag.push(match dice.below(6) {
                0 => proxy.slice(1, c / 2, 1, c).unwrap(),
                1 => proxy
                    .slice(1, c % 2, 1 + dice.below(3) as usize, cols - 1)
                    .unwrap(),
                2 => proxy.subscript(0, r).unwrap(),
                3 => proxy.transpose(),
                4 => ArrayProxy::from_parts(
                    Arc::clone(proxy.meta()),
                    ArrayView::from_parts(0, vec![Dim { size: 0, stride: 1 }]),
                ),
                _ => proxy.slice(0, r, 1, rows - 1).unwrap(),
            });
        }
    }
    bag
}

/// Bit-exact key for an aggregate result; errors compare by message.
fn outcome(r: Result<Num, StorageError>) -> Result<(u8, u64), String> {
    match r {
        Ok(Num::Int(v)) => Ok((0, v as u64)),
        Ok(Num::Real(v)) => Ok((1, v.to_bits())),
        Err(e) => Err(e.to_string()),
    }
}

fn element_bits(a: &NumArray) -> (Vec<usize>, Vec<(u8, u64)>) {
    let bits = a.elements().into_iter().map(|n| outcome(Ok(n)).unwrap());
    (a.shape(), bits.collect())
}

/// `resolve_bag[i]` is bit-identical to `resolve(p_i)`,
/// `resolve_aggregate_bag[i]` to `resolve_aggregate(p_i)` for every
/// aggregate, and the bag issues no more statements than resolving its
/// proxies one by one. `fresh` empties any chunk cache, so both sides
/// are counted cold.
fn bag_differential<S: ChunkStore>(mut store: ArrayStore<S>, fresh: impl Fn(&ArrayStore<S>)) {
    for (seed, arrays) in [(1, 1), (2, 7), (3, 40)] {
        let bag = fleet(&mut store, seed, arrays);
        for strategy in strategies() {
            fresh(&store);
            let resolved = store.resolve_bag(&bag, strategy).unwrap();
            let bag_statements = store.last_stats().statements;
            let mut statements = 0;
            for (p, got) in bag.iter().zip(&resolved) {
                fresh(&store);
                let one = store.resolve(p, strategy).unwrap();
                statements += store.last_stats().statements;
                assert_eq!(element_bits(got), element_bits(&one), "{}", strategy.name());
            }
            assert!(
                bag_statements <= statements,
                "{}: bag {bag_statements} > per-proxy {statements} statements",
                strategy.name()
            );
            for op in [
                AggregateOp::Sum,
                AggregateOp::Prod,
                AggregateOp::Avg,
                AggregateOp::Min,
                AggregateOp::Max,
                AggregateOp::Count,
            ] {
                // A bag answers for all its proxies or fails: it fails
                // exactly when one proxy alone does (an empty view's
                // `Min`, an overflowing `Prod`), and the proxies that
                // have an answer get it bit for bit.
                let singles: Vec<_> = bag
                    .iter()
                    .map(|p| outcome(store.resolve_aggregate(p, op, strategy)))
                    .collect();
                let answered = store.resolve_aggregate_bag(&bag, op, strategy);
                assert_eq!(answered.is_err(), singles.iter().any(|r| r.is_err()));
                let answerable: Vec<ArrayProxy> = bag
                    .iter()
                    .zip(&singles)
                    .filter(|(_, r)| r.is_ok())
                    .map(|(p, _)| p.clone())
                    .collect();
                let folds = store.resolve_aggregate_bag(&answerable, op, strategy);
                let folds: Vec<_> = folds.unwrap().into_iter().map(|n| outcome(Ok(n))).collect();
                let expected: Vec<_> = singles.into_iter().filter(|r| r.is_ok()).collect();
                assert_eq!(folds, expected, "{op:?} {}", strategy.name());
            }
        }
    }
}

#[test]
fn bag_is_bit_identical_to_per_proxy_resolution() {
    bag_differential(ArrayStore::new(MemoryChunkStore::new()), |_| {});
    bag_differential(
        ArrayStore::new(RelChunkStore::open_memory().unwrap()),
        |_| {},
    );
    let dir = std::env::temp_dir().join(format!("ssdm-bag-diff-{}", std::process::id()));
    bag_differential(ArrayStore::new(FileChunkStore::new(&dir).unwrap()), |_| {});
    std::fs::remove_dir_all(&dir).ok();
    bag_differential(
        ArrayStore::new(CachedChunkStore::new(
            RelChunkStore::open_memory().unwrap(),
            1 << 20,
        )),
        |s| s.backend().cache().clear(),
    );
    let primaries: Vec<Box<dyn SharedChunkStore>> = (0..3)
        .map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn SharedChunkStore>)
        .collect();
    bag_differential(
        ArrayStore::new(ShardedChunkStore::new(primaries, ShardOptions::default()).unwrap()),
        |_| {},
    );
}
