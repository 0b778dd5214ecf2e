//! `read_parallel` is **bit-identical** to sequential `read` for every
//! strategy, pattern, worker count and mix of requests in a bag — and
//! the APR statement accounting stays exact, because the same back-end
//! statements execute, just concurrently.

use std::sync::Arc;

use ssdm_array::{AggregateOp, ArrayView, Dim, Num, NumArray, NumericType};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayMeta, ArrayProxy, ArrayStore, CachedChunkStore, Capabilities, ChunkStore, Chunking,
    FaultInjectingChunkStore, FaultPlan, FileChunkStore, IoStats, MemoryChunkStore, RelChunkStore,
    Request, Resolved, RetrievalStrategy, ShardOptions, ShardedChunkStore, SharedChunkRead,
    SharedChunkStore, StorageError, ValuePredicate,
};

mod common;
use common::one;

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
            let seq = one(&mut store, Request::new(&view), strategy)
                .unwrap()
                .into_array()
                .unwrap();
            let seq_stats = store.last_stats();
            let seq_bits: Vec<u64> = seq
                .elements()
                .iter()
                .map(|n| n.as_f64().to_bits())
                .collect();
            for workers in [2, 4, 8] {
                let par = store
                    .read_parallel(&[Request::new(&view)], strategy, workers)
                    .unwrap()
                    .remove(0)
                    .into_array()
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
    let seq = one(&mut store, Request::new(&col), RetrievalStrategy::Single)
        .unwrap()
        .into_array()
        .unwrap();
    // Repeat with warm cache and workers: identical bits, zero backend
    // statements.
    store.backend_mut().reset_io_stats();
    let par = store
        .read_parallel(&[Request::new(&col)], RetrievalStrategy::Single, 4)
        .unwrap()
        .remove(0)
        .into_array()
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
    // read_parallel must honor the capability flag and take the
    // sequential (&mut) path; the panicking SharedChunkRead impl proves
    // the shared path is never touched.
    let mut store = ArrayStore::new(NoParallelStore(MemoryChunkStore::new()));
    let base = store.store_array(&matrix(), 256).unwrap();
    let col = base.subscript(1, 2).unwrap();
    let seq = one(&mut store, Request::new(&col), RetrievalStrategy::Single)
        .unwrap()
        .into_array()
        .unwrap();
    let par = store
        .read_parallel(&[Request::new(&col)], RetrievalStrategy::Single, 4)
        .unwrap()
        .remove(0)
        .into_array()
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
    let seq = one(&mut store, Request::new(&view), RetrievalStrategy::Single)
        .unwrap()
        .into_array()
        .unwrap();
    let one = store
        .read_parallel(&[Request::new(&view)], RetrievalStrategy::Single, 1)
        .unwrap()
        .remove(0)
        .into_array()
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

/// What one request of a read came to, bit for bit: an array's shape
/// then its elements, the matches, or the fold.
type Keys = Result<Vec<(u8, u64)>, StorageError>;

/// Takes a request's answer out of its [`Resolved`].
type Take = fn(Resolved) -> Keys;

fn key(n: Num) -> (u8, u64) {
    match n {
        Num::Int(v) => (0, v as u64),
        Num::Real(v) => (1, v.to_bits()),
    }
}

fn array(r: Resolved) -> Keys {
    let a = r.into_array()?;
    let shape = a.shape().into_iter().map(|d| (2, d as u64));
    Ok(shape.chain(a.elements().into_iter().map(key)).collect())
}

fn matches(r: Resolved) -> Keys {
    Ok(r.into_matches()?.into_iter().map(key).collect())
}

fn total(r: Resolved) -> Keys {
    Ok(vec![key(r.total()?)])
}

/// One request's answer; errors compare by message.
fn outcome(take: Take, r: Result<Resolved, StorageError>) -> Result<Vec<(u8, u64)>, String> {
    r.and_then(take).map_err(|e| e.to_string())
}

/// Each request of a bag is bit-identical to the same request read
/// alone, on `read` and on `read_parallel` at 1 and 4 workers, and the
/// bag issues no more statements than its requests read one by one. A
/// request whose fold fails (an overflowing `Prod`, an empty `Min`)
/// fails alone: the bag's read succeeds and its other requests answer.
/// The bags: every proxy materialized; every proxy folded; and mixed,
/// the proxies taking turns to materialize, fold, filter and fold over
/// a filter — Int and Real arrays, some read twice, so requests on one
/// array share chunks. `fresh` empties any chunk cache, so every read
/// is counted cold.
fn bag_differential<S: ChunkStore + SharedChunkRead>(
    mut store: ArrayStore<S>,
    fresh: impl Fn(&ArrayStore<S>),
) {
    let pred = ValuePredicate::Range {
        lo: Num::Int(-20),
        hi: Num::Real(30.5),
    };
    let mut overflowed = 0;
    for (seed, arrays) in [(1, 1), (2, 7), (3, 40)] {
        let proxies = fleet(&mut store, seed, arrays);
        let whole: Vec<(Request, Take)> = proxies
            .iter()
            .map(|p| (Request::new(p), array as Take))
            .collect();
        let mut bags = vec![whole.clone()];
        for op in [
            AggregateOp::Sum,
            AggregateOp::Prod,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Count,
        ] {
            bags.push(
                whole
                    .iter()
                    .map(|(r, _)| (r.fold(op), total as Take))
                    .collect(),
            );
            let mixed = whole.iter().enumerate().map(|(i, &(r, _))| -> (_, Take) {
                match i % 4 {
                    0 => (r, array),
                    1 => (r.fold(op), total),
                    2 => (r.filter(&pred), matches),
                    _ => (r.filter(&pred).fold(op), total),
                }
            });
            bags.push(mixed.collect());
        }
        for bag in &bags {
            for strategy in strategies() {
                let (mut singles, mut statements) = (Vec::new(), 0);
                for &(req, take) in bag {
                    fresh(&store);
                    singles.push(outcome(take, one(&mut store, req, strategy)));
                    statements += store.last_stats().statements;
                }
                let overflow =
                    |s: &&Result<_, String>| s.as_ref().is_err_and(|e| e.contains("overflow"));
                overflowed += singles.iter().filter(overflow).count();
                let reqs: Vec<Request> = bag.iter().map(|&(req, _)| req).collect();
                for workers in [None, Some(1), Some(4)] {
                    fresh(&store);
                    let read = match workers {
                        None => store.read(&reqs, strategy),
                        Some(w) => store.read_parallel(&reqs, strategy, w),
                    };
                    let at = format!("{} workers {workers:?}", strategy.name());
                    let got: Vec<_> = bag
                        .iter()
                        .zip(read.unwrap_or_else(|e| panic!("{at}: {e}")))
                        .map(|(&(_, take), r)| outcome(take, Ok(r)))
                        .collect();
                    assert_eq!(got, singles, "{at}");
                    let bag_statements = store.last_stats().statements;
                    assert!(
                        bag_statements <= statements,
                        "{at}: {bag_statements} statements"
                    );
                }
            }
        }
    }
    assert!(overflowed > 0, "no fold overflowed");
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
