//! Satellite edge cases in APR plan construction:
//!
//! * SPD range plans where a regular stride repeatedly *crosses* chunk
//!   boundaries (stride not a divisor of elements-per-chunk) must still
//!   resolve correctly and cover every needed chunk;
//! * `BufferedIn` with a needed-chunk count that is an exact multiple
//!   of `buffer_size` must issue exactly `n / buffer_size` statements —
//!   no empty trailing `IN ()` batch;
//! * a request list or an accessor a public [`Request`] makes possible
//!   but the runner cannot honour is a typed error.

use ssdm_array::{AggregateOp, Num, NumArray};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayProxy, ArrayStore, ChunkStore, MemoryChunkStore, Request, RetrievalStrategy, StorageError,
    ValuePredicate,
};

mod common;
use common::one;

type Store = ArrayStore<MemoryChunkStore>;

fn elements(store: &mut Store, view: &ArrayProxy, s: RetrievalStrategy) -> Vec<i64> {
    let a = one(store, Request::new(view), s)
        .unwrap()
        .into_array()
        .unwrap();
    a.elements().iter().map(|n| n.as_i64()).collect()
}

#[test]
fn spd_strides_crossing_chunk_boundaries_resolve_exactly() {
    // 60 elements, 7 per chunk (56-byte chunks): stride 3 lands on
    // addresses 0,3,6,... which alternate between crossing and not
    // crossing the 7-element chunk seam.
    let v = NumArray::from_i64_shaped((0..60).collect(), &[60]).unwrap();
    for (chunk_bytes, stride) in [(56usize, 3usize), (56, 5), (40, 7), (24, 9)] {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let base = store.store_array(&v, chunk_bytes).unwrap();
        let view = base.slice(0, 1, stride, 59).unwrap();
        let expected: Vec<i64> = (1..60).step_by(stride).map(|i| i as i64).collect();
        let spd = RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        };
        let got = elements(&mut store, &view, spd);
        assert_eq!(got, expected, "chunk_bytes={chunk_bytes} stride={stride}");
        let stats = store.last_stats();
        assert!(stats.statements >= 1);
        assert!(
            stats.chunks_fetched as usize >= expected.len() * 8 / chunk_bytes,
            "must cover every chunk the stride touches"
        );
    }
}

#[test]
fn spd_stride_across_2d_chunk_seams_matches_whole_array() {
    // A column of a matrix whose row length is not a multiple of the
    // chunk's element count: consecutive column elements sit at
    // different offsets within their chunks.
    let m = NumArray::from_shape_fn(&[24, 9], |ix| (((ix[0] * 9 + ix[1]) as i64) * 3).into());
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&m, 56).unwrap(); // 7 elems/chunk vs 9/row
    let col = base.subscript(1, 4).unwrap();
    let spd = RetrievalStrategy::SpdRange {
        options: SpdOptions::default(),
    };
    let spd = elements(&mut store, &col, spd);
    let whole = elements(&mut store, &col, RetrievalStrategy::WholeArray);
    assert_eq!(spd, whole);
    assert_eq!(spd, (0..24).map(|r| (r * 9 + 4) * 3).collect::<Vec<_>>());
}

#[test]
fn buffered_in_exact_multiple_has_no_empty_trailing_batch() {
    // 16 chunks needed, buffer_size 4 -> exactly 4 IN statements.
    let v = NumArray::from_i64_shaped((0..128).collect(), &[128]).unwrap();
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&v, 64).unwrap(); // 8 elems/chunk, 16 chunks
    let buffered = RetrievalStrategy::BufferedIn { buffer_size: 4 };
    assert_eq!(elements(&mut store, &base, buffered).len(), 128);
    let stats = store.last_stats();
    assert_eq!(stats.chunks_fetched, 16);
    assert_eq!(
        stats.statements, 4,
        "16 chunks / buffer 4 = 4 statements, no empty trailing batch"
    );
}

#[test]
fn buffered_in_exact_multiple_under_various_buffers() {
    let v = NumArray::from_i64_shaped((0..96).collect(), &[96]).unwrap();
    for buffer_size in [1usize, 2, 3, 6, 12] {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let base = store.store_array(&v, 64).unwrap(); // 12 chunks
        let buffered = RetrievalStrategy::BufferedIn { buffer_size };
        assert_eq!(elements(&mut store, &base, buffered).len(), 96);
        let stats = store.last_stats();
        assert_eq!(
            stats.statements as usize,
            12usize.div_ceil(buffer_size),
            "buffer_size={buffer_size}"
        );
        assert_eq!(stats.chunks_fetched, 12);
    }
}

/// A probe stops at its first match. Next to another request that stop
/// would leave the other's chunks unfetched, so the runner refuses the
/// list before any statement, on both entry points; so too a probe that
/// folds. (A probe without a predicate cannot be built: `probe` takes
/// one.)
#[test]
fn a_probe_in_a_bag_is_a_typed_error() {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&NumArray::from_i64((0..64).collect()), 64);
    let base = base.unwrap();
    let pred = ValuePredicate::In(vec![Num::Int(3)]);
    let probe = Request::new(&base).probe(&pred);
    let whole = Request::new(&base);
    for bag in [[probe, whole], [whole, probe], [probe, probe]] {
        let single = RetrievalStrategy::Single;
        let err = store.read(&bag, single).unwrap_err();
        assert!(matches!(err, StorageError::InvalidRequest), "{err}");
        let err = store.read_parallel(&bag, single, 4).unwrap_err();
        assert!(matches!(err, StorageError::InvalidRequest), "{err}");
    }
    let folded = [probe.fold(AggregateOp::Sum)];
    let err = store.read(&folded, RetrievalStrategy::Single).unwrap_err();
    assert!(matches!(err, StorageError::InvalidRequest), "{err}");
    assert_eq!(store.backend().io_stats().statements, 0);
    // Alone, the probe answers.
    let alone = one(&mut store, probe, RetrievalStrategy::Single).unwrap();
    assert!(alone.found().unwrap());
}

/// Each accessor answers for the request shape that computes it.
#[test]
fn an_accessor_the_request_did_not_ask_for_is_a_typed_error() {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let base = store.store_array(&NumArray::from_i64((0..64).collect()), 64);
    let base = base.unwrap();
    let pred = ValuePredicate::In(vec![Num::Int(3)]);
    let not_requested = |r: Result<_, StorageError>| match r {
        Err(StorageError::NotRequested(_)) => {}
        other => panic!("expected NotRequested, got {other:?}"),
    };
    let mut read = |req| one(&mut store, req, RetrievalStrategy::Single).unwrap();
    let sum = Request::new(&base).fold(AggregateOp::Sum);
    not_requested(read(sum).into_array().map(|_| ()));
    not_requested(read(sum).into_matches().map(|_| ()));
    not_requested(read(sum).found().map(|_| ()));
    let whole = Request::new(&base);
    not_requested(read(whole).total().map(|_| ()));
    not_requested(read(whole).found().map(|_| ()));
    let filter = Request::new(&base).filter(&pred);
    not_requested(read(filter).into_array().map(|_| ()));
    not_requested(read(filter).total().map(|_| ()));
    assert_eq!(read(filter).into_matches().unwrap(), vec![Num::Int(3)]);
}

/// A fold that overflows fails its own request's `total` and no other:
/// the read succeeds and every other request of the bag answers, on
/// both entry points and whichever chunk order the workers finish in.
/// Two elements a chunk: `2^20` products overflow when the per-chunk
/// partials combine, `2^40` products inside one chunk's fold.
#[test]
fn a_failed_fold_fails_only_its_request() {
    let mut store = ArrayStore::new(MemoryChunkStore::new());
    let single = RetrievalStrategy::Single;
    for v in [1i64 << 20, 1 << 40] {
        let big = store.store_array(&NumArray::from_i64(vec![v; 16]), 16);
        let big = big.unwrap();
        let prod = Request::new(&big).fold(AggregateOp::Prod);
        let sum = Request::new(&big).fold(AggregateOp::Sum);
        let whole = Request::new(&big);
        let alone = one(&mut store, prod, single).unwrap();
        let overflow = alone.total().unwrap_err();
        assert!(matches!(overflow, StorageError::Array(_)), "{overflow}");
        for workers in [None, Some(4)] {
            let bag = [whole, prod, sum];
            let got = match workers {
                None => store.read(&bag, single),
                Some(w) => store.read_parallel(&bag, single, w),
            };
            let [array, prod, sum] = <[_; 3]>::try_from(got.unwrap()).unwrap();
            assert_eq!(array.into_array().unwrap().elements().len(), 16);
            assert_eq!(prod.total().unwrap_err().to_string(), overflow.to_string());
            assert_eq!(sum.total().unwrap(), Num::Int(16 * v));
        }
    }
}
