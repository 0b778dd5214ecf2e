//! Differential tests for zone-map chunk skipping: with skipping
//! enabled or disabled, every filtered resolution — scans, existence
//! probes, sequential and parallel aggregates — must return
//! bit-identical results, across every codec policy and back-end stack
//! (plain memory, cached, sharded). Skipping is purely a
//! plan transformation; only the I/O counters may differ, and on a
//! chunk-selective predicate `chunks_skipped` must actually be
//! positive, otherwise the optimisation is dead code.
//!
//! The same switch turns on *deciding*: a `Min`, `Max` or `Count`
//! partial a chunk summary holds exactly is taken from it and the chunk
//! is not read. The decide axis runs every fold over views that cover
//! chunks whole, in part, strided and transposed, over chunks with NaN,
//! `±0.0`, repeated values and `i64` extremes, and in a bag where one
//! request decides a chunk another fetches: every answer, errors
//! included, must be the same with the zone map on and off.

use std::sync::Arc;

use ssdm_array::{AggregateOp, ArrayView, Dim, Num, NumArray};
use ssdm_storage::{
    ArrayProxy, ArrayStore, CachedChunkStore, ChunkStore, CodecPolicy, MemoryChunkStore, Request,
    Resolved, RetrievalStrategy, ShardOptions, ShardedChunkStore, SharedChunkRead,
    SharedChunkStore, StorageError, ValuePredicate,
};

mod common;
use common::one;

const POLICIES: [CodecPolicy; 4] = [
    CodecPolicy::Raw,
    CodecPolicy::DeltaBp,
    CodecPolicy::Rle,
    CodecPolicy::Auto,
];

/// 16 chunks of 64 elements; chunk `c` holds values `c*1000 ..
/// c*1000+63`, so a narrow range predicate is provably confined to one
/// chunk and the zone map can prune the other fifteen.
fn clustered_ints() -> NumArray {
    NumArray::from_i64((0..1024).map(|i| (i / 64) * 1000 + i % 64).collect())
}

/// Reals with the same clustered layout plus a NaN per chunk, so
/// pruning must stay conservative about non-comparable elements.
fn clustered_reals() -> NumArray {
    NumArray::from_f64(
        (0..1024)
            .map(|i| {
                if i % 64 == 13 {
                    f64::NAN
                } else {
                    ((i / 64) * 1000 + i % 64) as f64
                }
            })
            .collect(),
    )
}

/// Bit-exact key for a `Num`, so NaN payloads and `-0.0` participate
/// in equality instead of being collapsed by IEEE comparison.
fn bits(n: Num) -> (u8, u64) {
    match n {
        Num::Int(v) => (0, v as u64),
        Num::Real(v) => (1, v.to_bits()),
    }
}

fn bits_vec(v: &[Num]) -> Vec<(u8, u64)> {
    v.iter().map(|&n| bits(n)).collect()
}

/// The predicates the matrix runs: a one-chunk range, a cross-chunk
/// range, an empty range, and membership probes (hit and miss).
fn predicates() -> Vec<(&'static str, ValuePredicate)> {
    vec![
        (
            "one-chunk range",
            ValuePredicate::Range {
                lo: Num::Int(3000),
                hi: Num::Int(3063),
            },
        ),
        (
            "cross-chunk range",
            ValuePredicate::Range {
                lo: Num::Int(4050),
                hi: Num::Int(6010),
            },
        ),
        (
            "empty range",
            ValuePredicate::Range {
                lo: Num::Int(700),
                hi: Num::Int(800),
            },
        ),
        (
            "membership hit",
            ValuePredicate::In(vec![Num::Int(5005), Num::Int(12_031)]),
        ),
        ("membership miss", ValuePredicate::In(vec![Num::Int(-7)])),
    ]
}

/// Run the full differential matrix against one freshly built store.
/// `make` is called once per (policy, skip) cell so each cell sees an
/// identical, independently written store.
fn run_matrix<S, F>(make: F)
where
    S: ChunkStore + SharedChunkRead,
    F: Fn() -> ArrayStore<S>,
{
    let resident = clustered_ints();
    for policy in POLICIES {
        for (name, pred) in predicates() {
            let mut on = make();
            let mut off = make();
            on.set_codec(policy);
            off.set_codec(policy);
            on.set_skip_enabled(true);
            off.set_skip_enabled(false);
            let p_on = on.store_array(&resident, 64 * 8).unwrap();
            let p_off = off.store_array(&resident, 64 * 8).unwrap();

            let (filter_on, filter_off) = (Request::new(&p_on), Request::new(&p_off));
            let (filter_on, filter_off) = (filter_on.filter(&pred), filter_off.filter(&pred));
            for strategy in [
                RetrievalStrategy::Single,
                RetrievalStrategy::BufferedIn { buffer_size: 4 },
                RetrievalStrategy::WholeArray,
            ] {
                let a = one(&mut on, filter_on, strategy).unwrap();
                let b = one(&mut off, filter_off, strategy).unwrap();
                assert_eq!(
                    bits_vec(&a.into_matches().unwrap()),
                    bits_vec(&b.into_matches().unwrap()),
                    "filtered scan differs: {} / {:?} / {:?}",
                    name,
                    policy.name(),
                    strategy
                );
                let a = one(&mut on, filter_on.probe(&pred), strategy).unwrap();
                let b = one(&mut off, filter_off.probe(&pred), strategy).unwrap();
                assert_eq!(
                    a.found().unwrap(),
                    b.found().unwrap(),
                    "exists differs: {name}"
                );
                for op in [
                    AggregateOp::Sum,
                    AggregateOp::Min,
                    AggregateOp::Max,
                    AggregateOp::Count,
                ] {
                    let a = one(&mut on, filter_on.fold(op), strategy).and_then(Resolved::total);
                    let b = one(&mut off, filter_off.fold(op), strategy).and_then(Resolved::total);
                    match (a, b) {
                        (Ok(x), Ok(y)) => assert_eq!(
                            bits(x),
                            bits(y),
                            "aggregate {op:?} differs: {name} / {}",
                            policy.name()
                        ),
                        (Err(_), Err(_)) => {} // both empty: same typed error
                        (a, b) => panic!("aggregate {op:?} split on {name}: {a:?} vs {b:?}"),
                    }
                    // The parallel fold must agree with the sequential
                    // one bit-for-bit at every worker count.
                    for workers in [1usize, 4] {
                        let par = on.read_parallel(&[filter_on.fold(op)], strategy, workers);
                        let par = par.and_then(|mut r| r.remove(0).total());
                        let seq =
                            one(&mut off, filter_off.fold(op), strategy).and_then(Resolved::total);
                        match (par, seq) {
                            (Ok(x), Ok(y)) => assert_eq!(
                                bits(x),
                                bits(y),
                                "parallel({workers}) {op:?} differs: {name}"
                            ),
                            (Err(_), Err(_)) => {}
                            (a, b) => {
                                panic!("parallel {op:?} split on {name}: {a:?} vs {b:?}")
                            }
                        }
                    }
                }
            }

            // Selective predicates must actually skip with the zone map
            // on, and never with it off.
            one(&mut on, filter_on, RetrievalStrategy::Single).unwrap();
            one(&mut off, filter_off, RetrievalStrategy::Single).unwrap();
            assert!(
                on.last_stats().chunks_skipped > 0,
                "no chunks skipped for {} under {}",
                name,
                policy.name()
            );
            assert_eq!(
                off.last_stats().chunks_skipped,
                0,
                "skip-disabled store skipped chunks"
            );
        }
    }
}

#[test]
fn memory_store_skip_differential() {
    run_matrix(|| ArrayStore::new(MemoryChunkStore::new()));
}

#[test]
fn cached_store_skip_differential() {
    run_matrix(|| ArrayStore::new(CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20)));
}

#[test]
fn sharded_store_skip_differential() {
    run_matrix(|| {
        let primaries: Vec<Box<dyn SharedChunkStore>> = (0..3)
            .map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn SharedChunkStore>)
            .collect();
        ArrayStore::new(ShardedChunkStore::new(primaries, ShardOptions::default()).unwrap())
    });
}

/// NaN elements make every chunk summary report nulls, so range
/// pruning must keep any chunk that still *could* hold a match — while
/// results (including the NaNs a membership probe can never hit) stay
/// identical either way.
#[test]
fn real_arrays_with_nans_prune_conservatively() {
    let resident = clustered_reals();
    let pred = ValuePredicate::Range {
        lo: Num::Real(3000.0),
        hi: Num::Real(3063.0),
    };
    for policy in POLICIES {
        let mut on = ArrayStore::new(MemoryChunkStore::new());
        let mut off = ArrayStore::new(MemoryChunkStore::new());
        on.set_codec(policy);
        off.set_codec(policy);
        on.set_skip_enabled(true);
        off.set_skip_enabled(false);
        let p_on = on.store_array(&resident, 64 * 8).unwrap();
        let p_off = off.store_array(&resident, 64 * 8).unwrap();
        let single = RetrievalStrategy::Single;
        let a = one(&mut on, Request::new(&p_on).filter(&pred), single).unwrap();
        let b = one(&mut off, Request::new(&p_off).filter(&pred), single).unwrap();
        let (a, b) = (a.into_matches().unwrap(), b.into_matches().unwrap());
        assert_eq!(bits_vec(&a), bits_vec(&b), "policy {}", policy.name());
        assert_eq!(a.len(), 63, "range covers one chunk minus its NaN");
        assert!(
            on.last_stats().chunks_skipped > 0,
            "NaN-carrying chunks outside the range must still be skippable \
             on their numeric bounds (policy {})",
            policy.name()
        );
    }
}

// ---------------------------------------------------------------------
// The decide axis
// ---------------------------------------------------------------------

/// Elements per chunk of the decide arrays; their 1 000 elements leave
/// a short last chunk of 40.
const CHUNK: usize = 64;

/// An integer array, 20 × 50, whose chunks are clustered
/// (`c*1000 + k`) except chunk 2, all `7777`, and chunk 3, which holds
/// `i64::MIN` and `i64::MAX`.
fn decide_ints() -> NumArray {
    let value = |i: usize| {
        let (c, k) = ((i / CHUNK) as i64, (i % CHUNK) as i64);
        match (c, k) {
            (2, _) => 7777,
            (3, 0) => i64::MIN,
            (3, 1) => i64::MAX,
            _ => c * 1000 + k,
        }
    };
    NumArray::from_i64_shaped((0..1000).map(value).collect(), &[20, 50]).unwrap()
}

/// A real array, 20 × 50: a NaN in chunk 0; zeros of both signs in
/// chunk 1, `-0.0` first in storage order and `0.0` first in transposed
/// order, so the summary cannot know which one a fold keeps; only
/// `-0.0` in chunk 2; a maximum of `0.0` in chunk 3 and a
/// minimum of `0.0` in chunk 4; all `2.5` in chunk 5; infinities in
/// chunk 6; clustered values elsewhere.
fn decide_reals() -> NumArray {
    let value = |i: usize| {
        let (c, k) = (i / CHUNK, i % CHUNK);
        match (c, k) {
            (0, 13) => f64::NAN,
            (1, k) if k >= CHUNK / 2 => 0.0,
            (1, _) | (2, _) => -0.0,
            (3, k) => -(k as f64),
            (4, k) => k as f64,
            (5, _) => 2.5,
            (6, 0) => f64::INFINITY,
            (6, 1) => f64::NEG_INFINITY,
            (c, k) => (c * 1000 + k) as f64 + 0.25,
        }
    };
    NumArray::from_f64_shaped((0..1000).map(value).collect(), &[20, 50]).unwrap()
}

/// The views the decide axis reads: whole, transposed (every chunk
/// whole through strided runs), rows 1..=18 (first and last chunk in
/// part), every other column (strided, every chunk in part), one row
/// across a chunk seam, chunk 1 whole with its upper half first (a
/// negative stride), and one element of chunk 1 read a chunk's length
/// of times (a zero stride: as many elements as the chunk holds, but
/// not the chunk).
fn decide_views(whole: &ArrayProxy) -> Vec<(&'static str, ArrayProxy)> {
    let half = CHUNK / 2;
    let dim = |size, stride| Dim { size, stride };
    let swapped = ArrayView::from_parts(CHUNK + half, vec![dim(2, -(half as isize)), dim(half, 1)]);
    let repeated = ArrayView::from_parts(CHUNK + 6, vec![dim(CHUNK, 0)]);
    let of = |view| ArrayProxy::from_parts(Arc::clone(whole.meta()), view);
    vec![
        ("whole", whole.clone()),
        ("transposed", whole.transpose()),
        ("rows 1..=18", whole.slice(0, 1, 1, 18).unwrap()),
        ("every other column", whole.slice(1, 0, 2, 49).unwrap()),
        ("row 3", whole.subscript(0, 3).unwrap()),
        ("chunk 1, halves swapped", of(swapped)),
        ("one element, repeated", of(repeated)),
    ]
}

/// Unfiltered, a range holding chunks 7..=9 whole and more in part, a
/// range around the zeros, and a membership list of the all-equal
/// chunks' values.
fn decide_predicates() -> Vec<Option<ValuePredicate>> {
    vec![
        None,
        Some(ValuePredicate::Range {
            lo: Num::Int(6050),
            hi: Num::Int(9063),
        }),
        Some(ValuePredicate::Range {
            lo: Num::Real(-70.0),
            hi: Num::Real(5000.0),
        }),
        Some(ValuePredicate::In(vec![
            Num::Int(7777),
            Num::Real(2.5),
            Num::Int(12_005),
        ])),
    ]
}

const OPS: [AggregateOp; 6] = [
    AggregateOp::Sum,
    AggregateOp::Avg,
    AggregateOp::Min,
    AggregateOp::Max,
    AggregateOp::Prod,
    AggregateOp::Count,
];

fn strategies() -> [RetrievalStrategy; 4] {
    [
        RetrievalStrategy::Single,
        RetrievalStrategy::BufferedIn { buffer_size: 4 },
        RetrievalStrategy::SpdRange {
            options: Default::default(),
        },
        RetrievalStrategy::WholeArray,
    ]
}

/// A fold's answer, bit-exact, or its error, printed.
fn outcome(total: Result<Num, StorageError>) -> Result<(u8, u64), String> {
    total.map(bits).map_err(|e| format!("{e:?}"))
}

/// One read of `reqs` on the sequential lane (`workers == 0`) or on
/// `read_parallel`: each request's answer in order. The first `folds`
/// requests fold, and answer bit-exact or with their error; the rest
/// materialize, and answer with their elements bit-exact.
fn answers<S: ChunkStore + SharedChunkRead>(
    store: &mut ArrayStore<S>,
    reqs: &[Request],
    folds: usize,
    strategy: RetrievalStrategy,
    workers: usize,
) -> Vec<Result<Vec<(u8, u64)>, String>> {
    let read = match workers {
        0 => store.read(reqs, strategy),
        n => store.read_parallel(reqs, strategy, n),
    };
    let answer = |(at, r): (usize, Resolved)| match at < folds {
        true => outcome(r.total()).map(|n| vec![n]),
        false => Ok(bits_vec(&r.into_array().unwrap().elements())),
    };
    match read {
        Ok(resolved) => resolved.into_iter().enumerate().map(answer).collect(),
        Err(e) => vec![Err(format!("{e:?}"))],
    }
}

/// A bag over the whole array and its rows 0..=9 (chunks 0..=7) in
/// which `Max` decides chunks that the rows' `Sum` and materialization
/// fetch; three folds, then the materialized rows.
fn bag<'a>(p: &'a ArrayProxy, rows: &'a ArrayProxy, pred: &'a ValuePredicate) -> [Request<'a>; 4] {
    [
        Request::new(p).fold(AggregateOp::Max),
        Request::new(rows).fold(AggregateOp::Sum),
        Request::new(p).filter(pred).fold(AggregateOp::Count),
        Request::new(rows),
    ]
}

/// Every fold of the decide axis on one store stack, with the zone map
/// on and off.
fn decide_matrix<S, F>(make: F)
where
    S: ChunkStore + SharedChunkRead,
    F: Fn() -> ArrayStore<S>,
{
    let mut decided = 0;
    for resident in [decide_ints(), decide_reals()] {
        for policy in POLICIES {
            let mut on = make();
            let mut off = make();
            on.set_codec(policy);
            off.set_codec(policy);
            off.set_skip_enabled(false);
            let p_on = on.store_array(&resident, CHUNK * 8).unwrap();
            let p_off = off.store_array(&resident, CHUNK * 8).unwrap();
            let views = decide_views(&p_on).into_iter().zip(decide_views(&p_off));
            for ((view, v_on), (_, v_off)) in views {
                for pred in decide_predicates() {
                    let (r_on, r_off) = match &pred {
                        None => (Request::new(&v_on), Request::new(&v_off)),
                        Some(pred) => (
                            Request::new(&v_on).filter(pred),
                            Request::new(&v_off).filter(pred),
                        ),
                    };
                    for op in OPS {
                        // Every strategy on `read`; on `read_parallel`,
                        // one strategy per fold in turn, at 1 and 4
                        // workers.
                        let turn = strategies()[op as usize % 4];
                        let lanes = strategies().map(|s| (s, 0)).into_iter();
                        for (strategy, workers) in lanes.chain([(turn, 1), (turn, 4)]) {
                            let a = answers(&mut on, &[r_on.fold(op)], 1, strategy, workers);
                            decided += on.last_stats().chunks_decided;
                            let b = answers(&mut off, &[r_off.fold(op)], 1, strategy, workers);
                            assert_eq!(off.last_stats().chunks_decided, 0);
                            assert_eq!(
                                a,
                                b,
                                "{op:?} over {view} of {:?}, {pred:?}, {} / {} / {workers}",
                                resident.numeric_type(),
                                policy.name(),
                                strategy.name()
                            );
                        }
                    }
                }
            }

            // An unfiltered `Max` decides chunks: the path is live.
            let max = Request::new(&p_on).fold(AggregateOp::Max);
            answers(&mut on, &[max], 1, RetrievalStrategy::Single, 0);
            assert!(on.last_stats().chunks_decided > 0, "{}", policy.name());

            let (rows_on, rows_off) = (p_on.slice(0, 0, 1, 9), p_off.slice(0, 0, 1, 9));
            let (rows_on, rows_off) = (rows_on.unwrap(), rows_off.unwrap());
            let pred = ValuePredicate::Range {
                lo: Num::Int(-70),
                hi: Num::Int(9063),
            };
            for strategy in strategies() {
                for workers in [0, 1, 4] {
                    let a = answers(&mut on, &bag(&p_on, &rows_on, &pred), 3, strategy, workers);
                    assert!(on.last_stats().chunks_decided > 0);
                    let b = answers(
                        &mut off,
                        &bag(&p_off, &rows_off, &pred),
                        3,
                        strategy,
                        workers,
                    );
                    assert_eq!(
                        a,
                        b,
                        "bag, {} / {} / {workers}",
                        policy.name(),
                        strategy.name()
                    );
                }
            }
        }
    }
    assert!(decided > 0, "the decide axis decided nothing");
}

#[test]
fn memory_store_decide_differential() {
    decide_matrix(|| ArrayStore::new(MemoryChunkStore::new()));
}

#[test]
fn cached_store_decide_differential() {
    decide_matrix(|| ArrayStore::new(CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20)));
}

#[test]
fn sharded_store_decide_differential() {
    decide_matrix(|| {
        let primaries: Vec<Box<dyn SharedChunkStore>> = (0..3)
            .map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn SharedChunkStore>)
            .collect();
        ArrayStore::new(ShardedChunkStore::new(primaries, ShardOptions::default()).unwrap())
    });
}
