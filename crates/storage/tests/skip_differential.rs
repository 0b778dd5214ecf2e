//! Differential tests for zone-map chunk skipping: with skipping
//! enabled or disabled, every filtered resolution — scans, existence
//! probes, sequential and parallel aggregates — must return
//! bit-identical results, across every codec policy and back-end stack
//! (plain memory, cached, resilient, sharded). Skipping is purely a
//! plan transformation; only the I/O counters may differ, and on a
//! chunk-selective predicate `chunks_skipped` must actually be
//! positive, otherwise the optimisation is dead code.

use ssdm_array::{AggregateOp, Num, NumArray};
use ssdm_storage::{
    ArrayStore, CachedChunkStore, ChunkStore, CodecPolicy, MemoryChunkStore, Request,
    ResilientChunkStore, Resolved, RetrievalStrategy, RetryPolicy, ShardOptions, ShardedChunkStore,
    SharedChunkRead, SharedChunkStore, ValuePredicate,
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
fn resilient_store_skip_differential() {
    run_matrix(|| {
        ArrayStore::new(ResilientChunkStore::new(
            MemoryChunkStore::new(),
            RetryPolicy::aggressive(),
        ))
    });
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
