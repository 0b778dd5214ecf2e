//! The fault paths the engine runs, driven by deterministic fault
//! injection over bare stacks.
//!
//! A failed batched statement degrades to per-chunk reads and still
//! answers bit-identically; a failed per-chunk read or a permanent
//! fault fails its query. Injected checksum corruption must surface as
//! an error, never as silently wrong data.
//!
//! The plan seed honours `SSDM_FAULT_SEED` (the CI fault matrix runs
//! this file under seeds 1, 2 and 3), defaulting to 1.

use ssdm_array::{AggregateOp, NumArray};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayProxy, ArrayStore, ChunkStore, FaultInjectingChunkStore, FaultKind, FaultPlan,
    MemoryChunkStore, OpKind, RawChunkAccess, RelChunkStore, Request, RetrievalStrategy,
    StorageError,
};

mod common;
use common::one;

const ROWS: usize = 24;
const COLS: usize = 24;
const CHUNK_BYTES: usize = 64;

fn matrix() -> NumArray {
    NumArray::from_i64_shaped((0..(ROWS * COLS) as i64).collect(), &[ROWS, COLS]).unwrap()
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

/// Resolve a battery of views under every strategy, returning each
/// result as element vectors (or propagating the first failure).
fn run_battery<S: ChunkStore>(
    store: &mut ArrayStore<S>,
    proxy: &ssdm_storage::ArrayProxy,
) -> Result<Vec<Vec<i64>>, StorageError> {
    let mut out = Vec::new();
    for strategy in strategies() {
        for view in [
            proxy.clone(),
            proxy.subscript(1, 7).unwrap(),
            proxy.subscript(0, 3).unwrap(),
            proxy.slice(0, 2, 3, 19).unwrap(),
        ] {
            let resolved = one(store, Request::new(&view), strategy)?.into_array()?;
            out.push(resolved.elements().iter().map(|n| n.as_i64()).collect());
        }
        let sum = one(store, Request::new(proxy).fold(AggregateOp::Sum), strategy)?.total()?;
        out.push(vec![sum.as_i64()]);
    }
    Ok(out)
}

fn seed() -> u64 {
    FaultPlan::seed_from_env(1)
}

#[test]
fn ten_percent_transient_faults_sink_some_queries_on_a_bare_stack() {
    let plan = FaultPlan::transient_reads(seed(), 0.10);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let mut store = ArrayStore::new(injected);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();

    let mut failures = 0;
    for _ in 0..5 {
        if run_battery(&mut store, &proxy).is_err() {
            failures += 1;
        }
    }
    assert!(
        failures > 0,
        "a 10% fault plan with no retry layer must sink some queries"
    );
}

/// The APR's per-chunk fallback is the one defence of a bare stack: a
/// batched statement that fails on any failing transient fault flavor
/// is served chunk by chunk, bit-identically.
#[test]
fn batched_statement_giveup_degrades_to_per_chunk_fallback() {
    let whole = RetrievalStrategy::WholeArray;
    for kind in [
        FaultKind::Transient,
        FaultKind::ShortRead,
        FaultKind::BitFlip,
    ] {
        // The first read statement (a WholeArray range) fails once; the
        // per-chunk fallback reads that follow are clean.
        let plan = FaultPlan::scripted(seed(), vec![]).fail_nth(OpKind::Read, 1, kind);
        let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
        let mut store = ArrayStore::new(injected);
        let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();
        let resolved = one(&mut store, Request::new(&proxy), whole).unwrap();
        let got: Vec<i64> = resolved
            .into_array()
            .unwrap()
            .elements()
            .iter()
            .map(|n| n.as_i64())
            .collect();
        assert_eq!(
            got,
            (0..(ROWS * COLS) as i64).collect::<Vec<_>>(),
            "{kind:?}"
        );
        let stats = store.last_stats();
        assert!(
            stats.fallbacks > 0,
            "{kind:?}: expected a per-chunk fallback, got {stats:?}"
        );
        assert!(stats.degraded());
        assert_eq!(store.backend().fault_stats().injected_of(kind), 1);
    }
}

#[test]
fn injected_corruption_is_detected_never_silent() {
    // At-rest flip with nothing but the frame checksum in the stack: the
    // read must error, not return mangled bytes.
    let mut plain = MemoryChunkStore::new();
    plain.put_chunk(5, 0, &[0xAB; 64]).unwrap();
    plain.flip_stored_bit(5, 0, 300).unwrap();
    match plain.get_chunk(5, 0) {
        Err(StorageError::Corrupt {
            array_id: 5,
            chunk_id: 0,
            ..
        }) => {}
        other => panic!("corruption must surface as Corrupt, got {other:?}"),
    }
}

#[test]
fn missing_chunk_faults_fail_fast_without_retries() {
    let plan = FaultPlan::scripted(seed(), vec![]).fail_nth(OpKind::Read, 1, FaultKind::Missing);
    let injected = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
    let mut store = ArrayStore::new(injected);
    let proxy = store.store_array(&matrix(), CHUNK_BYTES).unwrap();

    // Single strategy: the per-chunk statement has no batched fallback,
    // and MissingChunk is permanent: the read fails after exactly one
    // statement reaches the injector.
    let err = one(&mut store, Request::new(&proxy), RetrievalStrategy::Single).unwrap_err();
    assert!(matches!(err, StorageError::MissingChunk { .. }));
    assert_eq!(store.backend().fault_stats().ops[0], 1);
}

/// 20 arrays of 8 reals in 32-byte chunks (two each), and a bag reading
/// elements 1..=3 of each: the first chunks, every other row of the
/// clustered table, which SPD-RANGE covers with one composite range
/// that overfetches each array's second chunk.
fn bag_fleet<S: ChunkStore>(store: &mut ArrayStore<S>) -> Vec<ArrayProxy> {
    (0..20)
        .map(|k| {
            let a = NumArray::from_f64((0..8).map(|i| k as f64 * 10.0 + i as f64 * 0.1).collect());
            let p = store.store_array(&a, 32).unwrap();
            p.slice(0, 0, 1, 2).unwrap()
        })
        .collect()
}

fn spd() -> RetrievalStrategy {
    RetrievalStrategy::SpdRange {
        options: SpdOptions::default(),
    }
}

fn bag_bits<S: ChunkStore>(store: &mut ArrayStore<S>, bag: &[ArrayProxy]) -> Vec<Vec<u64>> {
    let reqs: Vec<Request> = bag.iter().map(Request::new).collect();
    let resolved = store.read(&reqs, spd()).unwrap().into_iter();
    let bits = |a: NumArray| a.elements().iter().map(|n| n.as_f64().to_bits()).collect();
    resolved.map(|r| bits(r.into_array().unwrap())).collect()
}

/// A bag gets the per-op fallback contract of a single proxy: its
/// composite statement, scripted to fail, is served by per-chunk reads
/// of exactly the keys the bag needs, bit-identically.
#[test]
fn bag_composite_statement_failure_falls_back_to_needed_keys() {
    let mut clean = ArrayStore::new(RelChunkStore::open_memory().unwrap());
    let clean_bag = bag_fleet(&mut clean);
    let expected = bag_bits(&mut clean, &clean_bag);
    assert_eq!(clean.last_stats().statements, 1, "one composite range");

    let plan = FaultPlan::scripted(seed(), vec![]).fail_nth(OpKind::Read, 1, FaultKind::Transient);
    let injected = FaultInjectingChunkStore::new(RelChunkStore::open_memory().unwrap(), plan);
    let mut store = ArrayStore::new(injected);
    let bag = bag_fleet(&mut store);
    assert_eq!(bag_bits(&mut store, &bag), expected);
    let st = store.last_stats();
    assert_eq!(st.fallbacks, 1, "{st:?}");
    // The failed composite statement never reached the store; the 20
    // needed chunks were then read one by one, and nothing else.
    assert_eq!((st.statements, st.chunks_fetched), (20, 20), "{st:?}");
    assert_eq!(store.backend().fault_stats().ops[0], 21);
}

/// A corrupt chunk that a covering composite range only overfetched
/// cannot sink the bag: the range fails its checksum, and the per-chunk
/// fallback reads only what the bag needs.
#[test]
fn bag_survives_corruption_in_an_overfetched_chunk() {
    let mut clean = ArrayStore::new(RelChunkStore::open_memory().unwrap());
    let clean_bag = bag_fleet(&mut clean);
    let expected = bag_bits(&mut clean, &clean_bag);

    let mut store = ArrayStore::new(RelChunkStore::open_memory().unwrap());
    let bag = bag_fleet(&mut store);
    // The second chunk of the 8th array: inside the composite range,
    // outside the bag.
    store
        .backend_mut()
        .flip_stored_bit(bag[7].array_id(), 1, 77)
        .unwrap();
    assert_eq!(bag_bits(&mut store, &bag), expected);
    assert_eq!(store.last_stats().fallbacks, 1);
    assert!(store.backend_mut().get_chunk(bag[7].array_id(), 1).is_err());
}

/// Where the file ends decides between "missing" and "short read", on
/// every statement shape of both read surfaces: the store learns it
/// from what the read returns, and the answer must be the one the
/// length check gave.
#[test]
fn file_end_is_missing_or_short_read_on_every_statement_shape() {
    use ssdm_storage::{FileChunkStore, SharedChunkRead};

    let dir = std::env::temp_dir().join(format!("ssdm-fault-file-end-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let mut store = FileChunkStore::new(&dir).unwrap();
    store.begin_array(1, 16).unwrap();
    for c in 0..3u64 {
        store.put_chunk(1, c, &[c as u8 + 7; 16]).unwrap();
    }
    // Cut the file 10 bytes into chunk 2's frame (its last 22 bytes go).
    let path = dir.join("arr_1.bin");
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    let len = file.metadata().unwrap().len();
    file.set_len(len - 22).unwrap();
    drop(file);

    let short = |r: Result<_, StorageError>, what: &str| match r {
        Err(
            e @ StorageError::ShortRead {
                array_id: 1,
                chunk_id: 2,
                expected: 16,
                got: 10,
            },
        ) => assert!(e.is_transient()),
        Err(other) => panic!("{what}: expected ShortRead of chunk 2, got {other:?}"),
        Ok(()) => panic!("{what}: a torn frame was served"),
    };
    let missing = |r: Result<_, StorageError>, chunk: u64, what: &str| match r {
        Err(StorageError::MissingChunk {
            array_id: 1,
            chunk_id,
        }) => assert_eq!(chunk_id, chunk, "{what}"),
        Err(other) => panic!("{what}: expected MissingChunk, got {other:?}"),
        Ok(()) => panic!("{what}: a chunk past the file end was served"),
    };

    short(store.read_chunk(1, 2).map(drop), "read_chunk");
    short(store.read_chunks_in(1, &[0, 2]).map(drop), "read_chunks_in");
    short(
        store.read_chunk_range(1, 1, 2).map(drop),
        "read_chunk_range",
    );
    short(store.get_chunk(1, 2).map(drop), "get_chunk");
    short(store.get_chunks_in(1, &[0, 2]).map(drop), "get_chunks_in");
    short(store.get_chunk_range(1, 0, 5).map(drop), "get_chunk_range");

    missing(store.read_chunk(1, 3).map(drop), 3, "read_chunk");
    missing(
        store.read_chunks_in(1, &[1, 9]).map(drop),
        9,
        "read_chunks_in",
    );
    missing(
        store.read_chunk_range(1, 3, 8).map(drop),
        3,
        "read_chunk_range",
    );
    missing(
        store.get_chunk(1, u64::MAX).map(drop),
        u64::MAX,
        "get_chunk",
    );
    missing(store.get_chunks_in(1, &[4]).map(drop), 4, "get_chunks_in");
    missing(
        store.get_chunk_range(1, 7, u64::MAX).map(drop),
        7,
        "get_chunk_range",
    );

    // The intact chunks are still served, and a range that runs past
    // the last written chunk returns what is there.
    assert_eq!(store.read_chunk(1, 0).unwrap(), vec![7u8; 16]);
    assert_eq!(
        store.read_chunks_in(1, &[1, 0]).unwrap(),
        vec![(1, vec![8u8; 16]), (0, vec![7u8; 16])]
    );
    assert_eq!(
        store.read_chunk_range(1, 0, 1).unwrap(),
        vec![(0, vec![7u8; 16]), (1, vec![8u8; 16])]
    );
    // A file cut exactly at a slot boundary: the range stops there.
    let file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
    file.set_len(len - 32).unwrap();
    drop(file);
    assert_eq!(store.get_chunk_range(1, 0, 9).unwrap().len(), 2);
    missing(store.read_chunk(1, 2).map(drop), 2, "cut at the boundary");

    // Damage inside a frame is neither: it is Corrupt, on each shape.
    store.flip_stored_bit(1, 1, 16 * 8 + 3).unwrap();
    for (what, r) in [
        ("read_chunk", store.read_chunk(1, 1).map(drop)),
        ("read_chunks_in", store.read_chunks_in(1, &[0, 1]).map(drop)),
        (
            "read_chunk_range",
            store.read_chunk_range(1, 0, 1).map(drop),
        ),
    ] {
        assert!(
            matches!(
                r,
                Err(StorageError::Corrupt {
                    array_id: 1,
                    chunk_id: 1,
                    ..
                })
            ),
            "{what}: {r:?}"
        );
    }
    std::fs::remove_dir_all(&dir).ok();
}
