//! Fault plans through the *parallel* fetch pipeline.
//!
//! The injector opts in to parallel reads via `enable_parallel`, and
//! `CachedChunkStore` over it is driven through `parallel::fetch_plan`
//! at several worker counts, asserting:
//!
//! * every read is bit-identical to a clean, unwrapped store, or fails
//!   with a typed transient error: the per-chunk fallback absorbs a
//!   failed batched statement, and nothing ever returns wrong bits;
//! * cache composition: a second pass over warm keys never reaches the
//!   injector.
//!
//! The plan seed honours `SSDM_FAULT_SEED` (CI runs seeds 1, 2, 3).

use ssdm_storage::parallel::fetch_plan;
use ssdm_storage::spd::{plan as spd_plan, FetchOp, SpdOptions};
use ssdm_storage::{
    CachedChunkStore, ChunkStore, FaultInjectingChunkStore, FaultKind, FaultPlan, MemoryChunkStore,
    OpKind,
};

const CHUNKS: u64 = 64;

type FaultyStack = CachedChunkStore<FaultInjectingChunkStore<MemoryChunkStore>>;

fn chunk_payload(c: u64) -> Vec<u8> {
    (0..48)
        .map(|b| (c as u8).wrapping_mul(13).wrapping_add(b))
        .collect()
}

fn clean_store() -> MemoryChunkStore {
    let mut s = MemoryChunkStore::new();
    for c in 0..CHUNKS {
        s.put_chunk(1, c, &chunk_payload(c)).unwrap();
    }
    s
}

fn faulty_stack(fault_plan: FaultPlan, cache_bytes: usize) -> FaultyStack {
    let mut injected = FaultInjectingChunkStore::new(clean_store(), fault_plan);
    injected.enable_parallel();
    CachedChunkStore::new(injected, cache_bytes)
}

fn seed() -> u64 {
    FaultPlan::seed_from_env(1)
}

#[test]
fn injector_parallel_capability_is_opt_in() {
    let no_opt_in = CachedChunkStore::new(
        FaultInjectingChunkStore::new(clean_store(), FaultPlan::transient_reads(1, 0.1)),
        1 << 20,
    );
    assert!(!no_opt_in.capabilities().supports_parallel);
    let opted = faulty_stack(FaultPlan::transient_reads(1, 0.1), 1 << 20);
    assert!(opted.capabilities().supports_parallel);
}

#[test]
fn parallel_fetch_over_faulty_stack_is_bit_identical() {
    let clean = clean_store();
    // A plan mixing range and IN statements: dense run, strided run,
    // scattered leftovers.
    let ids: Vec<u64> = (0..24)
        .chain((24..48).step_by(2))
        .chain([51, 55, 62, 63])
        .collect();
    let ops = spd_plan(&ids, SpdOptions::default());
    let batched = |op: &FetchOp| !matches!(op, FetchOp::In(ids) if ids.len() == 1);
    assert!(ops.iter().all(batched), "{ops:?}");
    let (expected, _) = fetch_plan(&clean, 1, &ops, &ids, 4).unwrap();

    for workers in [1, 2, 4, 8] {
        // Cache sized to zero so every round reaches the injector.
        let stack = faulty_stack(FaultPlan::transient_reads(seed(), 0.30), 0);
        let mut answered = 0;
        for round in 0..16 {
            match fetch_plan(&stack, 1, &ops, &ids, workers) {
                Ok((got, _)) => {
                    assert_eq!(got, expected, "workers={workers} round={round}");
                    answered += 1;
                }
                Err(e) => assert!(e.is_transient(), "workers={workers} round={round}: {e}"),
            }
        }
        let injected = stack.inner().fault_stats().total_injected();
        assert!(injected > 0, "30% over 16 rounds must fire");
        assert!(answered > 0, "workers={workers}: no round answered");

        // Every statement of this plan is batched, so one failing fault,
        // whichever worker's statement it hits, is absorbed by the
        // per-chunk fallback.
        for kind in [
            FaultKind::Transient,
            FaultKind::ShortRead,
            FaultKind::BitFlip,
        ] {
            let plan = FaultPlan::scripted(seed(), vec![]).fail_nth(OpKind::Read, 1, kind);
            let (got, fallbacks) = fetch_plan(&faulty_stack(plan, 0), 1, &ops, &ids, workers)
                .unwrap_or_else(|e| panic!("workers={workers} {kind:?}: {e}"));
            assert_eq!(got, expected, "workers={workers} {kind:?}");
            assert_eq!(fallbacks, 1, "workers={workers} {kind:?}");
        }
    }
}

#[test]
fn warm_cache_shields_the_injector() {
    let ids: Vec<u64> = (0..CHUNKS).collect();
    let ops = spd_plan(&ids, SpdOptions::default());
    let stack = faulty_stack(FaultPlan::transient_reads(seed(), 0.15), 1 << 20);
    // A pass can fail on an injected fault; the chunks it did read stay
    // cached, so a bounded number of passes warms every key.
    let first = (0..32)
        .find_map(|_| fetch_plan(&stack, 1, &ops, &ids, 4).ok())
        .expect("32 passes warm the cache")
        .0;
    let ops_after_first = stack.inner().fault_stats().ops;
    let (second, _) = fetch_plan(&stack, 1, &ops, &ids, 4).unwrap();
    assert_eq!(first, second);
    assert_eq!(
        stack.inner().fault_stats().ops,
        ops_after_first,
        "a warm cache must not let reads reach the injector"
    );
    let clean = clean_store();
    let (expected, _) = fetch_plan(&clean, 1, &ops, &ids, 4).unwrap();
    assert_eq!(first, expected);
}
