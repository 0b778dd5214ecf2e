//! The resilience-composition gap: fault plans through the *parallel*
//! fetch pipeline.
//!
//! PR 1's fault matrix exercised `CachedChunkStore` over
//! `ResilientChunkStore` over the injector sequentially only (the
//! injector advertised `supports_parallel: false`). Here the injector
//! opts in via `enable_parallel` and the full stack is driven through
//! `parallel::fetch_plan` at several worker counts, asserting:
//!
//! * results bit-identical to a clean, unwrapped store;
//! * **exact retry accounting** — the injector's counter-indexed
//!   decision stream makes fault *totals* schedule-independent, and
//!   each failing injected fault (transient, short read, bit flip)
//!   costs exactly one retry when the budget absorbs it, so
//!   `retries == injected(Transient) + injected(ShortRead) +
//!   injected(BitFlip)` must hold exactly, even with 8 workers racing;
//! * cache composition: a second pass over warm keys never reaches the
//!   injector.
//!
//! The plan seed honours `SSDM_FAULT_SEED` (CI runs seeds 1, 2, 3).

use ssdm_storage::parallel::fetch_plan;
use ssdm_storage::spd::{plan as spd_plan, SpdOptions};
use ssdm_storage::{
    CachedChunkStore, ChunkStore, FaultInjectingChunkStore, FaultKind, FaultPlan, MemoryChunkStore,
    ResilientChunkStore, RetryPolicy,
};

const CHUNKS: u64 = 64;

type FaultyStack =
    CachedChunkStore<ResilientChunkStore<FaultInjectingChunkStore<MemoryChunkStore>>>;

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
    let resilient = ResilientChunkStore::new(injected, RetryPolicy::aggressive());
    CachedChunkStore::new(resilient, cache_bytes)
}

fn injector(stack: &FaultyStack) -> &FaultInjectingChunkStore<MemoryChunkStore> {
    stack.inner().inner()
}

fn seed() -> u64 {
    FaultPlan::seed_from_env(1)
}

/// Retries the resilient layer *must* have spent: one per injected
/// fault of a failing flavor (latency spikes succeed, so they are
/// free).
fn expected_retries(stack: &FaultyStack) -> u64 {
    let fs = injector(stack).fault_stats();
    fs.injected_of(FaultKind::Transient)
        + fs.injected_of(FaultKind::ShortRead)
        + fs.injected_of(FaultKind::BitFlip)
}

#[test]
fn injector_parallel_capability_is_opt_in() {
    let no_opt_in = CachedChunkStore::new(
        ResilientChunkStore::new(
            FaultInjectingChunkStore::new(clean_store(), FaultPlan::transient_reads(1, 0.1)),
            RetryPolicy::aggressive(),
        ),
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
    let (expected, _) = fetch_plan(&clean, 1, &ops, &ids, 4).unwrap();

    for workers in [1, 2, 4, 8] {
        // Cache sized to zero so every iteration re-runs the gauntlet.
        // Faults are drawn per *statement*, and SPD compresses this id
        // list into a handful of statements, so the rate and round count
        // are sized for every statement shape to fail at least once
        // under seeds 1-3.
        let stack = faulty_stack(FaultPlan::transient_reads(seed(), 0.30), 0);
        for round in 0..16 {
            let (got, _) = fetch_plan(&stack, 1, &ops, &ids, workers)
                .expect("aggressive retries must absorb a 30% transient plan");
            assert_eq!(got, expected, "workers={workers} round={round}");
        }
        let res = stack.resilience_stats();
        assert!(res.retries > 0, "30% over 16 rounds must fire: {res:?}");
        assert_eq!(res.giveups, 0, "budget must absorb every burst: {res:?}");
        assert_eq!(
            res.retries,
            expected_retries(&stack),
            "workers={workers}: each failing fault costs exactly one retry"
        );
    }
}

#[test]
fn retry_accounting_stays_exact_under_concurrency() {
    // Heavier traffic, per-chunk statements (every chunk its own op) so
    // worker interleaving is maximal.
    let ops: Vec<ssdm_storage::spd::FetchOp> = (0..CHUNKS)
        .map(|c| ssdm_storage::spd::FetchOp::In(vec![c]))
        .collect();
    let needed: Vec<u64> = (0..CHUNKS).collect();
    let stack = faulty_stack(FaultPlan::transient_reads(seed(), 0.25), 0);
    for _ in 0..8 {
        let (rows, fallbacks) = fetch_plan(&stack, 1, &ops, &needed, 8)
            .expect("single-chunk ops have no fallback but retries absorb faults");
        assert_eq!(rows.len(), CHUNKS as usize);
        assert_eq!(fallbacks, 0, "resilient layer must hide faults from APR");
    }
    let res = stack.resilience_stats();
    let fs = injector(&stack).fault_stats();
    assert_eq!(res.giveups, 0);
    assert_eq!(res.retries, expected_retries(&stack));
    // Totals are schedule-independent: reads seen (`ops[0]`) is exactly
    // the statement count issued beneath the cacheless stack plus one
    // re-issue per retry, faults or not.
    assert_eq!(
        fs.ops[0],
        res.retries + 8 * CHUNKS,
        "every statement and every retry re-draws exactly once"
    );
}

#[test]
fn warm_cache_shields_the_injector() {
    let ids: Vec<u64> = (0..CHUNKS).collect();
    let ops = spd_plan(&ids, SpdOptions::default());
    let stack = faulty_stack(FaultPlan::transient_reads(seed(), 0.15), 1 << 20);
    let (first, _) = fetch_plan(&stack, 1, &ops, &ids, 4).unwrap();
    let ops_after_first = injector(&stack).fault_stats().ops;
    let (second, _) = fetch_plan(&stack, 1, &ops, &ids, 4).unwrap();
    assert_eq!(first, second);
    assert_eq!(
        injector(&stack).fault_stats().ops,
        ops_after_first,
        "a warm cache must not let reads reach the injector"
    );
    let clean = clean_store();
    let (expected, _) = fetch_plan(&clean, 1, &ops, &ids, 4).unwrap();
    assert_eq!(first, expected);
}
