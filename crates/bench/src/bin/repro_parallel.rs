//! Parallel retrieval pipeline + chunk cache scenario.
//!
//! Two sweeps over a latency-simulated relational back-end (the
//! `networked_dbms` model: 500 µs per statement — round trips dominate,
//! as in the thesis' client-server measurements), on a 128×128 f64
//! matrix in 1 KiB chunks (one row per chunk) under the `Single`
//! strategy, one statement per chunk:
//!
//! 1. **worker sweep** — partitioning the fetch plan across workers
//!    overlaps the simulated round trips, for two shapes: COLUMN views
//!    materialized, and whole-array Sum and Avg folded chunk-side
//!    (`ArrayStore::read_parallel` of a fold: workers fold each chunk's
//!    partial in place, the partials combine in plan order). Both folds
//!    are ones the zone map cannot decide from chunk summaries, so every
//!    chunk is fetched and folded in a worker (checked: no chunk
//!    decided). Each shape is checked bit-identical to 1 worker; claim
//!    **≥2×** at 4 workers for each.
//! 2. **cache sweep** — the same query batch twice per cache budget: a
//!    cold pass that fills the [`CachedChunkStore`] and a warm pass that
//!    must be served from it. Claim **≥2×** for the warm repeat.
//!
//! ```text
//! repro_parallel [--quick] [--workers N[,N]...] [--out PATH]
//! ```

use std::process::ExitCode;

use relstore::LatencyModel;
use ssdm_array::{AggregateOp, Num};
use ssdm_bench::runner::rel_store;
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_bench::{best_of, Args, Bar, Fmt, Json, Report};
use ssdm_storage::{
    ArrayProxy, ArrayStore, CachedChunkStore, ChunkStore, RelChunkStore, Request, Resolved,
    RetrievalStrategy,
};

const ROWS: usize = 128;
const COLS: usize = 128;
const CHUNK_BYTES: usize = 1024; // one row per chunk: COLUMN touches 128 chunks
const GEN_SEED: u64 = 1717;
const SINGLE: RetrievalStrategy = RetrievalStrategy::Single;

type Stack = ArrayStore<CachedChunkStore<RelChunkStore>>;

/// A fresh latency-simulated relational store behind a cache of
/// `cache_bytes` (0 = caching disabled), holding the test matrix, and
/// the fixed batch of COLUMN views every configuration replays (same
/// seed → same views, the controlled comparison).
fn stack(cache_bytes: usize, queries: usize) -> (Stack, ArrayProxy, Vec<ArrayProxy>) {
    let backend = rel_store(LatencyModel::networked_dbms(), 1024);
    let mut store = ArrayStore::new(CachedChunkStore::new(backend, cache_bytes));
    let matrix = QueryGenerator::matrix(ROWS, COLS);
    let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
    let mut gen = QueryGenerator::new(ROWS, COLS, GEN_SEED);
    let views = (0..queries)
        .map(|_| gen.instance(&base, AccessPattern::Column))
        .collect();
    (store, base, views)
}

/// The element bits of a read of one materialized view.
fn bits(read: ssdm_storage::Result<Vec<Resolved>>) -> Vec<u64> {
    let a = read.expect("read").remove(0).into_array().expect("array");
    a.elements().iter().map(|n| n.as_f64().to_bits()).collect()
}

fn num_bits(n: &Num) -> (bool, u64) {
    match n {
        Num::Int(v) => (true, *v as u64),
        Num::Real(v) => (false, v.to_bits()),
    }
}

fn main() -> ExitCode {
    let args = Args::parse(
        "repro_parallel",
        &["--quick", "--workers N[,N]...", "--out PATH"],
    );
    let mut report = Report::new(&args);
    let (quick, workers) = (args.quick(), args.workers());
    let queries = if quick { 5 } else { 20 };
    let agg_repeats = if quick { 2 } else { 5 };
    report.config(&[
        ("rows", ROWS.into()),
        ("cols", COLS.into()),
        ("chunk_bytes", CHUNK_BYTES.into()),
        ("queries", queries.into()),
        ("aggregate_repeats", agg_repeats.into()),
        ("latency", "networked_dbms".into()),
    ]);
    println!("Parallel retrieval + chunk cache: Single strategy");
    println!(
        "matrix {ROWS}x{COLS} f64, chunk {CHUNK_BYTES} B, networked-DBMS latency \
         (500 us/statement), {queries} COLUMN queries per cell, whole-array Sum and Avg \
         best of {agg_repeats}"
    );

    // --- Sweep 1: workers (cold, uncached), both shapes -----------------
    let ops = [AggregateOp::Sum, AggregateOp::Avg];
    let (mut resolved, mut folded) = (Vec::new(), Vec::new());
    let (mut base_ms, mut base_agg_ms) = (0.0, 0.0);
    let (mut fetch_rows, mut agg_rows, mut at_4) = (Vec::new(), Vec::new(), None);
    let mut decided = 0;
    for w in workers {
        let (mut store, base, views) = stack(0, queries);
        store.backend_mut().reset_io_stats();
        let (ms, got) = best_of(1, || {
            let each = views.iter();
            each.map(|v| bits(store.read_parallel(&[Request::new(v)], SINGLE, w)))
                .collect::<Vec<_>>()
        });
        let statements = store.backend().io_stats().statements;
        store.backend_mut().reset_io_stats();
        let (agg_ms, agg) = best_of(agg_repeats, || {
            let each =
                ops.map(|op| store.read_parallel(&[Request::new(&base).fold(op)], SINGLE, w));
            each.map(|r| num_bits(&r.expect("read").remove(0).total().expect("fold")))
        });
        let agg_stmts = store.backend().io_stats().statements / agg_repeats as u64;
        decided += store.cumulative_stats().chunks_decided;
        let (per_query_ms, per_agg_ms) = (ms / queries as f64, agg_ms / ops.len() as f64);
        if w == 1 {
            (resolved, folded) = (got.clone(), agg.to_vec());
            (base_ms, base_agg_ms) = (per_query_ms, per_agg_ms);
        }
        assert_eq!(
            got, resolved,
            "w={w}: views must be bit-identical to 1 worker"
        );
        assert_eq!(
            agg.to_vec(),
            folded,
            "w={w}: folds must be bit-identical to 1 worker"
        );
        let (speedup, agg_speedup) = (base_ms / per_query_ms, base_agg_ms / per_agg_ms);
        fetch_rows.push(vec![
            w.into(),
            per_query_ms.into(),
            statements.into(),
            speedup.into(),
        ]);
        agg_rows.push(vec![
            w.into(),
            per_agg_ms.into(),
            agg_stmts.into(),
            agg_speedup.into(),
        ]);
        if w == 4 {
            at_4 = Some((speedup, agg_speedup));
        }
    }
    let cols = |time: &'static str| {
        [
            ("workers", "workers", Fmt::Plain),
            (time, "per_query_ms", Fmt::Fixed(2)),
            ("statements", "statements", Fmt::Plain),
            ("speedup", "speedup", Fmt::Unit(2, "x")),
        ]
    };
    let title = "parallel fetch, cold cache (bit-identical ✓)";
    report.table("parallel", title, &cols("ms/query"), fetch_rows);
    let title = "streamed aggregates, networked DBMS (bit-identical ✓)";
    report.table("aggregate", title, &cols("ms/aggregate"), agg_rows);
    if let Some((fetch, fold)) = at_4 {
        report.check(
            "parallel fetch speedup at 4 workers",
            fetch,
            Bar::AtLeast(2.0),
        );
        report.check(
            "streamed aggregate speedup at 4 workers",
            fold,
            Bar::AtLeast(2.0),
        );
    }
    report.check(
        "aggregate sweep chunks decided by the zone map",
        decided as f64,
        Bar::Equals(0.0),
    );

    // --- Sweep 2: cache budgets (cold fill vs. warm repeat) --------------
    let budgets: &[usize] = if quick {
        &[0, 4 << 20]
    } else {
        &[0, 64 << 10, 4 << 20]
    };
    let mut rows = Vec::new();
    let mut best = 0.0f64;
    for &budget in budgets {
        let (mut store, _base, views) = stack(budget, queries);
        store.backend().cache().clear(); // drop write-through fills: measure a cold start
        let pass = |store: &mut Stack| {
            let (ms, got) = best_of(1, || {
                let each = views
                    .iter()
                    .map(|v| bits(store.read(&[Request::new(v)], SINGLE)));
                each.collect::<Vec<_>>()
            });
            assert_eq!(got, resolved, "cached passes must be bit-identical");
            ms / queries as f64
        };
        let cold_ms = pass(&mut store);
        store.backend_mut().reset_cache_stats();
        let warm_ms = pass(&mut store);
        let hit_rate = store.backend().cache_stats().hit_rate();
        if budget > 0 {
            best = best.max(cold_ms / warm_ms);
        }
        let label: Json = match budget {
            0 => "off".into(),
            b => format!("{} KiB", b >> 10).into(),
        };
        rows.push(vec![
            label,
            budget.into(),
            cold_ms.into(),
            warm_ms.into(),
            hit_rate.into(),
            (cold_ms / warm_ms).into(),
        ]);
    }
    report.table(
        "cache",
        "repeated slicing, cold fill vs. warm cache",
        &[
            ("cache budget", "", Fmt::Plain),
            ("", "budget_bytes", Fmt::Plain),
            ("cold ms/q", "cold_ms", Fmt::Fixed(2)),
            ("warm ms/q", "warm_ms", Fmt::Fixed(2)),
            ("hit rate", "hit_rate", Fmt::Pct(0)),
            ("speedup", "warm_speedup", Fmt::Unit(1, "x")),
        ],
        rows,
    );
    report.check("best warm-cache repeat speedup", best, Bar::AtLeast(2.0));
    report.finish()
}
