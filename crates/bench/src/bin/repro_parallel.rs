//! Parallel retrieval pipeline + chunk cache scenario.
//!
//! Two sweeps over a latency-simulated relational back-end (the
//! `networked_dbms` model: 500 µs per statement — round trips dominate,
//! as in the thesis' client-server measurements):
//!
//! 1. **worker sweep** — the COLUMN pattern under the naive `Single`
//!    strategy touches one chunk per statement; partitioning the fetch
//!    plan across workers overlaps the simulated round trips. Every
//!    parallel result is checked **bit-identical** to the sequential
//!    `Single` resolution of the same view.
//! 2. **cache sweep** — the same query batch twice per cache budget:
//!    a cold pass that fills the [`CachedChunkStore`] and a warm pass
//!    that must be served from it.
//!
//! The binary *asserts* the PR's acceptance criteria — ≥2× speedup at
//! 4 workers and ≥2× for warm-cache repetition — and writes the
//! measurements as JSON (default `BENCH_parallel.json`, `--out PATH`).
//!
//! ```text
//! repro_parallel [--quick] [--workers N[,N]...] [--out PATH]
//! ```

use std::time::Instant;

use relstore::{Db, DbOptions, LatencyModel};
use ssdm_bench::runner::print_table;
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_storage::{
    ArrayStore, CachedChunkStore, ChunkStore, ParallelConfig, RelChunkStore, RetrievalStrategy,
};

const ROWS: usize = 128;
const COLS: usize = 128;
const CHUNK_BYTES: usize = 1024; // one row per chunk: COLUMN touches 128 chunks
const GEN_SEED: u64 = 1717;

fn usage() -> ! {
    eprintln!("usage: repro_parallel [--quick] [--workers N[,N]...] [--out PATH]");
    std::process::exit(2)
}

/// A fresh latency-simulated relational store behind a cache of
/// `cache_bytes` (0 = caching disabled), seeded with the test matrix.
fn stack(cache_bytes: usize) -> ArrayStore<CachedChunkStore<RelChunkStore>> {
    let db = Db::open_memory(DbOptions {
        latency: LatencyModel::networked_dbms(),
        ..DbOptions::default()
    })
    .expect("in-memory relational store");
    ArrayStore::new(CachedChunkStore::new(RelChunkStore::new(db), cache_bytes))
}

/// The fixed query batch every configuration replays (same seed → same
/// views, the controlled comparison).
fn batch(
    store: &mut ArrayStore<CachedChunkStore<RelChunkStore>>,
    queries: usize,
) -> (ssdm_storage::ArrayProxy, Vec<ssdm_storage::ArrayProxy>) {
    let matrix = QueryGenerator::matrix(ROWS, COLS);
    let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
    let mut gen = QueryGenerator::new(ROWS, COLS, GEN_SEED);
    let views = (0..queries)
        .map(|_| gen.instance(&base, AccessPattern::Column))
        .collect();
    (base, views)
}

fn bits(a: &ssdm_array::NumArray) -> Vec<u64> {
    a.elements().iter().map(|n| n.as_f64().to_bits()).collect()
}

struct Cell {
    label: String,
    per_query_ms: f64,
    statements: u64,
    speedup: f64,
}

fn main() {
    let mut quick = false;
    let mut workers: Vec<usize> = vec![1, 2, 4, 8];
    let mut out = "BENCH_parallel.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--workers" => {
                workers = args
                    .next()
                    .unwrap_or_else(|| usage())
                    .split(',')
                    .map(|w| w.parse().unwrap_or_else(|_| usage()))
                    .collect();
                if workers.is_empty() {
                    usage()
                }
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    if quick {
        workers.retain(|&w| w == 1 || w == 4);
        if workers.is_empty() {
            workers = vec![1, 4];
        }
    }
    if !workers.contains(&1) {
        workers.insert(0, 1); // the sequential baseline anchors speedups
    }
    workers.sort_unstable();
    workers.dedup();
    let queries = if quick { 5 } else { 20 };

    println!("Parallel retrieval + chunk cache: COLUMN / Single strategy");
    println!(
        "matrix {ROWS}x{COLS} f64, chunk {CHUNK_BYTES} B, networked-DBMS latency \
         (500 us/statement), {queries} queries per cell"
    );

    // Sequential ground truth, once: resolve() under Single.
    let expected: Vec<Vec<u64>> = {
        let mut store = stack(0);
        let (_base, views) = batch(&mut store, queries);
        views
            .iter()
            .map(|v| {
                bits(
                    &store
                        .resolve(v, RetrievalStrategy::Single)
                        .expect("resolve"),
                )
            })
            .collect()
    };

    // --- Sweep 1: workers (cold, uncached) -------------------------------
    let mut worker_cells: Vec<Cell> = Vec::new();
    let mut baseline_ms = 0.0;
    for &w in &workers {
        let mut store = stack(0);
        let (_base, views) = batch(&mut store, queries);
        store.backend_mut().reset_io_stats();
        let start = Instant::now();
        let results: Vec<Vec<u64>> = views
            .iter()
            .map(|v| {
                bits(
                    &store
                        .resolve_parallel(
                            v,
                            RetrievalStrategy::Single,
                            ParallelConfig::with_workers(w),
                        )
                        .expect("resolve_parallel"),
                )
            })
            .collect();
        let per_query_ms = start.elapsed().as_secs_f64() * 1e3 / queries as f64;
        assert_eq!(results, expected, "parallel w={w} must be bit-identical");
        let statements = store.backend().io_stats().statements;
        if w == 1 {
            baseline_ms = per_query_ms;
        }
        worker_cells.push(Cell {
            label: format!("{w}"),
            per_query_ms,
            statements,
            speedup: baseline_ms / per_query_ms,
        });
    }

    // --- Sweep 2: cache budgets (cold fill vs. warm repeat) --------------
    struct CacheCell {
        budget: usize,
        cold_ms: f64,
        warm_ms: f64,
        hit_rate: f64,
        warm_speedup: f64,
    }
    let budgets: &[usize] = if quick {
        &[0, 4 << 20]
    } else {
        &[0, 64 << 10, 4 << 20]
    };
    let mut cache_cells: Vec<CacheCell> = Vec::new();
    for &budget in budgets {
        let mut store = stack(budget);
        let (_base, views) = batch(&mut store, queries);
        store.backend_mut().inner_mut(); // keep the wrapper type obvious
        store.backend().cache().clear(); // drop write-through fills: measure a cold start
        store.backend_mut().reset_cache_stats();
        let run = |store: &mut ArrayStore<CachedChunkStore<RelChunkStore>>| {
            let start = Instant::now();
            let got: Vec<Vec<u64>> = views
                .iter()
                .map(|v| {
                    bits(
                        &store
                            .resolve(v, RetrievalStrategy::Single)
                            .expect("resolve"),
                    )
                })
                .collect();
            (start.elapsed().as_secs_f64() * 1e3 / queries as f64, got)
        };
        let (cold_ms, cold_bits) = run(&mut store);
        assert_eq!(
            cold_bits, expected,
            "cached cold pass must be bit-identical"
        );
        store.backend_mut().reset_cache_stats();
        let (warm_ms, warm_bits) = run(&mut store);
        assert_eq!(
            warm_bits, expected,
            "cached warm pass must be bit-identical"
        );
        let hit_rate = store.backend().cache_stats().hit_rate();
        cache_cells.push(CacheCell {
            budget,
            cold_ms,
            warm_ms,
            hit_rate,
            warm_speedup: cold_ms / warm_ms,
        });
    }

    // --- Report ----------------------------------------------------------
    let header: Vec<String> = ["workers", "ms/query", "statements", "speedup"]
        .into_iter()
        .map(String::from)
        .collect();
    let rows: Vec<Vec<String>> = worker_cells
        .iter()
        .map(|c| {
            vec![
                c.label.clone(),
                format!("{:.2}", c.per_query_ms),
                format!("{}", c.statements),
                format!("{:.2}x", c.speedup),
            ]
        })
        .collect();
    print_table(
        "parallel fetch, cold cache (bit-identical ✓)",
        &header,
        &rows,
    );

    let header: Vec<String> = [
        "cache budget",
        "cold ms/q",
        "warm ms/q",
        "hit rate",
        "speedup",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let rows: Vec<Vec<String>> = cache_cells
        .iter()
        .map(|c| {
            vec![
                if c.budget == 0 {
                    "off".into()
                } else {
                    format!("{} KiB", c.budget >> 10)
                },
                format!("{:.2}", c.cold_ms),
                format!("{:.2}", c.warm_ms),
                format!("{:.0}%", c.hit_rate * 100.0),
                format!("{:.1}x", c.warm_speedup),
            ]
        })
        .collect();
    print_table("repeated slicing, cold fill vs. warm cache", &header, &rows);

    // --- Acceptance assertions -------------------------------------------
    if let Some(c4) = worker_cells.iter().find(|c| c.label == "4") {
        assert!(
            c4.speedup >= 2.0,
            "expected >=2x at 4 workers, got {:.2}x",
            c4.speedup
        );
        println!(
            "\nparallel acceptance ✓: {:.2}x at 4 workers (>=2x required)",
            c4.speedup
        );
    }
    let best = cache_cells
        .iter()
        .filter(|c| c.budget > 0)
        .map(|c| c.warm_speedup)
        .fold(0.0f64, f64::max);
    assert!(
        best >= 2.0,
        "expected >=2x warm-cache speedup, got {best:.2}x"
    );
    println!("cache acceptance ✓: {best:.1}x warm repeat (>=2x required)");

    // --- JSON -------------------------------------------------------------
    let mut json = format!(
        "{{\n  \"measured_at\": \"{}\",\n",
        ssdm_bench::measured_at()
    );
    json.push_str(&format!(
        "  \"config\": {{\"rows\": {ROWS}, \"cols\": {COLS}, \"chunk_bytes\": {CHUNK_BYTES}, \
         \"queries\": {queries}, \"latency\": \"networked_dbms\", \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"parallel\": [\n");
    for (i, c) in worker_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"per_query_ms\": {:.4}, \"statements\": {}, \
             \"speedup\": {:.3}, \"bit_identical\": true}}{}\n",
            c.label,
            c.per_query_ms,
            c.statements,
            c.speedup,
            if i + 1 < worker_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n  \"cache\": [\n");
    for (i, c) in cache_cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"budget_bytes\": {}, \"cold_ms\": {:.4}, \"warm_ms\": {:.4}, \
             \"hit_rate\": {:.4}, \"warm_speedup\": {:.3}}}{}\n",
            c.budget,
            c.cold_ms,
            c.warm_ms,
            c.hit_rate,
            c.warm_speedup,
            if i + 1 < cache_cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ]\n}\n");
    std::fs::write(&out, json).expect("write JSON");
    println!("wrote {out}");
}
