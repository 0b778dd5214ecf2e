//! Experiment 7 (thesis §6.2.5): Sequence Pattern Detector ablation.
//!
//! Feeds chunk-id sequences of varying regularity to the fetch planner
//! with SPD enabled (SPD-RANGE) and disabled (BUFFERED-IN with the same
//! batch budget), and reports statements issued, chunks fetched and
//! time against the latency-charged relational back-end. This isolates
//! the SPD's contribution: discovering access regularity *at query
//! runtime* instead of relying on tile design (§2.5). Part C's
//! statement, chunk and decode counts are asserted; the process exits
//! non-zero on a miss.

use relstore::{DbOptions, LatencyModel};
use ssdm_bench::fmt_ms;
use ssdm_bench::runner::{print_table, run_pattern};
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_storage::spd::{self, SpdOptions};
use ssdm_storage::{ArrayStore, ChunkStore, RelChunkStore, RetrievalStrategy};

fn main() {
    println!("Experiment 7: SPD effectiveness (thesis §6.2.5)");

    // Part A: planner-level — statements and overfetch per id-sequence.
    println!("\nPart A: fetch plans for synthetic chunk-id sequences");
    let seqs: Vec<(&str, Vec<u64>)> = vec![
        ("dense 0..100", (0..100).collect()),
        ("stride 2", (0..100).map(|k| k * 2).collect()),
        ("stride 7", (0..60).map(|k| k * 7).collect()),
        ("two runs", (0..40).chain(500..540).collect()),
        (
            "random-ish",
            (0..80u64).map(|k| (k * k * 37 + 11) % 4096).collect(),
        ),
    ];
    let header: Vec<String> = [
        "sequence",
        "ids",
        "SPD stmts",
        "SPD fetch",
        "IN stmts",
        "IN fetch",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut table = Vec::new();
    for (name, ids) in &seqs {
        let spd_plan = spd::plan(ids, SpdOptions::default());
        let (needed, spd_fetch) = spd::plan_overfetch(ids, &spd_plan);
        let in_stmts = ids.len().div_ceil(SpdOptions::default().max_in_list);
        table.push(vec![
            name.to_string(),
            needed.to_string(),
            spd_plan.len().to_string(),
            spd_fetch.to_string(),
            in_stmts.to_string(),
            needed.to_string(),
        ]);
    }
    print_table(
        "planner output (statements / chunks fetched)",
        &header,
        &table,
    );

    // Part B: end-to-end against the back-end with latency.
    println!("\nPart B: end-to-end resolution, SPD on vs off");
    let (rows, cols) = (256, 256);
    let chunk_bytes = 512; // 64 elements -> 4 chunks per row
    let queries = 10;
    let db = relstore::Db::open_memory(DbOptions {
        pool_pages: 8192,
        latency: LatencyModel::local_dbms(),
    })
    .expect("db");
    let mut store = ArrayStore::new(RelChunkStore::new(db));
    let matrix = QueryGenerator::matrix(rows, cols);
    let base = store.store_array(&matrix, chunk_bytes).expect("store");

    let patterns = [
        AccessPattern::Column,
        AccessPattern::StridedRows { stride: 2 },
        AccessPattern::StridedRows { stride: 16 },
        AccessPattern::Whole,
    ];
    let header: Vec<String> = [
        "pattern",
        "SPD ms/q",
        "SPD stmts/q",
        "SPD overfetch",
        "no-SPD ms/q",
        "no-SPD stmts/q",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut table = Vec::new();
    for &pattern in &patterns {
        let mut gen = QueryGenerator::new(rows, cols, 11);
        let spd_m = run_pattern(
            &mut store,
            &base,
            &mut gen,
            pattern,
            RetrievalStrategy::SpdRange {
                options: SpdOptions::default(),
            },
            queries,
        );
        let mut gen = QueryGenerator::new(rows, cols, 11);
        let in_m = run_pattern(
            &mut store,
            &base,
            &mut gen,
            pattern,
            RetrievalStrategy::BufferedIn { buffer_size: 256 },
            queries,
        );
        table.push(vec![
            pattern.name(),
            fmt_ms(spd_m.total_seconds / queries as f64),
            format!("{:.1}", spd_m.statements as f64 / queries as f64),
            format!("{:.2}", spd_m.overfetch()),
            fmt_ms(in_m.total_seconds / queries as f64),
            format!("{:.1}", in_m.statements as f64 / queries as f64),
        ]);
    }
    print_table("SPD-RANGE vs BUFFERED-IN(256)", &header, &table);

    // Part C: bags of array proxies (§6.2.4) — the BISTAB shape: many
    // small arrays, the query touching (a part of) each.
    println!("\nPart C: resolving bags of proxies across arrays");
    let db = relstore::Db::open_memory(DbOptions {
        pool_pages: 8192,
        latency: LatencyModel::local_dbms(),
    })
    .expect("db");
    let mut store = ArrayStore::new(RelChunkStore::new(db));
    let fleet: Vec<_> = (0..500)
        .map(|k| {
            let a =
                ssdm_array::NumArray::from_f64((0..256).map(|i| (k * 1000 + i) as f64).collect());
            store.store_array(&a, 512).expect("store") // 4 chunks each
        })
        .collect();
    let heads: Vec<_> = fleet
        .iter()
        .map(|p| p.slice(0, 0, 1, 63).unwrap()) // first chunk of each
        .collect();

    let header: Vec<String> = ["workload", "mode", "ms", "statements", "chunks"]
        .iter()
        .map(|s| s.to_string())
        .collect();
    let mut table = Vec::new();
    let mut misses = Vec::new();
    // (workload, views, bag statements, chunks the bag needs): the whole
    // fleet is one clustered range; the first chunks are every fourth
    // row, too sparse for a range, so two composite IN-lists of ≤ 256.
    for (wname, views, bag_statements, needed) in [
        ("whole arrays", &fleet, 1, 2000),
        ("first quarter", &heads, 2, 500),
    ] {
        // Per-proxy resolution.
        store.backend_mut().reset_io_stats();
        let t = std::time::Instant::now();
        for v in views.iter() {
            store
                .resolve(
                    v,
                    RetrievalStrategy::SpdRange {
                        options: SpdOptions::default(),
                    },
                )
                .expect("resolve");
        }
        let per = (t.elapsed().as_secs_f64(), store.backend().io_stats());
        // Bag resolution.
        store.backend_mut().reset_io_stats();
        let t = std::time::Instant::now();
        store
            .resolve_bag(
                views,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .expect("bag");
        let bag = (t.elapsed().as_secs_f64(), store.backend().io_stats());
        let decoded = store.last_stats().chunks_decoded;
        for (what, got, want) in [
            ("per-proxy statements", per.1.statements, 500),
            ("bag statements", bag.1.statements, bag_statements),
            ("bag chunks", bag.1.chunks_returned, needed),
            ("bag chunks decoded", decoded, needed),
        ] {
            if got != want {
                misses.push(format!("{wname}: {what} {got}, expected {want}"));
            }
        }
        table.push(vec![
            wname.to_string(),
            "per-proxy".into(),
            fmt_ms(per.0),
            per.1.statements.to_string(),
            per.1.chunks_returned.to_string(),
        ]);
        table.push(vec![
            wname.to_string(),
            "bag".into(),
            fmt_ms(bag.0),
            bag.1.statements.to_string(),
            bag.1.chunks_returned.to_string(),
        ]);
    }
    print_table("per-proxy vs bag resolution (500 arrays)", &header, &table);
    if !misses.is_empty() {
        for m in &misses {
            eprintln!("Part C: {m}");
        }
        std::process::exit(1);
    }

    println!(
        "\nReading: regular patterns collapse to a handful of range statements under \
         SPD; for irregular sequences SPD falls back to IN-lists and matches the \
         baseline, so enabling it is never a regression. Bags of proxies (Part C) \
         collapse hundreds of per-array statement rounds into a few clustered scans."
    );
}
