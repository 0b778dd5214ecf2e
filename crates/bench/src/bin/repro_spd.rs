//! Experiment 7 (thesis §6.2.5): Sequence Pattern Detector ablation.
//!
//! Feeds chunk-id sequences of varying regularity to the fetch planner
//! with SPD enabled (SPD-RANGE) and disabled (BUFFERED-IN with the same
//! batch budget), and reports statements issued, chunks fetched and
//! time against the latency-charged relational back-end. This isolates
//! the SPD's contribution: discovering access regularity *at query
//! runtime* instead of relying on tile design (§2.5). Part C's
//! statement, chunk and decode counts are checked.

use std::process::ExitCode;
use std::time::Instant;

use relstore::LatencyModel;
use ssdm_bench::runner::{rel_store, run_pattern};
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_bench::{Args, Bar, Fmt, Report};
use ssdm_storage::spd::{self, SpdOptions};
use ssdm_storage::{ArrayStore, ChunkStore, Request, RetrievalStrategy};

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_spd", &[]));
    let spd_range = RetrievalStrategy::SpdRange {
        options: SpdOptions::default(),
    };
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
    let mut table = Vec::new();
    for (name, ids) in &seqs {
        let spd_plan = spd::plan(ids, SpdOptions::default());
        let (needed, spd_fetch) = spd::plan_overfetch(ids, &spd_plan);
        let in_stmts = ids.len().div_ceil(SpdOptions::default().max_in_list);
        table.push(vec![
            (*name).into(),
            needed.into(),
            spd_plan.len().into(),
            spd_fetch.into(),
            in_stmts.into(),
            needed.into(),
        ]);
    }
    report.table(
        "planner",
        "planner output (statements / chunks fetched)",
        &[
            ("sequence", "sequence", Fmt::Plain),
            ("ids", "ids", Fmt::Plain),
            ("SPD stmts", "spd_statements", Fmt::Plain),
            ("SPD fetch", "spd_fetched", Fmt::Plain),
            ("IN stmts", "in_statements", Fmt::Plain),
            ("IN fetch", "in_fetched", Fmt::Plain),
        ],
        table,
    );

    // Part B: end-to-end against the back-end with latency.
    println!("\nPart B: end-to-end resolution, SPD on vs off");
    let (rows, cols) = (256, 256);
    let chunk_bytes = 512; // 64 elements -> 4 chunks per row
    let queries = 10;
    let mut store = ArrayStore::new(rel_store(LatencyModel::local_dbms(), 8192));
    let matrix = QueryGenerator::matrix(rows, cols);
    let base = store.store_array(&matrix, chunk_bytes).expect("store");
    let patterns = [
        AccessPattern::Column,
        AccessPattern::StridedRows { stride: 2 },
        AccessPattern::StridedRows { stride: 16 },
        AccessPattern::Whole,
    ];
    let mut table = Vec::new();
    for &pattern in &patterns {
        let mut run = |strategy| {
            let mut gen = QueryGenerator::new(rows, cols, 11);
            run_pattern(&mut store, &base, &mut gen, pattern, strategy, queries)
        };
        let spd_m = run(spd_range);
        let in_m = run(RetrievalStrategy::BufferedIn { buffer_size: 256 });
        table.push(vec![
            pattern.name().into(),
            spd_m.per_query_ms().into(),
            spd_m.statements_per_query().into(),
            spd_m.overfetch().into(),
            in_m.per_query_ms().into(),
            in_m.statements_per_query().into(),
        ]);
    }
    report.table(
        "end_to_end",
        "SPD-RANGE vs BUFFERED-IN(256)",
        &[
            ("pattern", "pattern", Fmt::Plain),
            ("SPD ms/q", "spd_ms", Fmt::Ms),
            ("SPD stmts/q", "spd_statements", Fmt::Fixed(1)),
            ("SPD overfetch", "spd_overfetch", Fmt::Fixed(2)),
            ("no-SPD ms/q", "in_ms", Fmt::Ms),
            ("no-SPD stmts/q", "in_statements", Fmt::Fixed(1)),
        ],
        table,
    );

    // Part C: bags of array proxies (§6.2.4) — the BISTAB shape: many
    // small arrays, the query touching (a part of) each.
    println!("\nPart C: resolving bags of proxies across arrays");
    let mut store = ArrayStore::new(rel_store(LatencyModel::local_dbms(), 8192));
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
    let mut table = Vec::new();
    let mut counts = Vec::new();
    // (workload, views, bag statements, chunks the bag needs): the whole
    // fleet is one clustered range; the first chunks are every fourth
    // row, too sparse for a range, so two composite IN-lists of ≤ 256.
    for (wname, views, bag_statements, needed) in [
        ("whole arrays", &fleet, 1, 2000),
        ("first quarter", &heads, 2, 500),
    ] {
        store.backend_mut().reset_io_stats();
        let t = Instant::now();
        for v in views.iter() {
            store.read(&[Request::new(v)], spd_range).expect("resolve");
        }
        let per = (t.elapsed().as_secs_f64() * 1e3, store.backend().io_stats());
        store.backend_mut().reset_io_stats();
        let t = Instant::now();
        let bag: Vec<Request> = views.iter().map(Request::new).collect();
        store.read(&bag, spd_range).expect("bag");
        let bag = (t.elapsed().as_secs_f64() * 1e3, store.backend().io_stats());
        let decoded = store.last_stats().chunks_decoded;
        counts.extend([
            (wname, "per-proxy statements", per.1.statements, 500),
            (wname, "bag statements", bag.1.statements, bag_statements),
            (wname, "bag chunks", bag.1.chunks_returned, needed),
            (wname, "bag chunks decoded", decoded, needed),
        ]);
        for (mode, (ms, io)) in [("per-proxy", per), ("bag", bag)] {
            let (stmts, chunks) = (io.statements.into(), io.chunks_returned.into());
            table.push(vec![wname.into(), mode.into(), ms.into(), stmts, chunks]);
        }
    }
    report.table(
        "bags",
        "per-proxy vs bag resolution (500 arrays)",
        &[
            ("workload", "workload", Fmt::Plain),
            ("mode", "mode", Fmt::Plain),
            ("ms", "ms", Fmt::Ms),
            ("statements", "statements", Fmt::Plain),
            ("chunks", "chunks", Fmt::Plain),
        ],
        table,
    );
    for (wname, what, got, want) in counts {
        report.check(
            format!("{wname}: {what}"),
            got as f64,
            Bar::Equals(want as f64),
        );
    }
    println!(
        "\nReading: regular patterns collapse to a handful of range statements under \
         SPD; for irregular sequences SPD falls back to IN-lists and matches the \
         baseline, so enabling it is never a regression. Bags of proxies (Part C) \
         collapse hundreds of per-array statement rounds into a few clustered scans."
    );
    report.finish()
}
