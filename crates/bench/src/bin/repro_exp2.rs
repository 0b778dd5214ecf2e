//! Experiment 2 (thesis §6.3.3): varying the buffer size.
//!
//! The BUFFERED-IN strategy batches chunk requests into `IN`-list
//! statements of at most `buffer_size` ids (§6.2.4). Sweeping the
//! buffer size shows the trade-off the thesis measures: tiny buffers
//! degenerate to the SINGLE strategy (one round trip per chunk), large
//! buffers amortize the per-statement cost until the per-row cost
//! dominates and the curve flattens.
//!
//! Checked per pattern, as counts (times are printed, not gated):
//! statements per query never rise as the buffer grows, and buffer 1
//! issues one statement per chunk.

use std::process::ExitCode;

use relstore::LatencyModel;
use ssdm_bench::runner::{rel_store, run_pattern};
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_bench::{Args, Bar, Fmt, Report};
use ssdm_storage::{ArrayStore, RetrievalStrategy};

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_exp2", &[]));
    let (rows, cols) = (256, 256);
    let chunk_bytes = 1024; // 128 elements: a column touches all 256 rows' chunks
    let queries = 10;
    let buffer_sizes = [1usize, 2, 4, 8, 16, 32, 64, 128, 256, 512];
    println!("Experiment 2: varying the proxy-resolution buffer size (thesis §6.3.3)");
    println!(
        "matrix {rows}x{cols}, chunk {chunk_bytes} B, {queries} queries per cell, \
         BUFFERED-IN strategy, local-DBMS latency"
    );
    let patterns = [
        AccessPattern::Column,
        AccessPattern::StridedRows { stride: 4 },
        AccessPattern::Whole,
    ];

    let mut store = ArrayStore::new(rel_store(LatencyModel::local_dbms(), 8192));
    let matrix = QueryGenerator::matrix(rows, cols);
    let base = store.store_array(&matrix, chunk_bytes).expect("store");

    let col = |header: String, fmt: Fmt| (header.clone(), header, fmt);
    let mut columns = vec![col("buffer".into(), Fmt::Plain)];
    for p in &patterns {
        columns.push(col(format!("{} ms/q", p.name()), Fmt::Ms));
        columns.push(col(format!("{} stmts/q", p.name()), Fmt::Fixed(1)));
    }
    let mut table = Vec::new();
    // Per pattern: statements per query along the sweep, and statements
    // per chunk at buffer 1.
    let mut statements = vec![Vec::new(); patterns.len()];
    let mut per_chunk_at_1 = vec![0.0; patterns.len()];
    for buffer_size in buffer_sizes {
        let mut row = vec![buffer_size.into()];
        for (i, &pattern) in patterns.iter().enumerate() {
            let mut gen = QueryGenerator::new(rows, cols, 99);
            let strategy = RetrievalStrategy::BufferedIn { buffer_size };
            let m = run_pattern(&mut store, &base, &mut gen, pattern, strategy, queries);
            row.extend([m.per_query_ms().into(), m.statements_per_query().into()]);
            statements[i].push(m.statements_per_query());
            if buffer_size == 1 {
                per_chunk_at_1[i] = m.statements as f64 / m.chunks_fetched as f64;
            }
        }
        table.push(row);
    }
    report.table(
        "per_query",
        "per-query time vs buffer size",
        &columns,
        table,
    );
    for (i, p) in patterns.iter().enumerate() {
        let rises = statements[i].windows(2).map(|w| w[1] - w[0]);
        let claim = format!(
            "{}: largest rise in statements/query as the buffer grows",
            p.name()
        );
        report.check(claim, rises.fold(f64::MIN, f64::max), Bar::AtMost(0.0));
        let claim = format!("{}: statements per chunk at buffer 1", p.name());
        report.check(claim, per_chunk_at_1[i], Bar::Equals(1.0));
    }
    println!(
        "\nReading: time falls steeply while statements/query shrink, then flattens \
         once per-row transfer dominates — the knee is the thesis' recommended buffer."
    );
    report.finish()
}
