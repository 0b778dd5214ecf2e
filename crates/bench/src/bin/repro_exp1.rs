//! Experiment 1 (thesis §6.3.2): comparing the retrieval strategies.
//!
//! For every access pattern of the mini-benchmark, resolve query views
//! under each retrieval strategy against the relational back-end with a
//! simulated client–server latency. Reports per-query time, statements
//! issued and overfetch factor — the quantities behind the thesis'
//! strategy-comparison figures.
//!
//! Checked per pattern, as counts (times are printed, not gated):
//! statements per query satisfy SPD-RANGE ≤ BUFFERED-IN ≤ SINGLE and
//! WHOLE-ARRAY issues one; SINGLE and BUFFERED-IN overfetch equally (the
//! same chunks), and WHOLE-ARRAY overfetches at least as much as any
//! other strategy.

use std::process::ExitCode;

use relstore::LatencyModel;
use ssdm_bench::runner::{rel_store, run_pattern};
use ssdm_bench::workload::{standard_patterns, QueryGenerator};
use ssdm_bench::{Args, Bar, Fmt, Report};
use ssdm_storage::{spd::SpdOptions, ArrayStore, RetrievalStrategy};

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_exp1", &[]));
    let (rows, cols) = (256, 256); // 512 KiB of f64
    let chunk_bytes = 2048; // 256 elements per chunk
    let queries = 20;
    let strategies = [
        RetrievalStrategy::Single,
        RetrievalStrategy::BufferedIn { buffer_size: 64 },
        RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        },
        RetrievalStrategy::WholeArray,
    ];
    println!("Experiment 1: retrieval strategies (thesis §6.3.2)");
    println!(
        "matrix {rows}x{cols} f64, chunk {chunk_bytes} B, {queries} queries per cell, \
         relational back-end with local-DBMS latency model"
    );

    let mut store = ArrayStore::new(rel_store(LatencyModel::local_dbms(), 4096));
    let matrix = QueryGenerator::matrix(rows, cols);
    let base = store.store_array(&matrix, chunk_bytes).expect("store");

    let (mut table, mut overfetch_rows) = (Vec::new(), Vec::new());
    let mut claims = Vec::new();
    for pattern in standard_patterns() {
        let mut row = vec![pattern.name().into()];
        let mut overfetch_row = row.clone();
        let cells: Vec<(f64, f64)> = strategies
            .iter()
            .map(|&strategy| {
                // Fresh generator per cell: identical query sequences.
                let mut gen = QueryGenerator::new(rows, cols, 4242);
                let m = run_pattern(&mut store, &base, &mut gen, pattern, strategy, queries);
                row.extend([m.per_query_ms().into(), m.statements_per_query().into()]);
                overfetch_row.push(m.overfetch().into());
                (m.statements_per_query(), m.overfetch())
            })
            .collect();
        table.push(row);
        overfetch_rows.push(overfetch_row);
        claims.push((pattern.name(), cells));
    }
    let col = |header: String, fmt: Fmt| (header.clone(), header, fmt);
    let mut time_cols = vec![col("pattern".into(), Fmt::Plain)];
    let mut overfetch_cols = time_cols.clone();
    for name in strategies.iter().map(|s| s.name()) {
        time_cols.push(col(format!("{name} ms/q"), Fmt::Ms));
        time_cols.push(col(format!("{name} stmts"), Fmt::Plain));
        overfetch_cols.push(col(format!("{name} overfetch"), Fmt::Fixed(2)));
    }
    let title = "per-query time (ms) and statements per query";
    report.table("per_query", title, &time_cols, table);
    let title = "overfetch factor (bytes fetched / bytes needed)";
    report.table("overfetch", title, &overfetch_cols, overfetch_rows);

    for (pattern, cells) in claims {
        let [(single, single_of), (buffered, buffered_of), (spd, spd_of), (whole, whole_of)] =
            cells[..]
        else {
            unreachable!("four strategies")
        };
        let stmts = format!("{pattern}: statements/query,");
        report.check(
            format!("{stmts} SPD-RANGE vs BUFFERED-IN"),
            spd,
            Bar::AtMost(buffered),
        );
        report.check(
            format!("{stmts} BUFFERED-IN vs SINGLE"),
            buffered,
            Bar::AtMost(single),
        );
        report.check(format!("{stmts} WHOLE-ARRAY"), whole, Bar::Equals(1.0));
        let overfetch = format!("{pattern}: overfetch,");
        let claim = format!("{overfetch} SINGLE vs BUFFERED-IN");
        report.check(claim, single_of, Bar::Equals(buffered_of));
        let most = single_of.max(buffered_of).max(spd_of);
        let claim = format!("{overfetch} WHOLE-ARRAY vs the largest other");
        report.check(claim, whole_of, Bar::AtLeast(most));
    }
    println!(
        "\nReading: SPD-RANGE should match BUFFERED-IN results with fewer statements on \
         regular patterns; WHOLE-ARRAY overfetch explodes on selective patterns."
    );
    report.finish()
}
