//! Experiment 3 (thesis §6.3.4): varying the chunk size.
//!
//! The chunk size is the single physical tuning parameter of SSDM's
//! array storage (§2.5). Small chunks minimize overfetch on point
//! access but multiply statements and per-chunk overheads; large chunks
//! favour sequential scans but drag whole neighbourhoods across the
//! wire for selective access. The degenerate largest setting stores
//! the array as one chunk — the "whole-array BLOB" baseline.
//!
//! Checked, as byte counts (times are printed, not gated): ELEMENT's
//! bytes per query never fall as chunks grow, and with the array in
//! one chunk every pattern fetches the whole stored array (WHOLE's
//! bytes). Stored means after the chunk codec: under the default `auto`
//! codec the 512 KiB matrix is stored in fewer bytes.

use std::process::ExitCode;

use relstore::LatencyModel;
use ssdm_bench::runner::{rel_store, run_pattern};
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_bench::{Args, Bar, Fmt, Report};
use ssdm_storage::{spd::SpdOptions, ArrayStore, RetrievalStrategy};

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_exp3", &[]));
    let (rows, cols) = (256, 256); // 512 KiB
    let queries = 10;
    let chunk_sizes = [64usize, 256, 1024, 4096, 16384, 65536, 262144, 1 << 20];
    println!("Experiment 3: varying the chunk size (thesis §6.3.4)");
    println!(
        "matrix {rows}x{cols} f64 (512 KiB), {queries} queries per cell, \
         SPD-RANGE strategy, local-DBMS latency; last column = whole-array chunk"
    );
    let patterns = [
        AccessPattern::SingleElement,
        AccessPattern::Row,
        AccessPattern::Column,
        AccessPattern::Whole,
    ];
    let strategy = RetrievalStrategy::SpdRange {
        options: SpdOptions::default(),
    };

    let col = |header: String, fmt: Fmt| (header.clone(), header, fmt);
    let mut columns = vec![col("chunk B".into(), Fmt::Plain)];
    for p in &patterns {
        columns.push(col(format!("{} ms/q", p.name()), Fmt::Ms));
        columns.push(col(format!("{} KiB/q", p.name()), Fmt::Fixed(1)));
    }
    let mut table = Vec::new();
    let mut kib = Vec::new(); // per chunk size, KiB per query of each pattern
    for chunk_bytes in chunk_sizes {
        // A fresh store per chunk size (the layout changes physically).
        let mut store = ArrayStore::new(rel_store(LatencyModel::local_dbms(), 8192));
        let matrix = QueryGenerator::matrix(rows, cols);
        let base = store.store_array(&matrix, chunk_bytes).expect("store");
        let mut row = vec![chunk_bytes.into()];
        let mut row_kib = Vec::new();
        for &pattern in &patterns {
            let mut gen = QueryGenerator::new(rows, cols, 7);
            let m = run_pattern(&mut store, &base, &mut gen, pattern, strategy, queries);
            let kib_per_query = m.bytes_fetched as f64 / 1024.0 / queries as f64;
            row.extend([m.per_query_ms().into(), kib_per_query.into()]);
            row_kib.push(kib_per_query);
        }
        table.push(row);
        kib.push(row_kib);
    }
    let title = "per-query time and data volume vs chunk size";
    report.table("per_query", title, &columns, table);
    let drops = kib.windows(2).map(|w| w[0][0] - w[1][0]);
    let claim = "ELEMENT: largest drop in KiB/query as chunks grow";
    report.check(claim, drops.fold(f64::MIN, f64::max), Bar::AtMost(0.0));
    let one_chunk = kib.last().expect("a chunk size");
    let (whole, partial) = one_chunk.split_last().expect("WHOLE is last");
    for (p, &got) in patterns.iter().zip(partial) {
        let claim = format!("{}: KiB/query with the array in one chunk", p.name());
        report.check(claim, got, Bar::Equals(*whole));
    }
    println!(
        "\nReading: ELEMENT cost grows with chunk size (overfetch); WHOLE cost falls \
         (fewer chunks, fewer statements); the crossover region around a few KiB is \
         the thesis' auto-tuning sweet spot."
    );
    report.finish()
}
