//! Experiment 4 (thesis §6.4.5): BISTAB application query performance.
//!
//! Runs the four application queries of §6.4.4 over the synthetic
//! BISTAB dataset in every storage configuration: fully resident
//! in-memory graph, memory-chunk back-end, binary files, and the
//! relational back-end (with and without simulated client–server
//! latency). Reports per-query wall time and back-end I/O — the
//! thesis' table of query times per storage choice — and asserts what
//! must not depend on the storage choice: every query returns the same
//! table in every configuration (reals to 1e-12 relative, since fold
//! order may differ by back-end), and Q1, a metadata query, transfers
//! no bytes. Exits 1 on a miss.

use std::time::Instant;

use scisparql::Value;
use ssdm::bistab::{self, BistabConfig};
use ssdm::{Backend, Ssdm};
use ssdm_array::Num;
use ssdm_bench::fmt_ms;
use ssdm_bench::runner::print_table;
use ssdm_storage::ChunkStore;

type Table = Vec<Vec<Option<Value>>>;

/// Whether two result tables are the same up to row order, comparing
/// reals to 1e-12 relative.
fn same_table(a: &Table, b: &Table) -> bool {
    let sorted = |t: &Table| {
        let mut t = t.clone();
        t.sort_by_key(|row| format!("{:?}", row.first()));
        t
    };
    let cell_eq = |x: &Option<Value>, y: &Option<Value>| match (
        x.as_ref().and_then(Value::as_num),
        y.as_ref().and_then(Value::as_num),
    ) {
        (Some(Num::Real(x)), Some(Num::Real(y))) => {
            x == y || (x - y).abs() <= 1e-12 * x.abs().max(y.abs())
        }
        _ => x.as_ref().map(Value::to_string) == y.as_ref().map(Value::to_string),
    };
    let (a, b) = (sorted(a), sorted(b));
    a.len() == b.len()
        && a.iter()
            .zip(&b)
            .all(|(r, s)| r.len() == s.len() && r.iter().zip(s).all(|(x, y)| cell_eq(x, y)))
}

fn main() {
    let config = BistabConfig {
        tasks: 500,
        realizations: 4,
        trajectory_len: 2048, // 16 KiB per trajectory
        seed: 2016,
    };
    println!(
        "Experiment 4: BISTAB application queries (thesis §6.4) — {} tasks × {} steps",
        config.tasks, config.trajectory_len
    );

    let dir = std::env::temp_dir().join(format!("ssdm-bistab-{}", std::process::id()));
    type MakeDb = Box<dyn Fn() -> Ssdm>;
    let configs: Vec<(&str, MakeDb)> = vec![
        ("resident", Box::new(|| Ssdm::open(Backend::Memory))),
        (
            "memory-chunks",
            Box::new(|| {
                let mut db = Ssdm::open(Backend::Memory);
                db.set_externalize_threshold(256, 4096);
                db
            }),
        ),
        ("file", {
            let dir = dir.clone();
            Box::new(move || {
                let d = dir.join(format!("f{}", std::process::id()));
                std::fs::remove_dir_all(&d).ok();
                let mut db = Ssdm::open(Backend::File(d));
                db.set_externalize_threshold(256, 4096);
                db
            })
        }),
        (
            "relational",
            Box::new(|| {
                let mut db = Ssdm::open(Backend::Relational);
                db.set_externalize_threshold(256, 4096);
                db
            }),
        ),
        (
            "relational+latency",
            Box::new(|| {
                let db_inner = relstore::Db::open_memory(relstore::DbOptions {
                    pool_pages: 8192,
                    latency: relstore::LatencyModel::local_dbms(),
                })
                .expect("db");
                let mut db = Ssdm::from_dataset(scisparql::Dataset::with_backend(Box::new(
                    ssdm_storage::RelChunkStore::new(db_inner),
                )));
                db.set_externalize_threshold(256, 4096);
                db
            }),
        ),
    ];

    let queries = bistab::queries();
    let header: Vec<String> = std::iter::once("storage".to_string())
        .chain(std::iter::once("load ms".to_string()))
        .chain(
            queries
                .iter()
                .flat_map(|(n, _)| [format!("{n} ms"), format!("{n} KiB")]),
        )
        .collect();
    let mut table = Vec::new();
    let mut answers: Vec<Table> = Vec::new();
    let mut misses = Vec::new();
    for (name, make) in configs {
        let mut db = make();
        let t = Instant::now();
        bistab::load_bistab(&mut db, &config).expect("load");
        let load = t.elapsed().as_secs_f64();
        let mut row = vec![name.to_string(), fmt_ms(load)];
        for (i, (qname, q)) in queries.iter().enumerate() {
            db.dataset.arrays.backend_mut().reset_io_stats();
            let t = Instant::now();
            let result = db.query(q).unwrap_or_else(|e| panic!("{qname}: {e}"));
            let elapsed = t.elapsed().as_secs_f64();
            let io = db.dataset.arrays.backend().io_stats();
            row.push(fmt_ms(elapsed));
            row.push(format!("{}", io.bytes_returned / 1024));
            let rows = result.into_rows().expect("a SELECT");
            if rows.is_empty() {
                misses.push(format!("{name}: {qname} returned no rows"));
            }
            match answers.get(i) {
                None => answers.push(rows),
                Some(first) if !same_table(first, &rows) => {
                    misses.push(format!(
                        "{name}: {qname} differs from the first configuration"
                    ));
                }
                Some(_) => {}
            }
            if *qname == "Q1" && io.bytes_returned != 0 {
                misses.push(format!(
                    "{name}: Q1 transferred {} bytes",
                    io.bytes_returned
                ));
            }
        }
        table.push(row);
    }
    print_table(
        "BISTAB query times per storage configuration",
        &header,
        &table,
    );
    println!(
        "\nReading: Q1 (metadata only) is storage-independent; Q2/Q3 touch small parts \
         of each trajectory, so chunked back-ends transfer KiB where 'resident' holds \
         everything in RAM; Q4 (whole-array max) pays full transfer on every back-end, \
         and the latency model shows the round-trip share."
    );
    std::fs::remove_dir_all(&dir).ok();
    if !misses.is_empty() {
        for m in &misses {
            eprintln!("{m}");
        }
        std::process::exit(1);
    }
}
