//! Experiment 4 (thesis §6.4.5): BISTAB application query performance.
//!
//! Runs the four application queries of §6.4.4 over the synthetic
//! BISTAB dataset in every storage configuration: fully resident
//! in-memory graph, memory-chunk back-end, binary files, and the
//! relational back-end (with and without simulated client–server
//! latency). Reports per-query wall time and back-end I/O — the
//! thesis' table of query times per storage choice — and checks what
//! must not depend on the storage choice: every query returns the same
//! non-empty table in every configuration (reals to 1e-12 relative,
//! since fold order may differ by back-end), and Q1, a metadata query,
//! transfers no bytes.

use std::process::ExitCode;
use std::time::Instant;

use scisparql::Value;
use ssdm::bistab::{self, BistabConfig};
use ssdm::{Backend, Ssdm};
use ssdm_array::Num;
use ssdm_bench::{Args, Bar, Fmt, Report};
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

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_bistab", &[]));
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
    let externalized = |backend| {
        let mut db = Ssdm::open(backend);
        db.set_externalize_threshold(256, 4096);
        db
    };
    type MakeDb<'a> = Box<dyn Fn() -> Ssdm + 'a>;
    let configs: Vec<(&str, MakeDb)> = vec![
        ("resident", Box::new(|| Ssdm::open(Backend::Memory))),
        ("memory-chunks", Box::new(|| externalized(Backend::Memory))),
        (
            "file",
            Box::new(|| {
                let d = dir.join(format!("f{}", std::process::id()));
                std::fs::remove_dir_all(&d).ok();
                externalized(Backend::File(d))
            }),
        ),
        ("relational", Box::new(|| externalized(Backend::Relational))),
        (
            "relational+latency",
            Box::new(|| {
                let store =
                    ssdm_bench::runner::rel_store(relstore::LatencyModel::local_dbms(), 8192);
                let dataset = scisparql::Dataset::with_backend(Box::new(store));
                let mut db = Ssdm::from_dataset(dataset);
                db.set_externalize_threshold(256, 4096);
                db
            }),
        ),
    ];

    let queries = bistab::queries();
    let mut columns = vec![
        ("storage".to_string(), "storage".to_string(), Fmt::Plain),
        ("load ms".into(), "load ms".into(), Fmt::Ms),
    ];
    for (n, _) in &queries {
        columns.push((format!("{n} ms"), format!("{n} ms"), Fmt::Ms));
        columns.push((format!("{n} KiB"), format!("{n} KiB"), Fmt::Plain));
    }
    let mut table = Vec::new();
    let mut answers: Vec<Table> = Vec::new();
    let mut tallies = Vec::new();
    for (name, make) in configs {
        let mut db = make();
        let t = Instant::now();
        bistab::load_bistab(&mut db, &config).expect("load");
        let mut row = vec![name.into(), (t.elapsed().as_secs_f64() * 1e3).into()];
        let (mut empty, mut differing, mut q1_bytes) = (0, 0, 0);
        for (i, (qname, q)) in queries.iter().enumerate() {
            db.dataset.arrays.backend_mut().reset_io_stats();
            let t = Instant::now();
            let result = db.query(q).unwrap_or_else(|e| panic!("{qname}: {e}"));
            let elapsed_ms = t.elapsed().as_secs_f64() * 1e3;
            let io = db.dataset.arrays.backend().io_stats();
            row.extend([elapsed_ms.into(), (io.bytes_returned / 1024).into()]);
            let rows = result.into_rows().expect("a SELECT");
            empty += usize::from(rows.is_empty());
            match answers.get(i) {
                None => answers.push(rows),
                Some(first) => differing += usize::from(!same_table(first, &rows)),
            }
            if *qname == "Q1" {
                q1_bytes = io.bytes_returned;
            }
        }
        table.push(row);
        tallies.push((name, empty, differing, q1_bytes));
    }
    let title = "BISTAB query times per storage configuration";
    report.table("queries", title, &columns, table);
    for (name, empty, differing, q1_bytes) in tallies {
        report.check(
            format!("{name}: empty answers"),
            empty as f64,
            Bar::Equals(0.0),
        );
        let claim = format!("{name}: answers differing from the first configuration");
        report.check(claim, differing as f64, Bar::Equals(0.0));
        let claim = format!("{name}: bytes Q1 transferred");
        report.check(claim, q1_bytes as f64, Bar::Equals(0.0));
    }
    println!(
        "\nReading: Q1 (metadata only) is storage-independent; Q2/Q3 touch small parts \
         of each trajectory, so chunked back-ends transfer KiB where 'resident' holds \
         everything in RAM; Q4 (whole-array max) is answered from the chunk summaries \
         the zone map keeps, so no back-end transfers a trajectory for it (with the zone \
         map off it pays full transfer on every back-end, as in the thesis), and the \
         latency model shows the round-trip share."
    );
    std::fs::remove_dir_all(&dir).ok();
    report.finish()
}
