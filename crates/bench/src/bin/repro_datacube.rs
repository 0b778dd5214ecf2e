//! Experiment 6 (thesis §5.3.3): Data Cube consolidation.
//!
//! Sweeps the number of observations in a generated RDF Data Cube and
//! measures (a) triple counts before/after consolidation and (b) the
//! time of a representative cell lookup in each form — the "drastically
//! reducing the graph size ... speeding up pattern-matching queries"
//! claim.

use std::process::ExitCode;
use std::time::Instant;

use ssdm::datacube::{consolidate_datacube, generate_datacube};
use ssdm::{Backend, Ssdm};
use ssdm_bench::{Args, Fmt, Report};

/// The first cell of `query`'s answer, and how long it took (ms).
fn first_cell(db: &mut Ssdm, query: &str) -> (String, f64) {
    let t = Instant::now();
    let rows = db.query(query).expect("query").into_rows().expect("rows");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (rows[0][0].as_ref().expect("bound").to_string(), ms)
}

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_datacube", &[]));
    println!("Experiment 6: Data Cube consolidation (thesis §5.3.3)");
    let shapes: [&[usize]; 5] = [&[4, 4], &[8, 8], &[16, 16], &[16, 16, 4], &[32, 32, 4]];
    let mut table = Vec::new();
    for dims in shapes {
        let mut db = Ssdm::open(Backend::Memory);
        db.load_turtle(&generate_datacube(dims)).expect("load");
        let before = db.dataset.graph.len();

        // Observation-form lookup of a middle cell.
        let coord: Vec<usize> = dims.iter().map(|&d| d / 2).collect();
        let dim_conds: String = coord
            .iter()
            .enumerate()
            .map(|(d, c)| format!("ex:dim{} {} ; ", d + 1, c))
            .collect();
        let obs_q = format!(
            "PREFIX qb: <http://purl.org/linked-data/cube#>
             PREFIX ex: <http://example.org/cube/>
             SELECT ?m WHERE {{ ?o {dim_conds} qb:measure ?m }}"
        );
        let (obs_value, obs_ms) = first_cell(&mut db, &obs_q);

        let t = Instant::now();
        let consolidated = consolidate_datacube(&mut db.dataset.graph);
        let consolidate_ms = t.elapsed().as_secs_f64() * 1e3;
        assert_eq!(consolidated.datasets, 1, "cube must consolidate");
        let after = db.dataset.graph.len();

        let subs: Vec<String> = coord.iter().map(|c| c.to_string()).collect();
        let arr_q = format!(
            "PREFIX ex: <http://example.org/cube/>
             SELECT (?a[{}] AS ?m)
             WHERE {{ ex:ds <urn:ssdm:datacube:measureArray> ?a }}",
            subs.join(", ")
        );
        let (arr_value, arr_ms) = first_cell(&mut db, &arr_q);
        assert_eq!(obs_value, arr_value, "lookups must agree");

        let shape: Vec<String> = dims.iter().map(|d| d.to_string()).collect();
        table.push(vec![
            shape.join("x").into(),
            dims.iter().product::<usize>().into(),
            before.into(),
            after.into(),
            format!("{}x", before / after.max(1)).into(),
            consolidate_ms.into(),
            obs_ms.into(),
            arr_ms.into(),
        ]);
    }
    report.table(
        "cubes",
        "Data Cube: graph size and lookup time",
        &[
            ("cube", "cube", Fmt::Plain),
            ("cells", "cells", Fmt::Plain),
            ("triples before", "triples_before", Fmt::Plain),
            ("triples after", "triples_after", Fmt::Plain),
            ("reduction", "reduction", Fmt::Plain),
            ("consolidate ms", "consolidate_ms", Fmt::Ms),
            ("obs lookup ms", "obs_lookup_ms", Fmt::Ms),
            ("array lookup ms", "array_lookup_ms", Fmt::Ms),
        ],
        table,
    );
    println!(
        "\nReading: the observation form grows with cells x (dims+2) while the \
         consolidated form stays constant-size; cell lookups in the array form \
         are O(1) dereferences instead of multi-way joins."
    );
    report.finish()
}
