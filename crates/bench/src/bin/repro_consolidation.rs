//! Experiment 5 (thesis §2.3.5.1 / §5.3.2): collection consolidation.
//!
//! Quantifies the thesis' motivating claim: representing an n-element
//! numeric collection as an RDF linked list costs 2n+1 triples and
//! makes element access a chain of `rdf:first`/`rdf:rest` hops, while
//! the consolidated array costs one triple and answers `?a[i]` in
//! constant time. Sweeps the array size and reports graph sizes and
//! element-access query times for both representations.
//!
//! The triple counts are checked, not just printed: 2n+1 for every
//! list, 1 for every array (consolidated on load, and by
//! `consolidate_collections` from the list form), and the thesis'
//! Fig. 4 case — a 2×2 matrix is 13 triples as lists and 1 once
//! consolidated.

use std::process::ExitCode;
use std::time::Instant;

use ssdm::{Backend, Ssdm};
use ssdm_bench::{Args, Bar, Fmt, Report};
use ssdm_rdf::turtle::ParseOptions;

/// An engine holding `turtle` with its collections left as RDF lists.
fn as_lists(turtle: &str) -> Ssdm {
    let mut db = Ssdm::open(Backend::Memory);
    let options = ParseOptions {
        consolidate_arrays: false,
    };
    ssdm_rdf::turtle::parse_into_with(&mut db.dataset.graph, turtle, options).expect("parse");
    db
}

/// The first cell of `query`'s one answer, and how long it took (ms).
fn first_cell(db: &mut Ssdm, query: &str) -> (String, f64) {
    let t = Instant::now();
    let rows = db.query(query).expect("query").into_rows().expect("rows");
    let ms = t.elapsed().as_secs_f64() * 1e3;
    (rows[0][0].as_ref().expect("bound").to_string(), ms)
}

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_consolidation", &[]));
    println!("Experiment 5: RDF-collection consolidation (thesis §5.3.2)");
    let sizes = [4usize, 16, 64, 256, 1024, 4096];
    let mut table = Vec::new();
    let mut counts = Vec::new();
    for &n in &sizes {
        let values: String = (0..n).map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
        let turtle = format!("@prefix ex: <http://e#> . ex:s ex:data ({values}) .");

        // Element access in list form: a chain of rest-hops to index
        // n/2, expressed as a property path (the thesis' "(x+y) triple
        // patterns" observation).
        let mut list_db = as_lists(&turtle);
        let list_triples = list_db.dataset.graph.len();
        let target = n / 2;
        let hops = "rdf:rest/".repeat(target);
        let list_q = format!(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
             PREFIX ex: <http://e#>
             SELECT ?v WHERE {{ ex:s ex:data ?l . ?l {hops}rdf:first ?v }}"
        );
        let (value, list_ms) = first_cell(&mut list_db, &list_q);
        assert_eq!(value, target.to_string());

        // Consolidated representation.
        let mut arr_db = Ssdm::open(Backend::Memory);
        arr_db.load_turtle(&turtle).expect("parse");
        let array_triples = arr_db.dataset.graph.len();
        let arr_q = format!(
            "PREFIX ex: <http://e#> SELECT (?a[{}] AS ?v) WHERE {{ ex:s ex:data ?a }}",
            target + 1
        );
        let (value, array_ms) = first_cell(&mut arr_db, &arr_q);
        assert_eq!(value, target.to_string());

        list_db.consolidate_collections();
        counts.extend([
            (format!("{n} elements as a list"), list_triples, 2 * n + 1),
            (format!("{n} elements as an array"), array_triples, 1),
            (
                format!("{n} elements consolidated"),
                list_db.dataset.graph.len(),
                1,
            ),
        ]);
        table.push(vec![
            n.into(),
            list_triples.into(),
            array_triples.into(),
            format!("{}x", list_triples / array_triples.max(1)).into(),
            list_ms.into(),
            array_ms.into(),
        ]);
    }
    report.table(
        "sizes",
        "graph size and element-access time: linked list vs consolidated array",
        &[
            ("elements", "elements", Fmt::Plain),
            ("list triples", "list_triples", Fmt::Plain),
            ("array triples", "array_triples", Fmt::Plain),
            ("reduction", "reduction", Fmt::Plain),
            ("list access ms", "list_access_ms", Fmt::Ms),
            ("array access ms", "array_access_ms", Fmt::Ms),
        ],
        table,
    );

    // Thesis Fig. 4: the 2x2 matrix ((1 2) (3 4)).
    let mut matrix = as_lists("<http://e#m> <http://e#value> ((1 2) (3 4)) .");
    let lists = matrix.dataset.graph.len();
    matrix.consolidate_collections();
    let arrays = matrix.dataset.graph.len();
    println!("\nFig. 4 matrix: {lists} triples as lists, {arrays} consolidated");
    counts.extend([
        ("Fig. 4 matrix as lists".into(), lists, 13),
        ("Fig. 4 matrix consolidated".into(), arrays, 1),
    ]);
    for (what, triples, want) in counts {
        report.check(
            format!("{what}: triples"),
            triples as f64,
            Bar::Equals(want as f64),
        );
    }
    println!(
        "\nReading: the list form needs 2n+1 triples and O(n) path evaluation per \
         access; the array form is 1 triple and O(1) dereference — the gap the \
         thesis' Fig. 4 example (13 triples for a 2x2 matrix) illustrates."
    );
    report.finish()
}
