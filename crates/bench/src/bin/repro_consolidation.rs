//! Experiment 5 (thesis §2.3.5.1 / §5.3.2): collection consolidation.
//!
//! Quantifies the thesis' motivating claim: representing an n-element
//! numeric collection as an RDF linked list costs 2n+1 triples and
//! makes element access a chain of `rdf:first`/`rdf:rest` hops, while
//! the consolidated array costs one triple and answers `?a[i]` in
//! constant time. Sweeps the array size and reports graph sizes and
//! element-access query times for both representations.
//!
//! The triple counts are asserted, not just printed: 2n+1 for every
//! list, 1 for every array (consolidated on load, and by
//! `consolidate_collections` from the list form), and the thesis'
//! Fig. 4 case — a 2×2 matrix is 13 triples as lists and 1 once
//! consolidated. A miss prints what differed and exits 1.

use std::time::Instant;

use ssdm::{Backend, Ssdm};
use ssdm_bench::fmt_ms;
use ssdm_bench::runner::print_table;
use ssdm_rdf::turtle::ParseOptions;

fn main() {
    println!("Experiment 5: RDF-collection consolidation (thesis §5.3.2)");
    let sizes = [4usize, 16, 64, 256, 1024, 4096];

    let header: Vec<String> = [
        "elements",
        "list triples",
        "array triples",
        "reduction",
        "list access ms",
        "array access ms",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut table = Vec::new();
    let mut misses = Vec::new();
    let mut expect = |what: String, triples: usize, want: usize| {
        if triples != want {
            misses.push(format!("{what}: {triples} triples, expected {want}"));
        }
    };

    for &n in &sizes {
        let values: String = (0..n).map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
        let turtle = format!("@prefix ex: <http://e#> . ex:s ex:data ({values}) .");

        // Expanded (legacy RDF) representation.
        let mut expanded = ssdm_rdf::Graph::new();
        ssdm_rdf::turtle::parse_into_with(
            &mut expanded,
            &turtle,
            ParseOptions {
                consolidate_arrays: false,
            },
        )
        .expect("parse");
        let list_triples = expanded.len();

        // Element access in list form: a chain of rest-hops to index
        // n/2, expressed as a property path (the thesis' "(x+y) triple
        // patterns" observation, using p* here for generality).
        let mut list_db = Ssdm::open(Backend::Memory);
        ssdm_rdf::turtle::parse_into_with(
            &mut list_db.dataset.graph,
            &turtle,
            ParseOptions {
                consolidate_arrays: false,
            },
        )
        .expect("parse");
        let target = n / 2;
        let hops = "rdf:rest/".repeat(target);
        let list_q = format!(
            "PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
             PREFIX ex: <http://e#>
             SELECT ?v WHERE {{ ex:s ex:data ?l . ?l {hops}rdf:first ?v }}"
        );
        let t = Instant::now();
        let rows = list_db
            .query(&list_q)
            .expect("list query")
            .into_rows()
            .unwrap();
        let list_time = t.elapsed().as_secs_f64();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), target.to_string());

        // Consolidated representation.
        let mut arr_db = Ssdm::open(Backend::Memory);
        arr_db.load_turtle(&turtle).expect("parse");
        let array_triples = arr_db.dataset.graph.len();
        let arr_q = format!(
            "PREFIX ex: <http://e#> SELECT (?a[{}] AS ?v) WHERE {{ ex:s ex:data ?a }}",
            target + 1
        );
        let t = Instant::now();
        let rows = arr_db
            .query(&arr_q)
            .expect("array query")
            .into_rows()
            .unwrap();
        let array_time = t.elapsed().as_secs_f64();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), target.to_string());

        expect(format!("{n} elements as a list"), list_triples, 2 * n + 1);
        expect(format!("{n} elements as an array"), array_triples, 1);
        list_db.consolidate_collections();
        let consolidated = list_db.dataset.graph.len();
        expect(format!("{n} elements consolidated"), consolidated, 1);

        table.push(vec![
            n.to_string(),
            list_triples.to_string(),
            array_triples.to_string(),
            format!("{}x", list_triples / array_triples.max(1)),
            fmt_ms(list_time),
            fmt_ms(array_time),
        ]);
    }
    print_table(
        "graph size and element-access time: linked list vs consolidated array",
        &header,
        &table,
    );

    // Thesis Fig. 4: the 2x2 matrix ((1 2) (3 4)).
    let mut matrix = Ssdm::open(Backend::Memory);
    ssdm_rdf::turtle::parse_into_with(
        &mut matrix.dataset.graph,
        "<http://e#m> <http://e#value> ((1 2) (3 4)) .",
        ParseOptions {
            consolidate_arrays: false,
        },
    )
    .expect("parse");
    let lists = matrix.dataset.graph.len();
    expect("Fig. 4 matrix as lists".into(), lists, 13);
    matrix.consolidate_collections();
    let arrays = matrix.dataset.graph.len();
    expect("Fig. 4 matrix consolidated".into(), arrays, 1);
    println!("\nFig. 4 matrix: {lists} triples as lists, {arrays} consolidated");
    println!(
        "\nReading: the list form needs 2n+1 triples and O(n) path evaluation per \
         access; the array form is 1 triple and O(1) dereference — the gap the \
         thesis' Fig. 4 example (13 triples for a 2x2 matrix) illustrates."
    );
    if !misses.is_empty() {
        for miss in &misses {
            eprintln!("MISS {miss}");
        }
        std::process::exit(1);
    }
}
