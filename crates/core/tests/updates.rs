//! SPARQL Update tests: ground and templated forms, including array
//! values and externalization on insert.

use scisparql::{Dataset, QueryResult};

fn count(ds: &mut Dataset, q: &str) -> usize {
    ds.query(q).unwrap().into_rows().unwrap().len()
}

#[test]
fn insert_where_materializes_template() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"@prefix ex: <http://e#> .
           ex:a ex:knows ex:b . ex:b ex:knows ex:c ."#,
    )
    .unwrap();
    let QueryResult::Updated { inserted, .. } = ds
        .query(
            r#"PREFIX ex: <http://e#>
               INSERT { ?x ex:fof ?z } WHERE { ?x ex:knows ?y . ?y ex:knows ?z }"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(inserted, 1);
    assert_eq!(
        count(
            &mut ds,
            "PREFIX ex: <http://e#> SELECT ?x WHERE { ?x ex:fof ?z }"
        ),
        1
    );
}

#[test]
fn delete_where_short_form() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"@prefix ex: <http://e#> .
           ex:a ex:v 1 . ex:b ex:v 2 . ex:c ex:w 3 ."#,
    )
    .unwrap();
    let QueryResult::Updated { deleted, .. } = ds
        .query("PREFIX ex: <http://e#> DELETE WHERE { ?s ex:v ?o }")
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(deleted, 2);
    assert_eq!(ds.graph.len(), 1);
}

#[test]
fn delete_insert_rename_property() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"@prefix ex: <http://e#> .
           ex:a ex:old 1 . ex:b ex:old 2 ."#,
    )
    .unwrap();
    let QueryResult::Updated { inserted, deleted } = ds
        .query(
            r#"PREFIX ex: <http://e#>
               DELETE { ?s ex:old ?v } INSERT { ?s ex:new ?v }
               WHERE { ?s ex:old ?v }"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!((inserted, deleted), (2, 2));
    assert_eq!(
        count(
            &mut ds,
            "PREFIX ex: <http://e#> SELECT ?s WHERE { ?s ex:new ?v }"
        ),
        2
    );
    assert_eq!(
        count(
            &mut ds,
            "PREFIX ex: <http://e#> SELECT ?s WHERE { ?s ex:old ?v }"
        ),
        0
    );
}

#[test]
fn modify_with_filter_and_computed_condition() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"@prefix ex: <http://e#> .
           ex:a ex:score (1 2 3) . ex:b ex:score (90 95 99) ."#,
    )
    .unwrap();
    ds.query(
        r#"PREFIX ex: <http://e#>
           INSERT { ?s ex:grade "high" } WHERE {
             ?s ex:score ?a FILTER (array_avg(?a) > 50)
           }"#,
    )
    .unwrap();
    let rows = ds
        .query(r#"PREFIX ex: <http://e#> SELECT ?s WHERE { ?s ex:grade "high" }"#)
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "<http://e#b>");
}

#[test]
fn insert_where_copies_array_values() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(r#"@prefix ex: <http://e#> . ex:a ex:raw (1 2 3 4) ."#)
        .unwrap();
    ds.query(
        r#"PREFIX ex: <http://e#>
           INSERT { ex:summary ex:data ?v } WHERE { ex:a ex:raw ?v }"#,
    )
    .unwrap();
    let rows = ds
        .query(
            r#"PREFIX ex: <http://e#>
               SELECT (array_sum(?v) AS ?s) WHERE { ex:summary ex:data ?v }"#,
        )
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "10");
}

#[test]
fn insert_data_externalizes_large_arrays() {
    let mut ds = Dataset::in_memory();
    ds.externalize_threshold = 4;
    ds.chunk_bytes = 16;
    ds.query("PREFIX ex: <http://e#> INSERT DATA { ex:s ex:big (1 2 3 4 5 6 7 8) . }")
        .unwrap();
    // The stored term must be an external reference, not a resident array.
    let p = ds
        .graph
        .dictionary()
        .lookup(&ssdm_rdf::Term::uri("http://e#big"))
        .unwrap();
    let t = ds.graph.match_pattern(None, Some(p), None).next().unwrap();
    assert!(matches!(ds.graph.term(t.o), ssdm_rdf::Term::ArrayRef(_)));
    // And still answers queries.
    let rows = ds
        .query("PREFIX ex: <http://e#> SELECT (?v[8] AS ?x) WHERE { ex:s ex:big ?v }")
        .unwrap()
        .into_rows()
        .unwrap();
    assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "8");
}

#[test]
fn delete_where_no_match_is_noop() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://s> <http://p> 1 .").unwrap();
    let QueryResult::Updated { deleted, .. } =
        ds.query("DELETE WHERE { ?s <http://q> ?o }").unwrap()
    else {
        panic!()
    };
    assert_eq!(deleted, 0);
    assert_eq!(ds.graph.len(), 1);
}

#[test]
fn delete_where_rejects_filters_in_template() {
    let mut ds = Dataset::in_memory();
    assert!(ds
        .query("DELETE WHERE { ?s <http://p> ?o FILTER (?o > 1) }")
        .is_err());
}

/// A small update into a loaded graph puts its index entries in one by
/// one: no run is gathered, sorted or merged for four triples.
#[test]
fn a_four_triple_insert_data_goes_in_entry_by_entry() {
    let mut ds = Dataset::in_memory();
    let mut doc = String::from("@prefix ex: <http://e#> .\n");
    for i in 0..50 {
        doc.push_str(&format!("ex:s{i} ex:v {i} ; ex:w {}.5 .\n", i % 5));
    }
    assert_eq!(ds.load_turtle(&doc).unwrap(), 100);
    let loaded = ds.graph.bulk_merges();
    assert!(loaded > 0, "the load merged its runs");
    let QueryResult::Updated { inserted, .. } = ds
        .query(
            r#"PREFIX ex: <http://e#>
               INSERT DATA { ex:n ex:v 77 ; ex:w 2.5 ; ex:name "n" . ex:s1 ex:v 99 }"#,
        )
        .unwrap()
    else {
        panic!()
    };
    assert_eq!(inserted, 4);
    assert_eq!(ds.graph.bulk_merges(), loaded, "no run was merged");
    assert_eq!(
        count(
            &mut ds,
            "PREFIX ex: <http://e#> SELECT ?s WHERE { ?s ex:v 77 }"
        ),
        1
    );
}
