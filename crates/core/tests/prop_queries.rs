//! Property-based tests of the query pipeline: the optimized plan must
//! agree with a naive reference evaluation, and array semantics must
//! agree between the language level and the array library.

use proptest::prelude::*;
use scisparql::{Dataset, Value};
use ssdm_array::NumArray;

/// Strategy: a small random edge list over a fixed node set.
fn edges() -> impl Strategy<Value = Vec<(u8, u8)>> {
    prop::collection::vec((0u8..6, 0u8..6), 1..20)
}

fn graph_of(edges: &[(u8, u8)]) -> Dataset {
    let mut ds = Dataset::in_memory();
    let mut turtle = String::new();
    for (a, b) in edges {
        turtle.push_str(&format!("<http://n{a}> <http://edge> <http://n{b}> .\n"));
    }
    ds.load_turtle(&turtle).unwrap();
    ds
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Join results equal the nested-loop reference on random graphs.
    #[test]
    fn two_hop_join_matches_reference(edges in edges()) {
        let mut ds = graph_of(&edges);
        let rows = ds
            .query("SELECT ?a ?c WHERE { ?a <http://edge> ?b . ?b <http://edge> ?c }")
            .unwrap()
            .into_rows()
            .unwrap();
        let mut got: Vec<(String, String)> = rows
            .iter()
            .map(|r| {
                (
                    r[0].as_ref().unwrap().to_string(),
                    r[1].as_ref().unwrap().to_string(),
                )
            })
            .collect();
        got.sort();
        // Reference: explicit nested loops over the edge list (dedup'd,
        // since the graph is a set).
        let mut set: Vec<(u8, u8)> = edges.to_vec();
        set.sort();
        set.dedup();
        let mut want = Vec::new();
        for &(a, b) in &set {
            for &(b2, c) in &set {
                if b == b2 {
                    want.push((format!("<http://n{a}>"), format!("<http://n{c}>")));
                }
            }
        }
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// `edge+` computed by the path engine equals transitive closure
    /// computed by Floyd–Warshall on the adjacency matrix.
    #[test]
    fn plus_path_matches_closure(edges in edges()) {
        let mut ds = graph_of(&edges);
        let rows = ds
            .query("SELECT ?a ?b WHERE { ?a <http://edge>+ ?b }")
            .unwrap()
            .into_rows()
            .unwrap();
        let mut got: Vec<(String, String)> = rows
            .iter()
            .map(|r| {
                (
                    r[0].as_ref().unwrap().to_string(),
                    r[1].as_ref().unwrap().to_string(),
                )
            })
            .collect();
        got.sort();
        got.dedup();
        let mut reach = [[false; 6]; 6];
        for &(a, b) in &edges {
            reach[a as usize][b as usize] = true;
        }
        for k in 0..6 {
            for i in 0..6 {
                for j in 0..6 {
                    if reach[i][k] && reach[k][j] {
                        reach[i][j] = true;
                    }
                }
            }
        }
        let mut want = Vec::new();
        for (i, row) in reach.iter().enumerate() {
            for (j, &r) in row.iter().enumerate() {
                if r {
                    want.push((format!("<http://n{i}>"), format!("<http://n{j}>")));
                }
            }
        }
        want.sort();
        prop_assert_eq!(got, want);
    }

    /// Language-level dereference agrees with the array library for
    /// arbitrary vectors and in-bounds 1-based subscripts.
    #[test]
    fn deref_matches_library(data in prop::collection::vec(-100i64..100, 1..30), seed in 1u64..1000) {
        let n = data.len();
        let i = (seed as usize % n) + 1;
        let values: String = data.iter().map(|v| v.to_string()).collect::<Vec<_>>().join(" ");
        let mut ds = Dataset::in_memory();
        ds.load_turtle(&format!("<http://s> <http://v> ({values}) .")).unwrap();
        let rows = ds
            .query(&format!("SELECT (?a[{i}] AS ?x) WHERE {{ <http://s> <http://v> ?a }}"))
            .unwrap()
            .into_rows()
            .unwrap();
        let got = rows[0][0].as_ref().unwrap().to_string();
        let lib = NumArray::from_i64(data.clone()).get1(&[i as i64]).unwrap();
        prop_assert_eq!(got, lib.to_string());
    }

    /// SUM/AVG/MIN/MAX over query solutions agree with direct folds.
    #[test]
    fn aggregates_match_reference(values in prop::collection::vec(-1000i64..1000, 1..25)) {
        let mut ds = Dataset::in_memory();
        let mut turtle = String::new();
        for (i, v) in values.iter().enumerate() {
            turtle.push_str(&format!("<http://s{i}> <http://v> {v} .\n"));
        }
        ds.load_turtle(&turtle).unwrap();
        let rows = ds
            .query(
                "SELECT (SUM(?v) AS ?s) (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) (COUNT(?v) AS ?n)
                 WHERE { ?x <http://v> ?v }",
            )
            .unwrap()
            .into_rows()
            .unwrap();
        let cell = |k: usize| rows[0][k].as_ref().unwrap().to_string();
        prop_assert_eq!(cell(0), values.iter().sum::<i64>().to_string());
        prop_assert_eq!(cell(1), values.iter().min().unwrap().to_string());
        prop_assert_eq!(cell(2), values.iter().max().unwrap().to_string());
        prop_assert_eq!(cell(3), values.len().to_string());
    }

    /// A variable bound by VALUES or BIND — to a term the dictionary may
    /// never have seen — joins, filters, groups and projects exactly as
    /// when a scan binds it to the same term.
    #[test]
    fn values_and_bind_bindings_behave_like_scan_bindings(
        stored in prop::collection::vec(0i64..8, 1..12),
        probe in 0i64..12,
    ) {
        let mut turtle = String::new();
        for (i, v) in stored.iter().enumerate() {
            turtle.push_str(&format!("<http://s{i}> <http://v> {v} .\n"));
        }
        // `scanned` also holds the probe as a node a scan can bind;
        // `unseen` may not have it in its dictionary at all.
        let mut unseen = Dataset::in_memory();
        unseen.load_turtle(&turtle).unwrap();
        let mut scanned = Dataset::in_memory();
        scanned.load_turtle(&format!("{turtle}<http://w> <http://holds> {probe} .")).unwrap();
        let shapes = [
            "SELECT ?v ?s WHERE { BINDING OPTIONAL { ?s <http://v> ?v } } ORDER BY ?s",
            "SELECT ?v (COUNT(?s) AS ?n) (MAX(?u) AS ?top)
             WHERE { BINDING ?s <http://v> ?u . FILTER (?u <= ?v) } GROUP BY ?v",
            "SELECT DISTINCT ?v (?v + 1 AS ?next) WHERE { BINDING ?s <http://v> ?u }",
        ];
        for shape in shapes {
            let answers = |ds: &mut Dataset, binding: &str| {
                let rows = ds.query(&shape.replace("BINDING", binding)).unwrap().into_rows();
                format!("{:?}", rows.unwrap())
            };
            let by_scan = answers(&mut scanned, "<http://w> <http://holds> ?v .");
            let by_values = answers(&mut unseen, &format!("VALUES ?v {{ {probe} }}"));
            let by_bind = answers(&mut unseen, &format!("BIND ({probe} AS ?v)"));
            prop_assert_eq!(&by_values, &by_scan, "VALUES, {}", shape);
            prop_assert_eq!(&by_bind, &by_scan, "BIND, {}", shape);
        }
    }

    /// LIMIT/OFFSET slice ordered output consistently.
    #[test]
    fn limit_offset_window(count in 1usize..20, limit in 0usize..25, offset in 0usize..25) {
        let mut ds = Dataset::in_memory();
        let mut turtle = String::new();
        for i in 0..count {
            turtle.push_str(&format!("<http://s{i}> <http://v> {i} .\n"));
        }
        ds.load_turtle(&turtle).unwrap();
        let rows = ds
            .query(&format!(
                "SELECT ?v WHERE {{ ?x <http://v> ?v }} ORDER BY ?v LIMIT {limit} OFFSET {offset}"
            ))
            .unwrap()
            .into_rows()
            .unwrap();
        let got: Vec<i64> = rows
            .iter()
            .map(|r| match r[0].as_ref().unwrap() {
                Value::Term(ssdm_rdf::Term::Number(n)) => n.as_i64(),
                other => panic!("{other}"),
            })
            .collect();
        let want: Vec<i64> = (0..count as i64).skip(offset).take(limit).collect();
        prop_assert_eq!(got, want);
    }

    /// Turtle round trip: write the loaded graph as N-Triples and reload
    /// it as Turtle — the query answers stay identical.
    #[test]
    fn turtle_roundtrip_preserves_answers(edges in edges()) {
        let mut ds = graph_of(&edges);
        let q = "SELECT ?a ?b WHERE { ?a <http://edge> ?b } ORDER BY ?a ?b";
        let before = ds.query(q).unwrap().into_rows().unwrap().len();
        let text = ssdm_rdf::ntriples::serialize(&ds.graph);
        let mut ds2 = Dataset::in_memory();
        ds2.load_turtle(&text).unwrap();
        let after = ds2.query(q).unwrap().into_rows().unwrap().len();
        prop_assert_eq!(before, after);
    }
}
