//! Named-graph queries (thesis §3.3.4): GRAPH patterns, FROM and
//! FROM NAMED dataset clauses.

use scisparql::Dataset;

fn dataset() -> Dataset {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"@prefix ex: <http://e#> .
           ex:alice ex:name "Alice" ."#,
    )
    .unwrap();
    ds.load_turtle_named(
        "http://graphs/math",
        r#"@prefix ex: <http://e#> .
           ex:alice ex:score (90 85 99) .
           ex:bob ex:score (60 70 65) ."#,
    )
    .unwrap();
    ds.load_turtle_named(
        "http://graphs/bio",
        r#"@prefix ex: <http://e#> .
           ex:alice ex:score (40 50 45) ."#,
    )
    .unwrap();
    ds
}

fn rows(ds: &mut Dataset, q: &str) -> Vec<Vec<Option<scisparql::Value>>> {
    ds.query(q).unwrap().into_rows().unwrap()
}

#[test]
fn graph_with_fixed_name() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT (array_avg(?s) AS ?m) WHERE {
             GRAPH <http://graphs/bio> { ex:alice ex:score ?s }
           }"#,
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "45.0");
}

#[test]
fn graph_variable_iterates_and_binds() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?g (array_max(?s) AS ?best) WHERE {
             GRAPH ?g { ex:alice ex:score ?s }
           } ORDER BY ?g"#,
    );
    assert_eq!(r.len(), 2);
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "<http://graphs/bio>");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "50");
    assert_eq!(
        r[1][0].as_ref().unwrap().to_string(),
        "<http://graphs/math>"
    );
    assert_eq!(r[1][1].as_ref().unwrap().to_string(), "99");
}

#[test]
fn default_graph_not_visible_inside_graph_pattern() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?n WHERE { GRAPH ?g { ex:alice ex:name ?n } }"#,
    );
    assert!(r.is_empty(), "name lives only in the default graph");
}

#[test]
fn combine_default_and_named() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?n (array_avg(?s) AS ?m) WHERE {
             ?p ex:name ?n .
             GRAPH <http://graphs/math> { ?p ex:score ?s }
           }"#,
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "\"Alice\"");
}

#[test]
fn from_retargets_default_graph() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?p FROM <http://graphs/math> WHERE { ?p ex:score ?s }"#,
    );
    assert_eq!(r.len(), 2);
    // The default-graph name triple is not visible under FROM.
    let r2 = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?n FROM <http://graphs/math> WHERE { ?p ex:name ?n }"#,
    );
    assert!(r2.is_empty());
}

#[test]
fn from_named_restricts_graph_variable() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?g FROM NAMED <http://graphs/bio> WHERE {
             GRAPH ?g { ex:alice ex:score ?s }
           }"#,
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "<http://graphs/bio>");
}

#[test]
fn unknown_graph_matches_nothing() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?s WHERE { GRAPH <http://graphs/nope> { ?x ex:score ?s } }"#,
    );
    assert!(r.is_empty());
}

#[test]
fn graph_var_prebound_by_values() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?p WHERE {
             VALUES ?g { <http://graphs/math> }
             GRAPH ?g { ?p ex:score ?s }
           }"#,
    );
    assert_eq!(r.len(), 2);
}

#[test]
fn aggregates_across_graphs() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT (COUNT(?s) AS ?n) WHERE { GRAPH ?g { ?p ex:score ?s } }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "3");
}

#[test]
fn nested_exists_sees_active_graph() {
    let mut ds = dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?g WHERE {
             GRAPH ?g { ?p ex:score ?s FILTER EXISTS { ex:bob ex:score ?x } }
           }"#,
    );
    // Only the math graph contains bob.
    assert!(r
        .iter()
        .all(|row| row[0].as_ref().unwrap().to_string() == "<http://graphs/math>"));
    assert_eq!(r.len(), 2);
}

/// Every graph indexes the dataset's one dictionary, so an IRI has one
/// id in all of them, even when the graphs load it in different orders,
/// and joins carry that id across a GRAPH boundary — in both
/// directions, and over `GRAPH ?g`.
#[test]
fn joins_across_graphs_share_one_dictionary_id() {
    use scisparql::planner::{PlannerConfig, PlannerMode};
    use ssdm_rdf::Term;

    let mut ds = Dataset::in_memory();
    // Padding first: the default graph interns the shared IRIs after
    // terms no named graph has.
    ds.load_turtle(
        r#"@prefix ex: <http://e#> .
           ex:pad1 ex:pad ex:pad2 . ex:pad3 ex:pad ex:pad4 .
           ex:bob ex:name "Bob" . ex:alice ex:name "Alice" ; ex:knows ex:bob ."#,
    )
    .unwrap();
    let math = "http://graphs/math";
    let bio = "http://graphs/bio";
    let prefix = "@prefix ex: <http://e#> .";
    ds.load_turtle_named(
        math,
        &format!("{prefix} ex:alice ex:score 90 . ex:bob ex:score 60 ."),
    )
    .unwrap();
    ds.load_turtle_named(
        bio,
        &format!("{prefix} ex:bob ex:score 40 . ex:alice ex:score 45 ."),
    )
    .unwrap();
    let alice = Term::uri("http://e#alice");
    let id = ds.graph.dictionary().lookup(&alice).unwrap();
    for name in [math, bio] {
        let graph = ds.named_graph(name).unwrap();
        assert_eq!(graph.dictionary().lookup(&alice), Some(id), "{name}");
        assert_eq!(graph.match_pattern(Some(id), None, None).count(), 1);
    }

    let table = |ds: &mut Dataset, q: &str| -> Vec<String> {
        let q = format!("PREFIX ex: <http://e#> {q}");
        let lines = rows(ds, &q).into_iter().map(|r| {
            let cells = r
                .iter()
                .map(|c| c.as_ref().map(|v| v.to_string()).unwrap_or_default());
            cells.collect::<Vec<_>>().join(" ")
        });
        lines.collect()
    };
    for mode in [PlannerMode::Textual, PlannerMode::Greedy, PlannerMode::Dp] {
        ds.planner = PlannerConfig {
            mode,
            ..PlannerConfig::default()
        };
        // Default graph → named graph → default graph.
        let there_and_back = table(
            &mut ds,
            "SELECT ?n ?s ?friend WHERE {
               ?p ex:name ?n . GRAPH <http://graphs/math> { ?p ex:score ?s }
               ?p ex:knows ?f . ?f ex:name ?friend }",
        );
        assert_eq!(there_and_back, ["\"Alice\" 90 \"Bob\""], "{mode:?}");
        // Named graph first, its bindings joined in the default graph.
        let outward = table(
            &mut ds,
            "SELECT ?n ?s WHERE {
               GRAPH <http://graphs/bio> { ?p ex:score ?s } ?p ex:name ?n } ORDER BY ?n",
        );
        assert_eq!(outward, ["\"Alice\" 45", "\"Bob\" 40"], "{mode:?}");
        // One named graph joined with another.
        let sideways = table(
            &mut ds,
            "SELECT ?p ?m ?b WHERE {
               GRAPH <http://graphs/math> { ?p ex:score ?m }
               GRAPH <http://graphs/bio> { ?p ex:score ?b } } ORDER BY ?p",
        );
        let expected = ["<http://e#alice> 90 45", "<http://e#bob> 60 40"];
        assert_eq!(sideways, expected, "{mode:?}");
        // GRAPH ?g over both graphs, grouped on a variable bound inside.
        let every_graph = table(
            &mut ds,
            "SELECT ?g ?n ?s WHERE { GRAPH ?g { ?p ex:score ?s } ?p ex:name ?n } ORDER BY ?g ?n",
        );
        let expected = [
            "<http://graphs/bio> \"Alice\" 45",
            "<http://graphs/bio> \"Bob\" 40",
            "<http://graphs/math> \"Alice\" 90",
            "<http://graphs/math> \"Bob\" 60",
        ];
        assert_eq!(every_graph, expected, "{mode:?}");
        let per_person = table(
            &mut ds,
            "SELECT ?p (SUM(?s) AS ?total) WHERE { GRAPH ?g { ?p ex:score ?s } }
             GROUP BY ?p ORDER BY ?p",
        );
        assert_eq!(
            per_person,
            ["<http://e#alice> 135", "<http://e#bob> 100"],
            "{mode:?}"
        );
    }
}

/// Two graphs that use one blank-node label: both mean one node, so a
/// join across the boundary matches on it.
#[test]
fn a_blank_label_in_two_graphs_joins() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(r#"@prefix ex: <http://e#> . _:b ex:name "Bee" ."#)
        .unwrap();
    ds.load_turtle_named("http://g", "@prefix ex: <http://e#> . _:b ex:score 7 .")
        .unwrap();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://e#>
           SELECT ?n ?s WHERE { ?x ex:name ?n . GRAPH <http://g> { ?x ex:score ?s } }"#,
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "\"Bee\"");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "7");
}

/// A VALUES constant only a named graph holds binds before the GRAPH
/// pattern and still matches inside it; one no graph holds matches
/// nothing.
#[test]
fn a_values_constant_only_a_named_graph_holds() {
    let mut ds = dataset();
    ds.load_turtle_named(
        "http://graphs/chem",
        "@prefix ex: <http://e#> . ex:carol ex:score 12 .",
    )
    .unwrap();
    let q = |who: &str| {
        format!(
            r#"PREFIX ex: <http://e#>
               SELECT ?g ?s WHERE {{ VALUES ?p {{ {who} }} GRAPH ?g {{ ?p ex:score ?s }} }}"#
        )
    };
    let r = rows(&mut ds, &q("ex:carol"));
    assert_eq!(r.len(), 1);
    assert_eq!(
        r[0][0].as_ref().unwrap().to_string(),
        "<http://graphs/chem>"
    );
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "12");
    assert!(rows(&mut ds, &q("ex:dave")).is_empty());
}
