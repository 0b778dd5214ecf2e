//! End-to-end SciSPARQL query tests, following the thesis' own
//! examples: ch. 3 (SPARQL core: graph patterns, OPTIONAL, UNION,
//! filters, paths, aggregation) and ch. 4 (array queries, functional
//! views, closures, second-order functions).

use scisparql::{Dataset, QueryResult, Value};

/// The FOAF example dataset of thesis Fig. 5.
fn foaf_dataset() -> Dataset {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"
        @prefix foaf: <http://xmlns.com/foaf/0.1/> .
        _:a a foaf:Person ; foaf:name "Alice" ; foaf:knows _:b , _:d .
        _:b a foaf:Person ; foaf:name "Bob" ; foaf:knows _:a .
        _:c a foaf:Person ; foaf:name "Cindy" ; foaf:knows _:d .
        _:d a foaf:Person ; foaf:name "Daniel" .
        _:b foaf:mbox "bob@example.org" .
    "#,
    )
    .unwrap();
    ds
}

fn rows(ds: &mut Dataset, q: &str) -> Vec<Vec<Option<Value>>> {
    ds.query(q).unwrap().into_rows().unwrap()
}

fn strings(rows: &[Vec<Option<Value>>], col: usize) -> Vec<String> {
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| r[col].as_ref().map(|v| v.to_string()).unwrap_or_default())
        .collect();
    out.sort();
    out
}

#[test]
fn basic_graph_pattern() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?fn WHERE { ?p foaf:name "Alice" ; foaf:knows ?f . ?f foaf:name ?fn }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"Bob\"", "\"Daniel\""]);
}

#[test]
fn optional_yields_unbound() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n ?mb WHERE {
             ?p foaf:name ?n OPTIONAL { ?p foaf:mbox ?mb }
           }"#,
    );
    assert_eq!(r.len(), 4);
    let bound: Vec<&Vec<Option<Value>>> = r.iter().filter(|row| row[1].is_some()).collect();
    assert_eq!(bound.len(), 1);
    assert_eq!(bound[0][0].as_ref().unwrap().to_string(), "\"Bob\"");
}

#[test]
fn union_both_directions() {
    // The thesis' bidirectional-knows example (§3.3.2).
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT DISTINCT ?fn WHERE {
             ?f foaf:name ?fn . ?alice foaf:name "Alice" .
             { ?alice foaf:knows ?f } UNION { ?f foaf:knows ?alice }
           }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"Bob\"", "\"Daniel\""]);
}

#[test]
fn filter_exists_and_not_exists() {
    // §3.3.3: persons with a mailbox / without one.
    let mut ds = foaf_dataset();
    let with = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n WHERE { ?p foaf:name ?n FILTER EXISTS { ?p foaf:mbox ?m } }"#,
    );
    assert_eq!(strings(&with, 0), vec!["\"Bob\""]);
    let without = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n WHERE { ?p foaf:name ?n FILTER NOT EXISTS { ?p foaf:mbox ?m } }"#,
    );
    assert_eq!(without.len(), 3);
}

#[test]
fn property_path_plus() {
    let mut ds = foaf_dataset();
    // Everyone transitively known by Cindy: Daniel (one step), and no
    // one else (Daniel knows nobody).
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT DISTINCT ?n WHERE {
             ?c foaf:name "Cindy" . ?c foaf:knows+ ?f . ?f foaf:name ?n
           }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"Daniel\""]);
    // From Alice the closure reaches Bob, Daniel, and Alice again
    // (via Bob).
    let r2 = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT DISTINCT ?n WHERE {
             ?a foaf:name "Alice" . ?a foaf:knows+ ?f . ?f foaf:name ?n
           }"#,
    );
    assert_eq!(strings(&r2, 0), vec!["\"Alice\"", "\"Bob\"", "\"Daniel\""]);
}

/// A closure's rows come in the order the nodes are first reached, the
/// same on every evaluation (not in a hash set's per-instance order).
#[test]
fn property_path_rows_come_in_one_order() {
    let mut ds = foaf_dataset();
    let queries = [
        r#"SELECT DISTINCT ?n WHERE { ?a foaf:name "Alice" . ?a foaf:knows+ ?f . ?f foaf:name ?n }"#,
        "SELECT ?a ?f WHERE { ?a foaf:knows+ ?f }",
        "SELECT ?a ?f WHERE { ?a foaf:knows* ?f }",
    ];
    for q in queries {
        let q = format!("PREFIX foaf: <http://xmlns.com/foaf/0.1/> {q}");
        let show = |r: Vec<Vec<Option<Value>>>| format!("{r:?}");
        let first = show(rows(&mut ds, &q));
        for _ in 0..20 {
            assert_eq!(show(rows(&mut ds, &q)), first, "{q}");
        }
    }
}

#[test]
fn property_path_sequence_and_inverse() {
    let mut ds = foaf_dataset();
    // knows/name composes; ^knows finds who knows Daniel.
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n WHERE {
             ?d foaf:name "Daniel" . ?d ^foaf:knows/foaf:name ?n
           }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"Alice\"", "\"Cindy\""]);
}

#[test]
fn path_star_includes_zero_length() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT DISTINCT ?n WHERE {
             ?c foaf:name "Cindy" . ?c foaf:knows* ?f . ?f foaf:name ?n
           }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"Cindy\"", "\"Daniel\""]);
}

#[test]
fn aggregation_grouping_having() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n (COUNT(?f) AS ?cnt) WHERE {
             ?p foaf:name ?n . ?p foaf:knows ?f
           } GROUP BY ?n HAVING (COUNT(?f) >= 2)"#,
    );
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "\"Alice\"");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "2");
}

#[test]
fn order_limit_offset() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n WHERE { ?p foaf:name ?n } ORDER BY ?n LIMIT 2 OFFSET 1"#,
    );
    assert_eq!(
        r.iter()
            .map(|x| x[0].as_ref().unwrap().to_string())
            .collect::<Vec<_>>(),
        vec!["\"Bob\"", "\"Cindy\""]
    );
}

#[test]
fn ask_and_construct() {
    let mut ds = foaf_dataset();
    assert_eq!(
        ds.query(r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?x foaf:name "Alice" }"#)
            .unwrap()
            .as_bool(),
        Some(true)
    );
    assert_eq!(
        ds.query(r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/> ASK { ?x foaf:name "Zed" }"#)
            .unwrap()
            .as_bool(),
        Some(false)
    );
    let QueryResult::Graph(g) = ds
        .query(
            r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
               CONSTRUCT { ?a <http://fof> ?c } WHERE { ?a foaf:knows ?b . ?b foaf:knows ?c }"#,
        )
        .unwrap()
    else {
        panic!()
    };
    // friend-of-friend pairs: a->a (via b), b->b (via a), b->d (via a).
    assert_eq!(g.len(), 3);
}

/// The number of triples a CONSTRUCT returns.
fn constructed(ds: &mut Dataset, q: &str) -> usize {
    match ds.query(q).unwrap() {
        QueryResult::Graph(g) => g.len(),
        other => panic!("expected a graph, got {other:?}"),
    }
}

#[test]
fn construct_limit_cuts_solutions_not_triples() {
    // SPARQL 1.1 §15: LIMIT applies to the solution sequence, and every
    // solution instantiates the whole template.
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://s1> <http://p> 1 . <http://s2> <http://p> 2 .")
        .unwrap();
    let two = "CONSTRUCT { ?s <http://a> ?o . ?s <http://b> ?o } WHERE { ?s <http://p> ?o }";
    assert_eq!(constructed(&mut ds, two), 4);
    assert_eq!(constructed(&mut ds, &format!("{two} LIMIT 1")), 2);
    assert_eq!(constructed(&mut ds, &format!("{two} LIMIT 0")), 0);
    assert_eq!(constructed(&mut ds, &format!("{two} LIMIT 5")), 4);

    // A solution whose template triples are all skipped (unbound) is
    // still a solution: it uses up its place under LIMIT.
    ds.load_turtle("<http://s2> <http://q> \"w\" .").unwrap();
    let pattern = "?s <http://p> ?o OPTIONAL { ?s <http://q> ?w }";
    let order = rows(&mut ds, &format!("SELECT ?s ?w WHERE {{ {pattern} }}"));
    let with_w: Vec<bool> = order.iter().map(|r| r[1].is_some()).collect();
    assert_eq!(with_w, [false, true], "the solution without ?w comes first");
    let sparse = format!("CONSTRUCT {{ ?s <http://a> ?w }} WHERE {{ {pattern} }}");
    assert_eq!(constructed(&mut ds, &format!("{sparse} LIMIT 1")), 0);
    assert_eq!(constructed(&mut ds, &format!("{sparse} LIMIT 2")), 1);
}

#[test]
fn values_restricts() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n WHERE { VALUES ?n { "Alice" "Bob" "Nobody" } ?p foaf:name ?n }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"Alice\"", "\"Bob\""]);
}

#[test]
fn bind_computes() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://s> <http://v> 21 .").unwrap();
    let r = rows(
        &mut ds,
        "SELECT ?d WHERE { ?s <http://v> ?x BIND (?x * 2 AS ?d) }",
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "42");
}

// -----------------------------------------------------------------------
// Array queries (thesis ch. 4)
// -----------------------------------------------------------------------

fn array_dataset() -> Dataset {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"
        @prefix ex: <http://example.org/> .
        ex:m1 ex:data ((1 2 3) (4 5 6) (7 8 9)) ; ex:label "first" .
        ex:m2 ex:data ((10 20) (30 40)) ; ex:label "second" .
        ex:v  ex:data (2.5 3.5 4.0) ; ex:label "vector" .
    "#,
    )
    .unwrap();
    ds
}

#[test]
fn array_element_access_is_one_based() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (?a[2,3] AS ?v) WHERE { ex:m1 ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "6");
}

#[test]
fn array_slice_and_row() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (?a[2] AS ?row) (?a[1:2, 2] AS ?colpart) WHERE { ex:m1 ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "(4 5 6)");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "(2 5)");
}

#[test]
fn array_stride_and_negative() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (?a[1, 1:2:3] AS ?odds) (?a[-1,-1] AS ?last) WHERE { ex:m1 ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "(1 3)");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "9");
}

#[test]
fn out_of_bounds_is_unbound_not_error() {
    // §3.6 error handling: failed expressions leave results unbound.
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (?a[99,99] AS ?v) ?l WHERE { ex:m1 ex:data ?a ; ex:label ?l }"#,
    );
    assert_eq!(r.len(), 1);
    assert!(r[0][0].is_none());
    assert!(r[0][1].is_some());
}

#[test]
fn array_builtin_functions() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (array_sum(?a) AS ?s) (array_avg(?a) AS ?m)
                  (array_min(?a) AS ?lo) (array_max(?a) AS ?hi)
                  (array_rank(?a) AS ?rk) (array_dims(?a) AS ?dm)
           WHERE { ex:m1 ex:data ?a }"#,
    );
    let row = &r[0];
    assert_eq!(row[0].as_ref().unwrap().to_string(), "45");
    assert_eq!(row[1].as_ref().unwrap().to_string(), "5.0");
    assert_eq!(row[2].as_ref().unwrap().to_string(), "1");
    assert_eq!(row[3].as_ref().unwrap().to_string(), "9");
    assert_eq!(row[4].as_ref().unwrap().to_string(), "2");
    assert_eq!(row[5].as_ref().unwrap().to_string(), "(3 3)");
}

#[test]
fn array_arithmetic_in_expressions() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (?a * 2 AS ?dbl) (?a[1] + ?a[2] AS ?rowsum)
           WHERE { ex:m2 ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "((20 40) (60 80))");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "(40 60)");
}

#[test]
fn array_equality_filter() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT ?l WHERE { ?m ex:data ?a ; ex:label ?l FILTER (?a[1,1] = 10) }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"second\""]);
}

#[test]
fn filter_on_array_aggregate() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT ?l WHERE { ?m ex:data ?a ; ex:label ?l FILTER (array_avg(?a) > 9) }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"second\""]);
}

#[test]
fn matching_array_constant_in_pattern() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT ?l WHERE { ?m ex:data ((10 20) (30 40)) ; ex:label ?l }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"second\""]);
}

#[test]
fn transpose_builtin() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (array_transpose(?a) AS ?t) WHERE { ex:m2 ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "((10 30) (20 40))");
}

#[test]
fn matmul_builtin() {
    let mut ds = array_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (matmul(?a, ?a) AS ?sq) WHERE { ex:m2 ex:data ?a }"#,
    );
    assert_eq!(
        r[0][0].as_ref().unwrap().to_string(),
        "((700.0 1000.0) (1500.0 2200.0))"
    );
}

// -----------------------------------------------------------------------
// Functional views, closures, second-order functions (thesis §4.2–4.3)
// -----------------------------------------------------------------------

#[test]
fn define_and_call_function() {
    let mut ds = array_dataset();
    ds.query("DEFINE FUNCTION square(?x) AS SELECT (?x * ?x AS ?r) WHERE { }")
        .unwrap();
    let r = rows(&mut ds, "SELECT (square(7) AS ?v) WHERE { }");
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "49");
}

#[test]
fn parameterized_view_queries_graph() {
    let mut ds = foaf_dataset();
    ds.query(
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           DEFINE FUNCTION nameOf(?p) AS SELECT ?n WHERE { ?p foaf:name ?n }"#,
    )
    .unwrap();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT (nameOf(?f) AS ?fn) WHERE { ?a foaf:name "Alice" ; foaf:knows ?f }"#,
    );
    assert_eq!(strings(&r, 0), vec!["\"Bob\"", "\"Daniel\""]);
}

#[test]
fn second_order_map_with_named_function() {
    let mut ds = array_dataset();
    ds.query("DEFINE FUNCTION square(?x) AS SELECT (?x * ?x AS ?r) WHERE { }")
        .unwrap();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (array_map(square, ?a) AS ?sq) WHERE { ex:m2 ex:data ?a }"#,
    );
    assert_eq!(
        r[0][0].as_ref().unwrap().to_string(),
        "((100 400) (900 1600))"
    );
}

#[test]
fn closure_partial_application() {
    let mut ds = array_dataset();
    ds.query("DEFINE FUNCTION scale(?k, ?x) AS SELECT (?k * ?x AS ?r) WHERE { }")
        .unwrap();
    // scale(10, ?_) is a unary closure multiplying by 10.
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (array_map(scale(10, ?_), ?a) AS ?s) WHERE { ex:m2 ex:data ?a }"#,
    );
    assert_eq!(
        r[0][0].as_ref().unwrap().to_string(),
        "((100 200) (300 400))"
    );
}

#[test]
fn condense_with_closure() {
    let mut ds = array_dataset();
    ds.query("DEFINE FUNCTION plus(?a, ?b) AS SELECT (?a + ?b AS ?r) WHERE { }")
        .unwrap();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (array_condense(plus, ?a) AS ?s) WHERE { ex:m1 ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "45");
}

#[test]
fn array_build_second_order() {
    let mut ds = Dataset::in_memory();
    ds.query("DEFINE FUNCTION cell(?i, ?j) AS SELECT (?i * 10 + ?j AS ?r) WHERE { }")
        .unwrap();
    let r = rows(
        &mut ds,
        "SELECT (array_build(array(2, 3), cell) AS ?m) WHERE { }",
    );
    assert_eq!(
        r[0][0].as_ref().unwrap().to_string(),
        "((11 12 13) (21 22 23))"
    );
}

#[test]
fn apply_builtin_calls_closures() {
    let mut ds = Dataset::in_memory();
    ds.query("DEFINE FUNCTION addmul(?a, ?b, ?c) AS SELECT (?a + ?b * ?c AS ?r) WHERE { }")
        .unwrap();
    let r = rows(
        &mut ds,
        "SELECT (apply(addmul(1, ?_, ?_), 2, 3) AS ?v) WHERE { }",
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "7");
}

#[test]
fn foreign_math_functions() {
    let mut ds = Dataset::in_memory();
    let r = rows(&mut ds, "SELECT (sqrt(16) AS ?v) (exp(0) AS ?e) WHERE { }");
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "4.0");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "1.0");
}

#[test]
fn custom_foreign_function_with_cost() {
    use scisparql::ForeignFunction;
    let mut ds = Dataset::in_memory();
    ds.registry.register_foreign(ForeignFunction {
        name: "triple_it".into(),
        arity: 1,
        imp: std::sync::Arc::new(|args| {
            let n = args[0]
                .as_num()
                .ok_or_else(|| scisparql::QueryError::Eval("number required".into()))?;
            Ok(Value::integer(n.as_i64() * 3))
        }),
    });
    let r = rows(&mut ds, "SELECT (triple_it(14) AS ?v) WHERE { }");
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "42");
}

// -----------------------------------------------------------------------
// External array storage through queries
// -----------------------------------------------------------------------

#[test]
fn externalized_arrays_answer_queries_lazily() {
    let mut ds = Dataset::in_memory();
    ds.externalize_threshold = 4; // force external storage
    ds.chunk_bytes = 32;
    ds.load_turtle(
        r#"@prefix ex: <http://example.org/> .
           ex:big ex:data (1 2 3 4 5 6 7 8 9 10) ; ex:label "big" ."#,
    )
    .unwrap();
    // Element access resolves only the needed chunk(s).
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (?a[10] AS ?last) (array_sum(?a) AS ?s) WHERE { ex:big ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "10");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "55");
}

#[test]
fn proxies_slice_lazily_and_project() {
    let mut ds = Dataset::in_memory();
    ds.externalize_threshold = 4;
    ds.chunk_bytes = 16; // 2 elements per chunk
    ds.load_turtle(
        r#"@prefix ex: <http://example.org/> .
           ex:big ex:data (0 1 2 3 4 5 6 7 8 9) ."#,
    )
    .unwrap();
    ds.arrays.backend_mut().reset_io_stats();
    let r = rows(
        &mut ds,
        r#"PREFIX ex: <http://example.org/>
           SELECT (array_sum(?a[1:2]) AS ?s) WHERE { ex:big ex:data ?a }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "1");
    // Only the first chunk should be touched.
    assert_eq!(ds.arrays.backend().io_stats().chunks_returned, 1);
}

#[test]
fn insert_and_delete_data() {
    let mut ds = Dataset::in_memory();
    ds.query(
        r#"PREFIX ex: <http://example.org/>
           INSERT DATA { ex:s ex:p 1 , 2 ; ex:q (1 2 3) . }"#,
    )
    .unwrap();
    assert_eq!(ds.graph.len(), 3);
    ds.query(
        r#"PREFIX ex: <http://example.org/>
           DELETE DATA { ex:s ex:p 1 . }"#,
    )
    .unwrap();
    assert_eq!(ds.graph.len(), 2);
    // Array delete by content.
    ds.query(
        r#"PREFIX ex: <http://example.org/>
           DELETE DATA { ex:s ex:q (1 2 3) . }"#,
    )
    .unwrap();
    assert_eq!(ds.graph.len(), 1);
}

#[test]
fn distinct_dedups() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://a> <http://p> 1 . <http://b> <http://p> 1 . <http://c> <http://p> 2 .")
        .unwrap();
    let r = rows(&mut ds, "SELECT DISTINCT ?v WHERE { ?s <http://p> ?v }");
    assert_eq!(r.len(), 2);
}

#[test]
fn variable_predicate() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT DISTINCT ?prop WHERE { ?a foaf:name "Bob" . ?a ?prop ?v }"#,
    );
    assert_eq!(r.len(), 4); // rdf:type, name, knows, mbox
}

#[test]
fn same_variable_twice_in_pattern() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://x> <http://p> <http://x> . <http://y> <http://p> <http://z> .")
        .unwrap();
    let r = rows(&mut ds, "SELECT ?s WHERE { ?s <http://p> ?s }");
    assert_eq!(r.len(), 1);
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "<http://x>");
}

#[test]
fn string_builtins() {
    let mut ds = Dataset::in_memory();
    let r = rows(
        &mut ds,
        r#"SELECT (strlen("hello") AS ?l) (ucase("abc") AS ?u)
                  (concat("a", "b", "c") AS ?c) (substr("hello", 2, 3) AS ?s)
           WHERE { }"#,
    );
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "5");
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "\"ABC\"");
    assert_eq!(r[0][2].as_ref().unwrap().to_string(), "\"abc\"");
    assert_eq!(r[0][3].as_ref().unwrap().to_string(), "\"ell\"");
}

/// `STR` of a number is its lexical form, a non-finite double's too.
#[test]
fn str_of_a_number_is_its_lexical_form() {
    let mut ds = Dataset::in_memory();
    let r = rows(
        &mut ds,
        "SELECT (STR(1.0/0.0) AS ?inf) (STR(-1.0/0.0) AS ?neg) (STR(2.0) AS ?two) (STR(7) AS ?i)
         WHERE { }",
    );
    let cells: Vec<String> = r[0]
        .iter()
        .map(|c| c.as_ref().unwrap().to_string())
        .collect();
    assert_eq!(cells, ["\"INF\"", "\"-INF\"", "\"2.0\"", "\"7\""]);
}

#[test]
fn if_coalesce_bound() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT ?n (COALESCE(?mb, "none") AS ?mail)
                  (IF(BOUND(?mb), 1, 0) AS ?flag)
           WHERE { ?p foaf:name ?n OPTIONAL { ?p foaf:mbox ?mb } }
           ORDER BY ?n"#,
    );
    assert_eq!(r.len(), 4);
    assert_eq!(r[0][1].as_ref().unwrap().to_string(), "\"none\""); // Alice
    assert_eq!(r[1][1].as_ref().unwrap().to_string(), "\"bob@example.org\"");
    assert_eq!(r[1][2].as_ref().unwrap().to_string(), "1");
}

#[test]
fn division_by_zero_filter_is_false() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://s> <http://v> 0 . <http://t> <http://v> 2 .")
        .unwrap();
    let r = rows(
        &mut ds,
        "SELECT ?s WHERE { ?s <http://v> ?x FILTER (10 / ?x > 1) }",
    );
    assert_eq!(r.len(), 1, "error rows are filtered out, not fatal");
}

#[test]
fn group_concat_and_sample() {
    let mut ds = foaf_dataset();
    let r = rows(
        &mut ds,
        r#"PREFIX foaf: <http://xmlns.com/foaf/0.1/>
           SELECT (GROUP_CONCAT(?n ; SEPARATOR=", ") AS ?all) WHERE {
             ?p foaf:name ?n
           } ORDER BY ?all"#,
    );
    assert_eq!(r.len(), 1);
    let all = r[0][0].as_ref().unwrap().to_string();
    assert!(all.contains("Alice") && all.contains("Daniel"));
}

#[test]
fn nested_udf_recursion_via_views() {
    // A view calling another view.
    let mut ds = Dataset::in_memory();
    ds.query("DEFINE FUNCTION inc(?x) AS SELECT (?x + 1 AS ?r) WHERE { }")
        .unwrap();
    ds.query("DEFINE FUNCTION inc2(?x) AS SELECT (inc(inc(?x)) AS ?r) WHERE { }")
        .unwrap();
    let r = rows(&mut ds, "SELECT (inc2(40) AS ?v) WHERE { }");
    assert_eq!(r[0][0].as_ref().unwrap().to_string(), "42");
}

#[test]
fn unknown_function_is_error() {
    let mut ds = Dataset::in_memory();
    assert!(ds.query("SELECT (nosuch(1) AS ?v) WHERE { }").is_err());
}

/// A FILTER that reads nothing a BIND binds is evaluated beneath it:
/// same answers as with the filter written first, whatever the BIND
/// does to the solution (plain value, subscript fan-out, equal re-bind).
#[test]
fn filter_commutes_with_bind_on_other_variables() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        r#"@prefix ex: <http://e#> .
           ex:a ex:k 1 ; ex:v (10 20 30) ; ex:top 30 .
           ex:b ex:k 2 ; ex:v (40 50 60) ; ex:top 99 .
           ex:c ex:k 3 ; ex:v (70 80 90) ; ex:top 90 ."#,
    )
    .unwrap();
    let binds = [
        "BIND (array_max(?v) AS ?m)",
        "BIND (?v[?i] AS ?m)",
        "?s ex:top ?m . BIND (array_max(?v) AS ?m)",
    ];
    for bind in binds {
        let q = |body: String| {
            format!("PREFIX ex: <http://e#> SELECT ?s ?m WHERE {{ {body} }} ORDER BY ?s ?m")
        };
        let after = q(format!("?s ex:k ?k ; ex:v ?v . {bind} FILTER (?k >= 2)"));
        let before = q(format!("?s ex:k ?k ; ex:v ?v . FILTER (?k >= 2) {bind}"));
        let (after, before) = (rows(&mut ds, &after), rows(&mut ds, &before));
        assert!(!after.is_empty(), "{bind}");
        assert_eq!(format!("{after:?}"), format!("{before:?}"), "{bind}");
    }
    // The plan shows the filter under the BIND; one that reads the
    // BIND's variable stays above it.
    let explain = |ds: &mut Dataset, filter: &str| {
        let q = format!(
            "PREFIX ex: <http://e#> EXPLAIN SELECT ?m WHERE {{
               ?s ex:k ?k ; ex:v ?v . BIND (array_max(?v) AS ?m) FILTER ({filter}) }}"
        );
        let QueryResult::Text(plan) = ds.query(&q).unwrap() else {
            panic!("EXPLAIN returns text");
        };
        let line = |op: &str| plan.lines().position(|l| l.trim_start().starts_with(op));
        (line("Extend").unwrap(), line("Filter").unwrap())
    };
    let (extend, filter) = explain(&mut ds, "?k >= 2");
    assert!(extend < filter, "filter on ?k belongs under the BIND");
    let (extend, filter) = explain(&mut ds, "?m >= 2");
    assert!(filter < extend, "filter on ?m needs the BIND's result");
}
