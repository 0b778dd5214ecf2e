//! Served result bodies are the materialized result's bodies, byte for
//! byte, and a served SELECT allocates per request, not per row.
//!
//! `router::execute` writes a SELECT's projected rows straight from the
//! dictionary under the engine lock; `results::serialize` writes the
//! materialized `QueryResult` that `Ssdm::query` returns. For every term
//! kind the engine stores or computes, and every result shape, in all
//! four formats, the two bodies must be equal. The framed wire's TSV is
//! held to the same standard. A counting allocator then watches one
//! thread serve a 100-row and a 1 000-row SELECT.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use scisparql::parser::Prepared;
use scisparql::Answer;
use ssdm::http::frame::{self, FramedExec};
use ssdm::http::results;
use ssdm::http::router::{self, Exec};
use ssdm::http::Format;
use ssdm::tenant::{TenantQuotas, TenantRegistry};
use ssdm::{Backend, Ssdm};

/// Counts the allocations this thread asks for.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

// SAFETY: defers to `System` for every operation; the thread-local is
// const-initialized and has no destructor, so touching it allocates
// nothing and is valid for the thread's whole life.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// How many allocations `f` makes on this thread.
fn allocations(f: impl FnOnce()) -> usize {
    let before = ALLOCATIONS.with(|n| n.get());
    f();
    ALLOCATIONS.with(|n| n.get()) - before
}

const FORMATS: [Format; 4] = [Format::Json, Format::Xml, Format::Csv, Format::Tsv];

const PREFIX: &str = "PREFIX ex: <http://example.org/> ";

/// One engine holding every term kind: a URI, a blank node, plain
/// strings and one with quotes, backslashes, tabs, newlines, carriage
/// returns, control characters, markup and commas, lang and typed
/// literals, integers, doubles at the edges of the `.0` form and past
/// the largest finite one, booleans, a resident array and an
/// externalized one.
fn registry() -> TenantRegistry {
    let mut db = Ssdm::open(Backend::Memory);
    db.set_externalize_threshold(16, 256);
    let big: Vec<String> = (0..40).map(|i| i.to_string()).collect();
    db.load_turtle(&format!(
        r#"@prefix ex: <http://example.org/> .
        ex:a ex:uri ex:b ;
             ex:bnode _:x ;
             ex:plain "plain" ;
             ex:escaped "q\"uote b\\slash\ttab\nnl\rcr \u0001\u001f <a&b> , comma" ;
             ex:lang "chat"@fr ;
             ex:typed "2024-01-01"^^<http://www.w3.org/2001/XMLSchema#date> ;
             ex:oddtype "v"^^<http://e/d?t="&x"> ;
             ex:int 42 , -7 , 0 ;
             ex:real 2.5 , 0.0 , -0.0 , 999999999999999.0 , 1.0e15 , 1.5e300 , 1e400 , -1e400 ;
             ex:bool true , false ;
             ex:small (1 2 3) ;
             ex:big ({}) .
        ex:c ex:uri ex:d .
        "#,
        big.join(" ")
    ))
    .expect("the data loads");
    db.query("DEFINE FUNCTION scale(?k, ?x) AS SELECT (?k * ?x AS ?r) WHERE { }")
        .expect("the function defines");
    TenantRegistry::new(db, TenantQuotas::default())
}

/// Statements that reach every cell kind and every result shape.
fn statements() -> Vec<String> {
    let select = [
        // Every stored term, one kind per row.
        "SELECT ?p ?o WHERE { ex:a ?p ?o } ORDER BY ?p ?o",
        // Unbound OPTIONAL cells.
        "SELECT ?s ?o ?b WHERE { ?s ex:uri ?o OPTIONAL { ?s ex:bool ?b } } ORDER BY ?s ?b",
        // Computed values: aggregates, arithmetic past the finite range,
        // NaN, strings the dictionary lacks.
        "SELECT (COUNT(?o) AS ?n) (AVG(?i) AS ?avg) (SUM(?i) AS ?sum) \
         WHERE { ex:a ?p ?o OPTIONAL { ex:a ex:int ?i FILTER (?o = ?i) } }",
        "SELECT (1e308 * 10 AS ?x) (-1e308 * 10 AS ?y) (0.0 / 0.0 AS ?z) (1.0 / 4 AS ?q) \
         (\"fresh, \\\"new\\\"\" AS ?s) WHERE { }",
        // A computed proxy, a resident array, a closure value.
        "SELECT ?big (?big[2:5] AS ?slice) ?small (scale(10, ?_) AS ?f) \
         WHERE { ex:a ex:big ?big ; ex:small ?small }",
        // Array aggregates over the proxy, computed.
        "SELECT (array_sum(?big) AS ?sum) (array_avg(?big) AS ?avg) WHERE { ex:a ex:big ?big }",
        // DISTINCT, LIMIT and OFFSET over ids.
        "SELECT DISTINCT ?s WHERE { ?s ?p ?o } ORDER BY ?s",
        "SELECT ?o WHERE { ex:a ex:real ?o } ORDER BY ?o LIMIT 3 OFFSET 2",
        // No rows, and one row with no columns.
        "SELECT ?s WHERE { ?s ex:missing ?o }",
        "SELECT * WHERE { }",
    ];
    let other = [
        "ASK { ex:a ex:int 42 }",
        "ASK { ex:a ex:int 43 }",
        "CONSTRUCT { ?s ex:copy ?o . _:n ex:of ?s } WHERE { ?s ex:uri ?o }",
        "DESCRIBE ex:a",
        "EXPLAIN SELECT ?o WHERE { ex:a ex:int ?o }",
    ];
    select
        .iter()
        .chain(&other)
        .map(|s| format!("{PREFIX}{s}"))
        .collect()
}

/// The body `router::execute` serves for `statement` in `format`.
fn served(registry: &TenantRegistry, statement: &str, format: Format) -> Vec<u8> {
    let mut exec = Exec::Query {
        tenant: None,
        statement: statement.to_string(),
        parsed: Prepared::parse(statement).ok().map(Box::new),
        format,
    };
    let response = router::execute(&mut exec, registry);
    assert_eq!(response.status, 200, "{statement}: {:?}", response);
    response.body
}

/// The body `results::serialize` writes for `Ssdm::query`'s result.
fn materialized(registry: &TenantRegistry, statement: &str, format: Format) -> Vec<u8> {
    let tenant = registry.resolve(None).expect("the default tenant");
    let mut engine = tenant.engine().lock().expect("no test panics holding it");
    let result = engine.query(statement).expect("the statement runs");
    results::serialize(&result, format)
}

#[test]
fn served_bodies_equal_materialized_bodies_in_every_format() {
    let registry = registry();
    for statement in statements() {
        for format in FORMATS {
            let served = served(&registry, &statement, format);
            let expected = materialized(&registry, &statement, format);
            assert_eq!(
                String::from_utf8_lossy(&served),
                String::from_utf8_lossy(&expected),
                "{format:?}: {statement}"
            );
        }
    }
}

#[test]
fn framed_bodies_equal_materialized_bodies() {
    let registry = registry();
    let tenant = registry.resolve(None).expect("the default tenant");
    for statement in statements() {
        let (status, payload) = FramedExec::Query(statement.clone()).run(&tenant, &registry);
        assert_eq!(status, 0, "{statement}: {payload}");
        let mut engine = tenant.engine().lock().expect("no test panics holding it");
        let result = engine.query(&statement).expect("the statement runs");
        let expected = frame::render(&Answer::Result(result), &engine.dataset);
        assert_eq!(payload, expected, "{statement}");
    }
}

#[test]
fn bodies_show_each_kind_as_the_format_spells_it() {
    let registry = registry();
    let body = |statement: &str, format| {
        String::from_utf8(served(&registry, &format!("{PREFIX}{statement}"), format)).unwrap()
    };
    let json = body("SELECT ?o WHERE { ex:a ex:escaped ?o }", Format::Json);
    assert!(
        json.contains(r#""value":"q\"uote b\\slash\ttab\nnl\rcr \u0001\u001f <a&b> , comma""#),
        "{json}"
    );
    let xml = body("SELECT ?o WHERE { ex:a ex:oddtype ?o }", Format::Xml);
    assert!(
        xml.contains(r#"<literal datatype="http://e/d?t=&quot;&amp;x&quot;">v</literal>"#),
        "{xml}"
    );
    let csv = body("SELECT ?o WHERE { ex:a ex:escaped ?o }", Format::Csv);
    assert!(csv.contains("\"q\"\"uote b\\slash\ttab\nnl\rcr"), "{csv}");
    let tsv = body(
        "SELECT ?o WHERE { ex:a ex:real ?o } ORDER BY ?o",
        Format::Tsv,
    );
    let lines: Vec<&str> = tsv.lines().collect();
    let inf = "\"INF\"^^<http://www.w3.org/2001/XMLSchema#double>";
    let neg_inf = "\"-INF\"^^<http://www.w3.org/2001/XMLSchema#double>";
    for edge in ["999999999999999.0", "1e15", "-0.0", "0.0", "2.5"] {
        assert!(lines.contains(&edge), "{edge} in {tsv}");
    }
    assert!(lines.contains(&inf) && lines.contains(&neg_inf), "{tsv}");
    let json = body(
        "SELECT ?big ?f WHERE { ex:a ex:big ?big BIND (scale(2, ?_) AS ?f) }",
        Format::Json,
    );
    assert!(json.contains("@proxy(array "), "{json}");
    assert!(json.contains(r#""datatype":"urn:ssdm:array""#), "{json}");
    assert!(json.contains(r#""datatype":"urn:ssdm:closure""#), "{json}");
}

#[test]
fn a_thousand_row_select_allocates_like_a_hundred_row_one() {
    let mut db = Ssdm::open(Backend::Memory);
    let mut data = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..1000 {
        data.push_str(&format!(
            "ex:s{i} ex:p {i} ; ex:name \"name {i}\" ; ex:to ex:t{i} .\n"
        ));
    }
    db.load_turtle(&data).expect("the data loads");
    let registry = TenantRegistry::new(db, TenantQuotas::default());
    let select = |limit: usize| {
        format!("{PREFIX}SELECT ?s ?v ?name ?t WHERE {{ ?s ex:p ?v ; ex:name ?name ; ex:to ?t }} LIMIT {limit}")
    };
    for format in FORMATS {
        let cost = |limit| {
            let statement = select(limit);
            // The first run warms whatever the process builds once.
            served(&registry, &statement, format);
            let mut bytes = 0;
            let count = allocations(|| bytes = served(&registry, &statement, format).len());
            (count, bytes)
        };
        let ((hundred, bytes_100), (thousand, bytes_1000)) = (cost(100), cost(1000));
        assert!(
            bytes_1000 > 9 * bytes_100,
            "{format:?}: each body holds its rows"
        );
        assert!(
            thousand < hundred + 100,
            "{format:?}: 1 000 rows took {thousand} allocations, 100 rows {hundred}"
        );
    }
}
