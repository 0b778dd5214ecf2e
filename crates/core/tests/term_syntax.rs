//! One term syntax for data and queries: a term written the same way in
//! Turtle and in SciSPARQL is the same term.
//!
//! For every term `T` below, and for generated ones:
//! - `ex:s ex:p T .` loaded with Turtle answers `ASK { ex:s ex:p T }`;
//! - `INSERT DATA { ex:s ex:p T }` into a fresh dataset stores the very
//!   term Turtle stored;
//! - the stored term's `Display` text, written back into a query, finds
//!   it.

use proptest::prelude::*;
use scisparql::Dataset;
use ssdm_array::NumArray;
use ssdm_rdf::{ntriples, turtle, Graph, Term};

const PREFIXES: &str = "ex: <http://ex.org/> xsd: <http://www.w3.org/2001/XMLSchema#> \
                        my-ns: <http://ex.org/my/>";

/// The directives declaring [`PREFIXES`] in Turtle or in SPARQL.
fn prefixes(keyword: &str, end: &str) -> String {
    let parts: Vec<&str> = PREFIXES.split_whitespace().collect();
    parts
        .chunks(2)
        .map(|p| format!("{keyword} {} {}{end}\n", p[0], p[1]))
        .collect()
}

fn object(ds: &Dataset) -> Term {
    let graph = ds.active();
    let triple = graph.iter().next().expect("one triple");
    graph.term(triple.o).clone()
}

fn asks(ds: &mut Dataset, term: &str) -> Result<bool, String> {
    let q = format!("{}ASK {{ ex:s ex:p {term} }}", prefixes("PREFIX", ""));
    let answer = ds.query(&q).map_err(|e| format!("{q}: {e}"))?;
    Ok(answer.as_bool().expect("ASK answers a boolean"))
}

/// The three checks of the module doc for the term written `text`.
fn check(text: &str) -> Result<(), String> {
    let mut loaded = Dataset::in_memory();
    let ttl = format!("{}ex:s ex:p {text} .", prefixes("@prefix", " ."));
    loaded
        .load_turtle(&ttl)
        .map_err(|e| format!("Turtle: {e}"))?;
    let stored = object(&loaded);
    if !asks(&mut loaded, text)? {
        return Err(format!("ASK misses {text}, stored as {stored:?}"));
    }
    let mut inserted = Dataset::in_memory();
    let update = format!(
        "{}INSERT DATA {{ ex:s ex:p {text} }}",
        prefixes("PREFIX", "")
    );
    inserted
        .query(&update)
        .map_err(|e| format!("INSERT DATA: {e}"))?;
    let got = object(&inserted);
    if !got.same_node(&stored) {
        return Err(format!("INSERT DATA stored {got:?}, Turtle {stored:?}"));
    }
    let shown = stored.to_string();
    if !asks(&mut loaded, &shown)? {
        return Err(format!("its Display text {shown} misses {stored:?}"));
    }
    Ok(())
}

/// Each term syntax Turtle reads and the query parser used to miss or
/// refuse, and the common ones beside them.
const TERMS: &[&str] = &[
    "<http://ex.org/café>",
    "<http://ex.org/naïve>",
    "<http://ex.org/日本>",
    r"<http://ex.org/ét\U000000E9>",
    r#"<http://ex.org/q?t="&x">"#,
    r#""42"^^xsd:integer"#,
    r#""-7"^^xsd:int"#,
    r#""2.5"^^xsd:double"#,
    r#""0.5"^^xsd:decimal"#,
    r#""true"^^xsd:boolean"#,
    r#""0"^^xsd:boolean"#,
    r#""text"^^xsd:string"#,
    r#""INF"^^xsd:double"#,
    r#""NaN"^^xsd:double"#,
    r#""-INF"^^xsd:double"#,
    r#""2024-01-01"^^xsd:date"#,
    r#""7"^^<http://ex.org/dt>"#,
    r#""7"^^ex:dt"#,
    r#""snow\u2603man""#,
    r#""\U0001F600""#,
    r#""snow☃man""#,
    r#""""long""""#,
    r#""""two
lines with "quotes" inside""""#,
    "'''x'''",
    "'single'",
    r#""tab\there\nand \"quotes\" \\ \b\f""#,
    r#""chat"@fr"#,
    r#""colour"@en-GB"#,
    r#""""long"""@en"#,
    "my-ns:thing",
    "ex:a%20b",
    "ex:dotted.name",
    "ex:x.y..z",
    "_:b.1",
    "_:node-7",
    "42",
    "-7",
    "+3",
    "3.5",
    "-0.25",
    ".5",
    "1e3",
    "-2.5E-3",
    "-9223372036854775808",
    "9223372036854775807",
    "1e15",
    "2.5e18",
    "1e20",
    "true",
    "false",
];

#[test]
fn every_term_reads_the_same_in_turtle_and_in_a_query() {
    let failures: Vec<String> = TERMS
        .iter()
        .filter_map(|t| check(t).err().map(|e| format!("{t}: {e}")))
        .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// An inserted typed integer is the number Turtle stores: it compares
/// as a number, and the N-Triples snapshot of it reads back as the same
/// term, so the data answers alike before and after a restart.
#[test]
fn typed_literals_are_native_terms_before_and_after_a_snapshot() {
    let mut ds = Dataset::in_memory();
    ds.query(
        "PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
         INSERT DATA { <http://s> <http://p> \"42\"^^xsd:integer , \"7\"^^<http://ex.org/dt> }",
    )
    .unwrap();
    let over = "SELECT ?o WHERE { <http://s> <http://p> ?o FILTER(?o > 41) }";
    let rows = ds.query(over).unwrap().into_rows().unwrap();
    assert_eq!(rows.len(), 1);
    assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "42");

    let mut reopened = Dataset::in_memory();
    reopened
        .load_turtle(&ntriples::serialize(ds.active()))
        .unwrap();
    let terms = |ds: &Dataset| {
        let g = ds.active();
        let mut t: Vec<String> = g.iter().map(|t| format!("{:?}", g.term(t.o))).collect();
        t.sort();
        t
    };
    assert_eq!(terms(&ds), terms(&reopened));
    let rows = reopened.query(over).unwrap().into_rows().unwrap();
    assert_eq!(rows.len(), 1);
}

/// A whole real of 1e15 or more, and a double that is not finite, is
/// written so that it reads back as the same double, by the term writer
/// and by N-Triples.
#[test]
fn huge_whole_reals_keep_their_type_through_text() {
    let reals = [
        1e15,
        -1e15,
        2.5e18,
        1e20,
        f64::MAX,
        f64::INFINITY,
        -f64::INFINITY,
        f64::NAN,
    ];
    for r in reals {
        let mut graph = Graph::new();
        let (s, p) = (Term::uri("http://ex.org/s"), Term::uri("http://ex.org/p"));
        let shown = format!("{s} {p} {} .", Term::double(r));
        graph.insert(s, p, Term::double(r));
        let texts = [shown, ntriples::serialize(&graph)];
        for text in texts {
            let mut back = Graph::new();
            turtle::parse_into(&mut back, &text).unwrap_or_else(|e| panic!("{text}: {e}"));
            let o = back.iter().next().expect("one triple").o;
            let term = back.term(o);
            assert!(
                term.same_node(&Term::double(r)),
                "{text} read back as {term:?}"
            );
        }
    }
}

/// An array's text, whole and with non-finite elements as typed
/// literals, reads back as the same array in Turtle and in a query.
#[test]
fn an_array_reads_back_from_its_text_in_turtle_and_in_a_query() {
    let reals: Vec<f64> = (0..30).map(|i| i as f64 / 4.0).chain(EDGE_REALS).collect();
    let arrays = [
        NumArray::from_i64((0..40).collect()),
        NumArray::from_f64(reals),
        NumArray::from_f64_shaped(EDGE_REALS.repeat(3), &[3, 6]).unwrap(),
    ];
    for a in arrays {
        let text = Term::Array(a.clone()).to_string();
        let mut loaded = Dataset::in_memory();
        let ttl = format!("{}ex:s ex:p {text} .", prefixes("@prefix", " ."));
        loaded
            .load_turtle(&ttl)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        let mut inserted = Dataset::in_memory();
        let update = format!(
            "{}INSERT DATA {{ ex:s ex:p {text} }}",
            prefixes("PREFIX", "")
        );
        inserted
            .query(&update)
            .unwrap_or_else(|e| panic!("{text}: {e}"));
        for ds in [&loaded, &inserted] {
            let back = object(ds);
            let back = back.as_array().expect("an array");
            assert_eq!(back.shape(), a.shape(), "{text}");
            let bits = |a: &NumArray| {
                a.elements()
                    .iter()
                    .map(|n| format!("{n:?}"))
                    .collect::<Vec<_>>()
            };
            assert_eq!(bits(back), bits(&a), "{text}");
        }
    }
}

/// A `-` right before a number in an expression is its sign, as in a
/// pattern, so a FILTER finds the `i64::MIN` Turtle stored; a binary
/// minus still subtracts, and a power still binds before the sign.
#[test]
fn a_negative_literal_reads_the_same_in_an_expression() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://s> <http://p> -9223372036854775808 .")
        .unwrap();
    let filters = [
        "?o = -9223372036854775808",
        "?o < -9223372036854775807",
        "?o + 1 = -9223372036854775807",
        "3 -1 = 2",
        "3 - -1 = 4",
        "-2^2 = -4",
        "-2.5 * 2 = -5",
    ];
    for filter in filters {
        let q = format!("ASK {{ <http://s> <http://p> ?o FILTER({filter}) }}");
        let answer = ds.query(&q).unwrap_or_else(|e| panic!("{q}: {e}"));
        assert_eq!(answer.as_bool(), Some(true), "{q}");
    }
}

/// Doubles at the edges of the number syntax.
const EDGE_REALS: [f64; 6] = [f64::NAN, f64::INFINITY, -f64::INFINITY, -0.0, 1e300, -1e300];

/// A generated term, for its `Display` text.
fn terms() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-zA-Z0-9_.%/#éλ日ф😀-]{0,12}".prop_map(|s| Term::uri(format!("http://ex.org/{s}"))),
        "[ -~é☃😀\n\t\r]{0,16}".prop_map(Term::str),
        ("[ -~é日]{0,8}", "[a-z]{1,8}").prop_map(|(value, lang)| Term::LangStr { value, lang }),
        any::<i64>().prop_map(Term::integer),
        (-1.0e18f64..1.0e18).prop_map(Term::double),
        (-1.0e300f64..1.0e300).prop_map(Term::double),
        (0..EDGE_REALS.len()).prop_map(|i| Term::double(EDGE_REALS[i])),
        (-1.0f64..1.0).prop_map(|r| Term::double(r / 1.0e9)),
        any::<bool>().prop_map(Term::Bool),
        ("[a-z][a-z0-9_.-]{0,6}[a-z0-9]").prop_map(Term::blank),
        ("[ -~é]{0,8}", "[a-z]{1,6}").prop_map(|(value, dt)| Term::Typed {
            value,
            datatype: format!("http://ex.org/dt/{dt}"),
        }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn generated_terms_read_the_same_in_turtle_and_in_a_query(term in terms()) {
        let text = term.to_string();
        prop_assert!(check(&text).is_ok(), "{text}: {:?}", check(&text));
    }
}
