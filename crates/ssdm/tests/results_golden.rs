//! Golden bytes for the four SPARQL result formats.
//!
//! `tests/golden/results.golden` holds what the serializer produced for
//! `cases()` at commit 79e6c4f, before it stopped copying rows and
//! lexical forms on the way out; whatever is done to make it faster,
//! these bytes stay. Every term kind, every character each format
//! escapes, unbound cells, empty tables and every non-SELECT result
//! kind is in there. To add a case, append it (a new section at the end
//! of the golden file) — never re-generate the existing sections from
//! the code under test. Two deliberate edits since, made by hand: the
//! `numbers` sections spell a non-finite double as the `xsd:double`
//! lexical forms `INF`, `-INF` and `NaN` (typed literals in TSV), where
//! the serializer used to write Rust's `inf` and `-inf`; and a whole
//! double of 1e15 or more is spelt with an exponent, `1e15` in the
//! `numbers` sections and `1.5e300` in the `kinds` sections, where the
//! serializer used to write all its digits, which a reader takes for an
//! integer.

use scisparql::{Closure, QueryResult, Value};
use ssdm::http::results::serialize;
use ssdm::http::Format;
use ssdm::{Backend, Ssdm};
use ssdm_array::NumArray;
use ssdm_rdf::Term;

fn solutions(vars: &[&str], rows: Vec<Vec<Option<Value>>>) -> QueryResult {
    QueryResult::Solutions {
        vars: vars.iter().map(|s| s.to_string()).collect(),
        rows,
    }
}

fn term(t: Term) -> Option<Value> {
    Some(Value::Term(t))
}

fn cases() -> Vec<(&'static str, QueryResult)> {
    // Everything JSON, XML, CSV or TSV escapes, plus what they must not.
    let nasty = "q\"uote b\\ack n\nl r\rr t\tb c\u{1}\u{1f} a&b <x> 'y' , ; é ✓ 🦀 end";
    let kinds = solutions(
        &[
            "uri", "bnode", "str", "lang", "int", "real", "bool", "typed",
        ],
        vec![
            vec![
                term(Term::uri("http://e/a?x=1&y=<2>\"z\"")),
                term(Term::blank("b0")),
                term(Term::str(nasty)),
                term(Term::LangStr {
                    value: nasty.into(),
                    lang: "en-GB".into(),
                }),
                Some(Value::integer(-42)),
                Some(Value::double(47.125)),
                Some(Value::boolean(true)),
                term(Term::Typed {
                    value: "2024-01-01 <&>".into(),
                    datatype: "http://www.w3.org/2001/XMLSchema#date".into(),
                }),
            ],
            vec![
                term(Term::uri("")),
                term(Term::blank("a,b")),
                term(Term::str("")),
                None,
                Some(Value::integer(i64::MIN)),
                Some(Value::double(1.0)),
                Some(Value::boolean(false)),
                None,
            ],
            vec![None; 8],
            vec![
                None,
                None,
                term(Term::str("plain")),
                None,
                Some(Value::integer(9_007_199_254_740_993)),
                Some(Value::double(1.5e300)),
                None,
                None,
            ],
        ],
    );
    let numbers = solutions(
        &["n"],
        [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            1e15,
            1e-7,
            0.1 + 0.2,
        ]
        .into_iter()
        .map(|r| vec![Some(Value::double(r))])
        .collect(),
    );
    let arrays = solutions(
        &["vector", "matrix", "ref", "closure"],
        vec![vec![
            Some(Value::array(NumArray::from_i64(vec![1, 2, 3]))),
            Some(Value::array(
                NumArray::from_f64_shaped(vec![1.0, 2.5, -3.0, 4.0], &[2, 2]).unwrap(),
            )),
            term(Term::ArrayRef(17)),
            Some(Value::Closure(Closure::partial(
                "array_sum",
                vec![None, Some(Value::integer(2))],
            ))),
        ]],
    );
    // Headers are escaped too.
    let headers = solutions(
        &["a\"b", "c<d>&", "e,f", "g\th"],
        vec![vec![
            Some(Value::integer(1)),
            None,
            Some(Value::integer(3)),
            Some(Value::integer(4)),
        ]],
    );

    // Results the engine produced: array proxies, a CONSTRUCT graph
    // and an update count.
    let mut db = Ssdm::open(Backend::Memory);
    db.set_externalize_threshold(4, 64);
    db.load_turtle(
        "@prefix ex: <http://example.org/> .\n\
         ex:s1 ex:name \"one \\\"1\\\"\" ; ex:v 1.5 ; ex:data (1 2 3 4 5 6 7 8) .\n\
         ex:s2 ex:name \"two, <2>\"@en ; ex:v 2 ; ex:data ((1 2 3) (4 5 6)) .\n",
    )
    .unwrap();
    let p = "PREFIX ex: <http://example.org/> ";
    let mut run = |q: &str| db.query(&format!("{p}{q}")).unwrap();
    let proxies = run("SELECT ?s ?d (?d[2:3] AS ?slice) WHERE { ?s ex:data ?d } ORDER BY ?s");
    let graph = run("CONSTRUCT { ?s ex:label ?n ; ex:value ?v } WHERE { ?s ex:name ?n ; ex:v ?v }");
    let updated = run("INSERT DATA { ex:s3 ex:v 3 . ex:s4 ex:v 4 }");
    // Not the planner's text, which may change: the shape of one.
    let explain = QueryResult::Text(
        "Join   (est 2.0)\n  Filter Cmp(Gt, Var(\"v\"), Const(1))\n\n    Scan ?s <http://e/p> ?v [?v > 1 && ?v < 2]\ttab"
            .into(),
    );

    vec![
        ("kinds", kinds),
        ("numbers", numbers),
        ("arrays", arrays),
        ("headers", headers),
        ("no_rows", solutions(&["x", "y"], vec![])),
        ("no_vars", solutions(&[], vec![])),
        ("no_vars_one_row", solutions(&[], vec![vec![]])),
        ("ask_true", QueryResult::Boolean(true)),
        ("ask_false", QueryResult::Boolean(false)),
        ("proxies", proxies),
        ("construct", graph),
        ("update", updated),
        ("explain", explain),
    ]
}

/// Every case in every format, each under a `=== case.format` line.
fn rendered() -> Vec<u8> {
    let formats = [
        ("json", Format::Json),
        ("xml", Format::Xml),
        ("csv", Format::Csv),
        ("tsv", Format::Tsv),
    ];
    let mut out = Vec::new();
    for (name, result) in cases() {
        for (ext, format) in formats {
            out.extend_from_slice(format!("=== {name}.{ext}\n").as_bytes());
            out.extend_from_slice(&serialize(&result, format));
            out.push(b'\n');
        }
    }
    out
}

#[test]
fn all_four_formats_are_byte_identical_to_the_golden_file() {
    let golden: &[u8] = include_bytes!("golden/results.golden");
    let ours = rendered();
    if let Some(at) = ours.iter().zip(golden).position(|(a, b)| a != b) {
        let from = at.saturating_sub(80);
        panic!(
            "first difference at byte {at}:\n  golden: {:?}\n  ours:   {:?}",
            String::from_utf8_lossy(&golden[from..(at + 40).min(golden.len())]),
            String::from_utf8_lossy(&ours[from..(at + 40).min(ours.len())]),
        );
    }
    assert_eq!(
        ours.len(),
        golden.len(),
        "one output is a prefix of the other"
    );
}
