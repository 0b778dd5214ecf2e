//! The nesting bound: every way a statement or a Turtle object nests
//! parses, plans and evaluates at `MAX_NESTING` levels on a 2 MiB
//! thread (the stack of a spawned thread, in a debug build), and one
//! level more is a positioned syntax error, not a stack overflow.

mod common;

use scisparql::parser::MAX_PATTERNS;
use scisparql::{Dataset, QueryError};
use ssdm_rdf::lex::MAX_NESTING;
use ssdm_rdf::RdfError;

/// `open`×k, `inner`, `close`×k inside `before … after`.
fn nest(before: &str, open: &str, inner: &str, close: &str, after: &str, k: usize) -> String {
    format!(
        "{before}{}{inner}{}{after}",
        open.repeat(k),
        close.repeat(k)
    )
}

/// A nesting form: its text for a repetition count.
type Form = fn(usize) -> String;

/// Each query form, with how many levels the statement around the
/// repetitions takes.
fn query_forms() -> Vec<(&'static str, usize, Form)> {
    vec![
        ("parentheses", 2, |k| {
            nest("ASK { FILTER(", "(", "1", ")", ") }", k)
        }),
        ("unary chain", 2, |k| {
            nest("ASK { FILTER(", "-", "1", "", ") }", k)
        }),
        ("calls", 2, |k| {
            nest("ASK { FILTER(", "abs(", "1", ")", ") }", k)
        }),
        ("power chain", 2, |k| {
            nest("ASK { FILTER(", "2^", "1", "", " > 0) }", k)
        }),
        ("subscripts", 2, |k| {
            nest("ASK { FILTER(", "?a[", "1", "]", " != 0) }", k)
        }),
        // A chain of k operators nests its first operand k deep.
        ("`||` chain", 1, |k| {
            nest("ASK { FILTER(", "?x = 1 || ", "?x = 1", "", ") }", k)
        }),
        ("`+` chain", 1, |k| {
            nest("ASK { FILTER(", "1 + ", "1", "", " > 0) }", k)
        }),
        ("`*` chain", 1, |k| {
            nest("ASK { FILTER(", "1 * ", "1", "", " > 0) }", k)
        }),
        ("subscript chain", 2, |k| {
            nest("ASK { FILTER(?a", "[1]", "", "", " != 0) }", k)
        }),
        ("groups", 0, |k| nest("ASK ", "{", "", "}", "", k)),
        // Each FILTER or OPTIONAL of a group wraps its plan once more.
        ("FILTERs of a group", 1, |k| {
            nest("ASK { ?s ?p ?o ", "FILTER(?o != 1) ", "", "", "}", k)
        }),
        ("OPTIONALs of a group", 1, |k| {
            nest("ASK { ?s ?p ?o ", "OPTIONAL { ?s ?p ?o } ", "", "", "}", k)
        }),
        // More join children along the way than stream at once.
        ("OPTIONALs of wide groups", 1, |k| {
            let open = format!("{}OPTIONAL {{ ", "?s ?p ?o . ".repeat(8));
            nest("ASK { ", &open, "", "} ", "}", k)
        }),
        ("sub-selects", 1, |k| {
            nest("ASK { ", "{ SELECT * WHERE { ", "", "} }", " }", k)
        }),
        ("EXISTS", 1, |k| {
            nest("ASK { ", "FILTER EXISTS { ", "", "}", " }", k)
        }),
        ("[ ]", 1, |k| {
            nest("ASK { ?s ?p ", "[ ?p ", "?o", " ]", " }", k)
        }),
        ("path brackets", 1, |k| {
            nest("ASK { ?s ", "(", "<http://p>", ")", " ?o }", k)
        }),
        ("`/` path", 1, |k| {
            nest("ASK { ?s ", "<http://p>/", "<http://p>", "", " ?o }", k)
        }),
        ("`|` path", 1, |k| {
            nest("ASK { ?s ", "<http://p>|", "<http://p>", "", " ?o }", k)
        }),
        ("path modifiers", 1, |k| {
            nest("ASK { ?s <http://p>", "?", "", "", " ?o }", k)
        }),
        ("pattern collections", 1, |k| {
            nest("ASK { ?s ?p ", "(", "1", ")", " }", k)
        }),
        ("INSERT DATA collections", 0, |k| {
            nest(
                "INSERT DATA { <http://s> <http://p> ",
                "(",
                "1",
                ")",
                " }",
                k,
            )
        }),
    ]
}

fn run(statement: String) -> Result<(), QueryError> {
    common::within(60, move || {
        let mut ds = Dataset::in_memory();
        ds.load_turtle("<http://s> <http://p> <http://o> .")
            .unwrap();
        ds.query(&statement).map(drop)
    })
}

#[test]
fn each_query_form_runs_at_the_bound_and_is_refused_past_it() {
    for (name, around, form) in query_forms() {
        let k = MAX_NESTING - around;
        if let Err(e) = run(form(k)) {
            panic!("{name} at the bound: {e}");
        }
        match run(form(k + 1)) {
            Err(QueryError::Parse { msg, .. }) => {
                assert!(msg.contains("nested deeper than"), "{name}: {msg}")
            }
            other => panic!("{name} past the bound: {other:?}"),
        }
    }
}

#[test]
fn each_turtle_form_loads_at_the_bound_and_is_refused_past_it() {
    let forms: [(&str, Form); 3] = [
        ("collections", |k| {
            nest("<http://s> <http://p> ", "(", "1", ")", " .", k)
        }),
        ("lists", |k| {
            nest("<http://s> <http://p> ", "(\"x\" ", "", ")", " .", k)
        }),
        ("[ ]", |k| {
            nest(
                "<http://s> <http://p> ",
                "[ <http://p> ",
                "1",
                " ]",
                " .",
                k,
            )
        }),
    ];
    for (name, form) in forms {
        let load = |text: String| {
            common::within(60, move || {
                let mut ds = Dataset::in_memory();
                ds.load_turtle(&text)?;
                ds.query("SELECT * WHERE { ?s ?p ?o }").map(drop)
            })
        };
        if let Err(e) = load(form(MAX_NESTING)) {
            panic!("{name} at the bound: {e}");
        }
        match load(form(MAX_NESTING + 1)) {
            Err(QueryError::Rdf(RdfError::Parse { msg, .. })) => {
                assert!(msg.contains("nested deeper than"), "{name}: {msg}")
            }
            other => panic!("{name} past the bound: {other:?}"),
        }
    }
}

/// Far past the bound, the refusal comes as quickly, on the same stack.
#[test]
fn a_statement_nested_far_past_the_bound_is_refused() {
    for statement in [
        nest("ASK { FILTER(", "(", "1", ")", ") }", 100_000),
        nest("ASK ", "{", "", "}", "", 100_000),
        nest("ASK { FILTER(", "1 + ", "1", "", " > 0) }", 100_000),
        nest("ASK { FILTER(", "?x = 1 || ", "?x = 1", "", ") }", 100_000),
        nest(
            "ASK { ?s ",
            "<http://p>/",
            "<http://p>",
            "",
            " ?o }",
            100_000,
        ),
        nest("ASK { FILTER(?a", "[1]", "", "", " != 0) }", 100_000),
        nest("ASK { ?s ?p ?o ", "FILTER(?o != 1) ", "", "", "}", 3_000),
        nest(
            "ASK { ?s ?p ?o ",
            "OPTIONAL { ?s ?p ?o } ",
            "",
            "",
            "}",
            3_000,
        ),
        nest(
            "INSERT DATA { <http://s> <http://p> ",
            "(",
            "1",
            ")",
            " }",
            100_000,
        ),
    ] {
        assert!(matches!(run(statement), Err(QueryError::Parse { .. })));
    }
}

/// A group's triple patterns make one join, which runs on a stack of
/// bounded depth however wide it is; a statement of more than
/// `MAX_PATTERNS` triple patterns is refused.
#[test]
fn a_wide_group_of_triple_patterns_answers_on_a_small_stack() {
    let wide = |k| nest("ASK { ", "?s ?p ?o . ", "", "", "}", k);
    for k in [3_000, MAX_PATTERNS] {
        if let Err(e) = run(wide(k)) {
            panic!("{k} patterns: {e}");
        }
    }
    for k in [MAX_PATTERNS + 1, 100_000] {
        match run(wide(k)) {
            Err(QueryError::Parse { msg, .. }) => assert!(msg.contains("triple patterns"), "{msg}"),
            other => panic!("{k} patterns: {other:?}"),
        }
    }
}
