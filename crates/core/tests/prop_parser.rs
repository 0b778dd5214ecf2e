//! Parser robustness: arbitrary input must never panic or hang — only
//! return `Ok` or a positioned parse error — and valid queries survive a
//! parse → execute cycle without engine panics.
//!
//! Every case runs under a watchdog thread ([`common::within`]), so a
//! parser that loops fails the test instead of stalling the run. The
//! SciSPARQL parser and the Turtle loader read the same inputs.

mod common;

use proptest::prelude::*;

/// Parse `input` as a statement and load it as Turtle, under the
/// watchdog.
fn both_end(input: String) {
    common::within(10, move || {
        let _ = scisparql::parser::parse(&input);
        let _ = ssdm_rdf::turtle::parse_into(&mut ssdm_rdf::Graph::new(), &input);
    });
}

/// Tokens of both grammars, term syntax and its broken pieces included.
const PIECES: &str = r#"SELECT ASK WHERE INSERT DATA PREFIX @prefix { } ( ) [ ] ?x ?a FILTER
    OPTIONAL UNION GRAPH BIND AS VALUES EXISTS . ; , : * + - ! / ^ ^^ | < > a <http://p>
    <http://ex.org/café> <http://ex.org/\u00E9> "str" """long""" '''x''' "\u2603" """ " ' \
    \u00 \U0001F6 @en xsd:integer my-ns: ex:a%20b ex:a.b _:b.1 _: 42 3.5 1e -7 .5 é ☃ 😀 #
    true COUNT GROUP BY LIMIT"#;

/// [`PIECES`] in any order, glued or spaced.
fn fragments() -> impl Strategy<Value = String> {
    let pieces: Vec<&str> = PIECES.split_whitespace().collect();
    prop::collection::vec((0..pieces.len(), any::<bool>()), 0..40).prop_map(move |picks| {
        picks
            .into_iter()
            .map(|(i, spaced)| format!("{}{}", pieces[i], if spaced { " " } else { "" }))
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Arbitrary ASCII garbage never panics the lexer/parser.
    #[test]
    fn garbage_never_panics(input in "[ -~\\n\\t]{0,200}") {
        both_end(input);
    }

    /// Garbage with multibyte characters, escapes and quotes in it.
    #[test]
    fn unicode_garbage_never_panics(input in "[ -~\\n\\té☃😀\u{0}\u{7f}\u{80}-\u{ff}]{0,200}") {
        both_end(input);
    }

    /// Garbage built from SPARQL-ish tokens never panics either (this
    /// reaches deeper into the grammar than pure noise).
    #[test]
    fn tokeny_garbage_never_panics(tokens in prop::collection::vec(
        prop_oneof![
            Just("SELECT".to_string()),
            Just("ASK".to_string()),
            Just("WHERE".to_string()),
            Just("{".to_string()),
            Just("}".to_string()),
            Just("(".to_string()),
            Just(")".to_string()),
            Just("[".to_string()),
            Just("]".to_string()),
            Just("?x".to_string()),
            Just("?a".to_string()),
            Just("FILTER".to_string()),
            Just("OPTIONAL".to_string()),
            Just("UNION".to_string()),
            Just("GRAPH".to_string()),
            Just("BIND".to_string()),
            Just("AS".to_string()),
            Just(".".to_string()),
            Just(";".to_string()),
            Just(",".to_string()),
            Just(":".to_string()),
            Just("*".to_string()),
            Just("+".to_string()),
            Just("/".to_string()),
            Just("^".to_string()),
            Just("|".to_string()),
            Just("<http://p>".to_string()),
            Just("\"str\"".to_string()),
            Just("42".to_string()),
            Just("3.5".to_string()),
            Just("a".to_string()),
            Just("COUNT".to_string()),
            Just("GROUP".to_string()),
            Just("BY".to_string()),
            Just("ORDER".to_string()),
            Just("LIMIT".to_string()),
        ],
        0..40,
    )) {
        both_end(tokens.join(" "));
    }

    /// Both grammars' tokens and term syntax, glued or spaced.
    #[test]
    fn term_fragments_never_panic(input in fragments()) {
        both_end(input);
    }

    /// Queries that do parse execute without panicking against a small
    /// dataset (they may legitimately error or return empty results).
    #[test]
    fn parsed_queries_execute_safely(tokens in prop::collection::vec(
        prop_oneof![
            Just("?s".to_string()),
            Just("?o".to_string()),
            Just("?v".to_string()),
            Just("<http://p>".to_string()),
            Just("<http://q>".to_string()),
            Just("1".to_string()),
            Just("\"x\"".to_string()),
            Just(".".to_string()),
        ],
        3..12,
    )) {
        let body = tokens.join(" ");
        let q = format!("SELECT * WHERE {{ {body} }}");
        common::within(10, move || {
            if let Ok(stmt) = scisparql::parser::parse(&q) {
                let mut ds = scisparql::Dataset::in_memory();
                ds.load_turtle(
                    "<http://s> <http://p> 1 . <http://s> <http://q> (1 2 3) .",
                ).unwrap();
                let _ = ds.execute(stmt);
            }
        });
    }
}

/// Statements cut short and stray keywords, each of which once made the
/// group loop spin forever, end in a positioned error.
#[test]
fn unterminated_groups_and_stray_keywords_are_errors() {
    for text in [
        "ASK {",
        "ASK { ?s",
        "SELECT * WHERE { ?s ?p ?o",
        "SELECT * WHERE { ?s ?p ?o .",
        "SELECT * WHERE { OPTIONAL {",
        "SELECT * WHERE { UNION }",
        "SELECT * WHERE { ?s ?p ?o UNION }",
        "ASK { { } UNION",
        "ASK { FILTER(?x IN (1,",
        "ASK { VALUES ?x { 1",
        "INSERT DATA { <http://s> <http://p> (1",
        "CONSTRUCT { ?s ?p ?o } WHERE {",
    ] {
        let input = text.to_string();
        match common::within(10, move || scisparql::parser::parse(&input)) {
            Err(scisparql::QueryError::Parse { .. }) => {}
            other => panic!("{text}: {other:?}"),
        }
    }
}

/// The string literals of Rust source: `"…"` (with `\"`, `\\`, `\n`,
/// `\t` and line continuations decoded) and raw `r"…"`, `r#"…"#`.
fn string_literals(src: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut rest = src;
    while let Some(i) = rest.find(['"', '/']) {
        let (before, at) = rest.split_at(i);
        if let Some(comment) = at.strip_prefix("//") {
            rest = comment.split_once('\n').map_or("", |(_, r)| r);
            continue;
        }
        if let Some(after) = at.strip_prefix('/') {
            rest = after;
            continue;
        }
        let hashes = before.len() - before.trim_end_matches('#').len();
        if before[..before.len() - hashes].ends_with('r') {
            let close = format!("\"{}", "#".repeat(hashes));
            let (body, after) = at[1..]
                .split_once(close.as_str())
                .expect("closed raw string");
            out.push(body.to_string());
            rest = after;
            continue;
        }
        let mut body = String::new();
        let mut chars = at[1..].char_indices();
        let end = loop {
            match chars.next().expect("closed string") {
                (k, '"') => break k,
                (_, '\\') => match chars.next().expect("escape").1 {
                    'n' => body.push('\n'),
                    't' => body.push('\t'),
                    '\n' => {
                        while chars.clone().next().is_some_and(|(_, c)| c.is_whitespace()) {
                            chars.next();
                        }
                    }
                    c => body.push(c),
                },
                (_, c) => body.push(c),
            }
        };
        out.push(body);
        rest = &at[1 + end + 1..];
    }
    out
}

/// The `sparql` code blocks of the language manual, whole and by line.
fn manual_statements() -> Vec<String> {
    let manual = include_str!("../../../docs/LANGUAGE.md");
    let mut out = Vec::new();
    for block in manual.split("```sparql").skip(1) {
        let block = block.split("```").next().unwrap_or("");
        out.push(block.to_string());
        out.extend(
            block
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(String::from),
        );
    }
    out
}

/// Every byte prefix of every statement in the query tests and the
/// manual parses to `Ok` or to an error: cut anywhere, a statement
/// never hangs or panics the parser.
#[test]
fn every_prefix_of_every_known_statement_ends() {
    let mut statements = string_literals(include_str!("queries.rs"));
    statements.retain(|s| {
        ["SELECT", "ASK", "INSERT", "DELETE", "DEFINE"]
            .iter()
            .any(|k| s.contains(k))
    });
    assert!(
        statements.len() > 60,
        "found {} statements",
        statements.len()
    );
    statements.extend(manual_statements());
    for statement in statements {
        common::within(60, move || {
            let bytes = statement.as_bytes();
            for end in 0..=bytes.len() {
                let _ = scisparql::parser::parse(&String::from_utf8_lossy(&bytes[..end]));
            }
        });
    }
}
