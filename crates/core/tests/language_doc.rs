//! The closure examples of docs/LANGUAGE.md §4.2, run as written.
//!
//! The test reads the section's code block from the manual itself:
//! each `DEFINE` line is executed, and each expression line is selected
//! over `?a = (1 2 3)` and `?b = (10 20 30)` and checked against the
//! value listed here. An expression added to the manual without a value
//! here, or a value here the manual no longer shows, fails the test.

use scisparql::Dataset;

const MANUAL: &str = include_str!("../../../docs/LANGUAGE.md");

/// Every expression of the §4.2 block and its value.
const EXPECTED: [(&str, &str); 5] = [
    ("array_map(scale(10, ?_), ?a)", "(10 20 30)"),
    ("array_map(plus, ?a, ?b)", "(11 22 33)"),
    ("array_condense(plus, ?a)", "6"),
    (
        "array_build(array(3,3), cell)",
        "((11 12 13) (21 22 23) (31 32 33))",
    ),
    ("apply(scale(2, ?_), 21)", "42"),
];

/// The lines of the first code block after the §4.2 heading.
fn section_block() -> Vec<&'static str> {
    let section = MANUAL
        .split("### 4.2 ")
        .nth(1)
        .expect("the manual has a §4.2");
    let block = section.split("```").nth(1).expect("§4.2 has a code block");
    block.lines().skip(1).collect()
}

#[test]
fn every_closure_example_in_the_manual_runs_and_gives_its_value() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle("<http://e/m> <http://e/a> (1 2 3) ; <http://e/b> (10 20 30) .")
        .unwrap();
    let mut checked = Vec::new();
    for line in section_block() {
        let code = line.split('#').next().unwrap_or("").trim();
        if code.is_empty() {
            continue;
        }
        if code.starts_with("DEFINE FUNCTION") {
            ds.query(code).unwrap_or_else(|e| panic!("{code}: {e}"));
            continue;
        }
        let query = format!(
            "SELECT ({code} AS ?v) WHERE {{ <http://e/m> <http://e/a> ?a ; <http://e/b> ?b }}"
        );
        let rows = ds
            .query(&query)
            .unwrap_or_else(|e| panic!("{code}: {e}"))
            .into_rows()
            .unwrap();
        let got = rows[0][0]
            .as_ref()
            .unwrap_or_else(|| panic!("{code}: unbound"))
            .to_string();
        let want = EXPECTED
            .iter()
            .find(|(expr, _)| *expr == code)
            .unwrap_or_else(|| panic!("no expected value for the manual's `{code}`"))
            .1;
        assert_eq!(got, want, "{code}");
        checked.push(code);
    }
    let missing: Vec<_> = EXPECTED
        .iter()
        .filter(|(expr, _)| !checked.contains(expr))
        .collect();
    assert!(missing.is_empty(), "not in the manual: {missing:?}");
}
