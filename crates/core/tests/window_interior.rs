//! The interior rule of a window `FILTER`, differentially at the
//! numeric edges. A filter that is exactly one window on one variable
//! passes a numeric node strictly inside the window without evaluating
//! its comparisons (DESIGN.md "The numeric value index"). Every such
//! filter must select what its `?v + 0` twin selects — the same filter
//! to the evaluator, nothing the planner or the rule recognizes — under
//! every planner mode, with the variable bound by a ranged scan, by a
//! probe whose subject is already bound (every object arrives as an id,
//! NaN included), by `VALUES` (ids, no scan at all) and by `BIND` (values
//! without an id, which the rule leaves to the comparison).
//!
//! No shape joins `VALUES` with a scan on the filtered variable: such a
//! join binds by value while a probe matches by id, so objects that are
//! equal but distinct terms (`-0.0`, `0.0`, `0`) multiply differently
//! under different join orders — with or without a window.

use scisparql::{Dataset, PlannerConfig, PlannerMode, QueryResult};
use ssdm_rdf::Term;

const PROLOGUE: &str = "PREFIX ex: <http://example.org/>\n";
const TWO_53: i64 = 1 << 53;

/// The objects of `ex:v`: 2⁵³−1, 2⁵³, 2⁵³+1 and their negatives as Int
/// and as Real, both zeros, NaN, both infinities, a few small numbers,
/// a string and a typed literal.
fn objects() -> Vec<Term> {
    let mut out = Vec::new();
    for n in [TWO_53 - 1, TWO_53, TWO_53 + 1] {
        for v in [n, -n] {
            out.push(Term::integer(v));
            out.push(Term::double(v as f64));
        }
    }
    let reals = [
        -0.0,
        0.0,
        f64::NAN,
        f64::INFINITY,
        f64::NEG_INFINITY,
        2.5,
        -2.5,
    ];
    out.extend(reals.map(Term::double));
    out.extend([-1, 0, 2, 3].map(Term::integer));
    out.push(Term::str("5"));
    out.push(Term::Typed {
        value: "7".into(),
        datatype: "http://example.org/dt".into(),
    });
    out
}

/// The same objects as `VALUES` cells, where the query language can
/// write them (it has no NaN).
const VALUES: &str = "9007199254740991 9007199254740991.0 -9007199254740991 -9007199254740991.0 \
    9007199254740992 9007199254740992.0 -9007199254740992 -9007199254740992.0 \
    9007199254740993 9007199254740993.0 -9007199254740993 -9007199254740993.0 \
    -0.0 0.0 1e400 -1e400 2.5 -2.5 -1 0 2 3 \"5\" \"7\"^^ex:dt";

/// `ex:x{i} ex:v object_i ; ex:tag "t"`.
fn dataset() -> Dataset {
    let mut ds = Dataset::in_memory();
    let (v, tag) = (
        Term::uri("http://example.org/v"),
        Term::uri("http://example.org/tag"),
    );
    for (i, o) in objects().into_iter().enumerate() {
        let x = Term::uri(format!("http://example.org/x{i}"));
        ds.graph.insert(x.clone(), v.clone(), o);
        ds.graph.insert(x, tag.clone(), Term::str("t"));
    }
    ds
}

/// Every constant a bound takes, as written: Int and Real spellings of
/// the edges (`9007199254740993.0` is 2⁵³ as a double), the zeros, the
/// infinities (`1e400`) and small values that equal an object.
const BOUNDS: [&str; 22] = [
    "-1e400",
    "-9007199254740993",
    "-9007199254740993.0",
    "-9007199254740992",
    "-9007199254740991",
    "-9007199254740991.0",
    "-2.5",
    "-1",
    "-0.0",
    "0",
    "0.0",
    "2",
    "2.5",
    "3",
    "9007199254740991",
    "9007199254740991.0",
    "9007199254740992",
    "9007199254740992.0",
    "9007199254740993",
    "9007199254740993.0",
    "1e400",
    "5",
];

/// Every filter under test, with the variable written `{V}`.
fn filters() -> Vec<String> {
    // (`?v op c`, the same comparison as `c op ?v`, a lower bound?)
    let ops = [
        ("<", ">", false),
        ("<=", ">=", false),
        (">", "<", true),
        (">=", "<=", true),
    ];
    let mut out = Vec::new();
    // One-sided, both spellings.
    for c in BOUNDS {
        for (op, flipped, _) in ops {
            out.push(format!("{{V}} {op} {c}"));
            out.push(format!("{c} {flipped} {{V}}"));
        }
    }
    // Two-sided, strict and inclusive at each end, including windows
    // whose ends cross (empty) or meet.
    let edges = [0, 2, 6, 8, 9, 12, 17, 18, 19, 20];
    for (i, &lo) in edges.iter().enumerate() {
        for (j, &hi) in edges.iter().enumerate() {
            let (lower, upper) = (ops[2 + (i + j) % 2].0, ops[(i * 3 + j) % 2].0);
            let (lo, hi) = (BOUNDS[lo], BOUNDS[hi]);
            if (i + j) % 3 == 0 {
                out.push(format!("{hi} {} {{V}} && {{V}} {lower} {lo}", flip(upper)));
            } else {
                out.push(format!("{{V}} {lower} {lo} && {{V}} {upper} {hi}"));
            }
        }
    }
    // Two filters on one variable tighten one window.
    out.push("{V} > 2 && {V} >= 2.5 && {V} < 9007199254740993".into());
    out.push("{V} >= 9007199254740993 && {V} > 9007199254740992".into());
    out
}

fn flip(op: &str) -> &str {
    match op {
        "<" => ">",
        "<=" => ">=",
        ">" => "<",
        _ => "<=",
    }
}

/// Run a query and normalize the result to a sorted row multiset.
fn row_multiset(ds: &mut Dataset, query: &str) -> Vec<String> {
    let result = ds.query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    let QueryResult::Solutions { vars, rows } = result else {
        panic!("expected solutions for {query}");
    };
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            let cells = vars.iter().zip(r).map(|(v, c)| match c {
                Some(val) => format!("{v}={val}"),
                None => format!("{v}=∅"),
            });
            cells.collect::<Vec<_>>().join("|")
        })
        .collect();
    out.sort();
    out
}

fn config(mode: PlannerMode) -> PlannerConfig {
    PlannerConfig {
        mode,
        calibration: false,
    }
}

#[test]
fn window_filters_equal_their_twins_at_the_numeric_edges() {
    let mut ds = dataset();
    let shapes = [
        "?x ex:v ?v . FILTER({F})".to_string(),
        "?x ex:tag ?t . ?x ex:v ?v . FILTER({F})".to_string(),
        format!("VALUES ?v {{ {VALUES} }} FILTER({{F}})"),
        "?x ex:v ?o . BIND(?o AS ?v) FILTER({F})".to_string(),
    ];
    let modes = [PlannerMode::Textual, PlannerMode::Greedy, PlannerMode::Dp];
    let (mut cases, mut nonempty) = (0, 0);
    for filter in filters() {
        for shape in &shapes {
            let query = |var: &str| {
                let filter = filter.replace("{V}", var);
                format!(
                    "{PROLOGUE}SELECT * WHERE {{ {} }}",
                    shape.replace("{F}", &filter)
                )
            };
            let (pushed, twin) = (query("?v"), query("(?v + 0)"));
            ds.planner = config(PlannerMode::Textual);
            let oracle = row_multiset(&mut ds, &twin);
            for mode in modes {
                ds.planner = config(mode);
                let got = row_multiset(&mut ds, &pushed);
                assert_eq!(got, oracle, "{mode:?}\n{pushed}\n{twin}");
            }
            cases += 1;
            nonempty += usize::from(!oracle.is_empty());
        }
    }
    assert!(cases > 1000, "{cases} cases");
    assert!(
        nonempty * 4 > cases * 3,
        "only {nonempty} of {cases} select anything"
    );
}

#[test]
fn edge_windows_select_what_the_comparison_says() {
    // Hand-checked answers, so the twins cannot both be wrong: the
    // integers beyond 2⁵³ compare exactly, a real compares as itself.
    let mut ds = dataset();
    let count = |ds: &mut Dataset, filter: &str| {
        let q = format!("{PROLOGUE}SELECT ?v WHERE {{ ?x ex:v ?v FILTER({filter}) }}");
        row_multiset(ds, &q).len()
    };
    // The integer 2⁵³+1 and infinity; the real 2⁵³+1 is 2⁵³.
    assert_eq!(count(&mut ds, "?v > 9007199254740992"), 2);
    // Below infinity, the integer alone.
    assert_eq!(count(&mut ds, "?v > 9007199254740992 && ?v < 1e400"), 1);
    // 2⁵³−1 as Int and as Real and the integer 2⁵³; the real 2⁵³ is
    // not below `9007199254740993`, which is 2⁵³ as a double.
    assert_eq!(
        count(&mut ds, "?v >= 9007199254740991 && ?v < 9007199254740993"),
        3
    );
    // The zeros are equal: not above each other.
    assert_eq!(count(&mut ds, "?v > -0.0 && ?v < 2"), 0);
    assert_eq!(count(&mut ds, "?v >= -0.0 && ?v <= 0"), 3);
    // An empty window and one that is a single point.
    assert_eq!(count(&mut ds, "?v > 3 && ?v < 2"), 0);
    assert_eq!(count(&mut ds, "2.5 <= ?v && ?v <= 2.5"), 1);
}
