//! Differential planner matrix: every join-enumeration mode (textual,
//! greedy, DP), with and without calibration, must produce the *same
//! result multiset* for the same query — plans may differ, answers may
//! not.
//!
//! Queries are seeded random BGPs (star, chain and mixed shapes) with
//! random filters over a deterministic synthetic graph, so failures
//! reproduce exactly.

use scisparql::planner::{PlannerConfig, PlannerMode};
use scisparql::{Dataset, QueryResult};
use ssdm_rdf::Term;

/// Deterministic PRNG (splitmix64) — the suite must not depend on
/// ambient randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e3779b97f4a7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d049bb133111eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

const N_SUBJECTS: u64 = 160;

/// A synthetic graph with skewed predicates: typed subjects, a skewed
/// numeric score, link edges and group membership.
fn build_dataset() -> Dataset {
    let mut ds = Dataset::in_memory();
    let mut turtle = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..N_SUBJECTS {
        let ty = i % 4;
        // Skew: 90% of scores land in 0..10, the rest are large.
        let score = if i % 10 == 9 { 1000 + i } else { i % 10 };
        let link = (i * 7 + 3) % N_SUBJECTS;
        // Skewed group membership: "g0" holds 70% of subjects, so the
        // uniform count/distinct model *under*-estimates it, which the
        // calibration loop then corrects.
        let group = if i % 10 < 7 { 0 } else { i % 8 };
        turtle.push_str(&format!(
            "ex:s{i} ex:type \"t{ty}\" ; ex:score {score} ; \
             ex:link ex:s{link} ; ex:group \"g{group}\" .\n"
        ));
        if i % 3 == 0 {
            turtle.push_str(&format!("ex:s{i} ex:flag \"on\" .\n"));
        }
    }
    ds.load_turtle(&turtle).unwrap();
    ds
}

/// A connected BGP of 2–5 patterns: its text and its variables. With
/// `node_subjects`, only variables that bind nodes become subjects
/// (a literal in subject position matches nothing).
fn random_bgp(rng: &mut Rng, node_subjects: bool) -> (String, Vec<String>) {
    let n_triples = 2 + rng.below(4) as usize;
    let mut vars = vec!["?x".to_string()];
    let mut body = String::new();
    for t in 0..n_triples {
        let subjects: Vec<&String> = vars
            .iter()
            .filter(|v| !node_subjects || v.starts_with("?x") || v.starts_with("?l"))
            .collect();
        let subj = subjects[rng.below(subjects.len() as u64) as usize].clone();
        match rng.below(6) {
            0 => body.push_str(&format!("{subj} ex:type \"t{}\" . ", rng.below(4))),
            1 => {
                let v = format!("?s{t}");
                body.push_str(&format!("{subj} ex:score {v} . "));
                vars.push(v);
            }
            2 => {
                let v = format!("?l{t}");
                body.push_str(&format!("{subj} ex:link {v} . "));
                vars.push(v);
            }
            3 => body.push_str(&format!("{subj} ex:group \"g{}\" . ", rng.below(8))),
            4 => body.push_str(&format!("{subj} ex:flag \"on\" . ")),
            _ => {
                let v = format!("?g{t}");
                body.push_str(&format!("{subj} ex:group {v} . "));
                vars.push(v);
            }
        }
    }
    (body, vars)
}

const PROLOGUE: &str = "PREFIX ex: <http://example.org/> ";

/// One random query: a connected BGP of 2–5 patterns plus 0–2 filters.
fn random_query(rng: &mut Rng) -> String {
    let (mut body, vars) = random_bgp(rng, false);
    let score_vars: Vec<&String> = vars.iter().filter(|v| v.starts_with("?s")).collect();
    if let Some(sv) = score_vars.first() {
        match rng.below(4) {
            0 => body.push_str(&format!("FILTER({sv} > {}) ", rng.below(12))),
            1 => body.push_str(&format!("FILTER({sv} = {}) ", rng.below(10))),
            2 => body.push_str(&format!("FILTER({sv} < {} || {sv} > 900) ", rng.below(8))),
            _ => {}
        }
    }
    format!("{PROLOGUE}SELECT * WHERE {{ {body}}}")
}

/// A random range constant for a lower (`>`, `>=`) or an upper bound,
/// drawn so that most windows keep something: among the small scores,
/// among the large ones, and on the edges of the value order.
fn random_bound(rng: &mut Rng, lower: bool) -> &'static str {
    let pool: &[&str] = if lower {
        &[
            "-1",
            "-0.0",
            "0",
            "2",
            "2.5",
            "4",
            "8",
            "1000",
            "1099",
            "9007199254740992",
        ]
    } else {
        &[
            "3",
            "4.0",
            "7.5",
            "9",
            "5e2",
            "1050",
            "1159",
            "9007199254740993",
            "0",
            "-1",
        ]
    };
    pool[rng.below(pool.len() as u64) as usize]
}

/// One random query whose filter is sargable — a one-sided comparison,
/// a window, the constant on either side, one or two `FILTER`s — and
/// its twin with the variable disguised as `?v + 0`: the same filter to
/// the evaluator, nothing the planner recognizes. The twin runs the
/// scan-then-filter path, so it is the oracle for the pushed-down one.
fn sargable_pair(rng: &mut Rng) -> (String, String) {
    let (mut body, vars) = random_bgp(rng, true);
    let sv = match vars.iter().find(|v| v.starts_with("?s")) {
        Some(sv) => sv.clone(),
        None => {
            body.push_str("?x ex:score ?s . ");
            "?s".to_string()
        }
    };
    // (`?v op c`, the same comparison as `c op ?v`, a lower bound?)
    let ops = [
        ("<", ">", false),
        ("<=", ">=", false),
        (">", "<", true),
        (">=", "<=", true),
    ];
    let cmp = |rng: &mut Rng| {
        let (op, flipped, lower) = ops[rng.below(4) as usize];
        let c = random_bound(rng, lower);
        if rng.below(3) == 0 {
            format!("{c} {flipped} {{V}}")
        } else {
            format!("{{V}} {op} {c}")
        }
    };
    let filter = match rng.below(4) {
        0 => format!("FILTER({}) ", cmp(rng)),
        1 => format!("FILTER({} && {}) ", cmp(rng), cmp(rng)),
        2 => format!("FILTER({}) FILTER({}) ", cmp(rng), cmp(rng)),
        _ => format!("FILTER({} && {} != 3 && {}) ", cmp(rng), "{V}", cmp(rng)),
    };
    let query = |var: &str| {
        let filter = filter.replace("{V}", var);
        format!("{PROLOGUE}SELECT * WHERE {{ {body}{filter}}}")
    };
    (query(&sv), query(&format!("({sv} + 0)")))
}

/// Run a query and normalize the result to a sorted row multiset.
fn row_multiset(ds: &mut Dataset, query: &str) -> Vec<String> {
    let result = ds.query(query).unwrap();
    let QueryResult::Solutions { vars, rows } = result else {
        panic!("expected solutions for {query}");
    };
    let mut out: Vec<String> = rows
        .iter()
        .map(|r| {
            let mut cells: Vec<String> = vars
                .iter()
                .zip(r)
                .map(|(v, c)| match c {
                    Some(val) => format!("{v}={val}"),
                    None => format!("{v}=∅"),
                })
                .collect();
            cells.sort();
            cells.join("|")
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
fn planner_modes_are_result_identical() {
    let mut ds = build_dataset();
    let mut rng = Rng(0x5c15_9a11);
    for case in 0..40 {
        let query = random_query(&mut rng);
        ds.planner = config(PlannerMode::Textual);
        let textual = row_multiset(&mut ds, &query);
        ds.planner = config(PlannerMode::Greedy);
        let greedy = row_multiset(&mut ds, &query);
        ds.planner = config(PlannerMode::Dp);
        let dp = row_multiset(&mut ds, &query);
        assert_eq!(textual, greedy, "case {case}: textual vs greedy\n{query}");
        assert_eq!(greedy, dp, "case {case}: greedy vs dp\n{query}");
    }
}

#[test]
fn calibration_preserves_results() {
    let mut ds = build_dataset();
    let mut rng = Rng(0x00dd_ba11);
    for case in 0..20 {
        let query = random_query(&mut rng);
        ds.planner = config(PlannerMode::Dp);
        let uncalibrated = row_multiset(&mut ds, &query);
        // Train: profiled runs feed observed cardinalities back into
        // the calibration table, then replan with corrections live.
        ds.planner = PlannerConfig {
            mode: PlannerMode::Dp,
            calibration: true,
        };
        ds.query_profiled(&query).unwrap();
        let calibrated = row_multiset(&mut ds, &query);
        assert_eq!(
            uncalibrated, calibrated,
            "case {case}: calibration changed results\n{query}"
        );
    }
    assert!(
        !ds.calibration.is_empty(),
        "training runs should have populated the calibration table"
    );
}

/// `build_dataset` plus scores on every edge of the value order: a real
/// equal to an int, negative zero, NaN, infinity, two integers that are
/// one f64, and a string that looks like a number.
fn build_edge_dataset() -> Dataset {
    let mut ds = build_dataset();
    let score = Term::uri("http://example.org/score");
    let edges = [
        Term::double(4.0),
        Term::double(-0.0),
        Term::double(f64::NAN),
        Term::double(f64::INFINITY),
        Term::integer(9_007_199_254_740_992),
        Term::integer(9_007_199_254_740_993),
        Term::str("5"),
        Term::double(2.5),
    ];
    for (i, o) in edges.into_iter().enumerate() {
        let s = Term::uri(format!("http://example.org/s{}", i * 3));
        ds.graph.insert(s, score.clone(), o);
    }
    ds
}

/// Scans of the query's plan that carry a pushed window.
fn windowed_scans(ds: &mut Dataset, query: &str) -> usize {
    let QueryResult::Text(plan) = ds.query(&format!("EXPLAIN {query}")).unwrap() else {
        panic!("EXPLAIN returns text");
    };
    let scans = plan.lines().filter(|l| l.trim_start().starts_with("Scan "));
    scans.filter(|l| l.contains(" [?")).count()
}

#[test]
fn sargable_filters_equal_their_disguised_twins() {
    let mut ds = build_edge_dataset();
    let mut rng = Rng(0x5a26_ab1e);
    let configs = [
        config(PlannerMode::Textual),
        config(PlannerMode::Greedy),
        config(PlannerMode::Dp),
    ];
    let mut nonempty = 0;
    for case in 0..80 {
        let (query, twin) = sargable_pair(&mut rng);
        ds.planner = config(PlannerMode::Textual);
        let oracle = row_multiset(&mut ds, &twin);
        nonempty += usize::from(!oracle.is_empty());
        for cfg in configs {
            ds.planner = cfg;
            let pushed = row_multiset(&mut ds, &query);
            assert_eq!(pushed, oracle, "case {case} under {cfg:?}\n{query}\n{twin}");
        }
        // The differential is only worth something if the two really
        // run different plans.
        assert!(windowed_scans(&mut ds, &query) > 0, "case {case}\n{query}");
        assert_eq!(windowed_scans(&mut ds, &twin), 0, "case {case}\n{twin}");
    }
    assert!(nonempty >= 30, "only {nonempty} of 80 cases returned rows");
}

#[test]
fn sargable_pushdown_hand_cases() {
    let mut ds = build_edge_dataset();
    ds.load_turtle_named(
        "http://example.org/g1",
        "@prefix ex: <http://example.org/> .\n\
         ex:n1 ex:score 3 . ex:n2 ex:score 7.5 . ex:n3 ex:score 1200 . ex:n4 ex:score \"8\" .",
    )
    .unwrap();
    // (what, pattern with the filtered variable written `{V}` inside
    // its FILTERs, that variable, whether the plan should show a
    // windowed scan)
    let cases = [
        (
            "a variable BIND computes is no scan's object: nothing to push to",
            "?x ex:score ?s . BIND(?s * 2 AS ?d) FILTER({V} > 10 && {V} <= 2020)",
            "?d",
            false,
        ),
        (
            "the object bound by an earlier BIND: the scan probes, the filter decides",
            "BIND(1009 AS ?s) ?x ex:score ?s . FILTER({V} > 1000)",
            "?s",
            true,
        ),
        (
            "the object bound by VALUES",
            "VALUES ?s { 3 7 1019 2000 } ?x ex:score ?s . FILTER({V} >= 7)",
            "?s",
            true,
        ),
        (
            "a filtered scan inside OPTIONAL, correlated through its subject",
            "?x ex:type \"t1\" OPTIONAL { ?x ex:score ?s FILTER({V} > 4) }",
            "?s",
            false,
        ),
        (
            "a filter over OPTIONAL's variable from outside it",
            "?x ex:type \"t1\" OPTIONAL { ?x ex:score ?s } FILTER({V} > 4)",
            "?s",
            false,
        ),
        (
            "an uncorrelated OPTIONAL with its own window",
            "OPTIONAL { ?x ex:score ?s FILTER({V} > 1000 && {V} < 1050) }",
            "?s",
            true,
        ),
        (
            "a GRAPH block: another graph's index, another dictionary",
            "GRAPH ex:g1 { ?x ex:score ?s FILTER({V} > 5) }",
            "?s",
            true,
        ),
        (
            "a GRAPH block joined with the default graph on the value",
            "?y ex:score ?s . GRAPH ?g { ?x ex:score ?s } FILTER({V} < 5)",
            "?s",
            true,
        ),
        (
            "one variable as the object of two scans",
            "?x ex:score ?s . ?y ex:score ?s . FILTER({V} > 1000)",
            "?s",
            true,
        ),
        (
            "a lone scan under two FILTERs",
            "?x ex:score ?s FILTER({V} >= 2) FILTER(3 > {V})",
            "?s",
            true,
        ),
        (
            "a window inside a UNION branch and a sub-select",
            "{ ?x ex:score ?s FILTER({V} < 1) } UNION \
             { { SELECT ?x ?s WHERE { ?x ex:score ?s ; ex:flag \"on\" FILTER({V} > 1100) } } }",
            "?s",
            true,
        ),
    ];
    for (what, pattern, var, windowed) in cases {
        let select = |v: &str| {
            let pattern = pattern.replace("{V}", v);
            format!("{PROLOGUE}SELECT * WHERE {{ {pattern} }}")
        };
        let (query, twin) = (select(var), select(&format!("({var} + 0)")));
        let oracle = row_multiset(&mut ds, &twin);
        assert!(
            !oracle.is_empty(),
            "{what}: the case selects nothing\n{twin}"
        );
        assert_eq!(
            row_multiset(&mut ds, &query),
            oracle,
            "{what}\n{query}\n{twin}"
        );
        assert_eq!(
            windowed_scans(&mut ds, &query) > 0,
            windowed,
            "{what}\n{query}"
        );
        assert_eq!(windowed_scans(&mut ds, &twin), 0, "{what}\n{twin}");
    }
}

#[test]
fn delete_where_with_a_range_filter_removes_what_the_filter_selects() {
    let scores = format!("{PROLOGUE}SELECT * WHERE {{ ?x ex:score ?s }}");
    let run = |filter: &str| {
        let mut ds = build_edge_dataset();
        let update = format!(
            "{PROLOGUE}DELETE {{ ?x ex:score ?s }} WHERE {{ ?x ex:score ?s ; ex:type ?t . {filter} }}"
        );
        let QueryResult::Updated { deleted, .. } = ds.query(&update).unwrap() else {
            panic!("expected an update result");
        };
        (deleted, row_multiset(&mut ds, &scores))
    };
    let pushed = run("FILTER(?s >= 4 && ?s < 1100)");
    let oracle = run("FILTER(?s + 0 >= 4 && ?s + 0 < 1100)");
    assert!(pushed.0 > 50, "deleted {}", pushed.0);
    assert_eq!(pushed, oracle);
    // The value index forgot them too: a second delete finds nothing.
    let mut ds = build_edge_dataset();
    let delete = format!(
        "{PROLOGUE}DELETE {{ ?x ex:score ?s }} WHERE {{ ?x ex:score ?s FILTER(?s > 1000) }}"
    );
    let count = |r| match r {
        QueryResult::Updated { deleted, .. } => deleted,
        other => panic!("expected an update result, got {other:?}"),
    };
    // 16 large scores, the infinity and the two integers beyond 2⁵³.
    assert_eq!(count(ds.query(&delete).unwrap()), 19);
    assert_eq!(count(ds.query(&delete).unwrap()), 0);
}

/// A `VALUES` table joins by RDF term equality, as a scan probe does:
/// `0`, `0.0` and `-0.0` are three terms, so whichever side the planner
/// puts first, each stored object meets its own row and no other.
#[test]
fn values_join_by_term_equality_in_every_mode() {
    let mut ds = Dataset::in_memory();
    ds.load_turtle(
        "@prefix ex: <http://example.org/> .\n\
         @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .\n\
         ex:a ex:v 0 . ex:b ex:v 0.0 . ex:c ex:v \"-0.0\"^^xsd:double .",
    )
    .unwrap();
    let query = "PREFIX ex: <http://example.org/> \
                 SELECT ?x ?v { ?x ex:v ?v VALUES ?v { -0.0 0.0 0 } }";
    let expected = [
        "v=-0.0|x=<http://example.org/c>",
        "v=0.0|x=<http://example.org/b>",
        "v=0|x=<http://example.org/a>",
    ];
    for mode in [PlannerMode::Textual, PlannerMode::Greedy, PlannerMode::Dp] {
        ds.planner = config(mode);
        assert_eq!(row_multiset(&mut ds, query), expected, "{mode:?}");
    }
}
