//! Aggregates, bit for bit. `SUM` and `AVG` fold a number as they read
//! it, straight from the dictionary, in one pass over the group; arrays,
//! `DISTINCT` and non-numbers are collected first. Either way the answer
//! must be the left-to-right fold of the group's values in solution
//! order — the same kind (Int or Real) and the same bits — and an
//! argument is evaluated once per row.

use scisparql::{Dataset, Value};
use ssdm_array::{Num, NumArray};
use ssdm_rdf::Term;

const PROLOGUE: &str = "PREFIX ex: <http://example.org/>\n";

fn rows(ds: &mut Dataset, query: &str) -> Vec<Vec<Option<Value>>> {
    let query = format!("{PROLOGUE}{query}");
    let result = ds.query(&query).unwrap_or_else(|e| panic!("{query}: {e}"));
    result.into_rows().expect("a SELECT")
}

/// A cell as its kind and bits: `Int(n)`, `Real(bits)`, or how it
/// prints when it is not a number.
fn exact(cell: &Option<Value>) -> String {
    match cell.as_ref().map(|v| (v, v.as_num())) {
        None => "unbound".into(),
        Some((_, Some(Num::Int(i)))) => format!("Int({i})"),
        Some((_, Some(Num::Real(r)))) => format!("Real({:#x})", r.to_bits()),
        Some((v, None)) => v.to_string(),
    }
}

/// What `SUM` and `AVG` are defined as: a checked left-to-right fold.
fn fold(values: &[Num]) -> (Option<Num>, Option<Num>) {
    let sum = values
        .iter()
        .try_fold(Num::Int(0), |acc, &x| acc.checked_add(x).ok());
    let avg = sum
        .filter(|_| !values.is_empty())
        .map(|s| Num::Real(s.as_f64() / values.len() as f64));
    (sum, avg)
}

fn cell(n: Option<Num>) -> Option<Value> {
    n.map(Value::number)
}

/// Nine groups of numbers mixing Int and Real, with values that make a
/// real sum depend on its order (0.1, 1e16, -1e16, 1/3).
fn mixed_groups() -> Dataset {
    let mut ds = Dataset::in_memory();
    let pool = [
        "0.1",
        "1",
        "1e16",
        "-2.5",
        "3",
        "0.3333333333333333",
        "-1e16",
        "7",
        "2.0e-3",
        "-4",
    ];
    let mut turtle = PROLOGUE.to_string();
    for i in 0..90 {
        // Group g holds every value of the pool once, rotated by g.
        let (g, v) = (i % 9, pool[(i / 9 + i % 9) % pool.len()]);
        turtle.push_str(&format!("ex:x{i} ex:g ex:g{g} ; ex:v {v} .\n"));
    }
    ds.load_turtle(&turtle).unwrap();
    ds
}

#[test]
fn sum_and_avg_are_the_left_to_right_fold_of_their_group() {
    let mut ds = mixed_groups();
    let pattern = "?x ex:g ?g ; ex:v ?v";
    // The oracle: each group's values in solution order, folded here.
    let mut order: Vec<(String, Vec<Num>)> = Vec::new();
    for row in rows(&mut ds, &format!("SELECT ?g ?v WHERE {{ {pattern} }}")) {
        let g = row[0].as_ref().unwrap().to_string();
        let v = row[1].as_ref().unwrap().as_num().unwrap();
        match order.iter_mut().find(|(k, _)| *k == g) {
            Some((_, values)) => values.push(v),
            None => order.push((g, vec![v])),
        }
    }
    let grouped = rows(
        &mut ds,
        &format!(
            "SELECT ?g (SUM(?v) AS ?s) (AVG(?v) AS ?a) (COUNT(?v) AS ?n) \
             (SUM(?v + 0) AS ?s0) (AVG(-?v) AS ?an) WHERE {{ {pattern} }} GROUP BY ?g"
        ),
    );
    assert_eq!(grouped.len(), 9);
    let mut reals = 0;
    for (row, (g, values)) in grouped.iter().zip(&order) {
        assert_eq!(
            row[0].as_ref().unwrap().to_string(),
            *g,
            "groups in first-seen order"
        );
        let (sum, avg) = fold(values);
        reals += usize::from(matches!(sum, Some(Num::Real(_))));
        let negated: Vec<Num> = values.iter().map(|v| v.checked_neg().unwrap()).collect();
        let expected = [
            cell(sum),
            cell(avg),
            Some(Value::integer(values.len() as i64)),
            cell(sum),
            cell(fold(&negated).1),
        ];
        let got: Vec<String> = row[1..].iter().map(exact).collect();
        let want: Vec<String> = expected.iter().map(exact).collect();
        assert_eq!(got, want, "group {g} over {values:?}");
    }
    assert!(reals >= 5, "only {reals} groups summed to a real");
}

#[test]
fn distinct_takes_the_collecting_path_to_the_same_bits() {
    let mut ds = mixed_groups();
    // Within a group of `mixed_groups` no value repeats, so DISTINCT
    // changes nothing but the path.
    let q = |d: &str| {
        format!(
            "SELECT ?g (SUM({d}?v) AS ?s) (AVG({d}?v) AS ?a) (COUNT({d}?v) AS ?n) \
             (MIN({d}?v) AS ?lo) (MAX({d}?v) AS ?hi) \
             WHERE {{ ?x ex:g ?g ; ex:v ?v }} GROUP BY ?g"
        )
    };
    let exact_rows = |rows: Vec<Vec<Option<Value>>>| -> Vec<Vec<String>> {
        rows.iter().map(|r| r.iter().map(exact).collect()).collect()
    };
    let folded = exact_rows(rows(&mut ds, &q("")));
    let collected = exact_rows(rows(&mut ds, &q("DISTINCT ")));
    assert_eq!(folded, collected);

    // With repeats, DISTINCT folds each rendering once.
    let mut ds = Dataset::in_memory();
    ds.load_turtle(&format!(
        "{PROLOGUE}ex:a ex:v 2 . ex:b ex:v 2 . ex:c ex:v 3 . ex:d ex:v 3.0 . ex:e ex:v 2.5 ."
    ))
    .unwrap();
    let row = &rows(
        &mut ds,
        "SELECT (SUM(DISTINCT ?v) AS ?s) (AVG(DISTINCT ?v) AS ?a) (COUNT(DISTINCT ?v) AS ?n) \
         (SUM(?v) AS ?all) WHERE { ?x ex:v ?v }",
    )[0];
    let got: Vec<String> = row.iter().map(exact).collect();
    assert_eq!(
        got,
        [
            exact(&Some(Value::double(10.5))),
            exact(&Some(Value::double(10.5 / 4.0))),
            "Int(4)".to_string(),
            exact(&Some(Value::double(12.5))),
        ]
    );
}

#[test]
fn sum_and_avg_edges() {
    let mut ds = Dataset::in_memory();
    let max = i64::MAX;
    ds.load_turtle(&format!(
        "{PROLOGUE}\
         ex:o1 ex:g ex:overflow ; ex:v {max} . ex:o2 ex:g ex:overflow ; ex:v 1 .\n\
         ex:i1 ex:g ex:ints ; ex:v 1 . ex:i2 ex:g ex:ints ; ex:v 2 . ex:i3 ex:g ex:ints ; ex:v 3 .\n\
         ex:m1 ex:g ex:mixed ; ex:v 1 . ex:m2 ex:g ex:mixed ; ex:v 2.5 .\n\
         ex:s1 ex:g ex:strings ; ex:v \"a\" . ex:s2 ex:g ex:strings ; ex:v \"b\" .\n\
         ex:n1 ex:g ex:numstr ; ex:v 4 . ex:n2 ex:g ex:numstr ; ex:v \"5\" .\n\
         ex:u1 ex:g ex:unbound . ex:u2 ex:g ex:unbound ; ex:v 6 ."
    ))
    .unwrap();
    let grouped = rows(
        &mut ds,
        "SELECT ?g (SUM(?v) AS ?s) (AVG(?v) AS ?a) (COUNT(?v) AS ?n) (COUNT(*) AS ?all) \
         (MIN(?v) AS ?lo) (MAX(?v) AS ?hi) \
         WHERE { ?x ex:g ?g OPTIONAL { ?x ex:v ?v } } GROUP BY ?g ORDER BY ?g",
    );
    let got: Vec<String> = grouped
        .iter()
        .map(|r| r.iter().map(exact).collect::<Vec<_>>().join(" "))
        .collect();
    let ex = "http://example.org/";
    assert_eq!(
        got,
        [
            format!("<{ex}ints> Int(6) Real(0x4000000000000000) Int(3) Int(3) Int(1) Int(3)"),
            format!(
                "<{ex}mixed> Real(0x400c000000000000) Real(0x3ffc000000000000) Int(2) Int(2) \
                 Int(1) Real(0x4004000000000000)"
            ),
            format!("<{ex}numstr> unbound unbound Int(2) Int(2) Int(4) \"5\""),
            format!("<{ex}overflow> unbound unbound Int(2) Int(2) Int(1) Int({max})"),
            format!("<{ex}strings> unbound unbound Int(2) Int(2) \"a\" \"b\""),
            format!("<{ex}unbound> Int(6) Real(0x4018000000000000) Int(1) Int(2) Int(6) Int(6)"),
        ]
    );

    // An empty solution set is one empty group.
    let row = &rows(
        &mut ds,
        "SELECT (SUM(?v) AS ?s) (AVG(?v) AS ?a) (COUNT(?v) AS ?n) (MIN(?v) AS ?lo) \
         (MAX(?v) AS ?hi) WHERE { ?x ex:nothing ?v }",
    );
    let got: Vec<String> = row[0].iter().map(exact).collect();
    assert_eq!(got, ["Int(0)", "unbound", "Int(0)", "unbound", "unbound"]);
    // ... and grouping it yields no group at all.
    let none = rows(
        &mut ds,
        "SELECT ?g (SUM(?v) AS ?s) WHERE { ?x ex:nothing ?v ; ex:g ?g } GROUP BY ?g",
    );
    assert!(none.is_empty());
}

#[test]
fn arrays_sum_element_wise_and_never_with_numbers() {
    let mut ds = Dataset::in_memory();
    let (v, g) = (
        Term::uri("http://example.org/v"),
        Term::uri("http://example.org/g"),
    );
    let arrays = [
        ("x1", "arrays", NumArray::from_f64(vec![1.0, 2.0, 3.0])),
        ("x2", "arrays", NumArray::from_f64(vec![10.0, 20.0, 30.5])),
        ("x3", "mix", NumArray::from_f64(vec![1.0, 2.0])),
    ];
    for (x, group, a) in arrays {
        let x = Term::uri(format!("http://example.org/{x}"));
        ds.graph.insert(x.clone(), v.clone(), Term::Array(a));
        ds.graph.insert(
            x,
            g.clone(),
            Term::uri(format!("http://example.org/{group}")),
        );
    }
    let x4 = Term::uri("http://example.org/x4");
    ds.graph.insert(x4.clone(), v.clone(), Term::integer(5));
    ds.graph.insert(x4, g, Term::uri("http://example.org/mix"));
    let grouped = rows(
        &mut ds,
        "SELECT ?g (SUM(?v) AS ?s) (AVG(?v) AS ?a) (COUNT(?v) AS ?n) \
         WHERE { ?x ex:g ?g ; ex:v ?v } GROUP BY ?g ORDER BY ?g",
    );
    let got: Vec<Vec<String>> = grouped
        .iter()
        .map(|r| r[1..].iter().map(exact).collect())
        .collect();
    let array = |a: Vec<f64>| exact(&Some(Value::array(NumArray::from_f64(a))));
    assert_eq!(
        got,
        [
            vec![
                array(vec![11.0, 22.0, 33.5]),
                array(vec![5.5, 11.0, 16.75]),
                "Int(2)".to_string()
            ],
            vec!["unbound".into(), "unbound".into(), "Int(2)".into()],
        ]
    );
}

#[test]
fn two_keys_keyed_by_rendering() {
    // An array is keyed by how it prints: equal renderings are one
    // group, whatever their ids. A real of 1e15 or more is not the
    // integer it equals.
    let mut ds = Dataset::in_memory();
    let (k1, k2, v) = (
        Term::uri("http://example.org/k1"),
        Term::uri("http://example.org/k2"),
        Term::uri("http://example.org/v"),
    );
    let firsts = [
        Term::double(1e15),
        Term::integer(1_000_000_000_000_000),
        Term::double(2.5e15),
        Term::double(1e15),
    ];
    let seconds = [
        NumArray::from_f64(vec![1.0, 2.0]),
        NumArray::from_i64_shaped(vec![1, 2], &[2]).unwrap(),
        NumArray::from_f64(vec![1.0, 2.0]),
        NumArray::from_f64(vec![3.0]),
    ];
    for i in 0..16 {
        let x = Term::uri(format!("http://example.org/x{i}"));
        ds.graph
            .insert(x.clone(), k1.clone(), firsts[i % 4].clone());
        ds.graph
            .insert(x.clone(), k2.clone(), Term::Array(seconds[i / 4].clone()));
        ds.graph.insert(x, v.clone(), Term::integer(i as i64));
    }
    let grouped = rows(
        &mut ds,
        "SELECT ?a ?b (COUNT(?v) AS ?n) (SUM(?v) AS ?s) \
         WHERE { ?x ex:k1 ?a ; ex:k2 ?b ; ex:v ?v } GROUP BY ?a ?b",
    );
    let mut got: Vec<String> = grouped
        .iter()
        .map(|r| r.iter().map(exact).collect::<Vec<_>>().join(" "))
        .collect();
    got.sort();
    // The integer 10¹⁵ and the reals are keyed by their ids; the two
    // arrays [1.0, 2.0] are one node, [1, 2] prints apart from them.
    let (int, e15, e15_25) = (
        "Int(1000000000000000)",
        "Real(0x430c6bf526340000)",
        "Real(0x4321c37937e08000)",
    );
    assert_eq!(
        got,
        [
            format!("{int} (1 2) Int(1) Int(5)"),
            format!("{int} (1.0 2.0) Int(2) Int(10)"),
            format!("{int} (3.0) Int(1) Int(13)"),
            format!("{e15} (1 2) Int(2) Int(11)"),
            format!("{e15} (1.0 2.0) Int(4) Int(22)"),
            format!("{e15} (3.0) Int(2) Int(27)"),
            format!("{e15_25} (1 2) Int(1) Int(6)"),
            format!("{e15_25} (1.0 2.0) Int(2) Int(12)"),
            format!("{e15_25} (3.0) Int(1) Int(14)"),
        ]
    );
}

#[test]
fn an_aggregate_argument_is_evaluated_once_per_row() {
    // Twenty externalized trajectories of 64 reals, 8 to a chunk.
    let mut ds = Dataset::in_memory();
    let (k, tr) = (
        Term::uri("http://example.org/k"),
        Term::uri("http://example.org/tr"),
    );
    for t in 0..20 {
        let x = Term::uri(format!("http://example.org/task{t}"));
        let values = (0..64).map(|i| ((t * 64 + i) as f64 * 0.37).sin() * 10.0);
        ds.graph.insert(x.clone(), k.clone(), Term::integer(t));
        ds.graph.insert(
            x,
            tr.clone(),
            Term::Array(NumArray::from_f64(values.collect())),
        );
    }
    ds.externalize_threshold = 16;
    ds.chunk_bytes = 64;
    assert_eq!(ds.externalize_large_arrays().unwrap(), 20);

    let pattern = "?task ex:k ?k ; ex:tr ?tr FILTER(?k > 5)";
    // Back-end I/O and chunks decided from the zone map, per query.
    let io = |ds: &Dataset| {
        let io = ds.arrays.backend().io_stats();
        let decided = ds.arrays.cumulative_stats().chunks_decided;
        (io.statements, io.chunks_returned, decided)
    };
    let since = |ds: &Dataset, (s0, c0, d0)| {
        let (s, c, d) = io(ds);
        (s - s0, c - c0, d - d0)
    };
    let measure = |ds: &mut Dataset| {
        let start = io(ds);
        let maxima: Vec<Num> = rows(
            ds,
            &format!("SELECT (array_max(?tr) AS ?m) WHERE {{ {pattern} }}"),
        )
        .iter()
        .map(|r| r[0].as_ref().and_then(Value::as_num).unwrap())
        .collect();
        let per_row = since(ds, start);
        let start = io(ds);
        let row = rows(
            ds,
            &format!(
                "SELECT (AVG(array_max(?tr)) AS ?a) (SUM(array_max(?tr)) AS ?s) WHERE {{ {pattern} }}"
            ),
        )
        .remove(0);
        let aggregated = since(ds, start);
        (
            maxima,
            per_row,
            [exact(&row[0]), exact(&row[1])],
            aggregated,
        )
    };

    // With the zone map off every `array_max` reads its chunks, so the
    // back-end counts how often the argument is evaluated.
    ds.arrays.set_skip_enabled(false);
    let (maxima, per_row, row, aggregated) = measure(&mut ds);
    assert_eq!(maxima.len(), 14);
    let (sum, avg) = fold(&maxima);
    assert_eq!(row, [exact(&cell(avg)), exact(&cell(sum))]);
    // Two aggregates, each reading every array once: twice the
    // statements and chunks of the projection.
    let (statements, chunks_returned, _) = per_row;
    assert_eq!(statements, 14);
    assert_eq!(chunks_returned, 14 * 8);
    assert_eq!(aggregated.0, 2 * per_row.0);
    assert_eq!(aggregated.1, 2 * per_row.1);

    // With it on, each chunk's summary holds its maximum: the same
    // answers, no chunk fetched, and the decided chunks count the
    // evaluations instead.
    ds.arrays.set_skip_enabled(true);
    let (decided, per_row, decided_row, aggregated) = measure(&mut ds);
    let bits = |v: &[Num]| v.iter().map(|n| exact(&cell(Some(*n)))).collect::<Vec<_>>();
    assert_eq!(bits(&decided), bits(&maxima));
    assert_eq!(decided_row, row);
    assert_eq!(per_row, (0, 0, 14 * 8));
    assert_eq!(aggregated, (0, 0, 2 * 14 * 8));
}

/// Two arrays that differ only past their 16th element are two keys:
/// DISTINCT, `COUNT(DISTINCT)` and GROUP BY see each array whole.
#[test]
fn arrays_differing_past_the_sixteenth_element_are_two_keys() {
    let mut ds = Dataset::in_memory();
    let list = |at_18: i64| {
        let cells = (0..20).map(|i| if i == 18 { at_18 } else { i });
        cells.map(|i| i.to_string()).collect::<Vec<_>>().join(" ")
    };
    let data = format!(
        "{PROLOGUE}ex:a ex:v ({}) . ex:b ex:v ({}) .",
        list(18),
        list(-1)
    );
    ds.load_turtle(&data).unwrap();
    let distinct = rows(&mut ds, "SELECT DISTINCT ?v WHERE { ?s ex:v ?v }");
    assert_eq!(distinct.len(), 2);
    assert!(matches!(&distinct[0][0], Some(Value::Term(Term::Array(_)))));
    let count = rows(
        &mut ds,
        "SELECT (COUNT(DISTINCT ?v) AS ?n) WHERE { ?s ex:v ?v }",
    );
    assert_eq!(exact(&count[0][0]), "Int(2)");
    let groups = rows(
        &mut ds,
        "SELECT ?v (COUNT(*) AS ?n) WHERE { ?s ex:v ?v } GROUP BY ?v",
    );
    assert_eq!(groups.len(), 2);
}
