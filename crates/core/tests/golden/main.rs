//! Golden answers for the query shapes the end-to-end benchmark runs.
//!
//! `bistab.answers` holds what commit 30b801f, the last row-at-a-time
//! evaluator, answered for `cases()` over the seeded BISTAB dataset
//! `dataset()` builds: the three `meta_query` templates, BISTAB Q1–Q4
//! and the five array templates, two parameter draws each where the
//! template has parameters. Whatever is done to the executor, these
//! answers stay. They are compared as multisets, as sequences under
//! `ORDER BY`, and real numbers to 1e-12 relative (a different join
//! order may sum a group in a different order).
//!
//! To add a case, append it to `cases()` and its section to the end of
//! the answers file, produced by `print_answers` at a commit before the
//! change under test:
//!
//! ```text
//! cargo test -p scisparql --test golden -- --ignored --nocapture print_answers
//! ```
//!
//! Never re-generate an existing section from the code under test.

use scisparql::Dataset;
use ssdm_array::NumArray;
use ssdm_rdf::Term;

const NS: &str = "http://udbl.uu.se/bistab#";
const TASKS: usize = 2000;
const REALIZATIONS: usize = 10;
const TRAJECTORY_LEN: usize = 64;
const RASTER_SIDE: usize = 256;
const ROW_BAND: i64 = 64;

/// splitmix64: a seeded stream of uniform doubles in [0, 1).
struct Mixer(u64);

impl Mixer {
    fn unit(&mut self) -> f64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) as f64 / 2f64.powi(64)
    }
}

fn uri(local: &str) -> Term {
    Term::uri(format!("{NS}{local}"))
}

/// BISTAB's schema and value distributions (`ssdm::bistab`) over 2 000
/// tasks, plus a banded integer raster, with every array chunked into
/// the in-memory store at 32 elements a chunk.
fn dataset() -> Dataset {
    let mut ds = Dataset::in_memory();
    ds.externalize_threshold = 16;
    ds.chunk_bytes = 256;
    let mut rng = Mixer(1);
    for t in 0..TASKS {
        let task = uri(&format!("task{t}"));
        let k1 = 10.0 + rng.unit() * 40.0;
        let ka = 30.0 + rng.unit() * 60.0;
        let k4 = 40.0 + rng.unit() * 40.0;
        let switched = rng.unit() < 0.5;
        let target = if switched { k1 * 4.0 } else { k4 / 8.0 };
        let mut level = (k1 * 4.0 + k4 / 8.0) / 2.0;
        let trajectory = (0..TRAJECTORY_LEN)
            .map(|_| {
                level += (target - level) * 0.1 + (rng.unit() - 0.5) * target.max(1.0) * 0.1;
                level.max(0.0)
            })
            .collect();
        let g = &mut ds.graph;
        g.insert(uri("experiment1"), uri("task"), task.clone());
        g.insert(task.clone(), uri("k_1"), Term::double(k1));
        g.insert(task.clone(), uri("k_a"), Term::double(ka));
        g.insert(task.clone(), uri("k_4"), Term::double(k4));
        let realization = (t % REALIZATIONS) as i64 + 1;
        g.insert(task.clone(), uri("realization"), Term::integer(realization));
        g.insert(task.clone(), uri("result"), Term::integer(switched as i64));
        let trajectory = Term::Array(NumArray::from_f64(trajectory));
        g.insert(task, uri("trajectory"), trajectory);
    }
    let side = RASTER_SIDE as i64;
    let raster = (0..side)
        .flat_map(|r| (0..side).map(move |c| ROW_BAND * r + (r * 31 + c * 17 + 5) % ROW_BAND))
        .collect();
    let raster = NumArray::from_i64_shaped(raster, &[RASTER_SIDE, RASTER_SIDE]).unwrap();
    ds.graph
        .insert(uri("raster1"), uri("image"), Term::Array(raster));
    ds.externalize_large_arrays().unwrap();
    ds
}

/// `(name, query)`: every case the answers file holds, in its order.
fn cases() -> Vec<(String, String)> {
    let p = format!("PREFIX b: <{NS}> ");
    let mut cases = Vec::new();
    let mut add = |name: &str, query: String| cases.push((name.to_string(), format!("{p}{query}")));
    for k in [47.5, 30.0] {
        add(
            &format!("q1_filter {k}"),
            format!(
                "SELECT ?task ?k1 WHERE {{ ?task b:k_1 ?k1 ; b:result 1 . FILTER (?k1 > {k:.3}) }}"
            ),
        );
    }
    for r in [1, 7] {
        add(
            &format!("star_join {r}"),
            format!(
                "SELECT ?task ?k1 ?ka ?k4 WHERE {{ ?task b:k_1 ?k1 ; b:k_a ?ka ; \
                 b:k_4 ?k4 ; b:realization {r} }}"
            ),
        );
    }
    for k in [44.0, 20.0] {
        add(
            &format!("group_by {k}"),
            format!(
                "SELECT ?r (AVG(?k1) AS ?avg) (COUNT(?task) AS ?n) WHERE {{ \
                 ?task b:result 1 ; b:k_1 ?k1 ; b:realization ?r . \
                 FILTER (?k1 > {k:.3}) }} GROUP BY ?r"
            ),
        );
    }
    add(
        "Q1",
        "SELECT ?task ?k1 WHERE { ?task b:k_1 ?k1 ; b:result 1 . FILTER (?k1 > 30) }".into(),
    );
    add(
        "Q2",
        "SELECT ?task (?tr[1] AS ?first) (?tr[-1] AS ?last) WHERE { \
         ?task b:trajectory ?tr ; b:realization 1 . }"
            .into(),
    );
    add(
        "Q3",
        "SELECT ?task (array_avg(?tr[1:32]) AS ?early) WHERE { \
         ?task b:trajectory ?tr ; b:result 1 . }"
            .into(),
    );
    add(
        "Q4",
        "SELECT (AVG(?m) AS ?avgmax) (COUNT(?task) AS ?n) WHERE { \
         ?task b:k_1 ?k1 ; b:trajectory ?tr . FILTER (?k1 > 25) \
         BIND (array_max(?tr) AS ?m) }"
            .into(),
    );
    add(
        "Q1 ordered",
        "SELECT ?task ?k1 WHERE { ?task b:k_1 ?k1 ; b:result 1 . FILTER (?k1 > 30) } \
         ORDER BY DESC(?k1) LIMIT 10"
            .into(),
    );
    for lo in [10.0, 38.5] {
        add(
            &format!("traj_slice_avg {lo}"),
            format!(
                "SELECT ?task (array_avg(?tr[1:32]) AS ?early) WHERE {{ \
                 ?task b:trajectory ?tr ; b:result 1 ; b:k_1 ?k1 . \
                 FILTER (?k1 > {lo:.3} && ?k1 < {:.3}) }}",
                lo + 6.0
            ),
        );
        add(
            &format!("traj_max {lo}"),
            format!(
                "SELECT (AVG(array_max(?tr)) AS ?avgmax) (COUNT(?task) AS ?n) WHERE {{ \
                 ?task b:k_1 ?k1 ; b:trajectory ?tr . \
                 FILTER (?k1 > {lo:.3} && ?k1 < {:.3}) }}",
                lo + 3.0
            ),
        );
    }
    for (r, c) in [(1, 1), (97, 200)] {
        add(
            &format!("tile_avg {r} {c}"),
            format!(
                "SELECT (array_avg(?img[{r}:{}, {c}:{}]) AS ?v) WHERE {{ b:raster1 b:image ?img }}",
                r + 31,
                (c + 31).min(RASTER_SIDE)
            ),
        );
        add(
            &format!("regrid_avg {r} {c}"),
            format!(
                "SELECT (array_avg(?img[{r}:8:{}, {c}:8:{}]) AS ?v) WHERE {{ b:raster1 b:image ?img }}",
                (r + 127).min(RASTER_SIDE),
                (c + 55).min(RASTER_SIDE)
            ),
        );
    }
    for (r, first) in [(1, 3), (120, 130)] {
        let lo = ROW_BAND * first;
        add(
            &format!("range_count {r} {first}"),
            format!(
                "SELECT (array_count_range(?img[{r}:{}, 1:{RASTER_SIDE}], {lo}, {}) AS ?n) \
                 WHERE {{ b:raster1 b:image ?img }}",
                r + 15,
                lo + ROW_BAND * 4 - 1
            ),
        );
    }
    cases
}

/// A case's answer as text: its columns, then one line per row with
/// the cells separated by tabs (`-` for unbound).
fn answer(ds: &mut Dataset, query: &str) -> Vec<String> {
    let result = ds.query(query).unwrap_or_else(|e| panic!("{query}: {e}"));
    let scisparql::QueryResult::Solutions { vars, rows } = result else {
        panic!("not a SELECT: {query}")
    };
    let mut lines = vec![vars.join("\t")];
    lines.extend(rows.iter().map(|row| {
        let cells: Vec<String> = row
            .iter()
            .map(|c| c.as_ref().map_or("-".to_string(), ToString::to_string))
            .collect();
        cells.join("\t")
    }));
    lines
}

/// The sections of the answers file by case name.
fn golden() -> std::collections::HashMap<String, Vec<String>> {
    let text = include_str!("bistab.answers");
    let mut sections = std::collections::HashMap::new();
    for section in text.split("=== ").skip(1) {
        let mut lines = section.lines();
        let name = lines.next().expect("a section name").to_string();
        sections.insert(name, lines.map(str::to_string).collect());
    }
    sections
}

/// Whether two cells are the same answer: equal text, or two reals
/// within 1e-12 of each other, relatively.
fn same_cell(a: &str, b: &str) -> bool {
    if a == b {
        return true;
    }
    let real = |s: &str| {
        s.contains(['.', 'e', 'E'])
            .then(|| s.parse::<f64>().ok())
            .flatten()
    };
    match (real(a), real(b)) {
        (Some(x), Some(y)) => (x - y).abs() <= 1e-12 * x.abs().max(y.abs()),
        _ => false,
    }
}

fn same_row(a: &str, b: &str) -> bool {
    let (a, b): (Vec<&str>, Vec<&str>) = (a.split('\t').collect(), b.split('\t').collect());
    a.len() == b.len() && a.iter().zip(&b).all(|(x, y)| same_cell(x, y))
}

/// Match `ours` against `expected` as multisets (as sequences when
/// `ordered`); `Err` names the first row without a partner.
fn compare(expected: &[String], ours: &[String], ordered: bool) -> Result<(), String> {
    if expected.len() != ours.len() {
        return Err(format!("{} rows, expected {}", ours.len(), expected.len()));
    }
    if ordered {
        return match expected.iter().zip(ours).position(|(e, o)| !same_row(e, o)) {
            Some(at) => Err(format!(
                "row {at}: {:?}, expected {:?}",
                ours[at], expected[at]
            )),
            None => Ok(()),
        };
    }
    // Exact matches first, then the rest within tolerance.
    let mut left: Vec<&String> = ours.iter().collect();
    left.sort();
    let mut unmatched = Vec::new();
    for e in expected {
        match left.binary_search(&e) {
            Ok(at) => {
                left.remove(at);
            }
            Err(_) => unmatched.push(e),
        }
    }
    for e in unmatched {
        match left.iter().position(|o| same_row(e, o)) {
            Some(at) => {
                left.remove(at);
            }
            None => return Err(format!("no row matches expected {e:?}")),
        }
    }
    Ok(())
}

#[test]
fn answers_match_the_golden_file() {
    let mut ds = dataset();
    let golden = golden();
    let mut failures = Vec::new();
    for (name, query) in cases() {
        let Some(expected) = golden.get(&name) else {
            failures.push(format!("{name}: no section in bistab.answers"));
            continue;
        };
        let ours = answer(&mut ds, &query);
        let (header, rows) = ours.split_first().expect("a header line");
        let (expected_header, expected_rows) = expected.split_first().expect("a header line");
        assert!(!rows.is_empty(), "{name} is vacuous");
        if header != expected_header {
            failures.push(format!(
                "{name}: columns {header:?}, expected {expected_header:?}"
            ));
        } else if let Err(why) = compare(expected_rows, rows, query.contains("ORDER BY")) {
            failures.push(format!("{name}: {why}"));
        }
    }
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Print every case's section in the answers file's format.
#[test]
#[ignore = "generates the answers file; run at a commit before the change under test"]
fn print_answers() {
    let mut ds = dataset();
    for (name, query) in cases() {
        println!("=== {name}");
        for line in answer(&mut ds, &query) {
            println!("{line}");
        }
    }
}
