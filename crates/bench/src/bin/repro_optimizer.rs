//! Optimizer ablation v2 (thesis §5.4): 3-way join-enumeration matrix
//! plus the calibration feedback loop.
//!
//! 1. **Enumeration matrix** — star-join queries over the BISTAB
//!    workload, written selective-pattern-LAST (worst textual order),
//!    evaluated under all three planner modes. Claims: DP **≥ 2×**
//!    faster than textual order on the star-join shape, DP no slower
//!    than greedy; identical row counts everywhere.
//! 2. **Range filter** — BISTAB Q1 (`?t b:k_1 ?k ; b:result 1 .
//!    FILTER (?k > c)`) with the filter as written, which the planner
//!    turns into a range scan of the value index, against the same
//!    filter disguised as `?k + 0 > c`, which it cannot. Reported as
//!    index entries visited (the scans' output rows in the profile — a
//!    count that repeats exactly). Claims: the ranged scan visits no
//!    more than the rows in the window, the query no more than twice
//!    that; both return the same rows.
//! 3. **Calibration** — a deliberately misestimated skew shape: the
//!    uniform count/distinct model orders a "selective-looking" scan
//!    first even though it matches most of the graph. Two profiled
//!    training runs feed observed cardinalities into the calibration
//!    table; the corrected plan flips the join order. Claim:
//!    calibration-on beats calibration-off; identical results.
//!
//! ```text
//! repro_optimizer [--quick] [--out PATH]
//! ```

use std::process::ExitCode;

use scisparql::algebra::{self, Plan};
use scisparql::ast::Statement;
use scisparql::planner::{PlannerConfig, PlannerCtx, PlannerMode};
use scisparql::Dataset;
use ssdm::bistab::{self, BistabConfig};
use ssdm::{Backend, Ssdm};
use ssdm_bench::{best_of, Args, Bar, Fmt, Report};

/// Plan a SELECT under an explicit mode, optionally with the dataset's
/// learned calibration factors. `Textual` here means the plan exactly
/// as written — textual join order, filters where they appear — i.e.
/// no optimization at all, the thesis' baseline.
fn plan_for(ds: &Dataset, query: &str, mode: PlannerMode, calibrated: bool) -> Plan {
    let Statement::Select(q) = scisparql::parser::parse(query).expect("parse") else {
        panic!("expected SELECT");
    };
    if mode == PlannerMode::Textual {
        return algebra::translate_unoptimized(&q.pattern);
    }
    let config = PlannerConfig {
        mode,
        calibration: calibrated,
    };
    let ctx = PlannerCtx {
        graph: ds.graph.view(),
        config,
        calibration: calibrated.then_some(&ds.calibration),
        zones: None,
    };
    algebra::optimize_with(algebra::translate(&q.pattern), &ctx)
}

/// Evaluate a pre-built plan, returning (rows, best-of-N ms).
fn run_plan(ds: &mut Dataset, plan: &Plan, repeats: usize) -> (usize, f64) {
    let vars = scisparql::eval::VarTable::for_plan(plan);
    let (ms, rows) = best_of(repeats, || {
        let mut rows = 0;
        scisparql::eval::eval_plan(ds, &vars, plan, &[], &mut |_, batch| {
            rows += batch.len();
            Ok(())
        })
        .expect("eval");
        rows
    });
    (rows, ms)
}

/// The skewed dataset for the calibration leg: `status "common"` looks
/// selective to the uniform model (count/distinct ≈ n/20) but matches
/// 95% of subjects, while `grade "b7"` looks unselective (n/10) but
/// matches 2%.
fn skew_dataset(n: usize) -> Dataset {
    let mut ds = Dataset::in_memory();
    let mut turtle = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..n {
        let status = if i % 20 == 0 {
            format!("s{}", i % 19 + 1)
        } else {
            "common".to_string()
        };
        let grade = if i % 50 == 0 {
            "b7".to_string()
        } else {
            format!("b{}", i % 9)
        };
        turtle.push_str(&format!(
            "ex:r{i} ex:status \"{status}\" ; ex:grade \"{grade}\" ; ex:payload {} .\n",
            i % 1000
        ));
    }
    ds.load_turtle(&turtle).expect("load skew data");
    ds
}

/// `(label, rows_out)` of every scan operator of a profile. A scan
/// emits one row per index entry it visits.
fn scan_rows(profile: &str) -> Vec<(String, u64)> {
    let scans = profile
        .lines()
        .filter(|l| l.trim_start().starts_with("Scan "));
    scans
        .map(|line| {
            let (label, counters) = line
                .trim_start()
                .split_once(" rows_in=")
                .expect("operator row");
            let rows_out = counters
                .split_whitespace()
                .find_map(|t| t.strip_prefix("rows_out="));
            (
                label.to_string(),
                rows_out.expect("rows_out").parse().expect("count"),
            )
        })
        .collect()
}

fn main() -> ExitCode {
    let args = Args::parse("repro_optimizer", &["--quick", "--out PATH"]);
    let mut report = Report::new(&args);
    let quick = args.quick();
    let repeats = if quick { 3 } else { 7 };
    let tasks = if quick { 800 } else { 2000 };
    let n = if quick { 6000 } else { 20000 };
    report.config(&[("tasks", tasks.into()), ("skew_subjects", n.into())]);

    println!("Optimizer ablation v2: enumeration matrix + calibration (thesis §5.4)");
    let mut db = Ssdm::open(Backend::Memory);
    let config = BistabConfig {
        tasks,
        realizations: 4,
        trajectory_len: 8,
        seed: 3,
    };
    bistab::load_bistab(&mut db, &config).expect("load");

    // Queries written selective-pattern-LAST (worst textual order).
    let b = bistab::NS;
    let queries = [
        (
            "star-join",
            format!(
                "PREFIX b: <{b}>
                 SELECT ?k WHERE {{
                   ?t b:k_1 ?k . ?t b:k_a ?ka . ?t b:k_d ?kd .
                   ?e b:task ?t .
                   ?t b:realization 1 . ?t b:result 1 .
                   FILTER (?k > 45)
                 }}"
            ),
        ),
        (
            "star-filter",
            format!(
                "PREFIX b: <{b}>
                 SELECT ?t WHERE {{
                   ?t b:k_1 ?k1 . ?t b:k_4 ?k4 . ?t b:k_a ?ka .
                   FILTER (?k1 + ?k4 > 120)
                   ?t b:result 1 .
                 }}"
            ),
        ),
    ];
    let modes = [PlannerMode::Textual, PlannerMode::Greedy, PlannerMode::Dp];
    let mut table = Vec::new();
    let mut star = [0.0; 3];
    for (name, q) in &queries {
        let mut rows_seen = None;
        let times = modes.map(|mode| {
            let plan = plan_for(&db.dataset, q, mode, false);
            let (rows, ms) = run_plan(&mut db.dataset, &plan, repeats);
            let first = *rows_seen.get_or_insert(rows);
            assert_eq!(first, rows, "{name}: {} diverged", mode.name());
            ms
        });
        if *name == "star-join" {
            star = times;
        }
        let [textual, greedy, dp] = times;
        table.push(vec![
            (*name).into(),
            rows_seen.into(),
            textual.into(),
            greedy.into(),
            dp.into(),
            (textual / dp.max(1e-9)).into(),
        ]);
    }
    report.table(
        "enumeration",
        "join enumeration: textual vs greedy vs DP",
        &[
            ("query", "query", Fmt::Plain),
            ("rows", "rows", Fmt::Plain),
            ("textual ms", "textual_ms", Fmt::Ms),
            ("greedy ms", "greedy_ms", Fmt::Ms),
            ("dp ms", "dp_ms", Fmt::Ms),
            ("dp vs textual", "dp_vs_textual", Fmt::Unit(1, "x")),
        ],
        table,
    );

    // ----- range-filter leg -------------------------------------------------
    let q1 = |k: &str| {
        format!(
            "PREFIX b: <{b}> SELECT ?t ?k WHERE {{ ?t b:k_1 ?k ; b:result 1 . FILTER ({k} > 46) }}"
        )
    };
    let count = format!(
        "PREFIX b: <{b}> SELECT (COUNT(?t) AS ?n) WHERE {{ ?t b:k_1 ?k . FILTER (?k + 0 >= 46) }}"
    );
    let window_rows = match db.query(&count).expect("count").into_rows().as_deref() {
        Some([row]) => row[0]
            .as_ref()
            .and_then(|v| v.as_num())
            .expect("a count")
            .as_i64() as u64,
        other => panic!("one row expected, got {other:?}"),
    };
    let mut table = Vec::new();
    let mut visited = Vec::new(); // per filter: (answer rows, entries visited)
    let mut ranged_scan = None;
    for (label, query) in [("sargable", q1("?k")), ("disguised", q1("?k + 0"))] {
        let (result, profile) = db.dataset.query_profiled(&query).expect("profiled run");
        let rows = result.into_rows().expect("solutions").len();
        let scans = scan_rows(&profile);
        let total: u64 = scans.iter().map(|(_, n)| n).sum();
        let ranged = scans
            .iter()
            .find(|(l, _)| l.contains("k_1") && l.contains(" [?k > 46]"));
        ranged_scan = ranged_scan.or(ranged.map(|(_, n)| *n));
        let (ms, _) = best_of(repeats, || db.query(&query).expect("Q1"));
        visited.push((rows, total));
        table.push(vec![
            label.into(),
            window_rows.into(),
            rows.into(),
            total.into(),
            ms.into(),
        ]);
    }
    assert_eq!(
        visited[0].0, visited[1].0,
        "the disguise changed the answer"
    );
    report.table(
        "range_filter",
        "range filter (Q1, k_1 > 46)",
        &[
            ("filter", "filter", Fmt::Plain),
            ("window rows", "window_rows", Fmt::Plain),
            ("answer rows", "rows", Fmt::Plain),
            ("index entries visited", "visited", Fmt::Plain),
            ("ms/query", "ms", Fmt::Ms),
        ],
        table,
    );

    // ----- calibration leg -------------------------------------------------
    let mut skew = skew_dataset(n);
    let query = "PREFIX ex: <http://example.org/>
                 SELECT ?s ?p WHERE {
                   ?s ex:status \"common\" .
                   ?s ex:grade \"b7\" .
                   ?s ex:payload ?p .
                 }";
    let cold_plan = plan_for(&skew, query, PlannerMode::Dp, false);
    let (rows_off, off_ms) = run_plan(&mut skew, &cold_plan, repeats);
    // Train: two profiled runs feed observed scan cardinalities into
    // the calibration table (EWMA converges fast under 20x error).
    for _ in 0..2 {
        skew.query_profiled(query).expect("training run");
    }
    let warm_plan = plan_for(&skew, query, PlannerMode::Dp, true);
    let (rows_on, on_ms) = run_plan(&mut skew, &warm_plan, repeats);
    assert_eq!(rows_off, rows_on, "calibration changed results");
    let learned = skew.calibration.len();
    report.table(
        "calibration",
        &format!("calibration (skewed shape, n={n}, {learned} learned predicates)"),
        &[
            ("calibration", "calibration", Fmt::Plain),
            ("rows", "rows", Fmt::Plain),
            ("ms/query", "ms", Fmt::Ms),
        ],
        vec![
            vec!["off".into(), rows_off.into(), off_ms.into()],
            vec!["on".into(), rows_on.into(), on_ms.into()],
        ],
    );

    // ----- claims -------------------------------------------------------------
    let [textual, greedy, dp] = star;
    let claim = "star-join: DP speedup over textual order";
    report.check(claim, textual / dp, Bar::AtLeast(2.0));
    report.check(
        "star-join: DP time / greedy time",
        dp / greedy,
        Bar::AtMost(1.25),
    );
    let window = window_rows as f64;
    let ranged = ranged_scan.expect("a ranged k_1 scan in Q1's profile");
    let claim = "Q1: index entries the ranged k_1 scan visits";
    report.check(claim, ranged as f64, Bar::AtMost(window));
    let claim = "Q1: index entries visited in all";
    report.check(claim, visited[0].1 as f64, Bar::AtMost(2.0 * window));
    let claim = "skewed shape: calibrated / uncalibrated time";
    report.check(claim, on_ms / off_ms, Bar::Below(1.0));
    report.finish()
}
