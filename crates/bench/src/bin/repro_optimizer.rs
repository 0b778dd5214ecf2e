//! Optimizer ablation v2 (thesis §5.4): 3-way join-enumeration matrix
//! plus the calibration feedback loop.
//!
//! 1. **Enumeration matrix** — star-join queries over the BISTAB
//!    workload, written selective-pattern-LAST (worst textual order),
//!    evaluated under all three planner modes. Required: DP **≥ 2×**
//!    faster than textual order on the star-join shape, DP no slower
//!    than greedy, and identical row counts everywhere.
//! 2. **Calibration** — a deliberately misestimated skew shape: the
//!    uniform count/distinct model orders a "selective-looking" scan
//!    first even though it matches most of the graph. Two profiled
//!    training runs feed observed cardinalities into the calibration
//!    table; the corrected plan flips the join order. Required:
//!    calibration-on beats calibration-off, identical results.
//!
//! 3. **Range filter** — BISTAB Q1 (`?t b:k_1 ?k ; b:result 1 .
//!    FILTER (?k > c)`) with the filter as written, which the planner
//!    turns into a range scan of the value index, against the same
//!    filter disguised as `?k + 0 > c`, which it cannot. Reported as
//!    index entries visited (the scans' output rows in the profile — a
//!    count that repeats exactly). Required: the ranged scan visits no
//!    more than the rows in the window, and both return the same rows.
//!
//! Measurements land as JSON (default `BENCH_optimizer.json`, `--out`).
//!
//! ```text
//! repro_optimizer [--quick] [--out PATH]
//! ```

use std::time::Instant;

use scisparql::algebra::{self, Plan};
use scisparql::ast::Statement;
use scisparql::planner::{PlannerConfig, PlannerCtx, PlannerMode};
use scisparql::Dataset;
use ssdm::bistab::{self, BistabConfig};
use ssdm::{Backend, Ssdm};
use ssdm_bench::fmt_ms;
use ssdm_bench::runner::print_table;

fn usage() -> ! {
    eprintln!("usage: repro_optimizer [--quick] [--out PATH]");
    std::process::exit(2)
}

/// Best-of-N timing: the minimum is the least-noise estimate for a
/// deterministic computation.
fn best_of<R>(repeats: usize, mut f: impl FnMut() -> R) -> (f64, R) {
    let mut best = f64::INFINITY;
    let mut result = None;
    for _ in 0..repeats {
        let start = Instant::now();
        let r = f();
        best = best.min(start.elapsed().as_secs_f64() * 1e3);
        result = Some(r);
    }
    (best, result.expect("repeats >= 1"))
}

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
        adaptive_qerror: None,
        calibration: calibrated,
        ..PlannerConfig::default()
    };
    let ctx = PlannerCtx {
        graph: ds.graph.view(),
        config,
        calibration: if calibrated {
            Some(&ds.calibration)
        } else {
            None
        },
        zones: None,
    };
    algebra::optimize_with(algebra::translate(&q.pattern), &ctx)
}

/// Evaluate a pre-built plan, returning (rows, best-of-N ms).
fn run_plan(ds: &mut Dataset, plan: &Plan, repeats: usize) -> (usize, f64) {
    let vars = scisparql::eval::VarTable::for_plan(plan);
    let (ms, rows) = best_of(repeats, || {
        scisparql::eval::eval_plan(ds, &vars, plan, vec![vars.unit_row()])
            .expect("eval")
            .len()
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

fn main() {
    let mut quick = false;
    let mut out = "BENCH_optimizer.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            _ => usage(),
        }
    }
    let repeats = if quick { 3 } else { 7 };

    println!("Optimizer ablation v2: enumeration matrix + calibration (thesis §5.4)");
    let mut db = Ssdm::open(Backend::Memory);
    bistab::load_bistab(
        &mut db,
        &BistabConfig {
            tasks: if quick { 800 } else { 2000 },
            realizations: 4,
            trajectory_len: 8,
            seed: 3,
        },
    )
    .expect("load");
    // Static plans only: adaptivity would partially repair the bad
    // textual order mid-flight and blur the comparison.
    db.dataset.planner.adaptive_qerror = None;

    // Queries written selective-pattern-LAST (worst textual order).
    let b = bistab::NS;
    let queries = vec![
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
    let header: Vec<String> = [
        "query",
        "rows",
        "textual ms",
        "greedy ms",
        "dp ms",
        "dp vs textual",
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let mut table = Vec::new();
    let mut matrix = Vec::new();
    for (name, q) in &queries {
        let mut times = Vec::new();
        let mut rows_seen = None;
        for mode in modes {
            let plan = plan_for(&db.dataset, q, mode, false);
            let (rows, ms) = run_plan(&mut db.dataset, &plan, repeats);
            match rows_seen {
                None => rows_seen = Some(rows),
                Some(r) => assert_eq!(r, rows, "{name}: {} diverged", mode.name()),
            }
            times.push(ms);
        }
        let (textual, greedy, dp) = (times[0], times[1], times[2]);
        let rows = rows_seen.expect("ran");
        table.push(vec![
            name.to_string(),
            rows.to_string(),
            fmt_ms(textual),
            fmt_ms(greedy),
            fmt_ms(dp),
            format!("{:.1}x", textual / dp.max(1e-9)),
        ]);
        matrix.push((name.to_string(), rows, textual, greedy, dp));
    }
    print_table("join enumeration: textual vs greedy vs DP", &header, &table);

    // Acceptance: DP ≥2× over textual on the star join, and no slower
    // than greedy (identical order is expected on this shape; the
    // tolerance absorbs timer noise).
    let (_, _, star_textual, star_greedy, star_dp) = matrix[0].clone();
    assert!(
        star_dp * 2.0 <= star_textual,
        "DP must be >=2x faster than textual on star-join: dp={star_dp:.2}ms textual={star_textual:.2}ms"
    );
    assert!(
        star_dp <= star_greedy * 1.25,
        "DP must not lose to greedy on star-join: dp={star_dp:.2}ms greedy={star_greedy:.2}ms"
    );

    // ----- range-filter leg -------------------------------------------------
    let q1 = |k: &str| {
        format!(
            "PREFIX b: <{b}> SELECT ?t ?k WHERE {{ ?t b:k_1 ?k ; b:result 1 . FILTER ({k} > 46) }}"
        )
    };
    let (sargable, disguised) = (q1("?k"), q1("?k + 0"));
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
    let mut visited = |query: &str| {
        let (result, profile) = db.dataset.query_profiled(query).expect("profiled run");
        let rows = result.into_rows().expect("solutions").len();
        (rows, scan_rows(&profile))
    };
    let (rows_sargable, scans_sargable) = visited(&sargable);
    let (rows_disguised, scans_disguised) = visited(&disguised);
    assert_eq!(
        rows_sargable, rows_disguised,
        "the disguise changed the answer"
    );
    let total = |scans: &[(String, u64)]| scans.iter().map(|(_, n)| n).sum::<u64>();
    let (visited_sargable, visited_disguised) = (total(&scans_sargable), total(&scans_disguised));
    let ranged = scans_sargable
        .iter()
        .find(|(label, _)| label.contains("k_1") && label.contains(" [?k > 46]"))
        .unwrap_or_else(|| panic!("no ranged k_1 scan in {scans_sargable:?}"));
    assert!(
        ranged.1 <= window_rows,
        "the ranged scan visited {} entries for a window of {window_rows}",
        ranged.1
    );
    assert!(
        visited_sargable <= 2 * window_rows,
        "Q1 visited {visited_sargable} entries for a window of {window_rows}"
    );
    let (sargable_ms, _) = best_of(repeats, || db.query(&sargable).expect("Q1"));
    let (disguised_ms, _) = best_of(repeats, || db.query(&disguised).expect("Q1 disguised"));
    println!(
        "\nrange filter (Q1, k_1 > 46): window {window_rows} rows, answer {rows_sargable} rows; \
         visited {visited_sargable} sargable vs {visited_disguised} disguised; {} vs {}",
        fmt_ms(sargable_ms),
        fmt_ms(disguised_ms)
    );

    // ----- calibration leg -------------------------------------------------
    let n = if quick { 6000 } else { 20000 };
    let mut skew = skew_dataset(n);
    skew.planner.adaptive_qerror = None;
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
    println!(
        "\ncalibration (skewed shape, n={n}): off={} on={} ({:.1}x), {} rows, {} learned predicates",
        fmt_ms(off_ms),
        fmt_ms(on_ms),
        off_ms / on_ms.max(1e-9),
        rows_on,
        skew.calibration.len()
    );
    assert!(
        on_ms < off_ms,
        "calibration-on must beat calibration-off on the misestimated shape: on={on_ms:.2}ms off={off_ms:.2}ms"
    );

    // ----- JSON artifact ---------------------------------------------------
    let mut json = format!(
        "{{\n  \"measured_at\": \"{}\",\n",
        ssdm_bench::measured_at()
    );
    json.push_str(&format!("  \"quick\": {quick},\n"));
    json.push_str("  \"enumeration\": [\n");
    for (i, (name, rows, textual, greedy, dp)) in matrix.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"query\": \"{name}\", \"rows\": {rows}, \"textual_ms\": {textual:.3}, \
             \"greedy_ms\": {greedy:.3}, \"dp_ms\": {dp:.3}}}{}\n",
            if i + 1 == matrix.len() { "" } else { "," }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"range_filter\": {{\"window_rows\": {window_rows}, \"rows\": {rows_sargable}, \
         \"visited_sargable\": {visited_sargable}, \"visited_disguised\": {visited_disguised}, \
         \"sargable_ms\": {sargable_ms:.3}, \"disguised_ms\": {disguised_ms:.3}}},\n"
    ));
    json.push_str(&format!(
        "  \"calibration\": {{\"n\": {n}, \"rows\": {rows_on}, \"off_ms\": {off_ms:.3}, \
         \"on_ms\": {on_ms:.3}, \"speedup\": {:.2}}}\n",
        off_ms / on_ms.max(1e-9)
    ));
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write JSON");
    println!("wrote {out}");
}
