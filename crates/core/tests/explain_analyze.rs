//! `EXPLAIN ANALYZE` end-to-end: the profile parses, carries the
//! expected counter names, and its per-operator rows exactly reconcile
//! with the backend's `IoStats`/cache totals.

use scisparql::{Dataset, QueryResult};

/// A dataset with one externalized 4000-element array so queries do
/// real chunked I/O.
fn chunked_dataset() -> Dataset {
    let mut ds = Dataset::in_memory();
    ds.externalize_threshold = 16;
    ds.chunk_bytes = 256; // 32 elements per chunk
    let elems: Vec<String> = (0..4000).map(|i| i.to_string()).collect();
    ds.load_turtle(&format!(
        "@prefix ex: <http://example.org/> .
         ex:m ex:data ({}) ; ex:station \"Uppsala\" .",
        elems.join(" ")
    ))
    .unwrap();
    ds
}

/// Parse `key=value` integer fields out of one profile line.
fn fields(line: &str) -> std::collections::HashMap<String, u64> {
    line.split_whitespace()
        .filter_map(|tok| {
            let (k, v) = tok.split_once('=')?;
            Some((k.to_string(), v.parse().ok()?))
        })
        .collect()
}

#[test]
fn profile_reports_phases_and_operators() {
    let mut ds = chunked_dataset();
    let result = ds
        .query(
            "PREFIX ex: <http://example.org/>
             EXPLAIN ANALYZE SELECT (array_sum(?a) AS ?s)
             WHERE { ?m ex:data ?a }",
        )
        .unwrap();
    let QueryResult::Text(profile) = result else {
        panic!("EXPLAIN ANALYZE must return text");
    };
    for needle in [
        "EXPLAIN ANALYZE",
        "phases:",
        "parse_us=",
        "rewrite_us=",
        "plan_us=",
        "exec_us=",
        "total_us=",
        "operators:",
        "Scan",
        "Project",
        "rows_in=",
        "rows_out=",
        "time_us=",
        "est=",
        "actual=",
        "qerr=",
        "statements=",
        "chunks=",
        "bytes=",
        "cache_hits=",
        "cache_misses=",
        "kernel_elems=",
        "fallbacks=",
        "skipped=",
        "decoded=",
        "bytes_decoded=",
        "totals:",
    ] {
        assert!(
            profile.contains(needle),
            "missing {needle:?} in:\n{profile}"
        );
    }
}

const STATION_MAX: &str = "PREFIX ex: <http://example.org/>
     SELECT ?st (array_max(?a) AS ?m)
     WHERE { ?x ex:data ?a ; ex:station ?st }
     ORDER BY ?st";

/// Profile `STATION_MAX`, check that its per-operator rows sum exactly
/// to its totals and that the totals are exactly the back-end's
/// `IoStats`/cache movement over the query, and return the totals.
fn reconciled_totals(ds: &mut Dataset) -> std::collections::HashMap<String, u64> {
    let io_before = ds.arrays.backend().io_stats();
    let cache_before = ds.arrays.backend().cache_stats();
    let result = ds.query(&format!("EXPLAIN ANALYZE {STATION_MAX}")).unwrap();
    let QueryResult::Text(profile) = result else {
        panic!("text result expected");
    };
    let io_after = ds.arrays.backend().io_stats();
    let cache_after = ds.arrays.backend().cache_stats();

    // Sum the exclusive per-operator counters.
    let mut op_sums: std::collections::HashMap<String, u64> = Default::default();
    let mut totals: std::collections::HashMap<String, u64> = Default::default();
    for line in profile.lines() {
        if line.starts_with("totals:") {
            totals = fields(line);
        } else if line.contains("time_us=") {
            for (k, v) in fields(line) {
                *op_sums.entry(k).or_default() += v;
            }
        }
    }
    assert!(!totals.is_empty(), "no totals line in:\n{profile}");

    // Per-operator rows sum exactly to the profile totals...
    for key in [
        "statements",
        "chunks",
        "bytes",
        "cache_hits",
        "cache_misses",
        "fallbacks",
        "skipped",
        "decided",
        "decoded",
        "bytes_decoded",
    ] {
        assert_eq!(
            op_sums.get(key),
            totals.get(key),
            "operator {key} rows don't sum to totals in:\n{profile}"
        );
    }
    // ...and the totals are exactly the backend's IoStats/cache
    // movement over the query.
    assert_eq!(
        totals["statements"],
        io_after.statements - io_before.statements
    );
    assert_eq!(
        totals["chunks"],
        io_after.chunks_returned - io_before.chunks_returned
    );
    assert_eq!(
        totals["bytes"],
        io_after.bytes_returned - io_before.bytes_returned
    );
    assert_eq!(totals["cache_hits"], cache_after.hits - cache_before.hits);
    assert_eq!(
        totals["cache_misses"],
        cache_after.misses - cache_before.misses
    );
    totals
}

/// `STATION_MAX`'s rows, printed.
fn station_max(ds: &mut Dataset) -> Vec<Vec<Option<String>>> {
    let rows = ds.query(STATION_MAX).unwrap().into_rows().unwrap();
    let print = |row: Vec<_>| {
        row.into_iter()
            .map(|c: Option<_>| c.map(|v| format!("{v:?}")))
    };
    rows.into_iter().map(|r| print(r).collect()).collect()
}

#[test]
fn operator_counters_reconcile_with_io_totals() {
    let mut ds = chunked_dataset();
    // With the zone map off, `array_max` reads every chunk.
    ds.arrays.set_skip_enabled(false);
    let answer = station_max(&mut ds);
    let totals = reconciled_totals(&mut ds);
    // The query really did chunked work, so the reconciliation above is
    // not vacuous.
    assert!(totals["statements"] > 0, "query did no I/O: {totals:?}");
    assert!(totals["chunks"] > 0);
    // Externalized arrays are stored as SCC1 codec frames, so every
    // fetched chunk is decoded and the decode counters must move.
    assert!(totals["decoded"] > 0, "no decodes recorded: {totals:?}");
    assert!(totals["bytes_decoded"] > 0);
    assert_eq!(totals["decided"], 0);

    // With it on, every chunk's summary decides its maximum: the same
    // answer, nothing fetched or decoded, and the decided chunks
    // reconcile like every other counter.
    ds.arrays.set_skip_enabled(true);
    assert_eq!(station_max(&mut ds), answer);
    let totals = reconciled_totals(&mut ds);
    assert_eq!(totals["decided"], 4000 / 32, "{totals:?}");
    for key in ["statements", "chunks", "decoded", "bytes_decoded"] {
        assert_eq!(totals[key], 0, "{key} with every chunk decided");
    }
}

#[test]
fn explain_analyze_executes_the_query() {
    // EXPLAIN ANALYZE must *run* the query: the kernel element counter
    // moves, unlike plain EXPLAIN which only plans.
    let mut ds = chunked_dataset();
    let before = ssdm_array::compute_stats().elements_processed;
    ds.query(
        "PREFIX ex: <http://example.org/>
         EXPLAIN ANALYZE SELECT (array_sum(?a) AS ?s) WHERE { ?m ex:data ?a }",
    )
    .unwrap();
    let after = ssdm_array::compute_stats().elements_processed;
    assert!(after > before, "EXPLAIN ANALYZE did not execute");

    let plain = ds
        .query(
            "PREFIX ex: <http://example.org/>
             EXPLAIN SELECT (array_sum(?a) AS ?s) WHERE { ?m ex:data ?a }",
        )
        .unwrap();
    let QueryResult::Text(tree) = plain else {
        panic!()
    };
    assert!(tree.contains("Scan"));
    assert!(!tree.contains("totals:"), "plain EXPLAIN must not profile");
}

#[test]
fn estimate_columns_carry_finite_q_errors() {
    // Every plan-tree operator row must render est/actual/qerr, the
    // floats must parse, and qerr must respect its half-row floor. The
    // fields are float-formatted on purpose so the integer-field
    // reconciliation in `operator_counters_reconcile_with_io_totals`
    // never picks them up.
    let mut ds = chunked_dataset();
    let result = ds
        .query(
            "PREFIX ex: <http://example.org/>
             EXPLAIN ANALYZE SELECT ?st WHERE { ?x ex:data ?a ; ex:station ?st }",
        )
        .unwrap();
    let QueryResult::Text(profile) = result else {
        panic!("text result expected");
    };
    let mut seen = 0;
    for line in profile.lines() {
        let Some(est_tok) = line.split_whitespace().find(|t| t.starts_with("est=")) else {
            continue;
        };
        seen += 1;
        let est: f64 = est_tok["est=".len()..].parse().expect("est parses");
        let qerr_tok = line
            .split_whitespace()
            .find(|t| t.starts_with("qerr="))
            .expect("qerr next to est");
        let qerr: f64 = qerr_tok["qerr=".len()..].parse().expect("qerr parses");
        assert!(est.is_finite() && est >= 0.0, "bad est in {line}");
        assert!(qerr.is_finite() && qerr >= 1.0, "bad qerr in {line}");
        assert!(line.contains("actual="), "actual missing in {line}");
    }
    assert!(seen >= 2, "expected scan rows with estimates:\n{profile}");
}

#[test]
fn profiled_queries_feed_the_calibration_table() {
    // The feedback loop: after a profiled query, the dataset's
    // calibration table holds per-predicate corrections learned from
    // observed-vs-estimated scan cardinalities.
    let mut ds = chunked_dataset();
    assert!(ds.calibration.is_empty());
    ds.query_profiled(
        "PREFIX ex: <http://example.org/>
         SELECT ?st WHERE { ?m ex:station ?st }",
    )
    .unwrap();
    assert!(
        !ds.calibration.is_empty(),
        "profiled scan should leave a calibration entry"
    );
    let key = "<http://example.org/station>";
    assert!(ds.calibration.samples(key) >= 1, "no samples under {key}");
    assert!(ds.calibration.factor(key).is_finite());
}

#[test]
fn query_profiled_returns_result_and_profile() {
    let mut ds = chunked_dataset();
    let (result, profile) = ds
        .query_profiled(
            "PREFIX ex: <http://example.org/>
             SELECT ?st WHERE { ?m ex:station ?st }",
        )
        .unwrap();
    let rows = result.into_rows().unwrap();
    assert_eq!(rows.len(), 1);
    assert!(profile.contains("operators:"));
    assert!(profile.contains("totals:"));
}

/// A FILTER on metadata written after a BIND that reads an array runs
/// beneath the BIND: only the surviving solutions fetch their chunks.
#[test]
fn metadata_filter_sinks_below_array_bind() {
    let mut ds = Dataset::in_memory();
    ds.externalize_threshold = 16;
    ds.chunk_bytes = 256; // 32 elements per chunk
    let mut turtle = String::from("@prefix ex: <http://example.org/> .\n");
    for station in 0..8 {
        let elems: Vec<String> = (0..128).map(|i| (station * 1000 + i).to_string()).collect();
        turtle.push_str(&format!(
            "ex:m{station} ex:data ({}) ; ex:k {station} .\n",
            elems.join(" ")
        ));
    }
    ds.load_turtle(&turtle).unwrap();
    let profile = |ds: &mut Dataset, select: &str, body: &str| {
        let q = format!(
            "PREFIX ex: <http://example.org/>
             EXPLAIN ANALYZE SELECT {select} WHERE {{ ?x ex:data ?a ; ex:k ?k . {body} }}"
        );
        let QueryResult::Text(profile) = ds.query(&q).unwrap() else {
            panic!("text result expected");
        };
        let totals = profile.lines().find(|l| l.starts_with("totals:")).unwrap();
        (fields(totals), profile)
    };
    let measure = |ds: &mut Dataset| {
        let in_projection = profile(ds, "(array_max(?a) AS ?m)", "FILTER (?k = 5)");
        let sunk = profile(ds, "?m", "BIND (array_max(?a) AS ?m) FILTER (?k = 5)");
        let held = profile(
            ds,
            "?m",
            "BIND (array_max(?a) AS ?m) FILTER (?k = 5 && ?m > 0)",
        );
        (in_projection, sunk, held)
    };
    // With the zone map off, `array_max` fetches the chunks it reads.
    ds.arrays.set_skip_enabled(false);
    let ((in_projection, _), (sunk, plan), (held, _)) = measure(&mut ds);
    let chunks = |t: &std::collections::HashMap<String, u64>| t["chunks"];
    let (in_projection, sunk, held) = (chunks(&in_projection), chunks(&sunk), chunks(&held));
    assert!(in_projection > 0);
    assert_eq!(sunk, in_projection, "one station's chunks:\n{plan}");
    assert_eq!(
        held,
        8 * in_projection,
        "a filter on ?m fetches every array"
    );
    let line = |op: &str| plan.lines().position(|l| l.trim_start().starts_with(op));
    assert!(
        line("Extend").unwrap() < line("Filter").unwrap(),
        "Filter sits below the Extend:\n{plan}"
    );

    // With it on, every maximum is decided from the zone map: nothing
    // is fetched, and the decided chunks show the same sinking.
    ds.arrays.set_skip_enabled(true);
    let ((on_projection, _), (on_sunk, plan), (on_held, _)) = measure(&mut ds);
    let decided = |t: &std::collections::HashMap<String, u64>| t["decided"];
    for totals in [&on_projection, &on_sunk, &on_held] {
        assert_eq!(chunks(totals), 0, "{totals:?}");
    }
    assert_eq!(decided(&on_projection), in_projection);
    assert_eq!(decided(&on_sunk), in_projection, "one station's:\n{plan}");
    assert_eq!(decided(&on_held), 8 * in_projection);
}

#[test]
fn a_pushed_window_shows_on_its_scan_and_is_estimated_as_one_range() {
    // 4 000 tasks, k uniform on [10, 50) in steps of 0.01, every other
    // one with result 1: the BISTAB Q1 shape with a window filter.
    let mut ds = Dataset::in_memory();
    let mut turtle = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..4000 {
        let k = 10.0 + i as f64 / 100.0;
        turtle.push_str(&format!("ex:t{i} ex:k {k:.2} ; ex:result {} .\n", i % 2));
    }
    ds.load_turtle(&turtle).unwrap();
    let result = ds
        .query(
            "PREFIX ex: <http://example.org/>
             EXPLAIN ANALYZE SELECT ?t WHERE { ?t ex:k ?k ; ex:result 1 . FILTER(?k > 30 && ?k < 31) }",
        )
        .unwrap();
    let QueryResult::Text(profile) = result else {
        panic!("text result expected");
    };
    let float = |line: &str, key: &str| -> f64 {
        let tok = line.split_whitespace().find(|t| t.starts_with(key));
        tok.unwrap_or_else(|| panic!("{key} missing in {line}"))[key.len()..]
            .parse()
            .unwrap()
    };
    let operators: Vec<&str> = profile
        .lines()
        .filter(|l| l.contains("rows_out="))
        .collect();
    let scan = operators
        .iter()
        .find(|l| l.contains("Scan ?t <http://example.org/k> ?k [?k > 30 && ?k < 31]"))
        .unwrap_or_else(|| panic!("no windowed scan in:\n{profile}"));
    // The scan reads the window (both ends included: the index answers
    // a superset), the filter above it drops the two ends.
    assert_eq!(fields(scan)["rows_in"], 1, "the ranged scan runs first");
    assert_eq!(fields(scan)["rows_out"], 101);
    let filter = operators
        .iter()
        .find(|l| l.trim_start().starts_with("Filter"))
        .expect("the filter stays in the plan");
    assert_eq!(fields(filter)["rows_out"], 99);
    // One range estimate for the window, within 2x of what came back;
    // the filter is not discounted a second time.
    assert!(float(scan, "qerr=") <= 2.0, "{scan}");
    assert!(float(filter, "qerr=") <= 2.0, "{filter}");
    assert_eq!(float(filter, "est="), float(scan, "est="));
    // Nobody paid for the predicate: no operator saw the 4 000 tasks,
    // or the 2 000 with result 1.
    for op in &operators {
        assert!(fields(op)["rows_out"] <= 101, "{op}");
    }
}

/// The predicate IRIs of the scans in a rendered plan or profile, in
/// operator order.
fn scan_order(text: &str) -> Vec<String> {
    text.lines()
        .filter_map(|line| line.split_once("Scan ")?.1.split_once('<'))
        .filter_map(|(_, rest)| Some(rest.split_once('>')?.0.to_string()))
        .collect()
}

/// `EXPLAIN` shows the plan the query runs: under every planner mode
/// its scans come in the order `EXPLAIN ANALYZE` executes them — with
/// the dataset's mode, and under a `FROM` graph whose statistics differ
/// from the default graph's.
#[test]
fn explain_plans_what_explain_analyze_runs() {
    use scisparql::planner::{PlannerConfig, PlannerMode};

    let mut common = String::from("@prefix ex: <http://e#> . ex:s0 ex:rare \"x\" .\n");
    for i in 0..500 {
        common.push_str(&format!("ex:s{i} ex:common {i} .\n"));
    }
    // `a` is common and `b` rare in the default graph; the reverse in <g>.
    let skewed = |many: &str, few: &str| {
        let mut text = String::from("@prefix ex: <http://e#> .\n");
        for i in 0..500 {
            text.push_str(&format!("ex:s{i} ex:{many} {i} .\n"));
        }
        for i in 0..3 {
            text.push_str(&format!("ex:s{i} ex:{few} {i} .\n"));
        }
        text
    };
    let mut ds = Dataset::in_memory();
    ds.load_turtle(&common).unwrap();
    ds.load_turtle(&skewed("a", "b")).unwrap();
    ds.load_turtle_named("http://g", &skewed("b", "a")).unwrap();
    let queries = [
        "SELECT ?s WHERE { ?s ex:common ?v . ?s ex:rare \"x\" }",
        "SELECT ?s FROM <http://g> WHERE { ?s ex:a ?x . ?s ex:b ?y }",
    ];
    for mode in [PlannerMode::Textual, PlannerMode::Greedy, PlannerMode::Dp] {
        ds.planner = PlannerConfig {
            mode,
            ..PlannerConfig::default()
        };
        for q in queries {
            let run = |ds: &mut Dataset, verb: &str| match ds
                .query(&format!("PREFIX ex: <http://e#> {verb} {q}"))
            {
                Ok(QueryResult::Text(text)) => scan_order(&text),
                other => panic!("{verb} {q}: {other:?}"),
            };
            let planned = run(&mut ds, "EXPLAIN");
            let ran = run(&mut ds, "EXPLAIN ANALYZE");
            assert_eq!(planned.len(), 2, "{mode:?} {q}");
            assert_eq!(planned, ran, "{mode:?} {q}");
        }
    }
}

/// Rows of the profile that are operators, and the phases line.
fn operator_lines(profile: &str) -> (Vec<&str>, &str) {
    let ops = profile.lines().filter(|l| l.contains("time_us=")).collect();
    let phases = profile.lines().find(|l| l.starts_with("phases:")).unwrap();
    (ops, phases)
}

/// Turning slots into result values is an operator row of its own, and
/// the operator rows account for the execution time once each: every
/// row reports its own time, not its inputs'.
#[test]
fn result_materialization_is_an_operator_row() {
    let mut ds = Dataset::in_memory();
    let mut turtle = String::from("@prefix ex: <http://example.org/> .\n");
    for i in 0..2000 {
        turtle.push_str(&format!("ex:task{i} ex:k_1 {} .\n", i % 50));
    }
    ds.load_turtle(&turtle).unwrap();
    let QueryResult::Text(profile) = ds
        .query(
            "PREFIX ex: <http://example.org/>
             EXPLAIN ANALYZE SELECT * WHERE { ?task ex:k_1 ?k1 FILTER(?k1 > 45) }",
        )
        .unwrap()
    else {
        panic!("text result expected");
    };
    let (ops, phases) = operator_lines(&profile);
    let materialize = ops
        .iter()
        .find(|l| l.trim_start().starts_with("Materialize"))
        .unwrap_or_else(|| panic!("no Materialize row in:\n{profile}"));
    // k_1 in 46..=49: four values, forty tasks each.
    assert_eq!(fields(materialize)["rows_in"], 160);
    assert_eq!(fields(materialize)["rows_out"], 160);
    let own: u64 = ops.iter().map(|l| fields(l)["time_us"]).sum();
    let exec = fields(phases)["exec_us"];
    assert!(
        own <= exec + 1,
        "{own} µs of operators in {exec} µs:\n{profile}"
    );
}

/// An operator that `LIMIT` cuts short reports as `actual` the rows it
/// handed on before the cut — one batch here — and is marked `cut`; its
/// estimate, made for all its input, does not feed the calibration
/// table. The counters still reconcile exactly.
#[test]
fn an_operator_cut_short_reports_what_it_handed_on() {
    let mut ds = Dataset::in_memory();
    ds.externalize_threshold = 16;
    ds.chunk_bytes = 256;
    let mut turtle = String::from("@prefix ex: <http://example.org/> .\n");
    for m in 0..300 {
        let elems: Vec<String> = (0..64).map(|i| (m * 1000 + i).to_string()).collect();
        turtle.push_str(&format!("ex:m{m} ex:data ({}) .\n", elems.join(" ")));
    }
    ds.load_turtle(&turtle).unwrap();
    let io_before = ds.arrays.backend().io_stats();
    let QueryResult::Text(profile) = ds
        .query(
            "PREFIX ex: <http://example.org/>
             EXPLAIN ANALYZE SELECT ?m (array_sum(?a) AS ?s) WHERE { ?m ex:data ?a } LIMIT 2",
        )
        .unwrap()
    else {
        panic!("text result expected");
    };
    let io_after = ds.arrays.backend().io_stats();
    let (ops, _) = operator_lines(&profile);
    let scan = ops.iter().find(|l| l.contains("Scan ")).unwrap();
    let batch = scisparql::eval::BATCH_ROWS as u64;
    assert_eq!(fields(scan)["rows_out"], batch, "{profile}");
    assert!(scan.contains(&format!("actual={batch} cut ")), "{scan}");
    let project = ops.iter().find(|l| l.contains("Project")).unwrap();
    assert_eq!(
        (fields(project)["rows_in"], fields(project)["rows_out"]),
        (batch, 2)
    );
    assert!(ds.calibration.samples("<http://example.org/data>") == 0);

    // Only the two projected arrays were read, and the rows reconcile.
    let totals = fields(profile.lines().find(|l| l.starts_with("totals:")).unwrap());
    assert_eq!(
        totals["statements"],
        io_after.statements - io_before.statements
    );
    assert!(totals["statements"] > 0);
    for key in ["statements", "chunks", "bytes", "decoded", "bytes_decoded"] {
        let sum: u64 = ops.iter().map(|l| fields(l)[key]).sum();
        assert_eq!(sum, totals[key], "{key} in:\n{profile}");
    }
    let two_arrays = ds.query(
        "PREFIX ex: <http://example.org/>
         EXPLAIN ANALYZE SELECT ?m (array_sum(?a) AS ?s) WHERE { ?m ex:data ?a FILTER(?m IN (ex:m0, ex:m1)) }",
    );
    let QueryResult::Text(two) = two_arrays.unwrap() else {
        panic!("text result expected");
    };
    let two = fields(two.lines().find(|l| l.starts_with("totals:")).unwrap());
    assert_eq!(totals["chunks"], two["chunks"], "LIMIT 2 reads two arrays");

    // Uncut, the same scan teaches the calibration table.
    ds.query_profiled("PREFIX ex: <http://example.org/> SELECT ?m WHERE { ?m ex:data ?a }")
        .unwrap();
    assert!(ds.calibration.samples("<http://example.org/data>") >= 1);
}
