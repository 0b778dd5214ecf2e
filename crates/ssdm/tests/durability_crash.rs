//! Crash-point recovery test: for a crash injected at *any* byte
//! boundary of the write-ahead log, recovery must produce a
//! prefix-consistent state — every acknowledged update present, no
//! partial update visible, and the recovered state equal to the state
//! after some prefix of the update schedule.
//!
//! The schedule mixes scalar inserts, array loads above the
//! externalization threshold, deletes, and a mid-sequence checkpoint.
//! A crash-free dry run measures the total raw bytes the WAL writes;
//! the test then sweeps crash budgets across that range (every
//! boundary for small logs, a seeded stride sample otherwise), each
//! time applying the schedule against a fresh durable directory with a
//! [`CrashPlan`], recovering, and matching the recovered signature
//! against the reference prefix states.
//!
//! `SSDM_CRASH_SEED` varies the schedule's values, the torn-sector
//! garbage, and the offset sample (CI runs a small seed matrix).

use std::path::PathBuf;

use scisparql::{QueryResult, Value};
use ssdm::{Backend, CrashPlan, DurableOptions, Ssdm};
use ssdm_storage::wal::SEGMENT_HEADER;

/// Mirror of `FaultPlan::seed_from_env`, for the crash matrix.
fn seed_from_env(default: u64) -> u64 {
    std::env::var("SSDM_CRASH_SEED")
        .ok()
        .and_then(|s| s.trim().parse().ok())
        .unwrap_or(default)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "ssdm-crash-{name}-{}-{}",
        std::process::id(),
        seed_from_env(7)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// One step of the deterministic update schedule.
enum Op {
    /// A SPARQL update statement (INSERT DATA / DELETE DATA).
    Update(String),
    /// A Turtle load whose collection externalizes into chunk storage.
    Load(String),
    /// A checkpoint: no logical state change, but snapshot + WAL
    /// truncation races with the crash budget.
    Checkpoint,
}

/// Fixed op structure, values varied by the seed. Deletes target the
/// values actually inserted, so they really shrink the state.
fn schedule(seed: u64) -> Vec<Op> {
    let mut rng = seed;
    let mut val = || 1 + splitmix64(&mut rng) % 50;
    let (v0, v1, v2, v3, v4, v5) = (val(), val(), val(), val(), val(), val());
    let arr = |rng: &mut u64, len: usize| {
        (0..len)
            .map(|_| (splitmix64(rng) % 100).to_string())
            .collect::<Vec<_>>()
            .join(" ")
    };
    vec![
        Op::Update(format!("INSERT DATA {{ <http://s0> <http://p> {v0} . }}")),
        Op::Load(format!(
            "<http://a0> <http://arr> ( {} ) .",
            arr(&mut rng, 8)
        )),
        Op::Update(format!("INSERT DATA {{ <http://s1> <http://p> {v1} . }}")),
        Op::Update(format!("DELETE DATA {{ <http://s0> <http://p> {v0} . }}")),
        Op::Checkpoint,
        Op::Update(format!("INSERT DATA {{ <http://s2> <http://p> {v2} . }}")),
        Op::Load(format!(
            "<http://a1> <http://arr> ( {} ) .\n<http://s3> <http://p> {v3} .",
            arr(&mut rng, 12),
        )),
        Op::Update(format!("INSERT DATA {{ <http://s4> <http://p> {v4} . }}")),
        Op::Update(format!("DELETE DATA {{ <http://s2> <http://p> {v2} . }}")),
        Op::Update(format!("INSERT DATA {{ <http://s5> <http://p> {v5} . }}")),
    ]
}

/// Apply one op; `Ok(true)` means the op mutates state and was
/// acknowledged. Errors (journal veto after the simulated crash) are
/// swallowed: a real client would see them and know the update is not
/// durable.
fn apply(db: &mut Ssdm, op: &Op) -> bool {
    match op {
        Op::Update(q) => db.query(q).is_ok(),
        Op::Load(t) => db.load_turtle(t).is_ok(),
        Op::Checkpoint => {
            let _ = db.checkpoint();
            false
        }
    }
}

/// Placement-independent state signature: scalar triples plus array
/// sums and counts, sorted.
fn signature(db: &mut Ssdm) -> Vec<String> {
    let mut sig = Vec::new();
    for (query, tag) in [
        ("SELECT ?s ?o WHERE { ?s <http://p> ?o }", "p"),
        (
            "SELECT ?s (array_sum(?v) AS ?sum) (array_count(?v) AS ?n) \
             WHERE { ?s <http://arr> ?v }",
            "arr",
        ),
    ] {
        let rows = db
            .query(query)
            .expect("signature query")
            .into_rows()
            .expect("rows");
        for row in rows {
            let cells: Vec<String> = row
                .iter()
                .map(|c| c.as_ref().map(|v| v.to_string()).unwrap_or_default())
                .collect();
            sig.push(format!("{tag}:{}", cells.join("|")));
        }
    }
    sig.sort();
    sig
}

/// Reference states after each mutating prefix of the schedule, built
/// on the volatile memory backend (checkpoints are state-neutral and
/// skipped).
fn reference_prefixes(ops: &[Op]) -> Vec<Vec<String>> {
    let mutating = ops
        .iter()
        .filter(|op| !matches!(op, Op::Checkpoint))
        .count();
    let mut prefixes = Vec::with_capacity(mutating + 1);
    for k in 0..=mutating {
        let mut db = Ssdm::open(Backend::Memory);
        db.set_externalize_threshold(4, 64);
        let mut applied = 0;
        for op in ops {
            if applied == k {
                break;
            }
            match op {
                Op::Update(q) => {
                    let _ = db.query(q);
                    applied += 1;
                }
                Op::Load(t) => {
                    db.load_turtle(t).expect("reference load");
                    applied += 1;
                }
                Op::Checkpoint => {}
            }
        }
        prefixes.push(signature(&mut db));
    }
    prefixes
}

#[test]
fn recovery_is_prefix_consistent_at_every_crash_point() {
    let seed = seed_from_env(7);
    let ops = schedule(seed);
    let prefixes = reference_prefixes(&ops);

    // Crash-free dry run: learn the total raw bytes the WAL writes
    // (segment headers + framed records) and check full recovery.
    let dry = tmp_dir("dry");
    let total_bytes = {
        let mut db = Ssdm::open_durable(&dry).unwrap();
        db.set_externalize_threshold(4, 64);
        let mut acked = 0;
        for op in &ops {
            if apply(&mut db, op) {
                acked += 1;
            }
        }
        assert_eq!(acked + 1, prefixes.len(), "crash-free run acks everything");
        let stats = db.durability_stats().unwrap();
        SEGMENT_HEADER as u64 * (1 + stats.wal.segments_rotated) + stats.wal.bytes_appended
    };
    {
        let mut db = Ssdm::open_durable(&dry).unwrap();
        assert_eq!(
            signature(&mut db),
            *prefixes.last().unwrap(),
            "crash-free recovery must reproduce the full schedule"
        );
    }
    let _ = std::fs::remove_dir_all(&dry);

    // Sweep crash budgets: every byte for small logs, otherwise the
    // boundaries plus a seeded stride sample.
    let mut offsets: Vec<u64> = if total_bytes <= 256 {
        (0..=total_bytes).collect()
    } else {
        let mut rng = seed ^ 0xC0FF_EE00;
        let mut offs: Vec<u64> = vec![0, 1, total_bytes - 1, total_bytes];
        let step = (total_bytes / 48).max(1);
        let mut at = 0;
        while at < total_bytes {
            offs.push(at + splitmix64(&mut rng) % step);
            at += step;
        }
        offs
    };
    offsets.sort_unstable();
    offsets.dedup();
    offsets.retain(|&o| o <= total_bytes);

    for &at_bytes in &offsets {
        let dir = tmp_dir("pt");
        let options = DurableOptions {
            crash_plan: Some(CrashPlan {
                at_bytes,
                garbage: at_bytes % 2 == 0,
                seed: seed.wrapping_add(at_bytes),
            }),
            ..DurableOptions::default()
        };
        let acked = match Ssdm::open_durable_with(&dir, options) {
            Ok(mut db) => {
                db.set_externalize_threshold(4, 64);
                let mut acked = 0;
                for op in &ops {
                    if apply(&mut db, op) {
                        acked += 1;
                    }
                }
                acked
            }
            // The crash fired while creating the first segment: nothing
            // was ever acknowledged.
            Err(_) => 0,
        };

        // Recovery must always succeed, whatever the tear looks like.
        let mut db = Ssdm::open_durable(&dir)
            .unwrap_or_else(|e| panic!("recovery failed after crash at byte {at_bytes}: {e}"));
        let recovered = signature(&mut db);
        // rposition: if two prefixes happen to share a signature, credit
        // the larger one so the k >= acked check cannot spuriously fail.
        let matched = prefixes.iter().rposition(|p| *p == recovered);
        let k = matched.unwrap_or_else(|| {
            panic!(
                "crash at byte {at_bytes}: recovered state {recovered:?} \
                 is not any schedule prefix"
            )
        });
        assert!(
            k >= acked,
            "crash at byte {at_bytes}: lost acknowledged updates \
             (recovered prefix {k}, acknowledged {acked})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The numeric value index is derived state: no snapshot or WAL record
/// carries it, so a reopened store must rebuild it from the triples it
/// recovers — those of the snapshot and those replayed from the log —
/// and answer a range query exactly as before.
#[test]
fn a_range_query_answers_the_same_after_a_durable_reopen() {
    let dir = tmp_dir("range");
    let rows = |db: &mut Ssdm, filter: &str| {
        let q = format!("SELECT ?s ?o WHERE {{ ?s <http://p> ?o . FILTER({filter}) }}");
        let rows = db
            .query(&q)
            .expect("range query")
            .into_rows()
            .expect("rows");
        let mut out: Vec<String> = rows
            .iter()
            .map(|r| format!("{}|{}", r[0].as_ref().unwrap(), r[1].as_ref().unwrap()))
            .collect();
        out.sort();
        out
    };
    let pushed = "?o > 10 && ?o <= 40";
    // Not sargable: scans and filters, index or no index.
    let oracle = "?o + 0 > 10 && ?o + 0 <= 40";

    let before = {
        let mut db = Ssdm::open_durable(&dir).unwrap();
        let insert = |db: &mut Ssdm, i: u64| {
            let value = if i.is_multiple_of(3) {
                format!("{}.5", i % 50)
            } else {
                (i % 50).to_string()
            };
            let update = format!("INSERT DATA {{ <http://s{i}> <http://p> {value} . }}");
            db.query(&update).unwrap();
        };
        (0..40).for_each(|i| insert(&mut db, i));
        db.checkpoint().unwrap();
        (40..80).for_each(|i| insert(&mut db, i));
        db.query(
            "DELETE { ?s <http://p> ?o } WHERE { ?s <http://p> ?o . FILTER(?o >= 20 && ?o < 25) }",
        )
        .unwrap();
        let before = rows(&mut db, pushed);
        assert_eq!(before, rows(&mut db, oracle));
        assert!(before.len() > 20, "{} rows", before.len());
        before
    };

    let mut db = Ssdm::open_durable(&dir).unwrap();
    assert_eq!(rows(&mut db, pushed), before);
    assert_eq!(rows(&mut db, oracle), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A collection holding non-finite doubles is written into the
/// checkpoint's snapshot as text that reads back: the engine reopens
/// from it and answers as before.
#[test]
fn a_collection_holding_nan_reopens_after_a_checkpoint() {
    let dir = tmp_dir("nan");
    let query = "SELECT ?v (array_count(?v) AS ?n) WHERE { <http://e/r> <http://e/signal> ?v }";
    let answer = |db: &mut Ssdm| {
        let rows = db.query(query).unwrap().into_rows().unwrap();
        let cells = rows
            .iter()
            .flatten()
            .map(|c| c.as_ref().unwrap().to_string());
        cells.collect::<Vec<_>>()
    };
    let before = {
        let mut db = Ssdm::open_durable(&dir).unwrap();
        db.load_turtle(
            "@prefix ex: <http://e/> . @prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
             ex:r ex:signal (1.5 \"NaN\"^^xsd:double 2.5) .",
        )
        .unwrap();
        db.checkpoint().unwrap();
        answer(&mut db)
    };
    assert_eq!(before.len(), 2, "{before:?}");
    let mut db = Ssdm::open_durable(&dir).unwrap();
    assert_eq!(answer(&mut db), before);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A NaN the query computes (x86 makes it with the sign bit set) is
/// stored as the one NaN the snapshot's `"NaN"^^xsd:double` reads back
/// as: after a checkpoint and a reopen the term is the node written,
/// and inserting the triple again adds nothing.
#[test]
fn a_computed_nan_is_the_same_node_after_a_checkpoint() {
    let dir = tmp_dir("computed-nan");
    let insert = "INSERT { <http://e/s> <http://e/p> ?x } WHERE { BIND(0.0/0.0 AS ?x) }";
    let stored = |db: &mut Ssdm| {
        let query = "SELECT ?x WHERE { <http://e/s> <http://e/p> ?x }";
        let rows = db.query(query).unwrap().into_rows().unwrap();
        match &rows[..] {
            [row] => match &row[..] {
                [Some(Value::Term(term))] => term.clone(),
                other => panic!("{other:?}"),
            },
            other => panic!("one row expected, got {other:?}"),
        }
    };
    let inserted = |db: &mut Ssdm| match db.query(insert).unwrap() {
        QueryResult::Updated { inserted, .. } => inserted,
        other => panic!("{other:?}"),
    };
    let written = {
        let mut db = Ssdm::open_durable(&dir).unwrap();
        assert_eq!(inserted(&mut db), 1);
        db.checkpoint().unwrap();
        stored(&mut db)
    };
    let mut db = Ssdm::open_durable(&dir).unwrap();
    let reopened = stored(&mut db);
    assert!(reopened.same_node(&written), "{reopened:?} vs {written:?}");
    assert_eq!(inserted(&mut db), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A CSV whose table and column names hold bytes an IRI or a blank-node
/// label may not (a space, `%`, `.`) maps to terms the checkpoint's
/// snapshot writes as text that reads back: the engine reopens and
/// answers as before.
#[test]
fn csv_names_that_are_no_iri_reopen_after_a_checkpoint() {
    let dir = tmp_dir("csv-names");
    let query = "SELECT ?s ?p ?o WHERE { ?s ?p ?o } ORDER BY ?s ?p ?o";
    let answer = |db: &mut Ssdm| {
        let rows = db.query(query).unwrap().into_rows().unwrap();
        let cells = rows
            .iter()
            .flatten()
            .map(|c| c.as_ref().unwrap().to_string());
        cells.collect::<Vec<_>>()
    };
    let before = {
        let mut db = Ssdm::open_durable(&dir).unwrap();
        let ns = "http://ex.org/";
        db.load_csv("people", "id,first name\n1,Ann\n2,Bo\n", Some("id"), ns)
            .unwrap();
        db.load_csv("odd table.v2", "50%,x\n1,2\n", None, ns)
            .unwrap();
        db.checkpoint().unwrap();
        answer(&mut db)
    };
    assert_eq!(before.len(), 3 * 9, "{before:?}");
    assert!(before.contains(&"<http://ex.org/people#first%20name>".to_string()));
    let mut db = Ssdm::open_durable(&dir).unwrap();
    assert_eq!(answer(&mut db), before);
    let _ = std::fs::remove_dir_all(&dir);
}
