//! Durability scenario: WAL commit throughput per fsync policy, replay
//! throughput on recovery, and checkpoint latency.
//!
//! For each fsync policy (`always`, `interval:5`, `off`) the bench
//! applies the same update workload — scalar INSERT DATA statements
//! interleaved with Turtle loads whose arrays externalize into the
//! durable chunk store — against a fresh durable directory, then
//! reopens it and measures the recovery replay. After the sweep, the
//! last directory gets a checkpoint + a short update tail and is
//! reopened once more: recovery now loads the snapshot and replays
//! only the tail. Every recovered instance is checked for state
//! equality (triple signature + array sums) against the writer before
//! it was dropped. Last, a checkpointed BISTAB graph (20 000 tasks, 2 000
//! under `--quick`) is reopened: restart time is the snapshot's parse
//! and index build, and BISTAB Q1 must answer the same after it.
//!
//! ```text
//! repro_recovery [--quick] [--updates N] [--out PATH]
//! ```

use std::process::ExitCode;

use ssdm::bistab::{self, load_bistab, BistabConfig};
use ssdm::{DurableOptions, FsyncPolicy, Ssdm};
use ssdm_bench::{best_of, Args, Bar, Fmt, Report};

/// The deterministic update workload: every 8th op loads a Turtle
/// collection that externalizes; the rest are scalar INSERT DATA.
fn apply_workload(db: &mut Ssdm, updates: usize) {
    db.set_externalize_threshold(8, 256);
    for i in 0..updates {
        if i % 8 == 0 {
            let values: Vec<String> = (0..16).map(|j| ((i + j) % 97).to_string()).collect();
            db.load_turtle(&format!(
                "<http://a{i}> <http://arr> ( {} ) .",
                values.join(" ")
            ))
            .expect("load");
        } else {
            db.query(&format!(
                "INSERT DATA {{ <http://s{i}> <http://p> {} . }}",
                i % 1000
            ))
            .expect("insert");
        }
    }
}

/// Placement-independent state signature: triple count plus the sum of
/// every array's sum — cheap, but any lost or torn update changes it.
fn state_signature(db: &mut Ssdm) -> (usize, String) {
    let scalars = db
        .query("SELECT ?s ?o WHERE { ?s <http://p> ?o }")
        .expect("scalars")
        .into_rows()
        .expect("rows")
        .len();
    let mut sums: Vec<String> = db
        .query("SELECT ?s (array_sum(?v) AS ?sum) WHERE { ?s <http://arr> ?v }")
        .expect("array sums")
        .into_rows()
        .expect("rows")
        .iter()
        .map(|r| {
            r.iter()
                .map(|c| c.as_ref().map(|v| v.to_string()).unwrap_or_default())
                .collect::<Vec<_>>()
                .join("=")
        })
        .collect();
    sums.sort();
    (scalars, sums.join(";"))
}

/// A query's rows as sorted text lines.
fn answer(db: &mut Ssdm, query: &str) -> Vec<String> {
    let mut rows: Vec<String> = db
        .query(query)
        .expect("query")
        .into_rows()
        .expect("rows")
        .iter()
        .map(|r| format!("{r:?}"))
        .collect();
    rows.sort();
    rows
}

fn main() -> ExitCode {
    let args = Args::parse("repro_recovery", &["--quick", "--updates N", "--out PATH"]);
    let mut report = Report::new(&args);
    let default_updates = if args.quick() { 400 } else { 4000 };
    let updates = args.value("--updates").unwrap_or(default_updates);
    report.config(&[("updates", updates.into()), ("array_every", 8u8.into())]);
    println!("Durability: WAL commit throughput, recovery replay, checkpoint latency");
    println!("workload: {updates} updates (1 in 8 an externalized 16-element array load)");

    let base = std::env::temp_dir().join(format!("ssdm-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);
    let policies = [
        ("always", FsyncPolicy::Always),
        (
            "interval:5",
            FsyncPolicy::Interval(std::time::Duration::from_millis(5)),
        ),
        ("off", FsyncPolicy::Off),
    ];
    let mut rows = Vec::new();
    for (name, policy) in policies {
        let dir = base.join(name.replace(':', "-"));
        let options = DurableOptions {
            fsync: policy,
            ..DurableOptions::default()
        };
        let mut db = Ssdm::open_durable_with(&dir, options).expect("open durable");
        let (commit_ms, ()) = best_of(1, || apply_workload(&mut db, updates));
        let wal = db.durability_stats().expect("durable").wal;
        let expected = state_signature(&mut db);
        drop(db);

        let mut back = Ssdm::open_durable(&dir).expect("recover");
        let replay = back.durability_stats().expect("durable");
        let recovered = state_signature(&mut back);
        assert_eq!(
            recovered, expected,
            "{name}: recovered state must equal the writer's"
        );
        let replays_per_s = replay.replayed_records as f64 / (replay.replay_ms / 1e3).max(1e-9);
        rows.push(vec![
            name.into(),
            commit_ms.into(),
            (updates as f64 / (commit_ms / 1e3)).into(),
            wal.fsyncs.into(),
            (wal.bytes_appended / 1024).into(),
            wal.bytes_appended.into(),
            replay.replay_ms.into(),
            replays_per_s.into(),
        ]);
    }
    report.table(
        "policies",
        &format!("WAL commit + recovery replay, {updates} updates (state equality ✓)"),
        &[
            ("fsync", "policy", Fmt::Plain),
            ("commit ms", "commit_ms", Fmt::Fixed(1)),
            ("updates/s", "updates_per_s", Fmt::Fixed(0)),
            ("fsyncs", "fsyncs", Fmt::Plain),
            ("wal KiB", "", Fmt::Plain),
            ("", "wal_bytes", Fmt::Plain),
            ("replay ms", "replay_ms", Fmt::Fixed(1)),
            ("records/s", "replayed_records_per_s", Fmt::Fixed(0)),
        ],
        rows,
    );

    // --- Checkpoint: latency + post-checkpoint recovery -------------------
    let ckpt_dir = base.join("always");
    let tail = (updates / 20).max(5);
    let mut db = Ssdm::open_durable(&ckpt_dir).expect("reopen for checkpoint");
    let (scalars_before, _) = state_signature(&mut db);
    db.checkpoint().expect("checkpoint");
    let checkpoint_ms = db.durability_stats().expect("durable").last_checkpoint_ms;
    for i in 0..tail {
        let insert = format!("INSERT DATA {{ <http://tail{i}> <http://p> {i} . }}");
        db.query(&insert).expect("tail insert");
    }
    let expected = state_signature(&mut db);
    assert_eq!(expected.0, scalars_before + tail, "tail applied");
    drop(db);
    let mut back = Ssdm::open_durable(&ckpt_dir).expect("post-checkpoint recover");
    let replay = back.durability_stats().expect("durable");
    let recovered = state_signature(&mut back);
    assert_eq!(
        recovered, expected,
        "post-checkpoint recovery must equal the writer's state"
    );
    report.table(
        "checkpoint",
        "checkpoint, then recovery of the snapshot and a tail (state equality ✓)",
        &[
            ("checkpoint ms", "checkpoint_ms", Fmt::Fixed(1)),
            ("tail updates", "tail", Fmt::Plain),
            ("replayed records", "post_replayed_records", Fmt::Plain),
            ("replay ms", "post_replay_ms", Fmt::Fixed(1)),
        ],
        vec![vec![
            checkpoint_ms.into(),
            tail.into(),
            replay.replayed_records.into(),
            replay.replay_ms.into(),
        ]],
    );

    // --- Restart: reopen a checkpointed BISTAB graph ----------------------
    let tasks = if args.quick() { 2_000 } else { 20_000 };
    let reopen_dir = base.join("reopen");
    let mut db = Ssdm::open_durable(&reopen_dir).expect("open for reopen");
    let config = BistabConfig {
        tasks,
        trajectory_len: 8,
        ..BistabConfig::default()
    };
    load_bistab(&mut db, &config).expect("bistab load");
    let q1 = &bistab::queries()[0].1;
    let before = answer(&mut db, q1);
    db.checkpoint().expect("checkpoint");
    let triples = db.dataset.graph.len();
    drop(db);
    let (reopen_ms, mut back) = best_of(1, || Ssdm::open_durable(&reopen_dir).expect("reopen"));
    let after = answer(&mut back, q1);
    assert_eq!(back.dataset.graph.len(), triples, "every triple reopened");
    let differing = before.len().abs_diff(after.len())
        + before.iter().zip(&after).filter(|(a, b)| a != b).count();
    report.check(
        "BISTAB Q1 rows differing after the reopen",
        differing as f64,
        Bar::Equals(0.0),
    );
    report.table(
        "reopen",
        &format!("reopen of a checkpointed {tasks}-task BISTAB graph"),
        &[
            ("tasks", "tasks", Fmt::Plain),
            ("triples", "triples", Fmt::Plain),
            ("Q1 rows", "q1_rows", Fmt::Plain),
            ("reopen ms", "reopen_ms", Fmt::Fixed(1)),
            ("triples/s", "triples_per_s", Fmt::Fixed(0)),
        ],
        vec![vec![
            tasks.into(),
            triples.into(),
            before.len().into(),
            reopen_ms.into(),
            (triples as f64 / (reopen_ms / 1e3)).into(),
        ]],
    );
    let _ = std::fs::remove_dir_all(&base);
    report.finish()
}
