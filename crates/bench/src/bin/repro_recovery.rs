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
//! it was dropped.
//!
//! Measurements land as JSON (default `BENCH_recovery.json`, `--out`).
//!
//! ```text
//! repro_recovery [--quick] [--updates N] [--out PATH]
//! ```

use std::time::Instant;

use ssdm::{DurableOptions, FsyncPolicy, Ssdm};
use ssdm_bench::runner::print_table;

fn usage() -> ! {
    eprintln!("usage: repro_recovery [--quick] [--updates N] [--out PATH]");
    std::process::exit(2)
}

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

struct PolicyCell {
    policy: &'static str,
    commit_ms: f64,
    updates_per_s: f64,
    fsyncs: u64,
    wal_bytes: u64,
    replay_ms: f64,
    replays_per_s: f64,
}

fn main() {
    let mut quick = false;
    let mut updates: Option<usize> = None;
    let mut out = "BENCH_recovery.json".to_string();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--updates" => {
                updates = Some(
                    args.next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage()),
                )
            }
            "--out" => out = args.next().unwrap_or_else(|| usage()),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown argument: {other}");
                usage()
            }
        }
    }
    let updates = updates.unwrap_or(if quick { 400 } else { 4000 });

    println!("Durability: WAL commit throughput, recovery replay, checkpoint latency");
    println!("workload: {updates} updates (1 in 8 an externalized 16-element array load)");

    let base = std::env::temp_dir().join(format!("ssdm-recovery-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let policies: [(&'static str, FsyncPolicy); 3] = [
        ("always", FsyncPolicy::Always),
        (
            "interval:5",
            FsyncPolicy::Interval(std::time::Duration::from_millis(5)),
        ),
        ("off", FsyncPolicy::Off),
    ];

    let mut cells: Vec<PolicyCell> = Vec::new();
    for (name, policy) in policies {
        let dir = base.join(name.replace(':', "-"));
        let options = DurableOptions {
            fsync: policy,
            ..DurableOptions::default()
        };
        let mut db = Ssdm::open_durable_with(&dir, options).expect("open durable");
        let t = Instant::now();
        apply_workload(&mut db, updates);
        let commit_ms = t.elapsed().as_secs_f64() * 1e3;
        let stats = db.durability_stats().expect("durable");
        let (fsyncs, wal_bytes) = (stats.wal.fsyncs, stats.wal.bytes_appended);
        let expected = state_signature(&mut db);
        drop(db);

        let mut back = Ssdm::open_durable(&dir).expect("recover");
        let rstats = back.durability_stats().expect("durable");
        assert_eq!(
            state_signature(&mut back),
            expected,
            "{name}: recovered state must equal the writer's"
        );
        cells.push(PolicyCell {
            policy: name,
            commit_ms,
            updates_per_s: updates as f64 / (commit_ms / 1e3),
            fsyncs,
            wal_bytes,
            replay_ms: rstats.replay_ms,
            replays_per_s: rstats.replayed_records as f64 / (rstats.replay_ms / 1e3).max(1e-9),
        });
    }

    // --- Checkpoint: latency + post-checkpoint recovery -------------------
    let ckpt_dir = base.join("always");
    let tail = (updates / 20).max(5);
    let (checkpoint_ms, post_replay_ms, post_records) = {
        let mut db = Ssdm::open_durable(&ckpt_dir).expect("reopen for checkpoint");
        let expected_pre = state_signature(&mut db);
        db.checkpoint().expect("checkpoint");
        let checkpoint_ms = db.durability_stats().expect("durable").last_checkpoint_ms;
        for i in 0..tail {
            db.query(&format!(
                "INSERT DATA {{ <http://tail{i}> <http://p> {i} . }}"
            ))
            .expect("tail insert");
        }
        let expected = state_signature(&mut db);
        assert_eq!(expected.0, expected_pre.0 + tail, "tail applied");
        drop(db);

        let mut back = Ssdm::open_durable(&ckpt_dir).expect("post-checkpoint recover");
        let stats = back.durability_stats().expect("durable");
        assert_eq!(
            state_signature(&mut back),
            expected,
            "post-checkpoint recovery must equal the writer's state"
        );
        (checkpoint_ms, stats.replay_ms, stats.replayed_records)
    };

    // --- Report ----------------------------------------------------------
    let header: Vec<String> = [
        "fsync",
        "commit ms",
        "updates/s",
        "fsyncs",
        "wal KiB",
        "replay ms",
        "records/s",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                c.policy.to_string(),
                format!("{:.1}", c.commit_ms),
                format!("{:.0}", c.updates_per_s),
                format!("{}", c.fsyncs),
                format!("{}", c.wal_bytes / 1024),
                format!("{:.1}", c.replay_ms),
                format!("{:.0}", c.replays_per_s),
            ]
        })
        .collect();
    print_table(
        &format!("WAL commit + recovery replay, {updates} updates (state equality ✓)"),
        &header,
        &rows,
    );
    println!(
        "\ncheckpoint: {checkpoint_ms:.1} ms; post-checkpoint recovery replays \
         {post_records} records in {post_replay_ms:.1} ms (tail of {tail})"
    );

    // --- JSON -------------------------------------------------------------
    let mut json = format!(
        "{{\n  \"measured_at\": \"{}\",\n",
        ssdm_bench::measured_at()
    );
    json.push_str(&format!(
        "  \"config\": {{\"updates\": {updates}, \"array_every\": 8, \"quick\": {quick}}},\n"
    ));
    json.push_str("  \"policies\": [\n");
    for (i, c) in cells.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"policy\": \"{}\", \"commit_ms\": {:.3}, \"updates_per_s\": {:.1}, \
             \"fsyncs\": {}, \"wal_bytes\": {}, \"replay_ms\": {:.3}, \
             \"replayed_records_per_s\": {:.1}, \"state_equal\": true}}{}\n",
            c.policy,
            c.commit_ms,
            c.updates_per_s,
            c.fsyncs,
            c.wal_bytes,
            c.replay_ms,
            c.replays_per_s,
            if i + 1 < cells.len() { "," } else { "" }
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"checkpoint\": {{\"checkpoint_ms\": {checkpoint_ms:.3}, \
         \"post_replay_ms\": {post_replay_ms:.3}, \"post_replayed_records\": {post_records}, \
         \"state_equal\": true}}\n"
    ));
    json.push_str("}\n");
    std::fs::write(&out, json).expect("write json");
    println!("\nwrote {out}");

    let _ = std::fs::remove_dir_all(&base);
}
