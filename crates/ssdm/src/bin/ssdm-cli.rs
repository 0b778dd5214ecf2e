//! The SSDM command-line shell: load RDF-with-Arrays data and run
//! SciSPARQL statements interactively or from files.
//!
//! ```text
//! ssdm-cli [--backend memory|relational|file:DIR] [--load FILE.ttl]...
//!          [--threshold N --chunk BYTES] [--cache BYTES] [--workers N]
//!          [--shards N] [--replicas K] [--codec raw|delta-bp|rle|auto]
//!          [--exec 'QUERY'] [--snapshot FILE]
//!          [--durable DIR] [--fsync always|interval[:MS]|off]
//!          [--slow-query-ms N] [--planner textual|greedy|dp]
//! ```
//!
//! `--codec` picks the chunk compression policy for newly externalized
//! arrays (`auto`, the default, chooses per chunk; the `SSDM_CODEC`
//! environment variable sets the same default process-wide). Every
//! policy reads every frame, so mixed stores are fine.
//!
//! `--durable DIR` opens a crash-safe instance: updates are write-ahead
//! logged under `DIR` and recovered (snapshot + WAL replay) on the next
//! start; `--fsync` picks the durability/latency trade-off. `--durable`
//! replaces `--backend` (the instance keeps its chunks under `DIR`);
//! `--cache` still fronts them. It cannot be combined with `--snapshot`
//! (the instance keeps its own snapshot — use `.checkpoint`), which would
//! replace the recovered graph without journaling it.
//!
//! `--shards N` spreads externalized arrays over N back-ends of the
//! chosen kind by rendezvous placement; `--replicas K` adds K
//! WAL-shipping read replicas per shard (failover and breaker counters
//! show under `.stats`). Neither combines with `--durable`: placement
//! depends on the shard count, which a durable directory does not
//! record, so a restart with another count would look for chunks on the
//! wrong shards.
//!
//! Without `--exec`, reads statements from stdin; a statement ends at a
//! line containing only `;;` (queries may span lines). Meta-commands:
//! `.load FILE`, `.save FILE`, `.checkpoint`, `.stats`, `.metrics`,
//! `.profile on|off` (print an `EXPLAIN ANALYZE` profile after every
//! statement), `.help`, `.quit`. `--slow-query-ms N` profiles only
//! statements taking ≥ N ms.
//!
//! Startup exits with status 2 on a usage error or a refused
//! combination, and with status 1 when the engine cannot be opened (its
//! back-end cannot be created, or recovery fails).
//!
//! `--planner` forces the join-enumeration mode (`dp` is the default:
//! dynamic-programming enumeration with greedy fallback on large
//! conjunctions). Equivalent to the `SSDM_PLANNER` environment
//! variable; the flag wins.

use std::io::{BufRead, Write};
use std::path::PathBuf;

use ssdm::{OpenOptions, Ssdm};

fn usage() -> ! {
    eprintln!(
        "usage: ssdm-cli [--backend memory|relational|file:DIR]\n\
         \x20               [--load FILE.ttl]... [--threshold N --chunk BYTES]\n\
         \x20               [--cache BYTES] [--workers N] [--snapshot FILE]\n\
         \x20               [--shards N] [--replicas K]\n\
         \x20               [--codec raw|delta-bp|rle|auto]\n\
         \x20               [--durable DIR] [--fsync always|interval[:MS]|off]\n\
         \x20               [--slow-query-ms N] [--planner textual|greedy|dp]\n\
         \x20               [--exec 'STATEMENT']\n\
         --durable excludes --shards, --replicas and --snapshot"
    );
    std::process::exit(2)
}

fn main() {
    let mut engine = OpenOptions {
        workers: Some(1),
        ..OpenOptions::default()
    };
    let mut loads: Vec<PathBuf> = Vec::new();
    let mut exec: Vec<String> = Vec::new();
    let mut snapshot: Option<PathBuf> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = || args.next().unwrap_or_else(|| usage());
        match arg.as_str() {
            "--load" => loads.push(value().into()),
            "--exec" => exec.push(value()),
            "--snapshot" => snapshot = Some(value().into()),
            "--workers" => engine.workers = Some(value().parse().unwrap_or_else(|_| usage())),
            "--help" | "-h" => usage(),
            flag => {
                if let Err(e) = engine.parse_flag(flag, &mut args) {
                    eprintln!("{e}");
                    usage()
                }
            }
        }
    }

    if engine.durable.is_some() && snapshot.is_some() {
        eprintln!("--snapshot cannot be combined with --durable, whose directory keeps its own");
        std::process::exit(2);
    }
    let mut db = engine.open_or_exit("the engine");
    if let Some(snap) = &snapshot {
        if snap.exists() {
            match db.load_snapshot(snap) {
                Ok(()) => eprintln!("loaded snapshot {}", snap.display()),
                Err(e) => {
                    eprintln!("cannot load snapshot: {e}");
                    std::process::exit(1);
                }
            }
        }
    }
    for path in &loads {
        match db.load_turtle_file(path) {
            Ok(n) => eprintln!("loaded {n} triples from {}", path.display()),
            Err(e) => {
                eprintln!("error loading {}: {e}", path.display());
                std::process::exit(1);
            }
        }
    }

    if !exec.is_empty() {
        for statement in exec {
            run(&mut db, &statement, false);
        }
        save_snapshot_if(&db, &snapshot);
        return;
    }

    // Interactive / piped mode.
    eprintln!("SSDM shell — end statements with a line ';;', '.help' for commands");
    let stdin = std::io::stdin();
    let mut buffer = String::new();
    let mut profile = false;
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            let mut parts = trimmed.splitn(2, ' ');
            match (parts.next().unwrap_or(""), parts.next()) {
                (".quit", _) | (".exit", _) => break,
                (".help", _) => eprintln!(
                    ".load FILE       load a Turtle file\n\
                     .save FILE       write a snapshot\n\
                     .checkpoint      durability checkpoint (snapshot + WAL truncate)\n\
                     .stats           graph and back-end statistics\n\
                     .metrics         Prometheus text-format counter dump\n\
                     .profile on|off  print an EXPLAIN ANALYZE profile per statement\n\
                     .quit            exit"
                ),
                (".load", Some(f)) => match db.load_turtle_file(std::path::Path::new(f)) {
                    Ok(n) => eprintln!("loaded {n} triples"),
                    Err(e) => eprintln!("error: {e}"),
                },
                (".save", Some(f)) => match db.save_snapshot(std::path::Path::new(f)) {
                    Ok(()) => eprintln!("snapshot written to {f}"),
                    Err(e) => eprintln!("error: {e}"),
                },
                (".checkpoint", _) => match db.checkpoint() {
                    Ok(()) => eprintln!("checkpoint complete"),
                    Err(e) => eprintln!("error: {e}"),
                },
                (".stats", _) => {
                    let st = db.dataset.graph.stats();
                    eprintln!(
                        "graph: {} triples, {} predicates; named graphs: {}",
                        st.triples,
                        st.predicates,
                        db.dataset.named_graphs.len(),
                    );
                    eprint!("{}", db.stats_report());
                }
                (".metrics", _) => eprint!("{}", db.metrics_prometheus()),
                (".profile", mode) => match mode.map(str::trim) {
                    Some("on") => {
                        profile = true;
                        eprintln!("profiling on: every statement prints its profile");
                    }
                    Some("off") => {
                        profile = false;
                        eprintln!("profiling off");
                    }
                    _ => eprintln!("usage: .profile on|off"),
                },
                other => eprintln!("unknown command {other:?}; try .help"),
            }
            continue;
        }
        if trimmed == ";;" {
            if !buffer.trim().is_empty() {
                run(&mut db, &buffer, profile);
            }
            buffer.clear();
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
    }
    if !buffer.trim().is_empty() {
        run(&mut db, &buffer, profile);
    }
    save_snapshot_if(&db, &snapshot);
}

fn run(db: &mut Ssdm, statement: &str, profile: bool) {
    if profile {
        match db.dataset.query_profiled(statement) {
            Ok((result, profile)) => {
                print!("{}", result.to_table());
                std::io::stdout().flush().ok();
                eprint!("{profile}");
            }
            Err(e) => eprintln!("error: {e}"),
        }
        return;
    }
    match db.query(statement) {
        Ok(result) => {
            print!("{}", result.to_table());
            std::io::stdout().flush().ok();
        }
        Err(e) => eprintln!("error: {e}"),
    }
}

fn save_snapshot_if(db: &Ssdm, snapshot: &Option<PathBuf>) {
    if let Some(snap) = snapshot {
        match db.save_snapshot(snap) {
            Ok(()) => eprintln!("snapshot written to {}", snap.display()),
            Err(e) => eprintln!("cannot write snapshot: {e}"),
        }
    }
}
