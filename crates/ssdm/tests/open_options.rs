//! Composition differential for `OpenOptions::open`: the same BISTAB
//! instance, with its trajectories externalized, answers the same
//! metadata and array queries with the same result tables under every
//! composition `open` accepts — each back-end kind × chunk cache off/on
//! × 1 or 3 shards × 0 or 1 replicas, and a durable directory with the
//! cache off/on, before and after a reopen. The compositions `open`
//! refuses, and back-ends that cannot be created, come back as typed
//! errors instead of panics.

use std::path::PathBuf;

use ssdm::bistab::{load_bistab, queries, BistabConfig};
use ssdm::{Backend, OpenError, OpenOptions, Ssdm};

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("ssdm-open-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Externalize every trajectory (64 elements) in 16-element chunks.
fn options(backend: Backend) -> OpenOptions {
    OpenOptions {
        backend,
        externalize_threshold: 16,
        chunk_bytes: 128,
        ..OpenOptions::default()
    }
}

fn load(db: &mut Ssdm) {
    let config = BistabConfig {
        tasks: 12,
        realizations: 3,
        trajectory_len: 64,
        seed: 5,
    };
    load_bistab(db, &config).unwrap();
}

/// Every BISTAB query's result table, in order.
fn answers(db: &mut Ssdm) -> Vec<String> {
    queries()
        .into_iter()
        .map(|(name, q)| match db.query(&q) {
            Ok(result) => result.to_table(),
            Err(e) => panic!("{name}: {e}"),
        })
        .collect()
}

#[test]
fn every_accepted_composition_answers_alike() {
    let root = tmp_dir("compose");
    let mut reference = options(Backend::Memory).open().unwrap();
    load(&mut reference);
    assert!(reference.dataset.arrays.catalog().count() > 0);
    let expected = answers(&mut reference);

    for kind in ["memory", "relational", "file", "relational-file"] {
        for cache_bytes in [0, 1 << 20] {
            for shards in [1, 3] {
                for replicas in [0, 1] {
                    let case =
                        format!("{kind} cache={cache_bytes} shards={shards} replicas={replicas}");
                    let dir = root.join(case.replace([' ', '='], "-"));
                    std::fs::create_dir_all(&dir).unwrap();
                    let backend = match kind {
                        "memory" => Backend::Memory,
                        "relational" => Backend::Relational,
                        "file" => Backend::File(dir.join("arrays")),
                        _ => Backend::RelationalFile(
                            dir.join("chunks.db"),
                            relstore::DbOptions::default(),
                        ),
                    };
                    let mut db = OpenOptions {
                        cache_bytes,
                        shards,
                        replicas,
                        ..options(backend)
                    }
                    .open()
                    .unwrap_or_else(|e| panic!("{case}: {e}"));
                    load(&mut db);
                    assert_eq!(answers(&mut db), expected, "{case}");
                    let sharded = db.dataset.arrays.backend().shard_stats().is_some();
                    assert_eq!(sharded, shards > 1 || replicas > 0, "{case}");
                }
            }
        }
    }

    for cache_bytes in [0, 1 << 20] {
        let durable = OpenOptions {
            cache_bytes,
            durable: Some(root.join(format!("durable-{cache_bytes}"))),
            ..options(Backend::Memory)
        };
        let mut db = durable.open().unwrap();
        load(&mut db);
        assert_eq!(answers(&mut db), expected, "durable cache={cache_bytes}");
        db.checkpoint().unwrap();
        drop(db);
        let mut reopened = durable.open().unwrap();
        assert!(reopened.is_durable());
        assert_eq!(
            answers(&mut reopened),
            expected,
            "durable cache={cache_bytes} reopened"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn refused_and_failed_compositions_are_typed_errors() {
    let root = tmp_dir("refuse");
    for (shards, replicas) in [(3, 0), (1, 1), (2, 2)] {
        let refused = OpenOptions {
            shards,
            replicas,
            durable: Some(root.join("durable")),
            ..OpenOptions::default()
        };
        assert!(
            matches!(refused.open(), Err(OpenError::DurableSharded)),
            "durable with shards={shards} replicas={replicas}"
        );
    }
    assert!(
        !root.join("durable").exists(),
        "a refused open creates nothing"
    );

    // A regular file where a directory must be created.
    let blocker = root.join("blocker");
    std::fs::write(&blocker, b"not a directory").unwrap();
    let under = blocker.join("x");
    let failing = [
        options(Backend::File(under.clone())),
        options(Backend::RelationalFile(
            under.clone(),
            relstore::DbOptions::default(),
        )),
        OpenOptions {
            shards: 3,
            ..options(Backend::File(under.clone()))
        },
        OpenOptions {
            replicas: 1,
            ..options(Backend::RelationalFile(
                under.clone(),
                relstore::DbOptions::default(),
            ))
        },
        OpenOptions {
            durable: Some(under.clone()),
            ..OpenOptions::default()
        },
    ];
    for options in failing {
        assert!(
            matches!(options.open(), Err(OpenError::Engine(_))),
            "{options:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn settings_are_applied_after_opening() {
    let db = OpenOptions {
        workers: Some(2),
        codec: Some(ssdm_storage::CodecPolicy::Rle),
        planner: Some(scisparql::PlannerMode::Greedy),
        externalize_threshold: 4,
        chunk_bytes: 64,
        ..OpenOptions::default()
    }
    .open()
    .unwrap();
    assert_eq!(db.dataset.parallel.workers, 2);
    assert_eq!(db.dataset.arrays.codec(), ssdm_storage::CodecPolicy::Rle);
    assert_eq!(db.dataset.planner.mode, scisparql::PlannerMode::Greedy);
    assert_eq!(
        (db.dataset.externalize_threshold, db.dataset.chunk_bytes),
        (4, 64)
    );
}
