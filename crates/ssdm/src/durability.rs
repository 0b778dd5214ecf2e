//! The durability subsystem: write-ahead logging, checkpointing and
//! crash recovery for an [`Ssdm`] instance.
//!
//! The thesis treats persistence as "a memory snapshot can typically be
//! dumped to disk and loaded back" (§2.2.3); this module upgrades that
//! to a real recovery story. A durable instance lives in one directory:
//!
//! ```text
//! <dir>/chunks/          externalized array chunks (FileChunkStore)
//! <dir>/wal/             segmented write-ahead log (ssdm_storage::wal)
//! <dir>/snapshot.ssdm    latest checkpoint snapshot (atomic rename)
//! ```
//!
//! **Commit path.** Every committed update — SPARQL updates and Turtle
//! loads — is offered to the WAL through the core's
//! [`UpdateJournal`] hook *after* it executes and *before* it is
//! acknowledged; the fsync policy decides how durable the record is at
//! acknowledgement time. A journal failure surfaces as a query error,
//! so no acknowledged update can be missing from the log.
//!
//! **Checkpoint protocol** ([`Ssdm::checkpoint`]):
//!
//! 1. capture the recovery LSN (`next_lsn`);
//! 2. fsync the chunk back-end, so data the catalog references is on
//!    media before a snapshot naming it exists;
//! 3. atomically publish the snapshot with the LSN embedded
//!    (`[wal N]` line — temp file, fsync, rename, dir fsync);
//! 4. rotate the WAL and delete segments wholly below the LSN.
//!
//! A crash between any two steps is safe: either the old snapshot and
//! the full log survive, or the new snapshot plus a log whose replay
//! skips everything below its embedded LSN.
//!
//! **Recovery** ([`Ssdm::open_durable`]): load the snapshot if present,
//! scan the WAL (truncating a torn tail at the first bad CRC — see
//! [`ssdm_storage::wal`] for why tears are confined to the tail), and
//! re-execute every record at or above the snapshot's LSN. Replay runs
//! with no journal attached, then the WAL writer is installed as the
//! dataset's journal.

use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Instant;

use scisparql::journal::{JournalEntry, UpdateJournal};
use scisparql::QueryError;
use ssdm_storage::{
    ChunkStore, CrashPlan, FileChunkStore, FsyncPolicy, StorageError, WalOptions, WalRecord,
    WalStats, WalWriter,
};

use crate::{OpenError, OpenOptions, Ssdm};

const SNAPSHOT_FILE: &str = "snapshot.ssdm";
const WAL_DIR: &str = "wal";
const CHUNKS_DIR: &str = "chunks";

/// The options [`Ssdm::open_durable_with`] takes: an [`OpenOptions`]
/// whose durable directory is the one passed alongside.
pub type DurableOptions = OpenOptions;

/// Counters the durability subsystem surfaces through
/// [`Ssdm::stats_report`].
#[derive(Debug, Clone, Copy, Default)]
pub struct DurabilityStats {
    /// Log-writer counters (appends, fsyncs, rotations, checkpoints).
    pub wal: WalStats,
    /// Live WAL segments.
    pub segments: u64,
    /// Recovery passes performed by this instance (1 per durable open).
    pub replays: u64,
    /// Records re-executed during recovery.
    pub replayed_records: u64,
    /// Wall-clock milliseconds the last recovery replay took.
    pub replay_ms: f64,
    /// Torn WAL tails (or torn segment headers) truncated at open.
    pub torn_tail_truncations: u64,
    /// Wall-clock milliseconds the last checkpoint took (0 if none).
    pub last_checkpoint_ms: f64,
}

/// Per-instance durability state hung off [`Ssdm`].
pub(crate) struct DurableState {
    dir: PathBuf,
    writer: Arc<Mutex<WalWriter>>,
    replays: u64,
    replayed_records: u64,
    replay_ms: f64,
    torn_tail_truncations: u64,
    last_checkpoint_ms: f64,
}

fn lock(writer: &Mutex<WalWriter>) -> MutexGuard<'_, WalWriter> {
    // A poisoned mutex means a panic mid-append; the writer's own state
    // is still consistent (appends are single write calls), so keep
    // going rather than poisoning every later query.
    writer.lock().unwrap_or_else(|e| e.into_inner())
}

/// The WAL appender installed as the dataset's [`UpdateJournal`]: one
/// committed update becomes one log record.
struct WalJournal {
    writer: Arc<Mutex<WalWriter>>,
}

impl UpdateJournal for WalJournal {
    fn record(&mut self, entry: JournalEntry<'_>) -> Result<(), String> {
        let record = match entry {
            JournalEntry::Statement(text) => WalRecord::Statement(text.to_string()),
            JournalEntry::TurtleDefault(text) => WalRecord::TurtleDefault(text.to_string()),
            JournalEntry::TurtleNamed { graph, text } => WalRecord::TurtleNamed {
                graph: graph.to_string(),
                text: text.to_string(),
            },
        };
        lock(&self.writer)
            .append(&record)
            .map(|_| ())
            .map_err(|e| e.to_string())
    }
}

/// The chunk store of the durable instance in `dir`; under
/// `fsync always` its writes reach media before they are acknowledged.
pub(crate) fn chunk_store(dir: &Path, fsync: FsyncPolicy) -> Result<FileChunkStore, StorageError> {
    let mut chunks = FileChunkStore::new(dir.join(CHUNKS_DIR))?;
    chunks.set_sync_writes(fsync == FsyncPolicy::Always);
    Ok(chunks)
}

impl Ssdm {
    /// Open (or recover) a durable instance in `dir` with the default
    /// options (`fsync always`, no cache). See the module docs for the
    /// directory layout and recovery protocol.
    pub fn open_durable(dir: impl AsRef<Path>) -> Result<Ssdm, OpenError> {
        Ssdm::open_durable_with(dir, DurableOptions::default())
    }

    /// [`Ssdm::open_durable`] with explicit options.
    pub fn open_durable_with(
        dir: impl AsRef<Path>,
        options: DurableOptions,
    ) -> Result<Ssdm, OpenError> {
        let durable = Some(dir.as_ref().to_path_buf());
        OpenOptions { durable, ..options }.open()
    }

    /// Recover the durable instance in `dir` into this freshly built
    /// one, whose store is [`chunk_store`]: load the snapshot if
    /// present, replay the WAL from the snapshot's LSN with no journal
    /// attached, then install the WAL writer as the journal.
    pub(crate) fn recover(
        &mut self,
        dir: &Path,
        fsync: FsyncPolicy,
        crash: Option<CrashPlan>,
    ) -> Result<(), QueryError> {
        let snapshot_path = dir.join(SNAPSHOT_FILE);
        let snapshot_lsn = if snapshot_path.exists() {
            self.load_snapshot_contents(&snapshot_path)?
        } else {
            0
        };

        let started = Instant::now();
        let (mut writer, recovery) = WalWriter::open(
            &dir.join(WAL_DIR),
            WalOptions {
                policy: fsync,
                crash,
                ..WalOptions::default()
            },
        )?;
        writer.ensure_lsn_at_least(snapshot_lsn);

        // Replay with no journal attached: recovery must not re-log.
        let mut replayed_records = 0u64;
        for (lsn, record) in &recovery.records {
            if *lsn < snapshot_lsn {
                continue; // already contained in the snapshot
            }
            match record {
                WalRecord::Statement(text) => {
                    self.dataset.query(text)?;
                }
                WalRecord::TurtleDefault(text) => {
                    self.dataset.load_turtle(text)?;
                }
                WalRecord::TurtleNamed { graph, text } => {
                    self.dataset.load_turtle_named(graph, text)?;
                }
                WalRecord::Checkpoint { .. } => {}
                // Chunk-level records belong to shard-replication WALs
                // (`ShardedChunkStore`), never to the statement journal;
                // skip them rather than fail recovery if one strays in.
                WalRecord::BeginArray { .. }
                | WalRecord::PutChunk { .. }
                | WalRecord::DeleteArray { .. } => {}
            }
            replayed_records += 1;
        }
        let replay_ms = started.elapsed().as_secs_f64() * 1e3;

        let writer = Arc::new(Mutex::new(writer));
        self.dataset.journal = Some(Box::new(WalJournal {
            writer: Arc::clone(&writer),
        }));
        self.durable = Some(DurableState {
            dir: dir.to_path_buf(),
            writer,
            replays: 1,
            replayed_records,
            replay_ms,
            torn_tail_truncations: u64::from(recovery.truncated_tail),
            last_checkpoint_ms: 0.0,
        });
        Ok(())
    }

    /// Whether this instance was opened with [`Ssdm::open_durable`].
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// Run a checkpoint: fsync chunk data, atomically publish a
    /// snapshot embedding the current WAL LSN, then rotate and truncate
    /// the log. Errors if the instance is not durable.
    pub fn checkpoint(&mut self) -> Result<(), QueryError> {
        let state = self.durable.as_ref().ok_or_else(|| {
            QueryError::Eval("checkpoint: not a durable instance (use open_durable)".into())
        })?;
        let dir = state.dir.clone();
        let writer = Arc::clone(&state.writer);
        let started = Instant::now();
        let lsn = lock(&writer).next_lsn();
        self.dataset
            .arrays
            .backend_mut()
            .sync()
            .map_err(QueryError::Storage)?;
        self.save_snapshot_with_lsn(&dir.join(SNAPSHOT_FILE), Some(lsn))?;
        lock(&writer)
            .checkpoint_truncate(lsn)
            .map_err(QueryError::Storage)?;
        let ms = started.elapsed().as_secs_f64() * 1e3;
        self.durable
            .as_mut()
            .expect("checked above")
            .last_checkpoint_ms = ms;
        Ok(())
    }

    /// Durability counters, if this instance is durable.
    pub fn durability_stats(&self) -> Option<DurabilityStats> {
        self.durable.as_ref().map(|state| {
            let writer = lock(&state.writer);
            DurabilityStats {
                wal: writer.stats(),
                segments: writer.segment_count(),
                replays: state.replays,
                replayed_records: state.replayed_records,
                replay_ms: state.replay_ms,
                torn_tail_truncations: state.torn_tail_truncations,
                last_checkpoint_ms: state.last_checkpoint_ms,
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_storage::wal::SEGMENT_HEADER;

    fn tmp_dir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ssdm-dur-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn count(db: &mut Ssdm) -> usize {
        db.query("SELECT ?s ?o WHERE { ?s <http://p> ?o }")
            .unwrap()
            .into_rows()
            .unwrap()
            .len()
    }

    #[test]
    fn updates_survive_reopen_via_replay() {
        let dir = tmp_dir("reopen");
        {
            let mut db = Ssdm::open_durable(&dir).unwrap();
            db.query("INSERT DATA { <http://s1> <http://p> 1 . }")
                .unwrap();
            db.query("INSERT DATA { <http://s2> <http://p> 2 . }")
                .unwrap();
            db.query("DELETE DATA { <http://s1> <http://p> 1 . }")
                .unwrap();
            let stats = db.durability_stats().unwrap();
            assert_eq!(stats.wal.records_appended, 3);
            assert_eq!(stats.wal.fsyncs, 3);
        }
        let mut db = Ssdm::open_durable(&dir).unwrap();
        assert_eq!(count(&mut db), 1);
        let stats = db.durability_stats().unwrap();
        assert_eq!(stats.replayed_records, 3);
        assert_eq!(stats.replays, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn turtle_loads_are_journaled_and_replayed() {
        let dir = tmp_dir("turtle");
        {
            let mut db = Ssdm::open_durable(&dir).unwrap();
            db.load_turtle("<http://s> <http://p> ( 1 2 3 ) .").unwrap();
            db.load_turtle_named("http://g", "<http://n> <http://q> 7 .")
                .unwrap();
        }
        let mut db = Ssdm::open_durable(&dir).unwrap();
        let rows = db
            .query("SELECT (array_sum(?v) AS ?s) WHERE { <http://s> <http://p> ?v }")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "6");
        let rows = db
            .query("SELECT ?o WHERE { GRAPH <http://g> { ?s <http://q> ?o } }")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "7");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_truncates_wal_and_recovery_prefers_snapshot() {
        let dir = tmp_dir("checkpoint");
        {
            let mut db = Ssdm::open_durable(&dir).unwrap();
            for i in 0..5 {
                db.query(&format!("INSERT DATA {{ <http://s{i}> <http://p> {i} . }}"))
                    .unwrap();
            }
            db.checkpoint().unwrap();
            db.query("INSERT DATA { <http://post> <http://p> 99 . }")
                .unwrap();
            let stats = db.durability_stats().unwrap();
            assert_eq!(stats.wal.checkpoints, 1);
            assert!(stats.last_checkpoint_ms > 0.0);
        }
        let mut db = Ssdm::open_durable(&dir).unwrap();
        assert_eq!(count(&mut db), 6);
        let stats = db.durability_stats().unwrap();
        // Only the checkpoint marker and the post-checkpoint insert are
        // in the log; the first five came from the snapshot.
        assert_eq!(stats.replayed_records, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn externalized_arrays_survive_checkpoint_and_recovery() {
        let dir = tmp_dir("external");
        {
            let mut db = Ssdm::open_durable(&dir).unwrap();
            db.set_externalize_threshold(4, 64);
            db.load_turtle("<http://a> <http://data> ( 1 2 3 4 5 6 7 8 ) .")
                .unwrap();
            db.checkpoint().unwrap();
        }
        let mut db = Ssdm::open_durable(&dir).unwrap();
        // The array came back through snapshot catalog + chunk files,
        // not through replay.
        assert_eq!(db.durability_stats().unwrap().replayed_records, 1);
        let rows = db
            .query("SELECT (array_sum(?v) AS ?s) WHERE { <http://a> <http://data> ?v }")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "36");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn named_graph_arrays_relink_after_checkpoint_and_recovery() {
        let dir = tmp_dir("named-external");
        {
            let mut db = Ssdm::open_durable(&dir).unwrap();
            db.set_externalize_threshold(4, 64);
            db.load_turtle_named("http://g", "<http://a> <http://data> ( 1 2 3 4 5 6 7 8 ) .")
                .unwrap();
            db.checkpoint().unwrap();
        }
        let mut db = Ssdm::open_durable(&dir).unwrap();
        assert_eq!(db.durability_stats().unwrap().replayed_records, 1);
        let graph = db.dataset.named_graph("http://g").unwrap();
        let objects: Vec<_> = graph.iter().map(|t| graph.term(t.o).clone()).collect();
        assert!(
            matches!(objects[..], [ssdm_rdf::Term::ArrayRef(_)]),
            "{objects:?}"
        );
        let rows = db
            .query("SELECT (array_avg(?v) AS ?m) WHERE { GRAPH <http://g> { ?s ?p ?v } }")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "4.5");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn journal_failure_vetoes_acknowledgement() {
        let dir = tmp_dir("veto");
        let record_overhead = SEGMENT_HEADER as u64 + 256;
        let mut db = Ssdm::open_durable_with(
            &dir,
            DurableOptions {
                crash_plan: Some(CrashPlan {
                    at_bytes: record_overhead,
                    garbage: false,
                    seed: 3,
                }),
                ..DurableOptions::default()
            },
        )
        .unwrap();
        let mut acked = 0;
        for i in 0..50 {
            if db
                .query(&format!("INSERT DATA {{ <http://s{i}> <http://p> {i} . }}"))
                .is_ok()
            {
                acked += 1;
            }
        }
        assert!(acked < 50, "crash plan must eventually fire");
        drop(db);
        let mut db = Ssdm::open_durable(&dir).unwrap();
        // Recovery may surface the torn (unacknowledged) update or not,
        // but every acknowledged one must be present.
        assert!(count(&mut db) >= acked);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// The snapshot writes IRIs between `<` and `>` as they are and
    /// reads them back through the Turtle loader, so an IRI that only
    /// an escape could write must never be stored.
    #[test]
    fn escaped_iris_survive_checkpoint_or_are_refused() {
        let dir = tmp_dir("iri-escapes");
        {
            let mut db = Ssdm::open_durable(&dir).unwrap();
            for bad in [
                r"<http://a\u0020b>",
                r"<http://a\u003Eb>",
                r"<http://a\U0000005Cb>",
                r"<http://a\nb>",
                "<http://a b>",
            ] {
                let insert = format!("INSERT DATA {{ {bad} <http://p> 1 . }}");
                assert!(db.query(&insert).is_err(), "{insert}");
                let turtle = format!("{bad} <http://p> 1 .");
                assert!(db.load_turtle(&turtle).is_err(), "{turtle}");
            }
            db.query(r"INSERT DATA { <http://caf\u00E9> <http://p> 1 . }")
                .unwrap();
            db.load_turtle(r"<http://na\u00EFve> <http://p> 2 .")
                .unwrap();
            db.checkpoint().unwrap();
        }
        let mut db = Ssdm::open_durable(&dir).unwrap();
        assert_eq!(count(&mut db), 2);
        for ask in [
            "ASK { <http://café> <http://p> 1 }",
            "ASK { <http://naïve> <http://p> 2 }",
        ] {
            assert_eq!(db.query(ask).unwrap().as_bool(), Some(true), "{ask}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn checkpoint_on_non_durable_instance_errors() {
        let mut db = Ssdm::open(crate::Backend::Memory);
        assert!(!db.is_durable());
        assert!(db.checkpoint().is_err());
        assert!(db.durability_stats().is_none());
    }
}
