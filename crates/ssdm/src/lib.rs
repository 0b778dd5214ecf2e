//! SSDM — the Scientific SPARQL Database Manager.
//!
//! The user-facing layer of the system (thesis ch. 5–7): an [`Ssdm`]
//! instance owns a [`scisparql::Dataset`] configured with one of the
//! storage back-ends, and adds:
//!
//! * **data loaders** ([`loaders`]): Turtle files with collection
//!   consolidation, linking of pre-existing binary array files into the
//!   graph (*file links*, the mediator scenario), and RDF Data Cube
//!   consolidation ([`datacube`], thesis §5.3.3);
//! * the **BISTAB** synthetic application ([`bistab`]) reproducing the
//!   computational-biology evaluation of §6.4;
//! * a **workflow client API** ([`workflow`]) mirroring the Matlab
//!   integration of ch. 7: store numeric results under a URI, annotate
//!   them with metadata triples, and query them back with SciSPARQL.
//!
//! # Choosing a back-end
//!
//! Every engine is built by [`OpenOptions::open`]: a back-end kind, an
//! optional chunk cache, shards and replicas or a durable directory, and
//! the settings applied right after opening.
//!
//! ```
//! use ssdm::{Backend, OpenOptions};
//!
//! let mut db = OpenOptions {
//!     backend: Backend::Relational,
//!     cache_bytes: 1 << 20,
//!     ..OpenOptions::default()
//! }
//! .open()
//! .unwrap();
//! db.load_turtle("@prefix ex: <http://example.org/> . ex:a ex:v (1 2 3) .").unwrap();
//! let rows = db.query("PREFIX ex: <http://example.org/> \
//!                      SELECT (array_sum(?v) AS ?s) WHERE { ex:a ex:v ?v }").unwrap()
//!     .into_rows().unwrap();
//! assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "6");
//! ```
//!
//! [`Ssdm::open`], [`Ssdm::open_with_cache`] and [`Ssdm::open_durable`]
//! are shorthands for the common option sets.

pub mod bistab;
pub mod datacube;
pub mod durability;
pub mod http;
pub mod loaders;
pub mod server;
pub mod snapshot;
pub mod tabular;
pub mod tenant;
pub mod workflow;

use std::path::{Path, PathBuf};

use scisparql::dataset::{DynChunkStore, DEFAULT_CHUNK_BYTES};
use scisparql::{Dataset, PlannerMode, QueryError, QueryResult};
use ssdm_storage::{
    CachedChunkStore, ChunkStore, CodecPolicy, FileChunkStore, MemoryChunkStore, RelChunkStore,
    ShardedChunkStore, StorageError,
};

pub use durability::{DurabilityStats, DurableOptions};
pub use ssdm_storage::{CrashPlan, FsyncPolicy, ShardOptions, ShardStats};

/// Storage back-end selection for externalized arrays.
#[derive(Debug, Clone, PartialEq)]
pub enum Backend {
    /// In-process chunk map (the resident baseline).
    Memory,
    /// Binary files under a directory (one file per array).
    File(PathBuf),
    /// The embedded relational substrate, in memory.
    Relational,
    /// The embedded relational substrate, file-backed, with options.
    RelationalFile(PathBuf, relstore::DbOptions),
}

impl Backend {
    /// One store of this kind. `shard` gives shard `i` of a persistent
    /// kind a location of its own (`dir/shard-i`, `path.shard<i>`).
    fn store(&self, shard: Option<usize>) -> Result<DynChunkStore, StorageError> {
        Ok(match self {
            Backend::Memory => Box::new(MemoryChunkStore::new()),
            Backend::Relational => Box::new(RelChunkStore::open_memory()?),
            Backend::File(dir) => {
                let dir = shard.map_or_else(|| dir.clone(), |i| dir.join(format!("shard-{i}")));
                Box::new(FileChunkStore::new(dir)?)
            }
            Backend::RelationalFile(path, options) => {
                let path =
                    shard.map_or_else(|| path.clone(), |i| beside(path, &format!("shard{i}")));
                Box::new(RelChunkStore::create_file(&path, options.clone())?)
            }
        })
    }
}

/// `path` with `.suffix` appended to its file name.
fn beside(path: &Path, suffix: &str) -> PathBuf {
    PathBuf::from(format!("{}.{suffix}", path.display()))
}

/// How to build and configure an engine. [`OpenOptions::open`] is the
/// one place an engine is made: a store of the chosen kind, spread over
/// shards when asked, behind the chunk cache when it has a budget. A
/// durable directory is orthogonal to the cache: it replaces the
/// back-end by its own file store and adds the write-ahead log
/// ([`durability`]). The defaults are an in-memory engine with every
/// setting left as [`Dataset`] chooses it.
#[derive(Debug, Clone, PartialEq)]
pub struct OpenOptions {
    /// Where externalized arrays live; unused when `durable` is set.
    pub backend: Backend,
    /// Shared LRU chunk cache in front of the whole store
    /// ([`CachedChunkStore`]); 0 disables it.
    pub cache_bytes: usize,
    /// Back-ends of the chosen kind the arrays are spread over by
    /// rendezvous placement on `(array_id, chunk_id)`
    /// ([`ShardedChunkStore`]); results are identical for every count.
    pub shards: usize,
    /// WAL-shipping read replicas per shard.
    pub replicas: usize,
    /// Open, or recover, a crash-safe engine in this directory.
    pub durable: Option<PathBuf>,
    /// When a durable engine's WAL appends and chunk writes reach media.
    pub fsync: FsyncPolicy,
    /// Deterministic WAL crash injection, for recovery tests.
    pub crash_plan: Option<CrashPlan>,
    /// Workers for proxy resolution and the compute kernels
    /// ([`Ssdm::set_parallel_workers`]); `None` keeps the defaults.
    pub workers: Option<usize>,
    /// Chunk codec for arrays stored from now on; `None` keeps the
    /// `SSDM_CODEC` default.
    pub codec: Option<CodecPolicy>,
    /// Join-enumeration mode; `None` keeps the `SSDM_PLANNER` default.
    pub planner: Option<PlannerMode>,
    /// Arrays with more elements than this are stored in the back-end
    /// ([`Ssdm::set_externalize_threshold`]).
    pub externalize_threshold: usize,
    /// Chunk size of externalized arrays (0 tunes it per array).
    pub chunk_bytes: usize,
    /// Statements taking at least this many milliseconds run profiled
    /// and log their `EXPLAIN ANALYZE` profile to stderr.
    pub slow_query_ms: Option<u64>,
}

impl Default for OpenOptions {
    fn default() -> Self {
        OpenOptions {
            backend: Backend::Memory,
            cache_bytes: 0,
            shards: 1,
            replicas: 0,
            durable: None,
            fsync: FsyncPolicy::Always,
            crash_plan: None,
            workers: None,
            codec: None,
            planner: None,
            externalize_threshold: usize::MAX,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            slow_query_ms: None,
        }
    }
}

/// Why [`OpenOptions::open`] built no engine.
#[derive(Debug)]
pub enum OpenError {
    /// `durable` with more than one shard or with replicas. Rendezvous
    /// placement moves about 1/(N+1) of the chunks when a shard is
    /// added, and a durable directory does not record the shard count,
    /// so a restart with another count would read chunks from shards
    /// that never stored them.
    DurableSharded,
    /// A back-end could not be created, or recovery failed.
    Engine(QueryError),
}

impl std::fmt::Display for OpenError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OpenError::DurableSharded => f.write_str(
                "shards and replicas cannot be combined with a durable directory, \
                 which does not record the shard count its chunks were placed by",
            ),
            OpenError::Engine(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for OpenError {}

impl From<StorageError> for OpenError {
    fn from(e: StorageError) -> Self {
        OpenError::Engine(e.into())
    }
}

impl OpenOptions {
    /// Build the engine: raw store → sharded cluster → chunk cache, or a
    /// durable directory's file store recovered from its snapshot and
    /// WAL; then apply the settings.
    pub fn open(&self) -> Result<Ssdm, OpenError> {
        let sharded = self.shards > 1 || self.replicas > 0;
        let store: DynChunkStore = match &self.durable {
            Some(_) if sharded => return Err(OpenError::DurableSharded),
            Some(dir) => Box::new(durability::chunk_store(dir, self.fsync)?),
            None if sharded => {
                let primaries = (0..self.shards.max(1))
                    .map(|i| self.backend.store(Some(i)))
                    .collect::<Result<_, _>>()?;
                let opts = ShardOptions {
                    replicas: self.replicas,
                    ..ShardOptions::default()
                };
                // A persistent kind keeps the replication state (WALs,
                // replica segment copies) next to its data.
                Box::new(match &self.backend {
                    Backend::File(dir) => {
                        ShardedChunkStore::with_root(primaries, dir.join("replication"), opts)
                    }
                    Backend::RelationalFile(path, _) => {
                        ShardedChunkStore::with_root(primaries, beside(path, "replication"), opts)
                    }
                    Backend::Memory | Backend::Relational => {
                        ShardedChunkStore::new(primaries, opts)
                    }
                }?)
            }
            None => self.backend.store(None)?,
        };
        let store: DynChunkStore = match self.cache_bytes {
            0 => store,
            bytes => Box::new(CachedChunkStore::new(store, bytes)),
        };
        let mut db = Ssdm::from_dataset(Dataset::with_backend(store));
        if let Some(dir) = &self.durable {
            db.recover(dir, self.fsync, self.crash_plan)
                .map_err(OpenError::Engine)?;
        }
        if let Some(workers) = self.workers {
            db.set_parallel_workers(workers);
        }
        if let Some(codec) = self.codec {
            db.set_codec(codec);
        }
        if let Some(mode) = self.planner {
            db.dataset.planner.mode = mode;
        }
        db.set_externalize_threshold(self.externalize_threshold, self.chunk_bytes);
        db.slow_query_ms = self.slow_query_ms;
        Ok(db)
    }

    /// [`OpenOptions::open`] for the command-line binaries: report on
    /// stderr what recovery replayed, or why `what` did not open, and
    /// then exit with status 2 for a refused composition, 1 otherwise.
    pub fn open_or_exit(&self, what: &str) -> Ssdm {
        let db = self.open().unwrap_or_else(|e| {
            eprintln!("cannot open {what}: {e}");
            let refused = matches!(e, OpenError::DurableSharded);
            std::process::exit(if refused { 2 } else { 1 })
        });
        if let (Some(dir), Some(stats)) = (&self.durable, db.durability_stats()) {
            eprintln!(
                "durable dir {} recovered: {} wal records replayed in {:.1} ms{}",
                dir.display(),
                stats.replayed_records,
                stats.replay_ms,
                match stats.torn_tail_truncations {
                    0 => "",
                    _ => " (torn tail truncated)",
                },
            );
        }
        db
    }

    /// Read one engine flag that `ssdm-cli` and `ssdm-server` share,
    /// taking its value from `args`. `Err` names an unknown flag, or a
    /// value that is missing or unreadable.
    pub fn parse_flag(
        &mut self,
        flag: &str,
        args: &mut impl Iterator<Item = String>,
    ) -> Result<(), String> {
        fn value<T>(
            flag: &str,
            args: &mut impl Iterator<Item = String>,
            parse: impl Fn(&str) -> Option<T>,
        ) -> Result<T, String> {
            let v = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
            parse(&v).ok_or_else(|| format!("bad {flag} value {v:?}"))
        }
        match flag {
            "--backend" => {
                self.backend = value(flag, args, |v| match v {
                    "memory" => Some(Backend::Memory),
                    "relational" => Some(Backend::Relational),
                    v => Some(Backend::File(v.strip_prefix("file:")?.into())),
                })?
            }
            "--cache" => self.cache_bytes = value(flag, args, |v| v.parse().ok())?,
            "--shards" => self.shards = value(flag, args, |v| v.parse().ok())?,
            "--replicas" => self.replicas = value(flag, args, |v| v.parse().ok())?,
            "--durable" => self.durable = Some(value(flag, args, |v| Some(v.into()))?),
            "--fsync" => self.fsync = value(flag, args, FsyncPolicy::parse)?,
            "--threshold" => self.externalize_threshold = value(flag, args, |v| v.parse().ok())?,
            "--chunk" => self.chunk_bytes = value(flag, args, |v| v.parse().ok())?,
            "--codec" => self.codec = Some(value(flag, args, CodecPolicy::parse)?),
            "--planner" => self.planner = Some(value(flag, args, PlannerMode::parse)?),
            "--slow-query-ms" => self.slow_query_ms = Some(value(flag, args, |v| v.parse().ok())?),
            _ => return Err(format!("unknown argument: {flag}")),
        }
        Ok(())
    }
}

/// An SSDM instance.
pub struct Ssdm {
    /// The underlying dataset; public for advanced use (registry,
    /// strategy, thresholds).
    pub dataset: Dataset,
    /// Durability state when opened via [`Ssdm::open_durable`]
    /// (WAL writer, recovery counters); `None` for volatile instances.
    pub(crate) durable: Option<durability::DurableState>,
    /// Slow-query threshold: statements taking at least this many
    /// milliseconds run with the profiler attached and log their
    /// profile to stderr. `None` (default) disables the log.
    slow_query_ms: Option<u64>,
}

/// The process-wide recorder's series in Prometheus text format, with
/// the core histograms and codec counters registered first, so a scrape
/// sees stable series (with zero counts) even before the first chunk
/// fetch, fsync, query, skipped or decoded chunk.
pub(crate) fn recorder_prometheus_text() -> String {
    let rec = ssdm_obs::recorder();
    for name in [
        "ssdm_chunk_fetch_seconds",
        "ssdm_wal_fsync_seconds",
        "ssdm_query_seconds",
    ] {
        let _ = rec.histogram(name);
    }
    for name in ["ssdm_chunks_skipped", "ssdm_chunks_decoded"] {
        let _ = rec.counter(name);
    }
    rec.prometheus_text()
}

impl Ssdm {
    /// Wrap an already-configured dataset (no durability).
    pub fn from_dataset(dataset: Dataset) -> Self {
        Ssdm {
            dataset,
            durable: None,
            slow_query_ms: None,
        }
    }

    /// Open an instance over the chosen back-end.
    pub fn open(backend: Backend) -> Self {
        Self::open_with_cache(backend, 0)
    }

    /// Open an instance whose back-end is wrapped in a shared LRU chunk
    /// cache of `cache_bytes` ([`CachedChunkStore`]), so repeated array
    /// accesses skip back-end round trips. `cache_bytes == 0` disables
    /// caching. Panics when the back-end cannot be created; use
    /// [`OpenOptions::open`] to get the error instead.
    pub fn open_with_cache(backend: Backend, cache_bytes: usize) -> Self {
        let options = OpenOptions {
            backend,
            cache_bytes,
            ..OpenOptions::default()
        };
        options.open().expect("cannot create the back-end")
    }

    /// Every counter the instance exposes, as one structured
    /// [`ssdm_obs::Report`]. Lifetime counters carry the `cumulative`
    /// scope; the array-proxy-resolution section is pushed twice — once
    /// cumulative, once `last_op` (the most recent retrieval) — so the
    /// two can never be silently conflated again.
    pub fn report(&self) -> ssdm_obs::Report {
        use ssdm_obs::Scope::{Cumulative, LastOp};
        let backend = self.dataset.arrays.backend();
        let io = backend.io_stats();
        let cache = backend.cache_stats();
        let res = backend.resilience_stats();
        let compute = ssdm_array::compute_stats();
        let mut r = ssdm_obs::Report::default();

        r.push_int("backend", Cumulative, "statements", io.statements);
        r.push_int("backend", Cumulative, "chunks", io.chunks_returned);
        r.push_int("backend", Cumulative, "bytes", io.bytes_returned);

        r.push_int("cache", Cumulative, "hits", cache.hits);
        r.push_int("cache", Cumulative, "misses", cache.misses);
        r.push_float("cache", Cumulative, "hit_rate", cache.hit_rate());
        r.push_int("cache", Cumulative, "evictions", cache.evictions);
        r.push_int("cache", LastOp, "resident_bytes", cache.resident_bytes);
        r.push_int("cache", LastOp, "capacity_bytes", cache.capacity_bytes);

        r.push_int("resilience", Cumulative, "retries", res.retries);
        r.push_int(
            "resilience",
            Cumulative,
            "transient",
            res.transient_failures,
        );
        r.push_int(
            "resilience",
            Cumulative,
            "permanent",
            res.permanent_failures,
        );
        r.push_int(
            "resilience",
            Cumulative,
            "corruption_detected",
            res.corruption_detected,
        );
        r.push_int(
            "resilience",
            Cumulative,
            "corruption_repaired",
            res.corruption_repaired,
        );
        r.push_int("resilience", Cumulative, "short_reads", res.short_reads);
        r.push_int("resilience", Cumulative, "giveups", res.giveups);

        for (scope, apr) in [
            (Cumulative, self.dataset.arrays.cumulative_stats()),
            (LastOp, self.dataset.arrays.last_stats()),
        ] {
            r.push_int("apr", scope, "statements", apr.statements);
            r.push_int("apr", scope, "chunks", apr.chunks_fetched);
            r.push_int("apr", scope, "bytes", apr.bytes_fetched);
            r.push_int("apr", scope, "elements", apr.elements_resolved);
            r.push_int("apr", scope, "fallbacks", apr.fallbacks);
            r.push_int("apr", scope, "retries", apr.retries);
            r.push_int("apr", scope, "repaired", apr.corruption_repaired);
            r.push_int("apr", scope, "chunks_skipped", apr.chunks_skipped);
            r.push_int("apr", scope, "chunks_decoded", apr.chunks_decoded);
            r.push_int("apr", scope, "bytes_decoded", apr.bytes_decoded);
            r.push_int("apr", scope, "elements_examined", apr.elements_examined);
        }

        r.push_int(
            "compute",
            Cumulative,
            "kernel_invocations",
            compute.kernel_invocations,
        );
        r.push_int(
            "compute",
            Cumulative,
            "elements",
            compute.elements_processed,
        );
        r.push_int(
            "compute",
            Cumulative,
            "scalar_fallbacks",
            compute.scalar_fallbacks,
        );
        r.push_int(
            "compute",
            Cumulative,
            "parallel_folds",
            compute.parallel_folds,
        );

        // Optimizer state: active enumeration mode plus what the
        // feedback loop has learned so far.
        let planner = &self.dataset.planner;
        r.push_int(
            "planner",
            LastOp,
            interned(format!("mode_{}", planner.mode.name())),
            1,
        );
        r.push_int(
            "planner",
            LastOp,
            "dp_max_patterns",
            planner.dp_max_patterns as u64,
        );
        r.push_float(
            "planner",
            LastOp,
            "reopt_qerror",
            planner.adaptive_qerror.unwrap_or(0.0),
        );
        r.push_int(
            "planner",
            LastOp,
            "calibration_enabled",
            u64::from(planner.calibration),
        );
        r.push_int(
            "planner",
            Cumulative,
            "calibration_entries",
            self.dataset.calibration.len() as u64,
        );
        r.push_float(
            "planner",
            Cumulative,
            "cost_per_statement_us",
            self.dataset.calibration.cost_per_statement_us(),
        );

        match self.durability_stats() {
            None => r.push_int("durability", Cumulative, "enabled", 0),
            Some(d) => {
                r.push_int("durability", Cumulative, "enabled", 1);
                r.push_int("durability", Cumulative, "records", d.wal.records_appended);
                r.push_int(
                    "durability",
                    Cumulative,
                    "bytes_appended",
                    d.wal.bytes_appended,
                );
                r.push_int("durability", Cumulative, "fsyncs", d.wal.fsyncs);
                r.push_int(
                    "durability",
                    Cumulative,
                    "bytes_fsynced",
                    d.wal.bytes_fsynced,
                );
                r.push_int("durability", Cumulative, "segments", d.segments);
                r.push_int(
                    "durability",
                    Cumulative,
                    "rotations",
                    d.wal.segments_rotated,
                );
                r.push_int("durability", Cumulative, "checkpoints", d.wal.checkpoints);
                r.push_int("durability", Cumulative, "replays", d.replays);
                r.push_int(
                    "durability",
                    Cumulative,
                    "replayed_records",
                    d.replayed_records,
                );
                r.push_float("durability", Cumulative, "replay_ms", d.replay_ms);
                r.push_int(
                    "durability",
                    Cumulative,
                    "torn_tails",
                    d.torn_tail_truncations,
                );
                r.push_float(
                    "durability",
                    LastOp,
                    "last_checkpoint_ms",
                    d.last_checkpoint_ms,
                );
            }
        }

        if let Some(sh) = backend.shard_stats() {
            r.push_int("shards", Cumulative, "count", sh.shards.len() as u64);
            r.push_int("shards", Cumulative, "failovers", sh.failovers);
            r.push_int("shards", Cumulative, "breaker_opens", sh.breaker_opens);
            r.push_int("shards", Cumulative, "degraded_reads", sh.degraded_reads);
            for (i, s) in sh.shards.iter().enumerate() {
                r.push_int(
                    "shards",
                    Cumulative,
                    interned(format!("shard{i}_primary_reads")),
                    s.primary_reads,
                );
                r.push_int(
                    "shards",
                    Cumulative,
                    interned(format!("shard{i}_replica_reads")),
                    s.replica_reads,
                );
                r.push_int(
                    "shards",
                    Cumulative,
                    interned(format!("shard{i}_failovers")),
                    s.failovers,
                );
                r.push_int(
                    "shards",
                    LastOp,
                    interned(format!("shard{i}_alive")),
                    u64::from(s.primary_alive)
                        + s.replicas.iter().filter(|rep| rep.alive).count() as u64,
                );
                r.push_int(
                    "shards",
                    LastOp,
                    interned(format!("shard{i}_replica_lag")),
                    s.replicas.iter().map(|rep| rep.lag).max().unwrap_or(0),
                );
            }
        }
        r
    }

    /// Human-readable back-end/cache/resilience/APR statistics — what
    /// the CLI's `.stats` command and the server's `STATS` statement
    /// print. One line per `section[scope]` of [`Ssdm::report`].
    pub fn stats_report(&self) -> String {
        self.report().render_text()
    }

    /// The Prometheus text-format metrics dump served by the `METRICS`
    /// wire statement and the server's `--metrics` HTTP endpoint:
    /// the structured [`Ssdm::report`] counters plus the process-wide
    /// recorder's latency histograms (chunk fetch, WAL fsync, query).
    pub fn metrics_prometheus(&self) -> String {
        let mut out = self.report().render_prometheus();
        out.push_str(&recorder_prometheus_text());
        out
    }

    /// Parse and execute one SciSPARQL statement.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, QueryError> {
        let Some(threshold) = self.slow_query_ms else {
            return self.dataset.query(text);
        };
        let start = std::time::Instant::now();
        let (result, profile) = self.dataset.query_profiled(text)?;
        let elapsed_ms = start.elapsed().as_millis() as u64;
        if elapsed_ms >= threshold {
            eprintln!(
                "[ssdm] slow query: {elapsed_ms} ms (threshold {threshold} ms)\n\
                 {}\n{profile}",
                text.trim()
            );
        }
        Ok(result)
    }

    /// Load Turtle text (collections consolidate into arrays; arrays
    /// above the externalization threshold move to the back-end).
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, QueryError> {
        self.dataset.load_turtle(text)
    }

    /// Set how many elements an array may have before it is stored
    /// externally instead of residing in the graph.
    pub fn set_externalize_threshold(&mut self, elements: usize, chunk_bytes: usize) {
        self.dataset.externalize_threshold = elements;
        self.dataset.chunk_bytes = chunk_bytes;
    }

    /// Load Turtle text into a named graph (thesis §3.3.4).
    pub fn load_turtle_named(&mut self, name: &str, text: &str) -> Result<usize, QueryError> {
        self.dataset.load_turtle_named(name, text)
    }

    /// Set the retrieval strategy for array-proxy resolution.
    pub fn set_strategy(&mut self, strategy: ssdm_storage::RetrievalStrategy) {
        self.dataset.strategy = strategy;
    }

    /// Set the chunk codec policy for arrays stored from now on
    /// (already-stored arrays keep the frames they were written with;
    /// every policy decodes every frame). The default comes from the
    /// `SSDM_CODEC` environment variable, falling back to `auto`.
    pub fn set_codec(&mut self, codec: CodecPolicy) {
        self.dataset.arrays.set_codec(codec);
    }

    /// Enable or disable zone-map chunk skipping for filtered
    /// resolutions. On by default; results are bit-identical either
    /// way — skipping only changes how many chunks are fetched.
    pub fn set_chunk_skipping(&mut self, enabled: bool) {
        self.dataset.arrays.set_skip_enabled(enabled);
    }

    /// Set the worker count for parallel proxy resolution and streamed
    /// aggregates (1 = sequential; results are bit-identical either
    /// way). Also sizes the pool the compute kernels use for large
    /// resident arrays.
    pub fn set_parallel_workers(&mut self, workers: usize) {
        let workers = workers.max(1);
        self.dataset.workers = workers;
        ssdm_array::pool::set_compute_workers(workers);
    }
}

/// Intern a dynamically built per-shard counter name so it satisfies
/// the report's `&'static str` name contract. Bounded: the set of names
/// is (shard count x 5), re-used across every report.
fn interned(name: String) -> &'static str {
    use std::collections::HashMap;
    use std::sync::{Mutex, OnceLock};
    static NAMES: OnceLock<Mutex<HashMap<String, &'static str>>> = OnceLock::new();
    let mut map = NAMES
        .get_or_init(Default::default)
        .lock()
        .expect("name intern mutex");
    if let Some(s) = map.get(&name) {
        return s;
    }
    let leaked: &'static str = Box::leak(name.clone().into_boxed_str());
    map.insert(name, leaked);
    leaked
}
