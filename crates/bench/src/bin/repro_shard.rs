//! Sharded chunk store scenario: read-throughput scaling, replica
//! offload, and the kill-one-replica failover drill.
//!
//! Three sweeps over the [`ShardedChunkStore`]:
//!
//! 1. **shard scaling** — latency-simulated relational primaries whose
//!    per-row cost dominates (the thesis' client-server regime); a
//!    batched read of every chunk fans out across shards in parallel,
//!    so wall time falls with the largest shard's share of the rows.
//!    Claims: **≥1.4×** at 2 shards, **≥2×** at 4.
//! 2. **replica offload** — adding WAL-shipping read replicas moves the
//!    whole read path off the slow primaries. Claim: with replicas, 0
//!    primary reads and the replicas serving.
//! 3. **failover drill** — 4 shards x 2 replicas over in-memory
//!    primaries, one replica killed mid-workload. Claims: zero failed
//!    reads and at least one recorded failover.
//!
//! Every read is checked bit-identical.
//!
//! ```text
//! repro_shard [--quick] [--out PATH]
//! ```

use std::process::ExitCode;
use std::time::Duration;

use relstore::LatencyModel;
use ssdm_bench::runner::rel_store;
use ssdm_bench::{best_of, Args, Bar, Fmt, Report};
use ssdm_storage::shard::place;
use ssdm_storage::{
    ChunkStore, MemoryChunkStore, ShardOptions, ShardedChunkStore, SharedChunkRead,
    SharedChunkStore,
};

const ARRAY: u64 = 11;
const CHUNK_BYTES: usize = 1024;

fn payload(c: u64) -> Vec<u8> {
    (0..CHUNK_BYTES)
        .map(|b| (c as u8).wrapping_mul(37).wrapping_add(b as u8))
        .collect()
}

/// Relational primaries in the latency regime where row transfer
/// dominates the per-statement overhead, so splitting the rows across
/// shards that fetch in parallel is what pays.
fn rel_primaries(shards: usize) -> Vec<Box<dyn SharedChunkStore>> {
    let model = LatencyModel {
        per_statement: Duration::from_micros(200),
        per_row: Duration::from_micros(20),
        per_kib: Duration::from_micros(8),
    };
    let primary = |_| Box::new(rel_store(model, 1024)) as Box<dyn SharedChunkStore>;
    (0..shards).map(primary).collect()
}

fn seeded(
    primaries: Vec<Box<dyn SharedChunkStore>>,
    replicas: usize,
    chunks: u64,
) -> ShardedChunkStore {
    let options = ShardOptions {
        replicas,
        read_workers: primaries.len().max(4),
        ..ShardOptions::default()
    };
    let mut store = ShardedChunkStore::new(primaries, options).expect("sharded store");
    store.begin_array(ARRAY, chunks as usize).expect("begin");
    for c in 0..chunks {
        store.put_chunk(ARRAY, c, &payload(c)).expect("put");
    }
    store
}

/// One batched read of `ids`, checked bit-identical.
fn read_all(store: &ShardedChunkStore, ids: &[u64]) {
    let rows = store.read_chunks_in(ARRAY, ids).expect("batched read");
    assert_eq!(rows.len(), ids.len(), "row count");
    for ((got_id, got), &want_id) in rows.iter().zip(ids) {
        assert_eq!(*got_id, want_id, "id order");
        assert_eq!(*got, payload(want_id), "chunk {want_id} payload");
    }
}

fn main() -> ExitCode {
    let args = Args::parse("repro_shard", &["--quick", "--out PATH"]);
    let mut report = Report::new(&args);
    let quick = args.quick();
    let chunks: u64 = if quick { 96 } else { 256 };
    let queries = if quick { 4 } else { 12 };
    let ids: Vec<u64> = (0..chunks).collect();
    report.config(&[
        ("chunks", chunks.into()),
        ("chunk_bytes", CHUNK_BYTES.into()),
        ("queries", queries.into()),
        ("latency", "row_dominated".into()),
    ]);
    println!("Sharded chunk store: scaling, replica offload, failover drill");
    println!(
        "{chunks} chunks x {CHUNK_BYTES} B, row-dominated relational latency \
         (200 us/stmt + 20 us/row + 8 us/KiB), {queries} queries per cell"
    );
    let timed = |store: &ShardedChunkStore| {
        let (ms, ()) = best_of(1, || (0..queries).for_each(|_| read_all(store, &ids)));
        ms / queries as f64
    };

    // --- Sweep 1: shard count (relational primaries, no replicas) --------
    let mut rows = Vec::new();
    let mut speedups = Vec::new();
    let mut baseline_ms = 0.0;
    for shards in [1usize, 2, 4] {
        let per_query_ms = timed(&seeded(rel_primaries(shards), 0, chunks));
        if shards == 1 {
            baseline_ms = per_query_ms;
        }
        let share = |s| {
            ids.iter()
                .filter(|&&c| place(ARRAY, c, shards) == s)
                .count()
        };
        let largest = (0..shards).map(share).max().unwrap_or(0) as f64 / chunks as f64;
        let speedup = baseline_ms / per_query_ms;
        speedups.push((shards, speedup));
        rows.push(vec![
            shards.into(),
            per_query_ms.into(),
            largest.into(),
            speedup.into(),
        ]);
    }
    report.table(
        "scaling",
        "batched read scaling across shards (bit-identical ✓)",
        &[
            ("shards", "shards", Fmt::Plain),
            ("ms/query", "per_query_ms", Fmt::Fixed(2)),
            ("largest share", "largest_share", Fmt::Pct(0)),
            ("speedup", "speedup", Fmt::Unit(2, "x")),
        ],
        rows,
    );

    // --- Sweep 2: replica offload (2 shards, memory replicas) ------------
    let mut rows = Vec::new();
    let mut offload = None;
    let mut baseline_ms = 0.0;
    for replicas in [0usize, 1, 2] {
        let store = seeded(rel_primaries(2), replicas, chunks);
        // One untimed pass ships the WAL and catches replicas up, so the
        // timed passes measure steady-state routing.
        read_all(&store, &ids);
        let reads = |store: &ShardedChunkStore| {
            let shards = store.stats().shards;
            let primary = shards.iter().map(|s| s.primary_reads).sum::<u64>();
            (primary, shards.iter().map(|s| s.replica_reads).sum::<u64>())
        };
        let before = reads(&store);
        let per_query_ms = timed(&store);
        let after = reads(&store);
        let (primary, replica) = (after.0 - before.0, after.1 - before.1);
        if replicas == 0 {
            baseline_ms = per_query_ms;
        } else if offload.is_none() {
            offload = Some((primary, replica));
        }
        rows.push(vec![
            replicas.into(),
            per_query_ms.into(),
            primary.into(),
            replica.into(),
            (baseline_ms / per_query_ms).into(),
        ]);
    }
    report.table(
        "replica_offload",
        "replica offload of the read path (2 shards)",
        &[
            ("replicas", "replicas", Fmt::Plain),
            ("ms/query", "per_query_ms", Fmt::Fixed(2)),
            ("primary reads", "primary_reads", Fmt::Plain),
            ("replica reads", "replica_reads", Fmt::Plain),
            ("speedup", "speedup", Fmt::Unit(1, "x")),
        ],
        rows,
    );

    // --- Sweep 3: failover drill (4 shards x 2 replicas, kill one) -------
    let primaries = (0..4).map(|_| Box::new(MemoryChunkStore::new()) as Box<dyn SharedChunkStore>);
    let store = seeded(primaries.collect(), 2, chunks);
    let rounds = if quick { 6 } else { 16 };
    let (mut failed_reads, mut total_reads) = (0u64, 0u64);
    for round in 0..rounds {
        if round == rounds / 2 {
            store.kill_replica(1, 0); // mid-workload
        }
        for &c in &ids {
            total_reads += 1;
            match store.read_chunk(ARRAY, c) {
                Ok(data) => assert_eq!(data, payload(c), "chunk {c} bit-identical"),
                Err(_) => failed_reads += 1,
            }
        }
        read_all(&store, &ids);
        total_reads += 1;
    }
    let stats = store.stats();
    report.table(
        "failover_drill",
        "failover drill (4 shards x 2 replicas, one replica killed mid-workload)",
        &[
            ("reads", "total_reads", Fmt::Plain),
            ("failed", "failed_reads", Fmt::Plain),
            ("failovers", "failovers", Fmt::Plain),
            ("breaker trips", "breaker_opens", Fmt::Plain),
        ],
        vec![vec![
            total_reads.into(),
            failed_reads.into(),
            stats.failovers.into(),
            stats.breaker_opens.into(),
        ]],
    );

    // --- Claims -------------------------------------------------------------
    for (shards, speedup) in &speedups[1..] {
        let bar = if *shards == 2 { 1.4 } else { 2.0 };
        report.check(
            format!("speedup at {shards} shards"),
            *speedup,
            Bar::AtLeast(bar),
        );
    }
    let (primary, replica) = offload.expect("a sweep with replicas");
    let claim = "primary reads with a live replica";
    report.check(claim, primary as f64, Bar::Equals(0.0));
    let claim = "replica reads with a live replica";
    report.check(claim, replica as f64, Bar::AtLeast(1.0));
    let claim = "failed reads in the failover drill";
    report.check(claim, failed_reads as f64, Bar::Equals(0.0));
    let claim = "failovers the killed replica recorded";
    report.check(claim, stats.failovers as f64, Bar::AtLeast(1.0));
    report.finish()
}
