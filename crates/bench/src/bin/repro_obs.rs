//! Observability overhead: the cost of the always-on recorder.
//!
//! The `obs` recorder sits on the hottest paths in the system — chunk
//! fetch, cache lookup, WAL fsync, query latency — so its cost must be
//! negligible or nobody will leave it on. This binary replays the
//! `repro_parallel` workload (COLUMN views over a latency-simulated
//! relational back-end, cold and warm cache passes) twice per round:
//! once with the recorder enabled (the default) and once with it
//! disabled via `Recorder::set_enabled(false)`, interleaved A/B so
//! drift hits both sides equally.
//!
//! Claim: **< 3 % overhead** on the latency-simulated workload. A
//! second, latency-free sweep over an in-memory back-end reports the
//! worst-case relative cost for information (not checked: with no
//! simulated round trips the denominator is microseconds).
//!
//! ```text
//! repro_obs [--quick] [--rounds N] [--out PATH]
//! ```

use std::num::NonZeroUsize;
use std::process::ExitCode;

use relstore::LatencyModel;
use ssdm_bench::runner::rel_store;
use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_bench::{best_of, median, Args, Bar, Fmt, Report};
use ssdm_storage::{
    ArrayStore, CachedChunkStore, ChunkStore, MemoryChunkStore, Request, RetrievalStrategy,
};

const ROWS: usize = 128;
const COLS: usize = 128;
const CHUNK_BYTES: usize = 1024;
const GEN_SEED: u64 = 1717;
const CACHE_BYTES: usize = 4 << 20;

/// A/B the recorder over one store constructor: alternate
/// enabled/disabled passes for `rounds` rounds, each pass resolving
/// every view, and return the medians (ms per query, on then off).
/// `cold_each_pass` drops the chunk cache before every timed pass so
/// each pass pays the simulated round trips (the repro_parallel cold
/// profile); otherwise passes run warm (pure in-memory hit path).
fn sweep<S: ChunkStore>(
    rounds: usize,
    queries: usize,
    cold_each_pass: bool,
    mut make: impl FnMut() -> ArrayStore<CachedChunkStore<S>>,
) -> (f64, f64) {
    let rec = ssdm_obs::recorder();
    let (mut on, mut off) = (Vec::new(), Vec::new());
    for round in 0..rounds {
        let mut store = make();
        let matrix = QueryGenerator::matrix(ROWS, COLS);
        let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
        let mut gen = QueryGenerator::new(ROWS, COLS, GEN_SEED);
        let views: Vec<_> = (0..queries)
            .map(|_| gen.instance(&base, AccessPattern::Column))
            .collect();
        let pass = |store: &mut ArrayStore<CachedChunkStore<S>>| {
            let (ms, ()) = best_of(1, || {
                for v in &views {
                    let got = store.read(&[Request::new(v)], RetrievalStrategy::Single);
                    std::hint::black_box(got.expect("resolve"));
                }
            });
            ms / queries as f64
        };
        // Warm pass to populate the cache and fault in lazy state, then
        // alternate the A/B order per round so neither side always runs
        // second (drift-fair).
        pass(&mut store);
        for enabled in [round % 2 == 0, round % 2 != 0] {
            if cold_each_pass {
                store.backend().cache().clear();
            }
            rec.set_enabled(enabled);
            let ms = pass(&mut store);
            if enabled { &mut on } else { &mut off }.push(ms);
        }
        rec.set_enabled(true);
    }
    (median(&on), median(&off))
}

fn main() -> ExitCode {
    let args = Args::parse("repro_obs", &["--quick", "--rounds N", "--out PATH"]);
    let mut report = Report::new(&args);
    let quick = args.quick();
    let rounds = args
        .value::<NonZeroUsize>("--rounds")
        .map_or(9, usize::from);
    let rounds = if quick { rounds.min(3) } else { rounds };
    let queries = if quick { 5 } else { 20 };
    report.config(&[
        ("rows", ROWS.into()),
        ("cols", COLS.into()),
        ("chunk_bytes", CHUNK_BYTES.into()),
        ("queries", queries.into()),
        ("rounds", rounds.into()),
    ]);
    println!("Recorder overhead: enabled vs. disabled, interleaved A/B");
    println!(
        "matrix {ROWS}x{COLS} f64, chunk {CHUNK_BYTES} B, {queries} queries/pass, \
         {rounds} rounds, median of medians"
    );

    // The repro_parallel workload: simulated network round trips
    // dominate, as in the thesis' client-server runs. This is the
    // configuration the <3% claim applies to.
    let networked = sweep(rounds, queries, true, || {
        let backend = rel_store(LatencyModel::networked_dbms(), 1024);
        ArrayStore::new(CachedChunkStore::new(backend, CACHE_BYTES))
    });
    // Worst case for information only: no latency, warm cache — every
    // span and counter lands on a nanosecond-scale operation.
    let memory = sweep(rounds, queries, false, || {
        ArrayStore::new(CachedChunkStore::new(MemoryChunkStore::new(), CACHE_BYTES))
    });

    let overhead_pct = |(on, off): (f64, f64)| (on / off - 1.0) * 100.0;
    let row = |label: &str, (on, off): (f64, f64)| {
        let overhead = overhead_pct((on, off));
        vec![label.into(), on.into(), off.into(), overhead.into()]
    };
    let rows = vec![
        row("networked (cold cache)", networked),
        row("in-memory (warm cache)", memory),
    ];
    report.table(
        "sweeps",
        "recorder overhead",
        &[
            ("workload", "workload", Fmt::Plain),
            ("on ms/q", "on_ms", Fmt::Fixed(3)),
            ("off ms/q", "off_ms", Fmt::Fixed(3)),
            ("overhead", "overhead_pct", Fmt::Unit(2, "%")),
        ],
        rows,
    );
    let claim = "recorder overhead on the networked workload, %";
    report.check(claim, overhead_pct(networked), Bar::Below(3.0));
    report.finish()
}
