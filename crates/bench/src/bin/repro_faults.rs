//! Fault-tolerance scenario: query success rate vs injected fault rate.
//!
//! Runs the mini-benchmark's access patterns against an in-memory
//! back-end wrapped in a deterministic `FaultInjectingChunkStore`,
//! twice per fault rate: once bare (every transient back-end fault
//! sinks its query) and once behind a `ResilientChunkStore` with
//! retry/backoff plus the APR's per-chunk fallback. A query counts as a
//! success only if it returns *and* its elements are bit-identical to
//! the fault-free baseline.
//!
//! Expected shape: the bare stack's success rate decays roughly with
//! (1 - rate)^statements, while the resilient stack stays at 100% far
//! past realistic fault rates, at the cost of retries visible in the
//! right-hand columns. Checked: no query returns wrong bits.
//! `SSDM_FAULT_SEED` overrides the plan seed.

use std::process::ExitCode;

use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_bench::{Args, Bar, Fmt, Report};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, ChunkStore, FaultInjectingChunkStore, FaultPlan, MemoryChunkStore, Request,
    ResilientChunkStore, RetrievalStrategy, RetryPolicy,
};

const ROWS: usize = 128;
const COLS: usize = 128;
const CHUNK_BYTES: usize = 1024;
const QUERIES: usize = 150;
const GEN_SEED: u64 = 4242;
const PATTERNS: [AccessPattern; 4] = [
    AccessPattern::Row,
    AccessPattern::Column,
    AccessPattern::StridedRows { stride: 4 },
    AccessPattern::Block { rows: 16, cols: 16 },
];

#[derive(Default)]
struct Outcome {
    succeeded: usize,
    wrong: usize,
    retries: u64,
    fallbacks: u64,
    giveups: u64,
}

/// Run the workload against a fresh store stack, comparing query `i`
/// with `expected[i]` (none: record the answers as the baseline).
fn run<S: ChunkStore>(store: &mut ArrayStore<S>, expected: &mut Vec<Vec<f64>>) -> Outcome {
    let matrix = QueryGenerator::matrix(ROWS, COLS);
    let base = store.store_array(&matrix, CHUNK_BYTES).expect("store");
    let mut gen = QueryGenerator::new(ROWS, COLS, GEN_SEED);
    let strategy = RetrievalStrategy::SpdRange {
        options: SpdOptions::default(),
    };
    let baseline = expected.is_empty();
    let mut out = Outcome::default();
    for i in 0..QUERIES {
        let view = gen.instance(&base, PATTERNS[i % PATTERNS.len()]);
        let read = store.read(&[Request::new(&view)], strategy);
        if let Ok(a) = read.and_then(|mut r| r.remove(0).into_array()) {
            let got: Vec<f64> = a.elements().iter().map(|n| n.as_f64()).collect();
            if baseline {
                expected.push(got);
                out.succeeded += 1;
            } else if got == expected[i] {
                out.succeeded += 1;
            } else {
                out.wrong += 1;
            }
        }
        let s = store.last_stats();
        out.retries += s.retries;
        out.fallbacks += s.fallbacks;
    }
    assert_eq!(
        expected.len(),
        QUERIES,
        "the fault-free baseline answers all"
    );
    out.giveups = store.backend().resilience_stats().giveups;
    out
}

fn main() -> ExitCode {
    let mut report = Report::new(&Args::parse("repro_faults", &[]));
    let seed = FaultPlan::seed_from_env(7);
    let rates = [0.0, 0.01, 0.02, 0.05, 0.10, 0.20, 0.40];
    println!("Fault tolerance: success rate vs injected transient-fault rate");
    println!(
        "matrix {ROWS}x{COLS} f64, chunk {CHUNK_BYTES} B, {QUERIES} SPD-RANGE queries per cell, \
         plan seed {seed} (override with SSDM_FAULT_SEED)"
    );

    // Fault-free ground truth, once.
    let mut expected = Vec::new();
    run(&mut ArrayStore::new(MemoryChunkStore::new()), &mut expected);

    let mut table = Vec::new();
    let mut wrong = 0;
    for rate in rates {
        let plan = FaultPlan::transient_reads(seed, rate);
        let faulty = || FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan.clone());
        let bare = run(&mut ArrayStore::new(faulty()), &mut expected);
        let resilient = ResilientChunkStore::new(faulty(), RetryPolicy::aggressive());
        let res = run(&mut ArrayStore::new(resilient), &mut expected);
        let share = |n: usize| n as f64 / QUERIES as f64;
        wrong += bare.wrong + res.wrong;
        table.push(vec![
            rate.into(),
            share(bare.succeeded).into(),
            share(res.succeeded).into(),
            (bare.wrong + res.wrong).into(),
            res.retries.into(),
            bare.fallbacks.into(),
            res.giveups.into(),
        ]);
    }
    report.table(
        "rates",
        "query success rate (bit-identical results) per stack",
        &[
            ("fault rate", "fault_rate", Fmt::Pct(0)),
            ("bare ok", "bare_ok", Fmt::Pct(0)),
            ("resilient ok", "resilient_ok", Fmt::Pct(0)),
            ("wrong bits", "wrong_bits", Fmt::Plain),
            ("retries (res)", "resilient_retries", Fmt::Plain),
            ("fallbacks (bare)", "bare_fallbacks", Fmt::Plain),
            ("giveups (res)", "resilient_giveups", Fmt::Plain),
        ],
        table,
    );
    report.check(
        "queries answering wrong bits",
        wrong as f64,
        Bar::Equals(0.0),
    );
    println!(
        "\nReading: 'wrong bits' must stay 0 — checksummed frames turn corruption into \
         retryable errors, never silent damage. The resilient column should hold 100% \
         while the bare column decays as the fault rate grows."
    );
    report.finish()
}
