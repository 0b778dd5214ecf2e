//! Fault-tolerance scenario: query success rate vs injected fault rate.
//!
//! Runs the mini-benchmark's access patterns against an in-memory
//! back-end wrapped in a deterministic `FaultInjectingChunkStore`, once
//! per fault rate. The only defence is the APR's per-chunk fallback: a
//! failed batched statement is re-read chunk by chunk, and a failed
//! per-chunk read sinks its query. A query counts as a success only if
//! it returns *and* its elements are bit-identical to the fault-free
//! baseline.
//!
//! Expected shape: the success rate decays as the fault rate grows,
//! and the fallback count shows how many batched statements the
//! fallback absorbed. Checked: no query returns wrong bits.
//! `SSDM_FAULT_SEED` overrides the plan seed.

use std::process::ExitCode;

use ssdm_bench::workload::{AccessPattern, QueryGenerator};
use ssdm_bench::{Args, Bar, Fmt, Report};
use ssdm_storage::spd::SpdOptions;
use ssdm_storage::{
    ArrayStore, ChunkStore, FaultInjectingChunkStore, FaultPlan, MemoryChunkStore, Request,
    RetrievalStrategy,
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
    fallbacks: u64,
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
        out.fallbacks += store.last_stats().fallbacks;
    }
    assert_eq!(
        expected.len(),
        QUERIES,
        "the fault-free baseline answers all"
    );
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
        let faulty = FaultInjectingChunkStore::new(MemoryChunkStore::new(), plan);
        let bare = run(&mut ArrayStore::new(faulty), &mut expected);
        wrong += bare.wrong;
        table.push(vec![
            rate.into(),
            (bare.succeeded as f64 / QUERIES as f64).into(),
            bare.wrong.into(),
            bare.fallbacks.into(),
        ]);
    }
    report.table(
        "rates",
        "query success rate (bit-identical results)",
        &[
            ("fault rate", "fault_rate", Fmt::Pct(0)),
            ("bare ok", "bare_ok", Fmt::Pct(0)),
            ("wrong bits", "wrong_bits", Fmt::Plain),
            ("fallbacks (bare)", "bare_fallbacks", Fmt::Plain),
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
         typed errors, never silent damage. The success rate decays as the fault rate \
         grows; the fallbacks are the batched statements the APR re-read chunk by chunk."
    );
    report.finish()
}
