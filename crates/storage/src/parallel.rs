//! The parallel chunk-retrieval pipeline.
//!
//! The APR fetch plan is a list of independent back-end statements
//! ([`FetchOp`]s over one array's chunk ids) — one per chunk under
//! `Single`, one per batch under `BufferedIn`, one per detected run
//! under `SpdRange`, plus, for a bag of proxies on the exclusive lane,
//! composite-key statements that cross arrays. Sequential APR
//! executes them one at a time, so total latency is the *sum* of the
//! round trips. This module partitions the plan across a scoped worker
//! pool over the [`SharedChunkRead`] contract, so round trips (and the
//! CRC32 frame verification of their results, which happens on each
//! worker) overlap; the assembled result is **bit-identical** to the
//! sequential path and the back-end's [`IoStats`](crate::IoStats)
//! accounting stays exact, because exactly the same statements execute —
//! just concurrently.
//!
//! Sequential APR runs the same statements through the same code
//! ([`Lane::exclusive`]), so the per-op fallback contract is one piece
//! of code for both: a failed *batched* statement degrades to per-chunk
//! retrieval of the needed keys it covered, inside the worker that
//! claimed it. Errors that survive the fallback are reported
//! deterministically — the failing op earliest in plan order wins,
//! regardless of worker timing.
//!
//! Back-ends opt in via [`Capabilities::supports_parallel`]
//! (austere or fault-injecting stacks leave it unset and callers
//! degrade to sequential resolution).
//!
//! [`Capabilities::supports_parallel`]: crate::Capabilities::supports_parallel

use std::ops::RangeInclusive;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

use ssdm_array::pool;
use ssdm_obs as obs;

use crate::spd::FetchOp;
use crate::store::{ChunkRows, ChunkStore, CompositeRows, SharedChunkRead};
use crate::Result;

/// Process-wide count of batched statements that degraded to per-chunk
/// fallback retrieval (all parallel fetch pipelines).
fn obs_apr_fallbacks() -> &'static Arc<obs::Counter> {
    static C: OnceLock<Arc<obs::Counter>> = OnceLock::new();
    C.get_or_init(|| obs::recorder().counter("ssdm_apr_fallbacks"))
}

/// Tuning for parallel resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParallelConfig {
    /// Worker threads to partition the fetch plan across. `0` or `1`
    /// selects the sequential path.
    pub workers: usize,
}

impl Default for ParallelConfig {
    fn default() -> Self {
        ParallelConfig { workers: 4 }
    }
}

impl ParallelConfig {
    pub fn with_workers(workers: usize) -> Self {
        ParallelConfig { workers }
    }
}

/// Execute every op of `plan` against `backend`, partitioned across at
/// most `workers` scoped threads. Returns the fetched rows *per op, in
/// plan order* plus the number of batched-statement fallbacks taken.
///
/// Workers claim ops from a shared cursor (work stealing by exhaustion,
/// so a slow range statement does not idle the pool), execute them
/// through the `&self` read contract, and deposit results into the
/// op's slot; assembly then walks the slots in plan order, which makes
/// both the row order and the choice of reported error independent of
/// thread scheduling.
pub fn fetch_plan<S: SharedChunkRead + ?Sized>(
    backend: &S,
    array_id: u64,
    plan: &[FetchOp],
    needed: &[u64],
    workers: usize,
) -> Result<(Vec<ChunkRows>, u64)> {
    let plan: Vec<KeyOp> = plan
        .iter()
        .map(|op| KeyOp::Array(array_id, op.clone()))
        .collect();
    let needed: Vec<(u64, u64)> = needed.iter().map(|&c| (array_id, c)).collect();
    run_plan(backend, &plan, &needed, workers, |rows| {
        Ok(rows.into_iter().map(|((_, c), d)| (c, d)).collect())
    })
}

/// The generalized pipeline under [`fetch_plan`]: each claimed op's
/// rows are handed to `process` *inside the worker that fetched them*,
/// so per-chunk work (CRC verification, decoding, partial aggregate
/// folds — see `ArrayStore::run`) overlaps the
/// round trips of the other ops and the payloads can be dropped without
/// ever being assembled centrally. Results return per op in plan order,
/// and the earliest op's error (fetch or process) wins
/// deterministically.
fn run_plan<S, T, F>(
    backend: &S,
    plan: &[KeyOp],
    needed: &[(u64, u64)],
    workers: usize,
    process: F,
) -> Result<(Vec<T>, u64)>
where
    S: SharedChunkRead + ?Sized,
    T: Send,
    F: Fn(CompositeRows) -> Result<T> + Sync,
{
    let fallbacks = AtomicU64::new(0);
    let results = scatter_gather(workers, plan, |_, op| {
        let rows = execute_op(op, needed, &fallbacks, |statement| match statement {
            Statement::One(a, c) => backend.read_chunk(a, c).map(|d| vec![((a, c), d)]),
            Statement::In(a, ids) => keyed(a, backend.read_chunks_in(a, ids)),
            Statement::Range(a, lo, hi) => keyed(a, backend.read_chunk_range(a, lo, hi)),
            Statement::CompositeRange(..) | Statement::CompositeIn(_) => {
                unreachable!("composite statements are planned for the exclusive lane only")
            }
        })?;
        process(rows)
    });
    let mut out = Vec::with_capacity(plan.len());
    for r in results {
        // Plan-order iteration: the earliest failing op's error is the
        // one reported, matching what sequential execution would hit
        // first.
        out.push(r?);
    }
    Ok((out, fallbacks.load(Ordering::Relaxed)))
}

/// The scatter-gather engine under [`fetch_plan`], generalized from "N
/// workers over one backend's fetch plan" to any job list — the sharded
/// store ([`crate::ShardedChunkStore`]) reuses it to run "N workers
/// over N shards". Workers claim jobs from a shared cursor and deposit
/// each result into that job's slot; the returned vector is in **job
/// order**, so callers that iterate it report errors deterministically
/// regardless of worker timing.
pub fn scatter_gather<J, T, E>(workers: usize, jobs: &[J], execute: E) -> Vec<Result<T>>
where
    J: Sync,
    T: Send,
    E: Fn(usize, &J) -> Result<T> + Sync,
{
    if jobs.is_empty() {
        return Vec::new();
    }
    let workers = workers.clamp(1, jobs.len());
    let slots: Vec<Mutex<Option<Result<T>>>> = jobs.iter().map(|_| Mutex::new(None)).collect();
    pool::dispatch(workers, jobs.len(), |i| {
        let r = execute(i, &jobs[i]);
        *slots[i].lock().expect("result slot") = Some(r);
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("result slot")
                .expect("job claimed")
        })
        .collect()
}

/// One statement of a resolution's plan: a [`FetchOp`] over one
/// array's chunk ids, or a statement over `(array, chunk)` keys that
/// crosses arrays — the clustered-table scans behind bag resolution
/// (thesis §6.2.4), planned only for the exclusive lane, since
/// [`SharedChunkRead`] has no composite reads.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum KeyOp {
    Array(u64, FetchOp),
    CompositeRange((u64, u64), (u64, u64)),
    CompositeIn(Vec<(u64, u64)>),
}

/// One back-end statement, over either read contract.
enum Statement<'a> {
    One(u64, u64),
    In(u64, &'a [u64]),
    Range(u64, u64, u64),
    CompositeRange((u64, u64), (u64, u64)),
    CompositeIn(&'a [(u64, u64)]),
}

/// Tag one array's rows with the array id.
fn keyed(array_id: u64, rows: Result<ChunkRows>) -> Result<CompositeRows> {
    Ok(rows?.into_iter().map(|(c, d)| ((array_id, c), d)).collect())
}

/// Execute one fetch op through `issue`; when a *batched* statement
/// (`IN`-list of several keys, or a range) fails, degrade to per-chunk
/// retrieval of the `needed` keys it covered instead of aborting the
/// whole resolution. A corrupt or unavailable chunk that was only
/// *overfetched* by a covering range thus cannot sink a query that
/// never needed it.
fn execute_op(
    op: &KeyOp,
    needed: &[(u64, u64)],
    fallbacks: &AtomicU64,
    mut issue: impl FnMut(Statement<'_>) -> Result<CompositeRows>,
) -> Result<CompositeRows> {
    let _span = ssdm_obs::Span::start(crate::apr::obs_chunk_fetch_hist());
    let direct = match op {
        KeyOp::Array(a, FetchOp::In(ids)) if ids.len() == 1 => {
            return issue(Statement::One(*a, ids[0]));
        }
        KeyOp::Array(a, FetchOp::In(ids)) => issue(Statement::In(*a, ids)),
        KeyOp::Array(a, FetchOp::Range { lo, hi }) => issue(Statement::Range(*a, *lo, *hi)),
        KeyOp::CompositeRange(lo, hi) => issue(Statement::CompositeRange(*lo, *hi)),
        KeyOp::CompositeIn(keys) => issue(Statement::CompositeIn(keys)),
    };
    direct.or_else(|_| {
        fallbacks.fetch_add(1, Ordering::Relaxed);
        if obs::recorder().enabled() {
            obs_apr_fallbacks().add(1);
        }
        let within = |span: RangeInclusive<(u64, u64)>| -> Vec<(u64, u64)> {
            needed
                .iter()
                .copied()
                .filter(|k| span.contains(k))
                .collect()
        };
        let keys = match op {
            KeyOp::Array(a, FetchOp::In(ids)) => ids.iter().map(|&c| (*a, c)).collect(),
            KeyOp::Array(a, FetchOp::Range { lo, hi }) => within((*a, *lo)..=(*a, *hi)),
            KeyOp::CompositeRange(lo, hi) => within(*lo..=*hi),
            KeyOp::CompositeIn(keys) => keys.clone(),
        };
        let mut out = Vec::with_capacity(keys.len());
        for (a, c) in keys {
            out.extend(issue(Statement::One(a, c))?);
        }
        Ok(out)
    })
}

/// The statements of one resolution, as the lanes execute them.
pub(crate) struct Job<'a> {
    pub plan: &'a [KeyOp],
    /// Every key the resolution reads, ascending.
    pub needed: &'a [(u64, u64)],
    /// Set (by `process`) once a membership probe has its answer.
    pub done: &'a AtomicBool,
}

/// What becomes of one statement's rows, inside the worker that fetched
/// them.
pub(crate) type Process<'a, T> = dyn Fn(CompositeRows) -> Result<T> + Sync + 'a;

/// `process`'s outputs per op in plan order, and the number of batched
/// statements that fell back to per-chunk retrieval.
type PlanOutput<T> = Result<(Vec<T>, u64)>;

/// How a resolution's statements execute: one after the other through
/// the exclusive (`&mut`) back-end contract, or partitioned across a
/// worker pool through the shared one (as [`fetch_plan`]). Both run the same
/// statements with the same fallback.
pub(crate) struct Lane<S, T> {
    workers: usize,
    run: fn(&mut S, usize, &Job<'_>, &Process<'_, T>) -> PlanOutput<T>,
}

impl<S: ChunkStore, T: Send> Lane<S, T> {
    /// For back-ends that only offer the exclusive contract, or when
    /// one worker is asked for. Unlike the pool it can stop early: no
    /// further statement is issued once `done` is set.
    pub(crate) fn exclusive() -> Self {
        Lane {
            workers: 1,
            run: run_plan_exclusive,
        }
    }

    pub(crate) fn shared(workers: usize) -> Self
    where
        S: SharedChunkRead,
    {
        Lane {
            workers,
            run: |backend, workers, job, process| {
                run_plan(&*backend, job.plan, job.needed, workers, process)
            },
        }
    }

    /// Whether `process` runs inside pool workers.
    pub(crate) fn is_shared(&self) -> bool {
        self.workers > 1
    }

    pub(crate) fn run(
        &self,
        backend: &mut S,
        job: &Job<'_>,
        process: &Process<'_, T>,
    ) -> PlanOutput<T> {
        (self.run)(backend, self.workers, job, process)
    }
}

/// [`run_plan`] for the exclusive contract: the same statements and
/// fallback, one op after the other on the calling thread.
fn run_plan_exclusive<S: ChunkStore, T>(
    backend: &mut S,
    _workers: usize,
    job: &Job<'_>,
    process: &Process<'_, T>,
) -> PlanOutput<T> {
    let fallbacks = AtomicU64::new(0);
    let mut out = Vec::with_capacity(job.plan.len());
    for op in job.plan {
        if job.done.load(Ordering::Relaxed) {
            break;
        }
        let rows = execute_op(op, job.needed, &fallbacks, |statement| match statement {
            Statement::One(a, c) => backend.get_chunk(a, c).map(|d| vec![((a, c), d)]),
            Statement::In(a, ids) => keyed(a, backend.get_chunks_in(a, ids)),
            Statement::Range(a, lo, hi) => keyed(a, backend.get_chunk_range(a, lo, hi)),
            Statement::CompositeRange(lo, hi) => backend.get_composite_range(lo, hi),
            Statement::CompositeIn(keys) => backend.get_composite_in(keys),
        })?;
        out.push(process(rows)?);
    }
    Ok((out, fallbacks.into_inner()))
}

// An explicit sanity check that the trait object is usable across
// threads the way the scoped pool requires.
const _: fn() = || {
    fn assert_shared<T: Send + Sync + ?Sized>() {}
    assert_shared::<dyn SharedChunkRead>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryChunkStore, StorageError};

    fn seeded_store(chunks: u64) -> MemoryChunkStore {
        let mut s = MemoryChunkStore::new();
        for c in 0..chunks {
            use crate::ChunkStore;
            s.put_chunk(1, c, &[c as u8; 16]).unwrap();
        }
        s
    }

    #[test]
    fn parallel_matches_sequential_rows() {
        let s = seeded_store(32);
        let plan: Vec<FetchOp> = (0..32).map(|c| FetchOp::In(vec![c])).collect();
        let needed: Vec<u64> = (0..32).collect();
        for workers in [1, 2, 4, 8] {
            let (rows, fb) = fetch_plan(&s, 1, &plan, &needed, workers).unwrap();
            assert_eq!(fb, 0);
            assert_eq!(rows.len(), 32);
            for (i, r) in rows.iter().enumerate() {
                assert_eq!(r.as_slice(), &[(i as u64, vec![i as u8; 16])]);
            }
        }
    }

    #[test]
    fn io_stats_stay_exact_under_concurrency() {
        use crate::ChunkStore;
        let s = seeded_store(64);
        let plan: Vec<FetchOp> = (0..64).map(|c| FetchOp::In(vec![c])).collect();
        let needed: Vec<u64> = (0..64).collect();
        fetch_plan(&s, 1, &plan, &needed, 8).unwrap();
        let st = s.io_stats();
        assert_eq!(st.statements, 64);
        assert_eq!(st.chunks_returned, 64);
    }

    #[test]
    fn earliest_op_error_wins() {
        let s = seeded_store(8);
        // Ops 3 and 6 reference a missing chunk; whichever worker hits
        // them, the reported error must be op 3's.
        let plan: Vec<FetchOp> = (0..8)
            .map(|c| FetchOp::In(vec![if c == 3 || c == 6 { 100 + c } else { c }]))
            .collect();
        let needed: Vec<u64> = (0..8).collect();
        for _ in 0..16 {
            let err = fetch_plan(&s, 1, &plan, &needed, 4).unwrap_err();
            match err {
                StorageError::MissingChunk { chunk_id, .. } => assert_eq!(chunk_id, 103),
                other => panic!("unexpected error {other:?}"),
            }
        }
    }

    #[test]
    fn empty_plan_is_fine() {
        let s = seeded_store(1);
        let (rows, fb) = fetch_plan(&s, 1, &[], &[], 4).unwrap();
        assert!(rows.is_empty());
        assert_eq!(fb, 0);
    }
}
