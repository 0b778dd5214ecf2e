//! Deterministic fault injection for the ASEI.
//!
//! [`FaultInjectingChunkStore`] wraps any back-end and injects faults —
//! transient errors, latency spikes, short reads, bit-flip corruption,
//! missing chunks — according to a [`FaultPlan`]. Every decision is
//! drawn from a counter-indexed SplitMix64 stream seeded by
//! `FaultPlan::seed`, so a given `(plan, operation sequence)` always
//! produces the *same* faults: failures found in CI reproduce on a
//! laptop by re-running with the same seed.
//!
//! Two scheduling modes compose:
//!
//! * **probabilistic** — each operation of an [`OpKind`] draws a fault
//!   with `rate(kind)`, the fault's flavor chosen by `weights`;
//! * **scripted** — `fail_nth(op, n, fault)` entries force the `n`-th
//!   call (1-based) of an op kind to fail with a specific flavor,
//!   regardless of probability. Scripted entries win over dice.
//!
//! Corruption is injected *at rest* through [`RawChunkAccess`]: the
//! injector flips one bit of the stored frame, lets the back-end's own
//! CRC32 verification trip over it, and then restores the bit — the
//! model is a bit flipped in transit (bus, wire, page cache), which a
//! re-read does not see. The detection path exercised is exactly the
//! production one. Latency spikes reuse [`relstore::busy_wait`], the
//! same calibrated-delay machinery as the statement latency model.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use crate::resilient::ResilienceStats;
use crate::store::{
    Capabilities, ChunkStore, CompositeRows, IoStats, RawChunkAccess, SharedChunkRead, StorageError,
};

/// The flavors of injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// A transient back-end error ([`StorageError::Transient`]): dropped
    /// connection, server hiccup. Retrying succeeds.
    Transient,
    /// A latency spike: the operation *succeeds* after an injected
    /// busy-wait of `FaultPlan::spike`.
    LatencySpike,
    /// A short read ([`StorageError::ShortRead`]): the transfer was cut
    /// off below the promised length. Retrying succeeds.
    ShortRead,
    /// One bit of the stored frame flips before the read and is restored
    /// after it (in-transit corruption). The back-end's checksum turns
    /// this into [`StorageError::Corrupt`]; retrying succeeds.
    BitFlip,
    /// The chunk is reported absent ([`StorageError::MissingChunk`]) —
    /// a *permanent* error the retry layer must NOT retry.
    Missing,
}

impl FaultKind {
    pub const ALL: [FaultKind; 5] = [
        FaultKind::Transient,
        FaultKind::LatencySpike,
        FaultKind::ShortRead,
        FaultKind::BitFlip,
        FaultKind::Missing,
    ];

    fn index(self) -> usize {
        match self {
            FaultKind::Transient => 0,
            FaultKind::LatencySpike => 1,
            FaultKind::ShortRead => 2,
            FaultKind::BitFlip => 3,
            FaultKind::Missing => 4,
        }
    }
}

/// Coarse operation classes with independent fault rates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `get_chunk`, `get_chunks_in`, `get_chunk_range`, composite reads.
    Read,
    /// `put_chunk`.
    Write,
    /// `begin_array`, `delete_array`.
    Admin,
}

impl OpKind {
    fn index(self) -> usize {
        match self {
            OpKind::Read => 0,
            OpKind::Write => 1,
            OpKind::Admin => 2,
        }
    }
}

/// A scripted fault: force the `nth` call (1-based) of `op` to draw
/// `fault`, regardless of probabilities.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScriptedFault {
    pub op: OpKind,
    pub nth: u64,
    pub fault: FaultKind,
}

/// A reproducible fault schedule.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    /// Seed of the decision stream. Same seed + same operation sequence
    /// = same faults.
    pub seed: u64,
    /// Per-[`OpKind`] fault probability in `[0, 1]`, indexed `[read,
    /// write, admin]`.
    pub rates: [f64; 3],
    /// Relative weight of each [`FaultKind`] when a fault fires, in
    /// [`FaultKind::ALL`] order. All-zero weights disable injection.
    pub weights: [u32; 5],
    /// Busy-wait charged by a [`FaultKind::LatencySpike`].
    pub spike: Duration,
    /// Scripted per-call faults (take precedence over the dice).
    pub scripted: Vec<ScriptedFault>,
}

impl Default for FaultPlan {
    fn default() -> Self {
        FaultPlan {
            seed: 0,
            rates: [0.0; 3],
            weights: [1, 1, 1, 1, 0], // transient flavors only by default
            spike: Duration::from_micros(200),
            scripted: Vec::new(),
        }
    }
}

impl FaultPlan {
    /// A plan injecting only *transient* flavors (transient errors,
    /// latency spikes, short reads, in-transit bit flips) into reads at
    /// probability `rate`. Queries behind a retry layer must survive it
    /// bit-identically; queries without one will eventually fail.
    pub fn transient_reads(seed: u64, rate: f64) -> Self {
        FaultPlan {
            seed,
            rates: [rate, 0.0, 0.0],
            weights: [3, 1, 1, 1, 0],
            ..FaultPlan::default()
        }
    }

    /// Scripted-only plan: no dice, faults exactly where placed.
    pub fn scripted(seed: u64, scripted: Vec<ScriptedFault>) -> Self {
        FaultPlan {
            seed,
            scripted,
            ..FaultPlan::default()
        }
    }

    /// Force the `nth` call (1-based) of `op` to fail with `fault`.
    pub fn fail_nth(mut self, op: OpKind, nth: u64, fault: FaultKind) -> Self {
        self.scripted.push(ScriptedFault { op, nth, fault });
        self
    }

    /// Seed override from the environment (`SSDM_FAULT_SEED`), for the
    /// CI fault matrix: the same test binary exercises a different
    /// deterministic schedule per matrix entry.
    pub fn seed_from_env(default: u64) -> u64 {
        std::env::var("SSDM_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(default)
    }

    fn rate(&self, op: OpKind) -> f64 {
        self.rates[op.index()]
    }
}

/// Counters of what the injector actually did — `injected[k]` in
/// [`FaultKind::ALL`] order.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct FaultStats {
    /// Operations seen, per [`OpKind`], indexed `[read, write, admin]`.
    pub ops: [u64; 3],
    /// Faults injected, per [`FaultKind`] in [`FaultKind::ALL`] order.
    pub injected: [u64; 5],
}

impl FaultStats {
    pub fn total_injected(&self) -> u64 {
        self.injected.iter().sum()
    }

    pub fn injected_of(&self, kind: FaultKind) -> u64 {
        self.injected[kind.index()]
    }
}

/// SplitMix64: a tiny, high-quality, counter-indexable generator — the
/// decision for call `n` depends only on `(seed, n)`, never on how many
/// random numbers earlier calls consumed.
fn splitmix64(seed: u64, counter: u64) -> u64 {
    let mut z = seed
        .wrapping_add(counter.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A [`ChunkStore`] decorator that injects faults per a [`FaultPlan`].
///
/// The `RawChunkAccess` bound is what lets [`FaultKind::BitFlip`]
/// corrupt the *stored* representation so the back-end's own checksum
/// verification — the code path a real corruption would take — raises
/// the error.
pub struct FaultInjectingChunkStore<S: ChunkStore + RawChunkAccess> {
    inner: S,
    plan: FaultPlan,
    /// Counters behind a mutex so the shared-read paths can draw from
    /// many worker threads at once. The decision stream stays counter-
    /// indexed, so fault *totals* are schedule-independent; which
    /// concurrent operation draws which fault is scheduling-dependent.
    state: Mutex<FaultState>,
    /// Disarms injection while the injector calls back into itself
    /// (bit-flip restore paths must not draw new faults).
    disarmed: AtomicBool,
    /// Whether [`Capabilities::supports_parallel`] is advertised; off by
    /// default so existing capability-downgrade behavior is unchanged.
    parallel_ok: bool,
}

#[derive(Debug, Default)]
struct FaultState {
    /// Global operation counter (drives the decision stream).
    calls: u64,
    /// Per-[`OpKind`] call counters (drive scripted schedules).
    op_calls: [u64; 3],
    stats: FaultStats,
}

impl<S: ChunkStore + RawChunkAccess> FaultInjectingChunkStore<S> {
    pub fn new(inner: S, plan: FaultPlan) -> Self {
        FaultInjectingChunkStore {
            inner,
            plan,
            state: Mutex::new(FaultState::default()),
            disarmed: AtomicBool::new(false),
            parallel_ok: false,
        }
    }

    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    pub fn fault_stats(&self) -> FaultStats {
        self.state.lock().expect("fault state").stats
    }

    pub fn reset_fault_stats(&mut self) {
        self.state.get_mut().expect("fault state").stats = FaultStats::default();
    }

    pub fn inner(&self) -> &S {
        &self.inner
    }

    pub fn inner_mut(&mut self) -> &mut S {
        &mut self.inner
    }

    pub fn into_inner(self) -> S {
        self.inner
    }

    /// Stop injecting (keeps counters); useful to compare faulty and
    /// clean phases on one store.
    pub fn disarm(&mut self) {
        self.disarmed.store(true, Ordering::Relaxed);
    }

    pub fn arm(&mut self) {
        self.disarmed.store(false, Ordering::Relaxed);
    }

    /// Advertise [`Capabilities::supports_parallel`], letting callers
    /// route concurrent shared reads through the injector. Opt-in: the
    /// per-operation fault *schedule* then depends on thread timing
    /// (totals stay deterministic), so tests that assert exact per-call
    /// placement should leave it off.
    pub fn enable_parallel(&mut self) {
        self.parallel_ok = true;
    }

    /// Decide the fault (if any) for the current call of `op`. Returns
    /// the drawn fault and the call number (for derived draws).
    fn draw(&self, op: OpKind) -> Option<(FaultKind, u64)> {
        if self.disarmed.load(Ordering::Relaxed) {
            return None;
        }
        let mut state = self.state.lock().expect("fault state");
        state.calls += 1;
        state.op_calls[op.index()] += 1;
        state.stats.ops[op.index()] += 1;
        let calls = state.calls;
        let nth = state.op_calls[op.index()];
        drop(state);
        if let Some(s) = self
            .plan
            .scripted
            .iter()
            .find(|s| s.op == op && s.nth == nth)
        {
            return Some((s.fault, calls));
        }
        let rate = self.plan.rate(op);
        if rate <= 0.0 {
            return None;
        }
        let total: u32 = self.plan.weights.iter().sum();
        if total == 0 {
            return None;
        }
        let roll = splitmix64(self.plan.seed, calls);
        // Top 53 bits -> uniform in [0, 1).
        let u = (roll >> 11) as f64 / (1u64 << 53) as f64;
        if u >= rate {
            return None;
        }
        // Second, independent draw selects the flavor.
        let mut pick = (splitmix64(self.plan.seed ^ 0xFA17, calls) % total as u64) as u32;
        for kind in FaultKind::ALL {
            let w = self.plan.weights[kind.index()];
            if pick < w {
                return Some((kind, calls));
            }
            pick -= w;
        }
        None
    }

    fn record_injected(&self, kind: FaultKind) {
        self.state.lock().expect("fault state").stats.injected[kind.index()] += 1;
    }

    /// Apply a drawn fault to an operation touching `(array_id,
    /// chunk_id)` (a representative chunk for batched ops). Returns
    /// `None` when the operation should proceed normally (latency spike
    /// already charged, or bit already flipped at rest).
    fn pre_fault(
        &self,
        kind: FaultKind,
        array_id: u64,
        chunk_id: u64,
        calls: u64,
    ) -> Option<StorageError> {
        self.record_injected(kind);
        match kind {
            FaultKind::Transient => Some(StorageError::Transient(format!(
                "injected transient fault (call {calls})"
            ))),
            FaultKind::LatencySpike => {
                relstore::busy_wait(self.plan.spike);
                None
            }
            FaultKind::ShortRead => Some(StorageError::ShortRead {
                array_id,
                chunk_id,
                expected: 64,
                got: 17,
            }),
            FaultKind::Missing => Some(StorageError::MissingChunk { array_id, chunk_id }),
            FaultKind::BitFlip => None, // handled around the inner call
        }
    }

    /// Run a read-class operation with fault injection. `target` names a
    /// representative chunk for error attribution and bit flipping.
    fn read_op<T>(
        &mut self,
        target: (u64, u64),
        op: impl FnOnce(&mut S) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        match self.draw(OpKind::Read) {
            None => op(&mut self.inner),
            Some((FaultKind::BitFlip, calls)) => {
                self.record_injected(FaultKind::BitFlip);
                // Corrupt at rest, read through the back-end's checksum
                // path, then restore: in-transit corruption semantics.
                let bit = splitmix64(self.plan.seed ^ 0xB17F, calls) | 1;
                let flipped = self
                    .inner
                    .flip_stored_bit(target.0, target.1, bit)
                    .unwrap_or(false);
                let result = op(&mut self.inner);
                if flipped {
                    self.inner.flip_stored_bit(target.0, target.1, bit)?;
                }
                // A frame is CRC-protected end to end, so the flip must
                // surface as an error; pass whatever the back-end said.
                result
            }
            Some((kind, calls)) => match self.pre_fault(kind, target.0, target.1, calls) {
                Some(err) => Err(err),
                None => op(&mut self.inner),
            },
        }
    }

    fn plain_op<T>(
        &mut self,
        kind: OpKind,
        target: (u64, u64),
        op: impl FnOnce(&mut S) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        match self.draw(kind) {
            None | Some((FaultKind::BitFlip, _)) => op(&mut self.inner),
            Some((f, calls)) => match self.pre_fault(f, target.0, target.1, calls) {
                Some(err) => Err(err),
                None => op(&mut self.inner),
            },
        }
    }
}

impl<S: ChunkStore + RawChunkAccess + SharedChunkRead> FaultInjectingChunkStore<S> {
    /// The shared-read twin of [`Self::read_op`]. Bit flips cannot touch
    /// the at-rest representation here (that needs `&mut`), so the
    /// injector fabricates the [`StorageError::Corrupt`] the checksum
    /// would have raised for an in-transit flip — same error class, same
    /// transience, no stored state mutated, so a retry succeeds exactly
    /// as it does on the exclusive path.
    fn shared_read_op<T>(
        &self,
        target: (u64, u64),
        op: impl FnOnce(&S) -> Result<T, StorageError>,
    ) -> Result<T, StorageError> {
        match self.draw(OpKind::Read) {
            None => op(&self.inner),
            Some((FaultKind::BitFlip, _)) => {
                self.record_injected(FaultKind::BitFlip);
                Err(StorageError::Corrupt {
                    array_id: target.0,
                    chunk_id: target.1,
                    detail: "injected in-transit bit flip".into(),
                })
            }
            Some((kind, calls)) => match self.pre_fault(kind, target.0, target.1, calls) {
                Some(err) => Err(err),
                None => op(&self.inner),
            },
        }
    }
}

impl<S: ChunkStore + RawChunkAccess + SharedChunkRead> SharedChunkRead
    for FaultInjectingChunkStore<S>
{
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.shared_read_op((array_id, chunk_id), |s| s.read_chunk(array_id, chunk_id))
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let rep = chunk_ids.first().copied().unwrap_or(0);
        self.shared_read_op((array_id, rep), |s| s.read_chunks_in(array_id, chunk_ids))
    }

    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.shared_read_op((array_id, lo), |s| s.read_chunk_range(array_id, lo, hi))
    }
}

impl<S: ChunkStore + RawChunkAccess> ChunkStore for FaultInjectingChunkStore<S> {
    fn begin_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        self.plain_op(OpKind::Admin, (array_id, 0), |s| {
            s.begin_array(array_id, chunk_bytes)
        })
    }

    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.plain_op(OpKind::Write, (array_id, chunk_id), |s| {
            s.put_chunk(array_id, chunk_id, data)
        })
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.read_op((array_id, chunk_id), |s| s.get_chunk(array_id, chunk_id))
    }

    fn get_chunks_in(
        &mut self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let rep = chunk_ids.first().copied().unwrap_or(0);
        self.read_op((array_id, rep), |s| s.get_chunks_in(array_id, chunk_ids))
    }

    fn get_chunk_range(
        &mut self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.read_op((array_id, lo), |s| s.get_chunk_range(array_id, lo, hi))
    }

    fn get_composite_range(
        &mut self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<CompositeRows, StorageError> {
        self.read_op(lo, |s| s.get_composite_range(lo, hi))
    }

    fn get_composite_in(&mut self, keys: &[(u64, u64)]) -> Result<CompositeRows, StorageError> {
        let rep = keys.first().copied().unwrap_or((0, 0));
        self.read_op(rep, |s| s.get_composite_in(keys))
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.plain_op(OpKind::Admin, (array_id, 0), |s| {
            s.delete_array(array_id, chunk_count)
        })
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            // The injector's deterministic fault schedule is keyed to
            // operation order, which concurrent shared reads scramble —
            // callers take the sequential path unless the test opted in
            // via [`Self::enable_parallel`] (fault totals stay exact
            // either way; per-call placement does not).
            supports_parallel: self.parallel_ok && self.inner.capabilities().supports_parallel,
            ..self.inner.capabilities()
        }
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&mut self) {
        self.inner.reset_io_stats()
    }

    fn resilience_stats(&self) -> ResilienceStats {
        self.inner.resilience_stats()
    }

    fn shard_stats(&self) -> Option<crate::shard::ShardStats> {
        self.inner.shard_stats()
    }

    fn reset_resilience_stats(&mut self) {
        self.inner.reset_resilience_stats()
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        self.inner.sync()
    }
}

impl<S: ChunkStore + RawChunkAccess> RawChunkAccess for FaultInjectingChunkStore<S> {
    fn flip_stored_bit(
        &mut self,
        array_id: u64,
        chunk_id: u64,
        bit: u64,
    ) -> Result<bool, StorageError> {
        self.inner.flip_stored_bit(array_id, chunk_id, bit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryChunkStore;

    fn seeded_store(plan: FaultPlan) -> FaultInjectingChunkStore<MemoryChunkStore> {
        let mut inner = MemoryChunkStore::new();
        for c in 0..20u64 {
            inner.put_chunk(1, c, &[c as u8; 64]).unwrap();
        }
        FaultInjectingChunkStore::new(inner, plan)
    }

    /// Replay the same plan twice: identical fault sequences.
    #[test]
    fn schedules_are_deterministic() {
        let run = || {
            let mut s = seeded_store(FaultPlan::transient_reads(42, 0.35));
            (0..60u64)
                .map(|i| s.get_chunk(1, i % 20).is_ok())
                .collect::<Vec<bool>>()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(a.iter().any(|ok| !ok), "some fault fired at 35%");
        assert!(a.iter().any(|ok| *ok), "not everything fails at 35%");
    }

    #[test]
    fn different_seeds_differ() {
        let run = |seed| {
            let mut s = seeded_store(FaultPlan::transient_reads(seed, 0.35));
            (0..60u64)
                .map(|i| s.get_chunk(1, i % 20).is_ok())
                .collect::<Vec<bool>>()
        };
        assert_ne!(run(1), run(2));
    }

    #[test]
    fn zero_rate_injects_nothing() {
        let mut s = seeded_store(FaultPlan::transient_reads(7, 0.0));
        for i in 0..50u64 {
            s.get_chunk(1, i % 20).unwrap();
        }
        assert_eq!(s.fault_stats().total_injected(), 0);
        assert_eq!(s.fault_stats().ops[OpKind::Read.index()], 50);
    }

    #[test]
    fn scripted_faults_hit_exact_calls() {
        let plan = FaultPlan::scripted(0, vec![])
            .fail_nth(OpKind::Read, 2, FaultKind::Transient)
            .fail_nth(OpKind::Read, 4, FaultKind::Missing);
        let mut s = seeded_store(plan);
        assert!(s.get_chunk(1, 0).is_ok());
        assert!(matches!(s.get_chunk(1, 0), Err(StorageError::Transient(_))));
        assert!(s.get_chunk(1, 0).is_ok());
        assert!(matches!(
            s.get_chunk(1, 1),
            Err(StorageError::MissingChunk {
                array_id: 1,
                chunk_id: 1
            })
        ));
        assert!(s.get_chunk(1, 0).is_ok());
        assert_eq!(s.fault_stats().total_injected(), 2);
    }

    #[test]
    fn bit_flip_is_detected_and_transient() {
        let plan = FaultPlan::scripted(9, vec![]).fail_nth(OpKind::Read, 1, FaultKind::BitFlip);
        let mut s = seeded_store(plan);
        let err = s.get_chunk(1, 3).unwrap_err();
        assert!(
            matches!(err, StorageError::Corrupt { .. }),
            "checksum must catch the injected flip, got: {err}"
        );
        assert!(err.is_transient());
        // The flip was restored: the next read sees pristine data.
        assert_eq!(s.get_chunk(1, 3).unwrap(), vec![3u8; 64]);
    }

    #[test]
    fn short_read_and_spike_flavors() {
        let plan = FaultPlan::scripted(0, vec![])
            .fail_nth(OpKind::Read, 1, FaultKind::ShortRead)
            .fail_nth(OpKind::Read, 2, FaultKind::LatencySpike);
        let mut s = seeded_store(plan);
        assert!(matches!(
            s.get_chunk(1, 0),
            Err(StorageError::ShortRead { .. })
        ));
        // Spike: slow but successful.
        assert_eq!(s.get_chunk(1, 0).unwrap(), vec![0u8; 64]);
        assert_eq!(s.fault_stats().injected_of(FaultKind::LatencySpike), 1);
    }

    #[test]
    fn batched_reads_draw_one_decision_per_statement() {
        let plan = FaultPlan::scripted(0, vec![]).fail_nth(OpKind::Read, 1, FaultKind::Transient);
        let mut s = seeded_store(plan);
        assert!(s.get_chunks_in(1, &[0, 1, 2, 3]).is_err());
        assert_eq!(s.get_chunks_in(1, &[0, 1, 2, 3]).unwrap().len(), 4);
        assert_eq!(s.fault_stats().ops[OpKind::Read.index()], 2);
    }

    #[test]
    fn observed_rate_tracks_plan_rate() {
        let mut s = seeded_store(FaultPlan::transient_reads(1234, 0.10));
        let mut failures = 0;
        for i in 0..2000u64 {
            match s.get_chunk(1, i % 20) {
                Ok(_) => {}
                Err(e) => {
                    assert!(e.is_transient());
                    failures += 1;
                }
            }
        }
        let injected = s.fault_stats().total_injected();
        assert!(
            (120..=280).contains(&injected),
            "10% of 2000 ops ±: {injected}"
        );
        // Latency spikes succeed, so failures <= injections.
        assert!(failures <= injected);
    }

    #[test]
    fn seed_from_env_parses_and_defaults() {
        // NB: avoid set_var races by only reading here.
        let seed = FaultPlan::seed_from_env(77);
        let expected = std::env::var("SSDM_FAULT_SEED")
            .ok()
            .and_then(|s| s.trim().parse().ok())
            .unwrap_or(77);
        assert_eq!(seed, expected);
    }
}
