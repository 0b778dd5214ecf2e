//! In-memory span recorder, the [`TimedStore`] chunk-store wrapper that
//! puts storage spans under a request's execute span, self-time
//! analysis, and the `trace.json` writer.
//!
//! Every span is taken from outside the program: around a call into one
//! of its public functions. Spans stay in memory until the traced pass
//! ends.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

use ssdm_storage::cache::CacheStats;
use ssdm_storage::codec;
use ssdm_storage::{Capabilities, ChunkStore, IoStats, SharedChunkRead, StorageError};

/// One finished span. `parent == 0` marks a request's root span.
#[derive(Debug, Clone)]
pub struct SpanRec {
    pub id: u64,
    pub parent: u64,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Collects spans from every thread of a traced pass.
pub struct Recorder {
    epoch: Instant,
    enabled: AtomicBool,
    next_id: AtomicU64,
    spans: Mutex<Vec<SpanRec>>,
}

thread_local! {
    /// The span (and its request) that store calls made on this thread
    /// belong under; `(0, 0)` when the thread has none.
    static CURRENT: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
    /// Finished spans of a thread inside [`Recorder::buffered`]. Taking
    /// the shared list's lock per span would cost each request a dozen
    /// microseconds that no span covers.
    static LOCAL: RefCell<Option<Vec<SpanRec>>> = const { RefCell::new(None) };
    /// Span ids this thread may still hand out: `(next, end)`. Ids come
    /// from the shared counter a block at a time for the same reason.
    static IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

impl Recorder {
    pub fn new() -> Arc<Recorder> {
        Arc::new(Recorder {
            epoch: Instant::now(),
            enabled: AtomicBool::new(false),
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        })
    }

    /// Store wrappers record only while enabled; explicit
    /// [`Recorder::span`] calls always record.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::SeqCst);
    }

    fn enabled(&self) -> bool {
        self.enabled.load(Ordering::SeqCst)
    }

    /// Run `f` inside a span named `name` under `parent`, on behalf of
    /// request `req`; `f` receives the new span's id. Store calls `f`
    /// makes on this thread nest under the span.
    pub fn span<R>(
        &self,
        name: &'static str,
        parent: u64,
        req: u64,
        f: impl FnOnce(u64) -> R,
    ) -> R {
        let id = self.next_id();
        let outer = CURRENT.replace((id, req));
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        let out = f(id);
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        CURRENT.set(outer);
        let span = SpanRec {
            id,
            parent,
            req,
            name,
            start_ns,
            end_ns,
        };
        let unbuffered = LOCAL.with_borrow_mut(|local| match local {
            Some(buffer) => {
                buffer.push(span);
                None
            }
            None => Some(span),
        });
        // A pool thread the program started: straight to the shared list.
        if let Some(span) = unbuffered {
            self.shared().push(span);
        }
        out
    }

    fn next_id(&self) -> u64 {
        const BLOCK: u64 = 1 << 16;
        let (mut next, mut end) = IDS.get();
        if next == end {
            next = self.next_id.fetch_add(BLOCK, Ordering::Relaxed);
            end = next + BLOCK;
        }
        IDS.set((next + 1, end));
        next
    }

    /// Run `f` with this thread's spans collected in a thread-local
    /// buffer, handed over when `f` returns.
    pub fn buffered<R>(&self, f: impl FnOnce() -> R) -> R {
        LOCAL.set(Some(Vec::new()));
        let out = f();
        let buffer = LOCAL.take().expect("set above");
        self.shared().extend(buffer);
        out
    }

    fn shared(&self) -> std::sync::MutexGuard<'_, Vec<SpanRec>> {
        self.spans
            .lock()
            .expect("no thread panics while holding the span list")
    }

    pub fn take(&self) -> Vec<SpanRec> {
        std::mem::take(&mut *self.shared())
    }
}

/// Which span the store calls of one engine belong under when they run
/// on a pool thread that has no [`CURRENT`] of its own. An engine runs
/// one statement at a time (its mutex), so one slot per engine is
/// enough; the replay sets it before each `Ssdm::query`.
#[derive(Default)]
pub struct Scope {
    span: AtomicU64,
    req: AtomicU64,
}

impl Scope {
    pub fn set(&self, span: u64, req: u64) {
        self.span.store(span, Ordering::SeqCst);
        self.req.store(req, Ordering::SeqCst);
    }
}

/// What re-decoding the frames the outer store returned cost and
/// produced: the codec layer's time, taken outside the program.
#[derive(Default)]
pub struct DecodeProbe {
    pub ns: AtomicU64,
    pub stored_bytes: AtomicU64,
    pub decoded_bytes: AtomicU64,
}

/// Span name of the probe's own time, so it counts as tracing overhead
/// and not as a layer's self time.
pub const DECODE_PROBE: &str = "trace.decode_probe";

/// The recording half of a [`TimedStore`], a field of its own so a
/// `&mut` call into the wrapped store can run inside its span.
struct Tap {
    name: &'static str,
    rec: Arc<Recorder>,
    scope: Arc<Scope>,
    probe: Option<Arc<DecodeProbe>>,
}

/// Visits every stored frame of a read's result.
type Frames<R> = fn(&R, &mut dyn FnMut(&[u8]));

// `&Vec` because the function has to match `Frames<Vec<u8>>`.
#[allow(clippy::ptr_arg)]
fn one(frame: &Vec<u8>, visit: &mut dyn FnMut(&[u8])) {
    visit(frame);
}

#[allow(clippy::ptr_arg)]
fn keyed<K>(rows: &Vec<(K, Vec<u8>)>, visit: &mut dyn FnMut(&[u8])) {
    for (_, frame) in rows {
        visit(frame);
    }
}

impl Tap {
    fn timed<R>(
        &self,
        call: impl FnOnce() -> Result<R, StorageError>,
        frames: Frames<R>,
    ) -> Result<R, StorageError> {
        if !self.rec.enabled() {
            return call();
        }
        let (mut parent, mut req) = CURRENT.get();
        if parent == 0 {
            parent = self.scope.span.load(Ordering::SeqCst);
            req = self.scope.req.load(Ordering::SeqCst);
        }
        let out = self.rec.span(self.name, parent, req, |_| call())?;
        if let Some(probe) = &self.probe {
            self.rec.span(DECODE_PROBE, parent, req, |_| {
                frames(&out, &mut |frame| {
                    let start = Instant::now();
                    let decoded = codec::decode_chunk(std::hint::black_box(frame));
                    let ns = start.elapsed().as_nanos() as u64;
                    if let Ok(raw) = decoded {
                        probe.ns.fetch_add(ns, Ordering::Relaxed);
                        probe
                            .stored_bytes
                            .fetch_add(frame.len() as u64, Ordering::Relaxed);
                        probe
                            .decoded_bytes
                            .fetch_add(std::hint::black_box(raw).len() as u64, Ordering::Relaxed);
                    }
                });
            });
        }
        Ok(out)
    }
}

/// A `ChunkStore + SharedChunkRead` wrapper recording one span per
/// read statement. While its recorder is disabled it only delegates.
pub struct TimedStore<S> {
    inner: S,
    tap: Tap,
    #[allow(clippy::type_complexity)]
    sync_tap: Option<Box<dyn FnMut(&mut S) + Send + Sync>>,
}

impl<S> TimedStore<S> {
    pub fn new(inner: S, name: &'static str, rec: Arc<Recorder>, scope: Arc<Scope>) -> Self {
        TimedStore {
            inner,
            tap: Tap {
                name,
                rec,
                scope,
                probe: None,
            },
            sync_tap: None,
        }
    }

    /// Re-decode every returned frame after its span closes, adding
    /// time and byte counts to `probe`.
    pub fn with_decode_probe(mut self, probe: Arc<DecodeProbe>) -> Self {
        self.tap.probe = Some(probe);
        self
    }

    /// Run `tap` on the wrapped store whenever `sync` is called: the one
    /// `&mut` call that reaches through the dataset's boxed back-end, so
    /// the benchmark can read counters only the concrete store has.
    pub fn with_sync_tap(mut self, tap: impl FnMut(&mut S) + Send + Sync + 'static) -> Self {
        self.sync_tap = Some(Box::new(tap));
        self
    }
}

impl<S: ChunkStore> ChunkStore for TimedStore<S> {
    fn begin_array(&mut self, array_id: u64, chunk_bytes: usize) -> Result<(), StorageError> {
        self.inner.begin_array(array_id, chunk_bytes)
    }

    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put_chunk(array_id, chunk_id, data)
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        let inner = &mut self.inner;
        self.tap.timed(|| inner.get_chunk(array_id, chunk_id), one)
    }

    fn get_chunks_in(
        &mut self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let inner = &mut self.inner;
        self.tap
            .timed(|| inner.get_chunks_in(array_id, chunk_ids), keyed)
    }

    fn get_chunk_range(
        &mut self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        let inner = &mut self.inner;
        self.tap
            .timed(|| inner.get_chunk_range(array_id, lo, hi), keyed)
    }

    fn get_composite_range(
        &mut self,
        lo: (u64, u64),
        hi: (u64, u64),
    ) -> Result<Vec<((u64, u64), Vec<u8>)>, StorageError> {
        let inner = &mut self.inner;
        self.tap.timed(|| inner.get_composite_range(lo, hi), keyed)
    }

    fn get_composite_in(
        &mut self,
        keys: &[(u64, u64)],
    ) -> Result<Vec<((u64, u64), Vec<u8>)>, StorageError> {
        let inner = &mut self.inner;
        self.tap.timed(|| inner.get_composite_in(keys), keyed)
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.inner.delete_array(array_id, chunk_count)
    }

    fn capabilities(&self) -> Capabilities {
        self.inner.capabilities()
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&mut self) {
        self.inner.reset_io_stats();
    }

    fn cache_stats(&self) -> CacheStats {
        self.inner.cache_stats()
    }

    fn reset_cache_stats(&mut self) {
        self.inner.reset_cache_stats();
    }

    fn sync(&mut self) -> Result<(), StorageError> {
        if let Some(tap) = self.sync_tap.as_mut() {
            tap(&mut self.inner);
        }
        self.inner.sync()
    }
}

impl<S: SharedChunkRead> SharedChunkRead for TimedStore<S> {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.tap
            .timed(|| self.inner.read_chunk(array_id, chunk_id), one)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.tap
            .timed(|| self.inner.read_chunks_in(array_id, chunk_ids), keyed)
    }

    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.tap
            .timed(|| self.inner.read_chunk_range(array_id, lo, hi), keyed)
    }
}

// ---------------------------------------------------------------------
// Analysis
// ---------------------------------------------------------------------

/// Per span name: how many spans, their summed duration, and their
/// summed self time (duration minus the part child spans cover).
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Span name of a request's root.
pub const ROOT: &str = "request";

pub struct Analysis {
    pub by_name: HashMap<&'static str, NameTotals>,
    /// Per request: the share of its wall time no child span covers.
    unattributed: Vec<f64>,
}

impl Analysis {
    pub fn of(spans: &[SpanRec]) -> Analysis {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for s in spans.iter().filter(|s| s.parent != 0) {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.end_ns));
        }
        let mut by_name: HashMap<&'static str, NameTotals> = HashMap::new();
        let mut unattributed = Vec::new();
        for s in spans {
            let covered = children
                .get_mut(&s.id)
                .map_or(0, |kids| covered_ns(kids, s.start_ns, s.end_ns));
            let total = s.end_ns - s.start_ns;
            let t = by_name.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += total;
            t.self_ns += total - covered;
            if s.name == ROOT && total > 0 {
                unattributed.push((total - covered) as f64 / total as f64);
            }
        }
        Analysis {
            by_name,
            unattributed,
        }
    }

    pub fn get(&self, name: &str) -> NameTotals {
        self.by_name.get(name).copied().unwrap_or_default()
    }

    /// Share of a request's wall time no child span covers, in the
    /// median request: over all requests pooled, one replay thread
    /// descheduled between two spans for a scheduler tick would add
    /// several points on a workload whose requests take 15 µs.
    pub fn unattributed_share(&self) -> f64 {
        crate::stats::median(&mut self.unattributed.clone()).unwrap_or(0.0)
    }
}

/// Length of the union of `intervals`, clipped to `[lo, hi]`. Children
/// of one span overlap when pool threads fetch in parallel.
fn covered_ns(intervals: &mut [(u64, u64)], lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let mut covered = 0;
    let mut reach = lo;
    for &(start, end) in intervals.iter() {
        let start = start.max(reach);
        let end = end.min(hi);
        if end > start {
            covered += end - start;
            reach = end;
        }
    }
    covered
}

/// Write every span to `path` as one JSON document.
pub fn write_trace_json(path: &Path, workload: &str, spans: &[SpanRec]) -> std::io::Result<()> {
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    writeln!(out, "{{\"workload\": \"{workload}\", \"spans\": [")?;
    for (i, s) in spans.iter().enumerate() {
        let comma = if i + 1 == spans.len() { "" } else { "," };
        writeln!(
            out,
            "{{\"id\": {}, \"parent\": {}, \"req\": {}, \"name\": \"{}\", \
             \"start_ns\": {}, \"end_ns\": {}}}{comma}",
            s.id, s.parent, s.req, s.name, s.start_ns, s.end_ns
        )?;
    }
    writeln!(out, "]}}")?;
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_storage::MemoryChunkStore;

    fn span(id: u64, parent: u64, name: &'static str, start_ns: u64, end_ns: u64) -> SpanRec {
        SpanRec {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = [
            span(1, 0, ROOT, 0, 100),
            span(2, 1, "a", 10, 40),
            // Two overlapping children of `a`: union is [15, 35].
            span(3, 2, "store", 15, 30),
            span(4, 2, "store", 20, 35),
            span(5, 1, "b", 50, 90),
        ];
        let a = Analysis::of(&spans);
        assert_eq!(a.get(ROOT).self_ns, 100 - 30 - 40);
        assert_eq!(a.get("a").self_ns, 30 - 20);
        assert_eq!(
            a.get("store"),
            NameTotals {
                count: 2,
                total_ns: 30,
                self_ns: 30
            }
        );
        assert!((a.unattributed_share() - 0.30).abs() < 1e-12);

        // One request in three was descheduled between two spans: the
        // median request's share stands.
        let mut spans = spans.to_vec();
        spans.extend([
            span(6, 0, ROOT, 200, 300),
            span(7, 6, "a", 200, 270),
            span(8, 0, ROOT, 300, 10_000),
            span(9, 8, "a", 300, 370),
        ]);
        assert!((Analysis::of(&spans).unattributed_share() - 0.30).abs() < 1e-12);
    }

    #[test]
    fn timed_store_nests_its_spans_and_is_silent_when_disabled() {
        let rec = Recorder::new();
        let scope = Arc::new(Scope::default());
        let probe = Arc::new(DecodeProbe::default());
        let inner = TimedStore::new(
            MemoryChunkStore::new(),
            "store.mem",
            Arc::clone(&rec),
            Arc::clone(&scope),
        );
        let mut outer = TimedStore::new(inner, "cache", Arc::clone(&rec), Arc::clone(&scope))
            .with_decode_probe(Arc::clone(&probe));
        let raw: Vec<u8> = (0..64i64).flat_map(i64::to_le_bytes).collect();
        let (frame, _) = codec::encode_chunk(
            &raw,
            ssdm_array::NumericType::Int,
            ssdm_storage::CodecPolicy::Auto,
        );
        outer.put_chunk(7, 0, &frame).unwrap();

        assert_eq!(outer.read_chunk(7, 0).unwrap(), frame);
        assert!(rec.take().is_empty(), "disabled recorder records nothing");

        rec.set_enabled(true);
        let got = rec.span("core.execute", 0, 42, |_| outer.read_chunk(7, 0).unwrap());
        assert_eq!(got, frame);
        let spans = rec.take();
        let by = |name: &str| spans.iter().find(|s| s.name == name).unwrap().clone();
        let (exec, cache, store) = (by("core.execute"), by("cache"), by("store.mem"));
        assert_eq!(cache.parent, exec.id);
        assert_eq!(store.parent, cache.id);
        assert_eq!(by(DECODE_PROBE).parent, exec.id);
        assert!(spans.iter().all(|s| s.req == 42));
        assert_eq!(probe.decoded_bytes.load(Ordering::Relaxed), 512);
        assert_eq!(
            probe.stored_bytes.load(Ordering::Relaxed),
            frame.len() as u64
        );
    }
}
