//! Array-proxy resolution (APR) and the retrieval strategies.
//!
//! APR is the physical-algebra operator SSDM inserts where a query needs
//! the *elements* behind an array proxy (thesis §6.1.1). It describes
//! what the proxy's view touches as per-chunk arithmetic runs
//! ([`crate::runs`]), fetches those chunks from the back-end with a
//! [`RetrievalStrategy`], and assembles a resident [`NumArray`]. The
//! aggregate variant (AAPR) folds elements chunk-by-chunk without
//! materializing the whole view — the "costly array processing, e.g.
//! filtering and aggregation, is thus performed on the server" behaviour
//! of the abstract. Every shape — materialize, aggregate, filtered,
//! existence probe, sequential or parallel — is one [`Request`] executed
//! by one runner (`ArrayStore::run`), and a bag of proxies
//! (`resolve_bag`) is a list of them.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use ssdm_array::{kernel, AggregateOp, Buffer, Num, NumArray, NumericType};

use crate::chunks::Chunking;
use crate::codec::{self, ChunkSummary, CodecPolicy, ValuePredicate, ZoneMap};
use crate::meta::{ArrayMeta, ArrayProxy};
use crate::parallel::{Job, KeyOp, Lane};
use crate::resilient::ResilienceStats;
use crate::runs::{Run, ViewRuns};
use crate::spd::{self, FetchOp, SpdOptions};
use crate::store::{ChunkStore, CompositeRows, IoStats, StorageError};
use crate::Result;

/// How the APR turns a set of needed chunk ids into back-end statements
/// (the strategies compared in thesis §6.3.2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RetrievalStrategy {
    /// One statement per chunk — the naive baseline whose cost is
    /// dominated by per-statement round trips.
    Single,
    /// Buffer up to `buffer_size` ids and issue one `IN`-list statement
    /// per batch (§6.2.4).
    BufferedIn { buffer_size: usize },
    /// Run the Sequence Pattern Detector over the id sequence and issue
    /// range statements for regular patterns (§6.2.5).
    SpdRange { options: SpdOptions },
    /// Fetch the whole array with one range statement regardless of the
    /// view — the degenerate strategy, optimal only for dense views.
    WholeArray,
}

impl RetrievalStrategy {
    pub fn name(&self) -> &'static str {
        match self {
            RetrievalStrategy::Single => "SINGLE",
            RetrievalStrategy::BufferedIn { .. } => "BUFFERED-IN",
            RetrievalStrategy::SpdRange { .. } => "SPD-RANGE",
            RetrievalStrategy::WholeArray => "WHOLE-ARRAY",
        }
    }
}

/// Per-resolution statistics (deltas of the back-end counters).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct AprStats {
    pub statements: u64,
    pub chunks_fetched: u64,
    pub bytes_fetched: u64,
    pub elements_resolved: u64,
    /// Batched statements (`IN`-list or range) that failed and were
    /// served by per-chunk `Single` retrieval instead of aborting the
    /// query (graceful degradation).
    pub fallbacks: u64,
    /// Retries performed by a [`crate::ResilientChunkStore`] in the
    /// back-end stack during this resolution (zero for plain stacks).
    pub retries: u64,
    /// Checksum violations that were healed by a successful re-read
    /// during this resolution.
    pub corruption_repaired: u64,
    /// Chunks the zone map proved irrelevant for a filtered resolution:
    /// they were dropped from the fetch plan before any back-end
    /// statement was issued.
    pub chunks_skipped: u64,
    /// Fetched `SCC1` frames that were decompressed during this
    /// resolution (zero for raw-stored arrays).
    pub chunks_decoded: u64,
    /// Uncompressed bytes produced by those decodes (a decode produces
    /// only the span of the chunk between the first and last element
    /// the view needs).
    pub bytes_decoded: u64,
    /// Elements the runner looked at, after zone-map pruning: every
    /// view element of the chunks that survived (up to the first match
    /// for an existence probe).
    pub elements_examined: u64,
}

impl AprStats {
    /// True when this resolution needed any resilience machinery —
    /// useful to flag degraded-but-successful queries in logs.
    pub fn degraded(&self) -> bool {
        self.fallbacks > 0 || self.retries > 0 || self.corruption_repaired > 0
    }

    /// Field-wise accumulation (used for the store-lifetime totals).
    fn accumulate(&mut self, delta: &AprStats) {
        self.statements += delta.statements;
        self.chunks_fetched += delta.chunks_fetched;
        self.bytes_fetched += delta.bytes_fetched;
        self.elements_resolved += delta.elements_resolved;
        self.fallbacks += delta.fallbacks;
        self.retries += delta.retries;
        self.corruption_repaired += delta.corruption_repaired;
        self.chunks_skipped += delta.chunks_skipped;
        self.chunks_decoded += delta.chunks_decoded;
        self.bytes_decoded += delta.bytes_decoded;
        self.elements_examined += delta.elements_examined;
    }
}

/// Process-wide count of chunks skipped via zone-map pruning.
fn obs_chunks_skipped() -> &'static Arc<ssdm_obs::Counter> {
    static C: OnceLock<Arc<ssdm_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| ssdm_obs::recorder().counter("ssdm_chunks_skipped"))
}

/// Process-wide count of `SCC1` frames decompressed.
fn obs_chunks_decoded() -> &'static Arc<ssdm_obs::Counter> {
    static C: OnceLock<Arc<ssdm_obs::Counter>> = OnceLock::new();
    C.get_or_init(|| ssdm_obs::recorder().counter("ssdm_chunks_decoded"))
}

/// Process-wide chunk-fetch latency histogram: both fetch lanes
/// ([`crate::parallel`]) time each back-end statement into it.
pub(crate) fn obs_chunk_fetch_hist() -> &'static Arc<ssdm_obs::Histogram> {
    static H: OnceLock<Arc<ssdm_obs::Histogram>> = OnceLock::new();
    H.get_or_init(|| ssdm_obs::recorder().histogram("ssdm_chunk_fetch_seconds"))
}

/// The array catalog plus its chunk back-end: SSDM's handle on
/// externally stored arrays.
pub struct ArrayStore<S: ChunkStore> {
    backend: S,
    catalog: HashMap<u64, Arc<ArrayMeta>>,
    /// Chunk-summary catalog: one zone map per *stored* array (linked
    /// external arrays have none until one is restored from a
    /// snapshot), consulted by the filtered resolve paths to skip
    /// chunks before fetch.
    zone_maps: HashMap<u64, Arc<ZoneMap>>,
    codec: CodecPolicy,
    skip_enabled: bool,
    next_id: u64,
    last_stats: AprStats,
    cumulative: AprStats,
}

impl<S: ChunkStore> ArrayStore<S> {
    pub fn new(backend: S) -> Self {
        ArrayStore {
            backend,
            catalog: HashMap::new(),
            zone_maps: HashMap::new(),
            codec: CodecPolicy::from_env(),
            skip_enabled: true,
            next_id: 1,
            last_stats: AprStats::default(),
            cumulative: AprStats::default(),
        }
    }

    /// The codec policy newly stored arrays are encoded with.
    pub fn codec(&self) -> CodecPolicy {
        self.codec
    }

    pub fn set_codec(&mut self, codec: CodecPolicy) {
        self.codec = codec;
    }

    /// Whether filtered resolutions consult zone maps to skip chunks.
    /// On by default; turning it off never changes results (skipping is
    /// strictly conservative), only how many chunks are fetched.
    pub fn skip_enabled(&self) -> bool {
        self.skip_enabled
    }

    pub fn set_skip_enabled(&mut self, enabled: bool) {
        self.skip_enabled = enabled;
    }

    /// The zone map of a stored array, if one exists.
    pub fn zone_map(&self, array_id: u64) -> Option<&Arc<ZoneMap>> {
        self.zone_maps.get(&array_id)
    }

    /// Install a zone map for an array (snapshot restore of linked
    /// external arrays).
    pub fn set_zone_map(&mut self, array_id: u64, zone_map: ZoneMap) {
        self.zone_maps.insert(array_id, Arc::new(zone_map));
    }

    /// Every zone map in the store, unordered. The planner walks these
    /// to cost `array_contains` / `array_*_range` pushdown by expected
    /// matching-chunk fraction.
    pub fn zone_maps(&self) -> impl Iterator<Item = &Arc<ZoneMap>> {
        self.zone_maps.values()
    }

    pub fn backend(&self) -> &S {
        &self.backend
    }

    pub fn backend_mut(&mut self) -> &mut S {
        &mut self.backend
    }

    /// Statistics of the most recent resolve call.
    pub fn last_stats(&self) -> AprStats {
        self.last_stats
    }

    /// Totals accumulated over every resolve this store has performed.
    /// Reported alongside [`last_stats`](Self::last_stats) under an
    /// explicit `cumulative` scope so the two can't be conflated.
    pub fn cumulative_stats(&self) -> AprStats {
        self.cumulative
    }

    /// Linearize and store an array in chunks of `chunk_bytes`,
    /// returning a whole-array proxy.
    pub fn store_array(&mut self, array: &NumArray, chunk_bytes: usize) -> Result<ArrayProxy> {
        let array_id = self.next_id;
        self.next_id += 1;
        let materialized;
        let dense = if array.view().is_contiguous() && array.view().offset() == 0 {
            array
        } else {
            materialized = array.materialize();
            &materialized
        };
        let shape = dense.shape();
        let chunking = Chunking::new(chunk_bytes, dense.element_count());
        let ty = dense.numeric_type();
        self.backend.begin_array(array_id, chunk_bytes)?;
        let mut summaries: Vec<ChunkSummary> = Vec::with_capacity(chunking.chunk_count() as usize);
        for c in 0..chunking.chunk_count() {
            let (start, end) = chunking.chunk_span(c);
            let raw = dense.data().serialize_range(start, end);
            let (frame, summary) = codec::encode_chunk(&raw, ty, self.codec);
            summaries.push(summary);
            self.backend.put_chunk(array_id, c, &frame)?;
        }
        self.zone_maps
            .insert(array_id, Arc::new(ZoneMap { ty, summaries }));
        let meta = Arc::new(ArrayMeta {
            array_id,
            numeric_type: ty,
            shape,
            chunking,
            encoded: true,
        });
        self.catalog.insert(array_id, Arc::clone(&meta));
        Ok(ArrayProxy::whole(meta))
    }

    /// A whole-array proxy for a cataloged array.
    pub fn proxy(&self, array_id: u64) -> Result<ArrayProxy> {
        self.catalog
            .get(&array_id)
            .map(|m| ArrayProxy::whole(Arc::clone(m)))
            .ok_or(StorageError::MissingArray(array_id))
    }

    /// Register an array that already lives in the back-end (the
    /// *mediator scenario*, thesis §6: linking external arrays into an
    /// RDF graph without loading them).
    pub fn link_external(&mut self, meta: ArrayMeta) -> ArrayProxy {
        let id = meta.array_id;
        self.next_id = self.next_id.max(id + 1);
        let meta = Arc::new(meta);
        self.catalog.insert(id, Arc::clone(&meta));
        ArrayProxy::whole(meta)
    }

    /// Iterate the catalog entries (for snapshots and inspection).
    pub fn catalog(&self) -> impl Iterator<Item = &Arc<ArrayMeta>> {
        self.catalog.values()
    }

    /// Drop an array from the catalog and the back-end.
    pub fn delete_array(&mut self, array_id: u64) -> Result<()> {
        let meta = self
            .catalog
            .remove(&array_id)
            .ok_or(StorageError::MissingArray(array_id))?;
        self.zone_maps.remove(&array_id);
        self.backend
            .delete_array(array_id, meta.chunking.chunk_count())
    }

    /// Resolve a proxy to a resident array (the APR operator).
    pub fn resolve(&mut self, proxy: &ArrayProxy, strategy: RetrievalStrategy) -> Result<NumArray> {
        self.run_one(Request::new(proxy), strategy, Lane::exclusive())?
            .into_array(proxy)
    }

    /// Resolve a proxy with the fetch plan partitioned across a worker
    /// pool (the parallel retrieval pipeline, [`crate::parallel`]).
    ///
    /// The result is bit-identical to [`resolve`](Self::resolve) with
    /// the same strategy — the same statements execute, concurrently —
    /// and [`last_stats`](Self::last_stats) stays exact. When the
    /// back-end does not tolerate shared reads
    /// ([`Capabilities::supports_parallel`] is false) or `config`
    /// requests at most one worker, this *is* the sequential path.
    ///
    /// [`Capabilities::supports_parallel`]: crate::Capabilities::supports_parallel
    pub fn resolve_parallel(
        &mut self,
        proxy: &ArrayProxy,
        strategy: RetrievalStrategy,
        config: crate::ParallelConfig,
    ) -> Result<NumArray>
    where
        S: crate::SharedChunkRead,
    {
        let lane = self.lane(config);
        self.run_one(Request::new(proxy), strategy, lane)?
            .into_array(proxy)
    }

    /// Streamed aggregate over a proxy (the AAPR operator): chunks are
    /// fetched batch-wise and folded immediately, so peak memory is one
    /// batch regardless of the view size.
    ///
    /// Each chunk's needed elements, in view order, are folded into a
    /// *per-chunk partial* by the typed kernels (`ssdm_array::kernel`),
    /// and partials are combined in ascending chunk order — the same
    /// fold structure for every lane, worker count, strategy and bag,
    /// so sequential, parallel and bag AAPR are bit-identical by
    /// construction (`f64` sums follow the documented pairwise order;
    /// see DESIGN.md). An aggregate with no value over an empty view is
    /// [`StorageError::EmptyView`].
    pub fn resolve_aggregate(
        &mut self,
        proxy: &ArrayProxy,
        op: AggregateOp,
        strategy: RetrievalStrategy,
    ) -> Result<Num> {
        let req = Request {
            fold: Some(op),
            ..Request::new(proxy)
        };
        self.run_one(req, strategy, Lane::exclusive())?.total(op)
    }

    /// Parallel AAPR: each worker decodes and folds the chunks of the
    /// ops it claims into per-chunk partials *in place*, dropping the
    /// payloads without central assembly — fetch and compute overlap.
    /// Bit-identical to [`resolve_aggregate`](Self::resolve_aggregate)
    /// for every worker count and strategy; degrades to it when
    /// `config` requests at most one worker or the back-end lacks
    /// [`supports_parallel`].
    ///
    /// [`supports_parallel`]: crate::Capabilities::supports_parallel
    pub fn resolve_aggregate_parallel(
        &mut self,
        proxy: &ArrayProxy,
        op: AggregateOp,
        strategy: RetrievalStrategy,
        config: crate::ParallelConfig,
    ) -> Result<Num>
    where
        S: crate::SharedChunkRead,
    {
        let req = Request {
            fold: Some(op),
            ..Request::new(proxy)
        };
        let lane = self.lane(config);
        self.run_one(req, strategy, lane)?.total(op)
    }

    /// Resolve the elements of a proxy's view that satisfy `pred`, in
    /// view order (the APR analogue of a `FILTER` scan). Chunks whose
    /// summary proves no element can match are skipped before fetch;
    /// the returned values are identical with skipping on or off.
    pub fn resolve_filtered(
        &mut self,
        proxy: &ArrayProxy,
        pred: &ValuePredicate,
        strategy: RetrievalStrategy,
    ) -> Result<Vec<Num>> {
        let req = Request {
            pred: Some(pred),
            ..Request::new(proxy)
        };
        Ok(self.run_one(req, strategy, Lane::exclusive())?.matches)
    }

    /// Whether any element of the proxy's view satisfies `pred`
    /// (membership / `EXISTS`). Skips non-qualifying chunks via the
    /// zone map and stops at the first match.
    pub fn resolve_exists(
        &mut self,
        proxy: &ArrayProxy,
        pred: &ValuePredicate,
        strategy: RetrievalStrategy,
    ) -> Result<bool> {
        let req = Request {
            pred: Some(pred),
            first_only: true,
            ..Request::new(proxy)
        };
        let found = self.run_one(req, strategy, Lane::exclusive())?.matches;
        Ok(!found.is_empty())
    }

    /// Streamed aggregate over the elements of a proxy's view that
    /// satisfy `pred` (filtered AAPR). Non-qualifying chunks are
    /// skipped before fetch; chunks none of whose addressed elements
    /// match contribute *no* fold partial, which is what makes the
    /// result bit-identical with skipping on or off (including `f64`
    /// sums, whose fold order is structural). With no matching elements
    /// the result mirrors the empty-view semantics: `Count`/`Sum` are
    /// 0, `Prod` is 1, the rest are [`StorageError::EmptyView`].
    pub fn resolve_aggregate_filtered(
        &mut self,
        proxy: &ArrayProxy,
        pred: &ValuePredicate,
        op: AggregateOp,
        strategy: RetrievalStrategy,
    ) -> Result<Num> {
        let req = Request {
            pred: Some(pred),
            fold: Some(op),
            ..Request::new(proxy)
        };
        self.run_one(req, strategy, Lane::exclusive())?.total(op)
    }

    /// Parallel filtered AAPR: zone-map pruning happens up front, then
    /// the surviving plan is partitioned across the worker pool with
    /// decode + filter + fold inside the fetching workers. Bit-identical
    /// to [`resolve_aggregate_filtered`](Self::resolve_aggregate_filtered)
    /// for every worker count; degrades to it when the back-end lacks
    /// `supports_parallel` or at most one worker is requested.
    pub fn resolve_aggregate_filtered_parallel(
        &mut self,
        proxy: &ArrayProxy,
        pred: &ValuePredicate,
        op: AggregateOp,
        strategy: RetrievalStrategy,
        config: crate::ParallelConfig,
    ) -> Result<Num>
    where
        S: crate::SharedChunkRead,
    {
        let req = Request {
            pred: Some(pred),
            fold: Some(op),
            ..Request::new(proxy)
        };
        let lane = self.lane(config);
        self.run_one(req, strategy, lane)?.total(op)
    }

    /// The lane a parallel entry point runs on: the worker pool when it
    /// is asked for and the back-end tolerates shared reads, else the
    /// sequential lane.
    fn lane(&self, config: crate::ParallelConfig) -> Lane<S, OpOut>
    where
        S: crate::SharedChunkRead,
    {
        if config.workers > 1 && self.backend.capabilities().supports_parallel {
            Lane::shared(config.workers)
        } else {
            Lane::exclusive()
        }
    }

    /// Run one request: a single-proxy `resolve*` is a bag of one.
    fn run_one(
        &mut self,
        req: Request<'_>,
        strategy: RetrievalStrategy,
        lane: Lane<S, OpOut>,
    ) -> Result<Resolved> {
        Ok(self.run(&[req], strategy, lane)?.remove(0))
    }

    /// The one resolve runner. Every public `resolve*` shape, and every
    /// bag of them, is a list of [`Request`]s executed here:
    ///
    /// 1. each request's view becomes per-chunk arithmetic runs
    ///    ([`ViewRuns`]) — no element address is enumerated;
    /// 2. with a predicate, the zone map drops chunks that provably
    ///    hold no match, *before* the fetch plan is built;
    /// 3. the union of the surviving `(array, chunk)` keys becomes
    ///    statements per the strategy ([`Self::plan`]), executed on
    ///    `lane` — a chunk two requests read is fetched once;
    /// 4. each fetched row goes to every request that reads it, is
    ///    decoded only across the span that request's runs read and
    ///    turned into its [`ChunkOut`] inside the worker that fetched
    ///    it; a row no request reads (a covering range's overfetch) is
    ///    dropped undecoded;
    /// 5. per request, outputs are assembled in ascending chunk order:
    ///    slices copied into the typed result, or partials combined.
    pub(crate) fn run(
        &mut self,
        reqs: &[Request<'_>],
        strategy: RetrievalStrategy,
        lane: Lane<S, OpOut>,
    ) -> Result<Vec<Resolved>> {
        debug_assert!(
            reqs.len() == 1 || reqs.iter().all(|r| !r.first_only),
            "a membership probe runs alone, so its early stop stops only it"
        );
        let before = self.backend.io_stats();
        let before_res = self.backend.resilience_stats();
        let mut out: Vec<Resolved> = reqs.iter().map(|_| Resolved::default()).collect();
        let mut parts = Vec::with_capacity(reqs.len());
        let mut skipped = 0;
        for (at, req) in reqs.iter().enumerate() {
            if req.pred.is_none() && req.fold == Some(AggregateOp::Count) {
                // Counting an unfiltered view needs no element.
                out[at].acc = Some(Num::Int(req.proxy.element_count() as i64));
                continue;
            }
            let meta = req.proxy.meta();
            let mut runs = ViewRuns::of(req.proxy.view(), &meta.chunking);
            if let Some(pred) = req.pred {
                skipped += self.prune_chunks(meta.array_id, &mut runs, pred) as u64;
            }
            parts.push(Part {
                at,
                req,
                meta,
                runs,
            });
        }
        // Stable: the requests reading one array stay adjacent, so a
        // row's readers are found by binary search.
        parts.sort_by_key(|p| p.meta.array_id);
        let mut arrays: Vec<(&ArrayMeta, Vec<u64>)> = Vec::new();
        for reading in parts.chunk_by(|a, b| a.meta.array_id == b.meta.array_id) {
            let mut ids = reading[0].runs.chunk_ids();
            if reading.len() > 1 {
                ids.extend(reading[1..].iter().flat_map(|p| p.runs.chunk_ids()));
                ids.sort_unstable();
                ids.dedup();
            }
            // An empty view, or every chunk pruned: no statement.
            if !ids.is_empty() {
                arrays.push((reading[0].meta, ids));
            }
        }
        let needed: Vec<(u64, u64)> = arrays
            .iter()
            .flat_map(|(meta, ids)| ids.iter().map(|&c| (meta.array_id, c)))
            .collect();
        let plan = self.plan(&arrays, strategy, !lane.is_shared());
        let done = AtomicBool::new(false);
        let tally = Tally::default();
        let ctx = ChunkCtx {
            parts: &parts,
            tally: &tally,
            done: &done,
            in_pool: lane.is_shared(),
        };
        let job = Job {
            plan: &plan,
            needed: &needed,
            done: &done,
        };
        // Rows are processed by value, so each payload is freed as soon
        // as it is consumed, in one monomorphic pass per element type.
        let reads_int = |a: u64| {
            let at = parts.partition_point(|p| p.meta.array_id < a);
            parts
                .get(at)
                .is_some_and(|p| p.meta.numeric_type == NumericType::Int)
        };
        let process = |rows: CompositeRows| {
            let (ints, reals): (Vec<_>, Vec<_>) =
                rows.into_iter().partition(|((a, _), _)| reads_int(*a));
            let mut outs = ctx.process::<i64>(ints)?;
            outs.extend(ctx.process::<f64>(reals)?);
            Ok(outs)
        };
        let (per_op, fallbacks) = lane.run(&mut self.backend, &job, &process)?;

        let mut slots: Vec<Vec<Option<ChunkOut>>> = parts
            .iter()
            .map(|p| p.runs.chunks().iter().map(|_| None).collect())
            .collect();
        for (p, idx, chunk_out) in per_op.into_iter().flatten() {
            slots[p][idx] = Some(chunk_out);
        }
        let (stopped, examined) = (done.into_inner(), tally.examined.load(Ordering::Relaxed));
        let mut resolved = 0;
        for (part, slots) in parts.iter().zip(slots) {
            resolved += out[part.at].assemble(part, slots, stopped, examined)?;
        }
        self.finish_stats(before, before_res, fallbacks, resolved, skipped, &tally);
        Ok(out)
    }

    /// The statements of a run, from the chunk ids each array it reads
    /// needs (ascending by array): [`make_plan`]'s statements for each
    /// array — all a run over one array ever gets — except that
    /// `SpdRange` over several arrays plans across them
    /// ([`Self::bag_plan`]) when the back-end can scan across arrays
    /// and the lane is `exclusive`, the one contract with composite
    /// reads.
    fn plan(
        &self,
        arrays: &[(&ArrayMeta, Vec<u64>)],
        strategy: RetrievalStrategy,
        exclusive: bool,
    ) -> Vec<KeyOp> {
        match strategy {
            RetrievalStrategy::SpdRange { options }
                if arrays.len() > 1
                    && exclusive
                    && self.backend.capabilities().supports_cross_range =>
            {
                self.bag_plan(arrays, options)
            }
            _ => arrays
                .iter()
                .flat_map(|(meta, ids)| {
                    let array_id = meta.array_id;
                    let plan = make_plan(ids, &meta.chunking, strategy);
                    plan.into_iter().map(move |op| KeyOp::Array(array_id, op))
                })
                .collect(),
        }
    }

    fn finish_stats(
        &mut self,
        before: IoStats,
        before_res: ResilienceStats,
        fallbacks: u64,
        elements: u64,
        skipped: u64,
        tally: &Tally,
    ) {
        let after = self.backend.io_stats();
        let res = self.backend.resilience_stats().since(&before_res);
        self.last_stats = AprStats {
            statements: after.statements - before.statements,
            chunks_fetched: after.chunks_returned - before.chunks_returned,
            bytes_fetched: after.bytes_returned - before.bytes_returned,
            elements_resolved: elements,
            fallbacks,
            retries: res.retries,
            corruption_repaired: res.corruption_repaired,
            chunks_skipped: skipped,
            chunks_decoded: tally.decoded_chunks.load(Ordering::Relaxed),
            bytes_decoded: tally.decoded_bytes.load(Ordering::Relaxed),
            elements_examined: tally.examined.load(Ordering::Relaxed),
        };
        self.cumulative.accumulate(&self.last_stats);
    }

    /// Drop the chunks of `runs` whose zone-map summary proves they
    /// cannot hold a match for `pred` — *before* the fetch plan is
    /// built and before any of their elements is looked at, so range
    /// plans shrink and skipped chunks never reach the back-end.
    /// Returns the number of chunks skipped. No-ops (and stays correct)
    /// when skipping is disabled or the array has no zone map.
    fn prune_chunks(&self, array_id: u64, runs: &mut ViewRuns, pred: &ValuePredicate) -> usize {
        if !self.skip_enabled {
            return 0;
        }
        let Some(zm) = self.zone_maps.get(&array_id) else {
            return 0;
        };
        let skipped = runs.retain_chunks(|cid| zm.may_match(cid, pred));
        if skipped > 0 && ssdm_obs::recorder().enabled() {
            obs_chunks_skipped().add(skipped as u64);
        }
        skipped
    }
}

/// One resolution: everything the public `resolve*` shapes differ in.
pub(crate) struct Request<'a> {
    pub(crate) proxy: &'a ArrayProxy,
    /// Only elements satisfying it take part; `None` is always-true.
    pub(crate) pred: Option<&'a ValuePredicate>,
    /// Fold the participating elements to one number instead of
    /// emitting them.
    pub(crate) fold: Option<AggregateOp>,
    /// Stop at the first participating element (membership probes).
    pub(crate) first_only: bool,
}

impl<'a> Request<'a> {
    /// Materialize the whole view.
    pub(crate) fn new(proxy: &'a ArrayProxy) -> Self {
        Request {
            proxy,
            pred: None,
            fold: None,
            first_only: false,
        }
    }
}

/// What a [`Request`] resolved to; only the part the request's shape
/// asks for is populated.
#[derive(Default)]
pub(crate) struct Resolved {
    /// All elements of the view, in view order (unfiltered, unfolded).
    elements: Option<Buffer>,
    /// The matching elements, in view order (filtered, unfolded).
    matches: Vec<Num>,
    /// The combined fold partials and how many elements they cover.
    acc: Option<Num>,
    folded: u64,
}

impl Resolved {
    /// Take one request's chunk outputs, in ascending chunk order, and
    /// return how many elements it resolved (a membership probe: how
    /// many the run `examined`). A chunk without output is missing,
    /// unless a membership probe `stopped` before reaching it.
    fn assemble(
        &mut self,
        part: &Part<'_>,
        outs: Vec<Option<ChunkOut>>,
        stopped: bool,
        examined: u64,
    ) -> Result<u64> {
        let emit_all = part.req.pred.is_none() && part.req.fold.is_none();
        let len = if emit_all {
            part.runs.element_count()
        } else {
            0
        };
        let mut elements = Buffer::zeros(part.meta.numeric_type, len);
        let mut found: Vec<(usize, Num)> = Vec::new();
        for (chunk, chunk_out) in part.runs.chunks().iter().zip(outs) {
            match chunk_out {
                None if stopped => {}
                None => {
                    return Err(StorageError::MissingChunk {
                        array_id: part.meta.array_id,
                        chunk_id: chunk.chunk_id,
                    })
                }
                Some(ChunkOut::Dense(vals)) => {
                    scatter(&mut elements, &vals, part.runs.runs_of(chunk))
                }
                Some(ChunkOut::Matches(hits)) => found.extend(hits),
                Some(ChunkOut::Partial(None)) => {}
                Some(ChunkOut::Partial(Some((partial, n)))) => {
                    self.folded += n;
                    self.acc = Some(match (self.acc, part.req.fold) {
                        (Some(prev), Some(op)) => combine(op, prev, partial)?,
                        _ => partial,
                    });
                }
            }
        }
        // Chunk order is view order for ascending views only (for which
        // this is one pass over sorted input).
        found.sort_by_key(|m| m.0);
        self.matches = found.into_iter().map(|m| m.1).collect();
        self.elements = emit_all.then_some(elements);
        Ok(if part.req.first_only {
            examined
        } else if emit_all {
            part.runs.element_count() as u64
        } else {
            self.folded + self.matches.len() as u64
        })
    }

    pub(crate) fn into_array(self, proxy: &ArrayProxy) -> Result<NumArray> {
        let elements = self.elements.expect("a materializing request");
        Ok(NumArray::from_data(elements.into(), &proxy.shape())?)
    }

    /// Final-value semantics of a fold: over no elements `Count`/`Sum`
    /// are 0, `Prod` is 1 and the rest have no value
    /// ([`StorageError::EmptyView`]); otherwise `Avg` divides by the
    /// count.
    pub(crate) fn total(self, op: AggregateOp) -> Result<Num> {
        match self.acc {
            None => match op {
                AggregateOp::Count | AggregateOp::Sum => Ok(Num::Int(0)),
                AggregateOp::Prod => Ok(Num::Int(1)),
                _ => Err(StorageError::EmptyView),
            },
            Some(total) => Ok(match op {
                AggregateOp::Avg => Num::Real(total.as_f64() / self.folded as f64),
                _ => total,
            }),
        }
    }
}

/// One request of a run, with the runs of its view that survived
/// pruning.
struct Part<'a> {
    /// The request's position in the run's list.
    at: usize,
    req: &'a Request<'a>,
    meta: &'a ArrayMeta,
    runs: ViewRuns,
}

/// What a statement's rows become, inside the worker that fetched
/// them: per needed chunk, the [`Part`] that reads it, its index in
/// that part's runs and its output.
pub(crate) type OpOut = Vec<(usize, usize, ChunkOut)>;

/// One chunk's contribution to a resolution.
pub(crate) enum ChunkOut {
    /// The chunk's needed elements, dense in view order.
    Dense(Buffer),
    /// Matching elements with their positions in the view's order.
    Matches(Vec<(usize, Num)>),
    /// The fold partial over the participating elements and how many
    /// there were; `None` when none took part, exactly as if the zone
    /// map had skipped the chunk. `Avg` partials are raw sums and
    /// `Count` partials are counts.
    Partial(Option<(Num, u64)>),
}

/// Decode and examine tallies of one resolution, shared by its workers.
#[derive(Default)]
struct Tally {
    decoded_chunks: AtomicU64,
    decoded_bytes: AtomicU64,
    examined: AtomicU64,
}

/// An array element type the runner handles as typed slices.
trait Element: codec::Word {
    const TYPE: NumericType;
    fn num(self) -> Num;
    /// One dense fold by the typed kernels.
    fn fold(xs: &[Self], op: AggregateOp) -> Result<Num>;
    fn buffer(values: Vec<Self>) -> Buffer;
}

impl Element for i64 {
    const TYPE: NumericType = NumericType::Int;
    fn num(self) -> Num {
        Num::Int(self)
    }
    fn fold(xs: &[Self], op: AggregateOp) -> Result<Num> {
        kernel::fold_i64(xs, op).map_err(StorageError::Array)
    }
    fn buffer(values: Vec<Self>) -> Buffer {
        Buffer::Int(values)
    }
}

impl Element for f64 {
    const TYPE: NumericType = NumericType::Real;
    fn num(self) -> Num {
        Num::Real(self)
    }
    fn fold(xs: &[Self], op: AggregateOp) -> Result<Num> {
        kernel::fold_f64(xs, op).map_err(StorageError::Array)
    }
    fn buffer(values: Vec<Self>) -> Buffer {
        Buffer::Real(values)
    }
}

/// What turning fetched rows into [`ChunkOut`]s needs to know.
struct ChunkCtx<'a> {
    /// Sorted by array id.
    parts: &'a [Part<'a>],
    tally: &'a Tally,
    done: &'a AtomicBool,
    /// Whether the rows are processed inside pool workers.
    in_pool: bool,
}

impl ChunkCtx<'_> {
    /// Resolve the needed chunks among one statement's rows, for every
    /// part of element type `W` that reads them. The decode scratch and
    /// the gather buffer are reused across the rows.
    fn process<W: Element>(&self, rows: CompositeRows) -> Result<OpOut> {
        let mut scratch: (Vec<W>, Vec<W>) = (Vec::new(), Vec::new());
        let mut outs = Vec::with_capacity(rows.len());
        for ((array_id, cid), payload) in rows {
            if self.done.load(Ordering::Relaxed) {
                break;
            }
            let from = self.parts.partition_point(|p| p.meta.array_id < array_id);
            let readers = (from..)
                .zip(&self.parts[from..])
                .take_while(|(_, p)| p.meta.array_id == array_id)
                .filter(|(_, p)| p.meta.numeric_type == W::TYPE);
            for (p, part) in readers {
                // Rows a covering range overfetched, or the zone map
                // pruned, are dropped undecoded.
                let Some(idx) = part.runs.position(cid) else {
                    continue;
                };
                outs.push((p, idx, self.chunk_out(part, idx, &payload, &mut scratch)?));
            }
        }
        if self.in_pool {
            let partials = outs
                .iter()
                .filter(|(_, _, out)| matches!(out, ChunkOut::Partial(Some(_))));
            kernel::note_parallel_folds(partials.count() as u64);
        }
        Ok(outs)
    }

    /// Decode the span of one chunk the part's runs read and produce
    /// its output. Malformed frames surface as the same typed
    /// [`StorageError::Corrupt`] the CRC layer raises, so resilience and
    /// retry accounting treat codec damage exactly like frame damage.
    fn chunk_out<W: Element>(
        &self,
        part: &Part<'_>,
        idx: usize,
        payload: &[u8],
        (words, vals): &mut (Vec<W>, Vec<W>),
    ) -> Result<ChunkOut> {
        let chunk = &part.runs.chunks()[idx];
        let (array_id, chunk_id) = (part.meta.array_id, chunk.chunk_id);
        if part.meta.encoded {
            codec::decode_words(payload, chunk.span.clone(), words)
                .map_err(|e| corrupt(array_id, chunk_id, e))?;
            let bytes = 8 * words.len() as u64;
            self.tally.decoded_chunks.fetch_add(1, Ordering::Relaxed);
            self.tally.decoded_bytes.fetch_add(bytes, Ordering::Relaxed);
            if ssdm_obs::recorder().enabled() {
                obs_chunks_decoded().add(1);
            }
        } else {
            words.clear();
            codec::raw_words(payload, chunk.span.clone(), words);
        }
        if words.len() < chunk.span.len() {
            return Err(StorageError::MissingChunk { array_id, chunk_id });
        }
        let req = part.req;
        let runs = part.runs.runs_of(chunk);
        let dense = dense(words, chunk.span.start, runs, vals);
        let matches = |w: &W| req.pred.is_none_or(|p| p.matches(w.num()));
        let mut examined = dense.len();
        let out = match req.fold {
            _ if req.first_only => {
                let hit = dense.iter().position(matches);
                if let Some(i) = hit {
                    examined = i + 1;
                    self.done.store(true, Ordering::Relaxed);
                }
                ChunkOut::Matches(hit.map(|i| (0, dense[i].num())).into_iter().collect())
            }
            None if req.pred.is_none() => ChunkOut::Dense(W::buffer(dense.to_vec())),
            None => ChunkOut::Matches(
                runs.iter()
                    .flat_map(|r| r.out..r.out + r.count)
                    .zip(dense)
                    .filter(|(_, w)| matches(w))
                    .map(|(at, w)| (at, w.num()))
                    .collect(),
            ),
            Some(op) if req.pred.is_none() => {
                ChunkOut::Partial(Some((W::fold(dense, op)?, dense.len() as u64)))
            }
            Some(op) => {
                let kept: Vec<W> = dense.iter().copied().filter(matches).collect();
                ChunkOut::Partial(match kept.len() {
                    0 => None,
                    n => Some((W::fold(&kept, op)?, n as u64)),
                })
            }
        };
        self.tally
            .examined
            .fetch_add(examined as u64, Ordering::Relaxed);
        Ok(out)
    }
}

/// The typed [`StorageError::Corrupt`] a malformed `SCC1` frame raises.
fn corrupt(array_id: u64, chunk_id: u64, e: codec::CodecError) -> StorageError {
    StorageError::Corrupt {
        array_id,
        chunk_id,
        detail: e.to_string(),
    }
}

/// A chunk's needed elements in view order as one dense slice; `words`
/// holds the chunk's elements from offset `from` on. A contiguous run is
/// borrowed straight from the decoded words, anything else is gathered
/// into `vals` (contiguous runs by slice copy, strided ones by a strided
/// loop).
fn dense<'a, W: Copy>(words: &'a [W], from: usize, runs: &[Run], vals: &'a mut Vec<W>) -> &'a [W] {
    let at = |run: &Run| run.first - from;
    if let [run] = runs {
        if run.stride == 1 || run.count == 1 {
            return &words[at(run)..at(run) + run.count];
        }
    }
    vals.clear();
    for run in runs {
        match run.stride {
            1 => vals.extend_from_slice(&words[at(run)..at(run) + run.count]),
            s if s > 1 => vals.extend(words[at(run)..].iter().step_by(s as usize).take(run.count)),
            _ => vals.extend((0..run.count).map(|k| words[run.offset(k) - from])),
        }
    }
    vals
}

/// Copy a chunk's dense elements to the view positions its runs name.
fn scatter(out: &mut Buffer, vals: &Buffer, runs: &[Run]) {
    fn copy<W: Copy>(out: &mut [W], vals: &[W], runs: &[Run]) {
        let mut at = 0;
        for run in runs {
            out[run.out..run.out + run.count].copy_from_slice(&vals[at..at + run.count]);
            at += run.count;
        }
    }
    match (out, vals) {
        (Buffer::Int(out), Buffer::Int(vals)) => copy(out, vals, runs),
        (Buffer::Real(out), Buffer::Real(vals)) => copy(out, vals, runs),
        _ => unreachable!("an array has one element type"),
    }
}

/// Build the statement plan for a strategy over the (non-empty) chunk
/// ids one array needs.
fn make_plan(needed: &[u64], chunking: &Chunking, strategy: RetrievalStrategy) -> Vec<FetchOp> {
    match strategy {
        RetrievalStrategy::Single => needed.iter().map(|&c| FetchOp::In(vec![c])).collect(),
        RetrievalStrategy::BufferedIn { buffer_size } => needed
            .chunks(buffer_size.max(1))
            .map(|b| FetchOp::In(b.to_vec()))
            .collect(),
        RetrievalStrategy::SpdRange { options } => spd::plan(needed, options),
        RetrievalStrategy::WholeArray => vec![FetchOp::Range {
            lo: 0,
            hi: chunking.chunk_count() - 1,
        }],
    }
}

/// Combine two per-chunk partials of `op`: `Count` partials are counts,
/// so they add; `Avg` partials are raw sums, divided once at the end.
fn combine(op: AggregateOp, a: Num, b: Num) -> Result<Num> {
    let r = match op {
        AggregateOp::Sum | AggregateOp::Avg | AggregateOp::Count => a.checked_add(b),
        AggregateOp::Prod => a.checked_mul(b),
        AggregateOp::Min => Ok(a.min(b)),
        AggregateOp::Max => Ok(a.max(b)),
    };
    r.map_err(StorageError::Array)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::MemoryChunkStore;
    use ssdm_array::Subscript;

    fn store_with_matrix(chunk_bytes: usize) -> (ArrayStore<MemoryChunkStore>, ArrayProxy) {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let m = NumArray::from_i64_shaped((0..400).collect(), &[20, 20]).unwrap();
        let proxy = store.store_array(&m, chunk_bytes).unwrap();
        (store, proxy)
    }

    #[test]
    fn whole_array_round_trip() {
        let (mut store, proxy) = store_with_matrix(64);
        let back = store
            .resolve(&proxy, RetrievalStrategy::WholeArray)
            .unwrap();
        assert_eq!(back.shape(), vec![20, 20]);
        assert_eq!(back.get(&[19, 19]).unwrap().as_i64(), 399);
        assert_eq!(store.last_stats().statements, 1);
    }

    #[test]
    fn strategies_agree_on_content() {
        let (mut store, proxy) = store_with_matrix(64);
        let col = proxy.subscript(1, 7).unwrap();
        let strategies = [
            RetrievalStrategy::Single,
            RetrievalStrategy::BufferedIn { buffer_size: 4 },
            RetrievalStrategy::SpdRange {
                options: SpdOptions::default(),
            },
            RetrievalStrategy::WholeArray,
        ];
        let expected: Vec<i64> = (0..20).map(|r| r * 20 + 7).collect();
        for s in strategies {
            let a = store.resolve(&col, s).unwrap();
            let got: Vec<i64> = a.elements().iter().map(|n| n.as_i64()).collect();
            assert_eq!(got, expected, "strategy {}", s.name());
        }
    }

    #[test]
    fn statement_counts_differ_by_strategy() {
        let (mut store, proxy) = store_with_matrix(64); // 8 elems/chunk, 50 chunks
        let col = proxy.subscript(1, 0).unwrap(); // touches 20 distinct rows
        store.resolve(&col, RetrievalStrategy::Single).unwrap();
        let single = store.last_stats();
        store
            .resolve(&col, RetrievalStrategy::BufferedIn { buffer_size: 8 })
            .unwrap();
        let buffered = store.last_stats();
        store
            .resolve(
                &col,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        let spd = store.last_stats();
        assert!(single.statements > buffered.statements);
        assert!(buffered.statements >= spd.statements);
        assert_eq!(single.chunks_fetched, buffered.chunks_fetched);
    }

    #[test]
    fn spd_overfetch_is_filtered_out() {
        let (mut store, proxy) = store_with_matrix(8); // 1 element per chunk
                                                       // Every second element of row 0: chunks 0,2,4,...,18 -> one
                                                       // covering range 0..=18 fetches 19 chunks for 10 elements.
        let row = proxy.subscript(0, 0).unwrap();
        let every2 = row.slice(0, 0, 2, 18).unwrap();
        let a = store
            .resolve(
                &every2,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        let got: Vec<i64> = a.elements().iter().map(|n| n.as_i64()).collect();
        assert_eq!(got, vec![0, 2, 4, 6, 8, 10, 12, 14, 16, 18]);
        let st = store.last_stats();
        assert_eq!(st.statements, 1);
        assert_eq!(st.chunks_fetched, 19);
        assert_eq!(st.elements_resolved, 10);
    }

    #[test]
    fn single_element_access() {
        let (mut store, proxy) = store_with_matrix(64);
        let cell = proxy
            .dereference(&[Subscript::Index(3), Subscript::Index(5)])
            .unwrap();
        let a = store.resolve(&cell, RetrievalStrategy::Single).unwrap();
        assert_eq!(a.scalar_value().unwrap().as_i64(), 2 * 20 + 4); // (3-1)*20+(5-1)
        assert_eq!(store.last_stats().chunks_fetched, 1);
    }

    #[test]
    fn aggregate_matches_materialized() {
        let (mut store, proxy) = store_with_matrix(64);
        let slice = proxy.slice(0, 2, 3, 17).unwrap();
        let materialized = store
            .resolve(&slice, RetrievalStrategy::WholeArray)
            .unwrap();
        for op in [
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Count,
        ] {
            let streamed = store
                .resolve_aggregate(&slice, op, RetrievalStrategy::BufferedIn { buffer_size: 4 })
                .unwrap();
            assert_eq!(streamed, materialized.aggregate(op).unwrap(), "{op:?}");
        }
    }

    #[test]
    fn aggregate_count_needs_no_io() {
        let (mut store, proxy) = store_with_matrix(64);
        let n = store
            .resolve_aggregate(&proxy, AggregateOp::Count, RetrievalStrategy::Single)
            .unwrap();
        assert_eq!(n, Num::Int(400));
        assert_eq!(store.last_stats().statements, 0);
    }

    #[test]
    fn real_arrays_round_trip() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let a = NumArray::from_f64((0..100).map(|i| i as f64 / 4.0).collect());
        let proxy = store.store_array(&a, 32).unwrap();
        let back = store
            .resolve(&proxy, RetrievalStrategy::WholeArray)
            .unwrap();
        assert!(back.array_eq(&a));
        assert_eq!(back.numeric_type(), NumericType::Real);
    }

    #[test]
    fn storing_a_view_stores_logical_content() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let m = NumArray::from_i64_shaped((0..12).collect(), &[3, 4]).unwrap();
        let t = m.transpose();
        let proxy = store.store_array(&t, 32).unwrap();
        let back = store
            .resolve(&proxy, RetrievalStrategy::WholeArray)
            .unwrap();
        assert!(back.array_eq(&t));
    }

    #[test]
    fn delete_array_removes_chunks() {
        let (mut store, proxy) = store_with_matrix(64);
        let id = proxy.array_id();
        store.delete_array(id).unwrap();
        assert!(store.proxy(id).is_err());
        assert!(store.resolve(&proxy, RetrievalStrategy::Single).is_err());
    }

    #[test]
    fn mediator_link_external() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        // Simulate pre-existing chunks written by another system.
        let chunking = Chunking::new(32, 10);
        for c in 0..chunking.chunk_count() {
            let (s, e) = chunking.chunk_span(c);
            let data: Vec<u8> = (s..e).flat_map(|i| (i as i64).to_le_bytes()).collect();
            store.backend_mut().put_chunk(77, c, &data).unwrap();
        }
        let proxy = store.link_external(ArrayMeta {
            array_id: 77,
            numeric_type: NumericType::Int,
            shape: vec![10],
            chunking,
            encoded: false,
        });
        let a = store
            .resolve(&proxy, RetrievalStrategy::WholeArray)
            .unwrap();
        assert_eq!(a.elements().iter().map(|n| n.as_i64()).sum::<i64>(), 45);
    }

    #[test]
    fn stored_chunks_are_scc1_frames_with_zone_map() {
        let (mut store, proxy) = store_with_matrix(64); // 8 elems/chunk, 50 chunks
        let id = proxy.array_id();
        let zm = Arc::clone(store.zone_map(id).expect("zone map built at store time"));
        assert_eq!(zm.summaries.len(), 50);
        assert_eq!(zm.summaries[0].min(NumericType::Int), Num::Int(0));
        assert_eq!(zm.summaries[0].max(NumericType::Int), Num::Int(7));
        let frame = store.backend_mut().get_chunk(id, 0).unwrap();
        let (summary, ty) = codec::summary_of(&frame).expect("SCC1 frame");
        assert_eq!(ty, NumericType::Int);
        assert_eq!(summary.min_bits, zm.summaries[0].min_bits);
        store.delete_array(id).unwrap();
        assert!(store.zone_map(id).is_none());
    }

    #[test]
    fn filtered_aggregate_skips_and_is_identical_without_skipping() {
        let (mut store, proxy) = store_with_matrix(64); // values 0..400
        let pred = ValuePredicate::Range {
            lo: Num::Int(100),
            hi: Num::Int(149),
        };
        let expected: i64 = (100..150).sum();
        let sum = store
            .resolve_aggregate_filtered(&proxy, &pred, AggregateOp::Sum, RetrievalStrategy::Single)
            .unwrap();
        assert_eq!(sum, Num::Int(expected));
        let st = store.last_stats();
        // Chunks 12..=18 qualify (they span elements 96..152); the other
        // 43 are proven irrelevant and never fetched.
        assert_eq!(st.chunks_skipped, 43);
        assert_eq!(st.chunks_fetched, 7);
        assert_eq!(st.chunks_decoded, 7);
        assert!(st.bytes_decoded > 0);
        store.set_skip_enabled(false);
        let sum_off = store
            .resolve_aggregate_filtered(&proxy, &pred, AggregateOp::Sum, RetrievalStrategy::Single)
            .unwrap();
        assert_eq!(sum_off, sum);
        let st_off = store.last_stats();
        assert_eq!(st_off.chunks_skipped, 0);
        assert_eq!(st_off.chunks_fetched, 50);
    }

    #[test]
    fn filtered_count_and_avg_follow_matched_elements() {
        let (mut store, proxy) = store_with_matrix(64);
        let pred = ValuePredicate::Range {
            lo: Num::Int(10),
            hi: Num::Int(13),
        };
        let n = store
            .resolve_aggregate_filtered(
                &proxy,
                &pred,
                AggregateOp::Count,
                RetrievalStrategy::Single,
            )
            .unwrap();
        assert_eq!(n, Num::Int(4));
        let avg = store
            .resolve_aggregate_filtered(&proxy, &pred, AggregateOp::Avg, RetrievalStrategy::Single)
            .unwrap();
        assert_eq!(avg, Num::Real(11.5));
        // No matches: Count/Sum yield zero, Min errors (empty semantics).
        let none = ValuePredicate::Range {
            lo: Num::Int(1000),
            hi: Num::Int(2000),
        };
        assert_eq!(
            store
                .resolve_aggregate_filtered(
                    &proxy,
                    &none,
                    AggregateOp::Count,
                    RetrievalStrategy::Single
                )
                .unwrap(),
            Num::Int(0)
        );
        assert_eq!(store.last_stats().chunks_skipped, 50);
        assert_eq!(store.last_stats().statements, 0);
        assert!(store
            .resolve_aggregate_filtered(&proxy, &none, AggregateOp::Min, RetrievalStrategy::Single)
            .is_err());
    }

    #[test]
    fn resolve_filtered_preserves_view_order() {
        let (mut store, proxy) = store_with_matrix(64);
        let pred = ValuePredicate::In(vec![Num::Int(399), Num::Int(5), Num::Int(123)]);
        let got = store
            .resolve_filtered(&proxy, &pred, RetrievalStrategy::Single)
            .unwrap();
        // View order, not predicate order.
        assert_eq!(got, vec![Num::Int(5), Num::Int(123), Num::Int(399)]);
        assert_eq!(store.last_stats().chunks_fetched, 3);
        assert_eq!(store.last_stats().chunks_skipped, 47);
    }

    #[test]
    fn resolve_exists_early_exit_and_full_skip() {
        let (mut store, proxy) = store_with_matrix(64);
        let hit = ValuePredicate::In(vec![Num::Int(42)]);
        assert!(store
            .resolve_exists(&proxy, &hit, RetrievalStrategy::Single)
            .unwrap());
        let miss = ValuePredicate::In(vec![Num::Int(-7)]);
        assert!(!store
            .resolve_exists(&proxy, &miss, RetrievalStrategy::Single)
            .unwrap());
        // Everything pruned: no statements reached the back-end.
        assert_eq!(store.last_stats().statements, 0);
        assert_eq!(store.last_stats().chunks_skipped, 50);
    }

    #[test]
    fn filtered_parallel_matches_sequential_bitwise() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let vals: Vec<f64> = (0..500).map(|i| (i as f64 * 0.7).sin() * 100.0).collect();
        let a = NumArray::from_f64(vals);
        let proxy = store.store_array(&a, 64).unwrap();
        let pred = ValuePredicate::Range {
            lo: Num::Real(-25.0),
            hi: Num::Real(25.0),
        };
        for op in [
            AggregateOp::Sum,
            AggregateOp::Avg,
            AggregateOp::Min,
            AggregateOp::Max,
            AggregateOp::Count,
        ] {
            let seq = store
                .resolve_aggregate_filtered(&proxy, &pred, op, RetrievalStrategy::Single)
                .unwrap();
            for workers in [2, 4, 8] {
                let par = store
                    .resolve_aggregate_filtered_parallel(
                        &proxy,
                        &pred,
                        op,
                        RetrievalStrategy::Single,
                        crate::ParallelConfig::with_workers(workers),
                    )
                    .unwrap();
                assert_eq!(
                    par.as_f64().to_bits(),
                    seq.as_f64().to_bits(),
                    "{op:?} @ {workers} workers"
                );
            }
        }
    }

    #[test]
    fn raw_policy_still_skips_via_summaries() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        store.set_codec(CodecPolicy::Raw);
        let m = NumArray::from_i64_shaped((0..400).collect(), &[20, 20]).unwrap();
        let proxy = store.store_array(&m, 64).unwrap();
        let pred = ValuePredicate::Range {
            lo: Num::Int(0),
            hi: Num::Int(7),
        };
        let sum = store
            .resolve_aggregate_filtered(&proxy, &pred, AggregateOp::Sum, RetrievalStrategy::Single)
            .unwrap();
        assert_eq!(sum, Num::Int(28));
        assert_eq!(store.last_stats().chunks_fetched, 1);
        assert_eq!(store.last_stats().chunks_skipped, 49);
    }
}
