//! A traced run: the per-layer metrics of one workload.
//!
//! After one set-up the run replays requests `WARMUP..WARMUP + N` of
//! every client in-process under spans ([`crate::replay`]; the replay
//! threads alone are let off the run's one CPU), then serves
//! the sequences onward over sockets, untraced, for the run's wall
//! time. Span times and storage counter deltas come from the replay;
//! client medians, server histograms, tenant and log counters from the
//! served phase. Nothing here feeds an end-to-end metric.

use std::path::Path;
use std::sync::atomic::Ordering;

use relstore::PoolStats;
use ssdm::DurabilityStats;
use ssdm_array::ComputeStats;
use ssdm_storage::{AprStats, CacheStats, IoStats};

use crate::metrics::{per_layer, Values};
use crate::replay::{self, Replayed};
use crate::run::{self, Outcome, Phase, Tally, WARMUP_REQUESTS};
use crate::stats::{median, on_every_cpu};
use crate::trace::{self, Analysis, DECODE_PROBE, ROOT};
use crate::workloads::{Setup, TraceKit, RW_TRAJECTORY_LEN, TEMPLATES};

/// `trace.unattributed_share` must stay below this.
const MAX_UNATTRIBUTED: f64 = 0.10;

/// Count and summed microseconds of one of the server's histograms.
#[derive(Clone, Copy, Default)]
struct Hist {
    count: u64,
    sum_us: u64,
}

impl Hist {
    fn read(name: &'static str) -> Hist {
        let h = ssdm_obs::recorder().histogram(name);
        Hist {
            count: h.count(),
            sum_us: h.sum_micros(),
        }
    }

    /// Mean microseconds per observation since `earlier`.
    fn mean_us_since(self, earlier: Hist) -> f64 {
        ratio(
            (self.sum_us - earlier.sum_us) as f64,
            (self.count - earlier.count) as f64,
        )
    }
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Every public counter the layers export, read at one instant.
#[derive(Default)]
struct Counters {
    apr: AprStats,
    cache: CacheStats,
    /// Back-end statement counters per data tenant, in `Setup::tenants`
    /// order.
    io: Vec<IoStats>,
    compute: ComputeStats,
    pool: PoolStats,
    wal: Option<DurabilityStats>,
    http: Hist,
    query: Hist,
    fsync: Hist,
    admitted: u64,
    rejected: u64,
    timed_out: u64,
}

impl Counters {
    fn read(setup: &Setup, kit: &TraceKit) -> Counters {
        let mut c = Counters {
            compute: ssdm_array::compute_stats(),
            http: Hist::read("ssdm_http_request_seconds"),
            query: Hist::read("ssdm_query_seconds"),
            fsync: Hist::read("ssdm_wal_fsync_seconds"),
            ..Counters::default()
        };
        for name in &setup.tenants {
            let tenant = setup.registry.get(name).expect("data tenant");
            let mut db = tenant.engine().lock().expect("engine lock");
            if *name == "rel" {
                // Runs the wrapper's tap, which copies the pool counters
                // out of the concrete store.
                db.dataset.arrays.backend_mut().sync().expect("sync");
                c.pool = *kit.pool.lock().expect("pool stats cell");
            }
            let apr = db.dataset.arrays.cumulative_stats();
            c.apr.statements += apr.statements;
            c.apr.chunks_fetched += apr.chunks_fetched;
            c.apr.bytes_fetched += apr.bytes_fetched;
            c.apr.elements_resolved += apr.elements_resolved;
            c.apr.chunks_skipped += apr.chunks_skipped;
            c.apr.chunks_decoded += apr.chunks_decoded;
            c.apr.bytes_decoded += apr.bytes_decoded;
            let backend = db.dataset.arrays.backend();
            let cache = backend.cache_stats();
            c.cache.hits += cache.hits;
            c.cache.misses += cache.misses;
            c.cache.evictions += cache.evictions;
            c.cache.resident_bytes += cache.resident_bytes;
            c.io.push(backend.io_stats());
            c.wal = c.wal.or(db.durability_stats());

            let counters = &tenant.counters;
            c.admitted += counters.admitted.load(Ordering::Relaxed);
            c.timed_out += counters.timed_out.load(Ordering::Relaxed);
            c.rejected += counters.rejected_rate.load(Ordering::Relaxed)
                + counters.rejected_quota.load(Ordering::Relaxed)
                + counters.rejected_overload.load(Ordering::Relaxed);
        }
        c
    }
}

/// A traced run of `workload`.
pub fn per_layer_run(workload: &'static str, seed: u64, seconds: f64, work_dir: &Path) -> Outcome {
    let scratch = run::scratch_dir(work_dir, workload);
    let mut kit = TraceKit::new();
    let (serving, warm, _) = run::set_up(workload, seed, &scratch, Some(&mut kit));
    let setup = &serving.setup;

    let before = Counters::read(setup, &kit);
    let replayed =
        on_every_cpu(|| replay::replay(setup, &kit, WARMUP_REQUESTS, setup.traced_requests));
    let between = Counters::read(setup, &kit);
    let phase = run::measure(&serving, WARMUP_REQUESTS + setup.traced_requests, seconds);
    let after = Counters::read(setup, &kit);

    let analysis = Analysis::of(&replayed.spans);
    let mut values = Values::default();
    for def in per_layer() {
        values.set(&def.name, 0.0);
    }
    let mut error = run::reduce(&phase, setup, &scratch, &mut values);
    client_layer(&phase, &mut values);
    served_layers(&phase, &between, &after, &mut values);
    replayed_layers(
        &replayed,
        &analysis,
        &before,
        &between,
        setup,
        &kit,
        &mut values,
    );
    values.set("rdf.graph.triples", setup.triples as f64);
    // The replay spans `router::execute`'s scope: lock, query,
    // serialise. Its per-request time against the untraced server's.
    let traced_exec_us = [replay::LOCK_WAIT, replay::LOCK_HOLD, replay::HTTP_RESULTS]
        .iter()
        .map(|name| analysis.get(name).total_ns as f64 / 1e3)
        .sum::<f64>()
        / replayed.requests as f64;
    let served_exec_us = values
        .get("http.server_exec_us_per_req")
        .expect("set above");
    values.set(
        "trace.overhead_share",
        ratio(traced_exec_us - served_exec_us, served_exec_us),
    );
    let unattributed = analysis.unattributed_share();
    values.set("trace.unattributed_share", unattributed);
    if unattributed >= MAX_UNATTRIBUTED {
        error = Some(format!(
            "trace.unattributed_share {unattributed:.4} is not below {MAX_UNATTRIBUTED}"
        ));
    }

    let trace_dir = work_dir.join(workload);
    std::fs::create_dir_all(&trace_dir).expect("create trace directory");
    trace::write_trace_json(&trace_dir.join("trace.json"), workload, &replayed.spans)
        .expect("write trace.json");

    let served = phase.tally();
    let mut acked = replayed.acked_updates;
    acked.extend(served.acked);
    let after_warm = Tally {
        attempted: replayed.requests + served.attempted,
        failed: replayed.failed + served.failed,
        acked,
    };
    run::conclude(
        workload, serving, &scratch, &warm, after_warm, values, error,
    )
}

/// Bench client: request count and per-template medians.
fn client_layer(phase: &Phase, values: &mut Values) {
    values.set("client.requests", phase.attempted() as f64);
    for (i, template) in TEMPLATES.iter().enumerate() {
        let mut ms: Vec<f64> = phase
            .latencies_ms(move |s| usize::from(s.template) == i)
            .collect();
        if let Some(p50) = median(&mut ms) {
            values.set(&format!("client.p50_ms.{}", template.name), p50);
        }
    }
}

/// What the untraced served phase shows about `ssdm::http`,
/// `ssdm::tenant`, the engine and the write-ahead log.
fn served_layers(phase: &Phase, from: &Counters, to: &Counters, values: &mut Values) {
    let server_exec_us = to.http.mean_us_since(from.http);
    let client_mean_us = ratio(
        phase.latencies_ms(|_| true).sum::<f64>() * 1e3,
        phase.samples().count() as f64,
    );
    values.set("http.server_exec_us_per_req", server_exec_us);
    values.set("http.wire_us_per_req", client_mean_us - server_exec_us);
    values.set(
        "http.non2xx",
        phase.logs.iter().map(|l| l.non_2xx).sum::<u64>() as f64,
    );
    values.set("tenant.admitted", (to.admitted - from.admitted) as f64);
    values.set("tenant.rejected", (to.rejected - from.rejected) as f64);
    values.set("tenant.timed_out", (to.timed_out - from.timed_out) as f64);
    values.set(
        "engine.query_us_per_req",
        to.query.mean_us_since(from.query),
    );

    let (Some(w0), Some(w1)) = (from.wal, to.wal) else {
        return;
    };
    let updates: u64 = phase
        .logs
        .iter()
        .map(|l| l.acked_updates.len() as u64)
        .sum();
    let inserts = phase
        .logs
        .iter()
        .flat_map(|l| &l.acked_updates)
        .filter(|i| i.is_multiple_of(2))
        .count();
    let updates = updates as f64;
    let bytes = (w1.wal.bytes_appended - w0.wal.bytes_appended) as f64;
    values.set(
        "storage.wal.records_per_update",
        ratio(
            (w1.wal.records_appended - w0.wal.records_appended) as f64,
            updates,
        ),
    );
    values.set("storage.wal.bytes_per_update", ratio(bytes, updates));
    values.set(
        "storage.wal.fsyncs_per_update",
        ratio((w1.wal.fsyncs - w0.wal.fsyncs) as f64, updates),
    );
    values.set(
        "storage.wal.bytes_per_user_byte",
        ratio(bytes, (inserts * RW_TRAJECTORY_LEN * 8) as f64),
    );
    values.set(
        "storage.wal.fsync_us_per_update",
        ratio((to.fsync.sum_us - from.fsync.sum_us) as f64, updates),
    );
}

/// Span times and storage counter deltas of the traced pass.
fn replayed_layers(
    replayed: &Replayed,
    analysis: &Analysis,
    from: &Counters,
    to: &Counters,
    setup: &Setup,
    kit: &TraceKit,
    values: &mut Values,
) {
    let n = replayed.requests as f64;
    let us_per_req = |name: &str| analysis.get(name).total_ns as f64 / 1e3 / n;
    let self_us_per_req = |name: &str| analysis.get(name).self_ns as f64 / 1e3 / n;
    let per_req = |delta: u64| delta as f64 / n;

    values.set("http.parser.us_per_req", us_per_req(replay::HTTP_PARSER));
    values.set("http.router.us_per_req", us_per_req(replay::HTTP_ROUTER));
    values.set(
        "http.results.serialize_us_per_req",
        us_per_req(replay::HTTP_RESULTS),
    );
    values.set(
        "http.results.body_bytes_per_req",
        per_req(replayed.body_bytes),
    );
    values.set("http.encode_us_per_req", us_per_req(replay::HTTP_ENCODE));
    values.set("tenant.admit_us_per_req", us_per_req(replay::TENANT_ADMIT));
    values.set("engine.lock_wait_us_per_req", us_per_req(replay::LOCK_WAIT));
    // Holding the lock, less what only the traced pass does under it.
    let planner_us = us_per_req(replay::CORE_PLANNER);
    let probe_us = us_per_req(DECODE_PROBE);
    values.set(
        "engine.lock_hold_us_per_req",
        us_per_req(replay::LOCK_HOLD) - planner_us - probe_us,
    );
    let parser_us = us_per_req(replay::CORE_PARSER);
    values.set("core.parser.us_per_req", parser_us);
    values.set("core.planner.us_per_req", planner_us);
    // `Ssdm::query` minus the store and probe spans under it, minus the
    // parse and the plan it repeats: row evaluator, APR, decode and
    // kernels, whose boundaries are not visible from outside.
    let eval_self_us = self_us_per_req(replay::CORE_EXECUTE) - parser_us - planner_us;
    values.set("core.eval.self_us_per_req", eval_self_us);
    values.set("core.eval.rows_out_per_req", per_req(replayed.rows_out));

    let apr = |f: fn(&AprStats) -> u64| per_req(f(&to.apr) - f(&from.apr));
    values.set("storage.apr.statements_per_req", apr(|a| a.statements));
    values.set(
        "storage.apr.chunks_fetched_per_req",
        apr(|a| a.chunks_fetched),
    );
    values.set(
        "storage.apr.bytes_fetched_per_req",
        apr(|a| a.bytes_fetched),
    );
    values.set(
        "storage.apr.elements_resolved_per_req",
        apr(|a| a.elements_resolved),
    );
    values.set(
        "storage.apr.chunks_skipped_per_req",
        apr(|a| a.chunks_skipped),
    );
    values.set(
        "storage.apr.chunks_decoded_per_req",
        apr(|a| a.chunks_decoded),
    );
    values.set(
        "storage.apr.bytes_decoded_per_req",
        apr(|a| a.bytes_decoded),
    );
    values.set(
        "storage.apr.overfetch_ratio",
        ratio(
            (to.apr.bytes_decoded - from.apr.bytes_decoded) as f64,
            8.0 * (to.apr.elements_resolved - from.apr.elements_resolved) as f64,
        ),
    );

    let decode_us = kit.decode.ns.load(Ordering::Relaxed) as f64 / 1e3;
    let decoded_bytes = kit.decode.decoded_bytes.load(Ordering::Relaxed) as f64;
    values.set("storage.codec.decode_us_per_req", decode_us / n);
    values.set(
        "storage.codec.decode_mb_per_s",
        ratio(decoded_bytes, decode_us),
    );
    values.set(
        "storage.codec.stored_ratio",
        ratio(
            kit.decode.stored_bytes.load(Ordering::Relaxed) as f64,
            decoded_bytes,
        ),
    );
    // Where the store is wrapped, what is left of the evaluator's self
    // time after decoding is the APR's own work plus the kernels (and
    // the row evaluator around them).
    if !kit.scopes.is_empty() {
        values.set("storage.apr.self_us_per_req", eval_self_us - decode_us / n);
    }

    let hits = to.cache.hits - from.cache.hits;
    let misses = to.cache.misses - from.cache.misses;
    values.set("storage.cache.hits_per_req", per_req(hits));
    values.set("storage.cache.misses_per_req", per_req(misses));
    values.set(
        "storage.cache.hit_rate",
        ratio(hits as f64, (hits + misses) as f64),
    );
    values.set(
        "storage.cache.evictions_per_req",
        per_req(to.cache.evictions - from.cache.evictions),
    );
    values.set(
        "storage.cache.resident_bytes",
        to.cache.resident_bytes as f64,
    );
    values.set(
        "storage.cache.self_us_per_req",
        self_us_per_req("storage.cache"),
    );

    for (i, tenant) in setup.tenants.iter().enumerate() {
        if !matches!(*tenant, "rel" | "file") {
            continue;
        }
        values.set(
            &format!("storage.store.busy_us_per_req.{tenant}"),
            us_per_req(&format!("storage.store.{tenant}")),
        );
        values.set(
            &format!("storage.store.statements_per_req.{tenant}"),
            per_req(to.io[i].statements - from.io[i].statements),
        );
        values.set(
            &format!("storage.store.bytes_returned_per_req.{tenant}"),
            per_req(to.io[i].bytes_returned - from.io[i].bytes_returned),
        );
    }
    let pool_hits = to.pool.hits - from.pool.hits;
    let pool_misses = to.pool.misses - from.pool.misses;
    values.set(
        "relstore.pool.hit_rate",
        ratio(pool_hits as f64, (pool_hits + pool_misses) as f64),
    );
    values.set(
        "relstore.pool.evictions_per_req",
        per_req(to.pool.evictions - from.pool.evictions),
    );

    let compute = |f: fn(&ComputeStats) -> u64| per_req(f(&to.compute) - f(&from.compute));
    values.set(
        "array.kernel.invocations_per_req",
        compute(|c| c.kernel_invocations),
    );
    values.set(
        "array.kernel.elements_per_req",
        compute(|c| c.elements_processed),
    );
    values.set(
        "array.kernel.scalar_fallbacks_per_req",
        compute(|c| c.scalar_fallbacks),
    );
    values.set(
        "array.kernel.parallel_folds_per_req",
        compute(|c| c.parallel_folds),
    );
    debug_assert!(analysis.get(ROOT).count == replayed.requests);
}
