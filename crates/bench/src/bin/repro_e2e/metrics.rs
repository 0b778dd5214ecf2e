//! The metric tables: every name this benchmark reports, with its unit,
//! which direction is better and, for end-to-end metrics, the share of
//! the parent's median by which it may worsen. `BENCHMARK.json` repeats
//! these tables; a unit test holds the two together.

use crate::workloads::TEMPLATES;

pub struct MetricDef {
    pub name: String,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Regression bound; `None` for per-layer metrics.
    pub bound: Option<f64>,
}

fn def(name: &str, unit: &'static str, better: &'static str) -> MetricDef {
    MetricDef {
        name: name.to_string(),
        unit,
        better,
        bound: None,
    }
}

/// What a user of the system sees, measured over the sockets with
/// tracing off, on every workload. Every bound is the widest the
/// contract allows: on the two-core sandbox the same build drifts by
/// 5-20 % from one ten-minute stretch to the next (README, "Measured
/// spreads"), and a tighter bound would reject the build against
/// itself.
pub fn end_to_end() -> Vec<MetricDef> {
    [
        ("setup_s", "s", "lower", 0.25),
        ("throughput_rps", "req/s", "higher", 0.25),
        ("query_p50_ms", "ms", "lower", 0.25),
        ("query_p95_ms", "ms", "lower", 0.25),
        ("cpu_ms_per_req", "ms", "lower", 0.25),
        ("peak_rss_mib", "MiB", "lower", 0.25),
    ]
    .into_iter()
    .map(|(name, unit, better, bound)| MetricDef {
        bound: Some(bound),
        ..def(name, unit, better)
    })
    .collect()
}

/// Single-layer metrics, reported by a traced run. The first four are
/// end-to-end observations that are undefined (or zero) on some
/// workloads and so cannot carry a regression bound.
pub fn per_layer() -> Vec<MetricDef> {
    let mut defs = vec![
        def("update_p50_ms", "ms", "lower"),
        def("update_p95_ms", "ms", "lower"),
        def("failed_share", "ratio", "lower"),
        def("stored_bytes_per_user_byte", "ratio", "lower"),
        def("client.requests", "count", "higher"),
    ];
    defs.extend(
        TEMPLATES
            .iter()
            .map(|t| def(&format!("client.p50_ms.{}", t.name), "ms", "lower")),
    );
    defs.extend(
        [
            ("http.parser.us_per_req", "us", "lower"),
            ("http.router.us_per_req", "us", "lower"),
            ("http.results.serialize_us_per_req", "us", "lower"),
            ("http.results.body_bytes_per_req", "bytes", "lower"),
            ("http.encode_us_per_req", "us", "lower"),
            ("http.server_exec_us_per_req", "us", "lower"),
            ("http.wire_us_per_req", "us", "lower"),
            ("http.non2xx", "count", "lower"),
            ("tenant.admit_us_per_req", "us", "lower"),
            ("tenant.admitted", "count", "higher"),
            ("tenant.rejected", "count", "lower"),
            ("tenant.timed_out", "count", "lower"),
            ("engine.lock_wait_us_per_req", "us", "lower"),
            ("engine.lock_hold_us_per_req", "us", "lower"),
            ("engine.query_us_per_req", "us", "lower"),
            ("core.parser.us_per_req", "us", "lower"),
            ("core.planner.us_per_req", "us", "lower"),
            ("core.eval.self_us_per_req", "us", "lower"),
            ("core.eval.rows_out_per_req", "count", "lower"),
            ("rdf.graph.triples", "count", "lower"),
            ("storage.apr.statements_per_req", "count", "lower"),
            ("storage.apr.chunks_fetched_per_req", "count", "lower"),
            ("storage.apr.bytes_fetched_per_req", "bytes", "lower"),
            ("storage.apr.elements_resolved_per_req", "count", "lower"),
            ("storage.apr.chunks_skipped_per_req", "count", "higher"),
            ("storage.apr.chunks_decoded_per_req", "count", "lower"),
            ("storage.apr.bytes_decoded_per_req", "bytes", "lower"),
            ("storage.apr.overfetch_ratio", "ratio", "lower"),
            ("storage.apr.self_us_per_req", "us", "lower"),
            ("storage.cache.hits_per_req", "count", "higher"),
            ("storage.cache.misses_per_req", "count", "lower"),
            ("storage.cache.hit_rate", "ratio", "higher"),
            ("storage.cache.evictions_per_req", "count", "lower"),
            ("storage.cache.resident_bytes", "bytes", "lower"),
            ("storage.cache.self_us_per_req", "us", "lower"),
            ("storage.codec.decode_us_per_req", "us", "lower"),
            ("storage.codec.decode_mb_per_s", "MB/s", "higher"),
            ("storage.codec.stored_ratio", "ratio", "lower"),
            ("storage.store.busy_us_per_req.rel", "us", "lower"),
            ("storage.store.busy_us_per_req.file", "us", "lower"),
            ("storage.store.statements_per_req.rel", "count", "lower"),
            ("storage.store.statements_per_req.file", "count", "lower"),
            ("storage.store.bytes_returned_per_req.rel", "bytes", "lower"),
            (
                "storage.store.bytes_returned_per_req.file",
                "bytes",
                "lower",
            ),
            ("relstore.pool.hit_rate", "ratio", "higher"),
            ("relstore.pool.evictions_per_req", "count", "lower"),
            ("array.kernel.invocations_per_req", "count", "lower"),
            ("array.kernel.elements_per_req", "count", "lower"),
            ("array.kernel.scalar_fallbacks_per_req", "count", "lower"),
            ("array.kernel.parallel_folds_per_req", "count", "higher"),
            ("storage.wal.records_per_update", "count", "lower"),
            ("storage.wal.bytes_per_update", "bytes", "lower"),
            ("storage.wal.fsyncs_per_update", "count", "lower"),
            ("storage.wal.bytes_per_user_byte", "ratio", "lower"),
            ("storage.wal.fsync_us_per_update", "us", "lower"),
            ("trace.overhead_share", "ratio", "lower"),
            ("trace.unattributed_share", "ratio", "lower"),
        ]
        .into_iter()
        .map(|(name, unit, better)| def(name, unit, better)),
    );
    defs
}

/// Named values a run measured, in reporting order, and remarks on how
/// the run went that are printed beside them.
#[derive(Default)]
pub struct Values {
    named: Vec<(String, f64)>,
    pub remarks: Vec<String>,
}

impl Values {
    pub fn set(&mut self, name: &str, value: f64) {
        match self.named.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.named.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.named.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Json;
    use crate::workloads::WORKLOADS;

    fn rows(defs: &[MetricDef]) -> Vec<Json> {
        defs.iter()
            .map(|d| {
                let mut row = vec![
                    ("name", Json::Str(d.name.clone())),
                    ("unit", Json::Str(d.unit.into())),
                    ("better", Json::Str(d.better.into())),
                ];
                if let Some(bound) = d.bound {
                    row.push(("bound", Json::Num(bound)));
                }
                Json::obj(row)
            })
            .collect()
    }

    /// `BENCHMARK.json` is data for the driver and cannot import these
    /// tables, so this test is what keeps it equal to them.
    #[test]
    fn benchmark_json_repeats_these_tables() {
        let committed = Json::parse(include_str!("../../../../../BENCHMARK.json"))
            .expect("BENCHMARK.json parses");
        let workloads: Vec<Json> = WORKLOADS
            .iter()
            .map(|w| {
                Json::obj([
                    ("name", Json::Str(w.name.into())),
                    ("why", Json::Str(w.why.into())),
                ])
            })
            .collect();
        assert_eq!(committed.get("workloads"), Some(&Json::Arr(workloads)));
        assert_eq!(
            committed.get("end_to_end"),
            Some(&Json::Arr(rows(&end_to_end())))
        );
        assert_eq!(
            committed.get("per_layer"),
            Some(&Json::Arr(rows(&per_layer())))
        );
        assert_eq!(
            committed.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
        let Some(Json::Obj(keys)) = Some(&committed) else {
            panic!("BENCHMARK.json is an object");
        };
        let keys: Vec<&str> = keys.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
    }

    #[test]
    fn names_are_unique_and_within_the_contract_limits() {
        let mut names: Vec<String> = end_to_end()
            .into_iter()
            .chain(per_layer())
            .map(|d| d.name)
            .collect();
        assert!(per_layer().len() <= 128);
        for name in &names {
            assert!(name.len() <= 64, "{name}");
            assert!(name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
        }
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
