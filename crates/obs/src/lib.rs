//! Query-level observability for SSDM: a lightweight span/counter
//! recorder with monotonic log2-bucketed latency histograms and
//! Prometheus-text rendering — no external dependencies.
//!
//! The dissertation's evaluation chapters are built on per-phase timing
//! breakdowns of array access patterns; this crate is the substrate
//! those measurements report into at runtime:
//!
//! * [`Counter`] — a relaxed atomic monotonic counter;
//! * [`Histogram`] — fixed log2 buckets over microseconds (bucket `i`
//!   holds observations in `[2^(i-1), 2^i)` µs), recording is two
//!   relaxed atomic adds;
//! * [`Span`] — an RAII timer that observes its elapsed wall time into
//!   a histogram on drop;
//! * [`Recorder`] — a process-global registry of named counters and
//!   histograms; hot paths cache `Arc` handles in `OnceLock` statics so
//!   the registry lock is taken once per name per process;
//! * [`Report`] — a *structured* snapshot of engine statistics
//!   (sections × metric names × explicit [`Scope`]), replacing ad-hoc
//!   string concatenation; it renders both the human `.stats` text and
//!   the Prometheus exposition format.
//!
//! Recording can be globally disabled ([`Recorder::set_enabled`]) to
//! measure the recorder's own overhead (see `repro_obs` in the bench
//! crate); the documented budget is <3% on the parallel-retrieval
//! workload.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Number of finite histogram buckets. Bucket `i >= 1` covers
/// `[2^(i-1), 2^i)` microseconds; bucket 0 covers sub-microsecond
/// observations. The last finite bucket's upper bound is ~36 minutes;
/// anything beyond lands in `+Inf`.
pub const HISTOGRAM_BUCKETS: usize = 32;

/// A monotonic counter. Cheap enough for per-chunk hot paths.
#[derive(Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    pub fn add(&self, delta: u64) {
        if delta > 0 {
            self.value.fetch_add(delta, Ordering::Relaxed);
        }
    }

    pub fn inc(&self) {
        self.value.fetch_add(1, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A monotonic latency histogram with fixed log2 buckets over
/// microseconds. Observations are two relaxed atomic adds; snapshots
/// are lock-free reads.
pub struct Histogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    overflow: AtomicU64,
    count: AtomicU64,
    sum_micros: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            overflow: AtomicU64::new(0),
            count: AtomicU64::new(0),
            sum_micros: AtomicU64::new(0),
        }
    }
}

/// A point-in-time copy of a histogram's buckets.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket (non-cumulative) counts; index as in [`Histogram`].
    pub buckets: Vec<u64>,
    /// Observations beyond the last finite bucket.
    pub overflow: u64,
    pub count: u64,
    pub sum_micros: u64,
}

impl Histogram {
    /// The bucket index an observation of `micros` falls into.
    pub fn bucket_of(micros: u64) -> usize {
        if micros == 0 {
            0
        } else {
            (64 - micros.leading_zeros() as usize).min(HISTOGRAM_BUCKETS)
        }
    }

    /// Exclusive upper bound of finite bucket `i`, in microseconds.
    pub fn bucket_bound_micros(i: usize) -> u64 {
        1u64 << i
    }

    pub fn observe_micros(&self, micros: u64) {
        let idx = Self::bucket_of(micros);
        if idx < HISTOGRAM_BUCKETS {
            self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        } else {
            self.overflow.fetch_add(1, Ordering::Relaxed);
        }
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_micros.fetch_add(micros, Ordering::Relaxed);
    }

    pub fn observe(&self, elapsed: std::time::Duration) {
        self.observe_micros(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    pub fn sum_micros(&self) -> u64 {
        self.sum_micros.load(Ordering::Relaxed)
    }

    pub fn snapshot(&self) -> HistogramSnapshot {
        HistogramSnapshot {
            buckets: self
                .buckets
                .iter()
                .map(|b| b.load(Ordering::Relaxed))
                .collect(),
            overflow: self.overflow.load(Ordering::Relaxed),
            count: self.count(),
            sum_micros: self.sum_micros(),
        }
    }
}

/// An RAII timing span: created against a histogram handle, it observes
/// the elapsed wall time on drop. When the recorder is disabled the
/// span is inert (no clock reads).
pub struct Span {
    target: Option<(Arc<Histogram>, Instant)>,
}

impl Span {
    /// Start a span against a cached histogram handle, respecting the
    /// global enable switch.
    pub fn start(hist: &Arc<Histogram>) -> Span {
        if recorder().enabled() {
            Span {
                target: Some((Arc::clone(hist), Instant::now())),
            }
        } else {
            Span { target: None }
        }
    }

    /// [`Span::start`] for work that began `already` ago: its first
    /// part (a statement's parse) was timed apart.
    pub fn start_back(hist: &Arc<Histogram>, already: std::time::Duration) -> Span {
        let mut span = Span::start(hist);
        if let Some((_, start)) = span.target.as_mut() {
            *start = start.checked_sub(already).unwrap_or(*start);
        }
        span
    }

    /// A span that never records (for code paths that must hand back a
    /// `Span` unconditionally).
    pub fn disabled() -> Span {
        Span { target: None }
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        if let Some((hist, start)) = self.target.take() {
            hist.observe(start.elapsed());
        }
    }
}

/// The process-global registry of named counters and histograms.
pub struct Recorder {
    enabled: AtomicBool,
    counters: Mutex<std::collections::BTreeMap<&'static str, Arc<Counter>>>,
    histograms: Mutex<std::collections::BTreeMap<&'static str, Arc<Histogram>>>,
}

impl Recorder {
    fn new() -> Self {
        Recorder {
            enabled: AtomicBool::new(true),
            counters: Mutex::new(Default::default()),
            histograms: Mutex::new(Default::default()),
        }
    }

    /// Whether spans/counters record. On by default; switched off only
    /// to measure recorder overhead.
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Look up (or create) a named counter. Call sites should cache the
    /// handle in a `OnceLock` static rather than re-resolving per hit.
    pub fn counter(&self, name: &'static str) -> Arc<Counter> {
        Arc::clone(
            self.counters
                .lock()
                .expect("obs counter registry")
                .entry(name)
                .or_default(),
        )
    }

    /// Look up (or create) a named histogram.
    pub fn histogram(&self, name: &'static str) -> Arc<Histogram> {
        Arc::clone(
            self.histograms
                .lock()
                .expect("obs histogram registry")
                .entry(name)
                .or_default(),
        )
    }

    /// Add to a named counter (slow path; prefer cached handles).
    pub fn add(&self, name: &'static str, delta: u64) {
        if self.enabled() {
            self.counter(name).add(delta);
        }
    }

    /// Render every registered counter and histogram in the Prometheus
    /// text exposition format (version 0.0.4). Histograms emit
    /// cumulative `_bucket{le="..."}` series with bounds in seconds,
    /// plus `_sum` (seconds) and `_count`.
    pub fn prometheus_text(&self) -> String {
        let mut out = String::new();
        let counters: Vec<(&'static str, Arc<Counter>)> = self
            .counters
            .lock()
            .expect("obs counter registry")
            .iter()
            .map(|(n, c)| (*n, Arc::clone(c)))
            .collect();
        for (name, counter) in counters {
            out.push_str(&format!("# TYPE {name} counter\n"));
            out.push_str(&format!("{name} {}\n", counter.get()));
        }
        let histograms: Vec<(&'static str, Arc<Histogram>)> = self
            .histograms
            .lock()
            .expect("obs histogram registry")
            .iter()
            .map(|(n, h)| (*n, Arc::clone(h)))
            .collect();
        for (name, hist) in histograms {
            let snap = hist.snapshot();
            out.push_str(&format!("# TYPE {name} histogram\n"));
            let mut cumulative = 0u64;
            for (i, n) in snap.buckets.iter().enumerate() {
                cumulative += n;
                // Render only buckets that advance the CDF, plus the
                // first — full 33-series dumps drown the useful signal.
                if *n == 0 && i != 0 {
                    continue;
                }
                let le = Histogram::bucket_bound_micros(i) as f64 / 1e6;
                out.push_str(&format!("{name}_bucket{{le=\"{le}\"}} {cumulative}\n"));
            }
            out.push_str(&format!("{name}_bucket{{le=\"+Inf\"}} {}\n", snap.count));
            out.push_str(&format!("{name}_sum {}\n", snap.sum_micros as f64 / 1e6));
            out.push_str(&format!("{name}_count {}\n", snap.count));
        }
        out
    }
}

/// The global recorder every layer reports into.
pub fn recorder() -> &'static Recorder {
    static RECORDER: OnceLock<Recorder> = OnceLock::new();
    RECORDER.get_or_init(Recorder::new)
}

// ---------------------------------------------------------------------------
// Structured statistics report
// ---------------------------------------------------------------------------

/// Whether a metric accumulates over the engine's lifetime or describes
/// only the most recent operation. Surfacing this explicitly is what
/// keeps `.stats` / `STATS` from conflating the two.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scope {
    Cumulative,
    LastOp,
}

impl Scope {
    pub fn label(&self) -> &'static str {
        match self {
            Scope::Cumulative => "cumulative",
            Scope::LastOp => "last_op",
        }
    }
}

/// One metric value.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MetricValue {
    Int(u64),
    Float(f64),
}

impl std::fmt::Display for MetricValue {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MetricValue::Int(v) => write!(f, "{v}"),
            MetricValue::Float(v) => write!(f, "{v:.3}"),
        }
    }
}

/// One named metric within a report section. A metric may carry one
/// label pair (e.g. `tenant="alice"`), which scopes the series in both
/// the `.stats` text and the Prometheus rendering — the mechanism the
/// multi-tenant serving layer uses for per-tenant accounting.
#[derive(Debug, Clone)]
pub struct Metric {
    pub section: &'static str,
    pub name: &'static str,
    pub scope: Scope,
    pub value: MetricValue,
    /// Optional `(label_name, label_value)` pair.
    pub label: Option<(&'static str, String)>,
}

/// A structured snapshot of engine statistics: the single registry
/// behind `.stats`, the `STATS` wire statement, and the counter half of
/// the `METRICS` Prometheus dump.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
}

impl Report {
    pub fn push_int(&mut self, section: &'static str, scope: Scope, name: &'static str, v: u64) {
        self.metrics.push(Metric {
            section,
            name,
            scope,
            value: MetricValue::Int(v),
            label: None,
        });
    }

    pub fn push_float(&mut self, section: &'static str, scope: Scope, name: &'static str, v: f64) {
        self.metrics.push(Metric {
            section,
            name,
            scope,
            value: MetricValue::Float(v),
            label: None,
        });
    }

    /// Push a labelled integer series, e.g.
    /// `push_labeled_int("tenant", Cumulative, "admitted", ("tenant", "alice"), 3)`.
    pub fn push_labeled_int(
        &mut self,
        section: &'static str,
        scope: Scope,
        name: &'static str,
        label: (&'static str, impl Into<String>),
        v: u64,
    ) {
        self.metrics.push(Metric {
            section,
            name,
            scope,
            value: MetricValue::Int(v),
            label: Some((label.0, label.1.into())),
        });
    }

    /// Look a metric up by section and name.
    pub fn get(&self, section: &str, name: &str) -> Option<MetricValue> {
        self.metrics
            .iter()
            .find(|m| m.section == section && m.name == name && m.label.is_none())
            .map(|m| m.value)
    }

    /// Look a labelled metric up by section, name, and label value.
    pub fn get_labeled(&self, section: &str, name: &str, label_value: &str) -> Option<MetricValue> {
        self.metrics
            .iter()
            .find(|m| {
                m.section == section
                    && m.name == name
                    && m.label.as_ref().is_some_and(|(_, v)| v == label_value)
            })
            .map(|m| m.value)
    }

    /// Render the human-readable `.stats` text: one line per
    /// `section[scope]`, metrics as `name=value` in insertion order.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        let mut current: Option<(&str, Scope)> = None;
        for m in &self.metrics {
            if current != Some((m.section, m.scope)) {
                if current.is_some() {
                    out.push('\n');
                }
                out.push_str(&format!("{}[{}]:", m.section, m.scope.label()));
                current = Some((m.section, m.scope));
            }
            match &m.label {
                Some((k, v)) => out.push_str(&format!(" {}{{{k}={v}}}={}", m.name, m.value)),
                None => out.push_str(&format!(" {}={}", m.name, m.value)),
            }
        }
        if current.is_some() {
            out.push('\n');
        }
        out
    }

    /// Render the report's metrics in Prometheus text format.
    /// Cumulative integers become `ssdm_<section>_<name>_total`
    /// counters; everything else becomes a gauge labelled with its
    /// scope.
    pub fn render_prometheus(&self) -> String {
        let mut out = String::new();
        let mut typed: std::collections::BTreeSet<String> = Default::default();
        for m in &self.metrics {
            let base = format!("ssdm_{}_{}", m.section, m.name);
            let labels = |extra: Option<String>| -> String {
                let mut parts: Vec<String> = Vec::new();
                if let Some((k, v)) = &m.label {
                    parts.push(format!("{k}=\"{v}\""));
                }
                if let Some(e) = extra {
                    parts.push(e);
                }
                if parts.is_empty() {
                    String::new()
                } else {
                    format!("{{{}}}", parts.join(","))
                }
            };
            match (m.scope, m.value) {
                (Scope::Cumulative, MetricValue::Int(v)) => {
                    if typed.insert(format!("{base}_total")) {
                        out.push_str(&format!("# TYPE {base}_total counter\n"));
                    }
                    out.push_str(&format!("{base}_total{} {v}\n", labels(None)));
                }
                (scope, value) => {
                    if typed.insert(base.clone()) {
                        out.push_str(&format!("# TYPE {base} gauge\n"));
                    }
                    out.push_str(&format!(
                        "{base}{} {value}\n",
                        labels(Some(format!("scope=\"{}\"", scope.label())))
                    ));
                }
            }
        }
        out
    }
}

/// Lightweight structural check that `text` is valid Prometheus text
/// exposition format: every non-comment line is `name[{labels}] value`
/// with a parseable float value and a legal metric name. Used by tests
/// and the CI metrics smoke.
pub fn validate_prometheus_text(text: &str) -> Result<(), String> {
    fn name_ok(name: &str) -> bool {
        !name.is_empty()
            && name.chars().enumerate().all(|(i, c)| {
                c.is_ascii_alphabetic() || c == '_' || c == ':' || (i > 0 && c.is_ascii_digit())
            })
    }
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .ok_or_else(|| format!("line {}: no value: {line:?}", lineno + 1))?;
        if value != "+Inf" && value.parse::<f64>().is_err() {
            return Err(format!("line {}: bad value {value:?}", lineno + 1));
        }
        let name = match series.split_once('{') {
            Some((name, labels)) => {
                if !labels.ends_with('}') {
                    return Err(format!("line {}: unterminated labels", lineno + 1));
                }
                name
            }
            None => series,
        };
        if !name_ok(name) {
            return Err(format!("line {}: bad metric name {name:?}", lineno + 1));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let c = Counter::default();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(0);
        assert_eq!(c.get(), 42);
    }

    #[test]
    fn histogram_bucketing_is_log2() {
        assert_eq!(Histogram::bucket_of(0), 0);
        assert_eq!(Histogram::bucket_of(1), 1);
        assert_eq!(Histogram::bucket_of(2), 2);
        assert_eq!(Histogram::bucket_of(3), 2);
        assert_eq!(Histogram::bucket_of(4), 3);
        assert_eq!(Histogram::bucket_of(1023), 10);
        assert_eq!(Histogram::bucket_of(1024), 11);
        assert_eq!(Histogram::bucket_of(u64::MAX), HISTOGRAM_BUCKETS);
    }

    #[test]
    fn histogram_observations_land_in_buckets() {
        let h = Histogram::default();
        h.observe_micros(0);
        h.observe_micros(1);
        h.observe_micros(1000);
        h.observe_micros(u64::MAX);
        let s = h.snapshot();
        assert_eq!(s.count, 4);
        assert_eq!(s.buckets[0], 1);
        assert_eq!(s.buckets[1], 1);
        assert_eq!(s.buckets[10], 1);
        assert_eq!(s.overflow, 1);
    }

    #[test]
    fn span_records_on_drop() {
        let h = recorder().histogram("obs_test_span_seconds");
        let before = h.count();
        {
            let _s = Span::start(&h);
            std::thread::sleep(std::time::Duration::from_micros(50));
        }
        assert_eq!(h.count(), before + 1);
        assert!(h.sum_micros() > 0);
    }

    #[test]
    fn disabled_recorder_skips_spans() {
        let h = recorder().histogram("obs_test_disabled_seconds");
        recorder().set_enabled(false);
        {
            let _s = Span::start(&h);
        }
        recorder().set_enabled(true);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn report_renders_scoped_text() {
        let mut r = Report::default();
        r.push_int("cache", Scope::Cumulative, "hits", 10);
        r.push_int("cache", Scope::Cumulative, "misses", 2);
        r.push_int("apr", Scope::LastOp, "chunks", 7);
        let text = r.render_text();
        assert!(text.contains("cache[cumulative]: hits=10 misses=2"));
        assert!(text.contains("apr[last_op]: chunks=7"));
        assert_eq!(r.get("cache", "hits"), Some(MetricValue::Int(10)));
    }

    #[test]
    fn prometheus_output_is_valid() {
        let h = recorder().histogram("obs_test_prom_seconds");
        h.observe_micros(3);
        h.observe_micros(900);
        recorder().counter("obs_test_prom_total").add(5);
        let text = recorder().prometheus_text();
        validate_prometheus_text(&text).unwrap();
        assert!(text.contains("# TYPE obs_test_prom_seconds histogram"));
        assert!(text.contains("obs_test_prom_seconds_count 2"));
        assert!(text.contains("obs_test_prom_total 5"));

        let mut r = Report::default();
        r.push_int("cache", Scope::Cumulative, "hits", 10);
        r.push_float("cache", Scope::Cumulative, "hit_rate", 0.5);
        r.push_int("apr", Scope::LastOp, "chunks", 7);
        let text = r.render_prometheus();
        validate_prometheus_text(&text).unwrap();
        assert!(text.contains("ssdm_cache_hits_total 10"));
        assert!(text.contains("ssdm_apr_chunks{scope=\"last_op\"} 7"));
    }

    #[test]
    fn labeled_metrics_render_in_both_formats() {
        let mut r = Report::default();
        r.push_labeled_int(
            "tenant",
            Scope::Cumulative,
            "admitted",
            ("tenant", "alice"),
            3,
        );
        r.push_labeled_int(
            "tenant",
            Scope::Cumulative,
            "admitted",
            ("tenant", "bob"),
            7,
        );
        let text = r.render_text();
        assert!(text.contains("admitted{tenant=alice}=3"), "{text}");
        assert!(text.contains("admitted{tenant=bob}=7"), "{text}");
        let prom = r.render_prometheus();
        validate_prometheus_text(&prom).unwrap();
        assert!(
            prom.contains("ssdm_tenant_admitted_total{tenant=\"alice\"} 3"),
            "{prom}"
        );
        assert!(
            prom.contains("ssdm_tenant_admitted_total{tenant=\"bob\"} 7"),
            "{prom}"
        );
        // The shared # TYPE header is emitted once, not per series.
        assert_eq!(prom.matches("# TYPE ssdm_tenant_admitted_total").count(), 1);
        assert_eq!(
            r.get_labeled("tenant", "admitted", "bob"),
            Some(MetricValue::Int(7))
        );
    }

    #[test]
    fn validator_rejects_garbage() {
        assert!(validate_prometheus_text("ok_metric 1\n").is_ok());
        assert!(validate_prometheus_text("9bad 1\n").is_err());
        assert!(validate_prometheus_text("no_value\n").is_err());
        assert!(validate_prometheus_text("bad_value x\n").is_err());
        assert!(validate_prometheus_text("unterminated{le=\"1\" 3\n").is_err());
    }

    #[test]
    fn histogram_buckets_are_cumulative_in_prometheus() {
        let h = recorder().histogram("obs_test_cdf_seconds");
        for us in [1u64, 1, 3, 900, 70_000] {
            h.observe_micros(us);
        }
        let text = recorder().prometheus_text();
        // The +Inf bucket equals the count.
        let inf = text
            .lines()
            .find(|l| l.starts_with("obs_test_cdf_seconds_bucket{le=\"+Inf\"}"))
            .unwrap();
        assert!(inf.ends_with(" 5"), "{inf}");
    }
}
