//! The per-query profiler behind `EXPLAIN ANALYZE` and the slow-query
//! log.
//!
//! A [`QueryProfiler`] is attached to a [`Dataset`] for the duration of
//! one statement. It records:
//!
//! * **phase timings** — parse, rewrite (pattern → algebra), plan
//!   (optimize) and exec, in microseconds;
//! * **per-operator rows** — one row per plan node (plus the synthetic
//!   `Project`, `OrderBy` and `Materialize` operators that run outside
//!   the plan tree), each carrying its own wall time, input/output row
//!   counts, and *exclusive* storage counters (back-end statements,
//!   chunks and bytes fetched, cache hits/misses, kernel elements,
//!   fetch fallbacks).
//!
//! The executor hands batches of rows from operator to operator, so an
//! operator runs once per input batch: each run is one frame, and a
//! row adds up its frames. Counters are attributed by snapshot deltas
//! of the dataset's own backend statistics ([`CounterSnapshot`]): a
//! frame's exclusive numbers are its inclusive delta minus the deltas
//! of the frames opened inside it (the operators it feeds and calls),
//! so summing the `operator:` rows of a profile reproduces the
//! `totals:` line — and the totals are exactly the `IoStats`/cache
//! movement of the query. That reconciliation is tested, which is what
//! keeps the profile honest as operators evolve. Wall time is
//! attributed the same way, so `time_us` is an operator's own time.
//!
//! [`Dataset`]: crate::dataset::Dataset

use std::time::{Duration, Instant};

/// A point-in-time copy of every counter the profiler attributes to
/// operators. Taken from the dataset's backend at operator entry/exit.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CounterSnapshot {
    /// Back-end statements issued (`IoStats::statements`).
    pub statements: u64,
    /// Chunks returned by the back-end (`IoStats::chunks_returned`).
    pub chunks_fetched: u64,
    /// Bytes returned by the back-end (`IoStats::bytes_returned`).
    pub bytes_fetched: u64,
    /// Chunk-cache hits (`CacheStats::hits`).
    pub cache_hits: u64,
    /// Chunk-cache misses (`CacheStats::misses`).
    pub cache_misses: u64,
    /// Elements processed by typed compute kernels (process-global).
    pub kernel_elements: u64,
    /// Batched-fetch fallbacks to per-chunk retrieval (APR cumulative).
    pub fallbacks: u64,
    /// Chunks skipped by zone-map predicate pruning (APR cumulative).
    pub chunks_skipped: u64,
    /// Chunks whose fold partial the zone map decided, unread (APR
    /// cumulative).
    pub chunks_decided: u64,
    /// `SCC1` codec frames decoded (APR cumulative).
    pub chunks_decoded: u64,
    /// Uncompressed bytes produced by codec decodes (APR cumulative).
    pub bytes_decoded: u64,
}

impl CounterSnapshot {
    /// Field-wise saturating difference `self - earlier`.
    pub fn since(&self, earlier: &CounterSnapshot) -> CounterSnapshot {
        CounterSnapshot {
            statements: self.statements.saturating_sub(earlier.statements),
            chunks_fetched: self.chunks_fetched.saturating_sub(earlier.chunks_fetched),
            bytes_fetched: self.bytes_fetched.saturating_sub(earlier.bytes_fetched),
            cache_hits: self.cache_hits.saturating_sub(earlier.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(earlier.cache_misses),
            kernel_elements: self.kernel_elements.saturating_sub(earlier.kernel_elements),
            fallbacks: self.fallbacks.saturating_sub(earlier.fallbacks),
            chunks_skipped: self.chunks_skipped.saturating_sub(earlier.chunks_skipped),
            chunks_decided: self.chunks_decided.saturating_sub(earlier.chunks_decided),
            chunks_decoded: self.chunks_decoded.saturating_sub(earlier.chunks_decoded),
            bytes_decoded: self.bytes_decoded.saturating_sub(earlier.bytes_decoded),
        }
    }

    fn add(&mut self, other: &CounterSnapshot) {
        self.statements += other.statements;
        self.chunks_fetched += other.chunks_fetched;
        self.bytes_fetched += other.bytes_fetched;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.kernel_elements += other.kernel_elements;
        self.fallbacks += other.fallbacks;
        self.chunks_skipped += other.chunks_skipped;
        self.chunks_decided += other.chunks_decided;
        self.chunks_decoded += other.chunks_decoded;
        self.bytes_decoded += other.bytes_decoded;
    }

    fn render_fields(&self) -> String {
        format!(
            "statements={} chunks={} bytes={} cache_hits={} cache_misses={} kernel_elems={} fallbacks={} skipped={} decided={} decoded={} bytes_decoded={}",
            self.statements,
            self.chunks_fetched,
            self.bytes_fetched,
            self.cache_hits,
            self.cache_misses,
            self.kernel_elements,
            self.fallbacks,
            self.chunks_skipped,
            self.chunks_decided,
            self.chunks_decoded,
            self.bytes_decoded
        )
    }
}

/// One profiled operator: a plan node (or synthetic post-plan stage).
#[derive(Debug, Clone)]
pub struct OpRow {
    /// Operator label, as in `EXPLAIN` (see `algebra::node_label`).
    pub label: String,
    /// Nesting depth at entry (for tree-shaped indentation).
    pub depth: usize,
    pub rows_in: u64,
    pub rows_out: u64,
    /// Own wall time, in nanoseconds: the operator's frames minus the
    /// frames opened inside them.
    pub nanos: u64,
    /// Exclusive counters: this operator's work minus its children's.
    pub counters: CounterSnapshot,
    /// Planner cardinality estimate for this operator's total output
    /// (per-row estimate × input rows, summed over its batches), when
    /// one was computed.
    pub est: Option<f64>,
    /// The scan's constant predicate, when it has one — the key the
    /// calibration table learns correction factors under.
    pub predicate: Option<String>,
    /// Whether its consumer stopped pulling before the operator ran out
    /// of rows (`LIMIT`, `ASK`, `EXISTS`): `rows_out` is then what it
    /// handed on until the cut, and its estimate, made for all its
    /// input, is no measure of the planner.
    pub cut: bool,
}

impl OpRow {
    /// Q-error of this operator: `max(est/actual, actual/est)` with a
    /// half-row floor on both sides, `None` when no estimate exists.
    pub fn q_error(&self) -> Option<f64> {
        let est = self.est?.max(0.5);
        let actual = (self.rows_out as f64).max(0.5);
        Some((est / actual).max(actual / est))
    }
}

struct Frame {
    /// Index of this operator's row in `ops`.
    row: usize,
    start: Instant,
    entry: CounterSnapshot,
    /// Sum of the inclusive deltas of the frames completed inside it.
    children: CounterSnapshot,
    children_nanos: u64,
}

/// Collects one query's phases and operator rows. See the module docs.
pub struct QueryProfiler {
    /// Accumulated phase timings in microseconds, in first-seen order.
    phases: Vec<(&'static str, u64)>,
    ops: Vec<OpRow>,
    stack: Vec<Frame>,
}

impl QueryProfiler {
    /// A fresh profiler; `parse_micros` is the already-measured parse
    /// phase (zero when profiling a pre-parsed statement).
    pub fn new(parse_micros: u64) -> Self {
        QueryProfiler {
            phases: vec![("parse", parse_micros)],
            ops: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Add time to a named phase (accumulates across calls — a query
    /// with subpatterns rewrites and plans more than once).
    pub fn phase(&mut self, name: &'static str, elapsed: Duration) {
        let micros = elapsed.as_micros() as u64;
        match self.phases.iter_mut().find(|(n, _)| *n == name) {
            Some((_, total)) => *total += micros,
            None => self.phases.push((name, micros)),
        }
    }

    /// Add an operator row `depth` levels below the innermost open
    /// frame's (at the top level with none open) and return its index.
    pub fn add_op(&mut self, label: String, predicate: Option<String>, depth: usize) -> usize {
        let base = self.stack.last().map_or(0, |f| self.ops[f.row].depth + 1);
        self.ops.push(OpRow {
            label,
            depth: base + depth,
            rows_in: 0,
            rows_out: 0,
            nanos: 0,
            counters: CounterSnapshot::default(),
            est: None,
            predicate,
            cut: false,
        });
        self.ops.len() - 1
    }

    /// Open a frame of operator row `row` over `rows_in` input rows.
    /// Pair with [`exit`](Self::exit). `est` is the planner's output
    /// estimate for those rows; it adds to the row's.
    pub fn enter(&mut self, row: usize, snapshot: CounterSnapshot, rows_in: u64, est: Option<f64>) {
        let op = &mut self.ops[row];
        op.rows_in += rows_in;
        if let Some(est) = est {
            op.est = Some(op.est.unwrap_or(0.0) + est);
        }
        self.stack.push(Frame {
            row,
            start: Instant::now(),
            entry: snapshot,
            children: CounterSnapshot::default(),
            children_nanos: 0,
        });
    }

    /// Close the innermost frame, which handed on `rows_out` rows and
    /// was `cut` short or not.
    pub fn exit(&mut self, snapshot: CounterSnapshot, rows_out: u64, cut: bool) {
        let Some(frame) = self.stack.pop() else {
            debug_assert!(false, "profiler exit without enter");
            return;
        };
        let inclusive = snapshot.since(&frame.entry);
        let nanos = frame.start.elapsed().as_nanos() as u64;
        let row = &mut self.ops[frame.row];
        row.rows_out += rows_out;
        row.nanos += nanos.saturating_sub(frame.children_nanos);
        row.counters.add(&inclusive.since(&frame.children));
        row.cut |= cut;
        if let Some(parent) = self.stack.last_mut() {
            parent.children.add(&inclusive);
            parent.children_nanos += nanos;
        }
    }

    /// The recorded operator rows (pre-order).
    pub fn ops(&self) -> &[OpRow] {
        &self.ops
    }

    /// Render the profile. `exec_total` is the wall time of execution
    /// (everything after parse); `totals` is the whole-query counter
    /// delta the per-operator rows must sum to.
    pub fn render(&self, exec_total: Duration, totals: &CounterSnapshot) -> String {
        let mut out = String::from("EXPLAIN ANALYZE\n");
        let exec_micros = exec_total.as_micros() as u64;
        let planned: u64 = self
            .phases
            .iter()
            .filter(|(n, _)| *n != "parse")
            .map(|(_, m)| m)
            .sum();
        let parse = self
            .phases
            .iter()
            .find(|(n, _)| *n == "parse")
            .map(|(_, m)| *m)
            .unwrap_or(0);
        out.push_str("phases:");
        for (name, micros) in &self.phases {
            out.push_str(&format!(" {name}_us={micros}"));
        }
        out.push_str(&format!(
            " exec_us={} total_us={}\n",
            exec_micros.saturating_sub(planned),
            parse + exec_micros,
        ));
        out.push_str("operators:\n");
        for op in &self.ops {
            // est/qerr render with decimals on purpose: profile
            // consumers that sum integer fields for the reconciliation
            // invariant skip float-valued columns.
            // A cut operator's `actual` is what it handed on before the cut.
            let feedback = match (op.est, op.q_error()) {
                (Some(est), Some(q)) => format!(
                    " est={:.1} actual={}{} qerr={:.2}",
                    est,
                    op.rows_out,
                    if op.cut { " cut" } else { "" },
                    q
                ),
                _ => String::new(),
            };
            out.push_str(&format!(
                "{}{} rows_in={} rows_out={} time_us={}{} {}\n",
                "  ".repeat(op.depth + 1),
                op.label,
                op.rows_in,
                op.rows_out,
                op.nanos / 1000,
                feedback,
                op.counters.render_fields()
            ));
        }
        out.push_str(&format!("totals: {}\n", totals.render_fields()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(statements: u64, chunks: u64) -> CounterSnapshot {
        CounterSnapshot {
            statements,
            chunks_fetched: chunks,
            ..Default::default()
        }
    }

    #[test]
    fn exclusive_counters_subtract_children() {
        let mut p = QueryProfiler::new(10);
        let join = p.add_op("Join".into(), None, 0);
        let a = p.add_op("Scan a".into(), None, 1);
        let b = p.add_op("Scan b".into(), None, 1);
        p.enter(join, snap(0, 0), 1, None);
        p.enter(a, snap(0, 0), 1, None);
        // Scan a hands each of two batches to scan b as it fills it.
        p.enter(b, snap(1, 2), 2, None);
        p.exit(snap(2, 3), 1, false); // scan b: 1 statement, 1 chunk
        p.enter(b, snap(2, 4), 2, None);
        p.exit(snap(2, 4), 1, false);
        p.exit(snap(3, 6), 4, false); // scan a: the other 2 statements, 5 chunks
        p.exit(snap(3, 6), 2, false); // join itself: nothing beyond children
        let ops = p.ops();
        assert_eq!(ops[0].counters, snap(0, 0));
        assert_eq!(ops[1].counters, snap(2, 5));
        assert_eq!(ops[2].counters, snap(1, 1));
        assert_eq!((ops[2].rows_in, ops[2].rows_out), (4, 2));
        // Exclusive rows sum to the whole-query delta.
        let mut sum = CounterSnapshot::default();
        for op in ops {
            sum.add(&op.counters);
        }
        assert_eq!(sum, snap(3, 6));
    }

    #[test]
    fn phases_accumulate_and_render() {
        let mut p = QueryProfiler::new(7);
        p.phase("rewrite", Duration::from_micros(3));
        p.phase("plan", Duration::from_micros(5));
        p.phase("rewrite", Duration::from_micros(2));
        let text = p.render(Duration::from_micros(100), &snap(0, 0));
        assert!(text.contains("parse_us=7"));
        assert!(text.contains("rewrite_us=5"));
        assert!(text.contains("plan_us=5"));
        assert!(text.contains("exec_us=90")); // 100 - 5 - 5
        assert!(text.contains("total_us=107"));
        assert!(text.contains("totals: statements=0"));
    }

    #[test]
    fn render_indents_by_depth() {
        let mut p = QueryProfiler::new(0);
        let join = p.add_op("Join".into(), None, 0);
        let scan = p.add_op("Scan ?s ?p ?o".into(), None, 1);
        p.enter(join, snap(0, 0), 1, None);
        p.enter(scan, snap(0, 0), 1, None);
        p.exit(snap(0, 0), 3, false);
        p.exit(snap(0, 0), 3, false);
        let text = p.render(Duration::from_micros(1), &snap(0, 0));
        assert!(text.contains("\n  Join rows_in=1"));
        assert!(text.contains("\n    Scan ?s ?p ?o rows_in=1 rows_out=3"));
    }
}
