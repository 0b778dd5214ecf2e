//! The query-execution substrate: an RDF-with-Arrays graph plus an
//! array store and a function registry.
//!
//! [`Dataset`] is the core of what the thesis calls an SSDM instance
//! (§5.1): the in-memory RDF graph, the external array storage behind
//! the ASEI, the registry of defined/foreign functions, and the query
//! entry points. The higher-level `ssdm` crate layers data loaders and
//! workflow APIs on top.

use std::collections::BTreeMap;
use std::fmt;

use ssdm_array::ArrayError;
use ssdm_rdf::{
    Graph, GraphIndex, GraphMut, GraphView, Namespaces, RdfError, Term, TermId, Triple,
};
use ssdm_storage::{
    ArrayProxy, ArrayStore, MemoryChunkStore, Request, Resolved, RetrievalStrategy,
    SharedChunkStore, StorageError,
};

use crate::ast::Statement;
use crate::eval::Rows;
use crate::functions::FunctionRegistry;
use crate::parser::Prepared;
use crate::value::Value;

/// Errors raised by SciSPARQL parsing and evaluation.
#[derive(Debug)]
pub enum QueryError {
    Parse {
        line: usize,
        col: usize,
        msg: String,
    },
    /// Static analysis errors (unknown function, bad aggregate use...).
    Translation(String),
    /// Runtime evaluation error that is not recoverable as "unbound".
    Eval(String),
    Rdf(RdfError),
    Array(ArrayError),
    Storage(StorageError),
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::Parse { line, col, msg } => {
                write!(f, "syntax error at {line}:{col}: {msg}")
            }
            QueryError::Translation(m) => write!(f, "translation error: {m}"),
            QueryError::Eval(m) => write!(f, "evaluation error: {m}"),
            QueryError::Rdf(e) => write!(f, "RDF error: {e}"),
            QueryError::Array(e) => write!(f, "array error: {e}"),
            QueryError::Storage(e) => write!(f, "storage error: {e}"),
        }
    }
}

impl std::error::Error for QueryError {}

impl From<RdfError> for QueryError {
    fn from(e: RdfError) -> Self {
        QueryError::Rdf(e)
    }
}

impl From<ArrayError> for QueryError {
    fn from(e: ArrayError) -> Self {
        QueryError::Array(e)
    }
}

impl From<StorageError> for QueryError {
    fn from(e: StorageError) -> Self {
        QueryError::Storage(e)
    }
}

/// The result of executing a statement.
// Variant sizes differ by design: Solutions carries the data.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum QueryResult {
    /// SELECT: column names and rows of optional values.
    Solutions {
        vars: Vec<String>,
        rows: Vec<Vec<Option<Value>>>,
    },
    /// ASK.
    Boolean(bool),
    /// CONSTRUCT: a new graph.
    Graph(Graph),
    /// Updates and DEFINE FUNCTION.
    Updated { inserted: usize, deleted: usize },
    /// EXPLAIN output: the rendered operator tree.
    Text(String),
}

/// What a statement answers before a SELECT's cells become values.
// Variant sizes differ by design, as in `QueryResult`.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum Answer {
    /// An unprofiled SELECT: the projected column names and rows, whose
    /// cells are still slots — ids into the dataset's dictionary, or
    /// computed values. A caller that writes the rows out reads each
    /// `Id` cell's term where the dictionary keeps it.
    Solutions { vars: Vec<String>, rows: Rows },
    /// Every other statement, and a SELECT run under the profiler
    /// (whose profile includes the `Materialize` row).
    Result(QueryResult),
}

impl Answer {
    /// The answer as a [`QueryResult`]: a SELECT's rows are
    /// materialized here, by the step a profile shows as `Materialize`.
    pub fn into_result(self, ds: &mut Dataset) -> QueryResult {
        match self {
            Answer::Solutions { vars, rows } => crate::eval::materialize(ds, vars, rows),
            Answer::Result(result) => result,
        }
    }
}

impl QueryResult {
    /// The solution rows of a SELECT result.
    pub fn into_rows(self) -> Option<Vec<Vec<Option<Value>>>> {
        match self {
            QueryResult::Solutions { rows, .. } => Some(rows),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<bool> {
        match self {
            QueryResult::Boolean(b) => Some(*b),
            _ => None,
        }
    }

    /// Render a SELECT result as an aligned text table (for examples
    /// and the CLI). The one place an array is shortened: to 16
    /// elements per dimension.
    pub fn to_table(&self) -> String {
        match self {
            QueryResult::Solutions { vars, rows } => {
                let mut widths: Vec<usize> = vars.iter().map(|v| v.len() + 1).collect();
                let rendered: Vec<Vec<String>> = rows
                    .iter()
                    .map(|r| {
                        r.iter()
                            .map(|c| match c {
                                Some(Value::Term(Term::Array(a))) => format!("{a:.16}"),
                                Some(v) => v.to_string(),
                                None => String::new(),
                            })
                            .collect()
                    })
                    .collect();
                for r in &rendered {
                    for (i, c) in r.iter().enumerate() {
                        widths[i] = widths[i].max(c.len());
                    }
                }
                let mut out = String::new();
                for (i, v) in vars.iter().enumerate() {
                    out.push_str(&format!("?{:<w$} ", v, w = widths[i]));
                }
                out.push('\n');
                for r in rendered {
                    for (i, c) in r.iter().enumerate() {
                        out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
                    }
                    out.push('\n');
                }
                out
            }
            QueryResult::Boolean(b) => format!("{b}\n"),
            QueryResult::Graph(g) => format!("graph with {} triples\n", g.len()),
            QueryResult::Updated { inserted, deleted } => {
                format!("inserted {inserted}, deleted {deleted}\n")
            }
            QueryResult::Text(t) => t.clone(),
        }
    }
}

/// A boxed back-end so one dataset type serves all storage choices.
/// [`SharedChunkStore`] combines the mutating `ChunkStore` contract
/// with the concurrent `SharedChunkRead` one, so the dataset's queries
/// can take the parallel retrieval/aggregation pipelines; every shipped
/// back-end (and the cache wrapper) qualifies. The trait
/// impls for `Box<dyn SharedChunkStore>` live in `ssdm-storage`.
pub type DynChunkStore = Box<dyn SharedChunkStore>;

/// Default chunk size for externalized arrays (64 KiB, the sweet spot
/// found in experiment E3).
pub const DEFAULT_CHUNK_BYTES: usize = 64 * 1024;

/// Process-wide query latency histogram (whole statements, parse
/// included).
fn obs_query_hist() -> &'static std::sync::Arc<ssdm_obs::Histogram> {
    static H: std::sync::OnceLock<std::sync::Arc<ssdm_obs::Histogram>> = std::sync::OnceLock::new();
    H.get_or_init(|| ssdm_obs::recorder().histogram("ssdm_query_seconds"))
}

/// An SSDM dataset: graph + arrays + functions.
pub struct Dataset {
    /// The default graph. Its dictionary is the dataset's one
    /// dictionary (thesis §5.1): the named graphs index the same ids, so
    /// an id means the same term in every graph of a query.
    pub graph: Graph,
    /// Named graphs (thesis §3.3.4), keyed by the id of their name.
    pub named_graphs: BTreeMap<TermId, GraphIndex>,
    /// The named graph scans target while a GRAPH pattern or FROM clause
    /// is active (always a key of `named_graphs`); `None` is the default
    /// graph.
    pub(crate) active_graph: Option<TermId>,
    /// When set (by FROM NAMED), the names `GRAPH ?g` ranges over.
    pub(crate) visible_named: Option<Vec<TermId>>,
    pub arrays: ArrayStore<DynChunkStore>,
    pub registry: FunctionRegistry,
    pub namespaces: Namespaces,
    /// Strategy used when queries resolve array proxies.
    pub strategy: RetrievalStrategy,
    /// Arrays larger than this many elements are stored externally on
    /// load; smaller ones stay resident in the graph.
    pub externalize_threshold: usize,
    /// Chunk size for externalized arrays; 0 selects the auto-tuning
    /// heuristic per array.
    pub chunk_bytes: usize,
    /// Worker threads for proxy resolution and streamed aggregates. The
    /// default (1 worker) is the sequential path; results are
    /// bit-identical for every worker count.
    pub workers: usize,
    /// Durability hook: when set, every committed update is offered to
    /// the journal before it is acknowledged (see [`crate::journal`]).
    pub journal: Option<Box<dyn crate::journal::UpdateJournal>>,
    /// Attached while a statement runs under `EXPLAIN ANALYZE` or the
    /// slow-query log; `None` (the default) keeps every profiling hook
    /// on the zero-cost path.
    pub(crate) profiler: Option<crate::profile::QueryProfiler>,
    /// Planner configuration (join enumeration mode, calibration
    /// switch). Seeded from the environment; override the
    /// field directly to force a mode per dataset.
    pub planner: crate::planner::PlannerConfig,
    /// Runtime feedback: per-predicate cardinality corrections and the
    /// per-backend cost-per-statement, updated after profiled queries.
    pub calibration: crate::planner::Calibration,
}

impl Dataset {
    /// A dataset whose external arrays live in an in-process store.
    pub fn in_memory() -> Self {
        Dataset::with_backend(Box::new(MemoryChunkStore::new()))
    }

    /// A dataset over an arbitrary ASEI back-end.
    pub fn with_backend(backend: DynChunkStore) -> Self {
        Dataset {
            graph: Graph::new(),
            named_graphs: BTreeMap::new(),
            active_graph: None,
            visible_named: None,
            arrays: ArrayStore::new(backend),
            registry: FunctionRegistry::with_builtins(),
            namespaces: Namespaces::new(),
            strategy: RetrievalStrategy::SpdRange {
                options: Default::default(),
            },
            externalize_threshold: usize::MAX,
            chunk_bytes: DEFAULT_CHUNK_BYTES,
            workers: 1,
            journal: None,
            profiler: None,
            planner: crate::planner::PlannerConfig::from_env(),
            calibration: crate::planner::Calibration::default(),
        }
    }

    /// Offer a committed mutation to the attached journal, mapping a
    /// journal failure to a query error so the update is not
    /// acknowledged.
    fn journal_entry(&mut self, entry: crate::journal::JournalEntry<'_>) -> Result<(), QueryError> {
        if let Some(journal) = self.journal.as_mut() {
            journal
                .record(entry)
                .map_err(|e| QueryError::Eval(format!("update journal: {e}")))?;
        }
        Ok(())
    }

    /// The graph scans currently target — a named graph while a GRAPH
    /// pattern or FROM clause is active, else the default graph — over
    /// the dataset's one dictionary.
    pub fn active(&self) -> GraphView<'_> {
        self.graph_view(self.active_graph)
    }

    /// The named graph of a name's id, or with `None` the default graph.
    fn graph_view(&self, name: Option<TermId>) -> GraphView<'_> {
        match name {
            Some(name) => Graph::from_parts(self.graph.dictionary(), &self.named_graphs[&name]),
            None => self.graph.view(),
        }
    }

    /// [`Dataset::graph_view`] for writing; a new name starts empty.
    fn graph_mut(&mut self, name: Option<TermId>) -> GraphMut<'_> {
        match name {
            Some(name) => Graph::from_parts(
                self.graph.dictionary_mut(),
                self.named_graphs.entry(name).or_default(),
            ),
            None => self.graph.view_mut(),
        }
    }

    /// The id of the named graph called `name`, if the dataset has one.
    pub(crate) fn named_graph_id(&self, name: &Term) -> Option<TermId> {
        let id = self.graph.dictionary().lookup(name)?;
        self.named_graphs.contains_key(&id).then_some(id)
    }

    /// The named graph called `name`, if the dataset has one.
    pub fn named_graph(&self, name: &str) -> Option<GraphView<'_>> {
        let id = self.named_graph_id(&Term::uri(name))?;
        Some(self.graph_view(Some(id)))
    }

    /// The named graph called `name`, created empty if it is new.
    pub fn named_graph_mut(&mut self, name: &str) -> GraphMut<'_> {
        let id = self.graph.intern(Term::uri(name));
        self.graph_mut(Some(id))
    }

    /// The named graphs' ids, in name order.
    pub fn named_graph_ids(&self) -> Vec<TermId> {
        let mut ids: Vec<TermId> = self.named_graphs.keys().copied().collect();
        ids.sort_by_key(|&id| self.graph.term(id).as_uri());
        ids
    }

    /// Run `f` under a query's FROM / FROM NAMED clauses, which retarget
    /// the default graph and restrict the named-graph universe (thesis
    /// §3.3.4). `f` learns whether the FROM graph exists: one the
    /// dataset lacks matches nothing.
    pub(crate) fn in_query_scope<T>(
        &mut self,
        q: &crate::ast::SelectQuery,
        f: impl FnOnce(&mut Self, bool) -> T,
    ) -> T {
        let saved = (self.active_graph, self.visible_named.clone());
        let graph_id = |ds: &Self, name: &String| ds.named_graph_id(&Term::uri(name.as_str()));
        let from = q.from.as_ref().map(|f| graph_id(self, f));
        if let Some(Some(id)) = from {
            self.active_graph = Some(id);
        }
        if !q.from_named.is_empty() {
            let visible = q.from_named.iter().filter_map(|n| graph_id(self, n));
            self.visible_named = Some(visible.collect());
        }
        let result = f(self, from != Some(None));
        (self.active_graph, self.visible_named) = saved;
        result
    }

    /// Load Turtle into a named graph (creating it if needed).
    pub fn load_turtle_named(&mut self, name: &str, text: &str) -> Result<usize, QueryError> {
        let n = ssdm_rdf::turtle::parse_into(self.named_graph_mut(name), text)?;
        self.externalize_large_arrays()?;
        self.journal_entry(crate::journal::JournalEntry::TurtleNamed { graph: name, text })?;
        Ok(n)
    }

    /// Parse and execute one SciSPARQL statement. Mutations are
    /// journaled (when a journal is attached) after they succeed and
    /// before they are acknowledged; replay paths use
    /// [`Dataset::execute`] directly, which does not journal.
    pub fn query(&mut self, text: &str) -> Result<QueryResult, QueryError> {
        let prepared = Prepared::parse(text)?;
        let (answer, _) = self.query_parsed(text, prepared, false)?;
        Ok(answer.into_result(self))
    }

    /// Parse and execute one statement with the profiler attached,
    /// returning the result *and* the rendered profile — the substrate
    /// of the slow-query log. Mutations journal exactly as in
    /// [`query`](Self::query).
    pub fn query_profiled(&mut self, text: &str) -> Result<(QueryResult, String), QueryError> {
        let prepared = Prepared::parse(text)?;
        let (answer, profile) = self.query_parsed(text, prepared, true)?;
        let profile = profile.expect("a profiled run renders its profile");
        Ok((answer.into_result(self), profile))
    }

    /// Execute `prepared`, parsed from `text`: the one execution path
    /// under [`query`](Self::query) and
    /// [`query_profiled`](Self::query_profiled), and the entry for a
    /// caller that parsed the statement already. A mutation journals
    /// `text`; an `EXPLAIN ANALYZE` and a `profiled` run report
    /// `prepared.parse_micros` as their parse phase. With `profiled`
    /// the profiler is attached and its rendered profile returned. An
    /// unprofiled SELECT answers its projected rows unmaterialized
    /// ([`Answer::into_result`] materializes them).
    pub fn query_parsed(
        &mut self,
        text: &str,
        prepared: Prepared,
        profiled: bool,
    ) -> Result<(Answer, Option<String>), QueryError> {
        let Prepared { stmt, parse_micros } = prepared;
        let _latency = ssdm_obs::Span::start_back(
            obs_query_hist(),
            std::time::Duration::from_micros(parse_micros),
        );
        let is_mutation = stmt.is_mutation();
        let (answer, profile) = match stmt {
            Statement::ExplainAnalyze(q) if !profiled => {
                // Capture the real parse time instead of the zero the
                // pre-parsed `execute` path would report.
                let (_, profile) =
                    self.with_profiler(parse_micros, |ds| crate::eval::execute_select(ds, &q))?;
                (Answer::Result(QueryResult::Text(profile)), None)
            }
            stmt if profiled => {
                let (result, profile) = self.with_profiler(parse_micros, |ds| ds.execute(stmt))?;
                (Answer::Result(result), Some(profile))
            }
            Statement::Select(q) => {
                let (vars, rows) =
                    crate::eval::select_solutions(self, &q, Vec::new(), crate::eval::BATCH_ROWS)?;
                (Answer::Solutions { vars, rows }, None)
            }
            stmt => (Answer::Result(self.execute(stmt)?), None),
        };
        if is_mutation {
            self.journal_entry(crate::journal::JournalEntry::Statement(text))?;
        }
        Ok((answer, profile))
    }

    /// Run `f` with a fresh profiler attached, returning its result and
    /// the rendered profile. Nested invocations (an `EXPLAIN ANALYZE`
    /// arriving through [`query_profiled`](Self::query_profiled))
    /// stack: the inner run gets its own profiler and the outer one is
    /// restored afterwards.
    fn with_profiler<T>(
        &mut self,
        parse_micros: u64,
        f: impl FnOnce(&mut Self) -> Result<T, QueryError>,
    ) -> Result<(T, String), QueryError> {
        let saved = self.profiler.take();
        self.profiler = Some(crate::profile::QueryProfiler::new(parse_micros));
        let begin = self.counter_snapshot();
        let start = std::time::Instant::now();
        let result = f(self);
        let exec_total = start.elapsed();
        let end = self.counter_snapshot();
        let profiler = self.profiler.take().expect("profiler still attached");
        self.profiler = saved;
        let value = result?;
        let totals = end.since(&begin);
        // Feedback: fold observed-vs-estimated scan cardinalities into
        // the calibration table, so the next plan benefits from what
        // this query measured.
        if self.planner.calibration {
            for op in profiler.ops().iter().filter(|op| !op.cut) {
                if let (Some(est), Some(pred)) = (op.est, op.predicate.as_ref()) {
                    self.calibration.observe(pred, est, op.rows_out as f64);
                }
            }
        }
        Ok((value, profiler.render(exec_total, &totals)))
    }

    /// Snapshot every counter the profiler attributes to operators.
    pub(crate) fn counter_snapshot(&self) -> crate::profile::CounterSnapshot {
        let io = self.arrays.backend().io_stats();
        let cache = self.arrays.backend().cache_stats();
        let apr = self.arrays.cumulative_stats();
        let compute = ssdm_array::compute_stats();
        crate::profile::CounterSnapshot {
            statements: io.statements,
            chunks_fetched: io.chunks_returned,
            bytes_fetched: io.bytes_returned,
            cache_hits: cache.hits,
            cache_misses: cache.misses,
            kernel_elements: compute.elements_processed,
            fallbacks: apr.fallbacks,
            chunks_skipped: apr.chunks_skipped,
            chunks_decided: apr.chunks_decided,
            chunks_decoded: apr.chunks_decoded,
            bytes_decoded: apr.bytes_decoded,
        }
    }

    /// Add a profiled operator row `depth` levels below the innermost
    /// open frame and return its index (0, unused, with no profiler).
    pub(crate) fn prof_add(
        &mut self,
        label: String,
        predicate: Option<String>,
        depth: usize,
    ) -> usize {
        self.profiler
            .as_mut()
            .map_or(0, |p| p.add_op(label, predicate, depth))
    }

    /// Open a frame of profiled operator row `row`. No-op when no
    /// profiler is attached. `est` is the planner's output estimate for
    /// the frame's `rows_in` rows (the est/actual/q-error columns and
    /// the calibration loop).
    pub(crate) fn prof_enter(&mut self, row: usize, rows_in: usize, est: Option<f64>) {
        if self.profiler.is_some() {
            let snap = self.counter_snapshot();
            if let Some(p) = self.profiler.as_mut() {
                p.enter(row, snap, rows_in as u64, est);
            }
        }
    }

    /// Close the innermost profiled operator frame, which handed on
    /// `rows_out` rows and was `cut` short by its consumer or not.
    pub(crate) fn prof_exit(&mut self, rows_out: usize, cut: bool) {
        if self.profiler.is_some() {
            let snap = self.counter_snapshot();
            if let Some(p) = self.profiler.as_mut() {
                p.exit(snap, rows_out as u64, cut);
            }
        }
    }

    /// Add to a profiled phase timing.
    pub(crate) fn prof_phase(&mut self, name: &'static str, elapsed: std::time::Duration) {
        if let Some(p) = self.profiler.as_mut() {
            p.phase(name, elapsed);
        }
    }

    /// Whether a profiler is attached (evaluation hooks check this
    /// before doing any per-operator work).
    pub(crate) fn profiling(&self) -> bool {
        self.profiler.is_some()
    }

    /// Execute a pre-parsed statement.
    pub fn execute(&mut self, stmt: Statement) -> Result<QueryResult, QueryError> {
        match stmt {
            Statement::Select(q) => crate::eval::execute_select(self, &q),
            Statement::Ask(q) => crate::eval::execute_ask(self, &q),
            Statement::Construct(q) => crate::eval::execute_construct(self, &q),
            // The plan the query runs: planned as evaluation plans it,
            // under the same FROM graph.
            Statement::Explain(q) => Ok(QueryResult::Text(self.in_query_scope(&q, |ds, _| {
                let plan = ds.plan(crate::algebra::translate(&q.pattern));
                crate::algebra::explain(&plan, ds.active())
            }))),
            Statement::ExplainAnalyze(q) => {
                // Pre-parsed entry (wire protocol, replay): no parse
                // phase to report. `Dataset::query_parsed` intercepts the
                // parsed-from-text case to include it.
                let (_, profile) =
                    self.with_profiler(0, |ds| crate::eval::execute_select(ds, &q))?;
                Ok(QueryResult::Text(profile))
            }
            Statement::Describe(targets) => {
                let mut out = Graph::new();
                for target in targets {
                    if let Some(s) = self.graph.dictionary().lookup(&target) {
                        for t in self.graph.match_pattern(Some(s), None, None) {
                            out.insert(
                                self.graph.term(t.s).clone(),
                                self.graph.term(t.p).clone(),
                                self.graph.term(t.o).clone(),
                            );
                        }
                    }
                }
                Ok(QueryResult::Graph(out))
            }
            Statement::DefineFunction(def) => {
                self.registry.define(def)?;
                Ok(QueryResult::Updated {
                    inserted: 0,
                    deleted: 0,
                })
            }
            Statement::InsertData(triples) => crate::update::insert_data(self, triples),
            Statement::DeleteData(triples) => crate::update::delete_data(self, triples),
            Statement::Modify {
                delete,
                insert,
                pattern,
            } => crate::update::modify(self, delete, insert, &pattern),
        }
    }

    /// Load Turtle text into the graph (collections consolidate to
    /// arrays; large arrays are externalized per the threshold).
    pub fn load_turtle(&mut self, text: &str) -> Result<usize, QueryError> {
        let n = ssdm_rdf::turtle::parse_into(&mut self.graph, text)?;
        self.externalize_large_arrays()?;
        self.journal_entry(crate::journal::JournalEntry::TurtleDefault(text))?;
        Ok(n)
    }

    /// Move every resident array above the threshold, in every graph,
    /// out to the ASEI back-end, replacing its term with an
    /// [`Term::ArrayRef`].
    pub fn externalize_large_arrays(&mut self) -> Result<usize, QueryError> {
        if self.externalize_threshold == usize::MAX {
            return Ok(0);
        }
        let threshold = self.externalize_threshold;
        let graphs: Vec<Option<TermId>> = std::iter::once(None)
            .chain(self.named_graphs.keys().copied().map(Some))
            .collect();
        let mut moved = 0;
        for name in graphs {
            let graph = self.graph_view(name);
            let large = |t: &Triple| matches!(graph.term(t.o), Term::Array(a) if a.element_count() > threshold);
            let todo: Vec<Triple> = graph.iter().filter(large).collect();
            moved += todo.len();
            for t in todo {
                let object = self.externalize(self.graph.term(t.o).clone())?;
                let mut graph = self.graph_mut(name);
                let new_o = graph.intern(object);
                graph.remove_ids(t.s, t.p, t.o);
                graph.insert_ids(t.s, t.p, new_o);
            }
        }
        Ok(moved)
    }

    /// `term`, or the reference it becomes when it is a resident array
    /// above the threshold: the array moves to the ASEI back-end.
    pub(crate) fn externalize(&mut self, term: Term) -> Result<Term, QueryError> {
        match term {
            Term::Array(a) if a.element_count() > self.externalize_threshold => {
                let chunk_bytes = match self.chunk_bytes {
                    0 => ssdm_storage::auto_chunk_bytes(a.element_count()),
                    bytes => bytes,
                };
                let proxy = self.arrays.store_array(&a, chunk_bytes)?;
                Ok(Term::ArrayRef(proxy.array_id()))
            }
            other => Ok(other),
        }
    }

    /// The id of the node a value names, if any. Computed values (fresh
    /// arrays, closures) name none; only a whole-array proxy denotes the
    /// stored node.
    pub(crate) fn node_id(&self, v: &Value) -> Option<TermId> {
        let dict = self.graph.dictionary();
        match v {
            Value::Term(t) => dict.lookup(t),
            Value::Proxy(p) if ArrayProxy::whole(p.meta().clone()).view() == p.view() => {
                dict.lookup(&Term::ArrayRef(p.array_id()))
            }
            Value::Proxy(_) | Value::Closure(_) => None,
        }
    }

    /// Optimize an already-translated plan with the dataset's full
    /// planner context: configuration, calibration table and zone-map
    /// statistics.
    pub(crate) fn plan(&self, translated: crate::algebra::Plan) -> crate::algebra::Plan {
        let ctx = crate::planner::PlannerCtx {
            graph: self.active(),
            config: self.planner,
            calibration: Some(&self.calibration),
            zones: Some(&self.arrays),
        };
        crate::algebra::optimize_with(translated, &ctx)
    }

    /// Resolve a term to a runtime value (array refs become proxies).
    /// This is where the evaluator materializes late: rows carry
    /// dictionary ids, and only a slot that an expression or the final
    /// projection reads as a value comes through here.
    pub fn term_to_value(&self, term: &Term) -> Value {
        match term {
            Term::ArrayRef(id) => match self.arrays.proxy(*id) {
                Ok(p) => Value::Proxy(p),
                Err(_) => Value::Term(term.clone()),
            },
            other => Value::Term(other.clone()),
        }
    }

    /// Force a value to a resident array.
    pub fn force_array(&mut self, v: &Value) -> Result<ssdm_array::NumArray, QueryError> {
        match v {
            Value::Term(Term::Array(a)) => Ok(a.clone()),
            Value::Proxy(p) => self.resolve_proxy(p),
            other => Err(QueryError::Eval(format!("not an array: {other}"))),
        }
    }

    /// The array node `id` holds — resident, or resolved through its
    /// proxy; `None` when it holds none.
    pub(crate) fn node_array(
        &mut self,
        id: TermId,
    ) -> Result<Option<ssdm_array::NumArray>, QueryError> {
        match self.graph.term(id) {
            Term::Array(a) => Ok(Some(a.clone())),
            &Term::ArrayRef(ext) => {
                let proxy = self.arrays.proxy(ext)?;
                Ok(Some(self.resolve_proxy(&proxy)?))
            }
            _ => Ok(None),
        }
    }

    /// The one way a proxy becomes resident.
    pub fn resolve_proxy(&mut self, p: &ArrayProxy) -> Result<ssdm_array::NumArray, QueryError> {
        Ok(self.read_array(Request::new(p))?.into_array()?)
    }

    /// Read one request through the APR with the dataset's retrieval
    /// strategy and worker count.
    pub(crate) fn read_array(&mut self, req: Request<'_>) -> ssdm_storage::Result<Resolved> {
        Ok(self
            .arrays
            .read_parallel(&[req], self.strategy, self.workers)?
            .remove(0))
    }

    /// A proxy for a stored array id.
    pub fn array_proxy(&self, id: u64) -> Result<ArrayProxy, QueryError> {
        Ok(self.arrays.proxy(id)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn externalization_threshold() {
        let mut ds = Dataset::in_memory();
        ds.externalize_threshold = 4;
        ds.chunk_bytes = 16;
        ds.load_turtle(
            "<http://s> <http://small> (1 2 3) .
             <http://s> <http://big> (1 2 3 4 5 6 7 8) .",
        )
        .unwrap();
        let small = ds
            .graph
            .dictionary()
            .lookup(&Term::uri("http://small"))
            .unwrap();
        let big = ds
            .graph
            .dictionary()
            .lookup(&Term::uri("http://big"))
            .unwrap();
        let small_o = ds
            .graph
            .match_pattern(None, Some(small), None)
            .next()
            .unwrap()
            .o;
        let big_o = ds
            .graph
            .match_pattern(None, Some(big), None)
            .next()
            .unwrap()
            .o;
        assert!(matches!(ds.graph.term(small_o), Term::Array(_)));
        assert!(matches!(ds.graph.term(big_o), Term::ArrayRef(_)));
        // The proxy resolves back to the original content.
        let v = ds.term_to_value(&ds.graph.term(big_o).clone());
        let arr = ds.force_array(&v).unwrap();
        assert_eq!(arr.element_count(), 8);
        assert_eq!(arr.get(&[7]).unwrap().as_i64(), 8);
    }

    #[test]
    fn named_graphs_externalize_like_the_default_graph() {
        let mut ds = Dataset::in_memory();
        ds.externalize_threshold = 4;
        ds.chunk_bytes = 16;
        let line = "<http://s> <http://big> (1 2 3 4 5 6 7 8) .";
        ds.load_turtle(line).unwrap();
        ds.load_turtle_named("http://g", line).unwrap();
        let big = ds
            .graph
            .dictionary()
            .lookup(&Term::uri("http://big"))
            .unwrap();
        for graph in [ds.graph.view(), ds.named_graph("http://g").unwrap()] {
            let o = graph.match_pattern(None, Some(big), None).next().unwrap().o;
            assert!(matches!(graph.term(o), Term::ArrayRef(_)));
        }
        let rows = ds
            .query("SELECT (array_avg(?a) AS ?m) WHERE { GRAPH <http://g> { ?s <http://big> ?a } }")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows[0][0].as_ref().unwrap().to_string(), "4.5");
    }
}
