//! The SciSPARQL executor.
//!
//! Evaluates optimized [`Plan`] trees against a [`Dataset`], mirroring
//! SSDM's execution algebra (thesis §5.4.4): index-driven nested-loop
//! joins over the graph's SPO/POS/OSP indexes, left joins for OPTIONAL,
//! three-valued filter logic, grouping/aggregation, and lazy array
//! handling.
//!
//! A solution row is a fixed-width run of [`Slot`]s addressed through
//! the evaluation's [`VarTable`]. Scans write dictionary ids straight
//! into slots; a term is only looked up when an expression reads it and
//! only cloned when it reaches the result, and an array reference only
//! becomes a proxy when an expression or the projection asks.
//!
//! Rows travel in batches: one slab of slots ([`Rows`]) of at most
//! [`BATCH_ROWS`] rows. An operator takes a batch, works through it in
//! one loop and hands what it makes to its consumer a batch at a time.
//! A consumer that has all the rows it wants (`LIMIT`, `ASK`, `EXISTS`)
//! answers [`Halt::Enough`], which stops every operator feeding it.
//! DESIGN.md "Executor: batches" says which operators gather their
//! input before they hand anything on, and why.

pub mod agg;
pub mod builtins;
pub mod expr;
pub mod path;

use std::cell::{Cell, RefCell};
use std::collections::HashSet;
use std::ptr;
use std::rc::Rc;

use ssdm_rdf::{Dictionary, Term, TermId};

use crate::algebra::{self, Plan};
use crate::ast::*;
use crate::dataset::{Dataset, QueryError, QueryResult};
use crate::planner::{self, Window};
use crate::value::Value;

use expr::{eval_expr, Cx, Operand};
#[cfg(test)]
use tests::{note_scan_work, ScanWork};

/// One cell of a solution row.
#[derive(Debug, Clone, Default)]
pub enum Slot {
    #[default]
    Unbound,
    /// A node, by its id in the dataset's one dictionary — the same id
    /// in every graph.
    Id(TermId),
    /// A value that names no node: computed numbers and strings the
    /// dictionary lacks, derived proxies, closures. Computed values that
    /// do name a node become `Id`s where they are bound (`as_node`).
    Val(Rc<Value>),
}

impl Slot {
    pub fn is_bound(&self) -> bool {
        !matches!(self, Slot::Unbound)
    }
}

impl From<Value> for Slot {
    fn from(v: Value) -> Self {
        Slot::Val(Rc::new(v))
    }
}

/// The most rows one batch holds.
pub const BATCH_ROWS: usize = 256;

/// The most join children that stream into one another at once: each
/// holds a few stack frames until the batch it fed on comes back, so a
/// join child past this many gathers its input instead.
const STREAM_LINKS: usize = 64;

/// Rows of one width in one slab of slots: row `i` is
/// `slots[i * width..][..width]`. A batch is `Rows` of at most the
/// evaluation's capacity; a projected result is `Rows` too.
#[derive(Debug, Clone, Default)]
pub struct Rows {
    width: usize,
    len: usize,
    slots: Vec<Slot>,
}

impl Rows {
    /// No rows yet: the slab grows to what it holds.
    pub(crate) fn new(width: usize) -> Rows {
        let slots = Vec::new();
        Rows {
            width,
            len: 0,
            slots,
        }
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn row(&self, i: usize) -> &[Slot] {
        &self.slots[i * self.width..(i + 1) * self.width]
    }

    pub fn iter(&self) -> impl Iterator<Item = &[Slot]> + '_ {
        (0..self.len).map(|i| self.row(i))
    }

    /// Append a copy of `row`.
    pub(crate) fn push(&mut self, row: &[Slot]) {
        self.slots.extend_from_slice(row);
        self.len += 1;
    }

    /// Append a copy of `row` as `edit` changes it, unless `edit` says
    /// the row is no solution.
    fn push_edited(&mut self, row: &[Slot], edit: impl FnOnce(&mut [Slot]) -> bool) {
        let at = self.slots.len();
        self.slots.extend_from_slice(row);
        match edit(&mut self.slots[at..]) {
            true => self.len += 1,
            false => self.slots.truncate(at),
        }
    }

    /// Keep the rows `keep` says yes to, in order, compacting in place.
    fn retain(
        &mut self,
        mut keep: impl FnMut(&mut [Slot]) -> Result<bool, QueryError>,
    ) -> Result<(), QueryError> {
        let (w, mut kept) = (self.width, 0);
        for i in 0..self.len {
            if keep(&mut self.slots[i * w..(i + 1) * w])? {
                let (head, tail) = self.slots.split_at_mut(i * w);
                let pairs = head[kept * w..].iter_mut().zip(tail).take(w);
                pairs.for_each(|(a, b)| std::mem::swap(a, b));
                kept += 1;
            }
        }
        self.truncate(kept);
        Ok(())
    }

    fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
        self.slots.truncate(self.len * self.width);
    }

    /// The rows, each moved out as a vector of what `cell` makes of its
    /// cells.
    pub fn into_rows<T>(self, mut cell: impl FnMut(Slot) -> T) -> impl Iterator<Item = Vec<T>> {
        let (len, width, mut slots) = (self.len, self.width, self.slots.into_iter());
        (0..len).map(move |_| slots.by_ref().take(width).map(&mut cell).collect())
    }
}

/// Why rows stop flowing before an operator is through.
#[derive(Debug)]
pub enum Halt {
    /// The consumer has all the rows it wants.
    Enough,
    Failed(QueryError),
}

impl From<QueryError> for Halt {
    fn from(e: QueryError) -> Self {
        Halt::Failed(e)
    }
}

/// What handing on a batch came to.
pub type Flow = Result<(), Halt>;

/// A consumer of batches.
pub type Sink<'s> = &'s mut dyn FnMut(&mut Dataset, Rows) -> Flow;

/// Projected SELECT output: column names plus one row of cells each.
pub type SelectOutput = (Vec<String>, Rows);

/// A run that stopped because its consumer had enough went well.
fn finished(flow: Flow) -> Result<(), QueryError> {
    match flow {
        Ok(()) | Err(Halt::Enough) => Ok(()),
        Err(Halt::Failed(e)) => Err(e),
    }
}

/// The variables of one evaluation scope, each with a fixed slot index,
/// and the batch capacity the scope is evaluated at. Built once per
/// evaluated pattern from its plan (plus initial bindings and ORDER BY
/// aliases); a name that is not in the table is simply unbound.
#[derive(Debug, Clone)]
pub struct VarTable {
    names: Vec<String>,
    batch_rows: usize,
}

impl Default for VarTable {
    fn default() -> Self {
        VarTable::at(BATCH_ROWS)
    }
}

impl VarTable {
    /// An empty table for an evaluation in batches of `batch_rows`.
    fn at(batch_rows: usize) -> VarTable {
        let names = Vec::new();
        VarTable { names, batch_rows }
    }

    /// The table covering every variable `plan` can bind.
    pub fn for_plan(plan: &Plan) -> VarTable {
        let mut vars = VarTable::default();
        vars.add_plan(plan);
        vars
    }

    /// The slot of `name`. Tables hold a handful of names, so a scan
    /// beats hashing the string.
    pub fn slot(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// The slot of a variable the plan binds.
    fn bound_slot(&self, name: &str) -> Result<usize, QueryError> {
        self.slot(name)
            .ok_or_else(|| QueryError::Eval(format!("?{name} is missing from the variable table")))
    }

    fn add(&mut self, name: &str) -> usize {
        self.slot(name).unwrap_or_else(|| {
            self.names.push(name.to_string());
            self.names.len() - 1
        })
    }

    fn add_plan(&mut self, plan: &Plan) {
        let mut names: Vec<String> = Vec::new();
        match plan {
            Plan::Scan(t, _) => {
                for tp in [Some(&t.subject), t.path.as_pred(), Some(&t.object)] {
                    names.extend(tp.and_then(TermPattern::as_var).map(str::to_string));
                }
            }
            Plan::Extend { var, expr, .. } => {
                names.push(var.clone());
                names.extend(algebra::subscript_vars(expr).map(|v| v.to_string()));
            }
            Plan::Values { vars, .. } => names.extend(vars.iter().cloned()),
            Plan::Graph { name, .. } => names.extend(name.as_var().map(str::to_string)),
            Plan::SubSelect(q) => names.extend(q.projection_items().iter().map(|i| i.name())),
            _ => {}
        }
        names.iter().for_each(|n| {
            self.add(n);
        });
        plan.each_child(|c| self.add_plan(c));
    }

    /// The variables bound in every row of a batch (structurally
    /// identical across rows, so the first row suffices), as the
    /// planner's bound set.
    fn bound_names(&self, rows: &Rows) -> HashSet<String> {
        let bound = rows
            .iter()
            .take(1)
            .flat_map(|first| self.names.iter().zip(first));
        bound
            .filter(|(_, slot)| slot.is_bound())
            .map(|(name, _)| name.clone())
            .collect()
    }
}

/// Execute a SELECT query to its materialized result.
pub fn execute_select(ds: &mut Dataset, q: &SelectQuery) -> Result<QueryResult, QueryError> {
    let (vars, rows) = select_solutions(ds, q, Vec::new(), BATCH_ROWS)?;
    Ok(materialize(ds, vars, rows))
}

/// The one place a SELECT's projected cells become values: the
/// `Materialize` row of a profile. A caller that only writes the rows
/// out reads them as slots instead ([`crate::Answer::Solutions`]).
pub(crate) fn materialize(ds: &mut Dataset, vars: Vec<String>, rows: Rows) -> QueryResult {
    let op = ds.prof_add("Materialize".into(), None, 0);
    ds.prof_enter(op, rows.len(), None);
    let rows: Vec<_> = rows.into_rows(|c| into_value(ds, c)).collect();
    ds.prof_exit(rows.len(), false);
    QueryResult::Solutions { vars, rows }
}

/// Execute a SELECT query with initial bindings (the entry point for
/// parameterized-view calls, where parameters arrive pre-bound) in
/// batches of `batch_rows`, and return its projected rows.
pub(crate) fn select_solutions(
    ds: &mut Dataset,
    q: &SelectQuery,
    initial: Vec<(&str, Value)>,
    batch_rows: usize,
) -> Result<SelectOutput, QueryError> {
    ds.in_query_scope(q, |ds, from_exists| {
        select_solutions_inner(ds, q, initial, from_exists, batch_rows)
    })
}

fn select_solutions_inner(
    ds: &mut Dataset,
    q: &SelectQuery,
    initial: Vec<(&str, Value)>,
    from_exists: bool,
    batch_rows: usize,
) -> Result<SelectOutput, QueryError> {
    let items = q.projection_items();
    let mut vars = VarTable::at(batch_rows);
    let mut seed: Vec<Slot> = Vec::with_capacity(initial.len());
    for (name, value) in initial {
        let slot = vars.add(name);
        seed.resize(seed.len().max(slot + 1), Slot::Unbound);
        seed[slot] = as_node(ds, value.into());
    }
    // Order keys may name output aliases: give those slots too.
    let sorted = !q.order_by.is_empty();
    let aliases = items.iter().filter(|_| sorted);
    let alias_slots: Vec<usize> = aliases.map(|i| vars.add(&i.name())).collect();
    let plan = plan_pattern(ds, &q.pattern, &mut vars);
    let exec = Exec::new(ds, &vars, &plan);
    let grouped = !q.group_by.is_empty()
        || items
            .iter()
            .map(|i| &i.expr)
            .chain(&q.having)
            .any(Expr::has_aggregate);
    let mut groups = grouped
        .then(|| agg::Groups::new(&vars, exec.width, &items, &q.group_by, q.having.as_ref()));

    // Projection, aggregation and sort keys resolve array proxies
    // *outside* the plan tree — e.g. `array_sum(?a)` in the SELECT
    // clause fetches chunks here. Synthetic operator rows keep that work
    // attributed, so per-operator counters still sum to the query totals.
    let project_op = ds.prof_add("Project".into(), None, 0);
    let order_op = sorted.then(|| ds.prof_add("OrderBy".into(), None, 0));
    // Projected cells stay slots until DISTINCT and LIMIT have run: a
    // bare variable projects its id, and only surviving rows are cloned
    // out of the dictionary. Without ORDER BY, DISTINCT or grouping the
    // projection stops pulling once OFFSET + LIMIT rows are in.
    let wanted = match (sorted || q.distinct || grouped, q.limit) {
        (false, Some(limit)) => limit.saturating_add(q.offset.unwrap_or(0)),
        _ => usize::MAX,
    };
    // Under ORDER BY, each projected row's solution, for its keys.
    let (mut out, mut sources) = (Rows::new(items.len()), Rows::new(exec.width));
    if from_exists {
        exec.start(ds, &seed, &mut |ds, rows| {
            let before = out.len();
            ds.prof_enter(project_op, rows.len(), None);
            match &mut groups {
                Some(groups) => groups.fold(ds, &vars, &rows)?,
                None => {
                    for row in rows.iter().take(wanted - out.len()) {
                        project(ds, &Cx::new(&vars, row), &items, &mut out)?;
                        if sorted {
                            sources.push(row);
                        }
                    }
                }
            }
            ds.prof_exit(out.len() - before, false);
            match out.len() >= wanted {
                true => Err(Halt::Enough),
                false => Ok(()),
            }
        })?;
    }
    if let Some(groups) = groups {
        ds.prof_enter(project_op, 0, None);
        out = groups.finish(ds, &vars)?;
        ds.prof_exit(out.len(), false);
    }

    // ORDER BY. Keys evaluate against the source solution with the
    // projected aliases it leaves unbound filled in; after grouping
    // there is none, and keys must reference projected columns.
    if let Some(op) = order_op {
        ds.prof_enter(op, out.len(), None);
        let mut keyed = Vec::with_capacity(out.len());
        for (i, cells) in out.iter().enumerate() {
            let mut row = match grouped {
                true => vec![Slot::Unbound; exec.width],
                false => sources.row(i).to_vec(),
            };
            for (&slot, cell) in alias_slots.iter().zip(cells) {
                if !row[slot].is_bound() {
                    row[slot] = cell.clone();
                }
            }
            let cx = Cx::new(&vars, &row);
            let keys: Result<Vec<_>, _> = q
                .order_by
                .iter()
                .map(|k| eval_expr(ds, &cx, &k.expr))
                .collect();
            keyed.push((keys?, i));
        }
        keyed.sort_by(|(a, _), (b, _)| {
            let mut keys = a.iter().zip(b).zip(&q.order_by).map(|((x, y), spec)| {
                let ord = match (x, y) {
                    (Some(x), Some(y)) => x.order_cmp(y),
                    _ => x.is_some().cmp(&y.is_some()),
                };
                if spec.ascending {
                    ord
                } else {
                    ord.reverse()
                }
            });
            keys.find(|ord| ord.is_ne())
                .unwrap_or(std::cmp::Ordering::Equal)
        });
        let mut ordered = Rows::new(out.width);
        keyed.iter().for_each(|&(_, i)| ordered.push(out.row(i)));
        out = ordered;
        ds.prof_exit(out.len(), false);
    }

    if q.distinct {
        let mut seen = HashSet::new();
        out.retain(|r| {
            let key = r.iter().map(|c| agg::key_part(ds, Operand::of_slot(c)));
            Ok(seen.insert(key.collect::<Vec<_>>()))
        })?;
    }
    let offset = q.offset.unwrap_or(0).min(out.len);
    out.slots.drain(..offset * out.width);
    out.len -= offset;
    out.truncate(q.limit.unwrap_or(usize::MAX));
    Ok((items.iter().map(|i| i.name()).collect(), out))
}

/// Project one solution (or group) onto the output columns, appending
/// the row to `out`. A bare variable keeps its slot, so an id stays an
/// id.
fn project(
    ds: &mut Dataset,
    cx: &Cx,
    items: &[ProjectionItem],
    out: &mut Rows,
) -> Result<(), QueryError> {
    for item in items {
        out.slots.push(match &item.expr {
            Expr::Var(v) => cx.slot(v).cloned().unwrap_or_default(),
            other => eval_expr(ds, cx, other)?.map_or(Slot::Unbound, Slot::from),
        });
    }
    out.len += 1;
    Ok(())
}

/// Materialize a projected cell into the result.
fn into_value(ds: &Dataset, slot: Slot) -> Option<Value> {
    match slot {
        Slot::Val(v) => Some(Rc::unwrap_or_clone(v)),
        other => Operand::of_slot(&other).map(|o| o.into_value(ds)),
    }
}

/// Equality of two bound slots for joins: RDF term equality, the
/// equality a scan probe matches by. With one dictionary per dataset,
/// two ids are one term exactly when they are equal, and two numbers
/// are one term only with the same type and bits (`0`, `0.0` and
/// `-0.0` are three terms). Computed arrays, proxies and closures,
/// which have no id, compare by value.
fn slot_eq(ds: &Dataset, a: &Slot, b: &Slot) -> bool {
    match (a, b) {
        (Slot::Id(x), Slot::Id(y)) => x == y,
        _ => match (Operand::of_slot(a), Operand::of_slot(b)) {
            (Some(x), Some(y)) => {
                let (x, y) = (x.value(ds), y.value(ds));
                match (x.as_num(), y.as_num()) {
                    (Some(_), Some(_)) => x.as_term() == y.as_term(),
                    _ => x.value_eq(&y),
                }
            }
            _ => false,
        },
    }
}

/// Bind `slot` of `row` to `cell` (an unbound cell binds nothing);
/// false when the slot already holds a different value.
fn bind(ds: &Dataset, row: &mut [Slot], slot: usize, cell: &Slot) -> bool {
    if !cell.is_bound() {
        return true;
    }
    if row[slot].is_bound() {
        return slot_eq(ds, &row[slot], cell);
    }
    row[slot] = cell.clone();
    true
}

/// A cell that holds a value naming a node holds its id instead: the
/// one lookup a computed value gets, where it is bound.
pub(crate) fn as_node(ds: &Dataset, cell: Slot) -> Slot {
    match &cell {
        Slot::Val(v) => ds.node_id(v).map_or(cell, Slot::Id),
        _ => cell,
    }
}

/// Execute an ASK query: true at the first solution.
pub fn execute_ask(ds: &mut Dataset, q: &AskQuery) -> Result<QueryResult, QueryError> {
    let (_, rows) = solutions(ds, &q.pattern, VarTable::default(), &[], Some(1))?;
    Ok(QueryResult::Boolean(!rows.is_empty()))
}

/// Execute a CONSTRUCT query.
pub fn execute_construct(ds: &mut Dataset, q: &ConstructQuery) -> Result<QueryResult, QueryError> {
    // LIMIT cuts the solution sequence, not the triples it instantiates
    // (SPARQL 1.1 §15).
    let (vars, rows) = solutions(ds, &q.pattern, VarTable::default(), &[], q.limit)?;
    let mut out = ssdm_rdf::Graph::new();
    let solutions = rows.iter().flat_map(Rows::iter);
    for (n, row) in solutions.take(q.limit.unwrap_or(usize::MAX)).enumerate() {
        let term = |tp: &TermPattern| match tp {
            // Blank nodes in templates are scoped per solution.
            TermPattern::Term(Term::Blank(b)) => Some(Term::blank(format!("{b}_{}", n + 1))),
            other => instantiate(ds, &vars, row, other),
        };
        for t in &q.template {
            let (Some(s), Some(p), Some(o)) = (
                term(&t.subject),
                t.path.as_pred().and_then(term),
                term(&t.object),
            ) else {
                continue;
            };
            out.insert(s, p, o);
        }
    }
    Ok(QueryResult::Graph(out))
}

/// The ground term a template position takes in one solution (CONSTRUCT
/// and `DELETE/INSERT ... WHERE` templates); `None` skips the triple.
pub(crate) fn instantiate(
    ds: &Dataset,
    vars: &VarTable,
    row: &[Slot],
    tp: &TermPattern,
) -> Option<Term> {
    match tp {
        TermPattern::Term(t) => Some(t.clone()),
        TermPattern::Var(v) => match &row[vars.slot(v)?] {
            Slot::Unbound => None,
            Slot::Id(id) => Some(ds.graph.term(*id).clone()),
            Slot::Val(v) => match &**v {
                Value::Term(t) => Some(t.clone()),
                Value::Proxy(p) => Some(Term::ArrayRef(p.array_id())),
                Value::Closure(_) => None,
            },
        },
    }
}

/// Translate and optimize a group pattern; `vars` gains its variables.
fn plan_pattern(ds: &mut Dataset, pattern: &GroupPattern, vars: &mut VarTable) -> Plan {
    let t0 = std::time::Instant::now();
    let translated = algebra::translate(pattern);
    let t1 = std::time::Instant::now();
    let plan = ds.plan(translated);
    if ds.profiling() {
        ds.prof_phase("rewrite", t1.duration_since(t0));
        ds.prof_phase("plan", t1.elapsed());
    }
    vars.add_plan(&plan);
    plan
}

/// The solutions of a group pattern evaluated from one `seed` row over
/// `vars` (both empty for an uncorrelated pattern), batch by batch, up
/// to the first batch that makes `limit` rows. The pattern's own
/// variables are appended to the table, which is returned with the
/// solutions laid out over it.
pub(crate) fn solutions(
    ds: &mut Dataset,
    pattern: &GroupPattern,
    mut vars: VarTable,
    seed: &[Slot],
    limit: Option<usize>,
) -> Result<(VarTable, Vec<Rows>), QueryError> {
    // The seed's slots past its table are its own evaluation's.
    let seed = &seed[..seed.len().min(vars.names.len())];
    let plan = plan_pattern(ds, pattern, &mut vars);
    let (mut out, mut n) = (Vec::new(), 0);
    eval_plan(ds, &vars, &plan, seed, &mut |_, rows| {
        n += rows.len();
        out.extend((!rows.is_empty()).then_some(rows));
        match limit.is_some_and(|limit| n >= limit) {
            true => Err(Halt::Enough),
            false => Ok(()),
        }
    })?;
    Ok((vars, out))
}

/// Whether a row passes an exact window filter without evaluating it:
/// its slot holds a numeric node strictly inside the window
/// ([`Window::contains_strictly`]). Anything else — a boundary value,
/// NaN, a non-number, a value without an id — is for [`passes`].
fn strictly_inside(ds: &Dataset, window: Option<(usize, Window)>, row: &[Slot]) -> bool {
    let Some((slot, window)) = window else {
        return false;
    };
    let Slot::Id(id) = row[slot] else {
        return false;
    };
    matches!(ds.graph.term(id), Term::Number(n) if window.contains_strictly(n.as_f64()))
}

/// Whether a row passes a filter; expression errors count as false
/// (thesis §3.6).
fn passes(
    ds: &mut Dataset,
    vars: &VarTable,
    expr: &Expr,
    row: &[Slot],
) -> Result<bool, QueryError> {
    #[cfg(test)]
    note_scan_work(ScanWork::Rechecks);
    let value = eval_expr(ds, &Cx::new(vars, row), expr)?;
    Ok(value.and_then(|v| v.effective_bool()).unwrap_or(false))
}

/// Evaluate a plan from one `seed` row laid out over `vars`, which must
/// cover the plan's variables ([`VarTable::for_plan`]); a seed shorter
/// than the table leaves the rest unbound. The solutions go to `sink` a
/// batch at a time; a sink that has enough answers [`Halt::Enough`].
/// With a profiler attached, every node becomes one operator row
/// carrying the planner's (uncalibrated) estimate next to the observed
/// cardinality, both summed over the node's batches.
pub fn eval_plan(
    ds: &mut Dataset,
    vars: &VarTable,
    plan: &Plan,
    seed: &[Slot],
    sink: Sink,
) -> Result<(), QueryError> {
    Exec::new(ds, vars, plan).start(ds, seed, sink)
}

/// An uncorrelated operand's rows — a sub-select's, VALUES', MINUS' —
/// with the `(row slot, column)` pairs it joins or compares on.
struct Table {
    cols: Vec<(usize, usize)>,
    rows: Vec<Rows>,
}

/// An operand node under an active graph.
type TableKey = (*const Plan, Option<TermId>);

/// One evaluation of one plan.
struct Exec<'a> {
    vars: &'a VarTable,
    plan: &'a Plan,
    /// Row width: a slot per variable, then one per OPTIONAL for the
    /// index of the left row its right side extends.
    width: usize,
    /// The tag slot of each OPTIONAL.
    tags: Vec<(*const Plan, usize)>,
    /// The operator row of each node, when profiled.
    ops: Vec<(*const Plan, usize)>,
    /// Operand tables, each computed once per active graph.
    tables: RefCell<Vec<(TableKey, Rc<Table>)>>,
    /// How many join children are streaming into the next one now.
    links: Cell<usize>,
}

/// Where an operator's rows gather until a batch is full and goes to
/// the consumer.
pub(crate) struct Out<'s> {
    pub(crate) rows: Rows,
    cap: usize,
    sink: Sink<'s>,
}

impl<'s> Out<'s> {
    /// Rows for a consumer, in slabs that start at room for `rows`.
    fn new(exec: &Exec, rows: usize, sink: Sink<'s>) -> Self {
        let (width, cap) = (exec.width, exec.vars.batch_rows);
        let mut first = Rows::new(width);
        first.slots.reserve_exact(rows.min(cap) * width);
        Out {
            rows: first,
            cap,
            sink,
        }
    }

    pub(crate) fn full(&self) -> bool {
        self.rows.len >= self.cap
    }

    /// Hand the rows gathered so far on, if there are any. A producer
    /// that filled one batch is likely to fill the next.
    pub(crate) fn flush(&mut self, ds: &mut Dataset) -> Flow {
        if self.rows.is_empty() {
            return Ok(());
        }
        #[cfg(test)]
        note_scan_work(ScanWork::Batches);
        let mut next = Rows::new(self.rows.width);
        next.slots.reserve_exact(if self.full() {
            self.rows.slots.len()
        } else {
            0
        });
        (self.sink)(ds, std::mem::replace(&mut self.rows, next))
    }

    /// Hand the batch on if it is full.
    pub(crate) fn flush_full(&mut self, ds: &mut Dataset) -> Flow {
        match self.full() {
            true => self.flush(ds),
            false => Ok(()),
        }
    }

    fn push(&mut self, ds: &mut Dataset, row: &[Slot]) -> Flow {
        self.rows.push(row);
        self.flush_full(ds)
    }
}

impl<'a> Exec<'a> {
    fn new(ds: &mut Dataset, vars: &'a VarTable, plan: &'a Plan) -> Self {
        let width = vars.names.len();
        let (tags, ops, tables) = (Vec::new(), Vec::new(), RefCell::default());
        let mut exec = Exec {
            vars,
            plan,
            width,
            tags,
            ops,
            tables,
            links: Cell::new(0),
        };
        exec.index(ds, plan, 0);
        exec
    }

    /// Give each OPTIONAL its tag slot and, profiled, each node its
    /// operator row, in plan order.
    fn index(&mut self, ds: &mut Dataset, plan: &'a Plan, depth: usize) {
        if ds.profiling() {
            let op = ds.prof_add(
                algebra::node_label(plan),
                algebra::scan_predicate(plan),
                depth,
            );
            self.ops.push((plan, op));
        }
        if let Plan::LeftJoin { .. } = plan {
            self.tags.push((plan, self.width));
            self.width += 1;
        }
        plan.each_child(|c| self.index(ds, c, depth + 1));
    }

    /// Run the plan from one seed row.
    fn start(&self, ds: &mut Dataset, seed: &[Slot], sink: Sink) -> Result<(), QueryError> {
        let mut input = Rows::new(self.width);
        input.push(seed);
        input.slots.resize(self.width, Slot::Unbound);
        finished(self.run(ds, self.plan, input, sink))
    }

    /// Run `plan` over one batch of input rows, handing its solutions
    /// to `sink` a batch at a time.
    fn run(&self, ds: &mut Dataset, plan: &Plan, input: Rows, sink: Sink) -> Flow {
        let Some(&(_, op)) = self.ops.iter().find(|(p, _)| ptr::eq(*p, plan)) else {
            return self.op(ds, plan, input, sink);
        };
        // Raw statistics estimate (calibration deliberately excluded, so
        // the feedback loop converges on true corrections instead of
        // re-correcting its own output).
        let bound = self.vars.bound_names(&input);
        let est = algebra::estimate(plan, ds.active(), &bound) * input.len() as f64;
        ds.prof_enter(op, input.len(), Some(est));
        let mut rows_out = 0;
        let flow = self.op(ds, plan, input, &mut |ds, rows| {
            rows_out += rows.len();
            sink(ds, rows)
        });
        ds.prof_exit(rows_out, matches!(flow, Err(Halt::Enough)));
        flow
    }

    fn op(&self, ds: &mut Dataset, plan: &Plan, mut input: Rows, sink: Sink) -> Flow {
        let vars = self.vars;
        match plan {
            Plan::Empty => sink(ds, input),
            Plan::Scan(t, range) => {
                let mut out = Out::new(self, input.len(), sink);
                match t.path.as_pred() {
                    Some(pred) => self.scan(ds, t, pred, range.as_ref(), &input, &mut out)?,
                    None => path::eval_path_scan(ds, vars, t, &input, &mut out)?,
                }
                out.flush(ds)
            }
            Plan::Join(children) => self.chain(ds, children, input, sink),
            Plan::LeftJoin { left, right } => self.run(ds, left, input, &mut |ds, lefts| {
                self.left_join(ds, plan, right, lefts, sink)
            }),
            Plan::Union(branches) => {
                for (i, branch) in branches.iter().enumerate() {
                    let last = i + 1 == branches.len();
                    let rows = if last {
                        std::mem::take(&mut input)
                    } else {
                        input.clone()
                    };
                    self.run(ds, branch, rows, sink)?;
                }
                Ok(())
            }
            Plan::Filter { input: inner, expr } => {
                let window =
                    planner::exact_window(expr).and_then(|(v, w)| Some((vars.slot(v)?, w)));
                self.sieve(ds, inner, input, sink, |ds, row| {
                    Ok(strictly_inside(ds, window, row) || passes(ds, vars, expr, row)?)
                })
            }
            Plan::Extend {
                input: inner,
                var,
                expr,
            } => {
                let slot = vars.bound_slot(var)?;
                // Bag-valued view calls (DAPLEX semantics, §2.6): a BIND
                // of a defined-function call fans out over EVERY solution
                // of the parameterized view, not just the first.
                let view = match expr {
                    Expr::Call { name, args } => {
                        ds.registry.lookup_defined(name).map(|d| (d, args))
                    }
                    _ => None,
                };
                let mut out = Out::new(self, input.len(), sink);
                self.run(ds, inner, input, &mut |ds, rows| {
                    for row in rows.iter() {
                        // Subscript-variable enumeration (thesis §4.1.2): a
                        // dereference whose subscripts contain unbound
                        // variables fans the solution out over every valid
                        // subscript.
                        let cx = Cx::new(vars, row);
                        let free = |v: &str| !cx.slot(v).is_some_and(Slot::is_bound);
                        if algebra::subscript_vars(expr).any(free) {
                            enumerate_subscripts(ds, vars, row, slot, expr, &mut out)?;
                        } else if let Some((def, args)) = &view {
                            bind_view_bag(ds, vars, row, slot, def, args, &mut out)?;
                        } else {
                            // BIND errors leave the variable unbound.
                            let cell = eval_expr(ds, &cx, expr)?.map(|v| as_node(ds, v.into()));
                            out.rows
                                .push_edited(row, |r| cell.is_none_or(|c| bind(ds, r, slot, &c)));
                            out.flush_full(ds)?;
                        }
                    }
                    Ok(())
                })?;
                out.flush(ds)
            }
            Plan::Graph { name, inner } => self.graph(ds, name, inner, input, sink),
            Plan::SubSelect(_) | Plan::Values { .. } => {
                // SPARQL subqueries evaluate bottom-up, then join.
                let table = self.table(ds, plan)?;
                let mut out = Out::new(self, input.len(), sink);
                for row in input.iter() {
                    for cells in table.rows.iter().flat_map(Rows::iter) {
                        let mut columns = table.cols.iter();
                        out.rows.push_edited(row, |r| {
                            columns.all(|&(slot, c)| bind(ds, r, slot, &cells[c]))
                        });
                        out.flush_full(ds)?;
                    }
                }
                out.flush(ds)
            }
            Plan::Minus { input: inner, .. } => {
                let table = self.table(ds, plan)?;
                // SPARQL MINUS: drop a solution when some minus-solution
                // shares at least one variable and agrees on all shared ones.
                let removes = |ds: &Dataset, row: &[Slot], minus: &[Slot]| {
                    let shared = table.cols.iter();
                    let mut both = shared
                        .filter(|&&(r, m)| row[r].is_bound() && minus[m].is_bound())
                        .peekable();
                    both.peek().is_some() && both.all(|&(r, m)| slot_eq(ds, &row[r], &minus[m]))
                };
                self.sieve(ds, inner, input, sink, |ds, row| {
                    let mut minus = table.rows.iter().flat_map(Rows::iter);
                    Ok(!minus.any(|m| removes(ds, row, m)))
                })
            }
        }
    }

    /// Run `inner` and hand on, of each batch it makes, the rows `keep`
    /// says yes to.
    fn sieve(
        &self,
        ds: &mut Dataset,
        inner: &Plan,
        input: Rows,
        sink: Sink,
        mut keep: impl FnMut(&mut Dataset, &[Slot]) -> Result<bool, QueryError>,
    ) -> Flow {
        self.run(ds, inner, input, &mut |ds, mut rows| {
            rows.retain(|row| keep(ds, row))?;
            match rows.is_empty() {
                true => Ok(()),
                false => sink(ds, rows),
            }
        })
    }

    /// A conjunction: children run left-to-right, each over what the
    /// ones before it bound, every batch a child makes fed straight
    /// into the next. Past [`STREAM_LINKS`] links deep, each child
    /// runs over all the batches gathered before it instead, in the
    /// order they were made, so the stack stays bounded however wide
    /// the join.
    fn chain(&self, ds: &mut Dataset, seq: &[Plan], input: Rows, sink: Sink) -> Flow {
        let links = self.links.get();
        match seq.split_first() {
            None => sink(ds, input),
            Some((first, rest)) if links < STREAM_LINKS => {
                self.links.set(links + 1);
                let flow = self.run(ds, first, input, &mut |ds, rows| {
                    self.chain(ds, rest, rows, sink)
                });
                self.links.set(links);
                flow
            }
            Some(_) => seq
                .iter()
                .try_fold(vec![input], |b, child| self.gather(ds, child, b))?
                .into_iter()
                .try_for_each(|rows| sink(ds, rows)),
        }
    }

    /// Run `plan` over each of `inputs` and gather the batches it makes,
    /// in order.
    fn gather(&self, ds: &mut Dataset, plan: &Plan, inputs: Vec<Rows>) -> Result<Vec<Rows>, Halt> {
        let mut out = Vec::new();
        for rows in inputs {
            self.run(ds, plan, rows, &mut |_, rows| {
                out.push(rows);
                Ok(())
            })?;
        }
        Ok(out)
    }

    /// OPTIONAL over one batch of left rows: the right side runs once
    /// over all of them, each tagged with its index, and every left row
    /// goes on in order, as each of its matches or, with none, as itself.
    fn left_join(
        &self,
        ds: &mut Dataset,
        plan: &Plan,
        right: &Plan,
        mut lefts: Rows,
        sink: Sink,
    ) -> Flow {
        let tagged = self.tags.iter().find(|(p, _)| ptr::eq(*p, plan));
        let tag = tagged.expect("every OPTIONAL has a tag slot").1;
        for i in 0..lefts.len {
            lefts.slots[i * lefts.width + tag] = Slot::Id(TermId(i as u32));
        }
        let matched = self.gather(ds, right, vec![lefts.clone()])?;
        let tag_of = |row: &[Slot]| match row[tag] {
            Slot::Id(TermId(i)) => i as usize,
            _ => unreachable!("a right side keeps its rows' tags"),
        };
        let rows = matched.iter().enumerate().flat_map(|(b, rows)| {
            rows.iter()
                .enumerate()
                .map(move |(r, row)| (tag_of(row), b, r))
        });
        let mut order: Vec<(usize, usize, usize)> = rows.collect();
        // Stable: each left row's matches keep their order.
        order.sort_by_key(|&(i, ..)| i);
        let mut order = order.into_iter().peekable();
        let mut out = Out::new(self, lefts.len, sink);
        for i in 0..lefts.len {
            let mut any = false;
            while let Some((_, b, r)) = order.next_if(|&(t, ..)| t == i) {
                out.push(ds, matched[b].row(r))?;
                any = true;
            }
            if !any {
                out.push(ds, lefts.row(i))?;
            }
        }
        out.flush(ds)
    }

    /// GRAPH: a fixed name retargets the active graph (a graph the
    /// dataset lacks matches nothing); a variable iterates the visible
    /// named graphs in name order, binding it to each name's id. The
    /// consumer runs under the graph it was called under.
    fn graph(
        &self,
        ds: &mut Dataset,
        name: &TermPattern,
        inner: &Plan,
        input: Rows,
        sink: Sink,
    ) -> Flow {
        let outer = ds.active_graph;
        let mut under = |ds: &mut Dataset, graph: TermId, rows: Rows| {
            ds.active_graph = Some(graph);
            let flow = self.run(ds, inner, rows, &mut |ds, rows| {
                ds.active_graph = outer;
                let flow = sink(ds, rows);
                ds.active_graph = Some(graph);
                flow
            });
            ds.active_graph = outer;
            flow
        };
        let slot = match name {
            TermPattern::Term(name) => match ds.named_graph_id(name) {
                Some(graph) => return under(ds, graph, input),
                None => return Ok(()),
            },
            TermPattern::Var(v) => self.vars.bound_slot(v)?,
        };
        let mut graphs = ds.named_graph_ids();
        if let Some(visible) = &ds.visible_named {
            graphs.retain(|g| visible.contains(g));
        }
        for graph in graphs {
            let mut rows = input.clone();
            rows.retain(|row| Ok(bind(ds, row, slot, &Slot::Id(graph))))?;
            if !rows.is_empty() {
                under(ds, graph, rows)?;
            }
        }
        Ok(())
    }

    /// The table of an uncorrelated operand: computed at its first
    /// batch, then kept for the rest under the same active graph.
    fn table(&self, ds: &mut Dataset, plan: &Plan) -> Result<Rc<Table>, QueryError> {
        let key: TableKey = (plan, ds.active_graph);
        if let Some((_, table)) = self.tables.borrow().iter().find(|(k, _)| *k == key) {
            return Ok(Rc::clone(table));
        }
        let vars = self.vars;
        let columns = |names: &[String]| -> Result<Vec<(usize, usize)>, QueryError> {
            let slots = names.iter().map(|n| vars.bound_slot(n));
            slots.enumerate().map(|(c, s)| Ok((s?, c))).collect()
        };
        let table = match plan {
            Plan::SubSelect(q) => {
                let (names, mut rows) = select_solutions(ds, q, Vec::new(), vars.batch_rows)?;
                for cell in &mut rows.slots {
                    *cell = as_node(ds, std::mem::take(cell));
                }
                Table {
                    cols: columns(&names)?,
                    rows: vec![rows],
                }
            }
            Plan::Values { vars: names, rows } => {
                let mut table = Rows::new(names.len());
                for row in rows {
                    let cell = |t: &Option<Term>| match t {
                        Some(t) => as_node(ds, ds.term_to_value(t).into()),
                        None => Slot::Unbound,
                    };
                    table.push(&row.iter().map(cell).collect::<Vec<_>>());
                }
                Table {
                    cols: columns(names)?,
                    rows: vec![table],
                }
            }
            Plan::Minus { pattern, .. } => {
                let scope = VarTable::at(vars.batch_rows);
                let (minus_vars, rows) = solutions(ds, pattern, scope, &[], None)?;
                let names = minus_vars.names.iter().enumerate();
                let cols = names
                    .filter_map(|(m, n)| vars.slot(n).map(|r| (r, m)))
                    .collect();
                Table { cols, rows }
            }
            _ => unreachable!("only operands are tables"),
        };
        let table = Rc::new(table);
        self.tables.borrow_mut().push((key, Rc::clone(&table)));
        Ok(table)
    }

    /// Match a plain triple pattern against the graph for each input
    /// row. `range` is a window every solution's object must lie in (the
    /// filter that says so runs above): a row that leaves subject and
    /// object free under a constant predicate reads only that stretch of
    /// the graph's value index; any other row probes as if there were no
    /// window. A scan that fills a batch hands it on and resumes its
    /// index cursor just past the last match.
    fn scan(
        &self,
        ds: &mut Dataset,
        t: &TriplePattern,
        pred: &TermPattern,
        range: Option<&Window>,
        input: &Rows,
        out: &mut Out,
    ) -> Flow {
        let (Some(s), Some(p), Some(o)) = (
            Pos::compile(ds, self.vars, &t.subject)?,
            Pos::compile(ds, self.vars, pred)?,
            Pos::compile(ds, self.vars, &t.object)?,
        ) else {
            return Ok(());
        };
        let pattern = [s, p, o];
        'rows: for row in input.iter() {
            let mut ids: [Option<TermId>; 3] = [None; 3];
            let mut free: [Option<usize>; 3] = [None; 3];
            let mut content_checks: Vec<(usize, ssdm_array::NumArray)> = Vec::new();
            for (i, pos) in pattern.iter().enumerate() {
                match pos.at(row) {
                    At::Free(slot) => free[i] = Some(slot),
                    At::Id(id) => ids[i] = Some(id),
                    At::Value(Value::Term(Term::Array(a))) => content_checks.push((i, a.clone())),
                    At::Value(Value::Proxy(p)) => content_checks.push((i, ds.resolve_proxy(p)?)),
                    At::Value(_) => continue 'rows,
                }
            }
            #[cfg(test)]
            note_scan_work(ScanWork::Scans);
            let bindings = |m: ssdm_rdf::Triple| [(free[0], m.s), (free[1], m.p), (free[2], m.o)];
            match (content_checks.is_empty(), ids) {
                // A membership probe: the row itself, or nothing.
                (true, [Some(s), Some(p), Some(o)]) => {
                    if ds.active().contains_ids(s, p, o) {
                        #[cfg(test)]
                        note_scan_work(ScanWork::Visited);
                        out.push(ds, row)?;
                    }
                }
                (true, _) => {
                    let mut last = None;
                    loop {
                        let graph = ds.active();
                        let matches = match (range, ids, free) {
                            (Some(w), [None, Some(p), None], [Some(_), None, Some(_)]) => {
                                graph.match_object_range_after(p, w.lo_value(), w.hi_value(), last)
                            }
                            _ => graph.match_pattern_after(ids[0], ids[1], ids[2], last),
                        };
                        last = None;
                        for m in matches {
                            #[cfg(test)]
                            note_scan_work(ScanWork::Visited);
                            let dict = graph.dictionary();
                            out.rows.push_edited(row, |r| extend(dict, r, &bindings(m)));
                            if out.full() {
                                last = Some(m);
                                break;
                            }
                        }
                        match last {
                            Some(_) => out.flush(ds)?,
                            None => break,
                        }
                    }
                }
                (false, _) => {
                    // Resolving candidates needs the array store: collect first.
                    let candidates: Vec<ssdm_rdf::Triple> =
                        ds.active().match_pattern(ids[0], ids[1], ids[2]).collect();
                    'triple: for m in candidates {
                        for (i, target) in &content_checks {
                            let candidate = ds.node_array([m.s, m.p, m.o][*i])?;
                            if !candidate.is_some_and(|a| a.array_eq(target)) {
                                continue 'triple;
                            }
                        }
                        let dict = ds.graph.dictionary();
                        out.rows.push_edited(row, |r| extend(dict, r, &bindings(m)));
                        out.flush_full(ds)?;
                    }
                }
            }
        }
        Ok(())
    }
}

/// One position of a triple pattern, compiled once per input batch.
pub(crate) enum Pos {
    /// A constant, by its dictionary id.
    Id(TermId),
    /// An array constant that is not a node: array constants and
    /// computed arrays match by CONTENT, not node identity (§4.1.6).
    Array(Value),
    Var(usize),
}

/// What a pattern position holds for one input row.
pub(crate) enum At<'r> {
    Free(usize),
    Id(TermId),
    /// A value that is not a node.
    Value(&'r Value),
}

impl Pos {
    /// Compile a pattern position; `None` when it is a constant the
    /// dictionary does not hold, which nothing can match.
    pub(crate) fn compile(
        ds: &Dataset,
        vars: &VarTable,
        tp: &TermPattern,
    ) -> Result<Option<Pos>, QueryError> {
        Ok(match tp {
            TermPattern::Var(v) => Some(Pos::Var(vars.bound_slot(v)?)),
            TermPattern::Term(term) => {
                #[cfg(test)]
                note_scan_work(ScanWork::Lookups);
                match (ds.graph.dictionary().lookup(term), term) {
                    (Some(id), _) => Some(Pos::Id(id)),
                    (None, Term::Array(_)) => Some(Pos::Array(Value::Term(term.clone()))),
                    (None, _) => None,
                }
            }
        })
    }

    pub(crate) fn at<'r>(&'r self, row: &'r [Slot]) -> At<'r> {
        match self {
            Pos::Id(id) => At::Id(*id),
            Pos::Array(a) => At::Value(a),
            Pos::Var(slot) => match &row[*slot] {
                Slot::Unbound => At::Free(*slot),
                Slot::Id(id) => At::Id(*id),
                Slot::Val(v) => At::Value(v),
            },
        }
    }
}

/// Bind the free slots of `row` to the ids a match gives them; false
/// when the match is no solution. A variable used twice in the pattern
/// must match itself: the same id, else the same value.
pub(crate) fn extend(dict: &Dictionary, row: &mut [Slot], ids: &[(Option<usize>, TermId)]) -> bool {
    for &(free, id) in ids {
        let Some(slot) = free else { continue };
        match row[slot] {
            Slot::Id(first) if first == id || dict.term(first).value_eq(dict.term(id)) => {}
            Slot::Id(_) => return false,
            _ => row[slot] = Slot::Id(id),
        }
    }
    true
}

/// Fan one solution out over all valid subscript combinations of a
/// dereference with unbound subscript variables (thesis §4.1.2):
/// `BIND (?a[?i] AS ?v)` with unbound `?i` yields one solution per
/// element, binding both `?i` (1-based) and `?v`.
fn enumerate_subscripts(
    ds: &mut Dataset,
    vars: &VarTable,
    row: &[Slot],
    var: usize,
    deref: &Expr,
    out: &mut Out,
) -> Flow {
    let Expr::ArrayDeref { base, subscripts } = deref else {
        return out.push(ds, row);
    };
    let base = eval_expr(ds, &Cx::new(vars, row), base)?;
    // Not an array, or too many subscripts: error -> unbound.
    let shape = base.and_then(|b| b.array_shape());
    let Some(shape) = shape.filter(|shape| subscripts.len() <= shape.len()) else {
        return out.push(ds, row);
    };
    // Identify the enumerating dimensions. The same variable appearing
    // in several positions (e.g. the diagonal `?a[?i, ?i]`) enumerates
    // once; dereference failures skip invalid combinations.
    let mut enumerating: Vec<(usize, usize)> = Vec::new();
    for (dim, s) in subscripts.iter().enumerate() {
        if let SubscriptExpr::Index(Expr::Var(v)) = s {
            let slot = vars.bound_slot(v)?;
            if !row[slot].is_bound() && !enumerating.iter().any(|&(_, seen)| seen == slot) {
                enumerating.push((dim, slot));
            }
        }
    }
    debug_assert!(!enumerating.is_empty(), "caller checked");
    // Odometer over the enumerating dimensions (1-based subscripts).
    let sizes: Vec<usize> = enumerating.iter().map(|(d, _)| shape[*d]).collect();
    let mut ix = vec![1i64; enumerating.len()];
    let mut extended = row.to_vec();
    for _ in 0..sizes.iter().product() {
        extended.clone_from_slice(row);
        for (&(_, slot), &i) in enumerating.iter().zip(&ix) {
            extended[slot] = as_node(ds, Value::integer(i).into());
        }
        if let Some(value) = eval_expr(ds, &Cx::new(vars, &extended), deref)? {
            if bind(ds, &mut extended, var, &as_node(ds, value.into())) {
                out.push(ds, &extended)?;
            }
        }
        for d in (0..ix.len()).rev() {
            ix[d] += 1;
            if ix[d] <= sizes[d] as i64 {
                break;
            }
            ix[d] = 1;
        }
    }
    Ok(())
}

/// Fan a solution out over every result of a parameterized-view call
/// (DAPLEX bag semantics): `BIND (f(args) AS ?v)` yields one solution
/// per row of f's body, binding ?v to the first projected column.
fn bind_view_bag(
    ds: &mut Dataset,
    vars: &VarTable,
    row: &[Slot],
    var: usize,
    def: &FunctionDef,
    args: &[Expr],
    out: &mut Out,
) -> Flow {
    let mut values = Vec::with_capacity(args.len());
    for a in args {
        match eval_expr(ds, &Cx::new(vars, row), a)? {
            Some(v) => values.push(v),
            // An erroneous argument leaves the BIND unbound.
            None => return out.push(ds, row),
        }
    }
    let results = call_view(ds, def, values)?;
    if results.is_empty() {
        // No solutions: the call errors, the variable stays unbound.
        return out.push(ds, row);
    }
    for cell in results
        .iter()
        .filter_map(|r| r.first())
        .filter(|c| c.is_bound())
    {
        let cell = as_node(ds, cell.clone());
        out.rows.push_edited(row, |r| bind(ds, r, var, &cell));
        out.flush_full(ds)?;
    }
    Ok(())
}

/// The projected rows of a parameterized view called with `args`: its
/// body run with the parameters pre-bound.
pub(crate) fn call_view(
    ds: &mut Dataset,
    def: &FunctionDef,
    args: Vec<Value>,
) -> Result<Rows, QueryError> {
    if def.params.len() != args.len() {
        return Err(QueryError::Eval(format!(
            "function {} expects {} argument(s), got {}",
            def.name,
            def.params.len(),
            args.len()
        )));
    }
    let initial = def.params.iter().map(String::as_str).zip(args).collect();
    Ok(select_solutions(ds, &def.body, initial, BATCH_ROWS)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    thread_local! {
        /// Dictionary lookups made for pattern constants, index range
        /// scans started, index entries visited, filter rows handed to
        /// `eval_expr`, and batches handed on, on this thread.
        static SCAN_WORK: std::cell::Cell<[usize; 5]> = const { std::cell::Cell::new([0; 5]) };
    }

    /// Which `SCAN_WORK` counter.
    #[derive(Clone, Copy)]
    pub(super) enum ScanWork {
        Lookups,
        Scans,
        Visited,
        Rechecks,
        Batches,
    }

    pub(super) fn note_scan_work(counter: ScanWork) {
        SCAN_WORK.with(|w| {
            let mut work = w.get();
            work[counter as usize] += 1;
            w.set(work);
        });
    }

    fn scan(subject: &str, pred: &str, object: TermPattern) -> TriplePattern {
        TriplePattern {
            subject: TermPattern::Var(subject.into()),
            path: Path::Pred(TermPattern::Term(Term::uri(pred))),
            object,
        }
    }

    /// [constant lookups, index range scans, index entries visited,
    /// filter rows evaluated, batches handed on] since the last call.
    fn scan_work() -> [usize; 5] {
        SCAN_WORK.with(|w| w.replace([0; 5]))
    }

    /// `plan` run over `input`, batch by batch.
    fn run(ds: &mut Dataset, vars: &VarTable, plan: &Plan, input: Rows) -> Vec<Rows> {
        let exec = Exec::new(ds, vars, plan);
        let mut out = Vec::new();
        finished(exec.run(ds, plan, input, &mut |_, rows| {
            out.push(rows);
            Ok(())
        }))
        .unwrap();
        out
    }

    fn concat(batches: Vec<Rows>) -> Rows {
        let mut all = Rows::new(batches.first().map_or(0, |b| b.width));
        batches
            .iter()
            .flat_map(Rows::iter)
            .for_each(|row| all.push(row));
        all
    }

    /// The row binding nothing.
    fn unit(vars: &VarTable) -> Rows {
        let mut rows = Rows::new(vars.names.len());
        rows.push(&vec![Slot::Unbound; vars.names.len()]);
        rows
    }

    #[test]
    fn scan_resolves_pattern_constants_once_per_call() {
        let mut ds = Dataset::in_memory();
        let mut turtle = String::new();
        for i in 0..40 {
            turtle.push_str(&format!(
                "<http://s{i}> <http://p> {i} ; <http://q> \"on\" .\n"
            ));
        }
        ds.load_turtle(&turtle).unwrap();
        let first = Plan::Scan(scan("s", "http://p", TermPattern::Var("o".into())), None);
        let on = Plan::Scan(
            scan("s", "http://q", TermPattern::Term(Term::str("on"))),
            None,
        );
        let off = Plan::Scan(
            scan("s", "http://q", TermPattern::Term(Term::str("off"))),
            None,
        );
        let vars = VarTable::for_plan(&first);
        let rows = concat(run(&mut ds, &vars, &first, unit(&vars)));
        assert_eq!(rows.len(), 40);

        // Two constants, one batch of forty input rows: two lookups, one
        // range scan per row, with the bound subject passed on as an id.
        scan_work();
        let joined = concat(run(&mut ds, &vars, &on, rows.clone()));
        assert_eq!(joined.len(), 40);
        assert_eq!(scan_work()[..3], [2, 40, 40]);

        // A constant the dictionary has never seen ends the scan
        // before the index is touched.
        let none = run(&mut ds, &vars, &off, rows);
        assert!(none.is_empty());
        assert_eq!(scan_work()[..3], [2, 0, 0]);
    }

    #[test]
    fn scans_hand_on_batches_no_larger_than_the_capacity() {
        // s_i has one `p`, the flag `q "on"`, and i % 4 values of `r`.
        let mut ds = Dataset::in_memory();
        let mut turtle = String::new();
        for i in 0..40 {
            turtle.push_str(&format!(
                "<http://s{i}> <http://p> {i} ; <http://q> \"on\" .\n"
            ));
            for k in 0..i % 4 {
                turtle.push_str(&format!("<http://s{i}> <http://r> {k} .\n"));
            }
        }
        ds.load_turtle(&turtle).unwrap();
        let scans = [
            scan("s", "http://q", TermPattern::Var("f".into())),
            scan("s", "http://q", TermPattern::Term(Term::str("on"))),
            scan("s", "http://p", TermPattern::Var("o".into())),
            scan("s", "http://r", TermPattern::Var("k".into())),
        ]
        .map(|t| Plan::Scan(t, None));
        let mut vars = VarTable::at(7);
        scans.iter().for_each(|plan| vars.add_plan(plan));
        let sizes = |batches: &[Rows]| batches.iter().map(Rows::len).collect::<Vec<_>>();

        // Forty subjects in batches of seven.
        let subjects = run(&mut ds, &vars, &scans[0], unit(&vars));
        assert_eq!(sizes(&subjects), [7, 7, 7, 7, 7, 5]);
        // A membership probe and a 1:1 `(s, p, ?)` probe hand each input
        // batch on as one batch.
        for probe in &scans[1..3] {
            let out: Vec<Rows> = subjects
                .iter()
                .flat_map(|b| run(&mut ds, &vars, probe, b.clone()))
                .collect();
            assert_eq!(sizes(&out), sizes(&subjects));
        }
        // k matches per subject: never more than seven to a batch.
        scan_work();
        let many = run(&mut ds, &vars, &scans[3], concat(subjects));
        let matches: usize = (0..40).map(|i| i % 4).sum();
        assert_eq!(many.iter().map(Rows::len).sum::<usize>(), matches);
        assert!(many.iter().all(|b| (1..=7).contains(&b.len())));
        assert_eq!(scan_work()[4], matches.div_ceil(7));
    }

    #[test]
    fn limit_ask_and_exists_stop_after_one_batch() {
        let mut ds = Dataset::in_memory();
        let mut turtle = String::new();
        for i in 0..20_000 {
            turtle.push_str(&format!("<http://task{i}> <http://k_1> {i} .\n"));
        }
        ds.load_turtle(&turtle).unwrap();
        scan_work();
        let rows = ds
            .query("SELECT ?t WHERE { ?t <http://k_1> ?k } LIMIT 1")
            .unwrap()
            .into_rows()
            .unwrap();
        assert_eq!(rows.len(), 1);
        // One scan, one batch's worth of index entries, one batch.
        let [_, scans, visited, _, batches] = scan_work();
        assert_eq!((scans, visited, batches), (1, BATCH_ROWS, 1));
        let ask = ds.query("ASK { ?t <http://k_1> ?k }").unwrap();
        assert!(matches!(ask, QueryResult::Boolean(true)));
        let [_, scans, visited, _, batches] = scan_work();
        assert_eq!((scans, visited, batches), (1, BATCH_ROWS, 1));
        let exists = "SELECT ?e WHERE { BIND (EXISTS { ?t <http://k_1> ?k } AS ?e) }";
        assert_eq!(ds.query(exists).unwrap().into_rows().unwrap().len(), 1);
        let [_, scans, visited, _, _] = scan_work();
        assert_eq!((scans, visited), (1, BATCH_ROWS));

        // A join streams: its first scan hands on one batch, and LIMIT
        // stops it there instead of after all 20 000 rows.
        let mut turtle = String::new();
        for i in 0..20_000 {
            turtle.push_str(&format!(
                "<http://task{i}> <http://k_2> {i} ; <http://k_3> {i} .\n"
            ));
        }
        ds.load_turtle(&turtle).unwrap();
        scan_work();
        let star =
            "SELECT ?t WHERE { ?t <http://k_1> ?k ; <http://k_2> ?a ; <http://k_3> ?b } LIMIT 1";
        assert_eq!(ds.query(star).unwrap().into_rows().unwrap().len(), 1);
        // The first scan visits one batch of entries; each of its rows is
        // one probe, visiting one entry, in each of the two later scans.
        let [_, scans, visited, _, batches] = scan_work();
        assert_eq!(
            (scans, visited, batches),
            (1 + 2 * BATCH_ROWS, 3 * BATCH_ROWS, 3)
        );
    }

    #[test]
    fn a_join_wider_than_the_streaming_links_keeps_rows_and_order() {
        let mut ds = Dataset::in_memory();
        let mut turtle = String::new();
        for i in 0..600 {
            turtle.push_str(&format!("<http://task{i}> <http://k_1> {} .\n", i % 7));
        }
        ds.load_turtle(&turtle).unwrap();
        let select = |ds: &mut Dataset, width: usize| {
            let body = "?t <http://k_1> ?k . ".repeat(width);
            let q = format!("SELECT ?t ?k WHERE {{ {body}}}");
            format!("{:?}", ds.query(&q).unwrap().into_rows().unwrap())
        };
        let narrow = select(&mut ds, 1);
        assert_eq!(narrow.matches("task").count(), 600);
        assert_eq!(select(&mut ds, STREAM_LINKS + 6), narrow);
    }

    #[test]
    fn a_pushed_window_visits_only_its_rows() {
        // The BISTAB Q1 shape over 2 000 tasks, k_1 = 0.00, 0.02 ...
        let mut ds = Dataset::in_memory();
        let mut turtle = String::new();
        for i in 0..2000 {
            turtle.push_str(&format!(
                "<http://task{i}> <http://k_1> {:.2} ; <http://result> {} .\n",
                i as f64 / 50.0,
                i % 2
            ));
        }
        ds.load_turtle(&turtle).unwrap();
        let q1 = |k1: &str| {
            format!(
                "SELECT ?task ?k1 WHERE {{ ?task <http://k_1> ?k1 ; <http://result> 1 . \
                 FILTER ({k1} > 38) }}"
            )
        };
        let window = 100; // 38.00 itself (the index is inclusive) to 39.98

        scan_work();
        let rows = ds.query(&q1("?k1")).unwrap().into_rows().unwrap();
        assert_eq!(rows.len(), 50);
        // One range scan that visits the window, then one probe per row
        // that passed the filter, each visiting at most its one match.
        let [_, scans, visited, rechecked, _] = scan_work();
        assert_eq!(scans, 1 + (window - 1));
        assert!(visited <= window + (window - 1), "visited {visited}");
        // Only the row on the boundary key, 38.00, reaches the
        // comparison; the 99 strictly inside pass without it.
        assert_eq!(rechecked, 1);

        // Disguised, the same filter costs the predicate, not the answer.
        let rows = ds.query(&q1("?k1 + 0")).unwrap().into_rows().unwrap();
        assert_eq!(rows.len(), 50);
        let [_, _, visited, rechecked, _] = scan_work();
        assert!(visited >= 2000, "visited {visited}");
        assert!(rechecked >= 1000, "rechecked {rechecked}");
    }

    #[test]
    fn rows_keep_ids_across_graph_and_subselect_boundaries() {
        let mut ds = Dataset::in_memory();
        let prefix = "@prefix ex: <http://e#> .";
        ds.load_turtle(&format!(
            "{prefix} ex:alice ex:name \"Alice\" . ex:bob ex:name \"Bob\" ."
        ))
        .unwrap();
        for (graph, scores) in [("math", "90 ; ex:rank 1"), ("bio", "45")] {
            let text = format!("{prefix} ex:alice ex:score {scores} . ex:bob ex:score 60 .");
            ds.load_turtle_named(&format!("http://graphs/{graph}"), &text)
                .unwrap();
        }
        // Every bound slot names a node of some graph — the graph names
        // ?g binds included — so every one must be an id.
        let rows_of = |ds: &mut Dataset, query: &str| {
            let Statement::Select(q) = crate::parser::parse(query).unwrap() else {
                panic!("not a SELECT: {query}")
            };
            let (vars, batches) =
                solutions(ds, &q.pattern, VarTable::default(), &[], None).unwrap();
            let rows = concat(batches);
            for row in rows.iter() {
                for (name, slot) in vars.names.iter().zip(row) {
                    assert!(
                        matches!(slot, Slot::Id(_)),
                        "?{name} is {slot:?} in {query}"
                    );
                }
            }
            rows.len()
        };
        let across_graphs = "PREFIX ex: <http://e#> SELECT * WHERE {
            ?p ex:name ?n . GRAPH ?g { ?p ex:score ?s } }";
        assert_eq!(rows_of(&mut ds, across_graphs), 4);
        let sub_select = "PREFIX ex: <http://e#> SELECT * WHERE {
            ?p ex:name ?n .
            { SELECT ?p ?s ?top WHERE {
                GRAPH <http://graphs/math> { ?p ex:score ?s OPTIONAL { ?p ex:rank ?r } }
                BIND (ex:alice AS ?top) } }
            ?top ex:name ?who }";
        assert_eq!(rows_of(&mut ds, sub_select), 2);
    }

    /// The same answers at every batch capacity: one row a batch, two,
    /// seven and the default, over every operator that handles a batch.
    #[test]
    fn answers_do_not_depend_on_the_batch_capacity() {
        let mut ds = Dataset::in_memory();
        let mut turtle = String::from("@prefix ex: <http://e#> .\n");
        let mut g1 = turtle.clone();
        let mut g2 = turtle.clone();
        for i in 0..30 {
            turtle.push_str(&format!(
                "ex:p{i} ex:name \"n{i:02}\" ; ex:age {} ; ex:knows ex:p{} .\n",
                20 + i % 7,
                (i + 1) % 30
            ));
            if i % 3 == 0 {
                turtle.push_str(&format!("ex:p{i} ex:email \"e{i}\" .\n"));
            }
            if i % 4 == 0 {
                turtle.push_str(&format!("ex:p{i} ex:tag \"x\" .\n"));
            }
            if i % 2 == 0 {
                g1.push_str(&format!("ex:p{i} ex:score {i} .\n"));
            }
            if i % 5 == 0 {
                g2.push_str(&format!("ex:p{i} ex:score {} .\n", 100 - i));
            }
        }
        ds.load_turtle(&turtle).unwrap();
        ds.load_turtle_named("http://g1", &g1).unwrap();
        ds.load_turtle_named("http://g2", &g2).unwrap();
        let corpus = [
            "SELECT ?p ?e WHERE { ?p ex:name ?n OPTIONAL { ?p ex:email ?e } }",
            "SELECT ?p ?e ?t WHERE { ?p ex:age ?a OPTIONAL { ?p ex:email ?e \
             OPTIONAL { ?p ex:tag ?t } } FILTER (?a > 21) }",
            "SELECT ?p ?k ?e WHERE { ?p ex:knows ?k OPTIONAL { ?k ex:email ?e FILTER (?e != \"e3\") } }",
            "SELECT ?p WHERE { ?p ex:name ?n MINUS { ?p ex:tag \"x\" } }",
            "SELECT ?p ?v WHERE { { ?p ex:email ?v } UNION { ?p ex:tag ?v } \
             UNION { ?p ex:age ?v FILTER (?v > 25) } }",
            "SELECT ?p ?q ?v WHERE { ?p ex:knows ?q { ?q ex:email ?v } UNION { ?q ex:tag ?v } }",
            "SELECT ?a (COUNT(?p) AS ?n) (MIN(?n) AS ?first) (AVG(?a) AS ?m) \
             (COUNT(DISTINCT ?a) AS ?one) WHERE { ?p ex:age ?a ; ex:name ?n } \
             GROUP BY ?a HAVING (COUNT(?p) > 3)",
            "SELECT (COUNT(*) AS ?n) (SUM(?a) AS ?s) (MAX(?a) AS ?top) WHERE { ?p ex:age ?a }",
            "SELECT (COUNT(*) AS ?n) WHERE { ?p ex:age 99 }",
            "SELECT ?p ?k WHERE { ?p ex:knows ?k { SELECT ?k WHERE { ?k ex:email ?e } } }",
            "SELECT ?p WHERE { ?p ex:name ?n FILTER EXISTS { ?p ex:knows ?q . ?q ex:email ?e } }",
            "SELECT ?p WHERE { ?p ex:name ?n FILTER NOT EXISTS { ?p ex:tag ?t } }",
            "SELECT ?p ?a WHERE { VALUES ?a { 21 23 25 } ?p ex:age ?a }",
            "SELECT ?q WHERE { ?p ex:knows+ ?q FILTER (?p = ex:p1) }",
            "SELECT ?p ?q WHERE { ?p ex:knows/ex:knows ?q }",
            "SELECT ?g ?p ?s WHERE { GRAPH ?g { ?p ex:score ?s } ?p ex:age ?a }",
            "SELECT ?p ?s WHERE { GRAPH <http://g2> { ?p ex:score ?s } OPTIONAL { ?p ex:email ?e } }",
            "SELECT ?p ?a WHERE { ?p ex:age ?a ; ex:name ?n } ORDER BY DESC(?a) ?n LIMIT 7 OFFSET 3",
            "SELECT DISTINCT ?a WHERE { ?p ex:age ?a }",
            "SELECT * WHERE { ?p ex:age ?a ; ex:name ?n ; ex:knows ?k . ?k ex:age ?b }",
            "SELECT ?p ?n WHERE { ?p ex:knows ?k . ?k ex:name ?n } LIMIT 5",
            "SELECT ?p ?v WHERE { ?p ex:age ?a BIND (?a * 2 AS ?v) FILTER (?v > 50) }",
        ];
        for text in corpus {
            let query = format!("PREFIX ex: <http://e#> {text}");
            let Statement::Select(q) = crate::parser::parse(&query).unwrap() else {
                panic!("not a SELECT: {text}")
            };
            let answer = |ds: &mut Dataset, batch_rows: usize| {
                let (_, rows) = select_solutions(ds, &q, Vec::new(), batch_rows).unwrap();
                let rows = rows.into_rows(|c| into_value(ds, c));
                let mut lines: Vec<String> = rows.map(|r| format!("{r:?}")).collect();
                if q.order_by.is_empty() {
                    lines.sort();
                }
                lines
            };
            let expected = answer(&mut ds, BATCH_ROWS);
            assert!(!expected.is_empty(), "{text} is vacuous");
            for batch_rows in [1, 2, 7] {
                assert_eq!(
                    answer(&mut ds, batch_rows),
                    expected,
                    "{text} at {batch_rows}"
                );
            }
        }
    }
}
