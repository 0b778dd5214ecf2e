//! The SciSPARQL executor.
//!
//! Evaluates optimized [`Plan`] trees against a [`Dataset`] one
//! operator at a time over materialized sets of solution rows,
//! mirroring SSDM's execution algebra (thesis §5.4.4): index-driven
//! nested-loop joins over the graph's SPO/POS/OSP indexes, left joins
//! for OPTIONAL, three-valued filter logic, grouping/aggregation, and
//! lazy array handling.
//!
//! A solution row is a fixed-width array of [`Slot`]s addressed through
//! the evaluation's [`VarTable`]. Scans write dictionary ids straight
//! into slots; a term is only looked up when an expression reads it and
//! only cloned when it reaches the result, and an array reference only
//! becomes a proxy when an expression or the projection asks.
//!
//! Operators own their rows: each takes its input by value and hands
//! the same rows on, extended in place, so a row is copied only where
//! it really goes two ways — a scan match other than the row's last,
//! a UNION branch other than the last, the probe of an OPTIONAL.

pub mod agg;
pub mod builtins;
pub mod expr;
pub mod path;

use std::collections::HashSet;
use std::rc::Rc;

use ssdm_rdf::{Dictionary, Term, TermId};

use crate::algebra::{self, Plan};
use crate::ast::*;
use crate::dataset::{Dataset, QueryError, QueryResult};
use crate::planner::{self, Window};
use crate::value::Value;

use expr::{eval_expr, Cx, Operand};

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
    /// do name a node become `Id`s where they are bound ([`as_node`]).
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

/// One solution: a slot per variable of the evaluation's [`VarTable`].
pub type Row = Box<[Slot]>;

/// Projected SELECT output: column names plus one row of cells each.
pub type SelectOutput = (Vec<String>, Vec<Row>);

/// The variables of one evaluation scope, each with a fixed slot index.
/// Built once per evaluated pattern from its plan (plus initial
/// bindings and ORDER BY aliases); a name that is not in the table is
/// simply unbound.
#[derive(Debug, Clone, Default)]
pub struct VarTable {
    names: Vec<String>,
}

impl VarTable {
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
        match plan {
            Plan::Empty => {}
            Plan::Scan(t, _) => {
                for tp in [Some(&t.subject), t.path.as_pred(), Some(&t.object)] {
                    if let Some(TermPattern::Var(v)) = tp {
                        self.add(v);
                    }
                }
            }
            Plan::Join(children) | Plan::Union(children) => {
                children.iter().for_each(|c| self.add_plan(c))
            }
            Plan::LeftJoin { left, right } => {
                self.add_plan(left);
                self.add_plan(right);
            }
            Plan::Filter { input, .. } | Plan::Minus { input, .. } => self.add_plan(input),
            Plan::Extend { input, var, expr } => {
                self.add_plan(input);
                self.add(var);
                algebra::subscript_vars(expr).for_each(|v| {
                    self.add(v);
                });
            }
            Plan::Values { vars, .. } => vars.iter().for_each(|v| {
                self.add(v);
            }),
            Plan::Graph { name, inner } => {
                if let TermPattern::Var(v) = name {
                    self.add(v);
                }
                self.add_plan(inner);
            }
            Plan::SubSelect(q) => projection_items(q).iter().for_each(|i| {
                self.add(&i.name());
            }),
        }
    }

    /// The row binding nothing.
    pub fn unit_row(&self) -> Row {
        vec![Slot::Unbound; self.names.len()].into()
    }

    /// The variables bound in every input row (structurally identical
    /// across rows, so the first row suffices), as the planner's bound
    /// set.
    fn bound_names(&self, rows: &[Row]) -> HashSet<String> {
        let Some(first) = rows.first() else {
            return HashSet::new();
        };
        let bound = self.names.iter().zip(first.iter());
        bound
            .filter(|(_, slot)| slot.is_bound())
            .map(|(name, _)| name.clone())
            .collect()
    }
}

/// Execute a SELECT query: the one place its cells become values.
pub fn execute_select(ds: &mut Dataset, q: &SelectQuery) -> Result<QueryResult, QueryError> {
    let (vars, rows) = select_solutions(ds, q, Vec::new())?;
    let rows = rows
        .into_iter()
        .map(|r| {
            r.into_vec()
                .into_iter()
                .map(|c| into_value(ds, c))
                .collect()
        })
        .collect();
    Ok(QueryResult::Solutions { vars, rows })
}

/// Execute a SELECT query with initial bindings (the entry point for
/// parameterized-view calls, where parameters arrive pre-bound) and
/// return its projected rows.
pub fn select_solutions(
    ds: &mut Dataset,
    q: &SelectQuery,
    initial: Vec<(&str, Value)>,
) -> Result<SelectOutput, QueryError> {
    ds.in_query_scope(q, |ds, from_exists| {
        select_solutions_inner(ds, q, initial, from_exists)
    })
}

/// The projected columns of a SELECT (`*` expands to the bindable,
/// non-internal variables of its pattern).
fn projection_items(q: &SelectQuery) -> Vec<ProjectionItem> {
    match &q.projection {
        Projection::Items(items) => items.clone(),
        Projection::All => {
            let mut vars = Vec::new();
            q.pattern.bindable_vars(&mut vars);
            vars.into_iter()
                .filter(|v| !v.starts_with('_'))
                .map(|v| ProjectionItem {
                    expr: Expr::Var(v),
                    alias: None,
                })
                .collect()
        }
    }
}

fn select_solutions_inner(
    ds: &mut Dataset,
    q: &SelectQuery,
    initial: Vec<(&str, Value)>,
    from_exists: bool,
) -> Result<SelectOutput, QueryError> {
    let items = projection_items(q);
    let mut vars = VarTable::default();
    let mut seed: Vec<Slot> = Vec::with_capacity(initial.len());
    for (name, value) in initial {
        let slot = vars.add(name);
        seed.resize(seed.len().max(slot + 1), Slot::Unbound);
        seed[slot] = as_node(ds, value.into());
    }
    // Order keys may name output aliases: give those slots too.
    let alias_slots: Vec<usize> = if q.order_by.is_empty() {
        Vec::new()
    } else {
        items.iter().map(|i| vars.add(&i.name())).collect()
    };
    let (vars, solutions) = if from_exists {
        eval_pattern(ds, &q.pattern, vars, seed.into())?
    } else {
        (vars, Vec::new())
    };

    // Projection handling, with or without grouping.
    let needs_grouping = !q.group_by.is_empty()
        || items.iter().any(|i| i.expr.has_aggregate())
        || q.having.as_ref().map(Expr::has_aggregate).unwrap_or(false);

    // Projection (and aggregation) resolves array proxies *outside* the
    // plan tree — e.g. `array_sum(?a)` in the SELECT clause fetches
    // chunks here. A synthetic operator row keeps that work attributed,
    // so per-operator counters still sum to the query totals.
    let profiling = ds.profiling();
    if profiling {
        ds.prof_enter("Project".into(), solutions.len() as u64, None, None);
    }
    // Projected cells stay slots until DISTINCT and LIMIT have run: a
    // bare variable projects its id, and only surviving rows are cloned
    // out of the dictionary.
    let mut out_rows: Vec<Row> = if needs_grouping {
        agg::grouped_projection(ds, &vars, &items, &q.group_by, &q.having, &solutions)?
    } else {
        let mut out = Vec::with_capacity(solutions.len());
        for row in &solutions {
            out.push(project(ds, &Cx::new(&vars, row), &items)?);
        }
        out
    };
    if profiling {
        ds.prof_exit(out_rows.len() as u64);
    }

    // ORDER BY. Sort keys can also force proxy resolution, hence the
    // synthetic operator row.
    if !q.order_by.is_empty() {
        if profiling {
            ds.prof_enter("OrderBy".into(), out_rows.len() as u64, None, None);
        }
        // Order keys evaluate against the projected row when they are
        // output aliases, else against the source solution (after
        // grouping there is none: keys must reference projected columns).
        let mut sources = (!needs_grouping).then(|| solutions.into_iter());
        let mut keyed: Vec<(Vec<Option<Value>>, Row)> = Vec::with_capacity(out_rows.len());
        for cells in out_rows {
            let mut augmented = match &mut sources {
                Some(rows) => rows.next().expect("one solution per projected row"),
                None => vars.unit_row(),
            };
            for (&slot, cell) in alias_slots.iter().zip(cells.iter()) {
                if !augmented[slot].is_bound() {
                    augmented[slot] = cell.clone();
                }
            }
            let cx = Cx::new(&vars, &augmented);
            let mut keys = Vec::with_capacity(q.order_by.len());
            for k in &q.order_by {
                keys.push(eval_expr(ds, &cx, &k.expr)?);
            }
            keyed.push((keys, cells));
        }
        keyed.sort_by(|a, b| {
            for (k, spec) in a.0.iter().zip(&b.0).zip(&q.order_by) {
                let (x, y) = k;
                let ord = match (x, y) {
                    (None, None) => std::cmp::Ordering::Equal,
                    (None, Some(_)) => std::cmp::Ordering::Less,
                    (Some(_), None) => std::cmp::Ordering::Greater,
                    (Some(x), Some(y)) => x.order_cmp(y),
                };
                let ord = if spec.ascending { ord } else { ord.reverse() };
                if ord != std::cmp::Ordering::Equal {
                    return ord;
                }
            }
            std::cmp::Ordering::Equal
        });
        out_rows = keyed.into_iter().map(|(_, c)| c).collect();
        if profiling {
            ds.prof_exit(out_rows.len() as u64);
        }
    } else {
        // Release the solutions' share of every `Val` cell, so the
        // final materialization moves values instead of cloning them.
        drop(solutions);
    }

    // DISTINCT.
    if q.distinct {
        let mut seen = HashSet::new();
        out_rows.retain(|r| {
            let key: Vec<agg::KeyPart> = r
                .iter()
                .map(|c| agg::key_part(ds, Operand::of_slot(c)))
                .collect();
            seen.insert(key)
        });
    }

    // OFFSET / LIMIT.
    if let Some(off) = q.offset {
        out_rows.drain(..off.min(out_rows.len()));
    }
    if let Some(lim) = q.limit {
        out_rows.truncate(lim);
    }
    Ok((items.iter().map(|i| i.name()).collect(), out_rows))
}

/// Project one solution (or group) onto the output columns. A bare
/// variable keeps its slot, so an id stays an id.
fn project(ds: &mut Dataset, cx: &Cx, items: &[ProjectionItem]) -> Result<Row, QueryError> {
    let mut cells = Vec::with_capacity(items.len());
    for item in items {
        cells.push(match &item.expr {
            Expr::Var(v) => cx.slot(v).cloned().unwrap_or_default(),
            other => eval_expr(ds, cx, other)?.map_or(Slot::Unbound, Slot::from),
        });
    }
    Ok(cells.into())
}

/// Materialize a projected cell into the result.
fn into_value(ds: &Dataset, slot: Slot) -> Option<Value> {
    match slot {
        Slot::Val(v) => Some(Rc::unwrap_or_clone(v)),
        other => Operand::of_slot(&other).map(|o| o.into_value(ds)),
    }
}

/// Equality of two bound slots for joins: the same id is the same node;
/// everything else compares by value.
fn slot_eq(ds: &Dataset, a: &Slot, b: &Slot) -> bool {
    match (a, b) {
        (Slot::Id(x), Slot::Id(y)) => x == y || ds.graph.term(*x).value_eq(ds.graph.term(*y)),
        _ => match (Operand::of_slot(a), Operand::of_slot(b)) {
            (Some(x), Some(y)) => x.value(ds).value_eq(&y.value(ds)),
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

/// Join every input row with every compatible row of a table of cells
/// (VALUES, sub-select results) whose columns are the variables `names`.
fn join_table(
    ds: &Dataset,
    vars: &VarTable,
    input: Vec<Row>,
    names: &[String],
    table: &[Row],
) -> Result<Vec<Row>, QueryError> {
    let slots: Vec<usize> = names
        .iter()
        .map(|n| vars.bound_slot(n))
        .collect::<Result<_, _>>()?;
    let mut out = Vec::new();
    for row in input {
        fan_out(row, table, |mut merged, cells| {
            let mut columns = slots.iter().zip(cells);
            if columns.all(|(&slot, cell)| bind(ds, &mut merged, slot, cell)) {
                out.push(merged);
            }
        });
    }
    Ok(out)
}

/// A copy of a row that goes two ways — the only way rows are copied.
fn copy_row(row: &Row) -> Row {
    #[cfg(test)]
    note_scan_work(ScanWork::RowCopies);
    row.clone()
}

/// Hand `row` to `each` once per item, copying it for every item but
/// the last, which takes the row itself.
pub(crate) fn fan_out<T>(
    row: Row,
    items: impl IntoIterator<Item = T>,
    mut each: impl FnMut(Row, T),
) {
    let mut items = items.into_iter().peekable();
    while let Some(item) = items.next() {
        if items.peek().is_none() {
            return each(row, item);
        }
        each(copy_row(&row), item);
    }
}

/// A cell that holds a value naming a node holds its id instead: the
/// one lookup a computed value gets, where it is bound.
pub(crate) fn as_node(ds: &Dataset, cell: Slot) -> Slot {
    if let Slot::Val(v) = &cell {
        if let Some(id) = node_id(ds, v) {
            return Slot::Id(id);
        }
    }
    cell
}

/// Execute an ASK query.
pub fn execute_ask(ds: &mut Dataset, q: &AskQuery) -> Result<QueryResult, QueryError> {
    let (_, rows) = eval_pattern(ds, &q.pattern, VarTable::default(), Row::default())?;
    Ok(QueryResult::Boolean(!rows.is_empty()))
}

/// Execute a CONSTRUCT query.
pub fn execute_construct(ds: &mut Dataset, q: &ConstructQuery) -> Result<QueryResult, QueryError> {
    let (vars, mut rows) = eval_pattern(ds, &q.pattern, VarTable::default(), Row::default())?;
    // LIMIT cuts the solution sequence, not the triples it instantiates
    // (SPARQL 1.1 §15).
    if let Some(lim) = q.limit {
        rows.truncate(lim);
    }
    let mut out = ssdm_rdf::Graph::new();
    for (n, row) in rows.iter().enumerate() {
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
    row: &Row,
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

/// Optimize an already-translated plan with the dataset's full planner
/// context: configuration, calibration table and zone-map statistics.
pub(crate) fn plan_with_dataset(ds: &Dataset, translated: Plan) -> Plan {
    let ctx = crate::planner::PlannerCtx {
        graph: ds.active(),
        config: ds.planner,
        calibration: Some(&ds.calibration),
        zones: Some(&ds.arrays),
    };
    algebra::optimize_with(translated, &ctx)
}

/// Translate, optimize and evaluate a group pattern from one `seed` row
/// over `vars` (both empty for an uncorrelated pattern). The pattern's
/// own variables are appended to the table, which is returned with the
/// solutions laid out over it.
pub fn eval_pattern(
    ds: &mut Dataset,
    pattern: &GroupPattern,
    mut vars: VarTable,
    seed: Row,
) -> Result<(VarTable, Vec<Row>), QueryError> {
    let plan = if ds.profiling() {
        let t0 = std::time::Instant::now();
        let translated = algebra::translate(pattern);
        let t1 = std::time::Instant::now();
        let plan = plan_with_dataset(ds, translated);
        let t2 = std::time::Instant::now();
        ds.prof_phase("rewrite", t1.duration_since(t0));
        ds.prof_phase("plan", t2.duration_since(t1));
        plan
    } else {
        plan_with_dataset(ds, algebra::translate(pattern))
    };
    vars.add_plan(&plan);
    let mut seed = seed.into_vec();
    seed.resize(vars.names.len(), Slot::Unbound);
    let rows = eval_plan(ds, &vars, &plan, vec![seed.into()])?;
    Ok((vars, rows))
}

/// Greedily re-order the unexecuted scan suffix of a running join by
/// estimated cardinality against the *actually* bound variables — the
/// mid-query re-optimization step. Callers guarantee every element is
/// a plain triple-pattern scan, so any permutation is join-equivalent.
fn reorder_suffix(ds: &Dataset, suffix: &mut [&Plan], mut bound: HashSet<String>) {
    let graph = ds.active();
    for i in 0..suffix.len() {
        let best = (i..suffix.len())
            .min_by(|&a, &b| {
                let ea = algebra::estimate(suffix[a], graph, &bound);
                let eb = algebra::estimate(suffix[b], graph, &bound);
                ea.partial_cmp(&eb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .expect("nonempty range");
        suffix.swap(i, best);
        suffix[i].certain_vars(&mut bound);
    }
}

/// The constant predicate of a scan node, as the calibration key.
fn scan_predicate(plan: &Plan) -> Option<String> {
    match plan {
        Plan::Scan(t, _) => match t.path.as_pred() {
            Some(TermPattern::Term(p)) => Some(p.to_string()),
            _ => None,
        },
        _ => None,
    }
}

/// The window a filter says exactly and nothing more — one window on
/// one variable, no other conjunct — with that variable's slot.
fn exact_window(vars: &VarTable, expr: &Expr) -> Option<(usize, Window)> {
    let (windows, rest) = planner::sargable([expr]);
    match (&windows[..], rest.is_empty()) {
        ([(var, window)], true) => Some((vars.slot(var)?, *window)),
        _ => None,
    }
}

/// Whether a row passes an exact window filter without evaluating it:
/// its slot holds a numeric node strictly inside the window
/// ([`Window::contains_strictly`]). Anything else — a boundary value,
/// NaN, a non-number, a value without an id — is for [`passes`].
fn strictly_inside(ds: &Dataset, window: Option<(usize, Window)>, row: &Row) -> bool {
    let Some((slot, window)) = window else {
        return false;
    };
    match row[slot] {
        Slot::Id(id) => {
            matches!(ds.graph.term(id), Term::Number(n) if window.contains_strictly(n.as_f64()))
        }
        _ => false,
    }
}

/// Whether a row passes a filter; expression errors count as false
/// (thesis §3.6).
fn passes(ds: &mut Dataset, vars: &VarTable, expr: &Expr, row: &Row) -> Result<bool, QueryError> {
    #[cfg(test)]
    note_scan_work(ScanWork::Rechecks);
    let value = eval_expr(ds, &Cx::new(vars, row), expr)?;
    Ok(value.and_then(|v| v.effective_bool()).unwrap_or(false))
}

/// Evaluate a plan over input rows laid out over `vars`, which must
/// cover the plan's variables ([`VarTable::for_plan`]). The plan takes
/// the rows and returns its solutions, built from them. With a profiler
/// attached, every node becomes one operator row carrying the planner's
/// (uncalibrated) estimate next to the observed cardinality; without,
/// this is a direct call into the evaluator.
pub fn eval_plan(
    ds: &mut Dataset,
    vars: &VarTable,
    plan: &Plan,
    input: Vec<Row>,
) -> Result<Vec<Row>, QueryError> {
    if !ds.profiling() {
        return eval_plan_inner(ds, vars, plan, input);
    }
    let rows_in = input.len() as u64;
    // Raw statistics estimate (calibration deliberately excluded, so
    // the feedback loop converges on true corrections instead of
    // re-correcting its own output).
    let est =
        algebra::estimate(plan, ds.active(), &vars.bound_names(&input)) * rows_in.max(1) as f64;
    ds.prof_enter(
        algebra::node_label(plan),
        rows_in,
        Some(est),
        scan_predicate(plan),
    );
    let result = eval_plan_inner(ds, vars, plan, input);
    if let Ok(rows) = &result {
        ds.prof_exit(rows.len() as u64);
    }
    result
}

fn eval_plan_inner(
    ds: &mut Dataset,
    vars: &VarTable,
    plan: &Plan,
    mut input: Vec<Row>,
) -> Result<Vec<Row>, QueryError> {
    match plan {
        Plan::Empty => Ok(input),
        Plan::Scan(t, range) => {
            if t.path.as_pred().is_some() {
                scan_triples(ds, vars, t, range.as_ref(), input)
            } else {
                path::eval_path_scan(ds, vars, t, input)
            }
        }
        Plan::Join(children) => {
            // Adaptive execution: children run left-to-right; when an
            // operator's observed cardinality exceeds its estimate by
            // more than the configured Q-error bound, the *unexecuted*
            // suffix is re-ordered against the now-known bindings.
            // Produced rows are kept untouched, and only commutative
            // suffixes (pure triple-pattern scans) are rewritten, so
            // results are multiset-identical to the static plan.
            let qbound = ds.planner.adaptive_qerror;
            let min_rows = ds.planner.adaptive_min_rows;
            let mut seq: Vec<&Plan> = children.iter().collect();
            let mut rows = input;
            let mut idx = 0;
            while idx < seq.len() {
                let child = seq[idx];
                // Pre-execution estimate, only when adaptivity could
                // still rewrite something downstream.
                let est = match qbound {
                    Some(_) if seq.len() - idx > 2 => Some(
                        algebra::estimate(child, ds.active(), &vars.bound_names(&rows))
                            * rows.len().max(1) as f64,
                    ),
                    _ => None,
                };
                rows = eval_plan(ds, vars, child, rows)?;
                if rows.is_empty() {
                    break;
                }
                idx += 1;
                if let (Some(qmax), Some(est)) = (qbound, est) {
                    let actual = rows.len() as f64;
                    let blown = actual / est.max(0.5) > qmax;
                    if blown
                        && rows.len() >= min_rows
                        && seq[idx..]
                            .iter()
                            .all(|c| matches!(c, Plan::Scan(t, _) if t.path.as_pred().is_some()))
                    {
                        reorder_suffix(ds, &mut seq[idx..], vars.bound_names(&rows));
                        ds.prof_note_reopt();
                    }
                }
            }
            Ok(rows)
        }
        Plan::LeftJoin { left, right } => {
            let left_rows = eval_plan(ds, vars, left, input)?;
            let mut out = Vec::with_capacity(left_rows.len());
            for lrow in left_rows {
                // The row goes both ways: into the probe, and out as
                // itself when the probe finds nothing.
                let matches = eval_plan(ds, vars, right, vec![copy_row(&lrow)])?;
                if matches.is_empty() {
                    out.push(lrow);
                } else {
                    out.extend(matches);
                }
            }
            Ok(out)
        }
        Plan::Union(branches) => {
            let mut out = Vec::new();
            for (i, b) in branches.iter().enumerate() {
                let rows = if i + 1 < branches.len() {
                    input.iter().map(copy_row).collect()
                } else {
                    std::mem::take(&mut input)
                };
                out.extend(eval_plan(ds, vars, b, rows)?);
            }
            Ok(out)
        }
        Plan::Filter { input: inner, expr } => {
            let mut rows = eval_plan(ds, vars, inner, input)?;
            let window = exact_window(vars, expr);
            let mut kept = 0;
            for at in 0..rows.len() {
                if strictly_inside(ds, window, &rows[at]) || passes(ds, vars, expr, &rows[at])? {
                    rows.swap(kept, at);
                    kept += 1;
                }
            }
            rows.truncate(kept);
            Ok(rows)
        }
        Plan::Extend {
            input: inner,
            var,
            expr,
        } => {
            let rows = eval_plan(ds, vars, inner, input)?;
            let slot = vars.bound_slot(var)?;
            // Bag-valued view calls (DAPLEX semantics, §2.6): a BIND
            // of a defined-function call fans out over EVERY solution
            // of the parameterized view, not just the first.
            let view = match expr {
                Expr::Call { name, args } => ds.registry.lookup_defined(name).map(|d| (d, args)),
                _ => None,
            };
            let mut out = Vec::with_capacity(rows.len());
            for mut row in rows {
                // Subscript-variable enumeration (thesis §4.1.2): a
                // dereference whose subscripts contain unbound variables
                // fans the solution out over every valid subscript.
                let cx = Cx::new(vars, &row);
                if algebra::subscript_vars(expr).any(|v| !cx.slot(v).is_some_and(Slot::is_bound)) {
                    out.extend(enumerate_subscripts(ds, vars, row, slot, expr)?);
                } else if let Some((def, args)) = &view {
                    out.extend(bind_view_bag(ds, vars, row, slot, def, args)?);
                } else {
                    // BIND errors leave the variable unbound.
                    let bound = match eval_expr(ds, &cx, expr)? {
                        Some(v) => bind(ds, &mut row, slot, &as_node(ds, v.into())),
                        None => true,
                    };
                    if bound {
                        out.push(row);
                    }
                }
            }
            Ok(out)
        }
        Plan::Graph { name, inner } => {
            let saved = ds.active_graph;
            let result = eval_graph_plan(ds, vars, name, inner, input);
            ds.active_graph = saved;
            result
        }
        Plan::SubSelect(q) => {
            // SPARQL subqueries evaluate bottom-up, then join.
            let (names, mut table) = select_solutions(ds, q, Vec::new())?;
            for cell in table.iter_mut().flat_map(|row| row.iter_mut()) {
                *cell = as_node(ds, std::mem::take(cell));
            }
            join_table(ds, vars, input, &names, &table)
        }
        Plan::Minus {
            input: inner,
            pattern,
        } => {
            let mut rows = eval_plan(ds, vars, inner, input)?;
            let (minus_vars, minus_rows) =
                eval_pattern(ds, pattern, VarTable::default(), Row::default())?;
            let shared: Vec<(usize, usize)> = minus_vars
                .names
                .iter()
                .enumerate()
                .filter_map(|(m, name)| vars.slot(name).map(|r| (r, m)))
                .collect();
            // SPARQL MINUS: drop a solution when some minus-solution
            // shares at least one variable and agrees on all shared ones.
            rows.retain(|row| {
                !minus_rows.iter().any(|minus| {
                    let mut both = shared
                        .iter()
                        .filter(|&&(r, m)| row[r].is_bound() && minus[m].is_bound())
                        .peekable();
                    both.peek().is_some() && both.all(|&(r, m)| slot_eq(ds, &row[r], &minus[m]))
                })
            });
            Ok(rows)
        }
        Plan::Values { vars: names, rows } => {
            let cell = |term: &Option<Term>| {
                term.as_ref()
                    .map_or(Slot::Unbound, |t| as_node(ds, ds.term_to_value(t).into()))
            };
            let table: Vec<Row> = rows.iter().map(|r| r.iter().map(cell).collect()).collect();
            join_table(ds, vars, input, names, &table)
        }
    }
}

/// One position of a triple pattern, compiled once per scan call.
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

#[cfg(test)]
thread_local! {
    /// Dictionary lookups made for pattern constants, index range
    /// scans started, index entries visited, filter rows handed to
    /// `eval_expr`, and rows copied, on this thread.
    static SCAN_WORK: std::cell::Cell<[usize; 5]> = const { std::cell::Cell::new([0; 5]) };
}

/// Which `SCAN_WORK` counter.
#[cfg(test)]
#[derive(Clone, Copy)]
enum ScanWork {
    Lookups,
    Scans,
    Visited,
    Rechecks,
    RowCopies,
}

#[cfg(test)]
fn note_scan_work(counter: ScanWork) {
    SCAN_WORK.with(|w| {
        let mut work = w.get();
        work[counter as usize] += 1;
        w.set(work);
    });
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

    pub(crate) fn at<'r>(&'r self, row: &'r Row) -> At<'r> {
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

/// Push `row` extended with the ids a match gives its free slots. A
/// variable used twice in the pattern must match itself: the same id,
/// else the same value.
pub(crate) fn extend(
    dict: &Dictionary,
    mut extended: Row,
    bindings: &[(Option<usize>, TermId)],
    out: &mut Vec<Row>,
) {
    for &(free, id) in bindings {
        let Some(slot) = free else { continue };
        match extended[slot] {
            Slot::Id(first) if first == id || dict.term(first).value_eq(dict.term(id)) => {}
            Slot::Id(_) => return,
            _ => extended[slot] = Slot::Id(id),
        }
    }
    out.push(extended);
}

/// Match a plain triple pattern against the graph for each input row.
/// `range` is a window every solution's object must lie in (the filter
/// that says so runs above): a row that leaves subject and object free
/// under a constant predicate reads only that stretch of the graph's
/// value index; any other row probes as if there were no window.
fn scan_triples(
    ds: &mut Dataset,
    vars: &VarTable,
    t: &TriplePattern,
    range: Option<&Window>,
    input: Vec<Row>,
) -> Result<Vec<Row>, QueryError> {
    let Some(pred) = t.path.as_pred() else {
        return Err(QueryError::Eval(
            "a property path reached the triple-pattern scan".into(),
        ));
    };
    let (Some(s), Some(p), Some(o)) = (
        Pos::compile(ds, vars, &t.subject)?,
        Pos::compile(ds, vars, pred)?,
        Pos::compile(ds, vars, &t.object)?,
    ) else {
        return Ok(Vec::new());
    };
    let pattern = [s, p, o];
    let mut out = Vec::new();
    'rows: for row in input {
        let mut ids: [Option<TermId>; 3] = [None; 3];
        let mut free: [Option<usize>; 3] = [None; 3];
        let mut content_checks: Vec<(usize, ssdm_array::NumArray)> = Vec::new();
        for (i, pos) in pattern.iter().enumerate() {
            match pos.at(&row) {
                At::Free(slot) => free[i] = Some(slot),
                At::Id(id) => ids[i] = Some(id),
                At::Value(Value::Term(Term::Array(a))) => content_checks.push((i, a.clone())),
                At::Value(Value::Proxy(p)) => content_checks.push((i, ds.resolve_proxy(p)?)),
                At::Value(_) => continue 'rows,
            }
        }
        #[cfg(test)]
        note_scan_work(ScanWork::Scans);
        if content_checks.is_empty() {
            let graph = ds.active();
            let matches = match (range, ids, free) {
                (Some(w), [None, Some(p), None], [Some(_), None, Some(_)]) => {
                    graph.match_object_range(p, w.lo_value(), w.hi_value())
                }
                _ => graph.match_pattern(ids[0], ids[1], ids[2]),
            };
            let matches = matches.map(|m| {
                #[cfg(test)]
                note_scan_work(ScanWork::Visited);
                [(free[0], m.s), (free[1], m.p), (free[2], m.o)]
            });
            fan_out(row, matches, |r, b| {
                extend(graph.dictionary(), r, &b, &mut out)
            });
            continue;
        }
        // Resolving candidates needs the array store: collect first.
        let candidates: Vec<ssdm_rdf::Triple> =
            ds.active().match_pattern(ids[0], ids[1], ids[2]).collect();
        let mut hits = Vec::new();
        'triple: for m in candidates {
            for (i, target) in &content_checks {
                let candidate = ds.node_array([m.s, m.p, m.o][*i])?;
                if !candidate.is_some_and(|a| a.array_eq(target)) {
                    continue 'triple;
                }
            }
            hits.push([(free[0], m.s), (free[1], m.p), (free[2], m.o)]);
        }
        fan_out(row, hits, |r, b| {
            extend(ds.graph.dictionary(), r, &b, &mut out)
        });
    }
    Ok(out)
}

/// The id of the node a value names, if any. Computed values (fresh
/// arrays, closures) name none.
pub(crate) fn node_id(ds: &Dataset, v: &Value) -> Option<TermId> {
    let dict = ds.graph.dictionary();
    match v {
        Value::Term(t) => dict.lookup(t),
        Value::Proxy(p) => {
            // Only a whole-array proxy denotes the stored node.
            let whole = ssdm_storage::ArrayProxy::whole(p.meta().clone());
            if whole.view() == p.view() {
                dict.lookup(&Term::ArrayRef(p.array_id()))
            } else {
                None
            }
        }
        Value::Closure(_) => None,
    }
}

/// Evaluate a GRAPH plan: a fixed name retargets the active graph (a
/// graph the dataset lacks matches nothing); a variable iterates the
/// visible named graphs in name order, binding it to each name's id.
fn eval_graph_plan(
    ds: &mut Dataset,
    vars: &VarTable,
    name: &TermPattern,
    inner: &Plan,
    mut input: Vec<Row>,
) -> Result<Vec<Row>, QueryError> {
    let slot = match name {
        TermPattern::Term(name) => match ds.named_graph_id(name) {
            Some(graph) => {
                ds.active_graph = Some(graph);
                return eval_plan(ds, vars, inner, input);
            }
            None => return Ok(Vec::new()),
        },
        TermPattern::Var(v) => vars.bound_slot(v)?,
    };
    let mut graphs = ds.named_graph_ids();
    if let Some(visible) = &ds.visible_named {
        graphs.retain(|g| visible.contains(g));
    }
    let mut out = Vec::new();
    let mut graphs = graphs.into_iter().peekable();
    while let Some(graph) = graphs.next() {
        let mut rows: Vec<Row> = if graphs.peek().is_some() {
            input.iter().map(copy_row).collect()
        } else {
            std::mem::take(&mut input)
        };
        rows.retain_mut(|row| bind(ds, row, slot, &Slot::Id(graph)));
        if !rows.is_empty() {
            ds.active_graph = Some(graph);
            out.extend(eval_plan(ds, vars, inner, rows)?);
        }
    }
    Ok(out)
}

/// Fan one solution out over all valid subscript combinations of a
/// dereference with unbound subscript variables (thesis §4.1.2):
/// `BIND (?a[?i] AS ?v)` with unbound `?i` yields one solution per
/// element, binding both `?i` (1-based) and `?v`.
fn enumerate_subscripts(
    ds: &mut Dataset,
    vars: &VarTable,
    row: Row,
    var: usize,
    deref: &Expr,
) -> Result<Vec<Row>, QueryError> {
    let Expr::ArrayDeref { base, subscripts } = deref else {
        return Ok(vec![row]);
    };
    let Some(basev) = eval_expr(ds, &Cx::new(vars, &row), base)? else {
        return Ok(vec![row]);
    };
    let Some(shape) = basev.array_shape() else {
        return Ok(vec![row]); // not an array: error -> unbound
    };
    if subscripts.len() > shape.len() {
        return Ok(vec![row]);
    }
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
    let count: usize = sizes.iter().product();
    let mut out = Vec::with_capacity(count);
    let mut ix = vec![1i64; enumerating.len()];
    for _ in 0..count {
        let mut extended = copy_row(&row);
        for (&(_, slot), &i) in enumerating.iter().zip(&ix) {
            extended[slot] = as_node(ds, Value::integer(i).into());
        }
        if let Some(value) = eval_expr(ds, &Cx::new(vars, &extended), deref)? {
            if bind(ds, &mut extended, var, &as_node(ds, value.into())) {
                out.push(extended);
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
    Ok(out)
}

/// Fan a solution out over every result of a parameterized-view call
/// (DAPLEX bag semantics): `BIND (f(args) AS ?v)` yields one solution
/// per row of f's body, binding ?v to the first projected column.
fn bind_view_bag(
    ds: &mut Dataset,
    vars: &VarTable,
    row: Row,
    var: usize,
    def: &FunctionDef,
    args: &[Expr],
) -> Result<Vec<Row>, QueryError> {
    let mut values = Vec::with_capacity(args.len());
    for a in args {
        match eval_expr(ds, &Cx::new(vars, &row), a)? {
            Some(v) => values.push(v),
            // An erroneous argument leaves the BIND unbound.
            None => return Ok(vec![row]),
        }
    }
    let results = call_view(ds, def, values)?;
    if results.is_empty() {
        // No solutions: the call errors, the variable stays unbound.
        return Ok(vec![row]);
    }
    let mut out = Vec::with_capacity(results.len());
    let cells = results
        .into_iter()
        .filter_map(|r| r.into_vec().into_iter().next())
        .filter(Slot::is_bound);
    fan_out(row, cells, |mut extended, cell| {
        if bind(ds, &mut extended, var, &as_node(ds, cell)) {
            out.push(extended);
        }
    });
    Ok(out)
}

/// The projected rows of a parameterized view called with `args`: its
/// body run with the parameters pre-bound.
pub(crate) fn call_view(
    ds: &mut Dataset,
    def: &FunctionDef,
    args: Vec<Value>,
) -> Result<Vec<Row>, QueryError> {
    if def.params.len() != args.len() {
        return Err(QueryError::Eval(format!(
            "function {} expects {} argument(s), got {}",
            def.name,
            def.params.len(),
            args.len()
        )));
    }
    let initial = def.params.iter().map(String::as_str).zip(args).collect();
    Ok(select_solutions(ds, &def.body, initial)?.1)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scan(subject: &str, pred: &str, object: TermPattern) -> TriplePattern {
        TriplePattern {
            subject: TermPattern::Var(subject.into()),
            path: Path::Pred(TermPattern::Term(Term::uri(pred))),
            object,
        }
    }

    /// [constant lookups, index range scans, index entries visited,
    /// filter rows evaluated, rows copied] since the last call.
    fn scan_work() -> [usize; 5] {
        SCAN_WORK.with(|w| w.replace([0; 5]))
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
        let first = scan("s", "http://p", TermPattern::Var("o".into()));
        let on = scan("s", "http://q", TermPattern::Term(Term::str("on")));
        let off = scan("s", "http://q", TermPattern::Term(Term::str("off")));
        let vars = VarTable::for_plan(&Plan::Scan(first.clone(), None));
        let rows = scan_triples(&mut ds, &vars, &first, None, vec![vars.unit_row()]).unwrap();
        assert_eq!(rows.len(), 40);

        // Two constants, forty input rows: two lookups, one range scan
        // per row, with the bound subject passed on as an id.
        scan_work();
        let joined = scan_triples(&mut ds, &vars, &on, None, rows.clone()).unwrap();
        assert_eq!(joined.len(), 40);
        assert_eq!(scan_work()[..3], [2, 40, 40]);

        // A constant the dictionary has never seen ends the scan
        // before the index is touched.
        let none = scan_triples(&mut ds, &vars, &off, None, rows).unwrap();
        assert!(none.is_empty());
        assert_eq!(scan_work()[..3], [2, 0, 0]);
    }

    #[test]
    fn a_scan_moves_each_row_into_its_last_match() {
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
        let subjects = scan("s", "http://q", TermPattern::Var("f".into()));
        let member = scan("s", "http://q", TermPattern::Term(Term::str("on")));
        let one = scan("s", "http://p", TermPattern::Var("o".into()));
        let many = scan("s", "http://r", TermPattern::Var("k".into()));
        let plan = Plan::Join(
            [&subjects, &one, &many]
                .map(|t| Plan::Scan(t.clone(), None))
                .into(),
        );
        let vars = VarTable::for_plan(&plan);
        let rows = scan_triples(&mut ds, &vars, &subjects, None, vec![vars.unit_row()]).unwrap();
        assert_eq!(rows.len(), 40);

        // A membership probe and a 1:1 `(s, p, ?)` probe copy nothing.
        scan_work();
        let rows = scan_triples(&mut ds, &vars, &member, None, rows).unwrap();
        assert_eq!((rows.len(), scan_work()[4]), (40, 0));
        let rows = scan_triples(&mut ds, &vars, &one, None, rows).unwrap();
        assert_eq!((rows.len(), scan_work()[4]), (40, 0));

        // k matches copy the row k - 1 times; no match drops it.
        let out = scan_triples(&mut ds, &vars, &many, None, rows).unwrap();
        let matches: usize = (0..40).map(|i| i % 4).sum();
        let with_any = (0..40).filter(|i| i % 4 > 0).count();
        assert_eq!(out.len(), matches);
        assert_eq!(scan_work()[4], matches - with_any);
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
            let (vars, rows) =
                eval_pattern(ds, &q.pattern, VarTable::default(), Row::default()).unwrap();
            for row in &rows {
                for (name, slot) in vars.names.iter().zip(row.iter()) {
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
}
