//! Logical algebra and the SciSPARQL translation pipeline.
//!
//! Mirrors SSDM's processing of a query (thesis §5.4): the parsed
//! pattern translates into an operator tree ([`Plan`]); filters are
//! collected and *pushed down* to the earliest point where their
//! variables are bound; and conjunctions of scans are **reordered by
//! estimated cost** using the graph's per-predicate statistics — the
//! role ObjectLog normalization plus the Amos II cost-based optimizer
//! play in the original system.

use std::collections::{HashMap, HashSet};

use ssdm_rdf::{GraphView, TermId};

use crate::ast::*;
use crate::planner::{
    consts, filter_selectivity, sargable, FilterVars, PlannerCtx, PlannerMode, Window,
};

/// A logical operator.
#[derive(Debug, Clone)]
pub enum Plan {
    /// The unit: one empty solution.
    Empty,
    /// Match one triple pattern (including property paths). A window
    /// is what the join's filters say about the object variable: a scan
    /// that finds subject and object free answers it from the graph's
    /// value index, any other probes as if it were not there. Either
    /// way the filter it came from stays in the plan and decides.
    Scan(TriplePattern, Option<Window>),
    /// Conjunction; children run left-to-right, feeding bindings forward.
    Join(Vec<Plan>),
    /// OPTIONAL.
    LeftJoin { left: Box<Plan>, right: Box<Plan> },
    /// UNION of branches.
    Union(Vec<Plan>),
    /// FILTER.
    Filter { input: Box<Plan>, expr: Expr },
    /// BIND.
    Extend {
        input: Box<Plan>,
        var: String,
        expr: Expr,
    },
    /// VALUES.
    Values {
        vars: Vec<String>,
        rows: Vec<Vec<Option<ssdm_rdf::Term>>>,
    },
    /// GRAPH pattern: evaluate `inner` against a named graph.
    Graph { name: TermPattern, inner: Box<Plan> },
    /// A subquery whose projected rows join the outer bindings.
    SubSelect(Box<SelectQuery>),
    /// Set difference against compatible solutions of the pattern.
    Minus {
        input: Box<Plan>,
        pattern: GroupPattern,
    },
}

impl Plan {
    /// Call `f` on each plan this node runs, its inputs and operands, in
    /// order.
    pub(crate) fn each_child<'a>(&'a self, mut f: impl FnMut(&'a Plan)) {
        match self {
            Plan::Empty | Plan::Scan(..) | Plan::Values { .. } | Plan::SubSelect(_) => {}
            Plan::Join(children) | Plan::Union(children) => children.iter().for_each(f),
            Plan::LeftJoin { left, right } => {
                f(left);
                f(right);
            }
            Plan::Filter { input, .. } | Plan::Extend { input, .. } | Plan::Minus { input, .. } => {
                f(input)
            }
            Plan::Graph { inner, .. } => f(inner),
        }
    }

    /// Variables this plan is guaranteed to bind in every solution
    /// (used for filter placement).
    pub fn certain_vars(&self, out: &mut HashSet<String>) {
        match self {
            Plan::Empty => {}
            Plan::Scan(t, _) => {
                if let TermPattern::Var(v) = &t.subject {
                    out.insert(v.clone());
                }
                if let Some(TermPattern::Var(v)) = t.path.as_pred() {
                    out.insert(v.clone());
                }
                if let TermPattern::Var(v) = &t.object {
                    out.insert(v.clone());
                }
            }
            Plan::Join(children) => {
                for c in children {
                    c.certain_vars(out);
                }
            }
            Plan::LeftJoin { left, .. } => left.certain_vars(out),
            Plan::Union(branches) => {
                // Only vars bound in EVERY branch are certain.
                let mut iter = branches.iter();
                let mut common: HashSet<String> = match iter.next() {
                    Some(b) => {
                        let mut s = HashSet::new();
                        b.certain_vars(&mut s);
                        s
                    }
                    None => return,
                };
                for b in iter {
                    let mut s = HashSet::new();
                    b.certain_vars(&mut s);
                    common.retain(|v| s.contains(v));
                }
                out.extend(common);
            }
            Plan::Filter { input, .. } => input.certain_vars(out),
            Plan::Extend { input, var, .. } => {
                input.certain_vars(out);
                out.insert(var.clone());
            }
            Plan::Values { vars, rows } => {
                for (i, v) in vars.iter().enumerate() {
                    if rows
                        .iter()
                        .all(|r| r.get(i).map(|c| c.is_some()).unwrap_or(false))
                    {
                        out.insert(v.clone());
                    }
                }
            }
            Plan::Graph { name, inner } => {
                if let TermPattern::Var(v) = name {
                    out.insert(v.clone());
                }
                inner.certain_vars(out);
            }
            Plan::SubSelect(q) => {
                if let Projection::Items(items) = &q.projection {
                    for i in items {
                        out.insert(i.name());
                    }
                }
            }
            Plan::Minus { input, .. } => input.certain_vars(out),
        }
    }
}

/// The variables a BIND of `expr` can bind besides its target: the bare
/// variable subscripts of a dereference (`?a[?i, 2]` → `i`), which
/// enumerate when unbound (thesis §4.1.2).
pub(crate) fn subscript_vars(expr: &Expr) -> impl Iterator<Item = &str> {
    let subscripts: &[SubscriptExpr] = match expr {
        Expr::ArrayDeref { subscripts, .. } => subscripts,
        _ => &[],
    };
    subscripts.iter().filter_map(|s| match s {
        SubscriptExpr::Index(Expr::Var(v)) => Some(v.as_str()),
        _ => None,
    })
}

/// Translate a group pattern into a logical plan (filters float to the
/// top of their group, per SPARQL's group-level filter scope).
pub fn translate(pattern: &GroupPattern) -> Plan {
    let mut conj: Vec<Plan> = Vec::new();
    let mut filters: Vec<Expr> = Vec::new();
    for elem in &pattern.elems {
        match elem {
            PatternElem::Triple(t) => conj.push(Plan::Scan(t.clone(), None)),
            PatternElem::Group(g) => conj.push(translate(g)),
            PatternElem::Union(branches) => {
                conj.push(Plan::Union(branches.iter().map(translate).collect()))
            }
            PatternElem::Values { vars, rows } => conj.push(Plan::Values {
                vars: vars.clone(),
                rows: rows.clone(),
            }),
            PatternElem::Filter(e) => filters.push(e.clone()),
            PatternElem::Bind { expr, var } => {
                // BIND scopes over the group so far.
                let input = join_of(std::mem::take(&mut conj));
                conj.push(Plan::Extend {
                    input: Box::new(input),
                    var: var.clone(),
                    expr: expr.clone(),
                });
            }
            PatternElem::Graph { name, pattern } => {
                conj.push(Plan::Graph {
                    name: name.clone(),
                    inner: Box::new(translate(pattern)),
                });
            }
            PatternElem::SubSelect(q) => conj.push(Plan::SubSelect(q.clone())),
            PatternElem::Minus(p) => {
                let input = join_of(std::mem::take(&mut conj));
                conj.push(Plan::Minus {
                    input: Box::new(input),
                    pattern: p.clone(),
                });
            }
            PatternElem::Optional(g) => {
                let left = join_of(std::mem::take(&mut conj));
                conj.push(Plan::LeftJoin {
                    left: Box::new(left),
                    right: Box::new(translate(g)),
                });
            }
        }
    }
    let mut plan = join_of(conj);
    for f in filters {
        plan = Plan::Filter {
            input: Box::new(plan),
            expr: f,
        };
    }
    plan
}

fn join_of(mut children: Vec<Plan>) -> Plan {
    match children.len() {
        0 => Plan::Empty,
        1 => children.pop().expect("len checked"),
        _ => Plan::Join(children),
    }
}

// ---------------------------------------------------------------------
// Optimization
// ---------------------------------------------------------------------

/// Optimize a plan under a planner context (configuration mode,
/// calibration table, zone-map statistics): flatten joins, push filters
/// down, and order join children by estimated cardinality given
/// already-bound variables.
pub fn optimize_with(plan: Plan, ctx: &PlannerCtx) -> Plan {
    let plan = sink_filters(flatten(plan));
    order_and_push(plan, ctx, &HashSet::new())
}

/// Translate without reordering (the "textual order" baseline used by
/// the optimizer ablation experiment).
pub fn translate_unoptimized(pattern: &GroupPattern) -> Plan {
    flatten(translate(pattern))
}

fn flatten(plan: Plan) -> Plan {
    match plan {
        Plan::Join(children) => {
            let mut flat = Vec::new();
            for c in children {
                match flatten(c) {
                    Plan::Join(inner) => flat.extend(inner),
                    Plan::Empty => {}
                    other => flat.push(other),
                }
            }
            join_of(flat)
        }
        Plan::LeftJoin { left, right } => Plan::LeftJoin {
            left: Box::new(flatten(*left)),
            right: Box::new(flatten(*right)),
        },
        Plan::Union(branches) => Plan::Union(branches.into_iter().map(flatten).collect()),
        Plan::Filter { input, expr } => Plan::Filter {
            input: Box::new(flatten(*input)),
            expr,
        },
        Plan::Graph { name, inner } => Plan::Graph {
            name,
            inner: Box::new(flatten(*inner)),
        },
        Plan::Minus { input, pattern } => Plan::Minus {
            input: Box::new(flatten(*input)),
            pattern,
        },
        Plan::Extend { input, var, expr } => Plan::Extend {
            input: Box::new(flatten(*input)),
            var,
            expr,
        },
        other => other,
    }
}

/// Move every filter beneath the BINDs it commutes with, so a filter on
/// other variables runs before the BIND's expression does — which may
/// fetch an array per row. Filters above a group float over its BINDs
/// in [`translate`]; this puts them back under.
fn sink_filters(plan: Plan) -> Plan {
    let sunk = |p: Box<Plan>| Box::new(sink_filters(*p));
    match plan {
        Plan::Filter { input, expr } => sink_filter(sink_filters(*input), expr),
        Plan::Join(children) => Plan::Join(children.into_iter().map(sink_filters).collect()),
        Plan::Union(branches) => Plan::Union(branches.into_iter().map(sink_filters).collect()),
        Plan::LeftJoin { left, right } => Plan::LeftJoin {
            left: sunk(left),
            right: sunk(right),
        },
        Plan::Extend { input, var, expr } => Plan::Extend {
            input: sunk(input),
            var,
            expr,
        },
        Plan::Graph { name, inner } => Plan::Graph {
            name,
            inner: sunk(inner),
        },
        Plan::Minus { input, pattern } => Plan::Minus {
            input: sunk(input),
            pattern,
        },
        other => other,
    }
}

/// Place one filter over `input`, below every BIND at its top that the
/// filter commutes with. A filter is row-wise, so it commutes with a
/// BIND that binds nothing it reads: each solution the BIND fans out to
/// (or drops, on an unequal re-bind) keeps the other variables as they
/// were. `EXISTS` reads variables `collect_vars` does not report, so
/// such a filter stays put.
fn sink_filter(input: Plan, filter: Expr) -> Plan {
    let commutes = |var: &String, bind: &Expr| {
        let mut reads = Vec::new();
        filter.collect_vars(&mut reads);
        let binds = |v: &String| v == var || subscript_vars(bind).any(|s| s == v);
        !filter.has_exists() && !reads.iter().any(binds)
    };
    match input {
        Plan::Extend { input, var, expr } if commutes(&var, &expr) => Plan::Extend {
            input: Box::new(sink_filter(*input, filter)),
            var,
            expr,
        },
        other => Plan::Filter {
            input: Box::new(other),
            expr: filter,
        },
    }
}

/// Recursive optimization: within a Join, order children per the
/// configured enumeration mode and interleave applicable filters;
/// recurse into sub-plans.
fn order_and_push(plan: Plan, ctx: &PlannerCtx, outer_bound: &HashSet<String>) -> Plan {
    match plan {
        Plan::Filter { input, expr } => {
            // Consecutive filters are one conjunction: push them into
            // the join (or lone scan) below together.
            let mut filters = vec![expr];
            let mut below = *input;
            while let Plan::Filter { input, expr } = below {
                filters.push(expr);
                below = *input;
            }
            match below {
                Plan::Join(children) => optimize_join(children, filters, ctx, outer_bound),
                scan @ Plan::Scan(..) => optimize_join(vec![scan], filters, ctx, outer_bound),
                other => {
                    let inner = order_and_push(other, ctx, outer_bound);
                    filters
                        .into_iter()
                        .rev()
                        .fold(inner, |input, expr| Plan::Filter {
                            input: Box::new(input),
                            expr,
                        })
                }
            }
        }
        Plan::Join(children) => optimize_join(children, Vec::new(), ctx, outer_bound),
        Plan::LeftJoin { left, right } => {
            let left = order_and_push(*left, ctx, outer_bound);
            let mut bound = outer_bound.clone();
            left.certain_vars(&mut bound);
            let right = order_and_push(*right, ctx, &bound);
            Plan::LeftJoin {
                left: Box::new(left),
                right: Box::new(right),
            }
        }
        Plan::Union(branches) => Plan::Union(
            branches
                .into_iter()
                .map(|b| order_and_push(b, ctx, outer_bound))
                .collect(),
        ),
        Plan::Extend { input, var, expr } => Plan::Extend {
            input: Box::new(order_and_push(*input, ctx, outer_bound)),
            var,
            expr,
        },
        // GRAPH inner patterns match a different graph whose statistics
        // we don't consult; only push bound-variable knowledge down.
        Plan::Graph { name, inner } => Plan::Graph {
            name,
            inner: Box::new(order_and_push(*inner, ctx, outer_bound)),
        },
        Plan::Minus { input, pattern } => Plan::Minus {
            input: Box::new(order_and_push(*input, ctx, outer_bound)),
            pattern,
        },
        other => other,
    }
}

/// Gather the filters sitting directly above a join and its items,
/// hand each sargable window to the scans that bind its variable,
/// choose a child order (textual / greedy / DP per the context's mode),
/// then assemble the join with filters interleaved at their earliest
/// fully-bound position.
fn optimize_join(
    children: Vec<Plan>,
    mut filters: Vec<Expr>,
    ctx: &PlannerCtx,
    outer_bound: &HashSet<String>,
) -> Plan {
    // Peel nested Filter-over-Join chains.
    let mut items: Vec<Plan> = Vec::new();
    for c in children {
        match c {
            Plan::Filter { input, expr } if matches!(*input, Plan::Join(_) | Plan::Scan(..)) => {
                filters.push(expr);
                match *input {
                    Plan::Join(inner) => items.extend(inner),
                    other => items.push(other),
                }
            }
            other => items.push(other),
        }
    }

    // Every solution of this join passes every filter, so a scan that
    // binds a windowed variable may skip objects outside the window.
    let (windows, _) = sargable(&filters);
    for item in &mut items {
        if let Plan::Scan(t, range) = item {
            let var = range_scan_var(t, outer_bound);
            *range = windows.iter().find(|(v, _)| Some(*v) == var).map(|w| w.1);
        }
    }

    let order = choose_order(&items, &filters, ctx, outer_bound);

    let mut pending_filters = filters;
    let mut ordered: Vec<Plan> = Vec::new();
    let mut bound = outer_bound.clone();
    let mut items: Vec<Option<Plan>> = items.into_iter().map(Some).collect();

    for idx in order {
        let chosen = items[idx].take().expect("order is a permutation");
        let chosen = order_and_push(chosen, ctx, &bound);
        chosen.certain_vars(&mut bound);
        ordered.push(chosen);
        // Attach every filter whose variables are now all bound.
        let mut still_pending = Vec::new();
        for f in pending_filters.drain(..) {
            let mut vars = Vec::new();
            f.collect_vars(&mut vars);
            if vars.iter().all(|v| bound.contains(v)) {
                let input = join_of(std::mem::take(&mut ordered));
                ordered.push(Plan::Filter {
                    input: Box::new(input),
                    expr: f,
                });
            } else {
                still_pending.push(f);
            }
        }
        pending_filters = still_pending;
    }
    let mut plan = join_of(ordered);
    // Filters whose vars never bind still apply (they see unbound vars).
    for f in pending_filters {
        plan = Plan::Filter {
            input: Box::new(plan),
            expr: f,
        };
    }
    plan
}

/// Pick the evaluation order of a join's children as a permutation of
/// their indices, per the configured enumeration mode.
fn choose_order(
    items: &[Plan],
    filters: &[Expr],
    ctx: &PlannerCtx,
    outer_bound: &HashSet<String>,
) -> Vec<usize> {
    let n = items.len();
    match ctx.config.mode {
        PlannerMode::Textual => (0..n).collect(),
        PlannerMode::Greedy => greedy_order(items, ctx, outer_bound),
        PlannerMode::Dp => {
            if (2..=consts::DP_MAX_PATTERNS).contains(&n) {
                dp_order(items, filters, ctx, outer_bound)
            } else {
                greedy_order(items, ctx, outer_bound)
            }
        }
    }
}

/// One-shot greedy ordering: repeatedly take the child with the lowest
/// estimated cardinality given the variables bound so far (the pre-v2
/// planner).
fn greedy_order(items: &[Plan], ctx: &PlannerCtx, outer_bound: &HashSet<String>) -> Vec<usize> {
    let n = items.len();
    let mut used = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut bound = outer_bound.clone();
    for _ in 0..n {
        let (best_idx, _) = items
            .iter()
            .enumerate()
            .filter(|(i, _)| !used[*i])
            .map(|(i, c)| (i, estimate_ctx(c, ctx, &bound)))
            .min_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal))
            .expect("nonempty");
        used[best_idx] = true;
        items[best_idx].certain_vars(&mut bound);
        order.push(best_idx);
    }
    order
}

/// Bottom-up dynamic programming over connected subsets (System R for
/// left-deep plans): `dp[S]` holds the cheapest order producing the
/// item subset `S`, where cost is the total intermediate cardinality
/// Σ |prefix| and filters discount cardinality as soon as their
/// variables bind. Extensions prefer items connected to the bound
/// variable set, so cross products appear only when unavoidable.
fn dp_order(
    items: &[Plan],
    filters: &[Expr],
    ctx: &PlannerCtx,
    outer_bound: &HashSet<String>,
) -> Vec<usize> {
    let n = items.len();
    debug_assert!(n <= 16, "dp_order caller enforces the cutoff");
    let item_vars: Vec<HashSet<String>> = items
        .iter()
        .map(|c| {
            let mut s = HashSet::new();
            c.certain_vars(&mut s);
            s
        })
        .collect();
    let filter_vars: Vec<Vec<String>> = filters
        .iter()
        .map(|f| {
            let mut vs = Vec::new();
            f.collect_vars(&mut vs);
            vs
        })
        .collect();
    let preds = var_predicates(items, ctx.graph);

    #[derive(Clone)]
    struct State {
        cost: f64,
        card: f64,
        order: Vec<usize>,
        bound: HashSet<String>,
        /// Variables whose window a scan placed so far enforces.
        enforced: HashSet<String>,
        filters_done: u64,
    }

    let full: usize = (1 << n) - 1;
    let mut dp: Vec<Option<State>> = vec![None; 1 << n];
    dp[0] = Some(State {
        cost: 0.0,
        card: 1.0,
        order: Vec::new(),
        bound: outer_bound.clone(),
        enforced: HashSet::new(),
        filters_done: 0,
    });

    for mask in 0..=full {
        let Some(state) = dp[mask].clone() else {
            continue;
        };
        let free: Vec<usize> = (0..n).filter(|j| mask & (1 << j) == 0).collect();
        if free.is_empty() {
            continue;
        }
        // Prefer extensions that join on an already-bound variable
        // (var-free items, e.g. all-constant scans, are always
        // admissible — they cost at most one row).
        let connected: Vec<usize> = free
            .iter()
            .copied()
            .filter(|&j| {
                mask == 0
                    || item_vars[j].is_empty()
                    || item_vars[j].iter().any(|v| state.bound.contains(v))
            })
            .collect();
        let candidates = if connected.is_empty() {
            free
        } else {
            connected
        };
        for j in candidates {
            let next = mask | (1 << j);
            let per_row = estimate_ctx(&items[j], ctx, &state.bound);
            let scanned = state.card * per_row.max(consts::MIN_JOIN_CHILD_CARD);
            let mut enforced = state.enforced.clone();
            enforced_windows(&items[j], &state.bound, &mut enforced);
            let mut bound = state.bound.clone();
            items[j].certain_vars(&mut bound);
            let mut card = scanned;
            let mut filters_done = state.filters_done;
            let vars = FilterVars {
                preds: &preds,
                enforced: &enforced,
            };
            for (fi, fv) in filter_vars.iter().enumerate() {
                if filters_done & (1 << fi) == 0 && fv.iter().all(|v| bound.contains(v)) {
                    card *= filter_selectivity(&filters[fi], ctx, vars);
                    filters_done |= 1 << fi;
                }
            }
            let card = card.max(consts::MIN_JOIN_CHILD_CARD);
            let cost = state.cost + scanned;
            let better = match &dp[next] {
                None => true,
                Some(s) => {
                    cost < s.cost - 1e-9 || ((cost - s.cost).abs() <= 1e-9 && card < s.card - 1e-9)
                }
            };
            if better {
                let mut order = state.order.clone();
                order.push(j);
                dp[next] = Some(State {
                    cost,
                    card,
                    order,
                    bound,
                    enforced,
                    filters_done,
                });
            }
        }
    }
    dp[full]
        .take()
        .map(|s| s.order)
        .unwrap_or_else(|| (0..n).collect())
}

/// The object variable of `t` when a scan of it, run with `bound`
/// bound, can answer a window on that variable from the value index: a
/// constant predicate, a free object and a free subject — the planner's
/// view of what the executor's scan observes per input row.
fn range_scan_var<'t>(t: &'t TriplePattern, bound: &HashSet<String>) -> Option<&'t str> {
    let free = |tp: &TermPattern| matches!(tp, TermPattern::Var(v) if !bound.contains(v));
    match (t.path.as_pred(), &t.object) {
        (Some(TermPattern::Term(_)), TermPattern::Var(v))
            if free(&t.subject) && free(&t.object) =>
        {
            Some(v)
        }
        _ => None,
    }
}

/// Map object-position variables of constant-predicate scans to their
/// predicate's id, so filter selectivity can consult that predicate's
/// object-value histogram.
pub(crate) fn var_predicates(items: &[Plan], graph: GraphView) -> HashMap<String, TermId> {
    let mut out = HashMap::new();
    for item in items {
        collect_var_preds(item, graph, &mut out);
    }
    out
}

fn collect_var_preds(plan: &Plan, graph: GraphView, out: &mut HashMap<String, TermId>) {
    match plan {
        Plan::Scan(t, _) => {
            if let (Some(TermPattern::Term(p)), TermPattern::Var(v)) = (t.path.as_pred(), &t.object)
            {
                if let Some(pid) = graph.dictionary().lookup(p) {
                    out.entry(v.clone()).or_insert(pid);
                }
            }
        }
        Plan::Join(children) => {
            for c in children {
                collect_var_preds(c, graph, out);
            }
        }
        Plan::Filter { input, .. } | Plan::Extend { input, .. } | Plan::Minus { input, .. } => {
            collect_var_preds(input, graph, out)
        }
        Plan::LeftJoin { left, .. } => collect_var_preds(left, graph, out),
        _ => {}
    }
}

/// Add the variables whose window `plan`, run with `bound` bound,
/// enforces by itself: a filter above it removes nothing more on them.
fn enforced_windows(plan: &Plan, bound: &HashSet<String>, out: &mut HashSet<String>) {
    match plan {
        Plan::Scan(t, Some(_)) => out.extend(range_scan_var(t, bound).map(String::from)),
        Plan::Join(children) => {
            let mut bound = bound.clone();
            for c in children {
                enforced_windows(c, &bound, out);
                c.certain_vars(&mut bound);
            }
        }
        Plan::Filter { input, .. } | Plan::Extend { input, .. } | Plan::Minus { input, .. } => {
            enforced_windows(input, bound, out)
        }
        Plan::LeftJoin { left, .. } => enforced_windows(left, bound, out),
        _ => {}
    }
}

/// Cardinality estimate of one operator given bound variables, from
/// graph statistics alone (no calibration/zone context). Convenience
/// wrapper over [`estimate_ctx`] for `EXPLAIN` and the profiler.
pub fn estimate(plan: &Plan, graph: GraphView, bound: &HashSet<String>) -> f64 {
    estimate_ctx(plan, &PlannerCtx::plain(graph), bound)
}

/// Cardinality estimate of one operator given bound variables, under a
/// full planner context. Fallback constants live in
/// [`crate::planner::consts`]; histogram, sketch and calibration
/// evidence takes precedence when available.
pub fn estimate_ctx(plan: &Plan, ctx: &PlannerCtx, bound: &HashSet<String>) -> f64 {
    let graph = ctx.graph;
    match plan {
        Plan::Empty => 1.0,
        Plan::Scan(t, range) => {
            let resolve = |tp: &TermPattern| match tp {
                TermPattern::Var(v) => {
                    if bound.contains(v) {
                        BoundKind::BoundVar
                    } else {
                        BoundKind::Free
                    }
                }
                TermPattern::Term(term) => BoundKind::Const(term.clone()),
            };
            let s = resolve(&t.subject);
            let o = resolve(&t.object);
            match t.path.as_pred() {
                Some(p) => {
                    let window = range
                        .as_ref()
                        .filter(|_| range_scan_var(t, bound).is_some());
                    estimate_triple(ctx, s, resolve(p), o, window)
                }
                None => {
                    // Property paths: assume moderate fan-out per start.
                    let base = match (&s, &o) {
                        (BoundKind::Free, BoundKind::Free) => graph.len() as f64,
                        _ => (graph.len() as f64).sqrt().max(1.0),
                    };
                    base * consts::PATH_FANOUT
                }
            }
        }
        Plan::Join(children) => {
            let mut b = bound.clone();
            let mut total = 1.0;
            for c in children {
                total *= estimate_ctx(c, ctx, &b).max(consts::MIN_JOIN_CHILD_CARD);
                c.certain_vars(&mut b);
            }
            total
        }
        Plan::LeftJoin { left, .. } => estimate_ctx(left, ctx, bound),
        Plan::Union(branches) => branches.iter().map(|b| estimate_ctx(b, ctx, bound)).sum(),
        Plan::Filter { input, expr } => {
            // Expression-aware selectivity against the input subtree's
            // object-variable predicates (was a blanket × 0.5).
            let preds = var_predicates(std::slice::from_ref(&**input), graph);
            let mut enforced = HashSet::new();
            enforced_windows(input, bound, &mut enforced);
            let vars = FilterVars {
                preds: &preds,
                enforced: &enforced,
            };
            estimate_ctx(input, ctx, bound) * filter_selectivity(expr, ctx, vars)
        }
        Plan::Extend { input, .. } => estimate_ctx(input, ctx, bound),
        Plan::Values { rows, .. } => rows.len() as f64,
        Plan::Graph { inner, .. } => estimate_ctx(inner, ctx, bound) * consts::GRAPH_FANOUT,
        Plan::SubSelect(_) => (graph.len() as f64).sqrt().max(1.0),
        Plan::Minus { input, .. } => estimate_ctx(input, ctx, bound),
    }
}

enum BoundKind {
    Free,
    BoundVar,
    Const(ssdm_rdf::Term),
}

/// `window` is the range a scan with free subject and object serves
/// from the value index; it is costed from the predicate's histogram.
fn estimate_triple(
    ctx: &PlannerCtx,
    s: BoundKind,
    p: BoundKind,
    o: BoundKind,
    window: Option<&Window>,
) -> f64 {
    let graph = ctx.graph;
    let lookup = |k: &BoundKind| match k {
        BoundKind::Const(t) => graph.dictionary().lookup(t),
        _ => None,
    };
    let s_id = lookup(&s);
    let p_id = lookup(&p);
    let o_id = lookup(&o);
    // A constant that is not even in the dictionary matches nothing.
    if matches!(s, BoundKind::Const(_)) && s_id.is_none()
        || matches!(p, BoundKind::Const(_)) && p_id.is_none()
        || matches!(o, BoundKind::Const(_)) && o_id.is_none()
    {
        return 0.0;
    }
    let mut est = graph.estimate_pattern(s_id, p_id, o_id);
    if let (Some(pid), Some(w)) = (p_id, window) {
        if let Some(in_range) = graph.estimate_object_range(pid, w.lo_value(), w.hi_value()) {
            est = est.min(in_range);
        }
    }
    // A constant numeric object under a known predicate: refine with
    // that predicate's object-value histogram, which sees skew the
    // uniform (count / distinct) model misses.
    if let (Some(pid), BoundKind::Const(ssdm_rdf::Term::Number(n))) = (p_id, &o) {
        if let Some(h) = graph.estimate_object_eq(pid, n.as_f64()) {
            est = est.min(h.max(consts::MIN_SCAN_CARD));
        }
    }
    // Bound variables act like constants for selectivity. Under a
    // known predicate the expected matches per binding is
    // count / distinct for that position (≈1 per row for key-like
    // predicates); without predicate statistics fall back to a fixed
    // attenuation.
    let s_bound = matches!(s, BoundKind::BoundVar);
    let o_bound = matches!(o, BoundKind::BoundVar);
    if s_bound || o_bound {
        if let Some(pid) = p_id {
            let st = graph.predicate_stats(pid);
            if s_bound {
                est /= st.distinct_subjects.max(1) as f64;
            }
            if o_bound {
                est /= st.distinct_objects.max(1) as f64;
            }
        } else {
            if s_bound {
                est /= consts::BOUND_VAR_ATTENUATION;
            }
            if o_bound {
                est /= consts::BOUND_VAR_ATTENUATION;
            }
        }
    }
    // Runtime feedback: scale by the predicate's learned correction.
    if let BoundKind::Const(pt) = &p {
        est *= ctx.factor_for(pt);
    }
    est.max(consts::MIN_SCAN_CARD)
}

/// Render a plan as an indented operator tree (the `EXPLAIN` output).
pub fn explain(plan: &Plan, graph: GraphView) -> String {
    let mut out = String::new();
    fn walk(plan: &Plan, graph: GraphView, depth: usize, out: &mut String) {
        let pad = "  ".repeat(depth);
        let est = estimate(plan, graph, &HashSet::new());
        match plan {
            Plan::Empty => out.push_str(&format!("{pad}Empty\n")),
            Plan::Scan(..) => {
                out.push_str(&format!("{pad}{}   (est {est:.1})\n", node_label(plan)));
            }
            Plan::Join(children) => {
                out.push_str(&format!("{pad}Join   (est {est:.1})\n"));
                for c in children {
                    walk(c, graph, depth + 1, out);
                }
            }
            Plan::LeftJoin { left, right } => {
                out.push_str(&format!("{pad}LeftJoin (OPTIONAL)\n"));
                walk(left, graph, depth + 1, out);
                walk(right, graph, depth + 1, out);
            }
            Plan::Union(branches) => {
                out.push_str(&format!("{pad}Union   (est {est:.1})\n"));
                for b in branches {
                    walk(b, graph, depth + 1, out);
                }
            }
            Plan::Filter { input, expr } => {
                out.push_str(&format!("{pad}Filter {expr:?}\n"));
                walk(input, graph, depth + 1, out);
            }
            Plan::Extend { input, var, expr } => {
                out.push_str(&format!("{pad}Extend ?{var} := {expr:?}\n"));
                walk(input, graph, depth + 1, out);
            }
            Plan::Values { vars, rows } => {
                out.push_str(&format!("{pad}Values {:?} ({} rows)\n", vars, rows.len()));
            }
            Plan::Graph { name, inner } => {
                out.push_str(&format!("{pad}Graph {}\n", term_pattern_text(name)));
                walk(inner, graph, depth + 1, out);
            }
            Plan::SubSelect(_) => {
                out.push_str(&format!("{pad}SubSelect\n"));
            }
            Plan::Minus { input, .. } => {
                out.push_str(&format!("{pad}Minus\n"));
                walk(input, graph, depth + 1, out);
            }
        }
    }
    walk(plan, graph, 0, &mut out);
    out
}

fn term_pattern_text(tp: &TermPattern) -> String {
    match tp {
        TermPattern::Var(v) => format!("?{v}"),
        TermPattern::Term(t) => t.to_string(),
    }
}

/// The constant predicate of a scan node, as the calibration key.
pub(crate) fn scan_predicate(plan: &Plan) -> Option<String> {
    match plan {
        Plan::Scan(t, _) => match t.path.as_pred() {
            Some(TermPattern::Term(p)) => Some(p.to_string()),
            _ => None,
        },
        _ => None,
    }
}

/// One-line label for a plan node — the operator name the profiler uses
/// for its per-operator rows, consistent with [`explain`]'s tree.
pub fn node_label(plan: &Plan) -> String {
    match plan {
        Plan::Empty => "Empty".into(),
        Plan::Scan(t, range) => {
            let pred = match &t.path {
                Path::Pred(p) => term_pattern_text(p),
                other => format!("path:{other:?}"),
            };
            let window = match (range, &t.object) {
                (Some(w), TermPattern::Var(v)) => format!(" [{}]", w.describe(v)),
                _ => String::new(),
            };
            format!(
                "Scan {} {} {}{window}",
                term_pattern_text(&t.subject),
                pred,
                term_pattern_text(&t.object)
            )
        }
        Plan::Join(_) => "Join".into(),
        Plan::LeftJoin { .. } => "LeftJoin (OPTIONAL)".into(),
        Plan::Union(_) => "Union".into(),
        Plan::Filter { expr, .. } => format!("Filter {expr:?}"),
        Plan::Extend { var, expr, .. } => format!("Extend ?{var} := {expr:?}"),
        Plan::Values { vars, rows } => format!("Values {:?} ({} rows)", vars, rows.len()),
        Plan::Graph { name, .. } => format!("Graph {}", term_pattern_text(name)),
        Plan::SubSelect(_) => "SubSelect".into(),
        Plan::Minus { .. } => "Minus".into(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use ssdm_rdf::{turtle, Graph};

    fn plan_for(query: &str, data: &str) -> (Plan, Graph) {
        let mut g = Graph::new();
        turtle::parse_into(&mut g, data).unwrap();
        let Statement::Select(q) = parse(query).unwrap() else {
            panic!()
        };
        // Default planner config, deliberately ignoring SSDM_PLANNER:
        // these tests assert reordering behavior, which a forced
        // textual mode would switch off.
        let plan = optimize_with(translate(&q.pattern), &PlannerCtx::plain(&g));
        (plan, g)
    }

    #[test]
    fn selective_pattern_ordered_first() {
        // foaf:name "Alice" matches 1 triple; foaf:knows matches many.
        let data = r#"
            @prefix foaf: <http://xmlns.com/foaf/0.1/> .
            _:a foaf:name "Alice" . _:a foaf:knows _:b , _:c , _:d .
            _:b foaf:name "Bob" ; foaf:knows _:a , _:c , _:d .
            _:c foaf:name "Cindy" ; foaf:knows _:d .
            _:d foaf:name "Daniel" .
        "#;
        let q = r#"
            PREFIX foaf: <http://xmlns.com/foaf/0.1/>
            SELECT ?n WHERE { ?p foaf:knows ?q . ?p foaf:name "Alice" . ?q foaf:name ?n }
        "#;
        let (plan, _g) = plan_for(q, data);
        let Plan::Join(children) = &plan else {
            panic!("expected join, got {plan:?}")
        };
        // First child must be the constant-object name scan.
        let Plan::Scan(t, _) = &children[0] else {
            panic!("expected scan first, got {:?}", children[0])
        };
        assert!(
            matches!(&t.object, TermPattern::Term(ssdm_rdf::Term::Str(s)) if s == "Alice"),
            "most selective pattern should come first, got {t:?}"
        );
    }

    #[test]
    fn filter_pushed_after_binding_scan() {
        let data = "<http://s> <http://p> 5 . <http://s> <http://q> 6 .";
        let q = "SELECT ?x WHERE { ?s <http://q> ?y . ?s <http://p> ?x . FILTER(?x > 1) }";
        let (plan, _g) = plan_for(q, data);
        // The filter must sit inside the join (not at top wrapping all).
        fn top_is_filter(p: &Plan) -> bool {
            matches!(p, Plan::Filter { .. })
        }
        // With pushdown, the top is a Join whose last element is a
        // Filter over the prefix — or the filter wraps the whole join
        // only if ?x binds last. Either way evaluation works; assert
        // the plan contains a Filter somewhere.
        fn contains_filter(p: &Plan) -> bool {
            match p {
                Plan::Filter { .. } => true,
                Plan::Join(cs) => cs.iter().any(contains_filter),
                Plan::LeftJoin { left, right } => contains_filter(left) || contains_filter(right),
                Plan::Union(bs) => bs.iter().any(contains_filter),
                Plan::Extend { input, .. } => contains_filter(input),
                _ => false,
            }
        }
        assert!(contains_filter(&plan));
        let _ = top_is_filter;
    }

    #[test]
    fn union_certain_vars_is_intersection() {
        let p = Plan::Union(vec![
            Plan::Scan(
                TriplePattern {
                    subject: TermPattern::Var("x".into()),
                    path: Path::Pred(TermPattern::Term(ssdm_rdf::Term::uri("p"))),
                    object: TermPattern::Var("y".into()),
                },
                None,
            ),
            Plan::Scan(
                TriplePattern {
                    subject: TermPattern::Var("x".into()),
                    path: Path::Pred(TermPattern::Term(ssdm_rdf::Term::uri("q"))),
                    object: TermPattern::Var("z".into()),
                },
                None,
            ),
        ]);
        let mut vars = HashSet::new();
        p.certain_vars(&mut vars);
        assert!(vars.contains("x"));
        assert!(!vars.contains("y"));
        assert!(!vars.contains("z"));
    }

    #[test]
    fn impossible_constant_estimates_zero() {
        let (plan, g) = plan_for(
            "SELECT ?x WHERE { ?x <http://nothere> 1 }",
            "<http://s> <http://p> 2 .",
        );
        let est = estimate(&plan, g.view(), &HashSet::new());
        assert_eq!(est, 0.0);
    }

    #[test]
    fn optional_translates_to_left_join() {
        let (plan, _) = plan_for(
            "SELECT ?x WHERE { ?x <http://p> ?y OPTIONAL { ?x <http://q> ?z } }",
            "<http://s> <http://p> 2 .",
        );
        assert!(matches!(plan, Plan::LeftJoin { .. }));
    }
}
