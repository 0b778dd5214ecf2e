//! Grouping and aggregation (thesis §3.5).
//!
//! Solutions are partitioned by the GROUP BY key expressions as they
//! arrive, a batch at a time. Every aggregate call of the projection and
//! HAVING folds its argument into one accumulator per group, and a group
//! keeps only its first row, as the representative everything else in
//! the projection sees. With no GROUP BY but aggregates present, all
//! solutions form one implicit group.

use std::collections::{HashMap, HashSet};

use ssdm_array::Num;
use ssdm_rdf::{Term, TermId};

use crate::ast::{AggKind, Expr, ProjectionItem};
use crate::dataset::{Dataset, QueryError};
use crate::eval::expr::{eval_expr, operand, Cx, Operand};
use crate::eval::{project, Rows, Slot, VarTable};
use crate::value::Value;

/// One component of a GROUP BY or DISTINCT key. Keys are equal exactly
/// when the rendered values are: a graph node whose rendering names it
/// uniquely is keyed by its id, anything else by its rendering.
#[derive(PartialEq, Eq, Hash)]
pub(crate) enum KeyPart {
    Unbound,
    Id(TermId),
    Text(String),
}

pub(crate) fn key_part(ds: &Dataset, op: Option<Operand>) -> KeyPart {
    let Some(op) = op else {
        return KeyPart::Unbound;
    };
    let id = match &op {
        Operand::Id(id) => Some(*id),
        other => ds.node_id(&other.value(ds)),
    };
    // Arrays of one content render alike under different ids, and so do
    // NaNs of different bits.
    let named_by_rendering = |id: &TermId| match ds.graph.term(*id) {
        Term::Array(_) | Term::ArrayRef(_) => false,
        Term::Number(Num::Real(r)) => r.is_finite(),
        _ => true,
    };
    match id.filter(named_by_rendering) {
        Some(id) => KeyPart::Id(id),
        None => KeyPart::Text(op.value(ds).to_string()),
    }
}

/// What a key or an aggregate reads from each solution: a variable's
/// slot, any other expression's value, or (`COUNT(*)`) a one per row.
enum Arg {
    Slot(usize),
    Expr(Expr),
    Row,
}

impl Arg {
    fn of(vars: &VarTable, expr: Option<&Expr>) -> Arg {
        let slot = match expr {
            Some(Expr::Var(v)) => vars.slot(v),
            _ => None,
        };
        match (slot, expr) {
            (Some(slot), _) => Arg::Slot(slot),
            (None, Some(e)) => Arg::Expr(e.clone()),
            (None, None) => Arg::Row,
        }
    }

    fn read<'a>(
        &'a self,
        ds: &mut Dataset,
        cx: &Cx<'a>,
    ) -> Result<Option<Operand<'a>>, QueryError> {
        Ok(match self {
            Arg::Slot(slot) => Operand::of_slot(&cx.row[*slot]),
            Arg::Expr(e) => operand(ds, cx, e)?,
            Arg::Row => Some(Operand::Owned(Value::integer(1))),
        })
    }
}

/// One aggregate call of the query: its node, and what it folds.
struct Call {
    at: *const Expr,
    kind: AggKind,
    distinct: bool,
    arg: Arg,
    separator: Option<String>,
}

/// The groups of one grouped projection, folded a batch at a time.
pub(crate) struct Groups<'q> {
    keys: Vec<Arg>,
    calls: Vec<Call>,
    index: HashMap<Vec<KeyPart>, usize>,
    /// Each group's first row.
    firsts: Rows,
    /// `calls.len()` accumulators per group, group after group.
    accs: Vec<Acc>,
    items: &'q [ProjectionItem],
    having: Option<&'q Expr>,
}

impl<'q> Groups<'q> {
    pub fn new(
        vars: &VarTable,
        width: usize,
        items: &'q [ProjectionItem],
        group_by: &[Expr],
        having: Option<&'q Expr>,
    ) -> Self {
        let mut calls = Vec::new();
        for e in items.iter().map(|i| &i.expr).chain(having) {
            e.any(&mut |e| {
                if let Expr::Aggregate {
                    kind,
                    distinct,
                    arg,
                    separator,
                } = e
                {
                    let (kind, distinct) = (*kind, *distinct);
                    let (arg, separator) = (Arg::of(vars, arg.as_deref()), separator.clone());
                    calls.push(Call {
                        at: e,
                        kind,
                        distinct,
                        arg,
                        separator,
                    });
                }
                false
            });
        }
        let keys = group_by.iter().map(|g| Arg::of(vars, Some(g))).collect();
        let (index, firsts, accs) = (HashMap::new(), Rows::new(width), Vec::new());
        Groups {
            keys,
            calls,
            index,
            firsts,
            accs,
            items,
            having,
        }
    }

    /// Fold one batch of solutions into their groups.
    pub fn fold(
        &mut self,
        ds: &mut Dataset,
        vars: &VarTable,
        rows: &Rows,
    ) -> Result<(), QueryError> {
        let mut key = Vec::with_capacity(self.keys.len());
        for row in rows.iter() {
            let cx = Cx::new(vars, row);
            key.clear();
            for k in &self.keys {
                let part = k.read(ds, &cx)?;
                key.push(key_part(ds, part));
            }
            // The implicit group needs no lookup; a key is only kept (and
            // the buffer replaced) for a new group.
            let implicit = (self.keys.is_empty() && !self.firsts.is_empty()).then_some(0);
            let group = match implicit.or_else(|| self.index.get(key.as_slice()).copied()) {
                Some(group) => group,
                None => {
                    let group = self.open(row);
                    let fresh = Vec::with_capacity(self.keys.len());
                    self.index.insert(std::mem::replace(&mut key, fresh), group);
                    group
                }
            };
            let accs = &mut self.accs[group * self.calls.len()..];
            for (call, acc) in self.calls.iter().zip(accs) {
                if let Some(op) = call.arg.read(ds, &cx)? {
                    acc.add(ds, call.kind, op);
                }
            }
        }
        Ok(())
    }

    /// A new group whose first row is `row`.
    fn open(&mut self, row: &[Slot]) -> usize {
        self.firsts.push(row);
        let accs = self.calls.iter().map(|c| Acc::new(c.kind, c.distinct));
        self.accs.extend(accs);
        self.firsts.len() - 1
    }

    /// The projected rows of the groups, HAVING applied.
    pub fn finish(mut self, ds: &mut Dataset, vars: &VarTable) -> Result<Rows, QueryError> {
        // SPARQL: grouping an empty solution set yields no groups; without
        // GROUP BY it is one empty group, if something is aggregated.
        let aggregated = self.items.iter().any(|i| i.expr.has_aggregate());
        if self.firsts.is_empty() && self.keys.is_empty() && aggregated {
            self.open(&vec![Slot::Unbound; self.firsts.width]);
        }
        let mut out = Rows::new(self.items.len());
        let mut accs = self.accs.into_iter();
        for g in 0..self.firsts.len() {
            let mut done = Vec::with_capacity(self.calls.len());
            for (call, acc) in self.calls.iter().zip(accs.by_ref()) {
                let sep = call.separator.as_deref().unwrap_or(" ");
                done.push((call.at, acc.finish(ds, call.kind, sep)?));
            }
            let (row, group) = (self.firsts.row(g), Some(&done[..]));
            let cx = Cx { vars, row, group };
            let keep = match self.having {
                Some(h) => eval_expr(ds, &cx, h)?.and_then(|v| v.effective_bool()),
                None => Some(true),
            };
            if keep.unwrap_or(false) {
                project(ds, &cx, self.items, &mut out)?;
            }
        }
        Ok(out)
    }
}

/// The running state of one aggregate call over one group.
enum Acc {
    Count(i64),
    Sum(Sum),
    /// SAMPLE, MIN or MAX so far.
    Best(Option<Value>),
    /// GROUP_CONCAT, and DISTINCT of any kind: the values, folded at the
    /// end; under DISTINCT with the renderings seen.
    Values(Option<HashSet<String>>, Vec<Value>),
}

impl Acc {
    fn new(kind: AggKind, distinct: bool) -> Acc {
        match (kind, distinct) {
            (_, true) => Acc::Values(Some(HashSet::new()), Vec::new()),
            (AggKind::Count, _) => Acc::Count(0),
            (AggKind::Sum | AggKind::Avg, _) => Acc::Sum(Sum::new()),
            (AggKind::Sample | AggKind::Min | AggKind::Max, _) => Acc::Best(None),
            (AggKind::GroupConcat, _) => Acc::Values(None, Vec::new()),
        }
    }

    /// Fold in one bound argument: a number straight from its
    /// dictionary term or value, anything else as a value.
    fn add(&mut self, ds: &Dataset, kind: AggKind, op: Operand) {
        use std::cmp::Ordering::*;
        match self {
            Acc::Count(n) => *n += 1,
            Acc::Sum(sum) => {
                let num = op.num(ds);
                sum.add(num, || op.into_value(ds));
            }
            Acc::Best(best) => {
                let v = op.into_value(ds);
                let take = best.as_ref().is_none_or(|b| match v.order_cmp(b) {
                    Less => kind == AggKind::Min,
                    Greater => kind == AggKind::Max,
                    Equal => false,
                });
                if take {
                    *best = Some(v);
                }
            }
            Acc::Values(seen, values) => {
                let v = op.into_value(ds);
                if seen.as_mut().is_none_or(|seen| seen.insert(v.to_string())) {
                    values.push(v);
                }
            }
        }
    }

    fn finish(
        self,
        ds: &mut Dataset,
        kind: AggKind,
        sep: &str,
    ) -> Result<Option<Value>, QueryError> {
        match (self, kind) {
            (Acc::Count(n), _) => Ok(Some(Value::integer(n))),
            (Acc::Sum(sum), _) => sum.finish(ds, kind),
            (Acc::Best(v), _) => Ok(v),
            (Acc::Values(_, values), AggKind::GroupConcat) => {
                let text = |v: Value| match v {
                    Value::Term(Term::Str(s)) => s,
                    other => other.to_string(),
                };
                let parts: Vec<String> = values.into_iter().map(text).collect();
                Ok(Some(Value::string(parts.join(sep))))
            }
            (Acc::Values(_, values), _) => {
                let mut acc = Acc::new(kind, false);
                values
                    .into_iter()
                    .for_each(|v| acc.add(ds, kind, Operand::Owned(v)));
                acc.finish(ds, kind, sep)
            }
        }
    }
}

/// The state of a SUM or AVG: numbers fold left to right as they
/// arrive; anything else is kept aside.
struct Sum {
    /// The numbers so far; `None` once the sum overflowed.
    acc: Option<Num>,
    n: usize,
    others: Vec<Value>,
}

impl Sum {
    fn new() -> Sum {
        let (acc, others) = (Some(Num::Int(0)), Vec::new());
        Sum { acc, n: 0, others }
    }

    fn add(&mut self, num: Option<Num>, value: impl FnOnce() -> Value) {
        match num {
            Some(x) => {
                self.acc = self.acc.and_then(|a| a.checked_add(x).ok());
                self.n += 1;
            }
            None => self.others.push(value()),
        }
    }

    /// Numbers alone sum (nothing at all sums to 0 and averages to an
    /// error); arrays alone sum element-wise; a mix, a non-number or an
    /// overflow is an error.
    fn finish(self, ds: &mut Dataset, kind: AggKind) -> Result<Option<Value>, QueryError> {
        let Sum { acc, n, others } = self;
        if others.is_empty() {
            return Ok(match kind {
                AggKind::Avg if n == 0 => None,
                AggKind::Avg => acc.map(|a| Value::number(Num::Real(a.as_f64() / n as f64))),
                _ => acc.map(Value::number),
            });
        }
        if n > 0 || !others.iter().all(Value::is_array) {
            return Ok(None);
        }
        let mut acc = ds.force_array(&others[0])?;
        for v in &others[1..] {
            let next = ds.force_array(v)?;
            match acc.add(&next) {
                Ok(r) => acc = r,
                Err(_) => return Ok(None),
            }
        }
        if kind == AggKind::Avg {
            let count = Num::Int(others.len() as i64);
            return Ok(acc
                .scalar_op(count, ssdm_array::BinOp::Div)
                .ok()
                .map(Value::array));
        }
        Ok(Some(Value::array(acc)))
    }
}
