//! Grouping and aggregation (thesis §3.5).
//!
//! Solutions are partitioned by the GROUP BY key expressions; aggregate
//! calls inside projection and HAVING expressions evaluate over each
//! partition. With no GROUP BY but aggregates present, all solutions
//! form one implicit group.

use std::collections::{HashMap, HashSet};

use ssdm_array::Num;
use ssdm_rdf::{Term, TermId};

use crate::ast::{AggKind, Expr, ProjectionItem};
use crate::dataset::{Dataset, QueryError};
use crate::eval::expr::{eval_expr, operand, Cx, Operand};
use crate::eval::{node_id, project, Row, VarTable};
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
        other => node_id(ds, &other.value(ds)),
    };
    // Arrays of one content render alike under different ids, and so do
    // a huge integral real and the integer it equals.
    let named_by_rendering = |id: &TermId| match ds.graph.term(*id) {
        Term::Array(_) | Term::ArrayRef(_) => false,
        Term::Number(Num::Real(r)) => r.is_finite() && r.abs() < 1e15,
        _ => true,
    };
    match id.filter(named_by_rendering) {
        Some(id) => KeyPart::Id(id),
        None => KeyPart::Text(op.value(ds).to_string()),
    }
}

/// Evaluate a projection with aggregates over grouped solutions.
/// Returns projected rows (HAVING applied).
pub fn grouped_projection(
    ds: &mut Dataset,
    vars: &VarTable,
    items: &[ProjectionItem],
    group_by: &[Expr],
    having: &Option<Expr>,
    solutions: &[Row],
) -> Result<Vec<Row>, QueryError> {
    // Partition by group key, groups in first-seen order.
    let mut groups: Vec<Vec<&Row>> = Vec::new();
    if group_by.is_empty() {
        groups.push(solutions.iter().collect());
    } else {
        // One key buffer, looked up by slice: a key is only kept (and
        // the buffer replaced) for a new group.
        let mut index: HashMap<Vec<KeyPart>, usize> = HashMap::new();
        let mut key = Vec::with_capacity(group_by.len());
        for row in solutions {
            key.clear();
            for g in group_by {
                let part = operand(ds, &Cx::new(vars, row), g)?;
                key.push(key_part(ds, part));
            }
            let group = match index.get(key.as_slice()) {
                Some(&group) => group,
                None => {
                    groups.push(Vec::new());
                    let fresh = Vec::with_capacity(group_by.len());
                    index.insert(std::mem::replace(&mut key, fresh), groups.len() - 1);
                    groups.len() - 1
                }
            };
            groups[group].push(row);
        }
        // SPARQL: grouping an empty solution set yields no groups.
    }

    let unit = vars.unit_row();
    let mut out = Vec::with_capacity(groups.len());
    for rows in &groups {
        if group_by.is_empty() && rows.is_empty() && !items.iter().any(|i| i.expr.has_aggregate()) {
            continue;
        }
        // Aggregates fold over the group; everything else sees its
        // first row as the representative.
        let cx = Cx {
            vars,
            row: rows.first().copied().unwrap_or(&unit),
            group: Some(rows),
        };
        if let Some(h) = having {
            let keep = eval_expr(ds, &cx, h)?
                .and_then(|v| v.effective_bool())
                .unwrap_or(false);
            if !keep {
                continue;
            }
        }
        out.push(project(ds, &cx, items)?);
    }
    Ok(out)
}

/// Fold one aggregate call over the rows of a group.
pub(crate) fn compute_aggregate(
    ds: &mut Dataset,
    vars: &VarTable,
    kind: AggKind,
    distinct: bool,
    arg: Option<&Expr>,
    separator: &Option<String>,
    rows: &[&Row],
) -> Result<Option<Value>, QueryError> {
    // SUM and AVG without DISTINCT in one pass over the group: a number
    // folds as it is read, straight from its dictionary term or value.
    if let (AggKind::Sum | AggKind::Avg, false, Some(arg)) = (kind, distinct, arg) {
        let mut sum = Sum::new();
        for row in rows {
            if let Some(op) = operand(ds, &Cx::new(vars, row), arg)? {
                sum.add(op.num(ds), || op.into_value(ds));
            }
        }
        return sum.finish(ds, kind);
    }
    // Collect the argument values (bound, post-DISTINCT).
    let mut values: Vec<Operand> = Vec::new();
    for row in rows {
        match arg {
            Some(e) => values.extend(operand(ds, &Cx::new(vars, row), e)?),
            None => values.push(Operand::Owned(Value::integer(1))), // COUNT(*)
        }
    }
    if distinct {
        let mut seen = HashSet::new();
        values.retain(|v| seen.insert(v.value(ds).to_string()));
    }
    // Counting needs no term; the other kinds take what they fold.
    let count = values.len();
    let mut values = values.into_iter().map(|v| v.into_value(ds));
    match kind {
        AggKind::Count => Ok(Some(Value::integer(count as i64))),
        AggKind::Sample => Ok(values.next()),
        AggKind::GroupConcat => {
            let sep = separator.as_deref().unwrap_or(" ");
            let parts: Vec<String> = values
                .map(|v| match v {
                    Value::Term(Term::Str(s)) => s,
                    other => other.to_string(),
                })
                .collect();
            Ok(Some(Value::string(parts.join(sep))))
        }
        AggKind::Sum | AggKind::Avg => {
            let mut sum = Sum::new();
            values.for_each(|v| sum.add(v.as_num(), || v));
            sum.finish(ds, kind)
        }
        AggKind::Min | AggKind::Max => {
            let mut best: Option<Value> = None;
            for v in values {
                best = Some(match best {
                    None => v,
                    Some(b) => {
                        let take_new = match v.order_cmp(&b) {
                            std::cmp::Ordering::Less => kind == AggKind::Min,
                            std::cmp::Ordering::Greater => kind == AggKind::Max,
                            std::cmp::Ordering::Equal => false,
                        };
                        if take_new {
                            v
                        } else {
                            b
                        }
                    }
                });
            }
            Ok(best)
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
        Sum {
            acc: Some(Num::Int(0)),
            n: 0,
            others: Vec::new(),
        }
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
            return Ok(acc
                .scalar_op(Num::Int(others.len() as i64), ssdm_array::BinOp::Div)
                .ok()
                .map(Value::array));
        }
        Ok(Some(Value::array(acc)))
    }
}
