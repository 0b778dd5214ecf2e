//! Expression evaluation with SPARQL error semantics.
//!
//! `eval_expr` returns `Ok(None)` for *expression errors* — type
//! mismatches, unbound variables, out-of-bounds subscripts — which
//! filters treat as false and projections as unbound (thesis §3.6),
//! while infrastructure failures (storage I/O) propagate as `Err`.
//!
//! Array semantics (thesis §4.1): dereference applies lazily to array
//! proxies (only shrinking the pending view), arithmetic operators map
//! element-wise over arrays and broadcast scalars, and comparison of
//! arrays is element-wise with `=`/`!=` comparing whole contents.

use std::borrow::Cow;

use ssdm_array::{BinOp, Num, Subscript};
use ssdm_rdf::{Term, TermId};

use crate::ast::{ArithOp, CmpOp, Expr, SubscriptExpr};
use crate::dataset::{Dataset, QueryError};
use crate::eval::{builtins, Slot, VarTable};
use crate::functions::Closure;
use crate::value::Value;

/// What an expression evaluates against: one row of a variable table,
/// and — in a projection or HAVING over groups — the value each
/// aggregate call of the query (by node) folded to over the group.
#[derive(Clone, Copy)]
pub struct Cx<'a> {
    pub vars: &'a VarTable,
    pub row: &'a [Slot],
    pub group: Option<&'a [(*const Expr, Option<Value>)]>,
}

impl<'a> Cx<'a> {
    pub fn new(vars: &'a VarTable, row: &'a [Slot]) -> Self {
        Cx {
            vars,
            row,
            group: None,
        }
    }

    /// The slot of a variable; `None` when the table does not know it.
    pub fn slot(&self, name: &str) -> Option<&'a Slot> {
        self.row.get(self.vars.slot(name)?)
    }
}

/// A value an operator reads without owning it: a dictionary id, a
/// constant of the query text, a row's value, or a computed result.
/// Comparisons look through it by reference; only what reaches a result
/// (or a function that wants a `Value`) is cloned.
pub(crate) enum Operand<'a> {
    Id(TermId),
    Term(&'a Term),
    Ref(&'a Value),
    Owned(Value),
}

impl<'a> Operand<'a> {
    pub fn of_slot(slot: &'a Slot) -> Option<Self> {
        match slot {
            Slot::Unbound => None,
            Slot::Id(id) => Some(Operand::Id(*id)),
            Slot::Val(v) => Some(Operand::Ref(v)),
        }
    }

    /// The term behind the operand, when it is one that compares as
    /// itself: not an array of either flavour, not a closure.
    fn scalar<'b>(&'b self, ds: &'b Dataset) -> Option<&'b Term> {
        let term = match self {
            Operand::Id(id) => ds.graph.term(*id),
            Operand::Term(t) => t,
            Operand::Ref(Value::Term(t)) | Operand::Owned(Value::Term(t)) => t,
            _ => return None,
        };
        (!matches!(term, Term::Array(_) | Term::ArrayRef(_))).then_some(term)
    }

    /// The number behind the operand, read in place; `None` for
    /// anything that is not a numeric term.
    pub fn num(&self, ds: &Dataset) -> Option<Num> {
        match self.scalar(ds)? {
            Term::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The operand as a value; array references become proxies here.
    pub fn value(&self, ds: &Dataset) -> Cow<'_, Value> {
        match self {
            Operand::Id(id) => Cow::Owned(ds.term_to_value(ds.graph.term(*id))),
            Operand::Term(t) => Cow::Owned(ds.term_to_value(t)),
            Operand::Ref(v) => Cow::Borrowed(v),
            Operand::Owned(v) => Cow::Borrowed(v),
        }
    }

    pub fn into_value(self, ds: &Dataset) -> Value {
        match self {
            Operand::Owned(v) => v,
            other => other.value(ds).into_owned(),
        }
    }
}

/// Evaluate an expression to an operand: variables and constants are
/// borrowed, everything else is computed.
pub(crate) fn operand<'a>(
    ds: &mut Dataset,
    cx: &Cx<'a>,
    expr: &'a Expr,
) -> Result<Option<Operand<'a>>, QueryError> {
    Ok(match expr {
        Expr::Var(v) => cx.slot(v).and_then(Operand::of_slot),
        Expr::Const(t) => Some(Operand::Term(t)),
        other => eval_expr(ds, cx, other)?.map(Operand::Owned),
    })
}

/// Evaluate an expression in a row context.
pub fn eval_expr(ds: &mut Dataset, cx: &Cx, expr: &Expr) -> Result<Option<Value>, QueryError> {
    match expr {
        Expr::Var(_) | Expr::Const(_) => Ok(operand(ds, cx, expr)?.map(|o| o.into_value(ds))),
        Expr::Not(e) => {
            let v = eval_expr(ds, cx, e)?;
            Ok(v.and_then(|v| v.effective_bool())
                .map(|b| Value::boolean(!b)))
        }
        Expr::Neg(e) => {
            let Some(v) = eval_expr(ds, cx, e)? else {
                return Ok(None);
            };
            negate_value(ds, v)
        }
        Expr::And(a, b) => {
            let av = eval_expr(ds, cx, a)?.and_then(|v| v.effective_bool());
            let bv = eval_expr(ds, cx, b)?.and_then(|v| v.effective_bool());
            // SPARQL three-valued logic: false dominates errors.
            Ok(match (av, bv) {
                (Some(false), _) | (_, Some(false)) => Some(Value::boolean(false)),
                (Some(true), Some(true)) => Some(Value::boolean(true)),
                _ => None,
            })
        }
        Expr::Or(a, b) => {
            let av = eval_expr(ds, cx, a)?.and_then(|v| v.effective_bool());
            let bv = eval_expr(ds, cx, b)?.and_then(|v| v.effective_bool());
            Ok(match (av, bv) {
                (Some(true), _) | (_, Some(true)) => Some(Value::boolean(true)),
                (Some(false), Some(false)) => Some(Value::boolean(false)),
                _ => None,
            })
        }
        Expr::Cmp(op, a, b) => {
            let (Some(a), Some(b)) = (operand(ds, cx, a)?, operand(ds, cx, b)?) else {
                return Ok(None);
            };
            compare_operands(ds, *op, &a, &b)
        }
        Expr::Arith(op, a, b) => {
            let (Some(a), Some(b)) = (operand(ds, cx, a)?, operand(ds, cx, b)?) else {
                return Ok(None);
            };
            let (a, b) = (a.value(ds), b.value(ds));
            arith(ds, *op, &a, &b)
        }
        Expr::ArrayDeref { base, subscripts } => {
            let Some(basev) = eval_expr(ds, cx, base)? else {
                return Ok(None);
            };
            let mut subs = Vec::with_capacity(subscripts.len());
            for s in subscripts {
                match eval_subscript(ds, cx, s)? {
                    Some(sub) => subs.push(sub),
                    None => return Ok(None),
                }
            }
            dereference(ds, basev, &subs)
        }
        Expr::Call { name, args } => eval_call(ds, cx, name, args),
        Expr::FunctionRef { name, bound } => {
            let mut bound_vals = Vec::with_capacity(bound.len());
            for b in bound {
                match b {
                    Some(e) => match eval_expr(ds, cx, e)? {
                        Some(v) => bound_vals.push(Some(v)),
                        None => return Ok(None),
                    },
                    None => bound_vals.push(None),
                }
            }
            if bound_vals.is_empty() {
                Ok(Some(Value::Closure(Closure::reference(name.clone()))))
            } else {
                Ok(Some(Value::Closure(Closure::partial(
                    name.clone(),
                    bound_vals,
                ))))
            }
        }
        Expr::Exists { pattern, negated } => {
            // The pattern sees this row's bindings: its table extends
            // the row's, so the seed is the row itself.
            let vars = cx.vars.clone();
            let (_, rows) = crate::eval::solutions(ds, pattern, vars, cx.row, Some(1))?;
            let exists = !rows.is_empty();
            Ok(Some(Value::boolean(exists != *negated)))
        }
        Expr::InList {
            needle,
            haystack,
            negated,
        } => {
            let Some(n) = operand(ds, cx, needle)? else {
                return Ok(None);
            };
            let mut saw_error = false;
            for h in haystack {
                match operand(ds, cx, h)? {
                    Some(v) => {
                        let eq = match compare_operands(ds, CmpOp::Eq, &n, &v)? {
                            Some(b) => b.effective_bool().unwrap_or(false),
                            None => false,
                        };
                        if eq {
                            return Ok(Some(Value::boolean(!negated)));
                        }
                    }
                    None => saw_error = true,
                }
            }
            if saw_error {
                Ok(None) // SPARQL: IN propagates errors when no match
            } else {
                Ok(Some(Value::boolean(*negated)))
            }
        }
        Expr::Aggregate { .. } => match cx.group {
            Some(done) => Ok(done
                .iter()
                .find(|(call, _)| std::ptr::eq(*call, expr))
                .and_then(|(_, value)| value.clone())),
            None => Err(QueryError::Translation(
                "aggregate used outside GROUP BY context".into(),
            )),
        },
    }
}

fn eval_subscript(
    ds: &mut Dataset,
    cx: &Cx,
    s: &SubscriptExpr,
) -> Result<Option<Subscript>, QueryError> {
    let eval_i64 = |ds: &mut Dataset, e: &Expr| -> Result<Option<i64>, QueryError> {
        Ok(eval_expr(ds, cx, e)?
            .and_then(|v| v.as_num())
            .map(|n| n.as_i64()))
    };
    Ok(match s {
        SubscriptExpr::Index(e) => eval_i64(ds, e)?.map(Subscript::Index),
        SubscriptExpr::Range { lo, stride, hi } => {
            // A bound that is written must evaluate.
            let mut bound = |e: &Option<Expr>| match e {
                Some(e) => Ok(eval_i64(ds, e)?.map(Some)),
                None => Ok::<_, QueryError>(Some(None)),
            };
            let Some(lo) = bound(lo)? else {
                return Ok(None);
            };
            let Some(stride) = bound(stride)? else {
                return Ok(None);
            };
            let Some(hi) = bound(hi)? else {
                return Ok(None);
            };
            let stride = stride.unwrap_or(1);
            Some(Subscript::Range { lo, stride, hi })
        }
        SubscriptExpr::All => Some(Subscript::All),
    })
}

/// Apply a dereference to an array value. Proxies stay lazy unless the
/// result is a single element (then one chunk fetch yields a scalar).
pub fn dereference(
    ds: &mut Dataset,
    base: Value,
    subs: &[Subscript],
) -> Result<Option<Value>, QueryError> {
    match base {
        Value::Term(Term::Array(a)) => match a.dereference(subs) {
            Ok(d) => {
                if d.ndims() == 0
                    || (d.is_scalar() && subs.iter().all(|s| matches!(s, Subscript::Index(_))))
                {
                    Ok(d.scalar_value().map(Value::number))
                } else {
                    Ok(Some(Value::array(d)))
                }
            }
            Err(_) => Ok(None),
        },
        Value::Proxy(p) => match p.dereference(subs) {
            Ok(d) => {
                if d.element_count() == 1
                    && subs.iter().all(|s| matches!(s, Subscript::Index(_)))
                    && d.ndims() == 0
                {
                    let resolved = ds.resolve_proxy(&d)?;
                    Ok(resolved.scalar_value().map(Value::number))
                } else {
                    Ok(Some(Value::Proxy(d)))
                }
            }
            Err(_) => Ok(None),
        },
        _ => Ok(None),
    }
}

fn negate_value(ds: &mut Dataset, v: Value) -> Result<Option<Value>, QueryError> {
    if let Some(n) = v.as_num() {
        return Ok(n.checked_neg().ok().map(Value::number));
    }
    if v.is_array() {
        let a = ds.force_array(&v)?;
        return Ok(a.negate().ok().map(Value::array));
    }
    Ok(None)
}

/// Compare two operands: scalar terms by reference, straight out of
/// the dictionary; anything else as values.
fn compare_operands(
    ds: &mut Dataset,
    op: CmpOp,
    a: &Operand,
    b: &Operand,
) -> Result<Option<Value>, QueryError> {
    if let (Some(x), Some(y)) = (a.scalar(ds), b.scalar(ds)) {
        return Ok(compare_terms(op, x, y));
    }
    let (a, b) = (a.value(ds), b.value(ds));
    compare(ds, op, &a, &b)
}

/// Comparison with numeric, string, boolean and array semantics.
pub fn compare(
    ds: &mut Dataset,
    op: CmpOp,
    a: &Value,
    b: &Value,
) -> Result<Option<Value>, QueryError> {
    // Array equality compares full contents (thesis §4.1.6).
    if a.is_array() || b.is_array() {
        return match op {
            CmpOp::Eq | CmpOp::Ne => {
                if !(a.is_array() && b.is_array()) {
                    return Ok(Some(Value::boolean(op == CmpOp::Ne)));
                }
                let fa = ds.force_array(a)?;
                let fb = ds.force_array(b)?;
                let eq = fa.array_eq(&fb);
                Ok(Some(Value::boolean(if op == CmpOp::Eq { eq } else { !eq })))
            }
            _ => Ok(None),
        };
    }
    Ok(match (a, b) {
        (Value::Term(x), Value::Term(y)) => compare_terms(op, x, y),
        _ => equality_only(op, a.value_eq(b)),
    })
}

/// Cross-kind operands: only equality/inequality are defined.
fn equality_only(op: CmpOp, eq: bool) -> Option<Value> {
    match op {
        CmpOp::Eq => Some(Value::boolean(eq)),
        CmpOp::Ne => Some(Value::boolean(!eq)),
        _ => None,
    }
}

fn compare_terms(op: CmpOp, x: &Term, y: &Term) -> Option<Value> {
    use std::cmp::Ordering;
    let ord: Option<Ordering> = match (x, y) {
        (Term::Number(x), Term::Number(y)) => x.partial_cmp(y),
        (Term::Str(x), Term::Str(y)) => Some(x.cmp(y)),
        (Term::Bool(x), Term::Bool(y)) => Some(x.cmp(y)),
        (Term::Uri(x), Term::Uri(y)) => Some(x.cmp(y)),
        (Term::LangStr { value: x, .. }, Term::LangStr { value: y, .. }) => Some(x.cmp(y)),
        _ => return equality_only(op, x.value_eq(y)),
    };
    let ord = ord?; // NaN comparisons are errors.
    Some(Value::boolean(match op {
        CmpOp::Eq => ord == Ordering::Equal,
        CmpOp::Ne => ord != Ordering::Equal,
        CmpOp::Lt => ord == Ordering::Less,
        CmpOp::Le => ord != Ordering::Greater,
        CmpOp::Gt => ord == Ordering::Greater,
        CmpOp::Ge => ord != Ordering::Less,
    }))
}

/// Arithmetic over scalars and arrays (element-wise, scalar broadcast).
pub fn arith(
    ds: &mut Dataset,
    op: ArithOp,
    a: &Value,
    b: &Value,
) -> Result<Option<Value>, QueryError> {
    let bin = match op {
        ArithOp::Add => BinOp::Add,
        ArithOp::Sub => BinOp::Sub,
        ArithOp::Mul => BinOp::Mul,
        ArithOp::Div => BinOp::Div,
        ArithOp::Rem => BinOp::Rem,
        ArithOp::Pow => BinOp::Pow,
    };
    match (a.is_array(), b.is_array()) {
        (false, false) => {
            let (Some(x), Some(y)) = (a.as_num(), b.as_num()) else {
                return Ok(None);
            };
            Ok(bin.apply(x, y).ok().map(Value::number))
        }
        (true, false) => {
            let Some(s) = b.as_num() else {
                return Ok(None);
            };
            let arr = ds.force_array(a)?;
            Ok(arr.scalar_op(s, bin).ok().map(Value::array))
        }
        (false, true) => {
            let Some(s) = a.as_num() else {
                return Ok(None);
            };
            let arr = ds.force_array(b)?;
            Ok(arr.scalar_op_rev(s, bin).ok().map(Value::array))
        }
        (true, true) => {
            let x = ds.force_array(a)?;
            let y = ds.force_array(b)?;
            Ok(x.zip_with(&y, bin).ok().map(Value::array))
        }
    }
}

/// Function-call dispatch: special forms, built-ins, defined views,
/// foreign functions.
fn eval_call(
    ds: &mut Dataset,
    cx: &Cx,
    name: &str,
    args: &[Expr],
) -> Result<Option<Value>, QueryError> {
    let lname = name.to_ascii_lowercase();
    // Special forms that see unevaluated arguments.
    match lname.as_str() {
        "bound" => {
            let Some(Expr::Var(v)) = args.first() else {
                return Err(QueryError::Translation("BOUND expects a variable".into()));
            };
            return Ok(Some(Value::boolean(cx.slot(v).is_some_and(Slot::is_bound))));
        }
        "if" => {
            if args.len() != 3 {
                return Err(QueryError::Translation("IF expects 3 arguments".into()));
            }
            let c = eval_expr(ds, cx, &args[0])?.and_then(|v| v.effective_bool());
            return match c {
                Some(true) => eval_expr(ds, cx, &args[1]),
                Some(false) => eval_expr(ds, cx, &args[2]),
                None => Ok(None),
            };
        }
        "coalesce" => {
            for a in args {
                if let Some(v) = eval_expr(ds, cx, a)? {
                    return Ok(Some(v));
                }
            }
            return Ok(None);
        }
        _ => {}
    }
    // Evaluate arguments strictly.
    let mut vals = Vec::with_capacity(args.len());
    for a in args {
        match eval_expr(ds, cx, a)? {
            Some(v) => vals.push(v),
            None => return Ok(None),
        }
    }
    apply_function(ds, name, &vals)
}

/// Call a function by name with evaluated arguments (also used by the
/// second-order builtins to apply closures).
pub fn apply_function(
    ds: &mut Dataset,
    name: &str,
    args: &[Value],
) -> Result<Option<Value>, QueryError> {
    let lname = name.to_ascii_lowercase();
    if let Some(result) = builtins::call_builtin(ds, &lname, args) {
        return result;
    }
    if let Some(def) = ds.registry.lookup_defined(name) {
        let rows = crate::eval::call_view(ds, &def, args.to_vec())?;
        // DAPLEX-style scalar context: the first column of the first
        // solution is the call's value; no solutions is an error value.
        let first = rows.slots.into_iter().next();
        return Ok(first.and_then(|cell| crate::eval::into_value(ds, cell)));
    }
    if let Some(f) = ds.registry.lookup_foreign(name) {
        if f.arity != args.len() {
            return Err(QueryError::Eval(format!(
                "foreign function {name} expects {} argument(s), got {}",
                f.arity,
                args.len()
            )));
        }
        let imp = f.imp.clone();
        return match imp(args) {
            Ok(v) => Ok(Some(v)),
            Err(QueryError::Eval(_)) => Ok(None),
            Err(other) => Err(other),
        };
    }
    Err(QueryError::Translation(format!(
        "unknown function '{name}'"
    )))
}

/// Apply a closure value to arguments.
pub fn apply_closure(
    ds: &mut Dataset,
    c: &Closure,
    args: &[Value],
) -> Result<Option<Value>, QueryError> {
    let full = c.complete_args(args)?;
    apply_function(ds, c.name(), &full)
}
