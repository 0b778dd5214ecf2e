//! Built-in functions: the SPARQL 1.1 scalar library plus the
//! SciSPARQL array functions (thesis §4.1.3) and second-order array
//! primitives (§4.3.1).
//!
//! Array aggregates over *proxies* are delegated to the storage layer's
//! AAPR operator, so `array_sum(?big)` streams chunks instead of
//! materializing the array — the server-side aggregation behaviour the
//! paper highlights.

use ssdm_array::{AggregateOp, Num, NumArray};
use ssdm_rdf::Term;

use crate::dataset::{Dataset, QueryError};
use crate::eval::expr::apply_closure;
use crate::value::Value;

type EvalResult = Result<Option<Value>, QueryError>;

/// Dispatch a builtin by (lowercased) name. `None` means "not a
/// builtin" and the caller falls through to UDFs / foreign functions.
pub fn call_builtin(ds: &mut Dataset, name: &str, args: &[Value]) -> Option<EvalResult> {
    Some(match name {
        // --- strings ---------------------------------------------------
        "str" => str_fn(args),
        "strlen" => with_str(args, |s| Some(Value::integer(s.chars().count() as i64))),
        "ucase" => with_str(args, |s| Some(Value::string(s.to_uppercase()))),
        "lcase" => with_str(args, |s| Some(Value::string(s.to_lowercase()))),
        "contains" => with_2str(args, |a, b| Some(Value::boolean(a.contains(b)))),
        "strstarts" => with_2str(args, |a, b| Some(Value::boolean(a.starts_with(b)))),
        "strends" => with_2str(args, |a, b| Some(Value::boolean(a.ends_with(b)))),
        "substr" => substr(args),
        "concat" => {
            let mut out = String::new();
            for a in args {
                match string_of(a) {
                    Some(s) => out.push_str(&s),
                    None => return Some(Ok(None)),
                }
            }
            Ok(Some(Value::string(out)))
        }
        "replace" => {
            let (Some(s), Some(from), Some(to)) = (
                args.first().and_then(|v| str_ref(v)),
                args.get(1).and_then(|v| str_ref(v)),
                args.get(2).and_then(|v| str_ref(v)),
            ) else {
                return Some(Ok(None));
            };
            Ok(Some(Value::string(s.replace(from, to))))
        }
        "regex" => {
            // A lightweight regex: supports '^'/'$' anchors and '.' as a
            // wildcard; everything else matches literally (substring
            // search when unanchored). Documented in the README.
            let (Some(s), Some(p)) = (
                args.first().and_then(|v| str_ref(v)),
                args.get(1).and_then(|v| str_ref(v)),
            ) else {
                return Some(Ok(None));
            };
            Ok(Some(Value::boolean(mini_regex(s, p))))
        }
        // --- term inspection --------------------------------------------
        "isuri" | "isiri" => term_test(args, |t| matches!(t, Term::Uri(_))),
        "isblank" => term_test(args, |t| matches!(t, Term::Blank(_))),
        "isliteral" => term_test(args, |t| t.is_literal()),
        "isnumeric" => term_test(args, |t| matches!(t, Term::Number(_))),
        "isarray" => Ok(Some(Value::boolean(
            args.first().map(|v| v.is_array()).unwrap_or(false),
        ))),
        "datatype" => {
            let Some(Value::Term(t)) = args.first() else {
                return Some(Ok(None));
            };
            let dt = match t {
                Term::Str(_) => "http://www.w3.org/2001/XMLSchema#string",
                Term::Number(Num::Int(_)) => "http://www.w3.org/2001/XMLSchema#integer",
                Term::Number(Num::Real(_)) => "http://www.w3.org/2001/XMLSchema#double",
                Term::Bool(_) => "http://www.w3.org/2001/XMLSchema#boolean",
                Term::Typed { datatype, .. } => datatype.as_str(),
                _ => return Some(Ok(None)),
            };
            Ok(Some(Value::Term(Term::uri(dt))))
        }
        "lang" => {
            let Some(Value::Term(t)) = args.first() else {
                return Some(Ok(None));
            };
            match t {
                Term::LangStr { lang, .. } => Ok(Some(Value::string(lang.clone()))),
                Term::Str(_) => Ok(Some(Value::string(""))),
                _ => Ok(None),
            }
        }
        // --- numeric scalars ---------------------------------------------
        "abs" => num_fn(ds, args, Num::abs),
        "round" => num_fn(ds, args, |n| Num::Real(n.as_f64().round())),
        "floor" => num_fn(ds, args, |n| Num::Real(n.as_f64().floor())),
        "ceil" => num_fn(ds, args, |n| Num::Real(n.as_f64().ceil())),
        "mod" => {
            let (Some(a), Some(b)) = (
                args.first().and_then(Value::as_num),
                args.get(1).and_then(Value::as_num),
            ) else {
                return Some(Ok(None));
            };
            Ok(a.checked_rem(b).ok().map(Value::number))
        }
        // --- array introspection -----------------------------------------
        "array_rank" | "arank" => {
            let Some(shape) = args.first().and_then(Value::array_shape) else {
                return Some(Ok(None));
            };
            Ok(Some(Value::integer(shape.len() as i64)))
        }
        "array_dims" | "adims" => {
            let Some(shape) = args.first().and_then(Value::array_shape) else {
                return Some(Ok(None));
            };
            Ok(Some(Value::array(NumArray::from_i64(
                shape.into_iter().map(|s| s as i64).collect(),
            ))))
        }
        "array_dim" | "adim" => {
            let (Some(shape), Some(i)) = (
                args.first().and_then(Value::array_shape),
                args.get(1).and_then(Value::as_num),
            ) else {
                return Some(Ok(None));
            };
            let i = i.as_i64();
            if i < 1 || i as usize > shape.len() {
                return Some(Ok(None));
            }
            Ok(Some(Value::integer(shape[(i - 1) as usize] as i64)))
        }
        // --- array aggregates (AAPR-aware) --------------------------------
        "array_sum" | "asum" => array_aggregate(ds, args, AggregateOp::Sum),
        "array_avg" | "aavg" => array_aggregate(ds, args, AggregateOp::Avg),
        "array_min" | "amin" => array_aggregate(ds, args, AggregateOp::Min),
        "array_max" | "amax" => array_aggregate(ds, args, AggregateOp::Max),
        "array_prod" | "aprod" => array_aggregate(ds, args, AggregateOp::Prod),
        "array_count" | "acount" => array_aggregate(ds, args, AggregateOp::Count),
        // --- filtered aggregates (zone-map-aware) --------------------------
        "array_sum_range" => array_aggregate_range(ds, args, AggregateOp::Sum),
        "array_avg_range" => array_aggregate_range(ds, args, AggregateOp::Avg),
        "array_min_range" => array_aggregate_range(ds, args, AggregateOp::Min),
        "array_max_range" => array_aggregate_range(ds, args, AggregateOp::Max),
        "array_count_range" => array_aggregate_range(ds, args, AggregateOp::Count),
        "array_contains" | "acontains" => array_contains(ds, args),
        // --- array constructors / transforms -------------------------------
        "array" => {
            let mut nums = Vec::with_capacity(args.len());
            for a in args {
                match a.as_num() {
                    Some(n) => nums.push(n),
                    None => return Some(Ok(None)),
                }
            }
            Ok(Some(nums_array(&nums, &[nums.len()])))
        }
        "array_transpose" | "transpose" => {
            let Some(v) = args.first() else {
                return Some(Ok(None));
            };
            match v {
                Value::Term(Term::Array(a)) => Ok(Some(Value::array(a.transpose()))),
                Value::Proxy(p) => Ok(Some(Value::Proxy(p.transpose()))),
                _ => Ok(None),
            }
        }
        "array_reshape" | "reshape" => {
            let (Some(av), Some(shape_v)) = (args.first(), args.get(1)) else {
                return Some(Ok(None));
            };
            if !(av.is_array() && shape_v.is_array()) {
                return Some(Ok(None));
            }
            let (a, shape_arr) = match (ds.force_array(av), ds.force_array(shape_v)) {
                (Ok(x), Ok(y)) => (x, y),
                _ => return Some(Ok(None)),
            };
            let shape: Vec<usize> = shape_arr
                .elements()
                .iter()
                .map(|n| n.as_i64().max(0) as usize)
                .collect();
            if shape.iter().product::<usize>() != a.element_count() {
                return Some(Ok(None));
            }
            let dense = a.materialize();
            let reshaped = NumArray::from_parts(
                dense.data().clone(),
                ssdm_array::ArrayView::contiguous(&shape),
            );
            Ok(Some(Value::array(reshaped)))
        }
        "matmul" => {
            let (Some(a), Some(b)) = (args.first(), args.get(1)) else {
                return Some(Ok(None));
            };
            if !(a.is_array() && b.is_array()) {
                return Some(Ok(None));
            }
            let (fa, fb) = match (ds.force_array(a), ds.force_array(b)) {
                (Ok(x), Ok(y)) => (x, y),
                _ => return Some(Ok(None)),
            };
            Ok(fa.matmul(&fb).ok().map(Value::array))
        }
        // --- second-order array functions (thesis §4.3.1) ------------------
        "array_map" | "map" => array_map(ds, args),
        "array_condense" | "condense" => array_condense(ds, args),
        "array_build" => array_build(ds, args),
        "apply" => {
            let Some(Value::Closure(c)) = args.first() else {
                return Some(Err(QueryError::Eval(
                    "apply: first argument must be a function".into(),
                )));
            };
            let c = c.clone();
            apply_closure(ds, &c, &args[1..])
        }
        _ => return None,
    })
}

// -----------------------------------------------------------------------
// Helpers
// -----------------------------------------------------------------------

fn str_ref(v: &Value) -> Option<&str> {
    match v {
        Value::Term(Term::Str(s)) => Some(s),
        Value::Term(Term::LangStr { value, .. }) => Some(value),
        _ => None,
    }
}

fn string_of(v: &Value) -> Option<String> {
    match v {
        Value::Term(Term::Str(s)) => Some(s.clone()),
        Value::Term(Term::LangStr { value, .. }) => Some(value.clone()),
        Value::Term(Term::Number(n)) => Some(n.to_string()),
        Value::Term(Term::Bool(b)) => Some(b.to_string()),
        Value::Term(Term::Uri(u)) => Some(u.clone()),
        _ => None,
    }
}

fn str_fn(args: &[Value]) -> EvalResult {
    let Some(v) = args.first() else {
        return Ok(None);
    };
    Ok(string_of(v).map(Value::string))
}

fn with_str(args: &[Value], f: impl Fn(&str) -> Option<Value>) -> EvalResult {
    Ok(args.first().and_then(|v| str_ref(v)).and_then(f))
}

fn with_2str(args: &[Value], f: impl Fn(&str, &str) -> Option<Value>) -> EvalResult {
    let (Some(a), Some(b)) = (
        args.first().and_then(|v| str_ref(v)),
        args.get(1).and_then(|v| str_ref(v)),
    ) else {
        return Ok(None);
    };
    Ok(f(a, b))
}

fn substr(args: &[Value]) -> EvalResult {
    let (Some(s), Some(start)) = (
        args.first().and_then(|v| str_ref(v)),
        args.get(1).and_then(Value::as_num),
    ) else {
        return Ok(None);
    };
    let chars: Vec<char> = s.chars().collect();
    let start = (start.as_i64() - 1).max(0) as usize; // SPARQL is 1-based
    let len = args
        .get(2)
        .and_then(Value::as_num)
        .map(|n| n.as_i64().max(0) as usize)
        .unwrap_or(usize::MAX);
    let out: String = chars.into_iter().skip(start).take(len).collect();
    Ok(Some(Value::string(out)))
}

fn term_test(args: &[Value], f: impl Fn(&Term) -> bool) -> EvalResult {
    let Some(v) = args.first() else {
        return Ok(None);
    };
    Ok(Some(Value::boolean(match v {
        Value::Term(t) => f(t),
        _ => false,
    })))
}

/// A scalar-or-elementwise numeric function.
fn num_fn(ds: &mut Dataset, args: &[Value], f: impl Fn(Num) -> Num) -> EvalResult {
    match args.first() {
        Some(v) if v.as_num().is_some() => Ok(v.as_num().map(|n| Value::number(f(n)))),
        Some(v) if v.is_array() => Ok(ds.force_array(v)?.map(&|x| Ok(f(x))).ok().map(Value::array)),
        _ => Ok(None),
    }
}

/// A streamed aggregate's cell: an aggregate that has no value over no
/// elements is unbound; every other storage error fails the query.
fn number_or_unbound(folded: Result<Num, ssdm_storage::StorageError>) -> EvalResult {
    match folded {
        Ok(n) => Ok(Some(Value::number(n))),
        Err(ssdm_storage::StorageError::EmptyView) => Ok(None),
        Err(e) => Err(e.into()),
    }
}

/// AAPR-aware array aggregation: proxies stream through the storage
/// layer; resident arrays fold in memory.
fn array_aggregate(ds: &mut Dataset, args: &[Value], op: AggregateOp) -> EvalResult {
    let Some(v) = args.first() else {
        return Ok(None);
    };
    match v {
        Value::Term(Term::Array(a)) => Ok(a.aggregate(op).ok().map(Value::number)),
        Value::Proxy(p) => {
            let strategy = ds.strategy;
            let parallel = ds.parallel;
            number_or_unbound(
                ds.arrays
                    .resolve_aggregate_parallel(p, op, strategy, parallel),
            )
        }
        _ => Ok(None),
    }
}

/// `array_*_range(A, lo, hi)`: aggregate only the elements in the
/// inclusive value range `[lo, hi]`. Proxies stream through the
/// storage layer's *filtered* AAPR, which consults per-chunk summary
/// zone maps to skip chunks that provably hold no qualifying element;
/// resident arrays filter in memory with identical semantics. An empty
/// filtered view is unbound, except `Count` (0) and `Sum` (0).
fn array_aggregate_range(ds: &mut Dataset, args: &[Value], op: AggregateOp) -> EvalResult {
    let (Some(v), Some(lo), Some(hi)) = (
        args.first(),
        args.get(1).and_then(Value::as_num),
        args.get(2).and_then(Value::as_num),
    ) else {
        return Ok(None);
    };
    let pred = ssdm_storage::ValuePredicate::Range { lo, hi };
    match v {
        Value::Term(Term::Array(a)) => {
            let matched: Vec<Num> = a
                .elements()
                .into_iter()
                .filter(|n| pred.matches(*n))
                .collect();
            Ok(resident_filtered_aggregate(&matched, op).map(Value::number))
        }
        Value::Proxy(p) => {
            let strategy = ds.strategy;
            let parallel = ds.parallel;
            number_or_unbound(
                ds.arrays
                    .resolve_aggregate_filtered_parallel(p, &pred, op, strategy, parallel),
            )
        }
        _ => Ok(None),
    }
}

/// Fold an in-memory filtered view with the same empty-view semantics
/// as the storage layer's filtered AAPR.
fn resident_filtered_aggregate(matched: &[Num], op: AggregateOp) -> Option<Num> {
    if matched.is_empty() {
        return match op {
            AggregateOp::Count | AggregateOp::Sum => Some(Num::Int(0)),
            AggregateOp::Prod => Some(Num::Int(1)),
            _ => None,
        };
    }
    if op == AggregateOp::Count {
        return Some(Num::Int(matched.len() as i64));
    }
    NumArray::from_data(ssdm_array::ArrayData::from_nums(matched), &[matched.len()])
        .ok()?
        .aggregate(op)
        .ok()
}

/// `array_contains(A, v, ...)`: whether any element of `A` equals one
/// of the given values. Proxies use the storage layer's existence scan
/// (zone maps prune chunks, the scan stops at the first match).
fn array_contains(ds: &mut Dataset, args: &[Value]) -> EvalResult {
    let Some(v) = args.first() else {
        return Ok(None);
    };
    let mut needles = Vec::with_capacity(args.len().saturating_sub(1));
    for a in &args[1..] {
        match a.as_num() {
            Some(n) => needles.push(n),
            None => return Ok(None),
        }
    }
    if needles.is_empty() {
        return Ok(None);
    }
    let pred = ssdm_storage::ValuePredicate::In(needles);
    match v {
        Value::Term(Term::Array(a)) => Ok(Some(Value::boolean(
            a.elements().into_iter().any(|n| pred.matches(n)),
        ))),
        Value::Proxy(p) => {
            let strategy = ds.strategy;
            let found = ds.arrays.resolve_exists(p, &pred, strategy)?;
            Ok(Some(Value::boolean(found)))
        }
        _ => Ok(None),
    }
}

/// A closure argument, or `err`.
fn closure(arg: Option<&Value>, err: &str) -> Result<crate::functions::Closure, QueryError> {
    match arg {
        Some(Value::Closure(c)) => Ok(c.clone()),
        _ => Err(QueryError::Eval(err.into())),
    }
}

/// A closure applied where a number must come out; `None` otherwise.
fn apply_num(
    ds: &mut Dataset,
    c: &crate::functions::Closure,
    args: &[Value],
) -> Result<Option<Num>, QueryError> {
    Ok(apply_closure(ds, c, args)?.and_then(|v| v.as_num()))
}

/// Numbers laid out in `shape`, which holds exactly as many.
fn nums_array(nums: &[Num], shape: &[usize]) -> Value {
    let data = ssdm_array::ArrayData::from_nums(nums);
    Value::array(NumArray::from_data(data, shape).expect("count matches shape"))
}

/// `array_map(f, A [, B])`.
fn array_map(ds: &mut Dataset, args: &[Value]) -> EvalResult {
    let c = closure(args.first(), "array_map: first argument must be a function")?;
    if !(2..=3).contains(&args.len()) {
        let n = args.len();
        return Err(QueryError::Eval(format!(
            "array_map expects 2 or 3 arguments, got {n}"
        )));
    }
    let arrays: Vec<NumArray> = args[1..]
        .iter()
        .map(|v| ds.force_array(v))
        .collect::<Result<_, _>>()?;
    let shape = arrays[0].shape();
    if arrays.iter().any(|b| b.shape() != shape) {
        return Ok(None);
    }
    let columns: Vec<Vec<Num>> = arrays.iter().map(NumArray::elements).collect();
    let mut out = Vec::with_capacity(columns[0].len());
    for i in 0..columns[0].len() {
        let xs: Vec<Value> = columns.iter().map(|col| Value::number(col[i])).collect();
        let Some(n) = apply_num(ds, &c, &xs)? else {
            return Ok(None);
        };
        out.push(n);
    }
    Ok(Some(nums_array(&out, &shape)))
}

/// `array_condense(f, A)`: fold all elements with a binary closure.
fn array_condense(ds: &mut Dataset, args: &[Value]) -> EvalResult {
    let c = closure(
        args.first(),
        "array_condense: first argument must be a function",
    )?;
    let Some(av) = args.get(1) else {
        return Ok(None);
    };
    let mut elems = ds.force_array(av)?.elements().into_iter();
    let mut acc = elems.next();
    while let (Some(prev), Some(x)) = (acc, elems.next()) {
        acc = apply_num(ds, &c, &[Value::number(prev), Value::number(x)])?;
        if acc.is_none() {
            return Ok(None);
        }
    }
    Ok(acc.map(Value::number))
}

/// `array_build(shape, f)`: shape is a 1-D array; `f` receives one
/// 1-based subscript per dimension.
fn array_build(ds: &mut Dataset, args: &[Value]) -> EvalResult {
    let (Some(shape_v), Ok(c)) = (args.first(), closure(args.get(1), "")) else {
        return Err(QueryError::Eval(
            "array_build expects (shape-array, function)".into(),
        ));
    };
    let shape_arr = ds.force_array(shape_v)?;
    let shape: Vec<usize> = shape_arr
        .elements()
        .iter()
        .map(|n| n.as_i64().max(0) as usize)
        .collect();
    let count: usize = shape.iter().product();
    if count > 10_000_000 {
        return Err(QueryError::Eval("array_build: shape too large".into()));
    }
    let mut values = Vec::with_capacity(count);
    let mut ix: Vec<i64> = vec![1; shape.len()];
    for _ in 0..count {
        let args: Vec<Value> = ix.iter().map(|&i| Value::integer(i)).collect();
        let Some(n) = apply_num(ds, &c, &args)? else {
            return Ok(None);
        };
        values.push(n);
        for d in (0..shape.len()).rev() {
            ix[d] += 1;
            if ix[d] <= shape[d] as i64 {
                break;
            }
            ix[d] = 1;
        }
    }
    Ok(Some(nums_array(&values, &shape)))
}

/// Minimal regex: `^`/`$` anchors, `.` wildcard, literal otherwise.
fn mini_regex(s: &str, pattern: &str) -> bool {
    let (anchored_start, p) = match pattern.strip_prefix('^') {
        Some(rest) => (true, rest),
        None => (false, pattern),
    };
    let (anchored_end, p) = match p.strip_suffix('$') {
        Some(rest) => (true, rest),
        None => (false, p),
    };
    let pat: Vec<char> = p.chars().collect();
    let text: Vec<char> = s.chars().collect();
    let match_at = |start: usize| -> bool {
        if start + pat.len() > text.len() {
            return false;
        }
        pat.iter()
            .zip(&text[start..])
            .all(|(pc, tc)| *pc == '.' || pc == tc)
    };
    if anchored_start && anchored_end {
        pat.len() == text.len() && match_at(0)
    } else if anchored_start {
        match_at(0)
    } else if anchored_end {
        text.len() >= pat.len() && match_at(text.len() - pat.len())
    } else {
        if pat.is_empty() {
            return true;
        }
        (0..=text.len().saturating_sub(pat.len())).any(match_at)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::expr::apply_function;

    #[test]
    fn mini_regex_semantics() {
        assert!(mini_regex("hello world", "lo w"));
        assert!(mini_regex("hello", "^hel"));
        assert!(mini_regex("hello", "llo$"));
        assert!(mini_regex("hello", "^h.llo$"));
        assert!(!mini_regex("hello", "^ello"));
        assert!(!mini_regex("hello", "olleh"));
        assert!(mini_regex("x", ""));
    }

    #[test]
    fn apply_function_unknown_errors() {
        let mut ds = Dataset::in_memory();
        let e = apply_function(&mut ds, "no_such_fn", &[]).unwrap_err();
        assert!(matches!(e, QueryError::Translation(_)));
    }
}
