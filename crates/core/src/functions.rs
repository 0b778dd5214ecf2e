//! The function registry: user-defined functions (parameterized
//! queries, thesis §4.2), lexical closures (§4.3), and foreign
//! functions (§4.4).

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use crate::ast::FunctionDef;
use crate::dataset::QueryError;
use crate::value::Value;

/// The native implementation of a foreign function.
pub type ForeignImpl = Arc<dyn Fn(&[Value]) -> Result<Value, QueryError> + Send + Sync + 'static>;

/// A registered foreign function.
#[derive(Clone)]
pub struct ForeignFunction {
    pub name: String,
    pub arity: usize,
    pub imp: ForeignImpl,
}

impl fmt::Debug for ForeignFunction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ForeignFunction")
            .field("name", &self.name)
            .field("arity", &self.arity)
            .finish()
    }
}

/// A functional value: a reference to a defined or foreign function,
/// possibly with some arguments already bound (a lexical closure,
/// thesis §4.3). Created by bare function references (`square`),
/// explicit `FUNCTION name`, or partial application `f(1, ?_)`.
#[derive(Debug, Clone)]
pub struct Closure {
    name: String,
    /// Bound argument slots; `None` marks a remaining parameter.
    bound: Vec<Option<Value>>,
}

impl Closure {
    pub fn reference(name: impl Into<String>) -> Self {
        Closure {
            name: name.into(),
            bound: Vec::new(),
        }
    }

    pub fn partial(name: impl Into<String>, bound: Vec<Option<Value>>) -> Self {
        Closure {
            name: name.into(),
            bound,
        }
    }

    pub fn name(&self) -> &str {
        &self.name
    }

    pub fn bound(&self) -> &[Option<Value>] {
        &self.bound
    }

    /// Merge the free parameter slots with call-time arguments,
    /// producing the full argument list.
    pub fn complete_args(&self, call_args: &[Value]) -> Result<Vec<Value>, QueryError> {
        if self.bound.is_empty() {
            return Ok(call_args.to_vec());
        }
        let holes = self.bound.iter().filter(|b| b.is_none()).count();
        if holes != call_args.len() {
            return Err(QueryError::Eval(format!(
                "closure over '{}' expects {holes} argument(s), got {}",
                self.name,
                call_args.len()
            )));
        }
        let mut it = call_args.iter();
        Ok(self
            .bound
            .iter()
            .map(|b| match b {
                Some(v) => v.clone(),
                None => it.next().expect("hole count checked").clone(),
            })
            .collect())
    }

    pub fn same_function(&self, other: &Closure) -> bool {
        self.name == other.name && self.bound.len() == other.bound.len()
    }
}

impl fmt::Display for Closure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.bound.is_empty() {
            write!(f, "#'{}'", self.name)
        } else {
            write!(f, "#'{}'/{} partially applied", self.name, self.bound.len())
        }
    }
}

/// The registry of callable functions: SciSPARQL `DEFINE FUNCTION`
/// views and native foreign functions. Built-in scalar/array functions
/// live in [`crate::eval::builtins`] and are consulted first by the
/// evaluator.
#[derive(Debug, Default)]
pub struct FunctionRegistry {
    defined: HashMap<String, Arc<FunctionDef>>,
    foreign: HashMap<String, ForeignFunction>,
}

impl FunctionRegistry {
    pub fn new() -> Self {
        FunctionRegistry::default()
    }

    /// A registry preloaded with the standard foreign math library
    /// (sqrt, exp, ln, sin, cos — the kind of computational-library
    /// hooks §4.4 describes).
    pub fn with_builtins() -> Self {
        let mut r = FunctionRegistry::new();
        type MathFn = fn(f64) -> f64;
        let unary_math: [(&str, MathFn); 8] = [
            ("sqrt", f64::sqrt),
            ("exp", f64::exp),
            ("ln", f64::ln),
            ("log10", f64::log10),
            ("sin", f64::sin),
            ("cos", f64::cos),
            ("tan", f64::tan),
            ("atan", f64::atan),
        ];
        for (name, f) in unary_math {
            r.register_foreign(ForeignFunction {
                name: name.to_string(),
                arity: 1,
                imp: Arc::new(move |args: &[Value]| {
                    let n = args.first().and_then(Value::as_num).ok_or_else(|| {
                        QueryError::Eval(format!("{name}: numeric argument required"))
                    })?;
                    Ok(Value::double(f(n.as_f64())))
                }),
            });
        }
        r
    }

    /// Register a `DEFINE FUNCTION` view. Redefinition replaces.
    pub fn define(&mut self, def: FunctionDef) -> Result<(), QueryError> {
        let mut seen = std::collections::HashSet::new();
        for p in &def.params {
            if !seen.insert(p) {
                return Err(QueryError::Translation(format!(
                    "duplicate parameter ?{p} in function {}",
                    def.name
                )));
            }
        }
        self.defined.insert(def.name.clone(), Arc::new(def));
        Ok(())
    }

    pub fn register_foreign(&mut self, f: ForeignFunction) {
        self.foreign.insert(f.name.clone(), f);
    }

    pub fn lookup_defined(&self, name: &str) -> Option<Arc<FunctionDef>> {
        self.defined.get(name).cloned()
    }

    pub fn lookup_foreign(&self, name: &str) -> Option<&ForeignFunction> {
        self.foreign.get(name)
    }

    pub fn is_known(&self, name: &str) -> bool {
        self.defined.contains_key(name) || self.foreign.contains_key(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closure_complete_args() {
        let c = Closure::partial(
            "f",
            vec![Some(Value::integer(1)), None, Some(Value::integer(3)), None],
        );
        let full = c
            .complete_args(&[Value::integer(2), Value::integer(4)])
            .unwrap();
        let nums: Vec<i64> = full.iter().map(|v| v.as_num().unwrap().as_i64()).collect();
        assert_eq!(nums, vec![1, 2, 3, 4]);
    }

    #[test]
    fn closure_arity_mismatch() {
        let c = Closure::partial("f", vec![None, None]);
        assert!(c.complete_args(&[Value::integer(1)]).is_err());
    }

    #[test]
    fn bare_reference_passes_args_through() {
        let c = Closure::reference("g");
        let full = c.complete_args(&[Value::integer(9)]).unwrap();
        assert_eq!(full.len(), 1);
    }

    #[test]
    fn builtin_math_registered() {
        let r = FunctionRegistry::with_builtins();
        assert!(r.is_known("sqrt"));
        let f = r.lookup_foreign("sqrt").unwrap();
        let v = (f.imp)(&[Value::double(9.0)]).unwrap();
        assert_eq!(v.as_num().unwrap().as_f64(), 3.0);
    }

    #[test]
    fn duplicate_params_rejected() {
        let mut r = FunctionRegistry::new();
        let def = FunctionDef {
            name: "bad".into(),
            params: vec!["x".into(), "x".into()],
            body: crate::ast::SelectQuery {
                distinct: false,
                projection: crate::ast::Projection::All,
                from: None,
                from_named: Vec::new(),
                pattern: Default::default(),
                group_by: vec![],
                having: None,
                order_by: vec![],
                limit: None,
                offset: None,
            },
        };
        assert!(r.define(def).is_err());
    }
}
