//! Abstract syntax of SciSPARQL queries, updates and function
//! definitions (thesis ch. 3–4). Produced by [`crate::parser`] and
//! consumed by [`crate::algebra`].

use ssdm_rdf::Term;

/// A full SciSPARQL statement.
#[derive(Debug, Clone)]
pub enum Statement {
    Select(SelectQuery),
    Ask(AskQuery),
    Construct(ConstructQuery),
    /// `DESCRIBE <uri>` — all triples with the resource as subject.
    Describe(Vec<Term>),
    /// `EXPLAIN <select-query>` — show the optimized operator tree
    /// instead of executing (a window into the §5.4 translation).
    Explain(Box<SelectQuery>),
    /// `EXPLAIN ANALYZE <select-query>` — execute the query with the
    /// profiler attached and show the operator tree annotated with
    /// measured phase timings and per-operator counters.
    ExplainAnalyze(Box<SelectQuery>),
    /// `DEFINE FUNCTION name(?p1, ?p2) AS <select-query>` — a
    /// parameterized view (thesis §4.2).
    DefineFunction(FunctionDef),
    /// `INSERT DATA { ... }` / `DELETE DATA { ... }` (SPARQL Update).
    InsertData(Vec<GroundTriple>),
    DeleteData(Vec<GroundTriple>),
    /// Templated update: `DELETE {...} INSERT {...} WHERE {...}`,
    /// including the `INSERT ... WHERE` and `DELETE WHERE` short forms.
    Modify {
        delete: Vec<TriplePattern>,
        insert: Vec<TriplePattern>,
        pattern: GroupPattern,
    },
}

impl Statement {
    /// Whether executing this statement mutates the dataset's graphs or
    /// array store — i.e. whether it must reach the update journal
    /// before being acknowledged. `DEFINE FUNCTION` is deliberately not
    /// a mutation here: function definitions are session state, not
    /// persisted by snapshots, so logging them would make replayed and
    /// snapshotted states diverge.
    pub fn is_mutation(&self) -> bool {
        matches!(
            self,
            Statement::InsertData(_) | Statement::DeleteData(_) | Statement::Modify { .. }
        )
    }
}

/// A SELECT query.
#[derive(Debug, Clone)]
pub struct SelectQuery {
    pub distinct: bool,
    pub projection: Projection,
    /// `FROM <g>`: query this named graph as the default graph
    /// (at most one; thesis §3.3.4).
    pub from: Option<String>,
    /// `FROM NAMED <g>`: restrict which graphs `GRAPH ?g` ranges over.
    pub from_named: Vec<String>,
    pub pattern: GroupPattern,
    pub group_by: Vec<Expr>,
    pub having: Option<Expr>,
    pub order_by: Vec<OrderKey>,
    pub limit: Option<usize>,
    pub offset: Option<usize>,
}

impl SelectQuery {
    /// The projected columns (`*` expands to the bindable, non-internal
    /// variables of the pattern).
    pub(crate) fn projection_items(&self) -> Vec<ProjectionItem> {
        match &self.projection {
            Projection::Items(items) => items.clone(),
            Projection::All => {
                let mut vars = Vec::new();
                self.pattern.bindable_vars(&mut vars);
                let vars = vars.into_iter().filter(|v| !v.starts_with('_'));
                let item = |v| ProjectionItem {
                    expr: Expr::Var(v),
                    alias: None,
                };
                vars.map(item).collect()
            }
        }
    }
}

/// An ASK query.
#[derive(Debug, Clone)]
pub struct AskQuery {
    pub pattern: GroupPattern,
}

/// A CONSTRUCT query.
#[derive(Debug, Clone)]
pub struct ConstructQuery {
    pub template: Vec<TriplePattern>,
    pub pattern: GroupPattern,
    pub limit: Option<usize>,
}

/// `SELECT *` or an explicit projection list.
#[derive(Debug, Clone)]
pub enum Projection {
    All,
    Items(Vec<ProjectionItem>),
}

/// One projected column: a bare variable or `(expr AS ?name)`.
#[derive(Debug, Clone)]
pub struct ProjectionItem {
    pub expr: Expr,
    pub alias: Option<String>,
}

impl ProjectionItem {
    /// The output column name.
    pub fn name(&self) -> String {
        if let Some(a) = &self.alias {
            return a.clone();
        }
        match &self.expr {
            Expr::Var(v) => v.clone(),
            other => format!("{other:?}"),
        }
    }
}

/// An ORDER BY key.
#[derive(Debug, Clone)]
pub struct OrderKey {
    pub expr: Expr,
    pub ascending: bool,
}

/// A group graph pattern `{ ... }`: a conjunction of elements.
#[derive(Debug, Clone, Default)]
pub struct GroupPattern {
    pub elems: Vec<PatternElem>,
}

/// One element of a group pattern.
#[derive(Debug, Clone)]
pub enum PatternElem {
    /// A basic triple pattern (property paths included).
    Triple(TriplePattern),
    /// `OPTIONAL { ... }`.
    Optional(GroupPattern),
    /// `{ A } UNION { B } UNION ...`.
    Union(Vec<GroupPattern>),
    /// `FILTER (...)`.
    Filter(Expr),
    /// `BIND (expr AS ?v)`.
    Bind { expr: Expr, var: String },
    /// `VALUES (?a ?b) { (1 2) (3 UNDEF) }`.
    Values {
        vars: Vec<String>,
        rows: Vec<Vec<Option<Term>>>,
    },
    /// A nested group `{ ... }`.
    Group(GroupPattern),
    /// `GRAPH <g> { ... }` / `GRAPH ?g { ... }` — evaluate the inner
    /// pattern against a named graph (thesis §3.3.4).
    Graph {
        name: TermPattern,
        pattern: GroupPattern,
    },
    /// `{ SELECT ... }` — a subquery; its projected bindings join the
    /// outer solutions.
    SubSelect(Box<SelectQuery>),
    /// `MINUS { ... }` — remove solutions compatible with the pattern.
    Minus(GroupPattern),
}

/// A triple pattern; the predicate may be a property-path expression.
#[derive(Debug, Clone)]
pub struct TriplePattern {
    pub subject: TermPattern,
    pub path: Path,
    pub object: TermPattern,
}

/// Subject/object position: variable or ground term.
#[derive(Debug, Clone, PartialEq)]
pub enum TermPattern {
    Var(String),
    Term(Term),
}

impl TermPattern {
    pub fn as_var(&self) -> Option<&str> {
        match self {
            TermPattern::Var(v) => Some(v),
            _ => None,
        }
    }
}

/// A SPARQL 1.1 property-path expression (thesis §3.4).
#[derive(Debug, Clone, PartialEq)]
pub enum Path {
    /// A single predicate (URI or variable).
    Pred(TermPattern),
    /// `p1 / p2` — sequence.
    Seq(Box<Path>, Box<Path>),
    /// `p1 | p2` — alternative.
    Alt(Box<Path>, Box<Path>),
    /// `^p` — inverse.
    Inv(Box<Path>),
    /// `p*` — reflexive-transitive closure.
    Star(Box<Path>),
    /// `p+` — transitive closure.
    Plus(Box<Path>),
    /// `p?` — zero-or-one.
    Opt(Box<Path>),
}

impl Path {
    /// True when the path is a plain predicate (no operators).
    pub fn as_pred(&self) -> Option<&TermPattern> {
        match self {
            Path::Pred(p) => Some(p),
            _ => None,
        }
    }
}

/// Expression grammar (filters, projections, BIND, array syntax).
#[derive(Debug, Clone)]
pub enum Expr {
    Var(String),
    Const(Term),
    /// `?f(args...)` or `name(args...)`: built-in, UDF, foreign
    /// function, or closure application.
    Call {
        name: String,
        args: Vec<Expr>,
    },
    /// A function reference or partial application producing a closure:
    /// `FUNCTION name` or `name(1, ?_, 3)` with `?_` placeholders.
    FunctionRef {
        name: String,
        bound: Vec<Option<Expr>>,
    },
    /// `base[subscripts]` — array dereference (thesis §4.1.1).
    ArrayDeref {
        base: Box<Expr>,
        subscripts: Vec<SubscriptExpr>,
    },
    Not(Box<Expr>),
    Neg(Box<Expr>),
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Cmp(CmpOp, Box<Expr>, Box<Expr>),
    Arith(ArithOp, Box<Expr>, Box<Expr>),
    /// `EXISTS { ... }` / `NOT EXISTS { ... }`.
    Exists {
        pattern: GroupPattern,
        negated: bool,
    },
    /// `?x IN (e1, e2, ...)` / `?x NOT IN (...)`.
    InList {
        needle: Box<Expr>,
        haystack: Vec<Expr>,
        negated: bool,
    },
    /// An aggregate call, only legal under GROUP BY (or implicit group).
    Aggregate {
        kind: AggKind,
        distinct: bool,
        arg: Option<Box<Expr>>,
        separator: Option<String>,
    },
}

/// One subscript of an array dereference.
#[derive(Debug, Clone)]
pub enum SubscriptExpr {
    /// A single 1-based (possibly negative) index expression.
    Index(Expr),
    /// `lo:hi` or `lo:stride:hi` with optional bounds.
    Range {
        lo: Option<Expr>,
        stride: Option<Expr>,
        hi: Option<Expr>,
    },
    /// Bare `:` — the whole dimension.
    All,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
    Rem,
    Pow,
}

/// SPARQL aggregate kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    Count,
    Sum,
    Avg,
    Min,
    Max,
    Sample,
    GroupConcat,
}

/// A function definition (parameterized view).
#[derive(Debug, Clone)]
pub struct FunctionDef {
    pub name: String,
    pub params: Vec<String>,
    pub body: SelectQuery,
}

/// A ground triple for INSERT/DELETE DATA.
#[derive(Debug, Clone)]
pub struct GroundTriple {
    pub subject: Term,
    pub predicate: Term,
    pub object: Term,
}

impl Expr {
    /// Collect the variables an expression mentions (excluding those
    /// local to EXISTS blocks, which evaluate in their own scope).
    pub fn collect_vars(&self, out: &mut Vec<String>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(v.clone());
                }
            }
            Expr::Const(_) => {}
            Expr::Call { args, .. } => {
                for a in args {
                    a.collect_vars(out);
                }
            }
            Expr::FunctionRef { bound, .. } => {
                for b in bound.iter().flatten() {
                    b.collect_vars(out);
                }
            }
            Expr::ArrayDeref { base, subscripts } => {
                base.collect_vars(out);
                for s in subscripts {
                    match s {
                        SubscriptExpr::Index(e) => e.collect_vars(out),
                        SubscriptExpr::Range { lo, stride, hi } => {
                            for e in [lo, stride, hi].into_iter().flatten() {
                                e.collect_vars(out);
                            }
                        }
                        SubscriptExpr::All => {}
                    }
                }
            }
            Expr::Not(e) | Expr::Neg(e) => e.collect_vars(out),
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                a.collect_vars(out);
                b.collect_vars(out);
            }
            Expr::Exists { .. } => {}
            Expr::InList {
                needle, haystack, ..
            } => {
                needle.collect_vars(out);
                for h in haystack {
                    h.collect_vars(out);
                }
            }
            Expr::Aggregate { arg, .. } => {
                if let Some(a) = arg {
                    a.collect_vars(out);
                }
            }
        }
    }

    /// True when the expression contains an aggregate call at any depth.
    pub fn has_aggregate(&self) -> bool {
        self.any(&mut |e| matches!(e, Expr::Aggregate { .. }))
    }

    /// True when the expression contains an `EXISTS` at any depth.
    pub fn has_exists(&self) -> bool {
        self.any(&mut |e| matches!(e, Expr::Exists { .. }))
    }

    /// True when `test` holds for this expression or a sub-expression
    /// (not looking inside EXISTS patterns or aggregate arguments).
    pub(crate) fn any(&self, test: &mut dyn FnMut(&Expr) -> bool) -> bool {
        if test(self) {
            return true;
        }
        let mut any = |e: &Expr| e.any(test);
        match self {
            Expr::Var(_) | Expr::Const(_) | Expr::Exists { .. } | Expr::Aggregate { .. } => false,
            Expr::FunctionRef { bound, .. } => bound.iter().flatten().any(any),
            Expr::Call { args, .. } => args.iter().any(any),
            Expr::ArrayDeref { base, subscripts } => {
                any(base)
                    || subscripts.iter().any(|s| match s {
                        SubscriptExpr::Index(e) => any(e),
                        SubscriptExpr::Range { lo, stride, hi } => {
                            [lo, stride, hi].into_iter().flatten().any(&mut any)
                        }
                        SubscriptExpr::All => false,
                    })
            }
            Expr::Not(e) | Expr::Neg(e) => any(e),
            Expr::And(a, b) | Expr::Or(a, b) | Expr::Cmp(_, a, b) | Expr::Arith(_, a, b) => {
                any(a) || any(b)
            }
            Expr::InList {
                needle, haystack, ..
            } => any(needle) || haystack.iter().any(any),
        }
    }
}

impl GroupPattern {
    /// Variables this pattern can bind.
    pub fn bindable_vars(&self, out: &mut Vec<String>) {
        fn add(out: &mut Vec<String>, v: &str) {
            if !out.iter().any(|x| x == v) {
                out.push(v.to_string());
            }
        }
        for e in &self.elems {
            match e {
                PatternElem::Triple(t) => {
                    if let TermPattern::Var(v) = &t.subject {
                        add(out, v);
                    }
                    if let Some(TermPattern::Var(v)) = t.path.as_pred() {
                        add(out, v);
                    }
                    if let TermPattern::Var(v) = &t.object {
                        add(out, v);
                    }
                }
                PatternElem::Optional(g) | PatternElem::Group(g) => g.bindable_vars(out),
                PatternElem::Graph { name, pattern } => {
                    if let TermPattern::Var(v) = name {
                        add(out, v);
                    }
                    pattern.bindable_vars(out);
                }
                PatternElem::SubSelect(q) => {
                    if let Projection::Items(items) = &q.projection {
                        for i in items {
                            add(out, &i.name());
                        }
                    } else {
                        q.pattern.bindable_vars(out);
                    }
                }
                PatternElem::Minus(_) => {}
                PatternElem::Union(gs) => {
                    for g in gs {
                        g.bindable_vars(out);
                    }
                }
                PatternElem::Filter(_) => {}
                PatternElem::Bind { var, .. } => add(out, var),
                PatternElem::Values { vars, .. } => {
                    for v in vars {
                        add(out, v);
                    }
                }
            }
        }
    }
}
