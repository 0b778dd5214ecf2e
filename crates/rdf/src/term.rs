//! RDF terms extended with array values.
//!
//! A term is a URI, a blank node, or a literal; SciSPARQL adds numeric
//! multidimensional arrays as a literal kind ("RDF with Arrays",
//! thesis §1, research question 1). Scalar numeric literals reuse the
//! array crate's [`Num`] so query arithmetic is uniform across scalars
//! and array elements.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};

use ssdm_array::{Num, NumArray};

/// Errors raised by RDF parsing and term handling.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RdfError {
    /// Syntax error with line/column context.
    Parse {
        line: usize,
        col: usize,
        msg: String,
    },
    /// An undeclared prefix was used.
    UnknownPrefix(String),
    /// Malformed literal (bad number, bad escape, ...).
    BadLiteral(String),
}

impl fmt::Display for RdfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RdfError::Parse { line, col, msg } => {
                write!(f, "parse error at {line}:{col}: {msg}")
            }
            RdfError::UnknownPrefix(p) => write!(f, "unknown prefix '{p}:'"),
            RdfError::BadLiteral(s) => write!(f, "bad literal: {s}"),
        }
    }
}

impl std::error::Error for RdfError {}

/// An RDF term: node or edge label of an RDF-with-Arrays graph.
#[derive(Debug, Clone)]
pub enum Term {
    /// A URI reference (IRI).
    Uri(String),
    /// A blank node with a graph-scoped label.
    Blank(String),
    /// A plain or `xsd:string` literal.
    Str(String),
    /// A language-tagged string literal.
    LangStr { value: String, lang: String },
    /// A numeric literal (`xsd:integer` or `xsd:double`).
    Number(Num),
    /// An `xsd:boolean` literal.
    Bool(bool),
    /// Any other typed literal, kept as lexical form + datatype URI.
    Typed { value: String, datatype: String },
    /// A numeric multidimensional array value (the RDF-with-Arrays
    /// extension). Shared; cloning is O(1).
    Array(NumArray),
    /// A reference to an array stored externally behind the ASEI
    /// (thesis ch. 6): the value is an *array proxy* resolved lazily by
    /// the query processor. The id is the back-end catalog key.
    ArrayRef(u64),
}

impl Term {
    pub fn uri(s: impl Into<String>) -> Term {
        Term::Uri(s.into())
    }

    pub fn blank(s: impl Into<String>) -> Term {
        Term::Blank(s.into())
    }

    pub fn str(s: impl Into<String>) -> Term {
        Term::Str(s.into())
    }

    pub fn integer(i: i64) -> Term {
        Term::Number(Num::Int(i))
    }

    pub fn double(r: f64) -> Term {
        Term::Number(Num::Real(r))
    }

    pub fn is_literal(&self) -> bool {
        !matches!(self, Term::Uri(_) | Term::Blank(_))
    }

    pub fn as_uri(&self) -> Option<&str> {
        match self {
            Term::Uri(u) => Some(u),
            _ => None,
        }
    }

    pub fn as_num(&self) -> Option<Num> {
        match self {
            Term::Number(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_array(&self) -> Option<&NumArray> {
        match self {
            Term::Array(a) => Some(a),
            _ => None,
        }
    }

    /// SPARQL Effective Boolean Value where defined.
    pub fn effective_bool(&self) -> Option<bool> {
        match self {
            Term::Bool(b) => Some(*b),
            Term::Number(n) => Some(n.effective_bool()),
            Term::Str(s) => Some(!s.is_empty()),
            Term::LangStr { value, .. } => Some(!value.is_empty()),
            Term::Uri(_) | Term::Typed { .. } => Some(true),
            Term::Blank(_) => Some(true),
            Term::Array(_) | Term::ArrayRef(_) => Some(true),
        }
    }

    /// Value-level equality for joins and `=` filters: numerics compare
    /// across int/real, arrays compare element-wise, other kinds compare
    /// structurally.
    pub fn value_eq(&self, other: &Term) -> bool {
        match (self, other) {
            (Term::Number(a), Term::Number(b)) => a == b,
            (Term::Array(a), Term::Array(b)) => a.array_eq(b),
            _ => self.same_node(other),
        }
    }

    /// Structural identity, used for dictionary interning. Numbers with
    /// different types (2 vs 2.0) are *distinct* nodes even though they
    /// compare value-equal in filters.
    pub fn same_node(&self, other: &Term) -> bool {
        match (self, other) {
            (Term::Uri(a), Term::Uri(b)) => a == b,
            (Term::Blank(a), Term::Blank(b)) => a == b,
            (Term::Str(a), Term::Str(b)) => a == b,
            (Term::LangStr { value: a, lang: la }, Term::LangStr { value: b, lang: lb }) => {
                a == b && la == lb
            }
            (Term::Number(Num::Int(a)), Term::Number(Num::Int(b))) => a == b,
            (Term::Number(Num::Real(a)), Term::Number(Num::Real(b))) => a.to_bits() == b.to_bits(),
            (Term::Bool(a), Term::Bool(b)) => a == b,
            (
                Term::Typed {
                    value: a,
                    datatype: da,
                },
                Term::Typed {
                    value: b,
                    datatype: db,
                },
            ) => a == b && da == db,
            // Arrays are interned by identity (shared buffer + same view),
            // never merged structurally.
            (Term::Array(a), Term::Array(b)) => {
                std::sync::Arc::ptr_eq(a.data(), b.data()) && a.view() == b.view()
            }
            (Term::ArrayRef(a), Term::ArrayRef(b)) => a == b,
            _ => false,
        }
    }

    /// SPARQL ORDER BY comparison: unbound < blank < URI < literal;
    /// numerics by value, strings lexically.
    pub fn order_cmp(&self, other: &Term) -> Ordering {
        fn rank(t: &Term) -> u8 {
            match t {
                Term::Blank(_) => 0,
                Term::Uri(_) => 1,
                Term::Number(_) => 2,
                Term::Str(_) | Term::LangStr { .. } => 3,
                Term::Bool(_) => 4,
                Term::Typed { .. } => 5,
                Term::Array(_) | Term::ArrayRef(_) => 6,
            }
        }
        match (self, other) {
            (Term::Number(a), Term::Number(b)) => a.partial_cmp(b).unwrap_or(Ordering::Equal),
            (Term::Str(a), Term::Str(b)) => a.cmp(b),
            (Term::Uri(a), Term::Uri(b)) => a.cmp(b),
            (Term::Blank(a), Term::Blank(b)) => a.cmp(b),
            (Term::Bool(a), Term::Bool(b)) => a.cmp(b),
            (Term::LangStr { value: a, .. }, Term::LangStr { value: b, .. }) => a.cmp(b),
            (Term::Typed { value: a, .. }, Term::Typed { value: b, .. }) => a.cmp(b),
            (Term::ArrayRef(a), Term::ArrayRef(b)) => a.cmp(b),
            (Term::Array(a), Term::Array(b)) => {
                // Order arrays by shape then elements, to make ORDER BY total.
                a.shape().cmp(&b.shape()).then_with(|| {
                    for (x, y) in a.elements().iter().zip(b.elements()) {
                        match x.partial_cmp(&y) {
                            Some(Ordering::Equal) | None => continue,
                            Some(o) => return o,
                        }
                    }
                    Ordering::Equal
                })
            }
            _ => rank(self).cmp(&rank(other)),
        }
    }
}

impl PartialEq for Term {
    fn eq(&self, other: &Self) -> bool {
        self.same_node(other)
    }
}

impl Eq for Term {}

impl Hash for Term {
    fn hash<H: Hasher>(&self, state: &mut H) {
        match self {
            Term::Uri(u) => {
                0u8.hash(state);
                u.hash(state);
            }
            Term::Blank(b) => {
                1u8.hash(state);
                b.hash(state);
            }
            Term::Str(s) => {
                2u8.hash(state);
                s.hash(state);
            }
            Term::LangStr { value, lang } => {
                3u8.hash(state);
                value.hash(state);
                lang.hash(state);
            }
            Term::Number(Num::Int(i)) => {
                4u8.hash(state);
                i.hash(state);
            }
            Term::Number(Num::Real(r)) => {
                5u8.hash(state);
                r.to_bits().hash(state);
            }
            Term::Bool(b) => {
                6u8.hash(state);
                b.hash(state);
            }
            Term::Typed { value, datatype } => {
                7u8.hash(state);
                value.hash(state);
                datatype.hash(state);
            }
            Term::Array(a) => {
                // Arrays intern by identity; hash the buffer pointer.
                8u8.hash(state);
                (std::sync::Arc::as_ptr(a.data()) as usize).hash(state);
                a.view().offset().hash(state);
            }
            Term::ArrayRef(id) => {
                9u8.hash(state);
                id.hash(state);
            }
        }
    }
}

impl fmt::Display for Term {
    /// The term in the syntax both parsers read back
    /// ([`crate::lex::write_term`]).
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        crate::lex::write_term(f, self)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_eq_across_numeric_types() {
        assert!(Term::integer(2).value_eq(&Term::double(2.0)));
        assert!(!Term::integer(2).same_node(&Term::double(2.0)));
    }

    #[test]
    fn array_terms_compare_by_value_in_filters() {
        let a = Term::Array(NumArray::from_i64(vec![1, 2]));
        let b = Term::Array(NumArray::from_f64(vec![1.0, 2.0]));
        assert!(a.value_eq(&b));
        assert!(!a.same_node(&b));
    }

    #[test]
    fn effective_bool() {
        assert_eq!(Term::str("").effective_bool(), Some(false));
        assert_eq!(Term::str("x").effective_bool(), Some(true));
        assert_eq!(Term::integer(0).effective_bool(), Some(false));
        assert_eq!(Term::Bool(true).effective_bool(), Some(true));
    }

    #[test]
    fn display_forms() {
        assert_eq!(Term::uri("http://x/y").to_string(), "<http://x/y>");
        assert_eq!(Term::blank("b0").to_string(), "_:b0");
        assert_eq!(Term::str("a\"b").to_string(), "\"a\\\"b\"");
        assert_eq!(Term::integer(5).to_string(), "5");
        assert_eq!(Term::double(5.0).to_string(), "5.0");
        assert_eq!(
            Term::LangStr {
                value: "chat".into(),
                lang: "fr".into()
            }
            .to_string(),
            "\"chat\"@fr"
        );
    }

    #[test]
    fn order_cmp_numeric() {
        assert_eq!(
            Term::integer(1).order_cmp(&Term::double(1.5)),
            Ordering::Less
        );
        assert_eq!(Term::blank("a").order_cmp(&Term::uri("u")), Ordering::Less);
        assert_eq!(Term::uri("u").order_cmp(&Term::integer(0)), Ordering::Less);
    }

    #[test]
    fn nan_real_is_stable_node() {
        let a = Term::double(f64::NAN);
        let b = Term::double(f64::NAN);
        assert!(a.same_node(&b), "same NaN bit pattern interns to one node");
    }
}
