//! Term interning.
//!
//! Triples are stored as compact `(TermId, TermId, TermId)` tuples; the
//! dictionary maps ids to full [`Term`] values and back. This mirrors the
//! normalized physical representation of RDF terms in SSDM (thesis §5.1)
//! and keeps join processing on fixed-size integers.

use std::borrow::Cow;
use std::collections::HashMap;

use ssdm_array::Num;

use crate::term::Term;

/// A dense identifier for an interned term.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TermId(pub u32);

impl TermId {
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Bidirectional term ↔ id map. URIs, blank nodes and scalar literals
/// are deduplicated structurally; array values are interned by identity
/// (every stored array gets its own id — arrays are compared by value
/// only inside query filters, never merged at load time).
#[derive(Debug, Default)]
pub struct Dictionary {
    terms: Vec<Term>,
    ids: HashMap<Term, TermId>,
}

impl Dictionary {
    pub fn new() -> Self {
        Dictionary::default()
    }

    /// Intern a term, returning its id (existing or fresh). A double
    /// NaN becomes `f64::NAN`'s bits, whichever NaN it was, so that the
    /// node survives being written as `"NaN"^^xsd:double` and read back.
    pub fn intern(&mut self, term: Term) -> TermId {
        let term = canonical(Cow::Owned(term)).into_owned();
        if let Some(&id) = self.ids.get(&term) {
            return id;
        }
        let id = TermId(self.terms.len() as u32);
        self.terms.push(term.clone());
        self.ids.insert(term, id);
        id
    }

    /// Id of an already-interned term, if any; a double NaN finds the
    /// one NaN [`Dictionary::intern`] stores.
    pub fn lookup(&self, term: &Term) -> Option<TermId> {
        self.ids.get(&*canonical(Cow::Borrowed(term))).copied()
    }

    /// The term behind an id. Panics on a foreign id.
    pub fn term(&self, id: TermId) -> &Term {
        &self.terms[id.index()]
    }

    pub fn get(&self, id: TermId) -> Option<&Term> {
        self.terms.get(id.index())
    }

    pub fn len(&self) -> usize {
        self.terms.len()
    }

    pub fn is_empty(&self) -> bool {
        self.terms.is_empty()
    }

    /// Generate a fresh blank node unused in this dictionary.
    pub fn fresh_blank(&mut self) -> TermId {
        let mut n = self.terms.len();
        loop {
            let t = Term::blank(format!("gen{n}"));
            if self.ids.contains_key(&t) {
                n += 1;
                continue;
            }
            return self.intern(t);
        }
    }
}

/// `term` with a double NaN replaced by `f64::NAN`: the one NaN text
/// reads back as.
fn canonical(term: Cow<'_, Term>) -> Cow<'_, Term> {
    match &*term {
        Term::Number(Num::Real(x)) if x.is_nan() && x.to_bits() != f64::NAN.to_bits() => {
            Cow::Owned(Term::double(f64::NAN))
        }
        _ => term,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_array::NumArray;

    #[test]
    fn interning_dedups() {
        let mut d = Dictionary::new();
        let a = d.intern(Term::uri("http://x"));
        let b = d.intern(Term::uri("http://x"));
        assert_eq!(a, b);
        assert_eq!(d.len(), 1);
        let c = d.intern(Term::uri("http://y"));
        assert_ne!(a, c);
    }

    #[test]
    fn numeric_literals_distinct_by_type() {
        let mut d = Dictionary::new();
        let i = d.intern(Term::integer(2));
        let r = d.intern(Term::double(2.0));
        assert_ne!(i, r, "2 and 2.0 are distinct RDF nodes");
    }

    #[test]
    fn arrays_intern_by_identity() {
        let mut d = Dictionary::new();
        let a1 = d.intern(Term::Array(NumArray::from_i64(vec![1, 2])));
        let a2 = d.intern(Term::Array(NumArray::from_i64(vec![1, 2])));
        assert_ne!(a1, a2, "structurally equal arrays stay separate nodes");
        let arr = NumArray::from_i64(vec![3]);
        let b1 = d.intern(Term::Array(arr.clone()));
        let b2 = d.intern(Term::Array(arr));
        assert_eq!(b1, b2, "the same shared buffer interns once");
    }

    #[test]
    fn every_double_nan_is_one_node() {
        let mut d = Dictionary::new();
        let quiet = d.intern(Term::double(f64::NAN));
        let negative = Term::double(f64::from_bits(0xfff8_0000_0000_0000));
        assert_eq!(d.lookup(&negative), Some(quiet));
        assert_eq!(d.intern(negative), quiet);
        let payload = d.intern(Term::double(f64::from_bits(0x7ff0_0000_0000_0001)));
        assert_eq!(payload, quiet);
        match d.term(quiet) {
            Term::Number(Num::Real(x)) => assert_eq!(x.to_bits(), f64::NAN.to_bits()),
            other => panic!("{other:?}"),
        }
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn lookup_and_resolve() {
        let mut d = Dictionary::new();
        let id = d.intern(Term::str("hello"));
        assert_eq!(d.lookup(&Term::str("hello")), Some(id));
        assert_eq!(d.term(id), &Term::str("hello"));
        assert_eq!(d.lookup(&Term::str("other")), None);
    }

    #[test]
    fn fresh_blank_avoids_collisions() {
        let mut d = Dictionary::new();
        d.intern(Term::blank("gen0"));
        let b = d.fresh_blank();
        assert_ne!(d.term(b), &Term::blank("gen0"));
    }
}
