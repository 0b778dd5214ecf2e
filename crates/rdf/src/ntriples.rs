//! N-Triples serialization (one fully-qualified triple per line).
//!
//! N-Triples has no collection or array syntax, so array values are
//! expanded back into `rdf:first`/`rdf:rest` linked lists on output —
//! the inverse of the import-time consolidation (thesis §5.3.2). This
//! keeps SSDM exports consumable by any standard RDF tool, and the
//! expand → parse → consolidate round trip is exercised in tests.

use std::fmt::Write;

use ssdm_array::{write_lexical, write_num, Num, NumArray};

use crate::graph::{GraphMut, GraphView};
use crate::lex::write_term;
use crate::namespaces::{RDF_FIRST, RDF_NIL, RDF_REST, XSD_DOUBLE, XSD_INTEGER};
use crate::term::{RdfError, Term};

/// Serialize a graph as N-Triples text. Arrays expand to linked lists
/// with generated blank nodes.
pub fn serialize<'a>(graph: impl Into<GraphView<'a>>) -> String {
    let graph = graph.into();
    let mut out = String::new();
    let mut gen = 0usize;
    for t in graph.iter() {
        let head = match graph.term(t.o) {
            Term::Array(a) => Some(expand_array(a, &mut out, &mut gen)),
            _ => None,
        };
        write_nt(&mut out, graph.term(t.s));
        out.push(' ');
        write_nt(&mut out, graph.term(t.p));
        out.push(' ');
        match head {
            Some(head) => out.push_str(&head),
            None => write_nt(&mut out, graph.term(t.o)),
        }
        out.push_str(" .\n");
    }
    out
}

/// Emit the linked-list triples for (a slice of) an array; returns the
/// head node's text. An element is written as a term: bare when finite.
fn expand_array(a: &NumArray, out: &mut String, gen: &mut usize) -> String {
    let size = if a.ndims() == 0 { 1 } else { a.shape()[0] };
    if size == 0 {
        return format!("<{RDF_NIL}>");
    }
    let first = *gen;
    *gen += size;
    for (i, cell) in (first..first + size).enumerate() {
        let value = if a.ndims() <= 1 {
            let mut text = String::new();
            let _ = write_num(&mut text, a.get(&[i]).expect("in-bounds by construction"));
            text
        } else {
            let slice = a.subscript(0, i).expect("in-bounds by construction");
            expand_array(&slice, out, gen)
        };
        let rest = match i + 1 < size {
            true => format!("_:arr{}", cell + 1),
            false => format!("<{RDF_NIL}>"),
        };
        let _ = writeln!(out, "_:arr{cell} <{RDF_FIRST}> {value} .");
        let _ = writeln!(out, "_:arr{cell} <{RDF_REST}> {rest} .");
    }
    format!("_:arr{first}")
}

/// Write one term in N-Triples syntax: as [`write_term`] writes it, but
/// a number or a boolean as a typed literal (`"2.0"^^<…#double>`), and
/// an external array as the IRI `<urn:ssdm:array:ID>` (its chunks live
/// in the back-end, not in the RDF serialization).
fn write_nt(out: &mut String, term: &Term) {
    let _ = match term {
        Term::Number(n) => {
            out.push('"');
            let _ = write_lexical(out, *n);
            let dt = if let Num::Int(_) = n {
                XSD_INTEGER
            } else {
                XSD_DOUBLE
            };
            write!(out, "\"^^<{dt}>")
        }
        Term::Bool(b) => write!(out, "\"{b}\"^^<http://www.w3.org/2001/XMLSchema#boolean>"),
        Term::ArrayRef(id) => write!(out, "<urn:ssdm:array:{id}>"),
        t => write_term(out, t),
    };
}

/// Parse N-Triples text (a syntactic subset of Turtle).
pub fn parse_into<'a>(graph: impl Into<GraphMut<'a>>, text: &str) -> Result<usize, RdfError> {
    crate::turtle::parse_into(graph, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turtle;
    use crate::Graph;

    #[test]
    fn scalar_triples_round_trip() {
        let mut g = Graph::new();
        turtle::parse_into(&mut g, r#"<http://s> <http://p> 42 , "x" , true , 2.5 ."#).unwrap();
        let text = serialize(&g);
        let mut g2 = Graph::new();
        parse_into(&mut g2, &text).unwrap();
        assert_eq!(g2.len(), g.len());
    }

    #[test]
    fn array_expands_and_reconsolidates() {
        let mut g = Graph::new();
        turtle::parse_into(&mut g, "<http://s> <http://p> ((1 2) (3 4)) .").unwrap();
        assert_eq!(g.len(), 1);
        let text = serialize(&g);
        // The expansion is 13 lines of standard N-Triples.
        assert_eq!(text.lines().count(), 13);
        // Re-importing yields the expanded lists; the consolidation pass
        // restores the single array triple.
        let mut g2 = Graph::new();
        parse_into(&mut g2, &text).unwrap();
        assert_eq!(g2.len(), 13);
        crate::collections::consolidate_collections(&mut g2);
        assert_eq!(g2.len(), 1);
        let t = g2.iter().next().unwrap();
        let arr = g2.term(t.o).as_array().unwrap();
        assert_eq!(arr.shape(), vec![2, 2]);
        assert_eq!(arr.get(&[1, 1]).unwrap().as_i64(), 4);
    }

    #[test]
    fn typed_numeric_output() {
        let mut g = Graph::new();
        let (s, p) = (Term::uri("http://s"), Term::uri("http://p"));
        for o in [Term::integer(5), Term::double(2.0), Term::double(f64::NAN)] {
            g.insert(s.clone(), p.clone(), o);
        }
        let text = serialize(&g);
        for lexical in [
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>",
            "\"2.0\"^^<http://www.w3.org/2001/XMLSchema#double>",
            "\"NaN\"^^<http://www.w3.org/2001/XMLSchema#double>",
        ] {
            assert!(text.contains(lexical), "{text}");
        }
    }
}
