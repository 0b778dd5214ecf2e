//! N-Triples serialization (one fully-qualified triple per line).
//!
//! N-Triples has no collection or array syntax, so array values are
//! expanded back into `rdf:first`/`rdf:rest` linked lists on output —
//! the inverse of the import-time consolidation (thesis §5.3.2). This
//! keeps SSDM exports consumable by any standard RDF tool, and the
//! expand → parse → consolidate round trip is exercised in tests.

use ssdm_array::NumArray;

use crate::graph::{GraphMut, GraphView};
use crate::namespaces::{RDF_FIRST, RDF_NIL, RDF_REST};
use crate::term::{escape_str, RdfError, Term};

/// Serialize a graph as N-Triples text. Arrays expand to linked lists
/// with generated blank nodes.
pub fn serialize<'a>(graph: impl Into<GraphView<'a>>) -> String {
    let graph = graph.into();
    let mut out = String::new();
    let mut gen = 0usize;
    for t in graph.iter() {
        let s = term_text(graph.term(t.s));
        let p = term_text(graph.term(t.p));
        match graph.term(t.o) {
            Term::Array(a) => {
                let head = expand_array(a, &mut out, &mut gen);
                out.push_str(&format!("{s} {p} {head} .\n"));
            }
            o => {
                out.push_str(&format!("{s} {p} {} .\n", term_text(o)));
            }
        }
    }
    out
}

/// Emit the linked-list triples for (a slice of) an array; returns the
/// head node's text.
fn expand_array(a: &NumArray, out: &mut String, gen: &mut usize) -> String {
    let size = if a.ndims() == 0 { 1 } else { a.shape()[0] };
    if size == 0 {
        return format!("<{RDF_NIL}>");
    }
    let cells: Vec<String> = (0..size)
        .map(|_| {
            let c = format!("_:arr{}", *gen);
            *gen += 1;
            c
        })
        .collect();
    for i in 0..size {
        let value = if a.ndims() <= 1 {
            let v = a.get(&[i]).expect("in-bounds by construction");
            Term::Number(v).to_string()
        } else {
            let slice = a.subscript(0, i).expect("in-bounds by construction");
            expand_array(&slice, out, gen)
        };
        out.push_str(&format!("{} <{RDF_FIRST}> {value} .\n", cells[i]));
        let next = cells
            .get(i + 1)
            .cloned()
            .unwrap_or_else(|| format!("<{RDF_NIL}>"));
        out.push_str(&format!("{} <{RDF_REST}> {next} .\n", cells[i]));
    }
    cells[0].clone()
}

/// Render one term in N-Triples syntax (always fully qualified).
pub fn term_text(term: &Term) -> String {
    match term {
        Term::Uri(u) => format!("<{u}>"),
        Term::Blank(b) => format!("_:{b}"),
        Term::Str(s) => format!("\"{}\"", escape_str(s)),
        Term::LangStr { value, lang } => format!("\"{}\"@{lang}", escape_str(value)),
        Term::Number(n) => match n {
            ssdm_array::Num::Int(i) => {
                format!("\"{i}\"^^<http://www.w3.org/2001/XMLSchema#integer>")
            }
            ssdm_array::Num::Real(r) => {
                format!("\"{r}\"^^<http://www.w3.org/2001/XMLSchema#double>")
            }
        },
        Term::Bool(b) => format!("\"{b}\"^^<http://www.w3.org/2001/XMLSchema#boolean>"),
        Term::Typed { value, datatype } => {
            format!("\"{}\"^^<{datatype}>", escape_str(value))
        }
        Term::Array(_) => unreachable!("arrays expand before rendering"),
        // External arrays export as an SSDM-scoped URI; the chunk data
        // itself lives in the back-end, not in the RDF serialization.
        Term::ArrayRef(id) => format!("<urn:ssdm:array:{id}>"),
    }
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
        assert_eq!(
            term_text(&Term::integer(5)),
            "\"5\"^^<http://www.w3.org/2001/XMLSchema#integer>"
        );
    }
}
