//! Consolidation of RDF collections into array values.
//!
//! When SSDM imports an RDF graph, linked lists built from `rdf:first` /
//! `rdf:rest` whose leaves are all numeric and whose nesting is
//! rectangular are *consolidated*: the list triples are removed and the
//! referring triple's object becomes a single array value (thesis
//! §5.3.2). This turns the 13-triple graph of a 2×2 matrix (Fig. 4)
//! into one triple, shrinking the graph and making the data reachable by
//! array operations.

use std::collections::HashSet;

use ssdm_array::{Nested, NumArray};

use crate::dictionary::TermId;
use crate::graph::{GraphMut, GraphView, Triple};
use crate::namespaces::{RDF_FIRST, RDF_NIL, RDF_REST};
use crate::term::Term;

/// Statistics of one consolidation pass.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ConsolidationReport {
    /// Arrays created.
    pub arrays: usize,
    /// List triples removed.
    pub removed_triples: usize,
}

/// Find every numeric rectangular collection reachable as the object of
/// a non-list triple and replace it with an array value. Returns what
/// was rewritten.
pub fn consolidate_collections<'a>(graph: impl Into<GraphMut<'a>>) -> ConsolidationReport {
    let mut graph = graph.into();
    let Some(first) = graph.dictionary().lookup(&Term::uri(RDF_FIRST)) else {
        return ConsolidationReport::default();
    };
    let Some(rest) = graph.dictionary().lookup(&Term::uri(RDF_REST)) else {
        return ConsolidationReport::default();
    };
    let nil = graph.dictionary().lookup(&Term::uri(RDF_NIL));

    // Candidate heads: objects of triples whose predicate is not
    // rdf:first/rdf:rest but which carry rdf:first themselves.
    let mut referring: Vec<Triple> = Vec::new();
    for t in graph.iter() {
        if t.p == first || t.p == rest {
            continue;
        }
        if graph.match_pattern(Some(t.o), Some(first), None).count() == 1 {
            referring.push(t);
        }
    }

    let mut report = ConsolidationReport::default();
    for t in referring {
        let mut cells: HashSet<TermId> = HashSet::new();
        let Some(nested) = read_list(graph.view(), t.o, first, rest, nil, &mut cells, 0) else {
            continue;
        };
        let Ok(array) = NumArray::from_nested(&nested) else {
            continue;
        };
        // Cells may only be removed if no triple outside the list
        // structure references them (officially, blank list cells are
        // not addressable between queries — §2.3.5.1 — but be safe).
        // Each cell is probed as an object and as a subject, so the
        // check costs the list's size, not the graph's.
        let externally_referenced = cells.iter().any(|&c| {
            graph
                .match_pattern(None, None, Some(c))
                .any(|u| !cells.contains(&u.s) && u != t)
                || graph
                    .match_pattern(Some(c), None, None)
                    .any(|u| u.p != first && u.p != rest)
        });
        if externally_referenced {
            continue;
        }
        // Remove the list triples, in SPO order.
        let mut doomed: Vec<Triple> = cells
            .iter()
            .flat_map(|&c| graph.match_pattern(Some(c), None, None))
            .collect();
        doomed.sort_unstable();
        for d in &doomed {
            graph.remove_ids(d.s, d.p, d.o);
        }
        report.removed_triples += doomed.len();
        // Rewrite the referring triple.
        graph.remove_ids(t.s, t.p, t.o);
        let arr_id = graph.intern(Term::Array(array));
        graph.insert_ids(t.s, t.p, arr_id);
        report.arrays += 1;
    }
    report
}

/// Walk an rdf list, accumulating nested numeric rows. Returns `None`
/// when the structure is not a pure numeric collection. `depth` guards
/// against cyclic lists.
fn read_list(
    graph: GraphView,
    head: TermId,
    first: TermId,
    rest: TermId,
    nil: Option<TermId>,
    cells: &mut HashSet<TermId>,
    depth: usize,
) -> Option<Nested> {
    if depth > 64 {
        return None;
    }
    let mut rows: Vec<Nested> = Vec::new();
    let mut cur = head;
    loop {
        if Some(cur) == nil {
            break;
        }
        if !cells.insert(cur) {
            return None; // cycle
        }
        let mut firsts = graph.match_pattern(Some(cur), Some(first), None);
        let value = firsts.next()?.o;
        if firsts.next().is_some() {
            return None; // malformed: two rdf:first
        }
        match graph.term(value) {
            Term::Number(n) => rows.push(Nested::Leaf(*n)),
            Term::Blank(_) if graph.match_pattern(Some(value), Some(first), None).count() == 1 => {
                rows.push(read_list(graph, value, first, rest, nil, cells, depth + 1)?)
            }
            _ => return None,
        }
        let mut rests = graph.match_pattern(Some(cur), Some(rest), None);
        let next = rests.next()?.o;
        if rests.next().is_some() {
            return None;
        }
        cur = next;
    }
    if rows.is_empty() {
        return None;
    }
    Some(Nested::Row(rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turtle::{self, ParseOptions};
    use crate::Graph;

    fn load_expanded(text: &str) -> Graph {
        let mut g = Graph::new();
        turtle::parse_into_with(
            &mut g,
            text,
            ParseOptions {
                consolidate_arrays: false,
            },
        )
        .unwrap();
        g
    }

    #[test]
    fn consolidates_matrix() {
        let mut g = load_expanded("<http://s> <http://p> ((1 2) (3 4)) .");
        assert_eq!(g.len(), 13);
        let rep = consolidate_collections(&mut g);
        assert_eq!(rep.arrays, 1);
        assert_eq!(rep.removed_triples, 12);
        assert_eq!(g.len(), 1);
        let t = g.iter().next().unwrap();
        let arr = g.term(t.o).as_array().unwrap();
        assert_eq!(arr.shape(), vec![2, 2]);
        assert_eq!(arr.get(&[0, 1]).unwrap().as_i64(), 2);
    }

    #[test]
    fn mixed_list_untouched() {
        let mut g = load_expanded(r#"<http://s> <http://p> (1 "two") ."#);
        let before = g.len();
        let rep = consolidate_collections(&mut g);
        assert_eq!(rep.arrays, 0);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn ragged_list_untouched() {
        let mut g = load_expanded("<http://s> <http://p> ((1) (2 3)) .");
        let before = g.len();
        let rep = consolidate_collections(&mut g);
        assert_eq!(rep.arrays, 0);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn multiple_collections() {
        let mut g = load_expanded(
            "<http://s> <http://p> (1 2 3) .
             <http://s> <http://q> (4.5 5.5) .",
        );
        let rep = consolidate_collections(&mut g);
        assert_eq!(rep.arrays, 2);
        assert_eq!(g.len(), 2);
    }

    #[test]
    fn shared_cell_not_consolidated() {
        // A second triple points into the middle of the list; removal
        // would lose information, so the list must survive.
        let mut g = load_expanded("<http://s> <http://p> (1 2 3) .");
        // Find a middle cell and reference it.
        let first = g.dictionary().lookup(&Term::uri(RDF_FIRST)).unwrap();
        let two = g.dictionary().lookup(&Term::integer(2)).unwrap();
        let cell = g
            .match_pattern(None, Some(first), Some(two))
            .next()
            .unwrap()
            .s;
        let marker = g.intern(Term::uri("http://marks"));
        let who = g.intern(Term::uri("http://someone"));
        g.insert_ids(who, marker, cell);
        let before = g.len();
        let rep = consolidate_collections(&mut g);
        assert_eq!(rep.arrays, 0);
        assert_eq!(g.len(), before);
    }

    #[test]
    fn idempotent() {
        let mut g = load_expanded("<http://s> <http://p> (1 2) .");
        consolidate_collections(&mut g);
        let rep2 = consolidate_collections(&mut g);
        assert_eq!(rep2, ConsolidationReport::default());
    }
}
