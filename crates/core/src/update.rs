//! SPARQL Update subset: `INSERT DATA` / `DELETE DATA` with ground
//! triples (SciSPARQL updates, thesis §3.9 / SPARUL §2.2.2).
//!
//! Inserted array values above the dataset's externalization threshold
//! move to the ASEI back-end immediately, so large numeric payloads
//! never bloat the in-memory graph.

use ssdm_rdf::Term;

use crate::ast::GroundTriple;
use crate::dataset::{Dataset, QueryError, QueryResult};

/// Execute `INSERT DATA`.
pub fn insert_data(
    ds: &mut Dataset,
    triples: Vec<GroundTriple>,
) -> Result<QueryResult, QueryError> {
    let mut inserted = 0;
    for t in triples {
        let object = ds.externalize(t.object)?;
        if ds.graph.insert(t.subject, t.predicate, object) {
            inserted += 1;
        }
    }
    Ok(QueryResult::Updated {
        inserted,
        deleted: 0,
    })
}

/// Execute `DELETE DATA`. Array objects match by content against both
/// resident arrays and external references.
pub fn delete_data(
    ds: &mut Dataset,
    triples: Vec<GroundTriple>,
) -> Result<QueryResult, QueryError> {
    let mut deleted = 0;
    for t in triples {
        let (Some(s), Some(p)) = (
            ds.graph.dictionary().lookup(&t.subject),
            ds.graph.dictionary().lookup(&t.predicate),
        ) else {
            continue;
        };
        match &t.object {
            Term::Array(target) => {
                // Find a matching object among this (s, p)'s values.
                let candidates: Vec<ssdm_rdf::TermId> = ds
                    .graph
                    .match_pattern(Some(s), Some(p), None)
                    .map(|tr| tr.o)
                    .collect();
                for o in candidates {
                    if ds.node_array(o)?.is_some_and(|a| a.array_eq(target)) {
                        if let Term::ArrayRef(id) = ds.graph.term(o).clone() {
                            ds.arrays.delete_array(id)?;
                        }
                        ds.graph.remove_ids(s, p, o);
                        deleted += 1;
                        break;
                    }
                }
            }
            other => {
                if let Some(o) = ds.graph.dictionary().lookup(other) {
                    if ds.graph.remove_ids(s, p, o) {
                        deleted += 1;
                    }
                }
            }
        }
    }
    Ok(QueryResult::Updated {
        inserted: 0,
        deleted,
    })
}

/// Execute a templated update: evaluate the WHERE pattern, then for
/// each solution remove the instantiated DELETE triples and add the
/// instantiated INSERT triples. Templates with unbound variables skip
/// that solution (standard SPARQL Update semantics).
pub fn modify(
    ds: &mut Dataset,
    delete: Vec<crate::ast::TriplePattern>,
    insert: Vec<crate::ast::TriplePattern>,
    pattern: &crate::ast::GroupPattern,
) -> Result<QueryResult, QueryError> {
    use crate::eval::{instantiate, solutions, Rows, VarTable};

    let (vars, solutions) = solutions(ds, pattern, VarTable::default(), &[], None)?;
    let instantiate = |row, tp| instantiate(ds, &vars, row, tp);
    // Collect ground triples first: updates must see a stable snapshot
    // of the matched solutions.
    let mut to_delete = Vec::new();
    let mut to_insert = Vec::new();
    for row in solutions.iter().flat_map(Rows::iter) {
        for t in &delete {
            let (Some(s), Some(p), Some(o)) = (
                instantiate(row, &t.subject),
                t.path.as_pred().and_then(|p| instantiate(row, p)),
                instantiate(row, &t.object),
            ) else {
                continue;
            };
            to_delete.push((s, p, o));
        }
        for t in &insert {
            let (Some(s), Some(p), Some(o)) = (
                instantiate(row, &t.subject),
                t.path.as_pred().and_then(|p| instantiate(row, p)),
                instantiate(row, &t.object),
            ) else {
                continue;
            };
            to_insert.push((s, p, o));
        }
    }
    let mut deleted = 0;
    for (s, p, o) in to_delete {
        let (Some(si), Some(pi), Some(oi)) = (
            ds.graph.dictionary().lookup(&s),
            ds.graph.dictionary().lookup(&p),
            ds.graph.dictionary().lookup(&o),
        ) else {
            continue;
        };
        if ds.graph.remove_ids(si, pi, oi) {
            deleted += 1;
        }
    }
    let mut inserted = 0;
    for (s, p, o) in to_insert {
        let o = ds.externalize(o)?;
        if ds.graph.insert(s, p, o) {
            inserted += 1;
        }
    }
    Ok(QueryResult::Updated { inserted, deleted })
}
