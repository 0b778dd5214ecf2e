//! Property-path evaluation (thesis §3.4).
//!
//! Non-trivial paths (sequence, alternative, inverse, closures) are
//! evaluated by set-oriented expansion over the graph: bound endpoints
//! seed the search, `*`/`+` run a breadth-first fixpoint, and the
//! resulting `(subject, object)` pairs join into the binding stream.

use std::collections::hash_map::Entry;
use std::collections::{HashMap, HashSet};

use ssdm_rdf::{GraphView, TermId};

use crate::ast::{Path, TermPattern, TriplePattern};
use crate::dataset::{Dataset, QueryError};
use crate::eval::{extend, At, Flow, Out, Pos, Rows, VarTable};

/// Evaluate a path-scan for each input row.
pub(crate) fn eval_path_scan(
    ds: &mut Dataset,
    vars: &VarTable,
    t: &TriplePattern,
    input: &Rows,
    out: &mut Out,
) -> Flow {
    // An endpoint that doesn't denote a graph node matches nothing.
    let (Some(subject), Some(object)) = (
        Pos::compile(ds, vars, &t.subject)?,
        Pos::compile(ds, vars, &t.object)?,
    ) else {
        return Ok(());
    };
    for row in input.iter() {
        // (free slot, bound id) of an endpoint; a value that is not a
        // node of this graph matches nothing.
        let end = |pos: &Pos| match pos.at(row) {
            At::Free(slot) => Some((Some(slot), None)),
            At::Id(id) => Some((None, Some(id))),
            At::Value(_) => None,
        };
        let (Some((s_free, s_id)), Some((o_free, o_id))) = (end(&subject), end(&object)) else {
            continue;
        };
        for (s, o) in path_pairs(ds.active(), &t.path, s_id, o_id)? {
            let dict = ds.graph.dictionary();
            out.rows
                .push_edited(row, |r| extend(dict, r, &[(s_free, s), (o_free, o)]));
            out.flush_full(ds)?;
        }
    }
    Ok(())
}

/// All `(s, o)` pairs connected by `path`, restricted by optional bound
/// endpoints.
pub fn path_pairs(
    graph: GraphView,
    path: &Path,
    s: Option<TermId>,
    o: Option<TermId>,
) -> Result<Vec<(TermId, TermId)>, QueryError> {
    let mut seen = HashSet::new();
    let pairs = raw_pairs(graph, path, s, o)?.into_iter();
    Ok(pairs.filter(|pair| seen.insert(*pair)).collect())
}

fn raw_pairs(
    graph: GraphView,
    path: &Path,
    s: Option<TermId>,
    o: Option<TermId>,
) -> Result<Vec<(TermId, TermId)>, QueryError> {
    match path {
        Path::Pred(TermPattern::Term(t)) => {
            let Some(p) = graph.dictionary().lookup(t) else {
                return Ok(Vec::new());
            };
            Ok(graph
                .match_pattern(s, Some(p), o)
                .map(|tr| (tr.s, tr.o))
                .collect())
        }
        Path::Pred(TermPattern::Var(_)) => Err(QueryError::Translation(
            "variable predicates are not allowed inside path operators".into(),
        )),
        Path::Inv(inner) => {
            let pairs = raw_pairs(graph, inner, o, s)?;
            Ok(pairs.into_iter().map(|(a, b)| (b, a)).collect())
        }
        Path::Alt(a, b) => {
            let mut out = raw_pairs(graph, a, s, o)?;
            out.extend(raw_pairs(graph, b, s, o)?);
            Ok(out)
        }
        Path::Seq(a, b) => {
            // Evaluate the more-bound side first; each distinct midpoint
            // continues with b once.
            let mut ends: HashMap<TermId, Vec<TermId>> = HashMap::new();
            let mut out = Vec::new();
            for (start, m) in raw_pairs(graph, a, s, None)? {
                let reached = match ends.entry(m) {
                    Entry::Occupied(known) => known.into_mut(),
                    Entry::Vacant(new) => {
                        let second = raw_pairs(graph, b, Some(m), o)?;
                        new.insert(second.into_iter().map(|(_, e)| e).collect())
                    }
                };
                out.extend(reached.iter().map(|&e| (start, e)));
            }
            Ok(out)
        }
        Path::Opt(inner) => {
            let mut out = raw_pairs(graph, inner, s, o)?;
            // Zero-length matches: every candidate node pairs with itself.
            out.extend(identity_nodes(graph, s, o).into_iter().map(|n| (n, n)));
            Ok(out)
        }
        Path::Star(inner) => {
            let mut out: Vec<(TermId, TermId)> = identity_nodes(graph, s, o)
                .into_iter()
                .map(|n| (n, n))
                .collect();
            out.extend(closure_pairs(graph, inner, s, o)?);
            Ok(out)
        }
        Path::Plus(inner) => closure_pairs(graph, inner, s, o),
    }
}

/// Candidate nodes for zero-length path matches.
fn identity_nodes(graph: GraphView, s: Option<TermId>, o: Option<TermId>) -> Vec<TermId> {
    match (s, o) {
        (Some(a), Some(b)) => (a == b).then_some(a).into_iter().collect(),
        (Some(a), None) => vec![a],
        (None, Some(b)) => vec![b],
        (None, None) => {
            // All nodes occurring in the graph, in first-seen order.
            let mut seen = HashSet::new();
            let nodes = graph.iter().flat_map(|t| [t.s, t.o]);
            nodes.filter(|n| seen.insert(*n)).collect()
        }
    }
}

/// Transitive closure (one or more steps) of `inner`.
fn closure_pairs(
    graph: GraphView,
    inner: &Path,
    s: Option<TermId>,
    o: Option<TermId>,
) -> Result<Vec<(TermId, TermId)>, QueryError> {
    // Choose the bound side as the BFS origin; invert if only o is bound.
    if s.is_none() {
        if let Some(oid) = o {
            let inv = Path::Inv(Box::new(inner.clone()));
            let pairs = closure_pairs(graph, &inv, Some(oid), None)?;
            return Ok(pairs.into_iter().map(|(a, b)| (b, a)).collect());
        }
    }
    let starts: Vec<TermId> = match s {
        Some(id) => vec![id],
        None => {
            // All possible start nodes: subjects (and objects, for
            // inverse steps) of the base path, in first-seen order.
            let mut seen = HashSet::new();
            let base = raw_pairs(graph, inner, None, None)?.into_iter();
            base.map(|(a, _)| a).filter(|a| seen.insert(*a)).collect()
        }
    };
    let mut out = Vec::new();
    for start in starts {
        // BFS over one-step expansions. `reached` is both the queue and,
        // in first-reached order, the ends (the zero-step start only if
        // a cycle reaches it); `visited` keeps each node in it once.
        let mut visited: HashSet<TermId> = HashSet::new();
        let mut reached: Vec<TermId> = Vec::new();
        let mut node = start;
        for next_at in 0.. {
            for (_, next) in raw_pairs(graph, inner, Some(node), None)? {
                if visited.insert(next) {
                    reached.push(next);
                }
            }
            match reached.get(next_at) {
                Some(&next) => node = next,
                None => break,
            }
        }
        let ends = reached
            .into_iter()
            .filter(|&r| o.is_none_or(|oid| oid == r));
        out.extend(ends.map(|r| (start, r)));
    }
    Ok(out)
}
