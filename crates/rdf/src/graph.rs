//! The in-memory triple store.
//!
//! Triples of interned term ids are kept in three sorted indexes (SPO,
//! POS, OSP) so any pattern with bound components resolves to a range
//! scan — the standard native-RDF-store layout (thesis §2.2.3). SPO is
//! a table indexed by the subject's dense id whose row holds that
//! subject's sorted `(p, o)` pairs, so a probe with a bound subject
//! starts at its row instead of descending one tree over every triple.
//! A fourth, derived index orders the triples whose object is a numeric
//! literal by that literal's *value* under each predicate, so a range
//! predicate on the object is a range scan too. The store maintains
//! per-predicate statistics (triple count, distinct subjects/objects)
//! that drive the SciSPARQL cost-based optimizer the way RDF-3X-style
//! histograms do (§2.3.1).
//!
//! The indexes ([`GraphIndex`]) are kept apart from the dictionary their
//! ids come from, so the named graphs of a dataset index the ids of one
//! dictionary (thesis §5.1): a term has one id in every graph.

use std::borrow::{Borrow, BorrowMut};
use std::collections::{btree_set, BTreeSet, HashMap, HashSet};
use std::ops::{Bound, Deref};
use std::slice;

use crate::dictionary::{Dictionary, TermId};
use crate::stats::ObjectStats;
use crate::term::Term;

/// One RDF statement as interned ids.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Triple {
    pub s: TermId,
    pub p: TermId,
    pub o: TermId,
}

/// Statistics for one predicate, used for selectivity estimation.
#[derive(Debug, Clone, Default)]
pub struct PredicateStats {
    pub count: usize,
    pub distinct_subjects: usize,
    pub distinct_objects: usize,
}

/// Whole-graph statistics snapshot.
#[derive(Debug, Clone, Default)]
pub struct GraphStats {
    pub triples: usize,
    pub predicates: usize,
}

/// The indexes and statistics of one graph's triples, over the ids of
/// a dictionary kept beside them (see [`Graph`]).
#[derive(Debug, Default)]
pub struct GraphIndex {
    /// Row `s.index()` holds subject `s`'s `(p, o)` pairs; the table
    /// ends at the largest subject id ever inserted.
    spo: Vec<Row>,
    /// Triples in the graph (the rows' total).
    len: usize,
    pos: BTreeSet<(TermId, TermId, TermId)>,
    osp: BTreeSet<(TermId, TermId, TermId)>,
    /// `(p, value_key(o), o, s)` for every triple whose object is a
    /// non-NaN numeric literal. Derived from the triples alone: rebuilt
    /// by `extend` on load, never persisted.
    num: BTreeSet<NumEntry>,
    pred_subjects: HashMap<TermId, HashSet<TermId>>,
    pred_objects: HashMap<TermId, HashSet<TermId>>,
    pred_counts: HashMap<TermId, usize>,
    /// Histogram + distinct sketch over numeric object values, per
    /// predicate — maintained incrementally on insert/delete and
    /// consulted by the optimizer's range/equality selectivities.
    pred_obj_stats: HashMap<TermId, ObjectStats>,
    /// Runs `extend` merged by a bulk build rather than entry by entry.
    bulk_merges: usize,
}

/// A graph: the indexes `I` of its triples over the term ids of the
/// dictionary `D`. `Graph` owns both — a standalone graph, or a
/// dataset's default graph, whose dictionary every named graph of the
/// dataset shares. [`GraphView`] and [`GraphMut`] borrow them: one
/// graph's indexes over a dictionary that is not its own. Every method
/// exists once, for all three.
#[derive(Debug, Default, Clone, Copy)]
pub struct Graph<D = Dictionary, I = GraphIndex> {
    dict: D,
    index: I,
}

/// A graph read through borrowed parts.
pub type GraphView<'a> = Graph<&'a Dictionary, &'a GraphIndex>;

/// A graph written through borrowed parts.
pub type GraphMut<'a> = Graph<&'a mut Dictionary, &'a mut GraphIndex>;

impl Graph {
    pub fn new() -> Self {
        Graph::default()
    }
}

impl<D, I> Graph<D, I> {
    /// The graph whose triples `index` holds as ids of `dict`.
    pub fn from_parts(dict: D, index: I) -> Self {
        Graph { dict, index }
    }
}

impl<D: Borrow<Dictionary>, I: Borrow<GraphIndex>> Graph<D, I> {
    pub fn dictionary(&self) -> &Dictionary {
        self.dict.borrow()
    }

    /// Resolve an id to its term.
    pub fn term(&self, id: TermId) -> &Term {
        self.dictionary().term(id)
    }

    pub fn view(&self) -> GraphView<'_> {
        Graph::from_parts(self.dict.borrow(), self.index.borrow())
    }

    /// The matches of [`GraphIndex::match_object_range`] that come
    /// after `last`, one of them, in the same order.
    pub fn match_object_range_after(
        &self,
        p: TermId,
        lo: Option<f64>,
        hi: Option<f64>,
        last: Option<Triple>,
    ) -> Matches<'_> {
        let Some(t) = last else {
            return self.match_object_range(p, lo, hi);
        };
        match numeric_value(self.dictionary(), t.o).and_then(value_key) {
            Some(k) => self.object_range(p, lo, hi, Some((k, t.o, t.s))),
            None => Matches(Cursor::One(None)),
        }
    }

    /// Estimated number of matches for a pattern, without scanning.
    /// Drives join-order selection in the optimizer.
    pub fn estimate_pattern(&self, s: Option<TermId>, p: Option<TermId>, o: Option<TermId>) -> f64 {
        let total = self.len() as f64;
        if total == 0.0 {
            return 0.0;
        }
        let terms = self.dictionary().len().max(1) as f64;
        match (s, p, o) {
            (Some(_), Some(_), Some(_)) => 1.0,
            (_, Some(p), _) => {
                let st = self.predicate_stats(p);
                let mut est = st.count as f64;
                if s.is_some() {
                    est /= (st.distinct_subjects.max(1)) as f64;
                }
                if o.is_some() {
                    est /= (st.distinct_objects.max(1)) as f64;
                }
                est.max(if st.count == 0 { 0.0 } else { 1.0 })
            }
            (Some(_), None, Some(_)) => (total / terms).max(1.0),
            (Some(_), None, None) | (None, None, Some(_)) => (total / terms).max(1.0) * 3.0,
            (None, None, None) => total,
        }
    }
}

impl<D: BorrowMut<Dictionary>, I: BorrowMut<GraphIndex>> Graph<D, I> {
    pub fn dictionary_mut(&mut self) -> &mut Dictionary {
        self.dict.borrow_mut()
    }

    pub fn view_mut(&mut self) -> GraphMut<'_> {
        Graph::from_parts(self.dict.borrow_mut(), self.index.borrow_mut())
    }

    /// Intern a term into the graph's dictionary.
    pub fn intern(&mut self, t: Term) -> TermId {
        self.dictionary_mut().intern(t)
    }

    /// Insert a triple of already-interned ids. Returns false if present.
    pub fn insert_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        self.extend_ids(&[Triple { s, p, o }]) == 1
    }

    /// Insert a batch of triples of already-interned ids, the indexes
    /// updated once for the batch (see `GraphIndex::extend`). Returns
    /// how many were new.
    pub fn extend_ids(&mut self, triples: &[Triple]) -> usize {
        let dict = self.dict.borrow();
        let numeric = |o| numeric_value(dict, o);
        self.index.borrow_mut().extend(triples, numeric)
    }

    /// Intern terms and insert the triple.
    pub fn insert(&mut self, s: Term, p: Term, o: Term) -> bool {
        let s = self.intern(s);
        let p = self.intern(p);
        let o = self.intern(o);
        self.insert_ids(s, p, o)
    }

    /// Remove a triple. Returns true if it was present.
    pub fn remove_ids(&mut self, s: TermId, p: TermId, o: TermId) -> bool {
        let numeric = numeric_value(self.dictionary(), o);
        self.index.borrow_mut().remove(s, p, o, numeric)
    }
}

/// The index reads need no dictionary.
impl<D, I: Borrow<GraphIndex>> Deref for Graph<D, I> {
    type Target = GraphIndex;

    fn deref(&self) -> &GraphIndex {
        self.index.borrow()
    }
}

impl<'a> From<&'a Graph> for GraphView<'a> {
    fn from(graph: &'a Graph) -> Self {
        graph.view()
    }
}

impl<'a> From<&'a mut Graph> for GraphMut<'a> {
    fn from(graph: &'a mut Graph) -> Self {
        graph.view_mut()
    }
}

impl GraphIndex {
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert a batch of triples, `numeric` giving an object's value
    /// if it is a number. Returns how many were new.
    ///
    /// Rows and statistics follow each triple as it comes, so a triple
    /// repeated within the batch counts once. The POS, OSP and value
    /// entries of the new triples gather in one [`Run`] per index,
    /// sorted once and merged into it by a bulk build, unless the batch
    /// is small next to the index ([`MERGE_RATIO`]): then they go in
    /// one by one, with no run allocated.
    fn extend(&mut self, triples: &[Triple], numeric: impl Fn(TermId) -> Option<f64>) -> usize {
        let mut pos = Run::new(&mut self.pos, triples.len());
        let mut osp = Run::new(&mut self.osp, triples.len());
        let mut num = Run::new(&mut self.num, triples.len());
        let mut added = 0;
        for &Triple { s, p, o } in triples {
            if s.index() >= self.spo.len() {
                self.spo.resize_with(s.index() + 1, Row::new);
            }
            if !self.spo[s.index()].insert((p, o)) {
                continue;
            }
            added += 1;
            pos.push((p, o, s));
            osp.push((o, s, p));
            *self.pred_counts.entry(p).or_default() += 1;
            self.pred_subjects.entry(p).or_default().insert(s);
            self.pred_objects.entry(p).or_default().insert(o);
            if let Some(v) = numeric(o) {
                let st = self.pred_obj_stats.entry(p).or_default();
                st.histogram.insert(v);
                st.sketch.insert_f64(v);
                if let Some(key) = value_key(v) {
                    num.push((p, key, o, s));
                }
            }
        }
        self.len += added;
        self.bulk_merges +=
            usize::from(pos.finish()) + usize::from(osp.finish()) + usize::from(num.finish());
        added
    }

    /// Remove a triple whose object has the value `numeric` if it is a
    /// number. Returns true if it was present.
    fn remove(&mut self, s: TermId, p: TermId, o: TermId, numeric: Option<f64>) -> bool {
        let Some(row) = self.spo.get_mut(s.index()) else {
            return false;
        };
        if !row.remove(&(p, o)) {
            return false;
        }
        self.len -= 1;
        // Distinct-value stats are maintained lazily: recompute on demand.
        if row.range(pairs_of(p)).next().is_none() {
            if let Some(set) = self.pred_subjects.get_mut(&p) {
                set.remove(&s);
            }
        }
        self.pos.remove(&(p, o, s));
        self.osp.remove(&(o, s, p));
        if let Some(c) = self.pred_counts.get_mut(&p) {
            *c -= 1;
        }
        if let Some(v) = numeric {
            if let Some(st) = self.pred_obj_stats.get_mut(&p) {
                st.histogram.remove(v);
                st.sketch.note_delete();
            }
            if let Some(key) = value_key(v) {
                self.num.remove(&(p, key, o, s));
            }
        }
        if !self
            .pos
            .range((
                Bound::Included((p, o, TermId(0))),
                Bound::Included((p, o, TermId(u32::MAX))),
            ))
            .any(|_| true)
        {
            if let Some(set) = self.pred_objects.get_mut(&p) {
                set.remove(&o);
            }
        }
        true
    }

    /// How many of `extend`'s runs were merged by a bulk build; the
    /// rest went in entry by entry. Tests read it to tell the two apart.
    pub fn bulk_merges(&self) -> usize {
        self.bulk_merges
    }

    pub fn contains_ids(&self, s: TermId, p: TermId, o: TermId) -> bool {
        self.row(s).is_some_and(|row| row.contains(&(p, o)))
    }

    /// Subject `s`'s row, if the table reaches it.
    fn row(&self, s: TermId) -> Option<&Row> {
        self.spo.get(s.index())
    }

    /// All triples matching a pattern with optional bound components.
    /// Chooses the index whose prefix covers the bound positions.
    pub fn match_pattern(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
    ) -> Matches<'_> {
        self.match_pattern_after(s, p, o, None)
    }

    /// The matches of [`match_pattern`](Self::match_pattern) that come
    /// after `last`, one of them, in the same order: a scan that paused
    /// at `last` resumes here without walking what it already read.
    pub fn match_pattern_after(
        &self,
        s: Option<TermId>,
        p: Option<TermId>,
        o: Option<TermId>,
        last: Option<Triple>,
    ) -> Matches<'_> {
        const MIN: TermId = TermId(0);
        const MAX: TermId = TermId(u32::MAX);
        // An index range starts at its first key, or just past `last`'s.
        let from = |first, key: fn(Triple) -> (TermId, TermId, TermId)| {
            last.map_or(Bound::Included(first), |t| Bound::Excluded(key(t)))
        };
        let pos = |first, end| Cursor::Pos(self.pos.range((from(first, |t| (t.p, t.o, t.s)), end)));
        let osp = |first, end| Cursor::Osp(self.osp.range((from(first, |t| (t.o, t.s, t.p)), end)));
        let pairs_from =
            |first| last.map_or(Bound::Included(first), |t| Bound::Excluded((t.p, t.o)));
        let subject = |s: TermId, pairs: PairRange| match self.row(s) {
            Some(row) => Cursor::Spo(Rows {
                s,
                row: row.range(pairs),
                rest: slice::Iter::default(),
            }),
            None => Cursor::One(None),
        };
        Matches(match (s, p, o) {
            (Some(s), Some(p), Some(o)) => {
                let hit = last.is_none() && self.contains_ids(s, p, o);
                Cursor::One(hit.then_some(Triple { s, p, o }))
            }
            (Some(s), Some(p), None) => {
                subject(s, (pairs_from((p, MIN)), Bound::Included((p, MAX))))
            }
            (Some(s), None, None) => subject(s, (pairs_from((MIN, MIN)), Bound::Unbounded)),
            (None, Some(p), Some(o)) => pos((p, o, MIN), Bound::Included((p, o, MAX))),
            (None, Some(p), None) => pos((p, MIN, MIN), Bound::Included((p, MAX, MAX))),
            (None, None, Some(o)) => osp((o, MIN, MIN), Bound::Included((o, MAX, MAX))),
            (Some(s), None, Some(o)) => osp((o, s, MIN), Bound::Included((o, s, MAX))),
            (None, None, None) => {
                let s = last.map_or(MIN, |t| t.s);
                match self.spo.get(s.index()..) {
                    Some([first, rest @ ..]) => Cursor::Spo(Rows {
                        s,
                        row: first.range((pairs_from((MIN, MIN)), Bound::Unbounded)),
                        rest: rest.iter(),
                    }),
                    _ => Cursor::One(None),
                }
            }
        })
    }

    /// Triples `(?, p, o)` whose object is a numeric literal with value
    /// in `[lo, hi]` (either bound optional), in value order — as a
    /// **superset**: bounds apply to the order-preserving key of the
    /// value as an f64, inclusively, so a caller with a strict or an
    /// integer-exact comparison (`Num::partial_cmp` compares two
    /// integers beyond 2⁵³ exactly, the key cannot) re-applies it to
    /// what comes back. No qualifying triple is ever missing. NaN
    /// objects compare with nothing and are never returned; a NaN bound
    /// matches nothing.
    pub fn match_object_range(&self, p: TermId, lo: Option<f64>, hi: Option<f64>) -> Matches<'_> {
        self.object_range(p, lo, hi, None)
    }

    /// [`match_object_range`](Self::match_object_range) from just past
    /// the index entry `(p, after)`.
    fn object_range(
        &self,
        p: TermId,
        lo: Option<f64>,
        hi: Option<f64>,
        after: Option<(u64, TermId, TermId)>,
    ) -> Matches<'_> {
        let key = |bound: Option<f64>, open: u64| match bound {
            None => Some(open),
            Some(v) => value_key(v),
        };
        Matches(match (key(lo, u64::MIN), key(hi, u64::MAX)) {
            (Some(lo), Some(hi)) if lo <= hi => Cursor::Num(self.num.range((
                after.map_or(
                    Bound::Included((p, lo, TermId(0), TermId(0))),
                    |(k, o, s)| Bound::Excluded((p, k, o, s)),
                ),
                Bound::Included((p, hi, TermId(u32::MAX), TermId(u32::MAX))),
            ))),
            _ => Cursor::One(None),
        })
    }

    pub fn predicate_stats(&self, p: TermId) -> PredicateStats {
        PredicateStats {
            count: self.pred_counts.get(&p).copied().unwrap_or(0),
            distinct_subjects: self.pred_subjects.get(&p).map(|s| s.len()).unwrap_or(0),
            distinct_objects: self.pred_objects.get(&p).map(|s| s.len()).unwrap_or(0),
        }
    }

    /// The numeric-object statistics kept for a predicate (histogram
    /// + distinct sketch), if any numeric object was ever inserted.
    pub fn object_stats(&self, p: TermId) -> Option<&ObjectStats> {
        self.pred_obj_stats.get(&p)
    }

    /// Estimated triples `(?, p, o)` whose numeric object lies in
    /// `[lo, hi]` (either bound optional), from the predicate's
    /// histogram. `None` when no numeric statistics exist for `p`.
    pub fn estimate_object_range(
        &self,
        p: TermId,
        lo: Option<f64>,
        hi: Option<f64>,
    ) -> Option<f64> {
        Some(self.pred_obj_stats.get(&p)?.estimate_range(lo, hi))
    }

    /// Estimated triples `(?, p, v)` for a numeric constant `v`, using
    /// the histogram bucket mass and the distinct sketch — robust to
    /// value skew, unlike the uniform `count / distinct` guess.
    pub fn estimate_object_eq(&self, p: TermId, v: f64) -> Option<f64> {
        let st = self.pred_obj_stats.get(&p)?;
        if st.histogram.count() == 0 {
            return None;
        }
        Some(st.estimate_eq(v))
    }

    pub fn stats(&self) -> GraphStats {
        GraphStats {
            triples: self.len,
            predicates: self.pred_counts.iter().filter(|(_, &c)| c > 0).count(),
        }
    }

    /// All triples in SPO order.
    pub fn iter(&self) -> impl Iterator<Item = Triple> + '_ {
        self.match_pattern(None, None, None)
    }
}

/// One subject's `(p, o)` pairs in the SPO table.
type Row = BTreeSet<(TermId, TermId)>;

type PairRange = (Bound<(TermId, TermId)>, Bound<(TermId, TermId)>);

/// The pairs of one row under predicate `p`.
fn pairs_of(p: TermId) -> PairRange {
    (
        Bound::Included((p, TermId(0))),
        Bound::Included((p, TermId(u32::MAX))),
    )
}

/// `(p, value_key(o), o, s)`: one entry of the numeric value index.
type NumEntry = (TermId, u64, TermId, TermId);

/// A batch no smaller than `1 / MERGE_RATIO` of an index is merged into
/// it (sort, bulk build, `append`: linear in index plus batch); a
/// smaller one goes in entry by entry (a tree descent each). See
/// DESIGN.md, "Graph indexes: one insert path".
const MERGE_RATIO: usize = 4;

/// The entries one `extend` batch adds to one ordered index.
struct Run<'a, T> {
    set: &'a mut BTreeSet<T>,
    /// `None` when the batch is small next to the set: each entry then
    /// goes straight in.
    pending: Option<Vec<T>>,
}

impl<'a, T: Ord> Run<'a, T> {
    /// A run for a batch of at most `batch` entries.
    fn new(set: &'a mut BTreeSet<T>, batch: usize) -> Self {
        let merge = batch * MERGE_RATIO >= set.len();
        Run {
            pending: merge.then(|| Vec::with_capacity(batch)),
            set,
        }
    }

    /// Add an entry that is not in the set yet.
    fn push(&mut self, entry: T) {
        match &mut self.pending {
            Some(run) => run.push(entry),
            None => {
                self.set.insert(entry);
            }
        }
    }

    /// Merge what was gathered; whether a merge happened.
    fn finish(self) -> bool {
        let Some(mut run) = self.pending.filter(|run| !run.is_empty()) else {
            return false;
        };
        // Sorted, the collect is a bulk build of full nodes; `append`
        // then takes the new tree whole into an empty set, or rebuilds
        // the union from the two sorted sequences.
        run.sort_unstable();
        self.set.append(&mut run.into_iter().collect());
        true
    }
}

/// The f64 value of a numeric-literal term id, if it is one.
fn numeric_value(dict: &Dictionary, id: TermId) -> Option<f64> {
    match dict.get(id)? {
        Term::Number(n) => Some(n.as_f64()),
        _ => None,
    }
}

/// The matches of [`GraphIndex::match_pattern`] or
/// [`GraphIndex::match_object_range`]: a cursor over whichever index serves
/// the pattern.
#[derive(Debug, Clone)]
pub struct Matches<'a>(Cursor<'a>);

#[derive(Debug, Clone)]
enum Cursor<'a> {
    One(Option<Triple>),
    Spo(Rows<'a>),
    Pos(btree_set::Range<'a, (TermId, TermId, TermId)>),
    Osp(btree_set::Range<'a, (TermId, TermId, TermId)>),
    Num(btree_set::Range<'a, NumEntry>),
}

/// A walk over SPO rows in subject-id order: what is left of subject
/// `s`'s row, then every row in `rest` whole.
#[derive(Debug, Clone)]
struct Rows<'a> {
    s: TermId,
    row: btree_set::Range<'a, (TermId, TermId)>,
    rest: slice::Iter<'a, Row>,
}

impl Iterator for Rows<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        loop {
            if let Some(&(p, o)) = self.row.next() {
                return Some(Triple { s: self.s, p, o });
            }
            self.row = self.rest.next()?.range(..);
            self.s = TermId(self.s.0 + 1);
        }
    }
}

impl Iterator for Matches<'_> {
    type Item = Triple;

    fn next(&mut self) -> Option<Triple> {
        match &mut self.0 {
            Cursor::One(hit) => hit.take(),
            Cursor::Spo(it) => it.next(),
            Cursor::Pos(it) => it.next().map(|&(p, o, s)| Triple { s, p, o }),
            Cursor::Osp(it) => it.next().map(|&(o, s, p)| Triple { s, p, o }),
            Cursor::Num(it) => it.next().map(|&(p, _, o, s)| Triple { s, p, o }),
        }
    }
}

/// The key the numeric value index orders by: monotone under
/// `Num::partial_cmp` (`a < b` implies `key(a) <= key(b)`, and equal
/// values — `2` and `2.0`, `-0.0` and `0.0` — share a key), `None` for
/// NaN, which has no place in the order.
fn value_key(v: f64) -> Option<u64> {
    if v.is_nan() {
        return None;
    }
    // `-0.0 + 0.0` is `+0.0`: both zeros get one key.
    let bits = (v + 0.0).to_bits();
    Some(if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Graph {
        let mut g = Graph::new();
        g.insert(Term::blank("a"), Term::uri("foaf:name"), Term::str("Alice"));
        g.insert(Term::blank("a"), Term::uri("foaf:knows"), Term::blank("b"));
        g.insert(Term::blank("a"), Term::uri("foaf:knows"), Term::blank("d"));
        g.insert(Term::blank("b"), Term::uri("foaf:name"), Term::str("Bob"));
        g.insert(
            Term::blank("d"),
            Term::uri("foaf:name"),
            Term::str("Daniel"),
        );
        g
    }

    #[test]
    fn insert_dedups() {
        let mut g = Graph::new();
        assert!(g.insert(Term::blank("x"), Term::uri("p"), Term::integer(1)));
        assert!(!g.insert(Term::blank("x"), Term::uri("p"), Term::integer(1)));
        assert_eq!(g.len(), 1);
    }

    #[test]
    fn pattern_spo_bound_combinations() {
        let g = sample();
        let name = g.dictionary().lookup(&Term::uri("foaf:name")).unwrap();
        let knows = g.dictionary().lookup(&Term::uri("foaf:knows")).unwrap();
        let a = g.dictionary().lookup(&Term::blank("a")).unwrap();
        let alice = g.dictionary().lookup(&Term::str("Alice")).unwrap();

        assert_eq!(g.match_pattern(None, None, None).count(), 5);
        assert_eq!(g.match_pattern(None, Some(name), None).count(), 3);
        assert_eq!(g.match_pattern(Some(a), None, None).count(), 3);
        assert_eq!(g.match_pattern(Some(a), Some(knows), None).count(), 2);
        assert_eq!(g.match_pattern(None, Some(name), Some(alice)).count(), 1);
        assert_eq!(g.match_pattern(None, None, Some(alice)).count(), 1);
        assert_eq!(g.match_pattern(Some(a), Some(name), Some(alice)).count(), 1);
        assert_eq!(g.match_pattern(Some(a), None, Some(alice)).count(), 1);
    }

    #[test]
    fn remove_maintains_indexes() {
        let mut g = sample();
        let name = g.dictionary().lookup(&Term::uri("foaf:name")).unwrap();
        let a = g.dictionary().lookup(&Term::blank("a")).unwrap();
        let alice = g.dictionary().lookup(&Term::str("Alice")).unwrap();
        assert!(g.remove_ids(a, name, alice));
        assert!(!g.remove_ids(a, name, alice));
        assert_eq!(g.len(), 4);
        assert_eq!(g.match_pattern(None, Some(name), None).count(), 2);
        assert_eq!(g.match_pattern(None, None, Some(alice)).count(), 0);
    }

    #[test]
    fn predicate_stats_track_distincts() {
        let g = sample();
        let knows = g.dictionary().lookup(&Term::uri("foaf:knows")).unwrap();
        let st = g.predicate_stats(knows);
        assert_eq!(st.count, 2);
        assert_eq!(st.distinct_subjects, 1);
        assert_eq!(st.distinct_objects, 2);
    }

    #[test]
    fn estimates_are_ordered_sensibly() {
        let g = sample();
        let name = g.dictionary().lookup(&Term::uri("foaf:name")).unwrap();
        let full = g.estimate_pattern(None, None, None);
        let by_p = g.estimate_pattern(None, Some(name), None);
        let by_po = g.estimate_pattern(None, Some(name), Some(TermId(0)));
        assert!(by_p <= full);
        assert!(by_po <= by_p);
    }

    #[test]
    fn object_value_statistics_follow_inserts_and_deletes() {
        let mut g = Graph::new();
        for i in 0..100 {
            g.insert(
                Term::blank(format!("s{i}")),
                Term::uri("p:val"),
                Term::integer(i % 10),
            );
        }
        let p = g.dictionary().lookup(&Term::uri("p:val")).unwrap();
        let st = g.object_stats(p).expect("numeric stats kept");
        assert_eq!(st.histogram.count(), 100);
        assert_eq!(st.sketch.estimate(), 10.0);
        let low = g.estimate_object_range(p, None, Some(4.5)).unwrap();
        assert!((30.0..=70.0).contains(&low), "got {low}");
        // Equality estimate lands near the true frequency (10 each).
        let eq = g.estimate_object_eq(p, 3.0).unwrap();
        assert!((1.0..=40.0).contains(&eq), "got {eq}");
        // Deleting updates the histogram mass.
        let s0 = g.dictionary().lookup(&Term::blank("s0")).unwrap();
        let v0 = g.dictionary().lookup(&Term::integer(0)).unwrap();
        assert!(g.remove_ids(s0, p, v0));
        assert_eq!(g.object_stats(p).unwrap().histogram.count(), 99);
        // Non-numeric objects never create stats.
        let mut g2 = Graph::new();
        g2.insert(Term::blank("a"), Term::uri("p:s"), Term::str("x"));
        let ps = g2.dictionary().lookup(&Term::uri("p:s")).unwrap();
        assert!(g2.object_stats(ps).is_none());
    }

    #[test]
    fn stats_snapshot() {
        let g = sample();
        let st = g.stats();
        assert_eq!(st.triples, 5);
        assert_eq!(st.predicates, 2);
    }

    #[test]
    fn a_paused_match_resumes_after_its_last_triple() {
        let mut g = Graph::new();
        for i in 0..6 {
            for j in 0..3 {
                let s = Term::uri(format!("s{i}"));
                g.insert(s.clone(), Term::uri(format!("p{j}")), Term::integer(i * j));
                g.insert(s, Term::uri("q"), Term::uri(format!("s{}", (i + j) % 6)));
            }
        }
        let id = |t: Term| g.dictionary().lookup(&t);
        let (s, p, o) = (id(Term::uri("s2")), id(Term::uri("q")), id(Term::uri("s3")));
        let shapes = [None, s].into_iter().flat_map(|s| {
            [None, p]
                .into_iter()
                .flat_map(move |p| [None, o].map(|o| (s, p, o)))
        });
        for (s, p, o) in shapes {
            let all: Vec<Triple> = g.match_pattern(s, p, o).collect();
            for (k, &last) in all.iter().enumerate() {
                let rest: Vec<Triple> = g.match_pattern_after(s, p, o, Some(last)).collect();
                assert_eq!(rest, all[k + 1..], "{s:?} {p:?} {o:?} after {k}");
            }
        }
        let p1 = id(Term::uri("p1")).unwrap();
        let all: Vec<Triple> = g.match_object_range(p1, Some(1.0), Some(4.0)).collect();
        assert_eq!(all.len(), 4);
        for (k, &last) in all.iter().enumerate() {
            let rest: Vec<Triple> = g
                .match_object_range_after(p1, Some(1.0), Some(4.0), Some(last))
                .collect();
            assert_eq!(rest, all[k + 1..]);
        }
    }
}
