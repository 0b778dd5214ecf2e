//! The graph's indexes against a plain set of triples.
//!
//! Seeded traces of inserts and removes run against a `Graph` and a
//! reference `BTreeSet<(s, p, o)>` side by side. After every step, all
//! eight bound/unbound shapes of `match_pattern` must return the
//! reference's matching triples *as a sequence* — in the order of the
//! index that serves the shape — and `iter`, `len`, `contains_ids` and
//! `predicate_stats` must agree with it. The traces cover duplicate
//! inserts, removes of absent triples, subject ids beyond the end of the
//! subject table, subjects emptied and refilled, and one subject with
//! thousands of triples under two interleaved predicates, inserted in
//! descending object order and removed from the front.

use std::collections::BTreeSet;

use ssdm_rdf::stats::splitmix64;
use ssdm_rdf::{Graph, Term, TermId, Triple};

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }
}

fn pick(rng: &mut Rng, pool: &[TermId]) -> TermId {
    pool[rng.below(pool.len())]
}

type Model = BTreeSet<(TermId, TermId, TermId)>;

fn triple(&(s, p, o): &(TermId, TermId, TermId)) -> Triple {
    Triple { s, p, o }
}

const MIN: TermId = TermId(0);
const MAX: TermId = TermId(u32::MAX);

/// Distinct ids in a run where equal ids are adjacent.
fn distinct(ids: impl Iterator<Item = TermId>) -> usize {
    let mut last = None;
    ids.filter(|&id| last.replace(id) != Some(id)).count()
}

struct Trace {
    g: Graph,
    model: Model,
    subjects: Vec<TermId>,
    preds: Vec<TermId>,
    objects: Vec<TermId>,
    rng: Rng,
    step: usize,
}

impl Trace {
    fn new(seed: u64) -> Self {
        let mut g = Graph::new();
        // Interleave the pools so subject ids are scattered among the
        // others, and keep a few subjects back: they are interned last,
        // so the first insert of one lands beyond the table's end.
        let mut subjects = Vec::new();
        let mut preds = Vec::new();
        let mut objects = Vec::new();
        for i in 0..10 {
            subjects.push(g.intern(Term::uri(format!("http://s/{i}"))));
            objects.push(g.intern(Term::integer(i)));
            if i < 4 {
                preds.push(g.intern(Term::uri(format!("http://p/{i}"))));
            }
            objects.push(g.intern(Term::str(format!("o{i}"))));
        }
        for i in 10..13 {
            subjects.push(g.intern(Term::uri(format!("http://s/{i}"))));
        }
        // Subjects are objects too, so OSP probes see shared ids.
        objects.extend_from_slice(&subjects[..3]);
        Trace {
            g,
            model: Model::new(),
            subjects,
            preds,
            objects,
            rng: Rng(seed),
            step: 0,
        }
    }

    fn insert(&mut self, s: TermId, p: TermId, o: TermId) {
        let fresh = self.model.insert((s, p, o));
        let step = self.step;
        assert_eq!(
            self.g.insert_ids(s, p, o),
            fresh,
            "step {step}: insert ({s:?}, {p:?}, {o:?})"
        );
        self.check();
    }

    fn remove(&mut self, s: TermId, p: TermId, o: TermId) {
        let present = self.model.remove(&(s, p, o));
        let step = self.step;
        assert_eq!(
            self.g.remove_ids(s, p, o),
            present,
            "step {step}: remove ({s:?}, {p:?}, {o:?})"
        );
        self.check();
    }

    /// A triple drawn from the pools; it may or may not be there.
    fn any_triple(&mut self) -> (TermId, TermId, TermId) {
        (
            pick(&mut self.rng, &self.subjects),
            pick(&mut self.rng, &self.preds),
            pick(&mut self.rng, &self.objects),
        )
    }

    /// A probe position: mostly from its pool, sometimes a triple that
    /// is there, sometimes an id the dictionary never issued.
    fn probe(&mut self, all: &[Triple]) -> (TermId, TermId, TermId) {
        match self.rng.below(8) {
            0 | 1 if !all.is_empty() => {
                let t = all[self.rng.below(all.len())];
                (t.s, t.p, t.o)
            }
            2 => {
                let beyond = TermId(self.g.dictionary().len() as u32 + 7);
                (beyond, pick(&mut self.rng, &self.preds), beyond)
            }
            3 => (MAX, MAX, MAX),
            _ => self.any_triple(),
        }
    }

    fn check(&mut self) {
        let step = self.step;
        self.step += 1;
        let all: Vec<Triple> = self.model.iter().map(triple).collect();
        let (s, p, o) = self.probe(&all);
        let g = &self.g;
        assert_eq!(g.len(), all.len(), "step {step}: len");
        assert_eq!(g.is_empty(), all.is_empty(), "step {step}: is_empty");
        assert_eq!(g.stats().triples, all.len(), "step {step}: stats");
        assert!(g.iter().eq(all.iter().copied()), "step {step}: iter");

        // Every shape's answer, filtered out of the reference in its own
        // (s, p, o) order.
        let (mut by_s, mut by_p, mut by_o) = (Vec::new(), Vec::new(), Vec::new());
        for &t in &all {
            if t.s == s {
                by_s.push(t);
            }
            if t.p == p {
                by_p.push(t);
            }
            if t.o == o {
                by_o.push(t);
            }
        }
        let keep = |from: &[Triple], bp: Option<TermId>, bo: Option<TermId>| -> Vec<Triple> {
            from.iter()
                .filter(|t| bp.is_none_or(|p| t.p == p) && bo.is_none_or(|o| t.o == o))
                .copied()
                .collect()
        };
        // The index serving a shape orders its matches by the positions
        // left free. For every shape but `(?, p, ?)` that is (s, p, o)
        // order; POS gives `(?, p, ?)` in (o, s) order.
        let p_subjects = distinct(by_p.iter().map(|t| t.s));
        by_p.sort_by_key(|t| (t.o, t.s));
        let p_objects = distinct(by_p.iter().map(|t| t.o));
        let st = g.predicate_stats(p);
        let context = format!("step {step}: predicate_stats({p:?})");
        assert_eq!(st.count, by_p.len(), "{context}");
        assert_eq!(st.distinct_subjects, p_subjects, "{context}");
        assert_eq!(st.distinct_objects, p_objects, "{context}");
        let shapes = [
            ((None, None, None), &all),
            ((Some(s), None, None), &by_s),
            ((None, Some(p), None), &by_p),
            ((None, None, Some(o)), &by_o),
            ((Some(s), Some(p), None), &keep(&by_s, Some(p), None)),
            ((Some(s), None, Some(o)), &keep(&by_s, None, Some(o))),
            ((None, Some(p), Some(o)), &keep(&by_o, Some(p), None)),
            ((Some(s), Some(p), Some(o)), &keep(&by_s, Some(p), Some(o))),
        ];
        for ((bs, bp, bo), want) in shapes {
            assert!(
                g.match_pattern(bs, bp, bo).eq(want.iter().copied()),
                "step {step}: pattern ({bs:?}, {bp:?}, {bo:?})"
            );
        }
        assert_eq!(
            g.contains_ids(s, p, o),
            self.model.contains(&(s, p, o)),
            "step {step}: contains ({s:?}, {p:?}, {o:?})"
        );
    }

    /// Random inserts, duplicate inserts, removes of present and of
    /// possibly absent triples.
    fn random_steps(&mut self, steps: usize) {
        for _ in 0..steps {
            let (s, p, o) = self.any_triple();
            match self.rng.below(7) {
                0 | 1 if !self.model.is_empty() => {
                    let i = self.rng.below(self.model.len());
                    let (s, p, o) = *self.model.iter().nth(i).expect("in range");
                    self.remove(s, p, o);
                }
                2 => self.remove(s, p, o),
                3 if !self.model.is_empty() => {
                    let i = self.rng.below(self.model.len());
                    let (s, p, o) = *self.model.iter().nth(i).expect("in range");
                    self.insert(s, p, o);
                }
                _ => self.insert(s, p, o),
            }
        }
    }

    /// Remove every triple of `s` in a random order, then give it new
    /// ones.
    fn empty_and_refill(&mut self, s: TermId) {
        let mut row: Vec<_> = self
            .model
            .range((s, MIN, MIN)..=(s, MAX, MAX))
            .copied()
            .collect();
        while !row.is_empty() {
            let (s, p, o) = row.swap_remove(self.rng.below(row.len()));
            self.remove(s, p, o);
        }
        assert_eq!(self.g.match_pattern(Some(s), None, None).count(), 0);
        for _ in 0..12 {
            let (p, o) = (
                pick(&mut self.rng, &self.preds),
                pick(&mut self.rng, &self.objects),
            );
            self.insert(s, p, o);
        }
    }
}

#[test]
fn every_pattern_shape_equals_the_reference_after_every_step() {
    for seed in [3u64, 0x5eed_2026] {
        let mut trace = Trace::new(seed);
        trace.random_steps(600);
        for i in [0, 4, 11] {
            let s = trace.subjects[i];
            trace.empty_and_refill(s);
        }
        trace.random_steps(300);
    }
}

/// Triples of the high-degree subject: thousands in one row, enough for
/// a three-level B-tree inside it. A checked step walks the whole graph,
/// so checking every step of a load or a drain costs O(DEGREE²) — about
/// 1.5 s in a debug build — and the two are separate tests, which run
/// side by side.
const DEGREE: i64 = 2000;

/// Give a fresh subject `DEGREE` triples under two interleaved
/// predicates, highest object id first. The subject is interned after
/// everything else, so its row lies beyond the table's end until the
/// first insert.
fn load_hub(trace: &mut Trace, check_every_step: bool) -> TermId {
    let objects: Vec<TermId> = (0..DEGREE)
        .map(|i| trace.g.intern(Term::integer(1_000 + i)))
        .collect();
    let hub = trace.g.intern(Term::uri("http://s/hub"));
    trace.subjects.push(hub);
    let (p0, p1) = (trace.preds[0], trace.preds[1]);
    for (i, &o) in objects.iter().enumerate().rev() {
        let p = if i % 2 == 0 { p0 } else { p1 };
        if check_every_step {
            trace.insert(hub, p, o);
        } else {
            trace.model.insert((hub, p, o));
            assert!(trace.g.insert_ids(hub, p, o));
        }
    }
    hub
}

#[test]
fn a_high_degree_subject_loaded_in_descending_object_order() {
    let mut trace = Trace::new(7);
    trace.random_steps(100);
    load_hub(&mut trace, true);
    trace.random_steps(100);
}

#[test]
fn a_high_degree_subject_drained_from_the_front() {
    let mut trace = Trace::new(11);
    trace.random_steps(100);
    let hub = load_hub(&mut trace, false);
    trace.check();
    while let Some(t) = trace.g.match_pattern(Some(hub), None, None).next() {
        trace.remove(t.s, t.p, t.o);
    }
    trace.random_steps(100);
}
