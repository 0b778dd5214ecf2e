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
//!
//! A second differential loads one seeded stream of triples into two
//! graphs: one through `extend_ids` in random batches, one a triple at
//! a time through `insert_ids`. Batches land in an empty graph and in a
//! loaded one on both sides of the merge-or-insert cut-off, repeat
//! triples within and across batches, and carry numeric objects at NaN,
//! ±0 and ±2⁵³. After the load, after deletes and after a further load
//! the two graphs must answer every probe alike: each pattern shape,
//! value-range scans and their resumption, `len`, predicate statistics,
//! histograms, sketches and every estimate.

use std::collections::BTreeSet;

use ssdm_rdf::stats::splitmix64;
use ssdm_rdf::{Graph, PredicateStats, Term, TermId, Triple};

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

/// The terms of the ingest differential, interned alike into both
/// graphs: subjects (some of them objects too), predicates, and objects
/// at the numeric edges.
struct Pool {
    subjects: Vec<TermId>,
    preds: Vec<TermId>,
    objects: Vec<TermId>,
}

fn intern_pool(g: &mut Graph) -> Pool {
    let subjects: Vec<TermId> = (0..60)
        .map(|i| g.intern(Term::uri(format!("http://s/{i}"))))
        .collect();
    let preds = (0..4)
        .map(|i| g.intern(Term::uri(format!("http://p/{i}"))))
        .collect();
    let two53 = 9_007_199_254_740_992_i64;
    let mut terms = vec![
        Term::double(f64::NAN),
        Term::double(-0.0),
        Term::double(0.0),
        Term::integer(0),
        Term::double(two53 as f64),
        Term::double(-two53 as f64),
        Term::integer(two53),
        Term::integer(two53 + 1),
        Term::integer(-two53),
        Term::integer(-two53 - 1),
        Term::double(f64::INFINITY),
        Term::str("x"),
        Term::str("y"),
    ];
    terms.extend((0..30).map(|i| Term::integer(i % 7)));
    terms.extend((0..20).map(|i| Term::double(f64::from(i) * 0.25 - 2.0)));
    let mut objects: Vec<TermId> = terms.into_iter().map(|t| g.intern(t)).collect();
    objects.extend_from_slice(&subjects[..8]);
    Pool {
        subjects,
        preds,
        objects,
    }
}

/// Value bounds that probe the value index's edges.
const BOUNDS: [Option<f64>; 8] = [
    None,
    Some(f64::NAN),
    Some(-0.0),
    Some(0.0),
    Some(1.5),
    Some(-9_007_199_254_740_992.0),
    Some(9_007_199_254_740_992.0),
    Some(f64::INFINITY),
];

/// `batched` and `single` answer every probe alike.
fn assert_same(batched: &Graph, single: &Graph, pool: &Pool, when: &str) {
    let (a, b) = (batched, single);
    assert_eq!(a.len(), b.len(), "{when}: len");
    assert_eq!(a.stats().predicates, b.stats().predicates, "{when}: stats");
    assert!(a.iter().eq(b.iter()), "{when}: iter");
    let beyond = TermId(a.dictionary().len() as u32 + 3);
    let some = |ids: &[TermId], step: usize| -> Vec<Option<TermId>> {
        let picked = ids.iter().step_by(step).copied().chain([beyond]);
        [None].into_iter().chain(picked.map(Some)).collect()
    };
    let (ss, ps, os) = (
        some(&pool.subjects, 7),
        some(&pool.preds, 1),
        some(&pool.objects, 5),
    );
    for &s in &ss {
        for &p in &ps {
            for &o in &os {
                assert!(
                    a.match_pattern(s, p, o).eq(b.match_pattern(s, p, o)),
                    "{when}: pattern ({s:?}, {p:?}, {o:?})"
                );
                let (ea, eb) = (a.estimate_pattern(s, p, o), b.estimate_pattern(s, p, o));
                assert_eq!(ea.to_bits(), eb.to_bits(), "{when}: estimate_pattern");
            }
        }
    }
    for &p in pool.preds.iter().chain([&beyond]) {
        let (sa, sb) = (a.predicate_stats(p), b.predicate_stats(p));
        let stats = |st: PredicateStats| (st.count, st.distinct_subjects, st.distinct_objects);
        assert_eq!(stats(sa), stats(sb), "{when}: predicate_stats({p:?})");
        let (oa, ob) = (a.object_stats(p), b.object_stats(p));
        assert_eq!(format!("{oa:?}"), format!("{ob:?}"), "{when}: object_stats");
        if let (Some(oa), Some(ob)) = (oa, ob) {
            assert_eq!(oa.histogram.count(), ob.histogram.count());
            assert_eq!(
                oa.sketch.estimate().to_bits(),
                ob.sketch.estimate().to_bits()
            );
        }
        for lo in BOUNDS {
            for hi in BOUNDS {
                let range: Vec<Triple> = a.match_object_range(p, lo, hi).collect();
                assert!(
                    range.iter().copied().eq(b.match_object_range(p, lo, hi)),
                    "{when}: object range {p:?} [{lo:?}, {hi:?}]"
                );
                for &last in range.iter().step_by(range.len() / 6 + 1) {
                    assert!(
                        a.match_object_range_after(p, lo, hi, Some(last))
                            .eq(b.match_object_range_after(p, lo, hi, Some(last))),
                        "{when}: object range after {last:?}"
                    );
                }
                let bits = |e: Option<f64>| e.map(f64::to_bits);
                assert_eq!(
                    bits(a.estimate_object_range(p, lo, hi)),
                    bits(b.estimate_object_range(p, lo, hi)),
                    "{when}: estimate_object_range"
                );
            }
            if let Some(v) = lo {
                assert_eq!(
                    a.estimate_object_eq(p, v).map(f64::to_bits),
                    b.estimate_object_eq(p, v).map(f64::to_bits),
                    "{when}: estimate_object_eq({v})"
                );
            }
        }
    }
}

/// Load `stream` into both graphs, `batched` in the given batch sizes.
/// Returns how many batches of two or more triples into a non-empty
/// graph took each path: (entry by entry, merged).
fn load(
    batched: &mut Graph,
    single: &mut Graph,
    stream: &[Triple],
    sizes: &[usize],
) -> (usize, usize) {
    let (mut per_entry, mut merged) = (0, 0);
    let mut rest = stream;
    for &size in sizes {
        let (batch, tail) = rest.split_at(size.min(rest.len()));
        rest = tail;
        let (before, merges) = (batched.len(), batched.bulk_merges());
        let added = batched.extend_ids(batch);
        let fresh = batch
            .iter()
            .filter(|t| single.insert_ids(t.s, t.p, t.o))
            .count();
        assert_eq!(
            added,
            fresh,
            "a batch of {} counts its new triples",
            batch.len()
        );
        if before > 0 && batch.len() > 1 {
            match batched.bulk_merges() - merges {
                0 => per_entry += 1,
                _ => merged += 1,
            }
        }
    }
    assert!(rest.is_empty(), "the sizes cover the stream");
    (per_entry, merged)
}

#[test]
fn batched_loads_equal_one_triple_at_a_time() {
    for seed in [5u64, 0xbead_2026, 77] {
        let (mut batched, mut single) = (Graph::new(), Graph::new());
        let pool = intern_pool(&mut batched);
        let again = intern_pool(&mut single);
        assert_eq!(pool.objects, again.objects, "one id per term on both sides");
        let mut rng = Rng(seed);
        let draw = |rng: &mut Rng| Triple {
            s: pick(rng, &pool.subjects),
            p: pick(rng, &pool.preds),
            o: pick(rng, &pool.objects),
        };
        let mut stream: Vec<Triple> = (0..3_000).map(|_| draw(&mut rng)).collect();
        // Repeats within a batch and across batches.
        for i in (0..stream.len()).step_by(13) {
            let j = rng.below(stream.len());
            stream[i] = stream[j];
        }
        // An empty graph, then batches of 1..=4 triples (well under a
        // quarter of the graph), batches as large as the graph, and the
        // rest.
        let mut sizes = vec![800];
        sizes.extend((0..100).map(|_| 1 + rng.below(4)));
        sizes.extend([600, 1_200]);
        sizes.push(stream.len() - sizes.iter().sum::<usize>());
        let (per_entry, merged) = load(&mut batched, &mut single, &stream, &sizes);
        assert!(
            per_entry > 0 && merged > 0,
            "both paths: {per_entry} / {merged}"
        );
        assert_same(&batched, &single, &pool, "after the load");

        // Deletes after the load, then a further load into what is left.
        let all: Vec<Triple> = single.iter().collect();
        for _ in 0..400 {
            let t = all[rng.below(all.len())];
            let u = draw(&mut rng);
            for t in [t, u] {
                assert_eq!(
                    batched.remove_ids(t.s, t.p, t.o),
                    single.remove_ids(t.s, t.p, t.o)
                );
            }
        }
        assert_same(&batched, &single, &pool, "after deletes");
        let more: Vec<Triple> = (0..1_500).map(|_| draw(&mut rng)).collect();
        load(&mut batched, &mut single, &more, &[2, 700, 5, 793]);
        assert_same(&batched, &single, &pool, "after a reload");
    }
}
