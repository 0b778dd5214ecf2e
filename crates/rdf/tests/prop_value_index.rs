//! The numeric value index against a brute-force filter.
//!
//! A seeded random trace of inserts and removes over a pool of objects
//! chosen to sit on every edge of the ordering — ints and reals that
//! are value-equal, both zeros, NaN, the infinities, integers around
//! 2⁵³ that collapse to one f64, and non-numeric objects that look
//! numeric. After every step, random `[lo, hi]` range queries must
//! return a superset of the qualifying triples that becomes exactly the
//! brute-force answer once the comparison is re-applied — the contract
//! the evaluator's residual filter relies on.

use ssdm_array::{Num, NumArray};
use ssdm_rdf::stats::splitmix64;
use ssdm_rdf::{Graph, Term, TermId, Triple};

struct Rng(u64);

impl Rng {
    fn below(&mut self, n: usize) -> usize {
        self.0 = splitmix64(self.0);
        (self.0 % n as u64) as usize
    }
}

const TWO_53: i64 = 1 << 53;

fn objects() -> Vec<Term> {
    let ints = [
        0,
        1,
        2,
        3,
        -1,
        -7,
        48,
        TWO_53 - 1,
        TWO_53,
        TWO_53 + 1,
        TWO_53 + 2,
        -TWO_53 - 1,
        i64::MAX,
        i64::MAX - 1,
        i64::MIN,
    ];
    let reals = [
        0.0,
        -0.0,
        2.0,
        2.5,
        -7.0,
        47.999,
        48.0,
        48.001,
        TWO_53 as f64,
        1e300,
        -1e300,
        f64::MIN_POSITIVE,
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
    ];
    let others = [
        Term::str("2"),
        Term::str(""),
        Term::Typed {
            value: "2".into(),
            datatype: "http://www.w3.org/2001/XMLSchema#decimal".into(),
        },
        Term::Bool(true),
        Term::uri("http://o/2"),
        Term::blank("b2"),
        Term::Array(NumArray::from_i64(vec![2])),
        Term::ArrayRef(2),
    ];
    let ints = ints.into_iter().map(Term::integer);
    let reals = reals.into_iter().map(Term::double);
    ints.chain(reals).chain(others).collect()
}

/// Bounds are what a filter's constant can be: an int or a real.
fn bounds() -> Vec<Num> {
    let mut out: Vec<Num> = objects().iter().filter_map(Term::as_num).collect();
    out.extend([-0.5, 0.5, 2.25, 47.9995, 1e18, -1e18].map(Num::Real));
    out.extend([-2, 47, 49, TWO_53 + 3].map(Num::Int));
    out
}

/// `lo <= o <= hi` the way a `FILTER` decides it. NaN passes no
/// comparison, so it is in no range, not even the open one.
fn qualifies(g: &Graph, o: TermId, lo: Option<Num>, hi: Option<Num>) -> bool {
    let Some(n) = g.term(o).as_num().filter(|n| !n.as_f64().is_nan()) else {
        return false;
    };
    lo.is_none_or(|lo| n >= lo) && hi.is_none_or(|hi| n <= hi)
}

fn sorted(mut triples: Vec<Triple>) -> Vec<Triple> {
    triples.sort();
    triples
}

fn check_ranges(g: &Graph, preds: &[TermId], bounds: &[Num], rng: &mut Rng, step: usize) {
    for _ in 0..4 {
        let p = preds[rng.below(preds.len())];
        let mut pick = || (rng.below(4) > 0).then(|| bounds[rng.below(bounds.len())]);
        let (lo, hi) = (pick(), pick());
        let as_f64 = |b: Option<Num>| b.map(Num::as_f64);
        let got: Vec<Triple> = g.match_object_range(p, as_f64(lo), as_f64(hi)).collect();
        let context = format!("step {step}: p={p:?} lo={lo:?} hi={hi:?}");

        // In value order, numeric objects of `p` only, no NaN.
        let values: Vec<f64> = got
            .iter()
            .map(|t| {
                assert_eq!(t.p, p, "{context}");
                assert!(
                    g.contains_ids(t.s, t.p, t.o),
                    "{context}: stale entry {t:?}"
                );
                let n = g.term(t.o).as_num();
                n.unwrap_or_else(|| panic!("{context}: non-numeric {t:?}"))
                    .as_f64()
            })
            .collect();
        assert!(values.iter().all(|v| !v.is_nan()), "{context}");
        assert!(
            values.windows(2).all(|w| w[0] <= w[1]),
            "{context}: {values:?}"
        );

        let brute: Vec<Triple> = g
            .iter()
            .filter(|t| t.p == p && qualifies(g, t.o, lo, hi))
            .collect();
        // A superset as returned ...
        for t in &brute {
            assert!(got.contains(t), "{context}: missed {t:?} = {}", g.term(t.o));
        }
        // ... and exact once the comparison is re-applied.
        let residual: Vec<Triple> = got
            .into_iter()
            .filter(|t| qualifies(g, t.o, lo, hi))
            .collect();
        assert_eq!(sorted(residual), sorted(brute), "{context}");
    }
}

#[test]
fn range_queries_equal_the_brute_force_filter_after_every_step() {
    for seed in [1u64, 0x5eed_2025] {
        let mut rng = Rng(seed);
        let mut g = Graph::new();
        let subjects: Vec<TermId> = (0..10)
            .map(|i| g.intern(Term::uri(format!("http://s/{i}"))))
            .collect();
        let preds: Vec<TermId> = (0..3)
            .map(|i| g.intern(Term::uri(format!("http://p/{i}"))))
            .collect();
        let objects: Vec<TermId> = objects().into_iter().map(|o| g.intern(o)).collect();
        let bounds = bounds();
        for step in 0..2500 {
            let s = subjects[rng.below(subjects.len())];
            let p = preds[rng.below(preds.len())];
            let o = objects[rng.below(objects.len())];
            match rng.below(5) {
                // Remove a triple that is there (when any is).
                0 | 1 if !g.is_empty() => {
                    let victim = g.iter().nth(rng.below(g.len())).expect("in range");
                    assert!(g.remove_ids(victim.s, victim.p, victim.o));
                }
                // Remove one that may not be.
                2 => {
                    g.remove_ids(s, p, o);
                }
                _ => {
                    g.insert_ids(s, p, o);
                }
            }
            check_ranges(&g, &preds, &bounds, &mut rng, step);
        }
        // Emptied out, the index is empty too.
        for t in g.iter().collect::<Vec<_>>() {
            g.remove_ids(t.s, t.p, t.o);
        }
        for &p in &preds {
            assert_eq!(g.match_object_range(p, None, None).count(), 0);
        }
    }
}

#[test]
fn degenerate_bounds_match_nothing_or_everything() {
    let mut g = Graph::new();
    let p = Term::uri("http://p");
    for (i, v) in [1.0, 2.0, f64::NAN, f64::INFINITY].into_iter().enumerate() {
        g.insert(
            Term::uri(format!("http://s/{i}")),
            p.clone(),
            Term::double(v),
        );
    }
    let p = g.dictionary().lookup(&p).unwrap();
    let count = |lo, hi| g.match_object_range(p, lo, hi).count();
    assert_eq!(count(None, None), 3, "NaN is in no range");
    assert_eq!(
        count(Some(2.0), Some(1.0)),
        0,
        "an inverted window is empty"
    );
    assert_eq!(count(Some(f64::NAN), None), 0);
    assert_eq!(count(None, Some(f64::NAN)), 0);
    assert_eq!(count(Some(f64::INFINITY), None), 1);
    assert_eq!(count(Some(2.0), Some(2.0)), 1);
}
