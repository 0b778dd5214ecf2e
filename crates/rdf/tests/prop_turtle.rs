//! Property tests: random RDF-with-Arrays graphs survive write → parse
//! round trips through the term writer (a triple per line, each term as
//! it displays) and through N-Triples (with consolidation restoring
//! arrays): every term reads back as the same node.

use proptest::prelude::*;
use ssdm_array::NumArray;
use ssdm_rdf::{consolidate_collections, ntriples, turtle, Graph, Term};

/// Doubles at the edges of the number syntax.
const EDGE_REALS: [f64; 6] = [f64::NAN, f64::INFINITY, -f64::INFINITY, -0.0, 1e300, -1e300];

fn reals() -> impl Strategy<Value = f64> {
    prop_oneof![
        -1.0e12f64..1.0e12,
        (0..EDGE_REALS.len()).prop_map(|i| EDGE_REALS[i])
    ]
}

/// Strategy: a random RDF term usable as an object. Vectors run to 40
/// elements, past the 16 a shortened display would keep.
fn objects() -> impl Strategy<Value = Term> {
    prop_oneof![
        "[a-z][a-z0-9]{0,8}".prop_map(|s| Term::uri(format!("http://t/{s}"))),
        any::<i64>().prop_map(Term::integer),
        reals().prop_map(Term::double),
        "[ -~]{0,20}".prop_map(Term::str),
        any::<bool>().prop_map(Term::Bool),
        prop::collection::vec(-1000i64..1000, 1..41)
            .prop_map(|v| Term::Array(NumArray::from_i64(v))),
        prop::collection::vec(reals(), 1..41).prop_map(|v| Term::Array(NumArray::from_f64(v))),
        (1usize..4, prop::collection::vec(-100i64..100, 1..4)).prop_map(|(rows, base)| {
            let cols = base.len();
            let data: Vec<i64> = (0..rows * cols)
                .map(|i| base[i % cols] + i as i64)
                .collect();
            Term::Array(NumArray::from_i64_shaped(data, &[rows, cols]).unwrap())
        }),
    ]
}

fn graphs() -> impl Strategy<Value = Vec<(String, String, Term)>> {
    prop::collection::vec(
        ("[a-z][a-z0-9]{0,6}", "[a-z][a-z0-9]{0,6}", objects()),
        1..25,
    )
}

fn build(triples: &[(String, String, Term)]) -> Graph {
    let mut g = Graph::new();
    for (s, p, o) in triples {
        g.insert(
            Term::uri(format!("http://s/{s}")),
            Term::uri(format!("http://p/{p}")),
            o.clone(),
        );
    }
    g
}

/// `same_node`, but arrays (which intern by identity) by element type,
/// shape and the bits of each element.
fn same_term(a: &Term, b: &Term) -> bool {
    match (a, b) {
        (Term::Array(x), Term::Array(y)) => {
            let (xs, ys) = (x.elements(), y.elements());
            x.numeric_type() == y.numeric_type()
                && x.shape() == y.shape()
                && xs
                    .iter()
                    .zip(ys)
                    .all(|(&m, n)| Term::Number(m) == Term::Number(n))
        }
        _ => a.same_node(b),
    }
}

fn graphs_equivalent(a: &Graph, b: &Graph) -> bool {
    if a.len() != b.len() {
        return false;
    }
    a.iter().all(|t| {
        let (s, p, o) = (a.term(t.s), a.term(t.p), a.term(t.o));
        b.iter().any(|u| {
            same_term(b.term(u.s), s) && same_term(b.term(u.p), p) && same_term(b.term(u.o), o)
        })
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn turtle_round_trip(triples in graphs()) {
        let g = build(&triples);
        let text: String = g
            .iter()
            .map(|t| format!("{} {} {} .\n", g.term(t.s), g.term(t.p), g.term(t.o)))
            .collect();
        let mut back = Graph::new();
        turtle::parse_into(&mut back, &text).unwrap();
        prop_assert!(graphs_equivalent(&g, &back), "turtle:\n{text}");
    }

    #[test]
    fn ntriples_round_trip_with_consolidation(triples in graphs()) {
        let g = build(&triples);
        let text = ntriples::serialize(&g);
        let mut back = Graph::new();
        turtle::parse_into(&mut back, &text).unwrap();
        consolidate_collections(&mut back);
        prop_assert!(graphs_equivalent(&g, &back), "ntriples:\n{text}");
    }

    /// Pattern matching agrees with a linear scan of the triple list.
    #[test]
    fn match_pattern_equals_scan(triples in graphs(), probe in 0usize..25) {
        let g = build(&triples);
        prop_assume!(!triples.is_empty());
        let (s, p, _) = &triples[probe % triples.len()];
        let sid = g.dictionary().lookup(&Term::uri(format!("http://s/{s}")));
        let pid = g.dictionary().lookup(&Term::uri(format!("http://p/{p}")));
        let via_index = g.match_pattern(sid, pid, None).count();
        let via_scan = g
            .iter()
            .filter(|t| Some(t.s) == sid && Some(t.p) == pid)
            .count();
        prop_assert_eq!(via_index, via_scan);
    }
}
