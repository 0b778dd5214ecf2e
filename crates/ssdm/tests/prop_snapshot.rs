//! Property tests: snapshots round-trip arbitrary engine states —
//! exotic IRIs and literals, empty graphs, Int and Real arrays of up to
//! 40 elements, doubles at the edges of the number syntax (NaN, ±INF,
//! negative zero, ±1e300; bitwise), and the external-array catalog over
//! a reopened file back-end.

use proptest::prelude::*;
use scisparql::{QueryResult, Value};
use ssdm::http::{results, Format};
use ssdm::{Backend, Ssdm};
use ssdm_array::NumArray;
use ssdm_rdf::{consolidate_collections, ntriples, turtle, Graph, GraphMut, GraphView, Term};

/// IRI tail characters: plain ASCII, percent-encodings-as-text,
/// punctuation legal inside an IRIREF, and non-ASCII letters.
const IRI_CHARS: &[char] = &[
    'a', 'b', 'z', 'A', 'Z', '0', '9', '.', '_', '~', '-', '%', '/', '#', '?', '=', 'é', 'λ', '日',
    'ф',
];

/// Literal characters: the escape set (`"`, `\`, newline, carriage
/// return, tab), spaces, ASCII, and non-ASCII.
const STR_CHARS: &[char] = &[
    '"', '\\', '\n', '\r', '\t', ' ', 'a', 'Z', '0', '\'', '<', '>', '{', '}', '^', '@', 'é', 'λ',
    '日', '𝄞',
];

fn chars_from(table: &'static [char], range: std::ops::Range<usize>) -> BoxedStrategy<String> {
    prop::collection::vec(0usize..table.len(), range)
        .prop_map(move |ix| ix.into_iter().map(|i| table[i]).collect())
        .boxed()
}

fn iris() -> BoxedStrategy<String> {
    chars_from(IRI_CHARS, 1..12)
        .prop_map(|tail| format!("http://ex.org/{tail}"))
        .boxed()
}

/// Doubles at the edges of the number syntax.
const EDGE_REALS: [f64; 7] = [
    f64::NAN,
    f64::INFINITY,
    -f64::INFINITY,
    -0.0,
    0.0,
    1e300,
    -1e300,
];

/// A random object term: exotic strings, language-tagged and typed
/// literals, numbers, booleans, and Int/Real arrays.
fn reals() -> BoxedStrategy<f64> {
    prop_oneof![
        -1.0e12f64..1.0e12,
        (0..EDGE_REALS.len()).prop_map(|i| EDGE_REALS[i])
    ]
    .boxed()
}

fn objects() -> BoxedStrategy<Term> {
    prop_oneof![
        iris().prop_map(Term::uri),
        chars_from(STR_CHARS, 0..16).prop_map(Term::Str),
        (chars_from(STR_CHARS, 0..10), "[a-z]{2}")
            .prop_map(|(value, lang)| Term::LangStr { value, lang }),
        (chars_from(STR_CHARS, 0..10), iris())
            .prop_map(|(value, datatype)| Term::Typed { value, datatype }),
        any::<i64>().prop_map(Term::integer),
        reals().prop_map(Term::double),
        any::<bool>().prop_map(Term::Bool),
        prop::collection::vec(-1000i64..1000, 1..41)
            .prop_map(|v| Term::Array(NumArray::from_i64(v))),
        prop::collection::vec(reals(), 1..41).prop_map(|v| Term::Array(NumArray::from_f64(v))),
    ]
    .boxed()
}

type Triples = Vec<(String, String, Term)>;

fn triple_sets() -> BoxedStrategy<Triples> {
    prop::collection::vec((iris(), iris(), objects()), 0..12).boxed()
}

fn fill(mut graph: GraphMut, triples: &Triples) {
    for (s, p, o) in triples {
        graph.insert(Term::uri(s.clone()), Term::uri(p.clone()), o.clone());
    }
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

fn graphs_equivalent(a: GraphView, b: GraphView) -> bool {
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

fn tmp(name: &str, case: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!("ssdm-psnap-{name}-{}-{case}", std::process::id()))
}

/// Case counter so concurrent proptest cases never share a path.
fn case_id() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any combination of default graph, named graphs (possibly empty),
    /// and literal shapes survives save → load into a fresh instance.
    #[test]
    fn snapshot_round_trips_random_graphs(
        default in triple_sets(),
        named_list in prop::collection::vec((iris(), triple_sets()), 0..3),
    ) {
        let path = tmp("graphs", case_id());
        let mut db = Ssdm::open(Backend::Memory);
        fill(db.dataset.graph.view_mut(), &default);
        // Duplicate names collapse into one graph, like repeated loads.
        let named: std::collections::BTreeMap<String, Triples> =
            named_list.into_iter().collect();
        for (name, triples) in &named {
            // May stay empty: empty graphs must survive too.
            fill(db.dataset.named_graph_mut(name), triples);
        }
        db.save_snapshot(&path).unwrap();

        let mut back = Ssdm::open(Backend::Memory);
        back.load_snapshot(&path).unwrap();
        prop_assert!(
            graphs_equivalent(db.dataset.graph.view(), back.dataset.graph.view()),
            "default graph diverged"
        );
        prop_assert_eq!(db.dataset.named_graphs.len(), back.dataset.named_graphs.len());
        for name in named.keys() {
            let graph = db.dataset.named_graph(name).unwrap();
            let restored = back.dataset.named_graph(name);
            prop_assert!(restored.is_some(), "named graph {} lost", name);
            prop_assert!(
                graphs_equivalent(graph, restored.unwrap()),
                "named graph {} diverged", name
            );
        }
        std::fs::remove_file(&path).ok();
    }

    /// Every term reads back through the one lexer as the same node,
    /// whichever writer wrote it: its display, N-Triples (the
    /// snapshot's graph) or a TSV cell.
    #[test]
    fn every_writer_writes_text_that_reads_back_as_the_term(o in objects()) {
        let (s, p) = (Term::uri("http://s"), Term::uri("http://p"));
        let mut graph = Graph::new();
        graph.insert(s.clone(), p.clone(), o.clone());
        let rows = vec![vec![Some(Value::Term(o.clone()))]];
        let answer = QueryResult::Solutions { vars: vec!["o".into()], rows };
        let tsv = String::from_utf8(results::serialize(&answer, Format::Tsv)).unwrap();
        let cell = tsv.lines().nth(1).expect("one row");
        let texts = [format!("{s} {p} {o} ."), ntriples::serialize(&graph), format!("{s} {p} {cell} .")];
        for text in texts {
            let mut back = Graph::new();
            turtle::parse_into(&mut back, &text).unwrap();
            consolidate_collections(&mut back);
            prop_assert_eq!(back.len(), 1, "{}", text);
            let o_back = back.iter().next().unwrap().o;
            prop_assert!(same_term(back.term(o_back), &o), "{}", text);
        }
    }

    /// Real arrays round-trip bit-for-bit — `-0.0` keeps its sign, NaN
    /// and ±INF their values.
    #[test]
    fn real_arrays_round_trip_bitwise(values in prop::collection::vec(reals(), 1..41)) {
        let path = tmp("bits", case_id());
        let mut db = Ssdm::open(Backend::Memory);
        db.dataset.graph.insert(
            Term::uri("http://s"),
            Term::uri("http://p"),
            Term::Array(NumArray::from_f64(values.clone())),
        );
        db.save_snapshot(&path).unwrap();

        let mut back = Ssdm::open(Backend::Memory);
        back.load_snapshot(&path).unwrap();
        let graph = &back.dataset.graph;
        let restored: Vec<f64> = graph
            .iter()
            .find_map(|t| match graph.term(t.o) {
                Term::Array(a) => Some(
                    (0..values.len())
                        .map(|i| a.get(&[i]).unwrap().as_f64())
                        .collect(),
                ),
                _ => None,
            })
            .expect("array triple restored");
        let got: Vec<u64> = restored.iter().map(|v| v.to_bits()).collect();
        let want: Vec<u64> = values.iter().map(|v| v.to_bits()).collect();
        prop_assert_eq!(got, want, "bit patterns diverged (values {:?})", values);
        std::fs::remove_file(&path).ok();
    }

    /// The external-array catalog round-trips over a reopened file
    /// back-end: a fresh instance on the same chunk directory restores
    /// proxies that resolve to the original data, and the zone map the
    /// store wrote, which then decides the maximum unread.
    #[test]
    fn external_catalog_round_trips_over_file_backend(
        values in prop::collection::vec(-10_000i64..10_000, 5..40),
        chunk_bytes in prop_oneof![Just(16usize), Just(64usize), Just(256usize)],
    ) {
        let case = case_id();
        let dir = tmp("chunks", case);
        let path = tmp("external", case);
        let list = values
            .iter()
            .map(|v| v.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        let zone_map = {
            let mut db = Ssdm::open(Backend::File(dir.clone()));
            db.set_externalize_threshold(4, chunk_bytes);
            db.load_turtle(&format!("<http://r> <http://data> ( {list} ) ."))
                .unwrap();
            prop_assert_eq!(db.dataset.arrays.catalog().count(), 1, "array must externalize");
            db.save_snapshot(&path).unwrap();
            let id = db.dataset.arrays.catalog().next().unwrap().array_id;
            db.dataset.arrays.zone_map(id).cloned()
        };
        let mut back = Ssdm::open(Backend::File(dir.clone()));
        back.load_snapshot(&path).unwrap();
        let id = back.dataset.arrays.catalog().next().unwrap().array_id;
        prop_assert_eq!(back.dataset.arrays.zone_map(id).cloned(), zone_map);
        let rows = back
            .query("SELECT (array_sum(?v) AS ?s) (array_count(?v) AS ?n) (array_max(?v) AS ?m) \
                    WHERE { <http://r> <http://data> ?v }")
            .unwrap()
            .into_rows()
            .unwrap();
        let sum: i64 = values.iter().sum();
        prop_assert_eq!(rows[0][0].as_ref().unwrap().to_string(), sum.to_string());
        prop_assert_eq!(
            rows[0][1].as_ref().unwrap().to_string(),
            values.len().to_string()
        );
        let max = values.iter().max().unwrap();
        prop_assert_eq!(rows[0][2].as_ref().unwrap().to_string(), max.to_string());
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir_all(&dir).ok();
    }
}
