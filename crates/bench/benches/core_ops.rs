//! Microbenchmarks of the core building blocks: array operations,
//! B+-tree access, SPD planning, Turtle parsing, and query parsing /
//! optimization — the components whose costs compose into the
//! experiment-level numbers.

use criterion::{criterion_group, criterion_main, Criterion};
use ssdm_array::{AggregateOp, NumArray};
use ssdm_storage::spd::{self, SpdOptions};

fn bench_array_ops(c: &mut Criterion) {
    let a = NumArray::from_shape_fn(&[256, 256], |ix| ((ix[0] * 256 + ix[1]) as f64).into());
    let b = a.scalar_mul(2.0.into()).unwrap();
    let mut g = c.benchmark_group("array");
    g.bench_function("elementwise_add_64k", |bch| {
        bch.iter(|| std::hint::black_box(a.add(&b).unwrap()))
    });
    g.bench_function("aggregate_sum_64k", |bch| {
        bch.iter(|| std::hint::black_box(a.aggregate(AggregateOp::Sum).unwrap()))
    });
    g.bench_function("transpose_materialize_64k", |bch| {
        bch.iter(|| std::hint::black_box(a.transpose().materialize()))
    });
    g.bench_function("column_view_aggregate", |bch| {
        let col = a.subscript(1, 17).unwrap();
        bch.iter(|| std::hint::black_box(col.aggregate(AggregateOp::Sum).unwrap()))
    });
    g.finish();
}

fn bench_btree(c: &mut Criterion) {
    use relstore::{Db, DbOptions, Key};
    let mut db = Db::open_memory(DbOptions::default()).unwrap();
    for k in 0..10_000u64 {
        db.put(Key::new(1, k), &k.to_le_bytes()).unwrap();
    }
    let mut g = c.benchmark_group("relstore");
    g.bench_function("point_get", |b| {
        let mut k = 0u64;
        b.iter(|| {
            k = (k * 2654435761 + 1) % 10_000;
            std::hint::black_box(db.get(Key::new(1, k)).unwrap())
        })
    });
    g.bench_function("range_100", |b| {
        let mut lo = 0u64;
        b.iter(|| {
            lo = (lo + 997) % 9_900;
            std::hint::black_box(db.get_range(1, lo, lo + 99).unwrap())
        })
    });
    g.finish();
}

fn bench_spd(c: &mut Criterion) {
    let strided: Vec<u64> = (0..4096).map(|k| k * 3).collect();
    let random: Vec<u64> = (0..4096u64).map(|k| (k * k * 31 + 7) % 100_000).collect();
    let mut g = c.benchmark_group("spd");
    g.bench_function("plan_strided_4k", |b| {
        b.iter(|| std::hint::black_box(spd::plan(&strided, SpdOptions::default())))
    });
    g.bench_function("plan_random_4k", |b| {
        b.iter(|| std::hint::black_box(spd::plan(&random, SpdOptions::default())))
    });
    g.finish();
}

fn bench_parsing(c: &mut Criterion) {
    // Turtle parsing throughput with collection consolidation.
    let mut turtle = String::from("@prefix ex: <http://e#> .\n");
    for i in 0..200 {
        turtle.push_str(&format!(
            "ex:s{i} ex:p {i} ; ex:label \"node {i}\" ; ex:vec (1 2 3 4 5 6 7 8) .\n"
        ));
    }
    let query = r#"
        PREFIX ex: <http://e#>
        SELECT ?s (array_avg(?v[1:2:7]) AS ?m) WHERE {
            ?s ex:p ?x ; ex:vec ?v
            OPTIONAL { ?s ex:label ?l }
            FILTER (?x > 10 && ?x < 100)
        } ORDER BY DESC(?m) LIMIT 10"#;
    let mut g = c.benchmark_group("parse");
    g.bench_function("turtle_200_subjects", |b| {
        b.iter(|| {
            let mut graph = ssdm_rdf::Graph::new();
            ssdm_rdf::turtle::parse_into(&mut graph, &turtle).unwrap();
            std::hint::black_box(graph)
        })
    });
    g.bench_function("scisparql_query", |b| {
        b.iter(|| std::hint::black_box(scisparql::parser::parse(query).unwrap()))
    });
    // Translation + optimization against a loaded graph.
    let mut graph = ssdm_rdf::Graph::new();
    ssdm_rdf::turtle::parse_into(&mut graph, &turtle).unwrap();
    let scisparql::ast::Statement::Select(q) = scisparql::parser::parse(query).unwrap() else {
        unreachable!()
    };
    let ctx = scisparql::PlannerCtx::new(&graph);
    g.bench_function("optimize_plan", |b| {
        b.iter(|| {
            std::hint::black_box(scisparql::algebra::optimize_with(
                scisparql::algebra::translate(&q.pattern),
                &ctx,
            ))
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20).measurement_time(std::time::Duration::from_secs(2)).warm_up_time(std::time::Duration::from_millis(300));
    targets = bench_array_ops, bench_btree, bench_spd, bench_parsing
}
criterion_main!(benches);
