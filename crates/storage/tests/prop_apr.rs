//! Property tests: every retrieval strategy over every back-end must
//! resolve any view of any stored array to the same elements a resident
//! array would produce.

use proptest::prelude::*;
use ssdm_array::{AggregateOp, NumArray};
use ssdm_storage::{
    spd::SpdOptions, ArrayStore, ChunkStore, MemoryChunkStore, RelChunkStore, Request,
    RetrievalStrategy,
};

mod common;
use common::one;

#[derive(Debug, Clone)]
struct Scenario {
    rows: usize,
    cols: usize,
    chunk_bytes: usize,
    /// Optional row subscript, else a row slice.
    fix_row: Option<usize>,
    col_lo: usize,
    col_stride: usize,
    col_hi: usize,
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (2usize..12, 2usize..12, 1usize..6).prop_flat_map(|(rows, cols, chunk_elems)| {
        (prop::option::of(0..rows), 0..cols, 1usize..4, 0..cols).prop_map(
            move |(fix_row, a, stride, b)| Scenario {
                rows,
                cols,
                chunk_bytes: chunk_elems * 8,
                fix_row,
                col_lo: a.min(b),
                col_stride: stride,
                col_hi: a.max(b),
            },
        )
    })
}

fn check<S: ChunkStore>(backend: S, sc: &Scenario) {
    let mut store = ArrayStore::new(backend);
    let m = NumArray::from_i64_shaped(
        (0..(sc.rows * sc.cols) as i64).collect(),
        &[sc.rows, sc.cols],
    )
    .unwrap();
    let proxy = store.store_array(&m, sc.chunk_bytes).unwrap();
    // Build the same view on proxy and resident array.
    let (view_proxy, view_resident) = match sc.fix_row {
        Some(r) => (
            proxy
                .subscript(0, r)
                .unwrap()
                .slice(0, sc.col_lo, sc.col_stride, sc.col_hi)
                .unwrap(),
            m.subscript(0, r)
                .unwrap()
                .slice(0, sc.col_lo, sc.col_stride, sc.col_hi)
                .unwrap(),
        ),
        None => (
            proxy.slice(1, sc.col_lo, sc.col_stride, sc.col_hi).unwrap(),
            m.slice(1, sc.col_lo, sc.col_stride, sc.col_hi).unwrap(),
        ),
    };
    let strategies = [
        RetrievalStrategy::Single,
        RetrievalStrategy::BufferedIn { buffer_size: 3 },
        RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        },
        RetrievalStrategy::WholeArray,
    ];
    for s in strategies {
        let got = one(&mut store, Request::new(&view_proxy), s).unwrap();
        let got = got.into_array().unwrap();
        assert!(
            got.array_eq(&view_resident),
            "strategy {} diverged: {got} vs {view_resident}",
            s.name()
        );
        if view_resident.element_count() > 0 {
            let sum = Request::new(&view_proxy).fold(AggregateOp::Sum);
            let agg = one(&mut store, sum, s).unwrap().total().unwrap();
            assert_eq!(agg, view_resident.sum().unwrap(), "sum via {}", s.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn memory_backend_matches_resident(sc in scenarios()) {
        check(MemoryChunkStore::new(), &sc);
    }

    #[test]
    fn relational_backend_matches_resident(sc in scenarios()) {
        check(RelChunkStore::open_memory().unwrap(), &sc);
    }
}
