//! Property test for the run decomposition behind the APR runner: for
//! any view, the per-chunk arithmetic runs must expand to exactly the
//! view's addresses grouped by chunk, each group in view order — that
//! order is what the per-chunk fold partials are defined over.

use std::collections::BTreeMap;

use proptest::prelude::*;
use ssdm_array::ArrayView;
use ssdm_storage::runs::ViewRuns;
use ssdm_storage::Chunking;

/// `(view position, linear address)` of every element, per chunk, in
/// view order: the bookkeeping the runs replace.
fn by_enumeration(view: &ArrayView, chunking: &Chunking) -> BTreeMap<u64, Vec<(usize, usize)>> {
    let mut groups: BTreeMap<u64, Vec<(usize, usize)>> = BTreeMap::new();
    for (at, addr) in view.addresses().into_iter().enumerate() {
        groups
            .entry((addr / chunking.elements_per_chunk()) as u64)
            .or_default()
            .push((at, addr));
    }
    groups
}

fn assert_runs_match(view: &ArrayView, chunking: &Chunking) {
    let epc = chunking.elements_per_chunk();
    let runs = ViewRuns::of(view, chunking);
    let expected = by_enumeration(view, chunking);
    assert_eq!(runs.element_count(), view.element_count(), "{view:?}");
    // Slicing, subscripting and permuting a dense array never repeat an
    // address, and the check that lets a chunk be decided knows it.
    assert!(runs.distinct(), "{view:?}");
    assert_eq!(
        runs.chunk_ids(),
        expected.keys().copied().collect::<Vec<_>>(),
        "chunk set of {view:?} at {epc} elements per chunk"
    );
    for chunk in runs.chunks() {
        let mut got = Vec::new();
        for run in runs.runs_of(chunk) {
            assert_eq!(run.chunk, chunk.chunk_id);
            for k in 0..run.count {
                let offset = run.offset(k);
                assert!(
                    offset < chunking.chunk_len(chunk.chunk_id),
                    "offset {offset} outside chunk {} of {view:?}",
                    chunk.chunk_id
                );
                assert!(chunk.span.contains(&offset));
                got.push((run.out + k, chunk.chunk_id as usize * epc + offset));
            }
        }
        let want = &expected[&chunk.chunk_id];
        assert_eq!(&got, want, "chunk {} of {view:?}", chunk.chunk_id);
        assert_eq!(chunk.elements, want.len());
        let offsets = || want.iter().map(|(_, a)| a % epc);
        assert_eq!(chunk.span.start, offsets().min().unwrap());
        assert_eq!(chunk.span.end, offsets().max().unwrap() + 1);
    }
}

/// One view transformation, with operands reduced modulo whatever the
/// view's shape allows when it is applied.
#[derive(Debug, Clone)]
enum Step {
    Slice {
        dim: usize,
        a: usize,
        b: usize,
        stride: usize,
    },
    Subscript {
        dim: usize,
        index: usize,
    },
    Permute {
        rotate: usize,
    },
    Transpose,
}

fn steps() -> impl Strategy<Value = Vec<Step>> {
    let step = (0usize..4, 0usize..3, 0usize..64, 0usize..64, 1usize..12).prop_map(
        |(kind, dim, a, b, stride)| match kind {
            0 => Step::Slice { dim, a, b, stride },
            1 => Step::Subscript { dim, index: a },
            2 => Step::Permute { rotate: a },
            _ => Step::Transpose,
        },
    );
    prop::collection::vec(step, 0..5)
}

fn apply(view: ArrayView, step: &Step) -> ArrayView {
    let n = view.ndims();
    if n == 0 {
        return view;
    }
    match *step {
        Step::Slice { dim, a, b, stride } => {
            let dim = dim % n;
            let size = view.dims()[dim].size;
            if size == 0 {
                return view;
            }
            let (a, b) = (a % size, b % size);
            view.slice(dim, a.min(b), stride, a.max(b)).unwrap()
        }
        Step::Subscript { dim, index } => {
            let dim = dim % n;
            let size = view.dims()[dim].size;
            if size == 0 {
                return view;
            }
            view.subscript(dim, index % size).unwrap()
        }
        Step::Permute { rotate } => {
            let perm: Vec<usize> = (0..n).map(|i| (i + rotate) % n).collect();
            view.permute(&perm).unwrap()
        }
        Step::Transpose => view.transpose(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn runs_expand_to_addresses_grouped_by_chunk(
        shape in prop::collection::vec(0usize..7, 1..4),
        // One-element chunks, sizes that leave a ragged last chunk, and
        // one larger than most of the arrays.
        epc in prop_oneof![Just(1usize), Just(2), Just(3), Just(5), Just(8), Just(64)],
        steps in steps(),
    ) {
        let total: usize = shape.iter().product();
        let chunking = Chunking::new(epc * 8, total);
        let mut view = ArrayView::contiguous(&shape);
        for step in &steps {
            view = apply(view, step);
        }
        assert_runs_match(&view, &chunking);
    }
}

#[test]
fn zero_size_dims_have_no_runs() {
    let chunking = Chunking::new(64, 0);
    for shape in [&[0usize][..], &[0, 5], &[3, 0, 2]] {
        let runs = ViewRuns::of(&ArrayView::contiguous(shape), &chunking);
        assert!(runs.chunks().is_empty());
        assert_eq!(runs.element_count(), 0);
    }
    // A zero-size dim produced by nothing but the shape, next to a
    // populated array.
    assert_runs_match(&ArrayView::contiguous(&[4, 0]), &Chunking::new(64, 100));
}

#[test]
fn scalar_views_are_one_single_element_run() {
    let chunking = Chunking::new(24, 30);
    let view = ArrayView::scalar_at(17);
    assert_runs_match(&view, &chunking);
    let runs = ViewRuns::of(&view, &chunking);
    assert_eq!(runs.chunk_ids(), vec![5]);
    assert_eq!(runs.chunks()[0].span, 2..3);
}

#[test]
fn stride_longer_than_a_chunk_degrades_to_one_element_runs() {
    // A column of a 12x9 matrix over 4-element chunks: stride 9.
    let chunking = Chunking::new(32, 108);
    let column = ArrayView::contiguous(&[12, 9]).subscript(1, 4).unwrap();
    assert_runs_match(&column, &chunking);
    let runs = ViewRuns::of(&column, &chunking);
    assert_eq!(runs.chunks().len(), 12);
    for chunk in runs.chunks() {
        let [run] = runs.runs_of(chunk) else {
            panic!("one run per chunk expected");
        };
        assert_eq!((run.count, run.stride), (1, 9));
    }
    // The transposed matrix over one-row chunks revisits every chunk
    // once per column.
    let chunking = Chunking::new(72, 108);
    let transposed = ArrayView::contiguous(&[12, 9]).transpose();
    assert_runs_match(&transposed, &chunking);
    let runs = ViewRuns::of(&transposed, &chunking);
    assert!(runs.chunks().iter().all(|c| runs.runs_of(c).len() == 9));
}

#[test]
fn contiguous_views_collapse_to_one_run_per_chunk() {
    let chunking = Chunking::new(64, 5 * 6 * 7);
    let whole = ArrayView::contiguous(&[5, 6, 7]);
    assert_runs_match(&whole, &chunking);
    let runs = ViewRuns::of(&whole, &chunking);
    assert_eq!(runs.chunks().len(), 27, "210 elements, 8 per chunk");
    assert!(runs.chunks().iter().all(|c| runs.runs_of(c).len() == 1));
}
