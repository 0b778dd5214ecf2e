//! Per-chunk arithmetic runs of a view.
//!
//! A strided view intersected with a 1-D chunk is an arithmetic
//! progression: the regularity the Sequence Pattern Detector looks for
//! across chunk ids at run time (thesis §6.2.5) is known *statically*
//! from the strides inside one view. [`ViewRuns`] therefore describes
//! everything a view touches as runs `(first offset, stride, count)`
//! grouped by chunk, computed from the view's dims without visiting an
//! element address. The APR runner derives the needed chunk set from
//! the runs, prunes it against the zone map, and only then walks
//! elements — inside the surviving chunks.
//!
//! A run never leaves its chunk, its elements are consecutive in the
//! view's logical (row-major) order, and the runs of one chunk are kept
//! in that order, so expanding a chunk's runs yields exactly the view's
//! addresses that fall in the chunk, in view order — the order the
//! per-chunk fold partials are defined over.
//!
//! The runs follow the view's innermost dimension (after dropping
//! one-element dimensions and merging dimensions that are contiguous
//! with each other), so slices, strided slices and tiles cost one run
//! per row and chunk crossed. A view whose innermost stride is at least
//! a chunk long — a transposed matrix whose rows are one chunk each —
//! degrades to one-element runs: still correct, but no cheaper than
//! enumerating addresses.

use std::ops::Range;

use ssdm_array::{ArrayView, Dim};

use crate::chunks::Chunking;

/// `count` elements of one chunk at offsets `first, first + stride, …`
/// (in elements from the chunk's start), occupying positions
/// `out .. out + count` of the view's logical order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Run {
    pub chunk: u64,
    pub first: usize,
    pub stride: isize,
    pub count: usize,
    pub out: usize,
}

impl Run {
    /// In-chunk offset of the run's `k`-th element.
    pub fn offset(&self, k: usize) -> usize {
        (self.first as isize + k as isize * self.stride) as usize
    }

    /// The in-chunk offsets the run reads lie in this half-open span.
    fn span(&self) -> Range<usize> {
        let last = self.offset(self.count - 1);
        self.first.min(last)..self.first.max(last) + 1
    }
}

/// The runs of one chunk.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkRuns {
    pub chunk_id: u64,
    /// Elements the view reads from this chunk.
    pub elements: usize,
    /// The in-chunk offsets the runs read lie in this half-open span:
    /// what a decoder has to produce, and how far it has to get.
    pub span: Range<usize>,
    runs: Range<usize>,
}

/// Every run of a view over a chunked array, grouped by chunk in
/// ascending chunk order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRuns {
    runs: Vec<Run>,
    chunks: Vec<ChunkRuns>,
    elements: usize,
    distinct: bool,
}

impl ViewRuns {
    pub fn of(view: &ArrayView, chunking: &Chunking) -> ViewRuns {
        let elements = view.element_count();
        let mut runs = Vec::new();
        let mut distinct = true;
        if elements > 0 {
            let dims = merged_dims(view.dims());
            distinct = distinct_addresses(&dims);
            let (inner, outer) = match dims.split_last() {
                Some((inner, outer)) => (*inner, outer),
                None => (Dim { size: 1, stride: 0 }, &[][..]),
            };
            let epc = chunking.elements_per_chunk();
            let mut out = 0;
            for_each_row(view.offset(), outer, |base| {
                split_row(base, inner, epc, &mut out, &mut runs);
            });
        }
        // Stable, so each chunk keeps its runs in view order; ascending
        // views arrive sorted already.
        runs.sort_by_key(|r| r.chunk);
        let mut chunks: Vec<ChunkRuns> = Vec::new();
        for (i, run) in runs.iter().enumerate() {
            match chunks.last_mut() {
                Some(c) if c.chunk_id == run.chunk => {
                    let span = run.span();
                    c.elements += run.count;
                    c.span = c.span.start.min(span.start)..c.span.end.max(span.end);
                    c.runs.end = i + 1;
                }
                _ => chunks.push(ChunkRuns {
                    chunk_id: run.chunk,
                    elements: run.count,
                    span: run.span(),
                    runs: i..i + 1,
                }),
            }
        }
        ViewRuns {
            runs,
            chunks,
            elements,
            distinct,
        }
    }

    /// Whether the view provably addresses no element twice, so a chunk
    /// it reads `chunk_len` elements of is read whole.
    pub fn distinct(&self) -> bool {
        self.distinct
    }

    /// Elements the view addresses (duplicates of a zero-stride view
    /// counted each time).
    pub fn element_count(&self) -> usize {
        self.elements
    }

    /// The touched chunks, ascending by id.
    pub fn chunks(&self) -> &[ChunkRuns] {
        &self.chunks
    }

    /// Ids of the touched chunks, ascending.
    pub fn chunk_ids(&self) -> Vec<u64> {
        self.chunks.iter().map(|c| c.chunk_id).collect()
    }

    /// Position of `chunk_id` in [`chunks`](Self::chunks), if touched.
    pub fn position(&self, chunk_id: u64) -> Option<usize> {
        self.chunks
            .binary_search_by_key(&chunk_id, |c| c.chunk_id)
            .ok()
    }

    /// The runs of one chunk, in view order.
    pub fn runs_of(&self, chunk: &ChunkRuns) -> &[Run] {
        &self.runs[chunk.runs.clone()]
    }

    /// Drop every chunk `keep` rejects (zone-map pruning); returns how
    /// many were dropped. The runs of dropped chunks stay allocated but
    /// unreachable.
    pub fn retain_chunks(&mut self, mut keep: impl FnMut(u64) -> bool) -> usize {
        let before = self.chunks.len();
        self.chunks.retain(|c| keep(c.chunk_id));
        before - self.chunks.len()
    }
}

/// The view's dims with one-element dims dropped and adjacent dims
/// merged where stepping the outer one continues the inner one's
/// progression — a contiguous view collapses to a single dim.
fn merged_dims(dims: &[Dim]) -> Vec<Dim> {
    let mut out: Vec<Dim> = Vec::with_capacity(dims.len());
    for &d in dims.iter().filter(|d| d.size != 1) {
        out.push(d);
    }
    let mut i = out.len();
    while i >= 2 {
        i -= 1;
        let inner = out[i];
        if out[i - 1].stride == inner.stride * inner.size as isize {
            out[i - 1] = Dim {
                size: out[i - 1].size * inner.size,
                stride: inner.stride,
            };
            out.remove(i);
        }
    }
    out
}

/// Whether no two positions of a view with these merged dims share an
/// address: taken by ascending stride magnitude, every dim steps past
/// the farthest address the smaller ones reach. Sufficient, not
/// necessary; a zero stride fails it, and a view sliced, subscripted or
/// permuted out of a dense array always passes.
fn distinct_addresses(dims: &[Dim]) -> bool {
    let mut steps: Vec<(usize, usize)> = dims
        .iter()
        .map(|d| (d.stride.unsigned_abs(), d.size))
        .collect();
    steps.sort_unstable();
    let mut reach = 0usize;
    steps.iter().all(|&(stride, size)| {
        let past = stride > reach;
        reach = reach.saturating_add(stride.saturating_mul(size - 1));
        past
    })
}

/// Call `f(base address)` for every combination of `outer` subscripts,
/// in row-major order.
fn for_each_row(offset: usize, outer: &[Dim], mut f: impl FnMut(isize)) {
    let mut ix = vec![0usize; outer.len()];
    let mut base = offset as isize;
    loop {
        f(base);
        let mut d = outer.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            ix[d] += 1;
            base += outer[d].stride;
            if ix[d] < outer[d].size {
                break;
            }
            base -= outer[d].size as isize * outer[d].stride;
            ix[d] = 0;
        }
    }
}

/// Split one row `base, base + stride, …` of `inner.size` elements at
/// the chunk boundaries it crosses.
fn split_row(base: isize, inner: Dim, epc: usize, out: &mut usize, runs: &mut Vec<Run>) {
    let mut k = 0;
    while k < inner.size {
        let addr = (base + k as isize * inner.stride) as usize;
        let chunk = addr / epc;
        let first = addr - chunk * epc;
        let in_chunk = match inner.stride {
            0 => inner.size,
            s if s > 0 => (epc - 1 - first) / s as usize + 1,
            s => first / s.unsigned_abs() + 1,
        };
        let count = in_chunk.min(inner.size - k);
        runs.push(Run {
            chunk: chunk as u64,
            first,
            stride: inner.stride,
            count,
            out: *out,
        });
        *out += count;
        k += count;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn expand(runs: &ViewRuns, epc: usize) -> Vec<(usize, usize)> {
        let mut all = Vec::new();
        for c in runs.chunks() {
            for r in runs.runs_of(c) {
                for k in 0..r.count {
                    all.push((r.out + k, c.chunk_id as usize * epc + r.offset(k)));
                }
            }
        }
        all.sort_unstable();
        all
    }

    #[test]
    fn tile_rows_span_their_columns_only() {
        // Rows 2..=4, columns 3..=5 of a 8x8 matrix, one row per chunk.
        let chunking = Chunking::new(64, 64);
        let view = ArrayView::contiguous(&[8, 8])
            .slice(0, 2, 1, 4)
            .unwrap()
            .slice(1, 3, 1, 5)
            .unwrap();
        let runs = ViewRuns::of(&view, &chunking);
        assert_eq!(runs.chunk_ids(), vec![2, 3, 4]);
        for c in runs.chunks() {
            assert_eq!((c.elements, c.span.clone()), (3, 3..6));
        }
    }

    #[test]
    fn negative_and_zero_strides_expand_exactly() {
        let chunking = Chunking::new(24, 30);
        for dims in [
            vec![Dim {
                size: 7,
                stride: -4,
            }],
            vec![Dim { size: 5, stride: 0 }],
            vec![
                Dim { size: 3, stride: 7 },
                Dim {
                    size: 4,
                    stride: -2,
                },
            ],
        ] {
            let view = ArrayView::from_parts(28, dims);
            let runs = ViewRuns::of(&view, &chunking);
            let got: Vec<usize> = expand(&runs, 3).into_iter().map(|(_, a)| a).collect();
            assert_eq!(got, view.addresses(), "{view:?}");
            assert_eq!(runs.element_count(), view.element_count());
        }
    }

    #[test]
    fn distinct_is_claimed_only_for_views_without_a_repeated_address() {
        let chunking = Chunking::new(24, 64);
        for (dims, distinct) in [
            (vec![Dim { size: 5, stride: 0 }], false),
            (
                vec![Dim {
                    size: 7,
                    stride: -4,
                }],
                true,
            ),
            (
                vec![
                    Dim { size: 3, stride: 7 },
                    Dim {
                        size: 4,
                        stride: -2,
                    },
                ],
                true,
            ),
            // Overlapping windows: addresses 0 1 2, 1 2 3.
            (
                vec![Dim { size: 2, stride: 1 }, Dim { size: 3, stride: 1 }],
                false,
            ),
            // A stride that skips past its inner dim: 0 1 5 6.
            (
                vec![Dim { size: 2, stride: 5 }, Dim { size: 2, stride: 1 }],
                true,
            ),
        ] {
            let view = ArrayView::from_parts(28, dims);
            let runs = ViewRuns::of(&view, &chunking);
            assert_eq!(runs.distinct(), distinct, "{view:?}");
            let mut addresses = view.addresses();
            addresses.sort_unstable();
            addresses.dedup();
            assert_eq!(addresses.len() == view.element_count(), distinct);
        }
    }

    #[test]
    fn retain_chunks_counts_what_it_drops() {
        let chunking = Chunking::new(64, 100);
        let mut runs = ViewRuns::of(&ArrayView::contiguous(&[100]), &chunking);
        assert_eq!(runs.retain_chunks(|c| c % 2 == 0), 6);
        assert_eq!(runs.chunk_ids(), vec![0, 2, 4, 6, 8, 10, 12]);
        assert_eq!(runs.position(4), Some(2));
        assert_eq!(runs.position(5), None);
    }

    /// The runs of a view over one chunk of `elements` elements.
    fn runs_in_one_chunk(view: &ArrayView, elements: usize) -> Vec<Run> {
        let runs = ViewRuns::of(view, &Chunking::new(8 * elements, elements));
        let got: Vec<usize> = expand(&runs, elements)
            .into_iter()
            .map(|(_, a)| a)
            .collect();
        assert_eq!(got, view.addresses(), "{view:?}");
        runs.chunks()
            .iter()
            .flat_map(|c| runs.runs_of(c))
            .copied()
            .collect()
    }

    #[test]
    fn contiguous_view_is_one_run() {
        let runs = runs_in_one_chunk(&ArrayView::contiguous(&[3, 4]), 12);
        assert_eq!(
            runs,
            [Run {
                chunk: 0,
                first: 0,
                stride: 1,
                count: 12,
                out: 0
            }]
        );
    }

    #[test]
    fn column_view_is_strided_run() {
        let view = ArrayView::contiguous(&[3, 4]).subscript(1, 2).unwrap();
        let runs = runs_in_one_chunk(&view, 12);
        assert_eq!(
            runs,
            [Run {
                chunk: 0,
                first: 2,
                stride: 4,
                count: 3,
                out: 0
            }]
        );
    }

    #[test]
    fn row_slice_of_matrix_makes_runs_per_row() {
        // rows 0..2, cols 1..=2 of a 3x4 matrix: addresses 1,2,5,6,9,10
        let view = ArrayView::contiguous(&[3, 4]).slice(1, 1, 1, 2).unwrap();
        let runs = runs_in_one_chunk(&view, 12);
        let shape: Vec<(usize, usize, usize)> =
            runs.iter().map(|r| (r.first, r.count, r.out)).collect();
        assert_eq!(shape, [(1, 2, 0), (5, 2, 2), (9, 2, 4)]);
    }

    #[test]
    fn transposed_view_descending_addresses_split() {
        // logical order addresses: 0, 2, 1, 3 — the descent 2->1 splits.
        let runs = runs_in_one_chunk(&ArrayView::contiguous(&[2, 2]).transpose(), 4);
        assert_eq!(runs.len(), 2);
        assert!(runs.iter().all(|r| r.stride == 2 && r.count == 2));
    }

    #[test]
    fn empty_view() {
        let runs = ViewRuns::of(&ArrayView::contiguous(&[0]), &Chunking::new(64, 0));
        assert!(runs.chunks().is_empty());
        assert_eq!(runs.element_count(), 0);
    }

    #[test]
    fn scalar_view_single_run() {
        let runs = runs_in_one_chunk(&ArrayView::scalar_at(5), 8);
        assert_eq!(
            runs,
            [Run {
                chunk: 0,
                first: 5,
                stride: 0,
                count: 1,
                out: 0
            }]
        );
    }
}
