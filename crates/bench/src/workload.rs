//! The array mini-benchmark's query generator (thesis §6.3.1).
//!
//! Generates the "typical array access patterns, including the best and
//! worst cases for each storage choice": single elements (random point
//! access), full rows (sequential, chunk-aligned), full columns
//! (regular stride — the SPD's best case over a chunked layout),
//! strided slices, and contiguous blocks.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use ssdm_array::NumArray;
use ssdm_storage::ArrayProxy;

/// The access-pattern families of the mini-benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AccessPattern {
    /// One random element.
    SingleElement,
    /// One full row (contiguous in row-major storage).
    Row,
    /// One full column (stride = row length).
    Column,
    /// Every k-th element of one row.
    StridedRow { stride: usize },
    /// Every k-th row, whole rows.
    StridedRows { stride: usize },
    /// A contiguous rows×cols block at a random origin.
    Block { rows: usize, cols: usize },
    /// The whole array.
    Whole,
}

impl AccessPattern {
    pub fn name(&self) -> String {
        match self {
            AccessPattern::SingleElement => "ELEMENT".into(),
            AccessPattern::Row => "ROW".into(),
            AccessPattern::Column => "COLUMN".into(),
            AccessPattern::StridedRow { stride } => format!("ROW/{stride}"),
            AccessPattern::StridedRows { stride } => format!("ROWS/{stride}"),
            AccessPattern::Block { rows, cols } => format!("BLOCK{rows}x{cols}"),
            AccessPattern::Whole => "WHOLE".into(),
        }
    }
}

/// A generator of concrete array views for a pattern over a fixed
/// matrix shape, with a deterministic RNG (so every strategy sees the
/// same query sequence — the paper's controlled comparison).
pub struct QueryGenerator {
    pub rows: usize,
    pub cols: usize,
    rng: StdRng,
}

impl QueryGenerator {
    pub fn new(rows: usize, cols: usize, seed: u64) -> Self {
        QueryGenerator {
            rows,
            cols,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// The test matrix itself: `rows × cols` reals with deterministic
    /// contents.
    pub fn matrix(rows: usize, cols: usize) -> NumArray {
        NumArray::from_shape_fn(&[rows, cols], |ix| {
            ((ix[0] * 31 + ix[1] * 7) as f64 * 0.25).into()
        })
    }

    /// Derive the proxy view for one instance of `pattern`.
    pub fn instance(&mut self, base: &ArrayProxy, pattern: AccessPattern) -> ArrayProxy {
        let (r, c) = (self.rows, self.cols);
        match pattern {
            AccessPattern::SingleElement => {
                let i = self.rng.gen_range(0..r);
                let j = self.rng.gen_range(0..c);
                base.subscript(0, i)
                    .and_then(|p| p.subscript(0, j))
                    .expect("in-bounds")
            }
            AccessPattern::Row => {
                let i = self.rng.gen_range(0..r);
                base.subscript(0, i).expect("in-bounds")
            }
            AccessPattern::Column => {
                let j = self.rng.gen_range(0..c);
                base.subscript(1, j).expect("in-bounds")
            }
            AccessPattern::StridedRow { stride } => {
                let i = self.rng.gen_range(0..r);
                base.subscript(0, i)
                    .and_then(|p| p.slice(0, 0, stride, c - 1))
                    .expect("in-bounds")
            }
            AccessPattern::StridedRows { stride } => {
                base.slice(0, 0, stride, r - 1).expect("in-bounds")
            }
            AccessPattern::Block { rows, cols } => {
                let rows = rows.min(r);
                let cols = cols.min(c);
                let i = self.rng.gen_range(0..=r - rows);
                let j = self.rng.gen_range(0..=c - cols);
                base.slice(0, i, 1, i + rows - 1)
                    .and_then(|p| p.slice(1, j, 1, j + cols - 1))
                    .expect("in-bounds")
            }
            AccessPattern::Whole => base.clone(),
        }
    }
}

/// The standard pattern suite used across experiments 1–3.
pub fn standard_patterns() -> Vec<AccessPattern> {
    vec![
        AccessPattern::SingleElement,
        AccessPattern::Row,
        AccessPattern::Column,
        AccessPattern::StridedRow { stride: 4 },
        AccessPattern::StridedRows { stride: 8 },
        AccessPattern::Block { rows: 16, cols: 16 },
        AccessPattern::Whole,
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use ssdm_storage::{ArrayStore, MemoryChunkStore, Request, RetrievalStrategy};

    #[test]
    fn instances_are_deterministic_per_seed() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let m = QueryGenerator::matrix(32, 32);
        let base = store.store_array(&m, 256).unwrap();
        let mut g1 = QueryGenerator::new(32, 32, 5);
        let mut g2 = QueryGenerator::new(32, 32, 5);
        for p in standard_patterns() {
            let a = g1.instance(&base, p);
            let b = g2.instance(&base, p);
            assert_eq!(a.view(), b.view(), "{}", p.name());
        }
    }

    #[test]
    fn every_pattern_resolves_correctly() {
        let mut store = ArrayStore::new(MemoryChunkStore::new());
        let m = QueryGenerator::matrix(32, 32);
        let base = store.store_array(&m, 128).unwrap();
        let mut gen = QueryGenerator::new(32, 32, 1);
        for p in standard_patterns() {
            let proxy = gen.instance(&base, p);
            let got = store.read(&[Request::new(&proxy)], RetrievalStrategy::WholeArray);
            let got = got.unwrap().remove(0).into_array().unwrap();
            // Check against the resident matrix through the same view.
            let want_addrs = proxy.view().addresses();
            let got_elems = got.elements();
            assert_eq!(got_elems.len(), want_addrs.len(), "{}", p.name());
            for (k, addr) in want_addrs.iter().enumerate() {
                let (i, j) = (addr / 32, addr % 32);
                assert_eq!(got_elems[k], m.get(&[i, j]).unwrap(), "{}", p.name());
            }
        }
    }
}
