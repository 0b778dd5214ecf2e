//! Property-based tests for the array data model invariants.

use proptest::prelude::*;
use ssdm_array::{ArrayView, Num, NumArray, Subscript};

/// Strategy: a shape with 1..=3 dimensions, each of extent 1..=8.
fn shapes() -> impl Strategy<Value = Vec<usize>> {
    prop::collection::vec(1usize..=8, 1..=3)
}

/// Strategy: a shape plus matching flat i64 data.
fn arrays() -> impl Strategy<Value = NumArray> {
    shapes().prop_flat_map(|shape| {
        let n: usize = shape.iter().product();
        prop::collection::vec(-1000i64..1000, n)
            .prop_map(move |data| NumArray::from_i64_shaped(data, &shape).unwrap())
    })
}

proptest! {
    /// Materializing a view never changes its logical contents.
    #[test]
    fn materialize_preserves_elements(a in arrays()) {
        let m = a.materialize();
        prop_assert_eq!(a.shape(), m.shape());
        prop_assert!(a.array_eq(&m));
    }

    /// Transposing twice is the identity on 2-D arrays.
    #[test]
    fn transpose_involution(a in arrays()) {
        let t2 = a.transpose().transpose();
        prop_assert!(t2.array_eq(&a));
    }

    /// Subscripting every index of dim 0 and re-concatenating elements
    /// reproduces row-major element order.
    #[test]
    fn subscript_partitions_elements(a in arrays()) {
        prop_assume!(a.ndims() >= 2);
        let mut collected = Vec::new();
        for i in 0..a.shape()[0] {
            collected.extend(a.subscript(0, i).unwrap().elements());
        }
        prop_assert_eq!(collected, a.elements());
    }

    /// The address function agrees with the odometer traversal order.
    #[test]
    fn addresses_match_explicit_indexing(shape in shapes()) {
        let v = ArrayView::contiguous(&shape);
        let addrs = v.addresses();
        // Walk the odometer manually.
        let count: usize = shape.iter().product();
        let mut ix = vec![0usize; shape.len()];
        for (k, addr) in addrs.iter().enumerate().take(count) {
            prop_assert_eq!(*addr, v.address(&ix).unwrap(), "at step {}", k);
            for d in (0..shape.len()).rev() {
                ix[d] += 1;
                if ix[d] < shape[d] { break; }
                ix[d] = 0;
            }
        }
    }

    /// Slicing then materializing equals filtering elements by subscript.
    #[test]
    fn slice_semantics(len in 1usize..40, lo in 0usize..40, stride in 1usize..5, hi in 0usize..40) {
        let lo = lo.min(len - 1);
        let hi = hi.min(len - 1);
        prop_assume!(lo <= hi);
        let a = NumArray::from_i64((0..len as i64).collect());
        let s = a.slice(0, lo, stride, hi).unwrap();
        let expected: Vec<Num> = (lo..=hi).step_by(stride).map(|i| Num::Int(i as i64)).collect();
        prop_assert_eq!(s.elements(), expected);
    }

    /// Element-wise addition commutes and matches scalar arithmetic.
    #[test]
    fn add_commutes(a in arrays()) {
        let b = a.scalar_mul(Num::Int(3)).unwrap();
        let ab = a.add(&b).unwrap();
        let ba = b.add(&a).unwrap();
        prop_assert!(ab.array_eq(&ba));
        // a + 3a == 4a element-wise
        let quad = a.scalar_mul(Num::Int(4)).unwrap();
        prop_assert!(ab.array_eq(&quad));
    }

    /// Aggregate sum equals the sum of the element vector.
    #[test]
    fn sum_matches_elements(a in arrays()) {
        let s = a.sum().unwrap().as_i64();
        let expected: i64 = a.elements().iter().map(|n| n.as_i64()).sum();
        prop_assert_eq!(s, expected);
    }

    /// aggregate_dim then aggregate equals whole-array aggregate for sums.
    #[test]
    fn dim_aggregate_composes(a in arrays()) {
        prop_assume!(a.ndims() >= 2);
        let per_row = a.aggregate_dim(ssdm_array::AggregateOp::Sum, a.ndims() - 1).unwrap();
        prop_assert_eq!(per_row.sum().unwrap().as_i64(), a.sum().unwrap().as_i64());
    }

    /// Dereference with full index lists hits the same element as get1.
    #[test]
    fn dereference_matches_get1(a in arrays(), seed in 0u64..1000) {
        let shape = a.shape();
        let ix1: Vec<i64> = shape.iter().enumerate()
            .map(|(d, &s)| 1 + ((seed >> (4 * d)) as usize % s) as i64)
            .collect();
        let subs: Vec<Subscript> = ix1.iter().map(|&i| Subscript::Index(i)).collect();
        let d = a.dereference(&subs).unwrap();
        prop_assert_eq!(d.scalar_value().unwrap(), a.get1(&ix1).unwrap());
    }

    /// map with the identity function preserves the array.
    #[test]
    fn map_identity(a in arrays()) {
        let m = a.map(&Ok).unwrap();
        prop_assert!(m.array_eq(&a));
    }

    /// Serialization of a materialized array round-trips.
    #[test]
    fn serialize_roundtrip(a in arrays()) {
        let m = a.materialize();
        let bytes = m.data().serialize_range(0, m.element_count());
        let back = ssdm_array::ArrayData::deserialize(m.numeric_type(), &bytes).unwrap();
        let rebuilt = NumArray::from_data(back, &m.shape()).unwrap();
        prop_assert!(rebuilt.array_eq(&a));
    }
}
