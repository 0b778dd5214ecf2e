//! Numeric multidimensional arrays for *RDF with Arrays*.
//!
//! This crate implements the array data model of Scientific SPARQL
//! (Andrejev, "Semantic Web Queries over Scientific Data", 2016, ch. 4–5):
//! dense numeric multidimensional arrays of integers or reals that can be
//! attached as values in RDF triples and manipulated by SciSPARQL queries.
//!
//! The central type is [`NumArray`]: a shared, immutable buffer of elements
//! ([`ArrayData`]) combined with a *logical view* ([`ArrayView`]) that maps
//! logical subscripts to linear buffer addresses. All array
//! *transformations* — subscripting a dimension, slicing with
//! `lo:stride:hi` bounds, transposing, projecting — are O(1) descriptor
//! rewrites that never copy elements, mirroring SSDM's lazy array
//! processing (thesis §5.2.2). Elements are only touched when a query
//! actually reads them, and [`NumArray::materialize`] produces a compact
//! contiguous copy on demand.
//!
//! Element-wise arithmetic, comparisons, aggregates, and the second-order
//! functions of the Array Algebra (`map`, `condense`, `build`; thesis
//! §4.3.1) live on [`NumArray`] directly.
//!
//! # Example
//!
//! ```
//! use ssdm_array::NumArray;
//!
//! // A 3x4 integer matrix 0..12 laid out in row-major order.
//! let a = NumArray::from_shape_fn(&[3, 4], |ix| ((ix[0] * 4 + ix[1]) as i64).into());
//! // Row 1 (0-based) as an O(1) view.
//! let row = a.subscript(0, 1).unwrap();
//! assert_eq!(row.shape(), &[4]);
//! assert_eq!(row.get(&[2]).unwrap().as_i64(), 6);
//! // Element-wise arithmetic promotes to reals when needed.
//! let scaled = row.scalar_mul(0.5.into()).unwrap();
//! assert_eq!(scaled.get(&[0]).unwrap().as_f64(), 2.0);
//! ```

mod agg;
mod data;
mod dtype;
mod error;
mod fmt;
pub mod kernel;
mod num_array;
mod ops;
pub mod pool;
mod second_order;
mod view;

pub use agg::AggregateOp;
pub use data::{ArrayData, Buffer};
pub use dtype::{Num, NumericType};
pub use error::{ArrayError, Result};
pub use fmt::{write_lexical, write_num, XSD_DOUBLE};
pub use kernel::{compute_stats, reset_compute_stats, ComputeStats};
pub use num_array::{Nested, NumArray, Subscript};
pub use ops::BinOp;
pub use view::{ArrayView, Dim};
