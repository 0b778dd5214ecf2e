//! Scientific SPARQL (SciSPARQL): the query language of SSDM.
//!
//! SciSPARQL (Andrejev & Risch, ICDE 2012; Andrejev 2016) is a strict
//! superset of W3C SPARQL extended for *RDF with Arrays*: array
//! dereference and slicing syntax, array arithmetic, user-defined
//! functions as parameterized queries, lexical closures, second-order
//! array functions, and foreign functions. This crate implements the
//! full pipeline:
//!
//! * [`parser`] — lexer and recursive-descent parser producing [`ast`];
//! * [`algebra`] — translation into a logical operator tree, with
//!   rewriting (filter pushdown) and statistics-driven join ordering
//!   (the SSDM translation pipeline of thesis §5.4);
//! * [`eval`] — a pull-style executor over [`Dataset`], including
//!   property paths, grouping/aggregation, and lazy array-proxy
//!   resolution through the storage layer's APR;
//! * [`functions`] — built-in scalar and array functions, `DEFINE
//!   FUNCTION` parameterized views, closures, and foreign functions
//!   with cost annotations.
//!
//! # Quickstart
//!
//! ```
//! use scisparql::{Dataset, QueryResult};
//!
//! let mut ds = Dataset::in_memory();
//! ds.load_turtle(r#"
//!     @prefix ex: <http://example.org/> .
//!     ex:m1 ex:temperature ((18 19) (21 24)) ; ex:station "Uppsala" .
//! "#).unwrap();
//! let result = ds.query(r#"
//!     PREFIX ex: <http://example.org/>
//!     SELECT ?st (array_avg(?t[2]) AS ?row2avg)
//!     WHERE { ?m ex:temperature ?t ; ex:station ?st }
//! "#).unwrap();
//! let rows = result.into_rows().unwrap();
//! assert_eq!(rows[0][1].as_ref().unwrap().to_string(), "22.5");
//! ```

pub mod algebra;
pub mod ast;
pub mod dataset;
pub mod eval;
pub mod functions;
pub mod journal;
pub mod parser;
pub mod planner;
pub mod profile;
pub mod update;
pub mod value;

pub use dataset::{Answer, Dataset, QueryError, QueryResult};
pub use functions::{Closure, ForeignFunction, FunctionRegistry};
pub use journal::{JournalEntry, UpdateJournal};
pub use planner::{Calibration, PlannerConfig, PlannerCtx, PlannerMode};
pub use profile::{CounterSnapshot, QueryProfiler};
pub use value::Value;

/// Result alias for query processing.
pub type Result<T> = std::result::Result<T, QueryError>;
