//! *RDF with Arrays*: the data model of Scientific SPARQL.
//!
//! This crate implements the RDF graph model extended with numeric
//! multidimensional arrays as node values (thesis ch. 5): terms
//! ([`Term`]), an interning dictionary ([`Dictionary`]), an indexed
//! in-memory triple store with per-predicate statistics ([`Graph`]),
//! namespace handling, and Turtle / N-Triples parsing and serialization
//! including the condensed collection syntax `((1 2) (3 4))` that SSDM
//! consolidates into array values.
//!
//! # Example
//!
//! ```
//! use ssdm_rdf::{Graph, Term, turtle};
//!
//! let mut g = Graph::new();
//! turtle::parse_into(
//!     &mut g,
//!     r#"@prefix foaf: <http://xmlns.com/foaf/0.1/> .
//!        _:a foaf:name "Alice" ; foaf:knows _:b .
//!        _:b foaf:name "Bob" ."#,
//! ).unwrap();
//! assert_eq!(g.len(), 3);
//! let name = g.dictionary().lookup(&Term::uri("http://xmlns.com/foaf/0.1/name")).unwrap();
//! assert_eq!(g.match_pattern(None, Some(name), None).count(), 2);
//! ```

pub mod collections;
mod dictionary;
mod graph;
pub mod lex;
mod namespaces;
pub mod ntriples;
pub mod stats;
mod term;
pub mod turtle;

pub use collections::{consolidate_collections, ConsolidationReport};
pub use dictionary::{Dictionary, TermId};
pub use graph::{Graph, GraphIndex, GraphMut, GraphView};
pub use graph::{GraphStats, Matches, PredicateStats, Triple};
pub use namespaces::{Namespaces, RDF_FIRST, RDF_NIL, RDF_REST, RDF_TYPE, XSD_DOUBLE, XSD_INTEGER};
pub use stats::{DistinctSketch, NumericHistogram, ObjectStats};
pub use term::{RdfError, Term};
