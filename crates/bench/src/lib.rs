//! Benchmark harness for the SciSPARQL evaluation (thesis ch. 6).
//!
//! [`workload`] implements the array mini-benchmark's query generator
//! (§6.3.1): parameterized access patterns over stored 2-D arrays.
//! [`runner`] executes a pattern against an [`ssdm_storage::ArrayStore`]
//! under a chosen retrieval strategy and collects the measurements the
//! thesis reports: wall time, back-end statements, chunks and bytes
//! fetched. [`harness`] is what every `repro_*` binary but `repro_e2e`
//! runs on: flags, tables, JSON and checked claims. [`client`] is the
//! serving scenarios' HTTP client.

pub mod client;
pub mod harness;
pub mod runner;
pub mod workload;

pub use harness::{best_of, median, percentile, Args, Bar, Fmt, Json, Report};
