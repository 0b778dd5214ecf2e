//! The array builtins that push work into the storage layer
//! (`array_*`, `array_*_range`, `array_contains` over proxies): what
//! the APR runner does for them, as seen from a query.
//!
//! * a value-range aggregate over a whole raster prunes chunks by zone
//!   map *before* it looks at any element, and says so in `AprStats`;
//! * "no value" (an aggregate over nothing) is an unbound cell, but a
//!   failing back-end is a query error — never an unbound cell.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use scisparql::dataset::DynChunkStore;
use scisparql::{Dataset, QueryError};
use ssdm_array::NumArray;
use ssdm_rdf::Term;
use ssdm_storage::{
    Capabilities, ChunkStore, IoStats, MemoryChunkStore, SharedChunkRead, StorageError,
};

const SIDE: usize = 512;
const BAND: i64 = 64;

/// A `SIDE`×`SIDE` integer raster whose row `r` holds values in
/// `[BAND * r, BAND * (r + 1))`, stored one row per chunk.
fn banded_raster(ds: &mut Dataset) {
    let values = (0..SIDE as i64)
        .flat_map(|r| (0..SIDE as i64).map(move |c| BAND * r + (r * 31 + c * 17) % BAND))
        .collect();
    let raster = NumArray::from_i64_shaped(values, &[SIDE, SIDE]).unwrap();
    ds.graph.insert(
        Term::uri("http://e#raster"),
        Term::uri("http://e#image"),
        Term::Array(raster),
    );
    ds.externalize_threshold = 64;
    ds.chunk_bytes = SIDE * 8;
    assert_eq!(ds.externalize_large_arrays().unwrap(), 1);
}

/// The one cell a single-row, single-column query returns, printed;
/// `None` when it is unbound.
fn single_cell(ds: &mut Dataset, q: &str) -> Result<Option<String>, QueryError> {
    let mut rows = ds.query(q)?.into_rows().expect("a SELECT");
    assert_eq!(rows.len(), 1, "{q}");
    Ok(rows.remove(0).remove(0).map(|v| v.to_string()))
}

#[test]
fn range_count_over_a_whole_raster_prunes_before_it_enumerates() {
    let mut ds = Dataset::in_memory();
    banded_raster(&mut ds);
    // Rows 100..108 hold exactly the values 6400..6911.
    let range = |f: &str| {
        format!(
            "SELECT ({f}(?img, {}, {}) AS ?n) WHERE {{ <http://e#raster> <http://e#image> ?img }}",
            BAND * 100,
            BAND * 108 - 1
        )
    };
    let q = range("array_count_range");
    // With the zone map on, the 8 rows' summaries lie inside the range:
    // their counts are decided, and nothing is fetched or examined.
    let decided = single_cell(&mut ds, &q).unwrap().unwrap();
    let stats = ds.arrays.last_stats();
    assert_eq!(decided, (8 * SIDE).to_string());
    assert_eq!(stats.chunks_skipped, SIDE as u64 - 8);
    assert_eq!(stats.chunks_decided, 8);
    assert_eq!((stats.statements, stats.chunks_fetched), (0, 0));
    assert_eq!(stats.chunks_decoded, 0);
    assert_eq!(stats.elements_examined, 0);
    assert_eq!(stats.elements_resolved, 8 * SIDE as u64);

    // A sum over the same range is never decided: pruning alone leaves
    // the 8 rows, and only their elements are examined.
    single_cell(&mut ds, &range("array_sum_range"))
        .unwrap()
        .unwrap();
    let stats = ds.arrays.last_stats();
    assert_eq!(stats.chunks_skipped, SIDE as u64 - 8);
    assert_eq!(stats.chunks_decided, 0);
    assert_eq!(stats.chunks_fetched, 8);
    assert_eq!(stats.chunks_decoded, 8);
    assert_eq!(stats.elements_examined, 8 * SIDE as u64);
    assert_eq!(stats.elements_resolved, 8 * SIDE as u64);
    assert_eq!(stats.bytes_decoded, 8 * 8 * SIDE as u64);

    ds.arrays.set_skip_enabled(false);
    let scanned = single_cell(&mut ds, &q).unwrap().unwrap();
    let stats = ds.arrays.last_stats();
    assert_eq!(scanned, decided, "the zone map never changes the answer");
    assert_eq!(stats.chunks_skipped, 0);
    assert_eq!(stats.chunks_decided, 0);
    assert_eq!(stats.chunks_decoded, SIDE as u64);
    assert_eq!(stats.elements_examined, (SIDE * SIDE) as u64);
    assert_eq!(stats.elements_resolved, 8 * SIDE as u64);
}

/// A memory store that answers every read with a back-end failure
/// while `fail` is set.
struct FailingStore {
    inner: MemoryChunkStore,
    fail: Arc<AtomicBool>,
}

impl FailingStore {
    fn check(&self) -> Result<(), StorageError> {
        if self.fail.load(Ordering::Relaxed) {
            Err(StorageError::Backend("injected B-tree failure".into()))
        } else {
            Ok(())
        }
    }
}

impl ChunkStore for FailingStore {
    fn put_chunk(&mut self, array_id: u64, chunk_id: u64, data: &[u8]) -> Result<(), StorageError> {
        self.inner.put_chunk(array_id, chunk_id, data)
    }

    fn get_chunk(&mut self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.check()?;
        self.inner.get_chunk(array_id, chunk_id)
    }

    fn delete_array(&mut self, array_id: u64, chunk_count: u64) -> Result<(), StorageError> {
        self.inner.delete_array(array_id, chunk_count)
    }

    fn capabilities(&self) -> Capabilities {
        Capabilities {
            supports_in_list: false,
            supports_range: false,
            supports_cross_range: false,
            supports_parallel: true,
        }
    }

    fn io_stats(&self) -> IoStats {
        self.inner.io_stats()
    }

    fn reset_io_stats(&mut self) {
        self.inner.reset_io_stats()
    }
}

impl SharedChunkRead for FailingStore {
    fn read_chunk(&self, array_id: u64, chunk_id: u64) -> Result<Vec<u8>, StorageError> {
        self.check()?;
        self.inner.read_chunk(array_id, chunk_id)
    }

    fn read_chunks_in(
        &self,
        array_id: u64,
        chunk_ids: &[u64],
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.check()?;
        self.inner.read_chunks_in(array_id, chunk_ids)
    }

    fn read_chunk_range(
        &self,
        array_id: u64,
        lo: u64,
        hi: u64,
    ) -> Result<Vec<(u64, Vec<u8>)>, StorageError> {
        self.check()?;
        self.inner.read_chunk_range(array_id, lo, hi)
    }
}

#[test]
fn backend_failures_are_query_errors_and_empty_views_are_unbound() {
    let fail = Arc::new(AtomicBool::new(false));
    let backend: DynChunkStore = Box::new(FailingStore {
        inner: MemoryChunkStore::new(),
        fail: Arc::clone(&fail),
    });
    let mut ds = Dataset::with_backend(backend);
    banded_raster(&mut ds);
    let ask = |ds: &mut Dataset, expr: &str| {
        single_cell(
            ds,
            &format!("SELECT ({expr} AS ?v) WHERE {{ <http://e#raster> <http://e#image> ?img }}"),
        )
    };
    let beyond = BAND * SIDE as i64 + 1000;
    let aggregates = [
        "array_avg(?img[1:4, 1:4])".to_string(),
        "array_max_range(?img, 0, 10)".to_string(),
        format!("array_avg_range(?img[2:9, 1:{SIDE}], 0, {beyond})"),
        "array_contains(?img[1:2, 1:8], 17)".to_string(),
    ];
    // Healthy back-end: every probe has a value…
    for expr in &aggregates {
        assert!(ask(&mut ds, expr).unwrap().is_some(), "{expr}");
    }
    // …and an aggregate with nothing to aggregate is unbound, not an
    // error: no element of the raster lies in the range.
    for expr in [
        format!("array_avg_range(?img, {beyond}, {})", beyond + 1),
        format!("array_min_range(?img[1:3, 1:3], {beyond}, {})", beyond + 1),
    ] {
        assert_eq!(ask(&mut ds, &expr).unwrap(), None, "{expr}");
    }
    assert_eq!(
        ask(
            &mut ds,
            &format!("array_count_range(?img, {beyond}, {})", beyond + 1)
        )
        .unwrap()
        .unwrap(),
        "0"
    );

    // Failing back-end: the same probes are query errors that carry
    // the storage failure.
    fail.store(true, Ordering::Relaxed);
    for expr in &aggregates {
        match ask(&mut ds, expr) {
            Err(QueryError::Storage(StorageError::Backend(why))) => {
                assert!(why.contains("injected"), "{expr}: {why}")
            }
            other => panic!("{expr}: expected the back-end failure, got {other:?}"),
        }
    }
}
