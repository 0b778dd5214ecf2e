//! Tentpole acceptance: the chunk cache may never serve stale bytes.
//!
//! Deleting an array and re-storing different data under the *same*
//! array id is the hostile case — every read path (exclusive, shared,
//! batched, ranged) must observe the new bytes, including when the
//! cache is stacked above a `ResilientChunkStore` so repaired chunks
//! were cached on the way in.

use ssdm_array::NumArray;
use ssdm_storage::{
    ArrayStore, CachedChunkStore, ChunkStore, MemoryChunkStore, Request, ResilientChunkStore,
    RetrievalStrategy, RetryPolicy, SharedChunkRead,
};

mod common;
use common::one;

#[test]
fn delete_then_restore_same_id_serves_fresh_bytes() {
    let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
    s.begin_array(7, 8).unwrap();
    for c in 0..4u64 {
        s.put_chunk(7, c, &[0xAA; 8]).unwrap();
    }
    // Warm every read path.
    s.get_chunk(7, 0).unwrap();
    s.get_chunks_in(7, &[1, 2]).unwrap();
    s.get_chunk_range(7, 0, 3).unwrap();
    assert!(s.cache_stats().insertions >= 4);

    s.delete_array(7, 4).unwrap();
    s.begin_array(7, 8).unwrap();
    for c in 0..4u64 {
        s.put_chunk(7, c, &[0xBB; 8]).unwrap();
    }
    assert_eq!(s.get_chunk(7, 0).unwrap(), vec![0xBB; 8]);
    assert_eq!(
        s.get_chunks_in(7, &[1, 2]).unwrap(),
        vec![(1, vec![0xBB; 8]), (2, vec![0xBB; 8])]
    );
    for (_, data) in s.get_chunk_range(7, 0, 3).unwrap() {
        assert_eq!(data, vec![0xBB; 8]);
    }
    // The shared-read path sees fresh bytes too.
    assert_eq!(s.read_chunk(7, 3).unwrap(), vec![0xBB; 8]);
}

#[test]
fn restore_without_delete_is_covered_by_begin_array() {
    // Some callers re-create in place: begin_array alone must also
    // invalidate (back-ends may truncate there).
    let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
    s.begin_array(3, 8).unwrap();
    s.put_chunk(3, 0, b"old_old_").unwrap();
    s.get_chunk(3, 0).unwrap();
    s.begin_array(3, 8).unwrap();
    s.put_chunk(3, 0, b"new_new_").unwrap();
    assert_eq!(s.get_chunk(3, 0).unwrap(), b"new_new_");
}

#[test]
fn stale_chunks_never_survive_through_the_resilient_wrapper() {
    // Cache above resilience: a chunk cached after retry repair must
    // still be dropped when the array is deleted and re-stored.
    let stack = CachedChunkStore::new(
        ResilientChunkStore::new(MemoryChunkStore::new(), RetryPolicy::default()),
        1 << 20,
    );
    let mut store = ArrayStore::new(stack);

    let first = NumArray::from_i64_shaped((0..64).collect(), &[8, 8]).unwrap();
    let second = NumArray::from_i64_shaped((1000..1064).collect(), &[8, 8]).unwrap();

    let p1 = store.store_array(&first, 64).unwrap();
    let id1 = p1.meta().array_id;
    // Read everything through the cache so every chunk is resident.
    let got: Vec<i64> = one(&mut store, Request::new(&p1), RetrievalStrategy::WholeArray)
        .unwrap()
        .into_array()
        .unwrap()
        .elements()
        .iter()
        .map(|n| n.as_i64())
        .collect();
    assert_eq!(got, (0..64).collect::<Vec<_>>());

    store.delete_array(id1).unwrap();
    // Force the next array onto the same backend id by storing through
    // the raw ChunkStore interface under id1.
    let backend = store.backend_mut();
    backend.begin_array(id1, 64).unwrap();
    let payloads: Vec<Vec<u8>> = second
        .elements()
        .iter()
        .map(|n| n.as_i64().to_le_bytes().to_vec())
        .collect();
    // 64-byte chunks of i64 = 8 elements per chunk.
    for (cid, chunk) in payloads.chunks(8).enumerate() {
        let bytes: Vec<u8> = chunk.concat();
        backend.put_chunk(id1, cid as u64, &bytes).unwrap();
    }
    for cid in 0..8u64 {
        let data = backend.get_chunk(id1, cid).unwrap();
        let lo = i64::from_le_bytes(data[..8].try_into().unwrap());
        assert_eq!(
            lo,
            1000 + (cid as i64) * 8,
            "chunk {cid} served stale pre-delete bytes"
        );
    }
}

#[test]
fn shared_reads_fill_and_hit_the_same_cache() {
    let mut s = CachedChunkStore::new(MemoryChunkStore::new(), 1 << 20);
    s.begin_array(1, 8).unwrap();
    s.put_chunk(1, 0, b"payload!").unwrap();
    s.cache().clear();
    s.reset_cache_stats();
    // Fill via the shared path...
    assert_eq!(s.read_chunk(1, 0).unwrap(), b"payload!");
    // ...hit via the exclusive one, and vice versa.
    assert_eq!(s.get_chunk(1, 0).unwrap(), b"payload!");
    assert_eq!(s.read_chunks_in(1, &[0]).unwrap().len(), 1);
    let cs = s.cache_stats();
    assert_eq!((cs.hits, cs.misses), (2, 1));
    assert_eq!(s.io_stats().statements, 1);
}
