//! A bag of proxies whose chunks are all resident is served by the
//! chunk cache alone: the composite `IN` the bag plans reaches the
//! back-end only for the keys the cache lacks.

use ssdm_array::NumArray;
use ssdm_storage::{
    ArrayStore, CachedChunkStore, ChunkStore, RelChunkStore, Request, RetrievalStrategy,
};

type Store = ArrayStore<CachedChunkStore<RelChunkStore>>;

#[test]
fn a_warm_bag_issues_no_statements_and_returns_the_same_arrays() {
    let backend = CachedChunkStore::new(RelChunkStore::open_memory().unwrap(), 128 << 20);
    let mut store = ArrayStore::new(backend);
    // 64 arrays of 16 reals in 32-byte chunks; the bag takes the first
    // chunk of each, so its keys cross arrays: one composite IN.
    let heads: Vec<_> = (0..64)
        .map(|k| {
            let values = (0..16).map(|i| (k * 100 + i) as f64 / 7.0).collect();
            let proxy = store.store_array(&NumArray::from_f64(values), 32).unwrap();
            proxy.slice(0, 0, 1, 3).unwrap()
        })
        .collect();
    let strategy = RetrievalStrategy::SpdRange {
        options: Default::default(),
    };
    let statements = |store: &Store| store.backend().io_stats().statements;
    let read = |store: &mut Store, reqs: &[Request]| -> Vec<NumArray> {
        let resolved = store.read(reqs, strategy).unwrap().into_iter();
        resolved.map(|r| r.into_array().unwrap()).collect()
    };
    let bag: Vec<Request> = heads.iter().map(Request::new).collect();
    store.backend().cache().clear();

    let before = statements(&store);
    let cold = read(&mut store, &bag);
    assert_eq!(statements(&store) - before, 1, "one composite IN, cold");

    let before = statements(&store);
    let warm = read(&mut store, &bag);
    assert_eq!(
        statements(&store) - before,
        0,
        "a warm bag reaches no back-end"
    );
    for ((c, w), req) in cold.iter().zip(&warm).zip(&bag) {
        let bits = |a: &NumArray| {
            a.elements()
                .iter()
                .map(|n| n.as_f64().to_bits())
                .collect::<Vec<_>>()
        };
        assert_eq!(bits(w), bits(c));
        let mut alone = store.read(&[*req], RetrievalStrategy::Single).unwrap();
        assert_eq!(bits(w), bits(&alone.remove(0).into_array().unwrap()));
    }

    // Half warm: only the missing keys are fetched, still in one IN.
    for p in heads.iter().step_by(2) {
        let (array, chunk) = (p.array_id(), 0);
        store.backend().cache().invalidate(array, chunk);
    }
    let before = statements(&store);
    let half = read(&mut store, &bag);
    assert_eq!(statements(&store) - before, 1);
    assert!(half.iter().zip(&cold).all(|(h, c)| h.array_eq(c)));
}
