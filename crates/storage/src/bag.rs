//! Resolving bags of array proxies (thesis §6.2.4).
//!
//! A query that touches an array per solution — every task's trajectory,
//! say — produces a *bag* of proxies. Resolving them one at a time pays
//! one round of statements per proxy; reading the **bag** is one
//! [`ArrayStore::read`] of one [`Request`](crate::Request) per proxy,
//! whatever each asks of its view, and plans the union of the
//! `(array, chunk)` keys they need at once: under `SpdRange` the keys
//! are linearized in clustered table order, the SPD discovers
//! regularity *across* proxies, and a few composite-range / IN
//! statements serve the whole bag. This is where the thesis'
//! "discover that regularity at query runtime" pays off most: chunk ids
//! of consecutive arrays are adjacent rows in the clustered table, so
//! per-array point probes become one scan.

use std::collections::BTreeMap;

use crate::apr::ArrayStore;
use crate::meta::ArrayMeta;
use crate::parallel::KeyOp;
use crate::spd::{self, FetchOp, SpdOptions};
use crate::store::ChunkStore;

impl<S: ChunkStore> ArrayStore<S> {
    /// The `SpdRange` plan of a run over several arrays, from the chunk
    /// ids each needs (ascending by array), for a back-end that scans
    /// across arrays. Arrays by ascending id are physically consecutive
    /// in the clustered table, so a key's linear id is its chunk id plus
    /// the chunk counts of the arrays before it (the catalog's, and the
    /// bag's as it sees them), and the SPD runs over the linear ids of
    /// every needed key. An op that stays inside one array becomes that
    /// array's statement; one that crosses arrays becomes one composite
    /// statement. Rows are routed by their keys, so the linear order
    /// only has to be monotone to be correct; being physical is what
    /// makes the SPD's density estimates true.
    pub(crate) fn bag_plan(
        &self,
        arrays: &[(&ArrayMeta, Vec<u64>)],
        options: SpdOptions,
    ) -> Vec<KeyOp> {
        let chunks = |m: &ArrayMeta| (m.array_id, m.chunking.chunk_count());
        let mut counts: BTreeMap<u64, u64> = self.catalog().map(|m| chunks(m)).collect();
        counts.extend(arrays.iter().map(|(m, _)| chunks(m)));
        // (first linear id, array id), ascending in both.
        let offsets: Vec<(u64, u64)> = counts
            .into_iter()
            .scan(0, |next, (array_id, count)| {
                *next += count;
                Some((*next - count, array_id))
            })
            .collect();
        let first_of = |a: u64| offsets[offsets.partition_point(|&(_, id)| id < a)].0;
        let delinearize = |l: u64| {
            let (first, array_id) = offsets[offsets.partition_point(|&(o, _)| o <= l) - 1];
            (array_id, l - first)
        };
        let linear: Vec<u64> = arrays
            .iter()
            .flat_map(|(m, ids)| ids.iter().map(move |c| first_of(m.array_id) + c))
            .collect();
        let ops = spd::plan(&linear, options).into_iter();
        ops.map(|op| match op {
            FetchOp::Range { lo, hi } => match (delinearize(lo), delinearize(hi)) {
                ((a, lo), (b, hi)) if a == b => KeyOp::Array(a, FetchOp::Range { lo, hi }),
                (lo, hi) => KeyOp::CompositeRange(lo, hi),
            },
            FetchOp::In(ids) => {
                let keys: Vec<(u64, u64)> = ids.iter().map(|&l| delinearize(l)).collect();
                match (keys[0].0, keys[keys.len() - 1].0) {
                    (a, b) if a == b => {
                        KeyOp::Array(a, FetchOp::In(keys.iter().map(|k| k.1).collect()))
                    }
                    _ => KeyOp::CompositeIn(keys),
                }
            }
        })
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::apr::{Request, RetrievalStrategy};
    use crate::store::{MemoryChunkStore, RelChunkStore};
    use crate::ArrayProxy;
    use ssdm_array::{AggregateOp, Num, NumArray};

    /// Materialize every proxy of the bag in one read.
    fn bag<S: ChunkStore>(
        store: &mut ArrayStore<S>,
        proxies: &[ArrayProxy],
        strategy: RetrievalStrategy,
    ) -> Vec<NumArray> {
        let reqs: Vec<Request> = proxies.iter().map(Request::new).collect();
        let read = store.read(&reqs, strategy).unwrap().into_iter();
        read.map(|r| r.into_array().unwrap()).collect()
    }

    /// 50 small arrays of 8 elements, 2 chunks each (32-byte chunks).
    fn store_with_fleet<S: ChunkStore>(backend: S) -> (ArrayStore<S>, Vec<ArrayProxy>) {
        let mut store = ArrayStore::new(backend);
        let mut proxies = Vec::new();
        for k in 0..50i64 {
            let a = NumArray::from_i64((0..8).map(|i| k * 100 + i).collect());
            proxies.push(store.store_array(&a, 32).unwrap());
        }
        (store, proxies)
    }

    #[test]
    fn bag_matches_individual_resolution() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // A slice of each array: elements 3..=6.
        let views: Vec<ArrayProxy> = proxies
            .iter()
            .map(|p| p.slice(0, 2, 1, 5).unwrap())
            .collect();
        for strategy in [
            RetrievalStrategy::Single,
            RetrievalStrategy::BufferedIn { buffer_size: 8 },
            RetrievalStrategy::SpdRange {
                options: SpdOptions::default(),
            },
            RetrievalStrategy::WholeArray,
        ] {
            for (v, got) in views.iter().zip(bag(&mut store, &views, strategy)) {
                let individually = bag(&mut store, std::slice::from_ref(v), strategy);
                assert!(got.array_eq(&individually[0]), "{}", strategy.name());
            }
        }
    }

    #[test]
    fn bag_spd_uses_one_cross_array_statement() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // The whole fleet: every chunk of every array — one dense
        // composite range.
        store.backend_mut().reset_io_stats();
        let spd = RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        };
        assert_eq!(bag(&mut store, &proxies, spd).len(), 50);
        let stats = store.backend().io_stats();
        assert_eq!(stats.statements, 1, "one clustered scan for the bag");
        assert_eq!(stats.chunks_returned, 100);
        // The bag reports its own statistics.
        let st = store.last_stats();
        assert_eq!(st.statements, 1);
        assert_eq!(st.chunks_fetched, 100);
        assert_eq!(st.chunks_decoded, 100);
        let elements: usize = proxies.iter().map(|p| p.element_count()).sum();
        assert_eq!(st.elements_resolved, elements as u64);
        // Versus per-proxy resolution: at least one statement each.
        store.backend_mut().reset_io_stats();
        for p in &proxies {
            store.read(&[Request::new(p)], spd).unwrap();
        }
        assert!(store.backend().io_stats().statements >= 50);
    }

    #[test]
    fn bag_first_chunk_of_each_array_is_strided_pattern() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // Elements 1..=4 live in chunk 0 of each array: the composite
        // keys are (a, 0) for all a — stride 2 in linearized space.
        let heads: Vec<ArrayProxy> = proxies
            .iter()
            .map(|p| p.slice(0, 0, 1, 3).unwrap())
            .collect();
        store.backend_mut().reset_io_stats();
        let spd = RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        };
        let arrays = bag(&mut store, &heads, spd);
        assert_eq!(arrays.len(), 50);
        let stats = store.backend().io_stats();
        // Density 0.5 with the default threshold: one covering range.
        assert_eq!(stats.statements, 1);
        assert_eq!(stats.chunks_returned, 99, "covering scan overfetches");
        // Only the 50 needed chunks are decoded; the 49 overfetched
        // second chunks are dropped undecoded.
        let st = store.last_stats();
        assert_eq!((st.statements, st.chunks_fetched), (1, 99));
        assert_eq!(st.chunks_decoded, 50);
        let elements: usize = heads.iter().map(|p| p.element_count()).sum();
        assert_eq!(st.elements_resolved, elements as u64);
        for (k, a) in arrays.iter().enumerate() {
            assert_eq!(a.elements()[0], Num::Int(k as i64 * 100));
        }
    }

    #[test]
    fn bag_on_memory_backend() {
        let (mut store, proxies) = store_with_fleet(MemoryChunkStore::new());
        let sums: Vec<Request> = proxies
            .iter()
            .map(|p| Request::new(p).fold(AggregateOp::Sum))
            .collect();
        let spd = RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        };
        let sums = store.read(&sums, spd).unwrap();
        assert_eq!(sums.len(), 50);
        let mut sums = sums.into_iter().map(|r| r.total().unwrap());
        assert_eq!(sums.next(), Some(Num::Int(28))); // 0+..+7
        assert_eq!(sums.next(), Some(Num::Int(828))); // 100..107
    }

    #[test]
    fn bag_without_cross_range_support_falls_back() {
        let dir = std::env::temp_dir().join(format!("ssdm-bag-{}", std::process::id()));
        let backend = crate::store::FileChunkStore::new(&dir).unwrap();
        let (mut store, proxies) = store_with_fleet(backend);
        let spd = RetrievalStrategy::SpdRange {
            options: SpdOptions::default(),
        };
        let arrays = bag(&mut store, &proxies, spd);
        assert_eq!(arrays.len(), 50);
        assert_eq!(arrays[7].elements()[2], Num::Int(702));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_bag() {
        let (mut store, _) = store_with_fleet(MemoryChunkStore::new());
        assert!(bag(&mut store, &[], RetrievalStrategy::Single).is_empty());
    }
}
