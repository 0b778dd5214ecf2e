//! Resolving bags of array proxies (thesis §6.2.4).
//!
//! A query that touches an array per solution — every task's trajectory,
//! say — produces a *bag* of proxies. Resolving them one at a time pays
//! one round of statements per proxy; resolving the **bag** hands one
//! request per proxy to the one runner (`ArrayStore::run`), which plans
//! the union of the `(array, chunk)` keys they need at once: under
//! `SpdRange` the keys are linearized in clustered table order, the SPD
//! discovers regularity *across* proxies, and a few composite-range /
//! IN statements serve the whole bag. This is where the thesis'
//! "discover that regularity at query runtime" pays off most: chunk ids
//! of consecutive arrays are adjacent rows in the clustered table, so
//! per-array point probes become one scan.

use std::collections::BTreeMap;

use ssdm_array::{AggregateOp, Num, NumArray};

use crate::apr::{ArrayStore, Request, RetrievalStrategy};
use crate::meta::{ArrayMeta, ArrayProxy};
use crate::parallel::{KeyOp, Lane};
use crate::spd::{self, FetchOp, SpdOptions};
use crate::store::ChunkStore;
use crate::Result;

impl<S: ChunkStore> ArrayStore<S> {
    /// Resolve every proxy in the bag, sharing back-end statements
    /// across them. Returns the resident arrays in input order.
    pub fn resolve_bag(
        &mut self,
        proxies: &[ArrayProxy],
        strategy: RetrievalStrategy,
    ) -> Result<Vec<NumArray>> {
        let reqs: Vec<Request> = proxies.iter().map(Request::new).collect();
        let resolved = self.run(&reqs, strategy, Lane::exclusive())?;
        resolved
            .into_iter()
            .zip(proxies)
            .map(|(r, p)| r.into_array(p))
            .collect()
    }

    /// Aggregate every proxy in the bag (AAPR over a bag): one shared
    /// fetch, one streamed fold per proxy, each bit-identical to
    /// [`resolve_aggregate`](Self::resolve_aggregate) of that proxy.
    pub fn resolve_aggregate_bag(
        &mut self,
        proxies: &[ArrayProxy],
        op: AggregateOp,
        strategy: RetrievalStrategy,
    ) -> Result<Vec<Num>> {
        let reqs: Vec<Request> = proxies
            .iter()
            .map(|p| Request {
                fold: Some(op),
                ..Request::new(p)
            })
            .collect();
        let resolved = self.run(&reqs, strategy, Lane::exclusive())?;
        resolved.into_iter().map(|r| r.total(op)).collect()
    }

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
    use crate::store::{MemoryChunkStore, RelChunkStore};

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
            let bag = store.resolve_bag(&views, strategy).unwrap();
            for (v, got) in views.iter().zip(&bag) {
                let individually = store.resolve(v, strategy).unwrap();
                assert!(got.array_eq(&individually), "{}", strategy.name());
            }
        }
    }

    #[test]
    fn bag_spd_uses_one_cross_array_statement() {
        let (mut store, proxies) = store_with_fleet(RelChunkStore::open_memory().unwrap());
        // The whole fleet: every chunk of every array — one dense
        // composite range.
        store.backend_mut().reset_io_stats();
        let bag = store
            .resolve_bag(
                &proxies,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(bag.len(), 50);
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
            store
                .resolve(
                    p,
                    RetrievalStrategy::SpdRange {
                        options: SpdOptions::default(),
                    },
                )
                .unwrap();
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
        let bag = store
            .resolve_bag(
                &heads,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(bag.len(), 50);
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
        for (k, a) in bag.iter().enumerate() {
            assert_eq!(a.elements()[0], Num::Int(k as i64 * 100));
        }
    }

    #[test]
    fn bag_on_memory_backend() {
        let (mut store, proxies) = store_with_fleet(MemoryChunkStore::new());
        let sums = store
            .resolve_aggregate_bag(
                &proxies,
                AggregateOp::Sum,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(sums.len(), 50);
        assert_eq!(sums[0], Num::Int(28)); // 0+..+7
        assert_eq!(sums[1], Num::Int(828)); // 100..107
    }

    #[test]
    fn bag_without_cross_range_support_falls_back() {
        let dir = std::env::temp_dir().join(format!("ssdm-bag-{}", std::process::id()));
        let backend = crate::store::FileChunkStore::new(&dir).unwrap();
        let (mut store, proxies) = store_with_fleet(backend);
        let bag = store
            .resolve_bag(
                &proxies,
                RetrievalStrategy::SpdRange {
                    options: SpdOptions::default(),
                },
            )
            .unwrap();
        assert_eq!(bag.len(), 50);
        assert_eq!(bag[7].elements()[2], Num::Int(702));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_bag() {
        let (mut store, _) = store_with_fleet(MemoryChunkStore::new());
        let bag = store.resolve_bag(&[], RetrievalStrategy::Single).unwrap();
        assert!(bag.is_empty());
    }
}
