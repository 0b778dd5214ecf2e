//! Resolving bags of array proxies (thesis §6.2.4).
//!
//! A query that touches an array per solution — every task's trajectory,
//! say — produces a *bag* of proxies. Resolving them one at a time pays
//! one round of statements per proxy; resolving the **bag** collects all
//! needed `(array, chunk)` keys first, linearizes them in clustered
//! table order, lets the SPD discover regularity *across* proxies, and
//! issues a few composite-range / IN statements for the whole bag. This
//! is where the thesis' "discover that regularity at query runtime"
//! pays off most: chunk ids of consecutive arrays are adjacent rows in
//! the clustered table, so per-array point probes become one scan.

use std::collections::{BTreeMap, BTreeSet, HashMap};

use ssdm_array::{AggregateOp, ArrayData, LinearRuns, Num, NumArray, NumericType};

use crate::apr::{ArrayStore, RetrievalStrategy};
use crate::chunks::Chunking;
use crate::meta::ArrayProxy;
use crate::spd::{self, FetchOp};
use crate::store::{ChunkStore, StorageError};
use crate::Result;

impl<S: ChunkStore> ArrayStore<S> {
    /// Resolve every proxy in the bag, sharing back-end statements
    /// across them. Returns the resident arrays in input order.
    pub fn resolve_bag(
        &mut self,
        proxies: &[ArrayProxy],
        strategy: RetrievalStrategy,
    ) -> Result<Vec<NumArray>> {
        let chunks = self.fetch_bag(proxies, strategy)?;
        proxies
            .iter()
            .map(|p| assemble(p, &chunks))
            .collect::<Result<Vec<_>>>()
    }

    /// Aggregate every proxy in the bag (AAPR over a bag): one shared
    /// fetch, one scalar per proxy.
    pub fn resolve_aggregate_bag(
        &mut self,
        proxies: &[ArrayProxy],
        op: AggregateOp,
        strategy: RetrievalStrategy,
    ) -> Result<Vec<Num>> {
        let chunks = self.fetch_bag(proxies, strategy)?;
        proxies
            .iter()
            .map(|p| {
                let a = assemble(p, &chunks)?;
                a.aggregate(op).map_err(StorageError::Array)
            })
            .collect()
    }

    /// Fetch the union of chunks the bag needs.
    fn fetch_bag(
        &mut self,
        proxies: &[ArrayProxy],
        strategy: RetrievalStrategy,
    ) -> Result<HashMap<(u64, u64), Vec<u8>>> {
        // 1. The needed composite keys, in clustered order.
        let mut needed: BTreeSet<(u64, u64)> = BTreeSet::new();
        for p in proxies {
            let chunking = p.meta().chunking;
            for run in LinearRuns::of_view(p.view()).runs() {
                for c in chunking.chunks_for_run(run) {
                    needed.insert((p.array_id(), c));
                }
            }
        }
        if needed.is_empty() {
            return Ok(HashMap::new());
        }
        // 2. Linearize composite keys into global clustered positions
        //    using the catalog's chunk counts (arrays sorted by id are
        //    physically consecutive in the clustered table).
        let mut offsets: BTreeMap<u64, u64> = BTreeMap::new();
        {
            let mut metas: Vec<(u64, u64)> = self
                .catalog()
                .map(|m| (m.array_id, m.chunking.chunk_count()))
                .collect();
            metas.sort_unstable();
            let mut acc = 0u64;
            for (id, count) in metas {
                offsets.insert(id, acc);
                acc += count;
            }
        }
        let linearize = |(a, c): (u64, u64)| -> Option<u64> { offsets.get(&a).map(|off| off + c) };
        let mut by_linear: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
        let mut unlinearizable: Vec<(u64, u64)> = Vec::new();
        for &key in &needed {
            match linearize(key) {
                Some(l) => {
                    by_linear.insert(l, key);
                }
                None => unlinearizable.push(key),
            }
        }

        // 3. Plan and execute.
        let supports_cross = self.backend().capabilities().supports_cross_range;
        let mut out: HashMap<(u64, u64), Vec<u8>> = HashMap::new();
        match strategy {
            RetrievalStrategy::Single => {
                for &(a, c) in &needed {
                    out.insert((a, c), self.backend_mut().get_chunk(a, c)?);
                }
            }
            RetrievalStrategy::BufferedIn { buffer_size } => {
                // Per-array IN batches (the §6.2.4 buffered strategy).
                let mut per_array: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                for &(a, c) in &needed {
                    per_array.entry(a).or_default().push(c);
                }
                for (a, cs) in per_array {
                    for batch in cs.chunks(buffer_size.max(1)) {
                        for (c, payload) in self.backend_mut().get_chunks_in(a, batch)? {
                            out.insert((a, c), payload);
                        }
                    }
                }
            }
            RetrievalStrategy::SpdRange { options } => {
                let linear_ids: Vec<u64> = by_linear.keys().copied().collect();
                let plan = spd::plan(&linear_ids, options);
                for op in plan {
                    match op {
                        FetchOp::Range { lo, hi } if supports_cross => {
                            let lo_key = delinearize(lo, &offsets);
                            let hi_key = delinearize(hi, &offsets);
                            for (k, payload) in
                                self.backend_mut().get_composite_range(lo_key, hi_key)?
                            {
                                out.insert(k, payload);
                            }
                        }
                        FetchOp::Range { lo, hi } => {
                            // No cross-array scans: split per array.
                            let mut per_array: BTreeMap<u64, (u64, u64)> = BTreeMap::new();
                            for l in lo..=hi {
                                let (a, c) = delinearize(l, &offsets);
                                per_array
                                    .entry(a)
                                    .and_modify(|(plo, phi)| {
                                        *plo = (*plo).min(c);
                                        *phi = (*phi).max(c);
                                    })
                                    .or_insert((c, c));
                            }
                            for (a, (clo, chi)) in per_array {
                                for (c, payload) in
                                    self.backend_mut().get_chunk_range(a, clo, chi)?
                                {
                                    out.insert((a, c), payload);
                                }
                            }
                        }
                        FetchOp::In(ids) if supports_cross => {
                            // Row-value IN over composite keys: one
                            // statement per batch regardless of how many
                            // arrays it spans.
                            let keys: Vec<(u64, u64)> =
                                ids.iter().map(|&l| delinearize(l, &offsets)).collect();
                            for (k, payload) in self.backend_mut().get_composite_in(&keys)? {
                                out.insert(k, payload);
                            }
                        }
                        FetchOp::In(ids) => {
                            let mut per_array: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
                            for l in ids {
                                let (a, c) = delinearize(l, &offsets);
                                per_array.entry(a).or_default().push(c);
                            }
                            for (a, cs) in per_array {
                                for (c, payload) in self.backend_mut().get_chunks_in(a, &cs)? {
                                    out.insert((a, c), payload);
                                }
                            }
                        }
                    }
                }
                for (a, c) in unlinearizable {
                    out.insert((a, c), self.backend_mut().get_chunk(a, c)?);
                }
            }
            RetrievalStrategy::WholeArray => {
                let arrays: BTreeSet<u64> = needed.iter().map(|&(a, _)| a).collect();
                for a in arrays {
                    let meta = self.proxy(a)?.meta().clone();
                    let count = meta.chunking.chunk_count();
                    if count == 0 {
                        continue;
                    }
                    for (c, payload) in self.backend_mut().get_chunk_range(a, 0, count - 1)? {
                        out.insert((a, c), payload);
                    }
                }
            }
        }
        // 4. Decode the SCC1 frames of encoded arrays in place — once
        //    per fetched chunk, shared by every proxy that reads it.
        //    Chunks overfetched from arrays outside the bag stay as
        //    stored (`assemble` never reads them).
        let encoded: HashMap<u64, bool> = proxies
            .iter()
            .map(|p| (p.array_id(), p.meta().encoded))
            .collect();
        for (&(a, c), payload) in out.iter_mut() {
            if encoded.get(&a).copied().unwrap_or(false) {
                *payload = crate::codec::decode_chunk(payload)
                    .map_err(|e| crate::apr::corrupt(a, c, e))?;
                if ssdm_obs::recorder().enabled() {
                    crate::apr::obs_chunks_decoded().add(1);
                }
            }
        }
        Ok(out)
    }
}

fn delinearize(linear: u64, offsets: &BTreeMap<u64, u64>) -> (u64, u64) {
    // The greatest offset <= linear identifies the array.
    let (&array_id, &off) = offsets
        .iter()
        .rfind(|(_, &o)| o <= linear)
        .expect("offsets start at 0");
    (array_id, linear - off)
}

/// Build one proxy's resident array from the fetched chunk map.
fn assemble(proxy: &ArrayProxy, chunks: &HashMap<(u64, u64), Vec<u8>>) -> Result<NumArray> {
    let meta = proxy.meta();
    let chunking: Chunking = meta.chunking;
    let addresses = proxy.view().addresses();
    let mut nums = Vec::with_capacity(addresses.len());
    for a in addresses {
        let cid = chunking.chunk_of(a);
        let payload = chunks
            .get(&(meta.array_id, cid))
            .ok_or(StorageError::MissingChunk {
                array_id: meta.array_id,
                chunk_id: cid,
            })?;
        let (start, _) = chunking.chunk_span(cid);
        let off = a - start;
        let bytes = payload
            .get(off * 8..off * 8 + 8)
            .ok_or(StorageError::MissingChunk {
                array_id: meta.array_id,
                chunk_id: cid,
            })?;
        nums.push(match meta.numeric_type {
            NumericType::Int => Num::Int(i64::from_le_bytes(bytes.try_into().expect("8 bytes"))),
            NumericType::Real => Num::Real(f64::from_le_bytes(bytes.try_into().expect("8 bytes"))),
        });
    }
    let data = match meta.numeric_type {
        NumericType::Int => ArrayData::from_i64(nums.iter().map(|n| n.as_i64()).collect()),
        NumericType::Real => ArrayData::from_f64(nums.iter().map(|n| n.as_f64()).collect()),
    };
    NumArray::from_data(data, &proxy.shape()).map_err(StorageError::Array)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spd::SpdOptions;
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
