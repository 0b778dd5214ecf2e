//! The relational "SQL" surface over the chunk table.
//!
//! [`Db`] exposes exactly the statement shapes the thesis' retrieval
//! strategies generate against the back-end's chunk table (§6.2.3):
//!
//! * `get`        — `SELECT data WHERE array=? AND chunk=?` (one row);
//! * `get_in`     — `... WHERE array=? AND chunk IN (...)`;
//! * `get_range`  — `... WHERE array=? AND chunk BETWEEN ? AND ?`;
//! * `put`/`delete` — the load/update path.
//!
//! Every call counts as one statement and is charged through the
//! [`LatencyModel`], so strategy comparisons reproduce the round-trip
//! economics of the paper's MySQL deployment.

use std::path::Path;

use crate::btree::{BPlusTree, TreeKey};
use crate::buffer::{BufferPool, PoolStats};
use crate::latency::LatencyModel;
use crate::pager::Pager;
use crate::Result;

/// Composite row key: `(array_id, chunk_id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Key {
    pub array_id: u64,
    pub chunk_id: u64,
}

impl Key {
    pub fn new(array_id: u64, chunk_id: u64) -> Self {
        Key { array_id, chunk_id }
    }

    fn encode(self) -> TreeKey {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&self.array_id.to_be_bytes());
        k[8..].copy_from_slice(&self.chunk_id.to_be_bytes());
        k
    }

    fn decode(k: &TreeKey) -> Self {
        Key {
            array_id: u64::from_be_bytes(k[..8].try_into().unwrap()),
            chunk_id: u64::from_be_bytes(k[8..].try_into().unwrap()),
        }
    }
}

/// Cumulative statement-level statistics.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StatementStats {
    pub statements: u64,
    pub rows_returned: u64,
    pub bytes_returned: u64,
}

/// Construction options.
#[derive(Debug, Clone, PartialEq)]
pub struct DbOptions {
    /// Buffer-pool capacity in pages.
    pub pool_pages: usize,
    /// Simulated client–server latency.
    pub latency: LatencyModel,
}

impl Default for DbOptions {
    fn default() -> Self {
        DbOptions {
            pool_pages: 1024,
            latency: LatencyModel::none(),
        }
    }
}

/// The embedded chunk database.
pub struct Db {
    pool: BufferPool,
    tree: BPlusTree,
    latency: LatencyModel,
    stats: StatementStats,
}

impl Db {
    /// A volatile in-memory database.
    pub fn open_memory(options: DbOptions) -> Result<Self> {
        let mut pool = BufferPool::new(Pager::in_memory(), options.pool_pages);
        let tree = BPlusTree::create(&mut pool)?;
        Ok(Db {
            pool,
            tree,
            latency: options.latency,
            stats: StatementStats::default(),
        })
    }

    /// A file-backed database (created fresh).
    pub fn create_file(path: &Path, options: DbOptions) -> Result<Self> {
        let mut pool = BufferPool::new(Pager::create_file(path)?, options.pool_pages);
        let tree = BPlusTree::create(&mut pool)?;
        Ok(Db {
            pool,
            tree,
            latency: options.latency,
            stats: StatementStats::default(),
        })
    }

    /// Store a chunk (INSERT ... ON DUPLICATE KEY UPDATE). The load path
    /// is not latency-charged: experiments measure query time.
    pub fn put(&mut self, key: Key, data: &[u8]) -> Result<()> {
        self.tree.put(&mut self.pool, &key.encode(), data)
    }

    /// Point lookup: one statement.
    pub fn get(&mut self, key: Key) -> Result<Option<Vec<u8>>> {
        let v = self.tree.get(&mut self.pool, &key.encode())?;
        let (rows, bytes) = match &v {
            Some(b) => (1, b.len()),
            None => (0, 0),
        };
        self.account(rows, bytes);
        Ok(v)
    }

    /// `IN`-list lookup: one statement, many point probes server-side.
    pub fn get_in(&mut self, array_id: u64, chunk_ids: &[u64]) -> Result<Vec<(Key, Vec<u8>)>> {
        let mut out = Vec::with_capacity(chunk_ids.len());
        let mut bytes = 0usize;
        for &c in chunk_ids {
            let key = Key::new(array_id, c);
            if let Some(v) = self.tree.get(&mut self.pool, &key.encode())? {
                bytes += v.len();
                out.push((key, v));
            }
        }
        self.account(out.len(), bytes);
        Ok(out)
    }

    /// Range lookup (`BETWEEN`, inclusive): one statement, one clustered
    /// leaf scan server-side.
    pub fn get_range(
        &mut self,
        array_id: u64,
        chunk_lo: u64,
        chunk_hi: u64,
    ) -> Result<Vec<(Key, Vec<u8>)>> {
        let lo = Key::new(array_id, chunk_lo).encode();
        let hi = Key::new(array_id, chunk_hi).encode();
        let rows = self.tree.range(&mut self.pool, &lo, &hi)?;
        let bytes: usize = rows.iter().map(|(_, v)| v.len()).sum();
        self.account(rows.len(), bytes);
        Ok(rows
            .into_iter()
            .map(|(k, v)| (Key::decode(&k), v))
            .collect())
    }

    /// Composite-key range lookup (`(array, chunk) BETWEEN ? AND ?`,
    /// inclusive): one statement, one clustered scan that may span
    /// array boundaries — the physical operation behind bag-of-proxy
    /// resolution (thesis §6.2.4).
    pub fn get_key_range(&mut self, lo: Key, hi: Key) -> Result<Vec<(Key, Vec<u8>)>> {
        let rows = self
            .tree
            .range(&mut self.pool, &lo.encode(), &hi.encode())?;
        let bytes: usize = rows.iter().map(|(_, v)| v.len()).sum();
        self.account(rows.len(), bytes);
        Ok(rows
            .into_iter()
            .map(|(k, v)| (Key::decode(&k), v))
            .collect())
    }

    /// Row-value `IN`-list lookup over composite keys
    /// (`WHERE (array, chunk) IN ((...),(...))`): one statement.
    pub fn get_keys(&mut self, keys: &[Key]) -> Result<Vec<(Key, Vec<u8>)>> {
        let mut out = Vec::with_capacity(keys.len());
        let mut bytes = 0usize;
        for &key in keys {
            if let Some(v) = self.tree.get(&mut self.pool, &key.encode())? {
                bytes += v.len();
                out.push((key, v));
            }
        }
        self.account(out.len(), bytes);
        Ok(out)
    }

    /// Delete a chunk row.
    pub fn delete(&mut self, key: Key) -> Result<bool> {
        let existed = self.tree.delete(&mut self.pool, &key.encode())?;
        self.account(usize::from(existed), 0);
        Ok(existed)
    }

    /// Flush dirty pages.
    pub fn flush(&mut self) -> Result<()> {
        self.pool.flush()
    }

    pub fn statement_stats(&self) -> StatementStats {
        self.stats
    }

    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    pub fn reset_stats(&mut self) {
        self.stats = StatementStats::default();
        self.pool.reset_stats();
    }

    pub fn latency(&self) -> LatencyModel {
        self.latency
    }

    pub fn set_latency(&mut self, latency: LatencyModel) {
        self.latency = latency;
    }

    fn account(&mut self, rows: usize, bytes: usize) {
        self.stats.statements += 1;
        self.stats.rows_returned += rows as u64;
        self.stats.bytes_returned += bytes as u64;
        self.latency.apply(rows, bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn db() -> Db {
        Db::open_memory(DbOptions::default()).unwrap()
    }

    #[test]
    fn point_lookup() {
        let mut d = db();
        d.put(Key::new(1, 0), b"chunk0").unwrap();
        assert_eq!(d.get(Key::new(1, 0)).unwrap().unwrap(), b"chunk0");
        assert_eq!(d.get(Key::new(1, 1)).unwrap(), None);
        let s = d.statement_stats();
        assert_eq!(s.statements, 2);
        assert_eq!(s.rows_returned, 1);
        assert_eq!(s.bytes_returned, 6);
    }

    #[test]
    fn in_list_is_one_statement() {
        let mut d = db();
        for c in 0..10 {
            d.put(Key::new(1, c), &[c as u8]).unwrap();
        }
        d.reset_stats();
        let rows = d.get_in(1, &[2, 4, 6, 99]).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(d.statement_stats().statements, 1);
        assert_eq!(d.statement_stats().rows_returned, 3);
    }

    #[test]
    fn range_is_inclusive_and_ordered() {
        let mut d = db();
        for c in 0..20 {
            d.put(Key::new(7, c), &[c as u8]).unwrap();
        }
        d.put(Key::new(8, 0), b"other-array").unwrap();
        let rows = d.get_range(7, 5, 9).unwrap();
        assert_eq!(rows.len(), 5);
        assert_eq!(rows[0].0, Key::new(7, 5));
        assert_eq!(rows[4].0, Key::new(7, 9));
    }

    #[test]
    fn range_does_not_leak_across_arrays() {
        let mut d = db();
        d.put(Key::new(1, u64::MAX), b"a").unwrap();
        d.put(Key::new(2, 0), b"b").unwrap();
        let rows = d.get_range(1, 0, u64::MAX).unwrap();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].0.array_id, 1);
    }

    #[test]
    fn delete_row() {
        let mut d = db();
        d.put(Key::new(1, 1), b"x").unwrap();
        assert!(d.delete(Key::new(1, 1)).unwrap());
        assert_eq!(d.get(Key::new(1, 1)).unwrap(), None);
    }

    #[test]
    fn large_chunks_round_trip() {
        let mut d = db();
        let big: Vec<u8> = (0..1_000_000u32).map(|i| (i % 255) as u8).collect();
        d.put(Key::new(1, 0), &big).unwrap();
        assert_eq!(d.get(Key::new(1, 0)).unwrap().unwrap(), big);
    }

    #[test]
    fn file_backed_db() {
        let dir = std::env::temp_dir().join(format!("relstore-db-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let mut d = Db::create_file(&dir.join("t.db"), DbOptions::default()).unwrap();
        for c in 0..100 {
            d.put(Key::new(1, c), &c.to_le_bytes()).unwrap();
        }
        d.flush().unwrap();
        let rows = d.get_range(1, 0, 99).unwrap();
        assert_eq!(rows.len(), 100);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn small_pool_still_correct() {
        let mut d = Db::open_memory(DbOptions {
            pool_pages: 2,
            latency: LatencyModel::none(),
        })
        .unwrap();
        for c in 0..500u64 {
            d.put(Key::new(1, c), &c.to_le_bytes()).unwrap();
        }
        for c in (0..500u64).step_by(17) {
            assert_eq!(
                d.get(Key::new(1, c)).unwrap().unwrap(),
                c.to_le_bytes().to_vec()
            );
        }
        assert!(d.pool_stats().evictions > 0, "tiny pool must evict");
    }

    #[test]
    fn latency_is_charged_per_statement() {
        use std::time::{Duration, Instant};
        let latency = LatencyModel {
            per_statement: Duration::from_micros(300),
            per_row: Duration::ZERO,
            per_kib: Duration::ZERO,
        };
        let mut d = Db::open_memory(DbOptions {
            pool_pages: 64,
            latency,
        })
        .unwrap();
        for c in 0..8 {
            d.put(Key::new(1, c), b"x").unwrap();
        }
        // What the model charges follows the statement count, not the
        // rows: eight point lookups cost eight round trips, one IN-list
        // over the same rows costs one. Two wall-clock spans are not
        // compared: a descheduled thread stretches either of them.
        let t = Instant::now();
        for c in 0..8 {
            d.get(Key::new(1, c)).unwrap();
        }
        let eight_statements = t.elapsed();
        assert_eq!(d.statement_stats().statements, 8);
        d.reset_stats();
        d.get_in(1, &(0..8).collect::<Vec<_>>()).unwrap();
        let stats = d.statement_stats();
        assert_eq!((stats.statements, stats.rows_returned), (1, 8));
        let (point_lookups, batched) = (latency.charge(1, 1) * 8, latency.charge(8, 8));
        assert_eq!(
            point_lookups,
            batched * 8,
            "batching amortizes the round trip"
        );
        // The charge is really applied: a busy-wait never returns early.
        assert!(eight_statements >= latency.per_statement * 8);
    }
}
