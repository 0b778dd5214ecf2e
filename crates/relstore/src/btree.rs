//! A clustered B+-tree over 16-byte keys with overflow-chain values.
//!
//! This is the physical structure behind the back-end's chunk table
//! (thesis §6.2.1): rows are clustered by `(array_id, chunk_id)` so a
//! range query over consecutive chunk ids is a sequential leaf scan,
//! while point lookups pay a full root-to-leaf descent each — the
//! asymmetry the retrieval-strategy experiments measure.
//!
//! Layout (page size 4096):
//! * internal: `[tag=1][nkeys:u16][pad:u8][child0:u32]` then
//!   `nkeys × (key:16, child:u32)` entries;
//! * leaf: `[tag=2][nkeys:u16][pad:u8][next_leaf:u32]` then
//!   `nkeys × (key:16, val_len:u32, overflow:u32)` entries;
//! * value: `[tag=3][next:u32][used:u16]` then payload bytes.
//!
//! Deletion removes leaf entries without rebalancing; freed value pages
//! are recycled through a free list.

use crate::buffer::BufferPool;
use crate::pager::{PageId, StoreError, PAGE_SIZE};
use crate::Result;

/// Fixed-width tree key (big-endian composite sorts correctly bytewise).
pub type TreeKey = [u8; 16];

const TAG_INTERNAL: u8 = 1;
const TAG_LEAF: u8 = 2;
const TAG_VALUE: u8 = 3;

const HDR: usize = 8;
const INT_ENTRY: usize = 20; // key(16) + child(4)
const LEAF_ENTRY: usize = 24; // key(16) + len(4) + overflow(4)
const VAL_HDR: usize = 7; // tag(1) + next(4) + used(2)
const VAL_CAP: usize = PAGE_SIZE - VAL_HDR;

// One entry of slack is reserved so a node can temporarily hold
// MAX+1 entries between insertion and the split that follows.
const MAX_INT_KEYS: usize = (PAGE_SIZE - HDR) / INT_ENTRY - 1; // 203
const MAX_LEAF_KEYS: usize = (PAGE_SIZE - HDR) / LEAF_ENTRY - 1; // 169

#[inline]
fn get_u16(b: &[u8], off: usize) -> u16 {
    u16::from_le_bytes([b[off], b[off + 1]])
}

#[inline]
fn put_u16(b: &mut [u8], off: usize, v: u16) {
    b[off..off + 2].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_u32(b: &[u8], off: usize) -> u32 {
    u32::from_le_bytes([b[off], b[off + 1], b[off + 2], b[off + 3]])
}

#[inline]
fn put_u32(b: &mut [u8], off: usize, v: u32) {
    b[off..off + 4].copy_from_slice(&v.to_le_bytes());
}

#[inline]
fn get_key(b: &[u8], off: usize) -> TreeKey {
    b[off..off + 16].try_into().expect("16-byte slice")
}

/// Binary search over the `n` entries of a node (`stride` bytes apart
/// from `HDR`, key first): the index of the first entry whose key is not
/// `before` the probe — `n` when every key is.
#[inline]
fn partition_point(p: &[u8], n: usize, stride: usize, before: impl Fn(&[u8]) -> bool) -> usize {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let off = HDR + mid * stride;
        if before(&p[off..off + 16]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

/// The child of internal node `p` that covers `key`, and its position:
/// the number of separator keys `<= key`.
#[inline]
fn child_for(p: &[u8], key: &TreeKey) -> (usize, PageId) {
    let n = get_u16(p, 1) as usize;
    let pos = partition_point(p, n, INT_ENTRY, |k| k <= &key[..]);
    let child = match pos {
        0 => get_u32(p, 4),
        _ => get_u32(p, HDR + (pos - 1) * INT_ENTRY + 16),
    };
    (pos, child)
}

/// Where `key` is, or would be inserted, among the entries of leaf `p`:
/// `(position, entry count, whether the entry there holds `key`)`.
#[inline]
fn leaf_slot(p: &[u8], key: &TreeKey) -> (usize, usize, bool) {
    let n = get_u16(p, 1) as usize;
    let pos = partition_point(p, n, LEAF_ENTRY, |k| k < &key[..]);
    let off = HDR + pos * LEAF_ENTRY;
    (pos, n, pos < n && p[off..off + 16] == key[..])
}

/// The B+-tree handle: root id plus a free list of recycled value pages.
/// All operations borrow the buffer pool explicitly so one pool can be
/// shared by several trees.
pub struct BPlusTree {
    root: PageId,
    free_head: Option<PageId>,
    /// Logical counters for experiments.
    pub leaf_reads: u64,
    pub descents: u64,
}

impl BPlusTree {
    /// Create an empty tree: the root starts as an empty leaf.
    pub fn create(pool: &mut BufferPool) -> Result<Self> {
        let root = pool.allocate()?;
        pool.with_page_mut(root, |p| {
            p[0] = TAG_LEAF;
            put_u16(p, 1, 0);
            put_u32(p, 4, 0);
        })?;
        Ok(BPlusTree {
            root,
            free_head: None,
            leaf_reads: 0,
            descents: 0,
        })
    }

    pub fn root(&self) -> PageId {
        self.root
    }

    // -----------------------------------------------------------------
    // Value chains
    // -----------------------------------------------------------------

    fn alloc_value_page(&mut self, pool: &mut BufferPool) -> Result<PageId> {
        if let Some(id) = self.free_head {
            let next = pool.with_page(id, |p| get_u32(p, 1))?;
            self.free_head = if next == 0 { None } else { Some(next) };
            return Ok(id);
        }
        pool.allocate()
    }

    fn write_value(&mut self, pool: &mut BufferPool, value: &[u8]) -> Result<PageId> {
        let mut chunks: Vec<&[u8]> = value.chunks(VAL_CAP).collect();
        if chunks.is_empty() {
            chunks.push(&[]);
        }
        let pages: Vec<PageId> = (0..chunks.len())
            .map(|_| self.alloc_value_page(pool))
            .collect::<Result<_>>()?;
        for (i, part) in chunks.iter().enumerate() {
            let next = pages.get(i + 1).copied().unwrap_or(0);
            pool.with_page_mut(pages[i], |p| {
                p[0] = TAG_VALUE;
                put_u32(p, 1, next);
                put_u16(p, 5, part.len() as u16);
                p[VAL_HDR..VAL_HDR + part.len()].copy_from_slice(part);
            })?;
        }
        Ok(pages[0])
    }

    /// Assemble a value from its chain: each page's bytes are appended
    /// straight from the pinned page into the pre-sized output.
    fn read_value(&self, pool: &mut BufferPool, head: PageId, len: usize) -> Result<Vec<u8>> {
        let mut out = Vec::with_capacity(len);
        let mut cur = head;
        while out.len() < len {
            let next = pool.with_page(cur, |p| {
                if p[0] != TAG_VALUE {
                    return Err(StoreError::Corrupt(format!(
                        "page {cur} is not a value page"
                    )));
                }
                let used = get_u16(p, 5) as usize;
                out.extend_from_slice(&p[VAL_HDR..VAL_HDR + used]);
                Ok(get_u32(p, 1))
            })??;
            if next == 0 {
                break;
            }
            cur = next;
        }
        if out.len() != len {
            return Err(StoreError::Corrupt(format!(
                "value chain yielded {} bytes, expected {len}",
                out.len()
            )));
        }
        Ok(out)
    }

    fn free_value_chain(&mut self, pool: &mut BufferPool, head: PageId) -> Result<()> {
        let mut cur = head;
        loop {
            let next = pool.with_page(cur, |p| get_u32(p, 1))?;
            let old_head = self.free_head.unwrap_or(0);
            pool.with_page_mut(cur, |p| {
                put_u32(p, 1, old_head);
            })?;
            self.free_head = Some(cur);
            if next == 0 {
                break;
            }
            cur = next;
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // Search
    // -----------------------------------------------------------------

    /// Descend to the leaf that may contain `key`.
    fn find_leaf(&mut self, pool: &mut BufferPool, key: &TreeKey) -> Result<PageId> {
        self.descents += 1;
        let mut cur = self.root;
        loop {
            let (tag, next) = pool.with_page(cur, |p| {
                if p[0] == TAG_LEAF {
                    (TAG_LEAF, 0)
                } else {
                    (TAG_INTERNAL, child_for(p, key).1)
                }
            })?;
            if tag == TAG_LEAF {
                return Ok(cur);
            }
            cur = next;
        }
    }

    /// Get the value stored under `key`.
    pub fn get(&mut self, pool: &mut BufferPool, key: &TreeKey) -> Result<Option<Vec<u8>>> {
        let leaf = self.find_leaf(pool, key)?;
        self.leaf_reads += 1;
        let found = pool.with_page(leaf, |p| {
            let (pos, _, found) = leaf_slot(p, key);
            let off = HDR + pos * LEAF_ENTRY;
            found.then(|| (get_u32(p, off + 16) as usize, get_u32(p, off + 20)))
        })?;
        match found {
            Some((len, head)) => Ok(Some(self.read_value(pool, head, len)?)),
            None => Ok(None),
        }
    }

    /// All `(key, value)` pairs with `lo <= key <= hi`, in key order.
    pub fn range(
        &mut self,
        pool: &mut BufferPool,
        lo: &TreeKey,
        hi: &TreeKey,
    ) -> Result<Vec<(TreeKey, Vec<u8>)>> {
        let mut out = Vec::new();
        let mut leaf = self.find_leaf(pool, lo)?;
        loop {
            self.leaf_reads += 1;
            // The entries of this leaf inside the range, from the lower
            // bound on; `past` once a key above `hi` was seen.
            let (entries, past, next): (Vec<(TreeKey, usize, PageId)>, bool, u32) = pool
                .with_page(leaf, |p| {
                    let (start, n, _) = leaf_slot(p, lo);
                    let mut es = Vec::new();
                    let mut past = false;
                    for i in start..n {
                        let off = HDR + i * LEAF_ENTRY;
                        let k = get_key(p, off);
                        if &k > hi {
                            past = true;
                            break;
                        }
                        es.push((k, get_u32(p, off + 16) as usize, get_u32(p, off + 20)));
                    }
                    (es, past, get_u32(p, 4))
                })?;
            for (k, len, head) in entries {
                let v = self.read_value(pool, head, len)?;
                out.push((k, v));
            }
            if past || next == 0 {
                break;
            }
            leaf = next;
        }
        Ok(out)
    }

    // -----------------------------------------------------------------
    // Insert
    // -----------------------------------------------------------------

    /// Insert or replace the value under `key`.
    pub fn put(&mut self, pool: &mut BufferPool, key: &TreeKey, value: &[u8]) -> Result<()> {
        let head = self.write_value(pool, value)?;
        let len = value.len() as u32;
        if let Some((sep, right)) = self.insert_rec(pool, self.root, key, len, head)? {
            // Grow a new root.
            let new_root = pool.allocate()?;
            let old_root = self.root;
            pool.with_page_mut(new_root, |p| {
                p[0] = TAG_INTERNAL;
                put_u16(p, 1, 1);
                put_u32(p, 4, old_root);
                p[HDR..HDR + 16].copy_from_slice(&sep);
                put_u32(p, HDR + 16, right);
            })?;
            self.root = new_root;
        }
        Ok(())
    }

    fn insert_rec(
        &mut self,
        pool: &mut BufferPool,
        node: PageId,
        key: &TreeKey,
        len: u32,
        head: PageId,
    ) -> Result<Option<(TreeKey, PageId)>> {
        let tag = pool.with_page(node, |p| p[0])?;
        if tag == TAG_LEAF {
            return self.leaf_insert(pool, node, key, len, head);
        }
        // Internal: find child position.
        let (pos, child) = pool.with_page(node, |p| child_for(p, key))?;
        let Some((sep, right)) = self.insert_rec(pool, child, key, len, head)? else {
            return Ok(None);
        };
        // Insert (sep, right) at `pos` in this internal node.
        let overflow = pool.with_page_mut(node, |p| {
            let n = get_u16(p, 1) as usize;
            // Shift entries right.
            let start = HDR + pos * INT_ENTRY;
            let end = HDR + n * INT_ENTRY;
            p.copy_within(start..end, start + INT_ENTRY);
            p[start..start + 16].copy_from_slice(&sep);
            put_u32(p, start + 16, right);
            put_u16(p, 1, (n + 1) as u16);
            n + 1 > MAX_INT_KEYS
        })?;
        if !overflow {
            return Ok(None);
        }
        // Split internal node: middle key moves up.
        let new_right = pool.allocate()?;
        let (mid_key, moved): (TreeKey, Vec<u8>) = pool.with_page_mut(node, |p| {
            let n = get_u16(p, 1) as usize;
            let mid = n / 2;
            let mid_off = HDR + mid * INT_ENTRY;
            let mid_key = get_key(p, mid_off);
            // Right node gets child = mid entry's child as child0, plus
            // entries mid+1..n.
            let mut moved = Vec::new();
            moved.extend_from_slice(&get_u32(p, mid_off + 16).to_le_bytes());
            moved.extend_from_slice(&p[mid_off + INT_ENTRY..HDR + n * INT_ENTRY]);
            put_u16(p, 1, mid as u16);
            (mid_key, moved)
        })?;
        pool.with_page_mut(new_right, |p| {
            p[0] = TAG_INTERNAL;
            let child0 = u32::from_le_bytes(moved[0..4].try_into().unwrap());
            put_u32(p, 4, child0);
            let rest = &moved[4..];
            let nkeys = rest.len() / INT_ENTRY;
            p[HDR..HDR + rest.len()].copy_from_slice(rest);
            put_u16(p, 1, nkeys as u16);
        })?;
        Ok(Some((mid_key, new_right)))
    }

    fn leaf_insert(
        &mut self,
        pool: &mut BufferPool,
        leaf: PageId,
        key: &TreeKey,
        len: u32,
        head: PageId,
    ) -> Result<Option<(TreeKey, PageId)>> {
        // Replace in place if the key exists, freeing the old chain.
        let replaced = pool.with_page_mut(leaf, |p| {
            let (pos, _, found) = leaf_slot(p, key);
            let off = HDR + pos * LEAF_ENTRY;
            found.then(|| {
                let old_head = get_u32(p, off + 20);
                put_u32(p, off + 16, len);
                put_u32(p, off + 20, head);
                old_head
            })
        })?;
        if let Some(old_head) = replaced {
            self.free_value_chain(pool, old_head)?;
            return Ok(None);
        }
        let overflow = pool.with_page_mut(leaf, |p| {
            let (pos, n, _) = leaf_slot(p, key);
            let start = HDR + pos * LEAF_ENTRY;
            let end = HDR + n * LEAF_ENTRY;
            p.copy_within(start..end, start + LEAF_ENTRY);
            p[start..start + 16].copy_from_slice(key);
            put_u32(p, start + 16, len);
            put_u32(p, start + 20, head);
            put_u16(p, 1, (n + 1) as u16);
            n + 1 > MAX_LEAF_KEYS
        })?;
        if !overflow {
            return Ok(None);
        }
        // Split leaf.
        let new_right = pool.allocate()?;
        let (sep, moved, old_next): (TreeKey, Vec<u8>, u32) = pool.with_page_mut(leaf, |p| {
            let n = get_u16(p, 1) as usize;
            let mid = n / 2;
            let sep = get_key(p, HDR + mid * LEAF_ENTRY);
            let moved = p[HDR + mid * LEAF_ENTRY..HDR + n * LEAF_ENTRY].to_vec();
            let old_next = get_u32(p, 4);
            put_u16(p, 1, mid as u16);
            put_u32(p, 4, new_right);
            (sep, moved, old_next)
        })?;
        pool.with_page_mut(new_right, |p| {
            p[0] = TAG_LEAF;
            put_u16(p, 1, (moved.len() / LEAF_ENTRY) as u16);
            put_u32(p, 4, old_next);
            p[HDR..HDR + moved.len()].copy_from_slice(&moved);
        })?;
        Ok(Some((sep, new_right)))
    }

    // -----------------------------------------------------------------
    // Delete
    // -----------------------------------------------------------------

    /// Remove `key`. Returns true if it existed. Leaves are not merged.
    pub fn delete(&mut self, pool: &mut BufferPool, key: &TreeKey) -> Result<bool> {
        let leaf = self.find_leaf(pool, key)?;
        let removed = pool.with_page_mut(leaf, |p| {
            let (pos, n, found) = leaf_slot(p, key);
            let off = HDR + pos * LEAF_ENTRY;
            found.then(|| {
                let head = get_u32(p, off + 20);
                p.copy_within(off + LEAF_ENTRY..HDR + n * LEAF_ENTRY, off);
                put_u16(p, 1, (n - 1) as u16);
                head
            })
        })?;
        match removed {
            Some(head) => {
                self.free_value_chain(pool, head)?;
                Ok(true)
            }
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pager::Pager;

    fn key(hi: u64, lo: u64) -> TreeKey {
        let mut k = [0u8; 16];
        k[..8].copy_from_slice(&hi.to_be_bytes());
        k[8..].copy_from_slice(&lo.to_be_bytes());
        k
    }

    fn setup() -> (BufferPool, BPlusTree) {
        let mut pool = BufferPool::new(Pager::in_memory(), 64);
        let tree = BPlusTree::create(&mut pool).unwrap();
        (pool, tree)
    }

    #[test]
    fn put_get_small() {
        let (mut pool, mut tree) = setup();
        tree.put(&mut pool, &key(1, 1), b"hello").unwrap();
        assert_eq!(tree.get(&mut pool, &key(1, 1)).unwrap().unwrap(), b"hello");
        assert_eq!(tree.get(&mut pool, &key(1, 2)).unwrap(), None);
    }

    #[test]
    fn replace_value() {
        let (mut pool, mut tree) = setup();
        tree.put(&mut pool, &key(1, 1), b"old").unwrap();
        tree.put(&mut pool, &key(1, 1), b"new-value").unwrap();
        assert_eq!(
            tree.get(&mut pool, &key(1, 1)).unwrap().unwrap(),
            b"new-value"
        );
    }

    #[test]
    fn large_value_spans_pages() {
        let (mut pool, mut tree) = setup();
        let v: Vec<u8> = (0..20_000).map(|i| (i % 251) as u8).collect();
        tree.put(&mut pool, &key(9, 9), &v).unwrap();
        assert_eq!(tree.get(&mut pool, &key(9, 9)).unwrap().unwrap(), v);
    }

    #[test]
    fn empty_value() {
        let (mut pool, mut tree) = setup();
        tree.put(&mut pool, &key(3, 3), b"").unwrap();
        assert_eq!(tree.get(&mut pool, &key(3, 3)).unwrap().unwrap(), b"");
    }

    #[test]
    fn many_keys_force_splits() {
        let (mut pool, mut tree) = setup();
        let n = 2000u64;
        // Insert in a scrambled order to exercise mid-leaf insertion.
        for i in 0..n {
            let k = (i * 7919) % n;
            tree.put(&mut pool, &key(1, k), format!("v{k}").as_bytes())
                .unwrap();
        }
        for k in 0..n {
            let got = tree.get(&mut pool, &key(1, k)).unwrap().unwrap();
            assert_eq!(got, format!("v{k}").as_bytes(), "key {k}");
        }
    }

    #[test]
    fn range_scan_in_order() {
        let (mut pool, mut tree) = setup();
        for k in 0..500u64 {
            tree.put(&mut pool, &key(2, k), &k.to_le_bytes()).unwrap();
        }
        let rows = tree.range(&mut pool, &key(2, 100), &key(2, 199)).unwrap();
        assert_eq!(rows.len(), 100);
        for (i, (k, v)) in rows.iter().enumerate() {
            assert_eq!(*k, key(2, 100 + i as u64));
            assert_eq!(v.as_slice(), &(100 + i as u64).to_le_bytes());
        }
    }

    #[test]
    fn range_scan_crosses_arrays() {
        let (mut pool, mut tree) = setup();
        tree.put(&mut pool, &key(1, 5), b"a").unwrap();
        tree.put(&mut pool, &key(2, 0), b"b").unwrap();
        let rows = tree
            .range(&mut pool, &key(1, 0), &key(1, u64::MAX))
            .unwrap();
        assert_eq!(rows.len(), 1, "range is bounded by the composite key");
    }

    #[test]
    fn delete_and_reinsert() {
        let (mut pool, mut tree) = setup();
        for k in 0..300u64 {
            tree.put(&mut pool, &key(1, k), b"x").unwrap();
        }
        assert!(tree.delete(&mut pool, &key(1, 150)).unwrap());
        assert!(!tree.delete(&mut pool, &key(1, 150)).unwrap());
        assert_eq!(tree.get(&mut pool, &key(1, 150)).unwrap(), None);
        tree.put(&mut pool, &key(1, 150), b"back").unwrap();
        assert_eq!(tree.get(&mut pool, &key(1, 150)).unwrap().unwrap(), b"back");
    }

    #[test]
    fn freed_chains_are_recycled() {
        let (mut pool, mut tree) = setup();
        let big = vec![7u8; 50_000];
        tree.put(&mut pool, &key(1, 1), &big).unwrap();
        let pages_after_first = pool.pager().page_count();
        tree.delete(&mut pool, &key(1, 1)).unwrap();
        tree.put(&mut pool, &key(1, 2), &big).unwrap();
        let growth = pool.pager().page_count() - pages_after_first;
        assert!(
            growth <= 2,
            "second insert should reuse freed pages, grew by {growth}"
        );
    }

    #[test]
    fn descending_insert_order() {
        let (mut pool, mut tree) = setup();
        for k in (0..800u64).rev() {
            tree.put(&mut pool, &key(1, k), &k.to_le_bytes()).unwrap();
        }
        let rows = tree.range(&mut pool, &key(1, 0), &key(1, 799)).unwrap();
        assert_eq!(rows.len(), 800);
        assert!(rows.windows(2).all(|w| w[0].0 < w[1].0));
    }

    /// First and last key of every node, internal and leaf, in the tree.
    fn node_edges(
        pool: &mut BufferPool,
        node: PageId,
        edges: &mut Vec<TreeKey>,
        depth: usize,
    ) -> usize {
        let (tag, n, children): (u8, usize, Vec<PageId>) = pool
            .with_page(node, |p| {
                let n = get_u16(p, 1) as usize;
                let stride = if p[0] == TAG_LEAF {
                    LEAF_ENTRY
                } else {
                    INT_ENTRY
                };
                if n > 0 {
                    edges.push(get_key(p, HDR));
                    edges.push(get_key(p, HDR + (n - 1) * stride));
                }
                let children = match p[0] {
                    TAG_LEAF => Vec::new(),
                    _ => std::iter::once(get_u32(p, 4))
                        .chain((0..n).map(|i| get_u32(p, HDR + i * INT_ENTRY + 16)))
                        .collect(),
                };
                (p[0], n, children)
            })
            .unwrap();
        assert!(tag == TAG_LEAF || n > 0);
        children
            .into_iter()
            .map(|c| node_edges(pool, c, edges, depth + 1))
            .max()
            .unwrap_or(depth)
    }

    /// Random put / replace / delete / get / range against a `BTreeMap`,
    /// with every probe key taken from a node boundary of a three-level
    /// tree (the first and last key of each node, and the keys just
    /// below and above them, which fall between nodes), ranges that
    /// start and end on such keys and cross arrays, and values of every
    /// chain shape: empty, one byte, exactly one page, one page and a
    /// byte, and a megabyte.
    #[test]
    fn matches_a_btreemap_on_node_boundaries() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use std::collections::BTreeMap;

        let (mut pool, mut tree) = setup();
        let mut model: BTreeMap<TreeKey, Vec<u8>> = BTreeMap::new();
        let mut rng = StdRng::seed_from_u64(0xB7EE);
        let value = |rng: &mut StdRng, big: bool| -> Vec<u8> {
            let len = match rng.gen_range(0..if big { 37 } else { 36 }) {
                0..=7 => 0,
                8..=15 => 1,
                16..=19 => VAL_CAP,
                20..=23 => VAL_CAP + 1,
                24..=35 => rng.gen_range(2..200usize),
                _ => 1_000_000,
            };
            let salt: u8 = rng.gen();
            (0..len)
                .map(|i| (i as u8).wrapping_mul(31) ^ salt)
                .collect()
        };
        // Array 1 ascending: half-full leaves, enough of them to split
        // the root a second time. Arrays 2 and 3 scrambled and
        // descending. Chunk ids step by 4, so a key's neighbours are
        // absent and sit between nodes.
        for c in 0..18_000u64 {
            let (k, v) = (key(1, c * 4), value(&mut rng, false));
            tree.put(&mut pool, &k, &v).unwrap();
            model.insert(k, v);
        }
        for i in 0..1_500u64 {
            for k in [key(2, (i * 7919) % 1_500 * 4), key(3, (1_499 - i) * 4)] {
                let v = value(&mut rng, false);
                tree.put(&mut pool, &k, &v).unwrap();
                model.insert(k, v);
            }
        }
        let mut edges = Vec::new();
        let depth = node_edges(&mut pool, tree.root(), &mut edges, 0);
        assert!(
            depth >= 2,
            "want internal nodes below the root, got depth {depth}"
        );
        let mut probes: Vec<TreeKey> = edges
            .iter()
            .flat_map(|k| {
                let n = u128::from_be_bytes(*k);
                [n.saturating_sub(1), n, n.saturating_add(1)].map(u128::to_be_bytes)
            })
            .chain([key(0, 0), key(1, 0), key(2, 0), key(4, 0), [0xFF; 16]])
            .collect();
        probes.sort_unstable();
        probes.dedup();

        let expect_range = |model: &BTreeMap<TreeKey, Vec<u8>>, lo: &TreeKey, hi: &TreeKey| {
            model
                .range(*lo..=*hi)
                .map(|(k, v)| (*k, v.clone()))
                .collect::<Vec<_>>()
        };
        for step in 0..6_000 {
            let i = rng.gen_range(0..probes.len());
            let k = probes[i];
            match rng.gen_range(0..10u32) {
                0..=2 => {
                    let got = tree.get(&mut pool, &k).unwrap();
                    assert_eq!(got.as_ref(), model.get(&k), "step {step}: get {k:?}");
                }
                3..=5 => {
                    let v = value(&mut rng, true);
                    tree.put(&mut pool, &k, &v).unwrap();
                    model.insert(k, v);
                }
                6..=7 => {
                    let existed = tree.delete(&mut pool, &k).unwrap();
                    assert_eq!(existed, model.remove(&k).is_some(), "step {step}: delete");
                }
                _ => {
                    // Mostly a few nodes wide; now and then across
                    // arrays, or empty (hi below lo's successor).
                    let width = match rng.gen_range(0..40u32) {
                        0 => probes.len(),
                        _ => rng.gen_range(0..12usize),
                    };
                    let hi = probes[(i + width).min(probes.len() - 1)];
                    let got = tree.range(&mut pool, &k, &hi).unwrap();
                    assert!(
                        got == expect_range(&model, &k, &hi),
                        "step {step}: range {k:?}..={hi:?}"
                    );
                }
            }
        }
        let all = tree.range(&mut pool, &[0; 16], &[0xFF; 16]).unwrap();
        assert!(all == expect_range(&model, &[0; 16], &[0xFF; 16]));
        for k in &probes {
            assert_eq!(tree.get(&mut pool, k).unwrap().as_ref(), model.get(k));
        }
    }
}
